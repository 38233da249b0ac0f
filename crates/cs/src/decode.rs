//! The decode path: Gram-cached correlations, an incrementally grown
//! Cholesky factor, and batched per-point decoding. [`reconstruct_batch`]
//! over [`DictionaryArtifacts`] is the one entry point every CS
//! reconstruction runs through — the sweep, the stream, detector training,
//! the ablations and the examples — and [`DictionaryArtifacts::new`],
//! given the sensing matrix and the basis, is the one way those artifacts
//! are built.
//!
//! The reference decoder in [`crate::recon`] rebuilds `A_S`, re-forms
//! `A_SᵀA_S` and re-runs a full Cholesky factorisation every iteration —
//! O(m·n + m·k² + k³) per selected atom. The kernel here reuses the
//! per-dictionary [`DictionaryArtifacts`]: with `G = AᵀA` and `b = Aᵀy`
//! precomputed, correlations update as `Aᵀr = b − G[:,S]·x_S` (O(n·k), four
//! Gram rows per pass), the support normal equations grow by one rank-one
//! Cholesky append per iteration (O(k²)), the forward solution grows by one
//! entry (O(k)) ahead of a back substitution over contiguous rows of `Lᵀ`
//! (O(k²)), and the atom is selected by a branch-free maximum over the
//! normalised scores (O(n)). The stop test needs `‖y − A_S·x_S‖`; an O(k)
//! estimate from the normal equations decides it whenever its rounding
//! bound leaves no doubt that the decode continues, and the O(m·k) explicit
//! recompute runs only near the threshold. That makes an iteration
//! O(n·k + k²), with the O(m·k) residual only near the stop.
//!
//! None of those shortcuts moves an output bit: every element sums the
//! same products in the same order as a one-atom-per-pass refresh, a full
//! forward substitution and a column-strided back substitution would, and
//! the residual estimate only skips recomputes whose stop test is certain
//! to fail (`residual_clears_threshold` carries the argument; debug builds
//! recompute and check every skip). `tests/back_end_pins.rs` pins the
//! decoded bits, near-threshold frames included.
//!
//! The reference path is retained only as the oracle; the differential
//! harness in `tests/omp_diff.rs` pins the two together (identical support
//! selection, coefficients within 1e-9, reconstructions within 1e-9 of the
//! frame norm for every [`crate::Basis`]), and [`reconstruct_batch`] is
//! bit-identical across decode thread counts.

use crate::linalg::{dot, norm2, GrowingCholesky, Matrix};
use crate::memo::DictionaryArtifacts;
use crate::recon::OmpConfig;
use efficsense_dsp::approx::{is_zero, total_eq};

/// Per-worker workspace: every buffer the OMP kernel needs, allocated once
/// per batch (or per pool worker) and recycled across its frames.
#[derive(Debug)]
struct OmpScratch {
    /// Correlations `Aᵀr` for the current residual.
    corr: Vec<f64>,
    /// Selection scores `|corr_j|/‖a_j‖`, support entries overwritten by −1.
    score: Vec<f64>,
    /// `b = Aᵀy` for the frame being decoded.
    b: Vec<f64>,
    /// Explicit residual `y − A_S·x_S`.
    residual: Vec<f64>,
    /// Selected atoms in selection order.
    support: Vec<usize>,
    /// Coefficients on the support (selection order).
    x: Vec<f64>,
    /// `b` gathered on the support (selection order).
    bs: Vec<f64>,
    /// Forward solution `z` of `L·z = b_S`, one entry longer per append.
    z: Vec<f64>,
    /// `max(‖a_s‖, √(G_ss + λ))` per support atom (selection order): the
    /// per-atom weight of the residual estimate's error bound.
    weight: Vec<f64>,
    /// Support atoms with a nonzero coefficient, with that coefficient, in
    /// selection order.
    active: Vec<(usize, f64)>,
    /// Gram cross terms `G[S, j]` for the atom being appended.
    cross: Vec<f64>,
    /// Growing Cholesky factor of `G_S + ridge·I`.
    chol: GrowingCholesky,
}

impl OmpScratch {
    /// Fresh workspace; buffers are sized lazily on first use.
    fn new() -> Self {
        Self {
            corr: Vec::new(),
            score: Vec::new(),
            b: Vec::new(),
            residual: Vec::new(),
            support: Vec::new(),
            x: Vec::new(),
            bs: Vec::new(),
            z: Vec::new(),
            weight: Vec::new(),
            active: Vec::new(),
            cross: Vec::new(),
            chol: GrowingCholesky::new(1, 0.0),
        }
    }

    /// Sizes (or re-sizes) every buffer for an `m × n` problem with at most
    /// `k_max` atoms and resets per-frame state.
    fn prepare(&mut self, n: usize, k_max: usize, ridge: f64) {
        self.corr.resize(n, 0.0);
        self.score.resize(n, 0.0);
        self.support.clear();
        self.x.clear();
        self.bs.clear();
        self.z.clear();
        self.weight.clear();
        self.cross.clear();
        if self.chol.capacity() < k_max {
            self.chol = GrowingCholesky::new(k_max.max(1), ridge);
        } else {
            self.chol.reset(ridge);
        }
    }
}

/// `corr = b − Σ_{s∈S, x_s≠0} x_s·G[s, :]`, four Gram rows per pass over
/// `corr`. Every element still subtracts its terms one at a time in
/// selection order (`v -= x0·g0; v -= x1·g1; …`), so the result is the
/// same, bit for bit, as one pass per support atom.
fn refresh_correlations(corr: &mut [f64], b: &[f64], gram: &Matrix, active: &[(usize, f64)]) {
    corr.copy_from_slice(b);
    let mut quads = active.chunks_exact(4);
    for q in &mut quads {
        let (g0, g1, g2, g3) = (
            gram.row(q[0].0),
            gram.row(q[1].0),
            gram.row(q[2].0),
            gram.row(q[3].0),
        );
        let (x0, x1, x2, x3) = (q[0].1, q[1].1, q[2].1, q[3].1);
        for ((((v, &a0), &a1), &a2), &a3) in corr.iter_mut().zip(g0).zip(g1).zip(g2).zip(g3) {
            *v -= x0 * a0;
            *v -= x1 * a1;
            *v -= x2 * a2;
            *v -= x3 * a3;
        }
    }
    for &(s, xs) in quads.remainder() {
        for (v, &g) in corr.iter_mut().zip(gram.row(s)) {
            *v -= xs * g;
        }
    }
}

/// Largest value of `v` that is not NaN (−∞ for an empty slice), and
/// whether any entry is NaN. Eight independent lanes: a maximum is exact
/// in any order, so the lanes only change speed.
fn lane_max(v: &[f64]) -> (f64, bool) {
    let mut lanes = [f64::NEG_INFINITY; 8];
    let mut nan = false;
    let chunks = v.chunks_exact(8);
    let rest = chunks.remainder();
    for c in chunks {
        for (lane, &x) in lanes.iter_mut().zip(c) {
            nan |= x.is_nan();
            *lane = if x > *lane { x } else { *lane };
        }
    }
    for &x in rest {
        nan |= x.is_nan();
        lanes[0] = if x > lanes[0] { x } else { lanes[0] };
    }
    let max = lanes
        .iter()
        .fold(f64::NEG_INFINITY, |m, &l| if l > m { l } else { m });
    (max, nan)
}

/// Argmax of `|corr_j|/norm_j` over the columns outside the support, ties
/// resolved to the *last* maximal index (`Iterator::max_by` under
/// `total_cmp`, as the reference selection loop does). Returns the index
/// and its score, or `None` when every column is in the support.
///
/// The fast form takes the maximum score first, then the last index whose
/// score equals it. It picks the reference's atom because `total_cmp` and
/// numeric order agree on every score it can meet: `abs` clears the sign
/// and [`DictionaryArtifacts::new`] floors every norm at 1e-300, so each
/// score is +0.0, positive or +∞ — never −0.0 — and the support's −1
/// sentinels sort below all of them. A NaN score is the one value on which
/// the two orders part (`total_cmp` ranks it above +∞), so any NaN sends the
/// selection through the reference loop instead.
fn select_atom(ws: &mut OmpScratch, col_norms: &[f64]) -> Option<(usize, f64)> {
    for ((sc, &cv), &cn) in ws.score.iter_mut().zip(&ws.corr).zip(col_norms) {
        *sc = cv.abs() / cn;
    }
    for &s in &ws.support {
        ws.score[s] = -1.0;
    }
    let (best, nan) = lane_max(&ws.score);
    if nan {
        let mut pick: Option<(usize, f64)> = None;
        for (j, &v) in ws.score.iter().enumerate() {
            if ws.support.contains(&j) {
                continue;
            }
            pick = match pick {
                None => Some((j, v)),
                Some((_, bv)) if v.total_cmp(&bv) != std::cmp::Ordering::Less => Some((j, v)),
                keep => keep,
            };
        }
        return pick;
    }
    if best < 0.0 {
        return None;
    }
    ws.score
        .iter()
        .rposition(|&v| total_eq(v, best))
        .map(|j| (j, best))
}

/// Whether the explicit residual can be skipped this iteration because the
/// stop test `‖r‖ ≤ thr` is certain to fail. `ridge` is `λ`, `yy` is
/// `‖y‖²` as computed for `‖y‖`, `m` the measurement count, and the
/// support state is that of `ws` after the current append and solve.
///
/// For the exact solution `x` of the ridge system `(G_S + λI)·x = b_S`, the
/// residual energy is `‖y − A_S·x‖² = ‖y‖² − xᵀb_S − λ‖x‖²`; the estimate
/// `E` evaluates that with the computed `x`. Its gap to the square of the
/// norm the explicit recompute would return is covered by four terms, each
/// at most `γ_{m+k+O(1)}·S²` with `S = ‖y‖ + Σ|x_i|·max(‖a_i‖, √(G_ii+λ))`
/// and `γ_n = n·ε/(1 − n·ε)`:
///
/// - the Cholesky solve's backward error (Higham, *Accuracy and Stability
///   of Numerical Algorithms*, Thm 10.4: the computed `x` solves a system
///   perturbed by `|ΔG| ≤ γ_{3k+1}·|L|·|Lᵀ|`, and row `i` of `L` has norm
///   `√(G_ii+λ)`), which shifts `xᵀG_S·x` by at most `γ_{3k+1}·S²`;
/// - the rounding of the stored Gram (`m`-term sums): `γ_m·S²`;
/// - the rounding of the stored `b = Aᵀy` (`m`-term dots), entering
///   twice: `2γ_m·S²`;
/// - the rounding of the explicit residual (`k+1` terms per row) and of
///   its norm (`m` squares and a root), plus the few roundings of `E`
///   itself: `(γ_{2k+2} + γ_{2m+4})·S²`.
///
/// Their sum is below `B = 16·(m+k+2)·ε·S²` with room for the rounding of
/// `B` and `S`. So when `E − B > thr²·(1+16ε)`, the recomputed norm exceeds
/// `thr` and the stop test would fail; the recompute only feeds that test,
/// so skipping it cannot change the decode.
///
/// That rounding model assumes no underflow. A frame so small that `B`
/// underflows (`‖y‖` near 1e-150 or below) breaks it: `B` rounds to 0 and
/// `E` keeps only a few significant bits. The skip therefore also requires
/// `B` to be a normal number. Then each product that underflows adds an
/// absolute error of at most `2⁻¹⁰⁷⁵ = u·2⁻¹⁰²²`, below `u·B`; weighted by
/// coefficients of at most `S` over a column weight and summed over every
/// product of the frame, these stay far inside the slack of `B` as long as
/// the dictionary's columns are not themselves near the underflow range.
/// Near the threshold, if `E` is not finite or if `B` is not a normal
/// number, the caller recomputes the residual exactly as before.
fn residual_clears_threshold(
    ws: &OmpScratch,
    ridge: f64,
    yy: f64,
    y_norm: f64,
    m: usize,
    thr: f64,
) -> bool {
    let k = ws.support.len();
    let e = yy - dot(&ws.x, &ws.bs) - ridge * dot(&ws.x, &ws.x);
    let s = y_norm
        + ws.x
            .iter()
            .zip(&ws.weight)
            .map(|(xi, wi)| xi.abs() * wi)
            .sum::<f64>();
    let bound = 16.0 * (m + k + 2) as f64 * f64::EPSILON * s * s;
    e.is_finite() && bound.is_normal() && e - bound > thr * thr * (1.0 + 16.0 * f64::EPSILON)
}

/// `‖y − A_S·x_S‖`, with the residual accumulated into `ws.residual` atom
/// by atom over contiguous rows of `Aᵀ`. Near the discrepancy threshold
/// the stop test needs this explicit form: the algebraic
/// `‖y‖² − xᵀb_S − λ‖x‖²` cancels catastrophically there and could flip the
/// test, so `residual_clears_threshold` lets that estimate decide only
/// where its rounding bound leaves no doubt.
fn explicit_residual(ws: &mut OmpScratch, at: &Matrix, y: &[f64]) -> f64 {
    ws.residual.clear();
    ws.residual.resize(y.len(), 0.0);
    for (&sj, &xs) in ws.support.iter().zip(&ws.x) {
        for (rv, &av) in ws.residual.iter_mut().zip(at.row(sj)) {
            *rv += av * xs;
        }
    }
    for (rv, &yi) in ws.residual.iter_mut().zip(y) {
        *rv = yi - *rv;
    }
    norm2(&ws.residual)
}

/// Per-frame kernel of [`reconstruct_batch`]: same greedy selection and
/// stopping rules as [`crate::recon::omp_with_col_norms`], against the
/// transposed dictionary `Aᵀ`, the Gram matrix `G = AᵀA` and the fixed ridge
/// of [`DictionaryArtifacts`]. Expects `ws.b` to already hold `Aᵀy` for this
/// frame.
fn omp_fast_core(
    at: &Matrix,
    gram: &Matrix,
    col_norms: &[f64],
    ridge: f64,
    y: &[f64],
    cfg: &OmpConfig,
    ws: &mut OmpScratch,
) -> Vec<f64> {
    assert_eq!(
        col_norms.len(),
        at.rows(),
        "one column norm per dictionary column"
    );
    assert_eq!(gram.rows(), at.rows(), "gram must be cols x cols");
    assert_eq!(gram.cols(), at.rows(), "gram must be cols x cols");
    assert!(cfg.sparsity > 0, "sparsity must be positive");
    let n = at.rows();
    let m = at.cols();
    let k_max = cfg.sparsity.min(m).min(n);
    efficsense_dsp::approx::debug_assert_all_finite(y, "omp measurements");
    let mut s = vec![0.0; n];
    let yy = dot(y, y);
    let y_norm = yy.sqrt();
    if is_zero(y_norm) {
        return s;
    }
    let thr = cfg.residual_tol * y_norm;
    ws.prepare(n, k_max, ridge);
    for _ in 0..k_max {
        // Correlations via the cached Gram: Aᵀr = b − Σ_{s∈S} x_s·G[s, :].
        ws.active.clear();
        ws.active.extend(
            ws.support
                .iter()
                .zip(&ws.x)
                .filter(|(_, xs)| !is_zero(**xs))
                .map(|(&sj, &xs)| (sj, xs)),
        );
        refresh_correlations(&mut ws.corr, &ws.b, gram, &ws.active);
        let Some((j_star, best_v)) = select_atom(ws, col_norms) else {
            break;
        };
        if best_v < 1e-300 {
            break;
        }
        // Grow the support factor by one atom; a non-positive pivot means
        // the atom is numerically dependent on the support — drop it and
        // stop, exactly like the reference path's failed refit.
        let gj = gram.row(j_star);
        ws.cross.clear();
        ws.cross.extend(ws.support.iter().map(|&sj| gj[sj]));
        if ws.chol.try_append(&ws.cross, gj[j_star]).is_err() {
            break;
        }
        ws.support.push(j_star);
        ws.bs.push(ws.b[j_star]);
        ws.weight
            .push(col_norms[j_star].max((gj[j_star] + ridge).sqrt()));
        // The factor's leading block and b_S's prefix are unchanged, so the
        // forward solution gains one entry; back substitution then runs in
        // full.
        ws.chol.extend_forward(&ws.bs, &mut ws.z);
        ws.x.clear();
        ws.x.extend_from_slice(&ws.z);
        ws.chol.back_substitute(&mut ws.x);
        efficsense_dsp::approx::debug_assert_all_finite(&ws.x, "omp support coefficients");
        if residual_clears_threshold(ws, ridge, yy, y_norm, m, thr) {
            debug_assert!(
                explicit_residual(ws, at, y) > thr,
                "residual estimate skipped a recompute that would stop the decode"
            );
            continue;
        }
        if explicit_residual(ws, at, y) <= thr {
            break;
        }
    }
    for (&j, &v) in ws.support.iter().zip(&ws.x) {
        s[j] = v;
    }
    efficsense_dsp::approx::debug_assert_all_finite(&s, "omp_fast_core coefficients");
    s
}

/// Sparse synthesis `x̂ = Ψ·ŝ` against the transposed operator `Ψᵀ`:
/// accumulates one contiguous-row axpy per *nonzero* coefficient, in
/// ascending atom order — O(k·n) for a k-sparse decode instead of the dense
/// O(n²) transform.
fn synthesize_sparse(synth_t: &Matrix, s: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; synth_t.cols()];
    for (j, &sj) in s.iter().enumerate() {
        if is_zero(sj) {
            continue;
        }
        for (xv, &pv) in x.iter_mut().zip(synth_t.row(j)) {
            *xv += pv * sj;
        }
    }
    x
}

/// Decodes every frame measured through one dictionary in one call:
/// `x̂ = Ψ·OMP(A, y)` per frame, with `A` and Ψ those baked into `art`
/// (build it once per dictionary with [`DictionaryArtifacts::new`] or the
/// memoized [`crate::memo::dictionary`]).
///
/// `Aᵀy` for all frames is computed as a single cache-blocked pass over the
/// dictionary, then frames fan out over the shared worker pool
/// ([`efficsense_obs::ObsRegistry::parallel_map`]; `threads <= 1` decodes
/// inline on the caller), which returns them in frame order — so the output
/// is **bit-identical for every thread count**.
///
/// # Panics
///
/// Panics if `frames.len() != cfgs.len()` or any frame's length differs
/// from the dictionary row count.
pub fn reconstruct_batch(
    art: &DictionaryArtifacts,
    frames: &[Vec<f64>],
    cfgs: &[OmpConfig],
    threads: usize,
) -> Vec<Vec<f64>> {
    assert_eq!(frames.len(), cfgs.len(), "one decoder config per frame");
    if frames.is_empty() {
        return Vec::new();
    }
    let _batch_span = efficsense_obs::span!("recon.batch");
    let at = &art.dict_t;
    let m = at.cols();
    let n = at.rows();
    for f in frames {
        assert_eq!(f.len(), m, "measurement length must equal row count");
    }
    // One blocked AᵀY pass: row r of `bmat` is Aᵀ·frames[r]. The outer loop
    // streams each atom (row of `Aᵀ`) once for *all* frames; each entry is
    // one contiguous `dot`, so a frame's `Aᵀy` does not depend on the batch
    // it is decoded in.
    let mut bmat = Matrix::zeros(frames.len(), n);
    {
        let _bmat_span = efficsense_obs::span!("recon.bmat");
        for c in 0..n {
            let atom = at.row(c);
            for (r, frame) in frames.iter().enumerate() {
                bmat[(r, c)] = dot(atom, frame);
            }
        }
    }
    let decode = |ws: &mut OmpScratch, r: usize| -> Vec<f64> {
        let _frame_span = efficsense_obs::span!("recon.frame");
        ws.b.clear();
        ws.b.extend_from_slice(bmat.row(r));
        let s = omp_fast_core(
            at,
            &art.gram,
            &art.col_norms,
            art.ridge,
            &frames[r],
            &cfgs[r],
            ws,
        );
        synthesize_sparse(&art.synth_t, &s)
    };
    if threads <= 1 {
        let mut ws = OmpScratch::new();
        return (0..frames.len()).map(|r| decode(&mut ws, r)).collect();
    }
    efficsense_obs::global().parallel_map(threads, frames.len(), OmpScratch::new, decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::Basis;
    use crate::matrix::SensingMatrix;

    fn dense_problem(n: usize, m: usize, k: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let a = SensingMatrix::gaussian(m, n, seed).to_dense();
        let mut s = vec![0.0; n];
        for i in 0..k {
            s[(i * 31 + 7) % n] = if i % 2 == 0 { 1.0 } else { -0.6 };
        }
        let x = Basis::Dct.synthesize(&s);
        let y = a.matvec(&x);
        (a, y)
    }

    #[test]
    fn zero_measurement_decodes_to_zero() {
        let (a, _) = dense_problem(32, 16, 3, 4);
        let art = DictionaryArtifacts::new(&a, Basis::Identity);
        let y = vec![0.0; art.dictionary.rows()];
        let x = reconstruct_batch(&art, &[y], &[OmpConfig::with_sparsity(4)], 1);
        assert!(x[0].iter().all(|v| is_zero(*v)));
    }

    #[test]
    fn tiny_frames_decode_like_their_unit_scale_copy() {
        // At 1e-145 the residual bound is still a normal number, so the
        // estimate skips recomputes (and debug builds check each skip). From
        // 1e-160 it underflows to 0, the estimate keeps a bit or two (at
        // 11/7·1e-160 it reads +1e-323 on the exact fit) and every
        // iteration must take the explicit residual. All stop after the
        // same five atoms as the unit frame.
        let (a, y) = dense_problem(64, 32, 5, 9);
        let art = DictionaryArtifacts::new(&a, Basis::Dct);
        let cfgs = [OmpConfig {
            sparsity: 12,
            residual_tol: 1e-3,
        }];
        let decode = |y: Vec<f64>| reconstruct_batch(&art, &[y], &cfgs, 1).remove(0);
        let unit = decode(y.clone());
        let near_underflow = (0..8).map(|j| 1e-160 * (1.0 + j as f64 / 7.0));
        for scale in std::iter::once(1e-145).chain(near_underflow) {
            let got = decode(y.iter().map(|v| v * scale).collect());
            for (g, u) in got.iter().zip(&unit) {
                assert!(
                    (g / scale - u).abs() <= 1e-9 * u.abs().max(1.0),
                    "scale {scale:e}: {g:e} vs {u:e}"
                );
            }
        }
    }

    /// The selection loop `select_atom` must reproduce: the last maximum of
    /// `|corr_j|/norm_j` under `total_cmp` over the non-support columns.
    fn reference_select(corr: &[f64], norms: &[f64], support: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (j, (&cv, &cn)) in corr.iter().zip(norms).enumerate() {
            if support.contains(&j) {
                continue;
            }
            let v = cv.abs() / cn;
            best = match best {
                None => Some((j, v)),
                Some((_, bv)) if v.total_cmp(&bv) != std::cmp::Ordering::Less => Some((j, v)),
                keep => keep,
            };
        }
        best
    }

    #[test]
    fn selection_matches_the_reference_loop() {
        // 37 columns: four full 8-lane chunks and a remainder. Every fifth
        // norm is the 1e-300 floor, so large correlations overflow to +∞.
        let n = 37;
        let norms: Vec<f64> = (0..n)
            .map(|j| {
                if j % 5 == 0 {
                    1e-300
                } else {
                    0.5 + j as f64 / 8.0
                }
            })
            .collect();
        let mut rng = efficsense_rng::Rng64::new(7);
        let mut cases: Vec<Vec<f64>> = vec![
            // Ties: several columns share the largest score.
            (0..n)
                .map(|j| if j % 7 == 3 { 2.0 * norms[j] } else { 0.1 })
                .collect(),
            // Only zeros of both signs.
            (0..n)
                .map(|j| if j % 2 == 0 { 0.0 } else { -0.0 })
                .collect(),
            // Two scores overflow to +∞.
            (0..n)
                .map(|j| if j == 10 || j == 20 { -1e10 } else { 3.0 })
                .collect(),
            // A NaN correlation takes the reference loop.
            (0..n)
                .map(|j| if j == 4 { f64::NAN } else { j as f64 })
                .collect(),
        ];
        // Coarsely quantised draws, so ties are common.
        for _ in 0..20 {
            cases.push((0..n).map(|_| (rng.normal() * 4.0).round()).collect());
        }
        let supports: [Vec<usize>; 4] = [vec![], vec![3, 10, 4], vec![36], (0..n).collect()];
        for corr in &cases {
            for support in &supports {
                let mut ws = OmpScratch::new();
                ws.prepare(n, n, 0.0);
                ws.corr.copy_from_slice(corr);
                ws.support.extend(support);
                let got = select_atom(&mut ws, &norms).map(|(j, v)| (j, v.to_bits()));
                let want = reference_select(corr, &norms, support).map(|(j, v)| (j, v.to_bits()));
                assert_eq!(got, want, "corr {corr:?}, support {support:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one decoder config per frame")]
    fn batch_rejects_mismatched_config_count() {
        let (a, y) = dense_problem(32, 16, 3, 4);
        let art = DictionaryArtifacts::new(&a, Basis::Dct);
        let _ = reconstruct_batch(&art, &[y], &[], 1);
    }
}
