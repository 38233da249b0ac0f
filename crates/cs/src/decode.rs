//! Fast OMP decode path: Gram-cached correlations, an incrementally grown
//! Cholesky factor, and batched per-point decoding.
//!
//! The reference decoder in [`crate::recon`] rebuilds `A_S`, re-forms
//! `A_SᵀA_S` and re-runs a full Cholesky factorisation every iteration —
//! O(m·n + m·k² + k³) per selected atom. The kernels here reuse the
//! per-design-point [`DictionaryArtifacts`]: with `G = AᵀA` and `b = Aᵀy`
//! precomputed, correlations update as `Aᵀr = b − G[:,S]·x_S` (O(n·k)) and
//! the support normal equations grow by one rank-one Cholesky append per
//! iteration (O(k²)), for O(n·k + m·k + k²) per iteration overall.
//!
//! The reference path is retained as the oracle; the differential harness in
//! `tests/omp_diff.rs` pins the two together (identical support selection,
//! coefficients within 1e-9), and [`reconstruct_batch`] is bit-identical
//! across decode thread counts.

use crate::linalg::{dot, norm2, GrowingCholesky, Matrix};
use crate::memo::DictionaryArtifacts;
use crate::recon::OmpConfig;
use efficsense_dsp::approx::is_zero;

/// Reusable per-decoder workspace: every buffer the fast OMP kernel needs,
/// allocated once and recycled across frames (and across points — buffers
/// resize on dimension changes).
#[derive(Debug)]
pub struct OmpScratch {
    /// Correlations `Aᵀr` for the current residual.
    corr: Vec<f64>,
    /// `b = Aᵀy` for the frame being decoded.
    b: Vec<f64>,
    /// Explicit residual `y − A_S·x_S`.
    residual: Vec<f64>,
    /// Membership mask over dictionary columns.
    in_support: Vec<bool>,
    /// Selected atoms in selection order.
    support: Vec<usize>,
    /// Coefficients on the support (selection order).
    x: Vec<f64>,
    /// `b` gathered on the support (selection order).
    bs: Vec<f64>,
    /// Gram cross terms `G[S, j]` for the atom being appended.
    cross: Vec<f64>,
    /// Growing Cholesky factor of `G_S + ridge·I`.
    chol: GrowingCholesky,
}

impl OmpScratch {
    /// Fresh workspace; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            corr: Vec::new(),
            b: Vec::new(),
            residual: Vec::new(),
            in_support: Vec::new(),
            support: Vec::new(),
            x: Vec::new(),
            bs: Vec::new(),
            cross: Vec::new(),
            chol: GrowingCholesky::new(1, 0.0),
        }
    }

    /// Sizes (or re-sizes) every buffer for an `m × n` problem with at most
    /// `k_max` atoms and resets per-frame state.
    fn prepare(&mut self, n: usize, k_max: usize, ridge: f64) {
        self.corr.resize(n, 0.0);
        self.in_support.clear();
        self.in_support.resize(n, false);
        self.support.clear();
        self.x.clear();
        self.bs.clear();
        self.cross.clear();
        if self.chol.capacity() < k_max {
            self.chol = GrowingCholesky::new(k_max.max(1), ridge);
        } else {
            self.chol.reset(ridge);
        }
    }
}

impl Default for OmpScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Fast OMP against an explicit dictionary: same greedy selection and
/// stopping rules as [`crate::recon::omp_with_col_norms`], but with the
/// caller-precomputed Gram matrix and a per-call scratch workspace.
///
/// `gram` must be `AᵀA` (see [`Matrix::gram`]); `ridge` is the fixed
/// diagonal regulariser (see [`DictionaryArtifacts::ridge`]).
///
/// # Panics
///
/// Panics if `y.len() != a.rows()`, `col_norms.len() != a.cols()`, `gram`
/// is not `cols × cols`, or the config sparsity is 0.
pub fn omp_fast(
    a: &Matrix,
    gram: &Matrix,
    col_norms: &[f64],
    ridge: f64,
    y: &[f64],
    cfg: &OmpConfig,
    ws: &mut OmpScratch,
) -> Vec<f64> {
    // This compatibility entry transposes `A` per call; the hot paths
    // ([`reconstruct_fast`], [`reconstruct_batch`]) reuse the transposed
    // dictionary precomputed in [`DictionaryArtifacts`].
    let at = a.transpose();
    omp_fast_t(&at, gram, col_norms, ridge, y, cfg, ws)
}

/// [`omp_fast`] against the *transposed* dictionary `Aᵀ` (row `j` = atom
/// `j`): fills `ws.b = Aᵀy` as contiguous row dots, then runs the shared
/// kernel.
fn omp_fast_t(
    at: &Matrix,
    gram: &Matrix,
    col_norms: &[f64],
    ridge: f64,
    y: &[f64],
    cfg: &OmpConfig,
    ws: &mut OmpScratch,
) -> Vec<f64> {
    assert_eq!(
        y.len(),
        at.cols(),
        "measurement length must equal row count"
    );
    ws.b.clear();
    ws.b.extend((0..at.rows()).map(|c| dot(at.row(c), y)));
    omp_fast_core(at, gram, col_norms, ridge, y, cfg, ws)
}

/// Kernel shared by [`omp_fast`] and [`reconstruct_batch`]; takes the
/// transposed dictionary `Aᵀ` and expects `ws.b` to already hold `Aᵀy` for
/// this frame.
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
    let y_norm = norm2(y);
    if is_zero(y_norm) {
        return s;
    }
    ws.prepare(n, k_max, ridge);
    ws.residual.clear();
    ws.residual.extend_from_slice(y);
    for _ in 0..k_max {
        // Correlations via the cached Gram: Aᵀr = b − Σ_{s∈S} x_s·G[s, :].
        ws.corr.copy_from_slice(&ws.b);
        for (&sj, &xs) in ws.support.iter().zip(&ws.x) {
            if is_zero(xs) {
                continue;
            }
            for (cv, &gv) in ws.corr.iter_mut().zip(gram.row(sj)) {
                *cv -= xs * gv;
            }
        }
        // Argmax of |corr|/norm over non-support columns. Ties resolve to
        // the *last* maximal index, matching `Iterator::max_by` in the
        // reference selection loop.
        let mut best: Option<(usize, f64)> = None;
        for (j, (&cv, &cn)) in ws.corr.iter().zip(col_norms).enumerate() {
            if ws.in_support[j] {
                continue;
            }
            let v = cv.abs() / cn;
            best = match best {
                None => Some((j, v)),
                Some((_, bv)) if v.total_cmp(&bv) != std::cmp::Ordering::Less => Some((j, v)),
                keep => keep,
            };
        }
        let Some((j_star, best_v)) = best else { break };
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
        ws.in_support[j_star] = true;
        ws.bs.push(ws.b[j_star]);
        ws.chol.solve_into(&ws.bs, &mut ws.x);
        // Explicit residual r = y − A_S·x_S, accumulated atom-by-atom over
        // contiguous rows of `Aᵀ`. Recomputing from `y` (rather than
        // maintaining ‖r‖² algebraically) avoids the catastrophic
        // cancellation that would otherwise flip the stopping test near the
        // discrepancy threshold.
        ws.residual.iter_mut().for_each(|v| *v = 0.0);
        for (&sj, &xs) in ws.support.iter().zip(&ws.x) {
            for (rv, &av) in ws.residual.iter_mut().zip(at.row(sj)) {
                *rv += av * xs;
            }
        }
        for (rv, &yi) in ws.residual.iter_mut().zip(y) {
            *rv = yi - *rv;
        }
        if norm2(&ws.residual) <= cfg.residual_tol * y_norm {
            break;
        }
    }
    for (&j, &v) in ws.support.iter().zip(&ws.x) {
        s[j] = v;
    }
    efficsense_dsp::approx::debug_assert_all_finite(&s, "omp_fast coefficients");
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

/// Single-frame fast reconstruction against precomputed
/// [`DictionaryArtifacts`]: `x̂ = Ψ·OMP_fast(A, y)`. The sparsifying basis
/// is the one baked into the artifacts (`synth_t`).
///
/// # Panics
///
/// Panics on the same dimension mismatches as [`omp_fast`].
pub fn reconstruct_fast(
    art: &DictionaryArtifacts,
    y: &[f64],
    cfg: &OmpConfig,
    ws: &mut OmpScratch,
) -> Vec<f64> {
    let s = omp_fast_t(
        &art.dict_t,
        &art.gram,
        &art.col_norms,
        art.ridge,
        y,
        cfg,
        ws,
    );
    synthesize_sparse(&art.synth_t, &s)
}

/// Decodes every frame of a point in one call.
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
    // the same contiguous `dot` the single-frame path computes, so the two
    // entry points agree bit for bit.
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
        let _chol_span = efficsense_obs::span!("recon.cholup");
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
    use crate::recon::omp_with_col_norms;

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
    fn fast_path_matches_reference_on_one_problem() {
        let (a, y) = dense_problem(64, 32, 4, 9);
        let col_norms: Vec<f64> = a.col_norms().into_iter().map(|v| v.max(1e-300)).collect();
        let gram = a.gram();
        let ridge = 1e-12 * (gram.frobenius_norm() / gram.rows() as f64).max(1e-300);
        let cfg = OmpConfig::with_sparsity(6);
        let reference = omp_with_col_norms(&a, &col_norms, &y, &cfg);
        let mut ws = OmpScratch::new();
        let fast = omp_fast(&a, &gram, &col_norms, ridge, &y, &cfg, &mut ws);
        for (r, f) in reference.iter().zip(&fast) {
            assert!((r - f).abs() < 1e-9, "coeff mismatch: {r} vs {f}");
        }
    }

    #[test]
    fn zero_measurement_decodes_to_zero() {
        let (a, _) = dense_problem(32, 16, 3, 4);
        let col_norms: Vec<f64> = a.col_norms().into_iter().map(|v| v.max(1e-300)).collect();
        let gram = a.gram();
        let mut ws = OmpScratch::new();
        let y = vec![0.0; a.rows()];
        let s = omp_fast(
            &a,
            &gram,
            &col_norms,
            1e-12,
            &y,
            &OmpConfig::with_sparsity(4),
            &mut ws,
        );
        assert!(s.iter().all(|v| is_zero(*v)));
    }

    #[test]
    #[should_panic(expected = "one decoder config per frame")]
    fn batch_rejects_mismatched_config_count() {
        let (a, y) = dense_problem(32, 16, 3, 4);
        let art = DictionaryArtifacts::from_dictionary(a, Basis::Dct, 1.0);
        let _ = reconstruct_batch(&art, &[y], &[], 1);
    }

    #[test]
    fn scratch_is_reusable_across_dimension_changes() {
        let mut ws = OmpScratch::new();
        for &(n, m, k, seed) in &[
            (48usize, 24usize, 5usize, 2u64),
            (96, 40, 9, 3),
            (32, 16, 4, 5),
        ] {
            let (a, y) = dense_problem(n, m, 3, seed);
            let col_norms: Vec<f64> = a.col_norms().into_iter().map(|v| v.max(1e-300)).collect();
            let gram = a.gram();
            let ridge = 1e-12 * (gram.frobenius_norm() / gram.rows() as f64).max(1e-300);
            let cfg = OmpConfig::with_sparsity(k);
            let reference = omp_with_col_norms(&a, &col_norms, &y, &cfg);
            let fast = omp_fast(&a, &gram, &col_norms, ridge, &y, &cfg, &mut ws);
            for (r, f) in reference.iter().zip(&fast) {
                assert!((r - f).abs() < 1e-9);
            }
        }
    }
}
