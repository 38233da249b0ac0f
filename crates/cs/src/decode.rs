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
//! precomputed, correlations update as `Aᵀr = b − G[:,S]·x_S` (O(n·k)) and
//! the support normal equations grow by one rank-one Cholesky append per
//! iteration (O(k²)), for O(n·k + m·k + k²) per iteration overall.
//!
//! The reference path is retained only as the oracle; the differential
//! harness in `tests/omp_diff.rs` pins the two together (identical support
//! selection, coefficients within 1e-9, reconstructions within 1e-9 of the
//! frame norm for every [`crate::Basis`]), and [`reconstruct_batch`] is
//! bit-identical across decode thread counts.

use crate::linalg::{dot, norm2, GrowingCholesky, Matrix};
use crate::memo::DictionaryArtifacts;
use crate::recon::OmpConfig;
use efficsense_dsp::approx::is_zero;

/// Per-worker workspace: every buffer the OMP kernel needs, allocated once
/// per batch (or per pool worker) and recycled across its frames.
#[derive(Debug)]
struct OmpScratch {
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
    fn new() -> Self {
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
    #[should_panic(expected = "one decoder config per frame")]
    fn batch_rejects_mismatched_config_count() {
        let (a, y) = dense_problem(32, 16, 3, 4);
        let art = DictionaryArtifacts::new(&a, Basis::Dct);
        let _ = reconstruct_batch(&art, &[y], &[], 1);
    }
}
