//! Reference sparse solvers: orthogonal matching pursuit and FISTA.
//!
//! Every CS reconstruction runs [`crate::decode::reconstruct_batch`]; the
//! dense [`omp`] here is kept as its oracle (the differential harness in
//! `tests/omp_diff.rs` and the `omp` bench's naive baseline), and [`ista`]
//! as the ablation's alternative decoder. [`OmpConfig`] configures both OMP
//! implementations.

use crate::linalg::{least_squares, norm2, Matrix};
use efficsense_dsp::approx::is_zero;

/// Configuration of the OMP decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpConfig {
    /// Maximum number of atoms to select.
    pub sparsity: usize,
    /// Stop early when `‖r‖ ≤ residual_tol·‖y‖`.
    pub residual_tol: f64,
}

impl OmpConfig {
    /// A configuration selecting at most `k` atoms with the default residual
    /// tolerance of 1e-6.
    pub fn with_sparsity(k: usize) -> Self {
        Self {
            sparsity: k,
            residual_tol: 1e-6,
        }
    }

    /// The discrepancy-principle (Morozov) configuration for measurement
    /// `y`: select at most `sparsity` atoms, and stop once the residual
    /// reaches the expected measurement-noise norm `noise_norm`, relative
    /// to `‖y‖` and clamped to `[1e-4, 0.9]`.
    pub fn discrepancy(sparsity: usize, noise_norm: f64, y: &[f64]) -> Self {
        Self {
            sparsity,
            residual_tol: (noise_norm / norm2(y).max(1e-300)).clamp(1e-4, 0.9),
        }
    }
}

impl Default for OmpConfig {
    fn default() -> Self {
        Self::with_sparsity(16)
    }
}

/// Orthogonal matching pursuit: greedily solves `y ≈ A·s` with `‖s‖₀ ≤ k`.
///
/// Returns the full-length sparse coefficient vector.
///
/// ```
/// use efficsense_cs::linalg::Matrix;
/// use efficsense_cs::recon::{omp, OmpConfig};
/// // Identity dictionary: OMP recovers the largest entries exactly.
/// let a = Matrix::identity(8);
/// let y = [0.0, 3.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0];
/// let s = omp(&a, &y, &OmpConfig::with_sparsity(2));
/// // (a tiny ridge keeps the internal solver conditioned, so ~1e-12 slack)
/// assert!((s[1] - 3.0).abs() < 1e-9);
/// assert!((s[4] + 1.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `y.len() != a.rows()` or the config sparsity is 0.
pub fn omp(a: &Matrix, y: &[f64], cfg: &OmpConfig) -> Vec<f64> {
    // Precompute column norms for normalised correlation (one strided pass,
    // no per-column copies — same computation `DictionaryArtifacts` caches).
    let col_norms: Vec<f64> = a.col_norms().into_iter().map(|n| n.max(1e-300)).collect();
    omp_with_col_norms(a, &col_norms, y, cfg)
}

/// [`omp`] with the column norms of `a` supplied by the caller, so a caller
/// decoding many frames against one dictionary (the `omp` bench's naive
/// baseline) computes `‖A·,j‖₂` once instead of paying an `O(m·n)` pass per
/// frame. The norms must be exactly `‖A·,j‖₂.max(1e-300)` (see
/// [`crate::memo::DictionaryArtifacts`]); supplying them does not change the
/// result by a single bit.
///
/// # Panics
///
/// Panics if `y.len() != a.rows()`, `col_norms.len() != a.cols()` or the
/// config sparsity is 0.
pub fn omp_with_col_norms(a: &Matrix, col_norms: &[f64], y: &[f64], cfg: &OmpConfig) -> Vec<f64> {
    assert_eq!(y.len(), a.rows(), "measurement length must equal row count");
    assert_eq!(
        col_norms.len(),
        a.cols(),
        "one column norm per dictionary column"
    );
    assert!(cfg.sparsity > 0, "sparsity must be positive");
    let n = a.cols();
    let k_max = cfg.sparsity.min(a.rows()).min(n);
    efficsense_dsp::approx::debug_assert_all_finite(y, "omp measurements");
    let y_norm = norm2(y);
    if is_zero(y_norm) {
        return vec![0.0; n];
    }
    let mut support: Vec<usize> = Vec::with_capacity(k_max);
    // Membership mask: O(1) per candidate instead of the former O(k)
    // `support.contains` scan inside the argmax (same set, same selection).
    let mut in_support = vec![false; n];
    let mut residual = y.to_vec();
    let mut coeffs_on_support: Vec<f64> = Vec::new();
    for _ in 0..k_max {
        // Select the column most correlated with the residual.
        let corr = a.matvec_t(&residual);
        let best = (0..n).filter(|&j| !in_support[j]).max_by(|&i, &j| {
            (corr[i].abs() / col_norms[i]).total_cmp(&(corr[j].abs() / col_norms[j]))
        });
        let Some(j_star) = best else { break };
        if corr[j_star].abs() / col_norms[j_star] < 1e-300 {
            break;
        }
        support.push(j_star);
        in_support[j_star] = true;
        // Least squares on the current support.
        let mut a_s = Matrix::zeros(a.rows(), support.len());
        for (c, &j) in support.iter().enumerate() {
            for r in 0..a.rows() {
                a_s[(r, c)] = a[(r, j)];
            }
        }
        match least_squares(&a_s, y) {
            Ok(x_s) => {
                let approx = a_s.matvec(&x_s);
                for (ri, (yi, ai)) in y.iter().zip(&approx).enumerate() {
                    residual[ri] = yi - ai;
                }
                coeffs_on_support = x_s;
            }
            Err(_) => {
                // Degenerate support column; drop it and stop.
                support.pop();
                break;
            }
        }
        if norm2(&residual) <= cfg.residual_tol * y_norm {
            break;
        }
    }
    let mut s = vec![0.0; n];
    for (&j, &v) in support.iter().zip(&coeffs_on_support) {
        s[j] = v;
    }
    efficsense_dsp::approx::debug_assert_all_finite(&s, "omp coefficients");
    s
}

/// Accelerated iterative shrinkage-thresholding (FISTA) for
/// `min ½‖y−As‖² + λ‖s‖₁`.
///
/// A fixed-iteration proximal gradient solver with Nesterov momentum, used
/// as the OMP ablation baseline.
///
/// # Panics
///
/// Panics if `y.len() != a.rows()`, `lambda < 0` or `iterations == 0`.
pub fn ista(a: &Matrix, y: &[f64], lambda: f64, iterations: usize) -> Vec<f64> {
    assert_eq!(y.len(), a.rows(), "measurement length must equal row count");
    assert!(lambda >= 0.0, "lambda must be non-negative");
    assert!(iterations > 0, "need at least one iteration");
    let l = {
        let s = a.spectral_norm_est(30);
        (s * s).max(1e-12) * 1.05 // small margin over the power-iteration estimate
    };
    let step = 1.0 / l;
    let thresh = lambda * step;
    let n = a.cols();
    let mut s = vec![0.0; n];
    let mut z = vec![0.0; n]; // momentum point
    let mut t = 1.0f64;
    for _ in 0..iterations {
        let az = a.matvec(&z);
        let r: Vec<f64> = y.iter().zip(&az).map(|(yi, ai)| yi - ai).collect();
        let grad = a.matvec_t(&r);
        let s_prev = s.clone();
        for i in 0..n {
            let v = z[i] + step * grad[i];
            // Soft threshold.
            s[i] = v.signum() * (v.abs() - thresh).max(0.0);
        }
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_next;
        for i in 0..n {
            z[i] = s[i] + beta * (s[i] - s_prev[i]);
        }
        t = t_next;
    }
    efficsense_dsp::approx::debug_assert_all_finite(&s, "ista coefficients");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::Basis;
    use crate::matrix::SensingMatrix;

    /// Number of nonzero coefficients.
    fn nonzeros(s: &[f64]) -> usize {
        s.iter().filter(|v| !is_zero(**v)).count()
    }

    /// `x̂ = Ψ·OMP(Φ·Ψ, y)` with the DCT basis.
    fn reconstruct_dct(phi: &Matrix, y: &[f64], cfg: &OmpConfig) -> Vec<f64> {
        let a = phi.matmul(&Basis::Dct.matrix(phi.cols()));
        Basis::Dct.synthesize(&omp(&a, y, cfg))
    }

    /// Builds a k-sparse DCT-domain signal and its measurements.
    fn sparse_problem(n: usize, m: usize, k: usize, seed: u64) -> (Vec<f64>, Matrix, Vec<f64>) {
        let phi = SensingMatrix::gaussian(m, n, seed).to_dense();
        let mut s = vec![0.0; n];
        for i in 0..k {
            s[(i * 37 + 5) % n] = if i % 2 == 0 { 1.0 } else { -0.7 };
        }
        let x = Basis::Dct.synthesize(&s);
        let y = phi.matvec(&x);
        (x, phi, y)
    }

    #[test]
    fn omp_recovers_exactly_sparse_signal() {
        let (x, phi, y) = sparse_problem(64, 32, 4, 1);
        let xh = reconstruct_dct(&phi, &y, &OmpConfig::with_sparsity(4));
        let err = x
            .iter()
            .zip(&xh)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-8, "recovery error {err}");
    }

    #[test]
    fn omp_with_srbm_matrix() {
        let n = 96;
        let phi = SensingMatrix::srbm(48, n, 2, 3).to_dense();
        let mut s = vec![0.0; n];
        s[3] = 2.0;
        s[40] = -1.0;
        s[77] = 0.5;
        let x = Basis::Dct.synthesize(&s);
        let y = phi.matvec(&x);
        let xh = reconstruct_dct(&phi, &y, &OmpConfig::with_sparsity(6));
        let nmse: f64 = x
            .iter()
            .zip(&xh)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / x.iter().map(|a| a * a).sum::<f64>();
        assert!(nmse < 1e-6, "NMSE {nmse}");
    }

    #[test]
    fn omp_early_stops_on_small_residual() {
        let (_, phi, y) = sparse_problem(64, 32, 2, 5);
        let psi = Basis::Dct.matrix(64);
        let a = phi.matmul(&psi);
        let s = omp(
            &a,
            &y,
            &OmpConfig {
                sparsity: 30,
                residual_tol: 1e-8,
            },
        );
        // Should stop near the true sparsity of 2, not use all 30 atoms.
        assert!(nonzeros(&s) <= 4, "support {}", nonzeros(&s));
    }

    #[test]
    fn omp_zero_measurements_give_zero() {
        let a = Matrix::identity(8);
        let s = omp(&a, &[0.0; 8], &OmpConfig::with_sparsity(3));
        assert!(s.iter().all(|v| is_zero(*v)));
    }

    #[test]
    fn omp_handles_noise_gracefully() {
        let (x, phi, mut y) = sparse_problem(64, 32, 3, 9);
        for (i, v) in y.iter_mut().enumerate() {
            *v += 0.01 * ((i * 31) as f64).sin();
        }
        let xh = reconstruct_dct(&phi, &y, &OmpConfig::with_sparsity(3));
        let nmse: f64 = x
            .iter()
            .zip(&xh)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / x.iter().map(|a| a * a).sum::<f64>();
        assert!(nmse < 0.05, "noisy NMSE {nmse}");
    }

    #[test]
    fn ista_recovers_sparse_signal_approximately() {
        let (x, phi, y) = sparse_problem(64, 40, 3, 2);
        let psi = Basis::Dct.matrix(64);
        let a = phi.matmul(&psi);
        let s = ista(&a, &y, 1e-4, 500);
        let xh = Basis::Dct.synthesize(&s);
        let nmse: f64 = x
            .iter()
            .zip(&xh)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / x.iter().map(|a| a * a).sum::<f64>();
        assert!(nmse < 0.01, "ISTA NMSE {nmse}");
    }

    #[test]
    fn ista_lambda_controls_sparsity() {
        let (_, phi, y) = sparse_problem(64, 40, 3, 7);
        let psi = Basis::Dct.matrix(64);
        let a = phi.matmul(&psi);
        let s_small = ista(&a, &y, 1e-5, 200);
        let s_large = ista(&a, &y, 1e-1, 200);
        assert!(nonzeros(&s_large) < nonzeros(&s_small));
    }

    #[test]
    #[should_panic(expected = "column norm")]
    fn omp_with_col_norms_rejects_length_mismatch() {
        let a = Matrix::identity(4);
        let _ = omp_with_col_norms(&a, &[1.0; 3], &[1.0; 4], &OmpConfig::with_sparsity(2));
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn omp_rejects_zero_sparsity() {
        let a = Matrix::identity(4);
        let _ = omp(
            &a,
            &[1.0; 4],
            &OmpConfig {
                sparsity: 0,
                residual_tol: 0.0,
            },
        );
    }
}
