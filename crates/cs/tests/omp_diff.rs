//! Differential harness pinning the decode path (`reconstruct_batch`, the
//! Gram/incremental-Cholesky OMP kernel) to the retained reference
//! implementation: identical support selection and coefficients within 1e-9
//! over a population of seeded Gaussian and SRBM problems, reconstructions
//! within 1e-9 of the frame norm for every basis, identical degenerate-pivot
//! rejection, and bit-identical batched decoding across thread counts.
//!
//! Artifacts built with an identity synthesis operator make the decoded frame
//! the coefficient vector itself, so the coefficient-level tests compare the
//! kernel's output directly.

use efficsense_cs::basis::Basis;
use efficsense_cs::decode::reconstruct_batch;
use efficsense_cs::linalg::{cholesky_solve, GrowingCholesky, Matrix};
use efficsense_cs::matrix::SensingMatrix;
use efficsense_cs::memo::DictionaryArtifacts;
use efficsense_cs::recon::{omp_with_col_norms, OmpConfig};
use efficsense_dsp::approx::is_zero;
use efficsense_rng::{mix64, GOLDEN_GAMMA};

/// SplitMix64 avalanche: one stateless draw per seed, so each problem entry
/// is a pure function of its seed and index.
fn mix(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// Uniform in [0, 1).
fn unit(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// One seeded problem: a k-sparse DCT-domain signal measured by `a`, with a
/// small deterministic perturbation so the discrepancy stopping rule gets
/// exercised on some seeds.
fn problem(a: &Matrix, k: usize, seed: u64) -> Vec<f64> {
    let n = a.cols();
    let mut s = vec![0.0; n];
    for i in 0..k {
        let j = (mix(seed ^ (i as u64 + 1)) as usize) % n;
        s[j] = 2.0 * unit(seed ^ 0xC0FFEE ^ i as u64) - 1.0 + 0.1;
    }
    let x = Basis::Dct.synthesize(&s);
    let mut y = a.matvec(&x);
    for (i, v) in y.iter_mut().enumerate() {
        *v += 1e-6 * (2.0 * unit(seed ^ 0xA015E ^ (i as u64) << 16) - 1.0);
    }
    y
}

fn support_of(coeffs: &[f64]) -> Vec<usize> {
    coeffs
        .iter()
        .enumerate()
        .filter(|(_, v)| !is_zero(**v))
        .map(|(j, _)| j)
        .collect()
}

#[test]
fn fast_path_matches_reference_over_seeded_problem_population() {
    let dims = [(24usize, 64usize), (32, 96), (40, 96)];
    let mut checked = 0usize;
    for seed in 0..60u64 {
        let (m, n) = dims[(seed % 3) as usize];
        let k = 3 + (seed % 5) as usize;
        for gaussian in [true, false] {
            let a = if gaussian {
                SensingMatrix::gaussian(m, n, seed + 1).to_dense()
            } else {
                SensingMatrix::srbm(m, n, 2, seed + 1).to_dense()
            };
            let y = problem(&a, k, seed ^ if gaussian { 0 } else { 0xFACE });
            let art = DictionaryArtifacts::from_dictionary(a, &Matrix::identity(n), 0.0);
            let cfg = OmpConfig {
                sparsity: k + 2,
                residual_tol: if seed % 2 == 0 { 1e-6 } else { 1e-4 },
            };
            let reference = omp_with_col_norms(&art.dictionary, &art.col_norms, &y, &cfg);
            let fast = reconstruct_batch(&art, &[y], &[cfg], 1).remove(0);
            assert_eq!(
                support_of(&reference),
                support_of(&fast),
                "support mismatch on seed {seed} (gaussian={gaussian})"
            );
            for (j, (r, f)) in reference.iter().zip(&fast).enumerate() {
                assert!(
                    (r - f).abs() < 1e-9,
                    "coeff {j} mismatch on seed {seed} (gaussian={gaussian}): {r} vs {f}"
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 100, "population too small: {checked}");
}

#[test]
fn batch_decode_matches_reference_synthesis_for_every_basis() {
    let dims = [(24usize, 64usize), (32, 96), (40, 96)];
    let mut checked = 0usize;
    for basis in [Basis::Identity, Basis::Dct, Basis::Haar, Basis::Db4] {
        for d in 0..4u64 {
            let (m, n) = dims[(d % 3) as usize];
            let seed = 0xBA5E ^ (d << 8) ^ basis as u64;
            let phi = if d % 2 == 0 {
                SensingMatrix::gaussian(m, n, seed).to_dense()
            } else {
                SensingMatrix::srbm(m, n, 2, seed).to_dense()
            };
            let psi = basis.matrix(n);
            let art = DictionaryArtifacts::from_dictionary(phi.matmul(&psi), &psi, 1.0);
            let k = 3 + (d % 4) as usize;
            let mut frames = Vec::new();
            let mut cfgs = Vec::new();
            let mut signals = Vec::new();
            for f in 0..10u64 {
                let fseed = seed ^ (f << 20);
                let mut s = vec![0.0; n];
                for i in 0..k as u64 {
                    s[(mix(fseed ^ (i + 1)) as usize) % n] = 2.0 * unit(fseed ^ i) - 1.0 + 0.1;
                }
                let mut y = art.dictionary.matvec(&s);
                for (i, v) in y.iter_mut().enumerate() {
                    *v += 1e-6 * (2.0 * unit(fseed ^ 0xA015E ^ ((i as u64) << 32)) - 1.0);
                }
                signals.push(basis.synthesize(&s));
                frames.push(y);
                cfgs.push(OmpConfig {
                    sparsity: k + 2,
                    residual_tol: if f % 2 == 0 { 1e-6 } else { 1e-4 },
                });
            }
            let decoded = reconstruct_batch(&art, &frames, &cfgs, 1);
            for (r, fast) in decoded.iter().enumerate() {
                let s = omp_with_col_norms(&art.dictionary, &art.col_norms, &frames[r], &cfgs[r]);
                let reference = basis.synthesize(&s);
                let err = reference
                    .iter()
                    .zip(fast)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let norm = signals[r].iter().map(|v| v * v).sum::<f64>().sqrt();
                assert!(
                    err <= 1e-9 * norm,
                    "{basis} dictionary {d} frame {r}: error {err:e} vs frame norm {norm:e}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 160, "population size");
}

#[test]
fn growing_cholesky_rejects_degenerate_pivot_exactly_like_reference() {
    // Gram of two *identical* atoms: the second pivot is exactly zero in
    // both factorisations (they share the same divisions and products), so
    // the rejection point and message must agree bit for bit.
    let u = [1.5, -2.0, 0.5, 3.0];
    let g00: f64 = u.iter().map(|v| v * v).sum();
    let mut g = Matrix::zeros(2, 2);
    g[(0, 0)] = g00;
    g[(0, 1)] = g00;
    g[(1, 0)] = g00;
    g[(1, 1)] = g00;
    let reference = cholesky_solve(&g, &[1.0, 1.0]);
    let mut grown = GrowingCholesky::new(2, 0.0);
    grown
        .try_append(&[], g00)
        .expect("first atom must be accepted");
    let incremental = grown.try_append(&[g00], g00);
    let ref_err = reference.expect_err("duplicate atoms must be singular");
    let inc_err = incremental.expect_err("duplicate atoms must be singular");
    assert_eq!(ref_err.to_string(), inc_err.to_string());
    assert!(ref_err.to_string().contains("non-positive pivot at 1"));
    // The factor must be untouched by the failed append.
    assert_eq!(grown.len(), 1);
    let mut x = Vec::new();
    grown.solve_into(&[g00], &mut x);
    assert!((x[0] - 1.0).abs() < 1e-12);
}

#[test]
fn degenerate_dictionary_decodes_to_zero_on_both_paths() {
    // Columns scaled to ~1e-155 make every Gram entry denormal (~1e-310):
    // the ridge underflows past the 1e-300 pivot floor, so the very first
    // refit fails on both paths and both decoders return all-zeros via
    // their degenerate-atom exits (reference: failed `least_squares`; fast:
    // failed Cholesky append).
    let m = 16;
    let n = 32;
    let mut a = SensingMatrix::gaussian(m, n, 77).to_dense();
    for r in 0..m {
        for c in 0..n {
            a[(r, c)] *= 1e-155;
        }
    }
    let y = problem(&a, 3, 99);
    let art = DictionaryArtifacts::from_dictionary(a, &Matrix::identity(n), 0.0);
    let cfg = OmpConfig::with_sparsity(4);
    let reference = omp_with_col_norms(&art.dictionary, &art.col_norms, &y, &cfg);
    let fast = reconstruct_batch(&art, &[y], &[cfg], 1).remove(0);
    assert!(reference.iter().all(|v| is_zero(*v)), "reference must bail");
    assert_eq!(reference, fast);
}

#[test]
fn batch_decode_is_bit_identical_across_thread_counts() {
    let m = 32;
    let n = 96;
    let phi = SensingMatrix::srbm(m, n, 2, 0xBA7C4).to_dense();
    let psi = Basis::Dct.matrix(n);
    let dict = phi.matmul(&psi);
    let art = DictionaryArtifacts::from_dictionary(dict, &psi, 1.0);
    let frames: Vec<Vec<f64>> = (0..12u64)
        .map(|f| {
            let mut s = vec![0.0; n];
            for i in 0..4 {
                s[(mix(f ^ (i << 8)) as usize) % n] = unit(f ^ i) + 0.2;
            }
            let x = Basis::Dct.synthesize(&s);
            art.dictionary.matvec(&x)[..m].to_vec()
        })
        .collect();
    let cfgs: Vec<OmpConfig> = (0..frames.len())
        .map(|i| OmpConfig {
            sparsity: 6,
            residual_tol: if i % 2 == 0 { 1e-6 } else { 1e-3 },
        })
        .collect();
    let one = reconstruct_batch(&art, &frames, &cfgs, 1);
    let two = reconstruct_batch(&art, &frames, &cfgs, 2);
    let four = reconstruct_batch(&art, &frames, &cfgs, 4);
    assert_eq!(one, two, "1 vs 2 decode threads must agree bit for bit");
    assert_eq!(two, four, "2 vs 4 decode threads must agree bit for bit");
}
