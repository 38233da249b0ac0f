//! Property-style tests for the compressive-sensing substrate, run as seeded
//! Monte-Carlo loops.

use efficsense_cs::basis::Basis;
use efficsense_cs::charge_sharing::{effective_matrix_decayed, share_gains};
use efficsense_cs::linalg::{cholesky_solve, dot, least_squares, norm2, Matrix};
use efficsense_cs::matrix::SensingMatrix;
use efficsense_cs::recon::{omp, OmpConfig};
use efficsense_dsp::approx::is_zero;
use efficsense_rng::Rng64;

const CASES: u64 = 96;

fn random_vec(g: &mut Rng64, lo: f64, hi: f64, len: usize) -> Vec<f64> {
    (0..len).map(|_| g.uniform(lo, hi)).collect()
}

#[test]
fn bases_roundtrip_any_signal() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xBA5E + case);
        let len = g.range(4, 128);
        let x = random_vec(&mut g, -5.0, 5.0, len);
        for basis in [Basis::Identity, Basis::Dct, Basis::Haar, Basis::Db4] {
            let s = basis.analyze(&x);
            let y = basis.synthesize(&s);
            assert_eq!(y.len(), x.len(), "case {case}");
            for (a, b) in x.iter().zip(&y) {
                assert!((a - b).abs() < 1e-8, "case {case}: {basis} roundtrip");
            }
        }
    }
}

#[test]
fn bases_preserve_energy() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xE6E0 + case);
        let len = g.range(8, 96);
        let x = random_vec(&mut g, -5.0, 5.0, len);
        let ex = dot(&x, &x);
        for basis in [Basis::Dct, Basis::Haar, Basis::Db4] {
            let s = basis.analyze(&x);
            let es = dot(&s, &s);
            assert!((ex - es).abs() < 1e-7 * ex.max(1.0), "case {case}: {basis}");
        }
    }
}

#[test]
fn cholesky_solves_random_spd_systems() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xC401 + case);
        let seed_vals = random_vec(&mut g, -2.0, 2.0, 9);
        let b = random_vec(&mut g, -5.0, 5.0, 3);
        // Build SPD A = G·Gᵀ + I.
        let gm = Matrix::from_vec(3, 3, seed_vals);
        let mut a = gm.matmul(&gm.transpose());
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let x = cholesky_solve(&a, &b).expect("SPD by construction");
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-8, "case {case}");
        }
    }
}

#[test]
fn least_squares_residual_is_orthogonal() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x1500 + case);
        let data = random_vec(&mut g, -3.0, 3.0, 12);
        let b = random_vec(&mut g, -5.0, 5.0, 6);
        let a = Matrix::from_vec(6, 2, data);
        if a.frobenius_norm() <= 0.5 {
            continue;
        }
        if let Ok(x) = least_squares(&a, &b) {
            let approx = a.matvec(&x);
            let r: Vec<f64> = b.iter().zip(&approx).map(|(u, v)| u - v).collect();
            // Normal equations: Aᵀr ≈ 0.
            let atr = a.matvec_t(&r);
            for v in atr {
                assert!(v.abs() < 1e-6, "case {case}: residual not orthogonal: {v}");
            }
        }
    }
}

#[test]
fn omp_respects_sparsity_budget() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x09B1 + case);
        let m = g.range(8, 24);
        let k = g.range(1, 8);
        let seed = g.next_u64();
        let n = m * 2;
        let a = SensingMatrix::gaussian(m, n, seed).to_dense();
        let y: Vec<f64> = (0..m).map(|i| ((i * 13 + 1) as f64 * 0.37).sin()).collect();
        let s = omp(
            &a,
            &y,
            &OmpConfig {
                sparsity: k,
                residual_tol: 0.0,
            },
        );
        let support = s.iter().filter(|v| !is_zero(**v)).count();
        assert!(support <= k, "case {case}");
    }
}

#[test]
fn omp_never_increases_residual_with_budget() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x09B2 + case);
        let m = g.range(10, 20);
        let seed = g.next_u64();
        let n = m * 2;
        let a = SensingMatrix::gaussian(m, n, seed).to_dense();
        let y: Vec<f64> = (0..m).map(|i| ((i * 7 + 3) as f64 * 0.53).cos()).collect();
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8] {
            let s = omp(
                &a,
                &y,
                &OmpConfig {
                    sparsity: k,
                    residual_tol: 0.0,
                },
            );
            let approx = a.matvec(&s);
            let r: Vec<f64> = y.iter().zip(&approx).map(|(u, v)| u - v).collect();
            let rn = norm2(&r);
            assert!(
                rn <= last + 1e-9,
                "case {case}: residual grew with budget k={k}"
            );
            last = rn;
        }
    }
}

#[test]
fn decayed_effective_matrix_entries_bounded() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xDECA + case);
        let m = g.range(2, 10);
        let n = g.range(16, 48);
        let decay = g.uniform(0.5, 1.0);
        let seed = g.next_u64();
        let phi = SensingMatrix::srbm(m, n, 2.min(m), seed);
        let eff = effective_matrix_decayed(&phi, 0.1e-12, 0.5e-12, decay);
        let (a, _) = share_gains(0.1e-12, 0.5e-12);
        for r in 0..m {
            for c in 0..n {
                let w = eff[(r, c)];
                assert!(
                    w >= 0.0 && w <= a + 1e-15,
                    "case {case}: weight {w} out of range"
                );
            }
        }
    }
}

#[test]
fn gaussian_matrix_rows_cols_match() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x6A05 + case);
        let m = g.range(1, 20);
        let n = g.range(1, 30);
        let seed = g.next_u64();
        let gm = SensingMatrix::gaussian(m, n, seed);
        assert_eq!((gm.m(), gm.n()), (m, n), "case {case}");
        let d = gm.to_dense();
        assert_eq!((d.rows(), d.cols()), (m, n), "case {case}");
    }
}

#[test]
fn spectral_norm_bounds_frobenius() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x59EC + case);
        let data = random_vec(&mut g, -2.0, 2.0, 24);
        let a = Matrix::from_vec(4, 6, data);
        if a.frobenius_norm() <= 1e-6 {
            continue;
        }
        let s = a.spectral_norm_est(60);
        // ||A||₂ ≤ ||A||_F ≤ √rank·||A||₂
        assert!(s <= a.frobenius_norm() * (1.0 + 1e-6), "case {case}");
        assert!(a.frobenius_norm() <= s * 2.0 + 1e-6, "case {case}");
    }
}
