//! Golden pins on the two back-end layers every sweep point ends in: the
//! OMP decode (`reconstruct_batch`) and the detector's feature extraction
//! (`FeatureExtractor::extract`), plus the DSP kernels under them (the
//! Butterworth design behind the detector's anti-alias filter, the
//! spectral windows and the FFT). Each value is a digest of every output
//! bit, so these move if a kernel selects a different atom, stops at a
//! different iteration, or rounds a sum in a different order.
//!
//! The decode pins cover the frames whose stopping decision takes
//! different routes: frames that run to the sparsity cap, frames the
//! discrepancy rule stops early, an all-zero frame, a duplicate atom whose
//! Cholesky pivot fails, and frames whose residual tolerance is set from
//! the kernel's own explicit residual at one iteration (and its float
//! neighbours), so the stop test there is decided within an ulp.

use efficsense::core::prefix::record_fingerprint;
use efficsense::cs::decode::reconstruct_batch;
use efficsense::cs::linalg::norm2;
use efficsense::cs::memo::{DictionaryArtifacts, DictionaryParams};
use efficsense::cs::recon::OmpConfig;
use efficsense::cs::{Basis, Matrix};
use efficsense::dsp::approx::is_zero;
use efficsense::dsp::filter::IirFilter;
use efficsense::dsp::window::Window;
use efficsense::dsp::{Complex, Fft};
use efficsense::ml::features::FeatureExtractor;
use efficsense::signals::{EegClass, EegGenerator, EegParams};
use efficsense_rng::Rng64;

const N_PHI: usize = 384;

/// The decoder dictionary of one compression ratio and basis, built the
/// way the simulator builds it (seeded SRBM, charge-sharing effective
/// matrix with hold droop).
fn artifacts(m: usize, basis: Basis) -> DictionaryArtifacts {
    DictionaryArtifacts::build(&DictionaryParams {
        m,
        n_phi: N_PHI,
        s: 2,
        seed: 0xBAC4_E17D ^ m as u64,
        c_sample_f: 0.1e-12,
        c_hold_f: 0.5e-12,
        decay: 0.999_95,
        basis,
    })
}

/// `y = A·s + noise` for an `nonzeros`-sparse coefficient vector `s`.
fn frame(art: &DictionaryArtifacts, nonzeros: usize, noise: f64, rng: &mut Rng64) -> Vec<f64> {
    let n = art.dictionary.cols();
    let mut s = vec![0.0; n];
    for _ in 0..nonzeros {
        let j = (rng.next_u64() % n as u64) as usize;
        s[j] = rng.normal() + 0.25_f64.copysign(rng.normal());
    }
    let mut y = art.dictionary.matvec(&s);
    for v in &mut y {
        *v += noise * rng.normal();
    }
    y
}

fn digest(frames: &[Vec<f64>]) -> u64 {
    let bits: Vec<f64> = frames.iter().flatten().copied().collect();
    record_fingerprint(&bits)
}

fn nonzero_support(s: &[f64]) -> Vec<usize> {
    (0..s.len()).filter(|&j| !is_zero(s[j])).collect()
}

/// The explicit residual norm `‖y − A_S·x_S‖` after `k` selections, summed
/// the way the decode kernel sums it: atom by atom over the rows of `Aᵀ` in
/// selection order, then subtracted from `y`. The selection order and the
/// coefficients come from decodes capped at 1..=k atoms through identity-Ψ
/// artifacts over the same dictionary, which return the coefficients
/// themselves.
fn explicit_residual_after(art: &DictionaryArtifacts, y: &[f64], k: usize) -> f64 {
    let coeffs = DictionaryArtifacts::new(&art.dictionary, Basis::Identity);
    let decode = |sparsity: usize| {
        let cfg = OmpConfig {
            sparsity,
            residual_tol: 0.0,
        };
        reconstruct_batch(&coeffs, &[y.to_vec()], &[cfg], 1).remove(0)
    };
    let mut order: Vec<usize> = Vec::new();
    for t in 1..=k {
        let new: Vec<usize> = nonzero_support(&decode(t))
            .into_iter()
            .filter(|j| !order.contains(j))
            .collect();
        order.extend(new);
    }
    assert_eq!(order.len(), k, "one new atom per iteration");
    let s = decode(k);
    let mut r = vec![0.0; y.len()];
    for &j in &order {
        for (rv, &av) in r.iter_mut().zip(art.dict_t.row(j)) {
            *rv += av * s[j];
        }
    }
    for (rv, &yi) in r.iter_mut().zip(y) {
        *rv = yi - *rv;
    }
    norm2(&r)
}

/// Digests of the capped, discrepancy-stopped, all-zero and near-threshold
/// decodes of one dictionary.
fn decode_digests(m: usize, basis: Basis) -> [u64; 4] {
    let art = artifacts(m, basis);
    let cap = 2 * m / 5;
    let mut rng = Rng64::new(0xDEC0DE ^ m as u64);
    let run = |frames: &[Vec<f64>], cfgs: &[OmpConfig]| reconstruct_batch(&art, frames, cfgs, 1);

    // Dense coefficients under 1% noise: no tolerance of 1e-4 is reachable
    // within the cap.
    let capped: Vec<Vec<f64>> = (0..4)
        .map(|_| frame(&art, 3 * cap, 1e-2, &mut rng))
        .collect();
    let capped_cfg = OmpConfig {
        sparsity: cap,
        residual_tol: 1e-4,
    };
    let capped_out = run(&capped, &vec![capped_cfg.clone(); capped.len()]);

    // Six-sparse frames under small noise: the discrepancy rule stops them
    // long before the cap.
    let sigma = 1e-3;
    let sparse: Vec<Vec<f64>> = (0..4).map(|_| frame(&art, 6, sigma, &mut rng)).collect();
    let sparse_cfgs: Vec<OmpConfig> = sparse
        .iter()
        .map(|y| OmpConfig::discrepancy(cap, sigma * (m as f64).sqrt(), y))
        .collect();
    let sparse_out = run(&sparse, &sparse_cfgs);
    let sparse_support = nonzero_support(
        &reconstruct_batch(
            &DictionaryArtifacts::new(&art.dictionary, Basis::Identity),
            &sparse[..1],
            &sparse_cfgs[..1],
            1,
        )[0],
    );
    assert!(sparse_support.len() < cap, "the discrepancy rule must stop");

    let zero_out = run(&[vec![0.0; m]], &[capped_cfg]);
    assert!(zero_out[0].iter().all(|v| is_zero(*v)));

    // Tolerances two ulps either side of the explicit residual ratio at
    // iterations 3 and cap/2: the stop test there turns on the last bit.
    let mut near = Vec::new();
    let mut near_cfgs = Vec::new();
    for (y, k) in [(&capped[0], 3), (&capped[1], cap / 2), (&sparse[0], 3)] {
        let ratio = explicit_residual_after(&art, y, k) / norm2(y);
        let tols = [
            ratio.next_down().next_down(),
            ratio.next_down(),
            ratio,
            ratio.next_up(),
            ratio.next_up().next_up(),
        ];
        for residual_tol in tols {
            near.push(y.clone());
            near_cfgs.push(OmpConfig {
                sparsity: cap,
                residual_tol,
            });
        }
    }
    let near_out = run(&near, &near_cfgs);
    for group in near_out.chunks(5) {
        assert!(
            group.iter().any(|x| x != &group[0]),
            "the tolerances must straddle the stop decision"
        );
    }
    [
        digest(&capped_out),
        digest(&sparse_out),
        digest(&zero_out),
        digest(&near_out),
    ]
}

#[test]
fn decodes_at_both_compression_ratios_and_bases() {
    for (m, basis, pinned) in [
        (
            75,
            Basis::Dct,
            [
                0x9085_34c8_b2bc_2ebe,
                0xb87b_e036_5183_6ba9,
                0x9a28_b22d_8ff8_0da5,
                0xba39_3c9b_923a_d695,
            ],
        ),
        (
            75,
            Basis::Haar,
            [
                0x92c1_2f1d_e398_2bb7,
                0x4715_628b_096b_018d,
                0x9a28_b22d_8ff8_0da5,
                0xc606_765f_1a53_236d,
            ],
        ),
        (
            150,
            Basis::Dct,
            [
                0x72d4_f3c2_cc5b_8def,
                0xab0a_29bd_55f9_479d,
                0x9a28_b22d_8ff8_0da5,
                0xbe44_799e_f26c_1f31,
            ],
        ),
        (
            150,
            Basis::Haar,
            [
                0x71d4_bc32_8c85_158a,
                0xfbd3_7b03_12bd_f8f1,
                0x9a28_b22d_8ff8_0da5,
                0x0afb_3e1b_1788_9683,
            ],
        ),
    ] {
        let got = decode_digests(m, basis);
        assert_eq!(got, pinned, "M = {m}, {basis:?}: {got:#018x?}");
    }
}

#[test]
fn duplicate_atom_fails_its_pivot() {
    // Eight atoms of each dictionary plus a copy of the fourth, scaled so
    // the Gram entries sit near 1e-295: the ridge then falls below the
    // 1e-300 pivot floor, and the copy's pivot (about twice the ridge)
    // fails once its twin is in the support.
    for (m, basis, pinned) in [
        (75, Basis::Dct, 0x2a65_00f7_d199_e813),
        (75, Basis::Haar, 0x020c_c218_982b_e147),
        (150, Basis::Dct, 0x6dfb_d418_f804_0a6d),
        (150, Basis::Haar, 0xe170_2f5d_9f31_7d3b),
    ] {
        let full = artifacts(m, basis).dictionary;
        let cols = [0, 1, 2, 3, 4, 5, 6, 7, 3];
        let mut a = Matrix::zeros(m, cols.len());
        for r in 0..m {
            for (c, &src) in cols.iter().enumerate() {
                a[(r, c)] = full[(r, src)] * 3e-148;
            }
        }
        let art = DictionaryArtifacts::new(&a, Basis::Identity);
        let s: Vec<f64> = (0..cols.len()).map(|j| 1.0 + 0.125 * j as f64).collect();
        let y = art.dictionary.matvec(&s);
        let cfg = OmpConfig {
            sparsity: cols.len(),
            residual_tol: 0.0,
        };
        let out = reconstruct_batch(&art, &[y], &[cfg], 1);
        assert_eq!(
            nonzero_support(&out[0]).len(),
            cols.len() - 1,
            "the copy must be refused"
        );
        let got = digest(&out);
        assert_eq!(got, pinned, "M = {m}, {basis:?}: {got:#018x}");
    }
}

#[test]
fn feature_vectors_at_every_window_length() {
    let fs = 537.6;
    let mut gen = EegGenerator::new(EegParams::default(), 0xFEA7);
    let seizure = gen.record(EegClass::Seizure, fs, 4.0);
    let normal = gen.record(EegClass::Normal, fs, 4.0);
    let extractor = FeatureExtractor::default();
    for (len, pinned) in [
        (100, 0x1bde_d5d0_fb1c_a7d5),
        (256, 0xaec4_d68a_f94a_abf3),
        (347, 0x50e2_778c_34c7_bc58),
        (1075, 0x61f5_40ad_ab0a_5b6b),
        (2150, 0x0c9d_d407_a859_07d5),
    ] {
        let mut bits = extractor.extract(&seizure[..len], fs);
        bits.extend(extractor.extract(&normal[normal.len() - len..], fs));
        let got = record_fingerprint(&bits);
        assert_eq!(got, pinned, "window of {len} samples: {got:#018x}");
    }
}

#[test]
fn butterworth_lowpass_impulse_responses_at_orders_one_to_six() {
    // 45 Hz at 537.6 Hz is the detector's order-4 anti-alias filter; the
    // odd orders end in a first-order section. The zero-phase pass is the
    // one the detector runs.
    let (fc, fs) = (45.0, 537.6);
    let mut impulse = vec![0.0; 512];
    impulse[0] = 1.0;
    for (order, pinned) in [
        (1, [0x3ea4_d135_d18a_f978, 0x8f7f_9f5e_15e5_108c]),
        (2, [0xc531_5853_2b49_5530, 0x6af9_2412_1aee_4230]),
        (3, [0xd587_0d72_18ca_e455, 0x4e36_9058_957e_9c57]),
        (4, [0x0fc8_e8ec_a981_6c1b, 0xa1b9_03e3_625d_18cc]),
        (5, [0x4a97_6595_1978_e9c9, 0x5c09_246d_06d1_2a38]),
        (6, [0x4cd5_2c0c_d00d_80e2, 0x85e1_8319_30df_e4c9]),
    ] {
        let mut lp = IirFilter::butterworth_lowpass(order, fc, fs);
        let got = [
            record_fingerprint(&lp.filter(&impulse)),
            record_fingerprint(&lp.filtfilt(&impulse)),
        ];
        assert_eq!(got, pinned, "order {order}: {got:#018x?}");
    }
}

#[test]
fn hann_and_blackman_harris_coefficients() {
    for (window, pinned) in [
        (Window::Hann, [0x6362_e607_cbac_4d88, 0xd5ae_a2e7_01f7_2d24]),
        (
            Window::BlackmanHarris,
            [0xc952_bb8f_12ab_bc7b, 0xebbf_021e_b1f5_ed65],
        ),
    ] {
        let got = [256, 1000].map(|n| record_fingerprint(&window.coefficients(n)));
        assert_eq!(got, pinned, "{window:?}: {got:#018x?}");
    }
}

#[test]
fn fft_forward_at_two_lengths() {
    let mut rng = Rng64::new(0xFF7);
    for (n, pinned) in [(64, 0x2131_f186_c729_57af), (1024, 0x448f_16d2_50dc_db49)] {
        let mut buf: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.normal(), rng.normal()))
            .collect();
        Fft::new(n).forward(&mut buf);
        let bits: Vec<f64> = buf.iter().flat_map(|z| [z.re, z.im]).collect();
        let got = record_fingerprint(&bits);
        assert_eq!(got, pinned, "length {n}: {got:#018x}");
    }
}
