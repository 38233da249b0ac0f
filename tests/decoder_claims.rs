//! Tests pinning the two decoder design claims of DESIGN.md §8:
//! leakage-aware decoding and noise-matched (discrepancy) stopping, both on
//! the production decode path (`reconstruct_batch`).

use efficsense::blocks::cs_frontend::{ChargeSharingEncoder, EncoderImperfections};
use efficsense::cs::basis::Basis;
use efficsense::cs::charge_sharing::{effective_matrix, effective_matrix_decayed};
use efficsense::cs::decode::reconstruct_batch;
use efficsense::cs::matrix::SensingMatrix;
use efficsense::cs::memo::DictionaryArtifacts;
use efficsense::cs::recon::OmpConfig;
use efficsense::dsp::metrics::snr_fit_db;
use efficsense::power::{DesignParams, TechnologyParams};
use efficsense::signals::{DatasetConfig, EegClass, EegDataset};

const M: usize = 150;
const N_PHI: usize = 384;
const C_S: f64 = 0.1e-12;
const C_H: f64 = 0.5e-12;

fn eeg_frames(gain: f64, n_frames: usize) -> Vec<Vec<f64>> {
    let design = DesignParams::paper_defaults(8);
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 2,
        duration_s: 8.0,
        ..Default::default()
    });
    let mut frames = Vec::new();
    for r in ds
        .by_class(EegClass::Seizure)
        .chain(ds.by_class(EegClass::Normal))
    {
        let resampled = r.resampled(design.f_sample_hz());
        for chunk in resampled.samples.chunks_exact(N_PHI) {
            frames.push(chunk.iter().map(|v| v * gain).collect());
            if frames.len() >= n_frames {
                return frames;
            }
        }
    }
    frames
}

fn decode_snr(
    frames: &[Vec<f64>],
    enc: &mut ChargeSharingEncoder,
    decode: &efficsense::cs::Matrix,
) -> f64 {
    let psi = Basis::Dct.matrix(N_PHI);
    let art = DictionaryArtifacts::from_dictionary(decode.matmul(&psi), &psi, 0.0);
    let omp = OmpConfig {
        sparsity: 2 * M / 5,
        residual_tol: 1e-3,
    };
    let ys: Vec<Vec<f64>> = frames.iter().map(|f| enc.encode_frame(f)).collect();
    let xhs = reconstruct_batch(&art, &ys, &vec![omp; ys.len()], 1);
    let mut acc = 0.0;
    for (frame, xh) in frames.iter().zip(&xhs) {
        acc += snr_fit_db(frame, xh).min(60.0);
    }
    acc / frames.len() as f64
}

#[test]
fn leak_aware_decoding_beats_leak_blind_decoding() {
    let tech = TechnologyParams::gpdk045();
    let design = DesignParams::paper_defaults(8);
    let phi = SensingMatrix::srbm(M, N_PHI, 2, 0xDEC0);
    let frames = eeg_frames(4000.0, 10);
    let period = 1.0 / design.f_sample_hz();
    let mk_enc = || {
        ChargeSharingEncoder::new(
            phi.clone(),
            C_S,
            C_H,
            period,
            EncoderImperfections {
                mismatch: false,
                ktc_noise: false,
                leakage: true,
            },
            &tech,
            &design,
            5,
        )
    };
    let blind = effective_matrix(&phi, C_S, C_H);
    let decay = (-(period) / (C_H * design.v_ref / tech.i_leak_a)).exp();
    let aware = effective_matrix_decayed(&phi, C_S, C_H, decay);
    let snr_blind = decode_snr(&frames, &mut mk_enc(), &blind);
    let snr_aware = decode_snr(&frames, &mut mk_enc(), &aware);
    assert!(
        snr_aware > snr_blind + 0.2,
        "leak-aware decode ({snr_aware:.2} dB) must beat leak-blind ({snr_blind:.2} dB)"
    );
}

#[test]
fn decayed_matrix_reduces_to_plain_when_leak_free() {
    let phi = SensingMatrix::srbm(16, 64, 2, 3);
    let a = effective_matrix(&phi, C_S, C_H);
    let b = effective_matrix_decayed(&phi, C_S, C_H, 1.0);
    assert_eq!(a, b);
}

#[test]
fn discrepancy_stopping_helps_at_high_noise() {
    // Simulate a noisy front-end: measurements carry white noise. A decoder
    // that fits to machine precision chases the noise; one that stops at the
    // noise floor (the simulator's policy) reconstructs better.
    use efficsense_rng::Rng64;
    let phi = SensingMatrix::srbm(M, N_PHI, 2, 0xD15C);
    let eff = effective_matrix(&phi, C_S, C_H);
    let frames = eeg_frames(4000.0, 10);
    let mut rng = Rng64::new(9);
    let sigma = 8e-6 * 4000.0; // 8 µV input-referred at gain 4000
    let mean_w2 = (0..eff.rows())
        .map(|r| eff.row(r).iter().map(|w| w * w).sum::<f64>())
        .sum::<f64>()
        / eff.rows() as f64;
    let psi = Basis::Dct.matrix(N_PHI);
    let art = DictionaryArtifacts::from_dictionary(eff.matmul(&psi), &psi, mean_w2);
    let noise_norm = (sigma * sigma * mean_w2 * M as f64).sqrt();
    let mut snr_greedy = 0.0;
    let mut snr_matched = 0.0;
    for frame in &frames {
        // Noise enters through the weights, like the sampled LNA noise does.
        let noisy: Vec<f64> = frame.iter().map(|v| v + rng.normal() * sigma).collect();
        let y = eff.matvec(&noisy);
        let y_norm = efficsense::cs::linalg::norm2(&y).max(1e-300);
        let greedy = OmpConfig {
            sparsity: 2 * M / 5,
            residual_tol: 1e-6,
        };
        let matched = OmpConfig {
            sparsity: 2 * M / 5,
            residual_tol: (noise_norm / y_norm).clamp(1e-4, 0.9),
        };
        // One measurement decoded under both stopping rules: a two-frame
        // batch.
        let x = reconstruct_batch(&art, &[y.clone(), y], &[greedy, matched], 1);
        snr_greedy += snr_fit_db(frame, &x[0]).min(60.0);
        snr_matched += snr_fit_db(frame, &x[1]).min(60.0);
    }
    let n = frames.len() as f64;
    assert!(
        snr_matched / n > snr_greedy / n + 0.5,
        "noise-matched stopping ({:.2} dB) must beat greedy fitting ({:.2} dB)",
        snr_matched / n,
        snr_greedy / n
    );
}
