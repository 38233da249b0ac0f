//! Active (OTA-integrator) vs passive (charge-sharing) CS encoder — the
//! architectural question the paper's Section III poses: what does passivity
//! cost in signal quality, and what does it buy in power?
//!
//! Run: `cargo run --release --example active_vs_passive`

use efficsense::blocks::cs_frontend::{ChargeSharingEncoder, EncoderImperfections};
use efficsense::blocks::ActiveCsEncoder;
use efficsense::cs::basis::Basis;
use efficsense::cs::decode::reconstruct_batch;
use efficsense::cs::matrix::SensingMatrix;
use efficsense::cs::memo::DictionaryArtifacts;
use efficsense::cs::recon::OmpConfig;
use efficsense::cs::Matrix;
use efficsense::dsp::metrics::snr_fit_db;
use efficsense::power::{DesignParams, TechnologyParams};
use efficsense::signals::{DatasetConfig, EegClass, EegDataset};

const M: usize = 150;
const N_PHI: usize = 384;

fn main() {
    let tech = TechnologyParams::gpdk045();
    let design = DesignParams::paper_defaults(8);
    let phi = SensingMatrix::srbm(M, N_PHI, 2, 21);
    let gain = 4000.0;

    // EEG frames at the LNA output scale.
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 2,
        duration_s: 8.0,
        ..Default::default()
    });
    let mut frames: Vec<Vec<f64>> = Vec::new();
    for r in ds
        .by_class(EegClass::Seizure)
        .chain(ds.by_class(EegClass::Normal))
    {
        let resampled = r.resampled(design.f_sample_hz());
        for chunk in resampled.samples.chunks_exact(N_PHI) {
            frames.push(chunk.iter().map(|v| v * gain).collect());
        }
    }
    println!(
        "comparing encoders over {} EEG frames (M = {M}, N_Φ = {N_PHI})\n",
        frames.len()
    );

    // Passive: charge sharing with every imperfection, leak-aware decode.
    let mut passive = ChargeSharingEncoder::new(
        phi.clone(),
        0.1e-12,
        0.5e-12,
        1.0 / design.f_sample_hz(),
        EncoderImperfections::realistic(),
        &tech,
        &design,
        7,
    );
    let decay = ChargeSharingEncoder::nominal_decay_per_step(0.5e-12, &tech, &design);
    let passive_decode =
        efficsense::cs::charge_sharing::effective_matrix_decayed(&phi, 0.1e-12, 0.5e-12, decay);

    // Active: OTA integrator bank with finite gain and kT/C noise.
    let mut active = ActiveCsEncoder::new(phi.clone(), 1e-12, 1e4, true, 7);
    let active_decode = active.effective_matrix();

    // Each encoder's frames decode in one batch against its own dictionary.
    let omp = vec![
        OmpConfig {
            sparsity: 2 * M / 5,
            residual_tol: 1e-3,
        };
        frames.len()
    ];
    let snr_sum = |decode: &Matrix, ys: &[Vec<f64>]| -> f64 {
        let art = DictionaryArtifacts::new(decode, Basis::Dct);
        let xs = reconstruct_batch(&art, ys, &omp, 1);
        let mut acc = 0.0;
        for (frame, x) in frames.iter().zip(&xs) {
            acc += snr_fit_db(frame, x).min(60.0);
        }
        acc
    };
    let yp: Vec<Vec<f64>> = frames.iter().map(|f| passive.encode_frame(f)).collect();
    let ya: Vec<Vec<f64>> = frames.iter().map(|f| active.encode_frame(f)).collect();
    let snr_passive = snr_sum(&passive_decode, &yp);
    let snr_active = snr_sum(&active_decode, &ya);
    let n = frames.len() as f64;
    let p_passive = ChargeSharingEncoder::power_breakdown(passive.phi(), &tech, &design)
        .total()
        .value();
    let p_active = active.power_breakdown(&tech, &design).total().value();

    println!("{:<28} {:>12} {:>14}", "encoder", "SNR (dB)", "power (µW)");
    println!(
        "{:<28} {:>12.2} {:>14.3}",
        "passive charge-sharing",
        snr_passive / n,
        p_passive * 1e6
    );
    println!(
        "{:<28} {:>12.2} {:>14.3}",
        "active OTA integrators",
        snr_active / n,
        p_active * 1e6
    );
    println!(
        "\npassivity costs {:.1} dB of reconstruction SNR and saves {:.1}x encoder power —",
        snr_active / n - snr_passive / n,
        p_active / p_passive
    );
    println!("the trade the paper's charge-sharing front-end makes deliberately.");
}
