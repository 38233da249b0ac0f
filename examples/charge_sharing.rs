//! The passive charge-sharing CS encoder of paper Section III: Eq. (1)
//! weights, the behavioural capacitor network, and reconstruction through
//! the effective matrix.
//!
//! Run: `cargo run --release --example charge_sharing`

use efficsense::cs::basis::Basis;
use efficsense::cs::charge_sharing::{effective_matrix, eq1_weights, Accumulator};
use efficsense::cs::decode::reconstruct_batch;
use efficsense::cs::matrix::SensingMatrix;
use efficsense::cs::memo::DictionaryArtifacts;
use efficsense::cs::recon::OmpConfig;
use efficsense::cs::Matrix;
use efficsense::dsp::metrics::prd_percent;

fn main() {
    let c_sample = 0.2e-12;
    let c_hold = 1.0e-12;

    println!("=== Eq. (1): geometric weighting of charge-shared samples ===");
    let inputs = [1.0, -0.5, 0.25, 0.8, -0.3];
    let mut acc = Accumulator::new(c_sample, c_hold);
    for v in inputs {
        acc.accumulate(v);
    }
    let w = eq1_weights(inputs.len(), c_sample, c_hold);
    let analytic: f64 = inputs.iter().zip(&w).map(|(v, w)| v * w).sum();
    println!("  weights: {w:?}");
    println!("  behavioural hold voltage: {:.6} V", acc.voltage());
    println!("  Eq. (1) analytic sum:     {analytic:.6} V");
    println!("  (older samples decay by C_hold/(C_sample+C_hold) per share)");

    println!("\n=== a full frame: s-SRBM schedule through the capacitor bank ===");
    let n = 128;
    let m = 48;
    let phi = SensingMatrix::srbm(m, n, 2, 7);
    // An EEG-like frame: two low-frequency tones (sparse in the DCT basis).
    let x: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            0.3 * (2.0 * std::f64::consts::PI * 3.0 * t).sin()
                + 0.2 * (2.0 * std::f64::consts::PI * 7.0 * t).cos()
        })
        .collect();
    // Behavioural encoding: one accumulator per measurement row.
    let mut accs = vec![Accumulator::new(c_sample, c_hold); m];
    for (j, &v) in x.iter().enumerate() {
        for &r in phi.column_rows(j) {
            accs[r].accumulate(v);
        }
    }
    let y: Vec<f64> = accs.iter().map(|a| a.voltage()).collect();
    println!("  frame of {n} samples → {m} passive measurements");

    // The decoder folds the known weights into an effective matrix.
    let decode = |sensing: &Matrix| -> Vec<f64> {
        let art = DictionaryArtifacts::new(sensing, Basis::Dct);
        reconstruct_batch(
            &art,
            std::slice::from_ref(&y),
            &[OmpConfig::with_sparsity(8)],
            1,
        )
        .remove(0)
    };
    let xh = decode(&effective_matrix(&phi, c_sample, c_hold));
    println!("  reconstruction PRD: {:.2} %", prd_percent(&x, &xh));
    println!("  (OMP on A = Φ_eff·Ψ recovers the frame from passive sums alone)");

    println!("\n=== why the effective matrix matters ===");
    let xh_naive = decode(&phi.to_dense());
    println!(
        "  decoding with the *binary* Φ (ignoring charge-sharing decay): PRD {:.2} %",
        prd_percent(&x, &xh_naive)
    );
    println!(
        "  decoding with the *effective* Φ:                           PRD {:.2} %",
        { prd_percent(&x, &xh) }
    );
}
