//! Ablation studies of the design choices DESIGN.md calls out (beyond the
//! paper's own figures):
//!
//! 1. ideal-MVM vs behavioural charge-sharing encoding (cost of passivity);
//! 2. naive binary-Φ vs Eq. (1)-aware vs leakage-aware decoding;
//! 3. sparsifying basis choice (DCT / Haar / Db4 / identity);
//! 4. OMP vs FISTA reconstruction;
//! 5. dense Bernoulli vs s-SRBM sensing matrices;
//! 6. encoder imperfection injection (mismatch / kT/C / leakage);
//! 7. passive charge-sharing vs active OTA-integrator encoder power.
//!
//! Run: `cargo run --release -p efficsense-bench --bin ablations`

use efficsense_bench::{save_figure, uw};
use efficsense_blocks::cs_frontend::{ChargeSharingEncoder, EncoderImperfections};
use efficsense_blocks::ActiveCsEncoder;
use efficsense_cs::basis::Basis;
use efficsense_cs::charge_sharing::{effective_matrix, effective_matrix_decayed};
use efficsense_cs::decode::reconstruct_batch;
use efficsense_cs::linalg::Matrix;
use efficsense_cs::matrix::SensingMatrix;
use efficsense_cs::memo::DictionaryArtifacts;
use efficsense_cs::recon::{ista, OmpConfig};
use efficsense_dsp::metrics::snr_fit_db;
use efficsense_power::models::{CsEncoderLogicModel, PowerModel};
use efficsense_power::ota::OtaIntegratorModel;
use efficsense_power::{DesignParams, TechnologyParams};
use efficsense_signals::{DatasetConfig, EegClass, EegDataset};

const M: usize = 150;
const N_PHI: usize = 384;
const C_S: f64 = 0.1e-12;
const C_H: f64 = 0.5e-12;
/// The OMP decoder every ablation row uses.
const OMP: OmpConfig = OmpConfig {
    sparsity: 2 * M / 5,
    residual_tol: 1e-3,
};

struct Context {
    tech: TechnologyParams,
    design: DesignParams,
    phi: SensingMatrix,
    frames: Vec<Vec<f64>>,
}

/// Decodes every encoded frame in one batch; mean SNR against the frames.
fn batch_snr(ctx: &Context, art: &DictionaryArtifacts, ys: &[Vec<f64>]) -> f64 {
    let xhs = reconstruct_batch(art, ys, &vec![OMP; ys.len()], 1);
    let mut acc = 0.0;
    for (frame, xh) in ctx.frames.iter().zip(&xhs) {
        acc += snr_fit_db(frame, xh).min(60.0);
    }
    acc / ctx.frames.len() as f64
}

fn mean_snr(
    ctx: &Context,
    decode: &Matrix,
    basis: Basis,
    encode: &mut dyn FnMut(&[f64]) -> Vec<f64>,
) -> f64 {
    let ys: Vec<Vec<f64>> = ctx.frames.iter().map(|f| encode(f)).collect();
    batch_snr(ctx, &DictionaryArtifacts::new(decode, basis), &ys)
}

fn passive_encoder(ctx: &Context, imp: EncoderImperfections) -> ChargeSharingEncoder {
    ChargeSharingEncoder::new(
        ctx.phi.clone(),
        C_S,
        C_H,
        1.0 / ctx.design.f_sample_hz(),
        imp,
        &ctx.tech,
        &ctx.design,
        42,
    )
}

fn main() {
    let tech = TechnologyParams::gpdk045();
    let design = DesignParams::paper_defaults(8);
    let phi = SensingMatrix::srbm(M, N_PHI, 2, 0xAB1A);
    // EEG frames at the front-end sample rate, scaled to LNA-output volts.
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 2,
        duration_s: 8.0,
        ..Default::default()
    });
    let gain = 4000.0;
    let mut frames = Vec::new();
    for r in ds
        .by_class(EegClass::Seizure)
        .chain(ds.by_class(EegClass::Normal))
    {
        let resampled = r.resampled(design.f_sample_hz());
        for chunk in resampled.samples.chunks_exact(N_PHI) {
            frames.push(chunk.iter().map(|v| v * gain).collect::<Vec<f64>>());
        }
    }
    let ctx = Context {
        tech,
        design,
        phi,
        frames,
    };
    println!(
        "ablations over {} EEG frames (M={M}, N_Φ={N_PHI})\n",
        ctx.frames.len()
    );
    let mut csv = String::from("ablation,variant,snr_db_or_uw\n");

    // 1 + 2: encoding/decoding model fidelity.
    println!("=== encoder/decoder model ablation (reconstruction SNR, dB) ===");
    let ideal_eff = effective_matrix(&ctx.phi, C_S, C_H);
    let decay = ChargeSharingEncoder::nominal_decay_per_step(C_H, &ctx.tech, &ctx.design);
    let leak_eff = effective_matrix_decayed(&ctx.phi, C_S, C_H, decay);
    let binary = ctx.phi.to_dense();
    let cases: Vec<(&str, Matrix, EncoderImperfections)> = vec![
        (
            "ideal-mvm encode, eq1 decode",
            ideal_eff.clone(),
            EncoderImperfections::ideal(),
        ),
        (
            "real encode, naive binary decode",
            binary,
            EncoderImperfections::realistic(),
        ),
        (
            "real encode, eq1 decode (no leak model)",
            ideal_eff.clone(),
            EncoderImperfections::realistic(),
        ),
        (
            "real encode, leak-aware decode",
            leak_eff.clone(),
            EncoderImperfections::realistic(),
        ),
    ];
    for (label, decode, imp) in cases {
        let mut enc = passive_encoder(&ctx, imp);
        let is_ideal = imp == EncoderImperfections::ideal();
        let mut encode = |frame: &[f64]| -> Vec<f64> {
            if is_ideal {
                ideal_eff.matvec(frame)
            } else {
                enc.encode_frame(frame)
            }
        };
        let snr = mean_snr(&ctx, &decode, Basis::Dct, &mut encode);
        println!("  {label:<42} {snr:>7.2} dB");
        csv.push_str(&format!("decode_model,{label},{snr:.3}\n"));
    }

    // 3: basis choice (leak-aware decode, realistic encoder).
    println!("\n=== sparsifying basis ablation ===");
    for basis in [Basis::Dct, Basis::Haar, Basis::Db4, Basis::Identity] {
        let mut enc = passive_encoder(&ctx, EncoderImperfections::realistic());
        let mut encode = |frame: &[f64]| enc.encode_frame(frame);
        let snr = mean_snr(&ctx, &leak_eff, basis, &mut encode);
        println!("  {basis:<10} {snr:>7.2} dB");
        csv.push_str(&format!("basis,{basis},{snr:.3}\n"));
    }

    // 4: OMP vs FISTA.
    println!("\n=== decoder algorithm ablation ===");
    {
        let art = DictionaryArtifacts::new(&leak_eff, Basis::Dct);
        let mut enc = passive_encoder(&ctx, EncoderImperfections::realistic());
        let ys: Vec<Vec<f64>> = ctx.frames.iter().map(|f| enc.encode_frame(f)).collect();
        let snr_omp = batch_snr(&ctx, &art, &ys);
        let mut snr_ista = 0.0;
        for (frame, y) in ctx.frames.iter().zip(&ys) {
            let lambda = 1e-3 * efficsense_cs::linalg::norm2(y);
            let s2 = ista(&art.dictionary, y, lambda, 150);
            let x2 = Basis::Dct.synthesize(&s2);
            snr_ista += snr_fit_db(frame, &x2).min(60.0);
        }
        let n = ctx.frames.len() as f64;
        println!("  OMP (k={})   {:>7.2} dB", OMP.sparsity, snr_omp);
        println!("  FISTA (150it) {:>6.2} dB", snr_ista / n);
        csv.push_str(&format!("decoder,omp,{snr_omp:.3}\n"));
        csv.push_str(&format!("decoder,fista,{:.3}\n", snr_ista / n));
    }

    // 5: sensing matrix family (ideal MVM encode — isolates the matrix).
    println!("\n=== sensing matrix family ablation (ideal encode) ===");
    for (label, mat) in [
        ("srbm_s2", SensingMatrix::srbm(M, N_PHI, 2, 1).to_dense()),
        ("srbm_s4", SensingMatrix::srbm(M, N_PHI, 4, 1).to_dense()),
        (
            "bernoulli",
            SensingMatrix::bernoulli(M, N_PHI, 1).to_dense(),
        ),
        ("gaussian", SensingMatrix::gaussian(M, N_PHI, 1).to_dense()),
    ] {
        let mat_clone = mat.clone();
        let mut encode = move |frame: &[f64]| mat_clone.matvec(frame);
        let snr = mean_snr(&ctx, &mat, Basis::Dct, &mut encode);
        println!("  {label:<10} {snr:>7.2} dB");
        csv.push_str(&format!("matrix,{label},{snr:.3}\n"));
    }

    // 6: imperfection injection.
    println!("\n=== imperfection injection (realistic decode) ===");
    for (label, imp) in [
        ("none", EncoderImperfections::ideal()),
        (
            "mismatch",
            EncoderImperfections {
                mismatch: true,
                ktc_noise: false,
                leakage: false,
            },
        ),
        (
            "ktc",
            EncoderImperfections {
                mismatch: false,
                ktc_noise: true,
                leakage: false,
            },
        ),
        (
            "leakage",
            EncoderImperfections {
                mismatch: false,
                ktc_noise: false,
                leakage: true,
            },
        ),
        ("all", EncoderImperfections::realistic()),
    ] {
        let mut enc = passive_encoder(&ctx, imp);
        // Decode with the model matching the enabled leakage.
        let decode = if imp.leakage {
            leak_eff.clone()
        } else {
            ideal_eff.clone()
        };
        let mut encode = |frame: &[f64]| enc.encode_frame(frame);
        let snr = mean_snr(&ctx, &decode, Basis::Dct, &mut encode);
        println!("  {label:<10} {snr:>7.2} dB");
        csv.push_str(&format!("imperfection,{label},{snr:.3}\n"));
    }

    // 7: passive vs active encoder power.
    println!("\n=== passive vs active CS encoder power ===");
    let passive = passive_encoder(&ctx, EncoderImperfections::realistic());
    let p_passive = ChargeSharingEncoder::power_breakdown(passive.phi(), &ctx.tech, &ctx.design)
        .total()
        .value();
    let active = ActiveCsEncoder::new(ctx.phi.clone(), 1e-12, 1e4, true, 1);
    let p_active = active
        .power_breakdown(&ctx.tech, &ctx.design)
        .total()
        .value();
    let p_logic = CsEncoderLogicModel::new(N_PHI)
        .power(&ctx.tech, &ctx.design)
        .value();
    let p_ota = OtaIntegratorModel::for_encoder(M, 8)
        .power(&ctx.tech, &ctx.design)
        .value();
    println!("  passive (switches + logic): {}", uw(p_passive));
    println!("  active (OTA bank + logic):  {}", uw(p_active));
    println!("  — of which OTA integrators: {}", uw(p_ota));
    println!("  — shared matrix logic:      {}", uw(p_logic));
    println!(
        "  passivity saves {:.1}x encoder power (the paper's Section III claim)",
        p_active / p_passive
    );
    csv.push_str(&format!("encoder_power,passive,{:.6}\n", p_passive * 1e6));
    csv.push_str(&format!("encoder_power,active,{:.6}\n", p_active * 1e6));

    save_figure("ablations.csv", &csv);
}
