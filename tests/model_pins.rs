//! Golden pins on three models no other tier-1 test fixes bit for bit: the
//! Table II power breakdown of both architectures (`Simulator::
//! power_breakdown`, every `BlockKind` entry, with and without a lossy
//! link's retry factor), the detector's MLP (`MlpClassifier::predict_proba`
//! before and after a short `fit`) and the LNA armed through
//! `Lna::inject_rail_fault`. Each value is the bit pattern (or a digest of
//! every output bit), so these move if a model reorders a sum, draws
//! differently or arms a fault stream at a different seed.

use efficsense::blocks::Lna;
use efficsense::core::config::{CsConfig, SystemConfig};
use efficsense::core::prefix::record_fingerprint;
use efficsense::core::simulate::Simulator;
use efficsense::ml::mlp::MlpClassifier;
use efficsense::ml::TrainConfig;
use efficsense::power::BlockKind;
use efficsense_faults::{FaultKind, FaultPlan, LnaRailFault};

/// Converter-input RMS (V) fed to the signal-dependent DAC model.
const ADC_IN_RMS: f64 = 0.3;

/// The bits of every `BlockKind` entry, in `BlockKind::ALL` order.
fn breakdown_bits(sim: &Simulator) -> [u64; 8] {
    let b = sim.power_breakdown(ADC_IN_RMS);
    BlockKind::ALL.map(|k| b.get(k).value().to_bits())
}

#[test]
fn table_ii_power_breakdown_on_both_architectures() {
    let lossy = FaultPlan::single(FaultKind::PacketLoss, 0.5, 0x1055);
    let cases: [(&str, SystemConfig, bool, [u64; 8]); 6] = [
        (
            "baseline 6b",
            SystemConfig::baseline(6),
            false,
            [
                0x3ebe_20e8_a913_f4d1,
                0x3d6a_f4b1_cb36_a169,
                0x3dbd_7fe9_ddfd_d8bc,
                0x3dd2_7136_abf5_2689,
                0x3dde_6ab1_3605_0f51,
                0x3ecb_0eec_5a70_5ec5,
                0,
                0,
            ],
        ),
        (
            "baseline 8b",
            SystemConfig::baseline(8),
            false,
            [
                0x3ebe_20e8_a913_f4d1,
                0x3db1_5429_2735_67c3,
                0x3dca_38cf_e1c5_326d,
                0x3de0_13ee_0580_633c,
                0x3dfe_edf2_0703_dab5,
                0x3ed2_09f2_e6f5_9483,
                0,
                0,
            ],
        ),
        (
            "compressive 6b",
            SystemConfig::compressive(6, CsConfig::default()),
            false,
            [
                0x3ebe_20e8_a913_f4d1,
                0,
                0x3dbd_7fe9_ddfd_d8bc,
                0x3dd2_7136_abf5_2689,
                0x3dde_6ab1_3605_0f51,
                0x3eb5_23a8_a6a7_ca0a,
                0x3e9f_0859_88bc_834d,
                0x3e04_c0d7_1664_2a20,
            ],
        ),
        (
            "compressive 8b",
            SystemConfig::compressive(8, CsConfig::default()),
            false,
            [
                0x3ebe_20e8_a913_f4d1,
                0,
                0x3dca_38cf_e1c5_326d,
                0x3de0_13ee_0580_633c,
                0x3dfe_edf2_0703_dab5,
                0x3ebc_2f8b_88df_b80d,
                0x3ea3_f314_fc79_2fd6,
                0x3e04_c0d7_1664_2a20,
            ],
        ),
        (
            "baseline 8b lossy",
            SystemConfig::baseline(8),
            true,
            [
                0x3ebe_20e8_a913_f4d1,
                0x3db1_5429_2735_67c3,
                0x3dca_38cf_e1c5_326d,
                0x3de0_13ee_0580_633c,
                0x3dfe_edf2_0703_dab5,
                0x3edd_cf29_136b_94c6,
                0,
                0,
            ],
        ),
        (
            "compressive 8b lossy",
            SystemConfig::compressive(8, CsConfig::default()),
            true,
            [
                0x3ebe_20e8_a913_f4d1,
                0,
                0x3dca_38cf_e1c5_326d,
                0x3de0_13ee_0580_633c,
                0x3dfe_edf2_0703_dab5,
                0x3ec7_49d8_172c_0c3b,
                0x3ea3_f314_fc79_2fd6,
                0x3e04_c0d7_1664_2a20,
            ],
        ),
    ];
    for (label, cfg, lossy_link, pinned) in cases {
        let sim = if lossy_link {
            Simulator::with_fault_plan(cfg, lossy.clone())
        } else {
            Simulator::new(cfg)
        }
        .expect("paper-default configs are valid");
        let got = breakdown_bits(&sim);
        assert_eq!(got, pinned, "{label}: {got:#018x?}");
    }
}

/// A fixed feature row: smooth functions of the row and column index.
fn row(i: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|j| ((i * n + j) as f64 * 0.37).sin() + 0.1 * j as f64 - 0.05 * i as f64)
        .collect()
}

fn proba_digest(mlp: &MlpClassifier, inputs: &[Vec<f64>]) -> u64 {
    let p: Vec<f64> = inputs.iter().flat_map(|x| mlp.predict_proba(x)).collect();
    record_fingerprint(&p)
}

#[test]
fn mlp_probabilities_before_and_after_a_short_fit() {
    let n_in = 6;
    let inputs: Vec<Vec<f64>> = (0..10).map(|i| row(i, n_in)).collect();
    let mut mlp = MlpClassifier::new(n_in, &[8, 4], 2, 0x31_A9);
    assert_eq!(
        proba_digest(&mlp, &inputs),
        0xe1f4_2bb3_13df_eedd,
        "seeded network"
    );
    let train_x: Vec<Vec<f64>> = (0..24).map(|i| row(i + 100, n_in)).collect();
    let train_y: Vec<usize> = (0..24).map(|i| usize::from(i % 3 == 0)).collect();
    mlp.fit(
        &train_x,
        &train_y,
        &TrainConfig {
            epochs: 6,
            learning_rate: 1e-2,
            batch_size: 5,
            weight_decay: 1e-4,
        },
    );
    assert_eq!(
        proba_digest(&mlp, &inputs),
        0x53f6_c677_af49_dbfc,
        "after fit"
    );
}

#[test]
fn lna_armed_through_inject_rail_fault() {
    let x: Vec<f64> = (0..12_000)
        .map(|i| 4e-4 * ((i as f64 * 0.011).sin() + 0.4 * (i as f64 * 0.093).sin()))
        .collect();
    let mut lna = Lna::new(2000.0, 3e-6, 768.0, 0.05, 1.0, 8192.0, 29);
    lna.inject_rail_fault(
        Some(LnaRailFault {
            rail_prob: 0.006,
            episode_len: 25,
            v_clip_factor: 0.6,
        }),
        0x5EED,
    );
    let y = lna.process_buffer(&x);
    assert_eq!(record_fingerprint(&y), 0xd83c_e13d_958a_d76c, "lna");
}
