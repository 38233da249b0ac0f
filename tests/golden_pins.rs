//! Golden pins on the workspace's randomness: literal draws of the seeded
//! generator, the derived seeds that fan one master seed out to blocks and
//! faults, and digests of a generated corpus and of simulated acquisitions
//! with every noise source on. A change to how any stochastic block draws
//! its numbers moves one of these values. The decoder dictionaries built
//! from the seeded sensing matrix are pinned field by field as well.

use efficsense::core::cache::dataset_fingerprint;
use efficsense::core::config::{CsConfig, SystemConfig};
use efficsense::core::prefix::record_fingerprint;
use efficsense::core::simulate::{SimOutput, Simulator};
use efficsense::core::sweep::salted_seed;
use efficsense::cs::memo::{DictionaryArtifacts, DictionaryParams};
use efficsense::cs::{Basis, Matrix};
use efficsense::power::{DesignParams, TechnologyParams};
use efficsense::signals::{DatasetConfig, EegDataset};
use efficsense_faults::{FaultKind, FaultPlan};
use efficsense_rng::Rng64;

fn dataset() -> EegDataset {
    EegDataset::generate(&DatasetConfig {
        records_per_class: 2,
        duration_s: 4.0,
        ..Default::default()
    })
}

/// One word over every output bit of a run: both signals, the total power
/// and the word count.
fn digest(out: &SimOutput) -> u64 {
    let mut bits = out.input_referred.clone();
    bits.extend(&out.reference);
    bits.push(out.total_power_w());
    bits.push(out.words as f64);
    record_fingerprint(&bits)
}

#[test]
fn first_draws_of_fresh_generators() {
    for (seed, word, normal) in [
        (0, 0x5317_5d61_490b_23df, 0xbfd8_dc19_2e9c_74ab),
        (42, 0xd076_4d4f_4476_689f, 0x3ff4_8da2_5c0d_0342),
    ] {
        assert_eq!(Rng64::new(seed).next_u64(), word, "seed {seed}");
        assert_eq!(Rng64::new(seed).normal().to_bits(), normal, "seed {seed}");
    }
}

#[test]
fn derived_seeds() {
    let plan = FaultPlan::clean(123);
    let streams: Vec<u64> = (1..=3).map(|salt| plan.stream(salt)).collect();
    assert_eq!(
        streams,
        [
            0xb4dc_9bd4_62de_412b,
            0xfa02_3ce9_f06f_b77c,
            0xdc12_d311_d371_cbe8
        ]
    );
    let salted: Vec<u64> = (0..=2).map(|salt| salted_seed(42, salt)).collect();
    assert_eq!(salted, [42, 0xbdd7_3226_2feb_6e95, 0xd963_9a00_6c85_adb0]);
}

#[test]
fn generated_corpus_fingerprint() {
    assert_eq!(dataset_fingerprint(&dataset()), 0xd0c7_e7ee_5a67_564c);
}

#[test]
fn noisy_acquisitions() {
    let ds = dataset();
    let rec = &ds.records[4];
    let baseline = Simulator::new(SystemConfig::baseline(8)).expect("valid config");
    let cs = Simulator::new(SystemConfig::compressive(
        8,
        CsConfig {
            m: 150,
            ..Default::default()
        },
    ))
    .expect("valid config");
    // The sampler's clock fault draws from its own streams.
    let mut jittered = SystemConfig::baseline(8);
    jittered.seed = 3;
    let jittered =
        Simulator::with_fault_plan(jittered, FaultPlan::single(FaultKind::ClockJitter, 0.5, 11))
            .expect("valid config");
    for (name, sim, pinned) in [
        ("baseline", &baseline, 0xb612_cd24_63f3_8456),
        ("cs", &cs, 0x2ce8_056c_e2af_6a1e),
        ("jittered", &jittered, 0x9ba2_f083_3e52_6bbb),
    ] {
        assert_eq!(digest(&sim.run(&rec.samples, rec.fs, 7)), pinned, "{name}");
    }
}

/// One digest per field of a decoder dictionary, in declaration order:
/// dictionary, col_norms, gram, ridge, dict_t, synth_t, mean_row_w2.
fn artifact_digests(art: &DictionaryArtifacts) -> [u64; 7] {
    let matrix = |m: &Matrix| {
        let rows: Vec<f64> = (0..m.rows()).flat_map(|r| m.row(r).to_vec()).collect();
        record_fingerprint(&rows)
    };
    [
        matrix(&art.dictionary),
        record_fingerprint(&art.col_norms),
        matrix(&art.gram),
        record_fingerprint(&[art.ridge]),
        matrix(&art.dict_t),
        matrix(&art.synth_t),
        record_fingerprint(&[art.mean_row_w2]),
    ]
}

#[test]
fn decoder_dictionaries() {
    // The default CS point as the simulator keys it: leak-aware DCT.
    let cs = CsConfig::default();
    let design = DesignParams::paper_defaults(8);
    let tech = TechnologyParams::gpdk045();
    let tau = cs.c_hold_f * design.v_ref / tech.i_leak_a;
    let leak_aware_dct = DictionaryParams {
        m: cs.m,
        n_phi: cs.n_phi,
        s: cs.s,
        seed: SystemConfig::compressive(8, cs.clone()).seed ^ 0x5EB1,
        c_sample_f: cs.c_sample_f,
        c_hold_f: cs.c_hold_f,
        decay: (-(1.0 / design.f_sample_hz()) / tau).exp(),
        basis: Basis::Dct,
    };
    // A leak-blind Haar point at stronger compression.
    let leak_blind_haar = DictionaryParams {
        m: 75,
        seed: 0x4AA2,
        decay: 1.0,
        basis: Basis::Haar,
        ..leak_aware_dct
    };
    for (name, params, pinned) in [
        (
            "leak-aware dct",
            leak_aware_dct,
            [
                0x2b58_2e13_b298_b93c,
                0xdc43_e0a0_73da_2f32,
                0x6b22_e2af_4ae8_ab2d,
                0x3e0d_4ff1_36cc_1fa0,
                0xe6f9_52c6_8b41_6772,
                0x452b_d208_97d0_bc3a,
                0x9db1_43cd_13fd_7d03,
            ],
        ),
        (
            "leak-blind haar",
            leak_blind_haar,
            [
                0x97e3_675c_22a7_5697,
                0xe0e8_4419_caa7_3c24,
                0x5792_3054_a594_ce4e,
                0x0ec2_6c8f_f9a1_4f22,
                0xcddf_8e8a_39c9_0b17,
                0x0d15_da93_3822_2a25,
                0xb06e_f772_3a02_2a69,
            ],
        ),
    ] {
        let got = artifact_digests(&DictionaryArtifacts::build(&params));
        assert_eq!(got, pinned, "{name}: {got:#018x?}");
    }
}
