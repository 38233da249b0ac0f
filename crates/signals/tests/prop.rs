//! Property-style tests for the synthetic EEG substrate, run as seeded
//! Monte-Carlo loops.

use efficsense_dsp::stats::{peak, rms};
use efficsense_rng::Rng64;
use efficsense_signals::noise::PinkNoise;
use efficsense_signals::{DatasetConfig, EegClass, EegDataset, EegGenerator, EegParams};

const CASES: u64 = 24;

#[test]
fn records_always_finite_and_physiological() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x4EC0 + case);
        let seed = g.next_u64();
        let duration = g.uniform(1.0, 12.0);
        let mut gen = EegGenerator::new(EegParams::default(), seed);
        for class in EegClass::ALL {
            let x = gen.record(class, 173.61, duration);
            assert_eq!(x.len(), (173.61 * duration) as usize, "case {case}");
            assert!(x.iter().all(|v| v.is_finite()), "case {case}");
            // Scalp EEG never exceeds ~1 mV.
            assert!(peak(&x) < 1e-3, "case {case}: peak {} too large", peak(&x));
            assert!(rms(&x) > 1e-7, "case {case}: record should not be silent");
        }
    }
}

#[test]
fn generation_is_deterministic() {
    for case in 0..CASES {
        let seed = Rng64::new(0xDE7E + case).next_u64();
        let cfg = DatasetConfig {
            records_per_class: 2,
            duration_s: 2.0,
            seed,
            ..Default::default()
        };
        assert_eq!(
            EegDataset::generate(&cfg),
            EegDataset::generate(&cfg),
            "case {case}"
        );
    }
}

#[test]
fn split_partitions_dataset() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x5917 + case);
        let n = g.range(2, 12);
        let frac_pct = g.range(10, 50) as u32;
        let cfg = DatasetConfig {
            records_per_class: n,
            duration_s: 1.0,
            ..Default::default()
        };
        let ds = EegDataset::generate(&cfg);
        let (train, test) = ds.split(frac_pct as f64 / 100.0);
        assert_eq!(train.len() + test.len(), ds.len(), "case {case}");
        let mut ids: Vec<usize> = train.iter().chain(test.iter()).map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            ds.len(),
            "case {case}: every record exactly once"
        );
    }
}

#[test]
fn pink_noise_finite_and_nonzero() {
    for case in 0..CASES {
        let seed = Rng64::new(0x9146 + case).next_u64();
        let mut p = PinkNoise::new(seed);
        let x = p.vector(2000, 1.0);
        assert!(x.iter().all(|v| v.is_finite()), "case {case}");
        assert!(rms(&x) > 0.05, "case {case}");
    }
}

#[test]
fn seizure_energy_exceeds_normal_on_average() {
    for case in 0..CASES {
        let seed = Rng64::new(0x5E12 + case).next_u64();
        let params = EegParams {
            powerline_probability: 0.0,
            emg_probability: 0.0,
            blink_probability: 0.0,
            ..Default::default()
        };
        let mut gen = EegGenerator::new(params, seed);
        let mut seiz = 0.0;
        let mut norm = 0.0;
        for _ in 0..4 {
            seiz += rms(&gen.record(EegClass::Seizure, 173.61, 6.0));
            norm += rms(&gen.record(EegClass::Normal, 173.61, 6.0));
        }
        assert!(
            seiz > norm,
            "case {case}: seizure rms {seiz} vs normal {norm}"
        );
    }
}
