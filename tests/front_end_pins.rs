//! Golden pins on the front-end block kernels: digests of every output bit
//! of the LNA, the SAR ADC, the S&H, the charge-sharing encoder, pink noise
//! and a compound-fault stream on both architectures. Each block draws its
//! noise from a private stream; these values move if any block consumes a
//! draw out of order, skips one, or rounds a sum differently.

use efficsense::blocks::cs_frontend::EncoderImperfections;
use efficsense::blocks::{ChargeSharingEncoder, Lna, Sampler, SarAdc};
use efficsense::core::config::{CsConfig, SystemConfig};
use efficsense::core::prefix::record_fingerprint;
use efficsense::core::simulate::Simulator;
use efficsense::core::stream::StreamSimulator;
use efficsense::cs::matrix::SensingMatrix;
use efficsense::power::{DesignParams, TechnologyParams};
use efficsense::signals::noise::PinkNoise;
use efficsense::signals::{DatasetConfig, EegDataset};
use efficsense_faults::{
    AdcStuckBitFault, CapLeakageFault, ClockFault, CompoundPlan, FaultKind, LnaRailFault,
    SeverityProfile,
};

/// A deterministic test input: two tones and a slow ramp, `n` samples.
fn input(n: usize, amplitude: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            amplitude * (0.6 * (t * 0.013).sin() + 0.3 * (t * 0.171).sin() + 0.1 * (t / n as f64))
        })
        .collect()
}

#[test]
fn lna_with_nonlinearity_and_rail_fault() {
    let x = input(20_000, 4e-4);
    let mut lna = Lna::new(2000.0, 3e-6, 768.0, 0.05, 1.0, 8192.0, 17);
    lna.install_rail_fault(
        LnaRailFault {
            rail_prob: 0.004,
            episode_len: 40,
            v_clip_factor: 0.7,
        },
        99,
    );
    let mut y = lna.process_buffer(&x[..7_001]);
    y.extend(lna.process_buffer(&x[7_001..]));
    assert_eq!(record_fingerprint(&y), 0xa868_717f_d8f7_f15c, "lna");
}

#[test]
fn sar_adc_with_noise_mismatch_and_stuck_bit() {
    let tech = TechnologyParams::gpdk045();
    let x = input(5_000, 1.05);
    for (bits, pinned) in [
        (6, 0xddb6_bf6a_daea_f2dd),
        (8, 0x19e7_bf6a_daea_f2dd),
        (10, 0x029f_676a_daea_f2dd),
    ] {
        let mut adc = SarAdc::new(bits, 2.0, 1e-15, 2e-3, 1e-4, &tech, 40 + u64::from(bits));
        adc.inject_stuck_bit(Some(AdcStuckBitFault {
            bit: 2,
            stuck_high: bits != 8,
        }));
        let mut y = adc.process_buffer(&x[..1_234]);
        y.extend(x[1_234..1_240].iter().map(|&v| adc.process(v)));
        y.extend(adc.process_buffer(&x[1_240..]));
        assert_eq!(record_fingerprint(&y), pinned, "{bits} bits");
    }
}

#[test]
fn sampler_with_clock_fault_and_aperture_jitter() {
    let x = input(40_000, 1.0);
    let mut clocked = Sampler::new(537.6, 0.2e-12, 0.0, 5);
    clocked.inject_clock_fault(
        Some(ClockFault {
            jitter_periods: 0.2,
            drop_prob: 0.15,
        }),
        23,
    );
    let mut y = clocked.sample(&x, 8192.0);
    // Aperture jitter shares the kT/C stream: the draws interleave.
    let mut jittered = Sampler::new(537.6, 0.2e-12, 2e-5, 6);
    y.extend(jittered.sample(&x, 8192.0));
    let mut clean = Sampler::new(537.6, 0.2e-12, 0.0, 7);
    y.extend(clean.sample(&x, 8192.0));
    assert_eq!(record_fingerprint(&y), 0xb168_524b_e39f_bddf, "sampler");
}

#[test]
fn charge_sharing_encoder_with_leakage_fault() {
    let tech = TechnologyParams::gpdk045();
    let design = DesignParams::paper_defaults(8);
    let phi = SensingMatrix::srbm(48, 192, 2, 3);
    let mut enc = ChargeSharingEncoder::new(
        phi,
        0.1e-12,
        0.5e-12,
        1.0 / design.f_sample_hz(),
        EncoderImperfections::realistic(),
        &tech,
        &design,
        12,
    );
    enc.inject_leakage_fault(
        Some(CapLeakageFault {
            leak_multiplier: 30.0,
        }),
        &tech,
        &design,
    );
    let x = input(192 * 6, 0.4);
    let y: Vec<f64> = x
        .chunks_exact(192)
        .flat_map(|f| enc.encode_frame(f))
        .collect();
    assert_eq!(record_fingerprint(&y), 0x5a50_187b_59a6_dfe8, "encoder");
}

#[test]
fn pink_noise_vector() {
    let mut pink = PinkNoise::new(77);
    let mut y = pink.vector(3_000, 2.5e-5);
    y.extend(pink.vector(1, 1.0));
    y.extend(pink.vector(517, 1.0));
    assert_eq!(record_fingerprint(&y), 0xc34f_3709_cbf5_6ae2, "pink");
}

/// A plan whose LNA, ADC, clock, leakage and link parameters all change
/// across the record's epochs.
fn aging_plan(seed: u64) -> CompoundPlan {
    let ramp = |end: f64| SeverityProfile::Linear {
        start: 0.0,
        end,
        ramp_s: 40.0,
    };
    CompoundPlan::new(seed, 4.5)
        .with(FaultKind::LnaRail, ramp(1.0))
        .with(
            FaultKind::AdcStuckBit,
            SeverityProfile::Step {
                before: 0.3,
                after: 0.9,
                at_s: 12.0,
            },
        )
        .with(FaultKind::CapLeakage, ramp(1.0))
        .with(FaultKind::ClockJitter, ramp(0.8))
        .with(
            FaultKind::DroppedSamples,
            SeverityProfile::Sinusoid {
                base: 0.3,
                amplitude: 0.3,
                period_s: 15.0,
            },
        )
        .with(FaultKind::PacketLoss, ramp(0.7))
}

#[test]
fn compound_streams_on_both_architectures() {
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 1,
        duration_s: 48.0,
        ..Default::default()
    });
    let rec = &ds.records[1];
    let cs = CsConfig {
        m: 96,
        ..Default::default()
    };
    for (name, cfg, pinned) in [
        ("baseline", SystemConfig::baseline(8), 0xb7b4_79ce_6aa3_172a),
        (
            "cs",
            SystemConfig::compressive(8, cs),
            0x8a45_5bf6_c0fc_a1b2,
        ),
    ] {
        let sim = Simulator::new(cfg).expect("valid config");
        let plan = aging_plan(5);
        for chunk in [4096, 333] {
            let mut stream = StreamSimulator::with_compound(&sim, rec.fs, 3, &plan);
            let (mut bits, mut reference) = (Vec::new(), Vec::new());
            for c in rec.samples.chunks(chunk) {
                let got = stream.push(c);
                bits.extend(got.input_referred);
                reference.extend(got.reference);
            }
            let (last, summary) = stream.finish();
            bits.extend(last.input_referred);
            bits.extend(reference);
            bits.extend(last.reference);
            bits.push(summary.power.total().value());
            bits.push(summary.words as f64);
            bits.push(summary.out_samples as f64);
            assert_eq!(
                record_fingerprint(&bits),
                pinned,
                "{name}, {chunk}-sample pushes"
            );
        }
    }
}
