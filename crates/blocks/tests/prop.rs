//! Property-style tests for the behavioural block library.
//!
//! Each test runs a Monte-Carlo loop over per-case seeds from
//! [`efficsense_rng::Rng64`], so every failure reproduces from its printed
//! case number.

use efficsense_blocks::cs_frontend::{ChargeSharingEncoder, EncoderImperfections};
use efficsense_blocks::{ActiveCsEncoder, Lna, SarAdc};
use efficsense_cs::matrix::SensingMatrix;
use efficsense_power::{DesignParams, TechnologyParams};
use efficsense_rng::Rng64;

const CASES: u64 = 64;

#[test]
fn adc_output_within_half_lsb_plus_noise() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xADC0 + case);
        let bits = g.range(4, 12) as u32;
        let v = g.uniform(-1.0, 1.0);
        let mut adc = SarAdc::ideal(bits, 2.0);
        let out = adc.process(v);
        let lsb = 2.0 / (1u64 << bits) as f64;
        assert!(
            (out - v).abs() <= lsb,
            "case {case}: error {} > lsb {lsb}",
            (out - v).abs()
        );
    }
}

#[test]
fn adc_codes_cover_full_range() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xADC1 + case);
        let bits = g.range(2, 10) as u32;
        let mut adc = SarAdc::ideal(bits, 2.0);
        assert_eq!(adc.quantize(-1.5), 0, "case {case}");
        assert_eq!(adc.quantize(1.5) as u64, (1u64 << bits) - 1, "case {case}");
    }
}

#[test]
fn adc_monotone_in_input() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xADC2 + case);
        let bits = g.range(4, 10) as u32;
        let a = g.uniform(-1.0, 1.0);
        let b = g.uniform(-1.0, 1.0);
        let mut adc = SarAdc::ideal(bits, 2.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(adc.quantize(lo) <= adc.quantize(hi), "case {case}");
    }
}

#[test]
fn adc_reconstruct_inverts_quantize_monotonically() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xADC3 + case);
        let bits = g.range(2, 12) as u32;
        let code_frac = g.f64();
        let adc = SarAdc::ideal(bits, 2.0);
        let steps = (1u64 << bits) as u32;
        let code = ((steps - 1) as f64 * code_frac) as u32;
        let v = adc.reconstruct(code);
        assert!(v > -1.0 && v < 1.0, "case {case}");
        if code > 0 {
            assert!(v > adc.reconstruct(code - 1), "case {case}");
        }
    }
}

#[test]
fn lna_output_never_exceeds_clip() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x17A0 + case);
        let gain = g.uniform(1.0, 10_000.0);
        let v_clip = g.uniform(0.1, 2.0);
        let len = g.range(10, 100);
        let inputs: Vec<f64> = (0..len).map(|_| g.uniform(-0.01, 0.01)).collect();
        let mut lna = Lna::new(gain, 1e-6, 768.0, 0.1, v_clip, 8192.0, 1);
        for y in lna.process_buffer(&inputs) {
            assert!(y.abs() <= v_clip + 1e-12, "case {case}");
            assert!(y.is_finite(), "case {case}");
        }
    }
}

#[test]
fn passive_encoder_output_bounded_by_input_peak() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x9A55 + case);
        let seed = g.next_u64();
        let scale = g.uniform(0.01, 1.0);
        // Charge sharing only ever interpolates: no hold voltage can exceed
        // the largest (noiseless) input sample magnitude.
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let phi = SensingMatrix::srbm(8, 32, 2, seed);
        let mut enc = ChargeSharingEncoder::new(
            phi,
            0.1e-12,
            0.5e-12,
            1.0 / design.f_sample_hz(),
            EncoderImperfections::ideal(),
            &tech,
            &design,
            seed,
        );
        let x: Vec<f64> = (0..32)
            .map(|i| scale * ((i * 11 % 7) as f64 - 3.0) / 3.0)
            .collect();
        let peak = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let y = enc.encode_frame(&x);
        for v in y {
            assert!(v.abs() <= peak + 1e-12, "case {case}");
        }
    }
}

#[test]
fn passive_encoder_is_linear() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x11EA + case);
        let seed = g.next_u64();
        let a = g.uniform(-2.0, 2.0);
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let make = || {
            ChargeSharingEncoder::new(
                SensingMatrix::srbm(8, 32, 2, 3),
                0.1e-12,
                0.5e-12,
                1.0 / design.f_sample_hz(),
                EncoderImperfections::ideal(),
                &tech,
                &design,
                seed,
            )
        };
        let x: Vec<f64> = (0..32)
            .map(|i| ((i * 13 % 11) as f64 - 5.0) / 5.0)
            .collect();
        let ax: Vec<f64> = x.iter().map(|v| a * v).collect();
        let y1 = make().encode_frame(&x);
        let y2 = make().encode_frame(&ax);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((a * u - v).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn active_encoder_matches_phi_without_leak() {
    for case in 0..CASES {
        let seed = Rng64::new(0xAC7E + case).next_u64();
        let phi = SensingMatrix::srbm(8, 32, 2, seed);
        let mut enc = ActiveCsEncoder::new(phi.clone(), 1e-12, 1e12, false, seed);
        let x: Vec<f64> = (0..32).map(|i| ((i * 3 % 13) as f64 - 6.0) / 6.0).collect();
        let y = enc.encode_frame(&x);
        let expect = phi.apply(&x);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-9, "case {case}");
        }
    }
}
