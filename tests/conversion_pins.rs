//! Golden pins on the per-sample conversion kernels: the SAR search at
//! resolutions and buffer shapes the front-end pins leave out, the
//! linear-interpolation kernel behind `resample_linear`, `sample_at` and
//! the stream's continuous-time grid, and clean whole-chain streams in
//! pushes of 1, 7 and 4096 samples. A kernel rewrite that moves one
//! output bit moves one of these digests.

use efficsense::blocks::SarAdc;
use efficsense::core::config::{CsConfig, SystemConfig};
use efficsense::core::prefix::record_fingerprint;
use efficsense::core::simulate::Simulator;
use efficsense::core::stream::StreamSimulator;
use efficsense::dsp::resample::{resample_linear, sample_at};
use efficsense::power::TechnologyParams;
use efficsense::signals::{DatasetConfig, EegDataset};
use efficsense_faults::AdcStuckBitFault;

/// Comparator draws the SAR fills per block (`NOISE_BLOCK` in the blocks
/// crate); a buffer is converted `NOISE_BLOCK / n_bits` samples at a time.
const NOISE_BLOCK: usize = 512;

/// A deterministic test input: two tones and a slow ramp, `n` samples.
fn input(n: usize, amplitude: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            amplitude * (0.6 * (t * 0.013).sin() + 0.3 * (t * 0.171).sin() + 0.1 * (t / n as f64))
        })
        .collect()
}

/// Every buffer shape the SAR kernel distinguishes at `bits`: tiny
/// buffers, each side of the per-block chunk edge and a multi-block one,
/// with per-sample `quantize` calls in between.
fn sar_digest(adc: &mut SarAdc, bits: u32, x: &[f64]) -> Vec<f64> {
    let chunk = NOISE_BLOCK / bits as usize;
    let mut y = Vec::new();
    let mut at = 0;
    for len in [1, 2, 3, 5, chunk - 1, chunk, chunk + 1, 2 * chunk + 3] {
        y.extend(adc.process_buffer(&x[at..at + len]));
        at += len;
        y.extend(x[at..at + 2].iter().map(|&v| f64::from(adc.quantize(v))));
        at += 2;
    }
    y
}

#[test]
fn sar_search_at_every_resolution_and_buffer_shape() {
    let tech = TechnologyParams::gpdk045();
    let x = input(2_000, 1.1);
    for (bits, pinned) in [
        (4, 0x29ad_9a0e_a4ad_0c41),
        (12, 0x7a16_bbf2_7c46_f205),
        (16, 0xa5ae_704a_3db0_d001),
    ] {
        let mut y = Vec::new();
        for (stuck_high, seed) in [(true, 60), (false, 61)] {
            let mut adc = SarAdc::new(bits, 2.0, 1e-15, 3e-3, -2e-4, &tech, seed + u64::from(bits));
            adc.inject_stuck_bit(Some(AdcStuckBitFault {
                bit: bits / 2,
                stuck_high,
            }));
            y.extend(sar_digest(&mut adc, bits, &x));
        }
        assert_eq!(record_fingerprint(&y), pinned, "{bits} bits");
    }
}

#[test]
fn ideal_sar_on_a_ramp_past_full_scale() {
    let mut adc = SarAdc::ideal(10, 2.0);
    let ramp: Vec<f64> = (0..3_001)
        .map(|i| -1.3 + 2.6 * i as f64 / 3_000.0)
        .collect();
    let mut y = adc.process_buffer(&ramp);
    y.extend(ramp.iter().map(|&v| f64::from(adc.quantize(v))));
    assert_eq!(record_fingerprint(&y), 0x83ef_a4e5_b48b_fccb, "ramp");
}

#[test]
fn resample_linear_up_and_down() {
    let mut y = Vec::new();
    for x in [input(1_000, 1.0), vec![0.25], vec![-0.5, 0.75]] {
        let up = resample_linear(&x, 173.61, 4300.8);
        y.push(up.len() as f64);
        let down = resample_linear(&up, 4300.8, 537.6);
        y.push(down.len() as f64);
        y.extend(up);
        y.extend(down);
    }
    assert_eq!(record_fingerprint(&y), 0x82a9_def7_150f_cb4f, "resample");
}

#[test]
fn sample_at_edges_grid_points_and_nan() {
    let fs = 173.61;
    let x = input(40, 1.0);
    let len = x.len() as f64;
    let mut instants = vec![-1.0, -1e-9, -0.0, 0.0];
    instants.extend((0..40).map(|i| f64::from(i) / fs));
    instants.extend((0..40).map(|i| (f64::from(i) + 0.37) / fs));
    for p in [
        len - 1.75,
        len - 1.5,
        len - 1.0 - 1e-9,
        len - 1.0,
        len - 0.5,
        len,
        1e6,
    ] {
        instants.push(p / fs);
    }
    let mut y: Vec<f64> = instants.iter().map(|&t| sample_at(&x, fs, t)).collect();
    for short in [vec![0.25], vec![-0.5, 0.75]] {
        for t in [
            -1.0,
            0.0,
            0.3 / fs,
            0.5 / fs,
            1.0 / fs,
            1.5 / fs,
            1e6,
            f64::NAN,
        ] {
            y.push(sample_at(&short, fs, t));
        }
    }
    assert_eq!(record_fingerprint(&y), 0x3982_ee08_bfd4_0b82, "sample_at");
}

#[test]
fn clean_streams_in_pushes_of_one_seven_and_a_block() {
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 1,
        duration_s: 16.0,
        ..Default::default()
    });
    let rec = &ds.records[0];
    for (name, cfg, pinned) in [
        ("baseline", SystemConfig::baseline(8), 0x138a_a980_2a95_da63),
        (
            "cs",
            SystemConfig::compressive(8, CsConfig::default()),
            0xb976_891c_fe3a_f263,
        ),
    ] {
        let sim = Simulator::new(cfg).expect("valid config");
        for chunk in [1, 7, 4096] {
            let mut stream = StreamSimulator::new(&sim, rec.fs, 9);
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
