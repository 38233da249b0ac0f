//! Property-style tests for the DSP substrate, run as seeded Monte-Carlo
//! loops.

use efficsense_dsp::fft::{dft_naive, Fft};
use efficsense_dsp::filter::{IirFilter, OnePole};
use efficsense_dsp::metrics::{prd_percent, snr_fit_db};
use efficsense_dsp::resample::{resample_linear, sample_at};
use efficsense_dsp::spectrum::periodogram;
use efficsense_dsp::stats::{mean, rms, variance};
use efficsense_dsp::window::Window;
use efficsense_dsp::Complex;
use efficsense_rng::Rng64;

const CASES: u64 = 96;

fn signal(g: &mut Rng64, max_len: usize) -> Vec<f64> {
    let len = g.range(2, max_len);
    (0..len).map(|_| g.uniform(-10.0, 10.0)).collect()
}

#[test]
fn fft_roundtrip_is_identity() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xFF70 + case);
        let x = signal(&mut g, 256);
        let n = x.len().next_power_of_two();
        let fft = Fft::new(n);
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| Complex::from_real(x.get(i).copied().unwrap_or(0.0)))
            .collect();
        let orig = buf.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-8, "case {case}");
            assert!(
                a.im.abs() < 1e-8 || (a.im - b.im).abs() < 1e-8,
                "case {case}"
            );
        }
    }
}

#[test]
fn fft_is_linear() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xFF71 + case);
        let x: Vec<f64> = (0..32).map(|_| g.uniform(-5.0, 5.0)).collect();
        let y: Vec<f64> = (0..32).map(|_| g.uniform(-5.0, 5.0)).collect();
        let a = g.uniform(-3.0, 3.0);
        let fft = Fft::new(32);
        let spectrum = |v: &[f64]| {
            let mut z: Vec<Complex> = v.iter().map(|&r| Complex::from_real(r)).collect();
            fft.forward(&mut z);
            z
        };
        let fx = spectrum(&x);
        let fy = spectrum(&y);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(u, v)| a * u + v).collect();
        let fc = spectrum(&combo);
        for ((zc, zx), zy) in fc.iter().zip(&fx).zip(&fy) {
            let expect = zx.scale(a) + *zy;
            assert!((*zc - expect).abs() < 1e-7, "case {case}");
        }
    }
}

#[test]
fn fft_matches_naive_reference() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xFF72 + case);
        let x: Vec<f64> = (0..16).map(|_| g.uniform(-5.0, 5.0)).collect();
        let buf: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        let expect = dft_naive(&buf);
        let fft = Fft::new(16);
        let mut got = buf;
        fft.forward(&mut got);
        for (gz, e) in got.iter().zip(&expect) {
            assert!((*gz - *e).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn parseval_holds_for_any_signal() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xFF73 + case);
        let x = signal(&mut g, 128);
        let n = x.len().next_power_of_two();
        let fft = Fft::new(n);
        let mut spec: Vec<Complex> = (0..n)
            .map(|i| Complex::from_real(x.get(i).copied().unwrap_or(0.0)))
            .collect();
        fft.forward(&mut spec);
        let time: f64 = x.iter().map(|v| v * v).sum();
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time - freq).abs() < 1e-7 * time.max(1.0), "case {case}");
    }
}

#[test]
fn periodogram_power_tracks_signal_power() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x9E60 + case);
        let x = signal(&mut g, 200);
        let fs = 100.0;
        let psd = periodogram(&x, fs, Window::Rect);
        let sig_power: f64 = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        let est = psd.total_power();
        // Zero-padding smears but preserves total power within a few percent
        // of the rectangular-window estimate.
        assert!(est <= sig_power * 1.01 + 1e-12, "case {case}");
        assert!(est >= sig_power * 0.3 - 1e-12, "case {case}");
    }
}

#[test]
fn one_pole_is_stable_and_bounded() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x09E1 + case);
        let x = signal(&mut g, 300);
        let fc = g.uniform(1.0, 400.0);
        let mut lp = OnePole::lowpass(fc, 1000.0);
        let peak_in = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for &v in &x {
            let y = lp.process(v);
            assert!(y.is_finite(), "case {case}");
            assert!(
                y.abs() <= peak_in + 1e-9,
                "case {case}: one-pole must not overshoot"
            );
        }
    }
}

#[test]
fn butterworth_impulse_response_decays() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xB077 + case);
        let order = g.range(1, 6);
        let fc = g.uniform(5.0, 200.0);
        let mut f = IirFilter::butterworth_lowpass(order, fc, 1000.0);
        let mut energy_head = 0.0;
        let mut energy_tail = 0.0;
        for i in 0..4000 {
            let y = f.process(if i == 0 { 1.0 } else { 0.0 });
            assert!(y.is_finite(), "case {case}");
            if i < 2000 {
                energy_head += y * y
            } else {
                energy_tail += y * y
            }
        }
        assert!(
            energy_tail < energy_head * 0.01 + 1e-12,
            "case {case}: IIR must be stable"
        );
    }
}

#[test]
fn resample_preserves_mean_of_slow_signals() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x4E5A + case);
        let len = g.range(50, 200);
        let x: Vec<f64> = (0..len).map(|_| g.uniform(-5.0, 5.0)).collect();
        // Resampling redistributes samples; the mean of a signal changes only
        // marginally (edge effects).
        let y = resample_linear(&x, 100.0, 173.0);
        assert!((mean(&y) - mean(&x)).abs() < 0.6, "case {case}");
    }
}

#[test]
fn sample_at_never_extrapolates() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x5A3E + case);
        let x = signal(&mut g, 100);
        let t = g.uniform(-5.0, 10.0);
        let v = sample_at(&x, 10.0, t);
        let (lo, hi) = x
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &u| {
                (l.min(u), h.max(u))
            });
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "case {case}");
    }
}

#[test]
fn prd_and_snr_are_consistent() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x94D0 + case);
        let x = signal(&mut g, 100);
        let noise_scale = g.uniform(0.0, 0.5);
        // Skip degenerate all-zero signals.
        if rms(&x) <= 1e-6 {
            continue;
        }
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| v + noise_scale * ((i * 31) as f64).sin())
            .collect();
        let prd = prd_percent(&x, &y);
        assert!(prd >= 0.0, "case {case}");
        if prd > 1e-9 {
            // snr_fit removes gain/offset so it is at least as good as raw.
            let snr = snr_fit_db(&x, &y);
            let raw = 20.0 * (100.0 / prd).log10();
            assert!(snr >= raw - 1e-6, "case {case}: fit SNR {snr} < raw {raw}");
        }
    }
}

#[test]
fn variance_is_translation_invariant() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x7A61 + case);
        let x = signal(&mut g, 100);
        let c = g.uniform(-100.0, 100.0);
        let shifted: Vec<f64> = x.iter().map(|v| v + c).collect();
        assert!(
            (variance(&x) - variance(&shifted)).abs() < 1e-6 * variance(&x).max(1.0),
            "case {case}"
        );
    }
}

#[test]
fn window_power_gain_le_one() {
    for case in 0..CASES {
        let n = Rng64::new(0x3140 + case).range(2, 512);
        for w in [Window::Rect, Window::Hann, Window::BlackmanHarris] {
            let pg = w.power_gain(n);
            assert!(pg > 0.0 && pg <= 1.0 + 1e-12, "case {case}");
            assert!(w.enbw_bins(n) >= 1.0 - 1e-9, "case {case}");
        }
    }
}
