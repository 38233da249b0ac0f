//! Recording artifacts: powerline hum, EMG bursts, eye blinks.
//!
//! The paper notes that public biosignal databases come "with and without
//! artefacts"; these injectors let experiments stress the front-end with the
//! dominant scalp-EEG contaminants.

use efficsense_rng::Rng64;

/// Adds mains hum at `f_line` Hz (plus a weaker 3rd harmonic) to `x` in place.
///
/// `amplitude` is the peak amplitude in the same units as the signal (volts).
pub fn add_powerline(x: &mut [f64], fs: f64, f_line: f64, amplitude: f64, phase: f64) {
    for (i, v) in x.iter_mut().enumerate() {
        let t = i as f64 / fs;
        let w = 2.0 * std::f64::consts::PI * f_line * t + phase;
        *v += amplitude * (w.sin() + 0.2 * (3.0 * w).sin());
    }
}

/// Adds a muscle (EMG) burst: band-limited high-frequency noise inside
/// `[start_s, start_s + duration_s]`, Hann-shaped in time.
pub fn add_emg_burst(
    x: &mut [f64],
    fs: f64,
    start_s: f64,
    duration_s: f64,
    amplitude: f64,
    rng: &mut Rng64,
) {
    let i0 = (start_s * fs).max(0.0) as usize;
    let n = (duration_s * fs) as usize;
    if n == 0 {
        return;
    }
    for k in 0..n {
        let i = i0 + k;
        if i >= x.len() {
            break;
        }
        // Hann envelope localises the burst.
        let env = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos();
        // High-pass-ish noise: difference of consecutive white samples.
        let hf = rng.normal() - rng.normal();
        x[i] += amplitude * env * hf * std::f64::consts::FRAC_1_SQRT_2;
    }
}

/// Adds an eye-blink artifact: a large, slow biphasic deflection of
/// `duration_s` (typically 0.3–0.5 s) starting at `start_s`.
pub fn add_eye_blink(x: &mut [f64], fs: f64, start_s: f64, duration_s: f64, amplitude: f64) {
    let i0 = (start_s * fs).max(0.0) as usize;
    let n = (duration_s * fs) as usize;
    for k in 0..n {
        let i = i0 + k;
        if i >= x.len() {
            break;
        }
        let u = k as f64 / n as f64; // 0..1
                                     // Gamma-like rise and decay, the canonical blink shape;
                                     // t²·e^(−t) peaks at 4e⁻² ≈ 0.5413, so normalise to unit peak.
        let shape = (u * 4.0).powf(2.0) * (-(u * 4.0)).exp() / 0.5413;
        x[i] += amplitude * shape;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_dsp::spectrum::{periodogram, WelchPlan};
    use efficsense_dsp::stats::{peak, rms};
    use efficsense_dsp::window::Window;

    #[test]
    fn powerline_puts_tone_at_line_frequency() {
        let fs = 1024.0;
        let mut x = vec![0.0; 8192];
        add_powerline(&mut x, fs, 50.0, 1e-5, 0.0);
        let psd = periodogram(&x, fs, Window::Hann);
        assert!((psd.peak_frequency() - 50.0).abs() < 1.0);
    }

    #[test]
    fn powerline_has_third_harmonic() {
        let fs = 1024.0;
        let mut x = vec![0.0; 8192];
        add_powerline(&mut x, fs, 50.0, 1.0, 0.0);
        let psd = WelchPlan::new(4096, Window::Hann).estimate(&x, fs);
        let p150 = psd.band_power(145.0, 155.0);
        let p50 = psd.band_power(45.0, 55.0);
        assert!(
            (p150 / p50 - 0.04).abs() < 0.01,
            "harmonic ratio {}",
            p150 / p50
        );
    }

    #[test]
    fn emg_burst_is_localised() {
        let fs = 1000.0;
        let mut x = vec![0.0; 10_000];
        let mut rng = Rng64::new(1);
        add_emg_burst(&mut x, fs, 4.0, 1.0, 1.0, &mut rng);
        assert_eq!(rms(&x[..3900]), 0.0);
        assert_eq!(rms(&x[5100..]), 0.0);
        assert!(rms(&x[4200..4800]) > 0.1);
    }

    #[test]
    fn emg_burst_clipped_at_record_end() {
        let fs = 1000.0;
        let mut x = vec![0.0; 1000];
        let mut rng = Rng64::new(2);
        add_emg_burst(&mut x, fs, 0.9, 1.0, 1.0, &mut rng); // extends past end
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn eye_blink_amplitude_and_sign() {
        let fs = 500.0;
        let mut x = vec![0.0; 1000];
        add_eye_blink(&mut x, fs, 0.5, 0.4, 100e-6);
        let pk = peak(&x);
        assert!(pk > 30e-6 && pk < 120e-6, "blink peak {pk}");
        // Blink deflection is monophasic positive in this model.
        assert!(x.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn zero_duration_burst_is_noop() {
        let mut x = vec![0.0; 100];
        let mut rng = Rng64::new(3);
        add_emg_burst(&mut x, 100.0, 0.1, 0.0, 1.0, &mut rng);
        assert!(x.iter().all(|&v| efficsense_dsp::approx::is_zero(v)));
    }
}
