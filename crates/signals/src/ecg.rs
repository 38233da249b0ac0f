//! Synthetic ECG generator.
//!
//! EffiCSense claims to be application-agnostic (paper Table I:
//! "Application Specific: No"); the intro's motivating systems include
//! ultra-low-power ECG monitors (reference 4). This module provides a second
//! signal domain so the framework's sweeps can be exercised beyond EEG:
//! a morphology-based synthetic ECG built from Gaussian P/Q/R/S/T waves —
//! the standard simplified form of the McSharry dynamical model.

use crate::noise::PinkNoise;
use efficsense_rng::Rng64;

/// One Gaussian wave of the PQRST complex: (centre offset s, width s,
/// amplitude V).
type Wave = (f64, f64, f64);

/// Morphology parameters of the synthetic ECG (voltages in volts at the
/// electrode, i.e. ~1 mV R peaks).
#[derive(Debug, Clone, PartialEq)]
pub struct EcgParams {
    /// Mean heart rate in beats per minute. Default 70.
    pub heart_rate_bpm: f64,
    /// Beat-to-beat interval jitter (fractional σ). Default 0.05.
    pub hrv_sigma: f64,
    /// R-wave amplitude (V). Default 1 mV.
    pub r_amplitude: f64,
    /// Baseline wander amplitude (V). Default 50 µV.
    pub wander_amplitude: f64,
    /// Additive sensor noise RMS (V). Default 10 µV.
    pub noise_rms: f64,
}

impl Default for EcgParams {
    fn default() -> Self {
        Self {
            heart_rate_bpm: 70.0,
            hrv_sigma: 0.05,
            r_amplitude: 1e-3,
            wander_amplitude: 50e-6,
            noise_rms: 10e-6,
        }
    }
}

/// Seeded synthetic ECG generator.
///
/// ```
/// use efficsense_signals::ecg::{EcgGenerator, EcgParams};
/// let mut gen = EcgGenerator::new(EcgParams::default(), 3);
/// let x = gen.record(360.0, 10.0); // 10 s at 360 Hz
/// assert_eq!(x.len(), 3600);
/// ```
#[derive(Debug, Clone)]
pub struct EcgGenerator {
    params: EcgParams,
    rng: Rng64,
    pink_seed: u64,
}

impl EcgGenerator {
    /// Creates a generator from morphology parameters and a seed.
    pub fn new(params: EcgParams, seed: u64) -> Self {
        Self {
            params,
            rng: Rng64::new(seed ^ 0xEC6),
            pink_seed: seed,
        }
    }

    /// The PQRST waves relative to the R peak, scaled to `r_amplitude`.
    fn waves(&self) -> [Wave; 5] {
        let a = self.params.r_amplitude;
        [
            (-0.20, 0.025, 0.12 * a),   // P
            (-0.035, 0.010, -0.15 * a), // Q
            (0.0, 0.011, 1.0 * a),      // R
            (0.035, 0.010, -0.25 * a),  // S
            (0.22, 0.045, 0.30 * a),    // T
        ]
    }

    /// Generates `duration_s` seconds at `fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics unless `fs` and `duration_s` are positive.
    pub fn record(&mut self, fs: f64, duration_s: f64) -> Vec<f64> {
        assert!(
            fs > 0.0 && duration_s > 0.0,
            "fs and duration must be positive"
        );
        let n = (fs * duration_s) as usize;
        let mut x = vec![0.0; n];
        // Beat times with heart-rate variability.
        let mean_rr = 60.0 / self.params.heart_rate_bpm;
        let mut t_beat = 0.3; // first beat
        let waves = self.waves();
        while t_beat < duration_s + 0.5 {
            for &(dt, width, amp) in &waves {
                let centre = t_beat + dt;
                let lo = ((centre - 5.0 * width) * fs).max(0.0) as usize;
                let hi = (((centre + 5.0 * width) * fs) as usize).min(n);
                for (i, v) in x.iter_mut().enumerate().take(hi).skip(lo) {
                    let t = i as f64 / fs - centre;
                    *v += amp * (-(t * t) / (2.0 * width * width)).exp();
                }
            }
            let jitter = 1.0 + self.rng.normal() * self.params.hrv_sigma;
            t_beat += mean_rr * jitter.clamp(0.5, 1.5);
        }
        // Baseline wander (respiration, ~0.3 Hz) + pink sensor noise.
        let wander_f = self.rng.uniform(0.15, 0.4);
        let wander_phase = self.rng.uniform(0.0, std::f64::consts::TAU);
        let mut pink = PinkNoise::new(self.pink_seed ^ 0xECC);
        for (i, v) in x.iter_mut().enumerate() {
            let t = i as f64 / fs;
            *v += self.params.wander_amplitude
                * (std::f64::consts::TAU * wander_f * t + wander_phase).sin();
            *v += pink.sample() * self.params.noise_rms;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_dsp::spectrum::WelchPlan;
    use efficsense_dsp::stats::{peak, rms, zero_crossings};
    use efficsense_dsp::window::Window;

    #[test]
    fn record_has_expected_shape() {
        let mut g = EcgGenerator::new(EcgParams::default(), 1);
        let fs = 360.0;
        let x = g.record(fs, 10.0);
        assert_eq!(x.len(), 3600);
        assert!(x.iter().all(|v| v.is_finite()));
        // R peaks near 1 mV.
        let pk = peak(&x);
        assert!((0.7e-3..1.5e-3).contains(&pk), "peak {pk}");
    }

    #[test]
    fn beat_count_matches_heart_rate() {
        let mut g = EcgGenerator::new(
            EcgParams {
                hrv_sigma: 0.0,
                noise_rms: 1e-9,
                wander_amplitude: 0.0,
                ..Default::default()
            },
            2,
        );
        let fs = 360.0;
        let x = g.record(fs, 30.0);
        // Count R peaks by thresholding at 60 % of max.
        let thr = peak(&x) * 0.6;
        let mut beats = 0;
        let mut above = false;
        for &v in &x {
            if v > thr && !above {
                beats += 1;
                above = true;
            } else if v < thr / 2.0 {
                above = false;
            }
        }
        // 70 bpm over 30 s ≈ 35 beats.
        assert!((33..=37).contains(&beats), "{beats} beats");
    }

    #[test]
    fn spectrum_has_qrs_band_energy() {
        let mut g = EcgGenerator::new(EcgParams::default(), 3);
        let fs = 360.0;
        let x = g.record(fs, 30.0);
        let psd = WelchPlan::new(2048, Window::Hann).estimate(&x, fs);
        // QRS energy lives in ~5–25 Hz; far more than in 60–120 Hz.
        let qrs = psd.band_power(5.0, 25.0);
        let high = psd.band_power(60.0, 120.0);
        assert!(qrs > 20.0 * high, "QRS {qrs} vs high {high}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = EcgGenerator::new(EcgParams::default(), 9);
        let mut b = EcgGenerator::new(EcgParams::default(), 9);
        assert_eq!(a.record(360.0, 5.0), b.record(360.0, 5.0));
    }

    #[test]
    fn hrv_perturbs_intervals() {
        let mut steady = EcgGenerator::new(
            EcgParams {
                hrv_sigma: 0.0,
                ..Default::default()
            },
            5,
        );
        let mut wobbly = EcgGenerator::new(
            EcgParams {
                hrv_sigma: 0.1,
                ..Default::default()
            },
            5,
        );
        assert_ne!(steady.record(360.0, 10.0), wobbly.record(360.0, 10.0));
    }

    #[test]
    fn ecg_is_sparser_than_noise() {
        // The PQRST morphology is compressible: most samples are baseline.
        let mut g = EcgGenerator::new(
            EcgParams {
                noise_rms: 1e-9,
                wander_amplitude: 0.0,
                ..Default::default()
            },
            7,
        );
        let x = g.record(360.0, 10.0);
        let r = rms(&x);
        let p = peak(&x);
        // Crest factor (peak/rms) far above a sine's √2.
        assert!(p / r > 4.0, "crest {}", p / r);
        let _ = zero_crossings(&x);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_duration() {
        let mut g = EcgGenerator::new(EcgParams::default(), 1);
        let _ = g.record(360.0, -1.0);
    }
}
