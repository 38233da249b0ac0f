//! EEG feature extraction for the detection goal function.

use efficsense_dsp::spectrum::{Psd, WelchPlan};
use efficsense_dsp::stats;
use efficsense_dsp::window::Window;

/// The classical EEG frequency bands in Hz.
pub const BANDS: [(f64, f64); 5] = [
    (0.5, 4.0),   // delta
    (4.0, 8.0),   // theta
    (8.0, 13.0),  // alpha
    (13.0, 30.0), // beta
    (30.0, 70.0), // gamma
];

/// Welch segment length in samples (shorter records use their length).
const WELCH_SEGMENT: usize = 256;

/// Small floor added inside logs to keep features finite.
const LOG_FLOOR: f64 = 1e-18;

/// Extracts a fixed-length feature vector from an EEG record.
///
/// Features (13 total):
/// 1–5. log band powers (delta, theta, alpha, beta, gamma)
/// 6. log total power
/// 7. relative low-frequency power (delta+theta fraction)
/// 8. log RMS amplitude
/// 9. log line length per sample
/// 10. Hjorth mobility
/// 11. Hjorth complexity
/// 12. zero-crossing rate
/// 13. excess kurtosis
///
/// The extractor owns its Welch plan (256-sample Hann segments), built once
/// by [`Default`]; the plan estimates a window shorter than one segment as
/// one periodogram over the whole window.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureExtractor {
    welch: WelchPlan,
}

/// Number of features produced by [`FeatureExtractor::extract`].
pub const FEATURE_COUNT: usize = 13;

impl Default for FeatureExtractor {
    fn default() -> Self {
        Self {
            welch: WelchPlan::new(WELCH_SEGMENT, Window::Hann),
        }
    }
}

impl FeatureExtractor {
    fn band_powers(&self, psd: &Psd, fs: f64) -> [f64; 5] {
        let nyq = fs / 2.0;
        let mut out = [0.0; 5];
        for (i, &(lo, hi)) in BANDS.iter().enumerate() {
            let hi_c = hi.min(nyq - psd.freq_resolution);
            out[i] = if lo < hi_c {
                psd.band_power(lo, hi_c)
            } else {
                0.0
            };
        }
        out
    }

    /// Extracts the feature vector from `x` sampled at `fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `fs <= 0`.
    pub fn extract(&self, x: &[f64], fs: f64) -> Vec<f64> {
        assert!(
            !x.is_empty(),
            "cannot extract features from an empty record"
        );
        assert!(fs > 0.0, "sample rate must be positive");
        let psd = self.welch.estimate(x, fs);
        let bp = self.band_powers(&psd, fs);
        let total: f64 = bp.iter().sum::<f64>().max(LOG_FLOOR);
        let low_frac = (bp[0] + bp[1]) / total;
        let rms = stats::rms(x);
        let ll = stats::line_length(x) / x.len() as f64;
        let mut f = Vec::with_capacity(FEATURE_COUNT);
        for p in bp {
            f.push((p + LOG_FLOOR).ln());
        }
        f.push(total.ln());
        f.push(low_frac);
        f.push((rms + LOG_FLOOR.sqrt()).ln());
        f.push((ll + LOG_FLOOR.sqrt()).ln());
        f.push(stats::hjorth_mobility(x));
        f.push(stats::hjorth_complexity(x));
        f.push(stats::zero_crossings(x) as f64 / x.len() as f64);
        f.push(stats::kurtosis(x).clamp(-10.0, 10.0));
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_signals::{EegClass, EegGenerator, EegParams};

    #[test]
    fn feature_vector_has_fixed_length() {
        let ex = FeatureExtractor::default();
        let x: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.1).sin()).collect();
        let f = ex.extract(&x, 173.61);
        assert_eq!(f.len(), FEATURE_COUNT);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn features_finite_for_silence() {
        let ex = FeatureExtractor::default();
        let f = ex.extract(&vec![0.0; 500], 173.61);
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
    }

    #[test]
    fn seizure_and_normal_separate_in_feature_space() {
        let ex = FeatureExtractor::default();
        let mut gen = EegGenerator::new(EegParams::default(), 42);
        let fs = 173.61;
        let mut dist = 0.0;
        for _ in 0..5 {
            let n = ex.extract(&gen.record(EegClass::Normal, fs, 8.0), fs);
            let s = ex.extract(&gen.record(EegClass::Seizure, fs, 8.0), fs);
            // log total power difference is the dominant discriminator.
            dist += s[5] - n[5];
        }
        assert!(dist / 5.0 > 1.0, "mean log-power gap {}", dist / 5.0);
    }

    #[test]
    fn amplitude_scaling_shifts_log_power_only() {
        let ex = FeatureExtractor::default();
        let x: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.37).sin() * 1e-5).collect();
        let x10: Vec<f64> = x.iter().map(|v| v * 10.0).collect();
        let f1 = ex.extract(&x, 173.61);
        let f2 = ex.extract(&x10, 173.61);
        // Band powers shift by ln(100) = 4.6; shape features stay put.
        assert!((f2[5] - f1[5] - 100f64.ln()).abs() < 0.01);
        assert!((f2[9] - f1[9]).abs() < 1e-6, "mobility invariant to scale");
        assert!((f2[11] - f1[11]).abs() < 1e-9, "ZCR invariant to scale");
    }

    #[test]
    fn white_noise_raises_gamma_band() {
        let ex = FeatureExtractor::default();
        let mut gen = efficsense_rng::Rng64::new(3);
        let clean: Vec<f64> = (0..4000)
            .map(|i| 1e-5 * (2.0 * std::f64::consts::PI * 5.0 * i as f64 / 173.61).sin())
            .collect();
        let noisy: Vec<f64> = clean.iter().map(|v| v + gen.normal() * 1e-5).collect();
        let fc = ex.extract(&clean, 173.61);
        let fn_ = ex.extract(&noisy, 173.61);
        assert!(
            fn_[4] > fc[4] + 1.0,
            "gamma log-power must jump with white noise"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        let _ = FeatureExtractor::default().extract(&[], 100.0);
    }
}
