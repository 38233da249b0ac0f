//! Goal functions (paper Step 5).
//!
//! A goal function turns the simulated front-end outputs of a design point
//! into a single quality number. The paper demonstrates that the *choice* of
//! goal function changes the optimal architecture (Fig. 7a vs 7b), so the
//! sweep engine is generic over this trait.

use crate::detector::SeizureDetector;
use crate::simulate::SimOutput;
use efficsense_dsp::metrics::snr_fit_db;

/// Scores the outputs of one design point over the evaluation records.
pub trait GoalFunction {
    /// Human-readable metric name (used in reports).
    fn name(&self) -> &str;

    /// Aggregated metric over all `(output, label)` pairs; higher is better.
    fn evaluate(&self, outputs: &[(SimOutput, usize)]) -> f64;
}

/// Mean reference-based SNR in dB (the Fig. 7a metric).
///
/// Uses the gain/offset-fitted SNR so the score reflects waveform fidelity
/// rather than absolute level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnrGoal;

impl GoalFunction for SnrGoal {
    fn name(&self) -> &str {
        "snr_db"
    }

    fn evaluate(&self, outputs: &[(SimOutput, usize)]) -> f64 {
        assert!(!outputs.is_empty(), "cannot score an empty evaluation set");
        let mut acc = 0.0;
        for (o, _) in outputs {
            let snr = snr_fit_db(&o.reference, &o.input_referred);
            // Cap perfect reconstructions so one ∞ doesn't wreck the mean.
            acc += snr.min(120.0);
        }
        acc / outputs.len() as f64
    }
}

/// Seizure detection accuracy (the Fig. 7b metric).
#[derive(Debug, Clone)]
pub struct DetectionGoal {
    detector: SeizureDetector,
}

impl DetectionGoal {
    /// Wraps a trained detector as a goal function.
    pub fn new(detector: SeizureDetector) -> Self {
        Self { detector }
    }

    /// Access to the wrapped detector.
    pub fn detector(&self) -> &SeizureDetector {
        &self.detector
    }
}

impl GoalFunction for DetectionGoal {
    fn name(&self) -> &str {
        "detection_accuracy"
    }

    fn evaluate(&self, outputs: &[(SimOutput, usize)]) -> f64 {
        assert!(!outputs.is_empty(), "cannot score an empty evaluation set");
        let pairs: Vec<(&[f64], usize)> = outputs
            .iter()
            .map(|(o, label)| (o.input_referred.as_slice(), *label))
            .collect();
        let fs = outputs[0].0.fs_out;
        // Separates inference proper from the pair-assembly above in the
        // per-stage profile.
        let _infer_span = efficsense_obs::span!("detect.infer");
        self.detector.accuracy(&pairs, fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_power::PowerBreakdown;

    fn fake_output(reference: Vec<f64>, signal: Vec<f64>) -> SimOutput {
        SimOutput {
            input_referred: signal,
            reference,
            fs_out: 537.6,
            power: PowerBreakdown::new(),
            area_units: 0.0,
            words: 0,
            link: None,
        }
    }

    #[test]
    fn snr_goal_perfect_match_caps_at_120() {
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.1).sin()).collect();
        let out = fake_output(x.clone(), x);
        assert_eq!(SnrGoal.evaluate(&[(out, 0)]), 120.0);
        assert_eq!(SnrGoal.name(), "snr_db");
    }

    #[test]
    fn snr_goal_orders_by_error() {
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.1).sin()).collect();
        let slightly: Vec<f64> = x.iter().map(|v| v + 0.001).collect();
        let badly: Vec<f64> = x.iter().map(|v| v + 0.3).collect();
        // Add a non-constant error so the offset fit can't absorb it all.
        let slightly: Vec<f64> = slightly
            .iter()
            .enumerate()
            .map(|(i, v)| v + 1e-3 * (i as f64 * 0.7).sin())
            .collect();
        let badly: Vec<f64> = badly
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.2 * (i as f64 * 0.7).sin())
            .collect();
        let good = SnrGoal.evaluate(&[(fake_output(x.clone(), slightly), 0)]);
        let bad = SnrGoal.evaluate(&[(fake_output(x, badly), 0)]);
        assert!(good > bad + 20.0, "good {good} vs bad {bad}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn snr_goal_rejects_empty() {
        let _ = SnrGoal.evaluate(&[]);
    }
}
