//! The seizure-detection goal function (paper Step 5, accuracy metric).
//!
//! The detector is trained once on the clean dataset (as the paper trains its
//! network on the Bonn corpus) and then applied to front-end outputs: any
//! noise, distortion, quantisation or reconstruction error the architecture
//! introduces shifts the features away from the training distribution and
//! costs accuracy — which is precisely the signal-quality metric the
//! pathfinding loop optimises against power.

use efficsense_ml::features::FeatureExtractor;
use efficsense_ml::metrics::Confusion;
use efficsense_ml::mlp::MlpClassifier;
use efficsense_ml::{Scaler, TrainConfig};
use efficsense_rng::Rng64;
use efficsense_signals::EegDataset;

/// A trained seizure detector (features → scaler → MLP).
#[derive(Debug, Clone)]
pub struct SeizureDetector {
    extractor: FeatureExtractor,
    scaler: Scaler,
    classifier: MlpClassifier,
    /// Sample rate the detector was trained at (Hz).
    pub train_fs: f64,
    /// Decision window in seconds (positive).
    pub epoch_s: f64,
}

impl SeizureDetector {
    /// Trains an *epoched* detector: signals are split into `epoch_s`-second
    /// windows and each window is classified independently (the windowed-
    /// segment scheme of the deep-learning EEG literature, including the
    /// paper's reference detector). Epoch-level decisions are far more
    /// sensitive to front-end quality than whole-record decisions — a 23.6 s
    /// record averages noise out of the features; a 2 s window does not —
    /// and give the accuracy metric a fine-grained scale.
    ///
    /// Training uses *pipeline-aware* augmentation: besides the clean
    /// record, each training example contributes a band-limited variant, a
    /// small-additive-noise variant, and ideally CS-reconstructed variants
    /// (noiseless charge-sharing encode + OMP decode at two compression
    /// ratios). This is the standard robustness recipe for a detector that
    /// will run on acquired (rather than pristine) signals — without it any
    /// front-end imperfection is out-of-distribution and accuracy collapses
    /// instead of degrading smoothly with signal quality.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `epoch_s <= 0`.
    pub fn train_epoched(dataset: &EegDataset, target_fs: f64, epoch_s: f64, seed: u64) -> Self {
        assert!(epoch_s > 0.0, "epoch length must be positive");
        assert!(
            !dataset.is_empty(),
            "cannot train a detector on an empty dataset"
        );
        let extractor = FeatureExtractor::default();
        let mut x = Vec::with_capacity(dataset.len() * 8);
        let mut y = Vec::with_capacity(dataset.len() * 8);
        let mut rng = Rng64::new(seed ^ 0xA06);
        let lp = efficsense_dsp::filter::IirFilter::butterworth_lowpass(4, 45.0, target_fs);
        // Ideal CS encode/decode pipelines (the compression artifact
        // teachers): strong and weak compression, nominal capacitors, no
        // noise/mismatch/leakage.
        let base_cfg = crate::config::CsConfig::default();
        let make_pipeline = |m: usize| {
            let cfg = crate::config::CsConfig {
                m,
                ..base_cfg.clone()
            };
            let phi =
                efficsense_cs::matrix::SensingMatrix::srbm(cfg.m, cfg.n_phi, cfg.s, 0x7EAC_4E11);
            let eff =
                efficsense_cs::charge_sharing::effective_matrix(&phi, cfg.c_sample_f, cfg.c_hold_f);
            let art = efficsense_cs::memo::DictionaryArtifacts::new(&eff, cfg.basis);
            let omp = efficsense_cs::recon::OmpConfig {
                sparsity: 2 * cfg.m / 5,
                residual_tol: 1e-4,
            };
            (cfg, eff, art, omp)
        };
        let pipelines: Vec<_> = [75usize, 150].iter().map(|&m| make_pipeline(m)).collect();
        let cs_recon = |clean: &[f64],
                        p: &(
            crate::config::CsConfig,
            efficsense_cs::Matrix,
            efficsense_cs::memo::DictionaryArtifacts,
            efficsense_cs::recon::OmpConfig,
        )|
         -> Vec<f64> {
            let (cfg, eff, art, omp) = p;
            let frames: Vec<Vec<f64>> = clean
                .chunks_exact(cfg.n_phi)
                .map(|frame| eff.matvec(frame))
                .collect();
            let cfgs = vec![omp.clone(); frames.len()];
            let mut out = Vec::with_capacity(clean.len());
            for xh in efficsense_cs::decode::reconstruct_batch(art, &frames, &cfgs, 1) {
                out.extend(xh);
            }
            out
        };
        for r in &dataset.records {
            let resampled = r.resampled(target_fs);
            let clean = &resampled.samples;
            // Band-limited variant: sparse low-frequency acquisition.
            let banded = lp.filtfilt(clean);
            let mut variants: Vec<Vec<f64>> = vec![clean.clone(), banded.clone()];
            // Small-noise variant (1 µV input-referred) — enough to teach
            // tolerance of a *quiet* front-end without washing out the
            // noise sensitivity that drives the Fig. 7 trade-off.
            variants.push(clean.iter().map(|v| v + rng.normal() * 1e-6).collect());
            // CS-pipeline variants: reconstruction artifacts at strong and
            // weak compression, clean and with a little noise.
            for p in &pipelines {
                let recon = cs_recon(clean, p);
                if !recon.is_empty() {
                    let recon_noisy: Vec<f64> =
                        recon.iter().map(|v| v + rng.normal() * 2e-6).collect();
                    variants.push(recon);
                    variants.push(recon_noisy);
                }
            }
            let epoch_len = ((epoch_s * target_fs) as usize).max(8);
            for v in variants {
                if v.len() <= epoch_len {
                    x.push(extractor.extract(&v, target_fs));
                    y.push(r.label());
                } else {
                    for w in v.chunks_exact(epoch_len) {
                        x.push(extractor.extract(w, target_fs));
                        y.push(r.label());
                    }
                }
            }
        }
        let scaler = Scaler::fit(&x);
        let xs = scaler.transform_batch(&x);
        let mut classifier = MlpClassifier::new(xs[0].len(), &[16], 2, seed);
        classifier.fit(
            &xs,
            &y,
            &TrainConfig {
                epochs: 60,
                learning_rate: 5e-3,
                batch_size: 32,
                weight_decay: 1e-4,
            },
        );
        Self {
            extractor,
            scaler,
            classifier,
            train_fs: target_fs,
            epoch_s,
        }
    }

    /// Splits a signal into this detector's decision windows (the whole
    /// signal when it is too short for one window).
    fn windows<'a>(&self, signal: &'a [f64], fs: f64) -> Vec<&'a [f64]> {
        let n = ((self.epoch_s * fs) as usize).max(8);
        if signal.len() <= n {
            vec![signal]
        } else {
            signal.chunks_exact(n).collect()
        }
    }

    /// Classifies one signal (`1` = seizure). The signal's windows vote by
    /// majority (ties → seizure).
    pub fn predict(&self, signal: &[f64], fs: f64) -> usize {
        let wins = self.windows(signal, fs);
        let votes: usize = wins.iter().map(|w| self.predict_window(w, fs)).sum();
        usize::from(2 * votes >= wins.len())
    }

    /// Classifies one decision window directly.
    pub fn predict_window(&self, window: &[f64], fs: f64) -> usize {
        let f = self.extractor.extract(window, fs);
        self.classifier.predict(&self.scaler.transform(&f))
    }

    /// Seizure probability of one signal (mean over decision windows).
    pub fn probability(&self, signal: &[f64], fs: f64) -> f64 {
        let wins = self.windows(signal, fs);
        let total: f64 = wins
            .iter()
            .map(|w| {
                let f = self.extractor.extract(w, fs);
                self.classifier.predict_proba(&self.scaler.transform(&f))[1]
            })
            .sum();
        total / wins.len() as f64
    }

    /// Accuracy over `(signal, label)` pairs at rate `fs`.
    ///
    /// Every window of every signal is one decision (the paper-style
    /// per-segment accuracy).
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty.
    pub fn accuracy(&self, outputs: &[(impl AsRef<[f64]>, usize)], fs: f64) -> f64 {
        self.confusion(outputs, fs).accuracy()
    }

    /// Full confusion matrix over `(signal, label)` pairs, at window
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty.
    pub fn confusion(&self, outputs: &[(impl AsRef<[f64]>, usize)], fs: f64) -> Confusion {
        assert!(!outputs.is_empty(), "cannot score an empty evaluation set");
        let mut truth = Vec::new();
        let mut preds = Vec::new();
        for (s, label) in outputs {
            for w in self.windows(s.as_ref(), fs) {
                truth.push(*label);
                preds.push(self.predict_window(w, fs));
            }
        }
        Confusion::from_labels(&truth, &preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_signals::DatasetConfig;

    fn small_dataset() -> EegDataset {
        EegDataset::generate(&DatasetConfig {
            records_per_class: 8,
            duration_s: 6.0,
            ..Default::default()
        })
    }

    /// Every record of `ds`, clean and resampled to 537.6 Hz, with its label.
    fn clean(ds: &EegDataset) -> Vec<(Vec<f64>, usize)> {
        ds.records
            .iter()
            .map(|r| (r.resampled(537.6).samples, r.label()))
            .collect()
    }

    #[test]
    fn detector_nails_clean_data() {
        let ds = small_dataset();
        let det = SeizureDetector::train_epoched(&ds, 537.6, 2.0, 1);
        let acc = det.accuracy(&clean(&ds), 537.6);
        assert!(acc >= 0.95, "clean accuracy {acc}");
    }

    #[test]
    fn detector_generalises_to_held_out_records() {
        let train = EegDataset::generate(&DatasetConfig {
            records_per_class: 10,
            duration_s: 6.0,
            seed: 1,
            ..Default::default()
        });
        let test = EegDataset::generate(&DatasetConfig {
            records_per_class: 6,
            duration_s: 6.0,
            seed: 2,
            ..Default::default()
        });
        let det = SeizureDetector::train_epoched(&train, 537.6, 2.0, 1);
        let acc = det.accuracy(&clean(&test), 537.6);
        assert!(acc >= 0.9, "held-out accuracy {acc}");
    }

    #[test]
    fn heavy_noise_costs_accuracy() {
        let ds = small_dataset();
        let det = SeizureDetector::train_epoched(&ds, 537.6, 2.0, 1);
        let mut rng = Rng64::new(9);
        // Massive white noise (200 µV) swamps every feature.
        let outputs: Vec<(Vec<f64>, usize)> = ds
            .records
            .iter()
            .map(|r| {
                let s = r.resampled(537.6);
                let noisy: Vec<f64> = s
                    .samples
                    .iter()
                    .map(|v| v + rng.normal() * 200e-6)
                    .collect();
                (noisy, r.label())
            })
            .collect();
        let noisy_acc = det.accuracy(&outputs, 537.6);
        let clean_acc = det.accuracy(&clean(&ds), 537.6);
        assert!(
            noisy_acc < clean_acc - 0.05,
            "noise must cost accuracy: clean {clean_acc}, noisy {noisy_acc}"
        );
    }

    #[test]
    fn probability_in_unit_interval() {
        let ds = small_dataset();
        let det = SeizureDetector::train_epoched(&ds, 537.6, 2.0, 3);
        let r = ds.records[0].resampled(537.6);
        let p = det.probability(&r.samples, 537.6);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn confusion_consistent_with_accuracy() {
        let ds = small_dataset();
        let det = SeizureDetector::train_epoched(&ds, 537.6, 2.0, 5);
        let outputs = clean(&ds);
        let acc = det.accuracy(&outputs, 537.6);
        let conf = det.confusion(&outputs, 537.6);
        assert!((conf.accuracy() - acc).abs() < 1e-12);
    }

    #[test]
    fn training_is_deterministic() {
        let ds = small_dataset();
        let a = SeizureDetector::train_epoched(&ds, 537.6, 2.0, 7);
        let b = SeizureDetector::train_epoched(&ds, 537.6, 2.0, 7);
        let r = ds.records[3].resampled(537.6);
        assert_eq!(
            a.probability(&r.samples, 537.6),
            b.probability(&r.samples, 537.6)
        );
    }

    #[test]
    fn epoched_detector_scores_per_window() {
        let ds = small_dataset(); // 6 s records → 3 windows of 2 s
        let det = SeizureDetector::train_epoched(&ds, 537.6, 2.0, 1);
        assert_eq!(det.epoch_s, 2.0);
        let outputs = clean(&ds);
        let conf = det.confusion(&outputs, 537.6);
        let decisions = conf.tp + conf.tn + conf.fp + conf.fn_;
        let win = (2.0 * 537.6) as usize;
        let expected: usize = outputs.iter().map(|(s, _)| (s.len() / win).max(1)).sum();
        assert_eq!(decisions, expected, "one decision per full 2-s window");
        assert!(
            decisions > ds.len(),
            "epoching must multiply the decision count"
        );
        assert!(
            conf.accuracy() > 0.9,
            "clean epoched accuracy {}",
            conf.accuracy()
        );
    }

    #[test]
    fn window_vote_matches_window_majority() {
        let ds = small_dataset();
        let det = SeizureDetector::train_epoched(&ds, 537.6, 2.0, 3);
        let r = ds.records[0].resampled(537.6);
        let n = (2.0 * 537.6) as usize;
        let votes: usize = r
            .samples
            .chunks_exact(n)
            .map(|w| det.predict_window(w, 537.6))
            .sum();
        let wins = r.samples.chunks_exact(n).count();
        assert_eq!(
            det.predict(&r.samples, 537.6),
            usize::from(2 * votes >= wins)
        );
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn epoched_rejects_zero_window() {
        let ds = small_dataset();
        let _ = SeizureDetector::train_epoched(&ds, 537.6, 0.0, 1);
    }
}
