//! # efficsense-ml
//!
//! From-scratch machine-learning substrate for the EffiCSense detection goal
//! function.
//!
//! The paper scores front-end designs by *seizure detection accuracy*, using
//! the deep network of Ullah et al. as the detector. That model (and its
//! training corpus) is not available, so this crate provides an equivalent
//! goal-function detector: spectral/temporal EEG feature extraction feeding a
//! small multi-layer perceptron trained with Adam. What matters for the
//! framework is that detection accuracy is ≥ 98 % on clean signals and
//! degrades as front-end noise, quantisation and CS reconstruction error
//! corrupt the features — exactly the property this detector has.
//!
//! Everything is implemented on plain `Vec<f64>` with seeded determinism.
//!
//! ```
//! use efficsense_ml::{mlp::MlpClassifier, TrainConfig};
//! // Tiny XOR-ish toy problem.
//! let x = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
//! let y = vec![0, 1, 1, 0];
//! let mut mlp = MlpClassifier::new(2, &[8], 2, 7);
//! mlp.fit(&x, &y, &TrainConfig { epochs: 2000, ..Default::default() });
//! let acc = efficsense_ml::metrics::accuracy(&y, &x.iter().map(|v| mlp.predict(v)).collect::<Vec<_>>());
//! assert!(acc > 0.99);
//! ```
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod features;
pub mod metrics;
pub mod mlp;
pub mod scaler;

pub use features::FeatureExtractor;
pub use scaler::Scaler;

/// Training hyperparameters of [`mlp::MlpClassifier`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Full passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            learning_rate: 1e-2,
            batch_size: 32,
            weight_decay: 1e-4,
        }
    }
}
