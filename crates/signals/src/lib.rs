//! # efficsense-signals
//!
//! Synthetic biomedical signal substrate for EffiCSense.
//!
//! The paper evaluates its framework on the Bonn university EEG dataset
//! (500 single-channel records of 23.6 s sampled at 173.61 Hz, labelled
//! seizure vs non-seizure). That dataset cannot be redistributed here, so this
//! crate generates a *Bonn-like* synthetic corpus with the same shape:
//!
//! * **Non-seizure** records: 1/f ("pink") background activity with
//!   amplitude-modulated alpha rhythm (8–12 Hz) and optional artifacts,
//!   ~50 µV peak-to-peak — the spectral profile of scalp EEG.
//! * **Interictal** records: the same background plus sporadic isolated
//!   epileptiform spikes.
//! * **Seizure** records: high-amplitude (several hundred µV) rhythmic
//!   3–4 Hz spike-and-wave complexes riding on the background.
//!
//! The class contrast (amplitude and spectral concentration at low
//! frequencies) is what drives the accuracy-vs-front-end-noise trade-off in
//! the paper's Fig. 7; the synthetic corpus preserves exactly that contrast.
//!
//! All generation is seeded and fully deterministic.
//!
//! ```
//! use efficsense_signals::{DatasetConfig, EegDataset};
//! let cfg = DatasetConfig { records_per_class: 5, ..Default::default() };
//! let ds = EegDataset::generate(&cfg);
//! assert_eq!(ds.records.len(), 15); // 3 classes x 5
//! ```
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod artifact;
pub mod dataset;
pub mod eeg;
pub mod noise;

pub use dataset::{DatasetConfig, EegDataset, Record, BONN_DURATION_S, BONN_SAMPLE_RATE_HZ};
pub use eeg::{EegClass, EegGenerator, EegParams};
