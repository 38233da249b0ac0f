//! # efficsense-dsp
//!
//! Digital signal processing substrate for the EffiCSense architectural
//! pathfinding framework.
//!
//! This crate provides the numerical machinery every other EffiCSense crate
//! builds on: an FFT, window functions, spectral estimation (periodogram and
//! Welch PSD, band power), IIR filtering with Butterworth design,
//! resampling, signal-quality metrics (SNR, SNDR, THD, ENOB) and descriptive
//! statistics.
//!
//! Everything is implemented from scratch on `f64` slices; no external
//! numerical dependencies are used.
//!
//! ## Example
//!
//! ```
//! use efficsense_dsp::{metrics::sndr_db, spectrum::sine};
//!
//! // 1 V amplitude, 100 Hz sine sampled at 4096 Hz for 1 s.
//! let x = sine(4096, 4096.0, 100.0, 1.0, 0.0);
//! let s = sndr_db(&x, 4096.0, 100.0);
//! assert!(s > 100.0, "a clean sine has very high SNDR, got {s}");
//! ```
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod approx;
pub mod complex;
pub mod fft;
pub mod filter;
pub mod metrics;
pub mod resample;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use complex::Complex;
pub use fft::Fft;
