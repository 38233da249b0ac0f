//! # efficsense-blocks
//!
//! Behavioural mixed-signal block library for EffiCSense.
//!
//! Each block pairs a *functional* model (the signal transformation including
//! its analog non-idealities — noise, bandwidth, nonlinearity, clipping,
//! mismatch, leakage) with the corresponding Table II *power* model from
//! [`efficsense_power`]. This is the paper's central idea: the same design
//! parameters drive both signal quality and power, so an architecture sweep
//! evaluates the two simultaneously.
//!
//! Blocks:
//! * [`lna::Lna`] — gain, input-referred noise, single-pole bandwidth,
//!   3rd-order nonlinearity, supply clipping (paper Fig. 3);
//! * [`sampler::Sampler`] — instant sampling off the continuous-time proxy
//!   with kT/C noise and aperture jitter;
//! * [`adc::SarAdc`] — quantisation, comparator noise/offset, capacitive-DAC
//!   mismatch;
//! * [`cs_frontend::ChargeSharingEncoder`] — the passive switched-capacitor
//!   CS encoder of paper Fig. 5, with capacitor mismatch, kT/C noise and
//!   leakage droop;
//! * [`transmitter::Transmitter`] — bit accounting and transmission energy.
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod active_cs;
pub mod adc;
pub mod cs_frontend;
pub mod lc_adc;
pub mod lna;
pub mod sampler;
pub mod transmitter;

pub use active_cs::ActiveCsEncoder;
pub use adc::SarAdc;
pub use cs_frontend::ChargeSharingEncoder;
pub use lna::Lna;
pub use sampler::Sampler;
pub use transmitter::Transmitter;
