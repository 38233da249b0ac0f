//! # efficsense-blocks
//!
//! Behavioural mixed-signal block library for EffiCSense.
//!
//! Each block is a *functional* model (the signal transformation including
//! its analog non-idealities — noise, bandwidth, nonlinearity, clipping,
//! mismatch, leakage) whose design variables also set the corresponding
//! Table II *power* model from [`efficsense_power`]. This is the paper's
//! central idea: the same design parameters drive both signal quality and
//! power, so an architecture sweep evaluates the two simultaneously.
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
//! * [`transmitter::Transmitter`] — word rate and transmission power.
//!
//! The per-sample blocks run as slice kernels. Each block owns a private
//! noise stream and draws from it a block at a time into a stack array of
//! 512 values (4 KiB), all of which the kernel consumes before it returns:
//! a kernel call reads the stream in exactly the order the per-sample
//! model would, so its output is the same bit for bit.
#![deny(missing_docs)]
#![deny(unsafe_code)]

/// Noise draws per block of a kernel's stack array (4 KiB of `f64`).
const NOISE_BLOCK: usize = 512;

pub mod active_cs;
pub mod adc;
pub mod cs_frontend;
pub mod lna;
pub mod sampler;
pub mod transmitter;

pub use active_cs::ActiveCsEncoder;
pub use adc::SarAdc;
pub use cs_frontend::ChargeSharingEncoder;
pub use lna::Lna;
pub use sampler::HoldState;
pub use sampler::Sampler;
pub use transmitter::Transmitter;
