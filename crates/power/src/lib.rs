//! # efficsense-power
//!
//! Analytical power and area models for mixed-signal sensor front-ends —
//! the EffiCSense model library of Table II, parameterised by the extracted
//! technology and design parameters of Table III (Van Assche et al.,
//! DATE 2022).
//!
//! Each circuit block gets a closed-form *power-bound* model: a first-order
//! estimate of its consumption as a function of the same design variables
//! that drive its behavioural model, so a parameter sweep evaluates signal
//! quality and power simultaneously.
//!
//! ```
//! use efficsense_power::{DesignParams, TechnologyParams, Watts, models::{LnaModel, PowerModel}};
//! let tech = TechnologyParams::gpdk045();
//! let design = DesignParams::paper_defaults(8);
//! let lna = LnaModel { noise_floor_vrms: 2e-6, c_load_f: 1e-12, gain: 1000.0 };
//! let p = lna.power(&tech, &design);
//! assert!(p > Watts(0.0) && p < Watts::milli(1.0), "LNA power {p} is in the µW regime");
//! ```
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod area;
pub mod breakdown;
pub mod design;
pub mod models;
pub mod ota;
pub mod tech;
pub mod units;

pub use area::AreaModel;
pub use breakdown::{BlockKind, PowerBreakdown};
pub use design::DesignParams;
pub use models::PowerModel;
pub use tech::TechnologyParams;
pub use units::{Amperes, Farads, Hertz, Joules, Volts, Watts};

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;
/// Nominal absolute temperature (K) for all kT terms — 300 K as in the
/// power-bound literature the paper cites.
pub const TEMPERATURE_K: f64 = 300.0;

/// `kT` at the nominal temperature, in joules.
pub const fn kt() -> f64 {
    BOLTZMANN * TEMPERATURE_K
}
