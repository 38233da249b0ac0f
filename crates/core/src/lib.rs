//! # efficsense-core
//!
//! The EffiCSense architectural pathfinding framework (Van Assche et al.,
//! DATE 2022), reimplemented in Rust.
//!
//! EffiCSense couples behavioural mixed-signal models with analytical power
//! models so that a single design-space sweep evaluates signal quality and
//! power consumption simultaneously. This crate assembles the block library
//! of [`efficsense_blocks`] into complete acquisition systems and drives the
//! paper's five-step flow:
//!
//! 1. **Derive high-level model** — [`config::SystemConfig`] describes either
//!    the classical chain (LNA → S/H → SAR ADC → TX) or the passive
//!    charge-sharing compressive-sensing chain (LNA → CS encoder → SAR ADC →
//!    TX), and [`simulate::Simulator`] executes it sample by sample.
//! 2. **Derive power models** — every simulation returns a
//!    [`efficsense_power::PowerBreakdown`] from the Table II models.
//! 3. **Extract technology parameters** — [`efficsense_power::TechnologyParams`].
//! 4. **Insert real sensor data** — [`efficsense_signals::EegDataset`].
//! 5. **Choose goal function** — [`goal::GoalFunction`]: SNR or
//!    seizure-detection accuracy, then sweep with [`sweep::Sweep`] and pick
//!    optima with [`pareto`].
//!
//! ```no_run
//! use efficsense_core::prelude::*;
//!
//! let dataset = EegDataset::generate(&DatasetConfig::default());
//! let space = DesignSpace::paper_defaults();
//! let sweep = Sweep::new(SweepConfig::default());
//! let results = sweep.run(&space, &dataset);
//! let front = pareto_front(&results);
//! for r in front {
//!     println!("{:?} {} µW metric {:.3}", r.point.architecture, r.power_w * 1e6, r.metric);
//! }
//! ```
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod config;
pub mod detector;
pub mod goal;
pub mod pareto;
pub mod prefix;
pub mod report;
pub mod simulate;
pub mod space;
pub mod stream;
pub mod sweep;

/// Convenience re-exports for framework users.
pub mod prelude {
    pub use crate::cache::{CacheStats, EvalContext, PointKey, SweepCache};
    pub use crate::config::{
        AdcConfig, Architecture, ConfigError, CsConfig, LnaConfig, SystemConfig,
    };
    pub use crate::detector::SeizureDetector;
    pub use crate::goal::GoalFunction;
    pub use crate::pareto::pareto_front;
    pub use crate::prefix::{PrefixBudgets, PrefixStats, PrefixStore};
    pub use crate::simulate::{SimOutput, Simulator};
    pub use crate::space::{DesignPoint, DesignSpace};
    pub use crate::stream::{StreamChunk, StreamSimulator, StreamSummary};
    pub use crate::sweep::{
        FailurePolicy, PointError, QuarantinedPoint, Sweep, SweepConfig, SweepReport, SweepResult,
    };
    pub use efficsense_faults::{CompoundPlan, FaultKind, FaultPlan, SeverityProfile};
    pub use efficsense_power::{BlockKind, DesignParams, PowerBreakdown, TechnologyParams};
    pub use efficsense_signals::{DatasetConfig, EegDataset, Record};
}

pub use config::{Architecture, SystemConfig};
pub use simulate::Simulator;
