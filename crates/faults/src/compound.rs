//! Compound fault plans with time-varying severity.
//!
//! A [`FaultPlan`] is a static snapshot: every fault is parameterised once
//! and stays fixed for the whole record. Long-duration streams need more —
//! a device that runs for months sees its hold caps leak *progressively*,
//! its clock drift *periodically*, and several degradations at once. A
//! [`CompoundPlan`] describes that scenario declaratively: a set of
//! simultaneous [`FaultKind`]s, each with its own [`SeverityProfile`]
//! evaluated against stream time.
//!
//! Two invariants make compound plans reproducible:
//!
//! 1. **Private RNG streams per fault.** Materialised plans inherit the
//!    compound seed, and every block derives its fault stream via
//!    [`FaultPlan::stream`] with a block-specific salt — so adding one
//!    fault to a compound plan never perturbs the realisation of another.
//! 2. **Epoch-grid severity.** Severity is piecewise-constant over epochs
//!    of [`CompoundPlan::update_period_s`] stream seconds. Blocks snap
//!    their parameter updates to epoch boundaries computed from *absolute*
//!    sample indices, so the realisation is invariant to how the stream is
//!    chunked.

use crate::plan::{ClockFault, FaultKind, FaultPlan};

/// How one fault's severity evolves over stream time. All shapes produce a
/// normalised severity in `[0, 1]` (the [`FaultPlan::single`] axis); values
/// outside that range are clamped and non-finite evaluations collapse to 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeverityProfile {
    /// Fixed severity for the whole stream.
    Constant(f64),
    /// Linear aging: ramps from `start` to `end` over the first `ramp_s`
    /// seconds, then holds `end`. A non-positive `ramp_s` holds `end`
    /// from t = 0.
    Linear {
        /// Severity at stream time 0.
        start: f64,
        /// Severity reached at `ramp_s` and held afterwards.
        end: f64,
        /// Ramp duration in stream seconds.
        ramp_s: f64,
    },
    /// Step onset: `before` until `at_s`, `after` from then on.
    Step {
        /// Severity before the onset instant.
        before: f64,
        /// Severity at and after the onset instant.
        after: f64,
        /// Onset instant in stream seconds.
        at_s: f64,
    },
    /// Sinusoidal drift around a base level, e.g. diurnal temperature
    /// cycles modulating leakage. A non-positive `period_s` holds `base`.
    Sinusoid {
        /// Centre severity.
        base: f64,
        /// Peak deviation from `base`.
        amplitude: f64,
        /// Oscillation period in stream seconds.
        period_s: f64,
    },
}

impl SeverityProfile {
    /// Severity at stream time `t_s` seconds, clamped to `[0, 1]`
    /// (non-finite evaluations collapse to 0).
    #[must_use]
    pub fn severity_at(&self, t_s: f64) -> f64 {
        let raw = match *self {
            SeverityProfile::Constant(s) => s,
            SeverityProfile::Linear { start, end, ramp_s } => {
                if ramp_s <= 0.0 {
                    end
                } else {
                    let frac = (t_s / ramp_s).clamp(0.0, 1.0);
                    start + (end - start) * frac
                }
            }
            SeverityProfile::Step {
                before,
                after,
                at_s,
            } => {
                if t_s < at_s {
                    before
                } else {
                    after
                }
            }
            SeverityProfile::Sinusoid {
                base,
                amplitude,
                period_s,
            } => {
                if period_s <= 0.0 {
                    base
                } else {
                    base + amplitude * (std::f64::consts::TAU * t_s / period_s).sin()
                }
            }
        };
        if raw.is_finite() {
            raw.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Upper bound of [`SeverityProfile::severity_at`] over all times —
    /// used to decide whether a fault can ever become active.
    #[must_use]
    pub fn max_severity(&self) -> f64 {
        let raw = match *self {
            SeverityProfile::Constant(s) => s,
            SeverityProfile::Linear { start, end, .. } => start.max(end),
            SeverityProfile::Step { before, after, .. } => before.max(after),
            SeverityProfile::Sinusoid {
                base, amplitude, ..
            } => base + amplitude.abs(),
        };
        if raw.is_finite() {
            raw.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// A set of simultaneous faults, each with its own severity profile,
/// evaluated on a fixed epoch grid in stream time.
///
/// Construction is builder-style and keeps at most one profile per
/// [`FaultKind`], stored in the stable [`FaultKind::ALL`] order so plan
/// equality is independent of insertion order:
///
/// ```
/// use efficsense_faults::{CompoundPlan, FaultKind, SeverityProfile};
/// let plan = CompoundPlan::new(42, 60.0)
///     .with(FaultKind::CapLeakage, SeverityProfile::Linear { start: 0.0, end: 1.0, ramp_s: 3600.0 })
///     .with(FaultKind::PacketLoss, SeverityProfile::Constant(0.3));
/// assert_eq!(plan.label(), "cap_leakage+packet_loss");
/// assert!(!plan.materialize(3600.0).is_clean());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompoundPlan {
    /// Master fault seed, shared by every materialised snapshot so each
    /// block's private stream (derived by salt) is stable over time.
    pub seed: u64,
    /// Epoch length in stream seconds: severities are re-evaluated only at
    /// multiples of this period, making realisations chunk-invariant.
    pub update_period_s: f64,
    faults: Vec<(FaultKind, SeverityProfile)>,
}

impl CompoundPlan {
    /// An empty compound plan (materialises clean everywhere).
    /// `update_period_s` is clamped to a small positive floor.
    #[must_use]
    pub fn new(seed: u64, update_period_s: f64) -> Self {
        let period = if update_period_s.is_finite() && update_period_s > 0.0 {
            update_period_s
        } else {
            1.0
        };
        Self {
            seed,
            update_period_s: period,
            faults: Vec::new(),
        }
    }

    /// Adds (or replaces) the profile for one fault kind. Profiles are kept
    /// in [`FaultKind::ALL`] order regardless of insertion order.
    #[must_use]
    pub fn with(mut self, kind: FaultKind, profile: SeverityProfile) -> Self {
        self.faults.retain(|(k, _)| *k != kind);
        self.faults.push((kind, profile));
        let order = |k: FaultKind| {
            FaultKind::ALL
                .iter()
                .position(|&a| a == k)
                .unwrap_or(usize::MAX)
        };
        self.faults.sort_by_key(|&(k, _)| order(k));
        self
    }

    /// The fault set in stable order.
    #[must_use]
    pub fn faults(&self) -> &[(FaultKind, SeverityProfile)] {
        &self.faults
    }

    /// `true` when no profile can ever reach a positive severity.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults.iter().all(|(_, p)| p.max_severity() <= 0.0)
    }

    /// The epoch index containing stream time `t_s`.
    #[must_use]
    pub fn epoch_index(&self, t_s: f64) -> u64 {
        if !t_s.is_finite() || t_s <= 0.0 {
            return 0;
        }
        let idx = (t_s / self.update_period_s).floor();
        if idx >= u64::MAX as f64 {
            u64::MAX
        } else {
            idx as u64
        }
    }

    /// The stream time at which epoch `epoch` starts.
    #[must_use]
    pub fn epoch_start_s(&self, epoch: u64) -> f64 {
        epoch as f64 * self.update_period_s
    }

    /// Materialises the static [`FaultPlan`] in force during the epoch that
    /// contains `t_s` (severities are evaluated at the epoch start, so every
    /// instant within an epoch sees identical parameters).
    #[must_use]
    pub fn materialize(&self, t_s: f64) -> FaultPlan {
        self.materialize_at_epoch(self.epoch_index(t_s))
    }

    /// Materialises the static [`FaultPlan`] for epoch `epoch`.
    ///
    /// `ClockJitter` and `DroppedSamples` share the chain's single clock
    /// hook; their severities merge into one [`ClockFault`] with each
    /// component taken from its own profile.
    #[must_use]
    pub fn materialize_at_epoch(&self, epoch: u64) -> FaultPlan {
        let t_s = self.epoch_start_s(epoch);
        let mut plan = FaultPlan::clean(self.seed);
        for (kind, profile) in &self.faults {
            let single = FaultPlan::single(*kind, profile.severity_at(t_s), self.seed);
            if let Some(f) = single.lna {
                plan.lna = Some(f);
            }
            if let Some(f) = single.adc {
                plan.adc = Some(f);
            }
            if let Some(f) = single.leakage {
                plan.leakage = Some(f);
            }
            if let Some(c) = single.clock {
                let merged = plan.clock.get_or_insert(ClockFault {
                    jitter_periods: 0.0,
                    drop_prob: 0.0,
                });
                if c.jitter_periods > 0.0 {
                    merged.jitter_periods = c.jitter_periods;
                }
                if c.drop_prob > 0.0 {
                    merged.drop_prob = c.drop_prob;
                }
            }
            if let Some(f) = single.link {
                plan.link = Some(f);
            }
        }
        plan
    }

    /// Short stable label of the member kinds that can become active,
    /// e.g. `cap_leakage+packet_loss`, or `clean`.
    #[must_use]
    pub fn label(&self) -> String {
        let parts: Vec<&str> = self
            .faults
            .iter()
            .filter(|(_, p)| p.max_severity() > 0.0)
            .map(|(k, _)| k.name())
            .collect();
        if parts.is_empty() {
            "clean".to_string()
        } else {
            parts.join("+")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_is_flat_and_clamped() {
        let p = SeverityProfile::Constant(0.4);
        assert_eq!(p.severity_at(0.0), 0.4);
        assert_eq!(p.severity_at(1e9), 0.4);
        assert_eq!(SeverityProfile::Constant(2.0).severity_at(5.0), 1.0);
        assert_eq!(SeverityProfile::Constant(-1.0).severity_at(5.0), 0.0);
        assert_eq!(SeverityProfile::Constant(f64::NAN).severity_at(5.0), 0.0);
    }

    #[test]
    fn linear_ramps_then_holds() {
        let p = SeverityProfile::Linear {
            start: 0.0,
            end: 1.0,
            ramp_s: 100.0,
        };
        assert_eq!(p.severity_at(0.0), 0.0);
        assert!((p.severity_at(50.0) - 0.5).abs() < 1e-12);
        assert_eq!(p.severity_at(100.0), 1.0);
        assert_eq!(p.severity_at(1e6), 1.0);
        // Degenerate ramp holds the end value.
        let deg = SeverityProfile::Linear {
            start: 0.2,
            end: 0.8,
            ramp_s: 0.0,
        };
        assert_eq!(deg.severity_at(0.0), 0.8);
    }

    #[test]
    fn step_switches_at_onset() {
        let p = SeverityProfile::Step {
            before: 0.1,
            after: 0.9,
            at_s: 10.0,
        };
        assert_eq!(p.severity_at(9.999), 0.1);
        assert_eq!(p.severity_at(10.0), 0.9);
    }

    #[test]
    fn sinusoid_oscillates_within_clamp() {
        let p = SeverityProfile::Sinusoid {
            base: 0.5,
            amplitude: 0.5,
            period_s: 4.0,
        };
        assert!((p.severity_at(1.0) - 1.0).abs() < 1e-12);
        assert!(p.severity_at(3.0).abs() < 1e-12);
        assert_eq!(p.max_severity(), 1.0);
    }

    #[test]
    fn materialize_is_piecewise_constant_over_epochs() {
        let plan = CompoundPlan::new(7, 10.0).with(
            FaultKind::CapLeakage,
            SeverityProfile::Linear {
                start: 0.0,
                end: 1.0,
                ramp_s: 100.0,
            },
        );
        // Everywhere inside one epoch the snapshot is identical…
        assert_eq!(plan.materialize(10.0), plan.materialize(19.999));
        // …and successive epochs differ while severity ramps.
        assert_ne!(plan.materialize(10.0), plan.materialize(20.0));
        assert_eq!(plan.epoch_index(19.999), 1);
        assert_eq!(plan.epoch_index(20.0), 2);
        assert_eq!(plan.epoch_index(-5.0), 0);
    }

    #[test]
    fn materialize_merges_clock_kinds() {
        let plan = CompoundPlan::new(1, 1.0)
            .with(FaultKind::ClockJitter, SeverityProfile::Constant(0.4))
            .with(FaultKind::DroppedSamples, SeverityProfile::Constant(0.6));
        let snap = plan.materialize(0.0);
        let clock = snap.clock.expect("merged clock fault");
        assert!((clock.jitter_periods - 0.2).abs() < 1e-12);
        assert!((clock.drop_prob - 0.3).abs() < 1e-12);
        assert_eq!(snap.label(), "clock_jitter+dropped_samples");
    }

    #[test]
    fn compound_inherits_single_mappings_and_private_streams() {
        let compound = CompoundPlan::new(9, 1.0)
            .with(FaultKind::LnaRail, SeverityProfile::Constant(0.5))
            .with(FaultKind::PacketLoss, SeverityProfile::Constant(0.5));
        let snap = compound.materialize(0.0);
        let single = FaultPlan::single(FaultKind::LnaRail, 0.5, 9);
        // The LNA fault parameters and their private stream are unchanged by
        // the co-resident packet-loss fault.
        assert_eq!(snap.lna, single.lna);
        assert_eq!(snap.stream(1), single.stream(1));
    }

    #[test]
    fn builder_order_does_not_change_the_plan() {
        let a = CompoundPlan::new(3, 5.0)
            .with(FaultKind::PacketLoss, SeverityProfile::Constant(0.2))
            .with(FaultKind::LnaRail, SeverityProfile::Constant(0.7));
        let b = CompoundPlan::new(3, 5.0)
            .with(FaultKind::LnaRail, SeverityProfile::Constant(0.7))
            .with(FaultKind::PacketLoss, SeverityProfile::Constant(0.2));
        assert_eq!(a, b);
        // Re-adding a kind replaces its profile.
        let c = a
            .clone()
            .with(FaultKind::LnaRail, SeverityProfile::Constant(0.1));
        assert_eq!(c.faults().len(), 2);
        assert_ne!(a, c);
    }

    #[test]
    fn never_active_plans_collapse_to_clean() {
        let plan = CompoundPlan::new(5, 60.0)
            .with(FaultKind::LnaRail, SeverityProfile::Constant(0.0))
            .with(
                FaultKind::PacketLoss,
                SeverityProfile::Linear {
                    start: 0.0,
                    end: 0.0,
                    ramp_s: 10.0,
                },
            );
        assert!(plan.is_clean());
        assert_eq!(plan.label(), "clean");
        assert!(plan.materialize(1e6).is_clean());
    }

    #[test]
    fn degenerate_update_period_is_clamped() {
        let plan = CompoundPlan::new(0, 0.0);
        assert!(plan.update_period_s > 0.0);
        let nan = CompoundPlan::new(0, f64::NAN);
        assert!(nan.update_period_s > 0.0);
    }
}
