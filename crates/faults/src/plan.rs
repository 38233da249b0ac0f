//! The fault taxonomy and the severity → physical-parameter mapping.

use crate::link::LinkFault;
use efficsense_rng::{mix64, GOLDEN_GAMMA};

/// The fault kinds the chain can be subjected to, one per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// LNA saturation: the output intermittently sticks to a (sagging)
    /// supply rail.
    LnaRail,
    /// One output bit of the SAR ADC stuck high (missing codes appear).
    AdcStuckBit,
    /// Runaway hold-capacitor leakage: held charge droops much faster than
    /// the decoder's leakage-aware model assumes.
    CapLeakage,
    /// Sample-clock aperture jitter.
    ClockJitter,
    /// Sample-clock dropouts: conversions lost, last value held.
    DroppedSamples,
    /// Radio packet loss with bounded retransmission.
    PacketLoss,
}

impl FaultKind {
    /// Every fault kind, in a stable order (used by degradation sweeps).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::LnaRail,
        FaultKind::AdcStuckBit,
        FaultKind::CapLeakage,
        FaultKind::ClockJitter,
        FaultKind::DroppedSamples,
        FaultKind::PacketLoss,
    ];

    /// Short stable name for CSV columns and labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LnaRail => "lna_rail",
            FaultKind::AdcStuckBit => "adc_stuck_bit",
            FaultKind::CapLeakage => "cap_leakage",
            FaultKind::ClockJitter => "clock_jitter",
            FaultKind::DroppedSamples => "dropped_samples",
            FaultKind::PacketLoss => "packet_loss",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// LNA railing fault: per-sample, with probability `rail_prob`, the output
/// latches to the positive rail for `episode_len` continuous-time samples;
/// the rail itself sags to `v_clip_factor · V_clip`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LnaRailFault {
    /// Probability per continuous-time sample of starting a rail episode.
    pub rail_prob: f64,
    /// Episode length in continuous-time samples.
    pub episode_len: usize,
    /// Clip-level derating in `(0, 1]` (1 = nominal rails).
    pub v_clip_factor: f64,
}

impl LnaRailFault {
    /// `true` when the fault has no effect on the signal path.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        (self.rail_prob <= 0.0 || self.episode_len == 0) && self.v_clip_factor >= 1.0
    }
}

/// One SAR output bit stuck at a fixed level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdcStuckBitFault {
    /// Stuck bit index, LSB = 0. Clamped to `n_bits − 1` by the converter.
    pub bit: u32,
    /// `true`: stuck high; `false`: stuck low.
    pub stuck_high: bool,
}

/// Hold-capacitor leakage inflated beyond the technology figure the
/// decoder's droop model was built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapLeakageFault {
    /// Multiplier on the technology leakage current (≥ 1; 1 = nominal).
    pub leak_multiplier: f64,
}

impl CapLeakageFault {
    /// `true` when the fault has no effect on the signal path.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.leak_multiplier <= 1.0
    }
}

/// Sample-clock faults: aperture jitter and dropped conversions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockFault {
    /// RMS aperture jitter in sample periods (converted to seconds by the
    /// block that owns the clock).
    pub jitter_periods: f64,
    /// Probability that a conversion is dropped (the previous output value
    /// is held in its place).
    pub drop_prob: f64,
}

impl ClockFault {
    /// `true` when the fault has no effect on the signal path.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.jitter_periods <= 0.0 && self.drop_prob <= 0.0
    }
}

/// A deterministic, seeded description of every fault injected into one
/// simulation. `None` fields leave the corresponding block clean.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Master fault seed; per-block streams derive from it via
    /// [`FaultPlan::stream`].
    pub seed: u64,
    /// LNA railing fault.
    pub lna: Option<LnaRailFault>,
    /// ADC stuck-bit fault.
    pub adc: Option<AdcStuckBitFault>,
    /// Charge-sharing hold-cap leakage fault (CS architecture only).
    pub leakage: Option<CapLeakageFault>,
    /// Sample-clock jitter / dropout fault.
    pub clock: Option<ClockFault>,
    /// Transmitter packet-loss fault.
    pub link: Option<LinkFault>,
}

impl FaultPlan {
    /// A plan with no faults (bit-identical to passing no plan at all).
    #[must_use]
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// A plan with exactly one fault kind at normalised `severity ∈ [0, 1]`.
    ///
    /// Severity 0 (or below) returns a clean plan; severity is clamped at 1.
    /// The mapping onto physical parameters is calibrated against the
    /// paper-default design point (Table III) so that 1 is destructive:
    ///
    /// | kind             | severity → parameter                                  |
    /// |------------------|-------------------------------------------------------|
    /// | `LnaRail`        | episode prob `0.01·sev`, 64-sample episodes, rails sag to `1 − 0.5·sev` |
    /// | `AdcStuckBit`    | stuck-high bit `round(7·sev)` (LSB → MSB)             |
    /// | `CapLeakage`     | leakage × `10^(2·sev)`                                |
    /// | `ClockJitter`    | aperture jitter `0.5·sev` sample periods              |
    /// | `DroppedSamples` | drop probability `0.5·sev`                            |
    /// | `PacketLoss`     | packet loss prob `0.9·sev`, 2 retries, 16-word packets |
    #[must_use]
    pub fn single(kind: FaultKind, severity: f64, seed: u64) -> Self {
        let mut plan = Self::clean(seed);
        // NaN and non-positive severities both mean "clean".
        if severity.is_nan() || severity <= 0.0 {
            return plan;
        }
        let sev = severity.min(1.0);
        match kind {
            FaultKind::LnaRail => {
                plan.lna = Some(LnaRailFault {
                    rail_prob: 0.01 * sev,
                    episode_len: 64,
                    v_clip_factor: 1.0 - 0.5 * sev,
                });
            }
            FaultKind::AdcStuckBit => {
                plan.adc = Some(AdcStuckBitFault {
                    bit: (7.0 * sev).round() as u32,
                    stuck_high: true,
                });
            }
            FaultKind::CapLeakage => {
                plan.leakage = Some(CapLeakageFault {
                    leak_multiplier: 10f64.powf(2.0 * sev),
                });
            }
            FaultKind::ClockJitter => {
                plan.clock = Some(ClockFault {
                    jitter_periods: 0.5 * sev,
                    drop_prob: 0.0,
                });
            }
            FaultKind::DroppedSamples => {
                plan.clock = Some(ClockFault {
                    jitter_periods: 0.0,
                    drop_prob: 0.5 * sev,
                });
            }
            FaultKind::PacketLoss => {
                plan.link = Some(LinkFault {
                    loss_prob: 0.9 * sev,
                    max_retries: 2,
                    packet_words: 16,
                });
            }
        }
        plan
    }

    /// `true` when the plan perturbs nothing — every hook is `None` or a
    /// zero-effect parameterisation. Clean plans must leave the simulation
    /// bit-identical to running without a plan.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.lna.as_ref().is_none_or(LnaRailFault::is_noop)
            && self.adc.is_none()
            && self.leakage.as_ref().is_none_or(CapLeakageFault::is_noop)
            && self.clock.as_ref().is_none_or(ClockFault::is_noop)
            && self.link.as_ref().is_none_or(LinkFault::is_noop)
    }

    /// Derived seed for one block's private fault stream. `salt` separates
    /// blocks; mix in a record seed for per-record decorrelation.
    #[must_use]
    pub fn stream(&self, salt: u64) -> u64 {
        // SplitMix64 finalising mix so neighbouring salts decorrelate.
        mix64(self.seed.wrapping_add(salt.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Canonical content-addressing form for evaluation caches.
    ///
    /// Clean plans are bit-identical to running with no plan at all (the
    /// simulator drops them), so *every* clean plan — whatever its seed or
    /// noop parameterisation — canonicalises to `"clean"`. Active plans
    /// encode compound membership explicitly: each *active* (non-noop)
    /// fault renders its kind name and full parameter set in shortest
    /// round-trip float form, plus the seed (the seed picks the fault
    /// realisation and therefore the result). Noop members are omitted —
    /// they cannot perturb the simulation, so `Some(noop)` and `None`
    /// must share a key.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        if self.is_clean() {
            return "clean".to_string();
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(f) = self.lna.filter(|f| !f.is_noop()) {
            parts.push(format!(
                "{}{{rail_prob={:?},episode_len={},v_clip_factor={:?}}}",
                FaultKind::LnaRail.name(),
                f.rail_prob,
                f.episode_len,
                f.v_clip_factor
            ));
        }
        if let Some(f) = self.adc {
            parts.push(format!(
                "{}{{bit={},stuck_high={}}}",
                FaultKind::AdcStuckBit.name(),
                f.bit,
                f.stuck_high
            ));
        }
        if let Some(f) = self.leakage.filter(|f| !f.is_noop()) {
            parts.push(format!(
                "{}{{leak_multiplier={:?}}}",
                FaultKind::CapLeakage.name(),
                f.leak_multiplier
            ));
        }
        if let Some(c) = self.clock.filter(|c| !c.is_noop()) {
            parts.push(format!(
                "clock{{jitter_periods={:?},drop_prob={:?}}}",
                c.jitter_periods, c.drop_prob
            ));
        }
        if let Some(l) = self.link.filter(|l| !l.is_noop()) {
            parts.push(format!(
                "{}{{loss_prob={:?},max_retries={},packet_words={}}}",
                FaultKind::PacketLoss.name(),
                l.loss_prob,
                l.max_retries,
                l.packet_words
            ));
        }
        format!("plan;seed={};{}", self.seed, parts.join(";"))
    }

    /// Short stable label of the active fault kinds, e.g.
    /// `lna_rail+packet_loss`, or `clean`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.lna.as_ref().is_some_and(|f| !f.is_noop()) {
            parts.push(FaultKind::LnaRail.name());
        }
        if self.adc.is_some() {
            parts.push(FaultKind::AdcStuckBit.name());
        }
        if self.leakage.as_ref().is_some_and(|f| !f.is_noop()) {
            parts.push(FaultKind::CapLeakage.name());
        }
        if let Some(c) = &self.clock {
            if c.jitter_periods > 0.0 {
                parts.push(FaultKind::ClockJitter.name());
            }
            if c.drop_prob > 0.0 {
                parts.push(FaultKind::DroppedSamples.name());
            }
        }
        if self.link.as_ref().is_some_and(|f| !f.is_noop()) {
            parts.push(FaultKind::PacketLoss.name());
        }
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
    fn zero_severity_is_clean_for_every_kind() {
        for kind in FaultKind::ALL {
            let plan = FaultPlan::single(kind, 0.0, 7);
            assert!(plan.is_clean(), "{kind} at severity 0 must be clean");
            assert_eq!(plan, FaultPlan::clean(7));
            assert_eq!(plan.label(), "clean");
        }
    }

    #[test]
    fn nan_severity_is_clean() {
        assert!(FaultPlan::single(FaultKind::LnaRail, f64::NAN, 0).is_clean());
        assert!(FaultPlan::single(FaultKind::LnaRail, -0.5, 0).is_clean());
    }

    #[test]
    fn positive_severity_activates_exactly_one_kind() {
        for kind in FaultKind::ALL {
            let plan = FaultPlan::single(kind, 0.5, 7);
            assert!(!plan.is_clean(), "{kind} at severity 0.5 must be active");
            assert_eq!(plan.label(), kind.name());
        }
    }

    #[test]
    fn severity_is_clamped_at_one() {
        let p1 = FaultPlan::single(FaultKind::PacketLoss, 1.0, 0);
        let p2 = FaultPlan::single(FaultKind::PacketLoss, 3.0, 0);
        assert_eq!(p1, p2);
    }

    #[test]
    fn severity_mappings_are_monotone() {
        let sevs = [0.1, 0.4, 0.7, 1.0];
        let rail: Vec<f64> = sevs
            .iter()
            .map(|&s| {
                FaultPlan::single(FaultKind::LnaRail, s, 0)
                    .lna
                    .unwrap()
                    .rail_prob
            })
            .collect();
        let leak: Vec<f64> = sevs
            .iter()
            .map(|&s| {
                FaultPlan::single(FaultKind::CapLeakage, s, 0)
                    .leakage
                    .unwrap()
                    .leak_multiplier
            })
            .collect();
        let loss: Vec<f64> = sevs
            .iter()
            .map(|&s| {
                FaultPlan::single(FaultKind::PacketLoss, s, 0)
                    .link
                    .unwrap()
                    .loss_prob
            })
            .collect();
        for series in [rail, leak, loss] {
            for w in series.windows(2) {
                assert!(w[1] > w[0], "severity mapping must increase: {series:?}");
            }
        }
    }

    #[test]
    fn stuck_bit_moves_from_lsb_to_msb() {
        let lo = FaultPlan::single(FaultKind::AdcStuckBit, 0.05, 0)
            .adc
            .unwrap();
        let hi = FaultPlan::single(FaultKind::AdcStuckBit, 1.0, 0)
            .adc
            .unwrap();
        assert_eq!(lo.bit, 0);
        assert_eq!(hi.bit, 7);
    }

    #[test]
    fn streams_differ_by_salt_and_seed() {
        let plan = FaultPlan::clean(123);
        assert_ne!(plan.stream(1), plan.stream(2));
        assert_ne!(plan.stream(1), FaultPlan::clean(124).stream(1));
        assert_eq!(plan.stream(5), FaultPlan::clean(123).stream(5));
    }

    #[test]
    fn canonical_key_collapses_clean_plans_and_separates_active_ones() {
        // Clean plans canonicalise identically regardless of seed or noop
        // parameterisation.
        assert_eq!(FaultPlan::clean(1).canonical_key(), "clean");
        assert_eq!(FaultPlan::clean(2).canonical_key(), "clean");
        assert_eq!(
            FaultPlan::single(FaultKind::LnaRail, 0.0, 9).canonical_key(),
            "clean"
        );
        // Active plans carry kind, severity mapping and seed.
        let a = FaultPlan::single(FaultKind::CapLeakage, 0.5, 1).canonical_key();
        let b = FaultPlan::single(FaultKind::CapLeakage, 0.6, 1).canonical_key();
        let c = FaultPlan::single(FaultKind::CapLeakage, 0.5, 2).canonical_key();
        let d = FaultPlan::single(FaultKind::ClockJitter, 0.5, 1).canonical_key();
        assert_ne!(a, b, "severity must separate keys");
        assert_ne!(a, c, "seed must separate keys");
        assert_ne!(a, d, "kind must separate keys");
        assert_ne!(a, "clean");
    }

    #[test]
    fn combined_label_joins_kinds() {
        let mut plan = FaultPlan::single(FaultKind::LnaRail, 0.5, 0);
        plan.link = FaultPlan::single(FaultKind::PacketLoss, 0.5, 0).link;
        assert_eq!(plan.label(), "lna_rail+packet_loss");
    }
}
