//! Capacitor-count area model (Fig. 9 / Fig. 10).
//!
//! The paper estimates mixed-signal chip area from the total capacitance,
//! expressed in multiples of the minimum technology capacitor `C_u,min`.

use crate::design::DesignParams;
use crate::tech::TechnologyParams;

/// Accumulates the capacitors of a design and reports totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AreaModel {
    entries: Vec<(String, f64, usize)>, // (label, unit value F, count)
}

impl AreaModel {
    /// An empty area budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `count` capacitors of `c_f` farads each under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `c_f` is not positive and finite.
    pub fn add(&mut self, label: &str, c_f: f64, count: usize) {
        assert!(
            c_f > 0.0 && c_f.is_finite(),
            "capacitance must be positive, got {c_f}"
        );
        self.entries.push((label.to_string(), c_f, count));
    }

    /// Total capacitance.
    pub fn total_capacitance(&self) -> crate::units::Farads {
        crate::units::Farads(self.entries.iter().map(|(_, c, n)| c * *n as f64).sum())
    }

    /// Total capacitance in multiples of `C_u,min` — the x-axis of Fig. 9.
    pub fn total_units(&self, tech: &TechnologyParams) -> f64 {
        self.total_capacitance().value() / tech.c_u_min_f
    }

    /// Iterator over `(label, unit_capacitance_f, count)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, usize)> + '_ {
        self.entries.iter().map(|(l, c, n)| (l.as_str(), *c, *n))
    }

    /// Area budget of the baseline (no-CS) chain: the binary-weighted DAC
    /// array (`2^N` units of `c_u`) plus one kT/C-bound sample capacitor
    /// (at least `C_u,min`).
    pub fn baseline(tech: &TechnologyParams, design: &DesignParams, c_u_f: f64) -> Self {
        let mut a = Self::new();
        a.add("SAR DAC array", c_u_f, 1 << design.n_bits);
        a.add(
            "S&H capacitor",
            design.c_sample_bound().value().max(tech.c_u_min_f),
            1,
        );
        a
    }

    /// Area budget of the CS chain: the baseline converter array plus the
    /// charge-sharing bank (`m` hold capacitors and `s` sample capacitors).
    #[allow(clippy::too_many_arguments)]
    pub fn compressive(
        tech: &TechnologyParams,
        design: &DesignParams,
        c_u_f: f64,
        m: usize,
        s: usize,
        c_hold_f: f64,
        c_sample_f: f64,
    ) -> Self {
        let mut a = Self::baseline(tech, design, c_u_f);
        a.add("CS hold bank", c_hold_f, m);
        a.add("CS sample caps", c_sample_f, s);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TechnologyParams, DesignParams) {
        (TechnologyParams::gpdk045(), DesignParams::paper_defaults(8))
    }

    #[test]
    fn totals_accumulate() {
        let (tech, _) = setup();
        let mut a = AreaModel::new();
        a.add("x", 1e-15, 10);
        a.add("y", 2e-15, 5);
        assert!((a.total_capacitance().value() - 20e-15).abs() < 1e-27);
        assert!((a.total_units(&tech) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_dominated_by_dac_array() {
        let (tech, design) = setup();
        let a = AreaModel::baseline(&tech, &design, 1e-15);
        // 256 unit caps + 1 sample cap.
        assert!((a.total_units(&tech) - 257.0).abs() < 1.0);
    }

    #[test]
    fn cs_adds_substantial_area() {
        let (tech, design) = setup();
        let base = AreaModel::baseline(&tech, &design, 1e-15);
        let cs = AreaModel::compressive(&tech, &design, 1e-15, 150, 2, 1e-12, 0.2e-12);
        // 150 × 1 pF of hold caps dwarfs the 256 fF DAC — the Fig. 9 message.
        assert!(cs.total_units(&tech) > 100.0 * base.total_units(&tech));
    }

    #[test]
    fn iter_exposes_entries() {
        let mut a = AreaModel::new();
        a.add("dac", 1e-15, 4);
        let items: Vec<_> = a.iter().collect();
        assert_eq!(items, vec![("dac", 1e-15, 4)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_cap() {
        AreaModel::new().add("bad", 0.0, 1);
    }
}
