//! Pareto-front extraction and constrained architecture selection.

use crate::sweep::SweepResult;
use efficsense_dsp::approx::total_eq;

/// Returns the Pareto-optimal subset: points for which no other point has
/// both lower power and at least as high a metric (with one strictly better).
///
/// The front is sorted by ascending power, so it can be plotted directly as
/// the Fig. 7 trade-off curve; walking it answers "what is the cheapest
/// design achieving at least X?" (see [`optimal_under_constraint`]).
pub fn pareto_front(results: &[SweepResult]) -> Vec<&SweepResult> {
    let mut front: Vec<&SweepResult> = Vec::new();
    for candidate in results {
        if !candidate.metric.is_finite() {
            continue;
        }
        let dominated = results.iter().any(|other| {
            !std::ptr::eq(other, candidate)
                && other.metric.is_finite()
                && other.power_w <= candidate.power_w
                && other.metric >= candidate.metric
                && (other.power_w < candidate.power_w || other.metric > candidate.metric)
        });
        if !dominated {
            front.push(candidate);
        }
    }
    front.sort_by(|a, b| a.power_w.total_cmp(&b.power_w));
    front.dedup_by(|a, b| total_eq(a.power_w, b.power_w) && total_eq(a.metric, b.metric));
    front
}

/// The minimum-power point meeting `min_metric` (the paper's "optimal design
/// solution": lowest power with accuracy ≥ 98 %).
pub fn optimal_under_constraint(results: &[SweepResult], min_metric: f64) -> Option<&SweepResult> {
    results
        .iter()
        .filter(|r| r.metric >= min_metric)
        .min_by(|a, b| a.power_w.total_cmp(&b.power_w))
}

/// Filters results to those within an area cap, preserving order — used to
/// rebuild per-constraint Pareto fronts for Fig. 10.
pub fn within_area(results: &[SweepResult], max_area_units: f64) -> Vec<SweepResult> {
    results
        .iter()
        .filter(|r| r.area_units <= max_area_units)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Architecture;
    use crate::space::DesignPoint;
    use efficsense_power::PowerBreakdown;

    fn res(power_uw: f64, metric: f64, area: f64) -> SweepResult {
        SweepResult {
            point: DesignPoint {
                architecture: Architecture::Baseline,
                lna_noise_vrms: 1e-6,
                n_bits: 8,
                m: None,
                s: None,
                c_hold_f: None,
            },
            metric,
            power_w: power_uw * 1e-6,
            breakdown: PowerBreakdown::new(),
            area_units: area,
        }
    }

    #[test]
    fn dominated_points_removed() {
        let results = vec![
            res(1.0, 0.90, 100.0),
            res(2.0, 0.95, 100.0),
            res(3.0, 0.93, 100.0), // dominated by the 2 µW point
            res(4.0, 0.99, 100.0),
        ];
        let front = pareto_front(&results);
        let powers: Vec<f64> = front.iter().map(|r| r.power_w * 1e6).collect();
        assert_eq!(powers, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn front_sorted_by_power() {
        let results = vec![
            res(5.0, 0.99, 0.0),
            res(1.0, 0.90, 0.0),
            res(3.0, 0.95, 0.0),
        ];
        let front = pareto_front(&results);
        for w in front.windows(2) {
            assert!(w[0].power_w <= w[1].power_w);
            assert!(w[0].metric <= w[1].metric);
        }
    }

    #[test]
    fn constraint_selects_min_power_feasible() {
        let results = vec![
            res(1.0, 0.90, 100.0),
            res(2.5, 0.981, 100.0),
            res(8.8, 0.995, 100.0),
        ];
        let opt = optimal_under_constraint(&results, 0.98).expect("feasible");
        assert!((opt.power_w * 1e6 - 2.5).abs() < 1e-9);
        assert!(optimal_under_constraint(&results, 0.999).is_none());
    }

    #[test]
    fn within_area_excludes_large_designs() {
        let results = vec![res(1.0, 0.99, 1e5), res(5.0, 0.99, 100.0)];
        let filtered = within_area(&results, 1000.0);
        assert_eq!(filtered.len(), 1);
        assert!((filtered[0].power_w * 1e6 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn nan_metric_excluded_from_front() {
        let results = vec![res(1.0, f64::NAN, 0.0), res(2.0, 0.9, 0.0)];
        let front = pareto_front(&results);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].metric, 0.9);
    }

    #[test]
    fn identical_points_dedup() {
        let results = vec![res(1.0, 0.9, 0.0), res(1.0, 0.9, 0.0)];
        let front = pareto_front(&results);
        assert_eq!(front.len(), 1);
    }
}
