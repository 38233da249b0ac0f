//! Degradation curves from full-space Pareto fronts: detection accuracy vs
//! fault severity, per fault kind and architecture.
//!
//! For every `(fault kind, severity)` cell, the *entire* design space is
//! swept through the product-sweep engine under that cell's fault plan,
//! and the per-architecture accuracy/power Pareto front is extracted. The
//! degradation curve of a fault kind is then the best front accuracy per
//! severity — how much headroom the whole design space retains, not how
//! one hand-picked representative point suffers. Severity-0 cells share
//! one clean evaluation per design point through the L1 sweep cache
//! (every clean plan canonicalises to the same key).
//!
//! The output CSV (`target/figures/robustness_<scale>.csv`) carries one
//! row per `(fault, severity, architecture)` with the front size and the
//! best point on the front; failed cells quarantine to a
//! `robustness_<scale>_quarantine.csv` sibling instead of aborting the
//! grid, mirroring the `product` sweep's scheme.
//!
//! Run: `cargo run --release -p efficsense-bench --bin robustness`
//! (`EFFICSENSE_SCALE=medium|full` widens the severity grid and workload;
//! `--trace <path>.jsonl` / `--metrics <path>.json` stream telemetry.)

use efficsense_bench::{
    native_architecture, obs_from_args, persist_quarantine, save_figure, scale, Scale, StageTable,
};
use efficsense_core::cache::SweepCache;
use efficsense_core::prelude::*;
use efficsense_core::sweep::{FailurePolicy, Metric, QuarantinedPoint, SweepReport};
use efficsense_obs::json::Json;
use std::sync::Arc;

/// Master seed of every injected fault stream (kept fixed so reruns are
/// bit-identical).
const FAULT_SEED: u64 = 0xFA_017;

/// The best (highest-accuracy) point of one architecture's Pareto front
/// in one severity cell.
struct FrontRow {
    kind: FaultKind,
    severity: f64,
    architecture: Architecture,
    front_size: usize,
    best_accuracy: f64,
    best_power_uw: f64,
    best_area_units: f64,
}

/// Extracts one architecture's accuracy/power Pareto front from a cell's
/// sweep results and summarises its best point.
fn front_row(
    kind: FaultKind,
    severity: f64,
    architecture: Architecture,
    results: &[SweepResult],
) -> Option<FrontRow> {
    let arch: Vec<SweepResult> = results
        .iter()
        .filter(|r| r.point.architecture == architecture)
        .cloned()
        .collect();
    let front = pareto_front(&arch);
    let best = front.iter().max_by(|a, b| a.metric.total_cmp(&b.metric))?;
    Some(FrontRow {
        kind,
        severity,
        architecture,
        front_size: front.len(),
        best_accuracy: best.metric,
        best_power_uw: best.power_w * 1e6,
        best_area_units: best.area_units,
    })
}

fn main() {
    let obs_session = obs_from_args();
    let sc = scale();
    let severities: &[f64] = match sc {
        Scale::Reduced => &[0.0, 0.5, 1.0],
        Scale::Medium | Scale::Full => &[0.0, 0.25, 0.5, 0.75, 1.0],
    };
    let dataset = EegDataset::generate(&sc.dataset_config());
    let space = sc.design_space();
    let points_per_cell = space.points().len();
    let cache = Arc::new(SweepCache::new());

    println!(
        "=== Robustness: {} fault kinds x {} severities, full {}-point space over {} records ===",
        FaultKind::ALL.len(),
        severities.len(),
        points_per_cell,
        dataset.len()
    );

    let sweep_cell = |plan: Option<FaultPlan>| -> SweepReport {
        let _cell_span = efficsense_obs::span!("robustness.cell");
        Sweep::new(SweepConfig {
            metric: Metric::DetectionAccuracy,
            failure_policy: FailurePolicy::Skip,
            fault_plan: plan,
            ..Default::default()
        })
        .with_cache(Arc::clone(&cache))
        .run_report(&space, &dataset)
    };

    let mut rows: Vec<FrontRow> = Vec::new();
    let mut quarantine: Vec<QuarantinedPoint> = Vec::new();
    let mut cell_index = 0usize;
    for kind in FaultKind::ALL {
        for &severity in severities {
            // Severity 0 is the clean plan for every kind; the shared cache
            // collapses those cells onto one evaluation per design point.
            let plan = (severity > 0.0).then(|| FaultPlan::single(kind, severity, FAULT_SEED));
            let report = sweep_cell(plan);
            for mut q in report.quarantine {
                // Re-index into the cell grid so quarantine rows from
                // different cells stay distinguishable.
                q.index += cell_index * points_per_cell;
                quarantine.push(q);
            }
            for architecture in [Architecture::Baseline, Architecture::CompressiveSensing] {
                rows.extend(front_row(kind, severity, architecture, &report.results));
            }
            cell_index += 1;
        }
        let native = native_architecture(kind);
        let shown: Vec<String> = rows
            .iter()
            .filter(|r| r.kind == kind && r.architecture == native)
            .map(|r| format!("{:.0}%@{:.2}", r.best_accuracy * 100.0, r.severity))
            .collect();
        println!(
            "  {kind:<16} ({native}): best front accuracy {}",
            shown.join(" -> ")
        );
    }

    let mut csv = String::from(
        "fault,severity,architecture,front_size,best_accuracy,best_power_uw,best_area_units\n",
    );
    for r in &rows {
        csv.push_str(&format!(
            "{},{:.2},{},{},{:.6},{:.4},{:.1}\n",
            r.kind,
            r.severity,
            r.architecture,
            r.front_size,
            r.best_accuracy,
            r.best_power_uw,
            r.best_area_units,
        ));
    }
    let results_name = format!("robustness_{}.csv", sc.name());
    save_figure(&results_name, &csv);

    // Persist the quarantine next to the results CSV (header-only when every
    // cell evaluated), mirroring the product sweep's scheme.
    let total_cells = FaultKind::ALL.len() * severities.len() * points_per_cell;
    let report = SweepReport {
        results: Vec::new(),
        quarantine,
        points_total: total_cells,
    };
    persist_quarantine(&results_name, &report);

    // Monotonicity report: on its native architecture, the best achievable
    // accuracy should never improve as severity rises (small tolerance for
    // detector granularity — one flipped record on a reduced workload moves
    // accuracy by 1/len).
    let tolerance = 1.0 / dataset.len() as f64 + 1e-9;
    let mut monotone = 0usize;
    println!();
    for kind in FaultKind::ALL {
        let native = native_architecture(kind);
        let curve: Vec<f64> = rows
            .iter()
            .filter(|r| r.kind == kind && r.architecture == native)
            .map(|r| r.best_accuracy)
            .collect();
        let ok = curve.windows(2).all(|w| w[1] <= w[0] + tolerance);
        let degrades = curve.last().copied().unwrap_or(1.0)
            < curve.first().copied().unwrap_or(1.0) - tolerance;
        if ok && degrades {
            monotone += 1;
        }
        println!(
            "  {kind:<16} monotone-degrading on {native}: {}",
            if ok && degrades { "yes" } else { "no" }
        );
    }
    println!();
    println!(
        "{monotone}/{} fault kinds degrade best-front accuracy monotonically on their native architecture",
        FaultKind::ALL.len()
    );

    // Cache effectiveness (severity-0 dedupe across kinds) and per-cell
    // throughput straight from the obs registry.
    let stats = cache.stats();
    println!();
    println!(
        "  L1 cache: {} entries, {} hits / {} misses ({:.0}% hit rate)",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    let snap = obs_session.finish();
    if let Some(s) = snap.span("robustness.cell") {
        let secs = s.total_ns as f64 / 1e9;
        println!(
            "  {} severity cells in {secs:.2}s ({:.2} cells/s)",
            s.count,
            s.count as f64 / secs.max(1e-9)
        );
    }

    // BENCH_robustness.json: the matrix verdicts plus the per-stage
    // profile, mirroring the product/longevity summaries for CI trends.
    let summary = Json::obj([
        ("scale", sc.name().into()),
        ("host", efficsense_bench::host_json()),
        ("fault_kinds", FaultKind::ALL.len().into()),
        ("severity_steps", severities.len().into()),
        ("points_per_cell", points_per_cell.into()),
        ("monotone_kinds", monotone.into()),
        ("quarantined", report.quarantine.len().into()),
        ("l1_entries", stats.entries.into()),
        ("l1_hits", stats.hits.into()),
        ("l1_misses", stats.misses.into()),
        ("profile", StageTable::new(&snap).to_json()),
    ]);
    efficsense_bench::write_bench_json("BENCH_robustness.json", &summary);

    assert!(
        monotone >= 3,
        "expected at least 3 monotone-degrading fault kinds, got {monotone}"
    );
}
