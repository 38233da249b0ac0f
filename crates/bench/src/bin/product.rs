//! Severity × design-space product sweep with the three-level evaluation cache.
//!
//! The robustness workflow re-runs the whole design-space sweep once per
//! `(fault kind, severity)` cell. This binary runs that product three ways —
//! uncached, cold-cached, warm-cached — plus a persist/reload cycle, checks
//! all four produce bit-identical results, and emits `BENCH_sweep.json`
//! (points/sec, cache hit rate, wall times) for CI trend tracking.
//!
//! Three cache levels are measured:
//! * **Level 2** (`efficsense_cs::memo`): sensing matrices and dictionary
//!   precomputations shared per `(m, n, seed, kind)` — measured by running
//!   one sweep with a cleared memo store and again with a warm one.
//! * **Level 3** (`efficsense_core::prefix`): stage-prefix artifacts
//!   (resampled records, LNA output, clean-clock samplings, references)
//!   shared across sweep points — measured as a store-off pass vs the
//!   headline uncached pass, plus an uncached thread-scaling section at
//!   1/2/4 workers whose per-class L3 counts must equal pass A's (asserted
//!   while no pass evicts).
//! * **Level 1** (`efficsense_core::cache`): whole `evaluate_point` results
//!   keyed by content ([`efficsense_core::cache::point_key`]) — measured
//!   across the product passes. L1 is the only store of whole evaluations:
//!   severity-0 cells canonicalise to the clean key, so the cold pass
//!   evaluates each distinct plan once per point (asserted), while the
//!   uncached passes re-evaluate every severity-0 cell.
//!
//! Run: `cargo run --release -p efficsense-bench --bin product`
//! (`EFFICSENSE_SCALE=medium|full` widens the cell grid and workload;
//! `EFFICSENSE_CACHE_FILE=<path>` overrides the persisted cache location;
//! `--trace <path>.jsonl` streams telemetry events, `--metrics <path>.json`
//! writes the final metrics snapshot, which is also embedded in
//! `BENCH_sweep.json` under `"obs"`.)

use efficsense_bench::{dataset_config, design_space, figures_dir, obs_from_args, scale, Scale};
use efficsense_core::cache::SweepCache;
use efficsense_core::pareto::pareto_front;
use efficsense_core::prefix::{PrefixStats, PrefixStore};
use efficsense_core::prelude::*;
use efficsense_core::sweep::Metric;
use efficsense_cs::memo;
use efficsense_obs::json::Json;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Master seed of every injected fault stream (kept fixed so reruns are
/// bit-identical).
const FAULT_SEED: u64 = 0xFA_017;

/// One `(fault kind, severity)` cell of the product.
#[derive(Debug, Clone)]
struct Cell {
    label: String,
    plan: FaultPlan,
}

/// The product grid: reduced keeps CI fast (and includes two severity-0
/// cells, which share the clean content key — the cold-pass dedup case);
/// medium/full run the full taxonomy × severity grid.
fn cells() -> Vec<Cell> {
    let (kinds, severities): (Vec<FaultKind>, Vec<f64>) = match scale() {
        Scale::Reduced => (
            vec![FaultKind::AdcStuckBit, FaultKind::CapLeakage],
            vec![0.0, 1.0],
        ),
        Scale::Medium | Scale::Full => (
            vec![
                FaultKind::LnaRail,
                FaultKind::AdcStuckBit,
                FaultKind::CapLeakage,
                FaultKind::ClockJitter,
                FaultKind::DroppedSamples,
                FaultKind::PacketLoss,
            ],
            vec![0.0, 0.25, 0.5, 0.75, 1.0],
        ),
    };
    let mut out = Vec::new();
    for kind in &kinds {
        for &severity in &severities {
            out.push(Cell {
                label: format!("{kind:?}@{severity}"),
                plan: FaultPlan::single(*kind, severity, FAULT_SEED),
            });
        }
    }
    out
}

/// Runs the whole product once, optionally through a shared L1 result cache
/// and/or L3 prefix store, with `threads` sweep workers (0 = all cores).
fn run_product(
    cells: &[Cell],
    space: &DesignSpace,
    dataset: &EegDataset,
    cache: Option<&Arc<SweepCache>>,
    prefix: Option<&Arc<PrefixStore>>,
    threads: usize,
) -> (Vec<SweepReport>, Duration) {
    let t0 = Instant::now();
    let reports = cells
        .iter()
        .map(|cell| {
            let mut sweep = Sweep::new(SweepConfig {
                metric: Metric::DetectionAccuracy,
                threads,
                failure_policy: FailurePolicy::Skip,
                fault_plan: Some(cell.plan.clone()),
                ..Default::default()
            });
            if let Some(c) = cache {
                sweep = sweep.with_cache(Arc::clone(c));
            }
            if let Some(p) = prefix {
                sweep = sweep.with_prefix_store(Arc::clone(p));
            }
            sweep.run_report(space, dataset)
        })
        .collect();
    (reports, t0.elapsed())
}

fn assert_identical(a: &[SweepReport], b: &[SweepReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: cell count mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.results, y.results,
            "{what}: results must be bit-identical"
        );
        assert_eq!(x.quarantine.len(), y.quarantine.len(), "{what}: quarantine");
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() {
    let obs_session = obs_from_args();
    let sc = scale();
    let dataset = EegDataset::generate(&dataset_config());
    let space = design_space();
    let cells = cells();
    let points_per_pass = cells.len() * space.len();
    println!(
        "product sweep: {} cells × {} points over {} records ({} scale)",
        cells.len(),
        space.len(),
        dataset.len(),
        sc.name()
    );

    // ---- Level 2: artifact memoization, isolated with the SNR goal (no
    // detector training muddying the comparison). Same sweep twice: first
    // with a cleared memo store (every dictionary built), then warm.
    memo::clear();
    memo::reset_stats();
    let snr_cfg = SweepConfig {
        metric: Metric::Snr,
        failure_policy: FailurePolicy::Skip,
        ..Default::default()
    };
    let t0 = Instant::now();
    let memo_cold_results = Sweep::new(snr_cfg.clone()).run_report(&space, &dataset);
    let t_memo_cold = t0.elapsed();
    let dict_builds = memo::stats().dictionary.misses;
    let dict_hits_within_sweep = memo::stats().dictionary.hits;
    let t0 = Instant::now();
    let memo_warm_results = Sweep::new(snr_cfg).run_report(&space, &dataset);
    let t_memo_warm = t0.elapsed();
    assert_eq!(
        memo_cold_results.results, memo_warm_results.results,
        "memoized artifacts must be bit-identical"
    );
    let artifact_speedup = secs(t_memo_cold) / secs(t_memo_warm).max(1e-9);
    println!(
        "  level 2 (artifact memo): cold {:.2}s ({} dictionary builds, {} shared within sweep) \
         vs warm {:.2}s → {:.2}×",
        secs(t_memo_cold),
        dict_builds,
        dict_hits_within_sweep,
        secs(t_memo_warm),
        artifact_speedup
    );

    // ---- Level 3: the prefix store, off vs on. The store-off pass is the
    // pre-L3 baseline; pass A (a fresh store, no L1 cache) is the headline
    // "uncached" number — it measures what one product pass costs when
    // sweep points share front-end artifacts but no whole results.
    println!("  pass A0: prefix store off…");
    let (pass_off, t_prefix_off) = run_product(&cells, &space, &dataset, None, None, 0);
    println!("  pass A: uncached (fresh prefix store)…");
    let prefix_a = Arc::new(PrefixStore::new());
    let (pass_a, t_uncached) = run_product(&cells, &space, &dataset, None, Some(&prefix_a), 0);
    assert_identical(&pass_off, &pass_a, "prefix-store pass");
    let prefix_speedup = secs(t_prefix_off) / secs(t_uncached).max(1e-9);
    let pstats = prefix_a.stats();
    println!(
        "    store off {:.2}s | on {:.2}s ({:.2}×) — analog {}h/{}m, sampled {}h/{}m, \
         reference {}h/{}m",
        secs(t_prefix_off),
        secs(t_uncached),
        prefix_speedup,
        pstats.analog.hits,
        pstats.analog.misses,
        pstats.sampled.hits,
        pstats.sampled.misses,
        pstats.reference.hits,
        pstats.reference.misses,
    );

    // ---- Thread scaling: the same uncached workload at fixed worker
    // counts, each with its own fresh store (so every pass does the same
    // work). The first CI evidence that the sweep worker pool scales.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut threads_scaling: Vec<(usize, f64)> = Vec::new();
    // Per-class L3 `(hits, misses)`: ct, analog, reference, sampled.
    let class_counts =
        |s: PrefixStats| [s.ct, s.analog, s.reference, s.sampled].map(|c| (c.hits, c.misses));
    println!("  thread scaling (uncached, fresh store per pass):");
    for threads in [1usize, 2, 4] {
        let store = Arc::new(PrefixStore::new());
        let (pass_t, t) = run_product(&cells, &space, &dataset, None, Some(&store), threads);
        assert_identical(&pass_a, &pass_t, "thread-scaling pass");
        // Each L3 artifact is built once, under its shard lock, so a fresh
        // store counts the same at any worker count while nothing is
        // evicted (eviction order follows the workers' interleaving).
        let tstats = store.stats();
        if pstats.evictions() == 0 && tstats.evictions() == 0 {
            assert_eq!(
                class_counts(tstats),
                class_counts(pstats),
                "L3 (hits, misses) per class at {threads} worker(s) must equal pass A's"
            );
        } else {
            println!("    (L3 evicted: {threads}-worker count assert skipped)");
        }
        println!(
            "    {} thread(s): {:.2}s ({:.1} points/s)",
            threads,
            secs(t),
            points_per_pass as f64 / secs(t).max(1e-9)
        );
        threads_scaling.push((threads, secs(t)));
    }
    let t1 = threads_scaling[0].1;
    let t4 = threads_scaling[2].1;
    let scaling_4t = t1 / t4.max(1e-9);
    if cores >= 4 {
        assert!(
            scaling_4t >= 1.8,
            "4 workers must be ≥1.8× faster than 1 on a ≥4-core host \
             (got {scaling_4t:.2}× on {cores} cores)"
        );
    } else {
        println!("    ({cores}-core host: 4-thread ≥1.8× assert skipped)");
    }

    // ---- Level 1: the product through the result cache. Passes B–D share
    // one L3 store — the service configuration, where a long-running server
    // holds both levels open across jobs.
    println!("  pass B: cold cache…");
    let cache = Arc::new(SweepCache::new());
    let prefix_svc = Arc::new(PrefixStore::new());
    let (pass_b, t_cold) =
        run_product(&cells, &space, &dataset, Some(&cache), Some(&prefix_svc), 0);
    assert_identical(&pass_a, &pass_b, "cold-cache pass");
    let cold_stats = cache.stats();
    println!(
        "    cold: {:.2}s, {} entries, {} cross-cell hits",
        secs(t_cold),
        cold_stats.entries,
        cold_stats.hits
    );
    // L1 alone dedupes cells whose plans share a canonical key (every
    // severity-0 cell is the clean chain): the cold pass evaluates each
    // distinct plan once per point. A failed point is never cached, so the
    // count holds only when pass A quarantined nothing.
    let distinct_plans = cells
        .iter()
        .map(|c| c.plan.canonical_key())
        .collect::<BTreeSet<_>>()
        .len();
    if pass_a.iter().all(|r| r.quarantine.is_empty()) {
        assert_eq!(
            cold_stats.misses,
            (distinct_plans * space.len()) as u64,
            "the cold pass must evaluate each of the {distinct_plans} distinct plans once per point"
        );
    } else {
        println!("    (pass A quarantined points: cold-pass miss-count assert skipped)");
    }
    println!("  pass C: warm cache…");
    cache.reset_stats();
    let (pass_c, t_warm) =
        run_product(&cells, &space, &dataset, Some(&cache), Some(&prefix_svc), 0);
    assert_identical(&pass_a, &pass_c, "warm-cache pass");
    let warm_stats = cache.stats();
    assert_eq!(
        warm_stats.misses, 0,
        "a warm product sweep must evaluate nothing"
    );
    let warm_speedup = secs(t_uncached) / secs(t_warm).max(1e-9);
    let cold_speedup = secs(t_uncached) / secs(t_cold).max(1e-9);
    println!(
        "    uncached {:.2}s | cold {:.2}s ({:.2}×) | warm {:.3}s ({:.1}×, hit rate {:.3})",
        secs(t_uncached),
        secs(t_cold),
        cold_speedup,
        secs(t_warm),
        warm_speedup,
        warm_stats.hit_rate()
    );

    // ---- Persist / reload cycle.
    let cache_path = std::env::var("EFFICSENSE_CACHE_FILE").map_or_else(
        |_| figures_dir().join(format!("product_cache_{}.jsonl", sc.name())),
        std::path::PathBuf::from,
    );
    cache.save(&cache_path).expect("can persist cache file");
    let reloaded = Arc::new(SweepCache::new());
    let (loaded, skipped) = reloaded.load(&cache_path).expect("can reload cache file");
    println!(
        "  persisted {} entries → {} (reloaded {loaded}, skipped {skipped})",
        cache.len(),
        cache_path.display()
    );
    let (pass_d, t_reload) = run_product(
        &cells,
        &space,
        &dataset,
        Some(&reloaded),
        Some(&prefix_svc),
        0,
    );
    assert_identical(&pass_a, &pass_d, "reloaded-cache pass");
    assert_eq!(
        reloaded.stats().misses,
        0,
        "a reloaded cache must replay the product without evaluating"
    );

    // ---- Per-cell Pareto summary: CS share of the accuracy/power front.
    println!("  Pareto front CS share per cell:");
    for (cell, report) in cells.iter().zip(&pass_a) {
        let front = pareto_front(&report.results);
        let cs = front
            .iter()
            .filter(|r| r.point.architecture == Architecture::CompressiveSensing)
            .count();
        println!(
            "    {:<22} {}/{} front points are CS ({} ok, {} quarantined)",
            cell.label,
            cs,
            front.len(),
            report.results.len(),
            report.quarantine.len()
        );
    }

    // ---- Telemetry: freeze the registry, show the per-stage breakdown and
    // check the span accounting identity — every stage's *self* time plus
    // the per-point overhead must reassemble the per-point wall time.
    let snap = obs_session.finish();
    let self_s = |n: &str| snap.span(n).map_or(0, |s| s.self_ns) as f64 / 1e9;
    let point = snap.span("sweep.point").expect("sweep.point span recorded");
    println!(
        "  telemetry: {} point spans ({:.2}s), stage breakdown:",
        point.count,
        point.total_ns as f64 / 1e9
    );
    for name in [
        "stage.simulate",
        "sim.analog",
        "sim.analog.build",
        "sim.sample.build",
        "sim.reference.build",
        "sim.encode",
        "stage.reconstruct",
        "recon.batch",
        "recon.bmat",
        "recon.frame",
        "recon.gram",
        "stage.power",
        "stage.detect",
        "detect.infer",
    ] {
        if let Some(s) = snap.span(name) {
            println!(
                "    {:<18} total {:>8.2}s  self {:>8.2}s  ({} spans, mean {:.1} µs)",
                name,
                s.total_ns as f64 / 1e9,
                s.self_ns as f64 / 1e9,
                s.count,
                s.mean_ns() / 1e3
            );
        }
    }
    // The decode kernels are children of `stage.reconstruct` (and, for the
    // few training decodes, of `detect.train`), so their self times are part
    // of the per-point accounting identity.
    let stage_sum_s = self_s("sweep.point")
        + self_s("stage.simulate")
        + self_s("sim.analog")
        + self_s("sim.analog.build")
        + self_s("sim.sample.build")
        + self_s("sim.reference.build")
        + self_s("sim.encode")
        + self_s("stage.detect")
        + self_s("detect.infer")
        + self_s("stage.reconstruct")
        + self_s("recon.batch")
        + self_s("recon.bmat")
        + self_s("recon.frame")
        + self_s("recon.gram")
        + self_s("stage.power");
    let stage_ratio = stage_sum_s / (point.total_ns as f64 / 1e9).max(1e-12);
    assert!(
        (0.9..=1.1).contains(&stage_ratio),
        "per-stage self times must sum to within 10% of per-point wall time \
         (got ratio {stage_ratio:.4})"
    );
    println!("    stage self-time sum / point wall time = {stage_ratio:.4}");
    // The wait on the worker pool is child time: `sweep.run` self time is
    // its set-up and merge only.
    let run = snap.span("sweep.run").expect("sweep.run span recorded");
    let run_self_share = run.self_ns as f64 / (run.total_ns as f64).max(1.0);
    assert!(
        run_self_share <= 0.05,
        "sweep.run self time must be at most 5% of its total (got {run_self_share:.4})"
    );
    println!("    sweep.run self / total = {run_self_share:.4}");

    // ---- BENCH_sweep.json for CI. `uncached_*` is the fresh-prefix-store
    // pass A (the gated headline); `prefix_off_s` documents the pre-L3 cost.
    let per_s = |s: f64| Json::from(points_per_pass as f64 / s.max(1e-9));
    let scaling = threads_scaling
        .iter()
        .map(|&(threads, s)| {
            Json::obj([
                ("threads", threads.into()),
                ("seconds", s.into()),
                ("points_per_s", per_s(s)),
            ])
        })
        .collect();
    let summary = Json::obj([
        ("scale", sc.name().into()),
        ("host", efficsense_bench::host_json()),
        ("cells", cells.len().into()),
        ("points_per_pass", points_per_pass.into()),
        ("records", dataset.len().into()),
        ("uncached_s", secs(t_uncached).into()),
        ("prefix_off_s", secs(t_prefix_off).into()),
        ("prefix_speedup", prefix_speedup.into()),
        ("cold_s", secs(t_cold).into()),
        ("warm_s", secs(t_warm).into()),
        ("reload_s", secs(t_reload).into()),
        ("cold_speedup", cold_speedup.into()),
        ("warm_speedup", warm_speedup.into()),
        ("uncached_points_per_s", per_s(secs(t_uncached))),
        ("warm_points_per_s", per_s(secs(t_warm))),
        ("threads_scaling", scaling),
        ("scaling_4t", scaling_4t.into()),
        ("cache_entries", cache.len().into()),
        ("cold_hits", cold_stats.hits.into()),
        ("cold_misses", cold_stats.misses.into()),
        ("warm_hit_rate", warm_stats.hit_rate().into()),
        (
            "prefix_store",
            Json::obj([
                ("analog_hits", pstats.analog.hits.into()),
                ("analog_misses", pstats.analog.misses.into()),
                ("sampled_hits", pstats.sampled.hits.into()),
                ("sampled_misses", pstats.sampled.misses.into()),
                ("reference_hits", pstats.reference.hits.into()),
                ("reference_misses", pstats.reference.misses.into()),
                ("evictions", pstats.evictions().into()),
            ]),
        ),
        (
            "artifact_memo",
            Json::obj([
                ("cold_s", secs(t_memo_cold).into()),
                ("warm_s", secs(t_memo_warm).into()),
                ("speedup", artifact_speedup.into()),
                ("dictionary_builds", dict_builds.into()),
                ("dictionary_hits", dict_hits_within_sweep.into()),
            ]),
        ),
        ("profile", efficsense_bench::profile_summary_json(&snap)),
        ("obs", Json::from(&snap)),
    ]);
    efficsense_bench::write_bench_json("BENCH_sweep.json", &summary);

    assert!(
        warm_speedup >= 3.0,
        "warm product sweep must be ≥3× faster than uncached (got {warm_speedup:.2}×)"
    );
    println!(
        "OK: warm product sweep {warm_speedup:.1}× faster than uncached, results bit-identical \
         across uncached/cold/warm/reload"
    );
}
