//! Telemetry determinism: under the obs logical clock, a sweep's metric
//! snapshot is a pure function of the work done — not of the thread count,
//! the scheduler, or wall time.
//!
//! Both tests drive the process-global [`efficsense_obs`] registry, so they
//! serialize on a local mutex and fully re-configure clock/sink/state at
//! entry. (Integration tests get their own binary, so no other test in the
//! workspace races this registry.)

use efficsense_core::prelude::*;
use efficsense_core::sweep::Metric;
use efficsense_obs::{LogicalClock, TraceEvent};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Serializes access to the global obs registry across the tests in this
/// binary.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn tiny_dataset() -> EegDataset {
    EegDataset::generate(&DatasetConfig {
        records_per_class: 2,
        duration_s: 2.0,
        ..Default::default()
    })
}

fn tiny_space() -> DesignSpace {
    DesignSpace {
        lna_noise_vrms: vec![2e-6, 10e-6],
        n_bits: vec![8],
        cs_m: vec![96],
        cs_s: vec![2],
        cs_c_hold_f: vec![1e-12],
        ..DesignSpace::paper_defaults()
    }
}

fn run_sweep(threads: usize, ds: &EegDataset, space: &DesignSpace) -> Vec<SweepResult> {
    Sweep::new(SweepConfig {
        metric: Metric::Snr,
        threads,
        detector_seed: 0,
        ..Default::default()
    })
    .run(space, ds)
}

#[test]
fn logical_clock_snapshot_is_identical_across_thread_counts() {
    let _guard = obs_lock();
    let obs = efficsense_obs::global();
    let ds = tiny_dataset();
    let space = tiny_space();

    // Warm-up: populate the process-wide memo stores (CS bases, dictionaries)
    // so both measured runs see identical hit/miss traffic.
    run_sweep(1, &ds, &space);

    obs.set_sink(None);
    obs.set_clock(Arc::new(LogicalClock::new(1_000)));

    obs.reset();
    let one = run_sweep(1, &ds, &space);
    let snap_one = obs.snapshot();

    obs.reset();
    let four = run_sweep(4, &ds, &space);
    let snap_four = obs.snapshot();

    obs.set_clock(Arc::new(efficsense_obs::MonotonicClock::default()));

    // The sweep results themselves are bit-identical (pre-existing
    // guarantee), and now so is the telemetry: every counter value and every
    // histogram (counts, buckets, total and self durations) matches exactly.
    assert_eq!(one, four);
    assert_eq!(snap_one, snap_four);

    // Sanity: the snapshot saw real work, not two empty registries agreeing.
    assert_eq!(
        snap_one.counter("sweep.evaluations"),
        Some(space.len() as u64)
    );
    let point = snap_one.span("sweep.point").expect("point span recorded");
    assert_eq!(point.count as usize, space.len());
    assert!(
        point.total_ns > 0,
        "logical clock must advance inside spans"
    );
    assert!(
        snap_one.counter("sweep.heartbeat").unwrap_or(0) > 0,
        "heartbeat fires at least at completion"
    );
}

#[test]
fn decode_pool_snapshot_is_identical_across_thread_counts() {
    use efficsense_cs::basis::Basis;
    use efficsense_cs::decode::reconstruct_batch;
    use efficsense_cs::matrix::SensingMatrix;
    use efficsense_cs::memo::DictionaryArtifacts;
    use efficsense_cs::recon::OmpConfig;

    let _guard = obs_lock();
    let obs = efficsense_obs::global();

    let m = 32;
    let n = 96;
    let phi = SensingMatrix::srbm(m, n, 2, 0xDEC0DE).to_dense();
    let dict = phi.matmul(&Basis::Dct.matrix(n));
    let art = DictionaryArtifacts::from_dictionary(dict, Basis::Dct, 1.0);
    let frames: Vec<Vec<f64>> = (0..10u64)
        .map(|f| {
            let mut s = vec![0.0; n];
            s[(7 * f as usize + 3) % n] = 1.0;
            s[(31 * f as usize + 11) % n] += -0.5;
            let x = Basis::Dct.synthesize(&s);
            art.dictionary.matvec(&x)
        })
        .collect();
    let cfgs = vec![OmpConfig::with_sparsity(5); frames.len()];

    obs.set_sink(None);
    obs.set_clock(Arc::new(LogicalClock::new(1_000)));

    // Inline decode (threads = 1) nests the per-frame spans under the batch
    // span on the caller thread, so its *snapshot* legitimately differs from
    // the pooled runs — only its results take part in the bit-identity check.
    obs.reset();
    let inline = reconstruct_batch(&art, &frames, &cfgs, 1);

    obs.reset();
    let two = reconstruct_batch(&art, &frames, &cfgs, 2);
    let snap_two = obs.snapshot();

    obs.reset();
    let four = reconstruct_batch(&art, &frames, &cfgs, 4);
    let snap_four = obs.snapshot();

    obs.set_clock(Arc::new(efficsense_obs::MonotonicClock::default()));

    // Decoded frames are bit-identical for every fan-out, and under the
    // logical clock the pooled telemetry is a pure function of the work:
    // dynamic work stealing between 2 and 4 workers must not move a single
    // histogram bucket.
    assert_eq!(inline, two);
    assert_eq!(two, four);
    assert_eq!(snap_two, snap_four);

    let batch = snap_two.span("recon.batch").expect("batch span recorded");
    assert_eq!(batch.count, 1);
    let cholup = snap_two.span("recon.cholup").expect("cholup span recorded");
    assert_eq!(cholup.count as usize, frames.len());
    assert!(cholup.total_ns > 0, "logical clock must advance in workers");
}

#[test]
fn jsonl_trace_round_trips_through_the_parser() {
    let _guard = obs_lock();
    let obs = efficsense_obs::global();
    let ds = tiny_dataset();
    let space = tiny_space();

    let dir = std::env::temp_dir().join("efficsense_obs_trace_test");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = dir.join("trace.jsonl");

    obs.set_clock(Arc::new(LogicalClock::new(1_000)));
    obs.reset();
    let file = std::fs::File::create(&path).expect("trace file is creatable");
    obs.set_sink(Some(Box::new(std::io::BufWriter::new(file))));
    run_sweep(2, &ds, &space);
    obs.set_sink(None); // flushes and closes the sink
    obs.set_clock(Arc::new(efficsense_obs::MonotonicClock::default()));
    let snap = obs.snapshot();

    let text = std::fs::read_to_string(&path).expect("trace file is readable");
    let mut span_events = 0usize;
    let mut point_events = 0usize;
    for line in text.lines() {
        let event = TraceEvent::parse(line)
            .unwrap_or_else(|| panic!("every trace line parses, got: {line}"));
        // Re-rendering the parsed event reproduces the original line byte for
        // byte — the schema is lossless for everything the sink emits.
        assert_eq!(event.to_json_line(), line);
        if event.kind == "span" {
            span_events += 1;
            if event.name == "sweep.point" {
                point_events += 1;
            }
        }
    }

    // One span event per span closure, one point event per design point.
    let total_span_closures: u64 = snap.spans.iter().map(|(_, h)| h.count).sum();
    assert_eq!(span_events as u64, total_span_closures);
    assert_eq!(point_events, space.len());

    std::fs::remove_file(&path).ok();
}

/// Runs one traced sweep under the logical clock and returns the trace
/// text plus the registry snapshot taken after the sink was detached.
fn traced_sweep(
    threads: usize,
    ds: &EegDataset,
    space: &DesignSpace,
    file_tag: &str,
) -> (String, efficsense_obs::Snapshot) {
    let obs = efficsense_obs::global();
    let dir = std::env::temp_dir().join("efficsense_obs_profile_test");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = dir.join(format!("trace_{file_tag}.jsonl"));

    obs.set_clock(Arc::new(LogicalClock::new(1_000)));
    obs.reset();
    let file = std::fs::File::create(&path).expect("trace file is creatable");
    obs.set_sink(Some(Box::new(std::io::BufWriter::new(file))));
    run_sweep(threads, ds, space);
    obs.set_sink(None); // flushes, appends the closing counters event
    obs.set_clock(Arc::new(efficsense_obs::MonotonicClock::default()));
    let snap = obs.snapshot();

    let text = std::fs::read_to_string(&path).expect("trace file is readable");
    std::fs::remove_file(&path).ok();
    (text, snap)
}

#[test]
fn reconstructed_profile_is_identical_across_thread_counts() {
    use efficsense_obs::profile::Profile;

    let _guard = obs_lock();
    let ds = tiny_dataset();
    let space = tiny_space();

    // Warm-up: populate process-wide memo stores so both measured runs see
    // identical hit/miss traffic.
    run_sweep(1, &ds, &space);

    let (text_one, snap_one) = traced_sweep(1, &ds, &space, "1t");
    let (text_four, snap_four) = traced_sweep(4, &ds, &space, "4t");

    let prof_one = Profile::from_trace(&text_one);
    let prof_four = Profile::from_trace(&text_four);

    // Span ids, thread ordinals and timestamps differ between the runs, but
    // the reconstructed profile aggregates over *names* only — under the
    // logical clock it is bit-identical across worker-thread counts.
    assert_eq!(snap_one, snap_four);
    assert_eq!(prof_one, prof_four);
    assert_eq!(prof_one.to_json(), prof_four.to_json());

    // Every parent link resolves and every line parses.
    assert_eq!(prof_one.skipped_lines, 0);
    assert_eq!(prof_one.orphans, 0);

    // The trace-derived per-stage stats agree exactly with the registry
    // histograms (same recorded values, different transport) — well inside
    // the 10% agreement the profiler promises for sampled traces.
    for (name, hist) in &snap_one.spans {
        if hist.count == 0 {
            // Zero-count histograms are warm-up leftovers (reset keeps the
            // entry): they emit no trace events, so no profile stage.
            assert!(!prof_one.stages.contains_key(name), "{name} ghost stage");
            continue;
        }
        let stage = prof_one
            .stages
            .get(name)
            .unwrap_or_else(|| panic!("stage {name} missing from profile"));
        assert_eq!(stage.count, hist.count, "{name} count");
        assert_eq!(stage.total_ns, hist.total_ns, "{name} total");
        assert_eq!(stage.self_ns, hist.self_ns, "{name} self");
        assert!(stage.p50_ns <= stage.p95_ns && stage.p95_ns <= stage.p99_ns);
    }

    // The closing counters event carried the registry counters into the
    // profile, and the forest reconstructed real multi-level call paths.
    for (name, value) in &snap_one.counters {
        assert_eq!(prof_one.counters.get(name), Some(value), "{name}");
    }
    assert!(
        prof_one
            .stacks
            .keys()
            .any(|path| path.starts_with("sweep.point;stage.simulate;")),
        "expected nested stacks under sweep.point, got: {:?}",
        prof_one.stacks.keys().collect::<Vec<_>>()
    );
}

#[test]
fn heartbeats_report_l3_prefix_counters_when_a_store_is_attached() {
    use efficsense_core::prefix::PrefixStore;
    use efficsense_obs::json::Json;

    let _guard = obs_lock();
    let obs = efficsense_obs::global();
    let ds = tiny_dataset();
    let space = tiny_space();

    let dir = std::env::temp_dir().join("efficsense_obs_profile_test");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = dir.join("trace_heartbeat_l3.jsonl");

    obs.set_clock(Arc::new(LogicalClock::new(1_000)));
    obs.reset();
    let file = std::fs::File::create(&path).expect("trace file is creatable");
    obs.set_sink(Some(Box::new(std::io::BufWriter::new(file))));
    Sweep::new(SweepConfig {
        metric: Metric::Snr,
        threads: 2,
        detector_seed: 0,
        ..Default::default()
    })
    .with_prefix_store(Arc::new(PrefixStore::new()))
    .run(&space, &ds);
    obs.set_sink(None);
    obs.set_clock(Arc::new(efficsense_obs::MonotonicClock::default()));

    let text = std::fs::read_to_string(&path).expect("trace file is readable");
    std::fs::remove_file(&path).ok();
    let heartbeats: Vec<TraceEvent> = text
        .lines()
        .filter_map(TraceEvent::parse)
        .filter(|e| e.kind == "heartbeat" && e.name == "sweep.progress")
        .collect();
    assert!(!heartbeats.is_empty(), "sweep completion emits a heartbeat");
    for hb in &heartbeats {
        let l3 = |k: &str| match hb.get(k) {
            Some(Json::Int(v)) => *v,
            other => panic!("heartbeat {k} must be a U64 field, got {other:?}"),
        };
        // The store starts cold: every lookup so far is classified, so the
        // level totals are live by the first heartbeat.
        assert!(
            l3("l3_hits") + l3("l3_misses") > 0,
            "attached prefix store must show L3 traffic"
        );
    }
}

#[test]
fn heartbeats_count_only_the_sweeps_own_stores() {
    use efficsense_core::cache::SweepCache;
    use efficsense_core::prefix::PrefixStore;
    use efficsense_obs::json::Json;

    let _guard = obs_lock();
    let obs = efficsense_obs::global();
    let ds = tiny_dataset();
    let space = tiny_space();
    let sweep = |cache: &Arc<SweepCache>, store: &Arc<PrefixStore>| {
        Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads: 1,
            detector_seed: 0,
            ..Default::default()
        })
        .with_cache(Arc::clone(cache))
        .with_prefix_store(Arc::clone(store))
        .run(&space, &ds);
    };

    // Stores A see L3 traffic and, on the second pass, L1 hits. Their
    // counts stay in the registry: nothing resets it before the next sweep.
    obs.reset();
    let (cache_a, store_a) = (Arc::new(SweepCache::new()), Arc::new(PrefixStore::new()));
    sweep(&cache_a, &store_a);
    sweep(&cache_a, &store_a);
    assert!(cache_a.stats().hits > 0 && store_a.stats().misses() > 0);

    let dir = std::env::temp_dir().join("efficsense_obs_profile_test");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = dir.join("trace_heartbeat_own_stores.jsonl");
    let file = std::fs::File::create(&path).expect("trace file is creatable");
    obs.set_sink(Some(Box::new(std::io::BufWriter::new(file))));
    let (cache_b, store_b) = (Arc::new(SweepCache::new()), Arc::new(PrefixStore::new()));
    sweep(&cache_b, &store_b);
    obs.set_sink(None);

    let text = std::fs::read_to_string(&path).expect("trace file is readable");
    std::fs::remove_file(&path).ok();
    let last = text
        .lines()
        .rev()
        .filter_map(TraceEvent::parse)
        .find(|e| e.kind == "heartbeat" && e.name == "sweep.progress")
        .expect("sweep completion emits a heartbeat");
    let field = |k: &str| match last.get(k) {
        Some(Json::Int(v)) => *v,
        other => panic!("heartbeat {k} must be a U64 field, got {other:?}"),
    };
    let l3 = store_b.stats();
    assert_eq!(
        field("l3_hits") + field("l3_misses"),
        l3.hits() + l3.misses(),
        "the last heartbeat must count store B's lookups only"
    );
    assert_eq!(field("cache_hits"), cache_b.stats().hits);
}

#[test]
fn panicking_point_flushes_the_trace_before_quarantine() {
    let _guard = obs_lock();
    let obs = efficsense_obs::global();
    let ds = tiny_dataset();
    // The NaN-noise baseline point passes validation but trips the LNA
    // constructor's assertion mid-evaluation — a genuine panic, caught at
    // the sweep's per-point boundary.
    let space = DesignSpace {
        lna_noise_vrms: vec![2e-6, f64::NAN],
        n_bits: vec![8],
        cs_m: vec![96],
        cs_s: vec![2],
        cs_c_hold_f: vec![1e-12],
        ..DesignSpace::paper_defaults()
    };

    let dir = std::env::temp_dir().join("efficsense_obs_profile_test");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = dir.join("trace_panic_flush.jsonl");

    obs.set_clock(Arc::new(LogicalClock::new(1_000)));
    obs.reset();
    let file = std::fs::File::create(&path).expect("trace file is creatable");
    // A buffer far larger than the whole trace: nothing reaches the file
    // unless something explicitly flushes.
    obs.set_sink(Some(Box::new(std::io::BufWriter::with_capacity(
        1 << 22,
        file,
    ))));
    let report = Sweep::new(SweepConfig {
        metric: Metric::Snr,
        threads: 1,
        detector_seed: 0,
        failure_policy: FailurePolicy::Skip,
        ..Default::default()
    })
    .run_report(&space, &ds);
    assert!(
        report
            .quarantine
            .iter()
            .any(|q| matches!(&q.error, PointError::Panicked(_))),
        "the sick point must panic: {:?}",
        report
            .quarantine
            .iter()
            .map(|q| &q.error)
            .collect::<Vec<_>>()
    );

    // Read the file *before* detaching the sink (detaching flushes too):
    // only the panic-path flush can have pushed the buffered lines out.
    let text = std::fs::read_to_string(&path).expect("trace file is readable");
    assert!(
        !text.trim().is_empty(),
        "panic path must flush buffered trace lines"
    );
    let parsed = text.lines().filter(|l| !l.is_empty()).count();
    let parse_ok = text
        .lines()
        .filter(|l| !l.is_empty())
        .filter_map(TraceEvent::parse)
        .count();
    assert_eq!(parse_ok, parsed, "flushed lines are whole JSONL events");

    obs.set_sink(None);
    obs.set_clock(Arc::new(efficsense_obs::MonotonicClock::default()));
    std::fs::remove_file(&path).ok();
}

#[test]
fn faulted_points_counts_only_active_fault_plans() {
    let _guard = obs_lock();
    let obs = efficsense_obs::global();
    let ds = tiny_dataset();
    let space = tiny_space();
    let faulted = |severity: f64| {
        obs.reset();
        Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads: 1,
            detector_seed: 0,
            failure_policy: FailurePolicy::Skip,
            fault_plan: Some(FaultPlan::single(FaultKind::AdcStuckBit, severity, 1)),
            ..Default::default()
        })
        .run_report(&space, &ds);
        obs.snapshot().counter("sweep.faulted_points").unwrap_or(0)
    };
    // A severity-0 plan is clean, and the simulator drops it.
    assert_eq!(faulted(0.0), 0);
    assert_eq!(faulted(1.0), space.len() as u64);
}
