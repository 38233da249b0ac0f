//! Level-3 prefix-store determinism: attaching a `PrefixStore` must never
//! change a single output bit — (a) simulator on/off identity on clean and
//! fully-faulted plans for both architectures, (b) sweep on/off identity
//! across 1/2/4 worker threads, (c) identity under eviction churn with a
//! tiny budget, (d) chunked streams stay pinned to the store-assisted
//! whole-record run, and (e) the stage boundaries that serve a run from
//! another point's artifacts, down to the encoder output that points
//! differing only after the encoder share.

use efficsense_core::config::CsConfig;
use efficsense_core::prefix::{PrefixBudgets, PrefixStore};
use efficsense_core::prelude::*;
use efficsense_core::stream::StreamSimulator;
use efficsense_core::sweep::Metric;
use efficsense_dsp::spectrum::sine;
use efficsense_signals::DatasetConfig;
use std::sync::Arc;

const FS_IN: f64 = 173.61;

fn tone(seconds: f64) -> Vec<f64> {
    sine((FS_IN * seconds) as usize, FS_IN, 8.0, 100e-6, 0.3)
}

fn baseline_sim() -> Simulator {
    Simulator::new(SystemConfig::baseline(8)).expect("valid baseline config")
}

fn cs_sim() -> Simulator {
    let mut cfg = SystemConfig::compressive(8, CsConfig::default());
    cfg.lna.noise_floor_vrms = 2e-6;
    Simulator::new(cfg).expect("valid CS config")
}

/// An aggressive static plan exercising every fault hook at once.
fn everything_plan() -> FaultPlan {
    let mut plan = FaultPlan::single(FaultKind::LnaRail, 0.4, 99);
    let jitter = FaultPlan::single(FaultKind::ClockJitter, 0.5, 99);
    let drops = FaultPlan::single(FaultKind::DroppedSamples, 0.3, 99);
    let adc = FaultPlan::single(FaultKind::AdcStuckBit, 0.4, 99);
    let leak = FaultPlan::single(FaultKind::CapLeakage, 0.5, 99);
    let link = FaultPlan::single(FaultKind::PacketLoss, 0.5, 99);
    plan.clock = Some(efficsense_faults::ClockFault {
        jitter_periods: jitter.clock.expect("jitter").jitter_periods,
        drop_prob: drops.clock.expect("drops").drop_prob,
    });
    plan.adc = adc.adc;
    plan.leakage = leak.leakage;
    plan.link = link.link;
    plan
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

fn sweep_with(
    threads: usize,
    plan: Option<FaultPlan>,
    store: Option<Arc<PrefixStore>>,
) -> Vec<SweepResult> {
    let mut sweep = Sweep::new(SweepConfig {
        metric: Metric::Snr,
        threads,
        detector_seed: 0,
        fault_plan: plan,
        ..Default::default()
    });
    if let Some(store) = store {
        sweep = sweep.with_prefix_store(store);
    }
    sweep.run(&tiny_space(), &tiny_dataset())
}

#[test]
fn simulator_output_is_bit_identical_with_store_on_and_off() {
    let x = tone(4.0);
    for (mut sim, plan) in [
        (baseline_sim(), None),
        (cs_sim(), None),
        (baseline_sim(), Some(everything_plan())),
        (cs_sim(), Some(everything_plan())),
    ] {
        sim.set_fault_plan(plan.clone());
        let off = sim.run(&x, FS_IN, 7);
        let store = Arc::new(PrefixStore::new());
        sim.set_prefix_store(Some(Arc::clone(&store)));
        // Cold store: every artifact is built and inserted on this run.
        let cold = sim.run(&x, FS_IN, 7);
        // Warm store: the stage boundaries serve the second run.
        let warm = sim.run(&x, FS_IN, 7);
        assert_eq!(off, cold, "cold store changed output (plan: {plan:?})");
        assert_eq!(off, warm, "warm store changed output (plan: {plan:?})");
        let stats = store.stats();
        assert!(
            stats.analog.hits > 0 && stats.reference.hits > 0,
            "second run must hit the analog and reference artifacts: {stats:?}"
        );
    }
}

#[test]
fn noise_seed_still_decorrelates_records_through_the_store() {
    // A store must never leak one record seed's realisation into another.
    let x = tone(3.0);
    let mut sim = cs_sim();
    sim.set_prefix_store(Some(Arc::new(PrefixStore::new())));
    let a = sim.run(&x, FS_IN, 1);
    let b = sim.run(&x, FS_IN, 2);
    assert_ne!(a.input_referred, b.input_referred);
    // Same seed again: served from the store, still the seed-1 output.
    assert_eq!(a, sim.run(&x, FS_IN, 1));
}

#[test]
fn sweep_is_bit_identical_store_on_vs_off_across_thread_counts() {
    for plan in [
        None,
        Some(FaultPlan::single(FaultKind::AdcStuckBit, 1.0, 7)),
    ] {
        let reference = sweep_with(1, plan.clone(), None);
        let store = Arc::new(PrefixStore::new());
        for threads in [1, 2, 4] {
            let off = sweep_with(threads, plan.clone(), None);
            // One shared store across all thread counts: later runs hit
            // artifacts built by earlier ones and must still match.
            let on = sweep_with(threads, plan.clone(), Some(Arc::clone(&store)));
            assert_eq!(reference, off, "store-off drifted at {threads} threads");
            assert_eq!(reference, on, "store-on drifted at {threads} threads");
        }
        let stats = store.stats();
        assert!(
            stats.hits() > 0,
            "shared store saw no hits across the sweep passes: {stats:?}"
        );
    }
}

#[test]
fn capped_store_churns_and_stays_bit_identical() {
    // A budget far below one record's artifacts: every class evicts
    // constantly, and the results must not move.
    let tiny = Arc::new(PrefixStore::with_budgets(PrefixBudgets {
        ct: 256,
        analog: 256,
        reference: 256,
        sampled: 256,
        encoded: 256,
    }));
    let reference = sweep_with(2, None, None);
    let churned = sweep_with(2, None, Some(Arc::clone(&tiny)));
    let churned_again = sweep_with(2, None, Some(Arc::clone(&tiny)));
    assert_eq!(reference, churned);
    assert_eq!(reference, churned_again);
    let stats = tiny.stats();
    assert!(
        stats.evictions() > 0,
        "a 256-element budget must evict under this workload: {stats:?}"
    );
}

#[test]
fn streaming_path_stays_pinned_to_the_store_assisted_batch_path() {
    let x = tone(4.0);
    let plan = everything_plan();
    for (mut sim, plan) in [
        (baseline_sim(), None),
        (cs_sim(), None),
        (baseline_sim(), Some(plan.clone())),
        (cs_sim(), Some(plan)),
    ] {
        sim.set_fault_plan(plan);
        // The streaming simulator never sees the store; the batch run uses
        // it. PR-8's pinning (stream == batch) must survive the store.
        let streamed = StreamSimulator::run_chunked(&sim, &x, FS_IN, 3, 256);
        sim.set_prefix_store(Some(Arc::new(PrefixStore::new())));
        let batch_cold = sim.run(&x, FS_IN, 3);
        let batch_warm = sim.run(&x, FS_IN, 3);
        assert_eq!(batch_cold, streamed);
        assert_eq!(batch_warm, streamed);
    }
}

/// Per-class `(hits, misses)` of a store: ct, analog, reference, sampled,
/// encoded.
fn class_counts(store: &PrefixStore) -> [(u64, u64); 5] {
    let s = store.stats();
    [s.ct, s.analog, s.reference, s.sampled, s.encoded].map(|c| (c.hits, c.misses))
}

/// A CS simulator at the test noise level.
fn cs_point(n_bits: u32, cs: CsConfig, plan: Option<FaultPlan>) -> Simulator {
    let mut cfg = SystemConfig::compressive(n_bits, cs);
    cfg.lna.noise_floor_vrms = 2e-6;
    let mut sim = Simulator::new(cfg).expect("valid CS config");
    sim.set_fault_plan(plan);
    sim
}

/// Runs `first` into a fresh store, then `second` against it, and checks
/// that the store left `second`'s output alone. Returns `second`'s
/// per-class counts.
fn counts_after(mut first: Simulator, mut second: Simulator) -> [(u64, u64); 5] {
    let x = tone(4.0);
    let off = second.run(&x, FS_IN, 7);
    let store = Arc::new(PrefixStore::new());
    first.set_prefix_store(Some(Arc::clone(&store)));
    first.run(&x, FS_IN, 7);
    store.reset_stats();
    second.set_prefix_store(Some(Arc::clone(&store)));
    let on = second.run(&x, FS_IN, 7);
    assert_eq!(off, on, "stored artifacts changed the output");
    class_counts(&store)
}

#[test]
fn intermediate_boundaries_serve_runs_without_an_acquired_artifact() {
    let cs_with_m = |m| {
        cs_point(
            8,
            CsConfig {
                m,
                ..Default::default()
            },
            None,
        )
    };
    let mut baseline_cfg = SystemConfig::baseline(8);
    baseline_cfg.lna.noise_floor_vrms = 2e-6;
    let baseline = Simulator::new(baseline_cfg).expect("valid baseline config");
    // (run that fills the store, run under test, its per-class counts).
    let cases = [
        // Two CS points differing only in M share the record's amplified
        // buffer, its clean-clock sampling and its reference; the encoder
        // differs, so its frames miss.
        (
            cs_with_m(150),
            cs_with_m(96),
            [(0, 0), (1, 0), (1, 0), (1, 0), (0, 1)],
        ),
        // A baseline and a CS point at one noise level share only the
        // amplified buffer: their outputs, and so their references, differ
        // in length.
        (
            baseline,
            cs_with_m(150),
            [(0, 0), (1, 0), (0, 1), (0, 1), (0, 1)],
        ),
    ];
    for (first, second, expected) in cases {
        assert_eq!(counts_after(first, second), expected);
    }
}

#[test]
fn encoded_frames_are_shared_past_the_encoder_and_rebuilt_before_it() {
    let cs = CsConfig::default;
    let fault = |kind| Some(FaultPlan::single(kind, 1.0, 99));
    let stored = || cs_point(8, cs(), None);
    // Points that differ only after the encoder hit `encoded` and never
    // look up the sampling it was built from.
    let shared = [(0, 0), (1, 0), (1, 0), (0, 0), (1, 0)];
    // Points that differ in the encoder rebuild its frames from the stored
    // clean-clock sampling.
    let rebuilt = [(0, 0), (1, 0), (1, 0), (1, 0), (0, 1)];
    let cases = [
        ("n_bits", cs_point(6, cs(), None), shared),
        (
            "ADC stuck bit",
            cs_point(8, cs(), fault(FaultKind::AdcStuckBit)),
            shared,
        ),
        (
            "packet loss",
            cs_point(8, cs(), fault(FaultKind::PacketLoss)),
            shared,
        ),
        (
            "C_h",
            cs_point(
                8,
                CsConfig {
                    c_hold_f: 1e-12,
                    ..cs()
                },
                None,
            ),
            rebuilt,
        ),
        (
            "leakage",
            cs_point(8, cs(), fault(FaultKind::CapLeakage)),
            rebuilt,
        ),
    ];
    for (what, second, expected) in cases {
        assert_eq!(counts_after(stored(), second), expected, "{what}");
    }
}

#[test]
fn class_counts_do_not_depend_on_the_worker_count() {
    // 16 points at one LNA noise level: the workers race on the same
    // `analog` keys, and each key must still be built exactly once, so a
    // fresh store counts the same hits and misses at any worker count.
    let space = DesignSpace {
        lna_noise_vrms: vec![2e-6],
        n_bits: vec![6, 7, 8, 9],
        cs_m: vec![75, 96, 150],
        cs_s: vec![2],
        cs_c_hold_f: vec![1e-12],
        ..DesignSpace::paper_defaults()
    };
    let dataset = tiny_dataset();
    let counts = |threads| {
        let store = Arc::new(PrefixStore::new());
        Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads,
            detector_seed: 0,
            ..Default::default()
        })
        .with_prefix_store(Arc::clone(&store))
        .run(&space, &dataset);
        assert_eq!(store.stats().evictions(), 0, "the store must not churn");
        class_counts(&store)
    };
    let one_worker = counts(1);
    for threads in [1, 2, 4] {
        for run in 0..3 {
            assert_eq!(
                counts(threads),
                one_worker,
                "run {run} at {threads} workers (ct, analog, reference, sampled, encoded)"
            );
        }
    }
}
