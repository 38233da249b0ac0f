//! Streaming-pipeline determinism: the chunked, bounded-memory path must
//! be (a) bit-identical to the whole-record batch path on static plans,
//! (b) invariant to chunk size, (c) invariant to decode thread count under
//! compound faults, and (d) telemetry-identical across chunkings under the
//! obs logical clock.

use efficsense_core::config::CsConfig;
use efficsense_core::prelude::*;
use efficsense_core::stream::StreamSimulator;
use efficsense_dsp::spectrum::sine;
use efficsense_obs::LogicalClock;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Serializes access to the global obs registry across the tests in this
/// binary (integration tests get their own process, so only these tests
/// share the registry).
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

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

/// A compound plan touching every block with a different severity shape.
fn compound_plan() -> CompoundPlan {
    CompoundPlan::new(0xC0_FFEE, 0.5)
        .with(
            FaultKind::LnaRail,
            SeverityProfile::Linear {
                start: 0.0,
                end: 0.8,
                ramp_s: 3.0,
            },
        )
        .with(
            FaultKind::ClockJitter,
            SeverityProfile::Sinusoid {
                base: 0.2,
                amplitude: 0.2,
                period_s: 1.5,
            },
        )
        .with(
            FaultKind::DroppedSamples,
            SeverityProfile::Step {
                before: 0.0,
                after: 0.4,
                at_s: 2.0,
            },
        )
        .with(FaultKind::AdcStuckBit, SeverityProfile::Constant(0.3))
        .with(
            FaultKind::CapLeakage,
            SeverityProfile::Linear {
                start: 0.1,
                end: 0.6,
                ramp_s: 4.0,
            },
        )
        .with(
            FaultKind::PacketLoss,
            SeverityProfile::Linear {
                start: 0.0,
                end: 0.7,
                ramp_s: 4.0,
            },
        )
}

/// Runs a compound stream in `chunk_len` pushes and returns the
/// concatenated output pairs plus the summary.
fn run_compound(
    sim: &Simulator,
    input: &[f64],
    chunk_len: usize,
    plan: &CompoundPlan,
) -> (Vec<f64>, Vec<f64>, StreamSummary) {
    let mut stream = StreamSimulator::with_compound(sim, FS_IN, 1, plan);
    let mut out = Vec::new();
    let mut reference = Vec::new();
    for chunk in input.chunks(chunk_len) {
        let got = stream.push(chunk);
        out.extend(got.input_referred);
        reference.extend(got.reference);
    }
    let (last, summary) = stream.finish();
    out.extend(last.input_referred);
    reference.extend(last.reference);
    (out, reference, summary)
}

#[test]
fn clean_stream_is_bit_identical_to_batch_on_both_architectures() {
    let _guard = obs_lock();
    let x = tone(4.0);
    for sim in [baseline_sim(), cs_sim()] {
        let batch = sim.run(&x, FS_IN, 1);
        for chunk_len in [64, 1024] {
            let streamed = StreamSimulator::run_chunked(&sim, &x, FS_IN, 1, chunk_len);
            assert_eq!(batch, streamed, "chunk_len {chunk_len}");
        }
    }
}

#[test]
fn faulted_static_stream_is_bit_identical_to_batch_on_both_architectures() {
    let _guard = obs_lock();
    let x = tone(4.0);
    let plan = everything_plan();
    for cfg in [
        SystemConfig::baseline(8),
        SystemConfig::compressive(8, CsConfig::default()),
    ] {
        let sim = Simulator::with_fault_plan(cfg, plan.clone()).expect("valid faulted config");
        let batch = sim.run(&x, FS_IN, 3);
        for chunk_len in [64, 1024] {
            let streamed = StreamSimulator::run_chunked(&sim, &x, FS_IN, 3, chunk_len);
            assert_eq!(batch, streamed, "chunk_len {chunk_len}");
        }
    }
}

#[test]
fn single_push_equals_many_small_pushes() {
    let _guard = obs_lock();
    let x = tone(3.0);
    let sim = cs_sim();
    let whole = StreamSimulator::run_chunked(&sim, &x, FS_IN, 2, x.len().max(1));
    let tiny = StreamSimulator::run_chunked(&sim, &x, FS_IN, 2, 7);
    assert_eq!(whole, tiny);
}

#[test]
fn compound_stream_is_chunk_size_invariant_on_both_architectures() {
    let _guard = obs_lock();
    let x = tone(5.0);
    let plan = compound_plan();
    for sim in [baseline_sim(), cs_sim()] {
        let (out_a, ref_a, sum_a) = run_compound(&sim, &x, 64, &plan);
        let (out_b, ref_b, sum_b) = run_compound(&sim, &x, 1024, &plan);
        assert_eq!(out_a, out_b);
        assert_eq!(ref_a, ref_b);
        assert_eq!(sum_a, sum_b);
        assert!(!out_a.is_empty());
    }
}

#[test]
fn compound_stream_actually_degrades_the_output() {
    let _guard = obs_lock();
    // Guard against the compound path silently running clean: the faulted
    // stream must differ from the clean stream on the same input.
    let x = tone(4.0);
    let sim = baseline_sim();
    let clean = StreamSimulator::run_chunked(&sim, &x, FS_IN, 1, 256);
    let (faulted, _, _) = run_compound(&sim, &x, 256, &compound_plan());
    assert_ne!(clean.input_referred, faulted);
}

#[test]
fn compound_decode_is_thread_count_invariant() {
    let _guard = obs_lock();
    let x = tone(5.0);
    let plan = compound_plan();
    let mut one = cs_sim();
    one.set_decode_threads(1);
    let mut four = cs_sim();
    four.set_decode_threads(4);
    let (out_one, _, sum_one) = run_compound(&one, &x, 512, &plan);
    let (out_four, _, sum_four) = run_compound(&four, &x, 512, &plan);
    assert_eq!(out_one, out_four);
    assert_eq!(sum_one, sum_four);
}

#[test]
fn logical_clock_snapshot_is_identical_across_chunkings() {
    let _guard = obs_lock();
    let obs = efficsense_obs::global();
    let x = tone(5.0);
    let sim = cs_sim();
    let plan = compound_plan();

    // Warm-up so both measured runs see identical memo-store traffic.
    run_compound(&sim, &x, 256, &plan);

    obs.set_sink(None);
    obs.set_clock(Arc::new(LogicalClock::new(1_000)));

    obs.reset();
    let (out_a, _, _) = run_compound(&sim, &x, 64, &plan);
    let snap_a = obs.snapshot();

    obs.reset();
    let (out_b, _, _) = run_compound(&sim, &x, 1024, &plan);
    let snap_b = obs.snapshot();

    obs.set_clock(Arc::new(efficsense_obs::MonotonicClock::default()));

    assert_eq!(out_a, out_b);
    // Heartbeats, chunk spans, and clock reads all fire at chunk-invariant
    // points, so the full telemetry snapshot matches exactly.
    assert_eq!(snap_a, snap_b);
}

#[test]
fn empty_and_trickle_streams_are_graceful() {
    let _guard = obs_lock();
    let sim = cs_sim();
    let out = StreamSimulator::run_chunked(&sim, &[], FS_IN, 1, 64);
    assert!(out.input_referred.is_empty());
    assert!(out.reference.is_empty());

    // Fewer samples than one CS frame: no decoded output, but clean
    // accounting and no panic.
    let x = tone(0.05);
    let mut stream = StreamSimulator::with_compound(&sim, FS_IN, 1, &compound_plan());
    let mut n = 0usize;
    for chunk in x.chunks(3) {
        n += stream.push(chunk).len();
    }
    let (last, summary) = stream.finish();
    n += last.len();
    assert_eq!(n as u64, summary.out_samples);
}
