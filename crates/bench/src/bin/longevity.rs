//! Longevity: long-duration synthetic signal replayed through aging,
//! compound-faulted streaming simulators.
//!
//! For every fault kind, a linear 0→1 severity ramp is streamed over the
//! whole run on the kind's native architecture through
//! [`StreamSimulator::with_compound`], and the stream is scored in fixed
//! windows: SNR against the streaming reference, detection accuracy per
//! signal segment, and the analytic power draw at the window's severity.
//! A final max-severity "gauntlet" pushes every fault kind at once at
//! severity 1 through both architectures and must come back panic-free
//! with finite output.
//!
//! Emits `BENCH_longevity.json` (drift curves + gauntlet verdict) for CI
//! artifact upload and asserts, at every scale, that at least 3 fault
//! kinds degrade SNR monotonically window-over-window under aging.
//!
//! Run: `cargo run --release -p efficsense-bench --bin longevity`
//! (`EFFICSENSE_SCALE=medium|full` lengthens the replay to one/four hours;
//! `--trace <path>.jsonl` / `--metrics <path>.json` stream telemetry.)

use efficsense_bench::{native_architecture, obs_from_args, scale, Scale, StageTable};
use efficsense_core::config::CsConfig;
use efficsense_core::prelude::*;
use efficsense_core::stream::StreamSimulator;
use efficsense_dsp::metrics::snr_fit_db;
use efficsense_obs::json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Master seed of every compound fault stream (fixed: reruns bit-identical).
const FAULT_SEED: u64 = 0x10_96E1;

/// Input samples per `push` — small enough to exercise chunk carry-over,
/// large enough to amortise per-call overhead.
const PUSH_LEN: usize = 4096;

/// Score windows per run (drift-curve resolution).
const WINDOWS: usize = 8;

/// Replay length in seconds at a scale: CI replays ten minutes, full
/// scale replays four hours.
fn replay_seconds(sc: Scale) -> f64 {
    match sc {
        Scale::Reduced => 600.0,
        Scale::Medium => 3600.0,
        Scale::Full => 14400.0,
    }
}

fn config_for(arch: Architecture) -> SystemConfig {
    match arch {
        Architecture::Baseline => SystemConfig::baseline(8),
        Architecture::CompressiveSensing => SystemConfig::compressive(8, CsConfig::default()),
    }
}

/// One labelled slice of the long input signal.
struct Segment {
    start: usize,
    len: usize,
    label: usize,
}

/// The shared replay workload every aging run streams through.
struct Replay {
    input: Vec<f64>,
    segments: Vec<Segment>,
    fs_in: f64,
    /// Actual replay length (window-aligned, so it can undershoot the
    /// requested duration by part of a cycle); aging profiles ramp over
    /// this, not the request.
    seconds: f64,
}

/// Builds the long replay input: concatenated samples, segment table, and
/// the input rate.
///
/// The replay is [`WINDOWS`] repetitions of one fixed record cycle, so
/// every score window sees *identical* signal content — window-to-window
/// drift then measures the aging faults, not which records happened to
/// land in which window. The cycle holds as many dataset records as fit
/// one window of the requested duration (at least two, so both classes
/// stay represented).
fn build_replay(dataset: &EegDataset, seconds: f64) -> Replay {
    let fs_in = dataset.records[0].fs;
    let window_target = (seconds / WINDOWS as f64 * fs_in) as usize;
    let mut cycle: Vec<&Record> = Vec::new();
    let mut cycle_len = 0usize;
    for rec in &dataset.records {
        if cycle.len() >= 2 && cycle_len + rec.samples.len() > window_target {
            break;
        }
        cycle_len += rec.samples.len();
        cycle.push(rec);
    }
    let mut samples = Vec::with_capacity(cycle_len * WINDOWS);
    let mut segments = Vec::new();
    for _ in 0..WINDOWS {
        for rec in &cycle {
            segments.push(Segment {
                start: samples.len(),
                len: rec.samples.len(),
                label: rec.label(),
            });
            samples.extend_from_slice(&rec.samples);
        }
    }
    let seconds = samples.len() as f64 / fs_in;
    Replay {
        input: samples,
        segments,
        fs_in,
        seconds,
    }
}

/// Drift curves of one aging run.
struct Drift {
    label: String,
    architecture: Architecture,
    /// Host seconds the stream itself took (pushes and finish).
    stream_s: f64,
    snr_db: Vec<f64>,
    accuracy: Vec<f64>,
    power_uw: Vec<f64>,
    monotone_snr: bool,
}

/// Streams `input` through `sim` under `plan` and returns the full
/// (output, reference) pair.
fn stream_all(
    sim: &Simulator,
    input: &[f64],
    fs_in: f64,
    plan: &CompoundPlan,
) -> (Vec<f64>, Vec<f64>) {
    let mut stream = StreamSimulator::with_compound(sim, fs_in, 1, plan);
    let mut out = Vec::new();
    let mut reference = Vec::new();
    for chunk in input.chunks(PUSH_LEN) {
        let got = stream.push(chunk);
        out.extend(got.input_referred);
        reference.extend(got.reference);
    }
    let (last, _summary) = stream.finish();
    out.extend(last.input_referred);
    reference.extend(last.reference);
    (out, reference)
}

/// Streams one compound plan over the replay on `architecture` and scores
/// it in [`WINDOWS`] windows.
#[allow(clippy::too_many_lines)]
fn run_plan(
    label: String,
    architecture: Architecture,
    plan: &CompoundPlan,
    replay: &Replay,
    detector: &SeizureDetector,
) -> Drift {
    let _kind_span = efficsense_obs::span!("longevity.kind");
    let (input, segments) = (&replay.input, &replay.segments);
    let (fs_in, seconds) = (replay.fs_in, replay.seconds);
    let cfg = config_for(architecture);
    let f_s = cfg.design.f_sample_hz();
    let v_fs = cfg.design.v_fs;
    let sim = Simulator::new(cfg.clone()).expect("valid config");
    let t0 = Instant::now();
    let (out, reference) = stream_all(&sim, input, fs_in, plan);
    let stream_s = t0.elapsed().as_secs_f64();
    let n = out.len();
    assert!(n > WINDOWS, "stream produced too few samples");

    let mut snr_db = Vec::with_capacity(WINDOWS);
    let mut accuracy = Vec::with_capacity(WINDOWS);
    let mut power_uw = Vec::with_capacity(WINDOWS);
    for w in 0..WINDOWS {
        let lo = n * w / WINDOWS;
        let hi = n * (w + 1) / WINDOWS;
        snr_db.push(snr_fit_db(&reference[lo..hi], &out[lo..hi]));
        // Detection: every signal segment whose output midpoint falls in
        // this window is classified against its known label.
        let (mut hits, mut total) = (0usize, 0usize);
        for seg in segments {
            let mid_in = seg.start + seg.len / 2;
            let mid_out = (mid_in as f64 / fs_in * f_s) as usize;
            if mid_out < lo || mid_out >= hi {
                continue;
            }
            let seg_lo = ((seg.start as f64 / fs_in * f_s) as usize).min(n);
            let seg_hi = (((seg.start + seg.len) as f64 / fs_in * f_s) as usize).min(n);
            if seg_hi <= seg_lo {
                continue;
            }
            total += 1;
            if detector.predict(&out[seg_lo..seg_hi], f_s) == seg.label {
                hits += 1;
            }
        }
        accuracy.push(if total > 0 {
            hits as f64 / total as f64
        } else {
            f64::NAN
        });
        // Analytic power at the window's midpoint severity: the faulted
        // power model (e.g. link retry inflation) evaluated at that epoch.
        let t_mid = seconds * (w as f64 + 0.5) / WINDOWS as f64;
        let aged = Simulator::with_fault_plan(cfg.clone(), plan.materialize(t_mid))
            .expect("valid aged config");
        power_uw.push(aged.power_breakdown(v_fs / 2.0).total().value() * 1e6);
    }

    // Coarse monotonicity: window SNR never rises by more than the jitter
    // tolerance, and the run ends materially worse than it began.
    let tol_db = 0.5;
    let monotone_snr = snr_db.windows(2).all(|w| w[1] <= w[0] + tol_db)
        && snr_db.last().copied().unwrap_or(0.0) < snr_db.first().copied().unwrap_or(0.0) - 1.0;
    Drift {
        label,
        architecture,
        stream_s,
        snr_db,
        accuracy,
        power_uw,
        monotone_snr,
    }
}

/// Parses a severity-profile spec (the `--fault` CLI syntax):
/// `constant:S`, `linear:START:END[:RAMP_S]`, `step:BEFORE:AFTER:AT_S`,
/// or `sinusoid:BASE:AMP:PERIOD_S`. `default_ramp_s` fills a linear
/// profile's omitted ramp (the replay length).
fn parse_profile(spec: &str, default_ramp_s: f64) -> Option<SeverityProfile> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |i: usize| parts.get(i).and_then(|s| s.parse::<f64>().ok());
    match parts.first().copied()? {
        "constant" if parts.len() == 2 => Some(SeverityProfile::Constant(num(1)?)),
        "linear" if parts.len() == 3 || parts.len() == 4 => Some(SeverityProfile::Linear {
            start: num(1)?,
            end: num(2)?,
            ramp_s: if parts.len() == 4 {
                num(3)?
            } else {
                default_ramp_s
            },
        }),
        "step" if parts.len() == 4 => Some(SeverityProfile::Step {
            before: num(1)?,
            after: num(2)?,
            at_s: num(3)?,
        }),
        "sinusoid" if parts.len() == 4 => Some(SeverityProfile::Sinusoid {
            base: num(1)?,
            amplitude: num(2)?,
            period_s: num(3)?,
        }),
        _ => None,
    }
}

/// Collects repeated `--fault <kind>=<profile>` arguments into a compound
/// plan, plus the `--arch baseline|cs` override. Returns `None` when no
/// `--fault` argument is present (default per-kind aging mode).
fn parse_custom_plan(seconds: f64) -> Option<(CompoundPlan, Architecture)> {
    let args: Vec<String> = std::env::args().collect();
    let mut plan = CompoundPlan::new(FAULT_SEED, seconds / 64.0);
    let mut any = false;
    let mut arch = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fault" => {
                let spec = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("--fault requires <kind>=<profile>");
                    std::process::exit(2);
                });
                let (kind_name, profile_spec) = spec.split_once('=').unwrap_or_else(|| {
                    eprintln!("malformed --fault {spec:?}: expected <kind>=<profile>");
                    std::process::exit(2);
                });
                let kind = FaultKind::ALL
                    .into_iter()
                    .find(|k| k.name() == kind_name)
                    .unwrap_or_else(|| {
                        eprintln!("unknown fault kind {kind_name:?}");
                        std::process::exit(2);
                    });
                let profile = parse_profile(profile_spec, seconds).unwrap_or_else(|| {
                    eprintln!("malformed profile {profile_spec:?}");
                    std::process::exit(2);
                });
                plan = plan.with(kind, profile);
                any = true;
                i += 2;
            }
            "--arch" => {
                arch = match args.get(i + 1).map(String::as_str) {
                    Some("baseline") => Some(Architecture::Baseline),
                    Some("cs") => Some(Architecture::CompressiveSensing),
                    other => {
                        eprintln!("--arch must be baseline|cs, got {other:?}");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            _ => i += 1,
        }
    }
    any.then(|| {
        let a = arch.unwrap_or_else(|| {
            native_architecture(plan.faults().first().map_or(FaultKind::LnaRail, |f| f.0))
        });
        (plan, a)
    })
}

/// Max-severity gauntlet: every fault kind at constant severity 1 at once.
/// Passing means the stream neither panicked nor produced non-finite
/// output — quarantine-clean graceful degradation.
fn gauntlet(arch: Architecture, input: &[f64], fs_in: f64) -> (bool, u64) {
    let plan = FaultKind::ALL
        .iter()
        .fold(CompoundPlan::new(FAULT_SEED ^ 0xDEAD, 60.0), |p, &k| {
            p.with(k, SeverityProfile::Constant(1.0))
        });
    let result = catch_unwind(AssertUnwindSafe(|| {
        let sim = Simulator::new(config_for(arch)).expect("valid config");
        let (out, reference) = stream_all(&sim, input, fs_in, &plan);
        let finite = out.iter().all(|v| v.is_finite()) && reference.iter().all(|v| v.is_finite());
        (finite, out.len() as u64)
    }));
    match result {
        Ok((finite, n)) => (finite, n),
        Err(_) => (false, 0),
    }
}

fn main() {
    let obs_session = obs_from_args();
    let sc = scale();
    let dataset = EegDataset::generate(&sc.dataset_config());
    let replay = build_replay(&dataset, replay_seconds(sc));
    let seconds = replay.seconds;
    let custom = parse_custom_plan(seconds);
    println!(
        "=== Longevity: {:.0} s replay ({} segments) x {}, {WINDOWS} windows ===",
        seconds,
        replay.segments.len(),
        match &custom {
            Some((plan, _)) => format!("custom plan [{}]", plan.label()),
            None => format!("{} fault kinds", FaultKind::ALL.len()),
        }
    );

    // One detector shared by every run, trained on the clean dataset at the
    // output rate (the same regime the sweep goals use).
    let f_s = SystemConfig::baseline(8).design.f_sample_hz();
    let detector = SeizureDetector::train_epoched(&dataset, f_s, 2.0, 0xD0D0);
    let drifts: Vec<Drift> = match &custom {
        Some((plan, arch)) => vec![run_plan(plan.label(), *arch, plan, &replay, &detector)],
        None => FaultKind::ALL
            .iter()
            .map(|&kind| {
                let plan = CompoundPlan::new(FAULT_SEED, seconds / 64.0).with(
                    kind,
                    SeverityProfile::Linear {
                        start: 0.0,
                        end: 1.0,
                        ramp_s: seconds,
                    },
                );
                run_plan(
                    kind.to_string(),
                    native_architecture(kind),
                    &plan,
                    &replay,
                    &detector,
                )
            })
            .collect(),
    };
    for d in &drifts {
        println!(
            "  {:<16} ({}): SNR {} dB{}",
            d.label,
            d.architecture,
            d.snr_db
                .iter()
                .map(|v| format!("{v:.1}"))
                .collect::<Vec<_>>()
                .join(" -> "),
            if d.monotone_snr { "  [monotone]" } else { "" }
        );
    }

    // Shorter gauntlet input (severity is constant, duration adds nothing).
    let gauntlet_len = replay.input.len().min((60.0 * replay.fs_in) as usize);
    let gauntlet_input = &replay.input[..gauntlet_len];
    let (base_ok, base_n) = gauntlet(Architecture::Baseline, gauntlet_input, replay.fs_in);
    let (cs_ok, cs_n) = gauntlet(
        Architecture::CompressiveSensing,
        gauntlet_input,
        replay.fs_in,
    );
    println!();
    println!(
        "  gauntlet (all kinds @ severity 1): baseline {} ({base_n} samples), cs {} ({cs_n} samples)",
        if base_ok { "ok" } else { "FAILED" },
        if cs_ok { "ok" } else { "FAILED" },
    );

    let monotone = drifts.iter().filter(|d| d.monotone_snr).count();
    let stream_total_s: f64 = drifts.iter().map(|d| d.stream_s).sum();
    println!(
        "  replay streams: {stream_total_s:.2}s ({})",
        drifts
            .iter()
            .map(|d| format!("{} {:.2}s", d.label, d.stream_s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // The replay's wall time, read beside the core count: a stream overlaps
    // its two front-end stages when a second core is free.
    let stream_wall_s = Json::obj(
        drifts
            .iter()
            .map(|d| (d.label.as_str(), d.stream_s.into()))
            .chain([("total", stream_total_s.into())]),
    );
    let kinds = Json::obj(drifts.iter().map(|d| {
        let drift = Json::obj([
            ("architecture", d.architecture.to_string().into()),
            ("snr_db", d.snr_db.iter().copied().collect()),
            ("accuracy", d.accuracy.iter().copied().collect()),
            ("power_uw", d.power_uw.iter().copied().collect()),
            ("monotone_snr", d.monotone_snr.into()),
        ]);
        (d.label.as_str(), drift)
    }));
    let snap = obs_session.finish();
    let summary = Json::obj([
        ("scale", sc.name().into()),
        ("host", efficsense_bench::host_json()),
        ("stream_wall_s", stream_wall_s),
        ("replay_seconds", seconds.into()),
        ("windows", WINDOWS.into()),
        ("kinds", kinds),
        ("monotone_kinds", monotone.into()),
        (
            "gauntlet",
            Json::obj([
                ("baseline_ok", base_ok.into()),
                ("baseline_samples", base_n.into()),
                ("cs_ok", cs_ok.into()),
                ("cs_samples", cs_n.into()),
            ]),
        ),
        ("profile", StageTable::new(&snap).to_json()),
    ]);
    efficsense_bench::write_bench_json("BENCH_longevity.json", &summary);

    if let Some(s) = snap.span("longevity.kind") {
        let secs = s.total_ns as f64 / 1e9;
        println!(
            "  {} aging runs in {secs:.2}s ({:.0} signal-seconds/s)",
            s.count,
            s.count as f64 * seconds / secs.max(1e-9)
        );
    }

    assert!(
        base_ok,
        "baseline max-severity gauntlet must finish cleanly"
    );
    assert!(cs_ok, "CS max-severity gauntlet must finish cleanly");
    // The monotone-degradation gate only applies to the default per-kind
    // linear-aging matrix, not to ad-hoc `--fault` explorations.
    if custom.is_none() {
        println!();
        println!(
            "{monotone}/{} fault kinds degrade SNR monotonically under linear aging",
            FaultKind::ALL.len()
        );
        assert!(
            monotone >= 3,
            "expected at least 3 monotone-degrading fault kinds under aging, got {monotone}"
        );
    }
}
