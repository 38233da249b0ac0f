//! `cargo xtask trace` — offline analysis of span lineage and registry
//! snapshots.
//!
//! * `trace report` rebuilds the span forest from a JSONL trace, prints
//!   its summary (events, call paths, skipped lines, orphans) and can
//!   write a folded-stack flamegraph (`--folded-out`, speedscope/inferno
//!   format);
//! * `trace diff` compares two registry snapshots (the `--metrics` files
//!   bench binaries write) and attributes the per-evaluation cost change
//!   to individual stages, failing when the new per-evaluation cost
//!   regressed beyond a tolerance.
//!
//! All heavy lifting lives in [`efficsense_obs::profile`]; this module is
//! the CLI veneer (argument parsing, table rendering, file I/O).

use efficsense_obs::profile::{self, Profile, ProfileDiff};
use efficsense_obs::Snapshot;
use std::path::PathBuf;

/// Default fractional per-evaluation regression tolerance for `trace diff`,
/// matching the bench-diff gate: CI boxes are noisy, 2x is a bug.
pub const DEFAULT_TOLERANCE: f64 = 0.3;

/// Parsed `trace report` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportArgs {
    /// JSONL trace to analyse.
    pub input: PathBuf,
    /// Where to write the folded flamegraph text, if anywhere.
    pub folded_out: Option<PathBuf>,
}

/// Parsed `trace diff` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffArgs {
    /// Baseline snapshot JSON path.
    pub old: PathBuf,
    /// Candidate snapshot JSON path.
    pub new: PathBuf,
    /// Fractional per-evaluation regression tolerance.
    pub tolerance: f64,
}

/// Parses `trace report` options.
pub fn parse_report_args(args: &[String]) -> Result<ReportArgs, String> {
    let mut input: Option<PathBuf> = None;
    let mut folded_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.next()) {
            ("--input", Some(p)) => input = Some(PathBuf::from(p)),
            ("--folded-out", Some(p)) => folded_out = Some(PathBuf::from(p)),
            (opt @ ("--input" | "--folded-out"), None) => {
                return Err(format!("{opt} requires a path argument"));
            }
            (other, _) => return Err(format!("unknown trace report option `{other}`")),
        }
    }
    Ok(ReportArgs {
        input: input.ok_or("trace report requires --input <trace.jsonl>")?,
        folded_out,
    })
}

/// Parses `trace diff` options: two positional snapshot paths plus an
/// optional `--tolerance`.
pub fn parse_diff_args(args: &[String]) -> Result<DiffArgs, String> {
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => match it.next().map(|t| t.parse::<f64>()) {
                Some(Ok(v)) if (0.0..1.0).contains(&v) => tolerance = v,
                _ => return Err("--tolerance must be a fraction in [0, 1)".to_string()),
            },
            other if other.starts_with("--") => {
                return Err(format!("unknown trace diff option `{other}`"));
            }
            p => positional.push(PathBuf::from(p)),
        }
    }
    match <[PathBuf; 2]>::try_from(positional) {
        Ok([old, new]) => Ok(DiffArgs {
            old,
            new,
            tolerance,
        }),
        Err(_) => {
            Err("trace diff requires exactly two snapshot paths: <old.json> <new.json>".to_string())
        }
    }
}

/// Renders the stage-attribution table for a snapshot diff.
#[must_use]
pub fn render_diff(d: &ProfileDiff, tolerance: f64) -> String {
    let mut out = format!(
        "trace diff: {} -> {} evaluation(s); point wall per evaluation {:.3} -> {:.3} ms \
         (tolerance {:.0}%)\n",
        d.old_evaluations,
        d.new_evaluations,
        d.old_eval_ns / 1e6,
        d.new_eval_ns / 1e6,
        tolerance * 100.0
    );
    out.push_str(&format!(
        "\n{:<22} {:>14} {:>14} {:>14}\n",
        "stage", "old_us/eval", "new_us/eval", "delta_us/eval"
    ));
    for s in &d.stages {
        // Sub-0.05 µs/eval deltas are formatting noise at this precision.
        if s.delta_ns.abs() < 50.0 && s.old_self_ns < 50.0 && s.new_self_ns < 50.0 {
            continue;
        }
        out.push_str(&format!(
            "{:<22} {:>14.1} {:>14.1} {:>+14.1}\n",
            s.name,
            s.old_self_ns / 1e3,
            s.new_self_ns / 1e3,
            s.delta_ns / 1e3
        ));
    }
    if d.regressed(tolerance) {
        out.push_str(&format!(
            "trace diff: FAIL — per-evaluation cost regressed beyond {:.0}% tolerance\n",
            tolerance * 100.0
        ));
    } else {
        out.push_str("trace diff: ok\n");
    }
    out
}

/// Runs `trace report`: returns the one-line summary of the trace's span
/// forest, writing the folded stacks on the way when asked.
pub fn run_report(args: &ReportArgs) -> Result<String, String> {
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read trace {}: {e}", args.input.display()))?;
    let p = Profile::from_trace(&text);
    if let Some(path) = &args.folded_out {
        std::fs::write(path, p.to_folded())
            .map_err(|e| format!("cannot write folded stacks {}: {e}", path.display()))?;
    }
    Ok(format!(
        "trace: {} events, {} stack path(s), {} skipped line(s), {} orphan(s)\n",
        p.events,
        p.stacks.len(),
        p.skipped_lines,
        p.orphans
    ))
}

/// Runs `trace diff`: returns the rendered attribution plus whether the
/// new snapshot regressed.
pub fn run_diff(args: &DiffArgs) -> Result<(String, bool), String> {
    let load = |label: &str, path: &PathBuf| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {label} snapshot {}: {e}", path.display()))?;
        Snapshot::parse(&text).ok_or_else(|| {
            format!(
                "{label} snapshot {} is not a metrics snapshot",
                path.display()
            )
        })
    };
    let old = load("old", &args.old)?;
    let new = load("new", &args.new)?;
    let d = profile::diff(&old, &new);
    Ok((render_diff(&d, args.tolerance), d.regressed(args.tolerance)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_obs::{LogicalClock, ObsRegistry};
    use std::sync::Arc;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn report_args_require_input() {
        assert!(parse_report_args(&[]).is_err());
        let args = parse_report_args(&s(&["--input", "t.jsonl", "--folded-out", "f.folded"]))
            .expect("parses");
        assert_eq!(args.input, PathBuf::from("t.jsonl"));
        assert_eq!(args.folded_out, Some(PathBuf::from("f.folded")));
        assert!(parse_report_args(&s(&["--input"])).is_err());
        assert!(parse_report_args(&s(&["--bogus", "x"])).is_err());
        assert!(
            parse_report_args(&s(&["--input", "t.jsonl", "--profile-out", "p.json"])).is_err(),
            "the per-stage profile file is gone"
        );
    }

    #[test]
    fn diff_args_take_two_positionals_and_a_tolerance() {
        let args =
            parse_diff_args(&s(&["a.json", "b.json", "--tolerance", "0.1"])).expect("parses");
        assert_eq!(args.old, PathBuf::from("a.json"));
        assert_eq!(args.new, PathBuf::from("b.json"));
        assert!((args.tolerance - 0.1).abs() < 1e-12);
        assert!(parse_diff_args(&s(&["only-one.json"])).is_err());
        assert!(parse_diff_args(&s(&["a", "b", "c"])).is_err());
        assert!(parse_diff_args(&s(&["a", "b", "--tolerance", "2.0"])).is_err());
    }

    /// A snapshot of two sweep points, each one `stage.simulate` deep,
    /// where every clock read advances `tick` ns.
    fn sample_snapshot(tick: u64) -> Snapshot {
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(tick)));
        for _ in 0..2 {
            let _point = reg.span("sweep.point");
            drop(reg.span("stage.simulate"));
        }
        reg.snapshot()
    }

    #[test]
    fn diff_render_flags_regressions() {
        let old = sample_snapshot(1_000);
        let new = sample_snapshot(3_000);
        let d = profile::diff(&old, &new);
        assert!(d.regressed(DEFAULT_TOLERANCE));
        let rendered = render_diff(&d, DEFAULT_TOLERANCE);
        assert!(rendered.contains("FAIL"), "{rendered}");
        assert!(rendered.contains("stage.simulate"), "{rendered}");
        let ok = render_diff(&profile::diff(&old, &old), DEFAULT_TOLERANCE);
        assert!(ok.contains("trace diff: ok"), "{ok}");
    }

    #[test]
    fn run_report_and_diff_round_trip_through_files() {
        let dir = std::env::temp_dir().join(format!(
            "xtask-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let trace = dir.join("trace.jsonl");
        std::fs::write(
            &trace,
            concat!(
                "{\"ts_ns\":1,\"kind\":\"span\",\"name\":\"sweep.point\",",
                "\"fields\":{\"span\":1,\"thread\":0,\"total_ns\":8000,\"self_ns\":8000}}\n",
            ),
        )
        .expect("write trace");
        let folded = dir.join("p.folded");
        let report = run_report(&ReportArgs {
            input: trace,
            folded_out: Some(folded.clone()),
        })
        .expect("report runs");
        assert_eq!(
            report,
            "trace: 1 events, 1 stack path(s), 0 skipped line(s), 0 orphan(s)\n"
        );
        let folded_text = std::fs::read_to_string(&folded).expect("folded written");
        assert_eq!(folded_text, "sweep.point 8000\n");
        let metrics = dir.join("metrics.json");
        std::fs::write(&metrics, sample_snapshot(1_000).to_json()).expect("write snapshot");
        let (rendered, regressed) = run_diff(&DiffArgs {
            old: metrics.clone(),
            new: metrics.clone(),
            tolerance: DEFAULT_TOLERANCE,
        })
        .expect("diff runs");
        assert!(!regressed, "{rendered}");
        assert!(rendered.contains("2 -> 2 evaluation(s)"), "{rendered}");
        let err = run_diff(&DiffArgs {
            old: metrics,
            new: folded,
            tolerance: DEFAULT_TOLERANCE,
        })
        .expect_err("folded stacks are not a snapshot");
        assert!(err.contains("not a metrics snapshot"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
