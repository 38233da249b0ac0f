//! `cargo xtask` — workspace automation. Three subcommands:
//!
//! ```text
//! cargo xtask lint [--root <dir>] [--format text|json|sarif]
//! cargo xtask bench-diff [--baseline <path>] [--current <path>] [--tolerance <frac>] [--min <rate>]
//! cargo xtask trace report --input <trace.jsonl> [--folded-out <path>]
//! cargo xtask trace diff <old.json> <new.json> [--tolerance <frac>]
//! ```
//!
//! `lint` runs the domain-aware lint pass over every `.rs` file in the
//! workspace and exits non-zero when violations are found (including
//! suppression-budget overruns against `lint-budget.toml` when present at
//! the root). In `text` mode diagnostics print as `file:line: rule-id:
//! message`, one per line, sorted by path; `json` and `sarif` write a
//! machine-readable document to stdout and the human summary to stderr.
//!
//! `bench-diff` compares two `BENCH_sweep.json` summaries (both default to
//! the workspace copy, so at least one path is normally given) and exits
//! non-zero when uncached sweep throughput regressed by more than the
//! tolerance (default 0.3, i.e. 30%). `--min` additionally pins an absolute
//! throughput floor on the current summary, so a refreshed baseline cannot
//! erode back below a hard-won speedup one within-tolerance dip at a time.
//!
//! `trace report` reconstructs the causal span forest from a JSONL trace,
//! prints its summary and optionally writes a folded-stack flamegraph.
//! `trace diff` compares two registry snapshots (`--metrics` files),
//! attributes the per-evaluation cost change to stages, and exits non-zero on
//! a regression beyond the tolerance.

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{bench_diff, trace_cmd};

const USAGE: &str = "usage: cargo xtask lint [--root <dir>] [--format text|json|sarif]\n       cargo xtask bench-diff [--baseline <path>] [--current <path>] [--tolerance <frac>] [--min <rate>]\n       cargo xtask trace report --input <trace.jsonl> [--folded-out <path>]\n       cargo xtask trace diff <old.json> <new.json> [--tolerance <frac>]";

/// Output mode for `cargo xtask lint`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("bench-diff") => bench_diff_cmd(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!(
                        "--format must be text, json or sarif, got `{}`",
                        other.unwrap_or("<missing>")
                    );
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown lint option `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    let mut report = match xtask::lint_workspace_report(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xtask lint: I/O error under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    // Suppression budget: enforced whenever the committed budget file is
    // present at the lint root (it always is at the workspace root).
    let budget_path = root.join("lint-budget.toml");
    match std::fs::read_to_string(&budget_path) {
        Ok(text) => match xtask::budget::parse(&text) {
            Ok(budget) => report
                .diagnostics
                .extend(xtask::budget::check(&budget, &report.allow_counts)),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!(
                "xtask lint: note: no lint-budget.toml under {}; suppression budget not enforced",
                root.display()
            );
        }
        Err(e) => {
            eprintln!("xtask lint: cannot read {}: {e}", budget_path.display());
            return ExitCode::FAILURE;
        }
    }

    match format {
        Format::Json => println!("{}", xtask::emit::render_json(&report)),
        Format::Sarif => println!("{}", xtask::emit::render_sarif(&report.diagnostics)),
        Format::Text => {
            for d in &report.diagnostics {
                println!("{d}");
            }
        }
    }
    // In machine-readable modes the human summary goes to stderr so the
    // stdout document stays parseable.
    let summary = if report.diagnostics.is_empty() {
        "xtask lint: clean".to_string()
    } else {
        format!("xtask lint: {} violation(s)", report.diagnostics.len())
    };
    if format == Format::Text {
        println!("{summary}");
    } else {
        eprintln!("{summary}");
    }
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn bench_diff_cmd(args: &[String]) -> ExitCode {
    let default_summary = workspace_root().join("BENCH_sweep.json");
    let mut baseline = default_summary.clone();
    let mut current = default_summary;
    let mut tolerance = bench_diff::DEFAULT_TOLERANCE;
    let mut min: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.next()) {
            ("--baseline", Some(p)) => baseline = PathBuf::from(p),
            ("--current", Some(p)) => current = PathBuf::from(p),
            ("--tolerance", Some(t)) => match t.parse::<f64>() {
                Ok(v) if (0.0..1.0).contains(&v) => tolerance = v,
                _ => {
                    eprintln!("--tolerance must be a fraction in [0, 1), got `{t}`");
                    return ExitCode::FAILURE;
                }
            },
            ("--min", Some(v)) => match v.parse::<f64>() {
                Ok(f) if f.is_finite() && f > 0.0 => min = Some(f),
                _ => {
                    eprintln!("--min must be a positive throughput in points/s, got `{v}`");
                    return ExitCode::FAILURE;
                }
            },
            (opt @ ("--baseline" | "--current" | "--tolerance" | "--min"), None) => {
                eprintln!("{opt} requires an argument");
                return ExitCode::FAILURE;
            }
            (other, _) => {
                eprintln!("unknown bench-diff option `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let read = |label: &str, path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {label} summary {}: {e}", path.display()))
    };
    let diff = read("baseline", &baseline)
        .and_then(|b| Ok((b, read("current", &current)?)))
        .and_then(|(b, c)| bench_diff::compare(&b, &c));
    match diff {
        Ok(diff) => {
            let floor_note = min.map_or(String::new(), |f| format!(", floor {f} points/s"));
            println!(
                "bench-diff: {} vs {} (tolerance {:.0}%{floor_note})",
                baseline.display(),
                current.display(),
                tolerance * 100.0
            );
            println!("{}   [gated]", bench_diff::render_line(&diff.gated));
            for d in &diff.informational {
                println!("{}", bench_diff::render_line(d));
            }
            if diff.regressed(tolerance) {
                println!(
                    "bench-diff: FAIL — {} regressed beyond {:.0}% tolerance",
                    bench_diff::GATED_METRIC,
                    tolerance * 100.0
                );
                ExitCode::FAILURE
            } else if let Some(floor) = min.filter(|&f| diff.below_floor(f)) {
                println!(
                    "bench-diff: FAIL — {} = {:.4} is below the absolute floor {floor}",
                    bench_diff::GATED_METRIC,
                    diff.gated.current
                );
                ExitCode::FAILURE
            } else {
                println!("bench-diff: ok");
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::FAILURE
        }
    }
}

fn trace(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("report") => {
            match trace_cmd::parse_report_args(&args[1..]).and_then(|a| trace_cmd::run_report(&a)) {
                Ok(rendered) => {
                    print!("{rendered}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("trace report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("diff") => {
            match trace_cmd::parse_diff_args(&args[1..]).and_then(|a| trace_cmd::run_diff(&a)) {
                Ok((rendered, regressed)) => {
                    print!("{rendered}");
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("trace diff: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("trace requires a `report` or `diff` subcommand\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root is two levels up from this crate's manifest
/// (`crates/xtask` → workspace), falling back to the current directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}
