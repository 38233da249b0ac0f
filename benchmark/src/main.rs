//! The EffiCSense benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <product_cold|cs_snr|stream_aging> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times whole passes of the workload for `--seconds`
//! and reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics of a separate, traced run. Either way it prints one
//! detail line and then the result line
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! standard output. `README.md` explains the workloads and metrics.

mod trace;
mod util;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;
use util::{metric, Digest, Metric};
use workloads::{reference_check, run_pass, score_stream, setup_reps, time_setup, Spec, Workload};

/// The seed whose result digests are committed in `digests.json`.
pub const DEFAULT_SEED: u64 = 1;
/// Share of the timed passes' time spent re-timing set-up between them.
const SETUP_SHARE: f64 = 0.1;
/// Result digests of every workload at [`DEFAULT_SEED`].
const DIGESTS: &str = include_str!("../digests.json");

const USAGE: &str = "usage: efficsense-benchmark --workload <product_cold|cs_snr|stream_aging> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// What one run reports: the result line's fields and the detail line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub detail: String,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Holds the results of a default-seed run to the committed digest. Any
/// other seed has nothing committed to compare with. Returns the digest, or
/// an error (with a note) when it differs from the committed one.
pub fn committed_check(
    workload: Workload,
    seed: u64,
    hashes: &[u64],
    notes: &mut Vec<String>,
) -> Result<u64, u64> {
    let digest = Digest::of(hashes.iter().copied());
    if seed != DEFAULT_SEED {
        return Ok(digest);
    }
    let committed = efficsense_obs::json::Json::parse(DIGESTS).and_then(|j| {
        j.get(workload.name())
            .and_then(|v| v.as_str().map(str::to_string))
    });
    if committed.as_deref() == Some(format!("{digest:016x}").as_str()) {
        Ok(digest)
    } else {
        notes.push(format!(
            "digest {digest:016x} differs from the committed {}: results changed, so no point is vouched for",
            committed.unwrap_or_else(|| "(none)".to_string())
        ));
        Err(digest)
    }
}

/// The measured (untraced) run: set-up several times, then whole passes
/// for `seconds`, then the output checks outside the timed region.
fn measure(args: &Args) -> Outcome {
    let (p, times) = setup_reps(args.workload, args.seed);
    let mut setup_s: Vec<f64> = times.iter().map(|t| t.total_s).collect();
    // Host speed drifts in phases of seconds, so set-up is re-timed between
    // passes too, with a small share of the run: its fastest time then has
    // the whole run's quiet stretches to fall in, not only its first second.
    let typical_setup_s = util::median(&setup_s);
    let mut setup_budget_s = 0.0;
    let t_run = Instant::now();
    let mut passes = Vec::new();
    let mut hwm_mib = Vec::new();
    while passes.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(&p, p.workers());
        hwm_mib.push(util::peak_rss_mib().unwrap_or(f64::NAN));
        setup_budget_s += SETUP_SHARE * pass.wall_s;
        passes.push(pass);
        while setup_budget_s >= typical_setup_s {
            let t = time_setup(args.workload, args.seed).total_s;
            setup_budget_s -= t;
            setup_s.push(t);
        }
    }

    let points = p.points() as u64;
    let first = &passes[0].hashes;
    let mut attempted = points * passes.len() as u64;
    let mut failed: u64 = passes
        .iter()
        .map(|q| (q.failed + util::mismatches(first, &q.hashes)) as u64)
        .sum();
    let mut notes = Vec::new();
    let digest = committed_check(args.workload, args.seed, first, &mut notes);
    let mut window_snr_db = Vec::new();
    let (a, f) = match &p.spec {
        Spec::Sweep(spec) => reference_check(spec, &p.inputs, first),
        Spec::Stream(spec) => {
            let (hashes, snr) = score_stream(spec);
            window_snr_db = snr;
            (hashes.len(), util::mismatches(first, &hashes))
        }
    };
    attempted += a as u64;
    failed += f as u64;
    if f > 0 {
        notes.push(format!(
            "{f} of {a} re-checked points differ from the timed passes"
        ));
    }
    if digest.is_err() {
        failed = attempted;
    }

    // Points per host second of a pass, each unit (a slice of a fault cell,
    // or a plan) at its fastest time of the run, and likewise the fastest
    // set-up. Every repetition does the same work, and a shared host only
    // ever adds time: its co-tenants slow everything by up to 1.8x for tens
    // of seconds at a stretch, so a run's total or median measures which
    // stretch it landed in, while the fastest repetition is the work's cost
    // whenever the host was quiet for that long.
    let units: Vec<&[f64]> = passes.iter().map(|q| q.unit_s.as_slice()).collect();
    let fastest_pass_s = util::fastest_total(&units);
    let metrics = vec![
        metric("points_per_s", "1/s", points as f64 / fastest_pass_s),
        metric(
            "setup_s",
            "s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        // The peak through set-up and the first pass, which hold the whole
        // working set. Later passes repeat the same work in freed memory,
        // yet on product_cold the peak still creeps up by 0–25% over a run
        // as the two workers' allocations fragment the heap in an order that
        // depends on thread timing; the first pass's peak varies by ~1%.
        metric("peak_rss_mib", "MiB", hwm_mib[0]),
    ];
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let stores = passes[0].stores.map_or_else(
        || "null".to_string(),
        |(l1, l3)| {
            format!(
                "{{\"l1_hits\": {}, \"l1_misses\": {}, \"l3_hits\": {}, \"l3_misses\": {}, \"l3_evictions\": {}}}",
                l1.hits,
                l1.misses,
                l3.hits(),
                l3.misses(),
                l3.evictions()
            )
        },
    );
    let snr: Vec<String> = window_snr_db
        .iter()
        .map(|v| {
            if v.is_finite() {
                format!("{v:.3}")
            } else {
                "null".to_string()
            }
        })
        .collect();
    let detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": 0, \"host\": {}, \"points_per_pass\": {points}, \
         \"passes\": {}, \"pass_s\": [{}], \"unit_s\": [{}], \"fastest_pass_s\": {fastest_pass_s:.6}, \"hwm_mib\": [{}], \
         \"setup_reps\": {}, \"setup_s_last\": [{}], \"digest\": \"{:016x}\", \"stores\": {stores}, \
         \"window_snr_db\": [{}], \"notes\": [{}]}}",
        args.workload.name(),
        args.seed,
        util::host_json(),
        passes.len(),
        list(&passes.iter().map(|q| q.wall_s).collect::<Vec<_>>()),
        units
            .iter()
            .map(|u| format!("[{}]", list(u)))
            .collect::<Vec<_>>()
            .join(", "),
        list(&hwm_mib),
        setup_s.len(),
        list(&setup_s[setup_s.len().saturating_sub(5)..]),
        digest.unwrap_or_else(|d| d),
        snr.join(", "),
        notes
            .iter()
            .map(|n| format!("\"{}\"", efficsense_obs::json::escape(n)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let o = if args.trace {
        trace::run(args.workload, args.seed, args.seconds)
    } else {
        measure(&args)
    };
    println!("{}", o.detail);
    println!("{}", util::result_line(o.attempted, o.failed, &o.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload cs_snr --seed 42 --seconds 10 --trace 1").expect("parses");
        assert_eq!(a.workload, Workload::CsSnr);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload cs_snr --trace 2").is_err());
        assert!(args("--workload cs_snr --seconds 0").is_err());
        assert!(args("--workload cs_snr --seed").is_err());
    }

    #[test]
    fn end_to_end_names_are_valid() {
        for name in ["points_per_s", "setup_s", "peak_rss_mib"] {
            assert!(util::valid_metric_name(name));
        }
    }

    #[test]
    fn committed_digests_cover_every_workload() {
        let json = efficsense_obs::json::Json::parse(DIGESTS).expect("digests.json is JSON");
        for w in Workload::ALL {
            let hex = json
                .get(w.name())
                .and_then(|v| v.as_str())
                .expect("a digest per workload");
            assert_eq!(hex.len(), 16, "{hex}");
            assert!(u64::from_str_radix(hex, 16).is_ok());
        }
    }

    #[test]
    fn only_the_default_seed_is_held_to_the_committed_digest() {
        let mut notes = Vec::new();
        assert!(committed_check(Workload::CsSnr, DEFAULT_SEED + 1, &[1, 2], &mut notes).is_ok());
        assert!(committed_check(Workload::CsSnr, DEFAULT_SEED, &[1, 2], &mut notes).is_err());
        assert_eq!(notes.len(), 1);
    }

    /// `BENCHMARK.json` at the repository root must list exactly the metrics
    /// this benchmark reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let json = efficsense_obs::json::Json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = [
            ("points_per_s", "1/s"),
            ("setup_s", "s"),
            ("peak_rss_mib", "MiB"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = trace::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
