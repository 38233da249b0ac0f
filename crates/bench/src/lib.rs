//! Shared helpers for the EffiCSense benchmark harness.
//!
//! Every paper table/figure has a regeneration binary in `src/bin/`; this
//! library provides the common workload scaling and output plumbing.
//!
//! Workload scale is controlled by `EFFICSENSE_SCALE`
//! (`reduced` default / `medium` / `full`) or the shorthand
//! `EFFICSENSE_FULL=1`:
//! * reduced — CI-friendly workload (minutes on one core);
//! * medium — 102 × 23.6 s records, full Table III grid (tens of minutes);
//! * full — paper-scale evaluation (hours; 501 × 23.6 s records).

use efficsense_core::prelude::*;
use efficsense_obs::json::Json;
use efficsense_signals::DatasetConfig;
use std::path::{Path, PathBuf};

/// Workload scale of the figure-regeneration binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly: 15 records of 8 s, reduced grid (minutes on one core).
    Reduced,
    /// 102 records of 23.6 s, full Table III grid (tens of minutes).
    Medium,
    /// The paper's 501 records of 23.6 s, full grid (hours).
    Full,
}

impl Scale {
    /// Short name used in cache file names.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Reduced => "reduced",
            Scale::Medium => "medium",
            Scale::Full => "full",
        }
    }
}

/// Reads the requested scale: `EFFICSENSE_FULL=1` → full,
/// `EFFICSENSE_SCALE=medium|full|reduced` otherwise (default reduced).
pub fn scale() -> Scale {
    if std::env::var("EFFICSENSE_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return Scale::Full;
    }
    match std::env::var("EFFICSENSE_SCALE").as_deref() {
        Ok("medium") => Scale::Medium,
        Ok("full") => Scale::Full,
        _ => Scale::Reduced,
    }
}

/// Returns `true` when paper-scale evaluation was requested.
pub fn full_scale() -> bool {
    scale() == Scale::Full
}

/// Dataset configuration for experiments, honouring the scale switch.
pub fn dataset_config() -> DatasetConfig {
    match scale() {
        Scale::Full => DatasetConfig::paper_scale(0xEEC5),
        Scale::Medium => DatasetConfig {
            records_per_class: 34,
            ..Default::default()
        },
        Scale::Reduced => DatasetConfig {
            records_per_class: 5,
            duration_s: 8.0,
            ..Default::default()
        },
    }
}

/// Design space for experiments, honouring the scale switch.
pub fn design_space() -> DesignSpace {
    match scale() {
        Scale::Full | Scale::Medium => DesignSpace::paper_defaults(),
        Scale::Reduced => DesignSpace::reduced(),
    }
}

/// Output directory for generated figures (`target/figures`), created on
/// demand.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn figures_dir() -> PathBuf {
    let dir = Path::new("target").join("figures");
    std::fs::create_dir_all(&dir).expect("can create target/figures");
    dir
}

/// Writes `contents` into `target/figures/<name>` and logs the path.
///
/// # Panics
///
/// Panics on I/O errors.
pub fn save_figure(name: &str, contents: &str) {
    let path = figures_dir().join(name);
    std::fs::write(&path, contents).expect("can write figure file");
    println!("  wrote {}", path.display());
}

/// Formats watts as a µW string.
pub fn uw(p_w: f64) -> String {
    format!("{:.3} µW", p_w * 1e6)
}

/// A bench binary's telemetry session: holds where to write the final
/// metrics snapshot (see [`obs_from_args`]). Dropping the session does
/// nothing — call [`ObsSession::finish`] once the workload is done.
#[derive(Debug)]
pub struct ObsSession {
    metrics_path: Option<PathBuf>,
}

/// Wires the global [`efficsense_obs`] registry from the process arguments:
/// `--trace <path>` installs a buffered JSONL trace sink, `--trace-sample
/// <n>` keeps only every nth span *tree* in that trace (whole trees, so
/// lineage never dangles; histograms still see everything), and
/// `--metrics <path>` marks where [`ObsSession::finish`] writes the final
/// snapshot JSON. Without any flag this is free — no sink, no snapshot
/// file.
pub fn obs_from_args() -> ObsSession {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(path) = flag("--trace") {
        match std::fs::File::create(&path) {
            Ok(f) => {
                efficsense_obs::global().set_sink(Some(Box::new(std::io::BufWriter::new(f))));
                println!("  tracing to {path}");
            }
            Err(e) => eprintln!("warning: cannot open trace file {path}: {e}"),
        }
    }
    if let Some(every) = flag("--trace-sample") {
        match every.parse::<u64>() {
            Ok(n) if n >= 1 => {
                efficsense_obs::global().set_trace_sampling(n);
                if n > 1 {
                    println!("  trace sampling: every {n}th span tree");
                }
            }
            _ => eprintln!("warning: --trace-sample expects a positive integer, got `{every}`"),
        }
    }
    ObsSession {
        metrics_path: flag("--metrics").map(PathBuf::from),
    }
}

impl ObsSession {
    /// Emits the registry's closing counter totals into the trace (so an
    /// offline profile can join cache counters with span durations),
    /// flushes the sink and freezes the registry. When the session was
    /// started with `--metrics <path>`, the snapshot JSON is written there
    /// too.
    ///
    /// # Panics
    ///
    /// Panics when the metrics file cannot be written, like every other
    /// bench output.
    pub fn finish(&self) -> efficsense_obs::Snapshot {
        let obs = efficsense_obs::global();
        obs.emit_counters();
        obs.flush();
        let snap = obs.snapshot();
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, snap.to_json()).expect("can write metrics snapshot");
            println!("  wrote metrics snapshot to {}", path.display());
        }
        snap
    }
}

/// The per-stage profile block of a `BENCH_*.json` summary (its
/// `"profile"` key): the top stages by self time with their share of total
/// self time, plus per-occurrence quantile upper bounds from the histogram
/// buckets.
#[must_use]
pub fn profile_summary_json(snap: &efficsense_obs::Snapshot) -> Json {
    let mut rows: Vec<(&String, &efficsense_obs::HistogramSnapshot)> =
        snap.spans.iter().map(|(n, s)| (n, s)).collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(b.0)));
    let total_self: u64 = rows.iter().map(|(_, s)| s.self_ns).sum();
    let stages = rows
        .iter()
        .take(8)
        .map(|(name, s)| {
            let share = if total_self == 0 {
                0.0
            } else {
                s.self_ns as f64 / total_self as f64
            };
            Json::obj([
                ("stage", name.as_str().into()),
                ("count", s.count.into()),
                ("self_s", (s.self_ns as f64 / 1e9).into()),
                ("self_share", share.into()),
                ("p50_us", s.p50_us().into()),
                ("p95_us", s.p95_us().into()),
                ("p99_us", s.p99_us().into()),
            ])
        })
        .collect();
    Json::obj([
        ("total_self_s", (total_self as f64 / 1e9).into()),
        ("stages", stages),
    ])
}

/// The `"host"` block of every `BENCH_*.json` summary: the core count the
/// numbers were measured with, since scaling figures taken on a 1–2-core
/// host say nothing about the code.
#[must_use]
pub fn host_json() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([("available_parallelism", cores.into())])
}

/// Writes a bench summary to `path` as indented JSON and logs the path.
///
/// # Panics
///
/// Panics on I/O errors, like every other bench output.
pub fn write_bench_json(path: &str, summary: &Json) {
    std::fs::write(path, format!("{summary:#}\n")).expect("can write bench summary");
    println!("  wrote {path}");
}

/// Runs (or loads from the figure cache) the main design-space sweep used by
/// Figs. 7–10. The cache lives in `target/figures` and is keyed by metric
/// and workload scale, so `fig8`/`fig9`/`fig10` reuse `fig7`'s results.
///
/// The sweep runs under [`FailurePolicy::Skip`] and persists its quarantine
/// (point label, typed error, message) to a `*_quarantine.csv` sibling
/// of the results CSV, so an overnight figure run that loses points leaves
/// an inspectable record instead of dying or silently thinning the figure.
pub fn sweep_cached(metric: efficsense_core::sweep::Metric) -> Vec<SweepResult> {
    use efficsense_core::sweep::Metric;
    let scale = scale().name();
    let name = match metric {
        Metric::Snr => format!("sweep_snr_{scale}.csv"),
        Metric::DetectionAccuracy => format!("sweep_accuracy_{scale}.csv"),
    };
    let path = figures_dir().join(&name);
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Some(results) = parse_results(&text) {
            println!(
                "  loaded {} cached design points from {}",
                results.len(),
                path.display()
            );
            return results;
        }
    }
    let dataset = EegDataset::generate(&dataset_config());
    let space = design_space();
    println!(
        "  sweeping {} design points over {} records ({} scale)…",
        space.len(),
        dataset.len(),
        scale
    );
    let report = Sweep::new(SweepConfig {
        metric,
        failure_policy: FailurePolicy::Skip,
        ..Default::default()
    })
    .run_report(&space, &dataset);
    if !report.quarantine.is_empty() {
        println!("  {}", report.summary());
    }
    persist_quarantine(&name, &report);
    let results = report.results;
    let mut buf = Vec::new();
    efficsense_core::report::write_csv(&mut buf, &results).expect("write to vec succeeds");
    std::fs::write(&path, &buf).expect("can write sweep cache");
    println!("  cached sweep to {}", path.display());
    results
}

/// Writes `report`'s quarantine next to the results CSV `name` (suffix
/// `_quarantine.csv`). Always written — a header-only file is the healthy
/// outcome and distinguishes "no failures" from "never ran".
///
/// # Panics
///
/// Panics on I/O errors, like every figure-cache write.
pub fn persist_quarantine(results_csv_name: &str, report: &SweepReport) {
    let qname = match results_csv_name.strip_suffix(".csv") {
        Some(stem) => format!("{stem}_quarantine.csv"),
        None => format!("{results_csv_name}_quarantine.csv"),
    };
    let mut buf = Vec::new();
    efficsense_core::report::write_quarantine_csv(&mut buf, &report.quarantine)
        .expect("write to vec succeeds");
    let qpath = figures_dir().join(&qname);
    std::fs::write(&qpath, &buf).expect("can write quarantine file");
    if !report.quarantine.is_empty() {
        let obs = efficsense_obs::global();
        if obs.sink_enabled() {
            let ev = efficsense_obs::TraceEvent::new(obs.now_ns(), "quarantine", &qname)
                .field("count", report.quarantine.len())
                .field("total", report.points_total);
            obs.emit(&ev);
        }
        println!(
            "  quarantined {} point(s) → {}",
            report.quarantine.len(),
            qpath.display()
        );
    }
}

/// Parses a sweep CSV produced by [`efficsense_core::report::write_csv`]
/// back into results. Returns `None` on any format mismatch.
pub fn parse_results(text: &str) -> Option<Vec<SweepResult>> {
    use efficsense_core::config::Architecture;
    use efficsense_core::space::DesignPoint;
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let idx = |name: &str| header.iter().position(|h| *h == name);
    let (i_arch, i_noise, i_bits) = (
        idx("architecture")?,
        idx("lna_noise_uvrms")?,
        idx("n_bits")?,
    );
    let (i_m, i_s, i_ch) = (idx("m")?, idx("s")?, idx("c_hold_pf")?);
    let (i_metric, i_power, i_area) = (idx("metric")?, idx("power_uw")?, idx("area_units")?);
    let block_cols: Vec<(usize, BlockKind)> = [
        ("lna_uw", BlockKind::Lna),
        ("sh_uw", BlockKind::SampleHold),
        ("comparator_uw", BlockKind::Comparator),
        ("sar_logic_uw", BlockKind::SarLogic),
        ("dac_uw", BlockKind::Dac),
        ("tx_uw", BlockKind::Transmitter),
        ("cs_logic_uw", BlockKind::CsEncoderLogic),
        ("leakage_uw", BlockKind::Leakage),
    ]
    .iter()
    .filter_map(|(n, k)| idx(n).map(|i| (i, *k)))
    .collect();
    let mut out = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != header.len() {
            return None;
        }
        let architecture = match f[i_arch] {
            "baseline" => Architecture::Baseline,
            "cs" => Architecture::CompressiveSensing,
            _ => return None,
        };
        let mut breakdown = PowerBreakdown::new();
        for &(i, k) in &block_cols {
            let w: f64 = f[i].parse().ok()?;
            breakdown.add(k, efficsense_power::Watts::micro(w));
        }
        out.push(SweepResult {
            point: DesignPoint {
                architecture,
                lna_noise_vrms: f[i_noise].parse::<f64>().ok()? * 1e-6,
                n_bits: f[i_bits].parse().ok()?,
                m: f[i_m].parse().ok(),
                s: f[i_s].parse().ok(),
                c_hold_f: f[i_ch].parse::<f64>().ok().map(|v| v * 1e-12),
            },
            metric: f[i_metric].parse().ok()?,
            power_w: f[i_power].parse::<f64>().ok()? * 1e-6,
            breakdown,
            area_units: f[i_area].parse().ok()?,
        });
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_config_is_small() {
        if !full_scale() {
            let c = dataset_config();
            assert!(c.records_per_class <= 10);
            assert!(c.duration_s <= 10.0);
        }
    }

    #[test]
    fn figures_dir_exists_after_call() {
        let d = figures_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn uw_formats() {
        assert_eq!(uw(2.44e-6), "2.440 µW");
    }

    #[test]
    fn csv_roundtrip_preserves_results() {
        use efficsense_core::config::Architecture;
        use efficsense_core::space::DesignPoint;
        let mut breakdown = PowerBreakdown::new();
        breakdown.add(BlockKind::Lna, efficsense_power::Watts(1.5e-6));
        breakdown.add(BlockKind::Transmitter, efficsense_power::Watts(4.3e-6));
        let original = vec![SweepResult {
            point: DesignPoint {
                architecture: Architecture::CompressiveSensing,
                lna_noise_vrms: 3.61e-6,
                n_bits: 8,
                m: Some(75),
                s: Some(2),
                c_hold_f: Some(0.5e-12),
            },
            metric: 0.9933,
            power_w: 5.8e-6,
            breakdown,
            area_units: 76000.0,
        }];
        let mut buf = Vec::new();
        efficsense_core::report::write_csv(&mut buf, &original).expect("writes to vec");
        let text = String::from_utf8(buf).expect("utf8");
        let parsed = parse_results(&text).expect("parses back");
        assert_eq!(parsed.len(), 1);
        let (a, b) = (&original[0], &parsed[0]);
        assert_eq!(a.point.architecture, b.point.architecture);
        assert_eq!(a.point.n_bits, b.point.n_bits);
        assert_eq!(a.point.m, b.point.m);
        assert!((a.point.lna_noise_vrms - b.point.lna_noise_vrms).abs() < 1e-10);
        assert!((a.metric - b.metric).abs() < 1e-5);
        assert!((a.power_w - b.power_w).abs() < 1e-11);
        let lna_err = a.breakdown.get(BlockKind::Lna) - b.breakdown.get(BlockKind::Lna);
        assert!(lna_err.value().abs() < 1e-11);
        assert!((a.area_units - b.area_units).abs() < 1.0);
    }

    #[test]
    fn bench_json_files_parse() {
        // Every BENCH_*.json at the repository root, committed or freshly
        // written by a bench binary, must be a document `obs::json` reads.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut checked = Vec::new();
        for entry in std::fs::read_dir(&root).expect("repository root is readable") {
            let path = entry.expect("directory entry").path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).expect("bench JSON is readable");
                assert!(Json::parse(&text).is_some(), "{name} is not valid JSON");
                checked.push(name);
            }
        }
        assert!(!checked.is_empty(), "no BENCH_*.json found in {root:?}");
    }

    #[test]
    fn parse_rejects_malformed_csv() {
        assert!(parse_results("not,a,sweep\n1,2,3\n").is_none());
        assert!(parse_results("").is_none());
    }
}
