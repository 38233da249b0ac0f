//! Shared helpers for the EffiCSense benchmark harness.
//!
//! Every paper table/figure has a regeneration binary in `src/bin/`; this
//! library provides the common workload scaling and output plumbing.
//!
//! Workload scale is controlled by `EFFICSENSE_SCALE`
//! (`reduced` default / `medium` / `full`; any other value is an error):
//! * reduced — CI-friendly workload (minutes on one core);
//! * medium — 102 × 23.6 s records, full Table III grid (tens of minutes);
//! * full — paper-scale evaluation (hours; 501 × 23.6 s records).

use efficsense_core::cache::SweepCache;
use efficsense_core::prelude::*;
use efficsense_obs::json::Json;
use efficsense_signals::DatasetConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

    /// Parses a value of `EFFICSENSE_SCALE`, where `None` (unset) means
    /// [`Scale::Reduced`].
    ///
    /// # Errors
    ///
    /// Any value other than `reduced`, `medium` or `full`, so that a typo
    /// never runs (and caches) one scale under another's name.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("reduced") => Ok(Scale::Reduced),
            Some("medium") => Ok(Scale::Medium),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "EFFICSENSE_SCALE must be reduced, medium or full (or unset), got `{other}`"
            )),
        }
    }

    /// The experiments' dataset at this scale.
    pub fn dataset_config(self) -> DatasetConfig {
        match self {
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

    /// The experiments' design space at this scale.
    pub fn design_space(self) -> DesignSpace {
        match self {
            Scale::Full | Scale::Medium => DesignSpace::paper_defaults(),
            Scale::Reduced => DesignSpace::reduced(),
        }
    }
}

/// Reads the requested scale from `EFFICSENSE_SCALE=reduced|medium|full`
/// (default reduced). Exits the process with status 2 on any other value,
/// so each binary calls it once, in `main`.
pub fn scale() -> Scale {
    let value = std::env::var_os("EFFICSENSE_SCALE");
    let value = value.as_deref().map(std::ffi::OsStr::to_string_lossy);
    Scale::parse(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The architecture a fault kind natively lives on: hold-capacitor
/// leakage acts only on the CS chain's charge-sharing encoder, and every
/// other kind is scored on the Nyquist baseline.
pub fn native_architecture(kind: FaultKind) -> Architecture {
    match kind {
        FaultKind::CapLeakage => Architecture::CompressiveSensing,
        _ => Architecture::Baseline,
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
    /// Flushes the trace sink and freezes the registry. When the session
    /// was started with `--metrics <path>`, the snapshot JSON is written
    /// there too.
    ///
    /// # Panics
    ///
    /// Panics when the metrics file cannot be written, like every other
    /// bench output.
    pub fn finish(&self) -> efficsense_obs::Snapshot {
        let obs = efficsense_obs::global();
        obs.flush();
        let snap = obs.snapshot();
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, snap.to_json()).expect("can write metrics snapshot");
            println!("  wrote metrics snapshot to {}", path.display());
        }
        snap
    }
}

/// A snapshot's per-stage table: every span that recorded an occurrence,
/// ordered by self time (name breaks ties), with its share of the summed
/// self time. Its p50/p95/p99 are the histogram's bucket-ceiling bounds
/// ([`HistogramSnapshot::quantile_upper_us`]), the same figures
/// `--metrics` reports.
///
/// [`HistogramSnapshot::quantile_upper_us`]: efficsense_obs::HistogramSnapshot::quantile_upper_us
#[derive(Debug)]
pub struct StageTable<'a> {
    total_self_ns: u64,
    rows: Vec<(&'a str, &'a efficsense_obs::HistogramSnapshot)>,
}

impl<'a> StageTable<'a> {
    /// The table of `snap`'s spans.
    #[must_use]
    pub fn new(snap: &'a efficsense_obs::Snapshot) -> Self {
        let mut rows: Vec<_> = snap
            .spans
            .iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(n, s)| (n.as_str(), s))
            .collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(b.0)));
        let total_self_ns = rows.iter().map(|(_, s)| s.self_ns).sum();
        Self {
            total_self_ns,
            rows,
        }
    }

    fn share(&self, self_ns: u64) -> f64 {
        if self.total_self_ns == 0 {
            0.0
        } else {
            self_ns as f64 / self.total_self_ns as f64
        }
    }

    /// The `"profile"` block of a `BENCH_*.json` summary: the summed self
    /// time and the top eight stages.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let stages = self
            .rows
            .iter()
            .take(8)
            .map(|(name, s)| {
                Json::obj([
                    ("stage", (*name).into()),
                    ("count", s.count.into()),
                    ("self_s", (s.self_ns as f64 / 1e9).into()),
                    ("self_share", self.share(s.self_ns).into()),
                    ("p50_us", s.p50_us().into()),
                    ("p95_us", s.p95_us().into()),
                    ("p99_us", s.p99_us().into()),
                ])
            })
            .collect();
        Json::obj([
            ("total_self_s", (self.total_self_ns as f64 / 1e9).into()),
            ("stages", stages),
        ])
    }
}

/// Renders the table as text, one line per stage.
impl std::fmt::Display for StageTable<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<22} {:>8} {:>10} {:>10} {:>6} {:>9} {:>9} {:>9}",
            "stage", "count", "total_s", "self_s", "self%", "p50_us", "p95_us", "p99_us"
        )?;
        for (name, s) in &self.rows {
            writeln!(
                f,
                "{name:<22} {:>8} {:>10.3} {:>10.3} {:>5.1}% {:>9} {:>9} {:>9}",
                s.count,
                s.total_ns as f64 / 1e9,
                s.self_ns as f64 / 1e9,
                100.0 * self.share(s.self_ns),
                s.p50_us(),
                s.p95_us(),
                s.p99_us()
            )?;
        }
        Ok(())
    }
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

/// Runs the main design-space sweep used by Figs. 7–10 through an L1
/// result cache ([`SweepCache`]) persisted in `target/figures` as
/// `sweep_<metric>_<scale>.jsonl`. The cache stores every float exactly, so
/// `fig8`/`fig9`/`fig10` (and a second `fig7`) replay `fig7`'s evaluations
/// bit for bit instead of re-running them.
///
/// The sweep runs under [`FailurePolicy::Skip`]; its results go to
/// `sweep_<metric>_<scale>.csv` and its quarantine (point label, typed
/// error, message) to the `*_quarantine.csv` sibling, so an overnight
/// figure run that loses points leaves an inspectable record instead of
/// dying or silently thinning the figure.
///
/// # Panics
///
/// Panics on I/O errors, like every figure-cache write.
pub fn sweep_cached(sc: Scale, metric: efficsense_core::sweep::Metric) -> Vec<SweepResult> {
    use efficsense_core::sweep::Metric;
    let scale = sc.name();
    let stem = match metric {
        Metric::Snr => format!("sweep_snr_{scale}"),
        Metric::DetectionAccuracy => format!("sweep_accuracy_{scale}"),
    };
    let cache_path = figures_dir().join(format!("{stem}.jsonl"));
    let cache = Arc::new(SweepCache::new());
    if let Ok((loaded, _)) = cache.load(&cache_path) {
        println!(
            "  loaded {loaded} cached evaluations from {}",
            cache_path.display()
        );
    }
    let dataset = EegDataset::generate(&sc.dataset_config());
    let space = sc.design_space();
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
    .with_cache(Arc::clone(&cache))
    .run_report(&space, &dataset);
    if !report.quarantine.is_empty() {
        println!("  {}", report.summary());
    }
    let name = format!("{stem}.csv");
    persist_quarantine(&name, &report);
    let mut buf = Vec::new();
    efficsense_core::report::write_csv(&mut buf, &report.results).expect("write to vec succeeds");
    std::fs::write(figures_dir().join(&name), &buf).expect("can write sweep results");
    cache.save(&cache_path).expect("can write sweep cache");
    println!("  cached sweep to {}", cache_path.display());
    report.results
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
            obs.emit(ev);
        }
        println!(
            "  quarantined {} point(s) → {}",
            report.quarantine.len(),
            qpath.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_scale_configs_grow_from_reduced_to_full() {
        let reduced = Scale::Reduced.dataset_config();
        assert!(reduced.records_per_class <= 10 && reduced.duration_s <= 10.0);
        let medium = Scale::Medium.dataset_config();
        assert_eq!(medium.records_per_class, 34);
        let full = Scale::Full.dataset_config();
        assert!(full.records_per_class > medium.records_per_class);
        assert!(medium.duration_s > reduced.duration_s);
        let points = |sc: Scale| sc.design_space().len();
        assert!(points(Scale::Reduced) < points(Scale::Medium));
        assert_eq!(points(Scale::Medium), points(Scale::Full));
    }

    #[test]
    fn stage_table_orders_by_self_time_and_shares_it() {
        use efficsense_obs::{LogicalClock, ObsRegistry};
        let reg = ObsRegistry::new();
        reg.set_clock(Arc::new(LogicalClock::new(1_000)));
        {
            let _outer = reg.span("outer"); // self 2 µs
            drop(reg.span("inner")); // self 1 µs
        }
        drop(reg.span("unused"));
        reg.reset();
        {
            let _outer = reg.span("outer");
            drop(reg.span("inner"));
        }
        let snap = reg.snapshot();
        let table = StageTable::new(&snap);
        let json = table.to_json();
        let stages = json.get("stages").and_then(Json::as_arr).expect("stages");
        let names: Vec<&str> = stages
            .iter()
            .filter_map(|s| s.get("stage").and_then(Json::as_str))
            .collect();
        assert_eq!(names, ["outer", "inner"], "zero-count rows stay out");
        let share = stages[0].get("self_share").and_then(Json::as_f64);
        assert!(share.is_some_and(|v| (v - 2.0 / 3.0).abs() < 1e-12));
        // The bounds are the histogram's, as `--metrics` reports them.
        assert_eq!(stages[0].get("p99_us").and_then(Json::as_u64), Some(4));
        let text = table.to_string();
        assert!(text.contains("outer") && text.contains(" 66.7%"), "{text}");
    }

    #[test]
    fn scale_parses_the_three_names_and_rejects_the_rest() {
        assert_eq!(Scale::parse(None), Ok(Scale::Reduced));
        for named in [Scale::Reduced, Scale::Medium, Scale::Full] {
            assert_eq!(Scale::parse(Some(named.name())), Ok(named));
        }
        for typo in ["Full", "ful", "FULL", "", " full", "paper"] {
            let err = Scale::parse(Some(typo)).expect_err(typo);
            assert!(
                err.contains("reduced, medium or full") && err.contains(&format!("`{typo}`")),
                "{err}"
            );
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
}
