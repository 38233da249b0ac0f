//! Parallel design-space sweep engine with failure quarantine.
//!
//! Large sweeps run unattended for hours; one sick design point must not
//! cost the whole run. Every point is evaluated behind a panic boundary and
//! failures — invalid configurations, panicking models, non-finite metrics —
//! are quarantined in the [`SweepReport`] under a configurable
//! [`FailurePolicy`] instead of aborting the sweep.

use crate::config::{Architecture, ConfigError};
use crate::goal::{DetectionGoal, GoalFunction, SnrGoal};
use crate::simulate::{SimOutput, SimScratch, Simulator};
use crate::space::{DesignPoint, DesignSpace};
use efficsense_faults::FaultPlan;
use efficsense_power::PowerBreakdown;
use efficsense_signals::EegDataset;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which quality metrics to compute per design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Reference-based SNR (Fig. 7a).
    Snr,
    /// Seizure detection accuracy (Fig. 7b). Trains a detector first.
    DetectionAccuracy,
}

/// What the sweep does with a design point that fails to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Re-raise the failure as a panic on the calling thread (the legacy
    /// behaviour, and the right one when a failure means a caller bug).
    #[default]
    Abort,
    /// Quarantine the point in the [`SweepReport`] and keep sweeping.
    Skip,
}

/// Why one design point failed to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The point's configuration violated a design constraint.
    Config(ConfigError),
    /// A behavioural model panicked while evaluating the point; the payload
    /// message is preserved.
    Panicked(String),
    /// Evaluation completed but produced a non-finite metric or power.
    NonFinite(String),
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::Config(e) => write!(f, "invalid configuration: {e}"),
            PointError::Panicked(msg) => write!(f, "model panicked: {msg}"),
            PointError::NonFinite(what) => write!(f, "non-finite evaluation: {what}"),
        }
    }
}

impl std::error::Error for PointError {}

/// One design point the sweep could not evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedPoint {
    /// Index of the point in [`DesignSpace::points`] enumeration order.
    pub index: usize,
    /// The failed point.
    pub point: DesignPoint,
    /// Why it failed.
    pub error: PointError,
}

/// The full outcome of a sweep: healthy results plus the quarantine.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Successfully evaluated points, in enumeration order.
    pub results: Vec<SweepResult>,
    /// Failed points, sorted by enumeration index.
    pub quarantine: Vec<QuarantinedPoint>,
    /// Number of points the design space enumerated.
    pub points_total: usize,
}

impl SweepReport {
    /// `true` when every enumerated point is accounted for, either as a
    /// result or in quarantine. This is the release-mode promotion of the
    /// old `debug_assert_eq!` completeness check: a `false` here means the
    /// sweep engine itself lost points.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.results.len() + self.quarantine.len() == self.points_total
    }

    /// Number of enumerated points that are neither results nor quarantined.
    #[must_use]
    pub fn missing(&self) -> usize {
        self.points_total
            .saturating_sub(self.results.len() + self.quarantine.len())
    }

    /// One-line health summary, e.g. `94/96 ok, 2 quarantined`.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}/{} ok, {} quarantined",
            self.results.len(),
            self.points_total,
            self.quarantine.len()
        );
        if !self.is_complete() {
            s.push_str(&format!(", {} MISSING", self.missing()));
        }
        s
    }
}

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Metric to report in [`SweepResult::metric`].
    pub metric: Metric,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Detector training seed (DetectionAccuracy only).
    pub detector_seed: u64,
    /// Detection decision window in seconds (DetectionAccuracy only);
    /// 0 classifies whole records. Default 2 s — the windowed-segment scheme
    /// of the EEG deep-learning literature.
    pub epoch_s: f64,
    /// What to do when a point fails to evaluate.
    pub failure_policy: FailurePolicy,
    /// Fault plan injected into every evaluated point (`None` = clean sweep).
    pub fault_plan: Option<FaultPlan>,
    /// Worker threads for the batched per-record OMP decode inside each
    /// point evaluation (`<= 1` decodes inline). Sweeps already parallelise
    /// across points, so the default keeps decode inline; results are
    /// bit-identical for every value.
    pub decode_threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            metric: Metric::DetectionAccuracy,
            threads: 0,
            detector_seed: 0xD0D0,
            epoch_s: 2.0,
            failure_policy: FailurePolicy::Abort,
            fault_plan: None,
            decode_threads: 1,
        }
    }
}

/// The evaluation of one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The evaluated point.
    pub point: DesignPoint,
    /// Quality metric (higher is better): dB for SNR, fraction for accuracy.
    pub metric: f64,
    /// Total power (W).
    pub power_w: f64,
    /// Per-block power breakdown.
    pub breakdown: PowerBreakdown,
    /// Capacitor area in `C_u,min` units.
    pub area_units: f64,
}

/// Parallel sweep runner.
#[derive(Debug, Clone)]
pub struct Sweep {
    config: SweepConfig,
    /// Optional content-addressed result cache (see [`crate::cache`]).
    cache: Option<std::sync::Arc<crate::cache::SweepCache>>,
    /// Optional Level-3 prefix store (see [`crate::prefix`]).
    prefix: Option<std::sync::Arc<crate::prefix::PrefixStore>>,
}

impl Sweep {
    /// Creates a sweep runner.
    pub fn new(config: SweepConfig) -> Self {
        Self {
            config,
            cache: None,
            prefix: None,
        }
    }

    /// Attaches a shared result cache. Subsequent runs look every point up
    /// by its content key ([`crate::cache::point_key`]) before evaluating,
    /// and store successful evaluations back. Cached results are
    /// bit-identical to fresh ones — evaluation is deterministic in the
    /// key — so attaching a cache never changes sweep output, only cost.
    #[must_use]
    pub fn with_cache(mut self, cache: std::sync::Arc<crate::cache::SweepCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a shared Level-3 prefix store ([`crate::prefix`]): every
    /// point evaluation reuses stage-prefix artifacts (resampled records,
    /// LNA output, clean-clock samplings, reference signals) built by
    /// any other point — in this sweep or any other sweep sharing the
    /// store. Artifacts are derived deterministically from their keys, so
    /// attaching a store never changes sweep output, only cost.
    #[must_use]
    pub fn with_prefix_store(mut self, store: std::sync::Arc<crate::prefix::PrefixStore>) -> Self {
        self.prefix = Some(store);
        self
    }

    /// Evaluates every point of `space` over `dataset`, in parallel,
    /// returning only the healthy results (enumeration order).
    ///
    /// # Panics
    ///
    /// Panics if the space or dataset is empty, if the sweep engine loses a
    /// point (the completeness check), or — under the default
    /// [`FailurePolicy::Abort`] — if any point fails to evaluate. Use
    /// [`Sweep::run_report`] to inspect failures instead.
    pub fn run(&self, space: &DesignSpace, dataset: &EegDataset) -> Vec<SweepResult> {
        let report = self.run_report(space, dataset);
        assert!(
            report.is_complete(),
            "sweep engine lost {} of {} points",
            report.missing(),
            report.points_total
        );
        report.results
    }

    /// Evaluates every point of `space` over `dataset`, in parallel.
    ///
    /// Each record passes through the simulated front-end; the configured
    /// metric aggregates the outputs. Results keep the enumeration order of
    /// [`DesignSpace::points`]; failed points land in the report's
    /// quarantine according to the configured [`FailurePolicy`]. Every
    /// point is evaluated behind a panic boundary, so one sick model cannot
    /// abort an overnight sweep (unless the policy says so).
    ///
    /// # Panics
    ///
    /// Panics if the space or dataset is empty, or — under
    /// [`FailurePolicy::Abort`] — when a point fails to evaluate.
    pub fn run_report(&self, space: &DesignSpace, dataset: &EegDataset) -> SweepReport {
        assert!(!space.is_empty(), "design space is empty");
        assert!(!dataset.is_empty(), "dataset is empty");
        let _sweep_span = efficsense_obs::span!("sweep.run");
        let cfg = &self.config;
        // Detector training is memoized process-wide, so repeated sweeps
        // over the same dataset (the product-sweep workload) train once.
        let goal: Box<dyn GoalFunction + Sync> = match cfg.metric {
            Metric::Snr => Box::new(SnrGoal),
            Metric::DetectionAccuracy => {
                let fs = space.template.design.f_sample_hz();
                let detector =
                    crate::cache::trained_detector(dataset, fs, cfg.epoch_s, cfg.detector_seed);
                Box::new(DetectionGoal::new((*detector).clone()))
            }
        };
        // The cache context is sweep-invariant; fingerprint the dataset once.
        let ctx = self.cache.as_ref().map(|_| crate::cache::EvalContext {
            goal: crate::cache::goal_descriptor(cfg.metric, cfg.detector_seed, cfg.epoch_s),
            dataset_fingerprint: crate::cache::dataset_fingerprint(dataset),
        });
        let cache = self.cache.as_deref();
        let prefix = self.prefix.as_ref();
        let points = space.points();
        let threads = match cfg.threads {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            n => n,
        };
        let plan = cfg.fault_plan.as_ref();
        // The simulator drops clean plans (every severity-0 plan), so only
        // an active plan faults a point.
        let faulted = plan.is_some_and(|p| !p.is_clean());
        let total = points.len();
        let done = std::sync::atomic::AtomicUsize::new(0);
        let heartbeat_every = (total / 10).max(1);
        let obs = efficsense_obs::global();
        let sweep_start_ns = obs.now_ns();
        // One scratch pool per worker: steady-state point evaluation reuses
        // output buffers instead of allocating per record.
        let outcomes = obs.parallel_map(threads, total, SimScratch::new, |scratch, i| {
            let point = &points[i];
            let outcome = {
                let _point_span = efficsense_obs::span!("sweep.point");
                let key = ctx
                    .as_ref()
                    .map(|c| crate::cache::point_key(&point.to_config(&space.template), plan, c));
                let cached = match (cache, &key) {
                    (Some(cache), Some(key)) => cache.get(key),
                    _ => None,
                };
                let outcome = if let Some(mut hit) = cached {
                    // The stored point is key-equivalent but not necessarily
                    // this exact point (two points can instantiate one
                    // config); the current point keeps labels honest.
                    hit.point = point.clone();
                    Ok(hit)
                } else {
                    efficsense_obs::counter!("sweep.evaluations").incr();
                    if faulted {
                        efficsense_obs::counter!("sweep.faulted_points").incr();
                    }
                    // The panic boundary: a model blowing up on one point
                    // must not take down the sweep.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        evaluate_point_prefixed(
                            point,
                            space,
                            dataset,
                            goal.as_ref(),
                            plan,
                            cfg.decode_threads,
                            prefix.cloned(),
                            scratch,
                        )
                    }))
                    .unwrap_or_else(|payload| {
                        // A panicking point may die with buffered trace lines;
                        // flush so the trace shows the spans that led up to
                        // the blow-up even if the process aborts next.
                        obs.flush();
                        Err(PointError::Panicked(panic_message(payload.as_ref())))
                    });
                    if let (Some(cache), Some(key), Ok(res)) = (cache, key, &outcome) {
                        cache.insert(key, res.clone());
                    }
                    outcome
                };
                if let Err(e) = &outcome {
                    if cfg.failure_policy == FailurePolicy::Abort {
                        // A failing point under Abort is a bug in the caller's
                        // space; the pool re-raises this on the caller.
                        panic!("{}: {e}", point.label()); // lint:allow(no-panic)
                    }
                }
                outcome
            };
            // Heartbeat outside the point span: its clock reads must not
            // perturb span durations.
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if n.is_multiple_of(heartbeat_every) || n == total {
                progress_heartbeat(n, total, sweep_start_ns, cache, prefix.map(|p| &**p));
            }
            outcome
        });
        let mut results = Vec::with_capacity(total);
        let mut quarantine = Vec::new();
        for (index, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(r) => results.push(r),
                Err(error) => quarantine.push(QuarantinedPoint {
                    index,
                    point: points[index].clone(),
                    error,
                }),
            }
        }
        if !quarantine.is_empty() {
            efficsense_obs::counter!("sweep.quarantined").add(quarantine.len() as u64);
        }
        SweepReport {
            results,
            quarantine,
            points_total: total,
        }
    }
}

/// Emits sweep progress: a heartbeat counter tick, a trace event when a
/// sink is installed, and — only once a sweep has run long enough to be
/// worth watching — a stderr progress line. The `cache_hits` field reports
/// the sweep's own L1 cache, and only when one is attached: a cacheless
/// sweep has no hit count to report, and a hard-coded 0 would read as
/// "cache attached but cold". `l3_hits`/`l3_misses` report the attached
/// prefix store the same way, summed over its classes, so a long sweep's
/// heartbeats show the store warming up alongside the L1 line. Both read
/// the stores' own counters, never the process-wide registry, which also
/// counts every other store the process has held.
fn progress_heartbeat(
    done: usize,
    total: usize,
    sweep_start_ns: u64,
    cache: Option<&crate::cache::SweepCache>,
    prefix: Option<&crate::prefix::PrefixStore>,
) {
    efficsense_obs::counter!("sweep.heartbeat").incr();
    let obs = efficsense_obs::global();
    let now_ns = obs.now_ns();
    let elapsed_ns = now_ns.saturating_sub(sweep_start_ns);
    let eta_ns = if done > 0 {
        (elapsed_ns / done as u64).saturating_mul((total - done) as u64)
    } else {
        0
    };
    if obs.sink_enabled() {
        let mut ev = efficsense_obs::TraceEvent::new(now_ns, "heartbeat", "sweep.progress")
            .field("done", done)
            .field("total", total)
            .field("elapsed_ns", elapsed_ns)
            .field("eta_ns", eta_ns);
        if let Some(cache) = cache {
            let hits = cache.stats().hits;
            ev = ev.field("cache_hits", hits);
        }
        if let Some(prefix) = prefix {
            let l3 = prefix.stats();
            ev = ev
                .field("l3_hits", l3.hits())
                .field("l3_misses", l3.misses());
        }
        obs.emit(&ev);
    }
    // Quiet sweeps (tests, smoke runs) stay quiet; overnight runs report.
    if elapsed_ns > 10_000_000_000 {
        eprintln!(
            "sweep progress: {done}/{total} points ({:.0}%), ~{}s remaining",
            done as f64 / total as f64 * 100.0,
            eta_ns / 1_000_000_000
        );
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates a single design point (exposed for targeted experiments).
///
/// `plan` optionally injects a fault plan into the simulated chain.
///
/// # Errors
///
/// Returns [`PointError::Config`] for invalid points and
/// [`PointError::NonFinite`] when the metric or power comes out non-finite.
/// Model panics are *not* caught here — the sweep engine owns the panic
/// boundary.
pub fn evaluate_point(
    point: &DesignPoint,
    space: &DesignSpace,
    dataset: &EegDataset,
    goal: &(dyn GoalFunction + Sync),
    plan: Option<&FaultPlan>,
) -> Result<SweepResult, PointError> {
    evaluate_point_prefixed(
        point,
        space,
        dataset,
        goal,
        plan,
        1,
        None,
        &mut SimScratch::new(),
    )
}

/// Derives a decorrelated seed from a base seed: salt 0 is the identity,
/// and each positive salt applies a SplitMix64-style avalanche. The
/// repository benchmark (`benchmark/`) derives its dataset, fault and
/// detector seeds from one master seed this way.
#[must_use]
pub fn salted_seed(base: u64, salt: u64) -> u64 {
    if salt == 0 {
        return base;
    }
    let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`evaluate_point`] with the sweep's cost levers: `decode_threads` sets
/// the per-record OMP decode fan-out (`<= 1` inline), an optional Level-3
/// prefix store shares front-end artifacts across evaluations, and a
/// caller-held scratch pool (sweep workers keep one per thread and pass it
/// across points) recycles output buffers. None of them changes a single
/// result bit.
///
/// # Errors
///
/// As [`evaluate_point`].
#[allow(clippy::too_many_arguments)]
pub fn evaluate_point_prefixed(
    point: &DesignPoint,
    space: &DesignSpace,
    dataset: &EegDataset,
    goal: &(dyn GoalFunction + Sync),
    plan: Option<&FaultPlan>,
    decode_threads: usize,
    prefix: Option<std::sync::Arc<crate::prefix::PrefixStore>>,
    scratch: &mut SimScratch,
) -> Result<SweepResult, PointError> {
    let cfg = point.to_config(&space.template);
    let mut sim = Simulator::new(cfg).map_err(PointError::Config)?;
    sim.set_fault_plan(plan.cloned());
    sim.set_decode_threads(decode_threads);
    sim.set_prefix_store(prefix);
    let outputs: Vec<(SimOutput, usize)> = {
        let _sim_span = efficsense_obs::span!("stage.simulate");
        dataset
            .records
            .iter()
            .map(|rec| {
                let out = sim.run_with_scratch(&rec.samples, rec.fs, rec.id as u64 + 1, scratch);
                (out, rec.label())
            })
            .collect()
    };
    let metric = {
        let _detect_span = efficsense_obs::span!("stage.detect");
        goal.evaluate(&outputs)
    };
    let breakdown = outputs[0].0.power.clone();
    let area_units = outputs[0].0.area_units;
    let power_w = breakdown.total().value();
    // The goal has consumed the outputs; their signal buffers feed the next
    // point's acquisitions instead of the allocator.
    for (out, _) in outputs {
        scratch.reclaim_output(out);
    }
    if !metric.is_finite() || !power_w.is_finite() {
        return Err(PointError::NonFinite(format!(
            "metric {metric}, power {power_w} W"
        )));
    }
    Ok(SweepResult {
        point: point.clone(),
        metric,
        power_w,
        breakdown,
        area_units,
    })
}

/// Splits results by architecture: `(baseline, compressive)`.
pub fn split_by_architecture(results: &[SweepResult]) -> (Vec<&SweepResult>, Vec<&SweepResult>) {
    let base = results
        .iter()
        .filter(|r| r.point.architecture == Architecture::Baseline)
        .collect();
    let cs = results
        .iter()
        .filter(|r| r.point.architecture == Architecture::CompressiveSensing)
        .collect();
    (base, cs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_signals::DatasetConfig;

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

    #[test]
    fn snr_sweep_covers_all_points() {
        let ds = tiny_dataset();
        let space = tiny_space();
        let sweep = Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads: 2,
            detector_seed: 0,
            ..Default::default()
        });
        let results = sweep.run(&space, &ds);
        assert_eq!(results.len(), space.len());
        // Order preserved.
        for (r, p) in results.iter().zip(space.points()) {
            assert_eq!(r.point, p);
        }
        assert!(results
            .iter()
            .all(|r| r.power_w > 0.0 && r.metric.is_finite()));
    }

    #[test]
    fn lower_noise_gives_better_snr_and_more_power_baseline() {
        let ds = tiny_dataset();
        let space = tiny_space();
        let sweep = Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads: 2,
            detector_seed: 0,
            ..Default::default()
        });
        let results = sweep.run(&space, &ds);
        let (base, _) = split_by_architecture(&results);
        let quiet = base
            .iter()
            .find(|r| r.point.lna_noise_vrms < 5e-6)
            .expect("quiet point");
        let noisy = base
            .iter()
            .find(|r| r.point.lna_noise_vrms > 5e-6)
            .expect("noisy point");
        assert!(
            quiet.metric > noisy.metric,
            "quiet SNR {} vs {}",
            quiet.metric,
            noisy.metric
        );
        assert!(
            quiet.power_w > noisy.power_w,
            "quiet should cost more power"
        );
    }

    #[test]
    fn single_threaded_matches_parallel() {
        let ds = tiny_dataset();
        let space = tiny_space();
        let one = Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads: 1,
            detector_seed: 0,
            ..Default::default()
        })
        .run(&space, &ds);
        let many = Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads: 4,
            detector_seed: 0,
            ..Default::default()
        })
        .run(&space, &ds);
        assert_eq!(one, many);
    }

    #[test]
    fn split_by_architecture_partitions() {
        let ds = tiny_dataset();
        let space = tiny_space();
        let results = Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads: 2,
            detector_seed: 0,
            ..Default::default()
        })
        .run(&space, &ds);
        let (base, cs) = split_by_architecture(&results);
        assert_eq!(base.len() + cs.len(), results.len());
        assert!(base
            .iter()
            .all(|r| r.point.architecture == Architecture::Baseline));
        assert!(cs
            .iter()
            .all(|r| r.point.architecture == Architecture::CompressiveSensing));
    }

    #[test]
    #[should_panic(expected = "dataset is empty")]
    fn rejects_empty_dataset() {
        let ds = EegDataset {
            records: vec![],
            config: DatasetConfig::default(),
        };
        let space = tiny_space();
        let _ = Sweep::new(SweepConfig::default()).run(&space, &ds);
    }

    /// A space with two kinds of sick points: the CS points carry `s = 0`
    /// (rejected by validation → `Config`), and the NaN-noise baseline point
    /// passes validation but trips the LNA constructor's assertion mid-run
    /// (→ `Panicked`, caught at the panic boundary).
    fn sick_space() -> DesignSpace {
        DesignSpace {
            lna_noise_vrms: vec![2e-6, f64::NAN],
            n_bits: vec![8],
            cs_m: vec![96],
            cs_s: vec![0],
            cs_c_hold_f: vec![1e-12],
            ..DesignSpace::paper_defaults()
        }
    }

    fn skip_sweep(threads: usize) -> Sweep {
        Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads,
            detector_seed: 0,
            failure_policy: FailurePolicy::Skip,
            ..Default::default()
        })
    }

    #[test]
    fn quarantine_catches_invalid_and_panicking_points() {
        let ds = tiny_dataset();
        let space = sick_space();
        let report = skip_sweep(2).run_report(&space, &ds);
        let points = space.points();
        assert_eq!(report.points_total, points.len());
        assert!(report.is_complete(), "{}", report.summary());
        assert_eq!(report.missing(), 0);
        // Exactly one healthy point: the finite-noise baseline.
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.quarantine.len(), points.len() - 1);
        // Healthy results keep enumeration order.
        let healthy: Vec<&DesignPoint> = points
            .iter()
            .filter(|p| p.architecture == Architecture::Baseline && p.lna_noise_vrms.is_finite())
            .collect();
        for (r, p) in report.results.iter().zip(&healthy) {
            assert_eq!(&&r.point, p);
        }
        // Quarantine is sorted by enumeration index and carries both causes.
        assert!(report
            .quarantine
            .windows(2)
            .all(|w| w[0].index < w[1].index));
        assert!(report.quarantine.iter().any(|q| matches!(
            &q.error,
            PointError::Config(ConfigError::BadScheduleSparsity { s: 0, .. })
        )));
        assert!(
            report
                .quarantine
                .iter()
                .any(|q| matches!(&q.error, PointError::Panicked(msg) if msg.contains("noise"))),
            "quarantine errors: {:?}",
            report
                .quarantine
                .iter()
                .map(|q| &q.error)
                .collect::<Vec<_>>()
        );
        assert!(report.summary().contains("quarantined"));
    }

    #[test]
    fn quarantine_is_deterministic_across_thread_counts() {
        let ds = tiny_dataset();
        let space = sick_space();
        let one = skip_sweep(1).run_report(&space, &ds);
        let many = skip_sweep(4).run_report(&space, &ds);
        // DesignPoint carries the NaN axis value (NaN != NaN), so compare
        // the index/error pairs instead of whole-report equality.
        let digest = |r: &SweepReport| {
            r.quarantine
                .iter()
                .map(|q| (q.index, q.error.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(one.results, many.results);
        assert_eq!(digest(&one), digest(&many));
        assert_eq!(one.points_total, many.points_total);
    }

    #[test]
    #[should_panic(expected = "model panicked")]
    fn abort_policy_propagates_failures() {
        let ds = tiny_dataset();
        let space = DesignSpace {
            lna_noise_vrms: vec![f64::NAN],
            n_bits: vec![8],
            cs_m: vec![],
            ..DesignSpace::paper_defaults()
        };
        let _ = Sweep::new(SweepConfig {
            metric: Metric::Snr,
            threads: 1,
            detector_seed: 0,
            ..Default::default()
        })
        .run(&space, &ds);
    }

    #[test]
    fn clean_fault_plan_sweep_matches_unfaulted_sweep() {
        use efficsense_faults::FaultPlan;
        let ds = tiny_dataset();
        let space = tiny_space();
        let base = SweepConfig {
            metric: Metric::Snr,
            threads: 2,
            detector_seed: 0,
            ..Default::default()
        };
        let plain = Sweep::new(base.clone()).run(&space, &ds);
        let with_clean_plan = Sweep::new(SweepConfig {
            fault_plan: Some(FaultPlan::clean(0xABCD)),
            ..base
        })
        .run(&space, &ds);
        assert_eq!(plain, with_clean_plan);
    }

    #[test]
    fn fault_plan_sweep_degrades_the_mean_metric() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let ds = tiny_dataset();
        let space = tiny_space();
        let base = SweepConfig {
            metric: Metric::Snr,
            threads: 2,
            detector_seed: 0,
            ..Default::default()
        };
        let mean = |rs: &[SweepResult]| rs.iter().map(|r| r.metric).sum::<f64>() / rs.len() as f64;
        let clean = Sweep::new(base.clone()).run(&space, &ds);
        let faulted = Sweep::new(SweepConfig {
            fault_plan: Some(FaultPlan::single(FaultKind::AdcStuckBit, 1.0, 1)),
            ..base
        })
        .run(&space, &ds);
        assert!(mean(&faulted) < mean(&clean) - 3.0);
    }

    #[test]
    fn cached_sweep_is_bit_identical_across_thread_counts() {
        use crate::cache::SweepCache;
        use std::sync::Arc;
        let ds = tiny_dataset();
        let space = tiny_space();
        let base = SweepConfig {
            metric: Metric::Snr,
            threads: 1,
            detector_seed: 0,
            ..Default::default()
        };
        let fresh = Sweep::new(base.clone()).run(&space, &ds);
        let cache = Arc::new(SweepCache::new());
        // Cold pass fills the cache; every point misses, nothing changes.
        let cold = Sweep::new(SweepConfig {
            threads: 4,
            ..base.clone()
        })
        .with_cache(Arc::clone(&cache))
        .run(&space, &ds);
        assert_eq!(fresh, cold, "cold cached run must match uncached run");
        let cold_stats = cache.stats();
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses, space.len() as u64);
        assert_eq!(cold_stats.entries, space.len());
        // Warm passes — whatever the thread count — serve purely from cache.
        for threads in [1, 3] {
            cache.reset_stats();
            let warm = Sweep::new(SweepConfig {
                threads,
                ..base.clone()
            })
            .with_cache(Arc::clone(&cache))
            .run(&space, &ds);
            assert_eq!(fresh, warm, "warm run at {threads} threads must match");
            let s = cache.stats();
            assert_eq!(s.misses, 0, "warm run must not re-evaluate any point");
            assert_eq!(s.hits, space.len() as u64);
        }
    }

    #[test]
    fn l1_alone_dedupes_severity_zero_cells() {
        use crate::cache::SweepCache;
        use crate::prefix::PrefixStore;
        use efficsense_faults::{FaultKind, FaultPlan};
        use std::sync::Arc;
        let ds = tiny_dataset();
        let space = tiny_space();
        let clean = skip_sweep(2).run_report(&space, &ds).results;
        let cache = Arc::new(SweepCache::new());
        let store = Arc::new(PrefixStore::new());
        // Two severity-0 cells of the product workflow, sharing both stores.
        let cell = |kind| {
            Sweep::new(SweepConfig {
                fault_plan: Some(FaultPlan::single(kind, 0.0, 0xFA17)),
                ..skip_sweep(2).config
            })
            .with_cache(Arc::clone(&cache))
            .with_prefix_store(Arc::clone(&store))
            .run_report(&space, &ds)
        };
        let first = cell(FaultKind::AdcStuckBit);
        assert_eq!(cache.stats().misses, space.len() as u64);
        cache.reset_stats();
        let second = cell(FaultKind::CapLeakage);
        assert_eq!(
            cache.stats().misses,
            0,
            "a second severity-0 cell must replay the first from L1"
        );
        assert_eq!(first.results, clean);
        assert_eq!(second.results, clean);
    }

    #[test]
    fn cache_persist_reload_cycle_preserves_results() {
        use crate::cache::SweepCache;
        use std::sync::Arc;
        let ds = tiny_dataset();
        let space = tiny_space();
        let base = SweepConfig {
            metric: Metric::Snr,
            threads: 2,
            detector_seed: 0,
            ..Default::default()
        };
        let cache = Arc::new(SweepCache::new());
        let original = Sweep::new(base.clone())
            .with_cache(Arc::clone(&cache))
            .run(&space, &ds);
        let path = std::env::temp_dir().join(format!(
            "efficsense_sweep_cache_test_{}.jsonl",
            std::process::id()
        ));
        cache.save(&path).expect("persist cache");
        let reloaded = Arc::new(SweepCache::new());
        let (loaded, skipped) = reloaded.load(&path).expect("reload cache");
        std::fs::remove_file(&path).ok();
        assert_eq!((loaded, skipped), (space.len(), 0));
        let replay = Sweep::new(base)
            .with_cache(Arc::clone(&reloaded))
            .run(&space, &ds);
        assert_eq!(
            original, replay,
            "reloaded cache must replay bit-identically"
        );
        assert_eq!(reloaded.stats().misses, 0);
    }

    #[test]
    fn salt_zero_is_identity_and_retry_salts_reseed() {
        let ds = tiny_dataset();
        let space = tiny_space();
        let point = &space.points()[0];
        let goal = SnrGoal;
        let canonical =
            evaluate_point(point, &space, &ds, &goal, None).expect("canonical evaluation");
        // Decode fan-out is pure mechanism: a different thread count must
        // reproduce the canonical result bit for bit.
        let pooled = evaluate_point_prefixed(
            point,
            &space,
            &ds,
            &goal,
            None,
            4,
            None,
            &mut SimScratch::new(),
        )
        .expect("evaluation with pooled decode");
        assert_eq!(canonical, pooled, "decode threads must not change results");
        // The seed mix itself: identity at 0, avalanche elsewhere.
        assert_eq!(salted_seed(42, 0), 42);
        assert_ne!(salted_seed(42, 1), 42);
        assert_ne!(salted_seed(42, 1), salted_seed(42, 2));
        assert_ne!(salted_seed(42, 1), salted_seed(43, 1));
    }
}
