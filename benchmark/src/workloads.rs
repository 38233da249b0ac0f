//! The three workloads: their inputs (derived from the benchmark seed), the
//! set-up before the first timed point, one timed pass, and the plain-path
//! reference check. See `README.md` for why each workload exists.

use crate::util::{point_hash, signal_hash, Digest};
use efficsense_core::cache::{self, CacheStats, SweepCache};
use efficsense_core::goal::{DetectionGoal, GoalFunction, SnrGoal};
use efficsense_core::prelude::*;
use efficsense_core::sweep::{evaluate_point, salted_seed, Metric};
use efficsense_cs::memo;
use efficsense_dsp::metrics::snr_fit_db;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Detection decision window (s) of the product sweep's goal.
pub const EPOCH_S: f64 = 2.0;
/// Input samples per `StreamSimulator::push`.
const PUSH_LEN: usize = 4096;
/// Requested replay length (s); the replay is window-aligned, ~576 s.
const REPLAY_S: f64 = 600.0;
/// Score windows per streamed plan.
const WINDOWS: usize = 8;
/// Noise seed of every streamed plan.
const STREAM_NOISE_SEED: u64 = 1;
/// Per-point digest of a point that produced no result.
pub const NO_RESULT: u64 = u64::MAX;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProductCold,
    CsSnr,
    StreamAging,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::ProductCold, Self::CsSnr, Self::StreamAging];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ProductCold => "product_cold",
            Self::CsSnr => "cs_snr",
            Self::StreamAging => "stream_aging",
        }
    }
}

/// Everything the program receives, generated from the benchmark seed: the
/// reduced dataset (15 records × 8 s) and the fault and detector seeds.
pub struct Inputs {
    pub dataset: EegDataset,
    pub fault_seed: u64,
    pub detector_seed: u64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let dataset = EegDataset::generate(&DatasetConfig {
            records_per_class: 5,
            duration_s: 8.0,
            seed: salted_seed(seed, 1),
            ..Default::default()
        });
        Self {
            dataset,
            fault_seed: salted_seed(seed, 2),
            detector_seed: salted_seed(seed, 3),
        }
    }
}

/// A design-space sweep workload.
pub struct SweepSpec {
    pub space: DesignSpace,
    /// `space` as a timed pass sweeps it, one slice after another: together
    /// the slices hold exactly `space`'s points, in `space`'s order.
    pub slices: Vec<DesignSpace>,
    /// One fault plan per product cell (`None` runs the clean chain).
    pub cells: Vec<Option<FaultPlan>>,
    pub metric: Metric,
    /// A fresh L1 `SweepCache` and L3 `PrefixStore` per pass, or neither.
    pub stores: bool,
    /// Sweep workers: a constant, never `0` (all cores).
    pub workers: usize,
}

impl SweepSpec {
    /// Points per pass.
    pub fn points(&self) -> usize {
        self.cells.len() * self.space.len()
    }

    /// The goal the sweep engine builds for this metric. The detector comes
    /// from the program's memo, which set-up has already filled.
    pub fn goal(&self, inputs: &Inputs) -> Box<dyn GoalFunction + Sync> {
        match self.metric {
            Metric::Snr => Box::new(SnrGoal),
            Metric::DetectionAccuracy => {
                let fs = self.space.template.design.f_sample_hz();
                let detector =
                    cache::trained_detector(&inputs.dataset, fs, EPOCH_S, inputs.detector_seed);
                Box::new(DetectionGoal::new((*detector).clone()))
            }
        }
    }
}

/// A streamed aging workload: every plan streams the whole replay.
pub struct StreamSpec {
    pub cfg: SystemConfig,
    pub input: Vec<f64>,
    pub fs_in: f64,
    pub plans: Vec<CompoundPlan>,
}

pub enum Spec {
    Sweep(SweepSpec),
    Stream(StreamSpec),
}

/// A workload after set-up, ready for timed passes.
pub struct Prepared {
    pub inputs: Inputs,
    pub spec: Spec,
}

impl Prepared {
    /// Points per pass.
    pub fn points(&self) -> usize {
        match &self.spec {
            Spec::Sweep(s) => s.points(),
            Spec::Stream(s) => s.plans.len(),
        }
    }

    /// Worker threads of a pass (a stream is single-threaded).
    pub fn workers(&self) -> usize {
        match &self.spec {
            Spec::Sweep(s) => s.workers,
            Spec::Stream(_) => 1,
        }
    }
}

/// Host seconds of one set-up, split by layer.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub train_s: f64,
    pub total_s: f64,
}

/// Everything before the first timed point: dataset generation, plus
/// detector training where the workload scores detection. With `warm`, the
/// detector is trained through the program's memo, so timed passes find it
/// there; without, it is trained directly — the same work, leaving the memo
/// as it was, so repeated set-ups each pay for training.
fn setup(workload: Workload, seed: u64, warm: bool) -> (Prepared, SetupTimes) {
    let t0 = Instant::now();
    let inputs = Inputs::generate(seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let spec = match workload {
        Workload::ProductCold => {
            let space = DesignSpace::reduced();
            let fs = space.template.design.f_sample_hz();
            let (dataset, dseed) = (&inputs.dataset, inputs.detector_seed);
            if warm {
                let _ = cache::trained_detector(dataset, fs, EPOCH_S, dseed);
            } else {
                let _ = SeizureDetector::train_epoched(dataset, fs, EPOCH_S, dseed);
            }
            let cells = [FaultKind::AdcStuckBit, FaultKind::CapLeakage]
                .into_iter()
                .flat_map(|kind| {
                    [0.0, 1.0]
                        .map(|severity| Some(FaultPlan::single(kind, severity, inputs.fault_seed)))
                })
                .collect();
            // A cell's 24 points share the stores and both workers, so a
            // cell is swept whole: slicing it would add a pool tail per slice.
            Spec::Sweep(SweepSpec {
                slices: vec![space.clone()],
                space,
                cells,
                metric: Metric::DetectionAccuracy,
                stores: true,
                workers: 2,
            })
        }
        Workload::CsSnr => {
            let space = DesignSpace {
                include_baseline: false,
                ..DesignSpace::paper_defaults()
            };
            Spec::Sweep(SweepSpec {
                slices: noise_slices(&space),
                space,
                cells: vec![None],
                metric: Metric::Snr,
                stores: false,
                workers: 1,
            })
        }
        Workload::StreamAging => Spec::Stream(stream_spec(&inputs)),
    };
    let train_s = match workload {
        Workload::ProductCold => t1.elapsed().as_secs_f64(),
        _ => 0.0,
    };
    let times = SetupTimes {
        generate_s,
        train_s,
        total_s: t0.elapsed().as_secs_f64(),
    };
    (Prepared { inputs, spec }, times)
}

/// `space` cut into one slice per LNA noise level, so a pass is timed in
/// units of a fraction of a second rather than one of seconds. Noise is the
/// outermost axis of the CS grid, so on a space without baseline points the
/// slices keep the enumeration order. The slices share no state a whole
/// sweep would share: with no stores, points are evaluated independently,
/// and the process-wide dictionary memo carries across slices as it does
/// across points.
fn noise_slices(space: &DesignSpace) -> Vec<DesignSpace> {
    assert!(!space.include_baseline, "baseline points enumerate first");
    space
        .lna_noise_vrms
        .iter()
        .map(|&vn| DesignSpace {
            lna_noise_vrms: vec![vn],
            ..space.clone()
        })
        .collect()
}

/// Set-ups before the first pass: at least eight, and more until half a
/// second has passed, so a millisecond set-up is still a median of many.
const SETUP_REPS: (usize, usize, f64) = (8, 400, 0.5);

/// Runs [`setup`] repeatedly (the last repetition warms the program's memo)
/// and returns the last workload with every repetition's times.
pub fn setup_reps(workload: Workload, seed: u64) -> (Prepared, Vec<SetupTimes>) {
    let (min, max, budget_s) = SETUP_REPS;
    let mut times = Vec::new();
    while times.len() + 1 < max
        && (times.len() + 1 < min
            || times.iter().map(|t: &SetupTimes| t.total_s).sum::<f64>() < budget_s)
    {
        times.push(time_setup(workload, seed));
    }
    let (p, t) = setup(workload, seed, true);
    times.push(t);
    (p, times)
}

/// Times one more set-up of `workload`, leaving the program's memo as it is.
pub fn time_setup(workload: Workload, seed: u64) -> SetupTimes {
    setup(workload, seed, false).1
}

/// The `longevity` replay: [`WINDOWS`] repetitions of one record cycle (as
/// many records as fit one window of the requested length), streamed under
/// the five baseline-native kinds' linear 0→1 aging ramps and the all-kinds
/// max-severity gauntlet.
fn stream_spec(inputs: &Inputs) -> StreamSpec {
    let records = &inputs.dataset.records;
    let fs_in = records[0].fs;
    let window_target = (REPLAY_S / WINDOWS as f64 * fs_in) as usize;
    let mut cycle: Vec<&Record> = Vec::new();
    let mut cycle_len = 0;
    for rec in records {
        if cycle.len() >= 2 && cycle_len + rec.samples.len() > window_target {
            break;
        }
        cycle_len += rec.samples.len();
        cycle.push(rec);
    }
    let mut input = Vec::with_capacity(cycle_len * WINDOWS);
    for _ in 0..WINDOWS {
        for rec in &cycle {
            input.extend_from_slice(&rec.samples);
        }
    }
    let seconds = input.len() as f64 / fs_in;
    let mut plans: Vec<CompoundPlan> = FaultKind::ALL
        .into_iter()
        .filter(|&k| k != FaultKind::CapLeakage)
        .map(|kind| {
            CompoundPlan::new(inputs.fault_seed, seconds / 64.0).with(
                kind,
                SeverityProfile::Linear {
                    start: 0.0,
                    end: 1.0,
                    ramp_s: seconds,
                },
            )
        })
        .collect();
    plans.push(FaultKind::ALL.into_iter().fold(
        CompoundPlan::new(inputs.fault_seed ^ 0xDEAD, 60.0),
        |p, k| p.with(k, SeverityProfile::Constant(1.0)),
    ));
    StreamSpec {
        cfg: SystemConfig::baseline(8),
        input,
        fs_in,
        plans,
    }
}

/// The outcome of one timed pass.
pub struct Pass {
    /// One digest per point, in enumeration order.
    pub hashes: Vec<u64>,
    /// Points quarantined, lost, or with non-finite output.
    pub failed: usize,
    /// Host seconds of the timed work.
    pub wall_s: f64,
    /// Host seconds of each unit of the timed work, in order: one slice of
    /// a sweep's fault cell, one plan of a stream. They sum to `wall_s`.
    pub unit_s: Vec<f64>,
    /// L1 and L3 counters of the pass's stores, when it had any.
    pub stores: Option<(CacheStats, PrefixStats)>,
}

/// Runs one pass with `workers` sweep workers (streams are single-threaded).
pub fn run_pass(p: &Prepared, workers: usize) -> Pass {
    match &p.spec {
        Spec::Sweep(spec) => sweep_pass(spec, &p.inputs, workers),
        Spec::Stream(spec) => stream_pass(spec),
    }
}

/// Fresh stores for one pass, and a cleared L2 memo: the memo is
/// process-global, so without this every pass after the first would skip
/// its dictionary builds.
pub fn fresh_stores(spec: &SweepSpec) -> (Option<Arc<SweepCache>>, Option<Arc<PrefixStore>>) {
    memo::clear();
    (
        spec.stores.then(|| Arc::new(SweepCache::new())),
        spec.stores.then(|| Arc::new(PrefixStore::new())),
    )
}

fn sweep_pass(spec: &SweepSpec, inputs: &Inputs, workers: usize) -> Pass {
    let (cache, prefix) = fresh_stores(spec);
    let units = spec.cells.len() * spec.slices.len();
    let mut unit_s = Vec::with_capacity(units);
    let mut reports = Vec::with_capacity(units);
    for plan in &spec.cells {
        for slice in &spec.slices {
            let t0 = Instant::now();
            let mut sweep = Sweep::new(SweepConfig {
                metric: spec.metric,
                threads: workers,
                detector_seed: inputs.detector_seed,
                epoch_s: EPOCH_S,
                failure_policy: FailurePolicy::Skip,
                fault_plan: plan.clone(),
                decode_threads: 1,
            });
            if let Some(c) = &cache {
                sweep = sweep.with_cache(Arc::clone(c));
            }
            if let Some(s) = &prefix {
                sweep = sweep.with_prefix_store(Arc::clone(s));
            }
            reports.push(sweep.run_report(slice, &inputs.dataset));
            unit_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let mut hashes = Vec::with_capacity(spec.points());
    let mut failed = 0;
    for report in &reports {
        let (h, f) = report_hashes(report);
        hashes.extend(h);
        failed += f;
    }
    Pass {
        hashes,
        failed,
        wall_s: unit_s.iter().sum(),
        unit_s,
        stores: cache.zip(prefix).map(|(c, p)| (c.stats(), p.stats())),
    }
}

/// Per-point digests of one sweep report in enumeration order, and its
/// failures: quarantined, lost or non-finite points.
fn report_hashes(report: &SweepReport) -> (Vec<u64>, usize) {
    let mut results = report.results.iter();
    let hashes = (0..report.points_total)
        .map(|i| {
            if report.quarantine.iter().any(|q| q.index == i) {
                NO_RESULT
            } else {
                results
                    .next()
                    .map_or(NO_RESULT, |r| point_hash(r.metric, r.power_w))
            }
        })
        .collect();
    let non_finite = report
        .results
        .iter()
        .filter(|r| !r.metric.is_finite() || !r.power_w.is_finite())
        .count();
    (
        hashes,
        report.quarantine.len() + report.missing() + non_finite,
    )
}

fn stream_pass(spec: &StreamSpec) -> Pass {
    let mut hashes = Vec::with_capacity(spec.plans.len());
    let mut failed = 0;
    let mut unit_s = Vec::with_capacity(spec.plans.len());
    for plan in &spec.plans {
        let mut out = OutputDigest::default();
        let t0 = Instant::now();
        stream_plan(spec, plan, |_, call| call(), |chunk| out.add(&chunk));
        unit_s.push(t0.elapsed().as_secs_f64());
        failed += usize::from(!out.healthy());
        hashes.push(out.finish());
    }
    Pass {
        hashes,
        failed,
        wall_s: unit_s.iter().sum(),
        unit_s,
        stores: None,
    }
}

/// Digest and health of a streamed output, taken chunk by chunk so a timed
/// pass holds no copy of the output.
#[derive(Default)]
pub struct OutputDigest {
    digest: Digest,
    pub samples: usize,
    non_finite: usize,
}

impl OutputDigest {
    pub fn add(&mut self, chunk: &StreamChunk) {
        for &v in &chunk.input_referred {
            self.digest.word(v.to_bits());
            self.non_finite += usize::from(!v.is_finite());
        }
        self.samples += chunk.len();
    }

    /// `true` when the stream produced output and all of it is finite.
    pub fn healthy(&self) -> bool {
        self.samples > 0 && self.non_finite == 0
    }

    pub fn finish(&self) -> u64 {
        self.digest.finish()
    }
}

/// Streams every plan once more, untimed, keeping the whole output, and
/// scores it: per plan, the digest (which must equal the timed passes') and
/// the mean window SNR (dB) against the streamed reference.
pub fn score_stream(spec: &StreamSpec) -> (Vec<u64>, Vec<f64>) {
    spec.plans
        .iter()
        .map(|plan| {
            let (mut out, mut reference) = (Vec::new(), Vec::new());
            stream_plan(
                spec,
                plan,
                |_, call| call(),
                |chunk| {
                    out.extend(chunk.input_referred);
                    reference.extend(chunk.reference);
                },
            );
            (signal_hash(&out), window_snr(&out, &reference))
        })
        .unzip()
}

/// Which stream call a [`stream_plan`] observer is told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamCall {
    Open,
    Push,
    Finish,
}

/// Streams the replay under `plan` in [`PUSH_LEN`]-sample pushes, handing
/// every output chunk to `consume`. `observe` wraps each call into the
/// stream layer (the traced run times them there); consuming happens
/// outside those calls.
pub fn stream_plan(
    spec: &StreamSpec,
    plan: &CompoundPlan,
    mut observe: impl FnMut(StreamCall, &mut dyn FnMut()),
    mut consume: impl FnMut(StreamChunk),
) {
    let mut stream = None;
    observe(StreamCall::Open, &mut || {
        let sim = Simulator::new(spec.cfg.clone()).expect("the baseline configuration is valid");
        stream = Some(StreamSimulator::with_compound(
            &sim,
            spec.fs_in,
            STREAM_NOISE_SEED,
            plan,
        ));
    });
    let mut stream = stream.expect("stream opened");
    for input in spec.input.chunks(PUSH_LEN) {
        let mut chunk = None;
        observe(StreamCall::Push, &mut || chunk = Some(stream.push(input)));
        consume(chunk.expect("pushed"));
    }
    let mut stream = Some(stream);
    let mut last = None;
    observe(StreamCall::Finish, &mut || {
        last = stream.take().map(|s| s.finish().0);
    });
    consume(last.expect("finished"));
}

/// Mean reference-fitted SNR (dB) over [`WINDOWS`] equal windows.
fn window_snr(out: &[f64], reference: &[f64]) -> f64 {
    let n = out.len().min(reference.len());
    if n < WINDOWS {
        return f64::NAN;
    }
    (0..WINDOWS)
        .map(|w| {
            let (lo, hi) = (n * w / WINDOWS, n * (w + 1) / WINDOWS);
            snr_fit_db(&reference[lo..hi], &out[lo..hi])
        })
        .sum::<f64>()
        / WINDOWS as f64
}

/// Re-evaluates a fixed subset of sweep points (first, middle and last of
/// the space, plus both sides of the baseline/CS boundary, in every cell)
/// through the plain path — `evaluate_point`: no store, no cache, no pool —
/// and compares them bit for bit with `first`, the first timed pass.
/// Returns (points attempted, points that differ or fail).
pub fn reference_check(spec: &SweepSpec, inputs: &Inputs, first: &[u64]) -> (usize, usize) {
    let points = spec.space.points();
    let n = points.len();
    let n_base = points
        .iter()
        .filter(|q| q.architecture == Architecture::Baseline)
        .count();
    let mut picks = vec![0, n / 2, n - 1];
    if n_base > 0 && n_base < n {
        picks.extend([n_base - 1, n_base]);
    }
    picks.sort_unstable();
    picks.dedup();
    let goal = spec.goal(inputs);
    let (mut attempted, mut failed) = (0, 0);
    for (c, plan) in spec.cells.iter().enumerate() {
        for &i in &picks {
            attempted += 1;
            let got = catch_unwind(AssertUnwindSafe(|| {
                evaluate_point(
                    &points[i],
                    &spec.space,
                    &inputs.dataset,
                    goal.as_ref(),
                    plan.as_ref(),
                )
            }));
            let hash = match got {
                Ok(Ok(r)) => point_hash(r.metric, r.power_w),
                _ => NO_RESULT,
            };
            if hash == NO_RESULT || first.get(c * n + i) != Some(&hash) {
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_core::cache::dataset_fingerprint;

    #[test]
    fn the_seed_determines_the_inputs() {
        let a = Inputs::generate(7);
        let b = Inputs::generate(7);
        let c = Inputs::generate(8);
        assert_eq!(
            dataset_fingerprint(&a.dataset),
            dataset_fingerprint(&b.dataset)
        );
        assert_eq!(
            (a.fault_seed, a.detector_seed),
            (b.fault_seed, b.detector_seed)
        );
        assert_ne!(
            dataset_fingerprint(&a.dataset),
            dataset_fingerprint(&c.dataset)
        );
        assert_ne!(a.fault_seed, c.fault_seed);
        assert_ne!(a.detector_seed, c.detector_seed);
        // The shape of the work does not depend on the seed.
        assert_eq!(a.dataset.len(), 15);
        assert_eq!(a.dataset.len(), c.dataset.len());
        assert_eq!(
            a.dataset.records[0].samples.len(),
            c.dataset.records[0].samples.len()
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("product_warm"), None);
    }

    #[test]
    fn stream_plans_cover_the_baseline_kinds_and_the_gauntlet() {
        let inputs = Inputs::generate(1);
        let spec = stream_spec(&inputs);
        assert_eq!(spec.plans.len(), 6);
        let seconds = spec.input.len() as f64 / spec.fs_in;
        assert!((560.0..=600.0).contains(&seconds), "replay {seconds} s");
    }

    #[test]
    fn cs_snr_slices_keep_the_space_and_its_order() {
        let (p, _) = setup(Workload::CsSnr, 1, false);
        let Spec::Sweep(s) = &p.spec else {
            panic!("cs_snr is a sweep")
        };
        assert_eq!(s.slices.len(), 8);
        let sliced: Vec<_> = s.slices.iter().flat_map(DesignSpace::points).collect();
        assert_eq!(sliced, s.space.points());
    }

    #[test]
    fn quarantined_points_hash_as_missing_and_fail() {
        let report = SweepReport {
            results: vec![],
            quarantine: vec![],
            points_total: 2,
        };
        let (hashes, failed) = report_hashes(&report);
        assert_eq!(hashes, vec![NO_RESULT, NO_RESULT]);
        assert_eq!(failed, 2, "lost points count as failed");
    }
}
