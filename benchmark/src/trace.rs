//! The traced run: per-layer numbers for one workload, measured from outside
//! the program. Spans are the benchmark's own, opened around calls into the
//! layers' public functions and held in memory until exit; counts come from
//! the layers' public stats (`SweepCache::stats`, `PrefixStore::stats`,
//! `memo::stats`). The program gains no span or counter for this.
//!
//! A traced pass drives the workload single-threaded through the same entry
//! points the sweep and stream engines use, so its results must equal the
//! untraced pass bit for bit. The block layers are then replayed at the
//! workload's shapes to price one unit of each layer's work; unit cost ×
//! the pass's counted units is that layer's estimated busy time, and their
//! sum over the traced wall time is `layers.coverage`.

use crate::util::{self, metric, percentile, point_hash, ratio, Metric};
use crate::workloads::{
    fresh_stores, run_pass, setup_reps, stream_plan, OutputDigest, Pass, Prepared, Spec,
    StreamCall, StreamSpec, SweepSpec, Workload, EPOCH_S, NO_RESULT,
};
use crate::Outcome;
use efficsense_blocks::{ChargeSharingEncoder, Lna, Sampler, SarAdc};
use efficsense_core::cache::{dataset_fingerprint, goal_descriptor, point_key, EvalContext};
use efficsense_core::goal::GoalFunction;
use efficsense_core::prelude::*;
use efficsense_core::simulate::SimScratch;
use efficsense_core::sweep::{salted_seed, Metric as SweepMetric, PointError};
use efficsense_cs::decode::reconstruct_batch;
use efficsense_cs::memo::{self, DictionaryArtifacts, DictionaryParams};
use efficsense_cs::recon::OmpConfig;
use efficsense_dsp::resample::{resample_linear, sample_at};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit. `BENCHMARK.json`
/// lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("signals.generate_s", "s"),
    ("detector.train_s", "s"),
    ("sweep.point_ms_p50", "ms"),
    ("sweep.point_ms_p99", "ms"),
    ("sweep.point_samples", "count"),
    ("sweep.pool_efficiency", "ratio"),
    ("sweep.untraced_pass_s", "s"),
    ("cache.l1.lookups", "count"),
    ("cache.l1.hit_rate", "ratio"),
    ("cache.l1.key_us", "us"),
    ("prefix.lookups", "count"),
    ("prefix.ct.lookups", "count"),
    ("prefix.ct.hit_rate", "ratio"),
    ("prefix.analog.lookups", "count"),
    ("prefix.analog.hit_rate", "ratio"),
    ("prefix.reference.lookups", "count"),
    ("prefix.reference.hit_rate", "ratio"),
    ("prefix.sampled.lookups", "count"),
    ("prefix.sampled.hit_rate", "ratio"),
    ("prefix.acquired.lookups", "count"),
    ("prefix.acquired.hit_rate", "ratio"),
    ("prefix.evictions", "count"),
    ("simulate.us_per_record", "us"),
    ("simulate.records_per_point", "count"),
    ("cs.memo.builds", "count"),
    ("cs.memo.build_ms", "ms"),
    ("dsp.resample.ns_per_sample", "ns"),
    ("dsp.interp.ns_per_sample", "ns"),
    ("dsp.interp.calls_per_point", "count"),
    ("blocks.lna.ns_per_sample", "ns"),
    ("blocks.lna.calls_per_point", "count"),
    ("blocks.lna.share", "ratio"),
    ("blocks.nyquist.ns_per_sample", "ns"),
    ("blocks.nyquist.calls_per_point", "count"),
    ("blocks.nyquist.share", "ratio"),
    ("blocks.encode.us_per_frame", "us"),
    ("blocks.encode.frames_per_point", "count"),
    ("blocks.encode.share", "ratio"),
    ("cs.decode.ms_per_record_p50", "ms"),
    ("cs.decode.ms_per_record_p99", "ms"),
    ("cs.decode.record_samples", "count"),
    ("cs.decode.frames_per_point", "count"),
    ("cs.decode.share", "ratio"),
    ("detect.us_per_window", "us"),
    ("detect.windows_per_point", "count"),
    ("detect.share", "ratio"),
    ("snr.us_per_point", "us"),
    ("power.us_per_call", "us"),
    ("power.calls_per_point", "count"),
    ("stream.push_us_p50", "us"),
    ("stream.push_us_p99", "us"),
    ("stream.push_samples", "count"),
    ("stream.pushes_per_point", "count"),
    ("stream.finish_ms", "ms"),
    ("trace.point_ms_mean", "ms"),
    ("trace.traced_pass_s", "s"),
    ("trace.untraced_points_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("layers.coverage", "ratio"),
];

/// One span: a named interval, its parent, and the point it belongs to.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    point: usize,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Parents are passed explicitly (no ambient
/// stack), so a point that panics leaves no dangling state behind.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, point: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            point,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        point: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, point, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ns) of every span named `name` since span index `from`.
    fn durations(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    fn total_s(&self, name: &str, from: usize) -> f64 {
        self.durations(name, from).iter().sum::<f64>() / 1e9
    }

    /// Writes every span as one JSON line: name, id, parent, point, start
    /// and end (ns since the run began).
    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"id\": {id}, \"parent\": {parent}, \"point\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.point, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Per-record shapes of the workload's signals.
#[derive(Debug, Clone, Copy)]
struct Shapes {
    /// Continuous-time proxy samples per record.
    ct_len: usize,
    /// Output samples per record at `f_sample`.
    out_len: usize,
    /// CS frames per record.
    frames: usize,
    /// Detector windows per record.
    windows: usize,
}

fn shapes(template: &SystemConfig, rec: &Record) -> Shapes {
    let (f_ct, f_s) = (template.f_ct_hz(), template.design.f_sample_hz());
    let ct_len = resample_linear(&rec.samples, rec.fs, f_ct).len();
    let out_len = (ct_len as f64 / f_ct * f_s).floor() as usize;
    let epoch = ((EPOCH_S * f_s) as usize).max(8);
    Shapes {
        ct_len,
        out_len,
        frames: template.cs.as_ref().map_or(0, |cs| out_len / cs.n_phi),
        windows: if out_len > epoch { out_len / epoch } else { 1 },
    }
}

/// Units of work one traced pass asked of each layer.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    points: usize,
    resample_samples: u64,
    /// Output-rate interpolations: reference builds and CS samplings.
    interp_samples: u64,
    lna_samples: u64,
    nyquist_samples: u64,
    encode_frames: u64,
    decode_frames: u64,
    power_calls: u64,
    detect_windows: u64,
    memo_builds: u64,
    pushes: u64,
    l1: CacheStats,
    prefix: PrefixStats,
}

/// One traced pass.
struct TracedPass {
    hashes: Vec<u64>,
    failed: usize,
    wall_s: f64,
    counts: Counts,
}

fn prefix_stats(prefix: &Option<Arc<PrefixStore>>) -> PrefixStats {
    prefix.as_ref().map(|p| p.stats()).unwrap_or_default()
}

/// One sweep pass, single-threaded, through the sweep engine's own entry
/// points: `cache::point_key`, `SweepCache::get`/`insert`, `Simulator::new`,
/// `Simulator::run_with_scratch` and `GoalFunction::evaluate`, in the order
/// `Sweep::run_report` and `evaluate_point_prefixed` call them.
fn traced_sweep_pass(spec: &SweepSpec, p: &Prepared, tr: &mut Tracer) -> TracedPass {
    let inputs = &p.inputs;
    let records = &inputs.dataset.records;
    let sh = shapes(&spec.space.template, &records[0]);
    let (cache, prefix) = fresh_stores(spec);
    let goal = spec.goal(inputs);
    let ctx = cache.as_ref().map(|_| EvalContext {
        goal: goal_descriptor(spec.metric, inputs.detector_seed, EPOCH_S),
        dataset_fingerprint: dataset_fingerprint(&inputs.dataset),
    });
    let points = spec.space.points();
    let mut scratch = SimScratch::new();
    let mut counts = Counts::default();
    let mut hashes = Vec::with_capacity(spec.points());
    let mut failed = 0;
    let t0 = Instant::now();
    for plan in &spec.cells {
        for point in &points {
            let id = hashes.len();
            let before = (prefix_stats(&prefix), memo::stats().dictionary.misses);
            let span = tr.open("sweep.point", id, None);
            let key = ctx.as_ref().map(|c| {
                tr.time("cache.key", id, Some(span), || {
                    point_key(&point.to_config(&spec.space.template), plan.as_ref(), c)
                })
            });
            let hit = match (&cache, &key) {
                (Some(c), Some(k)) => tr.time("cache.get", id, Some(span), || c.get(k)),
                _ => None,
            };
            let evaluated = hit.is_none();
            let outcome = match hit {
                Some(r) => Some(r),
                None => {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        evaluate_traced(
                            point,
                            spec,
                            p,
                            goal.as_ref(),
                            plan,
                            &prefix,
                            &mut scratch,
                            tr,
                            id,
                            span,
                        )
                    }))
                    .ok()
                    .and_then(Result::ok);
                    if let (Some(c), Some(k), Some(r)) = (&cache, key, &r) {
                        tr.time("cache.insert", id, Some(span), || c.insert(k, r.clone()));
                    }
                    r
                }
            };
            tr.close(span);
            match outcome {
                Some(r) if r.metric.is_finite() && r.power_w.is_finite() => {
                    hashes.push(point_hash(r.metric, r.power_w));
                }
                _ => {
                    failed += 1;
                    hashes.push(NO_RESULT);
                }
            }
            counts.points += 1;
            if !evaluated {
                continue;
            }
            let after = (prefix_stats(&prefix), memo::stats().dictionary.misses);
            let n = records.len() as u64;
            let acquired_hits = after.0.acquired.hits - before.0.acquired.hits;
            let acquired = n - acquired_hits;
            let cs = point.architecture == Architecture::CompressiveSensing;
            let built = |class: fn(&PrefixStats) -> u64, without_store: u64| {
                if prefix.is_some() {
                    class(&after.0) - class(&before.0)
                } else {
                    without_store
                }
            };
            let ct_builds = built(|s| s.ct.misses, n);
            let analog_builds = built(|s| s.analog.misses, n);
            let reference_builds = built(|s| s.reference.misses, n);
            let sampled_builds = built(|s| s.sampled.misses, if cs { acquired } else { 0 });
            counts.resample_samples += ct_builds * sh.ct_len as u64;
            counts.lna_samples += analog_builds * sh.ct_len as u64;
            counts.interp_samples += (reference_builds + sampled_builds) * sh.out_len as u64;
            if cs {
                counts.encode_frames += acquired * sh.frames as u64;
                counts.decode_frames += acquired * sh.frames as u64;
            } else {
                counts.nyquist_samples += acquired * sh.out_len as u64;
            }
            counts.power_calls += n;
            if spec.metric == SweepMetric::DetectionAccuracy {
                counts.detect_windows += n * sh.windows as u64;
            }
            counts.memo_builds += after.1 - before.1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    counts.l1 = cache.map(|c| c.stats()).unwrap_or_default();
    counts.prefix = prefix_stats(&prefix);
    TracedPass {
        hashes,
        failed,
        wall_s,
        counts,
    }
}

/// `evaluate_point_prefixed`, one public call at a time.
#[allow(clippy::too_many_arguments)]
fn evaluate_traced(
    point: &DesignPoint,
    spec: &SweepSpec,
    p: &Prepared,
    goal: &(dyn GoalFunction + Sync),
    plan: &Option<FaultPlan>,
    prefix: &Option<Arc<PrefixStore>>,
    scratch: &mut SimScratch,
    tr: &mut Tracer,
    id: usize,
    parent: usize,
) -> Result<SweepResult, PointError> {
    let cfg = point.to_config(&spec.space.template);
    let mut sim = tr
        .time("simulate.new", id, Some(parent), || Simulator::new(cfg))
        .map_err(PointError::Config)?;
    sim.set_fault_plan(plan.clone());
    sim.set_decode_threads(1);
    sim.set_prefix_store(prefix.clone());
    let mut outputs = Vec::with_capacity(p.inputs.dataset.len());
    for rec in &p.inputs.dataset.records {
        let seed = salted_seed(rec.id as u64 + 1, 0);
        let out = tr.time("simulate.run", id, Some(parent), || {
            sim.run_with_scratch(&rec.samples, rec.fs, seed, scratch)
        });
        outputs.push((out, rec.label()));
    }
    let metric = tr.time("goal.evaluate", id, Some(parent), || {
        goal.evaluate(&outputs)
    });
    let breakdown = outputs[0].0.power.clone();
    let area_units = outputs[0].0.area_units;
    let power_w = breakdown.total().value();
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

/// One stream pass with every `StreamSimulator` call in its own span.
fn traced_stream_pass(spec: &StreamSpec, tr: &mut Tracer) -> TracedPass {
    let first_span = tr.spans.len();
    let mut counts = Counts::default();
    let mut hashes = Vec::with_capacity(spec.plans.len());
    let mut failed = 0;
    let f_ct = spec.cfg.f_ct_hz();
    let ct_len = (spec.input.len() as f64 / spec.fs_in * f_ct).round() as u64;
    let t0 = Instant::now();
    for (id, plan) in spec.plans.iter().enumerate() {
        let span = tr.open("stream.plan", id, None);
        let mut out = OutputDigest::default();
        stream_plan(
            spec,
            plan,
            |call, f| {
                let name = match call {
                    StreamCall::Open => "stream.open",
                    StreamCall::Push => "stream.push",
                    StreamCall::Finish => "stream.finish",
                };
                tr.time(name, id, Some(span), f);
            },
            |chunk| out.add(&chunk),
        );
        tr.close(span);
        failed += usize::from(!out.healthy());
        hashes.push(out.finish());
        counts.points += 1;
        counts.resample_samples += ct_len;
        counts.lna_samples += ct_len;
        counts.nyquist_samples += out.samples as u64;
        counts.interp_samples += out.samples as u64;
        counts.power_calls += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    counts.pushes = tr.durations("stream.push", first_span).len() as u64;
    TracedPass {
        hashes,
        failed,
        wall_s,
        counts,
    }
}

/// Accumulates (time, units) per layer.
#[derive(Default)]
struct Acc {
    ns: f64,
    units: f64,
}

impl Acc {
    fn add(&mut self, ns: f64, units: usize) {
        self.ns += ns;
        self.units += units as f64;
    }

    fn per_unit(&self) -> f64 {
        ratio(self.ns, self.units)
    }
}

/// The configurations a workload's replays run at, so unit costs average
/// over the pass's own mix of work: every design point of a sweep under each
/// distinct fault cell (severity-0 cells are all the clean chain), and a
/// stream's chain under each plan at the replay's midpoint severity.
fn replay_configs(p: &Prepared) -> Vec<(SystemConfig, Option<FaultPlan>)> {
    match &p.spec {
        Spec::Stream(s) => {
            let mid_s = s.input.len() as f64 / s.fs_in / 2.0;
            s.plans
                .iter()
                .map(|plan| (s.cfg.clone(), Some(plan.materialize(mid_s))))
                .collect()
        }
        Spec::Sweep(s) => {
            let mut cells: Vec<Option<FaultPlan>> = Vec::new();
            for plan in &s.cells {
                let plan = plan.clone().filter(|q| !q.is_clean());
                if !cells.contains(&plan) {
                    cells.push(plan);
                }
            }
            let points = s.space.points();
            cells
                .iter()
                .flat_map(|plan| {
                    points
                        .iter()
                        .map(move |q| (q.to_config(&s.space.template), plan.clone()))
                })
                .collect()
        }
    }
}

fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

/// Host time and units of work of every block layer, replayed at the
/// workload's shapes through the layers' public functions and summed over
/// replays; time over units is the layer's unit cost.
#[derive(Default)]
struct Replay {
    resample: Acc,
    interp: Acc,
    lna: Acc,
    nyquist: Acc,
    encode: Acc,
    decode: Acc,
    detect: Acc,
    power: Acc,
    builds: Acc,
    decode_record_ms: Vec<f64>,
    /// Dictionaries already timed (each is built once per run).
    built: Vec<DictionaryParams>,
}

/// Replays every block layer over every record at each replay config, with
/// the config's faults injected into the blocks they live in, adding to `r`.
fn replay(p: &Prepared, tr: &mut Tracer, r: &mut Replay) {
    let detector = match &p.spec {
        Spec::Sweep(s) if s.metric == SweepMetric::DetectionAccuracy => {
            let fs = s.space.template.design.f_sample_hz();
            Some(efficsense_core::cache::trained_detector(
                &p.inputs.dataset,
                fs,
                EPOCH_S,
                p.inputs.detector_seed,
            ))
        }
        _ => None,
    };
    for (ci, (cfg, plan)) in replay_configs(p).into_iter().enumerate() {
        let span = tr.open("replay.config", ci, None);
        let (f_ct, f_s) = (cfg.f_ct_hz(), cfg.design.f_sample_hz());
        let dict = cfg.cs.as_ref().map(|cs| {
            let tau = cs.c_hold_f * cfg.design.v_ref / cfg.tech.i_leak_a;
            let params = DictionaryParams {
                m: cs.m,
                n_phi: cs.n_phi,
                s: cs.s,
                seed: cfg.seed ^ 0x5EB1,
                c_sample_f: cs.c_sample_f,
                c_hold_f: cs.c_hold_f,
                decay: if cs.imperfections.leakage {
                    (-(1.0 / f_s) / tau).exp()
                } else {
                    1.0
                },
                basis: cs.basis,
            };
            if !r.built.contains(&params) {
                let (_, ns) = time_ns(|| DictionaryArtifacts::build(&params));
                r.builds.add(ns, 1);
                r.built.push(params);
            }
            memo::dictionary(&params)
        });
        for rec in &p.inputs.dataset.records {
            let seed = cfg.seed ^ (rec.id as u64 + 1);
            let (ct, ns) = time_ns(|| resample_linear(&rec.samples, rec.fs, f_ct));
            r.resample.add(ns, ct.len());
            let n_ref = (rec.samples.len() as f64 / rec.fs * f_s) as usize;
            let (reference, ns) = time_ns(|| {
                (0..n_ref)
                    .map(|i| sample_at(&rec.samples, rec.fs, i as f64 / f_s))
                    .collect::<Vec<f64>>()
            });
            std::hint::black_box(reference);
            r.interp.add(ns, n_ref);
            let mut block = Lna::from_design(
                &cfg.design,
                cfg.lna.gain,
                cfg.lna.noise_floor_vrms,
                cfg.lna.k3,
                f_ct,
                seed,
            );
            if let Some(plan) = &plan {
                block.inject_rail_fault(plan.lna, plan.stream(seed));
            }
            let (amplified, ns) = time_ns(|| block.process_buffer(&ct));
            r.lna.add(ns, amplified.len());
            let adc = || {
                let mut converter = SarAdc::new(
                    cfg.design.n_bits,
                    cfg.design.v_fs,
                    cfg.adc.c_u_f,
                    cfg.adc.comparator_noise_v,
                    cfg.adc.comparator_offset_v,
                    &cfg.tech,
                    cfg.seed,
                );
                converter.inject_stuck_bit(plan.as_ref().and_then(|q| q.adc));
                converter
            };
            let output: Vec<f64> = match (&cfg.cs, &dict) {
                (Some(cs), Some(art)) => {
                    let n = (amplified.len() as f64 / f_ct * f_s).floor() as usize;
                    let (sampled, ns) = time_ns(|| {
                        (0..n)
                            .map(|i| sample_at(&amplified, f_ct, i as f64 / f_s))
                            .collect::<Vec<f64>>()
                    });
                    r.interp.add(ns, n);
                    let phi = memo::srbm(cs.m, cs.n_phi, cs.s, cfg.seed ^ 0x5EB1);
                    let mut encoder = ChargeSharingEncoder::new(
                        (*phi).clone(),
                        cs.c_sample_f,
                        cs.c_hold_f,
                        1.0 / f_s,
                        cs.imperfections,
                        &cfg.tech,
                        &cfg.design,
                        seed,
                    );
                    if let Some(plan) = &plan {
                        encoder.inject_leakage_fault(plan.leakage, &cfg.tech, &cfg.design);
                    }
                    let mut converter = adc();
                    let (frames, ns) = time_ns(|| {
                        sampled
                            .chunks_exact(cs.n_phi)
                            .map(|frame| {
                                let y = encoder.encode_frame(frame);
                                y.iter()
                                    .map(|&v| converter.process(v))
                                    .collect::<Vec<f64>>()
                            })
                            .collect::<Vec<_>>()
                    });
                    r.encode.add(ns, frames.len());
                    // The decoder's stopping rule, as the simulator derives it.
                    let ktc_var = if cs.imperfections.ktc_noise {
                        efficsense_power::kt() / cs.c_sample_f
                    } else {
                        0.0
                    };
                    let vn = cfg.lna.noise_floor_vrms * cfg.lna.gain;
                    let lsb = cfg.design.lsb();
                    let var = (vn * vn + ktc_var) * art.mean_row_w2 + lsb * lsb / 12.0;
                    let noise_norm = (var * cs.m as f64).sqrt();
                    let cfgs: Vec<OmpConfig> = frames
                        .iter()
                        .map(|y| OmpConfig {
                            sparsity: cs.omp_sparsity,
                            residual_tol: (noise_norm
                                / efficsense_cs::linalg::norm2(y).max(1e-300))
                            .clamp(1e-4, 0.9),
                        })
                        .collect();
                    let (decoded, ns) = time_ns(|| reconstruct_batch(art, &frames, &cfgs, 1));
                    r.decode.add(ns, frames.len());
                    r.decode_record_ms.push(ns / 1e6);
                    decoded.concat()
                }
                _ => {
                    let (out, ns) = time_ns(|| {
                        let mut sampler = Sampler::new(
                            f_s,
                            cfg.design.c_sample_bound().value().max(cfg.tech.c_u_min_f),
                            0.0,
                            seed,
                        );
                        if let Some(plan) = &plan {
                            sampler.inject_clock_fault(plan.clock, plan.stream(seed));
                        }
                        let sampled = sampler.sample(&amplified, f_ct);
                        adc().process_buffer(&sampled)
                    });
                    r.nyquist.add(ns, out.len());
                    out
                }
            };
            if let Some(d) = &detector {
                let signal: Vec<f64> = output.iter().map(|v| v / cfg.lna.gain).collect();
                let n = ((EPOCH_S * f_s) as usize).max(8);
                for w in signal.chunks_exact(n) {
                    let (_, ns) = time_ns(|| std::hint::black_box(d.predict_window(w, f_s)));
                    r.detect.add(ns, 1);
                }
            }
        }
        let sim = Simulator::new(cfg.clone()).expect("replay configurations are valid");
        for _ in 0..64 {
            let (b, ns) = time_ns(|| sim.power_breakdown(cfg.design.v_fs / 2.0));
            std::hint::black_box(b);
            r.power.add(ns, 1);
        }
        tr.close(span);
    }
}

/// The traced run of `workload` at `seed`, with traced passes repeated for
/// about `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let (p, times) = setup_reps(workload, seed);
    let generate_s: Vec<f64> = times.iter().map(|t| t.generate_s).collect();
    let train_s: Vec<f64> = times.iter().map(|t| t.train_s).collect();
    let workers = p.workers();
    // Untraced passes at the workload's own worker count (the pool
    // efficiency base) and at one worker (the tracing-overhead base), traced
    // passes and block replays take turns, so every ratio between them is
    // taken under the same host conditions.
    let t_run = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut untraced_1w: Vec<Pass> = Vec::new();
    let mut passes = Vec::new();
    let mut tr = Tracer::new();
    let mut r = Replay::default();
    while passes.is_empty() || t_run.elapsed().as_secs_f64() < seconds {
        untraced.push(run_pass(&p, workers));
        if workers > 1 {
            untraced_1w.push(run_pass(&p, 1));
        }
        passes.push(match &p.spec {
            Spec::Sweep(s) => traced_sweep_pass(s, &p, &mut tr),
            Spec::Stream(s) => traced_stream_pass(s, &mut tr),
        });
        replay(&p, &mut tr, &mut r);
    }
    let mean_wall = |v: &[Pass]| v.iter().map(|q| q.wall_s).sum::<f64>() / v.len() as f64;
    let untraced_s = mean_wall(&untraced);
    let untraced_1w_s = if untraced_1w.is_empty() {
        untraced_s
    } else {
        mean_wall(&untraced_1w)
    };

    // Correctness: every pass, untraced or traced, must reproduce the first
    // bit for bit, every traced pass must count the same work, and the
    // first pass is held to the committed digest like any measured run.
    let points = p.points() as u64;
    let first = &passes[0];
    let expected = &untraced[0].hashes;
    let mut failed = 0;
    for q in untraced.iter().chain(&untraced_1w) {
        failed += (q.failed + util::mismatches(expected, &q.hashes)) as u64;
    }
    let mut notes = Vec::new();
    for t in &passes {
        failed += (t.failed + util::mismatches(expected, &t.hashes)) as u64;
        if t.counts != first.counts {
            notes.push("traced passes counted different work".to_string());
            failed += points;
        }
    }
    let attempted = points * (untraced.len() + untraced_1w.len() + passes.len()) as u64;
    let digest = crate::committed_check(workload, seed, expected, &mut notes);
    if digest.is_err() {
        failed = attempted;
    }

    // Per-layer numbers (per pass, from the first traced pass's counts;
    // timings over every traced pass).
    let c = &first.counts;
    let per_point = |v: u64| ratio(v as f64, c.points as f64);
    let traced_wall = passes.iter().map(|t| t.wall_s).sum::<f64>() / passes.len() as f64;
    let (point_span, is_sweep) = match &p.spec {
        Spec::Sweep(_) => ("sweep.point", true),
        Spec::Stream(_) => ("stream.plan", false),
    };
    let point_ns: Vec<f64> = tr.durations(point_span, 0);
    let point_ms_mean = ratio(point_ns.iter().sum::<f64>(), point_ns.len() as f64) / 1e6;
    let n_passes = passes.len() as f64;
    let span_s = |name: &str| tr.total_s(name, 0) / n_passes;
    let mean_us = |name: &str| {
        let d = tr.durations(name, 0);
        ratio(d.iter().sum::<f64>(), d.len() as f64) / 1e3
    };
    let snr_goal = matches!(&p.spec, Spec::Sweep(s) if s.metric == SweepMetric::Snr);

    // Ledger: estimated busy seconds per pass of every layer, as the units
    // the pass counted times the replayed unit cost, or straight from the
    // spans for the layers the drive calls directly.
    let priced = |units: u64, acc: &Acc| units as f64 * acc.per_unit() / 1e9;
    let ledger = [
        ("dsp.resample", priced(c.resample_samples, &r.resample)),
        ("dsp.interp", priced(c.interp_samples, &r.interp)),
        ("blocks.lna", priced(c.lna_samples, &r.lna)),
        ("blocks.nyquist", priced(c.nyquist_samples, &r.nyquist)),
        ("blocks.encode", priced(c.encode_frames, &r.encode)),
        ("cs.decode", priced(c.decode_frames, &r.decode)),
        ("detect", priced(c.detect_windows, &r.detect)),
        ("power", priced(c.power_calls, &r.power)),
        ("cs.memo", priced(c.memo_builds, &r.builds)),
        (
            "snr",
            if snr_goal {
                span_s("goal.evaluate")
            } else {
                0.0
            },
        ),
        (
            "cache.l1",
            span_s("cache.key") + span_s("cache.get") + span_s("cache.insert"),
        ),
    ];
    let layer_s = |name: &str| ledger.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1);
    let busy_s: f64 = ledger.iter().map(|l| l.1).sum();
    let coverage = ratio(busy_s, traced_wall);
    let share = |name: &str| ratio(layer_s(name), traced_wall);
    let front_end = [
        "dsp.resample",
        "dsp.interp",
        "blocks.lna",
        "blocks.nyquist",
        "blocks.encode",
        "cs.decode",
        "power",
    ]
    .iter()
    .map(|n| layer_s(n))
    .sum::<f64>();
    // Where the unexplained time sits: each entry point's measured time
    // minus the layers priced inside it, plus the drive's own glue.
    let entry_s: f64 = [
        "simulate.new",
        "simulate.run",
        "goal.evaluate",
        "cache.key",
        "cache.get",
        "cache.insert",
        "stream.open",
        "stream.push",
        "stream.finish",
    ]
    .iter()
    .map(|n| span_s(n))
    .sum();
    let gaps = [
        (
            "simulate.run",
            span_s("simulate.run") - if is_sweep { front_end } else { 0.0 },
        ),
        ("simulate.new", span_s("simulate.new") - layer_s("cs.memo")),
        (
            "goal.evaluate",
            span_s("goal.evaluate") - layer_s("detect") - layer_s("snr"),
        ),
        (
            "stream.push+finish",
            span_s("stream.push") + span_s("stream.finish")
                - if is_sweep { 0.0 } else { front_end },
        ),
        ("stream.open", span_s("stream.open")),
        ("benchmark glue", traced_wall - entry_s),
    ];
    let gap = gaps
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("gaps listed");
    if !(0.85..=1.15).contains(&coverage) {
        notes.push(format!(
            "layers.coverage {coverage:.3} is outside 1 ± 0.15; largest unattributed gap: {} ({:.3} s of {:.3} s per pass)",
            gap.0, gap.1, traced_wall
        ));
    }

    let decode = &r.decode_record_ms;
    let push_us: Vec<f64> = tr
        .durations("stream.push", 0)
        .iter()
        .map(|v| v / 1e3)
        .collect();
    let point_ms: Vec<f64> = point_ns.iter().map(|v| v / 1e6).collect();
    let untraced_pps_1w = ratio(points as f64, untraced_1w_s);
    let traced_pps = ratio(points as f64, traced_wall);
    let prefix_lookups = c.prefix.hits() + c.prefix.misses();
    let class =
        |s: &efficsense_core::prefix::ClassStats| ((s.hits + s.misses) as f64, s.hit_rate());
    let (ct, analog, reference, sampled, acquired) = (
        class(&c.prefix.ct),
        class(&c.prefix.analog),
        class(&c.prefix.reference),
        class(&c.prefix.sampled),
        class(&c.prefix.acquired),
    );
    let sweep_only = |v: f64| if is_sweep { v } else { 0.0 };
    let values: Vec<(&str, f64)> = vec![
        ("signals.generate_s", crate::util::median(&generate_s)),
        ("detector.train_s", crate::util::median(&train_s)),
        ("sweep.point_ms_p50", sweep_only(percentile(&point_ms, 0.5))),
        (
            "sweep.point_ms_p99",
            sweep_only(percentile(&point_ms, 0.99)),
        ),
        ("sweep.point_samples", sweep_only(point_ms.len() as f64)),
        (
            "sweep.pool_efficiency",
            sweep_only(ratio(
                point_ms.iter().sum::<f64>() / 1e3 / n_passes,
                workers as f64 * untraced_s,
            )),
        ),
        ("sweep.untraced_pass_s", sweep_only(untraced_s)),
        ("cache.l1.lookups", (c.l1.hits + c.l1.misses) as f64),
        ("cache.l1.hit_rate", c.l1.hit_rate()),
        ("cache.l1.key_us", mean_us("cache.key")),
        ("prefix.lookups", prefix_lookups as f64),
        ("prefix.ct.lookups", ct.0),
        ("prefix.ct.hit_rate", ct.1),
        ("prefix.analog.lookups", analog.0),
        ("prefix.analog.hit_rate", analog.1),
        ("prefix.reference.lookups", reference.0),
        ("prefix.reference.hit_rate", reference.1),
        ("prefix.sampled.lookups", sampled.0),
        ("prefix.sampled.hit_rate", sampled.1),
        ("prefix.acquired.lookups", acquired.0),
        ("prefix.acquired.hit_rate", acquired.1),
        ("prefix.evictions", c.prefix.evictions() as f64),
        ("simulate.us_per_record", mean_us("simulate.run")),
        (
            "simulate.records_per_point",
            ratio(
                tr.durations("simulate.run", 0).len() as f64 / n_passes,
                c.points as f64,
            ),
        ),
        ("cs.memo.builds", c.memo_builds as f64),
        ("cs.memo.build_ms", r.builds.per_unit() / 1e6),
        ("dsp.resample.ns_per_sample", r.resample.per_unit()),
        ("dsp.interp.ns_per_sample", r.interp.per_unit()),
        ("dsp.interp.calls_per_point", per_point(c.interp_samples)),
        ("blocks.lna.ns_per_sample", r.lna.per_unit()),
        ("blocks.lna.calls_per_point", per_point(c.lna_samples)),
        ("blocks.lna.share", share("blocks.lna")),
        ("blocks.nyquist.ns_per_sample", r.nyquist.per_unit()),
        (
            "blocks.nyquist.calls_per_point",
            per_point(c.nyquist_samples),
        ),
        ("blocks.nyquist.share", share("blocks.nyquist")),
        ("blocks.encode.us_per_frame", r.encode.per_unit() / 1e3),
        ("blocks.encode.frames_per_point", per_point(c.encode_frames)),
        ("blocks.encode.share", share("blocks.encode")),
        ("cs.decode.ms_per_record_p50", percentile(decode, 0.5)),
        ("cs.decode.ms_per_record_p99", percentile(decode, 0.99)),
        ("cs.decode.record_samples", decode.len() as f64),
        ("cs.decode.frames_per_point", per_point(c.decode_frames)),
        ("cs.decode.share", share("cs.decode")),
        ("detect.us_per_window", r.detect.per_unit() / 1e3),
        ("detect.windows_per_point", per_point(c.detect_windows)),
        ("detect.share", share("detect")),
        (
            "snr.us_per_point",
            if snr_goal {
                mean_us("goal.evaluate")
            } else {
                0.0
            },
        ),
        ("power.us_per_call", r.power.per_unit() / 1e3),
        ("power.calls_per_point", per_point(c.power_calls)),
        ("stream.push_us_p50", percentile(&push_us, 0.5)),
        ("stream.push_us_p99", percentile(&push_us, 0.99)),
        ("stream.push_samples", push_us.len() as f64),
        ("stream.pushes_per_point", per_point(c.pushes)),
        ("stream.finish_ms", mean_us("stream.finish") / 1e3),
        ("trace.point_ms_mean", point_ms_mean),
        ("trace.traced_pass_s", traced_wall),
        ("trace.untraced_points_per_s", untraced_pps_1w),
        (
            "trace.overhead_frac",
            1.0 - ratio(traced_pps, untraced_pps_1w),
        ),
        ("layers.coverage", coverage),
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            metric(name, unit, v)
        })
        .collect();

    let path = std::path::PathBuf::from(".bench_trace")
        .join(format!("{}-seed{seed}.jsonl", workload.name()));
    if let Err(e) = tr.write_jsonl(&path) {
        notes.push(format!("could not write {}: {e}", path.display()));
    }
    let ledger_json = ledger
        .iter()
        .map(|(n, s)| format!("\"{n}\": {s:.6}"))
        .collect::<Vec<_>>()
        .join(", ");
    let gaps_json = gaps
        .iter()
        .map(|(n, s)| format!("\"{n}\": {s:.6}"))
        .collect::<Vec<_>>()
        .join(", ");
    let detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": 1, \"host\": {}, \"traced_passes\": {}, \
         \"digest\": \"{:016x}\", \"spans\": {}, \"trace_file\": \"{}\", \
         \"ledger_s_per_pass\": {{{ledger_json}}}, \"gap_s_per_pass\": {{{gaps_json}}}, \"largest_gap\": \"{}\", \"notes\": [{}]}}",
        workload.name(),
        util::host_json(),
        passes.len(),
        util::Digest::of(expected.iter().copied()),
        tr.spans.len(),
        efficsense_obs::json::escape(&path.display().to_string()),
        gap.0,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(util::valid_metric_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                PER_LAYER[..i].iter().all(|(n, _)| n != name),
                "{name} listed twice"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn spans_nest_and_serialise() {
        let mut tr = Tracer::new();
        let root = tr.open("sweep.point", 3, None);
        let v = tr.time("cache.key", 3, Some(root), || 7);
        tr.close(root);
        assert_eq!(v, 7);
        assert_eq!(tr.durations("cache.key", 0).len(), 1);
        assert!(tr.spans[1].start_ns >= tr.spans[0].start_ns);
        assert!(tr.spans[1].end_ns <= tr.spans[0].end_ns);
        let dir = std::env::temp_dir().join(format!("efficsense-benchmark-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        tr.write_jsonl(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        std::fs::remove_dir_all(&dir).ok();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = efficsense_obs::json::Json::parse(lines[1]).expect("JSON line");
        assert_eq!(
            second
                .get("parent")
                .and_then(efficsense_obs::json::Json::as_u64),
            Some(0)
        );
        assert_eq!(
            second
                .get("point")
                .and_then(efficsense_obs::json::Json::as_u64),
            Some(3)
        );
    }
}
