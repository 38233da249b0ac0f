//! The acquisition chain — LNA → S&H or charge-sharing encoder → SAR ADC →
//! link — as one streaming, bounded-memory pipeline.
//!
//! [`StreamSimulator`] is the only implementation of the chain: input
//! arrives in chunks of any size, every block carries its state across
//! chunk boundaries, and memory stays bounded however long the stream runs.
//! [`Simulator::run`] is the same stream fed its whole record in one push.
//! Each push advances three stages as far as the buffered input allows —
//! (1) resample to the continuous-time proxy grid and amplify, (2) the
//! back end (acquisition, then ADC → link, or encoder → ADC → link
//! erasures → batched OMP decode), (3) the clean reference at the output
//! rate. Values are emitted *eagerly* once their inputs can no longer
//! change; end-of-record clamps resolve only once the input is complete.
//! Every block draws from its own RNG stream in sample order, so output is
//! invariant to the chunking: any chunking of a static plan reproduces
//! [`Simulator::run`] bit for bit, and a [`CompoundPlan`] — severity
//! updated at epoch boundaries of each block's own sample index — gives
//! the same bits for any chunk size or decode thread count.
//!
//! **Whole-record runs.** [`Simulator::run`] knows its record before the
//! stream opens. Its one push completes every stage, so each stage reports
//! one per-record span (`sim.analog` ⊃ `sim.analog.build`,
//! `sim.sample.build`, `sim.encode`, `sim.reference.build`); and with a
//! Level-3 [`PrefixStore`] attached, the stage boundaries consult it: an
//! `analog` hit replaces stage 1 and is read in place, a `ct` hit its
//! resampling half, a `sampled` hit the CS clean-clock acquisition, a
//! `reference` hit stage 3; whatever is built instead is inserted as its
//! stage completes. The `acquired` boundary is answered before the stream
//! opens. Chunked streams stay store-free: their record fingerprint only
//! exists once the stream ends.
//!
//! Every decode flush runs under a `stage.reconstruct` span; chunked
//! streams tick a `stream.heartbeat` counter (plus a `stream.progress`
//! trace event when a sink is installed) at fixed output-sample intervals.
//! All of it fires at chunk-invariant points, so
//! [`LogicalClock`](efficsense_obs::LogicalClock) snapshots match across
//! chunkings.
//!
//! [`Simulator::run`]: crate::simulate::Simulator::run

use crate::config::{CsConfig, SystemConfig};
use crate::prefix::{self, AcquiredPrefix, AnalogParams, PrefixKey, PrefixStore};
use crate::simulate::{ArchState, CsState, SimOutput, SimScratch, Simulator};
use efficsense_blocks::{ChargeSharingEncoder, Lna, Sampler, SarAdc};
use efficsense_cs::decode::reconstruct_batch;
use efficsense_cs::memo::DictionaryArtifacts;
use efficsense_cs::recon::OmpConfig;
use efficsense_faults::{
    ClockFault, CompoundPlan, FaultKind, FaultPlan, LinkFault, LinkStats, LnaRailFault,
};
use efficsense_power::{DesignParams, PowerBreakdown, TechnologyParams};
use efficsense_rng::Rng64;
use std::sync::Arc;

/// Frames digitised before each batched decode flush of a chunked stream.
/// Flush boundaries are counted in *frames*, so they are invariant to how
/// the raw input was chunked. A whole-record run decodes in one flush.
const DECODE_BATCH: usize = 16;

/// Output samples between `stream.heartbeat` ticks.
const HEARTBEAT_EVERY: u64 = 8192;

/// Stream-side look-back guard (continuous-time samples) kept behind the
/// consumer position to serve jittered acquisition instants. The largest
/// clock fault jitters by half a sample period — a few CT samples — so
/// 4096 is hundreds of standard deviations of margin.
const CT_GUARD: u64 = 4096;

/// Raw-ring guard (input samples) behind the resampler/reference cursors.
const RAW_GUARD: u64 = 8;

/// Per-block fault-stream salts (see [`FaultPlan::stream`]); spaced so the
/// per-record mix `salt + 256·noise_seed` stays injective.
const SALT_LNA: u64 = 1;
const SALT_CLOCK: u64 = 2;
const SALT_LINK: u64 = 3;

/// A zero-effect railing fault, used to arm the LNA's private fault stream
/// before a severity profile first becomes active.
const NOOP_RAIL: LnaRailFault = LnaRailFault {
    rail_prob: 0.0,
    episode_len: 0,
    v_clip_factor: 1.0,
};

/// A zero-effect clock fault (same role as [`NOOP_RAIL`]).
const NOOP_CLOCK: ClockFault = ClockFault {
    jitter_periods: 0.0,
    drop_prob: 0.0,
};

/// Link parameters in force while a packet-loss profile sits at severity 0:
/// lossless, but with the same packet geometry [`FaultPlan::single`] maps
/// active severities onto, so packet boundaries never move when severity
/// does.
const NOOP_LINK: LinkFault = LinkFault {
    loss_prob: 0.0,
    max_retries: 2,
    packet_words: 16,
};

/// A read view of a signal addressed by *absolute* sample index: `buf[0]`
/// is sample `base`, and `first` is sample 0, kept so the `t <= 0` edge
/// clamp of [`sample_at`](efficsense_dsp::resample::sample_at) survives
/// pruning. Interpolation mirrors `sample_at` bit for bit on the growing
/// signal; the end clamp resolves only once the signal is `finished`.
#[derive(Clone, Copy)]
struct Track<'a> {
    base: u64,
    buf: &'a [f64],
    first: f64,
}

impl<'a> Track<'a> {
    /// A whole signal held in memory.
    fn whole(buf: &'a [f64]) -> Self {
        Self {
            base: 0,
            buf,
            first: buf.first().copied().unwrap_or(0.0),
        }
    }

    fn len(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Interpolation at `pos` samples for `0 < pos < len − 1`. The pruning
    /// guards keep `pos >= base`; the saturating clamp only keeps the
    /// accessor total.
    fn interior(&self, pos: f64) -> f64 {
        // `pos > 0`, so truncation is `sample_at`'s floor — without a libm
        // call on baseline x86-64.
        let i = pos as u64;
        let frac = pos - i as f64;
        let j = i.saturating_sub(self.base) as usize;
        self.buf[j] * (1.0 - frac) + self.buf[j + 1] * frac
    }

    /// The signal (rate `fs`) at `t` seconds, or `None` while the
    /// interpolation neighbourhood could still change.
    fn interp_at(&self, fs: f64, t: f64, finished: bool) -> Option<f64> {
        let total = self.len();
        let pos = t * fs;
        if total == 0 {
            None
        } else if pos <= 0.0 {
            Some(self.first)
        } else if pos < (total - 1) as f64 {
            Some(self.interior(pos))
        } else {
            finished.then(|| self.buf[self.buf.len() - 1])
        }
    }

    /// Resamples the signal (rate `fs`) onto an `f_out` grid, output `k` at
    /// `k / f_out` seconds: the final values of outputs `next..end` — the
    /// interior ones, then, once `finished`, the end-clamped tail — and the
    /// index after the last. The fixed-grid form of [`Track::interp_at`],
    /// as one exact-length iterator.
    fn resample(
        self,
        fs: f64,
        f_out: f64,
        next: u64,
        end: u64,
        finished: bool,
    ) -> (u64, impl Iterator<Item = f64> + 'a) {
        let total = self.len();
        let pos = move |k: u64| k as f64 / f_out * fs;
        let interior = |k: u64| total > 0 && (k == 0 || pos(k) < (total - 1) as f64);
        let estimate = (total.saturating_sub(1) as f64 / fs * f_out).ceil() as u64;
        let mut stop = estimate.clamp(next, end.max(next));
        while stop > next && !interior(stop - 1) {
            stop -= 1;
        }
        while stop < end && interior(stop) {
            stop += 1;
        }
        let tail_end = if finished && total > 0 { end } else { stop };
        let last = self.buf.last().copied().unwrap_or(self.first);
        let values = (next..stop)
            .map(move |k| {
                let p = pos(k);
                if p <= 0.0 {
                    self.first
                } else {
                    self.interior(p)
                }
            })
            .chain((stop..tail_end).map(move |_| last));
        (tail_end.max(next), values)
    }
}

/// Appends `values` to `buf`, growing it to a power of two as repeated
/// pushes would: a stream of equal pushes then settles on one allocation
/// instead of doubling an exact fit every other push.
fn append(buf: &mut Vec<f64>, values: impl Iterator<Item = f64>) {
    let need = buf.len() + values.size_hint().0;
    if need > buf.capacity() {
        buf.reserve_exact(need.next_power_of_two() - buf.len());
    }
    buf.extend(values);
}

/// An append-only sample buffer addressed by absolute index, with
/// deterministic pruning of the consumed prefix.
#[derive(Debug, Clone, Default)]
struct Ring {
    /// Absolute index of `buf[0]`.
    base: u64,
    buf: Vec<f64>,
    /// Sample 0, recorded when the first prune drops it.
    first: f64,
}

impl Ring {
    fn len(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    fn view(&self) -> Track<'_> {
        match self.base {
            0 => Track::whole(&self.buf),
            base => Track {
                base,
                buf: &self.buf,
                first: self.first,
            },
        }
    }

    /// Drops samples below absolute index `keep_from` (amortised: only
    /// compacts once ≥ 1024 samples are prunable). Always retains at least
    /// one sample so the end clamp stays serviceable.
    fn prune_below(&mut self, keep_from: u64) {
        let keep = keep_from.min(self.len().saturating_sub(1)).max(self.base);
        let n = keep - self.base;
        if n >= 1024 {
            self.first = self.view().first;
            self.buf.drain(..n as usize);
            self.base = keep;
        }
    }
}

/// The design point's SAR converter (mismatch drawn from the config seed,
/// so every record and the power model see the same chip).
pub(crate) fn sar_adc(cfg: &SystemConfig) -> SarAdc {
    SarAdc::new(
        cfg.design.n_bits,
        cfg.design.v_fs,
        cfg.adc.c_u_f,
        cfg.adc.comparator_noise_v,
        cfg.adc.comparator_offset_v,
        &cfg.tech,
        cfg.seed,
    )
}

/// The Level-3 context of a whole-record run with a store attached: the
/// record fingerprint every prefix key hangs off, known before the stream
/// opens.
#[derive(Debug, Clone)]
struct RecordPrefix {
    store: Arc<PrefixStore>,
    fp: u64,
    /// Key of the record's LNA-amplified buffer.
    analog: PrefixKey,
    /// Key of the run's acquired output, inserted as the run completes.
    acquired: PrefixKey,
}

/// The `reference` stage of a whole record: the clean `input` at `f_s`,
/// exactly `len` samples, appended to `out` — served from (or recorded in)
/// the store's `reference` class when a store and the record fingerprint
/// are given.
pub(crate) fn whole_reference(
    prefix: Option<(&PrefixStore, u64)>,
    input: &[f64],
    fs_in: f64,
    f_s: f64,
    len: usize,
    out: &mut Vec<f64>,
) {
    let key = prefix.map(|(store, fp)| (store, prefix::reference_key(fp, fs_in, f_s, len)));
    if let Some(hit) = key.and_then(|(store, key)| store.get_reference(key)) {
        out.extend_from_slice(&hit);
        return;
    }
    let start = out.len();
    {
        // Priced by the L3 cache-efficacy report (memo.reference).
        let _build_span = efficsense_obs::span!("sim.reference.build");
        let (_, values) = Track::whole(input).resample(fs_in, f_s, 0, len as u64, true);
        out.extend(values);
    }
    if let Some((store, key)) = key {
        store.insert_reference(key, out[start..].to_vec());
    }
}

/// The fault hooks a stream arms. Armed blocks get their fault state
/// *installed* up front (private streams created, even at severity 0) so
/// later severity changes never shift any stream.
#[derive(Debug, Clone, Copy, Default)]
struct Members {
    lna: bool,
    adc: bool,
    leakage: bool,
    clock: bool,
    link: bool,
}

impl Members {
    /// The hooks a compound plan can ever activate.
    fn of(plan: &CompoundPlan) -> Self {
        let mut m = Self::default();
        for (kind, profile) in plan.faults() {
            if profile.max_severity() <= 0.0 {
                continue;
            }
            match kind {
                FaultKind::LnaRail => m.lna = true,
                FaultKind::AdcStuckBit => m.adc = true,
                FaultKind::CapLeakage => m.leakage = true,
                FaultKind::ClockJitter | FaultKind::DroppedSamples => m.clock = true,
                FaultKind::PacketLoss => m.link = true,
            }
        }
        m
    }

    /// The hooks a static plan perturbs (no-op faults arm nothing).
    fn active(plan: &FaultPlan) -> Self {
        Self {
            lna: plan.lna.is_some_and(|f| !f.is_noop()),
            adc: plan.adc.is_some(),
            leakage: plan.leakage.is_some(),
            clock: plan.clock.is_some_and(|c| !c.is_noop()),
            link: plan.link.is_some_and(|l| !l.is_noop()),
        }
    }
}

/// A compound plan driving per-epoch parameter updates through its member
/// hooks.
#[derive(Debug, Clone)]
struct Compound {
    plan: CompoundPlan,
    members: Members,
}

impl Compound {
    /// The parameters in force at stream time `t_s` when it falls in a
    /// later epoch than `last` (the hook's last update, advanced here).
    fn update(&self, t_s: f64, last: &mut u64) -> Option<FaultPlan> {
        let epoch = self.plan.epoch_index(t_s);
        (epoch != *last).then(|| {
            *last = epoch;
            self.plan.materialize_at_epoch(epoch)
        })
    }
}

/// The pair sequence produced by one [`StreamSimulator::push`] (or the
/// final flush): acquired samples referred to the sensor input, and the
/// clean reference resampled to the output rate. Both vectors are always
/// the same length; concatenating every chunk reproduces the
/// [`SimOutput`] vectors of [`Simulator::run`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamChunk {
    /// Input-referred acquired signal (V) at `f_sample`.
    pub input_referred: Vec<f64>,
    /// Clean input resampled to `f_sample`, aligned with `input_referred`.
    pub reference: Vec<f64>,
}

impl StreamChunk {
    /// Number of sample pairs in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.input_referred.len()
    }

    /// `true` when the chunk carries no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.input_referred.is_empty()
    }
}

/// Whole-stream accounting returned by [`StreamSimulator::finish`] — the
/// scalar half of [`SimOutput`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Output sample rate (Hz).
    pub fs_out: f64,
    /// Per-block power estimate (W). Static plans give the
    /// [`Simulator::power_breakdown`] figure; compound plans scale the
    /// transmitter entry by the *measured* retry factor of the time-varying
    /// link.
    pub power: PowerBreakdown,
    /// Capacitor area in `C_u,min` multiples.
    pub area_units: f64,
    /// Data words handed to the transmitter.
    pub words: u64,
    /// Link accounting when a packet-loss fault was armed.
    pub link: Option<LinkStats>,
    /// Total output samples emitted across every chunk.
    pub out_samples: u64,
}

/// Streaming link state for the baseline chain: words buffer until a
/// packet fills, then one bounded-retry decision is drawn — the same
/// packet boundaries and RNG order as [`LinkFault::apply`] over the whole
/// record.
#[derive(Debug, Clone)]
struct StreamLink {
    rng: Rng64,
    cur: LinkFault,
    buf: Vec<f64>,
    held: f64,
    stats: LinkStats,
    /// Absolute index of the first word in `buf`.
    word_index: u64,
}

impl StreamLink {
    fn push_word(&mut self, w: f64, compound: Option<&Compound>, f_s: f64, out: &mut Vec<f64>) {
        if self.buf.is_empty() {
            if let Some(c) = compound {
                // Packet parameters re-materialise at packet starts only.
                let plan = c.plan.materialize(self.word_index as f64 / f_s);
                self.cur = plan.link.unwrap_or(NOOP_LINK);
            }
        }
        self.buf.push(w);
        if self.buf.len() >= self.cur.packet_words.max(1) {
            self.decide_packet(out);
        }
    }

    /// Draws the bounded-retry outcome for the buffered packet (one packet:
    /// the buffer never outgrows it) and emits its words with
    /// hold-last-delivered concealment (the receiver's zero-order
    /// concealment of undelivered words).
    fn decide_packet(&mut self, out: &mut Vec<f64>) {
        if self.buf.is_empty() {
            return;
        }
        let (delivered, stats) = self.cur.apply(self.buf.len(), &mut self.rng);
        self.stats.accumulate(&stats);
        for (&v, ok) in self.buf.iter().zip(delivered) {
            if ok {
                self.held = v;
            }
            out.push(self.held);
        }
        self.word_index += stats.data_words;
        self.buf.clear();
    }
}

/// The sampling front both back ends share: the S&H clock decides each
/// acquisition instant — drawing clock-fault jitter and drop-outs from its
/// private streams, a dropped acquisition holding the previous value — and
/// the amplified signal is interpolated there. The baseline S&H adds its
/// kT/C noise to every acquired value; the CS encoder's sample caps take
/// the value as is.
#[derive(Debug, Clone)]
struct Acquisition {
    sampler: Sampler,
    /// Add the S&H's kT/C noise (baseline) or not (CS).
    ktc: bool,
    /// An armed clock decides instants draw by draw; a clean one samples
    /// the ideal grid in one tight loop.
    clocked: bool,
    /// Next sample index to acquire.
    next_i: u64,
    /// Acquisition instant decided (draws consumed) but awaiting amplified
    /// data that covers it.
    pending_t: Option<f64>,
    held: f64,
    /// Epoch of the last clock parameter update (compound mode).
    epoch: u64,
    f_s: f64,
    f_ct: f64,
}

impl Acquisition {
    /// Acquires samples `next_i..n` as far as the amplified data reaches,
    /// appending them to `out`.
    fn run(
        &mut self,
        amplified: Track,
        compound: Option<&Compound>,
        finished: bool,
        n: u64,
        out: &mut Vec<f64>,
    ) {
        if !self.clocked {
            let start = out.len();
            let (next, values) = amplified.resample(self.f_ct, self.f_s, self.next_i, n, finished);
            append(out, values);
            self.next_i = next;
            if self.ktc {
                for v in &mut out[start..] {
                    *v = self.sampler.acquire(*v);
                }
            }
            return;
        }
        while self.next_i < n {
            let t = match self.pending_t {
                Some(t) => t,
                None => {
                    if let Some(c) = compound.filter(|c| c.members.clock) {
                        if let Some(p) = c.update(self.next_i as f64 / self.f_s, &mut self.epoch) {
                            self.sampler
                                .set_clock_fault_params(p.clock.unwrap_or(NOOP_CLOCK));
                        }
                    }
                    match self.sampler.acquisition_instant(self.next_i) {
                        Some(t) => t,
                        None => {
                            out.push(self.held);
                            self.next_i += 1;
                            continue;
                        }
                    }
                }
            };
            let Some(v) = amplified.interp_at(self.f_ct, t.max(0.0), finished) else {
                self.pending_t = Some(t);
                return;
            };
            self.pending_t = None;
            self.held = if self.ktc { self.sampler.acquire(v) } else { v };
            out.push(self.held);
            self.next_i += 1;
        }
    }

    /// Oldest amplified sample a future acquisition can still touch.
    fn min_ct_needed(&self) -> u64 {
        let t = self.pending_t.unwrap_or(self.next_i as f64 / self.f_s);
        ((t.max(0.0) * self.f_ct).floor() as u64).saturating_sub(CT_GUARD)
    }
}

/// What follows acquisition on each architecture.
#[derive(Debug, Clone)]
enum Path {
    /// Baseline: every sample is digitised and sent over the link.
    Nyquist {
        link: Option<StreamLink>,
        /// Epoch of the last ADC parameter update (compound mode).
        epoch: u64,
    },
    /// Compressive sensing: frames → encoder → ADC → link erasures →
    /// batched decode.
    Cs(Box<CsPath>),
}

#[derive(Debug, Clone)]
struct CsPath {
    cs: CsConfig,
    art: Arc<DictionaryArtifacts>,
    encoder: ChargeSharingEncoder,
    link: Option<(LinkFault, Rng64)>,
    link_stats: Option<LinkStats>,
    frames: Vec<Vec<f64>>,
    omp_cfgs: Vec<OmpConfig>,
    frames_encoded: u64,
    /// Frames digitised before each decode flush.
    decode_batch: usize,
    /// Discrepancy-principle residual target of one frame.
    noise_norm: f64,
    threads: usize,
    /// Epoch of the last encoder/ADC/link parameter update (compound mode).
    epoch: u64,
    tech: TechnologyParams,
    design: DesignParams,
}

/// Data words handed to the transmitter and the running square sum of
/// their converter values in the unipolar frame (the DAC-switching RMS).
#[derive(Debug, Clone, Copy)]
struct Tally {
    words: u64,
    sq_sum: f64,
    v_fs: f64,
}

impl Tally {
    fn add(&mut self, v: f64) {
        let shifted = v + self.v_fs / 2.0;
        self.sq_sum += shifted * shifted;
        self.words += 1;
    }

    fn rms(&self) -> f64 {
        if self.words > 0 {
            (self.sq_sum / self.words as f64).sqrt()
        } else {
            0.0
        }
    }
}

/// Stage 2: acquisition, the SAR ADC and the architecture's path.
#[derive(Debug, Clone)]
struct BackEnd {
    acq: Acquisition,
    adc: SarAdc,
    /// Acquired samples not yet digitised or encoded; `samples[0]` is
    /// sample `samples_base`.
    samples: Vec<f64>,
    samples_base: u64,
    tally: Tally,
    path: Path,
    gain: f64,
}

impl BackEnd {
    /// `(adc_in_rms, words, link_stats)` for the summary.
    fn summary_parts(&self) -> (f64, u64, Option<LinkStats>) {
        let link = match &self.path {
            Path::Nyquist { link, .. } => link.as_ref().map(|l| l.stats),
            Path::Cs(cs) => cs.link_stats,
        };
        (self.tally.rms(), self.tally.words, link)
    }

    fn drain(
        &mut self,
        amplified: Track,
        compound: Option<&Compound>,
        finished: bool,
        whole: bool,
        prefix: Option<&RecordPrefix>,
        out: &mut Vec<f64>,
    ) {
        let f_s = self.acq.f_s;
        let n_samples = (amplified.len() as f64 / self.acq.f_ct * f_s).floor() as u64;
        match &mut self.path {
            Path::Nyquist { link, epoch } => {
                self.acq
                    .run(amplified, compound, finished, n_samples, &mut self.samples);
                for &v in &self.samples {
                    if let Some(c) = compound.filter(|c| c.members.adc) {
                        if let Some(p) = c.update(self.samples_base as f64 / f_s, epoch) {
                            self.adc.inject_stuck_bit(p.adc);
                        }
                    }
                    self.samples_base += 1;
                    self.tally.add(v);
                    let code = self.adc.process(v) / self.gain;
                    match link {
                        Some(link) => link.push_word(code, compound, f_s, out),
                        None => out.push(code),
                    }
                }
                self.samples.clear();
                if let Some(link) = link.as_mut().filter(|_| finished) {
                    link.decide_packet(out);
                }
            }
            Path::Cs(cs) => {
                // The `sampled` boundary: a whole record's clean-clock
                // acquisition is a pure function of its amplified buffer, so
                // its key composes the `analog` key. (Clock-fault sampling is
                // a per-plan stream; sharing it would buy nothing.)
                let sampled = prefix.filter(|_| !self.acq.clocked).map(|p| {
                    let key = prefix::sampled_key(p.analog, f_s, n_samples as usize);
                    (p, key, p.store.get_sampled(key))
                });
                let hit = sampled.as_ref().and_then(|(_, _, hit)| hit.clone());
                if hit.is_none() {
                    // Priced by the L3 cache-efficacy report (memo.sampled).
                    let _build_span = (whole && !self.acq.clocked)
                        .then(|| efficsense_obs::span!("sim.sample.build"));
                    self.acq
                        .run(amplified, compound, finished, n_samples, &mut self.samples);
                }
                if let Some((p, key, None)) = &sampled {
                    p.store.insert_sampled(*key, self.samples.clone());
                }
                let (src, base, available) = match &hit {
                    Some(hit) => (hit.as_slice(), 0, hit.len() as u64),
                    None => (self.samples.as_slice(), self.samples_base, self.acq.next_i),
                };
                let n_phi = cs.cs.n_phi as u64;
                {
                    let _encode_span = whole.then(|| efficsense_obs::span!("sim.encode"));
                    while (cs.frames_encoded + 1) * n_phi <= available {
                        let start = (cs.frames_encoded * n_phi - base) as usize;
                        let frame = &src[start..start + cs.cs.n_phi];
                        cs.encode(frame, &mut self.adc, &mut self.tally, compound, f_s);
                    }
                }
                // Drop the encoded prefix; at the end of the record the
                // trailing partial frame never reaches the encoder either.
                let encoded = (cs.frames_encoded * n_phi).saturating_sub(self.samples_base);
                let consumed = if finished {
                    self.samples.len()
                } else {
                    (encoded as usize).min(self.samples.len())
                };
                self.samples.drain(..consumed);
                self.samples_base += consumed as u64;
                while cs.frames.len() >= cs.decode_batch || (finished && !cs.frames.is_empty()) {
                    cs.decode(cs.frames.len().min(cs.decode_batch), self.gain, out);
                }
            }
        }
    }
}

impl CsPath {
    /// Encodes, digitises and transmits one frame (after applying the
    /// frame-epoch parameters of a compound plan), queueing its words for
    /// decoding. The decoder knows which packets never arrived, so it treats
    /// their words as zero-valued measurements (erasures).
    fn encode(
        &mut self,
        frame: &[f64],
        adc: &mut SarAdc,
        tally: &mut Tally,
        compound: Option<&Compound>,
        f_s: f64,
    ) {
        if let Some(c) = compound {
            let m = c.members;
            let t = (self.frames_encoded * self.cs.n_phi as u64) as f64 / f_s;
            if m.leakage || m.adc || m.link {
                if let Some(p) = c.update(t, &mut self.epoch) {
                    if m.leakage {
                        self.encoder
                            .inject_leakage_fault(p.leakage, &self.tech, &self.design);
                    }
                    if m.adc {
                        adc.inject_stuck_bit(p.adc);
                    }
                    if let Some((params, _)) = self.link.as_mut().filter(|_| m.link) {
                        *params = p.link.unwrap_or(NOOP_LINK);
                    }
                }
            }
        }
        self.frames_encoded += 1;
        let measurements = self.encoder.encode_frame(frame);
        let mut words: Vec<f64> = measurements.iter().map(|&v| adc.process(v)).collect();
        for &v in &words {
            tally.add(v);
        }
        if let Some((params, rng)) = &mut self.link {
            let (delivered, stats) = params.apply(words.len(), rng);
            for (v, ok) in words.iter_mut().zip(&delivered) {
                if !*ok {
                    *v = 0.0;
                }
            }
            self.link_stats
                .get_or_insert_with(LinkStats::default)
                .accumulate(&stats);
        }
        let y_norm = efficsense_cs::linalg::norm2(&words).max(1e-300);
        self.omp_cfgs.push(OmpConfig {
            sparsity: self.cs.omp_sparsity,
            residual_tol: (self.noise_norm / y_norm).clamp(1e-4, 0.9),
        });
        self.frames.push(words);
    }

    /// Decodes the first `n` queued frames in one batched call with the
    /// nominal dictionary (the decoder does not know the mismatch/kT/C
    /// realisation). Frames decode independently, so the flush grouping
    /// never changes a bit.
    fn decode(&mut self, n: usize, gain: f64, out: &mut Vec<f64>) {
        let _recon_span = efficsense_obs::span!("stage.reconstruct");
        let decoded = reconstruct_batch(
            &self.art,
            &self.frames[..n],
            &self.omp_cfgs[..n],
            self.threads,
        );
        for xh in decoded {
            out.extend(xh.iter().map(|v| v / gain));
        }
        self.frames.drain(..n);
        self.omp_cfgs.drain(..n);
    }
}

/// Streaming front for a [`Simulator`]: feed input in chunks of any size
/// with [`StreamSimulator::push`], collect aligned
/// (`input_referred`, `reference`) pairs as they become final, and close
/// the stream with [`StreamSimulator::finish`].
#[derive(Debug, Clone)]
pub struct StreamSimulator {
    sim: Simulator,
    compound: Option<Compound>,
    fs_in: f64,
    f_ct: f64,
    f_s: f64,
    raw: Ring,
    /// Continuous-time proxy samples amplified so far.
    next_ct: u64,
    lna: Lna,
    /// Epoch of the last LNA parameter update (compound mode).
    lna_epoch: u64,
    amplified: Ring,
    /// A whole record's `analog` artifact, read in place of `amplified`.
    analog: Option<Arc<Vec<f64>>>,
    back: BackEnd,
    /// Final input-referred values not yet paired with a reference.
    pending_out: Vec<f64>,
    /// Final reference values not yet paired.
    pending_ref: Vec<f64>,
    /// Total output samples produced (drained or pending).
    out_produced: u64,
    /// Next reference index to interpolate.
    ref_next: u64,
    /// `true` for the whole-record run behind [`Simulator::run`]: its one
    /// push completes the record and each stage reports a per-record span.
    whole: bool,
    /// L3 context of a whole-record run with a store attached.
    prefix: Option<RecordPrefix>,
    started_ns: u64,
    last_progress_ns: u64,
}

impl StreamSimulator {
    /// Opens a stream that runs `sim`'s chain — including its static fault
    /// plan, if any — for one record at `fs_in` Hz with the given
    /// `noise_seed`. Concatenated chunk output is bit-identical to
    /// [`Simulator::run`] on the whole record.
    ///
    /// # Panics
    ///
    /// Panics if `fs_in` is not positive.
    #[must_use]
    pub fn new(sim: &Simulator, fs_in: f64, noise_seed: u64) -> Self {
        Self::build(sim, fs_in, noise_seed, None, None).started()
    }

    /// Opens a stream driven by a compound, time-varying fault plan. The
    /// simulator's own static plan is ignored; every member fault of
    /// `plan` is armed up front with its private stream, and parameters
    /// follow the severity profiles on the plan's epoch grid. Output is
    /// invariant to chunk size and decode thread count.
    ///
    /// # Panics
    ///
    /// Panics if `fs_in` is not positive.
    #[must_use]
    pub fn with_compound(
        sim: &Simulator,
        fs_in: f64,
        noise_seed: u64,
        plan: &CompoundPlan,
    ) -> Self {
        let compound = Compound {
            plan: plan.clone(),
            members: Members::of(plan),
        };
        Self::build(sim, fs_in, noise_seed, Some(compound), None).started()
    }

    /// Opens the whole-record stream behind [`Simulator::run`] for a record
    /// of `len` samples. `acquired` carries the record fingerprint and the
    /// run's `acquired` key when a prefix store is attached; the output
    /// buffers come from `scratch`.
    pub(crate) fn for_record(
        sim: &Simulator,
        len: usize,
        fs_in: f64,
        noise_seed: u64,
        acquired: Option<(u64, PrefixKey)>,
        scratch: &mut SimScratch,
    ) -> Self {
        let mut stream = Self::build(sim, fs_in, noise_seed, None, acquired);
        stream.whole = true;
        if let Path::Cs(cs) = &mut stream.back.path {
            cs.decode_batch = usize::MAX;
        }
        let out_len = (len as f64 / fs_in * stream.f_s).ceil() as usize;
        stream.pending_out = scratch.take(out_len);
        stream.pending_ref = scratch.take(out_len);
        // Size the record's own buffers up front too: power-of-two growth
        // would leave per-record holes in the heap around the prefix
        // store's artifacts.
        let ct_len = (len as f64 / fs_in * stream.f_ct).ceil() as usize;
        stream.amplified.buf.reserve_exact(ct_len);
        stream.back.samples.reserve_exact(out_len);
        stream
    }

    /// Starts a chunked stream's progress clock.
    fn started(mut self) -> Self {
        self.started_ns = efficsense_obs::global().now_ns();
        self.last_progress_ns = self.started_ns;
        self
    }

    fn build(
        sim: &Simulator,
        fs_in: f64,
        noise_seed: u64,
        compound: Option<Compound>,
        acquired: Option<(u64, PrefixKey)>,
    ) -> Self {
        assert!(fs_in > 0.0, "input rate must be positive");
        let cfg = &sim.cfg;
        let f_ct = cfg.f_ct_hz();
        let f_s = cfg.design.f_sample_hz();
        // The faults this record runs with: a static plan's active hooks,
        // or every member of a compound plan at its epoch-0 parameters.
        // Each block draws from a private stream salted per record.
        let (p0, arm) = match &compound {
            Some(c) => (c.plan.materialize_at_epoch(0), c.members),
            None => match &sim.plan {
                Some(plan) => (plan.clone(), Members::active(plan)),
                None => (FaultPlan::default(), Members::default()),
            },
        };
        let stream_of = |salt: u64| p0.stream(salt.wrapping_add(noise_seed.wrapping_mul(256)));
        // LNA: fresh instance; noise varies with the record.
        let lna_seed = cfg.seed ^ noise_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut lna = Lna::from_design(
            &cfg.design,
            cfg.lna.gain,
            cfg.lna.noise_floor_vrms,
            cfg.lna.k3,
            f_ct,
            lna_seed,
        );
        let rail = arm
            .lna
            .then(|| (p0.lna.unwrap_or(NOOP_RAIL), stream_of(SALT_LNA)));
        if let Some((fault, seed)) = rail {
            lna.install_rail_fault(fault, seed);
        }
        // The analog key hashes the LNA's exact constructor inputs and
        // fault stream, so two runs sharing a key are bit-identical by
        // construction.
        let prefix = sim
            .prefix
            .clone()
            .zip(acquired)
            .map(|(store, (fp, acquired))| RecordPrefix {
                store,
                fp,
                analog: prefix::analog_key(&AnalogParams {
                    record_fp: fp,
                    fs_in,
                    f_ct,
                    gain: lna.gain,
                    noise_floor_vrms: lna.noise_floor_vrms,
                    bandwidth_hz: lna.bandwidth_hz,
                    k3: lna.k3,
                    v_clip: lna.v_clip,
                    lna_seed,
                    fault: rail,
                }),
                acquired,
            });
        let (c_sample_f, ktc) = match &sim.arch {
            ArchState::Baseline => (sim.sh_cap_f(), true),
            // The encoder's own sample caps take the CS samples; this S&H
            // only keeps the clock.
            ArchState::Cs(state) => (state.cs.c_sample_f, false),
        };
        let mut sampler = Sampler::new(f_s, c_sample_f, 0.0, cfg.seed ^ noise_seed ^ 0x5A5A);
        if arm.clock {
            sampler.install_clock_fault(p0.clock.unwrap_or(NOOP_CLOCK), stream_of(SALT_CLOCK));
        }
        let mut adc = sar_adc(cfg);
        if arm.adc {
            adc.inject_stuck_bit(p0.adc);
        }
        let link = arm.link.then(|| {
            (
                p0.link.unwrap_or(NOOP_LINK),
                Rng64::new(stream_of(SALT_LINK)),
            )
        });
        let path = match &sim.arch {
            ArchState::Baseline => Path::Nyquist {
                link: link.map(|(cur, rng)| StreamLink {
                    rng,
                    cur,
                    buf: Vec::new(),
                    held: 0.0,
                    stats: LinkStats::default(),
                    word_index: 0,
                }),
                epoch: 0,
            },
            ArchState::Cs(state) => Path::Cs(Box::new(Self::cs_path(
                sim, state, noise_seed, &p0, arm, link,
            ))),
        };
        Self {
            sim: sim.clone(),
            compound,
            fs_in,
            f_ct,
            f_s,
            raw: Ring::default(),
            next_ct: 0,
            lna,
            lna_epoch: 0,
            amplified: Ring::default(),
            analog: None,
            back: BackEnd {
                acq: Acquisition {
                    sampler,
                    ktc,
                    clocked: arm.clock,
                    next_i: 0,
                    pending_t: None,
                    held: 0.0,
                    epoch: 0,
                    f_s,
                    f_ct,
                },
                adc,
                samples: Vec::new(),
                samples_base: 0,
                tally: Tally {
                    words: 0,
                    sq_sum: 0.0,
                    v_fs: cfg.design.v_fs,
                },
                path,
                gain: cfg.lna.gain,
            },
            pending_out: Vec::new(),
            pending_ref: Vec::new(),
            out_produced: 0,
            ref_next: 0,
            whole: false,
            prefix,
            started_ns: 0,
            last_progress_ns: 0,
        }
    }

    fn cs_path(
        sim: &Simulator,
        state: &CsState,
        noise_seed: u64,
        p0: &FaultPlan,
        arm: Members,
        link: Option<(LinkFault, Rng64)>,
    ) -> CsPath {
        let cfg = &sim.cfg;
        let cs = &state.cs;
        let mut encoder = ChargeSharingEncoder::new(
            state.phi.as_ref().clone(),
            cs.c_sample_f,
            cs.c_hold_f,
            1.0 / cfg.design.f_sample_hz(),
            cs.imperfections,
            &cfg.tech,
            &cfg.design,
            cfg.seed ^ noise_seed.rotate_left(17),
        );
        if arm.leakage {
            encoder.inject_leakage_fault(p0.leakage, &cfg.tech, &cfg.design);
        }
        // Discrepancy-principle stopping (Morozov): the designer knows the
        // front-end noise level, so the decoder stops fitting once the
        // residual reaches the expected measurement noise instead of fitting
        // noise into spurious atoms. Per-measurement noise variance:
        //   (vn·gain)²·Σw²  (sampled LNA noise through the weights)
        // + σ_kTC²·Σw²      (per-share sampling noise)
        // + LSB²/12         (measurement quantisation).
        let sampled_noise = cfg.lna.noise_floor_vrms * cfg.lna.gain;
        let ktc_var = if cs.imperfections.ktc_noise {
            efficsense_power::kt() / cs.c_sample_f
        } else {
            0.0
        };
        let lsb = cfg.design.lsb();
        let meas_noise_var =
            (sampled_noise * sampled_noise + ktc_var) * state.art.mean_row_w2 + lsb * lsb / 12.0;
        CsPath {
            cs: cs.clone(),
            art: state.art.clone(),
            encoder,
            link,
            link_stats: None,
            frames: Vec::new(),
            omp_cfgs: Vec::new(),
            frames_encoded: 0,
            decode_batch: DECODE_BATCH,
            noise_norm: (meas_noise_var * cs.m as f64).sqrt(),
            threads: sim.decode_threads,
            epoch: 0,
            tech: cfg.tech.clone(),
            design: cfg.design.clone(),
        }
    }

    /// Feeds the next chunk of raw input (any length, including empty) and
    /// returns every (acquired, reference) pair that became final. The
    /// whole-record stream behind [`Simulator::run`] receives its record in
    /// this one push, so every stage completes here.
    pub fn push(&mut self, input: &[f64]) -> StreamChunk {
        self.raw.buf.extend_from_slice(input);
        self.advance(self.whole);
        if !self.whole {
            self.prune();
        }
        self.take_pairs()
    }

    /// Closes the stream: resolves every end-of-record clamp, flushes the
    /// final link packet and decode batch, and returns the last chunk with
    /// the whole-stream summary.
    pub fn finish(mut self) -> (StreamChunk, StreamSummary) {
        if !self.whole {
            self.advance(true);
        }
        let chunk = self.take_pairs();
        let (adc_in_rms, words, link) = self.back.summary_parts();
        let mut power = {
            let _power_span = efficsense_obs::span!("stage.power");
            self.sim.power_breakdown(adc_in_rms)
        };
        if self.compound.is_some() {
            // The static path scales TX analytically from the plan; a
            // time-varying link has no single expected-attempts figure, so
            // use the measured retry inflation instead.
            if let Some(stats) = &link {
                let tx = efficsense_power::BlockKind::Transmitter;
                let extra = power.get(tx) * (stats.retry_factor() - 1.0);
                power.add(tx, extra);
            }
        }
        let summary = StreamSummary {
            fs_out: self.f_s,
            power,
            area_units: self.sim.area_units(),
            words,
            link,
            out_samples: self.out_produced,
        };
        (chunk, summary)
    }

    /// Runs `input` through the stream in `chunk_len`-sample pushes and
    /// assembles a [`SimOutput`] directly comparable with
    /// [`Simulator::run`]. An empty `input` yields an empty output
    /// (`Simulator::run` rejects empty records).
    #[must_use]
    pub fn run_chunked(
        sim: &Simulator,
        input: &[f64],
        fs_in: f64,
        noise_seed: u64,
        chunk_len: usize,
    ) -> SimOutput {
        let mut stream = Self::new(sim, fs_in, noise_seed);
        let mut input_referred = Vec::new();
        let mut reference = Vec::new();
        for chunk in input.chunks(chunk_len.max(1)) {
            let got = stream.push(chunk);
            input_referred.extend(got.input_referred);
            reference.extend(got.reference);
        }
        let (last, summary) = stream.finish();
        input_referred.extend(last.input_referred);
        reference.extend(last.reference);
        SimOutput {
            input_referred,
            reference,
            fs_out: summary.fs_out,
            power: summary.power,
            area_units: summary.area_units,
            words: summary.words,
            link: summary.link,
        }
    }

    /// Total output samples produced so far (drained and pending).
    #[must_use]
    pub fn out_samples(&self) -> u64 {
        self.out_produced
    }

    /// Advances every stage as far as the buffered input allows.
    fn advance(&mut self, finished: bool) {
        self.amplify(finished);
        let before = self.out_produced;
        let pending_before = self.pending_out.len();
        let amplified = match &self.analog {
            Some(buf) => Track::whole(buf),
            None => self.amplified.view(),
        };
        self.back.drain(
            amplified,
            self.compound.as_ref(),
            finished,
            self.whole,
            self.prefix.as_ref(),
            &mut self.pending_out,
        );
        self.out_produced += (self.pending_out.len() - pending_before) as u64;
        // Stage 3: the clean reference, one value per produced output.
        if self.whole {
            let prefix = self.prefix.as_ref().map(|p| (&*p.store, p.fp));
            let len = self.out_produced as usize;
            whole_reference(
                prefix,
                &self.raw.buf,
                self.fs_in,
                self.f_s,
                len,
                &mut self.pending_ref,
            );
            self.ref_next = self.out_produced;
            if let Some(p) = &self.prefix {
                let (adc_in_rms, words, link) = self.back.summary_parts();
                let acquired = AcquiredPrefix {
                    input_referred: self.pending_out.clone(),
                    words,
                    adc_in_rms,
                    link,
                };
                p.store.insert_acquired(p.acquired, acquired);
            }
        } else {
            self.heartbeat(before);
            let (next, values) = self.raw.view().resample(
                self.fs_in,
                self.f_s,
                self.ref_next,
                self.out_produced,
                finished,
            );
            append(&mut self.pending_ref, values);
            self.ref_next = next;
        }
    }

    /// Stage 1: resamples the raw input onto the continuous-time proxy grid
    /// and amplifies it. On a whole-record run with a store, an `analog`
    /// hit serves the whole stage and a `ct` hit its resampling; what is
    /// built instead is inserted.
    fn amplify(&mut self, finished: bool) {
        let _analog_span = self.whole.then(|| efficsense_obs::span!("sim.analog"));
        self.analog = self
            .prefix
            .as_ref()
            .and_then(|p| p.store.get_analog(p.analog));
        if self.analog.is_some() {
            return;
        }
        let amplified = &mut self.amplified;
        // Priced by the L3 cache-efficacy report: this span is exactly the
        // work an `analog` hit avoids.
        let _build_span = self
            .whole
            .then(|| efficsense_obs::span!("sim.analog.build"));
        let (lna, lna_epoch, f_ct) = (&mut self.lna, &mut self.lna_epoch, self.f_ct);
        let compound = self.compound.as_ref().filter(|c| c.members.lna);
        let mut k = self.next_ct;
        let mut amplify = |v: f64| {
            if let Some(p) = compound.and_then(|c| c.update(k as f64 / f_ct, lna_epoch)) {
                lna.set_rail_fault_params(p.lna.unwrap_or(NOOP_RAIL));
            }
            k += 1;
            lna.process(v)
        };
        let start = amplified.buf.len();
        let n_ct = (self.raw.len() as f64 / self.fs_in * f_ct).round() as u64;
        let raw = self.raw.view();
        match &self.prefix {
            // The `ct` boundary: the resampled record is fault-free and
            // config-independent, so every sweep point touching this record
            // shares it.
            Some(p) => {
                let key = prefix::ct_key(p.fp, self.fs_in, f_ct);
                let ct = p.store.get_ct(key).unwrap_or_else(|| {
                    let (_, values) = raw.resample(self.fs_in, f_ct, 0, n_ct, true);
                    p.store.insert_ct(key, values.collect())
                });
                amplified.buf.extend(ct.iter().map(|&v| amplify(v)));
                self.next_ct = n_ct;
            }
            None => {
                let (next, values) = raw.resample(self.fs_in, f_ct, self.next_ct, n_ct, finished);
                append(&mut amplified.buf, values.map(amplify));
                self.next_ct = next;
            }
        }
        efficsense_dsp::approx::debug_assert_all_finite(
            &amplified.buf[start..],
            "stream: LNA output",
        );
        if let Some(p) = &self.prefix {
            let built = std::mem::take(&mut amplified.buf);
            self.analog = Some(p.store.insert_analog(p.analog, built));
        }
    }

    fn heartbeat(&mut self, before: u64) {
        let crossings = self.out_produced / HEARTBEAT_EVERY - before / HEARTBEAT_EVERY;
        if crossings == 0 {
            return;
        }
        efficsense_obs::counter!("stream.heartbeat").add(crossings);
        let obs = efficsense_obs::global();
        let now_ns = obs.now_ns();
        if obs.sink_enabled() {
            let ev = efficsense_obs::TraceEvent::new(now_ns, "heartbeat", "stream.progress")
                .field("out_samples", self.out_produced)
                .field("raw_samples", self.raw.len());
            obs.emit(&ev);
        }
        const PROGRESS_NS: u64 = 10_000_000_000;
        if now_ns.saturating_sub(self.started_ns) > PROGRESS_NS
            && now_ns.saturating_sub(self.last_progress_ns) > PROGRESS_NS
        {
            self.last_progress_ns = now_ns;
            eprintln!(
                "stream: {} output samples ({} raw samples in)",
                self.out_produced,
                self.raw.len()
            );
        }
    }

    /// Hands out the aligned prefix of the two pending queues — all of
    /// both, buffers included, on a whole-record run.
    fn take_pairs(&mut self) -> StreamChunk {
        let n = self.pending_out.len().min(self.pending_ref.len());
        let chunk = if self.whole {
            StreamChunk {
                input_referred: std::mem::take(&mut self.pending_out),
                reference: std::mem::take(&mut self.pending_ref),
            }
        } else {
            StreamChunk {
                input_referred: self.pending_out.drain(..n).collect(),
                reference: self.pending_ref.drain(..n).collect(),
            }
        };
        efficsense_dsp::approx::debug_assert_all_finite(
            &chunk.input_referred,
            "stream: input-referred output",
        );
        chunk
    }

    /// Bounds memory: drops ring prefixes no consumer can revisit.
    fn prune(&mut self) {
        let ct_pos = (self.next_ct as f64 / self.f_ct * self.fs_in).floor() as u64;
        let ref_pos = (self.ref_next as f64 / self.f_s * self.fs_in).floor() as u64;
        self.raw
            .prune_below(ct_pos.min(ref_pos).saturating_sub(RAW_GUARD));
        self.amplified.prune_below(self.back.acq.min_ct_needed());
    }
}
