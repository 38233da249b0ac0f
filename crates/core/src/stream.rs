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
//! `sim.sample.build`, `sim.encode` ⊃ `sim.encode.build`,
//! `sim.reference.build`); and with a Level-3 [`PrefixStore`] attached,
//! the stage boundaries consult it: an `analog` hit replaces stage 1 and
//! is read in place, a `ct` hit its resampling half, an `encoded` hit the
//! CS clean-clock acquisition and encoder (leaving the ADC and link to
//! run per point), a `sampled` hit the acquisition half of an `encoded`
//! build, a `reference` hit stage 3; a miss builds the artifact under its
//! shard lock, exactly once per key. Chunked streams stay store-free:
//! their record fingerprint only exists once the stream ends.
//!
//! **Two stages on two cores.** On a process that may use two cores, a
//! chunked push whose new continuous-time range spans at least two
//! sub-blocks of `SUB_BLOCK` samples overlaps stages 1 and 2: a scoped
//! helper thread resamples and amplifies sub-block j + 1 while the
//! calling thread appends sub-block j to the amplified ring and drains
//! the back end over it. The push still ends by draining everything
//! available, so it returns exactly the pairs the inline path would.
//! Stage 1 owns no telemetry, so every span, the heartbeat and the decode
//! flushes stay on the calling thread. Whole records, `finish`, smaller
//! pushes and one-core processes run both stages inline, through the
//! same stage-1 kernel (`Amplifier::run`).
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
use crate::prefix::{self, AnalogParams, Class, EncoderParams, PrefixKey, PrefixStore};
use crate::simulate::{ArchState, CsState, SimOutput, SimScratch, Simulator};
use efficsense_blocks::{ChargeSharingEncoder, HoldState, Lna, Sampler, SarAdc};
use efficsense_cs::decode::reconstruct_batch;
use efficsense_cs::memo::DictionaryArtifacts;
use efficsense_cs::recon::OmpConfig;
use efficsense_dsp::resample::Track;
use efficsense_faults::{
    ClockFault, CompoundPlan, FaultKind, FaultPlan, LinkFault, LinkStats, LnaRailFault,
};
use efficsense_power::{DesignParams, PowerBreakdown, TechnologyParams};
use efficsense_rng::{Rng64, GOLDEN_GAMMA};
use std::sync::{mpsc, Arc};

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

/// Continuous-time samples per stage-1 sub-block of an overlapped push
/// (64 KiB per buffer). A chunked push overlaps its two stages only when
/// its new continuous-time range spans at least two sub-blocks, so a
/// spawned helper always has a sub-block to run while the caller drains.
/// Larger sub-blocks lengthen the stretch at each end of a push where
/// only one stage runs.
const SUB_BLOCK: usize = 8 * 1024;

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

/// Makes room for `extra` more values in `buf`, growing it to a power of
/// two as repeated pushes would: a stream of equal pushes then settles on
/// one allocation instead of doubling an exact fit every other push.
fn grow(buf: &mut Vec<f64>, extra: usize) {
    let need = buf.len() + extra;
    if need > buf.capacity() {
        buf.reserve_exact(need.next_power_of_two() - buf.len());
    }
}

/// Appends `values` to `buf`, growing it as [`grow`] does.
fn append(buf: &mut Vec<f64>, values: impl Iterator<Item = f64>) {
    grow(buf, values.size_hint().0);
    buf.extend(values);
}

/// Runs `produce` over `blocks` sub-blocks on a scoped helper thread while
/// this thread runs `consume` over each finished one in order, so the
/// helper's sub-block j + 1 overlaps the caller's sub-block j. The two
/// `spare` buffers ping-pong through bounded channels; this thread sizes
/// them to [`SUB_BLOCK`] and takes both back, so the helper allocates no
/// buffers. The channel ends live inside the scope: a panic on either
/// side drops that side's ends, which wakes the other, and the panic
/// reaches this function's caller with its payload once the helper has
/// stopped.
fn two_stage(
    spare: &mut [Vec<f64>; 2],
    blocks: usize,
    mut produce: impl FnMut(&mut Vec<f64>) + Send,
    mut consume: impl FnMut(&[f64]),
) {
    std::thread::scope(|scope| {
        let (full_tx, full_rx) = mpsc::sync_channel::<Vec<f64>>(1);
        // Room for both buffers, so this thread never blocks on a send.
        let (free_tx, free_rx) = mpsc::sync_channel::<Vec<f64>>(spare.len());
        for buf in spare.iter_mut() {
            buf.clear();
            buf.reserve_exact(SUB_BLOCK);
            let _ = free_tx.send(std::mem::take(buf));
        }
        let helper = scope.spawn(move || {
            for _ in 0..blocks {
                let Ok(mut buf) = free_rx.recv() else { break };
                buf.clear();
                produce(&mut buf);
                if full_tx.send(buf).is_err() {
                    break;
                }
            }
            // Handed back so the spare buffers are freed, or reused, here.
            free_rx
        });
        for _ in 0..blocks {
            // A closed channel means the helper panicked; its join re-raises.
            let Ok(buf) = full_rx.recv() else { break };
            consume(&buf);
            let _ = free_tx.send(buf);
        }
        let free_rx = helper
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (slot, buf) in spare.iter_mut().zip(free_rx.try_iter()) {
            *slot = buf;
        }
    });
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

/// The Level-3 context of a whole-record run with a store attached: the
/// record fingerprint every prefix key hangs off, known before the stream
/// opens.
#[derive(Debug, Clone)]
struct RecordPrefix {
    store: Arc<PrefixStore>,
    fp: u64,
    /// Key of the record's LNA-amplified buffer.
    analog: PrefixKey,
}

/// The `reference` stage of a whole record: the clean `input` at `f_s`,
/// exactly `len` samples, appended to `out` — served from the store's
/// `reference` class when the run has an L3 context.
fn whole_reference(
    prefix: Option<&RecordPrefix>,
    input: &[f64],
    fs_in: f64,
    f_s: f64,
    len: usize,
    out: &mut Vec<f64>,
) {
    let build = |out: &mut Vec<f64>| {
        // Priced by the L3 cache-efficacy report (memo.reference).
        let _build_span = efficsense_obs::span!("sim.reference.build");
        let (_, values) = Track::whole(input).resample(fs_in, f_s, 0, len as u64, true);
        out.extend(values);
    };
    match prefix {
        Some(p) => {
            let key = prefix::reference_key(p.fp, fs_in, f_s, len);
            let reference = p.store.get_or_build(Class::Reference, key, || {
                let mut reference = Vec::with_capacity(len);
                build(&mut reference);
                reference
            });
            out.extend_from_slice(&reference);
        }
        None => build(out),
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

/// A fault hook's place on a compound plan's epoch grid, in its block's
/// own sample index.
#[derive(Debug, Clone, Copy, Default)]
struct EpochRun {
    /// Epoch of the hook's last parameter update (epoch 0's parameters
    /// are installed when the stream opens).
    epoch: u64,
    /// First sample index past the current run (0: not entered yet).
    end: u64,
}

impl EpochRun {
    /// The end of the epoch run holding sample `k` of a hook sampled at
    /// `rate` Hz. When `k` has left the current run, enters the new one:
    /// hands `apply` the epoch's parameters if the epoch is later than the
    /// hook's last update, and finds the next epoch's first sample once,
    /// estimated from the epoch start, then settled on the exact
    /// `epoch_index` predicate — so every sample lands in the epoch a
    /// per-sample lookup gives it. Without a plan the run never ends.
    fn run_end(
        &mut self,
        compound: Option<&Compound>,
        k: u64,
        rate: f64,
        apply: impl FnOnce(FaultPlan),
    ) -> u64 {
        let Some(plan) = compound.map(|c| &c.plan) else {
            return u64::MAX;
        };
        if k < self.end {
            return self.end;
        }
        let epoch_of = |i: u64| plan.epoch_index(i as f64 / rate);
        let epoch = epoch_of(k);
        if epoch != self.epoch {
            self.epoch = epoch;
            apply(plan.materialize_at_epoch(epoch));
        }
        let estimate = match epoch.checked_add(1) {
            Some(next) => (plan.epoch_start_s(next) * rate).ceil() as u64,
            None => u64::MAX,
        };
        let mut end = estimate.max(k + 1);
        while end > k + 1 && epoch_of(end - 1) != epoch {
            end -= 1;
        }
        while end < u64::MAX && epoch_of(end) == epoch {
            end += 1;
        }
        self.end = end;
        end
    }
}

/// Runs a block kernel over `buf`, samples `first..` of a hook sampled at
/// `rate` Hz, one compound-plan epoch run at a time: `kernel` gets each
/// run with the parameters to apply first, if the run enters a later
/// epoch. Without a plan, `buf` is one run.
fn epoch_runs(
    compound: Option<&Compound>,
    at: &mut EpochRun,
    first: u64,
    rate: f64,
    buf: &mut [f64],
    mut kernel: impl FnMut(Option<FaultPlan>, &mut [f64]),
) {
    let (mut k, mut rest) = (first, buf);
    while !rest.is_empty() {
        let mut update = None;
        let end = at.run_end(compound, k, rate, |p| update = Some(p));
        let len = (end - k).min(rest.len() as u64) as usize;
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
        kernel(update, run);
        (k, rest) = (k + len as u64, tail);
    }
}

/// Stage 1's state: the LNA and its hook's epoch run (compound mode).
#[derive(Debug, Clone)]
struct Amplifier {
    lna: Lna,
    epoch: EpochRun,
}

impl Amplifier {
    /// Amplifies `buf` in place: continuous-time samples `first..` of the
    /// record, already on the proxy grid. The one stage-1 kernel of every
    /// path — a whole record, an inline push or `finish`, or one sub-block
    /// on the helper of an overlapped push.
    fn run(&mut self, compound: Option<&Compound>, f_ct: f64, first: u64, buf: &mut [f64]) {
        let hook = compound.filter(|c| c.members.lna);
        let lna = &mut self.lna;
        epoch_runs(hook, &mut self.epoch, first, f_ct, buf, |update, run| {
            if let Some(p) = update {
                lna.set_rail_fault_params(p.lna.unwrap_or(NOOP_RAIL));
            }
            lna.process_in_place(run);
        });
        efficsense_dsp::approx::debug_assert_all_finite(buf, "stream: LNA output");
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
/// packet fills, then [`LinkFault::send`] draws its bounded-retry outcome,
/// so packet boundaries and RNG order do not depend on the chunking.
#[derive(Debug, Clone)]
struct StreamLink {
    rng: Rng64,
    cur: LinkFault,
    buf: Vec<f64>,
    held: f64,
    stats: LinkStats,
    /// Absolute index of the first word in `buf`.
    word_index: u64,
    /// The link hook's epoch run (compound mode), in words.
    epoch: EpochRun,
}

impl StreamLink {
    fn push_word(&mut self, w: f64, compound: Option<&Compound>, f_s: f64, out: &mut Vec<f64>) {
        if self.buf.is_empty() {
            // Packet parameters change at packet starts only.
            let cur = &mut self.cur;
            self.epoch.run_end(compound, self.word_index, f_s, |p| {
                *cur = p.link.unwrap_or(NOOP_LINK);
            });
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
        let ok = self
            .cur
            .send(self.buf.len(), &mut self.rng, &mut self.stats);
        for &v in &self.buf {
            if ok {
                self.held = v;
            }
            out.push(self.held);
        }
        self.word_index += self.buf.len() as u64;
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
    /// The held value, and an instant decided (draws consumed) but
    /// awaiting amplified data that covers it.
    hold: HoldState,
    /// The clock hook's epoch run (compound mode).
    epoch: EpochRun,
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
        if finished {
            // The last call (a whole record's only one) knows how many
            // samples remain: size `out` exactly.
            out.reserve_exact(n.saturating_sub(self.next_i) as usize);
        }
        if !self.clocked {
            let start = out.len();
            let (next, values) = amplified.resample(self.f_ct, self.f_s, self.next_i, n, finished);
            append(out, values);
            self.next_i = next;
            if self.ktc {
                self.sampler.acquire_in_place(&mut out[start..]);
            }
            return;
        }
        let compound = compound.filter(|c| c.members.clock);
        while self.next_i < n {
            let sampler = &mut self.sampler;
            let end = self
                .epoch
                .run_end(compound, self.next_i, self.f_s, |p| {
                    sampler.set_clock_fault_params(p.clock.unwrap_or(NOOP_CLOCK));
                })
                .min(n);
            let f_ct = self.f_ct;
            let interp = |t: f64| amplified.interp_at(f_ct, t, finished);
            let next = sampler.acquire_run(self.next_i, end, &mut self.hold, self.ktc, interp, out);
            let stalled = next < end;
            self.next_i = next;
            if stalled {
                return;
            }
        }
    }

    /// Oldest amplified sample a future acquisition can still touch.
    fn min_ct_needed(&self) -> u64 {
        let t = self.hold.pending.unwrap_or(self.next_i as f64 / self.f_s);
        ((t.max(0.0) * self.f_ct).floor() as u64).saturating_sub(CT_GUARD)
    }
}

/// What follows acquisition on each architecture.
#[derive(Debug, Clone)]
enum Path {
    /// Baseline: every sample is digitised and sent over the link.
    Nyquist {
        link: Option<StreamLink>,
        /// The ADC hook's epoch run (compound mode).
        epoch: EpochRun,
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
    /// The encoder's constructor inputs: the axes of its `encoded` key.
    encoder_params: EncoderParams,
    link: Option<(LinkFault, Rng64)>,
    link_stats: Option<LinkStats>,
    /// Digitised frames awaiting decode.
    frames: Vec<Vec<f64>>,
    frames_encoded: u64,
    /// Frames digitised before each decode flush.
    decode_batch: usize,
    /// Discrepancy-principle residual target of one frame.
    noise_norm: f64,
    threads: usize,
    /// The encoder and ADC hooks' epoch run (compound mode), in samples.
    epoch: EpochRun,
    /// The link hook's epoch run (compound mode), in samples.
    link_epoch: EpochRun,
    tech: TechnologyParams,
    design: DesignParams,
}

/// The expected norm of one CS frame's measurement noise, the residual
/// target of the decoder's discrepancy-principle stopping rule (Morozov):
/// the designer knows the front-end noise level, so the decoder stops
/// fitting once the residual reaches it instead of fitting noise into
/// spurious atoms. Each of the `M` measurements carries variance
///
/// ```text
///   (vn·gain)²·Σw²   sampled LNA noise through the weights
/// + σ_kTC²·Σw²       per-share sampling noise (when simulated)
/// + LSB²/12          measurement quantisation
/// ```
///
/// with `Σw²` the mean row energy `mean_row_w2` of the effective sensing
/// matrix ([`DictionaryArtifacts::mean_row_w2`]).
#[must_use]
pub fn frame_noise_norm(cfg: &SystemConfig, cs: &CsConfig, mean_row_w2: f64) -> f64 {
    let sampled_noise = cfg.lna.noise_floor_vrms * cfg.lna.gain;
    let ktc_var = if cs.imperfections.ktc_noise {
        efficsense_power::kt() / cs.c_sample_f
    } else {
        0.0
    };
    let lsb = cfg.design.lsb();
    let meas_noise_var = (sampled_noise * sampled_noise + ktc_var) * mean_row_w2 + lsb * lsb / 12.0;
    (meas_noise_var * cs.m as f64).sqrt()
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
                {
                    let _nyquist_span = whole.then(|| efficsense_obs::span!("sim.nyquist"));
                    self.acq
                        .run(amplified, compound, finished, n_samples, &mut self.samples);
                    for &v in &self.samples {
                        self.tally.add(v);
                    }
                    let adc = &mut self.adc;
                    let hook = compound.filter(|c| c.members.adc);
                    let base = self.samples_base;
                    epoch_runs(hook, epoch, base, f_s, &mut self.samples, |update, run| {
                        if let Some(p) = update {
                            adc.inject_stuck_bit(p.adc);
                        }
                        adc.process_in_place(run);
                    });
                    self.samples_base += self.samples.len() as u64;
                    for v in &mut self.samples {
                        *v /= self.gain;
                    }
                }
                match link {
                    Some(link) => {
                        let _link_span = whole.then(|| efficsense_obs::span!("sim.link"));
                        for &w in &self.samples {
                            link.push_word(w, compound, f_s, out);
                        }
                        if finished {
                            link.decide_packet(out);
                        }
                    }
                    None => out.extend_from_slice(&self.samples),
                }
                self.samples.clear();
            }
            Path::Cs(cs) => {
                let clean = !self.acq.clocked;
                let acq = &mut self.acq;
                let mut acquire = |samples: &mut Vec<f64>| {
                    // Priced by the L3 cache-efficacy report (memo.sampled).
                    let _build_span =
                        (whole && clean).then(|| efficsense_obs::span!("sim.sample.build"));
                    acq.run(amplified, compound, finished, n_samples, samples);
                };
                let (n_phi, m) = (cs.cs.n_phi, cs.cs.m);
                let queued = cs.frames.len();
                match prefix.filter(|_| clean) {
                    // The `encoded` boundary: a whole record's clean-clock
                    // frames are a pure function of its amplified buffer and
                    // the encoder, so points that differ only after the
                    // encoder (ADC bits, stuck bits, the link) share them and
                    // only digitise. (Clock-fault sampling is a per-plan
                    // stream; sharing it would buy nothing.)
                    Some(p) => {
                        // Every stored frame is digitised below, so this
                        // must be the record's first and only drain.
                        debug_assert_eq!(cs.frames_encoded, 0, "a whole record drains once");
                        let _encode_span = efficsense_obs::span!("sim.encode");
                        let sampled = prefix::sampled_key(p.analog, f_s, n_samples as usize);
                        let key = prefix::encoded_key(sampled, &cs.encoder_params);
                        let encoder = &mut cs.encoder;
                        let frames = p.store.get_or_build(Class::Encoded, key, || {
                            // Priced by the L3 cache-efficacy report: this
                            // span is exactly the work an `encoded` hit
                            // avoids. Its `sampled` lookup takes a `sampled`
                            // shard lock under the `encoded` one.
                            let _build_span = efficsense_obs::span!("sim.encode.build");
                            let samples = p.store.get_or_build(Class::Sampled, sampled, || {
                                let mut samples = Vec::new();
                                acquire(&mut samples);
                                samples
                            });
                            let mut words = Vec::with_capacity(samples.len() / n_phi * m);
                            for frame in samples.chunks_exact(n_phi) {
                                words.extend(encoder.encode_frame(frame));
                            }
                            words
                        });
                        for words in frames.chunks_exact(m) {
                            cs.digitise(words.to_vec(), &mut self.adc, &mut self.tally);
                        }
                    }
                    None => {
                        acquire(&mut self.samples);
                        let _encode_span = whole.then(|| efficsense_obs::span!("sim.encode"));
                        while (cs.frames_encoded + 1) * n_phi as u64 <= self.acq.next_i {
                            let start =
                                (cs.frames_encoded * n_phi as u64 - self.samples_base) as usize;
                            let frame = &self.samples[start..start + n_phi];
                            cs.encode(frame, &mut self.adc, &mut self.tally, compound, f_s);
                        }
                    }
                }
                if cs.link.is_some() {
                    let _link_span = whole.then(|| efficsense_obs::span!("sim.link"));
                    cs.transmit(queued, compound, f_s);
                }
                // Drop the encoded prefix; at the end of the record the
                // trailing partial frame never reaches the encoder either.
                let encoded = (cs.frames_encoded * n_phi as u64).saturating_sub(self.samples_base);
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
    /// Encodes one frame (after applying the frame-epoch parameters of a
    /// compound plan) and digitises it.
    fn encode(
        &mut self,
        frame: &[f64],
        adc: &mut SarAdc,
        tally: &mut Tally,
        compound: Option<&Compound>,
        f_s: f64,
    ) {
        let start = self.frames_encoded * self.cs.n_phi as u64;
        let m = compound.map_or_else(Members::default, |c| c.members);
        let hook = compound.filter(|_| m.leakage || m.adc);
        let (encoder, tech, design) = (&mut self.encoder, &self.tech, &self.design);
        self.epoch.run_end(hook, start, f_s, |p| {
            if m.leakage {
                encoder.inject_leakage_fault(p.leakage, tech, design);
            }
            if m.adc {
                adc.inject_stuck_bit(p.adc);
            }
        });
        let words = self.encoder.encode_frame(frame);
        self.digitise(words, adc, tally);
    }

    /// Digitises one frame of encoder output, queueing its words. The ADC
    /// draws from its own stream, so digitising a record's frames after
    /// encoding all of them gives the bits of interleaving the two.
    fn digitise(&mut self, mut words: Vec<f64>, adc: &mut SarAdc, tally: &mut Tally) {
        adc.process_in_place(&mut words);
        for &v in &words {
            tally.add(v);
        }
        self.frames_encoded += 1;
        self.frames.push(words);
    }

    /// Sends the queued frames from `first` on over the lossy link (each
    /// after applying its frame-epoch link parameters). The decoder knows
    /// which packets never arrived, so it treats their words as
    /// zero-valued measurements (erasures).
    fn transmit(&mut self, first: usize, compound: Option<&Compound>, f_s: f64) {
        let Some((params, rng)) = &mut self.link else {
            return;
        };
        let hook = compound.filter(|c| c.members.link);
        let n_phi = self.cs.n_phi as u64;
        let first_frame = self.frames_encoded - (self.frames.len() - first) as u64;
        for (f, words) in (first_frame..).zip(&mut self.frames[first..]) {
            self.link_epoch.run_end(hook, f * n_phi, f_s, |p| {
                *params = p.link.unwrap_or(NOOP_LINK);
            });
            let stats = self.link_stats.get_or_insert_with(LinkStats::default);
            for packet in words.chunks_mut(params.packet_words.max(1)) {
                if !params.send(packet.len(), rng, stats) {
                    packet.fill(0.0);
                }
            }
        }
    }

    /// Decodes the first `n` queued frames in one batched call with the
    /// nominal dictionary (the decoder does not know the mismatch/kT/C
    /// realisation). Frames decode independently, so the flush grouping
    /// never changes a bit.
    fn decode(&mut self, n: usize, gain: f64, out: &mut Vec<f64>) {
        let _recon_span = efficsense_obs::span!("stage.reconstruct");
        // Discrepancy-principle stopping: fit each frame down to the
        // expected measurement noise, relative to its own norm.
        let cfgs: Vec<OmpConfig> = self.frames[..n]
            .iter()
            .map(|y| OmpConfig::discrepancy(self.cs.omp_sparsity, self.noise_norm, y))
            .collect();
        let decoded = reconstruct_batch(&self.art, &self.frames[..n], &cfgs, self.threads);
        for xh in decoded {
            out.extend(xh.iter().map(|v| v / gain));
        }
        self.frames.drain(..n);
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
    amp: Amplifier,
    amplified: Ring,
    /// The two sub-block buffers of an overlapped push, kept between
    /// pushes (empty until the first one).
    spare: [Vec<f64>; 2],
    /// A chunked stream on a process that may use more than one core,
    /// read when the stream opens: only then does a large push overlap
    /// its stages (on one core the helper could only take turns).
    two_cores: bool,
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
    /// of `len` samples. `record_fp` is the record's fingerprint when a
    /// prefix store is attached; the output buffers come from `scratch`.
    pub(crate) fn for_record(
        sim: &Simulator,
        len: usize,
        fs_in: f64,
        noise_seed: u64,
        record_fp: Option<u64>,
        scratch: &mut SimScratch,
    ) -> Self {
        let mut stream = Self::build(sim, fs_in, noise_seed, None, record_fp);
        stream.whole = true;
        if let Path::Cs(cs) = &mut stream.back.path {
            cs.decode_batch = usize::MAX;
        }
        let out_len = (len as f64 / fs_in * stream.f_s).ceil() as usize;
        stream.pending_out = scratch.take(out_len);
        stream.pending_ref = scratch.take(out_len);
        stream
    }

    /// Starts a chunked stream's progress clock and reads whether it may
    /// overlap its stages.
    fn started(mut self) -> Self {
        self.started_ns = efficsense_obs::global().now_ns();
        self.last_progress_ns = self.started_ns;
        self.two_cores = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        self
    }

    fn build(
        sim: &Simulator,
        fs_in: f64,
        noise_seed: u64,
        compound: Option<Compound>,
        record_fp: Option<u64>,
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
        let lna_seed = cfg.seed ^ noise_seed.wrapping_mul(GOLDEN_GAMMA);
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
            .zip(record_fp)
            .map(|(store, fp)| RecordPrefix {
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
        // The design point's converter: mismatch drawn from the config
        // seed, so every record sees the same chip.
        let mut adc = SarAdc::new(
            cfg.design.n_bits,
            cfg.design.v_fs,
            cfg.adc.c_u_f,
            cfg.adc.comparator_noise_v,
            cfg.adc.comparator_offset_v,
            &cfg.tech,
            cfg.seed,
        );
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
                    epoch: EpochRun::default(),
                }),
                epoch: EpochRun::default(),
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
            amp: Amplifier {
                lna,
                epoch: EpochRun::default(),
            },
            amplified: Ring::default(),
            spare: Default::default(),
            two_cores: false,
            analog: None,
            back: BackEnd {
                acq: Acquisition {
                    sampler,
                    ktc,
                    clocked: arm.clock,
                    next_i: 0,
                    hold: HoldState::default(),
                    epoch: EpochRun::default(),
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
        let seed = cfg.seed ^ noise_seed.rotate_left(17);
        let mut encoder = ChargeSharingEncoder::new(
            state.phi.as_ref().clone(),
            cs.c_sample_f,
            cs.c_hold_f,
            1.0 / cfg.design.f_sample_hz(),
            cs.imperfections,
            &cfg.tech,
            &cfg.design,
            seed,
        );
        if arm.leakage {
            encoder.inject_leakage_fault(p0.leakage, &cfg.tech, &cfg.design);
        }
        // The encoded key hashes the encoder's exact constructor inputs and
        // leakage fault (a noop one leaves the encoder clean), so two runs
        // sharing a key encode the same frames by construction.
        let encoder_params = EncoderParams {
            m: cs.m,
            n_phi: cs.n_phi,
            s: cs.s,
            phi_seed: state.phi_seed,
            c_sample_f: encoder.c_sample_f,
            c_hold_f: encoder.c_hold_f,
            sample_period_s: encoder.sample_period_s,
            imperfections: cs.imperfections,
            c_pk_frac_um2: cfg.tech.c_pk_frac_um2,
            cap_density_f_per_um2: cfg.tech.cap_density_f_per_um2,
            i_leak_a: cfg.tech.i_leak_a,
            v_ref: cfg.design.v_ref,
            seed,
            leakage: p0.leakage.filter(|f| arm.leakage && !f.is_noop()),
        };
        CsPath {
            cs: cs.clone(),
            art: state.art.clone(),
            encoder,
            encoder_params,
            link,
            link_stats: None,
            frames: Vec::new(),
            frames_encoded: 0,
            decode_batch: DECODE_BATCH,
            noise_norm: frame_noise_norm(cfg, cs, state.art.mean_row_w2),
            threads: sim.decode_threads,
            epoch: EpochRun::default(),
            link_epoch: EpochRun::default(),
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

    /// Advances every stage as far as the buffered input allows.
    fn advance(&mut self, finished: bool) {
        let before = self.out_produced;
        let pending_before = self.pending_out.len();
        if finished || !self.overlap() {
            self.amplify(finished);
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
        }
        self.out_produced += (self.pending_out.len() - pending_before) as u64;
        // Stage 3: the clean reference, one value per produced output.
        if self.whole {
            whole_reference(
                self.prefix.as_ref(),
                &self.raw.buf,
                self.fs_in,
                self.f_s,
                self.out_produced as usize,
                &mut self.pending_ref,
            );
            self.ref_next = self.out_produced;
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

    /// Continuous-time proxy samples the buffered raw input spans.
    fn n_ct(&self) -> u64 {
        (self.raw.len() as f64 / self.fs_in * self.f_ct).round() as u64
    }

    /// Stages 1 and 2 of a chunked push whose new continuous-time range
    /// spans at least two sub-blocks, overlapped on two threads by
    /// [`two_stage`]: the helper resamples and amplifies sub-block j + 1
    /// while this thread appends sub-block j to the amplified ring and
    /// drains the back end over it. The back end is invariant to how its
    /// input arrives, so the push emits exactly the inline path's pairs.
    /// Returns `false`, having done nothing, for a smaller push or on one
    /// core. (Whole records and `finish` advance with `finished` set and
    /// never get here.)
    fn overlap(&mut self) -> bool {
        if !self.two_cores {
            return false;
        }
        let first = self.next_ct;
        let (next, mut values) =
            self.raw
                .view()
                .resample(self.fs_in, self.f_ct, first, self.n_ct(), false);
        let n = (next - first) as usize;
        if n < 2 * SUB_BLOCK {
            return false;
        }
        self.next_ct = next;
        grow(&mut self.amplified.buf, n);
        let (amp, compound, f_ct) = (&mut self.amp, self.compound.as_ref(), self.f_ct);
        let mut at = first;
        let produce = move |buf: &mut Vec<f64>| {
            buf.extend(values.by_ref().take(SUB_BLOCK));
            amp.run(compound, f_ct, at, buf);
            at += buf.len() as u64;
        };
        let (amplified, back, pending) =
            (&mut self.amplified, &mut self.back, &mut self.pending_out);
        let consume = |buf: &[f64]| {
            amplified.buf.extend_from_slice(buf);
            back.drain(amplified.view(), compound, false, false, None, pending);
        };
        two_stage(&mut self.spare, n.div_ceil(SUB_BLOCK), produce, consume);
        true
    }

    /// Stage 1: resamples the raw input onto the continuous-time proxy grid
    /// and amplifies it. On a whole-record run with a store, the stage is
    /// the record's `analog` artifact, whose build resamples through the
    /// `ct` class.
    fn amplify(&mut self, finished: bool) {
        let _analog_span = self.whole.then(|| efficsense_obs::span!("sim.analog"));
        let n_ct = self.n_ct();
        let (amp, compound, fs_in, f_ct) =
            (&mut self.amp, self.compound.as_ref(), self.fs_in, self.f_ct);
        let first = self.next_ct;
        let mut amplify = |buf: &mut [f64]| amp.run(compound, f_ct, first, buf);
        let raw = self.raw.view();
        match &self.prefix {
            Some(p) => {
                // The `ct` boundary: the resampled record is fault-free and
                // config-independent, so every sweep point touching this
                // record shares it. Its lookup runs inside the `analog`
                // build, so it takes a `ct` shard lock under an `analog` one.
                let key = prefix::ct_key(p.fp, fs_in, f_ct);
                let analog = p.store.get_or_build(Class::Analog, p.analog, || {
                    // Priced by the L3 cache-efficacy report: this span is
                    // exactly the work an `analog` hit avoids.
                    let _build_span = efficsense_obs::span!("sim.analog.build");
                    let ct = p.store.get_or_build(Class::Ct, key, || {
                        raw.resample(fs_in, f_ct, 0, n_ct, true).1.collect()
                    });
                    let mut amplified = ct.as_ref().clone();
                    amplify(&mut amplified);
                    amplified
                });
                self.analog = Some(analog);
                self.next_ct = n_ct;
            }
            None => {
                let _build_span = self
                    .whole
                    .then(|| efficsense_obs::span!("sim.analog.build"));
                let amplified = &mut self.amplified.buf;
                let start = amplified.len();
                if self.whole {
                    // A whole record arrives in one push: size its buffer
                    // exactly rather than to the next power of two.
                    amplified.reserve_exact(n_ct as usize);
                }
                let (next, values) = raw.resample(fs_in, f_ct, self.next_ct, n_ct, finished);
                append(amplified, values);
                amplify(&mut amplified[start..]);
                self.next_ct = next;
            }
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
            obs.emit(ev);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Sets its flag when dropped: a closure that owns one has been dropped
    /// once the flag is set.
    struct DropFlag(Arc<AtomicBool>);

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// The payload of a caught panic, as text.
    fn message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default()
    }

    #[test]
    fn two_stage_hands_over_every_sub_block_in_order_and_recycles_its_buffers() {
        let mut spare: [Vec<f64>; 2] = Default::default();
        let mut seen = Vec::new();
        for blocks in [5, 2, 9] {
            let mut produced = 0;
            let mut consumed = Vec::new();
            let mut buffers = Vec::new();
            two_stage(
                &mut spare,
                blocks,
                |buf| {
                    buffers.push(buf.as_ptr() as usize);
                    buf.extend([produced as f64; 3]);
                    produced += 1;
                },
                |buf| consumed.push(buf[0]),
            );
            let order: Vec<f64> = (0..blocks).map(|j| j as f64).collect();
            assert_eq!(consumed, order, "{blocks} sub-blocks");
            seen.extend(buffers);
        }
        // The helper only ever filled the two buffers this thread sized,
        // and both came back for the next advance.
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2);
        assert!(spare.iter().all(|b| b.capacity() >= SUB_BLOCK));
    }

    #[test]
    fn a_stage_one_panic_on_the_helper_reaches_the_caller() {
        let stopped = Arc::new(AtomicBool::new(false));
        let flag = DropFlag(stopped.clone());
        let mut consumed = Vec::new();
        let got = catch_unwind(AssertUnwindSafe(|| {
            let mut produced = 0;
            two_stage(
                &mut Default::default(),
                6,
                move |buf| {
                    let _owned = &flag;
                    assert!(produced < 2, "stage 1 broke");
                    buf.push(produced as f64);
                    produced += 1;
                },
                |buf| consumed.push(buf[0]),
            );
        }));
        let payload = got.expect_err("the helper's panic reaches the caller");
        assert_eq!(message(payload.as_ref()), "stage 1 broke");
        // Sub-blocks queued before the panic were still drained, and the
        // helper had stopped before `two_stage` unwound.
        assert_eq!(consumed, [0.0, 1.0]);
        assert!(stopped.load(Ordering::SeqCst));
    }

    #[test]
    fn a_stage_two_panic_with_a_queued_sub_block_reaches_the_caller() {
        let stopped = Arc::new(AtomicBool::new(false));
        let flag = DropFlag(stopped.clone());
        let (tx, rx) = mpsc::channel();
        let got = catch_unwind(AssertUnwindSafe(|| {
            let mut produced = 0;
            two_stage(
                &mut Default::default(),
                6,
                move |buf| {
                    let _owned = &flag;
                    buf.push(produced as f64);
                    produced += 1;
                    let _ = tx.send(produced);
                },
                |_| {
                    // Sub-block 1 is filled, and goes into the full channel,
                    // while the caller still holds sub-block 0: panic then,
                    // with the helper about to wait on one channel or the
                    // other.
                    rx.iter().find(|&n| n == 2);
                    panic!("stage 2 broke");
                },
            );
        }));
        let payload = got.expect_err("the caller's panic propagates");
        assert_eq!(message(payload.as_ref()), "stage 2 broke");
        assert!(stopped.load(Ordering::SeqCst));
    }

    #[test]
    fn frame_noise_norm_of_the_default_cs_config() {
        let cfg = SystemConfig::compressive(8, CsConfig::default());
        let sim = Simulator::new(cfg).expect("valid config");
        let ArchState::Cs(state) = &sim.arch else {
            panic!("a CS config builds the CS path");
        };
        let norm = frame_noise_norm(&sim.cfg, &state.cs, state.art.mean_row_w2);
        assert_eq!(
            state.art.mean_row_w2.to_bits(),
            0x3fa7_47df_d64d_ede7,
            "mean row energy"
        );
        assert_eq!(norm.to_bits(), 0x3fa5_63e4_1b10_d213, "noise norm {norm}");
    }
}
