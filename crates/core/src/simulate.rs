//! End-to-end system simulation (functional + power, simultaneously).
//!
//! A [`Simulator`] holds everything fixed per design point — the
//! validated configuration, the sensing schedule and decoder dictionary,
//! an injected fault plan, an attached prefix store — plus the power and
//! area models. The acquisition chain itself lives in [`crate::stream`]:
//! [`Simulator::run`] is one push of the whole record into a
//! [`StreamSimulator`] followed by its `finish`, with the Level-3
//! `acquired` lookup ([`crate::prefix`]) answered before the stream
//! opens.

use crate::config::{ConfigError, CsConfig, SystemConfig};
use crate::prefix::{self, PrefixStore};
use crate::stream::{self, StreamSimulator};
use efficsense_blocks::{ChargeSharingEncoder, Lna, Transmitter};
use efficsense_cs::matrix::SensingMatrix;
use efficsense_cs::memo::{self, DictionaryArtifacts, DictionaryParams};
use efficsense_faults::{FaultPlan, LinkStats};
use efficsense_power::area::AreaModel;
use efficsense_power::models::SampleHoldModel;
use efficsense_power::{PowerBreakdown, PowerModel};
use std::sync::Arc;

/// The result of simulating one record through a candidate system.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// The acquired signal referred back to the sensor input (V), at
    /// `f_sample`. For the CS architecture this is the reconstruction.
    pub input_referred: Vec<f64>,
    /// The clean input resampled to `f_sample` and trimmed to the same
    /// length — the reference for SNR-style metrics.
    pub reference: Vec<f64>,
    /// Output sample rate (Hz).
    pub fs_out: f64,
    /// Per-block power estimate of the configuration (W).
    pub power: PowerBreakdown,
    /// Total capacitor count in multiples of `C_u,min` (the Fig. 9 x-axis).
    pub area_units: f64,
    /// Data words sent to the transmitter for this record.
    pub words: u64,
    /// Radio-link accounting when a packet-loss fault is injected; `None`
    /// on the clean path.
    pub link: Option<LinkStats>,
}

impl SimOutput {
    /// Total power (W).
    #[must_use]
    pub fn total_power_w(&self) -> f64 {
        self.power.total().value()
    }
}

/// Executes a [`SystemConfig`] on input records.
///
/// The simulator precomputes everything that is fixed per design point
/// (sensing matrix, effective-matrix dictionary); [`Simulator::run`] then
/// processes one record. Mismatch draws are fixed per simulator (one "chip"),
/// noise streams vary with the `noise_seed` so repeated records see fresh
/// noise.
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) cfg: SystemConfig,
    pub(crate) arch: ArchState,
    /// Injected fault plan; `None` (and clean plans) leave every block's
    /// behaviour bit-identical to the unfaulted simulator.
    pub(crate) plan: Option<FaultPlan>,
    /// Worker threads for the batched per-record OMP decode (`<= 1` decodes
    /// inline). Not part of [`SystemConfig`]: thread count never changes
    /// results (the batch decoder is bit-identical across counts), so it
    /// must not perturb cache keys.
    pub(crate) decode_threads: usize,
    /// Attached Level-3 prefix store ([`crate::prefix`]); `None` runs every
    /// stage from scratch. Like `decode_threads`, the store never changes
    /// results — artifacts are derived from their keys — so it is not part
    /// of any cache key.
    pub(crate) prefix: Option<Arc<PrefixStore>>,
    /// Full configuration rendering, computed once per simulator; the
    /// config axis of the `acquired` prefix key.
    pub(crate) cfg_key: Arc<str>,
    /// Canonical fault-plan rendering (`"clean"` when no active plan); the
    /// plan axis of the `acquired` prefix key. Kept in lockstep with `plan`
    /// by [`Simulator::set_fault_plan`].
    pub(crate) plan_key: Arc<str>,
}

/// Reusable per-thread simulation buffers. A sweep worker holds one scratch
/// for its whole run: [`Simulator::run_with_scratch`] draws output buffers
/// from the pool instead of allocating, and the worker returns them with
/// [`SimScratch::reclaim_output`] once the goal function has consumed the
/// [`SimOutput`]. Purely an allocation-traffic optimisation — every buffer
/// is cleared before reuse, so results are bit-identical with or without
/// scratch reuse.
#[derive(Debug, Default)]
pub struct SimScratch {
    pool: Vec<Vec<f64>>,
}

impl SimScratch {
    /// An empty scratch pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a cleared buffer with at least `capacity` reserved.
    pub(crate) fn take(&mut self, capacity: usize) -> Vec<f64> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v.reserve(capacity);
        v
    }

    /// Returns a buffer to the pool for reuse.
    pub fn reclaim(&mut self, v: Vec<f64>) {
        // Cap the pool so a scratch held across heterogeneous workloads
        // cannot accumulate buffers without bound.
        if self.pool.len() < 8 {
            self.pool.push(v);
        }
    }

    /// Returns a consumed output's signal buffers to the pool.
    pub fn reclaim_output(&mut self, out: SimOutput) {
        self.reclaim(out.input_referred);
        self.reclaim(out.reference);
    }
}

/// Architecture-specific precomputed state. Splitting this out of
/// [`Simulator`] (instead of a trio of `Option`s) lets the CS paths borrow
/// their state without `expect`-style unwrapping.
#[derive(Debug, Clone)]
pub(crate) enum ArchState {
    /// Nyquist baseline: nothing to precompute per design point.
    Baseline,
    /// Compressive sensing: sensing schedule and decoder dictionary.
    Cs(CsState),
}

#[derive(Debug, Clone)]
pub(crate) struct CsState {
    /// The CS design variables (copied out of the config so the CS paths
    /// never have to re-unwrap `cfg.cs`).
    pub(crate) cs: CsConfig,
    /// The sensing schedule, shared process-wide across simulators with the
    /// same `(M, N_Φ, s, seed)` via [`efficsense_cs::memo`].
    pub(crate) phi: Arc<SensingMatrix>,
    /// Decoder dictionary `A = Φ_eff·Ψ`, its OMP column norms, and the
    /// mean row energy of the effective matrix (the per-measurement noise
    /// gain of the discrepancy stopping rule) — likewise memoized.
    pub(crate) art: Arc<DictionaryArtifacts>,
}

impl Simulator {
    /// Builds a simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint as a [`ConfigError`].
    pub fn new(cfg: SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let arch = if let Some(cs) = &cfg.cs {
            let seed = cfg.seed ^ 0x5EB1;
            let phi = memo::srbm(cs.m, cs.n_phi, cs.s, seed);
            // Leakage-aware decoding: the droop is set by design constants
            // (τ = C_hold·V_ref/I_leak), so the decoder folds it into the
            // effective matrix alongside the Eq. (1) weights. Only the
            // random imperfections (mismatch, kT/C) stay unmodelled.
            let decay = if cs.imperfections.leakage {
                let tau = cs.c_hold_f * cfg.design.v_ref / cfg.tech.i_leak_a;
                (-(1.0 / cfg.design.f_sample_hz()) / tau).exp()
            } else {
                1.0
            };
            // Dictionary, column norms and noise gain are memoized
            // process-wide: every design point sharing this sensing
            // configuration reuses one bit-identical instance.
            let art = memo::dictionary(&DictionaryParams {
                m: cs.m,
                n_phi: cs.n_phi,
                s: cs.s,
                seed,
                c_sample_f: cs.c_sample_f,
                c_hold_f: cs.c_hold_f,
                decay,
                basis: cs.basis,
            });
            ArchState::Cs(CsState {
                cs: cs.clone(),
                phi,
                art,
            })
        } else {
            ArchState::Baseline
        };
        // The full `Debug` rendering covers every configuration field — the
        // same sufficiency argument as the L1 point key — and is computed
        // once here rather than per record.
        let cfg_key = Arc::from(format!("{cfg:?}"));
        Ok(Self {
            cfg,
            arch,
            plan: None,
            decode_threads: 1,
            prefix: None,
            cfg_key,
            plan_key: Arc::from("clean"),
        })
    }

    /// Sets the decode fan-out for subsequent [`Simulator::run`] calls.
    /// Sweeps already parallelise across points, so the default (inline)
    /// is right unless a single point is being evaluated in isolation.
    pub fn set_decode_threads(&mut self, threads: usize) {
        self.decode_threads = threads.max(1);
    }

    /// Builds a simulator with a fault plan injected from the start.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint as a [`ConfigError`].
    pub fn with_fault_plan(cfg: SystemConfig, plan: FaultPlan) -> Result<Self, ConfigError> {
        let mut sim = Self::new(cfg)?;
        sim.set_fault_plan(Some(plan));
        Ok(sim)
    }

    /// Installs (or clears) the fault plan for subsequent [`Simulator::run`]
    /// calls. Clean plans are dropped so the clean path stays bit-identical.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan.filter(|p| !p.is_clean());
        self.plan_key = match &self.plan {
            Some(p) => Arc::from(p.canonical_key()),
            None => Arc::from("clean"),
        };
    }

    /// Attaches (or detaches) a Level-3 prefix store. Attaching a store
    /// never changes any output bit — see [`crate::prefix`] — it only lets
    /// records reuse front-end artifacts built by earlier runs, including
    /// runs of other simulators sharing the same store.
    pub fn set_prefix_store(&mut self, store: Option<Arc<PrefixStore>>) {
        self.prefix = store;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Baseline S&H capacitor (F): the kT/C bound clamped to the technology
    /// minimum — at biomedical resolutions matching, not noise, sets the cap.
    pub(crate) fn sh_cap_f(&self) -> f64 {
        self.cfg
            .design
            .c_sample_bound()
            .value()
            .max(self.cfg.tech.c_u_min_f)
    }

    /// Capacitance loading the LNA: S&H cap (baseline) or `C_hold` (CS).
    pub fn lna_load_f(&self) -> f64 {
        match &self.cfg.cs {
            Some(cs) => cs.c_hold_f,
            None => self.sh_cap_f(),
        }
    }

    /// Simulates one record (`input` at `fs_in` Hz). `noise_seed` decorrelates
    /// the noise streams between records.
    ///
    /// # Panics
    ///
    /// Panics if `input` is empty, `fs_in <= 0`, or (CS only) the record is
    /// shorter than one `N_Φ`-sample frame at `f_sample`.
    pub fn run(&self, input: &[f64], fs_in: f64, noise_seed: u64) -> SimOutput {
        self.run_with_scratch(input, fs_in, noise_seed, &mut SimScratch::new())
    }

    /// [`Simulator::run`] drawing its output buffers from a caller-held
    /// scratch pool; sweep workers keep one per thread so steady-state
    /// evaluation stops allocating output buffers per record.
    ///
    /// The record runs as one push of a [`StreamSimulator`] followed by its
    /// `finish`. With a prefix store attached, the record's `acquired`
    /// artifact is consulted first: a hit skips the front end and decode
    /// entirely, so it answers before the stream opens.
    ///
    /// # Panics
    ///
    /// As [`Simulator::run`].
    pub fn run_with_scratch(
        &self,
        input: &[f64],
        fs_in: f64,
        noise_seed: u64,
        scratch: &mut SimScratch,
    ) -> SimOutput {
        assert!(!input.is_empty(), "cannot simulate an empty record");
        assert!(fs_in > 0.0, "input rate must be positive");
        let f_s = self.cfg.design.f_sample_hz();
        if let ArchState::Cs(state) = &self.arch {
            let n_samples = (input.len() as f64 / fs_in * f_s) as usize;
            assert!(
                n_samples >= state.cs.n_phi,
                "record too short for the CS architecture: {n_samples} samples at f_sample \
                 but one frame needs N_Φ = {}",
                state.cs.n_phi
            );
        }
        // L3: fingerprint the record once per run; every prefix key hangs
        // off it.
        let acquired = self.prefix.as_deref().map(|store| {
            let fp = prefix::record_fingerprint(input);
            let key = prefix::acquired_key(&self.cfg_key, &self.plan_key, fp, fs_in, noise_seed);
            (store, fp, key)
        });
        if let Some((store, fp, key)) = acquired {
            if let Some(hit) = store.get_acquired(key) {
                let len = hit.input_referred.len();
                let mut input_referred = scratch.take(len);
                input_referred.extend_from_slice(&hit.input_referred);
                let mut reference = scratch.take(len);
                stream::whole_reference(Some((store, fp)), input, fs_in, f_s, len, &mut reference);
                let power = {
                    let _power_span = efficsense_obs::span!("stage.power");
                    self.power_breakdown(hit.adc_in_rms)
                };
                return SimOutput {
                    input_referred,
                    reference,
                    fs_out: f_s,
                    power,
                    area_units: self.area_units(),
                    words: hit.words,
                    link: hit.link,
                };
            }
        }
        let acquired = acquired.map(|(_, fp, key)| (fp, key));
        let mut stream =
            StreamSimulator::for_record(self, input.len(), fs_in, noise_seed, acquired, scratch);
        let chunk = stream.push(input);
        let (tail, summary) = stream.finish();
        debug_assert!(tail.is_empty(), "a whole-record run completes in its push");
        efficsense_dsp::approx::debug_assert_all_finite(
            &chunk.input_referred,
            "simulate: input-referred output",
        );
        SimOutput {
            input_referred: chunk.input_referred,
            reference: chunk.reference,
            fs_out: summary.fs_out,
            power: summary.power,
            area_units: summary.area_units,
            words: summary.words,
            link: summary.link,
        }
    }

    /// Assembles the Table II power breakdown for this configuration.
    ///
    /// `adc_in_rms` is the measured RMS at the converter input (unipolar
    /// frame), feeding the signal-dependent DAC switching model.
    pub fn power_breakdown(&self, adc_in_rms: f64) -> PowerBreakdown {
        let cfg = &self.cfg;
        let mut b = PowerBreakdown::new();
        // LNA.
        let lna = Lna::from_design(
            &cfg.design,
            cfg.lna.gain,
            cfg.lna.noise_floor_vrms,
            cfg.lna.k3,
            cfg.f_ct_hz(),
            0,
        );
        b.add(
            efficsense_power::BlockKind::Lna,
            lna.power(self.lna_load_f(), &cfg.tech, &cfg.design),
        );
        // ADC (comparator + SAR logic + DAC).
        let adc = stream::sar_adc(cfg);
        b = b.merged(&adc.power_breakdown(adc_in_rms, &cfg.tech, &cfg.design));
        // A lossy link retransmits: the radio clocks out expected-attempts×
        // the data words, inflating the average TX power by the same factor.
        let retry_factor = self
            .plan
            .as_ref()
            .and_then(|p| p.link.filter(|l| !l.is_noop()))
            .map_or(1.0, |l| l.expected_attempts());
        match &self.arch {
            ArchState::Baseline => {
                // S&H plus Nyquist-rate transmission.
                b.add(
                    efficsense_power::BlockKind::SampleHold,
                    SampleHoldModel.power(&cfg.tech, &cfg.design),
                );
                let tx = Transmitter::baseline(&cfg.design);
                b.add(
                    efficsense_power::BlockKind::Transmitter,
                    tx.power(&cfg.tech, &cfg.design) * retry_factor,
                );
            }
            ArchState::Cs(state) => {
                let cs = &state.cs;
                let enc = ChargeSharingEncoder::new(
                    state.phi.as_ref().clone(),
                    cs.c_sample_f,
                    cs.c_hold_f,
                    1.0 / cfg.design.f_sample_hz(),
                    cs.imperfections,
                    &cfg.tech,
                    &cfg.design,
                    cfg.seed,
                );
                b = b.merged(&enc.power_breakdown(&cfg.tech, &cfg.design));
                let tx = Transmitter::compressive(&cfg.design, cs.m, cs.n_phi);
                b.add(
                    efficsense_power::BlockKind::Transmitter,
                    tx.power(&cfg.tech, &cfg.design) * retry_factor,
                );
            }
        }
        b
    }

    /// A human-readable specification sheet of this design point: the
    /// architecture, its Table III parameters, the estimated per-block power
    /// at a nominal mid-scale input, area, and data rate.
    pub fn spec_sheet(&self) -> String {
        use std::fmt::Write as _;
        let cfg = &self.cfg;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "EffiCSense design point — {} architecture",
            cfg.architecture()
        );
        let _ = writeln!(s, "--------------------------------------------------");
        let _ = writeln!(
            s,
            "ADC: {} bit SAR @ {:.1} Hz (f_clk {:.1} Hz), V_FS {} V",
            cfg.design.n_bits,
            cfg.design.f_sample_hz(),
            cfg.design.f_clk_hz(),
            cfg.design.v_fs
        );
        let _ = writeln!(
            s,
            "LNA: gain {:.0}, noise floor {:.2} µVrms, BW {:.0} Hz",
            cfg.lna.gain,
            cfg.lna.noise_floor_vrms * 1e6,
            cfg.design.bw_lna_hz()
        );
        if let Some(cs) = &cfg.cs {
            let _ = writeln!(
                s,
                "CS encoder: M {} / N_Φ {} (s = {}), C_sample {:.2} pF, C_hold {:.2} pF, basis {}",
                cs.m,
                cs.n_phi,
                cs.s,
                cs.c_sample_f * 1e12,
                cs.c_hold_f * 1e12,
                cs.basis
            );
            let _ = writeln!(
                s,
                "decoder: OMP k = {}, leakage-aware effective matrix",
                cs.omp_sparsity
            );
        }
        let _ = writeln!(s, "area: {:.0} C_u,min", self.area_units());
        let _ = writeln!(s, "power @ mid-scale input:");
        let _ = write!(s, "{}", self.power_breakdown(cfg.design.v_fs / 2.0));
        s
    }

    /// Total capacitor count in `C_u,min` multiples (Fig. 9 x-axis).
    pub fn area_units(&self) -> f64 {
        let cfg = &self.cfg;
        let model = match &cfg.cs {
            None => AreaModel::baseline(&cfg.tech, &cfg.design, cfg.adc.c_u_f),
            Some(cs) => AreaModel::compressive(
                &cfg.tech,
                &cfg.design,
                cfg.adc.c_u_f,
                cs.m,
                cs.s,
                cs.c_hold_f,
                cs.c_sample_f,
            ),
        };
        model.total_units(&cfg.tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CsConfig;
    use efficsense_dsp::metrics::snr_fit_db;
    use efficsense_dsp::spectrum::sine;

    fn eeg_like_tone(fs: f64, seconds: f64) -> Vec<f64> {
        // 8 Hz, 100 µV: inside every band of interest.
        sine((fs * seconds) as usize, fs, 8.0, 100e-6, 0.3)
    }

    #[test]
    fn baseline_acquires_tone_with_good_snr() {
        let mut cfg = SystemConfig::baseline(8);
        cfg.lna.noise_floor_vrms = 1e-6;
        let sim = Simulator::new(cfg).expect("valid");
        let x = eeg_like_tone(173.61, 4.0);
        let out = sim.run(&x, 173.61, 1);
        assert_eq!(out.fs_out, 537.6);
        assert_eq!(out.input_referred.len(), out.reference.len());
        let snr = snr_fit_db(&out.reference, &out.input_referred);
        assert!(snr > 20.0, "baseline SNR {snr} dB");
    }

    #[test]
    fn baseline_snr_degrades_with_lna_noise() {
        let x = eeg_like_tone(173.61, 4.0);
        let snr_at = |noise: f64| {
            let mut cfg = SystemConfig::baseline(8);
            cfg.lna.noise_floor_vrms = noise;
            let sim = Simulator::new(cfg).expect("valid");
            let out = sim.run(&x, 173.61, 1);
            snr_fit_db(&out.reference, &out.input_referred)
        };
        let quiet = snr_at(1e-6);
        let noisy = snr_at(20e-6);
        assert!(quiet > noisy + 10.0, "quiet {quiet} vs noisy {noisy}");
    }

    #[test]
    fn cs_reconstructs_tone() {
        let mut cfg = SystemConfig::compressive(8, CsConfig::default());
        cfg.lna.noise_floor_vrms = 2e-6;
        let sim = Simulator::new(cfg).expect("valid");
        let x = eeg_like_tone(173.61, 4.0);
        let out = sim.run(&x, 173.61, 1);
        // 4 s → 2150 samples → 5 full frames of 384.
        assert_eq!(out.input_referred.len(), 5 * 384);
        let snr = snr_fit_db(&out.reference, &out.input_referred);
        assert!(snr > 8.0, "CS reconstruction SNR {snr} dB");
    }

    #[test]
    fn cs_sends_fewer_words_than_baseline() {
        let x = eeg_like_tone(173.61, 4.0);
        let base = Simulator::new(SystemConfig::baseline(8))
            .expect("valid")
            .run(&x, 173.61, 0);
        let cs_cfg = CsConfig {
            m: 75,
            ..Default::default()
        };
        let cs = Simulator::new(SystemConfig::compressive(8, cs_cfg))
            .expect("valid")
            .run(&x, 173.61, 0);
        assert!(
            cs.words * 4 < base.words,
            "cs {} vs baseline {}",
            cs.words,
            base.words
        );
    }

    #[test]
    fn cs_transmitter_power_lower_baseline_logic_higher() {
        let x = eeg_like_tone(173.61, 4.0);
        let base = Simulator::new(SystemConfig::baseline(8))
            .expect("valid")
            .run(&x, 173.61, 0);
        let cs = Simulator::new(SystemConfig::compressive(
            8,
            CsConfig {
                m: 75,
                ..Default::default()
            },
        ))
        .expect("valid")
        .run(&x, 173.61, 0);
        use efficsense_power::BlockKind::*;
        assert!(cs.power.get(Transmitter) < 0.3 * base.power.get(Transmitter));
        assert!(cs.power.get(CsEncoderLogic) > base.power.get(CsEncoderLogic));
    }

    #[test]
    fn cs_area_much_larger() {
        let base = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        let cs = Simulator::new(SystemConfig::compressive(8, CsConfig::default())).expect("valid");
        assert!(cs.area_units() > 10.0 * base.area_units());
    }

    #[test]
    fn deterministic_per_seed() {
        let x = eeg_like_tone(173.61, 2.0);
        let sim = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        assert_eq!(sim.run(&x, 173.61, 7), sim.run(&x, 173.61, 7));
    }

    #[test]
    fn different_noise_seeds_differ() {
        let x = eeg_like_tone(173.61, 2.0);
        let sim = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        assert_ne!(
            sim.run(&x, 173.61, 1).input_referred,
            sim.run(&x, 173.61, 2).input_referred
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = SystemConfig::baseline(8);
        cfg.lna.gain = -1.0;
        assert!(Simulator::new(cfg).is_err());
    }

    #[test]
    #[should_panic(expected = "record too short")]
    fn cs_rejects_sub_frame_records() {
        let sim = Simulator::new(SystemConfig::compressive(8, CsConfig::default())).expect("valid");
        // 0.5 s at 537.6 Hz is only 268 samples < N_Φ = 384.
        let x = eeg_like_tone(173.61, 0.5);
        let _ = sim.run(&x, 173.61, 1);
    }

    #[test]
    fn spec_sheet_mentions_key_parameters() {
        let sim = Simulator::new(SystemConfig::compressive(8, CsConfig::default())).expect("valid");
        let sheet = sim.spec_sheet();
        assert!(sheet.contains("cs architecture"));
        assert!(sheet.contains("8 bit SAR"));
        assert!(sheet.contains("M 150 / N_Φ 384"));
        assert!(sheet.contains("TOTAL"));
        let base = Simulator::new(SystemConfig::baseline(6)).expect("valid");
        let sheet = base.spec_sheet();
        assert!(sheet.contains("baseline architecture"));
        assert!(sheet.contains("6 bit SAR"));
        assert!(!sheet.contains("CS encoder"));
    }

    #[test]
    fn clean_fault_plan_is_bit_identical_for_both_architectures() {
        use efficsense_faults::FaultPlan;
        let x = eeg_like_tone(173.61, 4.0);
        for cfg in [
            SystemConfig::baseline(8),
            SystemConfig::compressive(8, CsConfig::default()),
        ] {
            let clean = Simulator::new(cfg.clone()).expect("valid");
            let faulted = Simulator::with_fault_plan(cfg, FaultPlan::clean(0xFA17)).expect("valid");
            assert_eq!(
                clean.run(&x, 173.61, 3),
                faulted.run(&x, 173.61, 3),
                "a clean plan must not perturb the simulation"
            );
        }
    }

    #[test]
    fn every_fault_kind_degrades_snr_on_its_architecture() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 4.0);
        let snr_of = |cfg: SystemConfig, plan: Option<FaultPlan>| {
            let mut sim = Simulator::new(cfg).expect("valid");
            sim.set_fault_plan(plan);
            let out = sim.run(&x, 173.61, 1);
            snr_fit_db(&out.reference, &out.input_referred)
        };
        for kind in FaultKind::ALL {
            // CapLeakage only exists in the CS chain; everything else is
            // checked on the cheaper baseline chain.
            let cfg = if kind == FaultKind::CapLeakage {
                SystemConfig::compressive(8, CsConfig::default())
            } else {
                SystemConfig::baseline(8)
            };
            let clean = snr_of(cfg.clone(), None);
            let faulted = snr_of(cfg, Some(FaultPlan::single(kind, 1.0, 0xFA17)));
            assert!(
                faulted < clean - 1.0,
                "{kind} at severity 1: {faulted:.1} dB !< clean {clean:.1} dB"
            );
        }
    }

    #[test]
    fn packet_loss_records_link_stats_and_inflates_tx_power() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 4.0);
        let cfg = SystemConfig::baseline(8);
        let clean = Simulator::new(cfg.clone())
            .expect("valid")
            .run(&x, 173.61, 1);
        assert_eq!(clean.link, None);
        let plan = FaultPlan::single(FaultKind::PacketLoss, 0.6, 7);
        let lossy = Simulator::with_fault_plan(cfg, plan.clone())
            .expect("valid")
            .run(&x, 173.61, 1);
        let stats = lossy.link.expect("link fault must record stats");
        assert_eq!(stats.data_words, lossy.words);
        assert!(stats.lost_packets > 0, "54% loss must drop packets");
        assert!(
            stats.tx_words > stats.data_words,
            "retries must inflate the clocked-out words"
        );
        use efficsense_power::BlockKind::Transmitter;
        let expected = plan
            .link
            .expect("plan has a link fault")
            .expected_attempts();
        let ratio = lossy.power.get(Transmitter).value() / clean.power.get(Transmitter).value();
        assert!(
            (ratio - expected).abs() < 1e-9,
            "TX power ratio {ratio} vs expected attempts {expected}"
        );
    }

    #[test]
    fn cs_chain_survives_packet_loss_with_reduced_quality() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 4.0);
        let cfg = SystemConfig::compressive(8, CsConfig::default());
        let clean = Simulator::new(cfg.clone())
            .expect("valid")
            .run(&x, 173.61, 1);
        let lossy =
            Simulator::with_fault_plan(cfg, FaultPlan::single(FaultKind::PacketLoss, 0.5, 3))
                .expect("valid")
                .run(&x, 173.61, 1);
        let snr_clean = snr_fit_db(&clean.reference, &clean.input_referred);
        let snr_lossy = snr_fit_db(&lossy.reference, &lossy.input_referred);
        assert!(snr_lossy < snr_clean, "{snr_lossy} !< {snr_clean}");
        assert!(lossy.link.is_some());
        assert!(snr_lossy.is_finite(), "erasures must not break the decoder");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 2.0);
        let mk = || {
            Simulator::with_fault_plan(
                SystemConfig::baseline(8),
                FaultPlan::single(FaultKind::DroppedSamples, 0.7, 9),
            )
            .expect("valid")
        };
        assert_eq!(mk().run(&x, 173.61, 5), mk().run(&x, 173.61, 5));
        // Different records draw different fault realisations.
        assert_ne!(
            mk().run(&x, 173.61, 5).input_referred,
            mk().run(&x, 173.61, 6).input_referred
        );
    }

    #[test]
    fn power_breakdown_dominated_by_tx_or_lna_baseline() {
        let sim = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        let b = sim.power_breakdown(1.0);
        use efficsense_power::BlockKind::*;
        let dom = b.dominant().expect("non-empty");
        assert!(dom == Transmitter || dom == Lna, "dominant {dom}");
        // Total in the paper's µW regime.
        let total = b.total().value();
        assert!((1e-6..1e-4).contains(&total), "total {total}");
    }
}
