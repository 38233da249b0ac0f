//! Level-3 prefix memoization: shared analog front-end artifacts.
//!
//! A design-space sweep evaluates hundreds of points that differ only
//! *downstream* of the analog front end: every point sharing an LNA noise
//! configuration re-resamples the same records to the continuous-time proxy
//! rate, re-runs the same LNA noise realisation over them, and rebuilds the
//! same clean reference signal — per point, per record. This module is the
//! third cache level closing that redundancy:
//!
//! * **L1** ([`crate::cache::SweepCache`]) — whole point evaluations,
//!   content-addressed by [`crate::cache::point_key`];
//! * **L2** ([`efficsense_cs::memo`]) — sensing matrices and decoder
//!   dictionaries shared per sensing configuration;
//! * **L3** (this module) — *stage-prefix artifacts* of the simulation
//!   pipeline, shared across sweep points whose prefixes coincide.
//!
//! Five artifact classes are stored, from shallowest to deepest prefix:
//!
//! | class       | contents                                   | key axes |
//! |-------------|--------------------------------------------|----------|
//! | `ct`        | record resampled to the proxy rate         | record fingerprint, `fs_in`, `f_ct` |
//! | `analog`    | LNA-amplified proxy buffer                 | `ct` axes + LNA gain/noise/bandwidth/k3/v_clip, mixed LNA seed, canonical LNA-fault params + stream seed |
//! | `reference` | clean input at `f_s`, trimmed to a length  | record fingerprint, `fs_in`, `f_s`, length |
//! | `sampled`   | clean-clock CS sampling of the `analog` buffer | `analog` key, `f_s`, sample count |
//! | `acquired`  | full front-end output (input-referred samples, word count, ADC input RMS, link stats) | full `SystemConfig`, canonical fault plan, record fingerprint, `fs_in`, noise seed |
//!
//! Every artifact is **derived deterministically from its key**, so a
//! memoized artifact is bit-identical to a freshly built one: attaching a
//! store to a [`crate::simulate::Simulator`] (directly or through
//! [`crate::sweep::Sweep::with_prefix_store`]) never changes any
//! `SimOutput` bit, only the wall clock. Keys are 128-bit FNV-1a hashes
//! over length-prefixed fields (the [`crate::cache`] scheme) with float
//! axes compared by IEEE-754 bit pattern.
//!
//! The lookups sit at the stage boundaries of the simulation stream
//! ([`crate::stream`]) and serve whole-record runs only
//! ([`Simulator::run`], which fingerprints its record before the stream
//! opens). The `acquired` class is consulted before the stream opens —
//! a hit skips the front end and decode alike; `analog` (with `ct` on a
//! miss), `sampled` and `reference` are consulted by the stages they
//! replace, and each built artifact is inserted as its stage completes.
//! Chunked streams never consult the store.
//!
//! Unlike the unbounded L2 stores, every class here is **capped**: values
//! are whole per-record signal buffers, so a long-running sweep server
//! holding a store open must not grow without bound. Each class carries an
//! element budget (one element ≈ one `f64`); inserts beyond the budget
//! evict the oldest entries first. Eviction only ever costs future hits —
//! rebuilt artifacts are bit-identical by construction.

//!
//! [`Simulator::run`]: crate::simulate::Simulator::run

use crate::cache::{Fnv64, KeyHasher};
use efficsense_faults::{LinkStats, LnaRailFault};
use efficsense_obs::Store;
use std::sync::Arc;

/// Hit/miss/eviction/occupancy counters of one artifact class.
pub use efficsense_obs::StoreStats as ClassStats;

/// Bump on any change to prefix-key derivation; disjoint from the L1
/// `efficsense-pointkey-*` tags so the two key families can never alias.
const KEY_VERSION: &str = "efficsense-prefixkey-v1";

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// 128-bit content hash identifying one prefix artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefixKey(u128);

impl PrefixKey {
    /// Lower-case 32-digit hex form (diagnostics only; nothing persists).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// 64-bit content fingerprint of one input record: its length and the
/// exact bit pattern of every sample. Computed per [`Simulator::run`]
/// call when a store is attached — the caller need not carry record
/// identity, and two byte-identical records share artifacts even across
/// datasets.
///
/// [`Simulator::run`]: crate::simulate::Simulator::run
#[must_use]
pub fn record_fingerprint(samples: &[f64]) -> u64 {
    // FNV-1a over 64-bit words (not bytes): one multiply per sample keeps
    // the per-run fingerprint cost far below the work the store amortizes.
    let mut h = Fnv64::salted(samples.len() as u64);
    for s in samples {
        h.write_word(s.to_bits());
    }
    h.digest()
}

fn hasher(class: &str) -> KeyHasher {
    let mut h = KeyHasher::new();
    h.field("version", KEY_VERSION);
    h.field("class", class);
    h
}

/// Key of the resampled continuous-time record (fully fault-free).
#[must_use]
pub fn ct_key(record_fp: u64, fs_in: f64, f_ct: f64) -> PrefixKey {
    let mut h = hasher("ct");
    h.field_u64("record", record_fp);
    h.field_u64("fs_in", fs_in.to_bits());
    h.field_u64("f_ct", f_ct.to_bits());
    PrefixKey(h.digest())
}

/// Everything the LNA-amplified buffer depends on beyond the CT record:
/// the exact constructor inputs of [`efficsense_blocks::Lna`] plus the
/// canonical parameters of an injected rail fault. Keying the constructor
/// inputs (rather than a curated subset of the design) makes the key
/// sufficient by construction — any configuration axis that reaches the
/// LNA reaches the key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogParams {
    /// [`record_fingerprint`] of the input record.
    pub record_fp: u64,
    /// Input record rate (Hz).
    pub fs_in: f64,
    /// Continuous-time proxy rate (Hz).
    pub f_ct: f64,
    /// Closed-loop LNA gain.
    pub gain: f64,
    /// Input-referred integrated noise (V rms).
    pub noise_floor_vrms: f64,
    /// −3 dB bandwidth (Hz).
    pub bandwidth_hz: f64,
    /// Third-order nonlinearity coefficient.
    pub k3: f64,
    /// Output clipping level (V).
    pub v_clip: f64,
    /// The mixed LNA noise-stream seed (`cfg.seed ^ noise_seed·φ64`).
    pub lna_seed: u64,
    /// Active rail fault and its per-record stream seed; `None` covers
    /// both "no plan" and noop faults (the simulator drops those before
    /// they can perturb the signal, so they must share the clean key).
    pub fault: Option<(LnaRailFault, u64)>,
}

/// Key of the LNA-amplified proxy buffer.
#[must_use]
pub fn analog_key(p: &AnalogParams) -> PrefixKey {
    let mut h = hasher("analog");
    h.field_u64("record", p.record_fp);
    h.field_u64("fs_in", p.fs_in.to_bits());
    h.field_u64("f_ct", p.f_ct.to_bits());
    h.field_u64("gain", p.gain.to_bits());
    h.field_u64("noise", p.noise_floor_vrms.to_bits());
    h.field_u64("bw", p.bandwidth_hz.to_bits());
    h.field_u64("k3", p.k3.to_bits());
    h.field_u64("v_clip", p.v_clip.to_bits());
    h.field_u64("seed", p.lna_seed);
    match p.fault {
        None => h.field("fault", "clean"),
        Some((f, stream_seed)) => {
            h.field("fault", "rail");
            h.field_u64("rail_prob", f.rail_prob.to_bits());
            h.field_u64("episode_len", f.episode_len as u64);
            h.field_u64("v_clip_factor", f.v_clip_factor.to_bits());
            h.field_u64("fault_seed", stream_seed);
        }
    }
    PrefixKey(h.digest())
}

/// Key of the clean reference signal: the input sampled at `f_s`, exactly
/// `len` samples.
#[must_use]
pub fn reference_key(record_fp: u64, fs_in: f64, f_s: f64, len: usize) -> PrefixKey {
    let mut h = hasher("reference");
    h.field_u64("record", record_fp);
    h.field_u64("fs_in", fs_in.to_bits());
    h.field_u64("f_s", f_s.to_bits());
    h.field_u64("len", len as u64);
    PrefixKey(h.digest())
}

/// Key of the clean-clock CS sampling of an amplified buffer (`n` samples
/// at `f_s`). Composes the `analog` key, so every axis the amplified
/// buffer depends on is inherited.
#[must_use]
pub fn sampled_key(analog: PrefixKey, f_s: f64, n: usize) -> PrefixKey {
    let mut h = hasher("sampled");
    h.field("analog", &format!("{:032x}", analog.0));
    h.field_u64("f_s", f_s.to_bits());
    h.field_u64("n", n as u64);
    PrefixKey(h.digest())
}

/// Key of the full acquired front-end output for one record. The deepest
/// prefix: everything up to (and including) reconstruction, just before
/// the goal function. Keyed by the complete configuration rendering and
/// the canonical fault plan — the same canonicalisation discipline as the
/// L1 [`crate::cache::point_key`] — plus the record content and noise
/// seed, so it is sufficient for every block the chain instantiates.
#[must_use]
pub fn acquired_key(
    cfg_key: &str,
    plan_key: &str,
    record_fp: u64,
    fs_in: f64,
    noise_seed: u64,
) -> PrefixKey {
    let mut h = hasher("acquired");
    h.field("cfg", cfg_key);
    h.field("plan", plan_key);
    h.field_u64("record", record_fp);
    h.field_u64("fs_in", fs_in.to_bits());
    h.field_u64("noise_seed", noise_seed);
    PrefixKey(h.digest())
}

// ---------------------------------------------------------------------------
// Artifact values
// ---------------------------------------------------------------------------

/// The acquired front-end output of one record: everything
/// [`crate::simulate::Simulator::run`] derives from the signal path (the
/// power/area models re-derive cheaply from the config and the stored RMS).
#[derive(Debug, Clone, PartialEq)]
pub struct AcquiredPrefix {
    /// Acquired samples referred back to the sensor input (already divided
    /// by the LNA gain, which is part of the key).
    pub input_referred: Vec<f64>,
    /// Data words sent to the transmitter.
    pub words: u64,
    /// Measured RMS at the converter input (feeds the DAC switching model).
    pub adc_in_rms: f64,
    /// Radio-link accounting when a packet-loss fault was active.
    pub link: Option<LinkStats>,
}

// ---------------------------------------------------------------------------
// PrefixStore
// ---------------------------------------------------------------------------

/// Element budgets (≈ `f64`s) per artifact class; see
/// [`PrefixStore::with_budgets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixBudgets {
    /// Resampled continuous-time records.
    pub ct: usize,
    /// LNA-amplified buffers.
    pub analog: usize,
    /// Clean reference signals.
    pub reference: usize,
    /// Clean-clock CS samplings.
    pub sampled: usize,
    /// Acquired front-end outputs.
    pub acquired: usize,
}

impl Default for PrefixBudgets {
    fn default() -> Self {
        // ~120 MB total at f64 size: comfortably holds a reduced-scale
        // product sweep while bounding a long-running server. The CT and
        // amplified buffers run at the proxy rate (8× oversampled), so they
        // get the larger shares.
        Self {
            ct: 4 << 20,
            analog: 4 << 20,
            reference: 1 << 20,
            sampled: 2 << 20,
            acquired: 4 << 20,
        }
    }
}

/// The Level-3 prefix store: five bounded, content-addressed artifact
/// classes (see the module docs), each a [`Store`] counting under
/// `memo.<class>.*`. Cheap to share: clone an `Arc<PrefixStore>` into every
/// [`crate::sweep::Sweep`] (or attach it to a bare
/// [`crate::simulate::Simulator`]) that should amortize front-end work;
/// attaching it never changes results, only cost.
#[derive(Debug)]
pub struct PrefixStore {
    ct: Store<PrefixKey, Vec<f64>>,
    analog: Store<PrefixKey, Vec<f64>>,
    reference: Store<PrefixKey, Vec<f64>>,
    sampled: Store<PrefixKey, Vec<f64>>,
    acquired: Store<PrefixKey, AcquiredPrefix>,
}

impl Default for PrefixStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixStore {
    /// A store with the default budgets.
    #[must_use]
    pub fn new() -> Self {
        Self::with_budgets(PrefixBudgets::default())
    }

    /// A store with explicit per-class element budgets (≈ `f64`s each).
    /// Tiny budgets are legal — the store then churns, and churn only costs
    /// rebuilds, never correctness.
    #[must_use]
    pub fn with_budgets(b: PrefixBudgets) -> Self {
        Self {
            ct: Store::new("memo.ct", b.ct, Vec::len),
            analog: Store::new("memo.analog", b.analog, Vec::len),
            reference: Store::new("memo.reference", b.reference, Vec::len),
            sampled: Store::new("memo.sampled", b.sampled, Vec::len),
            // words/rms/link are a rounding error next to the sample buffer.
            acquired: Store::new("memo.acquired", b.acquired, |a| a.input_referred.len() + 8),
        }
    }

    /// Looks up a resampled CT record.
    #[must_use]
    pub fn get_ct(&self, key: PrefixKey) -> Option<Arc<Vec<f64>>> {
        self.ct.get(&key)
    }

    /// Stores a freshly resampled CT record, returning the shared handle.
    pub fn insert_ct(&self, key: PrefixKey, v: Vec<f64>) -> Arc<Vec<f64>> {
        efficsense_dsp::approx::debug_assert_all_finite(&v, "prefix: ct artifact");
        self.ct.insert(key, v)
    }

    /// Looks up an LNA-amplified buffer.
    #[must_use]
    pub fn get_analog(&self, key: PrefixKey) -> Option<Arc<Vec<f64>>> {
        self.analog.get(&key)
    }

    /// Stores a freshly amplified buffer, returning the shared handle.
    pub fn insert_analog(&self, key: PrefixKey, v: Vec<f64>) -> Arc<Vec<f64>> {
        efficsense_dsp::approx::debug_assert_all_finite(&v, "prefix: analog artifact");
        self.analog.insert(key, v)
    }

    /// Looks up a clean reference signal.
    #[must_use]
    pub fn get_reference(&self, key: PrefixKey) -> Option<Arc<Vec<f64>>> {
        self.reference.get(&key)
    }

    /// Stores a freshly built reference signal, returning the shared handle.
    pub fn insert_reference(&self, key: PrefixKey, v: Vec<f64>) -> Arc<Vec<f64>> {
        self.reference.insert(key, v)
    }

    /// Looks up a clean-clock CS sampling.
    #[must_use]
    pub fn get_sampled(&self, key: PrefixKey) -> Option<Arc<Vec<f64>>> {
        self.sampled.get(&key)
    }

    /// Stores a freshly built CS sampling, returning the shared handle.
    pub fn insert_sampled(&self, key: PrefixKey, v: Vec<f64>) -> Arc<Vec<f64>> {
        self.sampled.insert(key, v)
    }

    /// Looks up an acquired front-end output.
    #[must_use]
    pub fn get_acquired(&self, key: PrefixKey) -> Option<Arc<AcquiredPrefix>> {
        self.acquired.get(&key)
    }

    /// Stores a freshly acquired front-end output, returning the shared
    /// handle.
    pub fn insert_acquired(&self, key: PrefixKey, v: AcquiredPrefix) -> Arc<AcquiredPrefix> {
        efficsense_dsp::approx::debug_assert_all_finite(
            &v.input_referred,
            "prefix: acquired artifact",
        );
        self.acquired.insert(key, v)
    }

    /// Current counters of every class.
    #[must_use]
    pub fn stats(&self) -> PrefixStats {
        PrefixStats {
            ct: self.ct.stats(),
            analog: self.analog.stats(),
            reference: self.reference.stats(),
            sampled: self.sampled.stats(),
            acquired: self.acquired.stats(),
        }
    }

    /// Zeroes the hit/miss/eviction counters (entries stay cached).
    pub fn reset_stats(&self) {
        self.ct.reset_stats();
        self.analog.reset_stats();
        self.reference.reset_stats();
        self.sampled.reset_stats();
        self.acquired.reset_stats();
    }
}

/// Counters of every artifact class of a [`PrefixStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Resampled CT records.
    pub ct: ClassStats,
    /// LNA-amplified buffers.
    pub analog: ClassStats,
    /// Clean reference signals.
    pub reference: ClassStats,
    /// Clean-clock CS samplings.
    pub sampled: ClassStats,
    /// Acquired front-end outputs.
    pub acquired: ClassStats,
}

impl PrefixStats {
    fn total(&self, field: fn(&ClassStats) -> u64) -> u64 {
        [
            self.ct,
            self.analog,
            self.reference,
            self.sampled,
            self.acquired,
        ]
        .iter()
        .map(field)
        .sum()
    }

    /// Total hits across every class.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.total(|c| c.hits)
    }

    /// Total misses across every class.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.total(|c| c.misses)
    }

    /// Total evictions across every class.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.total(|c| c.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> AnalogParams {
        AnalogParams {
            record_fp: 0xABCD_EF01,
            fs_in: 173.61,
            f_ct: 4300.8,
            gain: 4000.0,
            noise_floor_vrms: 2e-6,
            bandwidth_hz: 768.0,
            k3: 0.01,
            v_clip: 1.0,
            lna_seed: 0xEFF1,
            fault: None,
        }
    }

    // One collision regression per key axis: the 128-bit FNV scheme must
    // separate every axis that can change an artifact bit pattern.

    #[test]
    fn record_axis_separates_keys() {
        let a = record_fingerprint(&[1.0, 2.0, 3.0]);
        let b = record_fingerprint(&[1.0, 2.0, 4.0]);
        assert_ne!(a, b, "sample content must change the fingerprint");
        // Length participates even when the value stream prefix matches.
        assert_ne!(
            record_fingerprint(&[1.0, 2.0]),
            record_fingerprint(&[1.0, 2.0, 0.0])
        );
        assert_ne!(
            ct_key(a, 173.61, 4300.8),
            ct_key(b, 173.61, 4300.8),
            "record axis must separate CT keys"
        );
    }

    #[test]
    fn f_ct_axis_separates_keys() {
        let fp = record_fingerprint(&[0.5; 8]);
        assert_ne!(ct_key(fp, 173.61, 4300.8), ct_key(fp, 173.61, 8601.6));
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                f_ct: 8601.6,
                ..params()
            })
        );
    }

    #[test]
    fn fs_in_axis_separates_keys() {
        let fp = record_fingerprint(&[0.5; 8]);
        assert_ne!(ct_key(fp, 173.61, 4300.8), ct_key(fp, 256.0, 4300.8));
    }

    #[test]
    fn lna_gain_axis_separates_keys() {
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                gain: 2000.0,
                ..params()
            })
        );
    }

    #[test]
    fn lna_noise_axis_separates_keys() {
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                noise_floor_vrms: 4e-6,
                ..params()
            })
        );
    }

    #[test]
    fn lna_k3_axis_separates_keys() {
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                k3: 0.02,
                ..params()
            })
        );
        // The float axes key by bit pattern: -0.0 and 0.0 key apart (a
        // harmless extra miss, never a false hit).
        assert_ne!(
            analog_key(&AnalogParams {
                k3: 0.0,
                ..params()
            }),
            analog_key(&AnalogParams {
                k3: -0.0,
                ..params()
            })
        );
    }

    #[test]
    fn seed_axis_separates_keys() {
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                lna_seed: 0xEFF2,
                ..params()
            })
        );
    }

    #[test]
    fn fault_axis_separates_clean_from_active_and_per_parameter() {
        let rail = LnaRailFault {
            rail_prob: 0.01,
            episode_len: 64,
            v_clip_factor: 0.8,
        };
        let clean = analog_key(&params());
        let faulted = analog_key(&AnalogParams {
            fault: Some((rail, 7)),
            ..params()
        });
        assert_ne!(clean, faulted, "fault vs clean must separate");
        // Fault stream seed and each fault parameter separate too.
        assert_ne!(
            faulted,
            analog_key(&AnalogParams {
                fault: Some((rail, 8)),
                ..params()
            })
        );
        assert_ne!(
            faulted,
            analog_key(&AnalogParams {
                fault: Some((
                    LnaRailFault {
                        v_clip_factor: 0.5,
                        ..rail
                    },
                    7
                )),
                ..params()
            })
        );
    }

    #[test]
    fn reference_key_separates_length_and_rate() {
        let fp = record_fingerprint(&[0.25; 16]);
        let k = reference_key(fp, 173.61, 537.6, 4224);
        assert_ne!(k, reference_key(fp, 173.61, 537.6, 4301));
        assert_ne!(k, reference_key(fp, 173.61, 268.8, 4224));
        assert_ne!(k, reference_key(fp ^ 1, 173.61, 537.6, 4224));
    }

    #[test]
    fn sampled_key_inherits_analog_axes() {
        let a = analog_key(&params());
        let b = analog_key(&AnalogParams {
            noise_floor_vrms: 4e-6,
            ..params()
        });
        assert_ne!(sampled_key(a, 537.6, 4301), sampled_key(b, 537.6, 4301));
        assert_ne!(sampled_key(a, 537.6, 4301), sampled_key(a, 537.6, 4300));
    }

    #[test]
    fn acquired_key_separates_config_plan_record_and_seed() {
        let k = acquired_key("cfg-a", "clean", 1, 173.61, 5);
        assert_ne!(k, acquired_key("cfg-b", "clean", 1, 173.61, 5));
        assert_ne!(k, acquired_key("cfg-a", "plan;seed=1;x", 1, 173.61, 5));
        assert_ne!(k, acquired_key("cfg-a", "clean", 2, 173.61, 5));
        assert_ne!(k, acquired_key("cfg-a", "clean", 1, 173.61, 6));
    }

    #[test]
    fn classes_never_alias_even_on_equal_axes() {
        // A CT key and a reference key over identical field values must
        // differ: the class tag is part of every key.
        let fp = record_fingerprint(&[1.0]);
        let ct = ct_key(fp, 100.0, 200.0);
        let reference = reference_key(fp, 100.0, 200.0, 0);
        assert_ne!(ct, reference);
    }

    #[test]
    fn store_hits_after_insert_and_counts() {
        let store = PrefixStore::new();
        let key = ct_key(1, 100.0, 800.0);
        assert!(store.get_ct(key).is_none());
        let v = store.insert_ct(key, vec![1.0, 2.0]);
        let again = store.get_ct(key).expect("inserted entry must hit");
        assert!(Arc::ptr_eq(&v, &again), "same key must share one instance");
        let s = store.stats().ct;
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.elements, 2);
        store.reset_stats();
        assert_eq!(store.stats().ct.hits, 0);
    }

    #[test]
    fn racing_insert_keeps_established_value() {
        let store = PrefixStore::new();
        let key = ct_key(2, 100.0, 800.0);
        let first = store.insert_ct(key, vec![1.0]);
        let second = store.insert_ct(key, vec![1.0]);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(store.stats().ct.entries, 1);
    }

    #[test]
    fn capped_store_evicts_oldest_first() {
        // Budget 32 elements → 2 per shard; 8-element values force churn.
        let store = PrefixStore::with_budgets(PrefixBudgets {
            ct: 32,
            analog: 32,
            reference: 32,
            sampled: 32,
            acquired: 32,
        });
        let keys: Vec<PrefixKey> = (0..64).map(|i| ct_key(i, 100.0, 800.0)).collect();
        for &k in &keys {
            store.insert_ct(k, vec![0.5; 8]);
        }
        let s = store.stats().ct;
        assert!(s.evictions > 0, "over-budget inserts must evict");
        assert!(
            s.elements <= 16 * 8,
            "held elements must stay near budget (got {})",
            s.elements
        );
        // The newest keys survive; evicted keys miss and can be rebuilt.
        let mut present = 0;
        for &k in &keys {
            if store.get_ct(k).is_some() {
                present += 1;
            }
        }
        assert!(present >= 1, "a capped store must still hold entries");
        assert_eq!(store.stats().ct.entries, present);
    }

    #[test]
    fn oversized_value_still_inserts() {
        let store = PrefixStore::with_budgets(PrefixBudgets {
            ct: 16,
            analog: 16,
            reference: 16,
            sampled: 16,
            acquired: 16,
        });
        let key = ct_key(77, 100.0, 800.0);
        store.insert_ct(key, vec![0.0; 1000]);
        assert!(
            store.get_ct(key).is_some(),
            "a single artifact above budget must still be usable"
        );
    }
}
