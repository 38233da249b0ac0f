//! Content-addressed evaluation cache for design-space product sweeps.
//!
//! A severity × design-space product run re-evaluates the same `(system
//! configuration, fault plan, seeds, dataset)` combination over and over —
//! across severity-0 cells (every clean plan is the same evaluation), across
//! re-runs of an interrupted overnight sweep, and across figure binaries
//! that share a workload. This module makes those evaluations *content
//! addressed*: a [`PointKey`] is a 128-bit FNV-1a hash over the canonical
//! rendering of everything that determines a [`SweepResult`] bit pattern,
//! and a [`SweepCache`] maps keys to results in an unbounded
//! [`efficsense_obs::Store`] with optional JSON-lines persistence.
//!
//! ## Key canonicalization
//!
//! The key covers, in order:
//!
//! 1. a format version tag (bumping it invalidates every persisted entry);
//! 2. the full [`SystemConfig`] `Debug` rendering — Rust renders floats in
//!    shortest-round-trip form, so distinct bit patterns render distinctly
//!    (`NaN` collapses and `-0.0`/`0.0` render apart; both err towards
//!    *more* cache misses, never towards false hits);
//! 3. the fault plan via [`FaultPlan::canonical_key`] — every clean plan
//!    (including "no plan") canonicalises to `"clean"` because the
//!    simulator drops clean plans before they can perturb anything;
//! 4. a goal descriptor carrying the metric and, for detection, the
//!    detector seed and epoch length;
//! 5. the [`dataset_fingerprint`] — a 64-bit digest of the dataset
//!    configuration and every sample bit, which also pins the per-record
//!    noise seeds (they derive from record ids).
//!
//! The sweep stores every successful evaluation under its key; failed
//! points are quarantined, never cached.

use crate::config::{Architecture, SystemConfig};
use crate::detector::SeizureDetector;
use crate::space::DesignPoint;
use crate::sweep::SweepResult;
use efficsense_faults::FaultPlan;
use efficsense_obs::json::Json;
use efficsense_obs::Store;
use efficsense_power::{PowerBreakdown, Watts};
use efficsense_signals::EegDataset;
use std::io::Write;
use std::sync::{Arc, OnceLock};

/// Hit/miss/occupancy counters of a [`SweepCache`].
pub use efficsense_obs::StoreStats as CacheStats;

/// Bump on any change to the key derivation or the persisted line format;
/// every persisted cache entry from older versions then misses harmlessly.
/// v2: [`FaultPlan::canonical_key`] moved from a `Debug` rendering to a
/// structured `plan;…` encoding.
const KEY_VERSION: &str = "efficsense-pointkey-v2";

// ---------------------------------------------------------------------------
// PointKey
// ---------------------------------------------------------------------------

/// 128-bit content hash identifying one point evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointKey(u128);

impl PointKey {
    /// Lower-case 32-digit hex form (the persisted representation).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the [`PointKey::hex`] form; `None` on malformed input.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Self)
    }
}

/// Incremental FNV-1a-128 hasher over byte strings. Shared with the
/// Level-3 prefix store ([`crate::prefix`]), whose keys use the same
/// length-prefixed field discipline under a disjoint version tag.
pub(crate) struct KeyHasher(u128);

impl KeyHasher {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    pub(crate) fn new() -> Self {
        Self(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Writes a length-prefixed field, so adjacent fields cannot alias by
    /// shifting bytes across the boundary.
    pub(crate) fn field(&mut self, tag: &str, value: &str) {
        self.write(tag.as_bytes());
        self.write(&(value.len() as u64).to_le_bytes());
        self.write(value.as_bytes());
    }

    /// Writes a length-prefixed field holding a raw little-endian `u64`
    /// (seeds, lengths, IEEE-754 bit patterns) without a decimal rendering.
    pub(crate) fn field_u64(&mut self, tag: &str, value: u64) {
        self.write(tag.as_bytes());
        self.write(&8u64.to_le_bytes());
        self.write(&value.to_le_bytes());
    }

    pub(crate) fn digest(self) -> u128 {
        self.0
    }

    fn finish(self) -> PointKey {
        PointKey(self.0)
    }
}

/// Incremental FNV-1a-64, the 64-bit content digest behind
/// [`dataset_fingerprint`] (byte writes) and
/// [`crate::prefix::record_fingerprint`] (word writes).
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Starts from the offset basis salted with `salt` (the record
    /// fingerprint salts it with the record length).
    pub(crate) fn salted(salt: u64) -> Self {
        Self(Self::OFFSET ^ salt.wrapping_mul(Self::PRIME))
    }

    /// FNV-1a proper: one xor-multiply per byte.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_word(u64::from(b));
        }
    }

    /// One xor-multiply for a whole 64-bit word.
    pub(crate) fn write_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }

    pub(crate) fn digest(self) -> u64 {
        self.0
    }
}

/// The sweep-level context a key must capture beyond the per-point
/// configuration and fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalContext {
    /// Canonical goal descriptor from [`goal_descriptor`].
    pub goal: String,
    /// Digest of the evaluation dataset from [`dataset_fingerprint`].
    pub dataset_fingerprint: u64,
}

/// Canonical goal descriptor: `"snr"` for the SNR goal, or
/// `"accuracy/seed=<seed>/epoch=<epoch_s>"` for detection accuracy (the
/// detector seed and epoch length select the trained detector and so the
/// metric values).
#[must_use]
pub fn goal_descriptor(metric: crate::sweep::Metric, detector_seed: u64, epoch_s: f64) -> String {
    match metric {
        crate::sweep::Metric::Snr => "snr".to_string(),
        crate::sweep::Metric::DetectionAccuracy => {
            format!("accuracy/seed={detector_seed}/epoch={epoch_s:?}")
        }
    }
}

/// Derives the content key of one point evaluation.
///
/// `cfg` must be the *instantiated* configuration
/// ([`DesignPoint::to_config`] applied to the sweep template), so every
/// template field — seeds, technology constants, CS imperfection switches —
/// participates in the key. `None` and every clean plan key alike: a
/// severity-0 cell is the same evaluation as the clean chain.
#[must_use]
pub fn point_key(cfg: &SystemConfig, plan: Option<&FaultPlan>, ctx: &EvalContext) -> PointKey {
    let mut h = KeyHasher::new();
    h.field("version", KEY_VERSION);
    h.field("cfg", &format!("{cfg:?}"));
    h.field(
        "plan",
        &plan.map_or_else(|| "clean".to_string(), FaultPlan::canonical_key),
    );
    h.field("goal", &ctx.goal);
    h.field("dataset", &format!("{:016x}", ctx.dataset_fingerprint));
    h.finish()
}

/// 64-bit FNV-1a digest of a dataset: its generation config plus, for every
/// record, the id (which seeds the per-record noise streams), class, rate,
/// and the exact bit pattern of every sample.
#[must_use]
pub fn dataset_fingerprint(dataset: &EegDataset) -> u64 {
    let mut h = Fnv64::new();
    h.write(format!("{:?}", dataset.config).as_bytes());
    for rec in &dataset.records {
        h.write(&(rec.id as u64).to_le_bytes());
        h.write(format!("{:?}", rec.class).as_bytes());
        h.write(&rec.fs.to_bits().to_le_bytes());
        h.write(&(rec.samples.len() as u64).to_le_bytes());
        for s in &rec.samples {
            h.write(&s.to_bits().to_le_bytes());
        }
    }
    h.digest()
}

// ---------------------------------------------------------------------------
// SweepCache
// ---------------------------------------------------------------------------

/// Concurrent `PointKey → SweepResult` store with hit accounting and
/// JSON-lines persistence. Share one instance across sweeps via
/// [`crate::sweep::Sweep::with_cache`].
#[derive(Debug)]
pub struct SweepCache {
    store: Store<PointKey, SweepResult>,
}

impl Default for SweepCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepCache {
    /// An empty cache, counting under `cache.l1.*`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            store: Store::unbounded("cache.l1"),
        }
    }

    /// Looks up a cached result, counting the hit or miss.
    #[must_use]
    pub fn get(&self, key: &PointKey) -> Option<SweepResult> {
        self.store.get(key).map(|r| (*r).clone())
    }

    /// Inserts a result. Evaluation is deterministic per key, so a second
    /// insert under one key carries the value already held and is dropped.
    pub fn insert(&self, key: PointKey, result: SweepResult) {
        self.store.insert(key, result);
    }

    /// Number of cached results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// `true` when no results are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Zeroes the hit/miss counters (entries stay cached).
    pub fn reset_stats(&self) {
        self.store.reset_stats();
    }

    /// Serialises every entry as JSON lines (sorted by key, so the file is
    /// deterministic for a given content set). Entries containing
    /// non-finite floats — impossible via the sweep engine, which rejects
    /// non-finite results — are skipped rather than written as `null`s the
    /// reader would reject.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for (key, result) in self.store.sorted_entries() {
            if let Some(line) = entry_to_json(key, &result) {
                writeln!(w, "{line}")?;
            }
        }
        Ok(())
    }

    /// Parses JSON lines produced by [`SweepCache::write_jsonl`] and merges
    /// them into this cache. Malformed or stale-format lines are skipped,
    /// never fatal — a cache file is an accelerator, not a datastore.
    /// Returns `(loaded, skipped)` line counts.
    pub fn read_jsonl(&self, text: &str) -> (usize, usize) {
        let mut loaded = 0;
        let mut skipped = 0;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match entry_from_json(line) {
                Some((key, result)) => {
                    self.insert(key, result);
                    loaded += 1;
                }
                None => skipped += 1,
            }
        }
        (loaded, skipped)
    }

    /// Writes the cache to `path` (see [`SweepCache::write_jsonl`]).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let _span = efficsense_obs::span!("cache.l1.save");
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)?;
        std::fs::write(path, buf)
    }

    /// Merges entries from the file at `path` into this cache. Returns
    /// `(loaded, skipped)`.
    ///
    /// # Errors
    ///
    /// Propagates the read error when the file cannot be opened; malformed
    /// *content* is skipped, not an error.
    pub fn load(&self, path: &std::path::Path) -> std::io::Result<(usize, usize)> {
        let _span = efficsense_obs::span!("cache.l1.load");
        let text = std::fs::read_to_string(path)?;
        Ok(self.read_jsonl(&text))
    }
}

// ---------------------------------------------------------------------------
// JSONL entry codec
// ---------------------------------------------------------------------------

fn entry_to_json(key: PointKey, r: &SweepResult) -> Option<String> {
    let p = &r.point;
    let watts = r.breakdown.iter().map(|(_, w)| w.value());
    let finite = [p.lna_noise_vrms, r.metric, r.power_w, r.area_units]
        .into_iter()
        .chain(p.c_hold_f)
        .chain(watts)
        .all(f64::is_finite);
    if !finite {
        return None;
    }
    let breakdown = r
        .breakdown
        .iter()
        .map(|(k, w)| Json::Arr(vec![crate::report::block_slug(k).into(), w.value().into()]))
        .collect();
    let entry = Json::obj([
        ("key", key.hex().into()),
        ("architecture", p.architecture.to_string().into()),
        ("lna_noise_vrms", p.lna_noise_vrms.into()),
        ("n_bits", p.n_bits.into()),
        ("m", p.m.into()),
        ("s", p.s.into()),
        ("c_hold_f", p.c_hold_f.into()),
        ("metric", r.metric.into()),
        ("power_w", r.power_w.into()),
        ("area_units", r.area_units.into()),
        ("breakdown", breakdown),
    ]);
    Some(entry.to_string())
}

fn entry_from_json(line: &str) -> Option<(PointKey, SweepResult)> {
    let v = Json::parse(line)?;
    let get = |name: &str| v.get(name);
    let key = PointKey::from_hex(get("key")?.as_str()?)?;
    let architecture = match get("architecture")?.as_str()? {
        "baseline" => Architecture::Baseline,
        "cs" => Architecture::CompressiveSensing,
        _ => return None,
    };
    let finite = |v: f64| if v.is_finite() { Some(v) } else { None };
    let as_usize = |v: &Json| -> Option<usize> {
        let f = v.as_f64()?;
        if f.fract().abs() < f64::EPSILON && (0.0..9.0e15).contains(&f) {
            Some(f as usize)
        } else {
            None
        }
    };
    let point = DesignPoint {
        architecture,
        lna_noise_vrms: finite(get("lna_noise_vrms")?.as_f64()?)?,
        n_bits: as_usize(get("n_bits")?)? as u32,
        m: match get("m")? {
            Json::Null => None,
            v => Some(as_usize(v)?),
        },
        s: match get("s")? {
            Json::Null => None,
            v => Some(as_usize(v)?),
        },
        c_hold_f: match get("c_hold_f")? {
            Json::Null => None,
            v => Some(finite(v.as_f64()?)?),
        },
    };
    // Breakdown entries re-add in persisted (insertion) order, preserving
    // the `PowerBreakdown` equality contract, which is order-sensitive.
    let mut breakdown = PowerBreakdown::new();
    for pair in get("breakdown")?.as_arr()? {
        let pair = pair.as_arr()?;
        if pair.len() != 2 {
            return None;
        }
        let kind = crate::report::block_from_slug(pair[0].as_str()?)?;
        let w = finite(pair[1].as_f64()?)?;
        if w < 0.0 {
            return None;
        }
        breakdown.add(kind, Watts(w));
    }
    Some((
        key,
        SweepResult {
            point,
            metric: finite(get("metric")?.as_f64()?)?,
            power_w: finite(get("power_w")?.as_f64()?)?,
            breakdown,
            area_units: finite(get("area_units")?.as_f64()?)?,
        },
    ))
}

// ---------------------------------------------------------------------------
// Trained-detector memoization
// ---------------------------------------------------------------------------

/// Memoized detector training: one shared [`SeizureDetector`] per
/// `(dataset fingerprint, sample rate, epoch length, seed)`. Training is
/// deterministic in that key, so the memoized detector is bit-identical to
/// a freshly trained one.
///
/// Each product-sweep cell calls [`crate::sweep::Sweep::run_report`], which
/// used to retrain the same detector per cell; memoizing it here is what
/// lets a *warm* product sweep skip straight to cache lookups.
///
/// # Panics
///
/// Panics when the dataset is empty or `epoch_s` is not positive (as
/// [`SeizureDetector::train_epoched`] does).
#[must_use]
pub fn trained_detector(
    dataset: &EegDataset,
    fs: f64,
    epoch_s: f64,
    seed: u64,
) -> Arc<SeizureDetector> {
    static STORE: OnceLock<Store<(u64, u64, u64, u64), SeizureDetector>> = OnceLock::new();
    let key = (
        dataset_fingerprint(dataset),
        fs.to_bits(),
        epoch_s.to_bits(),
        seed,
    );
    // Trains under the shard lock: callers racing on the same key would
    // otherwise duplicate minutes of training work.
    let store = STORE.get_or_init(|| Store::unbounded("memo.detector"));
    store.get_or_insert_with(key, || {
        let _train_span = efficsense_obs::span!("detect.train");
        SeizureDetector::train_epoched(dataset, fs, epoch_s, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CsConfig;
    use crate::sweep::Metric;
    use efficsense_faults::FaultKind;
    use efficsense_power::BlockKind;
    use efficsense_signals::DatasetConfig;

    fn ctx() -> EvalContext {
        EvalContext {
            goal: goal_descriptor(Metric::Snr, 0, 2.0),
            dataset_fingerprint: 0xDA7A_F00D,
        }
    }

    fn sample_result() -> SweepResult {
        // Breakdown deliberately in non-display insertion order: the
        // persistence cycle must preserve it for order-sensitive equality.
        let mut b = PowerBreakdown::new();
        b.add(BlockKind::Transmitter, Watts(4.3e-6));
        b.add(BlockKind::Lna, Watts(1e-6));
        SweepResult {
            point: DesignPoint {
                architecture: Architecture::CompressiveSensing,
                lna_noise_vrms: 3.61e-6,
                n_bits: 8,
                m: Some(75),
                s: Some(2),
                c_hold_f: Some(0.5e-12),
            },
            metric: 0.9933,
            power_w: 5.3e-6,
            breakdown: b,
            area_units: 75000.0,
        }
    }

    #[test]
    fn hex_roundtrip() {
        let k = point_key(&SystemConfig::baseline(8), None, &ctx());
        assert_eq!(PointKey::from_hex(&k.hex()), Some(k));
        assert_eq!(PointKey::from_hex("zz"), None);
        assert_eq!(PointKey::from_hex(&"0".repeat(33)), None);
    }

    #[test]
    fn point_key_bytes_are_pinned() {
        // Golden keys: persisted L1 files are keyed by these bytes, so a
        // refactor of the key derivation must reproduce them exactly.
        let clean = point_key(&SystemConfig::baseline(8), None, &ctx());
        let active = point_key(
            &SystemConfig::compressive(8, CsConfig::default()),
            Some(&FaultPlan::single(FaultKind::CapLeakage, 0.5, 3)),
            &ctx(),
        );
        assert_eq!(clean.hex(), "7172168f48ca94a35ac0ed6a5f060e7f");
        assert_eq!(active.hex(), "8f597935c80df6b27fbfb82cdf88fdaa");
    }

    #[test]
    fn key_is_deterministic() {
        let cfg = SystemConfig::compressive(8, CsConfig::default());
        let plan = FaultPlan::single(FaultKind::CapLeakage, 0.5, 3);
        assert_eq!(
            point_key(&cfg, Some(&plan), &ctx()),
            point_key(&cfg.clone(), Some(&plan.clone()), &ctx())
        );
    }

    #[test]
    fn key_separates_every_config_axis() {
        let base = SystemConfig::compressive(8, CsConfig::default());
        let k0 = point_key(&base, None, &ctx());
        let mutations: Vec<SystemConfig> = vec![
            {
                let mut c = base.clone();
                c.seed ^= 1;
                c
            },
            {
                let mut c = base.clone();
                c.design.n_bits = 7;
                c
            },
            {
                let mut c = base.clone();
                c.lna.noise_floor_vrms *= 1.0 + 1e-12;
                c
            },
            {
                let mut c = base.clone();
                if let Some(cs) = &mut c.cs {
                    cs.m -= 1;
                }
                c
            },
            {
                let mut c = base.clone();
                if let Some(cs) = &mut c.cs {
                    cs.s += 1;
                }
                c
            },
            {
                let mut c = base.clone();
                if let Some(cs) = &mut c.cs {
                    cs.c_hold_f *= 1.0 + 1e-12;
                }
                c
            },
            SystemConfig::baseline(8),
        ];
        for (i, m) in mutations.iter().enumerate() {
            assert_ne!(
                point_key(m, None, &ctx()),
                k0,
                "mutation {i} must change the key"
            );
        }
    }

    #[test]
    fn key_separates_fault_plans_but_collapses_clean_ones() {
        let cfg = SystemConfig::baseline(8);
        let c = ctx();
        let none = point_key(&cfg, None, &c);
        // Clean plans alias "no plan" — the simulator drops them.
        assert_eq!(point_key(&cfg, Some(&FaultPlan::clean(7)), &c), none);
        assert_eq!(
            point_key(
                &cfg,
                Some(&FaultPlan::single(FaultKind::LnaRail, 0.0, 9)),
                &c
            ),
            none
        );
        // Active plans separate by kind, severity and seed.
        let by = |kind, sev, seed| point_key(&cfg, Some(&FaultPlan::single(kind, sev, seed)), &c);
        // Severity separation uses CapLeakage: its mapping is continuous,
        // while e.g. AdcStuckBit quantises severity to a bit index (0.5 and
        // 0.6 pick the same stuck bit and *should* share a key).
        let a = by(FaultKind::CapLeakage, 0.5, 1);
        assert_ne!(a, none);
        assert_ne!(a, by(FaultKind::CapLeakage, 0.6, 1));
        assert_ne!(a, by(FaultKind::CapLeakage, 0.5, 2));
        assert_ne!(a, by(FaultKind::ClockJitter, 0.5, 1));
    }

    #[test]
    fn key_separates_goal_and_dataset() {
        let cfg = SystemConfig::baseline(8);
        let c0 = ctx();
        let goal2 = EvalContext {
            goal: goal_descriptor(Metric::DetectionAccuracy, 0xD0D0, 2.0),
            ..c0.clone()
        };
        let seed2 = EvalContext {
            goal: goal_descriptor(Metric::DetectionAccuracy, 0xD0D1, 2.0),
            ..c0.clone()
        };
        let epoch2 = EvalContext {
            goal: goal_descriptor(Metric::DetectionAccuracy, 0xD0D0, 0.0),
            ..c0.clone()
        };
        let data2 = EvalContext {
            dataset_fingerprint: c0.dataset_fingerprint ^ 1,
            ..c0.clone()
        };
        let k0 = point_key(&cfg, None, &c0);
        for (what, c) in [
            ("metric", goal2.clone()),
            ("detector seed", seed2),
            ("epoch", epoch2),
            ("dataset", data2),
        ] {
            assert_ne!(point_key(&cfg, None, &c), k0, "{what} must change the key");
        }
        assert_ne!(
            goal_descriptor(Metric::DetectionAccuracy, 0xD0D0, 2.0),
            goal_descriptor(Metric::DetectionAccuracy, 0xD0D0, 0.0)
        );
    }

    #[test]
    fn dataset_fingerprint_tracks_content() {
        let cfg = DatasetConfig {
            records_per_class: 1,
            duration_s: 1.0,
            ..Default::default()
        };
        let a = EegDataset::generate(&cfg);
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&a.clone()));
        let b = EegDataset::generate(&DatasetConfig {
            seed: cfg.seed ^ 1,
            ..cfg.clone()
        });
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        let mut c = a.clone();
        c.records[0].samples[0] += 1e-15;
        assert_ne!(
            dataset_fingerprint(&a),
            dataset_fingerprint(&c),
            "a single sample bit flip must change the fingerprint"
        );
    }

    #[test]
    fn fnv64_digests_match_golden_values() {
        // Persisted L1 keys embed the dataset digest and L3 shard choice
        // follows the record digest, so both must never drift. The dataset
        // digest also covers `DatasetConfig::default()`'s rendering.
        let samples = [0.0, -1.5e-6, 2.25e-5, f64::MIN_POSITIVE, 1.0];
        let dataset = EegDataset {
            records: vec![efficsense_signals::Record {
                id: 7,
                class: efficsense_signals::EegClass::Seizure,
                samples: samples.to_vec(),
                fs: 173.61,
            }],
            config: DatasetConfig::default(),
        };
        assert_eq!(dataset_fingerprint(&dataset), 0x73ca_e67b_6adf_8e2c);
        assert_eq!(
            crate::prefix::record_fingerprint(&samples),
            0x81b9_8b30_6a7b_95ab
        );
        assert_eq!(
            crate::prefix::record_fingerprint(&[]),
            0xcbf2_9ce4_8422_2325
        );
    }

    #[test]
    fn cache_get_insert_and_stats() {
        let cache = SweepCache::new();
        let key = point_key(&SystemConfig::baseline(8), None, &ctx());
        assert!(cache.get(&key).is_none());
        cache.insert(key, sample_result());
        assert_eq!(cache.get(&key), Some(sample_result()));
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        cache.reset_stats();
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn jsonl_roundtrip_is_bit_identical() {
        let cache = SweepCache::new();
        let k1 = point_key(&SystemConfig::baseline(8), None, &ctx());
        let k2 = point_key(&SystemConfig::baseline(7), None, &ctx());
        let mut second = sample_result();
        second.point.architecture = Architecture::Baseline;
        second.point.m = None;
        second.point.s = None;
        second.point.c_hold_f = None;
        second.metric = -12.75;
        cache.insert(k1, sample_result());
        cache.insert(k2, second);
        let mut buf = Vec::new();
        cache.write_jsonl(&mut buf).expect("write to vec");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        let reloaded = SweepCache::new();
        let (loaded, skipped) = reloaded.read_jsonl(&text);
        assert_eq!((loaded, skipped), (2, 0));
        // Bit-identical including breakdown insertion order.
        assert_eq!(reloaded.get(&k1), cache.get(&k1));
        assert_eq!(reloaded.get(&k2), cache.get(&k2));
        // And a second serialisation is byte-identical (deterministic file).
        let mut buf2 = Vec::new();
        reloaded.write_jsonl(&mut buf2).expect("write to vec");
        assert_eq!(text, String::from_utf8(buf2).expect("utf8"));
    }

    #[test]
    fn jsonl_line_bytes_are_pinned() {
        // Golden bytes: any writer refactor must reproduce the persisted
        // L1 format exactly, so existing cache files stay readable.
        let cache = SweepCache::new();
        let key = PointKey::from_hex("00112233445566778899aabbccddeeff").expect("valid hex");
        cache.insert(key, sample_result());
        let mut buf = Vec::new();
        cache.write_jsonl(&mut buf).expect("write to vec");
        assert_eq!(
            String::from_utf8(buf).expect("utf8"),
            concat!(
                r#"{"key":"00112233445566778899aabbccddeeff","architecture":"cs","#,
                r#""lna_noise_vrms":3.61e-6,"n_bits":8,"m":75,"s":2,"c_hold_f":5e-13,"#,
                r#""metric":0.9933,"power_w":5.3e-6,"area_units":75000.0,"#,
                r#""breakdown":[["tx",4.3e-6],["lna",1e-6]]}"#,
                "\n"
            )
        );
    }

    #[test]
    fn non_finite_entries_are_skipped_on_write() {
        let nan_metric = SweepResult {
            metric: f64::NAN,
            ..sample_result()
        };
        let mut inf_c_hold = sample_result();
        inf_c_hold.point.c_hold_f = Some(f64::INFINITY);
        let mut nan_noise = sample_result();
        nan_noise.point.lna_noise_vrms = f64::NAN;
        let cache = SweepCache::new();
        for (bits, r) in [(6, nan_metric), (7, inf_c_hold), (8, nan_noise)] {
            cache.insert(point_key(&SystemConfig::baseline(bits), None, &ctx()), r);
        }
        let mut buf = Vec::new();
        cache.write_jsonl(&mut buf).expect("write to vec");
        assert!(buf.is_empty(), "{}", String::from_utf8_lossy(&buf));
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let cache = SweepCache::new();
        let good = {
            let c = SweepCache::new();
            c.insert(
                point_key(&SystemConfig::baseline(8), None, &ctx()),
                sample_result(),
            );
            let mut buf = Vec::new();
            c.write_jsonl(&mut buf).expect("write to vec");
            String::from_utf8(buf).expect("utf8")
        };
        let text = format!(
            "not json\n{{\"key\":\"zz\"}}\n{good}\n{{\"key\":\"{}\",\"architecture\":\"martian\"}}\n",
            "0".repeat(32)
        );
        let (loaded, skipped) = cache.read_jsonl(&text);
        assert_eq!(loaded, 1);
        assert_eq!(skipped, 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn save_and_load_roundtrip_via_file() {
        let cache = SweepCache::new();
        let key = point_key(&SystemConfig::baseline(8), None, &ctx());
        cache.insert(key, sample_result());
        let path = std::env::temp_dir().join(format!(
            "efficsense_cache_test_{}.jsonl",
            std::process::id()
        ));
        cache.save(&path).expect("save cache file");
        let fresh = SweepCache::new();
        let (loaded, skipped) = fresh.load(&path).expect("load cache file");
        std::fs::remove_file(&path).ok();
        assert_eq!((loaded, skipped), (1, 0));
        assert_eq!(fresh.get(&key), Some(sample_result()));
    }

    #[test]
    fn detector_memo_shares_and_separates() {
        let dataset = EegDataset::generate(&DatasetConfig {
            records_per_class: 1,
            duration_s: 2.0,
            ..Default::default()
        });
        let fs = 537.6;
        let a = trained_detector(&dataset, fs, 2.0, 0xD0D0);
        let b = trained_detector(&dataset, fs, 2.0, 0xD0D0);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one detector");
        let c = trained_detector(&dataset, fs, 2.0, 0xD0D1);
        assert!(!Arc::ptr_eq(&a, &c), "seed must separate detectors");
        // Memoized training is bit-identical to fresh training.
        let fresh = SeizureDetector::train_epoched(&dataset, fs, 2.0, 0xD0D0);
        assert_eq!(format!("{a:?}"), format!("{fresh:?}"));
    }
}
