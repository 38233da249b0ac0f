//! The one content-addressed store behind every evaluation cache: the L1
//! result cache, the L2 sensing/decoder memo, the detector memo and the
//! five L3 prefix classes are all [`Store`] instances.
//!
//! Every cached value is derived deterministically from its key, so a
//! store changes what a lookup costs, never what it returns. Each store
//! counts `<namespace>.{hit,miss,evict}` on the [`global`] registry as well
//! as in its own [`StoreStats`].
//!
//! [`global`]: crate::global

use crate::Counter;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Independently locked shards per store (bounds worker contention).
const SHARDS: usize = 16;

/// Budget of a store that never evicts.
const UNBOUNDED: usize = usize::MAX;

/// Hit/miss/eviction/occupancy counters of one [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that fell through to a fresh build.
    pub misses: u64,
    /// Entries dropped by the budget.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Budget elements currently held (the cost function summed over the
    /// entries).
    pub elements: usize,
}

impl StoreStats {
    /// Fraction of lookups served from the store (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Picks a key's shard. The derived `Hash` of a 128-bit content key
/// (`PointKey`, `PrefixKey`) is a single `write_u128`, which is already a
/// uniform hash: it is kept as is, so the key's low bits pick the shard.
/// Any other key (the memo's tuples) goes through std's `DefaultHasher`.
#[derive(Default)]
struct ShardHasher {
    std: DefaultHasher,
    content: Option<u64>,
}

impl Hasher for ShardHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.std.write(bytes);
    }

    fn write_u128(&mut self, v: u128) {
        self.content = Some(v as u64);
    }

    fn finish(&self) -> u64 {
        self.content.unwrap_or_else(|| self.std.finish())
    }
}

struct Shard<K, V> {
    /// `key → (insertion stamp, value)`; the stamp orders eviction.
    map: HashMap<K, (u64, Arc<V>)>,
    next_stamp: u64,
    elements: usize,
}

/// A sharded `key → Arc<value>` map with an element budget split evenly
/// over its shards: an insert that takes a shard over its share evicts
/// that shard's oldest entries, never the one just inserted (so a value
/// larger than the share still inserts, overshooting by itself).
pub struct Store<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_budget: usize,
    cost: fn(&V) -> usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    obs_hits: Arc<Counter>,
    obs_misses: Arc<Counter>,
    obs_evictions: Arc<Counter>,
}

impl<K, V> std::fmt::Debug for Store<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("stats", &self.stats())
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking builder poisons the lock before it touches the map, so
    // the data behind a poisoned guard is still consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K, V> Store<K, V> {
    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let (mut entries, mut elements) = (0, 0);
        for s in &self.shards {
            let s = lock(s);
            entries += s.map.len();
            elements += s.elements;
        }
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            // relaxed: statistics counter read for a monitoring snapshot.
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            elements,
        }
    }

    /// Zeroes the hit/miss/eviction counters (entries stay held).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        // relaxed: statistics counter; no data is published through it.
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = lock(s);
            s.map.clear();
            s.elements = 0;
        }
        self.reset_stats();
    }
}

impl<K: Hash + Eq + Clone, V> Store<K, V> {
    /// A store counting under `namespace` with a total element `budget`,
    /// where `cost` sizes one value in budget elements.
    #[must_use]
    pub fn new(namespace: &str, budget: usize, cost: fn(&V) -> usize) -> Self {
        let obs = crate::global();
        Self {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        next_stamp: 0,
                        elements: 0,
                    })
                })
                .collect(),
            shard_budget: (budget / SHARDS).max(1),
            cost,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            obs_hits: obs.counter(&format!("{namespace}.hit")),
            obs_misses: obs.counter(&format!("{namespace}.miss")),
            obs_evictions: obs.counter(&format!("{namespace}.evict")),
        }
    }

    /// A store that never evicts; each entry costs one element.
    #[must_use]
    pub fn unbounded(namespace: &str) -> Self {
        Self::new(namespace, UNBOUNDED, |_| 1)
    }

    fn shard(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = ShardHasher::default();
        key.hash(&mut h);
        lock(&self.shards[(h.finish() as usize) % SHARDS])
    }

    /// Counts a lookup's outcome and passes it through.
    fn counted(&self, held: Option<Arc<V>>) -> Option<Arc<V>> {
        if held.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs_hits.incr();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.obs_misses.incr();
        }
        held
    }

    /// Looks the key up, counting the hit or miss.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let held = self.shard(key).held(key);
        self.counted(held)
    }

    /// Inserts a value built outside the store, returning the shared
    /// handle. If a racing worker inserted the key first, its (identical,
    /// by construction) value is kept and returned, so sharing stays
    /// maximal. With [`Store::get`], this is the path for values whose
    /// build can fail or runs too long to hold a shard lock (the L1 result
    /// cache).
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        let shard = self.shard(&key);
        let held = shard.held(&key);
        held.unwrap_or_else(|| self.admit(shard, key, value))
    }

    /// Returns the held value, or builds, inserts and returns it, counting
    /// the hit or miss. The build runs under the shard lock, which
    /// serialises builders racing on the shard but builds each key exactly
    /// once, so the counts do not depend on the worker count: the path of
    /// every memo and L3 class.
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let shard = self.shard(&key);
        let held = self.counted(shard.held(&key));
        held.unwrap_or_else(|| self.admit(shard, key, build()))
    }

    fn admit(&self, mut shard: MutexGuard<'_, Shard<K, V>>, key: K, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let stamp = shard.next_stamp;
        shard.next_stamp += 1;
        shard.elements += (self.cost)(&value);
        shard.map.insert(key, (stamp, Arc::clone(&value)));
        if shard.elements > self.shard_budget {
            let mut oldest: Vec<(u64, K)> = shard
                .map
                .iter()
                .filter(|(_, (s, _))| *s != stamp)
                .map(|(k, (s, _))| (*s, k.clone()))
                .collect();
            oldest.sort_unstable_by_key(|&(s, _)| s);
            let mut evicted = 0;
            for (_, k) in oldest {
                if shard.elements <= self.shard_budget {
                    break;
                }
                if let Some((_, v)) = shard.map.remove(&k) {
                    shard.elements = shard.elements.saturating_sub((self.cost)(&v));
                    evicted += 1;
                }
            }
            drop(shard);
            // relaxed: monotone statistics counter, read only for reporting.
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.obs_evictions.add(evicted);
        }
        value
    }

    /// Every held entry, sorted by key, so anything rendered from it is
    /// deterministic for a given content set.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<(K, Arc<V>)>
    where
        K: Ord,
    {
        let mut out = Vec::new();
        for s in &self.shards {
            let s = lock(s);
            out.extend(s.map.iter().map(|(k, (_, v))| (k.clone(), Arc::clone(v))));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl<K: Hash + Eq, V> Shard<K, V> {
    fn held(&self, key: &K) -> Option<Arc<V>> {
        self.map.get(key).map(|(_, v)| Arc::clone(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 128-bit content key, hashed the way `PointKey`/`PrefixKey` are.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Key(u128);

    #[test]
    fn content_keys_shard_by_their_low_bits() {
        for k in [0u128, 5, 17, (7 << 100) | 3, u128::MAX] {
            let mut h = ShardHasher::default();
            Key(k).hash(&mut h);
            assert_eq!((h.finish() as usize) % SHARDS, (k as usize) % SHARDS);
        }
    }

    #[test]
    fn get_or_insert_with_builds_each_key_once() {
        let s: Store<(u64, u64), u64> = Store::unbounded("test.memo");
        let build_count = AtomicU64::new(0);
        let build = || {
            build_count.fetch_add(1, Ordering::Relaxed);
            42
        };
        // Every worker's first call races on the one key.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..100 {
                        assert_eq!(*s.get_or_insert_with((1, 2), build), 42);
                    }
                });
            }
        });
        assert_eq!(build_count.load(Ordering::Relaxed), 1);
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.entries), (399, 1, 1));
    }

    #[test]
    fn racing_insert_keeps_established_value() {
        let s: Store<Key, Vec<f64>> = Store::new("test.store", 64, Vec::len);
        let first = s.insert(Key(2), vec![1.0]);
        let second = s.insert(Key(2), vec![2.0]);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*second, vec![1.0]);
        assert_eq!(s.stats().entries, 1);
    }

    #[test]
    fn budget_evicts_oldest_first_but_never_the_new_entry() {
        // 64 elements over 16 shards: a shard holds two 2-element values,
        // and every key below lands in shard 0.
        let s: Store<Key, Vec<f64>> = Store::new("test.store", 64, Vec::len);
        for i in 0..4 {
            s.insert(Key(i * 16), vec![0.5; 2]);
        }
        let st = s.stats();
        assert_eq!((st.evictions, st.entries, st.elements), (2, 2, 4));
        assert!(s.get(&Key(0)).is_none() && s.get(&Key(16)).is_none());
        assert!(s.get(&Key(32)).is_some() && s.get(&Key(48)).is_some());
        // A value above the whole shard budget still inserts, alone.
        s.insert(Key(64), vec![0.0; 100]);
        let st = s.stats();
        assert_eq!((st.evictions, st.entries, st.elements), (4, 1, 100));
        s.clear();
        assert_eq!(s.stats(), StoreStats::default());
    }
}
