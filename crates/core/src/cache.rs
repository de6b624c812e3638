//! Sharded authorization-decision cache.
//!
//! The paper's §8 measurements put the GAA evaluation pass at 5.9 ms — by
//! far the dominant per-request cost. Most requests, though, re-ask a
//! question the engine has already answered: same subject, same object, same
//! operation, same policy. This module memoizes those answers *soundly* by
//! leaning on the PR 3 decision DAG: a compiled policy's
//! [`VarTable`](crate::dag::VarTable) names exactly the condition inputs a
//! decision can depend on (its *support set*), so a caller can prove, before
//! caching anything, that the cache key covers every input the answer was
//! derived from.
//!
//! The contract, enforced cooperatively with the caller:
//!
//! * **Key coverage** — the caller builds keys from the full security
//!   context (subject, object, operation, client address, every request
//!   parameter), which subsumes all [`Stable`](Volatility::Stable) support
//!   inputs.
//! * **Stamp coverage** — volatile-but-versioned inputs (policy generation,
//!   IDS threat-level epoch, group-membership version) form the
//!   [`CacheStamp`]. Any stamp change invalidates the whole cache: one
//!   policy reload or threat transition must never serve a stale decision.
//! * **Uncacheable support** — a policy whose support set contains an input
//!   that is neither context-derived nor stamp-versioned (wall-clock time
//!   windows, request-rate thresholds, anomaly scores, unknown evaluators)
//!   must not be cached at all; [`support_set_cacheable`] makes that call.
//!
//! Entries additionally record the stamp they were inserted under, so a
//! racing insert that straddles an invalidation can never resurface under
//! the new stamp.

use crate::status::GaaStatus;
use gaa_faults::rng::mix;
// Sync primitives come from the gaa-race shim: zero-cost delegation in
// production builds, recorded and deterministically scheduled under the
// model checker (see crates/race).
use gaa_race::sync::{AtomicU64, Mutex};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How a condition input behaves with respect to decision caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volatility {
    /// Fully determined by the security context — already in the cache key.
    Stable,
    /// Volatile, but every change bumps a counter carried in the
    /// [`CacheStamp`] (threat level, group membership).
    StampKeyed,
    /// Neither: caching a decision depending on this input is unsound.
    Uncacheable,
}

/// The invalidation stamp a cache entry is valid under:
/// `[policy_generation, threat_epoch, group_version]`.
///
/// The three counters are kept separate rather than hashed together — a
/// collision in a mixed stamp would silently serve stale decisions.
pub type CacheStamp = [u64; 3];

/// Is a policy whose support set is `triples` safe to cache?
///
/// `triples` is the compiled DAG's support set
/// ([`VarTable::triples`](crate::dag::VarTable::triples)): every registered,
/// non-redirect pre-condition `(type, authority, value)` the decision can
/// read. `classify` maps a `(cond_type, authority)` pair to its
/// [`Volatility`]; the policy is cacheable only when **every** input is
/// `Stable` or `StampKeyed`. Callers must classify conservatively —
/// anything unrecognized is `Uncacheable`.
pub fn support_set_cacheable(
    triples: &[(String, String, String)],
    classify: impl Fn(&str, &str) -> Volatility,
) -> bool {
    triples
        .iter()
        .all(|(cond_type, authority, _)| classify(cond_type, authority) != Volatility::Uncacheable)
}

/// Monotonic statistics counters.
///
/// All accesses use `Relaxed`: the counters publish no other memory — every
/// reader only needs eventual, per-counter-coherent values, and the cache's
/// correctness-critical state (shards, stamp) is fully mutex-ordered.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    invalidations: AtomicU64,
    uncacheable: AtomicU64,
    evictions: AtomicU64,
}

/// One shard: the entry map plus first-insertion order for FIFO eviction.
///
/// Each key is stored once, as an `Arc<str>` shared by the map and the FIFO
/// queue: the cache's memory grows with the number of distinct keys, not
/// twice that.
///
/// `order` may briefly hold keys whose entries were dropped by a
/// stamp-change flush; [`Shard::insert_bounded`] skips such ghosts when
/// evicting, and [`Shard::clear`] drops both structures together.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Arc<str>, (CacheStamp, GaaStatus)>,
    order: VecDeque<Arc<str>>,
}

impl Shard {
    /// Inserts (or updates) `key`, evicting oldest-first-inserted entries
    /// to respect `capacity`. Returns how many entries were evicted.
    fn insert_bounded(
        &mut self,
        key: &str,
        value: (CacheStamp, GaaStatus),
        capacity: usize,
    ) -> u64 {
        if let Some(slot) = self.entries.get_mut(key) {
            // Update in place: size unchanged, FIFO position kept.
            *slot = value;
            return 0;
        }
        let key: Arc<str> = Arc::from(key);
        self.entries.insert(key.clone(), value);
        self.order.push_back(key.clone());
        let mut evicted = 0;
        while self.entries.len() > capacity {
            match self.order.pop_front() {
                Some(old) if old != key => {
                    if self.entries.remove(&old).is_some() {
                        evicted += 1;
                    }
                }
                Some(old) => {
                    // The new key itself is oldest (capacity pressure with
                    // everything else a ghost): evict it and stop.
                    self.entries.remove(&old);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Mutex<Shard>>,
    /// The stamp current entries were written under; `None` until first use.
    stamp: Mutex<Option<CacheStamp>>,
    /// Mixed into shard selection so seeded tests control which keys
    /// collide on a shard (and so failures replay from the seed alone).
    shard_seed: u64,
    /// Per-shard entry capacity (total bound divided across shards).
    shard_capacity: usize,
    counters: Counters,
}

/// Counter snapshot from [`DecisionCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecisionCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to full evaluation.
    pub misses: u64,
    /// Decisions stored.
    pub insertions: u64,
    /// Whole-cache flushes caused by a stamp change.
    pub invalidations: u64,
    /// Decisions evaluated but not stored (volatile support set, residual
    /// obligations, or a `Maybe` outcome).
    pub uncacheable: u64,
    /// Entries dropped oldest-first to respect the configured entry bound.
    pub evictions: u64,
}

/// Sharded, stamp-invalidated map from decision key to [`GaaStatus`].
///
/// Cloning shares the cache; shards bound lock contention under the worker
/// pool. The cache stores only final `Yes`/`No` statuses — `Maybe` answers
/// depend on *which* conditions went unevaluated and are never cached.
///
/// # Examples
///
/// ```rust
/// use gaa_core::{DecisionCache, GaaStatus};
///
/// let cache = DecisionCache::new();
/// let stamp = [1, 0, 0];
/// assert_eq!(cache.lookup(stamp, "alice|/doc|GET"), None);
/// cache.insert(stamp, "alice|/doc|GET", GaaStatus::Yes);
/// assert_eq!(cache.lookup(stamp, "alice|/doc|GET"), Some(GaaStatus::Yes));
///
/// // A policy reload bumps the generation: everything is invalidated.
/// assert_eq!(cache.lookup([2, 0, 0], "alice|/doc|GET"), None);
/// assert_eq!(cache.stats().invalidations, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionCache {
    inner: Arc<Inner>,
}

impl Default for DecisionCache {
    fn default() -> Self {
        DecisionCache::new()
    }
}

impl DecisionCache {
    /// A cache with 16 shards.
    pub fn new() -> Self {
        DecisionCache::with_shards(16)
    }

    /// A cache with `shards` shards (rounded up to at least one).
    pub fn with_shards(shards: usize) -> Self {
        DecisionCache::with_shards_seeded(shards, 0)
    }

    /// A cache with `shards` shards whose shard selection mixes in `seed`.
    ///
    /// Shard placement is fully deterministic either way (`DefaultHasher`
    /// is unkeyed); the seed lets deterministic concurrency tests steer
    /// which keys share a shard, so a printed seed reproduces the exact
    /// same lock contention pattern.
    pub fn with_shards_seeded(shards: usize, seed: u64) -> Self {
        DecisionCache::with_shards_seeded_bounded(shards, seed, DecisionCache::DEFAULT_MAX_ENTRIES)
    }

    /// Default total entry bound (divided across shards). Each entry is a
    /// short key string plus a stamp and status; the default keeps worst
    /// case memory in the low tens of megabytes while staying far above any
    /// plausible working set of distinct (subject, object, operation,
    /// params) tuples.
    pub const DEFAULT_MAX_ENTRIES: usize = 65_536;

    /// A fully configured cache: `shards` shards, seeded placement, and at
    /// most `max_entries` total entries (rounded up so every shard holds at
    /// least one). When the bound is exceeded, each shard evicts its
    /// oldest-first-inserted entries and counts them in
    /// [`DecisionCacheStats::evictions`] — an unbounded cache keyed by
    /// request parameters would otherwise hand an attacker a memory
    /// exhaustion lever (one cache entry per crafted query string).
    pub fn with_shards_seeded_bounded(shards: usize, seed: u64, max_entries: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = (max_entries / shards).max(1);
        DecisionCache {
            inner: Arc::new(Inner {
                shards: (0..shards)
                    .map(|index| Mutex::named(&format!("cache.shard{index}"), Shard::default()))
                    .collect(),
                stamp: Mutex::named("cache.stamp", None),
                shard_seed: seed,
                shard_capacity,
                counters: Counters::default(),
            }),
        }
    }

    /// Total entry capacity (per-shard capacity times shard count).
    pub fn capacity(&self) -> usize {
        self.inner.shard_capacity * self.inner.shards.len()
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let index =
            (mix(hasher.finish() ^ self.inner.shard_seed) as usize) % self.inner.shards.len();
        &self.inner.shards[index]
    }

    /// Flushes everything if `stamp` differs from the stamp current entries
    /// were written under.
    fn ensure_stamp(&self, stamp: CacheStamp) {
        let mut current = self.inner.stamp.lock();
        match *current {
            Some(s) if s == stamp => {}
            other => {
                for shard in &self.inner.shards {
                    shard.lock().clear();
                }
                // (Shard::clear drops the FIFO order alongside the entries,
                // so eviction never chases keys from a previous stamp.)
                if other.is_some() {
                    // ordering: Relaxed — statistics only (see Counters).
                    self.inner
                        .counters
                        .invalidations
                        .fetch_add(1, Ordering::Relaxed);
                }
                *current = Some(stamp);
            }
        }
    }

    /// The cached status for `key` under `stamp`, if any. A stamp change
    /// since the last call flushes the cache first.
    pub fn lookup(&self, stamp: CacheStamp, key: &str) -> Option<GaaStatus> {
        self.ensure_stamp(stamp);
        let found = self
            .shard(key)
            .lock()
            .entries
            .get(key)
            .and_then(|(s, status)| {
                // Entries carry their own stamp so an insert racing an
                // invalidation can never serve a stale answer.
                if *s == stamp {
                    Some(*status)
                } else {
                    None
                }
            });
        match found {
            Some(status) => {
                // ordering: Relaxed — statistics only (see Counters).
                self.inner.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(status)
            }
            None => {
                // ordering: Relaxed — statistics only (see Counters).
                self.inner.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a decision computed under `stamp`, evicting oldest entries
    /// from the target shard if the entry bound would be exceeded.
    pub fn insert(&self, stamp: CacheStamp, key: &str, status: GaaStatus) {
        self.ensure_stamp(stamp);
        let evicted =
            self.shard(key)
                .lock()
                .insert_bounded(key, (stamp, status), self.inner.shard_capacity);
        // ordering: Relaxed — statistics only (see Counters).
        self.inner
            .counters
            .insertions
            .fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            // ordering: Relaxed — statistics only (see Counters).
            self.inner
                .counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Counts a decision the caller evaluated but declined to store.
    pub fn note_uncacheable(&self) {
        // ordering: Relaxed — statistics only (see Counters).
        self.inner
            .counters
            .uncacheable
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().entries.len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DecisionCacheStats {
        let c = &self.inner.counters;
        // ordering: Relaxed — statistics only (see Counters).
        DecisionCacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            insertions: c.insertions.load(Ordering::Relaxed),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            uncacheable: c.uncacheable.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_same_stamp() {
        let cache = DecisionCache::new();
        let stamp = [3, 1, 4];
        assert_eq!(cache.lookup(stamp, "k"), None);
        cache.insert(stamp, "k", GaaStatus::No);
        assert_eq!(cache.lookup(stamp, "k"), Some(GaaStatus::No));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn any_stamp_component_change_flushes() {
        let cache = DecisionCache::new();
        for (i, stamp) in [[1, 0, 0], [2, 0, 0], [2, 1, 0], [2, 1, 7]]
            .into_iter()
            .enumerate()
        {
            cache.insert(stamp, "k", GaaStatus::Yes);
            assert_eq!(cache.lookup(stamp, "k"), Some(GaaStatus::Yes));
            assert_eq!(cache.stats().invalidations, i as u64);
        }
        // A later lookup under an old stamp flushes again rather than
        // serving the newer entry.
        assert_eq!(cache.lookup([1, 0, 0], "k"), None);
    }

    #[test]
    fn entries_remember_their_own_stamp() {
        let cache = DecisionCache::new();
        cache.insert([1, 0, 0], "k", GaaStatus::Yes);
        // Simulates an insert that lost a race with an invalidation: the
        // entry's recorded stamp no longer matches the lookup stamp.
        cache.insert([1, 0, 0], "stale", GaaStatus::Yes);
        assert_eq!(cache.lookup([1, 0, 0], "stale"), Some(GaaStatus::Yes));
        assert_eq!(cache.lookup([2, 0, 0], "stale"), None);
    }

    #[test]
    fn clones_share_entries_and_counters() {
        let a = DecisionCache::new();
        let b = a.clone();
        a.insert([1, 1, 1], "k", GaaStatus::Yes);
        assert_eq!(b.lookup([1, 1, 1], "k"), Some(GaaStatus::Yes));
        assert_eq!(b.stats().hits, 1);
        b.note_uncacheable();
        assert_eq!(a.stats().uncacheable, 1);
    }

    #[test]
    fn support_set_classification() {
        let triples = vec![
            ("accessid".to_string(), "USER".to_string(), "*".to_string()),
            (
                "system_threat_level".to_string(),
                "local".to_string(),
                "high".to_string(),
            ),
        ];
        let classify = |cond_type: &str, _authority: &str| match cond_type {
            "accessid" => Volatility::Stable,
            "system_threat_level" => Volatility::StampKeyed,
            _ => Volatility::Uncacheable,
        };
        assert!(support_set_cacheable(&triples, classify));

        let with_time = {
            let mut t = triples.clone();
            t.push((
                "time_window".to_string(),
                "local".to_string(),
                "9-17".to_string(),
            ));
            t
        };
        assert!(!support_set_cacheable(&with_time, classify));
        assert!(support_set_cacheable(&[], classify));
    }

    #[test]
    fn seeded_shard_selection_is_deterministic_and_seed_sensitive() {
        let keys: Vec<String> = (0..64).map(|i| format!("key-{i}")).collect();
        let placement = |seed: u64| -> Vec<usize> {
            let cache = DecisionCache::with_shards_seeded(4, seed);
            keys.iter()
                .map(|key| {
                    let mut hasher = DefaultHasher::new();
                    key.hash(&mut hasher);
                    (mix(hasher.finish() ^ seed) as usize) % 4
                })
                .inspect(|&index| {
                    // Exercise the real path too: inserting lands on the
                    // shard the formula predicts.
                    cache.insert([1, 1, 1], keys[index % keys.len()].as_str(), GaaStatus::Yes);
                })
                .collect()
        };
        assert_eq!(placement(7), placement(7), "same seed, same shards");
        assert_ne!(placement(7), placement(8), "seed steers placement");
    }

    #[test]
    fn entry_bound_evicts_oldest_first_and_counts() {
        // One shard, capacity 3: deterministic FIFO across all keys.
        let cache = DecisionCache::with_shards_seeded_bounded(1, 0, 3);
        assert_eq!(cache.capacity(), 3);
        let stamp = [1, 0, 0];
        for key in ["a", "b", "c"] {
            cache.insert(stamp, key, GaaStatus::Yes);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 0);

        cache.insert(stamp, "d", GaaStatus::Yes);
        assert_eq!(cache.len(), 3, "bound holds");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.lookup(stamp, "a"), None, "oldest entry evicted");
        assert_eq!(cache.lookup(stamp, "d"), Some(GaaStatus::Yes));

        // Updating an existing key neither grows the cache nor evicts.
        cache.insert(stamp, "d", GaaStatus::No);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.lookup(stamp, "d"), Some(GaaStatus::No));
    }

    #[test]
    fn stamp_flush_resets_eviction_order() {
        let cache = DecisionCache::with_shards_seeded_bounded(1, 0, 2);
        cache.insert([1, 0, 0], "a", GaaStatus::Yes);
        cache.insert([1, 0, 0], "b", GaaStatus::Yes);
        // Stamp change flushes everything; the FIFO queue must flush too,
        // or pre-flush keys would distort post-flush eviction.
        cache.insert([2, 0, 0], "c", GaaStatus::Yes);
        cache.insert([2, 0, 0], "d", GaaStatus::Yes);
        assert_eq!(cache.len(), 2);
        cache.insert([2, 0, 0], "e", GaaStatus::Yes);
        assert_eq!(cache.lookup([2, 0, 0], "c"), None, "c evicted, not a ghost");
        assert_eq!(cache.lookup([2, 0, 0], "d"), Some(GaaStatus::Yes));
        assert_eq!(cache.lookup([2, 0, 0], "e"), Some(GaaStatus::Yes));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn adversarial_key_stream_cannot_exceed_capacity() {
        let cache = DecisionCache::with_shards_seeded_bounded(4, 7, 16);
        for i in 0..500 {
            cache.insert([1, 0, 0], &format!("attacker-key-{i}"), GaaStatus::No);
        }
        assert!(cache.len() <= cache.capacity());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 500);
        assert_eq!(stats.evictions as usize, 500 - cache.len());
    }

    #[test]
    fn single_shard_works() {
        let cache = DecisionCache::with_shards(0); // rounds up to 1
        cache.insert([0, 0, 0], "a", GaaStatus::Yes);
        cache.insert([0, 0, 0], "b", GaaStatus::No);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }
}
