//! Sharded LRU result cache keyed on canonical preferences, tagged with dataset epochs.
//!
//! Thousands of users sharing the exact same preference is the normal case in the paper's
//! workload (nominal values — and hence stated preferences — follow a Zipfian skew), so the
//! service memoizes full query answers. Keys are [`skyline_core::CanonicalPreference`]s: two
//! textually different but semantically equal preferences hit the same entry.
//!
//! Every entry carries the epoch tag it was computed at — the service uses the vector of its
//! shards' skyline epochs ([`skyline::SkylineEngine::skyline_epoch`]); the cache is generic
//! over the tag. A lookup passes the *current* tag; an entry from another tag is stale,
//! counts as a miss and is dropped on the spot. A write that changes some shard's template
//! skyline therefore invalidates every cached result **atomically** (the tag moved, so no
//! stale entry can ever be returned) without flushing anything — stale entries expire
//! lazily, one by one, exactly when they are next touched or evicted by capacity. A write
//! that leaves every template skyline unchanged changes no answer and keeps every entry.
//!
//! Staleness has one reprieve: when only generation swaps (id renumberings, not template
//! skyline changes) separate an entry from the lookup, [`ResultCache::get_or_salvage`] lets the
//! caller rewrite the entry into the current id space instead of dropping it —
//! [`translate_through_chain`] composes an engine's bounded [`GenerationRemap`] chain, so
//! even several back-to-back rebuilds keep the cache warm. Entries that fell off the bounded
//! chain are unrecoverable and counted in [`ResultCache::remap_misses`].
//!
//! The cache is split into independently locked shards so concurrent workers rarely contend;
//! a key's shard is chosen from its stable fingerprint. Each shard runs the classic
//! stamp-queue LRU: every touch pushes a fresh `(stamp, key)` pair onto a queue, and eviction
//! pops queue entries until one's stamp matches the live entry — amortized O(1), no linked
//! lists, no unsafe.

use skyline::GenerationRemap;
use skyline_core::{CanonicalPreference, DatasetEpoch, PointId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A poisoned shard lock is recovered, not propagated: the only caller-supplied code that
/// runs under it is the salvage callback, which executes *before* the entry is touched, so
/// a panic there (or anywhere else on a thread that happens to hold the lock) can at worst
/// leave a dangling recency pair in the queue — a state the stamp-checked eviction already
/// tolerates by design.
fn lock_shard<E, V>(shard: &Mutex<Shard<E, V>>) -> MutexGuard<'_, Shard<E, V>> {
    shard.lock().unwrap_or_else(|poisoned| {
        shard.clear_poison();
        poisoned.into_inner()
    })
}

/// A sharded, thread-safe LRU cache from canonical preferences to epoch-tagged values.
///
/// Generic over the epoch tag `E` (the service's `Arc<[DatasetEpoch]>` shard-epoch vector) and
/// the cached value `V`.
#[derive(Debug)]
pub struct ResultCache<E, V> {
    shards: Vec<Mutex<Shard<E, V>>>,
    capacity_per_shard: usize,
    /// Entries dropped because their epoch no longer matched the engine's (lazy expiry).
    stale_evictions: AtomicU64,
    /// The subset of stale drops that were *unrecoverable remap misses*: the entry was only
    /// generation swaps behind, but the swaps it needed had already fallen off the engine's
    /// bounded remap chain.
    remap_misses: AtomicU64,
}

#[derive(Debug)]
struct Shard<E, V> {
    map: HashMap<CanonicalPreference, Entry<E, V>>,
    /// `(stamp, key)` pairs, oldest first; an entry is stale when its stamp no longer matches
    /// the map entry's current stamp (the key was touched again later).
    queue: VecDeque<(u64, CanonicalPreference)>,
    next_stamp: u64,
}

impl<E, V> Default for Shard<E, V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            queue: VecDeque::new(),
            next_stamp: 0,
        }
    }
}

impl<E, V> Shard<E, V> {
    fn bump_stamp(&mut self) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    /// Drops dead queue pairs once they outnumber live entries: a hit-heavy workload pushes
    /// a recency pair per touch without evicting, so the queue must be compacted on a size
    /// trigger (amortized O(1) per touch) to stay proportional to the map.
    fn compact_if_bloated(&mut self) {
        if self.queue.len() > 2 * self.map.len() + 16 {
            let map = &self.map;
            self.queue
                .retain(|(stamp, key)| map.get(key).is_some_and(|e| e.stamp == *stamp));
        }
    }
}

#[derive(Debug)]
struct Entry<E, V> {
    value: Arc<V>,
    stamp: u64,
    /// The epoch tag the value was computed at.
    epoch: E,
}

/// What a [`ResultCache::get_or_salvage`] callback decided about an entry whose epoch tag no
/// longer matches the lookup's.
pub enum Salvage<V> {
    /// The entry is semantically still correct and has been rewritten into the current id
    /// space; cache the rewritten value re-tagged at the lookup epoch and return it.
    Translated(V),
    /// The entry predates real mutations and must expire (counted as a stale eviction).
    Stale,
    /// The entry was only generation swaps behind but the translations it needed are no
    /// longer available — expire it and additionally count a [`ResultCache::remap_misses`].
    RemapMiss,
}

impl<E: PartialEq + Clone, V> ResultCache<E, V> {
    /// Creates a cache holding at most `capacity` entries spread over `shards` locks.
    ///
    /// A `capacity` of 0 disables caching (every lookup misses, inserts are dropped); `shards`
    /// is clamped to at least 1 and at most `capacity.max(1)`. When `capacity` is not a
    /// multiple of the shard count, the per-shard budget rounds **up**, so the effective
    /// maximum — reported by [`ResultCache::capacity`] — can exceed the request by up to
    /// `shards - 1` entries.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.clamp(1, capacity.max(1));
        let capacity_per_shard = capacity.div_ceil(shard_count);
        Self {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity_per_shard,
            stale_evictions: AtomicU64::new(0),
            remap_misses: AtomicU64::new(0),
        }
    }

    /// Entries dropped so far because their epoch no longer matched the lookup's.
    pub fn stale_evictions(&self) -> u64 {
        self.stale_evictions.load(Ordering::Relaxed)
    }

    /// The subset of [`ResultCache::stale_evictions`] that were unrecoverable remap misses:
    /// entries that were only generation swaps behind the lookup but whose translations had
    /// already fallen off the engine's bounded remap chain.
    pub fn remap_misses(&self) -> u64 {
        self.remap_misses.load(Ordering::Relaxed)
    }

    /// Number of shards the key space is split over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * self.shards.len()
    }

    /// Current number of cached entries (sums per-shard sizes; a racing snapshot).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: &CanonicalPreference) -> &Mutex<Shard<E, V>> {
        // The map itself re-hashes the fingerprint, so using its upper bits for shard
        // selection does not correlate with bucket placement inside the shard.
        let idx = (key.fingerprint() >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Looks up a cached value computed at exactly `epoch`, refreshing the entry's recency
    /// on a hit. An entry tagged with any other epoch is stale: it is dropped immediately,
    /// counted in [`ResultCache::stale_evictions`], and the lookup misses.
    pub fn get(&self, key: &CanonicalPreference, epoch: E) -> Option<Arc<V>> {
        self.get_or_salvage(key, &epoch, |_, _| Salvage::Stale)
            .map(|(v, _)| v)
    }

    /// Like [`ResultCache::get`], but giving the caller one chance to **salvage** an entry
    /// whose epoch tag differs from the lookup's instead of dropping it.
    ///
    /// The callback receives the entry's tag and value and decides: translate the value into
    /// the current id space (a generation swap renumbered rows but changed no data), expire
    /// it as genuinely stale, or expire it as an unrecoverable [`Salvage::RemapMiss`].
    /// Translated entries are cached back re-tagged at the lookup epoch, so the salvage cost
    /// is paid once per entry per swap, not per hit. Returns the value plus whether a
    /// translation happened.
    pub fn get_or_salvage(
        &self,
        key: &CanonicalPreference,
        epoch: &E,
        salvage: impl FnOnce(&E, &V) -> Salvage<V>,
    ) -> Option<(Arc<V>, bool)> {
        if self.capacity_per_shard == 0 {
            return None;
        }
        let mut shard = lock_shard(self.shard(key));
        let stamp = shard.bump_stamp();
        let entry = shard.map.get_mut(key)?;
        if entry.epoch != *epoch {
            match salvage(&entry.epoch, &entry.value) {
                Salvage::Translated(value) => {
                    entry.value = Arc::new(value);
                    entry.epoch = epoch.clone();
                    entry.stamp = stamp;
                    let value = entry.value.clone();
                    shard.queue.push_back((stamp, key.clone()));
                    shard.compact_if_bloated();
                    return Some((value, true));
                }
                verdict @ (Salvage::Stale | Salvage::RemapMiss) => {
                    shard.map.remove(key);
                    self.stale_evictions.fetch_add(1, Ordering::Relaxed);
                    if matches!(verdict, Salvage::RemapMiss) {
                        self.remap_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    return None;
                }
            }
        }
        entry.stamp = stamp;
        let value = entry.value.clone();
        shard.queue.push_back((stamp, key.clone()));
        shard.compact_if_bloated();
        Some((value, false))
    }

    /// Inserts (or refreshes) a value computed at `epoch`, evicting least-recently-used
    /// entries over capacity.
    pub fn insert(&self, key: CanonicalPreference, epoch: E, value: Arc<V>) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let mut shard = lock_shard(self.shard(&key));
        let stamp = shard.bump_stamp();
        shard.queue.push_back((stamp, key.clone()));
        shard.map.insert(
            key,
            Entry {
                value,
                stamp,
                epoch,
            },
        );
        while shard.map.len() > self.capacity_per_shard {
            let Some((stamp, key)) = shard.queue.pop_front() else {
                break; // Unreachable: every map entry has a live queue pair.
            };
            if shard.map.get(&key).is_some_and(|e| e.stamp == stamp) {
                shard.map.remove(&key);
            }
        }
        shard.compact_if_bloated();
    }
}

/// Why a remap-chain translation could not bridge an entry to the lookup epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateFailure {
    /// Real mutations separate the entry from the lookup (or the translation hit a row the
    /// compaction reclaimed): the cached answer is semantically outdated.
    Stale,
    /// The entry is older than the oldest retained remap — only swaps separate it from the
    /// lookup, but the translations it needs are gone (an unrecoverable remap miss).
    ChainTruncated,
}

/// Rewrites `ids` from the id space of `entry_epoch` into the id space of `target` by
/// composing consecutive links of `chain` (the engine's bounded remap history, oldest
/// first). Succeeds only when the walk starts exactly at `entry_epoch`, every hop is
/// contiguous (`link.from` equals the epoch reached so far — no template skyline change in
/// between), and it lands exactly on `target`.
pub fn translate_through_chain(
    ids: &[PointId],
    entry_epoch: DatasetEpoch,
    target: DatasetEpoch,
    chain: &[GenerationRemap],
) -> Result<Vec<PointId>, TranslateFailure> {
    let Some(start) = chain.iter().position(|r| r.from == entry_epoch) else {
        // No link starts at the entry's epoch. If the retained chain begins *after* the
        // entry, the swaps it needed have been forgotten — that is the unrecoverable case.
        if chain.first().is_some_and(|r| entry_epoch < r.from) {
            return Err(TranslateFailure::ChainTruncated);
        }
        return Err(TranslateFailure::Stale);
    };
    let mut current = ids.to_vec();
    let mut at = entry_epoch;
    for link in &chain[start..] {
        if link.from != at {
            // A mutation bumped the epoch between two swaps; the entry predates real changes.
            return Err(TranslateFailure::Stale);
        }
        match link.remap.translate_ids(&current) {
            Some(translated) => current = translated,
            None => return Err(TranslateFailure::Stale),
        }
        at = link.to;
        if at == target {
            return Ok(current);
        }
    }
    // The chain ended before reaching the lookup epoch: mutations happened after the last
    // swap.
    Err(TranslateFailure::Stale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline::{MethodUsed, QueryOutcome};
    use skyline_core::{Dimension, NominalDomain, Preference, Schema};

    const E0: DatasetEpoch = DatasetEpoch::INITIAL;

    fn schema(cardinality: usize) -> Schema {
        Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal("g", NominalDomain::anonymous(cardinality)),
        ])
        .unwrap()
    }

    fn key(schema: &Schema, choices: &[u16]) -> CanonicalPreference {
        let pref = Preference::from_dims(vec![skyline_core::ImplicitPreference::new(
            choices.iter().copied(),
        )
        .unwrap()]);
        CanonicalPreference::new(schema, &pref).unwrap()
    }

    /// The single-engine instantiation the unit tests run on.
    type Cache = ResultCache<DatasetEpoch, QueryOutcome>;

    /// Remap-aware lookup against one engine's chain: the pair production composes
    /// ([`ResultCache::get_or_salvage`] + [`translate_through_chain`]).
    fn lookup_through_chain(
        cache: &Cache,
        key: &CanonicalPreference,
        epoch: DatasetEpoch,
        chain: &[GenerationRemap],
    ) -> Option<(Arc<QueryOutcome>, bool)> {
        cache.get_or_salvage(
            key,
            &epoch,
            |&entry_epoch, value| match translate_through_chain(
                &value.skyline,
                entry_epoch,
                epoch,
                chain,
            ) {
                Ok(skyline) => Salvage::Translated(QueryOutcome {
                    skyline,
                    method: value.method,
                }),
                Err(TranslateFailure::Stale) => Salvage::Stale,
                Err(TranslateFailure::ChainTruncated) => Salvage::RemapMiss,
            },
        )
    }

    fn outcome(id: u32) -> Arc<QueryOutcome> {
        Arc::new(QueryOutcome {
            skyline: vec![id],
            method: MethodUsed::IpoTree,
        })
    }

    #[test]
    fn get_after_insert_round_trips() {
        let schema = schema(8);
        let cache = Cache::new(16, 4);
        assert!(cache.is_empty());
        let k = key(&schema, &[3]);
        assert!(cache.get(&k, E0).is_none());
        cache.insert(k.clone(), E0, outcome(7));
        assert_eq!(cache.get(&k, E0).unwrap().skyline, vec![7]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.capacity(), 16);
        assert_eq!(cache.shard_count(), 4);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let schema = schema(16);
        // Single shard so recency order is deterministic.
        let cache = Cache::new(3, 1);
        let keys: Vec<CanonicalPreference> = (0u16..4).map(|v| key(&schema, &[v])).collect();
        for (i, k) in keys.iter().take(3).enumerate() {
            cache.insert(k.clone(), E0, outcome(i as u32));
        }
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(&keys[0], E0).is_some());
        cache.insert(keys[3].clone(), E0, outcome(3));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&keys[0], E0).is_some());
        assert!(
            cache.get(&keys[1], E0).is_none(),
            "coldest entry must be gone"
        );
        assert!(cache.get(&keys[2], E0).is_some());
        assert!(cache.get(&keys[3], E0).is_some());
    }

    #[test]
    fn reinserting_a_key_refreshes_instead_of_growing() {
        let schema = schema(8);
        let cache = Cache::new(2, 1);
        let k = key(&schema, &[1]);
        cache.insert(k.clone(), E0, outcome(1));
        cache.insert(k.clone(), E0, outcome(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&k, E0).unwrap().skyline, vec![2]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let schema = schema(8);
        let cache = Cache::new(0, 8);
        let k = key(&schema, &[1]);
        cache.insert(k.clone(), E0, outcome(1));
        assert!(cache.get(&k, E0).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn hit_heavy_workloads_do_not_grow_the_queue_without_bound() {
        let schema = schema(8);
        let cache = Cache::new(4, 1);
        let k = key(&schema, &[2]);
        cache.insert(k.clone(), E0, outcome(1));
        for _ in 0..10_000 {
            assert!(cache.get(&k, E0).is_some());
        }
        let shard = cache.shards[0].lock().unwrap();
        assert!(
            shard.queue.len() <= 2 * shard.map.len() + 17,
            "queue length {} not compacted",
            shard.queue.len()
        );
    }

    #[test]
    fn epoch_mismatch_expires_lazily_and_is_counted() {
        let schema = schema(8);
        let cache = Cache::new(8, 2);
        let (k1, k2) = (key(&schema, &[1]), key(&schema, &[2]));
        cache.insert(k1.clone(), E0, outcome(1));
        cache.insert(k2.clone(), E0, outcome(2));
        assert_eq!(cache.len(), 2);

        // The "mutation": lookups now run at a later epoch. Nothing is flushed eagerly…
        let bumped = {
            let mut data =
                skyline_core::Dataset::from_columns(schema.clone(), vec![vec![1.0]], vec![vec![0]])
                    .unwrap();
            data.tombstone(0).unwrap();
            data.epoch()
        };
        assert_eq!(cache.len(), 2, "no global flush");
        // …but a stale entry can never be returned: it expires on first touch.
        assert!(cache.get(&k1, bumped).is_none());
        assert_eq!(cache.stale_evictions(), 1);
        assert_eq!(cache.len(), 1, "expired entry is dropped in place");
        // A fresh answer cached at the new epoch serves normally.
        cache.insert(k1.clone(), bumped, outcome(9));
        assert_eq!(cache.get(&k1, bumped).unwrap().skyline, vec![9]);
        // The untouched key still holds its stale entry until it is looked up.
        assert!(cache.get(&k2, bumped).is_none());
        assert_eq!(cache.stale_evictions(), 2);
        assert!(cache.get(&k2, E0).is_none(), "dropped, not resurrected");
    }

    #[test]
    fn generation_swaps_translate_entries_instead_of_dropping_them() {
        use skyline_core::Dataset;

        let schema = schema(8);
        let cache = Cache::new(8, 2);
        let k = key(&schema, &[1]);

        // A dataset whose rows 0 and 2 are dead; the swap compacts it.
        let data = Dataset::from_columns(
            schema.clone(),
            vec![vec![1.0, 2.0, 3.0, 4.0, 5.0]],
            vec![vec![0, 1, 2, 3, 4]],
        )
        .unwrap();
        let mut data = data;
        data.tombstone(0).unwrap();
        data.tombstone(2).unwrap();
        let from = data.epoch();
        let (compact, remap) = data.compacted();
        let swap = GenerationRemap {
            remap: Arc::new(remap),
            from,
            to: compact.epoch(),
        };

        // An entry cached at exactly the pre-swap epoch, naming (live) rows 1, 3, 4.
        cache.insert(
            k.clone(),
            from,
            Arc::new(QueryOutcome {
                skyline: vec![1, 3, 4],
                method: MethodUsed::AdaptiveSfs,
            }),
        );
        // Looked up at the post-swap epoch with the remap: translated, not dropped.
        let (outcome, translated) =
            lookup_through_chain(&cache, &k, swap.to, std::slice::from_ref(&swap)).unwrap();
        assert!(translated);
        assert_eq!(
            outcome.skyline,
            vec![0, 1, 2],
            "ids rewritten to the new space"
        );
        assert_eq!(outcome.method, MethodUsed::AdaptiveSfs);
        assert_eq!(cache.stale_evictions(), 0);
        // The entry is now re-tagged: a plain lookup at the new epoch hits without a remap.
        let (again, translated) = lookup_through_chain(&cache, &k, swap.to, &[]).unwrap();
        assert!(!translated);
        assert_eq!(again.skyline, vec![0, 1, 2]);

        // An entry from an *older* epoch is unrecoverable once its swaps left the chain.
        let k2 = key(&schema, &[2]);
        cache.insert(k2.clone(), E0, outcome.clone());
        assert!(lookup_through_chain(&cache, &k2, swap.to, std::slice::from_ref(&swap)).is_none());
        assert_eq!(cache.stale_evictions(), 1);
        assert_eq!(cache.remap_misses(), 1, "pre-chain entry is a remap miss");
    }

    /// The satellite-2 regression: two back-to-back rebuilds used to silently drop every
    /// entry that was one remap behind, because translation only looked at the latest swap.
    #[test]
    fn back_to_back_swaps_compose_through_the_chain() {
        use skyline_core::Dataset;

        let schema = schema(8);
        let cache = Cache::new(8, 2);
        let k = key(&schema, &[1]);

        let data = Dataset::from_columns(
            schema.clone(),
            vec![vec![1.0, 2.0, 3.0, 4.0, 5.0]],
            vec![vec![0, 1, 2, 3, 4]],
        )
        .unwrap();
        // Swap 1 reclaims rows 0 and 2; swap 2 is a back-to-back rebuild with nothing to
        // reclaim (identity renumbering) — but it still opens a fresh epoch, which is
        // exactly what used to strand every pre-swap-1 entry.
        let mut data = data;
        data.tombstone(0).unwrap();
        data.tombstone(2).unwrap();
        let e1 = data.epoch();
        let (compact1, remap1) = data.compacted();
        let swap1 = GenerationRemap {
            remap: Arc::new(remap1),
            from: e1,
            to: compact1.epoch(),
        };
        let (compact2, remap2) = compact1.compacted();
        let swap2 = GenerationRemap {
            remap: Arc::new(remap2),
            from: compact1.epoch(),
            to: compact2.epoch(),
        };
        assert_eq!(swap1.to, swap2.from, "no mutation between the swaps");

        // Cached at the epoch swap 1 starts from, naming (live) old rows {1, 3, 4}.
        cache.insert(
            k.clone(),
            e1,
            Arc::new(QueryOutcome {
                skyline: vec![1, 3, 4],
                method: MethodUsed::AdaptiveSfs,
            }),
        );

        // With only the latest remap the walk cannot start at `e1`: the entry would be
        // dropped (the old bug). Through the full chain it composes:
        // {1,3,4} → swap1 → {0,1,2} → swap2 (identity) → {0,1,2}.
        let (outcome, translated) =
            lookup_through_chain(&cache, &k, swap2.to, &[swap1.clone(), swap2.clone()]).unwrap();
        assert!(translated);
        assert_eq!(outcome.skyline, vec![0, 1, 2]);
        assert_eq!(cache.stale_evictions(), 0);
        assert_eq!(cache.remap_misses(), 0);

        // Sanity on the raw composition helper.
        assert_eq!(
            translate_through_chain(&[1], e1, swap2.to, std::slice::from_ref(&swap2)),
            Err(TranslateFailure::ChainTruncated),
            "entry older than the retained chain"
        );
        assert_eq!(
            translate_through_chain(&[1], swap1.from, swap2.to, std::slice::from_ref(&swap1)),
            Err(TranslateFailure::Stale),
            "chain ends before the lookup epoch"
        );
        // A reclaimed row cannot be carried across its compaction.
        assert_eq!(
            translate_through_chain(&[1, 3], e1, swap1.to, std::slice::from_ref(&swap1)),
            Ok(vec![0, 1]),
        );
        assert_eq!(
            translate_through_chain(&[0], e1, swap1.to, &[swap1]),
            Err(TranslateFailure::Stale),
            "reclaimed row cannot translate"
        );
    }

    #[test]
    fn vector_epoch_tags_work_with_salvage() {
        // The sharded service tags entries with per-shard epoch vectors; exercise the
        // generic path with that tag type and a custom salvage decision.
        let schema = schema(8);
        let cache: ResultCache<Arc<[DatasetEpoch]>, Vec<u32>> = ResultCache::new(8, 2);
        let k = key(&schema, &[1]);
        let tag_a: Arc<[DatasetEpoch]> = Arc::from(vec![E0, E0].into_boxed_slice());
        cache.insert(k.clone(), tag_a.clone(), Arc::new(vec![1, 2]));
        assert_eq!(*cache.get(&k, tag_a.clone()).unwrap(), vec![1, 2]);

        let bumped = {
            let mut data =
                skyline_core::Dataset::from_columns(schema.clone(), vec![vec![1.0]], vec![vec![0]])
                    .unwrap();
            data.tombstone(0).unwrap();
            data.epoch()
        };
        let tag_b: Arc<[DatasetEpoch]> = Arc::from(vec![E0, bumped].into_boxed_slice());
        // Salvage translates (here: trivially rewrites) instead of dropping.
        let (v, translated) = cache
            .get_or_salvage(&k, &tag_b, |old, value| {
                assert_eq!(old, &tag_a);
                Salvage::Translated(value.iter().map(|x| x + 10).collect())
            })
            .unwrap();
        assert!(translated);
        assert_eq!(*v, vec![11, 12]);
        // Re-tagged: a plain get at the new tag now hits.
        assert_eq!(*cache.get(&k, tag_b.clone()).unwrap(), vec![11, 12]);
        // And a remap-miss verdict is counted separately.
        let tag_c: Arc<[DatasetEpoch]> = Arc::from(vec![bumped, bumped].into_boxed_slice());
        assert!(cache
            .get_or_salvage(&k, &tag_c, |_, _| Salvage::RemapMiss)
            .is_none());
        assert_eq!(cache.stale_evictions(), 1);
        assert_eq!(cache.remap_misses(), 1);
    }

    #[test]
    fn equivalent_preferences_share_an_entry() {
        let schema = schema(2);
        let cache = Cache::new(8, 2);
        // On a 2-value domain, [0, 1] and [0] are the same partial order.
        cache.insert(key(&schema, &[0, 1]), E0, outcome(9));
        assert_eq!(cache.get(&key(&schema, &[0]), E0).unwrap().skyline, vec![9]);
        assert_eq!(cache.len(), 1);
    }
}
