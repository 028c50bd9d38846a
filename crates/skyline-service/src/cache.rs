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
//! Staleness has one reprieve, granted by whoever performs a generation swap: a swap
//! renumbers a shard's rows but changes no answer, so right after it installs, the caller walks
//! the cache once with `ResultCache::retag` and rewrites every entry computed on the replaced
//! generation into the new id space and the new tag. Nothing else knows about renumbering: a
//! lookup compares tags, and an entry the walk did not rewrite expires as above. The first hit
//! on a rewritten entry counts one remapped hit (`StatsSnapshot::remapped_hits`).
//!
//! The cache is split into independently locked shards so concurrent workers rarely contend;
//! a key's shard is chosen from its stable fingerprint. Each shard runs the classic
//! stamp-queue LRU: every touch pushes a fresh `(stamp, key)` pair onto a queue, and eviction
//! pops queue entries until one's stamp matches the live entry — amortized O(1), no linked
//! lists, no unsafe.

use skyline_core::CanonicalPreference;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A poisoned shard lock is recovered, not propagated: the only caller-supplied code that
/// runs under it is the [`ResultCache::retag`] callback, which executes *before* its entry is
/// rewritten, so a panic there (or anywhere else on a thread that happens to hold the lock)
/// can at worst leave a dangling recency pair in the queue — a state the stamp-checked
/// eviction already tolerates by design.
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
    /// First hits on entries a [`ResultCache::retag`] rewrote.
    remapped_hits: AtomicU64,
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
    /// Set by [`ResultCache::retag`]; the next hit counts a remapped hit and clears it.
    translated: bool,
}

impl<E: PartialEq, V> ResultCache<E, V> {
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
            remapped_hits: AtomicU64::new(0),
        }
    }

    /// Entries dropped so far because their epoch no longer matched the lookup's.
    pub fn stale_evictions(&self) -> u64 {
        self.stale_evictions.load(Ordering::Relaxed)
    }

    /// Hits so far on entries a [`ResultCache::retag`] rewrote, each entry counted at its
    /// first hit after the rewrite: how much of the cache the swaps kept warm.
    pub(crate) fn remapped_hits(&self) -> u64 {
        self.remapped_hits.load(Ordering::Relaxed)
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
        if self.capacity_per_shard == 0 {
            return None;
        }
        let mut shard = lock_shard(self.shard(key));
        let stamp = shard.bump_stamp();
        let entry = shard.map.get_mut(key)?;
        if entry.epoch != epoch {
            shard.map.remove(key);
            self.stale_evictions.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if std::mem::take(&mut entry.translated) {
            self.remapped_hits.fetch_add(1, Ordering::Relaxed);
        }
        entry.stamp = stamp;
        let value = entry.value.clone();
        shard.queue.push_back((stamp, key.clone()));
        shard.compact_if_bloated();
        Some(value)
    }

    /// Walks every entry once, one cache shard lock at a time, and replaces each one `rewrite`
    /// returns a new tag and value for; `None` leaves the entry as it is. A generation swap
    /// calls this right after it installs, to carry the entries computed on the replaced
    /// generation into the new id space. A rewritten entry keeps its recency, and its next
    /// hit counts one [`ResultCache::remapped_hits`].
    pub(crate) fn retag(&self, mut rewrite: impl FnMut(&E, &V) -> Option<(E, V)>) {
        for shard in &self.shards {
            for entry in lock_shard(shard).map.values_mut() {
                if let Some((epoch, value)) = rewrite(&entry.epoch, &entry.value) {
                    entry.epoch = epoch;
                    entry.value = Arc::new(value);
                    entry.translated = true;
                }
            }
        }
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
                translated: false,
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

#[cfg(test)]
mod tests {
    use super::*;
    use skyline::{GenerationRemap, MethodUsed, QueryOutcome};
    use skyline_core::{Dataset, DatasetEpoch, Dimension, NominalDomain, Preference, Schema};

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

    /// The walk a generation swap drives, on one engine's tag: an entry computed at exactly
    /// the epoch the swap replaced is renumbered into the new id space and re-tagged.
    fn retag_through(cache: &Cache, swap: &GenerationRemap) {
        cache.retag(|&epoch, value| {
            if epoch != swap.from {
                return None;
            }
            let skyline = swap.remap.translate_ids(&value.skyline)?;
            let method = value.method;
            Some((swap.to, QueryOutcome { skyline, method }))
        });
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
                Dataset::from_columns(schema.clone(), vec![vec![1.0]], vec![vec![0]]).unwrap();
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

    /// A dataset of rows 0..5 with rows 0 and 2 dead, so its compaction renumbers.
    fn two_dead_rows(schema: &Schema) -> Dataset {
        let mut data = Dataset::from_columns(
            schema.clone(),
            vec![vec![1.0, 2.0, 3.0, 4.0, 5.0]],
            vec![vec![0, 1, 2, 3, 4]],
        )
        .unwrap();
        data.tombstone(0).unwrap();
        data.tombstone(2).unwrap();
        data
    }

    /// The swap that compacts `data`, and the compacted dataset.
    fn swap(data: &Dataset) -> (Dataset, GenerationRemap) {
        let (compact, remap) = data.compacted();
        let to = compact.epoch();
        let from = data.epoch();
        (compact, GenerationRemap { remap, from, to })
    }

    fn adaptive(skyline: Vec<u32>) -> Arc<QueryOutcome> {
        Arc::new(QueryOutcome {
            skyline,
            method: MethodUsed::AdaptiveSfs,
        })
    }

    #[test]
    fn generation_swaps_translate_entries_instead_of_dropping_them() {
        let schema = schema(8);
        let cache = Cache::new(8, 2);
        let (k, k2) = (key(&schema, &[1]), key(&schema, &[2]));
        let data = two_dead_rows(&schema);
        let (_, swap) = swap(&data);

        // An entry cached at exactly the pre-swap epoch, naming (live) rows 1, 3, 4, and one
        // from an older epoch, which predates changes the swap knows nothing about.
        cache.insert(k.clone(), swap.from, adaptive(vec![1, 3, 4]));
        cache.insert(k2.clone(), E0, outcome(1));
        retag_through(&cache, &swap);

        // Looked up at the post-swap epoch: translated by the walk, not dropped.
        let outcome = cache.get(&k, swap.to).unwrap();
        assert_eq!(
            outcome.skyline,
            vec![0, 1, 2],
            "ids rewritten to the new space"
        );
        assert_eq!(outcome.method, MethodUsed::AdaptiveSfs);
        assert_eq!(cache.remapped_hits(), 1);
        // Only the first hit after the walk counts as remapped.
        assert_eq!(cache.get(&k, swap.to).unwrap().skyline, vec![0, 1, 2]);
        assert_eq!(cache.remapped_hits(), 1);
        assert_eq!(cache.stale_evictions(), 0);

        // The walk left the older entry alone; it expires at its next lookup.
        assert!(cache.get(&k2, swap.to).is_none());
        assert_eq!(cache.stale_evictions(), 1);
        assert_eq!(cache.remapped_hits(), 1);
    }

    /// Back-to-back swaps each walk the cache, so an entry follows any number of them.
    #[test]
    fn back_to_back_swaps_retag_the_entry_each_time() {
        let schema = schema(8);
        let cache = Cache::new(8, 2);
        let (k, k2) = (key(&schema, &[1]), key(&schema, &[2]));
        // Swap 1 reclaims rows 0 and 2; swap 2 is a back-to-back rebuild with nothing to
        // reclaim (identity renumbering), but it still opens a fresh epoch.
        let data = two_dead_rows(&schema);
        let (compact1, swap1) = swap(&data);
        let (_, swap2) = swap(&compact1);
        assert_eq!(swap1.to, swap2.from, "no mutation between the swaps");

        // Cached at the epoch swap 1 starts from: live old rows {1, 3, 4}, and reclaimed row 0,
        // which no walk can carry across its compaction.
        cache.insert(k.clone(), swap1.from, adaptive(vec![1, 3, 4]));
        cache.insert(k2.clone(), swap1.from, adaptive(vec![0]));

        // {1,3,4} → swap1 → {0,1,2} → swap2 (identity) → {0,1,2}.
        retag_through(&cache, &swap1);
        retag_through(&cache, &swap2);
        assert_eq!(cache.get(&k, swap2.to).unwrap().skyline, vec![0, 1, 2]);
        assert_eq!(cache.remapped_hits(), 1, "one entry, one first hit");
        assert_eq!(cache.stale_evictions(), 0);

        // The untranslatable entry kept its old tag, so it expires instead of serving.
        assert!(cache.get(&k2, swap2.to).is_none());
        assert_eq!(cache.stale_evictions(), 1);
    }

    #[test]
    fn vector_epoch_tags_work_with_retag() {
        // The sharded service tags entries with per-shard epoch vectors; exercise the
        // generic walk with that tag type and a custom rewrite.
        let schema = schema(8);
        let cache: ResultCache<Arc<[DatasetEpoch]>, Vec<u32>> = ResultCache::new(8, 2);
        let k = key(&schema, &[1]);
        let tag_a: Arc<[DatasetEpoch]> = Arc::from(vec![E0, E0].into_boxed_slice());
        cache.insert(k.clone(), tag_a.clone(), Arc::new(vec![1, 2]));
        assert_eq!(*cache.get(&k, tag_a.clone()).unwrap(), vec![1, 2]);

        let bumped = {
            let mut data =
                Dataset::from_columns(schema.clone(), vec![vec![1.0]], vec![vec![0]]).unwrap();
            data.tombstone(0).unwrap();
            data.epoch()
        };
        let tag_b: Arc<[DatasetEpoch]> = Arc::from(vec![E0, bumped].into_boxed_slice());
        // The walk rewrites (here: trivially) the entries whose shard 1 was at E0.
        cache.retag(|old, value| {
            assert_eq!(old, &tag_a);
            (old[1] == E0).then(|| (tag_b.clone(), value.iter().map(|x| x + 10).collect()))
        });
        // A walk that rewrites nothing leaves every entry as it is.
        cache.retag(|_, _| None);
        assert_eq!(*cache.get(&k, tag_b.clone()).unwrap(), vec![11, 12]);
        assert_eq!(cache.remapped_hits(), 1);
        // A tag the walk did not reach expires as usual.
        let tag_c: Arc<[DatasetEpoch]> = Arc::from(vec![bumped, bumped].into_boxed_slice());
        assert!(cache.get(&k, tag_c).is_none());
        assert_eq!(cache.stale_evictions(), 1);
        assert!(cache.get(&k, tag_b).is_none(), "dropped, not resurrected");
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
