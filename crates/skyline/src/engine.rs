//! A unified query engine over the paper's algorithms, including the hybrid strategy of §5.3,
//! a dynamic-dataset mutation path (epoch-tracked inserts and logical deletes), and a
//! **generational lifecycle**: the serving state lives in an immutable [`Generation`]
//! snapshot, and a rebuild — physical compaction with row-id remapping plus IPO
//! re-materialization — constructs the *next* generation off the live rows without blocking
//! readers, replays mutations that arrived mid-build, and swaps it in atomically.

use skyline_adaptive::{AdaptiveSfs, MaintenanceStats, ScanMode};
use skyline_core::algo::sfs::Scan;
use skyline_core::score::ScoreFn;
use skyline_core::{
    CompiledRelation, Dataset, DatasetEpoch, Deadline, PointId, Preference, Result, RowIdRemap,
    SkylineError, Template, ValueId,
};
use skyline_ipo::{IpoTree, IpoTreeBuilder, Materialization};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Which algorithm an engine instance materializes and uses to answer queries.
///
/// All three configurations hold one shared [`Dataset`], accept [`SkylineEngine::insert_row`] /
/// [`SkylineEngine::delete_row`], and take part in the generational rebuild lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineConfig {
    /// Materializes nothing; every query runs sort-first-skyline over the whole dataset
    /// (the paper's **SFS-D** baseline).
    SfsD,
    /// Materializes the presorted template skyline; every query is answered by Adaptive SFS
    /// (**SFS-A**).
    AdaptiveSfs,
    /// The recommendation of §5.3 — the tree engine: materializes an IPO tree over the
    /// `top_k` most frequent values per nominal dimension *and* the Adaptive-SFS sorted list.
    /// Preferences that list only materialized values are answered by the tree; everything
    /// else (and every query while a mutation has outdated the tree, until the next
    /// generation rebuild) by Adaptive SFS.
    ///
    /// `top_k` is clamped to each dimension's cardinality, so `top_k: usize::MAX` is the
    /// paper's full **IPO Tree** (every preference tree-served) and `top_k: 10` its
    /// **IPO Tree-10**.
    Hybrid {
        /// Number of most-frequent values materialized per nominal dimension.
        top_k: usize,
    },
}

/// The algorithm that actually produced a query answer (interesting for the hybrid engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodUsed {
    /// Answered by the full-dataset SFS baseline.
    SfsD,
    /// Answered by Adaptive SFS.
    AdaptiveSfs,
    /// Answered by the IPO tree (Algorithm 1/2 over the materialized node sets).
    IpoTree,
}

/// A query answer plus provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The skyline under the query preference, as sorted point ids.
    pub skyline: Vec<PointId>,
    /// Which algorithm produced it.
    pub method: MethodUsed,
}

/// One immutable serving snapshot of an engine: the dataset plus whatever derived structures
/// the configuration materializes.
///
/// Queries only ever read a generation; mutations apply to the *current* generation in place
/// (epoch-bumped appends and tombstones), and the background lifecycle builds the **next**
/// generation — physically compacted, renumbered, re-materialized — off the live rows, then
/// swaps it in atomically under the engine's write lock. The generation [`Generation::id`] is
/// a monotonic counter (0 for the generation [`SkylineEngine::build`] creates, +1 per
/// installed rebuild) that lets a finished build detect that the engine has moved on.
#[derive(Debug, Clone)]
pub struct Generation {
    /// Monotonic generation number.
    pub(crate) id: u64,
    /// The rows, for [`EngineConfig::SfsD`]; `None` when an Adaptive SFS structure owns them
    /// (the [`EngineConfig::AdaptiveSfs`] and [`EngineConfig::Hybrid`] configurations), so
    /// mutable state has exactly one owner and incremental updates never copy it.
    pub(crate) data: Option<Arc<Dataset>>,
    /// The IPO tree [`EngineConfig::Hybrid`] serves popular preferences from (shared, so
    /// cloning a generation never copies the node arena).
    pub(crate) tree: Option<Arc<IpoTree>>,
    pub(crate) asfs: Option<AdaptiveSfs>,
    /// Epoch the IPO tree was materialized at; when the template skyline has moved past it,
    /// the hybrid configuration stops consulting its (stale) tree.
    pub(crate) tree_epoch: DatasetEpoch,
    /// Epoch the generation started serving at: its dataset's epoch when built or loaded,
    /// the swap's [`GenerationRemap::to`] when installed. No skyline epoch precedes it.
    pub(crate) installed_epoch: DatasetEpoch,
}

impl Generation {
    /// A scanning ([`EngineConfig::SfsD`]) generation, numbered 0: the dataset, no derived
    /// structure.
    pub(crate) fn scanning(data: Arc<Dataset>) -> Self {
        Self {
            id: 0,
            tree_epoch: data.epoch(),
            installed_epoch: data.epoch(),
            data: Some(data),
            tree: None,
            asfs: None,
        }
    }

    /// A generation, numbered 0, served by an Adaptive-SFS structure (which owns the dataset)
    /// plus, for the hybrid, a tree materialized at the dataset's current epoch.
    pub(crate) fn adaptive(asfs: AdaptiveSfs, tree: Option<IpoTree>) -> Self {
        Self {
            id: 0,
            tree_epoch: asfs.epoch(),
            installed_epoch: asfs.epoch(),
            data: None,
            tree: tree.map(Arc::new),
            asfs: Some(asfs),
        }
    }

    /// The hybrid generation over a freshly built `tree`: the Adaptive-SFS list is seeded with
    /// the tree's own `SKY(R)` (no second skyline computation).
    fn hybrid(tree: IpoTree, data: Arc<Dataset>, template: &Template) -> Result<Self> {
        let asfs = AdaptiveSfs::from_precomputed(data, template.clone(), tree.skyline().to_vec())?;
        Ok(Self::adaptive(asfs, Some(tree)))
    }

    /// The generation's monotonic sequence number.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The generation's mutation epoch (from its dataset).
    pub fn epoch(&self) -> DatasetEpoch {
        self.dataset_arc().epoch()
    }

    /// Epoch the generation's IPO tree was materialized at.
    pub fn tree_epoch(&self) -> DatasetEpoch {
        self.tree_epoch
    }

    /// See [`SkylineEngine::skyline_epoch`]. SFS-D keeps no template skyline, so every
    /// mutation counts as a change.
    fn skyline_epoch(&self) -> DatasetEpoch {
        match &self.asfs {
            Some(asfs) => asfs.skyline_epoch().max(self.installed_epoch),
            None => self.epoch(),
        }
    }

    fn dataset_arc(&self) -> &Arc<Dataset> {
        match &self.asfs {
            Some(asfs) => asfs.dataset_arc(),
            None => self.data.as_ref().expect("set at construction"),
        }
    }

    /// Applies one insert to this generation, returning the new row id.
    fn apply_insert(&mut self, numeric: &[f64], nominal: &[ValueId]) -> Result<PointId> {
        if let Some(asfs) = &mut self.asfs {
            asfs.insert_row(numeric, nominal)
        } else {
            let data = self.data.as_mut().expect("set at construction");
            Arc::make_mut(data).append_row(numeric, nominal)
        }
    }

    /// Applies one logical delete; `true` when the row was live (and the epoch bumped).
    fn apply_delete(&mut self, p: PointId) -> Result<bool> {
        if let Some(asfs) = &mut self.asfs {
            asfs.delete_row(p)
        } else {
            let data = self.data.as_mut().expect("set at construction");
            Arc::make_mut(data).tombstone(p)
        }
    }
}

/// The row-id translation published by a generation swap, bridging the skyline epochs on
/// either side.
///
/// Compaction renumbers rows, so every id minted before the swap is stale afterwards. Whoever
/// drives the swap and holds answers — a service's result cache — translates them through
/// [`GenerationRemap::remap`] once, right after the install, **iff** an answer is tagged with
/// exactly [`GenerationRemap::from`] (the engine's [`SkylineEngine::skyline_epoch`] right
/// before the swap): the template skyline has not changed since that tag, so the answer's
/// rows are still live members of it and the translation is lossless. Answers tagged earlier
/// predate skyline changes the remap knows nothing about and must be discarded as usual. The
/// engine keeps no remap once it has returned it.
#[derive(Debug, Clone)]
pub struct GenerationRemap {
    /// Old row ids → new row ids (order-preserving; reclaimed rows map to `None`).
    pub remap: RowIdRemap,
    /// The engine's skyline epoch immediately before the swap.
    pub from: DatasetEpoch,
    /// The installed generation's epoch, which is also its skyline epoch (strictly greater
    /// than `from`).
    pub to: DatasetEpoch,
}

/// An epoch-bumping mutation recorded while a rebuild is in flight, replayed onto the next
/// generation before the swap.
#[derive(Debug, Clone)]
enum LoggedMutation {
    Insert {
        numeric: Vec<f64>,
        nominal: Vec<ValueId>,
    },
    /// Row id in the **pre-swap** id space (translated through the remap at replay time).
    Delete { row: PointId },
}

/// The armed replay log of an in-flight rebuild: the epoch the snapshot was taken at plus
/// every epoch-bumping mutation applied since. A pending generation is only installable when
/// it was built from exactly this snapshot — the log covers nothing earlier.
#[derive(Debug, Clone)]
pub(crate) struct ReplayLog {
    /// Engine epoch when [`SkylineEngine::begin_rebuild`] armed the log (the snapshot epoch).
    from_epoch: DatasetEpoch,
    mutations: Vec<LoggedMutation>,
}

/// The cheap, immutable state a rebuild needs, captured under the engine's write lock by
/// [`SkylineEngine::begin_rebuild`]. Everything here is an `Arc` clone or a small copy, so the
/// lock is held for microseconds; the expensive work happens in
/// [`GenerationSnapshot::build_next`] with no lock held at all.
#[derive(Debug, Clone)]
pub struct GenerationSnapshot {
    template: Template,
    config: EngineConfig,
    data: Arc<Dataset>,
    /// The current tree's materialization policy, when the configuration has a tree.
    tree: Option<Materialization>,
    epoch: DatasetEpoch,
    generation_id: u64,
}

impl GenerationSnapshot {
    /// The epoch the snapshot was taken at.
    pub fn epoch(&self) -> DatasetEpoch {
        self.epoch
    }

    /// The id of the generation the snapshot was taken from.
    pub fn generation_id(&self) -> u64 {
        self.generation_id
    }

    /// Builds the next generation off the snapshot's live rows: a physically compacted
    /// dataset (dead rows dropped, survivors renumbered, epoch moved past the snapshot's), the
    /// Adaptive-SFS structure preprocessed afresh over it ([`AdaptiveSfs::build`], one serial
    /// scan), and — for the hybrid configuration — the IPO tree re-materialized so tree-served
    /// queries come back after the swap. This is the only compaction: a structure's own
    /// mutations never re-run its preprocessing.
    ///
    /// Runs with **no engine lock held**; concurrent readers keep serving the old generation
    /// throughout. Hand the result to [`SkylineEngine::install_generation`] under the write
    /// lock to swap it in.
    pub fn build_next(&self) -> Result<PendingGeneration> {
        let (data, remap) = self.data.compacted();
        let data = Arc::new(data);
        let generation = match self.config {
            EngineConfig::SfsD => Generation::scanning(data),
            EngineConfig::AdaptiveSfs => {
                Generation::adaptive(AdaptiveSfs::build(data, &self.template)?, None)
            }
            EngineConfig::Hybrid { .. } => {
                let policy = self.tree.as_ref().expect("hybrid engines carry a tree");
                let tree = policy.rebuilt_for(&data, &self.template)?;
                Generation::hybrid(tree, data, &self.template)?
            }
        };
        // The id is assigned by `install_generation`, relative to whatever is serving then.
        Ok(PendingGeneration {
            generation,
            remap,
            source_epoch: self.epoch,
            source_generation: self.generation_id,
        })
    }
}

/// A fully built next generation, waiting to be swapped in by
/// [`SkylineEngine::install_generation`].
#[derive(Debug)]
pub struct PendingGeneration {
    generation: Generation,
    remap: RowIdRemap,
    source_epoch: DatasetEpoch,
    source_generation: u64,
}

impl PendingGeneration {
    /// Number of tombstoned rows the compaction physically reclaimed.
    pub fn reclaimed(&self) -> usize {
        self.remap.reclaimed()
    }

    /// The epoch of the snapshot this generation was built from.
    pub fn source_epoch(&self) -> DatasetEpoch {
        self.source_epoch
    }
}

/// A configured skyline query engine bound to a dataset and a template.
///
/// The dataset is held by shared ownership ([`Arc`]), which makes the engine `Send + Sync`:
/// build it once, wrap it in an `Arc`, and answer queries from as many threads as you like
/// (`query` takes `&self` and only reads). The `skyline-service` crate builds its concurrent,
/// cache-backed query service on exactly this property.
///
/// # Dynamic datasets
///
/// [`SkylineEngine::insert_row`] and [`SkylineEngine::delete_row`] mutate the bound dataset in
/// place (`&mut self`) and return the new [`DatasetEpoch`]; every answered query is implicitly
/// relative to the epoch it ran at, and [`SkylineEngine::query_streaming_at`] rejects a stale
/// expectation with [`SkylineError::EpochMismatch`]. Every configuration accepts
/// mutations. The hybrid configuration stays fully servable: after a write that changes its
/// template skyline ([`SkylineEngine::skyline_epoch`]) its tree is stale, so every query
/// routes to the incrementally maintained Adaptive-SFS side until a generation rebuild
/// re-materializes the tree. To share one mutable engine between threads, wrap it in a
/// [`SharedEngine`].
///
/// # Generational lifecycle
///
/// The serving state lives in a [`Generation`]. Sustained write workloads accumulate
/// tombstoned rows (memory) and — for the hybrid — a stale tree (latency); the lifecycle
/// fixes both without ever blocking readers on a build:
///
/// 1. [`SkylineEngine::begin_rebuild`] (write lock, microseconds) captures a
///    [`GenerationSnapshot`] and starts recording epoch-bumping mutations in a replay log;
/// 2. [`GenerationSnapshot::build_next`] (**no lock**) compacts, renumbers and
///    re-materializes the next generation;
/// 3. [`SkylineEngine::install_generation`] (write lock) replays the logged mutations onto
///    the new generation — translating logged deletes into the new id space — swaps it in
///    atomically, and returns a [`GenerationRemap`]. The engine keeps none: the caller that
///    drove the swap translates the ids it holds, once (a sharded service re-tags its result
///    cache).
///
/// [`SharedEngine::rebuild_now`] packages the three steps for synchronous use; a sharded
/// service's build threads run it under a [`crate::maintenance::MaintenancePolicy`].
#[derive(Debug, Clone)]
pub struct SkylineEngine {
    pub(crate) template: Template,
    pub(crate) config: EngineConfig,
    pub(crate) generation: Generation,
    /// `Some` while a rebuild is in flight: every epoch-bumping mutation is recorded for
    /// replay onto the next generation before the swap.
    pub(crate) replay_log: Option<ReplayLog>,
    /// Epoch-bumping mutations applied since the last installed generation (or the build) —
    /// one of the two quantities maintenance policies watch.
    pub(crate) mutations_since_rebuild: u64,
    /// Counters of structures replaced by past generation swaps, plus the engine-level
    /// `rebuilds`/`reclaimed_rows` — merged with the live structure's counters by
    /// [`SkylineEngine::maintenance_stats`].
    pub(crate) carried_stats: MaintenanceStats,
    /// Mutation counters for [`EngineConfig::SfsD`], which has no maintained structure of its
    /// own to count them.
    pub(crate) sfsd_stats: MaintenanceStats,
}

/// A skyline engine shared between readers and writers: `Arc<RwLock<SkylineEngine>>` with the
/// lock handling folded in.
///
/// Queries take the read lock (many concurrent readers); [`SkylineEngine::insert_row`] /
/// [`SkylineEngine::delete_row`] take the write lock through [`SharedEngine::write`] and
/// update the engine in place. Cloning a `SharedEngine` is one `Arc` clone — every clone sees
/// the same engine and the same mutations. Do not hold a guard across calls that re-lock the
/// same `SharedEngine` (the usual read-vs-write deadlock rules of [`RwLock`] apply).
#[derive(Debug, Clone)]
pub struct SharedEngine {
    inner: Arc<RwLock<SkylineEngine>>,
}

impl SharedEngine {
    /// Wraps an engine for shared mutable access.
    pub fn new(engine: SkylineEngine) -> Self {
        Self {
            inner: Arc::new(RwLock::new(engine)),
        }
    }

    /// Read access (shared, concurrent).
    ///
    /// A poisoned lock is recovered rather than propagated: only a *writer* panicking
    /// mid-mutation poisons an `RwLock`, and the engine's mutation paths keep the structure
    /// consistent at every `?` / panic point (fault-injection build panics fire before any
    /// state is touched; a torn rebuild is healed by [`SkylineEngine::abort_rebuild`]).
    /// Recovering keeps a quarantined shard's epoch readable so the healthy rest of a
    /// sharded service can keep answering.
    pub fn read(&self) -> RwLockReadGuard<'_, SkylineEngine> {
        self.inner.read().unwrap_or_else(|poisoned| {
            self.inner.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Write access (exclusive) for mutations. Recovers a poisoned lock — see
    /// [`SharedEngine::read`] for why that is sound here.
    pub fn write(&self) -> RwLockWriteGuard<'_, SkylineEngine> {
        self.inner.write().unwrap_or_else(|poisoned| {
            self.inner.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Runs one full generation rebuild synchronously: snapshot under the write lock
    /// (microseconds), [`GenerationSnapshot::build_next`] with **no lock held** — concurrent
    /// readers keep serving the old generation, and mutations keep landing (they are
    /// replayed) — then the atomic swap under the write lock. Returns the published
    /// [`GenerationRemap`], or `None` when another rebuild was already in flight (checked
    /// under the same write lock that begins this one, so two racing callers never both
    /// begin).
    ///
    /// A sharded service drives every shard's rebuilds through this cycle under a
    /// [`crate::maintenance::MaintenancePolicy`]; call it directly for deterministic
    /// rebuilds in tests or batch jobs.
    pub fn rebuild_now(&self) -> Result<Option<GenerationRemap>> {
        let snapshot = {
            let mut engine = self.write();
            if engine.rebuild_in_flight() {
                return Ok(None);
            }
            engine.begin_rebuild()?
        };
        let pending = match snapshot.build_next() {
            Ok(pending) => pending,
            Err(e) => {
                self.write().abort_rebuild();
                return Err(e);
            }
        };
        self.write().install_generation(pending).map(Some)
    }
}

impl From<SkylineEngine> for SharedEngine {
    fn from(engine: SkylineEngine) -> Self {
        Self::new(engine)
    }
}

impl SkylineEngine {
    /// Builds the engine, performing whatever preprocessing the configuration requires.
    ///
    /// Accepts either an owned [`Dataset`] or an [`Arc<Dataset>`]; pass the same `Arc` to
    /// several engines to share one copy of the data between them.
    pub fn build(
        data: impl Into<Arc<Dataset>>,
        template: Template,
        config: EngineConfig,
    ) -> Result<Self> {
        let data = data.into();
        // Every configuration serves from this one `Arc`, never a copy: configurations that
        // carry an Adaptive SFS structure let it own the handle (the engine exposes it by
        // delegation), so mutations have a single owner, and the IPO build reads the rows in
        // place.
        let generation = match config {
            EngineConfig::SfsD => Generation::scanning(data),
            EngineConfig::AdaptiveSfs => {
                Generation::adaptive(AdaptiveSfs::build(data, &template)?, None)
            }
            EngineConfig::Hybrid { top_k } => {
                let tree = IpoTreeBuilder::new()
                    .top_k_values(top_k)
                    .build(&data, &template)?;
                Generation::hybrid(tree, data, &template)?
            }
        };
        Ok(Self {
            template,
            config,
            generation,
            replay_log: None,
            mutations_since_rebuild: 0,
            carried_stats: MaintenanceStats::default(),
            sfsd_stats: MaintenanceStats::default(),
        })
    }

    /// The dataset the engine is bound to.
    pub fn dataset(&self) -> &Dataset {
        self.dataset_arc()
    }

    /// Shared handle to the dataset (cheap to clone; hand it to sibling engines or threads).
    pub fn dataset_arc(&self) -> &Arc<Dataset> {
        self.generation.dataset_arc()
    }

    /// The serving generation (snapshot introspection: id, epochs).
    pub fn generation(&self) -> &Generation {
        &self.generation
    }

    /// The engine's current mutation epoch (bumped by every insert, every live delete, and
    /// every generation swap).
    pub fn epoch(&self) -> DatasetEpoch {
        self.generation.epoch()
    }

    /// The epoch at which the engine's template skyline `SKY_R(D)` last changed membership,
    /// or at which its generation was built or installed. Every refinement's answer lies in
    /// `SKY_R(D)`, so while this epoch holds every answer is the same set of row ids — a
    /// dominated insert or a non-member delete moves [`SkylineEngine::epoch`] but not this.
    /// An SFS-D engine keeps no template skyline and reports [`SkylineEngine::epoch`].
    pub fn skyline_epoch(&self) -> DatasetEpoch {
        self.generation.skyline_epoch()
    }

    /// Number of live (non-deleted) rows the engine serves.
    pub fn live_rows(&self) -> usize {
        self.dataset().live_count()
    }

    /// True when row `p` exists and has not been logically deleted.
    pub fn is_row_live(&self, p: PointId) -> bool {
        self.dataset().is_live(p)
    }

    /// The template shared by all queries.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The materialized IPO tree, when the configuration has one. It may be stale —
    /// [`SkylineEngine::serves_from_tree`] says whether it currently answers a preference.
    pub fn ipo_tree(&self) -> Option<&IpoTree> {
        self.generation.tree.as_deref()
    }

    /// The Adaptive SFS structure, when the configuration has one.
    pub fn adaptive(&self) -> Option<&AdaptiveSfs> {
        self.generation.asfs.as_ref()
    }

    /// Errors exactly when [`SkylineEngine::query`] would reject `pref` without computing a
    /// skyline: schema validation and template refinement.
    ///
    /// This is the engine-level servability policy in one place; the `skyline-service` result
    /// cache consults it before a lookup so that cache state can never change which inputs
    /// are accepted. There is no materialization check: a preference the hybrid's tree does
    /// not materialize is answered by its Adaptive-SFS fallback.
    pub fn check_servable(&self, pref: &Preference) -> Result<()> {
        let schema = self.dataset().schema();
        pref.validate(schema)?;
        self.template.check_refinement(schema, pref)
    }

    /// Inserts a row (numeric values in numeric-index order, nominal value ids in
    /// nominal-index order) and returns the new [`DatasetEpoch`].
    ///
    /// Adaptive-SFS-backed configurations update their skyline structures incrementally (one
    /// dominance check against the current skyline plus `O(log n)` list updates); SFS-D only
    /// appends to its dataset, since it scans per query anyway. If other `Arc` handles to the
    /// dataset are still held outside the engine, the first mutation copies the data once so
    /// those handles keep an immutable snapshot; afterwards the engine owns its copy and
    /// mutates in place.
    pub fn insert_row(&mut self, numeric: &[f64], nominal: &[ValueId]) -> Result<DatasetEpoch> {
        self.generation.apply_insert(numeric, nominal)?;
        if self.generation.asfs.is_none() {
            self.sfsd_stats.inserts += 1;
        }
        self.mutations_since_rebuild += 1;
        if let Some(log) = &mut self.replay_log {
            log.mutations.push(LoggedMutation::Insert {
                numeric: numeric.to_vec(),
                nominal: nominal.to_vec(),
            });
        }
        Ok(self.epoch())
    }

    /// Logically deletes a row and returns the new [`DatasetEpoch`].
    ///
    /// Deleting an already-deleted row is a no-op that returns the current epoch unchanged;
    /// rows that never existed are an error. See [`SkylineEngine::insert_row`] for the
    /// configuration and sharing rules.
    pub fn delete_row(&mut self, p: PointId) -> Result<DatasetEpoch> {
        let was_live = self.generation.apply_delete(p)?;
        if was_live {
            if self.generation.asfs.is_none() {
                self.sfsd_stats.deletes += 1;
            }
            self.mutations_since_rebuild += 1;
            if let Some(log) = &mut self.replay_log {
                log.mutations.push(LoggedMutation::Delete { row: p });
            }
        }
        Ok(self.epoch())
    }

    /// Epoch-bumping mutations applied since the last generation swap (or the build).
    pub fn mutations_since_rebuild(&self) -> u64 {
        self.mutations_since_rebuild
    }

    /// Tombstoned rows still physically occupying the engine's dataset.
    pub fn dead_rows(&self) -> usize {
        self.dataset().dead_count()
    }

    /// True while a [`SkylineEngine::begin_rebuild`] snapshot is outstanding (mutations are
    /// being recorded for replay).
    pub fn rebuild_in_flight(&self) -> bool {
        self.replay_log.is_some()
    }

    /// Maintenance counters across the engine's whole lifetime: the live structure's
    /// incremental-maintenance counters plus everything carried over from generations
    /// replaced by past swaps, including [`MaintenanceStats::rebuilds`] (installed swaps) and
    /// [`MaintenanceStats::reclaimed_rows`] (rows physically reclaimed by those swaps).
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        let live = match &self.generation.asfs {
            Some(asfs) => asfs.maintenance_stats(),
            None => self.sfsd_stats,
        };
        self.carried_stats.merged(live)
    }

    /// True when `pref` would currently be answered from the materialized IPO tree: the
    /// engine has one, it is current (no template-skyline change since materialization), and
    /// it materializes
    /// every listed value. This is the introspection hook tests and monitors use to observe a
    /// mutated hybrid recovering tree-served queries after a generation rebuild.
    pub fn serves_from_tree(&self, pref: &Preference) -> bool {
        self.serving_tree(pref).is_some()
    }

    /// The tree that answers `pref` right now, if any — the one routing decision behind
    /// [`SkylineEngine::serves_from_tree`] and [`SkylineEngine::query_streaming_at`]. It
    /// consults the same [`Materialization`] predicate the tree's own query rejection uses
    /// (Section 5.3): popular (fully materialized) preferences go to the IPO tree, everything
    /// else to Adaptive SFS. The tree was materialized at the generation's `tree_epoch` and answers
    /// from `SKY_R(D)` as it was then; a write that leaves the template skyline unchanged
    /// changes no answer (`SKY_{R′}(D) = SKY_{R′}(SKY_R(D))`), so the tree keeps serving. Once
    /// the skyline epoch moves past `tree_epoch`, every query routes to the incrementally
    /// maintained fallback so a stale tree can never answer — until a generation rebuild
    /// re-materializes the tree and tree-served queries resume.
    fn serving_tree(&self, pref: &Preference) -> Option<&IpoTree> {
        let tree = self.generation.tree.as_deref()?;
        let current = self.skyline_epoch() == self.generation.tree_epoch;
        (current && tree.materialization().materializes(pref)).then_some(tree)
    }

    /// Starts a generation rebuild: captures a cheap [`GenerationSnapshot`] and arms the
    /// replay log, so every epoch-bumping mutation from here on is recorded and replayed onto
    /// the next generation before [`SkylineEngine::install_generation`] swaps it in.
    ///
    /// Call under the write lock (the snapshot is a handful of `Arc` clones — microseconds),
    /// then run [`GenerationSnapshot::build_next`] with **no lock held**. Fails when a
    /// rebuild is already in flight; a build that is abandoned without installing must call
    /// [`SkylineEngine::abort_rebuild`] to disarm the log.
    pub fn begin_rebuild(&mut self) -> Result<GenerationSnapshot> {
        if self.replay_log.is_some() {
            return Err(SkylineError::InvalidArgument(
                "a generation rebuild is already in flight".into(),
            ));
        }
        let snapshot = GenerationSnapshot {
            template: self.template.clone(),
            config: self.config,
            data: self.dataset_arc().clone(),
            tree: self.ipo_tree().map(|tree| tree.materialization().clone()),
            epoch: self.epoch(),
            generation_id: self.generation.id,
        };
        self.replay_log = Some(ReplayLog {
            from_epoch: snapshot.epoch,
            mutations: Vec::new(),
        });
        Ok(snapshot)
    }

    /// Abandons an in-flight rebuild: disarms the replay log without swapping anything.
    pub fn abort_rebuild(&mut self) {
        self.replay_log = None;
    }

    /// Atomically swaps in a built generation (call under the write lock): replays the
    /// mutations that arrived while the build ran — translating deleted row ids through the
    /// remap — installs the new generation, and publishes the [`GenerationRemap`] bridging
    /// the old id space to the new one.
    ///
    /// The installed epoch is strictly greater than every epoch the old generation ever
    /// served, so epoch-tagged artifacts built against old row ids can never be misread
    /// against the renumbered dataset. It is also the new generation's skyline epoch; the
    /// remap's `from` is the old generation's. Fails — leaving the old generation serving — when the
    /// pending generation is stale (the engine was swapped by someone else in between) or no
    /// rebuild was begun.
    pub fn install_generation(&mut self, pending: PendingGeneration) -> Result<GenerationRemap> {
        // Validate BEFORE consuming the log: a rejected stale pending (e.g. one built before
        // an abort, or for another generation) must leave the legitimately armed rebuild —
        // and its mutation recording — intact.
        {
            let Some(log) = self.replay_log.as_ref() else {
                return Err(SkylineError::InvalidArgument(
                    "no generation rebuild in flight".into(),
                ));
            };
            if pending.source_generation != self.generation.id
                || pending.source_epoch != log.from_epoch
            {
                return Err(SkylineError::InvalidArgument(format!(
                    "pending generation was built from generation {} at {} but the armed \
                     rebuild snapshotted generation {} at {}",
                    pending.source_generation,
                    pending.source_epoch,
                    self.generation.id,
                    log.from_epoch
                )));
            }
        }
        let log = self.replay_log.take().expect("validated above");
        let mut generation = pending.generation;
        let mut remap = pending.remap;
        // Logical mutations replayed here were already counted by the old generation's
        // structure when they were applied live; the new structure counts them a second time
        // during the replay. Track them so the merge below deducts the duplicates (pure work
        // counters like `resurface_candidates` keep both sides — both scans really ran).
        let mut replayed_inserts = 0u64;
        let mut replayed_deletes = 0u64;
        for mutation in log.mutations {
            match mutation {
                LoggedMutation::Insert { numeric, nominal } => {
                    let new = generation.apply_insert(&numeric, &nominal)?;
                    remap.push_appended(new);
                    replayed_inserts += 1;
                }
                LoggedMutation::Delete { row } => {
                    // Logged deletes target rows live at snapshot time or appended after it,
                    // so the translation cannot fail; skip defensively if it ever does.
                    if let Some(new) = remap.new_id(row) {
                        generation.apply_delete(new)?;
                        replayed_deletes += 1;
                    } else {
                        debug_assert!(false, "logged delete of an unmapped row {row}");
                    }
                }
            }
        }
        let from = self.skyline_epoch();
        let to = generation.epoch();
        debug_assert!(to > from, "the installed epoch must move past the old one");
        generation.id = self.generation.id + 1;
        generation.installed_epoch = to;
        let old = std::mem::replace(&mut self.generation, generation);
        let old_stats = match &old.asfs {
            Some(asfs) => asfs.maintenance_stats(),
            None => std::mem::take(&mut self.sfsd_stats),
        };
        self.carried_stats = self.carried_stats.merged(old_stats);
        if old.asfs.is_some() {
            // SfsD replay bypasses `sfsd_stats`, so only the Adaptive-SFS-backed
            // configurations double-count and need the deduction.
            self.carried_stats.inserts -= replayed_inserts;
            self.carried_stats.deletes -= replayed_deletes;
        }
        self.carried_stats.rebuilds += 1;
        self.carried_stats.reclaimed_rows += remap.reclaimed() as u64;
        self.mutations_since_rebuild = 0;
        Ok(GenerationRemap { remap, from, to })
    }

    fn ensure_epoch(&self, expected: DatasetEpoch) -> Result<()> {
        let actual = self.epoch();
        if actual == expected {
            Ok(())
        } else {
            Err(SkylineError::EpochMismatch {
                expected: expected.get(),
                actual: actual.get(),
            })
        }
    }

    /// Answers an implicit-preference query at the engine's current epoch, without a deadline:
    /// the drained [`SkylineEngine::query_streaming_at`] stream, as sorted point ids.
    pub fn query(&self, pref: &Preference) -> Result<QueryOutcome> {
        self.query_streaming_at(pref, self.epoch(), Deadline::none())?
            .collect_outcome()
    }

    /// The elimination scan that answers `pref` when the tree does not. Adaptive SFS re-ranks
    /// AFFECT into its template skyline. SFS-D score-sorts the live rows with the query
    /// ranking over the engine's shared dataset: tombstoned rows never enter the candidate
    /// list, so the scan skips them without any rebuild.
    fn open_scan(&self, pref: &Preference) -> Result<(Scan<CompiledRelation>, MethodUsed)> {
        if let Some(asfs) = &self.generation.asfs {
            let scan = asfs.query_scan(pref, ScanMode::default())?;
            return Ok((scan, MethodUsed::AdaptiveSfs));
        }
        let data = self.dataset_arc();
        let dom = CompiledRelation::for_query(data.clone(), &self.template, pref)?;
        let score = ScoreFn::for_preference(data.schema(), pref)?;
        let live: Vec<PointId> = data.live_ids().collect();
        let scan = Scan::presorted(dom, &score.sort_by_score(data, &live));
        Ok((scan, MethodUsed::SfsD))
    }

    /// The engine's one query primitive — progressive evaluation: validates that the engine is
    /// still at `epoch` — the answer is computed against exactly that dataset version or the
    /// call fails with [`SkylineError::EpochMismatch`] — then returns an [`EngineStream`] that
    /// yields confirmed skyline members one at a time, in ascending query-score order, for
    /// **every** configuration. A batch answer is the drained stream
    /// ([`EngineStream::collect_outcome`]).
    ///
    /// * [`EngineConfig::AdaptiveSfs`] (and the hybrid's fallback side) drive the
    ///   Adaptive-SFS progressive scan — the first member is typically available after a
    ///   handful of dominance tests, long before the scan finishes.
    /// * [`EngineConfig::SfsD`] streams its presorted elimination scan: each accepted point
    ///   is final the moment it is accepted (the monotone sort guarantees no retraction).
    /// * Tree-served preferences ([`SkylineEngine::serves_from_tree`]) compute the full answer
    ///   up front (set operations, orders of magnitude cheaper than a scan) and keep it in id
    ///   order; the first pull sorts it into score order, so stream consumers see one uniform
    ///   contract regardless of the serving method and a drained stream never sorts.
    ///
    /// The stream owns what it reads (a shared handle to the generation's dataset, plus a
    /// scan or the tree's answer), so it stays valid — pinned to the snapshot it was created
    /// from — across later engine mutations, generation swaps, or dropping the engine guard
    /// that created it. `deadline` is polled at block granularity inside the scans; an
    /// expired deadline aborts the *pull*, not the stream — pulling again after replacing
    /// the deadline resumes.
    pub fn query_streaming_at(
        &self,
        pref: &Preference,
        epoch: DatasetEpoch,
        deadline: Deadline,
    ) -> Result<EngineStream> {
        self.ensure_epoch(epoch)?;
        deadline.check()?;
        let (inner, method) = if let Some(tree) = self.serving_tree(pref) {
            let data = self.dataset_arc();
            let tree_rows = TreeRows {
                rows: tree.query(data, pref)?,
                pulled: 0,
                unsorted: Some((data.clone(), ScoreFn::for_preference(data.schema(), pref)?)),
            };
            (StreamInner::Tree(tree_rows), MethodUsed::IpoTree)
        } else {
            let (scan, method) = self.open_scan(pref)?;
            (StreamInner::Scan(Box::new(scan)), method)
        };
        Ok(EngineStream {
            inner,
            deadline,
            epoch,
            method,
        })
    }
}

/// The per-configuration state behind an [`EngineStream`].
#[derive(Debug)]
enum StreamInner {
    /// The Adaptive-SFS or SFS-D elimination scan (owns its compiled kernel and candidate
    /// order), driven lazily.
    Scan(Box<Scan<CompiledRelation>>),
    /// An IPO-tree-served answer, computed up front.
    Tree(TreeRows),
}

/// A tree-served answer: in id order until the first pull sorts it into score order, so a
/// stream that is only drained — the batch path — never sorts.
#[derive(Debug)]
struct TreeRows {
    rows: Vec<PointId>,
    /// Rows handed out so far.
    pulled: usize,
    /// The rows and ranking the first pull sorts by; `None` once sorted.
    unsorted: Option<(Arc<Dataset>, ScoreFn)>,
}

impl TreeRows {
    fn next(&mut self) -> Option<PointId> {
        if let Some((data, score)) = self.unsorted.take() {
            self.rows = score.sort_by_score(&data, &self.rows);
        }
        let p = self.rows.get(self.pulled).copied();
        self.pulled += usize::from(p.is_some());
        p
    }

    /// The rows not yet handed out, in id order.
    fn into_rest(mut self) -> Vec<PointId> {
        if self.unsorted.is_none() {
            self.rows.drain(..self.pulled);
            self.rows.sort_unstable();
        }
        self.rows
    }
}

/// A progressive skyline result: confirmed members, one per [`EngineStream::next_row`] call,
/// in ascending query-score order. Created by [`SkylineEngine::query_streaming_at`].
///
/// Every yielded point is **final** — the stream never retracts — and the set of all yielded
/// points equals the batch [`SkylineEngine::query`] answer for the same preference at the
/// same epoch. The stream owns what it reads (a scan shares its generation's data), so it is
/// self-contained: callers may drop the engine lock (or the engine) and keep pulling.
#[derive(Debug)]
pub struct EngineStream {
    inner: StreamInner,
    deadline: Deadline,
    epoch: DatasetEpoch,
    method: MethodUsed,
}

impl EngineStream {
    /// Pulls the next confirmed skyline member, or `Ok(None)` once the stream is exhausted.
    ///
    /// The stream's [`Deadline`] is polled at block granularity; on expiry the call fails
    /// with [`SkylineError::DeadlineExceeded`] but the stream's position is preserved —
    /// [`EngineStream::set_deadline`] plus another pull resumes where it stopped.
    pub fn next_row(&mut self) -> Result<Option<PointId>> {
        // One check per pull; the scan adds one per block across long dominated runs.
        self.deadline.check()?;
        match &mut self.inner {
            StreamInner::Scan(scan) => scan.next_row(&self.deadline),
            StreamInner::Tree(tree) => Ok(tree.next()),
        }
    }

    /// Replaces the stream's deadline (e.g. a follower adopting a timed-out leader's stream
    /// under its own budget).
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// The engine epoch the stream is a snapshot of.
    pub fn epoch(&self) -> DatasetEpoch {
        self.epoch
    }

    /// Which algorithm is producing the stream.
    pub fn method(&self) -> MethodUsed {
        self.method
    }

    /// Drains the rest of the stream into a sorted-id batch answer — what
    /// [`SkylineEngine::query`] returns. A scan polls the deadline once per block, as a pull
    /// does; an unpulled tree-served answer comes back as computed, without a sort.
    pub fn collect_outcome(self) -> Result<QueryOutcome> {
        self.deadline.check()?;
        let skyline = match self.inner {
            StreamInner::Scan(mut scan) => {
                let mut rows = Vec::new();
                scan.drain_into(&mut rows, &self.deadline)?;
                rows.sort_unstable();
                rows
            }
            StreamInner::Tree(tree) => tree.into_rest(),
        };
        Ok(QueryOutcome {
            skyline,
            method: self.method,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::algo::bnl;
    use skyline_core::{
        DatasetBuilder, Dimension, DominanceContext, RowValue, Schema, SkylineError,
    };

    fn table3_data() -> Arc<Dataset> {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
            Dimension::nominal_with_labels("airline", ["G", "R", "W"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group, airline) in [
            (1600.0, 4.0, "T", "G"),
            (2400.0, 1.0, "T", "G"),
            (3000.0, 5.0, "H", "G"),
            (3600.0, 4.0, "H", "R"),
            (2400.0, 2.0, "M", "R"),
            (3000.0, 3.0, "M", "W"),
        ] {
            b.push_row([
                RowValue::Num(price),
                RowValue::Num(-class),
                group.into(),
                airline.into(),
            ])
            .unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn every_engine_config_agrees_with_the_oracle() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let configs = [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: usize::MAX },
            EngineConfig::Hybrid { top_k: 1 },
        ];
        let specs: Vec<Vec<(&str, &str)>> = vec![
            vec![("hotel-group", "M < *")],
            vec![("hotel-group", "M < H < *"), ("airline", "G < R < *")],
            vec![("airline", "W < *")],
            vec![],
        ];
        for config in configs {
            let engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            assert_eq!(engine.config(), config);
            for spec in &specs {
                let pref = Preference::parse(&schema, spec.clone()).unwrap();
                let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
                let expected = bnl::skyline(&ctx);
                let outcome = engine.query(&pref).unwrap();
                assert_eq!(
                    outcome.skyline, expected,
                    "config {config:?}, spec {spec:?}"
                );
            }
        }
    }

    #[test]
    fn hybrid_falls_back_to_adaptive_sfs_for_unpopular_values() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let engine = SkylineEngine::build(
            data.clone(),
            template.clone(),
            EngineConfig::Hybrid { top_k: 1 },
        )
        .unwrap();
        // Airline G (id 0) is the most frequent: materialized → answered by the IPO tree.
        let popular = Preference::parse(&schema, [("airline", "G < *")]).unwrap();
        assert_eq!(engine.query(&popular).unwrap().method, MethodUsed::IpoTree);
        // Airline W is unpopular → falls back to Adaptive SFS, same answer as the oracle.
        let unpopular = Preference::parse(&schema, [("airline", "W < *")]).unwrap();
        let outcome = engine.query(&unpopular).unwrap();
        assert_eq!(outcome.method, MethodUsed::AdaptiveSfs);
        let ctx = DominanceContext::for_query(&data, &template, &unpopular).unwrap();
        let expected = bnl::skyline(&ctx);
        assert_eq!(outcome.skyline, expected);
        // The full tree (`top_k` clamped to the cardinality) has no unpopular values.
        let full = SkylineEngine::build(data, template, EngineConfig::Hybrid { top_k: usize::MAX })
            .unwrap();
        let outcome = full.query(&unpopular).unwrap();
        assert_eq!(outcome.method, MethodUsed::IpoTree);
        assert_eq!(outcome.skyline, expected);
    }

    #[test]
    fn engine_is_send_and_sync() {
        // Compile-time assertion: one engine build must be shareable across threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SkylineEngine>();
        assert_send_sync::<AdaptiveSfs>();
        assert_send_sync::<QueryOutcome>();
        assert_send_sync::<SharedEngine>();
    }

    #[test]
    fn sfs_d_mutations_tombstone_and_append_without_rebuild() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let mut engine =
            SkylineEngine::build(data.clone(), template.clone(), EngineConfig::SfsD).unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        assert_eq!(engine.epoch(), DatasetEpoch::INITIAL);

        // Delete skyline member e (id 4: the cheap M package): the answer must change.
        let before = engine.query(&pref).unwrap().skyline;
        assert!(before.contains(&4));
        let epoch = engine.delete_row(4).unwrap();
        assert_eq!(epoch.get(), 1);
        assert!(!engine.is_row_live(4));
        assert_eq!(engine.live_rows(), 5);
        let after = engine.query(&pref).unwrap().skyline;
        assert!(!after.contains(&4), "tombstoned rows must never be served");
        let ctx = DominanceContext::for_query(engine.dataset(), &template, &pref).unwrap();
        let live: Vec<PointId> = engine
            .dataset()
            .point_ids()
            .filter(|&p| engine.is_row_live(p))
            .collect();
        assert_eq!(after, bnl::skyline_of(&ctx, &live));

        // Insert a dominating row: it must appear in the next answer.
        let epoch = engine.insert_row(&[100.0, -9.0], &[2, 0]).unwrap();
        assert_eq!(epoch.get(), 2);
        assert_eq!(engine.dataset().len(), 7);
        let answer = engine.query(&pref).unwrap().skyline;
        assert!(answer.contains(&6));
    }

    #[test]
    fn shared_engine_mutations_are_visible_to_every_clone() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let shared = SharedEngine::from(
            SkylineEngine::build(data, template, EngineConfig::Hybrid { top_k: 2 }).unwrap(),
        );
        let clone = shared.clone();
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        let before = shared.read().query(&pref).unwrap().skyline;
        let epoch = clone.write().insert_row(&[1.0, -9.0], &[2, 0]).unwrap();
        assert_eq!(epoch, shared.read().epoch());
        let after = shared.read().query(&pref).unwrap().skyline;
        assert_ne!(before, after, "clones must observe the mutation");
        assert!(after.contains(&6));
    }

    /// A non-finite cell is refused at the engine's insert under every configuration before
    /// anything moves: the epochs, the row count and the answers stay as they were.
    #[test]
    fn insert_row_refuses_non_finite_cells_and_keeps_the_epoch() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        for config in [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: 2 },
        ] {
            let mut engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            let before = engine.query(&pref).unwrap().skyline;
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(
                    matches!(
                        engine.insert_row(&[v, -9.0], &[2, 0]),
                        Err(SkylineError::InvalidArgument(_))
                    ),
                    "config {config:?}, cell {v}"
                );
                assert_eq!(engine.epoch(), DatasetEpoch::INITIAL);
                assert_eq!(engine.skyline_epoch(), DatasetEpoch::INITIAL);
                assert_eq!(engine.dataset().len(), 6);
                assert_eq!(engine.mutations_since_rebuild(), 0);
            }
            assert_eq!(engine.query(&pref).unwrap().skyline, before);
        }
    }

    /// One row store: every configuration serves from the very `Arc<Dataset>` it was built
    /// from — no transposed or copied twin — and the hybrid's engine and Adaptive-SFS
    /// fallback share it.
    #[test]
    fn point_block_exists_exactly_for_dominance_scanning_configs() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        for config in [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: 2 },
        ] {
            let engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            assert!(
                Arc::ptr_eq(engine.dataset_arc(), &data),
                "config {config:?}"
            );
            assert_eq!(engine.epoch(), DatasetEpoch::INITIAL, "config {config:?}");
        }
        let hybrid = SkylineEngine::build(
            data.clone(),
            template.clone(),
            EngineConfig::Hybrid { top_k: 2 },
        )
        .unwrap();
        assert!(Arc::ptr_eq(
            hybrid.dataset_arc(),
            hybrid.adaptive().unwrap().dataset_arc()
        ));
    }

    #[test]
    fn streaming_matches_batch_for_every_config_in_score_order() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let configs = [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: usize::MAX },
            EngineConfig::Hybrid { top_k: 1 },
        ];
        let specs: Vec<Vec<(&str, &str)>> = vec![
            vec![("hotel-group", "M < *")],
            vec![("hotel-group", "M < H < *"), ("airline", "G < R < *")],
            vec![("airline", "W < *")],
            vec![],
        ];
        for config in configs {
            let engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            for spec in &specs {
                let pref = Preference::parse(&schema, spec.clone()).unwrap();
                let batch = engine.query(&pref).unwrap();
                let mut stream = engine
                    .query_streaming_at(&pref, engine.epoch(), Deadline::none())
                    .unwrap();
                assert_eq!(stream.epoch(), engine.epoch());
                let mut streamed = Vec::new();
                let mut last_score = f64::NEG_INFINITY;
                let score = ScoreFn::for_preference(&schema, &pref).unwrap();
                while let Some(p) = stream.next_row().unwrap() {
                    let s = score.score(&data, p);
                    assert!(
                        s >= last_score,
                        "config {config:?}, spec {spec:?}: score order violated"
                    );
                    last_score = s;
                    streamed.push(p);
                }
                streamed.sort_unstable();
                assert_eq!(
                    streamed, batch.skyline,
                    "config {config:?}, spec {spec:?}: streamed set != batch skyline"
                );
            }
        }
    }

    /// The batch answer is the drained stream, so its reference is the BNL oracle, under
    /// every configuration.
    #[test]
    fn collect_outcome_reproduces_the_batch_answer() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let specs: Vec<Vec<(&str, &str)>> = vec![
            vec![("airline", "W < *")],
            vec![("hotel-group", "M < H < *"), ("airline", "G < R < *")],
            vec![],
        ];
        for config in [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: usize::MAX },
            EngineConfig::Hybrid { top_k: 2 },
        ] {
            let engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            for spec in &specs {
                let pref = Preference::parse(&schema, spec.clone()).unwrap();
                let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
                let outcome = engine
                    .query_streaming_at(&pref, engine.epoch(), Deadline::none())
                    .unwrap()
                    .collect_outcome()
                    .unwrap();
                assert_eq!(
                    outcome.skyline,
                    bnl::skyline(&ctx),
                    "config {config:?}, spec {spec:?}"
                );
            }
        }
    }

    /// A tree-served stream keeps the tree's answer in id order until it is pulled: drained
    /// unpulled it is exactly `IpoTree::query`; pulled, it comes in ascending score order,
    /// and draining then returns exactly the rows not yet handed out.
    #[test]
    fn a_tree_served_stream_sorts_on_its_first_pull_and_drains_the_rest() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let engine = SkylineEngine::build(
            data.clone(),
            template,
            EngineConfig::Hybrid { top_k: usize::MAX },
        )
        .unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        let open = || {
            engine
                .query_streaming_at(&pref, engine.epoch(), Deadline::none())
                .unwrap()
        };
        let expected = engine.ipo_tree().unwrap().query(&data, &pref).unwrap();
        assert!(expected.len() >= 3);
        let unpulled = open();
        assert_eq!(unpulled.method(), MethodUsed::IpoTree);
        assert_eq!(unpulled.collect_outcome().unwrap().skyline, expected);

        let score = ScoreFn::for_preference(&schema, &pref).unwrap();
        for k in 1..=expected.len() {
            let mut stream = open();
            let pulled: Vec<PointId> = (0..k)
                .map(|_| stream.next_row().unwrap().unwrap())
                .collect();
            assert_eq!(
                pulled,
                score.sort_by_score(&data, &expected)[..k],
                "k = {k}"
            );
            let rest = stream.collect_outcome().unwrap().skyline;
            let mut all = [pulled, rest.clone()].concat();
            all.sort_unstable();
            assert_eq!(all, expected, "k = {k}");
            assert!(
                rest.windows(2).all(|w| w[0] < w[1]),
                "k = {k}: rest in id order"
            );
        }
    }

    #[test]
    fn stream_deadline_expiry_aborts_the_pull_and_resumes_after_replacement() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let engine = SkylineEngine::build(data, template, EngineConfig::AdaptiveSfs).unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        let expected = engine.query(&pref).unwrap().skyline;

        // An expired deadline rejects stream construction outright.
        let expired = Deadline::within(std::time::Duration::ZERO);
        assert_eq!(
            engine
                .query_streaming_at(&pref, engine.epoch(), expired)
                .unwrap_err(),
            SkylineError::DeadlineExceeded
        );

        // Expiry mid-stream aborts the pull; replacing the deadline resumes the same stream.
        let mut stream = engine
            .query_streaming_at(&pref, engine.epoch(), Deadline::none())
            .unwrap();
        let first = stream.next_row().unwrap().unwrap();
        stream.set_deadline(Deadline::within(std::time::Duration::ZERO));
        assert_eq!(
            stream.next_row().unwrap_err(),
            SkylineError::DeadlineExceeded
        );
        stream.set_deadline(Deadline::none());
        let mut streamed = vec![first];
        while let Some(p) = stream.next_row().unwrap() {
            streamed.push(p);
        }
        streamed.sort_unstable();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn streams_pin_their_generation_snapshot_across_mutations() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        for config in [EngineConfig::SfsD, EngineConfig::AdaptiveSfs] {
            let mut engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
            let before = engine.query(&pref).unwrap().skyline;
            let mut stream = engine
                .query_streaming_at(&pref, engine.epoch(), Deadline::none())
                .unwrap();
            // A dominating insert lands mid-stream; the stream must keep answering from its
            // snapshot while fresh queries see the new row.
            engine.insert_row(&[1.0, -9.0], &[2, 0]).unwrap();
            let mut streamed = Vec::new();
            while let Some(p) = stream.next_row().unwrap() {
                streamed.push(p);
            }
            streamed.sort_unstable();
            assert_eq!(streamed, before, "config {config:?}: snapshot violated");
            assert!(engine.query(&pref).unwrap().skyline.contains(&6));
        }
    }

    #[test]
    fn query_streaming_at_rejects_stale_epochs() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let mut engine = SkylineEngine::build(data, template, EngineConfig::AdaptiveSfs).unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        let epoch = engine.epoch();
        assert!(engine
            .query_streaming_at(&pref, epoch, Deadline::none())
            .is_ok());
        engine.insert_row(&[1.0, 1.0], &[0, 0]).unwrap();
        assert!(matches!(
            engine.query_streaming_at(&pref, epoch, Deadline::none()),
            Err(SkylineError::EpochMismatch { .. })
        ));
    }

    #[test]
    fn accessors_expose_bound_state() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let engine =
            SkylineEngine::build(data.clone(), template, EngineConfig::AdaptiveSfs).unwrap();
        assert!(std::ptr::eq(engine.dataset(), &*data));
        assert!(Arc::ptr_eq(engine.dataset_arc(), &data));
        assert_eq!(engine.template().nominal_count(), 2);
        assert!(engine.adaptive().is_some());
        assert!(engine.ipo_tree().is_none());
    }
}
