//! The service: N dataset shards, each its own generational [`SharedEngine`], answered as one
//! logical service. There is no other serving path — **one shard is the single-engine case**
//! (see below).
//!
//! # One serving skyline
//!
//! The paper preprocesses the template skyline `SKY(R)` of the whole relation once because
//! every refinement's answer lies inside it: a row outside `G = SKY_R(D)` has an R-dominator
//! chain that ends in `G`, and R-dominance implies R′-dominance for any refinement R′, so
//! `SKY_{R′}(D) = SKY_{R′}(G)`. Each shard preprocesses its own `SKY_R(D_s)`; with two or
//! more shards the first miss at a new skyline-epoch vector (below) builds `G` from them,
//! once:
//!
//! 1. every healthy shard's sorted list — its `SKY_R(D_s)` — is read through the per-shard
//!    scatter, which contains panics, fires the failpoints and applies the deadline and the
//!    [`DegradePolicy`];
//! 2. one [`SkylineMerger`] pass under the template's orders finds `G`'s members — sound
//!    because each list is exactly its shard's `SKY_R(D_s)` (the merger's precondition) and
//!    the union property gives `G ⊆ ∪ SKY_R(D_s)`;
//! 3. the members are copied, in `(score, shard, row)` order, into one small [`Dataset`]
//!    with their [`GlobalRowId`]s beside it, and [`AdaptiveSfs::from_sorted_entries`] wraps
//!    them with the scores the lists already hold — no re-sort and no scan.
//!
//! Every miss at that vector is then one Adaptive-SFS query over `G`: a batch miss drains
//! one scan, a stream hands out that scan's rows as they are confirmed. No read scatters or
//! merges. `G`'s sorted list is exactly `SKY_R` of `G`'s own rows — the precondition of the
//! AFFECT lemma in `skyline_adaptive::asfs` — so the query returns
//! `SKY_{R′}(G) = SKY_{R′}(D)`. Like the merge, this relies on dominance being transitive.
//!
//! # Answers move only when a template skyline moves
//!
//! Answers and `G` are keyed by the vector of the shards' skyline epochs
//! ([`SkylineEngine::skyline_epoch`]): the dataset epoch at which a shard's `SKY_R(D_s)` last
//! changed membership, or at which its generation was installed. Since
//! `G = SKY_R(∪ SKY_R(D_s))` and `SKY_{R′}(D) = SKY_{R′}(G)`, while no shard's template
//! skyline changes `G` and every refinement's answer are the same [`GlobalRowId`]s: a
//! dominated insert or a non-member delete keeps the result cache and `G`. A write that
//! changes a shard's skyline moves the vector, and so does every swap, which also renumbers
//! rows. Deleting a member always moves it, so a cache hit never names a dead row. Answers
//! still report the dataset epochs ([`ShardedServed::epochs`]).
//!
//! One slot keeps the last complete `G`, keyed by its skyline-epoch vector, and a flag that
//! is up while a build runs. Concurrent misses at a new vector build once: the first raises
//! the flag and builds, the rest wait on the slot, each no longer than its own deadline, and
//! a waiter that finds no complete `G` when the flag drops builds alone. One flag suffices
//! because only one vector can be missed at a time: every miss holds a read guard on every
//! shard while it looks, waits and builds, so no write or swap moves the vector meanwhile.
//!
//! A build that misses a shard (quarantined, panicked or past the deadline, under a tolerant
//! [`DegradePolicy`]) is `SKY_R(H)` of the healthy shards' rows `H`; it serves its one
//! request and is never cached. Since `SKY_{R′}(SKY_R(H)) = SKY_{R′}(H)`, its answer is the
//! skyline of the healthy shards' rows — the partial-answer contract.
//! [`StatsSnapshot::template_skyline_builds`] counts the complete builds and
//! [`StatsSnapshot::global_skyline_rows`] reports `|G|`.
//!
//! With two or more shards no read consults a shard's IPO tree, so such a service holds only
//! [`EngineConfig::AdaptiveSfs`] engines: [`ShardedService::build`] builds them for a
//! [`EngineConfig::Hybrid`] config, and every constructor refuses any other engine. No
//! build, rebuild, snapshot or cold start pays for a tree. A service of two or more shards
//! also needs a template with an implicit form: it is the ranking `G`'s sorted list is
//! ordered by. Every shard must keep a sorted list, so a service refuses
//! [`EngineConfig::SfsD`] engines, which keep none.
//!
//! The pieces:
//!
//! * [`ShardPartition`] — how rows map to shards: a hash of one nominal dimension's value.
//!   Mutations route to their owning shard and touch only that engine's lock.
//! * [`ShardedService`] — the facade: queries with a result cache tagged by the
//!   skyline-epoch **vector** (a write invalidates exactly the answers whose shard skyline it
//!   changed: all of them, or none; a swap expires them, below). The batch and the streaming
//!   path share one miss path: one front end (admission, deadline, guards, key, cache
//!   lookup, quarantine policy), one open of the rows — `G`'s scan, or the engine's stream at
//!   one shard — and one finish that caches a complete answer. A batch answer is the stream
//!   drained at once.
//! * one rebuild path: the build threads of [`ShardedConfig::maintenance`] (a few threads
//!   shared by every shard under a global in-flight cap),
//!   [`ShardedService::force_rebuild_shard`] and quarantine recovery all run the same
//!   shard rebuild, which contains a panicking build and, when it installs, lifts a
//!   quarantine and writes the shard's snapshot through to [`ShardedConfig::snapshot_dir`].
//!
//! # A swap carries nothing across
//!
//! A generation swap renumbers a shard's rows but changes no answer. The install moves the
//! shard's skyline epoch to the new generation's epoch, so every cached answer and `G` keyed
//! by the old vector expire like any stale entry: the next lookup of each misses once and
//! recomputes it in the new id space. A swap the service did not drive (a caller rebuilding
//! an engine it handed to [`ShardedService::from_engines`]) moves the epoch the same way.
//! Nothing in the service knows about renumbering; a caller that holds row ids translates
//! them through the [`RowIdRemap`] the swap returns ([`ShardedService::force_rebuild_shard`]).
//!
//! # One shard: the single-engine service
//!
//! At one partition the engine's own tree or sorted list already is `G`: a miss is one engine
//! stream — drained for a batch answer, pulled for a streaming one — opened inline on the
//! caller's thread through the same scatter (so panics, failpoints and deadlines behave as
//! with N shards), and a one-shard service costs what its engine costs. Build it with
//! `shards: 1`, or wrap an engine that already exists with
//! [`ShardedService::from_engines`]. Answers are [`ShardedServed`]s whose rows are
//! `GlobalRowId { shard: 0, row }` (`row` is the engine's own id), the engine is
//! [`ShardedService::shard`]`(0)`, a rebuild is [`ShardedService::force_rebuild_shard`]`(0)`.
//! What a caller used to a bare engine will notice: a panic inside the only shard's query is
//! caught and quarantines shard 0 ([`SkylineError::ShardUnavailable`] under
//! [`DegradePolicy::FailClosed`], healed by the [`RecoveryPolicy`] or any rebuild that
//! installs) instead of unwinding into the caller; [`ShardedService::insert_row`] returns
//! the new row's [`GlobalRowId`] and [`ShardedService::delete_row`] takes one and returns
//! whether the row was live; and concurrent identical misses each run their own query.
//!
//! # Fault isolation
//!
//! Failures stay confined to the shard they happen on. A panic inside a read of a shard — a
//! leg of a `G` build, or the engine leg at one shard — or inside any rebuild of it is caught
//! ([`std::panic::catch_unwind`]) and **quarantines** that shard; under a tolerant
//! [`DegradePolicy`] the service keeps answering from the healthy shards — a partial answer
//! flagged with exactly the shards it is missing ([`ShardedServed::degraded_shards`], never
//! cached) — and the quarantined shard works its way back via bounded retry-with-backoff
//! generation rebuilds ([`RecoveryPolicy`]). Requests carry [`Deadline`]s (checked at block
//! granularity inside the elimination scans) and pass a bounded admission queue, so overload
//! sheds the newest arrivals instead of queueing without bound. A [`FaultInjector`] (armed
//! programmatically or via `SKYLINE_FAULTS`) gives every one of these paths a deterministic
//! trigger. A miss at a skyline-epoch vector whose `G` is built reads no shard, so it fires
//! no shard failpoint.

use crate::admission::{AdmissionPermit, AdmissionQueue};
use crate::cache::ResultCache;
use crate::executor;
use crate::faults::FaultInjector;
use crate::maintenance::Scheduler;
use crate::stats::{ServiceMetrics, StatsSnapshot};
use skyline::adaptive::{AdaptiveSfs, ScanMode, ScoredEntry};
use skyline::{
    EngineConfig, EngineStream, MaintenancePolicy, MethodUsed, SharedEngine, SkylineEngine,
};
use skyline_core::algo::sfs::Scan;
use skyline_core::score::ScoreFn;
use skyline_core::{
    CanonicalPreference, CompiledOrder, CompiledRelation, Dataset, DatasetEpoch, Deadline, PointId,
    Preference, Result, RowIdRemap, Schema, SkylineError, SkylineMerger, Template, ValueId,
};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How rows are assigned to shards. The assignment is a pure function of a row's nominal
/// values, so routing a mutation needs no directory — and both sides (initial partitioning
/// and later inserts) can never disagree.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardPartition {
    /// Hash of the value id of nominal dimension `dim` (a *nominal index*). Rows sharing a
    /// nominal value land on the same shard — frequency skew and all — which keeps
    /// per-shard nominal domains dense.
    HashNominal {
        /// Nominal index of the dimension hashed.
        dim: usize,
    },
}

impl ShardPartition {
    /// The shard owning a row with the given nominal values.
    pub fn shard_of(&self, shards: usize, nominal: &[ValueId]) -> usize {
        let Self::HashNominal { dim } = self;
        // splitmix64 finalizer: adjacent value ids spread over all shards.
        let mut h = nominal[*dim] as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
        (h ^ (h >> 31)) as usize % shards
    }

    /// Checks the partition against a schema.
    fn validate(&self, schema: &Schema) -> Result<()> {
        let Self::HashNominal { dim } = self;
        if *dim >= schema.nominal_count() {
            return Err(SkylineError::InvalidArgument(format!(
                "hash partition on nominal dimension {dim} but the schema has {}",
                schema.nominal_count()
            )));
        }
        Ok(())
    }
}

/// A row's global identity: which shard owns it and its row id *inside that shard's engine*.
///
/// Shard-local ids are renumbered by that shard's generation swaps (compaction), exactly
/// like a single engine's ids. A swap expires the cached answers that name them (module
/// docs); an id a caller holds is renumbered through the [`RowIdRemap`] the swap returns
/// ([`ShardedService::force_rebuild_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalRowId {
    /// Index of the owning shard.
    pub shard: usize,
    /// Row id inside that shard's engine.
    pub row: PointId,
}

/// One sharded answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedOutcome {
    /// The global skyline, ascending by [`GlobalRowId`]: grouped by shard in shard order,
    /// rows ascending within a shard.
    pub skyline: Vec<GlobalRowId>,
    /// One entry per *answering* shard — all shards for a complete answer, the healthy ones
    /// for a degraded answer. At one shard it is the method the engine answered with (its IPO
    /// tree or its Adaptive-SFS structure); with two or more shards every answer is one
    /// Adaptive-SFS query over the global template skyline built from those shards (module
    /// docs), so every entry is [`MethodUsed::AdaptiveSfs`].
    pub methods: Vec<MethodUsed>,
}

/// One answered sharded query, with serving provenance.
#[derive(Debug, Clone)]
pub struct ShardedServed {
    /// The answer (shared, not copied, between users asking equivalent preferences).
    /// When [`degraded_shards`](ShardedServed::degraded_shards) is non-empty this covers
    /// only the healthy shards' slices of the data.
    pub outcome: Arc<ShardedOutcome>,
    /// Whether the answer came from the result cache (always complete: partial answers are
    /// never cached).
    pub cache_hit: bool,
    /// The per-shard epoch vector the answer is valid for.
    pub epochs: Arc<[DatasetEpoch]>,
    /// Shards missing from the answer (quarantined or past the request deadline), ascending.
    /// Empty for a complete answer; only a tolerant [`DegradePolicy`] ever serves otherwise.
    pub degraded_shards: Vec<usize>,
    /// Wall-clock time spent serving this query.
    pub latency: Duration,
}

impl ShardedServed {
    /// Whether shards are missing from this answer.
    pub fn is_degraded(&self) -> bool {
        !self.degraded_shards.is_empty()
    }
}

/// What a request does when some shards cannot answer — quarantined after a panic, or past
/// the request [`Deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Any unavailable shard fails the whole request: [`SkylineError::ShardUnavailable`]
    /// names the first broken shard, or [`SkylineError::DeadlineExceeded`] when only
    /// deadlines were missed. The default — answers are always complete.
    #[default]
    FailClosed,
    /// Tolerate up to `max_degraded` unavailable shards: the answer is the skyline of the
    /// healthy rest, flagged with [`ShardedServed::degraded_shards`]. A useful
    /// subset now beats nothing at all — the regret-minimization stance applied to
    /// availability. Partial answers are never cached.
    Tolerate {
        /// Maximum shards an answer may be missing before the request fails anyway.
        max_degraded: usize,
    },
}

/// How a quarantined shard returns to service: bounded retries of a full generation rebuild
/// (the engine re-derives every serving structure, healing whatever the panic interrupted),
/// with exponential backoff between attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Automatic rebuild attempts before the shard stays quarantined until some other
    /// rebuild of it installs ([`ShardedService::force_rebuild_shard`], or one the
    /// [`MaintenancePolicy`] triggers). `0` disables automatic recovery entirely.
    pub max_attempts: u32,
    /// Backoff before the first automatic attempt; doubles after each failed one.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ShardHealth {
    quarantined: bool,
    /// Consecutive failures: the panic that quarantined the shard plus every failed
    /// recovery rebuild since.
    failures: u32,
    /// When the next automatic recovery attempt may run; `None` while healthy — or once the
    /// attempt budget is spent, after which only an explicit recovery can heal the shard.
    retry_at: Option<Instant>,
}

impl ShardHealth {
    const HEALTHY: Self = Self {
        quarantined: false,
        failures: 0,
        retry_at: None,
    };
}

/// The shard-health registry. The atomic count keeps the healthy path lock-free: serves
/// touch the mutex only while at least one shard is quarantined.
#[derive(Debug)]
struct Quarantine {
    states: Mutex<Vec<ShardHealth>>,
    active: AtomicUsize,
    policy: RecoveryPolicy,
}

impl Quarantine {
    fn new(shards: usize, policy: RecoveryPolicy) -> Self {
        Self {
            states: Mutex::new(vec![ShardHealth::HEALTHY; shards]),
            active: AtomicUsize::new(0),
            policy,
        }
    }

    /// Every update under this lock is a single slot assignment — nothing a panic could
    /// tear — so a poisoned lock (a fault-injected panic elsewhere on the stack) is
    /// recovered, not propagated.
    fn locked(&self) -> MutexGuard<'_, Vec<ShardHealth>> {
        self.states.lock().unwrap_or_else(|poisoned| {
            self.states.clear_poison();
            poisoned.into_inner()
        })
    }

    fn backoff(&self, failures: u32) -> Duration {
        let doublings = failures.saturating_sub(1).min(16);
        self.policy
            .initial_backoff
            .saturating_mul(1 << doublings)
            .min(self.policy.max_backoff)
    }

    /// Marks `shard` quarantined (a panic on its query or in a rebuild, or a failed recovery
    /// rebuild) and schedules its next automatic recovery attempt — unless the bounded
    /// attempt budget is spent, which parks the shard until another rebuild installs.
    fn quarantine(&self, shard: usize) {
        let mut states = self.locked();
        let state = &mut states[shard];
        if !state.quarantined {
            state.quarantined = true;
            self.active.fetch_add(1, Ordering::Relaxed);
        }
        state.failures = state.failures.saturating_add(1);
        state.retry_at = (state.failures <= self.policy.max_attempts)
            .then(|| Instant::now() + self.backoff(state.failures));
    }

    fn is_quarantined(&self, shard: usize) -> bool {
        self.active.load(Ordering::Relaxed) > 0 && self.locked()[shard].quarantined
    }

    /// Quarantined shards, ascending. Empty (without locking) while all shards are healthy.
    fn quarantined(&self) -> Vec<usize> {
        if self.active.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        self.locked()
            .iter()
            .enumerate()
            .filter(|(_, state)| state.quarantined)
            .map(|(s, _)| s)
            .collect()
    }

    /// Claims one shard whose automatic recovery is due, pushing its `retry_at` out by the
    /// backoff ceiling so concurrent serves do not pile onto the same rebuild (the attempt's
    /// own outcome reschedules or heals it long before that provisional time).
    fn claim_due(&self) -> Option<usize> {
        if self.active.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let now = Instant::now();
        let mut states = self.locked();
        for (s, state) in states.iter_mut().enumerate() {
            if state.quarantined && state.retry_at.is_some_and(|at| at <= now) {
                state.retry_at = Some(now + self.policy.max_backoff);
                return Some(s);
            }
        }
        None
    }

    fn mark_recovered(&self, shard: usize) {
        let mut states = self.locked();
        if states[shard].quarantined {
            self.active.fetch_sub(1, Ordering::Relaxed);
        }
        states[shard] = ShardHealth::HEALTHY;
    }
}

/// The shard engines plus what a rebuild of one touches — its failpoints, its quarantine
/// entry, its snapshot file — shared by the service and its build threads.
#[derive(Debug)]
pub(crate) struct ShardSet {
    pub(crate) engines: Vec<SharedEngine>,
    pub(crate) faults: FaultInjector,
    quarantine: Quarantine,
    snapshot_dir: Option<PathBuf>,
}

impl ShardSet {
    pub(crate) fn new(
        engines: Vec<SharedEngine>,
        recovery: RecoveryPolicy,
        snapshot_dir: Option<PathBuf>,
    ) -> Self {
        Self {
            quarantine: Quarantine::new(engines.len(), recovery),
            engines,
            faults: FaultInjector::from_env(),
            snapshot_dir,
        }
    }

    /// Rebuilds shard `s`'s generation on the calling thread — the one rebuild path behind
    /// the build threads' policy-driven cycles, [`ShardedService::force_rebuild_shard`] and
    /// quarantine recovery. Returns the swap's [`RowIdRemap`], or `Ok(None)` when a rebuild
    /// of `s` was already in flight.
    ///
    /// A full rebuild re-derives every serving structure from the shard's intact rows, so an
    /// install is the proof of health that lifts a quarantine; it also writes the shard's
    /// snapshot through to [`ShardedConfig::snapshot_dir`]. The `panic-on-build` failpoint
    /// fires first. A panicking build is contained here: the torn rebuild is aborted, the
    /// shard quarantined and [`SkylineError::ShardUnavailable`] returned. A build error on a
    /// quarantined shard counts as a failed recovery attempt.
    pub(crate) fn rebuild_shard(&self, s: usize) -> Result<Option<RowIdRemap>> {
        let engine = self.engines.get(s).ok_or_else(|| {
            SkylineError::InvalidArgument(format!(
                "shard {s} does not exist ({} shards)",
                self.engines.len()
            ))
        })?;
        let began = std::cell::Cell::new(false);
        let built = catch_unwind(AssertUnwindSafe(|| {
            self.faults.before_build(s);
            began.set(true);
            engine.rebuild_now()
        }));
        match built {
            Ok(Ok(Some(remap))) => {
                self.quarantine.mark_recovered(s);
                // Best-effort: a failed write keeps serving, and the next install retries.
                if let Some(dir) = &self.snapshot_dir {
                    if std::fs::create_dir_all(dir).is_ok() {
                        let _ = engine
                            .read()
                            .write_snapshot_file(&shard_snapshot_path(dir, s));
                    }
                }
                Ok(Some(remap))
            }
            Ok(Ok(None)) => Ok(None),
            Ok(Err(e)) => {
                if self.quarantine.is_quarantined(s) {
                    self.quarantine.quarantine(s);
                }
                Err(e)
            }
            Err(_panic) => {
                if began.get() && engine.read().rebuild_in_flight() {
                    // The panic unwound between `begin_rebuild` and the install; disarm the
                    // replay log or every later rebuild would skip as "already in flight".
                    // A failpoint panic began nothing: the rebuild in flight is another's.
                    engine.write().abort_rebuild();
                }
                self.quarantine.quarantine(s);
                Err(SkylineError::ShardUnavailable { shard: s })
            }
        }
    }
}

/// Tuning knobs for a [`ShardedService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConfig {
    /// Number of dataset shards (clamped to at least 1).
    pub shards: usize,
    /// How rows map to shards.
    pub partition: ShardPartition,
    /// Maximum number of cached answers (0 disables the cache).
    pub cache_capacity: usize,
    /// Number of independently locked cache shards (unrelated to dataset shards).
    pub cache_shards: usize,
    /// Worker threads for the per-shard scatter of a global-template-skyline build and for
    /// [`ShardedService::serve_batch`] (0 = one per available core).
    pub workers: usize,
    /// When set, a few build threads shared by every shard rebuild each shard whose debt
    /// crosses this policy.
    pub maintenance: Option<MaintenancePolicy>,
    /// Build threads (only with `maintenance`). This is the only build parallelism: each
    /// shard's rebuild preprocesses serially on one build thread, one rebuild at a time, so
    /// the service runs the smaller of this and `max_in_flight_builds` threads.
    pub build_threads: usize,
    /// Global cap on concurrently running shard rebuilds (only with `maintenance`): the
    /// service runs the smaller of this and `build_threads` build threads.
    pub max_in_flight_builds: usize,
    /// What a request does when shards cannot answer (default: fail closed).
    pub degrade: DegradePolicy,
    /// How quarantined shards return to service.
    pub recovery: RecoveryPolicy,
    /// Maximum concurrently admitted requests (batch items count individually); arrivals
    /// past the bound are shed immediately with [`SkylineError::Overloaded`]
    /// (reject-newest) and counted in [`StatsSnapshot::shed`]. `0` disables admission
    /// control.
    pub admission_depth: usize,
    /// When set, every generation a shard installs — policy-driven, forced or recovery
    /// rebuild alike — rewrites that shard's persistent snapshot in this directory, right
    /// after the install on the thread that ran the rebuild, best-effort — keeping
    /// `shard-NNNN.snap` files a [`ShardedService::from_snapshots`] cold start can rehydrate
    /// without preprocessing.
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            partition: ShardPartition::HashNominal { dim: 0 },
            cache_capacity: 4096,
            cache_shards: 16,
            workers: 0,
            maintenance: None,
            build_threads: 2,
            max_in_flight_builds: 2,
            degrade: DegradePolicy::FailClosed,
            recovery: RecoveryPolicy::default(),
            admission_depth: 0,
            snapshot_dir: None,
        }
    }
}

/// The canonical snapshot file name for shard `s` inside a snapshot directory.
fn shard_snapshot_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:04}.snap"))
}

/// The schema and template every shard shares — shard 0's — or a message naming the first
/// shard whose schema, template or engine configuration differs from shard 0's.
fn shared_shape<'a>(
    engines: impl IntoIterator<Item = &'a SkylineEngine>,
) -> std::result::Result<(Schema, Template), String> {
    let mut engines = engines.into_iter();
    let first = engines.next().expect("at least one shard");
    for (s, engine) in (1..).zip(engines) {
        let differing = if engine.dataset().schema() != first.dataset().schema() {
            "schema"
        } else if engine.template() != first.template() {
            "template"
        } else if engine.config() != first.config() {
            "engine configuration"
        } else {
            continue;
        };
        return Err(format!(
            "shard {s} carries a different {differing} than shard 0"
        ));
    }
    Ok((first.dataset().schema().clone(), first.template().clone()))
}

/// Refuses an engine configuration no shard of a `shards`-shard service may hold: SFS-D keeps
/// no sorted list to serve from, and at two or more shards every miss is answered from `G`,
/// so a hybrid shard's IPO tree would be built, rebuilt and snapshotted for no read.
fn check_shard_config(config: EngineConfig, shards: usize) -> Result<()> {
    let why = match config {
        EngineConfig::SfsD => {
            "a service serves from every shard's template skyline, which an SFS-D engine does \
             not keep"
        }
        EngineConfig::Hybrid { .. } if shards > 1 => {
            "a service of two or more shards answers every miss from the global template \
             skyline and never reads a hybrid shard's IPO tree; its shards must be AdaptiveSfs"
        }
        _ => return Ok(()),
    };
    Err(SkylineError::InvalidArgument(why.into()))
}

type EpochVector = Arc<[DatasetEpoch]>;

/// What a scatter returns: every answering shard's leg, ascending by shard, and the shards
/// missing from the answer (quarantined, panicked or past the deadline), ascending.
type Scattered<T> = (Vec<(usize, T)>, Vec<usize>);

/// The global template skyline `G` (module docs): `G`'s rows copied into one Adaptive-SFS
/// structure, whose row `i` is shard row `ids[i]`.
#[derive(Debug)]
struct GlobalSkyline {
    asfs: AdaptiveSfs,
    ids: Vec<GlobalRowId>,
    /// Shards the build missed, ascending; empty for a complete `G`.
    degraded: Vec<usize>,
}

/// How often a miss waiting on a build of `G` re-checks the build and its deadline when no
/// expiry comes sooner.
const FOLLOWER_POLL: Duration = Duration::from_millis(10);

/// The slot `G` lives in (module docs): the last complete build, with the skyline-epoch
/// vector it was built at, and whether a build is running. Every critical section is one
/// field read or write, so a poisoned lock is recovered rather than propagated.
#[derive(Debug, Default)]
struct GlobalSlot {
    state: Mutex<SlotState>,
    built: Condvar,
}

#[derive(Debug, Default)]
struct SlotState {
    last: Option<(EpochVector, Arc<GlobalSkyline>)>,
    building: bool,
}

impl SlotState {
    fn built_at(&self, tags: &EpochVector) -> Option<Arc<GlobalSkyline>> {
        self.last
            .as_ref()
            .filter(|(at, _)| at == tags)
            .map(|(_, global)| global.clone())
    }
}

impl GlobalSlot {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One wait for the running build to end, bounded by `deadline`: it wakes at the
    /// deadline's expiry, and polls a cancel token (or nothing) every `FOLLOWER_POLL`.
    fn wait<'s>(
        &'s self,
        state: MutexGuard<'s, SlotState>,
        deadline: &Deadline,
    ) -> Result<MutexGuard<'s, SlotState>> {
        deadline.check()?;
        let wait = deadline
            .remaining()
            .map_or(FOLLOWER_POLL, |rem| rem.min(FOLLOWER_POLL));
        let (state, _) = self
            .built
            .wait_timeout(state, wait)
            .unwrap_or_else(PoisonError::into_inner);
        Ok(state)
    }
}

/// The raised build flag of a [`GlobalSlot`]: dropping it — after a build, an error or a
/// panic — lowers the flag and wakes every waiter.
struct Building<'s>(&'s GlobalSlot);

impl Drop for Building<'_> {
    fn drop(&mut self) {
        self.0.lock().building = false;
        self.0.built.notify_all();
    }
}

/// A concurrent skyline service over N independently maintained dataset shards (see the
/// module docs).
#[derive(Debug)]
pub struct ShardedService {
    shards: Arc<ShardSet>,
    partition: ShardPartition,
    schema: Schema,
    template: Template,
    metrics: ServiceMetrics,
    degrade: DegradePolicy,
    admission: AdmissionQueue,
    /// The build threads, when [`ShardedConfig::maintenance`] is set.
    scheduler: Option<Scheduler>,
    workers: usize,
    /// The one home of the global template skyline `G`.
    global: GlobalSlot,
    cache: ResultCache<EpochVector, ShardedOutcome>,
}

impl ShardedService {
    /// Partitions `data` under `config.partition`, builds one engine per shard with the
    /// given `engine` configuration and shared `template`, and wires the serving machinery.
    /// At two or more shards a [`EngineConfig::Hybrid`] builds [`EngineConfig::AdaptiveSfs`]
    /// shards: every miss is answered from `G`, so a shard's tree would serve no read.
    /// [`EngineConfig::SfsD`] is refused before any shard is built.
    ///
    /// Row `p` of `data` becomes row `i` of its shard, where `i` counts the rows of `data`
    /// routed to that shard before `p` — the deterministic order
    /// [`ShardedService::partition_rows`] reports.
    pub fn build(
        data: &Dataset,
        template: Template,
        engine: EngineConfig,
        config: ShardedConfig,
    ) -> Result<Self> {
        let shard_count = config.shards.max(1);
        let engine = match engine {
            EngineConfig::Hybrid { .. } if shard_count > 1 => EngineConfig::AdaptiveSfs,
            other => other,
        };
        check_shard_config(engine, shard_count)?;
        let schema = data.schema().clone();
        config.partition.validate(&schema)?;

        let started = Instant::now();
        let mut owned: Vec<Vec<PointId>> = vec![Vec::new(); shard_count];
        for (p, g) in (0..).zip(Self::partition_rows(&config.partition, shard_count, data)) {
            owned[g.shard].push(p);
        }
        let shards: Vec<SharedEngine> = owned
            .iter()
            .map(|rows| {
                SkylineEngine::build(Arc::new(data.retained(rows)), template.clone(), engine)
                    .map(SharedEngine::new)
            })
            .collect::<Result<_>>()?;

        let metrics = ServiceMetrics::new();
        metrics.record_preprocess_build(started.elapsed());
        Self::assemble(shards, schema, template, config, metrics)
    }

    /// Cold-starts the service from the per-shard snapshot files
    /// [`ShardedService::write_snapshots`] (or the post-swap hooks of
    /// [`ShardedConfig::snapshot_dir`]) left in `dir` — `shard-0000.snap` through
    /// `shard-NNNN.snap`, one per configured shard — skipping preprocessing entirely: each
    /// shard's sorted list and columns (and, at one shard, its IPO tree) rehydrate from the
    /// checksummed bytes with their generation ids and epochs intact, so maintenance resumes
    /// exactly where the snapshotting service stopped.
    ///
    /// Every shard must carry the same schema, template and engine configuration (they were
    /// written by one service), and two or more shards must be
    /// [`EngineConfig::AdaptiveSfs`]: files holding hybrid shards, which earlier versions
    /// wrote, are refused. The shard *count* and partition come from `config` and must
    /// match the directory's files. A directory that also holds `shard-{count}.snap` was
    /// written by a larger service and is refused: loading a prefix of it would drop rows and
    /// route later inserts by the wrong shard count. The load is recorded in
    /// [`StatsSnapshot::snapshot_loads`] / [`StatsSnapshot::snapshot_load_ms`].
    pub fn from_snapshots(dir: &Path, config: ShardedConfig) -> Result<Self> {
        let shard_count = config.shards.max(1);
        let extra = shard_snapshot_path(dir, shard_count);
        if extra.exists() {
            return Err(SkylineError::Snapshot(format!(
                "{} exists, but the service is configured for {shard_count} shards",
                extra.display()
            )));
        }
        let started = Instant::now();
        let engines: Vec<SkylineEngine> = (0..shard_count)
            .map(|s| {
                SkylineEngine::from_snapshot_file(&shard_snapshot_path(dir, s))
                    .map_err(|e| SkylineError::Snapshot(format!("shard {s} of {shard_count}: {e}")))
            })
            .collect::<Result<_>>()?;
        let (schema, template) = shared_shape(&engines).map_err(SkylineError::Snapshot)?;
        config.partition.validate(&schema)?;
        let metrics = ServiceMetrics::new();
        metrics.record_snapshot_load(shard_count as u64, started.elapsed());
        let shards = engines.into_iter().map(SharedEngine::new).collect();
        Self::assemble(shards, schema, template, config, metrics)
    }

    /// Wires the serving machinery around engines that already exist — shard `i` is
    /// `engines[i]`. The shard count is `engines.len()` (`config.shards` is not consulted),
    /// and one engine is the single-engine service. Clones of a [`SharedEngine`] stay live
    /// handles to the shard: a fresh cold-cache service over one prebuilt engine costs no
    /// preprocessing.
    ///
    /// Every engine must carry the same schema, template and engine configuration, and two or
    /// more engines must be [`EngineConfig::AdaptiveSfs`] (the checks
    /// [`ShardedService::from_snapshots`] runs), and — as there — `config.partition`
    /// must be the one the engines' rows were placed under: later inserts are routed by it.
    pub fn from_engines(engines: Vec<SharedEngine>, config: ShardedConfig) -> Result<Self> {
        if engines.is_empty() {
            return Err(SkylineError::InvalidArgument(
                "a service needs at least one engine".into(),
            ));
        }
        let (schema, template) = {
            let guards: Vec<_> = engines.iter().map(|e| e.read()).collect();
            shared_shape(guards.iter().map(|g| &**g)).map_err(SkylineError::InvalidArgument)?
        };
        config.partition.validate(&schema)?;
        Self::assemble(engines, schema, template, config, ServiceMetrics::new())
    }

    /// Writes every shard's current generation to `dir` (created if missing) as
    /// `shard-NNNN.snap`, each through the atomic temp-file-and-rename path, and returns the
    /// written paths in shard order. The files are exactly what
    /// [`ShardedService::from_snapshots`] rehydrates.
    pub fn write_snapshots(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir).map_err(|e| {
            SkylineError::Snapshot(format!(
                "creating snapshot directory {}: {e}",
                dir.display()
            ))
        })?;
        let mut paths = Vec::with_capacity(self.shards.engines.len());
        for (s, shard) in self.shards.engines.iter().enumerate() {
            let path = shard_snapshot_path(dir, s);
            shard.read().write_snapshot_file(&path)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The common wiring behind every constructor: fault injection, quarantine, the build
    /// threads (when [`ShardedConfig::maintenance`] is set), caches and admission control.
    /// Every shard must keep a sorted list, so [`EngineConfig::SfsD`] engines are refused; two
    /// or more shards must be [`EngineConfig::AdaptiveSfs`] engines — a hybrid shard's tree
    /// would be rebuilt on every swap and never read — and need a template with an implicit
    /// form (module docs).
    fn assemble(
        engines: Vec<SharedEngine>,
        schema: Schema,
        template: Template,
        config: ShardedConfig,
        metrics: ServiceMetrics,
    ) -> Result<Self> {
        for engine in &engines {
            check_shard_config(engine.read().config(), engines.len())?;
        }
        if engines.len() > 1 && template.implicit().is_none() {
            return Err(SkylineError::InvalidArgument(
                "a service of two or more shards needs a template with an implicit form".into(),
            ));
        }
        let shards = Arc::new(ShardSet::new(engines, config.recovery, config.snapshot_dir));
        let scheduler = config.maintenance.map(|policy| {
            Scheduler::new(
                shards.clone(),
                policy,
                config.build_threads,
                config.max_in_flight_builds,
            )
        });
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        Ok(Self {
            shards,
            partition: config.partition,
            schema,
            template,
            metrics,
            degrade: config.degrade,
            admission: AdmissionQueue::new(config.admission_depth),
            scheduler,
            workers,
            global: GlobalSlot::default(),
            cache: ResultCache::new(config.cache_capacity, config.cache_shards),
        })
    }

    /// The deterministic initial placement of `data`'s rows: entry `p` is the
    /// [`GlobalRowId`] row `p` received from [`ShardedService::build`] with the same
    /// partition. Useful for callers that track external ids across the partitioning.
    pub fn partition_rows(
        partition: &ShardPartition,
        shards: usize,
        data: &Dataset,
    ) -> Vec<GlobalRowId> {
        let shards = shards.max(1);
        let mut next_row = vec![0 as PointId; shards];
        let mut nominal = vec![ValueId::default(); data.schema().nominal_count()];
        (0..data.len() as PointId)
            .map(|p| {
                for (j, v) in nominal.iter_mut().enumerate() {
                    *v = data.nominal(p, j);
                }
                let shard = partition.shard_of(shards, &nominal);
                let row = next_row[shard];
                next_row[shard] += 1;
                GlobalRowId { shard, row }
            })
            .collect()
    }

    /// Number of dataset shards.
    pub fn shard_count(&self) -> usize {
        self.shards.engines.len()
    }

    /// The engine serving shard `s` (read-lock it to inspect; do not hold the guard across
    /// service calls).
    pub fn shard(&self, s: usize) -> &SharedEngine {
        &self.shards.engines[s]
    }

    /// The row-to-shard mapping.
    pub fn partition(&self) -> &ShardPartition {
        &self.partition
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared template every shard was built under.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// Worker threads the per-shard scatter (and batches) spread over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Where post-swap snapshot writes land, when configured.
    pub fn snapshot_dir(&self) -> Option<&Path> {
        self.shards.snapshot_dir.as_deref()
    }

    /// Current number of cached answers.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Every shard's current mutation epoch, in shard order.
    pub fn epochs(&self) -> Vec<DatasetEpoch> {
        self.shards
            .engines
            .iter()
            .map(|s| s.read().epoch())
            .collect()
    }

    /// Total live rows across all shards.
    pub fn live_rows(&self) -> usize {
        self.shards
            .engines
            .iter()
            .map(|s| s.read().live_rows())
            .sum()
    }

    /// Counters accumulated since the service was built; `rebuilds` and `reclaimed_rows` sum
    /// every shard engine's counts.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        snapshot.stale_evictions = self.cache.stale_evictions();
        snapshot.queue_depth = self.admission.depth() as u64;
        for shard in &self.shards.engines {
            let engine = shard.read();
            snapshot.rebuilds += engine.rebuilds();
            snapshot.reclaimed_rows += engine.reclaimed_rows();
        }
        snapshot
    }

    /// Rebuilds shard `s`'s generation right now, on the calling thread, and waits for it;
    /// returns the swap's [`RowIdRemap`] (`None` when a rebuild of `s` was already in
    /// flight), as [`SharedEngine::rebuild_now`] does. An install expires the cached answers
    /// of the replaced generation (module docs), lifts the shard's quarantine and writes its
    /// snapshot through to [`ShardedConfig::snapshot_dir`]. A build that panics — the
    /// `panic-on-build` failpoint included — quarantines `s` and fails with
    /// [`SkylineError::ShardUnavailable`], the rule a panicking query leg follows.
    pub fn force_rebuild_shard(&self, s: usize) -> Result<Option<RowIdRemap>> {
        self.shards.rebuild_shard(s)
    }

    /// Rebuilds every shard's generation (sequentially); returns how many installed a new
    /// generation.
    pub fn force_rebuild_all(&self) -> Result<usize> {
        let mut installed = 0;
        for s in 0..self.shard_count() {
            if self.force_rebuild_shard(s)?.is_some() {
                installed += 1;
            }
        }
        Ok(installed)
    }

    /// Inserts a row, routed to its owning shard (only that shard's lock is taken), and
    /// returns its global id.
    pub fn insert_row(&self, numeric: &[f64], nominal: &[ValueId]) -> Result<GlobalRowId> {
        if numeric.len() != self.schema.numeric_count()
            || nominal.len() != self.schema.nominal_count()
        {
            self.metrics.record_error();
            return Err(SkylineError::RowShapeMismatch {
                expected: self.schema.arity(),
                got: numeric.len() + nominal.len(),
            });
        }
        let s = self.partition.shard_of(self.shard_count(), nominal);
        let mut engine = self.shards.engines[s].write();
        engine
            .insert_row(numeric, nominal)
            .inspect_err(|_| self.metrics.record_error())?;
        let row = (engine.dataset().len() - 1) as PointId;
        drop(engine);
        self.metrics.record_mutation();
        if let Some(scheduler) = &self.scheduler {
            scheduler.notify(s);
        }
        Ok(GlobalRowId { shard: s, row })
    }

    /// Logically deletes a row on its owning shard. Returns whether the row was live
    /// (deleting an already-deleted row is a no-op that moves no epoch).
    pub fn delete_row(&self, id: GlobalRowId) -> Result<bool> {
        let shard = self.shards.engines.get(id.shard).ok_or_else(|| {
            self.metrics.record_error();
            SkylineError::InvalidArgument(format!(
                "shard {} does not exist ({} shards)",
                id.shard,
                self.shard_count()
            ))
        })?;
        let mut engine = shard.write();
        let before = engine.epoch();
        let epoch = engine
            .delete_row(id.row)
            .inspect_err(|_| self.metrics.record_error())?;
        drop(engine);
        let was_live = epoch != before;
        if was_live {
            self.metrics.record_mutation();
            if let Some(scheduler) = &self.scheduler {
                scheduler.notify(id.shard);
            }
        }
        Ok(was_live)
    }

    /// Answers one query, consulting the result cache first.
    ///
    /// A preference any shard's engine would reject (schema or refinement violation) is
    /// rejected for the whole service, so sharding never changes which inputs are servable —
    /// a shard count of 1 behaves exactly like the engine alone.
    pub fn serve(&self, pref: &Preference) -> Result<ShardedServed> {
        self.serve_deadline(pref, &Deadline::none())
    }

    /// Like [`ShardedService::serve`] under a per-request [`Deadline`], with admission
    /// control in front: a request past the admission bound is shed immediately with
    /// [`SkylineError::Overloaded`], and an admitted one fails with
    /// [`SkylineError::DeadlineExceeded`] once its budget is spent — the elimination scans
    /// poll the deadline at block granularity, a miss waiting on another request's build of
    /// `G` gives up at expiry without touching the latch, and nothing partial or cancelled
    /// ever reaches the cache. A shard left out of a tolerated `G` build on the deadline
    /// degrades the answer; the query over the rows in hand then runs to completion, as late
    /// as the tolerant policy allows.
    ///
    /// A miss is the stream [`ShardedService::serve_streaming_deadline`] would hand out,
    /// drained at once.
    pub fn serve_deadline(&self, pref: &Preference, deadline: &Deadline) -> Result<ShardedServed> {
        let result = self
            .front_end(pref, deadline)
            .and_then(|mut front| match front.hit.take() {
                Some(outcome) => Ok(self.served_hit(outcome, &front)),
                None => self.open(front, pref, deadline.clone())?.drain(),
            });
        self.count_deadline_miss(result)
    }

    /// Counts a request that failed on its deadline — on either path, at any stage.
    fn count_deadline_miss<T>(&self, result: Result<T>) -> Result<T> {
        if matches!(result, Err(SkylineError::DeadlineExceeded)) {
            self.metrics.record_deadline_miss();
        }
        result
    }

    /// The front end both request paths share, up to the miss: admission, the upfront
    /// deadline check, opportunistic recovery, read guards on every shard with the epoch
    /// vector they pin, the canonical key, the servability check, the cache lookup and — on a
    /// miss — the policy check for shards already quarantined.
    fn front_end(&self, pref: &Preference, deadline: &Deadline) -> Result<Admitted<'_>> {
        let permit = self.admission.try_admit().inspect_err(|_| {
            self.metrics.record_shed();
        })?;
        // A request that arrives already expired or cancelled fails fast — even when the
        // answer would have been a cache hit, returning it to a caller that revoked the
        // request is wrong.
        deadline.check()?;
        // Opportunistic recovery: at most one due quarantined shard per request, *before*
        // any read guard is held (the rebuild needs the shard's write lock). Backoff keeps
        // this off the common path — `claim_due` is one atomic load while healthy. The
        // rebuild records its own outcome in the quarantine: healed, or rescheduled.
        if let Some(s) = self.shards.quarantine.claim_due() {
            let _ = self.shards.rebuild_shard(s);
        }
        let started = Instant::now();
        // Read guards for every shard, acquired in fixed index order: the epoch vectors, the
        // answer and the cache entry are mutually consistent, and writers (which take
        // exactly one shard's lock) cannot interleave. Quarantined shards are included — a
        // caught panic leaves their engines consistent (and their locks are poison-recovered),
        // it is only their availability that is suspect.
        let guards: Vec<_> = self.shards.engines.iter().map(|s| s.read()).collect();
        let epochs: EpochVector = guards.iter().map(|g| g.epoch()).collect();
        let tags: EpochVector = guards.iter().map(|g| g.skyline_epoch()).collect();
        let key = CanonicalPreference::new(&self.schema, pref)
            .inspect_err(|_| self.metrics.record_error())?;
        // Every constructor refuses shards whose schema or template differ (`shared_shape`),
        // so shard 0's verdict is every shard's.
        guards[0]
            .check_servable(pref)
            .inspect_err(|_| self.metrics.record_error())?;
        // Cached answers are complete by construction and the quarantined shards' data is
        // intact, so a hit keeps serving full answers right through a quarantine.
        let hit = self.cache.get(&key, tags.clone());
        let quarantined = match hit {
            Some(_) => Vec::new(),
            None => self.shards.quarantine.quarantined(),
        };
        if !quarantined.is_empty() {
            self.check_policy(quarantined.first().copied(), quarantined.len())?;
        }
        Ok(Admitted {
            permit,
            guards,
            epochs,
            tags,
            key,
            started,
            hit,
            quarantined,
        })
    }

    /// A cache hit as a batch answer.
    fn served_hit(&self, outcome: Arc<ShardedOutcome>, front: &Admitted<'_>) -> ShardedServed {
        let latency = front.started.elapsed();
        self.metrics.record(true, latency);
        ShardedServed {
            outcome,
            cache_hit: true,
            epochs: front.epochs.clone(),
            degraded_shards: Vec::new(),
            latency,
        }
    }

    /// Answers one query **progressively**: rows are handed out one at a time, in ascending
    /// query-score order, as the elimination scan confirms them — long before it finishes.
    /// With two or more shards that scan is the Adaptive-SFS query over the global template
    /// skyline `G` (module docs); at one shard it is the engine's own stream. Rows are never
    /// retracted, and the complete set equals the batch [`ShardedService::serve`] answer at
    /// the same epoch vector.
    ///
    /// Fault isolation carries over from the batch path: a shard that panics or misses the
    /// deadline while the stream is opened — in the build of `G`, or in the engine leg at
    /// one shard — is handled as there, and a panic in a later pull of the single shard's
    /// stream quarantines it. A degraded stream's final answer is never cached. A finished
    /// complete stream caches its answer, so the batch and streaming paths warm each other.
    /// Concurrent identical misses, streamed or batch, do **not** coalesce: each request
    /// drives its own scan, and only a build of `G` is shared. A stream is pull-paced by its
    /// caller, so a latch held for its life would park an identical `serve` *holding the
    /// shard read locks*, queue the next writer behind that reader and every later reader
    /// behind the writer — one slow consumer wedging the whole service.
    pub fn serve_streaming(&self, pref: &Preference) -> Result<ShardedStream<'_>> {
        self.serve_streaming_deadline(pref, Deadline::none())
    }

    /// [`ShardedService::serve_streaming`] under a per-request [`Deadline`], polled at block
    /// granularity inside each pull. Expiry fails the *pull* (counted in
    /// [`StatsSnapshot::deadline_misses`]); [`ShardedStream::set_deadline`] plus another
    /// pull resumes the scan where it stopped.
    ///
    /// Opening the stream follows the batch path's rule: a shard that misses the deadline
    /// while the stream is being opened degrades the answer like a quarantined one — under a
    /// tolerant [`DegradePolicy`] the stream opens without it (flagged in
    /// [`ShardedStream::degraded_shards`], never cached), under
    /// [`DegradePolicy::FailClosed`] the open fails with [`SkylineError::DeadlineExceeded`].
    /// The scan over a degraded `G` then runs to completion, as a drained one does.
    pub fn serve_streaming_deadline(
        &self,
        pref: &Preference,
        deadline: Deadline,
    ) -> Result<ShardedStream<'_>> {
        let result = self
            .front_end(pref, &deadline)
            .and_then(|front| self.open(front, pref, deadline))
            .inspect(|_| self.metrics.record_stream_started());
        self.count_deadline_miss(result)
    }

    /// Opens a request's rows past the front end, for both paths: a cache hit replays its
    /// answer in score order; a miss opens the engine's stream at one shard (through the
    /// scatter) or the Adaptive-SFS scan over `G` at two or more. The read guards are released
    /// on return — the scan owns shared handles to its rows, so a caller can pace its pulls
    /// for as long as it likes, or drain them at once, without blocking writers.
    fn open(
        &self,
        front: Admitted<'_>,
        pref: &Preference,
        deadline: Deadline,
    ) -> Result<ShardedStream<'_>> {
        let (state, degraded) = if let Some(outcome) = &front.hit {
            let ids = self
                .score_ordered_global(&front.guards, pref, &outcome.skyline)?
                .into_iter();
            self.metrics.record(true, front.started.elapsed());
            (ShardedStreamState::Replay { ids }, Vec::new())
        } else {
            // Re-ranking happens here; the elimination scan runs in the pulls or the drain.
            let (rows, methods, degraded) = if self.shard_count() == 1 {
                let (answered, degraded) = self.scatter(&front, |engine, s| {
                    engine.query_streaming_at(pref, front.epochs[s], deadline.clone())
                })?;
                let stream = answered.into_iter().next().map(|(_, stream)| stream);
                let methods = stream.iter().map(EngineStream::method).collect();
                (LiveRows::Engine(stream), methods, degraded)
            } else {
                let global = self.global_skyline(&front, &deadline)?;
                let scan = global
                    .asfs
                    .query_scan(pref, ScanMode::default())
                    .inspect_err(|_| self.metrics.record_error())?;
                let degraded = global.degraded.clone();
                let methods = vec![MethodUsed::AdaptiveSfs; self.shard_count() - degraded.len()];
                // A degraded build already spent what the tolerant policy allows on the
                // missing shards; the query over the rows in hand runs to completion.
                let deadline = if degraded.is_empty() {
                    deadline
                } else {
                    Deadline::none()
                };
                let scan = Box::new(scan);
                let rows = LiveRows::Global {
                    scan,
                    global,
                    deadline,
                };
                (rows, methods, degraded)
            };
            let live = LiveStream {
                rows,
                emitted: Vec::new(),
                methods,
                key: front.key,
            };
            (ShardedStreamState::Live(Box::new(live)), degraded)
        };
        Ok(ShardedStream {
            service: self,
            _permit: front.permit,
            epochs: front.epochs,
            tags: front.tags,
            started: front.started,
            ttfr_recorded: false,
            degraded,
            state,
        })
    }

    /// Replays a cached (shard-grouped) answer in the stream's ascending-score order, ties
    /// broken by global row id for determinism.
    fn score_ordered_global(
        &self,
        guards: &[parking_lot_free::Guard<'_>],
        pref: &Preference,
        ids: &[GlobalRowId],
    ) -> Result<Vec<GlobalRowId>> {
        let score = ScoreFn::for_preference(&self.schema, pref)?;
        let mut scored: Vec<(f64, GlobalRowId)> = ids
            .iter()
            .map(|&g| (score.score(guards[g.shard].dataset(), g.row), g))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        Ok(scored.into_iter().map(|(_, g)| g).collect())
    }

    /// Answers a batch of queries on the worker pool with [`ShardedService::serve`],
    /// preserving input order.
    pub fn serve_batch(&self, prefs: &[Preference]) -> Vec<Result<ShardedServed>> {
        executor::run_indexed(prefs, self.workers, |_, pref| self.serve(pref))
    }

    /// Shards currently quarantined (panicked and not yet recovered), ascending.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards.quarantine.quarantined()
    }

    /// The service's failpoint registry (disarmed unless `SKYLINE_FAULTS` was set when the
    /// service was built, or a test arms it programmatically).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.shards.faults
    }

    /// Policy gate for serving an answer missing `degraded_count` shards. `broken` is a
    /// quarantined/panicked shard to name in the error; `None` means only deadlines were
    /// missed, which is the request's fault, not a shard's.
    fn check_policy(&self, broken: Option<usize>, degraded_count: usize) -> Result<()> {
        match self.degrade {
            DegradePolicy::Tolerate { max_degraded } if degraded_count <= max_degraded => Ok(()),
            _ => {
                self.metrics.record_error();
                Err(match broken {
                    Some(shard) => SkylineError::ShardUnavailable { shard },
                    None => SkylineError::DeadlineExceeded,
                })
            }
        }
    }

    /// The per-shard scatter: `leg` runs on every shard the front end did not find
    /// quarantined, under its read guard, on the worker pool — the legs of a `G` build, or
    /// the engine leg at one shard. Each leg runs inside `catch_unwind`: a panicking shard (a
    /// bug in one engine, or an injected fault) is quarantined instead of unwinding through
    /// the pool and taking the request down. The results are settled by
    /// [`ShardedService::settle`].
    fn scatter<'f, T: Send>(
        &self,
        front: &'f Admitted<'_>,
        leg: impl Fn(&'f SkylineEngine, usize) -> Result<T> + Sync,
    ) -> Result<Scattered<T>> {
        let healthy: Vec<usize> = (0..self.shard_count())
            .filter(|s| !front.quarantined.contains(s))
            .collect();
        let scatter_victim = self.shards.faults.begin_scatter();
        let results = executor::run_indexed(&healthy, self.workers, |_, &s| {
            catch_unwind(AssertUnwindSafe(|| {
                self.shards.faults.before_shard_query(s, scatter_victim);
                leg(&front.guards[s], s)
            }))
        });
        self.settle(&front.quarantined, healthy.into_iter().zip(results))
    }

    /// Settles per-shard results, each caught by `catch_unwind`, beside the shards already
    /// `quarantined`: a panicked shard is quarantined, a panicked leg and a leg past the
    /// deadline degrade the answer exactly like a quarantined shard — through one policy
    /// check — and any other leg error fails the request.
    fn settle<T>(
        &self,
        quarantined: &[usize],
        results: impl IntoIterator<Item = (usize, std::thread::Result<Result<T>>)>,
    ) -> Result<Scattered<T>> {
        let mut answered = Vec::new();
        let (mut panicked, mut missed) = (Vec::new(), Vec::new());
        for (s, result) in results {
            match result {
                Ok(Ok(answer)) => answered.push((s, answer)),
                Ok(Err(SkylineError::DeadlineExceeded)) => missed.push(s),
                Ok(Err(err)) => {
                    self.metrics.record_error();
                    return Err(err);
                }
                Err(_panic) => {
                    self.shards.quarantine.quarantine(s);
                    panicked.push(s);
                }
            }
        }
        let mut degraded = [quarantined, &panicked, &missed].concat();
        degraded.sort_unstable();
        if !degraded.is_empty() {
            // Deadline misses are the request's fault, so they only fail the request as
            // `DeadlineExceeded`; a panicked (or already-quarantined) shard is named.
            self.check_policy(
                panicked.first().or(quarantined.first()).copied(),
                degraded.len(),
            )?;
        }
        Ok((answered, degraded))
    }

    /// The global template skyline `G` at the front end's skyline-epoch vector (module
    /// docs): the slot's complete build, or a new one. The first miss at a new vector raises
    /// the slot's flag and builds; a miss that finds the flag up waits for the build, no
    /// longer than its own deadline, and builds alone when none was stored. Only a complete
    /// build fills the slot. With shards quarantined before the miss the build cannot be
    /// complete, so it goes straight to the healthy shards.
    fn global_skyline(
        &self,
        front: &Admitted<'_>,
        deadline: &Deadline,
    ) -> Result<Arc<GlobalSkyline>> {
        if !front.quarantined.is_empty() {
            return self.build_global(front, deadline);
        }
        let mut state = self.global.lock();
        if let Some(global) = state.built_at(&front.tags) {
            return Ok(global);
        }
        let building = if state.building {
            while state.building {
                state = self
                    .global
                    .wait(state, deadline)
                    .inspect_err(|_| self.metrics.record_error())?;
            }
            self.metrics.record_coalesced();
            if let Some(global) = state.built_at(&front.tags) {
                return Ok(global);
            }
            None
        } else {
            state.building = true;
            Some(Building(&self.global))
        };
        drop(state);
        let global = self.build_global(front, deadline)?;
        if global.degraded.is_empty() {
            self.global.lock().last = Some((front.tags.clone(), global.clone()));
            self.metrics.record_template_skyline_build(global.ids.len());
        }
        drop(building); // wakes the waiters once the slot is filled
        Ok(global)
    }

    /// Builds `G` over every shard the scatter reaches (module docs, steps 1–3).
    fn build_global(
        &self,
        front: &Admitted<'_>,
        deadline: &Deadline,
    ) -> Result<Arc<GlobalSkyline>> {
        let (answered, degraded) = self.scatter(front, |engine, _| {
            deadline.check()?;
            Ok(engine
                .adaptive()
                .expect("assembly refuses engines without a sorted list")
                .sorted_entries())
        })?;
        let orders = self.template.orders().iter().map(CompiledOrder::compile);
        let mut merger = SkylineMerger::new(orders.collect(), self.schema.numeric_count());
        // Every candidate is pushed under its index in `candidates`.
        let mut candidates: Vec<(f64, GlobalRowId)> = Vec::new();
        for (shard, list) in &answered {
            let data = front.guards[*shard].dataset();
            for &ScoredEntry { score, point: row } in *list {
                let id = candidates.len() as PointId;
                merger.push(*shard, id, data.numeric_row(row), data.nominal_row(row))?;
                candidates.push((score, GlobalRowId { shard: *shard, row }));
            }
        }
        let mut members: Vec<(f64, GlobalRowId)> = merger
            .merge()
            .into_iter()
            .map(|(_, id)| candidates[id as usize])
            .collect();
        members.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut rows = Dataset::empty(self.schema.clone());
        let mut entries = Vec::with_capacity(members.len());
        for (i, &(score, g)) in (0..).zip(&members) {
            let data = front.guards[g.shard].dataset();
            rows.push_row_ids(data.numeric_row(g.row), data.nominal_row(g.row))?;
            entries.push(ScoredEntry::new(i, score));
        }
        Ok(Arc::new(GlobalSkyline {
            asfs: AdaptiveSfs::from_sorted_entries(rows, self.template.clone(), entries)?,
            ids: members.into_iter().map(|(_, g)| g).collect(),
            degraded,
        }))
    }
}

/// A request past the front end both paths share: its admission permit, read guards on every
/// shard with the epoch and skyline-epoch vectors they pin, and the canonical key — plus the
/// cached complete answer on a hit, or the shards quarantined before the scatter on a miss.
struct Admitted<'s> {
    permit: AdmissionPermit,
    guards: Vec<parking_lot_free::Guard<'s>>,
    /// Every shard's dataset epoch: what an answer reports and an engine query checks.
    epochs: EpochVector,
    /// Every shard's [`SkylineEngine::skyline_epoch`]: what the result cache and `G` are
    /// keyed by (module docs).
    tags: EpochVector,
    key: CanonicalPreference,
    started: Instant,
    hit: Option<Arc<ShardedOutcome>>,
    quarantined: Vec<usize>,
}

/// The per-stream serving state (see [`ShardedStream`]).
#[derive(Debug)]
enum ShardedStreamState {
    /// Cache hit: replay the memoized answer in ascending score order.
    Replay {
        ids: std::vec::IntoIter<GlobalRowId>,
    },
    /// A scan handing out confirmed rows.
    Live(Box<LiveStream>),
    /// Exhausted (terminal bookkeeping already done).
    Done,
}

/// The live state behind [`ShardedStreamState::Live`].
#[derive(Debug)]
struct LiveStream {
    rows: LiveRows,
    /// Every row handed out so far (becomes the cached answer on a complete finish).
    emitted: Vec<GlobalRowId>,
    /// The answer's [`ShardedOutcome::methods`].
    methods: Vec<MethodUsed>,
    key: CanonicalPreference,
}

/// Where a live stream's rows come from.
#[derive(Debug)]
enum LiveRows {
    /// One shard: its engine's stream; `None` once the shard dropped out of the answer.
    Engine(Option<EngineStream>),
    /// Two or more shards: the Adaptive-SFS scan over `G`, under the stream's deadline.
    Global {
        scan: Box<Scan<CompiledRelation>>,
        global: Arc<GlobalSkyline>,
        deadline: Deadline,
    },
}

/// A progressive sharded answer handed out by [`ShardedService::serve_streaming`]: confirmed
/// global skyline members, one per [`ShardedStream::next_row`] call, in ascending
/// query-score order.
///
/// The stream is pinned to the epoch vector it was created at ([`ShardedStream::epochs`])
/// — its scan owns shared handles to the rows it reads — and holds its admission permit
/// until dropped. [`ShardedStream::degraded_shards`] names the shards the answer will be
/// missing (only non-empty under a tolerant [`DegradePolicy`]).
#[derive(Debug)]
pub struct ShardedStream<'a> {
    service: &'a ShardedService,
    _permit: AdmissionPermit,
    epochs: EpochVector,
    /// The skyline-epoch vector a finished complete answer is cached under.
    tags: EpochVector,
    started: Instant,
    ttfr_recorded: bool,
    /// Shards missing from the answer, ascending.
    degraded: Vec<usize>,
    state: ShardedStreamState,
}

impl ShardedStream<'_> {
    /// The per-shard epoch vector the stream's answer is valid for.
    pub fn epochs(&self) -> &EpochVector {
        &self.epochs
    }

    /// Shards missing from the answer, ascending. Fixed when the stream opens, except at one
    /// shard, whose panic in a later pull adds it under a tolerant policy. Empty for replayed
    /// cache hits (cached answers are always complete).
    pub fn degraded_shards(&self) -> &[usize] {
        &self.degraded
    }

    /// Replaces the stream's deadline: an expired pull can be retried under a fresh budget
    /// and resumes the scan where it stopped.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        if let ShardedStreamState::Live(live) = &mut self.state {
            match &mut live.rows {
                LiveRows::Engine(Some(stream)) => stream.set_deadline(deadline),
                LiveRows::Engine(None) => {}
                LiveRows::Global { deadline: d, .. } => *d = deadline,
            }
        }
    }

    /// Pulls the next confirmed skyline member, or `Ok(None)` once the answer is complete.
    /// Rows already delivered are final regardless of later errors; deadline expiry
    /// preserves the scan's position (see [`ShardedStream::set_deadline`]).
    pub fn next_row(&mut self) -> Result<Option<GlobalRowId>> {
        let pulled = match &mut self.state {
            ShardedStreamState::Done => return Ok(None),
            ShardedStreamState::Replay { ids } => Ok(ids.next()),
            ShardedStreamState::Live(live) => match &mut live.rows {
                LiveRows::Global {
                    scan,
                    global,
                    deadline,
                } => deadline
                    // One check per pull, as an engine stream makes; the scan adds one per
                    // block across long dominated runs.
                    .check()
                    .and_then(|()| scan.next_row(deadline))
                    .map(|p| p.map(|p| global.ids[p as usize])),
                LiveRows::Engine(None) => Ok(None),
                LiveRows::Engine(Some(stream)) => {
                    match catch_unwind(AssertUnwindSafe(|| stream.next_row())) {
                        Ok(pulled) => pulled.map(|p| p.map(|row| GlobalRowId { shard: 0, row })),
                        Err(_panic) => {
                            // Mid-pull panic: quarantine the only shard. Rows already
                            // delivered remain valid; a tolerant policy ends the answer here.
                            self.service.shards.quarantine.quarantine(0);
                            live.rows = LiveRows::Engine(None);
                            live.methods.clear();
                            self.degraded = vec![0];
                            self.service.check_policy(Some(0), 1)?;
                            Ok(None)
                        }
                    }
                }
            },
        };
        match pulled {
            Ok(Some(g)) => {
                if let ShardedStreamState::Live(live) = &mut self.state {
                    live.emitted.push(g);
                }
                if !self.ttfr_recorded {
                    self.ttfr_recorded = true;
                    self.service.metrics.record_ttfr(self.started.elapsed());
                }
                Ok(Some(g))
            }
            Ok(None) => {
                self.finish();
                Ok(None)
            }
            Err(e) => {
                // One deadline governs the whole scan, so its expiry is the request's: fail
                // the pull (resumable).
                self.service.metrics.record_error();
                self.service.count_deadline_miss(Err(e))
            }
        }
    }

    /// Drains a live stream at once into its batch answer. The engine's stream drains through
    /// [`EngineStream::collect_outcome`], so a tree-served answer is never score-sorted, and
    /// a panic or deadline there is settled as a scatter leg's would be.
    fn drain(mut self) -> Result<ShardedServed> {
        if let ShardedStreamState::Live(live) = &mut self.state {
            match std::mem::replace(&mut live.rows, LiveRows::Engine(None)) {
                LiveRows::Engine(None) => {}
                LiveRows::Engine(Some(stream)) => {
                    let drained = catch_unwind(AssertUnwindSafe(|| stream.collect_outcome()));
                    let (answered, missing) = self.service.settle(&[], [(0, drained)])?;
                    if let Some((_, outcome)) = answered.into_iter().next() {
                        let rows = outcome.skyline.into_iter();
                        live.emitted = rows.map(|row| GlobalRowId { shard: 0, row }).collect();
                    } else {
                        live.methods.clear();
                        self.degraded = missing;
                    }
                }
                LiveRows::Global {
                    mut scan,
                    global,
                    deadline,
                } => {
                    let mut rows = Vec::new();
                    scan.drain_into(&mut rows, &deadline)
                        .inspect_err(|_| self.service.metrics.record_error())?;
                    live.emitted = rows.iter().map(|&p| global.ids[p as usize]).collect();
                }
            }
        }
        let (outcome, latency) = self.finish().expect("a miss opens a live stream");
        Ok(ShardedServed {
            outcome,
            cache_hit: false,
            epochs: self.epochs,
            degraded_shards: self.degraded,
            latency,
        })
    }

    /// Ends a live stream's miss, drained or pulled to its end: the rows sorted by global id
    /// (the layout of every cached answer), a complete answer cached at the skyline-epoch
    /// vector, a degraded one counted and **never cached**, and the miss recorded with its
    /// latency. `None` for a replayed hit, which was recorded at open.
    fn finish(&mut self) -> Option<(Arc<ShardedOutcome>, Duration)> {
        let done = std::mem::replace(&mut self.state, ShardedStreamState::Done);
        let ShardedStreamState::Live(live) = done else {
            return None;
        };
        let LiveStream {
            mut emitted,
            methods,
            key,
            ..
        } = *live;
        emitted.sort_unstable();
        let outcome = Arc::new(ShardedOutcome {
            skyline: emitted,
            methods,
        });
        if self.degraded.is_empty() {
            let tags = self.tags.clone();
            self.service.cache.insert(key, tags, outcome.clone());
        } else {
            self.service.metrics.record_degraded();
        }
        let latency = self.started.elapsed();
        self.service.metrics.record(false, latency);
        Some((outcome, latency))
    }

    /// Drains the rest of the stream, returning the remaining rows in emission (ascending
    /// query-score) order.
    pub fn collect_rows(mut self) -> Result<Vec<GlobalRowId>> {
        let mut rows = Vec::new();
        while let Some(g) = self.next_row()? {
            rows.push(g);
        }
        Ok(rows)
    }
}

/// Local alias spelling out the guard type the scatter borrows (std's rwlock read guard over
/// the engine).
mod parking_lot_free {
    pub(super) type Guard<'a> = std::sync::RwLockReadGuard<'a, skyline::SkylineEngine>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::{Dimension, NominalDomain};
    use skyline_datagen::{Distribution, ExperimentConfig, QueryGenerator};

    fn experiment(n: usize, seed: u64) -> (Arc<Dataset>, Template) {
        let config = ExperimentConfig {
            n,
            numeric_dims: 2,
            nominal_dims: 2,
            cardinality: 8,
            theta: 1.0,
            pref_order: 2,
            distribution: Distribution::AntiCorrelated,
            seed,
        };
        let data = Arc::new(config.generate_dataset());
        let template = config.template(&data);
        (data, template)
    }

    fn value_key(data: &Dataset, p: PointId) -> (Vec<u64>, Vec<ValueId>) {
        let schema = data.schema();
        (
            (0..schema.numeric_count())
                .map(|j| data.numeric(p, j).to_bits())
                .collect(),
            (0..schema.nominal_count())
                .map(|j| data.nominal(p, j))
                .collect(),
        )
    }

    /// The sharded skyline as a sorted multiset of row values (global ids are incomparable
    /// across different shard counts; values are the invariant).
    fn sharded_values(
        service: &ShardedService,
        served: &ShardedServed,
    ) -> Vec<(Vec<u64>, Vec<ValueId>)> {
        let mut values: Vec<_> = served
            .outcome
            .skyline
            .iter()
            .map(|g| value_key(service.shard(g.shard).read().dataset(), g.row))
            .collect();
        values.sort();
        values
    }

    #[test]
    fn sharded_matches_unsharded_on_a_static_dataset() {
        let (data, template) = experiment(600, 11);
        let unsharded =
            SkylineEngine::build(data.clone(), template.clone(), EngineConfig::AdaptiveSfs)
                .unwrap();
        let mut generator = QueryGenerator::new(7);
        let prefs = generator.random_preferences(data.schema(), &template, 2, 12, None);
        for shards in [1, 2, 3, 5] {
            let service = ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards,
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            assert_eq!(service.shard_count(), shards);
            assert_eq!(service.live_rows(), data.len());
            for pref in &prefs {
                let served = service.serve(pref).unwrap();
                let mut expected: Vec<_> = unsharded
                    .query(pref)
                    .unwrap()
                    .skyline
                    .iter()
                    .map(|&p| value_key(&data, p))
                    .collect();
                expected.sort();
                assert_eq!(
                    sharded_values(&service, &served),
                    expected,
                    "shards={shards}"
                );
            }
        }
    }

    #[test]
    fn epoch_vector_cache_hits_and_per_shard_invalidation() {
        let (data, template) = experiment(300, 3);
        let service = ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 3,
                workers: 1,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        let mut generator = QueryGenerator::new(5);
        let pref = generator.random_preference(data.schema(), &template, 2, None);

        let first = service.serve(&pref).unwrap();
        assert!(!first.cache_hit);
        let second = service.serve(&pref).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.outcome.skyline, second.outcome.skyline);
        assert_eq!(first.outcome.methods.len(), 3);

        // A mutation on one shard bumps only that shard's epoch — and still invalidates.
        let id = service.insert_row(&[0.01, 0.01], &[0, 0]).unwrap();
        let third = service.serve(&pref).unwrap();
        assert!(!third.cache_hit, "epoch vector moved with the shard");
        assert!(service.epochs()[id.shard] > DatasetEpoch::INITIAL);
        assert_eq!(service.stats().mutations, 1);

        // Deleting it again is routed to the same shard and epoch-bumps once more.
        assert!(service.delete_row(id).unwrap());
        assert!(!service.delete_row(id).unwrap(), "double delete is a no-op");
    }

    #[test]
    fn empty_shards_are_served_and_mutable() {
        // 2 rows over 4 shards: at least two shards start empty, and everything still works.
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal("g", NominalDomain::anonymous(8)),
        ])
        .unwrap();
        let mut data = Dataset::empty(schema.clone());
        data.push_row_ids(&[1.0], &[0]).unwrap();
        data.push_row_ids(&[2.0], &[1]).unwrap();
        let template = Template::empty(&schema);
        let service = ShardedService::build(
            &data,
            template,
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 4,
                workers: 2,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        // Favourite value 0: the (1.0, g=0) row dominates (2.0, g=1) on both dimensions.
        let pref = Preference::from_dims(vec![skyline_core::ImplicitPreference::new([0]).unwrap()]);
        let served = service.serve(&pref).unwrap();
        assert_eq!(
            served.outcome.skyline.len(),
            1,
            "x=1.0,g=0 dominates x=2.0,g=1"
        );
        // Inserting into a previously empty shard works and invalidates.
        let mut placed_empty = false;
        for v in 0..8u16 {
            let id = service.insert_row(&[0.5], &[v]).unwrap();
            placed_empty |= service.shard(id.shard).read().dataset().len() == 1;
        }
        assert!(placed_empty, "some insert landed on an empty shard");
        let after = service.serve(&pref).unwrap();
        assert!(!after.cache_hit);
        assert_eq!(after.outcome.skyline.len(), 1, "x=0.5 rows dominate");
    }

    /// Merged skyline of a subset of shards, computed independently of the serve path
    /// (per-shard engine queries + the public merger) — the ground truth for degraded
    /// answers.
    fn merge_of_shards(
        service: &ShardedService,
        shards: &[usize],
        pref: &Preference,
    ) -> Vec<(Vec<u64>, Vec<ValueId>)> {
        let orders: Vec<CompiledOrder> = service
            .template()
            .effective_orders(service.schema(), pref)
            .unwrap()
            .iter()
            .map(CompiledOrder::compile)
            .collect();
        let mut merger = SkylineMerger::new(orders, service.schema().numeric_count());
        for &s in shards {
            let guard = service.shard(s).read();
            let data = guard.dataset();
            for p in guard.query(pref).unwrap().skyline {
                let numeric: Vec<f64> = (0..service.schema().numeric_count())
                    .map(|j| data.numeric(p, j))
                    .collect();
                let nominal: Vec<ValueId> = (0..service.schema().nominal_count())
                    .map(|j| data.nominal(p, j))
                    .collect();
                merger.push(s, p, &numeric, &nominal).unwrap();
            }
        }
        let mut values: Vec<_> = merger
            .merge()
            .into_iter()
            .map(|(s, p)| value_key(service.shard(s).read().dataset(), p))
            .collect();
        values.sort();
        values
    }

    #[test]
    fn panicking_shard_is_quarantined_and_tolerant_gathers_degrade() {
        let (data, template) = experiment(300, 31);
        let service = ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 3,
                workers: 2,
                degrade: DegradePolicy::Tolerate { max_degraded: 1 },
                recovery: RecoveryPolicy {
                    max_attempts: 3,
                    initial_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(20),
                },
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        let mut generator = QueryGenerator::new(41);
        let pref = generator.random_preference(data.schema(), &template, 2, None);

        // Mid-scatter panic: shard 1 dies, the gather answers from shards 0 and 2.
        service.fault_injector().panic_on_shard_query(1, 1);
        let degraded = service.serve(&pref).unwrap();
        assert!(degraded.is_degraded());
        assert_eq!(degraded.degraded_shards, vec![1]);
        assert_eq!(service.quarantined_shards(), vec![1]);
        assert_eq!(degraded.outcome.methods.len(), 2, "two answering shards");
        assert_eq!(
            sharded_values(&service, &degraded),
            merge_of_shards(&service, &[0, 2], &pref),
            "degraded answer is exactly the healthy shards' merge"
        );
        assert!(
            degraded.outcome.skyline.iter().all(|g| g.shard != 1),
            "no row of a quarantined shard in a partial answer"
        );
        assert_eq!(service.cache_len(), 0, "partial answers are never cached");
        assert_eq!(service.stats().degraded, 1);

        // The shard stays quarantined (pre-scatter degraded path) until its backoff
        // recovery rebuild lands; then full — and cacheable — answers resume.
        std::thread::sleep(Duration::from_millis(5));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let served = service.serve(&pref).unwrap();
            if !served.is_degraded() {
                assert!(service.quarantined_shards().is_empty());
                assert_eq!(
                    sharded_values(&service, &served),
                    merge_of_shards(&service, &[0, 1, 2], &pref),
                    "recovered service serves the complete answer again"
                );
                break;
            }
            assert!(Instant::now() < deadline, "shard never recovered");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(service.serve(&pref).unwrap().cache_hit);
    }

    #[test]
    fn fail_closed_names_the_broken_shard_and_explicit_recovery_heals() {
        let (data, template) = experiment(200, 37);
        let service = ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 2,
                workers: 1,
                // Automatic recovery disabled: only an explicit rebuild may heal.
                recovery: RecoveryPolicy {
                    max_attempts: 0,
                    ..RecoveryPolicy::default()
                },
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        let mut generator = QueryGenerator::new(43);
        let pref = generator.random_preference(data.schema(), &template, 2, None);

        service.fault_injector().panic_on_shard_query(0, 1);
        assert_eq!(
            service.serve(&pref).unwrap_err(),
            SkylineError::ShardUnavailable { shard: 0 }
        );
        // Still quarantined: fail-closed keeps failing without another panic.
        assert_eq!(
            service.serve(&pref).unwrap_err(),
            SkylineError::ShardUnavailable { shard: 0 }
        );
        assert_eq!(service.quarantined_shards(), vec![0]);
        assert_eq!(service.cache_len(), 0);

        assert!(service.force_rebuild_shard(0).unwrap().is_some());
        assert!(service.quarantined_shards().is_empty());
        let served = service.serve(&pref).unwrap();
        assert!(!served.is_degraded());
        assert!(
            matches!(
                service.force_rebuild_shard(9),
                Err(SkylineError::InvalidArgument(_))
            ),
            "unknown shard"
        );
    }

    #[test]
    fn cached_answers_keep_serving_through_a_quarantine() {
        let (data, template) = experiment(250, 47);
        let service = ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 2,
                workers: 1,
                degrade: DegradePolicy::Tolerate { max_degraded: 1 },
                recovery: RecoveryPolicy {
                    max_attempts: 0,
                    ..RecoveryPolicy::default()
                },
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        let mut generator = QueryGenerator::new(53);
        let cached_pref = generator.random_preference(data.schema(), &template, 2, None);
        let full = service.serve(&cached_pref).unwrap();
        assert!(!full.cache_hit);

        // Quarantine shard 1 through a panicking rebuild: it installs nothing, so the
        // skyline-epoch vector, and with it the cached answer, stays put.
        service.fault_injector().panic_on_build(1, 1);
        assert!(matches!(
            service.force_rebuild_shard(1),
            Err(SkylineError::ShardUnavailable { shard: 1 })
        ));
        assert_eq!(service.quarantined_shards(), vec![1]);

        // The cached complete answer still serves — data is intact, only availability is
        // suspect — while fresh misses degrade.
        let hit = service.serve(&cached_pref).unwrap();
        assert!(hit.cache_hit);
        assert!(!hit.is_degraded());
        assert_eq!(hit.outcome.skyline, full.outcome.skyline);
        let other = generator.random_preference(data.schema(), &template, 1, None);
        assert_eq!(service.serve(&other).unwrap().degraded_shards, vec![1]);
    }

    #[test]
    fn shared_build_pool_maintains_all_shards() {
        let (data, template) = experiment(200, 23);
        let service = ShardedService::build(
            &data,
            template,
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 3,
                workers: 1,
                maintenance: Some(MaintenancePolicy {
                    dead_row_ratio: 0.01,
                    max_mutations_since_rebuild: u64::MAX,
                    poll_interval: Duration::from_millis(5),
                }),
                build_threads: 2,
                max_in_flight_builds: 1,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        // Delete one live row per shard; the pool must compact every shard on its own.
        for shard in 0..service.shard_count() {
            assert!(service.delete_row(GlobalRowId { shard, row: 0 }).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().rebuilds < 3 {
            assert!(Instant::now() < deadline, "pool never compacted all shards");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(service.stats().reclaimed_rows, 3);
        for s in 0..service.shard_count() {
            assert_eq!(service.shard(s).read().dead_rows(), 0);
        }
    }

    /// Sorted value multiset of streamed rows (mirrors [`sharded_values`] for streams).
    fn stream_values(
        service: &ShardedService,
        rows: &[GlobalRowId],
    ) -> Vec<(Vec<u64>, Vec<ValueId>)> {
        let mut values: Vec<_> = rows
            .iter()
            .map(|g| value_key(service.shard(g.shard).read().dataset(), g.row))
            .collect();
        values.sort();
        values
    }

    #[test]
    fn sharded_streaming_matches_batch_and_emits_in_score_order() {
        let (data, template) = experiment(500, 61);
        let build = || {
            ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards: 3,
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap()
        };
        let service = build();
        let mut generator = QueryGenerator::new(67);
        let pref = generator.random_preference(data.schema(), &template, 2, None);

        let stream = service.serve_streaming(&pref).unwrap();
        assert!(stream.degraded_shards().is_empty());
        let rows = stream.collect_rows().unwrap();
        assert!(!rows.is_empty());

        // Ascending global query-score emission.
        let score = ScoreFn::for_preference(data.schema(), &pref).unwrap();
        let scores: Vec<f64> = rows
            .iter()
            .map(|g| score.score(service.shard(g.shard).read().dataset(), g.row))
            .collect();
        assert!(
            scores.windows(2).all(|w| w[0] <= w[1]),
            "emission must be in ascending query-score order"
        );

        // The finished stream cached the merged answer in the exact batch layout: the
        // warmed batch path replays it, and it equals a cold service's answer bit for bit.
        let served = service.serve(&pref).unwrap();
        assert!(served.cache_hit, "finished stream warms the batch cache");
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, served.outcome.skyline);
        let fresh = build().serve(&pref).unwrap();
        assert_eq!(*served.outcome, *fresh.outcome);

        // A second stream replays the cache in the same score order.
        let replay = service
            .serve_streaming(&pref)
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(replay, rows);
        let stats = service.stats();
        assert_eq!(stats.streams_started, 2);
        assert!(stats.ttfr_p50 > Duration::ZERO);
    }

    #[test]
    fn streaming_scatter_panic_quarantines_and_degrades() {
        let (data, template) = experiment(300, 71);
        let service = ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 3,
                workers: 2,
                degrade: DegradePolicy::Tolerate { max_degraded: 1 },
                recovery: RecoveryPolicy {
                    max_attempts: 0,
                    ..RecoveryPolicy::default()
                },
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        let mut generator = QueryGenerator::new(73);
        let pref = generator.random_preference(data.schema(), &template, 2, None);

        service.fault_injector().panic_on_shard_query(1, 1);
        let stream = service.serve_streaming(&pref).unwrap();
        assert_eq!(stream.degraded_shards(), &[1]);
        let rows = stream.collect_rows().unwrap();
        assert!(rows.iter().all(|g| g.shard != 1));
        assert_eq!(
            stream_values(&service, &rows),
            merge_of_shards(&service, &[0, 2], &pref),
            "degraded stream is exactly the healthy shards' merge"
        );
        assert_eq!(service.quarantined_shards(), vec![1]);
        assert_eq!(service.cache_len(), 0, "degraded streams are never cached");
        assert_eq!(service.stats().degraded, 1);

        // Fail-closed (the default policy) refuses the stream outright instead.
        let strict = ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 2,
                workers: 1,
                recovery: RecoveryPolicy {
                    max_attempts: 0,
                    ..RecoveryPolicy::default()
                },
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        strict.fault_injector().panic_on_shard_query(0, 1);
        assert_eq!(
            strict.serve_streaming(&pref).unwrap_err(),
            SkylineError::ShardUnavailable { shard: 0 }
        );
    }

    #[test]
    fn an_expired_sharded_stream_resumes_under_a_fresh_deadline() {
        let (data, template) = experiment(400, 79);
        let build = || {
            ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards: 2,
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap()
        };
        let service = build();
        let mut generator = QueryGenerator::new(81);
        let pref = generator.random_preference(data.schema(), &template, 2, None);

        let token = skyline_core::CancelToken::new();
        let mut stream = service
            .serve_streaming_deadline(&pref, Deadline::none().with_cancel(token.clone()))
            .unwrap();
        let first = stream.next_row().unwrap().unwrap();
        token.cancel();
        assert_eq!(
            stream.next_row().unwrap_err(),
            SkylineError::DeadlineExceeded
        );
        // Delivered rows stay valid; a fresh budget resumes every shard where it stopped.
        stream.set_deadline(Deadline::none());
        let mut rows = vec![first];
        rows.extend(stream.collect_rows().unwrap());
        rows.sort_unstable();
        assert_eq!(rows, build().serve(&pref).unwrap().outcome.skyline);
    }

    #[test]
    fn a_sharded_stream_pins_its_epoch_vector_across_mutations() {
        let (data, template) = experiment(300, 83);
        let build = || {
            ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards: 3,
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap()
        };
        let service = build();
        let mut generator = QueryGenerator::new(83);
        let pref = generator.random_preference(data.schema(), &template, 2, None);
        let expected = build().serve(&pref).unwrap().outcome.skyline.clone();

        let mut stream = service.serve_streaming(&pref).unwrap();
        let first = stream.next_row().unwrap();
        // A dominating row lands mid-stream; the stream keeps serving its snapshot.
        let id = service.insert_row(&[0.0, 0.0], &[0, 0]).unwrap();
        assert!(service.epochs()[id.shard] > DatasetEpoch::INITIAL);

        let mut rows: Vec<GlobalRowId> = first.into_iter().collect();
        rows.extend(stream.collect_rows().unwrap());
        rows.sort_unstable();
        assert_eq!(rows, expected, "stream must serve its pinned snapshot");
    }

    /// A unique, pre-cleaned scratch directory for a snapshot test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "skyline-sharded-snap-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_bootstrap_round_trips_and_counts_loads() {
        let (data, template) = experiment(500, 91);
        let config = || ShardedConfig {
            shards: 3,
            workers: 2,
            ..ShardedConfig::default()
        };
        let built = ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::Hybrid { top_k: 8 },
            config(),
        )
        .unwrap();
        let mut generator = QueryGenerator::new(97);
        let prefs = generator.random_preferences(data.schema(), &template, 2, 8, None);

        let dir = scratch_dir("round-trip");
        // An empty directory is a clean error, never a panic or a half-built service.
        assert!(ShardedService::from_snapshots(&dir, config()).is_err());
        let paths = built.write_snapshots(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        let loaded = ShardedService::from_snapshots(&dir, config()).unwrap();

        assert_eq!(loaded.epochs(), built.epochs());
        assert_eq!(loaded.live_rows(), built.live_rows());
        for pref in &prefs {
            let a = built.serve(pref).unwrap();
            let b = loaded.serve(pref).unwrap();
            assert_eq!(sharded_values(&built, &a), sharded_values(&loaded, &b));
            assert_eq!(a.outcome.methods, b.outcome.methods);
        }
        let stats = loaded.stats();
        assert_eq!(stats.snapshot_loads, 3, "one load per shard");
        assert_eq!(built.stats().snapshot_loads, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_rebuilds_write_through_to_the_snapshot_dir() {
        let (data, template) = experiment(300, 101);
        let dir = scratch_dir("write-through");
        let config = || ShardedConfig {
            shards: 2,
            workers: 2,
            snapshot_dir: Some(dir.clone()),
            ..ShardedConfig::default()
        };
        let service =
            ShardedService::build(&data, template.clone(), EngineConfig::AdaptiveSfs, config())
                .unwrap();
        let id = service.insert_row(&[0.25, 0.25], &[1, 1]).unwrap();
        service.delete_row(id).unwrap();
        assert_eq!(service.force_rebuild_all().unwrap(), 2);
        // Every installed swap left its shard's snapshot behind; a cold start from them
        // carries the mutations (epochs, live rows, answers) without preprocessing.
        let loaded = ShardedService::from_snapshots(&dir, config()).unwrap();
        assert_eq!(loaded.epochs(), service.epochs());
        assert_eq!(loaded.live_rows(), service.live_rows());
        let mut generator = QueryGenerator::new(103);
        let pref = generator.random_preference(data.schema(), &template, 2, None);
        assert_eq!(
            sharded_values(&service, &service.serve(&pref).unwrap()),
            sharded_values(&loaded, &loaded.serve(&pref).unwrap()),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every driver of a rebuild runs the one rebuild path: a policy-driven pool cycle,
    /// `force_rebuild_shard` and the serve-driven recovery each lift the shard's quarantine
    /// when they install, and write the installed generation's snapshot through.
    #[test]
    fn every_rebuild_driver_heals_the_quarantine_and_persists_the_snapshot() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Driver {
            PoolCycle,
            Forced,
            Recovery,
        }
        let (data, template) = experiment(240, 107);
        let mut generator = QueryGenerator::new(109);
        let pref = generator.random_preference(data.schema(), &template, 2, None);
        let victim = 1;
        for driver in [Driver::PoolCycle, Driver::Forced, Driver::Recovery] {
            let dir = scratch_dir(&format!("heal-{driver:?}"));
            let service = ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards: 2,
                    workers: 1,
                    degrade: DegradePolicy::Tolerate { max_degraded: 1 },
                    // Only the recovery driver may heal by backoff: at once, on the next
                    // request.
                    recovery: RecoveryPolicy {
                        max_attempts: u32::from(driver == Driver::Recovery),
                        initial_backoff: Duration::ZERO,
                        ..RecoveryPolicy::default()
                    },
                    maintenance: (driver == Driver::PoolCycle).then(|| MaintenancePolicy {
                        dead_row_ratio: 1.0,
                        max_mutations_since_rebuild: 1,
                        poll_interval: Duration::from_millis(5),
                    }),
                    snapshot_dir: Some(dir.clone()),
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            service.fault_injector().panic_on_shard_query(victim, 1);
            assert_eq!(service.serve(&pref).unwrap().degraded_shards, vec![victim]);
            assert_eq!(service.quarantined_shards(), vec![victim]);

            match driver {
                // One delete crosses the eager policy; the write itself nudges the pool.
                Driver::PoolCycle => assert!(service
                    .delete_row(GlobalRowId {
                        shard: victim,
                        row: 0
                    })
                    .unwrap()),
                Driver::Forced => assert!(service.force_rebuild_shard(victim).unwrap().is_some()),
                Driver::Recovery => assert!(!service.serve(&pref).unwrap().is_degraded()),
            }
            // The snapshot is written right after the install that lifted the quarantine.
            let path = shard_snapshot_path(&dir, victim);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !path.exists() {
                assert!(Instant::now() < deadline, "{driver:?} never wrote {path:?}");
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(service.quarantined_shards().is_empty(), "{driver:?}");
            let installed = service.shard(victim).read();
            assert_eq!(installed.generation().id(), 1, "{driver:?}");
            assert!(
                std::fs::read(&path).unwrap() == installed.write_snapshot().unwrap(),
                "{driver:?}: the file is the installed generation"
            );
            drop(installed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Batch and stream share one rule for a leg that misses the deadline in the scatter:
    /// under a tolerant policy the answer degrades by that shard (not quarantined, never
    /// cached), under fail-closed the request fails with `DeadlineExceeded`.
    #[test]
    fn a_leg_past_the_deadline_follows_one_rule_on_both_paths() {
        let (data, template) = experiment(300, 109);
        let mut generator = QueryGenerator::new(113);
        let pref = generator.random_preference(data.schema(), &template, 2, None);
        let build = |degrade| {
            let service = ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards: 2,
                    workers: 1,
                    degrade,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            // Shard 1's leg starts only after the request's budget is spent.
            service
                .fault_injector()
                .delay_shard_query(1, Duration::from_millis(300));
            service
        };
        let deadline = || Deadline::within(Duration::from_millis(150));

        let tolerant = build(DegradePolicy::Tolerate { max_degraded: 1 });
        let served = tolerant.serve_deadline(&pref, &deadline()).unwrap();
        assert_eq!(served.degraded_shards, vec![1]);
        let stream = tolerant
            .serve_streaming_deadline(&pref, deadline())
            .unwrap();
        assert_eq!(stream.degraded_shards(), &[1]);
        let rows = stream.collect_rows().unwrap();
        assert_eq!(
            stream_values(&tolerant, &rows),
            sharded_values(&tolerant, &served)
        );
        assert_eq!(
            sharded_values(&tolerant, &served),
            merge_of_shards(&tolerant, &[0], &pref)
        );
        assert!(
            tolerant.quarantined_shards().is_empty(),
            "a deadline is no fault"
        );
        assert_eq!(tolerant.cache_len(), 0, "degraded answers are never cached");
        assert_eq!(tolerant.stats().degraded, 2);

        let closed = build(DegradePolicy::FailClosed);
        assert_eq!(
            closed.serve_deadline(&pref, &deadline()).unwrap_err(),
            SkylineError::DeadlineExceeded
        );
        assert_eq!(
            closed
                .serve_streaming_deadline(&pref, deadline())
                .unwrap_err(),
            SkylineError::DeadlineExceeded
        );
        assert_eq!(closed.stats().deadline_misses, 2);
        assert!(closed.quarantined_shards().is_empty());
    }

    /// At one shard a batch miss drains the engine's stream after the scatter opened it. A
    /// deadline that expires in between is settled as the leg's would be: the answer degrades
    /// by shard 0 under a tolerant policy (not quarantined, never cached), and the request
    /// fails with `DeadlineExceeded` under fail-closed.
    #[test]
    fn a_deadline_past_in_the_drain_is_settled_as_a_legs() {
        let (data, template) = experiment(300, 109);
        let pref = QueryGenerator::new(113).random_preference(data.schema(), &template, 2, None);
        for degrade in [
            DegradePolicy::Tolerate { max_degraded: 1 },
            DegradePolicy::FailClosed,
        ] {
            let service = ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards: 1,
                    degrade,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            let token = skyline_core::CancelToken::new();
            let deadline = Deadline::none().with_cancel(token.clone());
            let front = service.front_end(&pref, &deadline).unwrap();
            let stream = service.open(front, &pref, deadline).unwrap();
            token.cancel();
            let drained = stream.drain();
            if degrade == DegradePolicy::FailClosed {
                assert_eq!(drained.unwrap_err(), SkylineError::DeadlineExceeded);
            } else {
                let served = drained.unwrap();
                assert_eq!(served.degraded_shards, vec![0]);
                assert!(served.outcome.skyline.is_empty());
                assert!(served.outcome.methods.is_empty());
                assert_eq!(service.cache_len(), 0, "degraded answers are never cached");
                assert_eq!(service.stats().degraded, 1);
            }
            assert!(
                service.quarantined_shards().is_empty(),
                "a deadline is no fault"
            );
        }
    }

    // ---- One shard: the single-engine service ----

    /// A one-shard service around `engine`, default configuration otherwise.
    fn one_shard(engine: impl Into<SharedEngine>) -> ShardedService {
        ShardedService::from_engines(vec![engine.into()], ShardedConfig::default()).unwrap()
    }

    /// One row per entry of `nominal` (x = 1, 2, …) over one numeric and one cardinality-2
    /// nominal dimension.
    fn tiny(nominal: Vec<ValueId>) -> (Schema, Arc<Dataset>) {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal("g", NominalDomain::anonymous(2)),
        ])
        .unwrap();
        let numeric = (1..=nominal.len()).map(|x| x as f64).collect();
        let data = Dataset::from_columns(schema.clone(), vec![numeric], vec![nominal]).unwrap();
        (schema, Arc::new(data))
    }

    fn listing(values: &[ValueId]) -> Preference {
        Preference::from_dims(vec![skyline_core::ImplicitPreference::new(
            values.iter().copied(),
        )
        .unwrap()])
    }

    #[test]
    fn from_engines_derives_the_shard_count_and_checks_coherence() {
        let (data, template) = experiment(120, 5);
        let build = |config| {
            SharedEngine::new(SkylineEngine::build(data.clone(), template.clone(), config).unwrap())
        };
        // `config.shards` (default 4) is not consulted: two engines are two shards.
        let engine = build(EngineConfig::AdaptiveSfs);
        let service = ShardedService::from_engines(
            vec![engine.clone(), build(EngineConfig::AdaptiveSfs)],
            ShardedConfig::default(),
        )
        .unwrap();
        assert_eq!(service.shard_count(), 2);
        assert_eq!(service.live_rows(), 2 * data.len());
        assert!(service.workers() >= 1, "workers: 0 means one per core");
        // The service holds the caller's handle, not a copy: mutations are mutually visible.
        engine.write().delete_row(0).unwrap();
        assert_eq!(service.live_rows(), 2 * data.len() - 1);

        for bad in [
            vec![],
            vec![engine.clone(), build(EngineConfig::Hybrid { top_k: 3 })],
            vec![
                engine.clone(),
                SharedEngine::new(
                    SkylineEngine::build(
                        data.clone(),
                        Template::empty(data.schema()),
                        EngineConfig::AdaptiveSfs,
                    )
                    .unwrap(),
                ),
            ],
        ] {
            assert!(matches!(
                ShardedService::from_engines(bad, ShardedConfig::default()),
                Err(SkylineError::InvalidArgument(_))
            ));
        }
        // The partition is validated against the engines' schema (two nominal dimensions).
        assert!(ShardedService::from_engines(
            vec![engine],
            ShardedConfig {
                partition: ShardPartition::HashNominal { dim: 2 },
                ..ShardedConfig::default()
            },
        )
        .is_err());
    }

    /// Every constructor refuses an SFS-D shard: it keeps no template skyline to serve from.
    #[test]
    fn every_constructor_refuses_sfs_d_shards() {
        let (data, template) = experiment(120, 5);
        let refused = |built: Result<ShardedService>| {
            let Err(SkylineError::InvalidArgument(why)) = built else {
                panic!("an SFS-D shard must be refused");
            };
            assert!(why.contains("SFS-D"), "{why}");
        };
        for shards in [1, 2] {
            let config = ShardedConfig {
                shards,
                ..ShardedConfig::default()
            };
            refused(ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::SfsD,
                config.clone(),
            ));
            let engines: Vec<SkylineEngine> = (0..shards)
                .map(|_| {
                    SkylineEngine::build(data.clone(), template.clone(), EngineConfig::SfsD)
                        .unwrap()
                })
                .collect();
            let dir = scratch_dir(&format!("sfs-d-{shards}"));
            std::fs::create_dir_all(&dir).unwrap();
            for (s, engine) in engines.iter().enumerate() {
                engine
                    .write_snapshot_file(&shard_snapshot_path(&dir, s))
                    .unwrap();
            }
            refused(ShardedService::from_snapshots(&dir, config.clone()));
            let _ = std::fs::remove_dir_all(&dir);
            let shared = engines.into_iter().map(SharedEngine::new).collect();
            refused(ShardedService::from_engines(shared, config));
        }
    }

    /// At two shards a hybrid config builds Adaptive-SFS shards, which serve and snapshot
    /// exactly like an Adaptive-SFS build, and no constructor assembles two hybrid engines.
    /// One hybrid shard keeps its tree: every constructor accepts it and it serves.
    #[test]
    fn multi_shard_services_hold_no_ipo_tree() {
        let (data, template) = experiment(300, 5);
        let hybrid = EngineConfig::Hybrid { top_k: 3 };
        let sharded = |shards| ShardedConfig {
            shards,
            workers: 2,
            ..ShardedConfig::default()
        };
        let prefs =
            QueryGenerator::new(5).random_preferences(data.schema(), &template, 2, 64, None);

        let service = ShardedService::build(&data, template.clone(), hybrid, sharded(2)).unwrap();
        for s in 0..2 {
            assert_eq!(service.shard(s).read().config(), EngineConfig::AdaptiveSfs);
        }
        for pref in &prefs {
            assert!((0..2).all(|s| !service.shard(s).read().serves_from_tree(pref)));
            let served = service.serve(pref).unwrap();
            assert!(!served.outcome.methods.contains(&MethodUsed::IpoTree));
            assert_eq!(served.outcome.skyline, live_oracle(&service, pref));
        }
        let adaptive = ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::AdaptiveSfs,
            sharded(2),
        )
        .unwrap();
        let (dir, adaptive_dir) = (scratch_dir("hybrid-2"), scratch_dir("adaptive-2"));
        let written = service.write_snapshots(&dir).unwrap();
        for (a, b) in written
            .iter()
            .zip(adaptive.write_snapshots(&adaptive_dir).unwrap())
        {
            assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        }

        // Two hybrid engines, handed over or loaded from files, are refused.
        let refused = |built: Result<ShardedService>| {
            let Err(SkylineError::InvalidArgument(why)) = built else {
                panic!("two hybrid shards must be refused");
            };
            assert!(why.contains("IPO tree"), "{why}");
        };
        let engines: Vec<SkylineEngine> = (0..2)
            .map(|_| SkylineEngine::build(data.clone(), template.clone(), hybrid).unwrap())
            .collect();
        for (s, engine) in engines.iter().enumerate() {
            engine
                .write_snapshot_file(&shard_snapshot_path(&dir, s))
                .unwrap();
        }
        refused(ShardedService::from_snapshots(&dir, sharded(2)));
        let shared = engines.into_iter().map(SharedEngine::new).collect();
        refused(ShardedService::from_engines(shared, sharded(2)));

        // One shard: the engine's own tree is `G`.
        let one_dir = scratch_dir("hybrid-1");
        let built = ShardedService::build(&data, template.clone(), hybrid, sharded(1)).unwrap();
        built.write_snapshots(&one_dir).unwrap();
        let engine = SkylineEngine::build(data.clone(), template.clone(), hybrid).unwrap();
        let popular = prefs
            .iter()
            .find(|p| engine.serves_from_tree(p))
            .expect("some preference lists only materialized values");
        for service in [
            built,
            ShardedService::from_snapshots(&one_dir, sharded(1)).unwrap(),
            ShardedService::from_engines(vec![engine.into()], sharded(1)).unwrap(),
        ] {
            assert_eq!(service.shard(0).read().config(), hybrid);
            let served = service.serve(popular).unwrap();
            assert_eq!(served.outcome.methods, vec![MethodUsed::IpoTree]);
            assert_eq!(served.outcome.skyline, live_oracle(&service, popular));
        }
        for dir in [dir, adaptive_dir, one_dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn errors_pass_through_and_are_counted() {
        let (data, template) = experiment(100, 5);
        let service =
            one_shard(SkylineEngine::build(data, template, EngineConfig::AdaptiveSfs).unwrap());
        // Wrong arity: one nominal dimension instead of two.
        assert!(service.serve(&Preference::none(1)).is_err());
        let stats = service.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.served(), 0);
        assert_eq!(service.cache_len(), 0);
    }

    #[test]
    fn mutations_bump_the_epoch_and_are_counted() {
        let (data, template) = experiment(100, 5);
        let service =
            one_shard(SkylineEngine::build(data, template, EngineConfig::AdaptiveSfs).unwrap());
        assert_eq!(service.epochs(), vec![DatasetEpoch::INITIAL]);
        let id = service.insert_row(&[0.5, 0.5], &[0, 0]).unwrap();
        assert_eq!(id, GlobalRowId { shard: 0, row: 100 });
        let e1 = service.epochs()[0];
        assert!(e1 > DatasetEpoch::INITIAL);
        assert!(service
            .delete_row(GlobalRowId { shard: 0, row: 0 })
            .unwrap());
        let e2 = service.epochs()[0];
        assert!(e2 > e1);
        // Deleting the same row again is a no-op: same epoch, no mutation counted.
        assert!(!service
            .delete_row(GlobalRowId { shard: 0, row: 0 })
            .unwrap());
        assert_eq!(service.epochs()[0], e2);
        // Deleting a row (or on a shard) that never existed is an error.
        for missing in [
            GlobalRowId {
                shard: 0,
                row: 999_999,
            },
            GlobalRowId { shard: 1, row: 0 },
        ] {
            assert!(service.delete_row(missing).is_err());
        }
        let stats = service.stats();
        assert_eq!(stats.mutations, 2);
        assert_eq!(stats.errors, 2);
        assert_eq!(service.epochs()[0], service.shard(0).read().epoch());
    }

    /// A non-finite cell is refused at the service's insert at one and at two shards and
    /// counted as an error. It moves nothing: the epochs, the cached answers and the builds
    /// of `G` stay, and the answers after it equal the live oracle.
    #[test]
    fn insert_row_refuses_non_finite_cells_at_one_and_two_shards() {
        let (data, template) = experiment(200, 163);
        let prefs =
            QueryGenerator::new(167).random_preferences(data.schema(), &template, 2, 4, None);
        for shards in 1..=2 {
            let service = ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards,
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            for pref in &prefs {
                service.serve(pref).unwrap();
            }
            let (epochs, cached, before) = (service.epochs(), service.cache_len(), service.stats());
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(
                    matches!(
                        service.insert_row(&[0.5, v], &[0, 0]),
                        Err(SkylineError::InvalidArgument(_))
                    ),
                    "{shards} shards, cell {v}"
                );
            }
            let after = service.stats();
            assert_eq!(service.epochs(), epochs);
            assert_eq!(service.cache_len(), cached);
            assert_eq!(after.errors, before.errors + 3);
            assert_eq!(after.mutations, before.mutations);
            assert_eq!(
                after.template_skyline_builds,
                before.template_skyline_builds
            );
            for pref in &prefs {
                let served = service.serve(pref).unwrap();
                assert!(served.cache_hit, "{shards} shards: the cached answer stays");
                assert_eq!(served.outcome.skyline, live_oracle(&service, pref));
            }
        }
    }

    #[test]
    fn non_refining_queries_error_even_after_an_equivalent_entry_was_cached() {
        // Template with the *full-domain* implicit list [0, 1] on a cardinality-2 dimension:
        // the refining query [0, 1] and the non-refining query [0] induce the same partial
        // order, hence share a canonical cache key — but only the first may be answered.
        let (schema, data) = tiny(vec![0, 1]);
        let template = Template::from_preference(&schema, listing(&[0, 1])).unwrap();
        let service =
            one_shard(SkylineEngine::build(data, template, EngineConfig::AdaptiveSfs).unwrap());

        let (refining, non_refining) = (listing(&[0, 1]), listing(&[0]));
        // Same canonical key, different refinement status.
        assert_eq!(
            refining.canonicalize(&schema).unwrap(),
            non_refining.canonicalize(&schema).unwrap()
        );
        assert!(service.shard(0).read().query(&non_refining).is_err());

        assert!(service.serve(&refining).is_ok());
        assert!(
            matches!(
                service.serve(&non_refining),
                Err(SkylineError::NotARefinement { .. })
            ),
            "cache state must not change which inputs are rejected"
        );
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn unmaterialized_queries_are_answered_even_after_an_equivalent_entry_was_cached() {
        // Hybrid { top_k: 1 } over a cardinality-2 dimension materializes only the most
        // frequent value 0. `[0]` (tree-served) and `[0, 1]` (lists unmaterialized value 1,
        // answered by the fallback) share a canonical key: whichever of the two filled the
        // cache, both are accepted and get the same answer.
        let (schema, data) = tiny(vec![0, 0, 1]);
        let (popular, unmaterialized) = (listing(&[0]), listing(&[0, 1]));
        assert_eq!(
            popular.canonicalize(&schema).unwrap(),
            unmaterialized.canonicalize(&schema).unwrap()
        );
        let engine = SkylineEngine::build(
            data,
            Template::empty(&schema),
            EngineConfig::Hybrid { top_k: 1 },
        )
        .unwrap();
        assert!(engine.serves_from_tree(&popular));
        assert!(!engine.serves_from_tree(&unmaterialized));
        let service = one_shard(engine);
        let first = service.serve(&popular).unwrap();
        let second = service.serve(&unmaterialized).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.outcome.skyline, second.outcome.skyline);
    }

    /// An entry cached *before* back-to-back generation rebuilds is not served after them: the
    /// first lookup drops it once and recomputes the answer in the newest id space, and the
    /// recomputed entry serves until the next swap.
    #[test]
    fn back_to_back_rebuilds_expire_pre_swap_entries_once() {
        let (data, template) = experiment(300, 5);
        let service = one_shard(
            SkylineEngine::build(
                data.clone(),
                template.clone(),
                EngineConfig::Hybrid { top_k: 3 },
            )
            .unwrap(),
        );
        let mut generator = QueryGenerator::new(21);
        let pref = generator.random_preference(data.schema(), &template, 2, None);
        let fresh = |pref: &Preference| -> Vec<GlobalRowId> {
            let rows = service.shard(0).read().query(pref).unwrap().skyline;
            rows.into_iter()
                .map(|row| GlobalRowId { shard: 0, row })
                .collect()
        };

        // A tombstone gives the first rebuild something to reclaim (a renumbering remap).
        service
            .delete_row(GlobalRowId { shard: 0, row: 0 })
            .unwrap();
        assert!(!service.serve(&pref).unwrap().cache_hit);

        // Two back-to-back rebuilds: swap 1 compacts, swap 2 has nothing to reclaim but
        // still opens a fresh epoch.
        assert!(service.force_rebuild_shard(0).unwrap().is_some());
        assert!(service.force_rebuild_shard(0).unwrap().is_some());
        assert_eq!(service.stats().rebuilds, 2);

        let after = service.serve(&pref).unwrap();
        assert!(!after.cache_hit, "a pre-swap entry is never served");
        assert_eq!(after.outcome.skyline, fresh(&pref));
        assert_eq!(service.stats().stale_evictions, 1, "dropped once");
        assert!(service.serve(&pref).unwrap().cache_hit);

        // Nine more swaps in a row: the entry still expires once and is recomputed.
        for _ in 0..9 {
            assert!(service.force_rebuild_shard(0).unwrap().is_some());
        }
        let after = service.serve(&pref).unwrap();
        assert!(!after.cache_hit);
        assert_eq!(after.outcome.skyline, fresh(&pref));
        assert_eq!(service.stats().stale_evictions, 2);
    }

    /// A stream opened before a swap caches its answer after the install: in the replaced id
    /// space, under the replaced skyline epoch. That entry must expire, not serve — the next
    /// `serve` equals a fresh evaluation in the new id space.
    #[test]
    fn a_stream_that_straddles_a_swap_never_serves_old_ids() {
        let (data, template) = experiment(300, 13);
        let mut generator = QueryGenerator::new(5);
        let pref = generator.random_preference(data.schema(), &template, 2, None);
        for shards in [1, 2] {
            let config = ShardedConfig {
                shards,
                workers: 1,
                ..ShardedConfig::default()
            };
            let service =
                ShardedService::build(&data, template.clone(), EngineConfig::AdaptiveSfs, config)
                    .unwrap();
            // A dead row 0 makes the rebuild renumber every other row of shard 0.
            assert!(service
                .delete_row(GlobalRowId { shard: 0, row: 0 })
                .unwrap());
            let mut stream = service.serve_streaming(&pref).unwrap();
            assert!(stream.next_row().unwrap().is_some());
            assert!(service.force_rebuild_shard(0).unwrap().is_some());
            stream.collect_rows().unwrap();

            let served = service.serve(&pref).unwrap();
            let fresh = live_oracle(&service, &pref);
            assert!(
                fresh.iter().any(|g| g.shard == 0),
                "the answer names renumbered rows"
            );
            assert_eq!(served.outcome.skyline, fresh, "shards = {shards}");
        }
    }

    // ---- The global template skyline ----

    /// The brute-force skyline of every row live on any shard, ascending by shard, then row.
    fn live_oracle(service: &ShardedService, pref: &Preference) -> Vec<GlobalRowId> {
        let mut union = Dataset::empty(service.schema().clone());
        let mut ids = Vec::new();
        for shard in 0..service.shard_count() {
            let engine = service.shard(shard).read();
            let data = engine.dataset();
            for row in data.live_ids() {
                union
                    .push_row_ids(data.numeric_row(row), data.nominal_row(row))
                    .unwrap();
                ids.push(GlobalRowId { shard, row });
            }
        }
        let ctx =
            skyline_core::DominanceContext::for_query(&union, service.template(), pref).unwrap();
        let skyline = skyline_core::algo::bnl::skyline(&ctx);
        skyline.into_iter().map(|p| ids[p as usize]).collect()
    }

    /// The members of the cached `G`, ascending.
    fn global_members(service: &ShardedService) -> Vec<GlobalRowId> {
        let slot = service.global.lock();
        let (_, global) = slot.last.as_ref().expect("a complete G is cached");
        let mut ids = global.ids.clone();
        ids.sort_unstable();
        ids
    }

    /// Two misses at the current epoch vector — a batch of `prefs[0]` and a stream of
    /// `prefs[1]`, neither asked at this vector before — each equal to the oracle; `G`'s rows
    /// equal BNL `SKY_R` over the live rows; and the vector cost exactly one build. Returns
    /// the batch answer.
    fn check_global(service: &ShardedService, prefs: [&Preference; 2]) -> Vec<GlobalRowId> {
        let builds = service.stats().template_skyline_builds;
        let batch = service.serve(prefs[0]).unwrap();
        assert!(!batch.cache_hit);
        assert_eq!(batch.outcome.skyline, live_oracle(service, prefs[0]));
        assert_eq!(batch.outcome.methods.len(), service.shard_count());
        let mut streamed = service
            .serve_streaming(prefs[1])
            .unwrap()
            .collect_rows()
            .unwrap();
        streamed.sort_unstable();
        assert_eq!(streamed, live_oracle(service, prefs[1]));
        let stats = service.stats();
        assert_eq!(
            stats.template_skyline_builds,
            builds + 1,
            "one build per vector"
        );
        let template = service.template().implicit().unwrap().clone();
        let members = global_members(service);
        assert_eq!(members, live_oracle(service, &template), "G = SKY_R(D)");
        assert_eq!(stats.global_skyline_rows, members.len() as u64);
        batch.outcome.skyline.clone()
    }

    /// Template `0 ≺ *` over two shards: `d = (1, 1, 0)` on shard 0 is the only template
    /// dominator of `r = (2, 2, 1)` on shard 1, beside `r`'s incomparable shard-mate
    /// `s = (0, 5, 1)`. `G` leaves `r` out while `d` lives, takes it back when `d` goes, and
    /// leaves it out again under a new dominator, across rebuilds that renumber rows.
    #[test]
    fn global_template_skyline_follows_the_data() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::numeric("y"),
            Dimension::nominal("g", NominalDomain::anonymous(6)),
        ])
        .unwrap();
        let data = Dataset::from_columns(
            schema.clone(),
            vec![vec![1.0, 2.0, 0.0], vec![1.0, 2.0, 5.0]],
            vec![vec![0, 1, 1]],
        )
        .unwrap();
        let template = Template::from_preference(&schema, listing(&[0])).unwrap();
        let service = ShardedService::build(
            &data,
            template,
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 2,
                workers: 2,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        let placed = ShardedService::partition_rows(service.partition(), 2, &data);
        let (d, r) = (placed[0], placed[1]);
        assert_eq!(
            (d.shard, r.shard),
            (0, 1),
            "d and r sit on different shards"
        );
        // Refinements not asked before, one pair per vector.
        let mut k = 0;
        let mut misses = |service: &ShardedService| {
            k += 1;
            check_global(service, [&listing(&[0, k]), &listing(&[0, k % 5 + 1, k])])
        };

        assert!(!misses(&service).contains(&r));
        assert!(!global_members(&service).contains(&r));
        assert!(service.delete_row(d).unwrap());
        assert!(misses(&service).contains(&r));
        assert!(global_members(&service).contains(&r));
        let d2 = service.insert_row(&[0.5, 0.5], &[0]).unwrap();
        assert_eq!(d2, GlobalRowId { shard: 0, row: 1 });
        assert!(!misses(&service).contains(&r));
        // The rebuild reclaims `d` and renumbers `d2` to row 0.
        assert!(service.force_rebuild_shard(0).unwrap().is_some());
        assert!(misses(&service).contains(&GlobalRowId { shard: 0, row: 0 }));
        assert!(service.force_rebuild_shard(1).unwrap().is_some());
        misses(&service);
    }

    /// Two shards over generated data and two refinements never asked before.
    fn slot_service(seed: u64) -> (ShardedService, Vec<Preference>) {
        let (data, template) = experiment(400, seed);
        let mut seen = std::collections::HashSet::new();
        let prefs: Vec<Preference> = QueryGenerator::new(seed)
            .random_preferences(data.schema(), &template, 2, 20, None)
            .into_iter()
            .filter(|p| seen.insert(CanonicalPreference::new(data.schema(), p).unwrap()))
            .take(2)
            .collect();
        assert_eq!(prefs.len(), 2);
        let service = ShardedService::build(
            &data,
            template,
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 2,
                workers: 2,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        (service, prefs)
    }

    /// Returns once some request has raised the slot's build flag.
    fn until_building(service: &ShardedService) {
        let started = Instant::now();
        while !service.global.lock().building {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "no build of G began"
            );
            std::thread::yield_now();
        }
    }

    /// A miss waiting on a build of `G` under a cancel-only deadline gives up on the poll
    /// after its token fires, while the build runs on and still fills the slot.
    #[test]
    fn a_cancelled_waiter_gives_up_while_the_build_fills_the_slot() {
        let (service, prefs) = slot_service(151);
        service
            .fault_injector()
            .delay_shard_query(0, Duration::from_millis(300));
        let token = skyline_core::CancelToken::new();
        let deadline = Deadline::none().with_cancel(token.clone());
        std::thread::scope(|scope| {
            let builder = scope.spawn(|| service.serve(&prefs[0]));
            until_building(&service);
            let waiter = scope.spawn(|| service.serve_deadline(&prefs[1], &deadline));
            // Time for the waiter to reach its wait; cancelled earlier, it fails the same way.
            std::thread::sleep(Duration::from_millis(30));
            let cancelled = Instant::now();
            token.cancel();
            assert_eq!(
                waiter.join().unwrap().unwrap_err(),
                SkylineError::DeadlineExceeded
            );
            assert!(
                cancelled.elapsed() < Duration::from_millis(150),
                "the waiter gave up on its next poll, not at the end of the build"
            );
            assert!(service.global.lock().building, "the build runs on");
            assert!(!builder.join().unwrap().unwrap().is_degraded());
        });
        service.fault_injector().clear();
        assert!(!service.global.lock().building);
        let template = service.template().implicit().unwrap().clone();
        assert_eq!(global_members(&service), live_oracle(&service, &template));
        let stats = service.stats();
        assert_eq!(stats.template_skyline_builds, 1);
        assert_eq!(stats.coalesced, 0, "a waiter that gave up is not counted");
    }

    /// A leader whose build fails — its leg on shard 0 panics under `FailClosed` — wakes its
    /// waiter, which builds alone and answers like the live oracle.
    #[test]
    fn a_failed_build_wakes_its_waiter_to_build_alone() {
        let (service, prefs) = slot_service(157);
        service
            .fault_injector()
            .delay_shard_query(0, Duration::from_millis(100));
        service.fault_injector().panic_on_shard_query(0, 1);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| service.serve(&prefs[0]));
            // The leader's leg sleeps 100 ms before it panics: the waiter arrives first.
            until_building(&service);
            let waited = service.serve(&prefs[1]);
            assert_eq!(
                leader.join().unwrap().unwrap_err(),
                SkylineError::ShardUnavailable { shard: 0 }
            );
            let waited = waited.unwrap();
            assert!(!waited.is_degraded());
            assert_eq!(waited.outcome.skyline, live_oracle(&service, &prefs[1]));
        });
        service.fault_injector().clear();
        let stats = service.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(
            stats.template_skyline_builds, 1,
            "the waiter's build is stored"
        );
        assert!(!service.global.lock().building);
    }

    /// The same checks on generated data at two to four shards, after every insert, delete of
    /// a `G` member and forced rebuild.
    #[test]
    fn global_template_skyline_follows_generated_data_at_every_shard_count() {
        let (data, template) = experiment(160, 131);
        let mut seen = std::collections::HashSet::new();
        let prefs: Vec<Preference> = QueryGenerator::new(137)
            .random_preferences(data.schema(), &template, 2, 200, None)
            .into_iter()
            .filter(|p| seen.insert(CanonicalPreference::new(data.schema(), p).unwrap()))
            .collect();
        for shards in 2..=4 {
            let service = ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards,
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            let mut fresh = prefs.chunks_exact(2).cycle();
            let mut check = |service: &ShardedService| {
                let pair = fresh.next().unwrap();
                check_global(service, [&pair[0], &pair[1]]);
            };
            check(&service);
            for step in 0..6u16 {
                match step % 3 {
                    0 => {
                        let x = 0.05 * f64::from(step);
                        service
                            .insert_row(&[x, 0.1], &[step % 8, 7 - step % 8])
                            .unwrap();
                    }
                    1 => {
                        let member = global_members(&service)[usize::from(step) % 3];
                        assert!(service.delete_row(member).unwrap());
                    }
                    _ => {
                        assert!(service
                            .force_rebuild_shard(usize::from(step) % shards)
                            .unwrap()
                            .is_some());
                    }
                }
                check(&service);
            }
        }
    }
}
