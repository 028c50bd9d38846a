//! The adapter between the benchmark and the system under test — the **only** file that names
//! program APIs. A PR that collapses or renames any of these must keep this file compiling
//! (and only this file needs to change).
//!
//! Surface used:
//!
//! * `skyline_service::ShardedService::{build, serve, serve_streaming, insert_row, delete_row,
//!   write_snapshots, from_snapshots, partition_rows, shard, shard_count, stats, epochs,
//!   live_rows, schema, template, force_rebuild_shard}`, `ShardedConfig`, `ShardPartition`,
//!   `ShardedServed`, `ShardedOutcome`, `GlobalRowId`, `StatsSnapshot`
//! * `skyline_service::ShardedStream::{next_row, epochs}`
//! * `skyline_service::ResultCache::{new, get, insert}`
//! * `skyline::SkylineEngine::{build, query, check_servable, dataset, dataset_arc, template,
//!   epoch, is_row_live, rebuild_in_flight, mutations_since_rebuild}`, `SharedEngine::read`,
//!   `EngineConfig`, `MethodUsed`, `MaintenancePolicy`
//! * `skyline_core::{CanonicalPreference::new, Template::effective_orders,
//!   CompiledOrder::compile, SkylineMerger::{new, push, merge}, DominanceContext::for_query,
//!   algo::bnl::skyline, algo::sfs::skyline_sorted_with_stats, score::ScoreFn,
//!   stats::collect_stats, kernel_mode, Dataset, Preference, Template, DatasetEpoch}`
//! * `skyline_ipo::{IpoTreeBuilder::{new, top_k_values, build}, IpoTree::{query,
//!   query_with_stats, materializes, node_count}, BitmapIpoTree::{from_tree, query},
//!   storage::ipo_tree_storage}`
//! * `skyline_adaptive::{AdaptiveSfs::{build, query_with_stats, template_skyline, insert_row,
//!   delete_row}, ScanMode}`
//! * `skyline_datagen::{ExperimentConfig::{paper_default, generate_dataset, template},
//!   QueryGenerator::{new, random_preference, mixed_workload}, WorkloadOp,
//!   workload::top_k_values}`

use crate::measure::{median, ms, us};
use crate::trace::Tracer;
use skyline::{EngineConfig, MaintenancePolicy, MethodUsed, SkylineEngine};
use skyline_adaptive::{AdaptiveSfs, ScanMode};
use skyline_core::algo::{bnl, sfs};
use skyline_core::score::ScoreFn;
use skyline_core::stats::collect_stats;
use skyline_core::{
    kernel_mode, CanonicalPreference, CompiledOrder, Dataset, DatasetEpoch, DominanceContext,
    PointId, Preference, Schema, SkylineMerger, Template, ValueId,
};
use skyline_datagen::workload::top_k_values;
use skyline_datagen::{ExperimentConfig, QueryGenerator, WorkloadOp};
use skyline_ipo::storage::ipo_tree_storage;
use skyline_ipo::{BitmapIpoTree, IpoTreeBuilder};
use skyline_service::{
    GlobalRowId, ResultCache, ShardPartition, ShardedConfig, ShardedOutcome, ShardedServed,
    ShardedService, ShardedStream,
};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Pref = Preference;
pub type RowId = GlobalRowId;

/// Values materialized per nominal dimension by the hybrid engine (the paper's IPO Tree-10).
pub const TOP_K: usize = 10;
/// Result-cache capacity of every service (the `ShardedConfig` default, stated so the
/// standalone cache probe matches it).
pub const CACHE_CAPACITY: usize = 4096;
const CACHE_SHARDS: usize = 16;
const WORKERS: usize = 2;

pub fn kernel_mode_name() -> String {
    format!("{:?}", kernel_mode())
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The dataset and template every workload runs over: the paper-default shape (3 numeric +
/// 2 nominal dimensions, cardinality 20, Zipf θ = 1, anti-correlated, preference order 3).
pub struct World {
    cfg: ExperimentConfig,
    pub data: Arc<Dataset>,
    pub template: Template,
}

/// One operation of the mixed read/write stream.
#[derive(Debug, Clone)]
pub enum Op {
    Read(Pref),
    Insert {
        numeric: Vec<f64>,
        nominal: Vec<u16>,
    },
    /// Logical row index at that point of the stream (initial rows, then inserts in order).
    Delete {
        row: u32,
    },
}

impl World {
    pub fn generate(n: usize, seed: u64) -> Self {
        let cfg = ExperimentConfig {
            n,
            seed,
            ..ExperimentConfig::paper_default()
        };
        let data = Arc::new(cfg.generate_dataset());
        let template = cfg.template(&data);
        Self {
            cfg,
            data,
            template,
        }
    }

    pub fn rows(&self) -> usize {
        self.data.len()
    }

    /// `count` order-3 preferences, pairwise distinct as `CanonicalPreference`s (so each is a
    /// result-cache miss), drawn over the `top_k` most frequent values per nominal dimension
    /// or over all values.
    pub fn distinct_prefs(&self, seed: u64, count: usize, top_k: Option<usize>) -> Vec<Pref> {
        let schema = self.data.schema();
        let allowed = top_k.map(|k| top_k_values(&self.data, k));
        let mut generator = QueryGenerator::new(seed);
        let mut seen = HashSet::with_capacity(count);
        let mut prefs = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while prefs.len() < count {
            attempts += 1;
            assert!(
                attempts <= count * 200 + 1000,
                "the preference space is too small for {count} distinct preferences"
            );
            let pref = generator.random_preference(
                schema,
                &self.template,
                self.cfg.pref_order,
                allowed.as_deref(),
            );
            let key = CanonicalPreference::new(schema, &pref).expect("generated prefs validate");
            if seen.insert(key) {
                prefs.push(pref);
            }
        }
        prefs
    }

    /// `count` mixed operations: reads Zipf-drawn from a pool of `pool` preferences, and every
    /// `write_every`-th operation a write (insert or delete, evenly likely). Both streams come
    /// from `mixed_workload`; interleaving them at a fixed stride — instead of its per-operation
    /// coin — gives every seed the same number of writes, evenly spaced, so the share of reads
    /// that find the cache staled by a write does not vary with the seed.
    pub fn mixed_ops(&self, seed: u64, count: usize, pool: usize, write_every: usize) -> Vec<Op> {
        let stream = |seed: u64, pool: usize, count: usize, write_fraction: f64| {
            QueryGenerator::new(seed).mixed_workload(
                self.data.schema(),
                &self.template,
                self.cfg.pref_order,
                pool,
                count,
                self.cfg.theta,
                write_fraction,
                self.data.len(),
            )
        };
        let write_count = count / write_every;
        let mut reads = stream(seed, pool, count - write_count, 0.0).into_iter();
        let mut writes = stream(seed ^ 0x5bd1_e995, 1, write_count, 1.0).into_iter();
        (1..=count)
            .map(|i| {
                let op = if i % write_every == 0 {
                    writes.next()
                } else {
                    reads.next()
                };
                match op.expect("both streams were sized for the interleaving") {
                    WorkloadOp::Query(pref) => Op::Read(pref),
                    WorkloadOp::Insert { numeric, nominal } => Op::Insert { numeric, nominal },
                    WorkloadOp::Delete { row } => Op::Delete { row },
                }
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Hybrid,
    AdaptiveSfs,
}

impl Engine {
    fn config(self) -> EngineConfig {
        match self {
            Engine::Hybrid => EngineConfig::Hybrid { top_k: TOP_K },
            Engine::AdaptiveSfs => EngineConfig::AdaptiveSfs,
        }
    }
}

/// Background maintenance of the mixed workload: a shard rebuilds after `max_mutations`
/// epoch-bumping writes (or a quarter of its rows dead).
#[derive(Debug, Clone, Copy)]
pub struct Maintenance {
    pub max_mutations: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub engine: Engine,
    pub shards: usize,
    pub maintenance: Option<Maintenance>,
}

impl Spec {
    fn sharded_config(&self) -> ShardedConfig {
        ShardedConfig {
            shards: self.shards,
            partition: ShardPartition::HashNominal { dim: 0 },
            cache_capacity: CACHE_CAPACITY,
            cache_shards: CACHE_SHARDS,
            workers: WORKERS,
            maintenance: self.maintenance.map(|m| MaintenancePolicy {
                dead_row_ratio: 0.25,
                max_mutations_since_rebuild: m.max_mutations,
                poll_interval: Duration::from_millis(100),
            }),
            build_threads: 1,
            max_in_flight_builds: 1,
            ..ShardedConfig::default()
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    outcome: Arc<ShardedOutcome>,
    epochs: Arc<[DatasetEpoch]>,
    pub cache_hit: bool,
}

impl Answer {
    fn of(served: ShardedServed) -> Self {
        Self {
            outcome: served.outcome,
            epochs: served.epochs,
            cache_hit: served.cache_hit,
        }
    }

    pub fn rows(&self) -> &[RowId] {
        &self.outcome.skyline
    }

    /// Shard legs behind this answer, and how many of them the IPO tree served.
    pub fn legs(&self) -> (usize, usize) {
        let tree = self
            .outcome
            .methods
            .iter()
            .filter(|m| matches!(m, MethodUsed::IpoTree))
            .count();
        (self.outcome.methods.len(), tree)
    }
}

/// Service counters the per-layer metrics are derived from (deltas of `StatsSnapshot`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hits: u64,
    pub stale_evictions: u64,
    pub remapped_hits: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub deadline_misses: u64,
    pub rebuilds: u64,
    pub reclaimed_rows: u64,
}

pub struct Service {
    svc: ShardedService,
}

/// A progressive answer being pulled; remembers the rows handed out so far.
pub struct Stream<'a> {
    inner: ShardedStream<'a>,
    rows: Vec<RowId>,
}

impl Stream<'_> {
    pub fn next_row(&mut self) -> Result<Option<RowId>, String> {
        let row = self.inner.next_row().map_err(err)?;
        self.rows.extend(row);
        Ok(row)
    }

    /// Drains the rest of the stream; the complete answer in emission order.
    pub fn finish(mut self) -> Result<Answer, String> {
        while self.next_row()?.is_some() {}
        Ok(Answer {
            outcome: Arc::new(ShardedOutcome {
                skyline: self.rows,
                methods: Vec::new(),
            }),
            epochs: self.inner.epochs().clone(),
            cache_hit: false,
        })
    }
}

impl Service {
    pub fn build(world: &World, spec: &Spec) -> Result<Self, String> {
        ShardedService::build(
            &world.data,
            world.template.clone(),
            spec.engine.config(),
            spec.sharded_config(),
        )
        .map(|svc| Self { svc })
        .map_err(err)
    }

    pub fn from_snapshots(dir: &Path, spec: &Spec) -> Result<Self, String> {
        ShardedService::from_snapshots(dir, spec.sharded_config())
            .map(|svc| Self { svc })
            .map_err(err)
    }

    /// Writes every shard's snapshot into `dir`; returns the total bytes of the files.
    pub fn write_snapshots(&self, dir: &Path) -> Result<u64, String> {
        let paths = self.svc.write_snapshots(dir).map_err(err)?;
        let mut bytes = 0;
        for path in paths {
            bytes += std::fs::metadata(&path).map_err(err)?.len();
        }
        Ok(bytes)
    }

    pub fn serve(&self, pref: &Pref) -> Result<Answer, String> {
        self.svc.serve(pref).map(Answer::of).map_err(err)
    }

    pub fn stream(&self, pref: &Pref) -> Result<Stream<'_>, String> {
        self.svc
            .serve_streaming(pref)
            .map(|inner| Stream {
                inner,
                rows: Vec::new(),
            })
            .map_err(err)
    }

    pub fn insert(&self, numeric: &[f64], nominal: &[u16]) -> Result<RowId, String> {
        self.svc.insert_row(numeric, nominal).map_err(err)
    }

    /// Deletes `id`, clamping its row into the shard's current id space: generation swaps
    /// renumber rows, so an id recorded before a swap names *a* row of that shard, not
    /// necessarily the same one — which row dies does not matter to the load.
    pub fn delete_clamped(&self, id: RowId) -> Result<bool, String> {
        let len = self.svc.shard(id.shard).read().dataset().len();
        let row = id.row.min(len.saturating_sub(1) as PointId);
        self.svc
            .delete_row(GlobalRowId {
                shard: id.shard,
                row,
            })
            .map_err(err)
    }

    pub fn live_rows(&self) -> usize {
        self.svc.live_rows()
    }

    pub fn counters(&self) -> Counters {
        let s = self.svc.stats();
        Counters {
            hits: s.hits,
            stale_evictions: s.stale_evictions,
            remapped_hits: s.remapped_hits,
            coalesced: s.coalesced,
            shed: s.shed,
            deadline_misses: s.deadline_misses,
            rebuilds: s.rebuilds,
            reclaimed_rows: s.reclaimed_rows,
        }
    }

    /// Waits until no shard is due for (or inside) a background rebuild.
    pub fn quiesce(&self, max_mutations: u64, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        loop {
            let busy = (0..self.svc.shard_count()).any(|s| {
                let engine = self.svc.shard(s).read();
                engine.rebuild_in_flight() || engine.mutations_since_rebuild() >= max_mutations
            });
            if !busy {
                return true;
            }
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Brings one shard to its rebuild threshold — `max_mutations` epoch-bumping writes, a copy
    /// of the world's first row inserted and deleted again, which hashes to the same shard
    /// every time — and returns once the background pool has picked the rebuild up.
    pub fn start_rebuild(&self, world: &World, max_mutations: u64) -> Result<(), String> {
        let (mut numeric, mut nominal) = row_buffers(self.svc.schema());
        read_row(&world.data, 0, &mut numeric, &mut nominal);
        let mut shard = 0;
        for _ in 0..max_mutations.div_ceil(2) {
            let id = self.insert(&numeric, &nominal)?;
            shard = id.shard;
            self.svc.delete_row(id).map_err(err)?;
        }
        // Picked up, or (on a tiny shard) already swapped in.
        let until = Instant::now() + Duration::from_secs(5);
        loop {
            let engine = self.svc.shard(shard).read();
            if engine.rebuild_in_flight() || engine.mutations_since_rebuild() < max_mutations {
                return Ok(());
            }
            drop(engine);
            if Instant::now() >= until {
                return Err("the background rebuild did not start within 5 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Rebuilds shard `s`'s generation now; returns the wall time in ms.
    pub fn force_rebuild_ms(&self, s: usize) -> Result<f64, String> {
        let started = Instant::now();
        self.svc.force_rebuild_shard(s).map_err(err)?;
        Ok(ms(started.elapsed()))
    }

    /// The initial placement `build` gave row `p` of the world's dataset.
    pub fn initial_placement(&self, world: &World) -> Vec<RowId> {
        ShardedService::partition_rows(
            &ShardPartition::HashNominal { dim: 0 },
            self.svc.shard_count(),
            &world.data,
        )
    }

    /// Structural check of one answer: no duplicate rows and — while the service is still at
    /// the answer's epoch vector — no dead row.
    pub fn check_answer(&self, answer: &Answer) -> Result<(), String> {
        let mut ids = answer.rows().to_vec();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate row in answer".into());
        }
        let guards: Vec<_> = (0..self.svc.shard_count())
            .map(|s| self.svc.shard(s).read())
            .collect();
        let current = guards
            .iter()
            .map(|g| g.epoch())
            .eq(answer.epochs.iter().copied());
        if current {
            if let Some(dead) = ids.iter().find(|g| !guards[g.shard].is_row_live(g.row)) {
                return Err(format!("dead row {dead:?} in answer"));
            }
        }
        Ok(())
    }

    /// Order-independent digest of an answer's row *values* (ids differ between shard
    /// layouts; values do not). Only meaningful while the service is at the answer's epochs.
    pub fn digest(&self, answer: &Answer) -> u64 {
        let guards: Vec<_> = (0..self.svc.shard_count())
            .map(|s| self.svc.shard(s).read())
            .collect();
        let schema = self.svc.schema();
        let mut sum = answer.rows().len() as u64;
        for g in answer.rows() {
            let data = guards[g.shard].dataset();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for j in 0..schema.numeric_count() {
                h = mix(h, data.numeric(g.row, j).to_bits());
            }
            for j in 0..schema.nominal_count() {
                h = mix(h, data.nominal(g.row, j) as u64);
            }
            sum = sum.wrapping_add(h);
        }
        sum
    }
}

/// Buffers for one row of `schema`, for `read_row` to fill.
fn row_buffers(schema: &Schema) -> (Vec<f64>, Vec<ValueId>) {
    (
        vec![0.0f64; schema.numeric_count()],
        vec![ValueId::default(); schema.nominal_count()],
    )
}

/// Copies row `p`'s values into the caller's buffers (sized to the schema).
fn read_row(data: &Dataset, p: PointId, numeric: &mut [f64], nominal: &mut [ValueId]) {
    for (j, v) in numeric.iter_mut().enumerate() {
        *v = data.numeric(p, j);
    }
    for (j, v) in nominal.iter_mut().enumerate() {
        *v = data.nominal(p, j);
    }
}

fn mix(h: u64, v: u64) -> u64 {
    let mut x = (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 32;
    x.wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// The brute-force reference: `bnl::skyline` under `DominanceContext` over a flat copy of
/// the live rows, mapped back to the service's row ids.
pub struct Oracle {
    data: Arc<Dataset>,
    template: Template,
    ids: Vec<RowId>,
}

impl Oracle {
    /// Over the world's dataset, for a service that has seen no write.
    pub fn of_world(world: &World, service: &Service) -> Self {
        Self {
            data: world.data.clone(),
            template: world.template.clone(),
            ids: service.initial_placement(world),
        }
    }

    /// Over the rows the service holds live right now (call after quiescing).
    pub fn of_live_rows(service: &Service) -> Result<Self, String> {
        let svc = &service.svc;
        let schema = svc.schema().clone();
        let mut data = Dataset::empty(schema.clone());
        let mut ids = Vec::new();
        let (mut numeric, mut nominal) = row_buffers(&schema);
        for s in 0..svc.shard_count() {
            let engine = svc.shard(s).read();
            let rows = engine.dataset();
            for p in 0..rows.len() as PointId {
                if !engine.is_row_live(p) {
                    continue;
                }
                read_row(rows, p, &mut numeric, &mut nominal);
                data.push_row_ids(&numeric, &nominal).map_err(err)?;
                ids.push(GlobalRowId { shard: s, row: p });
            }
        }
        Ok(Self {
            data: Arc::new(data),
            template: svc.template().clone(),
            ids,
        })
    }

    /// The expected answer for `pref`, as sorted service row ids.
    pub fn skyline(&self, pref: &Pref) -> Result<Vec<RowId>, String> {
        let ctx = DominanceContext::for_query(&self.data, &self.template, pref).map_err(err)?;
        let mut rows: Vec<RowId> = bnl::skyline(&ctx)
            .into_iter()
            .map(|p| self.ids[p as usize])
            .collect();
        rows.sort_unstable();
        Ok(rows)
    }
}

/// What one traced re-walk of a request found.
#[derive(Debug, Clone, Default)]
pub struct Walk {
    pub rows: Vec<RowId>,
    pub merge_input_rows: u64,
    pub legs: u64,
    pub tree_legs: u64,
    /// Per-shard engine query time and the wall time of the whole scatter.
    pub shard_query_ns: Vec<u64>,
    pub scatter_ns: u64,
}

/// Re-walks a request through the layers' public functions in the order
/// `ShardedService::scatter_gather` composes them, one span per call. The service's own
/// cache is private, so the cache layer is a standalone `ResultCache` of the same capacity.
pub struct Walker {
    cache: ResultCache<Arc<[DatasetEpoch]>, ShardedOutcome>,
}

impl Walker {
    pub fn new() -> Self {
        Self {
            cache: ResultCache::new(CACHE_CAPACITY, CACHE_SHARDS),
        }
    }

    pub fn walk(
        &self,
        service: &Service,
        pref: &Pref,
        tracer: &mut Tracer,
    ) -> Result<Walk, String> {
        let svc = &service.svc;
        let schema = svc.schema();
        let root = tracer.open(None, "sharded", "request");
        let guards: Vec<_> = (0..svc.shard_count())
            .map(|s| svc.shard(s).read())
            .collect();
        let epochs: Arc<[DatasetEpoch]> = guards.iter().map(|g| g.epoch()).collect();

        let key = tracer
            .span(Some(root), "canon", "canon.key", || {
                CanonicalPreference::new(schema, pref)
            })
            .map_err(err)?;
        tracer
            .span(Some(root), "engine", "engine.check_servable", || {
                guards.iter().try_for_each(|g| g.check_servable(pref))
            })
            .map_err(err)?;
        let cached = tracer.span(Some(root), "cache", "cache.get", || {
            self.cache.get(&key, epochs.clone())
        });
        if let Some(hit) = cached {
            tracer.close(root, vec![("cache_hit", 1)]);
            return Ok(Walk {
                rows: hit.skyline.clone(),
                ..Walk::default()
            });
        }

        // Scatter: one leg per shard, on parallel threads when there is more than one shard
        // (the service's executor runs a single leg inline, too).
        let scatter = tracer.open(Some(root), "sharded", "sharded.scatter");
        let timed_query = |engine: &SkylineEngine| {
            let started = Instant::now();
            let outcome = engine.query(pref);
            (started, Instant::now(), outcome)
        };
        let legs: Vec<_> = if guards.len() == 1 {
            vec![timed_query(&guards[0])]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = guards
                    .iter()
                    .map(|g| {
                        let engine: &SkylineEngine = g;
                        scope.spawn(move || timed_query(engine))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a shard leg panicked"))
                    .collect()
            })
        };
        let mut walk = Walk::default();
        let mut outcomes = Vec::with_capacity(legs.len());
        for (started, ended, outcome) in legs {
            let outcome = outcome.map_err(err)?;
            let tree = matches!(outcome.method, MethodUsed::IpoTree);
            let (start_ns, end_ns) = (tracer.ns_of(started), tracer.ns_of(ended));
            tracer.record(
                Some(scatter),
                if tree { "ipo" } else { "asfs" },
                "engine.query",
                start_ns,
                end_ns,
                vec![
                    ("rows", outcome.skyline.len() as u64),
                    ("tree", tree as u64),
                ],
            );
            walk.shard_query_ns.push(end_ns - start_ns);
            walk.legs += 1;
            walk.tree_legs += tree as u64;
            walk.merge_input_rows += outcome.skyline.len() as u64;
            outcomes.push(outcome);
        }
        tracer.close(scatter, Vec::new());
        walk.scatter_ns = tracer.spans[scatter as usize].duration_ns();

        let orders: Vec<CompiledOrder> = tracer
            .span(Some(root), "canon", "canon.compile_orders", || {
                svc.template()
                    .effective_orders(schema, pref)
                    .map(|orders| orders.iter().map(CompiledOrder::compile).collect())
            })
            .map_err(err)?;
        let mut merger = SkylineMerger::new(orders, schema.numeric_count());
        let push = tracer.open(Some(root), "merge", "merge.push");
        let (mut numeric, mut nominal) = row_buffers(schema);
        for (s, outcome) in outcomes.iter().enumerate() {
            let data = guards[s].dataset();
            for &p in &outcome.skyline {
                read_row(data, p, &mut numeric, &mut nominal);
                merger.push(s, p, &numeric, &nominal).map_err(err)?;
            }
        }
        tracer.close(push, vec![("rows", walk.merge_input_rows)]);
        let merge = tracer.open(Some(root), "merge", "merge.merge");
        walk.rows = merger
            .merge()
            .into_iter()
            .map(|(shard, row)| GlobalRowId { shard, row })
            .collect();
        tracer.close(merge, vec![("rows", walk.rows.len() as u64)]);

        let value = Arc::new(ShardedOutcome {
            skyline: walk.rows.clone(),
            methods: outcomes.iter().map(|o| o.method).collect(),
        });
        tracer.span(Some(root), "cache", "cache.insert", || {
            self.cache.insert(key, epochs.clone(), value)
        });
        tracer.close(
            root,
            vec![
                ("merge_input_rows", walk.merge_input_rows),
                ("rows", walk.rows.len() as u64),
                ("tree_legs", walk.tree_legs),
            ],
        );
        Ok(walk)
    }
}

/// Standalone per-structure measurements over shard 0's rows, outside the service: what each
/// of the paper's three methods costs per query on the same preferences, what the
/// structures cost to build and hold, and the paper's explanatory ratios.
#[derive(Debug, Clone, Default)]
pub struct StructureProbe {
    pub ipo_build_ms: f64,
    pub ipo_nodes: u64,
    pub ipo_bytes: u64,
    /// Preferences (of those offered) the top-k tree materializes; the IPO numbers cover these.
    pub ipo_prefs: u64,
    pub ipo_set_query_us: f64,
    pub ipo_bitmap_query_us: f64,
    pub ipo_nodes_visited: f64,
    pub ipo_set_operations: f64,
    pub ipo_leaf_results: f64,
    pub asfs_build_ms: f64,
    pub asfs_query_ms: f64,
    pub asfs_dominance_tests: u64,
    pub asfs_template_skyline_ratio: f64,
    pub asfs_affected_ratio: f64,
    pub asfs_query_skyline_ratio: f64,
    pub asfs_insert_us: f64,
    pub asfs_delete_us: f64,
    pub sfsd_query_ms: f64,
    pub sfs_dominance_tests: u64,
}

impl StructureProbe {
    /// `prefs` drive the IPO and Adaptive-SFS queries; the first `sfsd_queries` of them the
    /// (much slower) SFS-D engine, and the first `reference_scans` the reference SFS scan
    /// that yields the exact dominance-test count.
    pub fn run(
        service: &Service,
        prefs: &[Pref],
        sfsd_queries: usize,
        reference_scans: usize,
        with_tree: bool,
    ) -> Result<Self, String> {
        let (data, template) = {
            let engine = service.svc.shard(0).read();
            (engine.dataset_arc().clone(), engine.template().clone())
        };
        let mut probe = Self::default();

        if with_tree {
            let started = Instant::now();
            let tree = IpoTreeBuilder::new()
                .top_k_values(TOP_K)
                .build(&data, &template)
                .map_err(err)?;
            probe.ipo_build_ms = ms(started.elapsed());
            let storage = ipo_tree_storage(&tree);
            probe.ipo_nodes = tree.node_count() as u64;
            probe.ipo_bytes = storage.total_bytes() as u64;
            let bitmap = BitmapIpoTree::from_tree(&tree, &data);
            let servable: Vec<&Pref> = prefs.iter().filter(|p| tree.materializes(p)).collect();
            probe.ipo_prefs = servable.len() as u64;
            let (mut set_us, mut bitmap_us) = (Vec::new(), Vec::new());
            let (mut visited, mut set_ops, mut leaves) = (0u64, 0u64, 0u64);
            for pref in &servable {
                let started = Instant::now();
                let (rows, stats) = tree.query_with_stats(&data, pref).map_err(err)?;
                set_us.push(us(started.elapsed()));
                let started = Instant::now();
                let bitmap_rows = bitmap.query(&data, pref).map_err(err)?;
                bitmap_us.push(us(started.elapsed()));
                if rows != bitmap_rows {
                    return Err("set-based and bitmap IPO trees disagree".into());
                }
                visited += stats.nodes_visited;
                set_ops += stats.set_operations;
                leaves += stats.leaf_results;
            }
            let n = servable.len().max(1) as f64;
            probe.ipo_set_query_us = median(&set_us);
            probe.ipo_bitmap_query_us = median(&bitmap_us);
            probe.ipo_nodes_visited = visited as f64 / n;
            probe.ipo_set_operations = set_ops as f64 / n;
            probe.ipo_leaf_results = leaves as f64 / n;
        }

        let started = Instant::now();
        let mut asfs = AdaptiveSfs::build(data.clone(), &template).map_err(err)?;
        probe.asfs_build_ms = ms(started.elapsed());
        let template_skyline = asfs.template_skyline();
        let mut query_ms = Vec::new();
        let (mut affected, mut query_rows) = (0usize, 0usize);
        for pref in prefs {
            let started = Instant::now();
            let (rows, stats) = asfs
                .query_with_stats(pref, ScanMode::default())
                .map_err(err)?;
            query_ms.push(ms(started.elapsed()));
            probe.asfs_dominance_tests += stats.dominance_tests;
            let stats = collect_stats(&data, &template_skyline, &rows, pref);
            affected += stats.affected;
            query_rows += stats.query_skyline;
        }
        probe.asfs_query_ms = median(&query_ms);
        let denominator = (template_skyline.len() * prefs.len()).max(1) as f64;
        probe.asfs_template_skyline_ratio =
            template_skyline.len() as f64 / data.len().max(1) as f64;
        probe.asfs_affected_ratio = affected as f64 / denominator;
        probe.asfs_query_skyline_ratio = query_rows as f64 / denominator;

        // Writes on the standalone structure: re-insert copies of existing rows, then delete
        // them again (copies of skyline-adjacent rows exercise the same paths real inserts do).
        let (mut numeric, mut nominal) = row_buffers(data.schema());
        let (mut insert_us, mut delete_us, mut inserted) = (Vec::new(), Vec::new(), Vec::new());
        let stride = (data.len() / 64).max(1);
        for p in (0..data.len()).step_by(stride).take(64) {
            read_row(&data, p as PointId, &mut numeric, &mut nominal);
            let started = Instant::now();
            inserted.push(asfs.insert_row(&numeric, &nominal).map_err(err)?);
            insert_us.push(us(started.elapsed()));
        }
        for p in inserted {
            let started = Instant::now();
            asfs.delete_row(p).map_err(err)?;
            delete_us.push(us(started.elapsed()));
        }
        probe.asfs_insert_us = median(&insert_us);
        probe.asfs_delete_us = median(&delete_us);
        drop(asfs);

        let sfsd = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::SfsD)
            .map_err(err)?;
        let mut sfsd_ms = Vec::new();
        for pref in prefs.iter().take(sfsd_queries) {
            let started = Instant::now();
            std::hint::black_box(sfsd.query(pref).map_err(err)?);
            sfsd_ms.push(ms(started.elapsed()));
        }
        probe.sfsd_query_ms = median(&sfsd_ms);
        let all: Vec<PointId> = (0..data.len() as PointId).collect();
        for pref in prefs.iter().take(reference_scans) {
            let ctx = DominanceContext::for_query(&data, &template, pref).map_err(err)?;
            let score = ScoreFn::for_preference(data.schema(), pref).map_err(err)?;
            let (_, stats) = sfs::skyline_sorted_with_stats(&ctx, &score, &all);
            probe.sfs_dominance_tests += stats.dominance_tests;
        }
        Ok(probe)
    }
}

/// Median cost of one `get` (hit) and one `insert` on a standalone result cache of the
/// service's capacity, keyed by `prefs`.
pub fn cache_probe(service: &Service, prefs: &[Pref]) -> Result<(f64, f64), String> {
    let schema = service.svc.schema();
    let cache: ResultCache<Arc<[DatasetEpoch]>, ShardedOutcome> =
        ResultCache::new(CACHE_CAPACITY, CACHE_SHARDS);
    let epochs: Arc<[DatasetEpoch]> = service.svc.epochs().into();
    let value = Arc::new(ShardedOutcome {
        skyline: Vec::new(),
        methods: Vec::new(),
    });
    let keys: Vec<CanonicalPreference> = prefs
        .iter()
        .map(|p| CanonicalPreference::new(schema, p).map_err(err))
        .collect::<Result<_, _>>()?;
    let (mut insert_us, mut get_us) = (Vec::new(), Vec::new());
    for key in &keys {
        let started = Instant::now();
        cache.insert(key.clone(), epochs.clone(), value.clone());
        insert_us.push(us(started.elapsed()));
    }
    for key in &keys {
        let started = Instant::now();
        std::hint::black_box(cache.get(key, epochs.clone()));
        get_us.push(us(started.elapsed()));
    }
    Ok((median(&get_us), median(&insert_us)))
}
