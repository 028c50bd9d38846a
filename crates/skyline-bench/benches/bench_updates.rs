//! Dynamic-dataset maintenance: incremental insert+query vs full rebuild+query, and the
//! payoff of the generational lifecycle (background compaction + IPO re-materialization).
//! (The end-to-end service draining a 10%-write mixed stream is `bench_shards`'
//! `sharded_scatter_gather/mixed_stream/shards_1`.)
//!
//! Benchmarks on the n=2000 hybrid workload (anti-correlated numerics, Zipf(θ=1)
//! nominals — the same shape as `bench_throughput`):
//!
//! * `incremental_insert_query` — clone the pre-built hybrid engine, absorb a batch of
//!   inserts via `SkylineEngine::insert_row` (incremental maintenance) and answer the query
//!   mix. The first insert of each iteration pays the documented copy-once of the shared
//!   dataset; everything after is in place.
//! * `rebuild_insert_query` — the frozen-dataset alternative: append the same batch to a
//!   dataset copy, rebuild the whole engine from scratch, answer the same queries.
//! * `fallback_query_mutated_hybrid` vs `tree_query_rebuilt_hybrid` — what a generation
//!   rebuild buys at query time: the same tree-materialized queries answered by a mutated
//!   hybrid (stale tree → Adaptive-SFS fallback on every query) and by the same engine after
//!   one `SharedEngine::rebuild_now` swap (compacted block, re-materialized tree).

use criterion::{criterion_group, criterion_main, Criterion};
use skyline::prelude::*;
use std::hint::black_box;
use std::sync::Arc;

const TUPLES: usize = 2_000;
const BATCH: usize = 32;
const QUERIES: usize = 20;

struct Setup {
    data: Arc<Dataset>,
    template: Template,
    engine: SkylineEngine,
    inserts: Vec<(Vec<f64>, Vec<ValueId>)>,
    queries: Vec<Preference>,
    /// A hybrid whose tree is stale (mutations applied): every query fallback-served.
    mutated: SkylineEngine,
    /// The same engine after one generation rebuild: compacted, tree-served again.
    rebuilt: SkylineEngine,
    /// Queries the rebuilt tree fully materializes (tree-served post-rebuild).
    tree_queries: Vec<Preference>,
}

fn setup() -> Setup {
    let config = ExperimentConfig {
        n: TUPLES,
        ..ExperimentConfig::paper_default()
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let engine = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: 10 },
    )
    .expect("hybrid engine builds");
    let mut generator = config.query_generator();
    let queries =
        generator.random_preferences(data.schema(), &template, config.pref_order, QUERIES, None);
    let inserts: Vec<(Vec<f64>, Vec<ValueId>)> = generator
        .mixed_workload(
            data.schema(),
            &template,
            config.pref_order,
            1,
            BATCH * 3,
            config.theta,
            1.0,
            0,
        )
        .into_iter()
        .filter_map(|op| match op {
            WorkloadOp::Insert { numeric, nominal } => Some((numeric, nominal)),
            _ => None,
        })
        .take(BATCH)
        .collect();
    assert_eq!(inserts.len(), BATCH);

    // The compaction-vs-fallback pair: mutate a hybrid (stale tree, tombstones), then swap
    // in a rebuilt generation. Both engines hold the same live rows.
    let mut mutated = engine.clone();
    let (numeric, nominal) = &inserts[0];
    mutated.insert_row(numeric, nominal).expect("insert");
    for p in 0..32u32 {
        mutated.delete_row(p).expect("delete");
    }
    let shared = SharedEngine::new(mutated.clone());
    shared.rebuild_now().expect("generation rebuild");
    let rebuilt = shared.read().clone();
    // Preferences over the rebuilt tree's materialized (popular) values only — the queries a
    // production hybrid serves from the tree, and exactly the ones a stale tree sends to the
    // fallback instead.
    let allowed: Vec<Vec<ValueId>> = (0..data.schema().nominal_count())
        .map(|j| {
            rebuilt
                .ipo_tree()
                .expect("hybrid engines carry a tree")
                .materialization()
                .values(j)
                .to_vec()
        })
        .collect();
    let tree_queries: Vec<Preference> = generator
        .random_preferences(
            data.schema(),
            &template,
            config.pref_order,
            QUERIES * 4,
            Some(&allowed),
        )
        .into_iter()
        .filter(|q| rebuilt.serves_from_tree(q))
        .take(QUERIES)
        .collect();
    assert_eq!(tree_queries.len(), QUERIES, "enough materialized queries");
    for q in &tree_queries {
        assert_eq!(
            mutated.query(q).expect("query").method,
            MethodUsed::AdaptiveSfs,
            "the mutated hybrid must be fallback-served"
        );
        assert_eq!(
            rebuilt.query(q).expect("query").method,
            MethodUsed::IpoTree,
            "the rebuilt hybrid must be tree-served"
        );
    }

    Setup {
        data,
        template,
        engine,
        inserts,
        queries,
        mutated,
        rebuilt,
        tree_queries,
    }
}

/// Answer the tree-materialized query mix on one engine; returns total result size.
fn run_tree_queries(engine: &SkylineEngine, queries: &[Preference]) -> usize {
    let mut total = 0usize;
    for q in queries {
        total += engine.query(q).expect("query").skyline.len();
    }
    total
}

/// The incremental arm: absorb the batch in place, then answer the query mix.
fn run_incremental(s: &Setup) -> usize {
    let mut engine = s.engine.clone();
    for (numeric, nominal) in &s.inserts {
        engine.insert_row(numeric, nominal).expect("insert");
    }
    let mut total = 0usize;
    for q in &s.queries {
        total += engine.query(q).expect("query").skyline.len();
    }
    total
}

/// The rebuild arm: append the same batch to a dataset copy, rebuild, answer the same mix.
fn run_rebuild(s: &Setup) -> usize {
    let mut data = (*s.data).clone();
    for (numeric, nominal) in &s.inserts {
        data.push_row_ids(numeric, nominal).expect("push");
    }
    let engine = SkylineEngine::build(data, s.template.clone(), EngineConfig::Hybrid { top_k: 10 })
        .expect("rebuild");
    let mut total = 0usize;
    for q in &s.queries {
        total += engine.query(q).expect("query").skyline.len();
    }
    total
}

fn bench_updates(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("updates_dynamic");
    group.sample_size(5);

    group.bench_function("incremental_insert_query", |b| {
        b.iter(|| black_box(run_incremental(&s)))
    });
    group.bench_function("rebuild_insert_query", |b| {
        b.iter(|| black_box(run_rebuild(&s)))
    });
    group.bench_function("fallback_query_mutated_hybrid", |b| {
        b.iter(|| black_box(run_tree_queries(&s.mutated, &s.tree_queries)))
    });
    group.bench_function("tree_query_rebuilt_hybrid", |b| {
        b.iter(|| black_box(run_tree_queries(&s.rebuilt, &s.tree_queries)))
    });
    group.finish();

    // Extra measured passes reporting the acceptance numbers alongside the timings: three
    // interleaved rounds per arm, best-of taken, so a single noisy pass cannot skew the
    // printed (and locally asserted) speedup. Both arms must agree on every answer.
    let mut incremental = std::time::Duration::MAX;
    let mut rebuild = std::time::Duration::MAX;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let a = run_incremental(&s);
        incremental = incremental.min(started.elapsed());
        let started = std::time::Instant::now();
        let b = run_rebuild(&s);
        rebuild = rebuild.min(started.elapsed());
        assert_eq!(
            a, b,
            "incremental maintenance and full rebuild must produce identical skylines"
        );
    }
    let speedup = rebuild.as_secs_f64() / incremental.as_secs_f64();
    println!(
        "  summary: {BATCH} inserts + {QUERIES} queries at n={TUPLES}; \
         incremental {:.2}ms vs rebuild {:.2}ms — {speedup:.1}x",
        incremental.as_secs_f64() * 1e3,
        rebuild.as_secs_f64() * 1e3,
    );
    // Hard-assert only on full local runs; the CI smoke job (SKYLINE_BENCH_SAMPLES set) runs
    // on noisy shared runners where a hard perf gate would flake.
    if std::env::var("SKYLINE_BENCH_SAMPLES").is_err() {
        assert!(
            speedup > 1.0,
            "incremental insert+query must beat full rebuild+query, got {speedup:.2}x"
        );
    } else if speedup < 1.0 {
        println!(
            "::warning title=updates bench::incremental path slower than rebuild \
             ({speedup:.2}x) in this smoke run"
        );
    }

    // Compaction vs fallback: the same materialized queries on the mutated hybrid (every
    // query through the Adaptive-SFS fallback) vs after one generation rebuild (tree-served).
    // Best-of-3 interleaved passes; both engines must agree on every answer size (ids differ
    // — the rebuild renumbered the rows).
    let mut fallback = std::time::Duration::MAX;
    let mut tree = std::time::Duration::MAX;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let a = run_tree_queries(&s.mutated, &s.tree_queries);
        fallback = fallback.min(started.elapsed());
        let started = std::time::Instant::now();
        let b = run_tree_queries(&s.rebuilt, &s.tree_queries);
        tree = tree.min(started.elapsed());
        assert_eq!(
            a, b,
            "fallback and rebuilt-tree serving must produce identically sized skylines"
        );
    }
    let tree_speedup = fallback.as_secs_f64() / tree.as_secs_f64();
    println!(
        "  summary: {QUERIES} tree-materialized queries at n={TUPLES}; mutated-hybrid \
         fallback {:.2}ms vs post-rebuild tree {:.2}ms — {tree_speedup:.1}x",
        fallback.as_secs_f64() * 1e3,
        tree.as_secs_f64() * 1e3,
    );
    if std::env::var("SKYLINE_BENCH_SAMPLES").is_err() {
        assert!(
            tree_speedup > 1.0,
            "rebuild-served queries must beat the fallback path, got {tree_speedup:.2}x"
        );
    } else if tree_speedup < 1.0 {
        println!(
            "::warning title=updates bench::post-rebuild tree slower than fallback \
             ({tree_speedup:.2}x) in this smoke run"
        );
    }
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
