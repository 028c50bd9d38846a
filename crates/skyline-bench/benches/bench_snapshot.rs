//! Snapshot cold start: rehydrating a service from its persistent binary snapshot vs
//! rebuilding it from raw rows.
//!
//! The snapshot format exists for exactly one reason — a restarted server should start
//! answering in the time it takes to read, checksum and index a few column blobs, not in
//! the time it takes to re-run preprocessing (template scoring and the Adaptive-SFS sort).
//! The criterion arms measure the two cold-start endpoints on the paper-default dataset,
//! sharded two ways. A service of two or more shards answers every miss from the global
//! template skyline and holds Adaptive-SFS shards only, so no IPO tree is built or loaded:
//!
//! * `preprocess_build` — `ShardedService::build` from the raw dataset (partition, score,
//!   sort per shard);
//! * `snapshot_load` — `ShardedService::from_snapshots` over `shard-NNNN.snap` files
//!   written once in setup (parse, checksum, rehydrate without re-sorting).
//!
//! On a full local run (`SKYLINE_BENCH_SAMPLES` unset, n = 100 000) the summary
//! hard-asserts the snapshot load is **≥ 10×** faster than the rebuild — the format has to
//! actually buy near-zero deserialization, not just round-trip. The CI smoke job runs a
//! scaled-down dataset on shared runners and never hard-asserts. Both paths are also
//! answer-checked against each other on a handful of random preferences before any timing
//! is trusted.

use criterion::{criterion_group, criterion_main, Criterion};
use skyline::prelude::*;
use skyline_service::{ShardedConfig, ShardedService};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

struct Setup {
    data: Dataset,
    template: Template,
    sharded: ShardedConfig,
    snapshot_dir: PathBuf,
    generator: QueryGenerator,
    pref_order: usize,
    tuples: usize,
}

fn sharded_config() -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        workers: 2,
        ..ShardedConfig::default()
    }
}

fn setup() -> Setup {
    let smoke = std::env::var("SKYLINE_BENCH_SAMPLES").is_ok();
    let tuples = if smoke { 8_000 } else { 100_000 };
    let config = ExperimentConfig {
        n: tuples,
        ..ExperimentConfig::paper_default()
    };
    let data = config.generate_dataset();
    let template = config.template(&data);
    let snapshot_dir =
        std::env::temp_dir().join(format!("skyline-bench-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    // Write the snapshot files the load arm reads, and answer-check the rehydrated service
    // against the built one before any timing is trusted.
    let built = ShardedService::build(
        &data,
        template.clone(),
        EngineConfig::AdaptiveSfs,
        sharded_config(),
    )
    .expect("sharded service builds");
    built
        .write_snapshots(&snapshot_dir)
        .expect("snapshots write");
    let loaded =
        ShardedService::from_snapshots(&snapshot_dir, sharded_config()).expect("snapshots load");
    let mut generator = config.query_generator();
    let schema = data.schema().clone();
    for _ in 0..8 {
        let pref = generator.random_preference(&schema, &template, config.pref_order, None);
        let a = built.serve(&pref).expect("built serves");
        let b = loaded.serve(&pref).expect("loaded serves");
        assert_eq!(
            a.outcome.skyline, b.outcome.skyline,
            "snapshot-loaded service must answer like the built one"
        );
    }

    Setup {
        data,
        template,
        sharded: sharded_config(),
        snapshot_dir,
        generator,
        pref_order: config.pref_order,
        tuples,
    }
}

fn build(s: &Setup) -> ShardedService {
    ShardedService::build(
        &s.data,
        s.template.clone(),
        EngineConfig::AdaptiveSfs,
        s.sharded.clone(),
    )
    .expect("sharded service builds")
}

fn load(s: &Setup) -> ShardedService {
    ShardedService::from_snapshots(&s.snapshot_dir, s.sharded.clone()).expect("snapshots load")
}

fn bench_snapshot(c: &mut Criterion) {
    let mut s = setup();
    let mut group = c.benchmark_group("snapshot_cold_start");
    group.sample_size(5);
    group.bench_function("preprocess_build", |b| b.iter(|| black_box(build(&s))));
    group.bench_function("snapshot_load", |b| b.iter(|| black_box(load(&s))));
    group.finish();

    // Summary pass: best-of-3 wall times for each cold-start path, plus one served query on
    // the freshly loaded service so the comparison ends at the same "ready to answer" line.
    let mut best_build = Duration::MAX;
    let mut best_load = Duration::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        black_box(build(&s));
        best_build = best_build.min(started.elapsed());

        let started = Instant::now();
        let loaded = black_box(load(&s));
        best_load = best_load.min(started.elapsed());

        let schema = s.data.schema().clone();
        let pref = s
            .generator
            .random_preference(&schema, &s.template, s.pref_order, None);
        black_box(
            loaded
                .serve(&pref)
                .expect("loaded serves")
                .outcome
                .skyline
                .len(),
        );
    }
    let speedup = best_build.as_secs_f64() / best_load.as_secs_f64();
    println!(
        "  summary: cold start at n={} ({SHARDS} Adaptive-SFS shards) — rebuild {:.2}ms \
         vs snapshot load {:.2}ms ({speedup:.1}x)",
        s.tuples,
        best_build.as_secs_f64() * 1e3,
        best_load.as_secs_f64() * 1e3,
    );
    let smoke = std::env::var("SKYLINE_BENCH_SAMPLES").is_ok();
    if !smoke {
        assert!(
            speedup >= 10.0,
            "snapshot cold start must be at least 10x faster than preprocessing at \
             n={}, got {speedup:.2}x (rebuild {best_build:?}, load {best_load:?})",
            s.tuples,
        );
    } else if speedup < 10.0 {
        println!("::warning title=snapshot bench::smoke-run speedup only {speedup:.2}x");
    }

    let _ = std::fs::remove_dir_all(&s.snapshot_dir);
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
