//! Multi-user serving throughput: a Zipf-skewed preference stream (many users, few popular
//! profiles) answered three ways on the same shared engine (the service arms wrap it as a
//! one-shard `ShardedService`) —
//!
//! * `serial_engine` — every query runs `SkylineEngine::query` from scratch, one thread;
//! * `service_no_cache` — the worker-pool batch executor, result cache disabled (isolates
//!   the thread-scaling contribution; on a single-core host this tracks serial);
//! * `service_cached` — the full service: worker pool + canonical-preference LRU cache.
//!
//! A fresh service is built (`from_engines`, no preprocessing) inside every iteration so each
//! sample pays the same cold-cache miss load; the printed summary reports the steady cache hit rate of the workload.

use criterion::{criterion_group, criterion_main, Criterion};
use skyline::prelude::*;
use skyline_service::{ShardedConfig, ShardedService};
use std::hint::black_box;
use std::sync::Arc;

const TUPLES: usize = 2_000;
const POOL: usize = 48;
const QUERIES: usize = 300;

fn setup() -> (SharedEngine, Vec<Preference>) {
    let config = ExperimentConfig {
        n: TUPLES,
        ..ExperimentConfig::paper_default()
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let engine = SharedEngine::new(
        SkylineEngine::build(
            data.clone(),
            template.clone(),
            EngineConfig::Hybrid { top_k: 10 },
        )
        .expect("hybrid engine builds"),
    );
    let mut generator = config.query_generator();
    let queries = generator.zipf_workload(
        data.schema(),
        &template,
        config.pref_order,
        POOL,
        QUERIES,
        config.theta,
    );
    (engine, queries)
}

/// A fresh cold-cache one-shard service over the prebuilt engine.
fn cold_service(engine: &SharedEngine, config: ShardedConfig) -> ShardedService {
    ShardedService::from_engines(vec![engine.clone()], config).expect("one coherent engine")
}

fn bench_throughput(c: &mut Criterion) {
    let (engine, queries) = setup();
    let mut group = c.benchmark_group("throughput_zipf_multi_user");
    group.sample_size(5);

    group.bench_function("serial_engine", |b| {
        b.iter(|| {
            let engine = engine.read();
            for q in &queries {
                black_box(engine.query(q).expect("query succeeds"));
            }
        })
    });

    group.bench_function("service_no_cache", |b| {
        b.iter(|| {
            let service = cold_service(
                &engine,
                ShardedConfig {
                    cache_capacity: 0,
                    ..ShardedConfig::default()
                },
            );
            black_box(service.serve_batch(&queries));
        })
    });

    group.bench_function("service_cached", |b| {
        b.iter(|| {
            let service = cold_service(&engine, ShardedConfig::default());
            black_box(service.serve_batch(&queries));
        })
    });
    group.finish();

    // One extra measured pass to report the acceptance numbers alongside the timings.
    let service = cold_service(&engine, ShardedConfig::default());
    let started = std::time::Instant::now();
    {
        let engine = engine.read();
        for q in &queries {
            engine.query(q).expect("query succeeds");
        }
    }
    let serial = started.elapsed();
    let started = std::time::Instant::now();
    let answers = service.serve_batch(&queries);
    let batched = started.elapsed();
    assert!(answers.iter().all(|a| a.is_ok()), "every query serves");
    let stats = service.stats();
    println!(
        "  summary: {} queries over a pool of {POOL} ({} workers); \
         cache hit rate {:.1}%, speedup {:.1}x over serial",
        QUERIES,
        service.workers(),
        100.0 * stats.hit_rate(),
        serial.as_secs_f64() / batched.as_secs_f64()
    );
    assert!(
        stats.hit_rate() > 0.5,
        "Zipf workload must exceed a 50% hit rate, got {:.3}",
        stats.hit_rate()
    );
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
