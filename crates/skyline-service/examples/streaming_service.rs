//! Progressive skyline serving end-to-end: time-to-first-row vs whole-answer latency, a
//! finished stream warming the cache for batch and stream requests alike, and a sharded
//! stream served from the global template skyline — built once per epoch vector, while one
//! shard is slow — or without a shard that drops out entirely.
//!
//! Run with: `cargo run -p skyline-service --release --example streaming_service`
//!
//! The fault injector arms itself from the `SKYLINE_FAULTS` environment variable at build
//! time — the same grammar this example feeds to `delay_shard_query` by hand:
//!
//! ```text
//! SKYLINE_FAULTS="delay-on-shard-query=0:40" \
//!     cargo run -p skyline-service --release --example streaming_service
//! ```

use skyline::prelude::*;
use skyline_service::{DegradePolicy, RecoveryPolicy, ShardedConfig, ShardedService};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<()> {
    let config = ExperimentConfig {
        n: 60_000,
        ..ExperimentConfig::paper_default()
    };
    let data = config.generate_dataset();
    let template = config.template(&data);
    let schema = data.schema().clone();
    let mut generator = config.query_generator();

    // ── Progressive vs batch on one engine ────────────────────────────────────────────
    // `serve_streaming` hands out each skyline member as soon as it is confirmed — in
    // ascending query-score order, never retracted — instead of materializing the whole
    // answer first. The first row is typically ready orders of magnitude before the last.
    let engine = SkylineEngine::build(
        Arc::new(data.clone()),
        template.clone(),
        EngineConfig::AdaptiveSfs,
    )?;
    let service = ShardedService::from_engines(
        vec![engine.into()],
        ShardedConfig {
            workers: 2,
            ..ShardedConfig::default()
        },
    )?;
    // `SKYLINE_FAULTS` arms every service built in this process; this section times the
    // undisturbed path, the slow shard belongs to the sharded section below.
    service.fault_injector().clear();
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);

    let started = Instant::now();
    let mut stream = service.serve_streaming(&pref)?;
    let first = stream.next_row()?.expect("non-empty skyline");
    let ttfr = started.elapsed();
    let mut rows = vec![first];
    rows.extend(stream.collect_rows()?);
    let total = started.elapsed();
    println!(
        "one shard, n={}: first row in {:.2} ms, all {} rows in {:.2} ms \
         ({}x the wait for a batch answer)",
        data.len(),
        ttfr.as_secs_f64() * 1e3,
        rows.len(),
        total.as_secs_f64() * 1e3,
        (total.as_secs_f64() / ttfr.as_secs_f64().max(1e-9)).round() as u64,
    );

    // ── A finished stream warms the cache ─────────────────────────────────────────────
    // The stream cached its answer in the batch layout when it completed: an identical batch
    // request is a hit, and a second stream replays the same rows in the same score order
    // without touching the engine. Concurrent *unfinished* streams do not share work — each
    // runs its own scan, so a consumer that stops pulling can never hold up anyone else.
    let served = service.serve(&pref)?;
    assert!(
        served.cache_hit,
        "the finished stream warmed the batch path"
    );
    let replay = service.serve_streaming(&pref)?.collect_rows()?;
    assert_eq!(
        replay, rows,
        "a replayed stream emits the same rows, same order"
    );
    let stats = service.stats();
    println!(
        "cache warm-up: {} streams started, {} engine run, batch hit + replayed stream of \
         {} rows (ttfr p50 {:.2} ms)",
        stats.streams_started,
        stats.misses,
        replay.len(),
        stats.ttfr_p50.as_secs_f64() * 1e3,
    );

    // ── Sharded streaming with a slow shard ───────────────────────────────────────────
    // With several shards, the first miss at an epoch vector builds the global template
    // skyline from every shard's sorted list; every stream at that vector is then one
    // Adaptive-SFS scan over it, reading no shard. Here shard 0 is slowed 40 ms (the same
    // failpoint `SKYLINE_FAULTS=delay-on-shard-query=0:40` arms from the environment): the
    // first stream's first row waits for the build, the next stream's does not.
    let sharded = ShardedService::build(
        &data,
        template.clone(),
        EngineConfig::AdaptiveSfs,
        ShardedConfig {
            shards: 4,
            workers: 4,
            degrade: DegradePolicy::Tolerate { max_degraded: 1 },
            recovery: RecoveryPolicy {
                max_attempts: 5,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
            },
            ..ShardedConfig::default()
        },
    )?;
    if !sharded.fault_injector().is_armed() {
        sharded
            .fault_injector()
            .delay_shard_query(0, Duration::from_millis(40));
    }
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);
    let started = Instant::now();
    let mut stream = sharded.serve_streaming(&pref)?;
    let first = stream.next_row()?.expect("non-empty skyline");
    let ttfr = started.elapsed();
    let mut rows = vec![first];
    rows.extend(stream.collect_rows()?);
    let total = started.elapsed();
    println!(
        "4 shards, shard 0 delayed 40 ms: first row {:?} in {:.2} ms, all {} rows in \
         {:.2} ms",
        first,
        ttfr.as_secs_f64() * 1e3,
        rows.len(),
        total.as_secs_f64() * 1e3,
    );
    assert!(
        ttfr >= Duration::from_millis(40),
        "the build read the delayed shard"
    );
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);
    let started = Instant::now();
    let mut stream = sharded.serve_streaming(&pref)?;
    stream.next_row()?;
    let warm = started.elapsed();
    stream.collect_rows()?;
    sharded.fault_injector().clear();
    println!(
        "the next stream at the same epoch vector: first row in {:.2} ms, no shard read \
         ({} build of the global template skyline, {} rows)",
        warm.as_secs_f64() * 1e3,
        sharded.stats().template_skyline_builds,
        sharded.stats().global_skyline_rows,
    );

    // A write that changes a shard's template skyline moves the skyline-epoch vector; the
    // next miss rebuilds the global template skyline, reading every shard again — which is
    // what the next section needs to reach shard 1. A row below every existing one on all
    // numerics enters its shard's template skyline, and deleting it moves the vector again.
    let id = sharded.insert_row(
        &vec![-1.0; schema.numeric_count()],
        &vec![0; schema.nominal_count()],
    )?;
    assert!(sharded.delete_row(id)?);

    // ── A shard dying in the build degrades the stream, not the service ───────────────
    // An injected panic quarantines shard 1 while the stream opens; under the tolerant
    // policy the stream serves the healthy shards' skyline, flagged — and never cached.
    // The quarantined shard heals through the backoff rebuild as usual.
    sharded
        .fault_injector()
        .arm_from_spec("panic-on-shard-query=1:1");
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);
    let stream = sharded.serve_streaming(&pref)?;
    let degraded = stream.degraded_shards().to_vec();
    let rows = stream.collect_rows()?;
    println!(
        "degraded stream: shards {:?} missing, {} rows from the healthy shards, \
         quarantined={:?}",
        degraded,
        rows.len(),
        sharded.quarantined_shards(),
    );
    assert_eq!(degraded, [1]);
    assert_eq!(
        sharded.quarantined_shards(),
        [1],
        "the panicked shard is quarantined"
    );
    Ok(())
}
