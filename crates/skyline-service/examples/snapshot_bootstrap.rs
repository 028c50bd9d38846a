//! Persistence and instant cold start, end-to-end: build a two-shard service the expensive
//! way (template scoring and the Adaptive-SFS sort per shard), write its per-shard binary
//! snapshots, kill the process state by dropping the service, rehydrate a fresh service from
//! the snapshot files alone, and serve — checking that the revived service answers with the
//! same rows and printing the rebuild-vs-load wall time the snapshot format exists to win.
//!
//! Run with: `cargo run -p skyline-service --release --example snapshot_bootstrap`

use skyline::prelude::*;
use skyline_service::{ShardedConfig, ShardedService};
use std::time::Instant;

fn main() -> Result<()> {
    // A scaled-down Table 4 configuration: anti-correlated numerics, Zipfian nominals.
    let config = ExperimentConfig {
        n: 20_000,
        ..ExperimentConfig::paper_default()
    };
    let data = config.generate_dataset();
    let template = config.template(&data);
    let schema = data.schema().clone();
    let sharded = ShardedConfig {
        shards: 2,
        workers: 2,
        ..ShardedConfig::default()
    };

    // 1. Build: the full preprocessing pipeline, per shard — this is the cost a restart
    //    pays every time when the only durable state is the raw rows. At two shards every
    //    miss is answered from the global template skyline and no read would consult a
    //    shard's IPO tree, so the hybrid config builds Adaptive-SFS shards.
    let started = Instant::now();
    let service = ShardedService::build(
        &data,
        template.clone(),
        EngineConfig::Hybrid { top_k: 10 },
        sharded.clone(),
    )?;
    let build_elapsed = started.elapsed();
    println!(
        "build:  {} tuples preprocessed into {} Adaptive-SFS shards in {:.1} ms",
        data.len(),
        service.shard_count(),
        build_elapsed.as_secs_f64() * 1e3
    );

    let mut generator = config.query_generator();
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);
    let before = service.serve(&pref)?;
    println!(
        "serve:  {} skyline rows from the built service",
        before.outcome.skyline.len()
    );

    // 2. Write: one versioned, checksummed `shard-NNNN.snap` per shard. With
    //    `ShardedConfig::snapshot_dir` set, the build pool rewrites these automatically
    //    after every generation swap; here we write explicitly.
    let dir =
        std::env::temp_dir().join(format!("skyline-snapshot-bootstrap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    let files = service.write_snapshots(&dir)?;
    let mut total_bytes = 0u64;
    for path in &files {
        total_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    }
    println!(
        "write:  {} snapshot files ({} KiB) in {:.1} ms",
        files.len(),
        total_bytes / 1024,
        started.elapsed().as_secs_f64() * 1e3
    );

    // 3. Kill: drop every in-memory structure. Only the snapshot files survive.
    let mut expected = before.outcome.skyline.clone();
    expected.sort_unstable();
    drop(service);

    // 4. Reload: rehydrate the columns and the sorted Adaptive-SFS list directly from the
    //    files — no re-scoring, no re-sorting.
    let started = Instant::now();
    let revived = ShardedService::from_snapshots(&dir, sharded)?;
    let load_elapsed = started.elapsed();
    println!(
        "load:   {} shards rehydrated from snapshots in {:.1} ms",
        revived.shard_count(),
        load_elapsed.as_secs_f64() * 1e3
    );

    // 5. Serve: the revived service answers exactly like the one that wrote the files — the
    //    same rows, since row ids survive the round trip.
    let after = revived.serve(&pref)?;
    let mut rows = after.outcome.skyline.clone();
    rows.sort_unstable();
    assert_eq!(
        rows, expected,
        "snapshot-loaded service must answer like the built one"
    );
    let stats = revived.stats();
    println!(
        "serve:  {} skyline rows from the revived service \
         (stats: {} snapshot loads, {} ms load, {} ms preprocess)",
        after.outcome.skyline.len(),
        stats.snapshot_loads,
        stats.snapshot_load_ms,
        stats.preprocess_build_ms
    );
    println!(
        "cold start: rebuild {:.1} ms vs snapshot load {:.1} ms — {:.1}x",
        build_elapsed.as_secs_f64() * 1e3,
        load_elapsed.as_secs_f64() * 1e3,
        build_elapsed.as_secs_f64() / load_elapsed.as_secs_f64()
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
