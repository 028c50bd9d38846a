//! Serving queries concurrently: one shared engine behind a one-shard service, a Zipf-skewed
//! crowd of users, a result cache — and the throughput ratio against serving the same
//! workload serially.
//!
//! Run with: `cargo run -p skyline-service --release --example concurrent_users`

use skyline::prelude::*;
use skyline_service::{ShardedConfig, ShardedService};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<()> {
    // A scaled-down Table 4 configuration: anti-correlated numerics, Zipfian nominals.
    let config = ExperimentConfig {
        n: 4_000,
        ..ExperimentConfig::paper_default()
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    println!(
        "dataset: {} tuples, {} numeric + {} nominal dimensions",
        data.len(),
        config.numeric_dims,
        config.nominal_dims
    );

    // One build serves everyone: the engine is Send + Sync.
    let engine = SkylineEngine::build(data, template.clone(), EngineConfig::Hybrid { top_k: 10 })?;

    // A multi-user workload: 2000 queries drawn from a pool of 64 preference profiles with
    // Zipf(θ=1) popularity — a few profiles are asked over and over, as in production.
    let mut generator = config.query_generator();
    let queries = generator.zipf_workload(
        engine.dataset().schema(),
        &template,
        config.pref_order,
        64,
        2_000,
        1.0,
    );
    let engine = SharedEngine::new(engine);

    // Serial baseline: every query runs the engine from scratch.
    let started = Instant::now();
    {
        let engine = engine.read();
        for q in &queries {
            engine.query(q)?;
        }
    }
    let serial = started.elapsed();
    println!(
        "serial engine     : {:>8.1} ms  ({:.0} queries/s)",
        serial.as_secs_f64() * 1e3,
        queries.len() as f64 / serial.as_secs_f64()
    );

    // Concurrent service over the same engine (one shard): worker pool +
    // canonical-preference result cache.
    let service = ShardedService::from_engines(vec![engine], ShardedConfig::default())?;
    let started = Instant::now();
    let answers = service.serve_batch(&queries);
    let batched = started.elapsed();
    let errors = answers.iter().filter(|a| a.is_err()).count();
    assert_eq!(errors, 0, "every query must be served");

    let stats = service.stats();
    println!(
        "concurrent service: {:>8.1} ms  ({:.0} queries/s) on {} workers",
        batched.as_secs_f64() * 1e3,
        queries.len() as f64 / batched.as_secs_f64(),
        service.workers()
    );
    println!(
        "cache: {:.1}% hit rate ({} hits / {} misses), {} entries resident",
        100.0 * stats.hit_rate(),
        stats.hits,
        stats.misses,
        service.cache_len()
    );
    println!("latency: p50 ≤ {:?}, p99 ≤ {:?}", stats.p50, stats.p99);
    println!(
        "speedup: {:.1}× over serial serving",
        serial.as_secs_f64() / batched.as_secs_f64()
    );
    Ok(())
}
