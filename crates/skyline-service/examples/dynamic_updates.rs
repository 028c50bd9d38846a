//! Dynamic datasets end-to-end: rows are inserted and sold-out rows deleted while a
//! cache-backed service keeps answering — every mutation bumps the dataset epoch, one that
//! changes the template skyline also its skyline epoch, which atomically invalidates the
//! cached skylines (no flush; stale entries expire lazily), and the Adaptive-SFS engine
//! absorbs each update incrementally instead of rebuilding.
//!
//! The second half shows the **generational lifecycle**: a hybrid engine whose template
//! skyline changed falls back to Adaptive SFS for every query (its truncated IPO tree is
//! stale), until the service's build pool compacts the dataset — physically reclaiming
//! tombstoned rows — and re-materializes the tree, after which popular queries are
//! tree-served again.
//!
//! Run with: `cargo run -p skyline-service --release --example dynamic_updates`

use skyline::prelude::*;
use skyline_service::{GlobalRowId, ShardedConfig, ShardedService};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<()> {
    // A scaled-down Table 4 configuration: anti-correlated numerics, Zipfian nominals.
    let config = ExperimentConfig {
        n: 4_000,
        ..ExperimentConfig::paper_default()
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let schema = data.schema().clone();
    println!(
        "dataset: {} tuples, {} numeric + {} nominal dimensions",
        data.len(),
        config.numeric_dims,
        config.nominal_dims
    );

    // One engine behind the service: a single shard, whose row ids are the engine's own.
    let engine = SkylineEngine::build(data, template.clone(), EngineConfig::AdaptiveSfs)?;
    let service = ShardedService::from_engines(vec![engine.into()], ShardedConfig::default())?;
    let row = |row: PointId| GlobalRowId { shard: 0, row };

    // A mixed read/write stream: Zipf-skewed queries with inserts and deletes interleaved.
    let mut generator = config.query_generator();
    let ops = generator.mixed_workload(
        &schema,
        &template,
        config.pref_order,
        32,    // preference pool
        1_000, // operations
        config.theta,
        0.10, // ~10% writes
        service.shard(0).read().dataset().len(),
    );
    let (mut queries, mut inserts, mut deletes) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    for op in &ops {
        match op {
            WorkloadOp::Query(pref) => {
                service.serve(pref)?;
                queries += 1;
            }
            WorkloadOp::Insert { numeric, nominal } => {
                service.insert_row(numeric, nominal)?;
                inserts += 1;
            }
            WorkloadOp::Delete { row: p } => {
                service.delete_row(row(*p))?;
                deletes += 1;
            }
        }
    }
    let elapsed = started.elapsed();
    let stats = service.stats();
    println!(
        "served {queries} queries with {inserts} inserts + {deletes} deletes interleaved \
         in {:.1} ms",
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "cache: {:.1}% hit rate, {} mutations, {} stale entries lazily expired",
        100.0 * stats.hit_rate(),
        stats.mutations,
        stats.stale_evictions
    );
    println!(
        "engine: epoch {}, {} live rows",
        service.epochs()[0].get(),
        service.live_rows()
    );

    // Why incremental maintenance matters: absorb 64 inserts one at a time vs. one full
    // rebuild at the same size. (An all-write stream from an empty dataset is roughly half
    // inserts and half deletes, so over-generate and keep the first 64 inserts.)
    let engine = service.shard(0);
    let mut generator = QueryGenerator::new(7);
    let fresh_rows: Vec<WorkloadOp> = generator
        .mixed_workload(
            &schema,
            &template,
            config.pref_order,
            1,
            64 * 3,
            1.0,
            1.0,
            0,
        )
        .into_iter()
        .filter(|op| matches!(op, WorkloadOp::Insert { .. }))
        .take(64)
        .collect();
    assert_eq!(fresh_rows.len(), 64);

    let started = Instant::now();
    for op in &fresh_rows {
        if let WorkloadOp::Insert { numeric, nominal } = op {
            engine.write().insert_row(numeric, nominal)?;
        }
    }
    let incremental = started.elapsed();

    let snapshot = engine.read().dataset_arc().clone();
    let started = Instant::now();
    let rebuilt = SkylineEngine::build(snapshot, template.clone(), EngineConfig::AdaptiveSfs)?;
    let rebuild = started.elapsed();
    println!(
        "{} incremental inserts: {:.2} ms total; ONE full rebuild at this size: {:.2} ms",
        fresh_rows.len(),
        incremental.as_secs_f64() * 1e3,
        rebuild.as_secs_f64() * 1e3
    );
    drop(rebuilt);

    // ---- The generational lifecycle: a hybrid engine recovering its IPO tree. ----
    println!("\n-- background maintenance on a hybrid engine --");
    let config = ExperimentConfig {
        n: 2_000,
        ..ExperimentConfig::paper_default()
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    // `top_k` = the full cardinality keeps the demo deterministic: a truncated tree's top-k
    // *values* can shift when deletions move the frequency ranking, in which case a
    // previously popular preference may (correctly) stay on the fallback after the rebuild.
    let hybrid = SharedEngine::new(SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: 20 },
    )?);
    // Production settings would use something like `dead_row_ratio: 0.25` and
    // `max_mutations_since_rebuild: 4096` (the defaults) and let the build pool fire on its
    // own; this demo keeps the thresholds out of reach and triggers the cycle explicitly so
    // the before/after states are deterministic to read.
    let service = ShardedService::from_engines(
        vec![hybrid.clone()],
        ShardedConfig {
            maintenance: Some(MaintenancePolicy {
                dead_row_ratio: 1.0,
                max_mutations_since_rebuild: u64::MAX,
                poll_interval: Duration::from_millis(20),
            }),
            ..ShardedConfig::default()
        },
    )?;
    // A popular preference the truncated tree fully materializes (tree-served when fresh).
    let mut generator = config.query_generator();
    let popular = generator
        .random_preferences(data.schema(), &template, config.pref_order, 64, None)
        .into_iter()
        .find(|p| hybrid.read().serves_from_tree(p))
        .expect("some generated preference is fully materialized");
    assert_eq!(
        service.serve(&popular)?.outcome.methods,
        [MethodUsed::IpoTree],
        "fresh hybrid: tree-served"
    );

    // Deletes that take members out of the template skyline stale the tree: every query now
    // routes to the Adaptive-SFS fallback, and tombstones pile up in the dataset.
    for p in 0..100u32 {
        service.delete_row(row(p))?;
    }
    let before = service.serve(&popular)?;
    assert_eq!(
        before.outcome.methods,
        [MethodUsed::AdaptiveSfs],
        "mutated hybrid: fallback-served"
    );
    println!(
        "after 100 deletes: {} dead rows in the dataset, queries fallback-served",
        hybrid.read().dead_rows()
    );

    // Run one rebuild cycle right now: snapshot → compact + re-materialize with no lock
    // held (readers keep serving) → atomic swap.
    let remap = service
        .force_rebuild_shard(0)?
        .expect("no rebuild was in flight");
    // The answer cached just before the swap does not survive it: the swap moved the
    // shard's skyline epoch, so the entry expired and the answer is recomputed. The
    // pre-swap answer, renumbered through the remap the swap returned, is the new one.
    let served = service.serve(&popular)?;
    assert!(!served.cache_hit, "the swap expired the cached answer");
    let old_rows: Vec<PointId> = before.outcome.skyline.iter().map(|g| g.row).collect();
    let new_rows: Vec<PointId> = served.outcome.skyline.iter().map(|g| g.row).collect();
    assert_eq!(remap.translate_ids(&old_rows), Some(new_rows));
    // And the engine itself serves popular preferences from the re-materialized tree again
    // (engine introspection — the hybrid's routing predicate, not timing).
    assert!(hybrid.read().serves_from_tree(&popular));
    assert_eq!(
        hybrid.read().query(&popular)?.method,
        MethodUsed::IpoTree,
        "rebuilt hybrid: tree-served again"
    );
    let stats = service.stats();
    println!(
        "after {} generation rebuild(s): {} rows physically reclaimed, {} dead rows left, \
         fresh evaluations tree-served again",
        stats.rebuilds,
        stats.reclaimed_rows,
        hybrid.read().dead_rows(),
    );
    println!(
        "cache after the swap: the pre-swap answer expired and was recomputed; renumbered \
         through the swap's remap ({} rows reclaimed) it equals the new answer",
        remap.reclaimed()
    );
    Ok(())
}
