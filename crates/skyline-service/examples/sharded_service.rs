//! Sharded serving end-to-end: the dataset is hash-partitioned across four independently
//! maintained engines, the first miss at a skyline-epoch vector builds the global template
//! skyline from every shard's sorted list and every miss is one query over it, mutations
//! route to exactly one shard (and invalidate exactly what they must, thanks to the
//! skyline-epoch-*vector* cache tag: only a write that changes a template skyline), and one
//! shared build pool compacts every shard under a global in-flight cap.
//!
//! Run with: `cargo run -p skyline-service --release --example sharded_service`

use skyline::prelude::*;
use skyline_service::{GlobalRowId, ShardPartition, ShardedConfig, ShardedService};
use std::time::{Duration, Instant};

fn main() -> Result<()> {
    // A scaled-down Table 4 configuration: anti-correlated numerics, Zipfian nominals.
    let config = ExperimentConfig {
        n: 8_000,
        ..ExperimentConfig::paper_default()
    };
    let data = config.generate_dataset();
    let template = config.template(&data);
    let schema = data.schema().clone();

    // Four shards, hash-partitioned on the first nominal dimension, per-shard Adaptive-SFS
    // engines, and a shared two-thread build pool allowed one concurrent rebuild.
    let service = ShardedService::build(
        &data,
        template.clone(),
        EngineConfig::AdaptiveSfs,
        ShardedConfig {
            shards: 4,
            partition: ShardPartition::HashNominal { dim: 0 },
            maintenance: Some(MaintenancePolicy {
                dead_row_ratio: 0.10,
                max_mutations_since_rebuild: u64::MAX,
                poll_interval: Duration::from_millis(10),
            }),
            build_threads: 2,
            max_in_flight_builds: 1,
            ..ShardedConfig::default()
        },
    )?;
    print!(
        "dataset: {} tuples over {} shards of",
        data.len(),
        service.shard_count()
    );
    for s in 0..service.shard_count() {
        print!(" {}", service.shard(s).read().dataset().len());
    }
    println!(" rows (hash on the first nominal dimension)");

    // Every answer lies in the global template skyline G = SKY_R(D₁ ∪ … ∪ D₄): the first miss
    // builds it by one dominance merge of the four shards' template skylines, and every miss
    // at that epoch vector is one Adaptive-SFS query over it.
    let mut generator = config.query_generator();
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);
    let served = service.serve(&pref)?;
    println!(
        "{} skyline rows from a {}-row global template skyline built over 4 shards \
         (methods: {:?}, {:.2} ms cold)",
        served.outcome.skyline.len(),
        service.stats().global_skyline_rows,
        served.outcome.methods,
        served.latency.as_secs_f64() * 1e3
    );
    assert!(
        service.serve(&pref)?.cache_hit,
        "second serve hits the cache"
    );

    // A mixed read/write Zipf stream: every write routes to one shard's engine and bumps
    // only that shard's epoch. Deletes address rows by logical insertion order, so keep the
    // logical → global mapping the initial partitioning induced.
    let mut rows: Vec<Option<GlobalRowId>> =
        ShardedService::partition_rows(service.partition(), service.shard_count(), &data)
            .into_iter()
            .map(Some)
            .collect();
    let ops = generator.mixed_workload(
        &schema,
        &template,
        config.pref_order,
        32,    // preference pool
        1_000, // operations
        config.theta,
        0.10, // ~10% writes
        data.len(),
    );
    let (mut queries, mut writes) = (0u64, 0u64);
    let started = Instant::now();
    for op in &ops {
        match op {
            WorkloadOp::Query(pref) => {
                service.serve(pref)?;
                queries += 1;
            }
            WorkloadOp::Insert { numeric, nominal } => {
                rows.push(Some(service.insert_row(numeric, nominal)?));
                writes += 1;
            }
            WorkloadOp::Delete { row } => {
                if let Some(id) = rows[*row as usize].take() {
                    service.delete_row(id)?;
                }
                writes += 1;
            }
        }
    }
    let elapsed = started.elapsed();
    let stats = service.stats();
    println!(
        "mixed stream: {queries} queries + {writes} writes in {:.1} ms — \
         {:.1}% cache hit rate, {} stale entries expired",
        elapsed.as_secs_f64() * 1e3,
        100.0 * stats.hit_rate(),
        stats.stale_evictions
    );

    // The shared build pool compacts shards on its own: push every shard's dead-row ratio
    // over the policy threshold and each gets rebuilt by one of the two pool threads (never
    // more than one rebuild in flight at once). Delete ~12% of each shard's rows, then wait
    // for the queues to drain.
    let mut to_delete: Vec<usize> = service
        .epochs()
        .iter()
        .enumerate()
        .map(|(s, _)| service.shard(s).read().live_rows() * 12 / 100)
        .collect();
    for slot in rows.iter_mut() {
        if let Some(id) = *slot {
            if to_delete[id.shard] > 0 {
                service.delete_row(id)?;
                *slot = None;
                to_delete[id.shard] -= 1;
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.epochs().iter().enumerate().any(|(s, _)| {
        let engine = service.shard(s).read();
        engine.dead_rows() as f64 > 0.10 * engine.dataset().len().max(1) as f64
    }) {
        assert!(Instant::now() < deadline, "build pool never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = service.stats();
    println!(
        "shared build pool: {} rebuild(s) across the shards, {} dead rows physically \
         reclaimed, epochs now {:?}",
        stats.rebuilds,
        stats.reclaimed_rows,
        service.epochs().iter().map(|e| e.get()).collect::<Vec<_>>()
    );

    // Generation swaps keep the merged cache warm: cache a fresh answer, force every shard
    // through a rebuild (row ids renumber on each shard independently), and serve again —
    // each swap re-tagged the entry into its shard's new id space instead of dropping it.
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);
    service.serve(&pref)?;
    service.force_rebuild_all()?;
    let after = service.serve(&pref)?;
    println!(
        "after force-rebuilding all shards: cache_hit={} (re-tagged at each swap, \
         {} remapped hit(s) total)",
        after.cache_hit,
        service.stats().remapped_hits
    );
    Ok(())
}
