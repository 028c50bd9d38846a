//! Service-level lifecycle behavior: the shared build pool, the cached answers a swap expires
//! and the surfaced lifecycle metrics — at one shard (the single-engine case) and at two.

use skyline::prelude::*;
use skyline_core::CanonicalPreference;
use skyline_service::{GlobalRowId, ShardedConfig, ShardedService};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

mod common;
use common::{live_oracle, rows};

fn small_dataset() -> Dataset {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::nominal("g", NominalDomain::anonymous(3)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema);
    for (x, g) in [(3.0, 0), (2.0, 1), (1.0, 2), (5.0, 0), (4.0, 1), (6.0, 2)] {
        data.push_row_ids(&[x], &[g]).unwrap();
    }
    data
}

/// The small dataset behind a `shards`-shard service, plus where each of its rows landed.
fn small_service(engine: EngineConfig, shards: usize) -> (ShardedService, Vec<GlobalRowId>) {
    let data = small_dataset();
    let config = ShardedConfig {
        shards,
        ..ShardedConfig::default()
    };
    let placed = ShardedService::partition_rows(&config.partition, shards, &data);
    let template = Template::empty(data.schema());
    let service = ShardedService::build(&data, template, engine, config).unwrap();
    (service, placed)
}

/// A generation swap carries no cached answer across: after `P` answers are cached and one
/// shard swaps, each of them misses exactly once (`stale_evictions` rises by `P`), the
/// recomputed answer is the brute-force skyline in the new id space, and the next serve hits.
#[test]
fn generation_swaps_expire_each_cached_answer_once() {
    let prefs: Vec<Preference> = (0..3u16)
        .map(|v| Preference::from_dims(vec![ImplicitPreference::new([v]).unwrap()]))
        .collect();
    let p = prefs.len() as u64;
    for shards in [1, 2] {
        let (service, placed) = small_service(EngineConfig::AdaptiveSfs, shards);
        // A tombstone makes the first swap renumber.
        assert!(service.delete_row(placed[3]).unwrap());
        for s in 0..shards {
            let before: Vec<_> = prefs.iter().map(|q| service.serve(q).unwrap()).collect();
            assert!(prefs.iter().all(|q| service.serve(q).unwrap().cache_hit));
            let (stale, misses) = (service.stats().stale_evictions, service.stats().misses);

            let remap = service
                .force_rebuild_shard(s)
                .unwrap()
                .expect("nothing in flight");
            for (q, before) in prefs.iter().zip(&before) {
                let after = service.serve(q).unwrap();
                assert!(!after.cache_hit, "shards = {shards}, swap of {s}");
                assert_eq!(after.outcome.skyline, live_oracle(&service, q));
                assert_ne!(after.epochs, before.epochs);
                // The pre-swap answer, renumbered through the returned remap, is the new one.
                let renumbered: Vec<GlobalRowId> = before
                    .outcome
                    .skyline
                    .iter()
                    .map(|&g| {
                        if g.shard != s {
                            return g;
                        }
                        let row = remap.new_id(g.row).expect("answers name live rows");
                        GlobalRowId { shard: s, row }
                    })
                    .collect();
                assert_eq!(renumbered, after.outcome.skyline);
            }
            let stats = service.stats();
            assert_eq!(stats.stale_evictions, stale + p, "each answer dropped once");
            assert_eq!(stats.misses, misses + p);
            assert!(prefs.iter().all(|q| service.serve(q).unwrap().cache_hit));
            assert_eq!(service.stats().remapped_hits, 0);
        }
        let stats = service.stats();
        assert_eq!(stats.rebuilds, shards as u64);
        assert_eq!(stats.reclaimed_rows, 1);
        if shards == 1 {
            let engine = service.shard(0).read().query(&prefs[0]).unwrap().skyline;
            assert_eq!(rows(&service.serve(&prefs[0]).unwrap()), engine);
        }
    }
}

/// End to end: a mutated hybrid service falls back to Adaptive SFS, the build pool rebuilds
/// under its policy, and tree-served queries come back — observable through the service
/// metrics and the served outcome's provenance. One shard, so both mutations count against
/// the same engine's policy.
#[test]
fn background_worker_restores_tree_served_queries() {
    let data = small_dataset();
    let template = Template::empty(data.schema());
    let engine = SharedEngine::new(
        SkylineEngine::build(data, template, EngineConfig::Hybrid { top_k: 3 }).unwrap(),
    );
    let service = ShardedService::from_engines(
        vec![engine.clone()],
        ShardedConfig {
            maintenance: Some(MaintenancePolicy {
                dead_row_ratio: 1.0, // only the mutation trigger may fire
                max_mutations_since_rebuild: 2,
                poll_interval: Duration::from_millis(5),
            }),
            ..ShardedConfig::default()
        },
    )
    .unwrap();
    let pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);
    assert_eq!(
        service.serve(&pref).unwrap().outcome.methods,
        vec![MethodUsed::IpoTree]
    );

    // Two mutations cross the policy threshold; the service nudges the pool itself.
    service.insert_row(&[0.5], &[0]).unwrap();
    service
        .delete_row(GlobalRowId { shard: 0, row: 4 })
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().rebuilds == 0 {
        assert!(Instant::now() < deadline, "pool never rebuilt");
        std::thread::sleep(Duration::from_millis(2));
    }
    let served = service.serve(&pref).unwrap();
    assert_eq!(
        served.outcome.methods,
        vec![MethodUsed::IpoTree],
        "the re-materialized tree serves again"
    );
    assert!(engine.read().serves_from_tree(&pref));
    let stats = service.stats();
    assert!(stats.rebuilds >= 1);
    assert!(stats.reclaimed_rows >= 1);
    {
        let engine = engine.read();
        let data = engine.dataset();
        assert_eq!(data.len(), data.live_count());
    }
    // Dropping the service joins the build thread (no panic, no leak).
    drop(service);
}

/// Forced rebuilds keep every answer's rows (by value — the swap renumbers ids) and the
/// post-swap answers are the brute-force skyline in the new id space.
#[test]
fn forced_rebuilds_preserve_answers() {
    for shards in [1, 2] {
        let (service, placed) = small_service(EngineConfig::Hybrid { top_k: 3 }, shards);
        let prefs: Vec<Preference> = (0..3u16)
            .map(|v| Preference::from_dims(vec![ImplicitPreference::new([v]).unwrap()]))
            .collect();
        let fingerprints = |pref: &Preference| {
            let served = service.serve(pref).unwrap();
            assert_eq!(served.outcome.skyline, live_oracle(&service, pref));
            let mut v: Vec<(i64, ValueId)> = served
                .outcome
                .skyline
                .iter()
                .map(|g| {
                    let engine = service.shard(g.shard).read();
                    let data = engine.dataset();
                    (data.numeric(g.row, 0) as i64, data.nominal(g.row, 0))
                })
                .collect();
            v.sort_unstable();
            v
        };

        service.delete_row(placed[0]).unwrap();
        let before: Vec<_> = prefs.iter().map(fingerprints).collect();
        assert_eq!(service.force_rebuild_all().unwrap(), shards);
        let after: Vec<_> = prefs.iter().map(fingerprints).collect();
        assert_eq!(before, after, "the swap must not change any answer's rows");
    }
}

/// Swaps under a warm cache and concurrent readers: every answer served while the shards
/// renumber names the same rows (by value) as before the swaps.
#[test]
fn concurrent_swaps_keep_answers() {
    let experiment = ExperimentConfig {
        n: 600,
        numeric_dims: 2,
        nominal_dims: 2,
        cardinality: 8,
        theta: 1.0,
        pref_order: 2,
        distribution: Distribution::AntiCorrelated,
        seed: 29,
    };
    let data = experiment.generate_dataset();
    let template = experiment.template(&data);
    let config = ShardedConfig {
        shards: 2,
        workers: 1,
        ..ShardedConfig::default()
    };
    let service =
        ShardedService::build(&data, template.clone(), EngineConfig::AdaptiveSfs, config).unwrap();
    for shard in 0..2 {
        for row in 0..3 {
            assert!(service.delete_row(GlobalRowId { shard, row }).unwrap());
        }
    }

    // A pool of 16 preferences with distinct cache keys.
    let mut generator = QueryGenerator::new(31);
    let mut keys = std::collections::HashSet::new();
    let mut pool = Vec::new();
    while pool.len() < 16 {
        let pref = generator.random_preference(data.schema(), &template, 2, None);
        if keys.insert(CanonicalPreference::new(data.schema(), &pref).unwrap()) {
            pool.push(pref);
        }
    }
    let oracle: Vec<_> = pool
        .iter()
        .map(|pref| values_at(&service, &live_oracle(&service, pref), &service.epochs()).unwrap())
        .collect();

    let stop = AtomicBool::new(false);
    let served_count = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|t| {
                let (service, pool, oracle) = (&service, &pool, &oracle);
                let (stop, served_count) = (&stop, &served_count);
                scope.spawn(move || {
                    let mut checked = 0;
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) || checked < pool.len() {
                        let k = i % pool.len();
                        i += 1;
                        let served = service.serve(&pool[k]).unwrap();
                        served_count.fetch_add(1, Ordering::Relaxed);
                        // Ids are only readable in the id space they were served in; an
                        // answer a swap overtook before it could be read is skipped.
                        let (ids, epochs) = (&served.outcome.skyline, &served.epochs);
                        if let Some(values) = values_at(service, ids, epochs) {
                            assert_eq!(values, oracle[k], "preference {k}");
                            checked += 1;
                        }
                    }
                })
            })
            .collect();
        // Each swap waits until the readers have served another pool's worth.
        for _ in 0..4 {
            let seen = served_count.load(Ordering::Relaxed);
            while served_count.load(Ordering::Relaxed) < seen + pool.len() {
                std::thread::yield_now();
            }
            assert_eq!(service.force_rebuild_all().unwrap(), 2);
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
    });

    // With the swaps over, every answer — cached or recomputed — still names the same rows.
    for (k, pref) in pool.iter().enumerate() {
        let served = service.serve(pref).unwrap();
        let values = values_at(&service, &served.outcome.skyline, &served.epochs);
        assert_eq!(values.unwrap(), oracle[k], "preference {k}");
    }
}

/// The sorted values of the rows an answer names.
type RowValues = Vec<(Vec<u64>, Vec<ValueId>)>;

/// The values of the rows `ids` names, read in the id space of the dataset `epochs`, or `None`
/// when a swap has moved some shard past them.
fn values_at(
    service: &ShardedService,
    ids: &[GlobalRowId],
    epochs: &[DatasetEpoch],
) -> Option<RowValues> {
    let guards: Vec<_> = (0..service.shard_count())
        .map(|s| service.shard(s).read())
        .collect();
    if guards.iter().zip(epochs).any(|(g, &e)| g.epoch() != e) {
        return None;
    }
    let mut values: RowValues = ids
        .iter()
        .map(|g| {
            let data = guards[g.shard].dataset();
            let numeric = data.numeric_row(g.row).iter().map(|x| x.to_bits());
            (numeric.collect(), data.nominal_row(g.row).to_vec())
        })
        .collect();
    values.sort_unstable();
    Some(values)
}
