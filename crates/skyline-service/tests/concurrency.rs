//! Concurrency suite: N threads × M queries against the one service must produce exactly
//! the answers a serial reference produces, with and without the result cache — at one shard
//! (every engine configuration, against serial `SkylineEngine::query`) and at two shards,
//! served from the global template skyline (against the brute-force skyline). Misses that
//! arrive together at a new skyline-epoch vector build that skyline once, and a request waiting on
//! the build gives up at its own deadline.

use skyline::prelude::*;
use skyline_core::{CanonicalPreference, Deadline};
use skyline_service::{ShardedConfig, ShardedServed, ShardedService};
use std::fmt::Debug;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

mod common;
use common::{live_oracle, rows};

fn experiment(seed: u64) -> (Arc<Dataset>, Template) {
    let experiment = ExperimentConfig {
        n: 800,
        numeric_dims: 2,
        nominal_dims: 2,
        cardinality: 8,
        theta: 1.0,
        pref_order: 2,
        distribution: Distribution::AntiCorrelated,
        seed,
    };
    let data = Arc::new(experiment.generate_dataset());
    let template = experiment.template(&data);
    (data, template)
}

fn build_engine(seed: u64, config: EngineConfig) -> SharedEngine {
    let (data, template) = experiment(seed);
    SharedEngine::new(SkylineEngine::build(data, template, config).unwrap())
}

fn build_service(seed: u64, engine: EngineConfig, config: ShardedConfig) -> ShardedService {
    let (data, template) = experiment(seed);
    ShardedService::build(&data, template, engine, config).unwrap()
}

fn workload(schema: &Schema, template: &Template, seed: u64, count: usize) -> Vec<Preference> {
    QueryGenerator::new(seed).zipf_workload(schema, template, 3, 24, count, 1.0)
}

#[test]
fn engine_is_shareable_across_threads() {
    // Compile-time: the refactor to Arc<Dataset> must keep the engine Send + Sync.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SkylineEngine>();
    assert_send_sync::<ShardedService>();
    assert_send_sync::<ShardedServed>();

    // Runtime: raw engine queries from 8 threads agree with the serial answers.
    let engine = build_engine(3, EngineConfig::Hybrid { top_k: 4 });
    let queries = {
        let engine = engine.read();
        workload(engine.dataset().schema(), engine.template(), 17, 64)
    };
    let serial: Vec<Vec<PointId>> = queries
        .iter()
        .map(|q| engine.read().query(q).unwrap().skyline)
        .collect();

    let threads = 8;
    thread::scope(|scope| {
        for t in 0..threads {
            let engine = engine.clone();
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                // Each thread walks the workload at a different offset.
                for i in 0..queries.len() {
                    let idx = (i + t * 7) % queries.len();
                    let got = engine.read().query(&queries[idx]).unwrap().skyline;
                    assert_eq!(got, serial[idx], "thread {t}, query {idx}");
                }
            });
        }
    });
}

/// One `serve_batch` over the worker pool, then four user threads hammering `serve`
/// concurrently: every answer, projected by `view`, must equal the serial `expected` one.
fn hammer<T: PartialEq + Debug + Sync>(
    service: &ShardedService,
    queries: &[Preference],
    expected: &[T],
    view: impl Fn(&ShardedServed) -> T + Sync,
    what: &str,
) {
    for (i, result) in service.serve_batch(queries).into_iter().enumerate() {
        assert_eq!(
            view(&result.unwrap()),
            expected[i],
            "{what}, batched query {i}"
        );
    }
    thread::scope(|scope| {
        for t in 0..4 {
            let view = &view;
            scope.spawn(move || {
                for (i, q) in queries.iter().enumerate() {
                    let served = service.serve(q).unwrap();
                    assert_eq!(view(&served), expected[i], "{what}, thread {t}, query {i}");
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.served(), (queries.len() * 5) as u64);
    assert!(
        stats.hit_rate() > 0.5,
        "Zipf workload should mostly hit the cache, got {}",
        stats.hit_rate()
    );
}

#[test]
fn threaded_service_matches_serial_engine_for_every_config() {
    // One shard over the engine itself: ids compared one to one with the bare engine's.
    let configs = [
        EngineConfig::AdaptiveSfs,
        EngineConfig::Hybrid { top_k: usize::MAX },
        EngineConfig::Hybrid { top_k: 3 },
    ];
    for config in configs {
        let engine = build_engine(11, config);
        let service = ShardedService::from_engines(
            vec![engine.clone()],
            ShardedConfig {
                workers: 6,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        let queries = workload(service.schema(), service.template(), 29, 120);
        let serial: Vec<Vec<PointId>> = queries
            .iter()
            .map(|q| engine.read().query(q).unwrap().skyline)
            .collect();
        hammer(
            &service,
            &queries,
            &serial,
            rows,
            &format!("config {config:?}"),
        );
    }
}

#[test]
fn threaded_scatter_gather_matches_the_live_oracle() {
    // Two shards: the first miss scatters to a real worker per shard to build the global
    // template skyline, under the batch pool and the user threads, and the concurrent misses
    // at that vector share the one build.
    for config in [
        EngineConfig::AdaptiveSfs,
        EngineConfig::Hybrid { top_k: usize::MAX },
        EngineConfig::Hybrid { top_k: 3 },
    ] {
        let service = build_service(
            11,
            config,
            ShardedConfig {
                shards: 2,
                workers: 6,
                ..ShardedConfig::default()
            },
        );
        let queries = workload(service.schema(), service.template(), 29, 120);
        let oracle: Vec<_> = queries.iter().map(|q| live_oracle(&service, q)).collect();
        hammer(
            &service,
            &queries,
            &oracle,
            |served| served.outcome.skyline.clone(),
            &format!("2 shards, config {config:?}"),
        );
    }
}

#[test]
fn cache_disabled_service_still_agrees() {
    for shards in [1, 2] {
        let service = build_service(
            23,
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards,
                cache_capacity: 0,
                workers: 4,
                ..ShardedConfig::default()
            },
        );
        let queries = workload(service.schema(), service.template(), 31, 60);
        for (q, r) in queries.iter().zip(service.serve_batch(&queries)) {
            let served = r.unwrap();
            assert!(!served.cache_hit);
            assert_eq!(served.outcome.skyline, live_oracle(&service, q));
        }
        assert_eq!(service.stats().hits, 0);
        assert_eq!(service.cache_len(), 0);
    }
}

#[test]
fn tiny_cache_evicts_but_never_corrupts() {
    for shards in [1, 2] {
        let service = build_service(
            41,
            EngineConfig::Hybrid { top_k: 2 },
            ShardedConfig {
                shards,
                cache_capacity: 4,
                cache_shards: 2,
                workers: 6,
                ..ShardedConfig::default()
            },
        );
        let queries = workload(service.schema(), service.template(), 43, 200);
        for (q, r) in queries.iter().zip(service.serve_batch(&queries)) {
            assert_eq!(r.unwrap().outcome.skyline, live_oracle(&service, q));
        }
        assert!(service.cache_len() <= 4);
    }
}

/// `count` preferences over the service's schema, pairwise distinct as canonical keys (so
/// each is its own result-cache miss).
fn distinct_prefs(service: &ShardedService, seed: u64, count: usize) -> Vec<Preference> {
    let mut seen = std::collections::HashSet::new();
    let prefs: Vec<Preference> = QueryGenerator::new(seed)
        .random_preferences(service.schema(), service.template(), 2, count * 20, None)
        .into_iter()
        .filter(|p| seen.insert(CanonicalPreference::new(service.schema(), p).unwrap()))
        .take(count)
        .collect();
    assert_eq!(prefs.len(), count);
    prefs
}

#[test]
fn concurrent_misses_at_a_new_vector_build_the_global_skyline_once() {
    // Different preferences, so only the build of the global template skyline is shared.
    // The delay keeps the build open while every thread arrives, so the others wait on the
    // first one's build; half the threads stream.
    const THREADS: usize = 8;
    for config in [EngineConfig::AdaptiveSfs, EngineConfig::Hybrid { top_k: 3 }] {
        let service = build_service(
            13,
            config,
            ShardedConfig {
                shards: 2,
                workers: 2,
                ..ShardedConfig::default()
            },
        );
        for round in 0..2u64 {
            if round == 1 {
                // A new vector: a row below every existing one on both numerics enters its
                // shard's template skyline, and deleting it moves the vector again.
                let id = service.insert_row(&[-1.0, -1.0], &[1, 1]).unwrap();
                assert!(service.delete_row(id).unwrap());
            }
            let prefs = distinct_prefs(&service, 47 + round, THREADS);
            let oracle: Vec<_> = prefs.iter().map(|p| live_oracle(&service, p)).collect();
            service
                .fault_injector()
                .delay_shard_query(0, Duration::from_millis(50));
            let barrier = Barrier::new(THREADS);
            thread::scope(|scope| {
                for (t, (pref, expected)) in prefs.iter().zip(&oracle).enumerate() {
                    let (service, barrier) = (&service, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut rows = if t % 2 == 0 {
                            service.serve(pref).unwrap().outcome.skyline.clone()
                        } else {
                            service
                                .serve_streaming(pref)
                                .unwrap()
                                .collect_rows()
                                .unwrap()
                        };
                        rows.sort_unstable();
                        assert_eq!(&rows, expected, "{config:?}, thread {t}");
                    });
                }
            });
            service.fault_injector().clear();
            let stats = service.stats();
            assert_eq!(stats.template_skyline_builds, round + 1, "{config:?}");
            assert_eq!(stats.misses, (round + 1) * THREADS as u64);
            assert!(stats.coalesced >= 1, "a miss must have waited on the build");
        }
    }
}

#[test]
fn a_wait_on_a_delayed_build_is_bounded_by_the_waiters_deadline() {
    let service = build_service(
        19,
        EngineConfig::AdaptiveSfs,
        ShardedConfig {
            shards: 2,
            workers: 2,
            ..ShardedConfig::default()
        },
    );
    let prefs = distinct_prefs(&service, 53, 2);
    service
        .fault_injector()
        .delay_shard_query(0, Duration::from_millis(100));
    thread::scope(|scope| {
        // No deadline: this request builds the global template skyline, for 100 ms.
        let builder = scope.spawn(|| service.serve(&prefs[0]));
        thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        assert_eq!(
            service
                .serve_deadline(&prefs[1], &Deadline::within(Duration::from_millis(20)))
                .unwrap_err(),
            SkylineError::DeadlineExceeded
        );
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "the waiter gave up at its own deadline, not at the end of the build"
        );
        let built = builder.join().unwrap().unwrap();
        assert!(!built.is_degraded());
        assert_eq!(built.outcome.skyline, live_oracle(&service, &prefs[0]));
    });
    let stats = service.stats();
    assert_eq!(stats.template_skyline_builds, 1);
    assert_eq!(stats.deadline_misses, 1);
    assert!(service.quarantined_shards().is_empty());
}
