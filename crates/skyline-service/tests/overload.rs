//! Overload behavior: bounded admission sheds excess load, deadlines cut off slow
//! scatters, and the acceptance scenario — 10× offered load plus an injected shard panic —
//! never stops answering.
//!
//! Slowness is injected deterministically through the `delay-on-shard-query` failpoint, so
//! none of these tests depend on real queries being slow.

use skyline::prelude::*;
use skyline_core::Deadline;
use skyline_service::{DegradePolicy, RecoveryPolicy, ShardedConfig, ShardedService};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn experiment(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        n: 200,
        numeric_dims: 2,
        nominal_dims: 2,
        cardinality: 6,
        theta: 1.0,
        pref_order: 2,
        distribution: Distribution::AntiCorrelated,
        seed,
    }
}

fn build(config: ShardedConfig) -> (ShardedService, Vec<Preference>) {
    let experiment = experiment(71);
    let data = Arc::new(experiment.generate_dataset());
    let template = experiment.template(&data);
    let service =
        ShardedService::build(&data, template.clone(), EngineConfig::AdaptiveSfs, config).unwrap();
    let mut generator = QueryGenerator::new(73);
    let prefs = (0..6)
        .map(|_| generator.random_preference(data.schema(), &template, 2, None))
        .collect();
    (service, prefs)
}

/// Under `FailClosed`, a shard that cannot answer before the deadline fails the request
/// with `DeadlineExceeded` — counted, uncached, and *not* treated as a shard fault.
#[test]
fn injected_delay_misses_deadline_fail_closed() {
    let (service, prefs) = build(ShardedConfig {
        shards: 2,
        workers: 2,
        degrade: DegradePolicy::FailClosed,
        ..ShardedConfig::default()
    });
    service
        .fault_injector()
        .delay_shard_query(0, Duration::from_millis(30));

    let deadline = Deadline::within(Duration::from_millis(5));
    assert_eq!(
        service.serve_deadline(&prefs[0], &deadline).unwrap_err(),
        SkylineError::DeadlineExceeded
    );
    assert_eq!(service.stats().deadline_misses, 1);
    assert_eq!(service.cache_len(), 0, "a missed deadline caches nothing");
    assert!(
        service.quarantined_shards().is_empty(),
        "slow is not broken: deadline misses never quarantine"
    );

    // Clearing the failpoint, the very same request answers completely and caches.
    // (A `Deadline` is an absolute instant — a reused one would already be expired.)
    service.fault_injector().clear();
    let served = service
        .serve_deadline(&prefs[0], &Deadline::within(Duration::from_secs(5)))
        .unwrap();
    assert!(!served.is_degraded());
    assert_eq!(service.cache_len(), 1);
}

/// Under a tolerant policy, the slow shard is reported degraded for this request only —
/// it stays in service (no quarantine) and the partial answer stays out of the cache.
#[test]
fn injected_delay_degrades_tolerant_service_without_quarantine() {
    let (service, prefs) = build(ShardedConfig {
        shards: 3,
        workers: 3,
        degrade: DegradePolicy::Tolerate { max_degraded: 3 },
        ..ShardedConfig::default()
    });
    service
        .fault_injector()
        .delay_shard_query(0, Duration::from_millis(30));

    let served = service
        .serve_deadline(&prefs[0], &Deadline::within(Duration::from_millis(8)))
        .unwrap();
    assert!(served.is_degraded());
    assert!(served.degraded_shards.contains(&0));
    assert_eq!(service.cache_len(), 0, "partial answers are never cached");
    assert!(service.quarantined_shards().is_empty());

    service.fault_injector().clear();
    let complete = service.serve(&prefs[0]).unwrap();
    assert!(!complete.is_degraded());
    assert_eq!(service.cache_len(), 1);
}

/// A full admission queue rejects the newest request with `Overloaded` instead of letting
/// it pile up; the permit releases when the in-flight serve finishes.
#[test]
fn full_admission_queue_sheds_newest_request() {
    let (service, prefs) = build(ShardedConfig {
        shards: 2,
        workers: 2,
        admission_depth: 1,
        ..ShardedConfig::default()
    });
    let service = Arc::new(service);
    service
        .fault_injector()
        .delay_shard_query(0, Duration::from_millis(150));
    service
        .fault_injector()
        .delay_shard_query(1, Duration::from_millis(150));

    // One slow request occupies the only admission slot…
    let occupant = {
        let service = Arc::clone(&service);
        let pref = prefs[0].clone();
        std::thread::spawn(move || service.serve(&pref).unwrap())
    };
    let waited = Instant::now();
    while service.stats().queue_depth == 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "occupant never admitted"
        );
        std::thread::yield_now();
    }

    // …so the next arrival is shed immediately, without touching cache or shards.
    assert_eq!(
        service.serve(&prefs[1]).unwrap_err(),
        SkylineError::Overloaded
    );
    assert_eq!(service.stats().shed, 1);

    let served = occupant.join().unwrap();
    assert!(!served.is_degraded());
    assert_eq!(service.stats().queue_depth, 0, "permit released on finish");
    assert!(service.serve(&prefs[1]).is_ok(), "capacity freed up again");
}

/// The acceptance scenario: 10× more client threads than admission slots hammer the
/// service while a failpoint panics one shard mid-storm. Every request resolves to a
/// complete answer, a flagged degraded answer, or a clean `Overloaded` rejection — the
/// service never errors otherwise, never wedges, and the quarantined shard returns after
/// the backoff rebuild.
#[test]
fn ten_x_overload_with_shard_panic_keeps_answering() {
    const DEPTH: usize = 4;
    const CLIENTS: usize = DEPTH * 10;
    const REQUESTS_PER_CLIENT: usize = 12;

    let (service, prefs) = build(ShardedConfig {
        shards: 4,
        workers: 2,
        admission_depth: DEPTH,
        degrade: DegradePolicy::Tolerate { max_degraded: 4 },
        recovery: RecoveryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
        },
        ..ShardedConfig::default()
    });
    let service = Arc::new(service);
    // Keep every miss measurably slow so the clients genuinely overlap in the queue.
    service
        .fault_injector()
        .delay_shard_query(3, Duration::from_millis(2));
    // And panic one shard partway into the storm.
    service.fault_injector().panic_on_shard_query(1, 1);

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let complete = Arc::new(AtomicUsize::new(0));
    let degraded = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&service);
            let prefs = prefs.clone();
            let barrier = Arc::clone(&barrier);
            let complete = Arc::clone(&complete);
            let degraded = Arc::clone(&degraded);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                barrier.wait();
                for r in 0..REQUESTS_PER_CLIENT {
                    match service.serve(&prefs[(c + r) % prefs.len()]) {
                        Ok(served) if served.is_degraded() => {
                            assert!(!served.degraded_shards.is_empty());
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            complete.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(SkylineError::Overloaded) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected serve error under overload: {other}"),
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let total = complete.load(Ordering::Relaxed)
        + degraded.load(Ordering::Relaxed)
        + shed.load(Ordering::Relaxed);
    assert_eq!(
        total,
        CLIENTS * REQUESTS_PER_CLIENT,
        "every request resolved"
    );
    assert!(
        complete.load(Ordering::Relaxed) > 0,
        "the service kept answering under overload"
    );
    assert!(
        shed.load(Ordering::Relaxed) > 0,
        "10x offered load over a depth-{DEPTH} queue must shed"
    );
    let stats = service.stats();
    assert_eq!(stats.shed, shed.load(Ordering::Relaxed) as u64);
    assert_eq!(stats.queue_depth, 0, "all permits released after the storm");

    // After the storm: disarm the failpoints and drive serves until the panicked shard's
    // backoff rebuild completes — the service converges back to complete answers.
    service.fault_injector().clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = service.serve(&prefs[0]).unwrap();
        if !served.is_degraded() && service.quarantined_shards().is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "panicked shard never recovered");
        std::thread::sleep(Duration::from_millis(2));
    }
}
