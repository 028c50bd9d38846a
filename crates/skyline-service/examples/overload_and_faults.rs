//! Robust serving end-to-end: deadlines and cancellation, bounded admission with load
//! shedding, deterministic fault injection, shard quarantine with degraded answers, and
//! recovery through the backoff rebuild.
//!
//! Run with: `cargo run -p skyline-service --release --example overload_and_faults`
//!
//! The fault injector also arms itself from the `SKYLINE_FAULTS` environment variable at
//! build time — the same grammar this example feeds to `arm_from_spec` by hand:
//!
//! ```text
//! SKYLINE_FAULTS="panic-on-shard-query=1:1,delay-on-shard-query=0:25" \
//!     cargo run -p skyline-service --release --example overload_and_faults
//! ```

use skyline::prelude::*;
use skyline_core::{CancelToken, Deadline};
use skyline_service::{
    DegradePolicy, RecoveryPolicy, ShardPartition, ShardedConfig, ShardedService,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn main() -> Result<()> {
    let config = ExperimentConfig {
        n: 6_000,
        ..ExperimentConfig::paper_default()
    };
    let data = config.generate_dataset();
    let template = config.template(&data);
    let schema = data.schema().clone();

    // Three shards under a *tolerant* degrade policy: up to one shard may drop out of an
    // answer and the service still answers (flagged, never cached). The admission queue
    // holds two requests; everything beyond that is shed with `Overloaded` instead of
    // queueing without bound. A quarantined shard is retried with exponential backoff.
    let service = Arc::new(ShardedService::build(
        &data,
        template.clone(),
        EngineConfig::AdaptiveSfs,
        ShardedConfig {
            shards: 3,
            partition: ShardPartition::HashNominal { dim: 0 },
            // One scatter worker per shard: the injected 30 ms delay below must stall only
            // its own shard, not a worker another shard's read is queued behind.
            workers: 3,
            admission_depth: 2,
            degrade: DegradePolicy::Tolerate { max_degraded: 1 },
            recovery: RecoveryPolicy {
                max_attempts: 5,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
            },
            ..ShardedConfig::default()
        },
    )?);
    println!(
        "service: {} tuples over {} shards, admission depth 2, tolerate ≤1 degraded shard \
         (SKYLINE_FAULTS armed: {})",
        data.len(),
        service.shard_count(),
        service.fault_injector().is_armed()
    );
    // Start the walkthrough from a known state even when SKYLINE_FAULTS pre-armed faults.
    service.fault_injector().clear();

    let mut generator = config.query_generator();
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);

    // A miss at a skyline-epoch vector whose global template skyline is built reads no
    // shard, so it fires no shard failpoint, and only a write that changes a shard's
    // template skyline moves the vector. Each armed section below first inserts a row below
    // every existing one on all numerics — it enters its shard's template skyline — and
    // deletes it again: its miss rebuilds the global skyline, reading every shard.
    let move_vector = || -> Result<()> {
        let id = service.insert_row(
            &vec![-1.0; schema.numeric_count()],
            &vec![0; schema.nominal_count()],
        )?;
        assert!(service.delete_row(id)?);
        Ok(())
    };

    // ── Deadlines and cancellation ────────────────────────────────────────────────────
    // A bounded deadline threads through the shard reads and the elimination scans;
    // an expired (or cancelled) request fails fast with `DeadlineExceeded` and caches
    // nothing — the cache never learns from an answer that didn't finish.
    let served = service.serve_deadline(&pref, &Deadline::within(Duration::from_secs(5)))?;
    println!(
        "deadline serve: {} skyline rows in {:.2} ms, degraded={}",
        served.outcome.skyline.len(),
        served.latency.as_secs_f64() * 1e3,
        served.is_degraded()
    );
    let token = CancelToken::new();
    token.cancel();
    let err = service
        .serve_deadline(&pref, &Deadline::none().with_cancel(token))
        .unwrap_err();
    println!(
        "cancelled serve: {err} ({} deadline miss(es) counted)",
        service.stats().deadline_misses
    );

    // ── Injected slowness: degraded, but never quarantined ────────────────────────────
    // `delay-on-shard-query` makes shard 0 miss a tight deadline. Slow is not broken:
    // the shard is reported degraded for this request but stays in service. (Each section
    // takes a fresh preference — a cache hit would never reach a shard.)
    move_vector()?;
    service
        .fault_injector()
        .delay_shard_query(0, Duration::from_millis(30));
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);
    let slow = service.serve_deadline(&pref, &Deadline::within(Duration::from_millis(8)))?;
    println!(
        "delayed shard: degraded_shards={:?}, quarantined={:?}, cached entries={}",
        slow.degraded_shards,
        service.quarantined_shards(),
        service.cache_len()
    );
    assert!(
        slow.degraded_shards.contains(&0),
        "the delayed shard degrades"
    );
    assert!(
        service.quarantined_shards().is_empty(),
        "slow is not broken"
    );
    service.fault_injector().clear();

    // ── Injected panic: quarantine, degraded answers, backoff recovery ────────────────
    // `panic-on-shard-query` panics shard 1's next read. The panic is contained, the shard
    // is quarantined, and the service keeps answering from the healthy shards.
    move_vector()?;
    service
        .fault_injector()
        .arm_from_spec("panic-on-shard-query=1:1");
    let pref = generator.random_preference(&schema, &template, config.pref_order, None);
    let degraded = service.serve(&pref)?;
    println!(
        "after injected panic: degraded_shards={:?}, quarantined={:?}, answer has {} rows",
        degraded.degraded_shards,
        service.quarantined_shards(),
        degraded.outcome.skyline.len()
    );
    assert_eq!(degraded.degraded_shards, [1]);
    assert_eq!(
        service.quarantined_shards(),
        [1],
        "the panicked shard is quarantined"
    );

    // Serves opportunistically retry quarantined shards once their backoff elapses; the
    // failpoint consumed itself above, so the proof-of-health rebuild succeeds.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = service.serve(&pref)?;
        if !served.is_degraded() && service.quarantined_shards().is_empty() {
            println!(
                "recovered: complete {}-row answer, quarantine empty, {} degraded \
                 answer(s) along the way",
                served.outcome.skyline.len(),
                service.stats().degraded
            );
            break;
        }
        assert!(Instant::now() < deadline, "shard never recovered");
        std::thread::sleep(Duration::from_millis(5));
    }

    // ── Overload: bounded admission sheds the excess ──────────────────────────────────
    // Six clients race two admission slots while every shard is slowed 20 ms, so each
    // accepted request holds its slot long enough for the others to pile up and shed.
    move_vector()?;
    for s in 0..service.shard_count() {
        service
            .fault_injector()
            .delay_shard_query(s, Duration::from_millis(20));
    }
    let fresh: Vec<Preference> = (0..6)
        .map(|_| generator.random_preference(&schema, &template, config.pref_order, None))
        .collect();
    let barrier = Arc::new(Barrier::new(fresh.len()));
    let shed = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = fresh
        .into_iter()
        .map(|pref| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                barrier.wait();
                match service.serve(&pref) {
                    Ok(_) => {}
                    Err(SkylineError::Overloaded) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("unexpected error under overload: {other}"),
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    service.fault_injector().clear();
    let stats = service.stats();
    println!(
        "overload: 6 clients over 2 admission slots — {} shed this round \
         ({} total, queue depth back to {})",
        shed.load(Ordering::Relaxed),
        stats.shed,
        stats.queue_depth
    );
    assert!(shed.load(Ordering::Relaxed) >= 1, "overload sheds");
    Ok(())
}
