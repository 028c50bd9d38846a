//! The service's build scheduler: a few background threads that keep every shard's
//! generation fresh under the one [`MaintenancePolicy`] of
//! [`ShardedConfig::maintenance`](crate::ShardedConfig::maintenance).
//!
//! One maintenance thread per shard does not survive sharding: N shards would spawn N
//! threads that are idle almost always and then all rebuild at once right after a write
//! burst, oversubscribing the machine exactly when query traffic resumes. The scheduler
//! shares a fixed set of build threads across the shards, which are fixed at construction.
//! A build thread runs one rebuild at a time, so the thread count is the **global in-flight
//! cap**: it bounds how many shard rebuilds run at once however many shards turned due
//! together. A mutation nudges its shard ([`Scheduler::notify`]); the
//! policy's `poll_interval` is the heartbeat that catches everything else. A claimed shard
//! that is due runs the service's one rebuild path, [`ShardSet::rebuild_shard`], which
//! contains a panicking build — so a build thread never unwinds, and a claimed shard is
//! always released.

use crate::sharded::ShardSet;
use skyline::MaintenancePolicy;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

#[derive(Debug, Default)]
struct State {
    /// Shards with a pending nudge, oldest first, each at most once.
    queue: VecDeque<usize>,
    shutdown: bool,
}

#[derive(Debug)]
struct Inner {
    shards: Arc<ShardSet>,
    policy: MaintenancePolicy,
    state: Mutex<State>,
    wake: Condvar,
}

/// The build threads of one service (see the module docs). Dropping it stops and joins
/// them; a rebuild already running completes first.
#[derive(Debug)]
pub(crate) struct Scheduler {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `threads.min(max_in_flight)` build threads (at least 1). Each runs one shard
    /// rebuild at a time, so no more than that many rebuilds run at once.
    pub(crate) fn new(
        shards: Arc<ShardSet>,
        policy: MaintenancePolicy,
        threads: usize,
        max_in_flight: usize,
    ) -> Self {
        let inner = Arc::new(Inner {
            shards,
            policy,
            state: Mutex::default(),
            wake: Condvar::new(),
        });
        let threads = (0..threads.min(max_in_flight).max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("skyline-build-{i}"))
                    .spawn(move || inner.work())
                    .expect("spawning a build thread")
            })
            .collect();
        Self { inner, threads }
    }

    /// Nudges the scheduler to evaluate shard `s`'s policy now instead of at the next
    /// heartbeat. Non-blocking and cheap — the service calls it after every mutation.
    pub(crate) fn notify(&self, s: usize) {
        let mut state = self.inner.lock();
        if !state.queue.contains(&s) {
            state.queue.push_back(s);
            drop(state);
            self.inner.wake.notify_one();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.wake.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Inner {
    /// Nothing panics while holding the lock, and the state is a queue and a flag that no
    /// update leaves torn — so a poisoned lock is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One build thread: claim the oldest nudge, rebuild it if it is due, and otherwise sleep
    /// until a nudge or the heartbeat.
    fn work(&self) {
        let mut state = self.lock();
        while !state.shutdown {
            if let Some(s) = state.queue.pop_front() {
                drop(state);
                // Policy evaluation and the build run without the scheduler lock: other
                // threads keep claiming, and nudges never wait on a build. A nudge that lands
                // mid-build finds the shard not due (its rebuild is in flight). A failed
                // build is recorded by `rebuild_shard` (quarantine); leftover debt is caught
                // by the next heartbeat.
                if self.policy.due(&self.shards.engines[s].read()) {
                    let _ = self.shards.rebuild_shard(s);
                }
                state = self.lock();
                continue;
            }
            let (guard, timeout) = self
                .wake
                .wait_timeout(state, self.policy.poll_interval)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timeout.timed_out() {
                // Heartbeat: queue every shard whose debt crossed the policy.
                for (s, engine) in self.shards.engines.iter().enumerate() {
                    if !state.queue.contains(&s) && self.policy.due(&engine.read()) {
                        state.queue.push_back(s);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveryPolicy;
    use skyline::{EngineConfig, SharedEngine, SkylineEngine};
    use skyline_core::{Dataset, Dimension, NominalDomain, Schema, Template};
    use std::time::{Duration, Instant};

    fn shared(config: EngineConfig) -> SharedEngine {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal("g", NominalDomain::anonymous(3)),
        ])
        .unwrap();
        let mut data = Dataset::empty(schema.clone());
        for (x, g) in [(3.0, 0), (2.0, 1), (1.0, 2), (5.0, 0), (4.0, 1)] {
            data.push_row_ids(&[x], &[g]).unwrap();
        }
        let template = Template::empty(&schema);
        SharedEngine::new(SkylineEngine::build(Arc::new(data), template, config).unwrap())
    }

    fn shard_set(engines: Vec<SharedEngine>) -> Arc<ShardSet> {
        Arc::new(ShardSet::new(engines, RecoveryPolicy::default(), None))
    }

    /// Rebuilds once a `dead_row_ratio` of the rows are dead, polling every 5 ms.
    fn eager(dead_row_ratio: f64) -> MaintenancePolicy {
        MaintenancePolicy {
            dead_row_ratio,
            max_mutations_since_rebuild: u64::MAX,
            poll_interval: Duration::from_millis(5),
        }
    }

    /// Polls `done` for up to 10 s (the build threads race the test).
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn worker_compacts_when_forced_and_shuts_down_on_drop() {
        let engine = shared(EngineConfig::Hybrid { top_k: 2 });
        engine.write().delete_row(0).unwrap();
        engine.write().delete_row(3).unwrap();
        let shards = shard_set(vec![engine.clone()]);
        // A threshold the test never crosses: only the forced rebuild may run.
        let scheduler = Scheduler::new(shards.clone(), eager(1.0), 1, 1);
        assert!(shards.rebuild_shard(0).unwrap().is_some());
        {
            let engine = engine.read();
            let data = engine.dataset();
            assert_eq!(data.len(), data.live_count(), "only live rows remain");
            assert_eq!(engine.generation().id(), 1);
            assert_eq!(engine.rebuilds(), 1);
            assert_eq!(engine.reclaimed_rows(), 2);
        }
        drop(scheduler); // joins the thread
        assert!(!engine.read().rebuild_in_flight());
    }

    #[test]
    fn worker_rebuilds_in_the_background_when_due() {
        let engine = shared(EngineConfig::AdaptiveSfs);
        let scheduler = Scheduler::new(shard_set(vec![engine.clone()]), eager(0.2), 1, 1);
        engine.write().delete_row(0).unwrap();
        engine.write().delete_row(1).unwrap();
        scheduler.notify(0);
        wait_until("worker never compacted", || engine.read().rebuilds() >= 1);
        let engine_guard = engine.read();
        let data = engine_guard.dataset();
        assert_eq!(data.dead_count(), 0);
        assert_eq!(data.len(), 3);
    }

    #[test]
    fn pool_serves_many_engines_under_one_in_flight_cap() {
        let engines: Vec<SharedEngine> =
            (0..2).map(|_| shared(EngineConfig::AdaptiveSfs)).collect();
        // Both shards become due together, but with a cap of 1 the service runs one build
        // thread, so their builds serialize.
        let scheduler = Scheduler::new(shard_set(engines.clone()), eager(0.2), 2, 1);
        assert_eq!(scheduler.threads.len(), 1);
        for (s, engine) in engines.iter().enumerate() {
            engine.write().delete_row(0).unwrap();
            engine.write().delete_row(1).unwrap();
            scheduler.notify(s);
        }
        wait_until("scheduler never compacted every shard", || {
            engines.iter().all(|e| e.read().rebuilds() > 0)
        });
        for engine in &engines {
            assert_eq!(engine.read().dataset().dead_count(), 0);
        }
    }

    #[test]
    fn panicking_build_releases_slot_and_keeps_worker_alive() {
        let engine = shared(EngineConfig::AdaptiveSfs);
        let shards = shard_set(vec![engine.clone()]);
        // One thread: if the panic killed it, nothing would ever build again.
        let scheduler = Scheduler::new(shards.clone(), eager(0.1), 1, 1);
        shards.faults.panic_on_build(0, 1);
        engine.write().delete_row(0).unwrap();
        engine.write().delete_row(1).unwrap();
        scheduler.notify(0);
        // The first build panics inside `rebuild_shard`; the only thread must survive and
        // rebuild the still-due shard on a later claim (heartbeat or nudge).
        wait_until("panicking build wedged the scheduler", || {
            scheduler.notify(0);
            engine.read().rebuilds() > 0
        });
        // The failpoint fired (it is spent), so the first build did panic.
        shards.faults.before_build(0);
        assert!(!engine.read().rebuild_in_flight());
        assert_eq!(engine.read().dataset().dead_count(), 0);
        // Forced rebuilds keep working too.
        engine.write().delete_row(2).unwrap();
        assert!(shards.rebuild_shard(0).unwrap().is_some());
    }
}
