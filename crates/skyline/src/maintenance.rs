//! Background engine maintenance: a shared pool of build threads that watches any number of
//! [`SharedEngine`]s and runs generation rebuilds — physical compaction with row-id
//! remapping plus IPO re-materialization — when a [`MaintenancePolicy`] says the accumulated
//! debt is worth paying.
//!
//! Production skyline systems treat index maintenance as a lifecycle concern rather than a
//! foreground cost: mutations stay cheap in-place updates, and background threads
//! periodically fold the accumulated tombstones and stale materializations back into a
//! fresh, compact generation. A build cycle is exactly the three steps of
//! [`SharedEngine::rebuild_now`] driven off-thread: snapshot under the write lock
//! (microseconds), build with **no lock held** (readers are never blocked on a build), swap
//! atomically. Mutations that land mid-build are replayed onto the new generation before the
//! swap.
//!
//! One engine per worker thread does not survive sharding: a service holding N dataset
//! shards would spawn N threads that are idle almost always and then all rebuild at once
//! right after a write burst, oversubscribing the machine exactly when query traffic resumes.
//! [`BuildPool`] instead shares a small fixed set of build threads across every registered
//! engine: each engine gets its own nudge queue slot, and a **global in-flight cap**
//! ([`BuildPoolConfig::max_in_flight`]) bounds how many generation builds run concurrently no
//! matter how many shards turned due together. A single engine is the one-thread, cap-1 pool
//! with one registered engine — [`BuildPoolConfig::default`].

use crate::engine::SharedEngine;
use skyline_core::Result;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Callback a pool worker invokes right before a claimed slot's policy evaluation and build,
/// receiving the slot id (registration order). Fault-injection harnesses use this to panic or
/// stall a background build deterministically; the worker's release-on-unwind guard is what
/// keeps such a panic from wedging the slot or leaking the in-flight cap.
pub type BuildHook = Arc<dyn Fn(usize) + Send + Sync>;

/// When a background worker should rebuild an engine's generation.
///
/// Two debts accumulate under sustained writes, and each has a knob:
///
/// * **memory** — tombstoned rows still physically occupy the dataset and block until a
///   compaction reclaims them: [`MaintenancePolicy::dead_row_ratio`];
/// * **latency** — a mutated hybrid engine abandons its IPO tree and serves every query from
///   the slower Adaptive-SFS fallback until the tree is re-materialized:
///   [`MaintenancePolicy::max_mutations_since_rebuild`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenancePolicy {
    /// Rebuild when at least this fraction of the block's rows are tombstoned (and at least
    /// one is). `1.0` effectively disables the ratio trigger.
    pub dead_row_ratio: f64,
    /// Rebuild when this many epoch-bumping mutations have been applied since the last swap
    /// (or the build). For a hybrid engine this bounds how long queries stay on the fallback
    /// path; `1` re-materializes after every mutation burst, `u64::MAX` disables the trigger.
    pub max_mutations_since_rebuild: u64,
    /// How often the pool wakes up to evaluate the policy when nobody nudges it.
    pub poll_interval: Duration,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        Self {
            dead_row_ratio: 0.25,
            max_mutations_since_rebuild: 4096,
            poll_interval: Duration::from_millis(100),
        }
    }
}

impl MaintenancePolicy {
    /// True when the engine's accumulated debt crosses either threshold. An engine with a
    /// rebuild already in flight is never due.
    pub fn due(&self, engine: &crate::SkylineEngine) -> bool {
        if engine.rebuild_in_flight() {
            return false;
        }
        let block = engine.point_block();
        let dead_due = block.dead_count() > 0 && block.dead_ratio() >= self.dead_row_ratio;
        let mutation_due = engine.mutations_since_rebuild() >= self.max_mutations_since_rebuild
            && engine.mutations_since_rebuild() > 0;
        dead_due || mutation_due
    }
}

/// Sizing of a [`BuildPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildPoolConfig {
    /// Build worker threads (clamped to at least 1). More threads only help up to
    /// [`BuildPoolConfig::max_in_flight`].
    pub threads: usize,
    /// Global cap on concurrently running generation builds across **all** registered
    /// engines (clamped to at least 1). Builds are CPU- and allocation-heavy; the cap keeps a
    /// write burst that turns every shard due at once from oversubscribing the machine.
    pub max_in_flight: usize,
    /// How often idle workers re-evaluate every registered engine's policy.
    pub poll_interval: Duration,
}

impl Default for BuildPoolConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            max_in_flight: 1,
            poll_interval: Duration::from_millis(100),
        }
    }
}

#[derive(Debug)]
struct Slot {
    engine: SharedEngine,
    policy: MaintenancePolicy,
    /// A nudge is pending in the queue (dedupes repeated notifies).
    queued: bool,
    /// A pool worker is currently running this slot's build cycle.
    building: bool,
    /// The [`BuildHandle`] was dropped; the slot is never scheduled again.
    detached: bool,
}

#[derive(Debug, Default)]
struct PoolState {
    slots: Vec<Slot>,
    /// Slot ids with a pending nudge, oldest first (per-engine dedupe via `Slot::queued`).
    queue: VecDeque<usize>,
    in_flight: usize,
    shutdown: bool,
}

/// The build hook lives outside the scheduling mutex so installing or reading it never
/// contends with claim/release traffic. Wrapped so `PoolInner` keeps deriving `Debug`.
#[derive(Default)]
struct HookCell(Mutex<Option<BuildHook>>);

impl HookCell {
    fn get(&self) -> Option<BuildHook> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| {
                self.0.clear_poison();
                poisoned.into_inner()
            })
            .clone()
    }

    fn set(&self, hook: Option<BuildHook>) {
        *self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            poisoned.into_inner()
        }) = hook;
    }
}

impl std::fmt::Debug for HookCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("HookCell")
            .field(&self.get().map(|_| "<hook>"))
            .finish()
    }
}

#[derive(Debug)]
struct PoolInner {
    state: Mutex<PoolState>,
    wake: Condvar,
    max_in_flight: usize,
    poll_interval: Duration,
    hook: HookCell,
    panic_hook: HookCell,
    swap_hook: HookCell,
}

/// Locks the pool's scheduling state, recovering from poison instead of propagating it.
///
/// The only code that can panic while holding this mutex is the heartbeat's policy
/// evaluation (`policy.due(&engine.read())`), which never leaves `PoolState` itself torn —
/// slots, the queue and the in-flight count are all updated before or after the call. A
/// fault-injected build panic must not make every later `notify`/`drop` panic in sympathy.
fn lock_state(inner: &PoolInner) -> MutexGuard<'_, PoolState> {
    inner.state.lock().unwrap_or_else(|poisoned| {
        inner.state.clear_poison();
        poisoned.into_inner()
    })
}

/// A shared pool of background build threads serving many engines (see the module docs).
///
/// Engines join via [`BuildPool::register`] and are served until their [`BuildHandle`] is
/// dropped. Dropping the pool itself shuts the workers down (joining the threads); handles
/// that outlive the pool degrade gracefully — notifies become no-ops, forced rebuilds still
/// run synchronously on the caller.
#[derive(Debug)]
pub struct BuildPool {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
}

impl BuildPool {
    /// Spawns the pool's worker threads.
    pub fn new(config: BuildPoolConfig) -> Self {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState::default()),
            wake: Condvar::new(),
            max_in_flight: config.max_in_flight.max(1),
            poll_interval: config.poll_interval,
            hook: HookCell::default(),
            panic_hook: HookCell::default(),
            swap_hook: HookCell::default(),
        });
        let threads = (0..config.threads.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("skyline-build-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a build pool worker thread")
            })
            .collect();
        Self { inner, threads }
    }

    /// Registers `engine` for background maintenance under `policy` and returns the handle
    /// that nudges it. The pool polls the policy at its own [`BuildPoolConfig::poll_interval`]
    /// (the policy's interval is ignored here — one shared heartbeat, not one per engine).
    pub fn register(
        &self,
        engine: impl Into<SharedEngine>,
        policy: MaintenancePolicy,
    ) -> BuildHandle {
        let engine = engine.into();
        let mut state = lock_state(&self.inner);
        let slot = state.slots.len();
        state.slots.push(Slot {
            engine: engine.clone(),
            policy,
            queued: false,
            building: false,
            detached: false,
        });
        drop(state);
        BuildHandle {
            inner: self.inner.clone(),
            slot,
            engine,
        }
    }

    /// Number of generation builds currently running (diagnostics; racy by nature).
    pub fn in_flight(&self) -> usize {
        lock_state(&self.inner).in_flight
    }

    /// Installs (or with `None`, clears) the [`BuildHook`] every worker calls before a
    /// claimed slot's build cycle. Intended for fault-injection tests; production pools leave
    /// it unset and pay one uncontended mutex read per claim.
    pub fn set_build_hook(&self, hook: Option<BuildHook>) {
        self.inner.hook.set(hook);
    }

    /// Installs (or clears) a hook called with the slot id whenever that slot's build cycle
    /// panics (after the slot has been released and any torn rebuild aborted). A sharded
    /// service uses this to quarantine the shard whose background build died instead of
    /// silently retrying it forever.
    pub fn set_panic_hook(&self, hook: Option<BuildHook>) {
        self.inner.panic_hook.set(hook);
    }

    /// Installs (or clears) a hook called with the slot id right after that slot's build
    /// cycle **installs** a new generation — policy-driven cycles and
    /// [`BuildHandle::force_rebuild`] alike. Skipped and failed cycles never fire it. A
    /// sharded service hangs its post-swap snapshot writes here, so persistence rides the
    /// same background threads as the builds instead of adding latency to any query or
    /// mutation path.
    pub fn set_swap_hook(&self, hook: Option<BuildHook>) {
        self.inner.swap_hook.set(hook);
    }

    /// Number of build worker threads.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }
}

impl Drop for BuildPool {
    fn drop(&mut self) {
        {
            let mut state = lock_state(&self.inner);
            state.shutdown = true;
        }
        self.inner.wake.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One registered engine's handle into a [`BuildPool`]; dropping it detaches the engine (the
/// pool never schedules it again; a build already running completes normally).
#[derive(Debug)]
pub struct BuildHandle {
    inner: Arc<PoolInner>,
    slot: usize,
    engine: SharedEngine,
}

impl BuildHandle {
    /// Nudges the pool to evaluate this engine's policy now instead of waiting for the next
    /// poll tick. Non-blocking and cheap — call it after every mutation.
    pub fn notify(&self) {
        let mut state = lock_state(&self.inner);
        if state.shutdown {
            return;
        }
        let slot = &mut state.slots[self.slot];
        // A nudge during a running build is dropped: mutations landing mid-build are
        // replayed onto the new generation anyway, and leftover debt is caught by the next
        // poll tick.
        if !slot.queued && !slot.building && !slot.detached {
            slot.queued = true;
            let id = self.slot;
            state.queue.push_back(id);
            drop(state);
            self.inner.wake.notify_one();
        }
    }

    /// Runs one rebuild cycle right now, regardless of the policy, and waits for it to
    /// finish — synchronously, on the calling thread, outside the pool's in-flight cap.
    /// Returns `Ok(true)` when a new generation was installed, `Ok(false)` when skipped
    /// because a rebuild was already in flight, and the build error otherwise. Deterministic
    /// tests and pre-traffic warmup hooks use this; steady-state operation relies on the
    /// policy.
    pub fn force_rebuild(&self) -> Result<bool> {
        let installed = run_cycle(&self.engine)?;
        if installed {
            if let Some(on_swap) = self.inner.swap_hook.get() {
                on_swap(self.slot);
            }
        }
        Ok(installed)
    }

    /// The engine this handle maintains.
    pub fn engine(&self) -> &SharedEngine {
        &self.engine
    }
}

impl Drop for BuildHandle {
    fn drop(&mut self) {
        let mut state = lock_state(&self.inner);
        if let Some(slot) = state.slots.get_mut(self.slot) {
            slot.detached = true;
        }
    }
}

/// Restore-on-drop guard for a claimed slot: clears `building`, frees the in-flight cap and
/// wakes a sibling worker even when the build cycle unwinds. Without this, one panicking
/// build (a bug, or an injected fault) would leak `in_flight` forever and silently wedge the
/// whole pool at its cap.
struct SlotRelease<'a> {
    inner: &'a PoolInner,
    id: usize,
}

impl Drop for SlotRelease<'_> {
    fn drop(&mut self) {
        let mut state = lock_state(self.inner);
        state.slots[self.id].building = false;
        state.in_flight -= 1;
        drop(state);
        // A slot may have become runnable (cap freed) — wake a sibling.
        self.inner.wake.notify_one();
    }
}

fn worker_loop(inner: &PoolInner) {
    let mut state = lock_state(inner);
    loop {
        if state.shutdown {
            return;
        }
        // Claim the oldest runnable nudge, respecting the global in-flight cap.
        let runnable = if state.in_flight < inner.max_in_flight {
            state.queue.iter().position(|&id| {
                let slot = &state.slots[id];
                !slot.building && !slot.detached
            })
        } else {
            None
        };
        if let Some(pos) = runnable {
            let id = state.queue.remove(pos).expect("position just found");
            let (engine, policy) = {
                let slot = &mut state.slots[id];
                slot.queued = false;
                slot.building = true;
                (slot.engine.clone(), slot.policy.clone())
            };
            state.in_flight += 1;
            drop(state);
            // Policy evaluation and the build itself run without the pool lock: other
            // workers keep scheduling, notifies never block on a build. The cycle runs under
            // `catch_unwind` so a panicking build kills neither this worker thread nor (via
            // `SlotRelease`) the slot's schedulability; the engine itself stays consistent
            // because `SharedEngine` recovers its lock and a torn rebuild is aborted below.
            let release = SlotRelease { inner, id };
            let hook = inner.hook.get();
            let entered_cycle = std::cell::Cell::new(false);
            let installed = std::cell::Cell::new(false);
            let cycle = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(hook) = &hook {
                    hook(id);
                }
                if policy.due(&engine.read()) {
                    entered_cycle.set(true);
                    if let Ok(true) = run_cycle(&engine) {
                        installed.set(true);
                    }
                }
            }));
            drop(release);
            if installed.get() {
                if let Some(on_swap) = inner.swap_hook.get() {
                    on_swap(id);
                }
            }
            if cycle.is_err() {
                if entered_cycle.get() && engine.read().rebuild_in_flight() {
                    // The panic unwound `rebuild_now` between `begin_rebuild` and the
                    // install; clear the flag or every future cycle no-ops on "already in
                    // flight".
                    engine.write().abort_rebuild();
                }
                if let Some(on_panic) = inner.panic_hook.get() {
                    on_panic(id);
                }
            }
            state = lock_state(inner);
            continue;
        }
        let (guard, timeout) = inner
            .wake
            .wait_timeout(state, inner.poll_interval)
            .unwrap_or_else(|poisoned| {
                inner.state.clear_poison();
                poisoned.into_inner()
            });
        state = guard;
        if timeout.timed_out() {
            // Heartbeat: enqueue every registered engine whose debt crossed its policy.
            let due: Vec<usize> = state
                .slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| {
                    !slot.detached
                        && !slot.queued
                        && !slot.building
                        && slot.policy.due(&slot.engine.read())
                })
                .map(|(id, _)| id)
                .collect();
            for id in due {
                state.slots[id].queued = true;
                state.queue.push_back(id);
            }
        }
    }
}

/// One rebuild cycle; `Ok(false)` when skipped because a rebuild was already in flight.
fn run_cycle(engine: &SharedEngine) -> Result<bool> {
    if engine.read().rebuild_in_flight() {
        return Ok(false);
    }
    engine.rebuild_now().map(|_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, SkylineEngine};
    use skyline_core::{Dataset, Dimension, NominalDomain, Schema, Template};
    use std::sync::Arc;

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

    #[test]
    fn policy_triggers_on_either_threshold() {
        let policy = MaintenancePolicy {
            dead_row_ratio: 0.3,
            max_mutations_since_rebuild: 3,
            ..MaintenancePolicy::default()
        };
        let engine = shared(EngineConfig::AdaptiveSfs);
        assert!(!policy.due(&engine.read()), "fresh engines owe nothing");

        // One delete: 1/5 dead < 0.3, 1 mutation < 3 → not due.
        engine.write().delete_row(0).unwrap();
        assert!(!policy.due(&engine.read()));
        // Second delete crosses the dead-row ratio (2/5 ≥ 0.3).
        engine.write().delete_row(1).unwrap();
        assert!(policy.due(&engine.read()));

        // A swap clears the debt.
        engine.rebuild_now().unwrap();
        assert!(!policy.due(&engine.read()));

        // Pure inserts never add dead rows but do cross the mutation threshold.
        for _ in 0..3 {
            engine.write().insert_row(&[9.0], &[0]).unwrap();
        }
        assert!(policy.due(&engine.read()));
    }

    #[test]
    fn policy_ignores_in_flight_engines() {
        let policy = MaintenancePolicy {
            max_mutations_since_rebuild: 1,
            ..MaintenancePolicy::default()
        };
        let engine = shared(EngineConfig::AdaptiveSfs);
        engine.write().delete_row(0).unwrap();
        assert!(policy.due(&engine.read()));
        let _snapshot = engine.write().begin_rebuild().unwrap();
        assert!(
            !policy.due(&engine.read()),
            "one rebuild in flight is enough"
        );
        engine.write().abort_rebuild();
        assert!(policy.due(&engine.read()));
    }

    /// The single-engine case: a one-thread, cap-1 pool polling every `poll_interval`.
    fn one_thread_pool(poll_interval: Duration) -> BuildPool {
        BuildPool::new(BuildPoolConfig {
            poll_interval,
            ..BuildPoolConfig::default()
        })
    }

    #[test]
    fn worker_compacts_when_forced_and_shuts_down_on_drop() {
        let engine = shared(EngineConfig::Hybrid { top_k: 2 });
        engine.write().delete_row(0).unwrap();
        engine.write().delete_row(3).unwrap();
        let pool = one_thread_pool(Duration::from_millis(10));
        let handle = pool.register(
            engine.clone(),
            MaintenancePolicy {
                // Thresholds the test never crosses: only the forced cycle may rebuild.
                dead_row_ratio: 1.0,
                max_mutations_since_rebuild: u64::MAX,
                poll_interval: Duration::from_millis(10),
            },
        );
        assert!(handle.force_rebuild().unwrap());
        {
            let engine = engine.read();
            let block = engine.point_block();
            assert_eq!(block.len(), block.live_count(), "only live rows remain");
            assert_eq!(engine.generation().id(), 1);
            assert_eq!(engine.maintenance_stats().rebuilds, 1);
            assert_eq!(engine.maintenance_stats().reclaimed_rows, 2);
        }
        drop(handle);
        drop(pool); // joins the thread
        assert!(!engine.read().rebuild_in_flight());
    }

    #[test]
    fn worker_rebuilds_in_the_background_when_due() {
        let engine = shared(EngineConfig::AdaptiveSfs);
        let pool = one_thread_pool(Duration::from_millis(5));
        let handle = pool.register(
            engine.clone(),
            MaintenancePolicy {
                dead_row_ratio: 0.2,
                max_mutations_since_rebuild: u64::MAX,
                poll_interval: Duration::from_millis(5),
            },
        );
        engine.write().delete_row(0).unwrap();
        engine.write().delete_row(1).unwrap();
        handle.notify();
        // The worker races this loop; give it ample time before declaring failure.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if engine.read().maintenance_stats().rebuilds >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "worker never compacted"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let engine_guard = engine.read();
        let block = engine_guard.point_block();
        assert_eq!(block.dead_count(), 0);
        assert_eq!(block.len(), 3);
    }

    #[test]
    fn pool_serves_many_engines_under_one_in_flight_cap() {
        let pool = BuildPool::new(BuildPoolConfig {
            threads: 2,
            max_in_flight: 1, // both engines become due together, but builds serialize
            poll_interval: Duration::from_millis(5),
        });
        assert_eq!(pool.threads(), 2);
        let engines: Vec<SharedEngine> =
            (0..2).map(|_| shared(EngineConfig::AdaptiveSfs)).collect();
        let handles: Vec<BuildHandle> = engines
            .iter()
            .map(|e| {
                pool.register(
                    e.clone(),
                    MaintenancePolicy {
                        dead_row_ratio: 0.2,
                        max_mutations_since_rebuild: u64::MAX,
                        poll_interval: Duration::from_millis(5),
                    },
                )
            })
            .collect();
        for (engine, handle) in engines.iter().zip(&handles) {
            engine.write().delete_row(0).unwrap();
            engine.write().delete_row(1).unwrap();
            handle.notify();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while engines
            .iter()
            .any(|e| e.read().maintenance_stats().rebuilds == 0)
        {
            assert!(
                std::time::Instant::now() < deadline,
                "pool never compacted every engine"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        for engine in &engines {
            assert_eq!(engine.read().point_block().dead_count(), 0);
        }
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn panicking_build_releases_slot_and_keeps_worker_alive() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let pool = BuildPool::new(BuildPoolConfig {
            threads: 1, // one worker: if the panic killed it, nothing would ever build again
            max_in_flight: 1,
            poll_interval: Duration::from_millis(5),
        });
        let attempts = Arc::new(AtomicUsize::new(0));
        pool.set_build_hook(Some(Arc::new({
            let attempts = attempts.clone();
            move |_slot| {
                // First claimed cycle dies mid-build; every later one succeeds.
                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected build fault");
                }
            }
        })));
        let engine = shared(EngineConfig::AdaptiveSfs);
        let handle = pool.register(
            engine.clone(),
            MaintenancePolicy {
                dead_row_ratio: 0.1,
                max_mutations_since_rebuild: u64::MAX,
                poll_interval: Duration::from_millis(5),
            },
        );
        engine.write().delete_row(0).unwrap();
        engine.write().delete_row(1).unwrap();
        handle.notify();
        // The first cycle panics; the drop guard must release the slot and the in-flight
        // cap, the worker must survive, and the still-due engine must be rebuilt by a
        // later cycle (heartbeat or this nudge).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while engine.read().maintenance_stats().rebuilds == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "panicking build wedged the pool (attempts: {})",
                attempts.load(Ordering::SeqCst)
            );
            handle.notify();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            attempts.load(Ordering::SeqCst) >= 2,
            "hook panicked then reran"
        );
        assert_eq!(pool.in_flight(), 0, "in-flight count restored on unwind");
        assert!(!engine.read().rebuild_in_flight());
        assert_eq!(engine.read().point_block().dead_count(), 0);
        // The pool keeps functioning for explicitly forced cycles too.
        engine.write().delete_row(2).unwrap();
        assert!(handle.force_rebuild().unwrap());
    }

    #[test]
    fn dropped_handles_detach_their_engine() {
        let pool = BuildPool::new(BuildPoolConfig {
            threads: 1,
            max_in_flight: 1,
            poll_interval: Duration::from_millis(5),
        });
        let abandoned = shared(EngineConfig::AdaptiveSfs);
        let kept = shared(EngineConfig::AdaptiveSfs);
        let eager = MaintenancePolicy {
            dead_row_ratio: 0.1,
            max_mutations_since_rebuild: u64::MAX,
            poll_interval: Duration::from_millis(5),
        };
        let dropped = pool.register(abandoned.clone(), eager.clone());
        let handle = pool.register(kept.clone(), eager);
        drop(dropped);
        // Both engines become due; only the still-attached one may be rebuilt.
        abandoned.write().delete_row(0).unwrap();
        kept.write().delete_row(0).unwrap();
        handle.notify();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while kept.read().maintenance_stats().rebuilds == 0 {
            assert!(std::time::Instant::now() < deadline, "pool never rebuilt");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Give the poll loop a few more ticks: the detached engine must stay untouched.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(abandoned.read().maintenance_stats().rebuilds, 0);
        // A detached handle's forced rebuild still works (it runs on the caller).
    }
}
