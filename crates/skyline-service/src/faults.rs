//! Deterministic fault injection for the serving layer.
//!
//! Robustness claims that are only exercised by real faults are untested claims. This module
//! gives every failure path in the service a deterministic trigger — a *failpoint* — so
//! tests and CI can prove that a panicking build quarantines a shard instead of unwinding
//! the service, that a stalled shard trips the request deadline, and that a quarantined
//! shard recovers after its backoff rebuild.
//!
//! A [`FaultInjector`] is instance-scoped (each service owns one; tests never fight over
//! global state) and starts with every failpoint disarmed, in which state each hook is one
//! relaxed atomic load on the serve path. Failpoints are armed programmatically (the test
//! API) or from the `SKYLINE_FAULTS` environment variable (the CI harness):
//!
//! ```text
//! SKYLINE_FAULTS="panic-on-build=1:2,delay-on-shard-query=0:25,fail-nth-scatter=3"
//! ```
//!
//! Entries are comma-separated `name=args` with colon-separated args:
//!
//! * `panic-on-build=SHARD[:TIMES]` — the next `TIMES` (default 1) generation builds of
//!   `SHARD` panic before touching the engine;
//! * `panic-on-shard-query=SHARD[:TIMES]` — the next `TIMES` (default 1) reads of `SHARD`
//!   panic;
//! * `delay-on-shard-query=SHARD:MILLIS` — every read of `SHARD` first sleeps `MILLIS`
//!   milliseconds (persistent until cleared);
//! * `fail-nth-scatter=N[:SHARD]` — the `N`-th per-shard scatter (1-based, counted from
//!   arming) panics on `SHARD` (default 0).
//!
//! A *read* of a shard is one leg of a scatter. With two or more shards the only scatter is
//! the build of the global template skyline, which runs on the first miss at a new
//! skyline-epoch vector; a miss at a vector whose skyline is built reads no shard and fires
//! none of these three. With one shard every miss is a scatter of the engine leg. A test that
//! arms a query failpoint after the first miss moves the vector first — it inserts a row that
//! enters its shard's template skyline, and deletes it.
//!
//! Panic failpoints consume themselves (`TIMES` decrements), so a quarantined shard's
//! recovery rebuild succeeds once the configured failures are spent — exactly the
//! fail-then-heal scenario the quarantine machinery exists for.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Instance-scoped failpoint registry; see the module docs. `Default` is fully disarmed.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Fast path: false ⇒ every hook returns immediately without locking anything.
    armed: AtomicBool,
    /// Remaining injected panics per shard's build path.
    panic_on_build: Mutex<HashMap<usize, u32>>,
    /// Remaining injected panics per shard's scatter-query path.
    panic_on_shard_query: Mutex<HashMap<usize, u32>>,
    /// Persistent injected latency per shard's scatter-query path.
    delay_on_shard_query: Mutex<HashMap<usize, Duration>>,
    /// `(n, victim)`: the `n`-th scatter from now panics on `victim`. 0 ⇒ disarmed.
    fail_nth_scatter: Mutex<Option<(u64, usize)>>,
    scatter_count: AtomicU64,
}

impl FaultInjector {
    /// A disarmed injector (every hook is a no-op costing one atomic load).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An injector armed from the `SKYLINE_FAULTS` environment variable (disarmed when the
    /// variable is unset or empty). Panics on a malformed spec — a fault harness that
    /// silently ignores its configuration tests nothing.
    pub fn from_env() -> Self {
        let injector = Self::default();
        if let Ok(spec) = std::env::var("SKYLINE_FAULTS") {
            injector.arm_from_spec(&spec);
        }
        injector
    }

    /// Arms failpoints from a `SKYLINE_FAULTS`-grammar spec string (see the module docs).
    pub fn arm_from_spec(&self, spec: &str) {
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (name, args) = entry
                .split_once('=')
                .unwrap_or_else(|| panic!("malformed SKYLINE_FAULTS entry {entry:?}"));
            let parts: Vec<u64> = args
                .split(':')
                .map(|a| {
                    a.trim().parse().unwrap_or_else(|_| {
                        panic!("malformed SKYLINE_FAULTS arg {a:?} in {entry:?}")
                    })
                })
                .collect();
            match (name.trim(), parts.as_slice()) {
                ("panic-on-build", [shard]) => self.panic_on_build(*shard as usize, 1),
                ("panic-on-build", [shard, times]) => {
                    self.panic_on_build(*shard as usize, *times as u32)
                }
                ("panic-on-shard-query", [shard]) => self.panic_on_shard_query(*shard as usize, 1),
                ("panic-on-shard-query", [shard, times]) => {
                    self.panic_on_shard_query(*shard as usize, *times as u32)
                }
                ("delay-on-shard-query", [shard, millis]) => {
                    self.delay_shard_query(*shard as usize, Duration::from_millis(*millis))
                }
                ("fail-nth-scatter", [n]) => self.fail_nth_scatter(*n, 0),
                ("fail-nth-scatter", [n, shard]) => self.fail_nth_scatter(*n, *shard as usize),
                _ => panic!("unknown SKYLINE_FAULTS entry {entry:?}"),
            }
        }
    }

    /// Whether any failpoint has ever been armed (hooks stay cheap while this is false).
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    fn locked<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        // A failpoint panicking *while armed* is the injector working as designed; the
        // registry itself is never left torn, so recover rather than cascade.
        m.lock().unwrap_or_else(|poisoned| {
            m.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Arms: the next `times` generation builds of `shard` panic.
    pub fn panic_on_build(&self, shard: usize, times: u32) {
        *Self::locked(&self.panic_on_build).entry(shard).or_insert(0) += times;
        self.arm();
    }

    /// Arms: the next `times` reads of `shard` panic (see the module docs for when a read
    /// happens).
    pub fn panic_on_shard_query(&self, shard: usize, times: u32) {
        *Self::locked(&self.panic_on_shard_query)
            .entry(shard)
            .or_insert(0) += times;
        self.arm();
    }

    /// Arms: every read of `shard` first sleeps `delay` (until [`FaultInjector::clear`]).
    pub fn delay_shard_query(&self, shard: usize, delay: Duration) {
        Self::locked(&self.delay_on_shard_query).insert(shard, delay);
        self.arm();
    }

    /// Arms: the `n`-th per-shard scatter from now (1-based) panics on `victim`.
    pub fn fail_nth_scatter(&self, n: u64, victim: usize) {
        assert!(n > 0, "fail-nth-scatter is 1-based");
        self.scatter_count.store(0, Ordering::Relaxed);
        *Self::locked(&self.fail_nth_scatter) = Some((n, victim));
        self.arm();
    }

    /// Disarms every failpoint (persistent delays included).
    pub fn clear(&self) {
        Self::locked(&self.panic_on_build).clear();
        Self::locked(&self.panic_on_shard_query).clear();
        Self::locked(&self.delay_on_shard_query).clear();
        *Self::locked(&self.fail_nth_scatter) = None;
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Hook: called right before every rebuild of `shard` — policy-driven, forced and
    /// recovery rebuilds alike. Panics if a `panic-on-build` failpoint is armed for it.
    pub fn before_build(&self, shard: usize) {
        if !self.is_armed() {
            return;
        }
        let mut map = Self::locked(&self.panic_on_build);
        if let Some(times) = map.get_mut(&shard) {
            if *times > 0 {
                *times -= 1;
                drop(map);
                panic!("fault injection: panic-on-build, shard {shard}");
            }
        }
    }

    /// Hook: called at the start of each per-shard scatter; returns the shard the armed
    /// `fail-nth-scatter` failpoint dooms in *this* scatter, if any. The scatter's per-shard
    /// closures feed the victim to [`FaultInjector::before_shard_query`].
    pub fn begin_scatter(&self) -> Option<usize> {
        if !self.is_armed() {
            return None;
        }
        let armed = *Self::locked(&self.fail_nth_scatter);
        let (n, victim) = armed?;
        let count = self.scatter_count.fetch_add(1, Ordering::Relaxed) + 1;
        if count == n {
            *Self::locked(&self.fail_nth_scatter) = None;
            Some(victim)
        } else {
            None
        }
    }

    /// Hook: called inside each scatter leg before it reads its shard. Applies
    /// the armed delay, then panics if this shard is the scatter victim or has an armed
    /// `panic-on-shard-query` failpoint.
    pub fn before_shard_query(&self, shard: usize, scatter_victim: Option<usize>) {
        if !self.is_armed() {
            return;
        }
        let delay = Self::locked(&self.delay_on_shard_query)
            .get(&shard)
            .copied();
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        if scatter_victim == Some(shard) {
            panic!("fault injection: fail-nth-scatter, shard {shard}");
        }
        let mut map = Self::locked(&self.panic_on_shard_query);
        if let Some(times) = map.get_mut(&shard) {
            if *times > 0 {
                *times -= 1;
                drop(map);
                panic!("fault injection: panic-on-shard-query, shard {shard}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hooks_are_noops() {
        let f = FaultInjector::disabled();
        assert!(!f.is_armed());
        f.before_build(0);
        f.before_shard_query(0, None);
        assert_eq!(f.begin_scatter(), None);
    }

    #[test]
    fn build_panics_consume_themselves() {
        let f = FaultInjector::disabled();
        f.panic_on_build(1, 2);
        f.before_build(0); // other shards untouched
        for _ in 0..2 {
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f.before_build(1)
            }))
            .is_err());
        }
        f.before_build(1); // spent: no longer panics
    }

    #[test]
    fn nth_scatter_dooms_the_victim_once() {
        let f = FaultInjector::disabled();
        f.fail_nth_scatter(2, 1);
        assert_eq!(f.begin_scatter(), None);
        assert_eq!(f.begin_scatter(), Some(1));
        assert_eq!(f.begin_scatter(), None, "one-shot");
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.before_shard_query(1, Some(1))
        }))
        .is_err());
        f.before_shard_query(0, Some(1)); // non-victims pass
    }

    #[test]
    fn spec_parsing_arms_the_right_failpoints() {
        let f = FaultInjector::disabled();
        f.arm_from_spec("panic-on-build=1:2, delay-on-shard-query=0:5, fail-nth-scatter=1");
        assert!(f.is_armed());
        assert_eq!(f.begin_scatter(), Some(0));
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| { f.before_build(1) }))
                .is_err()
        );
        let started = std::time::Instant::now();
        f.before_shard_query(0, None);
        assert!(started.elapsed() >= Duration::from_millis(5));
        f.clear();
        assert!(!f.is_armed());
        f.before_build(1);
    }

    #[test]
    #[should_panic(expected = "unknown SKYLINE_FAULTS entry")]
    fn malformed_spec_fails_fast() {
        FaultInjector::disabled().arm_from_spec("surprise=1");
    }
}
