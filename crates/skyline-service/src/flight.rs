//! Per-key single-flight latch for the build of the global template skyline `G`.
//!
//! Right after a template-skyline change (or a generation swap) moves the skyline-epoch
//! vector, the next wave of misses all need a `G` at the new vector; without coordination
//! each of them would build it. The latch collapses the wave: the first thread to miss a
//! vector becomes the **leader** and builds, the rest become **followers** and block until
//! the leader finishes, then re-check the slot `G` lives in — in the normal case finding the
//! build the leader just stored. Misses of *different* preferences at a new vector therefore
//! build `G` once. The key is the skyline-epoch vector, so flights for different skyline
//! versions never interfere.
//!
//! Followers block while holding the engines' *read* locks, which is safe: the leader also
//! only holds read locks, so it always makes progress and wakes them. A leader that fails
//! (or builds a degraded `G`, which is never stored) still releases and wakes its followers,
//! who then build individually — single-flight is an optimization of the success path,
//! never a correctness gate. The build ends before any answer row is handed out, so a
//! caller-paced stream never holds the latch.

use skyline_core::{Deadline, Result};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How often a blocked follower re-polls a cancel token that has no time bound attached
/// (a pure-timeout deadline wakes exactly at expiry instead).
const FOLLOWER_POLL: Duration = Duration::from_millis(10);

#[derive(Debug, Default)]
struct Latch {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Every critical section in this module is a single map or flag update — no invariant can
/// be left torn by a panic inside one — so a poisoned mutex (a fault-injected panic
/// elsewhere on the thread's stack) is recovered, not propagated to every later serve. A
/// condvar wait keeps the poison flag, and the next lock here clears it.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        m.clear_poison();
        poisoned.into_inner()
    })
}

/// The in-flight registry, generic over the flight key `K`.
#[derive(Debug)]
pub(crate) struct SingleFlight<K> {
    inflight: Mutex<HashMap<K, Arc<Latch>>>,
}

/// What `join_deadline` decided for the calling thread.
#[derive(Debug)]
pub(crate) enum FlightRole<'a, K: Hash + Eq> {
    /// This thread computes; dropping the guard (success, error or panic) releases the latch
    /// and wakes every follower.
    Leader(FlightGuard<'a, K>),
    /// Another thread was already computing this key; it has since finished.
    /// Re-check for its result — and when there is none (the leader failed), compute directly.
    Followed,
}

/// Leader's release-on-drop guard.
#[derive(Debug)]
pub(crate) struct FlightGuard<'a, K: Hash + Eq> {
    flight: &'a SingleFlight<K>,
    key: K,
    latch: Arc<Latch>,
}

impl<K: Hash + Eq + Clone> SingleFlight<K> {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Joins the flight for `key`: returns [`FlightRole::Leader`] when this thread should
    /// compute, or — after having **blocked until the current leader finished** —
    /// [`FlightRole::Followed`]. A follower waits for its leader at most until `deadline`
    /// expires, then gets [`skyline_core::SkylineError::DeadlineExceeded`] —
    /// **without touching the latch**. The leader is unaffected (it finishes, wakes the
    /// surviving followers and stores its result as usual), and a leader's own expiry is
    /// handled by its computation erroring out, after which `FlightGuard`'s drop releases
    /// the latch on the ordinary error path.
    pub(crate) fn join_deadline(&self, key: K, deadline: &Deadline) -> Result<FlightRole<'_, K>> {
        let latch = match self.claim(key) {
            Ok(guard) => return Ok(FlightRole::Leader(guard)),
            Err(latch) => latch,
        };
        let mut done = lock_recover(&latch.done);
        while !*done {
            done = Self::wait(&latch, done, deadline)?;
        }
        Ok(FlightRole::Followed)
    }

    /// Registers this thread as leader for `key` or returns the existing latch.
    fn claim(&self, key: K) -> std::result::Result<FlightGuard<'_, K>, Arc<Latch>> {
        let mut inflight = lock_recover(&self.inflight);
        match inflight.get(&key) {
            Some(latch) => Err(latch.clone()),
            None => {
                let latch = Arc::new(Latch::default());
                inflight.insert(key.clone(), latch.clone());
                Ok(FlightGuard {
                    flight: self,
                    key,
                    latch,
                })
            }
        }
    }

    /// One bounded (or unbounded) wait on the latch's condvar under `deadline`.
    fn wait<'l>(
        latch: &'l Latch,
        done: MutexGuard<'l, bool>,
        deadline: &Deadline,
    ) -> Result<MutexGuard<'l, bool>> {
        if deadline.is_bounded() {
            deadline.check()?;
            // Wake at expiry; a cancel-only deadline has no instant to wake at, so poll
            // its token every FOLLOWER_POLL instead.
            let wait = deadline
                .remaining()
                .map_or(FOLLOWER_POLL, |rem| rem.min(FOLLOWER_POLL));
            Ok(latch
                .cv
                .wait_timeout(done, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0)
        } else {
            Ok(latch.cv.wait(done).unwrap_or_else(PoisonError::into_inner))
        }
    }
}

impl<K: Hash + Eq> Drop for FlightGuard<'_, K> {
    fn drop(&mut self) {
        let mut inflight = lock_recover(&self.flight.inflight);
        inflight.remove(&self.key);
        drop(inflight);
        *lock_recover(&self.latch.done) = true;
        self.latch.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::{
        CanonicalPreference, DatasetEpoch, Dimension, NominalDomain, Preference, Schema,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    impl<K> SingleFlight<K> {
        /// Number of flights currently in progress.
        fn in_flight(&self) -> usize {
            lock_recover(&self.inflight).len()
        }
    }

    fn key(v: u16) -> CanonicalPreference {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal("g", NominalDomain::anonymous(8)),
        ])
        .unwrap();
        let pref = Preference::from_dims(vec![skyline_core::ImplicitPreference::new([v]).unwrap()]);
        CanonicalPreference::new(&schema, &pref).unwrap()
    }

    #[test]
    fn one_leader_many_followers() {
        const THREADS: usize = 8;
        let flight = SingleFlight::<(CanonicalPreference, DatasetEpoch)>::new();
        let leaders = AtomicUsize::new(0);
        let followers = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        let k = key(1);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    match flight
                        .join_deadline((k.clone(), DatasetEpoch::INITIAL), &Deadline::none())
                        .unwrap()
                    {
                        FlightRole::Leader(_guard) => {
                            // Hold the flight long enough that the others pile up behind it.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        FlightRole::Followed => {
                            followers.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        // Followers may re-join as a new leader only if they arrived after the release; with
        // the barrier + sleep, everyone piles onto the first flight.
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
        assert_eq!(followers.load(Ordering::SeqCst), THREADS - 1);
        assert_eq!(flight.in_flight(), 0, "guard drop cleans the registry");
    }

    #[test]
    fn follower_deadline_expires_without_touching_the_latch() {
        let flight = SingleFlight::<(CanonicalPreference, DatasetEpoch)>::new();
        let k = key(1);
        let leader = flight
            .join_deadline((k.clone(), DatasetEpoch::INITIAL), &Deadline::none())
            .unwrap();
        assert!(matches!(leader, FlightRole::Leader(_)));
        // A bounded follower gives up at expiry...
        let err = flight
            .join_deadline(
                (k.clone(), DatasetEpoch::INITIAL),
                &Deadline::within(Duration::from_millis(5)),
            )
            .unwrap_err();
        assert_eq!(err, skyline_core::SkylineError::DeadlineExceeded);
        // ...and a fired cancel token (no time bound) gives up on its next poll.
        let token = skyline_core::CancelToken::new();
        token.cancel();
        assert!(flight
            .join_deadline(
                (k.clone(), DatasetEpoch::INITIAL),
                &Deadline::none().with_cancel(token)
            )
            .is_err());
        // The flight itself is untouched: still in progress, releases normally.
        assert_eq!(flight.in_flight(), 1);
        drop(leader);
        assert_eq!(flight.in_flight(), 0);
        assert!(matches!(
            flight
                .join_deadline((k.clone(), DatasetEpoch::INITIAL), &Deadline::none())
                .unwrap(),
            FlightRole::Leader(_)
        ));
    }

    #[test]
    fn distinct_keys_and_epochs_fly_separately() {
        let flight = SingleFlight::<(CanonicalPreference, DatasetEpoch)>::new();
        let a = flight
            .join_deadline((key(1), DatasetEpoch::INITIAL), &Deadline::none())
            .unwrap();
        let b = flight
            .join_deadline((key(2), DatasetEpoch::INITIAL), &Deadline::none())
            .unwrap();
        assert!(matches!(a, FlightRole::Leader(_)));
        assert!(matches!(b, FlightRole::Leader(_)));
        assert_eq!(flight.in_flight(), 2);
        drop(a);
        drop(b);
        // Same key, new epoch: a fresh flight (the epoch is part of the key).
        let mut data = skyline_core::Dataset::from_columns(
            Schema::new(vec![Dimension::numeric("x")]).unwrap(),
            vec![vec![1.0]],
            vec![],
        )
        .unwrap();
        data.tombstone(0).unwrap();
        let later = data.epoch();
        let c = flight
            .join_deadline((key(1), later), &Deadline::none())
            .unwrap();
        assert!(matches!(c, FlightRole::Leader(_)));
    }
}
