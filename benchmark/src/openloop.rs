//! Load generators. A **closed loop** sends a client's next request only after the previous
//! one completed; the **open loop** sends on a fixed schedule whatever the system does, and
//! times every operation from the moment it was *due* — so the wait a stalled operation
//! imposes on the ones scheduled behind it is charged to them, not hidden.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Arrivals at a constant `rate` per second over `[0, horizon)`: `round(rate × horizon)` due
/// times, evenly spaced from 0. Still an open loop — operations are sent when due whatever
/// the system does — but without the bursts of a Poisson process: in a window of a few
/// hundred operations the backlog a burst builds is luck of the draw, and it moved every
/// latency statistic of the mixed workload by 15–25 % from one seed to the next (README,
/// "`zipf_mixed` sizing").
pub fn paced_schedule(rate: f64, horizon: Duration) -> Vec<Duration> {
    let count = (rate * horizon.as_secs_f64()).round() as usize;
    (0..count as u128)
        .map(|i| Duration::from_nanos((horizon.as_nanos() * i / count as u128) as u64))
        .collect()
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Timing of one scheduled operation, all relative to its due time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// How late the generator dispatched it.
    pub late: Duration,
    /// Due time → completion: what a user who arrived on schedule waited.
    pub latency: Duration,
    /// Dispatch → completion.
    pub service: Duration,
}

/// Drains the schedule with `clients` threads: each takes the next operation index, waits
/// for its due time, runs `exec(index)` and records the timing; `after(index, result)` then
/// runs off the clock (verification, bookkeeping). Returns one [`Timing`] per operation, in
/// schedule order.
pub fn run_open_loop<R, F, G>(due: &[Duration], clients: usize, exec: F, after: G) -> Vec<Timing>
where
    F: Fn(usize) -> R + Sync,
    G: Fn(usize, R) + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut timings = vec![Timing::default(); due.len()];
    let per_client: Vec<Vec<(usize, Timing)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = due.get(i) else {
                            return mine;
                        };
                        let due_at = start + offset;
                        let wait = due_at.saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let dispatched = Instant::now();
                        let result = exec(i);
                        let done = Instant::now();
                        mine.push((
                            i,
                            Timing {
                                late: dispatched.saturating_duration_since(due_at),
                                latency: done.saturating_duration_since(due_at),
                                service: done - dispatched,
                            },
                        ));
                        after(i, result);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load-generator client panicked"))
            .collect()
    });
    for (i, timing) in per_client.into_iter().flatten() {
        timings[i] = timing;
    }
    timings
}

/// Closed loop: `clients` threads each take the next index and run `exec(index)` back to
/// back until `exec` has been offered every index below `count` or `deadline` passes.
/// Returns how many operations were dispatched and the wall time of the whole loop.
pub fn run_closed_loop<F>(
    count: usize,
    clients: usize,
    deadline: Instant,
    exec: F,
) -> (usize, Duration)
where
    F: Fn(usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                if Instant::now() >= deadline {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                exec(i);
            });
        }
    });
    (next.load(Ordering::Relaxed).min(count), started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // One client; three operations due at 0, 10 and 20 ms; the first stalls for 50 ms.
        // Timed from dispatch the later two look instant; timed from their due time they
        // waited out the stall: ≥ 40 ms and ≥ 30 ms.
        let due = [0u64, 10, 20].map(Duration::from_millis);
        let stall = |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
        };
        let timings = run_open_loop(&due, 1, stall, |_, ()| {});
        assert!(timings[0].latency >= Duration::from_millis(50));
        assert!(
            timings[1].latency >= Duration::from_millis(40),
            "{:?}",
            timings[1]
        );
        assert!(
            timings[2].latency >= Duration::from_millis(30),
            "{:?}",
            timings[2]
        );
        assert!(timings[1].late >= Duration::from_millis(40));
        assert!(timings[1].service < Duration::from_millis(10));
        assert!(timings[2].service < Duration::from_millis(10));
    }

    #[test]
    fn paced_schedule_is_evenly_spaced_inside_the_horizon() {
        let due = paced_schedule(40.0, Duration::from_secs(10));
        assert_eq!(due.len(), 400);
        assert_eq!(due[0], Duration::ZERO);
        assert!(due
            .windows(2)
            .all(|w| w[1] - w[0] == Duration::from_millis(25)));
        assert!(due.iter().all(|d| *d < Duration::from_secs(10)));
        assert!(paced_schedule(40.0, Duration::ZERO).is_empty());
    }

    #[test]
    fn closed_loop_offers_each_index_once() {
        let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let far = Instant::now() + Duration::from_secs(60);
        let (dispatched, _) = run_closed_loop(50, 3, far, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(dispatched, 50);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
