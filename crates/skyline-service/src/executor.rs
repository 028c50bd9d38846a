//! Worker-pool batch executor on `std::thread` + channels (no external dependencies).
//!
//! A batch is pushed through one shared task channel that `workers` threads drain — the
//! calling thread and `workers − 1` scoped threads beside it; results flow back over a second
//! channel tagged with their input index, so the output vector preserves input order
//! regardless of which worker finished first. Scoped threads let workers borrow the batch and
//! the service directly — no `'static` bounds, no cloning per task.

use std::sync::{mpsc, Mutex};
use std::thread;

/// Applies `f` to every item of `items` (with its index) on a pool of `workers` threads,
/// returning the results in input order.
///
/// `workers` is clamped to `1..=items.len()`; with one worker (or one item) the pool is
/// skipped entirely and the batch runs inline on the caller's thread. Otherwise the caller is
/// one of the workers — it works its share instead of sleeping on the result channel, so a
/// 2-shard scatter spawns one thread, not two.
pub(crate) fn run_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, items.len());
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let (task_tx, task_rx) = mpsc::channel::<usize>();
    for i in 0..items.len() {
        task_tx.send(i).expect("the receiver is alive");
    }
    // Fully dispatched up front: an empty channel now reads as "batch done".
    drop(task_tx);
    // mpsc receivers are single-consumer; the mutex turns the pool into work stealing — an
    // idle worker grabs the next index as soon as it finishes, so skewed per-item costs
    // (cache hit vs. full engine query) still balance.
    let task_rx = Mutex::new(task_rx);
    let (result_tx, result_rx) = mpsc::channel::<(usize, R)>();
    let work = |result_tx: mpsc::Sender<(usize, R)>| {
        loop {
            // Recovered rather than propagated: `recv` holds no shared mutable state a panic
            // could tear, and one worker dying (a panicking task closure caught further up)
            // must not strand the rest of the batch.
            let next = task_rx
                .lock()
                .unwrap_or_else(|poisoned| {
                    task_rx.clear_poison();
                    poisoned.into_inner()
                })
                .recv();
            let Ok(i) = next else { break };
            if result_tx.send((i, f(i, &items[i]))).is_err() {
                break; // Receiver gone: the batch was abandoned.
            }
        }
    };

    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    thread::scope(|scope| {
        for _ in 1..workers {
            let result_tx = result_tx.clone();
            scope.spawn(|| work(result_tx));
        }
        work(result_tx);
        for (i, r) in result_rx {
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index produced exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = run_indexed(&items, 8, |i, &x| {
            // Stagger completion so out-of-order finishes are likely.
            std::thread::sleep(std::time::Duration::from_micros((100 - i as u64) % 7));
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_returns_empty() {
        let out: Vec<u32> = run_indexed(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_runs_inline() {
        let calls = AtomicUsize::new(0);
        let items = [1, 2, 3];
        let out = run_indexed(&items, 1, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + i
        });
        assert_eq!(out, vec![1, 3, 5]);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn oversized_worker_count_is_clamped() {
        let items = [10, 20];
        let out = run_indexed(&items, 64, |_, &x| x);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn the_caller_works_a_share_and_one_thread_fewer_is_spawned() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        // The first two tasks meet at a barrier, so two distinct threads must each be inside
        // a task at once — with `workers = 2` that is the caller and the one spawned thread.
        let rendezvous = Barrier::new(2);
        let threads = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..16).collect();
        let out = run_indexed(&items, 2, |i, &x| {
            threads.lock().unwrap().insert(thread::current().id());
            if i < 2 {
                rendezvous.wait();
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
            x + 1
        });
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), 2, "workers = 2 runs on exactly two threads");
        assert!(
            threads.contains(&thread::current().id()),
            "the calling thread is one of the workers"
        );
    }
}
