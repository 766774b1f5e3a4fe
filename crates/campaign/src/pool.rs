//! A std-only thread pool for campaign cells.
//!
//! Workers claim task indices in canonical order from one shared atomic
//! cursor. Cells cost from about 10 ms to 13 s, so one `fetch_add` per
//! claim is noise and per-worker deques, chunked claims and stealing
//! buy nothing: a worker that finishes early simply claims the next
//! unclaimed index. This module owns the worker scope and the
//! claiming; panic isolation is per cell, in `exec::run_cell`.
//!
//! The pool is deliberately order-oblivious: results come back indexed
//! by task, whatever order they finished in, and the campaign engine
//! re-emits everything in canonical cell order, which is what makes
//! 1-worker and N-worker runs byte-identical downstream. No wall clock
//! in here — timing belongs to the harness boundary (`exec::run_cell`).

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `task(i)` for every `i in 0..n` on `workers` threads, returning
/// the results indexed by task. `workers` is clamped to `1..=n` (a
/// zero-cell run spawns nothing). A panicking task unwinds out of this
/// call once every worker has stopped.
pub fn run_indexed<T, F>(n: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    // sync: Relaxed — `fetch_add` is atomic at any ordering, so every
    // index is claimed by exactly one worker; results travel back
    // through the thread joins, never through the cursor.
    let cursor = AtomicUsize::new(0);

    let claimed: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed); // sync: see `cursor`
                        if index >= n {
                            return done;
                        }
                        done.push((index, task(index)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });

    let mut results: Vec<(usize, T)> = claimed.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(index, _)| index);
    debug_assert!(results.iter().enumerate().all(|(i, &(index, _))| i == index));
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn executes_every_index_exactly_once() {
        for workers in [1, 2, 8, 64] {
            let counter = AtomicUsize::new(0);
            let results = run_indexed(37, workers, |i| {
                counter.fetch_add(1, Ordering::SeqCst);
                i * i
            });
            assert_eq!(counter.load(Ordering::SeqCst), 37, "workers={workers}");
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn work_spreads_across_workers() {
        // One pathological task plus many cheap ones: with 4 workers the
        // cheap tail must not serialize behind the expensive head. The
        // head task blocks until a sibling has finished a cheap task, so
        // the spread is guaranteed even on a single-CPU machine (where a
        // busy-loop head could otherwise be the only worker scheduled).
        let ran_on: Vec<Mutex<Option<std::thread::ThreadId>>> =
            (0..64).map(|_| Mutex::new(None)).collect();
        let cheap_done = AtomicUsize::new(0);
        run_indexed(64, 4, |i| {
            *ran_on[i].lock().unwrap() = Some(std::thread::current().id());
            if i == 0 {
                while cheap_done.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            } else {
                cheap_done.fetch_add(1, Ordering::SeqCst);
            }
        });
        let distinct: std::collections::BTreeSet<_> = ran_on
            .iter()
            .map(|m| format!("{:?}", m.lock().unwrap().expect("ran")))
            .collect();
        assert!(distinct.len() > 1, "work must spread across threads");
    }

    #[test]
    fn zero_and_singleton_inputs() {
        assert_eq!(run_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 8, |i| i + 10), vec![10]);
    }

    #[test]
    fn results_keep_task_order_regardless_of_finish_order() {
        // Make later tasks finish first by giving early tasks more work.
        let results = run_indexed(16, 4, |i| {
            let mut acc = i as u64;
            for k in 0..(16 - i as u64) * 50_000 {
                acc = acc.wrapping_add(k ^ acc);
            }
            (i, acc)
        });
        for (slot, (i, _)) in results.iter().enumerate() {
            assert_eq!(slot, *i);
        }
    }
}
