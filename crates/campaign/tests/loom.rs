//! Exhaustive interleaving checks for the campaign's round-robin
//! admission queue, run under the vendored loom shim:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --release -p inpg-campaign --test loom
//! ```
//!
//! The admission queue is a plain structure guarded by whatever mutex
//! the caller provides; here that is a modeled one, so the production
//! queue code runs under the model scheduler — these are not
//! reimplementations of the logic under test.
//!
//! Models are deliberately tiny (2–3 threads, a handful of operations):
//! the shim explores the schedule tree exhaustively with no
//! partial-order reduction, so state must stay small. Every invariant
//! asserted here holds on *every* interleaving, not just the ones a
//! stress test happens to hit.

#![cfg(loom)]

use std::sync::Arc;

use inpg_campaign::admission::Admission;
use loom::sync::Mutex;

/// Round-robin admission under concurrent submitters and a draining
/// worker. On every interleaving: nothing is lost or duplicated,
/// per-connection FIFO order survives, and the flooding connection
/// cannot make the worker pop it twice in a row while another
/// connection has work queued (the no-starvation property the cursor
/// exists for).
#[test]
fn admission_is_fair_and_lossless_under_concurrent_submit_and_pop() {
    loom::model(|| {
        let adm = Arc::new(Mutex::new(Admission::<u64>::default()));
        // Connection 1 floods two jobs (values 10, 11 — FIFO-ordered);
        // connection 2 submits one (value 20).
        let a = Arc::clone(&adm);
        let flooder = loom::thread::spawn(move || {
            a.lock().unwrap().push(1, 10);
            a.lock().unwrap().push(1, 11);
        });
        let a = Arc::clone(&adm);
        let other = loom::thread::spawn(move || {
            a.lock().unwrap().push(2, 20);
        });
        // The worker pops exactly twice, concurrently with the
        // submitters (no polling loop: the schedule tree must stay
        // finite). Alongside each pop, record whether the *other*
        // connection still had queued work — that is what makes the
        // fairness check schedule-independent.
        let mut popped = Vec::new();
        for _ in 0..2 {
            let mut q = adm.lock().unwrap();
            if let Some(v) = q.pop_next() {
                popped.push((v, q.queued()));
            }
        }
        flooder.join().unwrap();
        other.join().unwrap();

        // Drain the remainder single-threaded.
        let mut rest = Vec::new();
        {
            let mut q = adm.lock().unwrap();
            while let Some(v) = q.pop_next() {
                rest.push(v);
            }
            assert_eq!(q.queued(), 0);
            assert!(!q.has_queues(), "empty queues are garbage-collected");
        }

        let mut all: Vec<u64> = popped.iter().map(|&(v, _)| v).collect();
        all.extend(rest.iter().copied());
        // Conservation: all three jobs surface exactly once.
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 11, 20], "lost or duplicated job: {all:?}");
        // Per-connection FIFO: 10 before 11 in the combined pop order.
        let pos = |v: u64| all.iter().position(|&x| x == v).unwrap();
        assert!(pos(10) < pos(11), "connection 1's FIFO order broken: {all:?}");
        // No-starvation: consecutive concurrent pops may both come from
        // connection 1 only if connection 2 had nothing queued between
        // them. `queued` recorded at pop time tells us: if the first
        // pop saw 2 remaining jobs, both connections were populated, so
        // the second pop must switch connections.
        if let [(first, remaining), (second, _)] = popped[..] {
            if remaining == 2 {
                let conn = |v: u64| v / 10;
                assert_ne!(
                    conn(first),
                    conn(second),
                    "round-robin violated with both connections non-empty: {popped:?}"
                );
            }
        }
    });
}

/// A drain racing a submitter: whatever the interleaving, every pushed
/// job ends up in exactly one of the drained set or the queue's
/// remainder — the daemon relies on this to journal queued cells
/// without losing or double-journaling any.
#[test]
fn drain_races_with_submit_without_losing_jobs() {
    loom::model(|| {
        let adm = Arc::new(Mutex::new(Admission::<u64>::default()));
        let a = Arc::clone(&adm);
        let submitter = loom::thread::spawn(move || {
            a.lock().unwrap().push(1, 1);
            a.lock().unwrap().push(2, 2);
        });
        let drained = adm.lock().unwrap().drain_all();
        submitter.join().unwrap();
        let rest = adm.lock().unwrap().drain_all();

        let mut all = drained.clone();
        all.extend(rest.iter().copied());
        all.sort_unstable();
        assert_eq!(all, vec![1, 2], "drain lost or duplicated a job");
    });
}
