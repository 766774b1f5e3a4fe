//! `inpg serve` — the resident campaign daemon.
//!
//! Holds the worker pool warm between requests: cache hits are answered
//! inline on the connection handler (a warm hit's round trip, fresh
//! connection included, measures about 0.6–0.7 ms at the median in a
//! release build on a 2-CPU host), misses are admitted to a bounded
//! queue and executed by resident workers.
//! Robustness is the headline, in four layers:
//!
//! * **Deadlines** — every submit may carry `deadline_ms`. A job whose
//!   deadline passes while queued is answered with a typed
//!   [`Reply::Timeout`] without ever running; a job that exceeds its
//!   deadline mid-run is stopped cooperatively through the simulator's
//!   [`AbortHandle`] (the run ends with `SimError::Aborted` at its next
//!   poll point) and answered with the same typed timeout. The pool is
//!   never wedged by a slow cell.
//! * **Backpressure** — the admission queue is one bounded FIFO.
//!   Beyond the bound, requests are shed with [`Reply::Overloaded`] and
//!   an honest `retry_after_ms`, not buffered without limit. A
//!   connection reads its next request only once its current one is
//!   answered, so it holds at most one queued job and no client can
//!   wait behind more than `queue_capacity` pops.
//! * **Graceful drain** — a shutdown request or SIGTERM/SIGINT flips
//!   the daemon into draining: new submits are refused with
//!   [`Reply::Draining`], in-flight cells finish and answer normally,
//!   queued cells are persisted to the [journal](crate::journal)
//!   (their waiting clients get `Draining` and resubmit elsewhere),
//!   and the process exits 0.
//! * **Crash safety** — all cache writes go through tmp+fsync+rename;
//!   startup sweeps orphaned `.tmp` files and replays the journal
//!   (idempotent: replayed cells that already made it to the shared
//!   cache cost one verified hit). Corrupt cache entries found while
//!   serving are quarantined and counted, never trusted and never
//!   silently deleted.
//!
//! Multiple daemons may share one cache directory: entries are
//! content-addressed and written atomically with identical bytes for
//! identical cells, so concurrent writers are benign, and a client can
//! shard cells across daemons by content hash.
//!
//! A submit that misses the cache additionally streams progress
//! [`Notification`] lines (queued/running/done) on its connection ahead
//! of the terminal reply, so a client watching a long cell sees it move
//! through the queue instead of a silent socket. Notes are advisory and
//! never block a worker: they travel through the same unbounded channel
//! as the final reply, and a disconnected client merely loses them.

use crate::cache::ResultCache;
use crate::cell::{CellConfig, CellRecord};
use crate::clock::Deadline;
use crate::exec::{self, Lookup, Ran};
use crate::journal;
use crate::json::Json;
use crate::protocol::{Notification, Reply, Request, ServiceStatus};
use inpg_manycore::SimError;
use inpg_sim::AbortHandle;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address. Port 0 picks an ephemeral port (recommended: std
    /// offers no `SO_REUSEADDR`, so a fixed port can linger in
    /// `TIME_WAIT` after a restart); the bound address is published via
    /// [`addr_file`](Self::addr_file).
    pub addr: String,
    /// File the bound `host:port` is written to once listening (and
    /// removed on exit). Clients re-read it on retry, which is how a
    /// restarted daemon on a fresh ephemeral port is re-discovered.
    pub addr_file: Option<PathBuf>,
    /// Result-cache directory (`None` disables caching — every submit
    /// executes).
    pub cache: Option<PathBuf>,
    /// Resident worker threads.
    pub workers: usize,
    /// Admission bound: queued (not yet running) jobs beyond this are
    /// shed with `Overloaded`.
    pub queue_capacity: usize,
    /// Deadline applied to submits that do not carry their own
    /// (`None` = no default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Drain journal path (`None` disables journaling: queued cells are
    /// refused at drain but not persisted).
    pub journal: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            addr_file: None,
            cache: Some(PathBuf::from("results/cache")),
            workers: crate::engine::default_workers(),
            queue_capacity: 256,
            default_deadline_ms: None,
            journal: Some(PathBuf::from("results/serve/journal.jsonl")),
        }
    }
}

/// What a job's owning connection receives while it is in flight: zero
/// or more advisory progress notes, then exactly one terminal reply.
enum JobEvent {
    Note(Notification),
    Final(Reply),
}

/// One admitted, not-yet-finished unit of work.
struct Job {
    config: CellConfig,
    deadline: Option<Deadline>,
    /// Where progress notes and the (exactly one) terminal reply go.
    /// Journal-replay jobs hold a sender whose receiver is dropped —
    /// their sends are no-ops.
    events: mpsc::Sender<JobEvent>,
}

impl Job {
    /// Sends the terminal reply (best-effort: the client may be gone).
    fn finish(&self, reply: Reply) {
        let _ = self.events.send(JobEvent::Final(reply));
    }
}

/// The admission queue: one FIFO of admitted jobs plus the daemon state
/// read under the same lock.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Jobs popped but not yet answered.
    in_flight: usize,
    /// Set once the daemon refuses new submits.
    draining: bool,
}

/// Removes queued jobs whose deadline has passed, keeping the
/// survivors in order.
fn drain_expired(queue: &mut Queue) -> VecDeque<Job> {
    let (expired, live) = std::mem::take(&mut queue.jobs)
        .into_iter()
        .partition(|job| job.deadline.is_some_and(|d| d.expired()));
    queue.jobs = live;
    expired
}

/// Everything the daemon's threads share.
struct Shared {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    cache: Option<ResultCache>,
    opts: ServeOptions,
    hits: AtomicU64,
    misses: AtomicU64,
    timeouts: AtomicU64,
    rejected: AtomicU64,
    quarantined: AtomicU64,
    /// Deadlines of in-flight runs, scanned by the timer thread; the
    /// handle is raised when the deadline passes, stopping the run.
    inflight_deadlines: Mutex<BTreeMap<u64, (Deadline, AbortHandle)>>,
    next_deadline_id: AtomicU64,
    /// Set once the drain has fully completed; stops the timer thread.
    stopped: AtomicBool,
    /// Where a drain connects to wake the blocked accept loop.
    wake_addr: SocketAddr,
}

impl Shared {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn status(&self) -> ServiceStatus {
        let queue = self.queue();
        ServiceStatus {
            queued: queue.jobs.len() as u64,
            in_flight: queue.in_flight as u64,
            // sync: Relaxed — independent monotone counters; a snapshot
            // is advisory (stats line), so cross-counter skew is fine.
            hits: self.hits.load(Ordering::Relaxed), // sync: relaxed stat counter
            misses: self.misses.load(Ordering::Relaxed), // sync: relaxed stat counter
            timeouts: self.timeouts.load(Ordering::Relaxed), // sync: relaxed stat counter
            rejected: self.rejected.load(Ordering::Relaxed), // sync: relaxed stat counter
            quarantined: self.quarantined.load(Ordering::Relaxed), // sync: relaxed stat counter
            draining: queue.draining,
        }
    }

    /// Flips the daemon into draining (idempotent): queued jobs are
    /// journaled and their clients told to go elsewhere. Returns how
    /// many cells were journaled. The caller then wakes the accept loop
    /// with [`wake_accept`](Self::wake_accept).
    fn initiate_drain(&self) -> u64 {
        let jobs = {
            let mut queue = self.queue();
            if queue.draining {
                return 0;
            }
            queue.draining = true;
            self.work_ready.notify_all();
            std::mem::take(&mut queue.jobs)
        };
        let configs: Vec<CellConfig> = jobs.iter().map(|j| j.config.clone()).collect();
        let journaled = match &self.opts.journal {
            Some(path) => match journal::write(path, &configs) {
                Ok(()) => configs.len() as u64,
                Err(e) => {
                    eprintln!("serve: cannot journal {} queued cell(s): {e}", configs.len());
                    0
                }
            },
            None => 0,
        };
        for job in jobs {
            job.finish(Reply::Draining);
        }
        journaled
    }

    /// Wakes the blocked accept loop with one throwaway connection, so
    /// it sees the drain and returns — after which the process may exit
    /// at any moment.
    fn wake_accept(&self) {
        if let Err(e) = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)) {
            eprintln!(
                "serve: cannot wake the accept loop at {}: {e}",
                self.wake_addr
            );
        }
    }

    /// Verified cache lookup; a corrupt entry is quarantined, counted,
    /// and reported as a miss. `hash` is `config`'s content hash.
    fn cache_load(&self, config: &CellConfig, hash: &str) -> Option<Box<CellRecord>> {
        match exec::resolve(self.cache.as_ref(), config, "serve", hash) {
            Lookup::Hit(record) => Some(record),
            Lookup::Miss { quarantined } => {
                if quarantined {
                    // sync: Relaxed — monotone stat counter, not an
                    // ordering edge; readers tolerate skew.
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }
}

/// Runs the daemon until it has gracefully drained. Returns after the
/// last in-flight cell finished and queued cells were journaled.
pub fn serve(opts: ServeOptions) -> io::Result<()> {
    let cache = opts.cache.as_ref().map(ResultCache::new);
    if let Some(cache) = &cache {
        match cache.gc_stale_tmp() {
            Ok(0) => {}
            Ok(n) => eprintln!("serve: collected {n} orphaned .tmp cache file(s)"),
            Err(e) => eprintln!("serve: cannot sweep stale .tmp files: {e} (continuing)"),
        }
    }

    let listener = TcpListener::bind(&opts.addr)?;
    let bound = listener.local_addr()?;
    if let Some(path) = &opts.addr_file {
        exec::create_parent_dir(path)?;
        std::fs::write(path, format!("{bound}\n"))?;
    }
    sig::install();

    let shared = Arc::new(Shared {
        // sync: the admission queue is the daemon's one blocking lock;
        // `work_ready` is only ever waited on while holding it, and no
        // other lock is taken inside that critical section.
        queue: Mutex::new(Queue::default()),
        work_ready: Condvar::new(), // sync: paired with `queue` above
        cache,
        opts: opts.clone(),
        hits: AtomicU64::new(0), // sync: relaxed stat counter
        misses: AtomicU64::new(0), // sync: relaxed stat counter
        timeouts: AtomicU64::new(0), // sync: relaxed stat counter
        rejected: AtomicU64::new(0), // sync: relaxed stat counter
        quarantined: AtomicU64::new(0), // sync: relaxed stat counter
        // sync: leaf lock — deadline registration/expiry never takes
        // `queue` (or any other lock) while holding it.
        inflight_deadlines: Mutex::new(BTreeMap::new()),
        next_deadline_id: AtomicU64::new(0), // sync: relaxed unique-ID source
        stopped: AtomicBool::new(false), // sync: SeqCst stop flag, see `store`
        wake_addr: wake_addr(bound),
    });

    replay_journal(&shared);

    let workers: Vec<_> = (0..opts.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<io::Result<_>>()?;
    let timer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-deadline-timer".into())
            .spawn(move || deadline_timer_loop(&shared))?
    };

    eprintln!(
        "serve: listening on {bound} ({} workers, queue bound {})",
        opts.workers.max(1),
        opts.queue_capacity
    );

    // The accept loop blocks in `accept`, so a waiting client is taken
    // at once. Every drain (a shutdown request on a handler thread,
    // once answered; a signal seen by the timer thread) ends with a
    // throwaway connection that wakes it; that connection, like any
    // other racing the drain, is dropped unanswered. Connection ids
    // only name handler threads.
    let mut next_conn_id: u64 = 1;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                eprintln!("serve: accept failed: {e}; draining");
                shared.initiate_drain();
                break;
            }
        };
        if shared.queue().draining {
            break;
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        let handler_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("serve-conn-{conn_id}"))
            .spawn(move || handle_connection(&handler_shared, stream));
        if let Err(e) = spawned {
            // The unspawned closure drops the stream, closing it.
            eprintln!("serve: cannot spawn a handler for connection {conn_id}: {e}; dropped it");
        }
    }

    // Drain: workers exit once the (already emptied) queue stays empty;
    // their current cells finish and answer first.
    for worker in workers {
        let _ = worker.join();
    }
    // sync: SeqCst — the stop flag must be globally ordered against the
    // queue drain it races with on shutdown, so a worker that misses
    // the flag still observes the drained queue (and vice versa).
    shared.stopped.store(true, Ordering::SeqCst);
    let _ = timer.join();
    if let Some(path) = &opts.addr_file {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("serve: drained, exiting");
    Ok(())
}

/// The address a drain connects to: the bound one, with an unspecified
/// IP (`0.0.0.0`, `[::]`) replaced by loopback of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Re-admits journaled cells from a previous daemon's drain, ahead of
/// any live submit. Their results go to the shared cache; nobody waits
/// on a reply. The journal file itself is only rewritten at the *next*
/// drain — replay is idempotent through the cache: a worker checks the
/// cache when it pops a job, so an already-finished cell costs a
/// verified hit, never a second run.
fn replay_journal(shared: &Arc<Shared>) {
    let Some(path) = &shared.opts.journal else { return };
    match journal::load(path) {
        Ok(cells) if cells.is_empty() => {}
        Ok(cells) => {
            eprintln!("serve: replaying {} journaled cell(s)", cells.len());
            let (tx, _discarded_rx) = mpsc::channel();
            let mut queue = shared.queue();
            for config in cells {
                queue.jobs.push_back(Job { config, deadline: None, events: tx.clone() });
            }
            shared.work_ready.notify_all();
        }
        Err(e) => eprintln!("serve: cannot replay journal: {e} (continuing without it)"),
    }
}

/// One connection: newline-delimited requests, one reply line each. The
/// next request is read only after the current one is answered, so a
/// connection never has more than one job queued.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // peer closed (or broke) the connection
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let reply = match Request::from_line(&line) {
            Err(e) => Reply::Invalid { detail: e.to_string() },
            Ok(Request::Ping) => Reply::Pong,
            Ok(Request::Status) => Reply::Status(shared.status()),
            Ok(Request::Shutdown) => {
                let reply = Reply::ShuttingDown { journaled: shared.initiate_drain() };
                // Answer before waking the accept loop: once it returns,
                // the process can exit before this thread writes.
                let _ = write_line(&mut writer, &reply.to_json());
                shared.wake_accept();
                return;
            }
            Ok(Request::Submit { config, deadline_ms }) => {
                handle_submit(shared, config, deadline_ms, &mut writer)
            }
        };
        if write_line(&mut writer, &reply.to_json()).is_err() {
            return;
        }
    }
}

/// Writes one protocol line (a reply or a progress note) and flushes.
fn write_line(writer: &mut impl Write, line: &Json) -> io::Result<()> {
    writer.write_all((line.to_string_compact() + "\n").as_bytes())?;
    writer.flush()
}

/// Writes one progress-note line. Best-effort by design: the note is
/// advisory, so a failed write is reported to the caller only so it can
/// stop bothering a dead socket.
fn write_note(writer: &mut impl Write, note: &Notification) -> io::Result<()> {
    write_line(writer, &note.to_json())
}

/// The submit path: cache hit inline (one reply line, no notes), miss
/// through the bounded queue with queued/running/done notes streamed to
/// `writer` ahead of the terminal reply.
fn handle_submit(
    shared: &Arc<Shared>,
    config: CellConfig,
    deadline_ms: Option<u64>,
    writer: &mut impl Write,
) -> Reply {
    let hash = config.content_hash();
    if let Some(record) = shared.cache_load(&config, &hash) {
        shared.hits.fetch_add(1, Ordering::Relaxed); // sync: relaxed stat counter
        return Reply::Result { hash, record, cached: true, wall_nanos: 0 };
    }

    let deadline = deadline_ms.or(shared.opts.default_deadline_ms).map(Deadline::after_ms);
    let (tx, rx) = mpsc::channel();
    let ahead = {
        let mut queue = shared.queue();
        if queue.draining {
            return Reply::Draining;
        }
        let queued = queue.jobs.len();
        if queued >= shared.opts.queue_capacity {
            shared.rejected.fetch_add(1, Ordering::Relaxed); // sync: relaxed stat counter
            // Honest heuristic: the fuller the queue per worker, the
            // longer the suggested backoff.
            let per_worker = queued / shared.opts.workers.max(1);
            return Reply::Overloaded { retry_after_ms: 25 * (1 + per_worker as u64) };
        }
        queue.jobs.push_back(Job { config, deadline, events: tx });
        shared.work_ready.notify_one();
        queued as u64
    };
    // The queued note is written outside the admission lock: socket I/O
    // must never extend the daemon's one blocking critical section. The
    // channel buffers any worker events racing this write, so the wire
    // order stays queued → running → done → reply.
    let mut socket_alive = write_note(writer, &Notification::Queued { hash, ahead }).is_ok();
    // The worker (or the deadline timer, or a drain) always finishes.
    loop {
        match rx.recv() {
            Ok(JobEvent::Note(note)) => {
                if socket_alive {
                    socket_alive = write_note(writer, &note).is_ok();
                }
            }
            Ok(JobEvent::Final(reply)) => return reply,
            Err(_) => {
                return Reply::Failed { detail: "worker vanished without a reply".into() }
            }
        }
    }
}

/// A resident worker: pop the oldest job, answer it from the cache if
/// a sibling finished the same cell while it waited, otherwise honor
/// its deadline, run, store and reply. Exits when draining and the
/// queue is empty.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    queue.in_flight += 1;
                    break job;
                }
                if queue.draining {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let hash = job.config.content_hash();
        let reply = match shared.cache_load(&job.config, &hash) {
            Some(record) => {
                shared.hits.fetch_add(1, Ordering::Relaxed); // sync: relaxed stat counter
                Reply::Result { hash, record, cached: true, wall_nanos: 0 }
            }
            None => {
                let _ =
                    job.events.send(JobEvent::Note(Notification::Running { hash: hash.clone() }));
                let reply = run_job(shared, &job, &hash);
                if let Reply::Result { wall_nanos, cached: false, .. } = &reply {
                    let _ = job
                        .events
                        .send(JobEvent::Note(Notification::Done { hash, wall_nanos: *wall_nanos }));
                }
                reply
            }
        };
        // Leave the in-flight count before replying, so a client that
        // has its answer never sees its own job still counted.
        shared.queue().in_flight -= 1;
        job.finish(reply);
    }
}

/// Executes one job through [`exec::run_cell`] (which isolates panics)
/// with deadline enforcement; `hash` is the job config's content hash.
fn run_job(shared: &Arc<Shared>, job: &Job, hash: &str) -> Reply {
    if let Some(deadline) = job.deadline {
        if deadline.expired() {
            shared.timeouts.fetch_add(1, Ordering::Relaxed); // sync: relaxed stat counter
            return Reply::Timeout {
                detail: "deadline passed while queued; the cell never ran".into(),
            };
        }
    }
    let abort = AbortHandle::new();
    let registration = job.deadline.map(|deadline| {
        // sync: Relaxed — fetch_add is atomic at any ordering, and
        // uniqueness of the ID is all this needs; nothing is published.
        let id = shared.next_deadline_id.fetch_add(1, Ordering::Relaxed);
        shared
            .inflight_deadlines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, (deadline, abort.clone()));
        id
    });

    let ran = exec::run_cell(shared.cache.as_ref(), &job.config, Some(abort), "serve", hash);

    if let Some(id) = registration {
        shared
            .inflight_deadlines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    match ran {
        Ran::Done { record, wall_nanos, .. } => {
            shared.misses.fetch_add(1, Ordering::Relaxed); // sync: relaxed stat counter
            Reply::Result { hash: hash.to_string(), record, cached: false, wall_nanos }
        }
        Ran::Failed(SimError::Aborted { cycle }) => {
            shared.timeouts.fetch_add(1, Ordering::Relaxed); // sync: relaxed stat counter
            Reply::Timeout {
                detail: format!(
                    "deadline passed mid-run; simulation stopped at cycle {}",
                    cycle.as_u64()
                ),
            }
        }
        Ran::Failed(e) => Reply::Failed { detail: e.to_string() },
        Ran::Panicked(detail) => Reply::Failed { detail: format!("cell panicked: {detail}") },
    }
}

/// The deadline enforcer: every few milliseconds, raise the abort
/// handle of any in-flight run whose deadline passed, and answer queued
/// jobs whose deadline passed without making them wait for a worker.
/// It also turns a received SIGTERM/SIGINT into a drain.
fn deadline_timer_loop(shared: &Arc<Shared>) {
    // sync: SeqCst — pairs with the shutdown `store`; see that site.
    while !shared.stopped.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
        if sig::termed() && !shared.queue().draining {
            let journaled = shared.initiate_drain();
            shared.wake_accept();
            eprintln!("serve: signal received; draining ({journaled} cell(s) journaled)");
        }
        {
            let mut inflight = shared
                .inflight_deadlines
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (deadline, handle) in inflight.values_mut() {
                if deadline.expired() {
                    handle.abort();
                }
            }
        }
        let expired = drain_expired(&mut shared.queue());
        for job in expired {
            shared.timeouts.fetch_add(1, Ordering::Relaxed); // sync: relaxed stat counter
            job.finish(Reply::Timeout {
                detail: "deadline passed while queued; the cell never ran".into(),
            });
        }
    }
}

/// Signal handling (std-only): SIGTERM/SIGINT set a flag the deadline
/// timer polls (a blocked `accept` is restarted, never interrupted, by
/// a signal); everything else about the drain happens on ordinary
/// threads, so the handler body is a single async-signal-safe store.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    // sync: signal-handler flag — written from a signal context where
    // only atomics are async-signal-safe; SeqCst keeps it simple.
    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst); // sync: see TERM declaration
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_term as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn termed() -> bool {
        TERM.load(Ordering::SeqCst) // sync: see TERM declaration
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn termed() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_queued_jobs_are_separated_from_live_ones() {
        let mut queue = Queue::default();
        let (tx, _rx) = mpsc::channel();
        for (seed, deadline) in [
            (1u64, Some(Deadline::after_ms(0))),
            (2, None),
            (3, Some(Deadline::after_ms(3_600_000))),
        ] {
            let mut config = CellConfig::benchmark("freq");
            config.seed = seed;
            queue.jobs.push_back(Job { config, deadline, events: tx.clone() });
        }
        std::thread::sleep(Duration::from_millis(2));
        let expired = drain_expired(&mut queue);
        assert_eq!(expired.len(), 1);
        let survivors: Vec<u64> = queue.jobs.iter().map(|job| job.config.seed).collect();
        assert_eq!(survivors, [2, 3], "undeadlined and future-deadlined jobs stay, in order");
    }

    #[test]
    fn a_drain_wakes_an_unspecified_bind_through_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:4100", "127.0.0.1:4100"),
            ("[::]:4100", "[::1]:4100"),
            ("127.0.0.1:4100", "127.0.0.1:4100"),
            ("10.1.2.3:4100", "10.1.2.3:4100"),
        ] {
            assert_eq!(
                wake_addr(bound.parse().unwrap()),
                wake.parse().unwrap(),
                "{bound}"
            );
        }
    }
}
