//! End-to-end tests of the campaign service: a real `inpg serve`
//! process per daemon (spawned from `CARGO_BIN_EXE_inpg`), driven over
//! its TCP wire protocol.
//!
//! The headline guarantees under test:
//!
//! * deadlines are typed timeouts, not wedged workers;
//! * the admission bound sheds honestly with a retry hint;
//! * a queued cell that reached the cache meanwhile is a hit, not a
//!   second run, and its latency is not reported as a warm hit;
//! * two workers never run one cell at once: the second copy waits for
//!   the first and is answered from the cache;
//! * every hit is verified: an entry corrupted after it was served is
//!   quarantined and the cell re-run;
//! * a graceful drain journals queued cells, and a restarted daemon
//!   finishes the campaign with a byte-identical merged artifact;
//! * SIGKILLing one of two daemons sharing a cache mid-campaign loses
//!   nothing: the client fails over, a replacement daemon sweeps the
//!   victim's debris, and the merged artifact is byte-identical to an
//!   uninterrupted run — with zero unquarantined corrupt entries.

use inpg::{FaultKind, FaultPlan, Mechanism};
use inpg_campaign::submit::{self, AddrSource, SubmitOptions};
use inpg_campaign::{
    run_adaptive, AdaptiveCampaign, AdaptiveOptions, Campaign, CellConfig, EngineRunner,
    ExecOptions, HeadlineMetric, Notification, Reply, Request, ServiceRunner,
};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("inpg-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A quick cell (~hundreds of ms at these dimensions).
fn quick_cell(mechanism: Mechanism, rounds: u64) -> CellConfig {
    let mut cfg = CellConfig::hot_lock(rounds, 80, 30);
    cfg.mechanism = mechanism;
    cfg.width = 4;
    cfg.height = 4;
    cfg.max_cycles = 5_000_000;
    cfg
}

/// A cell that runs long enough to straddle any deadline or drain the
/// tests impose (it is always aborted or killed, never awaited).
fn slow_cell(seed: u64) -> CellConfig {
    let mut cfg = CellConfig::hot_lock(50_000, 200, 100);
    cfg.width = 8;
    cfg.height = 8;
    cfg.max_cycles = u64::MAX / 2;
    cfg.seed = seed;
    cfg
}

fn tiny_campaign() -> Campaign {
    let mut c = Campaign::new("serve-tiny");
    for mechanism in Mechanism::ALL {
        for rounds in [2u64, 3] {
            c.push(format!("{mechanism}/r{rounds}"), quick_cell(mechanism, rounds));
        }
    }
    c
}

/// One daemon process plus the paths that identify it.
struct Daemon {
    child: Child,
    addr_file: PathBuf,
}

impl Daemon {
    fn spawn(addr_file: &Path, cache: &Path, journal: &Path, extra: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_inpg"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .arg("--addr-file")
            .arg(addr_file)
            .arg("--cache-dir")
            .arg(cache)
            .arg("--journal")
            .arg(journal)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn inpg serve");
        Daemon { child, addr_file: addr_file.to_path_buf() }
    }

    fn source(&self) -> AddrSource {
        AddrSource::File(self.addr_file.clone())
    }

    /// Polls until the daemon published its address and answers a ping.
    fn wait_ready(&mut self) {
        for _ in 0..600 {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                panic!("daemon exited during startup: {status}");
            }
            if let Ok(addr) = self.source().resolve() {
                if let Ok(Reply::Pong) = submit::request(&addr, &Request::Ping) {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("daemon never became ready");
    }

    /// SIGKILL — the crash the service must survive.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks for a graceful drain and asserts the process exits 0.
    fn drain_and_wait(mut self) {
        submit::shutdown(&self.source()).expect("shutdown request");
        let status = self.child.wait().expect("wait");
        assert!(status.success(), "a drained daemon must exit 0, got {status}");
    }

    /// Waits for the process to exit on its own, panicking after `limit`.
    fn exit_within(&mut self, limit: Duration) -> ExitStatus {
        let start = Instant::now();
        while start.elapsed() < limit {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon still running {limit:?} after being told to drain");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Every `.tmp` file anywhere under `dir` (non-recursive is enough for
/// the flat cache layout, but walk one level into subdirectories too).
fn stray_tmp_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "tmp") {
                found.push(path);
            }
        }
    }
    found
}

fn quarantined_entries(cache: &Path) -> usize {
    std::fs::read_dir(cache.join("quarantine"))
        .map(|entries| entries.count())
        .unwrap_or(0)
}

#[test]
fn a_cell_over_its_deadline_times_out_without_wedging_the_pool() {
    let dir = scratch("deadline");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1"],
    );
    daemon.wait_ready();
    let addr = daemon.source().resolve().unwrap();

    // A cell that would run for minutes, with a 100ms deadline: the
    // daemon must answer with a *typed* timeout, not hang or panic.
    let reply = submit::request(
        &addr,
        &Request::Submit { config: slow_cell(1), deadline_ms: Some(100) },
    )
    .expect("submit over-deadline cell");
    match reply {
        Reply::Timeout { detail } => {
            assert!(detail.contains("deadline"), "typed timeout names the deadline: {detail}");
        }
        other => panic!("expected a typed timeout, got {other:?}"),
    }

    // The single worker was reclaimed by the abort: an ordinary cell
    // submitted afterwards completes on it.
    let config = quick_cell(Mechanism::Original, 2);
    let reply = submit::request(
        &addr,
        &Request::Submit { config: config.clone(), deadline_ms: None },
    )
    .expect("submit ordinary cell");
    match reply {
        Reply::Result { hash, cached, .. } => {
            assert_eq!(hash, config.content_hash());
            assert!(!cached, "first execution cannot be a hit");
        }
        other => panic!("the pool is wedged: expected a result, got {other:?}"),
    }

    // The same cell again is a warm hit served from the verified cache.
    let reply = submit::request(
        &addr,
        &Request::Submit { config: config.clone(), deadline_ms: None },
    )
    .expect("resubmit cached cell");
    match reply {
        Reply::Result { cached, wall_nanos, .. } => {
            assert!(cached, "second submission must be a cache hit");
            assert_eq!(wall_nanos, 0, "hits report no execution time");
        }
        other => panic!("expected a cached result, got {other:?}"),
    }

    match submit::request(&addr, &Request::Status).expect("status") {
        Reply::Status(status) => {
            assert_eq!(status.timeouts, 1, "{status:?}");
            assert_eq!(status.misses, 1, "{status:?}");
            assert_eq!(status.hits, 1, "{status:?}");
            assert!(!status.draining, "{status:?}");
        }
        other => panic!("expected status, got {other:?}"),
    }

    daemon.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cell_that_panics_is_a_failed_reply_and_frees_its_worker() {
    let dir = scratch("panic");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1"],
    );
    daemon.wait_ready();
    let addr = daemon.source().resolve().unwrap();

    // An unknown benchmark panics while the experiment is built; the
    // single worker must answer it as a failed cell and survive.
    let reply = submit::request(
        &addr,
        &Request::Submit {
            config: CellConfig::benchmark("no-such-benchmark"),
            deadline_ms: None,
        },
    )
    .expect("submit poisoned cell");
    match reply {
        Reply::Failed { detail } => {
            assert!(detail.contains("no-such-benchmark"), "detail names the benchmark: {detail}");
        }
        other => panic!("expected a failed reply, got {other:?}"),
    }
    match submit::request(&addr, &Request::Status).expect("status") {
        Reply::Status(status) => assert_eq!(status.in_flight, 0, "{status:?}"),
        other => panic!("expected status, got {other:?}"),
    }

    // The worker is still there: a valid miss submitted next is served.
    let config = quick_cell(Mechanism::Original, 2);
    let reply = submit::request(
        &addr,
        &Request::Submit { config: config.clone(), deadline_ms: Some(60_000) },
    )
    .expect("submit valid cell");
    match reply {
        Reply::Result { hash, cached, .. } => {
            assert_eq!(hash, config.content_hash());
            assert!(!cached, "first execution cannot be a hit");
        }
        other => panic!("the worker died with the panic: expected a result, got {other:?}"),
    }

    daemon.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overflowing_the_admission_queue_is_shed_with_retry_after() {
    let dir = scratch("backpressure");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1", "--queue-capacity", "1"],
    );
    daemon.wait_ready();
    let addr = daemon.source().resolve().unwrap();

    // Occupy the single worker, then the single queue slot, from
    // background connections that will simply die with the daemon.
    // Staggered: the second submit may only go out once the first is
    // actually *running* (otherwise both would contend for the one
    // queue slot and the second would be shed before saturation).
    let wait_for = |in_flight: u64, queued: u64| {
        for _ in 0..400 {
            if let Ok(Reply::Status(s)) = submit::request(&addr, &Request::Status) {
                if s.in_flight == in_flight && s.queued == queued {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("daemon never reached {in_flight} in-flight + {queued} queued");
    };
    for (seed, queued_after) in [(10u64, 0u64), (11, 1)] {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let _ = submit::request(
                &addr,
                &Request::Submit { config: slow_cell(seed), deadline_ms: None },
            );
        });
        wait_for(1, queued_after);
    }

    // The next submit must be shed with an honest retry hint, not
    // buffered without bound and not blocked.
    let reply = submit::request(
        &addr,
        &Request::Submit { config: slow_cell(12), deadline_ms: None },
    )
    .expect("submit over the bound");
    match reply {
        Reply::Overloaded { retry_after_ms } => {
            assert!(retry_after_ms >= 1, "a usable backoff hint: {retry_after_ms}");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    match submit::request(&addr, &Request::Status).expect("status") {
        Reply::Status(status) => assert_eq!(status.rejected, 1, "{status:?}"),
        other => panic!("expected status, got {other:?}"),
    }

    // The occupying cells run for minutes by design; SIGKILL, as a
    // crashing daemon is part of the service's threat model anyway.
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_journal_restart_reproduces_the_uninterrupted_artifact() {
    let dir = scratch("drain-soak");
    let campaign = tiny_campaign();

    // Arm 1 — uninterrupted: one daemon, fresh cache, full campaign.
    let base_merged = dir.join("base.jsonl");
    {
        let mut daemon = Daemon::spawn(
            &dir.join("addr-base"),
            &dir.join("cache-base"),
            &dir.join("journal-base.jsonl"),
            &["--workers", "2"],
        );
        daemon.wait_ready();
        let report = submit::run_campaign(
            &campaign,
            None,
            &SubmitOptions {
                daemons: vec![daemon.source()],
                workers: 4,
                merged_out: Some(base_merged.clone()),
                ..SubmitOptions::default()
            },
        )
        .expect("uninterrupted campaign");
        assert_eq!(report.executed + report.hits, campaign.cells.len());
        daemon.drain_and_wait();
    }

    // Arm 2 — interrupted: a 1-worker daemon is gracefully drained
    // mid-campaign; queued cells land in the journal; a replacement
    // daemon on the same addr-file/journal/cache picks everything up
    // while the client fails over to it transparently.
    let addr_file = dir.join("addr-soak");
    let cache = dir.join("cache-soak");
    let journal = dir.join("journal-soak.jsonl");
    let mut daemon = Daemon::spawn(&addr_file, &cache, &journal, &["--workers", "1"]);
    daemon.wait_ready();
    let interrupter = {
        let (addr_file, cache, journal) = (addr_file.clone(), cache.clone(), journal.clone());
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(600));
            daemon.drain_and_wait();
            let mut replacement =
                Daemon::spawn(&addr_file, &cache, &journal, &["--workers", "2"]);
            replacement.wait_ready();
            replacement
        })
    };

    let soak_merged = dir.join("soak.jsonl");
    let report = submit::run_campaign(
        &campaign,
        None,
        &SubmitOptions {
            daemons: vec![AddrSource::File(addr_file.clone())],
            workers: 4,
            max_attempts: 120,
            merged_out: Some(soak_merged.clone()),
            ..SubmitOptions::default()
        },
    )
    .expect("interrupted campaign must still complete");
    assert_eq!(report.executed + report.hits, campaign.cells.len());
    let replacement = interrupter.join().expect("interrupter thread");

    assert_eq!(
        std::fs::read(&base_merged).unwrap(),
        std::fs::read(&soak_merged).unwrap(),
        "drain + restart must reproduce the merged artifact byte for byte"
    );
    assert!(stray_tmp_files(&cache).is_empty(), "no .tmp debris after the soak");
    assert_eq!(quarantined_entries(&cache), 0, "no corrupt entries were produced");

    // The replacement drains clean: nothing queued, so no journal left.
    replacement.drain_and_wait();
    assert!(!journal.exists(), "an empty drain leaves no journal behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_one_of_two_daemons_mid_campaign_is_survivable_and_deterministic() {
    let dir = scratch("kill-soak");
    let campaign = tiny_campaign();

    // Arm 1 — uninterrupted baseline (fresh cache, single daemon).
    let base_merged = dir.join("base.jsonl");
    {
        let mut daemon = Daemon::spawn(
            &dir.join("addr-base"),
            &dir.join("cache-base"),
            &dir.join("journal-base.jsonl"),
            &["--workers", "2"],
        );
        daemon.wait_ready();
        submit::run_campaign(
            &campaign,
            None,
            &SubmitOptions {
                daemons: vec![daemon.source()],
                workers: 4,
                merged_out: Some(base_merged.clone()),
                ..SubmitOptions::default()
            },
        )
        .expect("baseline campaign");
        daemon.drain_and_wait();
    }

    // Arm 2 — two daemons sharing one cache; daemon A is SIGKILLed
    // mid-campaign and replaced; the client shards across both and
    // fails over around the crash.
    let cache = dir.join("cache-shared");
    let addr_a = dir.join("addr-a");
    let addr_b = dir.join("addr-b");
    let journal_a = dir.join("journal-a.jsonl");
    let journal_b = dir.join("journal-b.jsonl");
    let mut daemon_a = Daemon::spawn(&addr_a, &cache, &journal_a, &["--workers", "1"]);
    let mut daemon_b = Daemon::spawn(&addr_b, &cache, &journal_b, &["--workers", "1"]);
    daemon_a.wait_ready();
    daemon_b.wait_ready();

    let killer = {
        let (addr_a, cache, journal_a) = (addr_a.clone(), cache.clone(), journal_a.clone());
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(500));
            daemon_a.kill();
            // The replacement sweeps whatever `.tmp` debris the SIGKILL
            // left in the shared cache as it starts.
            let mut replacement =
                Daemon::spawn(&addr_a, &cache, &journal_a, &["--workers", "1"]);
            replacement.wait_ready();
            replacement
        })
    };

    let soak_merged = dir.join("soak.jsonl");
    let report = submit::run_campaign(
        &campaign,
        None,
        &SubmitOptions {
            daemons: vec![AddrSource::File(addr_a.clone()), AddrSource::File(addr_b.clone())],
            workers: 4,
            max_attempts: 120,
            merged_out: Some(soak_merged.clone()),
            ..SubmitOptions::default()
        },
    )
    .expect("campaign must survive a SIGKILLed daemon");
    assert_eq!(report.executed + report.hits, campaign.cells.len());
    assert_eq!(report.quarantined, 0, "a torn .tmp is debris, never a cache entry");
    let replacement = killer.join().expect("killer thread");

    assert_eq!(
        std::fs::read(&base_merged).unwrap(),
        std::fs::read(&soak_merged).unwrap(),
        "SIGKILL + restart must reproduce the merged artifact byte for byte"
    );
    replacement.drain_and_wait();
    daemon_b.drain_and_wait();
    assert!(
        stray_tmp_files(&cache).is_empty(),
        "no .tmp debris survives the crash and restart"
    );
    assert_eq!(quarantined_entries(&cache), 0, "zero unquarantined corrupt entries");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cache_miss_streams_queued_running_done_notes_in_order() {
    let dir = scratch("notes");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1"],
    );
    daemon.wait_ready();
    let addr = daemon.source().resolve().unwrap();

    let config = quick_cell(Mechanism::Original, 2);
    let hash = config.content_hash();
    let mut notes: Vec<Notification> = Vec::new();
    let reply = submit::request_streaming(
        &addr,
        &Request::Submit { config: config.clone(), deadline_ms: None },
        |note| notes.push(note.clone()),
    )
    .expect("submit a miss");
    match &reply {
        Reply::Result { cached, .. } => assert!(!cached, "first execution is a miss"),
        other => panic!("expected a result, got {other:?}"),
    }
    match &notes[..] {
        [
            Notification::Queued { hash: h0, ahead: 0 },
            Notification::Running { hash: h1 },
            Notification::Done { hash: h2, wall_nanos },
        ] => {
            assert_eq!(h0, &hash);
            assert_eq!(h1, &hash);
            assert_eq!(h2, &hash);
            assert!(*wall_nanos > 0, "done carries the execution time");
        }
        other => panic!("expected queued -> running -> done, got {other:?}"),
    }

    // A warm hit is answered inline: no advisory notes at all.
    let mut hit_notes = 0usize;
    let reply = submit::request_streaming(
        &addr,
        &Request::Submit { config, deadline_ms: None },
        |_| hit_notes += 1,
    )
    .expect("resubmit the cached cell");
    match reply {
        Reply::Result { cached, .. } => assert!(cached),
        other => panic!("expected a cached result, got {other:?}"),
    }
    assert_eq!(hit_notes, 0, "cache hits stay single-line");

    daemon.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fault_cell_over_the_wire_always_runs_and_is_never_cached() {
    let dir = scratch("fault-cell");
    let cache = dir.join("cache");
    let mut daemon =
        Daemon::spawn(&dir.join("addr"), &cache, &dir.join("journal.jsonl"), &["--workers", "1"]);
    daemon.wait_ready();
    let addr = daemon.source().resolve().unwrap();

    let mut config = quick_cell(Mechanism::Inpg, 2);
    config.faults = FaultPlan::none().with(FaultKind::DelayJitter { max_extra: 4 }).seeded(7);
    config.check_invariants = Some(64);
    config.watchdog_cycles = Some(100_000);
    let hash = config.content_hash();
    let mut records = Vec::new();
    for attempt in ["first", "repeated"] {
        let reply = submit::request(
            &addr,
            &Request::Submit { config: config.clone(), deadline_ms: None },
        )
        .expect("submit the fault cell");
        match reply {
            Reply::Result { hash: h, cached, record, .. } => {
                assert_eq!(h, hash);
                assert!(!cached, "the {attempt} submit of a fault cell must run");
                assert!(record.completed);
                records.push(record);
            }
            other => panic!("expected a result for the {attempt} submit, got {other:?}"),
        }
    }
    assert_eq!(records[0], records[1], "a fault cell is deterministic");
    assert!(
        !cache.join(format!("{hash}.json")).exists(),
        "no cache entry may be stored under a fault cell's hash"
    );
    match submit::request(&addr, &Request::Status).expect("status") {
        Reply::Status(status) => {
            assert_eq!((status.misses, status.hits), (2, 0), "{status:?}");
        }
        other => panic!("expected status, got {other:?}"),
    }

    daemon.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cell_cached_while_its_job_waited_is_answered_as_a_hit() {
    let dir = scratch("dup");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1"],
    );
    daemon.wait_ready();
    let campaign = tiny_campaign();

    // Two clients submit the same campaign at once: each cell is queued
    // twice, and the copy popped second must find the first one's
    // result in the cache instead of running the cell again.
    let clients: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|tag| {
            let (campaign, source) = (campaign.clone(), daemon.source());
            let merged = dir.join(format!("{tag}.jsonl"));
            std::thread::spawn(move || {
                submit::run_campaign(
                    &campaign,
                    None,
                    &SubmitOptions {
                        daemons: vec![source],
                        workers: 4,
                        merged_out: Some(merged.clone()),
                        ..SubmitOptions::default()
                    },
                )
                .expect("concurrent campaign");
                merged
            })
        })
        .collect();
    let merged: Vec<PathBuf> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();

    let status = submit::status(&daemon.source()).expect("status");
    let cells = campaign.cells.len() as u64;
    assert_eq!(status.misses, cells, "each distinct cell runs once: {status:?}");
    assert_eq!(status.hits + status.misses, 2 * cells, "{status:?}");
    assert_eq!(
        std::fs::read(&merged[0]).unwrap(),
        std::fs::read(&merged[1]).unwrap(),
        "both clients merge the same artifact"
    );

    daemon.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hit_that_waited_in_the_queue_is_not_a_warm_hit() {
    let dir = scratch("queued-hit");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1"],
    );
    daemon.wait_ready();
    let addr = daemon.source().resolve().unwrap();
    let mut config = quick_cell(Mechanism::Inpg, 40);
    config.width = 8;
    config.height = 8;

    // Client A submits the uncached cell and signals once it runs.
    let (running_tx, running_rx) = std::sync::mpsc::channel();
    let first = {
        let config = config.clone();
        std::thread::spawn(move || {
            submit::request_streaming(
                &addr,
                &Request::Submit { config, deadline_ms: None },
                |note| {
                    if matches!(note, Notification::Running { .. }) {
                        let _ = running_tx.send(());
                    }
                },
            )
            .expect("first submit")
        })
    };
    running_rx.recv_timeout(Duration::from_secs(30)).expect("the first copy runs");

    // Client B submits the same cell while it runs: the job queues
    // behind the first and is answered from the cache once that lands.
    let mut campaign = Campaign::new("queued-hit");
    campaign.push("cell", config);
    let report = submit::run_campaign(
        &campaign,
        None,
        &SubmitOptions { daemons: vec![daemon.source()], ..SubmitOptions::default() },
    )
    .expect("second submit");
    match first.join().expect("client thread") {
        Reply::Result { cached, .. } => assert!(!cached, "the first copy executes"),
        other => panic!("expected a result, got {other:?}"),
    }
    assert_eq!((report.hits, report.executed), (1, 0), "{report:?}");
    assert!(report.hit_latencies_nanos.is_empty(), "queue wait is no warm hit: {report:?}");
    assert_eq!(report.queued_hit_latencies_nanos.len(), 1, "{report:?}");
    assert!(report.summary_line().contains("queued hits p50"), "{}", report.summary_line());

    daemon.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_pipelined_submit_is_not_admitted_while_its_sibling_runs() {
    let dir = scratch("pipeline");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1"],
    );
    daemon.wait_ready();
    let addr = daemon.source().resolve().unwrap();

    // Two submits written back to back on one connection: the daemon
    // reads the second only once the first is answered, so a connection
    // never holds more than one queued job.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    for seed in [20u64, 21] {
        let line = Request::Submit { config: slow_cell(seed), deadline_ms: None }
            .to_json()
            .to_string_compact()
            + "\n";
        stream.write_all(line.as_bytes()).expect("write submit");
    }
    stream.flush().expect("flush");

    let mut running = false;
    for _ in 0..400 {
        if submit::status(&daemon.source()).is_ok_and(|s| s.in_flight == 1) {
            running = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(running, "the first submit never started running");
    for _ in 0..8 {
        let status = submit::status(&daemon.source()).expect("status");
        assert_eq!(status.in_flight, 1, "{status:?}");
        assert_eq!(status.queued, 0, "the pipelined submit was admitted early: {status:?}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The running cell takes minutes by design; SIGKILL, as the
    // overflow test does.
    drop(stream);
    daemon.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_over_two_daemons_matches_the_engine_byte_for_byte() {
    let dir = scratch("adaptive");
    let mut campaign = AdaptiveCampaign::new("serve-adaptive");
    for mechanism in Mechanism::ALL {
        campaign.push(
            format!("hot/{mechanism}"),
            quick_cell(mechanism, 2),
            HeadlineMetric::CsAccessTime,
        );
    }
    let opts = |merged: PathBuf| AdaptiveOptions {
        ci_target: 0.5,
        min_seeds: 3,
        seed_budget: 5,
        merged_out: Some(merged),
        progress: false,
    };

    // Arm 1 — the in-process engine.
    let engine_merged = dir.join("engine.jsonl");
    let mut exec = ExecOptions::quiet();
    exec.workers = 4;
    exec.cache = Some(dir.join("cache-engine"));
    let engine_report =
        run_adaptive(&campaign, &opts(engine_merged.clone()), &EngineRunner { exec })
            .expect("engine-backed adaptive run");

    // Arm 2 — the same campaign sharded across two daemons with a
    // shared cache of their own.
    let cache = dir.join("cache-serve");
    let mut daemon_a =
        Daemon::spawn(&dir.join("addr-a"), &cache, &dir.join("journal-a.jsonl"), &[
            "--workers", "1",
        ]);
    let mut daemon_b =
        Daemon::spawn(&dir.join("addr-b"), &cache, &dir.join("journal-b.jsonl"), &[
            "--workers", "1",
        ]);
    daemon_a.wait_ready();
    daemon_b.wait_ready();
    let serve_merged = dir.join("serve.jsonl");
    let serve_report = run_adaptive(
        &campaign,
        &opts(serve_merged.clone()),
        &ServiceRunner {
            opts: SubmitOptions {
                daemons: vec![daemon_a.source(), daemon_b.source()],
                workers: 4,
                ..SubmitOptions::default()
            },
        },
    )
    .expect("daemon-backed adaptive run");

    assert_eq!(
        std::fs::read(&engine_merged).unwrap(),
        std::fs::read(&serve_merged).unwrap(),
        "engine and two-daemon adaptive artifacts must match byte for byte"
    );
    assert_eq!(engine_report.kept(), serve_report.kept());
    assert_eq!(engine_report.converged(), serve_report.converged());
    for (e, s) in engine_report.groups.iter().zip(&serve_report.groups) {
        assert_eq!(e.label, s.label);
        assert_eq!(e.n_seeds, s.n_seeds, "group {} stopping counts differ", e.label);
        assert_eq!(e.mean.to_bits(), s.mean.to_bits(), "group {} means differ", e.label);
    }

    daemon_a.drain_and_wait();
    daemon_b.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_an_idle_daemon() {
    let dir = scratch("sigterm");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1"],
    );
    daemon.wait_ready();

    // std has no signal API; `kill` is the portable way to send one.
    let sent = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success(), "kill -TERM failed: {sent}");

    let status = daemon.exit_within(Duration::from_secs(5));
    assert!(
        status.success(),
        "a SIGTERMed daemon must drain and exit 0, got {status}"
    );
    assert!(
        !daemon.addr_file.exists(),
        "a drained daemon removes its addr-file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_drain_wakes_a_daemon_bound_to_the_unspecified_address() {
    let dir = scratch("unspecified");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "1", "--addr", "0.0.0.0:0"],
    );
    daemon.wait_ready();

    // The later `--addr` wins. A drain wakes the blocked accept with a
    // connection to the bound address, which for 0.0.0.0 is not a
    // portable connect target, so it must go through loopback instead.
    submit::shutdown(&daemon.source()).expect("shutdown request");
    let status = daemon.exit_within(Duration::from_secs(5));
    assert!(
        status.success(),
        "a drained daemon must exit 0, got {status}"
    );
    assert!(
        !daemon.addr_file.exists(),
        "a drained daemon removes its addr-file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_submits_of_one_cell_run_it_once_on_two_workers() {
    let dir = scratch("single-flight");
    let mut daemon = Daemon::spawn(
        &dir.join("addr"),
        &dir.join("cache"),
        &dir.join("journal.jsonl"),
        &["--workers", "2"],
    );
    daemon.wait_ready();
    let campaign = tiny_campaign();

    // Two clients submit the same campaign at once, so the two workers
    // pop the two copies of a cell side by side: the second must wait
    // for the first's run and be answered from the cache.
    let clients: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|tag| {
            let (campaign, source) = (campaign.clone(), daemon.source());
            let merged = dir.join(format!("{tag}.jsonl"));
            std::thread::spawn(move || {
                submit::run_campaign(
                    &campaign,
                    None,
                    &SubmitOptions {
                        daemons: vec![source],
                        workers: 4,
                        merged_out: Some(merged.clone()),
                        ..SubmitOptions::default()
                    },
                )
                .expect("concurrent campaign");
                merged
            })
        })
        .collect();
    let merged: Vec<PathBuf> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();

    let status = submit::status(&daemon.source()).expect("status");
    let cells = campaign.cells.len() as u64;
    assert_eq!(status.misses, cells, "each distinct cell runs once: {status:?}");
    assert_eq!(status.hits + status.misses, 2 * cells, "{status:?}");
    assert_eq!((status.queued, status.in_flight), (0, 0), "{status:?}");
    assert_eq!(
        std::fs::read(&merged[0]).unwrap(),
        std::fs::read(&merged[1]).unwrap(),
        "both clients merge the same artifact"
    );

    daemon.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_corrupted_after_a_verified_hit_is_rerun_and_quarantined() {
    let dir = scratch("corrupt-after-hit");
    let cache = dir.join("cache");
    let mut daemon =
        Daemon::spawn(&dir.join("addr"), &cache, &dir.join("journal.jsonl"), &["--workers", "1"]);
    daemon.wait_ready();
    let addr = daemon.source().resolve().unwrap();
    let config = quick_cell(Mechanism::Inpg, 2);
    let submit = || {
        match submit::request(&addr, &Request::Submit { config: config.clone(), deadline_ms: None })
            .expect("submit")
        {
            Reply::Result { cached, record, .. } => (cached, record),
            other => panic!("expected a result, got {other:?}"),
        }
    };

    let (cached, fresh) = submit();
    assert!(!cached, "the first submit runs the cell");
    let (cached, hit) = submit();
    assert!(cached, "the second submit is a verified hit");
    assert_eq!(hit, fresh);

    // One changed payload digit: the entry still parses, and only the
    // record re-hash can tell. A hit path that trusted an entry it had
    // verified before would serve the forged record.
    let entry = cache.join(format!("{}.json", config.content_hash()));
    let text = std::fs::read_to_string(&entry).unwrap();
    let needle = format!("\"roi_cycles\":{}", fresh.roi_cycles);
    let forged = text.replace(&needle, &format!("\"roi_cycles\":{}", fresh.roi_cycles + 1));
    assert_ne!(text, forged, "the tamper target is in the entry");
    std::fs::write(&entry, forged).unwrap();

    let (cached, rerun) = submit();
    assert!(!cached, "a corrupt entry is never served");
    assert_eq!(rerun, fresh, "the re-run reproduces the honest record");
    let status = submit::status(&daemon.source()).expect("status");
    assert_eq!((status.hits, status.misses, status.quarantined), (1, 2, 1), "{status:?}");
    assert_eq!(quarantined_entries(&cache), 1, "the forged entry is kept for inspection");
    assert_eq!(std::fs::read_to_string(&entry).unwrap(), text, "the re-run restored the entry");

    daemon.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}
