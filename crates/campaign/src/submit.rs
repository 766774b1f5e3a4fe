//! `inpg submit` — the campaign-service client.
//!
//! Drives a whole campaign through one or more `inpg serve` daemons and
//! reassembles the merged artifact locally, byte-identical to what the
//! in-process engine would write: the daemons return canonical
//! [`CellRecord`]s, the client merges them in canonical (definition)
//! order through the exact helpers the engine uses
//! ([`exec::merged_entry_line`], [`exec::merged_footer`]), and no
//! wall-clock reading ever reaches the artifact.
//!
//! Fault handling mirrors the daemon's robustness contract:
//!
//! * a daemon that is unreachable or [`Reply::Draining`] → fail over to
//!   the next daemon (addresses are re-resolved from their addr-files
//!   on every attempt, so a *restarted* daemon on a fresh ephemeral
//!   port is picked up transparently);
//! * [`Reply::Overloaded`] → honor `retry_after_ms`, then retry;
//! * [`Reply::Timeout`] / [`Reply::Failed`] → a typed per-cell error —
//!   deadlines are a promise to the caller, not a retry hint.
//!
//! With several daemons sharing one cache directory, cells are sharded
//! across them by content hash, so the daemons fill disjoint slices of
//! the same cache and any of them can answer for any cell afterwards.

use crate::cell::{Campaign, CellRecord, CellSpec};
use crate::clock::HarnessClock;
use crate::engine;
use crate::exec::{self, Dedup};
use crate::pool;
use crate::protocol::{Notification, Reply, Request, ServerLine, ServiceStatus};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Where a daemon lives. A [`File`](AddrSource::File) source is re-read
/// on every attempt — that is the failover path for daemons restarted
/// on a fresh ephemeral port.
#[derive(Debug, Clone)]
pub enum AddrSource {
    /// A literal `host:port`.
    Direct(String),
    /// A file holding `host:port` (written by `inpg serve --addr-file`).
    File(PathBuf),
}

impl AddrSource {
    /// The current `host:port` for this daemon.
    pub fn resolve(&self) -> io::Result<String> {
        match self {
            AddrSource::Direct(addr) => Ok(addr.clone()),
            AddrSource::File(path) => {
                let text = std::fs::read_to_string(path)?;
                let addr = text.trim();
                if addr.is_empty() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("addr file {} is empty", path.display()),
                    ));
                }
                Ok(addr.to_string())
            }
        }
    }
}

/// How to drive the service.
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// The daemons to shard cells across (at least one).
    pub daemons: Vec<AddrSource>,
    /// Concurrent in-flight requests from this client.
    pub workers: usize,
    /// Per-request deadline forwarded to the daemon (`None` defers to
    /// the daemon's default).
    pub deadline_ms: Option<u64>,
    /// Attempts per cell before giving up (connect failures, draining
    /// daemons, and overload backoffs all consume attempts).
    pub max_attempts: u32,
    /// Merged-artifact path (canonical order, deterministic bytes).
    pub merged_out: Option<PathBuf>,
    /// Per-cell progress lines on stderr.
    pub progress: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            daemons: Vec::new(),
            workers: engine::default_workers(),
            deadline_ms: None,
            max_attempts: 40,
            merged_out: None,
            progress: false,
        }
    }
}

/// What one service-driven campaign produced.
#[derive(Debug)]
pub struct SubmitReport {
    pub name: String,
    /// Total cells (after filtering), canonical order.
    pub cells: usize,
    /// Requests answered from the daemons' verified cache.
    pub hits: usize,
    /// Requests that executed a simulator on a daemon.
    pub executed: usize,
    /// Daemons configured for the run.
    pub daemons: usize,
    /// Corrupt cache entries the daemons quarantined (summed from their
    /// status counters after the run; unreachable daemons contribute 0).
    pub quarantined: u64,
    /// Suite wall time, nanoseconds (harness boundary).
    pub wall_nanos: u64,
    /// Client-measured service latency of every request, nanoseconds.
    pub latencies_nanos: Vec<u64>,
    /// Latencies of cache hits answered at once (warm service time).
    pub hit_latencies_nanos: Vec<u64>,
    /// Latencies of cache hits answered only after the job waited in a
    /// daemon's queue (the cell reached the cache meanwhile): they
    /// include the queue wait, so they are kept apart from warm hits.
    pub queued_hit_latencies_nanos: Vec<u64>,
}

impl SubmitReport {
    /// The `q`-quantile (0..=1) of warm-hit service latency, in
    /// milliseconds. `None` until at least one request was a hit.
    pub fn hit_latency_ms(&self, q: f64) -> Option<f64> {
        percentile_nanos(&self.hit_latencies_nanos, q).map(|n| n as f64 / 1e6)
    }

    /// One stable summary line.
    pub fn summary_line(&self) -> String {
        let quantiles = |label: &str, sample: &[u64]| {
            let ms = |q| percentile_nanos(sample, q).map(|n| n as f64 / 1e6);
            match (ms(0.5), ms(0.99)) {
                (Some(p50), Some(p99)) => format!(", {label} p50 {p50:.3}ms p99 {p99:.3}ms"),
                _ => String::new(),
            }
        };
        let warm = quantiles("warm", &self.hit_latencies_nanos);
        let queued = quantiles("queued hits", &self.queued_hit_latencies_nanos);
        format!(
            "submit {}: {} cells ({} executed, {} hits) via {} daemon(s) in {:.2}s{warm}{queued}",
            self.name,
            self.cells,
            self.executed,
            self.hits,
            self.daemons,
            self.wall_nanos as f64 / 1e9,
        )
    }
}

/// The `q`-quantile of a latency sample (nearest-rank on the sorted
/// sample). `None` on an empty sample.
pub fn percentile_nanos(sample: &[u64], q: f64) -> Option<u64> {
    if sample.is_empty() {
        return None;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[rank])
}

/// Why a service-driven campaign failed.
#[derive(Debug)]
pub enum SubmitError {
    /// Artifact I/O failed.
    Io(io::Error),
    /// A cell could not be completed (reported in canonical order).
    Cell { label: String, detail: String },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Io(e) => write!(f, "submit i/o: {e}"),
            SubmitError::Cell { label, detail } => write!(f, "cell `{label}`: {detail}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<io::Error> for SubmitError {
    fn from(e: io::Error) -> Self {
        SubmitError::Io(e)
    }
}

/// One request over a fresh connection, streaming any progress notes
/// the daemon pushes to `on_note` and returning the terminal reply.
pub fn request_streaming(
    addr: &str,
    req: &Request,
    mut on_note: impl FnMut(&Notification),
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    let line = req.to_json().to_string_compact() + "\n";
    stream.write_all(line.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection without replying",
            ));
        }
        match ServerLine::from_line(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            ServerLine::Note(note) => on_note(&note),
            ServerLine::Reply(reply) => return Ok(reply),
        }
    }
}

/// One request/one terminal reply over a fresh connection; progress
/// notes, if any, are discarded.
pub fn request(addr: &str, req: &Request) -> io::Result<Reply> {
    request_streaming(addr, req, |_| {})
}

/// Asks the daemon at `source` for its status.
pub fn status(source: &AddrSource) -> io::Result<ServiceStatus> {
    match request(&source.resolve()?, &Request::Status)? {
        Reply::Status(status) => Ok(status),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a status reply, got {other:?}"),
        )),
    }
}

/// Asks the daemon at `source` to drain. Returns how many queued cells
/// it journaled.
pub fn shutdown(source: &AddrSource) -> io::Result<u64> {
    match request(&source.resolve()?, &Request::Shutdown)? {
        Reply::ShuttingDown { journaled } => Ok(journaled),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a shutting-down reply, got {other:?}"),
        )),
    }
}

/// Renders one daemon progress note on stderr, labelled with the cell
/// it is about.
fn render_note(label: &str, note: &Notification) {
    match note {
        Notification::Queued { ahead, .. } => {
            eprintln!("      {label} queued ({ahead} ahead)");
        }
        Notification::Running { .. } => eprintln!("      {label} running"),
        Notification::Done { wall_nanos, .. } => {
            eprintln!("      {label} done in {:.3}ms", *wall_nanos as f64 / 1e6);
        }
    }
}

/// Submits one cell, with failover, overload backoff, and typed errors.
fn submit_cell(
    opts: &SubmitOptions,
    spec: &CellSpec,
    shard: usize,
) -> Result<CellResolution, String> {
    let mut failovers = 0usize;
    for attempt in 0..opts.max_attempts.max(1) {
        let source = &opts.daemons[(shard + failovers) % opts.daemons.len()];
        let clock = HarnessClock::start();
        let mut queued = false;
        let outcome = source.resolve().and_then(|addr| {
            request_streaming(
                &addr,
                &Request::Submit {
                    config: spec.config.clone(),
                    deadline_ms: opts.deadline_ms,
                },
                |note| {
                    queued |= matches!(note, Notification::Queued { .. });
                    if opts.progress {
                        render_note(&spec.label, note);
                    }
                },
            )
        });
        match outcome {
            Ok(Reply::Result { record, cached, .. }) => {
                return Ok(CellResolution {
                    record: *record,
                    cached,
                    queued,
                    latency_nanos: Some(clock.elapsed_nanos()),
                })
            }
            Ok(Reply::Timeout { detail }) => return Err(format!("timeout: {detail}")),
            Ok(Reply::Failed { detail }) => return Err(format!("failed: {detail}")),
            Ok(Reply::Invalid { detail }) => return Err(format!("rejected: {detail}")),
            Ok(Reply::Overloaded { retry_after_ms }) => {
                // The daemon shed us honestly; honor its backoff.
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 2_000)));
            }
            Ok(Reply::Draining) | Err(_) => {
                // Gone, restarting, or refusing new work: try the next
                // daemon, with a small growing pause so a lone daemon
                // mid-restart gets a window to come back.
                failovers += 1;
                std::thread::sleep(Duration::from_millis(
                    (10 * (u64::from(attempt) + 1)).min(250),
                ));
            }
            Ok(other) => return Err(format!("unexpected reply {other:?}")),
        }
    }
    Err(format!(
        "gave up after {} attempts across {} daemon(s)",
        opts.max_attempts.max(1),
        opts.daemons.len()
    ))
}

/// One cell resolved through the daemons.
#[derive(Debug, Clone)]
pub struct CellResolution {
    pub record: CellRecord,
    /// Whether this run served the cell without executing a simulator:
    /// the answering request was a cache hit, or the cell was a dedup
    /// sibling of an identical one.
    pub cached: bool,
    /// Whether the daemon queued the request before answering it (a
    /// `queued` note arrived ahead of the reply).
    pub queued: bool,
    /// Client-measured round-trip latency; `None` for dedup siblings
    /// (served by the owner's round trip, no wire traffic of their own).
    pub latency_nanos: Option<u64>,
}

/// Resolves `cells` through the configured daemons, returning one
/// resolution per cell in input order — the service-backed counterpart
/// of [`engine::execute`]'s outcome list, shared by `run_campaign` and
/// the adaptive controller's `ServiceRunner`.
///
/// # Errors
///
/// Fails when no daemon is configured and on the first cell (input
/// order) that could not be completed.
pub fn run_cells(
    cells: &[CellSpec],
    opts: &SubmitOptions,
) -> Result<Vec<CellResolution>, SubmitError> {
    if opts.daemons.is_empty() {
        return Err(SubmitError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no daemons configured (pass --daemon or --addr-file)",
        )));
    }

    // Identical configs round-trip once and share the reply (the
    // daemon's cache would dedupe them anyway, but not the wire round
    // trips).
    let plan = Dedup::plan(cells.iter().map(|cell| &cell.config).enumerate());

    let done = AtomicUsize::new(0); // sync: monotone progress count, see fetch_add below
    let replies: Vec<Result<CellResolution, String>> =
        pool::run_indexed(plan.owners.len(), opts.workers, |slot| {
            let spec = &cells[plan.owners[slot]];
            // Shard by content hash so co-operating daemons fill
            // disjoint slices of the shared cache.
            let shard = u64::from_str_radix(&spec.config.content_hash(), 16)
                .unwrap_or(0) as usize;
            let reply = submit_cell(opts, spec, shard);
            if opts.progress {
                // sync: SeqCst — progress numbering must be the claim
                // order across workers; per-cell frequency, cost moot.
                let n = done.fetch_add(1, Ordering::SeqCst) + 1;
                match &reply {
                    Ok(r) => eprintln!(
                        "[{n}/{}] {} {} {:.3}ms",
                        plan.owners.len(),
                        spec.label,
                        if r.cached { "hit" } else { "ran" },
                        r.latency_nanos.unwrap_or(0) as f64 / 1e6,
                    ),
                    Err(e) => {
                        eprintln!("[{n}/{}] {} ERROR {e}", plan.owners.len(), spec.label)
                    }
                }
            }
            reply
        });

    // Reassemble in input order; fail on the first error in that order.
    let mut resolutions = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let reply = match &replies[plan.slot(i)] {
            Ok(reply) => reply,
            Err(detail) => {
                return Err(SubmitError::Cell {
                    label: cell.label.clone(),
                    detail: detail.clone(),
                })
            }
        };
        resolutions.push(if plan.is_owner(i) {
            reply.clone()
        } else {
            // A dedup sibling is served by the owner's round trip.
            CellResolution {
                record: reply.record.clone(),
                cached: true,
                queued: false,
                latency_nanos: None,
            }
        });
    }
    Ok(resolutions)
}

/// Drives `campaign` through the configured daemons and reassembles the
/// merged artifact in canonical order.
///
/// # Errors
///
/// Fails when no daemon is configured, on the first cell (canonical
/// order) that could not be completed, and on artifact I/O failures.
pub fn run_campaign(
    campaign: &Campaign,
    filter: Option<&str>,
    opts: &SubmitOptions,
) -> Result<SubmitReport, SubmitError> {
    let clock = HarnessClock::start();
    let cells: Vec<CellSpec> = campaign.matching(filter).into_iter().cloned().collect();
    let resolutions = run_cells(&cells, opts)?;

    let mut lines = Vec::with_capacity(cells.len());
    let mut hits = 0usize;
    let mut executed = 0usize;
    let mut latencies = Vec::new();
    let mut hit_latencies = Vec::new();
    let mut queued_hit_latencies = Vec::new();
    for (cell, resolution) in cells.iter().zip(&resolutions) {
        match resolution.latency_nanos {
            Some(latency) => {
                latencies.push(latency);
                if !resolution.cached {
                    executed += 1;
                } else if resolution.queued {
                    hits += 1;
                    queued_hit_latencies.push(latency);
                } else {
                    hits += 1;
                    hit_latencies.push(latency);
                }
            }
            // A dedup sibling: served by the owner's round trip.
            None => hits += 1,
        }
        lines.push(exec::merged_entry_line(
            &cell.label,
            &cell.config.content_hash(),
            &cell.config,
            &resolution.record,
        ));
    }

    // The daemons' corruption tally, for the artifact footer. A daemon
    // that drained away since its last answer simply contributes 0.
    let quarantined: u64 = opts
        .daemons
        .iter()
        .filter_map(|source| status(source).ok())
        .map(|s| s.quarantined)
        .sum();

    let report = SubmitReport {
        name: campaign.name.clone(),
        cells: cells.len(),
        hits,
        executed,
        daemons: opts.daemons.len(),
        quarantined,
        wall_nanos: clock.elapsed_nanos(),
        latencies_nanos: latencies,
        hit_latencies_nanos: hit_latencies,
        queued_hit_latencies_nanos: queued_hit_latencies,
    };

    if let Some(path) = &opts.merged_out {
        exec::write_artifact(
            path,
            lines,
            exec::merged_footer(&report.name, report.cells, report.quarantined as usize),
        )?;
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile_nanos(&[], 0.5), None);
        assert_eq!(percentile_nanos(&[7], 0.99), Some(7));
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nanos(&sample, 0.0), Some(1));
        assert_eq!(percentile_nanos(&sample, 0.5), Some(51), "round(99*0.5)=50 → 51");
        assert_eq!(percentile_nanos(&sample, 0.99), Some(99));
        assert_eq!(percentile_nanos(&sample, 1.0), Some(100));
    }

    #[test]
    fn queued_hits_are_summarized_apart_from_warm_hits() {
        let report = SubmitReport {
            name: "t".into(),
            cells: 3,
            hits: 2,
            executed: 1,
            daemons: 1,
            quarantined: 0,
            wall_nanos: 1_000_000_000,
            latencies_nanos: vec![500_000, 40_000_000, 60_000_000],
            hit_latencies_nanos: vec![500_000],
            queued_hit_latencies_nanos: vec![40_000_000],
        };
        assert_eq!(
            report.summary_line(),
            "submit t: 3 cells (1 executed, 2 hits) via 1 daemon(s) in 1.00s, \
             warm p50 0.500ms p99 0.500ms, queued hits p50 40.000ms p99 40.000ms"
        );
        assert_eq!(report.hit_latency_ms(0.5), Some(0.5), "queue wait stays out");
    }

    #[test]
    fn addr_files_resolve_and_report_emptiness() {
        let path = std::env::temp_dir().join(format!(
            "inpg-submit-test-addr-{}.txt",
            std::process::id()
        ));
        std::fs::write(&path, "127.0.0.1:4455\n").expect("write addr");
        let source = AddrSource::File(path.clone());
        assert_eq!(source.resolve().expect("resolves"), "127.0.0.1:4455");
        std::fs::write(&path, "\n").expect("truncate");
        assert!(source.resolve().is_err(), "empty addr file must error");
        let _ = std::fs::remove_file(&path);
        assert!(source.resolve().is_err(), "missing addr file must error");
        assert_eq!(
            AddrSource::Direct("h:1".into()).resolve().expect("direct"),
            "h:1"
        );
    }

    #[test]
    fn a_submit_without_daemons_is_refused() {
        let campaign = Campaign::new("t");
        let err = run_campaign(&campaign, None, &SubmitOptions::default())
            .expect_err("no daemons must fail");
        assert!(err.to_string().contains("no daemons"), "{err}");
    }
}
