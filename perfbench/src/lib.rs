//! The repository's benchmark: two workloads that exercise the
//! simulator loop, the campaign engine and the campaign service, each
//! reached only through its public functions and timed from outside.
//!
//! * `campaign_cold` — the Group-1 and Group-2 programs × four
//!   mechanisms as one cold `engine::execute` campaign over an empty
//!   cache: the cycle loop takes most of the host time, and per-cell
//!   set-up, JSON, fsync'd stores and scheduling the rest.
//! * `serve_warm` — a campaign-service daemon (as `inpg serve` runs it)
//!   over campaign_cold's cache, fetched by one closed-loop client: no
//!   simulation runs.
//!
//! An untraced run reports [`END_TO_END`]; a traced run builds every
//! cell's `System` itself, ticks it under a timer, and reports
//! [`PER_LAYER`]. `perfbench/README.md` says which layer metric should
//! move which end-to-end metric.

pub mod host;
pub mod plan;
pub mod serve;
pub mod sim;

use inpg_campaign::json::{self, Json};
use inpg_campaign::{CellRecord, CellSpec, ResultCache, ServiceStatus};
use serve::{Daemon, HitLoop};
use sim::{CellTrace, Pass};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("hits_per_s", "1/s"),
    ("cs_access_speedup", "x"),
    ("roi_speedup", "x"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.generate_s", "s"),
    ("manycore.new_s", "s"),
    ("manycore.tick_ns.original", "ns"),
    ("manycore.tick_ns.inpg", "ns"),
    ("manycore.ns_per_flit_hop", "ns"),
    ("manycore.quiet_cycle_frac", "ratio"),
    ("manycore.sleeping_frac", "ratio"),
    ("noc.flit_hops", "count"),
    ("noc.delivered", "count"),
    ("noc.generated_packets", "count"),
    ("noc.mean_latency_cycles", "cycles"),
    ("noc.barrier.requests_stopped", "count"),
    ("noc.barrier.passes_table_full", "count"),
    ("noc.stop_ratio", "ratio"),
    ("coherence.home.requests", "count"),
    ("coherence.home.queue_wait_cycles", "cycles"),
    ("coherence.home.max_queue_len", "count"),
    ("coherence.home.invs_saved_ratio", "ratio"),
    ("coherence.l1.misses", "count"),
    ("coherence.l1.demote_retries", "count"),
    ("coherence.l1.forwards_bounced", "count"),
    ("coherence.invack_mean_cycles", "cycles"),
    ("locks.cs_count", "count"),
    ("locks.lco_cycles", "cycles"),
    ("locks.sleep_cycles", "cycles"),
    ("campaign.pool.busy_frac", "ratio"),
    ("campaign.cell_wall_ms.p50", "ms"),
    ("campaign.cell_wall_ms.max", "ms"),
    ("campaign.cache.store_ms", "ms"),
    ("campaign.cache.load_us", "us"),
    ("campaign.json.encode_us", "us"),
    ("campaign.json.decode_us", "us"),
    ("serve.residual_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Host seconds of set-up repetitions before each pass (at least
/// [`SETUP_REPS`] of them); `setup_s` is their median.
const SETUP_SECONDS: f64 = 0.15;
const SETUP_REPS: usize = 5;
/// Daemon starts per serve_warm run; `setup_s` is their median.
const DAEMON_STARTS: usize = 15;
/// Length of the traced runs' hit loops through a daemon.
const PROBE_HIT_SECONDS: f64 = 1.0;
/// Repetitions of each timed cache load and JSON encode/decode.
const CODEC_REPS: usize = 40;
/// Enough requests for one tail window (see [`host::tail`]).
const MIN_HITS: u64 = host::TAIL_WINDOW as u64;
/// Host seconds of campaign_cold's warm hits after each pass.
const HIT_SEGMENT_SECONDS: f64 = 2.5;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignCold,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::CampaignCold, Workload::ServeWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignCold => "campaign_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's cells for `seed`; serve_warm serves
    /// campaign_cold's cells.
    pub fn cells(self, seed: u64) -> Vec<CellSpec> {
        plan::campaign_cold(seed, plan::CAMPAIGN_SCALE)
    }
}

/// A deliberate error the tests inject to prove the correctness gate
/// trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The first cell's record reports one critical section too many.
    CsCountOffByOne,
    /// serve_warm's cache entry for the first cell is corrupted before
    /// the daemon starts.
    CorruptCacheEntry,
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub cells: Vec<CellSpec>,
    /// Host seconds the measured loop runs for (at least one pass).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead.
    pub trace: bool,
    /// Scratch directory for caches and daemon files; created if absent.
    pub work_dir: PathBuf,
    /// The executable whose `serve` mode is the daemon serve_warm and
    /// the traced runs start (the harness itself).
    pub server: PathBuf,
    /// Campaign workers (the host's available parallelism by default).
    pub workers: usize,
    pub fault: Option<Fault>,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: cells run and requests made.
    pub attempted: u64,
    /// Why operations failed the correctness gate.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable detail printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation, failed unless `ok`.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        let (_, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.metrics.push((name, value, unit));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// Correct when no operation failed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    Json::num(*value)
                } else {
                    Json::UInt(0)
                };
                let entry = Json::obj(vec![("value", value), ("unit", Json::Str((*unit).into()))]);
                ((*name).to_string(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failures.len() as u64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// I/O failures of the harness itself: the work directory, or a daemon
/// that cannot be started or stopped.
pub fn run(p: &Params) -> io::Result<Report> {
    std::fs::create_dir_all(&p.work_dir)?;
    let mut report = Report::default();
    match p.workload {
        Workload::CampaignCold => campaign_cold(p, &mut report)?,
        Workload::ServeWarm => serve_warm(p, &mut report)?,
    }
    // A run cut short by an errored cell still names every metric; the
    // missing ones read as not-a-number, which makes the run incorrect.
    let declared: &[(&'static str, &'static str)] = if p.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in declared {
        if report.value(name).is_none() {
            report.metric(name, f64::NAN);
        }
    }
    Ok(report)
}

/// campaign_cold.
fn campaign_cold(p: &Params, r: &mut Report) -> io::Result<()> {
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut passes = Vec::new();
    let mut hits = HitLoop::default();
    let mut daemon = None;
    // Set-up repetitions and warm-hit segments go between the passes,
    // so all three sample the whole run.
    loop {
        setup.extend(sim::setup_times(&p.cells, SETUP_REPS, SETUP_SECONDS));
        // A fresh cache per pass, removed after the loop: unlinking the
        // last one's entries here would put file-system work into the
        // hit segment that follows.
        let cache_dir = p.work_dir.join(format!("pass-{}", passes.len()));
        passes.push(sim::engine_pass(&p.cells, p.workers, &cache_dir));
        if p.trace {
            break;
        }
        if daemon.is_none() {
            // Warm hits on the first pass's records, through a daemon,
            // as a later `inpg submit` of the same cells would get
            // them. Storing them and starting the daemon is not timed.
            let Some(records) = passes[0].records() else {
                break;
            };
            let hits_dir = p.work_dir.join("hits-cache");
            let cache = ResultCache::new(&hits_dir);
            for (cell, record) in p.cells.iter().zip(&records) {
                cache.store(&cell.config, record)?;
            }
            let addr_file = p.work_dir.join("addr-hits");
            daemon = Some((Daemon::start(&p.server, &hits_dir, &addr_file)?.0, records));
        }
        let Some((d, records)) = &daemon else {
            break;
        };
        let fetch = serve::submit_fetch(&d.addr, &p.cells);
        // Stop at the pass count that lands closest to `--seconds`; the
        // last segment makes up the hits still missing.
        let elapsed = start.elapsed().as_secs_f64();
        let last = elapsed * (1.0 + 0.5 / passes.len() as f64) >= p.seconds;
        let min_hits = if last {
            MIN_HITS.saturating_sub(hits.requests)
        } else {
            0
        };
        hits.extend(serve::hit_loop(
            records,
            HIT_SEGMENT_SECONDS,
            min_hits,
            fetch,
        ));
        if last {
            break;
        }
    }
    if let Some((d, _)) = daemon {
        d.stop()?;
    }
    for k in 0..passes.len() {
        remove_dir(&p.work_dir.join(format!("pass-{k}")))?;
    }
    if p.trace {
        // The same campaign on one worker: the other half of the
        // busy_frac anomaly.
        passes.push(sim::engine_pass(
            &p.cells,
            1,
            &p.work_dir.join("one-worker"),
        ));
    }
    if p.fault == Some(Fault::CsCountOffByOne) {
        if let Some((record, _)) = passes[0].results[0].as_mut() {
            record.cs_count += 1;
        }
    }
    let Some(records) = gate_passes(p, &passes, r) else {
        return Ok(());
    };

    if p.trace {
        let probe = probe_cache(p, &records, r)?;
        let (hits, status) = daemon_hits(p, &probe.dir, &records, PROBE_HIT_SECONDS, 0)?;
        let untraced = Untraced {
            setup: &setup,
            pass: &passes[0],
            one_worker: passes.get(1),
            records: &records,
        };
        traced_metrics(p, r, &untraced, &probe, &hits, status);
        return Ok(());
    }

    // The fastest pass: every pass does the same work, so the slower
    // ones measure the shared host, not the program.
    let rate = |p: &Pass| p.sim_cycles() as f64 / p.cpu_seconds;
    r.metric(
        "sim_cycles_per_s",
        passes.iter().map(rate).fold(0.0, f64::max),
    );
    let walls: Vec<f64> = passes.iter().map(|p| secs(p.makespan_nanos)).collect();
    r.metric(
        "wall_s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    for pass in &passes {
        r.notes.push(format!(
            "pass: wall {:.3} s, cells {:.3} s, on-CPU {:.3} s",
            secs(pass.makespan_nanos),
            secs(pass.busy_nanos()),
            pass.cpu_seconds
        ));
    }
    let setups: Vec<f64> = setup.iter().map(|(g, n)| g + n).collect();
    r.metric("setup_s", host::median(&setups));
    r.metric("peak_rss_mb", host::peak_rss_mib(None).unwrap_or(f64::NAN));
    hit_metrics(
        r,
        &hits,
        "submit::request to a daemon over this run's records",
    );
    speedup_metrics(p, r, &records);
    Ok(())
}

/// Starts a daemon over `cache_dir`, fetches `records` through it with
/// [`serve::hit_loop`], reads its status and stops it.
fn daemon_hits(
    p: &Params,
    cache_dir: &Path,
    records: &[CellRecord],
    seconds: f64,
    min_requests: u64,
) -> io::Result<(HitLoop, ServiceStatus)> {
    let (daemon, _) = Daemon::start(&p.server, cache_dir, &p.work_dir.join("addr-hits"))?;
    let fetch = serve::submit_fetch(&daemon.addr, &p.cells);
    let hits = serve::hit_loop(records, seconds, min_requests, fetch);
    let status = daemon.status()?;
    daemon.stop()?;
    Ok((hits, status))
}

/// serve_warm.
fn serve_warm(p: &Params, r: &mut Report) -> io::Result<()> {
    let cache_dir = p.work_dir.join("cache");
    let setup = if p.trace {
        sim::setup_times(&p.cells, SETUP_REPS, SETUP_SECONDS)
    } else {
        Vec::new()
    };
    let prefill = sim::engine_pass(&p.cells, p.workers, &cache_dir);
    let Some(records) = gate_passes(p, std::slice::from_ref(&prefill), r) else {
        return Ok(());
    };
    if p.fault == Some(Fault::CorruptCacheEntry) {
        let path = ResultCache::new(&cache_dir).entry_path(&p.cells[0].config);
        let text = std::fs::read_to_string(&path)?;
        std::fs::write(
            &path,
            text.replacen("\"roi_cycles\":", "\"roi_cycles\":1", 1),
        )?;
    }

    let mut starts = Vec::new();
    let mut daemon = None;
    for k in 0..DAEMON_STARTS {
        let (d, ready_s) =
            Daemon::start(&p.server, &cache_dir, &p.work_dir.join(format!("addr-{k}")))?;
        starts.push(ready_s);
        if let Some(previous) = daemon.replace(d) {
            Daemon::stop(previous)?;
        }
    }
    let daemon = daemon.expect("DAEMON_STARTS is nonzero");
    let (seconds, min_hits) = if p.trace {
        (PROBE_HIT_SECONDS, 0)
    } else {
        (p.seconds, MIN_HITS)
    };
    let hits = serve::hit_loop(
        &records,
        seconds,
        min_hits,
        serve::submit_fetch(&daemon.addr, &p.cells),
    );
    let status = daemon.status()?;
    let rss = host::peak_rss_mib(Some(daemon.pid()));
    daemon.stop()?;

    if p.trace {
        let probe = probe_cache(p, &records, r)?;
        let untraced = Untraced {
            setup: &setup,
            pass: &prefill,
            one_worker: None,
            records: &records,
        };
        traced_metrics(p, r, &untraced, &probe, &hits, status);
        return Ok(());
    }
    r.metric(
        "sim_cycles_per_s",
        hits.delivered_cycles as f64 / hits.elapsed_s,
    );
    r.metric(
        "wall_s",
        hits.pass_s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    r.metric("setup_s", host::median(&starts));
    r.metric("peak_rss_mb", rss.unwrap_or(f64::NAN));
    hit_metrics(r, &hits, "submit::request to the daemon");
    speedup_metrics(p, r, &records);
    r.notes.push(format!(
        "daemon: {} hits, {} misses, {} quarantined",
        status.hits, status.misses, status.quarantined
    ));
    Ok(())
}

/// Gates every cell of every untraced pass: it must complete, run
/// exactly the generated programs' critical sections, and repeat the
/// first pass's record. Returns the first pass's records in plan
/// order, or `None` when a cell of it errored.
fn gate_passes(p: &Params, passes: &[Pass], r: &mut Report) -> Option<Vec<CellRecord>> {
    let expected: Vec<u64> = p
        .cells
        .iter()
        .map(|c| plan::expected_cs(&c.config))
        .collect();
    for pass in passes {
        r.notes
            .extend(pass.errors.iter().map(|e| format!("error: {e}")));
        for (i, cell) in p.cells.iter().enumerate() {
            let first = passes[0].results[i].as_ref().map(|(rec, _)| rec);
            let verdict = match &pass.results[i] {
                None => Err("errored".to_string()),
                Some((rec, _)) if !rec.completed => Err("stopped incomplete".into()),
                Some((rec, _)) if rec.cs_count != expected[i] => Err(format!(
                    "cs_count {} != generated {}",
                    rec.cs_count, expected[i]
                )),
                Some((rec, _)) if Some(rec) != first => Err("differs from the first pass".into()),
                Some(_) => Ok(()),
            };
            r.check(verdict.is_ok(), || {
                format!("{}: {}", cell.label, verdict.unwrap_err())
            });
        }
    }
    passes[0].records()
}

fn hit_metrics(r: &mut Report, hits: &HitLoop, path: &str) {
    count_hits(r, hits);
    let (p99, pct, windows) = host::tail(&hits.latencies_ms);
    let windows: Vec<String> = windows.iter().map(|ms| format!("{ms:.3}")).collect();
    r.metric("hit_p50_ms", host::median(&hits.latencies_ms));
    r.metric("hit_p99_ms", p99);
    r.metric(
        "hits_per_s",
        hits.latencies_ms.len() as f64 / hits.elapsed_s,
    );
    r.notes.push(format!(
        "hits via {path}: {} samples over {} passes; tail is p{pct:.1}, lowest of the p99s of {} windows of >= {} ({} ms)",
        hits.latencies_ms.len(),
        hits.pass_s.len(),
        windows.len(),
        host::TAIL_WINDOW,
        windows.join(", "),
    ));
}

fn speedup_metrics(p: &Params, r: &mut Report, records: &[CellRecord]) {
    let pairs = p.cells.iter().map(|c| &c.config).zip(records);
    let (cs, roi) = plan::speedups(pairs).unwrap_or((f64::NAN, f64::NAN));
    r.metric("cs_access_speedup", cs);
    r.metric("roi_speedup", roi);
}

/// Runs every cell through [`sim::trace_cell`] and gates it against
/// the untraced record of the same cell.
fn traced_pass(p: &Params, records: &[CellRecord], r: &mut Report) -> Vec<CellTrace> {
    let traces: Vec<CellTrace> = p.cells.iter().map(sim::trace_cell).collect();
    for ((cell, t), rec) in p.cells.iter().zip(&traces).zip(records) {
        // The traced pass builds its own System, so it must reproduce
        // the untraced run exactly.
        let ok = t.error.is_none()
            && t.completed
            && t.roi_cycles == rec.roi_cycles
            && t.cs_count == rec.cs_count;
        r.check(ok, || {
            format!(
                "{}: traced run gave roi {} cs {} ({:?}), untraced roi {} cs {}",
                cell.label, t.roi_cycles, t.cs_count, t.error, rec.roi_cycles, rec.cs_count
            )
        });
    }
    traces
}

/// Host timings of the campaign layer's cache and codec calls.
struct CacheProbe {
    /// The cache the records were stored in.
    dir: PathBuf,
    store_ms: Vec<f64>,
    load_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

/// Stores every record into a fresh cache, then times loads, encodes
/// and decodes, checking each round trip gives the record back.
fn probe_cache(p: &Params, records: &[CellRecord], r: &mut Report) -> io::Result<CacheProbe> {
    let dir = p.work_dir.join("probe-cache");
    let cache = ResultCache::new(&dir);
    let mut probe = CacheProbe {
        dir,
        store_ms: Vec::new(),
        load_us: Vec::new(),
        encode_us: Vec::new(),
        decode_us: Vec::new(),
    };
    for (cell, record) in p.cells.iter().zip(records) {
        let t0 = Instant::now();
        cache.store(&cell.config, record)?;
        probe.store_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    for _ in 0..CODEC_REPS {
        for (cell, record) in p.cells.iter().zip(records) {
            let t0 = Instant::now();
            let loaded = cache.load(&cell.config);
            let t1 = Instant::now();
            let text = record.to_json().to_string_compact();
            let t2 = Instant::now();
            let decoded = json::parse(&text)
                .ok()
                .and_then(|v| CellRecord::from_json(&v).ok());
            let t3 = Instant::now();
            probe.load_us.push((t1 - t0).as_secs_f64() * 1e6);
            probe.encode_us.push((t2 - t1).as_secs_f64() * 1e6);
            probe.decode_us.push((t3 - t2).as_secs_f64() * 1e6);
            let ok = loaded.as_ref().ok() == Some(record) && decoded.as_ref() == Some(record);
            if !ok {
                r.failures.push(format!(
                    "{}: cache or JSON round trip changed the record",
                    cell.label
                ));
            }
        }
    }
    Ok(probe)
}

/// The untraced half of a traced run.
struct Untraced<'a> {
    /// Set-up repetitions `(generate, System::new)`.
    setup: &'a [(f64, f64)],
    /// The workload's pass at its own worker count.
    pass: &'a Pass,
    /// campaign_cold's cells on one worker, for the busy_frac anomaly.
    one_worker: Option<&'a Pass>,
    records: &'a [CellRecord],
}

/// Runs the traced pass and reports every per-layer metric.
fn traced_metrics(
    p: &Params,
    r: &mut Report,
    u: &Untraced,
    probe: &CacheProbe,
    hits: &HitLoop,
    status: ServiceStatus,
) {
    let traces = traced_pass(p, u.records, r);
    let traces = traces.as_slice();
    let (setup, pass) = (u.setup, u.pass);
    let sum = |f: fn(&CellTrace) -> u64| traces.iter().map(f).sum::<u64>();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let tick_ns = |m: inpg::Mechanism| {
        let of = traces.iter().filter(|t| t.mechanism == Some(m));
        let (nanos, ticks) = of.fold((0, 0), |(n, k), t| (n + t.tick_nanos, k + t.ticks));
        ratio(nanos, ticks)
    };

    let gens: Vec<f64> = setup.iter().map(|(g, _)| *g).collect();
    let news: Vec<f64> = setup.iter().map(|(_, n)| *n).collect();
    r.metric("workloads.generate_s", host::median(&gens));
    r.metric("manycore.new_s", host::median(&news));
    r.metric(
        "manycore.tick_ns.original",
        tick_ns(inpg::Mechanism::Original),
    );
    r.metric("manycore.tick_ns.inpg", tick_ns(inpg::Mechanism::Inpg));
    r.metric(
        "manycore.ns_per_flit_hop",
        ratio(sum(|t| t.tick_nanos), sum(|t| t.flit_hops)),
    );
    r.metric(
        "manycore.quiet_cycle_frac",
        ratio(sum(|t| t.quiet_cycles), sum(|t| t.ticks)),
    );
    r.metric(
        "manycore.sleeping_frac",
        ratio(
            sum(|t| t.sleeping_thread_cycles),
            traces.iter().map(|t| t.ticks * t.cores).sum(),
        ),
    );
    r.metric("noc.flit_hops", sum(|t| t.flit_hops) as f64);
    r.metric("noc.delivered", sum(|t| t.delivered) as f64);
    r.metric("noc.generated_packets", sum(|t| t.generated_packets) as f64);
    r.metric(
        "noc.mean_latency_cycles",
        ratio(sum(|t| t.total_latency), sum(|t| t.delivered)),
    );
    r.metric(
        "noc.barrier.requests_stopped",
        sum(|t| t.requests_stopped) as f64,
    );
    r.metric(
        "noc.barrier.passes_table_full",
        sum(|t| t.passes_table_full) as f64,
    );
    r.metric(
        "noc.stop_ratio",
        ratio(sum(|t| t.requests_stopped), sum(|t| t.home_getx)),
    );
    r.metric("coherence.home.requests", sum(|t| t.home_requests) as f64);
    r.metric(
        "coherence.home.queue_wait_cycles",
        sum(|t| t.home_queue_wait_cycles) as f64,
    );
    r.metric(
        "coherence.home.max_queue_len",
        traces
            .iter()
            .map(|t| t.home_max_queue_len)
            .max()
            .unwrap_or(0) as f64,
    );
    r.metric(
        "coherence.home.invs_saved_ratio",
        ratio(
            sum(|t| t.home_invs_saved),
            sum(|t| t.home_invs_sent + t.home_invs_saved),
        ),
    );
    r.metric("coherence.l1.misses", sum(|t| t.l1_misses) as f64);
    r.metric(
        "coherence.l1.demote_retries",
        sum(|t| t.l1_demote_retries) as f64,
    );
    r.metric(
        "coherence.l1.forwards_bounced",
        sum(|t| t.l1_forwards_bounced) as f64,
    );
    let invack_total: f64 = traces.iter().map(|t| t.invack_total_cycles).sum();
    let invack_count = sum(|t| t.invack_count);
    r.metric(
        "coherence.invack_mean_cycles",
        if invack_count == 0 {
            0.0
        } else {
            invack_total / invack_count as f64
        },
    );
    let cs = sum(|t| t.cs_count);
    let generated_cs: u64 = p.cells.iter().map(|c| plan::expected_cs(&c.config)).sum();
    r.check(cs == generated_cs, || {
        format!("locks.cs_count {cs} != generated {generated_cs}")
    });
    r.metric("locks.cs_count", cs as f64);
    r.metric("locks.lco_cycles", sum(|t| t.lco_cycles) as f64);
    r.metric("locks.sleep_cycles", sum(|t| t.sleep_cycles) as f64);

    let cell_ms: Vec<f64> = pass
        .results
        .iter()
        .flatten()
        .map(|(_, w)| *w as f64 / 1e6)
        .collect();
    r.metric("campaign.pool.busy_frac", pass.busy_frac());
    r.metric("campaign.cell_wall_ms.p50", host::median(&cell_ms));
    r.metric(
        "campaign.cell_wall_ms.max",
        cell_ms.iter().copied().fold(0.0, f64::max),
    );
    let load_us = host::median(&probe.load_us);
    let encode_us = host::median(&probe.encode_us);
    let decode_us = host::median(&probe.decode_us);
    r.metric("campaign.cache.store_ms", host::median(&probe.store_ms));
    r.metric("campaign.cache.load_us", load_us);
    r.metric("campaign.json.encode_us", encode_us);
    r.metric("campaign.json.decode_us", decode_us);
    let hit_ms = host::median(&hits.latencies_ms);
    r.metric(
        "serve.residual_ms",
        hit_ms - (load_us + encode_us + decode_us) / 1e3,
    );
    count_hits(r, hits);
    let hit_ratio = ratio(status.hits, status.hits + status.misses);
    r.check(hit_ratio == 1.0, || {
        format!("serve.hit_ratio {hit_ratio} != 1")
    });
    r.metric("serve.hit_ratio", hit_ratio);
    let traced = sum(|t| t.cell_nanos);
    let untraced = sum(|t| t.untraced_nanos);
    r.metric("trace.overhead_frac", traced as f64 / untraced as f64 - 1.0);

    r.notes.push(format!(
        "tracing overhead: traced cells {:.3} s vs the same cells untraced {:.3} s, run in pairs",
        secs(traced),
        secs(untraced),
    ));
    r.notes.push(format!(
        "hit round trip p50 {hit_ms:.3} ms over {} samples",
        hits.latencies_ms.len()
    ));
    if let Some(one) = u.one_worker {
        r.notes.push(format!(
            "anomaly: campaign.pool.busy_frac {:.3} at 1 worker ({:.2} s), {:.3} at {} workers ({:.2} s)",
            one.busy_frac(),
            secs(one.makespan_nanos),
            pass.busy_frac(),
            pass.workers,
            secs(pass.makespan_nanos),
        ));
    }
    tick_table(r, traces);
}

/// Counts a hit loop's requests as operations and its failures.
fn count_hits(r: &mut Report, hits: &HitLoop) {
    r.attempted += hits.requests;
    r.failures
        .extend(hits.failures.iter().map(|why| format!("hit: {why}")));
}

/// The per-program anomaly table: host ns per simulated cycle,
/// Original vs iNPG.
fn tick_table(r: &mut Report, traces: &[CellTrace]) {
    r.notes
        .push("anomaly: manycore.tick_ns per program (Original | iNPG | iNPG/Original)".into());
    let mut programs: Vec<&str> = traces.iter().map(|t| t.program).collect();
    programs.dedup();
    for program in programs {
        let ns = |m| {
            traces
                .iter()
                .find(|t| t.program == program && t.mechanism == Some(m))
                .map(|t| t.tick_nanos as f64 / t.ticks.max(1) as f64)
        };
        if let (Some(o), Some(i)) = (ns(inpg::Mechanism::Original), ns(inpg::Mechanism::Inpg)) {
            r.notes.push(format!(
                "  {program:<10} {o:>9.1} | {i:>9.1} | {:.3}",
                i / o
            ));
        }
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
