//! The campaign engine: resolves cells against the content-addressed
//! cache, executes the misses on the [pool](crate::pool) through the
//! shared [cell pipeline](crate::exec), and merges everything back in
//! canonical cell order.
//!
//! # Determinism argument
//!
//! Each cell owns its own seeded simulator, so a cell's
//! [`CellRecord`] is a pure function of its [`CellConfig`] — worker
//! count and scheduling order cannot change it. The merged artifact is
//! written in canonical (campaign-definition) order from those records
//! only, so a 1-worker run, an N-worker run, and a warm-cache run all
//! produce byte-identical merged output. Wall-clock readings exist only
//! in the progress stream and the `BENCH_campaign.json` sidecar, never
//! in the merged artifact.

use crate::cache::ResultCache;
use crate::cell::{Campaign, CellRecord, CellSpec};
use crate::clock::{cycles_per_sec, HarnessClock};
use crate::exec::{self, Lookup, Ran};
use crate::json::Json;
use crate::pool;
use inpg::SimError;
use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How to execute a campaign.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for cache misses (clamped to at least 1).
    pub workers: usize,
    /// Read the cache: verified hits skip execution. Writes happen
    /// whenever `cache` is set, resumed or not, so an interrupted
    /// campaign leaves every finished cell behind for the next run.
    pub resume: bool,
    /// Cache directory (`None` disables the cache entirely).
    pub cache: Option<PathBuf>,
    /// Merged-artifact path (canonical order, deterministic bytes);
    /// parent directories are created.
    pub merged_out: Option<PathBuf>,
    /// Only run cells whose label contains this substring.
    pub filter: Option<String>,
    /// Per-cell progress + ETA lines on stderr.
    pub progress: bool,
    /// Per-cell JSONL records (wall time, throughput) on stdout, in
    /// completion order.
    pub cell_jsonl: bool,
}

impl ExecOptions {
    /// Defaults for programmatic use: all cores, resume on, no cache
    /// directory, no artifacts, quiet.
    pub fn quiet() -> Self {
        ExecOptions {
            workers: default_workers(),
            resume: true,
            cache: None,
            merged_out: None,
            filter: None,
            progress: false,
            cell_jsonl: false,
        }
    }
}

/// The host's available parallelism (1 if unknown).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The result of one cell within a campaign run.
#[derive(Debug)]
pub struct CellOutcome {
    pub spec: CellSpec,
    /// Content hash of the cell's config (the cache address).
    pub hash: String,
    /// The deterministic record (freshly computed or cache-verified).
    pub record: CellRecord,
    /// Whether the record came from the cache.
    pub cached: bool,
    /// Wall nanoseconds this run spent executing the cell (0 if cached).
    pub wall_nanos: u64,
}

/// A cell whose execution panicked. The campaign carries on without
/// it: the panic is caught at the pool boundary, the cell is excluded
/// from the merged artifact, and the failure is reported here (and in
/// the end-of-run summary) instead of wedging the whole run.
#[derive(Debug, Clone)]
pub struct FailedCell {
    /// The failed cell's label.
    pub label: String,
    /// The panic message.
    pub reason: String,
}

/// Everything one campaign run produced, in canonical cell order.
#[derive(Debug)]
pub struct CampaignReport {
    pub name: String,
    pub outcomes: Vec<CellOutcome>,
    pub workers: usize,
    pub resume: bool,
    /// Cells executed this run (cache misses).
    pub executed: usize,
    /// Cells served by verified cache hits.
    pub cached: usize,
    /// Cells whose execution panicked, in canonical cell order; absent
    /// from [`outcomes`](Self::outcomes) and the merged artifact.
    pub failed: Vec<FailedCell>,
    /// Corrupt cache entries moved to `quarantine/` during resolution
    /// (each one re-ran honestly; none were silently trusted or
    /// silently deleted).
    pub quarantined: usize,
    /// Suite wall time, nanoseconds (harness boundary measurement).
    pub wall_nanos: u64,
}

impl CampaignReport {
    /// Looks up an outcome by cell label.
    pub fn outcome(&self, label: &str) -> Option<&CellOutcome> {
        self.outcomes.iter().find(|o| o.spec.label == label)
    }

    /// Total simulated cycles over all cells (cached ones included).
    pub fn sim_cycles(&self) -> u64 {
        self.outcomes.iter().map(|o| o.record.roi_cycles).sum()
    }

    /// Suite-level simulated-cycles-per-second over the cells actually
    /// executed this run.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let executed_cycles: u64 = self
            .outcomes
            .iter()
            .filter(|o| !o.cached)
            .map(|o| o.record.roi_cycles)
            .sum();
        cycles_per_sec(executed_cycles, self.wall_nanos).unwrap_or(0.0)
    }

    /// Labels of cells that hit the cycle bound without completing.
    pub fn incomplete(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| !o.record.completed)
            .map(|o| o.spec.label.as_str())
            .collect()
    }

    /// One stable summary line (the CI smoke job greps it).
    pub fn summary_line(&self) -> String {
        let failed = if self.failed.is_empty() {
            String::new()
        } else {
            format!(", {} FAILED", self.failed.len())
        };
        let failed = if self.quarantined == 0 {
            failed
        } else {
            format!("{failed}, {} quarantined", self.quarantined)
        };
        format!(
            "campaign {}: {} cells ({} executed, {} cached{failed}) on {} workers in {:.2}s, {:.2} Msim-cycles/s",
            self.name,
            self.outcomes.len() + self.failed.len(),
            self.executed,
            self.cached,
            self.workers,
            self.wall_nanos as f64 / 1e9,
            self.sim_cycles_per_sec() / 1e6,
        )
    }
}

/// Why a campaign run failed.
#[derive(Debug)]
pub enum CampaignError {
    /// Artifact or cache I/O failed.
    Io(io::Error),
    /// A cell's simulation failed (bad config, stall, invariant).
    Cell { label: String, error: SimError },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign i/o: {e}"),
            CampaignError::Cell { label, error } => write!(f, "cell `{label}`: {error}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Executes a campaign: cache resolution, pooled execution, canonical
/// merge, artifact emission.
///
/// # Errors
///
/// Fails on the first cell whose simulation errors (reported in
/// canonical order) and on artifact/cache I/O failures. Cells that
/// merely hit their cycle bound are *not* errors here; see
/// [`CampaignReport::incomplete`]. A cell whose execution *panics* is
/// not an error either: the panic is caught by [`exec::run_cell`], the
/// cell lands in [`CampaignReport::failed`], and the rest of the
/// campaign (and its merged artifact) completes without it.
pub fn execute(campaign: &Campaign, opts: &ExecOptions) -> Result<CampaignReport, CampaignError> {
    let clock = HarnessClock::start();
    let log = format!("campaign {}", campaign.name);
    let cells: Vec<CellSpec> =
        campaign.matching(opts.filter.as_deref()).into_iter().cloned().collect();
    let cache = opts.cache.as_ref().map(ResultCache::new);

    // Orphaned `.tmp` files from a writer killed mid-store must never be
    // around to confuse anyone (and must not accumulate); sweep first.
    if let Some(cache) = &cache {
        match cache.gc_stale_tmp() {
            Ok(0) => {}
            Ok(n) => eprintln!("{log}: collected {n} orphaned .tmp cache file(s)"),
            Err(e) => eprintln!("{log}: cannot sweep stale .tmp files: {e} (continuing)"),
        }
    }

    // Phase 1 — resolve against the cache (sequential: pure I/O).
    let mut hashes: Vec<String> = cells.iter().map(|cell| cell.config.content_hash()).collect();
    let mut quarantined = 0usize;
    let read_cache = cache.as_ref().filter(|_| opts.resume);
    let mut resolved: Vec<Option<CellRecord>> = cells
        .iter()
        .zip(&hashes)
        .map(|(cell, hash)| match exec::resolve(read_cache, &cell.config, hash, &log, &cell.label) {
            Lookup::Hit(record) => Some(*record),
            Lookup::Miss { quarantined: moved } => {
                quarantined += usize::from(moved);
                None
            }
        })
        .collect();

    // Phase 2 — execute the misses on the pool, one run per distinct
    // config.
    let misses = cells.iter().enumerate().filter(|(i, _)| resolved[*i].is_none());
    let plan = exec::Dedup::plan(misses.map(|(i, cell)| (i, &cell.config)));
    let progress = ProgressSink {
        enabled: opts.progress,
        jsonl: opts.cell_jsonl,
        done: AtomicUsize::new(0), // sync: monotone progress count, see fetch_add below
        total: plan.owners.len(),
        clock,
        // sync: serializes stderr/JSONL emission only; no shared state
        // is guarded, so lock order vs other locks never matters.
        out: Mutex::new(()),
    };
    for (cell, record) in cells.iter().zip(&resolved) {
        if let Some(record) = record {
            progress.emit_cached(cell, record);
        }
    }
    let ran: Vec<Ran> = pool::run_indexed(plan.owners.len(), opts.workers, |slot| {
        let cell = &cells[plan.owners[slot]];
        let ran = exec::run_cell(cache.as_ref(), &cell.config, None, &log, &cell.label);
        if let Ran::Done { record, wall_nanos, .. } = &ran {
            progress.emit_executed(cell, record, *wall_nanos);
        }
        ran
    });

    // Phase 3 — merge in canonical order. Slots are in canonical order
    // of their owners, so the first failed slot is the canonically first
    // failing cell. A slot's owner (canonically first) counts as
    // executed; later cells with the same config share its record and
    // count as cached — they were served without running a simulator.
    let mut slots = Vec::with_capacity(ran.len());
    for (slot, ran) in ran.into_iter().enumerate() {
        slots.push(match ran {
            Ran::Done { record, wall_nanos } => Ok((*record, wall_nanos)),
            Ran::Failed(error) => {
                let label = cells[plan.owners[slot]].label.clone();
                return Err(CampaignError::Cell { label, error });
            }
            Ran::Panicked(reason) => Err(reason),
        });
    }
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut failed: Vec<FailedCell> = Vec::new();
    let mut executed = 0;
    for (i, cell) in cells.into_iter().enumerate() {
        let (record, cached, wall_nanos) = match resolved[i].take() {
            Some(record) => (record, true, 0),
            None => match &slots[plan.slot(i)] {
                Ok((record, wall_nanos)) if plan.is_owner(i) => {
                    (record.clone(), false, *wall_nanos)
                }
                Ok((record, _)) => (record.clone(), true, 0),
                // Every cell sharing the panicked config fails with the
                // same reason; the merge order keeps the list canonical.
                Err(reason) => {
                    failed.push(FailedCell { label: cell.label, reason: reason.clone() });
                    continue;
                }
            },
        };
        executed += usize::from(!cached);
        let hash = std::mem::take(&mut hashes[i]);
        outcomes.push(CellOutcome { spec: cell, hash, record, cached, wall_nanos });
    }

    let report = CampaignReport {
        name: campaign.name.clone(),
        workers: opts.workers.max(1),
        resume: opts.resume,
        executed,
        cached: outcomes.len() - executed,
        outcomes,
        failed,
        quarantined,
        wall_nanos: clock.elapsed_nanos(),
    };

    // Phase 4 — the merged artifact, canonical order, no wall clock.
    if let Some(path) = &opts.merged_out {
        exec::write_artifact(
            path,
            report.outcomes.iter().map(|o| {
                exec::merged_entry_line(&o.spec.label, &o.hash, &o.spec.config, &o.record)
            }),
            exec::merged_footer(&report.name, report.outcomes.len(), report.quarantined),
        )?;
    }

    Ok(report)
}

/// Serialized progress/telemetry emission (stderr text, stdout JSONL).
struct ProgressSink {
    enabled: bool,
    jsonl: bool,
    done: AtomicUsize,
    total: usize,
    clock: HarnessClock,
    out: Mutex<()>,
}

impl ProgressSink {
    fn emit_executed(&self, cell: &CellSpec, record: &CellRecord, wall_nanos: u64) {
        // sync: SeqCst — progress lines must agree with the order the
        // counter was claimed in across workers; this is a per-cell (not
        // per-cycle) event, so the fence cost is irrelevant.
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        if !self.enabled && !self.jsonl {
            return;
        }
        let _guard = self.out.lock().unwrap_or_else(|p| p.into_inner());
        if self.enabled {
            let elapsed = self.clock.elapsed_nanos();
            let eta_s = elapsed as f64 / 1e9 / done as f64 * (self.total - done) as f64;
            let cps = cycles_per_sec(record.roi_cycles, wall_nanos).unwrap_or(0.0);
            eprintln!(
                "[{done}/{}] {} {:.0}ms {:.2} Mcyc/s eta {:.0}s",
                self.total,
                cell.label,
                wall_nanos as f64 / 1e6,
                cps / 1e6,
                eta_s,
            );
        }
        if self.jsonl {
            self.write_jsonl(cell, record, false, wall_nanos);
        }
    }

    fn emit_cached(&self, cell: &CellSpec, record: &CellRecord) {
        if !self.jsonl {
            return;
        }
        let _guard = self.out.lock().unwrap_or_else(|p| p.into_inner());
        self.write_jsonl(cell, record, true, 0);
    }

    /// One telemetry record, completion order: the only place wall time
    /// and simulated throughput appear next to a cell.
    fn write_jsonl(&self, cell: &CellSpec, record: &CellRecord, cached: bool, wall_nanos: u64) {
        let cps = cycles_per_sec(record.roi_cycles, wall_nanos).map_or(Json::Null, Json::num);
        let line = Json::obj(vec![
            ("cell", Json::Str(cell.label.clone())),
            ("hash", Json::Str(cell.config.content_hash())),
            ("cached", Json::Bool(cached)),
            ("completed", Json::Bool(record.completed)),
            ("sim_cycles", Json::UInt(record.roi_cycles)),
            ("wall_ms", Json::num(wall_nanos as f64 / 1e6)),
            ("sim_cycles_per_sec", cps),
        ]);
        let mut stdout = io::stdout().lock();
        let _ = writeln!(stdout, "{}", line.to_string_compact());
    }
}
