//! The one cell pipeline, shared by the in-process
//! [engine](crate::engine) and the [`inpg serve`](crate::serve) daemon:
//! resolve a cell against the verified cache, run it with panic
//! isolation and harness-side timing, store its record, plan dedup by
//! content hash, and write merged artifacts.
//!
//! Both front ends call these functions rather than keeping their own
//! copies, so a corrupt cache entry, a panicking cell or a duplicated
//! config is handled the same way whether it arrived through
//! `inpg campaign` or over a daemon socket.

use crate::cache::{CacheMiss, ResultCache};
use crate::cell::{CellConfig, CellRecord};
use crate::clock::HarnessClock;
use crate::json::Json;
use inpg::{ExperimentResult, SimError};
use inpg_sim::AbortHandle;
use std::any::Any;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// What [`resolve`] found for one cell (the record is boxed so the
/// enum stays small next to `Miss`).
#[derive(Debug)]
pub enum Lookup {
    /// A fully verified cache entry.
    Hit(Box<CellRecord>),
    /// Nothing usable: the cell must run. `quarantined` is set when a
    /// corrupt entry was moved to `quarantine/` on the way.
    Miss { quarantined: bool },
}

/// Loads and verifies the cache entry for `config`. A corrupt entry is
/// moved to `quarantine/` — inspectable, and off its content address so
/// the honest re-run can land — and reported as a miss; an unreadable
/// one (an I/O error, not corruption) is left in place. Uncacheable
/// cells and a disabled cache always miss. Log lines on stderr start
/// with `log` and name the cell as `label`.
pub fn resolve(
    cache: Option<&ResultCache>,
    config: &CellConfig,
    log: &str,
    label: &str,
) -> Lookup {
    let Some(cache) = cache.filter(|_| config.cacheable()) else {
        return Lookup::Miss { quarantined: false };
    };
    let why = match cache.load(config) {
        Ok(record) => return Lookup::Hit(Box::new(record)),
        Err(CacheMiss::Absent) => return Lookup::Miss { quarantined: false },
        Err(CacheMiss::Unreadable(e)) => {
            eprintln!("{log}: cache entry for `{label}` unreadable ({e}); re-running");
            return Lookup::Miss { quarantined: false };
        }
        Err(CacheMiss::HashMismatch(why) | CacheMiss::Malformed(why)) => why,
    };
    match cache.quarantine(config) {
        Ok(moved) => {
            eprintln!(
                "{log}: cache entry for `{label}` rejected ({why}); quarantined, re-running"
            );
            Lookup::Miss { quarantined: moved }
        }
        Err(e) => {
            eprintln!(
                "{log}: cache entry for `{label}` rejected ({why}) but could not be \
                 quarantined ({e}); re-running"
            );
            Lookup::Miss { quarantined: false }
        }
    }
}

/// What [`run_cell`] produced. The payloads are boxed so the enum stays
/// small next to `Failed`.
#[derive(Debug)]
pub enum Ran {
    /// The simulation finished (completed, or stopped at its cycle
    /// bound); the record is already in the cache.
    Done { record: Box<CellRecord>, fresh: Box<ExperimentResult>, wall_nanos: u64 },
    /// The simulation returned an error: bad config, stall, invariant
    /// violation, or [`SimError::Aborted`] once `abort` was raised.
    Failed(SimError),
    /// Building or running the experiment panicked (an unknown
    /// benchmark name, a simulator bug); the panic message.
    Panicked(String),
}

/// Builds and runs one cell under `catch_unwind`, so a panic anywhere
/// from experiment construction on is returned instead of unwinding
/// into the caller's worker. The run is timed here at the harness
/// boundary, stopped cooperatively once `abort` (if any) is raised, and
/// a finished cacheable record is stored in `cache`; a failed store is
/// logged (prefixed `log`, naming `label`) and otherwise ignored.
pub fn run_cell(
    cache: Option<&ResultCache>,
    config: &CellConfig,
    abort: Option<AbortHandle>,
    log: &str,
    label: &str,
) -> Ran {
    let clock = HarnessClock::start();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let experiment = config.to_experiment();
        match abort {
            Some(handle) => experiment.abort_on(handle),
            None => experiment,
        }
        .run()
    }));
    let wall_nanos = clock.elapsed_nanos();
    let fresh = match outcome {
        Ok(Ok(fresh)) => fresh,
        Ok(Err(error)) => return Ran::Failed(error),
        Err(payload) => return Ran::Panicked(panic_message(payload.as_ref())),
    };
    let record = CellRecord::from_result(&fresh);
    if let Some(cache) = cache.filter(|_| config.cacheable()) {
        if let Err(e) = cache.store(config, &record) {
            eprintln!("{log}: cannot cache `{label}`: {e} (continuing)");
        }
    }
    Ran::Done { record: Box::new(record), fresh: Box::new(fresh), wall_nanos }
}

/// The message of a caught panic: `panic!` payloads are `&str` or
/// `String`; anything else is reported as such.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Which cells execute when identical configs share one run. fig11 and
/// fig12 share their cell set and knob sweeps repeat the default point,
/// so the content hash that addresses the cache also dedupes within a
/// run. Uncacheable (timeline) cells never share: each consumer needs
/// its own fresh result.
#[derive(Debug, Default)]
pub struct Dedup {
    /// The cell index that executes for each slot, in canonical order.
    pub owners: Vec<usize>,
    slot_of: BTreeMap<usize, usize>,
}

impl Dedup {
    /// Plans `cells` — `(cell index, config)` pairs in canonical order.
    /// A slot's owner is the canonically first cell with its config.
    pub fn plan<'a>(cells: impl IntoIterator<Item = (usize, &'a CellConfig)>) -> Dedup {
        let mut plan = Dedup::default();
        let mut slot_of_hash: BTreeMap<String, usize> = BTreeMap::new();
        for (i, config) in cells {
            let fresh_slot = plan.owners.len();
            let slot = if config.cacheable() {
                *slot_of_hash.entry(config.content_hash()).or_insert(fresh_slot)
            } else {
                fresh_slot
            };
            if slot == fresh_slot {
                plan.owners.push(i);
            }
            plan.slot_of.insert(i, slot);
        }
        plan
    }

    /// The execution slot of planned cell `i`.
    pub fn slot(&self, i: usize) -> usize {
        *self
            .slot_of
            .get(&i)
            .unwrap_or_else(|| unreachable!("cell {i} was never planned"))
    }

    /// Whether planned cell `i` is the one that executes for its slot.
    pub fn is_owner(&self, i: usize) -> bool {
        self.owners[self.slot(i)] == i
    }
}

/// One line of a merged artifact: label, address, full config, full
/// deterministic record — a pure function of the campaign definition.
pub fn merged_entry_line(
    label: &str,
    hash: &str,
    config: &CellConfig,
    record: &CellRecord,
) -> Json {
    Json::obj(vec![
        ("label", Json::Str(label.to_string())),
        ("hash", Json::Str(hash.to_string())),
        ("config", config.to_json()),
        ("record", record.to_json()),
    ])
}

/// The merged artifact's trailing footer line: campaign identity, cell
/// count, and the quarantined-entry count, so a consumer can both
/// detect truncation (no footer = torn file) and see whether any cache
/// corruption was encountered while producing the artifact.
pub fn merged_footer(name: &str, cells: usize, quarantined: usize) -> Json {
    Json::obj(vec![
        ("footer", Json::Bool(true)),
        ("campaign", Json::Str(name.to_string())),
        ("cells", Json::UInt(cells as u64)),
        ("quarantined", Json::UInt(quarantined as u64)),
    ])
}

/// Writes a merged artifact to `path`: one compact JSON value per
/// line, `footer` last, parent directories created.
pub fn write_artifact(
    path: &Path,
    lines: impl IntoIterator<Item = Json>,
    footer: Json,
) -> io::Result<()> {
    create_parent_dir(path)?;
    let mut text = String::new();
    for line in lines.into_iter().chain([footer]) {
        text.push_str(&line.to_string_compact());
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Creates the parent directory of `path` (and its ancestors), if any.
pub fn create_parent_dir(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_shares_cacheable_configs_and_never_timeline_ones() {
        let a = CellConfig::benchmark("freq");
        let mut b = a.clone();
        b.seed ^= 1;
        let mut timeline = a.clone();
        timeline.record_timeline = true;
        let cells = [&a, &b, &a, &timeline, &timeline];
        let plan = Dedup::plan(cells.iter().copied().enumerate());
        assert_eq!(plan.owners, vec![0, 1, 3, 4]);
        assert_eq!(plan.slot(2), plan.slot(0));
        assert!(plan.is_owner(0) && !plan.is_owner(2));
        assert!(plan.is_owner(3) && plan.is_owner(4));
    }

    #[test]
    fn an_unknown_benchmark_is_returned_as_a_panicked_cell() {
        let ran = run_cell(None, &CellConfig::benchmark("no-such-benchmark"), None, "t", "bad");
        match ran {
            Ran::Panicked(message) => assert!(message.contains("no-such-benchmark"), "{message}"),
            other => panic!("expected a caught panic, got {other:?}"),
        }
    }
}
