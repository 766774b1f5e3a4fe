//! The simulation side: set-up timing, untraced passes through
//! `engine::execute`, and the traced pass that drives
//! `System::try_tick` itself and reads the `System` stats taps.

use crate::{host, plan};
use inpg::manycore::{LockPlacement, System};
use inpg::Mechanism;
use inpg_campaign::{engine, Campaign, CellRecord, CellSpec, ExecOptions};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Host seconds each set-up repetition spent over every cell:
/// `(program generation, System::new)`. Repeats for `seconds`, and at
/// least `min_reps` times.
pub fn setup_times(cells: &[CellSpec], min_reps: usize, seconds: f64) -> Vec<(f64, f64)> {
    let start = Instant::now();
    (0..)
        .take_while(|&k| k < min_reps || start.elapsed().as_secs_f64() < seconds)
        .map(|_| {
            let (mut generate, mut new) = (0.0, 0.0);
            for cell in cells {
                let start = Instant::now();
                let (cfg, programs, locks) = plan::system_inputs(black_box(&cell.config));
                let built = Instant::now();
                let system = System::new(cfg, programs, locks, LockPlacement::Interleaved);
                let done = Instant::now();
                drop(black_box(system));
                generate += (built - start).as_secs_f64();
                new += (done - built).as_secs_f64();
            }
            (generate, new)
        })
        .collect()
}

/// One untraced run of a cell set.
#[derive(Debug)]
pub struct Pass {
    /// Per cell, in plan order: the record and the host nanoseconds
    /// the cell ran, or `None` when the cell errored or panicked.
    pub results: Vec<Option<(CellRecord, u64)>>,
    /// Host nanoseconds from start to the complete result set.
    pub makespan_nanos: u64,
    /// Host seconds the process spent on a CPU during the pass.
    pub cpu_seconds: f64,
    pub workers: usize,
    /// Why cells are missing, if any are.
    pub errors: Vec<String>,
}

impl Pass {
    /// Σ host nanoseconds spent running cells.
    pub fn busy_nanos(&self) -> u64 {
        self.results.iter().flatten().map(|(_, wall)| wall).sum()
    }

    /// Σ simulated cycles of the cells that ran.
    pub fn sim_cycles(&self) -> u64 {
        self.results
            .iter()
            .flatten()
            .map(|(r, _)| r.roi_cycles)
            .sum()
    }

    /// Σ cell time ÷ (workers × makespan).
    pub fn busy_frac(&self) -> f64 {
        self.busy_nanos() as f64 / (self.workers as f64 * self.makespan_nanos as f64)
    }

    /// The records in plan order, or `None` when a cell errored.
    pub fn records(&self) -> Option<Vec<CellRecord>> {
        self.results
            .iter()
            .map(|res| res.as_ref().map(|(rec, _)| rec.clone()))
            .collect()
    }
}

/// Runs the cells as one cold campaign through `engine::execute` with
/// `workers` workers and a cache at `cache_dir`.
pub fn engine_pass(cells: &[CellSpec], workers: usize, cache_dir: &Path) -> Pass {
    let campaign = Campaign {
        name: "perfbench".into(),
        cells: cells.to_vec(),
    };
    let opts = ExecOptions {
        workers,
        cache: Some(cache_dir.to_path_buf()),
        ..ExecOptions::quiet()
    };
    let cpu = host::cpu_seconds().unwrap_or(f64::NAN);
    let start = Instant::now();
    let outcome = engine::execute(&campaign, &opts);
    let makespan_nanos = start.elapsed().as_nanos() as u64;
    let cpu_seconds = host::cpu_seconds().unwrap_or(f64::NAN) - cpu;
    let mut errors = Vec::new();
    let results = match outcome {
        Ok(report) => {
            errors.extend(
                report
                    .failed
                    .iter()
                    .map(|f| format!("{}: {}", f.label, f.reason)),
            );
            cells
                .iter()
                .map(|cell| {
                    report
                        .outcome(&cell.label)
                        .map(|o| (o.record.clone(), o.wall_nanos))
                })
                .collect()
        }
        Err(e) => {
            errors.push(e.to_string());
            vec![None; cells.len()]
        }
    };
    Pass {
        results,
        makespan_nanos,
        cpu_seconds,
        workers,
        errors,
    }
}

/// What the traced pass measured over one cell.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    pub program: &'static str,
    pub mechanism: Option<Mechanism>,
    pub completed: bool,
    pub roi_cycles: u64,
    pub cs_count: u64,
    pub error: Option<String>,
    /// Σ host nanoseconds inside `try_tick`, and the calls made.
    pub tick_nanos: u64,
    pub ticks: u64,
    /// Host nanoseconds for the whole traced cell, set-up included.
    pub cell_nanos: u64,
    /// Host nanoseconds of the same cell run untraced through
    /// `inpg::Experiment` just before, the baseline of the overhead.
    pub untraced_nanos: u64,
    /// Cycles that ended with nothing in flight on the NoC.
    pub quiet_cycles: u64,
    /// Σ over cycles of the threads asleep at the end of the cycle.
    pub sleeping_thread_cycles: u64,
    pub cores: u64,
    pub flit_hops: u64,
    pub delivered: u64,
    pub generated_packets: u64,
    pub total_latency: u64,
    pub requests_stopped: u64,
    pub passes_table_full: u64,
    pub home_requests: u64,
    pub home_getx: u64,
    pub home_queue_wait_cycles: u64,
    pub home_max_queue_len: u64,
    pub home_invs_sent: u64,
    pub home_invs_saved: u64,
    pub l1_misses: u64,
    pub l1_demote_retries: u64,
    pub l1_forwards_bounced: u64,
    pub invack_count: u64,
    pub invack_total_cycles: f64,
    pub lco_cycles: u64,
    pub sleep_cycles: u64,
}

/// Runs the cell untraced through `inpg::Experiment`, then builds its
/// system itself, ticks it to completion timing every `try_tick`, and
/// reads the stats taps afterwards. The two runs are back to back so
/// that host drift does not enter the tracing overhead.
pub fn trace_cell(cell: &CellSpec) -> CellTrace {
    let config = &cell.config;
    let mut t = CellTrace {
        program: plan::spec_of(config).name,
        mechanism: Some(config.mechanism),
        ..CellTrace::default()
    };
    let untraced = Instant::now();
    let _ = black_box(config.to_experiment().run());
    t.untraced_nanos = untraced.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let (cfg, programs, locks) = plan::system_inputs(config);
    let mut system = match System::new(cfg, programs, locks, LockPlacement::Interleaved) {
        Ok(system) => system,
        Err(e) => {
            t.error = Some(e.to_string());
            return t;
        }
    };
    t.cores = system.config().cores() as u64;

    let max_cycles = system.config().max_cycles;
    while !system.all_done() && system.now().as_u64() < max_cycles {
        let tick_start = Instant::now();
        let ticked = system.try_tick();
        t.tick_nanos += tick_start.elapsed().as_nanos() as u64;
        t.ticks += 1;
        if let Err(e) = ticked {
            t.error = Some(e.to_string());
            break;
        }
        if system.noc_stats().in_flight == 0 {
            t.quiet_cycles += 1;
        }
        t.sleeping_thread_cycles += system.sleeping_threads() as u64;
    }
    t.completed = system.all_done();
    t.roi_cycles = system.now().as_u64();
    t.cs_count = system.cs_completed() as u64;

    let noc = system.noc_stats();
    t.flit_hops = noc.flit_hops;
    t.delivered = noc.delivered;
    t.generated_packets = noc.generated_packets;
    t.total_latency = noc.total_latency;
    let barrier = system.barrier_stats();
    t.requests_stopped = barrier.requests_stopped;
    t.passes_table_full = barrier.passes_table_full;
    let home = system.home_stats();
    t.home_requests = home.requests;
    t.home_getx = home.getx;
    t.home_queue_wait_cycles = home.queue_wait_cycles;
    t.home_max_queue_len = home.max_queue_len;
    t.home_invs_sent = home.invs_sent;
    t.home_invs_saved = home.invs_saved_by_early;
    let l1 = system.l1_stats();
    t.l1_misses = l1.misses;
    t.l1_demote_retries = l1.demote_retries;
    t.l1_forwards_bounced = l1.forwards_bounced;
    let invack = system.invack_roundtrips();
    t.invack_count = invack.total_count();
    t.invack_total_cycles = invack.mean() * invack.total_count() as f64;
    t.lco_cycles = system.lco_cycles().0;
    t.sleep_cycles = system
        .thread_counters()
        .iter()
        .map(|c| c.sleep_cycles)
        .sum();
    t.cell_nanos = start.elapsed().as_nanos() as u64;
    t
}
