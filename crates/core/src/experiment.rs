//! The experiment runner: configures a full system for one (benchmark,
//! mechanism, primitive, …) point, runs it, and extracts the metrics the
//! paper's figures report.

use crate::mechanism::Mechanism;
use inpg_locks::LockPrimitive;
use inpg_manycore::{LockPlacement, SimError, System, SystemConfig, ThreadProgram};
use inpg_noc::{barrier::BarrierStats, BigRouterPlacement, FaultPlan};
use inpg_sim::{AbortHandle, CoreId, Cycle};
use inpg_stats::{PhaseCounters, Timeline};
use inpg_workloads::{generate, BenchmarkSpec, GenOptions};

/// What the experiment runs.
#[derive(Debug, Clone)]
enum Workload {
    /// One of the 24 modelled benchmarks.
    Benchmark(&'static BenchmarkSpec),
    /// Caller-supplied programs.
    Custom { name: String, programs: Vec<ThreadProgram>, locks: usize },
}

/// Builder for one experiment run.
///
/// # Example
///
/// ```
/// use inpg::{Experiment, Mechanism};
///
/// let result = Experiment::benchmark("freq")
///     .mechanism(Mechanism::Inpg)
///     .mesh(4, 4)
///     .scale(0.02)
///     .run()?;
/// assert!(result.completed);
/// assert!(result.cs_count > 0);
/// # Ok::<(), inpg::manycore::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    workload: Workload,
    mechanism: Mechanism,
    primitive: LockPrimitive,
    width: u8,
    height: u8,
    big_routers: Option<usize>,
    barrier_entries: usize,
    retry_budget: u32,
    scale: f64,
    seed: u64,
    record_timeline: bool,
    lock_home: Option<CoreId>,
    max_cycles: u64,
    watchdog_cycles: Option<u64>,
    check_invariants: Option<u64>,
    faults: FaultPlan,
    recover: bool,
    recovery_timeout: Option<u64>,
    recovery_retry_budget: Option<u32>,
    abort: Option<AbortHandle>,
}

impl Experiment {
    /// Starts an experiment on one of the 24 modelled benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a modelled benchmark; see
    /// [`BENCHMARKS`](inpg_workloads::BENCHMARKS).
    pub fn benchmark(name: &str) -> Self {
        let spec = inpg_workloads::benchmark(name)
            .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
        Self::for_workload(Workload::Benchmark(spec))
    }

    /// Starts an experiment from a benchmark spec reference.
    pub fn for_spec(spec: &'static BenchmarkSpec) -> Self {
        Self::for_workload(Workload::Benchmark(spec))
    }

    /// Starts an experiment on caller-supplied programs (one per core of
    /// the configured mesh) referencing `locks` lock instances.
    pub fn custom(
        name: impl Into<String>,
        programs: Vec<ThreadProgram>,
        locks: usize,
    ) -> Self {
        Self::for_workload(Workload::Custom { name: name.into(), programs, locks })
    }

    fn for_workload(workload: Workload) -> Self {
        Experiment {
            workload,
            mechanism: Mechanism::Original,
            primitive: LockPrimitive::Qsl,
            width: 8,
            height: 8,
            big_routers: None,
            barrier_entries: 16,
            retry_budget: 128,
            scale: 1.0,
            seed: 0x1a9e_4711,
            record_timeline: false,
            lock_home: None,
            max_cycles: 400_000_000,
            watchdog_cycles: None,
            check_invariants: None,
            faults: FaultPlan::none(),
            recover: false,
            recovery_timeout: None,
            recovery_retry_budget: None,
            abort: None,
        }
    }

    /// Selects the mechanism (default: Original).
    #[must_use]
    pub fn mechanism(mut self, mechanism: Mechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Selects the lock primitive (default: QSL, the paper's default).
    #[must_use]
    pub fn primitive(mut self, primitive: LockPrimitive) -> Self {
        self.primitive = primitive;
        self
    }

    /// Sets the mesh dimensions (default 8×8).
    #[must_use]
    pub fn mesh(mut self, width: u8, height: u8) -> Self {
        self.width = width;
        self.height = height;
        self
    }

    /// Overrides the number of big routers (spread evenly); `None`
    /// keeps the mechanism default (checkerboard for iNPG).
    #[must_use]
    pub fn big_routers(mut self, count: usize) -> Self {
        self.big_routers = Some(count);
        self
    }

    /// Sets the locking-barrier-table size (default 16).
    #[must_use]
    pub fn barrier_entries(mut self, entries: usize) -> Self {
        self.barrier_entries = entries;
        self
    }

    /// Sets the QSL retry budget (default 128).
    #[must_use]
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Scales benchmark CS counts (default 1.0 = the paper's Figure-8
    /// counts). Ignored for custom workloads.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records the full phase timeline (Figure 9 profiles).
    #[must_use]
    pub fn record_timeline(mut self, enabled: bool) -> Self {
        self.record_timeline = enabled;
        self
    }

    /// Homes every lock's primary word at `core` (Figure 10 homes the
    /// contended lock at tile (5, 6)).
    #[must_use]
    pub fn lock_home(mut self, core: CoreId) -> Self {
        self.lock_home = Some(core);
        self
    }

    /// Overrides the safety bound on simulated cycles.
    #[must_use]
    pub fn max_cycles(mut self, max: u64) -> Self {
        self.max_cycles = max;
        self
    }

    /// Arms the forward-progress watchdog: the run aborts with a
    /// structured [`inpg_manycore::StallReport`] if no event retires for
    /// `cycles` consecutive cycles (default: disabled).
    #[must_use]
    pub fn watchdog_cycles(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = Some(cycles);
        self
    }

    /// Runs the protocol invariant checker every `interval` cycles
    /// (default: disabled). The run aborts with a typed
    /// [`inpg_manycore::InvariantViolation`] on the first failure.
    #[must_use]
    pub fn check_invariants(mut self, interval: u64) -> Self {
        self.check_invariants = Some(interval);
        self
    }

    /// Installs a deterministic fault-injection plan on the NoC
    /// (default: none).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Arms the fault-recovery layer: timeout-based retransmission of
    /// wedged exclusive transactions with exponential backoff and
    /// home-side dedup (default: off, so injected faults abort the run).
    #[must_use]
    pub fn recover(mut self, enabled: bool) -> Self {
        self.recover = enabled;
        self
    }

    /// Overrides the base retransmission timeout in cycles (default:
    /// the [`SystemConfig`] default). Only meaningful with
    /// [`recover`](Self::recover).
    #[must_use]
    pub fn recovery_timeout(mut self, cycles: u64) -> Self {
        self.recovery_timeout = Some(cycles);
        self
    }

    /// Overrides the recovery retry budget — retransmissions allowed per
    /// transaction before recovery gives up (default: the
    /// [`SystemConfig`] default). Distinct from the QSL
    /// [`retry_budget`](Self::retry_budget).
    #[must_use]
    pub fn recovery_retry_budget(mut self, budget: u32) -> Self {
        self.recovery_retry_budget = Some(budget);
        self
    }

    /// Installs a cooperative abort flag on the run. When another
    /// thread raises the handle — a deadline passed, a service is
    /// draining — the simulation winds down with
    /// [`SimError::Aborted`](inpg_manycore::SimError) at its next poll
    /// point instead of running to `max_cycles`. A run that completes
    /// before the flag is raised is unaffected.
    #[must_use]
    pub fn abort_on(mut self, handle: AbortHandle) -> Self {
        self.abort = Some(handle);
        self
    }

    /// Builds the system and runs it to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for inconsistent configurations,
    /// [`SimError::Stall`] when an armed watchdog fires, and
    /// [`SimError::Invariant`] when the invariant checker finds the
    /// protocol in an impossible state.
    pub fn run(self) -> Result<ExperimentResult, SimError> {
        let mut cfg = SystemConfig::baseline();
        cfg.noc.width = self.width;
        cfg.noc.height = self.height;
        cfg.noc.barrier_entries = self.barrier_entries;
        cfg.primitive = self.primitive;
        cfg.retry_budget = self.retry_budget;
        cfg.record_timeline = self.record_timeline;
        cfg.max_cycles = self.max_cycles;
        cfg.watchdog_cycles = self.watchdog_cycles;
        cfg.invariant_check_interval = self.check_invariants;
        cfg.noc.faults = self.faults.clone();
        cfg.recover = self.recover;
        if let Some(cycles) = self.recovery_timeout {
            cfg.recovery_timeout = cycles;
        }
        if let Some(budget) = self.recovery_retry_budget {
            cfg.recovery_retry_budget = budget;
        }
        let mut cfg = self.mechanism.apply(cfg);
        if let Some(count) = self.big_routers {
            cfg.noc.placement = if count == 0 {
                BigRouterPlacement::None
            } else {
                BigRouterPlacement::Spread(count)
            };
        }

        cfg.validate()?;
        let threads = cfg.cores();
        let (name, programs, locks) = match self.workload {
            Workload::Benchmark(spec) => {
                let programs = generate(
                    spec,
                    GenOptions { threads, scale: self.scale, seed: self.seed },
                );
                (spec.name.to_string(), programs, spec.locks)
            }
            Workload::Custom { name, programs, locks } => (name, programs, locks),
        };
        let placement = match self.lock_home {
            Some(core) => LockPlacement::At(core),
            None => LockPlacement::Interleaved,
        };

        let mut system = System::new(cfg, programs, locks, placement)?;
        if let Some(handle) = self.abort {
            system.set_abort(handle);
        }
        let run = system.run()?;
        Ok(ExperimentResult::collect(
            name,
            self.mechanism,
            self.primitive,
            &system,
            run.cycles,
            run.completed,
        ))
    }
}

/// Summary of the invalidation–acknowledgement round trips (Figure 10).
#[derive(Debug, Clone)]
pub struct InvAckSummary {
    /// Mean round-trip delay, cycles.
    pub mean: f64,
    /// Maximum round-trip delay, cycles.
    pub max: u64,
    /// Round trips recorded.
    pub count: u64,
    /// Delay histogram (bucket i = i cycles, last saturates).
    pub histogram: Vec<u64>,
    /// Mean delay per invalidated core (the Figure 10a/10c map).
    pub per_core_mean: Vec<Option<f64>>,
}

impl InvAckSummary {
    /// The smallest delay `v` such that at least `pct` percent of round
    /// trips are `<= v` (capped at the histogram's saturating bucket).
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as f64 * pct / 100.0).ceil() as u64;
        let mut seen = 0;
        for (v, &n) in self.histogram.iter().enumerate() {
            seen += n;
            if seen >= target {
                return v as u64;
            }
        }
        self.histogram.len().saturating_sub(1) as u64
    }
}

/// Network-level summary.
#[derive(Debug, Clone, Copy)]
pub struct NocSummary {
    /// Packets delivered.
    pub delivered: u64,
    /// Mean end-to-end packet latency.
    pub mean_latency: f64,
    /// Packets generated by big routers.
    pub generated: u64,
    /// Early invalidations generated (stopped GetX count).
    pub early_invs: u64,
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Workload name.
    pub name: String,
    /// Mechanism that ran.
    pub mechanism: Mechanism,
    /// Lock primitive that ran.
    pub primitive: LockPrimitive,
    /// ROI finish time in cycles (the slowest thread's finish).
    pub roi_cycles: u64,
    /// Whether every thread finished within the cycle bound.
    pub completed: bool,
    /// Completed critical sections.
    pub cs_count: usize,
    /// Mean competition overhead per critical section, cycles.
    pub avg_cs_coh: f64,
    /// Mean execution time per critical section, cycles.
    pub avg_cs_cse: f64,
    /// Aggregate cycles per phase over all threads.
    pub total_parallel: u64,
    /// Total competition overhead cycles.
    pub total_coh: u64,
    /// Total critical-section execution cycles.
    pub total_cse: u64,
    /// Of the COH cycles, those spent descheduled.
    pub total_sleep: u64,
    /// Sum of lock-transaction occupancy cycles over all L1s (LCO).
    pub lco_cycles: u64,
    /// Sum of all memory-transaction occupancy cycles.
    pub mem_txn_cycles: u64,
    /// Invalidation round trips (direct + early merged).
    pub invack: InvAckSummary,
    /// Early (router-closed) round trips only; empty without big routers.
    pub invack_early: InvAckSummary,
    /// Network summary.
    pub noc: NocSummary,
    /// Barrier-table counters (zero when no big routers).
    pub barrier: BarrierStats,
    /// Invalidations the home nodes sent themselves.
    pub home_invs_sent: u64,
    /// Invalidations saved by early invalidation.
    pub home_invs_saved: u64,
    /// Aggregated L1 counters (hit/miss/latency breakdowns).
    pub l1: inpg_coherence::L1Stats,
    /// Aggregated home counters.
    pub home: inpg_coherence::HomeStats,
    /// Per-thread phase counters.
    pub per_thread: Vec<PhaseCounters>,
    /// Phase timeline, when recorded.
    pub timeline: Option<Timeline>,
}

impl ExperimentResult {
    fn collect(
        name: String,
        mechanism: Mechanism,
        primitive: LockPrimitive,
        system: &System,
        roi_cycles: u64,
        completed: bool,
    ) -> Self {
        let per_thread = system.thread_counters();
        let cs_count: usize = per_thread.iter().map(PhaseCounters::cs_count).sum();
        let total_cs_coh: u64 = per_thread.iter().map(PhaseCounters::total_cs_coh).sum();
        let total_cs_cse: u64 = per_thread.iter().map(PhaseCounters::total_cs_cse).sum();
        let roundtrips = system.invack_roundtrips();
        let (_, early) = system.invack_roundtrips_split();
        let cores = system.config().cores();
        let per_core_mean =
            (0..cores).map(|c| roundtrips.mean_for(CoreId::new(c))).collect();
        let early_per_core =
            (0..cores).map(|c| early.mean_for(CoreId::new(c))).collect();
        let noc = system.noc_stats();
        let (lco_cycles, mem_txn_cycles) = system.lco_cycles();
        let home = system.home_stats();
        ExperimentResult {
            name,
            mechanism,
            primitive,
            roi_cycles,
            completed,
            cs_count,
            avg_cs_coh: ratio(total_cs_coh, cs_count),
            avg_cs_cse: ratio(total_cs_cse, cs_count),
            total_parallel: per_thread.iter().map(|c| c.parallel_cycles).sum(),
            total_coh: per_thread.iter().map(|c| c.coh_cycles).sum(),
            total_cse: per_thread.iter().map(|c| c.cse_cycles).sum(),
            total_sleep: per_thread.iter().map(|c| c.sleep_cycles).sum(),
            lco_cycles,
            mem_txn_cycles,
            invack: InvAckSummary {
                mean: roundtrips.mean(),
                max: roundtrips.max(),
                count: roundtrips.total_count(),
                histogram: roundtrips.histogram().to_vec(),
                per_core_mean,
            },
            invack_early: InvAckSummary {
                mean: early.mean(),
                max: early.max(),
                count: early.total_count(),
                histogram: early.histogram().to_vec(),
                per_core_mean: early_per_core,
            },
            noc: NocSummary {
                delivered: noc.delivered,
                mean_latency: noc.mean_latency(),
                generated: noc.generated_packets,
                early_invs: noc.early_invs_generated,
            },
            barrier: system.barrier_stats(),
            home_invs_sent: home.invs_sent,
            home_invs_saved: home.invs_saved_by_early,
            l1: system.l1_stats(),
            home,
            per_thread,
            timeline: system.timeline().cloned(),
        }
    }

    /// Mean critical-section access time (COH + CSE), the quantity
    /// Figure 11 normalizes. Lower is better.
    pub fn cs_access_time(&self) -> f64 {
        self.avg_cs_coh + self.avg_cs_cse
    }

    /// Phase shares over the whole run `(parallel, coh, cse)`.
    pub fn phase_shares(&self) -> (f64, f64, f64) {
        let total = (self.total_parallel + self.total_coh + self.total_cse) as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.total_parallel as f64 / total,
            self.total_coh as f64 / total,
            self.total_cse as f64 / total,
        )
    }

    /// Critical sections completed in `[from, to)` over the first
    /// `threads` threads (Figure 9's "critical sections completed
    /// during the reported 30 000 CPU cycles").
    pub fn cs_completed_between(&self, from: u64, to: u64, threads: usize) -> usize {
        self.per_thread
            .iter()
            .take(threads)
            .flat_map(|c| &c.cs_records)
            .filter(|r| r.finished_at >= Cycle::new(from) && r.finished_at < Cycle::new(to))
            .count()
    }
}

fn ratio(total: u64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inpg_manycore::ThreadProgram;
    use inpg_sim::LockId;

    fn tiny_custom(mechanism: Mechanism) -> ExperimentResult {
        let programs = (0..16)
            .map(|_| ThreadProgram::new().rounds(2, 60, LockId::new(0), 25))
            .collect();
        Experiment::custom("tiny", programs, 1)
            .mechanism(mechanism)
            .primitive(LockPrimitive::Tas)
            .mesh(4, 4)
            .max_cycles(3_000_000)
            .run()
            .expect("valid experiment")
    }

    #[test]
    fn runs_all_mechanisms_on_custom_workload() {
        for mechanism in Mechanism::ALL {
            let r = tiny_custom(mechanism);
            assert!(r.completed, "{mechanism}");
            assert_eq!(r.cs_count, 32, "{mechanism}");
            assert!(r.roi_cycles > 0);
            assert!(r.avg_cs_cse >= 25.0);
        }
    }

    #[test]
    fn inpg_generates_packets_baseline_does_not() {
        let base = tiny_custom(Mechanism::Original);
        assert_eq!(base.noc.generated, 0);
        assert_eq!(base.barrier.requests_stopped, 0);
        let inpg = tiny_custom(Mechanism::Inpg);
        assert!(inpg.noc.generated > 0);
        assert!(inpg.barrier.requests_stopped > 0);
    }

    #[test]
    fn benchmark_experiment_scales() {
        let r = Experiment::benchmark("vips")
            .mesh(4, 4)
            .scale(0.05)
            .max_cycles(10_000_000)
            .run()
            .unwrap();
        assert!(r.completed);
        assert!(r.cs_count >= 16);
        let (p, c, s) = r.phase_shares();
        assert!((p + c + s - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = Experiment::benchmark("doom");
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        // Zero-size mesh.
        assert!(Experiment::benchmark("vips").mesh(0, 4).scale(0.01).run().is_err());
        // Lock homed outside the mesh.
        assert!(Experiment::benchmark("vips")
            .mesh(2, 2)
            .scale(0.01)
            .lock_home(CoreId::new(99))
            .run()
            .is_err());
        // Zero barrier entries with big routers deployed.
        assert!(Experiment::benchmark("vips")
            .mechanism(Mechanism::Inpg)
            .mesh(2, 2)
            .scale(0.01)
            .barrier_entries(0)
            .run()
            .is_err());
    }

    #[test]
    fn a_raised_abort_handle_stops_the_run() {
        use inpg_manycore::SimError;
        use inpg_sim::AbortHandle;

        let programs: Vec<ThreadProgram> = (0..4)
            .map(|_| ThreadProgram::new().rounds(50, 400, LockId::new(0), 100))
            .collect();

        // Raised before the run starts: the simulator must wind down at
        // its first poll point, well short of the workload's runtime.
        let handle = AbortHandle::new();
        handle.abort();
        let err = Experiment::custom("aborted", programs.clone(), 1)
            .mesh(2, 2)
            .abort_on(handle)
            .run()
            .expect_err("a raised handle must abort the run");
        match err {
            SimError::Aborted { cycle } => assert!(cycle.as_u64() < 2048, "{cycle:?}"),
            other => panic!("expected Aborted, got {other:?}"),
        }

        // Never raised: the same workload completes normally and the
        // result matches a run with no handle at all.
        let with_handle = Experiment::custom("unaborted", programs.clone(), 1)
            .mesh(2, 2)
            .abort_on(AbortHandle::new())
            .run()
            .expect("unraised handle must not disturb the run");
        let without = Experiment::custom("unaborted", programs, 1)
            .mesh(2, 2)
            .run()
            .expect("plain run");
        assert!(with_handle.completed);
        assert_eq!(with_handle.roi_cycles, without.roi_cycles);
        assert_eq!(with_handle.cs_count, without.cs_count);
    }

    #[test]
    fn invack_summary_percentile() {
        let summary = InvAckSummary {
            mean: 0.0,
            max: 9,
            count: 10,
            histogram: {
                let mut h = vec![0u64; 16];
                for slot in h.iter_mut().take(10) {
                    *slot += 1;
                }
                h
            },
            per_core_mean: vec![],
        };
        assert_eq!(summary.percentile(50.0), 4);
        assert_eq!(summary.percentile(100.0), 9);
        let empty = InvAckSummary {
            mean: 0.0,
            max: 0,
            count: 0,
            histogram: vec![0; 4],
            per_core_mean: vec![],
        };
        assert_eq!(empty.percentile(95.0), 0);
    }
}
