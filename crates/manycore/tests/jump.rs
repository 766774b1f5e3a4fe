//! `System::run` jumps `now` over cycles in which nothing can happen.
//! These tests hold it to a hand-stepped `try_tick` loop that applies
//! the same abort poll, watchdog and invariant checks every cycle: on
//! workloads with long compute gaps, every result field and every stats
//! tap must match, and so must every error — an abort, a `max_cycles`
//! cut-off, a watchdog stall, an invariant violation and a fault
//! scheduled inside a gap land on the same cycle with the same report.

use inpg_locks::LockPrimitive;
use inpg_manycore::{LockPlacement, RunResult, SimError, System, SystemConfig, ThreadProgram};
use inpg_noc::{BigRouterPlacement, FaultKind, FaultPlan, NocConfig};
use inpg_sim::{AbortHandle, CoreId, LockId, Watchdog};

/// A 4×4 machine with every router big.
fn gap_cfg(primitive: LockPrimitive) -> SystemConfig {
    let mut cfg = SystemConfig::baseline();
    cfg.noc = NocConfig {
        width: 4,
        height: 4,
        placement: BigRouterPlacement::All,
        ..NocConfig::baseline()
    };
    cfg.primitive = primitive;
    cfg.max_cycles = 2_000_000;
    cfg.record_timeline = true;
    cfg
}

/// Lock rounds separated by long, staggered compute phases, so the
/// network drains and sits quiet for thousands of cycles at a time.
fn gap_system(cfg: SystemConfig) -> System {
    let programs = (0..16u64)
        .map(|c| {
            ThreadProgram::new()
                .compute(1_500 + 97 * c)
                .rounds(3, 2_600 + 131 * (c % 5), LockId::new(0), 30)
        })
        .collect();
    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5))).expect("valid system")
}

/// `System::run` without the jump: one `try_tick` per cycle, with the
/// abort poll, the watchdog and the invariant interval applied exactly
/// as `run` documents them.
fn stepped(system: &mut System, abort: Option<&AbortHandle>) -> Result<RunResult, SimError> {
    let cfg = system.config().clone();
    let mut watchdog = cfg.watchdog_cycles.map(Watchdog::new);
    while !system.all_done() && system.now().as_u64() < cfg.max_cycles {
        if system.now().as_u64() & 0x3ff == 0 && abort.is_some_and(AbortHandle::is_aborted) {
            return Err(SimError::Aborted { cycle: system.now() });
        }
        system.try_tick()?;
        if let Some(dog) = watchdog.as_mut() {
            if dog.observe(system.now(), system.progress_metric()) {
                return Err(SimError::Stall(system.stall_report(dog.window())));
            }
        }
        if let Some(k) = cfg.invariant_check_interval {
            if system.now().as_u64().is_multiple_of(k) {
                system.check_protocol_invariants().map_err(SimError::Invariant)?;
            }
        }
    }
    Ok(RunResult { cycles: system.now().as_u64(), completed: system.all_done() })
}

/// Every measurement tap of a finished (or stopped) system.
fn taps(system: &System) -> String {
    format!(
        "now {:?}\ncounters {:?}\ntimeline {:?}\nroi {:?}\ncs {}\ninvack {:?}\nnoc {:?}\n\
         barrier {:?}\nlco {:?}\nl1 {:?}\nhome {:?}\nsleeping {}\nprogress {}",
        system.now(),
        system.thread_counters(),
        system.timeline(),
        system.roi_finish(),
        system.cs_completed(),
        system.invack_roundtrips_split(),
        system.noc_stats(),
        system.barrier_stats(),
        system.lco_cycles(),
        system.l1_stats(),
        system.home_stats(),
        system.sleeping_threads(),
        system.progress_metric(),
    )
}

/// Runs one copy of the system `build` makes from `cfg` with `run` and
/// one stepped, and expects the same outcome and the same taps. Returns
/// the outcome and the system that ran.
fn run_and_step_with(
    cfg: SystemConfig,
    build: fn(SystemConfig) -> System,
) -> (Result<RunResult, SimError>, System) {
    let mut jumped = build(cfg.clone());
    let mut reference = build(cfg);
    let got = jumped.run();
    let want = stepped(&mut reference, None);
    assert_eq!(got, want, "run outcome");
    assert_eq!(taps(&jumped), taps(&reference), "stats taps");
    (got, jumped)
}

fn assert_run_matches_stepping(cfg: SystemConfig) -> Result<RunResult, SimError> {
    run_and_step_with(cfg, gap_system).0
}

#[test]
fn run_matches_stepping_across_long_compute_gaps() {
    for primitive in
        [LockPrimitive::Tas, LockPrimitive::Ticket, LockPrimitive::Abql, LockPrimitive::Mcs]
    {
        for ocor in [false, true] {
            let result = assert_run_matches_stepping(gap_cfg(primitive).with_ocor(ocor))
                .expect("fault-free run");
            assert!(result.completed, "{primitive:?} completes");
            assert!(result.cycles > 10_000, "the gaps dominate: {result:?}");
        }
    }
}

#[test]
fn queue_spin_lock_sleep_and_wakeup_match_stepping() {
    let mut cfg = gap_cfg(LockPrimitive::Qsl);
    cfg.sleep_entry_cycles = 200;
    cfg.wakeup_cycles = 300;
    let result = assert_run_matches_stepping(cfg).expect("fault-free run");
    assert!(result.completed);
}

#[test]
fn an_abort_raised_before_an_idle_gap_fires_at_the_same_poll() {
    let cfg = gap_cfg(LockPrimitive::Tas);
    let mut jumped = gap_system(cfg.clone());
    let mut reference = gap_system(cfg);
    // Both systems are quiet in their first compute phase; raise the
    // flag there, well before the first poll at cycle 1024.
    for system in [&mut jumped, &mut reference] {
        while system.now().as_u64() < 700 {
            system.try_tick().expect("tick");
        }
        assert_eq!(system.noc_stats().in_flight, 0, "inside the gap");
    }
    let handle = AbortHandle::new();
    jumped.set_abort(handle.clone());
    handle.abort();
    let got = jumped.run();
    assert_eq!(got, stepped(&mut reference, Some(&handle)));
    assert_eq!(got, Err(SimError::Aborted { cycle: inpg_sim::Cycle::new(1024) }));
    assert_eq!(taps(&jumped), taps(&reference));
}

#[test]
fn a_max_cycles_cut_off_inside_a_gap_lands_on_the_same_cycle() {
    let mut cfg = gap_cfg(LockPrimitive::Tas);
    cfg.max_cycles = 1_234;
    let result = assert_run_matches_stepping(cfg).expect("cut off, not failed");
    assert_eq!(result, RunResult { cycles: 1_234, completed: false });
}

#[test]
fn the_watchdog_fires_inside_a_gap_on_the_same_cycle() {
    let mut cfg = gap_cfg(LockPrimitive::Tas);
    cfg.watchdog_cycles = Some(700);
    match assert_run_matches_stepping(cfg) {
        Err(SimError::Stall(report)) => assert_eq!(report.window, 700),
        other => panic!("a quiet gap longer than the window stalls: {other:?}"),
    }
    let mut cfg = gap_cfg(LockPrimitive::Tas);
    cfg.watchdog_cycles = Some(20_000);
    assert!(assert_run_matches_stepping(cfg).expect("no stall").completed);
}

/// One core takes the lock at once, computes for a long time, then
/// takes it again; the others have nothing to do.
fn early_locker(cfg: SystemConfig) -> System {
    let programs = (0..16)
        .map(|c| {
            let lock = LockId::new(0);
            if c == 2 {
                ThreadProgram::new().critical(lock, 30).compute(10_000).critical(lock, 30)
            } else {
                ThreadProgram::new()
            }
        })
        .collect();
    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5))).expect("valid system")
}

#[test]
fn a_run_resumed_inside_a_gap_watches_from_its_first_cycle() {
    // Stepped past the first critical section, the machine has made
    // progress the fresh watchdog of `run` has not seen yet. The first
    // observe restarts the window, so the stall lands one window after
    // the first stepped cycle, not one window after cycle 0.
    let mut cfg = gap_cfg(LockPrimitive::Tas);
    cfg.watchdog_cycles = Some(1_000);
    let mut jumped = early_locker(cfg.clone());
    let mut reference = early_locker(cfg);
    for system in [&mut jumped, &mut reference] {
        while system.cs_completed() == 0 || system.noc_stats().in_flight > 0 {
            system.try_tick().expect("tick");
        }
    }
    let start = jumped.now();
    assert!(start.as_u64() < 1_000, "resumed inside the first window: {start}");
    let got = jumped.run();
    assert_eq!(got, stepped(&mut reference, None));
    match got {
        Err(SimError::Stall(report)) => assert_eq!(report.cycle, start + 1_001),
        other => panic!("the long gap stalls: {other:?}"),
    }
}

#[test]
fn invariant_checks_inside_gaps_match_stepping() {
    for k in [1, 64, 1_000, 4_096] {
        let mut cfg = gap_cfg(LockPrimitive::Ticket);
        cfg.invariant_check_interval = Some(k);
        assert!(assert_run_matches_stepping(cfg).expect("consistent run").completed);
    }
}

#[test]
fn faults_scheduled_inside_a_gap_fire_as_when_stepping() {
    let faults = [
        FaultKind::TtlStorm { at_cycle: 900 },
        FaultKind::BarrierOff { at_cycle: 1_000 },
        FaultKind::RouterFail { at_cycle: 1_100 },
        FaultKind::TtlStorm { at_cycle: 5_000 },
        FaultKind::BarrierOff { at_cycle: 6_500 },
    ];
    for fault in faults {
        let mut cfg = gap_cfg(LockPrimitive::Tas);
        cfg.noc.faults = FaultPlan::none().with(fault);
        cfg.watchdog_cycles = Some(100_000);
        cfg.invariant_check_interval = Some(128);
        assert!(assert_run_matches_stepping(cfg).expect("degrades gracefully").completed);
    }
}

/// Three cores take a lock a few times between long compute phases;
/// the others have nothing to do, so the network is quiet while a
/// locker waits on a lost request.
fn few_lockers(cfg: SystemConfig) -> System {
    let programs = (0..16u64)
        .map(|c| match c {
            2 | 9 | 10 => ThreadProgram::new().compute(100 * c).rounds(
                4,
                1_500 + 300 * c,
                LockId::new(0),
                30,
            ),
            _ => ThreadProgram::new(),
        })
        .collect();
    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5))).expect("valid system")
}

#[test]
fn recovery_deadlines_inside_gaps_match_stepping() {
    // A request lost on the link is retransmitted when its L1's
    // recovery deadline passes, inside a quiet gap the jump must stop at.
    for nth in 1..=4 {
        let mut cfg = gap_cfg(LockPrimitive::Ticket).with_recovery(true);
        cfg.noc.faults = FaultPlan::none().with(FaultKind::LinkDrop { nth });
        cfg.recovery_timeout = 400;
        let (result, system) = run_and_step_with(cfg, few_lockers);
        assert!(result.expect("recovers").completed, "link-drop:{nth}");
        assert_eq!(system.l1_stats().retransmits, 1, "link-drop:{nth}");
    }
}
