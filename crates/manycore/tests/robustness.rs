//! Robustness-subsystem acceptance tests: the fault-injection harness
//! deliberately wedges or degrades the machine, and the watchdog /
//! invariant checker must catch the wedge with a report naming the
//! culprit — while every recoverable fault scenario still terminates
//! with the correct lock-handoff counts.

use inpg_locks::LockPrimitive;
use inpg_manycore::{
    InvariantViolation, LockPlacement, SimError, System, SystemConfig, ThreadProgram,
};
use inpg_noc::{BigRouterPlacement, FaultKind, FaultPlan, NocConfig};
use inpg_sim::{CoreId, LockId};

fn inpg_cfg(primitive: LockPrimitive) -> SystemConfig {
    let mut cfg = SystemConfig::baseline();
    cfg.noc = NocConfig {
        width: 4,
        height: 4,
        placement: BigRouterPlacement::All,
        ..NocConfig::baseline()
    };
    cfg.primitive = primitive;
    cfg.max_cycles = 3_000_000;
    cfg.sleep_entry_cycles = 200;
    cfg.wakeup_cycles = 300;
    cfg
}

fn hot_lock_programs(cores: usize, rounds: usize, compute: u64, cs: u64) -> Vec<ThreadProgram> {
    (0..cores).map(|_| ThreadProgram::new().rounds(rounds, compute, LockId::new(0), cs)).collect()
}

/// A TAS storm on one hot lock with every router big — the workload the
/// recoverable-fault scenarios run.
fn wedging_system(cfg: SystemConfig) -> System {
    let programs = hot_lock_programs(16, 4, 20, 20);
    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5))).unwrap()
}

/// A ticket-lock storm: spinners hold shared copies of the hot line, so
/// every acquire collects a full round of invalidation acknowledgements
/// — dropping one of those wedges the winner forever. The bug class
/// this subsystem exists to catch.
fn ticket_system(faults: FaultPlan, watchdog: Option<u64>, interval: Option<u64>) -> System {
    let mut cfg = inpg_cfg(LockPrimitive::Ticket);
    cfg.noc.faults = faults;
    cfg.watchdog_cycles = watchdog;
    cfg.invariant_check_interval = interval;
    let programs = hot_lock_programs(16, 8, 0, 10);
    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5))).unwrap()
}

/// Scans drop-ack ordinals until one wedges the ticket workload (early
/// acks whose relay the home never depends on are harmless; the first
/// load-bearing `InvAck` is not). The simulator is deterministic, so
/// the ordinal found here reproduces the identical wedge in the
/// watchdog test below.
fn first_wedging_ack_ordinal() -> u64 {
    for nth in 1..=64u64 {
        let mut system =
            ticket_system(FaultPlan::none().with(FaultKind::DropAck { nth }), None, Some(64));
        if system.run().is_err() {
            return nth;
        }
    }
    panic!("no dropped ack in 1..=64 wedged the ticket workload");
}

#[test]
fn dropped_invack_is_caught_by_the_invariant_checker() {
    let nth = first_wedging_ack_ordinal();
    let mut system =
        ticket_system(FaultPlan::none().with(FaultKind::DropAck { nth }), None, Some(64));
    match system.run() {
        Err(SimError::Invariant(InvariantViolation::AckConservation {
            cycle,
            core,
            addr,
            expected,
            received,
            ..
        })) => {
            assert!(cycle.as_u64() > 0);
            assert!(received < expected, "{received} acks must be short of {expected}");
            // The culprit line is the hot lock's cache block.
            let lock_addr = system.lock_primary(LockId::new(0));
            assert_eq!(addr.block(), lock_addr.block(), "violation must name the lock line");
            assert!(core.index() < 16);
            // The drop actually happened in the network.
            assert_eq!(system.noc_stats().acks_dropped_by_fault, 1);
        }
        other => panic!("expected an ack-conservation violation, got {other:?}"),
    }
}

#[test]
fn dropped_invack_is_caught_by_the_watchdog() {
    let nth = first_wedging_ack_ordinal();
    // Invariant checking deliberately off: the watchdog alone must
    // notice the machine has wedged.
    let mut system =
        ticket_system(FaultPlan::none().with(FaultKind::DropAck { nth }), Some(20_000), None);
    match system.run() {
        Err(SimError::Stall(report)) => {
            assert_eq!(report.window, 20_000);
            assert!(report.cycle.as_u64() >= 20_000);
            // The report names the wedged L1 transaction and the (empty)
            // network state the operator needs to diagnose the hang.
            assert!(report.detail.contains("l1 pending"), "detail:\n{}", report.detail);
            assert!(report.detail.contains("noc in flight: 0"), "detail:\n{}", report.detail);
            let rendered = report.to_string();
            assert!(rendered.contains("no forward progress for 20000 cycles"), "{rendered}");
        }
        other => panic!("expected a watchdog stall, got {other:?}"),
    }
}

#[test]
fn clean_run_passes_watchdog_and_invariant_checks() {
    let mut cfg = inpg_cfg(LockPrimitive::Tas);
    cfg.watchdog_cycles = Some(100_000);
    cfg.invariant_check_interval = Some(128);
    let mut system = wedging_system(cfg);
    let result = system.run().expect("fault-free run must pass every check");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), 16 * 4);
}

/// Every recoverable fault scenario must degrade gracefully: the run
/// terminates with the full lock-handoff count instead of hanging, and
/// the armed watchdog + invariant checker stay quiet throughout.
#[test]
fn recoverable_fault_scenarios_terminate_with_correct_handoff_counts() {
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        (
            "jitter",
            FaultPlan::none().seeded(7).with(FaultKind::DelayJitter { max_extra: 12 }),
        ),
        ("barrier-off", FaultPlan::none().with(FaultKind::BarrierOff { at_cycle: 2_000 })),
        ("ttl-storm", FaultPlan::none().with(FaultKind::TtlStorm { at_cycle: 1_500 })),
        ("ei-exhaust", FaultPlan::none().with(FaultKind::EiExhaust { capacity: 0 })),
    ];
    for (name, faults) in scenarios {
        let mut cfg = inpg_cfg(LockPrimitive::Tas);
        cfg.noc.faults = faults;
        cfg.watchdog_cycles = Some(200_000);
        cfg.invariant_check_interval = Some(256);
        let mut system = wedging_system(cfg);
        let result = system
            .run()
            .unwrap_or_else(|e| panic!("{name}: fault scenario must stay recoverable: {e}"));
        assert!(result.completed, "{name}: run must terminate");
        assert_eq!(system.cs_completed(), 16 * 4, "{name}: every lock handoff must complete");
    }
}

/// The degraded modes also hold for a sleep-capable primitive (QSL
/// exercises the wakeup path under faults).
#[test]
fn qsl_completes_under_jitter_and_barrier_off() {
    for faults in [
        FaultPlan::none().seeded(3).with(FaultKind::DelayJitter { max_extra: 8 }),
        FaultPlan::none().with(FaultKind::BarrierOff { at_cycle: 3_000 }),
    ] {
        let mut cfg = inpg_cfg(LockPrimitive::Qsl);
        cfg.noc.faults = faults;
        cfg.watchdog_cycles = Some(200_000);
        cfg.invariant_check_interval = Some(256);
        let programs = hot_lock_programs(16, 3, 100, 30);
        let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
        let result = system.run().expect("QSL must survive recoverable faults");
        assert!(result.completed);
        assert_eq!(system.cs_completed(), 16 * 3);
    }
}
