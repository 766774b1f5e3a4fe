//! Regression: the model checker's headline counterexample class — a
//! lost early-invalidation acknowledgement — replayed as a
//! deterministic scenario in the full timed simulator.
//!
//! The checker proves the abstract claim on the pure state machines:
//! lose one `EarlyInvAck` and the run quiesces with the inv/ack books
//! unbalanced (`Property::AckConservation`). The timed simulator plants
//! the same fault at the NoC level (`FaultKind::DropAck` swallows a
//! router-consumed early ack instead of relaying it) and its invariant
//! checker must catch the same conservation breakage. One bug class,
//! caught at both abstraction levels.

use inpg_analysis::{check, BugSeed, Config, Property, Verdict};
use inpg_locks::LockPrimitive;
use inpg_manycore::{
    InvariantViolation, LockPlacement, SimError, System, SystemConfig, ThreadProgram,
};
use inpg_noc::{BigRouterPlacement, FaultKind, FaultPlan, NocConfig};
use inpg_sim::{CoreId, LockId};

/// The ticket-lock storm from the robustness suite: spinners hold
/// shared copies of the hot line, so acquires collect invalidation
/// acknowledgements — the traffic pattern whose acks are load-bearing.
fn ticket_system(faults: FaultPlan) -> System {
    let mut cfg = SystemConfig::baseline();
    cfg.noc = NocConfig {
        width: 4,
        height: 4,
        placement: BigRouterPlacement::All,
        ..NocConfig::baseline()
    };
    cfg.primitive = LockPrimitive::Ticket;
    cfg.max_cycles = 3_000_000;
    cfg.sleep_entry_cycles = 200;
    cfg.wakeup_cycles = 300;
    cfg.noc.faults = faults;
    cfg.invariant_check_interval = Some(64);
    let programs: Vec<ThreadProgram> = (0..16)
        .map(|_| ThreadProgram::new().rounds(8, 0, LockId::new(0), 10))
        .collect();
    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5))).unwrap()
}

/// The abstract side: the checker finds a minimal trace from the
/// initial state to an unbalanced quiescent state.
#[test]
fn checker_flags_lost_early_ack_as_conservation_violation() {
    let mut cfg = Config::bounded(2, 1, true);
    cfg.bug = BugSeed::DropRelayedAck;
    let Verdict::Fail(cex) = check(&cfg) else {
        panic!("losing an early ack must violate a property");
    };
    assert!(
        matches!(cex.property, Property::AckConservation { .. } | Property::Deadlock),
        "wrong property: {}",
        cex.property
    );
    // The trace is executable: replaying it reproduces the violation.
    let rendered = cex.render(&cfg);
    assert!(
        rendered.trim_end().ends_with(&format!("violated: {}", cex.property)),
        "{rendered}"
    );
}

/// The concrete side: the same fault class planted in the timed NoC
/// wedges the winner, and the simulator's invariant checker names the
/// conservation breakage on the lock line. The simulator is
/// deterministic, so the first load-bearing ack ordinal found by the
/// scan reproduces identically.
#[test]
fn simulator_reproduces_the_lost_ack_counterexample_class() {
    let mut caught = None;
    for nth in 1..=64u64 {
        let mut system = ticket_system(FaultPlan::none().with(FaultKind::DropAck { nth }));
        if let Err(e) = system.run() {
            caught = Some((nth, e, system));
            break;
        }
    }
    let Some((nth, err, system)) = caught else {
        panic!("no dropped ack in 1..=64 wedged the ticket workload");
    };
    match err {
        SimError::Invariant(InvariantViolation::AckConservation {
            addr, expected, received, ..
        }) => {
            assert!(received < expected, "{received} acks must be short of {expected}");
            let lock_addr = system.lock_primary(LockId::new(0));
            assert_eq!(addr.block(), lock_addr.block(), "violation must name the lock line");
            assert_eq!(system.noc_stats().acks_dropped_by_fault, 1, "ordinal {nth} dropped once");
        }
        other => panic!("expected ack-conservation, got {other:?}"),
    }
}
