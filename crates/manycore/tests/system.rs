//! Full-system integration tests: every lock primitive runs to
//! completion on a contended mesh, critical sections never overlap, the
//! machine is deterministic, and iNPG's early invalidation actually
//! fires and pays off.

use inpg_locks::LockPrimitive;
use inpg_manycore::{LockPlacement, System, SystemConfig, ThreadProgram};
use inpg_noc::{BigRouterPlacement, NocConfig};
use inpg_sim::{CoreId, LockId};

fn small_cfg(primitive: LockPrimitive) -> SystemConfig {
    let mut cfg = SystemConfig::baseline();
    cfg.noc = NocConfig { width: 4, height: 4, ..NocConfig::baseline() };
    cfg.primitive = primitive;
    cfg.max_cycles = 3_000_000;
    // Keep the sleep path cheap so QSL tests stay fast.
    cfg.sleep_entry_cycles = 200;
    cfg.wakeup_cycles = 300;
    cfg
}

fn inpg_cfg(primitive: LockPrimitive) -> SystemConfig {
    let mut cfg = small_cfg(primitive);
    cfg.noc.placement = BigRouterPlacement::All;
    cfg
}

fn hot_lock_programs(cores: usize, rounds: usize, compute: u64, cs: u64) -> Vec<ThreadProgram> {
    (0..cores).map(|_| ThreadProgram::new().rounds(rounds, compute, LockId::new(0), cs)).collect()
}

/// Asserts that no two critical sections of the same run overlap in
/// time (mutual exclusion at the system level).
fn assert_no_cs_overlap(system: &System) {
    let mut intervals: Vec<(u64, u64, usize)> = Vec::new();
    for (t, counters) in system.thread_counters().iter().enumerate() {
        for r in &counters.cs_records {
            let end = r.finished_at.as_u64();
            let start = end - r.cse_cycles;
            intervals.push((start, end, t));
        }
    }
    intervals.sort_unstable();
    for pair in intervals.windows(2) {
        let (s0, e0, t0) = pair[0];
        let (s1, _, t1) = pair[1];
        assert!(
            s1 >= e0,
            "critical sections overlap: thread {t0} [{s0},{e0}) vs thread {t1} starting {s1}"
        );
    }
}

#[test]
fn every_primitive_completes_under_contention() {
    for primitive in LockPrimitive::ALL {
        let cfg = small_cfg(primitive);
        let programs = hot_lock_programs(16, 3, 100, 30);
        let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
        let result = system.run().expect("fault-free run");
        assert!(result.completed, "{primitive} did not finish in {} cycles", result.cycles);
        assert_eq!(system.cs_completed(), 16 * 3, "{primitive}");
        assert_no_cs_overlap(&system);
    }
}

#[test]
fn every_primitive_completes_with_inpg() {
    for primitive in LockPrimitive::ALL {
        let cfg = inpg_cfg(primitive);
        let programs = hot_lock_programs(16, 3, 100, 30);
        let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
        let result = system.run().expect("fault-free run");
        assert!(result.completed, "{primitive}+iNPG did not finish");
        assert_eq!(system.cs_completed(), 16 * 3, "{primitive}+iNPG");
        assert_no_cs_overlap(&system);
    }
}

#[test]
fn qsl_with_ocor_completes() {
    let cfg = small_cfg(LockPrimitive::Qsl).with_ocor(true);
    let programs = hot_lock_programs(16, 3, 50, 20);
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), 48);
    assert_no_cs_overlap(&system);
}

#[test]
fn inpg_plus_ocor_completes() {
    let cfg = inpg_cfg(LockPrimitive::Qsl).with_ocor(true);
    let programs = hot_lock_programs(16, 3, 50, 20);
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), 48);
    assert_no_cs_overlap(&system);
}

#[test]
fn inpg_stops_requests_and_reduces_roundtrips_under_tas() {
    // TAS on a hot lock generates the GetX storms iNPG targets.
    let programs = hot_lock_programs(16, 4, 20, 20);

    let mut baseline =
        System::new(small_cfg(LockPrimitive::Tas), programs.clone(), 1, LockPlacement::At(CoreId::new(5)))
            .unwrap();
    let base_result = baseline.run().expect("fault-free run");
    assert!(base_result.completed);

    let mut inpg =
        System::new(inpg_cfg(LockPrimitive::Tas), programs, 1, LockPlacement::At(CoreId::new(5)))
            .unwrap();
    let inpg_result = inpg.run().expect("fault-free run");
    assert!(inpg_result.completed);

    // The mechanism must actually fire.
    let stops = inpg.barrier_stats().requests_stopped;
    assert!(stops > 0, "no GetX was ever stopped by a big router");
    assert!(
        inpg.barrier_stats().acks_relayed > 0,
        "no early acknowledgement was ever relayed"
    );

    // The early round trips should be visibly shorter on average.
    let base_rt = baseline.invack_roundtrips();
    let inpg_rt = inpg.invack_roundtrips();
    assert!(base_rt.total_count() > 0);
    assert!(inpg_rt.total_count() > 0);
    assert!(
        inpg_rt.mean() < base_rt.mean(),
        "iNPG mean Inv-Ack round trip {:.1} not below baseline {:.1}",
        inpg_rt.mean(),
        base_rt.mean()
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let cfg = small_cfg(LockPrimitive::Mcs);
        let programs = hot_lock_programs(16, 2, 75, 25);
        let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
        let result = system.run().expect("fault-free run");
        (result.cycles, system.cs_completed(), system.noc_stats().delivered)
    };
    assert_eq!(run(), run());
}

#[test]
fn multiple_locks_interleave() {
    let cfg = small_cfg(LockPrimitive::Ticket);
    let programs: Vec<ThreadProgram> = (0..16)
        .map(|t| {
            ThreadProgram::new()
                .compute(10)
                .critical(LockId::new(t % 3), 15)
                .compute(10)
                .critical(LockId::new((t + 1) % 3), 15)
        })
        .collect();
    let mut system = System::new(cfg, programs, 3, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), 32);
}

#[test]
fn phase_accounting_is_consistent() {
    let cfg = small_cfg(LockPrimitive::Mcs);
    let programs = hot_lock_programs(16, 2, 100, 25);
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    for (t, c) in system.thread_counters().iter().enumerate() {
        // Each thread did 2 * 100 parallel cycles.
        assert_eq!(c.parallel_cycles, 200, "thread {t}");
        // CSE at least the programmed bodies (plus release protocol).
        assert!(c.cse_cycles >= 2 * 25, "thread {t} cse={}", c.cse_cycles);
        assert_eq!(c.cs_records.len(), 2);
        // Total accounted cycles equal the thread's lifetime.
        let finish = c.parallel_cycles + c.coh_cycles + c.cse_cycles;
        assert!(finish <= result.cycles, "thread {t} accounted {finish} of {}", result.cycles);
    }
}

#[test]
fn timeline_matches_counters() {
    let mut cfg = small_cfg(LockPrimitive::Mcs);
    cfg.record_timeline = true;
    let programs = hot_lock_programs(16, 2, 100, 25);
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    let timeline = system.timeline().expect("timeline enabled");
    let (p, c, s) = timeline.shares(
        inpg_sim::Cycle::ZERO,
        inpg_sim::Cycle::new(result.cycles),
        None,
    );
    assert!((p + c + s - 1.0).abs() < 1e-9);
    assert!(p > 0.0 && c > 0.0 && s > 0.0);
}

#[test]
fn lock_homed_at_requested_tile() {
    let cfg = small_cfg(LockPrimitive::Tas);
    let programs = hot_lock_programs(16, 1, 10, 10);
    let system = System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(9))).unwrap();
    let primary = system.lock_primary(LockId::new(0));
    assert_eq!(system.home_of(primary), CoreId::new(9));
}

#[test]
fn rejects_bad_inputs() {
    let cfg = small_cfg(LockPrimitive::Tas);
    // Wrong program count.
    assert!(System::new(cfg.clone(), hot_lock_programs(3, 1, 1, 1), 1, LockPlacement::Interleaved)
        .is_err());
    // Lock out of range.
    let programs: Vec<ThreadProgram> =
        (0..16).map(|_| ThreadProgram::new().critical(LockId::new(5), 1)).collect();
    assert!(System::new(cfg, programs, 1, LockPlacement::Interleaved).is_err());
}

/// After a completed run the lock data structures must be in their
/// quiescent state: these invariants catch lost updates, double grants,
/// and protocol value corruption end to end.
#[test]
fn lock_word_final_state_invariants() {
    let threads = 16usize;
    let rounds = 4usize;
    for primitive in LockPrimitive::ALL {
        for big in [false, true] {
            let cfg = if big { inpg_cfg(primitive) } else { small_cfg(primitive) };
            let programs = hot_lock_programs(threads, rounds, 60, 20);
            let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
            let result = system.run().expect("fault-free run");
            assert!(result.completed, "{primitive} big={big}");
            let total = (threads * rounds) as u64;
            let word = system.read_word(system.lock_primary(inpg_sim::LockId::new(0)));
            match primitive {
                LockPrimitive::Tas | LockPrimitive::Qsl => {
                    assert_eq!(word, 0, "{primitive}: lock must end released");
                }
                LockPrimitive::Ticket => {
                    assert_eq!(word >> 32, total, "{primitive}: tickets taken");
                    assert_eq!(word & 0xFFFF_FFFF, total, "{primitive}: tickets served");
                }
                LockPrimitive::Abql => {
                    assert_eq!(word, total, "{primitive}: tail counts acquisitions");
                }
                LockPrimitive::Mcs => {
                    assert_eq!(word, 0, "{primitive}: tail must end null");
                }
            }
        }
    }
}

/// ABQL's tail must count every acquisition exactly once (lost or
/// duplicated baton passes would desynchronize it).
#[test]
fn abql_tail_counts_every_acquisition() {
    let threads = 16usize;
    let rounds = 3usize;
    let cfg = small_cfg(LockPrimitive::Abql);
    let programs = hot_lock_programs(threads, rounds, 60, 20);
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    assert!(system.run().expect("fault-free run").completed);
    let word = system.read_word(system.lock_primary(inpg_sim::LockId::new(0)));
    assert_eq!(word, (threads * rounds) as u64);
}

/// Force the QSL sleep path (tiny retry budget, long critical sections)
/// and check that threads actually deschedule, get woken by the
/// release's invalidation, and the run still completes exactly.
#[test]
fn qsl_sleep_path_is_exercised_and_correct() {
    let mut cfg = small_cfg(LockPrimitive::Qsl);
    cfg.retry_budget = 4;
    cfg.sleep_entry_cycles = 50;
    cfg.wakeup_cycles = 80;
    let programs = hot_lock_programs(16, 3, 50, 400);
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), 48);
    assert_no_cs_overlap(&system);
    let slept: u64 = system.thread_counters().iter().map(|c| c.sleep_cycles).sum();
    assert!(slept > 0, "long CSs with a 4-retry budget must cause sleeping");
    // Lock released at the end.
    assert_eq!(system.read_word(system.lock_primary(inpg_sim::LockId::new(0))), 0);
}

/// COH must include descheduled time: a sleeping thread is still
/// competing (the paper counts context switch & sleep in COH).
#[test]
fn sleep_time_is_counted_as_competition() {
    let mut cfg = small_cfg(LockPrimitive::Qsl);
    cfg.retry_budget = 4;
    let programs = hot_lock_programs(16, 2, 50, 500);
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    assert!(system.run().expect("fault-free run").completed);
    for (t, c) in system.thread_counters().iter().enumerate() {
        assert!(
            c.sleep_cycles <= c.coh_cycles,
            "thread {t}: sleep {} exceeds COH {}",
            c.sleep_cycles,
            c.coh_cycles
        );
    }
}

/// Mixed workloads where some threads have empty programs must still
/// complete and account phases sanely.
#[test]
fn empty_and_mixed_programs_complete() {
    let cfg = small_cfg(LockPrimitive::Tas);
    let programs: Vec<ThreadProgram> = (0..16)
        .map(|t| match t % 3 {
            0 => ThreadProgram::new(),
            1 => ThreadProgram::new().compute(500),
            _ => ThreadProgram::new().rounds(2, 50, LockId::new(0), 10),
        })
        .collect();
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), 5 * 2);
    // Threads with empty programs finish at cycle 0.
    let counters = system.thread_counters();
    assert_eq!(counters[0].total(), 0);
}

/// A 1x1 "mesh": one core, no network hops, everything still works.
#[test]
fn single_core_degenerate_mesh() {
    let mut cfg = SystemConfig::baseline();
    cfg.noc = NocConfig { width: 1, height: 1, ..NocConfig::baseline() };
    cfg.primitive = LockPrimitive::Qsl;
    let programs = vec![ThreadProgram::new().rounds(3, 20, LockId::new(0), 15)];
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), 3);
}

/// Zero-cycle critical sections: acquire and release back-to-back.
#[test]
fn zero_length_critical_sections() {
    let cfg = small_cfg(LockPrimitive::Mcs);
    let programs = hot_lock_programs(16, 3, 25, 0);
    let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved).unwrap();
    let result = system.run().expect("fault-free run");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), 48);
}
