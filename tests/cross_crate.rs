//! Workspace-level integration tests: exercise the full public API the
//! way the benchmark harness does, and pin the paper-shape properties
//! that must hold at any scale.

use inpg::manycore::{LockPlacement, System, SystemConfig};
use inpg::{LockPrimitive, Mechanism};
use inpg_campaign::cell::InvAckRecord;
use inpg_campaign::{CellConfig, CellRecord};

/// The smallest delay `v` such that at least `pct` percent of the round
/// trips are `<= v` (capped at the histogram's last bucket).
fn percentile(inv: &InvAckRecord, pct: f64) -> u64 {
    if inv.count == 0 {
        return 0;
    }
    let target = (inv.count as f64 * pct / 100.0).ceil() as u64;
    let mut seen = 0;
    for (v, &n) in inv.histogram.iter().enumerate() {
        seen += n;
        if seen >= target {
            return v as u64;
        }
    }
    inv.histogram.len().saturating_sub(1) as u64
}

fn invack(count: u64, histogram: Vec<u64>) -> InvAckRecord {
    InvAckRecord { mean: 0.0, max: 0, count, histogram, per_core_mean: vec![] }
}

#[test]
fn invack_percentile() {
    let ten = invack(10, vec![1; 10]);
    assert_eq!(percentile(&ten, 50.0), 4);
    assert_eq!(percentile(&ten, 100.0), 9);
    assert_eq!(percentile(&invack(0, vec![0; 4]), 95.0), 0);
}

/// A Figure-10 hot-lock cell: every core runs `rounds` rounds of 400
/// parallel cycles and an 80-cycle TAS critical section on one lock.
fn hot_lock(rounds: u64, mechanism: Mechanism) -> CellConfig {
    CellConfig { mechanism, ..CellConfig::hot_lock(rounds, 400, 80) }
}

fn small_benchmark(name: &str, mechanism: Mechanism) -> CellConfig {
    CellConfig { mechanism, width: 4, height: 4, scale: 0.05, ..CellConfig::benchmark(name) }
}

#[test]
fn table1_defaults_match_the_paper() {
    let cfg = inpg::SystemConfig::paper_default();
    assert_eq!(cfg.cores(), 64, "64 cores on an 8x8 mesh");
    assert_eq!(cfg.noc.width, 8);
    assert_eq!(cfg.noc.height, 8);
    assert_eq!(cfg.l1_hit_latency, 2, "2-cycle L1");
    assert_eq!(cfg.l2_latency, 6, "6-cycle L2");
    assert_eq!(cfg.retry_budget, 128, "128 retries in the spinning phase");
    assert_eq!(cfg.noc.vnets, 4, "4 virtual networks");
    assert_eq!(cfg.noc.vc_depth, 4, "4 flits per VC");
    assert_eq!(cfg.noc.data_flits, 8, "one cache block = one 8-flit packet");
    assert_eq!(cfg.noc.barrier_entries, 16, "16-entry locking barrier table");
    assert_eq!(cfg.noc.barrier_ttl, 128);
    assert_eq!(cfg.noc.placement.count(8, 8), 32, "32 big routers interleaved");
    assert_eq!(cfg.primitive, LockPrimitive::Qsl, "QSL is the default primitive");
}

#[test]
fn figure10_shape_inpg_flattens_invack_delays() {
    let home = 6 * 8 + 5; // tile (5,6) as in the paper
    let run = |mechanism: Mechanism| {
        CellConfig { lock_home: Some(home), ..hot_lock(6, mechanism) }.run().expect("valid cell")
    };
    let original = run(Mechanism::Original);
    let inpg = run(Mechanism::Inpg);
    assert!(original.completed && inpg.completed);
    assert!(original.invack.count > 0 && inpg.invack.count > 0);

    // iNPG shortens both the mean and the tail (p95 of the histogram —
    // the paper's "long tail is eliminated").
    assert!(
        inpg.invack.mean < original.invack.mean,
        "mean {:.1} !< {:.1}",
        inpg.invack.mean,
        original.invack.mean
    );
    assert!(
        percentile(&inpg.invack, 95.0) < percentile(&original.invack, 95.0),
        "p95 {} !< {}",
        percentile(&inpg.invack, 95.0),
        percentile(&original.invack, 95.0)
    );

    // Original delays grow with distance from the home tile; iNPG's
    // dependence is much weaker (the paper's Figures 10a vs 10c).
    let distance_spread = |r: &CellRecord| {
        let (hx, hy) = (5i32, 6i32);
        let mut near = Vec::new();
        let mut far = Vec::new();
        for (idx, mean) in r.invack.per_core_mean.iter().enumerate() {
            let Some(mean) = mean else { continue };
            let (x, y) = ((idx % 8) as i32, (idx / 8) as i32);
            let dist = (x - hx).abs() + (y - hy).abs();
            if dist <= 3 {
                near.push(*mean);
            } else if dist >= 7 {
                far.push(*mean);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        avg(&far) - avg(&near)
    };
    let orig_spread = distance_spread(&original);
    let inpg_spread = distance_spread(&inpg);
    assert!(
        orig_spread > 0.0,
        "Original delays should grow with distance (spread {orig_spread:.1})"
    );
    assert!(
        inpg_spread < orig_spread,
        "iNPG should flatten the distance dependence ({inpg_spread:.1} !< {orig_spread:.1})"
    );
}

#[test]
fn more_big_routers_stop_more_requests() {
    let mut stops_by_count = Vec::new();
    for count in [4usize, 16, 64] {
        let r = CellConfig { big_routers: Some(count), ..hot_lock(4, Mechanism::Inpg) }
            .run()
            .expect("valid cell");
        assert!(r.completed);
        stops_by_count.push(r.requests_stopped);
    }
    assert!(
        stops_by_count[0] < stops_by_count[2],
        "64 big routers should stop more than 4: {stops_by_count:?}"
    );
}

#[test]
fn experiment_results_are_deterministic() {
    let run = || small_benchmark("dedup", Mechanism::Inpg).run().expect("valid cell");
    let a = run();
    assert!(a.requests_stopped > 0);
    assert_eq!(a, run());
}

#[test]
fn all_mechanisms_and_primitives_complete_on_a_benchmark() {
    for mechanism in Mechanism::ALL {
        for primitive in [LockPrimitive::Tas, LockPrimitive::Qsl] {
            let r = CellConfig { primitive, ..small_benchmark("can", mechanism) }
                .run()
                .expect("valid cell");
            assert!(r.completed, "{mechanism}/{primitive}");
            assert!(r.cs_count > 0);
            let (p, c, s) = r.phase_shares();
            assert!((p + c + s - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn hardware_model_is_reachable_through_the_facade() {
    let chip = inpg::hardware::chip(&inpg::noc::NocConfig::paper_default());
    assert_eq!(chip.big_routers, 32);
    assert!(chip.power_overhead > 0.0 && chip.power_overhead < 0.01);
}

#[test]
fn parallel_only_workloads_are_untouched_by_mechanisms() {
    let programs = inpg::workloads::micro::embarrassingly_parallel(16, 5_000);
    let mut rois = Vec::new();
    for mechanism in Mechanism::ALL {
        let mut cfg = mechanism.apply(SystemConfig::baseline());
        cfg.noc.width = 4;
        cfg.noc.height = 4;
        let mut system = System::new(cfg, programs.clone(), 1, LockPlacement::Interleaved)
            .expect("valid system");
        let r = system.run().expect("fault-free run");
        assert!(r.completed);
        rois.push(r.cycles);
    }
    assert!(
        rois.iter().all(|&x| x == rois[0]),
        "no mechanism may perturb synchronization-free code: {rois:?}"
    );
}
