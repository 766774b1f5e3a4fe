//! Criterion benchmarks of the simulator substrates and of one scaled
//! exemplar per evaluation workload class. These measure *simulator*
//! performance (wall-clock per simulated workload) and keep every
//! figure's code path exercised under `cargo bench`; the figure
//! *contents* are regenerated by the `fig*` binaries (see README).

use criterion::{criterion_group, criterion_main, Criterion};
use inpg::manycore::{LockPlacement, System, SystemConfig};
use inpg::noc::packet::{OpaquePayload, Sink, VirtualNetwork};
use inpg::noc::{Message, Network, NocConfig};
use inpg::sim::{CoreId, Cycle};
use inpg::workloads::micro;
use inpg::{Experiment, LockPrimitive, Mechanism};
use std::hint::black_box;

/// Flit-level NoC under uniform-random traffic: cost of 10k cycles on an
/// 8x8 mesh with one packet injected per node per 100 cycles.
fn bench_noc(c: &mut Criterion) {
    c.bench_function("noc_8x8_uniform_10k_cycles", |b| {
        b.iter(|| {
            let mut network: Network<OpaquePayload> =
                Network::new(NocConfig::baseline()).expect("valid config");
            let mut now = Cycle::ZERO;
            for cycle in 0..10_000u64 {
                if cycle % 100 == 0 {
                    for src in 0..64usize {
                        network.send(
                            now,
                            Message {
                                src: CoreId::new(src),
                                dst: CoreId::new((src * 31 + cycle as usize) % 64),
                                sink: Sink::NetworkInterface,
                                vnet: VirtualNetwork::REQUEST,
                                flits: if src % 4 == 0 { 8 } else { 1 },
                                priority: 0,
                                payload: OpaquePayload,
                            },
                        );
                    }
                }
                network.tick(now);
                for node in 0..64usize {
                    while network.pop_delivered(CoreId::new(node)).is_some() {}
                }
                now = now.next();
            }
            black_box(network.stats().delivered)
        })
    });
}

/// Full system on a hot lock (the Figure 10 workload class), Original
/// vs iNPG.
fn bench_hot_lock(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_lock_64_threads");
    group.sample_size(10);
    for mechanism in [Mechanism::Original, Mechanism::Inpg] {
        group.bench_function(mechanism.to_string(), |b| {
            b.iter(|| {
                let cfg = mechanism.apply(SystemConfig::baseline());
                let programs = micro::hot_lock(64, 4, 500, 100);
                let mut system =
                    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(53)))
                        .expect("valid system");
                let result = system.run().expect("fault-free run");
                assert!(result.completed);
                black_box(result.cycles)
            })
        });
    }
    group.finish();
}

/// One benchmark-model point per figure class (Figures 2, 11-13), tiny
/// scale: exercises workload generation + all five primitives end to
/// end.
fn bench_figure_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_points");
    group.sample_size(10);
    for primitive in LockPrimitive::ALL {
        group.bench_function(format!("freq_{primitive}_inpg"), |b| {
            b.iter(|| {
                let r = Experiment::benchmark("freq")
                    .mechanism(Mechanism::Inpg)
                    .primitive(primitive)
                    .scale(0.01)
                    .run()
                    .expect("valid experiment");
                assert!(r.completed);
                black_box(r.roi_cycles)
            })
        });
    }
    group.finish();
}

/// Lock machines against a perfect memory (protocol-only cost).
fn bench_lock_machines(c: &mut Criterion) {
    use inpg::locks::{LockHandle, LockLayout, LockStep};
    use inpg::sim::Addr;
    c.bench_function("lock_machines_functional_1k_acquisitions", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for primitive in LockPrimitive::ALL {
                let words = LockLayout::words_needed(primitive, 4);
                let layout = LockLayout::new(
                    primitive,
                    4,
                    (0..words).map(|i| Addr::new(i as u64 * 128)).collect(),
                );
                let mut memory = std::collections::HashMap::new();
                for (a, v) in layout.initial_values() {
                    memory.insert(a, v);
                }
                let mut handle = LockHandle::new(layout, 0);
                for _ in 0..200 {
                    handle.begin_acquire();
                    loop {
                        match handle.step() {
                            LockStep::Issue(op) => {
                                let slot = memory.entry(op.addr).or_insert(0);
                                let old = *slot;
                                *slot = op.kind.apply(old);
                                handle.on_result(old);
                            }
                            LockStep::Pause(_) | LockStep::Notify { .. } => {}
                            LockStep::Sleep => unreachable!("uncontended"),
                            LockStep::Acquired => break,
                            LockStep::Released => unreachable!(),
                        }
                    }
                    handle.begin_release();
                    loop {
                        match handle.step() {
                            LockStep::Issue(op) => {
                                let slot = memory.entry(op.addr).or_insert(0);
                                let old = *slot;
                                *slot = op.kind.apply(old);
                                handle.on_result(old);
                            }
                            LockStep::Pause(_) | LockStep::Notify { .. } => {}
                            LockStep::Sleep => unreachable!(),
                            LockStep::Acquired => unreachable!(),
                            LockStep::Released => break,
                        }
                    }
                    total += 1;
                }
            }
            black_box(total)
        })
    });
}

/// Cost of the robustness subsystem: one protocol-invariant sweep over a
/// mid-flight contended system, and the end-to-end overhead of a hot-lock
/// run with the watchdog and periodic invariant checks armed.
fn bench_invariant_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("robustness");
    group.sample_size(10);

    // Advance a contended iNPG run partway so caches, directories, and
    // the network all carry live state when the sweep runs.
    let mut cfg = Mechanism::Inpg.apply(SystemConfig::baseline());
    cfg.max_cycles = 5_000;
    let programs = micro::hot_lock(64, 4, 500, 100);
    let mut warm =
        System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(53))).expect("valid system");
    warm.run().expect("fault-free run must pass every check");
    group.bench_function("invariant_sweep_mid_run", |b| {
        b.iter(|| {
            warm.check_protocol_invariants().expect("fault-free run must stay clean");
            black_box(warm.cs_completed())
        })
    });

    group.bench_function("checked_hot_lock_run", |b| {
        b.iter(|| {
            let mut cfg = Mechanism::Inpg.apply(SystemConfig::baseline());
            cfg.watchdog_cycles = Some(100_000);
            cfg.invariant_check_interval = Some(512);
            let programs = micro::hot_lock(64, 4, 500, 100);
            let mut system = System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(53)))
                .expect("valid system");
            let result = system.run().expect("fault-free run must pass every check");
            assert!(result.completed);
            black_box(result.cycles)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_noc, bench_hot_lock, bench_figure_points, bench_lock_machines, bench_invariant_checker);
criterion_main!(benches);
