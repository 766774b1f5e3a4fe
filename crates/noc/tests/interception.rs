//! End-to-end tests of big-router interception with a miniature
//! lock-aware payload, independent of the real coherence protocol.

use inpg_noc::packet::{EarlyAck, LockRequest, PacketGenPayload, Sink, VirtualNetwork};
use inpg_noc::{BigRouterPlacement, FaultKind, FaultPlan, Message, Network, NocConfig};
use inpg_sim::{Addr, CoreId, Cycle};

/// A toy protocol: lock GetX requests, invalidations, and acks.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TestMsg {
    LockGetx { addr: Addr, requester: CoreId, home: CoreId },
    FwdGetx { addr: Addr, requester: CoreId, home: CoreId },
    EarlyInv { addr: Addr, target: CoreId, home: CoreId, ack_router: CoreId },
    EarlyInvAck { addr: Addr, from: CoreId, home: CoreId, inv_sent_at: Cycle },
    RelayedAck { addr: Addr, from: CoreId },
}

impl PacketGenPayload for TestMsg {
    fn as_lock_request(&self) -> Option<LockRequest> {
        match *self {
            TestMsg::LockGetx { addr, requester, home } => {
                Some(LockRequest { addr, requester, home })
            }
            _ => None,
        }
    }

    fn as_early_ack(&self) -> Option<EarlyAck> {
        match *self {
            TestMsg::EarlyInvAck { addr, from, home, inv_sent_at } => {
                Some(EarlyAck { addr, from, home, inv_sent_at })
            }
            _ => None,
        }
    }

    fn early_inv(request: LockRequest, ack_router: CoreId, _now: Cycle) -> Self {
        TestMsg::EarlyInv {
            addr: request.addr,
            target: request.requester,
            home: request.home,
            ack_router,
        }
    }

    fn forwarded_getx(&self, _now: Cycle) -> Self {
        match *self {
            TestMsg::LockGetx { addr, requester, home } => {
                TestMsg::FwdGetx { addr, requester, home }
            }
            ref other => other.clone(),
        }
    }

    fn relayed_ack(ack: EarlyAck, _now: Cycle) -> Self {
        TestMsg::RelayedAck { addr: ack.addr, from: ack.from }
    }
}

fn getx(src: usize, home: usize, addr: u64) -> Message<TestMsg> {
    Message {
        src: CoreId::new(src),
        dst: CoreId::new(home),
        sink: Sink::NetworkInterface,
        vnet: VirtualNetwork::REQUEST,
        flits: 1,
        priority: 0,
        payload: TestMsg::LockGetx {
            addr: Addr::new(addr),
            requester: CoreId::new(src),
            home: CoreId::new(home),
        },
    }
}

/// Runs `network` for `cycles`, returning everything delivered as
/// `(cycle, dst, payload)` triples.
fn run(network: &mut Network<TestMsg>, cycles: u64) -> Vec<(u64, usize, TestMsg)> {
    let mut out = Vec::new();
    let mut now = Cycle::ZERO;
    for _ in 0..cycles {
        network.tick(now);
        for node in 0..network.config().nodes() {
            while let Some(p) = network.pop_delivered(CoreId::new(node)) {
                out.push((now.as_u64(), node, p.payload));
            }
        }
        now = now.next();
    }
    out
}

#[test]
fn all_big_single_getx_passes_untouched() {
    let cfg = NocConfig { placement: BigRouterPlacement::All, ..NocConfig::paper_default() };
    let mut network = Network::new(cfg).unwrap();
    network.send(Cycle::ZERO, getx(0, 63, 0x1000));
    let delivered = run(&mut network, 200);
    assert_eq!(delivered.len(), 1);
    assert!(matches!(delivered[0].2, TestMsg::LockGetx { .. }));
    assert_eq!(delivered[0].1, 63);
    // The single GetX installed barriers along its path but stopped nothing.
    assert!(network.barrier_stats().barriers_installed > 0);
    assert_eq!(network.barrier_stats().requests_stopped, 0);
}

#[test]
fn second_getx_on_same_path_is_stopped_and_early_invalidated() {
    // Two requesters on the same row as the home node, so their XY paths
    // share every router between the later requester and the home.
    let cfg = NocConfig { placement: BigRouterPlacement::All, ..NocConfig::paper_default() };
    let mut network = Network::new(cfg).unwrap();
    let home = 7; // (7,0)
    network.send(Cycle::ZERO, getx(0, home, 0x2000));
    network.send(Cycle::ZERO, getx(2, home, 0x2000));
    let delivered = run(&mut network, 400);

    // Exactly one of the requesters loses and is early-invalidated.
    let invs: Vec<_> = delivered
        .iter()
        .filter(|(_, _, p)| matches!(p, TestMsg::EarlyInv { .. }))
        .collect();
    assert_eq!(invs.len(), 1, "one loser early-invalidated: {delivered:?}");
    let TestMsg::EarlyInv { addr, target, ack_router, .. } = invs[0].2.clone() else {
        unreachable!()
    };
    let loser = target.index();
    assert_eq!(invs[0].1, loser, "Inv delivered to the loser");
    assert_eq!(addr, Addr::new(0x2000));
    assert!(ack_router.index() < 8, "ack router on the shared row, got {ack_router}");
    let winner = if loser == 0 { 2 } else { 0 };

    // The home node receives the winner's GetX and the loser's FwdGetX.
    assert!(delivered
        .iter()
        .any(|(_, node, p)| *node == home
            && matches!(p, TestMsg::LockGetx { requester, .. } if requester.index() == winner)));
    assert!(delivered.iter().any(|(_, node, p)| *node == home
        && matches!(p, TestMsg::FwdGetx { requester, .. } if requester.index() == loser)));
    assert_eq!(network.barrier_stats().requests_stopped, 1);
}

#[test]
fn early_ack_is_relayed_to_home() {
    let cfg = NocConfig { placement: BigRouterPlacement::All, ..NocConfig::paper_default() };
    let mut network = Network::new(cfg).unwrap();
    let home = 7;
    network.send(Cycle::ZERO, getx(0, home, 0x2000));
    network.send(Cycle::ZERO, getx(2, home, 0x2000));

    // Drive the network; when the loser receives the EarlyInv, answer it
    // with an EarlyInvAck addressed to the generating router.
    let mut now = Cycle::ZERO;
    let mut relayed = None;
    let mut loser = None;
    for _ in 0..600 {
        network.tick(now);
        for node in 0..64 {
            while let Some(p) = network.pop_delivered(CoreId::new(node)) {
                match p.payload {
                    TestMsg::EarlyInv { addr, target, home, ack_router } => {
                        assert_eq!(target.index(), node);
                        loser = Some(target);
                        network.send(
                            now,
                            Message {
                                src: target,
                                dst: ack_router,
                                sink: Sink::Router,
                                vnet: VirtualNetwork::RESPONSE,
                                flits: 1,
                                priority: 0,
                                payload: TestMsg::EarlyInvAck {
                                    addr,
                                    from: target,
                                    home,
                                    inv_sent_at: now,
                                },
                            },
                        );
                    }
                    TestMsg::RelayedAck { addr, from } => {
                        relayed = Some((node, addr, from));
                    }
                    _ => {}
                }
            }
        }
        now = now.next();
    }
    let (node, addr, from) = relayed.expect("relayed ack reached the home node");
    assert_eq!(node, home);
    assert_eq!(addr, Addr::new(0x2000));
    assert_eq!(Some(from), loser, "relayed ack names the early-invalidated core");
    assert_eq!(network.barrier_stats().acks_relayed, 1);
    assert_eq!(network.in_flight(), 0);
}

#[test]
fn no_big_routers_means_no_interception() {
    let mut network = Network::new(NocConfig::baseline()).unwrap();
    network.send(Cycle::ZERO, getx(0, 7, 0x2000));
    network.send(Cycle::new(6), getx(2, 7, 0x2000));
    let delivered = run(&mut network, 300);
    let getx_count = delivered
        .iter()
        .filter(|(_, node, p)| *node == 7 && matches!(p, TestMsg::LockGetx { .. }))
        .count();
    assert_eq!(getx_count, 2, "both GetX reach home untouched");
    assert_eq!(network.stats().generated_packets, 0);
}

#[test]
#[should_panic(expected = "without a packet generator")]
fn a_router_sink_packet_to_a_normal_router_is_rejected() {
    // No big routers at all: an early ack addressed to any router would
    // sit at the head of its VC forever, so `send` must refuse it.
    let mut network = Network::new(NocConfig::baseline()).unwrap();
    network.send(
        Cycle::ZERO,
        Message {
            src: CoreId::new(0),
            dst: CoreId::new(9),
            sink: Sink::Router,
            vnet: VirtualNetwork::RESPONSE,
            flits: 1,
            priority: 0,
            payload: TestMsg::EarlyInvAck {
                addr: Addr::new(0x2000),
                from: CoreId::new(0),
                home: CoreId::new(7),
                inv_sent_at: Cycle::ZERO,
            },
        },
    );
}

#[test]
fn getx_ejecting_at_home_router_is_not_stopped() {
    // A big router at the home node must not intercept requests that are
    // about to eject there; arbitration happens at the home node itself.
    let cfg = NocConfig { placement: BigRouterPlacement::All, ..NocConfig::paper_default() };
    let mut network = Network::new(cfg).unwrap();
    let home = 9;
    // Both requesters are direct neighbours of home; their only shared
    // router is the home router itself (one hop each).
    network.send(Cycle::ZERO, getx(8, home, 0x3000));
    network.send(Cycle::ZERO, getx(10, home, 0x3000));
    let delivered = run(&mut network, 300);
    let getx_count = delivered
        .iter()
        .filter(|(_, node, p)| {
            *node == home && matches!(p, TestMsg::LockGetx { .. } | TestMsg::FwdGetx { .. })
        })
        .count();
    // Neither may be converted: both must arrive as original GetX.
    let fwd_count = delivered
        .iter()
        .filter(|(_, node, p)| *node == home && matches!(p, TestMsg::FwdGetx { .. }))
        .count();
    assert_eq!(getx_count, 2);
    assert_eq!(fwd_count, 0);
}

#[test]
fn barrier_table_size_one_still_works() {
    let cfg = NocConfig {
        placement: BigRouterPlacement::All,
        barrier_entries: 1,
        ..NocConfig::paper_default()
    };
    let mut network = Network::new(cfg).unwrap();
    // Two different locks from the same source row; table of 1 barrier
    // per router can hold only one of them at a time.
    network.send(Cycle::ZERO, getx(0, 7, 0x1000));
    network.send(Cycle::ZERO, getx(1, 7, 0x2000));
    network.send(Cycle::new(8), getx(2, 7, 0x1000));
    network.send(Cycle::new(8), getx(3, 7, 0x2000));
    let delivered = run(&mut network, 500);
    // Every request is accounted for at home: as GetX or FwdGetX.
    let at_home = delivered
        .iter()
        .filter(|(_, node, p)| {
            *node == 7 && matches!(p, TestMsg::LockGetx { .. } | TestMsg::FwdGetx { .. })
        })
        .count();
    assert_eq!(at_home, 4);
}

#[test]
fn ei_pool_exhaustion_fault_degrades_to_pass_through() {
    // With the EI pool clamped to zero, barriers install but can never
    // stop anything: every request must pass through to the home node
    // exactly as in a normal router.
    let cfg = NocConfig {
        placement: BigRouterPlacement::All,
        faults: FaultPlan::none().with(FaultKind::EiExhaust { capacity: 0 }),
        ..NocConfig::paper_default()
    };
    let mut network = Network::new(cfg).unwrap();
    let home = 7;
    network.send(Cycle::ZERO, getx(0, home, 0x2000));
    network.send(Cycle::ZERO, getx(2, home, 0x2000));
    let delivered = run(&mut network, 400);

    let getx_count = delivered
        .iter()
        .filter(|(_, node, p)| *node == home && matches!(p, TestMsg::LockGetx { .. }))
        .count();
    assert_eq!(getx_count, 2, "both GetX pass through untouched: {delivered:?}");
    assert!(!delivered.iter().any(|(_, _, p)| matches!(p, TestMsg::EarlyInv { .. })));
    assert_eq!(network.barrier_stats().requests_stopped, 0);
    assert!(network.barrier_stats().barriers_installed > 0, "barriers still install");
    assert_eq!(network.in_flight(), 0, "network drains");
    network.check_invariants();
}

#[test]
fn drop_ack_fault_swallows_the_relay() {
    // The first observed invalidation acknowledgement is the loser's
    // early ack consumed at the big router: the drop-ack fault must
    // swallow it after bookkeeping, so no relay ever reaches the home
    // node and nothing leaks in the network.
    let cfg = NocConfig {
        placement: BigRouterPlacement::All,
        faults: FaultPlan::none().with(FaultKind::DropAck { nth: 1 }),
        ..NocConfig::paper_default()
    };
    let mut network = Network::new(cfg).unwrap();
    let home = 7;
    network.send(Cycle::ZERO, getx(0, home, 0x2000));
    network.send(Cycle::ZERO, getx(2, home, 0x2000));

    let mut now = Cycle::ZERO;
    let mut relayed = 0;
    for _ in 0..600 {
        network.tick(now);
        for node in 0..64 {
            while let Some(p) = network.pop_delivered(CoreId::new(node)) {
                match p.payload {
                    TestMsg::EarlyInv { addr, target, home, ack_router } => {
                        network.send(
                            now,
                            Message {
                                src: target,
                                dst: ack_router,
                                sink: Sink::Router,
                                vnet: VirtualNetwork::RESPONSE,
                                flits: 1,
                                priority: 0,
                                payload: TestMsg::EarlyInvAck {
                                    addr,
                                    from: target,
                                    home,
                                    inv_sent_at: now,
                                },
                            },
                        );
                    }
                    TestMsg::RelayedAck { .. } => relayed += 1,
                    _ => {}
                }
            }
        }
        now = now.next();
    }
    assert_eq!(relayed, 0, "the dropped ack must never be relayed");
    assert_eq!(network.stats().acks_dropped_by_fault, 1);
    assert_eq!(network.in_flight(), 0, "the drop must not leak flits");
    network.check_invariants();
}

#[test]
fn barrier_off_fault_mid_run_still_relays_outstanding_acks() {
    // Disable and flush every barrier table *after* an interception is in
    // flight. The returning early-inv ack must still be consumed and
    // relayed to the home node (which deduplicates), not leaked —
    // otherwise the winner would wait forever.
    let cfg = NocConfig {
        placement: BigRouterPlacement::All,
        faults: FaultPlan::none().with(FaultKind::BarrierOff { at_cycle: 60 }),
        ..NocConfig::paper_default()
    };
    let mut network = Network::new(cfg).unwrap();
    let home = 7;
    network.send(Cycle::ZERO, getx(0, home, 0x2000));
    network.send(Cycle::ZERO, getx(2, home, 0x2000));

    let mut now = Cycle::ZERO;
    let mut relayed = 0;
    let mut pending_ack: Option<Message<TestMsg>> = None;
    for _ in 0..600 {
        // Hold the loser's ack until after the fault has fired, so the
        // table state it matched is guaranteed gone.
        if now.as_u64() == 100 {
            if let Some(ack) = pending_ack.take() {
                network.send(now, ack);
            }
        }
        network.tick(now);
        for node in 0..64 {
            while let Some(p) = network.pop_delivered(CoreId::new(node)) {
                match p.payload {
                    TestMsg::EarlyInv { addr, target, home, ack_router } => {
                        pending_ack = Some(Message {
                            src: target,
                            dst: ack_router,
                            sink: Sink::Router,
                            vnet: VirtualNetwork::RESPONSE,
                            flits: 1,
                            priority: 0,
                            payload: TestMsg::EarlyInvAck {
                                addr,
                                from: target,
                                home,
                                inv_sent_at: now,
                            },
                        });
                    }
                    TestMsg::RelayedAck { .. } => relayed += 1,
                    _ => {}
                }
            }
        }
        now = now.next();
    }
    assert_eq!(relayed, 1, "stale ack still relayed to the home node");
    assert_eq!(network.barrier_stats().stale_acks_dropped, 1);
    assert_eq!(network.in_flight(), 0, "no packet leaked by the flush");
    network.check_invariants();
}

#[test]
fn ttl_storm_while_ei_live_preserves_the_ack_relay() {
    // A TTL-expiry storm must not kill barriers that are pinned by a live
    // early-invalidation entry: the loser's ack is still matched and
    // relayed, and only afterwards does the barrier expire.
    let cfg = NocConfig {
        placement: BigRouterPlacement::All,
        faults: FaultPlan::none().with(FaultKind::TtlStorm { at_cycle: 50 }),
        ..NocConfig::paper_default()
    };
    let mut network = Network::new(cfg).unwrap();
    let home = 7;
    network.send(Cycle::ZERO, getx(0, home, 0x2000));
    network.send(Cycle::ZERO, getx(2, home, 0x2000));

    let mut now = Cycle::ZERO;
    let mut relayed = 0;
    let mut pending_ack: Option<Message<TestMsg>> = None;
    for _ in 0..600 {
        // The ack returns at cycle 120, well after the storm at 50: the
        // EI entry alone keeps the barrier alive in between.
        if now.as_u64() == 120 {
            if let Some(ack) = pending_ack.take() {
                network.send(now, ack);
            }
        }
        network.tick(now);
        for node in 0..64 {
            while let Some(p) = network.pop_delivered(CoreId::new(node)) {
                match p.payload {
                    TestMsg::EarlyInv { addr, target, home, ack_router } => {
                        pending_ack = Some(Message {
                            src: target,
                            dst: ack_router,
                            sink: Sink::Router,
                            vnet: VirtualNetwork::RESPONSE,
                            flits: 1,
                            priority: 0,
                            payload: TestMsg::EarlyInvAck {
                                addr,
                                from: target,
                                home,
                                inv_sent_at: now,
                            },
                        });
                    }
                    TestMsg::RelayedAck { .. } => relayed += 1,
                    _ => {}
                }
            }
        }
        now = now.next();
    }
    assert_eq!(relayed, 1, "EI-pinned barrier matched and relayed the ack");
    assert_eq!(network.barrier_stats().acks_relayed, 1);
    assert_eq!(network.barrier_stats().stale_acks_dropped, 0);
    // After the ack drained the entry, the 1-cycle TTL expired the tables.
    assert!(network.barrier_stats().barriers_expired > 0);
    assert_eq!(network.in_flight(), 0);
    network.check_invariants();
}

#[test]
fn ocor_priority_wins_contended_arbitration() {
    // Two streams converge on the same output port; with OCOR
    // arbitration the high-priority stream must see a lower mean
    // latency than the low-priority one.
    let cfg = NocConfig { ocor_arbitration: true, ..NocConfig::baseline() };
    let mut network: Network<TestMsg> = Network::new(cfg).unwrap();
    let mut now = Cycle::ZERO;
    let mut hi_lat = Vec::new();
    let mut lo_lat = Vec::new();
    let mut hi_ids = std::collections::HashSet::new();
    for _ in 0..3000 {
        // Saturating cross traffic from two sources into node 7: the
        // shared path can carry only one flit per cycle, so the two
        // streams genuinely contend for every switch grant.
        if now.as_u64() < 1500 {
            let id = network.send(
                now,
                Message {
                    src: CoreId::new(0),
                    dst: CoreId::new(7),
                    sink: Sink::NetworkInterface,
                    vnet: VirtualNetwork::REQUEST,
                    flits: 1,
                    priority: 8,
                    payload: TestMsg::RelayedAck { addr: Addr::new(0), from: CoreId::new(0) },
                },
            );
            hi_ids.insert(id);
            network.send(
                now,
                Message {
                    src: CoreId::new(1),
                    dst: CoreId::new(7),
                    sink: Sink::NetworkInterface,
                    vnet: VirtualNetwork::REQUEST,
                    flits: 1,
                    priority: 0,
                    payload: TestMsg::RelayedAck { addr: Addr::new(0), from: CoreId::new(1) },
                },
            );
        }
        network.tick(now);
        while let Some(p) = network.pop_delivered(CoreId::new(7)) {
            let lat = now.as_u64() - p.injected_at.as_u64();
            if hi_ids.contains(&p.id) {
                hi_lat.push(lat);
            } else {
                lo_lat.push(lat);
            }
        }
        now = now.next();
    }
    assert!(!hi_lat.is_empty() && !lo_lat.is_empty());
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    assert!(
        mean(&hi_lat) + 10.0 < mean(&lo_lat),
        "priority-8 stream should clearly beat priority-0: {:.1} !< {:.1}",
        mean(&hi_lat),
        mean(&lo_lat)
    );
}
