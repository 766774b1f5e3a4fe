//! Golden delivery digests: the exact `(packet id, node, delivery cycle)`
//! sequence of three traffic patterns, pinned as FNV-1a digests. Any
//! change to switch allocation order, VC allocation, injection
//! round-robin or big-router interception that moves a single packet by
//! a single cycle fails here, at the crate level, before it can drift a
//! campaign artifact.
//!
//! The expected values were recorded from the flit-by-flit allocator
//! that rescanned every input VC once per output port; a faster
//! allocator must reproduce them bit for bit.

use inpg_noc::packet::{EarlyAck, LockRequest, PacketGenPayload, Sink, VirtualNetwork};
use inpg_noc::{Message, Network, NocConfig};
use inpg_sim::{Addr, CoreId, Cycle};

/// A miniature lock protocol: just enough for big routers to install
/// barriers, stop requests, and relay acknowledgements.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg {
    Data,
    LockGetx {
        addr: Addr,
        requester: CoreId,
        home: CoreId,
    },
    FwdGetx,
    EarlyInv {
        addr: Addr,
        target: CoreId,
        home: CoreId,
        ack_router: CoreId,
    },
    EarlyInvAck {
        addr: Addr,
        from: CoreId,
        home: CoreId,
        inv_sent_at: Cycle,
    },
    RelayedAck,
}

impl PacketGenPayload for Msg {
    fn as_lock_request(&self) -> Option<LockRequest> {
        match *self {
            Msg::LockGetx {
                addr,
                requester,
                home,
            } => Some(LockRequest {
                addr,
                requester,
                home,
            }),
            _ => None,
        }
    }

    fn as_early_ack(&self) -> Option<EarlyAck> {
        match *self {
            Msg::EarlyInvAck {
                addr,
                from,
                home,
                inv_sent_at,
            } => Some(EarlyAck {
                addr,
                from,
                home,
                inv_sent_at,
            }),
            _ => None,
        }
    }

    fn early_inv(request: LockRequest, ack_router: CoreId, _now: Cycle) -> Self {
        Msg::EarlyInv {
            addr: request.addr,
            target: request.requester,
            home: request.home,
            ack_router,
        }
    }

    fn forwarded_getx(&self, _now: Cycle) -> Self {
        Msg::FwdGetx
    }

    fn relayed_ack(_ack: EarlyAck, _now: Cycle) -> Self {
        Msg::RelayedAck
    }
}

/// Order-sensitive FNV-1a over the delivery log.
#[derive(Debug)]
struct Digest {
    hash: u64,
    deliveries: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            deliveries: 0,
        }
    }

    fn record(&mut self, id: u64, node: usize, cycle: u64) {
        for word in [id, node as u64, cycle] {
            for byte in word.to_le_bytes() {
                self.hash ^= u64::from(byte);
                self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.deliveries += 1;
    }
}

fn data(src: usize, dst: usize, flits: u8, priority: u8) -> Message<Msg> {
    Message {
        src: CoreId::new(src),
        dst: CoreId::new(dst),
        sink: Sink::NetworkInterface,
        vnet: VirtualNetwork::REQUEST,
        flits,
        priority,
        payload: Msg::Data,
    }
}

/// Ticks `network` for `cycles`, draining every node in ascending order
/// each cycle. `react` may send replies to what was delivered.
fn drive(
    network: &mut Network<Msg>,
    cycles: u64,
    mut inject: impl FnMut(&mut Network<Msg>, Cycle),
    mut react: impl FnMut(&mut Network<Msg>, Cycle, usize, &Msg),
) -> Digest {
    let mut digest = Digest::new();
    let mut now = Cycle::ZERO;
    for _ in 0..cycles {
        inject(network, now);
        network.tick(now);
        for node in 0..network.config().nodes() {
            while let Some(p) = network.pop_delivered(CoreId::new(node)) {
                digest.record(p.id.as_u64(), node, now.as_u64());
                react(network, now, node, &p.payload);
            }
        }
        network.check_invariants();
        now = now.next();
    }
    assert_eq!(network.in_flight(), 0, "pattern drains within its window");
    digest
}

/// The traffic of the unit test `deterministic_across_runs`: every node
/// sends one packet (a third of them 8-flit) at cycle 0.
#[test]
fn uniform_pattern_digest() {
    let mut network = Network::new(NocConfig::paper_default()).expect("valid config");
    let digest = drive(
        &mut network,
        1500,
        |net, now| {
            if now == Cycle::ZERO {
                for src in 0..64usize {
                    net.send(
                        now,
                        data(
                            src,
                            (src * 7 + 3) % 64,
                            if src.is_multiple_of(3) { 8 } else { 1 },
                            0,
                        ),
                    );
                }
            }
        },
        |_, _, _, _| {},
    );
    assert_eq!(
        (digest.deliveries, digest.hash),
        (64, 0x08cf_005a_abf5_6cc5)
    );
}

/// Every tile sends to one home tile (the lock pattern) in waves, with
/// OCOR priority arbitration on and mixed packet sizes and priorities.
#[test]
fn hotspot_ocor_pattern_digest() {
    let cfg = NocConfig {
        ocor_arbitration: true,
        ..NocConfig::baseline()
    };
    let mut network = Network::new(cfg).expect("valid config");
    let digest = drive(
        &mut network,
        6000,
        |net, now| {
            let t = now.as_u64();
            if t < 2000 && t.is_multiple_of(100) {
                for src in 0..64usize {
                    let flits = if (src + t as usize / 100).is_multiple_of(5) {
                        8
                    } else {
                        1
                    };
                    let priority = ((src * 5 + t as usize / 100) % 9) as u8;
                    net.send(now, data(src, 27, flits, priority));
                }
            }
        },
        |_, _, _, _| {},
    );
    assert_eq!(
        (digest.deliveries, digest.hash),
        (1280, 0xc91e_c12b_6b25_24f4)
    );
}

/// Lock `GetX` storms toward one home through checkerboard big routers:
/// barriers install, later requests are stopped and early-invalidated,
/// and every early invalidation is answered with a router-sink ack that
/// the generating router relays to the home.
#[test]
fn big_router_intercept_pattern_digest() {
    let mut network = Network::new(NocConfig::paper_default()).expect("valid config");
    let home = 45usize;
    let digest = drive(
        &mut network,
        4000,
        |net, now| {
            let t = now.as_u64();
            if t < 1200 && t.is_multiple_of(150) {
                let wave = t as usize / 150;
                for src in (wave % 3..64).step_by(3) {
                    if src == home {
                        continue;
                    }
                    let addr = Addr::new(0x4000 + 0x80 * (src % 2) as u64);
                    net.send(
                        now,
                        Message {
                            src: CoreId::new(src),
                            dst: CoreId::new(home),
                            sink: Sink::NetworkInterface,
                            vnet: VirtualNetwork::REQUEST,
                            flits: 1,
                            priority: 0,
                            payload: Msg::LockGetx {
                                addr,
                                requester: CoreId::new(src),
                                home: CoreId::new(home),
                            },
                        },
                    );
                }
                // Background data traffic sharing the routers.
                for src in (wave..64).step_by(9) {
                    net.send(now, data(src, (src * 11 + 5) % 64, 8, 0));
                }
            }
        },
        |net, now, node, msg| {
            if let Msg::EarlyInv {
                addr,
                target,
                home,
                ack_router,
            } = *msg
            {
                assert_eq!(target.index(), node);
                net.send(
                    now,
                    Message {
                        src: target,
                        dst: ack_router,
                        sink: Sink::Router,
                        vnet: VirtualNetwork::RESPONSE,
                        flits: 1,
                        priority: 0,
                        payload: Msg::EarlyInvAck {
                            addr,
                            from: target,
                            home,
                            inv_sent_at: now,
                        },
                    },
                );
            }
        },
    );
    let barrier = network.barrier_stats();
    assert!(
        barrier.requests_stopped > 0,
        "the pattern exercises interception"
    );
    assert!(
        barrier.acks_relayed > 0,
        "the pattern exercises ack relaying"
    );
    assert_eq!(
        (digest.deliveries, digest.hash),
        (505, 0xa289_421e_0c07_e37b)
    );
}
