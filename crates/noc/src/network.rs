//! The mesh network: injection, per-cycle switching, big-router
//! interception, and delivery.

use crate::active::NodeSet;
use crate::barrier::{BarrierSnapshot, BarrierStats, LockingBarrierTable};
use crate::config::NocConfig;
use crate::coord::{Coord, Direction, Port};
use crate::invariant::NocViolation;
use crate::packet::{LockRequest, Packet, PacketGenPayload, PacketId, Sink, VirtualNetwork};
use crate::router::{Candidate, Flit, FlitSource, Link, OutRoute, PacketSlab, Router, Slot};
use crate::stats::NocStats;
use inpg_sim::{ConfigError, CoreId, Cycle};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// SplitMix64 step for the fault-injection jitter stream.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything needed to inject one packet.
#[derive(Debug, Clone)]
pub struct Message<P> {
    /// Source core (tile) id.
    pub src: CoreId,
    /// Destination core (tile) id.
    pub dst: CoreId,
    /// Whether the packet terminates at the NI or inside the router.
    pub sink: Sink,
    /// Virtual network class.
    pub vnet: VirtualNetwork,
    /// Packet length in flits.
    pub flits: u8,
    /// OCOR arbitration priority (0 when unused).
    pub priority: u8,
    /// Protocol payload.
    pub payload: P,
}

/// OCOR anti-starvation: a packet's effective priority rises with age
/// (the paper embeds program-progress information in request packets so
/// low-priority requests cannot starve). One level per 128 cycles in
/// flight, capped at the top spinning level.
fn aged_priority<P>(packet: &Packet<P>, now: Cycle) -> u8 {
    let boost = (now.saturating_since(packet.injected_at) / 128).min(8) as u8;
    packet.priority.saturating_add(boost).min(8)
}

/// Injection progress of the packet currently streaming into a local
/// input VC.
#[derive(Debug, Clone, Copy)]
struct InjectProgress {
    /// The packet's head flit, the template of its body flits.
    head: Flit,
    vc: usize,
    sent: u8,
    total: u8,
}

/// A cycle-driven 2D-mesh network-on-chip.
///
/// See the crate-level docs for the micro-architecture model. The network
/// is generic over the payload `P`; big routers use the
/// [`PacketGenPayload`] hooks to intercept lock requests and generate
/// early invalidations.
#[derive(Debug)]
pub struct Network<P> {
    cfg: NocConfig,
    routers: Vec<Router<P>>,
    /// Packets whose head flit has entered a router, until delivery or
    /// consumption.
    slab: PacketSlab<P>,
    /// Per-node, per-vnet injection queues.
    inject: Vec<Vec<VecDeque<Packet<P>>>>,
    /// Per-node, per-vnet injection progress.
    inject_state: Vec<Vec<Option<InjectProgress>>>,
    /// Per-node round-robin over vnets at the injection port.
    inject_rr: Vec<usize>,
    /// Per-node delivered packets awaiting pickup by the tile.
    delivered: Vec<VecDeque<Packet<P>>>,
    /// Routers holding a buffered flit or a generated packet (the only
    /// routers interception and switch allocation visit).
    active_routers: NodeSet,
    /// Nodes with a queued or partly injected packet (the only nodes the
    /// injection phase visits).
    inject_active: NodeSet,
    /// Nodes whose `delivered` queue is non-empty.
    delivered_nodes: NodeSet,
    /// Big routers whose barrier table has TTLs to count down or a
    /// degraded state to heal (the only tables the barrier tick visits).
    barrier_live: NodeSet,
    /// Switch-allocation bids of the router being switched, reused every
    /// cycle (capacity for one bid per input VC plus the generator).
    bids: Vec<Candidate>,
    next_packet_id: u64,
    stats: NocStats,
    /// Fault-injection jitter stream state.
    fault_rng: u64,
    /// Invalidation acknowledgements observed so far — early acks
    /// consumed at big routers plus ack packets ejected at their NI
    /// (the drop-ack fault's 1-based ordinal).
    acks_observed: u64,
    /// The barrier-off fault has fired: tables are flushed and
    /// interception is off, but router-sink acks are still consumed.
    barrier_disabled: bool,
    /// The TTL-storm fault has fired.
    ttl_storm_fired: bool,
    /// The router-fail fault has fired.
    router_fail_fired: bool,
    /// REQUEST-class packets seen at injection (the link-drop fault's
    /// 1-based ordinal; only counted while that fault is configured).
    requests_observed: u64,
}

impl<P: PacketGenPayload> Network<P> {
    /// Builds the mesh described by `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `cfg` fails validation.
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let nodes = cfg.nodes();
        let vcs = cfg.vcs_per_port();
        let mut routers = Vec::with_capacity(nodes);
        for idx in 0..nodes {
            let coord = Coord::from_core(CoreId::new(idx), cfg.width, cfg.height);
            let barrier = cfg
                .placement
                .is_big(coord, cfg.width, cfg.height)
                .then(|| {
                    let mut table = LockingBarrierTable::new(
                        cfg.barrier_entries,
                        cfg.barrier_entries,
                        cfg.barrier_ttl,
                    );
                    if let Some(cap) = cfg.faults.ei_capacity_clamp() {
                        table.clamp_ei_capacity(cap);
                    }
                    table
                });
            let mut links = [None; 5];
            for dir in Direction::ALL {
                if let Some(n) = coord.neighbor(dir, cfg.width, cfg.height) {
                    links[Port::Link(dir).index()] = Some(Link {
                        node: n.to_core(cfg.width).index() as u16,
                        port: Port::Link(dir.opposite()).index() as u8,
                    });
                }
            }
            routers.push(Router::new(coord, vcs, cfg.vc_depth, links, barrier));
        }
        Ok(Network {
            inject: (0..nodes).map(|_| (0..cfg.vnets as usize).map(|_| VecDeque::new()).collect()).collect(),
            inject_state: (0..nodes).map(|_| vec![None; cfg.vnets as usize]).collect(),
            inject_rr: vec![0; nodes],
            delivered: (0..nodes).map(|_| VecDeque::new()).collect(),
            active_routers: NodeSet::new(nodes),
            inject_active: NodeSet::new(nodes),
            delivered_nodes: NodeSet::new(nodes),
            barrier_live: NodeSet::new(nodes),
            bids: Vec::with_capacity(5 * vcs + 1),
            slab: PacketSlab::new(),
            next_packet_id: 0,
            stats: NocStats::default(),
            fault_rng: cfg.faults.seed ^ 0x6a09_e667_f3bc_c908,
            acks_observed: 0,
            barrier_disabled: false,
            ttl_storm_fired: false,
            router_fail_fired: false,
            requests_observed: 0,
            routers,
            cfg,
        })
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Number of big routers on the mesh.
    pub fn big_router_count(&self) -> usize {
        self.routers.iter().filter(|r| r.is_big()).count()
    }

    /// Enqueues `msg` for injection at its source tile. Returns the
    /// assigned packet id.
    ///
    /// # Panics
    ///
    /// Panics if the vnet index or either core id is out of range, if the
    /// flit count is zero, or if a [`Sink::Router`] packet is addressed
    /// to a router without a packet generator (nothing there would ever
    /// consume it, so the network could never drain).
    pub fn send(&mut self, now: Cycle, msg: Message<P>) -> PacketId {
        assert!(msg.flits > 0, "packets must have at least one flit");
        assert!((msg.vnet.index()) < self.cfg.vnets as usize, "vnet out of range");
        assert!(msg.src.index() < self.cfg.nodes(), "src out of range");
        assert!(msg.dst.index() < self.cfg.nodes(), "dst out of range");
        assert!(
            msg.sink != Sink::Router || self.routers[msg.dst.index()].is_big(),
            "router-sink packet addressed to a router without a packet generator"
        );
        let id = PacketId::new(self.next_packet_id);
        self.next_packet_id += 1;
        let packet = Packet {
            id,
            src: Coord::from_core(msg.src, self.cfg.width, self.cfg.height),
            dst: Coord::from_core(msg.dst, self.cfg.width, self.cfg.height),
            sink: msg.sink,
            vnet: msg.vnet,
            flits: msg.flits,
            priority: msg.priority,
            injected_at: now,
            payload: msg.payload,
        };
        self.stats.injected += 1;
        self.stats.in_flight += 1;
        self.inject[msg.src.index()][msg.vnet.index()].push_back(packet);
        self.inject_active.add(msg.src.index());
        id
    }

    /// Removes and returns the next packet delivered to `node`'s NI.
    pub fn pop_delivered(&mut self, node: CoreId) -> Option<Packet<P>> {
        let queue = &mut self.delivered[node.index()];
        let packet = queue.pop_front();
        if queue.is_empty() {
            self.delivered_nodes.remove(node.index());
        }
        packet
    }

    /// Removes and returns the next delivered packet of the
    /// lowest-numbered node holding one, with that node. Draining with
    /// this visits nodes in the order of a `pop_delivered` sweep over
    /// `0..nodes` without touching the nodes that received nothing.
    pub fn pop_next_delivered(&mut self) -> Option<(CoreId, Packet<P>)> {
        let node = CoreId::new(self.delivered_nodes.next_from(0)?);
        self.pop_delivered(node).map(|packet| (node, packet))
    }

    /// Packets currently inside the network (injected or generated but
    /// not yet delivered/consumed).
    pub fn in_flight(&self) -> u64 {
        self.stats.in_flight
    }

    /// Whether a tick would change nothing but fire a cycle-scheduled
    /// fault: no packet is in flight or awaiting pickup, and no barrier
    /// table has a TTL to count down or a degraded state to heal.
    pub fn is_quiet(&self) -> bool {
        self.stats.in_flight == 0
            && self.active_routers.is_empty()
            && self.inject_active.is_empty()
            && self.delivered_nodes.is_empty()
            && self.barrier_live.is_empty()
    }

    /// The earliest cycle at which a cycle-scheduled fault
    /// (`barrier-off`, `ttl-storm`, `router-fail`) that has not fired yet
    /// fires.
    pub fn next_scheduled_fault(&self) -> Option<u64> {
        let faults = &self.cfg.faults;
        [
            (!self.barrier_disabled).then(|| faults.barrier_off_at()).flatten(),
            (!self.ttl_storm_fired).then(|| faults.ttl_storm_at()).flatten(),
            (!self.router_fail_fired).then(|| faults.router_fail_at()).flatten(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Accumulated network statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Sums barrier-table counters over all big routers.
    pub fn barrier_stats(&self) -> BarrierStats {
        let mut total = BarrierStats::default();
        for r in &self.routers {
            if let Some(b) = &r.barrier {
                let s = b.stats();
                total.barriers_installed += s.barriers_installed;
                total.barriers_expired += s.barriers_expired;
                total.requests_stopped += s.requests_stopped;
                total.passes_table_full += s.passes_table_full;
                total.acks_relayed += s.acks_relayed;
                total.stale_acks_dropped += s.stale_acks_dropped;
                total.degraded_transitions += s.degraded_transitions;
                total.in_pass_through += s.in_pass_through;
            }
        }
        total
    }

    /// Verifies internal conservation invariants (test support). See
    /// [`try_check_invariants`](Self::try_check_invariants) for the
    /// non-panicking form.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        if let Err(violation) = self.try_check_invariants() {
            panic!("{violation}");
        }
    }

    /// Verifies internal conservation invariants, reporting the first
    /// violation as a typed value instead of panicking:
    ///
    /// * every router's occupied-VC mask matches its buffers,
    /// * every router's `wake_at` is at most its front flits' earliest
    ///   `eligible_at`, so skipping a router before then skips nothing,
    /// * the router, injection, delivery and barrier-tick active sets
    ///   hold exactly the nodes with work of that kind,
    /// * credits plus downstream buffer occupancy equal the VC depth,
    /// * every live barrier entry's TTL is in `1..=default`,
    /// * packets found by walking every queue and buffer equal
    ///   `injected + generated - delivered - consumed` (conservation),
    ///   and the packet slab holds exactly the packets found in routers.
    ///
    /// # Errors
    ///
    /// Returns the first [`NocViolation`] found.
    pub fn try_check_invariants(&self) -> Result<(), NocViolation> {
        let vcs = self.cfg.vcs_per_port();
        for (node, router) in self.routers.iter().enumerate() {
            let actual = router.occupied_from_buffers();
            if router.occupied != actual {
                return Err(NocViolation::OccupancyMask {
                    router: router.coord,
                    mask: router.occupied,
                    actual,
                });
            }
            if let Some(front) = router.earliest_front() {
                if router.wake_at > front {
                    return Err(NocViolation::WakeAt {
                        router: router.coord,
                        wake_at: router.wake_at,
                        front,
                    });
                }
            }
            for dir in Direction::ALL {
                let Some(neighbor) = router.coord.neighbor(dir, self.cfg.width, self.cfg.height)
                else {
                    continue;
                };
                let n_node = neighbor.to_core(self.cfg.width).index();
                let in_port = Port::Link(dir.opposite()).index();
                let out_port = Port::Link(dir).index();
                for vc in 0..vcs {
                    let credits = router.out_credits[out_port * vcs + vc] as usize;
                    let occupancy = self.routers[n_node].occupancy(in_port * vcs + vc);
                    if credits + occupancy != self.cfg.vc_depth as usize {
                        return Err(NocViolation::CreditConservation {
                            router: router.coord,
                            port: dir.name(),
                            vc,
                            credits,
                            occupancy,
                            depth: self.cfg.vc_depth as usize,
                        });
                    }
                }
            }
            if let Some(barrier) = &router.barrier {
                for (addr, ttl, _eis) in barrier.snapshot() {
                    if ttl == 0 || ttl > barrier.default_ttl() {
                        return Err(NocViolation::BarrierTtl {
                            router: router.coord,
                            addr,
                            ttl,
                            max: barrier.default_ttl(),
                        });
                    }
                }
            }
            let sets = [
                ("router", &self.active_routers, !router.is_idle()),
                ("inject", &self.inject_active, self.has_inject_work(node)),
                ("delivered", &self.delivered_nodes, !self.delivered[node].is_empty()),
                (
                    "barrier-tick",
                    &self.barrier_live,
                    router.barrier.as_ref().is_some_and(LockingBarrierTable::needs_tick),
                ),
            ];
            for (set, members, has_work) in sets {
                if members.contains(node) != has_work {
                    return Err(NocViolation::ActiveSet { set, router: router.coord, has_work });
                }
            }
        }
        let (queued, in_routers) = self.count_resident_packets();
        let counted = queued + in_routers;
        let expected = self.stats.in_flight;
        if counted != expected {
            return Err(NocViolation::PacketConservation { counted, expected });
        }
        let slab = self.slab.residents().count() as u64;
        if slab != in_routers {
            return Err(NocViolation::PacketSlab { slab, in_routers });
        }
        Ok(())
    }

    /// Whether `node` has a packet queued for injection or partly
    /// injected.
    fn has_inject_work(&self, node: usize) -> bool {
        self.inject[node].iter().any(|q| !q.is_empty())
            || self.inject_state[node].iter().any(Option::is_some)
    }

    /// Counts the packets physically present in the network by walking
    /// every injection queue, generator queue, input-VC head flit and
    /// reassembling packet. Each in-flight packet appears in exactly one
    /// of those places. Returns `(queued, in routers)`: the packets in
    /// injection and generator queues, and those whose head is buffered
    /// or has been ejected (the ones the slab should hold).
    fn count_resident_packets(&self) -> (u64, u64) {
        let mut queued = 0u64;
        for queues in &self.inject {
            for q in queues {
                queued += q.len() as u64;
            }
        }
        let mut in_routers = self.slab.residents().filter(|r| r.ejected > 0).count() as u64;
        for router in &self.routers {
            queued += router.gen_queue.len() as u64;
            for i in 0..router.inputs.len() {
                in_routers += router.vc_flits(i).filter(|f| f.is_head()).count() as u64;
            }
        }
        (queued, in_routers)
    }

    /// Snapshot of every non-empty barrier table:
    /// `(big router tile, entries)` with each entry `(lock, ttl, live EIs)`.
    pub fn barrier_snapshots(&self) -> Vec<(CoreId, BarrierSnapshot)> {
        self.routers
            .iter()
            .filter_map(|r| {
                let snap = r.barrier.as_ref()?.snapshot();
                (!snap.is_empty()).then(|| (r.coord.to_core(self.cfg.width), snap))
            })
            .collect()
    }

    /// Multi-line occupancy report for stall diagnostics: per-router
    /// buffered flits, VC occupancy and credits, generator backlogs, live
    /// barrier entries, and the oldest in-flight packet's identity and
    /// position.
    pub fn congestion_report(&self, now: Cycle) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "noc: {} in flight ({} injected, {} generated, {} delivered, {} consumed)",
            self.stats.in_flight,
            self.stats.injected,
            self.stats.generated_packets,
            self.stats.delivered,
            self.stats.consumed,
        );
        for (node, router) in self.routers.iter().enumerate() {
            let pending_inject: usize = self.inject[node].iter().map(VecDeque::len).sum();
            if router.is_idle() && pending_inject == 0 {
                continue;
            }
            let _ = write!(
                out,
                "  router {} ({}): {} flits buffered",
                router.coord,
                if router.is_big() { "big" } else { "normal" },
                router.buffered_flits(),
            );
            if pending_inject > 0 {
                let _ = write!(out, ", {pending_inject} awaiting injection");
            }
            if !router.gen_queue.is_empty() {
                let _ = write!(out, ", {} in generator queue", router.gen_queue.len());
            }
            let _ = writeln!(out);
            for i in 0..router.inputs.len() {
                if router.occupancy(i) == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "    in port {} vc {}: {} flits (credits out {:?})",
                    i / router.vcs,
                    i % router.vcs,
                    router.occupancy(i),
                    router.out_credits[i],
                );
            }
            if let Some(barrier) = &router.barrier {
                for (addr, ttl, eis) in barrier.snapshot() {
                    let _ = writeln!(
                        out,
                        "    barrier {addr}: ttl {ttl}, {eis} live EI entr{}",
                        if eis == 1 { "y" } else { "ies" },
                    );
                }
            }
        }
        if let Some(line) = self.oldest_in_flight_line(now) {
            let _ = writeln!(out, "  oldest in flight: {line}");
        }
        out
    }

    /// Describes the oldest packet still inside the network: id, age,
    /// endpoints, and where it is stuck.
    fn oldest_in_flight_line(&self, now: Cycle) -> Option<String> {
        let mut best: Option<(Cycle, String)> = None;
        let mut note = |injected_at: Cycle, line: String| {
            if best.as_ref().is_none_or(|(t, _)| injected_at < *t) {
                best = Some((injected_at, line));
            }
        };
        for (node, queues) in self.inject.iter().enumerate() {
            for q in queues {
                for p in q {
                    note(
                        p.injected_at,
                        format!(
                            "{} {} {}->{} awaiting injection at node {node}",
                            p.id, p.vnet, p.src, p.dst
                        ),
                    );
                }
            }
        }
        for router in &self.routers {
            for p in &router.gen_queue {
                note(
                    p.injected_at,
                    format!(
                        "{} {} {}->{} in generator queue at {}",
                        p.id, p.vnet, p.src, p.dst, router.coord
                    ),
                );
            }
            // The packets reassembling here, oldest (then lowest id) first:
            // the one a walk in id order would keep.
            let reassembling = self
                .slab
                .residents()
                .filter(|r| r.ejected > 0 && r.packet.dst == router.coord)
                .min_by_key(|r| (r.packet.injected_at, r.packet.id));
            if let Some(resident) = reassembling {
                let p = &resident.packet;
                note(
                    p.injected_at,
                    format!(
                        "{} {} {}->{} reassembling at {} ({}/{} flits)",
                        p.id, p.vnet, p.src, p.dst, router.coord, resident.ejected, p.flits
                    ),
                );
            }
            for i in 0..router.inputs.len() {
                for flit in router.vc_flits(i).filter(|f| f.is_head()) {
                    if let Some(resident) = self.slab.get(flit.slot) {
                        let p = &resident.packet;
                        note(
                            p.injected_at,
                            format!(
                                "{} {} {}->{} buffered at {} port {} vc {}",
                                p.id,
                                p.vnet,
                                p.src,
                                p.dst,
                                router.coord,
                                i / router.vcs,
                                i % router.vcs
                            ),
                        );
                    }
                }
            }
        }
        best.map(|(injected_at, line)| {
            format!("{line} (age {} cycles)", now.saturating_since(injected_at))
        })
    }

    /// Advances the network one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.apply_scheduled_faults(now);
        self.intercept_phase(now);
        self.barrier_tick_phase();
        self.switch_phase(now);
        self.inject_phase(now);
    }

    /// Fires cycle-triggered faults from the configured plan.
    fn apply_scheduled_faults(&mut self, now: Cycle) {
        if !self.barrier_disabled {
            if let Some(at) = self.cfg.faults.barrier_off_at() {
                if now.as_u64() >= at {
                    self.barrier_disabled = true;
                    for router in &mut self.routers {
                        if let Some(barrier) = router.barrier.as_mut() {
                            barrier.flush();
                        }
                    }
                }
            }
        }
        if !self.ttl_storm_fired {
            if let Some(at) = self.cfg.faults.ttl_storm_at() {
                if now.as_u64() >= at {
                    self.ttl_storm_fired = true;
                    for router in &mut self.routers {
                        if let Some(barrier) = router.barrier.as_mut() {
                            barrier.set_all_ttls(1);
                        }
                    }
                }
            }
        }
        if !self.router_fail_fired {
            if let Some(at) = self.cfg.faults.router_fail_at() {
                if now.as_u64() >= at {
                    self.router_fail_fired = true;
                    for router in &mut self.routers {
                        if let Some(barrier) = router.barrier.as_mut() {
                            barrier.fail();
                        }
                    }
                }
            }
        }
    }

    // ---- interception (big-router packet generation) ------------------

    /// Inspects the eligible VC heads of the busy big routers. A router
    /// whose `wake_at` is still ahead has no eligible head, and
    /// interception ignores ineligible heads, so it is skipped.
    fn intercept_phase(&mut self, now: Cycle) {
        let mut next = self.active_routers.next_from(0);
        while let Some(node) = next {
            next = self.active_routers.next_from(node + 1);
            let router = &self.routers[node];
            if !router.is_big() || router.wake_at > now {
                continue;
            }
            // Interception only pops, so the VCs occupied now are the
            // only ones with a head to inspect; visiting them in
            // ascending bit order is the (port, vc) order of a full scan.
            let (occupied, vcs) = (router.occupied, router.vcs);
            for port in 0..5 {
                let mut bits = (occupied >> (port * vcs)) & ((1 << vcs) - 1);
                while bits != 0 {
                    let vc = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.intercept_vc_head(now, node, port, vc);
                }
            }
        }
    }

    /// Inspects the head flit of input VC `(port, vc)` and consumes it if
    /// it is a router-sink ack or a stoppable lock GetX.
    fn intercept_vc_head(&mut self, now: Cycle, node: usize, port: usize, vc: usize) {
        enum Action {
            ConsumeAck,
            StopGetx(LockRequest),
            InstallBarrier(LockRequest),
        }
        let action = {
            let router = &self.routers[node];
            let Some(flit) = router.front(port * router.vcs + vc) else { return };
            if flit.eligible_at > now || !flit.is_head() {
                return;
            }
            let ejecting = flit.dst == router.coord;
            if flit.sinks_at_router() && ejecting {
                Action::ConsumeAck
            } else if self.barrier_disabled || ejecting {
                // Barrier-off fault: interception is dark, lock requests
                // pass through like in a normal router. A request
                // ejecting here is never stopped.
                return;
            } else if let Some(barrier) = &router.barrier {
                let Some(resident) = self.slab.get(flit.slot) else { return };
                let Some(req) = resident.packet.payload.as_lock_request() else { return };
                if barrier.should_stop(req.addr) {
                    Action::StopGetx(req)
                } else if !barrier.has_barrier(req.addr) {
                    Action::InstallBarrier(req)
                } else {
                    // Barrier exists but the EI pool is full: the
                    // request passes through like in a normal router
                    // (paper §4.1).
                    return;
                }
            } else {
                return;
            }
        };

        match action {
            Action::ConsumeAck => {
                let Some(packet) = self.pop_head_packet(node, port, vc) else { return };
                self.stats.in_flight -= 1;
                self.stats.consumed += 1;
                let coord = self.routers[node].coord;
                match packet.payload.as_early_ack() {
                    Some(ack) => {
                        if let Some(barrier) = self.routers[node].barrier.as_mut() {
                            // Bookkeeping only: even a "stale" ack is
                            // relayed, because the home node is the
                            // protocol-level deduplicator and losing an
                            // InvAck would wedge the winner.
                            let _ = barrier.take_ack(ack.addr, ack.from);
                        }
                        self.acks_observed += 1;
                        if self.cfg.faults.drop_ack_nth() == Some(self.acks_observed) {
                            // Fault injection: lose this ack instead of
                            // relaying it. The home never learns the
                            // loser's copy died — exactly the coherence
                            // bug the invariant checker must catch.
                            self.stats.acks_dropped_by_fault += 1;
                            return;
                        }
                        let relay = Packet {
                            id: self.alloc_id(),
                            src: coord,
                            dst: Coord::from_core(ack.home, self.cfg.width, self.cfg.height),
                            sink: Sink::NetworkInterface,
                            vnet: VirtualNetwork::RESPONSE,
                            flits: 1,
                            priority: 0,
                            injected_at: now,
                            payload: P::relayed_ack(ack, now),
                        };
                        self.push_generated(node, relay);
                    }
                    None => {
                        self.stats.dropped_router_sink += 1;
                    }
                }
            }
            Action::StopGetx(req) => {
                let Some(packet) = self.pop_head_packet(node, port, vc) else { return };
                debug_assert_eq!(packet.flits, 1, "lock GetX must be single-flit");
                self.stats.in_flight -= 1;
                self.stats.consumed += 1;
                let coord = self.routers[node].coord;
                if let Some(barrier) = self.routers[node].barrier.as_mut() {
                    barrier.stop(req.addr, req.requester);
                }
                self.stats.early_invs_generated += 1;
                let inv = Packet {
                    id: self.alloc_id(),
                    src: coord,
                    dst: Coord::from_core(req.requester, self.cfg.width, self.cfg.height),
                    sink: Sink::NetworkInterface,
                    vnet: VirtualNetwork::FORWARD,
                    flits: 1,
                    priority: 0,
                    injected_at: now,
                    payload: P::early_inv(req, coord.to_core(self.cfg.width), now),
                };
                let fwd = Packet {
                    id: self.alloc_id(),
                    src: packet.src,
                    dst: Coord::from_core(req.home, self.cfg.width, self.cfg.height),
                    sink: Sink::NetworkInterface,
                    vnet: VirtualNetwork::REQUEST,
                    flits: 1,
                    priority: packet.priority,
                    // The FwdGetX continues the stopped request's journey,
                    // so it keeps the original injection timestamp.
                    injected_at: packet.injected_at,
                    payload: packet.payload.forwarded_getx(now),
                };
                self.push_generated(node, inv);
                self.push_generated(node, fwd);
            }
            Action::InstallBarrier(req) => {
                // Install at first sight. The paper installs the barrier
                // when the first GetX is *transferred*; installing when it
                // reaches the head of an input VC is at most a couple of
                // cycles earlier and keeps the pipeline model simple.
                if let Some(barrier) = self.routers[node].barrier.as_mut() {
                    barrier.observe_transfer(req.addr);
                    if barrier.needs_tick() {
                        self.barrier_live.add(node);
                    }
                }
            }
        }
    }

    fn alloc_id(&mut self) -> PacketId {
        let id = PacketId::new(self.next_packet_id);
        self.next_packet_id += 1;
        id
    }

    fn push_generated(&mut self, node: usize, packet: Packet<P>) {
        self.stats.generated_packets += 1;
        self.stats.in_flight += 1;
        self.routers[node].gen_queue.push_back(packet);
        self.active_routers.add(node);
    }

    /// Pops the (single-flit) head packet of input VC `(port, vc)`,
    /// returning credit to the upstream router, and takes it out of the
    /// slab.
    fn pop_head_packet(&mut self, node: usize, port: usize, vc: usize) -> Option<Packet<P>> {
        let router = &mut self.routers[node];
        let i = port * router.vcs + vc;
        let flit = router.pop_flit(i)?;
        debug_assert!(flit.is_tail(), "interception only consumes single-flit packets");
        router.inputs[i].route = None;
        self.return_credit(node, port, vc);
        self.slab.remove(flit.slot)
    }

    /// Returns one credit to whatever feeds input VC `(port, vc)` of
    /// `node`: the neighbour across that port. The local port has no
    /// neighbour, and the injector checks occupancy directly instead of
    /// counting credits.
    fn return_credit(&mut self, node: usize, port: usize, vc: usize) {
        if let Some(link) = self.routers[node].links[port] {
            // The upstream router's output toward us is the port facing back.
            let up = &mut self.routers[link.node as usize];
            up.out_credits[link.port as usize * up.vcs + vc] += 1;
        }
    }

    // ---- barrier TTLs --------------------------------------------------

    /// Ticks the tables in `barrier_live`. Any other table is empty and
    /// not degraded, so its tick would change nothing; tables join the
    /// set when interception installs a barrier or degrades them, and
    /// leave it once their tick finds them idle.
    fn barrier_tick_phase(&mut self) {
        let mut next = self.barrier_live.next_from(0);
        while let Some(node) = next {
            if let Some(barrier) = self.routers[node].barrier.as_mut() {
                barrier.tick();
                if !barrier.needs_tick() {
                    self.barrier_live.remove(node);
                }
            }
            next = self.barrier_live.next_from(node + 1);
        }
    }

    // ---- switch allocation & traversal ---------------------------------

    /// Switches the routers in `active_routers`, in ascending order. An
    /// idle router would grant nothing, and neither would one whose
    /// `wake_at` is still ahead with an empty generator: every front flit
    /// is ineligible, and ineligible flits do not bid. A flit moved into a
    /// router later in the order adds it to the set before the cursor
    /// gets there, as a full sweep would also visit it; a router that
    /// ends its own turn idle leaves the set (only its own turn pops its
    /// buffers).
    fn switch_phase(&mut self, now: Cycle) {
        let mut next = self.active_routers.next_from(0);
        while let Some(node) = next {
            if self.routers[node].may_switch(now) {
                self.switch_router(now, node);
            }
            if self.routers[node].is_idle() {
                self.active_routers.remove(node);
            }
            next = self.active_routers.next_from(node + 1);
        }
    }

    /// Switch allocation for one router: every occupied input VC and the
    /// generator front bid once, then each output port (in `Port::ALL`
    /// order) grants one bid from an input that has not moved a flit yet.
    ///
    /// Bidding once up front is exact. A grant through port X changes
    /// only X's VC owners and credits here (credits returned upstream
    /// belong to other routers) and pops the winner's input, whose
    /// remaining bids are withdrawn. A bid for port Y computed before the
    /// grant is therefore the bid a fresh scan would make at Y's turn.
    fn switch_router(&mut self, now: Cycle, node: usize) {
        let bid_ports = self.collect_bids(now, node);
        for out_port in Port::ALL {
            if bid_ports & (1 << out_port.index()) == 0 {
                continue;
            }
            let winner = self.routers[node].pick_winner(
                out_port,
                &self.bids,
                self.cfg.ocor_arbitration,
            );
            if let Some(winner) = winner {
                let input = winner.input();
                self.bids.retain(|bid| bid.input() != input);
                self.apply_move(now, node, winner);
            }
        }
    }

    /// The OCOR arbitration priority of the packet at `slot`, aged to
    /// `now`. Only read when `pick_winner` arbitrates by priority.
    fn bid_priority(&self, slot: Slot, now: Cycle) -> u8 {
        if !self.cfg.ocor_arbitration {
            return 0;
        }
        self.slab.get(slot).map_or(0, |resident| aged_priority(&resident.packet, now))
    }

    /// Fills `self.bids` with this cycle's switch bids at `node`: one per
    /// eligible occupied input VC whose flit can advance (route computed,
    /// downstream VC or credit available), plus the generator's front
    /// packet, which bids like a sixth input. Returns the output ports
    /// bid for, as a mask over `Port::index`. Also recomputes the
    /// router's `wake_at` as its front flits' earliest `eligible_at`.
    fn collect_bids(&mut self, now: Cycle, node: usize) -> u8 {
        let vcs = self.cfg.vcs_per_port();
        let vcs_per_vnet = self.cfg.vcs_per_vnet as usize;
        self.bids.clear();
        let mut bid_ports = 0;
        let mut wake_at = Cycle::MAX;
        let occupied = self.routers[node].occupied;
        for port in 0..5 {
            let mut bits = (occupied >> (port * vcs)) & ((1 << vcs) - 1);
            while bits != 0 {
                let vc = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let order_key = port * vcs + vc;
                let router = &self.routers[node];
                let Some(flit) = router.front(order_key) else { continue };
                wake_at = wake_at.min(flit.eligible_at);
                if flit.eligible_at > now {
                    continue;
                }
                let bid = if flit.is_head() {
                    // Head flit: route computation + VC allocation.
                    let route_port = match router.coord.xy_next_hop(flit.dst) {
                        Some(dir) => Port::Link(dir),
                        None => Port::Local,
                    };
                    if route_port == Port::Local && flit.sinks_at_router() {
                        // Router-sink packets are consumed by the
                        // interception phase, never ejected; leave the
                        // flit for the next cycle's interception sweep.
                        continue;
                    }
                    let out_vc = if route_port == Port::Local {
                        0
                    } else {
                        match router.allocate_vc(route_port, flit.vnet as usize, vcs_per_vnet) {
                            Some(v) => v,
                            None => continue, // VA stall
                        }
                    };
                    Candidate {
                        source: FlitSource::Vc(port, vc),
                        out: OutRoute { port: route_port, vc: out_vc },
                        claims_vc: route_port != Port::Local,
                        priority: self.bid_priority(flit.slot, now),
                        order_key,
                    }
                } else {
                    // Body flit: follows the route claimed by its head.
                    let Some(route) = router.inputs[order_key].route else { continue };
                    if route.port != Port::Local
                        && router.out_credits[route.port.index() * vcs + route.vc as usize] == 0
                    {
                        continue; // no credit downstream
                    }
                    Candidate {
                        source: FlitSource::Vc(port, vc),
                        out: route,
                        claims_vc: false,
                        priority: 0,
                        order_key,
                    }
                };
                bid_ports |= 1 << bid.out.port.index();
                self.bids.push(bid);
            }
        }
        let router = &mut self.routers[node];
        router.wake_at = wake_at;
        if let Some(packet) = router.gen_queue.front() {
            let route_port = match router.coord.xy_next_hop(packet.dst) {
                Some(dir) => Port::Link(dir),
                None => Port::Local,
            };
            let out_vc = if route_port == Port::Local {
                Some(0)
            } else {
                router.allocate_vc(route_port, packet.vnet.index(), vcs_per_vnet)
            };
            if let Some(out_vc) = out_vc {
                bid_ports |= 1 << route_port.index();
                self.bids.push(Candidate {
                    source: FlitSource::Generator,
                    out: OutRoute { port: route_port, vc: out_vc },
                    claims_vc: route_port != Port::Local,
                    priority: if self.cfg.ocor_arbitration { aged_priority(packet, now) } else { 0 },
                    order_key: 5 * vcs,
                });
            }
        }
        bid_ports
    }

    /// Executes one granted switch traversal.
    fn apply_move(&mut self, now: Cycle, node: usize, winner: Candidate) {
        let vcs = self.cfg.vcs_per_port();
        let flit = match winner.source {
            FlitSource::Vc(port, vc) => {
                let i = port * vcs + vc;
                let router = &mut self.routers[node];
                let Some(flit) = router.pop_flit(i) else { return };
                let input = &mut router.inputs[i];
                if flit.is_head() {
                    input.route = Some(winner.out);
                }
                if flit.is_tail() {
                    input.route = None;
                }
                self.return_credit(node, port, vc);
                flit
            }
            FlitSource::Generator => {
                let Some(packet) = self.routers[node].gen_queue.pop_front() else { return };
                debug_assert_eq!(packet.flits, 1, "generated packets are single-flit");
                self.admit(packet, now)
            }
        };
        self.stats.flit_hops += 1;

        let p = winner.out.port.index();
        if p == Port::Local.index() {
            self.eject_flit(now, node, flit);
            return;
        }
        let router = &mut self.routers[node];
        let o = p * vcs + winner.out.vc as usize;
        if winner.claims_vc {
            debug_assert!(router.out_owned & (1 << o) == 0);
            router.out_owned |= 1 << o;
        }
        debug_assert!(router.out_credits[o] > 0);
        router.out_credits[o] -= 1;
        if flit.is_tail() {
            router.out_owned &= !(1 << o);
        }
        // XY route computation only picks a port with an in-mesh neighbour.
        let Some(link) = router.links[p] else { return };
        let mut flit = flit;
        // One cycle of link traversal plus the downstream router's
        // RC/VA/SA stage: the flit competes for the next switch two
        // cycles after leaving this one (2-cycle hop, Table 1's
        // 2-stage pipelined router).
        flit.eligible_at = now + 2;
        let n_node = link.node as usize;
        self.routers[n_node].push_flit(link.port as usize * vcs + winner.out.vc as usize, flit);
        self.active_routers.add(n_node);
    }

    /// Moves `packet` into the slab and returns its head flit.
    fn admit(&mut self, packet: Packet<P>, eligible_at: Cycle) -> Flit {
        let mut head = Flit::head_of(&packet, eligible_at);
        head.slot = self.slab.store(packet);
        head
    }

    /// Counts an ejected flit; delivers the packet when its tail arrives.
    fn eject_flit(&mut self, now: Cycle, node: usize, flit: Flit) {
        let Some(resident) = self.slab.get_mut(flit.slot) else { return };
        resident.ejected += 1;
        if !flit.is_tail() {
            return;
        }
        debug_assert_eq!(resident.ejected, resident.packet.flits, "all flits ejected");
        let Some(packet) = self.slab.remove(flit.slot) else { return };
        debug_assert_eq!(packet.sink, Sink::NetworkInterface, "router-sink packets are consumed by interception");
        if self.cfg.faults.drop_ack_nth().is_some() && packet.payload.is_inv_ack() {
            self.acks_observed += 1;
            if self.cfg.faults.drop_ack_nth() == Some(self.acks_observed) {
                // Fault injection: the acknowledgement vanishes at the
                // last hop. Counted as consumed so packet conservation
                // still balances; the *protocol* is what breaks.
                self.stats.in_flight -= 1;
                self.stats.consumed += 1;
                self.stats.acks_dropped_by_fault += 1;
                return;
            }
        }
        let latency = now.saturating_since(packet.injected_at);
        self.stats.record_delivery(packet.vnet, latency);
        self.stats.in_flight -= 1;
        self.delivered[node].push_back(packet);
        self.delivered_nodes.add(node);
    }

    // ---- injection -------------------------------------------------------

    /// Injects at the nodes in `inject_active`, in ascending order. Any
    /// other node has nothing queued or streaming, so it would inject
    /// nothing and leave its round-robin pointer alone.
    fn inject_phase(&mut self, now: Cycle) {
        let vnets = self.cfg.vnets as usize;
        let mut next = self.inject_active.next_from(0);
        while let Some(node) = next {
            let start = self.inject_rr[node];
            for offset in 0..vnets {
                let vnet = (start + offset) % vnets;
                if self.try_inject_flit(now, node, vnet) {
                    self.inject_rr[node] = vnet + 1;
                    break;
                }
            }
            if !self.has_inject_work(node) {
                self.inject_active.remove(node);
            }
            next = self.inject_active.next_from(node + 1);
        }
    }

    /// Tries to inject one flit for `vnet` at `node`. Returns whether a
    /// flit entered the router.
    fn try_inject_flit(&mut self, now: Cycle, node: usize, vnet: usize) -> bool {
        let vc_depth = self.cfg.vc_depth as usize;
        let vcs_per_vnet = self.cfg.vcs_per_vnet as usize;
        // The local port's input VCs lead the flat `port * vcs + vc` index.

        if let Some(progress) = self.inject_state[node][vnet] {
            // Continue streaming the in-flight packet.
            let router = &mut self.routers[node];
            if router.occupancy(progress.vc) >= vc_depth {
                return false;
            }
            let sent = progress.sent + 1;
            let tail = sent == progress.total;
            router.push_flit(progress.vc, progress.head.body(tail, now + 1));
            self.active_routers.add(node);
            self.inject_state[node][vnet] =
                (!tail).then_some(InjectProgress { sent, ..progress });
            return true;
        }

        if self.inject[node][vnet].is_empty() {
            return false;
        }
        // Pick a local input VC in this vnet's partition with space. The
        // injector is the only writer of local input VCs and streams one
        // packet per vnet at a time, so any VC with space and no other
        // vnet's in-flight packet is usable; the vnet partition makes the
        // latter impossible by construction.
        let base = vnet * vcs_per_vnet;
        let vc = (base..base + vcs_per_vnet)
            .find(|&vc| self.routers[node].occupancy(vc) < vc_depth);
        let Some(vc) = vc else { return false };
        let Some(packet) = self.inject[node][vnet].pop_front() else { return false };
        // Link-drop fault: the nth REQUEST-class packet vanishes at the
        // injection link instead of entering the mesh. Counted as
        // consumed so packet conservation still balances; the lost
        // request is the recovery layer's problem to retransmit.
        if packet.vnet == VirtualNetwork::REQUEST && self.cfg.faults.link_drop_nth().is_some() {
            self.requests_observed += 1;
            if self.cfg.faults.link_drop_nth() == Some(self.requests_observed) {
                self.stats.in_flight -= 1;
                self.stats.consumed += 1;
                self.stats.requests_dropped_by_fault += 1;
                return false;
            }
        }
        let total = packet.flits;
        // Jitter fault: delay this packet's first switch eligibility by a
        // seeded pseudo-random amount. Body flits queue behind the head in
        // the same VC, so per-packet flit order is unaffected.
        let mut eligible_at = now + 1;
        if let Some(max_extra) = self.cfg.faults.jitter_max() {
            if max_extra > 0 {
                let extra = splitmix_next(&mut self.fault_rng) % (max_extra + 1);
                if extra > 0 {
                    self.stats.jitter_delays += 1;
                    eligible_at = now + 1 + extra;
                }
            }
        }
        let head = self.admit(packet, eligible_at);
        self.routers[node].push_flit(vc, head);
        self.active_routers.add(node);
        if !head.is_tail() {
            self.inject_state[node][vnet] = Some(InjectProgress { head, vc, sent: 1, total });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::OpaquePayload;

    fn net(cfg: NocConfig) -> Network<OpaquePayload> {
        Network::new(cfg).expect("valid config")
    }

    fn run_until_delivered(
        network: &mut Network<OpaquePayload>,
        dst: CoreId,
        deadline: u64,
    ) -> (Packet<OpaquePayload>, Cycle) {
        let mut now = Cycle::ZERO;
        for _ in 0..deadline {
            network.tick(now);
            if let Some(p) = network.pop_delivered(dst) {
                return (p, now);
            }
            now = now.next();
        }
        panic!("packet not delivered within {deadline} cycles");
    }

    fn msg(src: usize, dst: usize, flits: u8) -> Message<OpaquePayload> {
        Message {
            src: CoreId::new(src),
            dst: CoreId::new(dst),
            sink: Sink::NetworkInterface,
            vnet: VirtualNetwork::REQUEST,
            flits,
            priority: 0,
            payload: OpaquePayload,
        }
    }

    #[test]
    fn single_flit_delivery_and_latency() {
        let mut network = net(NocConfig::baseline());
        // (0,0) -> (3,0): 3 hops.
        network.send(Cycle::ZERO, msg(0, 3, 1));
        let (packet, when) = run_until_delivered(&mut network, CoreId::new(3), 100);
        assert_eq!(packet.src, Coord::new(0, 0));
        assert_eq!(packet.dst, Coord::new(3, 0));
        // 1 cycle injection + 2 cycles per hop + ejection, uncontended.
        let latency = when.saturating_since(packet.injected_at);
        assert!((6..=10).contains(&latency), "unexpected latency {latency}");
        assert_eq!(network.in_flight(), 0);
        assert_eq!(network.stats().delivered, 1);
    }

    #[test]
    fn local_delivery_no_hops() {
        let mut network = net(NocConfig::baseline());
        network.send(Cycle::ZERO, msg(5, 5, 1));
        let (_, when) = run_until_delivered(&mut network, CoreId::new(5), 20);
        assert!(when.as_u64() <= 4);
    }

    #[test]
    fn multi_flit_packet_arrives_whole() {
        let mut network = net(NocConfig::baseline());
        network.send(Cycle::ZERO, msg(0, 63, 8));
        let (packet, _) = run_until_delivered(&mut network, CoreId::new(63), 300);
        assert_eq!(packet.flits, 8);
        assert_eq!(network.in_flight(), 0);
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        // Every core sends to the diagonally opposite core.
        for src in 0..64usize {
            network.send(now, msg(src, 63 - src, 1));
        }
        let mut received = 0;
        for _ in 0..2000 {
            network.tick(now);
            for dst in 0..64usize {
                while network.pop_delivered(CoreId::new(dst)).is_some() {
                    received += 1;
                }
            }
            now = now.next();
            if received == 64 {
                break;
            }
        }
        assert_eq!(received, 64);
        assert_eq!(network.in_flight(), 0);
    }

    #[test]
    fn hotspot_traffic_drains() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        for src in 0..64usize {
            for _ in 0..4 {
                network.send(now, msg(src, 27, 1));
            }
        }
        let mut received = 0;
        for _ in 0..5000 {
            network.tick(now);
            while network.pop_delivered(CoreId::new(27)).is_some() {
                received += 1;
            }
            now = now.next();
        }
        assert_eq!(received, 64 * 4);
        assert_eq!(network.in_flight(), 0);
    }

    #[test]
    fn mixed_sizes_interleave_without_loss() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        let mut expected = 0;
        for src in 0..8usize {
            network.send(now, msg(src, 60, 8));
            network.send(now, msg(src, 60, 1));
            expected += 2;
        }
        let mut received = 0;
        for _ in 0..3000 {
            network.tick(now);
            while network.pop_delivered(CoreId::new(60)).is_some() {
                received += 1;
            }
            now = now.next();
        }
        assert_eq!(received, expected);
    }

    #[test]
    fn vnets_do_not_block_each_other_at_injection() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        // Saturate vnet 0 from node 0, then send one vnet-2 packet; it
        // must still get through promptly.
        for _ in 0..50 {
            network.send(now, msg(0, 7, 8));
        }
        let mut m = msg(0, 8, 1);
        m.vnet = VirtualNetwork::RESPONSE;
        network.send(now, m);
        let mut response_seen_at = None;
        for _ in 0..4000 {
            network.tick(now);
            if network.pop_delivered(CoreId::new(8)).is_some() {
                response_seen_at = Some(now);
                break;
            }
            now = now.next();
        }
        let at = response_seen_at.expect("response delivered");
        assert!(at.as_u64() < 100, "response crawled: {at}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut network = net(NocConfig::paper_default());
            let mut now = Cycle::ZERO;
            for src in 0..64usize {
                network.send(now, msg(src, (src * 7 + 3) % 64, if src % 3 == 0 { 8 } else { 1 }));
            }
            let mut log = Vec::new();
            for _ in 0..1500 {
                network.tick(now);
                for dst in 0..64usize {
                    while let Some(p) = network.pop_delivered(CoreId::new(dst)) {
                        log.push((now.as_u64(), dst, p.id.as_u64()));
                    }
                }
                now = now.next();
            }
            log
        };
        assert_eq!(run(), run());
    }

    /// Runs a few lock-free packets part-way so every kind of activity
    /// bookkeeping holds something, then corrupts each piece in turn on a
    /// fresh copy of that state and expects the matching violation.
    #[test]
    fn stale_activity_bookkeeping_is_a_violation() {
        let mut network = net(NocConfig::paper_default());
        let mut now = Cycle::ZERO;
        network.send(now, msg(0, 63, 8));
        network.send(now, msg(9, 10, 1));
        for _ in 0..6 {
            network.tick(now);
            now = now.next();
        }
        network.check_invariants();
        let busy = (0..64).find(|&n| network.routers[n].occupied != 0).expect("a flit in the mesh");
        assert!(network.inject_active.contains(0), "the 8-flit packet is still streaming");
        assert!(network.delivered_nodes.contains(10), "the 1-hop packet arrived");

        let violation = |network: &Network<OpaquePayload>| {
            network.try_check_invariants().expect_err("corruption must be caught")
        };
        network.routers[busy].occupied = 0;
        assert!(matches!(violation(&network), NocViolation::OccupancyMask { .. }));
        network.routers[busy].occupied = network.routers[busy].occupied_from_buffers();

        network.active_routers.remove(busy);
        assert!(matches!(
            violation(&network),
            NocViolation::ActiveSet { set: "router", has_work: true, .. }
        ));
        network.active_routers.add(busy);

        network.inject_active.remove(0);
        assert!(matches!(
            violation(&network),
            NocViolation::ActiveSet { set: "inject", has_work: true, .. }
        ));
        network.inject_active.add(0);
        network.inject_active.add(5);
        assert!(matches!(
            violation(&network),
            NocViolation::ActiveSet { set: "inject", has_work: false, .. }
        ));
        network.inject_active.remove(5);

        network.delivered_nodes.remove(10);
        assert!(matches!(
            violation(&network),
            NocViolation::ActiveSet { set: "delivered", has_work: true, .. }
        ));
        network.delivered_nodes.add(10);

        network.barrier_live.add(0);
        assert!(matches!(
            violation(&network),
            NocViolation::ActiveSet { set: "barrier-tick", has_work: false, .. }
        ));
        network.barrier_live.remove(0);
        network.check_invariants();
    }

    /// A `wake_at` past a front flit's eligibility, and a slab entry that
    /// no router holds, are both caught.
    #[test]
    fn a_late_wake_cycle_and_a_leaked_slot_are_violations() {
        let mut network = net(NocConfig::paper_default());
        let mut now = Cycle::ZERO;
        network.send(now, msg(0, 63, 8));
        for _ in 0..6 {
            network.tick(now);
            now = now.next();
        }
        network.check_invariants();
        let busy = (0..64).find(|&n| network.routers[n].occupied != 0).expect("a flit in the mesh");
        let saved = network.routers[busy].wake_at;
        network.routers[busy].wake_at = Cycle::MAX;
        assert!(matches!(network.try_check_invariants(), Err(NocViolation::WakeAt { .. })));
        network.routers[busy].wake_at = saved;

        let leaked = network.slab.store(Packet {
            id: PacketId::new(99),
            src: Coord::new(0, 0),
            dst: Coord::new(1, 0),
            sink: Sink::NetworkInterface,
            vnet: VirtualNetwork::REQUEST,
            flits: 1,
            priority: 0,
            injected_at: now,
            payload: OpaquePayload,
        });
        assert!(matches!(
            network.try_check_invariants(),
            Err(NocViolation::PacketSlab { slab: 2, in_routers: 1 })
        ));
        assert!(network.slab.remove(leaked).is_some());
        network.check_invariants();
    }

    #[test]
    fn a_live_barrier_is_ticked_until_it_expires() {
        let mut network = net(NocConfig { barrier_ttl: 3, ..NocConfig::paper_default() });
        let big = (0..64).find(|&n| network.routers[n].is_big()).expect("a big router");
        let table = network.routers[big].barrier.as_mut().expect("big router");
        table.observe_transfer(inpg_sim::Addr::new(0x80));
        let violation = network.try_check_invariants().expect_err("unlisted live barrier");
        assert!(matches!(
            violation,
            NocViolation::ActiveSet { set: "barrier-tick", has_work: true, .. }
        ));
        network.barrier_live.add(big);
        let mut now = Cycle::ZERO;
        for _ in 0..3 {
            network.tick(now);
            network.check_invariants();
            now = now.next();
        }
        assert!(!network.barrier_live.contains(big), "expired table leaves the set");
        assert_eq!(network.barrier_stats().barriers_expired, 1);
    }

    #[test]
    fn pop_next_delivered_drains_nodes_in_ascending_order() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        for (src, dst) in [(40, 41), (3, 2), (20, 21), (4, 2)] {
            network.send(now, msg(src, dst, 1));
        }
        while network.in_flight() > 0 {
            network.tick(now);
            now = now.next();
        }
        let order: Vec<usize> = std::iter::from_fn(|| network.pop_next_delivered())
            .map(|(node, _)| node.index())
            .collect();
        assert_eq!(order, vec![2, 2, 21, 41]);
        network.check_invariants();
    }

    #[test]
    fn big_router_count_matches_placement() {
        let network = net(NocConfig::paper_default());
        assert_eq!(network.big_router_count(), 32);
        let network = net(NocConfig::baseline());
        assert_eq!(network.big_router_count(), 0);
    }

    #[test]
    fn opaque_payloads_are_never_intercepted() {
        let mut network = net(NocConfig::paper_default());
        let mut now = Cycle::ZERO;
        for src in 0..32usize {
            network.send(now, msg(src, 45, 1));
        }
        let mut received = 0;
        for _ in 0..2000 {
            network.tick(now);
            while network.pop_delivered(CoreId::new(45)).is_some() {
                received += 1;
            }
            now = now.next();
        }
        assert_eq!(received, 32);
        assert_eq!(network.stats().generated_packets, 0);
        assert_eq!(network.barrier_stats().barriers_installed, 0);
    }
}
