//! Router micro-architecture: input-buffered virtual-channel router with a
//! 2-stage pipeline, plus the big-router packet generator attachment.
//!
//! Pipeline model: a flit that arrives in an input VC at cycle *t* becomes
//! eligible at *t + 1* (Route Computation, VC Allocation and Switch
//! Allocation happen in that stage, speculatively in parallel as in the
//! Peh–Dally router the paper baselines on); if it wins switch allocation
//! it traverses the switch and the output link in the same motion and
//! lands in the downstream input VC at the end of the cycle. An
//! uncontended hop therefore costs 2 cycles, matching the paper's 2-stage
//! pipelined router with single-cycle links.
//!
//! Data layout: packets inside routers live in the network's
//! [`PacketSlab`]; a buffered [`Flit`] is a small `Copy` value naming its
//! packet's slot. Per-VC router state is flat, indexed `port * vcs + vc`.

use crate::barrier::LockingBarrierTable;
use crate::coord::{Coord, Port};
use crate::packet::{Packet, PacketGenPayload, Sink};
use inpg_sim::Cycle;
use std::collections::VecDeque;

/// Index of a packet in the [`PacketSlab`].
pub(crate) type Slot = u32;

const HEAD: u8 = 1;
const TAIL: u8 = 2;
const ROUTER_SINK: u8 = 4;

/// One flit in a buffer. The packet lives in the slab at `slot`; a head
/// flit also carries the fields switch allocation and interception read
/// (destination, vnet, router sink), so bidding never touches the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// First cycle this flit may compete for the switch.
    pub eligible_at: Cycle,
    pub slot: Slot,
    pub dst: Coord,
    pub vnet: u8,
    flags: u8,
}

impl Flit {
    /// Filler for unused ring cells; never read as a buffered flit.
    const EMPTY: Flit =
        Flit { eligible_at: Cycle::ZERO, slot: 0, dst: Coord::new(0, 0), vnet: 0, flags: 0 };

    /// The head flit of `packet`; its `slot` is set once the packet is
    /// in the slab.
    pub(crate) fn head_of<P>(packet: &Packet<P>, eligible_at: Cycle) -> Flit {
        let mut flags = HEAD;
        if packet.flits == 1 {
            flags |= TAIL;
        }
        if packet.sink == Sink::Router {
            flags |= ROUTER_SINK;
        }
        Flit { eligible_at, slot: 0, dst: packet.dst, vnet: packet.vnet.index() as u8, flags }
    }

    /// The body flit following this head; `tail` marks the last one.
    pub(crate) fn body(self, tail: bool, eligible_at: Cycle) -> Flit {
        Flit { eligible_at, flags: if tail { TAIL } else { 0 }, ..self }
    }

    pub(crate) fn is_head(self) -> bool {
        self.flags & HEAD != 0
    }

    pub(crate) fn is_tail(self) -> bool {
        self.flags & TAIL != 0
    }

    /// Whether the packet terminates inside a router (an ack answering
    /// an early invalidation).
    pub(crate) fn sinks_at_router(self) -> bool {
        self.flags & ROUTER_SINK != 0
    }
}

/// A packet held by the network between injection of its head flit and
/// delivery (or consumption) of its tail.
#[derive(Debug)]
pub(crate) struct Resident<P> {
    pub packet: Packet<P>,
    /// Flits already ejected at the destination; nonzero while the
    /// packet is reassembling there.
    pub ejected: u8,
}

/// The packets inside routers, addressed by slot. Freed slots form a
/// free list through the entries and are reused last-freed first, so
/// the slab grows only to the high-water mark of packets resident at
/// once and then allocates nothing.
#[derive(Debug)]
pub(crate) struct PacketSlab<P> {
    entries: Vec<Entry<P>>,
    /// The most recently freed slot.
    free: Option<Slot>,
}

#[derive(Debug)]
enum Entry<P> {
    Full(Resident<P>),
    /// A free slot, linking to the slot freed before it.
    Free(Option<Slot>),
}

impl<P> PacketSlab<P> {
    pub(crate) fn new() -> Self {
        PacketSlab { entries: Vec::new(), free: None }
    }

    /// Stores `packet` and returns its slot.
    pub(crate) fn store(&mut self, packet: Packet<P>) -> Slot {
        let full = Entry::Full(Resident { packet, ejected: 0 });
        if let Some(slot) = self.free {
            if let Some(Entry::Free(next)) = self.entries.get(slot as usize) {
                self.free = *next;
                self.entries[slot as usize] = full;
                return slot;
            }
        }
        self.entries.push(full);
        (self.entries.len() - 1) as Slot
    }

    /// Removes and returns the packet at `slot`.
    pub(crate) fn remove(&mut self, slot: Slot) -> Option<Packet<P>> {
        let entry = self.entries.get_mut(slot as usize)?;
        if !matches!(entry, Entry::Full(_)) {
            return None;
        }
        match std::mem::replace(entry, Entry::Free(self.free)) {
            Entry::Full(resident) => {
                self.free = Some(slot);
                Some(resident.packet)
            }
            Entry::Free(_) => None,
        }
    }

    pub(crate) fn get(&self, slot: Slot) -> Option<&Resident<P>> {
        match self.entries.get(slot as usize)? {
            Entry::Full(resident) => Some(resident),
            Entry::Free(_) => None,
        }
    }

    pub(crate) fn get_mut(&mut self, slot: Slot) -> Option<&mut Resident<P>> {
        match self.entries.get_mut(slot as usize)? {
            Entry::Full(resident) => Some(resident),
            Entry::Free(_) => None,
        }
    }

    /// Every resident packet, in slot order (diagnostics and checks).
    pub(crate) fn residents(&self) -> impl Iterator<Item = &Resident<P>> {
        self.entries.iter().filter_map(|entry| match entry {
            Entry::Full(resident) => Some(resident),
            Entry::Free(_) => None,
        })
    }
}

/// The output route assigned to the packet currently draining a VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutRoute {
    pub port: Port,
    /// Downstream VC index; meaningless for local ejection.
    pub vc: u8,
}

/// One input virtual channel: a ring of `depth` flits in the router's
/// flit storage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InputVc {
    start: u8,
    len: u8,
    /// Route of the packet at the head of the queue, once computed.
    pub route: Option<OutRoute>,
}

/// Where a switch-allocation candidate's flit lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlitSource {
    /// An input VC: (port index, vc index).
    Vc(usize, usize),
    /// The front of the packet generator's output queue.
    Generator,
}

/// One switch-allocation candidate: an input's bid for one output port.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub source: FlitSource,
    pub out: OutRoute,
    /// True when the flit is a head flit that must claim the output VC.
    pub claims_vc: bool,
    pub priority: u8,
    /// Deterministic round-robin ordering key.
    pub order_key: usize,
}

impl Candidate {
    /// The crossbar input the flit leaves through: its port index, or 5
    /// for the packet generator. Each input moves at most one flit per
    /// cycle.
    pub(crate) fn input(&self) -> usize {
        match self.source {
            FlitSource::Vc(port, _) => port,
            FlitSource::Generator => 5,
        }
    }
}

/// The router across one output link, and the port of that router
/// which faces back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Link {
    pub node: u16,
    pub port: u8,
}

/// One mesh router (normal or big).
#[derive(Debug)]
pub(crate) struct Router<P> {
    pub coord: Coord,
    /// Input VCs, indexed `port * vcs + vc`.
    pub inputs: Vec<InputVc>,
    /// Ring storage of the input VCs: VC `i` owns
    /// `flits[i * depth..(i + 1) * depth]`.
    flits: Vec<Flit>,
    depth: usize,
    /// Credits toward the downstream input VC on each output link,
    /// indexed `port * vcs + vc`. Entries for the local port are unused.
    pub out_credits: Vec<u8>,
    /// Downstream VCs owned by a packet in flight: bit `port * vcs + vc`.
    pub out_owned: u64,
    /// Neighbour across each port, indexed by `Port::index` (`None` for
    /// the local port and at the mesh edge).
    pub links: [Option<Link>; 5],
    /// Packet generator output queue (big routers only; empty otherwise).
    pub gen_queue: VecDeque<Packet<P>>,
    /// Locking barrier table; `Some` iff this is a big router.
    pub barrier: Option<LockingBarrierTable>,
    /// Round-robin pointer per output port.
    pub rr: [usize; 5],
    /// Occupied input VCs: bit `port * vcs + vc` is set iff that VC holds
    /// a flit, so the per-cycle phases visit only occupied VCs (and skip
    /// idle routers) in ascending `(port, vc)` order.
    pub occupied: u64,
    /// VCs per input port (the stride of the flat per-VC state).
    pub vcs: usize,
    /// No front flit is eligible before this cycle: at most the minimum
    /// `eligible_at` over the front flits. A push that makes a new front
    /// lowers it, a pop that exposes one resets it to zero, and bidding
    /// recomputes it.
    pub wake_at: Cycle,
}

impl<P: PacketGenPayload> Router<P> {
    pub(crate) fn new(
        coord: Coord,
        vcs_per_port: usize,
        vc_depth: u8,
        links: [Option<Link>; 5],
        barrier: Option<LockingBarrierTable>,
    ) -> Self {
        let vc_count = 5 * vcs_per_port;
        let depth = vc_depth as usize;
        Router {
            coord,
            inputs: vec![InputVc { start: 0, len: 0, route: None }; vc_count],
            flits: vec![Flit::EMPTY; vc_count * depth],
            depth,
            out_credits: vec![vc_depth; vc_count],
            out_owned: 0,
            links,
            gen_queue: VecDeque::new(),
            barrier,
            rr: [0; 5],
            occupied: 0,
            vcs: vcs_per_port,
            wake_at: Cycle::MAX,
        }
    }

    /// Where the `k`-th flit of input VC `i` is stored (`k < depth`).
    fn ring_index(&self, i: usize, k: usize) -> usize {
        let pos = self.inputs[i].start as usize + k;
        i * self.depth + if pos >= self.depth { pos - self.depth } else { pos }
    }

    /// Flits buffered in input VC `i`.
    pub(crate) fn occupancy(&self, i: usize) -> usize {
        self.inputs[i].len as usize
    }

    /// The front flit of input VC `i`.
    pub(crate) fn front(&self, i: usize) -> Option<Flit> {
        (self.inputs[i].len > 0).then(|| self.flits[self.ring_index(i, 0)])
    }

    /// The flits of input VC `i`, front first.
    pub(crate) fn vc_flits(&self, i: usize) -> impl Iterator<Item = Flit> + '_ {
        (0..self.inputs[i].len as usize).map(move |k| self.flits[self.ring_index(i, k)])
    }

    /// Appends `flit` to input VC `i`. Credit flow control (and the
    /// injector's occupancy check) keep a full VC from being pushed to.
    pub(crate) fn push_flit(&mut self, i: usize, flit: Flit) {
        debug_assert!(self.occupancy(i) < self.depth, "push into a full VC");
        let cell = self.ring_index(i, self.occupancy(i));
        self.flits[cell] = flit;
        let input = &mut self.inputs[i];
        input.len += 1;
        if input.len == 1 {
            self.occupied |= 1 << i;
            self.wake_at = self.wake_at.min(flit.eligible_at);
        }
    }

    /// Removes the front flit of input VC `i`.
    pub(crate) fn pop_flit(&mut self, i: usize) -> Option<Flit> {
        let flit = self.front(i)?;
        let input = &mut self.inputs[i];
        input.start = if input.start as usize + 1 == self.depth { 0 } else { input.start + 1 };
        input.len -= 1;
        if input.len == 0 {
            self.occupied &= !(1 << i);
        } else {
            self.wake_at = Cycle::ZERO;
        }
        Some(flit)
    }

    /// Flits buffered across all input VCs (diagnostics).
    pub(crate) fn buffered_flits(&self) -> usize {
        self.inputs.iter().map(|input| input.len as usize).sum()
    }

    /// The occupancy mask rebuilt from the buffers (invariant checks).
    pub(crate) fn occupied_from_buffers(&self) -> u64 {
        let mut mask = 0;
        for (i, input) in self.inputs.iter().enumerate() {
            if input.len > 0 {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// The minimum `eligible_at` over the front flits (invariant checks).
    pub(crate) fn earliest_front(&self) -> Option<Cycle> {
        (0..self.inputs.len()).filter_map(|i| self.front(i)).map(|f| f.eligible_at).min()
    }

    /// Whether the router holds nothing to switch: no buffered flit and
    /// no generated packet.
    pub(crate) fn is_idle(&self) -> bool {
        self.occupied == 0 && self.gen_queue.is_empty()
    }

    /// Whether this cycle's interception and switch allocation can act
    /// here: a front flit may be eligible, or a generated packet waits.
    pub(crate) fn may_switch(&self, now: Cycle) -> bool {
        self.wake_at <= now || !self.gen_queue.is_empty()
    }

    /// Whether this router carries a packet generator.
    pub(crate) fn is_big(&self) -> bool {
        self.barrier.is_some()
    }

    /// Picks a free downstream VC for a head flit of `vnet` on `port`:
    /// unowned and with at least one credit. Returns its index.
    pub(crate) fn allocate_vc(&self, port: Port, vnet: usize, vcs_per_vnet: usize) -> Option<u8> {
        let base = vnet * vcs_per_vnet;
        let first = port.index() * self.vcs;
        (base..base + vcs_per_vnet)
            .find(|&vc| {
                self.out_owned & (1 << (first + vc)) == 0 && self.out_credits[first + vc] > 0
            })
            .map(|vc| vc as u8)
    }

    /// Deterministic round-robin winner selection for one output port
    /// among the `bids` that target it (bids for other ports are
    /// ignored).
    ///
    /// Highest priority wins when `by_priority` is set (OCOR); ties (and
    /// the non-OCOR case) fall to a cyclic round-robin over `order_key`.
    pub(crate) fn pick_winner(
        &mut self,
        out_port: Port,
        bids: &[Candidate],
        by_priority: bool,
    ) -> Option<Candidate> {
        let p = out_port.index();
        let ptr = self.rr[p];
        // Cyclic distance from the round-robin pointer.
        let distance = |c: &Candidate| {
            let k = c.order_key;
            if k >= ptr { k - ptr } else { k + 1_000_000 - ptr }
        };
        let candidates = || bids.iter().filter(|c| c.out.port == out_port).copied();
        let winner = if by_priority {
            let max = candidates().map(|c| c.priority).max()?;
            candidates().filter(|c| c.priority == max).min_by_key(distance)?
        } else {
            candidates().min_by_key(distance)?
        };
        self.rr[p] = winner.order_key + 1;
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{OpaquePayload, PacketId, VirtualNetwork};

    fn router() -> Router<OpaquePayload> {
        Router::new(Coord::new(0, 0), 8, 4, [None; 5], None)
    }

    fn cand(order_key: usize, priority: u8) -> Candidate {
        Candidate {
            source: FlitSource::Vc(0, order_key),
            out: OutRoute { port: Port::Local, vc: 0 },
            claims_vc: false,
            priority,
            order_key,
        }
    }

    fn packet(id: u64, flits: u8) -> Packet<OpaquePayload> {
        Packet {
            id: PacketId::new(id),
            src: Coord::new(0, 0),
            dst: Coord::new(1, 0),
            sink: Sink::NetworkInterface,
            vnet: VirtualNetwork::RESPONSE,
            flits,
            priority: 0,
            injected_at: Cycle::ZERO,
            payload: OpaquePayload,
        }
    }

    #[test]
    fn allocate_vc_respects_vnet_partition() {
        let mut r = router();
        // vnet 1 with 2 VCs per vnet owns VCs 2 and 3.
        assert_eq!(r.allocate_vc(Port::Local, 1, 2), Some(2));
        r.out_owned |= 1 << 2;
        assert_eq!(r.allocate_vc(Port::Local, 1, 2), Some(3));
        r.out_credits[3] = 0;
        assert_eq!(r.allocate_vc(Port::Local, 1, 2), None);
    }

    #[test]
    fn round_robin_rotates() {
        let mut r = router();
        let cands = vec![cand(0, 0), cand(1, 0), cand(2, 0)];
        let w1 = r.pick_winner(Port::Local, &cands, false).unwrap();
        assert_eq!(w1.order_key, 0);
        let w2 = r.pick_winner(Port::Local, &cands, false).unwrap();
        assert_eq!(w2.order_key, 1);
        let w3 = r.pick_winner(Port::Local, &cands, false).unwrap();
        assert_eq!(w3.order_key, 2);
        let w4 = r.pick_winner(Port::Local, &cands, false).unwrap();
        assert_eq!(w4.order_key, 0, "wraps around");
    }

    #[test]
    fn priority_beats_round_robin_when_enabled() {
        let mut r = router();
        let cands = vec![cand(0, 1), cand(1, 5), cand(2, 3)];
        let w = r.pick_winner(Port::Local, &cands, true).unwrap();
        assert_eq!(w.order_key, 1, "highest OCOR priority wins");
        // Without OCOR arbitration, round-robin ignores priority.
        let w = r.pick_winner(Port::Local, &cands, false).unwrap();
        assert_eq!(w.order_key, 2, "rr pointer advanced past 1");
    }

    #[test]
    fn priority_ties_fall_to_round_robin() {
        let mut r = router();
        let cands = vec![cand(0, 5), cand(3, 5), cand(7, 2)];
        let w1 = r.pick_winner(Port::Local, &cands, true).unwrap();
        assert_eq!(w1.order_key, 0);
        let w2 = r.pick_winner(Port::Local, &cands, true).unwrap();
        assert_eq!(w2.order_key, 3);
    }

    #[test]
    fn bids_for_other_ports_are_ignored() {
        let mut r = router();
        let mut other = cand(0, 7);
        other.out.port = Port::Link(crate::coord::Direction::East);
        let bids = vec![other, cand(4, 0)];
        let w = r.pick_winner(Port::Local, &bids, true).unwrap();
        assert_eq!(w.order_key, 4, "the higher-priority bid targets another port");
        assert!(r.pick_winner(Port::Link(crate::coord::Direction::West), &bids, true).is_none());
    }

    #[test]
    fn push_and_pop_keep_the_occupancy_mask() {
        let mut r = router();
        let flit = |slot| Flit { slot, ..Flit::head_of(&packet(0, 1), Cycle::ZERO) };
        r.push_flit(2 * 8 + 5, flit(1));
        r.push_flit(2 * 8 + 5, flit(2));
        r.push_flit(1, flit(3));
        assert_eq!(r.occupied, (1 << (2 * 8 + 5)) | (1 << 1));
        assert_eq!(r.occupied, r.occupied_from_buffers());
        assert_eq!(r.pop_flit(2 * 8 + 5).map(|f| f.slot), Some(1));
        assert_eq!(r.occupied, (1 << (2 * 8 + 5)) | (1 << 1), "one flit left");
        assert_eq!(r.pop_flit(2 * 8 + 5).map(|f| f.slot), Some(2));
        assert!(r.pop_flit(1).is_some());
        assert_eq!((r.occupied, r.buffered_flits()), (0, 0));
        assert!(r.pop_flit(1).is_none());
    }

    #[test]
    fn rings_wrap_in_fifo_order() {
        let mut r = router();
        let head = Flit::head_of(&packet(0, 8), Cycle::ZERO);
        let mut popped = Vec::new();
        for k in 0..8u64 {
            r.push_flit(3, head.body(k == 7, Cycle::new(k)));
            if r.occupancy(3) == 4 {
                popped.extend(r.pop_flit(3).map(|f| f.eligible_at.as_u64()));
            }
        }
        while let Some(f) = r.pop_flit(3) {
            popped.push(f.eligible_at.as_u64());
        }
        assert_eq!(popped, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn wake_at_bounds_the_front_flits() {
        let mut r = router();
        assert_eq!(r.wake_at, Cycle::MAX, "an empty router never wakes");
        let head = Flit::head_of(&packet(0, 8), Cycle::new(9));
        r.push_flit(0, head);
        r.push_flit(0, head.body(false, Cycle::new(5)));
        assert_eq!(r.wake_at, Cycle::new(9), "only a new front lowers it");
        r.push_flit(4, head.body(false, Cycle::new(7)));
        assert_eq!(r.wake_at, Cycle::new(7));
        r.pop_flit(0);
        assert_eq!(r.wake_at, Cycle::ZERO, "an exposed front resets it");
        assert!(r.may_switch(Cycle::ZERO));
        assert_eq!(r.earliest_front(), Some(Cycle::new(5)));
    }

    #[test]
    fn head_flits_carry_the_switching_fields() {
        let mut p = packet(4, 1);
        p.sink = Sink::Router;
        let f = Flit::head_of(&p, Cycle::new(2));
        assert!(f.is_head() && f.is_tail() && f.sinks_at_router());
        assert_eq!((f.dst, f.vnet, f.eligible_at), (Coord::new(1, 0), 2, Cycle::new(2)));
        let b = Flit::head_of(&packet(5, 8), Cycle::ZERO).body(true, Cycle::new(1));
        assert!(!b.is_head() && b.is_tail());
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut slab = PacketSlab::new();
        let a = slab.store(packet(1, 1));
        let b = slab.store(packet(2, 1));
        let c = slab.store(packet(3, 1));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(slab.remove(a).map(|p| p.id), Some(PacketId::new(1)));
        assert!(slab.remove(a).is_none(), "a slot is freed once");
        assert!(slab.remove(c).is_some());
        assert_eq!(slab.store(packet(4, 1)), c, "the last freed slot is reused first");
        assert_eq!(slab.store(packet(5, 1)), a);
        assert_eq!(slab.store(packet(6, 1)), 3, "then the slab grows");
        assert_eq!(slab.residents().count(), 4);
        assert_eq!(slab.get(b).map(|r| r.packet.id), Some(PacketId::new(2)));
        assert!(slab.get(7).is_none());
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut r = router();
        assert!(r.pick_winner(Port::Local, &[], false).is_none());
    }
}
