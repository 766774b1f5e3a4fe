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

use crate::barrier::LockingBarrierTable;
use crate::coord::{Coord, Port};
use crate::packet::{Packet, PacketGenPayload, PacketId};
use inpg_sim::Cycle;
use std::collections::{BTreeMap, VecDeque};

/// One flit in a buffer. The head flit carries the packet; body flits
/// carry only the packet identity for reassembly.
#[derive(Debug, Clone)]
pub(crate) struct Flit<P> {
    pub packet_id: PacketId,
    pub head: Option<Box<Packet<P>>>,
    pub tail: bool,
    /// First cycle this flit may compete for the switch.
    pub eligible_at: Cycle,
}

/// The output route assigned to the packet currently draining a VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutRoute {
    pub port: Port,
    /// Downstream VC index; meaningless for local ejection.
    pub vc: usize,
}

/// One input virtual channel.
#[derive(Debug)]
pub(crate) struct InputVc<P> {
    pub flits: VecDeque<Flit<P>>,
    /// Route of the packet at the head of the queue, once computed.
    pub route: Option<OutRoute>,
}

impl<P> InputVc<P> {
    fn new() -> Self {
        InputVc { flits: VecDeque::new(), route: None }
    }

    /// Number of buffered flits.
    pub fn occupancy(&self) -> usize {
        self.flits.len()
    }
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

/// Per-packet ejection reassembly state.
#[derive(Debug)]
pub(crate) struct EjectSlot<P> {
    pub packet: Box<Packet<P>>,
    pub flits_seen: u8,
}

/// One mesh router (normal or big).
#[derive(Debug)]
pub(crate) struct Router<P> {
    pub coord: Coord,
    /// Input VC buffers, indexed `[port][vc]`.
    pub inputs: Vec<Vec<InputVc<P>>>,
    /// Credits toward the downstream input VC on each output link,
    /// indexed `[port][vc]`. Entries for the local port are unused.
    pub out_credits: Vec<Vec<u8>>,
    /// Which packet currently owns each downstream VC.
    pub out_owner: Vec<Vec<Option<PacketId>>>,
    /// Packet generator output queue (big routers only; empty otherwise).
    pub gen_queue: VecDeque<Packet<P>>,
    /// Locking barrier table; `Some` iff this is a big router.
    pub barrier: Option<LockingBarrierTable>,
    /// Round-robin pointer per output port.
    pub rr: [usize; 5],
    /// In-progress ejection reassembly. Ordered so router state stays
    /// canonical — iteration order must not depend on hash seeds.
    pub eject: BTreeMap<PacketId, EjectSlot<P>>,
    /// Occupied input VCs: bit `port * vcs + vc` is set iff that VC holds
    /// a flit, so the per-cycle phases visit only occupied VCs (and skip
    /// idle routers) in ascending `(port, vc)` order.
    pub occupied: u64,
    /// VCs per input port (the stride of `occupied`).
    pub vcs: usize,
}

impl<P: PacketGenPayload> Router<P> {
    pub(crate) fn new(
        coord: Coord,
        vcs_per_port: usize,
        vc_depth: u8,
        barrier: Option<LockingBarrierTable>,
    ) -> Self {
        let inputs =
            (0..5).map(|_| (0..vcs_per_port).map(|_| InputVc::new()).collect()).collect();
        Router {
            coord,
            inputs,
            out_credits: (0..5).map(|_| vec![vc_depth; vcs_per_port]).collect(),
            out_owner: (0..5).map(|_| vec![None; vcs_per_port]).collect(),
            gen_queue: VecDeque::new(),
            barrier,
            rr: [0; 5],
            eject: BTreeMap::new(),
            occupied: 0,
            vcs: vcs_per_port,
        }
    }

    /// Appends `flit` to input VC `(port, vc)`.
    pub(crate) fn push_flit(&mut self, port: usize, vc: usize, flit: Flit<P>) {
        self.inputs[port][vc].flits.push_back(flit);
        self.occupied |= 1 << (port * self.vcs + vc);
    }

    /// Removes the front flit of input VC `(port, vc)`.
    pub(crate) fn pop_flit(&mut self, port: usize, vc: usize) -> Option<Flit<P>> {
        let input = &mut self.inputs[port][vc];
        let flit = input.flits.pop_front()?;
        if input.flits.is_empty() {
            self.occupied &= !(1 << (port * self.vcs + vc));
        }
        Some(flit)
    }

    /// Flits buffered across all input VCs (diagnostics).
    pub(crate) fn buffered_flits(&self) -> usize {
        self.inputs.iter().flatten().map(InputVc::occupancy).sum()
    }

    /// The occupancy mask rebuilt from the buffers (invariant checks).
    pub(crate) fn occupied_from_buffers(&self) -> u64 {
        let mut mask = 0;
        for (port, vcs) in self.inputs.iter().enumerate() {
            for (vc, input) in vcs.iter().enumerate() {
                if !input.flits.is_empty() {
                    mask |= 1 << (port * self.vcs + vc);
                }
            }
        }
        mask
    }

    /// Whether the router holds nothing to switch: no buffered flit and
    /// no generated packet.
    pub(crate) fn is_idle(&self) -> bool {
        self.occupied == 0 && self.gen_queue.is_empty()
    }

    /// Whether this router carries a packet generator.
    pub(crate) fn is_big(&self) -> bool {
        self.barrier.is_some()
    }

    /// Picks a free downstream VC for a head flit of `vnet` on `port`:
    /// unowned and with at least one credit. Returns its index.
    pub(crate) fn allocate_vc(
        &self,
        port: Port,
        vnet: usize,
        vcs_per_vnet: usize,
    ) -> Option<usize> {
        let p = port.index();
        let base = vnet * vcs_per_vnet;
        (base..base + vcs_per_vnet)
            .find(|&vc| self.out_owner[p][vc].is_none() && self.out_credits[p][vc] > 0)
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
    use crate::packet::OpaquePayload;

    fn router() -> Router<OpaquePayload> {
        Router::new(Coord::new(0, 0), 8, 4, None)
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

    #[test]
    fn allocate_vc_respects_vnet_partition() {
        let mut r = router();
        // vnet 1 with 2 VCs per vnet owns VCs 2 and 3.
        assert_eq!(r.allocate_vc(Port::Local, 1, 2), Some(2));
        r.out_owner[Port::Local.index()][2] = Some(PacketId::new(1));
        assert_eq!(r.allocate_vc(Port::Local, 1, 2), Some(3));
        r.out_credits[Port::Local.index()][3] = 0;
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
        let flit = |id| Flit {
            packet_id: PacketId::new(id),
            head: None,
            tail: true,
            eligible_at: Cycle::ZERO,
        };
        r.push_flit(2, 5, flit(1));
        r.push_flit(2, 5, flit(2));
        r.push_flit(0, 1, flit(3));
        assert_eq!(r.occupied, (1 << (2 * 8 + 5)) | (1 << 1));
        assert_eq!(r.occupied, r.occupied_from_buffers());
        assert!(r.pop_flit(2, 5).is_some());
        assert_eq!(r.occupied, (1 << (2 * 8 + 5)) | (1 << 1), "one flit left");
        assert!(r.pop_flit(2, 5).is_some());
        assert!(r.pop_flit(0, 1).is_some());
        assert_eq!((r.occupied, r.buffered_flits()), (0, 0));
        assert!(r.pop_flit(0, 1).is_none());
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut r = router();
        assert!(r.pick_winner(Port::Local, &[], false).is_none());
    }
}
