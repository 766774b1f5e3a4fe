//! Typed invariant violations the network's self-checks can report.

use crate::coord::Coord;
use inpg_sim::{Addr, Cycle};
use std::fmt;

/// One violated network invariant, with enough identity to find the
/// culprit (router coordinate, VC, packet counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NocViolation {
    /// The number of packets actually present in the network (inject
    /// queues, VC buffers, generator queues, ejection reassembly) does not
    /// match `injected + generated - delivered - consumed`.
    PacketConservation {
        /// Packets counted by walking every buffer.
        counted: u64,
        /// Packets the counters say should be in flight.
        expected: u64,
    },
    /// A router's occupied-VC mask disagrees with its buffers: a VC
    /// holding flits would be skipped by switch allocation and
    /// interception, or an empty one visited.
    OccupancyMask {
        /// Router coordinate.
        router: Coord,
        /// The cached mask (bit `port * vcs + vc`).
        mask: u64,
        /// The mask rebuilt from the buffers.
        actual: u64,
    },
    /// An activity set is stale: a node with work of the set's kind is
    /// missing (its phase would skip it), or an idle node is listed.
    ActiveSet {
        /// Which set: `router`, `inject`, `delivered` or `barrier-tick`.
        set: &'static str,
        /// The node's router coordinate.
        router: Coord,
        /// Whether the node actually has work of that kind.
        has_work: bool,
    },
    /// Credits plus downstream occupancy no longer equal the VC depth.
    CreditConservation {
        /// Upstream router coordinate.
        router: Coord,
        /// Output port direction name.
        port: &'static str,
        /// Virtual channel index.
        vc: usize,
        /// Credits held upstream.
        credits: usize,
        /// Flits buffered downstream.
        occupancy: usize,
        /// Configured VC depth.
        depth: usize,
    },
    /// A router's `wake_at` is later than one of its front flits'
    /// `eligible_at`: interception and switch allocation would skip a
    /// router whose flit may move.
    WakeAt {
        /// Router coordinate.
        router: Coord,
        /// The cached wake cycle.
        wake_at: Cycle,
        /// The earliest `eligible_at` over the router's front flits.
        front: Cycle,
    },
    /// The packet slab does not hold exactly the packets found in
    /// routers (buffered heads plus reassembling packets): a slot leaked
    /// or was freed while its packet was still in the network.
    PacketSlab {
        /// Packets resident in the slab.
        slab: u64,
        /// Packets found by walking the router buffers.
        in_routers: u64,
    },
    /// A live barrier-table entry has an out-of-range TTL (zero, or above
    /// the configured default — entries must expire, and must never be
    /// refreshed beyond the reset value).
    BarrierTtl {
        /// Big router coordinate.
        router: Coord,
        /// Lock block address of the barrier.
        addr: Addr,
        /// The entry's TTL.
        ttl: u32,
        /// The configured reset TTL.
        max: u32,
    },
}

impl fmt::Display for NocViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocViolation::PacketConservation { counted, expected } => write!(
                f,
                "packet conservation: {counted} packets found in buffers but counters \
                 imply {expected} in flight"
            ),
            NocViolation::OccupancyMask { router, mask, actual } => write!(
                f,
                "router {router}: occupied-VC mask {mask:#x} != {actual:#x} rebuilt from the \
                 buffers"
            ),
            NocViolation::ActiveSet { set, router, has_work } => {
                if *has_work {
                    write!(f, "{set} set misses node {router}, which has work pending")
                } else {
                    write!(f, "{set} set lists node {router}, which has no work pending")
                }
            }
            NocViolation::CreditConservation { router, port, vc, credits, occupancy, depth } => {
                write!(
                    f,
                    "credit leak at router {router} port {port} vc {vc}: {credits} credits + \
                     {occupancy} buffered != depth {depth}"
                )
            }
            NocViolation::WakeAt { router, wake_at, front } => write!(
                f,
                "router {router}: wake cycle {wake_at} is after its earliest front flit's \
                 eligible cycle {front}"
            ),
            NocViolation::PacketSlab { slab, in_routers } => write!(
                f,
                "packet slab holds {slab} packets but {in_routers} were found in routers"
            ),
            NocViolation::BarrierTtl { router, addr, ttl, max } => write!(
                f,
                "barrier TTL out of range at big router {router}: lock {addr} has ttl {ttl} \
                 (valid range 1..={max})"
            ),
        }
    }
}

impl std::error::Error for NocViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_culprit() {
        let v = NocViolation::BarrierTtl {
            router: Coord::new(2, 3),
            addr: Addr::new(0x400),
            ttl: 0,
            max: 128,
        };
        let text = v.to_string();
        assert!(text.contains("(2, 3)") || text.contains("2,3") || text.contains("2, 3"));
        assert!(text.contains("ttl 0"));
    }
}
