//! A cycle-driven, flit-level 2D-mesh network-on-chip with iNPG "big"
//! routers, reproducing the NoC substrate of Yao & Lu, *iNPG:
//! Accelerating Critical Section Access with In-Network Packet Generation
//! for NoC Based Many-Cores* (HPCA 2018).
//!
//! # Model
//!
//! * 2D mesh, XY dimension-ordered routing (deadlock-free);
//! * input-buffered routers with virtual channels partitioned into
//!   virtual networks (message classes), credit-based flow control,
//!   wormhole switching;
//! * a 2-stage pipeline per the Peh–Dally speculative router the paper
//!   baselines on: RC/VA/SA in one stage, switch+link traversal in the
//!   next — 2 cycles per uncontended hop;
//! * control packets are one flit, cache-block data packets eight
//!   (128-bit links, 128-byte blocks, Table 1);
//! * **big routers** add the paper's packet generator: a locking barrier
//!   table that stops competing lock `GetX` requests, generates early
//!   invalidations toward the losing cores, converts the stopped request
//!   into a `FwdGetX` to the home node, and relays the returning
//!   invalidation acknowledgement to the home node.
//!
//! The network is generic over a payload type implementing
//! [`PacketGenPayload`], which is how the coherence protocol teaches big
//! routers to recognise and fabricate its messages without this crate
//! depending on the protocol.
//!
//! # Example
//!
//! ```
//! use inpg_noc::{Message, Network, NocConfig};
//! use inpg_noc::packet::{OpaquePayload, Sink, VirtualNetwork};
//! use inpg_sim::{CoreId, Cycle};
//!
//! let mut network = Network::new(NocConfig::baseline())?;
//! network.send(Cycle::ZERO, Message {
//!     src: CoreId::new(0),
//!     dst: CoreId::new(63),
//!     sink: Sink::NetworkInterface,
//!     vnet: VirtualNetwork::REQUEST,
//!     flits: 1,
//!     priority: 0,
//!     payload: OpaquePayload,
//! });
//! let mut now = Cycle::ZERO;
//! while network.in_flight() > 0 {
//!     network.tick(now);
//!     now = now.next();
//! }
//! assert!(network.pop_delivered(CoreId::new(63)).is_some());
//! # Ok::<(), inpg_sim::ConfigError>(())
//! ```

mod active;
pub mod barrier;
pub mod config;
pub mod coord;
pub mod fault;
pub mod invariant;
pub mod network;
pub mod packet;
mod router;
pub mod stats;

pub use barrier::{BarrierFsm, LockingBarrierTable};
pub use config::{BigRouterPlacement, NocConfig};
pub use coord::{Coord, Direction, Port};
pub use fault::{FaultKind, FaultPlan};
pub use invariant::NocViolation;
pub use network::{Message, Network};
pub use packet::{
    EarlyAck, LockRequest, Packet, PacketGenPayload, PacketId, Sink, VirtualNetwork,
};
pub use stats::NocStats;
