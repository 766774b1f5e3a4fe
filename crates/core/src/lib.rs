//! # iNPG: In-Network Packet Generation for critical-section acceleration
//!
//! A from-scratch Rust reproduction of Yao & Lu, *iNPG: Accelerating
//! Critical Section Access with In-Network Packet Generation for NoC
//! Based Many-Cores* (HPCA 2018). The crate stacks a flit-level mesh NoC
//! ([`inpg_noc`]), a directory-MOESI coherence hierarchy
//! ([`inpg_coherence`]), five lock primitives ([`inpg_locks`]), a
//! many-core system model ([`inpg_manycore`]) and 24 synthetic benchmark
//! models ([`inpg_workloads`]).
//!
//! The headline mechanism: *big routers* hold a locking barrier table;
//! once a lock `GetX` passes through, later competing `GetX`s for the
//! same lock are stopped in the network. The router generates the
//! invalidation to the loser's L1 itself, forwards the stopped request
//! to the home node, and relays the acknowledgement — so losers are
//! invalidated *on the way to* the home node and the winner collects its
//! acknowledgements far earlier.
//!
//! This crate is the facade over those crates: it re-exports them, and
//! adds the four comparison [`Mechanism`]s and the analytical hardware
//! model of Figure 7 ([`hardware`]). A mechanism is applied to a
//! [`SystemConfig`]; `inpg-campaign`'s `CellConfig` describes and runs
//! whole experiments.
//!
//! ```
//! use inpg::noc::BigRouterPlacement;
//! use inpg::{Mechanism, SystemConfig};
//!
//! let cfg = Mechanism::Inpg.apply(SystemConfig::baseline());
//! assert_eq!(cfg.noc.placement, BigRouterPlacement::Checkerboard);
//! let chip = inpg::hardware::chip(&cfg.noc);
//! assert_eq!(chip.big_routers, 32);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure.

pub mod hardware;
pub mod mechanism;

pub use mechanism::Mechanism;

// Re-export the sub-crates so downstream users need a single dependency.
pub use inpg_coherence as coherence;
pub use inpg_locks as locks;
pub use inpg_manycore as manycore;
pub use inpg_noc as noc;
pub use inpg_sim as sim;
pub use inpg_stats as stats;
pub use inpg_workloads as workloads;

pub use inpg_locks::LockPrimitive;
pub use inpg_manycore::{
    InvariantViolation, Segment, SimError, StallReport, SystemConfig, ThreadProgram,
};
pub use inpg_noc::{FaultKind, FaultPlan};
