//! Full-system model for the iNPG reproduction: ties the mesh NoC, the
//! MOESI coherence hierarchy, the lock primitives and a simple in-order
//! core/OS model into one cycle-driven machine matching the paper's
//! Table-1 platform.
//!
//! # Example
//!
//! ```
//! use inpg_manycore::{LockPlacement, SystemConfig, System, ThreadProgram};
//! use inpg_noc::NocConfig;
//! use inpg_sim::LockId;
//!
//! // A 4x4 mesh where every thread runs one tiny critical section.
//! let mut cfg = SystemConfig::baseline();
//! cfg.noc = NocConfig { width: 4, height: 4, ..NocConfig::baseline() };
//! let programs = (0..16)
//!     .map(|_| ThreadProgram::new().compute(50).critical(LockId::new(0), 20))
//!     .collect();
//! let mut system = System::new(cfg, programs, 1, LockPlacement::Interleaved)?;
//! let result = system.run()?;
//! assert!(result.completed);
//! assert_eq!(system.cs_completed(), 16);
//! # Ok::<(), inpg_manycore::SimError>(())
//! ```

pub mod config;
mod core_model;
pub mod error;
pub mod program;
pub mod system;

pub use config::SystemConfig;
pub use error::{InvariantViolation, SimError, StallReport};
pub use program::{Segment, ThreadProgram};
pub use system::{LockPlacement, RunResult, System};
