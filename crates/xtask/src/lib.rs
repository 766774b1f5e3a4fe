//! Library surface of the workspace automation tool, so the lint
//! engine and the transition-matrix analyzer are testable from
//! integration tests. The `xtask` binary is a thin CLI over this.

pub mod audit;
pub mod callgraph;
pub mod coverage;
pub mod lint;
pub mod matrix;
pub mod parse;
