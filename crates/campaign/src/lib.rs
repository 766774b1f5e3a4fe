//! `inpg-campaign`: the declarative experiment-campaign engine.
//!
//! A campaign is an enumerable set of independent experiment cells in a
//! canonical order. Each cell is keyed by a stable content hash of its
//! full configuration; results live in an on-disk content-addressed
//! cache, so re-runs are incremental and interrupted campaigns resume
//! where they stopped. Cache misses execute on a std-only thread pool
//! that claims cells through one atomic cursor, and the merged artifact
//! is emitted in canonical cell order — a 1-worker run, an N-worker run, and a
//! warm-cache run produce byte-identical merged output.
//!
//! # Quickstart
//!
//! One cell is one run: [`CellConfig::system`] builds the system it
//! describes and [`CellConfig::run`] runs it and reads off its
//! [`CellRecord`].
//!
//! ```
//! use inpg::Mechanism;
//! use inpg_campaign::CellConfig;
//!
//! // Compare the baseline against iNPG on the freqmine model
//! // (scaled down so the doctest stays quick).
//! let run = |mechanism: Mechanism| {
//!     let mut cell = CellConfig::benchmark("freq");
//!     cell.mechanism = mechanism;
//!     cell.width = 4;
//!     cell.height = 4;
//!     cell.scale = 0.01;
//!     cell.run()
//! };
//! let base = run(Mechanism::Original)?;
//! let inpg = run(Mechanism::Inpg)?;
//! assert!(base.completed && inpg.completed);
//! assert!(base.cs_count > 0);
//! assert!(inpg.requests_stopped > 0, "early invalidation fired");
//! # Ok::<(), inpg::SimError>(())
//! ```
//!
//! Module map:
//!
//! * [`cell`] — cell configs, the run step (config → system → record),
//!   records, content hashing.
//! * [`suites`] — the named cell sets (one per paper figure + smoke).
//! * [`report`] — every figure's text, rendered from a merged artifact.
//! * [`cache`] — the on-disk content-addressed result cache.
//! * [`pool`] — the thread pool: an atomic cursor over cell indices.
//! * [`exec`] — the cell pipeline shared by engine and daemon: cache
//!   resolve/quarantine, isolated timed runs, dedup, artifact writing.
//! * [`engine`] — cache resolution, pooled execution, canonical merge.
//! * [`clock`] — the only wall-clock site in the crate.
//! * [`bench_out`] — `BENCH_campaign.json` emission.
//! * [`json`] — the hand-rolled canonical JSON used throughout.
//!
//! The campaign *service* (PR 8) keeps the pool resident between runs:
//!
//! * [`protocol`] — the newline-delimited JSON wire protocol.
//! * [`serve`] — the daemon: deadlines, backpressure, graceful drain.
//! * [`journal`] — the crash-safe drain journal of unfinished cells.
//! * [`submit`] — the client: sharding, failover, canonical merge.
//!
//! Sequential analysis (PR 10) runs seeds to confidence, not to a count:
//!
//! * [`adaptive`] — the adaptive controller: per-group seed streams,
//!   Welford/Student-t stopping rule, prefix-deterministic artifacts,
//!   backed by either the engine or the daemon fleet.

pub mod adaptive;
pub mod bench_out;
pub mod cache;
pub mod cell;
pub mod clock;
pub mod engine;
pub mod exec;
pub mod journal;
pub mod json;
pub mod pool;
pub mod protocol;
pub mod report;
pub mod serve;
pub mod submit;
pub mod suites;

pub use adaptive::{
    run_adaptive, AdaptiveCampaign, AdaptiveError, AdaptiveGroup, AdaptiveOptions,
    AdaptiveReport, EngineRunner, HeadlineMetric, ReplicaRunner, ServiceRunner,
};
pub use cache::{CacheMiss, ResultCache};
pub use cell::{Campaign, CellConfig, CellRecord, CellSpec, CellWorkload};
pub use engine::{
    execute, CampaignError, CampaignReport, CellOutcome, ExecOptions, FailedCell,
};
pub use protocol::{Notification, Reply, Request, ServerLine, ServiceStatus};
pub use serve::ServeOptions;
pub use submit::{AddrSource, SubmitError, SubmitOptions, SubmitReport};
