//! Experiment cells: the unit of campaign work.
//!
//! A [`CellConfig`] is the *complete* configuration of one simulation
//! run — workload, mechanism, primitive, mesh, deployment, table size,
//! retry budget, scale, seed, cycle bound, and the run checks (watchdog,
//! invariant sweep, fault plan, recovery) of a robustness run. It has
//! one canonical JSON encoding (fixed field order, shortest-roundtrip
//! numbers) and a stable 64-bit FNV-1a content hash over that encoding,
//! which keys the on-disk result cache. Equal configs hash equal; any
//! field change changes the hash.
//!
//! A [`CellRecord`] is the deterministic result of running a cell: all
//! simulated metrics, no wall-clock anything. Because the simulator is
//! deterministic per seeded config, a record is a pure function of its
//! config — exactly what makes content-addressed caching sound.

use crate::json::{self, Json};
use inpg::{
    Experiment, ExperimentResult, FaultKind, FaultPlan, LockPrimitive, Mechanism, ThreadProgram,
};
use inpg_sim::{CoreId, LockId};
use std::fmt;

/// Schema carried inside every cache entry; bump on layout changes so
/// stale entries re-run instead of being misread.
pub const SCHEMA_VERSION: u64 = 1;

/// What a cell simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum CellWorkload {
    /// One of the 24 modelled benchmarks, by name.
    Benchmark { name: String },
    /// The Figure-10 microbenchmark: every core of the mesh hammers one
    /// lock (`rounds` rounds of `compute` parallel cycles then a
    /// `cs_cycles`-cycle critical section).
    HotLock { rounds: u64, compute: u64, cs_cycles: u64 },
}

impl CellWorkload {
    /// The workload's name: the benchmark's, or `hot-lock`.
    pub fn name(&self) -> &str {
        match self {
            CellWorkload::Benchmark { name } => name,
            CellWorkload::HotLock { .. } => "hot-lock",
        }
    }
}

/// Full configuration of one experiment cell: the one description of a
/// run, whether it comes from a suite, `inpg run` or a daemon's wire.
/// Field defaults mirror [`Experiment`]'s.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    pub workload: CellWorkload,
    pub mechanism: Mechanism,
    pub primitive: LockPrimitive,
    pub width: u8,
    pub height: u8,
    /// `None` keeps the mechanism default (checkerboard for iNPG).
    pub big_routers: Option<usize>,
    pub barrier_entries: usize,
    pub retry_budget: u32,
    pub scale: f64,
    pub seed: u64,
    /// Home every lock at this core index (Figure 10), or interleave.
    pub lock_home: Option<usize>,
    /// Timeline-recording cells are never cached: the timeline is too
    /// large to serialize and is consumed in-process (Figure 9).
    pub record_timeline: bool,
    pub max_cycles: u64,
    /// Run checks: a cell that sets any of the six fields below is never
    /// cached. Abort after this many cycles without forward progress.
    pub watchdog_cycles: Option<u64>,
    /// Sweep the protocol invariants every this many cycles.
    pub check_invariants: Option<u64>,
    /// Faults injected into the NoC, and the jitter seed.
    pub faults: FaultPlan,
    /// Arm timeout-based retransmission so injected faults are survived.
    pub recover: bool,
    /// Base retransmission timeout in cycles (`None` = system default).
    pub recovery_timeout: Option<u64>,
    /// Recovery retransmissions per transaction (`None` = system
    /// default); distinct from the QSL [`retry_budget`](Self::retry_budget).
    pub recovery_retry_budget: Option<u32>,
}

impl CellConfig {
    /// A benchmark cell with [`Experiment`]'s defaults.
    pub fn benchmark(name: &str) -> Self {
        CellConfig {
            workload: CellWorkload::Benchmark { name: name.to_string() },
            ..Self::base()
        }
    }

    /// A Figure-10-style hot-lock cell (TAS, one lock, every core).
    pub fn hot_lock(rounds: u64, compute: u64, cs_cycles: u64) -> Self {
        CellConfig {
            workload: CellWorkload::HotLock { rounds, compute, cs_cycles },
            primitive: LockPrimitive::Tas,
            ..Self::base()
        }
    }

    fn base() -> Self {
        CellConfig {
            workload: CellWorkload::Benchmark { name: String::new() },
            mechanism: Mechanism::Original,
            primitive: LockPrimitive::Qsl,
            width: 8,
            height: 8,
            big_routers: None,
            barrier_entries: 16,
            retry_budget: 128,
            scale: 1.0,
            seed: 0x1a9e_4711,
            lock_home: None,
            record_timeline: false,
            max_cycles: 400_000_000,
            watchdog_cycles: None,
            check_invariants: None,
            faults: FaultPlan::none(),
            recover: false,
            recovery_timeout: None,
            recovery_retry_budget: None,
        }
    }

    /// Whether any of the six run-check fields (watchdog, invariant
    /// sweep, faults, recovery and its two knobs) differs from its
    /// default.
    fn has_run_checks(&self) -> bool {
        self.watchdog_cycles.is_some()
            || self.check_invariants.is_some()
            || self.faults != FaultPlan::none()
            || self.recover
            || self.recovery_timeout.is_some()
            || self.recovery_retry_budget.is_some()
    }

    /// Whether the cell's result may be cached on disk. Timeline cells
    /// carry their (huge, in-process) timeline and must run fresh; a
    /// run-check cell asks how the simulator copes, and runs fresh too.
    pub fn cacheable(&self) -> bool {
        !self.record_timeline && !self.has_run_checks()
    }

    /// Canonical JSON encoding: fixed field order, every field present,
    /// except that the six run-check fields are written only when one of
    /// them is set — so every cacheable cell keeps the bytes, and the
    /// hash, it had before they existed. Faults are `FaultKind`'s
    /// `kind:value` strings.
    pub fn to_json(&self) -> Json {
        let workload = match &self.workload {
            CellWorkload::Benchmark { name } => Json::obj(vec![
                ("kind", Json::Str("benchmark".into())),
                ("name", Json::Str(name.clone())),
            ]),
            CellWorkload::HotLock { rounds, compute, cs_cycles } => Json::obj(vec![
                ("kind", Json::Str("hot-lock".into())),
                ("rounds", Json::UInt(*rounds)),
                ("compute", Json::UInt(*compute)),
                ("cs_cycles", Json::UInt(*cs_cycles)),
            ]),
        };
        let mut fields = vec![
            ("schema", Json::UInt(SCHEMA_VERSION)),
            ("workload", workload),
            ("mechanism", Json::Str(mechanism_name(self.mechanism).into())),
            ("primitive", Json::Str(primitive_name(self.primitive).into())),
            ("width", Json::UInt(u64::from(self.width))),
            ("height", Json::UInt(u64::from(self.height))),
            (
                "big_routers",
                self.big_routers.map_or(Json::Null, |n| Json::UInt(n as u64)),
            ),
            ("barrier_entries", Json::UInt(self.barrier_entries as u64)),
            ("retry_budget", Json::UInt(u64::from(self.retry_budget))),
            ("scale", Json::num(self.scale)),
            ("seed", Json::UInt(self.seed)),
            (
                "lock_home",
                self.lock_home.map_or(Json::Null, |c| Json::UInt(c as u64)),
            ),
            ("record_timeline", Json::Bool(self.record_timeline)),
            ("max_cycles", Json::UInt(self.max_cycles)),
        ];
        if self.has_run_checks() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
            let kinds = self.faults.faults.iter().map(|f| Json::Str(f.to_string())).collect();
            fields.extend([
                ("watchdog_cycles", opt(self.watchdog_cycles)),
                ("check_invariants", opt(self.check_invariants)),
                (
                    "faults",
                    Json::obj(vec![
                        ("seed", Json::UInt(self.faults.seed)),
                        ("kinds", Json::Arr(kinds)),
                    ]),
                ),
                ("recover", Json::Bool(self.recover)),
                ("recovery_timeout", opt(self.recovery_timeout)),
                ("recovery_retry_budget", opt(self.recovery_retry_budget.map(u64::from))),
            ]);
        }
        Json::obj(fields)
    }

    /// Parses a canonical encoding back into a config. An absent
    /// run-check field takes its default; a malformed one is an error.
    pub fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let schema = req_u64(v, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(SchemaError(format!(
                "cell schema {schema}, engine speaks {SCHEMA_VERSION}"
            )));
        }
        let w = v.get("workload").ok_or_else(|| SchemaError("no workload".into()))?;
        let workload = match req_str(w, "kind")? {
            "benchmark" => CellWorkload::Benchmark { name: req_str(w, "name")?.to_string() },
            "hot-lock" => CellWorkload::HotLock {
                rounds: req_u64(w, "rounds")?,
                compute: req_u64(w, "compute")?,
                cs_cycles: req_u64(w, "cs_cycles")?,
            },
            other => return Err(SchemaError(format!("unknown workload kind `{other}`"))),
        };
        let mechanism: Mechanism = req_str(v, "mechanism")?
            .parse()
            .map_err(|e| SchemaError(format!("{e}")))?;
        let primitive: LockPrimitive = req_str(v, "primitive")?
            .parse()
            .map_err(|e| SchemaError(format!("{e}")))?;
        Ok(CellConfig {
            workload,
            mechanism,
            primitive,
            width: cast_u8(req_u64(v, "width")?)?,
            height: cast_u8(req_u64(v, "height")?)?,
            big_routers: opt_u64(v, "big_routers")?.map(|n| n as usize),
            barrier_entries: req_u64(v, "barrier_entries")? as usize,
            retry_budget: u32::try_from(req_u64(v, "retry_budget")?)
                .map_err(|_| SchemaError("retry_budget out of range".into()))?,
            scale: req_f64(v, "scale")?,
            seed: req_u64(v, "seed")?,
            lock_home: opt_u64(v, "lock_home")?.map(|c| c as usize),
            record_timeline: v
                .get("record_timeline")
                .and_then(Json::as_bool)
                .ok_or_else(|| SchemaError("no record_timeline".into()))?,
            max_cycles: req_u64(v, "max_cycles")?,
            watchdog_cycles: opt_u64(v, "watchdog_cycles")?,
            check_invariants: opt_u64(v, "check_invariants")?,
            faults: match v.get("faults") {
                None => FaultPlan::none(),
                Some(plan) => fault_plan_from_json(plan)?,
            },
            recover: match v.get("recover") {
                None => false,
                Some(j) => j.as_bool().ok_or_else(|| SchemaError("non-boolean `recover`".into()))?,
            },
            recovery_timeout: opt_u64(v, "recovery_timeout")?,
            recovery_retry_budget: opt_u64(v, "recovery_retry_budget")?
                .map(u32::try_from)
                .transpose()
                .map_err(|_| SchemaError("recovery_retry_budget out of range".into()))?,
        })
    }

    /// The canonical encoding as a compact string (the hash preimage).
    pub fn canonical(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Stable content hash of the full config (FNV-1a 64, hex).
    pub fn content_hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }

    /// Builds the runnable [`Experiment`] for this cell.
    pub fn to_experiment(&self) -> Experiment {
        let mut e = match &self.workload {
            CellWorkload::Benchmark { name } => Experiment::benchmark(name).scale(self.scale),
            CellWorkload::HotLock { rounds, compute, cs_cycles } => {
                let threads = usize::from(self.width) * usize::from(self.height);
                let programs: Vec<ThreadProgram> = (0..threads)
                    .map(|_| {
                        ThreadProgram::new().rounds(
                            *rounds as usize,
                            *compute,
                            LockId::new(0),
                            *cs_cycles,
                        )
                    })
                    .collect();
                Experiment::custom(self.workload.name(), programs, 1)
            }
        };
        e = e
            .mechanism(self.mechanism)
            .primitive(self.primitive)
            .mesh(self.width, self.height)
            .barrier_entries(self.barrier_entries)
            .retry_budget(self.retry_budget)
            .seed(self.seed)
            .record_timeline(self.record_timeline)
            .max_cycles(self.max_cycles)
            .faults(self.faults.clone())
            .recover(self.recover);
        if let Some(count) = self.big_routers {
            e = e.big_routers(count);
        }
        if let Some(core) = self.lock_home {
            e = e.lock_home(CoreId::new(core));
        }
        if let Some(cycles) = self.watchdog_cycles {
            e = e.watchdog_cycles(cycles);
        }
        if let Some(interval) = self.check_invariants {
            e = e.check_invariants(interval);
        }
        if let Some(cycles) = self.recovery_timeout {
            e = e.recovery_timeout(cycles);
        }
        if let Some(budget) = self.recovery_retry_budget {
            e = e.recovery_retry_budget(budget);
        }
        e
    }
}

/// One labelled cell of a campaign.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Unique human-readable label within the campaign
    /// (e.g. `freq/iNPG/QSL/s0`); the lookup key `inpg report` uses.
    pub label: String,
    pub config: CellConfig,
}

/// A declarative campaign: a named, canonically-ordered cell set.
/// Definition order *is* the canonical order — merged artifacts list
/// cells in exactly this order regardless of execution interleaving.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    pub name: String,
    pub cells: Vec<CellSpec>,
}

impl Campaign {
    pub fn new(name: impl Into<String>) -> Self {
        Campaign { name: name.into(), cells: Vec::new() }
    }

    /// Appends a cell. Labels must be unique — they are the lookup key
    /// for result formatting.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate label: that is a bug in the campaign
    /// definition, not a runtime condition.
    pub fn push(&mut self, label: impl Into<String>, config: CellConfig) {
        let label = label.into();
        assert!(
            !self.cells.iter().any(|c| c.label == label),
            "duplicate cell label `{label}` in campaign `{}`",
            self.name
        );
        self.cells.push(CellSpec { label, config });
    }

    /// Cells whose label contains `filter` (all cells when `None`).
    pub fn matching(&self, filter: Option<&str>) -> Vec<&CellSpec> {
        self.cells
            .iter()
            .filter(|c| filter.is_none_or(|f| c.label.contains(f)))
            .collect()
    }
}

/// Summary of one invalidation-acknowledgement population, serializable.
#[derive(Debug, Clone, PartialEq)]
pub struct InvAckRecord {
    pub mean: f64,
    pub max: u64,
    pub count: u64,
    /// Histogram with trailing zero buckets trimmed.
    pub histogram: Vec<u64>,
    /// Mean delay per core; `None` = that core was never invalidated.
    pub per_core_mean: Vec<Option<f64>>,
}

impl InvAckRecord {
    fn from_summary(s: &inpg::InvAckSummary) -> Self {
        let mut histogram = s.histogram.clone();
        while histogram.last() == Some(&0) {
            histogram.pop();
        }
        InvAckRecord {
            mean: s.mean,
            max: s.max,
            count: s.count,
            histogram,
            per_core_mean: s.per_core_mean.clone(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mean", Json::num(self.mean)),
            ("max", Json::UInt(self.max)),
            ("count", Json::UInt(self.count)),
            ("histogram", Json::Arr(self.histogram.iter().map(|&n| Json::UInt(n)).collect())),
            (
                "per_core_mean",
                Json::Arr(
                    self.per_core_mean
                        .iter()
                        .map(|m| m.map_or(Json::Null, Json::num))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let histogram = v
            .get("histogram")
            .and_then(Json::as_arr)
            .ok_or_else(|| SchemaError("no histogram".into()))?
            .iter()
            .map(|j| j.as_u64().ok_or_else(|| SchemaError("bad histogram bucket".into())))
            .collect::<Result<Vec<_>, _>>()?;
        let per_core_mean = v
            .get("per_core_mean")
            .and_then(Json::as_arr)
            .ok_or_else(|| SchemaError("no per_core_mean".into()))?
            .iter()
            .map(|j| match j {
                Json::Null => Ok(None),
                other => other
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| SchemaError("bad per_core_mean entry".into())),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(InvAckRecord {
            mean: req_f64(v, "mean")?,
            max: req_u64(v, "max")?,
            count: req_u64(v, "count")?,
            histogram,
            per_core_mean,
        })
    }
}

/// The deterministic result of one cell: everything the figures
/// render, nothing wall-clock. A pure function of the cell's config.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    pub completed: bool,
    pub roi_cycles: u64,
    pub cs_count: u64,
    pub threads: u64,
    pub avg_cs_coh: f64,
    pub avg_cs_cse: f64,
    pub total_parallel: u64,
    pub total_coh: u64,
    pub total_cse: u64,
    pub total_sleep: u64,
    pub lco_cycles: u64,
    pub mem_txn_cycles: u64,
    pub invack: InvAckRecord,
    pub invack_early: InvAckRecord,
    pub delivered: u64,
    pub mean_latency: f64,
    pub generated: u64,
    pub early_invs: u64,
    pub requests_stopped: u64,
    pub acks_relayed: u64,
    pub home_invs_sent: u64,
    pub home_invs_saved: u64,
}

impl CellRecord {
    /// Extracts the record from a full in-process result.
    pub fn from_result(r: &ExperimentResult) -> Self {
        CellRecord {
            completed: r.completed,
            roi_cycles: r.roi_cycles,
            cs_count: r.cs_count as u64,
            threads: r.per_thread.len() as u64,
            avg_cs_coh: r.avg_cs_coh,
            avg_cs_cse: r.avg_cs_cse,
            total_parallel: r.total_parallel,
            total_coh: r.total_coh,
            total_cse: r.total_cse,
            total_sleep: r.total_sleep,
            lco_cycles: r.lco_cycles,
            mem_txn_cycles: r.mem_txn_cycles,
            invack: InvAckRecord::from_summary(&r.invack),
            invack_early: InvAckRecord::from_summary(&r.invack_early),
            delivered: r.noc.delivered,
            mean_latency: r.noc.mean_latency,
            generated: r.noc.generated,
            early_invs: r.noc.early_invs,
            requests_stopped: r.barrier.requests_stopped,
            acks_relayed: r.barrier.acks_relayed,
            home_invs_sent: r.home_invs_sent,
            home_invs_saved: r.home_invs_saved,
        }
    }

    /// Mean critical-section access time (COH + CSE), Figure 11's
    /// normalized quantity.
    pub fn cs_access_time(&self) -> f64 {
        self.avg_cs_coh + self.avg_cs_cse
    }

    /// CS expedition of this cell over `base` (Figures 11 and 14):
    /// how many times faster a critical section is entered and left.
    pub fn cs_expedition(&self, base: &CellRecord) -> f64 {
        base.cs_access_time() / self.cs_access_time()
    }

    /// ROI finish time relative to `base` (Figure 12; one minus it is
    /// the ROI reduction of Figures 13 and 15).
    pub fn relative_roi(&self, base: &CellRecord) -> f64 {
        self.roi_cycles as f64 / base.roi_cycles as f64
    }

    /// Phase shares over the whole run `(parallel, coh, cse)`.
    pub fn phase_shares(&self) -> (f64, f64, f64) {
        let total = (self.total_parallel + self.total_coh + self.total_cse) as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.total_parallel as f64 / total,
            self.total_coh as f64 / total,
            self.total_cse as f64 / total,
        )
    }

    /// Fraction of LCO in total runtime (Figure 2's metric): lock
    /// coherence occupancy averaged over threads, relative to ROI time.
    pub fn lco_share(&self) -> f64 {
        if self.roi_cycles == 0 || self.threads == 0 {
            return 0.0;
        }
        self.lco_cycles as f64 / (self.roi_cycles as f64 * self.threads as f64)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("completed", Json::Bool(self.completed)),
            ("roi_cycles", Json::UInt(self.roi_cycles)),
            ("cs_count", Json::UInt(self.cs_count)),
            ("threads", Json::UInt(self.threads)),
            ("avg_cs_coh", Json::num(self.avg_cs_coh)),
            ("avg_cs_cse", Json::num(self.avg_cs_cse)),
            ("total_parallel", Json::UInt(self.total_parallel)),
            ("total_coh", Json::UInt(self.total_coh)),
            ("total_cse", Json::UInt(self.total_cse)),
            ("total_sleep", Json::UInt(self.total_sleep)),
            ("lco_cycles", Json::UInt(self.lco_cycles)),
            ("mem_txn_cycles", Json::UInt(self.mem_txn_cycles)),
            ("invack", self.invack.to_json()),
            ("invack_early", self.invack_early.to_json()),
            ("delivered", Json::UInt(self.delivered)),
            ("mean_latency", Json::num(self.mean_latency)),
            ("generated", Json::UInt(self.generated)),
            ("early_invs", Json::UInt(self.early_invs)),
            ("requests_stopped", Json::UInt(self.requests_stopped)),
            ("acks_relayed", Json::UInt(self.acks_relayed)),
            ("home_invs_sent", Json::UInt(self.home_invs_sent)),
            ("home_invs_saved", Json::UInt(self.home_invs_saved)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, SchemaError> {
        Ok(CellRecord {
            completed: v
                .get("completed")
                .and_then(Json::as_bool)
                .ok_or_else(|| SchemaError("no completed".into()))?,
            roi_cycles: req_u64(v, "roi_cycles")?,
            cs_count: req_u64(v, "cs_count")?,
            threads: req_u64(v, "threads")?,
            avg_cs_coh: req_f64(v, "avg_cs_coh")?,
            avg_cs_cse: req_f64(v, "avg_cs_cse")?,
            total_parallel: req_u64(v, "total_parallel")?,
            total_coh: req_u64(v, "total_coh")?,
            total_cse: req_u64(v, "total_cse")?,
            total_sleep: req_u64(v, "total_sleep")?,
            lco_cycles: req_u64(v, "lco_cycles")?,
            mem_txn_cycles: req_u64(v, "mem_txn_cycles")?,
            invack: InvAckRecord::from_json(
                v.get("invack").ok_or_else(|| SchemaError("no invack".into()))?,
            )?,
            invack_early: InvAckRecord::from_json(
                v.get("invack_early").ok_or_else(|| SchemaError("no invack_early".into()))?,
            )?,
            delivered: req_u64(v, "delivered")?,
            mean_latency: req_f64(v, "mean_latency")?,
            generated: req_u64(v, "generated")?,
            early_invs: req_u64(v, "early_invs")?,
            requests_stopped: req_u64(v, "requests_stopped")?,
            acks_relayed: req_u64(v, "acks_relayed")?,
            home_invs_sent: req_u64(v, "home_invs_sent")?,
            home_invs_saved: req_u64(v, "home_invs_saved")?,
        })
    }
}

/// A cache entry or artifact line did not match the expected layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema mismatch: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

impl From<json::ParseError> for SchemaError {
    fn from(e: json::ParseError) -> Self {
        SchemaError(e.to_string())
    }
}

/// Canonical lowercase mechanism name (roundtrips through `FromStr`).
pub fn mechanism_name(m: Mechanism) -> &'static str {
    match m {
        Mechanism::Original => "original",
        Mechanism::Ocor => "ocor",
        Mechanism::Inpg => "inpg",
        Mechanism::InpgOcor => "inpg+ocor",
    }
}

/// Canonical lowercase primitive name (roundtrips through `FromStr`).
pub fn primitive_name(p: LockPrimitive) -> &'static str {
    match p {
        LockPrimitive::Tas => "tas",
        LockPrimitive::Ticket => "ttl",
        LockPrimitive::Abql => "abql",
        LockPrimitive::Mcs => "mcs",
        LockPrimitive::Qsl => "qsl",
    }
}

/// 64-bit FNV-1a over a byte string — the content hash of the cache.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `faults` field: `{"seed": N, "kinds": ["kind:value", ...]}`.
fn fault_plan_from_json(v: &Json) -> Result<FaultPlan, SchemaError> {
    let kinds = v
        .get("kinds")
        .and_then(Json::as_arr)
        .ok_or_else(|| SchemaError("missing or non-array `faults.kinds`".into()))?;
    let mut plan = FaultPlan::none().seeded(req_u64(v, "seed")?);
    for kind in kinds {
        let spec = kind
            .as_str()
            .ok_or_else(|| SchemaError("non-string fault in `faults.kinds`".into()))?;
        plan = plan.with(FaultKind::parse(spec).map_err(SchemaError)?);
    }
    Ok(plan)
}

fn req_u64(v: &Json, key: &str) -> Result<u64, SchemaError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| SchemaError(format!("missing or non-integer `{key}`")))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, SchemaError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| SchemaError(format!("non-integer `{key}`"))),
    }
}

fn req_f64(v: &Json, key: &str) -> Result<f64, SchemaError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| SchemaError(format!("missing or non-numeric `{key}`")))
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, SchemaError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| SchemaError(format!("missing or non-string `{key}`")))
}

fn cast_u8(v: u64) -> Result<u8, SchemaError> {
    u8::try_from(v).map_err(|_| SchemaError(format!("{v} out of u8 range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> CellConfig {
        let mut c = CellConfig::benchmark("freq");
        c.mechanism = Mechanism::InpgOcor;
        c.primitive = LockPrimitive::Mcs;
        c.width = 4;
        c.height = 4;
        c.big_routers = Some(8);
        c.scale = 0.05;
        c.seed = 42;
        c
    }

    #[test]
    fn config_roundtrips_and_hash_is_stable() {
        for config in [
            sample_config(),
            CellConfig::benchmark("vips"),
            CellConfig::hot_lock(16, 500, 100),
        ] {
            let encoded = config.canonical();
            let back =
                CellConfig::from_json(&json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(back, config);
            assert_eq!(back.canonical(), encoded, "canonical form must be a fixpoint");
            assert_eq!(back.content_hash(), config.content_hash());
        }
    }

    #[test]
    fn any_field_change_changes_the_hash() {
        let base = sample_config();
        let mut variants = vec![
            CellConfig { seed: 43, ..base.clone() },
            CellConfig { scale: 0.1, ..base.clone() },
            CellConfig { mechanism: Mechanism::Inpg, ..base.clone() },
            CellConfig { primitive: LockPrimitive::Tas, ..base.clone() },
            CellConfig { big_routers: None, ..base.clone() },
            CellConfig { barrier_entries: 4, ..base.clone() },
            CellConfig { lock_home: Some(3), ..base.clone() },
            CellConfig { max_cycles: 1, ..base.clone() },
            CellConfig { watchdog_cycles: Some(1), ..base.clone() },
            CellConfig { recover: true, ..base.clone() },
        ];
        variants.push(CellConfig::benchmark("freq")); // workload defaults
        let mut hashes: Vec<String> =
            variants.iter().map(CellConfig::content_hash).collect();
        hashes.push(base.content_hash());
        hashes.sort();
        let before = hashes.len();
        hashes.dedup();
        assert_eq!(hashes.len(), before, "all variant hashes must differ");
    }

    #[test]
    fn record_roundtrips_via_a_real_run() {
        let mut config = CellConfig::hot_lock(2, 60, 25);
        config.width = 4;
        config.height = 4;
        config.max_cycles = 3_000_000;
        config.mechanism = Mechanism::Inpg;
        let result = config.to_experiment().run().expect("valid experiment");
        let record = CellRecord::from_result(&result);
        assert!(record.completed);
        assert_eq!(record.cs_count, 32);
        assert!(record.requests_stopped > 0, "iNPG must stop requests");
        let encoded = record.to_json().to_string_compact();
        let back = CellRecord::from_json(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(back, record);
        assert_eq!(
            back.to_json().to_string_compact(),
            encoded,
            "cached records must re-serialize byte-identically"
        );
        assert!((record.cs_access_time() - (record.avg_cs_coh + record.avg_cs_cse)).abs() < 1e-12);
        assert!(record.lco_share() > 0.0);
        let (p, c, s) = record.phase_shares();
        assert!((p + c + s - 1.0).abs() < 1e-9);
    }

    fn checked_config() -> CellConfig {
        let mut c = CellConfig::benchmark("kdtree");
        c.primitive = LockPrimitive::Ticket;
        c.scale = 0.1;
        c.watchdog_cycles = Some(200_000);
        c.check_invariants = Some(256);
        c.faults = FaultPlan::none()
            .with(FaultKind::DropAck { nth: 12 })
            .with(FaultKind::DelayJitter { max_extra: 3 })
            .seeded(7);
        c.recover = true;
        c.recovery_timeout = Some(4096);
        c.recovery_retry_budget = Some(5);
        c
    }

    #[test]
    fn a_cell_with_every_run_check_set_roundtrips() {
        let config = checked_config();
        let encoded = config.canonical();
        assert!(encoded.contains(r#""faults":{"seed":7,"kinds":["drop-ack:12","jitter:3"]}"#));
        let back = CellConfig::from_json(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(back, config);
        assert_eq!(back.canonical(), encoded);
        assert_eq!(back.to_experiment().run().is_ok(), config.to_experiment().run().is_ok());
    }

    #[test]
    fn any_one_run_check_makes_a_cell_uncacheable() {
        let base = CellConfig::benchmark("freq");
        assert!(base.cacheable());
        let alone = [
            CellConfig { watchdog_cycles: Some(1), ..base.clone() },
            CellConfig { check_invariants: Some(1), ..base.clone() },
            CellConfig { faults: FaultPlan::none().with(FaultKind::EiExhaust { capacity: 0 }), ..base.clone() },
            CellConfig { faults: FaultPlan::none().seeded(7), ..base.clone() },
            CellConfig { recover: true, ..base.clone() },
            CellConfig { recovery_timeout: Some(1), ..base.clone() },
            CellConfig { recovery_retry_budget: Some(1), ..base.clone() },
        ];
        for config in alone {
            assert!(!config.cacheable(), "{}", config.canonical());
            assert_ne!(config.content_hash(), base.content_hash());
        }
    }

    #[test]
    fn a_malformed_run_check_field_is_a_schema_error() {
        let good = checked_config().canonical();
        for (from, to) in [
            ("drop-ack:12", "drop-ack:twelve"),
            ("drop-ack:12", "meteor:1"),
            (r#""recover":true"#, r#""recover":1"#),
            (r#""seed":7,"kinds""#, r#""seed":-7,"kinds""#),
            (r#""watchdog_cycles":200000"#, r#""watchdog_cycles":"x""#),
            (r#""recovery_retry_budget":5"#, r#""recovery_retry_budget":5000000000"#),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "{from} must occur in the encoding");
            let err = CellConfig::from_json(&json::parse(&bad).unwrap())
                .expect_err("a malformed run check must not parse");
            assert!(!err.0.is_empty(), "{bad}");
        }
    }

    #[test]
    fn campaign_labels_are_unique_and_filterable() {
        let mut campaign = Campaign::new("t");
        campaign.push("a/x", CellConfig::benchmark("freq"));
        campaign.push("b/x", CellConfig::benchmark("vips"));
        assert_eq!(campaign.matching(None).len(), 2);
        assert_eq!(campaign.matching(Some("a/")).len(), 1);
        let result = std::panic::catch_unwind(move || {
            campaign.push("a/x", CellConfig::benchmark("nab"));
        });
        assert!(result.is_err(), "duplicate label must panic");
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        for m in Mechanism::ALL {
            assert_eq!(mechanism_name(m).parse::<Mechanism>().unwrap(), m);
        }
        for p in LockPrimitive::ALL {
            assert_eq!(primitive_name(p).parse::<LockPrimitive>().unwrap(), p);
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
