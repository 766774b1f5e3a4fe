//! The adaptive campaign controller: sequential analysis over seed
//! replicas — run each cell's seed stream until the headline metric's
//! confidence interval is tight enough, not until a fixed count runs
//! out.
//!
//! # The stopping rule is a pure function of the campaign definition
//!
//! The *schedule* is adaptive (replicas are issued in growing batches,
//! and batches from different groups interleave freely on the pool or
//! across daemons), but the *result* is not allowed to depend on any of
//! that. The rule: a group's stopping count is the smallest `n` in
//! `min_seeds..=seed_budget` such that the 95% CI half-width of the
//! metric over replicas `0..n` — folded in replica-index order — meets
//! the relative target; if no `n` does, the group stops unconverged at
//! `seed_budget`. Because each replica's record is a pure function of
//! its config (seed included), and the seed stream is a pure function
//! of the group label and replica index ([`replica_seed`]), the
//! stopping count — and therefore the merged artifact, byte for byte —
//! is identical across worker counts, daemon counts, cold/warm caches,
//! and however the controller happened to batch the work. Replicas the
//! controller scheduled speculatively past the stopping point are
//! simply dropped from the artifact; their cache entries remain and
//! make reruns cheaper.
//!
//! Per-seed records keep the exact hash scheme and cache entries of the
//! fixed-count engine: an adaptive run and a fixed `--seeds` run that
//! happen to visit the same `(config, seed)` share cache entries.

use crate::cell::{fnv1a64, CellConfig, CellRecord, CellSpec};
use crate::clock::HarnessClock;
use crate::engine::{self, ExecOptions};
use crate::exec;
use crate::json::Json;
use crate::submit::{self, SubmitOptions};
use inpg::stats::estimator::{Estimate, Welford};
use std::fmt;
use std::io;
use std::path::PathBuf;

/// The per-group quantity whose CI the controller drives to target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadlineMetric {
    /// [`CellRecord::lco_share`] — Figure 2's metric.
    LcoShare,
    /// [`CellRecord::cs_access_time`] — Figure 11's metric.
    CsAccessTime,
    /// ROI finish time in cycles — Figure 12's metric.
    RoiCycles,
}

impl HeadlineMetric {
    /// The stable name used in artifacts and progress lines.
    pub fn name(self) -> &'static str {
        match self {
            HeadlineMetric::LcoShare => "lco_share",
            HeadlineMetric::CsAccessTime => "cs_access_time",
            HeadlineMetric::RoiCycles => "roi_cycles",
        }
    }

    /// Extracts the metric from one replica's record.
    pub fn of(self, record: &CellRecord) -> f64 {
        match self {
            HeadlineMetric::LcoShare => record.lco_share(),
            HeadlineMetric::CsAccessTime => record.cs_access_time(),
            HeadlineMetric::RoiCycles => record.roi_cycles as f64,
        }
    }
}

impl fmt::Display for HeadlineMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One cell family to estimate: a config template (its `seed` field is
/// overwritten per replica) and the metric driven to confidence.
#[derive(Debug, Clone)]
pub struct AdaptiveGroup {
    pub label: String,
    pub config: CellConfig,
    pub metric: HeadlineMetric,
}

/// An adaptive campaign: named groups in canonical order.
#[derive(Debug, Clone)]
pub struct AdaptiveCampaign {
    pub name: String,
    pub groups: Vec<AdaptiveGroup>,
}

impl AdaptiveCampaign {
    pub fn new(name: impl Into<String>) -> Self {
        AdaptiveCampaign { name: name.into(), groups: Vec::new() }
    }

    /// Appends a group.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate label — a campaign-definition bug.
    pub fn push(&mut self, label: impl Into<String>, config: CellConfig, metric: HeadlineMetric) {
        let label = label.into();
        assert!(
            self.groups.iter().all(|g| g.label != label),
            "duplicate adaptive group label `{label}`"
        );
        self.groups.push(AdaptiveGroup { label, config, metric });
    }

    /// Only the groups whose label contains `filter` (all when `None`).
    pub fn matching(&self, filter: Option<&str>) -> AdaptiveCampaign {
        AdaptiveCampaign {
            name: self.name.clone(),
            groups: self
                .groups
                .iter()
                .filter(|g| filter.is_none_or(|f| g.label.contains(f)))
                .cloned()
                .collect(),
        }
    }
}

/// How to run an adaptive campaign.
#[derive(Debug, Clone)]
pub struct AdaptiveOptions {
    /// Relative 95% CI half-width target (`ci95 / |mean|`).
    pub ci_target: f64,
    /// Replicas every group runs before the CI is consulted (≥ 2; a CI
    /// needs two samples, and tiny prefixes convert t-table noise into
    /// premature stops).
    pub min_seeds: u64,
    /// Hard per-group replica cap; a group that never meets the target
    /// stops here, flagged unconverged.
    pub seed_budget: u64,
    /// Merged-artifact path (canonical order, deterministic bytes).
    pub merged_out: Option<PathBuf>,
    /// Per-round and per-group progress lines on stderr.
    pub progress: bool,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            ci_target: 0.05,
            min_seeds: 3,
            seed_budget: 16,
            merged_out: None,
            progress: false,
        }
    }
}

/// The deterministic seed of replica `index` of the group labelled
/// `group_label`: an FNV-keyed SplitMix64 stream, so every group draws
/// an independent, reproducible seed sequence with no state to carry.
pub fn replica_seed(group_label: &str, index: u64) -> u64 {
    let mut z = fnv1a64(group_label.as_bytes())
        .wrapping_add((index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The label of replica `index` within a group (also its artifact key).
pub fn replica_label(group_label: &str, index: u64) -> String {
    format!("{group_label}/r{index:03}")
}

/// The full cell spec of replica `index` of `group`.
pub fn replica_spec(group: &AdaptiveGroup, index: u64) -> CellSpec {
    let mut config = group.config.clone();
    config.seed = replica_seed(&group.label, index);
    CellSpec { label: replica_label(&group.label, index), config }
}

/// Why an adaptive run failed.
#[derive(Debug)]
pub enum AdaptiveError {
    /// The options are unusable (budget below two, non-finite target).
    Config(String),
    /// Artifact or cache I/O failed.
    Io(io::Error),
    /// A replica could not be completed.
    Replica { label: String, detail: String },
}

impl fmt::Display for AdaptiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptiveError::Config(msg) => write!(f, "adaptive config: {msg}"),
            AdaptiveError::Io(e) => write!(f, "adaptive i/o: {e}"),
            AdaptiveError::Replica { label, detail } => {
                write!(f, "replica `{label}`: {detail}")
            }
        }
    }
}

impl std::error::Error for AdaptiveError {}

impl From<io::Error> for AdaptiveError {
    fn from(e: io::Error) -> Self {
        AdaptiveError::Io(e)
    }
}

/// One resolved replica, as the controller sees it: the deterministic
/// record plus whether anything actually executed for it this run.
#[derive(Debug)]
pub struct ResolvedReplica {
    pub record: CellRecord,
    /// Served without running a simulator (cache hit or dedup sibling).
    pub cached: bool,
}

/// Where replica batches execute. The controller is backend-agnostic:
/// the in-process engine and the daemon fleet implement the same
/// contract — resolve every cell of a batch, in input order.
pub trait ReplicaRunner {
    /// Resolves `cells` (all labels distinct), returning one replica
    /// per cell in the same order.
    fn run_batch(
        &self,
        campaign_name: &str,
        cells: &[CellSpec],
    ) -> Result<Vec<ResolvedReplica>, AdaptiveError>;
}

/// Runs batches through the in-process engine (cache + pool).
pub struct EngineRunner {
    pub exec: ExecOptions,
}

impl ReplicaRunner for EngineRunner {
    fn run_batch(
        &self,
        campaign_name: &str,
        cells: &[CellSpec],
    ) -> Result<Vec<ResolvedReplica>, AdaptiveError> {
        let mut batch = crate::cell::Campaign::new(campaign_name);
        for cell in cells {
            batch.push(cell.label.clone(), cell.config.clone());
        }
        let mut exec = self.exec.clone();
        // The controller owns the artifact and the progress stream; the
        // engine only resolves records.
        exec.merged_out = None;
        exec.filter = None;
        exec.progress = false;
        exec.cell_jsonl = false;
        let report = engine::execute(&batch, &exec).map_err(|e| match e {
            engine::CampaignError::Io(e) => AdaptiveError::Io(e),
            engine::CampaignError::Cell { label, error } => {
                AdaptiveError::Replica { label, detail: error.to_string() }
            }
        })?;
        if let Some(failed) = report.failed.first() {
            return Err(AdaptiveError::Replica {
                label: failed.label.clone(),
                detail: format!("panicked: {}", failed.reason),
            });
        }
        // Labels are unique within a batch, so outcomes come back in
        // canonical order — the input order.
        Ok(report
            .outcomes
            .into_iter()
            .map(|o| ResolvedReplica { record: o.record, cached: o.cached })
            .collect())
    }
}

/// Runs batches through `inpg serve` daemons, sharded by content hash.
pub struct ServiceRunner {
    pub opts: SubmitOptions,
}

impl ReplicaRunner for ServiceRunner {
    fn run_batch(
        &self,
        _campaign_name: &str,
        cells: &[CellSpec],
    ) -> Result<Vec<ResolvedReplica>, AdaptiveError> {
        let resolutions = submit::run_cells(cells, &self.opts).map_err(|e| match e {
            submit::SubmitError::Io(e) => AdaptiveError::Io(e),
            submit::SubmitError::Cell { label, detail } => {
                AdaptiveError::Replica { label, detail }
            }
        })?;
        Ok(resolutions
            .into_iter()
            .map(|r| ResolvedReplica { record: r.record, cached: r.cached })
            .collect())
    }
}

/// One replica kept in the artifact.
#[derive(Debug)]
pub struct ReplicaOutcome {
    pub label: String,
    pub config: CellConfig,
    /// The config's content hash (its cache address).
    pub hash: String,
    pub record: CellRecord,
    /// Whether this run served it without executing a simulator.
    pub cached: bool,
}

/// One group's final estimate.
#[derive(Debug)]
pub struct GroupSummary {
    pub label: String,
    pub metric: HeadlineMetric,
    /// Mean of the metric over the kept replicas (index order).
    pub mean: f64,
    /// 95% CI half-width (`None` below two replicas — only possible
    /// with a degenerate budget).
    pub ci95: Option<f64>,
    /// Replicas kept: the deterministic stopping count.
    pub n_seeds: u64,
    /// Whether the CI target was met within the budget.
    pub converged: bool,
    /// The kept replicas, index order.
    pub replicas: Vec<ReplicaOutcome>,
}

impl GroupSummary {
    /// The relative CI half-width (`None` below two replicas).
    pub fn rel_ci95(&self) -> Option<f64> {
        self.ci95
            .map(|ci95| Estimate { mean: self.mean, ci95, n: self.n_seeds }.relative_half_width())
    }
}

/// Everything one adaptive run produced, in canonical group order.
#[derive(Debug)]
pub struct AdaptiveReport {
    pub name: String,
    pub groups: Vec<GroupSummary>,
    pub ci_target: f64,
    pub seed_budget: u64,
    /// Replicas resolved through the runner (speculative ones included).
    pub scheduled: usize,
    /// Of those, replicas that executed a simulator this run.
    pub executed: usize,
    /// Of those, replicas served from cache or by dedup.
    pub cached: usize,
    /// Suite wall time, nanoseconds (harness boundary).
    pub wall_nanos: u64,
}

impl AdaptiveReport {
    /// Replicas kept in the artifact (the sum of stopping counts).
    pub fn kept(&self) -> usize {
        self.groups.iter().map(|g| g.n_seeds as usize).sum()
    }

    /// Groups that met the CI target within the budget.
    pub fn converged(&self) -> usize {
        self.groups.iter().filter(|g| g.converged).count()
    }

    /// One stable summary line (the CI smoke job greps the
    /// `(N executed` fragment, like the engine's).
    pub fn summary_line(&self) -> String {
        format!(
            "adaptive {}: {} groups ({} converged), kept {} of {} replicas ({} executed, {} cached) in {:.2}s",
            self.name,
            self.groups.len(),
            self.converged(),
            self.kept(),
            self.scheduled,
            self.executed,
            self.cached,
            self.wall_nanos as f64 / 1e9,
        )
    }
}

/// Tracks one group across scheduling rounds.
struct GroupState {
    /// Resolved replicas, replica-index order (index = position).
    resolved: Vec<ReplicaOutcome>,
    /// `Some((n, converged))` once the stopping rule has fired.
    closed: Option<(u64, bool)>,
}

/// The deterministic stopping rule: the smallest `n` in
/// `min_n..=budget` whose index-ordered record prefix meets the
/// relative CI target, else `budget` once `budget` records exist.
/// `None` means more replicas are needed to decide.
fn stopping_point(
    metric: HeadlineMetric,
    records: &[ReplicaOutcome],
    min_n: u64,
    budget: u64,
    ci_target: f64,
) -> Option<(u64, bool)> {
    let mut w = Welford::new();
    for (i, replica) in records.iter().enumerate() {
        w.push(metric.of(&replica.record));
        let n = i as u64 + 1;
        if n >= min_n {
            if let Some(est) = w.estimate() {
                if est.meets(ci_target) {
                    return Some((n, true));
                }
            }
        }
    }
    if records.len() as u64 >= budget {
        return Some((budget, false));
    }
    None
}

/// Runs `campaign` to confidence on `runner`.
///
/// # Errors
///
/// Fails on unusable options, on the first replica (canonical order)
/// that could not be completed, and on artifact I/O failures.
pub fn run_adaptive(
    campaign: &AdaptiveCampaign,
    opts: &AdaptiveOptions,
    runner: &dyn ReplicaRunner,
) -> Result<AdaptiveReport, AdaptiveError> {
    if opts.seed_budget < 2 {
        return Err(AdaptiveError::Config(format!(
            "seed budget {} is below 2; a CI needs two samples",
            opts.seed_budget
        )));
    }
    if !opts.ci_target.is_finite() {
        return Err(AdaptiveError::Config("ci target must be finite".into()));
    }
    let clock = HarnessClock::start();
    let min_n = opts.min_seeds.max(2).min(opts.seed_budget);

    let mut states: Vec<GroupState> = campaign
        .groups
        .iter()
        .map(|_| GroupState { resolved: Vec::new(), closed: None })
        .collect();
    let mut scheduled = 0usize;
    let mut executed = 0usize;
    let mut cached = 0usize;
    let mut round = 0u32;

    loop {
        // Close every group the rule has decided.
        for (group, state) in campaign.groups.iter().zip(&mut states) {
            if state.closed.is_some() {
                continue;
            }
            state.closed = stopping_point(
                group.metric,
                &state.resolved,
                min_n,
                opts.seed_budget,
                opts.ci_target,
            );
            if opts.progress {
                if let Some((n, converged)) = state.closed {
                    eprintln!(
                        "adaptive {}: {} {} at n={n}",
                        campaign.name,
                        group.label,
                        if converged { "converged" } else { "exhausted its budget" },
                    );
                }
            }
        }

        // Schedule the next batch: the first round seeds every open
        // group to `min_n`; later rounds grow each open group ~1.5x,
        // capped at the budget. One batch spans all open groups, so the
        // pool (or daemon fleet) sees wide, mixed work.
        let mut owners: Vec<usize> = Vec::new();
        let mut batch: Vec<CellSpec> = Vec::new();
        for (gi, (group, state)) in campaign.groups.iter().zip(&states).enumerate() {
            if state.closed.is_some() {
                continue;
            }
            let have = state.resolved.len() as u64;
            let target =
                if have == 0 { min_n } else { (have + have.div_ceil(2)).min(opts.seed_budget) };
            for index in have..target {
                owners.push(gi);
                batch.push(replica_spec(group, index));
            }
        }
        if batch.is_empty() {
            break; // every group is closed
        }
        round += 1;
        if opts.progress {
            eprintln!(
                "adaptive {}: round {round}: {} replica(s) across {} open group(s)",
                campaign.name,
                batch.len(),
                owners.iter().collect::<std::collections::BTreeSet<_>>().len(),
            );
        }
        let resolved = runner.run_batch(&campaign.name, &batch)?;
        debug_assert_eq!(resolved.len(), batch.len(), "runner resolves every cell");
        scheduled += resolved.len();
        for ((gi, spec), replica) in owners.iter().zip(batch).zip(resolved) {
            if replica.cached {
                cached += 1;
            } else {
                executed += 1;
            }
            states[*gi].resolved.push(ReplicaOutcome {
                hash: spec.config.content_hash(),
                label: spec.label,
                config: spec.config,
                record: replica.record,
                cached: replica.cached,
            });
        }
    }

    // Summaries: fold the kept prefix in index order (never merged
    // partials — bit-stable means one canonical fold order).
    let groups: Vec<GroupSummary> = campaign
        .groups
        .iter()
        .zip(states)
        .map(|(group, mut state)| {
            let (n, converged) = state.closed.unwrap_or_else(|| {
                unreachable!("the scheduling loop only exits with every group closed")
            });
            state.resolved.truncate(n as usize);
            let mut w = Welford::new();
            for replica in &state.resolved {
                w.push(group.metric.of(&replica.record));
            }
            GroupSummary {
                label: group.label.clone(),
                metric: group.metric,
                mean: w.mean(),
                ci95: w.ci95_half_width(),
                n_seeds: n,
                converged,
                replicas: state.resolved,
            }
        })
        .collect();

    let report = AdaptiveReport {
        name: campaign.name.clone(),
        groups,
        ci_target: opts.ci_target,
        seed_budget: opts.seed_budget,
        scheduled,
        executed,
        cached,
        wall_nanos: clock.elapsed_nanos(),
    };

    if let Some(path) = &opts.merged_out {
        exec::write_artifact(path, artifact_lines(&report), artifact_footer(&report))?;
    }

    Ok(report)
}

/// One group's artifact summary line: the statistically settled numbers
/// downstream figure tables consume.
fn group_summary_line(group: &GroupSummary) -> Json {
    Json::obj(vec![
        ("group", Json::Str(group.label.clone())),
        ("metric", Json::Str(group.metric.name().to_string())),
        ("mean", Json::num(group.mean)),
        ("ci95", group.ci95.map_or(Json::Null, Json::num)),
        ("rel_ci95", group.rel_ci95().map_or(Json::Null, Json::num)),
        ("n_seeds", Json::UInt(group.n_seeds)),
        ("converged", Json::Bool(group.converged)),
    ])
}

/// The merged artifact's body: per group, the kept replica lines (the
/// engine's exact entry encoding — label, hash, config, record)
/// followed by the group's summary line. Everything is a pure function
/// of the campaign definition and the options.
fn artifact_lines(report: &AdaptiveReport) -> impl Iterator<Item = Json> + '_ {
    report.groups.iter().flat_map(|group| {
        group
            .replicas
            .iter()
            .map(|r| exec::merged_entry_line(&r.label, &r.hash, &r.config, &r.record))
            .chain([group_summary_line(group)])
    })
}

/// The adaptive artifact's trailing footer line.
fn artifact_footer(report: &AdaptiveReport) -> Json {
    Json::obj(vec![
        ("footer", Json::Bool(true)),
        ("campaign", Json::Str(report.name.clone())),
        ("mode", Json::Str("adaptive".into())),
        ("groups", Json::UInt(report.groups.len() as u64)),
        ("replicas", Json::UInt(report.kept() as u64)),
        ("ci_target", Json::num(report.ci_target)),
        ("seed_budget", Json::UInt(report.seed_budget)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with(roi_cycles: u64) -> CellRecord {
        let mut c = CellConfig::hot_lock(1, 40, 20);
        c.width = 2;
        c.height = 2;
        c.max_cycles = 1_000_000;
        let mut record = c.run().expect("valid cell");
        record.roi_cycles = roi_cycles;
        record
    }

    fn outcome(i: u64, roi_cycles: u64) -> ReplicaOutcome {
        let config = CellConfig::benchmark("freq");
        ReplicaOutcome {
            label: replica_label("g", i),
            hash: config.content_hash(),
            config,
            record: record_with(roi_cycles),
            cached: false,
        }
    }

    #[test]
    fn seed_streams_are_deterministic_and_group_keyed() {
        assert_eq!(replica_seed("a", 0), replica_seed("a", 0));
        assert_ne!(replica_seed("a", 0), replica_seed("a", 1));
        assert_ne!(replica_seed("a", 0), replica_seed("b", 0));
        let mut seeds: Vec<u64> = (0..64).map(|i| replica_seed("fig11/kdtree", i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "no collisions in a 64-deep stream");
    }

    #[test]
    fn metrics_read_the_documented_record_fields() {
        let record = record_with(1000);
        assert_eq!(HeadlineMetric::RoiCycles.of(&record), 1000.0);
        assert_eq!(
            HeadlineMetric::CsAccessTime.of(&record),
            record.avg_cs_coh + record.avg_cs_cse
        );
        let expected =
            record.lco_cycles as f64 / (record.roi_cycles as f64 * record.threads as f64);
        assert_eq!(HeadlineMetric::LcoShare.of(&record), expected);
    }

    #[test]
    fn stopping_rule_takes_the_smallest_satisfying_prefix() {
        // Identical values: zero variance, converges exactly at min_n.
        let identical: Vec<ReplicaOutcome> = (0..5).map(|i| outcome(i, 500)).collect();
        assert_eq!(
            stopping_point(HeadlineMetric::RoiCycles, &identical, 3, 8, 0.05),
            Some((3, true))
        );
        // A spread prefix that tightens later: undecided until enough
        // records exist, then converges at the first satisfying n.
        let spread: Vec<ReplicaOutcome> =
            [100u64, 200, 150, 150, 150, 150, 150, 150, 150, 150, 150, 150]
                .iter()
                .enumerate()
                .map(|(i, &v)| outcome(i as u64, v))
                .collect();
        let undecided = stopping_point(HeadlineMetric::RoiCycles, &spread[..3], 3, 40, 0.05);
        assert_eq!(undecided, None, "a loose CI with budget headroom keeps going");
        let (n, converged) =
            stopping_point(HeadlineMetric::RoiCycles, &spread, 3, 40, 0.30).expect("decided");
        assert!(converged);
        assert!(n >= 3 && n <= spread.len() as u64, "n={n}");
        // The same records with an unmeetable target exhaust the budget.
        assert_eq!(
            stopping_point(HeadlineMetric::RoiCycles, &spread, 3, 12, -1.0),
            Some((12, false))
        );
    }

    #[test]
    fn stopping_rule_is_prefix_stable() {
        // Extending the record list past a satisfying prefix must not
        // change the stopping point — this is what makes speculative
        // over-scheduling harmless.
        let records: Vec<ReplicaOutcome> = (0..10).map(|i| outcome(i, 700)).collect();
        let early = stopping_point(HeadlineMetric::RoiCycles, &records[..4], 3, 10, 0.05);
        let late = stopping_point(HeadlineMetric::RoiCycles, &records, 3, 10, 0.05);
        assert_eq!(early, late);
        assert_eq!(early, Some((3, true)));
    }

    #[test]
    fn degenerate_options_are_refused() {
        let campaign = AdaptiveCampaign::new("t");
        let runner = EngineRunner { exec: ExecOptions::quiet() };
        let opts = AdaptiveOptions { seed_budget: 1, ..AdaptiveOptions::default() };
        assert!(matches!(
            run_adaptive(&campaign, &opts, &runner),
            Err(AdaptiveError::Config(_))
        ));
        let opts = AdaptiveOptions { ci_target: f64::NAN, ..AdaptiveOptions::default() };
        assert!(matches!(
            run_adaptive(&campaign, &opts, &runner),
            Err(AdaptiveError::Config(_))
        ));
    }

    #[test]
    fn group_labels_must_be_unique() {
        let mut campaign = AdaptiveCampaign::new("t");
        campaign.push("g", CellConfig::benchmark("freq"), HeadlineMetric::RoiCycles);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            campaign.push("g", CellConfig::benchmark("freq"), HeadlineMetric::RoiCycles);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn filtering_keeps_matching_groups_only() {
        let mut campaign = AdaptiveCampaign::new("t");
        campaign.push("freq/a", CellConfig::benchmark("freq"), HeadlineMetric::RoiCycles);
        campaign.push("kdtree/b", CellConfig::benchmark("kdtree"), HeadlineMetric::RoiCycles);
        assert_eq!(campaign.matching(Some("freq")).groups.len(), 1);
        assert_eq!(campaign.matching(None).groups.len(), 2);
    }
}
