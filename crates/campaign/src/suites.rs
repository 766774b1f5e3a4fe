//! The named cell sets of the evaluation: one builder per figure plus
//! the CI smoke set, the fault matrix and the `all` union.
//!
//! `inpg campaign` and `inpg submit` build their cells here. Labels
//! are the keys [`report`](crate::report) uses to pull records back
//! out of a merged artifact; they must stay in sync with the builders
//! below.

use crate::adaptive::{AdaptiveCampaign, HeadlineMetric};
use crate::cell::{Campaign, CellConfig};
use inpg::{FaultKind, FaultPlan, LockPrimitive, Mechanism};
use inpg_workloads::{group_of, CsGroup, BENCHMARKS};

/// Tile (x=5, y=6) on the 8×8 mesh: the Figure-10 lock home.
pub const HOT_LOCK_HOME: usize = 6 * 8 + 5;

/// Big-router deployments swept by Figure 14.
pub const FIG14_DEPLOYMENTS: [usize; 5] = [0, 4, 16, 32, 64];

/// Mesh dimensions swept by Figure 15.
pub const FIG15_MESHES: [(u8, u8); 4] = [(2, 2), (4, 4), (8, 8), (16, 16)];

/// Barrier-table sizes swept by Figure 15.
pub const FIG15_TABLES: [usize; 3] = [4, 16, 64];

/// QSL retry budgets swept by the ablation harness.
pub const ABLATION_BUDGETS: [u32; 4] = [16, 64, 128, 512];

/// Barrier-table sizes swept by the ablation harness.
pub const ABLATION_ENTRIES: [usize; 5] = [1, 2, 8, 16, 32];

/// Ablation subjects (one per benchmark group).
pub const ABLATION_SUBJECTS: [&str; 3] = ["kdtree", "fluid", "dedup"];

/// The faults of the `faults` suite: each one is survived with recovery
/// armed, gracefully (jitter, barrier-off, ttl-storm, ei-exhaust,
/// router-fail) or by retransmission (drop-ack).
pub const FAULT_MATRIX: [FaultKind; 6] = [
    FaultKind::DelayJitter { max_extra: 12 },
    FaultKind::BarrierOff { at_cycle: 2000 },
    FaultKind::TtlStorm { at_cycle: 1500 },
    FaultKind::EiExhaust { capacity: 0 },
    FaultKind::DropAck { nth: 12 },
    FaultKind::RouterFail { at_cycle: 1000 },
];

/// One suite the CLI can run by name.
#[derive(Debug, Clone, Copy)]
pub struct SuiteInfo {
    pub name: &'static str,
    /// Scale used when the caller does not override it.
    pub default_scale: f64,
    /// Whether the suite averages over workload seeds.
    pub uses_seeds: bool,
    pub about: &'static str,
}

/// Every suite `build` understands, in canonical order.
pub const SUITES: &[SuiteInfo] = &[
    SuiteInfo { name: "smoke", default_scale: 0.02, uses_seeds: false, about: "tiny CI set (4x4 mesh + hot-lock)" },
    SuiteInfo { name: "fig02", default_scale: 0.2, uses_seeds: false, about: "LCO share per primitive" },
    SuiteInfo { name: "fig08", default_scale: 0.2, uses_seeds: false, about: "CS characteristics, 24 programs" },
    SuiteInfo { name: "fig09", default_scale: 0.2, uses_seeds: false, about: "freqmine timing profile (uncacheable)" },
    SuiteInfo { name: "fig10", default_scale: 0.1, uses_seeds: false, about: "Inv-Ack delay, hot lock" },
    SuiteInfo { name: "fig11", default_scale: 0.2, uses_seeds: true, about: "CS expedition, 4 mechanisms" },
    SuiteInfo { name: "fig12", default_scale: 0.2, uses_seeds: true, about: "ROI finish time (same cells as fig11)" },
    SuiteInfo { name: "fig13", default_scale: 0.05, uses_seeds: false, about: "iNPG per locking primitive" },
    SuiteInfo { name: "fig14", default_scale: 0.05, uses_seeds: false, about: "big-router deployment sweep" },
    SuiteInfo { name: "fig15", default_scale: 0.02, uses_seeds: false, about: "mesh x table-size sensitivity" },
    SuiteInfo { name: "ablation", default_scale: 0.1, uses_seeds: false, about: "retry budget / deployment / table knobs" },
    SuiteInfo { name: "faults", default_scale: 0.1, uses_seeds: false, about: "fault matrix under recovery (uncacheable)" },
    SuiteInfo { name: "all", default_scale: 0.0, uses_seeds: true, about: "union of every figure suite (per-suite scales)" },
];

/// Looks up a suite's metadata.
pub fn suite_info(name: &str) -> Option<&'static SuiteInfo> {
    SUITES.iter().find(|s| s.name == name)
}

/// Builds a suite by name. `scale` overrides the suite default (ignored
/// by `all`, which keeps each member suite at its own default); `seeds`
/// feeds the seed-averaging suites and must be nonempty.
pub fn build(name: &str, scale: Option<f64>, seeds: &[u64]) -> Option<Campaign> {
    assert!(!seeds.is_empty(), "at least one workload seed");
    let info = suite_info(name)?;
    let scale_for = |default: f64| scale.unwrap_or(default);
    Some(match info.name {
        "smoke" => smoke(scale_for(0.02)),
        "fig02" => fig02(scale_for(0.2)),
        "fig08" => fig08(scale_for(0.2)),
        "fig09" => fig09(scale_for(0.2)),
        "fig10" => fig10(scale_for(0.1)),
        "fig11" => fig11(scale_for(0.2), seeds),
        "fig12" => fig12(scale_for(0.2), seeds),
        "fig13" => fig13(scale_for(0.05)),
        "fig14" => fig14(scale_for(0.05)),
        "fig15" => fig15(scale_for(0.02)),
        "ablation" => ablation(scale_for(0.1)),
        "faults" => faults(scale_for(0.1)),
        "all" => all(seeds),
        _ => unreachable!("suite_info and build agree on names"),
    })
}

/// The first `count` workload seeds of the seed-averaging suites.
pub fn seeds(count: u64) -> Vec<u64> {
    (0..count).map(|i| 0x1a9e_4711 + i * 0x9e37).collect()
}

/// Label for a seed-averaged cell component.
pub fn seed_label(seed: u64) -> String {
    format!("s{seed:08x}")
}

/// One adaptive suite the CLI can run by name: the fixed suite it is
/// derived from, and the headline metric driven to confidence.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSuiteInfo {
    pub name: &'static str,
    pub metric: HeadlineMetric,
    pub about: &'static str,
}

/// Every suite `build_adaptive` understands. Each fixed cell (seed
/// dimension removed) becomes one adaptive *group* whose seed replicas
/// are drawn from the group's own deterministic stream — the suites
/// that already sweep seeds (fig11/fig12) sweep confidence instead.
pub const ADAPTIVE_SUITES: &[AdaptiveSuiteInfo] = &[
    AdaptiveSuiteInfo { name: "smoke", metric: HeadlineMetric::CsAccessTime, about: "tiny CI set, CS access time to confidence" },
    AdaptiveSuiteInfo { name: "fig02", metric: HeadlineMetric::LcoShare, about: "LCO share per primitive, to confidence" },
    AdaptiveSuiteInfo { name: "fig11", metric: HeadlineMetric::CsAccessTime, about: "CS expedition, seeds to confidence" },
    AdaptiveSuiteInfo { name: "fig12", metric: HeadlineMetric::RoiCycles, about: "ROI finish time, seeds to confidence" },
];

/// Looks up an adaptive suite's metadata.
pub fn adaptive_suite_info(name: &str) -> Option<&'static AdaptiveSuiteInfo> {
    ADAPTIVE_SUITES.iter().find(|s| s.name == name)
}

/// Wraps a fixed campaign: every cell becomes one adaptive group with
/// the given headline metric (the cell's `seed` field is a template the
/// controller overwrites per replica).
fn adaptive_from(campaign: Campaign, metric: HeadlineMetric) -> AdaptiveCampaign {
    let mut a = AdaptiveCampaign::new(campaign.name);
    for cell in campaign.cells {
        a.push(cell.label, cell.config, metric);
    }
    a
}

/// The fig11/fig12 cell matrix without the seed dimension: one group
/// per program × mechanism, labelled `{bench}/{mechanism}`.
fn adaptive_mechanism_sweep(
    name: &'static str,
    scale: f64,
    metric: HeadlineMetric,
) -> AdaptiveCampaign {
    let mut a = AdaptiveCampaign::new(name);
    for spec in &BENCHMARKS {
        for mechanism in Mechanism::ALL {
            a.push(
                format!("{}/{mechanism}", spec.name),
                qsl_bench(spec.name, mechanism, scale),
                metric,
            );
        }
    }
    a
}

/// Builds an adaptive suite by name. `scale` overrides the fixed
/// suite's default.
pub fn build_adaptive(name: &str, scale: Option<f64>) -> Option<AdaptiveCampaign> {
    let info = adaptive_suite_info(name)?;
    Some(match info.name {
        "smoke" => adaptive_from(smoke(scale.unwrap_or(0.02)), info.metric),
        "fig02" => adaptive_from(fig02(scale.unwrap_or(0.2)), info.metric),
        "fig11" => adaptive_mechanism_sweep("fig11", scale.unwrap_or(0.2), info.metric),
        "fig12" => adaptive_mechanism_sweep("fig12", scale.unwrap_or(0.2), info.metric),
        _ => unreachable!("adaptive_suite_info and build_adaptive agree on names"),
    })
}

fn qsl_bench(name: &str, mechanism: Mechanism, scale: f64) -> CellConfig {
    let mut c = CellConfig::benchmark(name);
    c.mechanism = mechanism;
    c.primitive = LockPrimitive::Qsl;
    c.scale = scale;
    c
}

/// Group-3 (high CS time) benchmarks — the sensitivity-study subjects
/// of Figures 14 and 15, where competition dominates.
pub fn high_group() -> Vec<&'static str> {
    BENCHMARKS
        .iter()
        .filter(|b| group_of(b) == CsGroup::High)
        .map(|b| b.name)
        .collect()
}

/// Tiny CI set: two small benchmarks and the hot-lock micro on a 4×4
/// mesh, Original vs iNPG. Seconds, not minutes.
pub fn smoke(scale: f64) -> Campaign {
    let mut c = Campaign::new("smoke");
    for bench in ["freq", "kdtree"] {
        for mechanism in [Mechanism::Original, Mechanism::Inpg] {
            let mut cfg = qsl_bench(bench, mechanism, scale);
            cfg.width = 4;
            cfg.height = 4;
            c.push(format!("{bench}/{mechanism}"), cfg);
        }
    }
    for mechanism in [Mechanism::Original, Mechanism::Inpg] {
        let mut cfg = CellConfig::hot_lock(4, 500, 100);
        cfg.mechanism = mechanism;
        cfg.width = 4;
        cfg.height = 4;
        cfg.lock_home = Some(5);
        c.push(format!("hot/{mechanism}"), cfg);
    }
    c
}

/// Figure 2: LCO share under the five primitives, Original mechanism.
pub fn fig02(scale: f64) -> Campaign {
    let mut c = Campaign::new("fig02");
    for bench in ["kdtree", "face", "fluid"] {
        for primitive in LockPrimitive::ALL {
            let mut cfg = CellConfig::benchmark(bench);
            cfg.primitive = primitive;
            cfg.scale = scale;
            c.push(format!("{bench}/{primitive}"), cfg);
        }
    }
    c
}

/// Figure 8b: COH/CSE breakdown, Original + QSL, all 24 programs.
pub fn fig08(scale: f64) -> Campaign {
    let mut c = Campaign::new("fig08");
    for spec in &BENCHMARKS {
        c.push(spec.name, qsl_bench(spec.name, Mechanism::Original, scale));
    }
    c
}

/// Figure 9: freqmine timeline under the four mechanisms. Timeline
/// cells are uncacheable and always execute fresh.
pub fn fig09(scale: f64) -> Campaign {
    let mut c = Campaign::new("fig09");
    for mechanism in Mechanism::ALL {
        let mut cfg = qsl_bench("freq", mechanism, scale);
        cfg.record_timeline = true;
        c.push(format!("{mechanism}"), cfg);
    }
    c
}

/// Rounds of the Figure-10 hot-lock micro at `scale`.
pub fn fig10_rounds(scale: f64) -> u64 {
    (scale * 160.0).ceil().max(4.0) as u64
}

/// Figure 10: 64 threads hammering one TAS lock homed at (5, 6).
pub fn fig10(scale: f64) -> Campaign {
    let mut c = Campaign::new("fig10");
    for mechanism in [Mechanism::Original, Mechanism::Inpg] {
        let mut cfg = CellConfig::hot_lock(fig10_rounds(scale), 500, 100);
        cfg.mechanism = mechanism;
        cfg.lock_home = Some(HOT_LOCK_HOME);
        c.push(format!("{mechanism}"), cfg);
    }
    c
}

fn mechanism_sweep(name: &'static str, scale: f64, seeds: &[u64]) -> Campaign {
    let mut c = Campaign::new(name);
    for spec in &BENCHMARKS {
        for mechanism in Mechanism::ALL {
            for &seed in seeds {
                let mut cfg = qsl_bench(spec.name, mechanism, scale);
                cfg.seed = seed;
                c.push(
                    format!("{}/{mechanism}/{}", spec.name, seed_label(seed)),
                    cfg,
                );
            }
        }
    }
    c
}

/// Figure 11: all 24 programs × four mechanisms × seeds (QSL).
pub fn fig11(scale: f64, seeds: &[u64]) -> Campaign {
    mechanism_sweep("fig11", scale, seeds)
}

/// Figure 12 shares Figure 11's cell set (and therefore its cache
/// entries); only the formatting differs.
pub fn fig12(scale: f64, seeds: &[u64]) -> Campaign {
    mechanism_sweep("fig12", scale, seeds)
}

/// Figure 13: all 24 programs × five primitives × {Original, iNPG}.
pub fn fig13(scale: f64) -> Campaign {
    let mut c = Campaign::new("fig13");
    for spec in &BENCHMARKS {
        for primitive in LockPrimitive::ALL {
            for mechanism in [Mechanism::Original, Mechanism::Inpg] {
                let mut cfg = CellConfig::benchmark(spec.name);
                cfg.primitive = primitive;
                cfg.mechanism = mechanism;
                cfg.scale = scale;
                c.push(format!("{}/{primitive}/{mechanism}", spec.name), cfg);
            }
        }
    }
    c
}

/// Figure 14: Group-3 programs × big-router deployments (0 = Original).
pub fn fig14(scale: f64) -> Campaign {
    let mut c = Campaign::new("fig14");
    for bench in high_group() {
        for count in FIG14_DEPLOYMENTS {
            let mechanism =
                if count == 0 { Mechanism::Original } else { Mechanism::Inpg };
            let mut cfg = qsl_bench(bench, mechanism, scale);
            cfg.big_routers = Some(count);
            c.push(format!("{bench}/br{count}"), cfg);
        }
    }
    c
}

/// Figure 15: Group-3 programs × mesh sizes × barrier-table sizes, with
/// one Original baseline per (mesh, program).
pub fn fig15(scale: f64) -> Campaign {
    let mut c = Campaign::new("fig15");
    for (w, h) in FIG15_MESHES {
        for bench in high_group() {
            let mut base = qsl_bench(bench, Mechanism::Original, scale);
            base.width = w;
            base.height = h;
            c.push(format!("{w}x{h}/{bench}/base"), base);
            for entries in FIG15_TABLES {
                let mut cfg = qsl_bench(bench, Mechanism::Inpg, scale);
                cfg.width = w;
                cfg.height = h;
                cfg.barrier_entries = entries;
                c.push(format!("{w}x{h}/{bench}/e{entries}"), cfg);
            }
        }
    }
    c
}

/// The DESIGN.md knob ablations: QSL retry budget, deployment pattern,
/// barrier-table size. Sweep points that coincide with the defaults
/// (budget 128, 16 entries) repeat the default config under their own
/// labels; the engine dedupes them at execution time.
pub fn ablation(scale: f64) -> Campaign {
    let mut c = Campaign::new("ablation");
    for subject in ABLATION_SUBJECTS {
        c.push(
            format!("{subject}/base"),
            qsl_bench(subject, Mechanism::Original, scale),
        );
        for budget in ABLATION_BUDGETS {
            let mut cfg = qsl_bench(subject, Mechanism::Inpg, scale);
            cfg.retry_budget = budget;
            c.push(format!("{subject}/budget{budget}"), cfg);
        }
        let mut spread = qsl_bench(subject, Mechanism::Inpg, scale);
        spread.big_routers = Some(32);
        c.push(format!("{subject}/spread32"), spread);
        for entries in ABLATION_ENTRIES {
            let mut cfg = qsl_bench(subject, Mechanism::Inpg, scale);
            cfg.barrier_entries = entries;
            c.push(format!("{subject}/entries{entries}"), cfg);
        }
    }
    c
}

/// The fault matrix: kdtree under ticket locks, one cell per
/// [`FAULT_MATRIX`] fault (labelled in `--fault` syntax), each with the
/// invariant sweep, the watchdog and recovery armed. Its cells are never
/// cached: every run re-checks that the simulator survives the fault.
pub fn faults(scale: f64) -> Campaign {
    let mut c = Campaign::new("faults");
    for fault in FAULT_MATRIX {
        let mut cfg = CellConfig::benchmark("kdtree");
        cfg.primitive = LockPrimitive::Ticket;
        cfg.scale = scale;
        cfg.faults = FaultPlan::none().with(fault).seeded(7);
        cfg.check_invariants = Some(256);
        cfg.watchdog_cycles = Some(200_000);
        cfg.recover = true;
        c.push(fault.to_string(), cfg);
    }
    c
}

/// The union of every figure suite (each at its own default scale),
/// labels prefixed `suite:`. Configs shared between suites — fig11 and
/// fig12 entirely, sweep points that coincide with defaults — execute
/// once thanks to content-hash dedup.
pub fn all(seeds: &[u64]) -> Campaign {
    let mut c = Campaign::new("all");
    for info in SUITES {
        if matches!(info.name, "smoke" | "faults" | "all") {
            continue;
        }
        let Some(member) = build(info.name, None, seeds) else {
            unreachable!("`{}` is in SUITES, the registry build() resolves from", info.name)
        };
        for cell in member.cells {
            c.push(format!("{}:{}", info.name, cell.label), cell.config);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_suite_builds() {
        for info in SUITES {
            let campaign = build(info.name, None, &[1, 2]).expect(info.name);
            assert_eq!(campaign.name, info.name);
            assert!(!campaign.cells.is_empty(), "{} is empty", info.name);
        }
        assert!(build("nope", None, &[1]).is_none());
    }

    #[test]
    fn fig11_and_fig12_share_their_cell_configs() {
        let a = fig11(0.2, &[7]);
        let b = fig12(0.2, &[7]);
        let hashes = |c: &Campaign| -> Vec<String> {
            c.cells.iter().map(|s| s.config.content_hash()).collect()
        };
        assert_eq!(hashes(&a), hashes(&b));
    }

    #[test]
    fn suite_cell_counts_match_their_figures() {
        assert_eq!(fig02(0.2).cells.len(), 3 * 5);
        assert_eq!(fig08(0.2).cells.len(), 24);
        assert_eq!(fig09(0.2).cells.len(), 4);
        assert_eq!(fig10(0.1).cells.len(), 2);
        assert_eq!(fig11(0.2, &[1, 2]).cells.len(), 24 * 4 * 2);
        assert_eq!(fig13(0.05).cells.len(), 24 * 5 * 2);
        let high = high_group().len();
        assert_eq!(fig14(0.05).cells.len(), high * 5);
        assert_eq!(fig15(0.02).cells.len(), high * 4 * (1 + 3));
        assert_eq!(ablation(0.1).cells.len(), 3 * (1 + 4 + 1 + 5));
        assert_eq!(faults(0.1).cells.len(), FAULT_MATRIX.len());
        let all = all(&[1]);
        assert!(all.cells.iter().all(|c| !c.label.starts_with("faults:")));
    }

    #[test]
    fn fig09_cells_are_uncacheable_and_others_are_not() {
        assert!(fig09(0.2).cells.iter().all(|c| !c.config.cacheable()));
        assert!(faults(0.1).cells.iter().all(|c| !c.config.cacheable()));
        assert!(fig11(0.2, &[1]).cells.iter().all(|c| c.config.cacheable()));
    }

    #[test]
    fn every_listed_adaptive_suite_builds() {
        for info in ADAPTIVE_SUITES {
            let campaign = build_adaptive(info.name, None).expect(info.name);
            assert_eq!(campaign.name, info.name);
            assert!(!campaign.groups.is_empty(), "{} is empty", info.name);
            assert!(
                campaign.groups.iter().all(|g| g.metric == info.metric),
                "{} groups carry the suite metric",
                info.name
            );
        }
        assert!(build_adaptive("fig10", None).is_none(), "not every suite is adaptive");
        assert!(build_adaptive("nope", None).is_none());
    }

    #[test]
    fn adaptive_suites_drop_the_seed_dimension() {
        // fig11 fixed sweeps programs x mechanisms x seeds; adaptively
        // the seed axis belongs to the controller, not the suite.
        let adaptive = build_adaptive("fig11", None).expect("builds");
        assert_eq!(adaptive.groups.len(), 24 * 4);
        assert!(adaptive.groups.iter().all(|g| !g.label.contains("/s")));
        // smoke's adaptive groups mirror its fixed cells one-to-one.
        let fixed = smoke(0.02);
        let adaptive = build_adaptive("smoke", None).expect("builds");
        let labels: Vec<&str> = adaptive.groups.iter().map(|g| g.label.as_str()).collect();
        let fixed_labels: Vec<&str> = fixed.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, fixed_labels);
    }

    #[test]
    fn ablation_default_points_dedupe_to_one_config() {
        let c = ablation(0.1);
        let budget128 = c
            .cells
            .iter()
            .find(|s| s.label == "kdtree/budget128")
            .unwrap()
            .config
            .content_hash();
        let entries16 = c
            .cells
            .iter()
            .find(|s| s.label == "kdtree/entries16")
            .unwrap()
            .config
            .content_hash();
        assert_eq!(budget128, entries16, "both are the plain iNPG default");
    }
}
