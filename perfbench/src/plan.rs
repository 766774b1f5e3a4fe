//! The cells each workload runs, derived from the `--seed` argument.
//!
//! Cells are taken from `inpg_campaign::suites::fig11`, so a workload's
//! cells are exactly the cells `inpg campaign fig11` runs for the same
//! scale and seed, and both hash to the same cache entries.

use inpg::manycore::{SystemConfig, ThreadProgram};
use inpg::workloads::{benchmark, generate, group_of, BenchmarkSpec, CsGroup, GenOptions};
use inpg::Mechanism;
use inpg_campaign::{suites, CellConfig, CellRecord, CellSpec, CellWorkload};
use std::collections::BTreeMap;

/// CS scale of the campaign_cold cells (and of serve_warm's cache).
pub const CAMPAIGN_SCALE: f64 = 0.02;

/// The workload seed `n` maps to the `n`-th seed `inpg campaign
/// --seeds N` derives, so `--seeds n+1` reproduces a run's cells.
pub fn cell_seed(n: u64) -> u64 {
    0x1a9e_4711_u64.wrapping_add(n.wrapping_mul(0x9e37))
}

/// campaign_cold: the Group-1 and Group-2 programs × all four mechanisms.
pub fn campaign_cold(seed: u64, scale: f64) -> Vec<CellSpec> {
    suites::fig11(scale, &[cell_seed(seed)])
        .cells
        .into_iter()
        .filter(|cell| group_of(spec_of(&cell.config)) != CsGroup::High)
        .collect()
}

/// The benchmark a cell runs.
///
/// # Panics
///
/// Panics on a non-benchmark cell; every plan above holds benchmark
/// cells only.
pub fn spec_of(config: &CellConfig) -> &'static BenchmarkSpec {
    match &config.workload {
        CellWorkload::Benchmark { name } => {
            benchmark(name).unwrap_or_else(|| panic!("`{name}` is not a modelled benchmark"))
        }
        CellWorkload::HotLock { .. } => panic!("plans hold benchmark cells only"),
    }
}

/// The inputs `Experiment::run` builds for a benchmark cell: the system
/// configuration, the generated programs and the lock count.
pub fn system_inputs(config: &CellConfig) -> (SystemConfig, Vec<ThreadProgram>, usize) {
    let spec = spec_of(config);
    let mut cfg = SystemConfig::baseline();
    cfg.noc.width = config.width;
    cfg.noc.height = config.height;
    cfg.noc.barrier_entries = config.barrier_entries;
    cfg.primitive = config.primitive;
    cfg.retry_budget = config.retry_budget;
    cfg.max_cycles = config.max_cycles;
    let cfg = config.mechanism.apply(cfg);
    let programs = generate(
        spec,
        GenOptions {
            threads: cfg.cores(),
            scale: config.scale,
            seed: config.seed,
        },
    );
    (cfg, programs, spec.locks)
}

/// Critical sections the cell's generated programs contain.
pub fn expected_cs(config: &CellConfig) -> u64 {
    let (_, programs, _) = system_inputs(config);
    programs.iter().map(|p| p.cs_count() as u64).sum()
}

/// The Fig. 11 and Fig. 12 metrics over a result set: the geometric
/// means over programs of Original ÷ iNPG mean CS access time and of
/// Original ÷ iNPG ROI finish cycles. Programs lacking either cell are
/// skipped; `None` when no program has both.
pub fn speedups<'a>(
    results: impl IntoIterator<Item = (&'a CellConfig, &'a CellRecord)>,
) -> Option<(f64, f64)> {
    let mut pairs: BTreeMap<&str, [Option<&CellRecord>; 2]> = BTreeMap::new();
    for (config, record) in results {
        let slot = match config.mechanism {
            Mechanism::Original => 0,
            Mechanism::Inpg => 1,
            Mechanism::Ocor | Mechanism::InpgOcor => continue,
        };
        pairs.entry(spec_of(config).name).or_default()[slot] = Some(record);
    }
    let (mut cs_log, mut roi_log, mut n) = (0.0, 0.0, 0u32);
    for pair in pairs.values() {
        if let [Some(original), Some(inpg)] = pair {
            cs_log += (original.cs_access_time() / inpg.cs_access_time()).ln();
            roi_log += (original.roi_cycles as f64 / inpg.roi_cycles as f64).ln();
            n += 1;
        }
    }
    (n > 0).then(|| {
        (
            (cs_log / f64::from(n)).exp(),
            (roi_log / f64::from(n)).exp(),
        )
    })
}
