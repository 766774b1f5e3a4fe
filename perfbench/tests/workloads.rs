//! The benchmark at tiny scale: every workload runs and names every
//! declared metric, the correctness gate trips on injected errors, and
//! the speedups equal those of an independent campaign run.

use inpg_campaign::json::{self, Json};
use inpg_campaign::{engine, suites, Campaign, CellSpec, ExecOptions};
use inpg_perfbench::{plan, run, Fault, Params, Report, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

const SEED: u64 = 3;
/// One critical section per thread.
const TINY: f64 = 0.001;

/// campaign_cold's cells at tiny scale, cut to two programs.
fn tiny_cells() -> Vec<CellSpec> {
    plan::campaign_cold(SEED, TINY)
        .into_iter()
        .filter(|c| ["swim", "ferret"].contains(&plan::spec_of(&c.config).name))
        .collect()
}

fn params(workload: Workload, trace: bool, tag: &str) -> Params {
    Params {
        workload,
        cells: tiny_cells(),
        seconds: 0.0,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "perfbench-{}-{tag}-{}",
            workload.name(),
            u8::from(trace)
        )),
        server: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        workers: 2,
        fault: None,
    }
}

fn run_clean(p: &Params) -> Report {
    let _ = std::fs::remove_dir_all(&p.work_dir);
    let report = run(p).expect("the harness runs");
    let _ = std::fs::remove_dir_all(&p.work_dir);
    report
}

/// The result line holds exactly the four keys, and its metrics are
/// exactly `declared`, each with its unit.
fn assert_result_line(report: &Report, declared: &[(&str, &str)], what: &str) {
    let line = json::parse(&report.json_line()).expect("the result line is JSON");
    let Json::Obj(fields) = &line else {
        panic!("{what}: the result line is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("{what}: no metrics")
    };
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.as_str(),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect();
    assert_eq!(got, declared, "{what}");
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{what}: {name} has no value"
        );
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let what = format!("{} trace {trace}", workload.name());
            let report = run_clean(&params(workload, trace, "all"));
            assert!(report.correct(), "{what}: {:?}", report.failures);
            assert!(report.attempted > 0, "{what}");
            let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_result_line(&report, declared, &what);
            if trace {
                assert_eq!(report.value("serve.hit_ratio"), Some(1.0), "{what}");
            } else {
                for (name, _) in END_TO_END {
                    let v = report.value(name).expect("declared metric present");
                    assert!(v > 0.0, "{what}: {name} = {v}");
                }
            }
        }
    }
}

#[test]
fn gate_trips_when_one_cs_count_is_off_by_one() {
    let mut p = params(Workload::CampaignCold, false, "cs");
    p.fault = Some(Fault::CsCountOffByOne);
    let report = run_clean(&p);
    assert!(!report.correct());
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    assert!(
        report.failures[0].contains("cs_count"),
        "{:?}",
        report.failures
    );
}

#[test]
fn gate_trips_on_one_corrupted_cache_entry_under_serve_warm() {
    let mut p = params(Workload::ServeWarm, false, "corrupt");
    p.fault = Some(Fault::CorruptCacheEntry);
    let report = run_clean(&p);
    assert!(!report.correct());
    // The daemon quarantines the entry and re-runs the cell, so exactly
    // one request is answered by a simulation instead of a hit.
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    assert!(
        report.failures[0].contains("fresh simulation"),
        "{:?}",
        report.failures
    );
}

#[test]
fn speedups_match_an_independent_campaign() {
    let p = params(Workload::CampaignCold, false, "xcheck");
    let report = run_clean(&p);
    // The same cells, taken from the fig11 suite `inpg campaign` runs,
    // executed again on one worker with no cache.
    let labels: Vec<&str> = p.cells.iter().map(|c| c.label.as_str()).collect();
    let mut campaign = Campaign::new("fig11");
    for cell in suites::fig11(TINY, &[plan::cell_seed(SEED)]).cells {
        if labels.contains(&cell.label.as_str()) {
            campaign.push(cell.label, cell.config);
        }
    }
    assert_eq!(campaign.cells.len(), p.cells.len());
    let opts = ExecOptions {
        workers: 1,
        cache: None,
        ..ExecOptions::quiet()
    };
    let outcome = engine::execute(&campaign, &opts).expect("campaign runs");
    let results = outcome.outcomes.iter().map(|o| (&o.spec.config, &o.record));
    let (cs, roi) = plan::speedups(results).expect("Original and iNPG pairs");
    assert_eq!(report.value("cs_access_speedup"), Some(cs));
    assert_eq!(report.value("roi_speedup"), Some(roi));
}

#[test]
fn declared_metrics_and_workloads_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no `{key}`"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |decl: &[(&str, &str)]| -> Vec<(String, String)> {
        decl.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), own(&END_TO_END));
    assert_eq!(list("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
