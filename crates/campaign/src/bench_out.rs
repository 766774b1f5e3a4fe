//! `BENCH_campaign.json` — the structured perf trajectory of the
//! harness itself.
//!
//! One file accumulates one entry per `(campaign, workers, resume,
//! cold, git_rev)` combination — `cold` meaning every cell actually
//! executed — newest run replacing the previous entry for the same
//! combination, so a warm rerun never clobbers the cold timing it would
//! be compared against, and runs of two commits stand side by side as a
//! before/after pair. Each entry records suite wall time,
//! executed/cached cell counts, total simulated cycles, suite
//! throughput, per-cell wall time and throughput, the host facts that
//! explain them (available parallelism, build profile, commit), and —
//! when the file also holds a full cold run of the same campaign at
//! `--workers 1` and commit — the measured speedup over that
//! single-worker run.

use crate::adaptive::AdaptiveReport;
use crate::clock::cycles_per_sec;
use crate::engine::CampaignReport;
use crate::exec::create_parent_dir;
use crate::json::{self, Json};
use crate::submit::SubmitReport;
use std::io;
use std::path::Path;

/// Merges `report` into the bench file at `path` (created if absent).
/// Returns the entry that was written.
pub fn write_bench_json(path: &Path, report: &CampaignReport) -> io::Result<Json> {
    // Replace the previous entry for this (campaign, workers, resume,
    // cold) at this commit.
    let report_cold = report.executed == report.outcomes.len() && report.executed > 0;
    let facts = HostFacts::probe();
    merge_run(
        path,
        |r| {
            let r_cold = r.get("cells").and_then(Json::as_u64)
                == r.get("executed").and_then(Json::as_u64)
                && r.get("executed").and_then(Json::as_u64).unwrap_or(0) > 0;
            r.get("campaign").and_then(Json::as_str) == Some(report.name.as_str())
                && r.get("workers").and_then(Json::as_u64) == Some(report.workers as u64)
                && r.get("resume").and_then(Json::as_bool) == Some(report.resume)
                && r_cold == report_cold
                && facts.same_rev(r)
        },
        |runs| entry_json(report, baseline_wall_ms(runs, report, &facts), &facts),
    )
}

/// Facts about the host and build that explain a run's numbers.
#[derive(Debug)]
struct HostFacts {
    /// Threads the host offers this process (0 when it cannot tell).
    available_parallelism: u64,
    /// The build profile of this binary, as cargo names it.
    profile: &'static str,
    /// The checkout's commit, suffixed `-dirty` when tracked files
    /// differ from it; `None` outside a git checkout.
    git_rev: Option<String>,
}

impl HostFacts {
    fn probe() -> Self {
        HostFacts {
            available_parallelism: std::thread::available_parallelism()
                .map_or(0, |n| n.get() as u64),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            git_rev: git_rev(),
        }
    }

    fn fields(&self) -> [(&'static str, Json); 3] {
        [
            ("available_parallelism", Json::UInt(self.available_parallelism)),
            ("profile", Json::Str(self.profile.into())),
            ("git_rev", self.git_rev.clone().map_or(Json::Null, Json::Str)),
        ]
    }

    /// Whether bench entry `r` was recorded at this commit.
    fn same_rev(&self, r: &Json) -> bool {
        r.get("git_rev").and_then(Json::as_str) == self.git_rev.as_deref()
    }
}

/// `git describe --always --dirty` of the current directory's checkout.
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()?;
    let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

/// Rewrites the bench file at `path` (created if absent, parent
/// directories too) with every earlier run except those `replaced`
/// matches, followed by the entry `entry` builds from the runs kept.
/// Returns that entry.
fn merge_run(
    path: &Path,
    replaced: impl Fn(&Json) -> bool,
    entry: impl FnOnce(&[Json]) -> Json,
) -> io::Result<Json> {
    let mut runs: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)
            .ok()
            .and_then(|v| v.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .unwrap_or_default(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    runs.retain(|r| !replaced(r));
    let entry = entry(&runs);
    runs.push(entry.clone());

    let doc = Json::obj(vec![
        ("schema", Json::UInt(1)),
        ("runs", Json::Arr(runs)),
    ]);
    create_parent_dir(path)?;
    std::fs::write(path, doc.to_string_compact() + "\n")?;
    Ok(entry)
}

/// Merges a service-mode (`inpg submit`) run into the bench file at
/// `path`. Service entries are keyed `(mode: "serve", campaign,
/// git_rev)` — the newest run replaces the previous serve entry for the
/// same campaign at the same commit and coexists with the in-process
/// engine's `(workers, resume, cold, git_rev)` entries, which carry no
/// `mode` field. Returns the entry written.
pub fn write_serve_bench_json(path: &Path, report: &SubmitReport) -> io::Result<Json> {
    let quantile = |q: f64| report.hit_latency_ms(q).map_or(Json::Null, Json::num);
    let facts = HostFacts::probe();
    let mut fields = vec![
        ("campaign", Json::Str(report.name.clone())),
        ("mode", Json::Str("serve".into())),
        ("daemons", Json::UInt(report.daemons as u64)),
        ("cells", Json::UInt(report.cells as u64)),
        ("executed", Json::UInt(report.executed as u64)),
        ("hits", Json::UInt(report.hits as u64)),
        ("quarantined", Json::UInt(report.quarantined)),
        ("wall_ms", Json::num(report.wall_nanos as f64 / 1e6)),
        // Client-measured service latency of warm cache hits: the
        // daemon's headline number (connect + request + verified cache
        // read + reply).
        ("warm_hit_p50_ms", quantile(0.5)),
        ("warm_hit_p99_ms", quantile(0.99)),
    ];
    // Host facts that explain the latencies above.
    fields.extend(facts.fields());
    let entry = Json::obj(fields);
    merge_run(
        path,
        |r| {
            r.get("mode").and_then(Json::as_str) == Some("serve")
                && r.get("campaign").and_then(Json::as_str) == Some(report.name.as_str())
                && facts.same_rev(r)
        },
        |_| entry,
    )
}

/// Wall time of a prior *full cold* 1-worker run of the same campaign
/// at the same commit, the denominator for the reported speedup.
fn baseline_wall_ms(runs: &[Json], report: &CampaignReport, facts: &HostFacts) -> Option<f64> {
    runs.iter()
        .filter(|r| {
            facts.same_rev(r)
                && r.get("campaign").and_then(Json::as_str) == Some(report.name.as_str())
                && r.get("workers").and_then(Json::as_u64) == Some(1)
                && r.get("cells").and_then(Json::as_u64)
                    == r.get("executed").and_then(Json::as_u64)
                && r.get("executed").and_then(Json::as_u64).unwrap_or(0) > 0
        })
        .filter_map(|r| r.get("wall_ms").and_then(Json::as_f64))
        .next_back()
}

fn entry_json(report: &CampaignReport, baseline_wall_ms: Option<f64>, facts: &HostFacts) -> Json {
    let wall_ms = report.wall_nanos as f64 / 1e6;
    let full_cold = report.executed == report.outcomes.len() && report.executed > 0;
    // Speedups only compare full cold executions; a warm run's wall
    // time measures the cache, not the pool. When no 1-worker baseline
    // run is on file, the sum of this run's own per-cell wall times is
    // an honest serial-execution estimate (what 1 worker would have
    // spent executing, scheduling overhead excluded) — better than
    // emitting null until someone reruns the whole suite at --workers 1.
    let (speedup, basis) = match baseline_wall_ms {
        Some(base) if full_cold && wall_ms > 0.0 => {
            (Json::num(base / wall_ms), Json::Str("measured-1-worker".into()))
        }
        None if full_cold && wall_ms > 0.0 => {
            let serial_ms =
                report.outcomes.iter().map(|o| o.wall_nanos).sum::<u64>() as f64 / 1e6;
            (
                Json::num(serial_ms / wall_ms),
                Json::Str("derived-per-cell-serial".into()),
            )
        }
        _ => (Json::Null, Json::Null),
    };
    let cells_detail: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            let cps =
                cycles_per_sec(o.record.roi_cycles, o.wall_nanos).map_or(Json::Null, Json::num);
            Json::obj(vec![
                ("cell", Json::Str(o.spec.label.clone())),
                ("hash", Json::Str(o.hash.clone())),
                ("cached", Json::Bool(o.cached)),
                ("sim_cycles", Json::UInt(o.record.roi_cycles)),
                ("wall_ms", Json::num(o.wall_nanos as f64 / 1e6)),
                ("sim_cycles_per_sec", cps),
            ])
        })
        .collect();
    let mut fields = vec![
        ("campaign", Json::Str(report.name.clone())),
        ("workers", Json::UInt(report.workers as u64)),
        ("resume", Json::Bool(report.resume)),
        ("cells", Json::UInt(report.outcomes.len() as u64)),
        ("executed", Json::UInt(report.executed as u64)),
        ("cached", Json::UInt(report.cached as u64)),
        ("wall_ms", Json::num(wall_ms)),
        ("sim_cycles", Json::UInt(report.sim_cycles())),
        ("sim_cycles_per_sec", Json::num(report.sim_cycles_per_sec())),
        ("speedup_vs_workers_1", speedup),
        ("speedup_baseline", basis),
    ];
    fields.extend(facts.fields());
    fields.push(("cells_detail", Json::Arr(cells_detail)));
    Json::obj(fields)
}

/// Merges an adaptive (`--adaptive`) run into the bench file at `path`.
/// Adaptive entries are keyed `(mode: "adaptive", campaign, backend,
/// git_rev)` — one entry per campaign per backend (`"engine"` for the
/// in-process pool, `"serve"` for the daemon fleet) per commit, newest
/// replacing previous.
/// Returns the entry written.
pub fn write_adaptive_bench_json(
    path: &Path,
    report: &AdaptiveReport,
    backend: &str,
) -> io::Result<Json> {
    let groups_detail: Vec<Json> = report
        .groups
        .iter()
        .map(|g| {
            Json::obj(vec![
                ("group", Json::Str(g.label.clone())),
                ("metric", Json::Str(g.metric.name().to_string())),
                ("mean", Json::num(g.mean)),
                ("ci95", g.ci95.map_or(Json::Null, Json::num)),
                ("n_seeds", Json::UInt(g.n_seeds)),
                ("converged", Json::Bool(g.converged)),
            ])
        })
        .collect();
    let facts = HostFacts::probe();
    let mut fields = vec![
        ("campaign", Json::Str(report.name.clone())),
        ("mode", Json::Str("adaptive".into())),
        ("backend", Json::Str(backend.to_string())),
        ("groups", Json::UInt(report.groups.len() as u64)),
        ("converged", Json::UInt(report.converged() as u64)),
        ("ci_target", Json::num(report.ci_target)),
        ("seed_budget", Json::UInt(report.seed_budget)),
        ("replicas_kept", Json::UInt(report.kept() as u64)),
        ("replicas_scheduled", Json::UInt(report.scheduled as u64)),
        ("executed", Json::UInt(report.executed as u64)),
        ("cached", Json::UInt(report.cached as u64)),
        ("wall_ms", Json::num(report.wall_nanos as f64 / 1e6)),
    ];
    fields.extend(facts.fields());
    fields.push(("groups_detail", Json::Arr(groups_detail)));
    let entry = Json::obj(fields);
    merge_run(
        path,
        |r| {
            r.get("mode").and_then(Json::as_str) == Some("adaptive")
                && r.get("campaign").and_then(Json::as_str) == Some(report.name.as_str())
                && r.get("backend").and_then(Json::as_str) == Some(backend)
                && facts.same_rev(r)
        },
        |_| entry,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellConfig, CellSpec};
    use crate::engine::CellOutcome;
    use std::path::PathBuf;

    fn fake_report_resume(
        workers: usize,
        executed_all: bool,
        resume: bool,
        wall_nanos: u64,
    ) -> CampaignReport {
        let config = CellConfig::benchmark("freq");
        let record = {
            let mut c = CellConfig::hot_lock(1, 40, 20);
            c.width = 2;
            c.height = 2;
            c.max_cycles = 1_000_000;
            c.run().expect("valid")
        };
        let outcome = CellOutcome {
            spec: CellSpec { label: "only".into(), config: config.clone() },
            hash: config.content_hash(),
            record,
            cached: !executed_all,
            wall_nanos: if executed_all { wall_nanos } else { 0 },
        };
        CampaignReport {
            name: "t".into(),
            outcomes: vec![outcome],
            workers,
            resume,
            executed: usize::from(executed_all),
            cached: usize::from(!executed_all),
            failed: Vec::new(),
            quarantined: 0,
            wall_nanos,
        }
    }

    fn fake_report(workers: usize, executed_all: bool, wall_nanos: u64) -> CampaignReport {
        fake_report_resume(workers, executed_all, !executed_all, wall_nanos)
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("inpg-bench-test-{}-{tag}.json", std::process::id()))
    }

    #[test]
    fn accumulates_and_reports_speedup_vs_one_worker() {
        let path = tmp_path("speedup");
        let _ = std::fs::remove_file(&path);

        // 1-worker cold run: no recorded baseline yet, so the per-cell
        // wall times stand in (serial sum == total here → speedup 1.0).
        let entry = write_bench_json(&path, &fake_report(1, true, 8_000_000_000)).unwrap();
        let speedup = entry.get("speedup_vs_workers_1").and_then(Json::as_f64).unwrap();
        assert!((speedup - 1.0).abs() < 1e-9, "{speedup}");
        assert_eq!(
            entry.get("speedup_baseline").and_then(Json::as_str),
            Some("derived-per-cell-serial")
        );

        // 4-worker cold run: speedup vs the recorded 1-worker wall time.
        let entry = write_bench_json(&path, &fake_report(4, true, 2_000_000_000)).unwrap();
        let speedup = entry.get("speedup_vs_workers_1").and_then(Json::as_f64).unwrap();
        assert!((speedup - 4.0).abs() < 1e-9, "{speedup}");
        assert_eq!(
            entry.get("speedup_baseline").and_then(Json::as_str),
            Some("measured-1-worker")
        );

        // Warm (all-cached) run: wall time measures the cache, no speedup.
        let entry = write_bench_json(&path, &fake_report(4, false, 1_000_000)).unwrap();
        assert_eq!(entry.get("speedup_vs_workers_1"), Some(&Json::Null));
        assert_eq!(entry.get("speedup_baseline"), Some(&Json::Null));

        // Re-running a combination replaces its entry instead of duplicating.
        write_bench_json(&path, &fake_report(4, true, 1_000_000_000)).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 3, "1w cold, 4w cold (replaced), 4w warm");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_warm_rerun_keeps_the_cold_entry_it_is_compared_against() {
        let path = tmp_path("warm-keeps-cold");
        let _ = std::fs::remove_file(&path);

        // The CLI default is --resume in both runs: cold (nothing cached
        // yet) then warm. The warm entry must coexist with the cold one,
        // not replace it.
        write_bench_json(&path, &fake_report_resume(1, true, true, 8_000_000_000)).unwrap();
        let cold = write_bench_json(&path, &fake_report_resume(4, true, true, 2_000_000_000))
            .unwrap();
        assert!(cold.get("speedup_vs_workers_1").and_then(Json::as_f64).unwrap().is_finite());
        write_bench_json(&path, &fake_report_resume(4, false, true, 1_000_000)).unwrap();

        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 3, "1w cold, 4w cold, 4w warm");
        let cold_kept = runs.iter().any(|r| {
            r.get("workers").and_then(Json::as_u64) == Some(4)
                && r.get("executed").and_then(Json::as_u64) == Some(1)
        });
        assert!(cold_kept, "warm rerun clobbered the cold 4-worker entry");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_entries_replace_their_own_kind_and_keep_engine_entries() {
        let path = tmp_path("serve");
        let _ = std::fs::remove_file(&path);

        // An engine entry first (no `mode` field on it).
        write_bench_json(&path, &fake_report(4, true, 2_000_000_000)).unwrap();

        let serve_report = |p50_pool: &[u64], wall: u64| SubmitReport {
            name: "t".into(),
            cells: 3,
            hits: p50_pool.len(),
            executed: 3 - p50_pool.len(),
            daemons: 2,
            quarantined: 0,
            wall_nanos: wall,
            latencies_nanos: p50_pool.to_vec(),
            hit_latencies_nanos: p50_pool.to_vec(),
            queued_hit_latencies_nanos: Vec::new(),
        };
        let entry =
            write_serve_bench_json(&path, &serve_report(&[2_000_000, 4_000_000], 9_000_000))
                .unwrap();
        assert_eq!(entry.get("mode").and_then(Json::as_str), Some("serve"));
        let p50 = entry.get("warm_hit_p50_ms").and_then(Json::as_f64).unwrap();
        assert!((p50 - 4.0).abs() < 1e-9, "nearest-rank p50 of [2ms,4ms] is 4ms: {p50}");

        // Every serve entry carries the host facts behind its numbers.
        assert_eq!(
            entry.get("available_parallelism").and_then(Json::as_u64),
            Some(std::thread::available_parallelism().unwrap().get() as u64)
        );
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(entry.get("profile").and_then(Json::as_str), Some(profile));

        // A rerun replaces the serve entry, not the engine one.
        write_serve_bench_json(&path, &serve_report(&[1_000_000], 5_000_000)).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2, "one engine entry + one serve entry");
        assert!(runs.iter().any(|r| r.get("workers").and_then(Json::as_u64) == Some(4)));

        // And the engine writer leaves the serve entry alone.
        write_bench_json(&path, &fake_report(4, true, 1_000_000_000)).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert!(
            runs.iter().any(|r| r.get("mode").and_then(Json::as_str) == Some("serve")),
            "engine rerun must not drop the serve entry"
        );

        // A hit-less serve run reports null latency quantiles.
        let entry = write_serve_bench_json(&path, &serve_report(&[], 5_000_000)).unwrap();
        assert_eq!(entry.get("warm_hit_p50_ms"), Some(&Json::Null));

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn adaptive_entries_are_keyed_by_campaign_and_backend() {
        use crate::adaptive::{GroupSummary, HeadlineMetric};

        let path = tmp_path("adaptive");
        let _ = std::fs::remove_file(&path);

        // An engine entry first; adaptive entries must coexist with it.
        write_bench_json(&path, &fake_report(4, true, 2_000_000_000)).unwrap();

        let report = |wall: u64| AdaptiveReport {
            name: "t".into(),
            groups: vec![GroupSummary {
                label: "g".into(),
                metric: HeadlineMetric::RoiCycles,
                mean: 1000.0,
                ci95: Some(30.0),
                n_seeds: 4,
                converged: true,
                replicas: Vec::new(),
            }],
            ci_target: 0.05,
            seed_budget: 16,
            scheduled: 5,
            executed: 3,
            cached: 2,
            wall_nanos: wall,
        };
        let entry = write_adaptive_bench_json(&path, &report(9_000_000), "engine").unwrap();
        assert_eq!(entry.get("mode").and_then(Json::as_str), Some("adaptive"));
        assert_eq!(entry.get("replicas_kept").and_then(Json::as_u64), Some(4));
        let detail = entry.get("groups_detail").and_then(Json::as_arr).unwrap();
        assert_eq!(detail[0].get("n_seeds").and_then(Json::as_u64), Some(4));

        // A serve-backed adaptive run coexists; an engine rerun replaces
        // only its own entry.
        write_adaptive_bench_json(&path, &report(7_000_000), "serve").unwrap();
        write_adaptive_bench_json(&path, &report(5_000_000), "engine").unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 3, "engine fixed + adaptive engine + adaptive serve");
        assert!(runs.iter().any(|r| r.get("workers").and_then(Json::as_u64) == Some(4)));

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn entries_carry_host_facts_and_other_commits_stay_side_by_side() {
        let path = tmp_path("revs");
        std::fs::write(
            &path,
            concat!(
                r#"{"schema":1,"runs":["#,
                r#"{"campaign":"t","workers":1,"resume":false,"cells":1,"executed":1,"wall_ms":5.0,"git_rev":"older"},"#,
                r#"{"campaign":"t","workers":4,"resume":false,"cells":1,"executed":1,"wall_ms":2.0,"git_rev":"older"}]}"#
            ),
        )
        .unwrap();
        let entry = write_bench_json(&path, &fake_report(4, true, 1_000_000_000)).unwrap();
        assert_eq!(
            entry.get("available_parallelism").and_then(Json::as_u64),
            Some(std::thread::available_parallelism().unwrap().get() as u64)
        );
        assert!(entry.get("profile").and_then(Json::as_str).is_some());
        assert_eq!(entry.get("git_rev"), Some(&git_rev().map_or(Json::Null, Json::Str)));
        assert_ne!(
            entry.get("speedup_baseline").and_then(Json::as_str),
            Some("measured-1-worker"),
            "another commit's run is no baseline"
        );
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 3, "the older commit's entries are kept beside the new one");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn survives_a_garbage_existing_file() {
        let path = tmp_path("garbage");
        std::fs::write(&path, "not json at all").unwrap();
        write_bench_json(&path, &fake_report(2, true, 1_000_000_000)).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("runs").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        let _ = std::fs::remove_file(&path);
    }
}
