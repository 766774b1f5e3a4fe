//! `inpg` — command-line front end for the simulator.
//!
//! ```text
//! inpg list                                  list the modelled benchmarks
//! inpg run <benchmark> [options]             run one experiment
//! inpg compare <benchmark> [options]         run all four mechanisms
//! inpg sweep-primitives <benchmark> [opts]   Original vs iNPG × 5 primitives
//! inpg campaign <suite> [campaign options]   run a figure suite in parallel
//! inpg campaign --list                       list the suites
//! inpg campaign <suite> --adaptive [...]     run seeds to confidence, not count
//! inpg report <figure> [--from PATH]         render a figure from a merged artifact
//!                                            (default results/campaign/<suite>.jsonl)
//! inpg serve [serve options]                 run the resident campaign daemon
//! inpg submit <suite> [submit options]       drive a suite through daemon(s)
//! inpg shutdown [--daemon A | --addr-file P] gracefully drain a daemon
//!
//! serve options:
//!   --addr HOST:PORT     bind address (default 127.0.0.1:0 — ephemeral)
//!   --addr-file PATH     publish the bound address here (removed on exit)
//!   --cache-dir DIR      shared result cache (default results/cache)
//!   --no-cache           disable the cache (every submit executes)
//!   --workers N          resident worker threads (default: all cores)
//!   --queue-capacity N   admission bound before load-shedding (default 256)
//!   --default-deadline-ms N   deadline for submits that carry none
//!   --journal PATH       drain journal (default results/serve/journal.jsonl)
//!   --no-journal         do not persist queued cells at drain
//!
//! submit options:
//!   --daemon HOST:PORT   a daemon to shard cells across (repeatable)
//!   --addr-file PATH     a daemon published here (repeatable, re-read on
//!                        retry — survives daemon restarts)
//!   --workers N          concurrent in-flight requests (default: all cores)
//!   --deadline-ms N      per-request deadline forwarded to the daemon
//!   --max-attempts N     per-cell attempt budget (default 40)
//!   --scale F / --seeds N / --filter SUBSTR    as for `inpg campaign`
//!   --adaptive / --ci-target / --seed-budget / --min-seeds
//!                        as for `inpg campaign` (replicas shard across daemons)
//!   --out PATH           merged artifact (default results/campaign/<suite>.jsonl)
//!   --bench-out PATH     perf trajectory (default BENCH_campaign.json)
//!   --quiet              no per-cell progress on stderr
//!
//! campaign options:
//!   --workers N          worker threads (default: all cores)
//!   --no-resume          ignore cached results (still writes the cache)
//!   --no-cache           disable the result cache entirely
//!   --cache-dir DIR      cache location (default results/cache)
//!   --filter SUBSTR      only run cells whose label contains SUBSTR
//!   --scale F            override the suite's default workload scale
//!   --seeds N            average seed-swept suites over N workload seeds
//!   --out PATH           merged artifact (default results/campaign/<suite>.jsonl)
//!   --bench-out PATH     perf trajectory (default BENCH_campaign.json)
//!   --jsonl              per-cell JSONL telemetry on stdout
//!   --quiet              no per-cell progress on stderr
//!   --adaptive           sequential analysis: run each cell's seed stream
//!                        until its CI target is met (suites: smoke, fig02,
//!                        fig11, fig12; artifact gains mean/ci95/n_seeds)
//!   --ci-target F        relative 95% CI half-width to stop at (default
//!                        0.05; implies --adaptive)
//!   --seed-budget N      max replicas per cell, >= 2 (default 16; implies
//!                        --adaptive)
//!   --min-seeds N        replicas before the CI is consulted, >= 2
//!                        (default 3; implies --adaptive)
//!
//! options:
//!   --mechanism original|ocor|inpg|inpg+ocor   (run only; default original)
//!   --primitive tas|ttl|abql|mcs|qsl           (default qsl)
//!   --mesh WxH                                 (default 8x8)
//!   --scale F                                  (default 0.1)
//!   --big-routers N                            override deployment
//!   --barrier-entries N                        (default 16)
//!   --seed N                                   workload seed
//!   --watchdog-cycles N                        abort after N stalled cycles
//!   --check-invariants N                       check protocol invariants every N cycles
//!   --fault KIND:VALUE                         inject a fault (repeatable); kinds:
//!                                              jitter:N barrier-off:C ttl-storm:C
//!                                              ei-exhaust:N drop-ack:N link-drop:N
//!                                              router-fail:C
//!   --fault-seed N                             fault-injection RNG seed
//!   --recover                                  arm timeout-based retransmission so
//!                                              injected faults are survived, not
//!                                              aborted
//!   --retry-budget N                           recovery retransmissions per
//!                                              transaction (default 8)
//!   --recovery-timeout N                       base retransmission timeout, cycles
//!                                              (default 8192)
//! ```

use inpg::stats::{pct, speedup, Table};
use inpg::{FaultKind, LockPrimitive, Mechanism, SimError};
use inpg_campaign::exec::{self, Ran};
use inpg_campaign::{
    bench_out, engine, report, run_adaptive, serve, submit, suites, AddrSource, AdaptiveOptions,
    Campaign, CampaignError, CellConfig, CellRecord, EngineRunner, ExecOptions, ReplicaRunner,
    ServeOptions, ServiceRunner, SubmitOptions,
};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Everything the CLI can fail with, so `main` can pick exit text and
/// code from one place.
#[derive(Debug)]
enum CliError {
    /// Bad command line (unknown flag, malformed value, missing operand).
    Usage(String),
    /// The simulation itself failed: bad configuration, watchdog stall,
    /// or invariant violation.
    Sim(SimError),
    /// A run did not finish: it hit the cycle bound or panicked.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Run(msg) => f.write_str(msg),
            CliError::Sim(e) => write!(f, "{e}"),
        }
    }
}

fn parse_mesh(s: &str) -> Result<(u8, u8), String> {
    let (w, h) = s.split_once(['x', 'X']).ok_or_else(|| format!("bad mesh `{s}`"))?;
    Ok((
        w.parse().map_err(|_| format!("bad mesh width `{w}`"))?,
        h.parse().map_err(|_| format!("bad mesh height `{h}`"))?,
    ))
}

/// The cell `inpg run`, `compare` and `sweep-primitives` simulate:
/// `benchmark` at the CLI's default scale of 0.1, with `args` applied.
fn parse_options(benchmark: &str, args: &[String]) -> Result<CellConfig, String> {
    let mut config = CellConfig::benchmark(benchmark);
    config.scale = 0.1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--mechanism" => config.mechanism = value()?.parse().map_err(|e| format!("{e}"))?,
            "--primitive" => config.primitive = value()?.parse().map_err(|e| format!("{e}"))?,
            "--mesh" => (config.width, config.height) = parse_mesh(&value()?)?,
            "--scale" => config.scale = value()?.parse().map_err(|_| "bad --scale".to_string())?,
            "--big-routers" => {
                config.big_routers =
                    Some(value()?.parse().map_err(|_| "bad --big-routers".to_string())?)
            }
            "--barrier-entries" => {
                config.barrier_entries =
                    value()?.parse().map_err(|_| "bad --barrier-entries".to_string())?
            }
            "--seed" => config.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--watchdog-cycles" => {
                config.watchdog_cycles =
                    Some(value()?.parse().map_err(|_| "bad --watchdog-cycles".to_string())?)
            }
            "--check-invariants" => {
                config.check_invariants =
                    Some(value()?.parse().map_err(|_| "bad --check-invariants".to_string())?)
            }
            "--fault" => {
                let kind = FaultKind::parse(&value()?).map_err(|e| format!("bad --fault: {e}"))?;
                config.faults.faults.push(kind);
            }
            "--fault-seed" => {
                config.faults.seed = value()?.parse().map_err(|_| "bad --fault-seed".to_string())?
            }
            "--recover" => config.recover = true,
            "--retry-budget" => {
                config.recovery_retry_budget =
                    Some(value()?.parse().map_err(|_| "bad --retry-budget".to_string())?)
            }
            "--recovery-timeout" => {
                config.recovery_timeout =
                    Some(value()?.parse().map_err(|_| "bad --recovery-timeout".to_string())?)
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(config)
}

fn summarize(config: &CellConfig, r: &CellRecord) {
    let (p, c, s) = r.phase_shares();
    println!("workload:        {} ({} / {})", config.workload.name(), config.mechanism, config.primitive);
    println!("ROI finish time: {} cycles ({} critical sections)", r.roi_cycles, r.cs_count);
    println!(
        "phases:          {} parallel, {} COH, {} CSE",
        pct(p),
        pct(c),
        pct(s)
    );
    println!(
        "per CS:          {:.0} COH + {:.0} CSE cycles",
        r.avg_cs_coh, r.avg_cs_cse
    );
    println!(
        "Inv-Ack:         mean {:.1}, max {} cycles over {} round trips",
        r.invack.mean, r.invack.max, r.invack.count
    );
    if r.requests_stopped > 0 {
        println!(
            "iNPG:            {} requests stopped, {} acks relayed, {} home invalidations saved",
            r.requests_stopped, r.acks_relayed, r.home_invs_saved
        );
    }
}

fn cmd_list() {
    let mut table = Table::new(vec!["name", "suite", "total CS", "cycles/CS", "locks", "group"]);
    for spec in &inpg::workloads::BENCHMARKS {
        table.add_row(vec![
            spec.name.to_string(),
            spec.suite.to_string(),
            spec.total_cs.to_string(),
            spec.avg_cs_cycles.to_string(),
            spec.locks.to_string(),
            inpg::workloads::group_of(spec).to_string(),
        ]);
    }
    println!("{table}");
}

fn cmd_run(config: &CellConfig) -> Result<(), CliError> {
    let record = match exec::run_cell(None, config, None, "inpg run", "run") {
        Ran::Done { record, .. } => record,
        Ran::Failed(e) => return Err(CliError::Sim(e)),
        Ran::Panicked(reason) => return Err(CliError::Run(format!("run panicked: {reason}"))),
    };
    if !record.completed {
        return Err(CliError::Run("run hit the cycle bound before completing".into()));
    }
    summarize(config, &record);
    Ok(())
}

/// Runs `campaign` in process, without the cache, and returns its
/// records in cell order. A cell that fails or panics fails the whole
/// command, as does one that hits its cycle bound (named by `label`).
fn run_cells(campaign: &Campaign) -> Result<Vec<CellRecord>, CliError> {
    let report = engine::execute(campaign, &ExecOptions::quiet()).map_err(|e| match e {
        CampaignError::Cell { error, .. } => CliError::Sim(error),
        CampaignError::Io(e) => CliError::Run(format!("i/o: {e}")),
    })?;
    if let Some(cell) = report.failed.first() {
        return Err(CliError::Run(format!("`{}` panicked: {}", cell.label, cell.reason)));
    }
    if let Some(label) = report.incomplete().first() {
        return Err(CliError::Run(format!("{label} hit the cycle bound")));
    }
    Ok(report.outcomes.into_iter().map(|o| o.record).collect())
}

fn cmd_compare(config: &CellConfig) -> Result<(), CliError> {
    let mut campaign = Campaign::new("compare");
    for mechanism in Mechanism::ALL {
        campaign.push(mechanism.to_string(), CellConfig { mechanism, ..config.clone() });
    }
    let records = run_cells(&campaign)?;
    let mut table = Table::new(vec![
        "mechanism",
        "ROI cycles",
        "rel. ROI",
        "CS expedition",
        "Inv-Ack mean",
    ]);
    let base = &records[0];
    for (i, (mechanism, r)) in Mechanism::ALL.into_iter().zip(&records).enumerate() {
        let (rel, exp) = if i == 0 {
            (1.0, 1.0)
        } else {
            (r.relative_roi(base), r.cs_expedition(base))
        };
        table.add_row(vec![
            mechanism.to_string(),
            r.roi_cycles.to_string(),
            pct(rel),
            speedup(exp),
            format!("{:.1}", r.invack.mean),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_sweep_primitives(config: &CellConfig) -> Result<(), CliError> {
    let mut campaign = Campaign::new("sweep-primitives");
    for primitive in LockPrimitive::ALL {
        for mechanism in [Mechanism::Original, Mechanism::Inpg] {
            let cell = CellConfig { primitive, mechanism, ..config.clone() };
            campaign.push(format!("{primitive}/{mechanism}"), cell);
        }
    }
    let records = run_cells(&campaign)?;
    let mut table =
        Table::new(vec!["primitive", "Original ROI", "iNPG ROI", "iNPG reduction"]);
    for (primitive, pair) in LockPrimitive::ALL.into_iter().zip(records.chunks(2)) {
        let (base, inpg) = (&pair[0], &pair[1]);
        table.add_row(vec![
            primitive.to_string(),
            base.roi_cycles.to_string(),
            inpg.roi_cycles.to_string(),
            pct(1.0 - inpg.relative_roi(base)),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// Sequential-analysis knobs shared by `inpg campaign` and
/// `inpg submit`. Passing any value flag implies `--adaptive`.
#[derive(Debug, Clone, Copy)]
struct AdaptiveCli {
    enabled: bool,
    ci_target: f64,
    min_seeds: u64,
    seed_budget: u64,
}

impl Default for AdaptiveCli {
    fn default() -> Self {
        AdaptiveCli { enabled: false, ci_target: 0.05, min_seeds: 3, seed_budget: 16 }
    }
}

fn parse_ci_target(s: &str) -> Result<f64, String> {
    s.parse()
        .ok()
        .filter(|&t: &f64| t.is_finite() && t > 0.0)
        .ok_or_else(|| "bad --ci-target (want a finite value > 0)".to_string())
}

fn parse_replica_count(flag: &str, s: &str) -> Result<u64, String> {
    s.parse()
        .ok()
        .filter(|&n: &u64| n >= 2)
        .ok_or_else(|| format!("bad {flag} (want an integer >= 2)"))
}

fn adaptive_suite_names() -> Vec<&'static str> {
    suites::ADAPTIVE_SUITES.iter().map(|s| s.name).collect()
}

/// The adaptive campaign path, shared by `inpg campaign --adaptive`
/// (engine runner) and `inpg submit --adaptive` (daemon runner).
#[allow(clippy::too_many_arguments)]
fn cmd_adaptive(
    suite: &str,
    scale: Option<f64>,
    filter: Option<&str>,
    cli: &AdaptiveCli,
    merged_out: Option<PathBuf>,
    progress: bool,
    bench_path: &Path,
    runner: &dyn ReplicaRunner,
    backend: &str,
) -> Result<(), CliError> {
    let campaign = suites::build_adaptive(suite, scale).ok_or_else(|| {
        CliError::Usage(format!(
            "suite `{suite}` has no adaptive form; one of: {}",
            adaptive_suite_names().join(", ")
        ))
    })?;
    let campaign = campaign.matching(filter);
    if campaign.groups.is_empty() {
        return Err(CliError::Usage(format!(
            "--filter matched no cells in suite `{suite}`"
        )));
    }
    let opts = AdaptiveOptions {
        ci_target: cli.ci_target,
        min_seeds: cli.min_seeds,
        seed_budget: cli.seed_budget,
        merged_out,
        progress,
    };
    let report = run_adaptive(&campaign, &opts, runner)
        .map_err(|e| CliError::Usage(format!("adaptive campaign failed: {e}")))?;
    bench_out::write_adaptive_bench_json(bench_path, &report, backend)
        .map_err(|e| CliError::Usage(format!("cannot write {}: {e}", bench_path.display())))?;
    println!("{}", report.summary_line());
    let mut table = Table::new(vec!["group", "metric", "mean", "ci95", "seeds", "converged"]);
    for g in &report.groups {
        table.add_row(vec![
            g.label.clone(),
            g.metric.to_string(),
            format!("{:.4}", g.mean),
            g.ci95.map_or_else(|| "-".to_string(), |ci| format!("±{ci:.4}")),
            g.n_seeds.to_string(),
            if g.converged { "yes".to_string() } else { "budget".to_string() },
        ]);
    }
    println!("{table}");
    if let Some(path) = &opts.merged_out {
        println!("merged artifact: {}", path.display());
    }
    println!("perf trajectory: {}", bench_path.display());
    let unconverged: Vec<&str> =
        report.groups.iter().filter(|g| !g.converged).map(|g| g.label.as_str()).collect();
    if !unconverged.is_empty() {
        eprintln!(
            "note: {} group(s) exhausted --seed-budget {} before reaching the CI target: {}",
            unconverged.len(),
            cli.seed_budget,
            unconverged.join(", ")
        );
    }
    Ok(())
}

/// Parsed `inpg campaign` command line.
struct CampaignArgs {
    suite: String,
    exec: ExecOptions,
    scale: Option<f64>,
    seed_count: u64,
    adaptive: AdaptiveCli,
    bench_out: PathBuf,
}

fn parse_campaign_args(args: &[String]) -> Result<Option<CampaignArgs>, String> {
    let mut suite: Option<String> = None;
    let mut exec = ExecOptions::quiet();
    exec.progress = true;
    exec.cache = Some(PathBuf::from("results/cache"));
    let mut scale: Option<f64> = None;
    let mut seed_count: u64 = 1;
    let mut seeds_given = false;
    let mut adaptive = AdaptiveCli::default();
    let mut out: Option<PathBuf> = None;
    let mut bench_out = PathBuf::from("BENCH_campaign.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().cloned().ok_or_else(|| format!("missing value for {arg}"))
        };
        match arg.as_str() {
            "--list" => return Ok(None),
            "--adaptive" => adaptive.enabled = true,
            "--ci-target" => {
                adaptive.ci_target = parse_ci_target(&value()?)?;
                adaptive.enabled = true;
            }
            "--seed-budget" => {
                adaptive.seed_budget = parse_replica_count("--seed-budget", &value()?)?;
                adaptive.enabled = true;
            }
            "--min-seeds" => {
                adaptive.min_seeds = parse_replica_count("--min-seeds", &value()?)?;
                adaptive.enabled = true;
            }
            "--workers" => {
                exec.workers = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("bad --workers")?
            }
            "--no-resume" => exec.resume = false,
            "--no-cache" => exec.cache = None,
            "--cache-dir" => exec.cache = Some(PathBuf::from(value()?)),
            "--filter" => exec.filter = Some(value()?),
            "--scale" => {
                scale = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0)
                        .ok_or("bad --scale")?,
                )
            }
            "--seeds" => {
                seed_count = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .ok_or("bad --seeds")?;
                seeds_given = true;
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--bench-out" => bench_out = PathBuf::from(value()?),
            "--jsonl" => exec.cell_jsonl = true,
            "--quiet" => exec.progress = false,
            other if !other.starts_with("--") && suite.is_none() => {
                suite = Some(other.to_string())
            }
            other => return Err(format!("unknown campaign option `{other}`")),
        }
    }
    let suite = suite.ok_or_else(|| {
        format!("missing suite name; one of: {}", suite_names().join(", "))
    })?;
    if adaptive.enabled {
        if seeds_given {
            return Err("--seeds picks a fixed count; --adaptive draws its own \
                        per-cell seed streams (use --seed-budget / --min-seeds)"
                .to_string());
        }
        if exec.cell_jsonl {
            return Err("--jsonl is not supported with --adaptive".to_string());
        }
    }
    exec.merged_out = Some(out.unwrap_or_else(|| {
        if adaptive.enabled {
            PathBuf::from(format!("results/campaign/{suite}-adaptive.jsonl"))
        } else {
            PathBuf::from(format!("results/campaign/{suite}.jsonl"))
        }
    }));
    Ok(Some(CampaignArgs { suite, exec, scale, seed_count, adaptive, bench_out }))
}

fn suite_names() -> Vec<&'static str> {
    suites::SUITES.iter().map(|s| s.name).collect()
}

fn cmd_campaign_list() {
    let mut table = Table::new(vec!["suite", "default scale", "seeds", "about"]);
    for info in suites::SUITES {
        table.add_row(vec![
            info.name.to_string(),
            if info.name == "all" { "per-suite".into() } else { info.default_scale.to_string() },
            if info.uses_seeds { "yes".into() } else { "-".into() },
            info.about.to_string(),
        ]);
    }
    println!("{table}");
}

fn cmd_campaign(args: &[String]) -> Result<(), CliError> {
    let parsed = match parse_campaign_args(args) {
        Err(e) => return Err(CliError::Usage(e)),
        Ok(None) => {
            cmd_campaign_list();
            return Ok(());
        }
        Ok(Some(parsed)) => parsed,
    };
    if parsed.adaptive.enabled {
        let mut exec = parsed.exec.clone();
        let merged_out = exec.merged_out.take();
        let progress = exec.progress;
        let filter = exec.filter.take();
        return cmd_adaptive(
            &parsed.suite,
            parsed.scale,
            filter.as_deref(),
            &parsed.adaptive,
            merged_out,
            progress,
            &parsed.bench_out,
            &EngineRunner { exec },
            "engine",
        );
    }
    let seeds = suites::seeds(parsed.seed_count);
    let campaign =
        suites::build(&parsed.suite, parsed.scale, &seeds).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown suite `{}`; one of: {}",
                parsed.suite,
                suite_names().join(", ")
            ))
        })?;
    let report = engine::execute(&campaign, &parsed.exec)
        .map_err(|e| CliError::Usage(format!("campaign failed: {e}")))?;
    let entry = bench_out::write_bench_json(&parsed.bench_out, &report)
        .map_err(|e| CliError::Usage(format!("cannot write {}: {e}", parsed.bench_out.display())))?;
    println!("{}", report.summary_line());
    if let Some(speedup) = entry
        .get("speedup_vs_workers_1")
        .and_then(inpg_campaign::json::Json::as_f64)
        .filter(|s| s.is_finite())
    {
        println!("speedup vs --workers 1: {speedup:.2}x");
    }
    if let Some(path) = &parsed.exec.merged_out {
        println!("merged artifact: {}", path.display());
    }
    println!("perf trajectory: {}", parsed.bench_out.display());
    if !report.failed.is_empty() {
        for cell in &report.failed {
            eprintln!("failed cell `{}`: {}", cell.label, cell.reason);
        }
        return Err(CliError::Run(format!(
            "{} cells failed (excluded from the merged artifact): {}",
            report.failed.len(),
            report.failed.iter().map(|c| c.label.as_str()).collect::<Vec<_>>().join(", ")
        )));
    }
    let incomplete = report.incomplete();
    if !incomplete.is_empty() {
        return Err(CliError::Run(format!(
            "{} cells hit the cycle bound: {}",
            incomplete.len(),
            incomplete.join(", ")
        )));
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), CliError> {
    let mut figure: Option<&str> = None;
    let mut from: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--from" => match it.next() {
                Some(path) => from = Some(PathBuf::from(path)),
                None => return Err(CliError::Usage("missing value for --from".into())),
            },
            other if !other.starts_with("--") && figure.is_none() => figure = Some(other),
            other => return Err(CliError::Usage(format!("unknown report option `{other}`"))),
        }
    }
    let names: Vec<&str> = report::FIGURES.iter().map(|f| f.name).collect();
    let figure = figure.ok_or_else(|| {
        CliError::Usage(format!("missing figure name; one of: {}", names.join(", ")))
    })?;
    let text = report::report(figure, from.as_deref()).map_err(|e| CliError::Usage(e.0))?;
    print!("{text}");
    Ok(())
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().cloned().ok_or_else(|| format!("missing value for {arg}"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value()?,
            "--addr-file" => opts.addr_file = Some(PathBuf::from(value()?)),
            "--cache-dir" => opts.cache = Some(PathBuf::from(value()?)),
            "--no-cache" => opts.cache = None,
            "--workers" => {
                opts.workers = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("bad --workers")?
            }
            "--queue-capacity" => {
                opts.queue_capacity = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("bad --queue-capacity")?
            }
            "--default-deadline-ms" => {
                opts.default_deadline_ms =
                    Some(value()?.parse().map_err(|_| "bad --default-deadline-ms".to_string())?)
            }
            "--journal" => opts.journal = Some(PathBuf::from(value()?)),
            "--no-journal" => opts.journal = None,
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    Ok(opts)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let opts = parse_serve_args(args).map_err(CliError::Usage)?;
    serve::serve(opts).map_err(|e| CliError::Usage(format!("serve failed: {e}")))
}

/// Parsed `inpg submit` command line.
struct SubmitArgs {
    suite: String,
    opts: SubmitOptions,
    filter: Option<String>,
    scale: Option<f64>,
    seed_count: u64,
    adaptive: AdaptiveCli,
    out: Option<PathBuf>,
    bench_out: PathBuf,
}

fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, String> {
    let mut suite: Option<String> = None;
    let mut opts = SubmitOptions { progress: true, ..SubmitOptions::default() };
    let mut filter = None;
    let mut scale = None;
    let mut seed_count: u64 = 1;
    let mut seeds_given = false;
    let mut adaptive = AdaptiveCli::default();
    let mut out = None;
    let mut bench_out = PathBuf::from("BENCH_campaign.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().cloned().ok_or_else(|| format!("missing value for {arg}"))
        };
        match arg.as_str() {
            "--daemon" => opts.daemons.push(AddrSource::Direct(value()?)),
            "--addr-file" => opts.daemons.push(AddrSource::File(PathBuf::from(value()?))),
            "--workers" => {
                opts.workers = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("bad --workers")?
            }
            "--deadline-ms" => {
                opts.deadline_ms =
                    Some(value()?.parse().map_err(|_| "bad --deadline-ms".to_string())?)
            }
            "--max-attempts" => {
                opts.max_attempts = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &u32| n > 0)
                    .ok_or("bad --max-attempts")?
            }
            "--filter" => filter = Some(value()?),
            "--scale" => {
                scale = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0)
                        .ok_or("bad --scale")?,
                )
            }
            "--seeds" => {
                seed_count = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .ok_or("bad --seeds")?;
                seeds_given = true;
            }
            "--adaptive" => adaptive.enabled = true,
            "--ci-target" => {
                adaptive.ci_target = parse_ci_target(&value()?)?;
                adaptive.enabled = true;
            }
            "--seed-budget" => {
                adaptive.seed_budget = parse_replica_count("--seed-budget", &value()?)?;
                adaptive.enabled = true;
            }
            "--min-seeds" => {
                adaptive.min_seeds = parse_replica_count("--min-seeds", &value()?)?;
                adaptive.enabled = true;
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--bench-out" => bench_out = PathBuf::from(value()?),
            "--quiet" => opts.progress = false,
            other if !other.starts_with("--") && suite.is_none() => {
                suite = Some(other.to_string())
            }
            other => return Err(format!("unknown submit option `{other}`")),
        }
    }
    let suite = suite.ok_or_else(|| {
        format!("missing suite name; one of: {}", suite_names().join(", "))
    })?;
    if adaptive.enabled && seeds_given {
        return Err("--seeds picks a fixed count; --adaptive draws its own \
                    per-cell seed streams (use --seed-budget / --min-seeds)"
            .to_string());
    }
    Ok(SubmitArgs { suite, opts, filter, scale, seed_count, adaptive, out, bench_out })
}

fn cmd_submit(args: &[String]) -> Result<(), CliError> {
    let mut parsed = parse_submit_args(args).map_err(CliError::Usage)?;
    if parsed.adaptive.enabled {
        let merged_out = parsed.out.clone().unwrap_or_else(|| {
            PathBuf::from(format!("results/campaign/{}-adaptive.jsonl", parsed.suite))
        });
        let progress = parsed.opts.progress;
        let mut opts = parsed.opts.clone();
        opts.merged_out = None;
        return cmd_adaptive(
            &parsed.suite,
            parsed.scale,
            parsed.filter.as_deref(),
            &parsed.adaptive,
            Some(merged_out),
            progress,
            &parsed.bench_out,
            &ServiceRunner { opts },
            "serve",
        );
    }
    let seeds = suites::seeds(parsed.seed_count);
    let campaign =
        suites::build(&parsed.suite, parsed.scale, &seeds).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown suite `{}`; one of: {}",
                parsed.suite,
                suite_names().join(", ")
            ))
        })?;
    parsed.opts.merged_out = Some(parsed.out.unwrap_or_else(|| {
        PathBuf::from(format!("results/campaign/{}.jsonl", parsed.suite))
    }));
    let report = submit::run_campaign(&campaign, parsed.filter.as_deref(), &parsed.opts)
        .map_err(|e| CliError::Usage(format!("submit failed: {e}")))?;
    bench_out::write_serve_bench_json(&parsed.bench_out, &report)
        .map_err(|e| CliError::Usage(format!("cannot write {}: {e}", parsed.bench_out.display())))?;
    println!("{}", report.summary_line());
    if let Some(path) = &parsed.opts.merged_out {
        println!("merged artifact: {}", path.display());
    }
    println!("perf trajectory: {}", parsed.bench_out.display());
    Ok(())
}

fn cmd_shutdown(args: &[String]) -> Result<(), CliError> {
    let mut sources: Vec<AddrSource> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().cloned().ok_or_else(|| format!("missing value for {arg}"))
        };
        match arg.as_str() {
            "--daemon" => sources.push(AddrSource::Direct(value().map_err(CliError::Usage)?)),
            "--addr-file" => {
                sources.push(AddrSource::File(PathBuf::from(value().map_err(CliError::Usage)?)))
            }
            other => return Err(CliError::Usage(format!("unknown shutdown option `{other}`"))),
        }
    }
    if sources.is_empty() {
        return Err(CliError::Usage(
            "shutdown needs at least one --daemon or --addr-file".into(),
        ));
    }
    for source in &sources {
        match submit::shutdown(source) {
            Ok(journaled) => println!("daemon draining ({journaled} queued cell(s) journaled)"),
            Err(e) => return Err(CliError::Usage(format!("shutdown failed: {e}"))),
        }
    }
    Ok(())
}

fn usage() -> String {
    "usage: inpg <list|run|compare|sweep-primitives|campaign|report|serve|submit|shutdown> [operand] [options]\n\
     try `inpg list` to see the modelled benchmarks, `inpg campaign --list` for the suites"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, _)) if cmd == "list" => {
            cmd_list();
            Ok(())
        }
        Some((cmd, rest)) if cmd == "campaign" => cmd_campaign(rest),
        Some((cmd, rest)) if cmd == "report" => cmd_report(rest),
        Some((cmd, rest)) if cmd == "serve" => cmd_serve(rest),
        Some((cmd, rest)) if cmd == "submit" => cmd_submit(rest),
        Some((cmd, rest)) if cmd == "shutdown" => cmd_shutdown(rest),
        Some((cmd, rest)) => {
            let (benchmark, rest) = match rest.split_first() {
                Some((b, r)) if !b.starts_with("--") => (b.clone(), r),
                _ => return err_exit(&CliError::Usage("missing benchmark name".into())),
            };
            if inpg::workloads::benchmark(&benchmark).is_none() {
                return err_exit(&CliError::Usage(format!(
                    "unknown benchmark `{benchmark}` (see `inpg list`)"
                )));
            }
            match parse_options(&benchmark, rest) {
                Err(e) => return err_exit(&CliError::Usage(e)),
                Ok(config) => match cmd.as_str() {
                    "run" => cmd_run(&config),
                    "compare" => cmd_compare(&config),
                    "sweep-primitives" => cmd_sweep_primitives(&config),
                    other => {
                        Err(CliError::Usage(format!("unknown command `{other}`\n{}", usage())))
                    }
                },
            }
        }
        None => Err(CliError::Usage(usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => err_exit(&e),
    }
}

fn err_exit(err: &CliError) -> ExitCode {
    eprintln!("error: {err}");
    ExitCode::FAILURE
}
