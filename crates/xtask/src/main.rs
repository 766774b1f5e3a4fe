//! Workspace automation. Three commands (aliases in `.cargo/config.toml`):
//!
//! * `cargo xtask lint` — the whole-crate source rules (unwrap,
//!   wildcard, hash, wall-clock, stale waivers) over the protocol,
//!   campaign and kernel crates.
//! * `cargo xtask analyze [--bless]` — the transition-matrix analyzer:
//!   parses the declared (state, event) → action matrices, drives the
//!   timed simulator and the untimed model checker in-process to record
//!   which transitions execute, and diffs the classification against
//!   the checked-in baseline.
//! * `cargo xtask audit [--bless]` — the interprocedural hot-path
//!   auditor: builds the workspace call graph, flags every allocation,
//!   panic path and directory scan transitively reachable from the
//!   per-cycle entry points, audits synchronization sites for
//!   `// sync:` justifications, and diffs the finding map against the
//!   blessed baseline.
//!
//! Each static rule has exactly one enforcer: whole-crate rules live in
//! `lint`, per-cycle-path rules in `audit`.
//!
//! Exit codes (all commands): 0 clean, 2 findings (lint violations,
//! coverage regressions, unbaselined audit findings), 3 internal error
//! (unparseable code, I/O failures). CI treats 2 as
//! "fix your change" and 3 as "fix the tooling".

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::parse::SourceSet;
use xtask::{audit, coverage, lint, matrix};

fn workspace_root() -> PathBuf {
    // xtask sits at <root>/crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&workspace_root()),
        Some("analyze") => {
            let bless = args.iter().any(|a| a == "--bless");
            run_analyze(&workspace_root(), bless)
        }
        Some("audit") => {
            let bless = args.iter().any(|a| a == "--bless");
            run_audit(&workspace_root(), bless)
        }
        _ => {
            eprintln!("usage: cargo xtask <lint | analyze [--bless] | audit [--bless]>");
            ExitCode::from(3)
        }
    }
}

fn run_lint(root: &Path) -> ExitCode {
    let (findings, errors) = match lint::lint_workspace_full(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(3);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    for e in &errors {
        eprintln!("{e}");
    }
    if !errors.is_empty() {
        eprintln!(
            "xtask lint: {} parse error(s) — the scanner could not follow this code",
            errors.len()
        );
        ExitCode::from(3)
    } else if !findings.is_empty() {
        println!("xtask lint: {} violation(s)", findings.len());
        ExitCode::from(2)
    } else {
        println!(
            "xtask lint: clean — protocol crates {:?}, campaign crates {:?}, kernel crates {:?}",
            lint::PROTOCOL_CRATES,
            lint::CAMPAIGN_CRATES,
            lint::KERNEL_CRATES
        );
        ExitCode::SUCCESS
    }
}

fn run_analyze(root: &Path, bless: bool) -> ExitCode {
    // Pass 1 — the declared matrix, parsed from source and cross-checked
    // against the runtime name tables.
    let matrix = match matrix::build(root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("xtask analyze: cannot build the declared transition matrix");
            return ExitCode::from(3);
        }
    };
    let out_dir = root.join("results").join("analysis");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask analyze: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(3);
    }
    let matrix_json = matrix::to_json(&matrix).to_string_compact();
    let matrix_path = out_dir.join("transition_matrix.json");
    if let Err(e) = std::fs::write(&matrix_path, format!("{matrix_json}\n")) {
        eprintln!("xtask analyze: cannot write {}: {e}", matrix_path.display());
        return ExitCode::from(3);
    }
    let declared: usize = matrix.iter().map(|m| m.transitions.len()).sum();
    println!(
        "xtask analyze: declared matrix — {} sites, {} transitions → {}",
        matrix.len(),
        declared,
        matrix_path.display()
    );

    // Pass 2 — observe: timed campaign, then bounded model check.
    let observed = match coverage::observe() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(3);
        }
    };
    let report = coverage::classify(&matrix, &observed);
    let coverage_json = coverage::report_json(&matrix, &report);
    let coverage_compact = coverage_json.to_string_compact();
    let coverage_path = out_dir.join("coverage.json");
    if let Err(e) = std::fs::write(&coverage_path, format!("{coverage_compact}\n")) {
        eprintln!("xtask analyze: cannot write {}: {e}", coverage_path.display());
        return ExitCode::from(3);
    }
    let mut counts = [0usize; 4];
    for (site, trigger, _, status) in &report.rows {
        let idx = match status {
            coverage::Status::Both => 0,
            coverage::Status::SimOnly => 1,
            coverage::Status::CheckerOnly => 2,
            coverage::Status::Unreached => 3,
        };
        counts[idx] += 1;
        if *status == coverage::Status::Unreached {
            println!("  unreached: {site}::{trigger}");
        }
    }
    println!(
        "xtask analyze: coverage — {} sim+checker, {} sim-only, {} checker-only, \
         {} unreached → {}",
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        coverage_path.display()
    );

    // Pass 3 — diff against the blessed baseline.
    let baseline_path = root.join("crates").join("xtask").join("coverage_baseline.json");
    let baseline = match coverage::load_baseline(&baseline_path) {
        Ok(b) => b,
        Err(e) if bless => {
            println!("xtask analyze: {e} — blessing a fresh baseline with an empty allowlist");
            coverage::Baseline { allow_unreached: Vec::new(), coverage_compact: String::new() }
        }
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            eprintln!("(run `cargo xtask analyze --bless` to create the baseline)");
            return ExitCode::from(3);
        }
    };
    let effective = if bless {
        let blessed =
            coverage::baseline_json(&baseline.allow_unreached, coverage_json.clone());
        if let Err(e) =
            std::fs::write(&baseline_path, format!("{}\n", blessed.to_string_compact()))
        {
            eprintln!("xtask analyze: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(3);
        }
        println!("xtask analyze: blessed baseline → {}", baseline_path.display());
        coverage::Baseline {
            allow_unreached: baseline.allow_unreached,
            coverage_compact: coverage_compact.clone(),
        }
    } else {
        baseline
    };
    let findings = coverage::validate(&report, &coverage_compact, &effective);
    if findings.is_empty() {
        println!("xtask analyze: coverage matches the blessed baseline");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("xtask analyze: {} finding(s)", findings.len());
        ExitCode::from(2)
    }
}

fn run_audit(root: &Path, bless: bool) -> ExitCode {
    // Pass 1 — build the call graph and run every audit pass.
    let mut sources = SourceSet::new(root);
    let result = match audit::run(root, &mut sources) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("xtask audit: cannot run the interprocedural audit");
            return ExitCode::from(3);
        }
    };
    let out_dir = root.join("results").join("analysis");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask audit: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(3);
    }
    let report = audit::report_json(&result);
    let report_path = out_dir.join("audit.json");
    if let Err(e) = std::fs::write(&report_path, format!("{}\n", report.to_string_compact())) {
        eprintln!("xtask audit: cannot write {}: {e}", report_path.display());
        return ExitCode::from(3);
    }
    println!(
        "xtask audit: call graph — {} functions, {} reachable from {} seeds, \
         {} finding(s) → {}",
        result.nodes,
        result.reachable,
        audit::SEEDS.len(),
        result.findings.len(),
        report_path.display()
    );

    // Pass 2 — diff against the blessed baseline.
    let baseline_path = root.join("crates").join("xtask").join("audit_baseline.json");
    if bless {
        let blessed = audit::baseline_json(&result);
        if let Err(e) =
            std::fs::write(&baseline_path, format!("{}\n", blessed.to_string_compact()))
        {
            eprintln!("xtask audit: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(3);
        }
        println!("xtask audit: blessed baseline → {}", baseline_path.display());
    }
    let baseline = match audit::load_baseline(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask audit: {e}");
            eprintln!("(run `cargo xtask audit --bless` to create the baseline)");
            return ExitCode::from(3);
        }
    };
    let diffs = audit::validate(&result, &baseline);
    if diffs.is_empty() {
        println!("xtask audit: findings match the blessed baseline");
        ExitCode::SUCCESS
    } else {
        for d in &diffs {
            println!("{d}");
        }
        println!("xtask audit: {} divergence(s) from the baseline", diffs.len());
        ExitCode::from(2)
    }
}
