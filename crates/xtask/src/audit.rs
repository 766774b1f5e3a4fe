//! The interprocedural hot-path auditor (`cargo xtask audit`).
//!
//! The auditor is the only checker of the per-cycle path. It derives
//! hotness from the program itself: it builds the workspace call graph
//! ([`crate::callgraph`]), seeds it with the per-cycle entry points of
//! the simulator loop, and flags every heap allocation, panic path and
//! linear directory scan that is *transitively reachable* from those
//! seeds. A helper three hops below `L1Core::handle` is exactly as hot
//! as `handle` itself, and the auditor treats it that way — no
//! annotation required, no annotation to forget. Rules that hold for
//! whole crates (hash collections, wall-clock reads, unwrap) belong to
//! `cargo xtask lint` instead, which covers every audited crate.
//!
//! Enforcement is baseline-driven: every finding is keyed by
//! `kind|file|function|needle` and counted, and the current finding map
//! must match `crates/xtask/audit_baseline.json` exactly. New findings,
//! changed counts, *and* stale baseline entries all fail with exit 2
//! until the baseline is re-blessed (`cargo xtask audit --bless`) —
//! drift in either direction is reviewed, never absorbed. Exit codes
//! match `lint`/`analyze`: 0 clean, 2 findings, 3 internal or parse
//! error.
//!
//! One further pass rides along: **sync** — every atomic-ordering use
//! and every `Mutex`/`Condvar`/`Atomic*` construction in the
//! concurrency kernels (`crates/sim/src/coverage.rs`,
//! `crates/campaign/src`) must carry a `// sync:` justification comment
//! (same line or the comment block directly above) explaining why the
//! chosen ordering or primitive is correct.

use crate::callgraph::{self, CallGraph, FnNode};
use crate::lint::{line_of, occurrences};
use crate::parse::{ParseError, SourceSet};
use inpg_campaign::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Per-cycle entry points: the functions the simulator executes every
/// cycle (or every protocol hop). Everything reachable from here runs
/// millions of times per campaign cell. Each seed is
/// `(file suffix, impl type, fn name)`; resolution failure is a hard
/// error so the seed list cannot rot when code moves.
pub const SEEDS: &[(&str, &str, &str)] = &[
    ("noc/src/network.rs", "Network", "tick"),
    ("noc/src/network.rs", "Network", "send"),
    ("noc/src/network.rs", "Network", "pop_delivered"),
    ("coherence/src/l1.rs", "L1Core", "handle"),
    ("coherence/src/home.rs", "HomeCore", "process"),
    ("locks/src/machines.rs", "LockHandle", "step"),
    ("locks/src/machines.rs", "LockHandle", "on_result"),
    ("manycore/src/system.rs", "System", "try_tick"),
    ("sim/src/event.rs", "EventWheel", "pop_due"),
    ("sim/src/event.rs", "EventWheel", "next_due"),
];

/// Panic-path needles. Dotted needles bind to a receiver; bare-word
/// needles get a word-boundary check so `debug_assert!` (compiled out
/// in release) never matches `assert!`.
const PANIC_NEEDLES: &[(&str, &str)] = &[
    ("panic!(", "explicit panic (`panic!`)"),
    ("unreachable!(", "explicit panic (`unreachable!`)"),
    ("todo!(", "explicit panic (`todo!`)"),
    (".unwrap()", "panic on None/Err (`.unwrap`)"),
    (".expect(", "panic on None/Err (`.expect`)"),
    ("assert!(", "release-mode assert (`assert!`)"),
    ("assert_eq!(", "release-mode assert (`assert_eq!`)"),
    ("assert_ne!(", "release-mode assert (`assert_ne!`)"),
];

/// Allocation needles: heap allocation, collection growth, string
/// construction and clones of simulation state.
const ALLOC_NEEDLES: &[(&str, &str)] = &[
    ("Box::new", "heap allocation (`Box::new`)"),
    ("vec![", "heap allocation (`vec![`)"),
    (".to_vec()", "heap allocation (`.to_vec()`)"),
    (".to_string(", "string allocation (`.to_string`)"),
    ("String::from(", "string allocation (`String::from`)"),
    ("format!(", "string allocation (`format!`)"),
    (".collect(", "collection allocation (`.collect`)"),
    (".push(", "collection growth (`.push`)"),
    (".extend(", "collection growth (`.extend`)"),
    (".insert(", "collection growth (`.insert`)"),
    (".clone(", "clone of simulation state (`.clone`)"),
];

/// Linear-scan needles: sharer lookups over directory state go through
/// keyed `BTreeMap`/`BTreeSet` structures, so a probe of a directory
/// collection is a finding (a bounded one is blessed in the baseline).
const SCAN_NEEDLES: &[&str] = &[".iter().position(", ".iter().any(", ".iter().find("];

/// Files holding directory (home-node) state, where the scan pass runs.
const DIRECTORY_FILES: &[&str] = &["home.rs"];

/// Files whose synchronization sites require `// sync:` justifications:
/// the coverage bitset plus the whole campaign runtime (worker pool,
/// serve daemon, shared cache).
const SYNC_KERNELS: &[&str] = &["crates/sim/src/coverage.rs", "crates/campaign/src"];

/// Construction needles audited by the sync pass, alongside every
/// `Ordering::` use.
const SYNC_CTOR_NEEDLES: &[&str] = &[
    "Mutex::new(",
    "Condvar::new(",
    "AtomicBool::new(",
    "AtomicU8::new(",
    "AtomicU32::new(",
    "AtomicU64::new(",
    "AtomicUsize::new(",
    "AtomicI64::new(",
];

/// One aggregated audit finding: all occurrences of one needle in one
/// function (or one sync construct in one file), with the first line
/// for the report.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// `alloc` | `panic` | `scan` | `sync`.
    pub kind: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// `Type::fn` (empty for file-level findings).
    pub func: String,
    /// The matched needle (or construct name).
    pub needle: String,
    /// Human detail, including the seed→function chain for
    /// reachability findings.
    pub detail: String,
    /// 1-based line of the first occurrence.
    pub line: usize,
    pub count: usize,
}

impl AuditFinding {
    /// The stable baseline key. Line numbers are deliberately excluded
    /// so unrelated edits above a blessed site do not invalidate it.
    pub fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.kind, self.file, self.func, self.needle)
    }
}

/// The full audit: graph statistics plus the finding list, sorted by
/// key (byte-stable given identical sources).
pub struct Audit {
    pub nodes: usize,
    pub reachable: usize,
    pub findings: Vec<AuditFinding>,
}

/// Runs every audit pass over the workspace at `root`, loading sources
/// through the shared `SourceSet`.
pub fn run(root: &Path, sources: &mut SourceSet) -> Result<Audit, ParseError> {
    let mut audit = run_for(root, sources, callgraph::AUDITED_CRATES, SEEDS)?;
    audit.findings.extend(sync_findings(root, sources)?);
    audit.findings.sort_by(|a, b| a.key().cmp(&b.key()).then(a.line.cmp(&b.line)));
    Ok(audit)
}

/// The reachability audit over an explicit crate list and seed list
/// (tests use fixture trees, as with [`callgraph::build_for`]).
pub fn run_for(
    root: &Path,
    sources: &mut SourceSet,
    crates: &'static [&'static str],
    seeds: &[(&str, &str, &str)],
) -> Result<Audit, ParseError> {
    let graph = callgraph::build_for(root, sources, crates)?;

    // Resolve seeds; an unresolvable seed is tooling rot, not a finding.
    let mut seed_ids = Vec::new();
    for (file, impl_type, name) in seeds {
        let ids = graph.resolve_named(file, Some(impl_type), name);
        if ids.is_empty() {
            return Err(ParseError {
                file: (*file).into(),
                line: 1,
                detail: format!(
                    "audit seed `{impl_type}::{name}` not found in {file} — update \
                     `audit::SEEDS` to follow the code"
                ),
            });
        }
        seed_ids.extend(ids);
    }
    let reached = graph.reachable(&seed_ids);

    let findings = reachability_findings(root, sources, &graph, &reached)?;
    Ok(Audit { nodes: graph.nodes.len(), reachable: reached.len(), findings })
}

/// Loads the (already cached) source file backing a graph node.
fn node_source<'s>(
    root: &Path,
    sources: &'s mut SourceSet,
    node: &FnNode,
) -> Result<&'s crate::parse::SourceFile, ParseError> {
    sources.load(&root.join(&node.file)).map_err(|e| ParseError {
        file: node.file.clone(),
        line: node.line,
        detail: format!("cannot reload file: {e}"),
    })
}

/// Pass 1: needle scan over every reachable function body.
fn reachability_findings(
    root: &Path,
    sources: &mut SourceSet,
    graph: &CallGraph,
    reached: &BTreeMap<usize, Option<usize>>,
) -> Result<Vec<AuditFinding>, ParseError> {
    let passes: &[(&'static str, &[(&str, &str)])] =
        &[("alloc", ALLOC_NEEDLES), ("panic", PANIC_NEEDLES)];
    let mut out = Vec::new();
    for &id in reached.keys() {
        let node = &graph.nodes[id];
        let chain = graph.chain(reached, id);
        let sf = node_source(root, sources, node)?;
        for (kind, needles) in passes {
            for (needle, what) in *needles {
                push_needle_finding(&mut out, sf, node, kind, needle, what, &chain);
            }
        }
        if DIRECTORY_FILES.iter().any(|f| node.file.to_string_lossy().ends_with(f)) {
            for needle in SCAN_NEEDLES {
                push_needle_finding(
                    &mut out,
                    sf,
                    node,
                    "scan",
                    needle,
                    "linear scan over directory state",
                    &chain,
                );
            }
        }
    }
    Ok(out)
}

/// Counts bounded occurrences of `needle` in the node's body and pushes
/// one aggregated finding when the count is nonzero.
fn push_needle_finding(
    out: &mut Vec<AuditFinding>,
    sf: &crate::parse::SourceFile,
    node: &FnNode,
    kind: &'static str,
    needle: &str,
    what: &str,
    chain: &str,
) {
    let masked = sf.masked();
    let (open, close) = node.body;
    let text = std::str::from_utf8(&masked[open..close]).unwrap_or_default();
    let word_start = needle.bytes().next().is_some_and(|c| c.is_ascii_alphabetic());
    let mut count = 0;
    let mut first_at = 0;
    let mut from = 0;
    while let Some(p) = text[from..].find(needle) {
        let at = from + p;
        from = at + 1;
        // Word boundary for bare-word needles: `debug_assert!` must not
        // match `assert!`.
        if word_start {
            let prev = text[..at].bytes().last();
            if prev.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                continue;
            }
        }
        if count == 0 {
            first_at = open + at;
        }
        count += 1;
    }
    if count > 0 {
        out.push(AuditFinding {
            kind,
            file: node.file.to_string_lossy().into_owned(),
            func: node.qualified(),
            needle: needle.to_string(),
            detail: format!("{what}, reachable via {chain}"),
            line: line_of(&sf.text, first_at),
            count,
        });
    }
}

/// Pass 2: unjustified synchronization sites in the concurrency
/// kernels. A site is any `Ordering::` use or `Mutex`/`Condvar`/
/// `Atomic*` construction outside test code; it is justified when its
/// line, or the contiguous `//` comment block directly above it,
/// contains a `sync:` tag.
fn sync_findings(
    root: &Path,
    sources: &mut SourceSet,
) -> Result<Vec<AuditFinding>, ParseError> {
    let mut files = Vec::new();
    for kernel in SYNC_KERNELS {
        let path = root.join(kernel);
        if path.is_dir() {
            walk_rs(&path, &mut files).map_err(|e| ParseError {
                file: path.clone(),
                line: 1,
                detail: format!("cannot walk sync kernel: {e}"),
            })?;
        } else {
            files.push(path);
        }
    }
    files.sort();

    let mut out = Vec::new();
    for file in files {
        let sf = sources.load(&file).map_err(|e| ParseError {
            file: file.clone(),
            line: 1,
            detail: format!("cannot read file: {e}"),
        })?;
        let lines: Vec<&str> = sf.text.lines().collect();
        // construct → (first unjustified line, unjustified count)
        let mut sites: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for at in occurrences(sf.masked(), "Ordering::", sf.skip()) {
            // The ordering name itself keys the finding, so weakening a
            // blessed `SeqCst` to `Relaxed` cannot hide inside a count.
            let rest = &sf.text[at + "Ordering::".len()..];
            let name: String =
                rest.chars().take_while(|c| c.is_ascii_alphanumeric()).collect();
            record_sync_site(&mut sites, &lines, &sf.text, &format!("Ordering::{name}"), at);
        }
        for needle in SYNC_CTOR_NEEDLES {
            for at in occurrences(sf.masked(), needle, sf.skip()) {
                record_sync_site(&mut sites, &lines, &sf.text, needle.trim_end_matches('('), at);
            }
        }
        let rel = sf.path.to_string_lossy().into_owned();
        for (construct, (line, count)) in sites {
            out.push(AuditFinding {
                kind: "sync",
                file: rel.clone(),
                func: String::new(),
                needle: construct.clone(),
                detail: format!(
                    "`{construct}` site without a `// sync:` justification — document \
                     why the ordering/primitive is correct on the same line or in the \
                     comment block above"
                ),
                line,
                count,
            });
        }
    }
    Ok(out)
}

/// Records one sync site into the per-file aggregation if unjustified.
fn record_sync_site(
    sites: &mut BTreeMap<String, (usize, usize)>,
    lines: &[&str],
    source: &str,
    construct: &str,
    at: usize,
) {
    let line = line_of(source, at);
    if sync_justified(lines, line) {
        return;
    }
    let entry = sites.entry(construct.to_string()).or_insert((line, 0));
    entry.1 += 1;
}

/// Is the sync site on 1-based `line` justified by a `sync:` tag?
fn sync_justified(lines: &[&str], line: usize) -> bool {
    let idx = line.saturating_sub(1);
    if lines.get(idx).is_some_and(|l| l.contains("// sync:")) {
        return true;
    }
    // Walk the contiguous comment block directly above.
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let trimmed = lines[i].trim_start();
        if trimmed.starts_with("//") {
            if trimmed.contains("sync:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Serializes the audit to its canonical JSON artifact (byte-stable:
/// sorted findings, fixed key order, deterministic inputs).
pub fn report_json(audit: &Audit) -> Json {
    Json::obj(vec![
        ("schema", Json::Str("inpg.audit.v1".into())),
        ("nodes", Json::UInt(audit.nodes as u64)),
        ("reachable", Json::UInt(audit.reachable as u64)),
        (
            "seeds",
            Json::Arr(
                SEEDS
                    .iter()
                    .map(|(file, ty, name)| Json::Str(format!("{file}::{ty}::{name}")))
                    .collect(),
            ),
        ),
        (
            "findings",
            Json::Arr(
                audit
                    .findings
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("key", Json::Str(f.key())),
                            ("line", Json::UInt(f.line as u64)),
                            ("count", Json::UInt(f.count as u64)),
                            ("detail", Json::Str(f.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The blessed baseline: finding key → blessed occurrence count.
pub struct Baseline {
    pub blessed: Vec<(String, u64)>,
}

/// Loads and validates the baseline file.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let json = inpg_campaign::json::parse(&text)
        .map_err(|e| format!("malformed baseline {}: {e}", path.display()))?;
    let schema = json.get("schema").and_then(Json::as_str);
    if schema != Some("inpg.audit_baseline.v1") {
        return Err(format!("baseline {} has unexpected schema {schema:?}", path.display()));
    }
    let mut blessed = Vec::new();
    if let Some(Json::Obj(entries)) = json.get("blessed") {
        for (key, count) in entries {
            let count = count
                .as_u64()
                .ok_or_else(|| format!("blessed[{key}] count must be an integer"))?;
            blessed.push((key.clone(), count));
        }
    }
    Ok(Baseline { blessed })
}

/// Serializes a baseline (used by `--bless`). Keys are sorted, so the
/// file is byte-stable for a given finding set.
pub fn baseline_json(audit: &Audit) -> Json {
    let mut blessed: Vec<(String, Json)> = audit
        .findings
        .iter()
        .map(|f| (f.key(), Json::UInt(f.count as u64)))
        .collect();
    blessed.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(vec![
        ("schema".into(), Json::Str("inpg.audit_baseline.v1".into())),
        ("blessed".into(), Json::Obj(blessed)),
    ])
}

/// Diffs the audit against the blessed baseline. Non-empty result fails
/// the run with exit 2.
pub fn validate(audit: &Audit, baseline: &Baseline) -> Vec<String> {
    let current: BTreeMap<String, u64> =
        audit.findings.iter().map(|f| (f.key(), f.count as u64)).collect();
    let blessed: BTreeMap<&str, u64> =
        baseline.blessed.iter().map(|(k, c)| (k.as_str(), *c)).collect();
    let mut out = Vec::new();
    for f in &audit.findings {
        match blessed.get(f.key().as_str()) {
            None => out.push(format!(
                "new: {} at {}:{} ({} occurrence(s)) — {}",
                f.key(),
                f.file,
                f.line,
                f.count,
                f.detail
            )),
            Some(b) if *b != f.count as u64 => out.push(format!(
                "count changed: {} — blessed {b}, now {} (at {}:{}); review the \
                 drift, then `cargo xtask audit --bless`",
                f.key(),
                f.count,
                f.file,
                f.line
            )),
            Some(_) => {}
        }
    }
    for (key, _) in &baseline.blessed {
        if !current.contains_key(key) {
            out.push(format!(
                "stale baseline entry: {key} — the finding no longer exists; \
                 `cargo xtask audit --bless` to drop it"
            ));
        }
    }
    out
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
