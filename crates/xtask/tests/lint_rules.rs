//! Acceptance tests for the whole-crate lint pass: the workspace
//! itself must be clean, the fixture with a wildcard arm over
//! `CoherenceMsg` must fail, and stale or unknown waivers are findings.

use std::path::{Path, PathBuf};
use xtask::lint::{
    lint_source, lint_source_with, lint_workspace, Rule, CAMPAIGN_RULES, KERNEL_RULES,
};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

#[test]
fn the_workspace_protocol_crates_are_clean() {
    let findings = lint_workspace(&workspace_root()).unwrap();
    assert!(
        findings.is_empty(),
        "lint violations in the workspace:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn the_wildcard_fixture_fails_on_the_coherence_msg_match_only() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wildcard_over_coherence_msg.rs");
    let source = std::fs::read_to_string(&path).unwrap();
    let findings = lint_source(&path, &source);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Wildcard);
    assert!(findings[0].detail.contains("CoherenceMsg"), "{}", findings[0].detail);
    // The waived match over `State` must not be reported.
    assert_eq!(findings[0].line, 9, "must point at the `_ => \"other\"` arm");
}

#[test]
fn unwrap_and_expect_are_flagged_outside_tests_only() {
    let src = r#"
fn a(x: Option<u8>) -> u8 {
    x.unwrap()
}
fn b(x: Option<u8>) -> u8 {
    x.expect("present")
}
#[cfg(test)]
mod tests {
    fn c(x: Option<u8>) -> u8 {
        x.unwrap()
    }
}
"#;
    let findings = lint_source(Path::new("f.rs"), src);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == Rule::Unwrap));
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[1].line, 6);
}

#[test]
fn waiver_markers_and_masked_text_are_honored() {
    let src = r#"
fn a(x: Option<u8>) -> u8 {
    // lint: allow(unwrap) — checked by the caller.
    x.unwrap()
}
fn b() -> &'static str {
    // A doc string mentioning .unwrap() or HashMap must not trip.
    "call .unwrap() on a HashMap"
}
"#;
    assert!(lint_source(Path::new("f.rs"), src).is_empty());
}

#[test]
fn hash_collections_are_flagged_in_simulation_state() {
    let src = r#"
use std::collections::HashMap;
struct Directory {
    sharers: HashMap<u64, u8>,
}
"#;
    let findings = lint_source(Path::new("f.rs"), src);
    assert_eq!(findings.len(), 2, "{findings:?}"); // the use and the field
    assert!(findings.iter().all(|f| f.rule == Rule::Hash));
}

#[test]
fn wall_clock_types_are_flagged_under_the_campaign_rules() {
    let src = r#"
use std::time::Instant;
fn measure() -> u64 {
    let start = Instant::now();
    let t = std::time::SystemTime::now();
    let _ = t;
    start.elapsed().as_nanos() as u64
}
"#;
    let findings = lint_source_with(Path::new("f.rs"), src, CAMPAIGN_RULES);
    assert_eq!(findings.len(), 3, "{findings:?}"); // use, Instant::now, SystemTime::now
    assert!(findings.iter().all(|f| f.rule == Rule::WallClock));
    // Every crate group is linted for wall-clock reads, so the protocol
    // and kernel rule sets flag the same sites.
    assert_eq!(lint_source(Path::new("f.rs"), src).len(), 3);
    assert_eq!(lint_source_with(Path::new("f.rs"), src, KERNEL_RULES).len(), 3);
}

#[test]
fn wall_clock_waivers_are_honored() {
    let src = r#"
// lint: allow(wallclock) — harness boundary: wall time never feeds results.
use std::time::Instant;
// lint: allow(wallclock) — harness boundary.
fn stamp() -> Instant {
    // lint: allow(wallclock) — harness boundary.
    Instant::now()
}
"#;
    assert!(lint_source_with(Path::new("f.rs"), src, CAMPAIGN_RULES).is_empty());
}

#[test]
fn identifiers_containing_instant_are_not_flagged() {
    let src = r#"
fn f(instantiate: u64) -> u64 {
    let InstantLike = instantiate; // not the std type
    InstantLike
}
"#;
    assert!(lint_source_with(Path::new("f.rs"), src, CAMPAIGN_RULES).is_empty());
}

#[test]
fn wildcards_over_non_protocol_enums_are_ignored() {
    let src = r#"
fn f(s: CoreState) -> u8 {
    match s {
        CoreState::Sleeping => 1,
        _ => 0,
    }
}
"#;
    assert!(lint_source(Path::new("f.rs"), src).is_empty());
}

#[test]
fn a_waiver_suppressing_nothing_is_stale() {
    let src = r#"
fn stamp() -> u64 {
    // lint: allow(hash) — left behind after a refactor
    42
}
"#;
    let findings = lint_source_with(Path::new("f.rs"), src, CAMPAIGN_RULES);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::StaleWaiver);
    assert!(findings[0].detail.contains("hash"), "{}", findings[0].detail);
}

#[test]
fn an_active_waiver_is_not_stale() {
    let src = r#"
use std::collections::HashMap; // lint: allow(hash) — boundary-only map
"#;
    let findings = lint_source_with(Path::new("f.rs"), src, CAMPAIGN_RULES);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn a_waiver_naming_no_rule_is_a_finding() {
    let src = r#"
fn probe(xs: &[u8]) -> bool {
    // lint: allow(scan) — scans are the audit's business, not a lint kind
    xs.iter().any(|x| *x == 3)
}
fn a(x: Option<u8>) -> u8 {
    // lint: allow(unwarp) — misspelt, so it waives nothing
    x.unwrap()
}
"#;
    let findings = lint_source(Path::new("f.rs"), src);
    let rules: Vec<(usize, Rule)> = findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        rules,
        [(3, Rule::StaleWaiver), (7, Rule::StaleWaiver), (8, Rule::Unwrap)],
        "{findings:?}"
    );
    assert!(findings[0].detail.contains("allow(scan)"), "{}", findings[0].detail);
    assert!(findings[1].detail.contains("allow(unwarp)"), "{}", findings[1].detail);
    assert!(findings[1].detail.contains("names no lint rule"), "{}", findings[1].detail);
}
