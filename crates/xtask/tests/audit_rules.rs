//! Tests for the auditor's needle passes over an on-disk fixture tree:
//! a finding needs both a needle and seed reachability, carries the
//! seed-to-site call chain, and the directory-scan pass runs only on
//! directory-state files.

use std::sync::atomic::{AtomicUsize, Ordering};

use xtask::audit::{run_for, AuditFinding};
use xtask::parse::SourceSet;

static FIXTURE_SEQ: AtomicUsize = AtomicUsize::new(0);

const COH: &[&str] = &["coh"];

const SEEDS: &[(&str, &str, &str)] =
    &[("coh/src/home.rs", "HomeCore", "process"), ("coh/src/l1.rs", "L1Core", "handle")];

const HOME: &str = r#"
pub struct HomeCore {
    parked: Vec<(u8, u64)>,
    log: Vec<u64>,
}

impl HomeCore {
    pub fn process(&mut self, core: u8) -> bool {
        debug_assert!(core < 64);
        self.record(core);
        self.parked.iter().position(|p| p.0 == core).is_some()
    }
    fn record(&mut self, core: u8) {
        self.log.push(u64::from(core));
    }
    pub fn cold_setup(&mut self) {
        self.log.push(0);
    }
}
"#;

const L1: &str = r#"
pub struct L1Core {
    mshrs: Vec<u8>,
}

impl L1Core {
    pub fn handle(&mut self, core: u8) -> bool {
        assert!(core < 64);
        self.mshrs.iter().position(|m| *m == core).is_some()
    }
}
"#;

/// Audits a throwaway `crates/coh/src/{home,l1}.rs` tree from [`SEEDS`].
fn audit_fixture() -> Vec<AuditFinding> {
    let root = std::env::temp_dir().join(format!(
        "xtask-audit-{}-{}",
        std::process::id(),
        FIXTURE_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let src = root.join("crates/coh/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("home.rs"), HOME).unwrap();
    std::fs::write(src.join("l1.rs"), L1).unwrap();
    let mut sources = SourceSet::new(&root);
    let audit = run_for(&root, &mut sources, COH, SEEDS).expect("fixture parses");
    std::fs::remove_dir_all(&root).ok();
    audit.findings
}

fn find<'a>(findings: &'a [AuditFinding], kind: &str, func: &str) -> Vec<&'a AuditFinding> {
    findings.iter().filter(|f| f.kind == kind && f.func == func).collect()
}

#[test]
fn allocation_is_flagged_in_seed_reachable_functions_only() {
    let findings = audit_fixture();
    let record = find(&findings, "alloc", "HomeCore::record");
    assert_eq!(record.len(), 1, "{findings:?}");
    assert_eq!(record[0].needle, ".push(");
    assert_eq!(record[0].line, 14);
    assert!(
        record[0].detail.contains("HomeCore::process → HomeCore::record"),
        "the finding must carry its call chain: {}",
        record[0].detail
    );
    assert!(find(&findings, "alloc", "HomeCore::cold_setup").is_empty(), "{findings:?}");
}

#[test]
fn linear_scans_are_flagged_in_reachable_directory_state_files_only() {
    let findings = audit_fixture();
    let scans: Vec<_> = findings.iter().filter(|f| f.kind == "scan").collect();
    assert_eq!(scans.len(), 1, "{findings:?}");
    assert_eq!(scans[0].file, "crates/coh/src/home.rs");
    assert_eq!(scans[0].func, "HomeCore::process");
    assert_eq!(scans[0].needle, ".iter().position(");
    // The same probe in l1.rs is reachable (its assert is a finding) but
    // is not directory state.
    assert_eq!(find(&findings, "panic", "L1Core::handle").len(), 1, "{findings:?}");
}

#[test]
fn debug_assert_does_not_match_assert() {
    let findings = audit_fixture();
    let handle = find(&findings, "panic", "L1Core::handle");
    assert_eq!(handle.len(), 1, "{findings:?}");
    assert_eq!(handle[0].needle, "assert!(");
    assert!(find(&findings, "panic", "HomeCore::process").is_empty(), "{findings:?}");
}
