//! The whole-crate source-rule lint (`cargo xtask lint`): a
//! hand-rolled token scanner (the build environment has no registry
//! access, so `syn` is not an option) enforcing the invariants the
//! simulator's correctness arguments lean on.
//!
//! The lint and the auditor (`crate::audit`) split the static rules
//! between them, one enforcer per rule. The lint owns every rule that
//! holds for a whole crate, wherever the code runs: unwrap, wildcard,
//! hash, wall-clock and stale waivers. The auditor owns every rule that
//! holds only on the per-cycle path (allocation, panic paths and
//! directory scans in functions reachable from the simulator's
//! per-cycle seeds) plus the `// sync:` justification audit.
//!
//! Rules, skipping `#[cfg(test)]` regions and `tests/`/`benches/`
//! trees:
//!
//! 1. **unwrap** — no `.unwrap()` / `.expect(` in the protocol crates
//!    (`coherence`, `noc`, `manycore`) and the campaign crates
//!    (`campaign`, `stats`). A protocol-level surprise must surface as
//!    a typed `CoherenceError`/`SimError`, not a panic that takes the
//!    whole simulated machine down with a generic message. The campaign
//!    service (`serve`/`submit`) is a resident process whose failures
//!    must surface as typed wire replies or journaled drains (poisoned
//!    locks are recovered with `unwrap_or_else(PoisonError::into_inner)`,
//!    fallible I/O returns `io::Result`), and a panic inside the
//!    estimator would take down an adaptive campaign mid-flight.
//! 2. **wildcard** — no bare `_` arm in a `match` whose patterns name a
//!    protocol enum (`CoherenceMsg`, `State`, `DirState`, `EiPhase`),
//!    in the protocol crates. Adding a message or state variant must
//!    break the build at every handler, not silently fall through an
//!    old catch-all.
//! 3. **hash** — no `HashMap`/`HashSet` in any linted crate. Iteration
//!    order feeds the event (or merge) order, and hash iteration order
//!    is unspecified; deterministic replay needs `BTreeMap`/`BTreeSet`.
//! 4. **wallclock** — no `Instant`/`SystemTime` in any linted crate
//!    outside the campaign's harness-boundary module (`clock.rs`, which
//!    carries in-place waivers). Simulated time is the cycle counter;
//!    wall time may only be attached at the harness boundary and must
//!    never feed a cell record or the merge.
//! 5. **stale** — every `lint: allow(<kind>)` waiver must suppress at
//!    least one finding of a rule that ran on its file, and must name a
//!    lint rule at all; an obsolete or misspelt waiver is itself a
//!    finding, so dead justifications cannot accumulate.
//!
//! A violation can be waived in place with a justification marker on
//! the same line or an immediately preceding comment line:
//!
//! ```text
//! // lint: allow(unwrap) — <why this cannot fail>
//! ```
//!
//! (kinds: `unwrap`, `wildcard`, `hash`, `wallclock`).

use crate::parse::{ParseError, SourceFile, SourceSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates the protocol rules apply to (directory names under `crates/`).
pub const PROTOCOL_CRATES: &[&str] = &["coherence", "noc", "manycore"];

/// Crates the campaign rules apply to: the campaign runtime and the
/// statistics crate whose estimator feeds its adaptive stopping rule.
pub const CAMPAIGN_CRATES: &[&str] = &["campaign", "stats"];

/// Kernel crates: deterministic foundations linted for hash collections
/// and wall-clock reads (their panics are contract assertions, so the
/// unwrap rule does not apply).
pub const KERNEL_CRATES: &[&str] = &["sim", "locks", "workloads", "core"];

/// Enums whose matches must not hide behind a catch-all.
pub const PROTOCOL_ENUMS: &[&str] =
    &["CoherenceMsg", "State", "DirState", "EiPhase", "RouterHealth"];

/// Which rule a finding belongs to (and which `allow(...)` kind waives it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    Unwrap,
    Wildcard,
    Hash,
    WallClock,
    StaleWaiver,
}

/// The rules a `lint: allow(<kind>)` waiver can name.
const WAIVABLE: &[Rule] = &[Rule::Unwrap, Rule::Wildcard, Rule::Hash, Rule::WallClock];

/// The rule set enforced on [`PROTOCOL_CRATES`].
pub const PROTOCOL_RULES: &[Rule] =
    &[Rule::Unwrap, Rule::Wildcard, Rule::Hash, Rule::WallClock, Rule::StaleWaiver];

/// The rule set enforced on [`CAMPAIGN_CRATES`].
pub const CAMPAIGN_RULES: &[Rule] =
    &[Rule::Unwrap, Rule::Hash, Rule::WallClock, Rule::StaleWaiver];

/// The rule set enforced on [`KERNEL_CRATES`].
pub const KERNEL_RULES: &[Rule] = &[Rule::Hash, Rule::WallClock, Rule::StaleWaiver];

/// Every linted crate group with its rule set.
pub const CRATE_GROUPS: &[(&[&str], &[Rule])] = &[
    (PROTOCOL_CRATES, PROTOCOL_RULES),
    (CAMPAIGN_CRATES, CAMPAIGN_RULES),
    (KERNEL_CRATES, KERNEL_RULES),
];

impl Rule {
    pub(crate) fn kind(self) -> &'static str {
        match self {
            Rule::Unwrap => "unwrap",
            Rule::Wildcard => "wildcard",
            Rule::Hash => "hash",
            Rule::WallClock => "wallclock",
            Rule::StaleWaiver => "stale",
        }
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.kind(),
            self.detail
        )
    }
}

/// Replaces the contents of comments and string/char literals with
/// spaces (newlines kept), so the token scans below cannot be fooled by
/// `".unwrap()"` inside a doc string. Returns a byte vector of the same
/// length as the input.
pub(crate) fn mask(source: &str) -> Vec<u8> {
    let b = source.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for x in &mut out[from..to] {
            if *x != b'\n' {
                *x = b' ';
            }
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = source[i..].find('\n').map_or(b.len(), |p| i + p);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank(&mut out, i + 1, j.saturating_sub(1).max(i + 1));
                i = j;
            }
            b'r' | b'b' if (i == 0 || !is_ident(b[i - 1])) && raw_string_len(&b[i..]) > 0 => {
                // Raw (and raw-byte) strings: r"...", r#"..."#, br#"..."#.
                let len = raw_string_len(&b[i..]);
                blank(&mut out, i + 1, i + len);
                i += len;
            }
            b'\'' => {
                // Char literal vs lifetime: a lifetime is 'ident not
                // followed by a closing quote.
                let rest = &b[i + 1..];
                let is_lifetime = rest
                    .first()
                    .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_')
                    && rest.get(1) != Some(&b'\'');
                if is_lifetime {
                    i += 1;
                } else {
                    let mut j = i + 1;
                    while j < b.len() {
                        match b[j] {
                            b'\\' => j += 2,
                            b'\'' => {
                                j += 1;
                                break;
                            }
                            b'\n' => break, // stray quote, give up
                            _ => j += 1,
                        }
                    }
                    blank(&mut out, i + 1, j.saturating_sub(1).max(i + 1));
                    i = j;
                }
            }
            _ => i += 1,
        }
    }
    out
}

pub(crate) fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Length in bytes of the raw string literal starting at `b[0]`
/// (`r"…"`, `r#"…"#`, `br##"…"##`), or 0 when `b` does not start one.
fn raw_string_len(b: &[u8]) -> usize {
    let mut k = 0;
    if b.get(k) == Some(&b'b') {
        k += 1;
    }
    if b.get(k) != Some(&b'r') {
        return 0;
    }
    k += 1;
    let hashes = b[k..].iter().take_while(|c| **c == b'#').count();
    k += hashes;
    if b.get(k) != Some(&b'"') {
        return 0;
    }
    k += 1;
    while k < b.len() {
        if b[k] == b'"' && b[k + 1..].iter().take_while(|c| **c == b'#').count() >= hashes {
            return k + 1 + hashes;
        }
        k += 1;
    }
    b.len()
}

/// Byte ranges covered by `#[cfg(test)]` items (the attribute through
/// the end of the braced item it decorates).
pub(crate) fn test_ranges(masked: &[u8]) -> Vec<(usize, usize)> {
    let text = std::str::from_utf8(masked).unwrap_or_default();
    let mut ranges = Vec::new();
    let mut from = 0;
    while let Some(p) = text[from..].find("#[cfg(test)]") {
        let at = from + p;
        // The attribute decorates the next braced item (a mod, fn or
        // impl); an un-braced target (e.g. `use`) ends at `;`.
        let mut j = at;
        let mut end = masked.len();
        while j < masked.len() {
            match masked[j] {
                b'{' => {
                    let mut depth = 1usize;
                    let mut k = j + 1;
                    while k < masked.len() && depth > 0 {
                        match masked[k] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    end = k;
                    break;
                }
                b';' => {
                    end = j + 1;
                    break;
                }
                _ => j += 1,
            }
        }
        ranges.push((at, end));
        from = end.max(at + 1);
    }
    ranges
}

pub(crate) fn in_ranges(pos: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|(a, b)| (*a..*b).contains(&pos))
}

pub(crate) fn line_of(source: &str, pos: usize) -> usize {
    source.as_bytes()[..pos].iter().filter(|c| **c == b'\n').count() + 1
}

/// One `lint: allow(<kind>)` marker found in a file.
struct WaiverSite {
    /// 1-based line the marker sits on.
    line: usize,
    kind: String,
    used: bool,
}

/// All waiver markers of one file, with usage tracking: a marker that
/// suppresses no finding by the end of the file's passes is stale.
struct Waivers {
    sites: Vec<WaiverSite>,
}

impl Waivers {
    /// Collects every `lint: allow(<kind>)` marker in `source`.
    fn collect(source: &str) -> Self {
        let mut sites = Vec::new();
        for (idx, text) in source.lines().enumerate() {
            if let Some(p) = text.find("lint: allow(") {
                let rest = &text[p + "lint: allow(".len()..];
                if let Some(close) = rest.find(')') {
                    sites.push(WaiverSite {
                        line: idx + 1,
                        kind: rest[..close].to_string(),
                        used: false,
                    });
                }
            }
        }
        Waivers { sites }
    }

    fn mark(&mut self, line: usize, kind: &str) -> bool {
        for site in &mut self.sites {
            if site.line == line && site.kind == kind {
                site.used = true;
                return true;
            }
        }
        false
    }

    /// Is a marker of `kind` present on `line` or the block of
    /// comment-only lines immediately above it? Marks the matching
    /// marker as used.
    fn check(&mut self, lines: &[&str], line: usize, kind: &str) -> bool {
        if self.mark(line, kind) {
            return true;
        }
        let mut n = line - 1; // 0-based index of the line above
        while n > 0 {
            let above = lines[n - 1].trim_start();
            if !above.starts_with("//") {
                return false;
            }
            if self.mark(n, kind) {
                return true;
            }
            n -= 1;
        }
        false
    }

    /// Findings for markers outside `#[cfg(test)]` ranges that name no
    /// waivable rule, or that suppressed nothing although their rule is
    /// in `kinds` (the kinds whose rules actually ran on this file).
    fn stale(
        &self,
        path: &Path,
        source: &str,
        skip: &[(usize, usize)],
        kinds: &[&str],
    ) -> Vec<Finding> {
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(source.bytes().enumerate().filter(|(_, c)| *c == b'\n').map(|(i, _)| i + 1))
            .collect();
        self.sites
            .iter()
            .filter(|s| {
                let pos = line_starts.get(s.line - 1).copied().unwrap_or(0);
                !in_ranges(pos, skip)
            })
            .filter_map(|s| {
                let detail = if !WAIVABLE.iter().any(|r| r.kind() == s.kind) {
                    let known: Vec<String> =
                        WAIVABLE.iter().map(|r| format!("`{}`", r.kind())).collect();
                    format!(
                        "unknown waiver: `lint: allow({})` names no lint rule — use one of \
                         {}, or make it a plain comment",
                        s.kind,
                        known.join(", ")
                    )
                } else if !s.used && kinds.contains(&s.kind.as_str()) {
                    format!(
                        "stale waiver: `lint: allow({})` suppresses no finding — remove it",
                        s.kind
                    )
                } else {
                    return None;
                };
                Some(Finding {
                    file: path.to_path_buf(),
                    line: s.line,
                    rule: Rule::StaleWaiver,
                    detail,
                })
            })
            .collect()
    }
}

/// Scans masked text for a needle, reporting byte offsets of matches
/// outside the given ranges.
pub(crate) fn occurrences<'a>(
    masked: &'a [u8],
    needle: &'a str,
    skip: &'a [(usize, usize)],
) -> impl Iterator<Item = usize> + 'a {
    let text = std::str::from_utf8(masked).unwrap_or_default();
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(p) = text[from..].find(needle) {
            let at = from + p;
            from = at + 1;
            if !in_ranges(at, skip) {
                return Some(at);
            }
        }
        None
    })
}

/// One parsed `match` arm: the pattern text and the 1-based line its
/// pattern starts on.
struct Arm {
    pattern: String,
    line: usize,
}

/// Why a `match` keyword occurrence yielded no arms.
enum MatchSkip {
    /// Not a match expression at all (e.g. half of a longer token run in
    /// macro input) — skip silently.
    NotAMatch,
    /// Structurally unterminated — real code the scanner cannot follow;
    /// surfaced as a parse error so it cannot silently escape linting.
    Unterminated,
}

/// Parses the arms of the `match` whose keyword starts at `kw` in the
/// masked text.
fn parse_match_arms(source: &str, masked: &[u8], kw: usize) -> Result<Vec<Arm>, MatchSkip> {
    // Find the `{` opening the match block: first brace at
    // paren/bracket depth zero after the scrutinee expression.
    let mut i = kw + "match".len();
    let mut depth = 0i32;
    let open = loop {
        if i >= masked.len() {
            return Err(MatchSkip::Unterminated);
        }
        match masked[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => break i,
            b';' if depth == 0 => return Err(MatchSkip::NotAMatch),
            _ => {}
        }
        i += 1;
    };
    let mut arms = Vec::new();
    let mut i = open + 1;
    loop {
        // Skip whitespace to the start of the next pattern.
        while i < masked.len() && masked[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= masked.len() {
            return Err(MatchSkip::Unterminated);
        }
        if masked[i] == b'}' {
            return Ok(arms); // end of the match block
        }
        let pat_start = i;
        // Pattern runs to the `=>` at nesting depth zero (struct
        // patterns like `Inv { .. }` nest and un-nest before it).
        let mut depth = 0i32;
        let arrow = loop {
            if i >= masked.len() {
                return Err(MatchSkip::Unterminated);
            }
            match masked[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'=' if depth == 0 && masked.get(i + 1) == Some(&b'>') => break i,
                _ => {}
            }
            i += 1;
        };
        arms.push(Arm {
            pattern: source[pat_start..arrow].trim().to_string(),
            line: line_of(source, pat_start),
        });
        // Skip the arm body: a block (to its matching brace) or an
        // expression (to the `,` or closing `}` at depth zero).
        i = arrow + 2;
        while i < masked.len() && masked[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < masked.len() && masked[i] == b'{' {
            let mut depth = 1i32;
            i += 1;
            while i < masked.len() && depth > 0 {
                match masked[i] {
                    b'{' => depth += 1,
                    b'}' => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
            if masked.get(i) == Some(&b',') {
                i += 1;
            }
        } else {
            let mut depth = 0i32;
            loop {
                if i >= masked.len() {
                    return Err(MatchSkip::Unterminated);
                }
                match masked[i] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'}' if depth == 0 => break, // end of match block
                    b'}' => depth -= 1,
                    b',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
}

/// Does `pattern` name one of the protocol enums as a path segment
/// (`State::…` but not `CoreState::…`)?
fn mentions_protocol_enum(pattern: &str) -> Option<&'static str> {
    let b = pattern.as_bytes();
    for name in PROTOCOL_ENUMS {
        let mut from = 0;
        while let Some(p) = pattern[from..].find(name) {
            let at = from + p;
            from = at + 1;
            let bounded_left = at == 0 || !is_ident(b[at - 1]);
            let qualified = pattern[at + name.len()..].starts_with("::");
            if bounded_left && qualified {
                return Some(name);
            }
        }
    }
    None
}

fn is_bare_wildcard(pattern: &str) -> bool {
    let p = pattern.trim_start_matches('|').trim();
    p == "_" || p.starts_with("_ if ") || p.starts_with("_ if(")
}

/// Lints one source file with the protocol rule set. `path` is used
/// only for reporting.
pub fn lint_source(path: &Path, source: &str) -> Vec<Finding> {
    lint_source_with(path, source, PROTOCOL_RULES)
}

/// Lints one source file against an explicit rule set, dropping parse
/// errors (the workspace walk reports them).
pub fn lint_source_with(path: &Path, source: &str, rules: &[Rule]) -> Vec<Finding> {
    let sf = SourceFile::from_text(path.to_path_buf(), source.to_string());
    lint_file(&sf, rules).0
}

/// Lints one already-parsed source file against an explicit rule set.
/// This is the workspace walk's entry point: the [`SourceFile`] comes
/// from the shared [`SourceSet`], so its mask, test ranges, and token
/// artifacts are computed once no matter how many passes read it.
/// Returns the findings and any parse errors (code the scanner could
/// not follow — reported, never silently skipped).
pub fn lint_file(sf: &SourceFile, rules: &[Rule]) -> (Vec<Finding>, Vec<ParseError>) {
    let path = &sf.path;
    let source = sf.text.as_str();
    let masked = sf.masked();
    let skip = sf.skip();
    let lines: Vec<&str> = source.lines().collect();
    let mut waivers = Waivers::collect(source);
    let mut findings = Vec::new();
    let mut errors = Vec::new();

    // Rule 1: unwrap/expect.
    if rules.contains(&Rule::Unwrap) {
        for (needle, what) in [(".unwrap()", "unwrap()"), (".expect(", "expect()")] {
            for at in occurrences(masked, needle, skip) {
                let line = line_of(source, at);
                if waivers.check(&lines, line, "unwrap") {
                    continue;
                }
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line,
                    rule: Rule::Unwrap,
                    detail: format!(
                        "{what} in protocol code — return a typed error, or waive with \
                         `// lint: allow(unwrap) — <why this cannot fail>`"
                    ),
                });
            }
        }
    }

    // Rule 2: wildcard arms over protocol enums.
    for at in occurrences(masked, "match", skip) {
        if !rules.contains(&Rule::Wildcard) {
            break;
        }
        let b = source.as_bytes();
        let bounded = (at == 0 || !is_ident(b[at - 1]))
            && b.get(at + 5).is_none_or(|c| !is_ident(*c) && *c != b'!');
        if !bounded {
            continue; // `rematch`, `match_flit`, `matches!`…
        }
        let arms = match parse_match_arms(source, masked, at) {
            Ok(arms) => arms,
            Err(MatchSkip::NotAMatch) => continue,
            Err(MatchSkip::Unterminated) => {
                errors.push(ParseError {
                    file: path.to_path_buf(),
                    line: line_of(source, at),
                    detail: "cannot parse `match` expression (unterminated arms)".into(),
                });
                continue;
            }
        };
        let Some(enum_name) = arms.iter().find_map(|a| mentions_protocol_enum(&a.pattern))
        else {
            continue;
        };
        for arm in arms.iter().filter(|a| is_bare_wildcard(&a.pattern)) {
            if waivers.check(&lines, arm.line, "wildcard")
                || waivers.check(&lines, line_of(source, at), "wildcard")
            {
                continue;
            }
            findings.push(Finding {
                file: path.to_path_buf(),
                line: arm.line,
                rule: Rule::Wildcard,
                detail: format!(
                    "wildcard `_` arm in a match over `{enum_name}` — list the variants \
                     so new ones break the build, or waive with \
                     `// lint: allow(wildcard) — <why the fallback is safe>`"
                ),
            });
        }
    }

    // Rule 3: hash collections in simulation state.
    if rules.contains(&Rule::Hash) {
        for name in ["HashMap", "HashSet"] {
            for at in occurrences(masked, name, skip) {
                let b = source.as_bytes();
                let bounded = (at == 0 || !is_ident(b[at - 1]))
                    && b.get(at + name.len()).is_none_or(|c| !is_ident(*c));
                if !bounded {
                    continue;
                }
                let line = line_of(source, at);
                if waivers.check(&lines, line, "hash") {
                    continue;
                }
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line,
                    rule: Rule::Hash,
                    detail: format!(
                        "{name} in deterministic code — iteration order feeds event \
                         (or merge) order; use BTreeMap/BTreeSet for deterministic \
                         replay, or waive with \
                         `// lint: allow(hash) — <why the order cannot leak>`"
                    ),
                });
            }
        }
    }

    // Rule 4: wall-clock reads in deterministic code.
    if rules.contains(&Rule::WallClock) {
        for name in ["Instant", "SystemTime"] {
            for at in occurrences(masked, name, skip) {
                let b = source.as_bytes();
                let bounded = (at == 0 || !is_ident(b[at - 1]))
                    && b.get(at + name.len()).is_none_or(|c| !is_ident(*c));
                if !bounded {
                    continue;
                }
                let line = line_of(source, at);
                if waivers.check(&lines, line, "wallclock") {
                    continue;
                }
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line,
                    rule: Rule::WallClock,
                    detail: format!(
                        "{name} in deterministic code — wall time may only be read at \
                         the harness boundary; simulation, cell execution and result \
                         merging must be pure functions of their configs. Waive with \
                         `// lint: allow(wallclock) — <why this is the harness boundary>`"
                    ),
                });
            }
        }
    }

    // Rule 5: waivers that suppressed nothing or name no rule.
    if rules.contains(&Rule::StaleWaiver) {
        let kinds: Vec<&str> = rules
            .iter()
            .filter(|r| !matches!(r, Rule::StaleWaiver))
            .map(|r| r.kind())
            .collect();
        findings.extend(waivers.stale(path, source, skip, &kinds));
    }

    findings.sort_by_key(|f| f.line);
    (findings, errors)
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every linted crate's `src/` tree under `root` (the workspace
/// root) against its group's rule set in [`CRATE_GROUPS`]. `tests/` and
/// `benches/` trees are exempt by construction. Parse errors are
/// dropped; see [`lint_workspace_full`].
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    lint_workspace_full(root).map(|(f, _)| f)
}

/// Like [`lint_workspace`], also returning parse errors (code the
/// scanner could not follow).
pub fn lint_workspace_full(
    root: &Path,
) -> std::io::Result<(Vec<Finding>, Vec<ParseError>)> {
    let mut sources = SourceSet::new(root);
    lint_workspace_with(root, &mut sources)
}

/// Like [`lint_workspace_full`], loading files through a caller-owned
/// [`SourceSet`] so other passes of the same invocation (the matrix
/// builder, the call-graph auditor) reuse the same parsed files.
pub fn lint_workspace_with(
    root: &Path,
    sources: &mut SourceSet,
) -> std::io::Result<(Vec<Finding>, Vec<ParseError>)> {
    let mut findings = Vec::new();
    let mut errors = Vec::new();
    for (crates, rules) in CRATE_GROUPS {
        for krate in *crates {
            let mut files = Vec::new();
            rust_sources(&root.join("crates").join(krate).join("src"), &mut files)?;
            files.sort();
            for file in files {
                let (f, e) = lint_file(sources.load(&file)?, rules);
                findings.extend(f);
                errors.extend(e);
            }
        }
    }
    Ok((findings, errors))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lint is the only hash and wall-clock check: a crate added to
    /// the audited call graph must not fall outside it.
    #[test]
    fn every_audited_crate_is_linted_for_hash_and_wall_clock() {
        for krate in crate::callgraph::AUDITED_CRATES {
            let rules = CRATE_GROUPS
                .iter()
                .find(|(crates, _)| crates.contains(krate))
                .map(|(_, rules)| *rules)
                .unwrap_or_default();
            for rule in [Rule::Hash, Rule::WallClock] {
                assert!(rules.contains(&rule), "crate `{krate}` is not linted with {rule:?}");
            }
        }
    }
}
