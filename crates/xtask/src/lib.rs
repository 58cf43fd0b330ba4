//! Zero-dependency static-analysis pass for the Equalizer workspace.
//!
//! The simulator's headline claim is *bit-identical replay*: the same
//! kernel at the same V/f schedule must produce the same cycle counts on
//! every run. The classic ways that property rots are hash-order
//! iteration, wall-clock reads, ambient randomness and environment
//! sniffing — none of which a type checker catches. This crate is a
//! token-level linter (no `syn`, no `rustc` plumbing, pure `std`) that
//! bans those constructs from the simulation crates, plus a handful of
//! robustness and hygiene rules for the rest of the tree.
//!
//! Rules:
//!
//! | rule             | what it flags                                     | where |
//! |------------------|---------------------------------------------------|-------|
//! | `no-std-hashmap` | `HashMap`/`HashSet` (seeded iteration order)      | strict crates, lib code |
//! | `no-wallclock`   | `Instant::now`, `SystemTime`                      | strict crates, lib code |
//! | `no-extern-rand` | `thread_rng`, `rand::` (use `util::SplitMix64`)   | strict crates, lib code |
//! | `no-env-read`    | `std::env`, `env::var`                            | strict crates, lib code |
//! | `no-unwrap`      | `.unwrap()`, `.expect(`, `panic!`                 | strict crates, lib code |
//! | `pub-docs`       | undocumented `pub` items                          | docs crates, lib code |
//! | `no-debug-print` | `dbg!`, `println!`, `print!`                      | all lib code |
//! | `no-dup-metric-name` | the same metric-name literal registered twice | strict crates, lib code |
//! | `no-shared-mut-in-local-phase` | `&mut MemSystem`/`&mut Gwde` params on fns reachable from `cycle_local` | `crates/sim/src`, named paths |
//! | `tagged-todo`    | to-do markers without an issue tag like `(#7)`    | everywhere |
//! | `malformed-allow`| escape hatch missing rules, reason, or rule typo  | everywhere |
//!
//! Strict crates are `crates/sim`, `crates/core`, `crates/power` and
//! `crates/obs` (the observability layer shares the simulator's
//! determinism contract); docs crates are `crates/sim`, `crates/core`
//! and `crates/obs`. `#[cfg(test)]` regions and
//! `tests/`/`benches/`/`examples/` trees are exempt from everything
//! except `tagged-todo` and `malformed-allow`.
//!
//! `no-dup-metric-name` also runs one cross-file pass per strict crate
//! during a workspace walk, so two modules of `crates/obs` cannot claim
//! the same metric name either.
//!
//! `no-shared-mut-in-local-phase` guards the simulator's two-phase cycle:
//! the local phase (`Sm::cycle_local`) leaves shared state to the commit,
//! where cross-SM interaction resolves in the engine's rotated service
//! order, so no function it can reach may take the shared memory system
//! or block dispatcher mutably.
//! The pass extracts `fn` definitions from the comment-stripped source,
//! walks the call graph from every `cycle_local`, and flags reachable
//! functions with a `&mut MemSystem` or `&mut Gwde` parameter. It runs
//! cross-file over `crates/sim/src` during a workspace walk, and over the
//! whole file set for explicitly named paths (the fixtures).
//!
//! The escape hatch is a regular comment:
//!
//! ```text
//! // lint: allow(no-unwrap, no-wallclock) -- reason the ban is safe here
//! ```
//!
//! It covers its own line and the one below it, requires a non-empty
//! reason after `--`, and every suppression is counted and reported so
//! exemptions stay visible.
//!
//! On top of the token linter sits the effect-analysis engine
//! (`cargo xtask analyze`): [`model`] builds a call-graph source model,
//! [`effects`] infers and propagates per-function effect sets, and
//! [`rules`] checks the two-phase discipline (`local-phase-purity`,
//! `commit-only-mutation`, `lock-order`, `float-accum-order`) with the
//! same escape hatch. See `DESIGN.md` §10.

pub mod effects;
pub mod model;
pub mod rules;
pub mod scan;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use model::{has_token, is_ident_char};
use scan::Scanned;

pub use rules::{
    analyze_paths, analyze_sources, analyze_workspace, explain, AnalysisFinding, AnalysisReport,
    Severity, ANALYZE_CRATES, ANALYZE_RULES,
};

/// Every rule the linter knows, in reporting order.
pub const RULES: &[&str] = &[
    "no-std-hashmap",
    "no-wallclock",
    "no-extern-rand",
    "no-env-read",
    "no-unwrap",
    "pub-docs",
    "no-debug-print",
    "no-dup-metric-name",
    "no-shared-mut-in-local-phase",
    "tagged-todo",
    "malformed-allow",
];

/// Crates whose library code gets the determinism + robustness rules.
pub const STRICT_CRATES: &[&str] = &["sim", "core", "power", "obs"];

/// Crates whose public library items must carry doc comments.
pub const DOCS_CRATES: &[&str] = &["sim", "core", "obs"];

/// Banned tokens for the determinism and robustness rules, with the
/// message shown when one fires. Matching is token-boundary aware on the
/// comment-and-string-stripped code view.
const BANNED: &[(&str, &str, &str)] = &[
    (
        "no-std-hashmap",
        "HashMap",
        "hash-map iteration order is seeded per process; use BTreeMap",
    ),
    (
        "no-std-hashmap",
        "HashSet",
        "hash-set iteration order is seeded per process; use BTreeSet",
    ),
    (
        "no-wallclock",
        "Instant::now",
        "wall-clock reads make replay nondeterministic; use simulated Femtos time",
    ),
    (
        "no-wallclock",
        "SystemTime",
        "wall-clock reads make replay nondeterministic; use simulated Femtos time",
    ),
    (
        "no-extern-rand",
        "thread_rng",
        "ambient randomness breaks replay; use equalizer_sim::util::SplitMix64",
    ),
    (
        "no-extern-rand",
        "rand::",
        "the rand crate is banned; use equalizer_sim::util::SplitMix64",
    ),
    (
        "no-extern-rand",
        "use rand",
        "the rand crate is banned; use equalizer_sim::util::SplitMix64",
    ),
    (
        "no-env-read",
        "std::env",
        "environment reads make runs machine-dependent; thread configuration through SimConfig",
    ),
    (
        "no-env-read",
        "env::var",
        "environment reads make runs machine-dependent; thread configuration through SimConfig",
    ),
    (
        "no-unwrap",
        ".unwrap()",
        "library code must not panic on bad input; return a Result or handle the None arm",
    ),
    (
        "no-unwrap",
        ".expect(",
        "library code must not panic on bad input; return a Result or handle the None arm",
    ),
    (
        "no-unwrap",
        "panic!",
        "library code must not panic; return a Result (assert!/validate_assert! are the sanctioned checks)",
    ),
    (
        "no-debug-print",
        "dbg!",
        "debug printing does not belong in library code",
    ),
    (
        "no-debug-print",
        "println!",
        "stdout printing belongs in binaries, not library code",
    ),
    (
        "no-debug-print",
        "print!",
        "stdout printing belongs in binaries, not library code",
    ),
];

/// What part of a crate a file belongs to, which decides rule coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeKind {
    /// `src/` code compiled into the library target.
    Lib,
    /// `src/main.rs`, `src/bin/`, `build.rs` — binary/build code.
    Bin,
    /// `tests/`, `benches/`, `examples/` — test-only code.
    Test,
}

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy)]
pub struct FileContext {
    /// Determinism + robustness rules apply (sim/core/power lib code).
    pub strict: bool,
    /// `pub-docs` applies (sim/core lib code).
    pub docs_required: bool,
    /// Library, binary or test code.
    pub kind: CodeKind,
}

impl FileContext {
    /// The harshest profile — used for explicitly named paths such as
    /// the lint fixtures, so every rule is exercised.
    pub fn strictest() -> Self {
        Self {
            strict: true,
            docs_required: true,
            kind: CodeKind::Lib,
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// File the violation is in (workspace-relative when walking).
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// One violation silenced by a well-formed `lint: allow` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule that would have fired.
    pub rule: &'static str,
    /// File containing the directive.
    pub file: PathBuf,
    /// 1-indexed line of the silenced violation.
    pub line: usize,
    /// The justification given after `--`.
    pub reason: String,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, in file/line order.
    pub findings: Vec<Finding>,
    /// Violations silenced by escape hatches, for the summary.
    pub suppressed: Vec<Suppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when no findings survived (suppressions do not count
    /// against cleanliness — they are reported, not fatal).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn absorb(&mut self, mut other: Report) {
        self.findings.append(&mut other.findings);
        self.suppressed.append(&mut other.suppressed);
        self.files_scanned += other.files_scanned;
    }
}

/// The registry entry points whose first string-literal argument is a
/// metric name, for `no-dup-metric-name`.
const METRIC_REGISTRATION_FNS: &[&str] =
    &["register_counter", "register_gauge", "register_histogram"];

/// Direct string-literal metric names passed to registration calls
/// (`register_counter("…")` and friends), as `(1-indexed line, name)`
/// pairs in source order.
///
/// This works on the *raw* source, not the scanner's code view — the
/// scanner blanks string-literal contents, which is exactly the part
/// this rule needs. A tiny state machine skips comments (including doc
/// comments, so doctest code never counts) and pairs each registration
/// identifier with the next string literal, tolerating whitespace and
/// line breaks in between; names built with `format!` or passed through
/// variables are invisible by design.
pub fn metric_name_literals(source: &str) -> Vec<(usize, String)> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let mut expect_name = false;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            b'"' => {
                let lit_line = line;
                i += 1;
                let mut name = String::new();
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        name.push(bytes[i] as char);
                        i += 1;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    name.push(bytes[i] as char);
                    i += 1;
                }
                i += 1;
                if expect_name {
                    out.push((lit_line, name));
                    expect_name = false;
                }
            }
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                expect_name = METRIC_REGISTRATION_FNS.contains(&&source[start..i]);
            }
            // Punctuation between the identifier and its name argument
            // (the call's `(`, whitespace) keeps the pairing alive;
            // anything else — `format!`'s `!`, a variable argument's
            // `,` — breaks it.
            b'(' | b' ' | b'\t' | b'\r' => i += 1,
            _ => {
                expect_name = false;
                i += 1;
            }
        }
    }
    out
}

/// Checks a to-do marker for an issue tag: the keyword must be followed
/// by `(<non-empty>)`.
fn todo_is_tagged(comment: &str, at: usize, keyword_len: usize) -> bool {
    let rest = comment[at + keyword_len..].trim_start();
    let Some(tail) = rest.strip_prefix('(') else {
        return false;
    };
    match tail.find(')') {
        Some(close) => !tail[..close].trim().is_empty(),
        None => false,
    }
}

fn untagged_todo(comment: &str) -> Option<&'static str> {
    for keyword in ["TODO", "FIXME"] {
        let mut start = 0;
        while let Some(pos) = comment[start..].find(keyword) {
            let at = start + pos;
            let pre_ok = !comment[..at].chars().next_back().is_some_and(is_ident_char);
            let post = comment[at + keyword.len()..].chars().next();
            let post_ok = !post.is_some_and(is_ident_char);
            if pre_ok && post_ok && !todo_is_tagged(comment, at, keyword.len()) {
                return Some(keyword);
            }
            start = at + keyword.len();
        }
    }
    None
}

/// The item keyword of a `pub` declaration needing docs, if any.
fn pub_item_keyword(code: &str) -> Option<&'static str> {
    let t = code.trim_start();
    // Restricted visibility (`pub(crate)` etc.) is not public API.
    let rest = t.strip_prefix("pub ")?;
    for word in rest.split_whitespace().take(4) {
        match word {
            // Out-of-line `pub mod x;` and re-exports carry their docs
            // elsewhere (module header / original item).
            "use" | "mod" => return None,
            "fn" => return Some("fn"),
            "struct" => return Some("struct"),
            "enum" => return Some("enum"),
            "trait" => return Some("trait"),
            "type" => return Some("type"),
            "const" => return Some("const"),
            "static" => return Some("static"),
            "union" => return Some("union"),
            "unsafe" | "async" | "extern" | "\"C\"" => continue,
            // A struct field or anything else.
            _ => return None,
        }
    }
    None
}

/// Walks upward from the item line looking for an adjacent doc comment,
/// skipping attribute lines and regular comments.
fn has_doc_above(scanned: &Scanned, item_idx: usize) -> bool {
    let mut j = item_idx;
    while j > 0 {
        j -= 1;
        let prev = &scanned.lines[j];
        if prev.is_doc {
            return true;
        }
        let code = prev.code.trim();
        let comment_only = code.is_empty() && !prev.comment.trim().is_empty();
        let attribute = code.starts_with("#[") || code.starts_with("#!") || code.ends_with(")]");
        if comment_only || attribute {
            continue;
        }
        return false;
    }
    false
}

/// The root of the local phase: every function reachable from a
/// definition with this name must leave shared state to the commit.
const LOCAL_PHASE_ROOT: &str = "cycle_local";

/// Types shared across SMs that may only be mutated during the serial
/// commit phase.
const LOCAL_PHASE_SHARED: &[&str] = &["MemSystem", "Gwde"];

/// The shared type named by a `&mut` parameter in `params`, if any.
/// Built on [`model::mut_ref_param_types`], so `&mut self` and shared
/// references (`&MemSystem`) never match.
fn shared_mut_param(params: &str) -> Option<&'static str> {
    for ty in model::mut_ref_param_types(params) {
        for &shared in LOCAL_PHASE_SHARED {
            if has_token(&ty, shared) {
                return Some(shared);
            }
        }
    }
    None
}

/// Cross-file `no-shared-mut-in-local-phase` pass: `sources` form one
/// call-graph universe, and every function reachable from a
/// [`LOCAL_PHASE_ROOT`] definition that takes a [`LOCAL_PHASE_SHARED`]
/// type by `&mut` is a finding (anchored at its definition line).
///
/// Reachability runs over the [`model::Model`] call graph, which sees
/// `Self::f(..)`, UFCS `Type::f(..)`, turbofish calls, bare `Path::f`
/// references and calls inside closures. It is name-merged — same-named
/// methods across types become one node — which is conservative in the
/// right direction for a lint. Suppressions are not applied here;
/// callers check `allow_for` against the flagged file.
pub fn local_phase_violations(sources: &[(PathBuf, String)]) -> Vec<Finding> {
    local_phase_from_model(&model::Model::from_sources(sources))
}

/// The model-based body of [`local_phase_violations`], shared with the
/// single-scan workspace driver.
fn local_phase_from_model(model: &model::Model) -> Vec<Finding> {
    if !model.defines(LOCAL_PHASE_ROOT) {
        return Vec::new();
    }
    let reachable = model.reachable_defs(&[LOCAL_PHASE_ROOT]);
    let mut findings: Vec<Finding> = Vec::new();
    for (idx, def) in model.defs.iter().enumerate() {
        if !reachable.contains(&idx) {
            continue;
        }
        if let Some(shared) = shared_mut_param(&def.params) {
            findings.push(Finding {
                rule: "no-shared-mut-in-local-phase",
                file: model.files[def.file].clone(),
                line: def.line,
                message: format!(
                    "`{}` takes `&mut {shared}` but is reachable from `{LOCAL_PHASE_ROOT}`; \
                     shared structures may only be mutated in the serial commit phase",
                    def.name
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// One file of a lint run, read and scanned exactly once and shared by
/// every per-file and cross-file pass.
struct FileEntry {
    rel: PathBuf,
    source: String,
    ctx: FileContext,
    scanned: Scanned,
}

/// Folds cross-file findings into `report`, honouring `lint: allow`
/// directives in the flagged files (using their already-built scans).
fn absorb_cross_file(report: &mut Report, findings: Vec<Finding>, entries: &[FileEntry]) {
    for finding in findings {
        let allow = entries
            .iter()
            .find(|e| e.rel == finding.file)
            .and_then(|e| e.scanned.allow_for(finding.rule, finding.line))
            .map(|a| a.reason.clone());
        match allow {
            Some(reason) => report.suppressed.push(Suppression {
                rule: finding.rule,
                file: finding.file,
                line: finding.line,
                reason,
            }),
            None => report.findings.push(finding),
        }
    }
}

/// Lints one file's source under the given context. `file` is only used
/// to label findings.
pub fn lint_source(file: &Path, source: &str, ctx: FileContext) -> Report {
    let scanned = scan::scan(source);
    lint_scanned(file, source, &scanned, ctx)
}

/// The per-file lint body over an already-built scan, so workspace
/// walks scan each file exactly once.
fn lint_scanned(file: &Path, source: &str, scanned: &Scanned, ctx: FileContext) -> Report {
    let mut report = Report {
        files_scanned: 1,
        ..Report::default()
    };

    // Escape-hatch hygiene first: malformed directives and typo'd rule
    // names are findings themselves and never suppress anything.
    for allow in &scanned.allows {
        if allow.malformed {
            report.findings.push(Finding {
                rule: "malformed-allow",
                file: file.to_path_buf(),
                line: allow.line,
                message: "allow directive needs `allow(<rules>) -- <reason>` with both parts"
                    .to_string(),
            });
            continue;
        }
        for rule in &allow.rules {
            if !RULES.contains(&rule.as_str()) && !ANALYZE_RULES.contains(&rule.as_str()) {
                report.findings.push(Finding {
                    rule: "malformed-allow",
                    file: file.to_path_buf(),
                    line: allow.line,
                    message: format!("allow directive names unknown rule `{rule}`"),
                });
            }
        }
    }

    let mut candidates: Vec<(usize, &'static str, String)> = Vec::new();
    for (idx, line) in scanned.lines.iter().enumerate() {
        let ln = idx + 1;

        // Hygiene: to-do markers need tags everywhere, even in tests.
        if let Some(keyword) = untagged_todo(&line.comment) {
            candidates.push((
                ln,
                "tagged-todo",
                format!("{keyword} needs an issue tag, e.g. `{keyword}(#123): ...`"),
            ));
        }

        if line.in_test || ctx.kind == CodeKind::Test {
            continue;
        }

        for &(rule, token, message) in BANNED {
            let applies = match rule {
                "no-debug-print" => ctx.kind == CodeKind::Lib,
                _ => ctx.strict && ctx.kind == CodeKind::Lib,
            };
            if applies && has_token(&line.code, token) {
                candidates.push((ln, rule, format!("`{token}`: {message}")));
            }
        }

        if ctx.docs_required && ctx.kind == CodeKind::Lib {
            if let Some(keyword) = pub_item_keyword(&line.code) {
                if !has_doc_above(scanned, idx) {
                    candidates.push((
                        ln,
                        "pub-docs",
                        format!("public `{keyword}` is missing a `///` doc comment"),
                    ));
                }
            }
        }
    }

    // Duplicate metric-name registrations: every name literal may be
    // registered once per file; the registry rejects duplicates at run
    // time, and this catches them at lint time. Test regions are exempt
    // (they register throwaway names deliberately).
    if ctx.strict && ctx.kind == CodeKind::Lib {
        let mut first_seen: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for (ln, name) in metric_name_literals(source) {
            let in_test = scanned.lines.get(ln - 1).is_some_and(|l| l.in_test);
            if in_test {
                continue;
            }
            match first_seen.get(&name) {
                Some(&first) => candidates.push((
                    ln,
                    "no-dup-metric-name",
                    format!("metric name \"{name}\" is already registered at line {first}"),
                )),
                None => {
                    first_seen.insert(name, ln);
                }
            }
        }
    }

    // One finding per (rule, line) even when several tokens match.
    candidates.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    candidates.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    for (ln, rule, message) in candidates {
        if let Some(allow) = scanned.allow_for(rule, ln) {
            report.suppressed.push(Suppression {
                rule,
                file: file.to_path_buf(),
                line: ln,
                reason: allow.reason.clone(),
            });
        } else {
            report.findings.push(Finding {
                rule,
                file: file.to_path_buf(),
                line: ln,
                message,
            });
        }
    }
    report
}

/// Classifies a workspace-relative path into its rule coverage.
pub fn classify(rel: &Path) -> FileContext {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    let (crate_name, rest) = if comps.len() >= 3 && comps[0] == "crates" {
        (comps[1], &comps[2..])
    } else {
        // The root umbrella package.
        ("", &comps[..])
    };
    let kind = match rest.first().copied() {
        Some("src") => {
            // Only the crate-root `src/main.rs` and the `src/bin/` tree
            // are binary targets. Anything else under `src/` — including
            // nested module directories like `src/sm/issue.rs` — compiles
            // into the library and keeps the strict rules.
            if rest[1..] == ["main.rs"] || rest.get(1).copied() == Some("bin") {
                CodeKind::Bin
            } else {
                CodeKind::Lib
            }
        }
        Some("tests") | Some("benches") | Some("examples") => CodeKind::Test,
        // build.rs and anything else unrecognised: treat as binary code
        // (hygiene rules only).
        _ => CodeKind::Bin,
    };
    // The harness is not globally strict (figure sweeps legitimately
    // use wall clocks and std hash maps), but its memoization layer is —
    // the result store every `Runner` uses: a wall-clock read feeding
    // `result_key`, or an iteration-order-dependent map in the cache,
    // would silently break result memoization. The banned-token rules
    // enforce that.
    let memo_layer = crate_name == "harness" && rest[..] == ["src", "store.rs"];
    FileContext {
        strict: STRICT_CRATES.contains(&crate_name) || memo_layer,
        docs_required: DOCS_CRATES.contains(&crate_name) || memo_layer,
        kind,
    }
}

pub(crate) fn collect_rs_files(
    dir: &Path,
    skip_special: bool,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            let skipped =
                name.starts_with('.') || (skip_special && (name == "target" || name == "fixtures"));
            if !skipped {
                collect_rs_files(&path, skip_special, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file in the workspace rooted at `root`, applying
/// per-crate rule coverage. Skips `target/`, dot-directories and the
/// lint fixtures.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, true, &mut files)?;
    files.sort();
    // Read and scan every file exactly once; each pass below reuses the
    // shared scans instead of re-reading per rule.
    let mut entries: Vec<FileEntry> = Vec::with_capacity(files.len());
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let source = fs::read_to_string(&path)?;
        let ctx = classify(&rel);
        let scanned = scan::scan(&source);
        entries.push(FileEntry {
            rel,
            source,
            ctx,
            scanned,
        });
    }

    let mut report = Report::default();
    // (crate name, metric name) -> first registration site, for the
    // cross-file half of `no-dup-metric-name`. Within-file duplicates
    // are found by `lint_source`; this pass only reports a name whose
    // first registration lives in a *different* file of the same crate.
    let mut metric_sites: std::collections::BTreeMap<(String, String), (PathBuf, usize)> =
        std::collections::BTreeMap::new();
    // Library code views of `crates/sim/src`, for the cross-file
    // call-graph half of `no-shared-mut-in-local-phase`.
    let mut sim_views: Vec<(PathBuf, String)> = Vec::new();
    for e in &entries {
        report.absorb(lint_scanned(&e.rel, &e.source, &e.scanned, e.ctx));

        if e.ctx.kind == CodeKind::Lib && e.rel.starts_with("crates/sim/src") {
            sim_views.push((e.rel.clone(), model::code_view(&e.scanned)));
        }

        if e.ctx.strict && e.ctx.kind == CodeKind::Lib {
            let crate_name = e
                .rel
                .components()
                .nth(1)
                .and_then(|c| c.as_os_str().to_str())
                .unwrap_or("")
                .to_string();
            for (ln, name) in metric_name_literals(&e.source) {
                if e.scanned.lines.get(ln - 1).is_some_and(|l| l.in_test) {
                    continue;
                }
                match metric_sites.get(&(crate_name.clone(), name.clone())) {
                    Some((first_file, first_line)) if *first_file != e.rel => {
                        let message = format!(
                            "metric name \"{name}\" is already registered in {}:{first_line}",
                            first_file.display()
                        );
                        if let Some(allow) = e.scanned.allow_for("no-dup-metric-name", ln) {
                            report.suppressed.push(Suppression {
                                rule: "no-dup-metric-name",
                                file: e.rel.clone(),
                                line: ln,
                                reason: allow.reason.clone(),
                            });
                        } else {
                            report.findings.push(Finding {
                                rule: "no-dup-metric-name",
                                file: e.rel.clone(),
                                line: ln,
                                message,
                            });
                        }
                    }
                    Some(_) => {}
                    None => {
                        metric_sites
                            .insert((crate_name.clone(), name.clone()), (e.rel.clone(), ln));
                    }
                }
            }
        }
    }
    let sim_model = model::Model::from_views(&sim_views);
    let violations = local_phase_from_model(&sim_model);
    absorb_cross_file(&mut report, violations, &entries);
    Ok(report)
}

/// Lints explicitly named files or directories under the strictest
/// profile (every rule applies). This is how the fixtures are checked.
/// The whole file set forms one call-graph universe for
/// `no-shared-mut-in-local-phase`.
pub fn lint_paths(paths: &[PathBuf]) -> io::Result<Report> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(path, false, &mut files)?;
        } else {
            files.push(path.clone());
        }
    }
    files.sort();
    let mut entries: Vec<FileEntry> = Vec::with_capacity(files.len());
    for path in files {
        let source = fs::read_to_string(&path)?;
        let scanned = scan::scan(&source);
        entries.push(FileEntry {
            rel: path,
            source,
            ctx: FileContext::strictest(),
            scanned,
        });
    }
    let mut report = Report::default();
    for e in &entries {
        report.absorb(lint_scanned(&e.rel, &e.source, &e.scanned, e.ctx));
    }
    let views: Vec<(PathBuf, String)> = entries
        .iter()
        .map(|e| (e.rel.clone(), model::code_view(&e.scanned)))
        .collect();
    let m = model::Model::from_views(&views);
    absorb_cross_file(&mut report, local_phase_from_model(&m), &entries);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(source: &str, ctx: FileContext) -> Report {
        lint_source(Path::new("test.rs"), source, ctx)
    }

    fn rules_fired(report: &Report) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hashmap_fires_in_strict_lib_code() {
        let r = lint_str("use std::collections::HashMap;", FileContext::strictest());
        assert_eq!(rules_fired(&r), vec!["no-std-hashmap"]);
    }

    #[test]
    fn hashmap_in_string_or_comment_is_fine() {
        let r = lint_str(
            "// HashMap is banned\nlet s = \"HashMap\";",
            FileContext::strictest(),
        );
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn hashmap_ignored_outside_strict_crates() {
        let ctx = FileContext {
            strict: false,
            docs_required: false,
            kind: CodeKind::Lib,
        };
        let r = lint_str("use std::collections::HashMap;", ctx);
        assert!(r.is_clean());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let r = lint_str(src, FileContext::strictest());
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn unwrap_and_expect_fire() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.expect(\"gone\") }\n";
        let r = lint_str(src, FileContext::strictest());
        assert_eq!(rules_fired(&r), vec!["no-unwrap", "no-unwrap"]);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let r = lint_str(
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }",
            FileContext::strictest(),
        );
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn operand_is_not_rand() {
        let r = lint_str("let operand::Kind { .. } = k;", FileContext::strictest());
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn allow_suppresses_and_is_counted() {
        let src = "// lint: allow(no-unwrap) -- input validated above\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = lint_str(src, FileContext::strictest());
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, "no-unwrap");
        assert_eq!(r.suppressed[0].reason, "input validated above");
    }

    #[test]
    fn allow_without_reason_is_malformed_and_inert() {
        let src = "// lint: allow(no-unwrap)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = lint_str(src, FileContext::strictest());
        let mut rules = rules_fired(&r);
        rules.sort_unstable();
        assert_eq!(rules, vec!["malformed-allow", "no-unwrap"]);
    }

    #[test]
    fn allow_with_unknown_rule_is_flagged() {
        let src = "// lint: allow(no-unicorns) -- oops\nlet x = 1;\n";
        let r = lint_str(src, FileContext::strictest());
        assert_eq!(rules_fired(&r), vec!["malformed-allow"]);
    }

    #[test]
    fn pub_docs_requires_doc_comment() {
        let src = "pub fn naked() {}\n\n/// Documented.\npub fn dressed() {}\n";
        let r = lint_str(src, FileContext::strictest());
        assert_eq!(rules_fired(&r), vec!["pub-docs"]);
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn pub_docs_sees_through_attributes() {
        let src = "/// Documented.\n#[derive(Debug, Clone)]\npub struct S;\n";
        let r = lint_str(src, FileContext::strictest());
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn pub_use_and_fields_are_not_items() {
        let src =
            "/// Docs.\npub struct S {\n    pub field: u32,\n}\npub use std::cmp::Ordering;\n";
        let r = lint_str(src, FileContext::strictest());
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn todo_needs_tag_even_in_tests() {
        let ctx = FileContext {
            strict: false,
            docs_required: false,
            kind: CodeKind::Test,
        };
        let r = lint_str("// TODO: someday\n// TODO(#5): tracked\n", ctx);
        assert_eq!(rules_fired(&r), vec!["tagged-todo"]);
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn debug_print_fires_in_any_lib_code() {
        let ctx = FileContext {
            strict: false,
            docs_required: false,
            kind: CodeKind::Lib,
        };
        let r = lint_str("fn f() { println!(\"hi\"); }", ctx);
        assert_eq!(rules_fired(&r), vec!["no-debug-print"]);
    }

    #[test]
    fn debug_print_ignored_in_bin_code() {
        let ctx = FileContext {
            strict: false,
            docs_required: false,
            kind: CodeKind::Bin,
        };
        let r = lint_str("fn main() { println!(\"hi\"); }", ctx);
        assert!(r.is_clean());
    }

    #[test]
    fn duplicate_metric_names_fire_in_strict_lib_code() {
        let src = "fn f(r: &mut R) {\n    r.register_counter(\"a.b\", \"x\");\n    r.register_gauge(\"a.b\", \"x\");\n}\n";
        let r = lint_str(src, FileContext::strictest());
        assert_eq!(rules_fired(&r), vec!["no-dup-metric-name"]);
        assert_eq!(r.findings[0].line, 3);
    }

    #[test]
    fn metric_names_in_tests_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(r: &mut R) {\n        r.register_gauge(\"dup\", \"x\");\n        r.register_gauge(\"dup\", \"x\");\n    }\n}\n";
        let r = lint_str(src, FileContext::strictest());
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn computed_metric_names_are_invisible() {
        let src = "fn f(r: &mut R, i: usize) {\n    r.register_gauge(format!(\"sm{i}.x\"), \"x\");\n    r.register_gauge(format!(\"sm{i}.x\"), \"x\");\n}\n";
        let r = lint_str(src, FileContext::strictest());
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn metric_literal_scanner_pairs_across_lines_and_skips_comments() {
        let src = "fn f() {\n    // register_gauge(\"commented.out\", \"x\")\n    r.register_histogram(\n        \"h.name\",\n        \"unit\",\n    );\n}\n";
        let lits = metric_name_literals(src);
        assert_eq!(lits, vec![(4, "h.name".to_string())]);
    }

    #[test]
    fn dup_metric_allow_suppresses() {
        let src = "fn f(r: &mut R) {\n    r.register_gauge(\"a\", \"x\");\n    // lint: allow(no-dup-metric-name) -- alias kept for compatibility\n    r.register_gauge(\"a\", \"x\");\n}\n";
        let r = lint_str(src, FileContext::strictest());
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, "no-dup-metric-name");
    }

    /// Runs the call-graph pass over in-memory files and returns
    /// `(file, line)` pairs of its findings.
    fn local_phase(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        let sources: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), (*s).to_string()))
            .collect();
        local_phase_violations(&sources)
            .into_iter()
            .map(|f| (f.file.display().to_string(), f.line))
            .collect()
    }

    #[test]
    fn local_phase_flags_reachable_shared_mut() {
        let src = "\
struct MemSystem;
fn cycle_local(x: u32) {
    stage(x);
}
fn stage(x: u32) {
    let mut mem = MemSystem;
    push_back(x, &mut mem);
}
fn push_back(_x: u32, _mem: &mut MemSystem) {}
fn commit_only(_mem: &mut MemSystem) {}
";
        // `push_back` is two hops from the root; `commit_only` has the
        // same signature but is unreachable, so only line 9 fires.
        assert_eq!(local_phase(&[("a.rs", src)]), vec![("a.rs".to_string(), 9)]);
    }

    #[test]
    fn local_phase_reaches_across_files() {
        let a = "fn cycle_local() {\n    remote_stage();\n}\n";
        let b = "\
struct Gwde;
fn remote_stage() {
    let mut g = Gwde;
    grab(&mut g);
}
fn grab(_g: &mut Gwde) {}
";
        assert_eq!(
            local_phase(&[("a.rs", a), ("b.rs", b)]),
            vec![("b.rs".to_string(), 6)]
        );
    }

    #[test]
    fn local_phase_allows_shared_refs_and_mut_self() {
        let src = "\
struct MemSystem;
impl S {
    fn cycle_local(&mut self, mem: &MemSystem) {
        self.observe(mem);
    }
    fn observe(&mut self, _mem: &MemSystem) {}
}
";
        assert_eq!(local_phase(&[("a.rs", src)]), Vec::new());
    }

    #[test]
    fn local_phase_is_inert_without_a_root() {
        let src = "struct MemSystem;\nfn fill(_m: &mut MemSystem) {}\n";
        assert_eq!(local_phase(&[("a.rs", src)]), Vec::new());
    }

    #[test]
    fn local_phase_skips_test_regions() {
        let src = "\
struct MemSystem;
fn fill(_m: &mut MemSystem) {}
#[cfg(test)]
mod tests {
    fn cycle_local() {
        fill();
    }
}
";
        assert_eq!(local_phase(&[("a.rs", src)]), Vec::new());
    }

    #[test]
    fn local_phase_handles_generic_signatures() {
        let src = "\
struct Gwde;
fn cycle_local<F: Fn() -> u32>(f: F) -> Vec<u32> {
    let mut g = Gwde;
    route(f(), &mut g)
}
fn route(_x: u32, _g: &mut Gwde) -> Vec<u32> {
    Vec::new()
}
";
        assert_eq!(local_phase(&[("a.rs", src)]), vec![("a.rs".to_string(), 6)]);
    }

    #[test]
    fn classify_maps_crates_and_kinds() {
        let sim = classify(Path::new("crates/sim/src/sm.rs"));
        assert!(sim.strict && sim.docs_required);
        assert_eq!(sim.kind, CodeKind::Lib);

        let power = classify(Path::new("crates/power/src/model.rs"));
        assert!(power.strict && !power.docs_required);

        let bench = classify(Path::new("crates/bench/benches/fig01_sweeps.rs"));
        assert!(!bench.strict);
        assert_eq!(bench.kind, CodeKind::Test);

        let bin = classify(Path::new("crates/harness/src/main.rs"));
        assert_eq!(bin.kind, CodeKind::Bin);

        let root_test = classify(Path::new("tests/determinism.rs"));
        assert!(!root_test.strict);
        assert_eq!(root_test.kind, CodeKind::Test);
    }

    #[test]
    fn classify_keeps_nested_module_dirs_strict() {
        for path in [
            "crates/sim/src/sm/mod.rs",
            "crates/sim/src/sm/issue.rs",
            "crates/sim/src/sm/exec.rs",
            "crates/sim/src/sm/blocks.rs",
        ] {
            let ctx = classify(Path::new(path));
            assert_eq!(ctx.kind, CodeKind::Lib, "{path} is library code");
            assert!(ctx.strict && ctx.docs_required, "{path} keeps sim rules");
        }
    }

    #[test]
    fn classify_makes_the_harness_serve_layer_strict() {
        // The harness is lax in general (figure sweeps may use wall
        // clocks and std hash maps)…
        let sweep = classify(Path::new("crates/harness/src/experiment.rs"));
        assert!(!sweep.strict && !sweep.docs_required);
        // …but the layer that serves memoized results, the store module,
        // carries the determinism rules: no wall-clock read can feed
        // `result_key`, no hash map can order cache eviction.
        let store = classify(Path::new("crates/harness/src/store.rs"));
        assert_eq!(store.kind, CodeKind::Lib);
        assert!(store.strict && store.docs_required);
        // The harness binaries stay Bin (hygiene rules only).
        for path in [
            "crates/harness/src/bin/sim_report.rs",
            "crates/harness/src/bin/sim_ffcheck.rs",
        ] {
            let ctx = classify(Path::new(path));
            assert_eq!(ctx.kind, CodeKind::Bin, "{path} is a binary");
            assert!(!ctx.strict, "{path} is lax");
        }
    }

    #[test]
    fn classify_makes_the_harness_result_store_strict() {
        // The store every Runner memoizes through is strict.
        let ctx = classify(Path::new("crates/harness/src/store.rs"));
        assert_eq!(ctx.kind, CodeKind::Lib);
        assert!(ctx.strict && ctx.docs_required);
        // Only that file: a sibling whose name merely starts alike, or a
        // store.rs elsewhere in the harness, stays lax.
        for path in [
            "crates/harness/src/store_tools.rs",
            "crates/harness/tests/store.rs",
        ] {
            let ctx = classify(Path::new(path));
            assert!(!ctx.strict && !ctx.docs_required, "{path} is lax");
        }
    }

    #[test]
    fn classify_limits_bin_to_main_and_bin_tree() {
        assert_eq!(
            classify(Path::new("crates/bench/src/bin/fig_tool.rs")).kind,
            CodeKind::Bin
        );
        assert_eq!(
            classify(Path::new("crates/harness/src/main.rs")).kind,
            CodeKind::Bin
        );
        // A module directory that merely *contains* a segment named `bin`
        // deeper than src/bin, or a nested main.rs, is still library code.
        assert_eq!(
            classify(Path::new("crates/sim/src/engine/bin_packing.rs")).kind,
            CodeKind::Lib
        );
        assert_eq!(
            classify(Path::new("crates/sim/src/sm/main.rs")).kind,
            CodeKind::Lib
        );
    }
}
