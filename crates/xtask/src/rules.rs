//! The effect-analysis rules built on [`crate::model`] and
//! [`crate::effects`]: phase-discipline checks that *prove* the
//! two-phase cycle contract instead of pattern-matching signatures.
//!
//! | rule                   | severity | what it flags |
//! |------------------------|----------|---------------|
//! | `local-phase-purity`   | error    | impure effects (shared writes, interior mutability, rng, time, io, unordered iteration) on any fn reachable from `cycle_local` |
//! | `commit-only-mutation` | error    | a `SharedWrite` effect on a fn outside the `commit`/`cycle` call tree |
//! | `lock-order`           | error    | a `Mutex`/`RwLock` (or any `.lock()` acquisition) reachable from the SM stepping hot path |
//! | `float-accum-order`    | warning  | a float reduction in a fn that also iterates an unordered container |
//!
//! Findings honor the same `// lint: allow(<rule>) -- reason` escape
//! hatch as the token linter, anchored at the flagged line.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::effects::{self, Effect, EffectSet};
use crate::model::{self, FnDef, Model};
use crate::scan::{self, Scanned};
use crate::{classify, collect_rs_files, CodeKind, Suppression};

/// Every analyze rule, in reporting order.
pub const ANALYZE_RULES: &[&str] = &[
    "local-phase-purity",
    "commit-only-mutation",
    "lock-order",
    "float-accum-order",
];

/// Crates whose library code forms the analysis universe. The harness
/// is included for its serving layer: the lock-order rule must see the
/// server's mutex/condvar usage to prove no lock is reachable from the
/// simulator's stepping hot path.
pub const ANALYZE_CRATES: &[&str] = &["sim", "core", "power", "baselines", "obs", "harness"];

/// How bad a finding is: errors gate CI, warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails `cargo xtask analyze` and `cargo xtask ci`.
    Error,
    /// Reported but never fatal.
    Warning,
}

impl Severity {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct AnalysisFinding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// File the finding is in (workspace-relative when walking).
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: usize,
    /// The function the finding is about, `Type::name`-qualified.
    pub function: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for AnalysisFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: `{}` {}",
            self.file.display(),
            self.line,
            self.rule,
            self.severity.label(),
            self.function,
            self.message
        )
    }
}

/// The outcome of an analyze run.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// Findings, in file/line order.
    pub findings: Vec<AnalysisFinding>,
    /// Findings silenced by `lint: allow` escape hatches.
    pub suppressed: Vec<Suppression>,
    /// Number of `.rs` files in the analysis universe.
    pub files_scanned: usize,
}

impl AnalysisReport {
    /// True when no *error* finding survived — warnings and
    /// suppressions are reported, not fatal.
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// The report as a small JSON document for machine consumers.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!("\"clean\":{},", self.is_clean()));
        out.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"severity\":{},\"file\":{},\"line\":{},\"function\":{},\"message\":{}}}",
                json_str(f.rule),
                json_str(f.severity.label()),
                json_str(&f.file.display().to_string()),
                f.line,
                json_str(&f.function),
                json_str(&f.message),
            ));
        }
        out.push_str("],\"suppressed\":[");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"reason\":{}}}",
                json_str(s.rule),
                json_str(&s.file.display().to_string()),
                s.line,
                json_str(&s.reason),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A JSON string literal with the minimal escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The local-phase root and the commit-phase roots of the two-phase
/// cycle contract.
const LOCAL_ROOT: &str = "cycle_local";
const COMMIT_ROOTS: &[&str] = &["commit", "cycle"];
/// Roots of the SM stepping hot path: the two cycle phases (and their
/// fused form) and the engine's per-tick stepper. `lock-order` walks
/// everything reachable from whichever of these the universe defines.
const HOT_PATH_ROOTS: &[&str] = &["cycle_local", "commit", "cycle", "step_running"];

/// Effects that make a local-phase function impure. `FloatAccum` alone
/// is excluded: an ordered float reduction is deterministic, and the
/// unordered case is covered by `float-accum-order`.
fn impure_for_local_phase() -> EffectSet {
    let mut s = EffectSet::shared_writes();
    s.insert(Effect::InteriorMut);
    s.insert(Effect::Rng);
    s.insert(Effect::Time);
    s.insert(Effect::Io);
    s.insert(Effect::UnorderedIter);
    s
}

/// `local-phase-purity`: every function reachable from a `cycle_local`
/// definition must be free of impure intrinsic effects. Findings
/// anchor at the offending definition, where the effect originates.
fn rule_local_phase_purity(
    model: &Model,
    intrinsic: &[EffectSet],
    notes: &[Vec<effects::Evidence>],
    out: &mut Vec<AnalysisFinding>,
) {
    if !model.defines(LOCAL_ROOT) {
        return;
    }
    let reach = model.reachable_defs(&[LOCAL_ROOT]);
    let impure = impure_for_local_phase();
    for (idx, def) in model.defs.iter().enumerate() {
        if !reach.contains(&idx) {
            continue;
        }
        let bad = EffectSet::iter(intrinsic[idx])
            .filter(|e| {
                let mut solo = EffectSet::EMPTY;
                solo.insert(*e);
                solo.intersects(impure)
            })
            .collect::<Vec<_>>();
        if bad.is_empty() {
            continue;
        }
        let detail = notes[idx]
            .iter()
            .find(|ev| bad.contains(&ev.effect))
            .map(|ev| format!(" ({} at line {})", ev.detail, ev.line))
            .unwrap_or_default();
        let names = bad.iter().map(|e| e.name()).collect::<Vec<_>>().join(", ");
        out.push(AnalysisFinding {
            rule: "local-phase-purity",
            severity: Severity::Error,
            file: model.files[def.file].clone(),
            line: def.line,
            function: def.display_name(),
            message: format!(
                "is reachable from `{LOCAL_ROOT}` but carries {names}{detail}; \
                 the local phase must not touch shared or ambient state"
            ),
        });
    }
}

/// `commit-only-mutation`: only the commit-phase call tree (everything
/// reachable from `commit`/`cycle`) may carry a `SharedWrite` effect.
/// Inert unless the universe defines both phases, so single-purpose
/// files don't misfire.
fn rule_commit_only_mutation(
    model: &Model,
    intrinsic: &[EffectSet],
    out: &mut Vec<AnalysisFinding>,
) {
    if !model.defines(LOCAL_ROOT) || !COMMIT_ROOTS.iter().any(|r| model.defines(r)) {
        return;
    }
    let sanctioned = model.reachable_defs(COMMIT_ROOTS);
    let shared = EffectSet::shared_writes();
    for (idx, def) in model.defs.iter().enumerate() {
        if !intrinsic[idx].intersects(shared) || sanctioned.contains(&idx) {
            continue;
        }
        let names = intrinsic[idx]
            .iter()
            .filter(|e| {
                let mut solo = EffectSet::EMPTY;
                solo.insert(*e);
                solo.intersects(shared)
            })
            .map(Effect::name)
            .collect::<Vec<_>>()
            .join(", ");
        out.push(AnalysisFinding {
            rule: "commit-only-mutation",
            severity: Severity::Error,
            file: model.files[def.file].clone(),
            line: def.line,
            function: def.display_name(),
            message: format!(
                "carries {names} but is not reachable from the commit phase \
                 (`commit`/`cycle`); shared structures may only be mutated there"
            ),
        });
    }
}

/// `lock-order`: "no locks on the SM hot path". The engine steps every
/// SM on one thread and shared mutation happens only in the commit
/// phase, so any `Mutex`/`RwLock` named (or `.lock()` acquired) in a
/// function reachable from a hot-path root is pure overhead and hides
/// shared state from the two-phase analysis. The walk is
/// transitive over the call graph, so a lock three helpers deep is
/// found.
fn rule_lock_order(model: &Model, out: &mut Vec<AnalysisFinding>) {
    let roots: Vec<&str> = HOT_PATH_ROOTS
        .iter()
        .copied()
        .filter(|r| model.defines(r))
        .collect();
    if roots.is_empty() {
        return;
    }
    let reach = model.reachable_defs(&roots);
    for (idx, def) in model.defs.iter().enumerate() {
        if !reach.contains(&idx) {
            continue;
        }
        scan_lock_body(def, model, out);
    }
}

/// Scans one hot-path function body for lock tokens: the `Mutex` /
/// `RwLock` type names and `.lock()` acquisitions. (`.locked…` /
/// `relock(...)`-style identifiers do not match; the same-line dedup in
/// `analyze_prepared` collapses a declaration and an acquisition that
/// share a line.)
fn scan_lock_body(def: &FnDef, model: &Model, out: &mut Vec<AnalysisFinding>) {
    let body = &def.body;
    let mut hits: Vec<(usize, &'static str)> = Vec::new();
    for ty in ["Mutex", "RwLock"] {
        for at in model::token_offsets(body, ty) {
            hits.push((at, ty));
        }
    }
    let mut search = 0usize;
    while let Some(pos) = body[search..].find(".lock") {
        let at = search + pos;
        search = at + 5;
        if body[search..].trim_start().starts_with('(') {
            hits.push((at, ".lock()"));
        }
    }
    hits.sort_by_key(|&(at, _)| at);
    for (at, what) in hits {
        let line = def.body_line + body[..at].chars().filter(|&ch| ch == '\n').count();
        out.push(AnalysisFinding {
            rule: "lock-order",
            severity: Severity::Error,
            file: model.files[def.file].clone(),
            line,
            function: def.display_name(),
            message: format!(
                "uses `{what}` on the SM stepping hot path; the engine steps \
                 every SM on one thread, so blocking locks are banned from \
                 everything reachable from \
                 `cycle_local`/`commit`/`cycle`/`step_running`"
            ),
        });
    }
}

/// `float-accum-order`: a float reduction inside a function that also
/// touches an unordered container is order-dependent — advisory, since
/// the scan cannot see *which* iterator feeds the fold.
fn rule_float_accum_order(
    model: &Model,
    intrinsic: &[EffectSet],
    notes: &[Vec<effects::Evidence>],
    out: &mut Vec<AnalysisFinding>,
) {
    for (idx, def) in model.defs.iter().enumerate() {
        if !(intrinsic[idx].contains(Effect::FloatAccum)
            && intrinsic[idx].contains(Effect::UnorderedIter))
        {
            continue;
        }
        let line = notes[idx]
            .iter()
            .find(|ev| ev.effect == Effect::FloatAccum)
            .map(|ev| ev.line)
            .unwrap_or(def.line);
        out.push(AnalysisFinding {
            rule: "float-accum-order",
            severity: Severity::Warning,
            file: model.files[def.file].clone(),
            line,
            function: def.display_name(),
            message: "reduces floats in a function that also iterates an unordered \
                      container; float addition is not associative, so the result \
                      depends on iteration order — sort the keys or use a BTreeMap"
                .to_string(),
        });
    }
}

/// Analyzes `sources` as one call-graph universe: scans each file once,
/// builds the model, infers and propagates effects, runs every rule,
/// and applies `lint: allow` escape hatches.
pub fn analyze_sources(sources: &[(PathBuf, String)]) -> AnalysisReport {
    let scanned: Vec<Scanned> = sources.iter().map(|(_, s)| scan::scan(s)).collect();
    let views: Vec<(PathBuf, String)> = sources
        .iter()
        .zip(&scanned)
        .map(|((p, _), sc)| (p.clone(), model::code_view(sc)))
        .collect();
    analyze_prepared(&views, &scanned)
}

/// The analyze pass over pre-scanned inputs — `views` are code views
/// paired positionally with their `scanned` files, so a caller that
/// already scanned (the single-scan lint driver) pays no second scan.
pub(crate) fn analyze_prepared(views: &[(PathBuf, String)], scanned: &[Scanned]) -> AnalysisReport {
    let model = Model::from_views(views);
    let (intrinsic, notes) = effects::all_intrinsics(&model);

    let mut findings = Vec::new();
    rule_local_phase_purity(&model, &intrinsic, &notes, &mut findings);
    rule_commit_only_mutation(&model, &intrinsic, &mut findings);
    rule_lock_order(&model, &mut findings);
    rule_float_accum_order(&model, &intrinsic, &notes, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);

    let mut report = AnalysisReport {
        files_scanned: views.len(),
        ..AnalysisReport::default()
    };
    for finding in findings {
        let allow = views
            .iter()
            .position(|(p, _)| *p == finding.file)
            .and_then(|idx| scanned[idx].allow_for(finding.rule, finding.line))
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
    report
}

/// Analyzes explicitly named files or directories as one universe.
pub fn analyze_paths(paths: &[PathBuf]) -> io::Result<AnalysisReport> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(path, false, &mut files)?;
        } else {
            files.push(path.clone());
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        sources.push((path, source));
    }
    Ok(analyze_sources(&sources))
}

/// Analyzes the workspace rooted at `root`: the library code of every
/// [`ANALYZE_CRATES`] member forms one combined universe, so the walk
/// sees cross-crate calls (sim stepping into core helpers).
pub fn analyze_workspace(root: &Path) -> io::Result<AnalysisReport> {
    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    for krate in ANALYZE_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, true, &mut files)?;
        files.sort();
        for path in files {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            if classify(&rel).kind != CodeKind::Lib {
                continue;
            }
            let source = std::fs::read_to_string(&path)?;
            sources.push((rel, source));
        }
    }
    Ok(analyze_sources(&sources))
}

/// Rationale, example violation and fix for every rule the tooling
/// knows — the text behind `cargo xtask analyze --explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    EXPLANATIONS
        .iter()
        .find(|(name, _)| *name == rule)
        .map(|(_, text)| *text)
}

const EXPLANATIONS: &[(&str, &str)] = &[
    (
        "local-phase-purity",
        "local-phase-purity (error)\n\
         \n\
         Why: each SM cycle is a local phase (`Sm::cycle_local`, per-SM\n\
         state only) followed by a commit, so cross-SM interaction resolves\n\
         at one point, in the engine's rotated service order. Fused windows\n\
         skip whole local phases, which is exact only if nothing reachable\n\
         from one writes shared state or reads ambient state — including\n\
         writes hidden behind RefCell/Mutex/atomics that no signature reveals. This rule infers effects per function and\n\
         propagates them over the call graph (through `Self::` calls, UFCS,\n\
         turbofish, closures), so a violation three helpers deep is found.\n\
         \n\
         Violation:\n\
             fn cycle_local(&mut self) { self.helper(); }\n\
             fn helper(&self) { *self.shared.borrow_mut() += 1; }  // flagged\n\
         \n\
         Fix: buffer the write in per-SM state during `cycle_local` and\n\
         apply it in `Sm::commit`, or justify a provably-local case with\n\
         `// lint: allow(local-phase-purity) -- <why it stays local>`.",
    ),
    (
        "commit-only-mutation",
        "commit-only-mutation (error)\n\
         \n\
         Why: the two-phase contract says shared structures (MemSystem,\n\
         Gwde, RunStats) are mutated only in the serial commit phase. A\n\
         `&mut MemSystem` parameter on a function outside the\n\
         `commit`/`cycle` call tree is either dead code or a back door\n\
         that a future caller will reach from the wrong phase.\n\
         \n\
         Violation:\n\
             fn rogue_inject(mem: &mut MemSystem) { … }  // no caller in commit tree\n\
         \n\
         Fix: route the mutation through the commit tree (have `commit`\n\
         call it), delete it, or annotate a deliberate exception with\n\
         `// lint: allow(commit-only-mutation) -- <reason>`.",
    ),
    (
        "lock-order",
        "lock-order (error)\n\
         \n\
         Why: the engine steps every SM on one thread and mutates shared\n\
         state only in the commit phase, so the SM stepping hot path —\n\
         everything reachable from `cycle_local`, `commit`, `cycle` or\n\
         `step_running` — needs no lock. A `Mutex`/`RwLock` (or any\n\
         `.lock()` acquisition) on that path is pure overhead and hides\n\
         shared state from the two-phase analysis.\n\
         \n\
         Violation:\n\
             fn commit(&mut self, mem: &mut MemSystem) {\n\
                 let _g = self.shared.lock();   // flagged\n\
             }\n\
         \n\
         Fix: keep shared mutation in the commit phase, or justify a\n\
         deliberate lock with\n\
         `// lint: allow(lock-order) -- <why it cannot block>`.",
    ),
    (
        "float-accum-order",
        "float-accum-order (warning)\n\
         \n\
         Why: float addition is not associative, so `sum::<f64>()` over a\n\
         HashMap's values depends on iteration order — which is seeded per\n\
         process. The result differs run to run even with identical inputs.\n\
         \n\
         Violation:\n\
             power.values().sum::<f64>()   // power: HashMap<u32, f64>\n\
         \n\
         Fix: iterate a BTreeMap, or sort keys before reducing. Advisory\n\
         only: the scan cannot prove which iterator feeds the fold.",
    ),
    (
        "no-std-hashmap",
        "no-std-hashmap (lint): HashMap/HashSet iteration order is seeded\n\
         per process, which breaks bit-identical replay. Use BTreeMap/BTreeSet.",
    ),
    (
        "no-wallclock",
        "no-wallclock (lint): Instant::now/SystemTime make replay depend on\n\
         the host clock. Use the simulated Femtos timebase.",
    ),
    (
        "no-extern-rand",
        "no-extern-rand (lint): ambient randomness breaks replay. Use\n\
         equalizer_sim::util::SplitMix64 seeded from SimConfig.",
    ),
    (
        "no-env-read",
        "no-env-read (lint): environment reads make runs machine-dependent.\n\
         Thread configuration through SimConfig.",
    ),
    (
        "no-unwrap",
        "no-unwrap (lint): library code must not panic on bad input. Return\n\
         a Result or handle the None arm.",
    ),
    (
        "pub-docs",
        "pub-docs (lint): public items in the documented crates need `///`\n\
         doc comments.",
    ),
    (
        "no-debug-print",
        "no-debug-print (lint): dbg!/println! belong in binaries, not\n\
         library code.",
    ),
    (
        "no-dup-metric-name",
        "no-dup-metric-name (lint): a metric name literal may be registered\n\
         once per crate; the registry rejects duplicates at run time and\n\
         this catches them at lint time.",
    ),
    (
        "no-shared-mut-in-local-phase",
        "no-shared-mut-in-local-phase (lint): the signature-level ancestor\n\
         of local-phase-purity — flags `&mut MemSystem`/`&mut Gwde`\n\
         parameters on functions reachable from `cycle_local`. The analyze\n\
         rule supersedes it for interior mutability and ambient effects.",
    ),
    (
        "tagged-todo",
        "tagged-todo (lint): TODO/FIXME markers need an issue tag like\n\
         `TODO(#7): …` so they stay actionable.",
    ),
    (
        "malformed-allow",
        "malformed-allow (lint): a `// lint: allow(<rules>) -- <reason>`\n\
         escape hatch needs both a known rule list and a non-empty reason.",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> AnalysisReport {
        let sources: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), (*s).to_string()))
            .collect();
        analyze_sources(&sources)
    }

    fn fired(report: &AnalysisReport) -> Vec<(&'static str, usize)> {
        report.findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn purity_flags_interior_mut_through_helpers() {
        let src = "\
fn cycle_local(c: &C) {
    stage(c);
}
fn stage(c: &C) {
    *c.tally.borrow_mut() += 1;
}
";
        let r = analyze(&[("a.rs", src)]);
        assert_eq!(fired(&r), vec![("local-phase-purity", 4)]);
    }

    #[test]
    fn purity_is_inert_without_a_root() {
        let src = "fn stage(c: &C) { *c.tally.borrow_mut() += 1; }\n";
        let r = analyze(&[("a.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn purity_allow_suppresses() {
        let src = "\
fn cycle_local(c: &C) {
    stage(c);
}
// lint: allow(local-phase-purity) -- per-SM cell, cannot race
fn stage(c: &C) {
    *c.tally.borrow_mut() += 1;
}
";
        let r = analyze(&[("a.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, "local-phase-purity");
    }

    #[test]
    fn commit_only_flags_rogue_writers() {
        let src = "\
struct MemSystem;
fn cycle_local(_x: u32) {}
fn commit(mem: &mut MemSystem) {
    drain(mem);
}
fn drain(_mem: &mut MemSystem) {}
fn rogue(_mem: &mut MemSystem) {}
";
        let r = analyze(&[("a.rs", src)]);
        assert_eq!(fired(&r), vec![("commit-only-mutation", 7)]);
    }

    #[test]
    fn commit_only_needs_both_phases() {
        let src = "struct MemSystem;\nfn rogue(_mem: &mut MemSystem) {}\n";
        let r = analyze(&[("a.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn lock_order_flags_locks_reachable_from_the_hot_path() {
        // The `.lock()` lives two calls deep from the per-tick stepper —
        // only the transitive walk can see it.
        let src = "\
fn step_running(parts: &[P]) {
    for p in parts {
        service(p);
    }
}
fn service(p: &P) {
    let _g = p.cell.lock();
}
";
        let r = analyze(&[("a.rs", src)]);
        assert_eq!(fired(&r), vec![("lock-order", 7)]);
    }

    #[test]
    fn lock_order_flags_mutex_types_on_the_hot_path() {
        let src = "\
fn step_running(n: u32) -> u32 {
    let shared = Mutex::new(n);
    shared.into_inner()
}
";
        let r = analyze(&[("a.rs", src)]);
        assert_eq!(fired(&r), vec![("lock-order", 2)]);
    }

    #[test]
    fn lock_order_ignores_locks_off_the_hot_path() {
        // An exporter may lock: it is not reachable from any hot-path
        // root, so the discipline does not apply to it.
        let src = "\
fn commit(x: u32) -> u32 {
    bump(x)
}
fn bump(x: u32) -> u32 {
    x + 1
}
fn exporter(m: &M) {
    let _g = m.lock();
}
";
        let r = analyze(&[("a.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn lock_order_is_inert_without_a_hot_path_root() {
        let src = "fn exporter(m: &M) { let _g = m.lock(); }\n";
        let r = analyze(&[("a.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn lock_order_does_not_match_lock_like_identifiers() {
        let src = "\
fn commit(c: &mut C) {
    c.locked_out();
    relock(c);
}
fn relock(_c: &mut C) {}
";
        let r = analyze(&[("a.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn lock_order_allow_suppresses() {
        let src = "\
fn commit(c: &C) {
    // lint: allow(lock-order) -- metrics sink, never contended per tick
    let _g = c.stats.lock();
}
";
        let r = analyze(&[("a.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, "lock-order");
    }

    #[test]
    fn float_accum_is_a_warning_and_stays_clean() {
        let src = "\
fn skew(power: &HashMap<u32, f64>) -> f64 {
    power.values().sum::<f64>()
}
";
        let r = analyze(&[("a.rs", src)]);
        assert_eq!(fired(&r), vec![("float-accum-order", 2)]);
        assert!(r.is_clean(), "warnings are not fatal");
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.errors(), 0);
    }

    #[test]
    fn ordered_float_reduction_is_fine() {
        let src = "fn total(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        let r = analyze(&[("a.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn json_report_shape() {
        let src = "\
fn cycle_local(c: &C) {
    *c.t.borrow_mut() += 1;
}
";
        let r = analyze(&[("a.rs", src)]);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rule\":\"local-phase-purity\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"files_scanned\":1"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn explain_knows_every_rule() {
        for rule in ANALYZE_RULES {
            assert!(explain(rule).is_some(), "missing explanation for {rule}");
        }
        for rule in crate::RULES {
            assert!(explain(rule).is_some(), "missing explanation for {rule}");
        }
        assert!(explain("no-unicorns").is_none());
    }
}
