//! The effects that break replay, as the strict crates now keep them
//! out: clippy bans interior mutability, locks, atomics, the wall clock,
//! environment reads and hash-ordered containers in every strict crate,
//! and `Sm::cycle_local` takes no `&mut` handle to shared state
//! ([`xtask::effects::local_phase_violations`]). A write that no
//! signature shows, such as a lock in a helper, is the bans' job.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::effects::local_phase_violations;
use xtask::rules::{banned_paths, clippy_errors, strict_flags, STRICT_CRATES, STRICT_DENY};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A scratch output directory of its own for each test, so parallel
/// tests never write the same `.rmeta`.
fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("analyze-{test}"));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fixtures of the effect families the bans replace.
const EFFECT_FIXTURES: &[&str] = &["interior_mut", "wallclock", "env_read", "hashmap"];

/// Compiles `source` as a strict `crates/sim` library; `(lint, line)`.
fn strict_errors(name: &str, source: &str) -> Vec<(String, usize)> {
    let out = out_dir(name);
    let file = out.join(format!("{name}.rs"));
    fs::write(&file, source).unwrap();
    let conf = workspace_root().join("crates/sim");
    let found = clippy_errors(&file, &conf, &out, &strict_flags()).unwrap();
    found.into_iter().map(|d| (d.0, d.1)).collect()
}

/// Each effect fixture errors exactly on its markers under every strict
/// crate's own `clippy.toml`, not only under `crates/sim`'s.
#[test]
fn every_analyze_fixture_fires_exactly_its_markers() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let out = out_dir("every_fixture");
    for name in STRICT_CRATES {
        let conf = workspace_root().join("crates").join(name);
        for fixture in EFFECT_FIXTURES {
            let path = fixtures.join(format!("{fixture}.rs"));
            if let Some(msg) = xtask::check_fixture(&path, &conf, &out).unwrap().mismatch {
                panic!("under crates/{name}: {msg}");
            }
        }
    }
}

/// Each rule of the old effect analysis that guarded a kind of state
/// maps to bans that every strict crate carries.
#[test]
fn every_analyze_rule_has_a_firing_fixture() {
    let rules: &[(&str, &[&str])] = &[
        (
            "local-phase-purity",
            &[
                "std::cell::Cell",
                "std::cell::RefCell",
                "std::sync::atomic::AtomicU64",
            ],
        ),
        (
            "lock-order",
            &[
                "std::sync::Mutex",
                "std::sync::RwLock",
                "std::sync::Condvar",
            ],
        ),
        (
            "float-accum-order",
            &["std::collections::HashMap", "std::collections::HashSet"],
        ),
    ];
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let conf = workspace_root().join("crates/sim");
    let (out, mut messages) = (out_dir("every_rule"), Vec::new());
    for fixture in EFFECT_FIXTURES {
        let path = fixtures.join(format!("{fixture}.rs"));
        let check = xtask::check_fixture(&path, &conf, &out).unwrap();
        assert_eq!(check.mismatch, None);
        messages.extend(check.messages);
    }
    for name in STRICT_CRATES {
        let toml = fs::read_to_string(workspace_root().join(format!("crates/{name}/clippy.toml")));
        let bans: Vec<String> = banned_paths(&toml.unwrap())
            .into_iter()
            .map(|b| b.0)
            .collect();
        for (rule, replacements) in rules {
            for ban in *replacements {
                assert!(
                    bans.iter().any(|b| b == ban),
                    "crates/{name} lost `{ban}` ({rule})"
                );
                let shown = format!("`{ban}`");
                assert!(
                    messages.iter().any(|m| m.contains(&shown)),
                    "`{ban}` ({rule}) fires on no effect fixture"
                );
            }
        }
    }
}

/// A reasoned `#![allow]` at the top of a module covers every item in
/// it, so one module can opt out without sprinkling item attributes.
#[test]
fn allow_directive_suppresses_analyze_findings() {
    let src = "\
pub mod host {
    #![allow(clippy::disallowed_types, reason = \"host-side progress reporting, never simulated\")]
    pub static DONE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    pub fn log() -> std::sync::Mutex<Vec<u64>> {
        std::sync::Mutex::new(Vec::new())
    }
}
pub fn sim() -> std::cell::Cell<u32> {
    std::cell::Cell::new(0)
}
";
    let found = strict_errors("module_allow", src);
    let lines: Vec<usize> = found.iter().map(|f| f.1).collect();
    assert_eq!(
        lines,
        [8, 9],
        "only the module outside the allow fires: {found:?}"
    );
}

/// Every ban carries the reason clippy prints under its error, and
/// DESIGN.md §7 names every lint the strict crates deny.
#[test]
fn every_rule_lint_and_analyze_has_an_explanation() {
    let toml = fs::read_to_string(workspace_root().join("crates/sim/clippy.toml")).unwrap();
    for (ban, reason) in banned_paths(&toml) {
        assert!(reason.len() > 10, "`{ban}` needs a reason, got {reason:?}");
    }
    let design = fs::read_to_string(workspace_root().join("DESIGN.md")).unwrap();
    let start = design.find("## 7.").expect("DESIGN.md has §7");
    let end = design[start..]
        .find("\n## 8.")
        .map_or(design.len(), |e| start + e);
    let section = &design[start..end];
    for lint in STRICT_DENY {
        let bare = lint.trim_start_matches("clippy::");
        assert!(
            section.contains(bare),
            "DESIGN.md §7 does not explain `{lint}`"
        );
    }
}

/// The parsed JSON diagnostics are complete: every banned-type error in
/// `interior_mut.rs` comes back with its line and a message naming the
/// banned type.
#[test]
fn json_report_is_well_formed_and_complete() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/interior_mut.rs");
    let source = fs::read_to_string(&fixture).unwrap();
    let conf = workspace_root().join("crates/sim");
    let toml = fs::read_to_string(conf.join("clippy.toml")).unwrap();
    let bans: Vec<String> = banned_paths(&toml).into_iter().map(|b| b.0).collect();
    let errors = xtask::fixture_errors(&fixture, &conf, &out_dir("json")).unwrap();
    assert_eq!(errors.len(), xtask::expected_markers(&source).len());
    for (lint, line, message) in &errors {
        assert_eq!(lint, "clippy::disallowed_types");
        assert!(*line > 0 && *line <= source.lines().count());
        let named = message
            .strip_prefix("use of a disallowed type `")
            .and_then(|m| m.strip_suffix('`'));
        assert!(
            named.is_some_and(|ty| bans.iter().any(|b| b == ty)),
            "line {line}: {message}"
        );
    }
}

const CLEAN_SM: &str = "\
//! A miniature SM whose local phase reaches a helper.

/// A streaming multiprocessor.
pub struct Sm {
    /// The last score.
    pub score: u64,
}

impl Sm {
    /// The local phase.
    pub fn cycle_local(&mut self, now: u64) {
        self.classify(now);
    }

    fn classify(&mut self, now: u64) {
        self.score = now;
        // MUTATION-POINT
    }
}
";

/// A lock taken in a helper the local phase reaches changes no
/// signature, so the signature check cannot see it; the ban on lock
/// types catches it anyway.
#[test]
fn mutation_interior_write_is_caught_where_the_old_lint_is_blind() {
    let mut mutated = CLEAN_SM.replace(
        "// MUTATION-POINT",
        "if let Ok(mut t) = TALLY.lock() { t.push(self.score); }",
    );
    mutated.push_str(
        "\nstatic TALLY: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());\n",
    );
    let sources = [(PathBuf::from("sm.rs"), mutated.clone())];
    assert!(local_phase_violations(&sources).is_empty());

    // The static's type and its `Mutex::new` both error, on its line.
    let mut found = strict_errors("mutated_sm", &mutated);
    found.dedup();
    let last = mutated.lines().count();
    assert_eq!(found, [("clippy::disallowed_types".to_string(), last)]);
    assert_eq!(strict_errors("clean_sm", CLEAN_SM), []);
}

/// The shipped `Sm::cycle_local` exists, once, and takes no `&mut`
/// handle to shared state.
#[test]
fn shipped_workspace_is_analyze_clean() {
    let mut sources = Vec::new();
    for name in STRICT_CRATES {
        let src = workspace_root().join("crates").join(name).join("src");
        for file in xtask::rs_files(&src, &[]).unwrap() {
            let text = fs::read_to_string(&file).unwrap();
            sources.push((file, text));
        }
    }
    let roots: Vec<&PathBuf> = sources
        .iter()
        .filter(|(_, text)| text.contains("pub fn cycle_local(&mut self"))
        .map(|(file, _)| file)
        .collect();
    assert_eq!(roots.len(), 1, "expected one local-phase root: {roots:?}");
    let violations = local_phase_violations(&sources);
    assert!(violations.is_empty(), "{violations:?}");
}
