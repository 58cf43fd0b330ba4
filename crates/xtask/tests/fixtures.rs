//! The fixtures prove the strict configuration: compiled with
//! `clippy-driver` under `crates/sim/clippy.toml` and
//! [`xtask::rules::STRICT_DENY`], each must error exactly on its `//~`
//! markers, and together they must exercise every lint and every ban.
//! The shipped workspace must pass the one rule clippy cannot run.

use std::fs;
use std::path::{Path, PathBuf};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    manifest_dir().join("../..")
}

/// A scratch output directory of its own for each test, so parallel
/// tests never write the same `.rmeta`.
fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("fixtures-{test}"));
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_fixture_fires_exactly_its_markers() {
    let fixtures = xtask::rs_files(&manifest_dir().join("fixtures"), &["todo"]).unwrap();
    assert!(
        fixtures.len() >= 7,
        "expected a fixture per ban family: {fixtures:?}"
    );
    let out = out_dir("all");
    if let Err(msg) = xtask::check_all_fixtures(&workspace_root(), &out) {
        panic!("{msg}");
    }
}

#[test]
fn every_rule_has_a_firing_fixture() {
    let mut marked = Vec::new();
    for file in xtask::rs_files(&manifest_dir().join("fixtures"), &["todo"]).unwrap() {
        let source = fs::read_to_string(file).unwrap();
        marked.extend(xtask::expected_markers(&source).into_iter().map(|m| m.0));
    }
    for lint in xtask::rules::STRICT_DENY.iter().chain(&["missing_docs"]) {
        assert!(
            marked.iter().any(|m| m == lint),
            "no fixture marks `{lint}`"
        );
    }
}

/// The reasoned `#[allow]` in `hashmap.rs` covers a function that uses
/// `HashSet` twice, and none of its lines errors.
#[test]
fn allow_fixture_suppresses_instead_of_firing() {
    let fixture = manifest_dir().join("fixtures/hashmap.rs");
    let source = fs::read_to_string(&fixture).unwrap();
    let lines: Vec<&str> = source.lines().collect();
    let allow = lines
        .iter()
        .position(|l| l.starts_with("#[allow(") && l.contains("reason = "))
        .expect("hashmap.rs keeps a reasoned allow");
    let end = allow + lines[allow..].iter().position(|l| *l == "}").unwrap();
    let covered = (allow + 1)..=(end + 1);
    assert!(lines[allow..end].iter().any(|l| l.contains("HashSet")));

    let conf = workspace_root().join("crates/sim");
    let errors = xtask::fixture_errors(&fixture, &conf, &out_dir("allow")).unwrap();
    assert!(errors.iter().any(|e| e.0 == "clippy::disallowed_types"));
    let inside: Vec<_> = errors.iter().filter(|e| covered.contains(&e.1)).collect();
    assert!(inside.is_empty(), "the allow must suppress: {inside:?}");
}

#[test]
fn nested_fixture_dir_is_scanned() {
    let dir = manifest_dir().join("fixtures");
    let nested = dir.join("todo/untagged.rs");
    assert!(xtask::rs_files(&dir, &[]).unwrap().contains(&nested));
    assert!(!xtask::rs_files(&dir, &["todo"]).unwrap().contains(&nested));
}

#[test]
fn shipped_workspace_is_lint_clean() {
    let root = workspace_root();
    let files = xtask::rs_files(&root, &["target", "fixtures"]).unwrap();
    assert!(
        files.len() > 40,
        "workspace walk looks truncated: {files:?}"
    );
    let mut untagged = Vec::new();
    for file in files {
        let source = fs::read_to_string(&file).unwrap();
        for (line, keyword) in xtask::untagged_todos(&source) {
            let rel = file.strip_prefix(&root).unwrap_or(&file);
            untagged.push(format!("{}:{line}: {keyword}", rel.display()));
        }
    }
    assert!(
        untagged.is_empty(),
        "to-do comments need an issue tag, e.g. `TODO(#123): ...`:\n{}",
        untagged.join("\n")
    );
}
