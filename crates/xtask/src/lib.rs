//! Workspace automation for the Equalizer reproduction: the checks
//! behind `cargo xtask ci` that the compiler does not run by itself.
//!
//! The simulator's headline claim is *bit-identical replay*. Clippy
//! enforces the policy that keeps it so (DESIGN.md §7): a `clippy.toml`
//! in each strict crate (`crates/{sim,core,power,obs}`) bans hash
//! containers, interior mutability, the wall clock and environment
//! reads, and each strict crate's `lib.rs` denies the lints in
//! [`rules::STRICT_DENY`]. This crate holds what is left around that:
//!
//! * [`check_all_fixtures`] compiles each file of `fixtures/` with
//!   `clippy-driver` under that configuration ([`rules`]) and requires
//!   exactly the errors its `//~ <lint>` markers name, and every ban to
//!   fire, so removing a ban or a deny fails it;
//! * [`untagged_todos`]: a to-do comment must carry an issue tag,
//!   `TODO(#12): ...`; clippy does not read comments ([`scan`] splits
//!   them from code and strings);
//! * [`external_packages`]: no lockfile entry comes from a registry or
//!   git, so no third-party RNG or clock can enter the build.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod rules;
pub mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rules::{banned_paths, clippy_errors, strict_flags, Diagnostic};

/// `(lint, 1-indexed line)` pairs declared by `//~ <lint> [<lint>...]`
/// markers, sorted.
pub fn expected_markers(source: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            out.extend(
                line[pos + 3..]
                    .split_whitespace()
                    .map(|l| (l.to_string(), idx + 1)),
            );
        }
    }
    out.sort();
    out
}

/// The errors of `fixture` compiled as a library under the strict
/// configuration: `conf_dir`'s `clippy.toml`, [`strict_flags`] and the
/// workspace's `missing_docs` warning. `cfg(test)` is set, as for
/// `cargo clippy --all-targets`, so a fixture's `#[cfg(test)]` module is
/// checked under the `allow-*-in-tests` exemptions. Writes only metadata
/// into `out_dir`.
pub fn fixture_errors(
    fixture: &Path,
    conf_dir: &Path,
    out_dir: &Path,
) -> Result<Vec<Diagnostic>, String> {
    let mut flags = strict_flags();
    flags.extend(["-W", "missing_docs", "--cfg", "test"]);
    clippy_errors(fixture, conf_dir, out_dir, &flags)
}

/// What [`check_fixture`] found in one fixture.
#[derive(Debug)]
pub struct FixtureCheck {
    /// Every error message the fixture produced, whether or not its
    /// errors matched its markers.
    pub messages: Vec<String>,
    /// How its `(lint, line)` errors differ from its `//~` markers;
    /// `None` when they are equal.
    pub mismatch: Option<String>,
}

/// Checks that the `(lint, line)` errors of `fixture` under the strict
/// configuration ([`fixture_errors`]) equal its `//~` markers; returns
/// its messages with any mismatch, or an error when clippy cannot run.
pub fn check_fixture(
    fixture: &Path,
    conf_dir: &Path,
    out_dir: &Path,
) -> Result<FixtureCheck, String> {
    let source = fs::read_to_string(fixture).map_err(|e| format!("{}: {e}", fixture.display()))?;
    let diagnostics = fixture_errors(fixture, conf_dir, out_dir)?;
    let mut actual: Vec<(String, usize)> = diagnostics.iter().map(|d| (d.0.clone(), d.1)).collect();
    actual.sort();
    actual.dedup();
    let expected = expected_markers(&source);
    let messages = diagnostics.into_iter().map(|d| d.2).collect();
    let mismatch = (actual != expected).then(|| {
        let mut msg = format!("{}: errors differ from the //~ markers", fixture.display());
        for (lint, line) in expected.iter().filter(|m| !actual.contains(m)) {
            msg += &format!("\n  line {line}: expected {lint}, got no such error");
        }
        for (lint, line) in actual.iter().filter(|a| !expected.contains(a)) {
            msg += &format!("\n  line {line}: unexpected {lint}");
        }
        msg
    });
    Ok(FixtureCheck { messages, mismatch })
}

/// The failures of a fixture run, in order: each fixture's error or
/// marker mismatch, then each of `bans` (as [`banned_paths`] returns
/// them) that no fixture's messages name. A mismatched fixture's
/// messages count, so a ban that fires only there is not also reported
/// as never firing.
pub fn fixture_failures(
    checks: &[Result<FixtureCheck, String>],
    bans: &[(String, String)],
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut messages = Vec::new();
    for check in checks {
        match check {
            Ok(c) => {
                messages.extend(&c.messages);
                failures.extend(c.mismatch.clone());
            }
            Err(msg) => failures.push(msg.clone()),
        }
    }
    for (ban, _) in bans {
        if !messages.iter().any(|m| m.contains(&format!("`{ban}`"))) {
            failures.push(format!("ban `{ban}` never fires on the fixtures"));
        }
    }
    failures
}

/// Checks every fixture under `root`'s `crates/xtask/fixtures` against
/// the strict configuration in `crates/sim`, and that every ban in that
/// `clippy.toml` fires on at least one fixture line
/// ([`fixture_failures`]). Returns a summary.
pub fn check_all_fixtures(root: &Path, out_dir: &Path) -> Result<String, String> {
    let conf_dir = root.join("crates/sim");
    let files =
        rs_files(&root.join("crates/xtask/fixtures"), &["todo"]).map_err(|e| e.to_string())?;
    let toml = fs::read_to_string(conf_dir.join("clippy.toml")).map_err(|e| e.to_string())?;
    let checks: Vec<_> = files
        .iter()
        .map(|file| check_fixture(file, &conf_dir, out_dir))
        .collect();
    let bans = banned_paths(&toml);
    let failures = fixture_failures(&checks, &bans);
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    let e: usize = checks.iter().flatten().map(|c| c.messages.len()).sum();
    let (f, b) = (files.len(), bans.len());
    Ok(format!(
        "{f} fixture(s), {b} ban(s), {e} error(s) as marked"
    ))
}

/// Lines of `source` whose comment text holds a to-do keyword without
/// an issue tag, as `(1-indexed line, keyword)`. Every line of a block
/// comment counts; string literals do not.
pub fn untagged_todos(source: &str) -> Vec<(usize, &'static str)> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for (idx, comment) in scan::comments(source).iter().enumerate() {
        for keyword in ["TODO", "FIXME"] {
            let untagged = comment.match_indices(keyword).any(|(at, _)| {
                let rest = &comment[at + keyword.len()..];
                let tag = rest
                    .strip_prefix('(')
                    .and_then(|t| Some(t[..t.find(')')?].trim()));
                !comment[..at].ends_with(word)
                    && !rest.starts_with(word)
                    && tag.is_none_or(str::is_empty)
            });
            if untagged {
                out.push((idx + 1, keyword));
            }
        }
    }
    out
}

/// Names of the packages in a `Cargo.lock` that carry a `source`: a
/// registry or git dependency rather than a workspace path.
pub fn external_packages(lock: &str) -> Vec<String> {
    let mut out = Vec::new();
    for package in lock.split("[[package]]").skip(1) {
        let field = |key: &str| {
            package.lines().find_map(|l| {
                let value = l.trim().strip_prefix(key)?.trim_start().strip_prefix('=')?;
                Some(value.trim().trim_matches('"').to_string())
            })
        };
        if field("source").is_some() {
            out.push(field("name").unwrap_or_default());
        }
    }
    out
}

/// Every `.rs` file under `dir`, sorted, skipping dot-directories and
/// directories named in `skip`.
pub fn rs_files(dir: &Path, skip: &[&str]) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && !skip.contains(&name.as_ref()) {
                out.extend(rs_files(&path, skip)?);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strict lints on the first line of `fixtures/<name>` starting with `code`.
    fn lints_on(name: &str, code: &str) -> Vec<String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let fixture = dir.join("fixtures").join(name);
        let src = fs::read_to_string(&fixture).unwrap();
        let at = src.lines().position(|l| l.trim_start().starts_with(code));
        let line = 1 + at.unwrap();
        let out = dir.join(format!("../../target/xtask-unit/{name}-{line}"));
        fs::create_dir_all(&out).unwrap();
        let errors = fixture_errors(&fixture, &dir.join("../sim"), &out).unwrap();
        assert!(!errors.is_empty(), "clippy reported nothing on {name}");
        let on_line = errors.into_iter().filter(|e| e.1 == line);
        on_line.map(|e| e.0).collect()
    }

    #[test]
    fn unwrap_and_expect_fire() {
        assert_eq!(lints_on("unwrap.rs", "s.parse()"), ["clippy::unwrap_used"]);
        assert_eq!(lints_on("unwrap.rs", "x.expect("), ["clippy::expect_used"]);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(lints_on("unwrap.rs", "x.unwrap_or(0)").is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        // `allow-*-in-tests`: test code may unwrap, print and panic.
        assert!(lints_on("unwrap.rs", "println!(").is_empty());
        assert!(lints_on("unwrap.rs", "panic!(\"gone").is_empty());
    }

    #[test]
    fn allow_with_unknown_rule_is_flagged() {
        let unknown = lints_on("hashmap.rs", "#[allow(clippy::no_such_lint");
        assert_eq!(unknown, ["unknown_lints"]);
    }

    #[test]
    fn operand_is_not_rand() {
        // Only a `source` line makes a package external, whatever its name.
        let lock = "version = 4\n\n[[package]]\nname = \"operand\"\nversion = \"0.1.0\"\n\n[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        assert_eq!(external_packages(lock), ["rand"]);
        assert!(external_packages("[[package]]\nname = \"operand\"\n").is_empty());
    }

    #[test]
    fn todo_needs_tag_even_in_tests() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/todo/untagged.rs");
        let src = fs::read_to_string(path).unwrap();
        let found: Vec<(String, usize)> = untagged_todos(&src)
            .into_iter()
            .map(|(line, _)| ("tagged-todo".into(), line))
            .collect();
        assert_eq!(found, expected_markers(&src));
        assert_eq!(found.len(), 4);
    }

    #[test]
    fn todo_inside_code_or_words_is_not_a_marker() {
        let src = "let s = \"// TODO\";\n// TODOS and MYFIXME are words\n/* TODO(#3): tagged */\n";
        assert!(untagged_todos(src).is_empty(), "{:?}", untagged_todos(src));
        let empty_tag = concat!("x(); /* FIX", "ME() */");
        assert_eq!(untagged_todos(empty_tag), vec![(1, "FIXME")]);
    }

    #[test]
    fn mismatched_fixture_still_counts_toward_bans() {
        let ban = |path: &str| (path.to_string(), String::new());
        let bans = [ban("std::collections::HashMap"), ban("std::sync::Mutex")];
        let mismatch = "hashmap.rs: errors differ from the //~ markers".to_string();
        let checks = [
            Ok(FixtureCheck {
                messages: vec!["use of a disallowed type `std::collections::HashMap`".into()],
                mismatch: Some(mismatch.clone()),
            }),
            Err("wallclock.rs: clippy-driver failed".to_string()),
        ];
        assert_eq!(
            fixture_failures(&checks, &bans),
            [
                mismatch,
                "wallclock.rs: clippy-driver failed".to_string(),
                "ban `std::sync::Mutex` never fires on the fixtures".to_string(),
            ]
        );
        let clean = [Ok(FixtureCheck {
            messages: vec!["`std::sync::Mutex` and `std::collections::HashMap`".into()],
            mismatch: None,
        })];
        assert!(fixture_failures(&clean, &bans).is_empty());
    }

    #[test]
    fn markers_may_name_several_lints() {
        let src = "a();\nb(); //~ clippy::panic\nc(); //~ clippy::x missing_docs\n";
        let want = [("clippy::panic", 2), ("clippy::x", 3), ("missing_docs", 3)];
        let want: Vec<(String, usize)> = want.iter().map(|&(l, n)| (l.to_string(), n)).collect();
        assert_eq!(expected_markers(src), want);
    }

    #[test]
    fn classify_makes_the_harness_result_store_strict() {
        // The harness is lax in general (figure sweeps time the host),
        // but the store every `Runner` memoizes through is strict: no
        // clock or environment read can feed a memo key, no hash map
        // can order the memo, and it neither unwraps nor panics.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../harness");
        let store = fs::read_to_string(root.join("src/store.rs")).unwrap();
        let deny =
            "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,clippy::panic))]";
        let compact: String = store.split_whitespace().collect();
        assert!(compact.contains(deny), "store.rs lost its module deny");
        let toml = fs::read_to_string(root.join("clippy.toml")).unwrap();
        let bans: Vec<String> = banned_paths(&toml).into_iter().map(|b| b.0).collect();
        for ban in [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::time::SystemTime",
            "std::time::Instant::now",
            "std::env::var",
        ] {
            assert!(
                bans.iter().any(|b| b == ban),
                "harness/clippy.toml lost `{ban}`"
            );
        }
    }
}
