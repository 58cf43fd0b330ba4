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
//!   `TODO(#12): ...`; clippy does not read comments;
//! * [`effects::local_phase_violations`]: `Sm::cycle_local` takes no
//!   `&mut` handle to shared state, the structural half of local-phase
//!   purity that no lint states;
//! * [`external_packages`]: no lockfile entry comes from a registry or
//!   git, so no third-party RNG or clock can enter the build.
//!
//! [`scan`] is the comment- and string-aware line view the last three
//! need.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod effects;
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
/// workspace's `missing_docs` warning. Writes only metadata into
/// `out_dir`.
pub fn fixture_errors(
    fixture: &Path,
    conf_dir: &Path,
    out_dir: &Path,
) -> Result<Vec<Diagnostic>, String> {
    let mut flags = strict_flags();
    flags.extend(["-W", "missing_docs"]);
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
    if actual == expected {
        return Ok(FixtureCheck {
            messages,
            mismatch: None,
        });
    }
    let mut msg = format!("{}: errors differ from the //~ markers", fixture.display());
    for (lint, line) in expected.iter().filter(|m| !actual.contains(m)) {
        msg += &format!("\n  line {line}: expected {lint}, got no such error");
    }
    for (lint, line) in actual.iter().filter(|a| !expected.contains(a)) {
        msg += &format!("\n  line {line}: unexpected {lint}");
    }
    Ok(FixtureCheck {
        messages,
        mismatch: Some(msg),
    })
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
    for (idx, line) in scan::scan(source).iter().enumerate() {
        let comment = &line.comment;
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
    use crate::effects::local_phase_violations;
    use crate::rules::{snippet_errors, strict_errors};

    fn at(lint: &str, line: usize) -> (String, usize) {
        (lint.to_string(), line)
    }

    /// Strict flags plus rustc's `missing_docs`, as the fixtures run.
    fn docs_errors(name: &str, source: &str) -> Vec<(String, usize)> {
        let mut flags = strict_flags();
        flags.extend(["-W", "missing_docs"]);
        snippet_errors(name, source, "sim", &flags)
    }

    #[test]
    fn hashmap_fires_in_strict_lib_code() {
        let src = "pub use std::collections::HashMap;\n";
        let found = strict_errors("hashmap_strict", src);
        assert_eq!(found, [at("clippy::disallowed_types", 1)]);
    }

    #[test]
    fn hashmap_in_string_or_comment_is_fine() {
        let src = "// HashMap is banned\npub const NAME: &str = \"HashMap\";\n";
        assert_eq!(strict_errors("hashmap_mentions", src), []);
    }

    #[test]
    fn hashmap_ignored_outside_strict_crates() {
        // `crates/workloads` has no `clippy.toml` and denies only prints.
        let src = "pub fn histogram() -> std::collections::HashMap<u32, u32> {\n    Default::default()\n}\n";
        let flags = [
            "--crate-type=lib",
            "-D",
            "clippy::print_stdout",
            "-D",
            "warnings",
        ];
        assert_eq!(snippet_errors("hashmap_lax", src, "workloads", &flags), []);
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        // `allow-*-in-tests` in `clippy.toml`: test code may unwrap,
        // panic and print even where `lib.rs` denies it.
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x: Option<u32> = \"1\".parse().ok();
        println!(\"{}\", x.unwrap());
        assert_eq!(x.expect(\"set\"), 1);
        if x.is_none() {
            panic!(\"gone\");
        }
    }
}
";
        let mut flags = vec!["--test"];
        flags.extend(strict_flags().into_iter().skip(1));
        assert_eq!(snippet_errors("cfg_test_exempt", src, "sim", &flags), []);
    }

    #[test]
    fn unwrap_and_expect_fire() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\npub fn g(x: Option<u32>) -> u32 { x.expect(\"gone\") }\n";
        let want = [at("clippy::expect_used", 2), at("clippy::unwrap_used", 1)];
        assert_eq!(strict_errors("unwrap_expect", src), want);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert_eq!(strict_errors("unwrap_or", src), []);
    }

    #[test]
    fn operand_is_not_rand() {
        // Only a `source` line makes a package external, whatever its name.
        let lock = "version = 4\n\n[[package]]\nname = \"operand\"\nversion = \"0.1.0\"\n\n[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        assert_eq!(external_packages(lock), ["rand"]);
        assert!(external_packages("[[package]]\nname = \"operand\"\n").is_empty());
    }

    #[test]
    fn allow_suppresses_and_is_counted() {
        let src = "#[allow(clippy::unwrap_used, reason = \"input validated above\")]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        assert_eq!(strict_errors("allow_reasoned", src), []);
        // Without the allow, the same code errors once.
        let bare = src.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(
            strict_errors("allow_absent", &bare),
            [at("clippy::unwrap_used", 2)]
        );
    }

    #[test]
    fn allow_without_reason_is_malformed_and_inert() {
        // The bare allow silences `unwrap_used` but is an error itself,
        // so the build still fails: it cannot land.
        let src =
            "#[allow(clippy::unwrap_used)]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let want = [at("clippy::allow_attributes_without_reason", 1)];
        assert_eq!(strict_errors("allow_bare", src), want);
    }

    #[test]
    fn allow_with_unknown_rule_is_flagged() {
        let src = "#[allow(clippy::no_unicorns, reason = \"oops\")]\npub fn f() {}\n";
        assert_eq!(
            strict_errors("allow_unknown", src),
            [at("unknown_lints", 1)]
        );
    }

    #[test]
    fn pub_docs_requires_doc_comment() {
        let src = "//! Snippet.\npub fn naked() {}\n\n/// Documented.\npub fn dressed() {}\n";
        assert_eq!(docs_errors("docs_missing", src), [at("missing_docs", 2)]);
    }

    #[test]
    fn pub_docs_sees_through_attributes() {
        let src = "//! Snippet.\n/// Documented.\n#[derive(Debug, Clone)]\npub struct S;\n";
        assert_eq!(docs_errors("docs_attrs", src), []);
    }

    #[test]
    fn pub_use_and_fields_are_not_items() {
        // Re-exports and tuple fields need no docs; rustc does require
        // them on named fields (line 6).
        let src = "\
//! Snippet.
/// Docs.
pub struct S(pub u32);
/// Docs.
pub struct N {
    pub field: u32,
}
pub use std::cmp::Ordering;
";
        assert_eq!(docs_errors("docs_items", src), [at("missing_docs", 6)]);
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
        assert_eq!(found.len(), 3);
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
    fn debug_print_fires_in_any_lib_code() {
        // Every library's `lib.rs` denies both print lints.
        let src = "pub fn f() {\n    println!(\"hi\");\n    eprintln!(\"hi\");\n}\n";
        let flags = [
            "--crate-type=lib",
            "-D",
            "clippy::print_stdout",
            "-D",
            "clippy::print_stderr",
            "-D",
            "warnings",
        ];
        let want = [at("clippy::print_stderr", 3), at("clippy::print_stdout", 2)];
        assert_eq!(
            snippet_errors("print_lax_lib", src, "workloads", &flags),
            want
        );
        assert_eq!(strict_errors("print_strict_lib", src), want);
    }

    #[test]
    fn debug_print_ignored_in_bin_code() {
        // A binary is its own crate: no `lib.rs` deny reaches it.
        let src = "fn main() {\n    println!(\"hi\");\n}\n";
        let flags = ["--crate-type=bin", "-D", "warnings"];
        assert_eq!(snippet_errors("print_bin", src, "harness", &flags), []);
    }

    fn local_phase(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        let sources: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), (*s).to_string()))
            .collect();
        local_phase_violations(&sources)
            .into_iter()
            .map(|(file, line, _)| (file.display().to_string(), line))
            .collect()
    }

    #[test]
    fn local_phase_flags_reachable_shared_mut() {
        let src = "\
impl Sm {
    pub fn cycle_local(
        &mut self,
        now: u64,
        mem: &mut MemSystem,
    ) {
        self.stage(now, mem);
    }
}
";
        assert_eq!(local_phase(&[("a.rs", src)]), [("a.rs".to_string(), 5)]);
    }

    #[test]
    fn local_phase_reaches_across_files() {
        let a = "fn stage(_g: &mut Gwde) {}\n";
        let b = "fn lib() {}\nfn cycle_local(g: &mut Gwde) {\n    stage(g);\n}\n";
        assert_eq!(
            local_phase(&[("a.rs", a), ("b.rs", b)]),
            [("b.rs".to_string(), 2)]
        );
    }

    #[test]
    fn local_phase_allows_shared_refs_and_mut_self() {
        let src = "\
impl Sm {
    fn cycle_local(&mut self, mem: &MemSystem) {
        self.observe(mem);
    }
    fn cycle_local_fast(&mut self, mem: &mut MemSystem) {}
}
";
        assert_eq!(local_phase(&[("a.rs", src)]), []);
    }

    #[test]
    fn local_phase_is_inert_without_a_root() {
        let src = "struct MemSystem;\nfn fill(_m: &mut MemSystem) {}\n// fn cycle_local(m: &mut MemSystem)\n";
        assert_eq!(local_phase(&[("a.rs", src)]), []);
    }

    #[test]
    fn local_phase_skips_test_regions() {
        let src = "\
fn fill(_m: &mut MemSystem) {}
#[cfg(test)]
mod tests {
    fn cycle_local(m: &mut MemSystem) {
        fill(m);
    }
}
";
        assert_eq!(local_phase(&[("a.rs", src)]), []);
    }

    #[test]
    fn local_phase_handles_generic_signatures() {
        let src = "\
fn cycle_local<F: Fn() -> u32, const N: usize>(f: F, g: &mut [Gwde; N]) -> Vec<u32> {
    route(f(), g)
}
";
        assert_eq!(local_phase(&[("a.rs", src)]), [("a.rs".to_string(), 1)]);
    }

    #[test]
    fn classify_makes_the_harness_result_store_strict() {
        // The harness is lax in general (figure sweeps time the host),
        // but the store every `Runner` memoizes through is strict: no
        // clock or environment read can feed `result_key`, no hash map
        // can order eviction, and it neither unwraps nor panics.
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
