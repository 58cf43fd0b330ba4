//! The strict crates' determinism policy as clippy enforces it, and the
//! plumbing that checks it: compiling one file with `clippy-driver`
//! under a crate's `clippy.toml` and reading back its error diagnostics.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Crates whose library code carries the determinism policy.
pub const STRICT_CRATES: &[&str] = &["sim", "core", "power", "obs"];

/// Lints the strict crates deny: every one must be named in each strict
/// crate's `lib.rs` or denied workspace-wide in the root `Cargo.toml`.
/// The fixture check passes the same list to `clippy-driver`.
pub const STRICT_DENY: &[&str] = &[
    "clippy::disallowed_types",
    "clippy::disallowed_methods",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::print_stdout",
    "clippy::print_stderr",
    "clippy::dbg_macro",
    "clippy::allow_attributes_without_reason",
];

/// One error-level lint diagnostic: the lint, the 1-indexed line of its
/// primary span, and its message.
pub type Diagnostic = (String, usize, String);

/// `clippy-driver` flags that compile a file as a strict-crate library:
/// [`STRICT_DENY`] as `-D` flags, with warnings denied as CI does.
pub fn strict_flags() -> Vec<&'static str> {
    let mut flags = vec!["--crate-type=lib"];
    for lint in STRICT_DENY {
        flags.extend(["-D", lint]);
    }
    flags.extend(["-D", "warnings"]);
    flags
}

/// The `(path, reason)` entries of a `clippy.toml`'s ban lists, in file
/// order.
pub fn banned_paths(clippy_toml: &str) -> Vec<(String, String)> {
    let quoted = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("{key} = \""))? + key.len() + 4..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let entries = clippy_toml
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'));
    entries
        .filter_map(|l| Some((quoted(l, "path")?, quoted(l, "reason").unwrap_or_default())))
        .collect()
}

/// The string value following `"key":"` in one JSON diagnostic line,
/// with its escapes decoded.
fn json_str(json: &str, key: &str) -> Option<String> {
    let start = json.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let mut out = String::new();
    let mut chars = json[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other), // `\"`, `\\`, `\/`
            },
            c => out.push(c),
        }
    }
}

/// Error-level lint diagnostics from `clippy-driver --error-format=json`
/// output. Only the top-level diagnostic is read: its `code`, `level`
/// and `message` come before its spans and children.
pub fn parse_diagnostics(json_lines: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for line in json_lines.lines() {
        // `"code":null` is the "aborting" summary.
        let (Some(lint), Some("error")) =
            (json_str(line, "code"), json_str(line, "level").as_deref())
        else {
            continue;
        };
        let line_no = line.find("\"is_primary\":true").and_then(|primary| {
            let at = line[..primary].rfind("\"line_start\":")? + 13;
            line[at..at + line[at..].find(',')?].parse().ok()
        });
        if let Some(line_no) = line_no {
            let message = json_str(line, "message").unwrap_or_default();
            out.push((lint, line_no, message));
        }
    }
    out
}

/// The `clippy-driver` of the toolchain running this process: next to
/// `$CARGO` when cargo launched us, otherwise the one on `PATH`.
fn clippy_driver() -> PathBuf {
    std::env::var_os("CARGO")
        .and_then(|cargo| Some(Path::new(&cargo).parent()?.join("clippy-driver")))
        .filter(|driver| driver.is_file())
        .unwrap_or_else(|| PathBuf::from("clippy-driver"))
}

/// Compiles `file` with `clippy-driver` under `conf_dir`'s `clippy.toml`
/// and `flags`, writing only metadata into `out_dir`, and returns its
/// error-level lint diagnostics.
pub fn clippy_errors(
    file: &Path,
    conf_dir: &Path,
    out_dir: &Path,
    flags: &[&str],
) -> Result<Vec<Diagnostic>, String> {
    let out = Command::new(clippy_driver())
        .env("CLIPPY_CONF_DIR", conf_dir)
        .args(["--edition=2021", "--emit=metadata", "--error-format=json"])
        .arg("--out-dir")
        .arg(out_dir)
        .arg(file)
        .args(flags)
        .output()
        .map_err(|e| {
            let driver = clippy_driver();
            format!(
                "could not run {}: {e} (is clippy installed?)",
                driver.display()
            )
        })?;
    Ok(parse_diagnostics(&String::from_utf8_lossy(&out.stderr)))
}

/// Compiles `source` as `<name>.rs` under `crates/<conf_crate>`'s
/// configuration and `flags`; returns the sorted `(lint, line)` errors.
#[cfg(test)]
pub(crate) fn snippet_errors(
    name: &str,
    source: &str,
    conf_crate: &str,
    flags: &[&str],
) -> Vec<(String, usize)> {
    let exe = std::env::current_exe().unwrap();
    let dir = exe.parent().unwrap().join("xtask-snippets");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("{name}.rs"));
    std::fs::write(&file, source).unwrap();
    let conf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../crates")
        .join(conf_crate);
    let mut found: Vec<(String, usize)> = clippy_errors(&file, &conf, &dir, flags)
        .unwrap()
        .into_iter()
        .map(|d| (d.0, d.1))
        .collect();
    found.sort();
    found
}

/// [`snippet_errors`] under the strict configuration of `crates/sim`.
#[cfg(test)]
pub(crate) fn strict_errors(name: &str, source: &str) -> Vec<(String, usize)> {
    snippet_errors(name, source, "sim", &strict_flags())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(lint: &str, line: usize) -> (String, usize) {
        (lint.to_string(), line)
    }

    #[test]
    fn lock_order_flags_mutex_types_on_the_hot_path() {
        let src = "pub struct Hot {\n    pub queue: std::sync::Mutex<Vec<u32>>,\n}\n";
        let found = strict_errors("lock_mutex_type", src);
        assert_eq!(found, [at("clippy::disallowed_types", 2)]);
    }

    #[test]
    fn lock_order_flags_locks_reachable_from_the_hot_path() {
        // A lock handed in by reference is still a use of the type.
        let src = "\
pub fn cycle_local(tally: &std::sync::RwLock<u64>) -> u64 {
    tally.read().map(|g| *g).unwrap_or(0)
}
";
        let found = strict_errors("lock_reachable", src);
        assert_eq!(found, [at("clippy::disallowed_types", 1)]);
    }

    #[test]
    fn lock_order_does_not_match_lock_like_identifiers() {
        let src = "\
pub fn lock_free(block: &[u64], clock: u64) -> u64 {
    let unlocked = block.iter().sum::<u64>();
    unlocked + clock
}
";
        assert_eq!(strict_errors("lock_like_names", src), []);
    }

    #[test]
    fn lock_order_allow_suppresses() {
        let src = "\
#[allow(clippy::disallowed_types, reason = \"host-side progress counter\")]
pub fn guarded(n: u64) -> std::sync::Mutex<u64> {
    std::sync::Mutex::new(n)
}
";
        assert_eq!(strict_errors("lock_allowed", src), []);
    }

    #[test]
    fn purity_flags_interior_mut_through_helpers() {
        let src = "\
pub fn cycle_local(x: u32) -> u32 {
    bump(x)
}
fn bump(x: u32) -> u32 {
    let slot = std::cell::Cell::new(x);
    slot.set(x + 1);
    slot.get()
}
";
        let found = strict_errors("purity_helper", src);
        assert_eq!(found, [at("clippy::disallowed_types", 5)]);
    }

    #[test]
    fn purity_allow_suppresses() {
        let src = "\
pub fn cycle_local(x: u32) -> u32 {
    bump(x)
}
#[allow(clippy::disallowed_types, reason = \"scratch cell never escapes\")]
fn bump(x: u32) -> u32 {
    let slot = std::cell::Cell::new(x);
    slot.set(x + 1);
    slot.get()
}
";
        assert_eq!(strict_errors("purity_allowed", src), []);
    }

    #[test]
    fn ordered_float_reduction_is_fine() {
        let src = "\
pub fn total(energy: &std::collections::BTreeMap<u32, f64>) -> f64 {
    energy.values().sum()
}
";
        assert_eq!(strict_errors("ordered_sum", src), []);
    }

    #[test]
    fn json_escapes_special_characters() {
        let json = r#"{"message":"a \"quoted\" \\ path\nnext `x`","code":{"code":"clippy::panic"},"level":"error","spans":[{"line_start":2,"is_primary":true}]}"#;
        let want = "a \"quoted\" \\ path\nnext `x`".to_string();
        assert_eq!(
            parse_diagnostics(json),
            [("clippy::panic".to_string(), 2, want)]
        );
    }

    #[test]
    fn json_report_shape() {
        let json = concat!(
            r#"{"message":"use of `println!`","code":{"code":"clippy::print_stdout"},"level":"error","spans":[{"line_start":3,"line_end":3,"is_primary":false},{"line_start":7,"line_end":7,"is_primary":true}]}"#,
            "\n",
            r#"{"message":"unused","code":{"code":"dead_code"},"level":"warning","spans":[{"line_start":1,"line_end":1,"is_primary":true}]}"#,
            "\n",
            r#"{"message":"aborting due to 1 previous error","code":null,"level":"error","spans":[]}"#,
        );
        let want = (
            "clippy::print_stdout".to_string(),
            7,
            "use of `println!`".to_string(),
        );
        assert_eq!(parse_diagnostics(json), vec![want]);
    }

    #[test]
    fn explain_knows_every_rule() {
        // Clippy prints a ban's reason as the note under its error.
        let crates = STRICT_CRATES.iter().chain(&["harness"]);
        for name in crates {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../{name}/clippy.toml"));
            let toml = std::fs::read_to_string(&path).unwrap();
            let bans = banned_paths(&toml);
            assert!(!bans.is_empty(), "{} bans nothing", path.display());
            for (ban, reason) in bans {
                assert!(
                    !reason.trim().is_empty(),
                    "{ban} in {} has no reason",
                    path.display()
                );
            }
        }
    }

    #[test]
    fn banned_paths_skip_comments() {
        let toml = "# { path = \"a::B\" }\ndisallowed-types = [\n    { path = \"std::cell::Cell\", reason = \"x\" },\n]\n";
        let want = ("std::cell::Cell".to_string(), "x".to_string());
        assert_eq!(banned_paths(toml), vec![want]);
    }
}
