//! Workspace-wide rules that are tests rather than lints: the strict
//! crates share one configuration (so the fixtures, checked under
//! `crates/sim`'s, prove all four) and deny the same lints, and no
//! external package can enter the build.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn strict_crates_share_one_clippy_config() {
    let sim = read("crates/sim/clippy.toml");
    assert!(xtask::rules::banned_paths(&sim).len() >= 20);
    for name in xtask::rules::STRICT_CRATES {
        let rel = format!("crates/{name}/clippy.toml");
        assert_eq!(read(&rel), sim, "{rel} must equal crates/sim/clippy.toml");
    }
}

/// Every strict crate denies every fixture lint, and DESIGN.md §7
/// explains each one.
#[test]
fn strict_crates_deny_the_fixture_lints() {
    let design = read("DESIGN.md");
    let start = design.find("## 7.").expect("DESIGN.md has §7");
    let end = design[start..]
        .find("\n## 8.")
        .map_or(design.len(), |e| start + e);
    for lint in xtask::rules::STRICT_DENY {
        let bare = lint.trim_start_matches("clippy::");
        assert!(
            design[start..end].contains(bare),
            "DESIGN.md §7 does not explain `{lint}`"
        );
    }
    let workspace_deny = read("Cargo.toml");
    for name in xtask::rules::STRICT_CRATES {
        let lib = read(&format!("crates/{name}/src/lib.rs"));
        for lint in xtask::rules::STRICT_DENY {
            let bare = lint.trim_start_matches("clippy::");
            assert!(
                lib.contains(lint) || workspace_deny.contains(&format!("\n{bare} = \"deny\"")),
                "crates/{name}/src/lib.rs does not deny `{lint}`"
            );
        }
    }
}

/// No package may come from a registry or a git source: the build stays
/// offline and replay cannot pick up a third-party RNG or clock.
#[test]
fn lockfiles_list_no_external_packages() {
    for rel in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let lock = read(rel);
        assert!(lock.contains("[[package]]"), "{rel} lists no packages");
        let external = xtask::external_packages(&lock);
        assert!(
            external.is_empty(),
            "{rel} has external packages: {external:?}"
        );
    }
}
