//! `cargo xtask` — workspace automation.
//!
//! * `cargo xtask fixtures` — compiles every file of
//!   `crates/xtask/fixtures/` with `clippy-driver` under the strict
//!   crates' configuration; fails unless each errors exactly on its
//!   `//~ <lint>` markers and every ban in `crates/sim/clippy.toml`
//!   fires somewhere ([`xtask::check_all_fixtures`]).
//! * `cargo xtask ci` — the offline CI driver and the whole pipeline,
//!   the steps of `STEPS` in order: release build; clippy with
//!   warnings denied, with default features and with `validate`; the
//!   fixture check; the test suite and the `validate`-feature test
//!   suite; a smoke test of the `regenerate` bench target (Table I); a
//!   `sim-report` artifact smoke test; the fast-forward gate;
//!   the benchmark golden check; and a formatting check (skipped with a
//!   warning when rustfmt is absent). The determinism policy is clippy's
//!   (DESIGN.md §7); the test suites hold the rest, including the
//!   tagged-to-do rule and bit-identity of every fast path with per-tick
//!   stepping (`tests/window_determinism.rs`).

use std::env;
use std::path::PathBuf;
use std::process::{exit, Command};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let code = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["fixtures"] => cmd_fixtures(),
        ["ci"] => cmd_ci(),
        _ => {
            eprintln!("usage: cargo xtask <fixtures | ci>");
            2
        }
    };
    exit(code);
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn cmd_fixtures() -> i32 {
    let out_dir = workspace_root().join("target/xtask-fixtures");
    let result = std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string());
    match result.and_then(|()| xtask::check_all_fixtures(&workspace_root(), &out_dir)) {
        Ok(summary) => {
            println!("==> fixtures: {summary}");
            0
        }
        Err(msg) => {
            eprintln!("==> fixtures failed:\n{msg}");
            1
        }
    }
}

/// What one pipeline step runs.
enum Step {
    /// A cargo command line, split on whitespace.
    Cargo(&'static str),
    /// [`cmd_fixtures`], in process.
    Fixtures,
    /// The benchmark's `sweep-memory` workload at seed 0, whose result
    /// line must report `"correct":true`: every simulation's `RunStats`
    /// digest matches `benchmark/golden/`, so a hot-path rewrite that
    /// changes any result fails here. Edits nothing under `benchmark/`.
    Golden,
    /// `cargo fmt --check`, skipped when rustfmt is not installed.
    Fmt,
}

/// The CI pipeline, in order; the first failing step stops it.
const STEPS: &[(&str, Step)] = &[
    ("build", Step::Cargo("build --release")),
    (
        "clippy",
        Step::Cargo("clippy --workspace --all-targets -- -D warnings"),
    ),
    (
        "clippy (validate)",
        Step::Cargo("clippy --workspace --all-targets --features validate -- -D warnings"),
    ),
    ("fixtures", Step::Fixtures),
    ("test", Step::Cargo("test -q --workspace")),
    (
        "test (validate)",
        Step::Cargo("test -q --workspace --features validate"),
    ),
    // Regeneration smoke test: Table I is pure decision logic, so this
    // exercises the one bench target and its artifact selection in
    // seconds.
    (
        "regenerate smoke",
        Step::Cargo("bench -p equalizer-bench -- table1_actions"),
    ),
    // Observability smoke test: `--selfcheck` re-reads the written
    // bundle (the Perfetto trace must parse as JSON, the CSVs and summary
    // must have their expected shapes).
    (
        "sim-report smoke",
        Step::Cargo(
            "run --release -p equalizer-harness --bin sim-report -- --workload mmer --sms 2 \
             --out target/sim-report-smoke --selfcheck",
        ),
    ),
    // Fast-forward gate: `RunStats` bit-identity between `fast_forward`
    // on and off under every governor family, and a >= 1.5x median serial
    // speedup on 15-SM `mri-q` over interleaved pairs. One core is
    // enough, so this gate never skips.
    (
        "fast-forward gate (sim-ffcheck)",
        Step::Cargo("run --release -p equalizer-harness --bin sim-ffcheck"),
    ),
    (
        "benchmark unit tests",
        Step::Cargo("test -q --manifest-path benchmark/Cargo.toml"),
    ),
    ("benchmark golden", Step::Golden),
    ("fmt", Step::Fmt),
];

const GOLDEN: &str = "run --release --quiet --manifest-path benchmark/Cargo.toml -- run \
                      --workload sweep-memory --seed 0 --out target/benchmark-golden";

fn cmd_ci() -> i32 {
    let cargo = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let cargo_cmd = |args: &str| {
        let mut cmd = Command::new(&cargo);
        cmd.args(args.split_whitespace())
            .current_dir(workspace_root());
        cmd
    };
    for (label, step) in STEPS {
        let result = match step {
            Step::Cargo(args) => {
                println!("==> {label}: cargo {args}");
                run(cargo_cmd(args))
            }
            Step::Fixtures => match cmd_fixtures() {
                0 => Ok(String::new()),
                _ => Err("see above".to_string()),
            },
            Step::Golden => {
                println!("==> {label}: cargo {GOLDEN}");
                match cargo_cmd(GOLDEN).output() {
                    Ok(out) if out.status.success() => {
                        check_result_line(&String::from_utf8_lossy(&out.stdout))
                    }
                    Ok(out) => Err(format!(
                        "{}\n{}{}",
                        out.status,
                        String::from_utf8_lossy(&out.stdout),
                        String::from_utf8_lossy(&out.stderr)
                    )),
                    Err(err) => Err(format!("failed to start: {err}")),
                }
            }
            // rustfmt ships with rustup toolchains but not every bare
            // cargo install; a missing formatter should not fail offline CI.
            Step::Fmt => match cargo_cmd("fmt --version").output() {
                Ok(out) if out.status.success() => {
                    println!("==> {label}: cargo fmt --all -- --check");
                    run(cargo_cmd("fmt --all -- --check"))
                }
                _ => Ok("rustfmt not installed, skipping format check".to_string()),
            },
        };
        match result {
            Ok(note) if note.is_empty() => {}
            Ok(note) => println!("==> {label}: {note}"),
            Err(msg) => {
                eprintln!("==> {label} failed: {msg}");
                return 1;
            }
        }
    }
    println!("==> ci: all steps passed");
    0
}

/// Runs `cmd`, streaming its output; `Ok` with no note on success.
fn run(mut cmd: Command) -> Result<String, String> {
    match cmd.status() {
        Ok(status) if status.success() => Ok(String::new()),
        Ok(status) => Err(status.to_string()),
        Err(err) => Err(format!("failed to start: {err}")),
    }
}

/// Checks the benchmark's last output line, one JSON object, for
/// `"correct":true`; returns that line.
fn check_result_line(stdout: &str) -> Result<String, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default();
    if last.starts_with('{') && last.contains("\"correct\":true") {
        Ok(last.to_string())
    } else {
        Err(format!("result line is not correct:true: {last}"))
    }
}

#[cfg(test)]
mod tests {
    use super::check_result_line;

    #[test]
    fn result_line_must_report_correct() {
        let ok = "wall_s 7.7 s\n{\"correct\":true,\"attempted\":48}\n";
        assert_eq!(
            check_result_line(ok),
            Ok("{\"correct\":true,\"attempted\":48}".to_string())
        );
        assert!(check_result_line("{\"correct\":false,\"attempted\":48}\n").is_err());
        assert!(check_result_line("{\"correct\":true}\nwall_s 7.7 s\n").is_err());
        assert!(check_result_line("").is_err());
    }
}
