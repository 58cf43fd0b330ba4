//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `cargo xtask lint [paths...]` — run the determinism/robustness/
//!   hygiene lint suite. With no paths, lints the whole workspace with
//!   per-crate rule coverage; explicit paths are linted under the
//!   strictest profile. Exits non-zero when findings survive.
//! * `cargo xtask analyze [--format json] [--explain <rule>] [paths...]`
//!   — the call-graph effect-analysis engine: proves the two-phase
//!   discipline (`local-phase-purity`, `commit-only-mutation`,
//!   `lock-order`, `float-accum-order`) over the simulation crates.
//!   With no paths, analyzes the workspace's analysis universe; explicit
//!   paths form one call-graph universe. Exits non-zero on error-severity
//!   findings; warnings are advisory.
//! * `cargo xtask ci` — the offline CI driver and the whole pipeline:
//!   release build, clippy with warnings denied
//!   (`--workspace --all-targets`), the test suite, the
//!   `validate`-feature test suite, the lint pass,
//!   the effect-analysis pass (its JSON report lands in
//!   `target/analyze-report.json`), a `sim-report` artifact smoke test,
//!   the fast-forward gate (`sim-ffcheck`: bit-identical `RunStats`
//!   with `SimOptions::fast_forward` on vs off under every governor,
//!   and a ≥ 1.5× median serial speedup on 15-SM `mri-q`; runs on any core
//!   count), a benchmark golden check (the benchmark's unit tests, then
//!   its `sweep-memory` workload at seed 0 must report
//!   `"correct":true`), and a formatting check (skipped with a warning
//!   when rustfmt is absent). Bit-identity of every fast path with per-tick stepping is
//!   a tier-1 test (`tests/window_determinism.rs`), so both test runs
//!   above enforce it.

use std::env;
use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::Instant;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("ci") => cmd_ci(),
        Some(other) => {
            eprintln!("error: unknown subcommand `{other}`");
            eprintln!("{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    exit(code);
}

const USAGE: &str =
    "usage: cargo xtask <lint [paths...] | analyze [--format json] [--explain <rule>] [paths...] | ci>";

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

fn cmd_lint(paths: &[String]) -> i32 {
    let report = if paths.is_empty() {
        xtask::lint_workspace(&workspace_root())
    } else {
        xtask::lint_paths(&paths.iter().map(PathBuf::from).collect::<Vec<_>>())
    };
    let report = match report {
        Ok(r) => r,
        Err(err) => {
            eprintln!("error: lint walk failed: {err}");
            return 2;
        }
    };

    for finding in &report.findings {
        println!("{finding}");
    }
    if !report.suppressed.is_empty() {
        println!("suppressed ({}):", report.suppressed.len());
        for s in &report.suppressed {
            println!(
                "  {}:{}: [{}] allowed -- {}",
                s.file.display(),
                s.line,
                s.rule,
                s.reason
            );
        }
    }
    println!(
        "lint: {} file(s) scanned, {} finding(s), {} suppressed",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len()
    );
    i32::from(!report.is_clean())
}

/// Prints an [`xtask::AnalysisReport`] in the human format and returns
/// the exit code (non-zero when error-severity findings survive).
fn print_analysis(report: &xtask::AnalysisReport) -> i32 {
    for finding in &report.findings {
        println!("{finding}");
    }
    if !report.suppressed.is_empty() {
        println!("suppressed ({}):", report.suppressed.len());
        for s in &report.suppressed {
            println!(
                "  {}:{}: [{}] allowed -- {}",
                s.file.display(),
                s.line,
                s.rule,
                s.reason
            );
        }
    }
    println!(
        "analyze: {} file(s), {} error(s), {} warning(s), {} suppressed",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        report.suppressed.len()
    );
    i32::from(!report.is_clean())
}

fn cmd_analyze(args: &[String]) -> i32 {
    let mut json = false;
    let mut explain: Option<String> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                other => {
                    eprintln!(
                        "error: --format needs `json` or `human`, got {:?}",
                        other.unwrap_or("<missing>")
                    );
                    return 2;
                }
            },
            "--explain" => match it.next() {
                Some(rule) => explain = Some(rule.clone()),
                None => {
                    eprintln!("error: --explain needs a rule name");
                    return 2;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag `{other}`");
                eprintln!("{USAGE}");
                return 2;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    if let Some(rule) = explain {
        return match xtask::explain(&rule) {
            Some(text) => {
                println!("{text}");
                0
            }
            None => {
                eprintln!("error: unknown rule `{rule}`");
                eprintln!(
                    "known rules: {}",
                    xtask::ANALYZE_RULES
                        .iter()
                        .chain(xtask::RULES)
                        .copied()
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                2
            }
        };
    }

    let report = if paths.is_empty() {
        xtask::analyze_workspace(&workspace_root())
    } else {
        xtask::analyze_paths(&paths)
    };
    let report = match report {
        Ok(r) => r,
        Err(err) => {
            eprintln!("error: analyze walk failed: {err}");
            return 2;
        }
    };
    if json {
        println!("{}", report.to_json());
        i32::from(!report.is_clean())
    } else {
        print_analysis(&report)
    }
}

/// Runs one cargo step, streaming its output; returns success.
fn run_step(cargo: &str, label: &str, args: &[&str]) -> bool {
    println!("==> {label}: cargo {}", args.join(" "));
    match Command::new(cargo)
        .args(args)
        .current_dir(workspace_root())
        .status()
    {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("==> {label} failed: {status}");
            false
        }
        Err(err) => {
            eprintln!("==> {label} failed to start: {err}");
            false
        }
    }
}

fn cmd_ci() -> i32 {
    let cargo = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());

    // Clippy denies every warning across all targets. The test suite of
    // every workspace crate then runs twice: as is, and with the
    // `validate` sanitizers armed.
    let steps: &[(&str, &[&str])] = &[
        ("build", &["build", "--release"]),
        (
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
        ),
        ("test", &["test", "-q", "--workspace"]),
        (
            "test (validate)",
            &["test", "-q", "--workspace", "--features", "validate"],
        ),
    ];
    for (label, args) in steps {
        if !run_step(&cargo, label, args) {
            return 1;
        }
    }

    println!("==> lint: workspace scan");
    let lint_started = Instant::now();
    if cmd_lint(&[]) != 0 {
        eprintln!("==> lint failed");
        return 1;
    }
    println!(
        "==> lint: pass completed in {:.3}s (single-scan walk)",
        lint_started.elapsed().as_secs_f64()
    );

    // Effect-analysis smoke: run the analyzer in-process, gate on
    // error-severity findings, and leave the machine-readable report
    // where the CI workflow can pick it up as an artifact.
    println!("==> analyze: effect analysis");
    let analyze_started = Instant::now();
    match xtask::analyze_workspace(&workspace_root()) {
        Ok(report) => {
            let json_path = workspace_root().join("target").join("analyze-report.json");
            if let Some(dir) = json_path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(err) = std::fs::write(&json_path, report.to_json()) {
                eprintln!(
                    "==> analyze: could not write {}: {err}",
                    json_path.display()
                );
                return 1;
            }
            let code = print_analysis(&report);
            println!(
                "==> analyze: pass completed in {:.3}s, report at {}",
                analyze_started.elapsed().as_secs_f64(),
                json_path.display()
            );
            if code != 0 {
                eprintln!("==> analyze failed");
                return 1;
            }
        }
        Err(err) => {
            eprintln!("==> analyze failed to run: {err}");
            return 1;
        }
    }

    // Offline observability smoke test: run sim-report on a small
    // configuration and let its --selfcheck verify the artifacts (the
    // Perfetto trace must parse as JSON, the CSVs and summary must have
    // their expected shapes).
    if !run_step(
        &cargo,
        "sim-report smoke",
        &[
            "run",
            "--release",
            "-p",
            "equalizer-harness",
            "--bin",
            "sim-report",
            "--",
            "--workload",
            "mmer",
            "--sms",
            "2",
            "--out",
            "target/sim-report-smoke",
            "--selfcheck",
        ],
    ) {
        return 1;
    }

    // Fast-forward gate: fused windows and the fast-issue cuts must be
    // invisible in results and visible in wall clock. `sim-ffcheck` runs
    // in-process simulations asserting (1) RunStats bit-identity between
    // `fast_forward` on and off under every governor family, and (2) a
    // >= 1.5x median serial speedup on 15-SM `mri-q` over interleaved
    // on/off pairs. A single core is enough: the fast path
    // skips work rather than spreading it, so this gate never skips.
    if !run_step(
        &cargo,
        "fast-forward gate (sim-ffcheck)",
        &[
            "run",
            "--release",
            "-p",
            "equalizer-harness",
            "--bin",
            "sim-ffcheck",
        ],
    ) {
        return 1;
    }

    // Golden-digest gate: the repository benchmark checks every
    // simulation's `RunStats` digest against `benchmark/golden/` at seed
    // 0, so hot-path rewrites that change any result fail here. Runs the
    // benchmark's own unit tests first; edits nothing under `benchmark/`.
    if !run_step(
        &cargo,
        "benchmark unit tests",
        &["test", "-q", "--manifest-path", "benchmark/Cargo.toml"],
    ) {
        return 1;
    }
    match run_benchmark_golden(&cargo) {
        Ok(msg) => println!("==> benchmark golden: {msg}"),
        Err(msg) => {
            eprintln!("==> benchmark golden failed: {msg}");
            return 1;
        }
    }

    // rustfmt ships with rustup toolchains but not every bare cargo
    // install; a missing formatter should not fail offline CI.
    let fmt_available = Command::new(&cargo)
        .args(["fmt", "--version"])
        .current_dir(workspace_root())
        .output()
        .map(|out| out.status.success())
        .unwrap_or(false);
    if fmt_available {
        if !run_step(&cargo, "fmt", &["fmt", "--all", "--", "--check"]) {
            return 1;
        }
    } else {
        eprintln!("==> fmt: rustfmt not installed, skipping format check");
    }

    println!("==> ci: all steps passed");
    0
}

/// Runs the benchmark's `sweep-memory` workload at seed 0 and requires
/// its result line to report `"correct":true` (every digest matches the
/// golden file).
fn run_benchmark_golden(cargo: &str) -> Result<String, String> {
    let args = [
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
        "--workload",
        "sweep-memory",
        "--seed",
        "0",
        "--out",
        "target/benchmark-golden",
    ];
    println!("==> benchmark golden: cargo {}", args.join(" "));
    let out = Command::new(cargo)
        .args(args)
        .current_dir(workspace_root())
        .output()
        .map_err(|err| format!("failed to start: {err}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{}\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    check_result_line(&stdout)
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
