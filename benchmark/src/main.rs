//! `equalizer-benchmark` — the repository benchmark (see README.md).
//!
//! ```text
//! run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR] [--bless]
//! compare DIR_A DIR_B
//! ```
//!
//! `run` measures every workload in fresh child processes of this binary,
//! one at a time, checks their outputs and prints the metrics; the last
//! line it prints is the JSON result of the last workload.

mod compare;
mod exec;
mod json;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::env;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use equalizer_power::PowerModel;

use exec::{OpRun, Pass};
use json::Value;
use workload::Workload;

const USAGE: &str = "usage: equalizer-benchmark run [--workload W] [--seed S] [--seconds N] \
                     [--trace [0|1]] [--out DIR] [--bless]\n       \
                     equalizer-benchmark compare DIR_A DIR_B";

/// The end-to-end metrics, as declared in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of the traced run, as declared in
/// `BENCHMARK.json`: those every workload measures.
const PER_LAYER: [(&str, &str); 24] = [
    ("engine.sm_step_n", "count"),
    ("engine.sm_step_s", "s"),
    ("engine.ns_per_sm_cycle", "ns"),
    ("engine.mem_step_n", "count"),
    ("engine.mem_step_s", "s"),
    ("engine.batched_frac", "fraction"),
    ("engine.epoch_step_self_s", "s"),
    ("engine.invocation_step_s", "s"),
    ("engine.new_s", "s"),
    ("governor.epoch_n", "count"),
    ("governor.epoch_s", "s"),
    ("observer.calls", "count"),
    ("observer.frac", "fraction"),
    ("pool.speedup", "x"),
    ("power.energy_s", "s"),
    ("sweep.busy_frac", "fraction"),
    ("harness.runs_requested", "count"),
    ("harness.runs_distinct", "count"),
    ("sim.sm_cycles", "count"),
    ("sim.warp_instrs", "count"),
    ("memsys.l1_hit_rate", "fraction"),
    ("memsys.l2_hit_rate", "fraction"),
    ("memsys.dram_per_kinstr", "1/kinstr"),
    ("trace.overhead_frac", "fraction"),
];

/// Fewest measured passes per run; each runs in its own child process.
const MIN_PASSES: usize = 2;

/// Fresh process starts timed for `setup_s` in each group. A group runs
/// before each pass and after the last one, so the starts sample several
/// moments of host interference.
const SETUP_STARTS_PER_GROUP: usize = 7;

/// Default measuring time, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The benchmark package directory (golden files, default output).
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).and_then(|a| run(&a)),
        Some("child") => parse_args(&args[1..]).and_then(|a| child(&a)),
        Some("compare") => compare::run(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("equalizer-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    bless: bool,
    /// Internal: the child stops once set up (a `setup_s` sample).
    setup_only: bool,
    /// Internal: the child also reruns op 0 at the other thread count.
    check_threads: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: package_dir().join("out"),
        bless: false,
        setup_only: false,
        check_threads: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                a.trace = true;
                match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        a.trace = false;
                        it.next();
                    }
                    Some("1") => {
                        it.next();
                    }
                    _ => {}
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--bless" => a.bless = true,
            "--setup-only" => a.setup_only = true,
            "--check-threads" => a.check_threads = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(w) = &a.workload {
        if !workload::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}`; known: {}",
                workload::NAMES.join(", ")
            ));
        }
    }
    if a.bless && (a.seed != 0 || a.trace) {
        return Err("--bless records untraced seed-0 runs only".to_string());
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metric(value: f64, unit: &str) -> Value {
    let mut m = Value::obj();
    m.set("value", value);
    m.set("unit", unit);
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics with units and notes, printed as `name value unit`.
#[derive(Default)]
struct Report {
    /// Declared metrics (`BENCHMARK.json`).
    metrics: Vec<(&'static str, f64, &'static str, String)>,
    /// Informational metrics, printed and stored only.
    extra: Vec<(&'static str, f64, &'static str, String)>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push((name, value, unit, note));
    }

    fn extra(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.extra.push((name, value, unit, note));
    }

    fn print(&self) {
        for (name, value, unit, note) in self.metrics.iter().chain(&self.extra) {
            if note.is_empty() {
                println!("{name} {value} {unit}");
            } else {
                println!("{name} {value} {unit}  # {note}");
            }
        }
    }

    /// Stores the metrics under `metrics`, `extra` and `notes`.
    fn store(&self, into: &mut Value) {
        let obj = |list: &[(&str, f64, &str, String)]| {
            let mut o = Value::obj();
            for (name, value, unit, _) in list {
                o.set(name, metric(*value, unit));
            }
            o
        };
        into.set("metrics", obj(&self.metrics));
        into.set("extra", obj(&self.extra));
        let mut notes = Value::obj();
        for (name, _, _, note) in self.metrics.iter().chain(&self.extra) {
            if !note.is_empty() {
                notes.set(name, note.as_str());
            }
        }
        into.set("notes", notes);
    }
}

// ---------------------------------------------------------------- parent

/// Runs a child to completion: its time to `ready`, and its other lines.
fn start_child(exe: &Path, args: &[String]) -> Result<(f64, Vec<String>), String> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let mut ready = None;
    let mut lines = Vec::new();
    let mut read_error = None;
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines() {
            match line {
                Ok(l) if ready.is_none() && l == "ready" => {
                    ready = Some(t0.elapsed().as_secs_f64());
                }
                Ok(l) => lines.push(l),
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    if let Some(e) = read_error {
        return Err(format!("reading child output: {e}"));
    }
    if !status.success() {
        return Err(format!("child {args:?} failed: {status}"));
    }
    Ok((ready.ok_or("child never reported ready")?, lines))
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// A child's result: the JSON on its last line, after its report lines.
fn child_result(exe: &Path, args: &[String]) -> Result<Value, String> {
    let (_, mut lines) = start_child(exe, args)?;
    let last = lines.pop().ok_or("child printed no result")?;
    lines.iter().for_each(|l| println!("{l}"));
    json::parse(&last).map_err(|e| format!("child result: {e}"))
}

fn run(a: &Args) -> Result<(), String> {
    let exe = env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let nproc = nproc();
    if nproc < 2 {
        eprintln!("warning: {nproc} core(s); the sweeps and single-run expect at least 2");
    }
    fs::create_dir_all(&a.out).map_err(|e| format!("cannot create {}: {e}", a.out.display()))?;
    let rustc = rustc_version();
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => workload::NAMES.to_vec(),
    };
    for name in names {
        let child_args = |extra: &[&str]| -> Vec<String> {
            [
                "child",
                "--workload",
                name,
                "--seed",
                &a.seed.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
                "--out",
                &a.out.display().to_string(),
            ]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect()
        };
        println!(
            "{name}: seed {} trace {} nproc {nproc}",
            a.seed,
            u8::from(a.trace)
        );
        let mut checker = Checker::new(name, a.seed, a.bless);
        let mut report = Report::default();
        let mut result = Value::obj();
        let mut setup = Vec::new();
        let mut problems = Vec::new();
        if a.trace {
            let child = child_result(&exe, &child_args(&[]))?;
            checker.check_child(&child);
            problems.extend(strings(&child, "problems"));
            for key in ["metrics", "extra", "notes", "sim_options"] {
                result.set(key, child.get(key).cloned().unwrap_or(Value::Null));
            }
            result.set("passes", 2usize);
        } else {
            let probe = child_args(&["--setup-only"]);
            let probe_group = |setup: &mut Vec<Vec<f64>>| -> Result<(), String> {
                let group = (0..SETUP_STARTS_PER_GROUP)
                    .map(|_| start_child(&exe, &probe).map(|(ready, _)| ready))
                    .collect::<Result<_, _>>()?;
                setup.push(group);
                Ok(())
            };
            let start = Instant::now();
            let mut children = Vec::new();
            loop {
                probe_group(&mut setup)?;
                // The first child also checks thread invariance (seed 0
                // is checked against the golden digests instead).
                let extra: &[&str] = if children.is_empty() && a.seed != 0 {
                    &["--check-threads"]
                } else {
                    &[]
                };
                let child = child_result(&exe, &child_args(extra))?;
                checker.check_child(&child);
                problems.extend(strings(&child, "problems"));
                let wall = child.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0);
                children.push(child);
                let next_ends = start.elapsed().as_secs_f64() + wall;
                if children.len() >= MIN_PASSES && next_ends > a.seconds {
                    break;
                }
            }
            probe_group(&mut setup)?;
            end_to_end(&mut report, &children, &setup);
            let walls = children.iter().filter_map(|c| c.get("wall_s").cloned());
            result.set("pass_walls_s", Value::Arr(walls.collect()));
            result.set(
                "sim_options",
                children[0]
                    .get("sim_options")
                    .cloned()
                    .unwrap_or(Value::Null),
            );
            result.set("passes", children.len());
        }
        if a.bless {
            checker.write_golden()?;
        }
        report.extra(
            "error_rate",
            ratio(checker.failed as f64, checker.attempted as f64),
            "fraction",
            format!(
                "{} failed of {} attempted",
                checker.failed, checker.attempted
            ),
        );
        problems.extend(checker.errors.iter().cloned());
        for p in &problems {
            eprintln!("{name}: {p}");
        }
        report.print();
        if !a.trace {
            report.store(&mut result);
        }

        result.set("workload", name);
        result.set("seed", a.seed);
        result.set("trace", a.trace);
        result.set("correct", checker.failed == 0 && problems.is_empty());
        result.set("attempted", checker.attempted);
        result.set("failed", checker.failed);
        result.set(
            "errors",
            Value::Arr(problems.into_iter().map(Value::Str).collect()),
        );
        let groups = setup
            .into_iter()
            .map(|g| Value::Arr(g.into_iter().map(Value::Num).collect()));
        result.set("setup_samples_s", Value::Arr(groups.collect()));
        result.set("nproc", nproc);
        result.set("rustc", rustc.as_str());
        let path = a.out.join(format!("{name}.json"));
        fs::write(&path, format!("{result}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

        let declared: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
        let metrics = result.get("metrics").cloned().unwrap_or(Value::Null);
        let mut shown = Value::obj();
        for (m, _) in declared {
            let v = metrics
                .get(m)
                .ok_or_else(|| format!("{name}: metric {m} missing"))?;
            shown.set(m, v.clone());
        }
        let mut summary = Value::obj();
        for key in ["correct", "attempted", "failed"] {
            summary.set(key, result.get(key).cloned().unwrap_or(Value::Null));
        }
        summary.set("metrics", shown);
        println!("{summary}");
    }
    Ok(())
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.as_str().map(str::to_string))
        .collect()
}

/// The end-to-end metrics from the measurement children and the setup
/// groups. An op's time is its fastest execution, the wall time is the
/// fastest pass, and the set-up time is the median of the fastest group:
/// host interference only ever slows a run down.
fn end_to_end(report: &mut Report, children: &[Value], setup: &[Vec<f64>]) {
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for run in children
        .iter()
        .flat_map(|c| c.get("runs").map(Value::items).unwrap_or_default())
    {
        let (Some(index), Some(secs)) = (
            run.get("index").and_then(Value::as_f64),
            run.get("secs").and_then(Value::as_f64),
        ) else {
            continue;
        };
        if run.get("kind").and_then(Value::as_str) == Some("pass") {
            let t = best.entry(index as usize).or_insert(secs);
            *t = t.min(secs);
        }
    }
    let ops: Vec<f64> = best.into_values().collect();
    let of = |key: &str| -> Vec<f64> {
        children
            .iter()
            .filter_map(|c| c.get(key).and_then(Value::as_f64))
            .collect()
    };
    let walls = of("wall_s");
    let wall = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let rss = of("peak_rss_mib").into_iter().fold(0.0, f64::max);
    let (tail, pct) = stats::tail(&ops);
    let n = children.len();
    report.add("wall_s", wall, "s", format!("fastest of {n} passes"));
    report.add(
        "op_p50_s",
        stats::median(&ops),
        "s",
        format!("{} ops, each its fastest of {n}", ops.len()),
    );
    report.add(
        "op_tail_s",
        tail,
        "s",
        format!("p{pct} of {} ops", ops.len()),
    );
    let setup_s = setup
        .iter()
        .map(|g| stats::median(g))
        .fold(f64::INFINITY, f64::min);
    report.add(
        "setup_s",
        setup_s,
        "s",
        format!(
            "median of {SETUP_STARTS_PER_GROUP} fresh starts, fastest of {} groups",
            setup.len()
        ),
    );
    report.add(
        "peak_rss_mib",
        rss,
        "MiB",
        "largest child VmHWM".to_string(),
    );
}

/// Output checks: every executed op is compared with its golden digest
/// (seed 0) or with the first digest seen for it.
struct Checker {
    name: String,
    /// Expected `(label, digest)` per op index.
    reference: Vec<Option<(String, u64)>>,
    /// The reference came from a golden file, so gaps are failures.
    golden: bool,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Checker {
    fn new(name: &str, seed: u64, bless: bool) -> Self {
        let mut c = Checker {
            name: name.to_string(),
            reference: Vec::new(),
            golden: seed == 0 && !bless,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        if c.golden {
            match read_golden(name) {
                Ok(golden) => c.reference = golden,
                Err(e) => c.errors.push(format!("no golden digests: {e}")),
            }
        }
        c
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }

    fn check(&mut self, op: &OpRun) {
        self.attempted += 1;
        let want = self.reference.get(op.index).cloned().flatten();
        match (&op.digest, want) {
            (Err(e), _) => self.fail(format!("{}: {e}", op.label)),
            (Ok(d), Some((label, w))) => {
                if (label.as_str(), w) != (op.label.as_str(), *d) {
                    self.fail(format!(
                        "{}: digest {d:016x}, expected {label} {w:016x}",
                        op.label
                    ));
                }
            }
            (Ok(_), None) if self.golden => {
                self.fail(format!("{}: no golden digest", op.label));
            }
            (Ok(d), None) => {
                if self.reference.len() <= op.index {
                    self.reference.resize(op.index + 1, None);
                }
                self.reference[op.index] = Some((op.label.clone(), *d));
            }
        }
    }

    /// Checks every op a child ran; replayed simulations have no
    /// reference and fail only on an error.
    fn check_child(&mut self, child: &Value) {
        for run in child.get("runs").map(Value::items).unwrap_or_default() {
            let op = run_from_json(run);
            if run.get("kind").and_then(Value::as_str) == Some("replay") {
                self.attempted += 1;
                if let Err(e) = &op.digest {
                    self.fail(format!("replay {}: {e}", op.label));
                }
            } else {
                self.check(&op);
            }
        }
    }

    fn write_golden(&self) -> Result<(), String> {
        let name = &self.name;
        let mut text = format!(
            "# {name}: per-op output digests at seed 0. \
             Regenerate with `run --workload {name} --bless`.\n"
        );
        for (label, d) in self.reference.iter().flatten() {
            text.push_str(&format!("{d:016x} {label}\n"));
        }
        let path = golden_path(name);
        fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn golden_path(name: &str) -> PathBuf {
    package_dir().join("golden").join(format!("{name}.txt"))
}

/// Reads `digest label` lines, skipping `#` comments.
fn read_golden(name: &str) -> Result<Vec<Option<(String, u64)>>, String> {
    let path = golden_path(name);
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (d, label) = l.split_once(' ').ok_or(format!("bad golden line `{l}`"))?;
            let d = u64::from_str_radix(d, 16).map_err(|_| format!("bad digest `{d}`"))?;
            Ok(Some((label.to_string(), d)))
        })
        .collect()
}

// ----------------------------------------------------------------- child

fn run_to_json(kind: &str, op: &OpRun) -> Value {
    let mut v = Value::obj();
    v.set("kind", kind);
    v.set("index", op.index);
    v.set("label", op.label.as_str());
    v.set("secs", op.secs);
    match &op.digest {
        Ok(d) => v.set("digest", format!("{d:016x}")),
        Err(e) => v.set("error", e.as_str()),
    }
    v
}

fn run_from_json(v: &Value) -> OpRun {
    let text = |k: &str| v.get(k).and_then(Value::as_str);
    OpRun {
        index: v.get("index").and_then(Value::as_f64).unwrap_or(0.0) as usize,
        label: text("label").unwrap_or("").to_string(),
        secs: v.get("secs").and_then(Value::as_f64).unwrap_or(0.0),
        digest: match (text("digest"), text("error")) {
            (Some(d), _) => u64::from_str_radix(d, 16).map_err(|_| format!("bad digest `{d}`")),
            (None, Some(e)) => Err(e.to_string()),
            (None, None) => Err("no digest".to_string()),
        },
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One measurement child: set up, report `ready`, warm up, run one pass
/// (untraced) or the traced measurement, and print the result as JSON.
fn child(a: &Args) -> Result<(), String> {
    let name = a.workload.as_deref().ok_or("child needs --workload")?;
    let workload = Workload::build(name, a.seed, nproc()).ok_or("unknown workload")?;
    let model = PowerModel::gtx480();
    println!("ready");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    if a.setup_only {
        return Ok(());
    }

    exec::warm_up(&model)?;
    let mut result = Value::obj();
    let mut runs = Vec::new();
    let mut problems = Vec::new();
    let other_threads = if workload.threads() == 1 { 2 } else { 1 };
    if a.trace {
        let report = traced(
            &workload,
            &model,
            other_threads,
            a,
            &mut runs,
            &mut problems,
        );
        report.print();
        report.store(&mut result);
    } else {
        let pass = exec::run_pass(&workload, &model, None);
        runs.extend(pass.ops.iter().map(|op| run_to_json("pass", op)));
        if a.check_threads {
            // Outputs must not depend on the thread count.
            let op = exec::rerun(&workload, 0, other_threads, &model);
            runs.push(run_to_json("rerun", &op));
        }
        result.set("wall_s", pass.wall_s);
        result.set("peak_rss_mib", peak_rss_mib());
    }
    result.set("runs", Value::Arr(runs));
    result.set(
        "sim_options",
        format!("{:?}", exec::options(workload.threads())),
    );
    result.set(
        "problems",
        Value::Arr(problems.into_iter().map(Value::Str).collect()),
    );
    println!("{result}");
    Ok(())
}

/// The traced measurement: an untraced pass, a traced pass (plus, for
/// `figures`, a traced replay of its simulations), thread-count reruns,
/// the per-layer metrics and the Chrome trace file.
fn traced(
    workload: &Workload,
    model: &PowerModel,
    other_threads: usize,
    a: &Args,
    runs: &mut Vec<Value>,
    problems: &mut Vec<String>,
) -> Report {
    let name = a.workload.as_deref().unwrap_or_default();
    let untraced = exec::run_pass(workload, model, None);
    let origin = Instant::now();
    let traced = exec::run_pass(workload, model, Some(origin));
    for op in untraced.ops.iter().chain(&traced.ops) {
        runs.push(run_to_json("pass", op));
    }
    let busy = ratio(
        traced.ops.iter().map(|o| o.secs).sum(),
        traced.workers as f64 * traced.wall_s,
    );
    // Per-op ratios, so a burst of host interference during one pass
    // moves the median little.
    let per_op: Vec<f64> = untraced
        .ops
        .iter()
        .zip(&traced.ops)
        .map(|(u, t)| t.secs / u.secs)
        .collect();
    let overhead = stats::median(&per_op) - 1.0;
    let Pass {
        ops: traced_ops,
        mut spans,
        mut layers,
        wall_s: traced_wall,
        workers,
    } = traced;
    if let Workload::Figures(_) = workload {
        // `Runner` keeps its simulations to itself, so the engine-level
        // numbers come from replaying the figures' simulations, in their
        // order, through the instrumented step loop.
        let replay = Workload::Sims {
            sims: workload.requested_sims(),
            workers: nproc().clamp(1, 2),
            threads: 1,
            observe: false,
        };
        let pass = exec::run_pass(&replay, model, Some(origin));
        runs.extend(pass.ops.iter().map(|op| run_to_json("replay", op)));
        trace::append(&mut spans, pass.spans);
        layers = pass.layers;
    }

    // Thread scaling: rerun ops at the other thread count (every op of
    // single-run, the first op elsewhere) against the untraced pass.
    let rerun: Vec<usize> = if workload.threads() == 2 {
        (0..workload.ops()).collect()
    } else {
        vec![0]
    };
    let (mut t1, mut t2) = (0.0, 0.0);
    for i in rerun {
        let op = exec::rerun(workload, i, other_threads, model);
        let (one, two) = if other_threads == 1 {
            (op.secs, untraced.ops[i].secs)
        } else {
            (untraced.ops[i].secs, op.secs)
        };
        t1 += one;
        t2 += two;
        runs.push(run_to_json("rerun", &op));
    }

    let named = trace::by_name(&spans);
    let total = |n: &str| named.get(n).map_or(0, |e| e.1) as f64;
    let count = |n: &str| named.get(n).map_or(0, |e| e.0) as f64;
    let steps = &layers.steps;
    let own_s = |kind: usize| steps[kind].1 as f64 / 1e9;
    let ticks = layers.sm_ticks as f64;
    let instrs = layers.warp_instrs as f64;
    let step_ns: u64 = steps.iter().map(|s| s.1).sum();
    let none = String::new;
    let mut r = Report::default();
    r.add(
        "engine.sm_step_n",
        steps[exec::SM_CYCLE].0 as f64,
        "count",
        none(),
    );
    r.add(
        "engine.sm_step_s",
        own_s(exec::SM_CYCLE),
        "s",
        "own time, callbacks excluded".into(),
    );
    r.add(
        "engine.ns_per_sm_cycle",
        ratio(step_ns as f64, ticks),
        "ns",
        "step-loop ns per SM cycle x SM".into(),
    );
    r.add(
        "engine.mem_step_n",
        steps[exec::MEM_CYCLE].0 as f64,
        "count",
        none(),
    );
    r.add("engine.mem_step_s", own_s(exec::MEM_CYCLE), "s", none());
    r.add(
        "engine.batched_frac",
        ratio(layers.batched_ticks as f64, ticks),
        "fraction",
        "batched SM ticks / SM ticks".into(),
    );
    r.add(
        "engine.epoch_step_self_s",
        own_s(exec::EPOCH_BOUNDARY),
        "s",
        format!("{} epoch steps", steps[exec::EPOCH_BOUNDARY].0),
    );
    r.add(
        "engine.invocation_step_s",
        own_s(exec::INVOCATION_START) + own_s(exec::INVOCATION_END),
        "s",
        none(),
    );
    r.add(
        "engine.new_s",
        total("engine.new") / 1e9,
        "s",
        format!("{} engines", count("engine.new")),
    );
    r.add("governor.epoch_n", count("governor.epoch"), "count", none());
    r.add(
        "governor.epoch_s",
        total("governor.epoch") / 1e9,
        "s",
        none(),
    );
    r.add(
        "observer.calls",
        layers.observer_calls as f64,
        "count",
        none(),
    );
    r.add(
        "observer.frac",
        ratio(total("observer"), total("op")),
        "fraction",
        "observer time / op time".into(),
    );
    r.add(
        "pool.speedup",
        ratio(t1, t2),
        "x",
        format!("{t1:.3} s at 1 thread / {t2:.3} s at 2"),
    );
    r.add("power.energy_s", total("power.energy") / 1e9, "s", none());
    r.add(
        "sweep.busy_frac",
        busy,
        "fraction",
        format!("{workers} worker(s)"),
    );
    r.add(
        "harness.runs_requested",
        workload.requested_sims().len() as f64,
        "count",
        none(),
    );
    r.add(
        "harness.runs_distinct",
        workload.distinct_sims() as f64,
        "count",
        none(),
    );
    r.add("sim.sm_cycles", ticks, "count", "SM cycles x SMs".into());
    r.add("sim.warp_instrs", instrs, "count", none());
    r.add(
        "memsys.l1_hit_rate",
        ratio(layers.l1.1 as f64, layers.l1.0 as f64),
        "fraction",
        none(),
    );
    r.add(
        "memsys.l2_hit_rate",
        ratio(layers.l2.1 as f64, layers.l2.0 as f64),
        "fraction",
        none(),
    );
    r.add(
        "memsys.dram_per_kinstr",
        ratio(layers.dram as f64, instrs / 1e3),
        "1/kinstr",
        none(),
    );
    r.add(
        "trace.overhead_frac",
        overhead,
        "fraction",
        format!(
            "median op traced/untraced - 1; pass walls {traced_wall:.3} s / {:.3} s",
            untraced.wall_s
        ),
    );
    r.extra("observer.s", total("observer") / 1e9, "s", none());
    if let Workload::Figures(_) = workload {
        for op in &traced_ops {
            let key = match op.label.as_str() {
                "figure4" => "harness.figure4_s",
                "figure7" => "harness.figure7_s",
                "figure8" => "harness.figure8_s",
                _ => "harness.figure9_s",
            };
            r.extra(key, op.secs, "s", none());
        }
    }

    println!("span self times ({} spans):", spans.len());
    println!(
        "  {:<16} {:>9} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (span, (n, tot, own)) in &named {
        println!(
            "  {span:<16} {n:>9} {:>12.6} {:>12.6}",
            *tot as f64 / 1e9,
            *own as f64 / 1e9
        );
    }
    let text = trace::chrome_json(&spans, name);
    if let Err(e) = equalizer_obs::json::validate(&text) {
        problems.push(format!("trace JSON invalid: {e}"));
    }
    let path = a.out.join(format!("{name}.trace.json"));
    if let Err(e) = fs::create_dir_all(&a.out).and_then(|()| fs::write(&path, text)) {
        problems.push(format!("cannot write {}: {e}", path.display()));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Value {
        let path = package_dir().join("../BENCHMARK.json");
        json::parse(&fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let spec = spec();
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, workload::NAMES);
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        for m in spec.get("end_to_end").unwrap().items() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m}");
        }
    }

    #[test]
    fn checker_counts_errors_mismatches_and_missing_goldens() {
        let op = |index, digest: Result<u64, String>| OpRun {
            index,
            label: format!("k{index}/baseline"),
            secs: 0.1,
            digest,
        };
        let mut c = Checker::new("test", 1, false);
        c.check(&op(0, Ok(7)));
        c.check(&op(0, Ok(7)));
        c.check(&op(0, Ok(8)));
        c.check(&op(1, Err("cycle limit".into())));
        assert_eq!((c.attempted, c.failed), (4, 2));
        c.golden = true;
        c.check(&op(2, Ok(1)));
        assert_eq!((c.attempted, c.failed), (5, 3));
    }

    #[test]
    fn op_runs_survive_the_child_result_line() {
        let ok = OpRun {
            index: 3,
            label: "mri-q/SM boost".into(),
            secs: 0.25,
            digest: Ok(u64::MAX - 5),
        };
        let back = run_from_json(&json::parse(&run_to_json("pass", &ok).to_string()).unwrap());
        assert_eq!(
            (back.index, &back.label, &back.digest),
            (3, &ok.label, &ok.digest)
        );
        let failed = OpRun {
            digest: Err("cycle limit".into()),
            ..back
        };
        let back = run_from_json(&run_to_json("rerun", &failed));
        assert_eq!(back.digest, Err("cycle limit".to_string()));
    }

    #[test]
    fn end_to_end_takes_fastest_executions() {
        let child = |wall: f64, secs: [f64; 2], rss: f64| {
            let mut c = Value::obj();
            c.set("wall_s", wall);
            c.set("peak_rss_mib", rss);
            let runs = secs
                .iter()
                .enumerate()
                .map(|(index, &s)| {
                    let op = OpRun {
                        index,
                        label: String::new(),
                        secs: s,
                        digest: Ok(0),
                    };
                    run_to_json("pass", &op)
                })
                .collect();
            c.set("runs", Value::Arr(runs));
            c
        };
        let mut r = Report::default();
        end_to_end(
            &mut r,
            &[child(10.0, [1.0, 4.0], 4.0), child(12.0, [2.0, 3.0], 5.0)],
            &[vec![0.4, 0.3, 0.5], vec![0.1, 0.3, 0.2]],
        );
        let got: Vec<(&str, f64)> = r.metrics.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(
            got,
            vec![
                ("wall_s", 10.0),
                ("op_p50_s", 2.0),
                ("op_tail_s", 3.0),
                ("setup_s", 0.2),
                ("peak_rss_mib", 5.0)
            ]
        );
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "1", "--seed", "3"]).unwrap().trace);
        let a = args(&["--trace", "0", "--seed", "3", "--seconds", "10"]).unwrap();
        assert!(!a.trace && a.seed == 3 && a.seconds == 10.0);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--bless", "--seed", "1"]).is_err());
    }
}
