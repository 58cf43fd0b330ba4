//! `sim-report` — run one catalog workload under Equalizer and dump a
//! full observability bundle to a directory:
//!
//! * `trace.json` — Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`): per-SM epoch slices, VF-transition instants
//!   and one counter track per metric;
//! * `metrics/<name>.csv` — one CSV per registered metric;
//! * `summary.txt` — metric summary table plus a decision-audit digest.
//!
//! All three artifacts are derived purely from the deterministic
//! simulation, so identical invocations produce byte-identical files.
//! Host-side wall-clock profiling of the simulator goes to stdout only.
//!
//! ```text
//! sim-report [--workload NAME] [--mode energy|performance]
//!            [--sms N] [--out DIR] [--selfcheck]
//! ```

use std::collections::BTreeMap;
use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use equalizer_core::{Equalizer, Mode};
use equalizer_harness::profile::run_profiled;
use equalizer_obs::{chrome, csv, json, summary, MetricsObserver};
use equalizer_power::PowerModel;
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::Engine;
use equalizer_sim::gpu::SimOptions;
use equalizer_workloads::{kernel_by_name, table_ii_kernels};

const USAGE: &str = "usage: sim-report [--workload NAME] [--mode energy|performance] \
                     [--sms N] [--out DIR] [--selfcheck]";

struct Options {
    workload: String,
    mode: Mode,
    sms: Option<usize>,
    out: PathBuf,
    selfcheck: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: "mmer".to_string(),
            mode: Mode::Performance,
            sms: None,
            out: PathBuf::from("sim-report-out"),
            selfcheck: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" | "-w" => opts.workload = value(arg)?,
            "--mode" | "-m" => {
                opts.mode = match value(arg)?.as_str() {
                    "energy" => Mode::Energy,
                    "performance" => Mode::Performance,
                    other => return Err(format!("unknown mode `{other}`\n{USAGE}")),
                }
            }
            "--sms" => {
                let v = value(arg)?;
                opts.sms = Some(
                    v.parse()
                        .map_err(|_| format!("--sms needs an integer, got `{v}`"))?,
                );
            }
            "--out" | "-o" => opts.out = PathBuf::from(value(arg)?),
            "--selfcheck" => opts.selfcheck = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

#[allow(
    clippy::disallowed_methods,
    reason = "a binary's `main` reads its command line"
)]
fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sim-report: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;

    let mut config = GpuConfig::gtx480();
    if let Some(n) = opts.sms {
        if n == 0 {
            return Err("--sms must be at least 1".to_string());
        }
        config.num_sms = n;
    }
    let kernel = kernel_by_name(&opts.workload).ok_or_else(|| {
        let known: Vec<String> = table_ii_kernels()
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        format!(
            "unknown workload `{}`; known: {}",
            opts.workload,
            known.join(", ")
        )
    })?;

    let model = PowerModel::gtx480();
    let mut obs = MetricsObserver::new(model);
    let mut governor = Equalizer::new(opts.mode, config.num_sms).with_audit();

    let (stats, host_profile) = {
        let mut engine = Engine::new(&config, &kernel, SimOptions::default())
            .map_err(|e| format!("engine setup failed: {e}"))?
            .with_observer(&mut obs);
        run_profiled(&mut engine, &mut governor).map_err(|e| format!("simulation failed: {e}"))?
    };
    if let Some(err) = obs.error() {
        return Err(format!("metrics collection failed: {err}"));
    }

    // --- Deterministic artifacts.
    let metrics_dir = opts.out.join("metrics");
    fs::create_dir_all(&metrics_dir)
        .map_err(|e| format!("cannot create {}: {e}", metrics_dir.display()))?;

    let trace = chrome::chrome_trace(&obs);
    let trace_path = opts.out.join("trace.json");
    fs::write(&trace_path, &trace).map_err(|e| format!("cannot write trace.json: {e}"))?;

    let csvs = csv::all_csvs(obs.registry());
    let csv_count = csvs.len();
    for (file, contents) in csvs {
        let path = metrics_dir.join(&file);
        fs::write(&path, contents).map_err(|e| format!("cannot write {file}: {e}"))?;
    }

    let energy = model.energy(&stats);
    // `batched_ticks` counts machine ticks, once per window whatever the
    // SM count, so the coverage denominator is the machine's tick count.
    let total_sm_ticks = stats.sm_cycles_at.iter().sum::<u64>();
    let batched_pct = if total_sm_ticks == 0 {
        0.0
    } else {
        100.0 * stats.batched_ticks as f64 / total_sm_ticks as f64
    };
    let mut report = format!(
        "sim-report: workload {}, mode {}, {} SMs\n\
         simulated {:.6} s wall, {} instructions, {:.3} J total energy\n\
         {} epoch(s), {} VF transition(s) observed\n\
         {} epoch(s) executed, {} of {} SM ticks in fused windows ({:.1}%)\n\n",
        kernel.name(),
        opts.mode,
        config.num_sms,
        stats.wall_time_fs as f64 / 1e15,
        stats.instructions(),
        energy.total_j(),
        obs.registry()
            .get("issue.rate")
            .map(|m| m.points.len())
            .unwrap_or(0),
        obs.vf_events().len(),
        stats.epochs_executed,
        stats.batched_ticks,
        total_sm_ticks,
        batched_pct,
    );
    report.push_str(&summary::summary(obs.registry()));
    report.push_str(&audit_digest(&governor));

    let summary_path = opts.out.join("summary.txt");
    fs::write(&summary_path, &report).map_err(|e| format!("cannot write summary.txt: {e}"))?;

    // --- Host-side profiling: stdout only, never into the artifacts.
    println!("host profile ({}):", kernel.name());
    println!("{}", host_profile.render());
    println!(
        "wrote {} + {} CSV(s) + {}",
        trace_path.display(),
        csv_count,
        summary_path.display()
    );

    if opts.selfcheck {
        selfcheck(&opts)?;
        println!("selfcheck ok");
    }
    Ok(())
}

/// Deterministic digest of the Equalizer decision-audit trail.
fn audit_digest(governor: &Equalizer) -> String {
    let records = governor.audit();
    let mut out = format!("\ndecision audit: {} record(s)\n", records.len());
    let mut tendencies: BTreeMap<String, usize> = BTreeMap::new();
    let mut applied = 0usize;
    for rec in records {
        for sm in &rec.sms {
            *tendencies.entry(format!("{:?}", sm.tendency)).or_insert(0) += 1;
            if sm.block_change_applied() {
                applied += 1;
            }
        }
    }
    for (tendency, count) in &tendencies {
        out.push_str(&format!("  tendency {tendency}: {count}\n"));
    }
    out.push_str(&format!("  SM block-target changes applied: {applied}\n"));
    let shown = records.len().min(5);
    if shown > 0 {
        out.push_str(&format!("  first {shown} decision(s):\n"));
        for rec in &records[..shown] {
            out.push_str(&format!("    {}\n", rec.explain()));
        }
    }
    out
}

/// Validates the written artifacts; used by `cargo xtask ci` as an
/// offline smoke test.
fn selfcheck(opts: &Options) -> Result<(), String> {
    let trace_path = opts.out.join("trace.json");
    let trace = fs::read_to_string(&trace_path)
        .map_err(|e| format!("selfcheck: cannot read {}: {e}", trace_path.display()))?;
    json::validate(&trace)
        .map_err(|e| format!("selfcheck: {} is not valid JSON: {e}", trace_path.display()))?;
    if !trace.contains("\"traceEvents\"") {
        return Err("selfcheck: trace.json has no traceEvents array".to_string());
    }

    let summary_path = opts.out.join("summary.txt");
    let report = fs::read_to_string(&summary_path)
        .map_err(|e| format!("selfcheck: cannot read {}: {e}", summary_path.display()))?;
    if !report.contains("metric") || !report.contains("decision audit") {
        return Err("selfcheck: summary.txt is missing expected sections".to_string());
    }

    let metrics_dir = opts.out.join("metrics");
    let mut csv_files = 0usize;
    let entries = fs::read_dir(&metrics_dir)
        .map_err(|e| format!("selfcheck: cannot read {}: {e}", metrics_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("selfcheck: {e}"))?;
        let contents = fs::read_to_string(entry.path())
            .map_err(|e| format!("selfcheck: cannot read {}: {e}", entry.path().display()))?;
        let ok =
            contents.starts_with("epoch,t_fs,value") || contents.starts_with("upper_bound,count");
        if !ok {
            return Err(format!(
                "selfcheck: {} has an unexpected header",
                entry.path().display()
            ));
        }
        csv_files += 1;
    }
    if csv_files == 0 {
        return Err("selfcheck: no metric CSVs were written".to_string());
    }
    Ok(())
}
