//! `sim-ffcheck` — the event-driven fast-forward CI gate.
//!
//! Three assertions, in order of importance:
//!
//! 1. **Bit-identity.** `SimOptions::fast_forward` is a wall-clock knob
//!    and must never change simulated results. The gate runs the
//!    memory-active tier-1 workload (`mri-q`, full 15-SM GTX 480) under
//!    every governor family — static, Equalizer in both modes, DynCTA
//!    and the CCWS baseline (which disables fused windows) — and
//!    requires `RunStats` equality between the on and off runs of each
//!    pair. (`RunStats` equality deliberately
//!    excludes the `batched_ticks` diagnostic.)
//! 2. **Coverage.** On a stall-heavy workload — warps sleeping on
//!    outstanding loads and long dependence chains, the shape the
//!    event-driven window proof exists for — at least half of all SM
//!    ticks must execute inside batched windows. Issue-saturated
//!    kernels like `mri-q` physically cannot reach that (nearly every
//!    cycle issues, so nearly every cycle must run the pipeline); for
//!    them the gate only requires that fast-forward strictly beats the
//!    quiescence-gated batching and reports the coverage it saw.
//! 3. **Speedup.** `mri-q` on the 15-SM machine must be at
//!    least 1.5x faster (median over interleaved on/off pairs, so host
//!    load drift cancels) with fast-forward on.
//!
//! Runs entirely in-process; `cargo xtask ci` invokes it on every host
//! (a single core is enough — the fast path is about skipping work, not
//! spreading it).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use equalizer_baselines::{ccws_baseline, DynCta};
use equalizer_core::{Equalizer, Mode};
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::Engine;
use equalizer_sim::governor::{Governor, StaticGovernor};
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::program::{Instr, Program, Segment};
use equalizer_sim::stats::RunStats;
use equalizer_workloads::kernel_by_name;

/// Minimum batched-tick share on the stall-heavy workload.
const COVERAGE_TARGET: f64 = 0.50;
/// Minimum median on/off speedup on 15-SM `mri-q`.
const SPEEDUP_TARGET: f64 = 1.5;
/// Interleaved on/off timing pairs for the speedup median.
const SPEEDUP_PAIRS: usize = 5;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sim-ffcheck: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One completed run: its results and its window diagnostics.
struct Run {
    stats: RunStats,
    batched_ticks: u64,
    total_ticks: u64,
    fused_ticks: u64,
    wall: f64,
}

fn simulate(
    config: &GpuConfig,
    kernel: &KernelSpec,
    governor: &mut dyn Governor,
    options: SimOptions,
) -> Result<Run, String> {
    let start = Instant::now();
    let mut engine =
        Engine::new(config, kernel, options).map_err(|e| format!("engine setup: {e}"))?;
    let stats = engine.run(governor).map_err(|e| format!("run: {e}"))?;
    Ok(Run {
        batched_ticks: engine.batched_ticks(),
        total_ticks: stats.sm_cycles_at.iter().sum(),
        fused_ticks: engine.batch_window_stats().fused_ticks,
        wall: start.elapsed().as_secs_f64(),
        stats,
    })
}

/// A workload whose warps spend most cycles asleep — one streaming load
/// then a long dependence chain per pass — so batched windows, not the
/// per-cycle pipeline, should carry the run.
fn stall_kernel() -> KernelSpec {
    // One streaming load, then a dependence chain long enough that the
    // memory system fully drains while every warp crawls through it:
    // the chain phase is where wide windows open (long issue runway, no
    // memory events), the load phase is where the memory-event horizon
    // earns its keep. Low occupancy keeps warps from papering over each
    // other's stalls with issues.
    let mut body = vec![Instr::load_streaming()];
    body.extend(std::iter::repeat_with(Instr::alu_dep).take(96));
    KernelSpec::new(
        "ffcheck-stall",
        KernelCategory::Memory,
        2,
        2,
        vec![Invocation {
            grid_blocks: 60,
            program: Arc::new(Program::new(vec![Segment::new(body, 12)])),
        }],
    )
}

fn run() -> Result<(), String> {
    let config = GpuConfig::gtx480();
    let mri_q = kernel_by_name("mri-q").ok_or("mri-q missing from the workload catalog")?;

    // --- 1. bit-identity across governors and the knob.
    type Setup = (
        &'static str,
        fn(&GpuConfig) -> (GpuConfig, Box<dyn Governor>),
    );
    let systems: &[Setup] = &[
        ("static", |c| (c.clone(), Box::new(StaticGovernor))),
        ("equalizer-perf", |c| {
            (
                c.clone(),
                Box::new(Equalizer::new(Mode::Performance, c.num_sms)),
            )
        }),
        ("equalizer-energy", |c| {
            (c.clone(), Box::new(Equalizer::new(Mode::Energy, c.num_sms)))
        }),
        ("dyncta", |c| (c.clone(), Box::new(DynCta::new()))),
        ("ccws", |c| {
            let (c, g) = ccws_baseline(c.clone());
            (c, Box::new(g))
        }),
    ];
    for (name, setup) in systems {
        let mut pair = Vec::new();
        for fast_forward in [true, false] {
            let (config, mut governor) = setup(&config);
            let options = SimOptions {
                fast_forward,
                ..SimOptions::default()
            };
            pair.push(simulate(&config, &mri_q, governor.as_mut(), options)?);
        }
        if pair[0].stats != pair[1].stats {
            return Err(format!(
                "mri-q under `{name}`: RunStats diverge between fast-forward on and off"
            ));
        }
        println!(
            "identity {name:<17} ok (batched {} vs {} of {} SM ticks)",
            pair[0].batched_ticks, pair[1].batched_ticks, pair[0].total_ticks
        );
    }

    // --- 2. window coverage.
    let stall = stall_kernel();
    let mut on = simulate(&config, &stall, &mut StaticGovernor, SimOptions::default())?;
    let off = simulate(
        &config,
        &stall,
        &mut StaticGovernor,
        SimOptions {
            fast_forward: false,
            ..SimOptions::default()
        },
    )?;
    if on.stats != off.stats {
        return Err("stall workload: RunStats diverge between fast-forward on and off".into());
    }
    let share = on.batched_ticks as f64 / on.total_ticks.max(1) as f64;
    println!(
        "coverage stall-heavy: {:.1}% of {} SM ticks batched ({} fused), vs {:.1}% gated on \
         quiescence",
        100.0 * share,
        on.total_ticks,
        on.fused_ticks,
        100.0 * off.batched_ticks as f64 / off.total_ticks.max(1) as f64,
    );
    if share < COVERAGE_TARGET {
        return Err(format!(
            "stall workload coverage {:.1}% is under the {:.0}% target",
            100.0 * share,
            100.0 * COVERAGE_TARGET
        ));
    }
    on = simulate(&config, &mri_q, &mut StaticGovernor, SimOptions::default())?;
    let off = simulate(
        &config,
        &mri_q,
        &mut StaticGovernor,
        SimOptions {
            fast_forward: false,
            ..SimOptions::default()
        },
    )?;
    println!(
        "coverage mri-q: {:.1}% of {} SM ticks batched ({} fused), vs {:.2}% gated on quiescence \
         (issue-saturated: no 50% target here)",
        100.0 * on.batched_ticks as f64 / on.total_ticks.max(1) as f64,
        on.total_ticks,
        on.fused_ticks,
        100.0 * off.batched_ticks as f64 / off.total_ticks.max(1) as f64,
    );
    if on.batched_ticks <= off.batched_ticks {
        return Err(format!(
            "mri-q: event-driven batching ({} ticks) does not beat quiescence gating ({} ticks)",
            on.batched_ticks, off.batched_ticks
        ));
    }

    // --- 3. wall-clock speedup, interleaved pairs.
    let mut ratios = Vec::new();
    for i in 0..SPEEDUP_PAIRS {
        let on = simulate(&config, &mri_q, &mut StaticGovernor, SimOptions::default())?;
        let off = simulate(
            &config,
            &mri_q,
            &mut StaticGovernor,
            SimOptions {
                fast_forward: false,
                ..SimOptions::default()
            },
        )?;
        let ratio = off.wall / on.wall.max(1e-9);
        println!(
            "speedup pair {i}: {:.3}s off / {:.3}s on = {ratio:.2}x",
            off.wall, on.wall
        );
        ratios.push(ratio);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median = ratios[ratios.len() / 2];
    if median < SPEEDUP_TARGET {
        return Err(format!(
            "15-SM mri-q median speedup {median:.2}x is under the \
             {SPEEDUP_TARGET:.1}x target"
        ));
    }
    println!(
        "sim-ffcheck ok: bit-identical under every governor, stall coverage above \
         {:.0}%, mri-q median speedup {median:.2}x",
        100.0 * COVERAGE_TARGET
    );
    Ok(())
}
