//! `sim-ffcheck` — the event-driven fast-forward CI gate.
//!
//! Two assertions, in order of importance:
//!
//! 1. **Bit-identity.** `SimOptions::fast_forward` is a wall-clock knob
//!    and must never change simulated results. The gate runs every
//!    governor family on the full 15-SM GTX 480 — static, Equalizer in
//!    both modes and DynCTA on the memory-active tier-1 workload
//!    (`mri-q`), and the CCWS baseline (which disables fused windows) on
//!    `mmer`, where CCWS actually throttles — and requires `RunStats`
//!    equality between the on and off runs of each pair. (`RunStats`
//!    equality deliberately excludes the `batched_ticks` diagnostic.)
//!    The CCWS row fails unless some epoch boundary finds an SM whose
//!    CCWS allows fewer warps than it has warp slots, so it cannot pass
//!    without exercising the throttled issue path.
//! 2. **Speedup.** `mri-q` on the 15-SM machine must be at least 1.5x
//!    faster (median over interleaved on/off pairs, so host load drift
//!    cancels) with fast-forward on. Nearly all of that comes from the
//!    issue stage's fast cuts: `mri-q` issues on almost every cycle, so
//!    fused windows cover few of its ticks.
//!
//! Runs entirely in-process; `cargo xtask ci` invokes it on every host
//! (a single core is enough — the fast path is about skipping work, not
//! spreading it).

use std::process::ExitCode;
use std::time::Instant;

use equalizer_baselines::{ccws_baseline, DynCta};
use equalizer_core::{Equalizer, Mode};
use equalizer_sim::ccws::CcwsState;
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::{Engine, StepEvent};
use equalizer_sim::governor::{Governor, StaticGovernor};
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::stats::RunStats;
use equalizer_workloads::kernel_by_name;

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

/// One completed run: its results, its window diagnostics and how often
/// CCWS throttled.
struct Run {
    stats: RunStats,
    batched_ticks: u64,
    total_ticks: u64,
    /// Epoch boundaries at which some SM's CCWS allowed fewer warps than
    /// the SM has warp slots.
    throttled_boundaries: usize,
    boundaries: usize,
    wall: f64,
}

#[allow(
    clippy::disallowed_methods,
    reason = "the gate measures host wall time beside the simulated run"
)]
fn simulate(
    config: &GpuConfig,
    kernel: &KernelSpec,
    governor: &mut dyn Governor,
    options: SimOptions,
) -> Result<Run, String> {
    let start = Instant::now();
    let mut engine =
        Engine::new(config, kernel, options).map_err(|e| format!("engine setup: {e}"))?;
    let (mut boundaries, mut throttled_boundaries) = (0, 0);
    loop {
        let event = engine
            .run_epoch(governor)
            .map_err(|e| format!("run: {e}"))?;
        boundaries += 1;
        let throttled = (0..config.num_sms).any(|i| {
            engine
                .with_sm(i, |sm| sm.ccws().map(CcwsState::allowed_count))
                .is_some_and(|allowed| allowed < config.max_warps_per_sm)
        });
        throttled_boundaries += usize::from(throttled);
        if event == StepEvent::Complete {
            break;
        }
    }
    let stats = engine.stats();
    Ok(Run {
        batched_ticks: engine.batched_ticks(),
        total_ticks: stats.sm_cycles_at.iter().sum(),
        throttled_boundaries,
        boundaries,
        wall: start.elapsed().as_secs_f64(),
        stats,
    })
}

fn run() -> Result<(), String> {
    let config = GpuConfig::gtx480();
    let mri_q = kernel_by_name("mri-q").ok_or("mri-q missing from the workload catalog")?;
    let mmer = kernel_by_name("mmer").ok_or("mmer missing from the workload catalog")?;

    // --- 1. bit-identity across governors and the knob.
    type Setup<'k> = (
        &'static str,
        &'k KernelSpec,
        fn(&GpuConfig) -> (GpuConfig, Box<dyn Governor>),
    );
    let systems: &[Setup] = &[
        ("static", &mri_q, |c| (c.clone(), Box::new(StaticGovernor))),
        ("equalizer-perf", &mri_q, |c| {
            (
                c.clone(),
                Box::new(Equalizer::new(Mode::Performance, c.num_sms)),
            )
        }),
        ("equalizer-energy", &mri_q, |c| {
            (c.clone(), Box::new(Equalizer::new(Mode::Energy, c.num_sms)))
        }),
        ("dyncta", &mri_q, |c| (c.clone(), Box::new(DynCta::new()))),
        ("ccws", &mmer, |c| {
            let (c, g) = ccws_baseline(c.clone());
            (c, Box::new(g))
        }),
    ];
    for (name, kernel, setup) in systems {
        let kname = kernel.name();
        let mut pair = Vec::new();
        for fast_forward in [true, false] {
            let (config, mut governor) = setup(&config);
            let options = SimOptions {
                fast_forward,
                ..SimOptions::default()
            };
            pair.push(simulate(&config, kernel, governor.as_mut(), options)?);
        }
        if pair[0].stats != pair[1].stats {
            return Err(format!(
                "{kname} under `{name}`: RunStats diverge between fast-forward on and off"
            ));
        }
        let on = &pair[0];
        if *name == "ccws" && on.throttled_boundaries == 0 {
            return Err(format!(
                "{kname} under `ccws`: no SM was throttled at any of {} epoch \
                 boundaries, so the pair never exercised the CCWS issue path",
                on.boundaries
            ));
        }
        let throttling = if *name == "ccws" {
            format!(
                "; throttled at {} of {} epoch boundaries",
                on.throttled_boundaries, on.boundaries
            )
        } else {
            String::new()
        };
        println!(
            "identity {name:<17} ok on {kname} ({} of {} SM ticks in fused windows with \
             fast-forward on{throttling})",
            on.batched_ticks, on.total_ticks
        );
    }

    // --- 2. wall-clock speedup, interleaved pairs.
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
        "sim-ffcheck ok: bit-identical under every governor, mri-q median speedup {median:.2}x"
    );
    Ok(())
}
