//! The fused-window diagnostic is observation only and says something
//! coherent about the run: reading it never changes a bit of
//! `RunStats`, and its counts are deterministic.

use std::sync::Arc;

use equalizer_sim::engine::{Engine, Recorder, StepEvent};
use equalizer_sim::governor::StaticGovernor;
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::prelude::*;
use equalizer_sim::stats::RunStats;
use equalizer_sim::telemetry::BatchWindowStats;
use equalizer_workloads::kernel_by_name;

/// Hand-steps a full run and returns its stats plus the window
/// diagnostic.
fn windowed_run(
    config: &GpuConfig,
    kernel: &KernelSpec,
    options: SimOptions,
) -> (RunStats, BatchWindowStats) {
    let mut engine = Engine::new(config, kernel, options).unwrap();
    while engine.step(&mut StaticGovernor).unwrap() != StepEvent::Complete {}
    let windows = engine.batch_window_stats().clone();
    (engine.stats(), windows)
}

#[test]
fn window_diagnostics_are_coherent() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    // Few warps, each issuing one streaming load and then crawling
    // through a long dependence chain: most cycles every warp is asleep,
    // so fused windows actually open.
    let mut body = vec![Instr::load_streaming()];
    body.extend(std::iter::repeat_with(Instr::alu_dep).take(96));
    let kernel = KernelSpec::new(
        "telemetry-stall",
        KernelCategory::Memory,
        2,
        2,
        vec![Invocation {
            grid_blocks: 16,
            program: Arc::new(Program::new(vec![Segment::new(body, 12)])),
        }],
    );
    let (stats, windows) = windowed_run(&config, &kernel, SimOptions::default());

    // The diagnostic is recorded unconditionally and is internally
    // coherent.
    assert!(windows.windows > 0, "the stall kernel must open windows");
    assert_eq!(windows.ticks, stats.batched_ticks, "diagnostic ticks agree");
    assert_eq!(
        windows.size_histogram.iter().sum::<u64>(),
        windows.windows,
        "every window lands in exactly one size bucket"
    );
    assert_eq!(
        windows.bounded_by_knob
            + windows.bounded_by_epoch
            + windows.bounded_by_limit
            + windows.bounded_by_horizon
            + windows.bounded_by_mem_horizon,
        windows.windows,
        "every window records exactly one binding bound"
    );
    assert!(
        windows.closes_total() > 0,
        "issuing warps must close some windows"
    );

    // Per-SM VRMs never open a window: every SM step falls back to
    // per-tick stepping with windows disabled.
    config.per_sm_vrm = true;
    let (_, windows) = windowed_run(&config, &kernel, SimOptions::default());
    assert_eq!(windows.windows, 0);
    assert_eq!(windows.closes_total(), windows.closed_disabled);
}

#[test]
fn batch_window_stats_are_deterministic() {
    // The window diagnostic is driven purely by the engine's own proof
    // attempts, so — like RunStats — it repeats exactly, and an attached
    // observer cannot move it.
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    let kernel = kernel_by_name("cfd-2").unwrap();
    let (stats, base) = windowed_run(&config, &kernel, SimOptions::default());
    assert!(base.windows > 0, "cfd-2 must open windows");
    let (_, again) = windowed_run(&config, &kernel, SimOptions::default());
    assert_eq!(base, again, "a repeat run changed the window diagnostic");

    let mut recorder = Recorder::default();
    let mut engine = Engine::new(&config, &kernel, SimOptions::default())
        .unwrap()
        .with_observer(&mut recorder);
    let observed = engine.run(&mut StaticGovernor).unwrap();
    assert_eq!(
        engine.batch_window_stats(),
        &base,
        "an observer changed the window diagnostic"
    );
    drop(engine);
    assert_eq!(observed, stats);
}
