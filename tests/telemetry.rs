//! Hot-path telemetry is observation only: enabling the pool's
//! profiling counters, changing the spin-vs-park crossover, or reading
//! the batch-window diagnostics must never change a single bit of
//! `RunStats`, at any thread count. These tests pin that contract and
//! check the counters themselves say something coherent about the run.

use std::sync::Arc;

use equalizer_sim::engine::{Engine, StepEvent};
use equalizer_sim::governor::StaticGovernor;
use equalizer_sim::gpu::{simulate_with, SimOptions};
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::prelude::*;
use equalizer_sim::stats::RunStats;
use equalizer_sim::telemetry::{BatchWindowStats, PoolStats};
use equalizer_workloads::kernel_by_name;

/// Hand-steps a full run and returns its stats plus both telemetry
/// views.
fn profiled_run(
    config: &GpuConfig,
    kernel: &KernelSpec,
    options: SimOptions,
) -> (RunStats, PoolStats, BatchWindowStats) {
    let mut engine = Engine::new(config, kernel, options).unwrap();
    while engine.step(&mut StaticGovernor).unwrap() != StepEvent::Complete {}
    let pool = engine.pool_stats();
    let windows = engine.batch_window_stats().clone();
    (engine.stats(), pool, windows)
}

#[test]
fn profiling_and_spin_limit_never_change_results() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    let kernel = kernel_by_name("mmer").unwrap();
    let baseline = simulate_with(&config, &kernel, &mut StaticGovernor, SimOptions::default())
        .expect("baseline run");
    assert!(baseline.instructions() > 0, "kernel must do work");

    // Telemetry on/off at serial and maximum effective parallelism,
    // crossed with spin limits from park-immediately to well past the
    // default. (Kept modest: oversubscribed single-core hosts pay for
    // every spin iteration, and the contract is limit-invariance, not
    // spin endurance.)
    for threads in [1, config.num_sms] {
        for profile in [false, true] {
            for spin_limit in [0, 256, 2048] {
                let options = SimOptions {
                    threads,
                    profile,
                    spin_limit,
                    ..SimOptions::default()
                };
                let run = simulate_with(&config, &kernel, &mut StaticGovernor, options)
                    .expect("telemetry variant run");
                assert_eq!(
                    baseline, run,
                    "threads={threads} profile={profile} spin_limit={spin_limit} \
                     diverged from the baseline"
                );
            }
        }
    }
}

#[test]
fn profiled_run_reports_partition_activity_and_imbalance() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    let kernel = kernel_by_name("mri-q").unwrap();
    let options = SimOptions {
        threads: 4,
        profile: true,
        ..SimOptions::default()
    };
    let (stats, pool, _) = profiled_run(&config, &kernel, options);
    assert!(stats.instructions() > 0);

    assert_eq!(pool.workers, 3, "threads-1 workers back the pool");
    assert_eq!(pool.partitions.len(), 4, "one shard per thread");
    assert!(pool.dispatches > 0, "a profiled run counts its dispatches");
    assert!(pool.busy_total() > 0, "SM ticks were charged somewhere");
    for (i, p) in pool.partitions.iter().enumerate() {
        assert!(p.jobs > 0, "partition {i} never ran a job");
        assert!(p.busy_ticks > 0, "partition {i} never ticked an SM");
    }
    let (max, min) = pool.busy_imbalance();
    assert!(max >= min, "imbalance summary spans the partitions");
    assert!(min > 0, "every partition did work on this kernel");
    // Spin/park tallies are wall-clock facts — nothing to pin beyond
    // the accounting identity: each wait either spun out or parked.
    let waited: u64 = pool.partitions.iter().map(|p| p.spins + p.parks).sum();
    let _ = waited; // non-negative by type; presence is the contract
}

#[test]
fn unprofiled_run_reports_zero_pool_counters_but_window_diagnostics() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    // A long pure-ALU kernel so batched windows actually open.
    let kernel = KernelSpec::new(
        "telemetry-alu",
        KernelCategory::Compute,
        4,
        8,
        vec![Invocation {
            grid_blocks: 24,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![Instr::alu(), Instr::alu_dep()],
                3000,
            )])),
        }],
    );
    let (stats, pool, windows) = profiled_run(&config, &kernel, SimOptions::default());

    // Off is genuinely off: every profiling counter stays zero.
    assert_eq!(pool.dispatches, 0);
    assert_eq!(pool.busy_total(), 0);
    assert!(pool.partitions.iter().all(|p| p.jobs == 0 && p.spins == 0));

    // The batch-window diagnostic is unconditional (it lives on the
    // engine thread and is deterministic), and internally coherent.
    assert!(windows.windows > 0, "ALU kernel must open windows");
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
            + windows.bounded_by_horizon,
        windows.windows,
        "every window records exactly one binding bound"
    );
    assert!(
        windows.closes_total() > 0,
        "memory phases must close some windows"
    );
}

#[test]
fn batch_window_stats_are_thread_and_profile_invariant() {
    // The window diagnostic runs on the engine thread only, so its
    // counts — like RunStats — must not depend on wall-clock knobs.
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    let kernel = kernel_by_name("cfd-2").unwrap();
    let (_, _, base) = profiled_run(&config, &kernel, SimOptions::default());
    for (threads, profile) in [(4, false), (1, true), (4, true)] {
        let options = SimOptions {
            threads,
            profile,
            ..SimOptions::default()
        };
        let (_, _, windows) = profiled_run(&config, &kernel, options);
        assert_eq!(
            base, windows,
            "threads={threads} profile={profile} changed the window diagnostic"
        );
    }
}

#[test]
fn pool_dispatches_once_per_window_and_never_per_tick() {
    // Per-tick steps run on the engine thread; the pool takes only
    // non-fused batched windows (fused ones need no SM pipeline at all).
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    let kernel = kernel_by_name("mri-q").unwrap();
    let options = SimOptions {
        threads: 2,
        profile: true,
        ..SimOptions::default()
    };
    let (serial, _, _) = profiled_run(
        &config,
        &kernel,
        SimOptions {
            threads: 1,
            ..options
        },
    );
    let (stats, pool, windows) = profiled_run(&config, &kernel, options);
    assert_eq!(stats, serial, "threads=2 diverged from threads=1");
    assert!(windows.windows > windows.fused_windows, "pool windows open");
    assert_eq!(
        pool.dispatches,
        windows.windows - windows.fused_windows,
        "one dispatch per pool window, none per tick"
    );

    // Per-SM VRMs never open a window, so the pool spawns no worker and
    // never dispatches.
    config.per_sm_vrm = true;
    let (_, pool, windows) = profiled_run(&config, &kernel, options);
    assert_eq!(windows.windows, 0);
    assert_eq!(pool.workers, 0);
    assert_eq!(pool.dispatches, 0);
}
