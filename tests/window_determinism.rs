//! Batched and fused windows are a pure wall-clock optimisation: with
//! the default options every run must produce bit-identical `RunStats`
//! — epoch timelines included — to the per-tick reference
//! (`max_batch_ticks = 1`, which never opens a window). These tests pin
//! that across the tier-1 workloads, the full machine, the per-SM-VRM
//! machine, MSHR pressure and runs with mid-run VF transitions.

use std::sync::Arc;

use equalizer_sim::engine::{Engine, StepEvent};

use equalizer_core::{Equalizer, Mode};
use equalizer_sim::governor::{
    EpochContext, EpochDecision, Governor, SmEpochReport, StaticGovernor, VfRequest,
};
use equalizer_sim::gpu::{simulate_with, SimOptions};
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::prelude::*;
use equalizer_sim::stats::RunStats;
use equalizer_workloads::kernel_by_name;

/// The per-tick reference: batching off, every SM tick stepped alone.
fn per_tick() -> SimOptions {
    SimOptions {
        max_batch_ticks: 1,
        ..SimOptions::default()
    }
}

/// Runs `kernel` per-tick and with the default options, with fresh
/// governors from `make_gov`, asserting both runs' complete statistics
/// are bit-identical.
fn assert_matches_per_tick<G, F>(name: &str, config: &GpuConfig, kernel: &KernelSpec, make_gov: F)
where
    G: Governor,
    F: Fn() -> G,
{
    let reference: RunStats = simulate_with(config, kernel, &mut make_gov(), per_tick())
        .unwrap_or_else(|e| panic!("{name}: per-tick run failed: {e}"));
    assert!(reference.instructions() > 0, "{name}: kernel must do work");
    let fast = simulate_with(config, kernel, &mut make_gov(), SimOptions::default())
        .unwrap_or_else(|e| panic!("{name}: default run failed: {e}"));
    assert_eq!(reference, fast, "{name}: diverged from per-tick stepping");
}

#[test]
fn tier1_workloads_match_per_tick() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    for name in ["mri-q", "mmer", "cfd-2"] {
        let kernel = kernel_by_name(name).unwrap();
        assert_matches_per_tick(name, &config, &kernel, || StaticGovernor);
    }
}

#[test]
fn equalizer_runs_match_per_tick() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    let kernel = kernel_by_name("mmer").unwrap();
    assert_matches_per_tick("equalizer/mmer", &config, &kernel, || {
        Equalizer::new(Mode::Performance, config.num_sms)
    });
}

#[test]
fn mshr_pressure_matches_per_tick() {
    // A cache-thrashing kernel keeps the interconnect back-pressured, so
    // the commit phase's arbitration order is exercised every cycle and
    // window proofs must keep refusing around in-flight misses.
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    let kernel = equalizer_workloads::cache_kernel(
        "window-thrash",
        8,
        6,
        1.0,
        equalizer_workloads::CacheParams {
            lines_per_warp: 96,
            divergence: 4,
            alu_per_load: 2,
            alu_dep_every: 0,
            iterations: 30,
            waves: 2.0,
        },
    );
    assert_matches_per_tick("thrash", &config, &kernel, || StaticGovernor);
}

#[test]
fn per_sm_vrm_runs_match_per_tick() {
    // Per-SM VRMs drift the SM clocks apart, so different subsets of SMs
    // are due each tick and no window may ever open: the default options
    // must reduce to the per-tick reference.
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    config.per_sm_vrm = true;
    let kernel = kernel_by_name("sc").unwrap();
    assert_matches_per_tick("per-sm-vrm/sc", &config, &kernel, || {
        Equalizer::new(Mode::Energy, 6).with_per_sm_vrm(true)
    });
}

/// Boosts the SM domain at the first epoch and throttles it two epochs
/// later, so the run crosses VF transitions (period changes) mid-flight.
#[derive(Default)]
struct BoostThenThrottle {
    epochs: u64,
}

impl Governor for BoostThenThrottle {
    fn name(&self) -> &str {
        "boost-then-throttle"
    }
    fn epoch(&mut self, _ctx: &EpochContext, reports: &[SmEpochReport]) -> EpochDecision {
        self.epochs += 1;
        let mut d = EpochDecision::maintain(reports.len());
        match self.epochs {
            1 => {
                d.sm_vf = VfRequest::Increase;
                d.target_blocks = reports.iter().map(|_| Some(2)).collect();
            }
            3 => {
                d.sm_vf = VfRequest::Decrease;
                d.mem_vf = VfRequest::Increase;
            }
            _ => {}
        }
        d
    }
}

#[test]
fn mid_run_vf_transitions_match_per_tick() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    let kernel = vf_mix_kernel();
    assert_matches_per_tick("vf-mix", &config, &kernel, BoostThenThrottle::default);
}

/// A mixed ALU/load/sync kernel whose runs cross VF transitions under
/// [`BoostThenThrottle`].
fn vf_mix_kernel() -> KernelSpec {
    KernelSpec::new(
        "vf-mix",
        KernelCategory::Compute,
        4,
        8,
        vec![Invocation {
            grid_blocks: 48,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![
                    Instr::alu(),
                    Instr::load_streaming(),
                    Instr::alu_dep(),
                    Instr::Sync,
                ],
                900,
            )])),
        }],
    )
}

#[test]
fn full_machine_matches_per_tick() {
    // The full 15-SM machine: every window proof must hold on all SMs.
    let config = GpuConfig::gtx480();
    assert_eq!(config.num_sms, 15, "the full gtx480 array");
    let kernel = KernelSpec::new(
        "uneven",
        KernelCategory::Compute,
        4,
        8,
        vec![Invocation {
            grid_blocks: 60,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![Instr::alu(), Instr::load_streaming(), Instr::alu_dep()],
                150,
            )])),
        }],
    );
    assert_matches_per_tick("uneven", &config, &kernel, || StaticGovernor);
}

/// Runs `kernel` through a hand-stepped [`Engine`], returning the final
/// stats and the number of SM ticks executed inside batched windows.
fn engine_run(config: &GpuConfig, kernel: &KernelSpec, options: SimOptions) -> (RunStats, u64) {
    let mut engine = Engine::new(config, kernel, options).unwrap();
    while engine.step(&mut StaticGovernor).unwrap() != StepEvent::Complete {}
    let stats = engine.stats();
    let batched = engine.batched_ticks();
    (stats, batched)
}

#[test]
fn tick_batching_is_bit_identical_to_per_tick() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;

    // A long pure-ALU kernel: once the initial loads drain, every warp
    // is provably memory-free for thousands of cycles, so windows must
    // actually open (the batched-tick counter is asserted below).
    let alu = KernelSpec::new(
        "batch-alu",
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
    let (base, base_batched) = engine_run(&config, &alu, per_tick());
    assert_eq!(base_batched, 0, "max_batch_ticks=1 must disable batching");
    let (batched, batched_ticks) = engine_run(&config, &alu, SimOptions::default());
    assert!(
        batched_ticks > 0,
        "a pure-ALU kernel must open batched windows"
    );
    assert_eq!(base, batched, "batched windows diverged from per-tick");

    // A load/sync kernel with mid-run VF transitions: windows are rare
    // and must refuse to open across in-flight memory or pending
    // transitions — results stay bit-identical either way.
    let mix = vf_mix_kernel();
    let mk = |max_batch_ticks| SimOptions {
        max_batch_ticks,
        ..SimOptions::default()
    };
    let serial = simulate_with(&config, &mix, &mut BoostThenThrottle::default(), mk(1)).unwrap();
    let windowed =
        simulate_with(&config, &mix, &mut BoostThenThrottle::default(), mk(1024)).unwrap();
    assert_eq!(serial, windowed, "vf-mix diverged under batching");
}
