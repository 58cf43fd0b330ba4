//! The step-wise `Engine` must be a faithful decomposition of the old
//! run-to-completion loop: driving a run through `Engine::step()` (or the
//! coarser `run_epoch`/`run_invocation` loops) produces bit-identical
//! statistics to a one-shot `simulate_with`, with or without observers
//! attached.

use std::sync::Arc;

use equalizer_core::{Equalizer, Mode};
use equalizer_sim::engine::{Engine, Observer, Recorder, StepEvent};
use equalizer_sim::governor::Governor;
use equalizer_sim::gpu::{simulate_with, SimOptions};
use equalizer_sim::prelude::*;
use equalizer_sim::stats::RunStats;
use equalizer_workloads::kernel_by_name;

fn small_config() -> GpuConfig {
    let mut c = GpuConfig::gtx480();
    c.num_sms = 4;
    c
}

fn assert_bit_identical(name: &str, a: &RunStats, b: &RunStats) {
    assert_eq!(a.wall_time_fs, b.wall_time_fs, "{name}: wall time");
    assert_eq!(a.sm_cycles_at, b.sm_cycles_at, "{name}: SM cycle residency");
    assert_eq!(a.sm_time_at, b.sm_time_at, "{name}: SM time residency");
    assert_eq!(
        a.mem_cycles_at, b.mem_cycles_at,
        "{name}: mem cycle residency"
    );
    assert_eq!(a.instructions(), b.instructions(), "{name}: instructions");
    assert_eq!(a.dram_accesses(), b.dram_accesses(), "{name}: dram");
    assert_eq!(a.warp_states, b.warp_states, "{name}: warp states");
    assert_eq!(a.epochs.len(), b.epochs.len(), "{name}: epoch count");
    for (x, y) in a.epochs.iter().zip(b.epochs.iter()) {
        assert_eq!(x, y, "{name}: epoch record");
    }
    assert_eq!(a.invocations, b.invocations, "{name}: invocation stats");
}

/// One iteration of the scenario under three drive styles: one-shot
/// `simulate_with`, single-`step()` loop, and `run_epoch` loop.
fn check_drive_styles(
    name: &str,
    config: &GpuConfig,
    kernel: &KernelSpec,
    mut mk: impl FnMut() -> Box<dyn Governor>,
) {
    let opts = SimOptions::default();
    let oneshot = simulate_with(config, kernel, mk().as_mut(), opts).expect("one-shot run");

    let mut gov = mk();
    let mut engine = Engine::new(config, kernel, opts).expect("engine builds");
    let mut steps = 0u64;
    while engine.step(gov.as_mut()).expect("step") != StepEvent::Complete {
        steps += 1;
    }
    assert!(steps > 1_000, "{name}: a real run takes many steps");
    assert_bit_identical(name, &oneshot, &engine.stats());

    let mut gov = mk();
    let mut engine = Engine::new(config, kernel, opts).expect("engine builds");
    while engine.run_epoch(gov.as_mut()).expect("run_epoch") != StepEvent::Complete {}
    assert_bit_identical(&format!("{name}/run_epoch"), &oneshot, &engine.stats());
}

#[test]
fn stepping_matches_oneshot_under_static_governor() {
    let config = small_config();
    let kernel = kernel_by_name("mmer").expect("catalog kernel");
    check_drive_styles("static/mmer", &config, &kernel, || Box::new(StaticGovernor));
}

#[test]
fn stepping_matches_oneshot_under_equalizer() {
    let config = small_config();
    let kernel = kernel_by_name("mmer").expect("catalog kernel");
    check_drive_styles("equalizer/mmer", &config, &kernel, || {
        Box::new(Equalizer::new(Mode::Performance, small_config().num_sms))
    });
}

#[test]
fn stepping_matches_oneshot_with_per_sm_vrm() {
    let mut config = small_config();
    config.per_sm_vrm = true;
    let kernel = kernel_by_name("mmer").expect("catalog kernel");
    check_drive_styles("per-sm-vrm/mmer", &config, &kernel, || {
        Box::new(Equalizer::new(Mode::Performance, small_config().num_sms).with_per_sm_vrm(true))
    });
}

#[test]
fn attached_observer_reproduces_runstats_epochs() {
    let config = small_config();
    let kernel = kernel_by_name("mmer").expect("catalog kernel");
    let mut external = Recorder::default();
    let mut gov = Equalizer::new(Mode::Energy, config.num_sms);
    let mut engine = Engine::new(&config, &kernel, SimOptions::default())
        .expect("engine builds")
        .with_observer(&mut external);
    let stats = engine.run(&mut gov).expect("run");
    assert!(stats.epochs.len() >= 2, "kernel must span several epochs");
    assert_eq!(
        external.records(),
        &stats.epochs[..],
        "an external Recorder observer sees the exact internal timeline"
    );
}

/// Mid-run inspection: pause at an epoch boundary, look inside the
/// machine, and finish — without perturbing the result.
#[test]
fn mid_run_inspection_is_nonintrusive() {
    let config = small_config();
    let kernel = kernel_by_name("mmer").expect("catalog kernel");
    let opts = SimOptions::default();
    let oneshot = simulate_with(&config, &kernel, &mut StaticGovernor, opts).expect("one-shot");

    let mut engine = Engine::new(&config, &kernel, opts).expect("engine builds");
    let event = engine.run_epoch(&mut StaticGovernor).expect("first epoch");
    assert_eq!(event, StepEvent::EpochBoundary);
    assert_eq!(engine.epoch_index(), 1);
    assert!(engine.now_fs() > 0);
    assert!(!engine.is_complete());
    // Peek at the SMs mid-run.
    let resident: usize = (0..engine.num_sms())
        .map(|i| engine.with_sm(i, |s| s.resident_warps()))
        .sum();
    assert!(resident > 0, "warps are resident mid-run");
    let mid = engine.stats();
    assert!(mid.wall_time_fs < oneshot.wall_time_fs);
    // Finish and compare.
    let full = engine.run(&mut StaticGovernor).expect("finish");
    assert_bit_identical("inspected/mmer", &oneshot, &full);
}

/// A custom observer sees block completions adding up to the whole grid.
#[test]
fn block_events_account_for_the_grid() {
    #[derive(Default)]
    struct BlockCounter {
        completed: u64,
    }
    impl Observer for BlockCounter {
        fn on_block_event(&mut self, event: equalizer_sim::engine::BlockEvent) {
            if let equalizer_sim::engine::BlockEvent::Completed { count, .. } = event {
                self.completed += count;
            }
        }
    }

    let config = small_config();
    let program = Arc::new(Program::new(vec![Segment::new(
        vec![Instr::alu(), Instr::alu_dep()],
        500,
    )]));
    let kernel = KernelSpec::new(
        "grid-account",
        KernelCategory::Compute,
        4,
        8,
        vec![Invocation {
            grid_blocks: 96,
            program,
        }],
    );
    let mut counter = BlockCounter::default();
    let mut engine = Engine::new(&config, &kernel, SimOptions::default())
        .expect("engine builds")
        .with_observer(&mut counter);
    engine.run(&mut StaticGovernor).expect("run");
    assert_eq!(
        counter.completed, 96,
        "every block's completion is observed exactly once"
    );
}
