//! The `Runner`'s result store: figures that share runs simulate each
//! distinct run once and still produce the rows fresh runners produce;
//! duplicate concurrent calls collapse onto one simulation; an observed
//! run always simulates; failures come back from memory unchanged.

use equalizer_core::Mode;
use equalizer_harness::{figures, parallel_map, Runner, System};
use equalizer_power::PowerModel;
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::Observer;
use equalizer_sim::governor::{EpochContext, SmEpochReport};
use equalizer_sim::gpu::{SimError, SimOptions};
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::stats::EpochRecord;
use equalizer_workloads::kernel_by_name;

fn small_runner(options: SimOptions) -> Runner {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 2;
    Runner::new(config, PowerModel::gtx480(), options)
}

fn kernels() -> Vec<KernelSpec> {
    ["prtcl-2", "mri-q"]
        .iter()
        .map(|n| kernel_by_name(n).unwrap())
        .collect()
}

/// The figure calls of the figure-regeneration job: figure4, figure7,
/// figure8, figure9.
const FIGURE_CALLS: usize = 4;

/// Figure call `i`'s rows, rendered with `{:?}`: Rust prints each `f64`
/// in its shortest round-trip form, so equal renderings mean
/// bit-identical rows.
fn figure_rows(runner: &Runner, kernels: &[KernelSpec], i: usize) -> String {
    match i {
        0 => format!("{:?}", figures::figure4(runner, kernels).unwrap()),
        1 => format!(
            "{:?}",
            figures::figure7_8(runner, kernels, Mode::Performance).unwrap()
        ),
        2 => format!(
            "{:?}",
            figures::figure7_8(runner, kernels, Mode::Energy).unwrap()
        ),
        _ => format!("{:?}", figures::figure9(runner, kernels).unwrap()),
    }
}

#[test]
fn shared_runner_simulates_each_distinct_run_once_with_identical_rows() {
    let kernels = kernels();
    let shared = small_runner(SimOptions::default());
    let memoized: Vec<String> = (0..FIGURE_CALLS)
        .map(|i| figure_rows(&shared, &kernels, i))
        .collect();

    // A fresh runner per figure call shares nothing.
    let mut cold = Vec::new();
    let mut cold_sims = 0;
    for i in 0..FIGURE_CALLS {
        let fresh = small_runner(SimOptions::default());
        cold.push(figure_rows(&fresh, &kernels, i));
        cold_sims += fresh.store_stats().simulations;
    }
    assert_eq!(memoized, cold, "memoized figures match cold ones");

    // Per kernel: figure4 runs the baseline, figure7/8 each add three
    // static/Equalizer runs and reuse it, figure9 reuses both modes.
    let stats = shared.store_stats();
    assert_eq!(cold_sims, 22, "2 kernels x (1 + 4 + 4 + 2) requested runs");
    assert_eq!(stats.simulations, 14, "2 kernels x 7 distinct runs");
    assert_eq!(stats.hits + stats.coalesced, 22 - 14);
    assert_eq!(stats.failures, 0);
}

#[test]
fn duplicate_parallel_runs_simulate_once() {
    const CALLS: usize = 4;
    let runner = small_runner(SimOptions::default());
    let kernel = kernel_by_name("prtcl-2").unwrap();
    let runs = parallel_map(vec![kernel; CALLS], |k| {
        runner.run(k, System::DynCta).unwrap()
    });
    let stats = runner.store_stats();
    assert_eq!(stats.simulations, 1, "one leader simulates");
    assert_eq!(stats.hits + stats.coalesced, CALLS as u64 - 1);
    for m in &runs {
        assert_eq!(m.stats, runs[0].stats);
    }
}

#[derive(Default)]
struct EpochCounter(usize);

impl Observer for EpochCounter {
    fn on_epoch(&mut self, _: &EpochContext, _: &[SmEpochReport], _: &EpochRecord) {
        self.0 += 1;
    }
}

#[test]
fn memo_hits_match_cold_runs_and_observed_runs_always_simulate() {
    let kernel = kernel_by_name("prtcl-2").unwrap();
    let system = System::Equalizer(Mode::Energy);
    let runner = small_runner(SimOptions::default());
    runner.run(&kernel, system).unwrap();
    let hit = runner.run(&kernel, system).unwrap();
    assert_eq!(runner.store_stats().hits, 1);

    let cold = small_runner(SimOptions::default())
        .run(&kernel, system)
        .unwrap();
    assert_eq!(hit.stats, cold.stats, "a hit is the cold run's RunStats");
    assert_eq!(hit.energy_j().to_bits(), cold.energy_j().to_bits());

    // The key is memoized, yet the observer still sees the whole run.
    let mut counter = EpochCounter::default();
    let observed = runner.run_observed(&kernel, system, &mut counter).unwrap();
    assert!(counter.0 > 0);
    assert_eq!(counter.0, observed.stats.epochs.len());
    assert_eq!(observed.stats, hit.stats);
    assert_eq!(
        runner.store_stats().simulations,
        1,
        "observed runs bypass the store"
    );
}

#[test]
fn a_memoized_failure_comes_back_unchanged() {
    let runner = small_runner(SimOptions {
        max_cycles_per_invocation: 1_000,
        ..SimOptions::default()
    });
    let kernel = kernel_by_name("mri-q").unwrap();
    let first = runner.baseline(&kernel).unwrap_err();
    assert!(matches!(first, SimError::CycleLimit { .. }), "{first}");
    let again = runner.baseline(&kernel).unwrap_err();
    assert_eq!(again, first);
    let stats = runner.store_stats();
    assert_eq!((stats.failures, stats.simulations, stats.hits), (1, 0, 0));
}
