//! The simulator is a deterministic instrument: identical inputs must
//! produce bit-identical statistics, regardless of governor.
//!
//! A `Runner` memoizes its runs, so a replay on the same runner (or a
//! clone) would only compare a result with itself. Every replay here runs
//! on two independently built runners and checks that each simulated.

use equalizer_core::Mode;
use equalizer_harness::{Measurement, Runner, System};
use equalizer_sim::kernel::KernelSpec;
use equalizer_workloads::kernel_by_name;

/// Runs `kernel` under `system` on two fresh runners, each of which must
/// actually simulate.
fn replay(kernel: &KernelSpec, system: System) -> (Measurement, Measurement) {
    let run = || {
        let r = Runner::gtx480();
        let m = r.run(kernel, system).unwrap();
        assert_eq!(r.store_stats().simulations, 1, "a fresh runner simulates");
        m
    };
    (run(), run())
}

fn assert_identical(name: &str, system: System) {
    let k = kernel_by_name(name).unwrap();
    let (a, b) = replay(&k, system);
    assert_eq!(
        a.stats.wall_time_fs, b.stats.wall_time_fs,
        "{name} wall time"
    );
    assert_eq!(
        a.stats.instructions(),
        b.stats.instructions(),
        "{name} instrs"
    );
    assert_eq!(
        a.stats.dram_accesses(),
        b.stats.dram_accesses(),
        "{name} dram"
    );
    assert_eq!(
        a.stats.sm_cycles_at, b.stats.sm_cycles_at,
        "{name} cycle residency"
    );
    assert!((a.energy_j() - b.energy_j()).abs() < 1e-12, "{name} energy");
    assert_eq!(a.stats, b.stats, "{name} full RunStats");
}

#[test]
fn baseline_runs_are_deterministic() {
    assert_identical(
        "mmer",
        System::Static(equalizer_baselines::StaticPoint::Baseline),
    );
}

#[test]
fn equalizer_runs_are_deterministic() {
    assert_identical("mmer", System::Equalizer(Mode::Performance));
}

#[test]
fn dyncta_and_ccws_runs_are_deterministic() {
    assert_identical("mmer", System::DynCta);
    assert_identical("mmer", System::Ccws);
}

/// The regression behind the MSHR map: merge lists keyed by cache line
/// used to live in a `HashMap`, whose per-process iteration order could
/// reorder replay and wiggle cycle counts under heavy miss traffic. A
/// cache-thrashing kernel maximises MSHR pressure, so replaying it twice
/// must still be bit-identical — cycle residency *and* the warp-state
/// histogram.
#[test]
fn cache_thrashing_replay_is_bit_identical() {
    // Working sets far beyond the 256-line L1, with divergent loads:
    // every warp streams misses through the MSHRs for the whole run.
    let k = equalizer_workloads::cache_kernel(
        "thrash-repro",
        8,
        6,
        1.0,
        equalizer_workloads::CacheParams {
            lines_per_warp: 96,
            divergence: 4,
            alu_per_load: 2,
            alu_dep_every: 0,
            iterations: 40,
            waves: 2.0,
        },
    );
    for system in [
        System::Static(equalizer_baselines::StaticPoint::Baseline),
        System::Equalizer(Mode::Energy),
        System::Equalizer(Mode::Performance),
    ] {
        let (a, b) = replay(&k, system);
        assert!(
            a.stats.dram_accesses() > 0,
            "the workload must actually thrash"
        );
        assert_eq!(
            a.stats.sm_cycles_at, b.stats.sm_cycles_at,
            "{system:?} SM cycle residency"
        );
        assert_eq!(
            a.stats.mem_cycles_at, b.stats.mem_cycles_at,
            "{system:?} memory cycle residency"
        );
        assert_eq!(
            a.stats.warp_states, b.stats.warp_states,
            "{system:?} warp-state histogram"
        );
        assert_eq!(
            a.stats.wall_time_fs, b.stats.wall_time_fs,
            "{system:?} wall time"
        );
    }
}

/// Replaying a run one `Engine::step()` at a time is the same machine as
/// the one-shot entry point: every counter the simulator publishes must
/// come back bit-identical.
#[test]
fn engine_stepping_replay_is_bit_identical() {
    use equalizer_core::Equalizer;
    use equalizer_sim::engine::{Engine, StepEvent};
    use equalizer_sim::gpu::{simulate_with, SimOptions};

    let config = equalizer_sim::config::GpuConfig::gtx480();
    let k = kernel_by_name("mmer").unwrap();
    let mut gov = Equalizer::new(Mode::Performance, config.num_sms);
    let oneshot = simulate_with(&config, &k, &mut gov, SimOptions::default()).unwrap();

    let mut gov = Equalizer::new(Mode::Performance, config.num_sms);
    let mut engine = Engine::new(&config, &k, SimOptions::default()).unwrap();
    while engine.step(&mut gov).unwrap() != StepEvent::Complete {}
    let stepped = engine.stats();

    assert_eq!(oneshot.wall_time_fs, stepped.wall_time_fs, "wall time");
    assert_eq!(
        oneshot.sm_cycles_at, stepped.sm_cycles_at,
        "SM cycle residency"
    );
    assert_eq!(
        oneshot.mem_cycles_at, stepped.mem_cycles_at,
        "memory cycle residency"
    );
    assert_eq!(
        oneshot.instructions(),
        stepped.instructions(),
        "instructions"
    );
    assert_eq!(
        oneshot.warp_states, stepped.warp_states,
        "warp-state histogram"
    );
    assert_eq!(oneshot.epochs, stepped.epochs, "epoch timeline");
}

#[test]
fn energy_model_is_a_pure_function() {
    let r = Runner::gtx480();
    let k = kernel_by_name("cfd-2").unwrap();
    let m = r.baseline(&k).unwrap();
    let e1 = r.model().energy(&m.stats);
    let e2 = r.model().energy(&m.stats);
    assert_eq!(e1, e2);
    assert!(e1.total_j() > 0.0);
}
