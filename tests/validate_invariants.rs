//! Exercises the `validate` sanitizer feature end to end.
//!
//! With `--features validate`, the simulator checks clock-domain
//! invariants at every boundary: monotonic cycle accounting in both
//! domains, MSHRs/LSU drained at kernel completion, the scoreboard never
//! releasing a register it did not set, and every energy component
//! finite, non-negative and leakage-consistent. These tests drive a
//! cross-category kernel sample through every governor so the sanitizers
//! run on real traffic; without the feature they are compiled to
//! nothing, so the same tests double as a plain smoke suite.

use equalizer_baselines::StaticPoint;
use equalizer_core::Mode;
use equalizer_harness::{Runner, System};
use equalizer_workloads::kernel_by_name;

/// One kernel per contention category, plus the invocation-flipping
/// special case — between them they light up the MSHR, LSU, DVFS and
/// epoch-boundary paths where the sanitizers live.
const SAMPLE: &[&str] = &["mri-q", "cfd-2", "mmer", "lavaMD", "spmv"];

#[test]
fn sanitizers_hold_across_categories_and_governors() {
    let r = Runner::gtx480();
    // The catalog sample plus the invocation-flipping special case,
    // which exercises the drain/refill path between invocations.
    let kernels: Vec<_> = SAMPLE
        .iter()
        .map(|name| kernel_by_name(name).unwrap())
        .chain(std::iter::once(equalizer_workloads::bfs2()))
        .collect();
    let governors = [
        System::Static(StaticPoint::Baseline),
        System::Equalizer(Mode::Performance),
        System::Equalizer(Mode::Energy),
    ];
    // CCWS throttles on `mmer`, so the issue walk's `blocked` and
    // `mem_next` asserts see CCWS and DynCTA traffic on a catalog kernel.
    let mmer = kernel_by_name("mmer").unwrap();
    let runs = kernels
        .iter()
        .flat_map(|k| governors.map(|system| (k, system)))
        .chain([System::DynCta, System::Ccws].map(|system| (&mmer, system)));
    for (k, system) in runs {
        let name = k.name();
        let m = r.run(k, system).unwrap();
        assert!(m.stats.wall_time_fs > 0, "{name} under {system:?}");
        assert!(
            m.energy_j().is_finite() && m.energy_j() > 0.0,
            "{name} under {system:?}: energy {}",
            m.energy_j()
        );
    }
}

#[cfg(feature = "validate")]
mod armed {
    use equalizer_power::PowerModel;
    use equalizer_sim::config::FS_PER_SEC;
    use equalizer_sim::stats::RunStats;

    /// The feature must actually reach the simulator crate through the
    /// workspace feature forwarding, not just exist on the umbrella.
    #[test]
    fn validate_feature_is_forwarded_to_the_simulator() {
        const { assert!(equalizer_sim::VALIDATE_ENABLED) };
    }

    /// The energy sanitizer must reject statistics whose per-level
    /// residency exceeds the recorded wall time.
    #[test]
    #[should_panic(expected = "leakage energy inconsistent")]
    fn power_sanitizer_catches_impossible_residency() {
        let mut s = RunStats {
            wall_time_fs: 1,
            ..RunStats::default()
        };
        // A full second of nominal-level residency inside a 1 fs run.
        s.sm_time_at[1] = FS_PER_SEC as u64;
        let _ = PowerModel::gtx480().energy(&s);
    }
}
