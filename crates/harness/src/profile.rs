//! Host-side wall-clock profiling of the simulator itself.
//!
//! The simulation crates are deterministic and never read the host
//! clock; the harness is the layer where wall-clock timing is allowed.
//! [`run_profiled`] drives an [`Engine`] step by step, attributing the
//! host time of each `step()` call to the [`StepEvent`] kind it
//! returned. The resulting [`StepProfile`] answers "where does the
//! simulator spend its time?" — SM cycles vs. memory cycles vs. epoch
//! bookkeeping — without perturbing the simulated run in any way.

use std::time::{Duration, Instant};

use equalizer_sim::engine::{Engine, StepEvent};
use equalizer_sim::governor::Governor;
use equalizer_sim::gpu::SimError;
use equalizer_sim::stats::RunStats;

use crate::tables::TextTable;

/// Accumulated host time for one class of engine step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// How many steps of this class ran.
    pub steps: u64,
    /// Total host wall-clock time spent in them.
    pub wall: Duration,
}

impl Span {
    fn add(&mut self, d: Duration) {
        self.steps += 1;
        self.wall += d;
    }

    /// Mean host nanoseconds per step (0 when the span never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.wall.as_nanos() as f64 / self.steps as f64
        }
    }
}

/// Host-time breakdown of a full simulation run by step kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepProfile {
    /// Invocation setup (block dispatch, counter reset).
    pub invocation_start: Span,
    /// Memory-domain cycles (L2, MSHRs, DRAM).
    pub mem_cycle: Span,
    /// SM-domain cycles (the hot loop).
    pub sm_cycle: Span,
    /// Epoch boundaries (governor decision + observer fan-out).
    pub epoch_boundary: Span,
    /// Invocation teardown (drain + stats fold).
    pub invocation_end: Span,
    /// End-to-end host time of the whole run.
    pub total: Duration,
}

impl StepProfile {
    /// Total host time attributed to individual steps (excludes loop
    /// overhead, which is `total` minus this).
    pub fn attributed(&self) -> Duration {
        self.invocation_start.wall
            + self.mem_cycle.wall
            + self.sm_cycle.wall
            + self.epoch_boundary.wall
            + self.invocation_end.wall
    }

    /// Renders the breakdown as an aligned text table.
    pub fn render(&self) -> String {
        let rows: [(&str, &Span); 5] = [
            ("invocation_start", &self.invocation_start),
            ("sm_cycle", &self.sm_cycle),
            ("mem_cycle", &self.mem_cycle),
            ("epoch_boundary", &self.epoch_boundary),
            ("invocation_end", &self.invocation_end),
        ];
        let total_ns = self.total.as_nanos().max(1) as f64;
        let mut table = TextTable::new(["stage", "steps", "wall_ms", "mean_ns", "share"]);
        for (name, span) in rows {
            table.row([
                name.to_string(),
                span.steps.to_string(),
                format!("{:.3}", span.wall.as_secs_f64() * 1e3),
                format!("{:.1}", span.mean_ns()),
                format!("{:.1}%", span.wall.as_nanos() as f64 / total_ns * 100.0),
            ]);
        }
        table.row([
            "total".to_string(),
            "-".to_string(),
            format!("{:.3}", self.total.as_secs_f64() * 1e3),
            "-".to_string(),
            "100.0%".to_string(),
        ]);
        table.render()
    }
}

/// Runs `engine` to completion under `governor`, timing every step.
///
/// Returns the run's [`RunStats`] and the host-time profile. The
/// simulated outcome is identical to [`Engine::run`] — profiling only
/// reads the host clock between steps.
///
/// # Errors
///
/// Propagates any [`SimError`] from the engine.
#[allow(
    clippy::disallowed_methods,
    reason = "host timing is this function's output and never reaches the run"
)]
pub fn run_profiled(
    engine: &mut Engine<'_>,
    governor: &mut dyn Governor,
) -> Result<(RunStats, StepProfile), SimError> {
    let mut profile = StepProfile::default();
    let run_start = Instant::now();
    loop {
        let step_start = Instant::now();
        let event = engine.step(governor)?;
        let elapsed = step_start.elapsed();
        match event {
            StepEvent::InvocationStart(_) => profile.invocation_start.add(elapsed),
            StepEvent::MemCycle => profile.mem_cycle.add(elapsed),
            StepEvent::SmCycle => profile.sm_cycle.add(elapsed),
            StepEvent::EpochBoundary => profile.epoch_boundary.add(elapsed),
            StepEvent::InvocationEnd(_) => profile.invocation_end.add(elapsed),
            StepEvent::Complete => break,
        }
    }
    profile.total = run_start.elapsed();
    Ok((engine.stats(), profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use equalizer_sim::config::GpuConfig;
    use equalizer_sim::governor::StaticGovernor;
    use equalizer_sim::gpu::SimOptions;
    use equalizer_workloads::kernel_by_name;

    #[test]
    fn profiled_run_matches_plain_run() {
        let config = GpuConfig::gtx480();
        let kernel = kernel_by_name("mmer").unwrap();
        let mut plain = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
        plain.run(&mut StaticGovernor).unwrap();
        let expected = plain.stats();

        let mut engine = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
        let (stats, profile) = run_profiled(&mut engine, &mut StaticGovernor).unwrap();
        assert_eq!(stats.wall_time_fs, expected.wall_time_fs);
        assert_eq!(stats.sm_cycles_at, expected.sm_cycles_at);
        assert!(profile.sm_cycle.steps > 0);
        assert!(profile.mem_cycle.steps > 0);
        assert!(profile.invocation_start.steps as usize == kernel.invocations().len());
        assert!(profile.total >= profile.sm_cycle.wall);
    }

    #[test]
    fn render_mentions_every_stage() {
        let p = StepProfile::default();
        let text = p.render();
        for stage in [
            "invocation_start",
            "sm_cycle",
            "mem_cycle",
            "epoch_boundary",
            "invocation_end",
            "total",
        ] {
            assert!(text.contains(stage), "{text}");
        }
    }
}
