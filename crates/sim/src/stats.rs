//! Run-level statistics produced by the simulator.
//!
//! [`RunStats`] carries everything downstream consumers need: wall time,
//! per-VF-level cycle/time residency for both clock domains, event counts
//! for the power model, the whole-run warp-state distribution (Figure 4)
//! and a per-epoch timeline (Figures 2b, 9, 11).

use crate::config::{Femtos, VfLevel, FS_PER_SEC};
use crate::counters::WarpStateCounters;
use crate::memsys::MemLevelStats;
use crate::sm::SmLevelEvents;

/// Snapshot of one epoch, recorded at the epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Monotonic epoch index within the run.
    pub epoch_index: u64,
    /// Invocation the epoch belongs to.
    pub invocation: usize,
    /// Absolute simulated time at the boundary.
    pub end_fs: Femtos,
    /// SM-domain VF level during (the end of) the epoch.
    pub sm_level: VfLevel,
    /// Memory-domain VF level during (the end of) the epoch.
    pub mem_level: VfLevel,
    /// Warp-state counters summed over all SMs.
    pub counters: WarpStateCounters,
    /// Mean unpaused resident blocks per SM.
    pub mean_active_blocks: f64,
    /// Mean concurrency target per SM.
    pub mean_target_blocks: f64,
}

/// Per-invocation timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationStats {
    /// Invocation index.
    pub index: usize,
    /// SM-domain cycles consumed by this invocation.
    pub sm_cycles: u64,
    /// Wall time consumed by this invocation.
    pub wall_fs: Femtos,
}

/// Complete statistics for one simulated kernel run.
///
/// Equality is field-wise and exact, which is meaningful because the
/// simulator is deterministic: two runs of the same configuration must
/// compare equal, and an attached observer must not change the result.
/// The one exception is [`RunStats::batched_ticks`]: it is a wall-clock
/// diagnostic (how often fused windows engaged) that legitimately
/// varies with `SimOptions::max_batch_ticks`, so the manual
/// [`PartialEq`] below excludes it.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total simulated wall time.
    pub wall_time_fs: Femtos,
    /// Number of SMs (events below are sums over all SMs).
    pub num_sms: usize,
    /// SM-domain cycles at each VF level.
    pub sm_cycles_at: [u64; 3],
    /// SM-domain wall time at each VF level.
    pub sm_time_at: [Femtos; 3],
    /// Memory-domain cycles at each VF level.
    pub mem_cycles_at: [u64; 3],
    /// Memory-domain wall time at each VF level.
    pub mem_time_at: [Femtos; 3],
    /// SM-side events by SM-domain VF level.
    pub sm_events: [SmLevelEvents; 3],
    /// Memory-side events by memory-domain VF level.
    pub mem_events: [MemLevelStats; 3],
    /// Whole-run warp-state counters summed over SMs (Figure 4).
    pub warp_states: WarpStateCounters,
    /// SM-domain ticks executed inside fused stall windows. The field
    /// counts machine ticks, once per window whatever the SM count, so
    /// the window coverage is `batched_ticks / Σ sm_cycles_at`, with no
    /// `× num_sms`. Diagnostic only: varies with
    /// `SimOptions::max_batch_ticks`, and is excluded from equality.
    pub batched_ticks: u64,
    /// Epochs the engine executed.
    pub epochs_executed: u64,
    /// Per-epoch timeline.
    pub epochs: Vec<EpochRecord>,
    /// Per-invocation timing.
    pub invocations: Vec<InvocationStats>,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: a new field cannot ship without a
        // decision on whether it participates in equality.
        let RunStats {
            wall_time_fs,
            num_sms,
            sm_cycles_at,
            sm_time_at,
            mem_cycles_at,
            mem_time_at,
            sm_events,
            mem_events,
            warp_states,
            batched_ticks: _, // wall-clock diagnostic, see struct docs
            epochs_executed,
            epochs,
            invocations,
        } = self;
        *wall_time_fs == other.wall_time_fs
            && *num_sms == other.num_sms
            && *sm_cycles_at == other.sm_cycles_at
            && *sm_time_at == other.sm_time_at
            && *mem_cycles_at == other.mem_cycles_at
            && *mem_time_at == other.mem_time_at
            && *sm_events == other.sm_events
            && *mem_events == other.mem_events
            && *warp_states == other.warp_states
            && *epochs_executed == other.epochs_executed
            && *epochs == other.epochs
            && *invocations == other.invocations
    }
}

impl RunStats {
    /// Simulated wall time in seconds.
    pub fn time_seconds(&self) -> f64 {
        self.wall_time_fs as f64 / FS_PER_SEC
    }

    /// Total instructions issued (all SMs, all levels).
    pub fn instructions(&self) -> u64 {
        self.sm_events.iter().map(|e| e.issued).sum()
    }

    /// Mean IPC per SM over the whole run.
    pub fn ipc_per_sm(&self) -> f64 {
        let cycles: u64 = self.sm_cycles_at.iter().sum();
        if cycles == 0 || self.num_sms == 0 {
            0.0
        } else {
            self.instructions() as f64 / cycles as f64 / self.num_sms as f64
        }
    }

    /// Aggregate L1 hit rate across SMs.
    pub fn l1_hit_rate(&self) -> f64 {
        let acc: u64 = self.sm_events.iter().map(|e| e.l1_accesses).sum();
        let hit: u64 = self.sm_events.iter().map(|e| e.l1_hits).sum();
        if acc == 0 {
            0.0
        } else {
            hit as f64 / acc as f64
        }
    }

    /// Aggregate L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        let acc: u64 = self.mem_events.iter().map(|e| e.l2_accesses).sum();
        let hit: u64 = self.mem_events.iter().map(|e| e.l2_hits).sum();
        if acc == 0 {
            0.0
        } else {
            hit as f64 / acc as f64
        }
    }

    /// Total DRAM line transfers.
    pub fn dram_accesses(&self) -> u64 {
        self.mem_events.iter().map(|e| e.dram_accesses).sum()
    }

    /// Fraction of wall time the SM domain spent at each VF level
    /// (Figure 9 data).
    pub fn sm_level_residency(&self) -> [f64; 3] {
        Self::residency(&self.sm_time_at)
    }

    /// Fraction of wall time the memory domain spent at each VF level
    /// (Figure 9 data).
    pub fn mem_level_residency(&self) -> [f64; 3] {
        Self::residency(&self.mem_time_at)
    }

    fn residency(times: &[Femtos; 3]) -> [f64; 3] {
        let total: Femtos = times.iter().sum();
        if total == 0 {
            [0.0, 1.0, 0.0]
        } else {
            [
                times[0] as f64 / total as f64,
                times[1] as f64 / total as f64,
                times[2] as f64 / total as f64,
            ]
        }
    }

    /// Mean unpaused blocks per SM over an invocation's epochs, weighted
    /// by active warps so the natural drain at the end of a grid does not
    /// dilute the concurrency the work actually experienced (Figure 11a
    /// data). `None` if no epoch fell inside the invocation.
    pub fn mean_blocks_in_invocation(&self, invocation: usize) -> Option<f64> {
        let mut sum = 0.0;
        let mut weight = 0.0;
        for e in &self.epochs {
            if e.invocation == invocation {
                let w = (e.counters.active as f64).max(1.0);
                sum += e.mean_active_blocks * w;
                weight += w;
            }
        }
        if weight == 0.0 {
            None
        } else {
            Some(sum / weight)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_defaults_to_nominal() {
        let s = RunStats::default();
        let r = s.sm_level_residency();
        for (got, want) in r.iter().zip([0.0, 1.0, 0.0]) {
            assert!((got - want).abs() < 1e-12, "residency {r:?}");
        }
    }

    #[test]
    fn residency_fractions_sum_to_one() {
        let s = RunStats {
            sm_time_at: [1_000, 3_000, 1_000],
            ..RunStats::default()
        };
        let r = s.sm_level_residency();
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((r[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn hit_rates_guard_division_by_zero() {
        let s = RunStats::default();
        assert!(s.l1_hit_rate().abs() < 1e-12);
        assert!(s.l2_hit_rate().abs() < 1e-12);
        assert!(s.ipc_per_sm().abs() < 1e-12);
    }

    #[test]
    fn mean_blocks_filters_by_invocation() {
        let mut s = RunStats::default();
        let rec = |inv: usize, blocks: f64| EpochRecord {
            epoch_index: 0,
            invocation: inv,
            end_fs: 0,
            sm_level: VfLevel::Nominal,
            mem_level: VfLevel::Nominal,
            counters: WarpStateCounters::default(),
            mean_active_blocks: blocks,
            mean_target_blocks: blocks,
        };
        s.epochs = vec![rec(0, 2.0), rec(0, 4.0), rec(1, 6.0)];
        assert_eq!(s.mean_blocks_in_invocation(0), Some(3.0));
        assert_eq!(s.mean_blocks_in_invocation(1), Some(6.0));
        assert_eq!(s.mean_blocks_in_invocation(2), None);
    }
}
