//! Hot-path telemetry: the batch-window diagnostic.
//!
//! [`BatchWindowStats`] breaks down tick batching: how many windows
//! opened, their size distribution, what bounded each window, and why
//! each per-tick fallback happened. It is **diagnostic only**: kept
//! outside [`crate::stats::RunStats`] and outside the snapshot codec,
//! so reading it never changes results. The counters are plain
//! integers recorded unconditionally — the cost is one enum match per
//! SM step.

/// Log2 buckets in [`BatchWindowStats::size_histogram`]: bucket `i`
/// counts windows of `2^(i+1) ..= 2^(i+2) - 1` ticks (windows are never
/// shorter than 2), with the last bucket absorbing everything larger.
pub const WINDOW_SIZE_BUCKETS: usize = 11;

/// Why an SM tick could not open (or extend) a batched window, in the
/// order the proof obligations are checked by `Engine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClose {
    /// Batching is off for this machine: per-SM VRMs, or the
    /// `max_batch_ticks` knob is below 2.
    Disabled,
    /// A VF transition is pending on the SM or memory domain, so
    /// in-window tick times cannot be frozen.
    VfTransition,
    /// The memory system is not quiescent: a delivery could reach an SM
    /// inside the window. Only reported with `SimOptions::fast_forward`
    /// off (the PR 6 blanket check); with it on, memory-active ticks
    /// close as [`BatchClose::MemHorizon`] instead, and only when the
    /// horizon is genuinely short.
    MemoryActive,
    /// The memory system's next-event horizon is too short: a response
    /// could become ready for some SM within any window of at least 2
    /// ticks ([`crate::memsys::MemSystem::next_event_time`]).
    MemHorizon,
    /// The distance to the next epoch boundary or to the cycle-limit
    /// check leaves no room for a window of at least 2 ticks.
    EpochOrCycleCap,
    /// Some SM is not quiescent (staged access or non-empty queues).
    SmActive,
    /// Some SM's issue runway ([`crate::sm::Sm::batch_horizon`]) is too
    /// short: a schedulable warp could reach memory or retire within
    /// the window.
    IssueRunway,
}

/// What capped the length of a window that did open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowBound {
    /// The `max_batch_ticks` knob itself.
    Knob,
    /// The next epoch boundary.
    EpochCap,
    /// The cycle-limit check.
    LimitCap,
    /// The shortest per-SM issue runway.
    Horizon,
    /// The memory system's next-event horizon: the window ends strictly
    /// before the earliest cycle at which a response could be ready.
    MemHorizon,
}

/// Engine-thread breakdown of tick batching: window sizes, what bounded
/// them, and why per-tick fallbacks happened.
///
/// Replaces the bare `Engine::batched_ticks` count as the profiling
/// surface (that accessor remains, and remains part of
/// [`crate::stats::RunStats`]); everything here stays out of `RunStats`
/// and out of snapshots. Deterministic — the counters are driven purely
/// by the engine's own proof attempts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchWindowStats {
    /// Batched windows opened.
    pub windows: u64,
    /// SM ticks executed inside those windows (equals
    /// `Engine::batched_ticks`).
    pub ticks: u64,
    /// Window-size distribution over log2 buckets; see
    /// [`WINDOW_SIZE_BUCKETS`].
    pub size_histogram: [u64; WINDOW_SIZE_BUCKETS],
    /// Windows whose length was capped by the `max_batch_ticks` knob.
    pub bounded_by_knob: u64,
    /// Windows capped by the next epoch boundary.
    pub bounded_by_epoch: u64,
    /// Windows capped by the cycle-limit check.
    pub bounded_by_limit: u64,
    /// Windows capped by the shortest per-SM issue runway.
    pub bounded_by_horizon: u64,
    /// Windows capped by the memory system's next-event horizon.
    pub bounded_by_mem_horizon: u64,
    /// Fused fast-forward windows (all SMs provably stalled, per-cycle
    /// work skipped entirely) — a subset of `windows`.
    pub fused_windows: u64,
    /// SM ticks inside fused windows — a subset of `ticks`.
    pub fused_ticks: u64,
    /// Per-tick fallbacks: batching disabled for the machine.
    pub closed_disabled: u64,
    /// Per-tick fallbacks: pending VF transition.
    pub closed_vf_transition: u64,
    /// Per-tick fallbacks: memory system active (fast-forward off only).
    pub closed_memory_active: u64,
    /// Per-tick fallbacks: the memory next-event horizon was too short.
    pub closed_mem_horizon: u64,
    /// Per-tick fallbacks: epoch/cycle cap left no room.
    pub closed_epoch_or_cycle_cap: u64,
    /// Per-tick fallbacks: an SM was not quiescent.
    pub closed_sm_active: u64,
    /// Per-tick fallbacks: an SM's issue runway was too short.
    pub closed_issue_runway: u64,
}

impl BatchWindowStats {
    /// Records a window of `w` ticks whose length was capped by `bound`;
    /// `fused` marks the fully-stalled fast-forward kind.
    pub(crate) fn record_window(&mut self, w: u64, bound: WindowBound, fused: bool) {
        self.windows += 1;
        // Saturating: a diagnostic must never abort a run, and the sum
        // can only saturate when `w` itself is near the u64 horizon.
        self.ticks = self.ticks.saturating_add(w);
        if fused {
            self.fused_windows += 1;
            self.fused_ticks = self.fused_ticks.saturating_add(w);
        }
        // w >= 2 always, so floor(log2(w)) >= 1.
        let log2 = 63 - u64::leading_zeros(w.max(2)) as usize;
        let bucket = (log2 - 1).min(WINDOW_SIZE_BUCKETS - 1);
        self.size_histogram[bucket] += 1;
        match bound {
            WindowBound::Knob => self.bounded_by_knob += 1,
            WindowBound::EpochCap => self.bounded_by_epoch += 1,
            WindowBound::LimitCap => self.bounded_by_limit += 1,
            WindowBound::Horizon => self.bounded_by_horizon += 1,
            WindowBound::MemHorizon => self.bounded_by_mem_horizon += 1,
        }
    }

    /// Records one per-tick fallback and its reason.
    pub(crate) fn record_close(&mut self, close: BatchClose) {
        match close {
            BatchClose::Disabled => self.closed_disabled += 1,
            BatchClose::VfTransition => self.closed_vf_transition += 1,
            BatchClose::MemoryActive => self.closed_memory_active += 1,
            BatchClose::MemHorizon => self.closed_mem_horizon += 1,
            BatchClose::EpochOrCycleCap => self.closed_epoch_or_cycle_cap += 1,
            BatchClose::SmActive => self.closed_sm_active += 1,
            BatchClose::IssueRunway => self.closed_issue_runway += 1,
        }
    }

    /// Total per-tick fallbacks across every close reason.
    pub fn closes_total(&self) -> u64 {
        self.closed_disabled
            + self.closed_vf_transition
            + self.closed_memory_active
            + self.closed_mem_horizon
            + self.closed_epoch_or_cycle_cap
            + self.closed_sm_active
            + self.closed_issue_runway
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sizes_land_in_log2_buckets() {
        let mut stats = BatchWindowStats::default();
        stats.record_window(2, WindowBound::Knob, false);
        stats.record_window(3, WindowBound::Knob, false);
        stats.record_window(4, WindowBound::EpochCap, false);
        stats.record_window(1024, WindowBound::Knob, false);
        stats.record_window(u64::MAX, WindowBound::Horizon, false);
        assert_eq!(stats.size_histogram[0], 2, "2 and 3 share the first bucket");
        assert_eq!(stats.size_histogram[1], 1);
        assert_eq!(stats.size_histogram[9], 1, "1024 = 2^10");
        assert_eq!(stats.size_histogram[WINDOW_SIZE_BUCKETS - 1], 1);
        assert_eq!(stats.windows, 5);
        assert_eq!(stats.bounded_by_knob, 3);
        assert_eq!(stats.bounded_by_epoch, 1);
        assert_eq!(stats.bounded_by_horizon, 1);
        assert_eq!(stats.fused_windows, 0);
    }

    #[test]
    fn fused_windows_and_mem_horizon_bounds_are_tracked() {
        let mut stats = BatchWindowStats::default();
        stats.record_window(16, WindowBound::MemHorizon, true);
        stats.record_window(8, WindowBound::Knob, false);
        assert_eq!(stats.windows, 2);
        assert_eq!(stats.ticks, 24);
        assert_eq!(stats.fused_windows, 1);
        assert_eq!(stats.fused_ticks, 16);
        assert_eq!(stats.bounded_by_mem_horizon, 1);
    }

    #[test]
    fn close_reasons_accumulate_and_total() {
        let mut stats = BatchWindowStats::default();
        stats.record_close(BatchClose::Disabled);
        stats.record_close(BatchClose::MemoryActive);
        stats.record_close(BatchClose::MemoryActive);
        stats.record_close(BatchClose::MemHorizon);
        stats.record_close(BatchClose::IssueRunway);
        assert_eq!(stats.closed_memory_active, 2);
        assert_eq!(stats.closed_mem_horizon, 1);
        assert_eq!(stats.closes_total(), 5);
    }
}
