//! Per-warp execution state.
//!
//! A warp executes its block's program in order. The scoreboard is
//! modelled with two fields: a time before which the warp may not issue
//! (ALU dependent-use latency) and a count of outstanding load line
//! requests (a warp blocks until the data it loaded returns, the common
//! case for in-order issue with a scoreboard).

use crate::config::Femtos;
use crate::program::ProgCounter;

/// One resident warp on an SM.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp slot index on the SM.
    pub slot: usize,
    /// Globally unique warp id (drives private address streams).
    pub uid: u64,
    /// Resident-block slot this warp belongs to.
    pub block_slot: usize,
    /// Global index of the warp's block within the grid.
    pub block_index: u64,
    /// Program position.
    pub pc: ProgCounter,
    /// The warp has executed its whole program.
    pub finished: bool,
    /// The warp is parked at a block barrier.
    pub at_barrier: bool,
    /// Earliest absolute time the next instruction may issue (ALU
    /// dependent-use latency).
    pub ready_at: Femtos,
    /// Outstanding load line-requests the next instruction waits on.
    pub pending_loads: u32,
    /// Memory instructions executed so far (address-stream counter).
    pub mem_counter: u64,
    /// Launch-stagger cycles remaining before the warp may first issue
    /// (decoheres identical warps of a freshly launched block).
    pub stagger: u32,
}

impl Warp {
    /// Creates a fresh warp at the start of its program.
    pub fn new(slot: usize, uid: u64, block_slot: usize, block_index: u64) -> Self {
        Self {
            slot,
            uid,
            block_slot,
            block_index,
            pc: ProgCounter::default(),
            finished: false,
            at_barrier: false,
            ready_at: 0,
            pending_loads: 0,
            mem_counter: 0,
            stagger: 0,
        }
    }

    /// Whether the scoreboard allows the warp to issue at `now`.
    pub fn scoreboard_ready(&self, now: Femtos) -> bool {
        self.pending_loads == 0 && self.ready_at <= now
    }

    /// Whether the warp is schedulable at all (not finished / at barrier).
    pub fn schedulable(&self) -> bool {
        !self.finished && !self.at_barrier
    }

    /// Whether the issue stage can act on the warp at `now`: count down
    /// its launch stagger or classify it ready to issue.
    pub fn can_act(&self, now: Femtos) -> bool {
        self.schedulable() && (self.stagger > 0 || self.scoreboard_ready(now))
    }

    /// Delivers one returned load line.
    pub fn complete_load(&mut self) {
        // Sanitizer: the scoreboard must never release a register it did
        // not set — a completion with no pending load means a response was
        // double-delivered or aliased onto a reused warp slot.
        debug_assert!(self.pending_loads > 0, "spurious load completion");
        crate::validate_assert!(
            self.pending_loads > 0,
            "scoreboard release without a pending load (warp uid {})",
            self.uid
        );
        self.pending_loads = self.pending_loads.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_warp_is_ready() {
        let w = Warp::new(0, 1, 0, 0);
        assert!(w.scoreboard_ready(0));
        assert!(w.schedulable());
    }

    #[test]
    fn alu_latency_blocks_until_ready_at() {
        let mut w = Warp::new(0, 1, 0, 0);
        w.ready_at = 100;
        assert!(!w.scoreboard_ready(99));
        assert!(w.scoreboard_ready(100));
    }

    #[test]
    fn pending_loads_block_and_release() {
        let mut w = Warp::new(0, 1, 0, 0);
        w.pending_loads = 2;
        assert!(!w.scoreboard_ready(u64::MAX));
        w.complete_load();
        assert!(!w.scoreboard_ready(u64::MAX));
        w.complete_load();
        assert!(w.scoreboard_ready(0));
    }

    #[test]
    fn barrier_blocks_scheduling() {
        let mut w = Warp::new(0, 1, 0, 0);
        w.at_barrier = true;
        assert!(!w.schedulable());
    }
}
