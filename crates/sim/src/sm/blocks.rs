//! Thread-block residency control: launch, pause/unpause, fill and
//! retirement — the actuator side of Equalizer's concurrency tuning
//! (paper §IV-B).

use crate::gwde::Gwde;
use crate::warp::Warp;

use super::{BlockState, Sm};

impl Sm {
    /// Number of unpaused resident blocks.
    pub fn active_blocks(&self) -> usize {
        self.blocks.iter().flatten().filter(|b| !b.paused).count()
    }

    /// Number of paused resident blocks.
    pub fn paused_blocks(&self) -> usize {
        self.blocks.iter().flatten().filter(|b| b.paused).count()
    }

    /// The runtime's current concurrency target for this SM.
    pub fn target_blocks(&self) -> usize {
        self.target_blocks
    }

    /// Total blocks completed on this SM in the current run.
    pub fn blocks_completed(&self) -> u64 {
        self.blocks_completed
    }

    /// Warps currently resident (paused blocks included).
    pub fn resident_warps(&self) -> usize {
        self.warps.iter().flatten().count()
    }

    /// Grid indices of the currently resident blocks (paused included),
    /// in launch order. Useful for debugging and trace inspection.
    pub fn resident_block_indices(&self) -> Vec<u64> {
        let mut blocks: Vec<(u64, u64)> = self
            .blocks
            .iter()
            .flatten()
            .map(|b| (b.launch_seq, b.block_index))
            .collect();
        blocks.sort_unstable();
        blocks.into_iter().map(|(_, idx)| idx).collect()
    }

    /// Sets the concurrency target, pausing or unpausing blocks as needed.
    ///
    /// The target is clamped to `1..=resident_limit`.
    pub fn set_target_blocks(&mut self, target: usize) {
        self.target_blocks = target.clamp(1, self.resident_limit);
        // Pause youngest active blocks while above target.
        while self.active_blocks() > self.target_blocks {
            let Some(victim) = self
                .blocks
                .iter_mut()
                .flatten()
                .filter(|b| !b.paused)
                .max_by_key(|b| b.launch_seq)
            else {
                break;
            };
            victim.paused = true;
            self.order_dirty = true;
        }
        // Unpausing to meet a raised target happens in `fill`.
    }

    /// Unpauses blocks and fetches new ones from the GWDE until the SM
    /// meets its concurrency target (or runs out of work/slots).
    ///
    /// Takes the shared dispatcher mutably: the engine calls it (via
    /// [`Sm::cycle`] or at epoch/invocation boundaries) in service
    /// order, so block dispatch resolves in one deterministic order.
    pub fn fill(&mut self, gwde: &mut Gwde) {
        while self.active_blocks() < self.target_blocks {
            // Prefer resuming a paused block (paper §IV-B: no new GWDE
            // request is made while paused blocks exist).
            if let Some(b) = self
                .blocks
                .iter_mut()
                .flatten()
                .filter(|b| b.paused)
                .min_by_key(|b| b.launch_seq)
            {
                b.paused = false;
                self.order_dirty = true;
                continue;
            }
            let Some(slot) = self.free_block_slot() else {
                break;
            };
            let Some(block_index) = gwde.dispatch() else {
                break;
            };
            self.launch_block(slot, block_index);
        }
    }

    fn free_block_slot(&self) -> Option<usize> {
        (0..self.resident_limit.min(self.blocks.len())).find(|&s| self.blocks[s].is_none())
    }

    fn launch_block(&mut self, slot: usize, block_index: u64) {
        let base = slot * self.w_cta;
        let mut warp_slots = Vec::with_capacity(self.w_cta);
        for i in 0..self.w_cta {
            let ws = base + i;
            debug_assert!(self.warps[ws].is_none(), "warp slot collision");
            let uid = block_index * self.w_cta as u64 + i as u64;
            let mut warp = Warp::new(ws, uid, slot, block_index);
            warp.stagger = i as u32 * self.warp_launch_stagger;
            if warp.stagger > 0 {
                self.staggered += 1;
            }
            self.warps[ws] = Some(warp);
            warp_slots.push(ws);
        }
        self.blocks[slot] = Some(BlockState {
            block_index,
            warp_slots,
            paused: false,
            launch_seq: self.launch_seq,
        });
        self.launch_seq += 1;
        self.order_dirty = true;
    }

    /// Clears a warp barrier once every live warp of the block has either
    /// arrived at it or finished, marking each released warp as an issue
    /// candidate.
    pub(super) fn maybe_release_barrier(&mut self, block_slot: usize) {
        let Some(block) = self.blocks[block_slot].as_ref() else {
            return;
        };
        let all_arrived = block.warp_slots.iter().all(|&ws| {
            self.warps[ws]
                .as_ref()
                .is_none_or(|w| w.finished || w.at_barrier)
        });
        if all_arrived {
            for &ws in &block.warp_slots {
                if let Some(w) = self.warps[ws].as_mut().filter(|w| w.at_barrier) {
                    w.at_barrier = false;
                    self.cand.mark_slot(ws);
                }
            }
        }
    }

    /// Queues the block for retirement once every warp has both executed
    /// its last instruction and drained its outstanding loads.
    pub(super) fn check_block_done(&mut self, block_slot: usize, completed: &mut Vec<usize>) {
        let Some(block) = self.blocks[block_slot].as_ref() else {
            return;
        };
        // A block is done only when every warp has both executed its last
        // instruction and drained its outstanding loads — retiring earlier
        // would let responses alias a reused warp slot.
        let done = block.warp_slots.iter().all(|&ws| {
            self.warps[ws]
                .as_ref()
                .is_none_or(|w| w.finished && w.pending_loads == 0)
        });
        if done && !completed.contains(&block_slot) {
            completed.push(block_slot);
        }
        // A barrier may have been waiting only on warps that finished.
        self.maybe_release_barrier(block_slot);
    }

    /// Frees a completed block's slot and warp slots.
    pub(super) fn retire_block(&mut self, block_slot: usize) {
        if let Some(block) = self.blocks[block_slot].take() {
            for ws in block.warp_slots {
                self.warps[ws] = None;
            }
            self.blocks_completed += 1;
            self.order_dirty = true;
        }
    }
}
