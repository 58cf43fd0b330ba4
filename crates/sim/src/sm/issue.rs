//! Issue stage: the scheduler walk and warp-state classification.
//!
//! Once per cycle the SM walks resident warps oldest-block-first and
//! classifies each unpaused warp into the paper's states — `Issued`,
//! `Waiting`, `ExcessAlu`, `ExcessMem` or `Others` — issuing up to
//! `issue_width` instructions split across the ALU and memory ports.
//!
//! # The candidate set
//!
//! The walk does not visit every resident warp. It visits the positions
//! of [`Candidates`], a bitset over `sched_order` positions with one
//! invariant: it always holds a **superset of the warps that can act**
//! this cycle. A warp can act if it is unfinished, not at a barrier, and
//! either still counting down its launch stagger or scoreboard-ready
//! ([`crate::warp::Warp::can_act`]). A warp that cannot act would only be
//! classified `Others` or `Waiting` with no side effect, so skipping it
//! changes nothing but the snapshot of an unsampled cycle, which no
//! statistic reads (only `issued` and `active > 0 || busy()` are).
//!
//! Bits are set by:
//! - `rebuild_order`, which marks every position;
//! - the wake heap, when an ALU dependency's `ready_at` passes;
//! - `deliver_load`, when a warp's `pending_loads` reaches zero;
//! - `maybe_release_barrier`, for every warp it releases.
//!
//! Bits are cleared only when a visit finds the warp finished, at a
//! barrier or scoreboard-blocked; a blocked warp with no pending loads
//! then queues its `ready_at` on the wake heap. On sample cycles every
//! position is marked first, so the sampled snapshot is complete. The
//! walk re-reads the live bitset as it advances, so a barrier released
//! mid-walk is seen exactly as by a full walk. Like `sched_order`, all of
//! it is derived state: rebuilt with the order, never serialized.
//!
//! # Fast-issue cuts
//!
//! On cycles that are never sampled, with no launch stagger pending and
//! a barrier-free program, the walk stops once the issue ports are
//! exhausted, and skips every position whose next instruction is `Mem`
//! once the memory port is closed (`max_mem_issue` reached or the LSU
//! queue full): those warps could only be classified `ExcessMem`. Under
//! CCWS it also skips, port open or not, every position whose next
//! instruction is `Mem` and whose warp CCWS throttles: it too could
//! only be `ExcessMem`. The `blocked` bitset that names those warps is
//! a copy of the CCWS mask, rebuilt with the order and whenever the mask
//! refreshes.
//!
//! The whole stage is part of the *local* phase of the two-phase cycle:
//! it reads and writes only this SM's warps, scoreboard and LSU queue,
//! and leaves everything shared to the commit. `Sm::cycle_local` gets
//! no handle to shared mutable state, and the crate's `clippy.toml`
//! bans the cells, locks and atomics that could smuggle one in
//! (DESIGN.md §7).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ccws::CcwsState;
use crate::config::Femtos;
use crate::counters::{CycleSnapshot, WarpState};
use crate::program::{Instr, Program};
use crate::warp::Warp;

use super::{BlockState, LsuEntry, Sm};

/// `pos` entry of a warp slot that has no scheduler position.
const NO_POS: usize = usize::MAX;

/// The issue walk's candidate set (see the module docs).
#[derive(Debug, Clone, Default)]
pub(super) struct Candidates {
    /// One bit per `sched_order` position: a superset of the warps that
    /// can act this cycle.
    live: Vec<u64>,
    /// One bit per position whose warp's next instruction is `Mem`
    /// (exact, since skipping a non-`Mem` warp could lose an issue).
    mem_next: Vec<u64>,
    /// One bit per position whose warp CCWS forbids to issue memory
    /// instructions (exact: a copy of the mask, refreshed with it).
    blocked: Vec<u64>,
    /// Scheduler position of each warp slot, `NO_POS` if it has none.
    pos: Vec<usize>,
    /// Number of positions (`sched_order.len()`).
    len: usize,
    /// `(ready_at, warp slot)` of warps cleared while blocked only on an
    /// ALU dependency; each is marked again once `ready_at` passes.
    wake: BinaryHeap<Reverse<(Femtos, usize)>>,
}

impl Candidates {
    /// Marks every position of `order` and records each warp's next
    /// instruction kind and CCWS memory-issue right.
    fn rebuild(
        &mut self,
        order: &[usize],
        warps: &[Option<Warp>],
        program: Option<&Program>,
        ccws: Option<&CcwsState>,
    ) {
        let words = order.len().div_ceil(64);
        self.live.clear();
        self.live.resize(words, 0);
        self.mem_next.clear();
        self.mem_next.resize(words, 0);
        self.pos.clear();
        self.pos.resize(warps.len(), NO_POS);
        self.wake.clear();
        self.len = order.len();
        self.mark_all();
        for (p, &ws) in order.iter().enumerate() {
            self.pos[ws] = p;
            let mem = program
                .zip(warps[ws].as_ref())
                .is_some_and(|(program, warp)| next_is_mem(warp, program));
            self.set_mem(p, mem);
        }
        self.set_blocked(order, ccws);
    }

    /// Copies CCWS's memory-issue mask onto the positions of `order`.
    /// Called whenever the mask is refreshed or the order rebuilt.
    pub(super) fn set_blocked(&mut self, order: &[usize], ccws: Option<&CcwsState>) {
        self.blocked.clear();
        self.blocked.resize(order.len().div_ceil(64), 0);
        if let Some(ccws) = ccws {
            for (p, &ws) in order.iter().enumerate() {
                if !ccws.may_issue_mem(ws) {
                    self.blocked[p / 64] |= 1 << (p % 64);
                }
            }
        }
    }

    /// Marks every position (sample cycles walk them all).
    fn mark_all(&mut self) {
        for (i, word) in self.live.iter_mut().enumerate() {
            let bits = self.len.saturating_sub(i * 64).min(64);
            *word = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
    }

    /// Marks warp slot `ws` as a candidate, if it has a position.
    pub(super) fn mark_slot(&mut self, ws: usize) {
        if let Some(&p) = self.pos.get(ws).filter(|&&p| p != NO_POS) {
            self.live[p / 64] |= 1 << (p % 64);
        }
    }

    fn clear(&mut self, p: usize) {
        self.live[p / 64] &= !(1 << (p % 64));
    }

    fn set_mem(&mut self, p: usize, mem: bool) {
        let bit = 1 << (p % 64);
        if mem {
            self.mem_next[p / 64] |= bit;
        } else {
            self.mem_next[p / 64] &= !bit;
        }
    }

    #[cfg(feature = "validate")]
    fn contains(&self, p: usize) -> bool {
        self.live[p / 64] & (1 << (p % 64)) != 0
    }

    #[cfg(feature = "validate")]
    fn is_blocked(&self, p: usize) -> bool {
        self.blocked[p / 64] & (1 << (p % 64)) != 0
    }

    /// Marks every warp whose ALU dependency has resolved by `now`.
    fn wake_due(&mut self, now: Femtos) {
        while let Some(&Reverse((ready_at, ws))) = self.wake.peek() {
            if ready_at > now {
                break;
            }
            self.wake.pop();
            self.mark_slot(ws);
        }
    }

    /// The first candidate position at or after `from`, read from the
    /// live bitset. With `skip_mem`, positions whose next instruction is
    /// `Mem` are passed over; with `skip_blocked`, only those whose warp
    /// CCWS forbids to issue one.
    fn next(&self, from: usize, skip_mem: bool, skip_blocked: bool) -> Option<usize> {
        let mut wi = from / 64;
        let mut mask = !0u64 << (from % 64);
        while let Some(&word) = self.live.get(wi) {
            let mut bits = word & mask;
            if skip_mem {
                bits &= !self.mem_next[wi];
            } else if skip_blocked {
                bits &= !(self.mem_next[wi] & self.blocked[wi]);
            }
            if bits != 0 {
                return Some(wi * 64 + bits.trailing_zeros() as usize);
            }
            wi += 1;
            mask = !0;
        }
        None
    }
}

/// Whether the warp's next instruction is a memory instruction.
fn next_is_mem(warp: &Warp, program: &Program) -> bool {
    matches!(
        warp.pc.fetch(program, warp.block_index),
        Some(Instr::Mem(_))
    )
}

impl Sm {
    /// Rebuilds the oldest-block-first scheduler walk order over the
    /// unpaused resident blocks, and the candidate set over it.
    fn rebuild_order(&mut self) {
        self.sched_order.clear();
        let mut blocks: Vec<&BlockState> =
            self.blocks.iter().flatten().filter(|b| !b.paused).collect();
        blocks.sort_by_key(|b| b.launch_seq);
        for b in blocks {
            self.sched_order.extend_from_slice(&b.warp_slots);
        }
        self.cand.rebuild(
            &self.sched_order,
            &self.warps,
            self.program.as_deref(),
            self.ccws.as_ref(),
        );
        self.order_dirty = false;
    }

    /// The per-cycle issue stage: classifies every candidate warp and
    /// issues up to the port limits, returning the cycle's warp-state
    /// snapshot. Blocks whose last warp finishes are appended to
    /// `completed_blocks` for the retire stage.
    pub(super) fn issue_stage(
        &mut self,
        now: Femtos,
        li: usize,
        period_fs: Femtos,
        completed_blocks: &mut Vec<usize>,
    ) -> CycleSnapshot {
        if self.order_dirty {
            self.rebuild_order();
        }
        self.cand.wake_due(now);
        let sampled = self.sampled;
        if sampled {
            self.cand.mark_all();
        }
        #[cfg(feature = "validate")]
        for (p, &ws) in self.sched_order.iter().enumerate() {
            crate::validate_assert!(
                self.cand.contains(p) || self.warps[ws].as_ref().is_none_or(|w| !w.can_act(now)),
                "SM {}: actionable warp slot {ws} missing from the candidate set",
                self.id
            );
            crate::validate_assert!(
                self.cand.is_blocked(p) != self.ccws.as_ref().is_none_or(|c| c.may_issue_mem(ws)),
                "SM {}: blocked bit of warp slot {ws} disagrees with the CCWS mask",
                self.id
            );
        }
        let mut snap = CycleSnapshot::default();
        let mut issued_total = 0usize;
        let mut issued_alu = 0usize;
        let mut issued_mem = 0usize;

        // No program means no resident warps; the scheduler walk below is
        // then a no-op, so skipping it keeps the statistics identical.
        // Moved out rather than cloned: this runs every SM cycle, and a
        // take/put-back is two pointer copies where an `Arc` clone is two
        // atomic refcount operations. Nothing in the walk reads
        // `self.program` (it is put back before anything else can).
        let Some(owned) = self.program.take() else {
            return snap;
        };
        let program: &Program = &owned;

        // Fast-issue cuts (module docs): once the issue ports are
        // exhausted the rest of the walk could only classify warps, and
        // once the memory port is closed a `Mem` warp could only be
        // `ExcessMem`, as could a `Mem` warp CCWS throttles at any time —
        // and on cycles that are never sampled, the statistics read only
        // `issued`/`active`, both already settled.
        // The cuts stay off while any warp is counting down its launch
        // stagger (the walk decrements it unconditionally) and for
        // programs with barriers (`Sync` executes without consuming an
        // issue port).
        let fast_cut = self.fast_issue && self.staggered == 0 && !program.has_sync() && !sampled;

        let mut from = 0;
        loop {
            if fast_cut && issued_total >= self.issue_width {
                break;
            }
            let mem_closed =
                fast_cut && (issued_mem >= self.max_mem_issue || self.lsu.len() >= self.lsu_cap);
            let Some(oi) = self.cand.next(from, mem_closed, fast_cut) else {
                break;
            };
            from = oi + 1;
            let ws = self.sched_order[oi];
            let Some(warp) = self.warps[ws].as_mut() else {
                continue;
            };
            if warp.finished || warp.at_barrier {
                self.cand.clear(oi);
                snap.record(WarpState::Others);
                continue;
            }
            if warp.stagger > 0 {
                warp.stagger -= 1;
                if warp.stagger == 0 {
                    self.staggered -= 1;
                }
                snap.record(WarpState::Waiting);
                continue;
            }
            if !warp.scoreboard_ready(now) {
                self.cand.clear(oi);
                if warp.pending_loads == 0 {
                    self.cand.wake.push(Reverse((warp.ready_at, ws)));
                }
                snap.record(WarpState::Waiting);
                continue;
            }
            let block_index = warp.block_index;
            let Some(&instr) = warp.pc.fetch(program, block_index) else {
                crate::validate_assert!(false, "unfinished warp has no instruction");
                snap.record(WarpState::Others);
                continue;
            };
            match instr {
                Instr::Alu { dep } => {
                    if issued_total < self.issue_width && issued_alu < self.max_alu_issue {
                        issued_total += 1;
                        issued_alu += 1;
                        let alu_ready = now + Femtos::from(self.alu_latency) * period_fs;
                        if dep {
                            warp.ready_at = alu_ready;
                        }
                        let finished = !warp.pc.advance(program, block_index);
                        if finished {
                            warp.finished = true;
                        }
                        self.cand.set_mem(oi, next_is_mem(warp, program));
                        let block_slot = warp.block_slot;
                        self.events[li].issued += 1;
                        self.events[li].alu_ops += 1;
                        if finished {
                            self.check_block_done(block_slot, completed_blocks);
                        }
                        snap.record(WarpState::Issued);
                    } else {
                        snap.record(WarpState::ExcessAlu);
                    }
                }
                Instr::Mem(mi) => {
                    let ccws_ok = self.ccws.as_ref().is_none_or(|c| c.may_issue_mem(ws));
                    if ccws_ok
                        && issued_total < self.issue_width
                        && issued_mem < self.max_mem_issue
                        && self.lsu.len() < self.lsu_cap
                    {
                        issued_total += 1;
                        issued_mem += 1;
                        let counter = warp.mem_counter;
                        warp.mem_counter += 1;
                        if mi.is_load {
                            warp.pending_loads += u32::from(mi.accesses);
                        }
                        let finished = !warp.pc.advance(program, block_index);
                        if finished {
                            warp.finished = true;
                        }
                        self.cand.set_mem(oi, next_is_mem(warp, program));
                        let (block_slot, uid) = (warp.block_slot, warp.uid);
                        self.events[li].issued += 1;
                        self.events[li].mem_instrs += 1;
                        self.lsu.push_back(LsuEntry {
                            warp_slot: ws,
                            warp_uid: uid,
                            instr: mi,
                            mem_counter: counter,
                            next_access: 0,
                        });
                        if finished {
                            self.check_block_done(block_slot, completed_blocks);
                        }
                        snap.record(WarpState::Issued);
                    } else {
                        snap.record(WarpState::ExcessMem);
                    }
                }
                Instr::Sync => {
                    let finished = !warp.pc.advance(program, block_index);
                    if finished {
                        warp.finished = true;
                    } else {
                        warp.at_barrier = true;
                    }
                    self.cand.set_mem(oi, next_is_mem(warp, program));
                    let block_slot = warp.block_slot;
                    if finished {
                        self.check_block_done(block_slot, completed_blocks);
                    } else {
                        self.maybe_release_barrier(block_slot);
                    }
                    snap.record(WarpState::Others);
                }
            }
        }
        self.program = Some(owned);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 130 positions span three words; the SM simulations in the test
    /// suites mostly stay within one.
    #[test]
    fn candidates_scan_across_words() {
        let order: Vec<usize> = (0..130).collect();
        let mut c = Candidates::default();
        c.rebuild(&order, &vec![None; 130], None, None);
        assert_eq!(c.next(0, false, false), Some(0));
        assert_eq!(c.next(129, false, false), Some(129));
        assert_eq!(c.next(130, false, false), None, "no bits past the order");

        for p in (0..130).filter(|&p| p != 70 && p != 128) {
            c.clear(p);
        }
        assert_eq!(c.next(0, false, false), Some(70));
        assert_eq!(c.next(71, false, false), Some(128));
        c.set_mem(70, true);
        assert_eq!(
            c.next(0, true, false),
            Some(128),
            "memory-bound position skipped"
        );
        assert_eq!(c.next(0, false, false), Some(70), "but still a candidate");
        c.blocked[70 / 64] |= 1 << (70 % 64);
        assert_eq!(
            c.next(0, false, true),
            Some(128),
            "throttled memory-bound position skipped"
        );
        c.set_mem(70, false);
        assert_eq!(
            c.next(0, false, true),
            Some(70),
            "a throttled warp still issues ALU work"
        );

        c.wake.push(Reverse((50, 5)));
        c.wake_due(49);
        assert_eq!(
            c.next(0, false, false),
            Some(70),
            "dependency not yet resolved"
        );
        c.wake_due(50);
        assert_eq!(c.next(0, false, false), Some(5));
        assert!(c.wake.is_empty());

        c.mark_all();
        assert_eq!(c.live, [!0, !0, 0b11]);
    }

    #[test]
    fn slots_without_a_position_are_ignored() {
        let mut c = Candidates::default();
        c.mark_slot(3); // before the first rebuild
        c.rebuild(&[4, 2], &vec![None; 8], None, None);
        for p in 0..2 {
            c.clear(p);
        }
        c.mark_slot(3); // a slot of a paused block
        assert_eq!(c.next(0, false, false), None);
        c.mark_slot(2);
        assert_eq!(c.next(0, false, false), Some(1));
    }
}
