//! Execution pipelines: memory-response delivery and the LD/ST unit.
//!
//! The respond stage delivers the interconnect responses drained into
//! the SM's inbox and matured local L1 hits back into waiting warps.
//! The LSU handles one cache-line access per cycle, head-of-line:
//! accesses that resolve against SM-private state (MSHR merges, L1
//! hits) complete at once, while accesses that need the shared
//! interconnect/texture queues are classified into a
//! [`super::PendingAccess`] and injected after the issue stage, where
//! `can_accept` back-pressure is arbitrated in service order.
//!
//! A refused access stays staged until a later cycle injects it; the
//! LSU stage does no work in the meantime (see [`Sm::lsu_local`] for why
//! the held classification cannot go stale). Outstanding misses live in
//! the flat MSHR file of `super::mshr`.

use std::cmp::Reverse;

use crate::cache::Lookup;
use crate::config::Femtos;
use crate::memsys::{MemReq, MemSystem};
use crate::program::MemSpace;

use super::{LsuEntry, PendingAccess, Sm};

/// What the LD/ST unit does with its head access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadAction {
    /// Secondary miss: join the outstanding MSHR entry at this index.
    Merge(usize),
    /// L1 hit on this address: completes after the hit latency.
    Hit(u64),
    /// Needs the shared interconnect or texture queue.
    Stage(PendingAccess),
    /// The MSHR file is full: head-of-line stall.
    Stall,
}

impl Sm {
    /// Delivers memory responses (global/texture) from the inbox and
    /// matured local L1 hits. A load completion can be the last
    /// outstanding work of an already-finished warp, so block completion
    /// is re-checked.
    pub(super) fn respond_local(&mut self, now: Femtos, completed_blocks: &mut Vec<usize>) {
        let mut buf = std::mem::take(&mut self.inbox);
        for token in buf.drain(..) {
            if let Some(waiters) = self.mshr.remove(token) {
                for &ws in &waiters {
                    self.deliver_load(ws, completed_blocks);
                }
                self.mshr.recycle(waiters);
            }
        }
        self.inbox = buf;
        while let Some(&Reverse((t, ws))) = self.local_ready.peek() {
            if t > now {
                break;
            }
            self.local_ready.pop();
            self.deliver_load(ws, completed_blocks);
        }
    }

    /// Decrements a warp's outstanding-load count and re-checks block
    /// completion when the load was the warp's last outstanding work.
    fn deliver_load(&mut self, ws: usize, completed: &mut Vec<usize>) {
        let (drained, slot) = {
            let Some(w) = self.warps[ws].as_mut() else {
                // Blocks only retire once every warp's loads have drained,
                // so a response must never land on a vacated slot.
                crate::validate_assert!(
                    false,
                    "load response for vacated warp slot {ws} on SM {}",
                    self.id
                );
                return;
            };
            w.complete_load();
            if w.pending_loads == 0 {
                self.cand.mark_slot(ws);
            }
            (w.finished && w.pending_loads == 0, w.block_slot)
        };
        if drained {
            self.check_block_done(slot, completed);
        }
    }

    /// The LD/ST unit's classification: resolves the head-of-line access
    /// when only SM-private state is involved (MSHR merge, L1 hit), or
    /// stages it as a [`PendingAccess`] for [`Sm::commit_pending`] when
    /// it must be injected into the shared queues. A full MSHR file
    /// stalls the head of line right here.
    ///
    /// An access the shared queue refused stays staged, and this stage
    /// does nothing until [`Sm::commit_pending`] injects it:
    /// re-classifying it would stage the same access again. Its address
    /// is a pure function of the LSU entry; only this LSU head fills the
    /// L1 or allocates MSHR entries; responses only free entries. So
    /// "not in the L1", "no entry for this line" and "the MSHR file has
    /// room" all stay true while it waits.
    pub(super) fn lsu_local(&mut self, now: Femtos, li: usize, period_fs: Femtos) {
        if self.pending.is_some() {
            crate::validate_assert!(
                self.lsu.front().map(|head| self.classify_head(head))
                    == self.pending.map(HeadAction::Stage),
                "SM {}: held LSU access {:?} no longer classifies as staged",
                self.id,
                self.pending
            );
            return;
        }
        let Some(head) = self.lsu.front().copied() else {
            return;
        };
        match self.classify_head(&head) {
            HeadAction::Merge(i) => {
                // Secondary miss: merge into the outstanding MSHR. Texture
                // accesses bypass the L1 and its counters.
                if head.instr.space != MemSpace::Texture {
                    self.events[li].l1_accesses += 1;
                }
                if head.instr.is_load {
                    self.mshr.add_waiter(i, head.warp_slot);
                }
                self.advance_lsu_head();
            }
            HeadAction::Hit(addr) => {
                self.events[li].l1_accesses += 1;
                self.events[li].l1_hits += 1;
                let hit = self.l1.access(addr);
                debug_assert_eq!(hit, Lookup::Hit);
                if head.instr.is_load {
                    let ready = now + Femtos::from(self.l1_hit_latency) * period_fs;
                    self.local_ready.push(Reverse((ready, head.warp_slot)));
                }
                self.advance_lsu_head();
            }
            // Primary miss or texture access: needs a shared-queue slot,
            // decided at commit.
            HeadAction::Stage(p) => self.pending = Some(p),
            // MSHRs exhausted: head-of-line stall, retry next cycle.
            HeadAction::Stall => {}
        }
    }

    /// What the LD/ST unit would do with `head` now. Reads only this
    /// SM's MSHR file and L1; texture accesses bypass the L1.
    fn classify_head(&self, head: &LsuEntry) -> HeadAction {
        let addr = self.addr_gen.line_addr(
            head.instr.pattern,
            self.id,
            head.warp_uid,
            head.mem_counter,
            head.next_access,
        );
        let line = addr / self.l1.config().line_bytes;
        let texture = head.instr.space == MemSpace::Texture;
        if let Some(i) = self.mshr.find(line) {
            HeadAction::Merge(i)
        } else if !texture && self.l1.contains(addr) {
            HeadAction::Hit(addr)
        } else if self.mshr.is_full() {
            HeadAction::Stall
        } else {
            HeadAction::Stage(PendingAccess {
                line,
                addr,
                is_load: head.instr.is_load,
                texture,
                warp_slot: head.warp_slot,
            })
        }
    }

    /// The LD/ST unit's injection: injects the staged access if the
    /// target shared queue has room; a back-pressured queue leaves it
    /// staged for the next cycle. Runs in the engine's rotated service
    /// order.
    pub(super) fn commit_pending(&mut self, li: usize, mem: &mut MemSystem) {
        let Some(p) = self.pending else {
            return;
        };
        if !mem.can_accept(p.texture) {
            return; // Head-of-line stall; the access stays staged.
        }
        self.pending = None;
        if !p.texture {
            self.events[li].l1_accesses += 1;
            let miss = self.l1.access(p.addr);
            debug_assert_eq!(miss, Lookup::Miss);
            if let Some(ccws) = &mut self.ccws {
                ccws.on_l1_miss(p.warp_slot, p.line);
            }
        }
        mem.inject(MemReq {
            sm: self.id,
            token: p.line,
            addr: p.addr,
            is_load: p.is_load,
            texture: p.texture,
        });
        if p.is_load {
            self.mshr.insert(p.line, p.warp_slot);
        }
        self.advance_lsu_head();
    }

    /// Advances the LSU head one line access, popping the entry once all
    /// of its accesses have been serviced.
    fn advance_lsu_head(&mut self) {
        if let Some(head) = self.lsu.front_mut() {
            head.next_access += 1;
            if head.next_access >= u32::from(head.instr.accesses) {
                self.lsu.pop_front();
            }
        }
    }
}
