//! The streaming multiprocessor: warp scheduler, scoreboard, LD/ST unit,
//! L1 data cache with MSHRs, barrier handling and CTA pause/unpause.
//!
//! Each SM cycle the scheduler walks resident warps oldest-block-first,
//! classifies every unpaused warp into the paper's warp states
//! ([`crate::counters::WarpState`]) and issues up to `issue_width`
//! instructions. The LD/ST unit drains one cache-line access per cycle;
//! a full LSU queue or a back-pressured interconnect leaves memory-ready
//! warps in the `ExcessMem` state — the signal Equalizer keys on.
//!
//! The implementation is organised by pipeline stage:
//!
//! - [`mod@self`] — the [`Sm`] state, per-cycle orchestration and
//!   epoch/statistics plumbing;
//! - `issue` — the scheduler walk and warp-state classification;
//! - `exec` — response delivery and the ALU/LSU execution pipelines;
//! - `blocks` — thread-block residency: launch, pause/unpause, fill and
//!   retirement;
//! - `mshr` — the flat L1 MSHR file.

mod blocks;
mod exec;
mod issue;
mod mshr;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::cache::Cache;
use crate::ccws::CcwsState;
use crate::config::{Femtos, GpuConfig, VfLevel};
use crate::counters::{CycleSnapshot, WarpState, WarpStateCounters};
use crate::gwde::Gwde;
use crate::kernel::KernelSpec;
use crate::memsys::MemSystem;
use crate::program::{AddressGen, MemInstr, Program};
use crate::warp::Warp;

/// SM-side event counts, indexed by the SM-domain VF level at event time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmLevelEvents {
    /// Instructions issued.
    pub issued: u64,
    /// Arithmetic instructions issued.
    pub alu_ops: u64,
    /// Memory instructions issued to the LSU.
    pub mem_instrs: u64,
    /// L1 data cache probes.
    pub l1_accesses: u64,
    /// L1 data cache hits.
    pub l1_hits: u64,
    /// Active SM cycles (at least one resident unfinished warp).
    pub busy_cycles: u64,
}

#[derive(Debug, Clone)]
struct BlockState {
    block_index: u64,
    warp_slots: Vec<usize>,
    paused: bool,
    launch_seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct LsuEntry {
    warp_slot: usize,
    /// Captured at issue so address generation stays correct even if the
    /// issuing block retires before a trailing store drains.
    warp_uid: u64,
    instr: MemInstr,
    mem_counter: u64,
    next_access: u32,
}

/// A classified LSU head access that needs the shared memory system:
/// staged by the LSU stage of [`Sm::cycle`] and injected later in the
/// same cycle if `MemSystem::can_accept` allows, in the engine's rotated
/// service order. A refused access stays staged until a later cycle
/// injects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingAccess {
    line: u64,
    addr: u64,
    is_load: bool,
    texture: bool,
    warp_slot: usize,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: usize,
    // Configuration copies (hot path).
    issue_width: usize,
    max_alu_issue: usize,
    max_mem_issue: usize,
    alu_latency: u32,
    l1_hit_latency: u32,
    lsu_cap: usize,
    sample_interval: u64,
    warp_launch_stagger: u32,
    max_block_slots_hw: usize,
    max_warps: usize,

    // Per-invocation kernel shape.
    w_cta: usize,
    resident_limit: usize,
    program: Option<Arc<Program>>,

    warps: Vec<Option<Warp>>,
    blocks: Vec<Option<BlockState>>,
    launch_seq: u64,
    sched_order: Vec<usize>,
    order_dirty: bool,
    /// The issue walk's candidate set over `sched_order` (see `issue`).
    /// Derived like `sched_order` and rebuilt with it.
    cand: issue::Candidates,

    lsu: VecDeque<LsuEntry>,
    l1: Cache,
    mshr: mshr::MshrFile,
    local_ready: BinaryHeap<Reverse<(Femtos, usize)>>,
    addr_gen: AddressGen,

    target_blocks: usize,
    cycles: u64,
    snapshot: CycleSnapshot,
    epoch: WarpStateCounters,
    run_total: WarpStateCounters,
    events: [SmLevelEvents; 3],
    /// Response tokens drained from the memory system at the start of a
    /// cycle (the SM's inbox), delivered by the respond stage.
    inbox: Vec<u64>,
    /// The LSU head access awaiting a shared-queue slot; held across
    /// cycles while the target queue refuses it.
    pending: Option<PendingAccess>,
    /// Scratch for the block slots that complete during a cycle; they
    /// retire at its end, so it is empty between cycles.
    completed_scratch: Vec<usize>,
    ccws: Option<CcwsState>,
    blocks_completed: u64,
    /// Whether the current cycle's snapshot is sampled (`cycles` is a
    /// multiple of `sample_interval`). Set once per cycle by
    /// [`Sm::cycle`] for the issue stage and [`Sm::account_cycle`].
    sampled: bool,
    /// Resident warps whose launch stagger is still counting down.
    /// Maintained incrementally at launch and on every decrement.
    staggered: usize,
}

impl Sm {
    /// Builds an SM from the GPU configuration.
    pub fn new(id: usize, config: &GpuConfig) -> Self {
        Self {
            id,
            issue_width: config.issue_width,
            max_alu_issue: config.max_alu_issue,
            max_mem_issue: config.max_mem_issue,
            alu_latency: config.alu_latency,
            l1_hit_latency: config.l1_hit_latency,
            lsu_cap: config.lsu_queue_cap,
            sample_interval: config.sample_interval,
            warp_launch_stagger: config.warp_launch_stagger,
            max_block_slots_hw: config.max_blocks_per_sm,
            max_warps: config.max_warps_per_sm,
            w_cta: 1,
            resident_limit: 1,
            program: None,
            warps: vec![None; config.max_warps_per_sm],
            blocks: vec![None; config.max_blocks_per_sm],
            launch_seq: 0,
            sched_order: Vec::with_capacity(config.max_warps_per_sm),
            order_dirty: true,
            cand: issue::Candidates::default(),
            lsu: VecDeque::with_capacity(config.lsu_queue_cap),
            l1: Cache::new(config.l1),
            mshr: mshr::MshrFile::new(config.l1_mshr),
            local_ready: BinaryHeap::new(),
            addr_gen: AddressGen::new(config.l1.line_bytes),
            target_blocks: 1,
            cycles: 0,
            snapshot: CycleSnapshot::default(),
            epoch: WarpStateCounters::default(),
            run_total: WarpStateCounters::default(),
            events: [SmLevelEvents::default(); 3],
            inbox: Vec::new(),
            pending: None,
            completed_scratch: Vec::new(),
            ccws: config
                .ccws
                .map(|c| CcwsState::new(c, config.max_warps_per_sm)),
            blocks_completed: 0,
            sampled: false,
            staggered: 0,
        }
    }

    /// The SM's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Prepares the SM for a new kernel invocation.
    pub fn begin_invocation(&mut self, kernel: &KernelSpec, program: Arc<Program>) {
        self.w_cta = kernel.warps_per_block();
        self.resident_limit = kernel.resident_block_limit(self.max_block_slots_hw, self.max_warps);
        self.program = Some(program);
        self.warps.iter_mut().for_each(|w| *w = None);
        self.blocks.iter_mut().for_each(|b| *b = None);
        self.launch_seq = 0;
        self.order_dirty = true;
        self.lsu.clear();
        self.mshr.clear();
        self.local_ready.clear();
        self.inbox.clear();
        self.pending = None;
        self.completed_scratch.clear();
        self.staggered = 0;
        self.l1.flush();
        self.target_blocks = self.resident_limit;
        if let Some(ccws) = &mut self.ccws {
            ccws.reset();
        }
    }

    /// The effective resident-block limit for the current kernel.
    pub fn resident_limit(&self) -> usize {
        self.resident_limit
    }

    /// Warps per block of the current kernel.
    pub fn w_cta(&self) -> usize {
        self.w_cta
    }

    /// Per-level issue/cache event counts.
    pub fn events(&self) -> &[SmLevelEvents; 3] {
        &self.events
    }

    /// The L1 data cache (for hit-rate reporting).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The CCWS state, if cache-conscious scheduling is enabled.
    pub fn ccws(&self) -> Option<&CcwsState> {
        self.ccws.as_ref()
    }

    /// Whole-run accumulated warp-state counters (Figure 4 data).
    pub fn run_counters(&self) -> &WarpStateCounters {
        &self.run_total
    }

    /// Whether any block (active or paused) is still resident.
    pub fn busy(&self) -> bool {
        self.blocks.iter().any(Option::is_some)
    }

    /// Whether the SM has any in-flight memory state.
    pub fn quiescent(&self) -> bool {
        self.lsu.is_empty()
            && self.mshr.is_empty()
            && self.local_ready.is_empty()
            && self.inbox.is_empty()
            && self.pending.is_none()
    }

    /// Current LD/ST-unit queue occupancy (pending line accesses).
    pub fn lsu_occupancy(&self) -> usize {
        self.lsu.len()
    }

    /// Current number of allocated L1 MSHR entries (outstanding misses).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshr.len()
    }

    /// Takes and resets the epoch counters.
    pub fn take_epoch(&mut self) -> WarpStateCounters {
        std::mem::take(&mut self.epoch)
    }

    /// Advances the SM by one cycle ending at `now` against the shared
    /// memory system and dispatcher. The engine calls it for every due
    /// SM in the `mix64`-rotated service order, so interconnect
    /// arbitration, back-pressure and GWDE block dispatch resolve in one
    /// deterministic order.
    pub fn cycle(
        &mut self,
        now: Femtos,
        level: VfLevel,
        period_fs: Femtos,
        mem: &mut MemSystem,
        gwde: &mut Gwde,
    ) {
        mem.drain_ready(self.id, now, &mut self.inbox);
        self.cycles += 1;
        self.sampled = self.cycles.is_multiple_of(self.sample_interval);
        let li = level.index();
        let mut completed_blocks = std::mem::take(&mut self.completed_scratch);

        // 1. Deliver memory responses (global/texture) and local L1 hits.
        self.respond_local(now, &mut completed_blocks);

        // 2. LD/ST unit: resolve the head access against the L1 and
        //    MSHRs, or stage it for the shared queues.
        self.lsu_local(now, li, period_fs);

        // 3. Refresh the CCWS issue mask periodically, and the issue
        //    walk's copy of it.
        if let Some(ccws) = &mut self.ccws {
            if self.cycles.is_multiple_of(32) {
                ccws.refresh(32);
                self.cand.set_blocked(&self.sched_order, Some(ccws));
            }
        }

        // 4. Issue stage: classify and issue warps oldest-block-first.
        self.snapshot = self.issue_stage(now, li, period_fs, &mut completed_blocks);

        // 5. Inject the staged LSU head access if its shared queue has
        //    room (the only per-cycle arbitration point).
        self.commit_pending(li, mem);

        // 6. Retire completed blocks and backfill from the dispatcher.
        if !completed_blocks.is_empty() {
            for slot in completed_blocks.drain(..) {
                self.retire_block(slot);
            }
            self.fill(gwde);
        }
        self.completed_scratch = completed_blocks;

        // 7. Statistics (busy_cycles needs post-retire residency).
        self.account_cycle(level);
    }

    /// The per-cycle statistics step of [`Sm::cycle`] (step 7): busy /
    /// idle cycle accounting and the periodic warp-state sample. It
    /// touches only this SM's own counters; [`Sm::fast_forward_window`]
    /// applies `w` of them at once.
    fn account_cycle(&mut self, level: VfLevel) {
        let snap = self.snapshot;
        if snap.active > 0 || self.busy() {
            self.events[level.index()].busy_cycles += 1;
        }
        self.epoch.cycles += 1;
        self.run_total.cycles += 1;
        if snap.issued == 0 {
            self.epoch.idle_cycles += 1;
            self.run_total.idle_cycles += 1;
        }
        if self.sampled {
            self.epoch.sample(&snap);
            self.run_total.sample(&snap);
        }
    }

    /// Window admission: the SM may carry outstanding L1 misses (MSHRs)
    /// and scheduled local hits into a fused window — both are inert
    /// until something delivers to them, and the window caps
    /// (memory-event horizon, local-hit cap) prove nothing does. What
    /// must be clean is everything the per-cycle pipeline itself would
    /// act on: a queued LSU access would stage shared-queue traffic, a
    /// staged access waits for a shared-queue slot, and an undelivered
    /// inbox token needs `respond_local` with the token's arrival cycle.
    pub(crate) fn batch_ready(&self) -> bool {
        self.lsu.is_empty() && self.pending.is_none() && self.inbox.is_empty()
    }

    /// How many cycles, starting with the one that completes at `first`
    /// (fixed `period_fs`), this SM provably does nothing but wait,
    /// assuming [`Sm::batch_ready`] holds: the bound on a fused window
    /// ([`Sm::fast_forward_window`]).
    ///
    /// Every awake warp must be unable to issue for the whole window, so
    /// its stagger/scoreboard delay alone must cover it. Warps asleep on
    /// outstanding loads are exempt — the engine's memory-event horizon
    /// plus the empty inbox prove no response can reach them in-window —
    /// and so are barrier-waiting warps, since release needs a sibling
    /// to execute `Sync` and nothing issues in the window. The earliest
    /// scheduled local L1 hit caps the horizon too: a maturing hit
    /// delivers a result and wakes a warp. Returns as soon as the bound
    /// drops below 2, the shortest window worth opening.
    pub(crate) fn fused_horizon(&self, first: Femtos, period_fs: Femtos) -> u64 {
        debug_assert!(self.ccws.is_none(), "CCWS refreshes its mask every cycle");
        if self.program.is_none() {
            return u64::MAX;
        }
        let mut horizon = match self.local_ready.peek() {
            Some(Reverse((ready, _))) => {
                crate::clock::ticks_strictly_before(first, period_fs, *ready)
            }
            None => u64::MAX,
        };
        for warp in self.warps.iter().flatten() {
            if warp.finished || warp.at_barrier || warp.pending_loads > 0 {
                continue;
            }
            if self.blocks[warp.block_slot]
                .as_ref()
                .is_some_and(|b| b.paused)
            {
                continue;
            }
            let d = u64::from(warp.stagger).max(crate::clock::ticks_strictly_before(
                first,
                period_fs,
                warp.ready_at,
            ));
            horizon = horizon.min(d);
            if horizon < 2 {
                break;
            }
        }
        horizon
    }

    /// Bulk-applies `w` cycles in which this SM provably does nothing:
    /// every awake warp is stalled for the whole window (see
    /// [`Sm::fused_horizon`]), so each per-tick [`Sm::cycle`] reduces to
    /// the same all-waiting snapshot, a cycle-counter increment and a
    /// stagger decrement. The additions are plain (not saturating) and
    /// the sample count is derived from the same `is_multiple_of`
    /// cadence, so the result is bit-identical to `w` per-tick
    /// iterations.
    pub(crate) fn fast_forward_window(&mut self, w: u64, level: VfLevel) {
        debug_assert!(w >= 1, "empty fused window");
        debug_assert!(self.batch_ready(), "fused window on a busy pipeline");
        let mut snap = CycleSnapshot::default();
        let sub = u32::try_from(w).unwrap_or(u32::MAX);
        for ws in 0..self.warps.len() {
            let blocks = &self.blocks;
            let Some(warp) = self.warps[ws].as_mut() else {
                continue;
            };
            if blocks[warp.block_slot].as_ref().is_some_and(|b| b.paused) {
                continue;
            }
            if warp.finished || warp.at_barrier {
                snap.record(WarpState::Others);
                continue;
            }
            snap.record(WarpState::Waiting);
            if warp.stagger > 0 {
                warp.stagger = warp.stagger.saturating_sub(sub);
                if warp.stagger == 0 {
                    self.staggered -= 1;
                }
            }
        }
        self.snapshot = snap;
        let c0 = self.cycles;
        self.cycles += w;
        if snap.active > 0 || self.busy() {
            self.events[level.index()].busy_cycles += w;
        }
        self.epoch.cycles += w;
        self.run_total.cycles += w;
        // snap.issued == 0 by construction: every cycle is idle.
        self.epoch.idle_cycles += w;
        self.run_total.idle_cycles += w;
        let k = (c0 + w) / self.sample_interval - c0 / self.sample_interval;
        if k > 0 {
            self.epoch.sample_n(&snap, k);
            self.run_total.sample_n(&snap, k);
        }
    }

    /// Sanitizer hook (`validate` feature): asserts that the SM holds no
    /// in-flight memory state. Called at kernel-invocation completion —
    /// an MSHR entry, queued LSU access or pending local hit surviving
    /// the drain would alias a reused warp slot in the next invocation.
    #[cfg(feature = "validate")]
    pub fn validate_drained(&self) {
        assert!(
            self.mshr.is_empty(),
            "SM {}: {} MSHR entries survived kernel completion",
            self.id,
            self.mshr.len()
        );
        assert!(
            self.lsu.is_empty(),
            "SM {}: LSU queue not drained at kernel completion",
            self.id
        );
        assert!(
            self.local_ready.is_empty(),
            "SM {}: local-hit queue not drained at kernel completion",
            self.id
        );
        assert!(
            self.warps.iter().all(Option::is_none),
            "SM {}: resident warps survived kernel completion",
            self.id
        );
        assert!(
            self.inbox.is_empty(),
            "SM {}: undelivered response tokens at kernel completion",
            self.id
        );
        assert!(
            self.pending.is_none(),
            "SM {}: uninjected LSU access at kernel completion",
            self.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelCategory;
    use crate::program::{Instr, MemSpace, Segment};

    fn cfg() -> GpuConfig {
        let mut c = GpuConfig::gtx480();
        c.num_sms = 1;
        c
    }

    fn run_to_completion(sm: &mut Sm, mem: &mut MemSystem, gwde: &mut Gwde, period: Femtos) -> u64 {
        let mut now = 0;
        let mut cycles = 0u64;
        sm.fill(gwde);
        // Memory runs at the same period for simplicity in unit tests.
        while sm.busy() || !sm.quiescent() || !gwde.drained() {
            now += period;
            mem.step(now, VfLevel::Nominal, period);
            sm.cycle(now, VfLevel::Nominal, period, mem, gwde);
            sm.fill(gwde);
            cycles += 1;
            assert!(cycles < 2_000_000, "SM wedged");
        }
        cycles
    }

    fn alu_kernel(warps_per_block: usize, blocks: u64, iters: u32) -> KernelSpec {
        KernelSpec::new(
            "test-alu",
            KernelCategory::Compute,
            warps_per_block,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: blocks,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::alu(), Instr::alu(), Instr::alu_dep()],
                    iters,
                )])),
            }],
        )
    }

    #[test]
    fn completes_pure_alu_kernel() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = alu_kernel(4, 6, 10);
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(6);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert_eq!(sm.blocks_completed(), 6);
        let issued: u64 = sm.events().iter().map(|e| e.issued).sum();
        assert_eq!(
            issued,
            6 * 4 * 3 * 10,
            "every instruction issued exactly once"
        );
    }

    #[test]
    fn completes_memory_kernel_with_loads() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = KernelSpec::new(
            "test-mem",
            KernelCategory::Memory,
            2,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 4,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::load_streaming(), Instr::alu_dep()],
                    20,
                )])),
            }],
        );
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(4);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert_eq!(sm.blocks_completed(), 4);
        let mem_instrs: u64 = sm.events().iter().map(|e| e.mem_instrs).sum();
        assert_eq!(mem_instrs, 4 * 2 * 20);
    }

    #[test]
    fn barrier_synchronises_block() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = KernelSpec::new(
            "test-sync",
            KernelCategory::Compute,
            4,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 2,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::alu_dep(), Instr::Sync, Instr::alu()],
                    5,
                )])),
            }],
        );
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(2);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert_eq!(sm.blocks_completed(), 2);
    }

    #[test]
    fn pause_reduces_active_blocks_and_unpause_restores() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let k = alu_kernel(4, 100, 1000);
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(100);
        sm.fill(&mut gwde);
        assert_eq!(sm.active_blocks(), 8);
        sm.set_target_blocks(3);
        assert_eq!(sm.active_blocks(), 3);
        assert_eq!(sm.paused_blocks(), 5);
        sm.set_target_blocks(6);
        sm.fill(&mut gwde);
        assert_eq!(sm.active_blocks(), 6);
        assert_eq!(sm.paused_blocks(), 2);
    }

    #[test]
    fn target_is_clamped() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let k = alu_kernel(6, 10, 10); // resident limit = 8
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        sm.set_target_blocks(0);
        assert_eq!(sm.target_blocks(), 1);
        sm.set_target_blocks(100);
        assert_eq!(sm.target_blocks(), 8);
    }

    #[test]
    fn paused_blocks_finish_eventually() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = alu_kernel(4, 8, 50);
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(8);
        sm.fill(&mut gwde);
        sm.set_target_blocks(2);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert_eq!(
            sm.blocks_completed(),
            8,
            "paused blocks must still complete"
        );
    }

    #[test]
    fn resident_warps_tracks_residency() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        assert_eq!(sm.resident_warps(), 0);
        let k = alu_kernel(4, 100, 1000);
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(100);
        sm.fill(&mut gwde);
        assert_eq!(sm.resident_warps(), 8 * 4, "8 blocks of 4 warps resident");
        // Pausing keeps blocks (and their warps) resident.
        sm.set_target_blocks(3);
        assert_eq!(sm.resident_warps(), 8 * 4);
    }

    #[test]
    fn compute_kernel_shows_excess_alu() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        // 8 blocks x 6 warps of independent ALU: far more ready warps than
        // the 2 issue slots.
        let k = KernelSpec::new(
            "xalu",
            KernelCategory::Compute,
            6,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 8,
                program: Arc::new(Program::new(vec![Segment::new(vec![Instr::alu(); 8], 200)])),
            }],
        );
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(8);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        let rc = sm.run_counters();
        assert!(
            rc.avg_excess_alu() > rc.avg_excess_mem(),
            "ALU-bound kernel must accumulate X_alu ({} vs {})",
            rc.avg_excess_alu(),
            rc.avg_excess_mem()
        );
        assert!(rc.avg_excess_alu() > 6.0, "X_alu should exceed W_cta");
    }

    #[test]
    fn lsu_backpressure_shows_excess_mem() {
        let mut c = cfg();
        c.dram_bytes_per_cycle = 16; // starve bandwidth: 1 line per 8 cycles
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = KernelSpec::new(
            "xmem",
            KernelCategory::Memory,
            6,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 8,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::load_streaming()],
                    60,
                )])),
            }],
        );
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(8);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        let rc = sm.run_counters();
        assert!(
            rc.avg_excess_mem() > 2.0,
            "bandwidth-saturated kernel must accumulate X_mem (got {})",
            rc.avg_excess_mem()
        );
    }

    #[test]
    fn working_set_hits_l1_at_low_concurrency() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        // One block of 4 warps, each with a 16-line working set: 64 lines
        // fit easily in the 256-line L1.
        let k = KernelSpec::new(
            "ws-small",
            KernelCategory::Cache,
            4,
            1,
            vec![crate::kernel::Invocation {
                grid_blocks: 1,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![
                        Instr::Mem(MemInstr {
                            is_load: true,
                            pattern: crate::program::AddressPattern::WorkingSet { lines: 16 },
                            accesses: 1,
                            space: MemSpace::Global,
                        }),
                        Instr::alu_dep(),
                    ],
                    300,
                )])),
            }],
        );
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(1);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert!(
            sm.l1().hit_rate() > 0.7,
            "small working set should mostly hit (rate {})",
            sm.l1().hit_rate()
        );
    }

    #[test]
    fn working_set_thrashes_l1_at_high_concurrency() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        // 8 blocks x 6 warps x 3000-line working sets: hopeless for a
        // 256-line L1.
        let k = KernelSpec::new(
            "ws-big",
            KernelCategory::Cache,
            6,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 8,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![
                        Instr::Mem(MemInstr {
                            is_load: true,
                            pattern: crate::program::AddressPattern::WorkingSet { lines: 3000 },
                            accesses: 1,
                            space: MemSpace::Global,
                        }),
                        Instr::alu_dep(),
                    ],
                    60,
                )])),
            }],
        );
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(8);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert!(
            sm.l1().hit_rate() < 0.3,
            "oversized working sets must thrash (rate {})",
            sm.l1().hit_rate()
        );
    }

    #[test]
    fn epoch_counters_reset_on_take() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = alu_kernel(4, 2, 50);
        sm.begin_invocation(&k, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(2);
        sm.fill(&mut gwde);
        for i in 1..=256u64 {
            mem.step(i * 1_000_000, VfLevel::Nominal, 1_000_000);
            sm.cycle(
                i * 1_000_000,
                VfLevel::Nominal,
                1_000_000,
                &mut mem,
                &mut gwde,
            );
        }
        let e = sm.take_epoch();
        assert_eq!(e.cycles, 256);
        assert_eq!(e.samples, 2);
        let e2 = sm.take_epoch();
        assert_eq!(e2.cycles, 0);
    }
}
