//! The kernel instruction IR executed by simulated warps.
//!
//! A kernel's per-warp program is a sequence of [`Segment`]s (phases), each
//! repeating a small instruction body a configurable number of times. The
//! IR is deliberately abstract — it models *resource pressure*, not
//! semantics: arithmetic instructions exercise the ALU issue slots and
//! latency, memory instructions exercise the L1/L2/DRAM hierarchy with a
//! configurable address pattern and coalescing degree, and barriers model
//! intra-block synchronisation.

use crate::util::SplitMix64;

/// How a memory instruction generates line addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressPattern {
    /// Every access touches a fresh line (no reuse): pure bandwidth demand.
    Streaming,
    /// Each warp cycles through a private working set of `lines` cache
    /// lines. Hit rate collapses when the combined footprint of resident
    /// warps exceeds the L1 — the cache-sensitivity mechanism.
    WorkingSet {
        /// Cache lines in this warp's private working set.
        lines: u32,
    },
    /// All warps of an SM share one working set of `lines` lines (models
    /// broadcast/lookup tables; hits regardless of concurrency).
    Shared {
        /// Cache lines in the SM-wide shared working set.
        lines: u32,
    },
}

/// Memory space. Texture accesses use a deep dedicated queue whose
/// back-pressure is invisible to the LD/ST pipeline, reproducing the
/// paper's `leuko-1` mis-detection case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemSpace {
    /// Ordinary global-memory access through the LD/ST unit and L1.
    #[default]
    Global,
    /// Texture access: bypasses L1 and LD/ST back-pressure.
    Texture,
}

/// A memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemInstr {
    /// Loads produce a value the next dependent instruction waits on;
    /// stores are fire-and-forget (they only consume bandwidth).
    pub is_load: bool,
    /// Address pattern for the generated line requests.
    pub pattern: AddressPattern,
    /// Memory-divergence degree: distinct cache-line requests generated per
    /// warp instruction (1 = fully coalesced, up to warp size).
    pub accesses: u8,
    /// Memory space (global or texture).
    pub space: MemSpace,
}

/// One instruction of the abstract kernel IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// An arithmetic instruction.
    Alu {
        /// If true, the next instruction must wait `alu_latency` cycles for
        /// this result; if false the warp may issue again immediately
        /// (models instruction-level parallelism within a warp).
        dep: bool,
    },
    /// A memory instruction; see [`MemInstr`].
    Mem(MemInstr),
    /// A block-wide barrier (`__syncthreads()`).
    Sync,
}

impl Instr {
    /// Convenience constructor: an independent ALU op.
    pub fn alu() -> Self {
        Instr::Alu { dep: false }
    }

    /// Convenience constructor: a dependent ALU op.
    pub fn alu_dep() -> Self {
        Instr::Alu { dep: true }
    }

    /// Convenience constructor: a fully coalesced streaming load.
    pub fn load_streaming() -> Self {
        Instr::Mem(MemInstr {
            is_load: true,
            pattern: AddressPattern::Streaming,
            accesses: 1,
            space: MemSpace::Global,
        })
    }
}

/// A phase of a kernel: a body of instructions repeated `iterations` times.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Segment {
    /// The instruction body.
    pub body: Vec<Instr>,
    /// How many times the body repeats.
    pub iterations: u32,
}

impl Segment {
    /// Creates a segment.
    ///
    /// # Panics
    ///
    /// Panics if `body` is empty or `iterations` is zero.
    pub fn new(body: Vec<Instr>, iterations: u32) -> Self {
        assert!(!body.is_empty(), "segment body must not be empty");
        assert!(iterations > 0, "segment must iterate at least once");
        Self { body, iterations }
    }

    /// Dynamic instruction count of this segment for one warp.
    pub fn dynamic_instrs(&self) -> u64 {
        self.body.len() as u64 * u64::from(self.iterations)
    }
}

/// Distribution of per-block work, for modelling load imbalance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IterProfile {
    /// Every block executes the nominal iteration counts.
    #[default]
    Uniform,
    /// The first `long_blocks` blocks of the grid execute `multiplier`×
    /// the nominal iterations (the paper's `prtcl-2` case, where one
    /// long-running block serialises the tail of the kernel).
    LongTail {
        /// Number of long-running blocks.
        long_blocks: u32,
        /// Iteration multiplier for those blocks.
        multiplier: f32,
    },
}

impl IterProfile {
    /// Iteration multiplier for a given global block index.
    pub fn multiplier_for(&self, block_index: u64) -> f32 {
        match *self {
            IterProfile::Uniform => 1.0,
            IterProfile::LongTail {
                long_blocks,
                multiplier,
            } => {
                if block_index < u64::from(long_blocks) {
                    multiplier
                } else {
                    1.0
                }
            }
        }
    }
}

/// A complete per-warp program: an ordered list of phases plus a work
/// profile describing block-to-block imbalance.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    segments: Vec<Segment>,
    iter_profile: IterProfile,
    /// Per segment, per body index: instructions until the next `Mem`
    /// at or after that index within the body (`0` when the index *is*
    /// a `Mem`; `u32::MAX` when the rest of the body has none).
    /// Precomputed for [`Program::issue_runway`].
    mem_dist: Vec<Vec<u32>>,
    /// Per segment: body index of the first `Mem`, if any.
    first_mem: Vec<Option<u32>>,
    /// Whether any segment contains a `Sync`. Barriers execute
    /// unconditionally in the issue walk (they consume no issue port), so
    /// the fast-issue cuts must stay off for programs that have one.
    has_sync: bool,
}

impl Program {
    /// Creates a program from its phases.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    pub fn new(segments: Vec<Segment>) -> Self {
        assert!(
            !segments.is_empty(),
            "program must have at least one segment"
        );
        let mem_dist: Vec<Vec<u32>> = segments
            .iter()
            .map(|seg| {
                let mut dist = vec![u32::MAX; seg.body.len()];
                let mut next: u32 = u32::MAX;
                for (i, instr) in seg.body.iter().enumerate().rev() {
                    if matches!(instr, Instr::Mem(_)) {
                        next = 0;
                    } else {
                        // u32::MAX stays "no memory downstream".
                        next = next.saturating_add(1);
                    }
                    dist[i] = next;
                }
                dist
            })
            .collect();
        let first_mem: Vec<Option<u32>> = segments
            .iter()
            .map(|seg| {
                seg.body
                    .iter()
                    .position(|i| matches!(i, Instr::Mem(_)))
                    .map(|p| p as u32)
            })
            .collect();
        let has_sync = segments
            .iter()
            .any(|seg| seg.body.iter().any(|i| matches!(i, Instr::Sync)));
        Self {
            segments,
            iter_profile: IterProfile::Uniform,
            mem_dist,
            first_mem,
            has_sync,
        }
    }

    /// Whether the program contains any barrier instruction.
    pub fn has_sync(&self) -> bool {
        self.has_sync
    }

    /// Sets the block-imbalance profile.
    pub fn with_iter_profile(mut self, profile: IterProfile) -> Self {
        self.iter_profile = profile;
        self
    }

    /// The program's phases.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The block-imbalance profile.
    pub fn iter_profile(&self) -> IterProfile {
        self.iter_profile
    }

    /// Per-warp dynamic instruction count at nominal iterations.
    pub fn dynamic_instrs(&self) -> u64 {
        self.segments.iter().map(Segment::dynamic_instrs).sum()
    }

    /// Effective iteration count of segment `seg` for a block.
    pub fn iterations_for(&self, seg: usize, block_index: u64) -> u32 {
        let base = self.segments[seg].iterations;
        let m = self.iter_profile.multiplier_for(block_index);
        ((f64::from(base) * f64::from(m)).round() as u32).max(1)
    }

    /// How many instructions a warp at `pc` can issue before its next
    /// *commit-phase event*: a memory instruction (which stages a shared
    /// access) or the end of the program (which retires the block). Used
    /// by tick batching — a warp issues at most one instruction per
    /// cycle, so a runway of `r` guarantees `r` event-free cycles.
    ///
    /// The bound is exact within the current segment (iteration
    /// wrap-around included) and conservative at segment boundaries: the
    /// runway never extends past the current segment's last instruction,
    /// as if the next segment began with a memory instruction.
    pub(crate) fn issue_runway(&self, pc: ProgCounter, block_index: u64) -> u64 {
        let Some(seg) = self.segments.get(pc.segment) else {
            // Past the end: a finished warp issues nothing, ever.
            return u64::MAX;
        };
        let body_len = seg.body.len() as u64;
        let iters = u64::from(self.iterations_for(pc.segment, block_index));
        let in_pass = body_len - pc.instr as u64;
        let passes_left = iters.saturating_sub(1 + u64::from(pc.iteration));
        let to_seg_end = in_pass + passes_left * body_len;
        // The segment's last instruction is itself an event horizon: for
        // the final segment it completes the warp, and for any other the
        // next segment's first instruction could be a `Mem` issuing one
        // cycle later — so cap at `to_seg_end` (last segment: one less,
        // keeping the completing issue out of the window too).
        let seg_cap = if pc.segment + 1 == self.segments.len() {
            to_seg_end.saturating_sub(1)
        } else {
            to_seg_end
        };
        let d_mem = match self.mem_dist[pc.segment][pc.instr] {
            u32::MAX => match self.first_mem[pc.segment] {
                // No `Mem` left in this pass, but the body has one: it
                // comes back around after the iteration wraps.
                Some(fm) if passes_left > 0 => in_pass + u64::from(fm),
                _ => u64::MAX,
            },
            d => u64::from(d),
        };
        d_mem.min(seg_cap)
    }
}

/// A position in a program: (segment, iteration, instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgCounter {
    /// Current segment index.
    pub segment: usize,
    /// Current iteration within the segment.
    pub iteration: u32,
    /// Current instruction within the body.
    pub instr: usize,
}

impl ProgCounter {
    /// Returns the instruction at this position, or `None` past the end.
    pub fn fetch<'p>(&self, program: &'p Program, block_index: u64) -> Option<&'p Instr> {
        let seg = program.segments().get(self.segment)?;
        debug_assert!(self.iteration < program.iterations_for(self.segment, block_index));
        seg.body.get(self.instr)
    }

    /// Advances past the current instruction. Returns `false` when the
    /// program is complete.
    pub fn advance(&mut self, program: &Program, block_index: u64) -> bool {
        let seg = &program.segments()[self.segment];
        self.instr += 1;
        if self.instr < seg.body.len() {
            return true;
        }
        self.instr = 0;
        self.iteration += 1;
        if self.iteration < program.iterations_for(self.segment, block_index) {
            return true;
        }
        self.iteration = 0;
        self.segment += 1;
        self.segment < program.segments().len()
    }
}

/// Generates line addresses for memory instructions.
///
/// Address spaces are partitioned so that different warps' streaming and
/// private working-set accesses never alias, while `Shared` accesses alias
/// within an SM by construction.
#[derive(Debug, Clone)]
pub struct AddressGen {
    line_bytes: u64,
    rng: SplitMix64,
}

impl AddressGen {
    /// Creates a generator for a given cache-line size.
    pub fn new(line_bytes: u64, seed: u64) -> Self {
        Self {
            line_bytes,
            rng: SplitMix64::new(seed),
        }
    }

    /// Generates the `access_idx`-th line address of the `counter`-th
    /// memory instruction executed by the warp with unique id `warp_uid`
    /// on SM `sm_id`.
    ///
    /// Working sets are laid out *contiguously* per warp (like adjacent
    /// array slices), so cache sets are used uniformly — a `uid << k`
    /// layout would alias every warp onto the same sets and thrash by
    /// conflict alone.
    pub fn line_addr(
        &mut self,
        pattern: AddressPattern,
        sm_id: usize,
        warp_uid: u64,
        counter: u64,
        access_idx: u32,
    ) -> u64 {
        const STREAM_REGION: u64 = 1 << 44;
        const SHARED_REGION: u64 = 1 << 43;
        let line = match pattern {
            AddressPattern::Streaming => {
                let seq = counter * 64 + u64::from(access_idx);
                STREAM_REGION + (warp_uid << 24) + (seq & 0xFF_FFFF)
            }
            AddressPattern::WorkingSet { lines } => {
                let lines = u64::from(lines.max(1));
                // Uniform pseudo-random reuse within the warp's private
                // footprint: hit rate degrades smoothly as the combined
                // resident footprint outgrows the cache. The mix is
                // order-independent, keeping address streams identical
                // across scheduling variations.
                let idx =
                    crate::util::mix64(counter ^ (u64::from(access_idx) << 32) ^ (warp_uid << 40))
                        % lines;
                warp_uid * lines + idx
            }
            AddressPattern::Shared { lines } => {
                let lines = u64::from(lines.max(1));
                let idx = (counter + u64::from(access_idx)) % lines;
                SHARED_REGION + (sm_id as u64) * 1_000_003 + idx
            }
        };
        let _ = &self.rng; // reserved for future stochastic patterns
        line * self.line_bytes
    }

    /// The RNG cursor, for snapshot serialization. [`AddressGen::new`]
    /// with this value as the seed reproduces the generator exactly.
    pub(crate) fn rng_state(&self) -> u64 {
        self.rng.state()
    }
}

/// Folds the program's complete identity (every instruction, iteration
/// count and the imbalance profile) into `fold`. The exhaustive matches
/// and destructurings are the compile-time guard: new IR variants or
/// fields cannot ship without being folded in.
pub(crate) fn fold_program_identity(fold: &mut crate::snapshot::Fold, program: &Program) {
    // mem_dist / first_mem / has_sync are pure functions of the segments,
    // so the segments alone carry the identity.
    let Program {
        segments,
        iter_profile,
        mem_dist: _,
        first_mem: _,
        has_sync: _,
    } = program;
    fold.add(segments.len() as u64);
    for seg in segments {
        let Segment { body, iterations } = seg;
        fold.add(u64::from(*iterations));
        fold.add(body.len() as u64);
        for instr in body {
            match instr {
                Instr::Alu { dep } => {
                    fold.add(1);
                    fold.add(u64::from(*dep));
                }
                Instr::Mem(MemInstr {
                    is_load,
                    pattern,
                    accesses,
                    space,
                }) => {
                    fold.add(2);
                    fold.add(u64::from(*is_load));
                    match pattern {
                        AddressPattern::Streaming => fold.add(0),
                        AddressPattern::WorkingSet { lines } => {
                            fold.add(1);
                            fold.add(u64::from(*lines));
                        }
                        AddressPattern::Shared { lines } => {
                            fold.add(2);
                            fold.add(u64::from(*lines));
                        }
                    }
                    fold.add(u64::from(*accesses));
                    match space {
                        MemSpace::Global => fold.add(0),
                        MemSpace::Texture => fold.add(1),
                    }
                }
                Instr::Sync => fold.add(3),
            }
        }
    }
    match iter_profile {
        IterProfile::Uniform => fold.add(0),
        IterProfile::LongTail {
            long_blocks,
            multiplier,
        } => {
            fold.add(1);
            fold.add(u64::from(*long_blocks));
            fold.add(u64::from(multiplier.to_bits()));
        }
    }
}

pub(crate) fn put_prog_counter(w: &mut crate::snapshot::Writer, pc: &ProgCounter) {
    let ProgCounter {
        segment,
        iteration,
        instr,
    } = pc;
    w.usize(*segment);
    w.u32(*iteration);
    w.usize(*instr);
}

pub(crate) fn get_prog_counter(
    r: &mut crate::snapshot::Reader<'_>,
) -> Result<ProgCounter, crate::snapshot::SnapshotError> {
    Ok(ProgCounter {
        segment: r.usize()?,
        iteration: r.u32()?,
        instr: r.usize()?,
    })
}

pub(crate) fn put_mem_instr(w: &mut crate::snapshot::Writer, m: &MemInstr) {
    let MemInstr {
        is_load,
        pattern,
        accesses,
        space,
    } = m;
    w.bool(*is_load);
    match pattern {
        AddressPattern::Streaming => w.u8(0),
        AddressPattern::WorkingSet { lines } => {
            w.u8(1);
            w.u32(*lines);
        }
        AddressPattern::Shared { lines } => {
            w.u8(2);
            w.u32(*lines);
        }
    }
    w.u8(*accesses);
    w.u8(match space {
        MemSpace::Global => 0,
        MemSpace::Texture => 1,
    });
}

pub(crate) fn get_mem_instr(
    r: &mut crate::snapshot::Reader<'_>,
) -> Result<MemInstr, crate::snapshot::SnapshotError> {
    let is_load = r.bool()?;
    let at = r.offset();
    let pattern = match r.u8()? {
        0 => AddressPattern::Streaming,
        1 => AddressPattern::WorkingSet { lines: r.u32()? },
        2 => AddressPattern::Shared { lines: r.u32()? },
        _ => {
            return Err(crate::snapshot::SnapshotError::Corrupt {
                offset: at,
                what: "address pattern",
            })
        }
    };
    let accesses = r.u8()?;
    let at = r.offset();
    let space = match r.u8()? {
        0 => MemSpace::Global,
        1 => MemSpace::Texture,
        _ => {
            return Err(crate::snapshot::SnapshotError::Corrupt {
                offset: at,
                what: "memory space",
            })
        }
    };
    Ok(MemInstr {
        is_load,
        pattern,
        accesses,
        space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_program() -> Program {
        Program::new(vec![
            Segment::new(vec![Instr::alu(), Instr::load_streaming()], 2),
            Segment::new(vec![Instr::Sync, Instr::alu_dep()], 1),
        ])
    }

    #[test]
    fn dynamic_instr_count() {
        let p = small_program();
        assert_eq!(p.dynamic_instrs(), 2 * 2 + 2);
    }

    #[test]
    fn prog_counter_walks_whole_program() {
        let p = small_program();
        let mut pc = ProgCounter::default();
        let mut executed = 0;
        loop {
            assert!(pc.fetch(&p, 0).is_some());
            executed += 1;
            if !pc.advance(&p, 0) {
                break;
            }
        }
        assert_eq!(executed, p.dynamic_instrs());
        assert!(pc.fetch(&p, 0).is_none());
    }

    #[test]
    fn long_tail_profile_scales_first_blocks() {
        let p = Program::new(vec![Segment::new(vec![Instr::alu()], 10)]).with_iter_profile(
            IterProfile::LongTail {
                long_blocks: 1,
                multiplier: 4.0,
            },
        );
        assert_eq!(p.iterations_for(0, 0), 40);
        assert_eq!(p.iterations_for(0, 1), 10);
    }

    #[test]
    fn streaming_addresses_never_repeat_within_warp() {
        let mut gen = AddressGen::new(128, 1);
        let mut seen = std::collections::HashSet::new();
        for counter in 0..1000 {
            let a = gen.line_addr(AddressPattern::Streaming, 0, 5, counter, 0);
            assert!(seen.insert(a), "streaming address repeated");
        }
    }

    #[test]
    fn working_set_addresses_bounded() {
        let mut gen = AddressGen::new(128, 2);
        for counter in 0..1000 {
            let a = gen.line_addr(AddressPattern::WorkingSet { lines: 16 }, 0, 3, counter, 0);
            let line = a / 128;
            assert!(
                (3 * 16..4 * 16).contains(&line),
                "address outside warp's contiguous region: {line}"
            );
        }
    }

    #[test]
    fn working_set_covers_whole_footprint() {
        let mut gen = AddressGen::new(128, 2);
        let mut seen = std::collections::HashSet::new();
        for counter in 0..2000 {
            let a = gen.line_addr(AddressPattern::WorkingSet { lines: 16 }, 0, 0, counter, 0);
            seen.insert(a / 128);
        }
        assert_eq!(seen.len(), 16, "uniform reuse must touch every line");
    }

    #[test]
    fn working_set_is_order_independent() {
        let mut g1 = AddressGen::new(128, 1);
        let mut g2 = AddressGen::new(128, 999);
        let p = AddressPattern::WorkingSet { lines: 32 };
        // Same (uid, counter, access) yields the same address regardless of
        // generator state or seed.
        assert_eq!(g1.line_addr(p, 0, 7, 42, 1), g2.line_addr(p, 5, 7, 42, 1));
    }

    #[test]
    fn shared_addresses_alias_across_warps() {
        let mut g1 = AddressGen::new(128, 3);
        let mut g2 = AddressGen::new(128, 4);
        let a = g1.line_addr(AddressPattern::Shared { lines: 4 }, 2, 10, 0, 0);
        let b = g2.line_addr(AddressPattern::Shared { lines: 4 }, 2, 99, 0, 0);
        assert_eq!(a, b, "shared pattern should alias across warps of an SM");
    }

    #[test]
    fn different_warps_never_alias_private_patterns() {
        let mut gen = AddressGen::new(128, 5);
        let a = gen.line_addr(AddressPattern::Streaming, 0, 1, 0, 0);
        let b = gen.line_addr(AddressPattern::Streaming, 0, 2, 0, 0);
        assert_ne!(a, b);
        let ws = AddressPattern::WorkingSet { lines: 8 };
        let c = gen.line_addr(ws, 0, 1, 0, 0);
        let d = gen.line_addr(ws, 0, 2, 0, 0);
        assert!((c / 128) < 16 && (8..16).contains(&(d / 128)) || (c / 128) != (d / 128));
    }

    #[test]
    #[should_panic(expected = "segment body must not be empty")]
    fn empty_segment_panics() {
        Segment::new(vec![], 1);
    }
}
