//! The kernel instruction IR executed by simulated warps.
//!
//! A kernel's per-warp program is a sequence of [`Segment`]s (phases), each
//! repeating a small instruction body a configurable number of times. The
//! IR is deliberately abstract — it models *resource pressure*, not
//! semantics: arithmetic instructions exercise the ALU issue slots and
//! latency, memory instructions exercise the L1/L2/DRAM hierarchy with a
//! configurable address pattern and coalescing degree, and barriers model
//! intra-block synchronisation.

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
        let has_sync = segments
            .iter()
            .any(|seg| seg.body.iter().any(|i| matches!(i, Instr::Sync)));
        Self {
            segments,
            iter_profile: IterProfile::Uniform,
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
}

impl AddressGen {
    /// Creates a generator for a given cache-line size.
    pub fn new(line_bytes: u64) -> Self {
        Self { line_bytes }
    }

    /// Generates the `access_idx`-th line address of the `counter`-th
    /// memory instruction executed by the warp with unique id `warp_uid`
    /// on SM `sm_id`.
    ///
    /// Working sets are laid out *contiguously* per warp (like adjacent
    /// array slices), so cache sets are used uniformly — a `uid << k`
    /// layout would alias every warp onto the same sets and thrash by
    /// conflict alone.
    ///
    /// A pure function of its arguments: the SM's LD/ST unit relies on
    /// it to hold a refused access staged instead of re-deriving it.
    pub fn line_addr(
        &self,
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
        line * self.line_bytes
    }
}

/// Folds the program's complete identity (every instruction, iteration
/// count and the imbalance profile) into `fold`. The exhaustive matches
/// and destructurings are the compile-time guard: new IR variants or
/// fields cannot ship without being folded in.
pub(crate) fn fold_program_identity(fold: &mut crate::util::Fold, program: &Program) {
    // has_sync is a pure function of the segments, so the segments
    // alone carry the identity.
    let Program {
        segments,
        iter_profile,
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
        let gen = AddressGen::new(128);
        let mut seen = std::collections::BTreeSet::new();
        for counter in 0..1000 {
            let a = gen.line_addr(AddressPattern::Streaming, 0, 5, counter, 0);
            assert!(seen.insert(a), "streaming address repeated");
        }
    }

    #[test]
    fn working_set_addresses_bounded() {
        let gen = AddressGen::new(128);
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
        let gen = AddressGen::new(128);
        let mut seen = std::collections::BTreeSet::new();
        for counter in 0..2000 {
            let a = gen.line_addr(AddressPattern::WorkingSet { lines: 16 }, 0, 0, counter, 0);
            seen.insert(a / 128);
        }
        assert_eq!(seen.len(), 16, "uniform reuse must touch every line");
    }

    #[test]
    fn working_set_is_order_independent() {
        let g1 = AddressGen::new(128);
        let g2 = AddressGen::new(128);
        let p = AddressPattern::WorkingSet { lines: 32 };
        // Same (uid, counter, access) yields the same address regardless of
        // generator or SM.
        assert_eq!(g1.line_addr(p, 0, 7, 42, 1), g2.line_addr(p, 5, 7, 42, 1));
    }

    #[test]
    fn shared_addresses_alias_across_warps() {
        let g1 = AddressGen::new(128);
        let g2 = AddressGen::new(128);
        let a = g1.line_addr(AddressPattern::Shared { lines: 4 }, 2, 10, 0, 0);
        let b = g2.line_addr(AddressPattern::Shared { lines: 4 }, 2, 99, 0, 0);
        assert_eq!(a, b, "shared pattern should alias across warps of an SM");
    }

    #[test]
    fn different_warps_never_alias_private_patterns() {
        let gen = AddressGen::new(128);
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
