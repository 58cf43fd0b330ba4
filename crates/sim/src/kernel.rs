//! Kernel and launch descriptions.
//!
//! A [`KernelSpec`] corresponds to one kernel of Table II in the paper: a
//! name, a resource-contention category, per-block shape (warps per block,
//! maximum resident blocks per SM) and one or more *invocations*, each
//! with its own grid size and per-warp [`Program`]. Multiple invocations
//! model the inter-instance variation of kernels such as `bfs-2`
//! (Figure 2a).

use std::sync::Arc;

use crate::program::Program;

/// The paper's four-way kernel taxonomy (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelCategory {
    /// Bottlenecked on the SM arithmetic pipelines.
    Compute,
    /// Bottlenecked on DRAM bandwidth.
    Memory,
    /// Bottlenecked on L1 data cache capacity (thrashing at full
    /// concurrency).
    Cache,
    /// Saturates no resource, but may lean toward compute or memory.
    Unsaturated,
}

impl std::fmt::Display for KernelCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            KernelCategory::Compute => "compute",
            KernelCategory::Memory => "memory",
            KernelCategory::Cache => "cache",
            KernelCategory::Unsaturated => "unsaturated",
        };
        f.write_str(s)
    }
}

/// One launch of a kernel: a grid of blocks running one program.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Total thread blocks in the grid.
    pub grid_blocks: u64,
    /// The per-warp program all blocks execute.
    pub program: Arc<Program>,
}

/// A kernel under study: shape, category and its sequence of invocations.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    name: String,
    category: KernelCategory,
    /// Warps per thread block (the paper's `W_cta`).
    warps_per_block: usize,
    /// Maximum concurrently resident blocks per SM (Table II "num Blocks"),
    /// an occupancy limit from registers/shared memory.
    max_blocks_per_sm: usize,
    /// Fraction of the parent application's runtime (Table II), used only
    /// for reporting.
    time_fraction: f64,
    invocations: Vec<Invocation>,
    /// Seed for the kernel's address streams.
    seed: u64,
}

impl KernelSpec {
    /// Creates a kernel spec.
    ///
    /// # Panics
    ///
    /// Panics if `warps_per_block` or `max_blocks_per_sm` is zero, or if
    /// `invocations` is empty.
    pub fn new(
        name: impl Into<String>,
        category: KernelCategory,
        warps_per_block: usize,
        max_blocks_per_sm: usize,
        invocations: Vec<Invocation>,
    ) -> Self {
        assert!(warps_per_block > 0, "warps_per_block must be positive");
        assert!(max_blocks_per_sm > 0, "max_blocks_per_sm must be positive");
        assert!(
            !invocations.is_empty(),
            "kernel needs at least one invocation"
        );
        let name = name.into();
        let seed = name
            .bytes()
            .fold(0xCAFE_F00Du64, |acc, b| acc.rotate_left(7) ^ u64::from(b));
        Self {
            name,
            category,
            warps_per_block,
            max_blocks_per_sm,
            time_fraction: 1.0,
            invocations,
            seed,
        }
    }

    /// Sets the Table II time fraction (reporting only).
    pub fn with_time_fraction(mut self, fraction: f64) -> Self {
        self.time_fraction = fraction;
        self
    }

    /// Overrides the address-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The kernel's display name (e.g. `"bfs-1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel's resource category.
    pub fn category(&self) -> KernelCategory {
        self.category
    }

    /// Warps per block (`W_cta`).
    pub fn warps_per_block(&self) -> usize {
        self.warps_per_block
    }

    /// Occupancy limit on resident blocks per SM.
    pub fn max_blocks_per_sm(&self) -> usize {
        self.max_blocks_per_sm
    }

    /// Fraction of parent-application time (Table II).
    pub fn time_fraction(&self) -> f64 {
        self.time_fraction
    }

    /// The invocation sequence.
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// Address-stream seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resident-block limit on an SM with the given hardware caps.
    ///
    /// The effective limit is the minimum of the kernel's occupancy limit,
    /// the hardware block limit and the warp-slot limit.
    pub fn resident_block_limit(&self, hw_max_blocks: usize, hw_max_warps: usize) -> usize {
        self.max_blocks_per_sm
            .min(hw_max_blocks)
            .min(hw_max_warps / self.warps_per_block)
            .max(1)
    }

    /// Folds the kernel's complete identity — name, seed, shape, and
    /// every instruction of every invocation's program — into `fold`.
    ///
    /// The exhaustive destructuring (no `..` rest pattern) is a
    /// compile-time guard: a new `KernelSpec` field cannot ship without
    /// a decision on whether it is identity-bearing. Used by the
    /// snapshot machine fingerprint and the harness result store's
    /// content-addressed `result_key`.
    pub fn fold_identity(&self, fold: &mut crate::snapshot::Fold) {
        let KernelSpec {
            name,
            category,
            warps_per_block,
            max_blocks_per_sm,
            time_fraction,
            invocations,
            seed,
        } = self;
        fold.add_bytes(name.as_bytes());
        fold.add(match category {
            KernelCategory::Compute => 0,
            KernelCategory::Memory => 1,
            KernelCategory::Cache => 2,
            KernelCategory::Unsaturated => 3,
        });
        fold.add(*warps_per_block as u64);
        fold.add(*max_blocks_per_sm as u64);
        fold.add_f64(*time_fraction);
        fold.add(*seed);
        fold.add(invocations.len() as u64);
        for inv in invocations {
            let Invocation {
                grid_blocks,
                program,
            } = inv;
            fold.add(*grid_blocks);
            crate::program::fold_program_identity(fold, program);
        }
    }

    /// Total dynamic warp-instructions across all invocations (nominal
    /// iteration counts; excludes imbalance multipliers).
    pub fn total_warp_instrs(&self) -> u64 {
        self.invocations
            .iter()
            .map(|inv| inv.program.dynamic_instrs() * inv.grid_blocks * self.warps_per_block as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Instr, Segment};

    fn inv(blocks: u64) -> Invocation {
        Invocation {
            grid_blocks: blocks,
            program: Arc::new(Program::new(vec![Segment::new(vec![Instr::alu()], 4)])),
        }
    }

    #[test]
    fn resident_limit_is_min_of_constraints() {
        let k = KernelSpec::new("k", KernelCategory::Compute, 16, 3, vec![inv(10)]);
        // warp-slot limit: 48/16 = 3; occupancy 3; hw 8 -> 3
        assert_eq!(k.resident_block_limit(8, 48), 3);
        // tighter hw block limit
        assert_eq!(k.resident_block_limit(2, 48), 2);
        // tighter warp limit: 32/16 = 2
        assert_eq!(k.resident_block_limit(8, 32), 2);
    }

    #[test]
    fn resident_limit_never_zero() {
        let k = KernelSpec::new("big", KernelCategory::Compute, 24, 3, vec![inv(1)]);
        assert_eq!(k.resident_block_limit(8, 12), 1);
    }

    #[test]
    fn seed_depends_on_name() {
        let a = KernelSpec::new("a", KernelCategory::Memory, 1, 1, vec![inv(1)]);
        let b = KernelSpec::new("b", KernelCategory::Memory, 1, 1, vec![inv(1)]);
        assert_ne!(a.seed(), b.seed());
    }

    #[test]
    fn total_instrs_counts_grid() {
        let k = KernelSpec::new("k", KernelCategory::Compute, 2, 8, vec![inv(5)]);
        assert_eq!(k.total_warp_instrs(), 4 * 5 * 2);
    }

    #[test]
    #[should_panic(expected = "at least one invocation")]
    fn empty_invocations_panic() {
        KernelSpec::new("k", KernelCategory::Compute, 1, 1, vec![]);
    }
}
