//! The Global Work Distribution Engine (GWDE).
//!
//! The GWDE owns the grid of a running invocation and hands out thread
//! blocks to SMs on request (Figure 3 of the paper). When the runtime
//! decides an SM should run more blocks, the SM requests one here; when
//! it decides to run fewer, blocks are paused on the SM itself (§IV-B) —
//! the GWDE is never involved in throttling.

/// Block dispatcher for one kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gwde {
    total_blocks: u64,
    next_block: u64,
}

impl Gwde {
    /// Creates a dispatcher for a grid of `total_blocks` blocks.
    pub fn new(total_blocks: u64) -> Self {
        Self {
            total_blocks,
            next_block: 0,
        }
    }

    /// Hands out the next block index, or `None` when the grid is drained.
    pub fn dispatch(&mut self) -> Option<u64> {
        if self.next_block < self.total_blocks {
            let b = self.next_block;
            self.next_block += 1;
            Some(b)
        } else {
            None
        }
    }

    /// Blocks not yet dispatched.
    pub fn remaining(&self) -> u64 {
        self.total_blocks - self.next_block
    }

    /// Total blocks in the grid.
    pub fn total(&self) -> u64 {
        self.total_blocks
    }

    /// Whether every block has been dispatched.
    pub fn drained(&self) -> bool {
        self.next_block == self.total_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_sequential_and_finite() {
        let mut g = Gwde::new(3);
        assert_eq!(g.dispatch(), Some(0));
        assert_eq!(g.dispatch(), Some(1));
        assert_eq!(g.remaining(), 1);
        assert_eq!(g.dispatch(), Some(2));
        assert_eq!(g.dispatch(), None);
        assert!(g.drained());
    }

    #[test]
    fn empty_grid_is_drained() {
        let mut g = Gwde::new(0);
        assert!(g.drained());
        assert_eq!(g.dispatch(), None);
    }
}
