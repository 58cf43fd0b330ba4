//! The L1 miss-status holding registers: one entry per outstanding line,
//! each with the warp slots waiting on it in arrival order.
//!
//! The file holds at most `l1_mshr` lines (32 on the GTX 480), so it is
//! a flat array searched linearly. Waiter lists are recycled through a
//! pool: once warmed up, a primary miss allocates nothing and a response
//! frees nothing. Removal swaps the last entry into the hole, so the
//! array's order is arbitrary; only keyed lookups read the file, so that
//! order never reaches a result.

/// The MSHR file of one SM (see the module docs).
#[derive(Debug, Clone)]
pub(super) struct MshrFile {
    /// The most lines the file may hold (`GpuConfig::l1_mshr`).
    cap: usize,
    /// Outstanding line addresses, in no particular order.
    lines: Vec<u64>,
    /// Waiting warp slots of each line; parallel to `lines`.
    waiters: Vec<Vec<usize>>,
    /// Emptied waiter lists, reused by the next primary miss.
    pool: Vec<Vec<usize>>,
}

impl MshrFile {
    /// An empty file of `cap` lines.
    pub(super) fn new(cap: usize) -> Self {
        Self {
            cap,
            lines: Vec::new(),
            waiters: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Outstanding lines.
    pub(super) fn len(&self) -> usize {
        self.lines.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Whether a new line would overflow the file.
    pub(super) fn is_full(&self) -> bool {
        self.lines.len() >= self.cap
    }

    /// The entry index of `line`, if it is outstanding.
    pub(super) fn find(&self, line: u64) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Appends warp slot `ws` to the waiters of entry `i`.
    pub(super) fn add_waiter(&mut self, i: usize, ws: usize) {
        self.waiters[i].push(ws);
    }

    /// Allocates an entry for `line` with `ws` as its only waiter. The
    /// caller has checked that `line` is not outstanding and the file is
    /// not full.
    pub(super) fn insert(&mut self, line: u64, ws: usize) {
        debug_assert!(
            self.find(line).is_none(),
            "MSHR line {line:#x} allocated twice"
        );
        debug_assert!(!self.is_full(), "MSHR file overflow");
        let mut list = self.pool.pop().unwrap_or_default();
        list.push(ws);
        self.lines.push(line);
        self.waiters.push(list);
    }

    /// Frees the entry of `line` and returns its waiters in arrival
    /// order; hand the list back through [`MshrFile::recycle`].
    pub(super) fn remove(&mut self, line: u64) -> Option<Vec<usize>> {
        let i = self.find(line)?;
        self.lines.swap_remove(i);
        Some(self.waiters.swap_remove(i))
    }

    /// Returns a waiter list taken by [`MshrFile::remove`] to the pool.
    pub(super) fn recycle(&mut self, mut list: Vec<usize>) {
        list.clear();
        self.pool.push(list);
    }

    /// Frees every entry.
    pub(super) fn clear(&mut self) {
        self.lines.clear();
        for mut list in self.waiters.drain(..) {
            list.clear();
            self.pool.push(list);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_keyed_and_lists_recycled() {
        let mut m = MshrFile::new(2);
        m.insert(7, 1);
        m.insert(3, 2);
        assert!(m.is_full());
        m.add_waiter(m.find(7).unwrap(), 4);
        let list = m.remove(7).unwrap();
        assert_eq!(list, [1, 4], "waiters in arrival order");
        let ptr = list.as_ptr();
        m.recycle(list);
        assert_eq!(m.find(3), Some(0), "the last entry moved into the hole");
        m.insert(9, 5);
        assert_eq!(m.waiters[1].as_ptr(), ptr, "the recycled list was reused");
        assert_eq!(m.remove(7), None);
    }
}
