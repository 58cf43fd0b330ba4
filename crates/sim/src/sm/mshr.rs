//! The L1 miss-status holding registers: one entry per outstanding line,
//! each with the warp slots waiting on it in arrival order.
//!
//! The file holds at most `l1_mshr` lines (32 on the GTX 480), so it is
//! a flat array searched linearly. Waiter lists are recycled through a
//! pool: once warmed up, a primary miss allocates nothing and a response
//! frees nothing. Removal swaps the last entry into the hole, so the
//! array's order is arbitrary; only keyed lookups read the file, so that
//! order never reaches a result. The snapshot form lists lines sorted,
//! which keeps equal machines encoding to equal bytes.

use crate::snapshot::{Reader, SnapshotError, Writer};

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

    /// Writes the entries sorted by line: `(line, waiters)` pairs behind
    /// a count, the same bytes an address-ordered map would write.
    pub(super) fn encode(&self, w: &mut Writer) {
        let mut order: Vec<usize> = (0..self.lines.len()).collect();
        order.sort_unstable_by_key(|&i| self.lines[i]);
        w.usize(order.len());
        for i in order {
            w.u64(self.lines[i]);
            w.usize(self.waiters[i].len());
            for &s in &self.waiters[i] {
                w.usize(s);
            }
        }
    }

    /// Replaces the file's contents with [`MshrFile::encode`] bytes.
    /// Rejects more lines than the file holds, a line listed twice (it
    /// would leave a phantom entry that no response ever frees) and
    /// waiters outside the `max_warps` slots.
    pub(super) fn decode(
        &mut self,
        r: &mut Reader<'_>,
        max_warps: usize,
    ) -> Result<(), SnapshotError> {
        let corrupt = |offset: usize, what: &'static str| SnapshotError::Corrupt { offset, what };
        let at = r.offset();
        let n = r.seq_len(16)?;
        if n > self.cap {
            return Err(corrupt(at, "MSHR count overflows its capacity"));
        }
        self.clear();
        for _ in 0..n {
            let at = r.offset();
            let line = r.u64()?;
            if self.find(line).is_some() {
                return Err(corrupt(at, "MSHR lists a line twice"));
            }
            let m = r.seq_len(8)?;
            let mut list = self.pool.pop().unwrap_or_default();
            for _ in 0..m {
                let at = r.offset();
                let s = r.usize()?;
                if s >= max_warps {
                    return Err(corrupt(at, "MSHR waiter references out-of-range warp slot"));
                }
                list.push(s);
            }
            self.lines.push(line);
            self.waiters.push(list);
        }
        Ok(())
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

    #[test]
    fn encoding_is_sorted_and_round_trips() {
        let mut m = MshrFile::new(4);
        for (line, ws) in [(30, 0), (10, 1), (20, 2)] {
            m.insert(line, ws);
        }
        m.remove(10).into_iter().for_each(|l| m.recycle(l));
        m.insert(10, 3);
        let mut sorted = MshrFile::new(4);
        for (line, ws) in [(10, 3), (20, 2), (30, 0)] {
            sorted.insert(line, ws);
        }
        let (mut a, mut b) = (Writer::default(), Writer::default());
        m.encode(&mut a);
        sorted.encode(&mut b);
        assert_eq!(
            a.into_bytes(),
            b.into_bytes(),
            "insertion order is not encoded"
        );

        let mut w = Writer::default();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let mut back = MshrFile::new(4);
        back.decode(&mut Reader::new(&bytes), 8).unwrap();
        for line in [10, 20, 30] {
            assert_eq!(back.remove(line), m.remove(line));
        }
        assert!(back.is_empty());
    }

    #[test]
    fn decode_rejects_a_line_listed_twice() {
        let mut w = Writer::default();
        w.usize(2);
        for ws in [0, 1] {
            w.u64(0x40);
            w.usize(1);
            w.usize(ws);
        }
        let bytes = w.into_bytes();
        let err = MshrFile::new(4)
            .decode(&mut Reader::new(&bytes), 8)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Corrupt {
                    what: "MSHR lists a line twice",
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
