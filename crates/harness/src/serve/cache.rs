//! Bounded, deterministic content-addressed LRU cache.
//!
//! Maps 64-bit canonical keys (see [`super::hash`]) to cheaply cloned
//! payloads — results for the [`crate::store::ResultStore`], engine
//! snapshots for the daemon's prefix cache. Recency is tracked with a
//! monotonic sequence number and a `BTreeMap` index over it, so eviction
//! order is a pure function of the lookup/store history: no hashing, no
//! clocks, no per-process seeds. The eviction test in `tests/serve.rs` pins that
//! determinism.

use std::collections::BTreeMap;

#[derive(Debug)]
struct Slot<V> {
    seq: u64,
    value: V,
}

/// A bounded LRU map from canonical key to a payload `V`, typically an
/// `Arc` so a lookup clones a pointer rather than the payload.
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    next_seq: u64,
    by_key: BTreeMap<u64, Slot<V>>,
    /// Recency index: sequence number → key. The smallest sequence is
    /// the least recently used entry.
    by_age: BTreeMap<u64, u64>,
    evictions: u64,
}

impl<V: Clone> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries. A capacity
    /// of zero disables the cache (stores evict immediately).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            next_seq: 0,
            by_key: BTreeMap::new(),
            by_age: BTreeMap::new(),
            evictions: 0,
        }
    }

    /// Returns the payload stored under `key`, marking it most recently
    /// used.
    pub fn lookup(&mut self, key: u64) -> Option<V> {
        let slot = self.by_key.get_mut(&key)?;
        self.by_age.remove(&slot.seq);
        slot.seq = self.next_seq;
        self.next_seq += 1;
        self.by_age.insert(slot.seq, key);
        Some(slot.value.clone())
    }

    /// Stores `value` under `key` (replacing any previous payload) and
    /// evicts least-recently-used entries until the capacity bound
    /// holds again.
    pub fn store(&mut self, key: u64, value: V) {
        if let Some(slot) = self.by_key.remove(&key) {
            self.by_age.remove(&slot.seq);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_key.insert(key, Slot { seq, value });
        self.by_age.insert(seq, key);
        while self.by_key.len() > self.capacity {
            // The age index mirrors `by_key` one-to-one, so a non-empty
            // cache always has an oldest entry to shed.
            let Some((&oldest, &victim)) = self.by_age.iter().next() else {
                break;
            };
            self.by_age.remove(&oldest);
            self.by_key.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn payload(v: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![v])
    }

    #[test]
    fn lookup_returns_what_store_put() {
        let mut cache = LruCache::new(2);
        assert!(cache.lookup(1).is_none());
        cache.store(1, payload(11));
        assert_eq!(*cache.lookup(1).unwrap(), vec![11]);
        cache.store(1, payload(12));
        assert_eq!(*cache.lookup(1).unwrap(), vec![12]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn eviction_is_least_recently_used_and_deterministic() {
        let mut cache = LruCache::new(2);
        cache.store(1, payload(1));
        cache.store(2, payload(2));
        // Touch 1, making 2 the LRU entry.
        assert!(cache.lookup(1).is_some());
        cache.store(3, payload(3));
        assert!(cache.lookup(2).is_none(), "2 was evicted");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = LruCache::new(0);
        cache.store(1, payload(1));
        assert!(cache.lookup(1).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 1);
    }
}
