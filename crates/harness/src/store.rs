//! The harness's one result store: content-addressed memoization with
//! single-flight deduplication.
//!
//! The simulator is deterministic end to end, so a run's `RunStats` is a
//! pure function of its canonical [`result_key`](crate::serve::hash::result_key).
//! A [`ResultStore`] exploits that in-process:
//!
//! * **Memoization** — completed results live in a bounded, deterministic
//!   LRU ([`LruCache`]) and repeats are answered without simulating.
//! * **Single flight** — concurrent calls for one key collapse onto one
//!   run: the first caller claims the key and runs it with no lock held;
//!   the others block on a condvar and share its result.
//! * **Failure memo** — deterministic failures (bad config, cycle limit)
//!   are remembered in a small bounded map, so later calls and waiters on
//!   a doomed flight get the same error instead of re-running into it.
//!
//! Two callers share this one implementation: every
//! [`Runner`](crate::Runner) memoizes its runs in its own store (shared by
//! its clones), and the `sim-serve` daemon answers requests from a store
//! of encoded `RunStats` bytes bounded by `ServeOptions::result_cache`.
//!
//! This module is in the strict lint universe (`cargo xtask lint`): no
//! hash maps, no clocks, no panics — eviction order is a pure function of
//! the call history.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::serve::cache::LruCache;

/// Failed keys remembered at most; the map is cleared once it grows past
/// this, so a misbehaving caller cannot grow it unboundedly.
const FAILED_BOUND: usize = 64;

/// Monotonic counts of how a store answered. Hits and joins count
/// successful answers only; memoized failures are not hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Answers served from memory without waiting.
    pub hits: u64,
    /// Answers shared from another caller's in-flight run.
    pub coalesced: u64,
    /// Runs that completed and were memoized.
    pub simulations: u64,
    /// Runs that failed (their error is memoized).
    pub failures: u64,
    /// Results evicted by the LRU bound.
    pub evictions: u64,
}

struct State<V, E> {
    results: LruCache<V>,
    in_flight: BTreeSet<u64>,
    failed: BTreeMap<u64, E>,
    stats: StoreStats,
}

/// A thread-safe memo from result key to a cheaply cloned result `V`
/// (or failure `E`), with single-flight deduplication.
pub struct ResultStore<V, E> {
    state: Mutex<State<V, E>>,
    settled: Condvar,
}

impl<V: Clone, E: Clone> std::fmt::Debug for ResultStore<V, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("tallies", &self.tallies())
            .finish_non_exhaustive()
    }
}

/// A claimed key. Dropping it — on return or while unwinding from a
/// panicking run — releases the claim and wakes the waiters, so a failed
/// leader can never strand them.
struct Flight<'a, V, E> {
    store: &'a ResultStore<V, E>,
    key: u64,
}

impl<V, E> Drop for Flight<'_, V, E> {
    fn drop(&mut self) {
        self.store.lock_store().in_flight.remove(&self.key);
        self.store.settled.notify_all();
    }
}

impl<V, E> ResultStore<V, E> {
    /// Locks the state, recovering from poisoning: every critical section
    /// leaves the maps consistent, so a panic elsewhere must not wedge
    /// the store.
    fn lock_store(&self) -> MutexGuard<'_, State<V, E>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<V: Clone, E: Clone> ResultStore<V, E> {
    /// Creates a store holding at most `capacity` results (zero disables
    /// memoization; single flight still applies).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                results: LruCache::new(capacity),
                in_flight: BTreeSet::new(),
                failed: BTreeMap::new(),
                stats: StoreStats::default(),
            }),
            settled: Condvar::new(),
        }
    }

    /// Returns the result memoized under `key`, joins an in-flight run of
    /// it, or runs `run` (with no lock held) and memoizes what it
    /// returns. Every answer for a key is a clone of the one value `run`
    /// produced. The flag says whether this call ran it.
    pub fn get_or_run<F>(&self, key: u64, run: F) -> (Result<V, E>, bool)
    where
        F: FnOnce() -> Result<V, E>,
    {
        let mut waited = false;
        let mut st = self.lock_store();
        loop {
            if let Some(value) = st.results.lookup(key) {
                if waited {
                    st.stats.coalesced += 1;
                } else {
                    st.stats.hits += 1;
                }
                return (Ok(value), false);
            }
            if let Some(err) = st.failed.get(&key) {
                return (Err(err.clone()), false);
            }
            if st.in_flight.insert(key) {
                break;
            }
            waited = true;
            st = self
                .settled
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);

        let flight = Flight { store: self, key };
        let ran = run();
        {
            let mut st = self.lock_store();
            match &ran {
                Ok(value) => {
                    st.results.store(key, value.clone());
                    st.stats.simulations += 1;
                }
                Err(err) => {
                    if st.failed.len() >= FAILED_BOUND {
                        st.failed.clear();
                    }
                    st.failed.insert(key, err.clone());
                    st.stats.failures += 1;
                }
            }
        }
        drop(flight);
        (ran, true)
    }

    /// The store's tallies so far.
    pub fn tallies(&self) -> StoreStats {
        let st = self.lock_store();
        StoreStats {
            evictions: st.results.evictions(),
            ..st.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn repeats_are_answered_from_memory() {
        let store: ResultStore<u64, String> = ResultStore::new(4);
        let runs = AtomicU64::new(0);
        let run = || {
            runs.fetch_add(1, Ordering::Relaxed);
            Ok(42)
        };
        assert_eq!(store.get_or_run(1, run), (Ok(42), true));
        assert_eq!(store.get_or_run(1, run), (Ok(42), false));
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let stats = store.tallies();
        assert_eq!((stats.hits, stats.simulations), (1, 1));
    }

    #[test]
    fn failures_are_memoized_unchanged() {
        let store: ResultStore<u64, String> = ResultStore::new(4);
        let (first, source) = store.get_or_run(9, || Err("cycle limit".to_string()));
        assert_eq!((first, source), (Err("cycle limit".to_string()), true));
        let (again, source) = store.get_or_run(9, || Ok(1));
        assert_eq!((again, source), (Err("cycle limit".to_string()), false));
        let stats = store.tallies();
        assert_eq!((stats.failures, stats.simulations, stats.hits), (1, 0, 0));
    }

    #[test]
    fn concurrent_callers_share_one_run() {
        const CALLERS: usize = 4;
        let store: ResultStore<Arc<Vec<u8>>, String> = ResultStore::new(4);
        let runs = AtomicU64::new(0);
        let start = Barrier::new(CALLERS);
        let answers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.get_or_run(5, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            Ok(Arc::new(vec![5]))
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "one leader runs");
        assert_eq!(answers.iter().filter(|(_, ran)| *ran).count(), 1);
        for (answer, _) in &answers {
            assert_eq!(answer.as_ref().unwrap().as_slice(), &[5]);
        }
        let stats = store.tallies();
        assert_eq!(stats.hits + stats.coalesced, CALLERS as u64 - 1);
    }

    #[test]
    fn a_panicking_leader_releases_its_claim() {
        let store: ResultStore<u64, String> = ResultStore::new(4);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_run(3, || panic!("simulator bug"))
        }));
        assert!(panicked.is_err());
        // The key is claimable again rather than stuck in flight.
        assert_eq!(store.get_or_run(3, || Ok(7)), (Ok(7), true));
    }

    #[test]
    fn the_bound_evicts_least_recently_used() {
        let store: ResultStore<u64, String> = ResultStore::new(1);
        assert!(store.get_or_run(1, || Ok(1)).1);
        assert!(store.get_or_run(2, || Ok(2)).1);
        assert_eq!(store.get_or_run(1, || Ok(10)), (Ok(10), true));
        assert_eq!(store.tallies().evictions, 2);
    }
}
