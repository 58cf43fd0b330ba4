//! The harness's one result store: a memo from run to result.
//!
//! The simulator is deterministic end to end, and a [`Runner`](crate::Runner)
//! holds its configuration and options fixed for its lifetime, so within
//! one runner a run's `RunStats` is a pure function of its [`RunKey`]: the
//! kernel's identity and the [`System`]. A [`ResultStore`] maps each key
//! to the first result inserted under it, success or failure alike.
//!
//! No hash maps, clocks or environment reads (`crates/harness/clippy.toml`)
//! and no panics (the deny below): keys never depend on time or the
//! process.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::util::Fold;

use crate::System;

/// A memo key: the kernel's identity fold and the system that ran it.
pub type RunKey = (u64, System);

/// The key of running `kernel` under `system` on one runner.
pub fn run_key(kernel: &KernelSpec, system: System) -> RunKey {
    let mut fold = Fold::new(0);
    kernel.fold_identity(&mut fold);
    (fold.finish(), system)
}

/// Monotonic counts of how a store answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful answers served from memory; memoized failures are not
    /// hits.
    pub hits: u64,
    /// Runs that completed.
    pub simulations: u64,
    /// Runs that failed.
    pub failures: u64,
}

struct State<V, E> {
    memo: BTreeMap<RunKey, Result<V, E>>,
    stats: StoreStats,
}

/// A thread-safe memo from [`RunKey`] to a cheaply cloned result.
pub struct ResultStore<V, E> {
    state: Mutex<State<V, E>>,
}

impl<V: Clone, E: Clone> std::fmt::Debug for ResultStore<V, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("tallies", &self.tallies())
            .finish_non_exhaustive()
    }
}

impl<V, E> Default for ResultStore<V, E> {
    fn default() -> Self {
        Self {
            state: Mutex::new(State {
                memo: BTreeMap::new(),
                stats: StoreStats::default(),
            }),
        }
    }
}

impl<V: Clone, E: Clone> ResultStore<V, E> {
    /// Locks the state, recovering from poisoning: no critical section
    /// can leave the map half-written, so a panic elsewhere must not
    /// wedge the store.
    fn lock(&self) -> MutexGuard<'_, State<V, E>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the result memoized under `key`, or runs `run` (with no
    /// lock held) and memoizes what it returns. If two calls race on one
    /// key, both run and the first value inserted is the one every call
    /// returns.
    pub fn get_or_run<F>(&self, key: RunKey, run: F) -> Result<V, E>
    where
        F: FnOnce() -> Result<V, E>,
    {
        {
            let mut st = self.lock();
            if let Some(memo) = st.memo.get(&key).cloned() {
                st.stats.hits += u64::from(memo.is_ok());
                return memo;
            }
        }
        let ran = run();
        let mut st = self.lock();
        match &ran {
            Ok(_) => st.stats.simulations += 1,
            Err(_) => st.stats.failures += 1,
        }
        st.memo.entry(key).or_insert(ran).clone()
    }

    /// The store's tallies so far.
    pub fn tallies(&self) -> StoreStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const KEY: RunKey = (1, System::DynCta);

    #[test]
    fn repeats_are_answered_from_memory() {
        let store: ResultStore<u64, String> = ResultStore::default();
        let runs = AtomicU64::new(0);
        let run = || {
            runs.fetch_add(1, Ordering::Relaxed);
            Ok(42)
        };
        assert_eq!(store.get_or_run(KEY, run), Ok(42));
        assert_eq!(store.get_or_run(KEY, run), Ok(42));
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let stats = store.tallies();
        assert_eq!((stats.hits, stats.simulations), (1, 1));
    }

    #[test]
    fn failures_are_memoized_unchanged() {
        let store: ResultStore<u64, String> = ResultStore::default();
        let failure = Err("cycle limit".to_string());
        assert_eq!(store.get_or_run(KEY, || failure.clone()), failure);
        assert_eq!(store.get_or_run(KEY, || Ok(1)), failure);
        let stats = store.tallies();
        assert_eq!((stats.failures, stats.simulations, stats.hits), (1, 0, 0));
    }
}
