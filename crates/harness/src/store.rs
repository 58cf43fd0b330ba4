//! The harness's one result store: content-addressed memoization with
//! single-flight deduplication.
//!
//! The simulator is deterministic end to end, so a run's `RunStats` is a
//! pure function of its canonical [`result_key`]. A [`ResultStore`]
//! exploits that in-process:
//!
//! * **Memoization** — completed results live in a bounded, deterministic
//!   LRU and repeats are answered without simulating.
//! * **Single flight** — concurrent calls for one key collapse onto one
//!   run: the first caller claims the key and runs it with no lock held;
//!   the others block on a condvar and share its result.
//! * **Failure memo** — deterministic failures (bad config, cycle limit)
//!   are remembered in a small bounded map, so later calls and waiters on
//!   a doomed flight get the same error instead of re-running into it.
//!
//! Every [`Runner`](crate::Runner) memoizes its runs in its own store,
//! shared by its clones.
//!
//! This module is in the strict lint universe (`cargo xtask lint`): no
//! hash maps, no clocks, no panics — keys never depend on time or the
//! process, and eviction order is a pure function of the call history.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use equalizer_baselines::StaticPoint;
use equalizer_core::Mode;
use equalizer_sim::ccws::CcwsConfig;
use equalizer_sim::config::{CacheConfig, ClockConfig, GpuConfig};
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::util::Fold;

use crate::System;

/// Domain-separation tag for [`result_key`] ("EQ-RESKEY" folded).
const RESULT_TAG: u64 = 0x4551_5245_534B_4559;

/// Canonical key of a complete run: equal keys imply bit-identical
/// `RunStats`.
///
/// * The *resolved* configuration is folded — the one the [`Runner`](crate::Runner)
///   hands the engine — because several systems (static VF points,
///   per-SM VRM, CCWS) modify it.
/// * Every [`SimOptions`] field the engine reads participates, including
///   the wall-clock-only knobs (`max_batch_ticks`, `fast_forward`):
///   `RunStats` records `batched_ticks`, so bit-identical memoized
///   results require keying on them. The ignored `threads` field is
///   left out, so runs differing only there share one result.
///   Exhaustive destructuring makes adding a field a compile error
///   until it is folded or explicitly ignored.
/// * The kernel folds its whole identity and the system its variant and
///   parameter.
pub fn result_key(
    config: &GpuConfig,
    kernel: &KernelSpec,
    options: &SimOptions,
    system: System,
) -> u64 {
    let mut fold = Fold::new(RESULT_TAG);
    fold_gpu_config(&mut fold, config);
    kernel.fold_identity(&mut fold);
    let SimOptions {
        max_cycles_per_invocation,
        record_epochs,
        threads: _, // ignored by the engine
        max_batch_ticks,
        fast_forward,
    } = *options;
    fold.add(max_cycles_per_invocation);
    fold.add(u64::from(record_epochs));
    fold.add(max_batch_ticks);
    fold.add(u64::from(fast_forward));
    let (tag, payload) = system_code(system);
    fold.add(tag);
    fold.add(payload);
    fold.finish()
}

/// A stable `(variant, parameter)` code for each [`System`].
fn system_code(system: System) -> (u64, u64) {
    let mode_code = |m: Mode| match m {
        Mode::Energy => 0,
        Mode::Performance => 1,
    };
    match system {
        System::Static(point) => (
            0,
            match point {
                StaticPoint::Baseline => 0,
                StaticPoint::SmHigh => 1,
                StaticPoint::SmLow => 2,
                StaticPoint::MemHigh => 3,
                StaticPoint::MemLow => 4,
            },
        ),
        System::Equalizer(mode) => (1, mode_code(mode)),
        System::EqualizerBlocksOnly => (2, 0),
        System::EqualizerPerSmVrm(mode) => (3, mode_code(mode)),
        System::DynCta => (4, 0),
        System::Ccws => (5, 0),
        System::FixedBlocks(n) => (6, n as u64),
    }
}

/// Folds every field of a [`GpuConfig`] into `fold`.
///
/// The exhaustive destructuring (no `..` rest pattern) is a compile-time
/// guard: adding a field to `GpuConfig` breaks this function until the
/// new field is folded in, so configuration changes can never silently
/// escape result keys.
fn fold_gpu_config(fold: &mut Fold, config: &GpuConfig) {
    let GpuConfig {
        num_sms,
        warp_size,
        max_warps_per_sm,
        max_blocks_per_sm,
        issue_width,
        max_alu_issue,
        max_mem_issue,
        alu_latency,
        l1_hit_latency,
        lsu_queue_cap,
        l1,
        l1_mshr,
        l2,
        l2_latency,
        dram_latency,
        icnt_cap,
        tex_queue_cap,
        dram_queue_cap,
        l2_banks,
        dram_bytes_per_cycle,
        sm_clock,
        mem_clock,
        epoch_cycles,
        sample_interval,
        vrm_delay_cycles,
        warp_launch_stagger,
        per_sm_vrm,
        initial_sm_level,
        initial_mem_level,
        ccws,
    } = config;
    fold.add(*num_sms as u64);
    fold.add(*warp_size as u64);
    fold.add(*max_warps_per_sm as u64);
    fold.add(*max_blocks_per_sm as u64);
    fold.add(*issue_width as u64);
    fold.add(*max_alu_issue as u64);
    fold.add(*max_mem_issue as u64);
    fold.add(u64::from(*alu_latency));
    fold.add(u64::from(*l1_hit_latency));
    fold.add(*lsu_queue_cap as u64);
    fold_cache_config(fold, l1);
    fold.add(*l1_mshr as u64);
    fold_cache_config(fold, l2);
    fold.add(u64::from(*l2_latency));
    fold.add(u64::from(*dram_latency));
    fold.add(*icnt_cap as u64);
    fold.add(*tex_queue_cap as u64);
    fold.add(*dram_queue_cap as u64);
    fold.add(*l2_banks as u64);
    fold.add(*dram_bytes_per_cycle);
    fold_clock_config(fold, sm_clock);
    fold_clock_config(fold, mem_clock);
    fold.add(*epoch_cycles);
    fold.add(*sample_interval);
    fold.add(*vrm_delay_cycles);
    fold.add(u64::from(*warp_launch_stagger));
    fold.add(u64::from(*per_sm_vrm));
    fold.add(initial_sm_level.index() as u64);
    fold.add(initial_mem_level.index() as u64);
    match ccws {
        None => fold.add(0),
        Some(c) => {
            let CcwsConfig {
                vta_entries,
                score_gain,
                score_decay_per_kcycle,
                base_score,
            } = c;
            fold.add(1);
            fold.add(*vta_entries as u64);
            fold.add(u64::from(*score_gain));
            fold.add(u64::from(*score_decay_per_kcycle));
            fold.add(u64::from(*base_score));
        }
    }
}

fn fold_cache_config(fold: &mut Fold, c: &CacheConfig) {
    let CacheConfig {
        sets,
        ways,
        line_bytes,
    } = c;
    fold.add(*sets as u64);
    fold.add(*ways as u64);
    fold.add(*line_bytes);
}

fn fold_clock_config(fold: &mut Fold, c: &ClockConfig) {
    let ClockConfig { nominal_mhz, step } = c;
    fold.add_f64(*nominal_mhz);
    fold.add_f64(*step);
}

#[derive(Debug)]
struct Slot<V> {
    seq: u64,
    value: V,
}

/// A bounded LRU map from canonical key to a cheaply cloned payload `V`.
/// Recency is a monotonic sequence number with a `BTreeMap` index over
/// it, so eviction order is a pure function of the lookup/store history:
/// no hashing, no clocks, no per-process seeds.
#[derive(Debug)]
struct LruCache<V> {
    capacity: usize,
    next_seq: u64,
    by_key: BTreeMap<u64, Slot<V>>,
    /// Recency index: sequence number → key. The smallest sequence is
    /// the least recently used entry.
    by_age: BTreeMap<u64, u64>,
    evictions: u64,
}

impl<V: Clone> LruCache<V> {
    /// A cache holding at most `capacity` entries; zero disables it
    /// (stores evict immediately).
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            next_seq: 0,
            by_key: BTreeMap::new(),
            by_age: BTreeMap::new(),
            evictions: 0,
        }
    }

    /// The payload stored under `key`, marked most recently used.
    fn lookup(&mut self, key: u64) -> Option<V> {
        let slot = self.by_key.get_mut(&key)?;
        self.by_age.remove(&slot.seq);
        slot.seq = self.next_seq;
        self.next_seq += 1;
        self.by_age.insert(slot.seq, key);
        Some(slot.value.clone())
    }

    /// Stores `value` under `key` (replacing any previous payload) and
    /// evicts least-recently-used entries until the bound holds again.
    fn store(&mut self, key: u64, value: V) {
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
}

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
            evictions: st.results.evictions,
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

    #[test]
    fn lookup_returns_what_store_put() {
        let mut cache = LruCache::new(2);
        assert!(cache.lookup(1).is_none());
        cache.store(1, 11);
        assert_eq!(cache.lookup(1), Some(11));
        cache.store(1, 12);
        assert_eq!(cache.lookup(1), Some(12));
        assert_eq!(cache.by_key.len(), 1);
        assert_eq!(cache.evictions, 0);
    }

    #[test]
    fn eviction_is_least_recently_used_and_deterministic() {
        let mut cache = LruCache::new(2);
        cache.store(1, 1);
        cache.store(2, 2);
        // Touch 1, making 2 the LRU entry.
        assert!(cache.lookup(1).is_some());
        cache.store(3, 3);
        assert!(cache.lookup(2).is_none(), "2 was evicted");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
        assert_eq!(cache.evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = LruCache::new(0);
        cache.store(1, 1);
        assert!(cache.lookup(1).is_none());
        assert!(cache.by_key.is_empty());
        assert_eq!(cache.evictions, 1);
    }

    fn key_parts() -> (GpuConfig, KernelSpec, SimOptions) {
        (
            GpuConfig::gtx480(),
            equalizer_workloads::kernel_by_name("mri-q").unwrap(),
            SimOptions::default(),
        )
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let (config, kernel, options) = key_parts();
        let key = result_key(&config, &kernel, &options, System::DynCta);
        assert_eq!(
            key,
            result_key(&config, &kernel, &options, System::DynCta),
            "same inputs, same key"
        );

        // Every ingredient perturbs the key.
        let mut other_config = config.clone();
        other_config.num_sms += 1;
        assert_ne!(
            key,
            result_key(&other_config, &kernel, &options, System::DynCta)
        );
        let other_kernel = kernel.clone().with_seed(99);
        assert_ne!(
            key,
            result_key(&config, &other_kernel, &options, System::DynCta)
        );
        let other_options = SimOptions {
            max_batch_ticks: 0,
            ..options
        };
        assert_ne!(
            key,
            result_key(&config, &kernel, &other_options, System::DynCta)
        );
        assert_ne!(
            key,
            result_key(&config, &kernel, &options, System::Equalizer(Mode::Energy))
        );
        assert_ne!(
            result_key(&config, &kernel, &options, System::FixedBlocks(2)),
            result_key(&config, &kernel, &options, System::FixedBlocks(3))
        );
    }

    #[test]
    fn keys_ignore_the_thread_count() {
        let (config, kernel, options) = key_parts();
        let threaded = SimOptions {
            threads: 4,
            ..options
        };
        assert_eq!(
            result_key(&config, &kernel, &options, System::DynCta),
            result_key(&config, &kernel, &threaded, System::DynCta)
        );
    }
}
