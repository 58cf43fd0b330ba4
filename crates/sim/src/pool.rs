//! Lock-free partitioned storage for every SM, and a worker pool that
//! steps batched windows in parallel.
//!
//! [`SmPool`] owns **all** SM state for a run — per-tick and windowed
//! steps alike — split into `threads` fixed partitions: SM `i` lives in
//! partition `i % nparts` at local index `i / nparts`. Partition 0 is
//! serviced inline by the engine thread; partitions `1..nparts` each
//! get a persistent worker thread that exclusively owns its shard for
//! the duration of a dispatch. There are **no locks anywhere on the hot
//! path**: dispatch hand-off is a single atomic epoch counter
//! (seqlock-style generation number) published with `Release` ordering
//! and observed with `Acquire`, and completion is one `done` counter
//! per partition published the same way.
//!
//! Workers wait for the next generation by spinning briefly
//! ([`SimOptions::spin_limit`] iterations of [`std::hint::spin_loop`],
//! default 256) and then parking, so an idle pool burns no CPU on
//! oversubscribed hosts; the engine unparks every worker after each
//! epoch bump, and the park token makes that race-free (a worker that
//! parks just after the bump consumes the pending token and returns
//! immediately).
//!
//! When profiling is requested ([`SimOptions::profile`]) the pool also
//! maintains relaxed atomic counters — per-partition busy ticks, jobs,
//! spin iterations and park events — snapshotted by [`SmPool::stats`].
//! The counters are strictly observational: they are relaxed because
//! they order nothing (the hand-off is still carried by the epoch/done
//! Release/Acquire pairs alone), they never influence scheduling, and
//! they stay out of `RunStats` and snapshots, so profiled runs are
//! bit-identical to unprofiled ones.
//!
//! [`SimOptions::spin_limit`]: crate::gpu::SimOptions::spin_limit
//! [`SimOptions::profile`]: crate::gpu::SimOptions::profile
//!
//! A dispatch runs one *job* per partition: a batched window of `ticks`
//! SM cycles over every owned SM at one `(level, period)`, each tick
//! being the local phase ([`Sm::cycle_local`]) plus the per-cycle
//! statistics half of the commit ([`Sm::account_cycle`]). That is
//! legal exactly when the engine has proven no cross-SM interaction
//! can occur in the window (see `Engine::try_batched_window`); with
//! `SimOptions::fast_forward` (the default) the proof admits a
//! memory-*active* machine too, capped by the memory system's
//! next-event horizon. Per-tick steps never come here: the engine runs
//! them on its own thread through [`SmPool::sm_mut`], because handing a
//! shard to a worker for a single tick costs more than the tick's
//! local work. Work assignment is a pure function of SM index and
//! thread count, so no scheduling nondeterminism can leak into results.
//!
//! A panic inside a worker (e.g. a `validate`-feature assertion) is
//! caught, stashed in the partition's panic slot, and re-raised on the
//! engine thread once every partition has quiesced — sanitizer failures
//! surface exactly as they do in serial runs, and the pool is left in a
//! joinable state for the engine's destructor.
//!
//! # Safety model
//!
//! All `unsafe` in this crate lives in this module and follows one
//! discipline: a partition's [`UnsafeCell`] contents are accessed by
//! exactly one thread at a time, with the ownership hand-off ordered by
//! an `Acquire` load observing a `Release` store.
//!
//! * Engine → worker: the engine writes the job descriptor, then bumps
//!   `epoch` with `Release`. A worker only touches its shard after
//!   observing the new generation with `Acquire`.
//! * Worker → engine: a worker finishes its job, then publishes
//!   `done = epoch` with `Release`. The engine only touches worker
//!   shards (or returns from a dispatch) after observing every
//!   partition's `done` with `Acquire`.
//! * Between dispatches no worker touches any shard (they spin/park on
//!   `epoch`), so the engine thread has exclusive access and the safe
//!   accessors ([`SmPool::sm_ref`] / [`SmPool::sm_mut`]) can hand out
//!   plain references; Rust's borrow checker on `&self` / `&mut self`
//!   rules out aliasing on the engine side.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::config::{Femtos, VfLevel};
use crate::sm::Sm;
use crate::telemetry::{PartitionStats, PoolStats};

/// What one dispatch asks every partition to do: a window of `ticks`
/// back-to-back SM cycles, each running `cycle_local` + `account_cycle`
/// on every owned SM.
#[derive(Clone, Copy)]
struct JobDesc {
    /// Completion time of the first SM tick in the window.
    now: Femtos,
    /// SM domain level.
    level: VfLevel,
    /// SM domain period.
    period: Femtos,
    /// SM ticks to run back-to-back.
    ticks: u64,
}

/// One partition: a shard of SMs owned by exactly one thread at a time.
struct Partition {
    /// The owned SMs, local index `l` holding global SM `l * nparts + p`.
    sms: UnsafeCell<Vec<Sm>>,
    /// Panic payload caught during the last job, if any.
    panic: UnsafeCell<Option<Box<dyn std::any::Any + Send>>>,
    /// Generation number of the last completed job (`Release` by the
    /// worker, `Acquire` by the engine).
    done: AtomicU64,
    /// Profiling: SM ticks executed by this partition (relaxed; only
    /// touched when the pool was built with `profile`).
    busy_ticks: AtomicU64,
    /// Profiling: jobs this partition has run (relaxed).
    jobs: AtomicU64,
    /// Profiling: spin iterations waiting for the next generation
    /// (relaxed).
    spins: AtomicU64,
    /// Profiling: park events after exhausting the spin budget
    /// (relaxed).
    parks: AtomicU64,
}

/// Shared state between the engine thread and the workers.
struct Shared {
    /// Current job, written by the engine before each epoch bump.
    job: UnsafeCell<JobDesc>,
    /// Dispatch generation counter. A change (observed `Acquire`)
    /// transfers shard ownership engine → workers; matching `done`
    /// stores transfer it back.
    epoch: AtomicU64,
    /// Set (before a final epoch bump) to shut the workers down.
    shutdown: AtomicBool,
    /// Spin iterations before a waiting worker parks (and before the
    /// engine's completion wait downgrades to `yield_now`). Kept small
    /// by default: on oversubscribed hosts spinning steals cycles from
    /// the very workers being waited on.
    spin_limit: u32,
    /// Whether the profiling counters are maintained. Checked once per
    /// job/wait, never per tick, so the off path costs one branch.
    profile: bool,
    parts: Vec<Partition>,
}

// SAFETY: the `UnsafeCell` fields are accessed under the epoch/done
// hand-off protocol documented in the module header — one thread at a
// time, ordered by Release/Acquire pairs — and the atomics are Sync by
// construction.
unsafe impl Sync for Shared {}

/// Partitioned owner of every SM plus the persistent worker threads.
/// Dropped with the engine; the destructor shuts every worker down and
/// joins it.
pub(crate) struct SmPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// `live[p]` is true when partition `p` has a running worker;
    /// partition 0 never does (the engine services it), and a failed
    /// spawn leaves later partitions engine-serviced too.
    live: Vec<bool>,
    /// Engine-side copy of the current generation number.
    epoch: u64,
    /// Profiling: dispatches issued (inline ones included; engine
    /// thread only, so a plain counter suffices).
    dispatches: u64,
    /// Profiling: spin iterations in the completion wait (engine
    /// thread only, so a plain counter suffices).
    engine_spins: u64,
    /// Profiling: `yield_now` calls in the completion wait.
    engine_yields: u64,
    nparts: usize,
    num_sms: usize,
}

impl SmPool {
    /// Takes ownership of `sms` and spawns up to `workers` threads.
    ///
    /// `workers == 0` builds a purely serial pool (one partition, no
    /// threads). A failed spawn degrades gracefully: the partition is
    /// marked dead and the engine services it inline during dispatch,
    /// so results never depend on how many threads actually started.
    /// `spin_limit` sets the spin-vs-park crossover and `profile`
    /// enables the relaxed profiling counters; neither can affect
    /// simulated results.
    pub(crate) fn new(sms: Vec<Sm>, workers: usize, spin_limit: u32, profile: bool) -> Self {
        let num_sms = sms.len();
        let nparts = workers + 1;
        let mut shards: Vec<Vec<Sm>> = (0..nparts).map(|_| Vec::new()).collect();
        for (i, sm) in sms.into_iter().enumerate() {
            shards[i % nparts].push(sm);
        }
        let parts: Vec<Partition> = shards
            .into_iter()
            .map(|shard| Partition {
                sms: UnsafeCell::new(shard),
                panic: UnsafeCell::new(None),
                done: AtomicU64::new(0),
                busy_ticks: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
                spins: AtomicU64::new(0),
                parks: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            job: UnsafeCell::new(JobDesc {
                now: 0,
                level: VfLevel::Nominal,
                period: 1,
                ticks: 1,
            }),
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            spin_limit,
            profile,
            parts,
        });
        let mut live = vec![false; nparts];
        let mut handles = Vec::with_capacity(workers);
        for (p, alive) in live.iter_mut().enumerate().skip(1) {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("sm-worker-{p}"));
            match builder.spawn(move || worker_loop(&shared, p)) {
                Ok(handle) => {
                    *alive = true;
                    handles.push(handle);
                }
                Err(_) => break,
            }
        }
        Self {
            shared,
            handles,
            live,
            epoch: 0,
            dispatches: 0,
            engine_spins: 0,
            engine_yields: 0,
            nparts,
            num_sms,
        }
    }

    /// Snapshot of the profiling counters. All zeros unless the pool
    /// was built with `profile` set. Safe to call between dispatches
    /// only (like every other engine-side accessor): the relaxed loads
    /// then observe complete per-job values, because each worker's
    /// counter writes precede its `Release` done store and the engine
    /// already observed that store with `Acquire`.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.handles.len(),
            dispatches: self.dispatches,
            engine_spins: self.engine_spins,
            engine_yields: self.engine_yields,
            partitions: self
                .shared
                .parts
                .iter()
                .map(|part| PartitionStats {
                    busy_ticks: part.busy_ticks.load(Ordering::Relaxed),
                    jobs: part.jobs.load(Ordering::Relaxed),
                    spins: part.spins.load(Ordering::Relaxed),
                    parks: part.parks.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Number of SMs owned by the pool.
    pub(crate) fn num_sms(&self) -> usize {
        self.num_sms
    }

    /// Whether any worker thread is running (i.e. dispatch actually
    /// fans out instead of degenerating to the inline loop).
    pub(crate) fn has_workers(&self) -> bool {
        !self.handles.is_empty()
    }

    /// Shared reference to SM `id`.
    ///
    /// Sound because no dispatch is in flight between calls into the
    /// pool: every dispatch blocks until all partitions publish
    /// completion before returning, so the engine thread is the sole
    /// accessor here and `&self` borrows prevent engine-side aliasing
    /// with [`Self::sm_mut`].
    pub(crate) fn sm_ref(&self, id: usize) -> &Sm {
        let part = &self.shared.parts[id % self.nparts];
        // SAFETY: exclusive engine-thread access outside dispatch (see
        // the module header); the `done == epoch` Acquire observed at
        // the end of the last dispatch ordered all worker writes before
        // this read.
        unsafe { &(&*part.sms.get())[id / self.nparts] }
    }

    /// Mutable reference to SM `id`; see [`Self::sm_ref`] for why this
    /// is sound.
    pub(crate) fn sm_mut(&mut self, id: usize) -> &mut Sm {
        let part = &self.shared.parts[id % self.nparts];
        // SAFETY: as in `sm_ref`, plus `&mut self` rules out any other
        // engine-side borrow of the pool.
        unsafe { &mut (&mut *part.sms.get())[id / self.nparts] }
    }

    /// Runs a batched window of `ticks` back-to-back SM cycles on every
    /// SM, the first ending at time `now`, all at one level and period.
    /// Each tick runs the local phase and the per-cycle statistics half
    /// of the commit, which the caller must have proven is the whole
    /// commit (no cross-SM interaction possible in the window). Blocks
    /// until every partition is done; worker panics are re-raised here.
    pub(crate) fn dispatch_all(&mut self, now: Femtos, level: VfLevel, period: Femtos, ticks: u64) {
        self.dispatch(JobDesc {
            now,
            level,
            period,
            ticks,
        });
    }

    /// Publishes `job`, services partition 0 (and any dead partitions)
    /// inline, waits for the workers and forwards any panic.
    fn dispatch(&mut self, job: JobDesc) {
        let profile = self.shared.profile;
        if profile {
            self.dispatches += 1;
        }
        if !self.has_workers() {
            // Serial pool (or every spawn failed): run everything
            // inline with no atomics on the hand-off at all.
            for part in &self.shared.parts {
                // SAFETY: no worker threads exist, so the engine thread
                // owns every shard unconditionally.
                let ticks = unsafe { run_job(&job, &mut *part.sms.get()) };
                if profile {
                    part.busy_ticks.fetch_add(ticks, Ordering::Relaxed);
                    part.jobs.fetch_add(1, Ordering::Relaxed);
                }
            }
            return;
        }
        // SAFETY: all workers are quiescent (previous dispatch fully
        // completed), so the engine owns the job cell; the Release
        // store below publishes this write.
        unsafe { *self.shared.job.get() = job };
        self.epoch += 1;
        self.shared.epoch.store(self.epoch, Ordering::Release);
        for handle in &self.handles {
            handle.thread().unpark();
        }
        // Engine thread's own shard, plus any partition whose worker
        // failed to spawn.
        for (p, part) in self.shared.parts.iter().enumerate() {
            if !self.live[p] {
                // SAFETY: dead partitions are never touched by any
                // worker; the engine owns them unconditionally.
                let ticks = unsafe { run_job(&job, &mut *part.sms.get()) };
                if profile {
                    part.busy_ticks.fetch_add(ticks, Ordering::Relaxed);
                    part.jobs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Wait for every live partition to publish this generation.
        let spin_limit = self.shared.spin_limit;
        let mut wait_spins = 0u64;
        let mut wait_yields = 0u64;
        for (p, part) in self.shared.parts.iter().enumerate() {
            if !self.live[p] {
                continue;
            }
            let mut spins = 0u32;
            while part.done.load(Ordering::Acquire) != self.epoch {
                if spins < spin_limit {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    wait_yields += 1;
                    std::thread::yield_now();
                }
            }
            wait_spins += u64::from(spins);
        }
        if profile {
            self.engine_spins += wait_spins;
            self.engine_yields += wait_yields;
        }
        // All shards are back under engine ownership; forward the first
        // stashed panic (after the full wait, so no worker is still
        // running when the engine unwinds).
        for part in &self.shared.parts {
            // SAFETY: engine-exclusive access re-established above.
            let stashed = unsafe { (*part.panic.get()).take() };
            if let Some(payload) = stashed {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for SmPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.epoch += 1;
        self.shared.epoch.store(self.epoch, Ordering::Release);
        for handle in &self.handles {
            handle.thread().unpark();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for SmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmPool")
            .field("workers", &self.handles.len())
            .field("partitions", &self.nparts)
            .field("num_sms", &self.num_sms)
            .finish_non_exhaustive()
    }
}

/// Executes one job over one partition's shard. Runs on whichever
/// thread currently owns the shard (worker, or engine for partition 0
/// and dead partitions). Returns the SM ticks executed, for the
/// profiling counters.
fn run_job(job: &JobDesc, sms: &mut [Sm]) -> u64 {
    for sm in sms.iter_mut() {
        let mut t = job.now;
        for tick in 0..job.ticks {
            sm.cycle_local(t, job.level, job.period);
            // The engine proved the window's commits are statistics only.
            sm.account_cycle(job.level);
            if tick + 1 < job.ticks {
                t += job.period;
            }
        }
    }
    sms.len() as u64 * job.ticks
}

/// The persistent worker body for partition `part`: spin (then park) on
/// the epoch counter, run the published job over the owned shard,
/// publish completion, repeat until shutdown.
fn worker_loop(shared: &Shared, part: usize) {
    let mut seen = 0u64;
    let spin_limit = shared.spin_limit;
    let profile = shared.profile;
    loop {
        let mut spins = 0u32;
        let mut parks = 0u64;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            if spins < spin_limit {
                spins += 1;
                std::hint::spin_loop();
            } else {
                // The engine unparks every worker after each epoch
                // bump; a bump between the load above and this park
                // leaves the park token set, so park returns
                // immediately — no lost wakeup.
                parks += 1;
                std::thread::park();
            }
        }
        let cell = &shared.parts[part];
        if profile {
            // Counted once per wait, not per iteration: the off path
            // and the hot spin loop both stay free of atomic traffic.
            cell.spins.fetch_add(u64::from(spins), Ordering::Relaxed);
            cell.parks.fetch_add(parks, Ordering::Relaxed);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            cell.done.store(seen, Ordering::Release);
            return;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: observing the new epoch with Acquire transferred
            // ownership of this partition's cells to this worker until
            // the Release `done` store below.
            unsafe { run_job(&*shared.job.get(), &mut *cell.sms.get()) }
        }));
        match result {
            Ok(ticks) if profile => {
                cell.busy_ticks.fetch_add(ticks, Ordering::Relaxed);
                cell.jobs.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {}
            Err(payload) => {
                // SAFETY: same ownership window as the job itself.
                unsafe { *cell.panic.get() = Some(payload) };
            }
        }
        cell.done.store(seen, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn pool(num_sms: usize, workers: usize) -> SmPool {
        let config = GpuConfig::gtx480();
        let sms = (0..num_sms).map(|i| Sm::new(i, &config)).collect();
        SmPool::new(sms, workers, 256, false)
    }

    fn profiled_pool(num_sms: usize, workers: usize) -> SmPool {
        let config = GpuConfig::gtx480();
        let sms = (0..num_sms).map(|i| Sm::new(i, &config)).collect();
        SmPool::new(sms, workers, 4, true)
    }

    #[test]
    fn partition_layout_is_a_pure_function_of_the_sm_index() {
        // 7 SMs over 3 partitions: shards of 3, 2 and 2. Every accessor
        // must hand back the SM whose global index was asked for.
        let mut p = pool(7, 2);
        for id in 0..7 {
            assert_eq!(p.sm_ref(id).id(), id);
            assert_eq!(p.sm_mut(id).id(), id);
        }
    }

    #[test]
    fn serial_pool_spawns_no_threads_and_dispatches_inline() {
        let mut p = pool(4, 0);
        assert!(!p.has_workers());
        assert_eq!(p.num_sms(), 4);
        // Inline dispatch must not deadlock waiting on nonexistent
        // workers.
        p.dispatch_all(1, VfLevel::Nominal, 1, 1);
    }

    #[test]
    fn worker_panic_is_forwarded_and_the_pool_survives() {
        let mut p = pool(4, 3);
        if !p.has_workers() {
            // Spawn failed on this host; the degraded pool has no
            // worker panics to forward.
            return;
        }
        // SM 1 lives in worker partition 1; its poisoned local-hit queue
        // makes the job panic on the worker thread, and the panic must
        // resurface on the dispatching one.
        p.sm_mut(1).poison_local_ready();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.dispatch_all(1, VfLevel::Nominal, 1, 1);
        }));
        assert!(caught.is_err(), "worker panic must surface on dispatch");
        // The worker caught the panic and kept its loop alive: the pool
        // still dispatches, still hands out SMs, and still joins
        // cleanly on drop.
        p.dispatch_all(2, VfLevel::Nominal, 1, 1);
        for id in 0..4 {
            assert_eq!(p.sm_ref(id).id(), id);
        }
    }

    #[test]
    fn unprofiled_pool_reports_all_zero_counters() {
        let mut p = pool(4, 1);
        p.dispatch_all(1, VfLevel::Nominal, 1, 3);
        let stats = p.stats();
        assert_eq!(stats.dispatches, 0);
        assert!(stats
            .partitions
            .iter()
            .all(|s| *s == PartitionStats::default()));
    }

    #[test]
    fn profiled_dispatch_counts_busy_ticks_per_partition() {
        // 5 SMs over 2 partitions: shard sizes 3 and 2. One dispatch of
        // a 4-tick window must charge 12 and 8 busy ticks respectively,
        // whether or not the worker actually spawned.
        let mut p = profiled_pool(5, 1);
        p.dispatch_all(1, VfLevel::Nominal, 1, 4);
        let stats = p.stats();
        assert_eq!(stats.dispatches, 1);
        assert_eq!(stats.partitions.len(), 2);
        assert_eq!(stats.partitions[0].busy_ticks, 12);
        assert_eq!(stats.partitions[1].busy_ticks, 8);
        assert_eq!(stats.busy_total(), 20);
        assert_eq!(stats.busy_imbalance(), (12, 8));
        assert!(stats.partitions.iter().all(|s| s.jobs == 1));
    }
}
