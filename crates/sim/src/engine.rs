//! The step-wise simulation engine.
//!
//! [`Engine`] owns the complete simulated machine — both clock domains,
//! every SM, the memory system and the block dispatcher — and advances it
//! one event at a time through [`Engine::step`]. The run-to-completion
//! entry points ([`crate::gpu::simulate`] / [`crate::gpu::simulate_with`])
//! are thin wrappers over [`Engine::run`]; incremental callers can instead
//! pause between steps, inspect [`Engine::stats`] mid-run, drive exactly
//! one epoch with [`Engine::run_epoch`], or attach [`Observer`]s for
//! passive instrumentation that never perturbs the simulation.
//!
//! The decomposition mirrors how component-based simulators (MGSim-style
//! engines, Accel-Sim parallelization work) get their extensibility: a
//! steppable core plus attachable observers. Equalizer itself is just one
//! observer/actuator pair over epoch boundaries (the [`Governor`] side),
//! so the paper's runtime loses nothing from the decoupling.
//!
//! # Determinism
//!
//! A step-driven run is bit-identical to a one-shot run: `step` performs
//! exactly one iteration of the classic event loop, and observers only
//! read state. `tests/engine_stepping.rs` pins this property.
//!
//! The engine owns its SMs in a plain `Vec` and steps all of them on
//! the calling thread. Each SM tick is split into a *local* phase
//! ([`Sm::cycle_local`]) that touches only per-SM state and a *commit*
//! phase ([`Sm::commit`]) where interconnect arbitration, back-pressure
//! and GWDE dispatch are resolved. Per-tick steps run whole
//! ([`Sm::cycle`]: drain, local phase, commit) in a rotated service
//! order. The per-tick step is the fast path: every tick takes it
//! unless the engine can prove a *fused* window.
//!
//! A fused window covers `w >= 2` SM cycles in which every awake warp
//! on every SM is provably stalled: asleep on an outstanding load, or
//! waiting out a scoreboard dependency or its launch stagger for the
//! whole window. Nothing can issue, so each SM bulk-applies the
//! window's accounting in O(1) ([`Sm::fast_forward_window`]) and the
//! memory domain catches up afterwards ([`MemSystem::fast_forward`] or
//! a per-tick memory replay). The memory system may stay active as long
//! as [`MemSystem::next_event_time`] shows no response can become ready
//! inside the window. A window is exactly equivalent to `w` per-tick
//! steps (see [`Engine::batched_ticks`] and
//! `tests/window_determinism.rs`, which compares the default options
//! with per-tick stepping at `max_batch_ticks = 1`). One known defect:
//! the termination check runs only after per-tick steps, so when stores
//! drain after the last block retired, a fused window can carry the
//! idle machine to the next epoch boundary before the invocation ends
//! (`TERMINATION_OVERSHOOT` in `tests/stats_digest.rs`).
//!
//! Fused windows need [`SimOptions::fast_forward`] (the default), which
//! also arms the issue stage's fast cuts. Turning the knob off runs
//! every tick per-tick without the cuts; results are bit-identical
//! either way.

use std::fmt;

use crate::clock::DomainClock;
use crate::config::{Femtos, GpuConfig, VfLevel};
use crate::counters::WarpStateCounters;
use crate::governor::{EpochContext, EpochDecision, Governor, SmEpochReport, VfRequest};
use crate::gpu::{SimError, SimOptions};
use crate::gwde::Gwde;
use crate::kernel::KernelSpec;
use crate::memsys::{MemLevelStats, MemSystem};
use crate::sm::{Sm, SmLevelEvents};
use crate::stats::{EpochRecord, InvocationStats, RunStats};
use crate::telemetry::{BatchClose, BatchWindowStats, WindowBound};

/// Identifies a clock domain in [`Observer::on_vf_transition`] callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VfDomain {
    /// The SM domain. The index names the regulator: it is the SM index
    /// when [`GpuConfig::per_sm_vrm`] is enabled and `0` for the shared
    /// regulator otherwise.
    Sm(usize),
    /// The memory-system domain (interconnect + L2 + MC + DRAM).
    Memory,
}

/// A thread-block residency event, reported to observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockEvent {
    /// `count` blocks retired on SM `sm` during the last SM cycle.
    Completed {
        /// SM index.
        sm: usize,
        /// Blocks retired in that cycle.
        count: u64,
    },
    /// The governor's epoch decision changed SM `sm`'s concurrency target.
    TargetChanged {
        /// SM index.
        sm: usize,
        /// The new (clamped) target.
        target: usize,
    },
}

/// One SM's state at an epoch boundary, as seen by
/// [`Observer::on_machine_sample`].
///
/// Event counts are cumulative over the run; queue occupancies and block
/// counts are instantaneous. Consumers derive per-epoch rates by diffing
/// consecutive samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmSample {
    /// SM index.
    pub sm: usize,
    /// The SM's current VF level.
    pub level: VfLevel,
    /// Instructions issued so far (all levels).
    pub issued: u64,
    /// L1 probes so far.
    pub l1_accesses: u64,
    /// L1 hits so far.
    pub l1_hits: u64,
    /// Current LD/ST-unit queue occupancy.
    pub lsu_occupancy: usize,
    /// Current allocated MSHR entries.
    pub mshr_occupancy: usize,
    /// Unpaused resident blocks.
    pub active_blocks: usize,
    /// Paused resident blocks.
    pub paused_blocks: usize,
    /// The concurrency target.
    pub target_blocks: usize,
}

/// A whole-machine state sample taken at an epoch boundary, fed to
/// [`Observer::on_machine_sample`].
///
/// All event/cycle/time aggregates are cumulative since the start of the
/// run (the same quantities [`Engine::stats`] reports), so observers can
/// window them into per-epoch deltas without the engine keeping any
/// additional state. The sample is only assembled when at least one
/// observer is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSample {
    /// Epoch boundary this sample was taken at.
    pub epoch_index: u64,
    /// Invocation the epoch belongs to.
    pub invocation: usize,
    /// Absolute simulated time of the boundary.
    pub now_fs: Femtos,
    /// Number of SMs.
    pub num_sms: usize,
    /// Cumulative SM-domain cycles per VF level, averaged over SM clocks.
    pub sm_cycles_at: [u64; 3],
    /// Cumulative SM-domain time per VF level, averaged over SM clocks.
    pub sm_time_at: [Femtos; 3],
    /// Cumulative memory-domain cycles per VF level.
    pub mem_cycles_at: [u64; 3],
    /// Cumulative memory-domain time per VF level.
    pub mem_time_at: [Femtos; 3],
    /// Cumulative SM-side events per SM-domain VF level, summed over SMs.
    pub sm_events: [SmLevelEvents; 3],
    /// Cumulative memory-side events per memory-domain VF level.
    pub mem_events: [MemLevelStats; 3],
    /// The memory domain's current VF level.
    pub mem_level: VfLevel,
    /// Current interconnect queue occupancy.
    pub icnt_occupancy: usize,
    /// Per-SM state.
    pub sms: Vec<SmSample>,
}

impl MachineSample {
    /// The cumulative machine state repackaged as a [`RunStats`] snapshot
    /// (without the epoch/invocation timelines), so run-level consumers —
    /// a power model evaluated over windowed deltas, say — can reuse their
    /// existing interfaces.
    pub fn to_run_stats(&self) -> RunStats {
        RunStats {
            wall_time_fs: self.now_fs,
            num_sms: self.num_sms,
            sm_cycles_at: self.sm_cycles_at,
            sm_time_at: self.sm_time_at,
            mem_cycles_at: self.mem_cycles_at,
            mem_time_at: self.mem_time_at,
            sm_events: self.sm_events,
            mem_events: self.mem_events,
            ..RunStats::default()
        }
    }
}

/// What one call to [`Engine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A new invocation was set up (index given); no simulated time
    /// advanced.
    InvocationStart(usize),
    /// The memory domain ticked once.
    MemCycle,
    /// The SM domain ticked: every SM whose clock was due cycled once.
    SmCycle,
    /// The SM tick crossed an epoch boundary and the governor was
    /// consulted.
    EpochBoundary,
    /// The running invocation drained and its statistics were retired
    /// (index given).
    InvocationEnd(usize),
    /// Every invocation has completed; further `step` calls are no-ops.
    Complete,
}

/// Passive instrumentation hooks over a simulation run.
///
/// Every method has a no-op default, so an observer implements only the
/// events it cares about. Observers are strictly read-only: the engine
/// never lets them mutate simulated state, and an engine with no
/// observers attached pays nothing for the hooks (the per-step block
/// bookkeeping is skipped entirely).
pub trait Observer {
    /// A kernel invocation was set up and is about to run.
    fn on_invocation_start(&mut self, _invocation: usize, _kernel: &KernelSpec) {}

    /// A kernel invocation drained; `stats` is its retired timing entry.
    fn on_invocation_end(&mut self, _stats: &InvocationStats) {}

    /// An epoch boundary was crossed. Fires after the governor has been
    /// consulted but before its decision is applied, so `ctx`/`reports`
    /// describe exactly what the governor saw; `record` is the bundled
    /// summary that [`Recorder`] persists into [`RunStats::epochs`].
    fn on_epoch(&mut self, _ctx: &EpochContext, _reports: &[SmEpochReport], _record: &EpochRecord) {
    }

    /// A machine-state sample taken at the same epoch boundary as
    /// [`Observer::on_epoch`] (it fires immediately after, with matching
    /// `epoch_index`). Carries the cumulative cache/memory/power-relevant
    /// aggregates plus instantaneous queue occupancies; the engine only
    /// assembles the sample when at least one observer is attached.
    fn on_machine_sample(&mut self, _sample: &MachineSample) {}

    /// The governor's decision scheduled a VF level change on `domain`,
    /// from `from` to `to`, taking effect at `apply_at_fs` (after the VRM
    /// delay).
    fn on_vf_transition(
        &mut self,
        _domain: VfDomain,
        _from: VfLevel,
        _to: VfLevel,
        _apply_at_fs: Femtos,
    ) {
    }

    /// Thread-block residency changed (completion or a target change).
    fn on_block_event(&mut self, _event: BlockEvent) {}
}

/// The bundled observer behind [`SimOptions::record_epochs`]: collects
/// one [`EpochRecord`] per epoch boundary.
///
/// [`Engine`] installs one internally when `record_epochs` is set (that
/// is how [`RunStats::epochs`] is produced); attach your own with
/// [`Engine::attach`] to collect the identical timeline externally.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    records: Vec<EpochRecord>,
}

impl Recorder {
    /// The records captured so far, in epoch order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Consumes the recorder, yielding the captured timeline.
    pub fn into_records(self) -> Vec<EpochRecord> {
        self.records
    }
}

impl Observer for Recorder {
    fn on_epoch(&mut self, _ctx: &EpochContext, _reports: &[SmEpochReport], record: &EpochRecord) {
        self.records.push(*record);
    }
}

/// Where the engine's state machine currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The next `step` sets up invocation `inv_idx` (or completes the run
    /// when the kernel has no more invocations).
    StartInvocation,
    /// The next `step` advances the event loop by one tick.
    Running,
    /// The run is over; `step` is a no-op.
    Complete,
}

/// A reusable, steppable simulation: the state machine behind
/// [`crate::gpu::simulate_with`].
///
/// # Examples
///
/// ```
/// # use equalizer_sim::prelude::*;
/// # use std::sync::Arc;
/// let config = GpuConfig::gtx480();
/// let program = Arc::new(Program::new(vec![Segment::new(vec![Instr::alu()], 8)]));
/// let kernel = KernelSpec::new(
///     "demo",
///     KernelCategory::Compute,
///     4,
///     8,
///     vec![Invocation { grid_blocks: 30, program }],
/// );
/// let mut engine = Engine::new(&config, &kernel, SimOptions::default())?;
/// // Drive the run one event at a time; stop whenever you like.
/// while engine.step(&mut StaticGovernor)? != StepEvent::Complete {}
/// assert!(engine.stats().instructions() > 0);
/// # Ok::<(), equalizer_sim::gpu::SimError>(())
/// ```
pub struct Engine<'o> {
    config: GpuConfig,
    kernel: KernelSpec,
    options: SimOptions,

    // The machine: SM `i` is `sms[i]`, stepped on the engine thread.
    sm_clocks: Vec<DomainClock>,
    mem_clock: DomainClock,
    sms: Vec<Sm>,
    mem: MemSystem,
    gwde: Gwde,

    // Epoch bookkeeping. With per-SM VRMs the SM clocks drift apart, so
    // epochs are delimited in wall time (the paper's 4096 cycles at the
    // nominal frequency); with a shared VRM they are cycle-counted.
    nominal_sm_period: Femtos,
    epoch_span_fs: Femtos,
    epoch_index: u64,
    last_epoch_cycle: u64,
    next_epoch_fs: Femtos,

    // Run cursor.
    sm_steps: u64,
    batched_ticks: u64,
    // Diagnostic only: never enters `RunStats` or snapshots (restore
    // resets it), so results stay bit-identical with or without anyone
    // reading it.
    batch_stats: BatchWindowStats,
    now: Femtos,
    single_sm: bool,
    inv_idx: usize,
    inv_start_cycles: u64,
    inv_start_fs: Femtos,
    phase: Phase,

    // Instrumentation. `observed` caches `!observers.is_empty()` so the
    // per-step hot path skips all observer-only bookkeeping (the block
    // snapshot, the machine sample) with a single flag test.
    invocations: Vec<InvocationStats>,
    recorder: Option<Recorder>,
    observers: Vec<&'o mut dyn Observer>,
    observed: bool,
    block_scratch: Vec<u64>,
}

impl fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("kernel", &self.kernel.name())
            .field("invocation", &self.inv_idx)
            .field("epoch_index", &self.epoch_index)
            .field("now_fs", &self.now)
            .field("phase", &self.phase)
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl<'o> Engine<'o> {
    /// Builds an engine over a validated configuration, ready to run
    /// `kernel`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an inconsistent
    /// configuration.
    pub fn new(
        config: &GpuConfig,
        kernel: &KernelSpec,
        options: SimOptions,
    ) -> Result<Self, SimError> {
        config.validate().map_err(SimError::InvalidConfig)?;

        // One SM clock shared by all SMs, or one clock per SM when the
        // hardware has per-SM voltage regulators (§V-A1 of the paper).
        let clock_count = if config.per_sm_vrm { config.num_sms } else { 1 };
        let sm_clocks: Vec<DomainClock> = (0..clock_count)
            .map(|_| DomainClock::new(config.sm_clock, config.initial_sm_level))
            .collect();
        let mem_clock = DomainClock::new(config.mem_clock, config.initial_mem_level);
        let mut sms: Vec<Sm> = (0..config.num_sms).map(|i| Sm::new(i, config)).collect();
        if options.fast_forward {
            // The issue-walk fast cuts ride the same knob as the
            // window machinery; `restore` funnels through here, so a
            // restored engine arms it consistently too.
            for sm in &mut sms {
                sm.set_fast_issue(true);
            }
        }
        let mem = MemSystem::new(config);
        let nominal_sm_period = config.sm_clock.period_fs(VfLevel::Nominal);
        let epoch_span_fs = config.epoch_cycles * nominal_sm_period;

        Ok(Self {
            single_sm: config.num_sms == 1,
            kernel: kernel.clone(),
            options,
            sm_clocks,
            mem_clock,
            sms,
            mem,
            gwde: Gwde::new(0),
            nominal_sm_period,
            epoch_span_fs,
            epoch_index: 0,
            last_epoch_cycle: 0,
            next_epoch_fs: epoch_span_fs,
            sm_steps: 0,
            batched_ticks: 0,
            batch_stats: BatchWindowStats::default(),
            now: 0,
            inv_idx: 0,
            inv_start_cycles: 0,
            inv_start_fs: 0,
            phase: Phase::StartInvocation,
            invocations: Vec::new(),
            recorder: options.record_epochs.then(Recorder::default),
            observers: Vec::new(),
            observed: false,
            block_scratch: Vec::new(),
            config: config.clone(),
        })
    }

    /// Attaches a passive observer for the rest of the run.
    pub fn attach(&mut self, observer: &'o mut dyn Observer) {
        self.observers.push(observer);
        self.observed = true;
    }

    /// Builder-style [`Engine::attach`].
    #[must_use]
    pub fn with_observer(mut self, observer: &'o mut dyn Observer) -> Self {
        self.attach(observer);
        self
    }

    /// The kernel under simulation.
    pub fn kernel(&self) -> &KernelSpec {
        &self.kernel
    }

    /// The configuration the machine was built from.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Absolute simulated time reached so far.
    pub fn now_fs(&self) -> Femtos {
        self.now
    }

    /// Epoch boundaries crossed so far.
    pub fn epoch_index(&self) -> u64 {
        self.epoch_index
    }

    /// The invocation the engine is on (equals the invocation count once
    /// the run is complete).
    pub fn invocation(&self) -> usize {
        self.inv_idx
    }

    /// Whether every invocation has completed.
    pub fn is_complete(&self) -> bool {
        self.phase == Phase::Complete
    }

    /// Number of SMs in the machine.
    pub fn num_sms(&self) -> usize {
        self.sms.len()
    }

    /// SM-domain ticks that were executed inside fused windows so far.
    ///
    /// Purely a wall-clock-optimisation diagnostic: windows never
    /// change simulated results (`tests/window_determinism.rs` pins
    /// that), so this counter only tells you how often the engine could
    /// prove a multi-tick window in which every awake warp is stalled.
    /// It counts machine ticks, once per window however many SMs it
    /// covers.
    pub fn batched_ticks(&self) -> u64 {
        self.batched_ticks
    }

    /// The window diagnostic: window-size histogram, what bounded each
    /// window, and why per-tick fallbacks happened.
    ///
    /// `RunStats`-adjacent on purpose — like [`Engine::batched_ticks`]
    /// it describes the wall-clock optimisation, not the simulated
    /// machine, so it never enters [`RunStats`] or snapshots
    /// (restoring resets it). Deterministic.
    pub fn batch_window_stats(&self) -> &BatchWindowStats {
        &self.batch_stats
    }

    /// Runs `f` against SM `index`, for mid-run inspection.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn with_sm<R>(&self, index: usize, f: impl FnOnce(&Sm) -> R) -> R {
        f(&self.sms[index])
    }

    /// Advances the simulation by exactly one event: an invocation setup,
    /// one domain tick (possibly crossing an epoch boundary), or an
    /// invocation retirement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimit`] when the running invocation
    /// exceeds [`SimOptions::max_cycles_per_invocation`]; the engine is
    /// then complete and further steps are no-ops.
    pub fn step(&mut self, governor: &mut dyn Governor) -> Result<StepEvent, SimError> {
        match self.phase {
            Phase::Complete => Ok(StepEvent::Complete),
            Phase::StartInvocation => {
                if self.inv_idx >= self.kernel.invocations().len() {
                    self.phase = Phase::Complete;
                    return Ok(StepEvent::Complete);
                }
                self.begin_invocation(governor);
                Ok(StepEvent::InvocationStart(self.inv_idx))
            }
            Phase::Running => self.step_running(governor),
        }
    }

    /// Steps until the next epoch boundary, invocation end, or run
    /// completion, returning the event that stopped the loop. One call
    /// therefore consults the governor at most once.
    ///
    /// # Errors
    ///
    /// See [`Engine::step`].
    pub fn run_epoch(&mut self, governor: &mut dyn Governor) -> Result<StepEvent, SimError> {
        loop {
            let event = self.step(governor)?;
            if matches!(
                event,
                StepEvent::EpochBoundary | StepEvent::InvocationEnd(_) | StepEvent::Complete
            ) {
                return Ok(event);
            }
        }
    }

    /// Steps until the current invocation retires (or the run completes),
    /// returning the event that stopped the loop.
    ///
    /// # Errors
    ///
    /// See [`Engine::step`].
    pub fn run_invocation(&mut self, governor: &mut dyn Governor) -> Result<StepEvent, SimError> {
        loop {
            let event = self.step(governor)?;
            if matches!(event, StepEvent::InvocationEnd(_) | StepEvent::Complete) {
                return Ok(event);
            }
        }
    }

    /// Runs every remaining invocation to completion and assembles the
    /// final statistics.
    ///
    /// # Errors
    ///
    /// See [`Engine::step`].
    pub fn run(&mut self, governor: &mut dyn Governor) -> Result<RunStats, SimError> {
        while self.step(governor)? != StepEvent::Complete {}
        Ok(self.stats())
    }

    /// Assembles run statistics for the simulation so far. Callable at
    /// any point — mid-run snapshots see partial cycle counts and the
    /// epochs recorded up to now.
    ///
    /// With per-SM VRMs the SM-domain residency is averaged over SMs, so
    /// the power model's per-watt integrals keep their meaning (watts ×
    /// wall time for the whole SM array).
    pub fn stats(&self) -> RunStats {
        let nc = self.sm_clocks.len() as u64;
        let mut sm_cycles_at = [0u64; 3];
        let mut sm_time_at = [0u64; 3];
        for c in &self.sm_clocks {
            for i in 0..3 {
                sm_cycles_at[i] += c.cycles_at()[i];
                sm_time_at[i] += c.time_at()[i];
            }
        }
        for i in 0..3 {
            sm_cycles_at[i] /= nc;
            sm_time_at[i] /= nc;
        }
        let mut stats = RunStats {
            wall_time_fs: self.now,
            num_sms: self.config.num_sms,
            sm_cycles_at,
            sm_time_at,
            mem_cycles_at: self.mem_clock.cycles_at(),
            mem_time_at: self.mem_clock.time_at(),
            mem_events: *self.mem.stats(),
            batched_ticks: self.batched_ticks,
            epochs_executed: self.epoch_index,
            epochs: self
                .recorder
                .as_ref()
                .map(|r| r.records().to_vec())
                .unwrap_or_default(),
            invocations: self.invocations.clone(),
            ..RunStats::default()
        };
        for sm in &self.sms {
            for (agg, ev) in stats.sm_events.iter_mut().zip(sm.events().iter()) {
                agg.issued += ev.issued;
                agg.alu_ops += ev.alu_ops;
                agg.mem_instrs += ev.mem_instrs;
                agg.l1_accesses += ev.l1_accesses;
                agg.l1_hits += ev.l1_hits;
                agg.busy_cycles += ev.busy_cycles;
            }
            stats.warp_states.merge(sm.run_counters());
        }
        stats
    }

    /// Serializes the complete machine state into the versioned snapshot
    /// byte format (see [`crate::snapshot`] for the layout).
    ///
    /// The snapshot captures everything the engine owns — clock domains,
    /// every SM, the memory system, the dispatcher, epoch cursors and the
    /// recorded epoch timeline — so [`Engine::restore`] resumes the run
    /// bit-identically. Governors live *outside* the engine, so a caller
    /// resuming a governed run must also restore (or re-derive) its
    /// governor state.
    ///
    /// The callers are the tests: a straight run against a run
    /// snapshotted and restored mid-way is one of the references the
    /// differential oracle compares (`tests/snapshot_restore.rs`,
    /// `tests/stats_digest.rs`), and the restore path is fuzzed with
    /// corrupted bytes.
    ///
    /// Snapshots may be taken at any step boundary, but epoch boundaries
    /// are the natural point: the governor has just been consulted, so a
    /// stateless governor needs nothing re-derived. Attached observers
    /// are not serialized (they are borrowed instrumentation, not machine
    /// state).
    pub fn snapshot(&self) -> Vec<u8> {
        use crate::snapshot::{
            machine_fingerprint, put_epoch_record, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
        };
        let mut w = Writer::new();
        w.u32(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u64(machine_fingerprint(
            &self.config,
            &self.kernel,
            &self.options,
        ));

        w.u8(match self.phase {
            Phase::StartInvocation => 0,
            Phase::Running => 1,
            Phase::Complete => 2,
        });
        w.usize(self.inv_idx);
        w.u64(self.inv_start_cycles);
        w.u64(self.inv_start_fs);
        w.u64(self.epoch_index);
        w.u64(self.last_epoch_cycle);
        w.u64(self.next_epoch_fs);
        w.u64(self.sm_steps);
        w.u64(self.batched_ticks);
        w.u64(self.now);

        w.usize(self.sm_clocks.len());
        for clock in &self.sm_clocks {
            clock.encode(&mut w);
        }
        self.mem_clock.encode(&mut w);
        self.gwde.encode(&mut w);
        self.mem.encode(&mut w);

        w.usize(self.sms.len());
        for sm in &self.sms {
            sm.encode_state(&mut w);
        }

        w.usize(self.invocations.len());
        for inv in &self.invocations {
            w.usize(inv.index);
            w.u64(inv.sm_cycles);
            w.u64(inv.wall_fs);
        }

        w.bool(self.recorder.is_some());
        if let Some(recorder) = &self.recorder {
            w.usize(recorder.records().len());
            for record in recorder.records() {
                put_epoch_record(&mut w, record);
            }
        }
        w.into_bytes()
    }

    /// Rebuilds an engine from [`Engine::snapshot`] bytes, resuming the
    /// run exactly where the snapshot left off. Its callers are the tests
    /// (see [`Engine::snapshot`]); it is the only decoder of bytes from
    /// outside the program, so malformed input must come back as an
    /// error, never a panic.
    ///
    /// `config`, `kernel` and `options` must describe the same simulated
    /// machine the snapshot was taken on; the header's fingerprint
    /// enforces that. The wall-clock-only knobs
    /// ([`SimOptions::max_batch_ticks`], [`SimOptions::fast_forward`])
    /// are excluded from the fingerprint, so a snapshot taken on a
    /// per-tick run restores onto an engine that opens fused windows
    /// (and vice versa) — results stay bit-identical because a window is
    /// exactly `w` per-tick steps.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](crate::snapshot::SnapshotError) when
    /// the bytes are malformed (bad magic, unsupported version,
    /// truncated or corrupt payload, trailing bytes) or describe a
    /// different machine than `config`/`kernel`/`options` build.
    pub fn restore(
        config: &GpuConfig,
        kernel: &KernelSpec,
        options: SimOptions,
        bytes: &[u8],
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{
            get_epoch_record, machine_fingerprint, Reader, SnapshotError, SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
        };
        let mut r = Reader::new(bytes);
        if r.u32()? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let expected = machine_fingerprint(config, kernel, &options);
        let found = r.u64()?;
        if found != expected {
            return Err(SnapshotError::MachineMismatch { expected, found });
        }

        let mut engine = Engine::new(config, kernel, options).map_err(|e| match e {
            SimError::InvalidConfig(msg) => SnapshotError::InvalidConfig(msg),
            other => SnapshotError::InvalidConfig(other.to_string()),
        })?;

        let at = r.offset();
        engine.phase = match r.u8()? {
            0 => Phase::StartInvocation,
            1 => Phase::Running,
            2 => Phase::Complete,
            _ => {
                return Err(SnapshotError::Corrupt {
                    offset: at,
                    what: "invalid engine phase tag",
                })
            }
        };
        let at = r.offset();
        engine.inv_idx = r.usize()?;
        let inv_count = kernel.invocations().len();
        let in_range = match engine.phase {
            Phase::Running => engine.inv_idx < inv_count,
            _ => engine.inv_idx <= inv_count,
        };
        if !in_range {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: "invocation cursor beyond the kernel's invocations",
            });
        }
        let cursors_at = r.offset();
        engine.inv_start_cycles = r.u64()?;
        engine.inv_start_fs = r.u64()?;
        engine.epoch_index = r.u64()?;
        engine.last_epoch_cycle = r.u64()?;
        engine.next_epoch_fs = r.u64()?;
        engine.sm_steps = r.u64()?;
        engine.batched_ticks = r.u64()?;
        engine.now = r.u64()?;

        let at = r.offset();
        if r.seq_len(11)? != engine.sm_clocks.len() {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: "SM clock count differs from machine",
            });
        }
        for clock in &mut engine.sm_clocks {
            *clock = DomainClock::decode(config.sm_clock, &mut r)?;
        }
        engine.mem_clock = DomainClock::decode(config.mem_clock, &mut r)?;
        engine.gwde = Gwde::decode(&mut r)?;
        engine.mem = MemSystem::decode(config, &mut r)?;

        let at = r.offset();
        if r.seq_len(16)? != engine.sms.len() {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: "SM count differs from machine",
            });
        }
        // SMs hold the running invocation's program while an invocation
        // is live, and keep the previous one's across the retirement gap
        // (`begin_invocation` swaps it in). Resolve the Arc the engine
        // phase implies; `decode_state` rejects bytes that disagree.
        let program = match engine.phase {
            Phase::StartInvocation if engine.inv_idx == 0 => None,
            Phase::Running => kernel
                .invocations()
                .get(engine.inv_idx)
                .map(|inv| inv.program.clone()),
            _ => kernel
                .invocations()
                .get(engine.inv_idx.wrapping_sub(1))
                .map(|inv| inv.program.clone()),
        };
        for sm in &mut engine.sms {
            sm.decode_state(&mut r, program.clone())?;
        }

        let n = r.seq_len(24)?;
        engine.invocations = Vec::with_capacity(n);
        for _ in 0..n {
            engine.invocations.push(InvocationStats {
                index: r.usize()?,
                sm_cycles: r.u64()?,
                wall_fs: r.u64()?,
            });
        }

        let at = r.offset();
        let recorded = r.bool()?;
        if recorded != engine.recorder.is_some() {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: "recorder presence disagrees with options",
            });
        }
        if let Some(recorder) = &mut engine.recorder {
            let n = r.seq_len(32)?;
            recorder.records = Vec::with_capacity(n);
            for _ in 0..n {
                recorder.records.push(get_epoch_record(&mut r)?);
            }
        }
        r.finish()?;
        if !engine.cursors_consistent() {
            return Err(SnapshotError::Corrupt {
                offset: cursors_at,
                what: "engine cursors disagree with the clocks",
            });
        }
        Ok(engine)
    }

    /// Whether the engine's cursors agree with its clocks the way every
    /// reachable state does. Stepping subtracts the invocation and epoch
    /// starts from the cycle counters and bumps the step counters, so a
    /// restored engine that broke these would underflow or overflow.
    fn cursors_consistent(&self) -> bool {
        let sm_cycles = || self.sm_clocks.iter().map(DomainClock::cycles);
        let max_cycles = sm_cycles().max().unwrap_or(0);
        let total_cycles = sm_cycles().try_fold(0u64, u64::checked_add);
        let last_tick = self
            .sm_clocks
            .iter()
            .chain([&self.mem_clock])
            .map(DomainClock::last_tick)
            .max()
            .unwrap_or(0);
        self.now == last_tick
            && self.inv_start_cycles <= max_cycles
            && self.inv_start_fs <= self.now
            && self.last_epoch_cycle <= self.sm_clocks[0].cycles()
            && self.now.checked_add(self.epoch_span_fs) >= Some(self.next_epoch_fs)
            && total_cycles.is_some_and(|total| self.sm_steps <= total)
            && self.batched_ticks <= self.sm_steps
            && self.epoch_index <= self.sm_steps
    }

    fn begin_invocation(&mut self, governor: &mut dyn Governor) {
        let (grid_blocks, program) = {
            let invocation = &self.kernel.invocations()[self.inv_idx];
            (invocation.grid_blocks, invocation.program.clone())
        };
        self.inv_start_cycles = self
            .sm_clocks
            .iter()
            .map(DomainClock::cycles)
            .max()
            .unwrap_or(0);
        self.inv_start_fs = self.now;
        self.gwde = Gwde::new(grid_blocks);
        self.mem.flush_l2();
        for sm in &mut self.sms {
            sm.begin_invocation(&self.kernel, self.inv_idx, program.clone());
            sm.fill(&mut self.gwde);
        }
        governor.on_invocation_start(self.inv_idx, &self.kernel);
        for obs in &mut self.observers {
            obs.on_invocation_start(self.inv_idx, &self.kernel);
        }
        self.phase = Phase::Running;
    }

    fn step_running(&mut self, governor: &mut dyn Governor) -> Result<StepEvent, SimError> {
        // Advance the domain with the earliest next tick; ties go to the
        // memory system so responses are in place before SMs consume
        // them.
        // `validate()` guarantees at least one SM, hence one clock;
        // Femtos::MAX would stall the loop rather than panic if that
        // invariant ever broke. With a shared VRM every SM runs off
        // clock 0, so the scan collapses to a single read.
        let min_sm_tick = if self.config.per_sm_vrm {
            self.sm_clocks
                .iter()
                .map(DomainClock::next_tick)
                .min()
                .unwrap_or(Femtos::MAX)
        } else {
            self.sm_clocks[0].next_tick()
        };
        if self.mem_clock.next_tick() <= min_sm_tick {
            let t = self.mem_clock.tick();
            self.now = self.now.max(t);
            let level = self.mem_clock.level();
            let period = self.mem_clock.period_fs();
            self.mem.step(t, level, period);
            return Ok(StepEvent::MemCycle);
        }

        // Fused stall windows: when the engine can prove that every
        // awake warp on every SM stays stalled for a window of `w >= 2`
        // SM cycles, it applies the whole window in bulk instead of `w`
        // per-tick steps. See `try_fused_window` for the proof
        // obligations. Either way the outcome feeds the window
        // diagnostic: window size and bound on success, close reason on
        // the per-tick fallback.
        match self.try_fused_window() {
            Ok((w, bound)) => {
                self.batch_stats.record_window(w, bound);
                self.run_fused_window(w);
                return Ok(StepEvent::SmCycle);
            }
            Err(close) => self.batch_stats.record_close(close),
        }

        let t = min_sm_tick;
        self.now = self.now.max(t);
        self.sm_steps += 1;
        // Rotate the service order so no SM gets standing priority for
        // the shared interconnect queue (a fixed order starves high-id
        // SMs under back-pressure and creates artificial stragglers).
        // The start is hashed, not sequential: a sequential rotation
        // beats against the SM:memory clock ratio and still favours a
        // subset of SMs for long stretches. A single-SM machine has only
        // one possible order, so it skips the hash entirely.
        let n = self.sms.len();
        let start = if self.single_sm {
            0
        } else {
            (crate::util::mix64(self.sm_steps) as usize) % n
        };
        let track_blocks = self.observed;
        if track_blocks {
            // Overwrite the retained snapshot in place: no per-step
            // clear()/extend churn, and nothing at all in unobserved runs.
            self.block_scratch.resize(n, 0);
            for (slot, sm) in self.block_scratch.iter_mut().zip(&self.sms) {
                *slot = sm.blocks_completed();
            }
        }

        // Each due SM runs its whole cycle — inbox drain, local phase,
        // commit — in service order, so interconnect arbitration,
        // back-pressure and GWDE dispatch resolve in that order.
        if self.config.per_sm_vrm {
            for i in (start..n).chain(0..start) {
                let clock = &mut self.sm_clocks[i];
                if clock.next_tick() == t {
                    clock.tick();
                    let (level, period) = (clock.level(), clock.period_fs());
                    let sm = &mut self.sms[i];
                    sm.cycle(t, level, period, &mut self.mem, &mut self.gwde);
                }
            }
        } else {
            self.sm_clocks[0].tick();
            let level = self.sm_clocks[0].level();
            let period = self.sm_clocks[0].period_fs();
            let (head, tail) = self.sms.split_at_mut(start);
            for sm in tail.iter_mut().chain(head) {
                sm.cycle(t, level, period, &mut self.mem, &mut self.gwde);
            }
        }

        if track_blocks {
            for i in 0..n {
                let completed = self.sms[i].blocks_completed() - self.block_scratch[i];
                if completed > 0 {
                    let event = BlockEvent::Completed {
                        sm: i,
                        count: completed,
                    };
                    for obs in &mut self.observers {
                        obs.on_block_event(event);
                    }
                }
            }
        }

        // Epoch boundary: consult the governor. With a shared VRM the
        // boundary is cycle-counted; with per-SM VRMs it is the wall-time
        // equivalent.
        let epoch_due = if self.config.per_sm_vrm {
            t >= self.next_epoch_fs
        } else {
            self.sm_clocks[0].cycles() - self.last_epoch_cycle >= self.config.epoch_cycles
        };
        let mut event = StepEvent::SmCycle;
        if epoch_due {
            self.epoch_boundary(governor, t);
            event = StepEvent::EpochBoundary;
        }

        // Termination check for this invocation.
        if self.gwde.drained()
            && self.sms.iter().all(|sm| !sm.busy() && sm.quiescent())
            && self.mem.quiescent()
        {
            // Sanitizer: every MSHR, LSU queue, local-hit queue, inbox
            // and pending access must be empty once an invocation
            // completes.
            #[cfg(feature = "validate")]
            for sm in &self.sms {
                sm.validate_drained();
            }
            let end_cycles = self
                .sm_clocks
                .iter()
                .map(DomainClock::cycles)
                .max()
                .unwrap_or(0);
            let inv_stats = InvocationStats {
                index: self.inv_idx,
                sm_cycles: end_cycles - self.inv_start_cycles,
                wall_fs: self.now - self.inv_start_fs,
            };
            self.invocations.push(inv_stats);
            for obs in &mut self.observers {
                obs.on_invocation_end(&inv_stats);
            }
            self.inv_idx += 1;
            self.phase = Phase::StartInvocation;
            return Ok(StepEvent::InvocationEnd(inv_stats.index));
        }

        let max_cycles = self
            .sm_clocks
            .iter()
            .map(DomainClock::cycles)
            .max()
            .unwrap_or(0);
        if max_cycles - self.inv_start_cycles > self.options.max_cycles_per_invocation {
            // The machine is wedged (or pathologically slow); freeze the
            // engine so callers cannot step past the abort.
            self.phase = Phase::Complete;
            return Err(SimError::CycleLimit {
                kernel: self.kernel.name().to_string(),
                invocation: self.inv_idx,
                limit: self.options.max_cycles_per_invocation,
                executed: max_cycles - self.inv_start_cycles,
                active_blocks: self.sms.iter().map(Sm::active_blocks).sum(),
                paused_blocks: self.sms.iter().map(Sm::paused_blocks).sum(),
                resident_warps: self.sms.iter().map(Sm::resident_warps).sum(),
            });
        }
        Ok(event)
    }

    /// Decides whether the next SM tick can open a fused window and how
    /// long it may run. Returns `(length, bound)`, or the reason no
    /// window of at least two ticks is provably stall-only (feeding the
    /// close-reason breakdown in [`BatchWindowStats`]).
    ///
    /// The proof obligations, checked in cheapest-first order:
    ///
    /// - the machine can open windows at all (`windows_enabled`): a
    ///   shared VRM, `max_batch_ticks >= 2`, [`SimOptions::fast_forward`]
    ///   on and no CCWS, whose issue-mask refresh runs on a cycle cadence
    ///   inside [`Sm::cycle_local`] that a fused window would skip;
    /// - no VF transition pending on either domain (periods are frozen,
    ///   so every in-window tick time is known up front);
    /// - the window ends strictly before the next epoch boundary and
    ///   before the cycle-limit check could fire;
    /// - every SM's pipeline is empty ([`Sm::batch_ready`], O(1) per SM):
    ///   no queued LSU access, staged access, inbox token or unretired
    ///   block;
    /// - an active memory system caps the window at
    ///   [`MemSystem::next_event_time`]: every in-window SM tick falls
    ///   strictly before the earliest instant a response could be ready,
    ///   so skipping the per-tick `drain_ready` is a no-op;
    /// - every awake warp on every SM stays unable to issue for the whole
    ///   window, and no local L1 hit matures inside it
    ///   ([`Sm::fused_horizon`]).
    ///
    /// Nothing issues in such a window, so nothing reaches the memory
    /// system, retires a block or touches another SM.
    fn try_fused_window(&self) -> Result<(u64, WindowBound), BatchClose> {
        if !windows_enabled(&self.config, &self.options) {
            return Err(BatchClose::Disabled);
        }
        if self.sm_clocks[0].has_pending_transition() || self.mem_clock.has_pending_transition() {
            return Err(BatchClose::VfTransition);
        }
        let cycles = self.sm_clocks[0].cycles();
        // Stay strictly inside the epoch: the boundary tick itself must
        // run per-tick so the governor is consulted on schedule.
        let epoch_cap =
            (self.config.epoch_cycles - 1).saturating_sub(cycles - self.last_epoch_cycle);
        // Never run past the point where the cycle-limit check would
        // fire; the per-tick path reports the abort on the exact tick a
        // serial run would.
        let limit_cap = self
            .options
            .max_cycles_per_invocation
            .saturating_sub(cycles - self.inv_start_cycles);
        let mut w = self.options.max_batch_ticks;
        let mut bound = WindowBound::Knob;
        if epoch_cap < w {
            w = epoch_cap;
            bound = WindowBound::EpochCap;
        }
        if limit_cap < w {
            w = limit_cap;
            bound = WindowBound::LimitCap;
        }
        if w < 2 {
            return Err(BatchClose::EpochOrCycleCap);
        }
        // Admission before the memory horizon and the warp scans: one
        // busy SM anywhere vetoes the window, and the check is a handful
        // of emptiness tests, while the memory horizon peeks every
        // response heap and a stall horizon walks resident warps.
        if !self.sms.iter().all(Sm::batch_ready) {
            return Err(BatchClose::SmActive);
        }
        let first = self.sm_clocks[0].next_tick();
        let period = self.sm_clocks[0].period_fs();
        if !self.mem.quiescent() {
            let t_event = self
                .mem
                .next_event_time(self.mem_clock.next_tick(), self.mem_clock.period_fs());
            let cap = crate::clock::ticks_strictly_before(first, period, t_event);
            if cap < 2 {
                return Err(BatchClose::MemHorizon);
            }
            if cap < w {
                w = cap;
                bound = WindowBound::MemHorizon;
            }
        }
        let mut win = w;
        for sm in &self.sms {
            win = win.min(sm.fused_horizon(first, period));
            if win < 2 {
                return Err(BatchClose::StallHorizon);
            }
        }
        if win < w {
            bound = WindowBound::Horizon;
        }
        Ok((win, bound))
    }

    /// Executes a fused window of `w` SM ticks without touching the
    /// per-cycle pipeline: `try_fused_window` has proven every awake
    /// warp stays stalled for the whole window, so each SM applies the
    /// window's accounting in one bulk update
    /// ([`Sm::fast_forward_window`]). The SMs and the memory system
    /// provably cannot interact in-window, so applying all SM cycles
    /// before the memory ticks is state-equivalent to the interleaved
    /// per-tick order.
    ///
    /// The clocks then advance: the SM domain by `w` cycles in O(1), and
    /// the memory domain up to the next SM tick, in O(1) too when its
    /// queues are empty ([`MemSystem::fast_forward`]), otherwise by
    /// replaying [`MemSystem::step`] at each due tick so in-flight
    /// requests keep their exact queue dynamics. The cumulative effect
    /// (every memory tick at or before the SM tick that follows the
    /// window, ties to the memory domain) matches the per-tick event
    /// order; `now` ratchets to the same maximum either way.
    fn run_fused_window(&mut self, w: u64) {
        let level = self.sm_clocks[0].level();
        for sm in &mut self.sms {
            sm.fast_forward_window(w, level);
        }
        self.batched_ticks += w;
        self.sm_steps += w;
        let last = self.sm_clocks[0].advance_n(w);
        self.now = self.now.max(last);
        let target = self.sm_clocks[0].next_tick();
        if self.mem.queues_empty() {
            let m = self.mem_clock.ticks_due_by(target);
            if m > 0 {
                let mlevel = self.mem_clock.level();
                let mlast = self.mem_clock.advance_n(m);
                self.now = self.now.max(mlast);
                self.mem.fast_forward(m, mlevel);
            }
        } else {
            while self.mem_clock.next_tick() <= target {
                let mt = self.mem_clock.tick();
                self.now = self.now.max(mt);
                let ml = self.mem_clock.level();
                let mp = self.mem_clock.period_fs();
                self.mem.step(mt, ml, mp);
            }
        }
    }

    fn epoch_boundary(&mut self, governor: &mut dyn Governor, t: Femtos) {
        self.last_epoch_cycle = self.sm_clocks[0].cycles();
        self.next_epoch_fs = t + self.epoch_span_fs;
        self.epoch_index += 1;
        let per_sm_vrm = self.config.per_sm_vrm;
        let mut reports: Vec<SmEpochReport> = Vec::with_capacity(self.sms.len());
        for i in 0..self.sms.len() {
            let clock = if per_sm_vrm {
                &self.sm_clocks[i]
            } else {
                &self.sm_clocks[0]
            };
            let sm_level = clock.level();
            let sm = &mut self.sms[i];
            reports.push(SmEpochReport {
                sm: sm.id(),
                sm_level,
                counters: sm.take_epoch(),
                active_blocks: sm.active_blocks(),
                paused_blocks: sm.paused_blocks(),
                target_blocks: sm.target_blocks(),
            });
        }
        let (w_cta, resident_limit) = {
            let sm = &self.sms[0];
            (sm.w_cta(), sm.resident_limit())
        };
        let ctx = EpochContext {
            w_cta,
            resident_limit,
            sm_level: self.sm_clocks[0].level(),
            mem_level: self.mem_clock.level(),
            epoch_index: self.epoch_index,
            invocation: self.inv_idx,
            now_fs: t,
        };
        let decision = governor.epoch(&ctx, &reports);
        if self.recorder.is_some() || self.observed {
            let record = make_record(&ctx, &reports, self.inv_idx, self.epoch_index, t);
            if let Some(recorder) = &mut self.recorder {
                recorder.on_epoch(&ctx, &reports, &record);
            }
            for obs in &mut self.observers {
                obs.on_epoch(&ctx, &reports, &record);
            }
        }
        if self.observed {
            let sample = self.machine_sample(t);
            for obs in &mut self.observers {
                obs.on_machine_sample(&sample);
            }
        }
        self.apply_decision(&decision, t);
    }

    /// Assembles the [`MachineSample`] for an epoch boundary at time `t`.
    /// Read-only over the machine, so sampling cannot perturb the run.
    fn machine_sample(&self, t: Femtos) -> MachineSample {
        let nc = self.sm_clocks.len() as u64;
        let mut sm_cycles_at = [0u64; 3];
        let mut sm_time_at = [0u64; 3];
        for c in &self.sm_clocks {
            for i in 0..3 {
                sm_cycles_at[i] += c.cycles_at()[i];
                sm_time_at[i] += c.time_at()[i];
            }
        }
        for i in 0..3 {
            sm_cycles_at[i] /= nc;
            sm_time_at[i] /= nc;
        }
        let mut sm_events = [SmLevelEvents::default(); 3];
        for sm in &self.sms {
            for (agg, ev) in sm_events.iter_mut().zip(sm.events().iter()) {
                agg.issued += ev.issued;
                agg.alu_ops += ev.alu_ops;
                agg.mem_instrs += ev.mem_instrs;
                agg.l1_accesses += ev.l1_accesses;
                agg.l1_hits += ev.l1_hits;
                agg.busy_cycles += ev.busy_cycles;
            }
        }
        let per_sm_vrm = self.config.per_sm_vrm;
        let sms = self
            .sms
            .iter()
            .map(|sm| {
                let clock = if per_sm_vrm {
                    &self.sm_clocks[sm.id()]
                } else {
                    &self.sm_clocks[0]
                };
                let ev = sm.events();
                SmSample {
                    sm: sm.id(),
                    level: clock.level(),
                    issued: ev.iter().map(|e| e.issued).sum(),
                    l1_accesses: ev.iter().map(|e| e.l1_accesses).sum(),
                    l1_hits: ev.iter().map(|e| e.l1_hits).sum(),
                    lsu_occupancy: sm.lsu_occupancy(),
                    mshr_occupancy: sm.mshr_occupancy(),
                    active_blocks: sm.active_blocks(),
                    paused_blocks: sm.paused_blocks(),
                    target_blocks: sm.target_blocks(),
                }
            })
            .collect();
        MachineSample {
            epoch_index: self.epoch_index,
            invocation: self.inv_idx,
            now_fs: t,
            num_sms: self.config.num_sms,
            sm_cycles_at,
            sm_time_at,
            mem_cycles_at: self.mem_clock.cycles_at(),
            mem_time_at: self.mem_clock.time_at(),
            sm_events,
            mem_events: *self.mem.stats(),
            mem_level: self.mem_clock.level(),
            icnt_occupancy: self.mem.icnt_occupancy(),
            sms,
        }
    }

    fn apply_decision(&mut self, decision: &EpochDecision, now: Femtos) {
        let n = self.sms.len();
        for (i, target) in decision.target_blocks.iter().take(n).enumerate() {
            let Some(t) = target else {
                continue;
            };
            let sm = &mut self.sms[i];
            let before = sm.target_blocks();
            sm.set_target_blocks(*t);
            sm.fill(&mut self.gwde);
            let after = sm.target_blocks();
            let id = sm.id();
            if after != before {
                let event = BlockEvent::TargetChanged {
                    sm: id,
                    target: after,
                };
                for obs in &mut self.observers {
                    obs.on_block_event(event);
                }
            }
        }
        let apply_at = now + self.config.vrm_delay_cycles * self.nominal_sm_period;
        match (&decision.per_sm_sm_vf, self.config.per_sm_vrm) {
            (Some(requests), true) => {
                for (i, (clock, request)) in
                    self.sm_clocks.iter_mut().zip(requests.iter()).enumerate()
                {
                    apply_request(
                        clock,
                        *request,
                        apply_at,
                        VfDomain::Sm(i),
                        &mut self.observers,
                    );
                }
            }
            _ => {
                for (i, clock) in self.sm_clocks.iter_mut().enumerate() {
                    apply_request(
                        clock,
                        decision.sm_vf,
                        apply_at,
                        VfDomain::Sm(i),
                        &mut self.observers,
                    );
                }
            }
        }
        apply_request(
            &mut self.mem_clock,
            decision.mem_vf,
            apply_at,
            VfDomain::Memory,
            &mut self.observers,
        );
    }
}

/// Whether the machine can ever open a fused window: per-SM VRMs drift
/// the SM clocks apart, `max_batch_ticks < 2` selects the per-tick
/// reference, `fast_forward` off turns windows off, and CCWS refreshes
/// its issue mask inside the per-cycle pipeline.
fn windows_enabled(config: &GpuConfig, options: &SimOptions) -> bool {
    !config.per_sm_vrm
        && options.max_batch_ticks >= 2
        && options.fast_forward
        && config.ccws.is_none()
}

/// Translates a governor request into a pending clock transition and
/// notifies observers when the level actually changes. `Maintain` leaves
/// the clock — including any pending transition — untouched.
fn apply_request(
    clock: &mut DomainClock,
    request: VfRequest,
    apply_at: Femtos,
    domain: VfDomain,
    observers: &mut [&mut dyn Observer],
) {
    let from = clock.level();
    let to = match request {
        VfRequest::Increase => from.step_up(),
        VfRequest::Decrease => from.step_down(),
        VfRequest::Maintain => return,
    };
    clock.request_level(to, apply_at);
    if to != from {
        for obs in observers.iter_mut() {
            obs.on_vf_transition(domain, from, to, apply_at);
        }
    }
}

fn make_record(
    ctx: &EpochContext,
    reports: &[SmEpochReport],
    invocation: usize,
    epoch_index: u64,
    end_fs: Femtos,
) -> EpochRecord {
    let mut counters = WarpStateCounters::default();
    let mut active = 0usize;
    let mut target = 0usize;
    for r in reports {
        counters.merge(&r.counters);
        active += r.active_blocks;
        target += r.target_blocks;
    }
    let n = reports.len().max(1) as f64;
    EpochRecord {
        epoch_index,
        invocation,
        end_fs,
        sm_level: ctx.sm_level,
        mem_level: ctx.mem_level,
        counters,
        mean_active_blocks: active as f64 / n,
        mean_target_blocks: target as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{FixedBlocksGovernor, StaticGovernor};
    use crate::gpu::simulate_with;
    use crate::kernel::{Invocation, KernelCategory};
    use crate::program::{Instr, Program, Segment};
    use std::sync::Arc;

    fn small_config() -> GpuConfig {
        let mut c = GpuConfig::gtx480();
        c.num_sms = 2;
        c
    }

    fn alu_kernel(blocks: u64, iters: u32) -> KernelSpec {
        KernelSpec::new(
            "engine-alu",
            KernelCategory::Compute,
            4,
            8,
            vec![Invocation {
                grid_blocks: blocks,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::alu(), Instr::alu_dep()],
                    iters,
                )])),
            }],
        )
    }

    #[test]
    fn step_driven_run_matches_oneshot() {
        let config = small_config();
        let kernel = alu_kernel(64, 800);
        let opts = SimOptions::default();
        let oneshot = simulate_with(&config, &kernel, &mut StaticGovernor, opts).unwrap();

        let mut engine = Engine::new(&config, &kernel, opts).unwrap();
        let mut steps = 0u64;
        while engine.step(&mut StaticGovernor).unwrap() != StepEvent::Complete {
            steps += 1;
        }
        let stepped = engine.stats();
        assert!(steps > 0);
        assert_eq!(stepped.wall_time_fs, oneshot.wall_time_fs);
        assert_eq!(stepped.sm_cycles_at, oneshot.sm_cycles_at);
        assert_eq!(stepped.instructions(), oneshot.instructions());
        assert_eq!(stepped.epochs.len(), oneshot.epochs.len());
        assert_eq!(stepped.warp_states, oneshot.warp_states);
    }

    #[test]
    fn run_epoch_stops_at_each_boundary() {
        let config = small_config();
        let kernel = alu_kernel(64, 2000);
        let mut engine = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
        let mut boundaries = 0u64;
        loop {
            match engine.run_epoch(&mut StaticGovernor).unwrap() {
                StepEvent::EpochBoundary => {
                    boundaries += 1;
                    assert_eq!(engine.epoch_index(), boundaries);
                }
                StepEvent::InvocationEnd(_) => {}
                StepEvent::Complete => break,
                other => panic!("run_epoch returned {other:?}"),
            }
        }
        assert!(boundaries >= 2, "kernel must span several epochs");
        assert_eq!(engine.stats().epochs.len() as u64, boundaries);
    }

    #[test]
    fn run_invocation_retires_one_invocation_per_call() {
        let prog = Arc::new(Program::new(vec![Segment::new(vec![Instr::alu()], 50)]));
        let kernel = KernelSpec::new(
            "engine-multi",
            KernelCategory::Compute,
            2,
            8,
            vec![
                Invocation {
                    grid_blocks: 4,
                    program: prog.clone(),
                },
                Invocation {
                    grid_blocks: 8,
                    program: prog,
                },
            ],
        );
        let mut engine = Engine::new(&small_config(), &kernel, SimOptions::default()).unwrap();
        assert_eq!(
            engine.run_invocation(&mut StaticGovernor).unwrap(),
            StepEvent::InvocationEnd(0)
        );
        assert_eq!(engine.invocation(), 1);
        assert_eq!(
            engine.run_invocation(&mut StaticGovernor).unwrap(),
            StepEvent::InvocationEnd(1)
        );
        assert_eq!(
            engine.run_invocation(&mut StaticGovernor).unwrap(),
            StepEvent::Complete
        );
        assert!(engine.is_complete());
        assert_eq!(engine.stats().invocations.len(), 2);
    }

    #[test]
    fn attached_recorder_matches_internal_timeline() {
        let config = small_config();
        let kernel = alu_kernel(64, 2000);
        let mut external = Recorder::default();
        let mut engine = Engine::new(&config, &kernel, SimOptions::default())
            .unwrap()
            .with_observer(&mut external);
        let stats = engine.run(&mut StaticGovernor).unwrap();
        assert!(stats.epochs.len() >= 2);
        assert_eq!(external.records(), &stats.epochs[..]);
    }

    /// Counts every hook, to prove the wiring reaches a custom observer.
    #[derive(Default)]
    struct Counting {
        inv_start: usize,
        inv_end: usize,
        epochs: usize,
        vf: usize,
        blocks: usize,
    }

    impl Observer for Counting {
        fn on_invocation_start(&mut self, _i: usize, _k: &KernelSpec) {
            self.inv_start += 1;
        }
        fn on_invocation_end(&mut self, _s: &InvocationStats) {
            self.inv_end += 1;
        }
        fn on_epoch(
            &mut self,
            _ctx: &EpochContext,
            _reports: &[SmEpochReport],
            _record: &EpochRecord,
        ) {
            self.epochs += 1;
        }
        fn on_vf_transition(
            &mut self,
            _domain: VfDomain,
            _from: VfLevel,
            _to: VfLevel,
            _at: Femtos,
        ) {
            self.vf += 1;
        }
        fn on_block_event(&mut self, _event: BlockEvent) {
            self.blocks += 1;
        }
    }

    /// Boosts the SM domain once, then throttles concurrency.
    #[derive(Default)]
    struct BoostAndThrottle {
        done: bool,
    }

    impl Governor for BoostAndThrottle {
        fn name(&self) -> &str {
            "boost-and-throttle"
        }
        fn epoch(&mut self, _ctx: &EpochContext, reports: &[SmEpochReport]) -> EpochDecision {
            let mut d = EpochDecision::maintain(reports.len());
            if !self.done {
                d.sm_vf = VfRequest::Increase;
                d.target_blocks = reports.iter().map(|_| Some(2)).collect();
                self.done = true;
            }
            d
        }
    }

    #[test]
    fn observer_sees_vf_and_block_events() {
        let config = small_config();
        let kernel = alu_kernel(64, 2000);
        let mut counting = Counting::default();
        let mut engine = Engine::new(&config, &kernel, SimOptions::default())
            .unwrap()
            .with_observer(&mut counting);
        let stats = engine.run(&mut BoostAndThrottle::default()).unwrap();
        assert_eq!(counting.inv_start, 1);
        assert_eq!(counting.inv_end, 1);
        assert_eq!(counting.epochs, stats.epochs.len());
        assert!(counting.vf >= 1, "the boost must be observed");
        assert!(
            counting.blocks >= 1,
            "block completions / target changes must be observed"
        );
    }

    #[test]
    fn observers_do_not_perturb_the_run() {
        let config = small_config();
        let kernel = alu_kernel(48, 1500);
        let bare = simulate_with(
            &config,
            &kernel,
            &mut FixedBlocksGovernor::new(2),
            SimOptions::default(),
        )
        .unwrap();
        let mut counting = Counting::default();
        let mut engine = Engine::new(&config, &kernel, SimOptions::default())
            .unwrap()
            .with_observer(&mut counting);
        let observed = engine.run(&mut FixedBlocksGovernor::new(2)).unwrap();
        assert_eq!(bare.wall_time_fs, observed.wall_time_fs);
        assert_eq!(bare.sm_cycles_at, observed.sm_cycles_at);
        assert_eq!(bare.warp_states, observed.warp_states);
    }

    #[test]
    fn batched_stepping_matches_per_tick() {
        let config = small_config();
        let kernel = stall_kernel(16, 30);
        let per_tick = SimOptions {
            max_batch_ticks: 1,
            ..SimOptions::default()
        };
        let reference = simulate_with(&config, &kernel, &mut StaticGovernor, per_tick).unwrap();
        assert_eq!(
            reference.batched_ticks, 0,
            "per-tick stepping opens no window"
        );
        let batched =
            simulate_with(&config, &kernel, &mut StaticGovernor, SimOptions::default()).unwrap();
        assert!(
            batched.batched_ticks > 0,
            "the stall kernel must open windows"
        );
        assert_eq!(reference, batched);
    }

    #[test]
    fn cycle_limit_freezes_the_engine() {
        let opts = SimOptions {
            max_cycles_per_invocation: 50,
            record_epochs: false,
            ..SimOptions::default()
        };
        let mut engine = Engine::new(&small_config(), &alu_kernel(64, 100), opts).unwrap();
        let err = engine.run(&mut StaticGovernor).unwrap_err();
        match err {
            SimError::CycleLimit {
                executed,
                active_blocks,
                resident_warps,
                ..
            } => {
                assert!(executed > 50);
                assert!(active_blocks > 0, "blocks were resident at abort");
                assert!(resident_warps > 0, "warps were resident at abort");
            }
            other => panic!("expected CycleLimit, got {other:?}"),
        }
        assert!(engine.is_complete());
        assert_eq!(
            engine.step(&mut StaticGovernor).unwrap(),
            StepEvent::Complete
        );
    }

    /// Warps issue one streaming load, then a long dependent ALU chain:
    /// most cycles have every warp asleep on the load or the scoreboard
    /// while the memory system still holds requests in flight — the
    /// shape fused windows exist for.
    fn stall_kernel(blocks: u64, iters: u32) -> KernelSpec {
        let mut body = vec![Instr::load_streaming()];
        body.extend(std::iter::repeat_with(Instr::alu_dep).take(24));
        KernelSpec::new(
            "engine-stall",
            KernelCategory::Memory,
            4,
            8,
            vec![Invocation {
                grid_blocks: blocks,
                program: Arc::new(Program::new(vec![Segment::new(body, iters)])),
            }],
        )
    }

    #[test]
    fn fast_forward_is_bit_identical_and_batches_memory_stalls() {
        let config = small_config();
        let kernel = stall_kernel(16, 30);
        let on = SimOptions::default();
        assert!(on.fast_forward, "fast-forward defaults on");
        let off = SimOptions {
            fast_forward: false,
            ..on
        };
        let mut e_on = Engine::new(&config, &kernel, on).unwrap();
        let s_on = e_on.run(&mut StaticGovernor).unwrap();
        let mut e_off = Engine::new(&config, &kernel, off).unwrap();
        let s_off = e_off.run(&mut StaticGovernor).unwrap();
        assert_eq!(s_on, s_off, "fast-forward must not change results");
        assert!(e_on.batched_ticks() > 0, "stall cycles must open windows");
        assert_eq!(
            e_on.batch_window_stats().fused_windows,
            e_on.batch_window_stats().windows,
            "every window is fused"
        );
        assert_eq!(e_off.batched_ticks(), 0, "fast-forward off steps per tick");
    }

    #[test]
    fn snapshot_restores_across_the_fast_forward_knob() {
        let config = small_config();
        let kernel = stall_kernel(16, 30);
        let on = SimOptions::default();
        let off = SimOptions {
            fast_forward: false,
            ..on
        };
        let mut engine = Engine::new(&config, &kernel, on).unwrap();
        let mut steps = 0u64;
        while engine.batch_window_stats().fused_windows == 0 {
            assert_ne!(
                engine.step(&mut StaticGovernor).unwrap(),
                StepEvent::Complete,
                "run ended before any fused window"
            );
            steps += 1;
            assert!(steps < 1_000_000, "no fused window ever opened");
        }
        let bytes = engine.snapshot();
        let finished = engine.run(&mut StaticGovernor).unwrap();
        let mut resumed = Engine::restore(&config, &kernel, on, &bytes).unwrap();
        assert_eq!(resumed.run(&mut StaticGovernor).unwrap(), finished);
        // The knob is wall-clock-only: the same snapshot restores onto a
        // per-tick engine and still reproduces the run.
        let mut per_tick = Engine::restore(&config, &kernel, off, &bytes).unwrap();
        assert_eq!(per_tick.run(&mut StaticGovernor).unwrap(), finished);
    }

    /// Byte offsets in a snapshot's engine prologue: the 16-byte header,
    /// the phase tag and the invocation cursor, then the `u64` cursors
    /// (`last_epoch_cycle` is the fourth, `now` the eighth), then the SM
    /// clock count and clock 0's level byte before its next tick.
    const LAST_EPOCH_CYCLE_AT: usize = 16 + 1 + 8 + 3 * 8;
    const NOW_AT: usize = 16 + 1 + 8 + 7 * 8;
    const CLOCK0_NEXT_TICK_AT: usize = NOW_AT + 8 + 8 + 1;

    #[test]
    fn restore_rejects_clocks_and_cursors_that_disagree() {
        use crate::snapshot::SnapshotError;
        let config = small_config();
        let kernel = alu_kernel(64, 2000);
        let opts = SimOptions::default();
        let mut engine = Engine::new(&config, &kernel, opts).unwrap();
        engine.run_epoch(&mut StaticGovernor).unwrap();
        let bytes = engine.snapshot();
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(u64_at(LAST_EPOCH_CYCLE_AT), engine.last_epoch_cycle);
        assert_eq!(u64_at(NOW_AT), engine.now);
        assert_eq!(u64_at(CLOCK0_NEXT_TICK_AT), engine.sm_clocks[0].next_tick());
        let restore_with = |at: usize, value: u64| {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            Engine::restore(&config, &kernel, opts, &bad)
        };

        // A next tick far past the last one would let the memory domain
        // tick without bound before the SM domain ever steps again.
        assert!(matches!(
            restore_with(CLOCK0_NEXT_TICK_AT, u64::MAX),
            Err(SnapshotError::Corrupt {
                what: "clock counters disagree",
                ..
            })
        ));
        // `now` past every clock's last tick, and an epoch that started
        // after the current cycle, would underflow the engine's spans.
        for (at, value) in [
            (NOW_AT, engine.now + 1),
            (LAST_EPOCH_CYCLE_AT, engine.sm_clocks[0].cycles() + 1),
        ] {
            assert!(matches!(
                restore_with(at, value),
                Err(SnapshotError::Corrupt {
                    what: "engine cursors disagree with the clocks",
                    ..
                })
            ));
        }
        assert!(Engine::restore(&config, &kernel, opts, &bytes).is_ok());
    }

    #[test]
    fn mid_run_stats_are_partial_but_consistent() {
        let config = small_config();
        let kernel = alu_kernel(64, 2000);
        let mut engine = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
        let event = engine.run_epoch(&mut StaticGovernor).unwrap();
        assert_eq!(event, StepEvent::EpochBoundary);
        let mid = engine.stats();
        assert_eq!(mid.epochs.len(), 1);
        let full = engine.run(&mut StaticGovernor).unwrap();
        assert!(full.wall_time_fs > mid.wall_time_fs);
        assert!(full.instructions() > mid.instructions());
    }
}
