//! Running ops — one simulation or one figure call — plainly or traced,
//! and folding their outputs into digests.
//!
//! Layers are timed only from outside, by calls into public functions:
//! `Engine::new`/`step`, `PowerModel::energy`, the `Governor` and
//! `Observer` traits through the forwarding wrappers below,
//! `harness::figures::*` and `harness::parallel_map`.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use equalizer_baselines::{ccws_baseline, DynCta};
use equalizer_core::{Equalizer, Mode};
use equalizer_harness::{figures, parallel_map, Runner, System};
use equalizer_obs::MetricsObserver;
use equalizer_power::PowerModel;
use equalizer_sim::config::{Femtos, GpuConfig, VfLevel};
use equalizer_sim::counters::WarpStateCounters;
use equalizer_sim::engine::{BlockEvent, Engine, MachineSample, Observer, StepEvent, VfDomain};
use equalizer_sim::governor::{
    EpochContext, EpochDecision, Governor, SmEpochReport, StaticGovernor,
};
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::memsys::MemLevelStats;
use equalizer_sim::sm::SmLevelEvents;
use equalizer_sim::stats::{EpochRecord, InvocationStats, RunStats};
use equalizer_sim::util::mix64;

use crate::trace::{self, Span, Tracer};
use crate::workload::{Figure, Sim, Workload};

/// Step kinds tallied per [`StepEvent`], indexing [`Layers::steps`].
pub const INVOCATION_START: usize = 0;
/// See [`INVOCATION_START`].
pub const MEM_CYCLE: usize = 1;
/// See [`INVOCATION_START`].
pub const SM_CYCLE: usize = 2;
/// See [`INVOCATION_START`].
pub const EPOCH_BOUNDARY: usize = 3;
/// See [`INVOCATION_START`].
pub const INVOCATION_END: usize = 4;

/// Options of every simulation: only the thread count departs from the
/// defaults, so the benchmark keeps working when other knobs go away.
pub fn options(threads: usize) -> SimOptions {
    SimOptions {
        threads,
        ..SimOptions::default()
    }
}

/// The configuration and governor realising `system` on the GTX 480,
/// resolved as `Runner` does (its resolver is private to the harness).
fn setup(system: System) -> (GpuConfig, Box<dyn Governor>) {
    let base = GpuConfig::gtx480();
    let sms = base.num_sms;
    match system {
        System::Static(point) => (point.apply(base), Box::new(StaticGovernor)),
        System::Equalizer(mode) => (base, Box::new(Equalizer::new(mode, sms))),
        System::EqualizerPerSmVrm(mode) => {
            let mut config = base;
            config.per_sm_vrm = true;
            (
                config,
                Box::new(Equalizer::new(mode, sms).with_per_sm_vrm(true)),
            )
        }
        System::DynCta => (base, Box::new(DynCta::new())),
        System::Ccws => {
            let (config, governor) = ccws_baseline(base);
            (config, Box::new(governor))
        }
        other => unreachable!("no workload runs {other:?}"),
    }
}

/// What a simulation produced.
struct SimOutcome {
    stats: RunStats,
    energy_j: f64,
}

fn observer_error(observer: Option<&MetricsObserver>) -> Result<(), String> {
    match observer.and_then(MetricsObserver::error) {
        Some(e) => Err(format!("metrics observer: {e}")),
        None => Ok(()),
    }
}

/// A simulation as a user runs it: `Engine::run`, then the energy.
fn sim_plain(
    sim: &Sim,
    threads: usize,
    observe: bool,
    model: &PowerModel,
) -> Result<SimOutcome, String> {
    let (config, mut governor) = setup(sim.system);
    let mut metrics = observe.then(|| MetricsObserver::new(*model));
    let mut engine =
        Engine::new(&config, &sim.kernel, options(threads)).map_err(|e| e.to_string())?;
    if let Some(m) = metrics.as_mut() {
        engine.attach(m);
    }
    let stats = engine.run(governor.as_mut()).map_err(|e| e.to_string())?;
    drop(engine);
    observer_error(metrics.as_ref())?;
    let energy_j = model.energy(&stats).total_j();
    Ok(SimOutcome { stats, energy_j })
}

/// Per-op recording state shared by the step loop and the wrappers.
struct Probe {
    tracer: RefCell<Tracer>,
    /// ns spent inside governor and observer callbacks so far, so a
    /// step's own time can exclude them.
    callback_ns: Cell<u64>,
    observer_calls: Cell<u64>,
}

impl Probe {
    fn begin(&self, name: &'static str) -> usize {
        self.tracer.borrow_mut().begin(name, String::new())
    }

    fn end(&self, id: usize) -> u64 {
        self.tracer.borrow_mut().end(id)
    }

    fn callback<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        let ns = self.end(id);
        self.callback_ns.set(self.callback_ns.get() + ns);
        r
    }
}

/// Times every `Governor::epoch` call as a `governor.epoch` span.
struct TimedGovernor<'a> {
    inner: &'a mut dyn Governor,
    probe: &'a Probe,
}

impl Governor for TimedGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_invocation_start(&mut self, invocation: usize, kernel: &KernelSpec) {
        self.inner.on_invocation_start(invocation, kernel);
    }

    fn epoch(&mut self, ctx: &EpochContext, reports: &[SmEpochReport]) -> EpochDecision {
        let inner = &mut *self.inner;
        self.probe
            .callback("governor.epoch", || inner.epoch(ctx, reports))
    }
}

/// Times and counts every `Observer` callback as an `observer` span.
struct TimedObserver<'a> {
    inner: &'a mut MetricsObserver,
    probe: &'a Probe,
}

impl TimedObserver<'_> {
    fn call(&mut self, f: impl FnOnce(&mut MetricsObserver)) {
        let calls = &self.probe.observer_calls;
        calls.set(calls.get() + 1);
        let inner = &mut *self.inner;
        self.probe.callback("observer", || f(inner));
    }
}

impl Observer for TimedObserver<'_> {
    fn on_invocation_start(&mut self, invocation: usize, kernel: &KernelSpec) {
        self.call(|o| o.on_invocation_start(invocation, kernel));
    }

    fn on_invocation_end(&mut self, stats: &InvocationStats) {
        self.call(|o| o.on_invocation_end(stats));
    }

    fn on_epoch(&mut self, ctx: &EpochContext, reports: &[SmEpochReport], record: &EpochRecord) {
        self.call(|o| o.on_epoch(ctx, reports, record));
    }

    fn on_machine_sample(&mut self, sample: &MachineSample) {
        self.call(|o| o.on_machine_sample(sample));
    }

    fn on_vf_transition(&mut self, domain: VfDomain, from: VfLevel, to: VfLevel, at: Femtos) {
        self.call(|o| o.on_vf_transition(domain, from, to, at));
    }

    fn on_block_event(&mut self, event: BlockEvent) {
        self.call(|o| o.on_block_event(event));
    }
}

/// Per-layer tallies summed over traced simulations.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Engine steps by kind: count and own ns (callbacks excluded).
    pub steps: [(u64, u64); 5],
    /// Simulated SM cycles × SMs.
    pub sm_ticks: u64,
    /// SM ticks run inside batched or fused windows.
    pub batched_ticks: u64,
    /// Warp instructions issued.
    pub warp_instrs: u64,
    /// L1 probes and hits.
    pub l1: (u64, u64),
    /// L2 probes and hits.
    pub l2: (u64, u64),
    /// DRAM line transfers.
    pub dram: u64,
    /// Observer callbacks made.
    pub observer_calls: u64,
}

impl Layers {
    fn merge(&mut self, o: &Layers) {
        for (a, b) in self.steps.iter_mut().zip(&o.steps) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.sm_ticks += o.sm_ticks;
        self.batched_ticks += o.batched_ticks;
        self.warp_instrs += o.warp_instrs;
        self.l1.0 += o.l1.0;
        self.l1.1 += o.l1.1;
        self.l2.0 += o.l2.0;
        self.l2.1 += o.l2.1;
        self.dram += o.dram;
        self.observer_calls += o.observer_calls;
    }

    fn add_stats(&mut self, s: &RunStats) {
        self.sm_ticks += s.sm_cycles_at.iter().sum::<u64>() * s.num_sms as u64;
        self.batched_ticks += s.batched_ticks;
        self.warp_instrs += s.instructions();
        for e in &s.sm_events {
            self.l1.0 += e.l1_accesses;
            self.l1.1 += e.l1_hits;
        }
        for e in &s.mem_events {
            self.l2.0 += e.l2_accesses;
            self.l2.1 += e.l2_hits;
            self.dram += e.dram_accesses;
        }
    }
}

/// A simulation stepped one event at a time, with `engine.new`, `epoch`
/// (one per epoch interval), `governor.epoch`, `observer` and
/// `power.energy` spans and per-kind step tallies.
fn sim_traced(
    sim: &Sim,
    threads: usize,
    observe: bool,
    model: &PowerModel,
    probe: &Probe,
    layers: &mut Layers,
) -> Result<SimOutcome, String> {
    let (config, mut inner) = setup(sim.system);
    let mut governor = TimedGovernor {
        inner: inner.as_mut(),
        probe,
    };
    let mut metrics = observe.then(|| MetricsObserver::new(*model));
    let mut observer = metrics.as_mut().map(|inner| TimedObserver { inner, probe });

    let id = probe.begin("engine.new");
    let engine = Engine::new(&config, &sim.kernel, options(threads));
    probe.end(id);
    let mut engine = engine.map_err(|e| e.to_string())?;
    if let Some(o) = observer.as_mut() {
        engine.attach(o);
    }

    let mut epoch = probe.begin("epoch");
    loop {
        let callbacks = probe.callback_ns.get();
        let t0 = Instant::now();
        let event = engine.step(&mut governor).map_err(|e| e.to_string())?;
        let ns = t0.elapsed().as_nanos() as u64;
        let kind = match event {
            StepEvent::InvocationStart(_) => INVOCATION_START,
            StepEvent::MemCycle => MEM_CYCLE,
            StepEvent::SmCycle => SM_CYCLE,
            StepEvent::EpochBoundary => EPOCH_BOUNDARY,
            StepEvent::InvocationEnd(_) => INVOCATION_END,
            StepEvent::Complete => break,
        };
        let tally = &mut layers.steps[kind];
        tally.0 += 1;
        tally.1 += ns.saturating_sub(probe.callback_ns.get() - callbacks);
        if kind == EPOCH_BOUNDARY {
            probe.end(epoch);
            epoch = probe.begin("epoch");
        }
    }
    probe.end(epoch);
    let stats = engine.stats();
    drop(engine);
    observer_error(metrics.as_ref())?;

    let id = probe.begin("power.energy");
    let energy_j = model.energy(&stats).total_j();
    probe.end(id);
    layers.add_stats(&stats);
    Ok(SimOutcome { stats, energy_j })
}

/// A benchmark-owned 64-bit fold: each word goes through the SplitMix64
/// finalizer.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0x0062_656E_6368_6D6B)
    }

    fn add(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn f64(&mut self, x: f64) {
        self.add(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.add(s.len() as u64);
        s.bytes().for_each(|b| self.add(u64::from(b)));
    }

    fn counters(&mut self, c: &WarpStateCounters) {
        let WarpStateCounters {
            active,
            waiting,
            issued,
            excess_alu,
            excess_mem,
            others,
            samples,
            idle_cycles,
            cycles,
        } = c;
        for x in [
            active,
            waiting,
            issued,
            excess_alu,
            excess_mem,
            others,
            samples,
            idle_cycles,
            cycles,
        ] {
            self.add(*x);
        }
    }
}

/// Digest of a simulation's output: every `RunStats` field that its
/// `PartialEq` compares (so not `batched_ticks`, which legitimately
/// varies with how the engine batches), plus the energy total. The
/// destructuring is exhaustive so a new field fails to compile here
/// until it is decided on.
pub fn sim_digest(stats: &RunStats, energy_j: f64) -> u64 {
    let RunStats {
        wall_time_fs,
        num_sms,
        sm_cycles_at,
        sm_time_at,
        mem_cycles_at,
        mem_time_at,
        sm_events,
        mem_events,
        warp_states,
        batched_ticks: _,
        epochs_executed,
        epochs,
        invocations,
    } = stats;
    let mut f = Fold::new();
    f.add(*wall_time_fs);
    f.add(*num_sms as u64);
    for a in [sm_cycles_at, sm_time_at, mem_cycles_at, mem_time_at] {
        a.iter().for_each(|x| f.add(*x));
    }
    for e in sm_events {
        let SmLevelEvents {
            issued,
            alu_ops,
            mem_instrs,
            l1_accesses,
            l1_hits,
            busy_cycles,
        } = e;
        for x in [
            issued,
            alu_ops,
            mem_instrs,
            l1_accesses,
            l1_hits,
            busy_cycles,
        ] {
            f.add(*x);
        }
    }
    for e in mem_events {
        let MemLevelStats {
            l2_accesses,
            l2_hits,
            dram_accesses,
            dram_busy_cycles,
            dram_idle_upstream_cycles,
            icnt_occupancy_sum,
        } = e;
        for x in [
            l2_accesses,
            l2_hits,
            dram_accesses,
            dram_busy_cycles,
            dram_idle_upstream_cycles,
            icnt_occupancy_sum,
        ] {
            f.add(*x);
        }
    }
    f.counters(warp_states);
    f.add(*epochs_executed);
    f.add(epochs.len() as u64);
    for e in epochs {
        let EpochRecord {
            epoch_index,
            invocation,
            end_fs,
            sm_level,
            mem_level,
            counters,
            mean_active_blocks,
            mean_target_blocks,
        } = e;
        f.add(*epoch_index);
        f.add(*invocation as u64);
        f.add(*end_fs);
        f.add(sm_level.index() as u64);
        f.add(mem_level.index() as u64);
        f.counters(counters);
        f.f64(*mean_active_blocks);
        f.f64(*mean_target_blocks);
    }
    f.add(invocations.len() as u64);
    for i in invocations {
        let InvocationStats {
            index,
            sm_cycles,
            wall_fs,
        } = i;
        f.add(*index as u64);
        f.add(*sm_cycles);
        f.add(*wall_fs);
    }
    f.f64(energy_j);
    f.0
}

/// Calls one figure generator and folds the f64 bits of its rows.
fn figure_digest(runner: &Runner, kernels: &[KernelSpec], figure: Figure) -> Result<u64, String> {
    let mut f = Fold::new();
    match figure {
        Figure::F4 => {
            for r in figures::figure4(runner, kernels).map_err(|e| e.to_string())? {
                f.str(&r.kernel);
                for x in [r.issued, r.waiting, r.excess_mem, r.excess_alu, r.others] {
                    f.f64(x);
                }
            }
        }
        Figure::F7 | Figure::F8 => {
            let mode = if figure == Figure::F7 {
                Mode::Performance
            } else {
                Mode::Energy
            };
            for r in figures::figure7_8(runner, kernels, mode).map_err(|e| e.to_string())? {
                f.str(&r.kernel);
                for c in [r.equalizer, r.sm_static, r.mem_static] {
                    for x in [c.speedup, c.energy_ratio, c.efficiency] {
                        f.f64(x);
                    }
                }
            }
        }
        Figure::F9 => {
            for r in figures::figure9(runner, kernels).map_err(|e| e.to_string())? {
                f.str(&r.kernel);
                f.add(u64::from(r.mode));
                r.sm.iter().chain(&r.mem).for_each(|x| f.f64(*x));
            }
        }
    }
    Ok(f.0)
}

/// One executed op.
#[derive(Debug, Clone)]
pub struct OpRun {
    /// Position in the workload's op list.
    pub index: usize,
    /// `kernel/system` or the figure name.
    pub label: String,
    /// Host seconds the op took.
    pub secs: f64,
    /// The output digest, or why the op failed.
    pub digest: Result<u64, String>,
}

/// One pass over a workload's ops.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Ops in flight at once.
    pub workers: usize,
    /// Every op, in op-list order.
    pub ops: Vec<OpRun>,
    /// Spans of a traced pass.
    pub spans: Vec<Span>,
    /// Per-layer tallies of a traced pass.
    pub layers: Layers,
}

/// Runs one pass; traced when `origin` (the trace's time zero) is given.
pub fn run_pass(workload: &Workload, model: &PowerModel, origin: Option<Instant>) -> Pass {
    match workload {
        Workload::Sims {
            sims,
            workers,
            threads,
            observe,
        } => sim_pass(sims, *workers, *threads, *observe, model, origin),
        Workload::Figures(kernels) => figure_pass(kernels, model, origin),
    }
}

/// Closed loop: each of `workers` slots (threads of
/// `harness::parallel_map`) takes the next simulation when its last one
/// finishes.
fn sim_pass(
    sims: &[Sim],
    workers: usize,
    threads: usize,
    observe: bool,
    model: &PowerModel,
    origin: Option<Instant>,
) -> Pass {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let done = parallel_map((0..workers).collect(), |&worker| {
        let mut out = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(sim) = sims.get(index) else {
                break out;
            };
            out.push(run_sim(index, sim, worker, threads, observe, model, origin));
        }
    });
    let mut pass = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        workers,
        ..Pass::default()
    };
    for (op, spans, layers) in done.into_iter().flatten() {
        pass.ops.push(op);
        trace::append(&mut pass.spans, spans);
        pass.layers.merge(&layers);
    }
    pass.ops.sort_by_key(|op| op.index);
    pass
}

fn run_sim(
    index: usize,
    sim: &Sim,
    worker: usize,
    threads: usize,
    observe: bool,
    model: &PowerModel,
    origin: Option<Instant>,
) -> (OpRun, Vec<Span>, Layers) {
    let label = sim.label();
    let mut layers = Layers::default();
    let mut spans = Vec::new();
    let t0 = Instant::now();
    let outcome = match origin {
        None => sim_plain(sim, threads, observe, model),
        Some(origin) => {
            let probe = Probe {
                tracer: RefCell::new(Tracer::new(origin, worker)),
                callback_ns: Cell::new(0),
                observer_calls: Cell::new(0),
            };
            let op = probe.tracer.borrow_mut().begin("op", label.clone());
            let outcome = sim_traced(sim, threads, observe, model, &probe, &mut layers);
            probe.end(op);
            layers.observer_calls += probe.observer_calls.get();
            spans = probe.tracer.into_inner().finish();
            outcome
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let op = OpRun {
        index,
        label,
        secs,
        digest: outcome.map(|o| sim_digest(&o.stats, o.energy_j)),
    };
    (op, spans, layers)
}

fn figure_pass(kernels: &[KernelSpec], model: &PowerModel, origin: Option<Instant>) -> Pass {
    let runner = Runner::new(GpuConfig::gtx480(), *model, SimOptions::default());
    let start = Instant::now();
    let mut pass = Pass {
        workers: 1,
        ..Pass::default()
    };
    for (index, &figure) in Figure::ALL.iter().enumerate() {
        let mut tracer = origin.map(|o| Tracer::new(o, 0));
        let span = tracer
            .as_mut()
            .map(|t| t.begin("op", figure.name().to_string()));
        let t0 = Instant::now();
        let digest = figure_digest(&runner, kernels, figure);
        let secs = t0.elapsed().as_secs_f64();
        if let (Some(mut t), Some(id)) = (tracer, span) {
            t.end(id);
            trace::append(&mut pass.spans, t.finish());
        }
        pass.ops.push(OpRun {
            index,
            label: figure.name().to_string(),
            secs,
            digest,
        });
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Reruns op `index` of `workload` untraced at `threads` threads.
pub fn rerun(workload: &Workload, index: usize, threads: usize, model: &PowerModel) -> OpRun {
    let t0 = Instant::now();
    let (label, digest) = match workload {
        Workload::Sims { sims, observe, .. } => {
            let sim = &sims[index];
            let outcome = sim_plain(sim, threads, *observe, model);
            (
                sim.label(),
                outcome.map(|o| sim_digest(&o.stats, o.energy_j)),
            )
        }
        Workload::Figures(kernels) => {
            let runner = Runner::new(GpuConfig::gtx480(), *model, options(threads));
            let figure = Figure::ALL[index];
            (
                figure.name().to_string(),
                figure_digest(&runner, kernels, figure),
            )
        }
    };
    OpRun {
        index,
        label,
        secs: t0.elapsed().as_secs_f64(),
        digest,
    }
}

/// The untimed warm-up op: `mri-g-2` at the baseline operating point.
pub fn warm_up(model: &PowerModel) -> Result<(), String> {
    let kernel = equalizer_workloads::kernel_by_name("mri-g-2").expect("catalog kernel");
    let sim = Sim {
        kernel,
        system: System::Static(equalizer_baselines::StaticPoint::Baseline),
    };
    sim_plain(&sim, 1, false, model).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_batched_ticks_but_catches_output_changes() {
        let mut stats = RunStats {
            wall_time_fs: 1_000_000,
            num_sms: 15,
            sm_cycles_at: [0, 4096, 0],
            batched_ticks: 100,
            ..RunStats::default()
        };
        let base = sim_digest(&stats, 1.5);
        stats.batched_ticks = 9_999;
        assert_eq!(
            sim_digest(&stats, 1.5),
            base,
            "batched_ticks is a diagnostic"
        );
        stats.wall_time_fs += 1;
        assert_ne!(sim_digest(&stats, 1.5), base, "wall_time_fs is output");
        stats.wall_time_fs -= 1;
        assert_ne!(sim_digest(&stats, 1.5 + 1e-12), base, "energy is output");
        stats.warp_states.waiting = 1;
        assert_ne!(sim_digest(&stats, 1.5), base, "warp states are output");
    }
}
