//! [`MetricsObserver`]: turns the engine's passive callbacks into the
//! metric catalog documented in DESIGN.md ("Observability").
//!
//! The observer consumes two per-epoch callbacks: `on_epoch` (the warp-
//! state window the governor saw) and `on_machine_sample` (cumulative
//! cache/memory/power aggregates plus instantaneous queue occupancies).
//! Cumulative quantities are windowed into per-epoch rates by diffing
//! consecutive samples; the power breakdown feeds each windowed delta
//! through the configured [`PowerModel`].
//!
//! Everything is registered and recorded in a fixed order with no
//! hashing or wall-clock reads, so two identical runs produce
//! byte-identical exports.

use equalizer_power::PowerModel;
use equalizer_sim::config::{Femtos, VfLevel, FS_PER_SEC};
use equalizer_sim::engine::{MachineSample, Observer, VfDomain};
use equalizer_sim::governor::{EpochContext, SmEpochReport};
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::stats::{EpochRecord, RunStats};

use crate::registry::{MetricId, MetricsRegistry};
use crate::ObsError;

/// A VF transition observed mid-run, for the trace exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfEvent {
    /// Which clock domain transitioned.
    pub domain: VfDomain,
    /// Level before the transition.
    pub from: VfLevel,
    /// Level after the transition.
    pub to: VfLevel,
    /// When the new level takes effect (after the VRM delay).
    pub at_fs: Femtos,
}

/// One epoch rendered as a slice on an SM track, for the trace exporter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSlice {
    /// SM index (the trace thread).
    pub sm: usize,
    /// Slice start (previous epoch boundary).
    pub start_fs: Femtos,
    /// Slice end (this epoch boundary).
    pub end_fs: Femtos,
    /// Display label: epoch index plus active/target block counts.
    pub label: String,
}

/// Handles to the per-SM series, one struct per SM.
#[derive(Debug, Clone, Copy)]
struct SmIds {
    warp_active: MetricId,
    issue_rate: MetricId,
    l1_hit_rate: MetricId,
    lsu: MetricId,
    mshr: MetricId,
    blocks_active: MetricId,
    blocks_target: MetricId,
    vf_index: MetricId,
}

/// Handles to the machine-level series.
#[derive(Debug, Clone, Copy)]
struct MachineIds {
    warp_active: MetricId,
    warp_waiting: MetricId,
    warp_excess_alu: MetricId,
    warp_excess_mem: MetricId,
    issue_rate: MetricId,
    l1_hit_rate: MetricId,
    l2_hit_rate: MetricId,
    dram_bw_util: MetricId,
    icnt_occupancy: MetricId,
    lsu_mean: MetricId,
    mshr_mean: MetricId,
    blocks_active: MetricId,
    blocks_target: MetricId,
    vf_sm_index: MetricId,
    vf_mem_index: MetricId,
    instructions: MetricId,
    dram_accesses: MetricId,
    power_total: MetricId,
    power_leakage: MetricId,
    power_sm_dynamic: MetricId,
    power_sm_clock: MetricId,
    power_mem_dynamic: MetricId,
    power_mem_clock: MetricId,
    power_dram_standby: MetricId,
    issue_hist: MetricId,
    bw_hist: MetricId,
}

/// The metrics-deriving observer. Attach with
/// [`equalizer_sim::engine::Engine::attach`] /
/// [`equalizer_sim::engine::Engine::with_observer`].
#[derive(Debug)]
pub struct MetricsObserver {
    power: PowerModel,
    registry: MetricsRegistry,
    machine: Option<MachineIds>,
    sms: Vec<SmIds>,
    error: Option<ObsError>,

    prev_stats: RunStats,
    prev_sm_l1: Vec<(u64, u64)>,
    last_boundary_fs: Femtos,
    pending: Option<(EpochRecord, Vec<SmEpochReport>)>,

    vf_events: Vec<VfEvent>,
    epoch_slices: Vec<EpochSlice>,
    workloads: Vec<String>,
}

impl MetricsObserver {
    /// An observer that prices windowed power with `power`.
    pub fn new(power: PowerModel) -> Self {
        Self {
            power,
            registry: MetricsRegistry::new(),
            machine: None,
            sms: Vec::new(),
            error: None,
            prev_stats: RunStats::default(),
            prev_sm_l1: Vec::new(),
            last_boundary_fs: 0,
            pending: None,
            vf_events: Vec::new(),
            epoch_slices: Vec::new(),
            workloads: Vec::new(),
        }
    }

    /// The populated registry (series appear after the first epoch).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Every VF transition observed, in order.
    pub fn vf_events(&self) -> &[VfEvent] {
        &self.vf_events
    }

    /// Every epoch slice, in order.
    pub fn epoch_slices(&self) -> &[EpochSlice] {
        &self.epoch_slices
    }

    /// Kernel names seen via `on_invocation_start`, in order.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// A registration error, if the metric catalog failed to set up
    /// (impossible for the built-in catalog; kept visible rather than
    /// panicking, per the crate's no-panic policy).
    pub fn error(&self) -> Option<&ObsError> {
        self.error.as_ref()
    }

    fn register_catalog(&mut self, num_sms: usize) -> Result<(), ObsError> {
        let r = &mut self.registry;
        let machine = MachineIds {
            warp_active: r.register_gauge("warp.active.avg", "warps")?,
            warp_waiting: r.register_gauge("warp.waiting.avg", "warps")?,
            warp_excess_alu: r.register_gauge("warp.excess_alu.avg", "warps")?,
            warp_excess_mem: r.register_gauge("warp.excess_mem.avg", "warps")?,
            issue_rate: r.register_gauge("issue.rate", "warps/cycle/sm")?,
            l1_hit_rate: r.register_gauge("cache.l1.hit_rate", "ratio")?,
            l2_hit_rate: r.register_gauge("cache.l2.hit_rate", "ratio")?,
            dram_bw_util: r.register_gauge("dram.bw_util", "ratio")?,
            icnt_occupancy: r.register_gauge("icnt.occupancy", "requests")?,
            lsu_mean: r.register_gauge("lsu.occupancy.mean", "entries")?,
            mshr_mean: r.register_gauge("mshr.occupancy.mean", "entries")?,
            blocks_active: r.register_gauge("blocks.active.mean", "blocks")?,
            blocks_target: r.register_gauge("blocks.target.mean", "blocks")?,
            vf_sm_index: r.register_gauge("vf.sm.index.mean", "level")?,
            vf_mem_index: r.register_gauge("vf.mem.index", "level")?,
            instructions: r.register_counter("instructions.total", "instr")?,
            dram_accesses: r.register_counter("dram.accesses.total", "lines")?,
            power_total: r.register_gauge("power.total.w", "W")?,
            power_leakage: r.register_gauge("power.leakage.w", "W")?,
            power_sm_dynamic: r.register_gauge("power.sm_dynamic.w", "W")?,
            power_sm_clock: r.register_gauge("power.sm_clock.w", "W")?,
            power_mem_dynamic: r.register_gauge("power.mem_dynamic.w", "W")?,
            power_mem_clock: r.register_gauge("power.mem_clock.w", "W")?,
            power_dram_standby: r.register_gauge("power.dram_standby.w", "W")?,
            issue_hist: r.register_histogram(
                "issue.rate.hist",
                "warps/cycle/sm",
                vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
            )?,
            bw_hist: r.register_histogram(
                "dram.bw_util.hist",
                "ratio",
                vec![0.1, 0.25, 0.5, 0.75, 0.9],
            )?,
        };
        self.machine = Some(machine);
        for sm in 0..num_sms {
            // Uniqueness of the per-SM names comes from the SM index.
            let ids = SmIds {
                warp_active: r.register_gauge(format!("sm{sm}.warp.active.avg"), "warps")?,
                issue_rate: r.register_gauge(format!("sm{sm}.issue.rate"), "warps/cycle")?,
                l1_hit_rate: r.register_gauge(format!("sm{sm}.cache.l1.hit_rate"), "ratio")?,
                lsu: r.register_gauge(format!("sm{sm}.lsu.occupancy"), "entries")?,
                mshr: r.register_gauge(format!("sm{sm}.mshr.occupancy"), "entries")?,
                blocks_active: r.register_gauge(format!("sm{sm}.blocks.active"), "blocks")?,
                blocks_target: r.register_gauge(format!("sm{sm}.blocks.target"), "blocks")?,
                vf_index: r.register_gauge(format!("sm{sm}.vf.index"), "level")?,
            };
            self.sms.push(ids);
        }
        Ok(())
    }

    /// Windows `cur` against the previous sample and records every
    /// series point for this epoch.
    fn record_epoch(&mut self, sample: &MachineSample) {
        if self.machine.is_none() {
            match self.register_catalog(sample.num_sms) {
                Ok(()) => {}
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
        let ids = match self.machine {
            Some(ids) => ids,
            None => return,
        };
        let (record, reports) = match self.pending.take() {
            Some(p) => p,
            // No matching on_epoch (cannot happen in the engine's
            // ordering); skip rather than mis-attribute the window.
            None => return,
        };
        let epoch = sample.epoch_index;
        let t = sample.now_fs;
        let n = sample.num_sms.max(1) as f64;

        // --- Warp-state occupancy (from the governor's epoch window).
        // The record merges every SM's counters, samples included, so
        // each mean is already per SM.
        let c = &record.counters;
        self.registry
            .record(ids.warp_active, epoch, t, c.avg_active());
        self.registry
            .record(ids.warp_waiting, epoch, t, c.avg_waiting());
        self.registry
            .record(ids.warp_excess_alu, epoch, t, c.avg_excess_alu());
        self.registry
            .record(ids.warp_excess_mem, epoch, t, c.avg_excess_mem());
        let issue_rate = c.avg_issued();
        self.registry.record(ids.issue_rate, epoch, t, issue_rate);
        // Histogram ids are constructed as histograms; a mismatch is
        // impossible, so the error arm only records it.
        if let Err(e) = self.registry.observe(ids.issue_hist, issue_rate) {
            self.error = Some(e);
        }

        // --- Cache / DRAM / queue state (windowed machine sample).
        let cur = sample.to_run_stats();
        let d = delta_stats(&self.prev_stats, &cur);
        self.registry
            .record(ids.l1_hit_rate, epoch, t, d.l1_hit_rate());
        self.registry
            .record(ids.l2_hit_rate, epoch, t, d.l2_hit_rate());
        let mem_cycles: u64 = d.mem_cycles_at.iter().sum();
        let busy: u64 = d.mem_events.iter().map(|m| m.dram_busy_cycles).sum();
        let bw_util = if mem_cycles == 0 {
            0.0
        } else {
            busy as f64 / mem_cycles as f64
        };
        self.registry.record(ids.dram_bw_util, epoch, t, bw_util);
        if let Err(e) = self.registry.observe(ids.bw_hist, bw_util) {
            self.error = Some(e);
        }
        self.registry
            .record(ids.icnt_occupancy, epoch, t, sample.icnt_occupancy as f64);
        let lsu_mean = sample.sms.iter().map(|s| s.lsu_occupancy).sum::<usize>() as f64 / n;
        let mshr_mean = sample.sms.iter().map(|s| s.mshr_occupancy).sum::<usize>() as f64 / n;
        self.registry.record(ids.lsu_mean, epoch, t, lsu_mean);
        self.registry.record(ids.mshr_mean, epoch, t, mshr_mean);

        // --- Concurrency and VF state.
        self.registry
            .record(ids.blocks_active, epoch, t, record.mean_active_blocks);
        self.registry
            .record(ids.blocks_target, epoch, t, record.mean_target_blocks);
        let vf_sm = sample.sms.iter().map(|s| s.level.index()).sum::<usize>() as f64 / n;
        self.registry.record(ids.vf_sm_index, epoch, t, vf_sm);
        self.registry
            .record(ids.vf_mem_index, epoch, t, sample.mem_level.index() as f64);

        // --- Cumulative counters.
        self.registry
            .record(ids.instructions, epoch, t, cur.instructions() as f64);
        self.registry
            .record(ids.dram_accesses, epoch, t, cur.dram_accesses() as f64);

        // --- Power breakdown over the window.
        let dt_s = d.wall_time_fs as f64 / FS_PER_SEC;
        if dt_s > 0.0 {
            let e = self.power.energy(&d);
            for (id, joules) in [
                (ids.power_total, e.total_j()),
                (ids.power_leakage, e.leakage_j),
                (ids.power_sm_dynamic, e.sm_dynamic_j),
                (ids.power_sm_clock, e.sm_clock_j),
                (ids.power_mem_dynamic, e.mem_dynamic_j),
                (ids.power_mem_clock, e.mem_clock_j),
                (ids.power_dram_standby, e.dram_standby_j),
            ] {
                self.registry.record(id, epoch, t, joules / dt_s);
            }
        }

        // --- Per-SM series.
        for (report, sm_sample) in reports.iter().zip(sample.sms.iter()) {
            let ids = match self.sms.get(report.sm) {
                Some(ids) => *ids,
                None => continue,
            };
            let rc = &report.counters;
            self.registry
                .record(ids.warp_active, epoch, t, rc.avg_active());
            self.registry
                .record(ids.issue_rate, epoch, t, rc.avg_issued());
            let prev_sm = self.prev_sm_l1.get(report.sm).copied().unwrap_or((0, 0));
            let da = sm_sample.l1_accesses.saturating_sub(prev_sm.0);
            let dh = sm_sample.l1_hits.saturating_sub(prev_sm.1);
            let hit = if da == 0 { 0.0 } else { dh as f64 / da as f64 };
            self.registry.record(ids.l1_hit_rate, epoch, t, hit);
            self.registry
                .record(ids.lsu, epoch, t, sm_sample.lsu_occupancy as f64);
            self.registry
                .record(ids.mshr, epoch, t, sm_sample.mshr_occupancy as f64);
            self.registry
                .record(ids.blocks_active, epoch, t, sm_sample.active_blocks as f64);
            self.registry
                .record(ids.blocks_target, epoch, t, sm_sample.target_blocks as f64);
            self.registry
                .record(ids.vf_index, epoch, t, sm_sample.level.index() as f64);
        }
        self.prev_sm_l1 = sample
            .sms
            .iter()
            .map(|s| (s.l1_accesses, s.l1_hits))
            .collect();
        self.prev_stats = cur;
    }
}

/// Field-wise `cur - prev` over the aggregates the power model reads.
fn delta_stats(prev: &RunStats, cur: &RunStats) -> RunStats {
    let mut d = RunStats {
        wall_time_fs: cur.wall_time_fs.saturating_sub(prev.wall_time_fs),
        num_sms: cur.num_sms,
        ..RunStats::default()
    };
    for i in 0..3 {
        d.sm_cycles_at[i] = cur.sm_cycles_at[i].saturating_sub(prev.sm_cycles_at[i]);
        d.sm_time_at[i] = cur.sm_time_at[i].saturating_sub(prev.sm_time_at[i]);
        d.mem_cycles_at[i] = cur.mem_cycles_at[i].saturating_sub(prev.mem_cycles_at[i]);
        d.mem_time_at[i] = cur.mem_time_at[i].saturating_sub(prev.mem_time_at[i]);
        let (ce, pe) = (&cur.sm_events[i], &prev.sm_events[i]);
        d.sm_events[i].issued = ce.issued.saturating_sub(pe.issued);
        d.sm_events[i].alu_ops = ce.alu_ops.saturating_sub(pe.alu_ops);
        d.sm_events[i].mem_instrs = ce.mem_instrs.saturating_sub(pe.mem_instrs);
        d.sm_events[i].l1_accesses = ce.l1_accesses.saturating_sub(pe.l1_accesses);
        d.sm_events[i].l1_hits = ce.l1_hits.saturating_sub(pe.l1_hits);
        d.sm_events[i].busy_cycles = ce.busy_cycles.saturating_sub(pe.busy_cycles);
        let (cm, pm) = (&cur.mem_events[i], &prev.mem_events[i]);
        d.mem_events[i].l2_accesses = cm.l2_accesses.saturating_sub(pm.l2_accesses);
        d.mem_events[i].l2_hits = cm.l2_hits.saturating_sub(pm.l2_hits);
        d.mem_events[i].dram_accesses = cm.dram_accesses.saturating_sub(pm.dram_accesses);
        d.mem_events[i].dram_busy_cycles = cm.dram_busy_cycles.saturating_sub(pm.dram_busy_cycles);
    }
    d
}

impl Observer for MetricsObserver {
    fn on_invocation_start(&mut self, _invocation: usize, kernel: &KernelSpec) {
        self.workloads.push(kernel.name().to_string());
    }

    fn on_epoch(&mut self, _ctx: &EpochContext, reports: &[SmEpochReport], record: &EpochRecord) {
        for r in reports {
            self.epoch_slices.push(EpochSlice {
                sm: r.sm,
                start_fs: self.last_boundary_fs,
                end_fs: record.end_fs,
                label: format!(
                    "e{} a{} t{}",
                    record.epoch_index, r.active_blocks, r.target_blocks
                ),
            });
        }
        self.last_boundary_fs = record.end_fs;
        self.pending = Some((*record, reports.to_vec()));
    }

    fn on_machine_sample(&mut self, sample: &MachineSample) {
        self.record_epoch(sample);
    }

    fn on_vf_transition(&mut self, domain: VfDomain, from: VfLevel, to: VfLevel, at_fs: Femtos) {
        self.vf_events.push(VfEvent {
            domain,
            from,
            to,
            at_fs,
        });
    }
}
