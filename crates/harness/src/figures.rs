//! Data generators for every table and figure in the paper's evaluation.
//!
//! Each `figure*` function runs the required simulations (in parallel
//! where independent) and returns typed rows; the `regenerate` bench
//! target in `equalizer-bench` renders them. All relative numbers are against the
//! paper's baseline: the stock GTX 480 at nominal frequencies running
//! maximum concurrent blocks.

use equalizer_baselines::StaticPoint;
use equalizer_core::Mode;
use equalizer_sim::gpu::SimError;
use equalizer_sim::kernel::{KernelCategory, KernelSpec};
use equalizer_sim::util::geomean;
use equalizer_workloads::{bfs2, kernel_by_name, table_ii_kernels};

use crate::experiment::{compare, parallel_map, Comparison, Measurement, Runner, System};

/// One kernel's (performance, efficiency) position relative to baseline —
/// a point in the Figure 1 scatter plots.
#[derive(Debug, Clone)]
pub struct ScatterPoint {
    /// Kernel short name.
    pub kernel: String,
    /// Kernel category.
    pub category: KernelCategory,
    /// Relative performance (`t_base / t`).
    pub performance: f64,
    /// Energy efficiency (`E_base / E`).
    pub efficiency: f64,
}

fn scatter(base: &Measurement, run: &Measurement, category: KernelCategory) -> ScatterPoint {
    let c = compare(base, run);
    ScatterPoint {
        kernel: run.kernel.clone(),
        category,
        performance: c.speedup,
        efficiency: c.efficiency,
    }
}

/// Results of a per-kernel thread sweep (Figures 1e/1f).
#[derive(Debug, Clone)]
pub struct ThreadSweepPoint {
    /// Kernel short name.
    pub kernel: String,
    /// Kernel category.
    pub category: KernelCategory,
    /// Block count with the best performance.
    pub best_blocks: usize,
    /// The kernel's resident-block limit.
    pub max_blocks: usize,
    /// Performance at the best static block count, relative to baseline.
    pub performance: f64,
    /// Efficiency at the best static block count.
    pub efficiency: f64,
}

/// All data behind Figure 1 (a–f).
#[derive(Debug, Clone, Default)]
pub struct Figure1 {
    /// (a) SM frequency +15 %.
    pub sm_high: Vec<ScatterPoint>,
    /// (b) SM frequency −15 %.
    pub sm_low: Vec<ScatterPoint>,
    /// (c) Memory frequency +15 %.
    pub mem_high: Vec<ScatterPoint>,
    /// (d) Memory frequency −15 %.
    pub mem_low: Vec<ScatterPoint>,
    /// (e/f) Best static thread count per kernel.
    pub thread_sweep: Vec<ThreadSweepPoint>,
}

/// Generates Figure 1: the static-knob opportunity study.
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn figure1(runner: &Runner, kernels: &[KernelSpec]) -> Result<Figure1, SimError> {
    let results = parallel_map(kernels.to_vec(), |k| -> Result<_, SimError> {
        let base = runner.baseline(k)?;
        let cat = k.category();
        let sm_hi = runner.run(k, System::Static(StaticPoint::SmHigh))?;
        let sm_lo = runner.run(k, System::Static(StaticPoint::SmLow))?;
        let mem_hi = runner.run(k, System::Static(StaticPoint::MemHigh))?;
        let mem_lo = runner.run(k, System::Static(StaticPoint::MemLow))?;

        let limit = k.resident_block_limit(
            runner.config().max_blocks_per_sm,
            runner.config().max_warps_per_sm,
        );
        let mut best: Option<(usize, Comparison)> = None;
        for blocks in 1..=limit {
            let m = runner.run(k, System::FixedBlocks(blocks))?;
            let c = compare(&base, &m);
            if best.is_none_or(|(_, b)| c.speedup > b.speedup) {
                best = Some((blocks, c));
            }
        }
        let (best_blocks, best_cmp) = best.expect("limit >= 1");
        Ok((
            scatter(&base, &sm_hi, cat),
            scatter(&base, &sm_lo, cat),
            scatter(&base, &mem_hi, cat),
            scatter(&base, &mem_lo, cat),
            ThreadSweepPoint {
                kernel: k.name().to_string(),
                category: cat,
                best_blocks,
                max_blocks: limit,
                performance: best_cmp.speedup,
                efficiency: best_cmp.efficiency,
            },
        ))
    });

    let mut fig = Figure1::default();
    for r in results {
        let (a, b, c, d, e) = r?;
        fig.sm_high.push(a);
        fig.sm_low.push(b);
        fig.mem_high.push(c);
        fig.mem_low.push(d);
        fig.thread_sweep.push(e);
    }
    Ok(fig)
}

/// Figure 2a / 11a: per-invocation behaviour of `bfs-2`.
#[derive(Debug, Clone, Default)]
pub struct Bfs2Study {
    /// Static block counts studied (1..=3).
    pub block_counts: Vec<usize>,
    /// `per_invocation_s[i][inv]`: seconds of invocation `inv` at
    /// `block_counts[i]`.
    pub per_invocation_s: Vec<Vec<f64>>,
    /// Oracle: per-invocation best static choice.
    pub optimal_s: Vec<f64>,
    /// Equalizer with frequency control disabled (Figure 11a).
    pub equalizer_s: Vec<f64>,
    /// Mean active blocks chosen by Equalizer in each invocation.
    pub equalizer_blocks: Vec<f64>,
}

impl Bfs2Study {
    /// Total runtime at a static block count, normalised to the maximum-
    /// blocks configuration (the paper normalises to 3 blocks).
    pub fn total_normalised(&self, idx: usize) -> f64 {
        let base: f64 = self
            .per_invocation_s
            .last()
            .expect("non-empty")
            .iter()
            .sum();
        self.per_invocation_s[idx].iter().sum::<f64>() / base
    }

    /// Normalised total of the per-invocation oracle.
    pub fn optimal_normalised(&self) -> f64 {
        let base: f64 = self
            .per_invocation_s
            .last()
            .expect("non-empty")
            .iter()
            .sum();
        self.optimal_s.iter().sum::<f64>() / base
    }

    /// Normalised total for the Equalizer run.
    pub fn equalizer_normalised(&self) -> f64 {
        let base: f64 = self
            .per_invocation_s
            .last()
            .expect("non-empty")
            .iter()
            .sum();
        self.equalizer_s.iter().sum::<f64>() / base
    }
}

/// Generates the `bfs-2` inter-invocation study (Figures 2a and 11a).
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn figure2a_11a(runner: &Runner) -> Result<Bfs2Study, SimError> {
    let kernel = bfs2();
    let block_counts: Vec<usize> = (1..=3).collect();
    let mut study = Bfs2Study {
        block_counts: block_counts.clone(),
        ..Bfs2Study::default()
    };

    let runs = parallel_map(block_counts, |&b| {
        runner.run(&kernel, System::FixedBlocks(b))
    });
    for r in runs {
        let m = r?;
        study.per_invocation_s.push(
            m.stats
                .invocations
                .iter()
                .map(|i| i.wall_fs as f64 / 1e15)
                .collect(),
        );
    }
    let n_inv = study.per_invocation_s[0].len();
    study.optimal_s = (0..n_inv)
        .map(|inv| {
            study
                .per_invocation_s
                .iter()
                .map(|v| v[inv])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    let eq = runner.run(&kernel, System::EqualizerBlocksOnly)?;
    study.equalizer_s = eq
        .stats
        .invocations
        .iter()
        .map(|i| i.wall_fs as f64 / 1e15)
        .collect();
    study.equalizer_blocks = (0..n_inv)
        .map(|inv| eq.stats.mean_blocks_in_invocation(inv).unwrap_or(f64::NAN))
        .collect();
    Ok(study)
}

/// A point on the Figure 2b intra-invocation timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimelinePoint {
    /// Fraction of total runtime at which the epoch ended.
    pub time_frac: f64,
    /// Mean waiting warps per SM.
    pub waiting: f64,
    /// Mean `X_mem` warps per SM.
    pub excess_mem: f64,
    /// Mean `X_alu` warps per SM.
    pub excess_alu: f64,
    /// Mean active warps per SM.
    pub active: f64,
}

/// Generates Figure 2b: the warp-state timeline of `mri_g-1`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn figure2b(runner: &Runner) -> Result<Vec<TimelinePoint>, SimError> {
    let kernel = kernel_by_name("mri-g-1").expect("catalog kernel");
    let m = runner.baseline(&kernel)?;
    Ok(timeline_of(&m))
}

/// Extracts a per-SM warp-state timeline from a measurement.
///
/// Epoch counters are merged across SMs with their sample counts, so the
/// `avg_*` accessors already yield per-SM means.
pub fn timeline_of(m: &Measurement) -> Vec<TimelinePoint> {
    let total = m.stats.wall_time_fs.max(1) as f64;
    m.stats
        .epochs
        .iter()
        .map(|e| TimelinePoint {
            time_frac: e.end_fs as f64 / total,
            waiting: e.counters.avg_waiting(),
            excess_mem: e.counters.avg_excess_mem(),
            excess_alu: e.counters.avg_excess_alu(),
            active: e.counters.avg_active(),
        })
        .collect()
}

/// One bar of Figure 4: the warp-state distribution of a kernel.
#[derive(Debug, Clone)]
pub struct WarpStateRow {
    /// Kernel short name.
    pub kernel: String,
    /// Kernel category.
    pub category: KernelCategory,
    /// Fraction of warps issuing.
    pub issued: f64,
    /// Fraction waiting on the scoreboard.
    pub waiting: f64,
    /// Fraction in `X_mem`.
    pub excess_mem: f64,
    /// Fraction in `X_alu`.
    pub excess_alu: f64,
    /// Fraction in other states.
    pub others: f64,
}

/// Generates Figure 4: warp-state distributions at maximum concurrency.
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn figure4(runner: &Runner, kernels: &[KernelSpec]) -> Result<Vec<WarpStateRow>, SimError> {
    let rows = parallel_map(kernels.to_vec(), |k| -> Result<WarpStateRow, SimError> {
        let m = runner.baseline(k)?;
        let c = &m.stats.warp_states;
        let denom = (c.active + c.others).max(1) as f64;
        Ok(WarpStateRow {
            kernel: k.name().to_string(),
            category: k.category(),
            issued: c.issued as f64 / denom,
            waiting: c.waiting as f64 / denom,
            excess_mem: c.excess_mem as f64 / denom,
            excess_alu: c.excess_alu as f64 / denom,
            others: c.others as f64 / denom,
        })
    });
    rows.into_iter().collect()
}

/// Generates Figure 5: memory-kernel performance vs. concurrent blocks,
/// normalised to one block. Returns `(kernel, speedups[1..=max])`.
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn figure5(runner: &Runner) -> Result<Vec<(String, Vec<f64>)>, SimError> {
    let kernels: Vec<KernelSpec> = ["cfd-1", "cfd-2", "histo-3", "lbm", "leuko-1"]
        .iter()
        .map(|n| kernel_by_name(n).expect("catalog kernel"))
        .collect();
    let rows = parallel_map(kernels, |k| -> Result<(String, Vec<f64>), SimError> {
        let limit = k.resident_block_limit(
            runner.config().max_blocks_per_sm,
            runner.config().max_warps_per_sm,
        );
        let mut times = Vec::new();
        for b in 1..=limit {
            let m = runner.run(k, System::FixedBlocks(b))?;
            times.push(m.time_s());
        }
        let t1 = times[0];
        Ok((k.name().to_string(), times.iter().map(|t| t1 / t).collect()))
    });
    rows.into_iter().collect()
}

/// One kernel's row in Figure 7 or Figure 8.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// Kernel short name.
    pub kernel: String,
    /// Kernel category.
    pub category: KernelCategory,
    /// Equalizer vs. baseline.
    pub equalizer: Comparison,
    /// Static SM excursion (boost for Fig 7, low for Fig 8) vs. baseline.
    pub sm_static: Comparison,
    /// Static memory excursion vs. baseline.
    pub mem_static: Comparison,
}

/// Aggregated per-category and overall geometric means for a mode figure.
#[derive(Debug, Clone)]
pub struct ModeSummary {
    /// `(label, geomean speedup, geomean energy ratio)` per group.
    pub groups: Vec<(String, f64, f64)>,
}

/// Generates Figure 7 (performance mode) when `mode` is
/// [`Mode::Performance`], or Figure 8 (energy mode) when [`Mode::Energy`].
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn figure7_8(
    runner: &Runner,
    kernels: &[KernelSpec],
    mode: Mode,
) -> Result<Vec<ModeRow>, SimError> {
    let (sm_point, mem_point) = match mode {
        Mode::Performance => (StaticPoint::SmHigh, StaticPoint::MemHigh),
        Mode::Energy => (StaticPoint::SmLow, StaticPoint::MemLow),
    };
    let rows = parallel_map(kernels.to_vec(), |k| -> Result<ModeRow, SimError> {
        let base = runner.baseline(k)?;
        let eq = runner.run(k, System::Equalizer(mode))?;
        let sm = runner.run(k, System::Static(sm_point))?;
        let mem = runner.run(k, System::Static(mem_point))?;
        Ok(ModeRow {
            kernel: k.name().to_string(),
            category: k.category(),
            equalizer: compare(&base, &eq),
            sm_static: compare(&base, &sm),
            mem_static: compare(&base, &mem),
        })
    });
    rows.into_iter().collect()
}

/// Summarises mode rows by category plus an overall geomean, using the
/// accessor `f` to pick which system's comparison to aggregate.
pub fn summarise<F>(rows: &[ModeRow], f: F) -> ModeSummary
where
    F: Fn(&ModeRow) -> Comparison,
{
    let mut groups = Vec::new();
    let cats = [
        KernelCategory::Compute,
        KernelCategory::Memory,
        KernelCategory::Cache,
        KernelCategory::Unsaturated,
    ];
    for cat in cats {
        let of_cat: Vec<&ModeRow> = rows.iter().filter(|r| r.category == cat).collect();
        if of_cat.is_empty() {
            continue;
        }
        let sp = geomean(of_cat.iter().map(|r| f(r).speedup)).unwrap_or(f64::NAN);
        let er = geomean(of_cat.iter().map(|r| f(r).energy_ratio)).unwrap_or(f64::NAN);
        groups.push((cat.to_string(), sp, er));
    }
    let sp = geomean(rows.iter().map(|r| f(r).speedup)).unwrap_or(f64::NAN);
    let er = geomean(rows.iter().map(|r| f(r).energy_ratio)).unwrap_or(f64::NAN);
    groups.push(("overall".to_string(), sp, er));
    ModeSummary { groups }
}

/// One kernel × mode row of Figure 9: VF-level residency.
#[derive(Debug, Clone)]
pub struct ResidencyRow {
    /// Kernel short name.
    pub kernel: String,
    /// Kernel category.
    pub category: KernelCategory,
    /// `'P'` or `'E'`.
    pub mode: char,
    /// SM-domain residency `[low, nominal, high]`.
    pub sm: [f64; 3],
    /// Memory-domain residency `[low, nominal, high]`.
    pub mem: [f64; 3],
}

/// Generates Figure 9: time distribution across VF states for both modes.
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn figure9(runner: &Runner, kernels: &[KernelSpec]) -> Result<Vec<ResidencyRow>, SimError> {
    let work: Vec<(KernelSpec, Mode)> = kernels
        .iter()
        .flat_map(|k| [(k.clone(), Mode::Performance), (k.clone(), Mode::Energy)])
        .collect();
    let rows = parallel_map(work, |(k, mode)| -> Result<ResidencyRow, SimError> {
        let m = runner.run(k, System::Equalizer(*mode))?;
        Ok(ResidencyRow {
            kernel: k.name().to_string(),
            category: k.category(),
            mode: match mode {
                Mode::Performance => 'P',
                Mode::Energy => 'E',
            },
            sm: m.stats.sm_level_residency(),
            mem: m.stats.mem_level_residency(),
        })
    });
    rows.into_iter().collect()
}

/// One cache kernel's bars in Figure 10.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Kernel short name.
    pub kernel: String,
    /// DynCTA speedup vs. baseline.
    pub dyncta: f64,
    /// CCWS speedup vs. baseline.
    pub ccws: f64,
    /// Equalizer (performance mode) speedup vs. baseline.
    pub equalizer: f64,
}

/// Generates Figure 10: Equalizer vs. DynCTA vs. CCWS on the cache-
/// sensitive kernels.
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn figure10(runner: &Runner) -> Result<Vec<BaselineRow>, SimError> {
    let kernels: Vec<KernelSpec> = ["bp-2", "bfs", "histo-1", "kmn", "mmer", "prtcl-1", "spmv"]
        .iter()
        .map(|n| kernel_by_name(n).expect("catalog kernel"))
        .collect();
    let rows = parallel_map(kernels, |k| -> Result<BaselineRow, SimError> {
        let base = runner.baseline(k)?;
        let dyncta = runner.run(k, System::DynCta)?;
        let ccws = runner.run(k, System::Ccws)?;
        let eq = runner.run(k, System::Equalizer(Mode::Performance))?;
        Ok(BaselineRow {
            kernel: k.name().to_string(),
            dyncta: compare(&base, &dyncta).speedup,
            ccws: compare(&base, &ccws).speedup,
            equalizer: compare(&base, &eq).speedup,
        })
    });
    rows.into_iter().collect()
}

/// Figure 11b: concurrency timelines of Equalizer vs. DynCTA on `spmv`.
#[derive(Debug, Clone, Default)]
pub struct SpmvTimelines {
    /// `(time fraction, active warps per SM, waiting warps per SM)` under
    /// Equalizer (blocks only).
    pub equalizer: Vec<(f64, f64, f64)>,
    /// The same under DynCTA.
    pub dyncta: Vec<(f64, f64, f64)>,
}

/// Generates Figure 11b.
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn figure11b(runner: &Runner) -> Result<SpmvTimelines, SimError> {
    let kernel = kernel_by_name("spmv").expect("catalog kernel");
    let to_series = |m: &Measurement| {
        let total = m.stats.wall_time_fs.max(1) as f64;
        let w_cta = kernel.warps_per_block() as f64;
        m.stats
            .epochs
            .iter()
            .map(|e| {
                (
                    e.end_fs as f64 / total,
                    e.mean_active_blocks * w_cta,
                    e.counters.avg_waiting(),
                )
            })
            .collect::<Vec<_>>()
    };
    let eq = runner.run(&kernel, System::EqualizerBlocksOnly)?;
    let dc = runner.run(&kernel, System::DynCta)?;
    Ok(SpmvTimelines {
        equalizer: to_series(&eq),
        dyncta: to_series(&dc),
    })
}

/// Convenience: the full 27-kernel catalog.
pub fn all_kernels() -> Vec<KernelSpec> {
    table_ii_kernels()
}

#[cfg(test)]
mod tests {
    use super::*;
    use equalizer_power::PowerModel;
    use equalizer_sim::config::GpuConfig;
    use equalizer_sim::gpu::SimOptions;

    fn tiny_runner() -> Runner {
        let mut config = GpuConfig::gtx480();
        config.num_sms = 4;
        Runner::new(config, PowerModel::gtx480(), SimOptions::default())
    }

    #[test]
    fn figure4_fractions_are_sane() {
        let r = tiny_runner();
        let ks = vec![
            kernel_by_name("mri-q").unwrap(),
            kernel_by_name("cfd-2").unwrap(),
        ];
        let rows = figure4(&r, &ks).unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            let sum = row.issued + row.waiting + row.excess_mem + row.excess_alu + row.others;
            assert!(
                (sum - 1.0).abs() < 0.05,
                "{}: fractions sum to {sum}",
                row.kernel
            );
        }
    }

    #[test]
    fn summarise_groups_by_category() {
        let rows = vec![ModeRow {
            kernel: "x".into(),
            category: KernelCategory::Compute,
            equalizer: Comparison {
                speedup: 1.2,
                energy_ratio: 1.1,
                efficiency: 1.0 / 1.1,
            },
            sm_static: Comparison {
                speedup: 1.0,
                energy_ratio: 1.0,
                efficiency: 1.0,
            },
            mem_static: Comparison {
                speedup: 1.0,
                energy_ratio: 1.0,
                efficiency: 1.0,
            },
        }];
        let s = summarise(&rows, |r| r.equalizer);
        assert_eq!(s.groups.len(), 2); // compute + overall
        assert!((s.groups[0].1 - 1.2).abs() < 1e-12);
        assert_eq!(s.groups[1].0, "overall");
    }

    #[test]
    fn timeline_of_normalises_time() {
        let r = tiny_runner();
        let k = kernel_by_name("cfd-2").unwrap();
        let m = r.baseline(&k).unwrap();
        let tl = timeline_of(&m);
        for p in &tl {
            assert!(p.time_frac > 0.0 && p.time_frac <= 1.0 + 1e-9);
        }
    }
}
