//! The experiment runner: pairs a GPU configuration, a power model and a
//! governor choice, and produces comparable measurements.

use std::sync::Arc;

use equalizer_baselines::{ccws_baseline, DynCta, StaticPoint};
use equalizer_core::{Equalizer, Mode};
use equalizer_power::{EnergyBreakdown, PowerModel};
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::{Engine, Observer};
use equalizer_sim::governor::{FixedBlocksGovernor, Governor, StaticGovernor};
use equalizer_sim::gpu::{SimError, SimOptions};
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::stats::RunStats;

use crate::store::{run_key, ResultStore, StoreStats};

/// Which system drives the hardware for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum System {
    /// A static operating point (no runtime control).
    Static(StaticPoint),
    /// Equalizer in the given mode.
    Equalizer(Mode),
    /// Equalizer with DVFS disabled (block control only, Figure 11a).
    EqualizerBlocksOnly,
    /// Equalizer on hardware with per-SM voltage regulators (the §V-A1
    /// variant), in the given mode.
    EqualizerPerSmVrm(Mode),
    /// DynCTA (CTA control only).
    DynCta,
    /// CCWS (cache-conscious warp throttling).
    Ccws,
    /// Every SM pinned to a fixed block count at the baseline VF point.
    FixedBlocks(usize),
}

impl System {
    /// Display label for tables.
    pub fn label(&self) -> String {
        match self {
            System::Static(p) => p.label().to_string(),
            System::Equalizer(Mode::Performance) => "Equalizer(P)".to_string(),
            System::Equalizer(Mode::Energy) => "Equalizer(E)".to_string(),
            System::EqualizerBlocksOnly => "Equalizer(blocks)".to_string(),
            System::EqualizerPerSmVrm(Mode::Performance) => "Equalizer(P,perSM)".to_string(),
            System::EqualizerPerSmVrm(Mode::Energy) => "Equalizer(E,perSM)".to_string(),
            System::DynCta => "DynCTA".to_string(),
            System::Ccws => "CCWS".to_string(),
            System::FixedBlocks(n) => format!("{n} blocks"),
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Kernel name.
    pub kernel: String,
    /// System that drove the run.
    pub system: System,
    /// Simulator statistics.
    pub stats: RunStats,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl Measurement {
    /// Total energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Runtime in seconds.
    pub fn time_s(&self) -> f64 {
        self.stats.time_seconds()
    }
}

/// Relative performance and energy of a run against a baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Speedup: `t_base / t_run` (>1 is faster).
    pub speedup: f64,
    /// Energy ratio: `E_run / E_base` (<1 saves energy).
    pub energy_ratio: f64,
    /// The paper's energy efficiency: `E_base / E_run` (>1 is better).
    pub efficiency: f64,
}

/// Compares a run against its baseline.
pub fn compare(baseline: &Measurement, run: &Measurement) -> Comparison {
    let speedup = baseline.time_s() / run.time_s();
    let energy_ratio = run.energy_j() / baseline.energy_j();
    Comparison {
        speedup,
        energy_ratio,
        efficiency: 1.0 / energy_ratio,
    }
}

/// Runs kernels under systems and converts statistics to energy.
///
/// A runner memoizes its runs. The simulator is deterministic and a
/// runner's configuration and options never change, so [`Runner::run`]
/// keys each run by [`run_key`] (kernel identity, system) in a
/// [`ResultStore`]: a repeat returns a clone of the first run's
/// `RunStats`, or its error, instead of simulating again. That is what
/// lets the figure generators share their baseline runs. Clones of a
/// runner share its store; [`Runner::new`] and [`Runner::gtx480`] start
/// an empty one, so two independently built runners never share
/// results.
#[derive(Debug, Clone)]
pub struct Runner {
    config: GpuConfig,
    model: PowerModel,
    options: SimOptions,
    store: Arc<ResultStore<Arc<RunStats>, SimError>>,
}

impl Runner {
    /// A runner over the paper's baseline GTX 480 configuration with
    /// default options.
    pub fn gtx480() -> Self {
        Self::new(
            GpuConfig::gtx480(),
            PowerModel::gtx480(),
            SimOptions::default(),
        )
    }

    /// Builds a runner over a custom configuration, with an empty store.
    pub fn new(config: GpuConfig, model: PowerModel, options: SimOptions) -> Self {
        Self {
            config,
            model,
            options,
            store: Arc::default(),
        }
    }

    /// The baseline GPU configuration this runner uses.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The power model.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// How this runner's store has answered so far: memo hits, and the
    /// simulations it actually ran.
    pub fn store_stats(&self) -> StoreStats {
        self.store.tallies()
    }

    /// Runs `kernel` under `system`, or returns the memoized result of an
    /// identical earlier run (see the [`Runner`] docs); either way the
    /// measurement is the same.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulator. A failure is memoized
    /// too, so a repeat returns the same error.
    pub fn run(&self, kernel: &KernelSpec, system: System) -> Result<Measurement, SimError> {
        let stats = self.store.get_or_run(run_key(kernel, system), || {
            let (config, mut governor) = system_setup(&self.config, system);
            let stats = Engine::new(&config, kernel, self.options)?.run(governor.as_mut())?;
            Ok(Arc::new(stats))
        })?;
        Ok(self.measure(kernel, system, RunStats::clone(&stats)))
    }

    /// Runs `kernel` under `system` with a passive [`Observer`] attached
    /// to the engine — e.g. [`crate::trace::JsonLinesTrace`] — without
    /// perturbing the simulation. Always simulates, bypassing the store,
    /// because the observer must see the run.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulator.
    pub fn run_observed(
        &self,
        kernel: &KernelSpec,
        system: System,
        observer: &mut dyn Observer,
    ) -> Result<Measurement, SimError> {
        let (config, mut governor) = system_setup(&self.config, system);
        let mut engine = Engine::new(&config, kernel, self.options)?.with_observer(observer);
        let stats = engine.run(governor.as_mut())?;
        Ok(self.measure(kernel, system, stats))
    }

    fn measure(&self, kernel: &KernelSpec, system: System, stats: RunStats) -> Measurement {
        let energy = self.model.energy(&stats);
        Measurement {
            kernel: kernel.name().to_string(),
            system,
            stats,
            energy,
        }
    }

    /// Runs the baseline operating point for `kernel`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulator.
    pub fn baseline(&self, kernel: &KernelSpec) -> Result<Measurement, SimError> {
        self.run(kernel, System::Static(StaticPoint::Baseline))
    }
}

/// Resolves a [`System`] into the configuration and governor that realise
/// it on the `base` hardware.
fn system_setup(base: &GpuConfig, system: System) -> (GpuConfig, Box<dyn Governor>) {
    match system {
        System::Static(point) => (point.apply(base.clone()), Box::new(StaticGovernor)),
        System::Equalizer(mode) => (base.clone(), Box::new(Equalizer::new(mode, base.num_sms))),
        System::EqualizerBlocksOnly => (
            base.clone(),
            Box::new(Equalizer::new(Mode::Performance, base.num_sms).with_frequency_control(false)),
        ),
        System::EqualizerPerSmVrm(mode) => {
            let mut config = base.clone();
            config.per_sm_vrm = true;
            let gov = Equalizer::new(mode, config.num_sms).with_per_sm_vrm(true);
            (config, Box::new(gov))
        }
        System::DynCta => (base.clone(), Box::new(DynCta::new())),
        System::Ccws => {
            let (c, g) = ccws_baseline(base.clone());
            (c, Box::new(g))
        }
        System::FixedBlocks(n) => (base.clone(), Box::new(FixedBlocksGovernor::new(n))),
    }
}

/// Maps `f` over `items` on all available cores, preserving order.
///
/// Simulations are single-threaded and independent, so figure sweeps
/// parallelise trivially. This is the only source of parallelism: one
/// simulation always runs on one thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(|| {
                let tx = tx;
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    tx.send((i, r)).expect("collector alive");
                }
            });
        }
        drop(tx);
        let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("worker filled every slot"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use equalizer_workloads::kernel_by_name;

    fn small_runner() -> Runner {
        let mut config = GpuConfig::gtx480();
        config.num_sms = 4;
        Runner::new(config, PowerModel::gtx480(), SimOptions::default())
    }

    #[test]
    fn baseline_run_produces_energy() {
        let r = small_runner();
        let k = kernel_by_name("cutcp").unwrap();
        let m = r.baseline(&k).unwrap();
        assert!(m.energy_j() > 0.0);
        assert!(m.time_s() > 0.0);
        assert_eq!(m.kernel, "cutcp");
    }

    #[test]
    fn comparison_is_identity_for_same_run() {
        let r = small_runner();
        let k = kernel_by_name("sgemm").unwrap();
        let m = r.baseline(&k).unwrap();
        let c = compare(&m, &m);
        assert!((c.speedup - 1.0).abs() < 1e-12);
        assert!((c.energy_ratio - 1.0).abs() < 1e-12);
        assert!((c.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sm_boost_speeds_up_compute_kernel() {
        let r = small_runner();
        let k = kernel_by_name("mri-q").unwrap();
        let base = r.baseline(&k).unwrap();
        let hi = r.run(&k, System::Static(StaticPoint::SmHigh)).unwrap();
        let c = compare(&base, &hi);
        assert!(c.speedup > 1.05, "speedup {:.3}", c.speedup);
        assert!(c.energy_ratio > 1.0, "boost costs energy");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        assert_eq!(parallel_map(Vec::<i32>::new(), |x| *x), Vec::<i32>::new());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn labels_are_reasonable() {
        assert_eq!(System::Equalizer(Mode::Energy).label(), "Equalizer(E)");
        assert_eq!(System::FixedBlocks(3).label(), "3 blocks");
        assert_eq!(System::Static(StaticPoint::MemHigh).label(), "Mem boost");
    }
}
