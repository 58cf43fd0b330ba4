//! The four workloads: which simulations or figure calls one pass runs.

use std::collections::BTreeSet;

use equalizer_baselines::StaticPoint;
use equalizer_core::Mode;
use equalizer_harness::System;
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::util::mix64;
use equalizer_workloads::kernel_by_name;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = ["sweep-compute", "sweep-memory", "figures", "single-run"];

// Workload sizes keep one pass near 9 s on a 2-core host: a run makes two
// passes, and the benchmark's full set of repeated runs must fit its time
// budget. The catalog's slowest kernels are left out for that reason.

/// The kernels of `sweep-compute`: compute-intensive and unsaturated.
const COMPUTE_SWEEP_KERNELS: [&str; 11] = [
    "lavaMD", "leuko-2", "mri-q", "pf", "sgemm", "prtcl-2", "bp-1", "mri-g-2", "sad", "sc", "stncl",
];

/// The kernels of `sweep-memory`: cache-sensitive and memory-intensive.
const MEMORY_SWEEP_KERNELS: [&str; 6] = ["bp-2", "mmer", "prtcl-1", "cfd-2", "lbm", "leuko-1"];

/// The kernels of `figures`: cache, compute and memory. The slowest goes
/// first so the figures' two-thread `parallel_map` stays balanced.
const FIGURE_KERNELS: [&str; 3] = ["mmer", "mri-q", "cfd-2"];

/// The kernels of `single-run`: cache, memory and compute.
const SINGLE_RUN_KERNELS: [&str; 3] = ["kmn", "cfd-1", "mri-q"];

/// One simulation: a kernel under a system.
#[derive(Debug, Clone)]
pub struct Sim {
    /// The (possibly reseeded) kernel.
    pub kernel: KernelSpec,
    /// What drives the hardware.
    pub system: System,
}

impl Sim {
    /// `kernel/system`, as printed and stored in golden files.
    pub fn label(&self) -> String {
        format!("{}/{}", self.kernel.name(), self.system.label())
    }
}

/// A `harness::figures` generator the `figures` workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// `figure4`: warp-state distributions.
    F4,
    /// `figure7_8` in performance mode.
    F7,
    /// `figure7_8` in energy mode.
    F8,
    /// `figure9`: VF residency in both modes.
    F9,
}

impl Figure {
    /// Every figure call of one pass, in order.
    pub const ALL: [Figure; 4] = [Figure::F4, Figure::F7, Figure::F8, Figure::F9];

    /// `figure4`, `figure7`, ...
    pub fn name(self) -> &'static str {
        match self {
            Figure::F4 => "figure4",
            Figure::F7 => "figure7",
            Figure::F8 => "figure8",
            Figure::F9 => "figure9",
        }
    }

    /// The simulations the harness runs for this figure, in its order
    /// (read off `harness::figures`; `Runner` does not expose them).
    pub fn sims(self, kernels: &[KernelSpec]) -> Vec<Sim> {
        let systems: &[System] = match self {
            Figure::F4 => &[System::Static(StaticPoint::Baseline)],
            Figure::F7 => &[
                System::Static(StaticPoint::Baseline),
                System::Equalizer(Mode::Performance),
                System::Static(StaticPoint::SmHigh),
                System::Static(StaticPoint::MemHigh),
            ],
            Figure::F8 => &[
                System::Static(StaticPoint::Baseline),
                System::Equalizer(Mode::Energy),
                System::Static(StaticPoint::SmLow),
                System::Static(StaticPoint::MemLow),
            ],
            Figure::F9 => &[
                System::Equalizer(Mode::Performance),
                System::Equalizer(Mode::Energy),
            ],
        };
        cross(kernels, systems)
    }
}

/// What one pass of a workload runs.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Independent simulations.
    Sims {
        /// The simulations, in dispatch order.
        sims: Vec<Sim>,
        /// Simulations in flight at once (a closed loop per worker).
        workers: usize,
        /// `SimOptions::threads` of every simulation.
        threads: usize,
        /// Attach a `MetricsObserver` to every simulation.
        observe: bool,
    },
    /// The four figure calls over these kernels, one at a time.
    Figures(Vec<KernelSpec>),
}

impl Workload {
    /// Builds workload `name` for `seed`; `None` for an unknown name.
    ///
    /// Seed 0 keeps the catalog's kernel seeds; any other seed reseeds
    /// every kernel's address streams with `mix64(seed ^ catalog seed)`.
    pub fn build(name: &str, seed: u64, nproc: usize) -> Option<Self> {
        let reseed = |k: KernelSpec| {
            if seed == 0 {
                k
            } else {
                let s = mix64(seed ^ k.seed());
                k.with_seed(s)
            }
        };
        let named = |names: &[&str]| -> Vec<KernelSpec> {
            names
                .iter()
                .map(|n| reseed(kernel_by_name(n).expect("catalog kernel")))
                .collect()
        };
        let workers = nproc.clamp(1, 2);
        Some(match name {
            "sweep-compute" => {
                // Figure 7's systems: the SM:memory clock ratio moves
                // both ways, and both Equalizer modes step the VF levels.
                let systems = [
                    System::Static(StaticPoint::Baseline),
                    System::Static(StaticPoint::SmHigh),
                    System::Static(StaticPoint::MemHigh),
                    System::Equalizer(Mode::Performance),
                    System::Equalizer(Mode::Energy),
                ];
                Workload::Sims {
                    sims: cross(&named(&COMPUTE_SWEEP_KERNELS), &systems),
                    workers,
                    threads: 1,
                    observe: false,
                }
            }
            "sweep-memory" => {
                let systems = [
                    System::Static(StaticPoint::Baseline),
                    System::Equalizer(Mode::Performance),
                    System::DynCta,
                    System::Ccws,
                ];
                Workload::Sims {
                    sims: cross(&named(&MEMORY_SWEEP_KERNELS), &systems),
                    workers,
                    threads: 1,
                    observe: false,
                }
            }
            "figures" => Workload::Figures(named(&FIGURE_KERNELS)),
            "single-run" => Workload::Sims {
                sims: cross(
                    &named(&SINGLE_RUN_KERNELS),
                    &[
                        System::Equalizer(Mode::Performance),
                        System::EqualizerPerSmVrm(Mode::Performance),
                    ],
                ),
                workers: 1,
                threads: 2,
                observe: true,
            },
            _ => return None,
        })
    }

    /// `SimOptions::threads` of the workload's simulations (the figure
    /// calls use the default, one).
    pub fn threads(&self) -> usize {
        match self {
            Workload::Sims { threads, .. } => *threads,
            Workload::Figures(_) => 1,
        }
    }

    /// Timed ops in one pass: simulations, or figure calls.
    pub fn ops(&self) -> usize {
        match self {
            Workload::Sims { sims, .. } => sims.len(),
            Workload::Figures(_) => Figure::ALL.len(),
        }
    }

    /// Every simulation one pass asks for, repeats included.
    pub fn requested_sims(&self) -> Vec<Sim> {
        match self {
            Workload::Sims { sims, .. } => sims.clone(),
            Workload::Figures(kernels) => {
                Figure::ALL.iter().flat_map(|f| f.sims(kernels)).collect()
            }
        }
    }

    /// Distinct (kernel, system) pairs among [`Workload::requested_sims`].
    pub fn distinct_sims(&self) -> usize {
        self.requested_sims()
            .iter()
            .map(Sim::label)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Kernel-major cross product of kernels and systems.
fn cross(kernels: &[KernelSpec], systems: &[System]) -> Vec<Sim> {
    kernels
        .iter()
        .flat_map(|k| {
            systems.iter().map(|&system| Sim {
                kernel: k.clone(),
                system,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_shapes() {
        let shape = |name| {
            let w = Workload::build(name, 0, 2).unwrap();
            (w.ops(), w.requested_sims().len(), w.distinct_sims())
        };
        assert_eq!(shape("sweep-compute"), (55, 55, 55));
        assert_eq!(shape("sweep-memory"), (24, 24, 24));
        // 12 of the figures' 33 simulations repeat an earlier pair.
        assert_eq!(shape("figures"), (4, 33, 21));
        assert_eq!(shape("single-run"), (6, 6, 6));
        assert!(Workload::build("nope", 0, 2).is_none());
    }

    #[test]
    fn seeds_reseed_every_kernel_and_zero_keeps_the_catalog() {
        let seeds = |seed| match Workload::build("sweep-memory", seed, 2).unwrap() {
            Workload::Sims { sims, .. } => sims.iter().map(|s| s.kernel.seed()).collect(),
            Workload::Figures(_) => Vec::new(),
        };
        let catalog: Vec<u64> = seeds(0);
        let one = seeds(1);
        assert_eq!(catalog[0], kernel_by_name("bp-2").unwrap().seed());
        assert!(catalog.iter().zip(&one).all(|(a, b)| a != b));
        assert_eq!(one, seeds(1));
    }
}
