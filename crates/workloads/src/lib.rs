//! # equalizer-workloads — the Table II kernel catalog
//!
//! The paper evaluates Equalizer on 27 kernels from Rodinia and Parboil
//! (Table II). Those suites require CUDA and a real GPU/GPGPU-Sim, so this
//! crate rebuilds each kernel as a *synthetic instruction mix* with the
//! same name, category, warps-per-block and occupancy limit, calibrated so
//! the simulator reproduces the paper's per-category contention behaviour
//! (compute saturation, bandwidth saturation, L1 thrashing, or none).
//!
//! Special behaviours are modelled explicitly: `bfs-2`'s invocation-to-
//! invocation flip (Fig 2a/11a), `mri-g-1`'s memory-pressure bursts
//! (Fig 2b), `spmv`'s cache→latency phase change (Fig 11b), `prtcl-2`'s
//! load imbalance and `leuko-1`'s texture-path blindness.
//!
//! ```
//! use equalizer_workloads::{kernel_by_name, table_ii_kernels};
//!
//! assert_eq!(table_ii_kernels().len(), 27);
//! let kmn = kernel_by_name("kmn").expect("kmeans is in the catalog");
//! assert_eq!(kmn.warps_per_block(), 8);
//! ```

// Library code reports through return values, never the console.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod catalog;

pub use builder::{
    cache_kernel, compute_kernel, memory_kernel, unsaturated_kernel, with_long_tail, CacheParams,
    ComputeParams, MemoryParams, UnsatPhase,
};
pub use catalog::{
    bfs2, kernel_by_name, kernels_by_category, short_name, table_ii_kernels, TableIiRow, TABLE_II,
};
