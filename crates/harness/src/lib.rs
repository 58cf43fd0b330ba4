//! # equalizer-harness — the evaluation harness
//!
//! Runs the Table II kernels under the paper's systems (baseline, the four
//! static VF points, Equalizer in both modes, DynCTA, CCWS, fixed block
//! counts) and regenerates every table and figure of the evaluation
//! section. See [`figures`] for one generator per paper artifact and
//! `EXPERIMENTS.md` at the repository root for paper-vs-measured numbers.
//!
//! ```no_run
//! use equalizer_core::Mode;
//! use equalizer_harness::{figures, Runner};
//!
//! let runner = Runner::gtx480();
//! let kernels = figures::all_kernels();
//! let rows = figures::figure7_8(&runner, &kernels, Mode::Performance)?;
//! for row in &rows {
//!     println!("{}: {:.2}x", row.kernel, row.equalizer.speedup);
//! }
//! # Ok::<(), equalizer_sim::gpu::SimError>(())
//! ```

// Library code reports through return values, never the console.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod figures;
pub mod profile;
pub mod store;
pub mod tables;
pub mod trace;

pub use experiment::{compare, parallel_map, Comparison, Measurement, Runner, System};
pub use tables::{pct, pct_delta, TextTable};
