//! # equalizer-obs — deterministic observability for the simulator
//!
//! A metrics, profiling and decision-audit layer over the simulator's
//! [`Observer`](equalizer_sim::engine::Observer) hooks:
//!
//! * [`registry`] — a metrics registry (counters, gauges, fixed-bucket
//!   histograms) with stable registration order and no hashing or
//!   wall-clock access, so every export is byte-identical across runs;
//! * [`observer`] — [`MetricsObserver`], which derives per-epoch and
//!   per-SM time series (warp-state occupancy, issue rate, cache hit
//!   rates, queue occupancies, DRAM bandwidth utilisation, a power
//!   breakdown, VF levels and CTA counts) from the engine's epoch and
//!   machine-sample callbacks;
//! * [`chrome`] — a Chrome trace-event JSON exporter loadable in
//!   Perfetto / `chrome://tracing`;
//! * [`csv`] — per-metric CSV dumps;
//! * [`summary`] — a human-readable end-of-run summary table;
//! * [`json`] — a dependency-free JSON validator and string escaper,
//!   shared with the harness's JSON-lines tracer and the `sim-report`
//!   self-check.
//!
//! Everything here is passive: attaching a [`MetricsObserver`] never
//! perturbs the simulation, and a run with no observer attached pays
//! nothing (the engine skips sample assembly entirely).
//!
//! ## Quick start
//!
//! ```
//! use equalizer_obs::MetricsObserver;
//! use equalizer_power::PowerModel;
//! use equalizer_sim::prelude::*;
//! use std::sync::Arc;
//!
//! let config = GpuConfig::gtx480();
//! let program = Arc::new(Program::new(vec![Segment::new(
//!     vec![Instr::alu(), Instr::alu_dep()],
//!     512,
//! )]));
//! let kernel = KernelSpec::new(
//!     "demo",
//!     KernelCategory::Compute,
//!     4,
//!     8,
//!     vec![Invocation { grid_blocks: 60, program }],
//! );
//! let mut obs = MetricsObserver::new(PowerModel::gtx480());
//! let mut engine = Engine::new(&config, &kernel, SimOptions::default())?
//!     .with_observer(&mut obs);
//! engine.run(&mut StaticGovernor)?;
//! assert!(obs.registry().len() > 0);
//! let trace = equalizer_obs::chrome::chrome_trace(&obs);
//! assert!(equalizer_obs::json::validate(&trace).is_ok());
//! # Ok::<(), equalizer_sim::gpu::SimError>(())
//! ```

// The determinism and robustness policy (DESIGN.md §7). `clippy.toml`
// beside this crate's manifest bans hash containers, interior
// mutability, locks, the wall clock and environment reads; the deny
// below makes each ban a hard error. Library code must not panic or
// print; tests may.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

pub mod chrome;
pub mod csv;
pub mod json;
pub mod observer;
pub mod registry;
pub mod summary;

pub use observer::{EpochSlice, MetricsObserver, VfEvent};
pub use registry::{Metric, MetricId, MetricKind, MetricsRegistry, SeriesPoint};

/// Errors from the observability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// A metric name was registered twice.
    DuplicateMetric(String),
    /// A metric name was looked up but never registered.
    UnknownMetric(String),
    /// An operation was applied to a metric of the wrong kind (for
    /// example `observe` on a gauge).
    KindMismatch {
        /// The metric the operation targeted.
        name: String,
        /// The kind the operation requires.
        expected: &'static str,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::DuplicateMetric(name) => {
                write!(f, "metric `{name}` is already registered")
            }
            ObsError::UnknownMetric(name) => write!(f, "metric `{name}` is not registered"),
            ObsError::KindMismatch { name, expected } => {
                write!(f, "metric `{name}` is not a {expected}")
            }
        }
    }
}

impl std::error::Error for ObsError {}
