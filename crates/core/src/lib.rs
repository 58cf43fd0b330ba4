//! # equalizer-core — the Equalizer runtime system
//!
//! This crate is the paper's primary contribution (*Equalizer: Dynamic
//! Tuning of GPU Resources for Efficient Execution*, Sethia & Mahlke,
//! MICRO 2014), rebuilt as a library over the `equalizer-sim` substrate:
//!
//! * four warp-state counters — active, waiting, `X_alu`, `X_mem` —
//!   sampled every 128 cycles over a 4096-cycle epoch (provided by the
//!   simulator's instruction-buffer model);
//! * **Algorithm 1** ([`decision`]): per-SM tendency detection against the
//!   `W_cta` and bandwidth-saturation thresholds;
//! * the **Table I action matrix** ([`mode`]): energy mode throttles the
//!   under-utilised domain, performance mode boosts the bottleneck;
//! * the **frequency manager** ([`freq_manager`]): per-epoch majority vote
//!   across SMs, one VF step at a time;
//! * **CTA pausing with hysteresis** ([`equalizer`]): concurrency changes
//!   apply only after three consecutive same-direction decisions.
//!
//! ## Example: tuning a kernel in both modes
//!
//! ```
//! use equalizer_core::{Equalizer, Mode};
//! use equalizer_sim::prelude::*;
//! use std::sync::Arc;
//!
//! let program = Arc::new(Program::new(vec![Segment::new(
//!     vec![Instr::alu(), Instr::alu_dep()],
//!     256,
//! )]));
//! let kernel = KernelSpec::new(
//!     "demo",
//!     KernelCategory::Compute,
//!     4,
//!     8,
//!     vec![Invocation { grid_blocks: 120, program }],
//! );
//! let config = GpuConfig::gtx480();
//!
//! let mut perf = Equalizer::new(Mode::Performance, config.num_sms);
//! let boosted = simulate(&config, &kernel, &mut perf)?;
//!
//! let mut energy = Equalizer::new(Mode::Energy, config.num_sms);
//! let throttled = simulate(&config, &kernel, &mut energy)?;
//!
//! assert!(boosted.time_seconds() > 0.0 && throttled.time_seconds() > 0.0);
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

pub mod audit;
pub mod cost;
pub mod decision;
pub mod equalizer;
pub mod freq_manager;
pub mod mode;

pub use audit::{DecisionRecord, SmAudit};
pub use cost::{hardware_cost, HardwareCost};
pub use decision::{decide, detect, propose, AveragedCounters, SmProposal, Tendency};
pub use equalizer::{Equalizer, TraceEntry, BLOCK_HYSTERESIS};
pub use mode::{table_i_votes, Action, DomainVotes, Mode, Vote};
