//! # equalizer-suite — workspace umbrella
//!
//! Re-exports the crates of the Equalizer (MICRO 2014) reproduction so
//! the examples and integration tests have a single import root. See the
//! individual crates for documentation:
//!
//! * [`equalizer_sim`] — the cycle-level GPU simulator substrate
//! * [`equalizer_power`] — the GPUWattch-style energy model
//! * [`equalizer_core`] — the Equalizer runtime (the paper's contribution)
//! * [`equalizer_workloads`] — the Table II kernel catalog
//! * [`equalizer_baselines`] — DynCTA, CCWS and static VF points
//! * [`equalizer_harness`] — experiment runner and figure generators

// Library code reports through return values, never the console.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub use equalizer_baselines as baselines;
pub use equalizer_core as core;
pub use equalizer_harness as harness;
pub use equalizer_power as power;
pub use equalizer_sim as sim;
pub use equalizer_workloads as workloads;
