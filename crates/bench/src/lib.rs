//! # equalizer-bench — benchmark entry points
//!
//! This crate carries one `harness = false` bench target per table and
//! figure of the paper (run with `cargo bench`). The shared runner setup
//! lives here.

// Library code reports through return values, never the console.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

use equalizer_harness::Runner;

/// The runner every figure bench uses: the full 15-SM GTX 480 baseline.
pub fn default_runner() -> Runner {
    Runner::gtx480()
}
