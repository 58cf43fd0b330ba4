//! Fixture: wall-clock reads make replay nondeterministic; simulator
//! code must use simulated time.

use std::time::SystemTime; //~ clippy::disallowed_types

/// Times a phase with the host clock instead of simulated Femtos.
pub fn stamp() -> u128 {
    let t0 = std::time::Instant::now(); //~ clippy::disallowed_methods
    let _ = SystemTime::now(); //~ clippy::disallowed_methods clippy::disallowed_types
    t0.elapsed().as_nanos()
}
