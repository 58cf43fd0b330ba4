//! # equalizer-baselines — comparison systems from the paper
//!
//! Three families of baselines appear in the paper's evaluation:
//!
//! * the five **static VF operating points** (baseline, SM±15 %,
//!   Mem±15 %) behind the static bars of Figures 1, 7 and 8
//!   ([`static_vf::StaticPoint`]);
//! * **DynCTA** (Kayiran et al.), the stall-heuristic CTA controller of
//!   Figures 10 and 11b ([`dyncta::DynCta`]);
//! * **CCWS** (Rogers et al.), cache-conscious warp throttling, Figure 10
//!   ([`ccws`]).
//!
//! ```
//! use equalizer_baselines::{DynCta, StaticPoint};
//! use equalizer_sim::prelude::*;
//!
//! let boosted = StaticPoint::SmHigh.apply(GpuConfig::gtx480());
//! assert_eq!(boosted.initial_sm_level, VfLevel::High);
//! let _governor = DynCta::new();
//! ```

// Library code reports through return values, never the console.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ccws;
pub mod dyncta;
pub mod static_vf;

pub use ccws::{ccws_baseline, with_ccws};
pub use dyncta::{DynCta, DynCtaConfig};
pub use static_vf::StaticPoint;
