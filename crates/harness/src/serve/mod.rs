//! # Simulation-as-a-service
//!
//! A std-only daemon that serves deterministic simulations over a
//! length-prefixed unix-socket/TCP protocol, with three layers of
//! wall-clock leverage stacked on the simulator's determinism:
//!
//! 1. **Content-addressed memoization** — a run's statistics are a pure
//!    function of (resolved config, kernel identity, options, system,
//!    warm-start point), so completed results are kept under the
//!    canonical [`hash::result_key`] and repeats are answered
//!    byte-identically without simulating.
//! 2. **Single-flight deduplication** — concurrent identical requests
//!    collapse onto one in-flight simulation; followers block on a
//!    condvar and share the leader's bytes.
//!
//!    Both are the harness's one result store,
//!    [`ResultStore`](crate::store::ResultStore), which every
//!    [`Runner`](crate::Runner) also memoizes through; the daemon's
//!    instance holds encoded `RunStats` bytes in a bounded, deterministic
//!    LRU ([`cache::LruCache`]) of `ServeOptions::result_cache` entries.
//! 3. **Snapshot warm-start** — requests with `warm_epochs > 0` run
//!    their first epochs under the shared static baseline governor;
//!    the machine image at that boundary (from
//!    [`Engine::snapshot`](equalizer_sim::engine::Engine::snapshot)) is
//!    memoized under [`hash::prefix_key`], so a sweep of governors over
//!    one machine simulates the warm-up once.
//!
//! See `DESIGN.md` §11 for the frame format, key canonicalisation and
//! snapshot versioning, and the `sim-serve` / `sim-load` binaries for
//! the daemon and its load generator.
//!
//! This module tree is part of the strict lint universe (`cargo xtask
//! lint`): no `HashMap`/`HashSet`, no ambient randomness — nothing
//! time- or process-dependent can feed a key. The only wall-clock reads
//! are the per-request phase timings (queue wait, cache lookup,
//! simulate, encode, write — see [`protocol::ServerPhaseStats`]), each
//! behind an explicit lint allow; they land exclusively in the
//! [`Request::Stats`] reply and never touch keys, cached bytes or
//! results. [`expose`] renders that reply onto the `equalizer_obs`
//! exporters (summary table, CSV, Chrome trace, canonical JSON).

pub mod cache;
pub mod client;
pub mod expose;
pub mod hash;
pub mod protocol;
pub mod server;

pub use cache::LruCache;
pub use client::{outcome_stats, Client};
pub use protocol::{
    LatencyHistogram, Request, Response, ServerPhaseStats, ServerStats, SimOutcome,
    SimulateRequest, StatsReply, FRAME_MAX, LATENCY_BOUNDS_NS, LATENCY_BUCKETS,
};
pub use server::{Bound, ServeOptions, Server};
