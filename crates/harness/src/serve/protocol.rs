//! Wire protocol for the simulation server.
//!
//! Every message travels in a *frame*: a `u32` little-endian byte count
//! followed by that many body bytes. The length prefix keeps the stream
//! self-synchronising — a malformed *body* costs one error reply, never
//! the connection — while an implausible length (above [`FRAME_MAX`])
//! means the framing itself cannot be trusted and the connection is
//! dropped after a best-effort error reply.
//!
//! Bodies reuse the simulator's snapshot codec
//! ([`equalizer_sim::snapshot::Writer`] / [`Reader`]): one canonical
//! little-endian encoding for requests, responses and cached results,
//! with typed errors instead of panics on malformed input.

use std::io::{self, Read, Write as IoWrite};

use equalizer_baselines::StaticPoint;
use equalizer_core::Mode;
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::snapshot::{Reader, SnapshotError, Writer};

use crate::System;

/// Upper bound on a frame body, in bytes. Requests are tiny and replies
/// carry at most an encoded [`equalizer_sim::stats::RunStats`]; anything
/// larger than a mebibyte is a framing error, not a message.
pub const FRAME_MAX: usize = 1 << 20;

/// A request to the simulation server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or fetch the memoized result of) one simulation.
    Simulate(SimulateRequest),
    /// Report the server's tallies.
    Stats,
    /// Ask the daemon to shut down cleanly.
    Shutdown,
}

/// One simulation to run: which kernel, under which system, with which
/// options. The server memoizes on the canonical hash of all of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// Catalog name of the kernel (see `equalizer_workloads`).
    pub kernel: String,
    /// Override the kernel's identity seed (`None` keeps the catalog
    /// seed).
    pub seed: Option<u64>,
    /// Override the server's baseline SM count (`None` keeps it).
    pub num_sms: Option<usize>,
    /// Simulation options, forwarded to the engine (except the ignored
    /// `threads`, which is not sent).
    pub options: SimOptions,
    /// Which system drives the hardware.
    pub system: System,
    /// When non-zero, warm-start: run the first `warm_epochs` epochs
    /// under the static baseline governor (snapshotting the machine at
    /// the boundary for reuse by later requests that share the prefix),
    /// then hand control to the requested system. The result is the
    /// delayed-governor run — a *different* simulation from cycle-0
    /// control, and keyed as such.
    pub warm_epochs: u64,
}

/// A reply from the simulation server.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request could not be served; the connection stays usable.
    Error(String),
    /// A completed simulation (fresh, memoized or warm-started).
    Outcome(SimOutcome),
    /// Server tallies plus per-phase latency histograms (boxed: the
    /// fixed-bucket histograms make this by far the widest variant).
    Stats(Box<StatsReply>),
    /// Acknowledges [`Request::Shutdown`]; the daemon exits after this.
    ShutdownAck,
}

/// A completed simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Canonical content hash the result is memoized under.
    pub config_hash: u64,
    /// The result came from the server's result cache (no simulation
    /// ran for this request).
    pub cached: bool,
    /// The run resumed from a memoized prefix snapshot instead of
    /// simulating its warm-up epochs.
    pub warm_hit: bool,
    /// The run's statistics, encoded with
    /// [`equalizer_sim::snapshot::encode_run_stats`].
    pub stats_bytes: Vec<u8>,
}

/// Monotonic counters describing everything the server has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Simulate requests received.
    pub requests: u64,
    /// Simulations actually executed (cold runs plus warm remainders).
    pub simulations: u64,
    /// Requests answered from the result cache without waiting.
    pub cache_hits: u64,
    /// Requests that joined an identical in-flight simulation instead
    /// of starting their own (single-flight collapses).
    pub coalesced: u64,
    /// Requests that failed (unknown kernel, invalid config, …).
    pub errors: u64,
    /// Result-cache entries evicted to respect the capacity bound.
    pub result_evictions: u64,
    /// Warm-start prefixes simulated and snapshotted.
    pub prefix_runs: u64,
    /// Warm-start requests that restored a memoized prefix snapshot.
    pub warm_hits: u64,
    /// Prefix-snapshot entries evicted to respect the capacity bound.
    pub snapshot_evictions: u64,
    /// SM ticks executed inside fused windows, summed over every
    /// simulation this daemon ran (the fast-forward coverage numerator).
    pub batched_ticks: u64,
    /// SM ticks executed in fused windows, where the per-cycle pipeline
    /// was skipped entirely. Every window is fused, so this equals
    /// `batched_ticks`.
    pub fused_ticks: u64,
    /// Fused windows refused because the memory system's next event was
    /// too near (`BatchClose::MemHorizon`), summed over simulations.
    pub mem_horizon_closes: u64,
}

impl ServerStats {
    /// The tallies as `(metric name, value)` pairs in a fixed,
    /// registration-stable order — the single source of truth for every
    /// exposition surface (summary table, CSV, trace), so renderers can
    /// never disagree on naming or ordering.
    pub fn named(&self) -> [(&'static str, u64); 12] {
        // Exhaustive destructuring: a new tally must be named to build.
        let ServerStats {
            requests,
            simulations,
            cache_hits,
            coalesced,
            errors,
            result_evictions,
            prefix_runs,
            warm_hits,
            snapshot_evictions,
            batched_ticks,
            fused_ticks,
            mem_horizon_closes,
        } = *self;
        [
            ("serve.requests", requests),
            ("serve.simulations", simulations),
            ("serve.cache_hits", cache_hits),
            ("serve.coalesced", coalesced),
            ("serve.errors", errors),
            ("serve.result_evictions", result_evictions),
            ("serve.prefix_runs", prefix_runs),
            ("serve.warm_hits", warm_hits),
            ("serve.snapshot_evictions", snapshot_evictions),
            ("serve.batched_ticks", batched_ticks),
            ("serve.fused_ticks", fused_ticks),
            ("serve.mem_horizon_closes", mem_horizon_closes),
        ]
    }
}

/// Inclusive upper bounds (nanoseconds) of the latency histogram
/// buckets, one decade per bucket from 1 µs to 10 s; an implicit
/// overflow bucket catches everything slower.
pub const LATENCY_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Buckets in a [`LatencyHistogram`]: one per bound plus overflow.
pub const LATENCY_BUCKETS: usize = LATENCY_BOUNDS_NS.len() + 1;

/// A fixed-bucket latency distribution (bounds in
/// [`LATENCY_BOUNDS_NS`]), cheap enough to update under the server's
/// tally lock and small enough to ship in a [`Response::Stats`] frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed latencies, in nanoseconds (saturating).
    pub sum_ns: u64,
    /// Per-bucket observation counts; bucket `i` holds observations at
    /// or under `LATENCY_BOUNDS_NS[i]`, the last bucket the overflow.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Records one observation of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let bucket = LATENCY_BOUNDS_NS
            .iter()
            .position(|bound| ns <= *bound)
            .unwrap_or(LATENCY_BOUNDS_NS.len());
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Whether the bucket counts add up to `count` — the coherence
    /// check the CI smoke gates on (a cumulative walk of a coherent
    /// histogram is monotone and ends exactly at `count`).
    pub fn coherent(&self) -> bool {
        self.buckets.iter().sum::<u64>() == self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-request phase latency histograms: where wall-clock time goes
/// between a connection being accepted and its reply hitting the wire.
///
/// Purely observational — none of these clocks feed request keys,
/// cached bytes or simulation results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerPhaseStats {
    /// Accepted connection sat in the queue before a worker picked it
    /// up (recorded once per connection).
    pub queue_wait: LatencyHistogram,
    /// Result-cache lookup and single-flight claim, including any wait
    /// for an identical in-flight simulation (recorded per Simulate).
    pub cache_lookup: LatencyHistogram,
    /// The simulation itself — cold runs and warm remainders (recorded
    /// per simulation actually executed, so hits skip it).
    pub simulate: LatencyHistogram,
    /// Encoding the response body (recorded per reply).
    pub encode: LatencyHistogram,
    /// Writing the framed reply to the socket (recorded per reply).
    pub write: LatencyHistogram,
}

impl ServerPhaseStats {
    /// The phases as `(metric name, histogram)` pairs in the same
    /// fixed, pipeline order everywhere — see [`ServerStats::named`].
    pub fn named(&self) -> [(&'static str, &LatencyHistogram); 5] {
        [
            ("serve.phase.queue_wait", &self.queue_wait),
            ("serve.phase.cache_lookup", &self.cache_lookup),
            ("serve.phase.simulate", &self.simulate),
            ("serve.phase.encode", &self.encode),
            ("serve.phase.write", &self.write),
        ]
    }
}

/// Everything a [`Request::Stats`] query returns: the monotonic tallies
/// plus the per-phase latency histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Monotonic counters (requests, hits, evictions, …).
    pub tallies: ServerStats,
    /// Per-phase latency histograms.
    pub phases: ServerPhaseStats,
}

// --- frame transport -----------------------------------------------------

/// Writes `body` as one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects bodies larger than [`FRAME_MAX`].
pub fn write_frame(w: &mut impl IoWrite, body: &[u8]) -> io::Result<()> {
    if body.len() > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds FRAME_MAX", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary.
///
/// # Errors
///
/// Propagates I/O errors; a length above [`FRAME_MAX`] or a stream that
/// ends mid-frame is an error (the framing can no longer be trusted).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended inside a frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds FRAME_MAX ({FRAME_MAX})"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// --- system codes --------------------------------------------------------

/// Encodes a [`System`] as a `(tag, payload)` pair — the single source
/// of truth shared by the wire codec and the request hash, so the two
/// can never disagree. Both matches are exhaustive without wildcards:
/// adding a variant breaks the build here until it is assigned a code.
pub(crate) fn system_code(system: System) -> (u8, u64) {
    let mode_code = |m: Mode| match m {
        Mode::Energy => 0u64,
        Mode::Performance => 1,
    };
    match system {
        System::Static(point) => (
            0,
            match point {
                StaticPoint::Baseline => 0,
                StaticPoint::SmHigh => 1,
                StaticPoint::SmLow => 2,
                StaticPoint::MemHigh => 3,
                StaticPoint::MemLow => 4,
            },
        ),
        System::Equalizer(mode) => (1, mode_code(mode)),
        System::EqualizerBlocksOnly => (2, 0),
        System::EqualizerPerSmVrm(mode) => (3, mode_code(mode)),
        System::DynCta => (4, 0),
        System::Ccws => (5, 0),
        System::FixedBlocks(n) => (6, n as u64),
    }
}

/// Decodes a `(tag, payload)` pair back into a [`System`].
fn system_from_code(tag: u8, payload: u64, offset: usize) -> Result<System, SnapshotError> {
    let corrupt = |what| Err(SnapshotError::Corrupt { offset, what });
    let mode = |payload: u64| match payload {
        0 => Ok(Mode::Energy),
        1 => Ok(Mode::Performance),
        _ => Err(SnapshotError::Corrupt {
            offset,
            what: "equalizer mode code",
        }),
    };
    Ok(match tag {
        0 => System::Static(match payload {
            0 => StaticPoint::Baseline,
            1 => StaticPoint::SmHigh,
            2 => StaticPoint::SmLow,
            3 => StaticPoint::MemHigh,
            4 => StaticPoint::MemLow,
            _ => return corrupt("static operating-point code"),
        }),
        1 => System::Equalizer(mode(payload)?),
        2 => System::EqualizerBlocksOnly,
        3 => System::EqualizerPerSmVrm(mode(payload)?),
        4 => System::DynCta,
        5 => System::Ccws,
        6 => System::FixedBlocks(payload as usize),
        _ => return corrupt("system tag"),
    })
}

// --- body codecs ---------------------------------------------------------

const REQ_SIMULATE: u8 = 0;
const REQ_STATS: u8 = 1;
const REQ_SHUTDOWN: u8 = 2;

const RESP_ERROR: u8 = 0;
const RESP_OUTCOME: u8 = 1;
const RESP_STATS: u8 = 2;
const RESP_SHUTDOWN_ACK: u8 = 3;

fn put_options(w: &mut Writer, options: &SimOptions) {
    // Exhaustive destructuring: adding a SimOptions field breaks this
    // (and the hash fold) at compile time until it is encoded.
    let SimOptions {
        max_cycles_per_invocation,
        record_epochs,
        threads: _, // ignored by the engine, so not sent
        max_batch_ticks,
        fast_forward,
    } = *options;
    w.u64(max_cycles_per_invocation);
    w.bool(record_epochs);
    w.u64(max_batch_ticks);
    w.bool(fast_forward);
}

fn get_options(r: &mut Reader<'_>) -> Result<SimOptions, SnapshotError> {
    Ok(SimOptions {
        max_cycles_per_invocation: r.u64()?,
        record_epochs: r.bool()?,
        max_batch_ticks: r.u64()?,
        fast_forward: r.bool()?,
        ..SimOptions::default()
    })
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    w.bool(v.is_some());
    w.u64(v.unwrap_or(0));
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, SnapshotError> {
    let present = r.bool()?;
    let v = r.u64()?;
    Ok(present.then_some(v))
}

/// Encodes a request body (frame it with [`write_frame`]).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    match request {
        Request::Simulate(req) => {
            w.u8(REQ_SIMULATE);
            w.bytes(req.kernel.as_bytes());
            put_opt_u64(&mut w, req.seed);
            put_opt_u64(&mut w, req.num_sms.map(|n| n as u64));
            put_options(&mut w, &req.options);
            let (tag, payload) = system_code(req.system);
            w.u8(tag);
            w.u64(payload);
            w.u64(req.warm_epochs);
        }
        Request::Stats => w.u8(REQ_STATS),
        Request::Shutdown => w.u8(REQ_SHUTDOWN),
    }
    w.into_bytes()
}

/// Decodes a request body.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] on any malformed input; never
/// panics.
pub fn decode_request(body: &[u8]) -> Result<Request, SnapshotError> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let request = match tag {
        REQ_SIMULATE => {
            let name_offset = r.offset();
            let kernel =
                String::from_utf8(r.bytes()?.to_vec()).map_err(|_| SnapshotError::Corrupt {
                    offset: name_offset,
                    what: "kernel name (not UTF-8)",
                })?;
            let seed = get_opt_u64(&mut r)?;
            let num_sms = get_opt_u64(&mut r)?.map(|n| n as usize);
            let options = get_options(&mut r)?;
            let sys_offset = r.offset();
            let (tag, payload) = (r.u8()?, r.u64()?);
            let system = system_from_code(tag, payload, sys_offset)?;
            let warm_epochs = r.u64()?;
            Request::Simulate(SimulateRequest {
                kernel,
                seed,
                num_sms,
                options,
                system,
                warm_epochs,
            })
        }
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        _ => {
            return Err(SnapshotError::Corrupt {
                offset: 0,
                what: "request tag",
            })
        }
    };
    r.finish()?;
    Ok(request)
}

fn put_server_stats(w: &mut Writer, stats: &ServerStats) {
    // Exhaustive destructuring: a new tally must be encoded to build.
    let ServerStats {
        requests,
        simulations,
        cache_hits,
        coalesced,
        errors,
        result_evictions,
        prefix_runs,
        warm_hits,
        snapshot_evictions,
        batched_ticks,
        fused_ticks,
        mem_horizon_closes,
    } = *stats;
    for v in [
        requests,
        simulations,
        cache_hits,
        coalesced,
        errors,
        result_evictions,
        prefix_runs,
        warm_hits,
        snapshot_evictions,
        batched_ticks,
        fused_ticks,
        mem_horizon_closes,
    ] {
        w.u64(v);
    }
}

fn get_server_stats(r: &mut Reader<'_>) -> Result<ServerStats, SnapshotError> {
    Ok(ServerStats {
        requests: r.u64()?,
        simulations: r.u64()?,
        cache_hits: r.u64()?,
        coalesced: r.u64()?,
        errors: r.u64()?,
        result_evictions: r.u64()?,
        prefix_runs: r.u64()?,
        warm_hits: r.u64()?,
        snapshot_evictions: r.u64()?,
        batched_ticks: r.u64()?,
        fused_ticks: r.u64()?,
        mem_horizon_closes: r.u64()?,
    })
}

fn put_latency_histogram(w: &mut Writer, hist: &LatencyHistogram) {
    w.u64(hist.count);
    w.u64(hist.sum_ns);
    for bucket in hist.buckets {
        w.u64(bucket);
    }
}

fn get_latency_histogram(r: &mut Reader<'_>) -> Result<LatencyHistogram, SnapshotError> {
    let mut hist = LatencyHistogram {
        count: r.u64()?,
        sum_ns: r.u64()?,
        ..LatencyHistogram::default()
    };
    for bucket in &mut hist.buckets {
        *bucket = r.u64()?;
    }
    Ok(hist)
}

fn put_stats_reply(w: &mut Writer, reply: &StatsReply) {
    put_server_stats(w, &reply.tallies);
    // Exhaustive destructuring: a new phase must be encoded to build
    // (and named in `ServerPhaseStats::named`, which every renderer
    // shares).
    let ServerPhaseStats {
        queue_wait,
        cache_lookup,
        simulate,
        encode,
        write,
    } = &reply.phases;
    for hist in [queue_wait, cache_lookup, simulate, encode, write] {
        put_latency_histogram(w, hist);
    }
}

fn get_stats_reply(r: &mut Reader<'_>) -> Result<StatsReply, SnapshotError> {
    Ok(StatsReply {
        tallies: get_server_stats(r)?,
        phases: ServerPhaseStats {
            queue_wait: get_latency_histogram(r)?,
            cache_lookup: get_latency_histogram(r)?,
            simulate: get_latency_histogram(r)?,
            encode: get_latency_histogram(r)?,
            write: get_latency_histogram(r)?,
        },
    })
}

/// Encodes a response body (frame it with [`write_frame`]).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    match response {
        Response::Error(msg) => {
            w.u8(RESP_ERROR);
            w.bytes(msg.as_bytes());
        }
        Response::Outcome(outcome) => {
            w.u8(RESP_OUTCOME);
            w.u64(outcome.config_hash);
            w.bool(outcome.cached);
            w.bool(outcome.warm_hit);
            w.bytes(&outcome.stats_bytes);
        }
        Response::Stats(reply) => {
            w.u8(RESP_STATS);
            put_stats_reply(&mut w, reply);
        }
        Response::ShutdownAck => w.u8(RESP_SHUTDOWN_ACK),
    }
    w.into_bytes()
}

/// Decodes a response body.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] on any malformed input; never
/// panics.
pub fn decode_response(body: &[u8]) -> Result<Response, SnapshotError> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let response = match tag {
        RESP_ERROR => {
            let offset = r.offset();
            let msg =
                String::from_utf8(r.bytes()?.to_vec()).map_err(|_| SnapshotError::Corrupt {
                    offset,
                    what: "error message (not UTF-8)",
                })?;
            Response::Error(msg)
        }
        RESP_OUTCOME => Response::Outcome(SimOutcome {
            config_hash: r.u64()?,
            cached: r.bool()?,
            warm_hit: r.bool()?,
            stats_bytes: r.bytes()?.to_vec(),
        }),
        RESP_STATS => Response::Stats(Box::new(get_stats_reply(&mut r)?)),
        RESP_SHUTDOWN_ACK => Response::ShutdownAck,
        _ => {
            return Err(SnapshotError::Corrupt {
                offset: 0,
                what: "response tag",
            })
        }
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_systems() -> Vec<System> {
        let mut out = vec![
            System::EqualizerBlocksOnly,
            System::DynCta,
            System::Ccws,
            System::FixedBlocks(3),
        ];
        for point in StaticPoint::ALL {
            out.push(System::Static(point));
        }
        for mode in [Mode::Energy, Mode::Performance] {
            out.push(System::Equalizer(mode));
            out.push(System::EqualizerPerSmVrm(mode));
        }
        out
    }

    #[test]
    fn requests_round_trip() {
        for system in all_systems() {
            let request = Request::Simulate(SimulateRequest {
                kernel: "mri-q".to_string(),
                seed: Some(7),
                num_sms: Some(4),
                options: SimOptions {
                    max_batch_ticks: 16,
                    fast_forward: false,
                    ..SimOptions::default()
                },
                system,
                warm_epochs: 3,
            });
            let body = encode_request(&request);
            assert_eq!(decode_request(&body).unwrap(), request);
        }
        for request in [Request::Stats, Request::Shutdown] {
            assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Error("nope".to_string()),
            Response::Outcome(SimOutcome {
                config_hash: 0xDEAD_BEEF,
                cached: true,
                warm_hit: false,
                stats_bytes: vec![1, 2, 3],
            }),
            Response::Stats(Box::new(StatsReply {
                tallies: ServerStats {
                    requests: 9,
                    cache_hits: 4,
                    ..ServerStats::default()
                },
                phases: {
                    let mut phases = ServerPhaseStats::default();
                    phases.queue_wait.record(500);
                    phases.simulate.record(2_000_000);
                    phases.write.record(u64::MAX);
                    phases
                },
            })),
            Response::ShutdownAck,
        ];
        for response in responses {
            let body = encode_response(&response);
            assert_eq!(decode_response(&body).unwrap(), response);
        }
    }

    #[test]
    fn latency_histogram_buckets_by_inclusive_bound() {
        let mut hist = LatencyHistogram::default();
        hist.record(0);
        hist.record(1_000); // inclusive: lands in the first bucket
        hist.record(1_001);
        hist.record(20_000_000_000); // past the last bound: overflow
        assert_eq!(hist.buckets[0], 2);
        assert_eq!(hist.buckets[1], 1);
        assert_eq!(hist.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(hist.count, 4);
        assert!(hist.coherent());
        assert_eq!(hist.mean_ns(), (1_000 + 1_001 + 20_000_000_000) / 4);

        // Saturation never wraps, and incoherence is detectable.
        hist.sum_ns = u64::MAX;
        hist.record(1);
        assert_eq!(hist.sum_ns, u64::MAX);
        hist.count += 1;
        assert!(!hist.coherent());
    }

    #[test]
    fn malformed_bodies_fail_with_typed_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err());
        // Trailing bytes after a well-formed request are rejected.
        let mut body = encode_request(&Request::Stats);
        body.push(0);
        assert!(matches!(
            decode_request(&body),
            Err(SnapshotError::TrailingBytes { trailing: 1 })
        ));
        // Truncations of a Simulate body never panic.
        let body = encode_request(&Request::Simulate(SimulateRequest {
            kernel: "mri-q".to_string(),
            seed: None,
            num_sms: None,
            options: SimOptions::default(),
            system: System::DynCta,
            warm_epochs: 0,
        }));
        for len in 0..body.len() {
            assert!(decode_request(&body[..len]).is_err(), "length {len}");
        }
    }

    #[test]
    fn frames_round_trip_and_enforce_the_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());

        // An implausible length is rejected before any allocation.
        let mut garbage = &b"ZZZZooops"[..];
        assert!(read_frame(&mut garbage).is_err());
        // A stream that dies mid-frame is an error, not a hang or a
        // silent truncation.
        let mut partial = &buf[..3];
        assert!(read_frame(&mut partial).is_err());
    }
}
