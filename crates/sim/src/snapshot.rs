//! Engine checkpointing: a versioned, deterministic byte format for the
//! full machine state.
//!
//! [`crate::engine::Engine::snapshot`] serializes every piece of mutable
//! simulator state — clocks, SMs (warps, blocks, LD/ST queues, MSHRs, L1,
//! CCWS), the memory system, the GWDE, address-generator RNG cursors and
//! the engine's own epoch/invocation cursors — into a little-endian byte
//! stream. [`crate::engine::Engine::restore`] rebuilds a bit-identical
//! engine from those bytes plus the original configuration and kernel.
//!
//! Because the whole simulation is deterministic (no wall clock, no
//! ambient randomness), a restored engine continues *exactly* as the
//! original would have: stepping a snapshot taken at epoch `k` to
//! completion yields `RunStats` bit-identical to the uninterrupted run.
//! That makes snapshots the substrate for warm-starting config sweeps
//! that share a prefix (same kernel and options, different governor
//! engaged at epoch `k`).
//!
//! ## Format
//!
//! Every snapshot starts with a header:
//!
//! | bytes | field |
//! |------:|-------|
//! | 4     | magic `"EQSN"` (little-endian `u32`) |
//! | 4     | format version (currently [`SNAPSHOT_VERSION`]) |
//! | 8     | machine fingerprint (see [`machine_fingerprint`]) |
//!
//! followed by the engine payload. The fingerprint folds every
//! result-affecting field of the configuration, kernel and options, so
//! restoring under a different machine fails up front with
//! [`SnapshotError::MachineMismatch`] instead of silently diverging.
//! Wall-clock-only knobs ([`SimOptions::max_batch_ticks`],
//! [`SimOptions::fast_forward`]) and the ignored
//! [`SimOptions::threads`] are excluded: a snapshot taken with fused
//! windows off restores bit-identically with them on.
//!
//! Canonical-form rules keep the bytes deterministic:
//!
//! * all integers little-endian; `f64` as IEEE bits via [`f64::to_bits`];
//! * heaps serialized as sorted element lists (pop order depends only on
//!   the multiset, never on internal heap layout);
//! * `BTreeMap`s in key order;
//! * every sequence length is bounds-checked against the remaining bytes
//!   on decode, so corrupt or truncated input yields a typed
//!   [`SnapshotError`] — never a panic or an unbounded allocation.

use crate::config::{CacheConfig, ClockConfig, GpuConfig, VfLevel};
use crate::gpu::SimOptions;
use crate::kernel::KernelSpec;
use crate::stats::{EpochRecord, InvocationStats, RunStats};
use crate::util::mix64;

/// Snapshot format version. Bump whenever the payload layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic number opening every snapshot ("EQSN", little-endian).
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"EQSN");

/// Why a snapshot could not be decoded.
///
/// Decoding never panics: any malformed input maps to one of these
/// variants. The variants are deliberately coarse — a snapshot is an
/// opaque machine image, so "which byte went bad" matters less than
/// "this is not a usable image".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The input's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The snapshot was taken under a different machine (configuration,
    /// kernel or result-affecting options differ).
    MachineMismatch {
        /// Fingerprint of the machine the caller supplied.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The input ended before the payload was complete.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
        /// How many bytes the decoder needed at that offset.
        needed: usize,
    },
    /// A field held a value no valid snapshot can contain.
    Corrupt {
        /// Byte offset of the offending field.
        offset: usize,
        /// What the decoder was reading.
        what: &'static str,
    },
    /// Decoding finished with unread bytes left over.
    TrailingBytes {
        /// How many bytes remained.
        trailing: usize,
    },
    /// The caller-supplied configuration failed validation.
    InvalidConfig(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::MachineMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different machine \
                 (fingerprint {found:#018x}, caller supplied {expected:#018x})"
            ),
            SnapshotError::Truncated { offset, needed } => {
                write!(
                    f,
                    "snapshot truncated at byte {offset} (needed {needed} more)"
                )
            }
            SnapshotError::Corrupt { offset, what } => {
                write!(f, "snapshot corrupt at byte {offset} while reading {what}")
            }
            SnapshotError::TrailingBytes { trailing } => {
                write!(
                    f,
                    "snapshot has {trailing} trailing byte(s) after the payload"
                )
            }
            SnapshotError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only little-endian byte writer for the snapshot format.
///
/// Also reused by the harness serving layer for its wire protocol, so
/// request frames and cached results share one canonical encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over a snapshot byte slice.
///
/// Every read returns a typed [`SnapshotError`] on malformed input;
/// sequence lengths are validated against the remaining bytes before any
/// allocation, so hostile input cannot trigger panics or huge reserves.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let at = self.pos;
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt {
            offset: at,
            what: "usize out of range",
        })
    }

    /// Reads a `bool` (one byte, must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt {
                offset: at,
                what: "bool",
            }),
        }
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a sequence length and checks it is plausible: each element
    /// occupies at least `min_elem_bytes` (use 1 for unknown), so the
    /// declared length cannot exceed the remaining input.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let at = self.pos;
        let n = self.usize()?;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|total| total > self.remaining())
        {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: "sequence length exceeds input",
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// Reads a [`VfLevel`] stored as its index byte.
    pub fn vf_level(&mut self) -> Result<VfLevel, SnapshotError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(VfLevel::Low),
            1 => Ok(VfLevel::Nominal),
            2 => Ok(VfLevel::High),
            _ => Err(SnapshotError::Corrupt {
                offset: at,
                what: "VF level",
            }),
        }
    }

    /// Asserts all input was consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes {
                trailing: self.remaining(),
            })
        }
    }
}

/// Writes a [`VfLevel`] as its index byte.
pub fn put_vf_level(w: &mut Writer, level: VfLevel) {
    w.u8(level.index() as u8);
}

/// An order-sensitive 64-bit fold built on the SplitMix64 finalizer.
///
/// Feed it a canonical field sequence and it produces a hash that
/// depends on every value and its position. Used for the snapshot
/// machine fingerprint and, in the harness, for the serving layer's
/// content-addressed `ConfigHash`.
#[derive(Debug, Clone, Copy)]
pub struct Fold {
    h: u64,
}

impl Fold {
    /// Starts a fold from a domain-separation tag.
    pub fn new(tag: u64) -> Self {
        Self { h: mix64(tag) }
    }

    /// Folds in one 64-bit value.
    pub fn add(&mut self, v: u64) {
        self.h = mix64(self.h.rotate_left(7) ^ v);
    }

    /// Folds in a byte string (length-prefixed, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(b));
        }
    }

    /// Folds in an `f64` as its bit pattern.
    pub fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    /// The folded hash.
    pub fn finish(self) -> u64 {
        mix64(self.h)
    }
}

/// Folds every field of a [`GpuConfig`] into `fold`.
///
/// The exhaustive destructuring (no `..` rest pattern) is a compile-time
/// guard: adding a field to `GpuConfig` breaks this function until the
/// new field is folded in, so configuration changes can never silently
/// escape snapshot fingerprints or serving-layer cache keys.
pub fn fold_gpu_config(fold: &mut Fold, config: &GpuConfig) {
    let GpuConfig {
        num_sms,
        warp_size,
        max_warps_per_sm,
        max_blocks_per_sm,
        issue_width,
        max_alu_issue,
        max_mem_issue,
        alu_latency,
        l1_hit_latency,
        lsu_queue_cap,
        l1,
        l1_mshr,
        l2,
        l2_latency,
        dram_latency,
        icnt_cap,
        tex_queue_cap,
        dram_queue_cap,
        l2_banks,
        dram_bytes_per_cycle,
        sm_clock,
        mem_clock,
        epoch_cycles,
        sample_interval,
        vrm_delay_cycles,
        warp_launch_stagger,
        per_sm_vrm,
        initial_sm_level,
        initial_mem_level,
        ccws,
    } = config;
    fold.add(*num_sms as u64);
    fold.add(*warp_size as u64);
    fold.add(*max_warps_per_sm as u64);
    fold.add(*max_blocks_per_sm as u64);
    fold.add(*issue_width as u64);
    fold.add(*max_alu_issue as u64);
    fold.add(*max_mem_issue as u64);
    fold.add(u64::from(*alu_latency));
    fold.add(u64::from(*l1_hit_latency));
    fold.add(*lsu_queue_cap as u64);
    fold_cache_config(fold, l1);
    fold.add(*l1_mshr as u64);
    fold_cache_config(fold, l2);
    fold.add(u64::from(*l2_latency));
    fold.add(u64::from(*dram_latency));
    fold.add(*icnt_cap as u64);
    fold.add(*tex_queue_cap as u64);
    fold.add(*dram_queue_cap as u64);
    fold.add(*l2_banks as u64);
    fold.add(*dram_bytes_per_cycle);
    fold_clock_config(fold, sm_clock);
    fold_clock_config(fold, mem_clock);
    fold.add(*epoch_cycles);
    fold.add(*sample_interval);
    fold.add(*vrm_delay_cycles);
    fold.add(u64::from(*warp_launch_stagger));
    fold.add(u64::from(*per_sm_vrm));
    fold.add(initial_sm_level.index() as u64);
    fold.add(initial_mem_level.index() as u64);
    match ccws {
        None => fold.add(0),
        Some(c) => {
            let crate::ccws::CcwsConfig {
                vta_entries,
                score_gain,
                score_decay_per_kcycle,
                base_score,
            } = c;
            fold.add(1);
            fold.add(*vta_entries as u64);
            fold.add(u64::from(*score_gain));
            fold.add(u64::from(*score_decay_per_kcycle));
            fold.add(u64::from(*base_score));
        }
    }
}

fn fold_cache_config(fold: &mut Fold, c: &CacheConfig) {
    let CacheConfig {
        sets,
        ways,
        line_bytes,
    } = c;
    fold.add(*sets as u64);
    fold.add(*ways as u64);
    fold.add(*line_bytes);
}

fn fold_clock_config(fold: &mut Fold, c: &ClockConfig) {
    let ClockConfig { nominal_mhz, step } = c;
    fold.add_f64(*nominal_mhz);
    fold.add_f64(*step);
}

/// Fingerprint of the machine a snapshot belongs to: configuration,
/// kernel identity and every *result-affecting* option.
///
/// `max_batch_ticks` and `fast_forward` are wall-clock-only knobs —
/// every stepping path is bit-identical at any setting — and `threads`
/// is ignored, so all three are deliberately excluded: a snapshot taken
/// per-tick restores onto an engine that opens fused windows (and vice
/// versa). The
/// exhaustive destructuring of [`SimOptions`] below keeps that
/// exclusion a conscious decision when new options appear.
pub fn machine_fingerprint(config: &GpuConfig, kernel: &KernelSpec, options: &SimOptions) -> u64 {
    let mut fold = Fold::new(0x4551_534E_0000_0001); // "EQSN" v1 domain tag
    fold_gpu_config(&mut fold, config);
    kernel.fold_identity(&mut fold);
    let SimOptions {
        max_cycles_per_invocation,
        record_epochs,
        threads: _,         // ignored by the engine
        max_batch_ticks: _, // wall-clock only: windows never change results
        fast_forward: _,    // wall-clock only: fast-forward never changes results
    } = options;
    fold.add(*max_cycles_per_invocation);
    fold.add(u64::from(*record_epochs));
    fold.finish()
}

/// Encodes [`RunStats`] into the snapshot format's canonical bytes.
///
/// Deterministic and exact (floats as bit patterns), so two `RunStats`
/// that compare equal encode to identical bytes — the serving layer
/// caches and ships these bytes and proves cache hits byte-identical.
pub fn encode_run_stats(stats: &RunStats) -> Vec<u8> {
    let mut w = Writer::new();
    put_run_stats(&mut w, stats);
    w.into_bytes()
}

/// Decodes [`RunStats`] from [`encode_run_stats`] bytes.
///
/// # Errors
///
/// Returns a [`SnapshotError`] on malformed input.
pub fn decode_run_stats(bytes: &[u8]) -> Result<RunStats, SnapshotError> {
    let mut r = Reader::new(bytes);
    let stats = get_run_stats(&mut r)?;
    r.finish()?;
    Ok(stats)
}

/// Writes `RunStats` into an existing writer (no header).
pub fn put_run_stats(w: &mut Writer, stats: &RunStats) {
    // Exhaustive destructuring: a new RunStats field cannot ship without
    // being added to this codec (and its reader below).
    let RunStats {
        wall_time_fs,
        num_sms,
        sm_cycles_at,
        sm_time_at,
        mem_cycles_at,
        mem_time_at,
        sm_events,
        mem_events,
        warp_states,
        batched_ticks,
        epochs_executed,
        epochs,
        invocations,
    } = stats;
    w.u64(*wall_time_fs);
    w.usize(*num_sms);
    for v in sm_cycles_at {
        w.u64(*v);
    }
    for v in sm_time_at {
        w.u64(*v);
    }
    for v in mem_cycles_at {
        w.u64(*v);
    }
    for v in mem_time_at {
        w.u64(*v);
    }
    for e in sm_events {
        crate::sm::put_sm_events(w, e);
    }
    for e in mem_events {
        crate::memsys::put_mem_level_stats(w, e);
    }
    crate::counters::put_warp_state_counters(w, warp_states);
    w.u64(*batched_ticks);
    w.u64(*epochs_executed);
    w.usize(epochs.len());
    for e in epochs {
        put_epoch_record(w, e);
    }
    w.usize(invocations.len());
    for i in invocations {
        let InvocationStats {
            index,
            sm_cycles,
            wall_fs,
        } = i;
        w.usize(*index);
        w.u64(*sm_cycles);
        w.u64(*wall_fs);
    }
}

/// Reads `RunStats` written by [`put_run_stats`].
///
/// # Errors
///
/// Returns a [`SnapshotError`] on malformed input.
pub fn get_run_stats(r: &mut Reader<'_>) -> Result<RunStats, SnapshotError> {
    let wall_time_fs = r.u64()?;
    let num_sms = r.usize()?;
    let mut arrays = [[0u64; 3]; 4];
    for arr in &mut arrays {
        for v in arr.iter_mut() {
            *v = r.u64()?;
        }
    }
    let [sm_cycles_at, sm_time_at, mem_cycles_at, mem_time_at] = arrays;
    let mut sm_events = [crate::sm::SmLevelEvents::default(); 3];
    for e in &mut sm_events {
        *e = crate::sm::get_sm_events(r)?;
    }
    let mut mem_events = [crate::memsys::MemLevelStats::default(); 3];
    for e in &mut mem_events {
        *e = crate::memsys::get_mem_level_stats(r)?;
    }
    let warp_states = crate::counters::get_warp_state_counters(r)?;
    let batched_ticks = r.u64()?;
    let epochs_executed = r.u64()?;
    let n_epochs = r.seq_len(8)?;
    let mut epochs = Vec::with_capacity(n_epochs);
    for _ in 0..n_epochs {
        epochs.push(get_epoch_record(r)?);
    }
    let n_inv = r.seq_len(24)?;
    let mut invocations = Vec::with_capacity(n_inv);
    for _ in 0..n_inv {
        invocations.push(InvocationStats {
            index: r.usize()?,
            sm_cycles: r.u64()?,
            wall_fs: r.u64()?,
        });
    }
    Ok(RunStats {
        wall_time_fs,
        num_sms,
        sm_cycles_at,
        sm_time_at,
        mem_cycles_at,
        mem_time_at,
        sm_events,
        mem_events,
        warp_states,
        batched_ticks,
        epochs_executed,
        epochs,
        invocations,
    })
}

pub(crate) fn put_epoch_record(w: &mut Writer, e: &EpochRecord) {
    let EpochRecord {
        epoch_index,
        invocation,
        end_fs,
        sm_level,
        mem_level,
        counters,
        mean_active_blocks,
        mean_target_blocks,
    } = e;
    w.u64(*epoch_index);
    w.usize(*invocation);
    w.u64(*end_fs);
    put_vf_level(w, *sm_level);
    put_vf_level(w, *mem_level);
    crate::counters::put_warp_state_counters(w, counters);
    w.f64(*mean_active_blocks);
    w.f64(*mean_target_blocks);
}

pub(crate) fn get_epoch_record(r: &mut Reader<'_>) -> Result<EpochRecord, SnapshotError> {
    Ok(EpochRecord {
        epoch_index: r.u64()?,
        invocation: r.usize()?,
        end_fs: r.u64()?,
        sm_level: r.vf_level()?,
        mem_level: r.vf_level()?,
        counters: crate::counters::get_warp_state_counters(r)?,
        mean_active_blocks: r.f64()?,
        mean_target_blocks: r.f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(42);
        w.bool(true);
        w.bool(false);
        w.f64(-0.5);
        w.bytes(b"hello");
        put_vf_level(&mut w, VfLevel::High);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.5f64).to_bits());
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.vf_level().unwrap(), VfLevel::High);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(r.u64(), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn bad_bool_and_level_are_corrupt() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(r.bool(), Err(SnapshotError::Corrupt { .. })));
        let mut r = Reader::new(&[9]);
        assert!(matches!(r.vf_level(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn absurd_sequence_length_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2); // declared length far beyond the input
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.seq_len(8), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let r = Reader::new(&[0]);
        assert_eq!(
            r.finish(),
            Err(SnapshotError::TrailingBytes { trailing: 1 })
        );
    }

    #[test]
    fn fold_is_order_sensitive() {
        let mut a = Fold::new(1);
        a.add(1);
        a.add(2);
        let mut b = Fold::new(1);
        b.add(2);
        b.add(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fold_bytes_are_length_prefixed() {
        let mut a = Fold::new(0);
        a.add_bytes(b"ab");
        a.add_bytes(b"c");
        let mut b = Fold::new(0);
        b.add_bytes(b"a");
        b.add_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fingerprint_tracks_result_affecting_options_only() {
        let config = GpuConfig::gtx480();
        let kernel = crate::kernel::KernelSpec::new(
            "fp-test",
            crate::kernel::KernelCategory::Compute,
            4,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 8,
                program: std::sync::Arc::new(crate::program::Program::new(vec![
                    crate::program::Segment::new(vec![crate::program::Instr::alu()], 4),
                ])),
            }],
        );
        let base = SimOptions::default();
        let fp = machine_fingerprint(&config, &kernel, &base);
        let wall_clock_only = SimOptions {
            threads: 8,
            max_batch_ticks: 1,
            fast_forward: !base.fast_forward,
            ..base
        };
        assert_eq!(fp, machine_fingerprint(&config, &kernel, &wall_clock_only));
        let longer = SimOptions {
            max_cycles_per_invocation: base.max_cycles_per_invocation + 1,
            ..base
        };
        assert_ne!(fp, machine_fingerprint(&config, &kernel, &longer));
        let mut other_config = config.clone();
        other_config.num_sms += 1;
        assert_ne!(fp, machine_fingerprint(&other_config, &kernel, &base));
    }
}
