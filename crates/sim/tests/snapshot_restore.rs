//! Snapshot/restore correctness: a run resumed from a mid-run snapshot
//! must be bit-identical to an uninterrupted run, with fused windows on
//! or off, and malformed snapshot bytes must fail with a typed error —
//! never a panic.

use std::sync::Arc;

use equalizer_sim::ccws::CcwsConfig;
use equalizer_sim::prelude::*;
use equalizer_sim::snapshot::SnapshotError;

fn small_config() -> GpuConfig {
    let mut c = GpuConfig::gtx480();
    c.num_sms = 2;
    c
}

/// A kernel that exercises the memory system (LD/ST queues, MSHRs, L1,
/// interconnect) so mid-run snapshots capture in-flight machine state.
fn mixed_kernel(blocks: u64, iters: u32) -> KernelSpec {
    KernelSpec::new(
        "snapshot-mixed",
        KernelCategory::Memory,
        4,
        8,
        vec![Invocation {
            grid_blocks: blocks,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![Instr::alu(), Instr::load_streaming(), Instr::alu_dep()],
                iters,
            )])),
        }],
    )
}

/// Runs `engine` to completion under a fresh static governor.
fn finish(engine: &mut Engine) -> RunStats {
    engine.run(&mut StaticGovernor).unwrap()
}

/// Steps `engine` to the `k`-th epoch boundary.
fn run_to_epoch(engine: &mut Engine, k: u64) {
    while engine.epoch_index() < k {
        let ev = engine.run_epoch(&mut StaticGovernor).unwrap();
        assert_ne!(ev, StepEvent::Complete, "kernel too short for epoch {k}");
    }
}

#[test]
fn resume_at_epoch_is_bit_identical() {
    let config = small_config();
    let kernel = mixed_kernel(64, 600);
    let opts = SimOptions::default();
    let uninterrupted = simulate_with(&config, &kernel, &mut StaticGovernor, opts).unwrap();

    let mut engine = Engine::new(&config, &kernel, opts).unwrap();
    run_to_epoch(&mut engine, 2);
    let bytes = engine.snapshot();

    // The snapshotted engine itself continues unperturbed.
    assert_eq!(finish(&mut engine), uninterrupted);

    // A restored engine resumes to the identical result, and re-snapshots
    // to the identical bytes before taking another step.
    let mut restored = Engine::restore(&config, &kernel, opts, &bytes).unwrap();
    assert_eq!(restored.epoch_index(), 2);
    assert_eq!(restored.snapshot(), bytes);
    assert_eq!(finish(&mut restored), uninterrupted);
}

#[test]
fn resume_is_bit_identical_across_batching() {
    let config = small_config();
    let kernel = mixed_kernel(48, 500);
    // The per-tick reference first, then the default options.
    let variants = [
        SimOptions {
            max_batch_ticks: 1,
            ..SimOptions::default()
        },
        SimOptions::default(),
    ];
    let reference = simulate_with(&config, &kernel, &mut StaticGovernor, variants[0]).unwrap();

    for take_with in variants {
        let mut engine = Engine::new(&config, &kernel, take_with).unwrap();
        run_to_epoch(&mut engine, 2);
        let bytes = engine.snapshot();
        // The fingerprint excludes the wall-clock-only knobs, so a
        // snapshot taken with windows on or off restores under either.
        for resume_with in variants {
            let mut restored = Engine::restore(&config, &kernel, resume_with, &bytes).unwrap();
            assert_eq!(
                finish(&mut restored),
                reference,
                "take {take_with:?}, resume {resume_with:?}"
            );
        }
    }
}

#[test]
fn snapshot_round_trips_per_sm_vrm_and_ccws_state() {
    let mut config = small_config();
    config.per_sm_vrm = true;
    config.ccws = Some(CcwsConfig::default());
    let kernel = mixed_kernel(48, 500);
    let opts = SimOptions::default();
    let uninterrupted = simulate_with(&config, &kernel, &mut StaticGovernor, opts).unwrap();

    let mut engine = Engine::new(&config, &kernel, opts).unwrap();
    run_to_epoch(&mut engine, 2);
    let bytes = engine.snapshot();
    let mut restored = Engine::restore(&config, &kernel, opts, &bytes).unwrap();
    assert_eq!(restored.snapshot(), bytes);
    assert_eq!(finish(&mut restored), uninterrupted);
}

#[test]
fn snapshot_of_completed_run_restores_complete() {
    let config = small_config();
    let kernel = mixed_kernel(16, 60);
    let opts = SimOptions::default();
    let mut engine = Engine::new(&config, &kernel, opts).unwrap();
    let stats = finish(&mut engine);
    let bytes = engine.snapshot();
    let restored = Engine::restore(&config, &kernel, opts, &bytes).unwrap();
    assert!(restored.is_complete());
    assert_eq!(restored.stats(), stats);
}

#[test]
fn every_truncation_fails_with_typed_error() {
    let config = small_config();
    let kernel = mixed_kernel(32, 300);
    let opts = SimOptions::default();
    let mut engine = Engine::new(&config, &kernel, opts).unwrap();
    run_to_epoch(&mut engine, 1);
    let bytes = engine.snapshot();

    // Every length through the header and epilogue, sampled lengths
    // through the (large, homogeneous) machine body.
    let lengths =
        (0..bytes.len()).filter(|&len| len < 256 || len + 256 > bytes.len() || len % 97 == 0);
    for len in lengths {
        let err = Engine::restore(&config, &kernel, opts, &bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes must fail"));
        match err {
            SnapshotError::BadMagic
            | SnapshotError::Truncated { .. }
            | SnapshotError::Corrupt { .. } => {}
            other => panic!("truncation to {len} gave unexpected error {other:?}"),
        }
    }
}

/// A snapshot that lists one MSHR line twice is rejected: the restored
/// file would keep a phantom entry that no response ever frees. The
/// test finds each SM's MSHR section by its shape (a count equal to the
/// SM's occupancy, then `(line, waiters)` pairs in ascending line order)
/// and overwrites the second line with the first.
#[test]
fn duplicate_mshr_line_is_rejected() {
    let config = small_config();
    let kernel = mixed_kernel(32, 300);
    let opts = SimOptions::default();
    let mut engine = Engine::new(&config, &kernel, opts).unwrap();
    run_to_epoch(&mut engine, 1);
    let occupancy: Vec<u64> = (0..config.num_sms)
        .map(|i| engine.with_sm(i, |sm| sm.mshr_occupancy() as u64))
        .collect();
    assert!(
        occupancy.iter().any(|&n| n >= 2),
        "no SM holds two outstanding misses: {occupancy:?}"
    );
    let bytes = engine.snapshot();
    let word = |at: usize| {
        bytes
            .get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    };
    let max_warps = config.max_warps_per_sm as u64;
    // Line addresses of the streaming loads sit far above any count.
    let is_line = |x: u64| x >= 1 << 32;
    let mut rejected = 0;
    for at in 0..bytes.len() {
        let Some(n) = word(at) else { break };
        if n < 2 || !occupancy.contains(&n) {
            continue;
        }
        let (Some(first), Some(waiters)) = (word(at + 8), word(at + 16)) else {
            continue;
        };
        if !is_line(first) || waiters > max_warps {
            continue;
        }
        let second_at = at + 24 + 8 * waiters as usize;
        if !word(second_at).is_some_and(|second| is_line(second) && second > first) {
            continue;
        }
        let mut bad = bytes.clone();
        bad[second_at..second_at + 8].copy_from_slice(&first.to_le_bytes());
        if let Err(SnapshotError::Corrupt {
            what: "MSHR lists a line twice",
            ..
        }) = Engine::restore(&config, &kernel, opts, &bad)
        {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "no MSHR section found to corrupt");
}

/// Feeds `bytes`, mutated three ways at sampled offsets, to
/// `Engine::restore`: a flipped byte, and an 8-byte window overwritten
/// with `u64::MAX` or with `1 << 40` (length fields past their caps,
/// times and counters near overflow). Every mutant must restore or fail
/// with a typed error, never panic; header damage must always fail.
fn assert_mutants_never_panic(config: &GpuConfig, kernel: &KernelSpec, bytes: &[u8]) {
    let opts = SimOptions::default();
    // Every offset through the header and epilogue, sampled offsets
    // through the (large, homogeneous) machine body.
    let sampled = |stride: usize| {
        (0..bytes.len()).filter(move |&i| i < 256 || i + 256 > bytes.len() || i % stride == 0)
    };
    for i in sampled(97) {
        let mut bad = bytes.to_vec();
        bad[i] ^= 0xA5;
        let result = Engine::restore(config, kernel, opts, &bad);
        if i < 16 {
            let err = result
                .err()
                .unwrap_or_else(|| panic!("header corruption at byte {i} must be detected"));
            match (i, err) {
                (0..=3, SnapshotError::BadMagic)
                | (4..=7, SnapshotError::UnsupportedVersion(_))
                | (8..=15, SnapshotError::MachineMismatch { .. }) => {}
                (_, other) => panic!("byte {i} gave unexpected error {other:?}"),
            }
        }
    }
    for i in sampled(89).filter(|&i| i + 8 <= bytes.len()) {
        for value in [u64::MAX, 1 << 40] {
            let mut bad = bytes.to_vec();
            bad[i..i + 8].copy_from_slice(&value.to_le_bytes());
            let result = Engine::restore(config, kernel, opts, &bad);
            assert!(
                i >= 16 || result.is_err(),
                "header window at byte {i} must be detected"
            );
        }
    }
}

#[test]
fn corrupted_bytes_never_panic() {
    let kernel = mixed_kernel(32, 300);
    // The plain machine, and one that also carries CCWS and per-SM VRM
    // state (per-SM clocks, lost-locality scores, issue masks).
    let plain = small_config();
    let mut ccws_vrm = small_config();
    ccws_vrm.per_sm_vrm = true;
    ccws_vrm.ccws = Some(CcwsConfig::default());
    for config in [plain, ccws_vrm] {
        let mut engine = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
        run_to_epoch(&mut engine, 1);
        assert_mutants_never_panic(&config, &kernel, &engine.snapshot());
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let config = small_config();
    let kernel = mixed_kernel(16, 60);
    let opts = SimOptions::default();
    let mut engine = Engine::new(&config, &kernel, opts).unwrap();
    run_to_epoch(&mut engine, 1);
    let mut bytes = engine.snapshot();
    bytes.push(0);
    match Engine::restore(&config, &kernel, opts, &bytes) {
        Err(SnapshotError::TrailingBytes { trailing: 1 }) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

#[test]
fn different_machine_is_rejected() {
    let config = small_config();
    let kernel = mixed_kernel(32, 300);
    let opts = SimOptions::default();
    let mut engine = Engine::new(&config, &kernel, opts).unwrap();
    run_to_epoch(&mut engine, 1);
    let bytes = engine.snapshot();

    // A different machine shape, a different kernel identity, and a
    // different simulation-visible option must all be rejected.
    let mut other_config = config.clone();
    other_config.num_sms = 4;
    assert!(matches!(
        Engine::restore(&other_config, &kernel, opts, &bytes),
        Err(SnapshotError::MachineMismatch { .. })
    ));

    let other_kernel = mixed_kernel(33, 300);
    assert!(matches!(
        Engine::restore(&config, &other_kernel, opts, &bytes),
        Err(SnapshotError::MachineMismatch { .. })
    ));

    let other_opts = SimOptions {
        max_cycles_per_invocation: opts.max_cycles_per_invocation + 1,
        ..opts
    };
    assert!(matches!(
        Engine::restore(&config, &kernel, other_opts, &bytes),
        Err(SnapshotError::MachineMismatch { .. })
    ));
}
