//! Snapshot/restore correctness: a run resumed from a mid-run snapshot
//! must be bit-identical to an uninterrupted run, with tick batching on
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
        // snapshot taken with batching on or off restores under either.
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

#[test]
fn corrupted_bytes_never_panic() {
    let config = small_config();
    let kernel = mixed_kernel(32, 300);
    let opts = SimOptions::default();
    let mut engine = Engine::new(&config, &kernel, opts).unwrap();
    run_to_epoch(&mut engine, 1);
    let bytes = engine.snapshot();

    // Flipping any single byte must either decode to *some* valid state
    // (counter values are not self-certifying) or fail with a typed
    // error; it must never panic. Header corruption must always fail.
    let indices = (0..bytes.len()).filter(|&i| i < 256 || i + 256 > bytes.len() || i % 97 == 0);
    for i in indices {
        let mut bad = bytes.clone();
        bad[i] ^= 0xA5;
        let result = Engine::restore(&config, &kernel, opts, &bad);
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
