//! Randomized-input tests over the simulator, decision algorithm and power
//! model: random programs terminate with conserved instruction counts,
//! random counters never produce out-of-range decisions, and energy is
//! positive and component-additive.
//!
//! Inputs are drawn from the repo's own deterministic PRNG
//! ([`equalizer_sim::util::SplitMix64`]) instead of an external
//! property-testing framework, so the suite runs in a fully offline build
//! and every failure is reproducible from the fixed seed.

use std::sync::Arc;

use equalizer_core::{decide, table_i_votes, Action, Mode};
use equalizer_power::PowerModel;
use equalizer_sim::counters::WarpStateCounters;
use equalizer_sim::governor::{FixedBlocksGovernor, StaticGovernor};
use equalizer_sim::gpu::simulate;
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::prelude::*;
use equalizer_sim::util::SplitMix64;

/// Fixed seed: change only deliberately, and note it in the commit.
const SEED: u64 = 0xE9A1_12E8_0001;

/// Number of random kernels per simulation property.
const KERNEL_CASES: usize = 24;

/// Draws one weighted-random instruction, mirroring the old proptest
/// strategy (3x alu, 2x alu_dep, 2x streaming load, 1x working-set load,
/// 1x streaming store, 1x barrier).
fn draw_instr(rng: &mut SplitMix64) -> Instr {
    match rng.next_below(10) {
        0..=2 => Instr::alu(),
        3..=4 => Instr::alu_dep(),
        5..=6 => Instr::load_streaming(),
        7 => Instr::Mem(MemInstr {
            is_load: true,
            pattern: AddressPattern::WorkingSet {
                lines: 1 + rng.next_below(63) as u32,
            },
            accesses: 2,
            space: MemSpace::Global,
        }),
        8 => Instr::Mem(MemInstr {
            is_load: false,
            pattern: AddressPattern::Streaming,
            accesses: 1,
            space: MemSpace::Global,
        }),
        _ => Instr::Sync,
    }
}

/// Draws a small random kernel with 1–7 body instructions.
fn draw_kernel(rng: &mut SplitMix64) -> KernelSpec {
    let body_len = 1 + rng.next_below(7) as usize;
    let body: Vec<Instr> = (0..body_len).map(|_| draw_instr(rng)).collect();
    let iters = 1 + rng.next_below(19) as u32;
    let w_cta = 1 + rng.next_below(4) as usize;
    let max_blocks = 1 + rng.next_below(4) as usize;
    let grid = 1 + rng.next_below(19);
    KernelSpec::new(
        "rand",
        KernelCategory::Unsaturated,
        w_cta,
        max_blocks,
        vec![Invocation {
            grid_blocks: grid,
            program: Arc::new(Program::new(vec![Segment::new(body, iters)])),
        }],
    )
}

/// Dynamic instructions that consume issue slots (barriers do not).
fn issued_instrs(kernel: &KernelSpec) -> u64 {
    kernel
        .invocations()
        .iter()
        .map(|inv| {
            let per_warp: u64 = inv
                .program
                .segments()
                .iter()
                .map(|seg| {
                    let non_sync = seg
                        .body
                        .iter()
                        .filter(|i| !matches!(i, Instr::Sync))
                        .count() as u64;
                    non_sync * u64::from(seg.iterations)
                })
                .sum();
            per_warp * inv.grid_blocks * kernel.warps_per_block() as u64
        })
        .sum()
}

fn small_config() -> GpuConfig {
    let mut c = GpuConfig::gtx480();
    c.num_sms = 2;
    c
}

/// Every random kernel terminates and issues exactly its dynamic
/// instruction count.
#[test]
fn random_kernels_terminate_and_conserve_instructions() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..KERNEL_CASES {
        let kernel = draw_kernel(&mut rng);
        let stats = simulate(&small_config(), &kernel, &mut StaticGovernor)
            .unwrap_or_else(|e| panic!("case {case}: kernel must terminate: {e}"));
        assert_eq!(
            stats.instructions(),
            issued_instrs(&kernel),
            "case {case}: instruction conservation"
        );
        assert!(stats.wall_time_fs > 0, "case {case}: time advances");
    }
}

/// Batching is invisible: every random kernel produces bit-identical
/// `RunStats` with the default options and with per-tick stepping
/// (`max_batch_ticks = 1`), across varying SM counts and both VRM
/// topologies.
#[test]
fn random_kernels_match_per_tick() {
    use equalizer_sim::gpu::simulate_with;

    let mut rng = SplitMix64::new(SEED ^ 4);
    for case in 0..KERNEL_CASES {
        let kernel = draw_kernel(&mut rng);
        let mut config = small_config();
        config.num_sms = 2 + rng.next_below(3) as usize;
        config.per_sm_vrm = rng.next_below(2) == 1;
        let per_tick = simulate_with(
            &config,
            &kernel,
            &mut StaticGovernor,
            SimOptions {
                max_batch_ticks: 1,
                ..SimOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("case {case}: per-tick run failed: {e}"));
        let fast = simulate_with(&config, &kernel, &mut StaticGovernor, SimOptions::default())
            .unwrap_or_else(|e| panic!("case {case}: default run failed: {e}"));
        assert_eq!(
            per_tick, fast,
            "case {case}: diverged from per-tick stepping (num_sms={}, per_sm_vrm={})",
            config.num_sms, config.per_sm_vrm
        );
    }
}

/// Throttling concurrency never deadlocks and never changes the work.
#[test]
fn fixed_block_throttling_conserves_work() {
    let mut rng = SplitMix64::new(SEED ^ 1);
    for case in 0..KERNEL_CASES {
        let kernel = draw_kernel(&mut rng);
        let blocks = 1 + rng.next_below(3) as usize;
        let stats = simulate(
            &small_config(),
            &kernel,
            &mut FixedBlocksGovernor::new(blocks),
        )
        .unwrap_or_else(|e| panic!("case {case}: throttled kernel must terminate: {e}"));
        assert_eq!(
            stats.instructions(),
            issued_instrs(&kernel),
            "case {case}: throttling conserves work"
        );
    }
}

/// Energy is positive and equals the sum of its components for any run.
#[test]
fn energy_is_positive_and_additive() {
    let mut rng = SplitMix64::new(SEED ^ 2);
    for case in 0..KERNEL_CASES {
        let kernel = draw_kernel(&mut rng);
        let stats = simulate(&small_config(), &kernel, &mut StaticGovernor)
            .unwrap_or_else(|e| panic!("case {case}: run failed: {e}"));
        let e = PowerModel::gtx480().energy(&stats);
        assert!(e.total_j() > 0.0, "case {case}: positive energy");
        let sum = e.leakage_j
            + e.sm_dynamic_j
            + e.sm_clock_j
            + e.mem_dynamic_j
            + e.mem_clock_j
            + e.dram_standby_j;
        assert!(
            (e.total_j() - sum).abs() < 1e-12,
            "case {case}: components sum to total"
        );
        assert!(
            e.leakage_j > 0.0,
            "case {case}: leakage accrues with wall time"
        );
    }
}

/// Algorithm 1 output is always within bounds: block delta in {-1, 0, +1}
/// and actions only from the defined pair.
#[test]
fn decision_is_always_bounded() {
    let mut rng = SplitMix64::new(SEED ^ 3);
    for case in 0..512 {
        let active = rng.next_below(49);
        let waiting = rng.next_below(49);
        let xalu = rng.next_below(49);
        let xmem = rng.next_below(49);
        let w_cta = 1 + rng.next_below(24) as usize;
        let samples = 32;
        let c = WarpStateCounters {
            samples,
            active: active * samples,
            waiting: waiting * samples,
            excess_alu: xalu * samples,
            excess_mem: xmem * samples,
            ..WarpStateCounters::default()
        };
        let p = decide(&c, w_cta);
        assert!(
            (-1..=1).contains(&p.block_delta),
            "case {case}: block delta bounded"
        );
        // Block reductions happen only under heavy memory contention.
        if p.block_delta < 0 {
            assert!(
                xmem as f64 > w_cta as f64,
                "case {case}: reduce only on X_mem"
            );
            assert_eq!(p.action, Some(Action::Mem), "case {case}");
        }
        // Block increases only when most warps wait.
        if p.block_delta > 0 {
            assert!(
                waiting as f64 > active as f64 / 2.0,
                "case {case}: grow only when waiting dominates"
            );
        }
    }
}

/// Table I never boosts in energy mode and never throttles in
/// performance mode.
#[test]
fn table_i_is_mode_consistent() {
    for action in [Action::Comp, Action::Mem] {
        let e = table_i_votes(Mode::Energy, Some(action));
        for v in [e.sm, e.mem] {
            assert_ne!(v, equalizer_core::Vote::Up, "energy mode never boosts");
        }
        let p = table_i_votes(Mode::Performance, Some(action));
        for v in [p.sm, p.mem] {
            assert_ne!(
                v,
                equalizer_core::Vote::Down,
                "performance mode never throttles"
            );
        }
    }
}
