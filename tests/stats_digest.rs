//! Pinned `RunStats` digests: hot-path rewrites of the simulator must
//! leave every simulated result bit-identical.
//!
//! Each case folds every [`RunStats`] field (exhaustive destructuring,
//! so a new field cannot ship unfolded; `batched_ticks` is a wall-clock
//! diagnostic and stays out) into one `u64` and compares it with a value
//! recorded before the change under test. The cases cover random
//! SplitMix64 kernels with barriers, dependent ALU ops and launch stagger,
//! a texture-path kernel, every governor family (baseline, Equalizer in
//! both modes, DynCTA, CCWS, per-SM VRMs), per-tick stepping
//! (`max_batch_ticks = 1`) against the default options, and a machine
//! whose nearly empty shared queues and MSHR file keep the LD/ST unit
//! back-pressured.
//!
//! A deliberate change to simulated behaviour must re-record the table:
//! the failure message prints the digests of the current build.

use std::sync::Arc;

use equalizer_baselines::DynCta;
use equalizer_core::{Equalizer, Mode};
use equalizer_sim::ccws::CcwsConfig;
use equalizer_sim::memsys::MemLevelStats;
use equalizer_sim::prelude::*;
use equalizer_sim::sm::SmLevelEvents;
use equalizer_sim::stats::InvocationStats;
use equalizer_sim::util::{mix64, SplitMix64};

/// Fixed seed: change only deliberately, and re-record the table.
const SEED: u64 = 0x00D1_6E57_0013;

/// Random kernels per run (three fixed kernels come on top).
const RANDOM_KERNELS: usize = 5;

/// Digests recorded on the pre-change simulator, one per (kernel,
/// governor) pair in [`cases`] order: kernels outer, [`GOVERNORS`] inner.
const EXPECTED: [u64; 48] = [
    0xd44352159d827f4f,
    0xd44352159d827f4f,
    0xd44352159d827f4f,
    0xd44352159d827f4f,
    0xd44352159d827f4f,
    0xd44352159d827f4f,
    0x8cd358142d1ff66e,
    0xab7546a568830445,
    0xf60d150a81cd21b3,
    0xe1b761ff2a35400d,
    0x8cd358142d1ff66e,
    0x5a5f689cd0065ee4,
    0x71f10dde5a6f1c14,
    0xca297cea7ab6cc7e,
    0x1bdb169c00678994,
    0x71f10dde5a6f1c14,
    0x71f10dde5a6f1c14,
    0xca297cea7ab6cc7e,
    0xc70c81edc0d9cabc,
    0xa432911e0b4d763b,
    0x9cc681298c9452bb,
    0xc70c81edc0d9cabc,
    0xc70c81edc0d9cabc,
    0xa432911e0b4d763b,
    0x0265c004ed722305,
    0x4ded328eceb2a16d,
    0x56d99557967276f9,
    0x162daacb18397862,
    0x0265c004ed722305,
    0xdbd95fb69f86fa04,
    0x05b1086aeb7fe4b2,
    0xaf659ad44e2f92ed,
    0xddef1383210974fe,
    0x239353c13b288125,
    0x05b1086aeb7fe4b2,
    0xaf659ad44e2f92ed,
    0x529e3dc8d05e770d,
    0xed3c372ef14e1d6b,
    0x9c23f9c39e4a0164,
    0xe30858cba4fa5990,
    0xcdd18a9d56a3d691,
    0x8a57be5f4871a95e,
    0x3dfdbb524f6bdd6c,
    0xcd522271b3878b08,
    0xea5648c65b472588,
    0x3dfdbb524f6bdd6c,
    0xde71ecc20deaff9e,
    0x748ca49db86c096a,
];

/// The governor families every kernel runs under.
const GOVERNORS: [Gov; 6] = [
    Gov::Baseline,
    Gov::EqualizerPerf,
    Gov::EqualizerEnergy,
    Gov::DynCta,
    Gov::Ccws,
    Gov::PerSmVrm,
];

#[derive(Debug, Clone, Copy)]
enum Gov {
    Baseline,
    EqualizerPerf,
    EqualizerEnergy,
    DynCta,
    Ccws,
    PerSmVrm,
}

impl Gov {
    /// The machine this family runs on, derived from `base`.
    fn config(self, base: &GpuConfig) -> GpuConfig {
        let mut c = base.clone();
        match self {
            Gov::Ccws => c.ccws = Some(CcwsConfig::default()),
            Gov::PerSmVrm => c.per_sm_vrm = true,
            _ => {}
        }
        c
    }

    fn governor(self, num_sms: usize) -> Box<dyn Governor> {
        match self {
            Gov::Baseline | Gov::Ccws => Box::new(StaticGovernor),
            Gov::EqualizerPerf => Box::new(Equalizer::new(Mode::Performance, num_sms)),
            Gov::EqualizerEnergy => Box::new(Equalizer::new(Mode::Energy, num_sms)),
            Gov::DynCta => Box::new(DynCta::new()),
            Gov::PerSmVrm => {
                Box::new(Equalizer::new(Mode::Performance, num_sms).with_per_sm_vrm(true))
            }
        }
    }
}

/// Draws one weighted-random instruction: ALU (independent and
/// dependent), streaming and working-set loads, stores and barriers.
fn draw_instr(rng: &mut SplitMix64) -> Instr {
    match rng.next_below(10) {
        0..=2 => Instr::alu(),
        3..=4 => Instr::alu_dep(),
        5..=6 => Instr::load_streaming(),
        7 => Instr::Mem(MemInstr {
            is_load: true,
            pattern: AddressPattern::WorkingSet {
                lines: 1 + rng.next_below(255) as u32,
            },
            accesses: 1 + rng.next_below(2) as u8,
            space: MemSpace::Global,
        }),
        8 => store(),
        _ => Instr::Sync,
    }
}

/// A fully coalesced streaming store.
fn store() -> Instr {
    Instr::Mem(MemInstr {
        is_load: false,
        pattern: AddressPattern::Streaming,
        accesses: 1,
        space: MemSpace::Global,
    })
}

/// A random kernel long enough to span several epochs, so governors
/// act (VF transitions, block pause/unpause) during the run.
fn draw_kernel(rng: &mut SplitMix64) -> KernelSpec {
    let body_len = 2 + rng.next_below(7) as usize;
    let body: Vec<Instr> = (0..body_len).map(|_| draw_instr(rng)).collect();
    let iters = 20 + rng.next_below(60) as u32;
    let w_cta = 1 + rng.next_below(6) as usize;
    let max_blocks = 2 + rng.next_below(7) as usize;
    let grid = 8 + rng.next_below(24);
    KernelSpec::new(
        "digest-rand",
        KernelCategory::Unsaturated,
        w_cta,
        max_blocks,
        vec![Invocation {
            grid_blocks: grid,
            program: Arc::new(Program::new(vec![Segment::new(body, iters)])),
        }],
    )
}

/// A texture-space kernel: loads bypass the L1 and its LD/ST
/// back-pressure, in two invocations.
fn texture_kernel() -> KernelSpec {
    let tex = Instr::Mem(MemInstr {
        is_load: true,
        pattern: AddressPattern::WorkingSet { lines: 96 },
        accesses: 2,
        space: MemSpace::Texture,
    });
    let program = Arc::new(Program::new(vec![Segment::new(
        vec![
            tex,
            Instr::alu(),
            Instr::alu_dep(),
            Instr::alu(),
            Instr::Sync,
        ],
        40,
    )]));
    KernelSpec::new(
        "digest-tex",
        KernelCategory::Cache,
        4,
        6,
        vec![
            Invocation {
                grid_blocks: 20,
                program: program.clone(),
            },
            Invocation {
                grid_blocks: 12,
                program,
            },
        ],
    )
}

/// A barrier-free kernel of 16-warp blocks: up to 128 resident warps.
fn wide_kernel() -> KernelSpec {
    KernelSpec::new(
        "digest-wide",
        KernelCategory::Memory,
        16,
        8,
        vec![Invocation {
            grid_blocks: 20,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![
                    Instr::alu(),
                    Instr::load_streaming(),
                    Instr::alu_dep(),
                    store(),
                    Instr::alu(),
                ],
                25,
            )])),
        }],
    )
}

/// A bandwidth-bound kernel of two-warp blocks.
fn memory_kernel() -> KernelSpec {
    KernelSpec::new(
        "digest-mem",
        KernelCategory::Memory,
        2,
        8,
        vec![Invocation {
            grid_blocks: 24,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![store(), store(), Instr::alu()],
                100,
            )])),
        }],
    )
}

/// The kernels and machines under test, in table order.
fn cases() -> Vec<(GpuConfig, KernelSpec)> {
    let mut rng = SplitMix64::new(SEED);
    let mut out = Vec::new();
    for _ in 0..RANDOM_KERNELS {
        let mut config = GpuConfig::gtx480();
        config.num_sms = 2 + rng.next_below(2) as usize;
        config.warp_launch_stagger = [0, 3, 8][rng.next_below(3) as usize];
        out.push((config, draw_kernel(&mut rng)));
    }
    let mut config = GpuConfig::gtx480();
    config.num_sms = 2;
    out.push((config.clone(), texture_kernel()));
    // More warps than one 64-bit word of scheduler positions holds.
    let mut wide = config.clone();
    wide.max_warps_per_sm = 128;
    out.push((wide, wide_kernel()));
    // Starved DRAM: the LD/ST queues back up, so Equalizer sees X_mem
    // above W_cta and pauses blocks.
    config.dram_bytes_per_cycle = 16;
    out.push((config, memory_kernel()));
    out
}

/// Digests of [`back_pressure_cases`], recorded like [`EXPECTED`]:
/// kernels outer, [`GOVERNORS`] inner.
const BACK_PRESSURE_EXPECTED: [u64; 12] = [
    0xcb267c30a9fe055a,
    0xed6ff93491166c87,
    0xb26f5382466491fb,
    0xcb267c30a9fe055a,
    0x4c06bf36a50208bc,
    0x383e2629f0f52924,
    0x6a8c4608ba9ce79b,
    0x97667b1355e5c462,
    0x5e77172c5fc4e744,
    0x39dd1ba9d218b7d4,
    0x6a8c4608ba9ce79b,
    0x97667b1355e5c462,
];

/// The memory and texture kernels on a 2-SM machine whose shared queues
/// and MSHR file are nearly gone: a 2-entry interconnect and texture
/// queue, and two MSHRs per SM. The LD/ST head then waits on a refused
/// injection for many cycles in a row, texture loads stall on a full
/// MSHR file, and memory-ready warps pile up as `ExcessMem`.
fn back_pressure_cases() -> Vec<(GpuConfig, KernelSpec)> {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 2;
    config.icnt_cap = 2;
    config.tex_queue_cap = 2;
    config.l1_mshr = 2;
    vec![
        (config.clone(), memory_kernel()),
        (config, texture_kernel()),
    ]
}

/// The default options, or the per-tick reference that never opens a
/// fused window.
fn opts(per_tick: bool) -> SimOptions {
    let default = SimOptions::default();
    if per_tick {
        SimOptions {
            max_batch_ticks: 1,
            ..default
        }
    } else {
        default
    }
}

struct Fold(u64);

impl Fold {
    fn add(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn counters(&mut self, c: &WarpStateCounters) {
        let WarpStateCounters {
            active,
            waiting,
            issued,
            excess_alu,
            excess_mem,
            others,
            samples,
            cycles,
            idle_cycles,
        } = c;
        for x in [
            active,
            waiting,
            issued,
            excess_alu,
            excess_mem,
            others,
            samples,
            cycles,
            idle_cycles,
        ] {
            self.add(*x);
        }
    }
}

/// Folds every result-bearing `RunStats` field into one `u64`.
fn digest(stats: &RunStats) -> u64 {
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
        batched_ticks: _, // wall-clock diagnostic, excluded from equality
        epochs_executed,
        epochs,
        invocations,
    } = stats;
    let mut f = Fold(0x5354_4154_5344_4947);
    f.add(*wall_time_fs);
    f.add(*num_sms as u64);
    for a in [sm_cycles_at, sm_time_at, mem_cycles_at, mem_time_at] {
        a.iter().for_each(|x| f.add(*x));
    }
    for e in sm_events {
        let SmLevelEvents {
            issued,
            alu_ops,
            mem_instrs,
            l1_accesses,
            l1_hits,
            busy_cycles,
        } = e;
        for x in [
            issued,
            alu_ops,
            mem_instrs,
            l1_accesses,
            l1_hits,
            busy_cycles,
        ] {
            f.add(*x);
        }
    }
    for e in mem_events {
        let MemLevelStats {
            l2_accesses,
            l2_hits,
            dram_accesses,
            dram_busy_cycles,
            dram_idle_upstream_cycles,
            icnt_occupancy_sum,
        } = e;
        for x in [
            l2_accesses,
            l2_hits,
            dram_accesses,
            dram_busy_cycles,
            dram_idle_upstream_cycles,
            icnt_occupancy_sum,
        ] {
            f.add(*x);
        }
    }
    f.counters(warp_states);
    f.add(*epochs_executed);
    f.add(epochs.len() as u64);
    for e in epochs {
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
        f.add(*epoch_index);
        f.add(*invocation as u64);
        f.add(*end_fs);
        f.add(sm_level.index() as u64);
        f.add(mem_level.index() as u64);
        f.counters(counters);
        f.add(mean_active_blocks.to_bits());
        f.add(mean_target_blocks.to_bits());
    }
    f.add(invocations.len() as u64);
    for i in invocations {
        let InvocationStats {
            index,
            sm_cycles,
            wall_fs,
        } = i;
        f.add(*index as u64);
        f.add(*sm_cycles);
        f.add(*wall_fs);
    }
    f.0
}

fn run(config: &GpuConfig, kernel: &KernelSpec, gov: Gov, per_tick: bool) -> RunStats {
    let config = gov.config(config);
    let mut governor = gov.governor(config.num_sms);
    simulate_with(&config, kernel, governor.as_mut(), opts(per_tick))
        .unwrap_or_else(|e| panic!("{gov:?} on {}: {e}", kernel.name()))
}

/// Kernels on which fused windows end the invocation late. Their last
/// block retires with stores still in flight; once the memory system
/// drains, the idle SMs open a window that runs to the next epoch
/// boundary, and only the per-tick step there notices the invocation is
/// over. Per-tick stepping stops on the first drained tick. The pinned
/// digests record the default runs, as the repository benchmark's
/// golden digests do, so fixing the defect re-pins both. Only governors
/// that can open a fused window overshoot ([`overshoots`]).
const TERMINATION_OVERSHOOT: [&str; 2] = ["digest-wide", "digest-mem"];

/// Whether `gov` on `kernel` records the termination overshoot. Per-SM
/// VRMs and CCWS open no fused window, so they end on the per-tick
/// reference's cycle.
fn overshoots(kernel: &KernelSpec, gov: Gov) -> bool {
    TERMINATION_OVERSHOOT.contains(&kernel.name()) && !matches!(gov, Gov::PerSmVrm | Gov::Ccws)
}

/// Asserts that `fast` differs from the per-tick `reference` only by
/// the termination overshoot: same work and the same epochs up to the
/// reference's end, then idle cycles up to the next epoch boundary.
fn assert_overshoots_termination(config: &GpuConfig, reference: &RunStats, fast: &RunStats) {
    assert_ne!(reference, fast, "the known overshoot is gone: re-pin");
    assert_eq!(reference.instructions(), fast.instructions());
    assert!(fast.epochs.starts_with(&reference.epochs));
    let end = |s: &RunStats| s.sm_cycles_at.iter().sum::<u64>();
    assert!(end(fast) > end(reference));
    assert!(end(fast) - end(reference) < config.epoch_cycles);
    assert_eq!(end(fast) % config.epoch_cycles, 0);
}

/// Formats a digest table for pasting into [`EXPECTED`].
fn table(digests: &[u64]) -> String {
    digests
        .iter()
        .map(|d| format!("    {d:#018x},\n"))
        .collect()
}

/// Every (kernel, governor) pair matches its pinned digest with the
/// default options, and per-tick stepping gives the same `RunStats`
/// (bar [`TERMINATION_OVERSHOOT`]), so every other pinned digest is the
/// per-tick reference's too; the governors demonstrably act on the way.
#[test]
fn run_stats_match_pinned_digests() {
    let all = cases();
    let instrs = || {
        all.iter()
            .flat_map(|(_, k)| k.invocations())
            .flat_map(|inv| inv.program.segments())
            .flat_map(|seg| &seg.body)
    };
    assert!(
        instrs().any(|i| matches!(i, Instr::Sync)),
        "no barrier drawn"
    );
    assert!(
        instrs().any(|i| matches!(i, Instr::Alu { dep: true })),
        "no dependent ALU op drawn"
    );
    assert!(
        all.iter().any(|(c, _)| c.warp_launch_stagger > 0),
        "no launch stagger drawn"
    );
    let mut got = Vec::new();
    let (mut vf_moved, mut blocks_paused) = (false, false);
    for (config, kernel) in &all {
        for gov in GOVERNORS {
            let reference = run(config, kernel, gov, true);
            let fast = run(config, kernel, gov, false);
            if overshoots(kernel, gov) {
                assert_overshoots_termination(config, &reference, &fast);
            } else {
                assert_eq!(
                    reference,
                    fast,
                    "{gov:?} on {}: diverged from per-tick stepping",
                    kernel.name()
                );
            }
            if matches!(gov, Gov::EqualizerPerf | Gov::EqualizerEnergy) {
                let nominal = VfLevel::Nominal.index();
                vf_moved |= fast
                    .sm_cycles_at
                    .iter()
                    .enumerate()
                    .any(|(level, &c)| level != nominal && c > 0);
                blocks_paused |= fast.epochs.windows(2).any(|w| {
                    w[0].invocation == w[1].invocation
                        && w[1].mean_target_blocks < w[0].mean_target_blocks
                });
            }
            got.push(digest(&fast));
        }
    }
    assert!(vf_moved, "no Equalizer case left the nominal VF level");
    assert!(blocks_paused, "no Equalizer case lowered its block target");
    assert!(
        got == EXPECTED,
        "RunStats digests changed; current build:\n{}",
        table(&got)
    );
}

/// The fold sees every result field and ignores the diagnostic.
#[test]
fn digest_covers_results_but_not_batched_ticks() {
    let mut stats = RunStats::default();
    let base = digest(&stats);
    stats.batched_ticks = 7;
    assert_eq!(digest(&stats), base);
    stats.warp_states.excess_mem = 1;
    assert_ne!(digest(&stats), base);
}

/// CCWS opens no fused window, so a kernel whose stores drain after its
/// last block retired ends on the same SM cycle as per-tick stepping.
#[test]
fn ccws_run_ends_on_the_per_tick_cycle() {
    let all = cases();
    let (config, kernel) = all.last().unwrap();
    assert_eq!(kernel.name(), "digest-mem");
    let end = |gov, per_tick| run(config, kernel, gov, per_tick).invocations[0].sm_cycles;
    assert!(
        end(Gov::Baseline, false) > end(Gov::Baseline, true),
        "the kernel must drain stores after its last block, as the baseline's overshoot shows"
    );
    assert_eq!(end(Gov::Ccws, false), end(Gov::Ccws, true));
}

/// Back-pressure on every shared queue and a nearly empty MSHR file
/// leave the results pinned, under every governor family.
#[test]
fn back_pressure_matches_pinned_digests() {
    let mut got = Vec::new();
    for (config, kernel) in &back_pressure_cases() {
        for gov in GOVERNORS {
            let stats = run(config, kernel, gov, false);
            assert!(
                stats.warp_states.excess_mem > 0,
                "{gov:?} on {}: no memory back-pressure",
                kernel.name()
            );
            got.push(digest(&stats));
        }
    }
    assert!(
        got == BACK_PRESSURE_EXPECTED,
        "back-pressure digests changed; current build:\n{}",
        table(&got)
    );
}
