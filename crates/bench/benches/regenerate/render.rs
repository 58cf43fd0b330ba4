//! One renderer per artifact: each runs what its table or figure needs
//! through the shared [`Runner`] and prints it.

use equalizer_core::{propose, table_i_votes, Action, Equalizer, Mode, Tendency, Vote};
use equalizer_harness::figures::{
    all_kernels, figure1, figure10, figure11b, figure2a_11a, figure2b, figure4, figure5, figure7_8,
    figure9, summarise, BaselineRow, ModeRow, ScatterPoint, WarpStateRow,
};
use equalizer_harness::{parallel_map, pct, pct_delta, Comparison, Runner, System, TextTable};
use equalizer_sim::gpu::simulate;
use equalizer_sim::kernel::{KernelCategory, KernelSpec};
use equalizer_sim::stats::RunStats;
use equalizer_sim::util::geomean;
use equalizer_workloads::{kernel_by_name, short_name, table_ii_kernels, TABLE_II};

/// An artifact's (or a panel's) heading, set off by blank lines.
fn title(text: &str) {
    println!("\n=== {text} ===\n");
}

fn scatter(title: &str, points: &[ScatterPoint]) {
    println!("--- {title} ---");
    let mut t = TextTable::new(["kernel", "cat", "performance", "efficiency"]);
    for p in points {
        t.row([
            p.kernel.clone(),
            p.category.to_string(),
            format!("{:.3}", p.performance),
            format!("{:.3}", p.efficiency),
        ]);
    }
    println!("{t}");
}

/// Figure 1 (a–f): the opportunity study — how ±15 % SM frequency,
/// ±15 % memory frequency and the number of concurrent thread blocks move
/// each kernel in (performance, energy-efficiency) space.
pub(crate) fn fig01_sweeps(runner: &Runner) {
    let fig = figure1(runner, &all_kernels()).expect("simulation");

    println!("\n=== Figure 1: impact of SM frequency, DRAM frequency and thread count ===");
    println!("(baseline = (1.000, 1.000); quadrant semantics as in the paper)\n");
    scatter("(a) SM frequency +15%", &fig.sm_high);
    scatter("(b) SM frequency -15%", &fig.sm_low);
    scatter("(c) DRAM frequency +15%", &fig.mem_high);
    scatter("(d) DRAM frequency -15%", &fig.mem_low);

    println!("--- (e/f) Best static thread-block count ---");
    let mut t = TextTable::new([
        "kernel",
        "cat",
        "best blocks",
        "max blocks",
        "performance",
        "efficiency",
    ]);
    for p in &fig.thread_sweep {
        t.row([
            p.kernel.clone(),
            p.category.to_string(),
            p.best_blocks.to_string(),
            p.max_blocks.to_string(),
            format!("{:.3}", p.performance),
            format!("{:.3}", p.efficiency),
        ]);
    }
    println!("{t}");
    println!(
        "Paper reference: compute kernels gain only from SM+15%; memory/cache kernels\n\
         only from DRAM+15%; cache kernels peak below maximum thread count (1e/f)."
    );
}

/// Figure 2: kernel requirements vary (a) across invocations of `bfs-2`
/// and (b) within an invocation of `mri-g-1`.
pub(crate) fn fig02_variation(runner: &Runner) {
    let study = figure2a_11a(runner).expect("simulation");
    title("Figure 2a: bfs-2 runtime per invocation at fixed block counts");
    let mut header = vec!["blocks".to_string()];
    header.extend((1..=study.optimal_s.len()).map(|i| format!("inv{i}")));
    header.push("total (norm)".to_string());
    let mut t = TextTable::new(header);
    for (i, times) in study.per_invocation_s.iter().enumerate() {
        let mut row = vec![study.block_counts[i].to_string()];
        row.extend(times.iter().map(|s| format!("{:.1}us", s * 1e6)));
        row.push(format!("{:.3}", study.total_normalised(i)));
        t.row(row);
    }
    let mut row = vec!["opt".to_string()];
    row.extend(study.optimal_s.iter().map(|s| format!("{:.1}us", s * 1e6)));
    row.push(format!("{:.3}", study.optimal_normalised()));
    t.row(row);
    println!("{t}");
    println!(
        "Paper reference: 3 blocks win on invocations 1-7 and 11-12, 1 block on 8-10;\n\
         the per-invocation oracle is ~16% faster than any static choice."
    );

    let timeline = figure2b(runner).expect("simulation");
    title("Figure 2b: mri-g-1 warp state over one run (per-SM averages)");
    let mut t = TextTable::new(["time%", "waiting", "excess-mem", "excess-alu"]);
    for p in timeline.iter().step_by((timeline.len() / 40).max(1)) {
        t.row([
            format!("{:.0}%", p.time_frac * 100.0),
            format!("{:.1}", p.waiting),
            format!("{:.2}", p.excess_mem),
            format!("{:.2}", p.excess_alu),
        ]);
    }
    println!("{t}");
    println!(
        "Paper reference: waiting dominates except for two intervals where excess-mem\n\
         spikes (memory-pipeline pressure bursts)."
    );
}

/// Table I: the action matrix — what Equalizer does to SM frequency,
/// DRAM frequency and thread count for each kernel type and objective.
///
/// This artifact is pure decision logic, so it is rendered directly from
/// the implementation (`equalizer_core::table_i_votes` and Algorithm 1's
/// block actions) rather than from simulation.
pub(crate) fn table1_actions() {
    let vote_str = |v: Vote| match v {
        Vote::Up => "Increase",
        Vote::Down => "Decrease",
        Vote::Drift => "Maintain",
    };
    title("Table I: actions on parameters per kernel type and objective");
    let mut t = TextTable::new([
        "Kernel",
        "Objective",
        "SM frequency",
        "DRAM frequency",
        "Number of threads",
    ]);
    let rows: [(&str, Action, Tendency, &str); 3] = [
        ("Compute", Action::Comp, Tendency::HeavyCompute, "Maximum"),
        (
            "Memory",
            Action::Mem,
            Tendency::BandwidthSaturated,
            "Maximum",
        ),
        ("Cache", Action::Mem, Tendency::HeavyMemory, "Optimal"),
    ];
    for (kind, action, tendency, threads) in rows {
        for mode in [Mode::Energy, Mode::Performance] {
            let v = table_i_votes(mode, Some(action));
            let p = propose(tendency);
            let threads_str = if p.block_delta < 0 {
                "Optimal (reduce)"
            } else {
                threads
            };
            t.row([
                kind.to_string(),
                mode.to_string(),
                vote_str(v.sm).to_string(),
                vote_str(v.mem).to_string(),
                threads_str.to_string(),
            ]);
        }
    }
    println!("{t}");
    println!(
        "Paper reference (Table I): compute/energy lowers DRAM; compute/performance\n\
         raises SM; memory/energy lowers SM; memory/performance raises DRAM; cache\n\
         kernels run the optimal thread count under both objectives."
    );
}

/// Table II: the benchmark catalog — kernel names, categories, time
/// fractions, block limits and warps per block, plus measured baseline
/// characteristics from the simulator.
pub(crate) fn table2_catalog(runner: &Runner) {
    title("Table II: benchmark description");
    let mut t = TextTable::new([
        "application",
        "kernel",
        "type",
        "fraction",
        "num blocks",
        "W_cta",
        "IPC/SM",
        "L1 hit",
    ]);
    let measured = parallel_map(table_ii_kernels(), |k| {
        let m = runner.baseline(k).expect("baseline");
        (m.stats.ipc_per_sm(), m.stats.l1_hit_rate())
    });
    for (row, (ipc, l1)) in TABLE_II.iter().zip(measured) {
        t.row([
            row.application.to_string(),
            short_name(row.application, row.kernel_id),
            row.category.to_string(),
            format!("{:.2}", row.fraction),
            row.num_blocks.to_string(),
            row.w_cta.to_string(),
            format!("{ipc:.2}"),
            format!("{l1:.2}"),
        ]);
    }
    println!("{t}");
    println!("27 kernels from Rodinia and Parboil, shapes as in the paper's Table II.");
}

/// Figure 4: the distribution of warp states per kernel at maximum
/// concurrency — the observability argument behind Equalizer's four
/// counters.
pub(crate) fn fig04_warp_states(runner: &Runner) {
    let mut kernels = all_kernels();
    kernels.sort_by_key(|k| k.category());
    let rows = figure4(runner, &kernels).expect("simulation");

    title("Figure 4: state of the warps (fractions of resident warps)");
    let mut t = TextTable::new([
        "kernel",
        "cat",
        "issued",
        "waiting",
        "excess-mem",
        "excess-alu",
        "others",
    ]);
    for r in &rows {
        t.row([
            r.kernel.clone(),
            r.category.to_string(),
            pct(r.issued),
            pct(r.waiting),
            pct(r.excess_mem),
            pct(r.excess_alu),
            pct(r.others),
        ]);
    }
    println!("{t}");

    // Category-level check of the paper's three observations.
    let mean = |cat: KernelCategory, f: &dyn Fn(&WarpStateRow) -> f64| {
        let of: Vec<f64> = rows.iter().filter(|r| r.category == cat).map(f).collect();
        of.iter().sum::<f64>() / of.len().max(1) as f64
    };
    println!("Category means:");
    for cat in [
        KernelCategory::Compute,
        KernelCategory::Memory,
        KernelCategory::Cache,
        KernelCategory::Unsaturated,
    ] {
        println!(
            "  {:<12} excess-alu {}  excess-mem {}  waiting {}",
            cat.to_string(),
            pct(mean(cat, &|r| r.excess_alu)),
            pct(mean(cat, &|r| r.excess_mem)),
            pct(mean(cat, &|r| r.waiting)),
        );
    }
    println!(
        "\nPaper reference: compute kernels dominated by X_alu; memory and cache\n\
         kernels by X_mem; unsaturated kernels lean one way without saturating."
    );
}

/// Figure 5: memory-intensive kernels saturate well before the maximum
/// number of concurrent thread blocks.
pub(crate) fn fig05_mem_blocks(runner: &Runner) {
    let rows = figure5(runner).expect("simulation");

    title("Figure 5: memory-kernel speedup vs. #blocks (normalised to 1 block)");
    let max_blocks = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let mut header = vec!["kernel".to_string()];
    header.extend((1..=max_blocks).map(|b| format!("{b}blk")));
    let mut t = TextTable::new(header);
    for (kernel, speedups) in &rows {
        let mut row = vec![kernel.clone()];
        row.extend(speedups.iter().map(|s| format!("{s:.2}")));
        row.extend(std::iter::repeat_n(
            "-".to_string(),
            max_blocks - speedups.len(),
        ));
        t.row(row);
    }
    println!("{t}");
    println!(
        "Paper reference: every memory kernel saturates performance well before its\n\
         maximum block count — removing blocks is safe once bandwidth stays saturated."
    );
}

/// What differs between the two mode figures (7 and 8): the Equalizer
/// mode, the words, how an energy ratio reads, and Figure 8's static-best
/// column.
struct ModeFigure {
    mode: Mode,
    title: &'static str,
    /// Headers of the six columns after kernel and category: Equalizer,
    /// SM static and memory static, each (performance, energy).
    columns: [&'static str; 6],
    /// Formats an energy ratio `E_run / E_base`.
    energy: fn(f64) -> String,
    /// Adds the paper's "static best" savings column and its geomeans.
    static_best: bool,
    means: &'static str,
    /// Row labels of the geometric means: Equalizer, SM static, memory
    /// static.
    labels: [&'static str; 3],
    reference: &'static str,
}

fn mode_figure(runner: &Runner, fig: &ModeFigure) {
    let rows = figure7_8(runner, &all_kernels(), fig.mode).expect("simulation");

    title(fig.title);
    let mut header = vec!["kernel", "cat"];
    header.extend(fig.columns);
    if fig.static_best {
        header.push("static-best savings");
    }
    let mut t = TextTable::new(header);
    for r in &rows {
        let mut row = vec![r.kernel.clone(), r.category.to_string()];
        for c in [r.equalizer, r.sm_static, r.mem_static] {
            row.extend([format!("{:.3}", c.speedup), (fig.energy)(c.energy_ratio)]);
        }
        if fig.static_best {
            row.push(pct(1.0 - static_best(r).energy_ratio));
        }
        t.row(row);
    }
    println!("{t}");

    println!("{}", fig.means);
    type Accessor = fn(&ModeRow) -> Comparison;
    let accessors: [Accessor; 3] = [|r| r.equalizer, |r| r.sm_static, |r| r.mem_static];
    let mut means: Vec<(&str, Accessor)> = fig.labels.into_iter().zip(accessors).collect();
    if fig.static_best {
        means.push(("Static best", static_best));
    }
    for (label, f) in means {
        let s = summarise(&rows, f);
        let line: Vec<String> = s
            .groups
            .iter()
            .map(|(g, sp, er)| format!("{g}: {sp:.3}/{}", (fig.energy)(*er)))
            .collect();
        println!("  {label:<11} {}", line.join("  "));
    }
    println!("\n{}", fig.reference);
}

/// The paper's "static best" for one kernel: SM-low or Mem-low, whichever
/// saves more energy at a performance of at least 0.95, or the baseline
/// itself (no savings) when neither qualifies.
fn static_best(r: &ModeRow) -> Comparison {
    [r.sm_static, r.mem_static]
        .into_iter()
        .filter(|c| c.speedup >= 0.95 && c.energy_ratio < 1.0)
        .min_by(|a, b| a.energy_ratio.total_cmp(&b.energy_ratio))
        .unwrap_or(Comparison {
            speedup: 1.0,
            energy_ratio: 1.0,
            efficiency: 1.0,
        })
}

/// Figure 7: performance mode — per-kernel speedup and energy increase of
/// Equalizer versus statically boosting the SM or memory frequency.
pub(crate) fn fig07_perf_mode(runner: &Runner) {
    let fig = ModeFigure {
        mode: Mode::Performance,
        title: "Figure 7: Performance mode (vs. baseline GTX480)",
        columns: [
            "EQ speedup",
            "EQ energy",
            "SM+ speedup",
            "SM+ energy",
            "Mem+ speedup",
            "Mem+ energy",
        ],
        energy: pct_delta,
        static_best: false,
        means: "Geometric means (speedup / energy delta):",
        labels: ["Equalizer", "SM boost", "Mem boost"],
        reference: "Paper reference: Equalizer +22% perf at +6% energy overall; compute +13.8%,\n\
                    memory +12.4%, cache-sensitive largest (kmn peak), leuko-1 mis-detected.",
    };
    mode_figure(runner, &fig);
}

/// Figure 8: energy mode — per-kernel performance and energy savings of
/// Equalizer versus statically lowering the SM or memory frequency, plus
/// the paper's "static best" bar (the static point that loses no more
/// than 5 % performance).
pub(crate) fn fig08_energy_mode(runner: &Runner) {
    let fig = ModeFigure {
        mode: Mode::Energy,
        title: "Figure 8: Energy mode (vs. baseline GTX480)",
        columns: [
            "EQ perf",
            "EQ savings",
            "SM-low perf",
            "SM-low savings",
            "Mem-low perf",
            "Mem-low savings",
        ],
        energy: |ratio| pct(1.0 - ratio),
        static_best: true,
        means: "Geometric means (performance / energy savings):",
        labels: ["Equalizer", "SM low", "Mem low"],
        reference: "Paper reference: Equalizer saves 15% energy at +5% performance overall\n\
                    (static best: 8%); compute −0.1% perf, memory −2.5% perf, cache +30% perf\n\
                    with 36% savings; stncl is the one kernel that loses performance.",
    };
    mode_figure(runner, &fig);
}

/// Figure 9: fraction of time each kernel spends at each SM / memory
/// operating point under Equalizer, in both modes.
pub(crate) fn fig09_freq_residency(runner: &Runner) {
    let mut kernels = all_kernels();
    kernels.sort_by_key(|k| k.category());
    let rows = figure9(runner, &kernels).expect("simulation");

    title("Figure 9: VF-state residency under Equalizer (P = performance, E = energy)");
    let mut t = TextTable::new([
        "kernel", "cat", "mode", "SM low", "SM nom", "SM high", "Mem low", "Mem nom", "Mem high",
    ]);
    for r in &rows {
        t.row([
            r.kernel.clone(),
            r.category.to_string(),
            r.mode.to_string(),
            pct(r.sm[0]),
            pct(r.sm[1]),
            pct(r.sm[2]),
            pct(r.mem[0]),
            pct(r.mem[1]),
            pct(r.mem[2]),
        ]);
    }
    println!("{t}");
    println!(
        "Paper reference: compute kernels — SM high in P mode, memory low in E mode;\n\
         memory/cache kernels — memory high in P mode, SM low in E mode; phased\n\
         kernels (histo-3, mri-g-1/2, sc) split time across both domains."
    );
}

/// Figure 10: Equalizer versus DynCTA and CCWS on the cache-sensitive
/// kernels.
pub(crate) fn fig10_baselines(runner: &Runner) {
    let rows = figure10(runner).expect("simulation");

    title("Figure 10: cache-sensitive kernels, speedup vs. baseline");
    let mut t = TextTable::new(["kernel", "DynCTA", "CCWS", "Equalizer"]);
    for r in &rows {
        t.row([
            r.kernel.clone(),
            format!("{:.3}", r.dyncta),
            format!("{:.3}", r.ccws),
            format!("{:.3}", r.equalizer),
        ]);
    }
    let gm = |f: &dyn Fn(&BaselineRow) -> f64| geomean(rows.iter().map(f)).unwrap_or(f64::NAN);
    t.row([
        "GMEAN".to_string(),
        format!("{:.3}", gm(&|r| r.dyncta)),
        format!("{:.3}", gm(&|r| r.ccws)),
        format!("{:.3}", gm(&|r| r.equalizer)),
    ]);
    println!("{t}");
    println!(
        "Paper reference: DynCTA up to 1.22x, CCWS up to 1.38x; Equalizer wins the\n\
         geomean (it also boosts memory frequency, which neither baseline does)."
    );
}

/// Figure 11: Equalizer's adaptiveness — (a) across invocations of
/// `bfs-2` (block control only) and (b) within `spmv`, against DynCTA.
pub(crate) fn fig11_adaptive(runner: &Runner) {
    let study = figure2a_11a(runner).expect("simulation");
    title("Figure 11a: bfs-2 across invocations (frequencies pinned)");
    let n_inv = study.optimal_s.len();
    let mut header = vec!["series".to_string()];
    header.extend((1..=n_inv).map(|i| format!("inv{i}")));
    header.push("total (norm)".to_string());
    let mut t = TextTable::new(header);
    for (i, times) in study.per_invocation_s.iter().enumerate() {
        let mut row = vec![format!("{} blocks", study.block_counts[i])];
        row.extend(times.iter().map(|s| format!("{:.1}", s * 1e6)));
        row.push(format!("{:.3}", study.total_normalised(i)));
        t.row(row);
    }
    let mut row = vec!["optimal".to_string()];
    row.extend(study.optimal_s.iter().map(|s| format!("{:.1}", s * 1e6)));
    row.push(format!("{:.3}", study.optimal_normalised()));
    t.row(row);
    let mut row = vec!["Equalizer".to_string()];
    row.extend(study.equalizer_s.iter().map(|s| format!("{:.1}", s * 1e6)));
    row.push(format!("{:.3}", study.equalizer_normalised()));
    t.row(row);
    let mut row = vec!["EQ blocks".to_string()];
    row.extend(study.equalizer_blocks.iter().map(|b| format!("{b:.1}")));
    row.push("-".to_string());
    t.row(row);
    println!("{t}");
    println!(
        "Paper reference: Equalizer tracks the per-invocation optimum (3 blocks early,\n\
         1 block for invocations 8-10, back to 3), lagging by the 3-epoch hysteresis."
    );

    let tl = figure11b(runner).expect("simulation");
    title("Figure 11b: spmv concurrency over time, Equalizer vs DynCTA");
    // Rows are epochs. Each run has its own length, so each series keeps
    // its own time axis (percent of that run) and prints "-" once it has
    // ended.
    let mut t = TextTable::new([
        "epoch",
        "EQ time%",
        "EQ warps",
        "EQ waiting",
        "DynCTA time%",
        "DynCTA warps",
        "DynCTA waiting",
    ]);
    let n = tl.equalizer.len().max(tl.dyncta.len());
    let step = (n / 32).max(1);
    for i in (0..n).step_by(step) {
        let mut row = vec![i.to_string()];
        for series in [&tl.equalizer, &tl.dyncta] {
            match series.get(i) {
                Some(p) => row.extend([
                    format!("{:.0}%", p.0 * 100.0),
                    format!("{:.1}", p.1),
                    format!("{:.1}", p.2),
                ]),
                None => row.extend(["-".to_string(), "-".to_string(), "-".to_string()]),
            }
        }
        t.row(row);
    }
    println!("{t}");
    println!(
        "Paper reference: both throttle during the cache-contended phase; when waiting\n\
         rises in the latency-bound phase Equalizer re-raises concurrency, DynCTA's\n\
         heuristics keep it throttled."
    );
}

/// One kernel's ablation rows: `(variant, (speedup, energy ratio))` against
/// its baseline. Variants a [`System`] names go through the runner's
/// store; the rest simulate directly on the runner's configuration.
fn ablation_rows(runner: &Runner, kernel: &KernelSpec) -> [(&'static str, (f64, f64)); 9] {
    let base = runner.baseline(kernel).expect("baseline");
    let vs_base = |stats: &RunStats| {
        let energy = runner.model().energy(stats).total_j();
        (
            base.time_s() / stats.time_seconds(),
            energy / base.energy_j(),
        )
    };
    let system = |s| vs_base(&runner.run(kernel, s).expect("run").stats);
    let config = runner.config();
    let direct = |epoch_cycles, mut gov: Equalizer| {
        let mut config = config.clone();
        config.epoch_cycles = epoch_cycles;
        vs_base(&simulate(&config, kernel, &mut gov).expect("run"))
    };
    let eq = || Equalizer::new(Mode::Performance, config.num_sms);
    // The defaults: 4096-cycle epochs and 3-epoch hysteresis.
    let (epoch, perf) = (config.epoch_cycles, System::Equalizer(Mode::Performance));
    [
        ("epoch=1024", direct(1024, eq())),
        ("epoch=4096", system(perf)),
        ("epoch=16384", direct(16384, eq())),
        ("hysteresis=1", direct(epoch, eq().with_hysteresis(1))),
        ("hysteresis=3", system(perf)),
        ("hysteresis=5", direct(epoch, eq().with_hysteresis(5))),
        ("dvfs-only", direct(epoch, eq().with_block_control(false))),
        ("blocks-only", system(System::EqualizerBlocksOnly)),
        (
            "per-SM VRM",
            system(System::EqualizerPerSmVrm(Mode::Performance)),
        ),
    ]
}

/// Ablation study (beyond-paper): sensitivity of Equalizer to its design
/// constants — epoch length, block-change hysteresis, and each control
/// half (DVFS-only vs. blocks-only), plus per-SM voltage regulators.
/// Exercises the design choices §IV calls out (4096-cycle epochs, 3-epoch
/// hysteresis, coordinated control).
pub(crate) fn fig12_ablation(runner: &Runner) {
    let kernels: Vec<KernelSpec> = ["kmn", "cfd-1", "mri-q", "sc", "prtcl-2"]
        .iter()
        .map(|n| kernel_by_name(n).expect("catalog kernel"))
        .collect();
    let rows = parallel_map(kernels, |k| {
        (k.name().to_string(), ablation_rows(runner, k))
    });

    title("Ablation: Equalizer design constants (performance mode)");
    let mut t = TextTable::new(["kernel", "variant", "speedup", "energy ratio"]);
    for (kernel, variants) in rows {
        for (variant, (speedup, energy_ratio)) in variants {
            t.row([
                kernel.clone(),
                variant.to_string(),
                format!("{speedup:.3}"),
                format!("{energy_ratio:.3}"),
            ]);
        }
    }
    println!("{t}");
    println!(
        "Expected shape: 4096-cycle epochs and 3-epoch hysteresis are a sweet spot;\n\
         cache kernels need both halves (blocks for the L1, DVFS for the boost)."
    );
}
