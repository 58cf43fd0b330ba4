//! Regenerates the paper's tables and figures in one process, in paper
//! order, through one shared `Runner`: `cargo bench -p equalizer-bench`
//! renders all of them, and names after `--` select some (see
//! `equalizer_bench::ARTIFACTS`). Stdout carries only the artifacts; the
//! wall time and the runner's store tallies go to stderr.

mod render;

use std::process::exit;
use std::time::Instant;

use equalizer_bench::select;
use equalizer_harness::Runner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artifacts = select(&args).unwrap_or_else(|msg| {
        eprintln!("regenerate: {msg}");
        exit(2);
    });
    let (runner, start) = (Runner::gtx480(), Instant::now());
    for name in &artifacts {
        match *name {
            "fig01_sweeps" => render::fig01_sweeps(&runner),
            "fig02_variation" => render::fig02_variation(&runner),
            "table1_actions" => render::table1_actions(),
            "table2_catalog" => render::table2_catalog(&runner),
            "fig04_warp_states" => render::fig04_warp_states(&runner),
            "fig05_mem_blocks" => render::fig05_mem_blocks(&runner),
            "fig07_perf_mode" => render::fig07_perf_mode(&runner),
            "fig08_energy_mode" => render::fig08_energy_mode(&runner),
            "fig09_freq_residency" => render::fig09_freq_residency(&runner),
            "fig10_baselines" => render::fig10_baselines(&runner),
            "fig11_adaptive" => render::fig11_adaptive(&runner),
            "fig12_ablation" => render::fig12_ablation(&runner),
            other => unreachable!("artifact `{other}` has no renderer"),
        }
    }
    eprintln!(
        "regenerate: {} artifact(s) in {:.1} s; {:?}",
        artifacts.len(),
        start.elapsed().as_secs_f64(),
        runner.store_stats()
    );
}
