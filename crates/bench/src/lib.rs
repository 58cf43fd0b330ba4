//! # equalizer-bench — the paper's tables and figures from one process
//!
//! The crate's one bench target, `regenerate` (`harness = false`),
//! renders every table and figure of the paper through one shared
//! `Runner`, so a run that two artifacts need simulates once:
//!
//! ```text
//! cargo bench -p equalizer-bench                     # every artifact
//! cargo bench -p equalizer-bench -- fig07_perf_mode  # a selection
//! ```
//!
//! This library holds the artifact list, [`ARTIFACTS`], and reads the
//! command line against it, [`select`].

// Library code reports through return values, never the console.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

/// Every artifact `regenerate` renders, by name, in the paper's (and
/// EXPERIMENTS.md's) order.
pub const ARTIFACTS: [&str; 12] = [
    "fig01_sweeps",
    "fig02_variation",
    "table1_actions",
    "table2_catalog",
    "fig04_warp_states",
    "fig05_mem_blocks",
    "fig07_perf_mode",
    "fig08_energy_mode",
    "fig09_freq_residency",
    "fig10_baselines",
    "fig11_adaptive",
    "fig12_ablation",
];

/// The artifacts the command-line `args` name, in paper order; all of
/// them when none is named. Flags such as the `--bench` cargo passes are
/// ignored.
///
/// # Errors
///
/// An argument that names no artifact; the message lists the valid names.
pub fn select<S: AsRef<str>>(args: &[S]) -> Result<Vec<&'static str>, String> {
    let names: Vec<&str> = args
        .iter()
        .map(AsRef::as_ref)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if let Some(unknown) = names.iter().find(|n| !ARTIFACTS.contains(n)) {
        let valid = ARTIFACTS.join(" ");
        return Err(format!(
            "unknown artifact `{unknown}`; valid names: {valid}"
        ));
    }
    Ok(ARTIFACTS
        .into_iter()
        .filter(|a| names.is_empty() || names.contains(a))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_ORDER: [&str; 12] = [
        "fig01_sweeps",
        "fig02_variation",
        "table1_actions",
        "table2_catalog",
        "fig04_warp_states",
        "fig05_mem_blocks",
        "fig07_perf_mode",
        "fig08_energy_mode",
        "fig09_freq_residency",
        "fig10_baselines",
        "fig11_adaptive",
        "fig12_ablation",
    ];

    #[test]
    fn no_names_selects_all_in_paper_order() {
        assert_eq!(select::<&str>(&[]).unwrap(), PAPER_ORDER);
    }

    #[test]
    fn cargo_bench_flag_is_ignored() {
        assert_eq!(select(&["--bench"]).unwrap(), PAPER_ORDER);
        let picked = select(&["table1_actions", "--bench"]).unwrap();
        assert_eq!(picked, ["table1_actions"]);
    }

    #[test]
    fn names_out_of_order_come_out_in_paper_order() {
        let picked = select(&["fig12_ablation", "fig01_sweeps", "table2_catalog"]).unwrap();
        assert_eq!(picked, ["fig01_sweeps", "table2_catalog", "fig12_ablation"]);
    }

    #[test]
    fn unknown_name_lists_the_valid_ones() {
        let err = select(&["fig07_perf_mode", "fig03"]).unwrap_err();
        assert!(err.contains("`fig03`"), "{err}");
        for name in PAPER_ORDER {
            assert!(err.contains(name), "{err} lacks {name}");
        }
    }
}
