//! The observability layer's two headline guarantees:
//!
//! 1. **Deterministic exports** — running the same configuration twice
//!    produces byte-identical Chrome traces, CSVs and summaries.
//! 2. **Zero observer effect** — a run with observers attached produces
//!    exactly the same [`RunStats`] as a bare run.

use std::collections::BTreeSet;

use equalizer_baselines::with_ccws;
use equalizer_core::{Equalizer, Mode};
use equalizer_harness::trace::JsonLinesTrace;
use equalizer_obs::{chrome, csv, json, summary, MetricsObserver};
use equalizer_power::PowerModel;
use equalizer_sim::ccws::CcwsConfig;
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::Engine;
use equalizer_sim::governor::{Governor, StaticGovernor};
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::stats::RunStats;
use equalizer_workloads::kernel_by_name;

fn observed_run(name: &str, mode: Mode) -> (RunStats, MetricsObserver) {
    let config = GpuConfig::gtx480();
    let kernel = kernel_by_name(name).unwrap();
    let mut governor = Equalizer::new(mode, config.num_sms);
    let mut obs = MetricsObserver::new(PowerModel::gtx480());
    let stats = {
        let mut engine = Engine::new(&config, &kernel, SimOptions::default())
            .unwrap()
            .with_observer(&mut obs);
        engine.run(&mut governor).unwrap();
        engine.stats()
    };
    assert!(obs.error().is_none(), "{:?}", obs.error());
    (stats, obs)
}

#[test]
fn exports_are_byte_identical_across_runs() {
    let (stats_a, obs_a) = observed_run("mmer", Mode::Performance);
    let (stats_b, obs_b) = observed_run("mmer", Mode::Performance);
    assert_eq!(stats_a, stats_b, "deterministic replay");

    assert_eq!(
        chrome::chrome_trace(&obs_a),
        chrome::chrome_trace(&obs_b),
        "trace bytes"
    );
    assert_eq!(
        csv::all_csvs(obs_a.registry()),
        csv::all_csvs(obs_b.registry()),
        "CSV bytes"
    );
    assert_eq!(
        summary::summary(obs_a.registry()),
        summary::summary(obs_b.registry()),
        "summary bytes"
    );
}

#[test]
fn observers_do_not_perturb_the_run() {
    let config = GpuConfig::gtx480();
    let kernel = kernel_by_name("mmer").unwrap();

    let bare = {
        let mut governor = Equalizer::new(Mode::Performance, config.num_sms);
        let mut engine = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
        engine.run(&mut governor).unwrap();
        engine.stats()
    };

    // Same run with two observers attached: the full metrics pipeline
    // and the JSON-lines tracer, both strictly read-only.
    let mut obs = MetricsObserver::new(PowerModel::gtx480());
    let mut trace = JsonLinesTrace::new();
    let watched = {
        let mut governor = Equalizer::new(Mode::Performance, config.num_sms);
        let mut engine = Engine::new(&config, &kernel, SimOptions::default())
            .unwrap()
            .with_observer(&mut obs)
            .with_observer(&mut trace);
        engine.run(&mut governor).unwrap();
        engine.stats()
    };

    assert_eq!(bare, watched, "observers must not change the simulation");
    assert!(!trace.is_empty());
    assert!(!obs.registry().is_empty());
}

#[test]
fn chrome_trace_is_valid_json_with_expected_tracks() {
    let (_, obs) = observed_run("mmer", Mode::Energy);
    let trace = chrome::chrome_trace(&obs);
    json::validate(&trace).unwrap();
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\": \"X\""), "epoch slices present");
    assert!(trace.contains("\"ph\": \"C\""), "counter tracks present");
    assert!(trace.contains("\"ph\": \"M\""), "metadata present");
    assert!(
        trace.contains("gpu machine") && trace.contains("metrics"),
        "process names present"
    );
}

#[test]
fn metrics_cover_the_paper_counters() {
    let (stats, obs) = observed_run("mmer", Mode::Performance);
    let registry = obs.registry();
    for name in [
        "warp.active.avg",
        "warp.waiting.avg",
        "warp.excess_alu.avg",
        "warp.excess_mem.avg",
        "issue.rate",
        "cache.l1.hit_rate",
        "cache.l2.hit_rate",
        "dram.bw_util",
        "power.total.w",
        "vf.mem.index",
        "blocks.target.mean",
    ] {
        let metric = registry
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` missing"));
        assert!(!metric.points.is_empty(), "metric `{name}` has no samples");
    }
    // The instruction counter is cumulative: monotone non-decreasing and
    // bounded by the run total (the tail past the last epoch boundary is
    // not sampled).
    let instr = registry.get("instructions.total").unwrap();
    let points = &instr.points;
    assert!(!points.is_empty());
    for pair in points.windows(2) {
        assert!(pair[1].value >= pair[0].value, "counter must not decrease");
    }
    let last = instr.last().unwrap_or(0.0);
    assert!(last > 0.0);
    assert!(last <= stats.instructions() as f64);
}

/// A machine warp gauge is the per-SM mean: on a shared VRM every SM
/// takes the same samples, so at every epoch `warp.active.avg` and
/// `issue.rate` equal the mean of their `sm<N>.` series.
#[test]
fn machine_warp_gauges_are_per_sm_means() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    let kernel = kernel_by_name("kmn").unwrap();
    let mut governor = Equalizer::new(Mode::Performance, config.num_sms);
    let mut obs = MetricsObserver::new(PowerModel::gtx480());
    Engine::new(&config, &kernel, SimOptions::default())
        .unwrap()
        .with_observer(&mut obs)
        .run(&mut governor)
        .unwrap();
    let registry = obs.registry();
    for name in ["warp.active.avg", "issue.rate"] {
        let points = &registry.get(name).unwrap().points;
        assert!(points.len() > 10, "{name}: too few epochs");
        let series: Vec<_> = (0..config.num_sms)
            .map(|sm| &registry.get(&format!("sm{sm}.{name}")).unwrap().points)
            .collect();
        for (i, point) in points.iter().enumerate() {
            let mean = series.iter().map(|s| s[i].value).sum::<f64>() / series.len() as f64;
            assert!(series.iter().all(|s| s[i].epoch == point.epoch));
            assert!(
                (point.value - mean).abs() <= 1e-9 * mean.abs().max(1.0),
                "{name} at epoch {}: {} against the per-SM mean {mean}",
                point.epoch,
                point.value
            );
        }
    }
}

/// The observer registers its whole catalog, machine-wide and per-SM
/// series alike, on the first epoch, and the registry rejects a repeated
/// name with `ObsError::DuplicateMetric`. A CCWS machine and a
/// per-SM-VRM machine must both register every series exactly once.
#[test]
fn every_metric_name_registers_once() {
    let mut small = GpuConfig::gtx480();
    small.num_sms = 3;
    let ccws = with_ccws(small.clone(), CcwsConfig::default());
    let mut per_sm = small.clone();
    per_sm.per_sm_vrm = true;
    let runs: [(&str, GpuConfig, Box<dyn Governor>); 2] = [
        ("kmn", ccws, Box::new(StaticGovernor)),
        (
            "mmer",
            per_sm,
            Box::new(Equalizer::new(Mode::Performance, small.num_sms).with_per_sm_vrm(true)),
        ),
    ];
    for (name, config, mut governor) in runs {
        let kernel = kernel_by_name(name).unwrap();
        let mut obs = MetricsObserver::new(PowerModel::gtx480());
        Engine::new(&config, &kernel, SimOptions::default())
            .unwrap()
            .with_observer(&mut obs)
            .run(governor.as_mut())
            .unwrap();
        assert_eq!(obs.error(), None, "{name}");
        let names: BTreeSet<&str> = obs
            .registry()
            .metrics()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(
            names.len(),
            obs.registry().len(),
            "{name}: names are unique"
        );
        let last_sm = format!("sm{}.vf.index", config.num_sms - 1);
        assert!(
            names.contains(last_sm.as_str()),
            "{name}: per-SM series registered"
        );
        assert!(
            names.contains("dram.bw_util.hist"),
            "{name}: histograms registered"
        );
    }
}
