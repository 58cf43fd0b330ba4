//! `compare A B`: the verdict on each workload × end-to-end metric from
//! two directories of result files (A = parent, B = change), by the
//! bounds of `BENCHMARK.json` and the small-sandbox rule: B improved when
//! it wins at least 9 of 10 pairs and its median beats A's by more than
//! A's quartile spread.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats;
use crate::workload;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the win and spread rule.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Neither; B's median is within the bound of A's.
    WithinBound,
    /// A's own spread exceeds the bound, so "no worse" cannot be shown.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges runs `b` against `a`, paired in order. `bound` is the share of
/// A's median by which B may be worse.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, usize, usize) {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let [q1, med_a, q3] = stats::quartiles(a);
    let med_b = stats::median(b);
    let iqr = q3 - q1;
    let gain = if lower_is_better {
        med_a - med_b
    } else {
        med_b - med_a
    };
    let v = if pairs > 0 && wins * 10 >= pairs * 9 && gain > iqr {
        Verdict::Improved
    } else if iqr > bound * med_a.abs() {
        let all_better = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
        if all_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        }
    } else if -gain > bound * med_a.abs() {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (v, wins, pairs)
}

/// One untraced result file.
struct RunResult {
    workload: String,
    seed: f64,
    metrics: Value,
}

/// Every untraced result file under `dir`, recursively, ordered by seed.
fn load(dir: &Path) -> Result<Vec<RunResult>, String> {
    fn walk(dir: &Path, out: &mut Vec<RunResult>) -> Result<(), String> {
        let mut entries: Vec<_> = fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let file = path.to_string_lossy();
            if path.is_dir() {
                walk(&path, out)?;
            } else if file.ends_with(".json") && !file.ends_with(".trace.json") {
                let text = fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
                let v = json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
                if v.get("trace") != Some(&Value::Bool(false)) {
                    continue;
                }
                out.push(RunResult {
                    workload: v
                        .get("workload")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    seed: v.get("seed").and_then(Value::as_f64).unwrap_or(0.0),
                    metrics: v.get("metrics").cloned().unwrap_or(Value::Null),
                });
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, &mut out)?;
    out.sort_by(|x, y| x.seed.total_cmp(&y.seed));
    Ok(out)
}

fn values(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn run(args: &[String]) -> Result<(), String> {
    let [dir_a, dir_b] = args else {
        return Err("usage: equalizer-benchmark compare DIR_A DIR_B".to_string());
    };
    let spec_path = crate::package_dir().join("../BENCHMARK.json");
    let spec = fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|t| json::parse(&t))?;
    let a = load(Path::new(dir_a))?;
    let b = load(Path::new(dir_b))?;
    println!(
        "{:<14} {:<13} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let show = |v: &[f64]| {
        let [q1, m, q3] = stats::quartiles(v);
        format!("{m:.6} [{q1:.6}, {q3:.6}]")
    };
    for w in workload::NAMES {
        for m in spec.get("end_to_end").map(Value::items).unwrap_or_default() {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let (va, vb) = (values(&a, w, name), values(&b, w, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (v, wins, pairs) = verdict(&va, &vb, lower, bound);
            println!(
                "{w:<14} {name:<13} {:>34} {:>34} {:>6}  {v} (bound {:.0}%, n={}/{})",
                show(&va),
                show(&vb),
                format!("{wins}/{pairs}"),
                bound * 100.0,
                va.len(),
                vb.len()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_win_spread_and_bound_rules() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&a, &faster, true, 0.1).0, Verdict::Improved);
        assert_eq!(verdict(&a, &slower, true, 0.1).0, Verdict::Worse);
        assert_eq!(verdict(&a, &same, true, 0.1).0, Verdict::WithinBound);
        // Higher-is-better flips the sense.
        assert_eq!(verdict(&a, &slower, false, 0.1).0, Verdict::Improved);
        // A spread wider than the bound cannot show "no worse"...
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.1).0, Verdict::Unresolved);
        // ...unless every B run beats every A run (yet the gain is inside
        // A's spread, so it is no improvement either).
        let (v, wins, pairs) = verdict(&noisy, &[4.0, 4.5, 4.9, 4.2, 4.1], true, 0.1);
        assert_eq!((wins, pairs), (5, 5));
        assert_eq!(v, Verdict::WithinBound);
    }
}
