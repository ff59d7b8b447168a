//! `moasbench compare A.json B.json`: one row per (end-to-end metric,
//! workload) with both medians and quartiles, B's change against A in the
//! direction that counts as worse, the bound from `BENCHMARK.json`, and a
//! verdict.

use std::collections::BTreeMap;
use std::path::Path;

use experiments::json::Json;

use crate::stats::quartiles;

/// Values of every untraced run in a report, keyed by (workload, metric).
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn samples(report: &Json, path: &Path) -> Result<Samples, String> {
    let Some(Json::Arr(runs)) = report.get("runs") else {
        return Err(format!("{}: no 'runs' array", path.display()));
    };
    let mut out = Samples::new();
    for run in runs {
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let (Some(Json::Str(workload)), Some(Json::Obj(metrics))) =
            (run.get("workload"), run.get("metrics"))
        else {
            return Err(format!(
                "{}: run without workload or metrics",
                path.display()
            ));
        };
        for (name, metric) in metrics {
            if let Some(Json::Num(value)) = metric.get("value") {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(*value);
            }
        }
    }
    Ok(out)
}

/// `(bound, higher_is_better)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark: &Json, path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let Some(Json::Arr(specs)) = benchmark.get("end_to_end") else {
        return Err(format!("{}: no 'end_to_end' array", path.display()));
    };
    let mut out = BTreeMap::new();
    for spec in specs {
        match (spec.get("name"), spec.get("bound"), spec.get("better")) {
            (Some(Json::Str(name)), Some(Json::Num(bound)), Some(Json::Str(better))) => {
                out.insert(name.clone(), (*bound, better == "higher"));
            }
            _ => return Err(format!("{}: malformed end_to_end entry", path.display())),
        }
    }
    Ok(out)
}

/// How B compares with A on one metric of one workload.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of a side is wider than the bound, and B's runs
    /// are not all better than A's: the bound cannot resolve this pair.
    Unresolved,
}

/// Judges B against A. `worse_by` is B's median against A's as a share of
/// A's, positive when B is worse.
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> (Verdict, f64, f64) {
    let [a1, a2, a3] = quartiles(a);
    let [b1, b2, b3] = quartiles(b);
    let worse_by = if higher_is_better {
        (a2 - b2) / a2
    } else {
        (b2 - a2) / a2
    };
    let spread = ((a3 - a1) / a2).abs().max(((b3 - b1) / b2).abs());
    let b_always_better = if higher_is_better {
        b.iter().copied().fold(f64::INFINITY, f64::min) > a.iter().copied().fold(0.0, f64::max)
    } else {
        b.iter().copied().fold(0.0, f64::max) < a.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let verdict = if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, spread)
}

/// Prints the comparison; returns `Ok(true)` when no row is `worse`.
pub fn run(a_path: &Path, b_path: &Path, benchmark_path: &Path) -> Result<bool, String> {
    let a = samples(&load(a_path)?, a_path)?;
    let b = samples(&load(b_path)?, b_path)?;
    let bounds = bounds(&load(benchmark_path)?, benchmark_path)?;
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    println!(
        "{:<16} {:<16} {:>5} {:>42} {:>42} {:>20} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "runs",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B/A (base A)",
        "worse%",
        "bound%"
    );
    let mut none_worse = true;
    for ((workload, metric), a_values) in &a {
        let (Some(b_values), Some(&(bound, higher))) = (
            b.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let (verdict, worse_by, _) = judge(a_values, b_values, bound, higher);
        let [a1, a2, a3] = quartiles(a_values);
        let [b1, b2, b3] = quartiles(b_values);
        none_worse &= verdict != Verdict::Worse;
        println!(
            "{workload:<16} {metric:<16} {:>2}/{:<2} {:>42} {:>42} {:>20} {:>7.1} {:>7.1}  {}",
            a_values.len(),
            b_values.len(),
            format!("{a2:.4} [{a1:.4}, {a3:.4}]"),
            format!("{b2:.4} [{b1:.4}, {b3:.4}]"),
            format!("{:.3} ({a2:.4})", b2 / a2),
            worse_by * 100.0,
            bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, B 30% slower: worse.
        let b: Vec<f64> = a.iter().map(|v| v * 1.3).collect();
        assert_eq!(judge(&a, &b, 0.1, false).0, Verdict::Worse);
        // Higher is better, the same B is an improvement.
        assert_eq!(judge(&a, &b, 0.1, true).0, Verdict::Ok);
        // Within the bound.
        let c: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&a, &c, 0.1, false).0, Verdict::Ok);
        // A side that scatters wider than the bound resolves nothing ...
        let wild = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&a, &wild, 0.1, false).0, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let wild_but_better = [20.0, 50.0, 35.0, 60.0, 45.0];
        assert_eq!(judge(&a, &wild_but_better, 0.1, false).0, Verdict::Ok);
    }
}
