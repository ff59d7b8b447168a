//! `moasbench all`: every workload, untraced then traced, one child process
//! each, gathered into one report.

use std::path::PathBuf;
use std::process::Command;

use experiments::json::Json;

use crate::report::{Run, WORKLOADS};
use crate::stats::compact;

/// Line prefix under which a child prints its detailed record.
pub const DETAIL: &str = "detail: ";

pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub smoke: bool,
    pub wrong_reference: bool,
    pub out: Option<PathBuf>,
}

fn number(json: &Json, key: &str) -> f64 {
    match json.get(key) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// The value of `metric` in a child's detail record.
fn metric_value(detail: &Json, metric: &str) -> Option<f64> {
    match detail.get("metrics")?.get(metric)?.get("value")? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// Runs one child; returns its detail record, or what went wrong.
fn child(run: &Run) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", &run.workload])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.trace { "1" } else { "0" }]);
    if run.smoke {
        command.arg("--smoke");
    }
    if run.wrong_reference {
        command.arg("--wrong-reference");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} trace {} exited with {}: {}",
            run.workload,
            u8::from(run.trace),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL) {
            Some(json) => detail = Some(json.to_string()),
            // The result line repeats what the detail record holds.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail = detail.ok_or_else(|| format!("{} printed no detail record", run.workload))?;
    Json::parse(&detail).map_err(|e| format!("{} detail record: {e}", run.workload))
}

/// Runs the suite; returns `Ok(true)` when every run was correct.
pub fn run(suite: &Suite) -> Result<bool, String> {
    let mut records = Vec::new();
    let mut all_correct = true;
    for _ in 0..suite.repeat {
        for &workload in WORKLOADS {
            let mut pair = Vec::new();
            for trace in [false, true] {
                let detail = child(&Run {
                    workload: workload.to_string(),
                    seed: suite.seed,
                    seconds: suite.seconds,
                    trace,
                    smoke: suite.smoke,
                    wrong_reference: suite.wrong_reference,
                })?;
                all_correct &= detail.get("correct") == Some(&Json::Bool(true));
                pair.push(detail);
            }
            // Tracing overhead: the traced run's throughput against the
            // untraced run's, same workload and seed.
            if let (Some(untraced), Some(traced)) = (
                metric_value(&pair[0], "work_per_s"),
                metric_value(&pair[1], "trace.work_per_s"),
            ) {
                println!(
                    "  tracing overhead on {workload}: traced {traced:.1} /s vs untraced {untraced:.1} /s = {:+.1}% of untraced",
                    (untraced / traced - 1.0) * 100.0
                );
            }
            let failures: f64 = pair.iter().map(|d| number(d, "failed")).sum();
            let attempted: f64 = pair.iter().map(|d| number(d, "attempted")).sum();
            println!(
                "  failure_rate on {workload}: {failures} failed of {attempted} attempted = {}",
                failures / attempted.max(1.0)
            );
            records.extend(pair);
        }
    }
    let report = Json::Obj(vec![
        ("seed".into(), Json::Num(suite.seed as f64)),
        ("seconds".into(), Json::Num(suite.seconds)),
        ("nproc".into(), Json::Num(crate::host::nproc() as f64)),
        ("smoke".into(), Json::Bool(suite.smoke)),
        ("runs".into(), Json::Arr(records)),
    ]);
    let path = suite
        .out
        .clone()
        .unwrap_or_else(|| crate::out_dir().join(format!("report-seed{}.json", suite.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // One run per line keeps the file readable and diffable.
    let mut text = compact(&report).replace("{\"workload\"", "\n{\"workload\"");
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report: {}", path.display());
    Ok(all_correct)
}
