//! The benchmark's contract with `BENCHMARK.json`, checked on reduced sizes:
//! every workload and metric named there is printed, names are well formed,
//! exact counts repeat between two runs of one seed, nothing fails, and a
//! deliberately wrong reference makes every workload report failures.

use std::path::{Path, PathBuf};
use std::process::Command;

use experiments::json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_moasbench");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Per-layer metrics that count simulated or generated work rather than time
/// it: two runs of one seed must report the same value.
const EXACT_COUNTS: &[&str] = &[
    "core.alarms_per_trial",
    "core.verifier_queries_per_trial",
    "queue.pushes_per_trial",
    "queue.max_depth",
    "sharded.events_fired",
    "sharded.converged_ticks",
    "sharded.cut_links",
    "sharded.fingerprint",
];

fn benchmark() -> Json {
    let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of each entry of one of `BENCHMARK.json`'s lists.
fn named(benchmark: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = benchmark.get(list) else {
        panic!("BENCHMARK.json has no '{list}' array");
    };
    items
        .iter()
        .map(|item| {
            let text = |key: &str| match item.get(key) {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// Runs the smoke suite; returns the exit code and the parsed report.
fn smoke_suite(tag: &str, extra: &[&str]) -> (i32, Json) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("contract-{tag}.json"));
    let output = Command::new(EXE)
        .args(["all", "--smoke", "--seconds", "0.3", "--seed", "7", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("run moasbench");
    let code = output.status.code().expect("exit code");
    assert!(
        code == 0 || code == 1,
        "moasbench all failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (code, load(&out))
}

fn load(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("report written")).expect("report parses")
}

fn runs(report: &Json) -> &[Json] {
    match report.get("runs") {
        Some(Json::Arr(runs)) => runs,
        _ => panic!("report has no runs"),
    }
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    match json.get(key) {
        Some(Json::Str(s)) => s,
        _ => panic!("no string '{key}'"),
    }
}

fn number(json: &Json, key: &str) -> f64 {
    match json.get(key) {
        Some(Json::Num(n)) => *n,
        _ => panic!("no number '{key}'"),
    }
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    match run.get("metrics")?.get(name)?.get("value")? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn every_named_workload_and_metric_is_reported_and_nothing_fails() {
    let benchmark = benchmark();
    let (code, report) = smoke_suite("a", &[]);
    assert_eq!(code, 0, "a smoke run reported failures");
    let workloads = named(&benchmark, "workloads");
    let end_to_end = named(&benchmark, "end_to_end");
    let per_layer = named(&benchmark, "per_layer");
    for (name, _) in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(name), "'{name}' is not a well-formed name");
    }
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    for (workload, _) in &workloads {
        let of = |trace: bool| {
            runs(&report)
                .iter()
                .find(|r| {
                    text(r, "workload") == workload && r.get("trace") == Some(&Json::Bool(trace))
                })
                .unwrap_or_else(|| panic!("no run of {workload} with trace {trace}"))
        };
        for run in [of(false), of(true)] {
            assert_eq!(number(run, "failed"), 0.0, "{workload} failed operations");
            assert!(number(run, "attempted") >= 1.0);
            assert_eq!(run.get("correct"), Some(&Json::Bool(true)));
        }
        for (name, _) in &end_to_end {
            assert!(
                metric(of(false), name).is_some(),
                "{workload} does not report end-to-end '{name}'"
            );
        }
    }
    for (name, _) in &per_layer {
        assert!(
            runs(&report).iter().any(|r| metric(r, name).is_some()),
            "no workload measures per-layer '{name}'"
        );
    }
    // And nothing is reported that BENCHMARK.json does not name.
    for run in runs(&report) {
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            panic!("run without metrics");
        };
        for (name, _) in metrics {
            assert!(
                end_to_end.iter().chain(&per_layer).any(|(n, _)| n == name),
                "'{name}' is reported but not named in BENCHMARK.json"
            );
        }
    }
}

#[test]
fn exact_counts_repeat_between_two_runs_of_one_seed() {
    let (_, first) = smoke_suite("b1", &[]);
    let (_, second) = smoke_suite("b2", &[]);
    let mut compared = 0;
    for (a, b) in runs(&first).iter().zip(runs(&second)) {
        assert_eq!(text(a, "workload"), text(b, "workload"));
        for name in EXACT_COUNTS {
            if let Some(value) = metric(a, name) {
                assert_eq!(
                    Some(value),
                    metric(b, name),
                    "{name} on {}",
                    text(a, "workload")
                );
                compared += 1;
            }
        }
    }
    assert!(
        compared >= EXACT_COUNTS.len(),
        "only {compared} counts compared"
    );
}

#[test]
fn a_wrong_reference_makes_every_workload_fail() {
    let (code, report) = smoke_suite("wrong", &["--wrong-reference"]);
    assert_eq!(code, 1, "a wrong reference must fail the suite");
    for (workload, _) in named(&benchmark(), "workloads") {
        let failed: f64 = runs(&report)
            .iter()
            .filter(|r| {
                text(r, "workload") == workload && r.get("trace") == Some(&Json::Bool(false))
            })
            .map(|r| number(r, "failed"))
            .sum();
        assert!(failed > 0.0, "{workload} did not notice a wrong reference");
    }
}

/// The line the contract's driver reads: exactly four keys, every end-to-end
/// metric untraced, every per-layer metric traced, units as BENCHMARK.json
/// gives them.
#[test]
fn result_line_meets_the_driver_contract() {
    let benchmark = benchmark();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(EXE)
            .args([
                "--workload",
                "ingest_mrt",
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--smoke",
            ])
            .args(["--trace", trace])
            .output()
            .expect("run moasbench");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).expect("utf-8");
        let line = stdout.lines().last().expect("a result line");
        let Json::Obj(fields) = Json::parse(line).expect("result line parses") else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is not an object");
        };
        let expected = named(&benchmark, list);
        assert_eq!(metrics.len(), expected.len(), "trace {trace}");
        for (name, unit) in expected {
            let entry = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("trace {trace}: '{name}' missing from the result line"));
            assert_eq!(text(&entry.1, "unit"), unit, "{name}");
            assert!(number(&entry.1, "value").is_finite());
        }
    }
}

#[test]
fn unknown_workload_exits_non_zero_without_a_result() {
    let output = Command::new(EXE)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run moasbench");
    assert!(!output.status.success());
    assert!(!String::from_utf8_lossy(&output.stdout).contains("\"metrics\""));
}
