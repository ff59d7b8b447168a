//! `moasbench`: one command, five workloads, end-to-end and per-layer numbers
//! for the daemon, the ingest path and the simulator. See `README.md`.
//!
//! ```text
//! moasbench --workload W --seed N --seconds S --trace 0|1     one run, one process
//! moasbench all [--seed N] [--seconds S] [--repeat K] [--out FILE]
//! moasbench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```

mod compare;
mod gen;
mod host;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::json::Json;
use report::{Outcome, Run};
use stats::{compact, Metric};
use trace::Tracer;

/// The calibration loop may drift this much across a workload before the
/// run is labelled noisy.
const NOISY_DRIFT_PCT: f64 = 20.0;

/// `BENCHMARK.json` of the checkout this binary was built from.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Where the benchmark writes (trace files, suite reports): a directory
/// beside the running executable, so always inside the build directory.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .expect("executable has a directory")
        .join("moasbench-out")
}

fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![
        ("value".to_string(), Json::Num(m.value)),
        ("unit".to_string(), Json::Str(m.unit.into())),
        ("samples".to_string(), Json::Num(m.samples as f64)),
    ];
    if let Some([q1, q3]) = m.quartiles {
        fields.push(("q1".into(), Json::Num(q1)));
        fields.push(("q3".into(), Json::Num(q3)));
    }
    Json::Obj(fields)
}

/// One workload in this process, as the contract's driver runs it. Prints
/// every metric by name with unit, sample count, median and quartiles, then
/// the detail record `all` gathers.
fn run_one(run: &Run) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(run.trace);
    let calibration_before = host::calibration_ms();
    let mut outcome = workloads::run(run, &mut tracer)
        .ok_or_else(|| format!("unknown workload '{}'", run.workload))?;
    let calibration_after = host::calibration_ms();
    let drift = (calibration_after / calibration_before - 1.0).abs() * 100.0;
    let noisy = drift > NOISY_DRIFT_PCT;
    if run.trace {
        outcome.layer("host.calibration_ms", calibration_before);
        outcome.layer("host.calibration_drift_pct", drift);
        outcome.layer("trace.spans", tracer.spans().len() as f64);
        // The traced main loop's throughput, to set against an untraced run's.
        let traced = outcome
            .end_to_end
            .iter()
            .find(|m| m.name == "work_per_s")
            .cloned()
            .expect("every workload reports work_per_s");
        outcome.layer_metric(Metric {
            name: "trace.work_per_s",
            ..traced
        });
        let path = out_dir().join(format!("trace-{}.json", run.workload));
        tracer
            .write(&path, &run.workload, run.seed)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let metrics = outcome.contract_metrics(run.trace);
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric '{}' is not a finite number", bad.name));
    }
    println!(
        "{} seed {} seconds {} trace {} nproc {}: {} failed of {} attempted, noisy {noisy} (calibration {calibration_before:.2} ms before, {calibration_after:.2} ms after)",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        host::nproc(),
        outcome.failed,
        outcome.attempted,
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for m in metrics.iter().filter(|m| m.samples > 0) {
        let spread = match m.quartiles {
            Some([q1, q3]) => format!("  q1 {q1:.4}  q3 {q3:.4}"),
            None => String::new(),
        };
        println!(
            "  {:<34} {:>16.4} {:<6} n={}{spread}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let detail = Json::Obj(vec![
        ("workload".into(), Json::Str(run.workload.clone())),
        ("trace".into(), Json::Bool(run.trace)),
        ("seed".into(), Json::Num(run.seed as f64)),
        ("noisy".into(), Json::Bool(noisy)),
        (
            "calibration_ms".into(),
            Json::Arr(vec![
                Json::Num(calibration_before),
                Json::Num(calibration_after),
            ]),
        ),
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .filter(|m| m.samples > 0)
                    .map(|m| (m.name.to_string(), metric_json(m)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}{}", suite::DETAIL, compact(&detail));
    Ok(outcome)
}

enum Cli {
    One(Run),
    All(suite::Suite),
    Compare {
        a: PathBuf,
        b: PathBuf,
        benchmark: PathBuf,
    },
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(word @ ("all" | "compare")) => (word, &args[1..]),
        _ => ("one", args),
    };
    let mut workload = String::new();
    let (mut seed, mut seconds, mut repeat) = (1u64, 10.0f64, 1usize);
    let (mut trace, mut smoke, mut wrong_reference) = (false, false, false);
    let (mut out, mut benchmark) = (None, PathBuf::from(BENCHMARK_JSON));
    let mut files = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = value()?.clone(),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--repeat" => repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => smoke = true,
            "--wrong-reference" => wrong_reference = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--benchmark" => benchmark = PathBuf::from(value()?),
            file if command == "compare" && !file.starts_with("--") => {
                files.push(PathBuf::from(file))
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(match command {
        "all" => Cli::All(suite::Suite {
            seed,
            seconds,
            repeat,
            smoke,
            wrong_reference,
            out,
        }),
        "compare" => match <[PathBuf; 2]>::try_from(files) {
            Ok([a, b]) => Cli::Compare { a, b, benchmark },
            Err(_) => return Err("compare takes exactly two report files".into()),
        },
        _ => Cli::One(Run {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            wrong_reference,
        }),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|cli| match cli {
        Cli::One(run) => {
            let outcome = run_one(&run)?;
            // The contract's result: the last line of standard output.
            println!("{}", outcome.result_line(run.trace));
            Ok(true)
        }
        Cli::All(suite) => suite::run(&suite),
        Cli::Compare { a, b, benchmark } => compare::run(&a, &b, &benchmark),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("moasbench: {message}");
            ExitCode::from(2)
        }
    }
}
