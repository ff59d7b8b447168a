//! Sweep throughput: trials/s and delivered BGP events/s for the §5.2
//! attacker-fraction sweep, serial vs `--jobs N`.
//!
//! Unlike the figure benches this target has a custom `main`: besides
//! printing the numbers it updates its sections of `BENCH_sweep.json` at the
//! repository root, the perf-trajectory record tracked across PRs (the file
//! is co-owned with `convergence_70k`, which maintains its own section).
//! `--test` (what CI's bench smoke passes) runs a reduced workload and skips
//! the file write.

use std::time::Instant;

use as_topology::paper::PaperTopology;
use experiments::json::Json;
use experiments::{run_sweep, Exec, SweepConfig, SweepPoint};

/// Repetitions per timed configuration; the minimum is reported.
const REPS: usize = 3;

/// The worker counts measured against the serial path.
const JOBS: [usize; 2] = [2, 4];

/// The workload: the quick protocol's fractions with the paper's full
/// 15-runs-per-point averaging — 45 trials per sweep on the 46-AS topology.
fn workload() -> SweepConfig {
    let mut config = SweepConfig::paper();
    config.attacker_fractions = vec![0.05, 0.15, 0.30];
    config
}

/// Total trials a sweep of `config` runs.
fn trial_count(config: &SweepConfig) -> usize {
    config.attacker_fractions.len() * config.runs_per_point()
}

/// Total delivered BGP update messages across a sweep's trials, recovered
/// from the per-point means (each point averages `runs_per_point` trials).
fn delivered_events(points: &[SweepPoint], runs_per_point: usize) -> f64 {
    points
        .iter()
        .map(|p| p.mean_messages * runs_per_point as f64)
        .sum()
}

struct Measurement {
    jobs: usize,
    seconds: f64,
    trials_per_s: f64,
    events_per_s: f64,
}

/// Times `run_sweep` under `exec` over `REPS` repetitions, keeping the
/// fastest. With `exec.metrics` this is the recording-sink path — the
/// observability layer's cost when a `--metrics` snapshot *is* requested;
/// without it the sweep goes through `NoopSink`, whose `ENABLED = false`
/// compiles the instrumentation away. The gap between the two numbers is the
/// price of recording.
fn measure(config: &SweepConfig, exec: Exec) -> Measurement {
    let graph = PaperTopology::As46.graph();
    let mut best = f64::INFINITY;
    let mut events = 0.0;
    for _ in 0..REPS {
        let start = Instant::now();
        let (points, _metrics) = run_sweep(graph, config, exec);
        let elapsed = start.elapsed().as_secs_f64();
        events = delivered_events(&points, config.runs_per_point());
        best = best.min(elapsed);
    }
    Measurement {
        jobs: exec.jobs,
        seconds: best,
        trials_per_s: trial_count(config) as f64 / best,
        events_per_s: events / best,
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        // Smoke: one reduced serial-vs-parallel pass, no file write.
        let config = SweepConfig::quick();
        let graph = PaperTopology::As46.graph();
        let (serial, _) = run_sweep(graph, &config, Exec::serial());
        let (parallel, _) = run_sweep(graph, &config, Exec::jobs(4));
        assert_eq!(serial, parallel, "jobs=4 must be bit-identical to serial");
        let (recorded, metrics) = run_sweep(graph, &config, Exec::jobs(4).metrics());
        assert_eq!(recorded, serial, "recording must not perturb the figure");
        assert!(!metrics.is_empty(), "recording sweep produced no metrics");
        println!(
            "bench sweep_throughput: smoke OK ({} trials)",
            trial_count(&config)
        );
        return;
    }

    let config = workload();
    let host_cpus = minipool::available_jobs();
    let serial = measure(&config, Exec::serial());
    println!(
        "bench sweep_throughput/serial   {:>8.1} trials/s  {:>12.0} events/s ({:.3} s)",
        serial.trials_per_s, serial.events_per_s, serial.seconds
    );
    let parallel: Vec<Measurement> = JOBS
        .iter()
        .map(|&jobs| measure(&config, Exec::jobs(jobs)))
        .collect();
    for m in &parallel {
        println!(
            "bench sweep_throughput/jobs={}   {:>8.1} trials/s  {:>12.0} events/s ({:.3} s, {:.2}x)",
            m.jobs,
            m.trials_per_s,
            m.events_per_s,
            m.seconds,
            serial.seconds / m.seconds
        );
    }
    let recording = measure(&config, Exec::serial().metrics());
    println!(
        "bench sweep_throughput/recording{:>8.1} trials/s  {:>12.0} events/s ({:.3} s, {:+.1}% vs no-op)",
        recording.trials_per_s,
        recording.events_per_s,
        recording.seconds,
        100.0 * (recording.seconds / serial.seconds - 1.0)
    );

    // Round before storing: `Json::Num` prints shortest-round-trip f64, so
    // pre-rounding keeps the record file readable.
    let round = |x: f64, places: i32| {
        let scale = 10f64.powi(places);
        (x * scale).round() / scale
    };
    let measurement_json = |m: &Measurement, with_speedup: bool| {
        let mut fields = vec![
            ("seconds".to_string(), Json::Num(round(m.seconds, 4))),
            (
                "trials_per_s".to_string(),
                Json::Num(round(m.trials_per_s, 1)),
            ),
            (
                "delivered_events_per_s".to_string(),
                Json::Num(m.events_per_s.round()),
            ),
        ];
        if with_speedup {
            fields.insert(0, ("jobs".to_string(), Json::Num(m.jobs as f64)));
            fields.push((
                "speedup_vs_serial".to_string(),
                Json::Num(round(serial.seconds / m.seconds, 3)),
            ));
        }
        Json::Obj(fields)
    };
    let updates = vec![
        ("bench", Json::Str("sweep_throughput".to_string())),
        ("topology", Json::Str("46-AS".to_string())),
        ("trials_per_sweep", Json::Num(trial_count(&config) as f64)),
        ("runs_per_point", Json::Num(config.runs_per_point() as f64)),
        ("host_cpus", Json::Num(host_cpus as f64)),
        ("serial", measurement_json(&serial, false)),
        (
            "parallel",
            Json::Arr(parallel.iter().map(|m| measurement_json(m, true)).collect()),
        ),
        (
            "metrics_recording",
            Json::Obj(vec![
                (
                    "seconds".to_string(),
                    Json::Num(round(recording.seconds, 4)),
                ),
                (
                    "trials_per_s".to_string(),
                    Json::Num(round(recording.trials_per_s, 1)),
                ),
                (
                    "overhead_vs_noop_pct".to_string(),
                    Json::Num(round(100.0 * (recording.seconds / serial.seconds - 1.0), 1)),
                ),
                (
                    "note".to_string(),
                    Json::Str(
                        "serial run_sweep with Exec.metrics: per-trial RecordingSink snapshots \
                         merged in plan order; the default no-op path compiles the \
                         instrumentation away. This overhead is dominated by one-shot \
                         dynamic session.*/link.* keys inserted into a fresh per-trial \
                         sink plus the plan-order snapshot merge — costs the token/cache \
                         fast path cannot serve; tokens remove the per-observation \
                         hashing where a key repeats within one export (the per-router \
                         net.adj_rib_in.size histogram: 46 observations here, 70k in \
                         a 70k-AS export)"
                            .to_string(),
                    ),
                ),
            ]),
        ),
        (
            "baseline",
            Json::Obj(vec![
                ("commit".to_string(), Json::Str("2d74cd5".to_string())),
                (
                    "note".to_string(),
                    Json::Str(
                        "pre-observability engine (no metrics instrumentation), same \
                         workload shape; the no-op-sink serial number above must stay \
                         within 1% of it"
                            .to_string(),
                    ),
                ),
                ("trials_per_s".to_string(), Json::Num(1125.3)),
                ("delivered_events_per_s".to_string(), Json::Num(1278932.0)),
            ]),
        ),
        (
            "notes",
            Json::Str(format!(
                "Fastest of {REPS} repetitions, recorded as measured. host_cpus is the \
                 cgroup-reported available_parallelism; the scheduler may grant more (or \
                 fewer) cycles, so the parallel speedup reflects the actual CPU allotment, \
                 not the nominal count. Determinism: every jobs value returns bit-identical \
                 SweepPoints and metrics snapshots (pinned by \
                 crates/experiments/tests/parallel_determinism.rs and \
                 metrics_determinism.rs)."
            )),
        ),
    ];
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    bench::upsert_bench_sections(path, updates);
}
