//! Internet-scale convergence, one shard count at a time: one ~70k-AS
//! origination driven to quiescence at several shard counts.
//!
//! This is the tentpole's headline measurement: the synthetic scale-free
//! topology (`ScaleFreeModel`, preferential attachment, ~70k ASes) converges
//! once per shard count, the engine asserts that every run lands on the same
//! routing fingerprint, converged tick, and message totals, and the
//! wall-clock plus events/s land in the `convergence_70k` section of
//! `BENCH_sweep.json` (co-owned with `sweep_throughput`, which maintains its
//! own sections). `--test` (CI's bench smoke) runs a reduced ~5k-AS topology
//! and skips the file write.
//!
//! On a 1-CPU bench host every shard count executes its rounds sequentially,
//! so shards > 1 mostly measures the coordination overhead rather than a
//! speedup — the numbers are recorded as measured and annotated as such.

use std::time::Instant;

use as_topology::ScaleFreeModel;
use bgp_engine::ShardedNetwork;
use bgp_types::Ipv4Prefix;
use experiments::json::Json;

/// Topology seed; the graph (and therefore the whole run) is a pure function
/// of this and the AS count.
const SEED: u64 = 9107;

/// Per-link delay jitter bound, matching the experiment trials.
const MAX_LINK_DELAY: u64 = 4;

/// Shard counts measured; all must produce bit-identical outcomes.
const SHARDS: [usize; 3] = [1, 2, 4];

struct Run {
    shards: usize,
    seconds: f64,
    events: u64,
    messages: u64,
    converged_ticks: u64,
    fingerprint: u64,
}

/// Builds the graph, runs one full convergence per shard count, and asserts
/// the outcomes agree exactly.
fn measure(as_count: usize, jobs: usize) -> (f64, Vec<Run>) {
    let build_start = Instant::now();
    let graph = ScaleFreeModel::new().as_count(as_count).build(SEED);
    let build_seconds = build_start.elapsed().as_secs_f64();
    assert_eq!(graph.len(), as_count);

    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().expect("victim prefix literal");
    let origin = graph.stub_asns()[0];

    let runs: Vec<Run> = SHARDS
        .iter()
        .map(|&shards| {
            let mut net = ShardedNetwork::with_monitor_and_jitter(
                &graph,
                shards,
                jobs,
                SEED,
                MAX_LINK_DELAY,
                || bgp_engine::NoopMonitor,
            );
            net.originate(origin, prefix, None);
            let start = Instant::now();
            let converged = net.run().expect("scale-free origination converges");
            let seconds = start.elapsed().as_secs_f64();
            Run {
                shards,
                seconds,
                events: net.events_fired(),
                messages: net.stats().total_messages(),
                converged_ticks: converged.ticks(),
                fingerprint: net.routing_fingerprint(),
            }
        })
        .collect();

    let first = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            run.fingerprint, first.fingerprint,
            "shards={} diverged from shards={} on routing fingerprint",
            run.shards, first.shards
        );
        assert_eq!(
            run.converged_ticks, first.converged_ticks,
            "shards={} diverged on converged tick",
            run.shards
        );
        assert_eq!(
            run.messages, first.messages,
            "shards={} diverged on delivered messages",
            run.shards
        );
        assert_eq!(
            run.events, first.events,
            "shards={} diverged on events fired",
            run.shards
        );
    }
    (build_seconds, runs)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let as_count = if test_mode { 5_000 } else { 70_000 };
    let jobs = minipool::available_jobs();

    let (build_seconds, runs) = measure(as_count, jobs);

    if test_mode {
        assert!(runs.iter().all(|r| r.events > 0 && r.seconds > 0.0));
        println!(
            "bench convergence_70k: smoke OK ({as_count} ASes, {} events, identical across shards {:?})",
            runs[0].events, SHARDS
        );
        return;
    }

    println!("bench convergence_70k/topology  {as_count} ASes built in {build_seconds:.3} s");
    let serial_seconds = runs[0].seconds;
    for run in &runs {
        println!(
            "bench convergence_70k/shards={}  {:>8.3} s  {:>12.0} events/s ({:.2}x vs shards=1)",
            run.shards,
            run.seconds,
            run.events as f64 / run.seconds,
            serial_seconds / run.seconds
        );
    }

    let round = |x: f64, places: i32| {
        let scale = 10f64.powi(places);
        (x * scale).round() / scale
    };
    let shard_entries: Vec<Json> = runs
        .iter()
        .map(|run| {
            Json::Obj(vec![
                ("shards".to_string(), Json::Num(run.shards as f64)),
                ("seconds".to_string(), Json::Num(round(run.seconds, 3))),
                (
                    "events_per_s".to_string(),
                    Json::Num((run.events as f64 / run.seconds).round()),
                ),
                (
                    "speedup_vs_shards_1".to_string(),
                    Json::Num(round(serial_seconds / run.seconds, 3)),
                ),
            ])
        })
        .collect();
    let section = Json::Obj(vec![
        ("as_count".to_string(), Json::Num(as_count as f64)),
        ("topology_seed".to_string(), Json::Num(SEED as f64)),
        (
            "build_seconds".to_string(),
            Json::Num(round(build_seconds, 3)),
        ),
        ("host_cpus".to_string(), Json::Num(jobs as f64)),
        ("events_fired".to_string(), Json::Num(runs[0].events as f64)),
        (
            "delivered_messages".to_string(),
            Json::Num(runs[0].messages as f64),
        ),
        (
            "converged_ticks".to_string(),
            Json::Num(runs[0].converged_ticks as f64),
        ),
        ("shard_runs".to_string(), Json::Arr(shard_entries)),
        (
            "note".to_string(),
            Json::Str(format!(
                "One origination of the victim prefix on the seeded scale-free topology, \
                 run to quiescence once per shard count; routing fingerprint, converged \
                 tick, events and message totals are asserted identical across shards \
                 {SHARDS:?}. host_cpus is the cgroup-reported available_parallelism — on \
                 a 1-CPU host the shard rounds execute sequentially, so shards > 1 \
                 measures coordination overhead, not speedup; recorded as measured."
            )),
        ),
    ]);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    bench::upsert_bench_sections(path, vec![("convergence_70k", section)]);
}
