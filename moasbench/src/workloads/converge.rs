//! `sim_converge70k`: one origination to quiescence on an Internet-sized
//! scale-free graph through the sharded engine, once per seeded stub origin.

use std::time::Instant;

use as_topology::{AsGraph, Partition, ScaleFreeModel};
use bgp_engine::{Network, NoopMonitor, ShardedNetwork};
use bgp_types::{Asn, Ipv4Prefix};

use crate::gen;
use crate::host::{self, ProcStat};
use crate::report::{Outcome, Run};
use crate::stats::Metric;
use crate::trace::Tracer;

/// Per-link delay jitter bound, matching the experiment trials.
const MAX_LINK_DELAY: u64 = 4;

/// What one origination did: the part every shard count must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Converged {
    events: u64,
    messages: u64,
    ticks: u64,
    fingerprint: u64,
}

/// What one origination cost, and what else was seen of it.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    build_s: f64,
    run_s: f64,
    drop_s: f64,
    run_cpu_s: f64,
    run_sys_s: f64,
    run_minor_faults: u64,
    cut_links: usize,
    /// Every AS ended with a route to the origin.
    all_routed: bool,
}

fn originate(
    graph: &AsGraph,
    shards: usize,
    seed: u64,
    origin: Asn,
    prefix: Ipv4Prefix,
    id: u64,
    tracer: &mut Tracer,
) -> (Converged, Cost) {
    let mut cost = Cost::default();
    let start = Instant::now();
    let mut net = tracer.span("sharded.build", id, |_| {
        ShardedNetwork::with_monitor_and_jitter(graph, shards, 1, seed, MAX_LINK_DELAY, || {
            NoopMonitor
        })
    });
    cost.build_s = start.elapsed().as_secs_f64();
    net.originate(origin, prefix, None);
    let before = ProcStat::now();
    let start = Instant::now();
    let converged = tracer.span("sharded.run", id, |_| net.run());
    cost.run_s = start.elapsed().as_secs_f64();
    let after = ProcStat::now();
    cost.run_cpu_s = after.cpu_s() - before.cpu_s();
    cost.run_sys_s = after.stime_s - before.stime_s;
    cost.run_minor_faults = after.minor_faults - before.minor_faults;
    let result = Converged {
        events: net.events_fired(),
        messages: net.stats().total_messages(),
        ticks: converged.as_ref().map_or(0, |t| t.ticks()),
        fingerprint: net.routing_fingerprint(),
    };
    cost.cut_links = net.cut_links();
    cost.all_routed = converged.is_ok()
        && graph
            .asns()
            .all(|asn| net.best_origin(asn, prefix) == Some(origin));
    let start = Instant::now();
    tracer.span("sharded.drop", id, |_| drop(net));
    cost.drop_s = start.elapsed().as_secs_f64();
    (result, cost)
}

pub fn sim_converge70k(run: &Run, tracer: &mut Tracer) -> Outcome {
    let as_count = if run.smoke { 3_000 } else { 70_000 };
    let topology_seed = gen::stream(run.seed, 6).next();
    let mut setups = Vec::new();
    let mut graph = None;
    for _ in 0..run.setup_repeats() {
        drop(graph.take());
        let began = Instant::now();
        graph = Some(
            ScaleFreeModel::new()
                .as_count(as_count)
                .build(topology_seed),
        );
        setups.push(began.elapsed().as_secs_f64());
    }
    let graph = graph.expect("at least one set-up");
    assert_eq!(graph.len(), as_count);

    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().expect("victim prefix literal");
    let stubs = graph.stub_asns();
    let mut rng = gen::stream(run.seed, 7);
    let mut next_origin = || stubs[rng.below(stubs.len() as u64) as usize];

    let mut out = Outcome::new(0, 0);
    let mut runs: Vec<(Asn, Converged, Cost)> = Vec::new();
    let cpu_before = ProcStat::now();
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < run.measure_seconds() || runs.len() < 2 {
        let origin = next_origin();
        let id = runs.len() as u64;
        let (result, cost) = originate(&graph, 1, topology_seed, origin, prefix, id, tracer);
        out.check(
            cost.all_routed && result.events > 0,
            "an AS holds no route to the origin after convergence",
        );
        runs.push((origin, result, cost));
    }
    let cpu_s = ProcStat::now().cpu_s() - cpu_before.cpu_s();

    // The first origination again on two shards: the engine promises the
    // same routing state, event for event, for every shard count.
    let (origin, mut expected, _) = runs[0];
    if run.wrong_reference {
        expected.fingerprint ^= 1;
    }
    let (again, again_cost) = originate(&graph, 2, topology_seed, origin, prefix, u64::MAX, tracer);
    out.check(
        again == expected,
        "shards=2 diverged from shards=1 on fingerprint, events, messages or converged tick",
    );

    let total_events: u64 = runs.iter().map(|(_, r, _)| r.events).sum();
    let whole = |c: &Cost| c.build_s + c.run_s + c.drop_s;
    if run.trace {
        let first = &runs[0].1;
        out.layer("sharded.events_fired", first.events as f64);
        out.layer("sharded.converged_ticks", first.ticks as f64);
        out.layer("sharded.cut_links", again_cost.cut_links as f64);
        // Low 32 bits: a 64-bit fingerprint does not survive a JSON number.
        out.layer(
            "sharded.fingerprint",
            (first.fingerprint & 0xFFFF_FFFF) as f64,
        );
        out.layer_metric(Metric::median("topology.build_s", "s", &mut setups.clone()));
        let began = Instant::now();
        let partition = Partition::new(&graph, 2);
        out.layer("topology.partition_s", began.elapsed().as_secs_f64());
        out.check(
            partition.cut_links() == again_cost.cut_links,
            "the engine's cut differs from the partitioner's",
        );
        let med = |f: &dyn Fn(&(Asn, Converged, Cost)) -> f64, name, unit| {
            Metric::median(name, unit, &mut runs.iter().map(f).collect::<Vec<_>>())
        };
        out.layer_metric(med(&|(_, _, c)| c.build_s, "sharded.build_s", "s"));
        out.layer_metric(med(&|(_, _, c)| c.drop_s, "sharded.drop_s", "s"));
        out.layer_metric(med(
            &|(_, r, c)| c.run_s * 1e9 / r.events as f64,
            "sharded.run_ns_per_event",
            "ns",
        ));
        out.layer_metric(med(
            &|(_, r, c)| c.run_minor_faults as f64 * 1e3 / r.events as f64,
            "sharded.minor_faults_per_kevent",
            "count",
        ));
        out.layer_metric(med(
            &|(_, _, c)| c.run_sys_s / c.run_cpu_s.max(1e-9),
            "sharded.sys_share",
            "ratio",
        ));
        out.layer(
            "sharded.shards2_events_per_s",
            again.events as f64 / whole(&again_cost),
        );

        // The unsharded engine on the same graph and origin, capped at a
        // generous multiple of the sharded engine's events.
        let began = Instant::now();
        let mut classic =
            Network::with_monitor_and_jitter(&graph, NoopMonitor, topology_seed, MAX_LINK_DELAY);
        classic.originate(origin, prefix, None);
        let finished = tracer
            .span("engine.classic_run", 0, |_| {
                classic.run_with_limit(first.events * 20)
            })
            .is_ok();
        let fired = classic.queue_stats().fired;
        drop(classic);
        let classic_s = began.elapsed().as_secs_f64();
        out.layer(
            "engine.classic_events_per_s",
            if finished {
                fired as f64 / classic_s
            } else {
                0.0
            },
        );
    }

    let mut events_per_s: Vec<f64> = runs
        .iter()
        .map(|(_, r, c)| r.events as f64 / whole(c))
        .collect();
    let mut op_us: Vec<f64> = runs.iter().map(|(_, _, c)| whole(c) * 1e6).collect();
    out.end_to_end(Metric::median("setup_s", "s", &mut setups));
    out.end_to_end(Metric::median("work_per_s", "1/s", &mut events_per_s));
    out.end_to_end(Metric::median("op_p50_us", "us", &mut op_us));
    out.layer_metric(Metric::single(
        "host.cpu_us_per_work",
        "us",
        cpu_s * 1e6 / total_events as f64,
    ));
    out.end_to_end(Metric::single("peak_rss_mib", "MiB", host::peak_rss_mib()));
    let c = &runs[0].2;
    out.note(&format!(
        "{as_count} ASes, {} links; {} originations; first: {} events in build {:.2} s + run {:.2} s + drop {:.2} s; shards=2 rerun {:.2} s",
        graph.link_count(),
        runs.len(),
        runs[0].1.events,
        c.build_s,
        c.run_s,
        c.drop_s,
        whole(&again_cost),
    ));
    out
}
