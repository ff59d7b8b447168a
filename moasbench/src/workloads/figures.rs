//! `sim_figures`: the paper's full protocol for Figures 9-11 through the
//! entry points `moas-lab figures` calls.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use as_topology::paper::PaperTopology;
use as_topology::AsGraph;
use bgp_engine::{CommunityPolicies, Network};
use bgp_types::{AsPath, Asn, MoasList, Route};
use experiments::{
    experiment1_metrics_jobs, experiment2_metrics_jobs, experiment3_metrics_jobs, run_sweep_jobs,
    run_trial, FigureReport, SweepConfig, TrialConfig, TrialOutcome,
};
use moas_core::{
    find_conflict, Deployment, FalseOriginAttack, MoasConfig, MoasMonitor, OriginVerifier,
    RegistryVerifier,
};

use crate::gen::{self, Rng};
use crate::host::{self, ProcStat};
use crate::report::{Outcome, Run};
use crate::stats::{self, Metric};
use crate::trace::Tracer;

/// The six figure panels, through the recording (`_metrics_jobs`) entry
/// points that `moas-lab figures` goes through.
fn protocol(base: &SweepConfig, jobs: usize) -> Vec<FigureReport> {
    vec![
        experiment1_metrics_jobs(1, base, jobs).0,
        experiment1_metrics_jobs(2, base, jobs).0,
        experiment2_metrics_jobs(1, base, jobs).0,
        experiment2_metrics_jobs(2, base, jobs).0,
        experiment3_metrics_jobs(PaperTopology::As46, base, jobs).0,
        experiment3_metrics_jobs(PaperTopology::As63, base, jobs).0,
    ]
}

/// The same curves through the no-op-sink sweep (`run_sweep_jobs`): one
/// `(points)` list per series, in the order `protocol` produces them.
fn protocol_noop(base: &SweepConfig) -> Vec<Vec<experiments::SweepPoint>> {
    let mut series = Vec::new();
    for origins in [1, 2] {
        for fraction in [0.0, 1.0] {
            let config = base
                .clone()
                .origin_count(origins)
                .deployment_fraction(fraction);
            series.push(run_sweep_jobs(PaperTopology::As46.graph(), &config, 1));
        }
    }
    for origins in [1, 2] {
        for fraction in [0.0, 1.0] {
            for topology in PaperTopology::ALL {
                let config = base
                    .clone()
                    .origin_count(origins)
                    .deployment_fraction(fraction);
                series.push(run_sweep_jobs(topology.graph(), &config, 1));
            }
        }
    }
    for topology in [PaperTopology::As46, PaperTopology::As63] {
        for fraction in [0.0, 0.5, 1.0] {
            let config = base.clone().deployment_fraction(fraction);
            series.push(run_sweep_jobs(topology.graph(), &config, 1));
        }
    }
    series
}

/// Trials and delivered BGP messages behind a set of reports.
fn work_in(reports: &[FigureReport], runs_per_point: usize) -> (u64, f64) {
    let mut trials = 0u64;
    let mut events = 0.0;
    for series in reports.iter().flat_map(|r| &r.series) {
        for point in &series.points {
            trials += runs_per_point as u64;
            events += point.mean_messages * runs_per_point as f64;
        }
    }
    (trials, events)
}

pub fn sim_figures(run: &Run, tracer: &mut Tracer) -> Outcome {
    let mut base = if run.smoke {
        SweepConfig::quick()
    } else {
        SweepConfig::paper()
    };
    base.seed = gen::stream(run.seed, 4).next();
    let runs_per_point = base.runs_per_point();

    // Set-up: the static topologies and a reduced-protocol pass that fills
    // caches and the allocator, as a first `moas-lab figures` call would.
    let mut warm = SweepConfig::quick();
    warm.seed = base.seed;
    let mut setups: Vec<f64> = (0..run.setup_repeats())
        .map(|_| {
            let began = Instant::now();
            black_box(protocol(&warm, 1));
            began.elapsed().as_secs_f64()
        })
        .collect();

    let mut out = Outcome::new(0, 0);
    let mut iteration_s = Vec::new();
    let mut first: Option<Vec<FigureReport>> = None;
    let cpu_before = ProcStat::now();
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < run.measure_seconds() || iteration_s.len() < 2 {
        let n = iteration_s.len() as u64;
        let start = Instant::now();
        let reports = tracer.span("experiments.protocol", n, |_| protocol(&base, 1));
        iteration_s.push(start.elapsed().as_secs_f64());
        match &first {
            None => first = Some(reports),
            Some(first) => out.check(
                *first == reports,
                "figure reports differ between iterations of one seed",
            ),
        }
    }
    let cpu_s = ProcStat::now().cpu_s() - cpu_before.cpu_s();
    let reports = first.expect("at least one iteration");
    let (trials, events) = work_in(&reports, runs_per_point);
    let iterations = iteration_s.len() as f64;

    // The recording path must draw the same curves as the no-op-sink sweep.
    let start = Instant::now();
    let mut noop = tracer.span("experiments.protocol_noop", 0, |_| protocol_noop(&base));
    let noop_s = start.elapsed().as_secs_f64();
    if run.wrong_reference {
        noop[0][0].mean_messages += 1.0;
    }
    let recorded: Vec<&Vec<experiments::SweepPoint>> = reports
        .iter()
        .flat_map(|r| r.series.iter().map(|s| &s.points))
        .collect();
    out.check(
        recorded.len() == noop.len() && recorded.iter().zip(&noop).all(|(a, b)| **a == *b),
        "recording-path figures differ from the no-op-sink sweep",
    );

    let mut trials_per_s: Vec<f64> = iteration_s.iter().map(|s| trials as f64 / s).collect();
    if run.trace {
        let mut sorted = iteration_s.clone();
        let iteration = stats::median(&mut sorted);
        out.layer(
            "metrics.recording_overhead_pct",
            (iteration / noop_s - 1.0) * 100.0,
        );
        layers(run, &base, tracer, &mut out);
    }

    let mut op_us: Vec<f64> = iteration_s.iter().map(|s| s * 1e6).collect();
    out.end_to_end(Metric::median("setup_s", "s", &mut setups));
    out.end_to_end(Metric::median("work_per_s", "1/s", &mut trials_per_s));
    out.end_to_end(Metric::median("op_p50_us", "us", &mut op_us));
    out.layer_metric(Metric::single(
        "host.cpu_us_per_work",
        "us",
        cpu_s * 1e6 / (iterations * trials as f64),
    ));
    out.end_to_end(Metric::single("peak_rss_mib", "MiB", host::peak_rss_mib()));
    out.note(&format!(
        "{} iterations of {trials} trials delivering {events:.0} BGP messages each ({:.0} messages/s)",
        iteration_s.len(),
        events * iterations / iteration_s.iter().sum::<f64>(),
    ));
    out
}

/// Seeded trial plans on the 46-AS graph, shaped like the sweep's: one stub
/// origin, 5 to 30% attackers, full deployment.
fn plan(graph: &AsGraph, seed: u64, count: usize) -> Vec<TrialConfig> {
    let mut rng = gen::stream(seed, 5);
    let stubs = graph.stub_asns();
    let all: Vec<Asn> = graph.asns().collect();
    (0..count)
        .map(|i| {
            let origin = stubs[rng.below(stubs.len() as u64) as usize];
            let wanted = 2 + rng.below(12) as usize;
            let mut attackers = BTreeSet::new();
            while attackers.len() < wanted {
                let pick = all[rng.below(all.len() as u64) as usize];
                if pick != origin {
                    attackers.insert(pick);
                }
            }
            TrialConfig {
                seed: rng.next() ^ i as u64,
                ..TrialConfig::new(
                    vec![origin],
                    attackers.into_iter().collect(),
                    Deployment::Full,
                )
            }
        })
        .collect()
}

/// One trial rebuilt from the public calls `run_trial` is made of, a span
/// around each; returns the outcome with the network's queue counters
/// (events scheduled, events fired, deepest queue).
fn replay_trial(
    graph: &AsGraph,
    config: &TrialConfig,
    id: u64,
    tracer: &mut Tracer,
) -> (TrialOutcome, [u64; 3]) {
    tracer.span("experiments.trial_replay", id, |t| {
        let valid: MoasList = config.origins.iter().copied().collect();
        let mut net = t.span("engine.build", id, |_| {
            let mut registry = RegistryVerifier::new();
            registry.register(config.prefix, valid.clone());
            let monitor = CommunityPolicies::wrapping(
                config.policies.clone(),
                MoasMonitor::new(
                    MoasConfig {
                        deployment: config.deployment.clone(),
                        strippers: config.strippers.clone(),
                        on_unresolved: config.unresolved,
                    },
                    registry,
                ),
            );
            Network::with_monitor_and_jitter(graph, monitor, config.seed, config.max_link_delay)
        });
        t.span("engine.run", id, |_| {
            for &origin in &config.origins {
                net.originate(origin, config.prefix, Some(valid.clone()));
            }
            net.run().expect("paper topologies converge");
            let attack = FalseOriginAttack::new(config.forgery);
            for &attacker in &config.attackers {
                attack.launch(&mut net, attacker, config.prefix, &valid);
            }
            net.run().expect("paper topologies converge");
        });
        let outcome = t.span("experiments.census", id, |_| {
            let attackers: BTreeSet<Asn> = config.attackers.iter().copied().collect();
            let mut eligible = 0;
            let mut adopted_false = 0;
            for asn in graph.asns().filter(|a| !attackers.contains(a)) {
                eligible += 1;
                if net
                    .best_origin(asn, config.prefix)
                    .is_some_and(|o| attackers.contains(&o))
                {
                    adopted_false += 1;
                }
            }
            let alarms = net.monitor().inner().alarms();
            TrialOutcome {
                eligible,
                adopted_false,
                alarms: alarms.len(),
                confirmed_alarms: alarms.confirmed_count(),
                false_alarms: alarms.false_alarm_count(),
                verifier_queries: net.monitor().inner().verifier().query_count(),
                messages: net.stats().total_messages(),
            }
        });
        let queue = net.queue_stats();
        (
            outcome,
            [queue.scheduled, queue.fired, queue.depth_high_water],
        )
    })
}

fn layers(run: &Run, base: &SweepConfig, tracer: &mut Tracer, out: &mut Outcome) {
    let graph = PaperTopology::As46.graph();
    let plans = plan(graph, run.seed, run.scaled(600));
    let n = plans.len() as f64;

    let began = Instant::now();
    let reference: Vec<TrialOutcome> = plans.iter().map(|p| run_trial(graph, p)).collect();
    let whole_s = began.elapsed().as_secs_f64();

    let (mut pushes, mut fired, mut max_depth, mut alarms, mut queries) =
        (0u64, 0u64, 0u64, 0usize, 0u64);
    let mut same = true;
    for (i, (config, expected)) in plans.iter().zip(&reference).enumerate() {
        let (outcome, [scheduled, popped, depth]) = replay_trial(graph, config, i as u64, tracer);
        same &= outcome == *expected;
        pushes += scheduled;
        fired += popped;
        max_depth = max_depth.max(depth);
        alarms += outcome.alarms;
        queries += outcome.verifier_queries;
    }
    out.check(
        same,
        "a trial replayed from public calls differs from run_trial",
    );

    let build_s = tracer.total_s("engine.build");
    let run_s = tracer.total_s("engine.run");
    let census_s = tracer.total_s("experiments.census");
    out.layer("engine.build_us_per_trial", build_s * 1e6 / n);
    out.layer("engine.run_ns_per_event", run_s * 1e9 / fired.max(1) as f64);
    out.layer("experiments.census_us_per_trial", census_s * 1e6 / n);
    out.layer(
        "experiments.unattributed_pct",
        (whole_s - build_s - run_s - census_s) / whole_s * 100.0,
    );
    out.layer("queue.pushes_per_trial", pushes as f64 / n);
    out.layer("queue.max_depth", max_depth as f64);
    out.layer("core.alarms_per_trial", alarms as f64 / n);
    out.layer("core.verifier_queries_per_trial", queries as f64 / n);

    // The detector's pure check: an arriving forged route against three held.
    let mut rng = Rng::new(run.seed ^ 0x77);
    let prefix: bgp_types::Ipv4Prefix = "208.8.0.0/16".parse().expect("prefix literal");
    let valid: MoasList = [Asn(4), Asn(226)].into_iter().collect();
    let held: Vec<(Option<Asn>, Route)> = (0..3u32)
        .map(|i| {
            let path =
                AsPath::from_sequence([Asn(700 + i), Asn(1 + rng.below(500) as u32), Asn(4)]);
            (
                Some(Asn(700 + i)),
                Route::new(prefix, path).with_moas_list(valid.clone()),
            )
        })
        .collect();
    let forged: MoasList = [Asn(4), Asn(226), Asn(666)].into_iter().collect();
    let arriving =
        Route::new(prefix, AsPath::from_sequence([Asn(9), Asn(666)])).with_moas_list(forged);
    let calls = run.scaled(200_000);
    let began = Instant::now();
    let mut conflicts = 0usize;
    for _ in 0..calls {
        conflicts += usize::from(find_conflict(black_box(&arriving), black_box(&held)).is_some());
    }
    out.layer(
        "core.find_conflict_ns",
        began.elapsed().as_secs_f64() * 1e9 / calls as f64,
    );
    out.check(
        conflicts == calls,
        "find_conflict missed an inconsistent list",
    );

    // Trial-level parallelism on this host, on one panel.
    let time_panel = |jobs: usize| {
        let began = Instant::now();
        black_box(experiment3_metrics_jobs(PaperTopology::As46, base, jobs));
        began.elapsed().as_secs_f64()
    };
    let serial = time_panel(1);
    let parallel = time_panel(2);
    out.layer("experiments.jobs2_speedup", serial / parallel);
}
