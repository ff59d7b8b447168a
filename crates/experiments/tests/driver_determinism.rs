//! The execution contract, one table for every driver: an [`Exec`] never
//! changes what a driver reports.
//!
//! Each row runs one driver over the grid `jobs ∈ {1, 4}` × `shards ∈ {1, 2,
//! 4}` × `metrics ∈ {off, on}` (restricted to the axes the driver has) and
//! compares rendered bytes — the report's `Debug` rendering and the
//! snapshot's JSON:
//!
//! * identical across `jobs` and across shard counts (report and snapshot);
//! * report identical with metrics on and off; snapshot empty exactly when
//!   metrics are off.
//!
//! Trials are planned sequentially, run into index-addressed slots, and
//! aggregated in planning order; the engine orders same-timestamp events
//! intrinsically. So nothing about worker scheduling or shard layout can
//! leak into a figure, and these rows pin that. The engine rows at the end
//! pin the same for the raw network state, `Network` included.
//!
//! `Debug` is the stricter rendering for reports: it prints every `f64` in
//! shortest round-trip form and keeps `-0.0` apart from `0.0`, which the
//! JSON writer prints alike.

use std::fmt::Debug;

use as_topology::paper::PaperTopology;
use as_topology::{AsGraph, InternetModel};
use bgp_engine::{
    ConvergenceError, FaultEvent, FaultStats, LinkFaultModel, NetFaultPlan, Network, NetworkStats,
    NoopMonitor, ShardedNetwork,
};
use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
use experiments::json::to_string_pretty;
use experiments::{
    community_policy_ablation, experiment1, experiment1_metrics_jobs, experiment2,
    experiment2_metrics_jobs, experiment3, experiment3_metrics_jobs, forgery_ablation,
    measure_moas_list_overhead, parse_snapshot, run_chaos, run_deployment_sweep, run_ensemble,
    run_session_chaos, run_sweep, run_sweep_jobs, run_trial, run_trial_with, subprefix_ablation,
    unresolved_policy_ablation, valley_free_ablation, ChaosConfig, ChaosScenario, EnsembleConfig,
    Exec, SessionChaosConfig, SessionChaosScenario, SweepConfig, TrialConfig,
};
use minimetrics::{MetricsSnapshot, RecordingSink};
use moas_core::{Alarm, Deployment, FalseOriginAttack, ListForgery, MoasMonitor, RegistryVerifier};

const JOBS: [usize; 2] = [1, 4];
const SHARDS: [usize; 3] = [1, 2, 4];

/// Rendered `(report, snapshot)` bytes of one run.
type Rendered = (String, String);

/// Which `Exec` fields a driver takes; `jobs` is always one of them.
#[derive(Clone, Copy)]
struct Axes {
    shards: bool,
    metrics: bool,
}

/// Takes a full [`Exec`].
const EXEC: Axes = Axes {
    shards: true,
    metrics: true,
};
/// Takes a bare `jobs`.
const JOBS_ONLY: Axes = Axes {
    shards: false,
    metrics: false,
};

fn render<T: Debug>((report, snapshot): (T, MetricsSnapshot)) -> Rendered {
    (format!("{report:?}"), to_string_pretty(&snapshot))
}

fn no_snapshot<T: Debug>(report: T) -> Rendered {
    render((report, MetricsSnapshot::new()))
}

/// Walks one driver over its grid and asserts the contract in the module
/// docs.
fn check(name: &str, axes: Axes, run: impl Fn(Exec) -> Rendered) {
    let shard_counts: &[usize] = if axes.shards { &SHARDS } else { &[1] };
    let metrics_modes: &[bool] = if axes.metrics {
        &[false, true]
    } else {
        &[false]
    };
    let empty_snapshot = to_string_pretty(&MetricsSnapshot::new());

    // Reference report: metrics off, shards = 1, jobs = 1.
    let mut plain_report: Option<String> = None;
    for &metrics in metrics_modes {
        // Reference for this metrics mode: shards = 1, jobs = 1.
        let mut reference: Option<Rendered> = None;
        for &shards in shard_counts {
            for jobs in JOBS {
                let exec = Exec {
                    jobs,
                    shards,
                    metrics,
                };
                let rendered = run(exec);
                let at = format!("{name} under {exec:?}");

                assert_eq!(
                    rendered.1 == empty_snapshot,
                    !metrics,
                    "{at}: snapshot must be empty exactly when metrics are off"
                );
                let reference = reference.get_or_insert_with(|| rendered.clone());
                assert_eq!(&rendered, reference, "{at}: diverged from jobs=1, shards=1");
                let plain = plain_report.get_or_insert_with(|| rendered.0.clone());
                assert_eq!(&rendered.0, plain, "{at}: recording perturbed the report");
            }
        }
    }
}

fn tiny_sweep() -> SweepConfig {
    let mut config = SweepConfig::quick();
    config.attacker_fractions = vec![0.1, 0.3];
    config.origin_set_count = 1;
    config.attacker_set_count = 2;
    config
}

fn chaos_config(scenario: ChaosScenario) -> ChaosConfig {
    // The chaos driver carries more per-trial randomness than the figure
    // drivers: each trial owns a fault RNG stream (drop/corrupt/duplicate
    // coin flips) derived from the trial seed. A scheduling leak anywhere —
    // planning, the fault stream, or aggregation — shows up as a diverging
    // report. Lossy-core exercises the fault RNG hardest.
    let mut config = ChaosConfig::quick(scenario);
    config.trials = 5;
    config.seed = 0xC0FFEE;
    config
}

fn ensemble_config() -> EnsembleConfig {
    let mut config = EnsembleConfig::quick();
    config.trials = 2;
    config.seed = 0xE57E;
    config
}

#[test]
fn sweep_and_trial_rows() {
    let graph = PaperTopology::As46.graph();
    let config = SweepConfig::quick();
    check("run_sweep", EXEC, |exec| {
        render(run_sweep(graph, &config, exec))
    });

    // One hand-built trial (explicit attacker, full deployment) for sharper
    // failure locality than the planned sweeps give.
    let stubs = graph.stub_asns();
    let trial = TrialConfig::new(
        vec![stubs[0]],
        vec![stubs[stubs.len() - 1]],
        Deployment::Full,
    );
    check("run_trial_with", EXEC, |exec| {
        render(run_trial_with(graph, &trial, exec))
    });
    // The canonical no-frills entry point is the serial run.
    assert_eq!(
        run_trial(graph, &trial),
        run_trial_with(graph, &trial, Exec::serial()).0
    );
}

#[test]
fn figure_rows() {
    let base = tiny_sweep();
    check("experiment1", EXEC, |exec| {
        render(experiment1(2, &base, exec))
    });
    check("experiment2", EXEC, |exec| {
        render(experiment2(1, &base, exec))
    });
    check("experiment3", EXEC, |exec| {
        render(experiment3(PaperTopology::As25, &base, exec))
    });
}

#[test]
fn ablation_rows() {
    let as46 = PaperTopology::As46.graph();
    let as25 = PaperTopology::As25.graph();
    check("forgery_ablation", EXEC, |exec| {
        render(forgery_ablation(as46, 3, 0xAB3, exec))
    });
    check("community_policy_ablation", EXEC, |exec| {
        render(community_policy_ablation(as25, 2, 31, exec))
    });
    check("subprefix_ablation", EXEC, |exec| {
        render(subprefix_ablation(as25, 3, 11, exec))
    });
    check("valley_free_ablation", EXEC, |exec| {
        render(valley_free_ablation(3, 23, exec))
    });
    check("unresolved_policy_ablation", EXEC, |exec| {
        render(unresolved_policy_ablation(as25, 3, 19, exec))
    });
}

#[test]
fn chaos_rows() {
    for scenario in ChaosScenario::all() {
        let config = chaos_config(scenario);
        check(&format!("run_chaos {scenario}"), EXEC, |exec| {
            render(run_chaos(&config, exec))
        });
    }
    let config = ChaosConfig::quick(ChaosScenario::SessionReset);
    check("run_deployment_sweep", EXEC, |exec| {
        render(run_deployment_sweep(&config, &[0.0, 0.5], exec))
    });
}

#[test]
fn ensemble_session_and_overhead_rows() {
    let config = ensemble_config();
    let ensemble_axes = Axes {
        shards: false,
        metrics: true,
    };
    check("run_ensemble", ensemble_axes, |exec| {
        render(run_ensemble(&config, exec.jobs, exec.metrics))
    });

    for scenario in SessionChaosScenario::ALL {
        let config = SessionChaosConfig::quick(scenario);
        check(
            &format!("run_session_chaos {scenario:?}"),
            JOBS_ONLY,
            |exec| no_snapshot(run_session_chaos(&config, exec.jobs)),
        );
    }

    let timeline = route_measurement::generate_timeline(
        &route_measurement::TimelineConfig::paper().with_days(10),
    );
    let dump = timeline.dumps.last().expect("timeline has dumps");
    check("measure_moas_list_overhead", JOBS_ONLY, |exec| {
        no_snapshot(measure_moas_list_overhead(dump, exec.jobs))
    });
}

#[test]
fn compat_forwards_equal_their_canonical_calls() {
    let graph = PaperTopology::As46.graph();
    let base = tiny_sweep();
    for jobs in JOBS {
        let recording = Exec::jobs(jobs).metrics();
        assert_eq!(
            run_sweep_jobs(graph, &base, jobs),
            run_sweep(graph, &base, Exec::jobs(jobs)).0
        );
        assert_eq!(
            experiment1_metrics_jobs(1, &base, jobs),
            experiment1(1, &base, recording)
        );
        assert_eq!(
            experiment2_metrics_jobs(2, &base, jobs),
            experiment2(2, &base, recording)
        );
        assert_eq!(
            experiment3_metrics_jobs(PaperTopology::As46, &base, jobs),
            experiment3(PaperTopology::As46, &base, recording)
        );
    }
}

#[test]
fn rib_fingerprints_are_identical_for_every_shard_count() {
    // Drive one convergence per shard count directly through the engine so
    // the full RIB state — not just the figure aggregates — is compared.
    let graph = PaperTopology::As46.graph();
    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().expect("prefix literal");
    let origin = graph.stub_asns()[0];
    let run = |shards: usize| {
        let mut net =
            ShardedNetwork::with_monitor_and_jitter(graph, shards, 2, 0xD5, 4, || NoopMonitor);
        net.originate(origin, prefix, None);
        let converged = net.run().expect("46-AS origination converges");
        (
            net.routing_fingerprint(),
            converged.ticks(),
            net.events_fired(),
            net.stats().total_messages(),
        )
    };
    let reference = run(1);
    for shards in SHARDS {
        assert_eq!(
            run(shards),
            reference,
            "shards={shards} diverged on (fingerprint, ticks, events, messages)"
        );
    }
}

/// Everything one engine run leaves behind that a driver could read.
#[derive(Debug, PartialEq)]
struct EngineState {
    outcome: Result<u64, ConvergenceError>,
    fingerprint: u64,
    stats: NetworkStats,
    faults: FaultStats,
    /// Every monitor's alarms, in firing order per observer.
    alarms: Vec<Alarm>,
    metrics: MetricsSnapshot,
}

/// One fault plan per chaos scenario, shaped like the one `run_chaos` gives
/// its trials (the driver's own are private), with a forged announcement
/// mid-churn so the alarm logs are not empty.
struct EngineCase {
    plan: NetFaultPlan,
    mrai: u64,
    watchdog: u64,
    origins: Vec<(Asn, Option<MoasList>)>,
}

fn engine_case(scenario: ChaosScenario, graph: &AsGraph, prefix: Ipv4Prefix) -> EngineCase {
    let multihomed: Vec<Asn> = graph
        .stub_asns()
        .into_iter()
        .filter(|&s| graph.degree(s) >= 2)
        .collect();
    let (victim, partner) = (multihomed[0], multihomed[1]);
    let provider = graph.neighbors(victim).next().expect("stub has a provider");
    let attacker = *graph.stub_asns().last().expect("graph has stubs");
    let valid: MoasList = [victim, partner].into_iter().collect();
    let bare = Route::new(prefix, AsPath::new());
    let toggle_partner = FaultEvent::ToggleOrigin {
        asn: partner,
        route: bare.clone(),
    };

    let mut case = EngineCase {
        plan: NetFaultPlan::new(0xFA17),
        mrai: 0,
        watchdog: 0,
        origins: vec![(victim, None)],
    };
    let plan = &mut case.plan;
    match scenario {
        ChaosScenario::Failover => {
            plan.at(40, FaultEvent::FailLink(victim, provider));
            let route = bare.clone();
            plan.at(
                45,
                FaultEvent::Announce {
                    asn: partner,
                    route,
                },
            );
            plan.at(200, FaultEvent::RestoreLink(victim, provider));
            let asn = partner;
            plan.at(205, FaultEvent::Withdraw { asn, prefix });
        }
        ChaosScenario::OriginFlap => {
            plan.every(40, 40, Some(6), toggle_partner);
            case.mrai = 20;
        }
        ChaosScenario::LossyCore => {
            let transit = graph.transit_asns();
            for (a, b) in graph.links() {
                if transit.contains(&a) && transit.contains(&b) {
                    plan.set_link_model(
                        (a, b),
                        LinkFaultModel {
                            drop: 0.15,
                            corrupt: 0.05,
                            duplicate: 0.05,
                            reorder: 0.10,
                            max_extra_delay: 5,
                        },
                    );
                }
            }
            case.origins = vec![
                (victim, Some(valid.clone())),
                (partner, Some(valid.clone())),
            ];
        }
        ChaosScenario::SessionReset => {
            plan.every(40, 60, Some(3), FaultEvent::ResetSession(victim, provider));
            case.origins = vec![
                (victim, Some(valid.clone())),
                (partner, Some(valid.clone())),
            ];
        }
        ChaosScenario::FlapStorm => {
            plan.every(5, 6, None, toggle_partner);
            case.watchdog = 64;
        }
        ChaosScenario::MraiDeferral => {
            plan.every(40, 10, Some(6), toggle_partner);
            case.mrai = 30;
        }
    }
    let forged =
        FalseOriginAttack::new(ListForgery::IncludeSelf).forged_route(prefix, attacker, &valid);
    let asn = attacker;
    plan.at(120, FaultEvent::Announce { asn, route: forged });
    case
}

type Monitor = MoasMonitor<RegistryVerifier>;

/// Installs a case on a freshly built network (`Network` derefs to this).
fn arm(net: &mut ShardedNetwork<Monitor>, case: &EngineCase, prefix: Ipv4Prefix) {
    net.set_mrai(case.mrai);
    net.set_watchdog(case.watchdog);
    net.set_fault_plan(case.plan.clone())
        .expect("plan names real links");
    for (origin, list) in &case.origins {
        net.originate(*origin, prefix, list.clone());
    }
}

fn observe(
    net: &ShardedNetwork<Monitor>,
    outcome: Result<bgp_types::SimTime, ConvergenceError>,
) -> EngineState {
    let mut alarms: Vec<Alarm> = net
        .monitors()
        .flat_map(|m| m.alarms().iter().cloned())
        .collect();
    alarms.sort_by_key(|a| (a.at, a.observer));
    let mut sink = RecordingSink::new();
    net.export_metrics(&mut sink);
    EngineState {
        outcome: outcome.map(|t| t.ticks()),
        fingerprint: net.routing_fingerprint(),
        stats: net.stats(),
        faults: net.fault_stats_total(),
        alarms,
        metrics: sink.into_snapshot(),
    }
}

#[test]
fn network_equals_every_shard_count_under_each_chaos_fault_plan() {
    // `Network` is the one-shard engine on the calling thread; two and four
    // shards (pooled) must leave exactly the same state behind.
    const BUDGET: u64 = 2_000_000;
    let graph = InternetModel::new()
        .transit_count(8)
        .stub_count(30)
        .multihome_prob(0.9)
        .build(0xC4A05);
    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().expect("prefix literal");
    let monitor = |case: &EngineCase| {
        let valid: MoasList = case.origins.iter().map(|(asn, _)| *asn).collect();
        let mut registry = RegistryVerifier::new();
        registry.register(prefix, valid);
        MoasMonitor::full(registry)
    };
    for scenario in ChaosScenario::all() {
        let case = engine_case(scenario, &graph, prefix);
        let mut net = Network::with_monitor_and_jitter(&graph, monitor(&case), 0x5EED, 4);
        arm(&mut net, &case, prefix);
        let outcome = net.run_with_limit(BUDGET);
        let reference = observe(&net, outcome);
        assert_eq!(
            reference.outcome.is_err(),
            scenario == ChaosScenario::FlapStorm,
            "{scenario}: {:?}",
            reference.outcome
        );
        assert!(reference.stats.total_messages() > 0, "{scenario}");
        if scenario != ChaosScenario::FlapStorm {
            assert!(
                !reference.alarms.is_empty(),
                "{scenario}: forged origin unseen"
            );
        }
        for shards in [2, 4] {
            let mut net =
                ShardedNetwork::with_monitor_and_jitter(&graph, shards, 2, 0x5EED, 4, || {
                    monitor(&case)
                });
            arm(&mut net, &case, prefix);
            let outcome = net.run_with_limit(BUDGET);
            assert_eq!(
                observe(&net, outcome),
                reference,
                "{scenario}: shards={shards} != Network"
            );
        }
    }
}

// What the snapshots contain — the part of the observability contract that
// is about content rather than invariance.

#[test]
fn sweep_snapshot_counts_every_planned_trial() {
    let graph = PaperTopology::As46.graph();
    let config = SweepConfig::quick();
    let trials = (config.attacker_fractions.len() * config.runs_per_point()) as u64;
    for exec in [Exec::jobs(2).metrics(), Exec::jobs(2).shards(2).metrics()] {
        let (_, metrics) = run_sweep(graph, &config, exec);
        assert_eq!(metrics.counters["trial.count"], trials, "{exec:?}");
        assert_eq!(
            metrics.histograms["trial.convergence_ticks.origin"].count(),
            trials,
            "{exec:?}"
        );
    }
}

#[test]
fn chaos_snapshot_contains_the_advertised_key_families() {
    let config = ChaosConfig::quick(ChaosScenario::LossyCore);
    let (_, metrics) = run_chaos(&config, Exec::jobs(2).metrics());

    // Event counts for both runs of each trial — and none of the
    // queue-shape keys, which would vary with the shard layout.
    for prefix in ["churn", "attack"] {
        let key = format!("{prefix}.sim.events.fired");
        assert!(metrics.counters.contains_key(&key), "missing {key}");
        assert!(metrics.counters[&key] > 0, "{key} is zero");
    }
    for shape in [
        "events.scheduled",
        "events.cancelled",
        "queue.depth_high_water",
    ] {
        let leaked = |k: &String| k.ends_with(shape);
        assert!(
            !metrics
                .counters
                .keys()
                .chain(metrics.gauges.keys())
                .any(leaked),
            "layout-dependent key sim.{shape} exported"
        );
    }
    // Per-session update counters and per-link fault stats are dynamic keys.
    let has = |substr: &str| metrics.counters.keys().any(|k| k.contains(substr));
    assert!(has(".session.AS"), "no per-session counters");
    assert!(has(".sent_announcements"), "no sent counters");
    assert!(has(".link.AS"), "no per-link fault stats");
    assert!(has(".delivered"), "no delivered counters");
    // Convergence-time and detection-latency histograms.
    for key in [
        "chaos.convergence_ticks.churn",
        "chaos.convergence_ticks.attack",
        "chaos.detection_latency_ticks",
    ] {
        assert!(metrics.histograms.contains_key(key), "missing {key}");
        assert!(metrics.histograms[key].count() > 0, "{key} is empty");
    }
    assert_eq!(metrics.counters["chaos.trials"], config.trials as u64);
}

#[test]
fn chaos_snapshot_round_trips_through_json() {
    let config = ChaosConfig::quick(ChaosScenario::Failover);
    let (_, metrics) = run_chaos(&config, Exec::jobs(2).metrics());
    assert!(!metrics.is_empty());
    let text = to_string_pretty(&metrics);
    let back = parse_snapshot(&text).unwrap();
    assert_eq!(back, metrics);
    // Re-rendering the decoded snapshot reproduces the bytes exactly.
    assert_eq!(to_string_pretty(&back), text);
}

#[test]
fn ensemble_snapshot_holds_run_metrics_and_verdict_counters() {
    let config = ensemble_config();
    let (_, metrics) = run_ensemble(&config, 2, true);

    // Per-run network metrics and the per-detector verdict counters are both
    // present in one snapshot.
    for key in ["churn.sim.events.fired", "attack.sim.events.fired"] {
        assert!(metrics.counters.contains_key(key), "missing {key}");
    }
    for workload in [
        "failover",
        "origin-flap",
        "session-reset",
        "long-lived-moas",
    ] {
        for detector in ["moas-list", "flap-damping", "communities-anomaly"] {
            for metric in ["detections", "missed", "churn_alarms"] {
                let key = format!("ensemble.{workload}.{detector}.{metric}");
                assert!(metrics.counters.contains_key(&key), "missing {key}");
            }
        }
    }
    assert_eq!(
        metrics.counters["ensemble.trials"],
        4 * 2, // workloads × trials
        "one trial counter per recorded cell"
    );
}
