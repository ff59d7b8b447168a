//! The execution contract, one table for every driver: an [`Exec`] never
//! changes what a driver reports.
//!
//! Each row runs one driver over the grid `jobs ∈ {1, 4}` × `shards ∈ {None,
//! 1, 2, 4}` × `metrics ∈ {off, on}` (restricted to the axes the driver has)
//! and compares rendered bytes — report JSON and snapshot JSON:
//!
//! * identical across `jobs` (report and snapshot);
//! * identical across shard counts (report and snapshot; compared against
//!   `shards = 1`, not the classic engine, which may break same-tick ties
//!   differently);
//! * report identical with metrics on and off, on both engines; snapshot
//!   empty exactly when metrics are off.
//!
//! Trials are planned sequentially, run into index-addressed slots, and
//! aggregated in planning order; the sharded engine orders same-timestamp
//! events intrinsically. So nothing about worker scheduling or shard layout
//! can leak into a figure, and these rows pin that.

use as_topology::paper::PaperTopology;
use bgp_engine::{NoopMonitor, ShardedNetwork};
use bgp_types::Ipv4Prefix;
use experiments::json::{from_str, to_string_pretty, ToJson};
use experiments::{
    community_policy_ablation, experiment1, experiment1_metrics_jobs, experiment2,
    experiment2_metrics_jobs, experiment3, experiment3_metrics_jobs, forgery_ablation,
    measure_moas_list_overhead, run_chaos, run_deployment_sweep, run_ensemble, run_session_chaos,
    run_sweep, run_sweep_jobs, run_trial, run_trial_with, subprefix_ablation,
    unresolved_policy_ablation, valley_free_ablation, ChaosConfig, ChaosScenario, EnsembleConfig,
    Exec, SessionChaosConfig, SessionChaosScenario, SweepConfig, TrialConfig,
};
use minimetrics::MetricsSnapshot;
use moas_core::Deployment;

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

fn json<T: ToJson>((report, snapshot): (T, MetricsSnapshot)) -> Rendered {
    (to_string_pretty(&report), to_string_pretty(&snapshot))
}

fn no_snapshot<T: ToJson>(report: T) -> Rendered {
    json((report, MetricsSnapshot::new()))
}

/// Walks one driver over its grid and asserts the contract in the module
/// docs.
fn check(name: &str, axes: Axes, run: impl Fn(Exec) -> Rendered) {
    let engines: Vec<Option<usize>> = if axes.shards {
        std::iter::once(None)
            .chain(SHARDS.into_iter().map(Some))
            .collect()
    } else {
        vec![None]
    };
    let metrics_modes: &[bool] = if axes.metrics {
        &[false, true]
    } else {
        &[false]
    };
    let empty_snapshot = to_string_pretty(&MetricsSnapshot::new());

    // Reference per metrics mode for the sharded engine: shards = 1, jobs = 1.
    let mut sharded_reference: [Option<Rendered>; 2] = [None, None];
    for &shards in &engines {
        // Reference for this engine: metrics off, jobs = 1.
        let mut plain_report: Option<String> = None;
        for &metrics in metrics_modes {
            let mut serial: Option<Rendered> = None;
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
                let serial = serial.get_or_insert_with(|| rendered.clone());
                assert_eq!(&rendered, serial, "{at}: diverged from jobs=1");
                if shards.is_some() {
                    let reference = sharded_reference[usize::from(metrics)]
                        .get_or_insert_with(|| rendered.clone());
                    assert_eq!(&rendered, reference, "{at}: diverged from shards=1");
                }
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
        json(run_sweep(graph, &config, exec))
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
        let (outcome, snapshot) = run_trial_with(graph, &trial, exec);
        (format!("{outcome:?}"), to_string_pretty(&snapshot))
    });
    // The canonical no-frills entry point is the serial classic run.
    assert_eq!(
        run_trial(graph, &trial),
        run_trial_with(graph, &trial, Exec::serial()).0
    );
}

#[test]
fn figure_rows() {
    let base = tiny_sweep();
    check("experiment1", EXEC, |exec| {
        json(experiment1(2, &base, exec))
    });
    check("experiment2", EXEC, |exec| {
        json(experiment2(1, &base, exec))
    });
    check("experiment3", EXEC, |exec| {
        json(experiment3(PaperTopology::As25, &base, exec))
    });
}

#[test]
fn ablation_rows() {
    let as46 = PaperTopology::As46.graph();
    let as25 = PaperTopology::As25.graph();
    check("forgery_ablation", EXEC, |exec| {
        json(forgery_ablation(as46, 3, 0xAB3, exec))
    });
    check("community_policy_ablation", EXEC, |exec| {
        json(community_policy_ablation(as25, 2, 31, exec))
    });
    check("subprefix_ablation", JOBS_ONLY, |exec| {
        no_snapshot(subprefix_ablation(as25, 3, 11, exec.jobs))
    });
    check("valley_free_ablation", JOBS_ONLY, |exec| {
        no_snapshot(valley_free_ablation(3, 23, exec.jobs))
    });
    check("unresolved_policy_ablation", JOBS_ONLY, |exec| {
        let rows = unresolved_policy_ablation(as25, 3, 19, exec.jobs);
        (
            format!("{rows:?}"),
            to_string_pretty(&MetricsSnapshot::new()),
        )
    });
}

#[test]
fn chaos_rows() {
    for scenario in ChaosScenario::all() {
        let config = chaos_config(scenario);
        check(&format!("run_chaos {scenario}"), EXEC, |exec| {
            json(run_chaos(&config, exec))
        });
    }
    let config = ChaosConfig::quick(ChaosScenario::SessionReset);
    check("run_deployment_sweep", EXEC, |exec| {
        json(run_deployment_sweep(&config, &[0.0, 0.5], exec))
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
        json(run_ensemble(&config, exec.jobs, exec.metrics))
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

    // Sim-engine event counts, for both runs of each trial.
    for prefix in ["churn", "attack"] {
        for key in ["sim.events.scheduled", "sim.events.fired"] {
            let key = format!("{prefix}.{key}");
            assert!(metrics.counters.contains_key(&key), "missing {key}");
            assert!(metrics.counters[&key] > 0, "{key} is zero");
        }
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
    let back: MetricsSnapshot = from_str(&text).unwrap();
    assert_eq!(back, metrics);
    // Re-rendering the decoded snapshot reproduces the bytes exactly.
    assert_eq!(to_string_pretty(&back), text);
}

#[test]
fn ensemble_snapshot_holds_run_metrics_and_verdict_counters() {
    let config = ensemble_config();
    let (report, metrics) = run_ensemble(&config, 2, true);
    let back: experiments::EnsembleReport =
        from_str(&report.to_json()).expect("self-produced JSON parses");
    assert_eq!(back, report);

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
