//! The detector-ensemble driver: three detectors, one set of trial streams.
//!
//! CommunityWatch-style evaluation asks how *families* of cheap detectors
//! compare on identical input. This driver records each trial's route
//! observations exactly once — a passive [`TapMonitor`] taps every import and
//! withdraw while the network runs — and then replays the recorded stream
//! through each detector offline:
//!
//! * **moas-list** — the paper's §4.2 consistency check
//!   ([`MoasListDetector`]);
//! * **flap-damping** — the RFC 2439 penalty baseline
//!   ([`FlapDampingDetector`]);
//! * **communities-anomaly** — the learned community-baseline check
//!   ([`CommunitiesAnomalyDetector`]).
//!
//! Because the detectors are passive, every one of them sees byte-identical
//! input, so their false-alarm / latency / miss numbers are directly
//! comparable — no detector's interventions perturb another's view.
//!
//! Workloads cover three chaos scenarios (failover, origin-flap,
//! session-reset — the same casts and fault plans as `moas-lab chaos`) plus a
//! **long-lived legitimate MOAS** workload modeled on modern measurement
//! (Sediqi et al.): anycast origin groups announcing a shared explicit list,
//! sibling-AS pairs co-originating with implicit lists, and CDN-style
//! handoff churn where one member drops out of and rejoins the origin set
//! every `dwell_ticks`. A deployment sweep replays the recorded failover
//! streams filtered to seeded observer subsets — replay is cheap, so partial
//! deployment costs no extra simulation.
//!
//! Per-AS community handling follows the Krenc et al. classes
//! ([`CommunityPolicy`]): `EnsembleConfig::policy` assigns one class to every
//! transit AS (scenario-specific strippers keep their `strip-moas`
//! behaviour), shaping what the observation points — and therefore all three
//! detectors — get to see.

use std::collections::BTreeSet;

use as_topology::{AsGraph, OrgAnnotations};
use bgp_engine::{
    CommunityPolicies, CommunityPolicy, CommunityPolicyMap, FaultEvent, ImportContext,
    ImportDecision, NetFaultPlan, RouteMonitor,
};
use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route, SimTime};
use minimetrics::{MetricsSink, MetricsSnapshot, RecordingSink, Scoped};
use moas_core::Deployment;
use rand::Rng;
use route_measurement::{
    CommunitiesAnomalyDetector, CommunitiesConfig, Detector, DetectorAlarm, FlapDampingDetector,
    MoasListDetector, ObservationKind, RouteObservation,
};

use crate::chaos::{
    build_scenario, chaos_graph, forged_announcement, plan_casts, run_scenario, trial_deployment,
    ChaosConfig, ChaosScenario, Scenario, TrialPlan, T_CHURN,
};
use crate::exec::{Cell, Exec, Layout};
use crate::json::{self, Json, ToJson};
use crate::score::{accuracy, detection_latency, Accuracy, Verdict};

use std::fmt;

/// One workload class of the ensemble run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleWorkload {
    /// The chaos failover scenario: provider link dies, backup origin comes
    /// online with an implicit list, link heals.
    Failover,
    /// The chaos origin-flap scenario: a backup origin toggles six times
    /// under MRAI.
    OriginFlap,
    /// The chaos session-reset scenario: the victim's (list-stripping)
    /// provider session resets repeatedly.
    SessionReset,
    /// Long-lived legitimate MOAS: anycast groups, sibling pairs, CDN
    /// handoff churn.
    LongLivedMoas,
}

impl EnsembleWorkload {
    /// All workloads, in report order.
    #[must_use]
    pub fn all() -> [EnsembleWorkload; 4] {
        [
            EnsembleWorkload::Failover,
            EnsembleWorkload::OriginFlap,
            EnsembleWorkload::SessionReset,
            EnsembleWorkload::LongLivedMoas,
        ]
    }

    /// The CLI/JSON name of the workload.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EnsembleWorkload::Failover => "failover",
            EnsembleWorkload::OriginFlap => "origin-flap",
            EnsembleWorkload::SessionReset => "session-reset",
            EnsembleWorkload::LongLivedMoas => "long-lived-moas",
        }
    }

    /// The chaos scenario this workload replays, when it is a chaos one.
    fn chaos_scenario(self) -> Option<ChaosScenario> {
        match self {
            EnsembleWorkload::Failover => Some(ChaosScenario::Failover),
            EnsembleWorkload::OriginFlap => Some(ChaosScenario::OriginFlap),
            EnsembleWorkload::SessionReset => Some(ChaosScenario::SessionReset),
            EnsembleWorkload::LongLivedMoas => None,
        }
    }
}

impl fmt::Display for EnsembleWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for EnsembleWorkload {
    fn to_json_value(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// Configuration of an ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Monte-Carlo trials per workload.
    pub trials: usize,
    /// Master seed: topology, casts, fault streams and deployment samples
    /// all derive from it.
    pub seed: u64,
    /// Transit AS count of the generated topology.
    pub transit_count: usize,
    /// Stub AS count of the generated topology.
    pub stub_count: usize,
    /// Maximum per-link delay jitter.
    pub max_link_delay: u64,
    /// Handoff period of the long-lived-MOAS workload: one origin-set member
    /// drops out and rejoins every `dwell_ticks` (clamped to at least 1).
    pub dwell_ticks: u64,
    /// Probability that a long-lived-MOAS trial uses a sibling-AS pair
    /// (implicit lists) instead of an anycast group (shared explicit list).
    pub sibling_fraction: f64,
    /// Community-handling class every transit AS applies on export
    /// (Krenc-style). Scenario strippers keep their `strip-moas` behaviour
    /// regardless.
    pub policy: CommunityPolicy,
}

impl EnsembleConfig {
    /// Default protocol: 20 trials per workload on the chaos-sized topology.
    #[must_use]
    pub fn new() -> Self {
        EnsembleConfig {
            trials: 20,
            seed: 0xE5B1,
            transit_count: 8,
            stub_count: 24,
            max_link_delay: 4,
            dwell_ticks: 40,
            sibling_fraction: 0.5,
            policy: CommunityPolicy::Propagate,
        }
    }

    /// A reduced protocol for tests and smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        EnsembleConfig {
            trials: 4,
            transit_count: 6,
            stub_count: 16,
            ..EnsembleConfig::new()
        }
    }

    /// The chaos configuration one chaos workload runs under: same seed and
    /// topology parameters, so all workloads share one graph and one set of
    /// casts.
    fn chaos_config(&self, scenario: ChaosScenario) -> ChaosConfig {
        ChaosConfig {
            scenario,
            trials: self.trials,
            seed: self.seed,
            transit_count: self.transit_count,
            stub_count: self.stub_count,
            max_link_delay: self.max_link_delay,
        }
    }
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig::new()
    }
}

/// The deployment fractions the sweep section of the report covers.
pub const ENSEMBLE_DEPLOYMENT_FRACTIONS: [f64; 3] = [0.0, 0.5, 1.0];

/// One detector's accuracy over one workload (or one deployment point).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorReport {
    /// The detector's stable name.
    pub detector: String,
    /// Fraction of churn-only trials with at least one alarm.
    pub false_alarm_rate: f64,
    /// Mean alarms per churn-only trial.
    pub mean_false_alarms: f64,
    /// Fraction of attack trials where no alarm implicated the attacker's
    /// origin at or after the injection tick.
    pub missed_detection_rate: f64,
    /// Mean ticks from injection to the first attacker-implicating alarm,
    /// over detected trials (0 when nothing was detected).
    pub mean_detection_latency_ticks: f64,
    /// Attack trials with a detection.
    pub detected_trials: usize,
}

json::impl_json_struct!(DetectorReport {
    detector,
    false_alarm_rate,
    mean_false_alarms,
    missed_detection_rate,
    mean_detection_latency_ticks,
    detected_trials,
});

/// All detectors' accuracy over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// The workload.
    pub workload: EnsembleWorkload,
    /// One report per detector, in catalog order.
    pub detectors: Vec<DetectorReport>,
}

json::impl_json_struct!(WorkloadReport {
    workload,
    detectors,
});

/// All detectors' accuracy at one deployment fraction (failover streams,
/// observers filtered to a seeded subset).
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleDeploymentPoint {
    /// Fraction of ASes whose observation points feed the detectors.
    pub deployment_fraction: f64,
    /// One report per detector, in catalog order.
    pub detectors: Vec<DetectorReport>,
}

json::impl_json_struct!(EnsembleDeploymentPoint {
    deployment_fraction,
    detectors,
});

/// The full ensemble report — what `moas-lab ensemble` prints (or writes
/// with `--out FILE`) as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleReport {
    /// Trials per workload.
    pub trials: usize,
    /// The master seed the run derived from.
    pub seed: u64,
    /// The community-handling class transit ASes applied, by name.
    pub policy: String,
    /// Per-workload comparisons, in workload catalog order.
    pub workloads: Vec<WorkloadReport>,
    /// The deployment sweep over the failover streams.
    pub deployment: Vec<EnsembleDeploymentPoint>,
}

json::impl_json_struct!(EnsembleReport {
    trials,
    seed,
    policy,
    workloads,
    deployment,
});

impl EnsembleReport {
    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }
}

/// The detector catalog, by construction index. Fresh instances are built
/// per replayed stream so no state leaks between trials or runs.
const DETECTOR_COUNT: usize = 3;

fn make_detector(index: usize) -> Box<dyn Detector> {
    match index {
        0 => Box::new(MoasListDetector::new()),
        1 => Box::new(FlapDampingDetector::default()),
        _ => Box::new(CommunitiesAnomalyDetector::new(CommunitiesConfig {
            // Baselines are learned from the pre-churn convergence only, so
            // scripted churn and the attack both count as post-learning.
            learning_window: T_CHURN,
        })),
    }
}

fn detector_name(index: usize) -> &'static str {
    match index {
        0 => "moas-list",
        1 => "flap-damping",
        _ => "communities-anomaly",
    }
}

/// The passive tap: accepts every route (plain-BGP import) and records
/// announces/withdraws as [`RouteObservation`]s stamped with the simulation
/// clock. The per-AS community policy runs around it, in
/// [`CommunityPolicies`].
struct TapMonitor {
    now: u64,
    observations: Vec<RouteObservation>,
}

impl TapMonitor {
    fn new() -> Self {
        TapMonitor {
            now: 0,
            observations: Vec::new(),
        }
    }
}

impl RouteMonitor for TapMonitor {
    fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
        if let Some(origin) = ctx.route.origin_as() {
            self.observations.push(RouteObservation {
                time: self.now,
                observer: ctx.local,
                from_peer: ctx.from_peer,
                prefix: ctx.route.prefix(),
                kind: ObservationKind::Announce {
                    origin,
                    moas_list: ctx.route.moas_list().cloned(),
                    communities: ctx.route.communities().to_vec(),
                },
            });
        }
        ImportDecision::accept()
    }

    fn on_withdraw(&mut self, local: Asn, from_peer: Asn, prefix: Ipv4Prefix) {
        self.observations.push(RouteObservation {
            time: self.now,
            observer: local,
            from_peer,
            prefix,
            kind: ObservationKind::Withdraw,
        });
    }

    fn on_clock(&mut self, now: SimTime) {
        self.now = now.ticks();
    }
}

/// The recorded streams of one trial: the same fault plan run twice, without
/// and with the attack injection.
struct TrialStreams {
    attacker: Asn,
    /// Per-trial seed, reused to sample deployment subsets during replay.
    seed: u64,
    churn: Vec<RouteObservation>,
    attack: Vec<RouteObservation>,
}

/// One planned cell: `(workload, trial)`.
enum CellPlan {
    Chaos {
        scenario: ChaosScenario,
        cast: TrialPlan,
    },
    LongLived(LongLivedPlan),
}

/// The cast of one long-lived-MOAS trial.
struct LongLivedPlan {
    /// The legitimate co-originating ASes (sibling pair or anycast group).
    origins: Vec<Asn>,
    /// Whether the origins publish the shared explicit list (anycast) or
    /// announce bare (sibling registrations, the common real-world case).
    explicit_list: bool,
    /// The member whose origination toggles every dwell window (CDN
    /// handoff).
    toggler: Asn,
    /// The forged-origin attacker of the attack run.
    attacker: Asn,
    /// Per-trial seed.
    seed: u64,
}

/// Plans the long-lived-MOAS casts serially. Sibling pairs and anycast
/// groups come from a seeded [`OrgAnnotations`] sample over the graph's
/// stubs; each trial flips a seeded coin to choose between them.
fn plan_long_lived(graph: &AsGraph, config: &EnsembleConfig) -> Vec<LongLivedPlan> {
    let orgs = OrgAnnotations::sample(
        graph,
        2,
        1,
        3,
        bgp_types::rng::derive_seed(config.seed, 0x0096),
    );
    let stubs = graph.stub_asns();
    (0..config.trials)
        .map(|t| {
            let seed = bgp_types::rng::derive_seed(config.seed, 0x1000 + t as u64);
            let mut rng = bgp_types::rng::from_seed(seed);
            let use_sibling = !orgs.sibling_pairs().is_empty()
                && config.sibling_fraction > 0.0
                && rng.gen::<f64>() < config.sibling_fraction;
            let origins: Vec<Asn> = if use_sibling {
                let pairs = orgs.sibling_pairs();
                let (a, b) = pairs[t % pairs.len()];
                vec![a, b]
            } else if let Some(group) = orgs.anycast_groups().first() {
                group.clone()
            } else {
                // Degenerate graph with no annotatable stubs: fall back to
                // two sampled stubs acting as an ad-hoc pair.
                bgp_types::rng::sample_distinct(&mut rng, &stubs, 2)
            };
            let toggler = *origins.last().expect("origin sets are non-empty");
            let candidates: Vec<Asn> = graph.asns().filter(|a| !origins.contains(a)).collect();
            let attacker = bgp_types::rng::sample_distinct(&mut rng, &candidates, 1)[0];
            LongLivedPlan {
                origins,
                explicit_list: !use_sibling,
                toggler,
                attacker,
                seed,
            }
        })
        .collect()
}

/// Phase 1: plans every `(workload, trial)` cell serially, in workload
/// catalog order. Chaos workloads share one cast list (the per-trial seeds
/// depend only on `(config.seed, trial)`), so all three replay the same
/// victims, partners and attackers — the streams differ only in the fault
/// plan.
fn plan_cells(graph: &AsGraph, config: &EnsembleConfig) -> Vec<CellPlan> {
    let mut cells = Vec::with_capacity(EnsembleWorkload::all().len() * config.trials);
    for workload in EnsembleWorkload::all() {
        match workload.chaos_scenario() {
            Some(scenario) => {
                let chaos = config.chaos_config(scenario);
                for cast in plan_casts(graph, &chaos) {
                    cells.push(CellPlan::Chaos { scenario, cast });
                }
            }
            None => cells.extend(
                plan_long_lived(graph, config)
                    .into_iter()
                    .map(CellPlan::LongLived),
            ),
        }
    }
    cells
}

/// The per-AS community-handling assignment of one run: the configured class
/// on every transit AS, with scenario strippers forced to `strip-moas` on
/// top (the §4.3 behaviour those scenarios are about).
fn policy_map(
    graph: &AsGraph,
    strippers: &BTreeSet<Asn>,
    policy: CommunityPolicy,
) -> CommunityPolicyMap {
    let mut map = CommunityPolicyMap::new();
    if policy != CommunityPolicy::Propagate {
        for asn in graph.transit_asns() {
            map.set(asn, policy);
        }
    }
    for &stripper in strippers {
        map.set(stripper, CommunityPolicy::StripMoas);
    }
    map
}

/// The long-lived-MOAS trial as a scenario: every origin announces from
/// the start (with the shared list when anycast), and the toggling member
/// leaves and rejoins the origin set every dwell window (CDN-style
/// handoff), four edges in total, so the run stays bounded and converges
/// after the last edge.
fn long_lived_scenario(
    config: &EnsembleConfig,
    plan: &LongLivedPlan,
    valid_list: &MoasList,
) -> Scenario {
    let origin_list = plan.explicit_list.then(|| valid_list.clone());
    let mut toggle_route = Route::new(crate::victim_prefix(), AsPath::new());
    if let Some(list) = &origin_list {
        toggle_route.set_moas_list(Some(list.clone()));
    }
    let mut fault_plan = NetFaultPlan::new(bgp_types::rng::derive_seed(plan.seed, 0xFA17));
    fault_plan.every(
        T_CHURN,
        config.dwell_ticks.max(1),
        Some(4),
        FaultEvent::ToggleOrigin {
            asn: plan.toggler,
            route: toggle_route,
        },
    );
    Scenario {
        origins: plan
            .origins
            .iter()
            .map(|&o| (o, origin_list.clone()))
            .collect(),
        plan: fault_plan,
        mrai: 0,
        watchdog: 0,
        strippers: BTreeSet::new(),
        expect_oscillation: false,
        seed: plan.seed,
    }
}

/// Phase 2 (per cell): records the churn-only and churn+attack streams of
/// one trial under the tap, on one shard. The attack is always the §4.1
/// strongest adversary — a forged announcement whose list includes the
/// attacker. Network metrics land in `sink` (no-op with [`NoopSink`]).
fn record_cell<S: MetricsSink>(
    graph: &AsGraph,
    config: &EnsembleConfig,
    cell: &CellPlan,
    sink: &mut S,
) -> TrialStreams {
    let (scenario, valid_list, attacker) = match cell {
        CellPlan::Chaos { scenario, cast } => (
            build_scenario(graph, &config.chaos_config(*scenario), cast),
            [cast.victim, cast.partner].into_iter().collect(),
            cast.attacker,
        ),
        CellPlan::LongLived(plan) => {
            let valid_list: MoasList = plan.origins.iter().copied().collect();
            let scenario = long_lived_scenario(config, plan, &valid_list);
            (scenario, valid_list, plan.attacker)
        }
    };
    let policies = policy_map(graph, &scenario.strippers, config.policy);
    let mut record = |attack: Option<FaultEvent>, scope: &str| {
        let (mut net, err) = run_scenario(
            Layout::SERIAL,
            graph,
            config.max_link_delay,
            &scenario,
            attack,
            || CommunityPolicies::wrapping(policies.clone(), TapMonitor::new()),
        );
        assert!(err.is_none(), "ensemble scenarios converge: {err:?}");
        if S::ENABLED {
            net.export_metrics(&mut Scoped::new(&mut *sink, scope));
        }
        let tap = net.monitors_mut().next().expect("one shard");
        std::mem::take(&mut tap.inner_mut().observations)
    };
    let churn = record(None, "churn");
    let attack = record(Some(forged_announcement(attacker, &valid_list)), "attack");
    if S::ENABLED {
        sink.counter_add("ensemble.trials", 1);
        sink.counter_add("ensemble.observations", (churn.len() + attack.len()) as u64);
    }
    TrialStreams {
        attacker,
        seed: scenario.seed,
        churn,
        attack,
    }
}

/// Replays a stream through a fresh detector, optionally filtered to the
/// observers a partial deployment actually taps.
fn replay(
    stream: &[RouteObservation],
    detector_index: usize,
    deployment: &Deployment,
) -> Vec<DetectorAlarm> {
    let mut detector = make_detector(detector_index);
    let mut alarms = Vec::new();
    for obs in stream {
        if deployment.is_capable(obs.observer) {
            detector.observe(obs, &mut alarms);
        }
    }
    alarms
}

/// Replays one trial's streams through one detector at one deployment. An
/// attack alarm qualifies for detection when it names the attacker's origin.
fn evaluate_trial(
    streams: &TrialStreams,
    detector_index: usize,
    deployment: &Deployment,
) -> Verdict {
    let churn_alarms = replay(&streams.churn, detector_index, deployment).len() as u64;
    let attack_alarms = replay(&streams.attack, detector_index, deployment);
    let latency = detection_latency(
        attack_alarms
            .iter()
            .filter(|a| a.origin == Some(streams.attacker))
            .map(|a| a.time),
    );
    Verdict {
        churn_alarms,
        latency,
    }
}

/// Scores every detector over `trials`, each trial replayed at the
/// deployment `deployment_of` gives it. Every trial ran an attack.
fn score_detectors(
    trials: &[TrialStreams],
    deployment_of: impl Fn(&TrialStreams) -> Deployment,
) -> Vec<Accuracy> {
    (0..DETECTOR_COUNT)
        .map(|dx| {
            let verdicts = trials
                .iter()
                .map(|s| evaluate_trial(s, dx, &deployment_of(s)));
            accuracy(verdicts, trials.len())
        })
        .collect()
}

/// One report row per detector, in catalog order.
fn detector_reports(scores: &[Accuracy]) -> Vec<DetectorReport> {
    scores
        .iter()
        .enumerate()
        .map(|(dx, score)| DetectorReport {
            detector: detector_name(dx).to_string(),
            false_alarm_rate: score.false_alarm_rate,
            mean_false_alarms: score.mean_false_alarms,
            missed_detection_rate: score.missed_detection_rate,
            mean_detection_latency_ticks: score.mean_detection_latency_ticks,
            detected_trials: score.detected_trials,
        })
        .collect()
}

/// Phase 3: replays every recorded stream through every detector (serially,
/// in plan order — replay is cheap) and folds the outcomes into the report.
/// Also returns each workload's scores, which the verdict counters read.
fn aggregate_ensemble(
    graph: &AsGraph,
    config: &EnsembleConfig,
    streams: &[TrialStreams],
) -> (EnsembleReport, Vec<Vec<Accuracy>>) {
    let (workloads, workload_scores): (Vec<WorkloadReport>, Vec<Vec<Accuracy>>) =
        EnsembleWorkload::all()
            .into_iter()
            .enumerate()
            .map(|(wx, workload)| {
                let slice = &streams[wx * config.trials..(wx + 1) * config.trials];
                let scores = score_detectors(slice, |_| Deployment::Full);
                let detectors = detector_reports(&scores);
                (
                    WorkloadReport {
                        workload,
                        detectors,
                    },
                    scores,
                )
            })
            .unzip();

    // Deployment sweep over the failover streams (workload index 0): replay
    // costs no extra simulation, so partial deployment is pure filtering.
    let asns: Vec<Asn> = graph.asns().collect();
    let failover = &streams[0..config.trials];
    let deployment = ENSEMBLE_DEPLOYMENT_FRACTIONS
        .iter()
        .map(|&fraction| {
            let scores = score_detectors(failover, |s| trial_deployment(&asns, fraction, s.seed));
            EnsembleDeploymentPoint {
                deployment_fraction: fraction,
                detectors: detector_reports(&scores),
            }
        })
        .collect();

    let report = EnsembleReport {
        trials: config.trials,
        seed: config.seed,
        policy: config.policy.to_string(),
        workloads,
        deployment,
    };
    (report, workload_scores)
}

/// Runs the ensemble and returns the report plus a metrics snapshot (empty
/// unless `metrics`).
///
/// Both are bit-identical for every `jobs` value: cells are planned
/// sequentially (per-trial seeds derive from `(config.seed, trial index)`),
/// the expensive stream recording fans out into index-addressed slots, and
/// the cheap detector replay and aggregation happen serially in plan order.
/// The tap monitor needs the one global observation order, so there is no
/// sharded form.
///
/// With `metrics`, each cell records its two runs' network metrics (prefixes
/// `churn.` / `attack.`) plus `ensemble.*` cell counters; snapshots merge in
/// plan order, and the per-detector verdict counters
/// (`ensemble.<workload>.<detector>.{detections,missed,churn_alarms}`) are
/// appended after the serial replay.
///
/// # Panics
///
/// Panics if the generated topology has no stub with two providers (cannot
/// happen with the default configurations).
#[must_use]
pub fn run_ensemble(
    config: &EnsembleConfig,
    jobs: usize,
    metrics: bool,
) -> (EnsembleReport, MetricsSnapshot) {
    struct Cells<'a> {
        graph: &'a AsGraph,
        config: &'a EnsembleConfig,
        cells: &'a [CellPlan],
    }
    impl Cell for Cells<'_> {
        type Out = TrialStreams;
        fn run<S: MetricsSink>(&self, _: Layout, i: usize, sink: &mut S) -> TrialStreams {
            record_cell(self.graph, self.config, &self.cells[i], sink)
        }
    }
    let graph = ensemble_graph(config);
    let cells = plan_cells(&graph, config);
    let exec = Exec {
        jobs,
        shards: 1,
        metrics,
    };
    let (streams, mut snapshot) = exec.run_cells(
        cells.len(),
        &Cells {
            graph: &graph,
            config,
            cells: &cells,
        },
    );
    let (report, workload_scores) = aggregate_ensemble(&graph, config, &streams);
    if !metrics {
        return (report, snapshot);
    }

    let mut verdicts = RecordingSink::new();
    for (workload, scores) in EnsembleWorkload::all().into_iter().zip(&workload_scores) {
        for (dx, score) in scores.iter().enumerate() {
            let key = |metric: &str| {
                format!(
                    "ensemble.{}.{}.{metric}",
                    workload.name(),
                    detector_name(dx)
                )
            };
            verdicts.counter_add(&key("detections"), score.detected_trials as u64);
            verdicts.counter_add(
                &key("missed"),
                (report.trials - score.detected_trials) as u64,
            );
            verdicts.counter_add(&key("churn_alarms"), score.churn_alarms);
        }
    }
    snapshot.merge(&verdicts.into_snapshot());
    (report, snapshot)
}

/// The shared topology every workload plays out on (identical to the chaos
/// driver's graph for the same seed and size parameters).
fn ensemble_graph(config: &EnsembleConfig) -> AsGraph {
    chaos_graph(&config.chaos_config(ChaosScenario::Failover))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> EnsembleConfig {
        EnsembleConfig::quick()
    }

    #[test]
    fn workload_names_round_trip() {
        let names: BTreeSet<&str> = EnsembleWorkload::all().map(EnsembleWorkload::name).into();
        assert_eq!(
            names.len(),
            EnsembleWorkload::all().len(),
            "names are unique"
        );
        for workload in EnsembleWorkload::all() {
            assert_eq!(workload.to_string(), workload.name());
            let written = workload.to_json_value();
            assert_eq!(written, Json::Str(workload.name().to_string()));
        }
    }

    #[test]
    fn report_covers_every_workload_and_detector() {
        let report = run_ensemble(&quick(), 1, false).0;
        assert_eq!(report.workloads.len(), 4);
        for workload in &report.workloads {
            assert_eq!(workload.detectors.len(), DETECTOR_COUNT);
            for (dx, detector) in workload.detectors.iter().enumerate() {
                assert_eq!(detector.detector, detector_name(dx));
            }
        }
        assert_eq!(report.deployment.len(), ENSEMBLE_DEPLOYMENT_FRACTIONS.len());
    }

    #[test]
    fn moas_list_detects_what_flap_damping_misses() {
        let report = run_ensemble(&quick(), 1, false).0;
        let failover = &report.workloads[0];
        let moas = &failover.detectors[0];
        let flap = &failover.detectors[1];
        // The paper's check sees the forged announcement immediately.
        assert!(moas.detected_trials > 0, "moas-list must detect attacks");
        // A one-shot hijack announcement never accumulates flap penalty:
        // route-history detectors are structurally blind to it.
        assert!(
            flap.detected_trials <= moas.detected_trials,
            "flap damping cannot beat the consistency check here"
        );
        assert!(
            flap.missed_detection_rate > 0.5,
            "one-shot hijacks should mostly evade flap damping, got {}",
            flap.missed_detection_rate
        );
    }

    #[test]
    fn sibling_pairs_raise_moas_false_alarms() {
        let mut config = quick();
        config.sibling_fraction = 1.0;
        let report = run_ensemble(&config, 1, false).0;
        let long_lived = &report.workloads[3];
        assert_eq!(long_lived.workload, EnsembleWorkload::LongLivedMoas);
        let moas = &long_lived.detectors[0];
        // Sibling registrations announce without published lists: the §4.2
        // check must cry wolf on legitimate long-lived MOAS.
        assert!(
            moas.false_alarm_rate > 0.0,
            "implicit sibling MOAS must trip the consistency check"
        );
    }

    #[test]
    fn anycast_groups_with_shared_lists_stay_quiet() {
        let mut config = quick();
        config.sibling_fraction = 0.0; // every trial uses the anycast group
        let report = run_ensemble(&config, 1, false).0;
        let moas = &report.workloads[3].detectors[0];
        assert_eq!(
            moas.mean_false_alarms, 0.0,
            "a shared explicit list sanctions every member origin"
        );
        assert!(moas.detected_trials > 0, "the attack is still caught");
    }

    #[test]
    fn zero_deployment_sees_nothing() {
        let report = run_ensemble(&quick(), 1, false).0;
        let nobody = &report.deployment[0];
        assert_eq!(nobody.deployment_fraction, 0.0);
        for detector in &nobody.detectors {
            assert_eq!(detector.detected_trials, 0);
            assert_eq!(detector.mean_false_alarms, 0.0);
            assert_eq!(detector.missed_detection_rate, 1.0);
        }
        let everyone = &report.deployment[2];
        assert_eq!(everyone.deployment_fraction, 1.0);
        // Full-deployment sweep point equals the failover workload row.
        assert_eq!(everyone.detectors, report.workloads[0].detectors);
    }

    #[test]
    fn strip_all_policy_blinds_the_communities_detector() {
        let mut config = quick();
        config.policy = CommunityPolicy::StripAll;
        let stripped = run_ensemble(&config, 1, false).0;
        let baseline = run_ensemble(&quick(), 1, false).0;
        let communities_stripped = &stripped.workloads[0].detectors[2];
        let communities_baseline = &baseline.workloads[0].detectors[2];
        assert!(
            communities_stripped.detected_trials <= communities_baseline.detected_trials,
            "stripping every community cannot help a community detector"
        );
    }

    #[test]
    fn ensemble_runs_are_deterministic() {
        let config = quick();
        assert_eq!(
            run_ensemble(&config, 1, false).0,
            run_ensemble(&config, 1, false).0
        );
    }

    #[test]
    fn metrics_snapshot_counts_verdicts() {
        let (_, snapshot) = run_ensemble(&quick(), 1, true);
        let rendered = crate::metrics::render_metrics_summary(&snapshot);
        assert!(rendered.contains("ensemble.failover.moas-list.detections"));
    }

    #[test]
    fn report_json_round_trips() {
        let report = run_ensemble(&quick(), 1, false).0;
        let text = report.to_json();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.pretty(), text);
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads in {text}");
        };
        assert_eq!(workloads.len(), report.workloads.len());
        for (written, workload) in workloads.iter().zip(&report.workloads) {
            let name = Json::Str(workload.workload.name().to_string());
            assert_eq!(written.get("workload"), Some(&name));
        }
    }
}
