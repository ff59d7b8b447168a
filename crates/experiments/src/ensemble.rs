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
    CommunityPolicy, CommunityPolicyMap, ExportAction, FaultEvent, ImportContext, ImportDecision,
    NetFaultPlan, Network, RouteMonitor,
};
use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
use minimetrics::{MetricsSink, MetricsSnapshot, RecordingSink, Scoped};
use moas_core::{Deployment, FalseOriginAttack, ListForgery};
use rand::Rng;
use route_measurement::{
    CommunitiesAnomalyDetector, CommunitiesConfig, Detector, DetectorAlarm, FlapDampingDetector,
    MoasListDetector, ObservationKind, RouteObservation,
};
use sim_engine::SimTime;

use crate::chaos::{
    build_scenario, chaos_graph, plan_casts, ChaosConfig, ChaosScenario, TrialPlan, T_ATTACK,
    T_CHURN,
};
use crate::exec::{Cell, Exec, Layout};
use crate::json::{self, Json, ToJson};
use crate::stats::{mean, ratio};

use std::fmt;
use std::str::FromStr;

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

/// Parse error for [`EnsembleWorkload`], naming the valid workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload(String);

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload '{}' (expected one of: failover, origin-flap, session-reset, long-lived-moas)",
            self.0
        )
    }
}

impl std::error::Error for UnknownWorkload {}

impl FromStr for EnsembleWorkload {
    type Err = UnknownWorkload;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EnsembleWorkload::all()
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| UnknownWorkload(s.to_string()))
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

/// The passive tap: accepts every route (plain-BGP import), applies the
/// per-AS community policy on export, and records announces/withdraws as
/// [`RouteObservation`]s stamped with the simulation clock.
struct TapMonitor {
    now: u64,
    policies: CommunityPolicyMap,
    observations: Vec<RouteObservation>,
}

impl TapMonitor {
    fn new(policies: CommunityPolicyMap) -> Self {
        TapMonitor {
            now: 0,
            policies,
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
                from_peer: Some(ctx.from_peer),
                prefix: ctx.route.prefix(),
                kind: ObservationKind::Announce {
                    origin,
                    moas_list: ctx.route.moas_list().map(|l| l.iter().collect()),
                    communities: ctx.route.communities().to_vec(),
                },
            });
        }
        ImportDecision::accept()
    }

    fn on_export(
        &mut self,
        local: Asn,
        _to_peer: Asn,
        _learned_from: Option<Asn>,
        route: &Route,
    ) -> ExportAction {
        match self.policies.policy_of(local).apply(local, route) {
            None => ExportAction::Forward,
            Some(modified) => ExportAction::Replace(modified),
        }
    }

    fn on_withdraw(&mut self, local: Asn, from_peer: Asn, prefix: Ipv4Prefix) {
        self.observations.push(RouteObservation {
            time: self.now,
            observer: local,
            from_peer: Some(from_peer),
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

impl CellPlan {
    fn seed(&self) -> u64 {
        match self {
            CellPlan::Chaos { cast, .. } => cast.seed,
            CellPlan::LongLived(plan) => plan.seed,
        }
    }
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
        sim_engine::rng::derive_seed(config.seed, 0x0096),
    );
    let stubs = graph.stub_asns();
    (0..config.trials)
        .map(|t| {
            let seed = sim_engine::rng::derive_seed(config.seed, 0x1000 + t as u64);
            let mut rng = sim_engine::rng::from_seed(seed);
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
                sim_engine::rng::sample_distinct(&mut rng, &stubs, 2)
            };
            let toggler = *origins.last().expect("origin sets are non-empty");
            let candidates: Vec<Asn> = graph.asns().filter(|a| !origins.contains(a)).collect();
            let attacker = sim_engine::rng::sample_distinct(&mut rng, &candidates, 1)[0];
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

/// Everything one recorded run needs: who originates what, the fault
/// timeline, and the export-time community handling.
struct RunSpec {
    origins: Vec<(Asn, Option<MoasList>)>,
    plan: NetFaultPlan,
    mrai: u64,
    policies: CommunityPolicyMap,
    seed: u64,
    max_link_delay: u64,
}

/// Runs one network under the tap and returns the recorded observations.
/// Network metrics land in `sink` (no-op with [`NoopSink`]).
fn record_run<S: MetricsSink>(
    graph: &AsGraph,
    spec: &RunSpec,
    attack: Option<FaultEvent>,
    sink: &mut S,
    scope: &str,
) -> Vec<RouteObservation> {
    let prefix = crate::victim_prefix();
    let monitor = TapMonitor::new(spec.policies.clone());
    let mut net = Network::with_monitor_and_jitter(graph, monitor, spec.seed, spec.max_link_delay);
    net.set_mrai(spec.mrai);

    let mut plan = spec.plan.clone();
    if let Some(event) = attack {
        plan.at(T_ATTACK, event);
    }
    net.set_fault_plan(plan).expect("planned casts are valid");

    for (origin, list) in &spec.origins {
        net.originate(*origin, prefix, list.clone());
    }
    net.run().expect("ensemble scenarios converge");
    if S::ENABLED {
        net.export_metrics(&mut Scoped::new(sink, scope));
    }
    std::mem::take(&mut net.monitor_mut().observations)
}

/// Phase 2 (per cell): records the churn-only and churn+attack streams of
/// one trial. The attack is always the §4.1 strongest adversary — a forged
/// announcement whose list includes the attacker.
fn record_cell<S: MetricsSink>(
    graph: &AsGraph,
    config: &EnsembleConfig,
    cell: &CellPlan,
    sink: &mut S,
) -> TrialStreams {
    let prefix = crate::victim_prefix();
    let (spec, valid_list, attacker) = match cell {
        CellPlan::Chaos { scenario, cast } => {
            let chaos = config.chaos_config(*scenario);
            let scenario = build_scenario(graph, &chaos, cast);
            assert!(
                !scenario.expect_oscillation,
                "ensemble workloads must converge"
            );
            let valid_list: MoasList = [cast.victim, cast.partner].into_iter().collect();
            let mut origins = vec![(cast.victim, scenario.origin_list.clone())];
            if scenario.partner_originates {
                origins.push((cast.partner, scenario.origin_list.clone()));
            }
            (
                RunSpec {
                    origins,
                    plan: scenario.plan,
                    mrai: scenario.mrai,
                    policies: policy_map(graph, &scenario.strippers, config.policy),
                    seed: cast.seed,
                    max_link_delay: config.max_link_delay,
                },
                valid_list,
                cast.attacker,
            )
        }
        CellPlan::LongLived(plan) => {
            let valid_list: MoasList = plan.origins.iter().copied().collect();
            let origin_list = plan.explicit_list.then(|| valid_list.clone());
            let mut toggle_route = Route::new(prefix, AsPath::new());
            if let Some(list) = &origin_list {
                toggle_route.set_moas_list(Some(list));
            }
            // CDN-style handoff: the toggling member leaves the origin set
            // and rejoins every dwell window, four edges in total, so the
            // run stays bounded and converges after the last edge.
            let mut fault_plan = NetFaultPlan::new(sim_engine::rng::derive_seed(plan.seed, 0xFA17));
            fault_plan.every(
                T_CHURN,
                config.dwell_ticks.max(1),
                Some(4),
                FaultEvent::ToggleOrigin {
                    asn: plan.toggler,
                    route: toggle_route,
                },
            );
            (
                RunSpec {
                    origins: plan
                        .origins
                        .iter()
                        .map(|&o| (o, origin_list.clone()))
                        .collect(),
                    plan: fault_plan,
                    mrai: 0,
                    policies: policy_map(graph, &BTreeSet::new(), config.policy),
                    seed: plan.seed,
                    max_link_delay: config.max_link_delay,
                },
                valid_list,
                plan.attacker,
            )
        }
    };

    let churn = record_run(graph, &spec, None, sink, "churn");
    let forged = FalseOriginAttack::new(ListForgery::IncludeSelf).forged_route(
        prefix,
        attacker,
        &valid_list,
    );
    let attack = record_run(
        graph,
        &spec,
        Some(FaultEvent::Announce {
            asn: attacker,
            route: forged,
        }),
        sink,
        "attack",
    );
    if S::ENABLED {
        sink.counter_add("ensemble.trials", 1);
        sink.counter_add("ensemble.observations", (churn.len() + attack.len()) as u64);
    }
    TrialStreams {
        attacker,
        seed: cell.seed(),
        churn,
        attack,
    }
}

/// What one detector produced on one trial's pair of streams.
#[derive(Debug, Clone, Copy)]
struct DetectorTrial {
    churn_alarms: u64,
    latency: Option<u64>,
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

/// Detection criterion: the first alarm implicating the attacker's origin at
/// or after the injection tick, as latency from injection.
fn detection_latency(alarms: &[DetectorAlarm], attacker: Asn) -> Option<u64> {
    alarms
        .iter()
        .filter(|a| a.origin == Some(attacker) && a.time >= T_ATTACK)
        .map(|a| a.time)
        .min()
        .map(|t| t - T_ATTACK)
}

/// Replays one trial's streams through one detector at one deployment.
fn evaluate_trial(
    streams: &TrialStreams,
    detector_index: usize,
    deployment: &Deployment,
) -> DetectorTrial {
    let churn_alarms = replay(&streams.churn, detector_index, deployment).len() as u64;
    let attack_alarms = replay(&streams.attack, detector_index, deployment);
    DetectorTrial {
        churn_alarms,
        latency: detection_latency(&attack_alarms, streams.attacker),
    }
}

/// Folds per-trial detector outcomes into one report row.
fn aggregate_detector(detector_index: usize, trials: &[DetectorTrial]) -> DetectorReport {
    let noisy = trials.iter().filter(|t| t.churn_alarms > 0).count();
    let false_alarms: Vec<f64> = trials.iter().map(|t| t.churn_alarms as f64).collect();
    let latencies: Vec<f64> = trials
        .iter()
        .filter_map(|t| t.latency)
        .map(|l| l as f64)
        .collect();
    let total = trials.len();
    let missed = total.saturating_sub(latencies.len());
    DetectorReport {
        detector: detector_name(detector_index).to_string(),
        false_alarm_rate: ratio(noisy, total),
        mean_false_alarms: mean(&false_alarms),
        missed_detection_rate: ratio(missed, total),
        mean_detection_latency_ticks: mean(&latencies),
        detected_trials: latencies.len(),
    }
}

/// Phase 3: replays every recorded stream through every detector (serially,
/// in plan order — replay is cheap) and folds the outcomes into the report.
fn aggregate_ensemble(
    graph: &AsGraph,
    config: &EnsembleConfig,
    streams: &[TrialStreams],
) -> EnsembleReport {
    let asns: Vec<Asn> = graph.asns().collect();
    let workloads = EnsembleWorkload::all()
        .into_iter()
        .enumerate()
        .map(|(wx, workload)| {
            let slice = &streams[wx * config.trials..(wx + 1) * config.trials];
            let detectors = (0..DETECTOR_COUNT)
                .map(|dx| {
                    let trials: Vec<DetectorTrial> = slice
                        .iter()
                        .map(|s| evaluate_trial(s, dx, &Deployment::Full))
                        .collect();
                    aggregate_detector(dx, &trials)
                })
                .collect();
            WorkloadReport {
                workload,
                detectors,
            }
        })
        .collect();

    // Deployment sweep over the failover streams (workload index 0): replay
    // costs no extra simulation, so partial deployment is pure filtering.
    let failover = &streams[0..config.trials];
    let deployment = ENSEMBLE_DEPLOYMENT_FRACTIONS
        .iter()
        .map(|&fraction| {
            let detectors = (0..DETECTOR_COUNT)
                .map(|dx| {
                    let trials: Vec<DetectorTrial> = failover
                        .iter()
                        .map(|s| {
                            let deployment = Deployment::sample(
                                &asns,
                                fraction,
                                sim_engine::rng::derive_seed(s.seed, 0xDE91),
                            );
                            evaluate_trial(s, dx, &deployment)
                        })
                        .collect();
                    aggregate_detector(dx, &trials)
                })
                .collect();
            EnsembleDeploymentPoint {
                deployment_fraction: fraction,
                detectors,
            }
        })
        .collect();

    EnsembleReport {
        trials: config.trials,
        seed: config.seed,
        policy: config.policy.to_string(),
        workloads,
        deployment,
    }
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
    let report = aggregate_ensemble(&graph, config, &streams);
    if !metrics {
        return (report, snapshot);
    }

    let mut verdicts = RecordingSink::new();
    for workload in &report.workloads {
        for detector in &workload.detectors {
            let key = |metric: &str| {
                format!(
                    "ensemble.{}.{}.{metric}",
                    workload.workload.name(),
                    detector.detector
                )
            };
            verdicts.counter_add(&key("detections"), detector.detected_trials as u64);
            verdicts.counter_add(
                &key("missed"),
                (report.trials - detector.detected_trials) as u64,
            );
            #[allow(clippy::cast_sign_loss)]
            verdicts.counter_add(
                &key("churn_alarms"),
                (detector.mean_false_alarms * report.trials as f64).round() as u64,
            );
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
        for workload in EnsembleWorkload::all() {
            let parsed: EnsembleWorkload = workload.name().parse().unwrap();
            assert_eq!(parsed, workload);
        }
        let err = "tsunami".parse::<EnsembleWorkload>().unwrap_err();
        assert!(err.to_string().contains("tsunami"));
        assert!(err.to_string().contains("long-lived-moas"));
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
