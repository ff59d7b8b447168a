//! Failover/churn scenarios: MOAS-detector accuracy under faults.
//!
//! The paper evaluates detection on *static* converged networks. This driver
//! asks the robustness question the paper leaves open: how does the detector
//! behave while the network is legitimately churning — provider failovers,
//! origin flaps, lossy core links, session resets? Each scenario runs every
//! trial twice on the same fault plan:
//!
//! 1. **Churn only.** No attacker. Every alarm here is noise triggered by
//!    legitimate dynamics (e.g. a backup origin coming online with an
//!    implicit list), giving the false-alarm metrics.
//! 2. **Churn + attack.** The same plan plus a forged-origin announcement
//!    injected mid-churn. The first verifier-confirmed alarm at or after the
//!    injection tick gives the detection latency; no such alarm is a missed
//!    detection.
//!
//! The flap-storm scenario is the exception: it drives an unbounded origin
//! flap with MRAI disabled, which never converges — the run must end with
//! the engine's convergence watchdog reporting
//! [`ConvergenceError::Oscillating`], and the report counts oscillating
//! trials instead of detection latency.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use as_topology::{AsGraph, InternetModel};
use bgp_engine::{
    ConvergenceError, FaultEvent, LinkFaultModel, NetFaultPlan, RouteMonitor, ShardedNetwork,
};
use bgp_types::{AsPath, Asn, MoasList, Route};
use minimetrics::{MetricsSink, MetricsSnapshot, Scoped};
use moas_core::{
    Deployment, FalseOriginAttack, ListForgery, MoasConfig, MoasMonitor, RegistryVerifier,
    Resolution, UnresolvedPolicy,
};

use crate::exec::{Cell, Exec, Layout};
use crate::json::{self, Json, ToJson};
use crate::score::{accuracy, detection_latency, Verdict};
use crate::stats::{mean, mean_by};
use crate::trial::MAX_LINK_DELAY;

/// Tick at which scripted churn begins.
pub(crate) const T_CHURN: u64 = 40;
/// Tick at which the attack run injects the forged announcement — inside the
/// churn window of every scenario.
pub(crate) const T_ATTACK: u64 = 120;
/// Tick at which failover scenarios restore the failed link.
const T_RESTORE: u64 = 200;
/// Watchdog sampling interval for the flap-storm scenario.
const WATCHDOG_EVERY: u64 = 64;

/// One fault/churn scenario class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// A multihomed stub loses its primary provider link mid-run; its
    /// multihoming partner starts backup origination (implicit list — the
    /// §4.3 hazard), and the link is restored later.
    Failover,
    /// A backup origin toggles its origination on and off several times,
    /// with MRAI enabled (bounded, legitimate route flap).
    OriginFlap,
    /// A core transit link drops, corrupts, duplicates and reorders
    /// messages while both origins announce proper MOAS lists.
    LossyCore,
    /// The victim's provider session resets periodically, and that provider
    /// strips MOAS communities on export (§4.3), so every re-announcement
    /// wave re-triggers implicit-list conflicts.
    SessionReset,
    /// An unbounded origin flap with MRAI disabled: a storm that never
    /// converges. The convergence watchdog must terminate it with
    /// [`ConvergenceError::Oscillating`].
    FlapStorm,
    /// A backup origin flaps *faster than the MRAI window*: every flap edge
    /// lands while the per-peer timers are still closed, so updates are
    /// deferred and coalesced instead of propagating immediately. Exercises
    /// detection latency when the attack itself sits behind closed MRAI
    /// timers.
    MraiDeferral,
}

impl ChaosScenario {
    /// All scenarios, in catalog order.
    #[must_use]
    pub fn all() -> [ChaosScenario; 6] {
        [
            ChaosScenario::Failover,
            ChaosScenario::OriginFlap,
            ChaosScenario::LossyCore,
            ChaosScenario::SessionReset,
            ChaosScenario::FlapStorm,
            ChaosScenario::MraiDeferral,
        ]
    }

    /// The CLI/JSON name of the scenario.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosScenario::Failover => "failover",
            ChaosScenario::OriginFlap => "origin-flap",
            ChaosScenario::LossyCore => "lossy-core",
            ChaosScenario::SessionReset => "session-reset",
            ChaosScenario::FlapStorm => "flap-storm",
            ChaosScenario::MraiDeferral => "mrai-deferral",
        }
    }
}

impl fmt::Display for ChaosScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parse error for [`ChaosScenario`], naming the valid scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenario(String);

impl fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scenario '{}' (expected one of: failover, origin-flap, lossy-core, session-reset, flap-storm, mrai-deferral)",
            self.0
        )
    }
}

impl std::error::Error for UnknownScenario {}

impl FromStr for ChaosScenario {
    type Err = UnknownScenario;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ChaosScenario::all()
            .into_iter()
            .find(|scenario| scenario.name() == s)
            .ok_or_else(|| UnknownScenario(s.to_string()))
    }
}

impl ToJson for ChaosScenario {
    fn to_json_value(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// Configuration of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The scenario class to replay.
    pub scenario: ChaosScenario,
    /// Number of Monte-Carlo trials (actor sets) to run.
    pub trials: usize,
    /// Master seed: the topology, every actor draw, and every fault RNG
    /// stream derive from it.
    pub seed: u64,
    /// Transit AS count of the generated topology.
    pub transit_count: usize,
    /// Stub AS count of the generated topology.
    pub stub_count: usize,
}

impl ChaosConfig {
    /// Default protocol: 30 trials on a ~32-AS topology with heavy
    /// multihoming (failover needs stubs with two providers).
    #[must_use]
    pub fn new(scenario: ChaosScenario) -> Self {
        ChaosConfig {
            scenario,
            trials: 30,
            seed: 0xC4A05,
            transit_count: 8,
            stub_count: 24,
        }
    }

    /// A reduced protocol for tests and smoke runs.
    #[must_use]
    pub fn quick(scenario: ChaosScenario) -> Self {
        ChaosConfig {
            trials: 6,
            transit_count: 6,
            stub_count: 16,
            ..ChaosConfig::new(scenario)
        }
    }
}

/// The cast of one trial, drawn during the serial planning phase. Shared
/// with the [`crate::ensemble`] driver, which replays the same casts under
/// passive tap monitors.
#[derive(Debug, Clone)]
pub(crate) struct TrialPlan {
    /// The multihomed victim stub (primary origin).
    pub(crate) victim: Asn,
    /// The victim's multihoming partner (backup / second origin).
    pub(crate) partner: Asn,
    /// The victim's primary provider (the failed/reset link's far end).
    pub(crate) provider: Asn,
    /// The compromised AS injecting the forged origin in the attack run.
    pub(crate) attacker: Asn,
    /// Per-trial seed for link jitter and the fault RNG.
    pub(crate) seed: u64,
}

/// What one trial (both runs) produced.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TrialResult {
    /// Churn-only alarms, and the first confirmed alarm's latency in the
    /// attack run.
    verdict: Verdict,
    /// The churn-only run ended with the watchdog's oscillation verdict.
    oscillated: bool,
    /// The oscillation period in events (0 when `!oscillated`).
    cycle_len: u64,
    /// Messages delivered in the churn-only run.
    messages: u64,
    /// Fault-model drops in the churn-only run.
    dropped: u64,
    /// Corrupt-and-discarded messages in the churn-only run.
    corrupted: u64,
    /// Fault-model duplicates in the churn-only run.
    duplicated: u64,
    /// Fault-model extra-delay reorders in the churn-only run.
    reordered: u64,
    /// Updates held back by a closed MRAI window in the churn-only run.
    mrai_deferred: u64,
}

/// The aggregated report of one chaos run — what `moas-lab chaos` prints
/// (or writes with `--out FILE`) as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Scenario name.
    pub scenario: ChaosScenario,
    /// Trials run.
    pub trials: usize,
    /// The master seed the run derived from.
    pub seed: u64,
    /// Fraction of churn-only trials that raised at least one alarm: the
    /// detector crying wolf under legitimate dynamics.
    pub false_alarm_rate: f64,
    /// Mean alarms per churn-only trial.
    pub mean_false_alarms: f64,
    /// Fraction of attack trials where no confirmed alarm followed the
    /// injection (flap-storm runs no attacks; the rate is 0 there).
    pub missed_detection_rate: f64,
    /// Mean ticks from injection to first confirmed alarm, over detected
    /// trials (0 when nothing was detected).
    pub mean_detection_latency_ticks: f64,
    /// Attack trials with a confirmed detection.
    pub detected_trials: usize,
    /// Trials the watchdog ended with an oscillation verdict.
    pub oscillating_trials: usize,
    /// Mean oscillation period in events, over oscillating trials.
    pub mean_cycle_len: f64,
    /// Mean messages delivered per churn-only trial.
    pub mean_messages: f64,
    /// Mean fault-model message drops per trial.
    pub mean_dropped: f64,
    /// Mean corrupt-discarded messages per trial.
    pub mean_corrupted: f64,
    /// Mean duplicated messages per trial.
    pub mean_duplicated: f64,
    /// Mean reordered (extra-delayed) messages per trial.
    pub mean_reordered: f64,
    /// Mean updates deferred by a closed MRAI window per churn-only trial
    /// (nonzero only in scenarios that enable MRAI).
    pub mean_mrai_deferred: f64,
}

json::impl_json_struct!(ChaosReport {
    scenario,
    trials,
    seed,
    false_alarm_rate,
    mean_false_alarms,
    missed_detection_rate,
    mean_detection_latency_ticks,
    detected_trials,
    oscillating_trials,
    mean_cycle_len,
    mean_messages,
    mean_dropped,
    mean_corrupted,
    mean_duplicated,
    mean_reordered,
    mean_mrai_deferred,
});

impl ChaosReport {
    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }
}

/// One point of a partial-deployment sweep: the full accuracy report of a
/// chaos run where only a seeded `deployment_fraction` of ASes run the MOAS
/// detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSweepPoint {
    /// Fraction of ASes running the detector (0.0 = nobody, 1.0 = everyone).
    pub deployment_fraction: f64,
    /// The chaos report at that deployment level.
    pub report: ChaosReport,
}

json::impl_json_struct!(DeploymentSweepPoint {
    deployment_fraction,
    report,
});

/// A full partial-deployment sweep: detector accuracy vs deployment
/// fraction under one churn scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSweep {
    /// The churn scenario every point replays.
    pub scenario: ChaosScenario,
    /// Trials per point.
    pub trials: usize,
    /// The master seed (shared across points, so every point replays the
    /// same casts and fault plans — only the deployment set varies).
    pub seed: u64,
    /// One report per requested fraction, in request order.
    pub points: Vec<DeploymentSweepPoint>,
}

json::impl_json_struct!(DeploymentSweep {
    scenario,
    trials,
    seed,
    points,
});

impl DeploymentSweep {
    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }
}

/// The default fractions `moas-lab chaos --deployment-sweep` measures.
pub const DEPLOYMENT_SWEEP_FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Runs a chaos scenario at full deployment and returns the accuracy report
/// plus the merged metrics snapshot (empty unless `exec.metrics`).
///
/// Report and snapshot are bit-identical for every `exec.jobs` and every
/// `exec.shards`: trials are planned sequentially (per-trial seeds derive
/// from `(config.seed, trial index)`, so no shared RNG state is consumed),
/// executed into index-addressed slots, and aggregated in planning order.
/// The per-trial fault RNG streams are seeded inside each trial from its
/// planned seed, so they do not depend on scheduling either.
///
/// With metrics on, each trial records its churn- and attack-run network
/// metrics (key prefixes `churn.` / `attack.`) plus trial-level counters and
/// histograms under `chaos.*`.
///
/// # Panics
///
/// Panics if the generated topology has no stub with two providers (cannot
/// happen with the default configurations) or if a scenario that must
/// converge does not.
#[must_use]
pub fn run_chaos(config: &ChaosConfig, exec: Exec) -> (ChaosReport, MetricsSnapshot) {
    run_chaos_at(config, 1.0, exec)
}

/// [`run_chaos`] at a partial deployment level: each trial samples a seeded
/// `deployment_fraction` subset of ASes to run the detector (1.0 is exactly
/// [`Deployment::Full`], 0.0 exactly [`Deployment::None`]). The casts, fault
/// plans and jitter are identical to the full-deployment run with the same
/// config, so reports across fractions differ only in what the detector saw.
fn run_chaos_at(
    config: &ChaosConfig,
    deployment_fraction: f64,
    exec: Exec,
) -> (ChaosReport, MetricsSnapshot) {
    struct ChaosTrials<'a> {
        graph: &'a AsGraph,
        asns: Vec<Asn>,
        config: &'a ChaosConfig,
        casts: &'a [TrialPlan],
        deployment_fraction: f64,
    }
    impl Cell for ChaosTrials<'_> {
        type Out = TrialResult;
        fn run<S: MetricsSink>(&self, layout: Layout, i: usize, sink: &mut S) -> TrialResult {
            let cast = &self.casts[i];
            let deployment = trial_deployment(&self.asns, self.deployment_fraction, cast.seed);
            run_one(layout, self.graph, self.config, cast, deployment, sink)
        }
    }
    let graph = chaos_graph(config);
    let casts = plan_casts(&graph, config);
    let (results, snapshot) = exec.run_cells(
        casts.len(),
        &ChaosTrials {
            graph: &graph,
            asns: graph.asns().collect(),
            config,
            casts: &casts,
            deployment_fraction,
        },
    );
    (aggregate(config, &results), snapshot)
}

/// Accuracy vs deployment fraction: runs the scenario once per fraction
/// (same seed, so the same casts and fault plans replay at every level) and
/// collects the reports; the per-fraction snapshots merge in request order.
/// As `exec`-invariant as [`run_chaos`].
#[must_use]
pub fn run_deployment_sweep(
    config: &ChaosConfig,
    fractions: &[f64],
    exec: Exec,
) -> (DeploymentSweep, MetricsSnapshot) {
    let mut snapshot = MetricsSnapshot::new();
    let points = fractions
        .iter()
        .map(|&deployment_fraction| {
            let (report, point_snapshot) = run_chaos_at(config, deployment_fraction, exec);
            snapshot.merge(&point_snapshot);
            DeploymentSweepPoint {
                deployment_fraction,
                report,
            }
        })
        .collect();
    let sweep = DeploymentSweep {
        scenario: config.scenario,
        trials: config.trials,
        seed: config.seed,
        points,
    };
    (sweep, snapshot)
}

/// The generated topology a chaos run plays out on.
pub(crate) fn chaos_graph(config: &ChaosConfig) -> AsGraph {
    InternetModel::new()
        .transit_count(config.transit_count)
        .stub_count(config.stub_count)
        .multihome_prob(0.9)
        .build(config.seed)
}

/// Phase 1: plans every trial's cast serially (per-trial seeds derive from
/// `(config.seed, trial index)`, so no shared RNG state is consumed).
pub(crate) fn plan_casts(graph: &AsGraph, config: &ChaosConfig) -> Vec<TrialPlan> {
    let multihomed: Vec<Asn> = graph
        .stub_asns()
        .into_iter()
        .filter(|&s| graph.degree(s) >= 2)
        .collect();
    assert!(
        multihomed.len() >= 2,
        "chaos topology has too few multihomed stubs"
    );
    (0..config.trials)
        .map(|t| {
            let seed = bgp_types::rng::derive_seed(config.seed, t as u64);
            let mut rng = bgp_types::rng::from_seed(seed);
            let picked = bgp_types::rng::sample_distinct(&mut rng, &multihomed, 2);
            let (victim, partner) = (picked[0], picked[1]);
            let provider = graph
                .neighbors(victim)
                .next()
                .expect("multihomed stub has providers");
            let others: Vec<Asn> = graph
                .asns()
                .filter(|&a| a != victim && a != partner)
                .collect();
            let attacker = bgp_types::rng::sample_distinct(&mut rng, &others, 1)[0];
            TrialPlan {
                victim,
                partner,
                provider,
                attacker,
                seed,
            }
        })
        .collect()
}

/// Phase 3: aggregates trial results **in planning order** into a report.
fn aggregate(config: &ChaosConfig, results: &[TrialResult]) -> ChaosReport {
    let attack_trials = if config.scenario == ChaosScenario::FlapStorm {
        0
    } else {
        results.len()
    };
    let score = accuracy(results.iter().map(|r| r.verdict), attack_trials);
    let cycles: Vec<f64> = results
        .iter()
        .filter(|r| r.oscillated)
        .map(|r| r.cycle_len as f64)
        .collect();

    ChaosReport {
        scenario: config.scenario,
        trials: results.len(),
        seed: config.seed,
        false_alarm_rate: score.false_alarm_rate,
        mean_false_alarms: score.mean_false_alarms,
        missed_detection_rate: score.missed_detection_rate,
        mean_detection_latency_ticks: score.mean_detection_latency_ticks,
        detected_trials: score.detected_trials,
        oscillating_trials: cycles.len(),
        mean_cycle_len: mean(&cycles),
        mean_messages: mean_by(results, |r| r.messages as f64),
        mean_dropped: mean_by(results, |r| r.dropped as f64),
        mean_corrupted: mean_by(results, |r| r.corrupted as f64),
        mean_duplicated: mean_by(results, |r| r.duplicated as f64),
        mean_reordered: mean_by(results, |r| r.reordered as f64),
        mean_mrai_deferred: mean_by(results, |r| r.mrai_deferred as f64),
    }
}

/// One scripted churn run, fully described: who originates what at tick 0,
/// the fault timeline, the engine knobs, and the trial seed. Chaos builds
/// one per trial from its scenario class ([`build_scenario`]); the ensemble
/// replays the same ones and adds its long-lived-MOAS arm.
pub(crate) struct Scenario {
    /// The legitimate originations, each with the MOAS list it attaches
    /// (`None` = implicit).
    pub(crate) origins: Vec<(Asn, Option<MoasList>)>,
    /// The churn timeline (without the attack injection).
    pub(crate) plan: NetFaultPlan,
    /// MRAI ticks (0 = disabled).
    pub(crate) mrai: u64,
    /// Watchdog interval (0 = off); set only where oscillation is expected.
    pub(crate) watchdog: u64,
    /// Transit ASes that strip MOAS communities on export.
    pub(crate) strippers: BTreeSet<Asn>,
    /// Whether the churn run is expected to end in oscillation.
    pub(crate) expect_oscillation: bool,
    /// Per-trial seed of the link-delay jitter.
    pub(crate) seed: u64,
}

/// The run of one chaos trial: `config.scenario`'s churn script played by
/// `cast`.
pub(crate) fn build_scenario(graph: &AsGraph, config: &ChaosConfig, cast: &TrialPlan) -> Scenario {
    let prefix = crate::victim_prefix();
    let bare = Route::new(prefix, AsPath::new());
    let valid_list: MoasList = [cast.victim, cast.partner].into_iter().collect();
    let mut plan = NetFaultPlan::new(bgp_types::rng::derive_seed(cast.seed, 0xFA17));
    // Both origins announce the proper list from the start unless the
    // scenario is about the partner coming and going with an implicit one.
    let mut partner_originates = true;
    let mut strippers = BTreeSet::new();
    let (mut mrai, mut watchdog) = (0, 0);
    match config.scenario {
        ChaosScenario::Failover => {
            // Primary provider dies; the partner starts backup origination
            // with an implicit list (a fresh backup origin has no list
            // configured — the §4.3 hazard), then everything heals.
            plan.at(T_CHURN, FaultEvent::FailLink(cast.victim, cast.provider));
            plan.at(
                T_CHURN + 5,
                FaultEvent::Announce {
                    asn: cast.partner,
                    route: bare.clone(),
                },
            );
            plan.at(
                T_RESTORE,
                FaultEvent::RestoreLink(cast.victim, cast.provider),
            );
            plan.at(
                T_RESTORE + 5,
                FaultEvent::Withdraw {
                    asn: cast.partner,
                    prefix,
                },
            );
            partner_originates = false;
        }
        ChaosScenario::OriginFlap => {
            // The backup origin flaps six times, implicit lists, MRAI on:
            // bounded legitimate churn that must still converge.
            plan.every(
                T_CHURN,
                40,
                Some(6),
                FaultEvent::ToggleOrigin {
                    asn: cast.partner,
                    route: bare,
                },
            );
            partner_originates = false;
            mrai = 20;
        }
        ChaosScenario::LossyCore => {
            // Proper lists everywhere; the transit core misbehaves. Every
            // transit-transit link gets the model — a single link sees only
            // a couple of updates per convergence, far too few to exercise
            // the fault classes.
            for core in core_links(graph) {
                plan.set_link_model(
                    core,
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
        ChaosScenario::SessionReset => {
            // The victim's provider session resets repeatedly, and that
            // provider strips MOAS communities, so each re-announcement wave
            // re-raises implicit-list conflicts downstream.
            plan.every(
                T_CHURN,
                60,
                Some(3),
                FaultEvent::ResetSession(cast.victim, cast.provider),
            );
            strippers.insert(cast.provider);
        }
        ChaosScenario::FlapStorm => {
            // Unbounded flap, MRAI off: never converges. Only the watchdog
            // can end the run.
            plan.every(
                5,
                6,
                None,
                FaultEvent::ToggleOrigin {
                    asn: cast.partner,
                    route: bare,
                },
            );
            partner_originates = false;
            watchdog = WATCHDOG_EVERY;
        }
        ChaosScenario::MraiDeferral => {
            // Six flap edges 10 ticks apart under a 30-tick MRAI window:
            // every edge after the first lands while the timers are still
            // closed, so it is deferred (and mostly coalesced away) rather
            // than propagated. Bounded churn — must converge once the last
            // window flushes.
            plan.every(
                T_CHURN,
                10,
                Some(6),
                FaultEvent::ToggleOrigin {
                    asn: cast.partner,
                    route: bare,
                },
            );
            partner_originates = false;
            mrai = 30;
        }
    }
    let list = partner_originates.then_some(valid_list);
    let mut origins = vec![(cast.victim, list.clone())];
    if partner_originates {
        origins.push((cast.partner, list));
    }
    Scenario {
        origins,
        plan,
        mrai,
        watchdog,
        strippers,
        // The watchdog is armed exactly where the run must oscillate.
        expect_oscillation: watchdog > 0,
        seed: cast.seed,
    }
}

/// The transit-transit links of the topology — the "core" the lossy-core
/// scenario degrades.
fn core_links(graph: &AsGraph) -> Vec<(Asn, Asn)> {
    let transit: BTreeSet<Asn> = graph.transit_asns().into_iter().collect();
    graph
        .links()
        .into_iter()
        .filter(|(a, b)| transit.contains(a) && transit.contains(b))
        .collect()
}

/// The detector deployment of one trial at `fraction` of `asns`: a sample
/// seeded from the trial's own seed, so different trials deploy different
/// subsets, like real incremental rollout. [`Deployment::sample`] gives
/// exactly `None` at 0.0 and `Full` at 1.0.
pub(crate) fn trial_deployment(asns: &[Asn], fraction: f64, trial_seed: u64) -> Deployment {
    Deployment::sample(
        asns,
        fraction,
        bgp_types::rng::derive_seed(trial_seed, 0xDE91),
    )
}

/// Runs one chaos trial. Network metrics of the churn-only run land in
/// `sink` under the `churn.` prefix, those of the churn+attack run under
/// `attack.`; trial-level verdicts (alarm counts, detection latency,
/// oscillation) under `chaos.*`. With a disabled sink every export is
/// skipped. Alarm counts and detection latency are summed/min-folded across
/// the shards' monitors, which reproduces the single-monitor totals for any
/// shard count because alarms are observer-scoped.
fn run_one<S: MetricsSink>(
    layout: Layout,
    graph: &AsGraph,
    config: &ChaosConfig,
    cast: &TrialPlan,
    deployment: Deployment,
    sink: &mut S,
) -> TrialResult {
    let prefix = crate::victim_prefix();
    let valid_list: MoasList = [cast.victim, cast.partner].into_iter().collect();
    let scenario = build_scenario(graph, config, cast);

    // One monitor per shard, all from the same config and registry, so the
    // union of the per-shard alarm logs is the same for any partition.
    let monitor = || {
        let mut registry = RegistryVerifier::new();
        registry.register(prefix, valid_list.clone());
        MoasMonitor::new(
            MoasConfig {
                deployment: deployment.clone(),
                strippers: scenario.strippers.clone(),
                on_unresolved: UnresolvedPolicy::Accept,
            },
            registry,
        )
    };

    // Churn-only run: every alarm is noise.
    let (churn_net, churn_err) = run_scenario(layout, graph, &scenario, None, &monitor);
    let oscillated = matches!(churn_err, Some(ConvergenceError::Oscillating { .. }));
    assert_eq!(
        oscillated, scenario.expect_oscillation,
        "scenario {} convergence surprise: {churn_err:?}",
        config.scenario
    );
    let cycle_len = match churn_err {
        Some(ConvergenceError::Oscillating { cycle_len }) => cycle_len,
        _ => 0,
    };
    let faults = churn_net.fault_stats_total();
    let churn_stats = churn_net.stats();
    let mrai_deferred = churn_stats.mrai_deferred;
    let churn_alarms: u64 = churn_net.monitors().map(|m| m.alarms().len() as u64).sum();
    if S::ENABLED {
        churn_net.export_metrics(&mut Scoped::new(sink, "churn"));
        sink.counter_add("chaos.trials", 1);
        sink.counter_add("chaos.churn_alarms", churn_alarms);
        sink.counter_add("chaos.mrai_deferred", mrai_deferred);
        if oscillated {
            sink.counter_add("chaos.oscillating_trials", 1);
            sink.record("chaos.cycle_len", cycle_len);
        } else {
            sink.record(
                "chaos.convergence_ticks.churn",
                churn_stats.converged_at.ticks(),
            );
        }
    }

    // Churn + attack run: measure detection of a forged origin injected
    // mid-churn (skipped for the non-converging storm).
    let latency = if scenario.expect_oscillation {
        None
    } else {
        let (attack_net, attack_err) = run_scenario(
            layout,
            graph,
            &scenario,
            Some(forged_announcement(cast.attacker, &valid_list)),
            &monitor,
        );
        assert!(
            attack_err.is_none(),
            "attack run must converge: {attack_err:?}"
        );
        let latency = detection_latency(
            attack_net
                .monitors()
                .flat_map(|m| m.alarms().iter())
                .filter(|a| a.resolution == Resolution::Confirmed)
                .map(|a| a.at.ticks()),
        );
        if S::ENABLED {
            attack_net.export_metrics(&mut Scoped::new(sink, "attack"));
            sink.record(
                "chaos.convergence_ticks.attack",
                attack_net.stats().converged_at.ticks(),
            );
            match latency {
                Some(l) => sink.record("chaos.detection_latency_ticks", l),
                None => sink.counter_add("chaos.missed_detections", 1),
            }
        }
        latency
    };

    TrialResult {
        verdict: Verdict {
            churn_alarms,
            latency,
        },
        oscillated,
        cycle_len,
        messages: churn_stats.total_messages(),
        dropped: faults.dropped,
        corrupted: faults.corrupted,
        duplicated: faults.duplicated,
        reordered: faults.reordered,
        mrai_deferred,
    }
}

/// The attack of every churn+attack run: `attacker` announces the victim
/// prefix with the §4.1 strongest forgery, a list that includes itself.
pub(crate) fn forged_announcement(attacker: Asn, valid_list: &MoasList) -> FaultEvent {
    let route = FalseOriginAttack::new(ListForgery::IncludeSelf).forged_route(
        crate::victim_prefix(),
        attacker,
        valid_list,
    );
    FaultEvent::Announce {
        asn: attacker,
        route,
    }
}

/// The one scenario runner of chaos and the ensemble: builds the network
/// over `graph` through `layout` (`monitor` is called once per shard), arms
/// MRAI and the watchdog, installs the scenario's plan plus `attack` at
/// [`T_ATTACK`], originates, and drives it. Returns the network for
/// inspection plus the convergence error, if any — budget exhaustion is a
/// driver bug and panics; oscillation is a legitimate verdict the caller
/// interprets.
pub(crate) fn run_scenario<M: RouteMonitor + Send + 'static>(
    layout: Layout,
    graph: &AsGraph,
    scenario: &Scenario,
    attack: Option<FaultEvent>,
    monitor: impl FnMut() -> M,
) -> (ShardedNetwork<M>, Option<ConvergenceError>) {
    let mut net = layout.build(graph, scenario.seed, MAX_LINK_DELAY, monitor);
    net.set_mrai(scenario.mrai);
    net.set_watchdog(scenario.watchdog);

    let mut plan = scenario.plan.clone();
    if let Some(event) = attack {
        plan.at(T_ATTACK, event);
    }
    net.set_fault_plan(plan).expect("planned casts are valid");

    let prefix = crate::victim_prefix();
    for (origin, list) in &scenario.origins {
        net.originate(*origin, prefix, list.clone());
    }

    let err = match net.run() {
        Ok(_) => None,
        Err(err @ ConvergenceError::Oscillating { .. }) => Some(err),
        Err(err) => panic!("scenario run blew its event budget: {err}"),
    };
    (net, err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for scenario in ChaosScenario::all() {
            let parsed: ChaosScenario = scenario.name().parse().unwrap();
            assert_eq!(parsed, scenario);
        }
        let err = "tsunami".parse::<ChaosScenario>().unwrap_err();
        assert!(err.to_string().contains("tsunami"));
        assert!(err.to_string().contains("failover"));
    }

    #[test]
    fn failover_detects_attack_and_survives_churn() {
        let report = run_chaos(&ChaosConfig::quick(ChaosScenario::Failover), Exec::serial()).0;
        assert_eq!(report.trials, 6);
        assert_eq!(report.oscillating_trials, 0);
        assert!(report.detected_trials > 0, "attacks must be detected");
        assert!(report.mean_messages > 0.0);
        // The backup origin comes online with an implicit list: the detector
        // must raise (false) alarms during legitimate failover.
        assert!(report.false_alarm_rate > 0.0);
    }

    #[test]
    fn origin_flap_converges_with_mrai() {
        let report = run_chaos(
            &ChaosConfig::quick(ChaosScenario::OriginFlap),
            Exec::serial(),
        )
        .0;
        assert_eq!(report.oscillating_trials, 0);
        assert!(report.mean_messages > 0.0);
    }

    #[test]
    fn lossy_core_perturbs_messages_without_breaking_detection() {
        let report = run_chaos(
            &ChaosConfig::quick(ChaosScenario::LossyCore),
            Exec::serial(),
        )
        .0;
        assert_eq!(report.oscillating_trials, 0);
        assert!(
            report.mean_dropped + report.mean_corrupted + report.mean_duplicated > 0.0,
            "the fault model must actually fire"
        );
        assert!(report.detected_trials > 0);
    }

    #[test]
    fn session_reset_churn_raises_false_alarms() {
        let report = run_chaos(
            &ChaosConfig::quick(ChaosScenario::SessionReset),
            Exec::serial(),
        )
        .0;
        assert_eq!(report.oscillating_trials, 0);
        // The stripping provider mangles lists on every re-announcement
        // wave: legitimate churn must look suspicious to the detector.
        assert!(report.false_alarm_rate > 0.0);
    }

    #[test]
    fn flap_storm_always_trips_the_watchdog() {
        let mut config = ChaosConfig::quick(ChaosScenario::FlapStorm);
        config.trials = 3;
        let report = run_chaos(&config, Exec::serial()).0;
        assert_eq!(report.oscillating_trials, report.trials);
        assert!(report.mean_cycle_len > 0.0);
        assert_eq!(report.detected_trials, 0);
        assert_eq!(report.missed_detection_rate, 0.0);
    }

    #[test]
    fn mrai_deferral_defers_updates_and_still_detects() {
        let config = ChaosConfig::quick(ChaosScenario::MraiDeferral);
        // Unpartitioned and sharded.
        for exec in [Exec::serial(), Exec::serial().shards(2)] {
            let (report, _) = run_chaos(&config, exec);
            assert_eq!(report.oscillating_trials, 0);
            assert!(
                report.mean_mrai_deferred > 0.0,
                "flapping faster than the MRAI window must defer updates"
            );
            assert!(report.detected_trials > 0, "attacks must still be detected");
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let config = ChaosConfig::quick(ChaosScenario::Failover);
        assert_eq!(
            run_chaos(&config, Exec::serial()),
            run_chaos(&config, Exec::serial())
        );
    }

    #[test]
    fn deployment_sweep_tracks_detector_coverage() {
        let config = ChaosConfig::quick(ChaosScenario::Failover);
        let sweep = run_deployment_sweep(&config, &[0.0, 0.5, 1.0], Exec::serial()).0;
        assert_eq!(sweep.scenario, config.scenario);
        assert_eq!(sweep.points.len(), 3);

        let nobody = &sweep.points[0].report;
        let half = &sweep.points[1].report;
        let everyone = &sweep.points[2].report;
        // With no detector deployed there is nothing to alarm or detect.
        assert_eq!(nobody.detected_trials, 0);
        assert_eq!(nobody.false_alarm_rate, 0.0);
        assert_eq!(nobody.missed_detection_rate, 1.0);
        // Full deployment is bit-identical to the plain chaos run.
        assert_eq!(*everyone, run_chaos(&config, Exec::serial()).0);
        // Coverage can only help: detection never gets worse as the
        // detector spreads.
        assert!(half.detected_trials >= nobody.detected_trials);
        assert!(everyone.detected_trials >= half.detected_trials);
        assert!(everyone.detected_trials > 0);
        // The same casts and fault plans replay at every fraction.
        assert_eq!(nobody.mean_messages, everyone.mean_messages);
    }

    #[test]
    fn deployment_sweep_json_round_trips() {
        let mut config = ChaosConfig::quick(ChaosScenario::OriginFlap);
        config.trials = 2;
        let sweep = run_deployment_sweep(&config, &[0.0, 1.0], Exec::serial()).0;
        let text = sweep.to_json();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.pretty(), text);
        assert_eq!(doc.get("scenario"), Some(&Json::Str("origin-flap".into())));
        let Some(Json::Arr(points)) = doc.get("points") else {
            panic!("no points in {text}");
        };
        assert_eq!(points.len(), 2);
        for (point, written) in sweep.points.iter().zip(points) {
            let fraction = Json::Num(point.deployment_fraction);
            assert_eq!(written.get("deployment_fraction"), Some(&fraction));
            let report = written.get("report").unwrap();
            assert_eq!(report.pretty(), point.report.to_json());
        }
    }

    #[test]
    fn report_json_round_trips() {
        let mut config = ChaosConfig::quick(ChaosScenario::OriginFlap);
        config.seed = (1 << 53) + 1;
        let report = run_chaos(&config, Exec::serial()).0;
        let text = report.to_json();
        // The seed is written exactly, so the report names the run it came
        // from, although the parser reads it back as the nearest float.
        assert!(text.contains("\"seed\": 9007199254740993,"), "{text}");
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("seed"), Some(&Json::Num(9_007_199_254_740_992.0)));
        let rate = Json::Num(report.false_alarm_rate);
        assert_eq!(doc.get("false_alarm_rate"), Some(&rate));
        assert_eq!(doc.get("trials"), Some(&Json::Num(6.0)));
    }
}
