//! Attacker-fraction sweeps with the paper's 15-run averaging protocol.

use std::collections::BTreeSet;

use as_topology::AsGraph;
use bgp_types::Asn;
use moas_core::{Deployment, ListForgery, UnresolvedPolicy};

use minimetrics::MetricsSnapshot;

use crate::exec::Exec;
use crate::stats::{mean, mean_by, stddev};
use crate::trial::{run_trials, TrialConfig, TrialOutcome};

/// Configuration of one sweep (one curve of a figure).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of legitimate origin ASes (the paper uses 1 and 2; it does not
    /// simulate more because 96.14% of real MOAS cases involve two ASes).
    pub origin_count: usize,
    /// Fraction of ASes that deploy MOAS checking: 0.0 = Normal BGP,
    /// 1.0 = Full MOAS Detection, 0.5 = the §5.4 partial deployment.
    pub deployment_fraction: f64,
    /// Attacker list-forgery strategy.
    pub forgery: ListForgery,
    /// X axis: attacker counts as fractions of the topology size. `0.0`
    /// runs a no-attack baseline point (zero attackers); positive fractions
    /// round to whole ASes with a floor of one — see [`attacker_count_for`].
    pub attacker_fractions: Vec<f64>,
    /// "we first select 3 sets of origin ASes from the stub ASes" (§5.2).
    pub origin_set_count: usize,
    /// "Then we select 5 sets of attackers for each set of origin ASes."
    pub attacker_set_count: usize,
    /// Master seed; all trial seeds derive from it.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's protocol: 15 runs per point (3 origin sets × 5 attacker
    /// sets), attacker fractions up to 40%, one origin AS, full deployment.
    #[must_use]
    pub fn paper() -> Self {
        SweepConfig {
            origin_count: 1,
            deployment_fraction: 1.0,
            forgery: ListForgery::IncludeSelf,
            attacker_fractions: vec![0.02, 0.04, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35, 0.40],
            origin_set_count: 3,
            attacker_set_count: 5,
            seed: 0x5EED,
        }
    }

    /// A reduced protocol (2×2 runs, 3 fractions) for tests and doc examples.
    #[must_use]
    pub fn quick() -> Self {
        SweepConfig {
            origin_set_count: 2,
            attacker_set_count: 2,
            attacker_fractions: vec![0.05, 0.15, 0.30],
            ..SweepConfig::paper()
        }
    }

    /// Sets the origin count (builder style).
    #[must_use]
    pub fn origin_count(mut self, n: usize) -> Self {
        self.origin_count = n;
        self
    }

    /// Sets the deployment fraction (builder style).
    #[must_use]
    pub fn deployment_fraction(mut self, fraction: f64) -> Self {
        self.deployment_fraction = fraction;
        self
    }

    /// Sets the forgery strategy (builder style).
    #[must_use]
    pub fn forgery(mut self, forgery: ListForgery) -> Self {
        self.forgery = forgery;
        self
    }

    /// Total runs per data point.
    #[must_use]
    pub fn runs_per_point(&self) -> usize {
        self.origin_set_count * self.attacker_set_count
    }
}

/// Number of attacker ASes a fraction maps to on an `n`-AS topology.
///
/// `0.0` (and anything non-positive) means **zero attackers** — a clean
/// no-attack baseline point. Any positive fraction rounds to whole ASes
/// with a floor of one, so sub-resolution fractions (e.g. `0.01` of 46
/// ASes) still inject an attacker rather than silently measuring nothing.
/// Used by both the trial planner and the point aggregator, which must
/// agree on the count for every fraction.
#[must_use]
pub fn attacker_count_for(n: usize, fraction: f64) -> usize {
    if fraction <= 0.0 {
        0
    } else {
        (((n as f64) * fraction).round() as usize).max(1)
    }
}

/// One averaged data point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The attacker fraction this point was requested at (the sweep's X
    /// coordinate; `attacker_count` is this fraction rounded to whole ASes).
    pub requested_fraction: f64,
    /// Number of attacker ASes injected.
    pub attacker_count: usize,
    /// Attackers as a percentage of all ASes (the X axis of Figures 9-11).
    pub attacker_pct: f64,
    /// Mean percentage of remaining ASes adopting a false route (Y axis).
    pub mean_adoption_pct: f64,
    /// Sample standard deviation of the adoption percentage.
    pub stddev_adoption_pct: f64,
    /// Mean alarms per run.
    pub mean_alarms: f64,
    /// Mean verifier queries per run.
    pub mean_queries: f64,
    /// Mean BGP messages per run.
    pub mean_messages: f64,
}

/// Runs a full sweep on `graph`: for every attacker fraction, the 15-run
/// protocol of §5.2, returning one averaged point per fraction plus the
/// merged metrics snapshot (empty unless `exec.metrics`).
///
/// Origins are drawn from stub ASes and attackers from all remaining ASes,
/// exactly as §5.1 prescribes; every random draw derives deterministically
/// from `config.seed`.
///
/// The sweep is split into three phases so that points and snapshot are
/// bit-identical for every `exec.jobs` and every `Some(shards)`:
///
/// 1. **Plan.** Every trial's origins, attackers, deployment and seed are
///    drawn sequentially, in exactly the order the historical single-threaded
///    loop drew them — each draw seeds its own RNG from `config.seed` and the
///    trial's `(fraction, origin set, attacker set)` coordinates, so planning
///    consumes no shared RNG state.
/// 2. **Run.** The trials execute under `exec` (see [`Exec`]); slot `i`
///    always holds trial `i`'s outcome regardless of which worker ran it or
///    when it finished, and per-trial snapshots merge in plan order.
/// 3. **Aggregate.** Outcomes are folded per fraction in the original
///    `(fraction, origin set, attacker set)` order, so every floating-point
///    sum sees its terms in the same sequence as the serial path.
///
/// # Panics
///
/// Panics if the topology has too few stubs for the configured origin count,
/// or if a trial fails to converge.
#[must_use]
pub fn run_sweep(
    graph: &AsGraph,
    config: &SweepConfig,
    exec: Exec,
) -> (Vec<SweepPoint>, MetricsSnapshot) {
    let trials = plan_trials(graph, config);
    let (outcomes, snapshot) = run_trials(graph, &trials, None, exec);
    (aggregate_points(graph.len(), config, &outcomes), snapshot)
}

/// Phase 1 of a sweep (see [`run_sweep`]).
fn plan_trials(graph: &AsGraph, config: &SweepConfig) -> Vec<TrialConfig> {
    let stubs = graph.stub_asns();
    let n = graph.len();
    assert!(
        stubs.len() >= config.origin_count,
        "topology has too few stubs for {} origins",
        config.origin_count
    );

    let asns: Vec<Asn> = graph.asns().collect();
    let runs_per_point = config.runs_per_point();
    let mut trials: Vec<TrialConfig> =
        Vec::with_capacity(config.attacker_fractions.len() * runs_per_point);
    // One candidate buffer for the whole sweep, refilled per origin set.
    let mut candidates: Vec<Asn> = Vec::with_capacity(n);
    for (fx, &fraction) in config.attacker_fractions.iter().enumerate() {
        let attacker_count = attacker_count_for(n, fraction);

        for oi in 0..config.origin_set_count {
            let origin_seed = bgp_types::rng::derive_seed(config.seed, (fx * 100 + oi) as u64);
            let mut rng = bgp_types::rng::from_seed(origin_seed);
            let origins = bgp_types::rng::sample_distinct(&mut rng, &stubs, config.origin_count);
            let origin_set: BTreeSet<Asn> = origins.iter().copied().collect();
            candidates.clear();
            candidates.extend(asns.iter().copied().filter(|a| !origin_set.contains(a)));

            for ai in 0..config.attacker_set_count {
                let trial_seed = bgp_types::rng::derive_seed(
                    config.seed,
                    ((fx * 100 + oi) * 100 + ai + 7) as u64,
                );
                let mut rng = bgp_types::rng::from_seed(trial_seed);
                let attackers =
                    bgp_types::rng::sample_distinct(&mut rng, &candidates, attacker_count);
                let deployment =
                    Deployment::sample(&asns, config.deployment_fraction, trial_seed ^ 0xDE9107);

                trials.push(TrialConfig {
                    forgery: config.forgery,
                    strippers: BTreeSet::new(),
                    unresolved: UnresolvedPolicy::Accept,
                    seed: trial_seed,
                    ..TrialConfig::new(origins.clone(), attackers, deployment)
                });
            }
        }
    }
    trials
}

/// Phase 3 of a sweep: folds index-addressed outcomes into one point per
/// fraction, every floating-point sum seeing its terms in plan order.
fn aggregate_points(n: usize, config: &SweepConfig, outcomes: &[TrialOutcome]) -> Vec<SweepPoint> {
    let runs_per_point = config.runs_per_point();
    let mut points = Vec::with_capacity(config.attacker_fractions.len());
    for (fx, &fraction) in config.attacker_fractions.iter().enumerate() {
        let attacker_count = attacker_count_for(n, fraction);
        let runs = &outcomes[fx * runs_per_point..(fx + 1) * runs_per_point];

        let adoption: Vec<f64> = runs.iter().map(|o| 100.0 * o.adoption_fraction()).collect();

        points.push(SweepPoint {
            requested_fraction: fraction,
            attacker_count,
            attacker_pct: 100.0 * attacker_count as f64 / n as f64,
            mean_adoption_pct: mean(&adoption),
            stddev_adoption_pct: stddev(&adoption),
            mean_alarms: mean_by(runs, |o| o.alarms as f64),
            mean_queries: mean_by(runs, |o| o.verifier_queries as f64),
            mean_messages: mean_by(runs, |o| o.messages as f64),
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_topology::paper::PaperTopology;

    #[test]
    fn paper_protocol_is_15_runs() {
        assert_eq!(SweepConfig::paper().runs_per_point(), 15);
    }

    #[test]
    fn zero_fraction_means_zero_attackers() {
        assert_eq!(attacker_count_for(46, 0.0), 0);
        assert_eq!(attacker_count_for(46, -1.0), 0);
        // Positive fractions keep the floor of one attacker.
        assert_eq!(attacker_count_for(46, 0.001), 1);
        assert_eq!(attacker_count_for(46, 0.5), 23);

        let graph = PaperTopology::As25.graph();
        let mut config = SweepConfig::quick();
        config.attacker_fractions = vec![0.0, 0.15];
        let points = run_sweep(graph, &config, Exec::serial()).0;
        assert_eq!(points[0].attacker_count, 0, "0.0 is a no-attack baseline");
        assert_eq!(points[0].attacker_pct, 0.0);
        assert_eq!(points[0].mean_adoption_pct, 0.0);
        assert_eq!(points[0].mean_alarms, 0.0);
        assert!(points[1].attacker_count >= 1);
    }

    #[test]
    fn sweep_has_one_point_per_fraction() {
        let graph = PaperTopology::As25.graph();
        let config = SweepConfig::quick();
        let points = run_sweep(graph, &config, Exec::serial()).0;
        assert_eq!(points.len(), config.attacker_fractions.len());
        for p in &points {
            assert!(p.attacker_count >= 1);
            assert!(p.mean_adoption_pct >= 0.0);
            assert!(p.mean_adoption_pct <= 100.0);
        }
    }

    #[test]
    fn sweeps_are_deterministic() {
        let graph = PaperTopology::As25.graph();
        let config = SweepConfig::quick();
        assert_eq!(
            run_sweep(graph, &config, Exec::serial()).0,
            run_sweep(graph, &config, Exec::serial()).0
        );
    }

    #[test]
    fn metrics_sweep_counts_every_planned_trial() {
        let graph = PaperTopology::As25.graph();
        let config = SweepConfig::quick();
        let (_, plain_snapshot) = run_sweep(graph, &config, Exec::serial());
        assert!(plain_snapshot.is_empty(), "no metrics unless asked");
        let (_, snap1) = run_sweep(graph, &config, Exec::serial().metrics());
        assert_eq!(
            snap1.counters["trial.count"],
            (config.attacker_fractions.len() * config.runs_per_point()) as u64
        );
        assert!(snap1.histograms["trial.convergence_ticks.origin"].count() > 0);
    }

    #[test]
    fn more_attackers_fool_more_ases_under_normal_bgp() {
        let graph = PaperTopology::As46.graph();
        let mut config = SweepConfig::quick().deployment_fraction(0.0);
        config.attacker_fractions = vec![0.04, 0.40];
        let points = run_sweep(graph, &config, Exec::serial()).0;
        assert!(
            points[1].mean_adoption_pct > points[0].mean_adoption_pct,
            "{} !> {}",
            points[1].mean_adoption_pct,
            points[0].mean_adoption_pct
        );
    }

    #[test]
    fn full_deployment_raises_alarms_and_queries() {
        let graph = PaperTopology::As25.graph();
        let mut config = SweepConfig::quick();
        config.attacker_fractions = vec![0.2];
        let points = run_sweep(graph, &config, Exec::serial()).0;
        assert!(points[0].mean_alarms > 0.0);
        assert!(points[0].mean_queries > 0.0);
    }

    #[test]
    #[should_panic(expected = "too few stubs")]
    fn sweep_panics_without_enough_stubs() {
        let mut g = AsGraph::new();
        g.add_as(Asn(1), as_topology::AsRole::Transit);
        g.add_as(Asn(2), as_topology::AsRole::Transit);
        g.add_link(Asn(1), Asn(2));
        let _ = run_sweep(&g, &SweepConfig::quick(), Exec::serial());
    }
}
