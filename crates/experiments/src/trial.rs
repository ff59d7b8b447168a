//! One simulation run.

use std::collections::BTreeSet;

use as_topology::AsGraph;
use bgp_engine::{CommunityPolicies, CommunityPolicyMap};
use bgp_types::{Asn, Ipv4Prefix, MoasList};
use minimetrics::{MetricsSink, MetricsSnapshot, NoopSink, Scoped};
use moas_core::{
    Deployment, FalseOriginAttack, ListForgery, MoasConfig, MoasMonitor, OriginVerifier,
    RegistryVerifier, UnresolvedPolicy,
};

use crate::exec::{Cell, Exec, Layout};
use crate::score::{census, Census};

/// Maximum per-link message delay, in ticks, of every network the drivers
/// build (jitter explores propagation races): [`TrialConfig::new`]'s
/// default, and the bound of every chaos, ensemble and ablation run.
pub(crate) const MAX_LINK_DELAY: u64 = 4;

/// Configuration of a single run: who originates, who attacks, who checks.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Legitimate origin ASes of the victim prefix (1 or 2 in the paper).
    pub origins: Vec<Asn>,
    /// Compromised ASes that each falsely originate the victim prefix.
    pub attackers: Vec<Asn>,
    /// Which ASes run MOAS checking.
    pub deployment: Deployment,
    /// The attackers' list-forgery strategy.
    pub forgery: ListForgery,
    /// ASes that strip community attributes on export (§4.3 hazard).
    pub strippers: BTreeSet<Asn>,
    /// Per-AS community-handling classes applied on export (Krenc-style).
    /// An AS's policy runs first; the MOAS monitor then sees the
    /// policy-modified route, and `strippers` drop its list after that.
    /// Empty = everyone propagates unchanged.
    pub policies: CommunityPolicyMap,
    /// Behaviour when the verifier cannot adjudicate. A trial's registry
    /// always knows `prefix`, so no conflict stays unresolved and this field
    /// has no effect on [`run_trial`] or [`run_trial_with`].
    pub unresolved: UnresolvedPolicy,
    /// Maximum per-link message delay (jitter explores propagation races).
    pub max_link_delay: u64,
    /// RNG seed for link delays.
    pub seed: u64,
    /// The disputed prefix.
    pub prefix: Ipv4Prefix,
}

impl TrialConfig {
    /// A trial with the given parties and defaults matching §5.2: full
    /// detection semantics are governed by `deployment`; attackers attach the
    /// forged list including themselves (the strongest §4.1 adversary).
    #[must_use]
    pub fn new(origins: Vec<Asn>, attackers: Vec<Asn>, deployment: Deployment) -> Self {
        TrialConfig {
            origins,
            attackers,
            deployment,
            forgery: ListForgery::IncludeSelf,
            strippers: BTreeSet::new(),
            policies: CommunityPolicyMap::new(),
            unresolved: UnresolvedPolicy::Accept,
            max_link_delay: MAX_LINK_DELAY,
            seed: 0,
            prefix: crate::victim_prefix(),
        }
    }
}

/// What happened in one run, as counted after quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrialOutcome {
    /// Non-attacker ASes (the paper's "remaining ASes").
    pub eligible: usize,
    /// Of those, how many ended with a best route originated by an attacker.
    pub adopted_false: usize,
    /// Total alarms raised.
    pub alarms: usize,
    /// Alarms the verifier confirmed as real false origins.
    pub confirmed_alarms: usize,
    /// Alarms that turned out to be dropped-list false positives.
    pub false_alarms: usize,
    /// Verifier lookups performed (§4.4 argues this stays small).
    pub verifier_queries: u64,
    /// BGP update messages delivered.
    pub messages: u64,
}

impl TrialOutcome {
    /// Fraction of remaining ASes that adopted a false route — the Y axis of
    /// Figures 9-11.
    #[must_use]
    pub fn adoption_fraction(&self) -> f64 {
        if self.eligible == 0 {
            0.0
        } else {
            self.adopted_false as f64 / self.eligible as f64
        }
    }
}

/// Runs one trial: originate the victim prefix (with its MOAS list) from
/// every legitimate origin and run BGP to quiescence; then inject every
/// attacker's false announcement into the converged network (the paper's
/// attack model), run to quiescence again, and census who adopted which
/// origin. One shard on the calling thread, no metrics — [`run_trial_with`]
/// takes an [`Exec`].
///
/// # Panics
///
/// Panics if any origin or attacker is not in `graph`, or if the simulation
/// exceeds its (enormous) event budget.
#[must_use]
pub fn run_trial(graph: &AsGraph, config: &TrialConfig) -> TrialOutcome {
    trial_on(Layout::SERIAL, graph, config, &mut NoopSink)
}

/// [`run_trial`] under an explicit [`Exec`]: on any shard count, optionally
/// recording the trial's network metrics plus per-phase convergence-time
/// histograms (`trial.convergence_ticks.{origin,attack}`, in virtual ticks).
///
/// The outcome is [`run_trial`]'s, bit for bit, for every `exec.jobs`, every
/// `exec.shards`, and with metrics on or off.
///
/// # Panics
///
/// Same conditions as [`run_trial`].
#[must_use]
pub fn run_trial_with(
    graph: &AsGraph,
    config: &TrialConfig,
    exec: Exec,
) -> (TrialOutcome, MetricsSnapshot) {
    let (outcomes, snapshot) = run_trials(graph, std::slice::from_ref(config), None, exec);
    (outcomes[0], snapshot)
}

/// Runs already-planned trials under `exec` and returns their outcomes in
/// plan order plus the merged snapshot. With `scope`, every metric key is
/// prefixed `"{scope}."`. The shared run phase of every trial-based driver.
pub(crate) fn run_trials(
    graph: &AsGraph,
    trials: &[TrialConfig],
    scope: Option<&str>,
    exec: Exec,
) -> (Vec<TrialOutcome>, MetricsSnapshot) {
    struct Trials<'a> {
        graph: &'a AsGraph,
        trials: &'a [TrialConfig],
        scope: Option<&'a str>,
    }
    impl Cell for Trials<'_> {
        type Out = TrialOutcome;
        fn run<S: MetricsSink>(&self, layout: Layout, i: usize, sink: &mut S) -> Self::Out {
            let trial = &self.trials[i];
            match self.scope {
                Some(scope) => trial_on(layout, self.graph, trial, &mut Scoped::new(sink, scope)),
                None => trial_on(layout, self.graph, trial, sink),
            }
        }
    }
    let cell = Trials {
        graph,
        trials,
        scope,
    };
    exec.run_cells(trials.len(), &cell)
}

/// The parties of one trial, from one RNG seeded with `seed`: `origins`
/// distinct stubs of `graph`, then `attackers` distinct ASes from all the
/// others.
pub fn draw_parties(
    graph: &AsGraph,
    seed: u64,
    origins: usize,
    attackers: usize,
) -> (Vec<Asn>, Vec<Asn>) {
    let mut rng = bgp_types::rng::from_seed(seed);
    let origins = bgp_types::rng::sample_distinct(&mut rng, &graph.stub_asns(), origins);
    let candidates: Vec<Asn> = graph.asns().filter(|a| !origins.contains(a)).collect();
    let attackers = bgp_types::rng::sample_distinct(&mut rng, &candidates, attackers);
    (origins, attackers)
}

/// What every experiment network does: converge within the event budget.
pub(crate) const CONVERGES: &str = "experiment networks always converge";

/// The trial body, once, for any layout and any sink. With [`NoopSink`] the
/// instrumentation compiles away.
pub(crate) fn trial_on<S: MetricsSink>(
    layout: Layout,
    graph: &AsGraph,
    config: &TrialConfig,
    sink: &mut S,
) -> TrialOutcome {
    let valid_list: MoasList = config.origins.iter().copied().collect();

    // One monitor per shard. §4.4: the verifier knows the true origin set (oracle registry,
    // as the paper's experiments assume for "checking with DNS"). The per-AS
    // community policies wrap the MOAS monitor; with an empty map every
    // export forwards untouched, so the wrapper is a strict no-op for legacy
    // configurations.
    let monitor = || {
        let mut registry = RegistryVerifier::new();
        registry.register(config.prefix, valid_list.clone());
        CommunityPolicies::wrapping(
            config.policies.clone(),
            MoasMonitor::new(
                MoasConfig {
                    deployment: config.deployment.clone(),
                    strippers: config.strippers.clone(),
                    on_unresolved: config.unresolved,
                },
                registry,
            ),
        )
    };
    let mut net = layout.build(graph, config.seed, config.max_link_delay, monitor);

    // The paper's attack model: false announcements are injected into a
    // running network, so the valid routes converge first and the attackers
    // must displace them.
    for &origin in &config.origins {
        net.originate(origin, config.prefix, Some(valid_list.clone()));
    }
    let origin_converged = net.run().expect(CONVERGES);
    if S::ENABLED {
        sink.record("trial.convergence_ticks.origin", origin_converged.ticks());
    }
    let attack = FalseOriginAttack::new(config.forgery);
    for &attacker in &config.attackers {
        attack.launch(&mut net, attacker, config.prefix, &valid_list);
    }
    let attack_converged = net.run().expect(CONVERGES);
    if S::ENABLED {
        sink.record(
            "trial.convergence_ticks.attack",
            attack_converged
                .ticks()
                .saturating_sub(origin_converged.ticks()),
        );
        net.export_metrics(sink);
        sink.counter_add("trial.count", 1);
    }

    let Census { eligible, adopted } = census(graph.asns(), &config.attackers, |asn| {
        net.best_origin(asn, config.prefix)
    });

    // Alarms and verifier queries are observer-scoped, so summing the
    // per-monitor logs gives the same totals for any partition of the
    // observers.
    let mut outcome = TrialOutcome {
        eligible,
        adopted_false: adopted,
        messages: net.stats().total_messages(),
        ..TrialOutcome::default()
    };
    for monitor in net.monitors() {
        let alarms = monitor.inner().alarms();
        outcome.alarms += alarms.len();
        outcome.confirmed_alarms += alarms.confirmed_count();
        outcome.false_alarms += alarms.false_alarm_count();
        outcome.verifier_queries += monitor.inner().verifier().query_count();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_topology::paper::PaperTopology;
    use as_topology::InternetModel;

    fn graph() -> AsGraph {
        InternetModel::new()
            .transit_count(10)
            .stub_count(40)
            .build(5)
    }

    #[test]
    fn no_attackers_means_no_adoption_and_no_alarms() {
        let g = graph();
        let (origins, _) = draw_parties(&g, 1, 2, 0);
        let outcome = run_trial(&g, &TrialConfig::new(origins, vec![], Deployment::Full));
        assert_eq!(outcome.adopted_false, 0);
        assert_eq!(outcome.alarms, 0);
        assert_eq!(outcome.verifier_queries, 0);
        assert_eq!(outcome.eligible, g.len());
        assert!(outcome.messages > 0);
    }

    #[test]
    fn normal_bgp_lets_false_routes_spread() {
        let g = graph();
        let (origins, attackers) = draw_parties(&g, 2, 1, 5);
        let outcome = run_trial(&g, &TrialConfig::new(origins, attackers, Deployment::None));
        assert!(outcome.adopted_false > 0, "some ASes must be fooled");
        assert_eq!(outcome.alarms, 0, "nobody checks under Normal BGP");
    }

    #[test]
    fn full_deployment_suppresses_adoption() {
        let g = graph();
        let (origins, attackers) = draw_parties(&g, 2, 1, 5);
        let normal = run_trial(
            &g,
            &TrialConfig::new(origins.clone(), attackers.clone(), Deployment::None),
        );
        let protected = run_trial(&g, &TrialConfig::new(origins, attackers, Deployment::Full));
        assert!(
            protected.adopted_false < normal.adopted_false,
            "protected {} !< normal {}",
            protected.adopted_false,
            normal.adopted_false
        );
        assert!(protected.confirmed_alarms > 0);
    }

    #[test]
    fn full_deployment_with_oracle_protects_connected_ases() {
        // With full deployment, every AS that still hears the valid route
        // rejects/evicts the false one. Attackers are stubs here, so they
        // cannot cut anyone off: adoption must drop to zero.
        let g = graph();
        let mut rng = bgp_types::rng::from_seed(7);
        let stubs = g.stub_asns();
        let picked = bgp_types::rng::sample_distinct(&mut rng, &stubs, 4);
        let origins = vec![picked[0]];
        let attackers = picked[1..].to_vec();
        let outcome = run_trial(&g, &TrialConfig::new(origins, attackers, Deployment::Full));
        assert_eq!(outcome.adopted_false, 0);
    }

    #[test]
    fn trials_are_deterministic() {
        let g = PaperTopology::As25.graph();
        let (origins, attackers) = draw_parties(g, 3, 1, 3);
        let config = TrialConfig::new(origins, attackers, Deployment::Full);
        assert_eq!(run_trial(g, &config), run_trial(g, &config));
    }

    #[test]
    fn adoption_fraction_bounds() {
        let outcome = TrialOutcome {
            eligible: 40,
            adopted_false: 10,
            ..TrialOutcome::default()
        };
        assert!((outcome.adoption_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(TrialOutcome::default().adoption_fraction(), 0.0);
    }

    #[test]
    fn eligible_excludes_attackers() {
        let g = graph();
        let (origins, attackers) = draw_parties(&g, 4, 1, 6);
        let outcome = run_trial(&g, &TrialConfig::new(origins, attackers, Deployment::None));
        assert_eq!(outcome.eligible, g.len() - 6);
    }
}
