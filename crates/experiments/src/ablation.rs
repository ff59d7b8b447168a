//! Ablations probing the §4.3 limitations and design choices.

use as_topology::{AsGraph, AsRelationships, InternetModel};
use bgp_engine::{CommunityPolicy, CommunityPolicyMap, ForwardingPlane, ValleyFree};
use bgp_types::{Asn, MoasList};
use minimetrics::{MetricsSink, MetricsSnapshot, Scoped};
use moas_core::{
    Deployment, FalseOriginAttack, ListForgery, MoasConfig, MoasMonitor, RegistryVerifier,
    SubPrefixHijack, UnresolvedPolicy,
};

use crate::exec::{Cell, Exec, Layout};
use crate::score::{census, Census};
use crate::stats::{mean, mean_by};
use crate::trial::{
    draw_parties, run_trials, trial_on, TrialConfig, TrialOutcome, CONVERGES, MAX_LINK_DELAY,
};

/// Outcome of the sub-prefix hijack ablation on one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct SubPrefixAblation {
    /// Mean % of remaining ASes whose best route for the *hijacked
    /// sub-prefix* points at the attacker, under full MOAS deployment.
    pub subprefix_adoption_pct: f64,
    /// Mean % adopting the false route when the attacker instead announces
    /// the exact victim prefix (same runs, same full deployment).
    pub exact_prefix_adoption_pct: f64,
    /// Mean alarms raised during the sub-prefix runs (expected: 0 — the
    /// mechanism never sees a conflict).
    pub subprefix_alarms: f64,
    /// Mean % of ASes whose *data-plane traffic* to an address inside the
    /// hijacked half lands at the attacker (longest-match forwarding over
    /// the converged FIBs). This is the §4.3 damage the control-plane census
    /// cannot see.
    pub subprefix_traffic_capture_pct: f64,
}

/// The §4.3 boundary: full MOAS deployment against a more-specific-prefix
/// hijacker. Expected result — reproduced here — is that detection never
/// fires and the hijack succeeds everywhere, while the same attacker
/// announcing the exact prefix is caught.
///
/// Run `r` seeds its own RNG from `(seed, r)` and runs under `exec`; report
/// and snapshot (the metrics of every network the study builds, under the
/// `subprefix.` prefix; empty unless `exec.metrics`) are bit-identical for
/// every `exec.jobs` and every `exec.shards`.
#[must_use]
pub fn subprefix_ablation(
    graph: &AsGraph,
    runs: usize,
    seed: u64,
    exec: Exec,
) -> (SubPrefixAblation, MetricsSnapshot) {
    struct Runs<'a> {
        graph: &'a AsGraph,
        stubs: Vec<Asn>,
        seed: u64,
    }
    impl Cell for Runs<'_> {
        /// One run's (sub adoption, alarms, traffic, exact).
        type Out = [f64; 4];
        fn run<S: MetricsSink>(&self, layout: Layout, run: usize, sink: &mut S) -> Self::Out {
            let sink = &mut Scoped::new(sink, "subprefix");
            let graph = self.graph;
            let victim_prefix = crate::victim_prefix();
            let run_seed = bgp_types::rng::derive_seed(self.seed, run as u64);
            let mut rng = bgp_types::rng::from_seed(run_seed);
            let picked = bgp_types::rng::sample_distinct(&mut rng, &self.stubs, 2);
            let (victim, attacker) = (picked[0], picked[1]);
            let valid_list = MoasList::implicit(victim);

            // Sub-prefix run: attacker announces the more-specific half.
            let mut net = layout.build(graph, run_seed, MAX_LINK_DELAY, || {
                let mut registry = RegistryVerifier::new();
                registry.register(victim_prefix, valid_list.clone());
                MoasMonitor::full(registry)
            });
            net.originate(victim, victim_prefix, Some(valid_list.clone()));
            let sub = SubPrefixHijack::new().launch(&mut net, attacker, victim_prefix);
            net.run().expect(CONVERGES);
            if S::ENABLED {
                net.export_metrics(sink);
            }

            let Census { eligible, adopted } =
                census(graph.asns(), &[attacker], |a| net.best_origin(a, sub));
            let adoption = 100.0 * adopted as f64 / eligible as f64;
            let alarms = net.monitors().map(|m| m.alarms().len()).sum::<usize>() as f64;

            // Data plane: where do packets addressed inside the hijacked half go?
            let plane = ForwardingPlane::snapshot(&net);
            let exclude = std::collections::BTreeSet::from([attacker]);
            let (_, to_attacker_or_other, _) =
                plane.capture_census(sub.network(), victim, &exclude);
            let traffic = 100.0 * to_attacker_or_other as f64 / eligible as f64;

            // Exact-prefix control run with the same parties.
            let control = TrialConfig {
                seed: run_seed,
                ..TrialConfig::new(vec![victim], vec![attacker], Deployment::Full)
            };
            let outcome = trial_on(layout, graph, &control, sink);
            let exact = 100.0 * outcome.adoption_fraction();

            [adoption, alarms, traffic, exact]
        }
    }
    let cell = Runs {
        graph,
        stubs: graph.stub_asns(),
        seed,
    };
    let (samples, snapshot) = exec.run_cells(runs, &cell);

    let column = |i: usize| samples.iter().map(|s| s[i]).collect::<Vec<f64>>();
    let report = SubPrefixAblation {
        subprefix_adoption_pct: mean(&column(0)),
        exact_prefix_adoption_pct: mean(&column(3)),
        subprefix_alarms: mean(&column(1)),
        subprefix_traffic_capture_pct: mean(&column(2)),
    };
    (report, snapshot)
}

/// Outcome of the valley-free policy-routing ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ValleyFreePoint {
    /// `"policy-free"` (the paper's model) or `"valley-free"`.
    pub routing: String,
    /// Mean % adoption under Normal BGP (no detection).
    pub normal_adoption_pct: f64,
    /// Mean % adoption under full MOAS detection.
    pub moas_adoption_pct: f64,
    /// Mean advertisements suppressed by the export policy per run.
    pub mean_suppressed: f64,
}

/// Evaluates the MOAS mechanism under Gao-Rexford policy routing — the
/// realism the paper's simulation abstracts away. Valley-free export
/// restricts where both valid *and* false routes travel, so this measures
/// whether the paper's conclusions survive policy routing.
///
/// Runs on a fresh `InternetModel` ground-truth topology (policy routing
/// needs the relationship annotations, which the §5.1 sampling pipeline does
/// not preserve).
///
/// Each of the `2 × runs` `(routing policy, run)` cells seeds its own RNG
/// from `(seed, run, policy)` and runs under `exec`; the per-policy
/// aggregates fold cell results in run order. Points and snapshot (under
/// the `valley_free.` prefix; empty unless `exec.metrics`) are
/// bit-identical for every `exec.jobs` and every `exec.shards`.
#[must_use]
pub fn valley_free_ablation(
    runs: usize,
    seed: u64,
    exec: Exec,
) -> (Vec<ValleyFreePoint>, MetricsSnapshot) {
    struct Cells {
        graph: AsGraph,
        rels: AsRelationships,
        runs: usize,
        seed: u64,
    }
    impl Cell for Cells {
        /// Adoption % and suppressed ads, per deployment (none, full).
        type Out = ([f64; 2], [f64; 2]);
        // Cell i: policy_on = i / runs, run = i % runs. Each cell simulates
        // both deployments.
        fn run<S: MetricsSink>(&self, layout: Layout, i: usize, sink: &mut S) -> Self::Out {
            let sink = &mut Scoped::new(sink, "valley_free");
            let graph = &self.graph;
            let prefix = crate::victim_prefix();
            let policy_on = i >= self.runs;
            let run = i % self.runs;
            let run_seed =
                bgp_types::rng::derive_seed(self.seed, (run * 2 + usize::from(policy_on)) as u64);
            let (origins, attackers) = draw_parties(graph, run_seed, 1, 3);
            let victim = origins[0];
            let valid = MoasList::implicit(victim);

            let (mut adoption, mut suppressed) = ([0.0; 2], [0.0; 2]);
            for (di, deployment) in [Deployment::None, Deployment::Full].into_iter().enumerate() {
                let mut net = layout.build(graph, run_seed, MAX_LINK_DELAY, || {
                    let mut registry = RegistryVerifier::new();
                    registry.register(prefix, valid.clone());
                    let monitor = MoasMonitor::new(
                        MoasConfig {
                            deployment: deployment.clone(),
                            ..MoasConfig::default()
                        },
                        registry,
                    );
                    let rels = if policy_on {
                        self.rels.clone()
                    } else {
                        AsRelationships::new()
                    };
                    ValleyFree::wrapping(rels, monitor)
                });
                net.originate(victim, prefix, Some(valid.clone()));
                net.run().expect(CONVERGES);
                let attack = FalseOriginAttack::new(ListForgery::IncludeSelf);
                for &attacker in &attackers {
                    attack.launch(&mut net, attacker, prefix, &valid);
                }
                net.run().expect(CONVERGES);
                if S::ENABLED {
                    net.export_metrics(sink);
                }

                let Census { eligible, adopted } =
                    census(graph.asns(), &attackers, |a| net.best_origin(a, prefix));
                adoption[di] = 100.0 * adopted as f64 / eligible as f64;
                suppressed[di] = net
                    .monitors()
                    .map(ValleyFree::suppressed_count)
                    .sum::<u64>() as f64;
            }
            (adoption, suppressed)
        }
    }
    let (graph, rels) = InternetModel::new()
        .transit_count(15)
        .stub_count(60)
        .build_with_relationships(seed);
    let cell = Cells {
        graph,
        rels,
        runs,
        seed,
    };
    let (cells, snapshot) = exec.run_cells(2 * runs, &cell);

    let mut out = Vec::new();
    for policy_on in [false, true] {
        let offset = if policy_on { runs } else { 0 };
        let policy_cells = &cells[offset..offset + runs];
        let normal: Vec<f64> = policy_cells.iter().map(|c| c.0[0]).collect();
        let moas: Vec<f64> = policy_cells.iter().map(|c| c.0[1]).collect();
        // The serial loop pushed suppression counts per deployment within
        // each run; keep that interleaving for the fold.
        let suppressed: Vec<f64> = policy_cells.iter().flat_map(|c| c.1).collect();
        out.push(ValleyFreePoint {
            routing: if policy_on {
                "valley-free"
            } else {
                "policy-free"
            }
            .into(),
            normal_adoption_pct: mean(&normal),
            moas_adoption_pct: mean(&moas),
            mean_suppressed: mean(&suppressed),
        });
    }
    (out, snapshot)
}

/// Outcome of the list-forgery ablation for one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct ForgeryPoint {
    /// The strategy, as a display string.
    pub forgery: String,
    /// Mean % of remaining ASes adopting the false route (full deployment).
    pub mean_adoption_pct: f64,
    /// Mean alarms per run.
    pub mean_alarms: f64,
}

/// The forgery strategies [`forgery_ablation`] compares, in output order.
const FORGERIES: [ListForgery; 3] = [
    ListForgery::None,
    ListForgery::IncludeSelf,
    ListForgery::CopyValid,
];

/// The shared shape of the trial-based studies: `variants × runs` full-
/// deployment trials where run `r` of every variant faces the same parties
/// (two origin stubs, so valid announcements carry a meaningful list, and
/// `attackers` others, all drawn from `(seed, r)`) and `configure` applies
/// the variant under study. Trial `variant * runs + run` is planned
/// serially, run under `exec` with metric keys prefixed `"{scope}."`, and
/// returned in plan order.
fn variant_study(
    graph: &AsGraph,
    (variants, runs): (usize, usize),
    seed: u64,
    attackers: usize,
    scope: &str,
    exec: Exec,
    configure: impl Fn(usize, TrialConfig) -> TrialConfig,
) -> (Vec<TrialOutcome>, MetricsSnapshot) {
    let parties: Vec<TrialConfig> = (0..runs)
        .map(|run| {
            let run_seed = bgp_types::rng::derive_seed(seed, run as u64);
            let (origins, attackers) = draw_parties(graph, run_seed, 2, attackers);
            TrialConfig {
                seed: run_seed,
                ..TrialConfig::new(origins, attackers, Deployment::Full)
            }
        })
        .collect();
    let mut trials = Vec::with_capacity(variants * runs);
    for variant in 0..variants {
        for trial in &parties {
            trials.push(configure(variant, trial.clone()));
        }
    }
    run_trials(graph, &trials, Some(scope), exec)
}

/// Compares attacker list-forgery strategies under full deployment: none of
/// them should beat the mechanism, but they trip different checks
/// (implicit-list mismatch, superset mismatch, origin-not-in-list).
///
/// Points and snapshot (network metrics under the `forgery.` prefix; empty
/// unless `exec.metrics`) are bit-identical for every `exec.jobs` and every
/// `Some(shards)`.
#[must_use]
pub fn forgery_ablation(
    graph: &AsGraph,
    runs: usize,
    seed: u64,
    exec: Exec,
) -> (Vec<ForgeryPoint>, MetricsSnapshot) {
    let (outcomes, snapshot) = variant_study(
        graph,
        (FORGERIES.len(), runs),
        seed,
        3,
        "forgery",
        exec,
        |variant, trial| TrialConfig {
            forgery: FORGERIES[variant],
            ..trial
        },
    );
    let points = FORGERIES
        .iter()
        .enumerate()
        .map(|(vx, forgery)| {
            let of_variant = &outcomes[vx * runs..(vx + 1) * runs];
            ForgeryPoint {
                forgery: forgery.to_string(),
                mean_adoption_pct: mean_by(of_variant, |o| 100.0 * o.adoption_fraction()),
                mean_alarms: mean_by(of_variant, |o| o.alarms as f64),
            }
        })
        .collect();
    (points, snapshot)
}

/// Compares the two unresolved-verification policies when the verifier is
/// empty (no `MOASRR` record published): conservative `Accept` keeps
/// reachability but loses protection; `RejectIncoming` keeps protection at
/// the risk of rejecting valid routes on false alarms.
///
/// The `2 × runs` `(policy, run)` cells run under `exec`; per-policy
/// aggregates fold in run order. Points and snapshot (under the
/// `unresolved.` prefix; empty unless `exec.metrics`) are bit-identical for
/// every `exec.jobs` and every `exec.shards`.
#[must_use]
pub fn unresolved_policy_ablation(
    graph: &AsGraph,
    runs: usize,
    seed: u64,
    exec: Exec,
) -> (Vec<(String, f64)>, MetricsSnapshot) {
    const POLICIES: [UnresolvedPolicy; 2] =
        [UnresolvedPolicy::Accept, UnresolvedPolicy::RejectIncoming];
    struct Cells<'a> {
        graph: &'a AsGraph,
        runs: usize,
        seed: u64,
    }
    impl Cell for Cells<'_> {
        /// The run's adoption percentage.
        type Out = f64;
        // Cell i: policy index i / runs, run = i % runs. The run seed
        // depends only on the run, so both policies face the same parties.
        fn run<S: MetricsSink>(&self, layout: Layout, i: usize, sink: &mut S) -> Self::Out {
            let sink = &mut Scoped::new(sink, "unresolved");
            let graph = self.graph;
            let (policy, run) = (POLICIES[i / self.runs], i % self.runs);
            let run_seed = bgp_types::rng::derive_seed(self.seed, run as u64);
            let (origins, attackers) = draw_parties(graph, run_seed, 1, 2);
            let prefix = crate::victim_prefix();
            let valid_list: MoasList = origins.iter().copied().collect();
            let mut net = layout.build(graph, run_seed, MAX_LINK_DELAY, || {
                // Empty registry: every conflict is unresolved.
                MoasMonitor::new(
                    MoasConfig {
                        deployment: Deployment::Full,
                        on_unresolved: policy,
                        ..MoasConfig::default()
                    },
                    RegistryVerifier::new(),
                )
            });
            for &origin in &origins {
                net.originate(origin, prefix, Some(valid_list.clone()));
            }
            let attack = FalseOriginAttack::new(ListForgery::IncludeSelf);
            for &attacker in &attackers {
                attack.launch(&mut net, attacker, prefix, &valid_list);
            }
            net.run().expect(CONVERGES);
            if S::ENABLED {
                net.export_metrics(sink);
            }
            let Census { eligible, adopted } =
                census(graph.asns(), &attackers, |a| net.best_origin(a, prefix));
            100.0 * adopted as f64 / eligible as f64
        }
    }
    let cell = Cells { graph, runs, seed };
    let (cells, snapshot) = exec.run_cells(POLICIES.len() * runs, &cell);

    let points = POLICIES
        .iter()
        .enumerate()
        .map(|(px, policy)| {
            let label = match policy {
                UnresolvedPolicy::Accept => "accept-on-unresolved",
                UnresolvedPolicy::RejectIncoming => "reject-on-unresolved",
            };
            (label.to_string(), mean(&cells[px * runs..(px + 1) * runs]))
        })
        .collect();
    (points, snapshot)
}

/// Outcome of the community-policy ablation for one Krenc-style class.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityPolicyPoint {
    /// The policy class every transit AS applied, as a display string.
    pub policy: String,
    /// Mean % of remaining ASes adopting the false route (full deployment).
    pub mean_adoption_pct: f64,
    /// Mean dropped-list false alarms per run.
    pub mean_false_alarms: f64,
    /// Mean verifier-confirmed alarms per run.
    pub mean_confirmed_alarms: f64,
}

/// The §4.3 community-dropping hazard over the Krenc et al. community
/// handling classes: every transit AS applies one [`CommunityPolicy`] class
/// on export (`propagate`, `strip-moas`, `strip-all`, `rewrite`), and each
/// class replays the same parties. Expect `propagate` to stay clean,
/// the stripping classes to trade false alarms for unchanged protection
/// (the §4.3 claim), and `rewrite` to behave like `strip-all` for MOAS
/// purposes — the marker community replaces the list.
///
/// Points and snapshot (network metrics under the `community_policy.`
/// prefix; empty unless `exec.metrics`) are bit-identical for every
/// `exec.jobs` and every `Some(shards)`.
#[must_use]
pub fn community_policy_ablation(
    graph: &AsGraph,
    runs: usize,
    seed: u64,
    exec: Exec,
) -> (Vec<CommunityPolicyPoint>, MetricsSnapshot) {
    let transit = graph.transit_asns();
    let (outcomes, snapshot) = variant_study(
        graph,
        (CommunityPolicy::ALL.len(), runs),
        seed,
        2,
        "community_policy",
        exec,
        |variant, trial| {
            let mut policies = CommunityPolicyMap::new();
            for &asn in &transit {
                policies.set(asn, CommunityPolicy::ALL[variant]);
            }
            TrialConfig { policies, ..trial }
        },
    );
    let points = CommunityPolicy::ALL
        .iter()
        .enumerate()
        .map(|(vx, policy)| {
            let of_variant = &outcomes[vx * runs..(vx + 1) * runs];
            CommunityPolicyPoint {
                policy: policy.to_string(),
                mean_adoption_pct: mean_by(of_variant, |o| 100.0 * o.adoption_fraction()),
                mean_false_alarms: mean_by(of_variant, |o| o.false_alarms as f64),
                mean_confirmed_alarms: mean_by(of_variant, |o| o.confirmed_alarms as f64),
            }
        })
        .collect();
    (points, snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_topology::paper::PaperTopology;

    #[test]
    fn subprefix_hijack_beats_moas_but_exact_does_not() {
        let graph = PaperTopology::As25.graph();
        let result = subprefix_ablation(graph, 3, 11, Exec::serial()).0;
        assert_eq!(result.subprefix_alarms, 0.0, "no conflict is ever visible");
        assert!(
            result.subprefix_adoption_pct > 90.0,
            "hijack should win everywhere, got {:.1}%",
            result.subprefix_adoption_pct
        );
        assert!(
            result.exact_prefix_adoption_pct < result.subprefix_adoption_pct,
            "exact-prefix attack must fare worse under detection"
        );
    }

    #[test]
    fn every_forgery_is_contained() {
        let graph = PaperTopology::As25.graph();
        let points = forgery_ablation(graph, 3, 17, Exec::serial()).0;
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.mean_alarms > 0.0, "{} raised no alarms", p.forgery);
            assert!(
                p.mean_adoption_pct < 20.0,
                "{} adoption {:.1}%",
                p.forgery,
                p.mean_adoption_pct
            );
        }
    }

    #[test]
    fn valley_free_policy_does_not_break_detection() {
        let points = valley_free_ablation(3, 23, Exec::serial()).0;
        assert_eq!(points.len(), 2);
        let policy_free = &points[0];
        let valley_free = &points[1];
        assert_eq!(policy_free.routing, "policy-free");
        assert_eq!(policy_free.mean_suppressed, 0.0);
        assert!(valley_free.mean_suppressed > 0.0, "policy must bite");
        // Detection keeps working under policy routing.
        assert!(
            valley_free.moas_adoption_pct < valley_free.normal_adoption_pct,
            "valley-free: {:.1}% !< {:.1}%",
            valley_free.moas_adoption_pct,
            valley_free.normal_adoption_pct
        );
        assert!(policy_free.moas_adoption_pct < policy_free.normal_adoption_pct);
    }

    #[test]
    fn subprefix_traffic_capture_exceeds_control_plane_view() {
        let graph = PaperTopology::As25.graph();
        let result = subprefix_ablation(graph, 3, 11, Exec::serial()).0;
        // The data plane confirms the §4.3 damage: traffic inside the
        // hijacked half is captured at (at least) the rate the control
        // plane shows for the sub-prefix itself.
        assert!(
            result.subprefix_traffic_capture_pct >= result.subprefix_adoption_pct - 5.0,
            "traffic {:.1}% vs control {:.1}%",
            result.subprefix_traffic_capture_pct,
            result.subprefix_adoption_pct
        );
        assert!(result.subprefix_traffic_capture_pct > 90.0);
    }

    #[test]
    fn community_policies_trade_false_alarms_not_protection() {
        let graph = PaperTopology::As25.graph();
        let points = community_policy_ablation(graph, 4, 29, Exec::serial()).0;
        assert_eq!(points.len(), 4);
        let propagate = &points[0];
        assert_eq!(propagate.policy, "propagate");
        assert_eq!(
            propagate.mean_false_alarms, 0.0,
            "transparent transit drops no lists"
        );
        for point in &points[1..] {
            // §4.3 generalized: any lossy class may cry wolf, but none may
            // let the false route through.
            assert!(
                point.mean_adoption_pct <= propagate.mean_adoption_pct + 5.0,
                "{}: adoption {:.1}%",
                point.policy,
                point.mean_adoption_pct
            );
            assert!(
                point.mean_confirmed_alarms > 0.0,
                "{}: the attack must still be confirmed",
                point.policy
            );
        }
    }

    #[test]
    fn reject_policy_protects_more_when_verifier_is_blind() {
        let graph = PaperTopology::As25.graph();
        let results = unresolved_policy_ablation(graph, 3, 19, Exec::serial()).0;
        let accept = results[0].1;
        let reject = results[1].1;
        assert!(reject <= accept, "reject {reject} !<= accept {accept}");
    }
}
