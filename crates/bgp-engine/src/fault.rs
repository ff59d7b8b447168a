//! Deterministic fault injection: per-link message perturbation and a
//! scripted timeline of BGP events.
//!
//! The paper's simulations (and SSFnet, which they extend) run over clean
//! links; real BGP churn comes from lossy sessions, flapping prefixes and
//! session resets. A [`NetFaultPlan`] describes those faults reproducibly:
//! a [`LinkFaultModel`] per undirected `(Asn, Asn)` link says how that link
//! mangles messages (drop / duplicate / extra delay / corrupt, each with its
//! own probability), and a timeline of [`FaultEvent`]s — link failures and
//! restorations, session resets, scripted originations and withdrawals,
//! periodic origin flaps — fires at absolute ticks. The whole plan derives
//! its randomness from one `u64` seed, so every run is bit-for-bit
//! reproducible.
//!
//! Install a plan with
//! [`set_fault_plan`](crate::ShardedNetwork::set_fault_plan); the network
//! validates every referenced AS and link up front and then executes the
//! plan during [`run`](crate::ShardedNetwork::run), interleaved
//! deterministically with BGP message delivery. What the links did to
//! traffic comes back as [`FaultStats`].
//!
//! # Example
//!
//! ```
//! use as_topology::{AsGraph, AsRole};
//! use bgp_engine::{FaultEvent, NetFaultPlan, Network};
//! use bgp_types::Asn;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = AsGraph::new();
//! g.add_as(Asn(1), AsRole::Stub);
//! g.add_as(Asn(2), AsRole::Transit);
//! g.add_as(Asn(3), AsRole::Transit);
//! g.add_link(Asn(1), Asn(2));
//! g.add_link(Asn(2), Asn(3));
//!
//! let mut plan = NetFaultPlan::new(7);
//! plan.lossy_link((Asn(2), Asn(3)), 0.5);
//! plan.at(10, FaultEvent::ResetSession(Asn(1), Asn(2)));
//!
//! let mut net = Network::new(&g);
//! net.set_fault_plan(plan)?;
//! net.originate(Asn(1), "208.8.0.0/16".parse()?, None);
//! net.run()?;
//! // The seeded link model decided every message's fate on 2 <-> 3.
//! let lossy = net.fault_stats_total();
//! assert!(lossy.delivered + lossy.dropped > 0);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;

use bgp_types::rng::coin;
use bgp_types::{Asn, Ipv4Prefix, Route};
use rand::Rng;

/// What a faulty link decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Deliver the message normally.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Deliver after this many extra ticks of delay (models reordering:
    /// a later message on the same link can overtake this one).
    Delay(u64),
    /// Deliver a corrupted copy. The receiver is expected to detect the
    /// damage, discard the message, and count it.
    Corrupt,
}

/// Per-link message perturbation probabilities.
///
/// The engine draws coins in a **fixed priority order** — drop, corrupt,
/// duplicate, extra delay — so a model's RNG consumption per message is
/// deterministic and independent of which faults are enabled elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultModel {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a message arrives corrupted (receiver drops and counts).
    pub corrupt: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is held back by extra delay.
    pub reorder: f64,
    /// Extra delay drawn uniformly from `1..=max_extra_delay` when the
    /// reorder coin comes up. Values below 1 are treated as 1.
    pub max_extra_delay: u64,
}

impl Default for LinkFaultModel {
    /// A fault model that never perturbs anything.
    fn default() -> Self {
        LinkFaultModel {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            max_extra_delay: 1,
        }
    }
}

impl LinkFaultModel {
    /// A purely lossy link: drops each message with probability `p`.
    #[must_use]
    pub fn lossy(p: f64) -> Self {
        LinkFaultModel {
            drop: p,
            ..LinkFaultModel::default()
        }
    }

    /// Returns `true` if this model can ever perturb a message.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.corrupt > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0
    }

    /// Decides the fate of one message, consuming randomness from `rng`.
    ///
    /// Exactly one coin is drawn per enabled fault class until one fires
    /// (drop → corrupt → duplicate → reorder); disabled classes (probability
    /// zero) draw nothing, so RNG streams stay aligned with the model's
    /// configuration and nothing else.
    pub(crate) fn decide<R: Rng>(&self, rng: &mut R) -> FaultAction {
        if self.drop > 0.0 && coin(rng, self.drop) {
            return FaultAction::Drop;
        }
        if self.corrupt > 0.0 && coin(rng, self.corrupt) {
            return FaultAction::Corrupt;
        }
        if self.duplicate > 0.0 && coin(rng, self.duplicate) {
            return FaultAction::Duplicate;
        }
        if self.reorder > 0.0 && coin(rng, self.reorder) {
            let extra = rng.gen_range(1..=self.max_extra_delay.max(1));
            return FaultAction::Delay(extra);
        }
        FaultAction::Deliver
    }
}

/// Counters of what a faulty link actually did to traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages passed through untouched.
    pub delivered: u64,
    /// Messages silently dropped by the link model.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back by extra delay.
    pub reordered: u64,
    /// Messages delivered corrupted (and discarded by the receiver).
    pub corrupted: u64,
    /// Messages lost because the link (or its session) was down or had been
    /// reset while they were in flight.
    pub dropped_link_down: u64,
}

impl FaultStats {
    /// Total messages the model touched in any way.
    #[must_use]
    pub fn perturbed(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered + self.corrupted
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.corrupted += other.corrupted;
        self.dropped_link_down += other.dropped_link_down;
    }
}

/// A scripted network event on a fault timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Tear down the link between two ASes (see
    /// [`ShardedNetwork::fail_link`](crate::ShardedNetwork::fail_link)).
    FailLink(Asn, Asn),
    /// Restore a previously failed link (see
    /// [`ShardedNetwork::restore_link`](crate::ShardedNetwork::restore_link)).
    RestoreLink(Asn, Asn),
    /// Reset the BGP session between two peers: both sides implicitly
    /// withdraw what they learned over it, then re-establish and re-announce
    /// (see [`ShardedNetwork::reset_session`](crate::ShardedNetwork::reset_session)).
    ResetSession(Asn, Asn),
    /// Make an AS originate a route (the path should be empty; the router
    /// prepends its own ASN on export). Models scripted originations such as
    /// a backup origin coming online or an attacker injecting a forged route
    /// mid-churn.
    Announce {
        /// The originating AS.
        asn: Asn,
        /// The route to originate.
        route: Route,
    },
    /// Make an AS stop originating a prefix.
    Withdraw {
        /// The withdrawing AS.
        asn: Asn,
        /// The prefix to withdraw.
        prefix: Ipv4Prefix,
    },
    /// Flap an origination: withdraw the route's prefix if `asn` currently
    /// originates it, otherwise originate the route. Scheduled periodically,
    /// this is a route flap; with MRAI disabled and no firing bound it is a
    /// flap storm that only the convergence watchdog terminates.
    ToggleOrigin {
        /// The flapping AS.
        asn: Asn,
        /// The route toggled on and off.
        route: Route,
    },
}

impl FaultEvent {
    /// Every AS this event references, for install-time validation.
    pub(crate) fn actors(&self) -> impl Iterator<Item = Asn> + '_ {
        let (a, b) = match self {
            FaultEvent::FailLink(a, b)
            | FaultEvent::RestoreLink(a, b)
            | FaultEvent::ResetSession(a, b) => (*a, Some(*b)),
            FaultEvent::Announce { asn, .. }
            | FaultEvent::Withdraw { asn, .. }
            | FaultEvent::ToggleOrigin { asn, .. } => (*asn, None),
        };
        std::iter::once(a).chain(b)
    }
}

/// One scheduled event on a fault timeline: fires at tick `at`, and — when
/// `period` is set — again every `period` ticks thereafter, `count` times in
/// total (`None` = forever).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TimelineEntry {
    /// Absolute simulation tick of the first firing.
    pub(crate) at: u64,
    /// Ticks between repeat firings; `None` for a one-shot event.
    pub(crate) period: Option<u64>,
    /// Total number of firings for a periodic event; `None` = unbounded.
    /// Ignored for one-shot events.
    pub(crate) count: Option<u64>,
    /// The event to fire.
    pub(crate) event: FaultEvent,
}

/// A complete, seeded fault scenario over BGP links: per-link perturbation
/// models keyed by undirected `(Asn, Asn)` pairs (order does not matter —
/// the network normalizes and applies the model to both directions) plus a
/// timeline of [`FaultEvent`]s.
///
/// The plan itself is pure data — the network that installs it derives its
/// per-edge fault RNGs from the plan's seed and walks the timeline, so two
/// runs of the same plan over the same inputs behave identically.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Seeds the per-edge message-fate RNGs.
    pub(crate) seed: u64,
    /// Per-link models, ordered by link key.
    pub(crate) link_models: BTreeMap<(Asn, Asn), LinkFaultModel>,
    /// The scheduled events, in insertion order.
    pub(crate) timeline: Vec<TimelineEntry>,
}

impl NetFaultPlan {
    /// Creates an empty plan whose link models draw from RNGs seeded by
    /// `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            link_models: BTreeMap::new(),
            timeline: Vec::new(),
        }
    }

    /// Attaches (or replaces) the fault model for one link.
    pub fn set_link_model(&mut self, link: (Asn, Asn), model: LinkFaultModel) -> &mut Self {
        self.link_models.insert(link, model);
        self
    }

    /// Shorthand for a purely lossy link.
    pub fn lossy_link(&mut self, link: (Asn, Asn), p: f64) -> &mut Self {
        self.set_link_model(link, LinkFaultModel::lossy(p))
    }

    /// Schedules a one-shot event at tick `at`.
    pub fn at(&mut self, at: u64, event: FaultEvent) -> &mut Self {
        self.timeline.push(TimelineEntry {
            at,
            period: None,
            count: None,
            event,
        });
        self
    }

    /// Schedules a periodic event: first at tick `at`, then every `period`
    /// ticks, firing `count` times in total (`None` = forever — bound the
    /// run with the watchdog or an event budget).
    pub fn every(
        &mut self,
        at: u64,
        period: u64,
        count: Option<u64>,
        event: FaultEvent,
    ) -> &mut Self {
        self.timeline.push(TimelineEntry {
            at,
            period: Some(period.max(1)),
            count,
            event,
        });
        self
    }

    /// Returns `true` if the plan perturbs nothing and schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty() && !self.link_models.values().any(LinkFaultModel::is_active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::rng::from_seed;
    use bgp_types::AsPath;

    fn route() -> Route {
        Route::new("10.0.0.0/16".parse().unwrap(), AsPath::new())
    }

    #[test]
    fn default_model_always_delivers() {
        let model = LinkFaultModel::default();
        let mut rng = from_seed(1);
        assert!(!model.is_active());
        for _ in 0..64 {
            assert_eq!(model.decide(&mut rng), FaultAction::Deliver);
        }
    }

    #[test]
    fn decisions_are_reproducible_from_the_seed() {
        let model = LinkFaultModel {
            drop: 0.2,
            corrupt: 0.1,
            duplicate: 0.1,
            reorder: 0.3,
            max_extra_delay: 5,
        };
        let run = |seed| {
            let mut rng = from_seed(seed);
            (0..256).map(|_| model.decide(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn certain_drop_always_drops() {
        let model = LinkFaultModel::lossy(1.0);
        let mut rng = from_seed(9);
        for _ in 0..16 {
            assert_eq!(model.decide(&mut rng), FaultAction::Drop);
        }
    }

    #[test]
    fn all_fault_classes_are_reachable() {
        let model = LinkFaultModel {
            drop: 0.25,
            corrupt: 0.25,
            duplicate: 0.25,
            reorder: 0.5,
            max_extra_delay: 3,
        };
        let mut rng = from_seed(5);
        let mut seen_drop = false;
        let mut seen_corrupt = false;
        let mut seen_dup = false;
        let mut seen_delay = false;
        let mut seen_deliver = false;
        for _ in 0..1024 {
            match model.decide(&mut rng) {
                FaultAction::Drop => seen_drop = true,
                FaultAction::Corrupt => seen_corrupt = true,
                FaultAction::Duplicate => seen_dup = true,
                FaultAction::Delay(d) => {
                    assert!((1..=3).contains(&d));
                    seen_delay = true;
                }
                FaultAction::Deliver => seen_deliver = true,
            }
        }
        assert!(seen_drop && seen_corrupt && seen_dup && seen_delay && seen_deliver);
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let model = LinkFaultModel::lossy(0.3);
        let mut rng = from_seed(11);
        let dropped = (0..10_000)
            .filter(|_| model.decide(&mut rng) == FaultAction::Drop)
            .count();
        assert!((2_500..3_500).contains(&dropped), "dropped = {dropped}");
    }

    #[test]
    fn stats_merge_and_perturbed() {
        let mut a = FaultStats {
            delivered: 10,
            dropped: 1,
            duplicated: 2,
            reordered: 3,
            corrupted: 4,
            dropped_link_down: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.delivered, 20);
        assert_eq!(a.perturbed(), 20);
        assert_eq!(a.dropped_link_down, 10);
    }

    #[test]
    fn actors_cover_both_link_endpoints() {
        let actors: Vec<Asn> = FaultEvent::FailLink(Asn(1), Asn(2)).actors().collect();
        assert_eq!(actors, vec![Asn(1), Asn(2)]);
        let actors: Vec<Asn> = FaultEvent::ResetSession(Asn(3), Asn(4)).actors().collect();
        assert_eq!(actors, vec![Asn(3), Asn(4)]);
    }

    #[test]
    fn actors_cover_single_as_events() {
        let announce = FaultEvent::Announce {
            asn: Asn(5),
            route: route(),
        };
        assert_eq!(announce.actors().collect::<Vec<_>>(), vec![Asn(5)]);
        let toggle = FaultEvent::ToggleOrigin {
            asn: Asn(6),
            route: route(),
        };
        assert_eq!(toggle.actors().collect::<Vec<_>>(), vec![Asn(6)]);
        let withdraw = FaultEvent::Withdraw {
            asn: Asn(7),
            prefix: "10.0.0.0/16".parse().unwrap(),
        };
        assert_eq!(withdraw.actors().collect::<Vec<_>>(), vec![Asn(7)]);
    }

    #[test]
    fn plan_builders_accumulate() {
        let toggle = FaultEvent::ToggleOrigin {
            asn: Asn(3),
            route: route(),
        };
        let mut plan = NetFaultPlan::new(3);
        plan.lossy_link((Asn(1), Asn(2)), 0.5)
            .set_link_model((Asn(2), Asn(3)), LinkFaultModel::default())
            .at(10, FaultEvent::FailLink(Asn(1), Asn(2)))
            .every(20, 5, Some(4), toggle.clone());
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.link_models.len(), 2);
        assert!(plan.link_models[&(Asn(1), Asn(2))].is_active());
        assert_eq!(
            plan.timeline,
            [
                TimelineEntry {
                    at: 10,
                    period: None,
                    count: None,
                    event: FaultEvent::FailLink(Asn(1), Asn(2)),
                },
                TimelineEntry {
                    at: 20,
                    period: Some(5),
                    count: Some(4),
                    event: toggle,
                },
            ]
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn inactive_models_leave_the_plan_empty() {
        let mut plan = NetFaultPlan::new(0);
        assert!(plan.is_empty());
        plan.set_link_model((Asn(1), Asn(2)), LinkFaultModel::default());
        assert!(plan.is_empty(), "a never-perturbing model is not a fault");
        plan.at(5, FaultEvent::ResetSession(Asn(1), Asn(2)));
        assert!(!plan.is_empty());
    }

    #[test]
    fn period_of_zero_is_clamped_to_one() {
        let mut plan = NetFaultPlan::new(0);
        plan.every(0, 0, None, FaultEvent::ResetSession(Asn(1), Asn(2)));
        assert_eq!(plan.timeline[0].period, Some(1));
    }
}
