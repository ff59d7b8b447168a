//! Deterministic fault injection: per-link message perturbation and a
//! scripted timeline of timed events.
//!
//! The paper's simulations (and SSFnet, which they extend) run over clean
//! links; real BGP churn comes from lossy sessions, flapping prefixes, and
//! session resets. This module provides the *substrate* for injecting those
//! faults reproducibly: a [`LinkFaultModel`] describes how one link mangles
//! messages (drop / duplicate / extra delay / corrupt, each with its own
//! probability), and a [`FaultPlan`] bundles per-link models with a
//! [`Timeline`](TimelineEntry) of scheduled events, all driven from one
//! `u64` seed so that every run is bit-for-bit reproducible.
//!
//! The plan is generic over the link key `K` and the scheduled event type
//! `E`; the BGP engine instantiates it with `(Asn, Asn)` links and its own
//! event enum. Nothing here knows about BGP: the same machinery could drive
//! any discrete-event simulation.
//!
//! # Example
//!
//! ```
//! use sim_engine::fault::{FaultAction, FaultPlan, LinkFaultModel};
//!
//! let mut plan: FaultPlan<u32, &str> = FaultPlan::new(7);
//! plan.set_link_model(3, LinkFaultModel::lossy(0.5));
//! plan.at(10, "fail");
//! plan.every(20, 5, Some(3), "flap");
//!
//! let mut rng = sim_engine::rng::from_seed(plan.seed());
//! let model = plan.link_model(&3).unwrap();
//! // Decisions are drawn from the seeded RNG: reproducible across runs.
//! let first = model.decide(&mut rng);
//! assert!(matches!(first, FaultAction::Deliver | FaultAction::Drop));
//! ```

use std::collections::BTreeMap;

use rand::Rng;

use crate::rng::coin;

/// What a faulty link decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
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
/// [`decide`](LinkFaultModel::decide) draws coins in a **fixed priority
/// order** — drop, corrupt, duplicate, extra delay — so a model's RNG
/// consumption per message is deterministic and independent of which faults
/// are enabled elsewhere.
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
    pub fn decide<R: Rng>(&self, rng: &mut R) -> FaultAction {
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

/// One scheduled event on a fault timeline: fires at tick `at`, and — when
/// `period` is set — again every `period` ticks thereafter, `count` times in
/// total (`None` = forever).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry<E> {
    /// Absolute simulation tick of the first firing.
    pub at: u64,
    /// Ticks between repeat firings; `None` for a one-shot event.
    pub period: Option<u64>,
    /// Total number of firings for a periodic event; `None` = unbounded.
    /// Ignored for one-shot events.
    pub count: Option<u64>,
    /// The event to fire.
    pub event: E,
}

impl<E> TimelineEntry<E> {
    /// Returns `true` if the entry fires more than once.
    #[must_use]
    pub fn is_periodic(&self) -> bool {
        self.period.is_some() && self.count != Some(1)
    }
}

/// A complete, seeded fault scenario: per-link perturbation models plus a
/// timeline of scheduled events.
///
/// The plan itself is pure data — the simulation engine that consumes it
/// derives its fault RNG from [`seed`](FaultPlan::seed) and walks the
/// timeline, so two runs of the same plan over the same inputs behave
/// identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan<K, E> {
    seed: u64,
    link_models: BTreeMap<K, LinkFaultModel>,
    timeline: Vec<TimelineEntry<E>>,
}

impl<K: Ord, E> FaultPlan<K, E> {
    /// Creates an empty plan whose consumers seed their fault RNG from
    /// `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            link_models: BTreeMap::new(),
            timeline: Vec::new(),
        }
    }

    /// The seed for the consuming engine's fault RNG.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Attaches (or replaces) the fault model for one link.
    pub fn set_link_model(&mut self, link: K, model: LinkFaultModel) -> &mut Self {
        self.link_models.insert(link, model);
        self
    }

    /// Shorthand for a purely lossy link.
    pub fn lossy_link(&mut self, link: K, p: f64) -> &mut Self {
        self.set_link_model(link, LinkFaultModel::lossy(p))
    }

    /// The fault model for a link, if one is attached.
    #[must_use]
    pub fn link_model(&self, link: &K) -> Option<&LinkFaultModel> {
        self.link_models.get(link)
    }

    /// All per-link models, ordered by link key.
    pub fn link_models(&self) -> impl Iterator<Item = (&K, &LinkFaultModel)> {
        self.link_models.iter()
    }

    /// Schedules a one-shot event at tick `at`.
    pub fn at(&mut self, at: u64, event: E) -> &mut Self {
        self.timeline.push(TimelineEntry {
            at,
            period: None,
            count: None,
            event,
        });
        self
    }

    /// Schedules a periodic event: first at tick `at`, then every `period`
    /// ticks, firing `count` times in total (`None` = forever — the consumer
    /// is expected to bound the run with a watchdog or event budget).
    pub fn every(&mut self, at: u64, period: u64, count: Option<u64>, event: E) -> &mut Self {
        self.timeline.push(TimelineEntry {
            at,
            period: Some(period.max(1)),
            count,
            event,
        });
        self
    }

    /// The scheduled events, in insertion order.
    #[must_use]
    pub fn timeline(&self) -> &[TimelineEntry<E>] {
        &self.timeline
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
    use crate::rng::from_seed;

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
    fn plan_builders_accumulate() {
        let mut plan: FaultPlan<(u32, u32), &str> = FaultPlan::new(3);
        plan.lossy_link((1, 2), 0.5)
            .set_link_model((2, 3), LinkFaultModel::default())
            .at(10, "fail")
            .every(20, 5, Some(4), "flap");
        assert_eq!(plan.seed(), 3);
        assert_eq!(plan.link_models().count(), 2);
        assert_eq!(plan.timeline().len(), 2);
        assert!(plan.link_model(&(1, 2)).unwrap().is_active());
        assert!(!plan.timeline()[0].is_periodic());
        assert!(plan.timeline()[1].is_periodic());
        assert!(!plan.is_empty());
    }

    #[test]
    fn inactive_models_leave_the_plan_empty() {
        let mut plan: FaultPlan<u32, &str> = FaultPlan::new(0);
        assert!(plan.is_empty());
        plan.set_link_model(1, LinkFaultModel::default());
        assert!(plan.is_empty(), "a never-perturbing model is not a fault");
        plan.at(5, "x");
        assert!(!plan.is_empty());
    }

    #[test]
    fn period_of_zero_is_clamped_to_one() {
        let mut plan: FaultPlan<u32, u8> = FaultPlan::new(0);
        plan.every(0, 0, None, 1);
        assert_eq!(plan.timeline()[0].period, Some(1));
    }
}
