//! Differential test: the dense-RIB [`Router`](super::Router) against the
//! map-keyed [`reference`](super::reference) router it replaced.
//!
//! Both are driven with the same generated call sequence under the same
//! scripted monitor. After every call the updates they send (in order), the
//! monitor hooks they invoked (in order, arguments included) and everything
//! the read accessors report must be equal.
//!
//! The dense router selects incrementally and falls back to a full scan
//! when its incumbent gets worse or leaves (and debug builds check every
//! shortcut against the scan). The generator reaches each such case, and
//! `generator_reaches_every_fallback` checks that it does.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route, Update};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use super::reference;
use super::tests::{ByAsn, Sent};
use crate::monitor::{ExportAction, ImportContext, ImportDecision, RouteMonitor};

const LOCAL: Asn = Asn(1);
/// Named by `peer_down` / `refresh_peer` calls that miss every peer.
const STRANGER: Asn = Asn(99);

/// A monitor whose verdicts are a pure function of the hook arguments, and
/// which writes every hook call down.
#[derive(Debug, Default)]
struct Scripted {
    /// Reject routes whose origin AS is even.
    rejects: bool,
    /// Evict every held route whose origin differs from the arriving one's
    /// (what the MOAS monitor does on a conflict), the sender's included.
    evicts: bool,
    /// Suppress exports to peers with an even ASN, rewrite those to AS 5.
    filters_exports: bool,
    log: String,
}

impl RouteMonitor for Scripted {
    fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
        let _ = writeln!(
            self.log,
            "import {} <- {}: {} | {:?}",
            ctx.local, ctx.from_peer, ctx.route, ctx.existing
        );
        let origin = ctx.route.origin_as();
        let mut decision = ImportDecision::accept();
        decision.reject = self.rejects && origin.is_some_and(|asn| asn.0 % 2 == 0);
        if self.evicts {
            decision.evict_peers.push(ctx.from_peer);
            let rivals = ctx.existing.iter().filter(|(_, r)| r.origin_as() != origin);
            decision
                .evict_peers
                .extend(rivals.filter_map(|(peer, _)| peer));
            decision.evict_peers.push(STRANGER);
        }
        decision
    }

    fn on_export(
        &mut self,
        local: Asn,
        to: Asn,
        learned_from: Option<Asn>,
        route: &Route,
    ) -> ExportAction {
        let _ = writeln!(
            self.log,
            "export {local} -> {to} via {learned_from:?}: {route}"
        );
        match (self.filters_exports, to.0) {
            (true, 5) => ExportAction::Replace(route.clone().with_local_pref(7)),
            (true, asn) if asn % 2 == 0 => ExportAction::Suppress,
            _ => ExportAction::Forward,
        }
    }

    fn on_withdraw(&mut self, local: Asn, from: Asn, prefix: Ipv4Prefix) {
        let _ = writeln!(self.log, "withdraw {local} <- {from}: {prefix}");
    }
}

/// One call on the router. Peers and prefixes are indices into the case's
/// pools, taken modulo the pool size; peer index `n` names [`STRANGER`].
#[derive(Debug, Clone)]
enum Op {
    /// Originate a prefix with MOAS list number `list` ([`origination`]).
    Originate {
        prefix: usize,
        list: u8,
    },
    WithdrawOrigin(usize),
    /// An announcement whose path is the peer followed by `tail`.
    Announce {
        peer: usize,
        prefix: usize,
        tail: Vec<u32>,
        local_pref: u32,
    },
    /// Some peer's latest announcement for some prefix (whichever pair the
    /// index lands on) again, as a fresh copy.
    Repeat(usize),
    Withdraw {
        peer: usize,
        prefix: usize,
    },
    PeerDown(usize),
    RefreshPeer(usize),
}

fn op() -> impl Strategy<Value = Op> {
    // Tails draw from a small pool so equal-length rivals, shared origins
    // and looped paths (AS 1 is the router itself) all come up often.
    let tail = prop::collection::vec(prop_oneof![Just(1u32), 10u32..14], 0..4);
    let local_pref = prop_oneof![Just(100u32), Just(100u32), Just(200u32)];
    let short_tail = prop::collection::vec(10u32..14, 1..3);
    let announce = |(peer, prefix, tail, local_pref)| Op::Announce {
        peer,
        prefix,
        tail,
        local_pref,
    };
    prop_oneof![
        (0usize..3, 0u8..3).prop_map(|(prefix, list)| Op::Originate { prefix, list }),
        (0usize..3).prop_map(Op::WithdrawOrigin),
        (0usize..6, 0usize..3, tail, local_pref).prop_map(announce),
        // Loop-free, default preference, one or two hops: the shape that ties.
        (0usize..6, 0usize..3, short_tail, Just(100u32)).prop_map(announce),
        (0usize..64).prop_map(Op::Repeat),
        (0usize..6, 0usize..3).prop_map(|(peer, prefix)| Op::Withdraw { peer, prefix }),
        (0usize..7).prop_map(Op::PeerDown),
        (0usize..7).prop_map(Op::RefreshPeer),
    ]
}

/// The route originated by [`Op::Originate`]: no MOAS list for `list` 0,
/// else a list naming the router and one of two partners.
fn origination(prefix: Ipv4Prefix, list: u8) -> Route {
    let route = Route::new(prefix, AsPath::new());
    match list {
        0 => route,
        _ => route.with_moas_list(MoasList::from_iter([LOCAL, Asn(40 + u32::from(list))])),
    }
}

/// The ways a call can make the incremental selection fall back to a scan,
/// plus the re-origination that must re-export although the originated
/// entry's stamp stays 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fallback {
    /// The incumbent's peer withdraws.
    Withdrawn,
    /// The incumbent's peer sends a path through this router.
    Looped,
    /// The incumbent's peer sends a route of lower rank.
    Worse,
    /// The incumbent's peer sends another route of the same rank, which
    /// is installed with a newer stamp.
    Restamped,
    /// The monitor evicts the incumbent on another peer's announcement.
    Evicted,
    /// The incumbent's session goes down.
    SessionLost,
    /// The originated incumbent is replaced with a different MOAS list.
    Reoriginated,
}

const FALLBACKS: [Fallback; 7] = [
    Fallback::Withdrawn,
    Fallback::Looped,
    Fallback::Worse,
    Fallback::Restamped,
    Fallback::Evicted,
    Fallback::SessionLost,
    Fallback::Reoriginated,
];

/// Both routers, their monitors, and what each peer announced last.
struct Pair {
    peers: Vec<Asn>,
    prefixes: Vec<Ipv4Prefix>,
    dense: ByAsn,
    dense_monitor: Scripted,
    oracle: reference::Router,
    oracle_monitor: Scripted,
    announced: BTreeMap<(Asn, Ipv4Prefix), Route>,
}

impl Pair {
    fn new(peer_count: usize, prefix_count: usize, mode: u8) -> Self {
        let peers: Vec<Asn> = (0..peer_count as u32).map(|k| Asn(2 + k)).collect();
        let monitor = || Scripted {
            rejects: mode & 1 != 0,
            evicts: mode & 2 != 0,
            filters_exports: mode & 4 != 0,
            log: String::new(),
        };
        Pair {
            prefixes: (0..prefix_count)
                .map(|k| format!("10.{k}.0.0/16").parse().unwrap())
                .collect(),
            dense: ByAsn::new(LOCAL, peers.clone()),
            dense_monitor: monitor(),
            oracle: reference::Router::new(LOCAL, peers.clone()),
            oracle_monitor: monitor(),
            announced: BTreeMap::new(),
            peers,
        }
    }

    fn peer(&self, index: usize) -> Asn {
        self.peers[index % self.peers.len()]
    }

    fn peer_or_stranger(&self, index: usize) -> Asn {
        let pool = self.peers.len() + 1;
        self.peers.get(index % pool).copied().unwrap_or(STRANGER)
    }

    fn prefix(&self, index: usize) -> Ipv4Prefix {
        self.prefixes[index % self.prefixes.len()]
    }

    /// The fallback `op` drives, judged from the dense router's state
    /// before it runs; an eviction shows only after ([`Pair::evicted`]).
    fn fallback(&self, op: &Op) -> Option<Fallback> {
        let view = self.dense.view();
        match *op {
            Op::Originate { prefix, list } => {
                let prefix = self.prefix(prefix);
                let incumbent = view.best_route(prefix)?;
                let originated = view.best_learned_from(prefix).is_none();
                (originated && *incumbent != origination(prefix, list))
                    .then_some(Fallback::Reoriginated)
            }
            Op::PeerDown(at) => {
                let peer = Some(self.peer_or_stranger(at));
                let mut prefixes = self.prefixes.iter();
                prefixes
                    .any(|&prefix| view.best_learned_from(prefix) == peer)
                    .then_some(Fallback::SessionLost)
            }
            Op::Withdraw { peer, prefix } => {
                let held = view.best_learned_from(self.prefix(prefix)) == Some(self.peer(peer));
                held.then_some(Fallback::Withdrawn)
            }
            Op::Announce {
                peer,
                prefix,
                ref tail,
                local_pref,
            } => {
                let prefix = self.prefix(prefix);
                if view.best_learned_from(prefix) != Some(self.peer(peer)) {
                    return None;
                }
                let incumbent = view.best_route(prefix)?;
                let rank =
                    |route: &Route| (Reverse(route.local_pref()), route.as_path().selection_len());
                let route = self.announcement(peer, prefix, tail, local_pref);
                if tail.contains(&LOCAL.0) {
                    Some(Fallback::Looped)
                } else if rank(&route) > rank(incumbent) {
                    Some(Fallback::Worse)
                } else if rank(&route) == rank(incumbent) && route != *incumbent {
                    Some(Fallback::Restamped)
                } else {
                    None
                }
            }
            Op::WithdrawOrigin(_) | Op::Repeat(_) | Op::RefreshPeer(_) => None,
        }
    }

    /// Whether an announcement's evictions removed an incumbent: `before`
    /// is the best route's source per prefix before the call.
    fn evicted(&self, op: &Op, before: &[Option<Asn>]) -> bool {
        let Op::Announce { peer, .. } = *op else {
            return false;
        };
        let view = self.dense.view();
        self.prefixes.iter().zip(before).any(|(&prefix, &source)| {
            source.is_some_and(|source| {
                source != self.peer(peer) && view.adj_rib_in(prefix).all(|(held, _)| held != source)
            })
        })
    }

    /// The route [`Op::Announce`] sends: the peer followed by `tail`.
    fn announcement(
        &self,
        peer: usize,
        prefix: Ipv4Prefix,
        tail: &[u32],
        local_pref: u32,
    ) -> Route {
        let path = std::iter::once(self.peer(peer)).chain(tail.iter().map(|&asn| Asn(asn)));
        Route::new(prefix, AsPath::from_sequence(path)).with_local_pref(local_pref)
    }

    /// Applies `op` to both routers; returns what each sent.
    fn apply(&mut self, op: &Op) -> (Sent, Sent) {
        let (from, update) = match *op {
            Op::Originate { prefix, list } => {
                let route = origination(self.prefix(prefix), list);
                let (m, om) = (&mut self.dense_monitor, &mut self.oracle_monitor);
                return (
                    self.dense.call(|r, out| r.originate(route.clone(), m, out)),
                    self.oracle.originate(route, om),
                );
            }
            Op::WithdrawOrigin(at) => {
                let prefix = self.prefix(at);
                let (m, om) = (&mut self.dense_monitor, &mut self.oracle_monitor);
                return (
                    self.dense.call(|r, out| r.withdraw_origin(prefix, m, out)),
                    self.oracle.withdraw_origin(prefix, om),
                );
            }
            Op::PeerDown(at) => {
                let peer = self.peer_or_stranger(at);
                let (m, om) = (&mut self.dense_monitor, &mut self.oracle_monitor);
                return (
                    self.dense.call(|r, out| r.peer_down(peer, m, out)),
                    self.oracle.peer_down(peer, om),
                );
            }
            Op::RefreshPeer(at) => {
                let peer = self.peer_or_stranger(at);
                let (m, om) = (&mut self.dense_monitor, &mut self.oracle_monitor);
                return (
                    self.dense.call(|r, out| r.refresh_peer(peer, m, out)),
                    self.oracle.refresh_peer(peer, om),
                );
            }
            Op::Announce {
                peer,
                prefix,
                ref tail,
                local_pref,
            } => {
                let route = self.announcement(peer, self.prefix(prefix), tail, local_pref);
                let from = self.peer(peer);
                self.announced.insert((from, route.prefix()), route.clone());
                (from, Update::announce(route))
            }
            Op::Repeat(at) => match self.announced.iter().nth(at % self.announced.len().max(1)) {
                Some((&(from, _), route)) => (from, Update::announce(route.clone())),
                None => return (Sent::new(), Sent::new()),
            },
            Op::Withdraw { peer, prefix } => {
                (self.peer(peer), Update::withdraw(self.prefix(prefix)))
            }
        };
        (
            self.dense
                .handle_update(from, update.clone(), &mut self.dense_monitor),
            self.oracle
                .handle_update(from, update, &mut self.oracle_monitor),
        )
    }

    /// Everything the read accessors say, on both sides.
    fn assert_same_state(&self, step: &str) {
        let (dense, oracle) = (self.dense.view(), &self.oracle);
        assert_eq!(dense.decision_count(), oracle.decision_count(), "{step}");
        // Not observable through the accessors (any monotone stamping keeps
        // the age order), but the clock is pinned to tick where it always has.
        assert_eq!(self.dense.age_clock(), oracle.age_clock(), "{step}");
        assert!(self.dense.untouched_elsewhere(), "{step}");
        assert_eq!(dense.adj_rib_in_size(), oracle.adj_rib_in_size(), "{step}");
        assert_eq!(
            dense.prefixes().collect::<Vec<_>>(),
            oracle.prefixes().collect::<Vec<_>>(),
            "{step}"
        );
        for &prefix in &self.prefixes {
            assert_eq!(
                dense.best_route(prefix),
                oracle.best_route(prefix),
                "{step}"
            );
            assert_eq!(
                dense.best_learned_from(prefix),
                oracle.best_learned_from(prefix),
                "{step}"
            );
            assert_eq!(
                dense.best_origin(prefix),
                oracle.best_origin(prefix),
                "{step}"
            );
            assert_eq!(
                dense.originates(prefix),
                oracle.originates(prefix),
                "{step}"
            );
            assert_eq!(
                dense.adj_rib_in(prefix).collect::<Vec<_>>(),
                oracle.adj_rib_in(prefix).collect::<Vec<_>>(),
                "{step}"
            );
        }
    }
}

/// Runs one generated case, asserting both routers agree after every call,
/// and records the fallbacks it drove in `seen`.
fn check_case(
    peer_count: usize,
    prefix_count: usize,
    mode: u8,
    ops: &[Op],
    seen: &mut BTreeSet<Fallback>,
) {
    let mut pair = Pair::new(peer_count, prefix_count, mode);
    for (n, op) in ops.iter().enumerate() {
        let step = format!("step {n} {op:?} (peers {peer_count}, mode {mode})");
        let fallback = pair.fallback(op);
        let before: Vec<Option<Asn>> = pair
            .prefixes
            .iter()
            .map(|&prefix| pair.dense.view().best_learned_from(prefix))
            .collect();
        let exports_before = pair.dense_monitor.log.matches("export ").count();
        let (sent, expected) = pair.apply(op);
        assert_eq!(sent, expected, "{step}");
        assert_eq!(pair.dense_monitor.log, pair.oracle_monitor.log, "{step}");
        pair.assert_same_state(&step);
        if fallback == Some(Fallback::Reoriginated) {
            // The new originated route wins as the old one did, and every
            // peer's export hook must see it.
            let exports = pair.dense_monitor.log.matches("export ").count() - exports_before;
            assert_eq!(
                exports, peer_count,
                "{step}: a changed origination re-exports"
            );
        }
        seen.extend(fallback);
        if pair.evicted(op, &before) {
            seen.insert(Fallback::Evicted);
        }
    }
}

fn case() -> impl Strategy<Value = (usize, usize, u8, Vec<Op>)> {
    (
        1usize..=6,
        2usize..=3,
        0u8..8,
        prop::collection::vec(op(), 1..60),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dense_router_matches_the_reference(
        (peer_count, prefix_count, mode, ops) in case(),
    ) {
        check_case(peer_count, prefix_count, mode, &ops, &mut BTreeSet::new());
    }
}

/// The generator is only as good as the cases it reaches: 256 of its cases
/// drive every fallback of the incremental selection.
#[test]
fn generator_reaches_every_fallback() {
    let mut rng = TestRng::from_seed(proptest::seed_for("generator_reaches_every_fallback"));
    let mut seen = BTreeSet::new();
    for _ in 0..256 {
        let (peer_count, prefix_count, mode, ops) = case().generate(&mut rng);
        check_case(peer_count, prefix_count, mode, &ops, &mut seen);
    }
    assert_eq!(seen, BTreeSet::from(FALLBACKS));
}
