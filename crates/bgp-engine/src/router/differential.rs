//! Differential test: the dense-RIB [`Router`](super::Router) against the
//! map-keyed [`reference`](super::reference) router it replaced.
//!
//! Both are driven with the same generated call sequence under the same
//! scripted monitor. After every call the updates they send (in order), the
//! monitor hooks they invoked (in order, arguments included) and everything
//! the read accessors report must be equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bgp_types::{AsPath, Asn, Ipv4Prefix, Route};
use proptest::prelude::*;

use super::reference;
use super::tests::{ByAsn, Sent};
use crate::monitor::{ExportAction, ImportContext, ImportDecision, RouteMonitor};
use crate::update::SharedUpdate;

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
    Originate(usize),
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
        (0usize..3).prop_map(Op::Originate),
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

    /// Applies `op` to both routers; returns what each sent.
    fn apply(&mut self, op: &Op) -> (Sent, Sent) {
        let Pair {
            peers,
            prefixes,
            dense,
            dense_monitor: m,
            oracle,
            oracle_monitor: om,
            announced,
        } = self;
        let peer = |index: usize| peers[index % peers.len()];
        let peer_or_stranger = |index: usize| {
            let pool = peers.len() + 1;
            peers.get(index % pool).copied().unwrap_or(STRANGER)
        };
        let prefix = |index: usize| prefixes[index % prefixes.len()];
        let (from, update) = match *op {
            Op::Originate(at) => {
                let route = Route::new(prefix(at), AsPath::new());
                return (
                    dense.call(|r, out| r.originate(route.clone(), m, out)),
                    oracle.originate(route, om),
                );
            }
            Op::WithdrawOrigin(at) => {
                return (
                    dense.call(|r, out| r.withdraw_origin(prefix(at), m, out)),
                    oracle.withdraw_origin(prefix(at), om),
                );
            }
            Op::PeerDown(at) => {
                return (
                    dense.call(|r, out| r.peer_down(peer_or_stranger(at), m, out)),
                    oracle.peer_down(peer_or_stranger(at), om),
                );
            }
            Op::RefreshPeer(at) => {
                return (
                    dense.call(|r, out| r.refresh_peer(peer_or_stranger(at), m, out)),
                    oracle.refresh_peer(peer_or_stranger(at), om),
                );
            }
            Op::Announce {
                peer: from,
                prefix: at,
                ref tail,
                local_pref,
            } => {
                let path = std::iter::once(peer(from)).chain(tail.iter().map(|&asn| Asn(asn)));
                let route =
                    Route::new(prefix(at), AsPath::from_sequence(path)).with_local_pref(local_pref);
                announced.insert((peer(from), prefix(at)), route.clone());
                (peer(from), SharedUpdate::announce(route))
            }
            Op::Repeat(at) => match announced.iter().nth(at % announced.len().max(1)) {
                Some((&(from, _), route)) => (from, SharedUpdate::announce(route.clone())),
                None => return (Sent::new(), Sent::new()),
            },
            Op::Withdraw {
                peer: from,
                prefix: at,
            } => (peer(from), SharedUpdate::withdraw(prefix(at))),
        };
        (
            dense.handle_update(from, update.clone(), m),
            oracle.handle_update(from, update, om),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dense_router_matches_the_reference(
        peer_count in 1usize..=6,
        prefix_count in 2usize..=3,
        mode in 0u8..8,
        ops in prop::collection::vec(op(), 1..60),
    ) {
        let mut pair = Pair::new(peer_count, prefix_count, mode);
        for (n, op) in ops.iter().enumerate() {
            let step = format!("step {n} {op:?} (peers {peer_count}, mode {mode})");
            let (sent, expected) = pair.apply(op);
            prop_assert_eq!(sent, expected, "{}", step);
            prop_assert_eq!(&pair.dense_monitor.log, &pair.oracle_monitor.log, "{}", step);
            pair.assert_same_state(&step);
        }
    }
}
