//! The route-monitor extension point.
//!
//! A [`RouteMonitor`] sees every import and export of every router it
//! serves. An import hands it an [`ImportContext`]: the arriving route and
//! [`HeldRoutes`], a `Copy` view of the routes the router already holds for
//! the prefix. That view borrows the router's tables and is walked lazily,
//! so a monitor that never looks at it (the "Normal BGP" [`NoopMonitor`])
//! costs nothing, and one that does reads the routes in place.

use std::fmt;

use bgp_types::{Asn, Ipv4Prefix, Route, SimTime};

use crate::router::{Arena, Slot};

/// Everything a monitor can see when a router imports a route.
#[derive(Debug)]
pub struct ImportContext<'a> {
    /// The AS doing the importing.
    pub local: Asn,
    /// The peer the route arrived from.
    pub from_peer: Asn,
    /// The arriving route (AS path already includes `from_peer`).
    pub route: &'a Route,
    /// Routes currently held for the same prefix: the locally originated
    /// route (peer `None`) and Adj-RIB-In entries from *other* peers
    /// (peer `Some`). The previous route from `from_peer`, if any, is being
    /// replaced and is not included.
    pub existing: HeldRoutes<'a>,
}

/// The routes a router holds for one prefix, as `(learned-from peer, route)`
/// pairs: the locally originated route first (peer `None`), then the
/// Adj-RIB-In entries in ascending peer order, never the sender's.
///
/// A borrowed view, not a list: iterating it walks the router's tables in
/// place, and copying it copies a few pointers. Outside a router it can
/// also wrap a plain slice of pairs, which is how a test builds a context.
#[derive(Clone, Copy)]
pub struct HeldRoutes<'a>(Held<'a>);

#[derive(Clone, Copy)]
enum Held<'a> {
    /// Straight out of a router's tables: `slots` is parallel to `peers`,
    /// their routes are in `routes`, and the session in slot `sender` is
    /// left out.
    Rib {
        own: Option<&'a Route>,
        peers: &'a [Asn],
        slots: &'a [Slot],
        routes: &'a Arena,
        sender: usize,
    },
    List(&'a [(Option<Asn>, &'a Route)]),
}

impl<'a> HeldRoutes<'a> {
    /// A view of caller-built `(peer, route)` pairs, yielded as given.
    #[must_use]
    pub fn from_slice(list: &'a [(Option<Asn>, &'a Route)]) -> Self {
        HeldRoutes(Held::List(list))
    }

    pub(crate) fn rib(
        own: Option<&'a Route>,
        peers: &'a [Asn],
        slots: &'a [Slot],
        routes: &'a Arena,
        sender: usize,
    ) -> Self {
        HeldRoutes(Held::Rib {
            own,
            peers,
            slots,
            routes,
            sender,
        })
    }

    /// Walks the held routes.
    #[must_use]
    pub fn iter(&self) -> HeldIter<'a> {
        HeldIter(match self.0 {
            Held::Rib {
                own,
                peers,
                slots,
                routes,
                sender,
            } => Walk::Rib {
                own,
                held: peers.iter().zip(slots).enumerate(),
                routes,
                sender,
            },
            Held::List(list) => Walk::List(list.iter()),
        })
    }
}

impl fmt::Debug for HeldRoutes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for HeldRoutes<'a> {
    type Item = (Option<Asn>, &'a Route);
    type IntoIter = HeldIter<'a>;

    fn into_iter(self) -> HeldIter<'a> {
        self.iter()
    }
}

/// The iterator over [`HeldRoutes`].
#[derive(Debug, Clone)]
pub struct HeldIter<'a>(Walk<'a>);

type Sessions<'a> =
    std::iter::Enumerate<std::iter::Zip<std::slice::Iter<'a, Asn>, std::slice::Iter<'a, Slot>>>;

#[derive(Debug, Clone)]
enum Walk<'a> {
    Rib {
        own: Option<&'a Route>,
        held: Sessions<'a>,
        routes: &'a Arena,
        sender: usize,
    },
    List(std::slice::Iter<'a, (Option<Asn>, &'a Route)>),
}

impl<'a> Iterator for HeldIter<'a> {
    type Item = (Option<Asn>, &'a Route);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Walk::Rib {
                own,
                held,
                routes,
                sender,
            } => {
                if let Some(route) = own.take() {
                    return Some((None, route));
                }
                let (routes, sender) = (*routes, *sender);
                held.find_map(|(slot, (&peer, state))| {
                    let route = state.route(routes).filter(|_| slot != sender)?;
                    Some((Some(peer), route))
                })
            }
            Walk::List(list) => list.next().copied(),
        }
    }
}

/// What a monitor decided about an import.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ImportDecision {
    /// Reject the arriving route instead of installing it.
    pub reject: bool,
    /// Evict these peers' existing Adj-RIB-In entries for the prefix —
    /// used when a conflict reveals a previously installed route as false.
    pub evict_peers: Vec<Asn>,
}

impl ImportDecision {
    /// Accept the route, touch nothing else. This is plain BGP behaviour.
    #[must_use]
    pub fn accept() -> Self {
        ImportDecision::default()
    }

    /// Reject the arriving route.
    #[must_use]
    pub fn reject() -> Self {
        ImportDecision {
            reject: true,
            evict_peers: Vec::new(),
        }
    }

    /// Also evict the existing entry learned from `peer`.
    #[must_use]
    pub fn with_eviction(mut self, peer: Asn) -> Self {
        self.evict_peers.push(peer);
        self
    }
}

/// What a monitor decided about one peer's export.
///
/// `Forward` is the common case and costs nothing: every peer that forwards
/// the route unchanged holds a count of the one route the router interned in
/// its shard's arena. Only `Replace` stores another route there.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ExportAction {
    /// Send the route exactly as proposed.
    #[default]
    Forward,
    /// Send this modified route instead (e.g. with communities stripped).
    Replace(Route),
    /// Do not advertise to this peer at all.
    Suppress,
}

/// Observes and filters route imports and exports on every router.
///
/// One monitor instance serves the whole network; the `local` AS is passed to
/// every hook, so per-AS behaviour (e.g. which ASes deployed MOAS checking)
/// lives inside the monitor. The MOAS-list validator in `moas-core`
/// implements this trait; adversarial behaviours (community-stripping
/// transits) do too.
pub trait RouteMonitor {
    /// Called before a received route is installed in the Adj-RIB-In.
    ///
    /// The default accepts everything, which together with the default
    /// `on_export` reproduces unmodified BGP-4.
    fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
        let _ = ctx;
        ImportDecision::accept()
    }

    /// Called for each peer a route is exported to, after AS-path prepending.
    /// `learned_from` is the peer the route was learned from (`None` for a
    /// locally originated route) — policy monitors such as
    /// [`ValleyFree`](crate::ValleyFree) use it to apply export rules.
    ///
    /// Return [`ExportAction::Forward`] to send `route` untouched (the
    /// zero-copy fast path), [`ExportAction::Replace`] to substitute a
    /// modified route, or [`ExportAction::Suppress`] to skip this peer.
    fn on_export(
        &mut self,
        local: Asn,
        to_peer: Asn,
        learned_from: Option<Asn>,
        route: &Route,
    ) -> ExportAction {
        let _ = (local, to_peer, learned_from, route);
        ExportAction::Forward
    }

    /// Called after a peer's route for `prefix` is removed from the
    /// Adj-RIB-In by an explicit WITHDRAW. Observational only — the removal
    /// has already happened. Route-history detectors (RFC 2439 flap damping)
    /// need withdrawal visibility; the default ignores it.
    fn on_withdraw(&mut self, local: Asn, from_peer: Asn, prefix: Ipv4Prefix) {
        let _ = (local, from_peer, prefix);
    }

    /// Called whenever simulated time advances (once per distinct event
    /// timestamp, before that timestamp's first event is processed). Lets
    /// monitors timestamp what they observe — the MOAS monitor stamps its
    /// alarms with this clock so experiments can measure detection latency.
    fn on_clock(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// The identity monitor: unmodified BGP-4, the paper's "Normal BGP" baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopMonitor;

impl RouteMonitor for NoopMonitor {}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Ipv4Prefix};

    #[test]
    fn default_decision_accepts() {
        let d = ImportDecision::accept();
        assert!(!d.reject);
        assert!(d.evict_peers.is_empty());
    }

    #[test]
    fn reject_and_evict_builders() {
        let d = ImportDecision::reject()
            .with_eviction(Asn(9))
            .with_eviction(Asn(7));
        assert!(d.reject);
        assert_eq!(d.evict_peers, vec![Asn(9), Asn(7)]);
    }

    #[test]
    fn noop_monitor_accepts_and_forwards() {
        let mut m = NoopMonitor;
        let prefix: Ipv4Prefix = "10.0.0.0/16".parse().unwrap();
        let route = Route::new(prefix, AsPath::origination(Asn(4)));
        let ctx = ImportContext {
            local: Asn(1),
            from_peer: Asn(2),
            route: &route,
            existing: HeldRoutes::from_slice(&[]),
        };
        assert_eq!(m.on_import(&ctx), ImportDecision::accept());
        assert_eq!(
            m.on_export(Asn(1), Asn(2), None, &route),
            ExportAction::Forward
        );
    }
}
