//! A single AS-level BGP speaker.
//!
//! Both keys of a router's state are dense: the handful of prefixes a
//! simulation announces, and the router's own peers. So the RIBs are laid out
//! as one record per prefix ([`PrefixRib`], kept sorted in a `Vec`) holding
//! one [`Slot`] per peer, parallel to the ascending peer list — Adj-RIB-In
//! entry, cached decision key and advertisement flag side by side. The
//! network addresses peers by that slot index, which is also the offset of
//! the session's directed edge in the shared CSR topology, so neither side
//! ever searches for an ASN on the event path.
//!
//! No `unwrap`/`expect` on data-dependent paths: routers are driven entirely
//! by the network, slot indices are in range by construction (the network
//! derives them from the same peer list), and every prefix lookup handles
//! the miss.

use std::cmp::Reverse;
use std::sync::Arc;

use bgp_types::{Asn, Ipv4Prefix, Route};

use crate::monitor::{ExportAction, ImportContext, ImportDecision, RouteMonitor};
use crate::update::SharedUpdate;

/// Updates a router wants sent, each addressed by the peer's slot. The
/// network owns one such buffer per shard and drains it after every call, so
/// the event path allocates no list per update.
pub(crate) type Outbox = Vec<(u32, SharedUpdate)>;

/// The chosen best route for a prefix and where it came from.
#[derive(Debug, Clone)]
struct BestEntry {
    route: Arc<Route>,
    /// Slot of the peer the route was learned from; `None` when the best
    /// route is locally originated.
    learned_from: Option<u32>,
}

/// A candidate route: the route, its installation stamp, and the two
/// attributes the decision process ranks by, copied out at installation so
/// a selection reads the slot array and nothing behind it. A peer's
/// re-announcement of the *identical* route keeps the original stamp; a
/// changed route counts as a fresh installation.
#[derive(Debug, Clone)]
struct RibEntry {
    route: Arc<Route>,
    installed_at: u64,
    local_pref: u32,
    /// Saturating: no path comes near `u32::MAX` hops.
    selection_len: u32,
}

impl RibEntry {
    fn new(route: Arc<Route>, installed_at: u64) -> Self {
        RibEntry {
            installed_at,
            local_pref: route.local_pref(),
            selection_len: u32::try_from(route.as_path().selection_len()).unwrap_or(u32::MAX),
            route,
        }
    }
}

/// What a router holds about one peer for one prefix.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// The route learned from the peer, if any.
    rib: Option<RibEntry>,
    /// Whether the peer currently holds an announcement from us.
    advertised: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

/// Everything a router knows about one prefix. `slots` is parallel to
/// [`Router::peers`]: ascending slot is ascending peer ASN.
#[derive(Debug, Clone)]
struct PrefixRib {
    prefix: Ipv4Prefix,
    /// The locally originated route, stamped 0: older than anything learned.
    originated: Option<RibEntry>,
    best: Option<BestEntry>,
    slots: Box<[Slot]>,
}

/// One AS-level BGP router: per-peer Adj-RIB-In, locally originated routes,
/// a Loc-RIB of best routes, and split-horizon advertisement state.
///
/// Routers are driven by [`Network`](crate::Network); the public surface
/// here is read-only inspection, which the experiment harness uses to census
/// which ASes adopted a false route.
///
/// Routes are held behind [`Arc`] throughout: an update installed from the
/// event queue, the Adj-RIB-In entry, the Loc-RIB best entry, and every
/// outbound fan-out copy all share one allocation. The decision process and
/// export path therefore move pointers, not AS-path vectors.
#[derive(Debug, Clone)]
pub struct Router {
    asn: Asn,
    peers: Vec<Asn>,
    /// One record per prefix ever announced to or by this router, ascending.
    ribs: Vec<PrefixRib>,
    /// Monotonic counter stamping Adj-RIB-In installations, for the
    /// oldest-route tiebreak.
    age_clock: u64,
    /// Times the decision process ran (one per [`Router::reselect`]).
    decisions: u64,
}

const _: () = assert!(std::mem::size_of::<Router>() <= 80);

impl Router {
    pub(crate) fn new(asn: Asn, mut peers: Vec<Asn>) -> Self {
        peers.sort_unstable();
        peers.dedup();
        Router {
            asn,
            peers,
            ribs: Vec::new(),
            age_clock: 0,
            decisions: 0,
        }
    }

    /// This router's AS number.
    #[must_use]
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The router's BGP peers, ascending.
    #[must_use]
    pub fn peers(&self) -> &[Asn] {
        &self.peers
    }

    /// The best (Loc-RIB) route for a prefix, if any.
    #[must_use]
    pub fn best_route(&self, prefix: Ipv4Prefix) -> Option<&Route> {
        self.best(prefix).map(|e| e.route.as_ref())
    }

    /// The peer the best route was learned from (`None` when locally
    /// originated or when there is no route).
    #[must_use]
    pub fn best_learned_from(&self, prefix: Ipv4Prefix) -> Option<Asn> {
        let slot = self.best(prefix)?.learned_from?;
        Some(self.peers[slot as usize])
    }

    /// The origin AS of the best route: the AS-path origin, or this router's
    /// own ASN for a locally originated route.
    #[must_use]
    pub fn best_origin(&self, prefix: Ipv4Prefix) -> Option<Asn> {
        let entry = self.best(prefix)?;
        match entry.learned_from {
            None => Some(self.asn),
            Some(_) => entry.route.origin_as(),
        }
    }

    /// Returns `true` if this router originates `prefix` itself.
    #[must_use]
    pub fn originates(&self, prefix: Ipv4Prefix) -> bool {
        self.rib(prefix).is_some_and(|rib| rib.originated.is_some())
    }

    /// All prefixes with a best route.
    pub fn prefixes(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        let routed = self.ribs.iter().filter(|rib| rib.best.is_some());
        routed.map(|rib| rib.prefix)
    }

    /// Times the BGP decision process ran on this router.
    #[must_use]
    pub fn decision_count(&self) -> u64 {
        self.decisions
    }

    /// Total routes currently held in the Adj-RIB-In, across all prefixes
    /// and peers.
    #[must_use]
    pub fn adj_rib_in_size(&self) -> usize {
        let slots = self.ribs.iter().flat_map(|rib| rib.slots.iter());
        slots.filter(|slot| slot.rib.is_some()).count()
    }

    /// The Adj-RIB-In entries for a prefix, as `(peer, route)` pairs.
    pub fn adj_rib_in(&self, prefix: Ipv4Prefix) -> impl Iterator<Item = (Asn, &Route)> + '_ {
        self.rib(prefix).into_iter().flat_map(|rib| {
            let held = self.peers.iter().zip(rib.slots.iter());
            held.filter_map(|(&peer, slot)| Some((peer, slot.rib.as_ref()?.route.as_ref())))
        })
    }

    /// Where `prefix`'s record is (`Ok`) or would be inserted (`Err`).
    fn position(&self, prefix: Ipv4Prefix) -> Result<usize, usize> {
        match self.ribs.as_slice() {
            // Every experiment announces one prefix per network (the
            // sub-prefix ablation two): skip the search.
            [only] if only.prefix == prefix => Ok(0),
            ribs => ribs.binary_search_by_key(&prefix, |rib| rib.prefix),
        }
    }

    fn rib(&self, prefix: Ipv4Prefix) -> Option<&PrefixRib> {
        self.position(prefix).ok().map(|at| &self.ribs[at])
    }

    fn best(&self, prefix: Ipv4Prefix) -> Option<&BestEntry> {
        self.rib(prefix)?.best.as_ref()
    }

    /// The index of `prefix`'s record, created empty on first mention.
    fn position_or_insert(&mut self, prefix: Ipv4Prefix) -> usize {
        self.position(prefix).unwrap_or_else(|at| {
            let rib = PrefixRib {
                prefix,
                originated: None,
                best: None,
                slots: self.peers.iter().map(|_| Slot::default()).collect(),
            };
            self.ribs.insert(at, rib);
            at
        })
    }

    // ------------------------------------------------------------------
    // Mutation (crate-internal, driven by Network). Every method appends the
    // updates to send to `out`, addressed by peer slot.
    // ------------------------------------------------------------------

    /// Starts originating a route.
    pub(crate) fn originate<M: RouteMonitor>(
        &mut self,
        route: Route,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let at = self.position_or_insert(route.prefix());
        self.ribs[at].originated = Some(RibEntry::new(Arc::new(route), 0));
        self.reselect(at, monitor, out);
    }

    /// Stops originating a prefix.
    pub(crate) fn withdraw_origin<M: RouteMonitor>(
        &mut self,
        prefix: Ipv4Prefix,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let Ok(at) = self.position(prefix) else {
            return;
        };
        if self.ribs[at].originated.take().is_some() {
            self.reselect(at, monitor, out);
        }
    }

    /// The peering session to `peer` went down: every route learned from it
    /// is implicitly withdrawn, and our advertisement state toward it is
    /// forgotten. Only updates for the *other* peers are appended.
    pub(crate) fn peer_down<M: RouteMonitor>(
        &mut self,
        peer: Asn,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let Ok(slot) = self.peers.binary_search(&peer) else {
            return;
        };
        let first = out.len();
        for at in 0..self.ribs.len() {
            let state = &mut self.ribs[at].slots[slot];
            state.advertised = false;
            if state.rib.take().is_some() {
                self.reselect(at, monitor, out);
            }
        }
        // The export hooks still ran for the dead session (monitors count
        // them); only what they addressed to it is dropped.
        let mut sent = out.split_off(first);
        sent.retain(|(to, _)| *to as usize != slot);
        out.append(&mut sent);
    }

    /// The peering session to `peer` came (back) up: re-advertise every
    /// current best route to it, as a BGP session establishment would.
    pub(crate) fn refresh_peer<M: RouteMonitor>(
        &mut self,
        peer: Asn,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let Ok(slot) = self.peers.binary_search(&peer) else {
            return;
        };
        for rib in &mut self.ribs {
            let Some(best) = &rib.best else {
                continue;
            };
            if best.learned_from == Some(slot as u32) {
                continue; // split horizon
            }
            let learned_from = best.learned_from.map(|s| self.peers[s as usize]);
            let outbound = Arc::new(best.route.propagated_by(self.asn));
            let update = match monitor.on_export(self.asn, peer, learned_from, &outbound) {
                ExportAction::Forward => SharedUpdate::Announce(outbound),
                ExportAction::Replace(route) => SharedUpdate::announce(route),
                ExportAction::Suppress => continue,
            };
            rib.slots[slot].advertised = true;
            out.push((slot as u32, update));
        }
    }

    /// Processes an update from the peer in slot `from`.
    pub(crate) fn handle_update<M: RouteMonitor>(
        &mut self,
        from: u32,
        update: SharedUpdate,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let from = from as usize;
        let route = match update {
            SharedUpdate::Withdraw(prefix) => {
                let Ok(at) = self.position(prefix) else {
                    return;
                };
                if self.ribs[at].slots[from].rib.take().is_some() {
                    monitor.on_withdraw(self.asn, self.peers[from], prefix);
                    self.reselect(at, monitor, out);
                }
                return;
            }
            SharedUpdate::Announce(route) => route,
        };
        // Loop suppression: never accept a path containing ourselves. The
        // announcement still supersedes the peer's previous route
        // (treat-as-withdraw), otherwise two routers can hold stale routes
        // through each other forever.
        if route.as_path().contains(self.asn) {
            let Ok(at) = self.position(route.prefix()) else {
                return;
            };
            if self.ribs[at].slots[from].rib.take().is_some() {
                self.reselect(at, monitor, out);
            }
            return;
        }
        let at = self.position_or_insert(route.prefix());
        let decision = self.consult_monitor(at, from, &route, monitor);
        self.apply_evictions(at, from, &decision);
        // Stamp every announcement that got this far, refused ones included:
        // the oldest-route tiebreak orders installations by this clock.
        self.age_clock += 1;
        let held = &mut self.ribs[at].slots[from].rib;
        if decision.reject {
            // The newest word from this peer supersedes its previous
            // announcement even when we refuse to install it.
            *held = None;
        } else if !matches!(held, Some(entry) if entry.route == route) {
            // (An identical re-announcement keeps the original age.)
            *held = Some(RibEntry::new(route, self.age_clock));
        }
        self.reselect(at, monitor, out);
    }

    fn consult_monitor<M: RouteMonitor>(
        &self,
        at: usize,
        from: usize,
        route: &Route,
        monitor: &mut M,
    ) -> ImportDecision {
        // Borrow the RIB directly: the context is a Vec of references, so no
        // route is cloned just to be looked at.
        let rib = &self.ribs[at];
        let mut existing: Vec<(Option<Asn>, &Route)> = Vec::new();
        if let Some(own) = &rib.originated {
            existing.push((None, own.route.as_ref()));
        }
        for (slot, (&peer, state)) in self.peers.iter().zip(rib.slots.iter()).enumerate() {
            if let (Some(held), true) = (&state.rib, slot != from) {
                existing.push((Some(peer), held.route.as_ref()));
            }
        }
        monitor.on_import(&ImportContext {
            local: self.asn,
            from_peer: self.peers[from],
            route,
            existing: &existing,
        })
    }

    fn apply_evictions(&mut self, at: usize, from: usize, decision: &ImportDecision) {
        for peer in &decision.evict_peers {
            match self.peers.binary_search(peer) {
                Ok(slot) if slot != from => self.ribs[at].slots[slot].rib = None,
                _ => {}
            }
        }
    }

    /// Re-runs the decision process for the prefix record at `at` and, if
    /// the best route changed, appends the updates to send to peers.
    ///
    /// A new best route is announced to every peer but its source (split
    /// horizon), then peers that previously heard from us but are now
    /// excluded get a withdrawal; with no route left that is every advertised
    /// peer. The prepended outbound route is built **once** and shared by
    /// every peer the monitor lets through unmodified; only an
    /// [`ExportAction::Replace`] costs a fresh allocation.
    fn reselect<M: RouteMonitor>(&mut self, at: usize, monitor: &mut M, out: &mut Outbox) {
        self.decisions += 1;
        let rib = &mut self.ribs[at];
        let winner = rib.decide();
        // `Arc` equality is pointer equality first, so an unchanged best
        // costs no look at the route itself.
        if winner == rib.best.as_ref().map(|e| (e.learned_from, &e.route)) {
            return;
        }
        let outbound = winner.map(|(_, route)| Arc::new(route.propagated_by(self.asn)));
        let source = winner.and_then(|(slot, _)| slot);
        let source_asn = source.map(|slot| self.peers[slot as usize]);
        rib.best = winner.map(|(learned_from, route)| BestEntry {
            route: Arc::clone(route),
            learned_from,
        });
        let first = out.len();
        for (slot, (&peer, state)) in self.peers.iter().zip(rib.slots.iter_mut()).enumerate() {
            let slot = slot as u32;
            let announcement = match &outbound {
                Some(route) if source != Some(slot) => {
                    match monitor.on_export(self.asn, peer, source_asn, route) {
                        ExportAction::Forward => Some(SharedUpdate::Announce(Arc::clone(route))),
                        ExportAction::Replace(route) => Some(SharedUpdate::announce(route)),
                        ExportAction::Suppress => None,
                    }
                }
                _ => None,
            };
            let was_advertised = std::mem::replace(&mut state.advertised, announcement.is_some());
            match announcement {
                Some(update) => out.push((slot, update)),
                None if was_advertised => out.push((slot, SharedUpdate::withdraw(rib.prefix))),
                None => {}
            }
        }
        // Announcements go out first, then withdrawals, each in ascending
        // slot order: the sort is stable (and one pass when nothing moves).
        out[first..].sort_by_key(|(_, update)| update.is_withdrawal());
    }
}

impl PrefixRib {
    /// The BGP decision process: highest `LOCAL_PREF`, then shortest AS path
    /// (locally originated routes have an empty path and win). Exact ties
    /// keep the currently selected route ("prefer oldest", the stability
    /// practice SSFnet and most deployed implementations follow); a tie with
    /// no incumbent breaks deterministically toward the lowest peer ASN.
    ///
    /// The prefer-current rule matters for the experiments: an attacker's
    /// equally-long route must not displace a valid route that is already
    /// installed, exactly as in the paper's converged-network attack model.
    ///
    /// Candidates are ranked from the keys cached beside them, so a selection
    /// is one pass over contiguous memory that allocates nothing and never
    /// follows a route pointer. `min_by_key` keeps the *first* minimum, so
    /// the iteration order (own route, then learned routes by ascending
    /// slot, i.e. ascending peer ASN) is part of the tiebreak contract.
    /// Returns the winner's source slot and route.
    fn decide(&self) -> Option<(Option<u32>, &Arc<Route>)> {
        let own = self.originated.iter().map(|entry| (None, entry));
        let learned = self.slots.iter().enumerate();
        let learned =
            learned.filter_map(|(slot, state)| Some((Some(slot as u32), state.rib.as_ref()?)));
        own.chain(learned)
            .min_by_key(|&(slot, entry)| {
                let rank = (Reverse(entry.local_pref), entry.selection_len);
                (rank, slot.is_some(), entry.installed_at, slot)
            })
            .map(|(slot, entry)| (slot, &entry.route))
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

// AS-path sanity helper shared by tests.
#[cfg(test)]
pub(crate) fn announced(origin: Asn, prefix: Ipv4Prefix) -> Route {
    Route::new(prefix, bgp_types::AsPath::origination(origin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NoopMonitor;
    use bgp_types::AsPath;
    use std::collections::BTreeSet;

    /// The calling convention these tests (and the reference router) were
    /// written against: peers named by ASN, one call's updates as a list.
    #[derive(Debug)]
    pub(super) struct ByAsn(pub(super) Router);

    pub(super) type Sent = Vec<(Asn, SharedUpdate)>;

    impl std::ops::Deref for ByAsn {
        type Target = Router;
        fn deref(&self) -> &Router {
            &self.0
        }
    }

    impl ByAsn {
        pub(super) fn call(&mut self, f: impl FnOnce(&mut Router, &mut Outbox)) -> Sent {
            let mut out = Outbox::new();
            f(&mut self.0, &mut out);
            let sent = out.into_iter();
            sent.map(|(slot, update)| (self.0.peers[slot as usize], update))
                .collect()
        }

        fn originate<M: RouteMonitor>(&mut self, route: Route, monitor: &mut M) -> Sent {
            self.call(|r, out| r.originate(route, monitor, out))
        }

        pub(super) fn handle_update<M: RouteMonitor>(
            &mut self,
            from: Asn,
            update: SharedUpdate,
            monitor: &mut M,
        ) -> Sent {
            let slot = self.0.peers.binary_search(&from).unwrap() as u32;
            self.call(|r, out| r.handle_update(slot, update, monitor, out))
        }
    }

    fn prefix() -> Ipv4Prefix {
        "10.0.0.0/16".parse().unwrap()
    }

    fn router() -> ByAsn {
        ByAsn(Router::new(Asn(1), vec![Asn(2), Asn(3), Asn(4)]))
    }

    #[test]
    fn origination_exports_to_all_peers() {
        let mut r = router();
        let updates = r.originate(Route::new(prefix(), AsPath::new()), &mut NoopMonitor);
        assert_eq!(updates.len(), 3);
        for (_, update) in &updates {
            let route = update.route().unwrap();
            assert_eq!(route.as_path().to_string(), "1");
            assert_eq!(route.origin_as(), Some(Asn(1)));
        }
        assert_eq!(r.best_origin(prefix()), Some(Asn(1)));
        assert!(r.originates(prefix()));
    }

    #[test]
    fn fanout_announcements_share_one_route_allocation() {
        let mut r = router();
        let updates = r.originate(Route::new(prefix(), AsPath::new()), &mut NoopMonitor);
        let rcs: Vec<&Arc<Route>> = updates
            .iter()
            .filter_map(|(_, u)| match u {
                SharedUpdate::Announce(rc) => Some(rc),
                SharedUpdate::Withdraw(_) => None,
            })
            .collect();
        assert_eq!(rcs.len(), 3);
        assert!(Arc::ptr_eq(rcs[0], rcs[1]));
        assert!(Arc::ptr_eq(rcs[1], rcs[2]));
    }

    #[test]
    fn received_route_is_installed_and_propagated_with_split_horizon() {
        let mut r = router();
        let incoming = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let updates = r.handle_update(Asn(2), SharedUpdate::announce(incoming), &mut NoopMonitor);
        // Sent to peers 3 and 4, not back to 2.
        let targets: Vec<Asn> = updates.iter().map(|(p, _)| *p).collect();
        assert_eq!(targets, vec![Asn(3), Asn(4)]);
        let route = updates[0].1.route().unwrap();
        assert_eq!(route.as_path().to_string(), "1 2 9");
        assert_eq!(r.best_origin(prefix()), Some(Asn(9)));
        assert_eq!(r.best_learned_from(prefix()), Some(Asn(2)));
    }

    #[test]
    fn looped_path_is_dropped() {
        let mut r = router();
        let mut looped = announced(Asn(9), prefix());
        looped = looped.propagated_by(Asn(1)).propagated_by(Asn(2));
        let updates = r.handle_update(Asn(2), SharedUpdate::announce(looped), &mut NoopMonitor);
        assert!(updates.is_empty());
        assert!(r.best_route(prefix()).is_none());
    }

    #[test]
    fn shorter_path_wins() {
        let mut r = router();
        let long = announced(Asn(9), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(2));
        let short = announced(Asn(9), prefix()).propagated_by(Asn(3));
        r.handle_update(Asn(2), SharedUpdate::announce(long), &mut NoopMonitor);
        let updates = r.handle_update(Asn(3), SharedUpdate::announce(short), &mut NoopMonitor);
        assert_eq!(r.best_learned_from(prefix()), Some(Asn(3)));
        assert!(!updates.is_empty());
    }

    #[test]
    fn equal_paths_keep_the_incumbent() {
        // "Prefer current" stability: an equally good route from another
        // peer must not displace the installed one.
        let mut r = router();
        let via4 = announced(Asn(9), prefix()).propagated_by(Asn(4));
        let via3 = announced(Asn(9), prefix()).propagated_by(Asn(3));
        r.handle_update(Asn(4), SharedUpdate::announce(via4), &mut NoopMonitor);
        let updates = r.handle_update(Asn(3), SharedUpdate::announce(via3), &mut NoopMonitor);
        assert_eq!(r.best_learned_from(prefix()), Some(Asn(4)));
        assert!(updates.is_empty(), "no churn on an ignored tie");
    }

    #[test]
    fn tie_without_incumbent_breaks_to_lowest_peer() {
        // When the incumbent disappears and two equal routes remain, the
        // deterministic tiebreak picks the lowest peer ASN.
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let via3 = announced(Asn(8), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(3));
        let via4 = announced(Asn(8), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(4));
        r.handle_update(Asn(2), SharedUpdate::announce(via2), &mut NoopMonitor);
        r.handle_update(Asn(3), SharedUpdate::announce(via3), &mut NoopMonitor);
        r.handle_update(Asn(4), SharedUpdate::announce(via4), &mut NoopMonitor);
        assert_eq!(r.best_learned_from(prefix()), Some(Asn(2)));
        r.handle_update(Asn(2), SharedUpdate::withdraw(prefix()), &mut NoopMonitor);
        assert_eq!(r.best_learned_from(prefix()), Some(Asn(3)));
    }

    #[test]
    fn local_origination_beats_learned_routes() {
        let mut r = router();
        let learned = announced(Asn(9), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), SharedUpdate::announce(learned), &mut NoopMonitor);
        r.originate(Route::new(prefix(), AsPath::new()), &mut NoopMonitor);
        assert_eq!(r.best_origin(prefix()), Some(Asn(1)));
        assert_eq!(r.best_learned_from(prefix()), None);
    }

    #[test]
    fn higher_local_pref_wins_over_shorter_path() {
        let mut r = router();
        let short = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let long_preferred = announced(Asn(9), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(3))
            .with_local_pref(200);
        r.handle_update(Asn(2), SharedUpdate::announce(short), &mut NoopMonitor);
        r.handle_update(
            Asn(3),
            SharedUpdate::announce(long_preferred),
            &mut NoopMonitor,
        );
        assert_eq!(r.best_learned_from(prefix()), Some(Asn(3)));
    }

    #[test]
    fn withdrawal_falls_back_to_next_best() {
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let via3 = announced(Asn(8), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(3));
        r.handle_update(Asn(2), SharedUpdate::announce(via2), &mut NoopMonitor);
        r.handle_update(Asn(3), SharedUpdate::announce(via3), &mut NoopMonitor);
        assert_eq!(r.best_origin(prefix()), Some(Asn(9)));
        let updates = r.handle_update(Asn(2), SharedUpdate::withdraw(prefix()), &mut NoopMonitor);
        assert_eq!(r.best_origin(prefix()), Some(Asn(8)));
        assert!(!updates.is_empty());
    }

    #[test]
    fn last_withdrawal_sends_withdraw_to_advertised_peers() {
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), SharedUpdate::announce(via2), &mut NoopMonitor);
        let updates = r.handle_update(Asn(2), SharedUpdate::withdraw(prefix()), &mut NoopMonitor);
        assert!(r.best_route(prefix()).is_none());
        let withdraw_targets: BTreeSet<Asn> = updates
            .iter()
            .filter(|(_, u)| u.is_withdrawal())
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(withdraw_targets, BTreeSet::from([Asn(3), Asn(4)]));
    }

    #[test]
    fn duplicate_announcement_is_silent() {
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        r.handle_update(
            Asn(2),
            SharedUpdate::announce(via2.clone()),
            &mut NoopMonitor,
        );
        let updates = r.handle_update(Asn(2), SharedUpdate::announce(via2), &mut NoopMonitor);
        assert!(
            updates.is_empty(),
            "implicit replacement with identical route must not re-export"
        );
    }

    #[test]
    fn spurious_withdrawal_is_silent() {
        let mut r = router();
        let updates = r.handle_update(Asn(2), SharedUpdate::withdraw(prefix()), &mut NoopMonitor);
        assert!(updates.is_empty());
    }

    #[test]
    fn best_switch_to_new_peer_sends_withdraw_to_that_peer() {
        // When the best route moves to peer 3, split horizon excludes 3 from
        // the announcement; 3 previously got our announcement, so it must
        // receive a withdraw.
        let mut r = router();
        let via2 = announced(Asn(9), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(2));
        r.handle_update(Asn(2), SharedUpdate::announce(via2), &mut NoopMonitor);
        let via3 = announced(Asn(9), prefix()).propagated_by(Asn(3));
        let updates = r.handle_update(Asn(3), SharedUpdate::announce(via3), &mut NoopMonitor);
        let to3: Vec<&SharedUpdate> = updates
            .iter()
            .filter(|(p, _)| *p == Asn(3))
            .map(|(_, u)| u)
            .collect();
        assert_eq!(to3.len(), 1);
        assert!(to3[0].is_withdrawal());
    }

    #[test]
    fn rejecting_monitor_blocks_installation() {
        struct RejectAll;
        impl RouteMonitor for RejectAll {
            fn on_import(&mut self, _ctx: &ImportContext<'_>) -> ImportDecision {
                ImportDecision::reject()
            }
        }
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let updates = r.handle_update(Asn(2), SharedUpdate::announce(via2), &mut RejectAll);
        assert!(updates.is_empty());
        assert!(r.best_route(prefix()).is_none());
    }

    #[test]
    fn eviction_removes_previously_installed_route() {
        struct EvictTwo;
        impl RouteMonitor for EvictTwo {
            fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
                if ctx.from_peer == Asn(3) {
                    ImportDecision::accept().with_eviction(Asn(2))
                } else {
                    ImportDecision::accept()
                }
            }
        }
        let mut r = router();
        let false_route = announced(Asn(66), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), SharedUpdate::announce(false_route), &mut EvictTwo);
        assert_eq!(r.best_origin(prefix()), Some(Asn(66)));
        let valid = announced(Asn(9), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(3));
        r.handle_update(Asn(3), SharedUpdate::announce(valid), &mut EvictTwo);
        assert_eq!(r.best_origin(prefix()), Some(Asn(9)));
        assert_eq!(r.adj_rib_in(prefix()).count(), 1);
    }

    #[test]
    fn suppressing_export_monitor_sends_nothing() {
        struct Mute;
        impl RouteMonitor for Mute {
            fn on_export(
                &mut self,
                _local: Asn,
                _to: Asn,
                _learned_from: Option<Asn>,
                _route: &Route,
            ) -> ExportAction {
                ExportAction::Suppress
            }
        }
        let mut r = router();
        let updates = r.originate(Route::new(prefix(), AsPath::new()), &mut Mute);
        assert!(updates.is_empty());
    }

    #[test]
    fn replacing_export_monitor_substitutes_the_route() {
        struct Downgrade;
        impl RouteMonitor for Downgrade {
            fn on_export(
                &mut self,
                _local: Asn,
                to: Asn,
                _learned_from: Option<Asn>,
                route: &Route,
            ) -> ExportAction {
                if to == Asn(3) {
                    ExportAction::Replace(route.clone().with_local_pref(7))
                } else {
                    ExportAction::Forward
                }
            }
        }
        let mut r = router();
        let updates = r.originate(Route::new(prefix(), AsPath::new()), &mut Downgrade);
        assert_eq!(updates.len(), 3);
        for (peer, update) in &updates {
            let route = update.route().unwrap();
            if *peer == Asn(3) {
                assert_eq!(route.local_pref(), 7);
            } else {
                assert_ne!(route.local_pref(), 7);
            }
        }
    }

    #[test]
    fn monitor_sees_existing_routes_except_replaced_peer() {
        struct Census(Vec<usize>);
        impl RouteMonitor for Census {
            fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
                self.0.push(ctx.existing.len());
                ImportDecision::accept()
            }
        }
        let mut monitor = Census(Vec::new());
        let mut r = router();
        r.originate(Route::new(prefix(), AsPath::new()), &mut monitor);
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), SharedUpdate::announce(via2.clone()), &mut monitor);
        // Re-announcement from the same peer: its own old entry excluded.
        r.handle_update(Asn(2), SharedUpdate::announce(via2), &mut monitor);
        assert_eq!(monitor.0, vec![1, 1]);
    }
}
