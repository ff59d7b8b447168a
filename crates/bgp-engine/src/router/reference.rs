//! The `BTreeMap`-keyed router this crate shipped before the dense RIB
//! layout, kept verbatim (its docs dropped, two unused getters swapped for one on the age clock) as the oracle for
//! `router::differential`: it addresses peers by ASN and returns a fresh
//! update list per call. Test-only; nothing at runtime reaches it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bgp_types::{Asn, Ipv4Prefix, Route};

use crate::monitor::{ExportAction, HeldRoutes, ImportContext, ImportDecision, RouteMonitor};
use crate::update::SharedUpdate;

#[derive(Debug, Clone, PartialEq, Eq)]
struct BestEntry {
    route: Arc<Route>,
    learned_from: Option<Asn>,
}

#[derive(Debug, Clone)]
pub(super) struct Router {
    asn: Asn,
    peers: Vec<Asn>,
    originated: BTreeMap<Ipv4Prefix, Arc<Route>>,
    adj_in: BTreeMap<Ipv4Prefix, BTreeMap<Asn, RibEntry>>,
    best: BTreeMap<Ipv4Prefix, BestEntry>,
    advertised: BTreeMap<Ipv4Prefix, BTreeSet<Asn>>,
    age_clock: u64,
    decisions: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RibEntry {
    route: Arc<Route>,
    installed_at: u64,
}

impl Router {
    pub(super) fn new(asn: Asn, mut peers: Vec<Asn>) -> Self {
        peers.sort_unstable();
        peers.dedup();
        Router {
            asn,
            peers,
            originated: BTreeMap::new(),
            adj_in: BTreeMap::new(),
            best: BTreeMap::new(),
            advertised: BTreeMap::new(),
            age_clock: 0,
            decisions: 0,
        }
    }

    pub(super) fn age_clock(&self) -> u64 {
        self.age_clock
    }

    pub(super) fn best_route(&self, prefix: Ipv4Prefix) -> Option<&Route> {
        self.best.get(&prefix).map(|e| e.route.as_ref())
    }

    pub(super) fn best_learned_from(&self, prefix: Ipv4Prefix) -> Option<Asn> {
        self.best.get(&prefix).and_then(|e| e.learned_from)
    }

    pub(super) fn best_origin(&self, prefix: Ipv4Prefix) -> Option<Asn> {
        let entry = self.best.get(&prefix)?;
        match entry.learned_from {
            None => Some(self.asn),
            Some(_) => entry.route.origin_as(),
        }
    }

    pub(super) fn originates(&self, prefix: Ipv4Prefix) -> bool {
        self.originated.contains_key(&prefix)
    }

    pub(super) fn prefixes(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.best.keys().copied()
    }

    pub(super) fn decision_count(&self) -> u64 {
        self.decisions
    }

    pub(super) fn adj_rib_in_size(&self) -> usize {
        self.adj_in.values().map(BTreeMap::len).sum()
    }

    pub(super) fn adj_rib_in(
        &self,
        prefix: Ipv4Prefix,
    ) -> impl Iterator<Item = (Asn, &Route)> + '_ {
        self.adj_in
            .get(&prefix)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&peer, entry)| (peer, entry.route.as_ref())))
    }

    pub(super) fn originate<M: RouteMonitor>(
        &mut self,
        route: Route,
        monitor: &mut M,
    ) -> Vec<(Asn, SharedUpdate)> {
        let prefix = route.prefix();
        self.originated.insert(prefix, Arc::new(route));
        self.reselect(prefix, monitor)
    }

    pub(super) fn withdraw_origin<M: RouteMonitor>(
        &mut self,
        prefix: Ipv4Prefix,
        monitor: &mut M,
    ) -> Vec<(Asn, SharedUpdate)> {
        if self.originated.remove(&prefix).is_none() {
            return Vec::new();
        }
        self.reselect(prefix, monitor)
    }

    pub(super) fn peer_down<M: RouteMonitor>(
        &mut self,
        peer: Asn,
        monitor: &mut M,
    ) -> Vec<(Asn, SharedUpdate)> {
        let mut affected: Vec<Ipv4Prefix> = Vec::new();
        for (&prefix, rib) in &mut self.adj_in {
            if rib.remove(&peer).is_some() {
                affected.push(prefix);
            }
        }
        for advertised in self.advertised.values_mut() {
            advertised.remove(&peer);
        }
        let mut out = Vec::new();
        for prefix in affected {
            out.extend(
                self.reselect(prefix, monitor)
                    .into_iter()
                    .filter(|(to, _)| *to != peer),
            );
        }
        out
    }

    pub(super) fn refresh_peer<M: RouteMonitor>(
        &mut self,
        peer: Asn,
        monitor: &mut M,
    ) -> Vec<(Asn, SharedUpdate)> {
        if !self.peers.contains(&peer) {
            return Vec::new();
        }
        let entries: Vec<(Ipv4Prefix, BestEntry)> = self
            .best
            .iter()
            .map(|(&prefix, entry)| (prefix, entry.clone()))
            .collect();
        let mut out = Vec::new();
        for (prefix, entry) in entries {
            if entry.learned_from == Some(peer) {
                continue; // split horizon
            }
            let outbound = Arc::new(entry.route.propagated_by(self.asn));
            match monitor.on_export(self.asn, peer, entry.learned_from, &outbound) {
                ExportAction::Forward => {
                    self.advertised.entry(prefix).or_default().insert(peer);
                    out.push((peer, SharedUpdate::Announce(outbound)));
                }
                ExportAction::Replace(route) => {
                    self.advertised.entry(prefix).or_default().insert(peer);
                    out.push((peer, SharedUpdate::announce(route)));
                }
                ExportAction::Suppress => {}
            }
        }
        out
    }

    pub(super) fn handle_update<M: RouteMonitor>(
        &mut self,
        from: Asn,
        update: SharedUpdate,
        monitor: &mut M,
    ) -> Vec<(Asn, SharedUpdate)> {
        let prefix = update.prefix();
        match update {
            SharedUpdate::Withdraw(_) => {
                let removed = self
                    .adj_in
                    .get_mut(&prefix)
                    .and_then(|m| m.remove(&from))
                    .is_some();
                if !removed {
                    return Vec::new();
                }
                monitor.on_withdraw(self.asn, from, prefix);
            }
            SharedUpdate::Announce(route) => {
                if route.as_path().contains(self.asn) {
                    let removed = self
                        .adj_in
                        .get_mut(&prefix)
                        .and_then(|m| m.remove(&from))
                        .is_some();
                    if !removed {
                        return Vec::new();
                    }
                    return self.reselect(prefix, monitor);
                }
                let decision = self.consult_monitor(from, &route, monitor);
                self.apply_evictions(prefix, from, &decision);
                self.age_clock += 1;
                let stamp = self.age_clock;
                let rib = self.adj_in.entry(prefix).or_default();
                if decision.reject {
                    rib.remove(&from);
                } else {
                    match rib.get_mut(&from) {
                        Some(entry) if entry.route == route => {}
                        Some(entry) => {
                            entry.route = route;
                            entry.installed_at = stamp;
                        }
                        None => {
                            rib.insert(
                                from,
                                RibEntry {
                                    route,
                                    installed_at: stamp,
                                },
                            );
                        }
                    }
                }
            }
        }
        self.reselect(prefix, monitor)
    }

    fn consult_monitor<M: RouteMonitor>(
        &self,
        from: Asn,
        route: &Route,
        monitor: &mut M,
    ) -> ImportDecision {
        let mut existing: Vec<(Option<Asn>, &Route)> = Vec::new();
        if let Some(own) = self.originated.get(&route.prefix()) {
            existing.push((None, own.as_ref()));
        }
        if let Some(rib) = self.adj_in.get(&route.prefix()) {
            for (&peer, held) in rib {
                if peer != from {
                    existing.push((Some(peer), held.route.as_ref()));
                }
            }
        }
        monitor.on_import(&ImportContext {
            local: self.asn,
            from_peer: from,
            route,
            existing: HeldRoutes::from_slice(&existing),
        })
    }

    fn apply_evictions(&mut self, prefix: Ipv4Prefix, from: Asn, decision: &ImportDecision) {
        if decision.evict_peers.is_empty() {
            return;
        }
        if let Some(rib) = self.adj_in.get_mut(&prefix) {
            for &peer in &decision.evict_peers {
                if peer != from {
                    rib.remove(&peer);
                }
            }
        }
    }

    fn reselect<M: RouteMonitor>(
        &mut self,
        prefix: Ipv4Prefix,
        monitor: &mut M,
    ) -> Vec<(Asn, SharedUpdate)> {
        self.decisions += 1;
        let new_best = self.decide(prefix);
        let old_best = self.best.get(&prefix);
        if old_best == new_best.as_ref() {
            return Vec::new();
        }
        match new_best {
            Some(entry) => {
                self.best.insert(prefix, entry.clone());
                self.export(prefix, &entry, monitor)
            }
            None => {
                self.best.remove(&prefix);
                let previously = self.advertised.remove(&prefix).unwrap_or_default();
                previously
                    .into_iter()
                    .map(|peer| (peer, SharedUpdate::withdraw(prefix)))
                    .collect()
            }
        }
    }

    fn decide(&self, prefix: Ipv4Prefix) -> Option<BestEntry> {
        let own = self
            .originated
            .get(&prefix)
            .map(|route| (route, None, 0u64));
        let learned = self.adj_in.get(&prefix).into_iter().flat_map(|rib| {
            rib.iter()
                .map(|(&peer, entry)| (&entry.route, Some(peer), entry.installed_at))
        });
        own.into_iter()
            .chain(learned)
            .min_by_key(|(route, learned_from, installed_at)| {
                (
                    Reverse(route.local_pref()),
                    route.as_path().selection_len(),
                    learned_from.is_some(),
                    *installed_at,
                    *learned_from,
                )
            })
            .map(|(route, learned_from, _)| BestEntry {
                route: Arc::clone(route),
                learned_from,
            })
    }

    fn export<M: RouteMonitor>(
        &mut self,
        prefix: Ipv4Prefix,
        entry: &BestEntry,
        monitor: &mut M,
    ) -> Vec<(Asn, SharedUpdate)> {
        let outbound = Arc::new(entry.route.propagated_by(self.asn));
        let mut sent_to: BTreeSet<Asn> = BTreeSet::new();
        let mut updates = Vec::with_capacity(self.peers.len());
        for &peer in &self.peers {
            if Some(peer) == entry.learned_from {
                continue;
            }
            match monitor.on_export(self.asn, peer, entry.learned_from, &outbound) {
                ExportAction::Forward => {
                    sent_to.insert(peer);
                    updates.push((peer, SharedUpdate::Announce(Arc::clone(&outbound))));
                }
                ExportAction::Replace(route) => {
                    sent_to.insert(peer);
                    updates.push((peer, SharedUpdate::announce(route)));
                }
                ExportAction::Suppress => {}
            }
        }
        let previously = self
            .advertised
            .insert(prefix, sent_to.clone())
            .unwrap_or_default();
        for peer in previously.difference(&sent_to) {
            updates.push((*peer, SharedUpdate::withdraw(prefix)));
        }
        updates
    }
}
