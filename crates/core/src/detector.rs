//! The §4.2 consistency check over routes: [`find_conflict`] applies
//! [`bgp_types::first_conflict`] to a route and the routes held for it.

use std::borrow::Borrow;
use std::fmt;

use bgp_types::{first_conflict, Asn, Ipv4Prefix, MoasList, Route};

pub use bgp_types::ConflictKind;

/// A detected MOAS conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The prefix under dispute.
    pub prefix: Ipv4Prefix,
    /// What kind of inconsistency was observed.
    pub kind: ConflictKind,
    /// Origin of the route that triggered the check.
    pub incoming_origin: Option<Asn>,
    /// The MOAS list (effective) of the triggering route.
    pub incoming_list: MoasList,
    /// For [`ConflictKind::InconsistentLists`]: the first existing route the
    /// incoming one disagreed with, as `(peer it was learned from, origin)`.
    pub conflicting_with: Option<(Option<Asn>, Option<Asn>)>,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (origin {:?})",
            self.prefix, self.kind, self.incoming_origin
        )
    }
}

/// One route held for the prefix, as [`find_conflict`] reads it: the peer
/// it was learned from (`None` for a locally originated route) and the
/// route, borrowed for `'r`. Implemented for `(Option<Asn>, &Route)` pairs
/// and for references to `(Option<Asn>, R)` pairs with any
/// [`Borrow<Route>`](Borrow) route side, so owned lists, lists of
/// references and a router's lazily walked
/// [`HeldRoutes`](bgp_engine::HeldRoutes) all qualify without cloning.
pub trait HeldRoute<'r> {
    /// The `(learned-from peer, route)` pair.
    fn held(self) -> (Option<Asn>, &'r Route);
}

impl<'r> HeldRoute<'r> for (Option<Asn>, &'r Route) {
    fn held(self) -> (Option<Asn>, &'r Route) {
        self
    }
}

impl<'r, R: Borrow<Route>> HeldRoute<'r> for &'r (Option<Asn>, R) {
    fn held(self) -> (Option<Asn>, &'r Route) {
        (self.0, self.1.borrow())
    }
}

/// Checks an arriving route against the routes already held for its prefix,
/// returning the first conflict found.
///
/// `existing` yields `(learned-from peer, route)` pairs (see [`HeldRoute`]);
/// `None` marks a locally originated route. It is walked once, in order, and
/// only as far as the first conflict. Routes without an attached list are
/// treated as carrying the implicit `{origin}` list (footnote 3). Routes
/// with no well-defined origin and no list (empty path aggregates) cannot
/// be checked and never conflict.
///
/// The rule itself is [`bgp_types::first_conflict`]; this adapter reads
/// each route's list field and names the conflicting entry. All three users
/// of the check run that one rule: the in-line [`MoasMonitor`] (§4.2's
/// modified-BGP deployment) and the [`OfflineMonitor`] (§4.2's
/// monitoring-process deployment) through this function, and the
/// ensemble's passive `route_measurement::MoasListDetector` directly.
///
/// [`MoasMonitor`]: crate::MoasMonitor
/// [`OfflineMonitor`]: crate::OfflineMonitor
#[must_use]
pub fn find_conflict<'r, I>(route: &Route, existing: I) -> Option<Conflict>
where
    I: IntoIterator,
    I::Item: HeldRoute<'r>,
{
    let prefix = route.prefix();
    let origin = route.origin_as();
    let list = route.moas_list();
    let held = existing.into_iter().filter_map(|entry| {
        let (peer, held) = entry.held();
        if held.prefix() != prefix {
            return None;
        }
        let held_list = held.moas_list();
        // The rule reads a held route's origin only for its implicit list.
        let held_origin = held_list.is_none().then(|| held.origin_as()).flatten();
        Some(((peer, held), held_origin, held_list))
    });
    let (kind, conflicting) = first_conflict(origin, list, held)?;
    Some(Conflict {
        prefix,
        kind,
        incoming_origin: origin,
        incoming_list: list.cloned().or_else(|| origin.map(MoasList::implicit))?,
        conflicting_with: conflicting.map(|(peer, held)| (peer, held.origin_as())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::AsPath;

    const NOTHING_HELD: [(Option<Asn>, Route); 0] = [];

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    fn route(origin: u32, list: Option<&[u32]>) -> Route {
        let mut r = Route::new(p(), AsPath::origination(Asn(origin)));
        if let Some(members) = list {
            r = r.with_moas_list(members.iter().map(|&a| Asn(a)).collect());
        }
        r
    }

    #[test]
    fn consistent_lists_do_not_conflict() {
        let a = route(1, Some(&[1, 2]));
        let b = route(2, Some(&[1, 2]));
        assert!(find_conflict(&a, &[(Some(Asn(9)), b)]).is_none());
    }

    #[test]
    fn single_origin_implicit_lists_agree() {
        // Two paths to the same origin: implicit lists are both {4}.
        let a = route(4, None);
        let b = route(4, None);
        assert!(find_conflict(&a, &[(Some(Asn(9)), b)]).is_none());
    }

    #[test]
    fn different_origins_without_lists_conflict() {
        // Figure 3: implicit {4} vs implicit {52}.
        let valid = route(4, None);
        let false_route = route(52, None);
        let conflict = find_conflict(&false_route, &[(Some(Asn(9)), valid)]).unwrap();
        assert_eq!(conflict.kind, ConflictKind::InconsistentLists);
        assert_eq!(conflict.incoming_origin, Some(Asn(52)));
        assert_eq!(
            conflict.conflicting_with,
            Some((Some(Asn(9)), Some(Asn(4))))
        );
    }

    #[test]
    fn forged_superset_list_conflicts() {
        // §4.1: AS 3 attaches {1, 2, 3}; honest list is {1, 2}.
        let honest = route(1, Some(&[1, 2]));
        let forged = route(3, Some(&[1, 2, 3]));
        let conflict = find_conflict(&forged, &[(None, honest)]).unwrap();
        assert_eq!(conflict.kind, ConflictKind::InconsistentLists);
    }

    #[test]
    fn copying_the_honest_list_fails_the_self_test() {
        // Attacker copies {1, 2} exactly but originates from AS 3.
        let forged = route(3, Some(&[1, 2]));
        let conflict = find_conflict(&forged, &NOTHING_HELD).unwrap();
        assert_eq!(conflict.kind, ConflictKind::OriginNotInList);
        assert_eq!(conflict.incoming_origin, Some(Asn(3)));
    }

    #[test]
    fn dropped_list_raises_false_alarm_against_multi_origin_prefix() {
        // §4.3: a transit dropped the community; implicit {1} now disagrees
        // with the advertised {1, 2}. Detection fires (a false alarm, to be
        // cleared by the verifier).
        let with_list = route(2, Some(&[1, 2]));
        let stripped = route(1, None);
        let conflict = find_conflict(&stripped, &[(Some(Asn(9)), with_list)]).unwrap();
        assert_eq!(conflict.kind, ConflictKind::InconsistentLists);
    }

    #[test]
    fn no_origin_and_no_list_is_uncheckable() {
        let aggregate = Route::new(p(), AsPath::new());
        assert!(find_conflict(&aggregate, &NOTHING_HELD).is_none());
    }

    #[test]
    fn different_prefix_entries_are_ignored() {
        let other = Route::new("10.0.0.0/8".parse().unwrap(), AsPath::origination(Asn(7)));
        let incoming = route(4, None);
        assert!(find_conflict(&incoming, &[(Some(Asn(9)), other)]).is_none());
    }

    #[test]
    fn first_conflicting_entry_is_reported() {
        let incoming = route(4, None);
        let same = route(4, None);
        let different = route(5, None);
        let conflict = find_conflict(
            &incoming,
            &[(Some(Asn(1)), same), (Some(Asn(2)), different)],
        )
        .unwrap();
        assert_eq!(
            conflict.conflicting_with,
            Some((Some(Asn(2)), Some(Asn(5))))
        );
    }

    #[test]
    fn display_formats() {
        let incoming = route(52, None);
        let valid = route(4, None);
        let conflict = find_conflict(&incoming, &[(None, valid)]).unwrap();
        let s = conflict.to_string();
        assert!(s.contains("208.8.0.0/16"));
        assert!(s.contains("inconsistent"));
        assert_eq!(
            ConflictKind::OriginNotInList.to_string(),
            "origin AS not in its own MOAS list"
        );
    }
}
