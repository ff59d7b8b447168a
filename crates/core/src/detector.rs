//! The §4.2 consistency check, as a pure function.

use std::borrow::Borrow;
use std::fmt;

use bgp_types::{Asn, Ipv4Prefix, MoasList, Route};

/// Why two announcements for the same prefix conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// A route's origin AS is not a member of its own (effective) MOAS list.
    ///
    /// §4.1: "a faulty route's origin AS will not be in p's MOAS list" — the
    /// self-test form, detectable from a single announcement when the
    /// attacker copies the honest list verbatim without adding itself.
    OriginNotInList,
    /// Two announcements carry different MOAS list sets (§4.2: "the set of
    /// ASes included in each route announcement must be identical").
    InconsistentLists,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConflictKind::OriginNotInList => "origin AS not in its own MOAS list",
            ConflictKind::InconsistentLists => "inconsistent MOAS lists",
        })
    }
}

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
/// route. Implemented for `(Option<Asn>, R)` pairs with any
/// [`Borrow<Route>`](Borrow) route side, and for references to them, so
/// owned lists, lists of references and a router's lazily walked
/// [`HeldRoutes`](bgp_engine::HeldRoutes) all qualify without cloning.
pub trait HeldRoute {
    /// The `(learned-from peer, route)` pair.
    fn held(&self) -> (Option<Asn>, &Route);
}

impl<R: Borrow<Route>> HeldRoute for (Option<Asn>, R) {
    fn held(&self) -> (Option<Asn>, &Route) {
        (self.0, self.1.borrow())
    }
}

impl<H: HeldRoute + ?Sized> HeldRoute for &H {
    fn held(&self) -> (Option<Asn>, &Route) {
        (**self).held()
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
/// This is deliberately a pure function: the in-line [`MoasMonitor`]
/// (§4.2's modified-BGP deployment) and the [`OfflineMonitor`] (§4.2's
/// monitoring-process deployment) both call it.
///
/// [`MoasMonitor`]: crate::MoasMonitor
/// [`OfflineMonitor`]: crate::OfflineMonitor
#[must_use]
pub fn find_conflict<I>(route: &Route, existing: I) -> Option<Conflict>
where
    I: IntoIterator,
    I::Item: HeldRoute,
{
    let incoming_list = route.effective_moas_list()?;

    // Self-test: a route whose origin is not in its own list is malformed.
    if let Some(origin) = route.origin_as() {
        if !incoming_list.contains(origin) {
            return Some(Conflict {
                prefix: route.prefix(),
                kind: ConflictKind::OriginNotInList,
                incoming_origin: Some(origin),
                incoming_list,
                conflicting_with: None,
            });
        }
    }

    // Pairwise set comparison against every held route for this prefix.
    for entry in existing {
        let (peer, held) = entry.held();
        if held.prefix() != route.prefix() {
            continue;
        }
        let Some(held_list) = held.effective_moas_list() else {
            continue;
        };
        if !incoming_list.is_consistent_with(&held_list) {
            return Some(Conflict {
                prefix: route.prefix(),
                kind: ConflictKind::InconsistentLists,
                incoming_origin: route.origin_as(),
                incoming_list,
                conflicting_with: Some((peer, held.origin_as())),
            });
        }
    }
    None
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
        let conflict = find_conflict(&forged, NOTHING_HELD).unwrap();
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
        assert!(find_conflict(&aggregate, NOTHING_HELD).is_none());
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
