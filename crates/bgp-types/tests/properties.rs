//! Property-based tests for the BGP primitive types.

use bgp_types::{
    first_conflict, AsPath, AsPathSegment, Asn, Community, Ipv4Prefix, MoasList, Route,
};
use proptest::prelude::*;

fn arb_asn() -> impl Strategy<Value = Asn> {
    // 2-octet ASNs, AS 65535 (IANA-reserved, RFC 7300) aside, so classic
    // communities built from them keep their ASN.
    (0u32..=65_534).prop_map(Asn)
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len))
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(arb_asn(), 1..5).prop_map(AsPathSegment::Sequence),
            prop::collection::vec(arb_asn(), 1..4).prop_map(AsPathSegment::Set),
        ],
        0..4,
    )
    .prop_map(AsPath::from_segments)
}

fn arb_moas_list() -> impl Strategy<Value = MoasList> {
    prop::collection::btree_set(arb_asn(), 0..6)
        .prop_map(|set| set.into_iter().collect::<MoasList>())
}

proptest! {
    #[test]
    fn prefix_display_parse_round_trip(p in arb_prefix()) {
        let parsed: Ipv4Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn prefix_construction_is_idempotent(p in arb_prefix()) {
        prop_assert_eq!(Ipv4Prefix::new(p.network(), p.len()), p);
    }

    #[test]
    fn prefix_contains_is_reflexive(p in arb_prefix()) {
        prop_assert!(p.contains(p));
    }

    #[test]
    fn prefix_contains_is_antisymmetric(a in arb_prefix(), b in arb_prefix()) {
        if a.contains(b) && b.contains(a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn prefix_contains_is_transitive(a in arb_prefix(), b in arb_prefix(), c in arb_prefix()) {
        if a.contains(b) && b.contains(c) {
            prop_assert!(a.contains(c));
        }
    }

    #[test]
    fn prefix_split_children_are_disjoint_and_covered(p in arb_prefix()) {
        if let Some((low, high)) = p.split() {
            prop_assert!(p.contains(low));
            prop_assert!(p.contains(high));
            prop_assert!(!low.overlaps(high));
            prop_assert!(low.is_more_specific_of(p));
            prop_assert!(high.is_more_specific_of(p));
        }
    }

    #[test]
    fn default_route_contains_everything(p in arb_prefix()) {
        prop_assert!(Ipv4Prefix::DEFAULT.contains(p));
    }

    #[test]
    fn as_path_display_parse_round_trip(path in arb_as_path()) {
        let parsed: AsPath = path.to_string().parse().unwrap();
        prop_assert_eq!(parsed, path);
    }

    #[test]
    fn prepend_preserves_origin_and_extends_len(path in arb_as_path(), asn in arb_asn()) {
        let before_origin = path.origin();
        let before_len = path.selection_len();
        let after = path.prepended(asn);
        prop_assert_eq!(after.first(), Some(asn));
        if before_origin.is_some() {
            prop_assert_eq!(after.origin(), before_origin);
        }
        prop_assert_eq!(after.selection_len(), before_len + 1);
        prop_assert!(after.contains(asn));
    }

    #[test]
    fn adjacent_pairs_are_members(path in arb_as_path()) {
        for (a, b) in path.adjacent_pairs() {
            prop_assert!(path.contains(a));
            prop_assert!(path.contains(b));
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn moas_list_is_the_route_field(
        members in prop::collection::btree_set(any::<u32>(), 0..6),
        origin in any::<u32>(),
    ) {
        // Any 4-octet members: the field stores the list, and an empty list
        // reads back as none (the implicit-list rule then applies).
        let list: MoasList = members.iter().map(|&a| Asn(a)).collect();
        let route = Route::new(Ipv4Prefix::new(0xC000_0200, 24), AsPath::origination(Asn(origin)))
            .with_moas_list(list.clone());
        prop_assert_eq!(route.moas_list(), (!list.is_empty()).then_some(&list));
        prop_assert!(route.communities().is_empty());
        let effective = if list.is_empty() { MoasList::implicit(Asn(origin)) } else { list };
        prop_assert_eq!(route.effective_moas_list(), Some(effective));
    }

    #[test]
    fn moas_consistency_is_an_equivalence(a in arb_moas_list(), b in arb_moas_list(), c in arb_moas_list()) {
        // §4.2's pairwise check between two explicit lists, self-test aside.
        let consistent = |x: &MoasList, y: &MoasList| {
            first_conflict(None, Some(x), [((), None, Some(y))]).is_none()
        };
        // reflexive
        prop_assert!(consistent(&a, &a));
        // symmetric
        prop_assert_eq!(consistent(&a, &b), consistent(&b, &a));
        // set equality, so transitive
        prop_assert_eq!(consistent(&a, &b), a == b);
        if consistent(&a, &b) && consistent(&b, &c) {
            prop_assert!(consistent(&a, &c));
        }
    }

    #[test]
    fn community_encoding_round_trips_16bit_asns(asn in arb_asn(), value in any::<u16>()) {
        let c = Community::new(asn, value);
        if asn != Asn(0xFFFF) {
            prop_assert_eq!(c.asn(), asn);
        }
        prop_assert_eq!(c.value(), value);
    }

    #[test]
    fn propagation_chain_keeps_origin(origin in arb_asn(), hops in prop::collection::vec(arb_asn(), 0..6)) {
        let prefix = Ipv4Prefix::new(0xC000_0200, 24);
        let mut route = Route::new(prefix, AsPath::origination(origin));
        for hop in &hops {
            route = route.propagated_by(*hop);
        }
        prop_assert_eq!(route.origin_as(), Some(origin));
        prop_assert_eq!(route.as_path().selection_len(), hops.len() + 1);
    }

    #[test]
    fn effective_list_defaults_to_origin(origin in arb_asn()) {
        let prefix = Ipv4Prefix::new(0xC000_0200, 24);
        let route = Route::new(prefix, AsPath::origination(origin));
        prop_assert_eq!(route.effective_moas_list(), Some(MoasList::implicit(origin)));
    }
}
