//! The AS path's two forms and the route's shared attributes, against plain
//! models.
//!
//! An `AsPath` keeps a pure `AS_SEQUENCE` of up to 11 ASNs inside the value
//! and anything else on the heap. The first property builds paths of 0 to 14
//! ASNs, with and without `AS_SET`s, in every way a path can be built —
//! `from_sequence`, `from_segments`, `prepend` and `prepended` one hop at a
//! time across the 11/12 boundary, `FromStr`, and bgp-wire's decoder — and
//! checks every accessor against a `Vec<AsPathSegment>` model, `Debug`
//! against the model's derived rendering, and that all the builds are `==`
//! and hash alike whatever form each took.
//!
//! A `Route` keeps its communities and MOAS list behind one shared pointer
//! that it copies before a change. The second property checks that clearing
//! them, propagating the route and applying a community policy read exactly
//! as a route built from scratch, and never change a route that shared them.
//!
//! `PROPTEST_CASES=N` overrides the case count.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bgp_engine::{CommunityPolicy, REWRITE_MARKER_VALUE};
use bgp_types::{
    AsPath, AsPathSegment, Asn, Community, Ipv4Prefix, MoasList, Route, RouteOrigin, SegmentKind,
};
use bgp_wire::bgp::{AsnEncoding, UpdateMessage};
use bgp_wire::UpdateView;
use proptest::prelude::*;

/// The derived `Debug` of a path as a plain list of segments: what
/// `AsPath`'s hand-written `Debug` must keep printing.
mod plain {
    #[derive(Debug)]
    #[allow(dead_code)] // Read only through `Debug`.
    pub struct AsPath {
        pub segments: Vec<bgp_types::AsPathSegment>,
    }
}

/// Small ASNs repeat within a path and collide in the member filter; the
/// rest span the 4-byte range.
fn asn() -> impl Strategy<Value = Asn> {
    prop_oneof![(1u32..24).prop_map(Asn), any::<u32>().prop_map(Asn)]
}

/// Raw segments holding 0 to 14 ASNs in all, as a decoder or an aggregator
/// may hand them over: half the time one pure sequence (the inline form up
/// to 11), otherwise up to four segments with empty ones, sets and adjacent
/// sequences among them.
fn raw_segments() -> impl Strategy<Value = Vec<AsPathSegment>> {
    let segment = prop_oneof![
        prop::collection::vec(asn(), 0..8).prop_map(AsPathSegment::Sequence),
        prop::collection::vec(asn(), 0..4).prop_map(AsPathSegment::Set),
    ];
    let pure =
        prop::collection::vec(asn(), 0..15).prop_map(|asns| vec![AsPathSegment::Sequence(asns)]);
    let mixed = prop::collection::vec(segment, 0..5).prop_map(|mut segments| {
        // Keep the total to 14: trim members from the back.
        let mut budget = 14usize;
        for segment in &mut segments {
            let asns = match segment {
                AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
            };
            asns.truncate(budget);
            budget -= asns.len();
        }
        segments
    });
    prop_oneof![pure, mixed]
}

/// The canonical model: empty segments dropped, adjacent sequences merged.
fn canonical(raw: &[AsPathSegment]) -> Vec<AsPathSegment> {
    let mut out: Vec<AsPathSegment> = Vec::new();
    for segment in raw.iter().filter(|s| !s.asns().is_empty()) {
        match (out.last_mut(), segment) {
            (Some(AsPathSegment::Sequence(tail)), AsPathSegment::Sequence(next)) => {
                tail.extend_from_slice(next);
            }
            (_, segment) => out.push(segment.clone()),
        }
    }
    out
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The looking-glass text of the model.
fn display(model: &[AsPathSegment]) -> String {
    let words = model.iter().map(|segment| {
        let asns: Vec<String> = segment.asns().iter().map(|asn| asn.0.to_string()).collect();
        match segment {
            AsPathSegment::Sequence(_) => asns.join(" "),
            AsPathSegment::Set(_) => format!("{{{}}}", asns.join(" ")),
        }
    });
    words.collect::<Vec<_>>().join(" ")
}

/// Every accessor of `path` against the canonical `model`.
fn assert_models(path: &AsPath, model: &[AsPathSegment], probes: &[Asn]) {
    let views: Vec<(SegmentKind, &[Asn])> = model.iter().map(|s| (s.kind(), s.asns())).collect();
    assert_eq!(path.segments().collect::<Vec<_>>(), views);
    let members: Vec<Asn> = model
        .iter()
        .flat_map(AsPathSegment::asns)
        .copied()
        .collect();
    assert_eq!(path.iter().collect::<Vec<_>>(), members);
    assert_eq!(path.is_empty(), model.is_empty());
    assert_eq!(path.hop_len(), members.len());
    let selection: usize = model
        .iter()
        .map(|segment| match segment {
            AsPathSegment::Sequence(asns) => asns.len(),
            AsPathSegment::Set(_) => 1,
        })
        .sum();
    assert_eq!(path.selection_len(), selection);
    let origin = match model.last() {
        Some(AsPathSegment::Sequence(asns)) => asns.last().copied(),
        _ => None,
    };
    assert_eq!(path.origin(), origin);
    assert_eq!(path.first(), members.first().copied());
    for &asn in members.iter().chain(probes) {
        assert_eq!(path.contains(asn), members.contains(&asn), "{path} / {asn}");
    }
    assert_eq!(path.to_string(), display(model));
    let plain = plain::AsPath {
        segments: model.to_vec(),
    };
    assert_eq!(format!("{path:?}"), format!("{plain:?}"));
    assert_eq!(format!("{path:#?}"), format!("{plain:#?}"));
}

/// The path through an UPDATE's bytes and bgp-wire's view decoder.
fn through_the_wire(path: &AsPath) -> AsPath {
    let route = Route::new(Ipv4Prefix::new(0x0A00_0000, 8), path.clone());
    let bytes = UpdateMessage::announce(&route)
        .encode(AsnEncoding::FourOctet)
        .expect("a short path encodes");
    let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet).expect("parses");
    view.attrs().expect("has attributes").to_as_path()
}

fn prefix() -> Ipv4Prefix {
    Ipv4Prefix::new(0xD008_0000, 16)
}

/// A route built from scratch with exactly these attributes.
fn fresh(
    path: &AsPath,
    origin: RouteOrigin,
    local_pref: u32,
    communities: &[Community],
    list: Option<&MoasList>,
) -> Route {
    let mut route = Route::new(prefix(), path.clone())
        .with_origin(origin)
        .with_local_pref(local_pref);
    for &community in communities {
        route = route.with_community(community);
    }
    match list {
        Some(list) => route.with_moas_list(list.clone()),
        None => route,
    }
}

fn route_origin() -> impl Strategy<Value = RouteOrigin> {
    prop_oneof![
        Just(RouteOrigin::Igp),
        Just(RouteOrigin::Egp),
        Just(RouteOrigin::Incomplete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_build_of_a_path_reads_as_its_segments(
        raw in raw_segments(),
        probes in prop::collection::vec(asn(), 0..6),
    ) {
        let model = canonical(&raw);
        let path = AsPath::from_segments(raw.clone());
        assert_models(&path, &model, &probes);

        let mut builds = vec![path.clone()];
        if let [] | [AsPathSegment::Sequence(_)] = model.as_slice() {
            let asns = model.first().map_or(&[][..], AsPathSegment::asns);
            builds.push(AsPath::from_sequence(asns.iter().copied()));
        }
        builds.push(path.to_string().parse().expect("display parses back"));
        builds.push(through_the_wire(&path));

        // One hop at a time onto what follows the leading sequence, in
        // place and by copy: a path of 12 or more crosses into the heap.
        let (lead, rest) = match model.split_first() {
            Some((AsPathSegment::Sequence(lead), rest)) => (lead.as_slice(), rest),
            _ => (&[][..], model.as_slice()),
        };
        let base = AsPath::from_segments(rest.to_vec());
        let (mut in_place, mut copied) = (base.clone(), base);
        for (built, &asn) in lead.iter().rev().enumerate() {
            in_place.prepend(asn);
            copied = copied.prepended(asn);
            prop_assert_eq!(&in_place, &copied);
            let mut grown = vec![AsPathSegment::Sequence(lead[lead.len() - built - 1..].to_vec())];
            grown.extend_from_slice(rest);
            assert_models(&in_place, &canonical(&grown), &probes);
            assert_models(&copied, &canonical(&grown), &probes);
        }
        builds.push(in_place);
        builds.push(copied);

        for build in &builds {
            assert_models(build, &model, &probes);
            prop_assert_eq!(build, &path);
            prop_assert_eq!(hash_of(build), hash_of(&path));
        }
    }

    #[test]
    fn shared_attributes_read_as_a_fresh_route(
        path in raw_segments().prop_map(AsPath::from_segments),
        origin in route_origin(),
        local_pref in 0u32..300,
        communities in prop::collection::vec(any::<u32>().prop_map(Community), 0..3),
        members in prop::collection::btree_set(asn(), 0..4),
        via in asn(),
        clear_list_first in any::<bool>(),
    ) {
        let list: Option<MoasList> = (!members.is_empty()).then(|| members.into_iter().collect());
        let route = fresh(&path, origin, local_pref, &communities, list.as_ref());
        let bare = fresh(&path, origin, local_pref, &[], None);

        // Clearing both, in either order, is a route that never had them,
        // and leaves a route that shared them as it was.
        let mut cleared = route.clone();
        if clear_list_first {
            cleared.set_moas_list(None);
            cleared.set_communities(Vec::new());
        } else {
            cleared.set_communities(Vec::new());
            cleared.set_moas_list(None);
        }
        prop_assert_eq!(&cleared, &bare);
        prop_assert_eq!(hash_of(&cleared), hash_of(&bare));
        prop_assert_eq!(route.communities(), communities.as_slice());
        prop_assert_eq!(route.moas_list(), list.as_ref());
        let mut emptied = route.clone();
        emptied.set_moas_list(Some(MoasList::new()));
        prop_assert_eq!(emptied.moas_list(), None);

        // Propagation changes the path and nothing else.
        let propagated = route.propagated_by(via);
        prop_assert_eq!(propagated.as_path(), &path.prepended(via));
        prop_assert_eq!(propagated.prefix(), route.prefix());
        prop_assert_eq!(propagated.origin(), origin);
        prop_assert_eq!(propagated.local_pref(), local_pref);
        prop_assert_eq!(propagated.communities(), communities.as_slice());
        prop_assert_eq!(propagated.moas_list(), list.as_ref());
        let prepended = fresh(&path.prepended(via), origin, local_pref, &communities, list.as_ref());
        prop_assert_eq!(&propagated, &prepended);
        prop_assert_eq!(format!("{propagated:?}"), format!("{prepended:?}"));

        // Each community policy at `via`, on the route and on its
        // propagated copy (which shares its attributes), against the route
        // it must give; neither input changes.
        let carries = !communities.is_empty() || list.is_some();
        let marker = [Community::new(via, REWRITE_MARKER_VALUE)];
        for policy in CommunityPolicy::ALL {
            for input in [&route, &propagated] {
                let at = input.as_path();
                let expected = match policy {
                    CommunityPolicy::Propagate => None,
                    CommunityPolicy::StripMoas => list
                        .is_some()
                        .then(|| fresh(at, origin, local_pref, &communities, None)),
                    CommunityPolicy::StripAll => {
                        carries.then(|| fresh(at, origin, local_pref, &[], None))
                    }
                    CommunityPolicy::Rewrite => {
                        carries.then(|| fresh(at, origin, local_pref, &marker, None))
                    }
                };
                prop_assert_eq!(policy.apply(via, input), expected, "{}", policy);
            }
            prop_assert_eq!(route.communities(), communities.as_slice());
            prop_assert_eq!(route.moas_list(), list.as_ref());
            prop_assert_eq!(&propagated, &prepended);
        }
    }
}
