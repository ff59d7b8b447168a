//! The AS path's cached summary against the segments it summarises.
//!
//! An `AsPath` keeps its selection length and a filter of its member ASNs
//! beside its segments, and `contains` trusts a clear filter bit. So every
//! way of building a path must leave the summary equal to a recomputation,
//! and a path's equality and hash must not depend on how it was built.
//! (The wire decoder's `to_as_path` is checked the same way in bgp-wire's
//! `view_props.rs`.)

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bgp_types::{AsPath, AsPathSegment, Asn, SegmentKind};
use proptest::prelude::*;

/// Small ASNs collide in the filter and repeat within a path; the rest span
/// the 4-byte range, far above 65,535.
fn asn() -> impl Strategy<Value = Asn> {
    prop_oneof![(0u32..40).prop_map(Asn), any::<u32>().prop_map(Asn)]
}

/// Segments as a decoder or an aggregator may hand them over: empty ones
/// and adjacent sequences included, for `from_segments` to canonicalise.
fn segments() -> impl Strategy<Value = Vec<AsPathSegment>> {
    let segment = prop_oneof![
        prop::collection::vec(asn(), 0..6).prop_map(AsPathSegment::Sequence),
        prop::collection::vec(asn(), 0..4).prop_map(AsPathSegment::Set),
    ];
    prop::collection::vec(segment, 0..5)
}

fn selection_len(path: &AsPath) -> usize {
    let lens = path.segments().map(|(kind, asns)| match kind {
        SegmentKind::Sequence => asns.len(),
        SegmentKind::Set => 1,
    });
    lens.sum()
}

fn hash_of(path: &AsPath) -> u64 {
    let mut hasher = DefaultHasher::new();
    path.hash(&mut hasher);
    hasher.finish()
}

/// The summary agrees with a scan of the segments, for every member and
/// for each probe, and a rebuild from the same segments is the same path.
fn assert_summarised(path: &AsPath, probes: &[Asn]) {
    assert_eq!(path.selection_len(), selection_len(path), "{path}");
    let members: Vec<Asn> = path
        .segments()
        .flat_map(|(_, asns)| asns)
        .copied()
        .collect();
    for &asn in members.iter().chain(probes) {
        assert_eq!(path.contains(asn), members.contains(&asn), "{path} / {asn}");
    }
    let rebuilt = AsPath::from_segments(path.segments().map(|(kind, asns)| match kind {
        SegmentKind::Sequence => AsPathSegment::Sequence(asns.to_vec()),
        SegmentKind::Set => AsPathSegment::Set(asns.to_vec()),
    }));
    assert_eq!(&rebuilt, path);
    assert_eq!(hash_of(&rebuilt), hash_of(path), "{path}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_constructor_keeps_the_summary_exact(
        segments in segments(),
        sequence in prop::collection::vec(asn(), 0..6),
        prepends in prop::collection::vec(asn(), 0..4),
        probes in prop::collection::vec(asn(), 0..8),
    ) {
        let path = AsPath::from_segments(segments);
        assert_summarised(&path, &probes);
        assert_summarised(&AsPath::from_sequence(sequence.clone()), &probes);
        let parsed: AsPath = path.to_string().parse().expect("display parses back");
        prop_assert_eq!(&parsed, &path);
        prop_assert_eq!(hash_of(&parsed), hash_of(&path));
        assert_summarised(&parsed, &probes);

        // `prepend` in place and `prepended` on a copy, one hop at a time,
        // against the same path built whole from its final segments.
        let (mut in_place, mut copied) = (path.clone(), path);
        for &asn in &prepends {
            in_place.prepend(asn);
            copied = copied.prepended(asn);
            prop_assert_eq!(&in_place, &copied);
            prop_assert_eq!(hash_of(&in_place), hash_of(&copied));
            assert_summarised(&in_place, &probes);
        }
        let whole = AsPath::from_sequence(prepends.iter().rev().copied().chain(sequence));
        let mut grown = AsPath::from_sequence(Vec::new());
        for asn in whole.iter().collect::<Vec<_>>().into_iter().rev() {
            grown.prepend(asn);
        }
        prop_assert_eq!(&grown, &whole);
        prop_assert_eq!(hash_of(&grown), hash_of(&whole));
        assert_summarised(&grown, &probes);
    }
}
