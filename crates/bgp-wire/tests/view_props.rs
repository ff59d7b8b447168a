//! Differential property tests: the crate's one decoder — the views
//! (`UpdateView`/`MrtRecordView`/`MrtViewReader`) and the owned values they
//! rebuild — must be *observationally identical* to the spec decoder in
//! `tests/spec` — same accepted inputs, same values, and the same
//! `WireError` kind **and offset** on every rejected input, including
//! truncations, random byte flips, and raw garbage. These tests are what
//! lets the hot path chase throughput without re-litigating correctness.

mod spec;

use bgp_types::{
    AsPath, AsPathSegment, Asn, Community, Ipv4Prefix, Ipv6Prefix, RouteOrigin, SegmentKind,
};
use bgp_wire::bgp::{AsnEncoding, MpReach, MpUnreach, PathAttributes, UpdateMessage};
use bgp_wire::mrt::{
    Bgp4mpMessage, MrtBody, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
    RibIpv6Unicast,
};
use bgp_wire::{AttrInterner, LargeCommunity, MrtViewReader, UpdateView, MOAS_LIST_VALUE};
use proptest::prelude::*;

// --- strategies (same corpus shapes as tests/props.rs) --------------------

fn asn16() -> impl Strategy<Value = Asn> + Clone {
    (1u32..0x1_0000).prop_map(Asn)
}

fn asn32() -> impl Strategy<Value = Asn> + Clone {
    (1u32..u32::MAX).prop_map(Asn)
}

fn prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len))
}

fn as_path(asn: impl Strategy<Value = Asn> + Clone) -> impl Strategy<Value = AsPath> {
    (
        prop::collection::vec(asn.clone(), 1..5),
        prop::collection::btree_set(asn, 0..3),
    )
        .prop_map(|(seq, set)| {
            AsPath::from_segments([
                AsPathSegment::Sequence(seq),
                AsPathSegment::Set(set.into_iter().collect()),
            ])
        })
}

fn prefix6() -> impl Strategy<Value = Ipv6Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| Ipv6Prefix::new(addr, len))
}

fn mp_reach() -> impl Strategy<Value = MpReach> {
    (
        prop_oneof![Just(16usize), Just(32)],
        prop::collection::vec(prefix6(), 0..3),
    )
        .prop_map(|(nh_len, nlri)| MpReach {
            next_hop: vec![0xFE; nh_len],
            nlri,
        })
}

fn mp_unreach() -> impl Strategy<Value = MpUnreach> {
    prop::collection::vec(prefix6(), 0..3).prop_map(|withdrawn| MpUnreach { withdrawn })
}

/// Any classic community, often a MOAS marker (stray or well-known) and
/// sometimes repeated.
fn communities() -> impl Strategy<Value = Vec<Community>> {
    let community = prop_oneof![
        any::<u32>().prop_map(Community),
        (asn16(), any::<u16>()).prop_map(|(a, v)| Community::new(a, v)),
        asn16().prop_map(|a| Community::new(a, MOAS_LIST_VALUE)),
    ];
    (prop::collection::vec(community, 0..4), any::<bool>()).prop_map(|(mut all, repeat)| {
        if let (true, Some(&first)) = (repeat, all.first()) {
            all.push(first);
        }
        all
    })
}

/// Any large community, often a MOAS marker of a 4-octet member.
fn large_communities() -> impl Strategy<Value = Vec<LargeCommunity>> {
    let ml = u32::from(MOAS_LIST_VALUE);
    let large = (
        asn32(),
        prop_oneof![Just(ml), any::<u32>()],
        prop_oneof![Just(0), any::<u32>()],
    )
        .prop_map(|(member, local1, local2)| LargeCommunity {
            global: member.0,
            local1,
            local2,
        });
    prop::collection::vec(large, 0..3)
}

fn origin() -> impl Strategy<Value = RouteOrigin> {
    prop_oneof![
        Just(RouteOrigin::Igp),
        Just(RouteOrigin::Egp),
        Just(RouteOrigin::Incomplete),
    ]
}

fn attrs(asn: impl Strategy<Value = Asn> + Clone) -> impl Strategy<Value = PathAttributes> {
    (
        origin(),
        as_path(asn),
        any::<u32>(),
        prop_oneof![Just(None), (0u32..1000).prop_map(Some)],
        communities(),
        large_communities(),
        prop_oneof![Just(None), mp_reach().prop_map(Some)],
        prop_oneof![Just(None), mp_unreach().prop_map(Some)],
    )
        .prop_map(
            |(
                origin,
                as_path,
                next_hop,
                local_pref,
                communities,
                large_communities,
                mp_reach,
                mp_unreach,
            )| {
                PathAttributes {
                    origin,
                    as_path,
                    next_hop,
                    local_pref,
                    communities,
                    large_communities,
                    mp_reach,
                    mp_unreach,
                }
            },
        )
}

fn update(asn: impl Strategy<Value = Asn> + Clone) -> impl Strategy<Value = UpdateMessage> {
    (
        prop::collection::vec(prefix(), 0..4),
        attrs(asn),
        prop::collection::vec(prefix(), 1..4),
        any::<bool>(),
    )
        .prop_map(|(withdrawn, attrs, nlri, announce)| {
            if announce {
                UpdateMessage {
                    withdrawn,
                    attrs: Some(attrs),
                    nlri,
                }
            } else {
                UpdateMessage {
                    withdrawn,
                    attrs: None,
                    nlri: Vec::new(),
                }
            }
        })
}

fn rib_record() -> impl Strategy<Value = MrtRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        prefix(),
        prop::collection::vec((0u16..64, any::<u32>(), attrs(asn32())), 0..4),
    )
        .prop_map(|(timestamp, sequence, prefix, raw_entries)| MrtRecord {
            timestamp,
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence,
                prefix,
                entries: raw_entries
                    .into_iter()
                    .map(|(peer_index, originated_time, attrs)| RibEntry {
                        peer_index,
                        originated_time,
                        attrs,
                    })
                    .collect(),
            }),
        })
}

fn rib6_record() -> impl Strategy<Value = MrtRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        prefix6(),
        prop::collection::vec((0u16..64, any::<u32>(), attrs(asn32())), 0..4),
    )
        .prop_map(|(timestamp, sequence, prefix, raw_entries)| MrtRecord {
            timestamp,
            body: MrtBody::RibIpv6Unicast(RibIpv6Unicast {
                sequence,
                prefix,
                entries: raw_entries
                    .into_iter()
                    .map(|(peer_index, originated_time, attrs)| RibEntry {
                        peer_index,
                        originated_time,
                        attrs,
                    })
                    .collect(),
            }),
        })
}

fn peer_index_record() -> impl Strategy<Value = MrtRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec((any::<u32>(), any::<u32>(), asn32()), 0..5),
    )
        .prop_map(|(timestamp, collector_id, peers)| MrtRecord {
            timestamp,
            body: MrtBody::PeerIndexTable(PeerIndexTable {
                collector_id,
                view_name: String::from("props"),
                peers: peers
                    .into_iter()
                    .map(|(bgp_id, addr, asn)| PeerEntry { bgp_id, addr, asn })
                    .collect(),
            }),
        })
}

fn bgp4mp_record(asn: impl Strategy<Value = Asn> + Clone) -> impl Strategy<Value = MrtRecord> {
    (
        any::<u32>(),
        asn.clone(),
        asn.clone(),
        any::<u32>(),
        any::<u32>(),
        update(asn),
    )
        .prop_map(
            |(timestamp, peer_asn, local_asn, peer_addr, local_addr, message)| MrtRecord {
                timestamp,
                body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                    peer_asn,
                    local_asn,
                    peer_addr,
                    local_addr,
                    message,
                }),
            },
        )
}

fn mrt_record() -> impl Strategy<Value = MrtRecord> {
    prop_oneof![
        rib_record(),
        rib6_record(),
        peer_index_record(),
        bgp4mp_record(asn16()),
        bgp4mp_record(asn32()),
    ]
}

// --- differential helpers -------------------------------------------------

/// Decodes `bytes` with the view and the spec decoder and asserts
/// observational identity: equal messages on accept, equal `WireError`
/// (kind and offset) on reject. On accept, every lazy accessor is checked
/// against the spec's decomposition, not just `to_message`.
fn assert_update_parity(bytes: &[u8], encoding: AsnEncoding) {
    let spec = spec::update(bytes, encoding);
    let view = UpdateView::parse_exact(bytes, encoding);
    match (spec, view) {
        (Ok(spec), Ok(view)) => {
            prop_assert_eq!(&view.to_message(), &spec);
            let nlri: Vec<Ipv4Prefix> = view.nlri().collect();
            let withdrawn: Vec<Ipv4Prefix> = view.withdrawn().collect();
            prop_assert_eq!(nlri, spec.nlri);
            prop_assert_eq!(withdrawn, spec.withdrawn);
            match (view.attrs(), spec.attrs) {
                (Some(va), Some(oa)) => {
                    prop_assert_eq!(va.origin(), oa.origin);
                    prop_assert_eq!(va.next_hop(), oa.next_hop);
                    prop_assert_eq!(va.local_pref(), oa.local_pref);
                    prop_assert_eq!(va.origin_asn(), oa.as_path.origin());
                    prop_assert_eq!(va.to_as_path(), oa.as_path.clone());
                    assert_path_summary(&va.to_as_path());
                    let asns: Vec<Asn> = va.path_asns().collect();
                    let spec_asns: Vec<Asn> = oa.as_path.iter().collect();
                    prop_assert_eq!(asns, spec_asns);
                    let communities: Vec<Community> = va.communities().collect();
                    prop_assert_eq!(&communities, &oa.communities);
                    let large: Vec<LargeCommunity> = va.large_communities().collect();
                    prop_assert_eq!(&large, &oa.large_communities);
                    let prefix = Ipv4Prefix::new(0x0A00_0000, 8);
                    prop_assert_eq!(
                        AttrInterner::new().to_route(va, prefix),
                        oa.to_route(prefix)
                    );
                    prop_assert_eq!(va.mp_reach(), oa.mp_reach);
                    prop_assert_eq!(va.mp_unreach(), oa.mp_unreach);
                }
                (None, None) => {}
                (va, oa) => prop_assert!(false, "attrs presence diverged: {va:?} vs {oa:?}"),
            }
        }
        (Err(spec), Err(view)) => prop_assert_eq!(view, spec),
        (spec, view) => prop_assert!(
            false,
            "accept/reject diverged: spec {spec:?} vs view {view:?}"
        ),
    }
}

/// The decoded path's cached summary against its segments: the selection
/// length counted again, and `contains` against a scan for every member and
/// for a few numbers that are not (see bgp-types' `as_path_summary.rs`).
fn assert_path_summary(path: &AsPath) {
    let members: Vec<Asn> = path.iter().collect();
    let lens = path.segments().map(|(kind, asns)| match kind {
        SegmentKind::Sequence => asns.len(),
        SegmentKind::Set => 1,
    });
    prop_assert_eq!(path.selection_len(), lens.sum::<usize>());
    let strangers = members.iter().map(|asn| Asn(asn.0 ^ 0x8000_0001));
    for asn in members.iter().copied().chain(strangers) {
        prop_assert_eq!(
            path.contains(asn),
            members.contains(&asn),
            "{} / {}",
            path,
            asn
        );
    }
}

/// Walks `bytes` through `MrtViewReader` and asserts it yields the spec
/// decoder's records, then the spec's error (kind and offset) or a clean
/// end — and that after an error it refuses further reads.
fn assert_stream_parity(bytes: &[u8]) {
    let (records, error) = spec::mrt_stream(bytes);
    let mut reader = MrtViewReader::new(bytes);
    for record in records {
        prop_assert_eq!(reader.next_record(), Ok(Some(record)));
    }
    if let Some(error) = error {
        prop_assert_eq!(reader.next_record(), Err(error));
        prop_assert!(matches!(reader.advance(), Ok(false)));
    }
    prop_assert_eq!(reader.next_record(), Ok(None));
}

// --- well-formed corpora --------------------------------------------------

proptest! {
    #[test]
    fn view_matches_owned_update_four_octet(msg in update(asn32())) {
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        assert_update_parity(&bytes, AsnEncoding::FourOctet);
    }

    #[test]
    fn view_matches_owned_update_two_octet(msg in update(asn16())) {
        let bytes = msg.encode(AsnEncoding::TwoOctet).expect("encodes");
        assert_update_parity(&bytes, AsnEncoding::TwoOctet);
    }

    #[test]
    fn view_matches_owned_mrt_stream(records in prop::collection::vec(mrt_record(), 1..5)) {
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(&record.encode().expect("encodes"));
        }
        assert_stream_parity(&bytes);
    }

    /// Encoder-split wire segments (paths past 255 ASNs) re-join through
    /// the view's `to_as_path` exactly as the spec decoder re-joins them,
    /// and the wire-level origin shortcut agrees with the rebuilt origin.
    #[test]
    fn view_rejoins_split_segments(hops in prop::collection::vec(asn32(), 256..700)) {
        let path = AsPath::from_sequence(hops);
        let msg = UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(PathAttributes {
                origin: RouteOrigin::Igp,
                as_path: path.clone(),
                next_hop: 0xC0A8_0001,
                local_pref: None,
                communities: Vec::new(),
                large_communities: Vec::new(),
                mp_reach: None,
                mp_unreach: None,
            }),
            nlri: vec![Ipv4Prefix::new(0x0A00_0000, 8)],
        };
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("under 4096 bytes");
        let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet).expect("parses");
        let va = view.attrs().expect("attrs");
        // More than one raw wire segment, but one logical segment back.
        prop_assert!(va.segments().count() >= 2);
        prop_assert_eq!(va.to_as_path(), path.clone());
        assert_path_summary(&va.to_as_path());
        prop_assert_eq!(va.origin_asn(), path.origin());
        assert_update_parity(&bytes, AsnEncoding::FourOctet);
    }

    /// Same for `AS_SET`s past 255 members (set-terminated: origin is None).
    #[test]
    fn view_rejoins_split_sets(set in prop::collection::btree_set(asn32(), 256..450)) {
        let path = AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(701)]),
            AsPathSegment::Set(set.into_iter().collect()),
        ]);
        let msg = UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(PathAttributes {
                origin: RouteOrigin::Igp,
                as_path: path.clone(),
                next_hop: 0xC0A8_0001,
                local_pref: None,
                communities: Vec::new(),
                large_communities: Vec::new(),
                mp_reach: None,
                mp_unreach: None,
            }),
            nlri: vec![Ipv4Prefix::new(0x0A00_0000, 8)],
        };
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("under 4096 bytes");
        let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet).expect("parses");
        let va = view.attrs().expect("attrs");
        prop_assert_eq!(va.to_as_path(), path);
        prop_assert_eq!(va.origin_asn(), None);
        assert_update_parity(&bytes, AsnEncoding::FourOctet);
    }

    /// IPv6-only UPDATEs (no IPv4 NLRI, reachability and withdrawals in
    /// the MP attributes) decode identically in the decoder and the spec.
    #[test]
    fn view_matches_owned_ipv6_only_update(
        reach in prop_oneof![Just(None), mp_reach().prop_map(Some)],
        unreach in mp_unreach(),
        path in as_path(asn32()),
    ) {
        let msg = UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(PathAttributes {
                origin: RouteOrigin::Igp,
                as_path: path,
                next_hop: 0,
                local_pref: None,
                communities: Vec::new(),
                large_communities: Vec::new(),
                mp_reach: reach,
                mp_unreach: Some(unreach),
            }),
            nlri: Vec::new(),
        };
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        assert_update_parity(&bytes, AsnEncoding::FourOctet);
    }
}

/// An UPDATE whose attribute block has MP_REACH_NLRI but *no* NEXT_HOP —
/// the shape a real IPv6-only speaker sends (RFC 4760 makes NEXT_HOP
/// redundant there). The encoder never produces this, so the wire image is
/// built by hand; the decoder must accept it with the zero stand-in.
#[test]
fn ipv6_update_without_next_hop_decodes_identically() {
    let mut attrs = Vec::new();
    attrs.extend_from_slice(&[0x40, 1, 1, 0]); // ORIGIN: IGP
    attrs.extend_from_slice(&[0x40, 2, 6, 2, 1, 0, 0, 0xFD, 0xE9]); // AS_PATH: seq [65001]
                                                                    // MP_REACH_NLRI: AFI 2, SAFI 1, 16-byte next hop, reserved, ::/0 + 2001:db8::/32
    let mp_body_len = 3 + 1 + 16 + 1 + 1 + 5;
    attrs.extend_from_slice(&[0x80, 14, mp_body_len as u8, 0, 2, 1, 16]);
    attrs.extend_from_slice(&[0x20; 16]);
    attrs.push(0); // reserved
    attrs.push(0); // ::/0
    attrs.extend_from_slice(&[32, 0x20, 0x01, 0x0D, 0xB8]); // 2001:db8::/32
    let mut bytes = vec![0xFF; 16];
    let total = 19 + 2 + 2 + attrs.len();
    bytes.extend_from_slice(&(total as u16).to_be_bytes());
    bytes.push(2); // UPDATE
    bytes.extend_from_slice(&[0, 0]); // no withdrawn routes
    bytes.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    bytes.extend_from_slice(&attrs);

    let owned = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).expect("decodes");
    let attrs = owned.attrs.as_ref().expect("attrs");
    assert_eq!(attrs.next_hop, 0);
    let reach = attrs.mp_reach.as_ref().expect("mp_reach");
    assert_eq!(reach.next_hop, vec![0x20; 16]);
    assert_eq!(
        reach.nlri,
        vec![Ipv6Prefix::DEFAULT, Ipv6Prefix::new(0x2001_0DB8 << 96, 32)]
    );
    assert_update_parity(&bytes, AsnEncoding::FourOctet);

    // Strip the MP_REACH attribute: now NEXT_HOP really is missing, and
    // the decoder must say so at the spec's offset.
    let attrs_no_mp = &bytes[23..23 + 13];
    let mut broken = vec![0xFF; 16];
    let total = 19 + 2 + 2 + attrs_no_mp.len();
    broken.extend_from_slice(&(total as u16).to_be_bytes());
    broken.push(2);
    broken.extend_from_slice(&[0, 0]);
    broken.extend_from_slice(&(attrs_no_mp.len() as u16).to_be_bytes());
    broken.extend_from_slice(attrs_no_mp);
    let owned = UpdateMessage::decode(&broken, AsnEncoding::FourOctet).unwrap_err();
    assert!(matches!(
        owned.kind,
        bgp_wire::WireErrorKind::MissingAttribute("NEXT_HOP")
    ));
    assert_update_parity(&broken, AsnEncoding::FourOctet);
}

/// An UPDATE announcing 10.0.0.0/8 whose attribute block is ORIGIN,
/// AS_PATH, NEXT_HOP and then `extra`, framed by hand.
fn update_with_raw_attribute(extra: &[u8]) -> Vec<u8> {
    let mut attrs = Vec::new();
    attrs.extend_from_slice(&[0x40, 1, 1, 0]); // ORIGIN: IGP
    attrs.extend_from_slice(&[0x40, 2, 6, 2, 1, 0, 1, 0x11, 0x70]); // AS_PATH: seq [70000]
    attrs.extend_from_slice(&[0x40, 3, 4, 10, 0, 0, 1]); // NEXT_HOP
    attrs.extend_from_slice(extra);
    let mut bytes = vec![0xFF; 16];
    let total = 19 + 2 + 2 + attrs.len() + 2;
    bytes.extend_from_slice(&(total as u16).to_be_bytes());
    bytes.push(2); // UPDATE
    bytes.extend_from_slice(&[0, 0]); // no withdrawn routes
    bytes.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    bytes.extend_from_slice(&attrs);
    bytes.extend_from_slice(&[8, 10]); // NLRI 10.0.0.0/8
    bytes
}

proptest! {
    /// A raw `LARGE_COMMUNITY` body of any length, in either length form:
    /// whole 12-octet values decode as the spec reads them, anything else
    /// fails identically at the body's offset.
    #[test]
    fn raw_large_community_bodies_decode_identically(
        body in prop::collection::vec(any::<u8>(), 0..40),
        whole in any::<bool>(),
        extended in any::<bool>(),
    ) {
        let body = if whole { &body[..body.len() / 12 * 12] } else { &body[..] };
        let mut attr = Vec::new();
        if extended {
            attr.extend_from_slice(&[0xD0, 32]);
            attr.extend_from_slice(&(body.len() as u16).to_be_bytes());
        } else {
            attr.extend_from_slice(&[0xC0, 32, body.len() as u8]);
        }
        attr.extend_from_slice(body);
        let bytes = update_with_raw_attribute(&attr);
        let decoded = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet);
        prop_assert_eq!(decoded.is_ok(), body.len() % 12 == 0);
        assert_update_parity(&bytes, AsnEncoding::FourOctet);
    }
}

// --- corrupted corpora: identical rejection --------------------------------

proptest! {
    // A flip lands on the one field a check guards only rarely, so these
    // corpora run more cases than the default.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Every proper prefix of a valid message fails with the identical
    /// error, offset included.
    #[test]
    fn truncated_update_errors_identically(msg in update(asn32()), cut in 0usize..1000) {
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        let cut = cut % bytes.len().max(1);
        assert_update_parity(&bytes[..cut], AsnEncoding::FourOctet);
    }

    /// A single flipped byte either stays decodable (same value) or fails
    /// identically in the decoder and the spec.
    #[test]
    fn mutated_update_decodes_identically(
        msg in update(asn32()),
        position in 0usize..1000,
        value in any::<u8>(),
    ) {
        let mut bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        let position = position % bytes.len().max(1);
        bytes[position] = value;
        assert_update_parity(&bytes, AsnEncoding::FourOctet);
    }

    /// Raw garbage is rejected (or, vanishingly rarely, accepted)
    /// identically under both encodings.
    #[test]
    fn garbage_update_decodes_identically(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        assert_update_parity(&bytes, AsnEncoding::FourOctet);
        assert_update_parity(&bytes, AsnEncoding::TwoOctet);
    }

    /// Truncated MRT streams fail framing/parsing at the same step with the
    /// same error.
    #[test]
    fn truncated_mrt_errors_identically(record in mrt_record(), cut in 0usize..4000) {
        let bytes = record.encode().expect("encodes");
        let cut = cut % bytes.len().max(1);
        assert_stream_parity(&bytes[..cut]);
    }

    /// Byte flips anywhere in a multi-record stream — including the framing
    /// header and length fields — keep the reader in lockstep with the spec.
    #[test]
    fn mutated_mrt_stream_decodes_identically(
        records in prop::collection::vec(mrt_record(), 1..4),
        position in 0usize..8000,
        value in any::<u8>(),
    ) {
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(&record.encode().expect("encodes"));
        }
        let position = position % bytes.len().max(1);
        bytes[position] = value;
        assert_stream_parity(&bytes);
    }

    /// Raw garbage streams too.
    #[test]
    fn garbage_mrt_stream_decodes_identically(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_stream_parity(&bytes);
    }
}

proptest! {
    /// Every byte set in turn to each boundary a length or type check
    /// tests against: the off-by-one cases a random flip rarely hits.
    #[test]
    fn boundary_bytes_decode_identically(msg in update(asn32())) {
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        for position in 0..bytes.len() {
            for value in [0, 1, 2, 12, 32, 33, 128, 129, 255] {
                let mut mutated = bytes.clone();
                mutated[position] = value;
                assert_update_parity(&mutated, AsnEncoding::FourOctet);
            }
        }
    }
}
