//! Property tests for the wire codecs: encode→decode is the identity on
//! well-formed messages, and decoding never panics on corrupted bytes.

use bgp_types::{
    AsPath, AsPathSegment, Asn, Community, Ipv4Prefix, Ipv6Prefix, MoasList, Route, RouteOrigin,
};
use bgp_wire::bgp::{AsnEncoding, MpReach, MpUnreach, PathAttributes, UpdateMessage};
use bgp_wire::mrt::{
    Bgp4mpMessage, MrtBody, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
    RibIpv6Unicast,
};
use bgp_wire::{AttrInterner, LargeCommunity, MrtViewReader, UpdateView, WireErrorKind};
use proptest::prelude::*;

// --- strategies -----------------------------------------------------------

/// An ASN that fits the 2-octet encoding (and RFC 1997 communities).
fn asn16() -> impl Strategy<Value = Asn> + Clone {
    (1u32..0x1_0000).prop_map(Asn)
}

/// Any non-zero 4-octet ASN.
fn asn32() -> impl Strategy<Value = Asn> + Clone {
    (1u32..u32::MAX).prop_map(Asn)
}

/// A canonical (host-bits-masked) IPv4 prefix.
fn prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len))
}

/// An AS path: a sequence of 1-4 hops, sometimes followed by an AS_SET.
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

fn origin() -> impl Strategy<Value = RouteOrigin> {
    prop_oneof![
        Just(RouteOrigin::Igp),
        Just(RouteOrigin::Egp),
        Just(RouteOrigin::Incomplete),
    ]
}

/// A large community, often shaped like a MOAS-list marker.
fn large_community() -> impl Strategy<Value = LargeCommunity> {
    let ml = u32::from(bgp_wire::MOAS_LIST_VALUE);
    (
        any::<u32>(),
        prop_oneof![Just(ml), any::<u32>()],
        prop_oneof![Just(0), any::<u32>()],
    )
        .prop_map(|(global, local1, local2)| LargeCommunity {
            global,
            local1,
            local2,
        })
}

fn attrs(asn: impl Strategy<Value = Asn> + Clone) -> impl Strategy<Value = PathAttributes> {
    (
        origin(),
        as_path(asn),
        any::<u32>(),
        prop_oneof![Just(None), (0u32..1000).prop_map(Some)],
        prop::collection::vec(
            (asn16(), any::<u16>()).prop_map(|(a, v)| Community::new(a, v)),
            0..4,
        ),
        prop::collection::vec(large_community(), 0..3),
    )
        .prop_map(
            |(origin, as_path, next_hop, local_pref, communities, large_communities)| {
                PathAttributes {
                    origin,
                    as_path,
                    next_hop,
                    local_pref,
                    communities,
                    large_communities,
                    mp_reach: None,
                    mp_unreach: None,
                }
            },
        )
}

/// A well-formed UPDATE: NLRI only rides along when attributes are present.
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
        peer_index_record(),
        bgp4mp_record(asn16()),
        bgp4mp_record(asn32()),
    ]
}

// --- round-trip identity --------------------------------------------------

proptest! {
    #[test]
    fn update_round_trips_four_octet(msg in update(asn32())) {
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).expect("decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn update_round_trips_two_octet(msg in update(asn16())) {
        let bytes = msg.encode(AsnEncoding::TwoOctet).expect("encodes");
        let back = UpdateMessage::decode(&bytes, AsnEncoding::TwoOctet).expect("decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn mrt_record_round_trips(record in mrt_record()) {
        let bytes = record.encode().expect("encodes");
        let mut reader = MrtViewReader::new(bytes.as_slice());
        let back = reader.next_record().expect("decodes").expect("one record");
        prop_assert_eq!(back, record);
        prop_assert_eq!(reader.next_record().expect("clean EOF"), None);
    }

    #[test]
    fn mrt_stream_round_trips(records in prop::collection::vec(mrt_record(), 1..5)) {
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(&record.encode().expect("encodes"));
        }
        let mut reader = MrtViewReader::new(bytes.as_slice());
        let mut back = Vec::new();
        while let Some(record) = reader.next_record().expect("decodes") {
            back.push(record);
        }
        prop_assert_eq!(back, records);
    }
}

// --- MOAS lists ----------------------------------------------------------

/// A community as a route may carry one: mostly arbitrary, and often a
/// stray `(x : MLVal)` that the wire cannot tell from a list member.
fn community_or_stray_marker() -> impl Strategy<Value = Community> {
    let stray = any::<u16>().prop_map(|x| Community::new(Asn(x.into()), bgp_wire::MOAS_LIST_VALUE));
    prop_oneof![any::<u32>().prop_map(Community), stray]
}

proptest! {
    /// A MOAS list of any 4-octet members is the route's field, and it
    /// survives an UPDATE's bytes, read back through the owned decoder and
    /// through the view. `MLVal` is reserved: an ordinary community
    /// `(x : MLVal)` outside the well-known range reads back as member `x`
    /// of the list, and every other community as itself.
    #[test]
    fn moas_list_round_trips_through_the_wire(
        members in prop::collection::btree_set(any::<u32>(), 1..6),
        other in prop::collection::vec(community_or_stray_marker(), 0..3),
    ) {
        let list: MoasList = members.iter().map(|&a| Asn(a)).collect();
        let origin = list.iter().next().unwrap();
        let mut route = Route::new(Ipv4Prefix::new(0xD008_0000, 16), AsPath::origination(origin));
        for &community in &other {
            route = route.with_community(community);
        }
        let route = route.with_moas_list(list.clone());
        prop_assert_eq!(route.moas_list(), Some(&list));

        let folds = |c: &Community| c.value() == bgp_wire::MOAS_LIST_VALUE && !c.is_well_known();
        let mut expected = Route::new(route.prefix(), route.as_path().clone());
        for community in other.iter().filter(|c| !folds(c)) {
            expected = expected.with_community(*community);
        }
        let strays = other.iter().filter(|c| folds(c)).map(|c| c.asn());
        let expected = expected.with_moas_list(list.iter().chain(strays).collect());

        let bytes = UpdateMessage::announce(&route).encode(AsnEncoding::FourOctet).unwrap();
        let owned = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap();
        prop_assert_eq!(owned.updates()[0].route(), Some(&expected));
        let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet).unwrap();
        let attrs = view.attrs().unwrap();
        let decoded = AttrInterner::new().to_route(attrs, route.prefix());
        prop_assert_eq!(&decoded, &expected);
        if !other.iter().any(folds) {
            prop_assert_eq!(decoded, route);
        }
    }
}

// --- IPv6 round trips -----------------------------------------------------

/// A canonical IPv6 prefix.
fn prefix6() -> impl Strategy<Value = Ipv6Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| Ipv6Prefix::new(addr, len))
}

proptest! {
    /// UPDATEs carrying the full RFC 4760 MP attributes — including
    /// IPv6-only ones with no IPv4 NLRI at all — round-trip exactly.
    #[test]
    fn ipv6_update_round_trips(
        path in as_path(asn32()),
        nh_len in prop_oneof![Just(16usize), Just(32)],
        reach_nlri in prop::collection::vec(prefix6(), 0..4),
        withdrawn6 in prop::collection::vec(prefix6(), 0..4),
        nlri4 in prop::collection::vec(prefix(), 0..3),
    ) {
        let msg = UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(PathAttributes {
                origin: RouteOrigin::Igp,
                as_path: path,
                next_hop: if nlri4.is_empty() { 0 } else { 0x0A00_0001 },
                local_pref: None,
                communities: Vec::new(),
                large_communities: Vec::new(),
                mp_reach: Some(MpReach {
                    next_hop: vec![0xFE; nh_len],
                    nlri: reach_nlri,
                }),
                mp_unreach: Some(MpUnreach { withdrawn: withdrawn6 }),
            }),
            nlri: nlri4,
        };
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).expect("decodes");
        prop_assert_eq!(back, msg);
    }

    /// `RIB_IPV6_UNICAST` records round-trip exactly. The abbreviated MRT
    /// form of MP_REACH_NLRI carries only the next hop, so entries use the
    /// empty-NLRI shape the decoder reconstructs.
    #[test]
    fn rib6_record_round_trips(
        timestamp in any::<u32>(),
        sequence in any::<u32>(),
        prefix in prefix6(),
        raw_entries in prop::collection::vec(
            (0u16..64, any::<u32>(), as_path(asn32()), prop_oneof![Just(16usize), Just(32)]),
            0..4,
        ),
    ) {
        let record = MrtRecord {
            timestamp,
            body: MrtBody::RibIpv6Unicast(RibIpv6Unicast {
                sequence,
                prefix,
                entries: raw_entries
                    .into_iter()
                    .map(|(peer_index, originated_time, path, nh_len)| RibEntry {
                        peer_index,
                        originated_time,
                        attrs: PathAttributes {
                            origin: RouteOrigin::Igp,
                            as_path: path,
                            next_hop: 0,
                            local_pref: None,
                            communities: Vec::new(),
                            large_communities: Vec::new(),
                            mp_reach: Some(MpReach {
                                next_hop: vec![0xFE; nh_len],
                                nlri: Vec::new(),
                            }),
                            mp_unreach: None,
                        },
                    })
                    .collect(),
            }),
        };
        let bytes = record.encode().expect("encodes");
        let mut reader = MrtViewReader::new(bytes.as_slice());
        let back = reader.next_record().expect("decodes").expect("one record");
        prop_assert_eq!(back, record);
        prop_assert_eq!(reader.next_record().expect("clean EOF"), None);
    }
}

// --- decoder never panics -------------------------------------------------

proptest! {
    #[test]
    fn truncated_update_errors_not_panics(msg in update(asn32()), cut in 0usize..1000) {
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        let cut = cut % bytes.len().max(1);
        // Every proper prefix of a valid message must fail cleanly.
        prop_assert!(UpdateMessage::decode(&bytes[..cut], AsnEncoding::FourOctet).is_err());
    }

    #[test]
    fn mutated_update_never_panics(
        msg in update(asn32()),
        position in 0usize..1000,
        value in any::<u8>(),
    ) {
        let mut bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        let position = position % bytes.len().max(1);
        bytes[position] = value;
        // Any outcome is fine — Ok if the flip was benign, Err otherwise —
        // as long as the decoder returns instead of panicking.
        let _ = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet);
    }

    #[test]
    fn truncated_mrt_errors_not_panics(record in mrt_record(), cut in 0usize..4000) {
        let bytes = record.encode().expect("encodes");
        let cut = cut % bytes.len().max(1);
        if cut == 0 {
            // An empty stream is a clean EOF, not an error.
            let mut reader = MrtViewReader::new(&bytes[..0]);
            prop_assert_eq!(reader.next_record().expect("EOF"), None);
        } else {
            let mut reader = MrtViewReader::new(&bytes[..cut]);
            prop_assert!(reader.next_record().is_err());
        }
    }

    #[test]
    fn mutated_mrt_never_panics(
        record in mrt_record(),
        position in 0usize..4000,
        value in any::<u8>(),
    ) {
        let mut bytes = record.encode().expect("encodes");
        let position = position % bytes.len().max(1);
        bytes[position] = value;
        let mut reader = MrtViewReader::new(bytes.as_slice());
        while let Ok(Some(_)) = reader.next_record() {}
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet);
        let _ = UpdateMessage::decode(&bytes, AsnEncoding::TwoOctet);
        let mut reader = MrtViewReader::new(bytes.as_slice());
        while let Ok(Some(_)) = reader.next_record() {}
    }
}

// --- oversized inputs: exact round-trip or typed error, never silent
// --- truncation -----------------------------------------------------------

/// Minimal attributes carrying `path` and `communities`.
fn attrs_with(path: AsPath, communities: Vec<Community>) -> PathAttributes {
    PathAttributes {
        origin: RouteOrigin::Igp,
        as_path: path,
        next_hop: 0xC0A8_0001,
        local_pref: None,
        communities,
        large_communities: Vec::new(),
        mp_reach: None,
        mp_unreach: None,
    }
}

/// An announcement of one prefix with the given attributes.
fn announce_with(attrs: PathAttributes) -> UpdateMessage {
    UpdateMessage {
        withdrawn: Vec::new(),
        attrs: Some(attrs),
        nlri: vec![Ipv4Prefix::new(0x0A00_0000, 8)],
    }
}

/// `n` distinct communities (4 wire bytes each).
fn communities(n: usize) -> Vec<Community> {
    (0..n)
        .map(|i| Community::new(Asn(64_512 + (i as u32 >> 16)), i as u16))
        .collect()
}

/// A RIB record whose single entry carries `attrs` — the path with no
/// 4096-byte message cap, so attribute blocks can grow past it.
fn rib_record_with(attrs: PathAttributes) -> MrtRecord {
    MrtRecord {
        timestamp: 0,
        body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
            sequence: 0,
            prefix: Ipv4Prefix::new(0x0A00_0000, 8),
            entries: vec![RibEntry {
                peer_index: 0,
                originated_time: 0,
                attrs,
            }],
        }),
    }
}

proptest! {
    /// Paths longer than one wire segment (255 ASNs) split into multiple
    /// segments on encode and re-join into the original on decode.
    #[test]
    fn long_sequences_round_trip_exactly(hops in prop::collection::vec(asn32(), 256..700)) {
        let msg = announce_with(attrs_with(AsPath::from_sequence(hops), Vec::new()));
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("under 4096 bytes");
        let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).expect("decodes");
        prop_assert_eq!(back, msg);
    }

    /// `AS_SET`s past 255 members take the same split-and-re-join path.
    #[test]
    fn long_sets_round_trip_exactly(set in prop::collection::btree_set(asn32(), 256..450)) {
        let path = AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(701)]),
            AsPathSegment::Set(set.into_iter().collect()),
        ]);
        let msg = announce_with(attrs_with(path, Vec::new()));
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("under 4096 bytes");
        let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).expect("decodes");
        prop_assert_eq!(back, msg);
    }

    /// A community list pushing the message past RFC 4271's 4096-byte cap
    /// is a typed error, not a truncated message.
    #[test]
    fn oversized_update_is_rejected_not_truncated(n in 1030usize..1500) {
        let msg = announce_with(attrs_with(
            AsPath::from_sequence([Asn(701)]),
            communities(n),
        ));
        let err = msg.encode(AsnEncoding::FourOctet).expect_err("over 4096 bytes");
        prop_assert!(matches!(
            err.kind,
            WireErrorKind::LengthOverflow { field: "BGP message", .. }
        ));
    }

    /// Attribute bodies past 255 bytes (but within u16) ride the
    /// extended-length flag and round-trip exactly through a RIB record —
    /// including bodies larger than any UPDATE message could carry.
    #[test]
    fn extended_length_attribute_blocks_round_trip(n in 1100usize..2500) {
        let record = rib_record_with(attrs_with(
            AsPath::from_sequence([Asn(701), Asn(4)]),
            communities(n),
        ));
        let bytes = record.encode().expect("encodes");
        let mut reader = MrtViewReader::new(bytes.as_slice());
        let back = reader.next_record().expect("decodes").expect("one record");
        prop_assert_eq!(back, record);
    }

    /// An attribute body past even the extended length field's u16 range is
    /// a typed error — this is the path the old `as u16` cast silently
    /// corrupted.
    #[test]
    fn attribute_block_past_u16_is_rejected(n in 16_384usize..16_600) {
        let record = rib_record_with(attrs_with(
            AsPath::from_sequence([Asn(701)]),
            communities(n),
        ));
        let err = record.encode().expect_err("over u16::MAX");
        prop_assert!(matches!(
            err.kind,
            WireErrorKind::LengthOverflow { field: "path attribute body", .. }
        ));
    }
}
