//! Differential property tests for the session-message codecs
//! (OPEN / KEEPALIVE / NOTIFICATION): the zero-copy [`MessageView`] and the
//! [`Message`] it rebuilds must be observationally identical to the spec
//! decoder in `tests/spec` — same accepted inputs, same values, and the
//! same `WireError` kind **and offset** on every rejected input, including
//! truncations, random byte flips, and raw garbage. The framing walk
//! (`MessageView::parse` on back-to-back messages) is held in lockstep too,
//! because the session FSM buffers partial frames off exactly those errors.

mod spec;

use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
use bgp_wire::bgp::{AsnEncoding, PathAttributes, UpdateMessage};
use bgp_wire::msg::{encode_keepalive, Capability, Message, NotificationMessage, OpenMessage};
use bgp_wire::{MessageView, WireError, WireErrorKind};
use proptest::prelude::*;

// --- strategies -----------------------------------------------------------

fn asn32() -> impl Strategy<Value = Asn> + Clone {
    (1u32..u32::MAX).prop_map(Asn)
}

fn capability() -> impl Strategy<Value = Capability> {
    prop_oneof![
        Just(Capability::MultiprotocolIpv4Unicast),
        Just(Capability::MultiprotocolIpv6Unicast),
        asn32().prop_map(Capability::FourOctetAs),
        // Codes 1 and 65 with length != 4 are rejected on decode; pick
        // codes the crate does not interpret so `Unknown` round-trips.
        (66u8..255, prop::collection::vec(any::<u8>(), 0..8))
            .prop_map(|(code, data)| Capability::Unknown { code, data }),
    ]
}

fn hold_time() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0u16), 3u16..u16::MAX]
}

fn open() -> impl Strategy<Value = OpenMessage> {
    (
        asn32(),
        hold_time(),
        any::<u32>(),
        prop::collection::vec(capability(), 0..5),
    )
        .prop_map(|(asn, hold_time, bgp_id, capabilities)| OpenMessage {
            asn,
            hold_time,
            bgp_id,
            capabilities,
        })
}

fn notification() -> impl Strategy<Value = NotificationMessage> {
    (
        1u8..=6,
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..16),
    )
        .prop_map(|(code, subcode, data)| NotificationMessage {
            code,
            subcode,
            data,
        })
}

/// One announcement from a 4-octet origin, with a MOAS list of 4-octet
/// members beside it half the time.
fn small_update() -> impl Strategy<Value = UpdateMessage> {
    (
        asn32(),
        prop::collection::vec(asn32(), 0..3),
        any::<u32>(),
        any::<u32>(),
        0u8..=32,
    )
        .prop_map(|(asn, members, next_hop, addr, len)| {
            let prefix = Ipv4Prefix::new(addr, len);
            let route = Route::new(prefix, AsPath::from_sequence([asn]))
                .with_moas_list(members.into_iter().collect::<MoasList>());
            let mut attrs = PathAttributes::from_route(&route);
            (attrs.next_hop, attrs.local_pref) = (next_hop, None);
            UpdateMessage {
                withdrawn: Vec::new(),
                attrs: Some(attrs),
                nlri: vec![prefix],
            }
        })
}

fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        open().prop_map(Message::Open),
        notification().prop_map(Message::Notification),
        Just(Message::Keepalive),
        small_update().prop_map(Message::Update),
    ]
}

// --- differential helpers -------------------------------------------------

/// Decodes `bytes` with the view and the spec decoder and asserts
/// observational identity. On accept, every lazy accessor on the typed
/// views is checked against the spec's decomposition, not just
/// `to_message`.
fn assert_message_parity(bytes: &[u8], encoding: AsnEncoding) {
    let expected = spec::message(bytes, encoding);
    let view = MessageView::parse_exact(bytes, encoding);
    match (expected, view) {
        (Ok(expected), Ok(view)) => {
            prop_assert_eq!(view.type_code(), expected.type_code());
            prop_assert_eq!(&view.to_message(), &expected);
            match (&view, &expected) {
                (MessageView::Open(v), Message::Open(o)) => {
                    prop_assert_eq!(v.my_as(), u16::try_from(o.asn.0).unwrap_or(23456));
                    prop_assert_eq!(v.hold_time(), o.hold_time);
                    prop_assert_eq!(v.bgp_id(), o.bgp_id);
                    prop_assert_eq!(v.effective_asn(), o.effective_asn());
                    let caps: Vec<Capability> = v.capabilities().collect();
                    prop_assert_eq!(&caps, &o.capabilities);
                }
                (MessageView::Notification(v), Message::Notification(o)) => {
                    prop_assert_eq!(v.code(), o.code);
                    prop_assert_eq!(v.subcode(), o.subcode);
                    prop_assert_eq!(v.data(), &o.data[..]);
                }
                (MessageView::Update(_), Message::Update(_))
                | (MessageView::Keepalive, Message::Keepalive) => {}
                (v, o) => prop_assert!(false, "variant diverged: {v:?} vs {o:?}"),
            }
        }
        (Err(expected), Err(view)) => prop_assert_eq!(view, expected),
        (expected, view) => prop_assert!(
            false,
            "accept/reject diverged: spec {expected:?} vs view {view:?}"
        ),
    }
}

/// Walks a concatenated byte stream through the spec decoder and
/// `MessageView::parse` in lockstep — same messages, same consumed
/// lengths, same error (`Truncated` from both means "keep buffering").
fn assert_frame_parity(bytes: &[u8], encoding: AsnEncoding) {
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            return;
        }
        let rest = &bytes[pos..];
        let expected: Result<(Message, usize), WireError> = spec::message_prefix(rest, encoding);
        let view = MessageView::parse(rest, encoding);
        match (expected, view) {
            (Ok((o, used_o)), Ok((v, used_v))) => {
                prop_assert_eq!(used_o, used_v);
                prop_assert_eq!(&v.to_message(), &o);
                pos += used_o;
            }
            (Err(o), Err(v)) => {
                prop_assert_eq!(&v, &o);
                return;
            }
            (o, v) => prop_assert!(false, "frame steps diverged: {o:?} vs {v:?}"),
        }
    }
}

// --- well-formed corpora --------------------------------------------------

proptest! {
    #[test]
    fn view_matches_owned_message(msg in message()) {
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        assert_message_parity(&bytes, AsnEncoding::FourOctet);
    }

    #[test]
    fn view_matches_owned_frame_stream(msgs in prop::collection::vec(message(), 1..5)) {
        let mut bytes = Vec::new();
        for msg in &msgs {
            bytes.extend_from_slice(&msg.encode(AsnEncoding::FourOctet).expect("encodes"));
        }
        assert_frame_parity(&bytes, AsnEncoding::FourOctet);
    }

    /// A 4-byte-ASN OPEN puts AS_TRANS on the wire and recovers the real
    /// ASN through the capability, identically in the decoder and the spec.
    #[test]
    fn four_octet_asn_survives_as_trans(asn in (1u32 << 16..u32::MAX).prop_map(Asn)) {
        let open = OpenMessage::new(asn, 90, 0x0A00_0001);
        let bytes = open.encode().expect("encodes");
        let expected = spec::message(&bytes, AsnEncoding::FourOctet).expect("decodes");
        let Message::Open(expected) = expected else { panic!("not an OPEN") };
        prop_assert_eq!(expected.asn, Asn(23456));
        prop_assert_eq!(expected.effective_asn(), asn);
        let view = MessageView::parse_exact(&bytes, AsnEncoding::FourOctet).expect("parses");
        let MessageView::Open(view) = view else { panic!("not an OPEN") };
        prop_assert_eq!(view.effective_asn(), asn);
    }
}

// --- corrupted corpora: identical rejection --------------------------------

proptest! {
    // A flip lands on the one field a check guards only rarely, so these
    // corpora run more cases than the default.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Every proper prefix of a valid message fails (or, for frame-level
    /// truncation, buffers) identically in the decoder and the spec.
    #[test]
    fn truncated_message_errors_identically(msg in message(), cut in 0usize..5000) {
        let bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        let cut = cut % bytes.len().max(1);
        assert_message_parity(&bytes[..cut], AsnEncoding::FourOctet);
        assert_frame_parity(&bytes[..cut], AsnEncoding::FourOctet);
    }

    /// A single flipped byte either stays decodable (same value) or fails
    /// identically in the decoder and the spec.
    #[test]
    fn mutated_message_decodes_identically(
        msg in message(),
        position in 0usize..5000,
        value in any::<u8>(),
    ) {
        let mut bytes = msg.encode(AsnEncoding::FourOctet).expect("encodes");
        let position = position % bytes.len().max(1);
        bytes[position] = value;
        assert_message_parity(&bytes, AsnEncoding::FourOctet);
    }

    /// Raw garbage is rejected (or, vanishingly rarely, accepted)
    /// identically under both encodings.
    #[test]
    fn garbage_message_decodes_identically(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        assert_message_parity(&bytes, AsnEncoding::FourOctet);
        assert_message_parity(&bytes, AsnEncoding::TwoOctet);
        assert_frame_parity(&bytes, AsnEncoding::FourOctet);
    }
}

// --- targeted rejections ---------------------------------------------------

#[test]
fn keepalive_is_nineteen_bytes_and_parses_both_ways() {
    let bytes = encode_keepalive();
    assert_eq!(bytes.len(), 19);
    let expected = spec::message(&bytes, AsnEncoding::FourOctet).expect("decodes");
    assert_eq!(expected, Message::Keepalive);
    let view = MessageView::parse_exact(&bytes, AsnEncoding::FourOctet).expect("parses");
    assert!(matches!(view, MessageView::Keepalive));
}

#[test]
fn bad_hold_time_rejected_identically() {
    for hold in [1u16, 2] {
        let mut open = OpenMessage::new(Asn(64512), 90, 1);
        open.hold_time = hold;
        // The encoder refuses; build the bytes by patching a valid OPEN.
        let mut bytes = OpenMessage::new(Asn(64512), 90, 1)
            .encode()
            .expect("encodes");
        bytes[22..24].copy_from_slice(&hold.to_be_bytes());
        let expected = spec::message(&bytes, AsnEncoding::FourOctet).unwrap_err();
        let view = MessageView::parse_exact(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(expected, view);
        assert!(matches!(expected.kind, WireErrorKind::BadHoldTime(h) if h == hold));
    }
}

#[test]
fn bad_version_rejected_identically() {
    let mut bytes = OpenMessage::new(Asn(64512), 90, 1)
        .encode()
        .expect("encodes");
    bytes[19] = 3; // BGP-3 speaker
    let expected = spec::message(&bytes, AsnEncoding::FourOctet).unwrap_err();
    let view = MessageView::parse_exact(&bytes, AsnEncoding::FourOctet).unwrap_err();
    assert_eq!(expected, view);
    assert!(matches!(expected.kind, WireErrorKind::BadVersion(3)));
}

#[test]
fn bad_notification_code_rejected_identically() {
    for code in [0u8, 7, 255] {
        let mut bytes = NotificationMessage::cease().encode().expect("encodes");
        bytes[19] = code;
        let expected = spec::message(&bytes, AsnEncoding::FourOctet).unwrap_err();
        let view = MessageView::parse_exact(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(expected, view);
        assert!(matches!(expected.kind, WireErrorKind::BadNotificationCode(c) if c == code));
    }
}
