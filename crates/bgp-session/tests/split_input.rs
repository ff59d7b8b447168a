//! Reassembly does not depend on how the transport splits the peer's
//! bytes: the same OPEN, KEEPALIVE and UPDATE stream delivered in one
//! `Event::Bytes`, in odd-sized pieces, or byte by byte yields the same
//! actions and the same counters.

use bgp_session::{Event, Session, SessionAction, SessionConfig, SessionStats, State};
use bgp_types::{AsPath, Asn, Ipv4Prefix, RouteOrigin};
use bgp_wire::bgp::{AsnEncoding, PathAttributes, UpdateMessage};
use bgp_wire::msg::{encode_keepalive, OpenMessage};

/// UPDATEs in the stream.
const N: u32 = 2_000;

/// The peer's side of a session: its OPEN and KEEPALIVE, then `N` UPDATEs,
/// each announcing a distinct `/24` from one of five origins.
fn peer_stream() -> Vec<u8> {
    let mut bytes = OpenMessage::new(Asn(70_000), 30, 0x0A00_0002)
        .encode()
        .expect("encodes");
    bytes.extend_from_slice(&encode_keepalive());
    for i in 0..N {
        let update = UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(PathAttributes {
                origin: RouteOrigin::Igp,
                as_path: AsPath::from_sequence([Asn(70_000), Asn(64_512 + i % 5)]),
                next_hop: 0x0A00_0001,
                local_pref: None,
                communities: Vec::new(),
                large_communities: Vec::new(),
                mp_reach: None,
                mp_unreach: None,
            }),
            nlri: vec![Ipv4Prefix::new(0x0A00_0000 | (i << 8), 24)],
        };
        bytes.extend_from_slice(&update.encode(AsnEncoding::FourOctet).expect("encodes"));
    }
    bytes
}

/// Connects a fresh session and feeds it `stream` in pieces of `piece`
/// bytes, returning every action it asked for and its final counters.
fn deliver(stream: &[u8], piece: usize) -> (Vec<SessionAction>, SessionStats, State) {
    let mut session = Session::new(SessionConfig::new(Asn(64_500), 1));
    let mut actions = Vec::new();
    session.handle(0, &Event::ManualStart, &mut actions);
    session.handle(1, &Event::Connected, &mut actions);
    for bytes in stream.chunks(piece) {
        session.handle(2, &Event::Bytes(bytes), &mut actions);
    }
    (actions, *session.stats(), session.state())
}

#[test]
fn updates_split_anywhere_yield_identical_actions_and_stats() {
    let stream = peer_stream();
    let (whole, stats, state) = deliver(&stream, stream.len());
    assert_eq!(state, State::Established);
    assert_eq!(stats.updates_received, u64::from(N));
    let delivered = whole
        .iter()
        .filter(|a| matches!(a, SessionAction::Deliver(_)))
        .count();
    assert_eq!(delivered, N as usize);
    for piece in [1, 7, 4_096 + 3] {
        let (actions, split_stats, split_state) = deliver(&stream, piece);
        assert_eq!(split_state, state, "piece {piece}");
        assert_eq!(split_stats, stats, "piece {piece}");
        assert!(actions == whole, "piece {piece}: actions differ");
    }
}
