//! FSM property tests: no event sequence — valid, hostile, or nonsensical
//! — may panic the session, and `Established` is unreachable without a
//! completed OPEN/KEEPALIVE handshake in both directions.

use bgp_session::{Event, Session, SessionConfig, State};
use bgp_types::{AsPath, Asn, Ipv4Prefix, RouteOrigin};
use bgp_wire::bgp::{PathAttributes, UpdateMessage};
use bgp_wire::msg::{encode_keepalive, NotificationMessage, OpenMessage};
use proptest::prelude::*;

/// A scripted input: a time delta plus an event payload.
#[derive(Debug, Clone)]
enum Input {
    ManualStart,
    ManualStop,
    Connected,
    ConnectFailed,
    Closed,
    Tick,
    Garbage(Vec<u8>),
    PeerOpen {
        asn: u32,
        hold: u16,
    },
    PeerKeepalive,
    PeerUpdate,
    PeerNotification,
    /// A prefix of a valid OPEN: exercises the reassembly buffer.
    PartialOpen(usize),
}

fn update_bytes() -> Vec<u8> {
    UpdateMessage {
        withdrawn: Vec::new(),
        attrs: Some(PathAttributes {
            origin: RouteOrigin::Igp,
            as_path: AsPath::from_sequence([Asn(70_000)]),
            next_hop: 0x0A00_0001,
            local_pref: None,
            communities: Vec::new(),
            large_communities: Vec::new(),
            mp_reach: None,
            mp_unreach: None,
        }),
        nlri: vec![Ipv4Prefix::new(0x0A00_0000, 8)],
    }
    .encode(bgp_wire::bgp::AsnEncoding::FourOctet)
    .expect("encodes")
}

fn input() -> impl Strategy<Value = Input> {
    prop_oneof![
        Just(Input::ManualStart),
        Just(Input::ManualStop),
        Just(Input::Connected),
        Just(Input::ConnectFailed),
        Just(Input::Closed),
        Just(Input::Tick),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Input::Garbage),
        (1u32..100_000, prop_oneof![Just(0u16), 3u16..300])
            .prop_map(|(asn, hold)| Input::PeerOpen { asn, hold }),
        Just(Input::PeerKeepalive),
        Just(Input::PeerUpdate),
        Just(Input::PeerNotification),
        (1usize..29).prop_map(Input::PartialOpen),
    ]
}

fn apply(session: &mut Session, now: u64, input: &Input) {
    let mut actions = Vec::new();
    match input {
        Input::ManualStart => session.handle(now, &Event::ManualStart, &mut actions),
        Input::ManualStop => session.handle(now, &Event::ManualStop, &mut actions),
        Input::Connected => session.handle(now, &Event::Connected, &mut actions),
        Input::ConnectFailed => session.handle(now, &Event::ConnectFailed, &mut actions),
        Input::Closed => session.handle(now, &Event::Closed, &mut actions),
        Input::Tick => session.handle(now, &Event::Tick, &mut actions),
        Input::Garbage(bytes) => session.handle(now, &Event::Bytes(bytes), &mut actions),
        Input::PeerOpen { asn, hold } => {
            let bytes = OpenMessage::new(Asn(*asn), *hold, 0x0A00_0002)
                .encode()
                .expect("encodes");
            session.handle(now, &Event::Bytes(&bytes), &mut actions);
        }
        Input::PeerKeepalive => {
            session.handle(now, &Event::Bytes(&encode_keepalive()), &mut actions);
        }
        Input::PeerUpdate => {
            let bytes = update_bytes();
            session.handle(now, &Event::Bytes(&bytes), &mut actions);
        }
        Input::PeerNotification => {
            let bytes = NotificationMessage::cease().encode().expect("encodes");
            session.handle(now, &Event::Bytes(&bytes), &mut actions);
        }
        Input::PartialOpen(cut) => {
            let bytes = OpenMessage::new(Asn(65_001), 30, 3)
                .encode()
                .expect("encodes");
            let cut = (*cut).min(bytes.len() - 1);
            session.handle(now, &Event::Bytes(&bytes[..cut]), &mut actions);
        }
    }
}

proptest! {
    /// Arbitrary event storms never panic, and whenever the session shows
    /// `Established` the full handshake has demonstrably happened.
    #[test]
    fn no_event_sequence_panics_or_skips_the_handshake(
        passive in any::<bool>(),
        hold in prop_oneof![Just(0u16), 3u16..300],
        steps in prop::collection::vec((0u64..5_000, input()), 0..60),
    ) {
        let mut cfg = SessionConfig::new(Asn(64_512), 0x0A00_0001);
        cfg.passive = passive;
        cfg.hold_time = hold;
        let mut session = Session::new(cfg);
        let mut now = 0u64;
        for (dt, input) in &steps {
            now += dt;
            apply(&mut session, now, input);
            if session.state() == State::Established {
                prop_assert!(
                    session.handshake_complete(),
                    "Established without a complete handshake after {input:?}"
                );
            }
        }
    }

    /// The only road to `Established` runs through OPEN and KEEPALIVE:
    /// deleting *any* single step from the canonical handshake leaves the
    /// session unestablished.
    #[test]
    fn established_requires_every_handshake_step(skip in 0usize..4) {
        let mut session = Session::new(SessionConfig::new(Asn(64_512), 1));
        let steps: [Input; 4] = [
            Input::ManualStart,
            Input::Connected,
            Input::PeerOpen { asn: 70_000, hold: 30 },
            Input::PeerKeepalive,
        ];
        for (i, step) in steps.iter().enumerate() {
            if i == skip {
                continue;
            }
            apply(&mut session, i as u64, step);
        }
        prop_assert_ne!(session.state(), State::Established);

        // And with no step skipped, the same sequence establishes.
        let mut full = Session::new(SessionConfig::new(Asn(64_512), 1));
        for (i, step) in steps.iter().enumerate() {
            apply(&mut full, i as u64, step);
        }
        prop_assert_eq!(full.state(), State::Established);
        prop_assert!(full.handshake_complete());
    }
}
