//! Two real FSM peers over loopback TCP: the [`BgpListener`] service on a
//! minisock reactor versus the blocking [`replay_updates`] driver.
//!
//! Covers the acceptance path end to end: capability negotiation to
//! `Established`, UPDATE exchange landing in an Adj-RIB identical to the
//! updates fed in, a forced hold-timer expiry (silent peer) answered with
//! a HOLD_TIMER_EXPIRED NOTIFICATION and a close, and a clean reconnect
//! afterwards.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgp_session::{replay_updates, BgpListener, PeerInfo, SessionConfig, SessionHandler};
use bgp_types::{AsPath, Asn, Ipv4Prefix, RouteOrigin};
use bgp_wire::bgp::{PathAttributes, UpdateMessage};
use bgp_wire::msg::{encode_keepalive, notif, Message, OpenMessage, MESSAGE_TYPE_NOTIFICATION};
use minisock::{Config, Server};

/// Everything the listener-side handler observed, shared with the test.
#[derive(Default)]
struct Observed {
    updates: Vec<UpdateMessage>,
    established: u32,
    closed: u32,
    peer_asn: Option<Asn>,
}

struct Recorder(Arc<Mutex<Observed>>);

impl SessionHandler for Recorder {
    fn on_update(&mut self, _peer: &PeerInfo, update: UpdateMessage) {
        self.0.lock().unwrap().updates.push(update);
    }

    fn on_established(&mut self, peer: &PeerInfo) {
        let mut obs = self.0.lock().unwrap();
        obs.established += 1;
        obs.peer_asn = Some(peer.asn);
    }

    fn on_session_closed(&mut self) {
        self.0.lock().unwrap().closed += 1;
    }
}

fn announce(prefix: Ipv4Prefix, origin: Asn) -> UpdateMessage {
    UpdateMessage {
        withdrawn: Vec::new(),
        attrs: Some(PathAttributes {
            origin: RouteOrigin::Igp,
            as_path: AsPath::from_sequence([Asn(64_512), origin]),
            next_hop: 0x0A00_0001,
            local_pref: None,
            communities: Vec::new(),
            large_communities: Vec::new(),
            mp_reach: None,
            mp_unreach: None,
        }),
        nlri: vec![prefix],
    }
}

/// Folds announcements into prefix -> origin, the Adj-RIB shape the
/// acceptance criterion compares.
fn adj_rib(updates: &[UpdateMessage]) -> BTreeMap<(u32, u8), Asn> {
    let mut rib = BTreeMap::new();
    for update in updates {
        let Some(attrs) = &update.attrs else { continue };
        let Some(origin) = attrs.as_path.origin() else {
            continue;
        };
        for prefix in &update.nlri {
            rib.insert((prefix.network(), prefix.len()), origin);
        }
        for prefix in &update.withdrawn {
            rib.remove(&(prefix.network(), prefix.len()));
        }
    }
    rib
}

fn wait_for<F: Fn() -> bool>(deadline: Duration, cond: F) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn loopback_establish_exchange_and_cease() {
    let observed = Arc::new(Mutex::new(Observed::default()));
    let listener = BgpListener::new(
        SessionConfig::new(Asn(65_000), 0x7F00_0001),
        Recorder(Arc::clone(&observed)),
    );
    let server = Server::bind("127.0.0.1:0", listener, Config::default()).expect("bind");

    let sent: Vec<UpdateMessage> = (0u32..40)
        .map(|i| {
            announce(
                Ipv4Prefix::new(0x0A00_0000 | (i << 8), 24),
                Asn(70_000 + u32::from(i % 7 == 0) * 1_000 + i),
            )
        })
        .collect();

    let mut cfg = SessionConfig::new(Asn(70_000), 0x7F00_0002);
    cfg.retry_base_ms = 20;
    let report = replay_updates(server.local_addr(), &cfg, &mut sent.iter().cloned())
        .expect("replay succeeds");

    assert_eq!(report.updates_sent, 40);
    assert_eq!(report.connects, 1);
    assert_eq!(report.stats.established, 1);
    assert!(report.stats.keepalives_received >= 1);

    // The Cease races the reactor's close bookkeeping; wait for delivery.
    let delivered = wait_for(Duration::from_secs(5), || {
        let obs = observed.lock().unwrap();
        obs.updates.len() == 40 && obs.closed == 1
    });
    if !delivered {
        let (got, closes) = {
            let obs = observed.lock().unwrap();
            (obs.updates.len(), obs.closed)
        };
        panic!(
            "listener never saw the full replay: {got} updates, {closes} closes, stats {:?}",
            server.stats()
        );
    }

    let obs = observed.lock().unwrap();
    assert_eq!(obs.established, 1);
    assert_eq!(obs.peer_asn, Some(Asn(70_000)));
    // Byte-for-byte the same updates, in order — so the Adj-RIB built from
    // the session equals the one built straight from the source stream.
    assert_eq!(obs.updates, sent);
    assert_eq!(adj_rib(&obs.updates), adj_rib(&sent));
    drop(obs);

    server.shutdown();
}

#[test]
fn hold_expiry_notifies_then_listener_accepts_reconnect() {
    let observed = Arc::new(Mutex::new(Observed::default()));
    let mut template = SessionConfig::new(Asn(65_000), 0x7F00_0001);
    template.hold_time = 3; // RFC floor: negotiated hold = 3 s, keepalive 1 s
    let listener = BgpListener::new(template, Recorder(Arc::clone(&observed)));
    let server = Server::bind("127.0.0.1:0", listener, Config::default()).expect("bind");

    // --- Phase 1: a hand-rolled peer that completes the handshake, then
    // goes silent so the listener's hold timer must fire.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let open = OpenMessage::new(Asn(70_000), 3, 0x7F00_0002)
        .encode()
        .expect("encodes");
    stream.write_all(&open).unwrap();
    stream.write_all(&encode_keepalive()).unwrap();

    assert!(
        wait_for(Duration::from_secs(5), || {
            observed.lock().unwrap().established == 1
        }),
        "listener never established"
    );

    // Read everything the listener sends until it closes on us; the final
    // frame must be NOTIFICATION(HOLD_TIMER_EXPIRED).
    let mut collected = Vec::new();
    let mut buf = [0u8; 4096];
    let silent_since = Instant::now();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => collected.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("listener neither spoke nor closed within the read timeout")
            }
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
    // ~3 s of silence must pass before the hold timer may fire.
    assert!(
        silent_since.elapsed() >= Duration::from_millis(2_500),
        "listener closed after only {:?}",
        silent_since.elapsed()
    );

    let mut frames = Vec::new();
    let mut rest: &[u8] = &collected;
    while !rest.is_empty() {
        let (msg, used) = Message::decode_prefix_of(rest, bgp_wire::bgp::AsnEncoding::FourOctet)
            .expect("listener speaks well-formed, complete frames");
        frames.push(msg);
        rest = &rest[used..];
    }
    let last = frames.last().expect("listener sent frames");
    assert_eq!(last.type_code(), MESSAGE_TYPE_NOTIFICATION);
    let Message::Notification(n) = last else {
        panic!("type code said NOTIFICATION but variant disagrees");
    };
    assert_eq!(n.code, notif::HOLD_TIMER_EXPIRED);
    assert!(
        wait_for(Duration::from_secs(5), || {
            observed.lock().unwrap().closed == 1
        }),
        "listener never tore the session down"
    );
    drop(stream);

    // --- Phase 2: the listener must be fully healthy afterwards — a fresh
    // driver session establishes and replays.
    let sent: Vec<UpdateMessage> = vec![announce(Ipv4Prefix::new(0xC0A8_0000, 16), Asn(70_001))];
    let mut cfg = SessionConfig::new(Asn(70_000), 0x7F00_0002);
    cfg.hold_time = 3;
    cfg.retry_base_ms = 20;
    let report = replay_updates(server.local_addr(), &cfg, &mut sent.iter().cloned())
        .expect("reconnect replay succeeds");
    assert_eq!(report.updates_sent, 1);
    assert_eq!(report.stats.established, 1);

    let redelivered = wait_for(Duration::from_secs(5), || {
        let obs = observed.lock().unwrap();
        obs.established == 2 && obs.updates.len() == 1 && obs.closed == 2
    });
    if !redelivered {
        let (est, got, closes) = {
            let obs = observed.lock().unwrap();
            (obs.established, obs.updates.len(), obs.closed)
        };
        panic!(
            "reconnected session never delivered: {est} establishes, {got} updates, {closes} closes"
        );
    }
    assert_eq!(adj_rib(&observed.lock().unwrap().updates), adj_rib(&sent));

    server.shutdown();
}
