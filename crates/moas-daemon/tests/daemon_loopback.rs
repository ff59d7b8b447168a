//! The acceptance lifecycle over real loopback sockets, deterministic
//! end-to-end: initial full sync at serial N → incremental diff after a
//! table update → cache reset once the client's serial ages out of the
//! delta ring → exception-file reload flipping a verdict — with `/validity`
//! and `/metrics` responses asserted exactly.

use std::collections::BTreeSet;
use std::time::Duration;

use bgp_types::{Asn, Ipv4Prefix, MoasList};
use moas_daemon::client::{FeedClient, HttpClient, SyncOutcome};
use moas_daemon::{Daemon, DaemonConfig, ExceptionSet, OriginTable, TableUpdate};

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn fixture_table() -> OriginTable {
    let mut table = OriginTable::new(42);
    table.insert(
        p("10.1.0.0/16"),
        [Asn(64512), Asn(64513)].into_iter().collect::<MoasList>(),
    );
    table.insert(
        p("192.0.2.0/24"),
        [Asn(64496)].into_iter().collect::<MoasList>(),
    );
    table
}

fn small_ring_config() -> DaemonConfig {
    DaemonConfig {
        // Two retained deltas, so a third update evicts the serial a lagging
        // client still holds.
        delta_ring_capacity: 2,
        io_timeout: Duration::from_secs(10),
        ..DaemonConfig::loopback()
    }
}

#[test]
fn full_lifecycle_over_loopback() {
    let daemon = Daemon::start(small_ring_config(), fixture_table()).unwrap();
    let mut http = HttpClient::connect(daemon.http_addr()).unwrap();
    let mut feed = FeedClient::connect(daemon.feed_addr()).unwrap();

    // --- Initial full sync at serial 0 -----------------------------------
    let entries = feed.reset_sync().unwrap();
    assert_eq!(entries, 3);
    assert_eq!(feed.session(), Some(42));
    assert_eq!(feed.serial(), 0);
    let expected: BTreeSet<(Ipv4Prefix, Asn)> = [
        (p("10.1.0.0/16"), Asn(64512)),
        (p("10.1.0.0/16"), Asn(64513)),
        (p("192.0.2.0/24"), Asn(64496)),
    ]
    .into_iter()
    .collect();
    assert_eq!(feed.entries(), &expected);

    // --- Query the initial table, exact bodies ---------------------------
    let (status, body) = http.get("/validity?prefix=10.1.0.0/16&asn=64512").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body,
        "{\"prefix\":\"10.1.0.0/16\",\"asn\":64512,\"state\":\"valid\",\
         \"matchedPrefix\":\"10.1.0.0/16\",\"origins\":[64512,64513]}"
    );
    let (status, body) = http.get("/validity?prefix=10.1.0.0/16&asn=64666").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body,
        "{\"prefix\":\"10.1.0.0/16\",\"asn\":64666,\"state\":\"invalid\",\
         \"matchedPrefix\":\"10.1.0.0/16\",\"origins\":[64512,64513]}"
    );
    let (status, body) = http
        .get("/validity?prefix=203.0.113.0/24&asn=64512")
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body,
        "{\"prefix\":\"203.0.113.0/24\",\"asn\":64512,\"state\":\"not-found\"}"
    );

    // --- Live update over HTTP ingest → push notify → incremental diff ---
    let (status, body) = http
        .post(
            "/ingest",
            r#"{"updates":[
                {"prefix": "198.51.100.0/24", "asn": 64497},
                {"announce": false, "prefix": "10.1.0.0/16", "asn": 64513}
            ]}"#,
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "{\"serial\":1,\"announced\":1,\"withdrawn\":1}");

    // The daemon pushes a serial notify to the synced feed client.
    assert_eq!(feed.wait_notify().unwrap(), 1);
    match feed.serial_sync().unwrap() {
        SyncOutcome::Diff {
            announced,
            withdrawn,
            serial,
        } => {
            assert_eq!((announced, withdrawn, serial), (1, 1, 1));
        }
        SyncOutcome::CacheReset => panic!("diff expected at serial 0 with a 2-deep ring"),
    }
    let expected: BTreeSet<(Ipv4Prefix, Asn)> = [
        (p("10.1.0.0/16"), Asn(64512)),
        (p("192.0.2.0/24"), Asn(64496)),
        (p("198.51.100.0/24"), Asn(64497)),
    ]
    .into_iter()
    .collect();
    assert_eq!(feed.entries(), &expected);
    // The withdrawn origin is now judged invalid.
    let (_, body) = http.get("/validity?prefix=10.1.0.0/16&asn=64513").unwrap();
    assert_eq!(
        body,
        "{\"prefix\":\"10.1.0.0/16\",\"asn\":64513,\"state\":\"invalid\",\
         \"matchedPrefix\":\"10.1.0.0/16\",\"origins\":[64512]}"
    );

    // --- Age the client's serial out of the 2-deep ring → cache reset ----
    for i in 0..3u32 {
        let (status, _) = http
            .post(
                "/ingest",
                &format!(r#"{{"updates":[{{"prefix": "172.16.{i}.0/24", "asn": 65000}}]}}"#),
            )
            .unwrap();
        assert_eq!(status, 200);
    }
    // Serials now run to 4; the ring retains only 3→4 and 2→3. The client
    // holds serial 1, so the daemon must answer with a cache reset...
    assert_eq!(feed.serial_sync().unwrap(), SyncOutcome::CacheReset);
    // ...and a fresh reset sync recovers the full table (6 entries).
    assert_eq!(feed.reset_sync().unwrap(), 6);
    assert_eq!(feed.serial(), 4);

    // A session mismatch likewise forces a reset, whatever the serial.
    assert_eq!(feed.sync_from(41, 4).unwrap(), SyncOutcome::CacheReset);

    // --- Exception reload flips a verdict --------------------------------
    let (_, before) = http.get("/validity?prefix=10.1.0.0/16&asn=64999").unwrap();
    assert_eq!(
        before,
        "{\"prefix\":\"10.1.0.0/16\",\"asn\":64999,\"state\":\"invalid\",\
         \"matchedPrefix\":\"10.1.0.0/16\",\"origins\":[64512]}"
    );
    let slurm = r#"{
        "slurmVersion": 1,
        "locallyAddedAssertions": {
            "prefixAssertions": [ { "prefix": "10.1.0.0/16", "asn": 64999 } ]
        }
    }"#;
    let (status, body) = http.post("/reload-exceptions", slurm).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "{\"rules\":1,\"changed\":true}");
    let (_, after) = http.get("/validity?prefix=10.1.0.0/16&asn=64999").unwrap();
    assert_eq!(
        after,
        "{\"prefix\":\"10.1.0.0/16\",\"asn\":64999,\"state\":\"valid\",\
         \"matchedPrefix\":\"10.1.0.0/16\",\"origins\":[64512,64999]}"
    );

    // --- Metrics reflect everything above, in parseable form -------------
    let (status, metrics) = http.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let parsed: Vec<(&str, u64)> = metrics
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (name, value) = l.split_once(' ').expect("metric line shape");
            (name, value.parse::<u64>().expect("metric value"))
        })
        .collect();
    let metric = |name: &str| {
        parsed
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
            .1
    };
    assert_eq!(metric("daemon_queries_valid_total"), 2);
    assert_eq!(metric("daemon_queries_invalid_total"), 3);
    assert_eq!(metric("daemon_queries_not_found_total"), 1);
    assert_eq!(metric("daemon_ingest_batches_total"), 4);
    assert_eq!(metric("daemon_ingest_updates_total"), 5);
    assert_eq!(metric("daemon_exception_reloads_total"), 1);
    assert_eq!(
        metric("daemon_exception_reloads_verdict_affecting_total"),
        1
    );
    assert_eq!(metric("feed_reset_syncs_total"), 2);
    assert_eq!(metric("feed_diff_syncs_total"), 1);
    assert_eq!(metric("feed_cache_resets_total"), 2);
    assert_eq!(metric("table_serial"), 4);
    assert_eq!(metric("table_entries"), 6);
    assert_eq!(metric("feed_connections_open"), 1);
    assert!(metric("feed_notifies_total") >= 1);

    // --- Clean shutdown --------------------------------------------------
    let (status, body) = http.post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "{\"ok\":true}");
    assert!(daemon.shutdown_requested());
    let http_stats = daemon.http_stats();
    assert_eq!(http_stats.accepted, 1);
    assert_eq!(http_stats.refused, 0);
    daemon.shutdown();
}

#[test]
fn exceptions_active_from_startup() {
    let slurm = r#"{
        "validationOutputFilters": {
            "prefixFilters": [ { "prefix": "10.1.0.0/16" } ]
        }
    }"#;
    let config = DaemonConfig {
        exceptions: ExceptionSet::from_json(slurm).unwrap(),
        ..DaemonConfig::loopback()
    };
    let daemon = Daemon::start(config, fixture_table()).unwrap();
    let mut http = HttpClient::connect(daemon.http_addr()).unwrap();
    // Everything derived at the /16 is filtered and nothing covers it.
    let (_, body) = http.get("/validity?prefix=10.1.0.0/16&asn=64512").unwrap();
    assert_eq!(
        body,
        "{\"prefix\":\"10.1.0.0/16\",\"asn\":64512,\"state\":\"not-found\"}"
    );
    daemon.shutdown();
}

#[test]
fn in_process_apply_feeds_the_ring_like_ingest() {
    let daemon = Daemon::start(DaemonConfig::loopback(), fixture_table()).unwrap();
    let mut feed = FeedClient::connect(daemon.feed_addr()).unwrap();
    feed.reset_sync().unwrap();
    let serial = daemon.apply(&[TableUpdate::announce(p("203.0.113.0/24"), Asn(64511))]);
    assert_eq!(serial, 1);
    assert_eq!(feed.wait_notify().unwrap(), 1);
    match feed.serial_sync().unwrap() {
        SyncOutcome::Diff { announced, .. } => assert_eq!(announced, 1),
        SyncOutcome::CacheReset => panic!("expected a diff"),
    }
    assert!(feed.entries().contains(&(p("203.0.113.0/24"), Asn(64511))));
    daemon.shutdown();
}

#[test]
fn two_feed_clients_both_get_notified() {
    let daemon = Daemon::start(DaemonConfig::loopback(), fixture_table()).unwrap();
    let mut a = FeedClient::connect(daemon.feed_addr()).unwrap();
    let mut b = FeedClient::connect(daemon.feed_addr()).unwrap();
    a.reset_sync().unwrap();
    b.reset_sync().unwrap();
    daemon.apply(&[TableUpdate::announce(p("203.0.113.0/24"), Asn(64511))]);
    assert_eq!(a.wait_notify().unwrap(), 1);
    assert_eq!(b.wait_notify().unwrap(), 1);
    daemon.shutdown();
}

#[test]
fn malformed_http_gets_400_and_close() {
    use std::io::{Read, Write};
    let daemon = Daemon::start(DaemonConfig::loopback(), fixture_table()).unwrap();
    let mut raw = std::net::TcpStream::connect(daemon.http_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"GET / HTTP/2.0\r\n\r\n").unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap(); // server closes after 400
    assert!(
        response.starts_with("HTTP/1.1 400 Bad Request\r\n"),
        "{response}"
    );
    daemon.shutdown();
}

#[test]
fn malformed_feed_bytes_get_error_pdu_and_close() {
    use std::io::{Read, Write};
    let daemon = Daemon::start(DaemonConfig::loopback(), fixture_table()).unwrap();
    let mut raw = std::net::TcpStream::connect(daemon.feed_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&[9u8; 8]).unwrap(); // bad version byte
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap(); // server closes after the error
    let (pdu, _) = moas_daemon::Pdu::decode(&response).unwrap().unwrap();
    match pdu {
        moas_daemon::Pdu::Error { code, message } => {
            assert_eq!(code, 0);
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("expected an error PDU, got {other:?}"),
    }
    daemon.shutdown();
}

#[test]
fn slowloris_gets_408_without_stalling_other_queries() {
    use std::io::{Read, Write};
    let config = DaemonConfig {
        request_deadline: Duration::from_millis(300),
        ..DaemonConfig::loopback()
    };
    let daemon = Daemon::start(config, fixture_table()).unwrap();

    // The attacker: trickle a request one byte at a time, far slower than
    // the deadline allows.
    let mut slow = std::net::TcpStream::connect(daemon.http_addr()).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    slow.write_all(b"G").unwrap();

    // While the slow request dribbles in, a well-behaved client must be
    // served normally.
    let started = std::time::Instant::now();
    for chunk in [b"E".as_slice(), b"T", b" ", b"/"] {
        std::thread::sleep(Duration::from_millis(50));
        // Ignore write errors: the server may close us mid-loop.
        let _ = slow.write_all(chunk);
        let mut http = HttpClient::connect(daemon.http_addr()).unwrap();
        let (status, _) = http.get("/status").unwrap();
        assert_eq!(status, 200);
    }

    // The slow connection is answered 408 and closed once the deadline
    // passes; read_to_string returns after the server's close.
    let mut response = String::new();
    slow.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "{response}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "408 took {:?}",
        started.elapsed()
    );

    // And the listener keeps serving afterwards.
    let mut http = HttpClient::connect(daemon.http_addr()).unwrap();
    assert_eq!(http.get("/status").unwrap().0, 200);
    daemon.shutdown();
}

#[test]
fn oversized_head_gets_431_and_close() {
    use std::io::{Read, Write};
    let daemon = Daemon::start(DaemonConfig::loopback(), fixture_table()).unwrap();
    let mut raw = std::net::TcpStream::connect(daemon.http_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // 9 KiB of header without a terminator blows the 8 KiB head cap.
    let mut req = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    req.extend(std::iter::repeat_n(b'a', 9 * 1024));
    raw.write_all(&req).unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{response}"
    );
    daemon.shutdown();
}

#[test]
fn live_bgp_session_feeds_the_table() {
    use bgp_session::{replay_updates, SessionConfig};
    use bgp_types::{AsPath, RouteOrigin};
    use bgp_wire::bgp::{PathAttributes, UpdateMessage};

    fn update(withdrawn: &[&str], origin: Option<u32>, nlri: &[&str]) -> UpdateMessage {
        let attrs = origin.map(|asn| {
            let as_path = AsPath::from_sequence([Asn(64_900), Asn(asn)]);
            PathAttributes {
                origin: RouteOrigin::Igp,
                next_hop: PathAttributes::synthetic_next_hop(as_path.first()),
                as_path,
                local_pref: None,
                communities: Vec::new(),
                large_communities: Vec::new(),
                mp_reach: None,
                mp_unreach: None,
            }
        });
        UpdateMessage {
            withdrawn: withdrawn.iter().map(|s| p(s)).collect(),
            attrs,
            nlri: nlri.iter().map(|s| p(s)).collect(),
        }
    }

    let config = DaemonConfig {
        bgp_addr: Some("127.0.0.1:0".to_string()),
        ..DaemonConfig::loopback()
    };
    let daemon = Daemon::start(config, fixture_table()).unwrap();
    let bgp_addr = daemon.bgp_addr().expect("bgp listener configured");

    // One live session announces a new origin for a fixture prefix plus a
    // brand-new prefix, and withdraws 192.0.2.0/24 (all origins).
    let mut session = SessionConfig::new(Asn(70_000), 0x7F00_0002);
    session.retry_base_ms = 20;
    let mut stream = [
        update(&[], Some(65_001), &["10.1.0.0/16", "203.0.113.0/24"]),
        update(&["192.0.2.0/24"], None, &[]),
    ]
    .into_iter();
    let report = replay_updates(bgp_addr, &session, &mut stream).unwrap();
    assert_eq!(report.updates_sent, 2);
    assert_eq!(report.stats.established, 1);

    // The writes land asynchronously (reactor thread); poll the serial.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while daemon.serial() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(daemon.serial(), 2, "BGP batches never applied");

    let mut http = HttpClient::connect(daemon.http_addr()).unwrap();
    let (status, body) = http.get("/validity?prefix=10.1.0.0/16&asn=65001").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"state\":\"valid\""), "{body}");
    let (_, body) = http
        .get("/validity?prefix=203.0.113.0/24&asn=65001")
        .unwrap();
    assert!(body.contains("\"state\":\"valid\""), "{body}");
    let (_, body) = http.get("/validity?prefix=192.0.2.0/24&asn=64496").unwrap();
    assert!(body.contains("\"state\":\"not-found\""), "{body}");

    let (_, metrics) = http.get("/metrics").unwrap();
    assert!(
        metrics.contains("bgp_sessions_established_total 1\n"),
        "{metrics}"
    );
    assert!(metrics.contains("bgp_updates_total 2\n"), "{metrics}");
    assert!(metrics.contains("bgp_table_changes_total 3\n"), "{metrics}");
    daemon.shutdown();
}

#[test]
fn notify_leaves_on_the_write_not_on_the_tick() {
    use std::time::Instant;
    // Default configuration: the feed reactor ticks every 100 ms, so a
    // notify that waited for the tick would take 50 ms on average.
    let daemon = Daemon::start(DaemonConfig::loopback(), fixture_table()).unwrap();
    let mut feed = FeedClient::connect(daemon.feed_addr()).unwrap();
    feed.reset_sync().unwrap();
    let mut waits = Vec::new();
    for round in 1..=20u32 {
        let start = Instant::now();
        let serial = daemon.apply(&[TableUpdate::announce(
            p("203.0.113.0/24"),
            Asn(64_000 + round),
        )]);
        assert_eq!(feed.wait_notify().unwrap(), serial);
        waits.push(start.elapsed());
    }
    waits.sort();
    assert!(
        waits[waits.len() - 1] < Duration::from_millis(100),
        "slowest apply -> notify took {:?}",
        waits[waits.len() - 1]
    );
    assert!(
        waits[waits.len() / 2] < Duration::from_millis(20),
        "median apply -> notify took {:?}: that is the tick, not the wake",
        waits[waits.len() / 2]
    );
    assert!(daemon.feed_stats().wakes_by_waker > 0);
    daemon.shutdown();
}

#[test]
fn applies_beside_queries_never_copy_the_table() {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::time::Instant;
    // 100k /24s: copying this table takes longer than the bound below, which
    // is what a copy-on-write snapshot does when an apply meets a query in
    // flight.
    let mut table = OriginTable::new(1);
    for i in 0..100_000u32 {
        table.insert(
            Ipv4Prefix::new((10 << 24) | (i << 8), 24),
            MoasList::implicit(Asn(64_512 + i % 7)),
        );
    }
    let daemon = Daemon::start(DaemonConfig::loopback(), table).unwrap();
    let mut http = HttpClient::connect(daemon.http_addr()).unwrap();
    let answered = AtomicU32::new(0);
    let done = AtomicBool::new(false);
    let slowest = std::thread::scope(|scope| {
        // Back-to-back queries until the applies are done.
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                let n = answered.load(Ordering::SeqCst);
                let path = format!("/validity?prefix=10.{}.{}.0/24&asn=64512", n % 256, n % 100);
                assert_eq!(http.get(&path).unwrap().0, 200);
                answered.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Each apply waits for one more answer, so it starts while the
        // reader's next query is on its way: the two really interleave.
        let mut slowest = Duration::ZERO;
        let mut seen = 0;
        for i in 0..1_000u32 {
            while answered.load(Ordering::SeqCst) == seen {
                std::thread::yield_now();
            }
            seen = answered.load(Ordering::SeqCst);
            let update =
                TableUpdate::announce(Ipv4Prefix::new((11 << 24) | (i << 8), 24), Asn(65_000));
            let start = Instant::now();
            daemon.apply(&[update]);
            slowest = slowest.max(start.elapsed());
        }
        done.store(true, Ordering::SeqCst);
        slowest
    });
    assert_eq!(daemon.serial(), 1_000);
    assert!(
        slowest < Duration::from_millis(10),
        "slowest of 1,000 applies interleaved with queries took {slowest:?}"
    );
    daemon.shutdown();
}
