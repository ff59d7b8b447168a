//! The feed client against a scripted peer: a plain `TcpListener` that
//! answers each expected query with fixed bytes, written in chunks of a
//! chosen size so that PDUs straddle the client's reads at every offset.

use std::collections::BTreeSet;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::thread;

use bgp_types::{Asn, Ipv4Prefix};
use moas_daemon::client::{FeedClient, SyncOutcome};
use moas_daemon::{Pdu, PrefixEntry};

const SESSION: u16 = 7;
/// Entries in the full transfer: about 1 MB of prefix PDUs.
const N: u32 = 50_000;

/// The `i`th distinct `/24` under 10.0.0.0/8, with one of seven origins.
fn pair(i: u32) -> (Ipv4Prefix, Asn) {
    (
        Ipv4Prefix::new(0x0A00_0000 | (i << 8), 24),
        Asn(64_512 + i % 7),
    )
}

/// `CacheResponse · Prefix × entries · EndOfData` as the server sends it.
fn transfer(serial: u32, entries: impl IntoIterator<Item = (bool, (Ipv4Prefix, Asn))>) -> Vec<u8> {
    let mut out = Vec::new();
    Pdu::CacheResponse { session: SESSION }.encode(&mut out);
    for (announce, (prefix, asn)) in entries {
        Pdu::Prefix(PrefixEntry {
            announce,
            prefix,
            asn,
        })
        .encode(&mut out);
    }
    Pdu::EndOfData {
        session: SESSION,
        serial,
    }
    .encode(&mut out);
    out
}

/// Serves one connection: for each `(query, answer)`, reads exactly the
/// query's bytes, checks them, and writes the answer `chunk` bytes at a
/// time. Returns the client's address to connect to and the peer thread.
fn scripted_peer(
    chunk: usize,
    script: Vec<(Pdu, Vec<u8>)>,
) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        for (query, answer) in script {
            let mut got = vec![0; query.to_bytes().len()];
            stream.read_exact(&mut got).unwrap();
            assert_eq!(Pdu::decode(&got).unwrap(), Some((query, got.len())));
            for piece in answer.chunks(chunk) {
                // The client may hang up early, on a refused transfer.
                if stream.write_all(piece).is_err() {
                    return;
                }
            }
        }
    });
    (addr, peer)
}

#[test]
fn full_sync_then_diff_at_every_read_split() {
    let full = transfer(1, (0..N).map(|i| (true, pair(i))));
    // The diff adds 100 new pairs past the end and withdraws the first 100.
    let added: Vec<_> = (N..N + 100).map(pair).collect();
    let withdrawn: Vec<_> = (0..100).map(pair).collect();
    let diff = transfer(
        2,
        added
            .iter()
            .map(|&p| (true, p))
            .chain(withdrawn.iter().map(|&p| (false, p))),
    );
    let expected: BTreeSet<_> = (0..N).map(pair).collect();
    for chunk in [1, 7, 20, 16 * 1024 + 3] {
        let script = vec![
            (Pdu::ResetQuery, full.clone()),
            (
                Pdu::SerialQuery {
                    session: SESSION,
                    serial: 1,
                },
                diff.clone(),
            ),
        ];
        let (addr, peer) = scripted_peer(chunk, script);
        let mut client = FeedClient::connect(addr).unwrap();

        assert_eq!(client.reset_sync().unwrap(), N as usize, "chunk {chunk}");
        assert_eq!((client.session(), client.serial()), (Some(SESSION), 1));
        assert_eq!(client.entries(), &expected, "chunk {chunk}");

        let outcome = client.serial_sync().unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Diff {
                announced: 100,
                withdrawn: 100,
                serial: 2,
            }
        );
        let mut after = expected.clone();
        after.extend(added.iter().copied());
        for p in &withdrawn {
            after.remove(p);
        }
        assert_eq!(client.entries(), &after, "chunk {chunk}");
        drop(client);
        peer.join().unwrap();
    }
}

#[test]
fn a_reset_transfer_holding_a_withdrawal_is_refused() {
    let entries = [
        (true, pair(0)),
        (true, pair(1)),
        (false, pair(0)),
        (true, pair(2)),
    ];
    let (addr, peer) = scripted_peer(7, vec![(Pdu::ResetQuery, transfer(1, entries))]);
    let mut client = FeedClient::connect(addr).unwrap();
    let err = client
        .reset_sync()
        .expect_err("a full table withdraws nothing");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("withdrawal"), "{err}");
    // Nothing of the refused transfer is kept.
    assert_eq!(client.session(), None);
    assert!(client.entries().is_empty());
    drop(client);
    peer.join().unwrap();
}
