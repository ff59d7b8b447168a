//! Contract tests for the daemon's two network-facing parsers,
//! `http::Request::parse` and `feed::Pdu::decode`. Cases come from each
//! parser's own encoder — a request formatter here, `Pdu::encode` for the
//! feed — and over whole, truncated, mutated and pipelined inputs each
//! parser must:
//!
//! * never panic, and consume no more bytes than it was given;
//! * answer `Ok(None)` exactly when its input is a proper prefix of a valid
//!   frame: every proper prefix of a frame it accepts waits, a refusal or an
//!   accepted frame never changes as more bytes arrive, and a whole frame
//!   with one byte changed that still waits can be completed;
//! * decode pipelined frames in sequence.

use std::fmt::Debug;

use bgp_types::{Asn, Ipv4Prefix};
use moas_daemon::http::Request;
use moas_daemon::{Pdu, PrefixEntry};
use proptest::prelude::*;
use proptest::strategy::Just;

type Outcome<T, E> = Result<Option<(T, usize)>, E>;

/// Parses every prefix of `bytes`, shortest first, and checks the answers
/// follow the prefix contract: `Ok(None)` until they settle, then the same
/// frame (first complete exactly where it ends, so everything shorter was a
/// proper prefix of it) or an error, for every longer prefix. Returns the
/// answer for the whole input.
fn assert_prefix_contract<T: PartialEq + Debug, E: Debug>(
    bytes: &[u8],
    parse: impl Fn(&[u8]) -> Outcome<T, E>,
) -> Outcome<T, E> {
    let mut settled: Option<(usize, Outcome<T, E>)> = None;
    for len in 0..=bytes.len() {
        let outcome = parse(&bytes[..len]);
        match (&settled, &outcome) {
            (None, Ok(None)) => {}
            (None, Ok(Some((_, used)))) => assert_eq!(*used, len, "frame ends before its input"),
            (None, Err(_)) => {}
            (Some((_, Err(_))), Err(_)) => {}
            (Some((_, Ok(Some(frame)))), Ok(Some(again))) => assert_eq!(frame, again),
            (Some((at, first)), _) => {
                panic!("answer changed after byte {at}: {first:?}, then {outcome:?} at {len}")
            }
        }
        if settled.is_none() && !matches!(outcome, Ok(None)) {
            settled = Some((len, outcome));
        } else if len == bytes.len() {
            return outcome;
        }
    }
    settled
        .expect("the loop returns unless an answer settled")
        .1
}

/// Decodes back-to-back frames and returns each with the bytes it used.
fn decode_all<T, E: Debug>(bytes: &[u8], parse: impl Fn(&[u8]) -> Outcome<T, E>) -> Vec<T> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let (frame, used) = parse(&bytes[at..])
            .expect("pipelined frames decode")
            .expect("pipelined frames are whole");
        assert!(used > 0 && at + used <= bytes.len());
        frames.push(frame);
        at += used;
    }
    frames
}

/// `bytes` with the byte at `at` (wrapped to its length) replaced.
fn mutate(bytes: &[u8], at: usize, value: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = at % out.len();
    out[at] = value;
    out
}

// --- feed PDUs -------------------------------------------------------------

fn pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        (any::<u16>(), any::<u32>())
            .prop_map(|(session, serial)| Pdu::SerialNotify { session, serial }),
        (any::<u16>(), any::<u32>())
            .prop_map(|(session, serial)| Pdu::SerialQuery { session, serial }),
        Just(Pdu::ResetQuery),
        any::<u16>().prop_map(|session| Pdu::CacheResponse { session }),
        (any::<bool>(), any::<u32>(), 0u8..=32, any::<u32>()).prop_map(
            |(announce, addr, len, asn)| Pdu::Prefix(PrefixEntry {
                announce,
                prefix: Ipv4Prefix::new(addr, len),
                asn: Asn(asn),
            })
        ),
        (any::<u16>(), any::<u32>())
            .prop_map(|(session, serial)| Pdu::EndOfData { session, serial }),
        Just(Pdu::CacheReset),
        (0u16..4, text(&["a", "Z", " ", "é", "日", "🦀", "%"], 0..24))
            .prop_map(|(code, message)| Pdu::Error { code, message }),
    ]
}

/// Whether `buf` extends to a PDU: waiting on a whole frame with one byte
/// changed can only mean a body still to come, and any bytes fill one.
fn pdu_completes(buf: &[u8]) -> bool {
    let filled = [buf, &[0; 4096][..]].concat();
    matches!(Pdu::decode(&filled), Ok(Some(_)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn whole_pdus_decode_and_their_prefixes_wait(pdu in pdu()) {
        let bytes = pdu.to_bytes();
        let whole = assert_prefix_contract(&bytes, Pdu::decode);
        prop_assert_eq!(whole, Ok(Some((pdu, bytes.len()))));
    }

    #[test]
    fn mutated_pdus_keep_the_prefix_contract(pdu in pdu(), at in any::<usize>(), value in any::<u8>()) {
        let bytes = mutate(&pdu.to_bytes(), at, value);
        if let Ok(None) = assert_prefix_contract(&bytes, Pdu::decode) {
            prop_assert!(pdu_completes(&bytes), "waits on {bytes:?}, which no bytes complete");
        }
    }

    #[test]
    fn pipelined_pdus_decode_in_sequence(pdus in prop::collection::vec(pdu(), 1..6)) {
        let mut bytes = Vec::new();
        for pdu in &pdus {
            pdu.encode(&mut bytes);
        }
        let first = assert_prefix_contract(&bytes, Pdu::decode);
        prop_assert_eq!(first, Ok(Some((pdus[0].clone(), pdus[0].to_bytes().len()))));
        prop_assert_eq!(decode_all(&bytes, Pdu::decode), pdus);
    }
}

// --- HTTP requests ---------------------------------------------------------

/// Strings over `alphabet`, `len` pieces long.
fn text(
    alphabet: &'static [&'static str],
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    prop::collection::vec(0..alphabet.len(), len)
        .prop_map(move |picks| picks.into_iter().map(|i| alphabet[i]).collect())
}

/// Text for a path segment or query component: characters that go through
/// as they are, and ones the formatter must escape.
fn component() -> impl Strategy<Value = String> {
    text(
        &[
            "a", "Z", "0", "-", ".", "~", " ", "+", "%", "&", "=", "?", "#", "é", "/",
        ],
        0..6,
    )
}

/// One generated request: what the formatter writes, and what the parser
/// must read back.
#[derive(Debug, Clone)]
struct Case {
    bytes: Vec<u8>,
    expected: Request,
}

fn request() -> impl Strategy<Value = Case> {
    (
        (0usize..4, prop::collection::vec(component(), 1..4)),
        prop::collection::vec((component(), component()), 0..3),
        prop::collection::vec(
            (0usize..4, text(&["v", "1", " ", ",", ";", "é"], 0..6)),
            0..4,
        ),
        (
            any::<bool>(),
            0usize..3,
            text(&["k", "=", "0", "\r\n", ":", "é"], 0..12),
        ),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |((method, segments), query, headers, (http11, connection, body), (upper, escapes))| {
                format_request(
                    method, &segments, &query, &headers, http11, connection, &body, upper, escapes,
                )
            },
        )
}

/// Percent-encodes `raw` for a request target: unreserved characters pass,
/// a space becomes `+` or `%20`, anything else `%XX` in either case, picked
/// by successive bits of `choices`.
fn escape(raw: &str, choices: &mut u64) -> String {
    let mut out = String::new();
    for &b in raw.as_bytes() {
        let pick = *choices & 1 == 1;
        *choices = choices.rotate_right(1);
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' | b'~' => out.push(char::from(b)),
            b' ' if pick => out.push('+'),
            _ if pick => out.push_str(&format!("%{b:02x}")),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn format_request(
    method: usize,
    segments: &[String],
    query: &[(String, String)],
    headers: &[(usize, String)],
    http11: bool,
    connection: usize,
    body: &str,
    upper: bool,
    mut choices: u64,
) -> Case {
    let method = ["get", "POST", "Delete", "PUT"][method];
    let path: String = segments.iter().map(|s| format!("/{s}")).collect();
    let mut target: String = segments
        .iter()
        .map(|s| format!("/{}", escape(s, &mut choices)))
        .collect();
    if !query.is_empty() {
        let pairs: Vec<String> = query
            .iter()
            .map(|(k, v)| format!("{}={}", escape(k, &mut choices), escape(v, &mut choices)))
            .collect();
        target = format!("{target}?{}", pairs.join("&"));
    }
    let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
    let mut head = format!("{method} {target} {version}\r\n");
    let mut expected_headers = Vec::new();
    let names = ["Host", "X-Trace", "Accept", "User-Agent"];
    for (name, value) in headers {
        let name = names[*name];
        head.push_str(&format!("{name}:  {value} \r\n"));
        expected_headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    match connection {
        1 => head.push_str("Connection: close\r\n"),
        2 => head.push_str("Connection: keep-alive\r\n"),
        _ => {}
    }
    if let Some(value) = ["", "close", "keep-alive"]
        .get(connection)
        .filter(|v| !v.is_empty())
    {
        expected_headers.push(("connection".to_string(), value.to_string()));
    }
    if !body.is_empty() {
        let name = if upper {
            "Content-Length"
        } else {
            "content-length"
        };
        head.push_str(&format!("{name}: {}\r\n", body.len()));
        expected_headers.push(("content-length".to_string(), body.len().to_string()));
    }
    let bytes = format!("{head}\r\n{body}").into_bytes();
    let expected = Request {
        method: method.to_ascii_uppercase(),
        path,
        query: query.to_vec(),
        headers: expected_headers,
        body: body.as_bytes().to_vec(),
        keep_alive: match connection {
            1 => false,
            2 => true,
            _ => http11,
        },
    };
    Case { bytes, expected }
}

/// Whether `buf` extends to a request. A whole request with one byte
/// changed that still waits has its head's blank line broken, with the line
/// after it still open, or declares a longer body: finishing a char cut
/// short, then one of a few line endings, then filler for a body completes
/// it.
fn request_completes(buf: &[u8]) -> bool {
    let mut base = buf.to_vec();
    if let Err(e) = std::str::from_utf8(buf) {
        if e.error_len().is_some() {
            return false;
        }
        let lead = buf[e.valid_up_to()];
        let width = lead.leading_ones() as usize;
        let have = buf.len() - e.valid_up_to();
        for i in have..width {
            base.push(match (i, lead) {
                (1, 0xE0) => 0xA0,
                (1, 0xF0) => 0x90,
                _ => 0x80,
            });
        }
    }
    ["", "\r\n", "\r\n\r\n", ": v\r\n\r\n"].iter().any(|end| {
        let filled = [&base, end.as_bytes(), &[b'x'; 2048][..]].concat();
        matches!(Request::parse(&filled), Ok(Some(_)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn whole_requests_parse_and_their_prefixes_wait(case in request()) {
        let whole = assert_prefix_contract(&case.bytes, Request::parse);
        prop_assert_eq!(whole, Ok(Some((case.expected, case.bytes.len()))));
    }

    #[test]
    fn mutated_requests_keep_the_prefix_contract(case in request(), at in any::<usize>(), value in any::<u8>()) {
        let bytes = mutate(&case.bytes, at, value);
        if let Ok(None) = assert_prefix_contract(&bytes, Request::parse) {
            prop_assert!(
                request_completes(&bytes),
                "waits on {:?}, which no bytes complete",
                String::from_utf8_lossy(&bytes)
            );
        }
    }

    #[test]
    fn pipelined_requests_parse_in_sequence(cases in prop::collection::vec(request(), 1..4)) {
        let bytes: Vec<u8> = cases.iter().flat_map(|case| case.bytes.clone()).collect();
        let first = assert_prefix_contract(&bytes, Request::parse);
        prop_assert_eq!(first, Ok(Some((cases[0].expected.clone(), cases[0].bytes.len()))));
        let expected: Vec<Request> = cases.into_iter().map(|case| case.expected).collect();
        prop_assert_eq!(decode_all(&bytes, Request::parse), expected);
    }
}
