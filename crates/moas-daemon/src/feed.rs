//! The binary push-feed protocol: RFC 8210's PDU shapes carrying MOAS
//! table entries instead of ROA payloads.
//!
//! Every PDU starts with an 8-byte header:
//!
//! ```text
//! 0          8          16         24        31
//! +----------+----------+---------------------+
//! | version  | pdu type |   session id        |
//! +----------+----------+---------------------+
//! |          length (incl. header)            |
//! +-------------------------------------------+
//! ```
//!
//! All integers are big-endian. `version` is always [`VERSION`]. The
//! session-id field doubles as the error code in [`Pdu::Error`] (as in
//! RFC 8210) and is zero where a PDU carries no session.
//!
//! The sync conversation is the RTR one:
//!
//! * client sends [`Pdu::ResetQuery`] → server replies
//!   [`Pdu::CacheResponse`], a [`Pdu::Prefix`] per table entry, then
//!   [`Pdu::EndOfData`] naming the serial the transfer represents;
//! * client sends [`Pdu::SerialQuery`] with its session + serial → server
//!   replies with the delta (same framing), or [`Pdu::CacheReset`] when the
//!   serial is unknown, from a different session, or aged out of the delta
//!   ring — the client must fall back to a reset query;
//! * server pushes [`Pdu::SerialNotify`] whenever its serial advances;
//!   clients then serial-query at their own pace.

use std::error::Error;
use std::fmt;

use bgp_types::{Asn, Ipv4Prefix};

/// The protocol version encoded in every header.
pub const VERSION: u8 = 0;

/// Largest PDU the decoder will accept; anything bigger is a framing error.
/// Only [`Pdu::Error`] is variable-length, and its message is short.
const MAX_PDU_LEN: u32 = 4096;

const HEADER_LEN: usize = 8;
const PREFIX_PDU_LEN: usize = 20;

const TYPE_SERIAL_NOTIFY: u8 = 0;
const TYPE_SERIAL_QUERY: u8 = 1;
const TYPE_RESET_QUERY: u8 = 2;
const TYPE_CACHE_RESPONSE: u8 = 3;
const TYPE_PREFIX: u8 = 4;
const TYPE_END_OF_DATA: u8 = 7;
const TYPE_CACHE_RESET: u8 = 8;
const TYPE_ERROR: u8 = 10;

/// A malformed feed byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedError {
    /// The header named a protocol version other than [`VERSION`].
    BadVersion(u8),
    /// The header named an unknown PDU type.
    BadType(u8),
    /// The header's length field is impossible for its PDU type.
    BadLength {
        /// The PDU type from the header.
        pdu_type: u8,
        /// The offending length field.
        length: u32,
    },
    /// A prefix PDU carried a mask length over 32.
    BadPrefix(u8),
    /// An error PDU's message was not UTF-8.
    BadText,
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::BadVersion(v) => write!(f, "unsupported feed version {v}"),
            FeedError::BadType(t) => write!(f, "unknown PDU type {t}"),
            FeedError::BadLength { pdu_type, length } => {
                write!(f, "impossible length {length} for PDU type {pdu_type}")
            }
            FeedError::BadPrefix(len) => write!(f, "prefix length {len} exceeds 32"),
            FeedError::BadText => write!(f, "error PDU message is not UTF-8"),
        }
    }
}

impl Error for FeedError {}

/// One `(announce?, prefix, origin)` table entry on the wire (PDU type 4,
/// fixed 20 bytes: header, flags, prefix length, 2 reserved bytes, network
/// address, origin ASN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixEntry {
    /// `true` = announce (flags bit 0 set), `false` = withdraw.
    pub announce: bool,
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// The origin AS.
    pub asn: Asn,
}

/// Appends one whole answer to a query: [`Pdu::CacheResponse`], a
/// [`Pdu::Prefix`] per entry, then [`Pdu::EndOfData`]. `count` is the number
/// of entries, so the buffer grows once, to the transfer's exact size.
pub(crate) fn encode_transfer(
    out: &mut Vec<u8>,
    session: u16,
    serial: u32,
    count: usize,
    entries: impl Iterator<Item = (bool, Ipv4Prefix, Asn)>,
) {
    out.reserve(HEADER_LEN + count * PREFIX_PDU_LEN + HEADER_LEN + 4);
    Pdu::CacheResponse { session }.encode(out);
    for (announce, prefix, asn) in entries {
        Pdu::Prefix(PrefixEntry {
            announce,
            prefix,
            asn,
        })
        .encode(out);
    }
    Pdu::EndOfData { session, serial }.encode(out);
}

/// A feed protocol data unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pdu {
    /// Server → client: the table moved to `serial`; ask me for the diff.
    SerialNotify {
        /// The server's session id.
        session: u16,
        /// The new serial.
        serial: u32,
    },
    /// Client → server: I hold `serial` of `session`; send what changed.
    SerialQuery {
        /// The session the client's state belongs to.
        session: u16,
        /// The serial the client holds.
        serial: u32,
    },
    /// Client → server: I hold nothing; send the full table.
    ResetQuery,
    /// Server → client: transfer follows.
    CacheResponse {
        /// The server's session id.
        session: u16,
    },
    /// One table entry of the transfer.
    Prefix(PrefixEntry),
    /// Server → client: transfer complete; you now hold `serial`.
    EndOfData {
        /// The server's session id.
        session: u16,
        /// The serial the client now holds.
        serial: u32,
    },
    /// Server → client: I cannot diff from your serial; reset-query instead.
    CacheReset,
    /// Either direction: protocol error. The session field carries `code`.
    Error {
        /// Numeric error code (0 = corrupt data, 1 = internal error,
        /// 2 = unsupported version, 3 = unsupported PDU type).
        code: u16,
        /// Human-readable diagnostic.
        message: String,
    },
}

fn header(out: &mut Vec<u8>, pdu_type: u8, session: u16, length: u32) {
    out.push(VERSION);
    out.push(pdu_type);
    out.extend_from_slice(&session.to_be_bytes());
    out.extend_from_slice(&length.to_be_bytes());
}

impl Pdu {
    /// Appends the wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Pdu::SerialNotify { session, serial } => {
                header(out, TYPE_SERIAL_NOTIFY, *session, 12);
                out.extend_from_slice(&serial.to_be_bytes());
            }
            Pdu::SerialQuery { session, serial } => {
                header(out, TYPE_SERIAL_QUERY, *session, 12);
                out.extend_from_slice(&serial.to_be_bytes());
            }
            Pdu::ResetQuery => header(out, TYPE_RESET_QUERY, 0, 8),
            Pdu::CacheResponse { session } => header(out, TYPE_CACHE_RESPONSE, *session, 8),
            Pdu::Prefix(entry) => {
                // Built in place and appended with one copy: a full sync
                // appends two million of these. Session and reserved bytes
                // stay zero.
                let mut pdu = [0; PREFIX_PDU_LEN];
                pdu[0] = VERSION;
                pdu[1] = TYPE_PREFIX;
                pdu[4..8].copy_from_slice(&(PREFIX_PDU_LEN as u32).to_be_bytes());
                pdu[8] = u8::from(entry.announce);
                pdu[9] = entry.prefix.len();
                pdu[12..16].copy_from_slice(&entry.prefix.network().to_be_bytes());
                pdu[16..].copy_from_slice(&entry.asn.0.to_be_bytes());
                out.extend_from_slice(&pdu);
            }
            Pdu::EndOfData { session, serial } => {
                header(out, TYPE_END_OF_DATA, *session, 12);
                out.extend_from_slice(&serial.to_be_bytes());
            }
            Pdu::CacheReset => header(out, TYPE_CACHE_RESET, 0, 8),
            Pdu::Error { code, message } => {
                // The decoder refuses a PDU past MAX_PDU_LEN, so a longer
                // message is cut to fit, at a char boundary.
                let fit = message.floor_char_boundary(MAX_PDU_LEN as usize - HEADER_LEN - 4);
                let msg = &message.as_bytes()[..fit];
                let length = (HEADER_LEN + 4 + msg.len()) as u32;
                header(out, TYPE_ERROR, *code, length);
                out.extend_from_slice(&(msg.len() as u32).to_be_bytes());
                out.extend_from_slice(msg);
            }
        }
    }

    /// The wire encoding as a fresh buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        self.encode(&mut out);
        out
    }

    /// Decodes one PDU from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only part of a PDU (read more
    /// bytes and retry), or `Ok(Some((pdu, consumed)))` on success. Fields
    /// are judged in wire order as soon as all their bytes are in, so
    /// `Ok(None)` means every complete field is valid, and which error a
    /// bad PDU gets does not depend on how its bytes were split.
    ///
    /// # Errors
    ///
    /// Returns a [`FeedError`] when the bytes cannot be a valid PDU; the
    /// stream is unrecoverable at that point and should be closed.
    pub fn decode(buf: &[u8]) -> Result<Option<(Pdu, usize)>, FeedError> {
        let Some(&version) = buf.first() else {
            return Ok(None);
        };
        if version != VERSION {
            return Err(FeedError::BadVersion(version));
        }
        let Some(&pdu_type) = buf.get(1) else {
            return Ok(None);
        };
        let fixed = match pdu_type {
            TYPE_SERIAL_NOTIFY | TYPE_SERIAL_QUERY | TYPE_END_OF_DATA => Some(12),
            TYPE_RESET_QUERY | TYPE_CACHE_RESPONSE | TYPE_CACHE_RESET => Some(8),
            TYPE_PREFIX => Some(PREFIX_PDU_LEN as u32),
            TYPE_ERROR => None,
            other => return Err(FeedError::BadType(other)),
        };
        let Some(header) = buf.get(..HEADER_LEN) else {
            return Ok(None);
        };
        let session = u16::from_be_bytes([header[2], header[3]]);
        let length = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
        let fits = match fixed {
            Some(fixed) => length == fixed,
            // An error PDU carries at least its message length.
            None => (HEADER_LEN as u32 + 4..=MAX_PDU_LEN).contains(&length),
        };
        if !fits {
            return Err(FeedError::BadLength { pdu_type, length });
        }
        let length = length as usize;
        let body = &buf[HEADER_LEN..buf.len().min(length)];
        Ok(decode_body(pdu_type, session, body, length)
            .transpose()?
            .map(|pdu| (pdu, length)))
    }
}

/// Reads the body of a PDU whose header is valid from as much of it as has
/// arrived: `None` at the first field not yet complete. Every field is read
/// only once the bytes before it were, so the whole body is in when this
/// returns a PDU.
fn decode_body(
    pdu_type: u8,
    session: u16,
    body: &[u8],
    length: usize,
) -> Option<Result<Pdu, FeedError>> {
    let read_u32 = |at: usize| {
        body.get(at..at + 4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    };
    let pdu = match pdu_type {
        TYPE_SERIAL_NOTIFY => Pdu::SerialNotify {
            session,
            serial: read_u32(0)?,
        },
        TYPE_SERIAL_QUERY => Pdu::SerialQuery {
            session,
            serial: read_u32(0)?,
        },
        TYPE_RESET_QUERY => Pdu::ResetQuery,
        TYPE_CACHE_RESPONSE => Pdu::CacheResponse { session },
        TYPE_PREFIX => {
            let flags = *body.first()?;
            let prefix_len = *body.get(1)?;
            if prefix_len > 32 {
                return Some(Err(FeedError::BadPrefix(prefix_len)));
            }
            Pdu::Prefix(PrefixEntry {
                announce: flags & 1 == 1,
                prefix: Ipv4Prefix::new(read_u32(4)?, prefix_len),
                asn: Asn(read_u32(8)?),
            })
        }
        TYPE_END_OF_DATA => Pdu::EndOfData {
            session,
            serial: read_u32(0)?,
        },
        TYPE_CACHE_RESET => Pdu::CacheReset,
        TYPE_ERROR => {
            let msg_len = read_u32(0)? as usize;
            if msg_len != length - HEADER_LEN - 4 {
                return Some(Err(FeedError::BadLength {
                    pdu_type,
                    length: length as u32,
                }));
            }
            let text = body.get(4..)?;
            let message = match std::str::from_utf8(text) {
                Ok(message) if text.len() == msg_len => message.to_string(),
                Err(e) if e.error_len().is_some() || text.len() == msg_len => {
                    return Some(Err(FeedError::BadText));
                }
                _ => return None,
            };
            Pdu::Error {
                code: session,
                message,
            }
        }
        other => return Some(Err(FeedError::BadType(other))),
    };
    Some(Ok(pdu))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(pdu: Pdu) {
        let bytes = pdu.to_bytes();
        let (back, consumed) = Pdu::decode(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, pdu);
    }

    #[test]
    fn every_pdu_round_trips() {
        round_trip(Pdu::SerialNotify {
            session: 7,
            serial: 42,
        });
        round_trip(Pdu::SerialQuery {
            session: 65535,
            serial: u32::MAX,
        });
        round_trip(Pdu::ResetQuery);
        round_trip(Pdu::CacheResponse { session: 9 });
        round_trip(Pdu::Prefix(PrefixEntry {
            announce: true,
            prefix: "10.1.0.0/16".parse().unwrap(),
            asn: Asn(64512),
        }));
        round_trip(Pdu::Prefix(PrefixEntry {
            announce: false,
            prefix: "0.0.0.0/0".parse().unwrap(),
            asn: Asn(0),
        }));
        round_trip(Pdu::EndOfData {
            session: 7,
            serial: 3,
        });
        round_trip(Pdu::CacheReset);
        round_trip(Pdu::Error {
            code: 2,
            message: "nope".to_string(),
        });
    }

    #[test]
    fn partial_input_asks_for_more() {
        let bytes = Pdu::SerialNotify {
            session: 1,
            serial: 2,
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(Pdu::decode(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn pipelined_pdus_decode_in_sequence() {
        let mut buf = Vec::new();
        Pdu::CacheResponse { session: 3 }.encode(&mut buf);
        Pdu::Prefix(PrefixEntry {
            announce: true,
            prefix: "192.0.2.0/24".parse().unwrap(),
            asn: Asn(64496),
        })
        .encode(&mut buf);
        Pdu::EndOfData {
            session: 3,
            serial: 1,
        }
        .encode(&mut buf);

        let mut offset = 0;
        let mut pdus = Vec::new();
        while let Some((pdu, used)) = Pdu::decode(&buf[offset..]).unwrap() {
            pdus.push(pdu);
            offset += used;
        }
        assert_eq!(offset, buf.len());
        assert_eq!(pdus.len(), 3);
        assert!(matches!(pdus[0], Pdu::CacheResponse { session: 3 }));
        assert!(matches!(pdus[2], Pdu::EndOfData { serial: 1, .. }));
    }

    #[test]
    fn long_error_messages_are_cut_to_fit() {
        // 5,000 ASCII bytes: cut to the 4,084 that fit beside the header and
        // the message length.
        let message = "x".repeat(5_000);
        let bytes = Pdu::Error {
            code: 1,
            message: message.clone(),
        }
        .to_bytes();
        assert_eq!(bytes.len(), MAX_PDU_LEN as usize);
        let (back, used) = Pdu::decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(
            back,
            Pdu::Error {
                code: 1,
                message: message[..4_084].to_string(),
            }
        );
        // A two-byte char straddling the limit is dropped whole.
        let message = format!("x{}", "é".repeat(2_500));
        let bytes = Pdu::Error {
            code: 1,
            message: message.clone(),
        }
        .to_bytes();
        let Some((Pdu::Error { message: back, .. }, _)) = Pdu::decode(&bytes).unwrap() else {
            panic!("not an error PDU");
        };
        assert_eq!(back, message[..4_083]);
    }

    #[test]
    fn fields_are_judged_as_soon_as_they_arrive() {
        assert_eq!(Pdu::decode(&[9]), Err(FeedError::BadVersion(9)));
        assert_eq!(Pdu::decode(&[VERSION, 99]), Err(FeedError::BadType(99)));
        // An error PDU whose message length disagrees with its PDU length
        // is refused before the message arrives.
        let mut bytes = Pdu::Error {
            code: 0,
            message: "corrupt".to_string(),
        }
        .to_bytes();
        bytes[7] += 1;
        assert_eq!(
            Pdu::decode(&bytes[..12]),
            Err(FeedError::BadLength {
                pdu_type: TYPE_ERROR,
                length: u32::from(bytes[7]),
            })
        );
        // Bytes that are not UTF-8 whatever follows, before the rest.
        let mut bytes = Pdu::Error {
            code: 0,
            message: "corrupt".to_string(),
        }
        .to_bytes();
        bytes[12] = 0xFF;
        assert_eq!(Pdu::decode(&bytes[..13]), Err(FeedError::BadText));
        // A message cut inside a char is complete, and not UTF-8.
        let mut bytes = Pdu::Error {
            code: 0,
            message: "ab".to_string(),
        }
        .to_bytes();
        bytes[13] = 0xC3;
        assert_eq!(Pdu::decode(&bytes), Err(FeedError::BadText));
        assert_eq!(Pdu::decode(&bytes[..13]), Ok(None));
    }

    #[test]
    fn malformed_headers_are_rejected() {
        // Wrong version.
        let mut bytes = Pdu::ResetQuery.to_bytes();
        bytes[0] = 9;
        assert_eq!(Pdu::decode(&bytes), Err(FeedError::BadVersion(9)));
        // Unknown type.
        let mut bytes = Pdu::ResetQuery.to_bytes();
        bytes[1] = 99;
        assert_eq!(Pdu::decode(&bytes), Err(FeedError::BadType(99)));
        // Length too small for the type.
        let mut bytes = Pdu::SerialQuery {
            session: 1,
            serial: 1,
        }
        .to_bytes();
        bytes[7] = 8;
        assert!(matches!(
            Pdu::decode(&bytes),
            Err(FeedError::BadLength { pdu_type: 1, .. })
        ));
        // Absurd length field.
        let mut bytes = Pdu::ResetQuery.to_bytes();
        bytes[4] = 0xff;
        assert!(matches!(
            Pdu::decode(&bytes),
            Err(FeedError::BadLength { .. })
        ));
        // Prefix mask over 32.
        let mut bytes = Pdu::Prefix(PrefixEntry {
            announce: true,
            prefix: "10.0.0.0/8".parse().unwrap(),
            asn: Asn(1),
        })
        .to_bytes();
        bytes[9] = 33;
        assert_eq!(Pdu::decode(&bytes), Err(FeedError::BadPrefix(33)));
    }
}
