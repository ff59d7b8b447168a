//! RFC 6396 MRT record framing.
//!
//! Covers the records the MOAS pipeline consumes and produces:
//!
//! * `TABLE_DUMP_V2` / `PEER_INDEX_TABLE` — the collector's peer roster;
//! * `TABLE_DUMP_V2` / `RIB_IPV4_UNICAST` and `RIB_IPV6_UNICAST` — one
//!   prefix with the route each peer held for it (a daily Route Views table
//!   snapshot);
//! * `BGP4MP` / `MESSAGE` and `MESSAGE_AS4` — individual BGP UPDATEs in
//!   flight, wrapping the [`crate::bgp`] codec.
//!
//! [`MrtWriter`] writes records to any [`io::Write`]; reading is
//! [`crate::view::MrtViewReader`]'s job, over any [`io::Read`], with
//! [`MrtViewReader::next_record`](crate::view::MrtViewReader::next_record)
//! rebuilding the owned [`MrtRecord`]. Reading arbitrary bytes never
//! panics; errors carry the absolute byte offset within the stream.

use std::io;

use bgp_types::Asn;
use bgp_types::{Ipv4Prefix, Ipv6Prefix};

use crate::bgp::{self, AsnEncoding, PathAttributes, UpdateMessage};
use crate::error::{WireError, WireErrorKind};

/// MRT type `TABLE_DUMP_V2`.
pub const TYPE_TABLE_DUMP_V2: u16 = 13;
/// MRT type `BGP4MP`.
pub const TYPE_BGP4MP: u16 = 16;
/// `TABLE_DUMP_V2` subtype `PEER_INDEX_TABLE`.
pub const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
/// `TABLE_DUMP_V2` subtype `RIB_IPV4_UNICAST`.
pub const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
/// `TABLE_DUMP_V2` subtype `RIB_IPV6_UNICAST`.
pub const SUBTYPE_RIB_IPV6_UNICAST: u16 = 4;
/// `BGP4MP` subtype `BGP4MP_MESSAGE` (2-octet ASNs).
pub const SUBTYPE_BGP4MP_MESSAGE: u16 = 1;
/// `BGP4MP` subtype `BGP4MP_MESSAGE_AS4` (4-octet ASNs).
pub const SUBTYPE_BGP4MP_MESSAGE_AS4: u16 = 4;

/// Largest MRT record body this reader accepts (matches the BGP message cap
/// plus generous framing headroom; real TABLE_DUMP_V2 records are far
/// smaller). Keeps a corrupt length field from provoking a huge allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// One peer in a `PEER_INDEX_TABLE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerEntry {
    /// The peer's BGP identifier.
    pub bgp_id: u32,
    /// The peer's IPv4 address.
    pub addr: u32,
    /// The peer's AS number.
    pub asn: Asn,
}

/// A `PEER_INDEX_TABLE` record: the roster RIB entries index into.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerIndexTable {
    /// The collector's BGP identifier.
    pub collector_id: u32,
    /// The optional view name (empty for the default view).
    pub view_name: String,
    /// The peers, in index order.
    pub peers: Vec<PeerEntry>,
}

/// One peer's route inside a [`RibIpv4Unicast`] record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Index into the current [`PeerIndexTable`].
    pub peer_index: u16,
    /// When the route was originated (seconds, same clock as the record
    /// timestamp).
    pub originated_time: u32,
    /// The route's path attributes (always 4-octet ASNs, per RFC 6396).
    pub attrs: PathAttributes,
}

/// A `RIB_IPV4_UNICAST` record: every peer's route for one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibIpv4Unicast {
    /// Record sequence number.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// One entry per peer that held a route.
    pub entries: Vec<RibEntry>,
}

/// A `RIB_IPV6_UNICAST` record: every peer's route for one IPv6 prefix.
///
/// Entries reuse [`RibEntry`]; per RFC 6396 §4.3.4 their `MP_REACH_NLRI`
/// attribute is abbreviated to `<next-hop length, next hop>` and the prefix
/// lives here in the record header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibIpv6Unicast {
    /// Record sequence number.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Ipv6Prefix,
    /// One entry per peer that held a route.
    pub entries: Vec<RibEntry>,
}

/// A `BGP4MP_MESSAGE` / `BGP4MP_MESSAGE_AS4` record: one BGP message as
/// exchanged between two peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bgp4mpMessage {
    /// The sending peer's AS.
    pub peer_asn: Asn,
    /// The receiving (collector-side) AS.
    pub local_asn: Asn,
    /// The sending peer's IPv4 address.
    pub peer_addr: u32,
    /// The receiving side's IPv4 address.
    pub local_addr: u32,
    /// The BGP UPDATE carried in the record.
    pub message: UpdateMessage,
}

impl Bgp4mpMessage {
    /// Whether the record needs the `_AS4` subtype (any ASN above 16 bits).
    #[must_use]
    pub fn needs_as4(&self) -> bool {
        fn wide(asn: Asn) -> bool {
            asn.0 > u32::from(u16::MAX)
        }
        wide(self.peer_asn)
            || wide(self.local_asn)
            || self
                .message
                .attrs
                .as_ref()
                .is_some_and(|a| a.as_path.iter().any(wide))
    }
}

/// The body of one MRT record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtBody {
    /// `TABLE_DUMP_V2` / `PEER_INDEX_TABLE`.
    PeerIndexTable(PeerIndexTable),
    /// `TABLE_DUMP_V2` / `RIB_IPV4_UNICAST`.
    RibIpv4Unicast(RibIpv4Unicast),
    /// `TABLE_DUMP_V2` / `RIB_IPV6_UNICAST`.
    RibIpv6Unicast(RibIpv6Unicast),
    /// `BGP4MP` / `MESSAGE` or `MESSAGE_AS4` (chosen on encode by
    /// [`Bgp4mpMessage::needs_as4`]).
    Bgp4mpMessage(Bgp4mpMessage),
}

/// One MRT record: a timestamp and a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrtRecord {
    /// Seconds since the Unix epoch (exports encode simulated days; see
    /// [`crate::DAY_ZERO_UNIX`]).
    pub timestamp: u32,
    /// The record body.
    pub body: MrtBody,
}

impl MrtRecord {
    /// Encodes the record, MRT header included.
    ///
    /// # Errors
    ///
    /// Fails if a contained BGP message fails to encode (e.g. a 2-octet
    /// `BGP4MP_MESSAGE` with a wide ASN, which the writer avoids by
    /// selecting `_AS4` automatically) or a length does not fit its wire
    /// field ([`WireErrorKind::LengthOverflow`] — never silent truncation).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the encoded record to `out` without intermediate per-record
    /// allocations: the body is written in place and the header's length
    /// field backpatched. On error `out` is restored to its previous
    /// length, so a failed record never corrupts a batch buffer.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MrtRecord::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = out.len();
        self.encode_into_unguarded(out)
            .inspect_err(|_| out.truncate(start))
    }

    fn encode_into_unguarded(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let (mrt_type, subtype) = match &self.body {
            MrtBody::PeerIndexTable(_) => (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE),
            MrtBody::RibIpv4Unicast(_) => (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST),
            MrtBody::RibIpv6Unicast(_) => (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV6_UNICAST),
            MrtBody::Bgp4mpMessage(msg) => (
                TYPE_BGP4MP,
                if msg.needs_as4() {
                    SUBTYPE_BGP4MP_MESSAGE_AS4
                } else {
                    SUBTYPE_BGP4MP_MESSAGE
                },
            ),
        };
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(&mrt_type.to_be_bytes());
        out.extend_from_slice(&subtype.to_be_bytes());
        let len_at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        match &self.body {
            MrtBody::PeerIndexTable(table) => encode_peer_index_table(out, table)?,
            MrtBody::RibIpv4Unicast(rib) => encode_rib(out, rib)?,
            MrtBody::RibIpv6Unicast(rib) => encode_rib6(out, rib)?,
            MrtBody::Bgp4mpMessage(msg) => {
                encode_bgp4mp(out, msg, subtype == SUBTYPE_BGP4MP_MESSAGE_AS4)?;
            }
        }
        let body_len = out.len() - len_at - 4;
        let body_len = u32::try_from(body_len).map_err(|_| {
            WireError::new(
                WireErrorKind::LengthOverflow {
                    field: "MRT record body",
                    length: body_len,
                    max: u32::MAX as usize,
                },
                0,
            )
        })?;
        out[len_at..len_at + 4].copy_from_slice(&body_len.to_be_bytes());
        Ok(())
    }
}

fn encode_peer_index_table(out: &mut Vec<u8>, table: &PeerIndexTable) -> Result<(), WireError> {
    out.extend_from_slice(&table.collector_id.to_be_bytes());
    let name = table.view_name.as_bytes();
    out.extend_from_slice(
        &bgp::checked_u16("peer index table view name", name.len())?.to_be_bytes(),
    );
    out.extend_from_slice(name);
    out.extend_from_slice(&bgp::checked_u16("peer count", table.peers.len())?.to_be_bytes());
    for peer in &table.peers {
        // Peer type 0x02: IPv4 address, 4-octet AS number.
        out.push(0x02);
        out.extend_from_slice(&peer.bgp_id.to_be_bytes());
        out.extend_from_slice(&peer.addr.to_be_bytes());
        out.extend_from_slice(&peer.asn.0.to_be_bytes());
    }
    Ok(())
}

fn encode_rib_entries(out: &mut Vec<u8>, entries: &[RibEntry]) -> Result<(), WireError> {
    out.extend_from_slice(&bgp::checked_u16("RIB entry count", entries.len())?.to_be_bytes());
    for entry in entries {
        out.extend_from_slice(&entry.peer_index.to_be_bytes());
        out.extend_from_slice(&entry.originated_time.to_be_bytes());
        let attrs_at = bgp::reserve_u16(out);
        // RFC 6396 §4.3.4: TABLE_DUMP_V2 attributes always use 4-octet ASNs
        // and the abbreviated MP_REACH_NLRI form.
        bgp::encode_attributes_rib(out, &entry.attrs, AsnEncoding::FourOctet)?;
        let attrs_len = bgp::checked_u16("RIB entry attributes", out.len() - attrs_at - 2)?;
        bgp::patch_u16(out, attrs_at, attrs_len);
    }
    Ok(())
}

fn encode_rib(out: &mut Vec<u8>, rib: &RibIpv4Unicast) -> Result<(), WireError> {
    out.extend_from_slice(&rib.sequence.to_be_bytes());
    bgp::encode_prefix(out, rib.prefix);
    encode_rib_entries(out, &rib.entries)
}

fn encode_rib6(out: &mut Vec<u8>, rib: &RibIpv6Unicast) -> Result<(), WireError> {
    out.extend_from_slice(&rib.sequence.to_be_bytes());
    bgp::encode_prefix6(out, rib.prefix);
    encode_rib_entries(out, &rib.entries)
}

fn encode_bgp4mp(out: &mut Vec<u8>, msg: &Bgp4mpMessage, as4: bool) -> Result<(), WireError> {
    if as4 {
        out.extend_from_slice(&msg.peer_asn.0.to_be_bytes());
        out.extend_from_slice(&msg.local_asn.0.to_be_bytes());
    } else {
        // needs_as4 guarantees both ASNs fit; keep the conversion checked
        // anyway so a future caller cannot reintroduce silent truncation.
        let peer = bgp::checked_u16("BGP4MP peer ASN", msg.peer_asn.0 as usize)?;
        let local = bgp::checked_u16("BGP4MP local ASN", msg.local_asn.0 as usize)?;
        out.extend_from_slice(&peer.to_be_bytes());
        out.extend_from_slice(&local.to_be_bytes());
    }
    out.extend_from_slice(&0u16.to_be_bytes()); // interface index
    out.extend_from_slice(&1u16.to_be_bytes()); // AFI: IPv4
    out.extend_from_slice(&msg.peer_addr.to_be_bytes());
    out.extend_from_slice(&msg.local_addr.to_be_bytes());
    let encoding = if as4 {
        AsnEncoding::FourOctet
    } else {
        AsnEncoding::TwoOctet
    };
    msg.message.encode_into(out, encoding)
}

/// Size at which [`MrtWriter`]'s batch buffer is handed to the underlying
/// writer. Large enough to amortize write syscalls over hundreds of
/// records, small enough to keep the writer's footprint negligible.
const BATCH_CAPACITY: usize = 256 * 1024;

/// Writes MRT records to any writer, batching encoded bytes in a reusable
/// buffer instead of allocating and writing per record.
///
/// Records are encoded straight into the batch buffer
/// ([`MrtRecord::encode_into`]); the buffer is handed to the underlying
/// writer whenever it crosses the batch capacity, and on [`MrtWriter::flush`]
/// / [`MrtWriter::finish`]. A record that fails to encode leaves the buffer
/// exactly as it was, so one bad record never corrupts the stream.
#[derive(Debug)]
pub struct MrtWriter<W> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: io::Write> MrtWriter<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        MrtWriter {
            inner,
            buf: Vec::new(),
        }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on encode or I/O failure.
    pub fn write_record(&mut self, record: &MrtRecord) -> Result<(), WireError> {
        record.encode_into(&mut self.buf)?;
        if self.buf.len() >= BATCH_CAPACITY {
            self.write_batch()?;
        }
        Ok(())
    }

    fn write_batch(&mut self) -> Result<(), WireError> {
        if !self.buf.is_empty() {
            self.inner.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Hands any batched bytes to the underlying writer and flushes it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on I/O failure.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.write_batch()?;
        self.inner.flush()?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the flush fails.
    pub fn finish(mut self) -> Result<W, WireError> {
        self.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::MrtViewReader;
    use bgp_types::{AsPath, Route};

    fn sample_records() -> Vec<MrtRecord> {
        let table = PeerIndexTable {
            collector_id: 0x0A00_0001,
            view_name: "moas-lab".into(),
            peers: vec![
                PeerEntry {
                    bgp_id: 1,
                    addr: 0x0A00_0001,
                    asn: Asn(701),
                },
                PeerEntry {
                    bgp_id: 2,
                    addr: 0x0A00_0002,
                    asn: Asn(70_000),
                },
            ],
        };
        let route = Route::new(
            "208.8.0.0/16".parse().unwrap(),
            AsPath::from_sequence([Asn(701), Asn(4)]),
        );
        let rib = RibIpv4Unicast {
            sequence: 0,
            prefix: route.prefix(),
            entries: vec![RibEntry {
                peer_index: 0,
                originated_time: 100,
                attrs: PathAttributes::from_route(&route),
            }],
        };
        let bgp4mp = Bgp4mpMessage {
            peer_asn: Asn(701),
            local_asn: Asn(65_000),
            peer_addr: 0x0A00_0001,
            local_addr: 0x0A00_00FE,
            message: UpdateMessage::announce(&route),
        };
        vec![
            MrtRecord {
                timestamp: 1000,
                body: MrtBody::PeerIndexTable(table),
            },
            MrtRecord {
                timestamp: 1000,
                body: MrtBody::RibIpv4Unicast(rib),
            },
            MrtRecord {
                timestamp: 1001,
                body: MrtBody::Bgp4mpMessage(bgp4mp),
            },
        ]
    }

    fn write_all(records: &[MrtRecord]) -> Vec<u8> {
        let mut writer = MrtWriter::new(Vec::new());
        for record in records {
            writer.write_record(record).unwrap();
        }
        writer.finish().unwrap()
    }

    fn read_all(bytes: &[u8]) -> Result<Vec<MrtRecord>, WireError> {
        let mut reader = MrtViewReader::new(bytes);
        let mut records = Vec::new();
        while let Some(record) = reader.next_record()? {
            records.push(record);
        }
        Ok(records)
    }

    #[test]
    fn records_round_trip() {
        let records = sample_records();
        let bytes = write_all(&records);
        let back = read_all(&bytes).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn written_streams_are_byte_stable() {
        let records = sample_records();
        assert_eq!(write_all(&records), write_all(&records));
    }

    #[test]
    fn as4_subtype_selected_for_wide_asns() {
        let route = Route::new(
            "10.0.0.0/8".parse().unwrap(),
            AsPath::from_sequence([Asn(70_000)]),
        );
        let msg = Bgp4mpMessage {
            peer_asn: Asn(70_000),
            local_asn: Asn(1),
            peer_addr: 0,
            local_addr: 0,
            message: UpdateMessage::announce(&route),
        };
        assert!(msg.needs_as4());
        let bytes = MrtRecord {
            timestamp: 0,
            body: MrtBody::Bgp4mpMessage(msg),
        }
        .encode()
        .unwrap();
        let subtype = u16::from_be_bytes([bytes[6], bytes[7]]);
        assert_eq!(subtype, SUBTYPE_BGP4MP_MESSAGE_AS4);
    }

    #[test]
    fn truncated_streams_error_with_offset() {
        let bytes = write_all(&sample_records());
        for cut in [1, 11, 13, bytes.len() - 1] {
            let result = read_all(&bytes[..cut]);
            let err = result.unwrap_err();
            assert!(
                matches!(err.kind, WireErrorKind::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn unknown_record_types_are_rejected_not_panicked() {
        let mut bytes = write_all(&sample_records()[..1]);
        bytes[5] = 99; // type
        let result = read_all(&bytes);
        let err = result.unwrap_err();
        assert!(matches!(err.kind, WireErrorKind::UnsupportedMrtType { .. }));
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn oversized_length_field_is_rejected_without_allocation() {
        let mut bytes = write_all(&sample_records()[..1]);
        bytes[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        let result = read_all(&bytes);
        let err = result.unwrap_err();
        assert!(matches!(err.kind, WireErrorKind::BadFieldLength { .. }));
    }

    #[test]
    fn reader_stops_after_first_error() {
        let good = write_all(&sample_records());
        let mut bytes = vec![0xAAu8; 7]; // garbage shorter than a header
        bytes.extend_from_slice(&good);
        let mut reader = MrtViewReader::new(&bytes[..]);
        assert!(reader.next_record().is_err());
        assert!(reader.next_record().unwrap().is_none());
    }
}
