//! Reading MRT table dumps.
//!
//! A table dump is read one way: [`TableDumpWalk`] resolves every
//! `RIB_IPV4_UNICAST` entry's origin against the peer table in force, and
//! each consumer folds the entries its own way.
//!
//! * `route_measurement::DailyDumpStream` regroups them by timestamp into
//!   per-day `DailyDump`s and, on request, full routes for the offline
//!   monitor, one day at a time in constant memory.
//! * `moas_daemon::OriginTable::from_mrt` unions them archive-wide into the
//!   daemon's MOAS lists.

use std::io;

use bgp_types::{Asn, Ipv4Prefix};

use crate::error::{WireError, WireErrorKind};
use crate::view::{AttrsView, MrtBodyView, MrtViewReader};

/// Walks an MRT table-dump archive record by record, handing the caller
/// each IPv4 RIB entry with its prefix and resolved origin: the entry's
/// `AS_PATH` origin, or — when the path has no well-defined origin (empty,
/// or ending in an `AS_SET`) — the ASN of the peer that reported it.
///
/// Reading is two steps, as in [`MrtViewReader`]:
/// [`advance`](Self::advance) buffers the next record and
/// [`timestamp`](Self::timestamp) reads its time before anything is parsed,
/// so day grouping can defer a record across a day boundary;
/// [`visit`](Self::visit) then parses it. A `PEER_INDEX_TABLE` replaces the
/// peer table in force; `RIB_IPV6_UNICAST` records are validated but skipped
/// (the paper's study is IPv4-only); `BGP4MP` records are skipped and
/// counted in [`skipped_messages`](Self::skipped_messages).
///
/// Every error carries its stream offset and ends the walk: afterwards
/// [`advance`](Self::advance) returns `Ok(false)`.
#[derive(Debug)]
pub struct TableDumpWalk<R> {
    mrt: MrtViewReader<R>,
    /// Each peer's ASN by peer index, from the peer table in force; `None`
    /// before the first `PEER_INDEX_TABLE`.
    peers: Option<Vec<Asn>>,
    skipped_messages: usize,
    /// A RIB record named a peer the walk could not resolve.
    failed: bool,
}

impl<R: io::Read> TableDumpWalk<R> {
    /// Wraps a reader positioned at the start of an MRT stream.
    pub fn new(reader: R) -> Self {
        TableDumpWalk {
            mrt: MrtViewReader::new(reader),
            peers: None,
            skipped_messages: 0,
            failed: false,
        }
    }

    /// Buffers the next record without parsing it. Returns `false` at clean
    /// end of stream and after any error.
    ///
    /// # Errors
    ///
    /// A framing [`WireError`] (truncation, an oversized length field, or
    /// I/O) with its stream offset.
    pub fn advance(&mut self) -> Result<bool, WireError> {
        if self.failed {
            return Ok(false);
        }
        self.mrt.advance()
    }

    /// The buffered record's timestamp, readable before it is parsed.
    #[must_use]
    pub fn timestamp(&self) -> u32 {
        self.mrt.timestamp()
    }

    /// Parses the buffered record. For a `RIB_IPV4_UNICAST` record, calls
    /// `on_entry(prefix, origin, attrs)` for each entry in record order and
    /// returns the record's prefix; any other record returns `None`.
    ///
    /// # Errors
    ///
    /// The record's parse [`WireError`]; or, at the record's header offset,
    /// [`WireErrorKind::MissingPeerIndexTable`] for a RIB record before any
    /// peer table and [`WireErrorKind::BadPeerIndex`] for an entry naming a
    /// peer outside the table in force (entries before it have been
    /// handed over).
    pub fn visit(
        &mut self,
        mut on_entry: impl FnMut(Ipv4Prefix, Asn, &AttrsView<'_>),
    ) -> Result<Option<Ipv4Prefix>, WireError> {
        let at = self.mrt.record_offset();
        let rib = match self.mrt.view()?.body {
            MrtBodyView::PeerIndexTable(table) => {
                self.peers = Some(table.peers().map(|peer| peer.asn).collect());
                return Ok(None);
            }
            MrtBodyView::RibIpv4Unicast(rib) => rib,
            MrtBodyView::RibIpv6Unicast(_) => return Ok(None),
            MrtBodyView::Bgp4mpMessage(_) => {
                self.skipped_messages += 1;
                return Ok(None);
            }
        };
        let Some(peers) = &self.peers else {
            self.failed = true;
            return Err(WireError::new(WireErrorKind::MissingPeerIndexTable, at));
        };
        let prefix = rib.prefix();
        for entry in rib.entries() {
            let Some(&peer_asn) = peers.get(usize::from(entry.peer_index)) else {
                self.failed = true;
                return Err(WireError::new(
                    WireErrorKind::BadPeerIndex(entry.peer_index),
                    at,
                ));
            };
            on_entry(
                prefix,
                entry.attrs.origin_asn().unwrap_or(peer_asn),
                &entry.attrs,
            );
        }
        Ok(Some(prefix))
    }

    /// `BGP4MP` records skipped so far.
    #[must_use]
    pub fn skipped_messages(&self) -> usize {
        self.skipped_messages
    }

    /// Total stream bytes consumed so far.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.mrt.bytes_read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::PathAttributes;
    use crate::export::{export_update_stream, peer_table};
    use crate::mrt::{MrtBody, MrtRecord, MrtWriter, RibEntry, RibIpv4Unicast};
    use crate::{day_to_timestamp, timestamp_to_day};
    use bgp_types::{AsPath, Route, Update};

    fn rib_record(day: u32, prefix: Ipv4Prefix, origins: &[Asn]) -> MrtRecord {
        let entries = origins
            .iter()
            .enumerate()
            .map(|(i, &origin)| RibEntry {
                peer_index: (i % 2) as u16,
                originated_time: day_to_timestamp(day),
                attrs: PathAttributes::from_route(&Route::new(
                    prefix,
                    AsPath::from_sequence([Asn(1000 + i as u32), origin]),
                )),
            })
            .collect();
        MrtRecord {
            timestamp: day_to_timestamp(day),
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: 0,
                prefix,
                entries,
            }),
        }
    }

    fn table_record(day: u32, peers: &[Asn]) -> MrtRecord {
        MrtRecord {
            timestamp: day_to_timestamp(day),
            body: MrtBody::PeerIndexTable(peer_table(peers)),
        }
    }

    /// The archive's bytes, and the stream offset of each record's header.
    fn encode(records: &[MrtRecord]) -> (Vec<u8>, Vec<u64>) {
        let mut bytes = Vec::new();
        let mut offsets = Vec::new();
        for record in records {
            offsets.push(bytes.len() as u64);
            bytes.extend_from_slice(&record.encode().unwrap());
        }
        (bytes, offsets)
    }

    #[test]
    fn walk_resolves_origins_from_the_path_or_the_peer() {
        let prefix: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let mut empty_path = rib_record(0, prefix, &[Asn(1)]);
        if let MrtBody::RibIpv4Unicast(rib) = &mut empty_path.body {
            rib.entries[0].attrs = PathAttributes::from_route(&Route::new(prefix, AsPath::new()));
        }
        let (bytes, _) = encode(&[
            table_record(0, &[Asn(701), Asn(1239)]),
            rib_record(0, prefix, &[Asn(4), Asn(226)]),
            empty_path,
        ]);
        let mut walk = TableDumpWalk::new(&bytes[..]);
        let mut seen = Vec::new();
        let mut prefixes = Vec::new();
        while walk.advance().unwrap() {
            prefixes.push(
                walk.visit(|prefix, origin, _| seen.push((prefix, origin)))
                    .unwrap(),
            );
        }
        assert_eq!(prefixes, [None, Some(prefix), Some(prefix)]);
        assert_eq!(
            seen,
            [(prefix, Asn(4)), (prefix, Asn(226)), (prefix, Asn(701))],
            "an empty path falls back to the peer's ASN"
        );
        assert_eq!(walk.bytes_read(), bytes.len() as u64);
    }

    #[test]
    fn update_streams_round_trip_through_bgp4mp() {
        let route = Route::new(
            "208.8.0.0/16".parse().unwrap(),
            AsPath::from_sequence([Asn(70_000), Asn(4)]),
        );
        let updates = [
            (Asn(4), Update::announce(route.clone())),
            (Asn(70_000), Update::withdraw(route.prefix())),
        ];
        let mut writer = MrtWriter::new(Vec::new());
        export_update_stream(&mut writer, 5, updates.iter().map(|(a, u)| (*a, u))).unwrap();
        let bytes = writer.finish().unwrap();
        let mut reader = MrtViewReader::new(&bytes[..]);
        let mut back = Vec::new();
        while reader.advance().unwrap() {
            let view = reader.view().unwrap();
            let MrtBodyView::Bgp4mpMessage(msg) = view.body else {
                panic!("an update stream holds only BGP4MP records");
            };
            let day = timestamp_to_day(view.timestamp);
            let updates = msg.update().to_message().updates();
            back.extend(updates.into_iter().map(|u| (day, msg.peer_asn, u)));
        }
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], (5, Asn(4), updates[0].1.clone()));
        assert_eq!(back[1], (5, Asn(70_000), updates[1].1.clone()));
    }
}
