//! Decoding MRT streams into the measurement pipeline's types.
//!
//! A table dump is read one way: [`TableDumpWalk`] resolves every
//! `RIB_IPV4_UNICAST` entry's origin against the peer table in force, and
//! each consumer folds the entries its own way.
//!
//! * [`DailyDumpStream`] regroups them by timestamp into per-day
//!   [`DailyDump`]s — the same structures the simulated Route Views
//!   collector produces — and, on request, full [`Route`]s for the offline
//!   monitor (`moas_core::OfflineMonitor::scan`). It yields one
//!   [`DayImport`] at a time and holds only the day in progress, which is
//!   how archives far larger than memory (years of Route Views dumps) are
//!   processed.
//! * `moas_daemon::OriginTable::from_mrt` unions them archive-wide into the
//!   daemon's MOAS lists.

use std::io;

use bgp_types::{Asn, Ipv4Prefix, Route};
use route_measurement::DailyDump;

use crate::error::{WireError, WireErrorKind};
use crate::timestamp_to_day;
use crate::view::{AttrInterner, AttrsView, MrtBodyView, MrtViewReader};

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

/// One day of a streamed table-dump archive.
#[derive(Debug, Clone, Default)]
pub struct DayImport {
    /// The simulated day ([`crate::timestamp_to_day`] of the records).
    pub day: u32,
    /// The day's origin observations.
    pub dump: DailyDump,
    /// Number of RIB entries the day contributed (counted whether or not
    /// routes are collected).
    pub rib_entries: usize,
    /// The day's full RIB routes, in stream order — empty unless the stream
    /// was configured with [`DailyDumpStream::collect_routes`].
    pub routes: Vec<Route>,
}

/// Streams an MRT table-dump archive one day at a time, in constant memory.
///
/// This iterator groups a [`TableDumpWalk`]'s entries by day: it yields a
/// [`DayImport`] each time record timestamps cross a day boundary and then
/// drops the day — the working set is one day's table regardless of how
/// many years the archive spans.
///
/// A record whose timestamp falls on a different day than the day in
/// progress — in either direction — closes that day. Archives with one
/// group of records per day (how Route Views archives and
/// [`crate::export_rib_snapshot`] lay days out) therefore yield one
/// `DayImport` per day; an archive that interleaves days yields one per
/// contiguous group. A day opens at its first `RIB_IPV4_UNICAST` record.
///
/// The first error ends the stream: it is returned once, the day in
/// progress is dropped with it, and every later call returns `Ok(None)`.
///
/// When routes are collected their `AS_PATH`s are hash-consed through an
/// [`AttrInterner`], so each distinct path in a dump is decoded once.
#[derive(Debug)]
pub struct DailyDumpStream<R> {
    walk: TableDumpWalk<R>,
    pending: Option<DayImport>,
    /// The buffered record belongs to the next day group; re-process it
    /// (without advancing) on the next call.
    deferred: bool,
    interner: AttrInterner,
    /// One record's origins and (when collected) routes, reused across
    /// records.
    origins: Vec<Asn>,
    routes: Vec<Route>,
    collect_routes: bool,
    peak_day_entries: usize,
}

impl<R: io::Read> DailyDumpStream<R> {
    /// Wraps a reader positioned at the start of an MRT table-dump stream.
    pub fn new(reader: R) -> Self {
        DailyDumpStream {
            walk: TableDumpWalk::new(reader),
            pending: None,
            deferred: false,
            interner: AttrInterner::new(),
            origins: Vec::new(),
            routes: Vec::new(),
            collect_routes: false,
            peak_day_entries: 0,
        }
    }

    /// Also collect each day's full [`Route`]s into
    /// [`DayImport::routes`] (for `OfflineMonitor::scan`). Off by default:
    /// route objects are by far the largest part of a day's working set,
    /// and origin counting does not need them.
    #[must_use]
    pub fn collect_routes(mut self, collect: bool) -> Self {
        self.collect_routes = collect;
        self
    }

    /// `BGP4MP` records skipped so far.
    #[must_use]
    pub fn skipped_messages(&self) -> usize {
        self.walk.skipped_messages()
    }

    /// The largest number of RIB entries buffered for any single day — the
    /// streaming importer's peak working set, in records. Bounded by the
    /// biggest day in the archive, not the archive length.
    #[must_use]
    pub fn peak_day_entries(&self) -> usize {
        self.peak_day_entries
    }

    /// Reads up to the next day boundary (or end of stream) and returns the
    /// completed day; `Ok(None)` once the archive is exhausted or after an
    /// error.
    ///
    /// # Errors
    ///
    /// The [`TableDumpWalk`]'s first [`WireError`], with its stream offset.
    pub fn next_day(&mut self) -> Result<Option<DayImport>, WireError> {
        let day = self.read_day();
        if day.is_err() {
            // The walk has ended, so the day in progress never completes.
            self.pending = None;
        }
        day
    }

    /// Total stream bytes consumed so far — the numerator for ingest
    /// throughput reporting.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.walk.bytes_read()
    }

    fn read_day(&mut self) -> Result<Option<DayImport>, WireError> {
        loop {
            if self.deferred {
                // The buffered record opened a new day last call; consume it
                // now without reading another.
                self.deferred = false;
            } else if !self.walk.advance()? {
                return Ok(self.take_pending());
            }

            let day = timestamp_to_day(self.walk.timestamp());
            if self
                .pending
                .as_ref()
                .is_some_and(|pending| pending.day != day)
            {
                // Day boundary: hand the finished day out and re-process the
                // buffered record on the next call.
                self.deferred = true;
                return Ok(self.take_pending());
            }
            self.process(day)?;
        }
    }

    fn take_pending(&mut self) -> Option<DayImport> {
        let day = self.pending.take()?;
        self.peak_day_entries = self.peak_day_entries.max(day.rib_entries);
        Some(day)
    }

    fn process(&mut self, day: u32) -> Result<(), WireError> {
        let Some(prefix) = self.walk.visit(|prefix, origin, attrs| {
            self.origins.push(origin);
            if self.collect_routes {
                self.routes.push(self.interner.to_route(attrs, prefix));
            }
        })?
        else {
            return Ok(());
        };
        let pending = self.pending.get_or_insert_with(|| DayImport {
            day,
            dump: DailyDump::new(day),
            rib_entries: 0,
            routes: Vec::new(),
        });
        pending.rib_entries += self.origins.len();
        pending.dump.observe_all(prefix, self.origins.drain(..));
        pending.routes.append(&mut self.routes);
        Ok(())
    }
}

impl<R: io::Read> Iterator for DailyDumpStream<R> {
    type Item = Result<DayImport, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_day().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{PathAttributes, UpdateMessage};
    use crate::export::{export_update_stream, peer_table};
    use crate::mrt::{Bgp4mpMessage, MrtBody, MrtRecord, MrtWriter, RibEntry, RibIpv4Unicast};
    use crate::{day_to_timestamp, COLLECTOR_ASN};
    use bgp_types::{AsPath, MoasList, Update};

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

    fn message_record(day: u32) -> MrtRecord {
        MrtRecord {
            timestamp: day_to_timestamp(day),
            body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                peer_asn: Asn(4),
                local_asn: COLLECTOR_ASN,
                peer_addr: 0,
                local_addr: 0,
                message: UpdateMessage::withdraw("10.0.0.0/8".parse().unwrap()),
            }),
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

    fn days(bytes: &[u8], collect_routes: bool) -> Vec<DayImport> {
        DailyDumpStream::new(bytes)
            .collect_routes(collect_routes)
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn multi_day_stream_groups_into_daily_dumps() {
        let p1: Ipv4Prefix = "208.8.0.0/16".parse().unwrap();
        let p2: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let mut writer = MrtWriter::new(Vec::new());
        for day in 0..2u32 {
            writer
                .write_record(&table_record(day, &[Asn(701), Asn(1239)]))
                .unwrap();
            writer
                .write_record(&rib_record(day, p1, &[Asn(4), Asn(226)]))
                .unwrap();
            writer
                .write_record(&rib_record(day, p2, &[Asn(701)]))
                .unwrap();
        }
        let bytes = writer.finish().unwrap();
        let imported = days(&bytes, true);
        assert_eq!(imported.len(), 2);
        for (day, import) in imported.iter().enumerate() {
            assert_eq!(import.day, day as u32);
            assert_eq!(import.dump.day(), day as u32);
            assert_eq!(import.dump.prefix_count(), 2);
            assert_eq!(import.dump.moas_count(), 1, "only p1 is MOAS");
            assert_eq!(import.rib_entries, 3);
            assert_eq!(import.routes.len(), 3);
        }
    }

    #[test]
    fn rib_before_peer_table_is_rejected() {
        // A BGP4MP record first, so the failing record does not start at
        // byte 0; a valid peer table and RIB follow, which must not be read.
        let prefix = "10.0.0.0/8".parse().unwrap();
        let (bytes, offsets) = encode(&[
            message_record(0),
            rib_record(0, prefix, &[Asn(1)]),
            table_record(0, &[Asn(701), Asn(1239)]),
            rib_record(0, prefix, &[Asn(1)]),
        ]);
        let mut stream = DailyDumpStream::new(&bytes[..]);
        let err = stream.next_day().unwrap_err();
        assert_eq!(err.kind, WireErrorKind::MissingPeerIndexTable);
        assert_eq!(err.offset, offsets[1]);
        assert!(err.offset > 0);
        assert!(stream.next_day().unwrap().is_none());

        let mut items = DailyDumpStream::new(&bytes[..]);
        assert!(items.next().unwrap().is_err());
        assert!(items.next().is_none());
    }

    #[test]
    fn out_of_range_peer_index_is_rejected() {
        // Day 1 is in progress (one good record read) when a record names
        // peer 7 of a one-peer table; a good record follows it.
        let (bytes, offsets) = encode(&[
            table_record(0, &[Asn(701)]),
            rib_record(0, "10.0.0.0/8".parse().unwrap(), &[Asn(1)]),
            rib_record(1, "10.0.0.0/8".parse().unwrap(), &[Asn(1)]),
            {
                let mut stray = rib_record(1, "11.0.0.0/8".parse().unwrap(), &[Asn(2)]);
                if let MrtBody::RibIpv4Unicast(rib) = &mut stray.body {
                    rib.entries[0].peer_index = 7;
                }
                stray
            },
            rib_record(1, "12.0.0.0/8".parse().unwrap(), &[Asn(3)]),
        ]);
        let mut stream = DailyDumpStream::new(&bytes[..]);
        assert_eq!(stream.next_day().unwrap().unwrap().day, 0);
        let err = stream.next_day().unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadPeerIndex(7));
        assert_eq!(err.offset, offsets[3]);
        assert!(stream.next_day().unwrap().is_none());

        let items: Vec<_> = DailyDumpStream::new(&bytes[..]).collect();
        assert_eq!(items.len(), 2, "{items:?}");
        assert!(items[0].is_ok());
        assert!(items[1].is_err());
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
    fn moas_list_communities_survive_import() {
        let prefix: Ipv4Prefix = "208.8.0.0/16".parse().unwrap();
        let mut list = MoasList::new();
        list.insert(Asn(4));
        list.insert(Asn(226));
        let route = Route::new(prefix, AsPath::from_sequence([Asn(701), Asn(4)]))
            .with_moas_list(list.clone());
        let mut writer = MrtWriter::new(Vec::new());
        writer
            .write_record(&table_record(0, &[Asn(701), Asn(1239)]))
            .unwrap();
        writer
            .write_record(&MrtRecord {
                timestamp: day_to_timestamp(0),
                body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                    sequence: 0,
                    prefix,
                    entries: vec![RibEntry {
                        peer_index: 0,
                        originated_time: 0,
                        attrs: PathAttributes::from_route(&route),
                    }],
                }),
            })
            .unwrap();
        let bytes = writer.finish().unwrap();
        let imported = days(&bytes, true);
        assert_eq!(imported.len(), 1);
        assert_eq!(imported[0].routes.len(), 1);
        assert_eq!(imported[0].routes[0].moas_list(), Some(&list));
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

    #[test]
    fn import_skips_interleaved_message_records() {
        let (bytes, _) = encode(&[
            table_record(0, &[Asn(701), Asn(1239)]),
            message_record(0),
            rib_record(0, "10.0.0.0/8".parse().unwrap(), &[Asn(1)]),
        ]);
        let mut stream = DailyDumpStream::new(&bytes[..]);
        let imported: Vec<_> = stream.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(stream.skipped_messages(), 1);
        assert_eq!(imported.len(), 1);
    }
}
