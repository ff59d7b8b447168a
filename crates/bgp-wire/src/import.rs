//! Decoding MRT streams into the measurement pipeline's types.
//!
//! Table-dump records regroup by timestamp into per-day
//! [`DailyDump`]s — the same structures the simulated Route Views collector
//! produces — and into full [`Route`]s for the offline monitor
//! (`moas_core::OfflineMonitor::scan`). `BGP4MP` records decode back into
//! simulator [`Update`]s.
//!
//! Two consumption styles:
//!
//! * [`DailyDumpStream`] — constant-memory streaming: one [`DayImport`] is
//!   yielded each time the record timestamps cross a day boundary, and the
//!   importer never holds more than the day in progress. This is how
//!   archives far larger than memory (years of Route Views dumps) are
//!   processed.
//! * [`import_table_dumps`] — whole-archive convenience built on the
//!   stream: collects every day (merging same-day groups of an unordered
//!   stream) into one [`ImportedTables`].

use std::collections::BTreeMap;
use std::io;

use bgp_types::{Asn, Route, Update};
use route_measurement::DailyDump;

use crate::error::{WireError, WireErrorKind};
use crate::mrt::{MrtBody, PeerIndexTable};
use crate::timestamp_to_day;
use crate::view::{AttrInterner, MrtBodyView, MrtViewReader};

/// Everything a table-dump import recovers.
#[derive(Debug, Clone, Default)]
pub struct ImportedTables {
    /// Per-day origin observations, sorted by day — feed these to
    /// `route_measurement::origin_events` / `daily_moas_counts`.
    pub dumps: Vec<DailyDump>,
    /// Every RIB route, with the day it was dumped on — feed these to
    /// `moas_core::OfflineMonitor::scan`.
    pub routes: Vec<(u32, Route)>,
    /// `BGP4MP` records encountered (and skipped) along the way.
    pub skipped_messages: usize,
}

impl ImportedTables {
    /// Total number of daily MOAS cases, summed over days (the quantity the
    /// round-trip tests compare against the exporting simulation).
    #[must_use]
    pub fn total_moas_count(&self) -> usize {
        self.dumps.iter().map(DailyDump::moas_count).sum()
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
/// Where [`import_table_dumps`] accumulates every day of the archive before
/// returning, this iterator yields a [`DayImport`] each time record
/// timestamps cross a day boundary and then drops the day — the working set
/// is one day's table regardless of how many years the archive spans.
/// Day grouping and origin extraction are identical to
/// [`import_table_dumps`]: origins come from each RIB entry's `AS_PATH`,
/// falling back to the owning peer's ASN when the path has no well-defined
/// origin.
///
/// `BGP4MP` records are skipped (counted in
/// [`DailyDumpStream::skipped_messages`]); a record whose timestamp falls on
/// a different day than the day in progress — in either direction — closes
/// that day. Archives with one group of records per day (how Route Views
/// archives and [`crate::export_rib_snapshot`] lay days out) therefore come
/// back exactly as the whole-archive importer would return them; an archive
/// that interleaves days yields one `DayImport` per contiguous group, which
/// callers can merge via [`DailyDump::merge`] (as `import_table_dumps`
/// does).
///
/// Internally the stream runs on the allocation-free decode path: records
/// are framed into one reusable buffer ([`MrtViewReader`]), origins are
/// read straight off the wire via [`crate::view::AttrsView::origin_asn`],
/// and when routes are collected their `AS_PATH`s are hash-consed through
/// an [`AttrInterner`] so each distinct path in a dump is decoded once.
#[derive(Debug)]
pub struct DailyDumpStream<R> {
    mrt: MrtViewReader<R>,
    peer_table: Option<PeerIndexTable>,
    pending: Option<DayImport>,
    /// The buffered record belongs to the next day group; re-process it
    /// (without advancing) on the next call.
    deferred: bool,
    interner: AttrInterner,
    /// Per-record origin batch, reused across records.
    scratch_origins: Vec<Asn>,
    skipped_messages: usize,
    collect_routes: bool,
    day_entries: usize,
    peak_day_entries: usize,
}

impl<R: io::Read> DailyDumpStream<R> {
    /// Wraps a reader positioned at the start of an MRT table-dump stream.
    pub fn new(reader: R) -> Self {
        DailyDumpStream {
            mrt: MrtViewReader::new(reader),
            peer_table: None,
            pending: None,
            deferred: false,
            interner: AttrInterner::new(),
            scratch_origins: Vec::new(),
            skipped_messages: 0,
            collect_routes: false,
            day_entries: 0,
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
        self.skipped_messages
    }

    /// The largest number of RIB entries buffered for any single day — the
    /// streaming importer's peak working set, in records. Bounded by the
    /// biggest day in the archive, not the archive length.
    #[must_use]
    pub fn peak_day_entries(&self) -> usize {
        self.peak_day_entries
    }

    /// Reads up to the next day boundary (or end of stream) and returns the
    /// completed day; `Ok(None)` once the archive is exhausted.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] with stream offset on the first malformed
    /// record, a RIB record preceding any peer table, or a RIB entry naming
    /// a peer index outside the table. After an error the underlying reader
    /// refuses further reads.
    pub fn next_day(&mut self) -> Result<Option<DayImport>, WireError> {
        loop {
            if self.deferred {
                // The buffered record opened a new day last call; consume it
                // now without reading another.
                self.deferred = false;
            } else if !self.mrt.advance()? {
                return Ok(self.take_pending());
            }

            let day = timestamp_to_day(self.mrt.timestamp());
            if let Some(pending) = &self.pending {
                if pending.day != day {
                    // Day boundary: hand the finished day out and re-process
                    // the buffered record on the next call.
                    self.deferred = true;
                    return Ok(self.take_pending());
                }
            }
            self.process(day)?;
        }
    }

    /// Total stream bytes consumed so far — the numerator for ingest
    /// throughput reporting.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.mrt.bytes_read()
    }

    fn take_pending(&mut self) -> Option<DayImport> {
        self.peak_day_entries = self.peak_day_entries.max(self.day_entries);
        self.day_entries = 0;
        self.pending.take()
    }

    fn process(&mut self, day: u32) -> Result<(), WireError> {
        let view = self.mrt.view()?;
        match view.body {
            MrtBodyView::PeerIndexTable(table) => self.peer_table = Some(table.to_table()),
            MrtBodyView::RibIpv4Unicast(rib) => {
                let table = self
                    .peer_table
                    .as_ref()
                    .ok_or_else(|| WireError::new(WireErrorKind::MissingPeerIndexTable, 0))?;
                let pending = self.pending.get_or_insert_with(|| DayImport {
                    day,
                    dump: DailyDump::new(day),
                    rib_entries: 0,
                    routes: Vec::new(),
                });
                self.scratch_origins.clear();
                for entry in rib.entries() {
                    let peer = table
                        .peers
                        .get(usize::from(entry.peer_index))
                        .ok_or_else(|| {
                            WireError::new(WireErrorKind::BadPeerIndex(entry.peer_index), 0)
                        })?;
                    let origin = entry.attrs.origin_asn().unwrap_or(peer.asn);
                    self.scratch_origins.push(origin);
                    if self.collect_routes {
                        pending
                            .routes
                            .push(self.interner.to_route(&entry.attrs, rib.prefix()));
                    }
                    pending.rib_entries += 1;
                    self.day_entries += 1;
                }
                pending
                    .dump
                    .observe_all(rib.prefix(), self.scratch_origins.iter().copied());
            }
            // The measurement pipeline is IPv4-only (§2 of the paper); IPv6
            // RIB records decode and validate but do not enter daily dumps.
            MrtBodyView::RibIpv6Unicast(_) => {}
            MrtBodyView::Bgp4mpMessage(_) => self.skipped_messages += 1,
        }
        Ok(())
    }
}

impl<R: io::Read> Iterator for DailyDumpStream<R> {
    type Item = Result<DayImport, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_day().transpose()
    }
}

/// Reads a whole MRT stream of table dumps.
///
/// Records regroup by timestamp, so a stream holding several daily
/// snapshots (each introduced by its own `PEER_INDEX_TABLE`) comes back as
/// one [`DailyDump`] per day. Origins are taken from each RIB entry's
/// `AS_PATH`; entries whose path has no well-defined origin (empty, or
/// ending in an `AS_SET`) fall back to the owning peer's ASN.
///
/// Built on [`DailyDumpStream`]; use the stream directly when the archive
/// may not fit in memory.
///
/// # Errors
///
/// Returns a [`WireError`] with stream offset on the first malformed
/// record, a RIB record preceding any peer table, or a RIB entry naming a
/// peer index outside the table.
pub fn import_table_dumps<R: io::Read>(reader: R) -> Result<ImportedTables, WireError> {
    let mut stream = DailyDumpStream::new(reader).collect_routes(true);
    let mut dumps: BTreeMap<u32, DailyDump> = BTreeMap::new();
    let mut routes = Vec::new();

    while let Some(imported) = stream.next_day()? {
        dumps
            .entry(imported.day)
            .and_modify(|dump| dump.merge(&imported.dump))
            .or_insert(imported.dump);
        routes.extend(imported.routes.into_iter().map(|r| (imported.day, r)));
    }

    Ok(ImportedTables {
        dumps: dumps.into_values().collect(),
        routes,
        skipped_messages: stream.skipped_messages(),
    })
}

/// Reads a `BGP4MP` stream back into simulator updates, each tagged with
/// its day and sending peer. Table-dump records in the stream are skipped.
///
/// # Errors
///
/// Returns a [`WireError`] with stream offset on the first malformed
/// record.
pub fn import_update_stream<R: io::Read>(reader: R) -> Result<Vec<(u32, Asn, Update)>, WireError> {
    let mut mrt = MrtViewReader::new(reader);
    let mut out = Vec::new();
    while let Some(record) = mrt.next_record()? {
        if let MrtBody::Bgp4mpMessage(msg) = record.body {
            let day = timestamp_to_day(record.timestamp);
            out.extend(
                msg.message
                    .updates()
                    .into_iter()
                    .map(|update| (day, msg.peer_asn, update)),
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{PathAttributes, UpdateMessage};
    use crate::export::{export_update_stream, peer_table};
    use crate::mrt::{Bgp4mpMessage, MrtRecord, MrtWriter, RibEntry, RibIpv4Unicast};
    use crate::{day_to_timestamp, COLLECTOR_ASN};
    use bgp_types::{AsPath, Ipv4Prefix, MoasList};

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
            body: crate::mrt::MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: 0,
                prefix,
                entries,
            }),
        }
    }

    fn table_record(day: u32) -> MrtRecord {
        MrtRecord {
            timestamp: day_to_timestamp(day),
            body: crate::mrt::MrtBody::PeerIndexTable(peer_table(&[Asn(701), Asn(1239)])),
        }
    }

    #[test]
    fn multi_day_stream_groups_into_daily_dumps() {
        let p1: Ipv4Prefix = "208.8.0.0/16".parse().unwrap();
        let p2: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let mut writer = MrtWriter::new(Vec::new());
        for day in 0..2u32 {
            writer.write_record(&table_record(day)).unwrap();
            writer
                .write_record(&rib_record(day, p1, &[Asn(4), Asn(226)]))
                .unwrap();
            writer
                .write_record(&rib_record(day, p2, &[Asn(701)]))
                .unwrap();
        }
        let bytes = writer.finish().unwrap();
        let imported = import_table_dumps(&bytes[..]).unwrap();
        assert_eq!(imported.dumps.len(), 2);
        for (day, dump) in imported.dumps.iter().enumerate() {
            assert_eq!(dump.day(), day as u32);
            assert_eq!(dump.prefix_count(), 2);
            assert_eq!(dump.moas_count(), 1, "only p1 is MOAS");
        }
        assert_eq!(imported.total_moas_count(), 2);
        assert_eq!(imported.routes.len(), 6);
    }

    #[test]
    fn rib_before_peer_table_is_rejected() {
        let mut writer = MrtWriter::new(Vec::new());
        writer
            .write_record(&rib_record(0, "10.0.0.0/8".parse().unwrap(), &[Asn(1)]))
            .unwrap();
        let bytes = writer.finish().unwrap();
        let err = import_table_dumps(&bytes[..]).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::MissingPeerIndexTable);
    }

    #[test]
    fn out_of_range_peer_index_is_rejected() {
        let mut writer = MrtWriter::new(Vec::new());
        writer.write_record(&table_record(0)).unwrap();
        let mut rib = rib_record(0, "10.0.0.0/8".parse().unwrap(), &[Asn(1)]);
        if let crate::mrt::MrtBody::RibIpv4Unicast(r) = &mut rib.body {
            r.entries[0].peer_index = 40;
        }
        writer.write_record(&rib).unwrap();
        let bytes = writer.finish().unwrap();
        let err = import_table_dumps(&bytes[..]).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadPeerIndex(40));
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
        writer.write_record(&table_record(0)).unwrap();
        writer
            .write_record(&MrtRecord {
                timestamp: day_to_timestamp(0),
                body: crate::mrt::MrtBody::RibIpv4Unicast(RibIpv4Unicast {
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
        let imported = import_table_dumps(&bytes[..]).unwrap();
        assert_eq!(imported.routes.len(), 1);
        assert_eq!(imported.routes[0].1.moas_list(), Some(list));
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
        let back = import_update_stream(&bytes[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], (5, Asn(4), updates[0].1.clone()));
        assert_eq!(back[1], (5, Asn(70_000), updates[1].1.clone()));
    }

    #[test]
    fn import_skips_interleaved_message_records() {
        let mut writer = MrtWriter::new(Vec::new());
        writer.write_record(&table_record(0)).unwrap();
        writer
            .write_record(&MrtRecord {
                timestamp: day_to_timestamp(0),
                body: crate::mrt::MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                    peer_asn: Asn(4),
                    local_asn: COLLECTOR_ASN,
                    peer_addr: 0,
                    local_addr: 0,
                    message: UpdateMessage::withdraw("10.0.0.0/8".parse().unwrap()),
                }),
            })
            .unwrap();
        writer
            .write_record(&rib_record(0, "10.0.0.0/8".parse().unwrap(), &[Asn(1)]))
            .unwrap();
        let bytes = writer.finish().unwrap();
        let imported = import_table_dumps(&bytes[..]).unwrap();
        assert_eq!(imported.skipped_messages, 1);
        assert_eq!(imported.dumps.len(), 1);
    }
}
