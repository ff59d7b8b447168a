//! Streaming-import behavior: `DailyDumpStream` yields the same per-day
//! picture as the whole-archive importer, and its working set is bounded by
//! the largest day — not the archive length.

use std::io::{self, Read};

use bgp_types::{AsPath, Asn, Ipv4Prefix, Route};
use bgp_wire::bgp::PathAttributes;
use bgp_wire::mrt::{
    MrtBody, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
};
use bgp_wire::{day_to_timestamp, import_table_dumps, DailyDumpStream};
use route_measurement::{origin_events, OriginEventTracker};

/// Two peers, as a real collector would have several.
fn table_record(day: u32) -> MrtRecord {
    let peers = [Asn(701), Asn(1239)]
        .into_iter()
        .map(|asn| PeerEntry {
            bgp_id: asn.0,
            addr: asn.0,
            asn,
        })
        .collect();
    MrtRecord {
        timestamp: day_to_timestamp(day),
        body: MrtBody::PeerIndexTable(PeerIndexTable {
            collector_id: 0,
            view_name: String::from("stream-test"),
            peers,
        }),
    }
}

/// One RIB record for prefix `i`: every prefix has a steady origin, and
/// every third prefix gains a second origin (a MOAS case) that rotates with
/// the day so consecutive days differ.
fn rib_record(day: u32, i: u32) -> MrtRecord {
    let prefix = Ipv4Prefix::new((10 << 24) | (i << 8), 24);
    let mut entries = Vec::new();
    let mut push = |origin: Asn| {
        entries.push(RibEntry {
            peer_index: (entries.len() % 2) as u16,
            originated_time: day_to_timestamp(day),
            attrs: PathAttributes::from_route(&Route::new(
                prefix,
                AsPath::from_sequence([Asn(701), origin]),
            )),
        });
    };
    push(Asn(1000 + i));
    if i.is_multiple_of(3) {
        push(Asn(8584 + (day + i) % 2));
    }
    MrtRecord {
        timestamp: day_to_timestamp(day),
        body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
            sequence: i,
            prefix,
            entries,
        }),
    }
}

/// Encodes one day of the synthetic archive.
fn day_bytes(day: u32, prefixes: u32) -> Vec<u8> {
    let mut writer = MrtWriter::new(Vec::new());
    writer.write_record(&table_record(day)).unwrap();
    for i in 0..prefixes {
        writer.write_record(&rib_record(day, i)).unwrap();
    }
    writer.finish().unwrap()
}

/// Synthesizes an N-day archive one day at a time, so even the MRT bytes
/// never exist in memory all at once.
struct ArchiveGenerator {
    days: u32,
    prefixes_per_day: u32,
    next_day: u32,
    buf: Vec<u8>,
    pos: usize,
}

impl ArchiveGenerator {
    fn new(days: u32, prefixes_per_day: u32) -> Self {
        ArchiveGenerator {
            days,
            prefixes_per_day,
            next_day: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for ArchiveGenerator {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            if self.next_day >= self.days {
                return Ok(0);
            }
            self.buf = day_bytes(self.next_day, self.prefixes_per_day);
            self.pos = 0;
            self.next_day += 1;
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn streaming_matches_in_memory_per_day() {
    const DAYS: u32 = 6;
    const PREFIXES: u32 = 40;
    let mut bytes = Vec::new();
    for day in 0..DAYS {
        bytes.extend_from_slice(&day_bytes(day, PREFIXES));
    }

    let in_memory = import_table_dumps(bytes.as_slice()).unwrap();
    let mut stream = DailyDumpStream::new(bytes.as_slice());
    let streamed: Vec<_> = stream.by_ref().collect::<Result<Vec<_>, _>>().unwrap();

    assert_eq!(in_memory.dumps.len(), DAYS as usize);
    assert_eq!(streamed.len(), DAYS as usize);
    for (batch, day) in in_memory.dumps.iter().zip(&streamed) {
        assert_eq!(batch.day(), day.day);
        assert_eq!(batch.prefix_count(), day.dump.prefix_count());
        assert_eq!(batch.moas_count(), day.dump.moas_count());
        assert!(day.dump.moas_count() > 0, "synthetic days carry MOAS");
    }
    let total_entries: usize = streamed.iter().map(|d| d.rib_entries).sum();
    assert_eq!(total_entries, in_memory.routes.len());
    // Every entry written is counted (one per prefix, a second on every
    // third) and every byte of the archive is consumed.
    assert_eq!(
        total_entries,
        (DAYS * (PREFIXES + PREFIXES.div_ceil(3))) as usize
    );
    assert_eq!(stream.bytes_read(), bytes.len() as u64);
}

#[test]
fn streaming_origin_events_match_batch() {
    const DAYS: u32 = 5;
    let mut bytes = Vec::new();
    for day in 0..DAYS {
        bytes.extend_from_slice(&day_bytes(day, 30));
    }

    let in_memory = import_table_dumps(bytes.as_slice()).unwrap();
    let batch_events = origin_events(&in_memory.dumps);

    let mut tracker = OriginEventTracker::new();
    let mut streamed_events = Vec::new();
    for day in DailyDumpStream::new(bytes.as_slice()) {
        tracker.advance(&day.unwrap().dump, &mut streamed_events);
    }
    assert_eq!(streamed_events, batch_events);
    assert!(!streamed_events.is_empty());
}

#[test]
fn working_set_is_bounded_by_largest_day() {
    // 16 days, each ~333 entries: the archive is 16x the per-day working
    // set (comfortably past the 4x the acceptance bar asks for).
    const DAYS: u32 = 16;
    const PREFIXES: u32 = 250;
    let mut stream = DailyDumpStream::new(ArchiveGenerator::new(DAYS, PREFIXES));

    let mut days = 0u32;
    let mut total_entries = 0usize;
    let mut max_day_entries = 0usize;
    while let Some(day) = stream.next_day().unwrap() {
        assert!(
            day.routes.is_empty(),
            "routes are not collected unless asked for"
        );
        days += 1;
        total_entries += day.rib_entries;
        max_day_entries = max_day_entries.max(day.rib_entries);
    }

    assert_eq!(days, DAYS);
    assert_eq!(stream.peak_day_entries(), max_day_entries);
    assert!(
        total_entries >= 4 * stream.peak_day_entries(),
        "archive ({total_entries} entries) must dwarf the working set ({})",
        stream.peak_day_entries()
    );
}

#[test]
fn unordered_archives_merge_per_day_in_memory() {
    // Interleave two groups of the same day: the stream yields two groups,
    // the in-memory importer merges them into one dump.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&day_bytes(0, 10));
    bytes.extend_from_slice(&day_bytes(1, 10));
    bytes.extend_from_slice(&day_bytes(0, 20));

    let streamed: Vec<_> = DailyDumpStream::new(bytes.as_slice())
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(
        streamed.iter().map(|d| d.day).collect::<Vec<_>>(),
        vec![0, 1, 0]
    );

    let in_memory = import_table_dumps(bytes.as_slice()).unwrap();
    let days: Vec<u32> = in_memory.dumps.iter().map(|d| d.day()).collect();
    assert_eq!(days, vec![0, 1]);
    assert_eq!(in_memory.dumps[0].prefix_count(), 20);
}
