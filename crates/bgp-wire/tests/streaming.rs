//! Streaming-import behavior: `DailyDumpStream` yields each day's origins as
//! written, one import per contiguous day group, and its working set is
//! bounded by the largest day — not the archive length.

use std::io::{self, Read};

use bgp_types::{AsPath, Asn, Ipv4Prefix, Route};
use bgp_wire::bgp::PathAttributes;
use bgp_wire::mrt::{
    MrtBody, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
};
use bgp_wire::{day_to_timestamp, DailyDumpStream};
use route_measurement::DailyDump;

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

/// The day's origins as [`rib_record`] writes them, observed in memory.
fn expected_dump(day: u32, prefixes: u32) -> DailyDump {
    let mut dump = DailyDump::new(day);
    for i in 0..prefixes {
        let prefix = Ipv4Prefix::new((10 << 24) | (i << 8), 24);
        dump.observe(prefix, Asn(1000 + i));
        if i.is_multiple_of(3) {
            dump.observe(prefix, Asn(8584 + (day + i) % 2));
        }
    }
    dump
}

#[test]
fn streaming_matches_in_memory_per_day() {
    const DAYS: u32 = 6;
    const PREFIXES: u32 = 40;
    let mut bytes = Vec::new();
    for day in 0..DAYS {
        bytes.extend_from_slice(&day_bytes(day, PREFIXES));
    }

    let mut stream = DailyDumpStream::new(bytes.as_slice()).collect_routes(true);
    let streamed: Vec<_> = stream.by_ref().collect::<Result<Vec<_>, _>>().unwrap();

    assert_eq!(streamed.len(), DAYS as usize);
    for (day, import) in (0..DAYS).zip(&streamed) {
        assert_eq!(import.day, day);
        assert_eq!(import.dump, expected_dump(day, PREFIXES));
        assert!(import.dump.moas_count() > 0, "synthetic days carry MOAS");
        assert_eq!(import.routes.len(), import.rib_entries);
    }
    let total_entries: usize = streamed.iter().map(|d| d.rib_entries).sum();
    // Every entry written is counted (one per prefix, a second on every
    // third) and every byte of the archive is consumed.
    assert_eq!(
        total_entries,
        (DAYS * (PREFIXES + PREFIXES.div_ceil(3))) as usize
    );
    assert_eq!(stream.bytes_read(), bytes.len() as u64);
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
fn unordered_archives_yield_one_import_per_contiguous_day_group() {
    // Two groups of the same day with another day between them come back as
    // three imports, each holding only its own group's prefixes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&day_bytes(0, 10));
    bytes.extend_from_slice(&day_bytes(1, 10));
    bytes.extend_from_slice(&day_bytes(0, 20));

    let streamed: Vec<_> = DailyDumpStream::new(bytes.as_slice())
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(
        streamed
            .iter()
            .map(|d| (d.day, d.dump.prefix_count()))
            .collect::<Vec<_>>(),
        vec![(0, 10), (1, 10), (0, 20)]
    );
}
