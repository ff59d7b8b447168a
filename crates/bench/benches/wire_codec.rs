//! Wire-codec throughput: RFC 4271 UPDATE and RFC 6396 TABLE_DUMP_V2
//! encode/decode over synthetic snapshots shaped like a day of Route Views
//! data (a peer index table followed by thousands of RIB records).
//!
//! Each benchmark times a single pass, then prints an explicit throughput
//! line (MB/s and records/s) measured over the same workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bgp_types::{AsPath, Asn, Ipv4Prefix, Route};
use bgp_wire::bgp::{AsnEncoding, PathAttributes, UpdateMessage};
use bgp_wire::mrt::{
    MrtBody, MrtReader, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
};
use bgp_wire::{day_to_timestamp, DailyDumpStream};

const UPDATES: usize = 4_000;
const RIB_RECORDS: usize = 4_000;

fn report(name: &str, records: usize, bytes: usize, elapsed: Duration) {
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "throughput {name:<28} {:>8.1} MB/s {:>12.0} records/s",
        bytes as f64 / 1e6 / secs,
        records as f64 / secs,
    );
}

fn synth_route(i: u32) -> Route {
    Route::new(
        Ipv4Prefix::new((10 << 24) | ((i % 60_000) << 8), 24),
        AsPath::from_sequence([
            Asn(701),
            Asn(1239),
            Asn(3_000 + i % 500),
            Asn(64_512 + i % 1_000),
        ]),
    )
}

fn synth_updates(n: usize) -> Vec<UpdateMessage> {
    (0..n)
        .map(|i| UpdateMessage::announce(&synth_route(i as u32)))
        .collect()
}

fn synth_table_dump(records: usize) -> Vec<MrtRecord> {
    let peers = [Asn(701), Asn(1239)]
        .into_iter()
        .map(|asn| PeerEntry {
            bgp_id: asn.0,
            addr: asn.0,
            asn,
        })
        .collect();
    let mut out = Vec::with_capacity(records + 1);
    out.push(MrtRecord {
        timestamp: day_to_timestamp(0),
        body: MrtBody::PeerIndexTable(PeerIndexTable {
            collector_id: 0,
            view_name: String::from("bench"),
            peers,
        }),
    });
    for i in 0..records as u32 {
        let entries = (0..2)
            .map(|peer| RibEntry {
                peer_index: peer,
                originated_time: day_to_timestamp(0),
                attrs: PathAttributes::from_route(&synth_route(i + peer as u32)),
            })
            .collect();
        out.push(MrtRecord {
            timestamp: day_to_timestamp(0),
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: i,
                prefix: Ipv4Prefix::new((10 << 24) | ((i % 60_000) << 8), 24),
                entries,
            }),
        });
    }
    out
}

fn bench_update_codec() {
    let updates = synth_updates(UPDATES);

    bench::time_once("wire/update_encode_4000", || {
        let mut bytes = 0usize;
        for update in &updates {
            bytes += update.encode(AsnEncoding::FourOctet).unwrap().len();
        }
        bytes
    });
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = updates
        .iter()
        .map(|u| u.encode(AsnEncoding::FourOctet).unwrap())
        .collect();
    let update_bytes: usize = encoded.iter().map(Vec::len).sum();
    report(
        "update_encode",
        updates.len(),
        update_bytes,
        start.elapsed(),
    );

    bench::time_once("wire/update_decode_4000", || {
        for bytes in &encoded {
            black_box(UpdateMessage::decode(bytes, AsnEncoding::FourOctet).unwrap());
        }
    });
    let start = Instant::now();
    for bytes in &encoded {
        black_box(UpdateMessage::decode(bytes, AsnEncoding::FourOctet).unwrap());
    }
    report(
        "update_decode",
        encoded.len(),
        update_bytes,
        start.elapsed(),
    );
}

fn bench_table_dump_codec() {
    let records = synth_table_dump(RIB_RECORDS);

    bench::time_once("wire/table_dump_v2_encode_4000", || {
        let mut writer = MrtWriter::new(Vec::new());
        for record in &records {
            writer.write_record(record).unwrap();
        }
        writer.finish().unwrap().len()
    });
    let start = Instant::now();
    let mut writer = MrtWriter::new(Vec::new());
    for record in &records {
        writer.write_record(record).unwrap();
    }
    let bytes = writer.finish().unwrap();
    report(
        "table_dump_v2_encode",
        records.len(),
        bytes.len(),
        start.elapsed(),
    );

    bench::time_once("wire/table_dump_v2_decode_4000", || {
        let mut reader = MrtReader::new(bytes.as_slice());
        let mut decoded = 0usize;
        while let Some(record) = reader.next_record().unwrap() {
            black_box(&record);
            decoded += 1;
        }
        decoded
    });
    let start = Instant::now();
    let mut reader = MrtReader::new(bytes.as_slice());
    let mut decoded = 0usize;
    while let Some(record) = reader.next_record().unwrap() {
        black_box(&record);
        decoded += 1;
    }
    report(
        "table_dump_v2_decode",
        decoded,
        bytes.len(),
        start.elapsed(),
    );

    bench::time_once("wire/streaming_import_4000", || {
        let mut stream = DailyDumpStream::new(bytes.as_slice());
        let mut days = 0usize;
        while let Some(day) = stream.next_day().unwrap() {
            black_box(&day);
            days += 1;
        }
        days
    });
    let start = Instant::now();
    let mut stream = DailyDumpStream::new(bytes.as_slice());
    while let Some(day) = stream.next_day().unwrap() {
        black_box(&day);
    }
    report(
        "streaming_import",
        records.len(),
        bytes.len(),
        start.elapsed(),
    );
}

fn main() {
    bench_update_codec();
    bench_table_dump_codec();
}
