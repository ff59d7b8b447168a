//! `ingest_mrt`: `OriginTable::from_mrt` passes over an in-memory table-dump
//! archive, each checked against the owned-decode reference table.

use std::hint::black_box;
use std::time::Instant;

use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, PrefixTrie, Route};
use bgp_wire::bgp::{AsnEncoding, UpdateMessage};
use bgp_wire::{MrtBodyView, MrtViewReader, UpdateView};
use moas_daemon::OriginTable;

use crate::gen::{self, Rng};
use crate::host::{self, ProcStat};
use crate::report::{Outcome, Run};
use crate::stats::Metric;
use crate::trace::Tracer;

const MIB: f64 = 1024.0 * 1024.0;

pub fn ingest_mrt(run: &Run, tracer: &mut Tracer) -> Outcome {
    let shape = run.archive_shape();
    // Set-up: synthesise the archive and build the reference table through
    // the owned decoder, several times so that `setup_s` is a median.
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..run.setup_repeats() {
        drop(live.take());
        let began = Instant::now();
        let bytes = gen::make_archive(shape, run.seed);
        let reference = OriginTable::from_mrt_owned(&bytes[..], 1).expect("owned decode");
        setups.push(began.elapsed().as_secs_f64());
        live = Some((bytes, reference));
    }
    let (bytes, reference) = live.expect("at least one set-up");
    let mib = bytes.len() as f64 / MIB;
    let mut expected = reference.snapshot();
    if run.wrong_reference {
        expected.pop();
    }

    let mut out = Outcome::new(0, 0);
    let mut pass_s = Vec::new();
    let cpu_before = ProcStat::now();
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < run.measure_seconds() || pass_s.len() < 3 {
        let pass = pass_s.len() as u64;
        let start = Instant::now();
        let table = tracer.span("ingest.from_mrt", pass, |_| {
            OriginTable::from_mrt(&bytes[..], 1)
        });
        pass_s.push(start.elapsed().as_secs_f64());
        let same = table.is_ok_and(|t| t.snapshot() == expected);
        out.check(
            same,
            "from_mrt table differs from the from_mrt_owned reference",
        );
    }
    let cpu_s = ProcStat::now().cpu_s() - cpu_before.cpu_s();
    let passes = pass_s.len() as f64;

    if run.trace {
        layers(run, tracer, &bytes, &reference, &pass_s, &mut out);
    }

    let mut rates: Vec<f64> = pass_s.iter().map(|s| mib / s).collect();
    let mut pass_us: Vec<f64> = pass_s.iter().map(|s| s * 1e6).collect();
    out.end_to_end(Metric::median("setup_s", "s", &mut setups));
    out.end_to_end(Metric::median("work_per_s", "1/s", &mut rates));
    out.end_to_end(Metric::median("op_p50_us", "us", &mut pass_us));
    // The passes share the process with the snapshot comparison; its CPU time
    // is part of what a checked ingest costs.
    out.layer_metric(Metric::single(
        "host.cpu_us_per_work",
        "us",
        cpu_s * 1e6 / (passes * mib),
    ));
    out.end_to_end(Metric::single("peak_rss_mib", "MiB", host::peak_rss_mib()));
    out.note(&format!(
        "archive {mib:.1} MiB, {} RIB entries, {} prefixes in the table, {} passes",
        shape.rib_entries(),
        reference.prefix_count(),
        pass_s.len()
    ));
    out
}

/// Median seconds of `repeats` runs of `f`, each inside a span.
fn timed(tracer: &mut Tracer, name: &'static str, repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|i| {
            let start = Instant::now();
            tracer.span(name, i as u64, |_| f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// The stages of `from_mrt`, rebuilt one at a time from the public pieces it
/// is made of, each a superset of the one before: frame, validate, extract
/// origins, sort and dedup, bulk-load. What a whole pass costs beyond their
/// sum is unattributed.
fn layers(
    run: &Run,
    tracer: &mut Tracer,
    bytes: &[u8],
    reference: &OriginTable,
    pass_s: &[f64],
    out: &mut Outcome,
) {
    let mib = bytes.len() as f64 / MIB;
    let repeats = 3;
    let frame_s = timed(tracer, "wire.frame", repeats, || {
        let mut mrt = MrtViewReader::new(bytes);
        while mrt.advance().expect("frame") {}
    });
    let validate_s = timed(tracer, "wire.validate", repeats, || {
        let mut mrt = MrtViewReader::new(bytes);
        while mrt.advance().expect("frame") {
            black_box(mrt.view().expect("validate").timestamp);
        }
    });
    let mut pairs: Vec<(Ipv4Prefix, Asn)> = Vec::new();
    let extract_s = timed(tracer, "wire.origin_extract", repeats, || {
        pairs.clear();
        let mut mrt = MrtViewReader::new(bytes);
        while mrt.advance().expect("frame") {
            if let MrtBodyView::RibIpv4Unicast(rib) = mrt.view().expect("validate").body {
                for entry in rib.entries() {
                    // The generator always writes an AS path, so the peer
                    // table's fallback origin is never needed here.
                    let origin = entry.attrs.origin_asn().unwrap_or(Asn(0));
                    pairs.push((rib.prefix(), origin));
                }
            }
        }
    });
    let entries = pairs.len();
    out.layer("wire.frame_mib_per_s", mib / frame_s);
    out.layer("wire.validate_mib_per_s", mib / validate_s);
    out.layer(
        "wire.origin_extract_ns_per_entry",
        (extract_s - validate_s).max(0.0) * 1e9 / entries.max(1) as f64,
    );

    let mut sorted = Vec::new();
    let sort_s = timed(tracer, "ingest.sort_dedup", repeats, || {
        sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
    });
    // The clone is the replay's, not the program's.
    let clone_s = timed(tracer, "trace.pairs_clone", repeats, || {
        black_box(pairs.clone());
    });
    let sort_s = (sort_s - clone_s).max(0.0);
    out.layer("ingest.sort_dedup_ms", sort_s * 1e3);

    let group = |sorted: &[(Ipv4Prefix, Asn)]| {
        let mut groups: Vec<(Ipv4Prefix, MoasList)> = Vec::new();
        for &(prefix, asn) in sorted {
            match groups.last_mut() {
                Some((last, list)) if *last == prefix => {
                    list.insert(asn);
                }
                _ => groups.push((prefix, MoasList::implicit(asn))),
            }
        }
        groups
    };
    let mut loaded = 0usize;
    let extend_s = timed(tracer, "trie.extend_sorted", repeats, || {
        let mut trie: PrefixTrie<MoasList> = PrefixTrie::new();
        trie.extend_sorted(group(&sorted));
        loaded = trie.len();
    });
    out.layer("trie.extend_sorted_ms", extend_s * 1e3);
    out.check(
        loaded == reference.prefix_count(),
        "replayed bulk load holds a different number of prefixes than the reference",
    );
    let insert_s = timed(tracer, "trie.insert", repeats, || {
        let mut trie: PrefixTrie<MoasList> = PrefixTrie::new();
        for (prefix, list) in group(&sorted) {
            trie.insert(prefix, list);
        }
        black_box(trie.len());
    });
    out.layer("trie.insert_ns", insert_s * 1e9 / loaded.max(1) as f64);

    let owned_s = timed(tracer, "wire.owned", repeats, || {
        black_box(
            OriginTable::from_mrt_owned(bytes, 1)
                .expect("owned decode")
                .prefix_count(),
        );
    });
    out.layer("wire.owned_mib_per_s", mib / owned_s);

    let mut whole = pass_s.to_vec();
    let whole_s = crate::stats::median(&mut whole);
    let attributed = extract_s + sort_s + extend_s;
    out.layer(
        "ingest.unattributed_pct",
        (whole_s - attributed) / whole_s * 100.0,
    );

    // The live-session side of the same codec: one UPDATE per route.
    let mut rng = Rng::new(run.seed ^ 0x55);
    let routes: Vec<Route> = (0..run.scaled(50_000))
        .map(|i| {
            let hops = 3 + rng.below(4);
            Route::new(
                Ipv4Prefix::new((10u32 << 24) + ((i as u32) << 8), 24),
                AsPath::from_sequence((0..hops).map(|_| Asn(1 + rng.below(60_000) as u32))),
            )
        })
        .collect();
    let messages: Vec<UpdateMessage> = routes.iter().map(UpdateMessage::announce).collect();
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let encode_s = timed(tracer, "wire.update_encode", repeats, || {
        wire = messages
            .iter()
            .map(|m| m.encode(AsnEncoding::FourOctet).expect("encode"))
            .collect();
    });
    out.layer(
        "wire.update_encode_ns",
        encode_s * 1e9 / messages.len() as f64,
    );
    let mut parsed_ok = true;
    let parse_s = timed(tracer, "wire.update_view_parse", repeats, || {
        for (bytes, route) in wire.iter().zip(&routes) {
            match UpdateView::parse_exact(bytes, AsnEncoding::FourOctet) {
                Ok(view) => parsed_ok &= view.nlri().next() == Some(route.prefix()),
                Err(_) => parsed_ok = false,
            }
        }
    });
    out.layer(
        "wire.update_view_parse_ns",
        parse_s * 1e9 / messages.len() as f64,
    );
    out.check(
        parsed_ok,
        "an encoded UPDATE did not parse back to its prefix",
    );
}
