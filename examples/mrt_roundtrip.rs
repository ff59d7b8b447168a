//! The wire boundary end to end: a simulated network exports its routing
//! tables as real MRT bytes (RFC 6396 `TABLE_DUMP_V2`), and the measurement
//! pipeline imports those bytes back — exactly how the paper's study reads
//! Route Views archives. The MOAS list survives the trip inside RFC 1997
//! communities.
//!
//! Run with: `cargo run --release --example mrt_roundtrip`

use moas::bgp::Network;
use moas::detection::OfflineMonitor;
use moas::measurement::DailyDumpStream;
use moas::topology::paper::PaperTopology;
use moas::types::MoasList;
use moas::wire::export_rib_snapshot;
use moas::wire::mrt::MrtWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's 46-AS topology; two stubs legitimately multihome one
    // prefix (a benign MOAS), and a third falsely originates another.
    let topo = PaperTopology::As46.graph();
    let stubs = topo.stub_asns();
    let (origin_a, origin_b, victim, attacker) = (stubs[0], stubs[1], stubs[2], stubs[3]);

    let shared = "10.1.0.0/16".parse()?;
    let shared_list: MoasList = [origin_a, origin_b].into_iter().collect();
    let disputed = "10.2.0.0/16".parse()?;

    let mut net = Network::new(topo);
    net.originate(origin_a, shared, Some(shared_list.clone()));
    net.originate(origin_b, shared, Some(shared_list));
    net.originate(victim, disputed, Some(MoasList::implicit(victim)));
    net.originate(attacker, disputed, Some(MoasList::implicit(attacker)));
    net.run()?;

    // Export: every transit AS peers with the collector, and the collector
    // writes one TABLE_DUMP_V2 snapshot. This is plain `io::Write` — a file
    // works the same way; the example keeps the archive in memory.
    let vantages = topo.transit_asns();
    let mut writer = MrtWriter::new(Vec::new());
    let summary = export_rib_snapshot(&mut writer, &vantages, net.loc_ribs(&vantages), 0)?;
    let archive = writer.finish()?;
    println!(
        "exported {} prefixes / {} RIB entries from {} vantages: {} MRT bytes",
        summary.prefixes,
        summary.entries,
        summary.peers,
        archive.len()
    );

    // Import: the measurement side reads the same bytes back one day at a
    // time, as it would a Route Views archive, keeping each day's routes.
    let mut stream = DailyDumpStream::new(archive.as_slice()).collect_routes(true);
    let day = stream.next_day()?.ok_or("the archive holds no day")?;
    println!(
        "imported day {}: {} prefixes, {} MOAS cases",
        day.day,
        day.dump.prefix_count(),
        day.dump.moas_count()
    );

    // The off-line monitor (§4.2) scans the day's routes: the benign
    // multihomed prefix carries a consistent two-member list everywhere,
    // while the disputed prefix shows conflicting implicit lists.
    let findings = OfflineMonitor::new().scan(day.routes);
    for finding in &findings {
        println!("FINDING: {finding}");
    }
    let flagged: Vec<_> = findings.iter().map(|f| f.prefix).collect();
    assert!(
        flagged.contains(&disputed),
        "the false origin must be flagged"
    );
    assert!(
        !flagged.contains(&shared),
        "legitimate multihoming must not be"
    );
    println!(
        "monitor flagged {disputed} and cleared {shared} (origins {} and {})",
        origin_a, origin_b
    );
    Ok(())
}
