//! Serializing simulator state to MRT.
//!
//! The export side plays the role of a Route Views collector peering with a
//! set of vantage ASes inside the simulated network: each daily snapshot is
//! a `PEER_INDEX_TABLE` followed by one `RIB_IPV4_UNICAST` record per
//! prefix, holding the Loc-RIB best route of every vantage AS that has one.
//! Update streams export as `BGP4MP` records.

use std::collections::BTreeSet;
use std::io;

use bgp_engine::{RouteMonitor, ShardedNetwork};
use bgp_types::{Asn, Ipv4Prefix, Update};

use crate::bgp::{PathAttributes, UpdateMessage};
use crate::error::WireError;
use crate::mrt::{
    Bgp4mpMessage, MrtBody, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry,
    RibIpv4Unicast,
};
use crate::{day_to_timestamp, COLLECTOR_ASN};

/// What one snapshot export wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExportSummary {
    /// Prefixes written (one `RIB_IPV4_UNICAST` record each).
    pub prefixes: usize,
    /// RIB entries written across all prefixes.
    pub entries: usize,
    /// Vantage peers in the index table.
    pub peers: usize,
}

fn synthetic_addr(asn: Asn) -> u32 {
    PathAttributes::synthetic_next_hop(Some(asn))
}

/// Builds the collector's peer roster for a set of vantage ASes.
#[must_use]
pub fn peer_table(vantages: &[Asn]) -> PeerIndexTable {
    PeerIndexTable {
        collector_id: synthetic_addr(COLLECTOR_ASN),
        view_name: "moas-lab".to_string(),
        peers: vantages
            .iter()
            .map(|&asn| PeerEntry {
                bgp_id: asn.0,
                addr: synthetic_addr(asn),
                asn,
            })
            .collect(),
    }
}

/// Exports one daily table snapshot: the Loc-RIB best routes of every
/// vantage AS, over every prefix any of them knows.
///
/// Writes a `PEER_INDEX_TABLE` followed by the RIB records, all stamped
/// with `day`'s timestamp, so multiple days can be appended to one stream
/// and regrouped on import.
///
/// # Errors
///
/// Returns a [`WireError`] on encode or I/O failure, or if a vantage ASN
/// does not exist in the network (reported as zero routes, not an error —
/// absent routers simply contribute nothing).
pub fn export_rib_snapshot<W: io::Write, M: RouteMonitor>(
    writer: &mut MrtWriter<W>,
    network: &ShardedNetwork<M>,
    vantages: &[Asn],
    day: u32,
) -> Result<ExportSummary, WireError> {
    let timestamp = day_to_timestamp(day);
    writer.write_record(&MrtRecord {
        timestamp,
        body: MrtBody::PeerIndexTable(peer_table(vantages)),
    })?;

    // The union of all vantage Loc-RIB prefixes, in deterministic order.
    let mut prefixes: BTreeSet<Ipv4Prefix> = BTreeSet::new();
    for &vantage in vantages {
        if let Some(router) = network.router(vantage) {
            prefixes.extend(router.prefixes());
        }
    }

    let mut summary = ExportSummary {
        peers: vantages.len(),
        ..ExportSummary::default()
    };
    for (sequence, &prefix) in prefixes.iter().enumerate() {
        let mut entries = Vec::new();
        for (peer_index, &vantage) in vantages.iter().enumerate() {
            let Some(route) = network.best_route(vantage, prefix) else {
                continue;
            };
            entries.push(RibEntry {
                peer_index: peer_index as u16,
                originated_time: timestamp,
                attrs: PathAttributes::from_route(route),
            });
        }
        if entries.is_empty() {
            continue;
        }
        summary.prefixes += 1;
        summary.entries += entries.len();
        writer.write_record(&MrtRecord {
            timestamp,
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: sequence as u32,
                prefix,
                entries,
            }),
        })?;
    }
    Ok(summary)
}

/// Exports a stream of simulator updates as `BGP4MP` records, each
/// attributed to the peer AS that sent it and stamped with `day`.
///
/// # Errors
///
/// Returns a [`WireError`] on encode or I/O failure.
pub fn export_update_stream<'a, W, I>(
    writer: &mut MrtWriter<W>,
    day: u32,
    updates: I,
) -> Result<usize, WireError>
where
    W: io::Write,
    I: IntoIterator<Item = (Asn, &'a Update)>,
{
    let timestamp = day_to_timestamp(day);
    let mut written = 0;
    for (peer, update) in updates {
        writer.write_record(&MrtRecord {
            timestamp,
            body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                peer_asn: peer,
                local_asn: COLLECTOR_ASN,
                peer_addr: synthetic_addr(peer),
                local_addr: synthetic_addr(COLLECTOR_ASN),
                message: UpdateMessage::from_update(update),
            }),
        })?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::MrtViewReader;
    use bgp_types::Route;

    // as-topology is not a bgp-wire dependency, so building a real Network
    // happens in the workspace-root integration tests; here we exercise the
    // update-stream writer, which needs none.
    #[test]
    fn update_stream_round_trips_record_count() {
        let route = Route::new(
            "208.8.0.0/16".parse().unwrap(),
            bgp_types::AsPath::origination(Asn(4)),
        );
        let updates = [
            (Asn(4), Update::announce(route)),
            (Asn(7), Update::withdraw("10.0.0.0/8".parse().unwrap())),
        ];
        let mut writer = MrtWriter::new(Vec::new());
        let n = export_update_stream(&mut writer, 3, updates.iter().map(|(a, u)| (*a, u))).unwrap();
        assert_eq!(n, 2);
        let bytes = writer.finish().unwrap();
        let mut reader = MrtViewReader::new(&bytes[..]);
        let first = reader.next_record().unwrap().expect("two records");
        assert!(reader.next_record().unwrap().is_some());
        assert_eq!(reader.next_record().unwrap(), None);
        assert_eq!(first.timestamp, day_to_timestamp(3));
    }
}
