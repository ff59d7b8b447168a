//! Serializing routing tables and update streams to MRT.
//!
//! The export side plays the role of a Route Views collector peering with a
//! set of vantage ASes: each daily snapshot is a `PEER_INDEX_TABLE`
//! followed by one `RIB_IPV4_UNICAST` record per prefix, holding the
//! Loc-RIB best route of every vantage AS that has one. The caller reads
//! those routes from wherever its vantages live (a simulated network, in
//! `moas-lab export-mrt`). Update streams export as `BGP4MP` records.

use std::collections::BTreeMap;
use std::io;

use bgp_types::{Asn, Ipv4Prefix, Route, Update};

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
/// `loc_ribs` yields each vantage's best routes as `(vantage, route)` pairs,
/// vantages in `vantages` order; `vantages` lists distinct ASes. Writes a
/// `PEER_INDEX_TABLE` of `vantages`, then one `RIB_IPV4_UNICAST` record per
/// prefix in ascending prefix order, numbered from 0, whose entries follow
/// `vantages` order. Every record is stamped with `day`'s timestamp, so
/// multiple days can be appended to one stream and regrouped on import. A
/// vantage without routes stays in the peer table and contributes no
/// entries.
///
/// # Errors
///
/// Returns a [`WireError`] on encode or I/O failure.
///
/// # Panics
///
/// Panics if the pairs do not follow `vantages` order, which includes a pair
/// naming an AS missing from `vantages`.
pub fn export_rib_snapshot<'r, W, I>(
    writer: &mut MrtWriter<W>,
    vantages: &[Asn],
    loc_ribs: I,
    day: u32,
) -> Result<ExportSummary, WireError>
where
    W: io::Write,
    I: IntoIterator<Item = (Asn, &'r Route)>,
{
    let timestamp = day_to_timestamp(day);
    writer.write_record(&MrtRecord {
        timestamp,
        body: MrtBody::PeerIndexTable(peer_table(vantages)),
    })?;

    // Each prefix's entries, prefixes in ascending order. Pairs arrive in
    // vantage order, so pushing keeps every prefix's entries in peer order.
    let mut ribs: BTreeMap<Ipv4Prefix, Vec<(u16, &Route)>> = BTreeMap::new();
    let mut peer_index = 0;
    for (vantage, route) in loc_ribs {
        peer_index += vantages[peer_index..]
            .iter()
            .position(|&v| v == vantage)
            .expect("loc_ribs follows vantages order");
        ribs.entry(route.prefix())
            .or_default()
            .push((peer_index as u16, route));
    }

    let mut summary = ExportSummary {
        peers: vantages.len(),
        ..ExportSummary::default()
    };
    for (sequence, (prefix, routes)) in ribs.into_iter().enumerate() {
        summary.prefixes += 1;
        summary.entries += routes.len();
        writer.write_record(&MrtRecord {
            timestamp,
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: sequence as u32,
                prefix,
                entries: routes
                    .into_iter()
                    .map(|(peer_index, route)| RibEntry {
                        peer_index,
                        originated_time: timestamp,
                        attrs: PathAttributes::from_route(route),
                    })
                    .collect(),
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
    use bgp_types::AsPath;

    #[test]
    fn rib_snapshot_orders_prefixes_and_entries() {
        let route = |prefix: &str, path: [u32; 2]| {
            Route::new(
                prefix.parse().unwrap(),
                AsPath::from_sequence(path.map(Asn)),
            )
        };
        // Two vantages share 10/8 and each holds one prefix of its own; the
        // third has no routes but keeps its peer-table slot.
        let vantages = [Asn(701), Asn(1239), Asn(3356)];
        let late = route("208.8.0.0/16", [701, 4]);
        let shared_a = route("10.0.0.0/8", [701, 4]);
        let shared_b = route("10.0.0.0/8", [1239, 226]);
        let own_b = route("192.0.2.0/24", [1239, 5]);
        let loc_ribs = [
            (Asn(701), &late),
            (Asn(701), &shared_a),
            (Asn(1239), &shared_b),
            (Asn(1239), &own_b),
        ];
        let mut writer = MrtWriter::new(Vec::new());
        let summary = export_rib_snapshot(&mut writer, &vantages, loc_ribs, 2).unwrap();
        assert_eq!(
            summary,
            ExportSummary {
                prefixes: 3,
                entries: 4,
                peers: 3
            }
        );

        let bytes = writer.finish().unwrap();
        let mut reader = MrtViewReader::new(&bytes[..]);
        let mut records = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            records.push(record);
        }
        let timestamp = day_to_timestamp(2);
        let rib = |sequence, entries: &[(u16, &Route)]| MrtRecord {
            timestamp,
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence,
                prefix: entries[0].1.prefix(),
                entries: entries
                    .iter()
                    .map(|&(peer_index, route)| RibEntry {
                        peer_index,
                        originated_time: timestamp,
                        attrs: PathAttributes::from_route(route),
                    })
                    .collect(),
            }),
        };
        let peers = MrtRecord {
            timestamp,
            body: MrtBody::PeerIndexTable(peer_table(&vantages)),
        };
        assert_eq!(
            records,
            [
                peers,
                rib(0, &[(0, &shared_a), (1, &shared_b)]),
                rib(1, &[(1, &own_b)]),
                rib(2, &[(0, &late)]),
            ]
        );
    }

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
