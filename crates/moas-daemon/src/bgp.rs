//! BGP ingest: converting live UPDATE messages into [`OriginTable`]
//! updates.
//!
//! The daemon's third listener speaks real BGP (via
//! [`bgp_session::BgpListener`]); each decoded [`UpdateMessage`] passes
//! through [`table_updates`] and the result is applied exactly like a
//! `POST /ingest` batch — same serial bump, same delta ring entry, same
//! feed notify.
//!
//! The conversion is deliberately origin-centric, matching the paper's
//! model: the table records *which ASes originate a prefix*, not full
//! paths. An announcement contributes `(prefix, origin AS)` for every NLRI
//! prefix; a withdrawal removes **every** origin currently stored for the
//! prefix, because a BGP withdrawal is per-prefix-per-session and the
//! daemon keeps one table, not per-peer Adj-RIBs.

use bgp_wire::bgp::UpdateMessage;

use crate::table::{OriginTable, TableUpdate};

/// Converts one UPDATE into table updates against the current `table`.
///
/// * Each announced prefix becomes `TableUpdate::announce(prefix, origin)`
///   where `origin` is the right-most AS of the `AS_PATH`. UPDATEs whose
///   path carries no origin (empty path, i.e. an iBGP-originated route)
///   are skipped — the table has no AS to attribute them to.
/// * Each withdrawn prefix becomes one `TableUpdate::withdraw` per origin
///   the table currently holds for that exact prefix. Prefixes the table
///   does not know are ignored.
/// * IPv6 reachability carried in `MP_REACH_NLRI`/`MP_UNREACH_NLRI`
///   attributes is ignored: the origin table is IPv4.
#[must_use]
pub fn table_updates(table: &OriginTable, update: &UpdateMessage) -> Vec<TableUpdate> {
    let mut out = Vec::with_capacity(update.withdrawn.len() + update.nlri.len());
    for &prefix in &update.withdrawn {
        if let Some(origins) = table.origins(prefix) {
            out.extend(origins.iter().map(|asn| TableUpdate::withdraw(prefix, asn)));
        }
    }
    if let Some(attrs) = &update.attrs {
        if let Some(origin) = attrs.as_path.origin() {
            out.extend(
                update
                    .nlri
                    .iter()
                    .map(|&prefix| TableUpdate::announce(prefix, origin)),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList};
    use bgp_wire::bgp::PathAttributes;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(path: &[u32]) -> PathAttributes {
        let as_path = AsPath::from_sequence(path.iter().map(|&a| Asn(a)));
        PathAttributes {
            next_hop: PathAttributes::synthetic_next_hop(as_path.first()),
            as_path,
            origin: bgp_types::RouteOrigin::Igp,
            local_pref: None,
            communities: Vec::new(),
            large_communities: Vec::new(),
            mp_reach: None,
            mp_unreach: None,
        }
    }

    fn table() -> OriginTable {
        let mut table = OriginTable::new(1);
        table.insert(
            p("10.0.0.0/8"),
            [Asn(64512), Asn(64513)].into_iter().collect::<MoasList>(),
        );
        table
    }

    #[test]
    fn announces_use_the_path_origin() {
        let update = UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(attrs(&[64512, 70_000])),
            nlri: vec![p("192.0.2.0/24"), p("198.51.100.0/24")],
        };
        let updates = table_updates(&table(), &update);
        assert_eq!(
            updates,
            vec![
                TableUpdate::announce(p("192.0.2.0/24"), Asn(70_000)),
                TableUpdate::announce(p("198.51.100.0/24"), Asn(70_000)),
            ]
        );
    }

    #[test]
    fn withdrawal_removes_every_current_origin() {
        let update = UpdateMessage {
            withdrawn: vec![p("10.0.0.0/8"), p("203.0.113.0/24")],
            attrs: None,
            nlri: Vec::new(),
        };
        // The unknown prefix contributes nothing; the known one withdraws
        // both stored origins.
        let updates = table_updates(&table(), &update);
        assert_eq!(
            updates,
            vec![
                TableUpdate::withdraw(p("10.0.0.0/8"), Asn(64512)),
                TableUpdate::withdraw(p("10.0.0.0/8"), Asn(64513)),
            ]
        );
    }

    #[test]
    fn mixed_update_orders_withdrawals_first() {
        let update = UpdateMessage {
            withdrawn: vec![p("10.0.0.0/8")],
            attrs: Some(attrs(&[65_001])),
            nlri: vec![p("10.0.0.0/8")],
        };
        let updates = table_updates(&table(), &update);
        assert_eq!(updates.len(), 3);
        assert!(!updates[0].announce && !updates[1].announce);
        assert_eq!(
            updates[2],
            TableUpdate::announce(p("10.0.0.0/8"), Asn(65_001))
        );
    }

    #[test]
    fn empty_paths_and_pure_withdrawal_of_unknown_prefixes_are_noops() {
        let no_origin = UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(attrs(&[])),
            nlri: vec![p("192.0.2.0/24")],
        };
        assert!(table_updates(&table(), &no_origin).is_empty());
        let unknown = UpdateMessage {
            withdrawn: vec![p("203.0.113.0/24")],
            attrs: None,
            nlri: Vec::new(),
        };
        assert!(table_updates(&table(), &unknown).is_empty());
    }
}
