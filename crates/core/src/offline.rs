//! The off-line monitoring deployment path (§4.2).
//!
//! "One could deploy the MOAS List checking quickly in the operational
//! Internet via an off-line monitoring process, which periodically downloads
//! the BGP routing messages and checks the MOAS List consistency from
//! multiple peers." This module implements that process over collected
//! routes — e.g. the best routes of a set of vantage ASes in a simulation,
//! or any [`Route`] collection assembled from table dumps.

use std::collections::BTreeMap;
use std::fmt;

use bgp_engine::{RouteMonitor, ShardedNetwork};
use bgp_types::{Asn, Ipv4Prefix, MoasList, Route};

use crate::detector::{find_conflict, ConflictKind};

/// One prefix flagged by the off-line monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineFinding {
    /// The disputed prefix.
    pub prefix: Ipv4Prefix,
    /// The kind of inconsistency observed among collected routes.
    pub kind: ConflictKind,
    /// Every origin AS observed announcing the prefix.
    pub origins: Vec<Asn>,
    /// Every distinct effective MOAS list observed.
    pub lists: Vec<MoasList>,
}

impl fmt::Display for OfflineFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({} origins, {} distinct lists)",
            self.prefix,
            self.kind,
            self.origins.len(),
            self.lists.len()
        )
    }
}

/// Periodically scans collected routes for MOAS-list inconsistencies without
/// touching the routers — the incremental-deployment story of §4.2.
///
/// # Example
///
/// ```
/// use bgp_types::{AsPath, Asn, Route};
/// use moas_core::OfflineMonitor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = "208.8.0.0/16".parse()?;
/// let valid = Route::new(p, AsPath::origination(Asn(4)));
/// let bogus = Route::new(p, AsPath::origination(Asn(52)));
/// let findings = OfflineMonitor::new().scan([valid, bogus]);
/// assert_eq!(findings.len(), 1);
/// assert_eq!(findings[0].origins, vec![Asn(4), Asn(52)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfflineMonitor;

impl OfflineMonitor {
    /// Creates the monitor.
    #[must_use]
    pub fn new() -> Self {
        OfflineMonitor
    }

    /// Checks a batch of collected routes, returning one finding per
    /// conflicted prefix (in ascending prefix order).
    #[must_use]
    pub fn scan<I: IntoIterator<Item = Route>>(&self, routes: I) -> Vec<OfflineFinding> {
        let mut by_prefix: BTreeMap<Ipv4Prefix, Vec<Route>> = BTreeMap::new();
        for route in routes {
            by_prefix.entry(route.prefix()).or_default().push(route);
        }

        let mut findings = Vec::new();
        for (prefix, routes) in by_prefix {
            let mut kind: Option<ConflictKind> = None;
            for (i, route) in routes.iter().enumerate() {
                let others = routes
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, r)| (None, r));
                if let Some(conflict) = find_conflict(route, others) {
                    kind = Some(conflict.kind);
                    break;
                }
            }
            let Some(kind) = kind else { continue };

            let mut origins: Vec<Asn> = Vec::new();
            let mut lists: Vec<MoasList> = Vec::new();
            for route in &routes {
                if let Some(origin) = route.origin_as() {
                    if !origins.contains(&origin) {
                        origins.push(origin);
                    }
                }
                if let Some(list) = route.effective_moas_list() {
                    if !lists.contains(&list) {
                        lists.push(list);
                    }
                }
            }
            origins.sort_unstable();
            findings.push(OfflineFinding {
                prefix,
                kind,
                origins,
                lists,
            });
        }
        findings
    }

    /// Convenience: collects the best routes a set of vantage ASes hold for
    /// `prefix` in a simulated network (mimicking Route Views' multiple
    /// peerings) and scans them.
    #[must_use]
    pub fn scan_network<M: RouteMonitor>(
        &self,
        net: &ShardedNetwork<M>,
        vantages: &[Asn],
        prefix: Ipv4Prefix,
    ) -> Vec<OfflineFinding> {
        let collected: Vec<Route> = vantages
            .iter()
            .filter_map(|&asn| net.best_route(asn, prefix).cloned())
            .collect();
        self.scan(collected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_topology::{AsGraph, AsRole};
    use bgp_engine::Network;
    use bgp_types::AsPath;

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    fn route(origin: u32, list: Option<&[u32]>) -> Route {
        let mut r = Route::new(p(), AsPath::origination(Asn(origin)));
        if let Some(members) = list {
            r = r.with_moas_list(members.iter().map(|&a| Asn(a)).collect());
        }
        r
    }

    #[test]
    fn clean_tables_produce_no_findings() {
        let findings = OfflineMonitor::new().scan([
            route(1, Some(&[1, 2])),
            route(2, Some(&[1, 2])),
            route(1, Some(&[1, 2])),
        ]);
        assert!(findings.is_empty());
    }

    #[test]
    fn conflicting_origins_are_flagged_once_per_prefix() {
        let findings =
            OfflineMonitor::new().scan([route(4, None), route(52, None), route(4, None)]);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.kind, ConflictKind::InconsistentLists);
        assert_eq!(f.origins, vec![Asn(4), Asn(52)]);
        assert_eq!(f.lists.len(), 2);
    }

    #[test]
    fn multiple_prefixes_sorted() {
        let mut other = route(4, None);
        other = Route::new("10.0.0.0/8".parse().unwrap(), other.as_path().clone());
        let findings = OfflineMonitor::new().scan([
            route(4, None),
            route(52, None),
            other.clone(),
            Route::new("10.0.0.0/8".parse().unwrap(), AsPath::origination(Asn(9))),
        ]);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].prefix, "10.0.0.0/8".parse().unwrap());
        assert_eq!(findings[1].prefix, p());
    }

    #[test]
    fn self_test_violation_flagged_from_single_route() {
        let findings = OfflineMonitor::new().scan([route(3, Some(&[1, 2]))]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, ConflictKind::OriginNotInList);
    }

    #[test]
    fn empty_scan_is_empty() {
        assert!(OfflineMonitor::new().scan([]).is_empty());
    }

    #[test]
    fn scan_network_collects_vantage_best_routes() {
        // Figure 3 network under plain BGP: the offline monitor still sees
        // the conflict across vantages even though no router blocked it.
        let mut g = AsGraph::new();
        g.add_as(Asn(4), AsRole::Stub);
        g.add_as(Asn(52), AsRole::Stub);
        for t in [1, 2, 3] {
            g.add_as(Asn(t), AsRole::Transit);
        }
        g.add_link(Asn(4), Asn(2));
        g.add_link(Asn(4), Asn(3));
        g.add_link(Asn(2), Asn(1));
        g.add_link(Asn(3), Asn(1));
        g.add_link(Asn(52), Asn(1));
        let mut net = Network::new(&g);
        net.originate(Asn(4), p(), None);
        net.originate(Asn(52), p(), None);
        net.run().unwrap();

        let findings = OfflineMonitor::new().scan_network(&net, &[Asn(1), Asn(2), Asn(3)], p());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].origins, vec![Asn(4), Asn(52)]);
    }

    #[test]
    fn display_summarizes_finding() {
        let findings = OfflineMonitor::new().scan([route(4, None), route(52, None)]);
        let s = findings[0].to_string();
        assert!(s.contains("208.8.0.0/16"));
        assert!(s.contains("2 origins"));
    }
}
