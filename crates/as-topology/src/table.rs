//! Route Views-style routing tables.

use std::fmt;

use bgp_types::{AsPath, Asn, Ipv4Prefix};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::{AsGraph, GraphIndex};

/// One `(prefix, AS path)` row of a BGP routing table, as archived by the
/// Oregon Route Views server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTableEntry {
    /// The destination prefix.
    pub prefix: Ipv4Prefix,
    /// The AS path the collector observed, neighbor-first.
    pub path: AsPath,
}

impl fmt::Display for RouteTableEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.prefix, self.path)
    }
}

/// A full BGP routing table: the input to the paper's topology-derivation
/// pipeline and to the MOAS measurement study.
///
/// # Example
///
/// ```
/// use as_topology::{InternetModel, RouteTable};
///
/// let truth = InternetModel::new().transit_count(10).stub_count(30).build(1);
/// let table = RouteTable::synthesize(&truth, &[0], 1);
/// assert!(!table.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteTable {
    entries: Vec<RouteTableEntry>,
}

impl RouteTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Builds a table from entries.
    #[must_use]
    pub fn from_entries<I: IntoIterator<Item = RouteTableEntry>>(entries: I) -> Self {
        RouteTable {
            entries: entries.into_iter().collect(),
        }
    }

    /// Adds one row.
    pub fn push(&mut self, entry: RouteTableEntry) {
        self.entries.push(entry);
    }

    /// The rows of the table.
    #[must_use]
    pub fn entries(&self) -> &[RouteTableEntry] {
        &self.entries
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Synthesizes the table a Route Views-style collector would record for a
    /// ground-truth topology.
    ///
    /// Every stub AS originates one prefix (deterministically assigned from
    /// its ASN); each `vantage` index selects a transit AS (modulo the number
    /// of transit ASes) acting as a collector peer, and the collector records
    /// the shortest AS path from that vantage to every origin. `seed` jitters
    /// path tie-breaking so different vantages do not see artificially
    /// identical tables.
    ///
    /// This substitutes for the real Route Views archive: it produces tables
    /// with the same structural properties the paper's pipeline consumes
    /// (adjacency pairs revealing peering, mid-path ASes revealing transit
    /// roles).
    #[must_use]
    pub fn synthesize(truth: &AsGraph, vantages: &[usize], seed: u64) -> RouteTable {
        let transit = truth.transit_asns();
        let mut rng = bgp_types::rng::from_seed(seed);
        let mut table = RouteTable::new();
        if transit.is_empty() {
            return table;
        }
        let index = truth.index();
        let node = |asn| index.index_of(asn).expect("graph ASes are indexed");
        let stubs: Vec<usize> = truth.stub_asns().into_iter().map(node).collect();
        let mut carries = vec![true; index.len()];
        for &stub in &stubs {
            carries[stub] = false;
        }
        let mut parent = vec![u32::MAX; index.len()];
        for &v in vantages {
            let vantage = node(transit[v % transit.len()]);
            for &stub in &stubs {
                let prefix = prefix_for_asn(index.asns()[stub]);
                if let Some(path) =
                    shortest_path_jittered(&index, &carries, vantage, stub, &mut parent, &mut rng)
                {
                    table.push(RouteTableEntry {
                        prefix,
                        path: AsPath::from_sequence(path),
                    });
                }
            }
        }
        table
    }
}

impl FromIterator<RouteTableEntry> for RouteTable {
    fn from_iter<I: IntoIterator<Item = RouteTableEntry>>(iter: I) -> Self {
        RouteTable::from_entries(iter)
    }
}

impl Extend<RouteTableEntry> for RouteTable {
    fn extend<I: IntoIterator<Item = RouteTableEntry>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

/// The deterministic prefix originated by an AS in synthetic workloads,
/// distinct for every ASN. An AS below 65,536 gets the /16 holding its ASN
/// in the high bits, so those prefixes never overlap. A wider AS gets the
/// /32 of its ASN with the halves swapped: a more-specific inside the /16
/// of the 2-octet AS its low half names, and never equal to any other
/// AS's prefix.
#[must_use]
pub fn prefix_for_asn(asn: Asn) -> Ipv4Prefix {
    match u16::try_from(asn.0) {
        Ok(narrow) => Ipv4Prefix::new(u32::from(narrow) << 16, 16),
        Err(_) => Ipv4Prefix::new(asn.0.rotate_left(16), 32),
    }
}

/// BFS shortest path with randomized neighbor order, so equal-length paths
/// are sampled rather than always resolving toward low ASNs.
///
/// Stub ASes never appear mid-path: edge networks do not provide transit, so
/// a node is expanded only if it `carries` traffic, unless it is the
/// destination itself. This keeps the synthesized tables consistent with
/// the role semantics §5.1 infers from them. `parent` is all `u32::MAX` on
/// entry and on return.
fn shortest_path_jittered<R: Rng>(
    index: &GraphIndex,
    carries: &[bool],
    from: usize,
    to: usize,
    parent: &mut [u32],
    rng: &mut R,
) -> Option<Vec<Asn>> {
    if from == to {
        return Some(vec![index.asns()[from]]);
    }
    parent[from] = from as u32;
    let mut queue = vec![from as u32];
    let mut head = 0;
    let mut found = false;
    let mut peers: Vec<u32> = Vec::new();
    'search: while let Some(&node) = queue.get(head) {
        head += 1;
        // Every node reached is queued, so `parent` can be reset from the
        // queue; only the source and carriers are expanded.
        if node as usize != from && !carries[node as usize] {
            continue;
        }
        peers.clear();
        peers.extend_from_slice(index.neighbors(node as usize));
        peers.shuffle(rng);
        for &peer in &peers {
            if parent[peer as usize] == u32::MAX {
                parent[peer as usize] = node;
                queue.push(peer);
                if peer as usize == to {
                    found = true;
                    break 'search;
                }
            }
        }
    }
    let path = found.then(|| {
        let mut path = vec![index.asns()[to]];
        let mut cur = to;
        while cur != from {
            cur = parent[cur] as usize;
            path.push(index.asns()[cur]);
        }
        path.reverse();
        path
    });
    for &node in &queue {
        parent[node as usize] = u32::MAX;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsRole, InternetModel};

    fn entry(prefix: &str, path: &str) -> RouteTableEntry {
        RouteTableEntry {
            prefix: prefix.parse().unwrap(),
            path: path.parse().unwrap(),
        }
    }

    #[test]
    fn synthesized_table_covers_all_stubs() {
        let truth = InternetModel::new()
            .transit_count(8)
            .stub_count(40)
            .build(3);
        let table = RouteTable::synthesize(&truth, &[0, 1, 2], 3);
        // Each vantage sees every stub (the generator guarantees connectivity).
        assert_eq!(table.len(), 3 * truth.stub_asns().len());
        // No MOAS in a fault-free table: one origin per prefix.
        for row in table.entries() {
            assert_eq!(row.prefix, prefix_for_asn(row.path.origin().unwrap()));
        }
    }

    #[test]
    fn synthesized_paths_end_at_origin_stub() {
        let truth = InternetModel::new()
            .transit_count(6)
            .stub_count(20)
            .build(9);
        let table = RouteTable::synthesize(&truth, &[0], 9);
        for row in table.entries() {
            let origin = row.path.origin().unwrap();
            assert_eq!(row.prefix, prefix_for_asn(origin));
            assert_eq!(truth.role(origin), Some(AsRole::Stub));
        }
    }

    #[test]
    fn prefix_for_asn_is_injective_for_16bit() {
        let a = prefix_for_asn(Asn(1));
        let b = prefix_for_asn(Asn(2));
        assert_ne!(a, b);
        assert!(!a.overlaps(b));
        // The 2-octet range keeps its /16s.
        assert_eq!(prefix_for_asn(Asn(226)), "0.226.0.0/16".parse().unwrap());
        // A wider ASN no longer aliases the AS its low half names: it gets
        // a /32 inside that AS's /16.
        let wide = prefix_for_asn(Asn(65_537));
        assert_eq!(wide, "0.1.0.1/32".parse().unwrap());
        assert_ne!(wide, a);
        assert!(a.contains(wide));
        let mut seen = std::collections::BTreeSet::new();
        for asn in (0..70_000).chain([u32::MAX - 1, u32::MAX]) {
            assert!(seen.insert(prefix_for_asn(Asn(asn))), "AS{asn} aliases");
        }
    }

    #[test]
    fn synthesized_tables_with_wide_asns_have_no_false_moas() {
        // Stubs AS 1, AS 65,537 and AS 131,073 share their low 16 bits.
        let mut truth = AsGraph::new();
        truth.add_as(Asn(10), AsRole::Transit);
        for stub in [1, 2, 65_537, 131_073] {
            truth.add_as(Asn(stub), AsRole::Stub);
            truth.add_link(Asn(10), Asn(stub));
        }
        let table = RouteTable::synthesize(&truth, &[0], 3);
        assert_eq!(table.len(), 4);
        let mut origins = std::collections::BTreeMap::new();
        for row in table.entries() {
            let origin = row.path.origin().unwrap();
            assert_eq!(*origins.entry(row.prefix).or_insert(origin), origin);
        }
    }

    #[test]
    fn empty_truth_gives_empty_table() {
        let table = RouteTable::synthesize(&AsGraph::new(), &[0], 1);
        assert!(table.is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let mut table: RouteTable = [entry("10.0.0.0/16", "1 4")].into_iter().collect();
        table.extend([entry("10.1.0.0/16", "1 5")]);
        assert_eq!(table.len(), 2);
    }
}
