//! The AS-level graph.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bgp_types::Asn;

use crate::GraphIndex;

/// The role of an AS in the topology (§5.1).
///
/// "Transit ASes represent ISPs (e.g. AS 1239 is Sprint), while stub ASes are
/// networks at the edges of the Internet such as commercial companies and
/// universities."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AsRole {
    /// Carries traffic between other ASes (appears mid-path).
    Transit,
    /// Edge network; only ever an endpoint of AS paths.
    Stub,
}

impl fmt::Display for AsRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AsRole::Transit => "transit",
            AsRole::Stub => "stub",
        })
    }
}

/// An undirected AS-level topology: nodes are ASes, links are BGP peering
/// sessions ("a link between two nodes represents a BGP peering connection",
/// §5.1).
///
/// # Example
///
/// ```
/// use as_topology::{AsGraph, AsRole};
/// use bgp_types::Asn;
///
/// let mut g = AsGraph::new();
/// g.add_as(Asn(1), AsRole::Transit);
/// g.add_as(Asn(2), AsRole::Stub);
/// g.add_link(Asn(1), Asn(2));
/// assert_eq!(g.degree(Asn(1)), 1);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AsGraph {
    nodes: BTreeMap<Asn, Node>,
}

/// One AS: its role and its peers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    role: AsRole,
    peers: BTreeSet<Asn>,
}

impl AsGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        AsGraph::default()
    }

    /// Adds an AS with the given role (no-op on the adjacency if it already
    /// exists; the role is updated).
    pub fn add_as(&mut self, asn: Asn, role: AsRole) {
        self.node_mut(asn).role = role;
    }

    /// Adds an undirected peering link, inserting missing endpoints as stubs.
    ///
    /// Self-loops are ignored: an AS does not peer with itself.
    pub fn add_link(&mut self, a: Asn, b: Asn) {
        if a == b {
            return;
        }
        self.node_mut(a).peers.insert(b);
        self.node_mut(b).peers.insert(a);
    }

    /// The node of `asn`, inserted as a stub if absent.
    fn node_mut(&mut self, asn: Asn) -> &mut Node {
        self.nodes.entry(asn).or_insert_with(|| Node {
            role: AsRole::Stub,
            peers: BTreeSet::new(),
        })
    }

    /// Removes a peering link if present.
    pub fn remove_link(&mut self, a: Asn, b: Asn) {
        if let Some(node) = self.nodes.get_mut(&a) {
            node.peers.remove(&b);
        }
        if let Some(node) = self.nodes.get_mut(&b) {
            node.peers.remove(&a);
        }
    }

    /// Removes an AS and all its links.
    pub fn remove_as(&mut self, asn: Asn) {
        if let Some(node) = self.nodes.remove(&asn) {
            for peer in node.peers {
                if let Some(back) = self.nodes.get_mut(&peer) {
                    back.peers.remove(&asn);
                }
            }
        }
    }

    /// Returns `true` if the AS is present.
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.nodes.contains_key(&asn)
    }

    /// Returns `true` if `a` and `b` peer.
    #[must_use]
    pub fn has_link(&self, a: Asn, b: Asn) -> bool {
        self.nodes.get(&a).is_some_and(|n| n.peers.contains(&b))
    }

    /// The peers of an AS (empty if absent).
    pub fn neighbors(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.nodes
            .get(&asn)
            .into_iter()
            .flat_map(|node| node.peers.iter().copied())
    }

    /// Number of peers of an AS.
    #[must_use]
    pub fn degree(&self, asn: Asn) -> usize {
        self.nodes.get(&asn).map_or(0, |n| n.peers.len())
    }

    /// Every AS with its degree, in ascending ASN order.
    pub(crate) fn degrees(&self) -> impl Iterator<Item = (Asn, usize)> + '_ {
        self.nodes.iter().map(|(&asn, n)| (asn, n.peers.len()))
    }

    /// The role of an AS, if present.
    #[must_use]
    pub fn role(&self, asn: Asn) -> Option<AsRole> {
        self.nodes.get(&asn).map(|n| n.role)
    }

    /// Reclassifies an existing AS. No-op if the AS is absent.
    pub fn set_role(&mut self, asn: Asn, role: AsRole) {
        if let Some(node) = self.nodes.get_mut(&asn) {
            node.role = role;
        }
    }

    /// Reclassifies every AS by its degree, in one walk.
    pub(crate) fn set_roles_by_degree(&mut self, role: impl Fn(usize) -> AsRole) {
        for node in self.nodes.values_mut() {
            node.role = role(node.peers.len());
        }
    }

    /// All ASes, in ascending ASN order.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.nodes.keys().copied()
    }

    /// ASes with a given role, in ascending ASN order.
    pub fn asns_with_role(&self, role: AsRole) -> impl Iterator<Item = Asn> + '_ {
        self.nodes
            .iter()
            .filter(move |(_, n)| n.role == role)
            .map(|(&asn, _)| asn)
    }

    /// All transit ASes.
    #[must_use]
    pub fn transit_asns(&self) -> Vec<Asn> {
        self.asns_with_role(AsRole::Transit).collect()
    }

    /// All stub ASes.
    #[must_use]
    pub fn stub_asns(&self) -> Vec<Asn> {
        self.asns_with_role(AsRole::Stub).collect()
    }

    /// Number of ASes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no ASes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of undirected links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.nodes.values().map(|n| n.peers.len()).sum::<usize>() / 2
    }

    /// All undirected links as `(low, high)` pairs, in deterministic order.
    #[must_use]
    pub fn links(&self) -> Vec<(Asn, Asn)> {
        let mut out = Vec::with_capacity(self.link_count());
        for (&a, node) in &self.nodes {
            out.extend(node.peers.range(a..).map(|&b| (a, b)));
        }
        out
    }

    /// The graph flattened into its dense node numbering: node `i` is the
    /// `i`-th smallest ASN, and its peers are one ascending CSR row. Built
    /// in one in-order walk; see [`GraphIndex`].
    #[must_use]
    pub fn index(&self) -> GraphIndex {
        GraphIndex::from_rows(
            self.nodes.len(),
            2 * self.link_count(),
            self.nodes
                .iter()
                .map(|(&asn, node)| (asn, node.peers.iter().copied())),
        )
    }

    /// Returns `true` if every AS can reach every other AS (the paper's final
    /// pipeline check: "we inspect the topology to make sure that it is a
    /// connected graph"). The empty graph is trivially connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.index().components().iter().all(|&c| c == 0)
    }

    /// Retains only the ASes in `keep` (and links among them).
    #[must_use]
    pub fn induced_subgraph(&self, keep: &BTreeSet<Asn>) -> AsGraph {
        let mut out = AsGraph::new();
        for &asn in keep {
            if let Some(node) = self.nodes.get(&asn) {
                let peers = node.peers.iter().filter(|p| keep.contains(p));
                let node = Node {
                    role: node.role,
                    peers: peers.copied().collect(),
                };
                out.nodes.insert(asn, node);
            }
        }
        out
    }
}

impl fmt::Display for AsGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AsGraph({} ASes, {} links, {} transit / {} stub)",
            self.len(),
            self.link_count(),
            self.transit_asns().len(),
            self.stub_asns().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u32) -> AsGraph {
        let mut g = AsGraph::new();
        for i in 1..=n {
            g.add_as(Asn(i), AsRole::Transit);
        }
        for i in 1..n {
            g.add_link(Asn(i), Asn(i + 1));
        }
        g
    }

    #[test]
    fn add_link_inserts_endpoints_as_stubs() {
        let mut g = AsGraph::new();
        g.add_link(Asn(1), Asn(2));
        assert_eq!(g.role(Asn(1)), Some(AsRole::Stub));
        assert!(g.has_link(Asn(2), Asn(1)));
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn add_as_then_link_keeps_role() {
        let mut g = AsGraph::new();
        g.add_as(Asn(1), AsRole::Transit);
        g.add_link(Asn(1), Asn(2));
        assert_eq!(g.role(Asn(1)), Some(AsRole::Transit));
        assert_eq!(g.role(Asn(2)), Some(AsRole::Stub));
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = AsGraph::new();
        g.add_link(Asn(1), Asn(1));
        assert_eq!(g.link_count(), 0);
        assert_eq!(g.degree(Asn(1)), 0);
    }

    #[test]
    fn remove_as_removes_back_edges() {
        let mut g = line(3);
        g.remove_as(Asn(2));
        assert!(!g.contains(Asn(2)));
        assert_eq!(g.degree(Asn(1)), 0);
        assert_eq!(g.degree(Asn(3)), 0);
        assert!(!g.is_connected());
    }

    #[test]
    fn remove_link_is_symmetric() {
        let mut g = line(2);
        g.remove_link(Asn(2), Asn(1));
        assert!(!g.has_link(Asn(1), Asn(2)));
        assert!(g.contains(Asn(1)));
    }

    #[test]
    fn connectivity() {
        assert!(AsGraph::new().is_connected());
        assert!(line(5).is_connected());
        let mut g = line(5);
        g.add_as(Asn(99), AsRole::Stub);
        assert!(!g.is_connected());
    }

    #[test]
    fn induced_subgraph_keeps_roles_and_internal_links() {
        let g = line(4);
        let keep: BTreeSet<Asn> = [Asn(1), Asn(2), Asn(4)].into_iter().collect();
        let sub = g.induced_subgraph(&keep);
        assert_eq!(sub.len(), 3);
        assert!(sub.has_link(Asn(1), Asn(2)));
        assert!(!sub.has_link(Asn(3), Asn(4)));
        assert_eq!(sub.role(Asn(4)), Some(AsRole::Transit));
    }

    #[test]
    fn links_are_deterministic_and_deduplicated() {
        let mut g = AsGraph::new();
        g.add_link(Asn(2), Asn(1));
        g.add_link(Asn(1), Asn(2));
        g.add_link(Asn(3), Asn(1));
        assert_eq!(g.links(), vec![(Asn(1), Asn(2)), (Asn(1), Asn(3))]);
    }

    #[test]
    fn role_queries() {
        let mut g = AsGraph::new();
        g.add_as(Asn(1), AsRole::Transit);
        g.add_as(Asn(2), AsRole::Stub);
        g.add_as(Asn(3), AsRole::Stub);
        assert_eq!(g.transit_asns(), vec![Asn(1)]);
        assert_eq!(g.stub_asns(), vec![Asn(2), Asn(3)]);
        g.set_role(Asn(2), AsRole::Transit);
        assert_eq!(g.transit_asns(), vec![Asn(1), Asn(2)]);
        g.set_role(Asn(42), AsRole::Transit); // absent: no-op
        assert!(!g.contains(Asn(42)));
    }

    #[test]
    fn display_summarizes() {
        let g = line(3);
        let s = g.to_string();
        assert!(s.contains("3 ASes"));
        assert!(s.contains("2 links"));
    }
}
