//! The dense node numbering of an AS graph, shared by every graph walk.

use bgp_types::Asn;

/// An [`AsGraph`](crate::AsGraph) flattened once into dense node numbers:
/// node `i` is the `i`-th smallest ASN, and the adjacency is a CSR layout
/// whose rows are ascending. This is the one numbering in the workspace:
/// [`Partition`](crate::Partition) assigns shards per node of it, and the
/// simulation engine builds its topology from it, so the two agree by
/// construction. Searches run on its arrays with `Vec` state.
///
/// # Example
///
/// ```
/// use as_topology::AsGraph;
/// use bgp_types::Asn;
///
/// let mut g = AsGraph::new();
/// g.add_link(Asn(10), Asn(20));
/// g.add_link(Asn(20), Asn(30));
/// let index = g.index();
/// assert_eq!(index.asns(), &[Asn(10), Asn(20), Asn(30)]);
/// assert_eq!(index.neighbors(1), &[0, 2]);
/// assert_eq!(index.index_of(Asn(30)), Some(2));
/// assert_eq!(index.distances(&[0]), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphIndex {
    nodes: NodeNumbering,
    /// Per node and one sentinel: the start of its row in `peers`.
    first: Vec<u32>,
    /// Per directed edge: the peer's node.
    peers: Vec<u32>,
}

/// The node half of a [`GraphIndex`]: node `i` is the `i`-th smallest ASN,
/// and [`index_of`](NodeNumbering::index_of) is the one ASN-to-node rule. A
/// holder that needs no adjacency keeps just this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeNumbering {
    /// Per node: its ASN, ascending.
    asns: Vec<Asn>,
    /// ASN to node (`u32::MAX` in a gap) when ASNs are dense enough for a
    /// table to pay; empty otherwise, and lookups binary-search `asns`.
    table: Vec<u32>,
}

impl NodeNumbering {
    /// Per node: its ASN, ascending.
    #[must_use]
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// The node of `asn`, or `None` if it is not in the graph: a table
    /// lookup when there is a table, else a binary search.
    #[must_use]
    pub fn index_of(&self, asn: Asn) -> Option<usize> {
        if self.table.is_empty() {
            self.asns.binary_search(&asn).ok()
        } else {
            let node = *self.table.get(asn.0 as usize)?;
            (node != u32::MAX).then_some(node as usize)
        }
    }
}

impl GraphIndex {
    /// What [`distances`](GraphIndex::distances) reports for a node no
    /// source reaches.
    pub const UNREACHED: u32 = u32::MAX;

    /// Builds the index from `n` rows of `(asn, ascending peers)` in
    /// ascending ASN order, holding `edges` directed edges in all.
    pub(crate) fn from_rows<P>(n: usize, edges: usize, rows: impl Iterator<Item = (Asn, P)>) -> Self
    where
        P: Iterator<Item = Asn>,
    {
        let edge_id = |e: usize| u32::try_from(e).expect("fewer than 2^32 directed edges");
        let mut asns = Vec::with_capacity(n);
        let mut first = Vec::with_capacity(n + 1);
        // Peers are collected as raw ASNs, then renumbered in place.
        let mut peers = Vec::with_capacity(edges);
        for (asn, row) in rows {
            asns.push(asn);
            first.push(edge_id(peers.len()));
            peers.extend(row.map(|peer| peer.0));
        }
        first.push(edge_id(peers.len()));
        debug_assert!(asns.windows(2).all(|w| w[0] < w[1]));
        // ASNs are dense as a rule; then a table replaces a binary search
        // per directed edge.
        let table = match asns.last() {
            Some(last) if (last.0 as usize) < 4 * asns.len() => {
                let mut table = vec![u32::MAX; last.0 as usize + 1];
                for (node, asn) in asns.iter().enumerate() {
                    table[asn.0 as usize] = node as u32;
                }
                table
            }
            _ => Vec::new(),
        };
        let nodes = NodeNumbering { asns, table };
        for peer in &mut peers {
            let node = nodes
                .index_of(Asn(*peer))
                .expect("links only name graph ASes");
            *peer = node as u32;
        }
        GraphIndex {
            nodes,
            first,
            peers,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.asns.len()
    }

    /// Returns `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.asns.is_empty()
    }

    /// Per node: its ASN, ascending.
    #[must_use]
    pub fn asns(&self) -> &[Asn] {
        self.nodes.asns()
    }

    /// Per node and one sentinel: where its row starts in
    /// [`peers`](GraphIndex::peers), so node `i`'s edges are
    /// `first[i]..first[i + 1]`.
    #[must_use]
    pub fn first(&self) -> &[u32] {
        &self.first
    }

    /// Per directed edge, in row order: the peer's node.
    #[must_use]
    pub fn peers(&self) -> &[u32] {
        &self.peers
    }

    /// Node `node`'s peers, ascending.
    #[must_use]
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.peers[self.first[node] as usize..self.first[node + 1] as usize]
    }

    /// The node of `asn`, or `None` if it is not in the graph.
    #[must_use]
    pub fn index_of(&self, asn: Asn) -> Option<usize> {
        self.nodes.index_of(asn)
    }

    /// Drops the adjacency, keeping the numbering.
    #[must_use]
    pub fn into_numbering(self) -> NodeNumbering {
        self.nodes
    }

    /// Connected components as one label per node, numbered from 0 in the
    /// order of their smallest node.
    #[must_use]
    pub fn components(&self) -> Vec<u32> {
        let mut label = vec![Self::UNREACHED; self.len()];
        let mut queue = Vec::new();
        let mut next = 0;
        for start in 0..self.len() {
            if label[start] == Self::UNREACHED {
                label[start] = next;
                queue.clear();
                queue.push(start as u32);
                self.flood(&mut queue, &mut label, |c| c);
                next += 1;
            }
        }
        label
    }

    /// Hop distance from the nearest of `sources` to every node
    /// ([`UNREACHED`](GraphIndex::UNREACHED) where none reaches).
    #[must_use]
    pub fn distances(&self, sources: &[usize]) -> Vec<u32> {
        let mut dist = vec![Self::UNREACHED; self.len()];
        let mut queue = Vec::with_capacity(self.len());
        for &source in sources {
            if dist[source] == Self::UNREACHED {
                dist[source] = 0;
                queue.push(source as u32);
            }
        }
        self.flood(&mut queue, &mut dist, |d| d + 1);
        dist
    }

    /// Breadth-first from the nodes in `queue`, each already labelled: every
    /// unlabelled node reached gets `step` of the label it was reached from.
    fn flood(&self, queue: &mut Vec<u32>, label: &mut [u32], step: impl Fn(u32) -> u32) {
        let mut head = 0;
        while let Some(&node) = queue.get(head) {
            head += 1;
            let next = step(label[node as usize]);
            for &peer in self.neighbors(node as usize) {
                if label[peer as usize] == Self::UNREACHED {
                    label[peer as usize] = next;
                    queue.push(peer);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::AsGraph;
    use bgp_types::Asn;

    #[test]
    fn sparse_asns_fall_back_to_search() {
        let mut g = AsGraph::new();
        g.add_link(Asn(7), Asn(4_000_000_000));
        let index = g.index();
        assert!(index.nodes.table.is_empty());
        assert_eq!(index.index_of(Asn(4_000_000_000)), Some(1));
        assert_eq!(index.index_of(Asn(8)), None);
        assert_eq!(index.neighbors(0), &[1]);
    }

    #[test]
    fn dense_asns_use_the_table_and_miss_gaps() {
        let mut g = AsGraph::new();
        g.add_link(Asn(1), Asn(3));
        let index = g.index();
        assert!(!index.nodes.table.is_empty());
        assert_eq!(index.index_of(Asn(3)), Some(1));
        assert_eq!(index.index_of(Asn(2)), None);
        assert_eq!(index.index_of(Asn(99)), None);
    }

    #[test]
    fn components_are_numbered_by_smallest_node() {
        let mut g = AsGraph::new();
        g.add_link(Asn(2), Asn(5));
        g.add_link(Asn(1), Asn(4));
        g.add_link(Asn(3), Asn(4));
        assert_eq!(g.index().components(), vec![0, 1, 0, 0, 1]);
        assert!(AsGraph::new().index().components().is_empty());
    }

    #[test]
    fn distances_take_the_nearest_source() {
        let mut g = AsGraph::new();
        for i in 1..6 {
            g.add_link(Asn(i), Asn(i + 1));
        }
        g.add_link(Asn(10), Asn(11));
        let u = super::GraphIndex::UNREACHED;
        assert_eq!(
            g.index().distances(&[0, 5, 0]),
            vec![0, 1, 2, 2, 1, 0, u, u]
        );
    }
}
