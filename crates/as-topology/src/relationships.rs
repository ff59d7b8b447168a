//! AS business relationships and their inference from AS paths.
//!
//! BGP routing is policy routing: a link is either a customer-provider
//! relationship or a (settlement-free) peering, and the export rule — routes
//! learned from a peer or provider are only announced to customers — yields
//! the *valley-free* property of real AS paths. The paper's topologies
//! abstract this away (every link exchanges everything); this module supplies
//! the relationship model and Gao's classic degree-based inference so the
//! reproduction can also evaluate the MOAS mechanism under policy routing
//! (see the `valley_free` ablation).

use std::collections::BTreeMap;
use std::fmt;

use bgp_types::Asn;

use crate::{AsGraph, RouteTableEntry};

/// The kind of a peering link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// A transit (customer-provider) link; the payload is the **provider**.
    Transit {
        /// The provider side of the link.
        provider: Asn,
    },
    /// A settlement-free peer link.
    Peer,
}

/// How `other` relates to `this` across one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// `other` is a provider of `this`.
    Provider,
    /// `other` is a customer of `this`.
    Customer,
    /// `other` is a settlement-free peer of `this`.
    Peer,
}

impl fmt::Display for Relationship {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relationship::Provider => "provider",
            Relationship::Customer => "customer",
            Relationship::Peer => "peer",
        })
    }
}

/// The relationship annotation of every link in a topology.
///
/// # Example
///
/// ```
/// use as_topology::{AsRelationships, Relationship};
/// use bgp_types::Asn;
///
/// let mut rels = AsRelationships::new();
/// rels.add_transit(Asn(701), Asn(4));   // AS 701 provides transit to AS 4
/// rels.add_peer(Asn(701), Asn(1239));
///
/// assert_eq!(rels.relationship(Asn(4), Asn(701)), Some(Relationship::Provider));
/// assert_eq!(rels.relationship(Asn(701), Asn(4)), Some(Relationship::Customer));
/// assert_eq!(rels.relationship(Asn(701), Asn(1239)), Some(Relationship::Peer));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsRelationships {
    links: BTreeMap<(Asn, Asn), LinkKind>,
}

impl AsRelationships {
    /// Creates an empty relationship map.
    #[must_use]
    pub fn new() -> Self {
        AsRelationships::default()
    }

    fn key(a: Asn, b: Asn) -> (Asn, Asn) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Records a transit link: `provider` sells transit to `customer`.
    /// Replaces any previous annotation of the link.
    pub fn add_transit(&mut self, provider: Asn, customer: Asn) {
        self.links.insert(
            Self::key(provider, customer),
            LinkKind::Transit { provider },
        );
    }

    /// Records a settlement-free peering. Replaces any previous annotation.
    pub fn add_peer(&mut self, a: Asn, b: Asn) {
        self.links.insert(Self::key(a, b), LinkKind::Peer);
    }

    /// The kind of the link between `a` and `b`, if annotated.
    #[must_use]
    pub fn kind(&self, a: Asn, b: Asn) -> Option<LinkKind> {
        self.links.get(&Self::key(a, b)).copied()
    }

    /// How `other` relates to `this` (provider / customer / peer of `this`).
    #[must_use]
    pub fn relationship(&self, this: Asn, other: Asn) -> Option<Relationship> {
        match self.kind(this, other)? {
            LinkKind::Peer => Some(Relationship::Peer),
            LinkKind::Transit { provider } => Some(if provider == other {
                Relationship::Provider
            } else {
                Relationship::Customer
            }),
        }
    }

    /// Number of annotated links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` when no links are annotated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Iterates `(low, high, kind)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Asn, LinkKind)> + '_ {
        self.links.iter().map(|(&(a, b), &k)| (a, b, k))
    }
}

impl FromIterator<(Asn, Asn, LinkKind)> for AsRelationships {
    /// Annotates each `(a, b, kind)` in turn; a later annotation of a link
    /// replaces an earlier one.
    fn from_iter<I: IntoIterator<Item = (Asn, Asn, LinkKind)>>(iter: I) -> Self {
        let mut rels = AsRelationships::new();
        for (a, b, kind) in iter {
            rels.links.insert(Self::key(a, b), kind);
        }
        rels
    }
}

/// Infers relationships from routing-table paths with Gao's degree heuristic:
/// in each (valley-free) AS path the highest-degree AS is the top of the
/// hill; links on the vantage side of the top point *downhill* toward the
/// vantage (each AS nearer the vantage is the customer), links on the origin
/// side point downhill toward the origin. Links whose two endpoints have
/// comparable degree (within `peer_ratio`) and that sit adjacent to the top
/// are classified as peerings.
///
/// Votes are tallied across all paths; the majority annotation wins per link.
#[must_use]
pub fn infer_relationships(
    graph: &AsGraph,
    entries: &[RouteTableEntry],
    peer_ratio: f64,
) -> AsRelationships {
    // (low, high) -> (votes for "low is provider", votes for "high is
    // provider", votes for peer)
    let mut votes: BTreeMap<(Asn, Asn), (u32, u32, u32)> = BTreeMap::new();
    let degree = |asn: Asn| graph.degree(asn);

    for entry in entries {
        let hops: Vec<Asn> = entry.path.iter().collect();
        if hops.len() < 2 {
            continue;
        }
        let top = (0..hops.len())
            .max_by_key(|&i| (degree(hops[i]), std::cmp::Reverse(hops[i])))
            .unwrap_or(0);
        for i in 0..hops.len() - 1 {
            let (a, b) = (hops[i], hops[i + 1]);
            if a == b {
                continue;
            }
            let key = AsRelationships::key(a, b);
            let slot = votes.entry(key).or_insert((0, 0, 0));
            // Peering candidate: both ends adjacent to the top of the hill
            // with comparable degrees.
            let (da, db) = (degree(a) as f64, degree(b) as f64);
            let comparable = da.max(db) <= peer_ratio * da.min(db).max(1.0);
            let adjacent_to_top = i == top || i + 1 == top;
            if comparable && adjacent_to_top && da > 2.0 && db > 2.0 {
                slot.2 += 1;
                continue;
            }
            // Uphill toward the top from both directions.
            let provider = if i < top { b } else { a };
            if provider == key.0 {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
    }

    let mut out = AsRelationships::new();
    for ((low, high), (low_provider, high_provider, peer)) in votes {
        if peer > low_provider && peer > high_provider {
            out.add_peer(low, high);
        } else if low_provider >= high_provider {
            out.add_transit(low, high);
        } else {
            out.add_transit(high, low);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{infer_graph, InternetModel, RouteTable};

    #[test]
    fn relationship_lookup_both_directions() {
        let mut rels = AsRelationships::new();
        rels.add_transit(Asn(1), Asn(2));
        assert_eq!(
            rels.kind(Asn(2), Asn(1)),
            Some(LinkKind::Transit { provider: Asn(1) })
        );
        assert_eq!(
            rels.relationship(Asn(2), Asn(1)),
            Some(Relationship::Provider)
        );
        assert_eq!(
            rels.relationship(Asn(1), Asn(2)),
            Some(Relationship::Customer)
        );
        assert_eq!(rels.relationship(Asn(1), Asn(3)), None);
    }

    #[test]
    fn re_annotation_replaces() {
        let mut rels = AsRelationships::new();
        rels.add_transit(Asn(1), Asn(2));
        rels.add_peer(Asn(2), Asn(1));
        assert_eq!(rels.kind(Asn(1), Asn(2)), Some(LinkKind::Peer));
        assert_eq!(rels.len(), 1);
    }

    #[test]
    fn inference_recovers_most_ground_truth_transit_links() {
        let (truth_graph, truth_rels) = InternetModel::new()
            .transit_count(20)
            .stub_count(120)
            .build_with_relationships(5);
        let table = RouteTable::synthesize(&truth_graph, &[0, 5, 10, 15], 5);
        let observed = infer_graph(table.entries());
        let inferred = infer_relationships(&observed, table.entries(), 1.5);

        // Score only links the table actually revealed.
        let mut correct = 0usize;
        let mut total = 0usize;
        for (a, b, kind) in inferred.iter() {
            total += 1;
            if truth_rels.kind(a, b) == Some(kind) {
                correct += 1;
            }
        }
        assert!(total > 20, "inference produced too few links ({total})");
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.7, "accuracy {accuracy:.2} over {total} links");
    }

    #[test]
    fn iter_is_deterministic() {
        let mut rels = AsRelationships::new();
        rels.add_peer(Asn(5), Asn(2));
        rels.add_transit(Asn(1), Asn(9));
        let listed: Vec<_> = rels.iter().collect();
        assert_eq!(listed[0].0, Asn(1));
        assert_eq!(listed[1].0, Asn(2));
    }
}
