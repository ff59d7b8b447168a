//! Organizational annotations over an [`AsGraph`](crate::AsGraph): sibling-AS
//! pairs and anycast origin groups.
//!
//! Modern MOAS measurement (Sediqi et al. 2023) attributes most long-lived
//! legitimate conflicts to organizations that control several ASNs: sibling
//! registrations co-originating the same space, and anycast operators
//! announcing one prefix from many sites. The topology generators know
//! nothing about organizations, so this module layers a deterministic,
//! seeded assignment on top of a built graph; the ensemble workloads use it
//! to pick legitimate multi-origin casts.

use bgp_types::Asn;
use rand::Rng;

use crate::graph::AsGraph;

/// Seeded sibling/anycast assignment for one topology.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrgAnnotations {
    /// Disjoint sibling pairs, each sorted low-ASN-first.
    siblings: Vec<(Asn, Asn)>,
    /// Disjoint anycast groups, members sorted.
    anycast: Vec<Vec<Asn>>,
}

impl OrgAnnotations {
    /// Samples disjoint sibling pairs and anycast groups from the graph's
    /// stub ASes.
    ///
    /// `sibling_pairs` pairs and `anycast_groups` groups of `group_size`
    /// members are drawn without replacement; requests exceeding the stub
    /// population are truncated rather than failing, so small test graphs
    /// degrade gracefully. The same `(graph, seed)` always yields the same
    /// assignment.
    #[must_use]
    pub fn sample(
        graph: &AsGraph,
        sibling_pairs: usize,
        anycast_groups: usize,
        group_size: usize,
        seed: u64,
    ) -> Self {
        let stubs = graph.stub_asns();
        let group_size = group_size.max(2);
        let wanted = sibling_pairs * 2 + anycast_groups * group_size;
        let mut rng = bgp_types::rng::from_seed(seed);
        let picked = bgp_types::rng::sample_distinct(&mut rng, &stubs, wanted.min(stubs.len()));

        let mut annotations = OrgAnnotations::default();
        let mut cursor = picked.into_iter();
        for _ in 0..sibling_pairs {
            let (Some(a), Some(b)) = (cursor.next(), cursor.next()) else {
                break;
            };
            let pair = if a <= b { (a, b) } else { (b, a) };
            annotations.siblings.push(pair);
        }
        for _ in 0..anycast_groups {
            let mut group: Vec<Asn> = cursor.by_ref().take(group_size).collect();
            if group.len() < 2 {
                break;
            }
            group.sort_unstable();
            annotations.anycast.push(group);
        }
        // Consume the RNG no further: callers deriving more randomness from
        // the same seed stay independent of the group geometry.
        let _ = rng.gen::<u64>();
        annotations
    }

    /// The sibling pairs, low-ASN-first, in sampling order.
    #[must_use]
    pub fn sibling_pairs(&self) -> &[(Asn, Asn)] {
        &self.siblings
    }

    /// The anycast groups, members sorted, in sampling order.
    #[must_use]
    pub fn anycast_groups(&self) -> &[Vec<Asn>] {
        &self.anycast
    }

    /// Total annotated ASes.
    #[must_use]
    pub fn len(&self) -> usize {
        2 * self.siblings.len() + self.anycast.iter().map(Vec::len).sum::<usize>()
    }

    /// `true` when nothing was annotated (e.g. an all-transit graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.siblings.is_empty() && self.anycast.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::InternetModel;

    fn graph() -> AsGraph {
        InternetModel::new()
            .transit_count(8)
            .stub_count(40)
            .build(9)
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = graph();
        let a = OrgAnnotations::sample(&g, 4, 2, 3, 77);
        let b = OrgAnnotations::sample(&g, 4, 2, 3, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn pairs_and_groups_are_disjoint() {
        let g = graph();
        let ann = OrgAnnotations::sample(&g, 4, 2, 3, 77);
        assert_eq!(ann.sibling_pairs().len(), 4);
        assert_eq!(ann.anycast_groups().len(), 2);
        // 4*2 + 2*3 distinct members.
        assert_eq!(ann.len(), 14);
        assert!(!ann.is_empty());
        let mut members = std::collections::BTreeSet::new();
        for &(a, b) in ann.sibling_pairs() {
            assert!(a < b, "pairs are sorted low-ASN-first");
            members.extend([a, b]);
        }
        members.extend(ann.anycast_groups().iter().flatten().copied());
        assert_eq!(members.len(), ann.len());
    }

    #[test]
    fn oversubscription_truncates_instead_of_failing() {
        let g = InternetModel::new().transit_count(4).stub_count(6).build(3);
        let ann = OrgAnnotations::sample(&g, 10, 10, 5, 1);
        assert!(ann.len() <= 6);
    }
}
