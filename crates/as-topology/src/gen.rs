//! Synthetic Internet-like ground-truth topology generation.

use std::cmp::Reverse;

use bgp_types::Asn;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::{AsGraph, AsRelationships, AsRole, LinkKind};

/// Builder for an Internet-like ground-truth AS topology.
///
/// The paper's robustness argument rests on the structural facts it cites
/// from Huston's analysis of the 2001 BGP table \[13\]: a small clique of
/// tier-1 providers, many regional transit ISPs hanging off them with
/// lateral peerings (the "richly interconnected mesh" of §1), and stub
/// networks at the edges, frequently multi-homed. This generator reproduces
/// that two-tier hierarchy:
///
/// * a near-clique **tier-1 core** (at most `TIER1_MAX` ASes);
/// * **regional transit** ASes, each with two uplinks into the existing
///   transit fabric plus lateral peer links to other regionals with
///   probability `PEER_LINK_PROB` (0.15);
/// * **stubs** attached mostly to regionals, dual-homed with probability
///   [`multihome_prob`](InternetModel::multihome_prob).
///
/// Transit ASes are numbered from 1 (tier-1 first), stubs after them, so
/// ASNs are dense and deterministic.
///
/// # Example
///
/// ```
/// use as_topology::InternetModel;
///
/// let g = InternetModel::new()
///     .transit_count(15)
///     .stub_count(60)
///     .multihome_prob(0.4)
///     .build(7);
/// assert_eq!(g.len(), 75);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct InternetModel {
    transit_count: usize,
    stub_count: usize,
    multihome_prob: f64,
}

/// Maximum size of the tier-1 clique; the remaining transit ASes are
/// regional ISPs.
pub const TIER1_MAX: usize = 5;

/// Probability of a lateral peer link between each pair of regional transit
/// ASes: the interconnectivity the detection scheme leans on (§4.1).
const PEER_LINK_PROB: f64 = 0.15;

impl Default for InternetModel {
    fn default() -> Self {
        InternetModel {
            transit_count: 35,
            stub_count: 220,
            multihome_prob: 0.8,
        }
    }
}

impl InternetModel {
    /// Creates a builder with defaults sized and wired like a small
    /// Route Views-derived study (35 transit ASes — 5 tier-1 plus 30
    /// regionals — and 220 stubs, heavily multi-homed as 2001 edge networks
    /// were).
    #[must_use]
    pub fn new() -> Self {
        InternetModel::default()
    }

    /// Total number of transit ASes (tier-1 plus regional). Values below 1
    /// are clamped to 1 at build time.
    #[must_use]
    pub fn transit_count(mut self, n: usize) -> Self {
        self.transit_count = n;
        self
    }

    /// Number of stub (edge) ASes.
    #[must_use]
    pub fn stub_count(mut self, n: usize) -> Self {
        self.stub_count = n;
        self
    }

    /// Probability that a stub is dual-homed to two providers.
    #[must_use]
    pub fn multihome_prob(mut self, p: f64) -> Self {
        self.multihome_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Generates the ground-truth graph from a seed. The result is always
    /// connected.
    #[must_use]
    pub fn build(&self, seed: u64) -> AsGraph {
        self.build_with_relationships(seed).0
    }

    /// Like [`InternetModel::build`], but also returns the ground-truth
    /// business relationships: uplinks are customer-provider links, tier-1
    /// interconnects and regional lateral links are peerings. Used by the
    /// valley-free policy-routing ablation and as the reference for scoring
    /// [`infer_relationships`](crate::infer_relationships).
    #[must_use]
    pub fn build_with_relationships(&self, seed: u64) -> (AsGraph, AsRelationships) {
        let transit_count = self.transit_count.max(1);
        let tier1_count = transit_count.min(TIER1_MAX);
        let mut rng = bgp_types::rng::from_seed(seed);
        let mut graph = AsGraph::new();
        let mut rels = AsRelationships::new();

        // Tier-1 core: a chain guarantees connectivity, then a near-clique.
        // Tier-1s interconnect as settlement-free peers.
        let tier1: Vec<Asn> = (1..=tier1_count as u32).map(Asn).collect();
        for &asn in &tier1 {
            graph.add_as(asn, AsRole::Transit);
        }
        for i in 1..tier1.len() {
            graph.add_link(tier1[i - 1], tier1[i]);
            rels.add_peer(tier1[i - 1], tier1[i]);
        }
        for i in 0..tier1.len() {
            for j in (i + 2)..tier1.len() {
                if rng.gen::<f64>() < 0.9 {
                    graph.add_link(tier1[i], tier1[j]);
                    rels.add_peer(tier1[i], tier1[j]);
                }
            }
        }

        // Regional transits: two uplinks into the existing fabric, plus
        // lateral peerings.
        let mut transit: Vec<Asn> = tier1.clone();
        let mut regionals: Vec<Asn> = Vec::new();
        for k in 0..transit_count - tier1_count {
            let asn = Asn((tier1_count + 1 + k) as u32);
            graph.add_as(asn, AsRole::Transit);
            let mut uplinks = transit.clone();
            uplinks.shuffle(&mut rng);
            graph.add_link(asn, uplinks[0]);
            rels.add_transit(uplinks[0], asn);
            if uplinks.len() > 1 {
                graph.add_link(asn, uplinks[1]);
                rels.add_transit(uplinks[1], asn);
            }
            for &other in &regionals {
                if rng.gen::<f64>() < PEER_LINK_PROB {
                    graph.add_link(asn, other);
                    rels.add_peer(asn, other);
                }
            }
            transit.push(asn);
            regionals.push(asn);
        }

        // Stubs: mostly customers of regionals, dual-homed per the model.
        for i in 0..self.stub_count {
            let asn = Asn((transit_count + 1 + i) as u32);
            graph.add_as(asn, AsRole::Stub);
            let pool: &[Asn] = if !regionals.is_empty() && rng.gen::<f64>() < 0.85 {
                &regionals
            } else {
                &tier1
            };
            let first = pool[rng.gen_range(0..pool.len())];
            graph.add_link(asn, first);
            rels.add_transit(first, asn);
            if transit.len() > 1 && bgp_types::rng::coin(&mut rng, self.multihome_prob) {
                let second = loop {
                    let candidate = transit[rng.gen_range(0..transit.len())];
                    if candidate != first {
                        break candidate;
                    }
                };
                graph.add_link(asn, second);
                rels.add_transit(second, asn);
            }
        }

        debug_assert!(graph.is_connected());
        (graph, rels)
    }
}

/// Builder for an Internet-scale, power-law AS topology.
///
/// [`InternetModel`] reproduces the paper's small two-tier studies;
/// `ScaleFreeModel` targets the real 2026 Internet's scale (~70k active
/// ASes) with the degree distribution actually measured on it: a heavy
/// power-law tail grown by preferential attachment (Barabási–Albert). Each
/// new AS attaches `ATTACH_LINKS` (2) uplinks to existing ASes chosen
/// proportionally to their degree; attachment links are annotated as
/// customer-provider relationships (the existing, higher-degree AS is the
/// provider), and `PEER_LINKS` (700) lateral peerings are added among the
/// highest-degree hubs, mirroring the tier-1/IXP mesh.
///
/// The result is connected by construction, deterministic per seed, and
/// ASNs are dense (`1..=as_count`). ASes whose final degree reaches
/// `TRANSIT_DEGREE` (8) are classified transit, the rest stubs.
///
/// # Example
///
/// ```
/// use as_topology::ScaleFreeModel;
///
/// let g = ScaleFreeModel::new().as_count(500).build(7);
/// assert_eq!(g.len(), 500);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct ScaleFreeModel {
    as_count: usize,
}

/// Uplinks each newly attached AS creates (the Barabási–Albert `m`): the
/// measured mean AS degree is ≈4, i.e. ≈2 links per node.
const ATTACH_LINKS: usize = 2;

/// Lateral peer links added among the highest-degree ASes after attachment.
const PEER_LINKS: usize = 700;

/// Final degree at or above which a scale-free AS is classified transit.
const TRANSIT_DEGREE: usize = 8;

impl Default for ScaleFreeModel {
    fn default() -> Self {
        ScaleFreeModel { as_count: 70_000 }
    }
}

impl ScaleFreeModel {
    /// Creates a builder sized like today's Internet: 70k ASes, with one
    /// lateral hub peering per hundred ASes.
    #[must_use]
    pub fn new() -> Self {
        ScaleFreeModel::default()
    }

    /// Total number of ASes. Values below 2 are clamped to 2 at build time.
    #[must_use]
    pub fn as_count(mut self, n: usize) -> Self {
        self.as_count = n;
        self
    }

    /// Generates the graph from a seed. The result is always connected.
    #[must_use]
    pub fn build(&self, seed: u64) -> AsGraph {
        self.generate(seed, |_, _, _| {})
    }

    /// Like [`ScaleFreeModel::build`], but also returns the ground-truth
    /// business relationships: attachment links are customer-provider (the
    /// attached-to AS provides), hub laterals are settlement-free peerings.
    #[must_use]
    pub fn build_with_relationships(&self, seed: u64) -> (AsGraph, AsRelationships) {
        let mut links = Vec::new();
        let graph = self.generate(seed, |a, b, kind| links.push((a, b, kind)));
        (graph, links.into_iter().collect())
    }

    /// The graph; `annotate` sees every link with its kind, in the order
    /// the links are added.
    fn generate(&self, seed: u64, mut annotate: impl FnMut(Asn, Asn, LinkKind)) -> AsGraph {
        let n = self.as_count.max(2);
        let m = ATTACH_LINKS.min(n - 1);
        let mut rng = bgp_types::rng::from_seed(seed);
        let mut graph = AsGraph::new();
        let mut link = |graph: &mut AsGraph, a: Asn, b: Asn, kind: LinkKind| {
            graph.add_link(a, b);
            annotate(a, b, kind);
        };

        // Seed clique of m + 1 ASes, mutually peered: gives the first
        // attachments something to hold onto and guarantees connectivity.
        let core = m + 1;
        for i in 1..=core as u32 {
            graph.add_as(Asn(i), AsRole::Transit);
        }
        // Every link pushes both endpoints; sampling an index uniformly from
        // `endpoints` is then exactly degree-proportional sampling.
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * (core * m + (n - core) * m));
        for i in 1..=core as u32 {
            for j in (i + 1)..=core as u32 {
                link(&mut graph, Asn(i), Asn(j), LinkKind::Peer);
                endpoints.push(i);
                endpoints.push(j);
            }
        }

        let mut targets: Vec<u32> = Vec::with_capacity(m);
        for new in (core + 1)..=n {
            let new = new as u32;
            graph.add_as(Asn(new), AsRole::Stub);
            targets.clear();
            let mut attempts = 0usize;
            while targets.len() < m {
                let candidate = endpoints[rng.gen_range(0..endpoints.len())];
                attempts += 1;
                if targets.contains(&candidate) {
                    // Extremely skewed small graphs can keep re-drawing the
                    // same hub; fall back to the lowest unused ASN so the
                    // loop always terminates (still deterministic).
                    if attempts > 16 * m {
                        let fallback = (1..new).find(|c| !targets.contains(c)).unwrap_or(candidate);
                        targets.push(fallback);
                    }
                    continue;
                }
                targets.push(candidate);
            }
            for &provider in &targets {
                let kind = LinkKind::Transit {
                    provider: Asn(provider),
                };
                link(&mut graph, Asn(provider), Asn(new), kind);
                endpoints.push(provider);
                endpoints.push(new);
            }
        }

        // Lateral peerings among the hubs: rank by degree (ties toward the
        // lower ASN) and wire random pairs inside the top slice.
        let mut by_degree: Vec<(Reverse<usize>, Asn)> =
            graph.degrees().map(|(asn, d)| (Reverse(d), asn)).collect();
        by_degree.sort_unstable();
        let hubs = &by_degree[..by_degree.len().min((n / 50).max(8))];
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < PEER_LINKS && attempts < PEER_LINKS * 20 {
            attempts += 1;
            let a = hubs[rng.gen_range(0..hubs.len())].1;
            let b = hubs[rng.gen_range(0..hubs.len())].1;
            if a == b || graph.has_link(a, b) {
                continue;
            }
            link(&mut graph, a, b, LinkKind::Peer);
            added += 1;
        }

        graph.set_roles_by_degree(|d| {
            if d >= TRANSIT_DEGREE {
                AsRole::Transit
            } else {
                AsRole::Stub
            }
        });
        debug_assert!(graph.is_connected());
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let m = InternetModel::new().transit_count(10).stub_count(50);
        assert_eq!(m.build(5), m.build(5));
    }

    #[test]
    fn different_seeds_differ() {
        let m = InternetModel::new().transit_count(10).stub_count(50);
        assert_ne!(m.build(5), m.build(6));
    }

    #[test]
    fn counts_and_roles() {
        let g = InternetModel::new()
            .transit_count(12)
            .stub_count(34)
            .build(1);
        assert_eq!(g.transit_asns().len(), 12);
        assert_eq!(g.stub_asns().len(), 34);
        assert_eq!(g.len(), 46);
    }

    #[test]
    fn always_connected() {
        for seed in 0..10 {
            let g = InternetModel::new()
                .transit_count(8)
                .stub_count(40)
                .build(seed);
            assert!(g.is_connected(), "seed {seed} produced disconnected graph");
        }
    }

    #[test]
    fn stubs_attach_only_to_transit() {
        let g = InternetModel::new()
            .transit_count(6)
            .stub_count(30)
            .build(2);
        for stub in g.stub_asns() {
            for peer in g.neighbors(stub) {
                assert_eq!(g.role(peer), Some(AsRole::Transit));
            }
            let d = g.degree(stub);
            assert!((1..=2).contains(&d), "stub degree {d}");
        }
    }

    #[test]
    fn multihoming_fraction_tracks_probability() {
        let g = InternetModel::new()
            .transit_count(10)
            .stub_count(400)
            .multihome_prob(0.5)
            .build(3);
        let dual = g.stub_asns().iter().filter(|&&s| g.degree(s) == 2).count();
        assert!((120..=280).contains(&dual), "dual-homed = {dual}");
    }

    #[test]
    fn zero_multihome_prob_gives_single_homing() {
        let g = InternetModel::new()
            .transit_count(5)
            .stub_count(50)
            .multihome_prob(0.0)
            .build(4);
        assert!(g.stub_asns().iter().all(|&s| g.degree(s) == 1));
    }

    #[test]
    fn single_transit_degenerate_case() {
        let g = InternetModel::new()
            .transit_count(1)
            .stub_count(10)
            .build(1);
        assert!(g.is_connected());
        assert_eq!(g.transit_asns().len(), 1);
    }

    #[test]
    fn peer_links_enrich_the_regional_mesh() {
        let g = InternetModel::new()
            .transit_count(25)
            .stub_count(0)
            .build(7);
        // Beyond the tier-1 core (at most 10 links) and two uplinks per
        // regional, lateral peerings appear among the 20 regionals.
        let backbone = 10 + 2 * (25 - TIER1_MAX);
        assert!(g.link_count() > backbone, "{} links", g.link_count());
    }

    #[test]
    fn tier1_forms_a_connected_core() {
        let g = InternetModel::new().transit_count(5).stub_count(0).build(9);
        assert!(g.is_connected());
        // 5 transits and at most TIER1_MAX tier-1s: all are tier-1; chain
        // plus near-clique gives at least n-1 links.
        assert!(g.link_count() >= 4);
    }

    #[test]
    fn scale_free_build_is_deterministic() {
        let m = ScaleFreeModel::new().as_count(800);
        assert_eq!(m.build(5), m.build(5));
        assert_ne!(m.build(5), m.build(6));
    }

    #[test]
    fn scale_free_is_connected_and_dense_numbered() {
        let g = ScaleFreeModel::new().as_count(1000).build(3);
        assert_eq!(g.len(), 1000);
        assert!(g.is_connected());
        let asns: Vec<Asn> = g.asns().collect();
        assert_eq!(asns.first(), Some(&Asn(1)));
        assert_eq!(asns.last(), Some(&Asn(1000)));
    }

    #[test]
    fn scale_free_has_power_law_tail() {
        // Preferential attachment must produce hubs far above the mean
        // degree, and most nodes at the minimum.
        let g = ScaleFreeModel::new().as_count(2000).build(1);
        let max_degree = g.asns().map(|a| g.degree(a)).max().unwrap();
        let at_minimum = g.asns().filter(|&a| g.degree(a) <= 3).count();
        assert!(max_degree > 50, "max degree {max_degree}");
        assert!(at_minimum > 1000, "nodes at tail {at_minimum}");
    }

    #[test]
    fn scale_free_relationships_cover_every_link() {
        let (g, rels) = ScaleFreeModel::new()
            .as_count(400)
            .build_with_relationships(2);
        for (a, b) in g.links() {
            assert!(rels.kind(a, b).is_some(), "unannotated link {a}-{b}");
        }
        // Attachment links dominate and are customer-provider.
        let transit_links = rels
            .iter()
            .filter(|(_, _, k)| matches!(k, crate::LinkKind::Transit { .. }))
            .count();
        assert!(transit_links >= 400 - 3);
    }

    #[test]
    fn scale_free_roles_follow_degree() {
        let g = ScaleFreeModel::new().as_count(600).build(4);
        for asn in g.asns() {
            let expected = if g.degree(asn) >= TRANSIT_DEGREE {
                AsRole::Transit
            } else {
                AsRole::Stub
            };
            assert_eq!(g.role(asn), Some(expected));
        }
        assert!(!g.transit_asns().is_empty());
        assert!(!g.stub_asns().is_empty());
    }

    #[test]
    fn scale_free_peer_links_enrich_the_hub_mesh() {
        let g = ScaleFreeModel::new().as_count(500).build(7);
        // The seed clique and the attachments make 3 + 2 * 497 links; the
        // hub laterals come on top.
        let attachment = 3 + ATTACH_LINKS * (500 - 3);
        assert!(g.link_count() > attachment, "{} links", g.link_count());
    }

    #[test]
    fn scale_free_tiny_counts_are_clamped() {
        let g = ScaleFreeModel::new().as_count(0).build(1);
        assert_eq!(g.len(), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn regional_uplinks_give_min_degree_two() {
        let g = InternetModel::new()
            .transit_count(20)
            .stub_count(0)
            .build(11);
        // Every regional has two uplinks, lateral peerings aside.
        for asn in g.transit_asns().iter().skip(TIER1_MAX) {
            assert!(g.degree(*asn) >= 2, "{asn} degree {}", g.degree(*asn));
        }
    }
}
