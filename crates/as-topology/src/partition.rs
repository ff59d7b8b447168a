//! Balanced edge-cut graph partitioning for the sharded simulation engine.
//!
//! The distributed-BGP-simulation feasibility study (Coudert et al., see
//! PAPERS.md) observes that the two quantities governing parallel simulation
//! efficiency are the **cut size** (cross-partition links, each of which
//! turns an intra-shard event into a cross-shard message) and **load
//! balance** (the largest partition bounds the critical path). This module
//! implements linear deterministic greedy (LDG), the one-pass streaming
//! partitioner that trades the two directly: nodes are placed in descending
//! degree order, each onto the shard holding most of its already-placed
//! neighbors, weighted by the room that shard has left under a hard balance
//! cap.
//!
//! Everything here is deterministic — node order, tie-breaks, and shard
//! choice depend only on the graph — so a partition is a pure function of
//! `(graph, shard_count)` and sharded simulation results are reproducible.

use std::cmp::Reverse;

use crate::{AsGraph, GraphIndex};

/// A deterministic assignment of every AS to exactly one shard, per node of
/// the graph's [`GraphIndex`].
///
/// # Example
///
/// ```
/// use as_topology::{InternetModel, Partition};
///
/// let g = InternetModel::new().transit_count(10).stub_count(40).build(1);
/// let p = Partition::new(&g, 4);
/// assert_eq!(p.shard_count(), 4);
/// assert_eq!(p.shard_sizes().iter().sum::<usize>(), g.len());
/// // Balance cap: no shard exceeds ceil(n / k).
/// assert!(p.shard_sizes().iter().all(|&s| s <= g.len().div_ceil(4)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Per node of the [`GraphIndex`]: the shard holding that AS.
    assignment: Vec<u32>,
    shard_count: usize,
    /// Undirected links whose endpoints landed on different shards.
    cut_links: usize,
}

impl Partition {
    /// Partitions `graph` into `shards` balanced parts: [`Partition::of`]
    /// its index.
    #[must_use]
    pub fn new(graph: &AsGraph, shards: usize) -> Self {
        Partition::of(&graph.index(), shards)
    }

    /// Partitions an indexed graph into `shards` balanced parts (values
    /// below 1 are clamped to 1).
    ///
    /// Linear deterministic greedy: nodes in descending degree order (ties
    /// toward the lower ASN) go to the shard with the highest score among
    /// those still under the cap `ceil(n / shards)`, where a shard scores
    /// its count of the node's placed neighbors times the room it has left,
    /// `cap - size`. Score ties break toward the emptier shard, then the
    /// lower shard id. High-degree hubs therefore spread over the shards
    /// instead of filling the first one, and the long tail of stubs sticks
    /// to whichever shard owns their provider — exactly the locality a
    /// customer-provider hierarchy offers. (Counting neighbors alone sends
    /// every hub to one shard until it is full, and then every stub with a
    /// provider there to the other shards: on a 70,000-AS scale-free graph
    /// that cut half its links at 2 shards, as many as a random split.)
    #[must_use]
    pub fn of(index: &GraphIndex, shards: usize) -> Self {
        let shards = shards.max(1);
        let n = index.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (Reverse(index.neighbors(i).len()), i));

        let cap = if n == 0 { 1 } else { n.div_ceil(shards) };
        let mut assignment = vec![u32::MAX; n];
        let mut sizes = vec![0usize; shards];
        let mut score = vec![0usize; shards];
        for &i in &order {
            score.fill(0);
            for &j in index.neighbors(i) {
                let s = assignment[j as usize];
                if s != u32::MAX {
                    score[s as usize] += 1;
                }
            }
            // The lowest id among the best (score, emptiness): `max_by_key`
            // keeps the last maximum, so walk the shards from the top.
            let open = (0..shards).rev().filter(|&s| sizes[s] < cap);
            let chosen = open.max_by_key(|&s| (score[s] * (cap - sizes[s]), Reverse(sizes[s])));
            let s = chosen.expect("cap * shards >= n, so a shard has room");
            assignment[i] = s as u32;
            sizes[s] += 1;
        }

        let cut_links = (0..n)
            .flat_map(|i| index.neighbors(i).iter().map(move |&j| (i, j as usize)))
            .filter(|&(i, j)| j > i && assignment[i] != assignment[j])
            .count();

        Partition {
            assignment,
            shard_count: shards,
            cut_links,
        }
    }

    /// Number of shards (always ≥ 1).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Per node of the [`GraphIndex`] (ascending ASN order): the assigned
    /// shard.
    #[must_use]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of ASes per shard.
    #[must_use]
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shard_count];
        for &s in &self.assignment {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Undirected links whose endpoints sit on different shards — each one
    /// costs a cross-shard message exchange per update that traverses it.
    #[must_use]
    pub fn cut_links(&self) -> usize {
        self.cut_links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsRole, InternetModel};
    use bgp_types::Asn;

    fn sample() -> AsGraph {
        InternetModel::new()
            .transit_count(12)
            .stub_count(60)
            .build(3)
    }

    #[test]
    fn every_as_lands_in_exactly_one_shard() {
        let g = sample();
        let p = Partition::new(&g, 4);
        assert_eq!(p.assignment().len(), g.len());
        assert!(p.assignment().iter().all(|&s| (s as usize) < 4));
        assert_eq!(p.shard_sizes().iter().sum::<usize>(), g.len());
    }

    #[test]
    fn balance_cap_holds() {
        let g = sample();
        for shards in [1, 2, 3, 4, 7] {
            let p = Partition::new(&g, shards);
            let cap = g.len().div_ceil(shards);
            assert!(
                p.shard_sizes().iter().all(|&s| s <= cap),
                "shards={shards} sizes={:?} cap={cap}",
                p.shard_sizes()
            );
        }
    }

    #[test]
    fn single_shard_has_no_cut() {
        let g = sample();
        let p = Partition::new(&g, 1);
        assert_eq!(p.cut_links(), 0);
        assert_eq!(p.shard_sizes(), vec![g.len()]);
    }

    #[test]
    fn partition_is_deterministic() {
        let g = sample();
        assert_eq!(Partition::new(&g, 4), Partition::new(&g, 4));
    }

    #[test]
    fn cut_count_matches_link_census() {
        let g = sample();
        let p = Partition::new(&g, 3);
        let index = g.index();
        let shard = |asn| p.assignment()[index.index_of(asn).unwrap()];
        let by_links = g
            .links()
            .iter()
            .filter(|&&(a, b)| shard(a) != shard(b))
            .count();
        assert_eq!(p.cut_links(), by_links);
    }

    #[test]
    fn greedy_beats_round_robin_on_cut_size() {
        // The locality heuristic must do meaningfully better than ignoring
        // the adjacency entirely.
        let g = InternetModel::new()
            .transit_count(20)
            .stub_count(200)
            .build(9);
        let p = Partition::new(&g, 4);
        let asns: Vec<_> = g.asns().collect();
        let round_robin_cut = g
            .links()
            .iter()
            .filter(|&&(a, b)| {
                let ia = asns.binary_search(&a).unwrap();
                let ib = asns.binary_search(&b).unwrap();
                ia % 4 != ib % 4
            })
            .count();
        assert!(
            p.cut_links() < round_robin_cut,
            "greedy {} !< round-robin {round_robin_cut}",
            p.cut_links()
        );
    }

    #[test]
    fn more_shards_than_nodes_is_fine() {
        let mut g = AsGraph::new();
        g.add_as(Asn(1), AsRole::Stub);
        g.add_as(Asn(2), AsRole::Stub);
        g.add_link(Asn(1), Asn(2));
        let p = Partition::new(&g, 8);
        assert_eq!(p.shard_sizes().iter().sum::<usize>(), 2);
        assert_eq!(p.assignment().len(), 2);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let g = sample();
        let p = Partition::new(&g, 0);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.cut_links(), 0);
    }

    #[test]
    fn empty_graph() {
        let p = Partition::new(&AsGraph::new(), 3);
        assert_eq!(p.shard_sizes(), vec![0, 0, 0]);
        assert_eq!(p.cut_links(), 0);
    }
}
