//! Partitioner invariants the engine's sharding rests on, over
//! generated topologies: every AS lands in exactly one shard, the balance cap
//! holds, and the cut is counted consistently from both sides.

use as_topology::{InternetModel, Partition};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitioner invariant: every AS lands in exactly one shard — the
    /// per-shard member lists are disjoint, cover the graph, and agree with
    /// `shard_of` and `assignment` — and the balance cap holds.
    #[test]
    fn every_as_lands_in_exactly_one_shard(
        seed in 0u64..4096,
        transit in 4usize..24,
        stubs in 10usize..160,
        shards in 1usize..9,
    ) {
        let graph = InternetModel::new()
            .transit_count(transit)
            .stub_count(stubs)
            .build(seed);
        let p = Partition::new(&graph, shards);

        prop_assert_eq!(p.assignment().len(), graph.len());
        let mut membership_total = 0;
        for shard in 0..p.shard_count() {
            for asn in p.members(shard) {
                prop_assert_eq!(
                    p.shard_of(asn),
                    Some(shard),
                    "{:?} listed in shard {} but shard_of disagrees",
                    asn,
                    shard
                );
            }
            membership_total += p.members(shard).len();
        }
        prop_assert_eq!(
            membership_total,
            graph.len(),
            "member lists must partition the graph"
        );
        for asn in graph.asns() {
            prop_assert!(p.shard_of(asn).is_some(), "{:?} has no shard", asn);
        }

        let cap = graph.len().div_ceil(shards);
        prop_assert!(
            p.shard_sizes().iter().all(|&s| s <= cap),
            "sizes {:?} exceed cap {}",
            p.shard_sizes(),
            cap
        );
    }

    /// Partitioner invariant: the cut-edge count is consistent no matter
    /// which side counts it — the undirected link census and the directed
    /// census summed over every node's neighbors (which sees each cut edge
    /// once from each endpoint) both agree with `cut_links()`.
    #[test]
    fn cut_edges_are_counted_consistently_from_both_sides(
        seed in 0u64..4096,
        transit in 4usize..24,
        stubs in 10usize..160,
        shards in 1usize..9,
    ) {
        let graph = InternetModel::new()
            .transit_count(transit)
            .stub_count(stubs)
            .build(seed);
        let p = Partition::new(&graph, shards);

        let undirected = graph
            .links()
            .iter()
            .filter(|&&(a, b)| p.shard_of(a) != p.shard_of(b))
            .count();
        prop_assert_eq!(p.cut_links(), undirected, "undirected census disagrees");

        let directed: usize = graph
            .asns()
            .map(|a| {
                graph
                    .neighbors(a)
                    .filter(|&b| p.shard_of(a) != p.shard_of(b))
                    .count()
            })
            .sum();
        prop_assert_eq!(
            directed,
            2 * p.cut_links(),
            "each endpoint must see the same cut edges"
        );
    }
}
