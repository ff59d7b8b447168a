//! The canonical experiment topologies of §5.1.
//!
//! The paper runs its three experiments on AS-level topologies of exactly
//! 25, 46 and 63 nodes, each derived from a Route Views table by the §5.1
//! pipeline. This module reconstructs equivalents deterministically: a fixed
//! synthetic Internet stands in for the 2001 table (see the crate docs for
//! the substitution argument), and the pipeline is run over a deterministic
//! grid of sampling parameters until it yields a connected topology of the
//! exact target size.
//!
//! The topologies are computed once and cached for the process lifetime.

use std::sync::OnceLock;

use crate::{derive, infer_graph, AsGraph, InternetModel, RouteTable};

/// The three topology sizes used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PaperTopology {
    /// The 25-AS topology (Figure 8a).
    As25,
    /// The 46-AS topology (Experiment 1, Figure 9).
    As46,
    /// The 63-AS topology (Figure 8b).
    As63,
}

impl PaperTopology {
    /// All three sizes, smallest first.
    pub const ALL: [PaperTopology; 3] = [
        PaperTopology::As25,
        PaperTopology::As46,
        PaperTopology::As63,
    ];

    /// The node count of this topology.
    #[must_use]
    pub fn size(self) -> usize {
        match self {
            PaperTopology::As25 => 25,
            PaperTopology::As46 => 46,
            PaperTopology::As63 => 63,
        }
    }

    /// The derived topology, exactly [`size`](PaperTopology::size) connected
    /// ASes. All three are found in one shared grid search on first use and
    /// cached for the process lifetime.
    #[must_use]
    pub fn graph(self) -> &'static AsGraph {
        static CACHE: OnceLock<[AsGraph; 3]> = OnceLock::new();
        let all = CACHE.get_or_init(derive_all_exact);
        match self {
            PaperTopology::As25 => &all[0],
            PaperTopology::As46 => &all[1],
            PaperTopology::As63 => &all[2],
        }
    }
}

impl std::fmt::Display for PaperTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-AS", self.size())
    }
}

/// The fixed master seed anchoring the synthetic Route Views stand-in.
const BASE_SEED: u64 = 0x4d4f_4153; // "MOAS"

/// The inferred graph standing in for the 2001 Route Views table, shared by
/// all three derivations (the paper likewise derives all sizes from one
/// table).
fn source_graph() -> &'static AsGraph {
    static CACHE: OnceLock<AsGraph> = OnceLock::new();
    CACHE.get_or_init(|| {
        let truth = InternetModel::new()
            .transit_count(35)
            .stub_count(220)
            .multihome_prob(0.8)
            .build(BASE_SEED);
        let table = RouteTable::synthesize(&truth, &[0, 7, 14, 21], BASE_SEED);
        infer_graph(table.entries())
    })
}

/// Runs the §5.1 pipeline over a deterministic grid of (fraction, seed)
/// pairs, collecting the first 25-, 46- and 63-node connected topologies it
/// encounters. One pass serves all three targets, so the search cost is paid
/// once per process.
///
/// # Panics
///
/// Panics if the grid is exhausted before all three sizes appear — which
/// would indicate a change to the generator or pipeline; the integration
/// tests pin all three sizes.
fn derive_all_exact() -> [AsGraph; 3] {
    let source = source_graph();
    let mut found: [Option<AsGraph>; 3] = [None, None, None];
    let targets = [25usize, 46, 63];
    'search: for seed_block in 0..40u64 {
        for pct in (2..=60).map(|p| p as f64 / 100.0) {
            for seed in (seed_block * 10)..(seed_block * 10 + 10) {
                let seed =
                    bgp_types::rng::derive_seed(BASE_SEED, seed * 1000 + (pct * 100.0) as u64);
                let Ok(g) = derive(source, pct, seed) else {
                    continue;
                };
                if let Some(slot) = targets.iter().position(|&t| t == g.len()) {
                    if found[slot].is_none() && g.is_connected() {
                        found[slot] = Some(g);
                        if found.iter().all(Option::is_some) {
                            break 'search;
                        }
                    }
                }
            }
        }
    }
    found.map(|g| g.expect("grid search exhausted before finding all paper topology sizes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphMetrics;

    #[test]
    fn sizes_are_exact() {
        for t in PaperTopology::ALL {
            assert_eq!(t.graph().len(), t.size(), "{t}");
        }
    }

    #[test]
    fn all_connected() {
        for t in PaperTopology::ALL {
            assert!(t.graph().is_connected(), "{t}");
        }
    }

    #[test]
    fn each_has_both_roles() {
        for t in PaperTopology::ALL {
            let g = t.graph();
            assert!(!g.transit_asns().is_empty(), "{t} has no transit ASes");
            assert!(!g.stub_asns().is_empty(), "{t} has no stub ASes");
        }
    }

    #[test]
    fn graphs_are_cached() {
        let a = PaperTopology::As25.graph() as *const AsGraph;
        let b = PaperTopology::As25.graph() as *const AsGraph;
        assert_eq!(a, b);
    }

    #[test]
    fn larger_topologies_are_richer() {
        let m25 = GraphMetrics::compute(PaperTopology::As25.graph());
        let m63 = GraphMetrics::compute(PaperTopology::As63.graph());
        assert!(m63.link_count > m25.link_count);
    }

    #[test]
    fn display_names() {
        assert_eq!(PaperTopology::As46.to_string(), "46-AS");
    }
}
