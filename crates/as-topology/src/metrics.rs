//! Structural metrics of AS topologies.

use std::fmt;

use crate::{AsGraph, GraphIndex};

/// Summary statistics of an AS graph.
///
/// The paper attributes the MOAS scheme's robustness to rich
/// interconnectivity ("ASes are more richly connected in the larger
/// topology", §5.3); these metrics quantify that claim for any topology used
/// in an experiment, and feed the EXPERIMENTS.md reporting.
///
/// # Example
///
/// ```
/// use as_topology::{GraphMetrics, InternetModel};
///
/// let g = InternetModel::new().transit_count(10).stub_count(40).build(1);
/// let m = GraphMetrics::compute(&g);
/// assert_eq!(m.node_count, 50);
/// assert!(m.avg_degree > 1.0);
/// assert!(m.diameter >= 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Number of ASes.
    pub node_count: usize,
    /// Number of undirected peering links.
    pub link_count: usize,
    /// Number of transit ASes.
    pub transit_count: usize,
    /// Number of stub ASes.
    pub stub_count: usize,
    /// Mean peering degree.
    pub avg_degree: f64,
    /// Maximum peering degree.
    pub max_degree: usize,
    /// Longest shortest path in AS hops (0 for empty or singleton graphs;
    /// computed on the graph as given, so only meaningful when connected).
    pub diameter: usize,
}

impl GraphMetrics {
    /// Computes metrics for a graph.
    #[must_use]
    pub fn compute(graph: &AsGraph) -> Self {
        let node_count = graph.len();
        let link_count = graph.link_count();
        let avg_degree = if node_count == 0 {
            0.0
        } else {
            2.0 * link_count as f64 / node_count as f64
        };
        let max_degree = graph.degrees().map(|(_, d)| d).max().unwrap_or(0);
        let diameter = diameter(graph);
        GraphMetrics {
            node_count,
            link_count,
            transit_count: graph.transit_asns().len(),
            stub_count: graph.stub_asns().len(),
            avg_degree,
            max_degree,
            diameter,
        }
    }
}

impl fmt::Display for GraphMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} links, avg degree {:.2}, max degree {}, diameter {}",
            self.node_count, self.link_count, self.avg_degree, self.max_degree, self.diameter
        )
    }
}

/// Longest eccentricity over all nodes, by repeated BFS.
fn diameter(graph: &AsGraph) -> usize {
    let index = graph.index();
    (0..index.len())
        .flat_map(|source| index.distances(&[source]))
        .filter(|&d| d != GraphIndex::UNREACHED)
        .max()
        .unwrap_or(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsRole;
    use bgp_types::Asn;

    #[test]
    fn empty_graph_metrics() {
        let m = GraphMetrics::compute(&AsGraph::new());
        assert_eq!(m.node_count, 0);
        assert_eq!(m.avg_degree, 0.0);
        assert_eq!(m.diameter, 0);
    }

    #[test]
    fn line_graph_metrics() {
        let mut g = AsGraph::new();
        for i in 1..=4 {
            g.add_as(Asn(i), AsRole::Transit);
        }
        for i in 1..4 {
            g.add_link(Asn(i), Asn(i + 1));
        }
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.node_count, 4);
        assert_eq!(m.link_count, 3);
        assert_eq!(m.diameter, 3);
        assert_eq!(m.max_degree, 2);
        assert!((m.avg_degree - 1.5).abs() < 1e-9);
    }

    #[test]
    fn complete_graph_has_diameter_one() {
        let mut g = AsGraph::new();
        for i in 1..=5 {
            for j in (i + 1)..=5 {
                g.add_link(Asn(i), Asn(j));
            }
        }
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.diameter, 1);
        assert_eq!(m.max_degree, 4);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let mut g = AsGraph::new();
        g.add_link(Asn(1), Asn(2));
        let s = GraphMetrics::compute(&g).to_string();
        assert!(s.contains("2 nodes"));
        assert!(s.contains("1 links"));
    }
}
