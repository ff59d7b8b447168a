//! The paper's three experiments, one function per figure.

use as_topology::paper::PaperTopology;
use as_topology::AsGraph;
use minimetrics::MetricsSnapshot;

use crate::exec::Exec;
use crate::report::{FigureReport, SeriesReport};
use crate::sweep::{run_sweep, SweepConfig};

/// Runs one sweep per `(label, graph, config)` under `exec` and assembles
/// the figure; the per-sweep snapshots merge in series order, so the merged
/// snapshot is as `jobs`/`shards`-invariant as each sweep's.
fn figure(
    id: String,
    title: String,
    sweeps: Vec<(String, &AsGraph, SweepConfig)>,
    exec: Exec,
) -> (FigureReport, MetricsSnapshot) {
    let mut metrics = MetricsSnapshot::new();
    let series = sweeps
        .into_iter()
        .map(|(label, graph, config)| {
            let (points, sweep_metrics) = run_sweep(graph, &config, exec);
            metrics.merge(&sweep_metrics);
            SeriesReport { label, points }
        })
        .collect();
    (FigureReport::new(id, title, series), metrics)
}

/// `"a"`/`"b"` panel suffix and the title's origin-count phrase.
fn panel(origin_count: usize) -> (&'static str, String) {
    if origin_count == 1 {
        ("a", "1 origin AS".to_string())
    } else {
        ("b", format!("{origin_count} origin ASes"))
    }
}

/// `(deployment fraction, series label)` of the Normal-vs-Full comparison.
const NORMAL_VS_FULL: [(f64, &str); 2] = [(0.0, "Normal BGP"), (1.0, "Full MOAS Detection")];

/// Experiment 1 (Figure 9): effectiveness of the MOAS list on the 46-AS
/// topology, comparing Normal BGP against Full MOAS Detection, with
/// `origin_count` ∈ {1, 2}.
///
/// Pass [`SweepConfig::paper`] for the full 15-runs-per-point protocol or
/// [`SweepConfig::quick`] for a fast smoke version; `origin_count`,
/// `deployment_fraction` and `forgery` in the passed config are overridden
/// per the experiment's definition. `exec` picks engine, workers and
/// metrics (see [`Exec`] for what is invariant under it).
#[must_use]
pub fn experiment1(
    origin_count: usize,
    base: &SweepConfig,
    exec: Exec,
) -> (FigureReport, MetricsSnapshot) {
    let graph = PaperTopology::As46.graph();
    let (suffix, origins) = panel(origin_count);
    let sweeps = NORMAL_VS_FULL
        .iter()
        .map(|&(deployment, mode)| {
            let config = base
                .clone()
                .origin_count(origin_count)
                .deployment_fraction(deployment);
            (mode.to_string(), graph, config)
        })
        .collect();
    figure(
        format!("fig9{suffix}"),
        format!("Spoof-resilience of the MOAS scheme in the 46-AS topology ({origins})"),
        sweeps,
        exec,
    )
}

/// Experiment 2 (Figure 10): topology-size comparison — 25, 46 and 63 AS
/// topologies, Normal BGP vs Full MOAS Detection, for `origin_count` ∈ {1, 2}.
#[must_use]
pub fn experiment2(
    origin_count: usize,
    base: &SweepConfig,
    exec: Exec,
) -> (FigureReport, MetricsSnapshot) {
    let (suffix, origins) = panel(origin_count);
    let mut sweeps = Vec::new();
    for (deployment, mode) in NORMAL_VS_FULL {
        for topology in PaperTopology::ALL {
            let config = base
                .clone()
                .origin_count(origin_count)
                .deployment_fraction(deployment);
            sweeps.push((format!("{topology} {mode}"), topology.graph(), config));
        }
    }
    figure(
        format!("fig10{suffix}"),
        format!("Comparison between 25-AS, 46-AS and 63-AS topologies ({origins})"),
        sweeps,
        exec,
    )
}

/// Experiment 3 (Figure 11): partial deployment — none / half / full MOAS
/// detection on one of the paper's topologies (the paper shows 46-AS and
/// 63-AS panels).
#[must_use]
pub fn experiment3(
    topology: PaperTopology,
    base: &SweepConfig,
    exec: Exec,
) -> (FigureReport, MetricsSnapshot) {
    let sweeps = [
        (0.0, "Normal BGP"),
        (0.5, "Half MOAS Detection"),
        (1.0, "Full MOAS Detection"),
    ]
    .into_iter()
    .map(|(fraction, label)| {
        (
            label.to_string(),
            topology.graph(),
            base.clone().deployment_fraction(fraction),
        )
    })
    .collect();
    figure(
        format!("fig11-{}", topology.size()),
        format!("Partial vs complete deployment of MOAS detection ({topology} topology)"),
        sweeps,
        exec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        let mut c = SweepConfig::quick();
        c.attacker_fractions = vec![0.1, 0.3];
        c.origin_set_count = 1;
        c.attacker_set_count = 2;
        c
    }

    #[test]
    fn experiment1_structure_and_ordering() {
        let fig = experiment1(1, &tiny(), Exec::serial()).0;
        assert_eq!(fig.id, "fig9a");
        assert_eq!(fig.series.len(), 2);
        let normal = &fig.series[0];
        let full = &fig.series[1];
        assert_eq!(normal.points.len(), 2);
        // The mechanism must not make things worse at any point.
        for (n, f) in normal.points.iter().zip(&full.points) {
            assert!(f.mean_adoption_pct <= n.mean_adoption_pct + 1e-9);
        }
    }

    #[test]
    fn experiment1_two_origins_id() {
        let fig = experiment1(2, &tiny(), Exec::serial()).0;
        assert_eq!(fig.id, "fig9b");
        assert!(fig.title.contains("2 origin ASes"));
    }

    #[test]
    fn experiment2_has_six_series() {
        let fig = experiment2(1, &tiny(), Exec::serial()).0;
        assert_eq!(fig.series.len(), 6);
        assert!(fig.series.iter().any(|s| s.label == "25-AS Normal BGP"));
        assert!(fig
            .series
            .iter()
            .any(|s| s.label == "63-AS Full MOAS Detection"));
    }

    #[test]
    fn experiment3_has_three_deployment_levels() {
        let fig = experiment3(PaperTopology::As25, &tiny(), Exec::serial()).0;
        assert_eq!(fig.id, "fig11-25");
        assert_eq!(fig.series.len(), 3);
        // Half deployment sits between none and full (within noise we only
        // require it to be no worse than Normal BGP).
        let normal = &fig.series[0].points;
        let half = &fig.series[1].points;
        for (n, h) in normal.iter().zip(half) {
            assert!(h.mean_adoption_pct <= n.mean_adoption_pct + 1e-9);
        }
    }
}
