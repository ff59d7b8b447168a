//! Figure 10 — Experiment 2: comparison between the 25-AS, 46-AS and 63-AS
//! topologies, with and without MOAS detection.

use as_topology::paper::PaperTopology;
use experiments::{experiment2, run_trial, Exec, SweepConfig, TrialConfig};
use moas_core::Deployment;

fn regenerate_figure() -> String {
    let config = SweepConfig::paper();
    let mut out = String::new();
    for origins in [1, 2] {
        out.push_str(
            &experiment2(origins, &config, Exec::serial())
                .0
                .render_table(),
        );
        out.push('\n');
    }
    out
}

fn main() {
    bench::print_figure(
        "Figure 10 — Experiment 2: impact of topology size on robustness",
        &regenerate_figure(),
    );

    for topology in PaperTopology::ALL {
        let graph = topology.graph();
        let stubs = graph.stub_asns();
        let config = TrialConfig::new(vec![stubs[0]], stubs[1..3].to_vec(), Deployment::Full);
        bench::time_once(&format!("fig10/trial_{topology}_full_moas"), || {
            run_trial(graph, &config)
        });
    }
}
