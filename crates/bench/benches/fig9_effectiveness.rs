//! Figure 9 — Experiment 1: spoof-resilience of the MOAS scheme in the 46-AS
//! topology, 1 and 2 origin ASes, Normal BGP vs Full MOAS Detection.

use as_topology::paper::PaperTopology;
use experiments::{experiment1, run_trial, Exec, SweepConfig, TrialConfig};
use moas_core::Deployment;

fn regenerate_figure() -> String {
    let config = SweepConfig::paper();
    let mut out = String::new();
    for origins in [1, 2] {
        out.push_str(
            &experiment1(origins, &config, Exec::serial())
                .0
                .render_table(),
        );
        out.push('\n');
    }
    out
}

fn main() {
    bench::print_figure(
        "Figure 9 — Experiment 1: effectiveness of the MOAS list (46-AS topology)",
        &regenerate_figure(),
    );

    let graph = PaperTopology::As46.graph();
    let stubs = graph.stub_asns();
    let origins = vec![stubs[0]];
    let attackers: Vec<_> = stubs[1..4].to_vec();

    for (name, deployment) in [
        ("normal_bgp", Deployment::None),
        ("full_moas", Deployment::Full),
    ] {
        let config = TrialConfig::new(origins.clone(), attackers.clone(), deployment);
        bench::time_once(&format!("fig9/trial_46as_{name}"), || {
            run_trial(graph, &config)
        });
    }
}
