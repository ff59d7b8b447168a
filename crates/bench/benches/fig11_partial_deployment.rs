//! Figure 11 — Experiment 3: partial vs complete deployment of MOAS
//! detection (46-AS and 63-AS panels).

use as_topology::paper::PaperTopology;
use experiments::{experiment3, run_trial, Exec, SweepConfig, TrialConfig};
use moas_core::Deployment;

fn regenerate_figure() -> String {
    let config = SweepConfig::paper();
    let mut out = String::new();
    for topology in [PaperTopology::As46, PaperTopology::As63] {
        out.push_str(
            &experiment3(topology, &config, Exec::serial())
                .0
                .render_table(),
        );
        out.push('\n');
    }
    out
}

fn main() {
    bench::print_figure(
        "Figure 11 — Experiment 3: partial deployment of MOAS checking",
        &regenerate_figure(),
    );

    let graph = PaperTopology::As63.graph();
    let stubs = graph.stub_asns();
    let asns: Vec<_> = graph.asns().collect();
    let origins = vec![stubs[0]];
    let attackers: Vec<_> = stubs[1..4].to_vec();

    for fraction in [0.0, 0.5, 1.0] {
        let deployment = Deployment::sample(&asns, fraction, 42);
        let config = TrialConfig::new(origins.clone(), attackers.clone(), deployment);
        bench::time_once(
            &format!("fig11/trial_63as_deploy_{:.0}pct", fraction * 100.0),
            || run_trial(graph, &config),
        );
    }
}
