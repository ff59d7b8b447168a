//! Figure 10 — Experiment 2: comparison between the 25-AS, 46-AS and 63-AS
//! topologies, with and without MOAS detection.

use std::sync::Once;

use as_topology::paper::PaperTopology;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{experiment2, run_trial, Exec, SweepConfig, TrialConfig};
use moas_core::Deployment;

static PRINTED: Once = Once::new();

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

fn bench_fig10(c: &mut Criterion) {
    bench::print_figure_once(
        &PRINTED,
        "Figure 10 — Experiment 2: impact of topology size on robustness",
        &regenerate_figure(),
    );

    let mut group = c.benchmark_group("fig10");
    group.sample_size(20);
    for topology in PaperTopology::ALL {
        let graph = topology.graph();
        let stubs = graph.stub_asns();
        let origins = vec![stubs[0]];
        let attackers: Vec<_> = stubs[1..3].to_vec();
        group.bench_function(format!("trial_{topology}_full_moas"), |b| {
            let config = TrialConfig::new(origins.clone(), attackers.clone(), Deployment::Full);
            b.iter(|| run_trial(graph, &config));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
