//! Figure 11 — Experiment 3: partial vs complete deployment of MOAS
//! detection (46-AS and 63-AS panels).

use std::sync::Once;

use as_topology::paper::PaperTopology;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{experiment3, run_trial, Exec, SweepConfig, TrialConfig};
use moas_core::Deployment;

static PRINTED: Once = Once::new();

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

fn bench_fig11(c: &mut Criterion) {
    bench::print_figure_once(
        &PRINTED,
        "Figure 11 — Experiment 3: partial deployment of MOAS checking",
        &regenerate_figure(),
    );

    let graph = PaperTopology::As63.graph();
    let stubs = graph.stub_asns();
    let asns: Vec<_> = graph.asns().collect();
    let origins = vec![stubs[0]];
    let attackers: Vec<_> = stubs[1..4].to_vec();

    let mut group = c.benchmark_group("fig11");
    group.sample_size(20);
    for fraction in [0.0, 0.5, 1.0] {
        let deployment = Deployment::sample(&asns, fraction, 42);
        group.bench_function(
            format!("trial_63as_deploy_{:.0}pct", fraction * 100.0),
            |b| {
                let config =
                    TrialConfig::new(origins.clone(), attackers.clone(), deployment.clone());
                b.iter(|| run_trial(graph, &config));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
