//! Figure 9 — Experiment 1: spoof-resilience of the MOAS scheme in the 46-AS
//! topology, 1 and 2 origin ASes, Normal BGP vs Full MOAS Detection.

use std::sync::Once;

use as_topology::paper::PaperTopology;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{experiment1, run_trial, Exec, SweepConfig, TrialConfig};
use moas_core::Deployment;

static PRINTED: Once = Once::new();

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

fn bench_fig9(c: &mut Criterion) {
    bench::print_figure_once(
        &PRINTED,
        "Figure 9 — Experiment 1: effectiveness of the MOAS list (46-AS topology)",
        &regenerate_figure(),
    );

    let graph = PaperTopology::As46.graph();
    let stubs = graph.stub_asns();
    let origins = vec![stubs[0]];
    let attackers: Vec<_> = stubs[1..4].to_vec();

    let mut group = c.benchmark_group("fig9");
    group.sample_size(20);
    group.bench_function("trial_46as_normal_bgp", |b| {
        let config = TrialConfig::new(origins.clone(), attackers.clone(), Deployment::None);
        b.iter(|| run_trial(graph, &config));
    });
    group.bench_function("trial_46as_full_moas", |b| {
        let config = TrialConfig::new(origins.clone(), attackers.clone(), Deployment::Full);
        b.iter(|| run_trial(graph, &config));
    });
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
