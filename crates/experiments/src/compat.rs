//! Old entry-point names the benchmark still imports.
//!
//! `moasbench/` is frozen by `BENCHMARK.json` (the driver builds the same
//! benchmark sources against the parent commit and against each change, so
//! its imports cannot move in the PR that moves the API). These four
//! one-line forwards keep it compiling. Delete this file the moment
//! `moasbench/src/workloads/figures.rs` calls [`run_sweep`] and
//! [`experiment1`]..[`experiment3`] with an [`Exec`] directly; nothing else
//! may use them (CI's lint step rejects the suffixes anywhere but here).

use as_topology::paper::PaperTopology;
use as_topology::AsGraph;
use minimetrics::MetricsSnapshot;

use crate::{
    experiment1, experiment2, experiment3, run_sweep, Exec, FigureReport, SweepConfig, SweepPoint,
};

#[doc(hidden)]
#[must_use]
pub fn run_sweep_jobs(graph: &AsGraph, config: &SweepConfig, jobs: usize) -> Vec<SweepPoint> {
    run_sweep(graph, config, Exec::jobs(jobs)).0
}

#[doc(hidden)]
#[must_use]
pub fn experiment1_metrics_jobs(
    origin_count: usize,
    base: &SweepConfig,
    jobs: usize,
) -> (FigureReport, MetricsSnapshot) {
    experiment1(origin_count, base, Exec::jobs(jobs).metrics())
}

#[doc(hidden)]
#[must_use]
pub fn experiment2_metrics_jobs(
    origin_count: usize,
    base: &SweepConfig,
    jobs: usize,
) -> (FigureReport, MetricsSnapshot) {
    experiment2(origin_count, base, Exec::jobs(jobs).metrics())
}

#[doc(hidden)]
#[must_use]
pub fn experiment3_metrics_jobs(
    topology: PaperTopology,
    base: &SweepConfig,
    jobs: usize,
) -> (FigureReport, MetricsSnapshot) {
    experiment3(topology, base, Exec::jobs(jobs).metrics())
}
