//! The five workloads. Each takes the run's parameters and a tracer and
//! returns what it measured and checked.

mod converge;
mod figures;
mod ingest;
mod serve;

use crate::report::{Outcome, Run};
use crate::trace::Tracer;

/// Runs the named workload; `None` when the name is unknown.
pub fn run(run: &Run, tracer: &mut Tracer) -> Option<Outcome> {
    Some(match run.workload.as_str() {
        "serve_read" => serve::serve_read(run, tracer),
        "serve_churn" => serve::serve_churn(run, tracer),
        "ingest_mrt" => ingest::ingest_mrt(run, tracer),
        "sim_figures" => figures::sim_figures(run, tracer),
        "sim_converge70k" => converge::sim_converge70k(run, tracer),
        _ => return None,
    })
}
