//! The paper's simulation study (§5), as a reusable experiment harness.
//!
//! §5.1's protocol: origin ASes are drawn from the stub ASes, attackers from
//! all ASes; each data point averages 15 runs — 3 origin sets × 5 attacker
//! sets; the metric is the percentage of remaining (non-attacker) ASes that
//! adopt a false route. This crate implements:
//!
//! * [`run_trial`] — one simulation run on any topology/deployment;
//! * [`run_sweep`] — the 15-run averaged sweep over attacker fractions;
//! * [`experiment1`], [`experiment2`], [`experiment3`] — Figures 9, 10 and
//!   11 exactly as the paper frames them;
//! * [`subprefix_ablation`], [`community_policy_ablation`],
//!   [`forgery_ablation`], ... — the §4.3 limitation studies;
//! * [`run_chaos`], [`run_ensemble`], [`run_session_chaos`] — detector
//!   accuracy under churn, faults and live-session failures;
//! * [`FigureReport`] — plain-text tables and JSON for EXPERIMENTS.md.
//!
//! # One function per experiment, one [`Exec`] to say how
//!
//! There is exactly one entry point per experiment. The trial-based drivers
//! take an [`Exec`] — `jobs` worker threads, `shards` partitions per trial
//! (1 by default), `metrics` on or off — and return
//! `(report, MetricsSnapshot)`; the snapshot is empty when `metrics` is off.
//! Drivers with their own harness and nothing to shard take a bare `jobs`
//! ([`run_session_chaos`], [`measure_moas_list_overhead`]) or, in
//! [`run_ensemble`]'s case, `jobs` and `metrics`.
//!
//! Every driver works in three phases: trials are *planned* sequentially (so
//! no RNG draw order changes), *run* into index-addressed slots — fanned
//! across the vendored scoped thread pool (`minipool`) when each is one
//! shard, one at a time with the workers inside the trial when it is
//! several — and *aggregated* in planning order. With metrics on, each trial records
//! into its own sink and the per-trial snapshots merge in plan order. So
//! report and snapshot are bit-identical for every `jobs` value and every
//! shard count, and the report is the same with metrics on or off.
//!
//! Snapshots serialize through [`json`] (see the [`metrics`] module docs for
//! the shape) and render via [`render_metrics_summary`].
//!
//! # Example
//!
//! ```
//! use as_topology::paper::PaperTopology;
//! use experiments::{run_sweep, Exec, SweepConfig};
//!
//! let mut config = SweepConfig::quick(); // reduced runs for examples/tests
//! config.attacker_fractions = vec![0.1];
//! let graph = PaperTopology::As25.graph();
//!
//! let exec = Exec::jobs(2);
//! let (normal, _) = run_sweep(graph, &config.clone().deployment_fraction(0.0), exec);
//! let (full, metrics) = run_sweep(graph, &config.deployment_fraction(1.0), exec.metrics());
//! assert!(full[0].mean_adoption_pct <= normal[0].mean_adoption_pct);
//! assert_eq!(metrics.counters["trial.count"], 4); // 1 fraction x 2x2 runs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod chaos;
mod compat;
mod ensemble;
mod exec;
mod figures;
pub mod json;
pub mod metrics;
mod overhead;
mod report;
mod score;
pub mod session_chaos;
mod stats;
mod sweep;
mod trial;

pub use ablation::{
    community_policy_ablation, forgery_ablation, subprefix_ablation, unresolved_policy_ablation,
    valley_free_ablation, CommunityPolicyPoint, ForgeryPoint, SubPrefixAblation, ValleyFreePoint,
};
pub use chaos::{
    run_chaos, run_deployment_sweep, ChaosConfig, ChaosReport, ChaosScenario, DeploymentSweep,
    DeploymentSweepPoint, UnknownScenario, DEPLOYMENT_SWEEP_FRACTIONS,
};
pub use compat::{
    experiment1_metrics_jobs, experiment2_metrics_jobs, experiment3_metrics_jobs, run_sweep_jobs,
};
pub use ensemble::{
    run_ensemble, DetectorReport, EnsembleConfig, EnsembleDeploymentPoint, EnsembleReport,
    EnsembleWorkload, WorkloadReport, ENSEMBLE_DEPLOYMENT_FRACTIONS,
};
pub use exec::Exec;
pub use figures::{experiment1, experiment2, experiment3};
pub use metrics::{overhead_snapshot, parse_snapshot, render_metrics_summary};
pub use overhead::{
    measure_moas_list_overhead, measured_list_bytes, moas_list_overhead, OverheadReport, WireModel,
    MRT_FRAMING_BYTES,
};
pub use report::{FigureReport, SeriesReport};
pub use session_chaos::{
    run_session_chaos, SessionChaosConfig, SessionChaosReport, SessionChaosScenario,
    UnknownSessionScenario,
};
pub use stats::{mean, stddev};
pub use sweep::{attacker_count_for, run_sweep, SweepConfig, SweepPoint};
pub use trial::{draw_parties, run_trial, run_trial_with, TrialConfig, TrialOutcome};

/// The prefix under attack in every experiment (Figure 1's example prefix).
pub const VICTIM_PREFIX: &str = "208.8.0.0/16";

/// [`VICTIM_PREFIX`], parsed.
pub(crate) fn victim_prefix() -> bgp_types::Ipv4Prefix {
    VICTIM_PREFIX.parse().expect("victim prefix constant")
}
