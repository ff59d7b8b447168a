//! How a driver executes: how many workers, how many shards, metrics or not.
//!
//! Every driver plans its trials sequentially, runs them into
//! index-addressed slots, and aggregates in plan order. The middle step is
//! the same for all of them and lives here once: [`Exec::run_cells`] decides
//! where the workers go, picks the sink — one `MetricsSink` monomorphisation
//! per driver call, never per event — fans the cells out, and folds the
//! per-cell sinks into one in plan order as they finish. The merged sink is
//! turned into a snapshot — its per-session rows named — once per call.

use as_topology::AsGraph;
use bgp_engine::{RouteMonitor, ShardedNetwork};
use minimetrics::{MetricsSink, MetricsSnapshot, NoopSink, RecordingSink};

/// The execution choices shared by every driver — exactly the CLI's
/// `--jobs`, `--shards` and `--metrics`. None of them changes a report:
/// output is bit-identical for every `jobs`, for every `shards`, and with
/// `metrics` on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// Worker threads. With one shard, trials fan out across them; with
    /// more, trials run one at a time and the workers drive the shards
    /// *inside* each trial.
    pub jobs: usize,
    /// How many lockstep shards each trial's AS graph is partitioned into
    /// (1 = unpartitioned, the default).
    pub shards: usize,
    /// Record per-trial metrics and return their plan-order merge. When
    /// `false` the instrumentation compiles away and the returned snapshot
    /// is empty.
    pub metrics: bool,
}

impl Exec {
    /// The sequential reference: one worker, one shard, no metrics.
    #[must_use]
    pub fn serial() -> Self {
        Exec::jobs(1)
    }

    /// One shard, no metrics, trials fanned across `jobs` workers.
    #[must_use]
    pub fn jobs(jobs: usize) -> Self {
        Exec {
            jobs,
            shards: 1,
            metrics: false,
        }
    }

    /// Partitions every trial into `shards` shards (builder style).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Turns metrics recording on (builder style).
    #[must_use]
    pub fn metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Runs `cell.run(_, 0) .. cell.run(_, count - 1)` and returns the
    /// outputs in index order plus the plan-order merge of the per-cell
    /// sinks (empty unless `self.metrics`).
    pub(crate) fn run_cells<C: Cell>(
        self,
        count: usize,
        cell: &C,
    ) -> (Vec<C::Out>, MetricsSnapshot) {
        // The workers go where the parallelism is: across trials when each
        // is one shard, inside the trial when it is several.
        let (across, within) = if self.shards > 1 {
            (1, self.jobs)
        } else {
            (self.jobs, 1)
        };
        let layout = Layout {
            shards: self.shards,
            jobs: within,
        };
        if !self.metrics {
            let outs = minipool::map_indexed(across, count, |i| cell.run(layout, i, &mut NoopSink));
            return (outs, MetricsSnapshot::new());
        }
        // Each cell records into a fresh sink (its gauges are last-write
        // within the cell) that folds into the merged sink as soon as its
        // turn comes, so no finished cell's sink outlives its merge.
        let (outs, merged) = minipool::fold_indexed(
            across,
            count,
            (Vec::with_capacity(count), RecordingSink::new()),
            |i| {
                let mut sink = RecordingSink::new();
                let out = cell.run(layout, i, &mut sink);
                (out, sink)
            },
            |(outs, merged), (out, sink)| {
                outs.push(out);
                merged.merge(sink);
            },
        );
        (outs, merged.into_snapshot())
    }
}

/// One driver's unit of work (a trial, an ablation cell), written once
/// against any sink. A trait rather than a closure because the body is
/// generic in the sink.
pub(crate) trait Cell: Sync {
    /// What one cell produces.
    type Out: Send;
    /// Runs cell `i`. The ensemble ignores `layout`: its tap monitor needs
    /// the one global observation order, so it always runs
    /// [`Layout::SERIAL`].
    fn run<S: MetricsSink>(&self, layout: Layout, i: usize, sink: &mut S) -> Self::Out;
}

/// How one trial's network is laid out: `shards` lockstep partitions driven
/// by up to `jobs` threads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    shards: usize,
    jobs: usize,
}

impl Layout {
    /// One shard on the calling thread.
    pub(crate) const SERIAL: Layout = Layout { shards: 1, jobs: 1 };

    /// A network over `graph` with per-link delay jitter drawn from `seed`.
    /// `monitor` is called once per shard.
    pub(crate) fn build<M: RouteMonitor>(
        self,
        graph: &AsGraph,
        seed: u64,
        max_link_delay: u64,
        monitor: impl FnMut() -> M,
    ) -> ShardedNetwork<M> {
        ShardedNetwork::with_monitor_and_jitter(
            graph,
            self.shards,
            self.jobs,
            seed,
            max_link_delay,
            monitor,
        )
    }
}
