//! How a driver executes: which engine, how many workers, metrics or not.
//!
//! Every driver plans its trials sequentially, runs them into
//! index-addressed slots, and aggregates in plan order. The middle step is
//! the same for all of them and lives here once: [`Exec::run_cells`] picks
//! the engine and the sink — one `(Runner, MetricsSink)` monomorphisation per
//! driver call, never per event — fans the cells out, and merges the
//! per-cell snapshots in plan order.

use as_topology::AsGraph;
use bgp_engine::{Engine, Network, RouteMonitor, ShardedNetwork};
use minimetrics::{MetricsSink, MetricsSnapshot, NoopSink, RecordingSink};

/// The execution choices shared by every driver — exactly the CLI's
/// `--jobs`, `--shards` and `--metrics`. None of them changes a report:
/// output is bit-identical for every `jobs`, for every `Some(shards)`, and
/// with `metrics` on or off. Only the *engine* matters: `shards: None` and
/// `shards: Some(_)` break same-tick ties differently and may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// Worker threads. On the classic engine trials fan out across them; on
    /// the sharded engine trials run one at a time and the workers drive the
    /// shards *inside* each trial.
    pub jobs: usize,
    /// `None` runs the classic single-queue engine; `Some(n)` partitions each
    /// trial's AS graph into `n` lockstep shard engines.
    pub shards: Option<usize>,
    /// Record per-trial metrics and return their plan-order merge. When
    /// `false` the instrumentation compiles away and the returned snapshot
    /// is empty.
    pub metrics: bool,
}

impl Exec {
    /// The sequential reference: one worker, classic engine, no metrics.
    #[must_use]
    pub fn serial() -> Self {
        Exec::jobs(1)
    }

    /// Classic engine, no metrics, trials fanned across `jobs` workers.
    #[must_use]
    pub fn jobs(jobs: usize) -> Self {
        Exec {
            jobs,
            shards: None,
            metrics: false,
        }
    }

    /// Routes execution through the sharded engine (builder style).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
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
    /// snapshots (empty unless `self.metrics`).
    pub(crate) fn run_cells<C: Cell>(
        self,
        count: usize,
        cell: &C,
    ) -> (Vec<C::Out>, MetricsSnapshot) {
        match self.shards {
            None => self.fan(self.jobs, &Classic, count, cell),
            Some(shards) => {
                let runner = Sharded {
                    shards,
                    jobs: self.jobs,
                };
                self.fan(1, &runner, count, cell)
            }
        }
    }

    fn fan<R: Runner, C: Cell>(
        self,
        workers: usize,
        runner: &R,
        count: usize,
        cell: &C,
    ) -> (Vec<C::Out>, MetricsSnapshot) {
        if !self.metrics {
            let outs =
                minipool::map_indexed(workers, count, |i| cell.run(runner, i, &mut NoopSink));
            return (outs, MetricsSnapshot::new());
        }
        let recorded = minipool::map_indexed(workers, count, |i| {
            let mut sink = RecordingSink::new();
            let out = cell.run(runner, i, &mut sink);
            (out, sink.into_snapshot())
        });
        let mut snapshot = MetricsSnapshot::new();
        let outs = recorded
            .into_iter()
            .map(|(out, cell_snapshot)| {
                snapshot.merge(&cell_snapshot);
                out
            })
            .collect();
        (outs, snapshot)
    }
}

/// One driver's unit of work (a trial, an ablation cell), written once
/// against any engine and any sink. A trait rather than a closure because
/// the body is generic in both.
pub(crate) trait Cell: Sync {
    /// What one cell produces.
    type Out: Send;
    /// Runs cell `i`. Cells that build their own network (the ensemble's
    /// tap monitor) ignore `runner`.
    fn run<R: Runner, S: MetricsSink>(&self, runner: &R, i: usize, sink: &mut S) -> Self::Out;
}

/// Builds the engine one trial runs on — the only place either engine is
/// constructed for the trial and chaos bodies.
pub(crate) trait Runner: Sync {
    /// The engine type, for a given monitor.
    type Engine<M: RouteMonitor + Send + 'static>: Engine<Monitor = M>;

    /// A network over `graph` with per-link delay jitter drawn from `seed`.
    /// `monitor` is called once per monitor instance the engine needs.
    fn build<M: RouteMonitor + Send + 'static>(
        &self,
        graph: &AsGraph,
        seed: u64,
        max_link_delay: u64,
        monitor: impl Fn() -> M,
    ) -> Self::Engine<M>;
}

/// The classic single-queue engine.
pub(crate) struct Classic;

impl Runner for Classic {
    type Engine<M: RouteMonitor + Send + 'static> = Network<M>;

    fn build<M: RouteMonitor + Send + 'static>(
        &self,
        graph: &AsGraph,
        seed: u64,
        max_link_delay: u64,
        monitor: impl Fn() -> M,
    ) -> Network<M> {
        Network::with_monitor_and_jitter(graph, monitor(), seed, max_link_delay)
    }
}

/// The sharded engine: `shards` lockstep partitions on up to `jobs` workers.
pub(crate) struct Sharded {
    shards: usize,
    jobs: usize,
}

impl Runner for Sharded {
    type Engine<M: RouteMonitor + Send + 'static> = ShardedNetwork<M>;

    fn build<M: RouteMonitor + Send + 'static>(
        &self,
        graph: &AsGraph,
        seed: u64,
        max_link_delay: u64,
        monitor: impl Fn() -> M,
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
