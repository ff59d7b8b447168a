//! The contract the two engines share, as far as experiment drivers use it.

use bgp_types::{Asn, Ipv4Prefix, MoasList, Route};
use minimetrics::MetricsSink;
use sim_engine::fault::FaultStats;
use sim_engine::SimTime;

use crate::error::{ConvergenceError, FaultPlanError};
use crate::fault::NetFaultPlan;
use crate::monitor::RouteMonitor;
use crate::network::{Network, NetworkStats};
use crate::sharded::ShardedNetwork;

/// What an experiment driver needs from a BGP engine: set it up, run it to
/// quiescence, and read the outcome back. [`Network`] and [`ShardedNetwork`]
/// both implement it by forwarding to their inherent methods of the same
/// name (see those for the semantics), so a trial body written against
/// `E: Engine` exists once and is monomorphised per engine — there is no
/// dynamic dispatch anywhere near the event loop.
///
/// The trait deliberately stops at what the drivers call. The two engines
/// still order same-timestamp events differently (arrival order vs intrinsic
/// order), so their *results* are each deterministic but not interchangeable.
pub trait Engine {
    /// The monitor type consulted on every import and export.
    type Monitor: RouteMonitor;

    /// Makes `asn` originate `prefix`, optionally with a MOAS list.
    fn originate(&mut self, asn: Asn, prefix: Ipv4Prefix, moas_list: Option<MoasList>);
    /// Makes `asn` originate a fully specified route (forged lists included).
    fn originate_route(&mut self, asn: Asn, route: Route);
    /// Runs until no messages remain in flight.
    ///
    /// # Errors
    ///
    /// Returns [`ConvergenceError`] on budget exhaustion or oscillation.
    fn run(&mut self) -> Result<SimTime, ConvergenceError>;
    /// Sets the per-peer MRAI window in ticks (0 disables it).
    fn set_mrai(&mut self, ticks: u64);
    /// Samples the convergence watchdog every `interval_events` (0 = off).
    fn set_watchdog(&mut self, interval_events: u64);
    /// Installs a fault timeline.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] when the plan names an unknown AS or link.
    fn set_fault_plan(&mut self, plan: NetFaultPlan) -> Result<(), FaultPlanError>;
    /// The origin AS of the best route `asn` holds for `prefix`.
    fn best_origin(&self, asn: Asn, prefix: Ipv4Prefix) -> Option<Asn>;
    /// Message counters and the last convergence time.
    fn stats(&self) -> NetworkStats;
    /// Fault-model counters summed over every link.
    fn fault_stats_total(&self) -> FaultStats;
    /// Emits the engine's metrics into `sink` (the sharded engine exports
    /// only the shard-count-invariant subset).
    fn export_metrics<S: MetricsSink>(&self, sink: &mut S);
    /// Every monitor instance: one for the classic engine, one per shard for
    /// the sharded one. Alarms and verifier queries are observer-scoped, so
    /// summing over this iterator gives the same totals on either engine.
    fn monitors(&self) -> impl Iterator<Item = &Self::Monitor>;
}

/// Forwards every [`Engine`] method except `stats` and `monitors` to the
/// inherent method of the same name.
macro_rules! forward_engine {
    () => {
        fn originate(&mut self, asn: Asn, prefix: Ipv4Prefix, moas_list: Option<MoasList>) {
            self.originate(asn, prefix, moas_list);
        }
        fn originate_route(&mut self, asn: Asn, route: Route) {
            self.originate_route(asn, route);
        }
        fn run(&mut self) -> Result<SimTime, ConvergenceError> {
            self.run()
        }
        fn set_mrai(&mut self, ticks: u64) {
            self.set_mrai(ticks);
        }
        fn set_watchdog(&mut self, interval_events: u64) {
            self.set_watchdog(interval_events);
        }
        fn set_fault_plan(&mut self, plan: NetFaultPlan) -> Result<(), FaultPlanError> {
            self.set_fault_plan(plan)
        }
        fn best_origin(&self, asn: Asn, prefix: Ipv4Prefix) -> Option<Asn> {
            self.best_origin(asn, prefix)
        }
        fn fault_stats_total(&self) -> FaultStats {
            self.fault_stats_total()
        }
        fn export_metrics<S: MetricsSink>(&self, sink: &mut S) {
            self.export_metrics(sink);
        }
    };
}

impl<M: RouteMonitor> Engine for Network<M> {
    type Monitor = M;
    forward_engine!();

    fn stats(&self) -> NetworkStats {
        *self.stats()
    }
    fn monitors(&self) -> impl Iterator<Item = &M> {
        std::iter::once(self.monitor())
    }
}

impl<M: RouteMonitor + Send + 'static> Engine for ShardedNetwork<M> {
    type Monitor = M;
    forward_engine!();

    fn stats(&self) -> NetworkStats {
        self.stats()
    }
    fn monitors(&self) -> impl Iterator<Item = &M> {
        self.monitors()
    }
}
