//! Event-queue counters.

/// Lifetime counters of a simulation's event queue, for observability.
///
/// Every quantity is cumulative over the queue's lifetime and derived purely
/// from the deterministic event stream, so two runs with the same seed report
/// identical stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events popped and delivered to the simulation.
    pub fired: u64,
    /// Largest number of events that were ever pending at once.
    pub depth_high_water: u64,
}
