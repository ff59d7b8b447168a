//! The engine's event queue: pending events bucketed by timestamp.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use sim_engine::SimTime;

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

/// One scheduled event with its intrinsic ordering key.
///
/// Within a timestamp, events sort by `(kind, id, seq)` — for the engine,
/// `(event kind, global edge id or timeline index, per-edge send sequence)`.
/// Every component is derived from the event itself, not from scheduling
/// order, so any shard holding the same event set processes it in the same
/// order regardless of how the events arrived. Kind and id share one word
/// (`kind << 32 | id`), which keeps a comparison to two words.
#[derive(Debug, Clone)]
pub(crate) struct Scheduled<E> {
    pub(crate) time: SimTime,
    key: (u64, u64),
    pub(crate) event: E,
}

impl<E> Scheduled<E> {
    pub(crate) fn new(time: SimTime, kind: u64, id: u32, seq: u64, event: E) -> Self {
        Scheduled {
            time,
            key: (kind << 32 | u64::from(id), seq),
            event,
        }
    }
}

/// A shard's pending events, bucketed by timestamp.
///
/// Every delay in the engine is at least one tick, so the set of events at
/// time `T` is closed before the round for `T` starts: a bucket is only
/// appended to before its round and is drained whole, sorted by intrinsic
/// key, during it. That replaces a heap's sift per event with an append,
/// plus one sort per round over contiguous memory.
#[derive(Debug)]
pub(crate) struct Agenda<E> {
    buckets: BTreeMap<SimTime, Vec<Scheduled<E>>>,
    len: usize,
    scheduled: u64,
    depth_high_water: u64,
    /// Drained buckets, kept for their allocations.
    spare: Vec<Vec<Scheduled<E>>>,
}

impl<E> Agenda<E> {
    pub(crate) fn new() -> Self {
        Agenda {
            buckets: BTreeMap::new(),
            len: 0,
            scheduled: 0,
            depth_high_water: 0,
            spare: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, event: Scheduled<E>) {
        self.len += 1;
        self.scheduled += 1;
        self.depth_high_water = self.depth_high_water.max(self.len as u64);
        match self.buckets.entry(event.time) {
            Entry::Occupied(bucket) => bucket.into_mut().push(event),
            Entry::Vacant(slot) => slot
                .insert(self.spare.pop().unwrap_or_default())
                .push(event),
        }
    }

    /// The timestamp of the earliest pending event.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.buckets.keys().next().copied()
    }

    /// Removes the events due at exactly `time`, in intrinsic order. Hand
    /// the emptied bucket back through [`Agenda::recycle`].
    pub(crate) fn take(&mut self, time: SimTime) -> Vec<Scheduled<E>> {
        let mut due = self.buckets.remove(&time).unwrap_or_default();
        self.len -= due.len();
        due.sort_unstable_by_key(|event| event.key);
        due
    }

    pub(crate) fn recycle(&mut self, mut bucket: Vec<Scheduled<E>>) {
        bucket.clear();
        self.spare.push(bucket);
    }

    /// Events currently pending.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Events ever pushed.
    pub(crate) fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// The most events that were ever pending at once.
    pub(crate) fn depth_high_water(&self) -> u64 {
        self.depth_high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ticks: u64, kind: u64, id: u32, seq: u64, name: &'static str) -> Scheduled<&'static str> {
        Scheduled::new(SimTime::from_ticks(ticks), kind, id, seq, name)
    }

    /// Drains the agenda the way a shard does: one whole timestamp at a time.
    fn drain(agenda: &mut Agenda<&'static str>) -> Vec<(u64, &'static str)> {
        let mut order = Vec::new();
        while let Some(time) = agenda.next_time() {
            let mut due = agenda.take(time);
            order.extend(due.drain(..).map(|s| (s.time.ticks(), s.event)));
            agenda.recycle(due);
        }
        order
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = Agenda::new();
        q.push(at(5, 0, 0, 0, "five"));
        q.push(at(1, 0, 0, 0, "one"));
        q.push(at(3, 0, 0, 0, "three"));
        assert_eq!(drain(&mut q), vec![(1, "one"), (3, "three"), (5, "five")]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn same_time_is_intrinsic_order_not_arrival_order() {
        // (kind, id, seq), whatever order the events were pushed in.
        let events = [
            at(7, 2, 0, 0, "fault 0"),
            at(7, 0, 9, 1, "deliver edge 9 #1"),
            at(7, 1, 3, 0, "flush edge 3"),
            at(7, 0, 9, 0, "deliver edge 9 #0"),
            at(7, 0, 4, 5, "deliver edge 4 #5"),
        ];
        let expected = vec![
            (7, "deliver edge 4 #5"),
            (7, "deliver edge 9 #0"),
            (7, "deliver edge 9 #1"),
            (7, "flush edge 3"),
            (7, "fault 0"),
        ];
        let mut forward = Agenda::new();
        let mut backward = Agenda::new();
        for event in &events {
            forward.push(event.clone());
        }
        for event in events.iter().rev() {
            backward.push(event.clone());
        }
        assert_eq!(drain(&mut forward), expected);
        assert_eq!(drain(&mut backward), expected);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = Agenda::new();
        q.push(at(2, 0, 0, 0, "x"));
        assert_eq!(q.next_time(), Some(SimTime::from_ticks(2)));
        assert_eq!(q.next_time(), Some(SimTime::from_ticks(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn take_leaves_other_timestamps_alone() {
        let mut q = Agenda::new();
        q.push(at(2, 0, 0, 0, "two"));
        q.push(at(4, 0, 0, 0, "four"));
        // Nothing is due at 3: the shard's clock still moves, the queue not.
        assert!(q.take(SimTime::from_ticks(3)).is_empty());
        assert_eq!(q.len(), 2);
        assert_eq!(q.take(SimTime::from_ticks(4)).len(), 1);
        assert_eq!(q.next_time(), Some(SimTime::from_ticks(2)));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // Events pushed while an earlier timestamp is being processed land
        // in their own (later) buckets, recycled allocations included.
        let mut q = Agenda::new();
        q.push(at(1, 0, 1, 0, "a"));
        q.push(at(2, 0, 2, 0, "b"));
        let due = q.take(SimTime::from_ticks(1));
        assert_eq!(due.len(), 1);
        q.recycle(due);
        q.push(at(2, 0, 1, 0, "c"));
        q.push(at(3, 0, 0, 0, "d"));
        assert_eq!(drain(&mut q), vec![(2, "c"), (2, "b"), (3, "d")]);
    }

    #[test]
    fn stats_track_scheduled_and_high_water() {
        let mut q = Agenda::new();
        q.push(at(1, 0, 0, 0, "a"));
        q.push(at(2, 0, 0, 0, "b"));
        q.push(at(2, 0, 1, 0, "c"));
        let due = q.take(SimTime::from_ticks(1));
        q.recycle(due);
        q.push(at(3, 0, 0, 0, "d"));
        assert_eq!(q.scheduled(), 4);
        assert_eq!(q.depth_high_water(), 3);
        assert_eq!(q.len(), 3);
    }
}
