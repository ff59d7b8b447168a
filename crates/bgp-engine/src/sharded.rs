//! The BGP event loop: one network, partitioned over `N >= 1` shards.
//!
//! [`ShardedNetwork`] partitions the AS graph into per-shard engines (via
//! [`as_topology::Partition`]'s balanced edge-cut) and exchanges cross-shard
//! BGP messages in batches at virtual-time boundaries. A coordinator advances
//! all shards to the globally next event timestamp in lockstep rounds; within
//! a timestamp, every shard processes its events in an *intrinsic* order —
//! `(event kind, global edge id, per-edge send sequence)` — that depends only
//! on the event itself, never on queue arrival order or shard layout. All
//! link delays are at least one tick, so no event at time `T` can spawn
//! another event at `T`, and the per-timestamp event set is closed before the
//! round starts.
//!
//! The result is the property the experiments need: every RIB, alarm,
//! counter, and fingerprint is **bit-identical for every `--shards N`**
//! (including `N = 1`). See DESIGN.md "One event loop" for the full
//! determinism argument.
//!
//! This is the only event loop in the crate: [`Network`](crate::Network) is
//! the `N = 1` case, driven inline on the calling thread.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

use as_topology::{AsGraph, NodeNumbering, Partition};
use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route, SimTime, Update};
use minimetrics::{MetricsSink, RowFamily};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::error::{ConvergenceError, FaultPlanError};
use crate::fault::{
    FaultAction, FaultEvent, FaultStats, LinkFaultModel, NetFaultPlan, TimelineEntry,
};
use crate::monitor::{NoopMonitor, RouteMonitor};
use crate::queue::{Agenda, QueueStats, Scheduled, MAX_ID};
use crate::router::{Node, Outbox, Rib, Router, Speaker};
use crate::stats::{NetworkStats, SessionCounters};
use crate::update::SharedUpdate;

/// Default event budget for `run`: far beyond what any experiment in the
/// reproduction needs, while still catching runaway configurations.
pub(crate) const DEFAULT_EVENT_LIMIT: u64 = 50_000_000;

/// Repeated-fingerprint sightings before the watchdog declares oscillation.
/// Two sightings can happen transiently while churn settles; three of the
/// same global routing state with work still queued means a cycle.
const WATCHDOG_STRIKES: u32 = 3;

/// Immutable topology shared by every shard: the graph's
/// [`GraphIndex`](as_topology::GraphIndex) numbering (node `i` is the `i`-th
/// smallest ASN) and its CSR adjacency laid out for the event loop,
/// constructed once and reference-counted. Per-session state lives in plain
/// `Vec`s indexed by flat edge id, so the event loop does array arithmetic
/// instead of walking `BTreeMap<(Asn, Asn), _>` trees. Edge ids are *global* — identical for
/// every shard count — which is what makes the intrinsic event order and the
/// per-edge fault RNG streams invariant under re-sharding.
#[derive(Debug)]
struct Topo {
    /// Per dense node, ascending by ASN, and one sentinel: the node's ASN
    /// and the start of its CSR row into the per-edge vectors, so a node's
    /// row is `rows[i].first..rows[i + 1].first`. Side by side, a delivery
    /// reads both from one line.
    rows: Vec<Row>,
    /// CSR column data: per directed edge, everything a send over it reads.
    /// A fan-out walks one contiguous run of the sender's row.
    links: Vec<Link>,
    /// Per directed edge: the neighbor's ASN. A node's row of it is its
    /// router's peer list, ascending.
    peer_asn: Vec<Asn>,
    /// Per dense node index: owning shard.
    assignment: Vec<u32>,
    /// The numbering itself: node `i` here is node `i` of the graph's index.
    nodes: NodeNumbering,
}

/// One directed edge `a -> b` of the CSR topology: see [`Topo::links`].
#[derive(Debug, Clone, Copy)]
struct Link {
    /// `b`'s dense node index.
    peer: u32,
    /// The offset of the opposite edge `b -> a` in `b`'s row. The offset of
    /// an edge in its row is the peer's slot in the sending router, so this
    /// is `a`'s slot in `b`, which the sender stamps on the delivery.
    rev_slot: u32,
    /// Link delay in ticks (>= 1).
    delay: u32,
    /// The shard that owns `b`: where a delivery over this edge is queued.
    shard: u32,
}

const _: () = assert!(std::mem::size_of::<Link>() == 16);

/// One node of the CSR topology: see [`Topo::rows`].
#[derive(Debug, Clone, Copy)]
struct Row {
    asn: Asn,
    first: u32,
}

impl Topo {
    fn node_count(&self) -> usize {
        self.rows.len() - 1
    }

    fn asn(&self, index: usize) -> Asn {
        self.rows[index].asn
    }

    /// Node `index`'s sessions: its range of edge ids.
    fn edges(&self, index: usize) -> std::ops::Range<usize> {
        self.rows[index].first as usize..self.rows[index + 1].first as usize
    }

    fn index_of(&self, asn: Asn) -> Option<usize> {
        self.nodes.index_of(asn)
    }

    /// Where node `index`'s router sits: its ASN and CSR row.
    fn node(&self, index: usize) -> Node<'_> {
        let edges = self.edges(index);
        Node {
            asn: self.asn(index),
            index,
            first: edges.start,
            peers: &self.peer_asn[edges],
        }
    }

    fn edge_between(&self, from: usize, to: usize) -> Option<usize> {
        let edges = self.edges(from);
        let row = &self.links[edges.clone()];
        row.binary_search_by_key(&(to as u32), |link| link.peer)
            .ok()
            .map(|k| edges.start + k)
    }

    fn edge_endpoints(&self, e: usize) -> (Asn, Asn) {
        let from = self.rows.partition_point(|row| row.first as usize <= e) - 1;
        let to = self.links[e].peer as usize;
        (self.asn(from), self.asn(to))
    }

    /// Edge `e`'s `(from, to)` ASN pair packed into one `u64`; ascending in
    /// edge id, because rows and the ASNs they index are both ascending.
    fn edge_key(&self, e: usize) -> u64 {
        let (from, to) = self.edge_endpoints(e);
        (u64::from(from.0) << 32) | u64::from(to.0)
    }

    fn directed_edges(&self, a: Asn, b: Asn) -> Result<(usize, usize), FaultPlanError> {
        let ia = self.index_of(a).ok_or(FaultPlanError::UnknownAs(a))?;
        let ib = self.index_of(b).ok_or(FaultPlanError::UnknownAs(b))?;
        let ab = self
            .edge_between(ia, ib)
            .ok_or(FaultPlanError::NotALink(a, b))?;
        let ba = self
            .edge_between(ib, ia)
            .ok_or(FaultPlanError::NotALink(a, b))?;
        Ok((ab, ba))
    }
}

/// A shard-queue event. Its kind and its id — the directed edge, or the
/// timeline entry — are its key's (see [`Scheduled`]), and a delivery reads
/// its receiver and slot from the topology's record of its edge, which the
/// sorted round walks in ascending order. So the record is three words and
/// `Copy`, and an announcement in it is a handle into the shard's route
/// arena that the event holds one count of.
#[derive(Debug, Clone, Copy)]
enum ShardEvent {
    /// A message in flight over the edge. `epoch` is the sending session's
    /// epoch at transmission time: if the session fails or resets while the
    /// message is in flight, the epoch moves on and the stale message is
    /// discarded on delivery — even if the link has since come back up.
    Deliver {
        epoch: u32,
        /// `None` when the link's fault model damaged the message in
        /// flight: the receiver detects the damage, discards it unread, and
        /// counts it, so its route was released when it was sent.
        update: Option<SharedUpdate>,
    },
    /// The edge's MRAI window expired: flush its pending updates.
    MraiFlush,
    /// The fault-plan timeline entry fires.
    Fault,
}

impl ShardEvent {
    /// This event under the intrinsic key `(kind, id, seq)`, its kind
    /// following its variant.
    fn keyed(self, id: u32, seq: u32) -> Event {
        let kind = match self {
            ShardEvent::Deliver { .. } => DELIVER,
            ShardEvent::MraiFlush => MRAI_FLUSH,
            ShardEvent::Fault => FAULT,
        };
        Scheduled::new(kind, id, seq, self)
    }
}

/// Event kinds, the first component of the intrinsic ordering key (see
/// [`Scheduled`]): within a timestamp, events sort as
///
/// * Deliver   = `(0, global edge id, per-edge send sequence)`
/// * MraiFlush = `(1, global edge id, 0)`
/// * Fault     = `(2, timeline entry index, 0)`
const DELIVER: u64 = 0;
const MRAI_FLUSH: u64 = 1;
const FAULT: u64 = 2;

type Event = Scheduled<ShardEvent>;

const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// A delivery bound for another shard. A handle names a route in its own
/// shard's arena only, so the route travels materialised and the receiving
/// shard interns it again; the time travels beside the event, as the
/// receiving bucket will hold it.
#[derive(Debug, Clone)]
struct Mail {
    time: SimTime,
    edge: u32,
    seq: u32,
    epoch: u32,
    /// `None` for a message damaged in flight.
    update: Option<Update>,
}

/// Fault-plan state replicated on every shard. The timeline, remaining
/// counts, and models are identical replicas (global events must fire on all
/// shards at the same virtual time); message-fate RNGs are **per edge**,
/// seeded from `(plan seed, global edge id)`, and only ever drawn by the
/// sending router's owner shard — so each edge's fate stream is the same for
/// every shard count.
#[derive(Debug)]
struct ShardFaults {
    seed: u64,
    rngs: BTreeMap<u32, SmallRng>,
    models: BTreeMap<usize, LinkFaultModel>,
    stats: Vec<FaultStats>,
    timeline: Vec<TimelineEntry>,
    remaining: Vec<Option<u64>>,
}

/// One directed session's MRAI state.
#[derive(Debug, Clone, Default)]
struct MraiWindow {
    /// The earliest time the next batch may be sent.
    gate: SimTime,
    /// Updates held back while the window is closed, newest per prefix;
    /// each holds a count of its route.
    pending: BTreeMap<Ipv4Prefix, SharedUpdate>,
}

/// One partition of the network: full-width per-edge state vectors (indexed
/// by global edge id), but only the entries a shard *owns* are ever written —
/// sent-side fields by the sender's owner, received-side fields by the
/// receiver's owner — so merging shard states is a plain field-wise sum.
#[derive(Debug)]
struct Shard<M> {
    id: u32,
    topo: Arc<Topo>,
    /// The routing state, in full-width tables parallel to the topology
    /// (only owned nodes' entries are ever read or written), and the arena
    /// of every route the shard holds.
    rib: Rib,
    /// What the router driven last wants sent; drained by `enqueue`.
    out: Outbox,
    queue: Agenda<ShardEvent>,
    now: SimTime,
    /// Last time forwarded to the monitor's `on_clock`.
    clock_mark: SimTime,
    /// Per directed edge: sent/received update counters.
    sessions: Vec<SessionCounters>,
    monitor: M,
    stats: NetworkStats,
    /// Minimum route advertisement interval per directed session; 0 = off.
    mrai: u64,
    /// Per directed edge: the MRAI window. Empty until MRAI is first
    /// enabled — most networks never enable it.
    mrai_windows: Vec<MraiWindow>,
    /// Per directed edge: the next send sequence (intrinsic Deliver key).
    edge_seq: Vec<u32>,
    /// Per directed edge: the session epoch. Bumped when the link fails or
    /// the session resets; in-flight messages stamped with an older epoch
    /// are discarded on delivery. Replicated identically on every shard
    /// (bumped only by globally-applied fault events).
    epochs: Vec<u32>,
    /// `true` once any epoch has been bumped — gates the per-delivery epoch
    /// lookup so fault-free runs keep the short hot path.
    epochs_active: bool,
    /// Links currently failed (endpoints ordered low-high). Failure injection
    /// may name ASes outside the graph, so this stays keyed by ASN; the hot
    /// path short-circuits on `is_empty`.
    failed_links: BTreeSet<(Asn, Asn)>,
    /// Installed fault plan state, if any. Boxed so fault-free networks pay
    /// one pointer.
    faults: Option<Box<ShardFaults>>,
    /// Cross-shard messages produced since the last drain: `(dest shard,
    /// message)`.
    outbox: Vec<(u32, Mail)>,
}

/// One barrier-round command from the coordinator.
#[derive(Debug, Clone)]
enum Cmd {
    /// Advance to `time`, absorb `inbox`, process every event at `time`.
    Step { time: SimTime, inbox: Vec<Mail> },
    /// Hash the owned slice of the routing state (watchdog support).
    Fingerprint,
}

#[derive(Debug)]
enum RoundReply {
    Step {
        fired: u64,
        outbox: Vec<(u32, Mail)>,
        next_time: Option<SimTime>,
        queued: usize,
    },
    Fingerprint(u64),
}

/// What one lockstep round over every shard reports to the coordinator.
#[derive(Debug, Default)]
struct Round {
    /// Events processed this round (replicated fault firings counted once).
    fired: u64,
    /// The earliest event still queued on any shard.
    next_time: Option<SimTime>,
    /// Events still queued, summed over the shards.
    queued: usize,
}

impl Round {
    fn absorb(&mut self, fired: u64, next_time: Option<SimTime>, queued: usize) {
        self.fired += fired;
        self.next_time = self.next_time.into_iter().chain(next_time).min();
        self.queued += queued;
    }
}

impl<M: RouteMonitor> Shard<M> {
    fn owns(&self, node: usize) -> bool {
        self.topo.assignment[node] == self.id
    }

    /// The dense index of `asn`, if it is in the network and this shard owns
    /// it: router mutations run only on the owner.
    fn owned(&self, asn: Asn) -> Option<usize> {
        self.topo.index_of(asn).filter(|&idx| self.owns(idx))
    }

    fn link_is_down(&self, a: Asn, b: Asn) -> bool {
        !self.failed_links.is_empty() && self.failed_links.contains(&link_key(a, b))
    }

    /// [`Shard::link_is_down`] between two nodes. Failed links are keyed by
    /// ASN, which is looked up only while some link is failed.
    fn session_is_down(&self, a: usize, b: usize) -> bool {
        !self.failed_links.is_empty() && {
            let (a, b) = (self.topo.asn(a), self.topo.asn(b));
            self.failed_links.contains(&link_key(a, b))
        }
    }

    fn push(&mut self, time: SimTime, event: Event) {
        debug_assert!(time >= self.now, "event scheduled into the past");
        self.queue.push(time, event);
    }

    /// Queues a delivery another shard sent, interning its route here.
    fn post(&mut self, mail: Mail) {
        let Mail {
            time,
            edge,
            seq,
            epoch,
            update,
        } = mail;
        let update = update.map(|update| SharedUpdate::intern(update, &mut self.rib.routes));
        self.push(time, ShardEvent::Deliver { epoch, update }.keyed(edge, seq));
    }

    /// One pooled round: `run_with_limit` on one thread calls `push`, `step`
    /// and `fingerprint` directly instead.
    fn execute(&mut self, cmd: Cmd) -> RoundReply {
        match cmd {
            Cmd::Step { time, inbox } => {
                for mail in inbox {
                    self.post(mail);
                }
                RoundReply::Step {
                    fired: self.step(time),
                    outbox: std::mem::take(&mut self.outbox),
                    next_time: self.queue.next_time(),
                    queued: self.queue.len(),
                }
            }
            Cmd::Fingerprint => RoundReply::Fingerprint(self.fingerprint()),
        }
    }

    /// Processes every event at exactly `time` and returns how many fired.
    /// Deliver and MraiFlush events are each unique to one shard; Fault
    /// events are replicated on every shard, so only shard 0 counts them and
    /// the coordinator may sum the returns. All delays are >= 1 tick, so
    /// processing can enqueue only strictly-future events and the loop always
    /// terminates; the clock is advanced even on shards with nothing to do,
    /// keeping `now` identical everywhere between rounds.
    fn step(&mut self, time: SimTime) -> u64 {
        self.now = time;
        let mut due = self.queue.take(time);
        if due.is_empty() {
            return 0;
        }
        if self.clock_mark != time {
            self.clock_mark = time;
            self.monitor.on_clock(time);
        }
        let mut fired = 0u64;
        for sch in due.drain(..) {
            if self.id == 0 || !matches!(sch.event, ShardEvent::Fault) {
                fired += 1;
            }
            self.process(sch);
        }
        self.queue.recycle(due);
        fired
    }

    fn process(&mut self, sch: Event) {
        let id = sch.id();
        match sch.event {
            ShardEvent::Deliver { epoch, update } => self.deliver(id as usize, epoch, update),
            ShardEvent::MraiFlush => {
                let edge = id as usize;
                let window = &mut self.mrai_windows[edge];
                let pending = std::mem::take(&mut window.pending);
                if pending.is_empty() {
                    return;
                }
                window.gate = self.now + self.mrai;
                let link = self.topo.links[edge];
                for (_, update) in pending {
                    self.schedule_delivery(edge, link, update);
                }
            }
            ShardEvent::Fault => {
                let idx = id as usize;
                let Some(faults) = self.faults.as_deref_mut() else {
                    return;
                };
                let mut reschedule = None;
                if let Some(period) = faults.timeline[idx].period {
                    let fire_again = match &mut faults.remaining[idx] {
                        None => true,
                        Some(n) if *n > 1 => {
                            *n -= 1;
                            true
                        }
                        Some(n) => {
                            *n = 0;
                            false
                        }
                    };
                    if fire_again {
                        reschedule = Some(period);
                    }
                }
                let event = faults.timeline[idx].event.clone();
                if let Some(period) = reschedule {
                    self.push(self.now + period, ShardEvent::Fault.keyed(id, 0));
                }
                self.apply_fault_event(event);
            }
        }
    }

    /// Hands a message that arrived over `edge` to its receiver, or drops
    /// it: on a failed link, from a session epoch that has since moved on,
    /// or damaged in flight.
    fn deliver(&mut self, edge: usize, epoch: u32, update: Option<SharedUpdate>) {
        let Link {
            peer: to,
            rev_slot: slot,
            ..
        } = self.topo.links[edge];
        let to = to as usize;
        debug_assert!(self.owns(to), "delivery routed to the wrong shard");
        // The sender is found from the reverse edge, and only while some
        // link is down.
        let link_down = !self.failed_links.is_empty() && {
            let from = self.topo.links[self.topo.edges(to).start + slot as usize].peer;
            self.session_is_down(from as usize, to)
        };
        // A stale epoch means the session failed or reset after this
        // message was sent: it is lost even if the link has since come back
        // up.
        if link_down || (self.epochs_active && self.epochs[edge] != epoch) {
            if let Some(update) = update {
                update.discard(&mut self.rib.routes);
            }
            self.drop_in_flight(edge);
            return;
        }
        let Some(update) = update else {
            // The receiver detects the damage and discards the update; the
            // session survives (we do not model the RFC 4271 NOTIFICATION
            // teardown for single bad messages — see DESIGN.md "Fault
            // model").
            self.stats.corrupted_dropped += 1;
            if let Some(f) = self.faults.as_deref_mut() {
                f.stats[edge].corrupted += 1;
            }
            return;
        };
        match update {
            SharedUpdate::Announce(_) => {
                self.stats.announcements += 1;
                self.sessions[edge].recv_announcements += 1;
            }
            SharedUpdate::Withdraw(_) => {
                self.stats.withdrawals += 1;
                self.sessions[edge].recv_withdrawals += 1;
            }
        }
        self.drive(to, |r, m, out| r.handle_update(slot, update, m, out));
    }

    /// Executes one scripted fault event. Global state transitions (failed
    /// links, epochs, MRAI clears) run on every shard — each replica applies
    /// them at the same virtual time in the same intrinsic order, so replicas
    /// never diverge. Router mutations run only on the owner shard.
    fn apply_fault_event(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::FailLink(a, b) => self.fail_link(a, b),
            FaultEvent::RestoreLink(a, b) => self.restore_link(a, b),
            FaultEvent::ResetSession(a, b) => self.reset_session(a, b),
            FaultEvent::Announce { asn, route } => {
                if let Some(idx) = self.owned(asn) {
                    self.drive(idx, |r, m, out| r.originate(route, m, out));
                }
            }
            FaultEvent::Withdraw { asn, prefix } => {
                if let Some(idx) = self.owned(asn) {
                    self.drive(idx, |r, m, out| r.withdraw_origin(prefix, m, out));
                }
            }
            FaultEvent::ToggleOrigin { asn, route } => {
                let Some(idx) = self.owned(asn) else {
                    return;
                };
                self.drive(idx, |r, m, out| {
                    let prefix = route.prefix();
                    if r.view().originates(prefix) {
                        r.withdraw_origin(prefix, m, out);
                    } else {
                        r.originate(route, m, out);
                    }
                });
            }
        }
    }

    fn fail_link(&mut self, a: Asn, b: Asn) {
        if !self.failed_links.insert(link_key(a, b)) {
            return;
        }
        if let (Some(ia), Some(ib)) = (self.topo.index_of(a), self.topo.index_of(b)) {
            for (x, y) in [(ia, ib), (ib, ia)] {
                if let Some(e) = self.topo.edge_between(x, y) {
                    self.clear_mrai(e);
                    self.epochs[e] = self.epochs[e].wrapping_add(1);
                    self.epochs_active = true;
                }
            }
        }
        for (local, peer) in [(a, b), (b, a)] {
            if let Some(idx) = self.owned(local) {
                self.drive(idx, |r, m, out| r.peer_down(peer, m, out));
            }
        }
    }

    fn restore_link(&mut self, a: Asn, b: Asn) {
        if !self.failed_links.remove(&link_key(a, b)) {
            return;
        }
        for (local, peer) in [(a, b), (b, a)] {
            if let Some(idx) = self.owned(local) {
                self.drive(idx, |r, m, out| r.refresh_peer(peer, m, out));
            }
        }
    }

    fn reset_session(&mut self, a: Asn, b: Asn) {
        if self.link_is_down(a, b) {
            return;
        }
        let (Some(ia), Some(ib)) = (self.topo.index_of(a), self.topo.index_of(b)) else {
            return;
        };
        let (Some(ab), Some(ba)) = (
            self.topo.edge_between(ia, ib),
            self.topo.edge_between(ib, ia),
        ) else {
            return;
        };
        for e in [ab, ba] {
            self.clear_mrai(e);
            self.epochs[e] = self.epochs[e].wrapping_add(1);
        }
        self.epochs_active = true;
        for (idx, peer) in [(ia, b), (ib, a)] {
            if self.owns(idx) {
                self.drive(idx, |r, m, out| r.peer_down(peer, m, out));
            }
        }
        for (idx, peer) in [(ia, b), (ib, a)] {
            if self.owns(idx) {
                self.drive(idx, |r, m, out| r.refresh_peer(peer, m, out));
            }
        }
    }

    /// Forgets a session's MRAI window (there is none until MRAI is
    /// enabled), releasing the routes it held back.
    fn clear_mrai(&mut self, edge: usize) {
        if let Some(window) = self.mrai_windows.get_mut(edge) {
            for update in std::mem::take(window).pending.into_values() {
                update.discard(&mut self.rib.routes);
            }
        }
    }

    fn drop_in_flight(&mut self, edge: usize) {
        self.stats.dropped_on_failed_links += 1;
        if let Some(f) = self.faults.as_deref_mut() {
            f.stats[edge].dropped_link_down += 1;
        }
    }

    /// Runs `f` on node `idx`'s router with this shard's monitor and
    /// outbox, then sends what it left there.
    fn drive(&mut self, idx: usize, f: impl FnOnce(&mut Speaker<'_>, &mut M, &mut Outbox)) {
        let mut speaker = Speaker::new(self.topo.node(idx), &mut self.rib);
        f(&mut speaker, &mut self.monitor, &mut self.out);
        self.enqueue(idx);
    }

    /// The read-only view of node `idx`'s router in this shard's tables.
    fn router(&self, idx: usize) -> Router<'_> {
        Router::new(self.topo.node(idx), &self.rib)
    }

    /// Sends what router `from` just left in `out`. A router addresses its
    /// peers by slot, which is the offset of the session's edge in its row.
    fn enqueue(&mut self, from: usize) {
        let mut out = std::mem::take(&mut self.out);
        let first = self.topo.edges(from).start;
        for (slot, update) in out.drain(..) {
            let edge = first + slot as usize;
            let link = self.topo.links[edge];
            if self.session_is_down(from, link.peer as usize) {
                update.discard(&mut self.rib.routes);
                continue;
            }
            if self.mrai == 0 {
                self.schedule_delivery(edge, link, update);
                continue;
            }
            let now = self.now;
            let window = &mut self.mrai_windows[edge];
            let gate = window.gate;
            if now >= gate && window.pending.is_empty() {
                // Window open: send immediately and start a new window.
                window.gate = now + self.mrai;
                self.schedule_delivery(edge, link, update);
            } else {
                // Window closed: coalesce, newest update per prefix wins.
                self.stats.mrai_deferred += 1;
                let prefix = update.prefix(&self.rib.routes);
                if let Some(older) = window.pending.insert(prefix, update) {
                    older.discard(&mut self.rib.routes);
                    self.stats.mrai_coalesced += 1;
                }
                // Schedule the flush the first time the batch forms.
                if window.pending.len() == 1 {
                    let wait = gate.ticks().saturating_sub(now.ticks()).max(1);
                    self.push(now + wait, ShardEvent::MraiFlush.keyed(edge as u32, 0));
                }
            }
        }
        self.out = out;
    }

    /// The single choke point for deliveries over `edge`, whose record is
    /// `link`: stamps the epoch, applies the edge's fault model, assigns the
    /// intrinsic send sequence, and routes the event to the receiver's
    /// queue — local push, or cross-shard outbox with the route copied out.
    /// The update's count moves into the event; inlined into the send loop,
    /// the event stays in registers.
    ///
    /// # Panics
    ///
    /// Panics when the edge's send sequence is full (2^32 - 1 messages):
    /// the intrinsic order must not wrap.
    #[inline(always)]
    fn schedule_delivery(&mut self, edge: usize, link: Link, update: SharedUpdate) {
        match update {
            SharedUpdate::Announce(_) => self.sessions[edge].sent_announcements += 1,
            SharedUpdate::Withdraw(_) => self.sessions[edge].sent_withdrawals += 1,
        }
        let epoch = self.epochs[edge];
        let mut delay = u64::from(link.delay);
        let mut damaged = false;
        let mut copies = 1;
        if let Some(faults) = self.faults.as_deref_mut() {
            if let Some(model) = faults.models.get(&edge) {
                let seed = faults.seed;
                let rng = faults.rngs.entry(edge as u32).or_insert_with(|| {
                    bgp_types::rng::from_seed(bgp_types::rng::derive_seed(seed, edge as u64))
                });
                match model.decide(rng) {
                    FaultAction::Deliver => faults.stats[edge].delivered += 1,
                    FaultAction::Drop => {
                        faults.stats[edge].dropped += 1;
                        update.discard(&mut self.rib.routes);
                        return;
                    }
                    FaultAction::Duplicate => {
                        faults.stats[edge].duplicated += 1;
                        copies = 2;
                    }
                    FaultAction::Delay(extra) => {
                        faults.stats[edge].reordered += 1;
                        delay += extra;
                    }
                    FaultAction::Corrupt => damaged = true,
                }
            }
        }
        // A damaged message is discarded unread: it keeps no route.
        let update = if damaged {
            update.discard(&mut self.rib.routes);
            None
        } else {
            Some(update)
        };
        if let (2, Some(SharedUpdate::Announce(id))) = (copies, update) {
            self.rib.routes.retain(id);
        }
        let time = self.now + delay;
        for _ in 0..copies {
            let seq = self.edge_seq[edge];
            let Some(next) = seq.checked_add(1) else {
                panic!("edge {edge} has sent {seq} messages: its send sequence is full");
            };
            self.edge_seq[edge] = next;
            if link.shard == self.id {
                let event = ShardEvent::Deliver { epoch, update }.keyed(edge as u32, seq);
                self.push(time, event);
            } else {
                let update = update.map(|update| update.into_update(&mut self.rib.routes));
                let edge = edge as u32;
                let mail = Mail {
                    time,
                    edge,
                    seq,
                    epoch,
                    update,
                };
                self.outbox.push((link.shard, mail));
            }
        }
    }

    /// Checks the shard's route arena against every holder of a route: the
    /// tables, the queued deliveries, the MRAI windows and the outbox. `Ok`
    /// carries the number of live routes.
    fn audit_routes(&self) -> Result<usize, String> {
        let announced = |update: &SharedUpdate| match *update {
            SharedUpdate::Announce(id) => Some(id),
            SharedUpdate::Withdraw(_) => None,
        };
        let queued = self.queue.iter().filter_map(|sch| match &sch.event {
            ShardEvent::Deliver { update, .. } => update.as_ref().and_then(announced),
            ShardEvent::MraiFlush | ShardEvent::Fault => None,
        });
        let windows = self.mrai_windows.iter().flat_map(|w| w.pending.values());
        let out = self.out.iter().map(|(_, update)| update);
        let pending = windows.chain(out).filter_map(announced);
        self.rib
            .routes
            .audit(self.rib.held().chain(queued).chain(pending))
    }

    /// Per-node FNV hash of the owned routing slice, combined by *wrapping
    /// sum*. Addition commutes, so the total over all shards is independent
    /// of the shard layout (every node is owned exactly once).
    fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        fn mix(h: u64, word: u64) -> u64 {
            (h ^ word).wrapping_mul(PRIME)
        }
        let mut total = 0u64;
        for node in 0..self.topo.node_count() {
            if !self.owns(node) {
                continue;
            }
            let router = self.router(node);
            let mut h = OFFSET;
            h = mix(h, node as u64);
            for prefix in router.prefixes() {
                h = mix(
                    h,
                    (u64::from(prefix.network()) << 8) | u64::from(prefix.len()),
                );
                h = match router.best_learned_from(prefix) {
                    Some(peer) => mix(h, u64::from(peer.0) | (1 << 40)),
                    None => mix(h, 1 << 41),
                };
                if let Some(route) = router.best_route(prefix) {
                    for asn in route.as_path().iter() {
                        h = mix(h, u64::from(asn.0));
                    }
                }
                h = mix(h, u64::MAX);
            }
            total = total.wrapping_add(h);
        }
        total
    }
}

fn link_key(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The barrier driver: the shards run either inline on the calling thread
/// (`Vec<Shard>`, the sequential reference path and the only one a monitor
/// that is not `Send` can take) or pinned to long-lived [`minipool::Crew`]
/// workers. Both run the *same* shard code at the *same* sequence of
/// timestamps, so results are bit-identical.
trait Rounds {
    /// Hands every message in `mail` to its destination shard, advances all
    /// shards to `time`, and leaves the cross-shard messages they produced
    /// in `mail`.
    fn step(&mut self, time: SimTime, mail: &mut Vec<(u32, Mail)>) -> Round;

    /// The wrapping sum of every shard's routing fingerprint.
    fn fingerprint(&mut self) -> u64;
}

impl<M: RouteMonitor> Rounds for Vec<Shard<M>> {
    fn step(&mut self, time: SimTime, mail: &mut Vec<(u32, Mail)>) -> Round {
        for (dest, msg) in mail.drain(..) {
            self[dest as usize].post(msg);
        }
        let mut round = Round::default();
        for shard in self.iter_mut() {
            let fired = shard.step(time);
            mail.append(&mut shard.outbox);
            round.absorb(fired, shard.queue.next_time(), shard.queue.len());
        }
        round
    }

    fn fingerprint(&mut self) -> u64 {
        fingerprint_sum(self)
    }
}

/// The wrapping sum of the shards' fingerprints: the same for every layout,
/// since every node is owned (and hashed) exactly once.
fn fingerprint_sum<M: RouteMonitor>(shards: &[Shard<M>]) -> u64 {
    shards
        .iter()
        .fold(0, |acc, shard| acc.wrapping_add(shard.fingerprint()))
}

impl<M: RouteMonitor + Send + 'static> Rounds for minipool::Crew<Shard<M>, Cmd, RoundReply> {
    fn step(&mut self, time: SimTime, mail: &mut Vec<(u32, Mail)>) -> Round {
        let mut inboxes: Vec<Vec<Mail>> = vec![Vec::new(); self.len()];
        for (dest, msg) in mail.drain(..) {
            inboxes[dest as usize].push(msg);
        }
        let cmds = inboxes
            .into_iter()
            .map(|inbox| Cmd::Step { time, inbox })
            .collect();
        let mut round = Round::default();
        for reply in self.round(cmds) {
            let RoundReply::Step {
                fired,
                outbox,
                next_time,
                queued,
            } = reply
            else {
                unreachable!("Step command returns a Step reply");
            };
            mail.extend(outbox);
            round.absorb(fired, next_time, queued);
        }
        round
    }

    fn fingerprint(&mut self) -> u64 {
        let cmds = vec![Cmd::Fingerprint; self.len()];
        self.round(cmds).into_iter().fold(0, |acc, reply| {
            let RoundReply::Fingerprint(h) = reply else {
                unreachable!("Fingerprint command returns a hash");
            };
            acc.wrapping_add(h)
        })
    }
}

/// An AS-level BGP network partitioned over per-shard engines, driven to
/// quiescence in deterministic lockstep rounds.
///
/// Construction partitions the graph with [`Partition`] (greedy balanced
/// edge-cut), builds one engine per shard around a shared CSR topology, and
/// gives each shard its own monitor from a factory closure. `jobs > 1` runs
/// the shards on long-lived worker threads; the results are identical either
/// way, and identical **for every shard count** — that invariance is pinned
/// by the differential tests in `experiments`.
///
/// # Example
///
/// ```
/// use as_topology::InternetModel;
/// use bgp_engine::ShardedNetwork;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = InternetModel::new().transit_count(5).stub_count(20).build(1);
/// let victim = graph.stub_asns()[0];
/// let prefix = as_topology::prefix_for_asn(victim);
///
/// let mut net = ShardedNetwork::new(&graph, 2);
/// net.originate(victim, prefix, None);
/// net.run()?;
/// assert!(graph.asns().all(|asn| net.best_origin(asn, prefix) == Some(victim)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedNetwork<M = NoopMonitor> {
    topo: Arc<Topo>,
    shards: Vec<Shard<M>>,
    jobs: usize,
    watchdog: u64,
    now: SimTime,
    converged_at: SimTime,
    /// Deliver + MraiFlush + (deduplicated) Fault events processed over the
    /// network's lifetime; the sharded analogue of `sim.events.fired`.
    fired_lifetime: u64,
    /// Cross-shard messages awaiting distribution at the next round.
    pending: Vec<(u32, Mail)>,
    plan_installed: bool,
    cut_links: usize,
}

impl ShardedNetwork<NoopMonitor> {
    /// Builds a plain sharded BGP network (no validation, unit delays,
    /// inline execution).
    #[must_use]
    pub fn new(graph: &AsGraph, shard_count: usize) -> Self {
        ShardedNetwork::with_monitor_factory(graph, shard_count, 1, || NoopMonitor)
    }
}

impl<M: RouteMonitor> ShardedNetwork<M> {
    /// Builds a sharded network whose shards each consult a monitor produced
    /// by `monitor` (called once per shard). All links have unit delay.
    /// `jobs <= 1` (or a single shard) runs every round inline on the calling
    /// thread.
    #[must_use]
    pub fn with_monitor_factory(
        graph: &AsGraph,
        shard_count: usize,
        jobs: usize,
        monitor: impl FnMut() -> M,
    ) -> Self {
        ShardedNetwork::build(graph, shard_count, jobs, None, monitor)
    }

    /// Like [`ShardedNetwork::with_monitor_factory`], but each directed link
    /// gets an independent delay drawn uniformly from `1..=max_delay`, in
    /// global link order, so the timing pattern depends only on
    /// `(graph, seed)`, never on the shard count. Varying delays explore
    /// different propagation races, which is what makes Monte Carlo runs
    /// meaningful.
    #[must_use]
    pub fn with_monitor_and_jitter(
        graph: &AsGraph,
        shard_count: usize,
        jobs: usize,
        seed: u64,
        max_delay: u64,
        monitor: impl FnMut() -> M,
    ) -> Self {
        ShardedNetwork::build(graph, shard_count, jobs, Some((seed, max_delay)), monitor)
    }

    fn build(
        graph: &AsGraph,
        shard_count: usize,
        jobs: usize,
        jitter: Option<(u64, u64)>,
        mut monitor: impl FnMut() -> M,
    ) -> Self {
        let index = graph.index();
        let n = index.len();
        // One shard owns everything and cuts nothing: no need to partition.
        let (shard_count, assignment, cut_links) = if shard_count <= 1 {
            (1, vec![0; n], 0)
        } else {
            let partition = Partition::of(&index, shard_count);
            (
                partition.shard_count(),
                partition.assignment().to_vec(),
                partition.cut_links(),
            )
        };
        // The sentinel is not a node: it closes the last node's row.
        let sentinel = std::iter::once(Asn(u32::MAX));
        let rows: Vec<Row> = (index.asns().iter().copied().chain(sentinel))
            .zip(index.first())
            .map(|(asn, &first)| Row { asn, first })
            .collect();
        let mut links: Vec<Link> = (index.peers().iter())
            .map(|&peer| Link {
                peer,
                rev_slot: 0,
                delay: 1,
                shard: assignment[peer as usize],
            })
            .collect();
        let peer_asn: Vec<Asn> = (index.peers().iter())
            .map(|&peer| index.asns()[peer as usize])
            .collect();
        let edges = links.len();
        assert!(
            edges <= MAX_ID as usize + 1,
            "{edges} directed edges do not fit the event key's {} edge ids",
            MAX_ID as usize + 1
        );
        // Rows are ascending and links symmetric, so walking the edges in id
        // order meets the edges *into* each node in that node's row order:
        // the k-th edge into `b` is the reverse of the k-th edge out of it.
        let mut into = vec![0u32; n];
        for link in &mut links {
            let to = link.peer as usize;
            link.rev_slot = into[to];
            into[to] += 1;
        }
        let mut topo = Topo {
            rows,
            links,
            peer_asn,
            assignment,
            nodes: index.into_numbering(),
        };
        debug_assert!((0..n).all(|a| topo.edges(a).all(|e| {
            let Link { peer, rev_slot, .. } = topo.links[e];
            let back = topo.edges(peer as usize).start + rev_slot as usize;
            topo.links[back].peer as usize == a
        })));
        if let Some((seed, max_delay)) = jitter {
            // One draw per direction per link, in `graph.links()` order:
            // ascending `(low, high)` pairs, which is each row's edges to
            // higher-numbered peers, rows in order. So the walk needs no
            // search, and the draws land where they always have. A delay
            // is held in 32 bits, so the bound is capped at `u32::MAX`.
            let max_delay = max_delay.clamp(1, u64::from(u32::MAX));
            let mut rng = bgp_types::rng::from_seed(seed);
            let mut draw = || rng.gen_range(1..=max_delay) as u32;
            for from in 0..n {
                for ab in topo.edges(from) {
                    let Link { peer, rev_slot, .. } = topo.links[ab];
                    let to = peer as usize;
                    if to > from {
                        let ba = topo.edges(to).start + rev_slot as usize;
                        topo.links[ab].delay = draw();
                        topo.links[ba].delay = draw();
                    }
                }
            }
        }
        let topo = Arc::new(topo);
        let shards = (0..shard_count as u32)
            .map(|id| Shard {
                id,
                topo: Arc::clone(&topo),
                rib: Rib::new(n, edges),
                out: Outbox::new(),
                queue: Agenda::new(),
                now: SimTime::ZERO,
                clock_mark: SimTime::ZERO,
                sessions: vec![SessionCounters::default(); edges],
                monitor: monitor(),
                stats: NetworkStats::default(),
                mrai: 0,
                mrai_windows: Vec::new(),
                edge_seq: vec![0; edges],
                epochs: vec![0; edges],
                epochs_active: false,
                failed_links: BTreeSet::new(),
                faults: None,
                outbox: Vec::new(),
            })
            .collect();
        ShardedNetwork {
            topo,
            shards,
            jobs: jobs.max(1),
            watchdog: 0,
            now: SimTime::ZERO,
            converged_at: SimTime::ZERO,
            fired_lifetime: 0,
            pending: Vec::new(),
            plan_installed: false,
            cut_links,
        }
    }

    /// Number of shards (always >= 1).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Undirected links whose endpoints landed on different shards.
    #[must_use]
    pub fn cut_links(&self) -> usize {
        self.cut_links
    }

    /// Total events processed over the network's lifetime (replicated fault
    /// firings are counted once).
    #[must_use]
    pub fn events_fired(&self) -> u64 {
        self.fired_lifetime
    }

    /// Lifetime event-queue counters. `fired` is [`events_fired`] and the
    /// same for every shard count; `scheduled` (summed over the shards) and
    /// `depth_high_water` (the deepest single shard queue) describe the
    /// queues themselves and so depend on the shard layout — which is why
    /// [`export_metrics`] leaves them out.
    ///
    /// [`events_fired`]: ShardedNetwork::events_fired
    /// [`export_metrics`]: ShardedNetwork::export_metrics
    #[must_use]
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.shards.iter().map(|s| s.queue.scheduled()).sum(),
            fired: self.fired_lifetime,
            depth_high_water: self
                .shards
                .iter()
                .map(|s| s.queue.depth_high_water())
                .max()
                .unwrap_or(0),
        }
    }

    /// The current simulated time (the timestamp of the most recently
    /// processed event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The ASes in the network, ascending.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.topo.nodes.asns().iter().copied()
    }

    /// Read access to a router: a view of its owning shard's tables.
    #[must_use]
    pub fn router(&self, asn: Asn) -> Option<Router<'_>> {
        self.topo.index_of(asn).map(|idx| self.router_at(idx))
    }

    /// The router of node `idx`, read from its owning shard.
    fn router_at(&self, idx: usize) -> Router<'_> {
        self.shards[self.topo.assignment[idx] as usize].router(idx)
    }

    /// The best route an AS holds for `prefix`.
    #[must_use]
    pub fn best_route(&self, asn: Asn, prefix: Ipv4Prefix) -> Option<&Route> {
        self.router(asn)?.best_route(prefix)
    }

    /// The Loc-RIB best routes of `vantages`, as `(vantage, route)` pairs in
    /// `vantages` order; an AS not in the network contributes nothing. This
    /// is the input of `bgp_wire::export_rib_snapshot`.
    pub fn loc_ribs<'a>(
        &'a self,
        vantages: &'a [Asn],
    ) -> impl Iterator<Item = (Asn, &'a Route)> + 'a {
        let routers = vantages.iter().filter_map(|&asn| self.router(asn));
        routers.flat_map(|router| {
            let routes = router.prefixes().filter_map(move |p| router.best_route(p));
            routes.map(move |route| (router.asn(), route))
        })
    }

    /// The origin AS of the best route an AS holds for `prefix`.
    #[must_use]
    pub fn best_origin(&self, asn: Asn, prefix: Ipv4Prefix) -> Option<Asn> {
        self.router(asn)?.best_origin(prefix)
    }

    /// Each shard's monitor, in shard order. Observer-scoped state (alarms,
    /// verifier queries) can be summed across shards; the split of routers
    /// over monitors follows the partition.
    pub fn monitors(&self) -> impl Iterator<Item = &M> {
        self.shards.iter().map(|s| &s.monitor)
    }

    /// Mutable access to each shard's monitor, in shard order (e.g. to
    /// reconfigure between phases).
    pub fn monitors_mut(&mut self) -> impl Iterator<Item = &mut M> {
        self.shards.iter_mut().map(|s| &mut s.monitor)
    }

    /// Makes `asn` originate `prefix`, optionally attaching a MOAS list to
    /// its announcements (§4.2: origins of a multi-homed prefix attach the
    /// full list; `None` models pre-deployment behaviour — receivers then
    /// apply the implicit `{origin}` rule).
    ///
    /// Events are queued; call [`ShardedNetwork::run`] to propagate.
    ///
    /// # Panics
    ///
    /// Panics if `asn` is not in the network.
    pub fn originate(&mut self, asn: Asn, prefix: Ipv4Prefix, moas_list: Option<MoasList>) {
        let mut route = Route::new(prefix, AsPath::new());
        if let Some(list) = moas_list {
            route = route.with_moas_list(list);
        }
        self.originate_route(asn, route);
    }

    /// Makes `asn` originate an arbitrary pre-built route (the path should be
    /// empty; the router prepends its own ASN on export). Used by attacker
    /// models that forge attributes.
    ///
    /// # Panics
    ///
    /// Panics if `asn` is not in the network.
    pub fn originate_route(&mut self, asn: Asn, route: Route) {
        let idx = self
            .topo
            .index_of(asn)
            .expect("originating AS not in network");
        let shard = &mut self.shards[self.topo.assignment[idx] as usize];
        shard.drive(idx, |r, m, out| r.originate(route, m, out));
    }

    /// Makes `asn` stop originating `prefix`.
    ///
    /// # Panics
    ///
    /// Panics if `asn` is not in the network.
    pub fn withdraw(&mut self, asn: Asn, prefix: Ipv4Prefix) {
        let idx = self
            .topo
            .index_of(asn)
            .expect("withdrawing AS not in network");
        let shard = &mut self.shards[self.topo.assignment[idx] as usize];
        shard.drive(idx, |r, m, out| r.withdraw_origin(prefix, m, out));
    }

    /// Enables the minimum route advertisement interval: after a router sends
    /// an update to a peer, further updates for that peer are held and
    /// coalesced (newest per prefix wins) until `ticks` have elapsed
    /// (RFC 4271 §9.2.1.1; SSFnet enables a 30s MRAI by default). Pass 0 to
    /// disable. Takes effect for updates emitted after the call.
    pub fn set_mrai(&mut self, ticks: u64) {
        let edges = self.topo.links.len();
        for shard in &mut self.shards {
            shard.mrai = ticks;
            if ticks > 0 {
                shard.mrai_windows.resize(edges, MraiWindow::default());
            }
        }
    }

    /// Arms the convergence watchdog: the coordinator fingerprints the global
    /// routing state (every router's best table) whenever the processed-event
    /// count crosses a multiple of `interval_events` at a round boundary (at
    /// most once per boundary). Seeing the same fingerprint three times while
    /// work is still queued means the network is cycling, and
    /// [`ShardedNetwork::run`] returns [`ConvergenceError::Oscillating`]
    /// instead of burning the rest of the event budget. Pass 0 to disable
    /// (the default).
    ///
    /// Pick an interval comfortably larger than one convergence wave (a few
    /// thousand events) so transient states are not sampled often enough to
    /// trip the three-strike rule.
    pub fn set_watchdog(&mut self, interval_events: u64) {
        self.watchdog = interval_events;
    }

    /// Installs a fault plan: per-link perturbation models and a scripted
    /// event timeline, validated eagerly so the event loop never meets a
    /// dangling AS or link, and replicated onto every shard so global events
    /// (link failures, session resets) apply everywhere at the same virtual
    /// time. Timeline entries are scheduled at their absolute tick (or
    /// immediately if that tick already passed). Per-edge message-fate RNGs
    /// are seeded from `(plan seed, global edge id)` — see DESIGN.md for why
    /// this keeps fault streams identical across shard counts — so a run is
    /// bit-reproducible from `(network seed, plan)`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] when the plan names an AS outside the
    /// network, attaches a model or link event to a non-peering pair, or a
    /// plan is already installed.
    pub fn set_fault_plan(&mut self, plan: NetFaultPlan) -> Result<(), FaultPlanError> {
        if self.plan_installed {
            return Err(FaultPlanError::AlreadyInstalled);
        }
        for entry in &plan.timeline {
            for asn in entry.event.actors() {
                if self.topo.index_of(asn).is_none() {
                    return Err(FaultPlanError::UnknownAs(asn));
                }
            }
            if let FaultEvent::FailLink(a, b)
            | FaultEvent::RestoreLink(a, b)
            | FaultEvent::ResetSession(a, b) = entry.event
            {
                self.topo.directed_edges(a, b)?;
            }
        }
        let mut models = BTreeMap::new();
        for (&(a, b), &model) in &plan.link_models {
            let (ab, ba) = self.topo.directed_edges(a, b)?;
            models.insert(ab, model);
            models.insert(ba, model);
        }
        let timeline = plan.timeline;
        let remaining: Vec<Option<u64>> = timeline.iter().map(|e| e.count).collect();
        let edges = self.topo.links.len();
        for shard in &mut self.shards {
            for (i, entry) in timeline.iter().enumerate() {
                if entry.count == Some(0) {
                    continue;
                }
                let at = SimTime::from_ticks(entry.at).max(shard.now);
                shard.push(at, ShardEvent::Fault.keyed(i as u32, 0));
            }
            shard.faults = Some(Box::new(ShardFaults {
                seed: plan.seed,
                rngs: BTreeMap::new(),
                models: models.clone(),
                stats: vec![FaultStats::default(); edges],
                timeline: timeline.clone(),
                remaining: remaining.clone(),
            }));
        }
        self.plan_installed = true;
        Ok(())
    }

    /// Tears down the link between `a` and `b`: both routers treat every
    /// route learned over it as withdrawn and reconverge. Messages already
    /// in flight on the link are lost — the session epoch moves on, so they
    /// stay lost even if the link is restored before their delivery time.
    /// No-op for unknown or already-failed links.
    pub fn fail_link(&mut self, a: Asn, b: Asn) {
        for shard in &mut self.shards {
            shard.fail_link(a, b);
        }
    }

    /// Restores a previously failed link: both routers re-advertise their
    /// current best routes to each other, as a fresh BGP session
    /// establishment would. Messages that were in flight when the link
    /// failed remain lost (their epoch is stale). No-op if the link is up.
    pub fn restore_link(&mut self, a: Asn, b: Asn) {
        for shard in &mut self.shards {
            shard.restore_link(a, b);
        }
    }

    /// Resets the BGP session between two peers, as a TCP reset or a
    /// NOTIFICATION would: both sides implicitly withdraw every route
    /// learned over the peering and flood the resulting withdrawals, then
    /// the session re-establishes immediately and both sides re-announce
    /// their current best routes. In-flight messages on the session are
    /// lost (epoch bump); MRAI state for the session is cleared. No-op when
    /// the pair does not peer or the link is currently failed.
    pub fn reset_session(&mut self, a: Asn, b: Asn) {
        for shard in &mut self.shards {
            shard.reset_session(a, b);
        }
    }

    /// Returns `true` while the link between `a` and `b` is failed.
    #[must_use]
    pub fn link_is_down(&self, a: Asn, b: Asn) -> bool {
        self.shards.first().is_some_and(|s| s.link_is_down(a, b))
    }

    /// Message counters, merged across shards. Each field is written by
    /// exactly one owner (sender- or receiver-side), so the merge is a plain
    /// sum; `converged_at` comes from the coordinator clock.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        let mut total = NetworkStats::default();
        for shard in &self.shards {
            total.announcements += shard.stats.announcements;
            total.withdrawals += shard.stats.withdrawals;
            total.mrai_coalesced += shard.stats.mrai_coalesced;
            total.mrai_deferred += shard.stats.mrai_deferred;
            total.dropped_on_failed_links += shard.stats.dropped_on_failed_links;
            total.corrupted_dropped += shard.stats.corrupted_dropped;
        }
        total.converged_at = self.converged_at;
        total
    }

    /// Per-session update counters, merged field-wise across shards (sent-
    /// side fields live on the sender's owner, received-side fields on the
    /// receiver's), keyed `(from, to)` ascending by global edge id.
    #[must_use]
    pub fn session_counters(&self) -> Vec<((Asn, Asn), SessionCounters)> {
        (0..self.topo.links.len())
            .map(|e| (e, self.session_total(e)))
            .filter(|(_, c)| !c.is_empty())
            .map(|(e, c)| (self.topo.edge_endpoints(e), c))
            .collect()
    }

    /// Edge `e`'s session counters summed over the shards.
    fn session_total(&self, e: usize) -> SessionCounters {
        let mut c = SessionCounters::default();
        for shard in &self.shards {
            let s = &shard.sessions[e];
            c.sent_announcements += s.sent_announcements;
            c.sent_withdrawals += s.sent_withdrawals;
            c.recv_announcements += s.recv_announcements;
            c.recv_withdrawals += s.recv_withdrawals;
        }
        c
    }

    /// Per-link fault statistics, merged field-wise across shards. Empty when
    /// no fault plan is installed.
    #[must_use]
    pub fn fault_stats(&self) -> Vec<((Asn, Asn), FaultStats)> {
        if !self.plan_installed {
            return Vec::new();
        }
        (0..self.topo.links.len())
            .map(|e| (e, self.fault_total(e)))
            .filter(|(_, f)| *f != FaultStats::default())
            .map(|(e, f)| (self.topo.edge_endpoints(e), f))
            .collect()
    }

    /// Edge `e`'s fault statistics summed over the shards.
    fn fault_total(&self, e: usize) -> FaultStats {
        let mut total = FaultStats::default();
        for shard in &self.shards {
            if let Some(f) = shard.faults.as_deref() {
                total.merge(&f.stats[e]);
            }
        }
        total
    }

    /// All per-link fault statistics merged into one block.
    #[must_use]
    pub fn fault_stats_total(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for (_, s) in self.fault_stats() {
            total.merge(&s);
        }
        total
    }

    /// Checks every shard's route arena against the holders of its routes:
    /// each live route must be counted exactly as often as the tables,
    /// queued deliveries, MRAI windows and outboxes name it, and no freed
    /// one may be named. `Ok` carries the number of live routes. For the
    /// engine's arena accounting tests; not a stable interface.
    ///
    /// # Errors
    ///
    /// Describes the first shard whose counts disagree.
    #[doc(hidden)]
    pub fn audit_route_arenas(&self) -> Result<usize, String> {
        self.shards.iter().try_fold(0, |live, shard| {
            let audit = shard.audit_routes();
            Ok(live + audit.map_err(|e| format!("shard {}: {e}", shard.id))?)
        })
    }

    /// Order-independent fingerprint of the global routing state: the
    /// wrapping sum of per-node FNV hashes over every shard's owned routers.
    /// Identical for every shard count; used by the watchdog and the
    /// differential tests.
    #[must_use]
    pub fn routing_fingerprint(&self) -> u64 {
        fingerprint_sum(&self.shards)
    }

    /// Emits the shard-count-invariant slice of the network's observations:
    /// `sim.events.fired` / `sim.time.final_ticks`, the `net.*` aggregates,
    /// the Adj-RIB-In histogram, and per-session / per-link counters in
    /// global edge order. Queue-shape metrics (`sim.events.scheduled`,
    /// `sim.queue.depth_high_water`) are deliberately omitted — they depend
    /// on the shard layout, and exporting them would break the bit-identical
    /// snapshot guarantee.
    pub fn export_metrics<S: MetricsSink>(&self, sink: &mut S) {
        if !S::ENABLED {
            return;
        }
        sink.counter_add("sim.events.fired", self.fired_lifetime);
        sink.gauge_set("sim.time.final_ticks", self.now.ticks());
        let stats = self.stats();
        sink.counter_add("net.messages.announcements", stats.announcements);
        sink.counter_add("net.messages.withdrawals", stats.withdrawals);
        sink.counter_add("net.messages.mrai_coalesced", stats.mrai_coalesced);
        sink.counter_add("net.messages.mrai_deferred", stats.mrai_deferred);
        sink.counter_add(
            "net.messages.dropped_in_flight",
            stats.dropped_on_failed_links,
        );
        sink.counter_add("net.messages.corrupted_dropped", stats.corrupted_dropped);
        sink.gauge_set("net.converged_at_ticks", stats.converged_at.ticks());
        let mut decisions = 0u64;
        // Walk routers in global node order, reading each from its owner, so
        // the histogram observation sequence is layout-independent too. One
        // token resolution keeps the per-router loop free of key hashing.
        let rib_size = sink.record_token("net.adj_rib_in.size");
        for idx in 0..self.topo.node_count() {
            let router = self.router_at(idx);
            decisions += router.decision_count();
            sink.record_by(rib_size, router.adj_rib_in_size() as u64);
        }
        sink.counter_add("net.decision_process.invocations", decisions);
        // Sessions and links are counter rows keyed by the `(from, to)` pair:
        // nothing is named here, only when the sweep takes its snapshot.
        // Edge ids walk `(from, to)` ascending, so rows arrive in key order.
        let edges = self.topo.links.len();
        let sessions = sink.row_table("", &SESSION_ROWS, edges);
        for e in 0..edges {
            let c = self.session_total(e);
            if !c.is_empty() {
                let values = [
                    c.sent_announcements,
                    c.sent_withdrawals,
                    c.recv_announcements,
                    c.recv_withdrawals,
                ];
                sink.row_add(sessions, self.topo.edge_key(e), &values);
            }
        }
        if self.plan_installed {
            let links = sink.row_table("", &LINK_ROWS, edges);
            for e in 0..edges {
                let s = self.fault_total(e);
                if s != FaultStats::default() {
                    let values = [
                        s.delivered,
                        s.dropped,
                        s.duplicated,
                        s.reordered,
                        s.corrupted,
                        s.dropped_link_down,
                    ];
                    sink.row_add(links, self.topo.edge_key(e), &values);
                }
            }
        }
    }
}

/// `session.{from}->{to}.*`: one row per directed session that carried a
/// message (see [`SessionCounters`]).
static SESSION_ROWS: RowFamily = RowFamily {
    name: "session",
    fields: &[
        "sent_announcements",
        "sent_withdrawals",
        "recv_announcements",
        "recv_withdrawals",
    ],
    label: edge_label,
};

/// `link.{from}->{to}.*`: one row per directed link a fault plan touched
/// (see [`FaultStats`]).
static LINK_ROWS: RowFamily = RowFamily {
    name: "link",
    fields: &[
        "delivered",
        "dropped",
        "duplicated",
        "reordered",
        "corrupted",
        "dropped_link_down",
    ],
    label: edge_label,
};

/// Renders a [`Topo::edge_key`] as `AS{from}->AS{to}`.
fn edge_label(key: u64, out: &mut String) {
    let (from, to) = (Asn((key >> 32) as u32), Asn(key as u32));
    write!(out, "{from}->{to}").expect("write to String cannot fail");
}

impl<M: RouteMonitor + Send + 'static> ShardedNetwork<M> {
    /// Runs the simulation until no messages remain in flight anywhere.
    ///
    /// # Errors
    ///
    /// Returns [`ConvergenceError::BudgetExhausted`] if the default event
    /// budget runs out, or [`ConvergenceError::Oscillating`] if the watchdog
    /// (see [`ShardedNetwork::set_watchdog`]) catches the network cycling
    /// through the same routing states.
    pub fn run(&mut self) -> Result<SimTime, ConvergenceError> {
        self.run_with_limit(DEFAULT_EVENT_LIMIT)
    }

    /// Runs until global quiescence or until `max_events` events have been
    /// processed (budget checks happen at round boundaries, so slightly more
    /// than `max_events` may be processed before the error is raised —
    /// deterministically so, for any shard count). With `jobs > 1` and more
    /// than one shard the shards run on pooled worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ConvergenceError::BudgetExhausted`] or
    /// [`ConvergenceError::Oscillating`].
    pub fn run_with_limit(&mut self, max_events: u64) -> Result<SimTime, ConvergenceError> {
        let (mut shards, next_time) = self.begin_run();
        if self.jobs == 1 || shards.len() == 1 {
            // Every shard on the calling thread.
            let result = self.drive(&mut shards, next_time, max_events);
            self.shards = shards;
            return result;
        }
        let mut crew = minipool::Crew::spawn(shards, |shard, cmd| shard.execute(cmd));
        let result = self.drive(&mut crew, next_time, max_events);
        self.shards = crew.join();
        result
    }
}

impl<M: RouteMonitor> ShardedNetwork<M> {
    /// Hands the shards to a driver. Setup calls (originate, faults applied
    /// between runs) may have produced cross-shard messages; those move into
    /// the pending pool first. Also returns the earliest queued event time.
    fn begin_run(&mut self) -> (Vec<Shard<M>>, Option<SimTime>) {
        for shard in &mut self.shards {
            self.pending.append(&mut shard.outbox);
        }
        let next_time = self.shards.iter().filter_map(|s| s.queue.next_time()).min();
        (std::mem::take(&mut self.shards), next_time)
    }

    /// The coordinator loop: one barrier round per distinct event timestamp.
    ///
    /// `T_next` is the minimum of every shard's next local event time and
    /// every pending cross-shard message's delivery time; since `T_next` is
    /// that minimum, every pending message satisfies `deliver_at >= T_next`
    /// and can safely be forwarded each round — no message from the past can
    /// ever reach a shard.
    fn drive(
        &mut self,
        rounds: &mut impl Rounds,
        mut next_time: Option<SimTime>,
        max_events: u64,
    ) -> Result<SimTime, ConvergenceError> {
        let mut fired_run = 0u64;
        // Watchdog state is per-run: fingerprint -> (last sighting, hits).
        let mut seen: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
        let mut next_check = self.watchdog;
        loop {
            let mailed = self.pending.iter().map(|(_, mail)| mail.time).min();
            let Some(t) = next_time.into_iter().chain(mailed).min() else {
                break;
            };
            let round = rounds.step(t, &mut self.pending);
            fired_run += round.fired;
            self.fired_lifetime += round.fired;
            next_time = round.next_time;
            self.now = t;
            if fired_run > max_events {
                return Err(ConvergenceError::BudgetExhausted {
                    processed: fired_run,
                    pending: round.queued + self.pending.len(),
                });
            }
            let work_left = next_time.is_some() || !self.pending.is_empty();
            if self.watchdog > 0 && fired_run >= next_check && work_left {
                let fp = rounds.fingerprint();
                match seen.get_mut(&fp) {
                    None => {
                        seen.insert(fp, (fired_run, 1));
                    }
                    Some((last, hits)) => {
                        let cycle_len = fired_run - *last;
                        *last = fired_run;
                        *hits += 1;
                        if *hits >= WATCHDOG_STRIKES {
                            return Err(ConvergenceError::Oscillating { cycle_len });
                        }
                    }
                }
                // One check per boundary even if a busy round crossed several
                // watchdog intervals at once.
                next_check = (fired_run / self.watchdog + 1) * self.watchdog;
            }
        }
        self.converged_at = self.now;
        Ok(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_topology::{AsRole, InternetModel, ScaleFreeModel};

    fn figure1_graph() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_as(Asn(4), AsRole::Stub);
        for t in [1, 2, 3] {
            g.add_as(Asn(t), AsRole::Transit);
        }
        g.add_link(Asn(4), Asn(2));
        g.add_link(Asn(4), Asn(3));
        g.add_link(Asn(2), Asn(1));
        g.add_link(Asn(3), Asn(1));
        g
    }

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    /// What one AS's [`Router`] view reports: peers, the Adj-RIB-In for the
    /// prefix as `(peer, AS path)` pairs, and the decision count.
    type RouterView = (Vec<Asn>, Vec<(Asn, AsPath)>, u64);

    /// Everything a trial observes, collected from one sharded run.
    fn observe(
        graph: &AsGraph,
        shards: usize,
        jobs: usize,
    ) -> (Vec<Option<Asn>>, NetworkStats, u64, u64, Vec<RouterView>) {
        let victim = graph.stub_asns()[0];
        let attacker = *graph.stub_asns().last().unwrap();
        let prefix = as_topology::prefix_for_asn(victim);
        let mut net =
            ShardedNetwork::with_monitor_and_jitter(graph, shards, jobs, 11, 4, || NoopMonitor);
        net.set_mrai(6);
        net.originate(victim, prefix, None);
        net.run().unwrap();
        net.originate(attacker, prefix, None);
        net.run().unwrap();
        let origins = graph.asns().map(|a| net.best_origin(a, prefix)).collect();
        // Read through the public view, which must serve every AS from its
        // owner's tables: a view of another shard's would come back empty.
        let views = graph.asns().map(|asn| {
            let router = net.router(asn).unwrap();
            let held = router.adj_rib_in(prefix);
            let held = held.map(|(peer, route)| (peer, route.as_path().clone()));
            (
                router.peers().to_vec(),
                held.collect(),
                router.decision_count(),
            )
        });
        (
            origins,
            net.stats(),
            net.routing_fingerprint(),
            net.events_fired(),
            views.collect(),
        )
    }

    #[test]
    fn figure1_converges_on_two_shards() {
        let mut net = ShardedNetwork::new(&figure1_graph(), 2);
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        for asn in [1, 2, 3, 4] {
            assert_eq!(net.best_origin(Asn(asn), p()), Some(Asn(4)), "AS {asn}");
        }
        assert!(net.stats().total_messages() > 0);
        assert!(net.cut_links() <= 4);
    }

    #[test]
    fn shard_counts_agree_bit_for_bit() {
        let graph = InternetModel::new()
            .transit_count(8)
            .stub_count(40)
            .build(2);
        let reference = observe(&graph, 1, 1);
        for shards in [2, 3, 4] {
            assert_eq!(observe(&graph, shards, 1), reference, "shards={shards}");
        }
        // The same on the scale-free family the 70k-AS convergence runs use,
        // at a size where a run fires tens of thousands of events.
        let graph = ScaleFreeModel::new().as_count(5_000).build(9107);
        let reference = observe(&graph, 1, 1);
        // The absolute outcome, recorded from a build of the parent commit
        // 0a3f4e6 (the map-keyed router): a shifted tie-break fails here, not
        // only in a `cmp` against an old binary.
        let (_, stats, fingerprint, events, _) = &reference;
        assert_eq!(
            (
                *events,
                stats.total_messages(),
                stats.converged_at.ticks(),
                *fingerprint
            ),
            (36_008, 28_158, 43, 0x8c6e_8a8e_b6a8_4c57)
        );
        for shards in [2, 4] {
            assert_eq!(observe(&graph, shards, 1), reference, "shards={shards}");
        }
    }

    #[test]
    fn pooled_execution_matches_inline() {
        let graph = InternetModel::new()
            .transit_count(8)
            .stub_count(40)
            .build(5);
        assert_eq!(observe(&graph, 4, 1), observe(&graph, 4, 4));
    }

    #[test]
    fn fault_plans_are_shard_count_invariant() {
        let graph = InternetModel::new()
            .transit_count(8)
            .stub_count(30)
            .build(9);
        let victim = graph.stub_asns()[0];
        let hub = graph.transit_asns()[0];
        let hub_peer = graph.neighbors(hub).next().unwrap();
        let prefix = as_topology::prefix_for_asn(victim);
        let run = |shards: usize| {
            let mut net =
                ShardedNetwork::with_monitor_and_jitter(&graph, shards, 1, 3, 4, || NoopMonitor);
            let mut plan = NetFaultPlan::new(77);
            plan.set_link_model(
                (hub, hub_peer),
                LinkFaultModel {
                    drop: 0.2,
                    corrupt: 0.1,
                    duplicate: 0.1,
                    reorder: 0.2,
                    max_extra_delay: 3,
                },
            );
            plan.at(5, FaultEvent::FailLink(hub, hub_peer));
            plan.at(20, FaultEvent::RestoreLink(hub, hub_peer));
            plan.at(30, FaultEvent::ResetSession(hub, hub_peer));
            net.set_fault_plan(plan).unwrap();
            net.originate(victim, prefix, None);
            net.run().unwrap();
            let origins: Vec<Option<Asn>> =
                graph.asns().map(|a| net.best_origin(a, prefix)).collect();
            (
                origins,
                net.stats(),
                net.fault_stats(),
                net.session_counters(),
                net.routing_fingerprint(),
                net.events_fired(),
            )
        };
        let reference = run(1);
        for shards in [2, 4] {
            assert_eq!(run(shards), reference, "shards={shards}");
        }
    }

    #[test]
    fn metrics_snapshots_are_identical_across_shard_counts() {
        use minimetrics::RecordingSink;
        let graph = InternetModel::new()
            .transit_count(6)
            .stub_count(24)
            .build(4);
        let victim = graph.stub_asns()[0];
        let prefix = as_topology::prefix_for_asn(victim);
        let snapshot = |shards: usize| {
            let mut net =
                ShardedNetwork::with_monitor_and_jitter(&graph, shards, 1, 8, 4, || NoopMonitor);
            net.set_mrai(5);
            net.originate(victim, prefix, None);
            net.run().unwrap();
            let mut sink = RecordingSink::new();
            net.export_metrics(&mut sink);
            sink.into_snapshot()
        };
        let reference = snapshot(1);
        assert!(reference.counters["sim.events.fired"] > 0);
        assert_eq!(snapshot(2), reference);
        assert_eq!(snapshot(4), reference);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let graph = InternetModel::new()
            .transit_count(10)
            .stub_count(50)
            .build(1);
        let victim = graph.stub_asns()[0];
        let mut net = ShardedNetwork::new(&graph, 2);
        net.originate(victim, as_topology::prefix_for_asn(victim), None);
        match net.run_with_limit(3).unwrap_err() {
            ConvergenceError::BudgetExhausted { processed, .. } => assert!(processed > 3),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_catches_oscillation_identically_per_shard_count() {
        // An unbounded origin flap with no MRAI never converges; the watchdog
        // must catch it with the same verdict for every shard count.
        let graph = InternetModel::new()
            .transit_count(6)
            .stub_count(20)
            .build(6);
        let victim = graph.stub_asns()[0];
        let prefix = as_topology::prefix_for_asn(victim);
        let verdict = |shards: usize| {
            let mut net =
                ShardedNetwork::with_monitor_and_jitter(&graph, shards, 1, 2, 3, || NoopMonitor);
            net.set_watchdog(64);
            let mut plan = NetFaultPlan::new(5);
            plan.every(
                4,
                8,
                None,
                FaultEvent::ToggleOrigin {
                    asn: victim,
                    route: Route::new(prefix, AsPath::new()),
                },
            );
            net.set_fault_plan(plan).unwrap();
            net.originate(victim, prefix, None);
            net.run_with_limit(2_000_000).unwrap_err()
        };
        let reference = verdict(1);
        assert!(
            matches!(
                reference,
                ConvergenceError::Oscillating { .. } | ConvergenceError::BudgetExhausted { .. }
            ),
            "flap must not converge: {reference:?}"
        );
        assert_eq!(verdict(2), reference);
        assert_eq!(verdict(4), reference);
    }

    #[test]
    fn link_failure_between_runs_reroutes() {
        let mut net = ShardedNetwork::new(&figure1_graph(), 3);
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        net.fail_link(Asn(1), Asn(2));
        net.run().unwrap();
        assert_eq!(
            net.best_route(Asn(1), p()).unwrap().as_path().to_string(),
            "3 4"
        );
        assert!(net.link_is_down(Asn(2), Asn(1)));
        net.restore_link(Asn(1), Asn(2));
        net.run().unwrap();
        assert!(net.best_route(Asn(1), p()).is_some());
    }

    /// The figure 1 origination on `shards` shards, every edge's send
    /// sequence starting at `seq`: the fingerprint and event count.
    fn from_sequence(shards: usize, seq: u32) -> (u64, u64) {
        let mut net = ShardedNetwork::new(&figure1_graph(), shards);
        for shard in &mut net.shards {
            shard.edge_seq.fill(seq);
        }
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        net.withdraw(Asn(4), p());
        net.run().unwrap();
        (net.routing_fingerprint(), net.events_fired())
    }

    #[test]
    fn send_sequences_near_the_key_width_keep_the_order() {
        // No edge sends more than a handful of messages here, so sequences
        // that start just under 2^32 run to its last value unchanged.
        let reference = from_sequence(1, 0);
        assert_eq!(from_sequence(1, u32::MAX - 8), reference);
        assert_eq!(from_sequence(2, u32::MAX - 8), reference);
    }

    #[test]
    #[should_panic(expected = "send sequence is full")]
    fn a_full_send_sequence_fails_loudly() {
        from_sequence(1, u32::MAX);
    }

    #[test]
    fn empty_graph_runs_to_nothing() {
        let mut net = ShardedNetwork::new(&AsGraph::new(), 4);
        assert_eq!(net.run().unwrap(), SimTime::ZERO);
        assert_eq!(net.events_fired(), 0);
    }
}
