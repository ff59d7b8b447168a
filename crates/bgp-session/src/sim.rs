//! [`SessionSim`]: a deterministic in-memory two-peer harness.
//!
//! Two [`Session`]s — `a` the active opener, `b` the passive listener —
//! are wired back to back through virtual byte queues under a virtual
//! clock. No sockets and no threads means a trial's entire evolution is a
//! pure function of its inputs, so the chaos scenarios built on top
//! produce byte-identical reports for any `--jobs N`.
//!
//! Faults are injected through explicit hooks rather than probabilistic
//! wrappers: the chaos driver decides *when* (from its own seeded RNG) and
//! calls [`SessionSim::reset_tcp`], [`SessionSim::corrupt_next`],
//! [`SessionSim::inject`], or [`SessionSim::set_drop_keepalives`]; the sim
//! just executes. That keeps the fault schedule in one place — the
//! scenario plan — instead of spread across both layers.

use bgp_wire::bgp::UpdateMessage;
use bgp_wire::msg::MESSAGE_TYPE_KEEPALIVE;

use crate::fsm::{Event, Session, SessionAction, SessionConfig, State};

/// TCP connect latency modeled by the sim, in virtual ms.
const CONNECT_LATENCY_MS: u64 = 5;
/// One-way byte propagation latency, in virtual ms.
const WIRE_LATENCY_MS: u64 = 1;

/// Which peer an operation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// The active opener.
    A,
    /// The passive listener.
    B,
}

/// Configuration for a two-peer simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The active opener's session config (`passive` is forced off).
    pub a: SessionConfig,
    /// The passive listener's session config (`passive` is forced on).
    pub b: SessionConfig,
}

/// A chunk in flight on the virtual wire.
#[derive(Debug)]
struct Chunk {
    deliver_at: u64,
    bytes: Vec<u8>,
}

/// A scheduled control event (connect completion).
#[derive(Debug)]
struct PendingConnect {
    fires_at: u64,
}

/// The two-peer in-memory session simulator.
#[derive(Debug)]
pub struct SessionSim {
    /// The active opener.
    pub a: Session,
    /// The passive listener.
    pub b: Session,
    now: u64,
    link_up: bool,
    pending_connect: Option<PendingConnect>,
    wire_ab: Vec<Chunk>,
    wire_ba: Vec<Chunk>,
    drop_keepalives_from_a: bool,
    drop_keepalives_from_b: bool,
    corrupt_next_to_a: bool,
    corrupt_next_to_b: bool,
    delivered_a: Vec<UpdateMessage>,
    delivered_b: Vec<UpdateMessage>,
    /// Count of chunks whose bytes were mutated in flight.
    corrupted_chunks: u64,
    /// Count of simulated TCP resets.
    resets: u64,
}

impl SessionSim {
    /// Builds the pair and feeds both sides `ManualStart` at t=0.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        let mut a_cfg = cfg.a;
        a_cfg.passive = false;
        let mut b_cfg = cfg.b;
        b_cfg.passive = true;
        let mut sim = SessionSim {
            a: Session::new(a_cfg),
            b: Session::new(b_cfg),
            now: 0,
            link_up: false,
            pending_connect: None,
            wire_ab: Vec::new(),
            wire_ba: Vec::new(),
            drop_keepalives_from_a: false,
            drop_keepalives_from_b: false,
            corrupt_next_to_a: false,
            corrupt_next_to_b: false,
            delivered_a: Vec::new(),
            delivered_b: Vec::new(),
            corrupted_chunks: 0,
            resets: 0,
        };
        let mut acts = Vec::new();
        sim.a.handle(0, &Event::ManualStart, &mut acts);
        sim.route_actions(Peer::A, acts);
        let mut acts = Vec::new();
        sim.b.handle(0, &Event::ManualStart, &mut acts);
        sim.route_actions(Peer::B, acts);
        sim
    }

    /// The virtual clock, in ms.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Both FSMs report `Established`.
    #[must_use]
    pub fn established(&self) -> bool {
        self.a.state() == State::Established && self.b.state() == State::Established
    }

    /// UPDATEs delivered to the given peer's application so far.
    #[must_use]
    pub fn delivered(&self, peer: Peer) -> &[UpdateMessage] {
        match peer {
            Peer::A => &self.delivered_a,
            Peer::B => &self.delivered_b,
        }
    }

    /// Chunks mutated in flight so far.
    #[must_use]
    pub fn corrupted_chunks(&self) -> u64 {
        self.corrupted_chunks
    }

    /// Simulated TCP resets so far.
    #[must_use]
    pub fn resets(&self) -> u64 {
        self.resets
    }

    // --- fault hooks ------------------------------------------------------

    /// Silently discard KEEPALIVE frames sent by `from` (models a peer
    /// that stops refreshing the hold timer without the TCP dying).
    pub fn set_drop_keepalives(&mut self, from: Peer, enabled: bool) {
        match from {
            Peer::A => self.drop_keepalives_from_a = enabled,
            Peer::B => self.drop_keepalives_from_b = enabled,
        }
    }

    /// Flip one byte (at `position % len`) in the next chunk delivered to
    /// `to`.
    pub fn corrupt_next(&mut self, to: Peer) {
        match to {
            Peer::A => self.corrupt_next_to_a = true,
            Peer::B => self.corrupt_next_to_b = true,
        }
    }

    /// Inject raw bytes into the wire toward `to` (e.g. an unsolicited
    /// NOTIFICATION), as if the peer had sent them.
    pub fn inject(&mut self, to: Peer, bytes: Vec<u8>) {
        if !self.link_up {
            return;
        }
        let chunk = Chunk {
            deliver_at: self.now + WIRE_LATENCY_MS,
            bytes,
        };
        match to {
            Peer::A => self.wire_ba.push(chunk),
            Peer::B => self.wire_ab.push(chunk),
        }
    }

    /// Tear the TCP connection down under both FSMs (RST). In-flight bytes
    /// are lost; the active side will retry with backoff.
    pub fn reset_tcp(&mut self) {
        if !self.link_up {
            return;
        }
        self.resets += 1;
        self.drop_link();
        let mut acts = Vec::new();
        self.a.handle(self.now, &Event::Closed, &mut acts);
        self.route_actions(Peer::A, acts);
        let mut acts = Vec::new();
        self.b.handle(self.now, &Event::Closed, &mut acts);
        self.route_actions(Peer::B, acts);
    }

    /// Send an UPDATE from `from`'s application (only effective once that
    /// side is `Established`). Returns whether the FSM accepted it.
    pub fn send_update(&mut self, from: Peer, update: &UpdateMessage) -> bool {
        let mut acts = Vec::new();
        let ok = match from {
            Peer::A => self.a.send_update(update, &mut acts),
            Peer::B => self.b.send_update(update, &mut acts),
        };
        self.route_actions(from, acts);
        ok
    }

    // --- clock ------------------------------------------------------------

    /// Advances virtual time to `t_end`, processing every intermediate
    /// event (wire deliveries, connect completions, FSM timer deadlines)
    /// in timestamp order.
    pub fn run_until(&mut self, t_end: u64) {
        while self.now < t_end {
            let next = self
                .next_event_time()
                .map_or(t_end, |t| t.clamp(self.now + 1, t_end));
            self.now = next;
            self.dispatch_due();
        }
        // Fire anything due exactly at t_end.
        self.dispatch_due();
    }

    /// Advances until both sides are `Established` or `t_limit` is
    /// reached; returns whether establishment happened.
    pub fn run_until_established(&mut self, t_limit: u64) -> bool {
        while self.now < t_limit && !self.established() {
            let next = self
                .next_event_time()
                .map_or(t_limit, |t| t.clamp(self.now + 1, t_limit));
            self.now = next;
            self.dispatch_due();
        }
        self.established()
    }

    fn next_event_time(&self) -> Option<u64> {
        let wire = self
            .wire_ab
            .iter()
            .chain(self.wire_ba.iter())
            .map(|c| c.deliver_at)
            .min();
        [
            wire,
            self.pending_connect.as_ref().map(|p| p.fires_at),
            self.a.next_deadline(),
            self.b.next_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn dispatch_due(&mut self) {
        // Connect completion: the link comes up for both sides.
        if let Some(p) = &self.pending_connect {
            if self.now >= p.fires_at {
                self.pending_connect = None;
                self.link_up = true;
                let mut acts = Vec::new();
                self.a.handle(self.now, &Event::Connected, &mut acts);
                self.route_actions(Peer::A, acts);
                let mut acts = Vec::new();
                self.b.handle(self.now, &Event::Connected, &mut acts);
                self.route_actions(Peer::B, acts);
            }
        }

        // Wire deliveries, oldest first (chunks are pushed in send order
        // and share a fixed latency, so the vectors are already sorted).
        while let Some(chunk) = self.pop_due(Peer::B) {
            let mut acts = Vec::new();
            self.b.handle(self.now, &Event::Bytes(&chunk), &mut acts);
            self.route_actions(Peer::B, acts);
        }
        while let Some(chunk) = self.pop_due(Peer::A) {
            let mut acts = Vec::new();
            self.a.handle(self.now, &Event::Bytes(&chunk), &mut acts);
            self.route_actions(Peer::A, acts);
        }

        // FSM timers.
        let mut acts = Vec::new();
        self.a.handle(self.now, &Event::Tick, &mut acts);
        self.route_actions(Peer::A, acts);
        let mut acts = Vec::new();
        self.b.handle(self.now, &Event::Tick, &mut acts);
        self.route_actions(Peer::B, acts);
    }

    /// Pops the next due chunk destined for `to`, applying the
    /// corrupt-next hook.
    fn pop_due(&mut self, to: Peer) -> Option<Vec<u8>> {
        if !self.link_up {
            return None;
        }
        let queue = match to {
            Peer::A => &mut self.wire_ba,
            Peer::B => &mut self.wire_ab,
        };
        if queue.first().is_some_and(|c| c.deliver_at <= self.now) {
            let mut chunk = queue.remove(0);
            let corrupt = match to {
                Peer::A => std::mem::take(&mut self.corrupt_next_to_a),
                Peer::B => std::mem::take(&mut self.corrupt_next_to_b),
            };
            if corrupt && !chunk.bytes.is_empty() {
                // Deterministic position: the length byte region of the
                // header when long enough, else the first byte. Flipping
                // high bits guarantees the frame no longer parses clean.
                let pos = if chunk.bytes.len() > 16 { 16 } else { 0 };
                chunk.bytes[pos] ^= 0xA5;
                self.corrupted_chunks += 1;
            }
            Some(chunk.bytes)
        } else {
            None
        }
    }

    fn drop_link(&mut self) {
        self.link_up = false;
        self.wire_ab.clear();
        self.wire_ba.clear();
        self.pending_connect = None;
    }

    /// Executes the actions one FSM emitted, feeding the wire and the
    /// other FSM's control events.
    fn route_actions(&mut self, from: Peer, actions: Vec<SessionAction>) {
        for action in actions {
            match action {
                SessionAction::Connect => {
                    // Only the active opener connects; model the TCP
                    // round-trip with a fixed latency.
                    self.pending_connect = Some(PendingConnect {
                        fires_at: self.now + CONNECT_LATENCY_MS,
                    });
                }
                SessionAction::SendBytes(bytes) => {
                    if !self.link_up {
                        continue; // bytes into a dead socket vanish
                    }
                    let drop_ka = match from {
                        Peer::A => self.drop_keepalives_from_a,
                        Peer::B => self.drop_keepalives_from_b,
                    };
                    if drop_ka && is_keepalive(&bytes) {
                        continue;
                    }
                    let chunk = Chunk {
                        deliver_at: self.now + WIRE_LATENCY_MS,
                        bytes,
                    };
                    match from {
                        Peer::A => self.wire_ab.push(chunk),
                        Peer::B => self.wire_ba.push(chunk),
                    }
                }
                SessionAction::Close => {
                    if self.link_up {
                        self.drop_link();
                        // The other side sees the close.
                        let mut acts = Vec::new();
                        match from {
                            Peer::A => {
                                self.b.handle(self.now, &Event::Closed, &mut acts);
                                self.route_actions(Peer::B, acts);
                            }
                            Peer::B => {
                                self.a.handle(self.now, &Event::Closed, &mut acts);
                                self.route_actions(Peer::A, acts);
                            }
                        }
                    }
                }
                SessionAction::Deliver(update) => match from {
                    Peer::A => self.delivered_a.push(*update),
                    Peer::B => self.delivered_b.push(*update),
                },
            }
        }
    }
}

/// A single well-formed KEEPALIVE frame (19 bytes, type 4)?
fn is_keepalive(bytes: &[u8]) -> bool {
    bytes.len() == 19 && bytes[18] == MESSAGE_TYPE_KEEPALIVE
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Asn, Ipv4Prefix, RouteOrigin};
    use bgp_wire::bgp::PathAttributes;
    use bgp_wire::msg::NotificationMessage;

    fn pair(hold: u16) -> SessionSim {
        let mut a = SessionConfig::new(Asn(64512), 0x0A00_0001);
        a.hold_time = hold;
        a.retry_base_ms = 50;
        a.retry_max_ms = 1_000;
        let mut b = SessionConfig::new(Asn(70_000), 0x0A00_0002);
        b.hold_time = hold;
        SessionSim::new(SimConfig { a, b })
    }

    fn sample_update() -> UpdateMessage {
        UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(PathAttributes {
                origin: RouteOrigin::Igp,
                as_path: AsPath::from_sequence([Asn(70_000), Asn(701)]),
                next_hop: 0x0A00_0002,
                local_pref: None,
                communities: Vec::new(),
                large_communities: Vec::new(),
                mp_reach: None,
                mp_unreach: None,
            }),
            nlri: vec![Ipv4Prefix::new(0xC000_0200, 24)],
        }
    }

    #[test]
    fn pair_establishes_and_exchanges_updates() {
        let mut sim = pair(30);
        assert!(sim.run_until_established(10_000), "never established");
        assert_eq!(sim.a.peer().unwrap().asn, Asn(70_000));
        assert_eq!(sim.b.peer().unwrap().asn, Asn(64512));

        let update = sample_update();
        assert!(sim.send_update(Peer::B, &update));
        sim.run_until(sim.now() + 10);
        assert_eq!(sim.delivered(Peer::A), &[update]);
    }

    #[test]
    fn dropped_keepalives_expire_hold_then_reconnect() {
        let mut sim = pair(3);
        assert!(sim.run_until_established(10_000));
        let established_once = sim.now();

        // B goes silent: its keepalives are dropped on the floor.
        sim.set_drop_keepalives(Peer::B, true);
        sim.run_until(established_once + 5_000);
        assert_eq!(sim.a.stats().hold_expirations, 1);

        // Heal the link; the active side's backoff brings it back.
        sim.set_drop_keepalives(Peer::B, false);
        assert!(
            sim.run_until_established(sim.now() + 30_000),
            "no reconnect"
        );
        assert!(sim.a.stats().established >= 2);
    }

    #[test]
    fn injected_notification_closes_then_recovers() {
        let mut sim = pair(30);
        assert!(sim.run_until_established(10_000));
        let notif = NotificationMessage::cease().encode().unwrap();
        sim.inject(Peer::A, notif);
        sim.run_until(sim.now() + 10);
        assert_eq!(sim.a.stats().notifications_received, 1);
        assert!(!sim.established());
        assert!(sim.run_until_established(sim.now() + 30_000), "no recovery");
    }

    #[test]
    fn corruption_triggers_notification_and_reconnect() {
        let mut sim = pair(30);
        assert!(sim.run_until_established(10_000));
        sim.corrupt_next(Peer::A);
        let update = sample_update();
        sim.send_update(Peer::B, &update);
        sim.run_until(sim.now() + 10);
        assert_eq!(sim.corrupted_chunks(), 1);
        assert_eq!(sim.a.stats().decode_errors, 1);
        assert!(sim.run_until_established(sim.now() + 30_000), "no recovery");
    }

    #[test]
    fn tcp_reset_reconnects_with_backoff() {
        let mut sim = pair(30);
        assert!(sim.run_until_established(10_000));
        for _ in 0..3 {
            sim.reset_tcp();
            assert!(!sim.established());
            assert!(sim.run_until_established(sim.now() + 60_000), "no recovery");
        }
        assert_eq!(sim.resets(), 3);
        assert_eq!(sim.a.stats().established, 4);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut sim = pair(3);
            sim.run_until_established(10_000);
            sim.set_drop_keepalives(Peer::B, true);
            sim.run_until(20_000);
            (
                *sim.a.stats(),
                *sim.b.stats(),
                sim.now(),
                sim.a.state(),
                sim.b.state(),
            )
        };
        assert_eq!(run(), run());
    }
}
