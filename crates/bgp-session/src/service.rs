//! Passive (listening) side over real TCP: a [`minisock::Service`]
//! adapter that runs one [`Session`] per accepted connection.
//!
//! The reactor owns the sockets and the clock; this adapter translates
//! between the two worlds. Bytes from `on_data` become [`Event::Bytes`];
//! the reactor's tick drives [`Event::Tick`] through the per-connection
//! sweep hook, which is also how FSM-initiated closes (hold expiry,
//! malformed frames) actually reach the socket; decoded UPDATEs go to the
//! embedding application through [`SessionHandler`].

use std::collections::HashMap;
use std::time::Instant;

use minisock::{Action, ConnId, Service};

use bgp_wire::bgp::UpdateMessage;

use crate::fsm::{Event, PeerInfo, Session, SessionAction, SessionConfig};

/// Where decoded traffic and session lifecycle events go.
pub trait SessionHandler: Send + 'static {
    /// An UPDATE arrived on an established session.
    fn on_update(&mut self, peer: &PeerInfo, update: UpdateMessage);

    /// A session completed its handshake.
    fn on_established(&mut self, peer: &PeerInfo) {
        let _ = peer;
    }

    /// A session's connection closed (any cause).
    fn on_session_closed(&mut self) {}
}

/// Per-connection state: the FSM plus edge-detection for establishment.
struct PerConn {
    session: Session,
    /// Value of `stats().established` already reported to the handler.
    /// A counter, not a bool: a session can establish and tear down within
    /// a single `handle()` call, which a state comparison would miss.
    established_seen: u64,
}

/// A BGP listener service: every accepted connection gets a passive
/// [`Session`] cloned from the template config.
pub struct BgpListener<H> {
    template: SessionConfig,
    handler: H,
    epoch: Instant,
    conns: HashMap<ConnId, PerConn>,
}

impl<H: SessionHandler> BgpListener<H> {
    /// Creates the service. `template.passive` is forced on.
    #[must_use]
    pub fn new(mut template: SessionConfig, handler: H) -> Self {
        template.passive = true;
        BgpListener {
            template,
            handler,
            epoch: Instant::now(),
            conns: HashMap::new(),
        }
    }

    /// Milliseconds since the service started — the virtual clock handed
    /// to the FSMs.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Routes one FSM's emitted actions; returns whether the FSM asked to
    /// close the connection.
    fn route(
        handler: &mut H,
        conn: &mut PerConn,
        actions: Vec<SessionAction>,
        out: &mut Vec<u8>,
    ) -> bool {
        // Establishment precedes any Deliver produced by the same
        // `handle()` call, so report it first.
        let established = conn.session.stats().established;
        if established > conn.established_seen {
            conn.established_seen = established;
            if let Some(peer) = conn.session.peer() {
                handler.on_established(peer);
            }
        }
        let mut close = false;
        for action in actions {
            match action {
                SessionAction::SendBytes(bytes) => out.extend_from_slice(&bytes),
                SessionAction::Deliver(update) => {
                    if let Some(peer) = conn.session.peer() {
                        handler.on_update(peer, *update);
                    }
                }
                SessionAction::Close => close = true,
                // Passive sessions never initiate connections.
                SessionAction::Connect => {}
            }
        }
        close
    }
}

impl<H: SessionHandler> Service for BgpListener<H> {
    fn on_open(&mut self, conn: ConnId, out: &mut Vec<u8>) {
        let now = self.now_ms();
        let mut session = Session::new(self.template.clone());
        let mut actions = Vec::new();
        session.handle(now, &Event::ManualStart, &mut actions);
        session.handle(now, &Event::Connected, &mut actions);
        let mut pc = PerConn {
            session,
            established_seen: 0,
        };
        // A close at accept time cannot happen (the OPEN always encodes:
        // the template's hold time is validated by SessionConfig users),
        // but routing ignores it gracefully if it ever does.
        let _ = Self::route(&mut self.handler, &mut pc, actions, out);
        self.conns.insert(conn, pc);
    }

    fn on_data(&mut self, conn: ConnId, inbuf: &mut Vec<u8>, out: &mut Vec<u8>) -> Action {
        let now = self.now_ms();
        let Some(pc) = self.conns.get_mut(&conn) else {
            inbuf.clear();
            return Action::CloseAfterFlush;
        };
        // The FSM reassembles frames internally; hand everything over.
        let bytes = std::mem::take(inbuf);
        let mut actions = Vec::new();
        pc.session.handle(now, &Event::Bytes(&bytes), &mut actions);
        if Self::route(&mut self.handler, pc, actions, out) {
            Action::CloseAfterFlush
        } else {
            Action::Continue
        }
    }

    fn on_sweep(&mut self, conn: ConnId, out: &mut Vec<u8>) -> Action {
        let now = self.now_ms();
        let Some(pc) = self.conns.get_mut(&conn) else {
            return Action::CloseAfterFlush;
        };
        if pc.session.next_deadline().is_some_and(|t| t > now) {
            return Action::Continue;
        }
        let mut actions = Vec::new();
        pc.session.handle(now, &Event::Tick, &mut actions);
        if Self::route(&mut self.handler, pc, actions, out) {
            Action::CloseAfterFlush
        } else {
            Action::Continue
        }
    }

    fn on_close(&mut self, conn: ConnId) {
        if self.conns.remove(&conn).is_some() {
            self.handler.on_session_closed();
        }
    }
}
