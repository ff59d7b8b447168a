//! The sans-IO RFC 4271 session state machine.
//!
//! A [`Session`] is a pure state machine over **virtual time**: every call
//! passes the current clock in milliseconds, events carry everything the
//! outside world knows (connect results, raw bytes, clock ticks), and all
//! effects come back as typed [`SessionAction`]s for the caller to
//! execute. Nothing here touches sockets, threads, or the wall clock —
//! which is what lets the property tests drive it with arbitrary event
//! sequences and the chaos harness replay identical trials from a seed.
//!
//! State chart (RFC 4271 §8, with the two TCP-tracking states collapsed
//! into the retry logic):
//!
//! ```text
//!            ManualStart                Connected
//!   Idle ───────────────▶ Connect ───────────────▶ OpenSent
//!    ▲                      │   ▲                     │ recv OPEN /
//!    │ ManualStop           │   │ retry (backoff)     ▼ send KEEPALIVE
//!    │ (from any state)     ▼   │                  OpenConfirm
//!    │                    Active ◀──────┐             │ recv KEEPALIVE
//!    │                      ▲           │ error /     ▼
//!    └──────────────────────┴───────────┴──────── Established
//!                             hold expiry / NOTIFICATION / TCP loss
//! ```
//!
//! Every error path emits a typed NOTIFICATION before the close: hold
//! expiry sends code 4, a message that arrives in a state that cannot
//! accept it sends code 5 (FSM error), malformed bytes send the header /
//! OPEN / UPDATE error code matching the decoder's complaint, and a
//! manual stop sends Cease. Truncated frames are not errors — the session
//! keeps buffering until the length field's worth of bytes arrive.

use bgp_types::Asn;
use bgp_wire::bgp::{AsnEncoding, UpdateMessage};
use bgp_wire::msg::{
    encode_keepalive, notif, Capability, Message, NotificationMessage, OpenMessage,
};
use bgp_wire::{WireError, WireErrorKind};

use crate::backoff::Backoff;

/// Hold time used while the handshake is still in flight (RFC 4271
/// suggests "a large value"; 4 minutes is the customary choice).
const HANDSHAKE_HOLD_MS: u64 = 240_000;

/// The RFC 4271 session states. `Connect`/`Active` keep their RFC names:
/// `Connect` means "a TCP attempt is in flight", `Active` means "waiting
/// to (re)try or for an inbound connection".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Nothing happening; only `ManualStart` leaves this state.
    Idle,
    /// An outbound TCP connect is in flight.
    Connect,
    /// Waiting: for the retry timer (active opener) or for an inbound
    /// connection (passive side).
    Active,
    /// OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPENs exchanged, waiting for the peer's first KEEPALIVE.
    OpenConfirm,
    /// The session is up; UPDATEs flow.
    Established,
}

/// An input to the state machine. `Bytes` borrows the arrival buffer; the
/// session copies what it needs into its internal reassembly buffer.
#[derive(Debug)]
pub enum Event<'a> {
    /// Operator start: begin connecting (or listening, if passive).
    ManualStart,
    /// Operator stop: send Cease and go to `Idle` (no auto-restart).
    ManualStop,
    /// The transport reports an established TCP connection.
    Connected,
    /// The transport reports a failed connect attempt.
    ConnectFailed,
    /// The transport reports the TCP connection is gone (EOF or reset).
    Closed,
    /// Raw bytes arrived from the peer.
    Bytes(&'a [u8]),
    /// The clock advanced; expire any due timers.
    Tick,
}

/// An effect the caller must carry out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionAction {
    /// Open a TCP connection to the configured peer.
    Connect,
    /// Write these bytes to the peer.
    SendBytes(Vec<u8>),
    /// Tear the TCP connection down (any pending output first).
    Close,
    /// A decoded UPDATE for the application (only in `Established`). Boxed:
    /// an UPDATE is several times the size of every other action.
    Deliver(Box<UpdateMessage>),
}

/// What the peer's OPEN told us, fixed for the life of the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerInfo {
    /// The peer's ASN (via the 4-octet capability when present).
    pub asn: Asn,
    /// The peer's BGP identifier.
    pub bgp_id: u32,
    /// The negotiated hold time: `min(ours, theirs)`, 0 disabling both
    /// keepalives and the hold timer.
    pub hold_time: u16,
    /// Whether both sides speak 4-octet ASNs (selects the UPDATE
    /// encoding).
    pub four_octet: bool,
}

/// Monotonic counters over the session's lifetime (across reconnects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Outbound TCP connect attempts.
    pub connect_attempts: u64,
    /// Times the session reached `Established`.
    pub established: u64,
    /// OPENs sent / received.
    pub opens_sent: u64,
    /// OPENs received.
    pub opens_received: u64,
    /// KEEPALIVEs sent.
    pub keepalives_sent: u64,
    /// KEEPALIVEs received.
    pub keepalives_received: u64,
    /// UPDATEs sent.
    pub updates_sent: u64,
    /// UPDATEs received (and delivered).
    pub updates_received: u64,
    /// NOTIFICATIONs sent.
    pub notifications_sent: u64,
    /// NOTIFICATIONs received.
    pub notifications_received: u64,
    /// Hold timer expirations (we gave up on a silent peer).
    pub hold_expirations: u64,
    /// Frames rejected by the wire decoder (each closes the session).
    pub decode_errors: u64,
}

/// How long an outbound connect may stay in flight before it counts as
/// failed, in ms: the FSM's connect deadline and the driver's TCP connect
/// budget.
pub(crate) const CONNECT_TIMEOUT_MS: u64 = 30_000;

/// Static configuration for one session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Our ASN.
    pub asn: Asn,
    /// Our BGP identifier.
    pub bgp_id: u32,
    /// Proposed hold time in seconds: 0 (no keepalives) or >= 3.
    pub hold_time: u16,
    /// Passive sessions never initiate TCP; they wait for `Connected`.
    pub passive: bool,
    /// Refuse peers that do not announce the 4-octet-AS capability
    /// (NOTIFICATION code 2 subcode 7). The chaos capability-mismatch
    /// scenario flips this on.
    pub require_four_octet: bool,
    /// First retry delay of the jittered exponential backoff.
    pub retry_base_ms: u64,
    /// Retry delay cap.
    pub retry_max_ms: u64,
    /// Seed for the backoff jitter (determinism).
    pub seed: u64,
}

impl SessionConfig {
    /// A config with the workspace defaults: 90 s hold, active opener,
    /// 1 s → 60 s retry ladder.
    #[must_use]
    pub fn new(asn: Asn, bgp_id: u32) -> Self {
        SessionConfig {
            asn,
            bgp_id,
            hold_time: 90,
            passive: false,
            require_four_octet: false,
            retry_base_ms: 1_000,
            retry_max_ms: 60_000,
            seed: 0,
        }
    }
}

/// One BGP session: the deterministic FSM plus its reassembly buffer,
/// timers, and counters.
#[derive(Debug)]
pub struct Session {
    cfg: SessionConfig,
    state: State,
    backoff: Backoff,
    inbuf: Vec<u8>,
    /// Absolute virtual-time deadlines, in ms.
    connect_deadline: Option<u64>,
    hold_deadline: Option<u64>,
    keepalive_deadline: Option<u64>,
    /// Handshake progress flags; `Established` is gated on all of them.
    sent_open: bool,
    recv_open: bool,
    sent_keepalive: bool,
    recv_keepalive: bool,
    peer: Option<PeerInfo>,
    encoding: AsnEncoding,
    stats: SessionStats,
}

impl Session {
    /// Creates a session in `Idle`; feed it `ManualStart` to begin.
    #[must_use]
    pub fn new(cfg: SessionConfig) -> Self {
        let backoff = Backoff::new(cfg.retry_base_ms, cfg.retry_max_ms, cfg.seed);
        Session {
            cfg,
            state: State::Idle,
            backoff,
            inbuf: Vec::new(),
            connect_deadline: None,
            hold_deadline: None,
            keepalive_deadline: None,
            sent_open: false,
            recv_open: false,
            sent_keepalive: false,
            recv_keepalive: false,
            peer: None,
            encoding: AsnEncoding::FourOctet,
            stats: SessionStats::default(),
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> State {
        self.state
    }

    /// The peer's identity once OPENs have been exchanged. Retained after
    /// a teardown (so actions emitted by the closing `handle()` call can
    /// still be attributed); replaced by the next handshake's OPEN.
    #[must_use]
    pub fn peer(&self) -> Option<&PeerInfo> {
        self.peer.as_ref()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The earliest pending timer deadline (virtual ms), if any. Callers
    /// deliver a `Tick` at or after this time.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        [
            self.connect_deadline,
            self.hold_deadline,
            self.keepalive_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Feeds one event at virtual time `now`, appending resulting actions.
    /// Expired timers are processed first, so a late `Tick` (or any other
    /// event) still fires them in order.
    pub fn handle(&mut self, now: u64, event: &Event<'_>, actions: &mut Vec<SessionAction>) {
        self.expire_timers(now, actions);
        match event {
            Event::ManualStart => self.on_manual_start(now, actions),
            Event::ManualStop => self.on_manual_stop(actions),
            Event::Connected => self.on_connected(now, actions),
            Event::ConnectFailed => {
                if self.state == State::Connect {
                    self.schedule_retry(now);
                }
            }
            Event::Closed => {
                if self.is_connected_state() {
                    self.after_close(now);
                }
            }
            Event::Bytes(bytes) => self.on_bytes(now, bytes, actions),
            Event::Tick => {} // expire_timers above did the work
        }
    }

    /// Sends an UPDATE on an established session. Returns `false` (and
    /// does nothing) in any other state.
    pub fn send_update(
        &mut self,
        update: &UpdateMessage,
        actions: &mut Vec<SessionAction>,
    ) -> bool {
        if self.state != State::Established {
            return false;
        }
        match update.encode(self.encoding) {
            Ok(bytes) => {
                self.stats.updates_sent += 1;
                actions.push(SessionAction::SendBytes(bytes));
                true
            }
            Err(_) => false,
        }
    }

    // --- event arms -------------------------------------------------------

    fn on_manual_start(&mut self, now: u64, actions: &mut Vec<SessionAction>) {
        if self.state != State::Idle {
            return;
        }
        if self.cfg.passive {
            self.state = State::Active;
        } else {
            self.start_connect(now, actions);
        }
    }

    fn on_manual_stop(&mut self, actions: &mut Vec<SessionAction>) {
        if self.is_connected_state() {
            self.send_notification(&NotificationMessage::cease(), actions);
            actions.push(SessionAction::Close);
        }
        self.reset_to(State::Idle);
    }

    fn on_connected(&mut self, now: u64, actions: &mut Vec<SessionAction>) {
        if !matches!(self.state, State::Connect | State::Active) {
            return;
        }
        self.connect_deadline = None;
        self.backoff.reset();
        let open = OpenMessage::new(self.cfg.asn, self.cfg.hold_time, self.cfg.bgp_id);
        match open.encode() {
            Ok(bytes) => {
                self.stats.opens_sent += 1;
                self.sent_open = true;
                actions.push(SessionAction::SendBytes(bytes));
                self.state = State::OpenSent;
                self.hold_deadline = Some(now + HANDSHAKE_HOLD_MS);
            }
            Err(_) => {
                // Unencodable OPEN means a bad local config (hold time 1
                // or 2); nothing will ever work, stop cleanly.
                actions.push(SessionAction::Close);
                self.reset_to(State::Idle);
            }
        }
    }

    fn on_bytes(&mut self, now: u64, bytes: &[u8], actions: &mut Vec<SessionAction>) {
        if !self.is_connected_state() {
            return; // late bytes from a torn-down transport
        }
        self.inbuf.extend_from_slice(bytes);
        // Messages are decoded where they lie; the bytes they took leave the
        // buffer once per call, not once per message.
        let mut consumed = 0;
        loop {
            match Message::decode_prefix_of(&self.inbuf[consumed..], self.encoding) {
                Ok((message, used)) => {
                    consumed += used;
                    self.on_message(now, message, actions);
                    if !self.is_connected_state() {
                        self.inbuf.clear();
                        return;
                    }
                }
                Err(err) if matches!(err.kind, WireErrorKind::Truncated { .. }) => {
                    self.inbuf.drain(..consumed);
                    return;
                }
                Err(err) => {
                    self.stats.decode_errors += 1;
                    self.send_notification(&notification_for(&err), actions);
                    actions.push(SessionAction::Close);
                    self.after_close(now);
                    return;
                }
            }
        }
    }

    fn on_message(&mut self, now: u64, message: Message, actions: &mut Vec<SessionAction>) {
        match message {
            Message::Open(open) => self.on_open(now, &open, actions),
            Message::Keepalive => self.on_keepalive(now, actions),
            Message::Update(update) => self.on_update(now, update, actions),
            Message::Notification(_) => {
                self.stats.notifications_received += 1;
                // The peer is closing the session; no reply is sent to a
                // NOTIFICATION (RFC 4271 §6).
                actions.push(SessionAction::Close);
                self.after_close(now);
            }
        }
    }

    fn on_open(&mut self, now: u64, open: &OpenMessage, actions: &mut Vec<SessionAction>) {
        self.stats.opens_received += 1;
        if self.state != State::OpenSent {
            self.fsm_error(now, actions);
            return;
        }
        let four_octet = open
            .capabilities
            .iter()
            .any(|c| matches!(c, Capability::FourOctetAs(_)));
        if self.cfg.require_four_octet && !four_octet {
            self.send_notification(
                &NotificationMessage::new(notif::OPEN_MESSAGE_ERROR, notif::UNSUPPORTED_CAPABILITY),
                actions,
            );
            actions.push(SessionAction::Close);
            self.after_close(now);
            return;
        }
        let hold = self.cfg.hold_time.min(open.hold_time);
        self.peer = Some(PeerInfo {
            asn: open.effective_asn(),
            bgp_id: open.bgp_id,
            hold_time: hold,
            four_octet,
        });
        // Our OPEN always carries the 4-octet capability, so the peer's
        // support alone decides the encoding.
        self.encoding = if four_octet {
            AsnEncoding::FourOctet
        } else {
            AsnEncoding::TwoOctet
        };
        self.recv_open = true;
        self.send_keepalive(now, actions);
        self.state = State::OpenConfirm;
        self.hold_deadline = if hold == 0 {
            None
        } else {
            Some(now + u64::from(hold) * 1_000)
        };
    }

    fn on_keepalive(&mut self, now: u64, actions: &mut Vec<SessionAction>) {
        self.stats.keepalives_received += 1;
        match self.state {
            State::OpenConfirm => {
                self.recv_keepalive = true;
                debug_assert!(
                    self.sent_open && self.recv_open && self.sent_keepalive,
                    "handshake flags must be complete before Established"
                );
                self.state = State::Established;
                self.stats.established += 1;
                self.refresh_hold(now);
            }
            State::Established => self.refresh_hold(now),
            _ => self.fsm_error(now, actions),
        }
    }

    fn on_update(&mut self, now: u64, update: UpdateMessage, actions: &mut Vec<SessionAction>) {
        if self.state != State::Established {
            self.fsm_error(now, actions);
            return;
        }
        self.stats.updates_received += 1;
        self.refresh_hold(now);
        actions.push(SessionAction::Deliver(Box::new(update)));
    }

    // --- timers -----------------------------------------------------------

    fn expire_timers(&mut self, now: u64, actions: &mut Vec<SessionAction>) {
        if let Some(t) = self.connect_deadline {
            if now >= t {
                self.connect_deadline = None;
                match self.state {
                    // The in-flight connect timed out.
                    State::Connect => self.schedule_retry(now),
                    // The retry timer fired: try again.
                    State::Active if !self.cfg.passive => self.start_connect(now, actions),
                    _ => {}
                }
            }
        }
        if let Some(t) = self.hold_deadline {
            if now >= t && self.is_connected_state() {
                self.hold_deadline = None;
                self.stats.hold_expirations += 1;
                self.send_notification(&NotificationMessage::hold_timer_expired(), actions);
                actions.push(SessionAction::Close);
                self.after_close(now);
            }
        }
        if let Some(t) = self.keepalive_deadline {
            if now >= t {
                self.keepalive_deadline = None;
                if matches!(self.state, State::OpenConfirm | State::Established) {
                    self.send_keepalive(now, actions);
                }
            }
        }
    }

    fn refresh_hold(&mut self, now: u64) {
        if let Some(peer) = &self.peer {
            if peer.hold_time > 0 {
                self.hold_deadline = Some(now + u64::from(peer.hold_time) * 1_000);
            }
        }
    }

    // --- shared transitions -----------------------------------------------

    fn start_connect(&mut self, now: u64, actions: &mut Vec<SessionAction>) {
        self.stats.connect_attempts += 1;
        self.state = State::Connect;
        self.connect_deadline = Some(now + CONNECT_TIMEOUT_MS);
        actions.push(SessionAction::Connect);
    }

    fn schedule_retry(&mut self, now: u64) {
        self.state = State::Active;
        self.connect_deadline = Some(now + self.backoff.next_delay_ms());
    }

    /// Transport-level teardown bookkeeping shared by every close path:
    /// clears per-connection state and decides what happens next (retry
    /// with backoff for active openers, wait for passive ones).
    fn after_close(&mut self, now: u64) {
        self.clear_connection();
        if self.cfg.passive {
            self.state = State::Active;
        } else {
            self.schedule_retry(now);
        }
    }

    fn send_keepalive(&mut self, now: u64, actions: &mut Vec<SessionAction>) {
        self.stats.keepalives_sent += 1;
        self.sent_keepalive = true;
        actions.push(SessionAction::SendBytes(encode_keepalive().to_vec()));
        let interval = self
            .peer
            .as_ref()
            .map_or(0, |p| u64::from(p.hold_time) * 1_000 / 3);
        self.keepalive_deadline = if interval == 0 {
            None
        } else {
            Some(now + interval)
        };
    }

    fn send_notification(
        &mut self,
        notification: &NotificationMessage,
        actions: &mut Vec<SessionAction>,
    ) {
        if let Ok(bytes) = notification.encode() {
            self.stats.notifications_sent += 1;
            actions.push(SessionAction::SendBytes(bytes));
        }
    }

    fn fsm_error(&mut self, now: u64, actions: &mut Vec<SessionAction>) {
        self.send_notification(&NotificationMessage::fsm_error(), actions);
        actions.push(SessionAction::Close);
        self.after_close(now);
    }

    fn is_connected_state(&self) -> bool {
        matches!(
            self.state,
            State::OpenSent | State::OpenConfirm | State::Established
        )
    }

    fn clear_connection(&mut self) {
        self.inbuf.clear();
        self.hold_deadline = None;
        self.keepalive_deadline = None;
        self.sent_open = false;
        self.recv_open = false;
        self.sent_keepalive = false;
        self.recv_keepalive = false;
        // `peer` is deliberately NOT cleared: UPDATEs decoded in the same
        // `handle()` call that tore the session down are still routed by
        // callers afterwards, and they need the identity that produced
        // them. The next handshake's OPEN overwrites it.
        self.encoding = AsnEncoding::FourOctet;
    }

    fn reset_to(&mut self, state: State) {
        self.clear_connection();
        self.connect_deadline = None;
        self.state = state;
    }

    /// True once every handshake step has completed. `Established` implies
    /// this; the property tests assert it over arbitrary event sequences.
    #[must_use]
    pub fn handshake_complete(&self) -> bool {
        self.sent_open && self.recv_open && self.sent_keepalive && self.recv_keepalive
    }
}

/// Maps a decoder rejection to the NOTIFICATION RFC 4271 prescribes.
fn notification_for(err: &WireError) -> NotificationMessage {
    match err.kind {
        WireErrorKind::BadMarker
        | WireErrorKind::BadMessageLength(_)
        | WireErrorKind::UnsupportedMessageType(_) => {
            NotificationMessage::new(notif::MESSAGE_HEADER_ERROR, 0)
        }
        WireErrorKind::BadVersion(_) => {
            NotificationMessage::new(notif::OPEN_MESSAGE_ERROR, notif::UNSUPPORTED_VERSION)
        }
        WireErrorKind::BadHoldTime(_) => {
            NotificationMessage::new(notif::OPEN_MESSAGE_ERROR, notif::UNACCEPTABLE_HOLD_TIME)
        }
        WireErrorKind::BadCapabilityLength { .. } => {
            NotificationMessage::new(notif::OPEN_MESSAGE_ERROR, notif::UNSUPPORTED_CAPABILITY)
        }
        WireErrorKind::BadNotificationCode(_) => {
            NotificationMessage::new(notif::MESSAGE_HEADER_ERROR, 0)
        }
        _ => NotificationMessage::new(notif::UPDATE_MESSAGE_ERROR, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active() -> Session {
        let mut cfg = SessionConfig::new(Asn(64512), 0x0A00_0001);
        cfg.hold_time = 90;
        Session::new(cfg)
    }

    fn take_bytes(actions: &[SessionAction]) -> Vec<u8> {
        let mut out = Vec::new();
        for a in actions {
            if let SessionAction::SendBytes(b) = a {
                out.extend_from_slice(b);
            }
        }
        out
    }

    #[test]
    fn start_connect_open_handshake_reaches_established() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        assert_eq!(s.state(), State::Connect);
        assert!(acts.contains(&SessionAction::Connect));

        acts.clear();
        s.handle(5, &Event::Connected, &mut acts);
        assert_eq!(s.state(), State::OpenSent);
        let open_bytes = take_bytes(&acts);
        assert!(!open_bytes.is_empty());

        // Peer's OPEN arrives.
        acts.clear();
        let peer_open = OpenMessage::new(Asn(70_000), 30, 0x0A00_0002)
            .encode()
            .unwrap();
        s.handle(10, &Event::Bytes(&peer_open), &mut acts);
        assert_eq!(s.state(), State::OpenConfirm);
        assert_eq!(s.peer().unwrap().asn, Asn(70_000));
        assert_eq!(s.peer().unwrap().hold_time, 30);

        // Peer's KEEPALIVE completes the handshake.
        acts.clear();
        s.handle(15, &Event::Bytes(&encode_keepalive()), &mut acts);
        assert_eq!(s.state(), State::Established);
        assert!(s.handshake_complete());
        assert_eq!(s.stats().established, 1);
    }

    #[test]
    fn hold_expiry_notifies_closes_and_schedules_retry() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        s.handle(0, &Event::Connected, &mut acts);
        let peer_open = OpenMessage::new(Asn(70_000), 3, 0x0A00_0002)
            .encode()
            .unwrap();
        s.handle(0, &Event::Bytes(&peer_open), &mut acts);
        s.handle(0, &Event::Bytes(&encode_keepalive()), &mut acts);
        assert_eq!(s.state(), State::Established);

        // Silence for > 3 s expires the hold timer.
        acts.clear();
        s.handle(3_500, &Event::Tick, &mut acts);
        assert_eq!(s.stats().hold_expirations, 1);
        assert!(acts.contains(&SessionAction::Close));
        let bytes = take_bytes(&acts);
        let (msg, _) = Message::decode_prefix_of(&bytes, AsnEncoding::FourOctet).unwrap();
        assert_eq!(
            msg,
            Message::Notification(NotificationMessage::hold_timer_expired())
        );
        // Active opener: a retry is scheduled, not a dead stop.
        assert_eq!(s.state(), State::Active);
        assert!(s.next_deadline().is_some());
    }

    #[test]
    fn keepalives_are_sent_at_a_third_of_hold() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        s.handle(0, &Event::Connected, &mut acts);
        let peer_open = OpenMessage::new(Asn(70_000), 30, 0x0A00_0002)
            .encode()
            .unwrap();
        s.handle(0, &Event::Bytes(&peer_open), &mut acts);
        s.handle(0, &Event::Bytes(&encode_keepalive()), &mut acts);
        let sent_before = s.stats().keepalives_sent;

        acts.clear();
        s.handle(10_000, &Event::Tick, &mut acts); // 30/3 = 10 s cadence
        assert_eq!(s.stats().keepalives_sent, sent_before + 1);
        assert_eq!(take_bytes(&acts), encode_keepalive().to_vec());
    }

    #[test]
    fn garbage_bytes_notify_and_close() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        s.handle(0, &Event::Connected, &mut acts);
        acts.clear();
        s.handle(1, &Event::Bytes(&[0u8; 19]), &mut acts);
        assert_eq!(s.stats().decode_errors, 1);
        assert!(acts.contains(&SessionAction::Close));
        let bytes = take_bytes(&acts);
        let (msg, _) = Message::decode_prefix_of(&bytes, AsnEncoding::FourOctet).unwrap();
        let Message::Notification(n) = msg else {
            panic!("expected NOTIFICATION, got {msg:?}");
        };
        assert_eq!(n.code, notif::MESSAGE_HEADER_ERROR);
    }

    #[test]
    fn partial_frames_buffer_until_complete() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        s.handle(0, &Event::Connected, &mut acts);
        let peer_open = OpenMessage::new(Asn(70_000), 30, 0x0A00_0002)
            .encode()
            .unwrap();
        // One byte at a time: no errors, OPEN processed at the last byte.
        for (i, b) in peer_open.iter().enumerate() {
            acts.clear();
            s.handle(
                1 + i as u64,
                &Event::Bytes(std::slice::from_ref(b)),
                &mut acts,
            );
        }
        assert_eq!(s.state(), State::OpenConfirm);
        assert_eq!(s.stats().decode_errors, 0);
    }

    #[test]
    fn capability_mismatch_is_refused_when_required() {
        let mut cfg = SessionConfig::new(Asn(64512), 1);
        cfg.require_four_octet = true;
        let mut s = Session::new(cfg);
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        s.handle(0, &Event::Connected, &mut acts);
        acts.clear();
        let mut bare = OpenMessage::new(Asn(70_000), 30, 2);
        bare.capabilities.clear();
        let bytes = bare.encode().unwrap();
        s.handle(1, &Event::Bytes(&bytes), &mut acts);
        let sent = take_bytes(&acts);
        let (msg, _) = Message::decode_prefix_of(&sent, AsnEncoding::FourOctet).unwrap();
        let Message::Notification(n) = msg else {
            panic!("expected NOTIFICATION, got {msg:?}");
        };
        assert_eq!(n.code, notif::OPEN_MESSAGE_ERROR);
        assert_eq!(n.subcode, notif::UNSUPPORTED_CAPABILITY);
        assert_ne!(s.state(), State::Established);
    }

    #[test]
    fn two_octet_peer_downgrades_update_encoding() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        s.handle(0, &Event::Connected, &mut acts);
        let mut bare = OpenMessage::new(Asn(64_000), 30, 2);
        bare.capabilities.clear();
        let bytes = bare.encode().unwrap();
        s.handle(1, &Event::Bytes(&bytes), &mut acts);
        assert!(!s.peer().unwrap().four_octet);
        s.handle(2, &Event::Bytes(&encode_keepalive()), &mut acts);
        assert_eq!(s.state(), State::Established);

        // A 4-octet-only path cannot be sent on a 2-octet session.
        use bgp_types::{AsPath, Ipv4Prefix, RouteOrigin};
        use bgp_wire::bgp::PathAttributes;
        let update = UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(PathAttributes {
                origin: RouteOrigin::Igp,
                as_path: AsPath::from_sequence([Asn(70_000)]),
                next_hop: 1,
                local_pref: None,
                communities: Vec::new(),
                large_communities: Vec::new(),
                mp_reach: None,
                mp_unreach: None,
            }),
            nlri: vec![Ipv4Prefix::new(0x0A00_0000, 8)],
        };
        acts.clear();
        assert!(!s.send_update(&update, &mut acts));
        assert!(acts.is_empty());
    }

    #[test]
    fn manual_stop_sends_cease_and_goes_idle() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        s.handle(0, &Event::Connected, &mut acts);
        acts.clear();
        s.handle(1, &Event::ManualStop, &mut acts);
        let bytes = take_bytes(&acts);
        let (msg, _) = Message::decode_prefix_of(&bytes, AsnEncoding::FourOctet).unwrap();
        assert_eq!(msg, Message::Notification(NotificationMessage::cease()));
        assert_eq!(s.state(), State::Idle);
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn update_before_established_is_an_fsm_error() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        s.handle(0, &Event::Connected, &mut acts);
        acts.clear();
        // A bare KEEPALIVE in OpenSent is out of order.
        s.handle(1, &Event::Bytes(&encode_keepalive()), &mut acts);
        let bytes = take_bytes(&acts);
        let (msg, _) = Message::decode_prefix_of(&bytes, AsnEncoding::FourOctet).unwrap();
        let Message::Notification(n) = msg else {
            panic!("expected NOTIFICATION, got {msg:?}");
        };
        assert_eq!(n.code, notif::FSM_ERROR);
    }

    #[test]
    fn connect_failure_backs_off_exponentially() {
        let mut s = active();
        let mut acts = Vec::new();
        s.handle(0, &Event::ManualStart, &mut acts);
        let mut now = 0;
        let mut delays = Vec::new();
        for _ in 0..4 {
            acts.clear();
            s.handle(now, &Event::ConnectFailed, &mut acts);
            assert_eq!(s.state(), State::Active);
            let deadline = s.next_deadline().unwrap();
            delays.push(deadline - now);
            now = deadline;
            acts.clear();
            s.handle(now, &Event::Tick, &mut acts);
            assert_eq!(s.state(), State::Connect);
            assert!(acts.contains(&SessionAction::Connect));
        }
        // Base 1000 ms doubling ladder (with jitter ≤ 50%): each floor
        // doubles, so delay 3 must exceed delay 0's floor by at least 4x.
        assert!(delays[3] >= 8 * 1_000, "delays: {delays:?}");
        assert!(delays[0] <= 1_500, "delays: {delays:?}");
    }
}
