//! Active (connecting) side over real TCP: a blocking driver that opens a
//! session to a listener, replays a stream of UPDATEs once established,
//! and survives connection loss with the FSM's own jittered backoff.
//!
//! This is the engine behind `moas-lab session-replay`: it turns an MRT
//! archive's updates into live BGP traffic against a standing daemon. The
//! FSM stays in charge of *all* protocol decisions — the driver only
//! executes its actions against a real socket and feeds wall-clock time
//! back in as virtual milliseconds.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bgp_wire::bgp::UpdateMessage;

use crate::fsm::{
    Event, Session, SessionAction, SessionConfig, SessionStats, State, CONNECT_TIMEOUT_MS,
};

/// How long each blocking read waits before the FSM gets a `Tick`.
const READ_SLICE: Duration = Duration::from_millis(20);
/// UPDATEs written per pump iteration once established (bounds memory in
/// the socket buffer, not throughput).
const PUMP_BATCH: usize = 64;

/// [`replay_updates`] gives up after this many TCP connect attempts.
const MAX_CONNECT_ATTEMPTS: u32 = 5;
/// [`replay_updates`] gives up if a single attempt cannot reach
/// `Established` within this wall-clock budget, in ms.
const ESTABLISH_TIMEOUT_MS: u64 = 30_000;

/// Why a replay run gave up.
#[derive(Debug)]
pub enum DriverError {
    /// TCP-level failure after exhausting every connect attempt.
    ConnectExhausted {
        /// Attempts made.
        attempts: u32,
        /// The last connect error observed.
        last: std::io::Error,
    },
    /// The session never reached `Established` within the budget.
    EstablishTimeout {
        /// The state the FSM was in when the budget ran out.
        state: State,
    },
    /// An I/O error on an established connection with no retry budget
    /// left.
    Io(std::io::Error),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::ConnectExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} connect attempts: {last}")
            }
            DriverError::EstablishTimeout { state } => {
                write!(f, "session stuck in {state:?} past the establish budget")
            }
            DriverError::Io(e) => write!(f, "session I/O error: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// What a completed replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// UPDATEs written into the session.
    pub updates_sent: u64,
    /// TCP connects that succeeded (1 = no reconnects needed).
    pub connects: u32,
    /// Final FSM counters.
    pub stats: SessionStats,
}

/// Connects to `addr`, establishes a BGP session as `cfg`, replays every
/// UPDATE from `updates`, then closes with Cease. Reconnects (resuming
/// where the iterator left off) on connection loss, with the FSM's backoff
/// pacing the attempts, and gives up after 5 connect attempts or when one
/// connection stays short of `Established` for 30 s.
///
/// # Errors
///
/// [`DriverError::ConnectExhausted`] when TCP never comes up,
/// [`DriverError::EstablishTimeout`] when the handshake stalls, and
/// [`DriverError::Io`] for a mid-session failure with no budget left.
pub fn replay_updates(
    addr: SocketAddr,
    cfg: &SessionConfig,
    updates: &mut dyn Iterator<Item = UpdateMessage>,
) -> Result<ReplayReport, DriverError> {
    let mut session = Session::new(cfg.clone());
    let epoch = Instant::now();
    let now_ms = |epoch: &Instant| u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);

    let mut report = ReplayReport::default();
    let mut attempts: u32 = 0;
    let mut last_err: Option<std::io::Error> = None;
    let mut pending: Option<UpdateMessage> = None;
    let mut done = false;

    // Kick the FSM; it emits the first Connect.
    let mut actions = Vec::new();
    session.handle(now_ms(&epoch), &Event::ManualStart, &mut actions);

    'attempts: while attempts < MAX_CONNECT_ATTEMPTS {
        // Honor the FSM's retry pacing: wait out its deadline if it is
        // backing off rather than asking to connect right now.
        while !actions.contains(&SessionAction::Connect) {
            match session.next_deadline() {
                Some(t) => {
                    let now = now_ms(&epoch);
                    if t > now {
                        std::thread::sleep(Duration::from_millis(t - now));
                    }
                    actions.clear();
                    session.handle(now_ms(&epoch), &Event::Tick, &mut actions);
                }
                None => break 'attempts, // Idle: nothing will ever fire
            }
        }
        actions.clear();

        attempts += 1;
        let stream =
            match TcpStream::connect_timeout(&addr, Duration::from_millis(CONNECT_TIMEOUT_MS)) {
                Ok(s) => s,
                Err(e) => {
                    last_err = Some(e);
                    session.handle(now_ms(&epoch), &Event::ConnectFailed, &mut actions);
                    continue;
                }
            };
        if let Err(e) = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_SLICE)))
        {
            last_err = Some(e);
            session.handle(now_ms(&epoch), &Event::ConnectFailed, &mut actions);
            continue;
        }
        report.connects += 1;

        match drive_connection(
            &mut session,
            stream,
            &epoch,
            updates,
            &mut pending,
            &mut report,
            &mut done,
        ) {
            Ok(()) => {
                // Replay finished, Cease sent.
                report.stats = *session.stats();
                return Ok(report);
            }
            Err(ConnectionOutcome::Lost) => {
                // The FSM has already scheduled its retry; loop around.
                actions.clear();
                session.handle(now_ms(&epoch), &Event::Tick, &mut actions);
            }
            Err(ConnectionOutcome::EstablishTimeout) => {
                return Err(DriverError::EstablishTimeout {
                    state: session.state(),
                });
            }
            Err(ConnectionOutcome::Io(e)) => {
                last_err = Some(e);
                actions.clear();
                session.handle(now_ms(&epoch), &Event::Closed, &mut actions);
            }
        }
    }

    Err(DriverError::ConnectExhausted {
        attempts,
        last: last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::TimedOut, "no connect attempt recorded an error")
        }),
    })
}

/// Why one connection's drive loop ended without finishing the replay.
enum ConnectionOutcome {
    /// The FSM closed the connection (error path); retry per its backoff.
    Lost,
    /// Never established within the budget.
    EstablishTimeout,
    /// Socket-level failure.
    Io(std::io::Error),
}

fn drive_connection(
    session: &mut Session,
    mut stream: TcpStream,
    epoch: &Instant,
    updates: &mut dyn Iterator<Item = UpdateMessage>,
    pending: &mut Option<UpdateMessage>,
    report: &mut ReplayReport,
    done: &mut bool,
) -> Result<(), ConnectionOutcome> {
    let now_ms = |epoch: &Instant| u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
    let established_deadline = now_ms(epoch) + ESTABLISH_TIMEOUT_MS;

    let mut actions = Vec::new();
    session.handle(now_ms(epoch), &Event::Connected, &mut actions);

    let mut buf = [0u8; 64 * 1024];
    loop {
        // Execute pending actions against the socket.
        let mut closed = false;
        for action in actions.drain(..) {
            match action {
                SessionAction::SendBytes(bytes) => {
                    stream.write_all(&bytes).map_err(ConnectionOutcome::Io)?;
                }
                SessionAction::Close => closed = true,
                SessionAction::Connect | SessionAction::Deliver(_) => {}
            }
        }
        if closed {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            if *done {
                // ManualStop path: the Cease went out; replay is complete.
                return Ok(());
            }
            return Err(ConnectionOutcome::Lost);
        }

        if session.state() == State::Established {
            // Pump the replay stream.
            let mut wrote = 0;
            while wrote < PUMP_BATCH {
                let Some(update) = pending.take().or_else(|| updates.next()) else {
                    // Replay finished: Cease and close.
                    *done = true;
                    session.handle(now_ms(epoch), &Event::ManualStop, &mut actions);
                    break;
                };
                if session.send_update(&update, &mut actions) {
                    report.updates_sent += 1;
                    wrote += 1;
                } else {
                    *pending = Some(update);
                    break;
                }
            }
            if !actions.is_empty() {
                continue; // write the batch (and possibly the Cease) out
            }
        } else if now_ms(epoch) > established_deadline {
            return Err(ConnectionOutcome::EstablishTimeout);
        }

        // Wait for input (bounded by the read timeout), then tick.
        match stream.read(&mut buf) {
            Ok(0) => {
                session.handle(now_ms(epoch), &Event::Closed, &mut actions);
                return Err(ConnectionOutcome::Lost);
            }
            Ok(n) => {
                session.handle(now_ms(epoch), &Event::Bytes(&buf[..n]), &mut actions);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                session.handle(now_ms(epoch), &Event::Tick, &mut actions);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ConnectionOutcome::Io(e)),
        }
    }
}
