//! Live BGP sessions for the MOAS workspace: a deterministic RFC 4271
//! finite-state machine with retry/backoff and hold timers, runnable
//! against pure event sequences (property tests, chaos trials) *and* over
//! real loopback TCP.
//!
//! The paper's pipeline consumes routing data as MRT archives; everything
//! upstream of those archives — the BGP sessions collectors maintain with
//! their peers — was out of scope until now. This crate closes that gap
//! with three layers:
//!
//! * [`fsm`] — the sans-IO core. A [`Session`] consumes typed events
//!   (connect results, raw bytes, clock ticks) at an explicit virtual time
//!   and emits typed actions (connect requests, wire bytes, delivered
//!   UPDATEs). No sockets, no threads, no wall clock: the same FSM drives
//!   unit tests, seeded chaos trials, and production sockets byte for
//!   byte.
//! * [`sim`] — [`SessionSim`], an in-memory two-peer harness that shuttles
//!   bytes between two FSMs under a virtual clock, with seeded fault
//!   injection hooks (dropped keepalives, NOTIFICATION storms, TCP resets,
//!   byte corruption). The session-level chaos scenarios run here, which
//!   is what keeps their reports byte-identical across `--jobs N`.
//! * [`service`] / [`driver`] — the real-IO shells: a [`minisock`]
//!   [`Service`](minisock::Service) adapter for the passive (listening)
//!   side and a blocking active-open driver with bounded, jittered
//!   reconnect for the `session-replay` tool:
//!   [`replay_updates(addr, &SessionConfig, updates)`](replay_updates)
//!   takes the session's identity and timers, and its connect budget (5
//!   attempts, 30 s each to connect and to establish) is fixed.
//!
//! [`backoff`] carries the shared jittered-exponential-backoff helper; the
//! daemon's feed client reuses it so "how we retry" has exactly one
//! definition in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod driver;
pub mod fsm;
pub mod service;
pub mod sim;

pub use backoff::Backoff;
pub use driver::{replay_updates, DriverError, ReplayReport};
pub use fsm::{Event, PeerInfo, Session, SessionAction, SessionConfig, SessionStats, State};
pub use service::{BgpListener, SessionHandler};
pub use sim::{SessionSim, SimConfig};
