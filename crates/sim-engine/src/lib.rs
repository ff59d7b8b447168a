//! Deterministic discrete-event simulation core.
//!
//! The paper evaluates the MOAS-list mechanism on a modified SSFnet BGP
//! simulator. This crate provides the substrate that plays SSFnet's role in
//! the reproduction: simulated time ([`SimTime`]), seeded random-number
//! helpers ([`rng`]) so every experiment is exactly reproducible from a `u64`
//! seed, deterministic fault plans ([`fault`]), and the counters an event
//! queue reports ([`QueueStats`]). The event queue itself lives with its one
//! user, `bgp-engine`, whose same-timestamp order is part of the BGP model.
//!
//! # Example
//!
//! ```
//! use sim_engine::{rng, SimTime};
//!
//! // Independent, reproducible streams from one experiment seed.
//! let links = rng::derive_seed(42, 0);
//! let faults = rng::derive_seed(42, 1);
//! assert_ne!(links, faults);
//! assert_eq!(links, rng::derive_seed(42, 0));
//!
//! let t = SimTime::from_ticks(10) + 5;
//! assert_eq!(t.ticks(), 15);
//! assert!(t > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod fault;
mod queue;
pub mod rng;
mod time;

pub use fault::{FaultAction, FaultPlan, FaultStats, LinkFaultModel, TimelineEntry};
pub use queue::QueueStats;
pub use time::SimTime;
