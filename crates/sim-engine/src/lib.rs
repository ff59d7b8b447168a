//! Simulated time and seeded randomness for the MOAS reproduction.
//!
//! Every experiment is exactly reproducible from one `u64` seed. This crate
//! holds what every simulating crate shares: simulated time ([`SimTime`])
//! and seeded random-number helpers ([`rng`]). The discrete-event engine
//! that plays SSFnet's role — event queue, counters, fault plans — is
//! `bgp-engine`, whose same-timestamp order and BGP events are part of the
//! model.
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

pub mod rng;
mod time;

pub use time::SimTime;
