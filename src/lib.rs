//! # moas — Detection of Invalid Routing Announcements in the Internet
//!
//! A full reproduction of the DSN 2002 paper *"Detection of Invalid Routing
//! Announcement in the Internet"* (Zhao, Pei, Wang, Massey, Mankin, Wu,
//! Zhang): the MOAS-list mechanism that lets BGP routers distinguish
//! legitimate Multiple-Origin-AS conflicts from bogus route announcements,
//! together with every substrate the paper's evaluation depends on — an
//! AS-level BGP simulator, Route Views-style topology derivation, the §3
//! MOAS measurement study, and the §5 experiment harness.
//!
//! This facade crate re-exports the workspace's public API so applications
//! can depend on a single crate:
//!
//! * [`types`] — BGP primitives: prefixes, AS paths, communities, MOAS lists,
//!   plus simulated time and the seeded RNG every experiment draws from;
//! * [`topology`] — AS graphs, synthetic Internet generation, the §5.1
//!   derivation pipeline, and the canonical 25/46/63-AS topologies;
//! * [`bgp`] — the AS-level BGP protocol engine with monitor hooks;
//! * [`detection`] — the MOAS monitor, verifiers, attacker models and the
//!   offline monitor (the paper's contribution);
//! * [`measurement`] — the Figures 4-5 measurement study;
//! * [`experiments`] — the Figures 9-11 experiment harness and ablations;
//! * [`wire`] — BGP UPDATE and MRT codecs bridging the simulator and the
//!   measurement pipeline through real Route Views-style bytes;
//! * [`metrics`] — the zero-dependency observability facade the simulator
//!   and experiment drivers record into (no-op unless a recording sink is
//!   passed; see `experiments::metrics` for serialization);
//! * [`daemon`] — the MOAS-list serving daemon behind the `moas-labd`
//!   binary: HTTP validity queries, an RTR-style incremental push feed, and
//!   SLURM-style local exceptions;
//! * [`session`] — live RFC 4271 BGP sessions: the deterministic FSM, the
//!   two-peer simulation harness behind the session chaos scenarios, and
//!   the real-TCP listener/replay shells.
//!
//! # Quickstart
//!
//! Reproduce Figure 3's traffic hijack and stop it with the MOAS list:
//!
//! ```
//! use moas::bgp::Network;
//! use moas::detection::{MoasMonitor, RegistryVerifier};
//! use moas::topology::{AsGraph, AsRole};
//! use moas::types::{Asn, MoasList};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = AsGraph::new();
//! g.add_as(Asn(4), AsRole::Stub);   // legitimate origin
//! g.add_as(Asn(52), AsRole::Stub);  // attacker
//! for t in [1, 2, 3] { g.add_as(Asn(t), AsRole::Transit); }
//! for (a, b) in [(4, 2), (4, 3), (2, 1), (3, 1), (52, 1)] {
//!     g.add_link(Asn(a), Asn(b));
//! }
//!
//! let prefix = "208.8.0.0/16".parse()?;
//! let valid = MoasList::implicit(Asn(4));
//! let mut registry = RegistryVerifier::new();
//! registry.register(prefix, valid.clone());
//!
//! let mut net = Network::with_monitor(&g, MoasMonitor::full(registry));
//! net.originate(Asn(4), prefix, Some(valid));
//! net.originate(Asn(52), prefix, None); // the false origin
//! net.run()?;
//!
//! // AS 1 would adopt AS 52's shorter route under plain BGP; with the MOAS
//! // list the conflict is detected and the bogus route rejected.
//! assert_eq!(net.best_origin(Asn(1), prefix), Some(Asn(4)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// BGP primitives ([`bgp_types`]).
pub mod types {
    pub use bgp_types::*;
}

/// AS-level topologies ([`as_topology`]).
pub mod topology {
    pub use as_topology::*;
}

/// The AS-level BGP protocol engine ([`bgp_engine`]).
pub mod bgp {
    pub use bgp_engine::*;
}

/// The MOAS-list detection mechanism ([`moas_core`]).
pub mod detection {
    pub use moas_core::*;
}

/// The §3 measurement study ([`route_measurement`]).
pub mod measurement {
    pub use route_measurement::*;
}

/// The §5 experiment harness ([`experiments`] crate).
pub mod experiments {
    pub use experiments::*;
}

/// RFC 4271/1997 BGP and RFC 6396 MRT wire codecs ([`bgp_wire`]).
pub mod wire {
    pub use bgp_wire::*;
}

/// Zero-dependency metrics facade ([`minimetrics`]).
pub mod metrics {
    pub use minimetrics::*;
}

/// The MOAS-list serving daemon and its clients ([`moas_daemon`]): the
/// prefix→origin-set table behind `moas-labd`'s HTTP query endpoint and
/// RTR-style push feed, plus SLURM-style local exceptions.
pub mod daemon {
    pub use moas_daemon::*;
}

/// Live RFC 4271 BGP sessions ([`bgp_session`]): the deterministic FSM
/// with retry/backoff and hold timers, the in-memory two-peer harness, and
/// the real-TCP shells behind `moas-labd --bgp` and `moas-lab
/// session-replay`.
pub mod session {
    pub use bgp_session::*;
}
