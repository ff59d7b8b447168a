//! BGP primitives for the MOAS reproduction.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace: autonomous-system numbers ([`Asn`]), IPv4 address prefixes
//! ([`Ipv4Prefix`]), AS paths ([`AsPath`]) with `AS_SEQUENCE`/`AS_SET`
//! segments, BGP community attributes ([`Community`]), the MOAS list
//! ([`MoasList`]) proposed by the paper, and route/update message types
//! ([`Route`], [`Update`]). It also holds what every simulating crate
//! shares: simulated time ([`SimTime`]) and the seeded random-number
//! helpers ([`rng`]) that make every experiment exactly reproducible from
//! one `u64` seed.
//!
//! The types follow the wire-level semantics of BGP-4 (RFC 1771/4271) at the
//! granularity needed for AS-level simulation: attribute octets are modeled,
//! but TCP sessions and finite-state machines are not.
//!
//! # Example
//!
//! ```
//! use bgp_types::{Asn, AsPath, Ipv4Prefix, MoasList, Route};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prefix: Ipv4Prefix = "10.2.0.0/16".parse()?;
//! let path = AsPath::from_sequence([Asn(40), Asn(2260)]);
//! assert_eq!(path.origin(), Some(Asn(2260)));
//!
//! // A prefix multi-homed to AS 40 and AS 2260 carries a MOAS list naming both.
//! let list = MoasList::from_iter([Asn(40), Asn(2260)]);
//! let route = Route::new(prefix, path).with_moas_list(list);
//! assert!(route.moas_list().is_some());
//! # Ok(())
//! # }
//! ```
//!
//! Independent, reproducible streams from one experiment seed:
//!
//! ```
//! use bgp_types::{rng, SimTime};
//!
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

mod as_path;
mod asn;
mod community;
mod error;
mod intern;
mod moas_list;
mod prefix;
pub mod rng;
mod route;
mod time;
mod trie;
mod update;

pub use as_path::{AsPath, AsPathSegment, SegmentKind};
pub use asn::Asn;
pub use community::Community;
pub use error::{ParseAsPathError, ParseAsnError, ParsePrefixError};
pub use intern::Interner;
pub use moas_list::{first_conflict, ConflictKind, MoasList};
pub use prefix::{Ipv4Prefix, Ipv6Prefix};
pub use route::{Route, RouteOrigin};
pub use time::SimTime;
pub use trie::{Covering, CoveringIter, PrefixTrie, TrieIter};
pub use update::Update;
