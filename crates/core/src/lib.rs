//! MOAS-list detection of invalid routing announcements — the paper's
//! primary contribution.
//!
//! The mechanism (§4): every AS entitled to originate a prefix attaches an
//! identical *MOAS list* to its announcements, encoded in the BGP community
//! attribute. A router that receives announcements for the same prefix whose
//! lists disagree — or whose origin is missing from its own list — has
//! detected a conflict: it raises an alarm and, after verifying the true
//! origin set (e.g. against a DNS `MOASRR` record, §4.4), stops the false
//! route from propagating.
//!
//! This crate provides:
//!
//! * [`find_conflict`] — the pure §4.2 consistency check;
//! * [`MoasMonitor`] — the mechanism plugged into the
//!   [`bgp_engine`] import/export pipeline, with configurable
//!   [`Deployment`] (full / partial / none) and community-stripping ASes
//!   (§4.3);
//! * origin verifiers ([`RegistryVerifier`], [`DnsMoasVerifier`]) for the
//!   post-alarm resolution step;
//! * attacker models ([`FalseOriginAttack`], [`SubPrefixHijack`]) matching
//!   §5's threat model and §4.3's limitations;
//! * an [`OfflineMonitor`] implementing the paper's "off-line monitoring
//!   process" deployment alternative.
//!
//! # Example: detecting the Figure 6 forgery
//!
//! ```
//! use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
//! use moas_core::{find_conflict, ConflictKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p: Ipv4Prefix = "208.8.0.0/16".parse()?;
//! let honest_list: MoasList = [Asn(1), Asn(2)].into_iter().collect();
//! let forged_list: MoasList = [Asn(1), Asn(2), Asn(666)].into_iter().collect();
//!
//! let valid = Route::new(p, AsPath::origination(Asn(1))).with_moas_list(honest_list);
//! let forged = Route::new(p, AsPath::origination(Asn(666))).with_moas_list(forged_list);
//!
//! let conflict = find_conflict(&forged, &[(None, valid)]).expect("must be detected");
//! assert_eq!(conflict.kind, ConflictKind::InconsistentLists);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alarm;
mod attack;
mod deployment;
mod detector;
mod monitor;
mod offline;
mod verifier;

pub use alarm::{Alarm, AlarmLog, Resolution};
pub use attack::{FalseOriginAttack, ListForgery, SubPrefixHijack};
pub use deployment::Deployment;
pub use detector::{find_conflict, Conflict, ConflictKind, HeldRoute};
pub use monitor::{MoasConfig, MoasMonitor, UnresolvedPolicy};
pub use offline::{OfflineFinding, OfflineMonitor};
pub use verifier::{DnsMoasVerifier, OriginVerifier, RegistryVerifier};
