//! AS-level BGP protocol engine.
//!
//! This crate plays the role of the modified SSFnet BGP simulator the paper
//! used for its evaluation (§5.1): every node is one autonomous system
//! speaking BGP to its peers, with per-peer Adj-RIB-In tables, a
//! deterministic decision process (highest `LOCAL_PREF`, then shortest AS
//! path, then lowest peer ASN), AS-path loop suppression, split-horizon
//! advertisement, and event-driven propagation over a deterministic
//! discrete-event queue with per-link delays, timed in
//! [`bgp_types::SimTime`] ticks. Lossy links, link failures, session resets
//! and scripted origin churn are injected reproducibly through a
//! [`NetFaultPlan`].
//!
//! Route validation — the paper's MOAS-list checking — plugs in through the
//! [`RouteMonitor`] trait, which sees every import and export. The `moas-core`
//! crate provides the paper's monitor; [`NoopMonitor`] gives the "Normal BGP"
//! baseline.
//!
//! # Example
//!
//! ```
//! use as_topology::{AsGraph, AsRole};
//! use bgp_engine::Network;
//! use bgp_types::Asn;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Figure 1: AS 4 originates 208.8.0.0/16 toward AS Y (=2) and AS Z (=3),
//! // which both serve AS X (=1).
//! let mut g = AsGraph::new();
//! g.add_as(Asn(4), AsRole::Stub);
//! for t in [1, 2, 3] { g.add_as(Asn(t), AsRole::Transit); }
//! g.add_link(Asn(4), Asn(2));
//! g.add_link(Asn(4), Asn(3));
//! g.add_link(Asn(2), Asn(1));
//! g.add_link(Asn(3), Asn(1));
//!
//! let mut net = Network::new(&g);
//! net.originate(Asn(4), "208.8.0.0/16".parse()?, None);
//! net.run()?;
//!
//! // AS X picked one of the two equal-length paths; both originate at AS 4.
//! assert_eq!(net.best_origin(Asn(1), "208.8.0.0/16".parse()?), Some(Asn(4)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod error;
mod fault;
mod forwarding;
mod monitor;
mod network;
mod policy;
mod queue;
mod router;
mod sharded;
mod stats;
mod update;
mod valley_free;

pub use error::{ConvergenceError, FaultPlanError};
pub use fault::{FaultEvent, FaultStats, LinkFaultModel, NetFaultPlan};
pub use forwarding::{ForwardOutcome, ForwardingPlane};
pub use monitor::{
    ExportAction, HeldIter, HeldRoutes, ImportContext, ImportDecision, NoopMonitor, RouteMonitor,
};
pub use network::Network;
pub use policy::{CommunityPolicies, CommunityPolicy, CommunityPolicyMap, REWRITE_MARKER_VALUE};
pub use queue::QueueStats;
pub use router::Router;
pub use sharded::ShardedNetwork;
pub use stats::{NetworkStats, SessionCounters};
pub use valley_free::ValleyFree;
