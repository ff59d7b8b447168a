//! AS-level topology model for the MOAS reproduction.
//!
//! The paper derives its simulation topologies from real BGP tables collected
//! at the Oregon Route Views server (§5.1): it infers BGP peering relations
//! from AS-path adjacency, classifies ASes as *transit* or *stub*, randomly
//! selects a fraction of the stub ASes together with their ISP peers,
//! iteratively prunes transit ASes left with at most one peer, and verifies
//! the result is connected.
//!
//! We cannot ship the 1997-2001 Route Views archives, so this crate supplies
//! the closest synthetic equivalent (per the reproduction's substitution
//! rule): an Internet-like ground-truth generator ([`InternetModel`]) and a
//! Route Views-style table synthesizer ([`RouteTable::synthesize`]) feeding
//! the *same* derivation pipeline the paper used ([`fn@derive`]). The pipeline
//! code is exactly the paper's procedure and would run unchanged on a real
//! table dump.
//!
//! # Example
//!
//! ```
//! use as_topology::{InternetModel, RouteTable, derive, infer_graph};
//!
//! // Ground truth: a synthetic Internet with a transit core and stub edges.
//! let truth = InternetModel::new().transit_count(20).stub_count(80).build(42);
//!
//! // What Route Views would see: tables from a few vantage points.
//! let table = RouteTable::synthesize(&truth, &[5], 42);
//!
//! // The paper's §5.1 pipeline: infer peering, sample stubs, prune, check.
//! let inferred = infer_graph(table.entries());
//! let topology = derive(&inferred, 0.3, 7).unwrap();
//! assert!(topology.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod derive;
mod gen;
mod graph;
mod index;
mod infer;
mod metrics;
mod orgs;
pub mod paper;
mod partition;
mod relationships;
mod table;

pub use derive::{derive, DeriveError};
pub use gen::{InternetModel, ScaleFreeModel};
pub use graph::{AsGraph, AsRole};
pub use index::{GraphIndex, NodeNumbering};
pub use infer::infer_graph;
pub use metrics::GraphMetrics;
pub use orgs::OrgAnnotations;
pub use partition::Partition;
pub use relationships::{infer_relationships, AsRelationships, LinkKind, Relationship};
pub use table::{prefix_for_asn, RouteTable, RouteTableEntry};
