//! The data plane: longest-match forwarding over converged Loc-RIBs.
//!
//! The control-plane census ("who adopted a false route for prefix p") misses
//! the §4.3 sub-prefix hijack entirely: the victim's route for `p` is intact
//! everywhere, yet packets to addresses inside the hijacked more-specific
//! still flow to the attacker. Tracing actual packets over per-router FIBs
//! exposes that, and also detects forwarding loops caused by transient or
//! inconsistent control-plane state.

use std::collections::BTreeSet;
use std::fmt;

use bgp_types::{Asn, Ipv4Prefix, PrefixTrie};

use crate::monitor::RouteMonitor;
use crate::sharded::ShardedNetwork;

/// Where a traced packet ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// The packet reached an AS that originates the longest-matching prefix.
    Delivered {
        /// The full AS-level path, source first, destination last.
        path: Vec<Asn>,
    },
    /// An AS on the way had no route for the destination.
    Blackholed {
        /// The path walked before the packet was dropped.
        path: Vec<Asn>,
    },
    /// Forwarding revisited an AS: a loop.
    Looped {
        /// The path up to and including the repeated AS.
        path: Vec<Asn>,
    },
}

impl ForwardOutcome {
    /// The AS the packet finally landed at.
    #[must_use]
    pub fn last_hop(&self) -> Option<Asn> {
        match self {
            ForwardOutcome::Delivered { path }
            | ForwardOutcome::Blackholed { path }
            | ForwardOutcome::Looped { path } => path.last().copied(),
        }
    }

    /// Returns `true` if the packet was delivered to `asn`.
    #[must_use]
    pub fn delivered_to(&self, asn: Asn) -> bool {
        matches!(self, ForwardOutcome::Delivered { path } if path.last() == Some(&asn))
    }
}

impl fmt::Display for ForwardOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, path) = match self {
            ForwardOutcome::Delivered { path } => ("delivered", path),
            ForwardOutcome::Blackholed { path } => ("blackholed", path),
            ForwardOutcome::Looped { path } => ("looped", path),
        };
        write!(f, "{kind} via ")?;
        for (i, asn) in path.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{asn}")?;
        }
        Ok(())
    }
}

/// A snapshot of every router's FIB, for packet tracing.
///
/// Build it once after convergence; each trace is then a pure lookup walk.
///
/// # Example
///
/// ```
/// use as_topology::{AsGraph, AsRole};
/// use bgp_engine::{ForwardingPlane, Network};
/// use bgp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = AsGraph::new();
/// g.add_as(Asn(4), AsRole::Stub);
/// g.add_as(Asn(1), AsRole::Transit);
/// g.add_link(Asn(4), Asn(1));
///
/// let prefix = "208.8.0.0/16".parse()?;
/// let mut net = Network::new(&g);
/// net.originate(Asn(4), prefix, None);
/// net.run()?;
///
/// let plane = ForwardingPlane::snapshot(&net);
/// let outcome = plane.trace(Asn(1), prefix.network());
/// assert!(outcome.delivered_to(Asn(4)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ForwardingPlane {
    /// Per-AS FIB: longest-match prefix → (next-hop peer, or `None` when the
    /// AS originates the prefix itself).
    fibs: std::collections::BTreeMap<Asn, PrefixTrie<Option<Asn>>>,
}

impl ForwardingPlane {
    /// Captures the FIB of every router in the network.
    #[must_use]
    pub fn snapshot<M: RouteMonitor>(net: &ShardedNetwork<M>) -> Self {
        let mut fibs = std::collections::BTreeMap::new();
        for asn in net.asns() {
            let router = net.router(asn).expect("asns() yields live routers");
            let mut fib = PrefixTrie::new();
            for prefix in router.prefixes() {
                fib.insert(prefix, router.best_learned_from(prefix));
            }
            fibs.insert(asn, fib);
        }
        ForwardingPlane { fibs }
    }

    /// The FIB entry an AS uses for a destination address.
    #[must_use]
    pub fn lookup(&self, asn: Asn, addr: u32) -> Option<(Ipv4Prefix, Option<Asn>)> {
        self.fibs
            .get(&asn)?
            .longest_match(addr)
            .map(|(prefix, next)| (prefix, *next))
    }

    /// Traces a packet from `src` toward the 32-bit address `addr`, hop by
    /// hop, each AS applying its own longest-match FIB.
    #[must_use]
    pub fn trace(&self, src: Asn, addr: u32) -> ForwardOutcome {
        let mut path = vec![src];
        let mut seen: BTreeSet<Asn> = BTreeSet::new();
        seen.insert(src);
        let mut current = src;
        loop {
            match self.lookup(current, addr) {
                None => return ForwardOutcome::Blackholed { path },
                Some((_, None)) => return ForwardOutcome::Delivered { path },
                Some((_, Some(next))) => {
                    path.push(next);
                    if !seen.insert(next) {
                        return ForwardOutcome::Looped { path };
                    }
                    current = next;
                }
            }
        }
    }

    /// Counts, over all ASes except `exclude`, where traffic to `addr` lands:
    /// `(delivered_to_target, delivered_elsewhere, blackholed_or_looped)`.
    #[must_use]
    pub fn capture_census(
        &self,
        addr: u32,
        target: Asn,
        exclude: &BTreeSet<Asn>,
    ) -> (usize, usize, usize) {
        let mut to_target = 0;
        let mut elsewhere = 0;
        let mut lost = 0;
        for &asn in self.fibs.keys() {
            if exclude.contains(&asn) {
                continue;
            }
            match self.trace(asn, addr) {
                ForwardOutcome::Delivered { path } if path.last() == Some(&target) => {
                    to_target += 1;
                }
                ForwardOutcome::Delivered { .. } => elsewhere += 1,
                _ => lost += 1,
            }
        }
        (to_target, elsewhere, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use as_topology::{AsGraph, AsRole};
    use bgp_types::Ipv4Prefix;

    fn diamond() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_as(Asn(4), AsRole::Stub);
        g.add_as(Asn(52), AsRole::Stub);
        for t in [1, 2, 3] {
            g.add_as(Asn(t), AsRole::Transit);
        }
        for (a, b) in [(4, 2), (4, 3), (2, 1), (3, 1), (52, 1)] {
            g.add_link(Asn(a), Asn(b));
        }
        g
    }

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    #[test]
    fn packets_follow_best_paths_to_the_origin() {
        let mut net = Network::new(&diamond());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        let plane = ForwardingPlane::snapshot(&net);
        for src in [1u32, 2, 3, 52] {
            let outcome = plane.trace(Asn(src), p().network());
            assert!(outcome.delivered_to(Asn(4)), "AS {src}: {outcome}");
        }
    }

    #[test]
    fn unrouted_destination_blackholes_at_source() {
        let mut net = Network::new(&diamond());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        let plane = ForwardingPlane::snapshot(&net);
        let outcome = plane.trace(
            Asn(1),
            "9.9.9.9/32".parse::<Ipv4Prefix>().unwrap().network(),
        );
        assert_eq!(outcome, ForwardOutcome::Blackholed { path: vec![Asn(1)] });
    }

    #[test]
    fn subprefix_hijack_steals_traffic_despite_intact_covering_route() {
        let mut net = Network::new(&diamond());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        // Attacker announces the lower more-specific half.
        let (sub, _) = p().split().unwrap();
        net.originate(Asn(52), sub, None);
        net.run().unwrap();

        let plane = ForwardingPlane::snapshot(&net);
        // An address inside the hijacked half flows to the attacker...
        let outcome = plane.trace(Asn(1), sub.network());
        assert!(outcome.delivered_to(Asn(52)), "{outcome}");
        // ...while an address in the other half still reaches the victim.
        let safe_addr = p().split().unwrap().1.network();
        assert!(plane.trace(Asn(1), safe_addr).delivered_to(Asn(4)));
    }

    #[test]
    fn capture_census_counts_victim_and_attacker_deliveries() {
        let mut net = Network::new(&diamond());
        net.originate(Asn(4), p(), None);
        net.originate(Asn(52), p(), None);
        net.run().unwrap();
        let plane = ForwardingPlane::snapshot(&net);
        let exclude: BTreeSet<Asn> = [Asn(52)].into_iter().collect();
        let (to_victim, elsewhere, lost) = plane.capture_census(p().network(), Asn(4), &exclude);
        // Five ASes total, one excluded.
        assert_eq!(to_victim + elsewhere + lost, 4);
        assert!(elsewhere > 0, "the attacker captures AS 1's traffic");
        assert_eq!(lost, 0);
    }

    #[test]
    fn display_formats_paths() {
        let outcome = ForwardOutcome::Delivered {
            path: vec![Asn(1), Asn(2)],
        };
        assert_eq!(outcome.to_string(), "delivered via AS1 -> AS2");
        assert_eq!(outcome.last_hop(), Some(Asn(2)));
    }
}
