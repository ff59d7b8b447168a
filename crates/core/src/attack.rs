//! Attacker models.
//!
//! §5's threat model: "we assume a model where attackers inject false routing
//! announcements at randomly selected locations" — a compromised or
//! misconfigured AS originates a route to a prefix it cannot reach
//! (Figure 3). [`FalseOriginAttack`] covers that model with every list-forgery
//! variant an attacker might try against the MOAS check; [`SubPrefixHijack`]
//! implements the §4.3 limitation the mechanism deliberately does *not*
//! catch, so the ablation benches can demonstrate the boundary.

use std::fmt;

use bgp_engine::{RouteMonitor, ShardedNetwork};
use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};

/// How a false-origin attacker manipulates the MOAS list on its bogus
/// announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ListForgery {
    /// Attach no list at all. Receivers apply the implicit `{attacker}`
    /// rule, which conflicts with the victims' advertised list. This is what
    /// an *accidental* misorigination (a configuration fault) looks like.
    #[default]
    None,
    /// Attach the valid list **plus** the attacker itself — the §4.1
    /// adversary: "AS 3 could attach its own MOAS list that includes AS 1,
    /// AS 2, and AS 3". Still inconsistent with the honest list.
    IncludeSelf,
    /// Copy the valid list verbatim without adding the attacker. Defeats the
    /// pairwise comparison but fails the origin-membership self-test.
    CopyValid,
}

impl fmt::Display for ListForgery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ListForgery::None => "no list",
            ListForgery::IncludeSelf => "valid list plus self",
            ListForgery::CopyValid => "copied valid list",
        })
    }
}

/// A compromised AS originating a route to a prefix it cannot reach.
///
/// # Example
///
/// ```
/// use bgp_types::{Asn, MoasList};
/// use moas_core::{FalseOriginAttack, ListForgery};
///
/// let attack = FalseOriginAttack::new(ListForgery::IncludeSelf);
/// let valid: MoasList = [Asn(1), Asn(2)].into_iter().collect();
/// let route = attack.forged_route("10.0.0.0/16".parse().unwrap(), Asn(666), &valid);
/// // The forged list names the attacker alongside the real origins.
/// assert!(route.moas_list().unwrap().contains(Asn(666)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FalseOriginAttack {
    forgery: ListForgery,
}

impl FalseOriginAttack {
    /// Creates an attack with the given list-forgery strategy.
    #[must_use]
    pub fn new(forgery: ListForgery) -> Self {
        FalseOriginAttack { forgery }
    }

    /// The forgery strategy.
    #[must_use]
    pub fn forgery(&self) -> ListForgery {
        self.forgery
    }

    /// Builds the bogus route `attacker` would originate for `prefix`, given
    /// the legitimate origins' list.
    #[must_use]
    pub fn forged_route(&self, prefix: Ipv4Prefix, attacker: Asn, valid_list: &MoasList) -> Route {
        let route = Route::new(prefix, AsPath::new());
        match self.forgery {
            ListForgery::None => route,
            ListForgery::IncludeSelf => {
                let mut list = valid_list.clone();
                list.insert(attacker);
                route.with_moas_list(list)
            }
            ListForgery::CopyValid => route.with_moas_list(valid_list.clone()),
        }
    }

    /// Injects the attack into a running network: `attacker` starts
    /// originating `prefix`. Call [`ShardedNetwork::run`] afterwards to propagate.
    ///
    /// # Panics
    ///
    /// Panics if `attacker` is not part of the network.
    pub fn launch<M: RouteMonitor>(
        &self,
        net: &mut ShardedNetwork<M>,
        attacker: Asn,
        prefix: Ipv4Prefix,
        valid_list: &MoasList,
    ) {
        net.originate_route(attacker, self.forged_route(prefix, attacker, valid_list));
    }
}

/// The §4.3 limitation: announcing a *more-specific* prefix of the victim.
///
/// "it could falsely announce a route to a prefix longer than p where p is an
/// IP address prefix belonging to another AS. [...] our simple MOAS solution
/// [...] may not be effective in detecting more complex forms of invalid
/// routing announcements." Because the sub-prefix is a *different* prefix,
/// no MOAS conflict ever arises; longest-match forwarding still prefers the
/// hijacker. The ablation benches use this to chart the mechanism's boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubPrefixHijack;

impl SubPrefixHijack {
    /// Creates the attack.
    #[must_use]
    pub fn new() -> Self {
        SubPrefixHijack
    }

    /// The more-specific prefix the hijacker announces: the lower half of the
    /// victim's block, one bit longer. Returns `None` if the victim prefix is
    /// already a host route.
    #[must_use]
    pub fn hijacked_prefix(&self, victim_prefix: Ipv4Prefix) -> Option<Ipv4Prefix> {
        victim_prefix.split().map(|(low, _)| low)
    }

    /// Injects the hijack: `attacker` originates the more-specific prefix
    /// with no MOAS list. Returns the announced prefix.
    ///
    /// # Panics
    ///
    /// Panics if `attacker` is not part of the network, or if the victim
    /// prefix is a /32 (nothing more specific exists).
    pub fn launch<M: RouteMonitor>(
        &self,
        net: &mut ShardedNetwork<M>,
        attacker: Asn,
        victim_prefix: Ipv4Prefix,
    ) -> Ipv4Prefix {
        let sub = self
            .hijacked_prefix(victim_prefix)
            .expect("cannot hijack a more-specific of a /32");
        net.originate(attacker, sub, None);
        sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MoasMonitor, RegistryVerifier};
    use as_topology::{AsGraph, AsRole};
    use bgp_engine::Network;

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    fn diamond_with_attacker() -> AsGraph {
        // Figure 3 topology: victim AS 4 behind transits 2 and 3; attacker 52
        // adjacent to observer AS 1.
        let mut g = AsGraph::new();
        g.add_as(Asn(4), AsRole::Stub);
        g.add_as(Asn(52), AsRole::Stub);
        for t in [1, 2, 3] {
            g.add_as(Asn(t), AsRole::Transit);
        }
        g.add_link(Asn(4), Asn(2));
        g.add_link(Asn(4), Asn(3));
        g.add_link(Asn(2), Asn(1));
        g.add_link(Asn(3), Asn(1));
        g.add_link(Asn(52), Asn(1));
        g
    }

    #[test]
    fn forged_route_variants() {
        let valid: MoasList = [Asn(1), Asn(2)].into_iter().collect();
        let none = FalseOriginAttack::new(ListForgery::None).forged_route(p(), Asn(9), &valid);
        assert!(none.moas_list().is_none());

        let with_self =
            FalseOriginAttack::new(ListForgery::IncludeSelf).forged_route(p(), Asn(9), &valid);
        let list = with_self.moas_list().unwrap();
        assert_eq!(list.len(), 3);
        assert!(list.contains(Asn(9)));

        let copied =
            FalseOriginAttack::new(ListForgery::CopyValid).forged_route(p(), Asn(9), &valid);
        assert_eq!(copied.moas_list().unwrap(), valid);
    }

    #[test]
    fn all_forgeries_are_caught_by_full_deployment() {
        for forgery in [
            ListForgery::None,
            ListForgery::IncludeSelf,
            ListForgery::CopyValid,
        ] {
            let g = diamond_with_attacker();
            let valid = MoasList::implicit(Asn(4));
            let mut registry = RegistryVerifier::new();
            registry.register(p(), valid.clone());
            let mut net = Network::with_monitor(&g, MoasMonitor::full(registry));
            net.originate(Asn(4), p(), Some(valid.clone()));
            FalseOriginAttack::new(forgery).launch(&mut net, Asn(52), p(), &valid);
            net.run().unwrap();
            assert_eq!(
                net.best_origin(Asn(1), p()),
                Some(Asn(4)),
                "forgery {forgery} slipped through"
            );
        }
    }

    #[test]
    fn subprefix_hijack_evades_moas_detection() {
        let g = diamond_with_attacker();
        let valid = MoasList::implicit(Asn(4));
        let mut registry = RegistryVerifier::new();
        registry.register(p(), valid.clone());
        let mut net = Network::with_monitor(&g, MoasMonitor::full(registry));
        net.originate(Asn(4), p(), Some(valid));
        let sub = SubPrefixHijack::new().launch(&mut net, Asn(52), p());
        net.run().unwrap();
        // No alarm — the sub-prefix is a different prefix entirely.
        assert!(net.monitor().alarms().is_empty());
        // The hijacker owns the more-specific route everywhere.
        assert_eq!(net.best_origin(Asn(1), sub), Some(Asn(52)));
        assert!(sub.is_more_specific_of(p()));
        // The covering prefix is untouched.
        assert_eq!(net.best_origin(Asn(1), p()), Some(Asn(4)));
    }

    #[test]
    fn hijacked_prefix_of_host_route_is_none() {
        assert!(SubPrefixHijack::new()
            .hijacked_prefix("1.2.3.4/32".parse().unwrap())
            .is_none());
    }

    #[test]
    fn display_of_forgeries() {
        assert_eq!(ListForgery::None.to_string(), "no list");
        assert_eq!(ListForgery::IncludeSelf.to_string(), "valid list plus self");
        assert_eq!(ListForgery::CopyValid.to_string(), "copied valid list");
    }
}
