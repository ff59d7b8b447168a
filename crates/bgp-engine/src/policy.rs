//! Per-AS community-handling policies as a composable monitor.
//!
//! Krenc et al. ("Keep your Communities Clean") measured that community
//! attributes are not transparently transitive in practice: some ASes
//! propagate them, some strip everything, some strip selectively, and some
//! rewrite the set with their own markers. The original reproduction modelled
//! only a binary "stripper" set (drop the MOAS list on export, §4.3); this
//! module generalizes that to a per-AS [`CommunityPolicy`] class applied at
//! export time by the [`CommunityPolicies`] wrapper monitor. The legacy
//! stripper behaviour is exactly the [`CommunityPolicy::StripMoas`] class.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use bgp_types::{Asn, Community, Ipv4Prefix, Route, SimTime};

use crate::monitor::{ExportAction, ImportContext, ImportDecision, RouteMonitor};

/// The value half of the marker community a [`CommunityPolicy::Rewrite`] AS
/// attaches in place of the communities and the MOAS list it removed
/// (`"RW"` in ASCII, chosen the same way as the MOAS-list marker `"ML"`).
pub const REWRITE_MARKER_VALUE: u16 = 0x5257;

/// How one AS handles community attributes on routes it exports — the
/// Krenc et al. behaviour classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CommunityPolicy {
    /// Forward every community untouched (transparent transit; the default).
    #[default]
    Propagate,
    /// Remove only the MOAS list — the legacy binary "stripper" of §4.3,
    /// kept as its own class.
    StripMoas,
    /// Remove every community on export, the MOAS list with them.
    StripAll,
    /// Replace the communities and the MOAS list with a single local marker
    /// community `(local AS : RW)` — the "informational rewrite" class.
    Rewrite,
}

impl CommunityPolicy {
    /// Every policy class, in display order.
    pub const ALL: [CommunityPolicy; 4] = [
        CommunityPolicy::Propagate,
        CommunityPolicy::StripMoas,
        CommunityPolicy::StripAll,
        CommunityPolicy::Rewrite,
    ];

    /// Applies the policy at `local` to an outbound route. Returns `None`
    /// when the route is unaffected (the zero-copy fast path), or the
    /// modified route to send instead.
    #[must_use]
    pub fn apply(self, local: Asn, route: &Route) -> Option<Route> {
        match self {
            CommunityPolicy::Propagate => None,
            CommunityPolicy::StripMoas => route.moas_list().is_some().then(|| {
                let mut stripped = route.clone();
                stripped.set_moas_list(None);
                stripped
            }),
            CommunityPolicy::StripAll => has_communities(route).then(|| {
                let mut stripped = route.clone();
                stripped.set_communities(Vec::new());
                stripped.set_moas_list(None);
                stripped
            }),
            CommunityPolicy::Rewrite => has_communities(route).then(|| {
                let mut rewritten = route.clone();
                rewritten.set_communities(vec![Community::new(local, REWRITE_MARKER_VALUE)]);
                rewritten.set_moas_list(None);
                rewritten
            }),
        }
    }
}

/// Whether `route` carries anything a community policy acts on: a
/// community or a MOAS list (which travels as communities).
fn has_communities(route: &Route) -> bool {
    !route.communities().is_empty() || route.moas_list().is_some()
}

impl fmt::Display for CommunityPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CommunityPolicy::Propagate => "propagate",
            CommunityPolicy::StripMoas => "strip-moas",
            CommunityPolicy::StripAll => "strip-all",
            CommunityPolicy::Rewrite => "rewrite",
        })
    }
}

impl FromStr for CommunityPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "propagate" => Ok(CommunityPolicy::Propagate),
            "strip-moas" => Ok(CommunityPolicy::StripMoas),
            "strip-all" => Ok(CommunityPolicy::StripAll),
            "rewrite" => Ok(CommunityPolicy::Rewrite),
            other => Err(format!(
                "unknown community policy '{other}' \
                 (expected propagate|strip-moas|strip-all|rewrite)"
            )),
        }
    }
}

/// Per-AS assignment of [`CommunityPolicy`] classes. ASes without an entry
/// default to [`CommunityPolicy::Propagate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommunityPolicyMap {
    policies: BTreeMap<Asn, CommunityPolicy>,
}

impl CommunityPolicyMap {
    /// An empty map: every AS propagates.
    #[must_use]
    pub fn new() -> Self {
        CommunityPolicyMap::default()
    }

    /// Assigns a policy class to one AS. [`CommunityPolicy::Propagate`]
    /// removes the entry (it is the default anyway), keeping the map minimal.
    pub fn set(&mut self, asn: Asn, policy: CommunityPolicy) {
        if policy == CommunityPolicy::Propagate {
            self.policies.remove(&asn);
        } else {
            self.policies.insert(asn, policy);
        }
    }

    /// The policy class in force at `asn`.
    #[must_use]
    pub fn policy_of(&self, asn: Asn) -> CommunityPolicy {
        self.policies.get(&asn).copied().unwrap_or_default()
    }

    /// Number of ASes with a non-default policy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// `true` when every AS propagates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Iterates the non-default assignments in ASN order.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, CommunityPolicy)> + '_ {
        self.policies.iter().map(|(&asn, &policy)| (asn, policy))
    }
}

/// Wraps another monitor with per-AS community-handling policies applied at
/// export, *before* the inner monitor sees the route — exactly where a real
/// router's outbound policy runs. `CommunityPolicies<MoasMonitor<_>>`
/// evaluates the MOAS mechanism under realistic community weather.
#[derive(Debug, Clone)]
pub struct CommunityPolicies<M> {
    map: CommunityPolicyMap,
    inner: M,
    modified: u64,
}

impl<M: RouteMonitor> CommunityPolicies<M> {
    /// Applies `map` before `inner`'s export hook.
    #[must_use]
    pub fn wrapping(map: CommunityPolicyMap, inner: M) -> Self {
        CommunityPolicies {
            map,
            inner,
            modified: 0,
        }
    }

    /// The wrapped monitor.
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped monitor.
    #[must_use]
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// The policy assignment in force.
    #[must_use]
    pub fn map(&self) -> &CommunityPolicyMap {
        &self.map
    }

    /// Number of exports the policies modified (stripped or rewritten).
    #[must_use]
    pub fn modified_count(&self) -> u64 {
        self.modified
    }
}

impl<M: RouteMonitor> RouteMonitor for CommunityPolicies<M> {
    fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
        self.inner.on_import(ctx)
    }

    fn on_export(
        &mut self,
        local: Asn,
        to_peer: Asn,
        learned_from: Option<Asn>,
        route: &Route,
    ) -> ExportAction {
        match self.map.policy_of(local).apply(local, route) {
            None => self.inner.on_export(local, to_peer, learned_from, route),
            Some(modified) => {
                self.modified += 1;
                // The inner monitor must see (and may further replace) the
                // policy-modified route, never the original.
                match self
                    .inner
                    .on_export(local, to_peer, learned_from, &modified)
                {
                    ExportAction::Forward => ExportAction::Replace(modified),
                    other => other,
                }
            }
        }
    }

    fn on_withdraw(&mut self, local: Asn, from_peer: Asn, prefix: Ipv4Prefix) {
        self.inner.on_withdraw(local, from_peer, prefix);
    }

    fn on_clock(&mut self, now: SimTime) {
        self.inner.on_clock(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NoopMonitor;
    use bgp_types::{AsPath, Ipv4Prefix, MoasList};

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    fn listed_route() -> Route {
        Route::new(p(), AsPath::origination(Asn(4)))
            .with_community(Community::new(Asn(701), 120))
            .with_moas_list([Asn(4), Asn(226)].into_iter().collect::<MoasList>())
    }

    #[test]
    fn propagate_leaves_routes_untouched() {
        let r = listed_route();
        assert_eq!(CommunityPolicy::Propagate.apply(Asn(9), &r), None);
    }

    #[test]
    fn strip_moas_matches_legacy_stripper_semantics() {
        let r = listed_route();
        let stripped = CommunityPolicy::StripMoas.apply(Asn(9), &r).unwrap();
        assert!(stripped.moas_list().is_none());
        assert_eq!(stripped.communities(), &[Community::new(Asn(701), 120)]);
        // No list attached: nothing to strip, fast path.
        let bare = Route::new(p(), AsPath::origination(Asn(4)));
        assert_eq!(CommunityPolicy::StripMoas.apply(Asn(9), &bare), None);

        // A stripper set as a map: the listed ASes strip, everyone else
        // propagates, and the wrapper sends exactly what the class builds.
        let mut map = CommunityPolicyMap::new();
        for asn in [Asn(3), Asn(9)] {
            map.set(asn, CommunityPolicy::StripMoas);
        }
        assert_eq!(map.policy_of(Asn(4)), CommunityPolicy::Propagate);
        assert_eq!(map.iter().count(), 2);
        let mut monitor = CommunityPolicies::wrapping(map, NoopMonitor);
        assert_eq!(
            monitor.on_export(Asn(9), Asn(2), None, &r),
            ExportAction::Replace(stripped)
        );
        assert_eq!(
            monitor.on_export(Asn(9), Asn(2), None, &bare),
            ExportAction::Forward
        );
        assert_eq!(
            monitor.on_export(Asn(4), Asn(2), None, &r),
            ExportAction::Forward
        );
    }

    #[test]
    fn strip_all_clears_every_community() {
        let r = listed_route();
        let stripped = CommunityPolicy::StripAll.apply(Asn(9), &r).unwrap();
        assert!(stripped.communities().is_empty());
        assert!(stripped.moas_list().is_none());
        let bare = Route::new(p(), AsPath::origination(Asn(4)));
        assert_eq!(CommunityPolicy::StripAll.apply(Asn(9), &bare), None);
        // A list alone is enough to strip.
        let list_only = bare.with_moas_list(MoasList::implicit(Asn(4)));
        let stripped = CommunityPolicy::StripAll.apply(Asn(9), &list_only).unwrap();
        assert!(stripped.moas_list().is_none());
    }

    #[test]
    fn rewrite_replaces_set_with_local_marker() {
        let r = listed_route();
        let rewritten = CommunityPolicy::Rewrite.apply(Asn(9), &r).unwrap();
        assert_eq!(
            rewritten.communities(),
            &[Community::new(Asn(9), REWRITE_MARKER_VALUE)]
        );
        assert!(rewritten.moas_list().is_none(), "marker is not a MOAS list");
        let list_only =
            Route::new(p(), AsPath::origination(Asn(4))).with_moas_list(MoasList::implicit(Asn(4)));
        let rewritten = CommunityPolicy::Rewrite.apply(Asn(9), &list_only).unwrap();
        assert_eq!(
            rewritten.communities(),
            &[Community::new(Asn(9), REWRITE_MARKER_VALUE)]
        );
        assert!(rewritten.moas_list().is_none());
    }

    #[test]
    fn policy_parsing_round_trips() {
        for policy in CommunityPolicy::ALL {
            assert_eq!(policy.to_string().parse::<CommunityPolicy>(), Ok(policy));
        }
        assert!("mangle".parse::<CommunityPolicy>().is_err());
    }

    #[test]
    fn map_defaults_to_propagate_and_drops_default_entries() {
        let mut map = CommunityPolicyMap::new();
        assert!(map.is_empty());
        map.set(Asn(7), CommunityPolicy::StripAll);
        assert_eq!(map.policy_of(Asn(7)), CommunityPolicy::StripAll);
        assert_eq!(map.policy_of(Asn(8)), CommunityPolicy::Propagate);
        assert_eq!(map.len(), 1);
        map.set(Asn(7), CommunityPolicy::Propagate);
        assert!(map.is_empty());
    }

    #[test]
    fn wrapper_replaces_forwarded_exports_and_counts() {
        let mut map = CommunityPolicyMap::new();
        map.set(Asn(9), CommunityPolicy::StripAll);
        let mut monitor = CommunityPolicies::wrapping(map, NoopMonitor);
        let r = listed_route();
        let ExportAction::Replace(sent) = monitor.on_export(Asn(9), Asn(2), None, &r) else {
            panic!("policy must replace the route");
        };
        assert!(sent.communities().is_empty());
        assert_eq!(monitor.modified_count(), 1);
        // A propagate AS forwards the shared payload untouched.
        assert_eq!(
            monitor.on_export(Asn(8), Asn(2), None, &r),
            ExportAction::Forward
        );
        assert_eq!(monitor.modified_count(), 1);
        assert_eq!(monitor.map().policy_of(Asn(9)), CommunityPolicy::StripAll);
        let _ = monitor.inner_mut();
        let _ = monitor.inner();
    }

    #[test]
    fn wrapper_forwards_withdraw_and_clock_to_inner() {
        #[derive(Default)]
        struct Probe {
            withdrawals: u32,
            now: SimTime,
        }
        impl RouteMonitor for Probe {
            fn on_withdraw(&mut self, _local: Asn, _from: Asn, _prefix: Ipv4Prefix) {
                self.withdrawals += 1;
            }
            fn on_clock(&mut self, now: SimTime) {
                self.now = now;
            }
        }
        let mut monitor = CommunityPolicies::wrapping(CommunityPolicyMap::new(), Probe::default());
        monitor.on_withdraw(Asn(1), Asn(2), p());
        monitor.on_clock(SimTime::from_ticks(7));
        assert_eq!(monitor.inner().withdrawals, 1);
        assert_eq!(monitor.inner().now, SimTime::from_ticks(7));
    }
}
