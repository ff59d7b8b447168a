//! In-flight updates with reference-counted announce payloads.

use std::sync::Arc;

use bgp_types::{Ipv4Prefix, Route, Update};

/// A BGP update as it travels through the simulator's event queue.
///
/// Announce payloads sit behind an [`Arc`], so a router fanning one new best
/// route out to `k` peers enqueues `k` pointer copies of a single [`Route`]
/// — one heap block, its AS path inline and its communities and MOAS list
/// shared — instead of `k` copies. The receiving router installs the same
/// shared payload straight into its Adj-RIB-In; nothing mutates a route
/// after export.
///
/// Conversion to the wire-level [`Update`] (owned payload) is explicit via
/// [`SharedUpdate::into_update`], used only at the simulator's edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharedUpdate {
    /// Announce a (shared) route.
    Announce(Arc<Route>),
    /// Withdraw any previously announced route for the prefix.
    Withdraw(Ipv4Prefix),
}

impl SharedUpdate {
    /// Wraps an owned route as a shareable announcement.
    #[must_use]
    pub fn announce(route: Route) -> Self {
        SharedUpdate::Announce(Arc::new(route))
    }

    /// A withdrawal for `prefix`.
    #[must_use]
    pub fn withdraw(prefix: Ipv4Prefix) -> Self {
        SharedUpdate::Withdraw(prefix)
    }

    /// The prefix this update concerns.
    #[must_use]
    pub fn prefix(&self) -> Ipv4Prefix {
        match self {
            SharedUpdate::Announce(route) => route.prefix(),
            SharedUpdate::Withdraw(prefix) => *prefix,
        }
    }

    /// The announced route, if this is an announcement.
    #[must_use]
    pub fn route(&self) -> Option<&Route> {
        match self {
            SharedUpdate::Announce(route) => Some(route),
            SharedUpdate::Withdraw(_) => None,
        }
    }

    /// Returns `true` for withdrawals.
    #[must_use]
    pub fn is_withdrawal(&self) -> bool {
        matches!(self, SharedUpdate::Withdraw(_))
    }

    /// Converts to the owned wire-level [`Update`], cloning the route only
    /// when the payload is still shared with another in-flight message.
    #[must_use]
    pub fn into_update(self) -> Update {
        match self {
            SharedUpdate::Announce(route) => {
                Update::Announce(Arc::try_unwrap(route).unwrap_or_else(|rc| (*rc).clone()))
            }
            SharedUpdate::Withdraw(prefix) => Update::Withdraw(prefix),
        }
    }
}

impl From<Update> for SharedUpdate {
    fn from(update: Update) -> Self {
        match update {
            Update::Announce(route) => SharedUpdate::announce(route),
            Update::Withdraw(prefix) => SharedUpdate::Withdraw(prefix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Asn};

    fn p() -> Ipv4Prefix {
        "10.0.0.0/16".parse().unwrap()
    }

    #[test]
    fn accessors_match_update_semantics() {
        let route = Route::new(p(), AsPath::origination(Asn(4)));
        let a = SharedUpdate::announce(route.clone());
        assert_eq!(a.prefix(), p());
        assert_eq!(a.route(), Some(&route));
        assert!(!a.is_withdrawal());
        let w = SharedUpdate::withdraw(p());
        assert_eq!(w.prefix(), p());
        assert!(w.route().is_none());
        assert!(w.is_withdrawal());
    }

    #[test]
    fn sharing_is_pointer_level() {
        let a = SharedUpdate::announce(Route::new(p(), AsPath::origination(Asn(4))));
        let b = a.clone();
        match (&a, &b) {
            (SharedUpdate::Announce(x), SharedUpdate::Announce(y)) => {
                assert!(Arc::ptr_eq(x, y));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn round_trips_through_update() {
        let owned = Update::announce(Route::new(p(), AsPath::origination(Asn(4))));
        let shared: SharedUpdate = owned.clone().into();
        assert_eq!(shared.into_update(), owned);
        let shared = SharedUpdate::withdraw(p());
        assert_eq!(shared.into_update(), Update::withdraw(p()));
    }
}
