//! In-flight updates whose announcements name a route in the shard's arena.

use bgp_types::{Ipv4Prefix, Update};

use crate::router::{Arena, RouteId};

/// A BGP update as it travels through a shard: a router's outbox, the event
/// queue, an MRAI window.
///
/// An announcement is a handle into the shard's route [`Arena`], and whoever
/// holds the update owns one count of that handle: a router fanning one new
/// best route out to `k` peers interns it once and hands out `k` counts, and
/// the receiving router installs the handle it was given straight into its
/// Adj-RIB-In. Nothing mutates a route after export. The update is `Copy` so
/// that a delivery event is; dropping a copy on the floor leaks its count,
/// so every path that discards one hands it to [`SharedUpdate::discard`].
///
/// Between shards an update travels as the owned wire-level [`Update`]
/// ([`SharedUpdate::into_update`]) and is interned again on arrival
/// ([`SharedUpdate::intern`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SharedUpdate {
    /// Announce the arena's route.
    Announce(RouteId),
    /// Withdraw any previously announced route for the prefix.
    Withdraw(Ipv4Prefix),
}

impl SharedUpdate {
    /// Stores an owned update's route in `arena`, held by the result.
    pub(crate) fn intern(update: Update, arena: &mut Arena) -> Self {
        match update {
            Update::Announce(route) => SharedUpdate::Announce(arena.intern(route)),
            Update::Withdraw(prefix) => SharedUpdate::Withdraw(prefix),
        }
    }

    /// The owned update, copied out of `arena`; releases this one's count.
    pub(crate) fn into_update(self, arena: &mut Arena) -> Update {
        match self {
            SharedUpdate::Announce(id) => {
                let route = arena.get(id).clone();
                arena.release(id);
                Update::Announce(route)
            }
            SharedUpdate::Withdraw(prefix) => Update::Withdraw(prefix),
        }
    }

    /// Drops this update, releasing its count.
    pub(crate) fn discard(self, arena: &mut Arena) {
        if let SharedUpdate::Announce(id) = self {
            arena.release(id);
        }
    }

    /// The prefix this update concerns.
    pub(crate) fn prefix(self, arena: &Arena) -> Ipv4Prefix {
        match self {
            SharedUpdate::Announce(id) => arena.get(id).prefix(),
            SharedUpdate::Withdraw(prefix) => prefix,
        }
    }

    /// Returns `true` for withdrawals.
    pub(crate) fn is_withdrawal(self) -> bool {
        matches!(self, SharedUpdate::Withdraw(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Asn, Route};

    fn p() -> Ipv4Prefix {
        "10.0.0.0/16".parse().unwrap()
    }

    #[test]
    fn accessors_match_update_semantics() {
        let mut arena = Arena::default();
        let route = Route::new(p(), AsPath::origination(Asn(4)));
        let a = SharedUpdate::intern(Update::announce(route.clone()), &mut arena);
        assert_eq!(a.prefix(&arena), p());
        assert!(matches!(a, SharedUpdate::Announce(id) if *arena.get(id) == route));
        assert!(!a.is_withdrawal());
        let w = SharedUpdate::Withdraw(p());
        assert_eq!(w.prefix(&arena), p());
        assert!(w.is_withdrawal());
    }

    #[test]
    fn sharing_is_pointer_level() {
        // A copy names the same entry; each holder's count is released once.
        let mut arena = Arena::default();
        let route = Route::new(p(), AsPath::origination(Asn(4)));
        let a = SharedUpdate::intern(Update::announce(route), &mut arena);
        let SharedUpdate::Announce(id) = a else {
            unreachable!()
        };
        arena.retain(id);
        let b = a;
        assert_eq!(a, b);
        assert_eq!(arena.audit([id, id]), Ok(1));
        a.discard(&mut arena);
        b.discard(&mut arena);
        assert_eq!(arena.audit([]), Ok(0));
    }

    #[test]
    fn round_trips_through_update() {
        let mut arena = Arena::default();
        let owned = Update::announce(Route::new(p(), AsPath::origination(Asn(4))));
        let shared = SharedUpdate::intern(owned.clone(), &mut arena);
        assert_eq!(shared.into_update(&mut arena), owned);
        assert_eq!(arena.audit([]), Ok(0));
        let shared = SharedUpdate::Withdraw(p());
        assert_eq!(shared.into_update(&mut arena), Update::withdraw(p()));
    }
}
