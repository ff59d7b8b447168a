//! A shard's routes, each stored once and named by a 4-byte handle.
//!
//! Every holder of a route — an Adj-RIB-In slot, an originated entry, a
//! queued delivery, a pending MRAI update, the outbox between a router call
//! and its fan-out — holds a [`RouteId`] and owns one count of it. The counts
//! are plain integers (a shard is driven by one thread at a time), a route
//! whose count reaches zero leaves its entry on a free list, and the next
//! [`Arena::intern`] reuses that entry, dropping the dead route in place. So
//! an export is a push into a vector that has usually grown already, and
//! dropping the arena frees its three vectors whatever it holds.

use std::num::NonZeroU32;

use bgp_types::Route;

/// A route held in a shard's [`Arena`]: entry `get() - 1`. Nonzero, so an
/// `Option<RouteId>` (and an entry holding one) costs no tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct RouteId(NonZeroU32);

impl RouteId {
    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// See the module documentation.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    routes: Vec<Route>,
    /// Per entry: how many holders name it; 0 for a free entry, whose route
    /// is dead and waits to be overwritten.
    refs: Vec<u32>,
    /// Free entries, reused last-freed first.
    free: Vec<RouteId>,
}

impl Arena {
    /// Stores `route` with one holder: the caller.
    pub(crate) fn intern(&mut self, route: Route) -> RouteId {
        if let Some(id) = self.free.pop() {
            self.routes[id.index()] = route;
            self.refs[id.index()] = 1;
            return id;
        }
        let id = u32::try_from(self.routes.len() + 1)
            .ok()
            .and_then(NonZeroU32::new)
            .map(RouteId)
            .unwrap_or_else(|| panic!("a shard holds more than {} routes", u32::MAX - 1));
        self.routes.push(route);
        self.refs.push(1);
        id
    }

    /// The route `id` names. `id` must be held.
    pub(crate) fn get(&self, id: RouteId) -> &Route {
        debug_assert!(self.refs[id.index()] > 0, "{id:?} read after its release");
        &self.routes[id.index()]
    }

    /// Adds a holder of `id`.
    pub(crate) fn retain(&mut self, id: RouteId) {
        let refs = &mut self.refs[id.index()];
        debug_assert!(*refs > 0, "{id:?} retained after its release");
        *refs += 1;
    }

    /// Drops one holder of `id`; the last one frees its entry.
    pub(crate) fn release(&mut self, id: RouteId) {
        let refs = &mut self.refs[id.index()];
        debug_assert!(*refs > 0, "{id:?} released more often than retained");
        *refs -= 1;
        if *refs == 0 {
            self.free.push(id);
        }
    }

    /// Compares each live entry's count with the holders `held` names (one
    /// item per holder). `Ok` carries the number of live entries.
    pub(crate) fn audit(&self, held: impl IntoIterator<Item = RouteId>) -> Result<usize, String> {
        let mut named = vec![0u32; self.refs.len()];
        for id in held {
            match named.get_mut(id.index()) {
                Some(count) => *count += 1,
                None => return Err(format!("{id:?} is held but was never interned")),
            }
        }
        for (index, (&refs, &named)) in self.refs.iter().zip(&named).enumerate() {
            if refs != named {
                return Err(format!(
                    "route entry {index} counts {refs} holders, {named} hold it"
                ));
            }
        }
        let free = self.refs.iter().filter(|&&refs| refs == 0).count();
        if free != self.free.len() {
            return Err(format!(
                "{free} entries are free, the free list names {}",
                self.free.len()
            ));
        }
        Ok(self.refs.len() - free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Asn};

    fn route(origin: u32) -> Route {
        Route::new(
            "10.0.0.0/8".parse().unwrap(),
            AsPath::origination(Asn(origin)),
        )
    }

    #[test]
    fn counts_holders_and_reuses_freed_entries() {
        let mut arena = Arena::default();
        let a = arena.intern(route(1));
        let b = arena.intern(route(2));
        arena.retain(a);
        assert_eq!(arena.audit([a, a, b]), Ok(2));
        arena.release(a);
        arena.release(a);
        assert_eq!(arena.audit([b]), Ok(1));
        // The freed entry is reused, and the dead route in it replaced.
        let c = arena.intern(route(3));
        assert_eq!(c, a);
        assert_eq!(arena.get(c), &route(3));
        assert_eq!(arena.get(b), &route(2));
        assert_eq!(arena.audit([b, c]), Ok(2));
    }

    #[test]
    fn audit_names_a_leak_and_a_stray_holder() {
        let mut arena = Arena::default();
        let a = arena.intern(route(1));
        assert!(arena
            .audit([])
            .unwrap_err()
            .contains("counts 1 holders, 0 hold it"));
        assert!(arena.audit([a, a]).is_err());
        arena.release(a);
        assert!(arena.audit([a]).is_err());
        assert_eq!(arena.audit([]), Ok(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released more often than retained")]
    fn a_second_release_asserts_in_debug_builds() {
        let mut arena = Arena::default();
        let a = arena.intern(route(1));
        arena.release(a);
        arena.release(a);
    }
}
