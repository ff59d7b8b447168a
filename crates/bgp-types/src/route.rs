//! BGP routes.

use std::fmt;
use std::sync::Arc;

use crate::{AsPath, Asn, Community, Ipv4Prefix, MoasList};

/// The value of the BGP `ORIGIN` attribute: how the originating AS learned
/// the prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RouteOrigin {
    /// Learned from an interior gateway protocol (`ORIGIN=IGP`).
    #[default]
    Igp,
    /// Learned from EGP (`ORIGIN=EGP`); historical.
    Egp,
    /// Learned by other means, e.g. redistribution of static configuration
    /// (`ORIGIN=INCOMPLETE`). Static-configured multihoming (§3.2) produces
    /// this origin code at the announcing ISP.
    Incomplete,
}

impl fmt::Display for RouteOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouteOrigin::Igp => "IGP",
            RouteOrigin::Egp => "EGP",
            RouteOrigin::Incomplete => "INCOMPLETE",
        };
        f.write_str(s)
    }
}

/// A BGP route: a prefix plus the path attributes the reproduction models.
///
/// A route as defined in §1.1: "a list of ASes, called an AS path, followed
/// by a set of IP address prefixes reachable through that AS path" — here
/// normalized to one prefix per route, as simulators conventionally do.
///
/// # Example
///
/// ```
/// use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prefix: Ipv4Prefix = "208.8.0.0/16".parse()?;
/// let route = Route::new(prefix, AsPath::origination(Asn(40)))
///     .with_moas_list(MoasList::from_iter([Asn(40), Asn(2260)]));
/// assert_eq!(route.origin_as(), Some(Asn(40)));
/// assert_eq!(route.effective_moas_list().unwrap().len(), 2);
/// # Ok(())
/// # }
/// ```
///
/// The optional transitive attributes — the communities and the MOAS list —
/// sit behind one shared pointer: each AS on the way passes them on
/// unchanged (§4.3), so a propagated route copies the pointer and its own
/// path, and nothing else. A route without either holds no pointer at all.
/// Setting either attribute copies the shared part first if another route
/// still holds it, so a route never sees another's change.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Route {
    prefix: Ipv4Prefix,
    as_path: AsPath,
    origin: RouteOrigin,
    local_pref: u32,
    /// `None` exactly when the route has no communities and no MOAS list.
    transitive: Option<Arc<Transitive>>,
}

/// The optional transitive attributes of a [`Route`], shared by every route
/// propagated from the one that set them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Transitive {
    /// Exactly sized: a route's communities are set once.
    communities: Box<[Community]>,
    moas_list: Option<MoasList>,
}

impl Transitive {
    fn is_empty(&self) -> bool {
        self.communities.is_empty() && self.moas_list.is_none()
    }
}

// The engine shares each exported route behind an `Arc`: 16 bytes of
// counts plus this, so one 96-byte allocation whose path is inline.
const _: () = assert!(std::mem::size_of::<Route>() <= 80);

/// Default `LOCAL_PREF` applied when none is configured.
pub(crate) const DEFAULT_LOCAL_PREF: u32 = 100;

impl Route {
    /// Creates a route with default attributes (`LOCAL_PREF` 100, origin IGP,
    /// no communities).
    #[must_use]
    pub fn new(prefix: Ipv4Prefix, as_path: AsPath) -> Self {
        Route {
            prefix,
            as_path,
            origin: RouteOrigin::Igp,
            local_pref: DEFAULT_LOCAL_PREF,
            transitive: None,
        }
    }

    /// The announced prefix.
    #[must_use]
    pub fn prefix(&self) -> Ipv4Prefix {
        self.prefix
    }

    /// The AS path attribute.
    #[must_use]
    pub fn as_path(&self) -> &AsPath {
        &self.as_path
    }

    /// The `ORIGIN` attribute.
    #[must_use]
    pub fn origin(&self) -> RouteOrigin {
        self.origin
    }

    /// The `LOCAL_PREF` attribute.
    #[must_use]
    pub fn local_pref(&self) -> u32 {
        self.local_pref
    }

    /// The attached communities. The MOAS list is not among them: it is a
    /// field of its own ([`Route::moas_list`]), whatever form it takes on
    /// the wire.
    #[must_use]
    pub fn communities(&self) -> &[Community] {
        self.transitive.as_deref().map_or(&[], |t| &t.communities)
    }

    /// The origin AS — the last AS of the path (§1.1), or `None` for an
    /// aggregate/empty path.
    #[must_use]
    pub fn origin_as(&self) -> Option<Asn> {
        self.as_path.origin()
    }

    /// Sets the `ORIGIN` attribute (builder style).
    #[must_use]
    pub fn with_origin(mut self, origin: RouteOrigin) -> Self {
        self.origin = origin;
        self
    }

    /// Sets `LOCAL_PREF` (builder style).
    #[must_use]
    pub fn with_local_pref(mut self, local_pref: u32) -> Self {
        self.local_pref = local_pref;
        self
    }

    /// Adds a single community (builder style).
    #[must_use]
    pub fn with_community(mut self, community: Community) -> Self {
        let mut communities = self.communities().to_vec();
        communities.push(community);
        self.set_communities(communities);
        self
    }

    /// Attaches a MOAS list, replacing any previously attached one
    /// (builder style). An empty list attaches nothing.
    #[must_use]
    pub fn with_moas_list(mut self, list: MoasList) -> Self {
        self.set_moas_list(Some(list));
        self
    }

    /// Replaces the whole community set in place — the primitive behind
    /// per-AS community-handling policies (strip-all, rewrite). The MOAS
    /// list is left alone.
    pub fn set_communities(&mut self, communities: Vec<Community>) {
        self.update_transitive(|t| t.communities = communities.into_boxed_slice());
    }

    /// Replaces the MOAS list in place. `None` drops it — the "optional
    /// transitive attribute dropped by a router" behavior of §4.3. An empty
    /// list is stored as `None`: a route carries a list with members or
    /// none at all, so the implicit-list rule (footnote 3) applies to both.
    pub fn set_moas_list(&mut self, list: Option<MoasList>) {
        self.update_transitive(|t| t.moas_list = list.filter(|list| !list.is_empty()));
    }

    /// Applies `change` to this route's own copy of the transitive
    /// attributes (copied first if another route shares them), and drops
    /// the copy if it ends up empty.
    fn update_transitive(&mut self, change: impl FnOnce(&mut Transitive)) {
        let mut shared = self.transitive.take().unwrap_or_default();
        let transitive = Arc::make_mut(&mut shared);
        change(transitive);
        if !transitive.is_empty() {
            self.transitive = Some(shared);
        }
    }

    /// The explicitly advertised MOAS list, if one is attached.
    #[must_use]
    pub fn moas_list(&self) -> Option<&MoasList> {
        self.transitive.as_deref()?.moas_list.as_ref()
    }

    /// The list used in the §4.2 consistency check: the advertised list, or
    /// the implicit `{origin}` list when none is attached (footnote 3).
    ///
    /// Returns `None` only when the route has no well-defined origin (empty
    /// path or trailing `AS_SET`) *and* no advertised list.
    #[must_use]
    pub fn effective_moas_list(&self) -> Option<MoasList> {
        self.moas_list()
            .cloned()
            .or_else(|| self.origin_as().map(MoasList::implicit))
    }

    /// Returns the route as propagated by `asn` to an external peer: the AS
    /// prepends itself to the path. Communities and the MOAS list are
    /// transitive and carried through unchanged: the copy shares them.
    #[must_use]
    pub fn propagated_by(&self, asn: Asn) -> Route {
        Route {
            prefix: self.prefix,
            as_path: self.as_path.prepended(asn),
            origin: self.origin,
            local_pref: self.local_pref,
            transitive: self.transitive.clone(),
        }
    }
}

impl fmt::Debug for Route {
    /// Lists the attributes as if each were a field of its own.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Route")
            .field("prefix", &self.prefix)
            .field("as_path", &self.as_path)
            .field("origin", &self.origin)
            .field("local_pref", &self.local_pref)
            .field("communities", &self.communities())
            .field("moas_list", &self.moas_list())
            .finish()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} path [{}]", self.prefix, self.as_path)?;
        if let Some(list) = self.moas_list() {
            write!(f, " moas {list}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    #[test]
    fn new_route_defaults() {
        let r = Route::new(prefix(), AsPath::origination(Asn(4)));
        assert_eq!(r.local_pref(), 100);
        assert_eq!(r.origin(), RouteOrigin::Igp);
        assert!(r.communities().is_empty());
        assert_eq!(r.origin_as(), Some(Asn(4)));
    }

    #[test]
    fn effective_list_falls_back_to_implicit() {
        let r = Route::new(prefix(), AsPath::origination(Asn(4)));
        assert_eq!(r.moas_list(), None);
        assert_eq!(r.effective_moas_list(), Some(MoasList::implicit(Asn(4))));
    }

    #[test]
    fn attached_list_overrides_implicit() {
        let list: MoasList = [Asn(4), Asn(226)].into_iter().collect();
        let r = Route::new(prefix(), AsPath::origination(Asn(4))).with_moas_list(list.clone());
        assert_eq!(r.moas_list(), Some(&list));
        assert_eq!(r.effective_moas_list(), Some(list));
    }

    #[test]
    fn set_moas_list_none_strips_markers_only() {
        let list: MoasList = [Asn(4)].into_iter().collect();
        let mut r = Route::new(prefix(), AsPath::origination(Asn(4)))
            .with_community(Community::new(Asn(701), 120))
            .with_moas_list(list);
        r.set_moas_list(None);
        assert_eq!(r.moas_list(), None);
        assert_eq!(r.communities(), &[Community::new(Asn(701), 120)]);
    }

    #[test]
    fn with_moas_list_replaces_previous_list() {
        let first: MoasList = [Asn(1)].into_iter().collect();
        let second: MoasList = [Asn(2), Asn(3)].into_iter().collect();
        let r = Route::new(prefix(), AsPath::origination(Asn(1)))
            .with_moas_list(first)
            .with_moas_list(second.clone());
        assert_eq!(r.moas_list(), Some(&second));
    }

    #[test]
    fn propagation_prepends_and_keeps_communities() {
        let list: MoasList = [Asn(4), Asn(226)].into_iter().collect();
        let r = Route::new(prefix(), AsPath::origination(Asn(4)))
            .with_moas_list(list.clone())
            .with_community(Community::new(Asn(701), 120))
            .with_local_pref(250)
            .with_origin(RouteOrigin::Incomplete);
        let via_y = r.propagated_by(Asn(700));
        assert_eq!(via_y.as_path().to_string(), "700 4");
        assert_eq!(via_y.origin_as(), Some(Asn(4)));
        assert_eq!(via_y.moas_list(), Some(&list));
        // Everything but the path is carried through unchanged.
        assert_eq!(via_y.prefix(), r.prefix());
        assert_eq!(via_y.communities(), r.communities());
        assert_eq!(via_y.local_pref(), 250);
        assert_eq!(via_y.origin(), RouteOrigin::Incomplete);
    }

    #[test]
    fn effective_list_none_for_empty_path_without_list() {
        let r = Route::new(prefix(), AsPath::new());
        assert_eq!(r.effective_moas_list(), None);
    }

    #[test]
    fn display_mentions_prefix_path_and_list() {
        let r = Route::new(prefix(), AsPath::origination(Asn(4)))
            .with_moas_list([Asn(4)].into_iter().collect());
        let s = r.to_string();
        assert!(s.contains("208.8.0.0/16"));
        assert!(s.contains('4'));
        assert!(s.contains("moas"));
    }

    #[test]
    fn route_origin_display() {
        assert_eq!(RouteOrigin::Igp.to_string(), "IGP");
        assert_eq!(RouteOrigin::Incomplete.to_string(), "INCOMPLETE");
    }
}
