//! The routing state of a shard's BGP speakers, and views onto one of them.
//!
//! Both keys of the routing state are dense: the handful of prefixes a
//! simulation announces, and the directed sessions of the shared CSR
//! topology. So a shard keeps one [`Rib`] whose tables run parallel to that
//! topology instead of a heap record per router. Per prefix (tables sorted
//! by prefix) there is one `NodeRib` per dense node — the originated route
//! and the best route — and one `Slot` per directed edge — Adj-RIB-In
//! entry, cached decision key and advertisement flag side by side. A node's
//! sessions are the edge ids `first..first + degree` of its CSR row, so the
//! slot of the session a delivery arrived on is the receiver-side edge id,
//! and neither side ever searches for an ASN on the event path. The age
//! clock and the decision count live in the `NodeRib`, per prefix, so a
//! delivery touches the event, its slot and one cache line of its node.
//!
//! Routes themselves live once per shard, in the `Rib`'s route [`Arena`]:
//! a slot, an originated entry and every update in flight name one by a
//! 4-byte [`RouteId`] and own one count of it. A router is therefore not a
//! value but a place in those tables: [`Router`] is the read-only, `Copy`
//! view the network hands out, and `Speaker` the mutable one the event loop
//! drives. Peer lists are slices of the topology's per-edge peer ASNs.
//! Nothing here allocates per router, and an import allocates nothing at
//! all. A best-route change interns the exported route once, whose AS path
//! is stored inline and whose communities and MOAS list it shares with the
//! route it was propagated from; every peer it is sent to holds a count of
//! that one entry.
//!
//! No `unwrap`/`expect` on data-dependent paths: speakers are driven
//! entirely by the network, slot indices are in range by construction (the
//! network derives them from the same CSR rows), and every prefix lookup
//! handles the miss.

use std::cmp::Reverse;
use std::fmt;

use bgp_types::{Asn, Ipv4Prefix, Route};

use crate::monitor::{ExportAction, HeldRoutes, ImportContext, ImportDecision, RouteMonitor};
use crate::update::SharedUpdate;

mod arena;

pub(crate) use arena::{Arena, RouteId};

/// Updates a router wants sent, each addressed by the peer's slot. The
/// network owns one such buffer per shard and drains it after every call, so
/// the event path allocates no list per update.
pub(crate) type Outbox = Vec<(u32, SharedUpdate)>;

/// The chosen best route for a prefix, named by where it is held rather than
/// by a second pointer to it: the source and the installation stamp identify
/// the entry, and its rank is copied beside them, so a selection compares a
/// changed candidate with the incumbent without reading the incumbent's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BestEntry {
    /// Slot of the peer the route was learned from; `None` when the best
    /// route is locally originated.
    learned_from: Option<u32>,
    installed_at: u64,
    local_pref: u32,
    selection_len: u32,
}

impl BestEntry {
    /// The decision process's ranking key: the lowest key wins. Highest
    /// `LOCAL_PREF`, then shortest AS path, then the originated route, then
    /// the oldest installation, then the lowest slot (ascending peer ASN).
    fn key(self) -> (Reverse<u32>, u32, bool, u64, Option<u32>) {
        let (pref, len) = (Reverse(self.local_pref), self.selection_len);
        let learned = self.learned_from.is_some();
        (pref, len, learned, self.installed_at, self.learned_from)
    }
}

/// A candidate route: the route, its installation stamp, and the two
/// attributes the decision process ranks by, copied out at installation so
/// a selection reads the slot array and nothing behind it. A peer's
/// re-announcement of the *identical* route keeps the original stamp; a
/// changed route counts as a fresh installation.
#[derive(Debug, Clone)]
struct RibEntry {
    /// The route, held in the shard's arena; the entry owns one count.
    route: RouteId,
    installed_at: u64,
    local_pref: u32,
    /// Saturating: no path comes near `u32::MAX` hops.
    selection_len: u32,
}

impl RibEntry {
    /// An entry holding `id`, which names `route`.
    fn new(id: RouteId, route: &Route, installed_at: u64) -> Self {
        RibEntry {
            route: id,
            installed_at,
            local_pref: route.local_pref(),
            selection_len: u32::try_from(route.as_path().selection_len()).unwrap_or(u32::MAX),
        }
    }

    /// This entry as a candidate held in `learned_from`.
    fn candidate(&self, learned_from: Option<u32>) -> BestEntry {
        BestEntry {
            learned_from,
            installed_at: self.installed_at,
            local_pref: self.local_pref,
            selection_len: self.selection_len,
        }
    }
}

/// What a router holds about one session for one prefix.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    /// The route learned from the peer, if any.
    rib: Option<RibEntry>,
    /// Whether the peer currently holds an announcement from us.
    advertised: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

impl Slot {
    /// The route learned over this session, if any, read from the shard's
    /// `routes`.
    pub(crate) fn route<'a>(&self, routes: &'a Arena) -> Option<&'a Route> {
        self.rib.as_ref().map(|entry| routes.get(entry.route))
    }
}

/// What one node holds for one prefix besides its sessions: everything a
/// delivery touches apart from its slot, in one cache line.
#[derive(Debug, Clone, Default)]
#[repr(align(64))]
struct NodeRib {
    /// The locally originated route, stamped 0: older than anything learned.
    originated: Option<RibEntry>,
    best: Option<BestEntry>,
    /// Monotonic counter stamping this prefix's Adj-RIB-In installations,
    /// for the oldest-route tiebreak (which compares stamps of one prefix
    /// only). Summed over prefixes it is the node's count of stamps.
    age_clock: u64,
    /// Times the decision process ran for this prefix.
    decisions: u64,
}

const _: () = assert!(std::mem::size_of::<NodeRib>() == 64);

impl NodeRib {
    /// The entry a candidate named `learned_from` is held in, given the
    /// node's `slots`.
    fn held<'s>(&'s self, slots: &'s [Slot], learned_from: Option<u32>) -> Option<&'s RibEntry> {
        match learned_from {
            None => self.originated.as_ref(),
            Some(slot) => slots[slot as usize].rib.as_ref(),
        }
    }
}

/// Which of a node's candidates for a prefix changed since its last
/// selection.
#[derive(Debug, Clone, Copy)]
enum Changed {
    /// Only the entry learned over this slot: installed, replaced or gone.
    Slot(usize),
    /// Possibly several: after evictions, a lost session, or a change to the
    /// originated route.
    Several,
}

/// One prefix's routing state across the shard: `nodes` is indexed by dense
/// node, `slots` by receiving-side edge id.
#[derive(Debug)]
struct PrefixTable {
    prefix: Ipv4Prefix,
    nodes: Box<[NodeRib]>,
    slots: Box<[Slot]>,
}

/// A shard's routing state: one table per prefix ever announced to or by a
/// node the shard owns, ascending, and the arena of the routes they and the
/// shard's updates in flight hold. Tables are full width (every node, every
/// edge) so node and edge ids index them directly; only the owned entries
/// are ever written.
#[derive(Debug)]
pub(crate) struct Rib {
    tables: Vec<PrefixTable>,
    /// Every route this shard's tables, queue, MRAI windows and outbox hold.
    pub(crate) routes: Arena,
    nodes: usize,
    edges: usize,
}

impl Rib {
    pub(crate) fn new(nodes: usize, edges: usize) -> Self {
        Rib {
            tables: Vec::new(),
            routes: Arena::default(),
            nodes,
            edges,
        }
    }

    /// The route handles the tables hold, one per holder: originated
    /// entries and Adj-RIB-In slots.
    pub(crate) fn held(&self) -> impl Iterator<Item = RouteId> + '_ {
        self.tables.iter().flat_map(|table| {
            let own = table
                .nodes
                .iter()
                .filter_map(|node| node.originated.as_ref());
            let learned = table.slots.iter().filter_map(|slot| slot.rib.as_ref());
            own.chain(learned).map(|entry| entry.route)
        })
    }

    /// Where `prefix`'s table is (`Ok`) or would be inserted (`Err`).
    fn position(&self, prefix: Ipv4Prefix) -> Result<usize, usize> {
        match self.tables.as_slice() {
            // Every experiment announces one prefix per network (the
            // sub-prefix ablation two): skip the search.
            [only] if only.prefix == prefix => Ok(0),
            tables => tables.binary_search_by_key(&prefix, |table| table.prefix),
        }
    }

    fn table(&self, prefix: Ipv4Prefix) -> Option<&PrefixTable> {
        self.position(prefix).ok().map(|at| &self.tables[at])
    }

    /// The index of `prefix`'s table, created empty on first mention.
    fn position_or_insert(&mut self, prefix: Ipv4Prefix) -> usize {
        self.position(prefix).unwrap_or_else(|at| {
            let table = PrefixTable {
                prefix,
                nodes: vec![NodeRib::default(); self.nodes].into_boxed_slice(),
                slots: vec![Slot::default(); self.edges].into_boxed_slice(),
            };
            self.tables.insert(at, table);
            at
        })
    }
}

/// Where one router sits in the topology: its ASN, dense node index, and
/// CSR row — `peers[k]` is the peer on edge `first + k`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node<'a> {
    pub(crate) asn: Asn,
    pub(crate) index: usize,
    pub(crate) first: usize,
    pub(crate) peers: &'a [Asn],
}

impl Node<'_> {
    /// This node's sessions in a per-edge table.
    fn sessions(self) -> std::ops::Range<usize> {
        self.first..self.first + self.peers.len()
    }
}

/// One AS-level BGP router: per-peer Adj-RIB-In, locally originated routes,
/// a Loc-RIB of best routes, and split-horizon advertisement state.
///
/// Routers are driven by [`Network`](crate::Network); this is a borrowed,
/// read-only view of one router's place in its shard's tables, which the
/// experiment harness uses to census which ASes adopted a false route. It
/// is `Copy` and owns nothing.
///
/// Routes are held once, in the shard's route arena: an update installed
/// from the event queue, the Adj-RIB-In entry, and every outbound fan-out
/// copy name one entry, and the Loc-RIB best entry names the slot holding
/// it. The decision process and export path therefore move 4-byte handles,
/// not routes.
#[derive(Clone, Copy)]
pub struct Router<'a> {
    node: Node<'a>,
    rib: &'a Rib,
}

const _: () = assert!(std::mem::size_of::<Router<'_>>() <= 48);

impl fmt::Debug for Router<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Router")
            .field("asn", &self.node.asn)
            .field("peers", &self.node.peers)
            .finish_non_exhaustive()
    }
}

impl<'a> Router<'a> {
    pub(crate) fn new(node: Node<'a>, rib: &'a Rib) -> Self {
        Router { node, rib }
    }

    /// This router's AS number.
    #[must_use]
    pub fn asn(self) -> Asn {
        self.node.asn
    }

    /// The router's BGP peers, ascending.
    #[must_use]
    pub fn peers(self) -> &'a [Asn] {
        self.node.peers
    }

    /// The best (Loc-RIB) route for a prefix, if any.
    #[must_use]
    pub fn best_route(self, prefix: Ipv4Prefix) -> Option<&'a Route> {
        let table = self.rib.table(prefix)?;
        let node = &table.nodes[self.node.index];
        let held = node.held(&table.slots[self.node.sessions()], node.best?.learned_from);
        held.map(|entry| self.rib.routes.get(entry.route))
    }

    /// The peer the best route was learned from (`None` when locally
    /// originated or when there is no route).
    #[must_use]
    pub fn best_learned_from(self, prefix: Ipv4Prefix) -> Option<Asn> {
        let slot = self.best(prefix)?.learned_from?;
        Some(self.node.peers[slot as usize])
    }

    /// The origin AS of the best route: the AS-path origin, or this router's
    /// own ASN for a locally originated route.
    #[must_use]
    pub fn best_origin(self, prefix: Ipv4Prefix) -> Option<Asn> {
        match self.best(prefix)?.learned_from {
            None => Some(self.node.asn),
            Some(_) => self.best_route(prefix)?.origin_as(),
        }
    }

    /// Returns `true` if this router originates `prefix` itself.
    #[must_use]
    pub fn originates(self, prefix: Ipv4Prefix) -> bool {
        let table = self.rib.table(prefix);
        table.is_some_and(|table| table.nodes[self.node.index].originated.is_some())
    }

    /// All prefixes with a best route, ascending.
    pub fn prefixes(self) -> impl Iterator<Item = Ipv4Prefix> + 'a {
        let routed = self.rib.tables.iter();
        let routed = routed.filter(move |table| table.nodes[self.node.index].best.is_some());
        routed.map(|table| table.prefix)
    }

    /// Times the BGP decision process ran on this router.
    #[must_use]
    pub fn decision_count(self) -> u64 {
        let tables = self.rib.tables.iter();
        tables
            .map(|table| table.nodes[self.node.index].decisions)
            .sum()
    }

    /// Total routes currently held in the Adj-RIB-In, across all prefixes
    /// and peers.
    #[must_use]
    pub fn adj_rib_in_size(self) -> usize {
        let slots = self
            .rib
            .tables
            .iter()
            .flat_map(|t| &t.slots[self.node.sessions()]);
        slots.filter(|slot| slot.rib.is_some()).count()
    }

    /// The Adj-RIB-In entries for a prefix, as `(peer, route)` pairs in
    /// ascending peer order.
    pub fn adj_rib_in(self, prefix: Ipv4Prefix) -> impl Iterator<Item = (Asn, &'a Route)> + 'a {
        self.rib.table(prefix).into_iter().flat_map(move |table| {
            let held = self
                .node
                .peers
                .iter()
                .zip(&table.slots[self.node.sessions()]);
            held.filter_map(|(&peer, slot)| Some((peer, slot.route(&self.rib.routes)?)))
        })
    }

    fn best(self, prefix: Ipv4Prefix) -> Option<BestEntry> {
        self.rib.table(prefix)?.nodes[self.node.index].best
    }
}

/// The mutable view the event loop drives: one router's place in the
/// shard's [`Rib`]. Every method appends the updates to send to `out`,
/// addressed by peer slot.
pub(crate) struct Speaker<'a> {
    node: Node<'a>,
    rib: &'a mut Rib,
}

impl<'a> Speaker<'a> {
    pub(crate) fn new(node: Node<'a>, rib: &'a mut Rib) -> Self {
        Speaker { node, rib }
    }

    /// The read-only view of the same router.
    pub(crate) fn view(&self) -> Router<'_> {
        Router::new(self.node, self.rib)
    }

    /// Takes the entry learned over session `slot` in table `at` out of the
    /// table, releasing its route; returns whether there was one.
    fn evict(&mut self, at: usize, slot: usize) -> bool {
        let Rib { tables, routes, .. } = &mut *self.rib;
        let held = tables[at].slots[self.node.first + slot].rib.take();
        held.map(|entry| routes.release(entry.route)).is_some()
    }

    /// Starts originating a route.
    pub(crate) fn originate<M: RouteMonitor>(
        &mut self,
        route: Route,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let at = self.rib.position_or_insert(route.prefix());
        let Rib { tables, routes, .. } = &mut *self.rib;
        let node = &mut tables[at].nodes[self.node.index];
        // The originated entry is always stamped 0, so a changed route would
        // pass for the same winner: forget an originated incumbent so that
        // its successor is exported.
        let changed = node
            .originated
            .as_ref()
            .is_none_or(|held| *routes.get(held.route) != route);
        if changed && node.best.is_some_and(|best| best.learned_from.is_none()) {
            node.best = None;
        }
        let id = routes.intern(route);
        let entry = RibEntry::new(id, routes.get(id), 0);
        if let Some(old) = node.originated.replace(entry) {
            routes.release(old.route);
        }
        self.reselect(at, Changed::Several, monitor, out);
    }

    /// Stops originating a prefix.
    pub(crate) fn withdraw_origin<M: RouteMonitor>(
        &mut self,
        prefix: Ipv4Prefix,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let Ok(at) = self.rib.position(prefix) else {
            return;
        };
        let Rib { tables, routes, .. } = &mut *self.rib;
        if let Some(old) = tables[at].nodes[self.node.index].originated.take() {
            routes.release(old.route);
            self.reselect(at, Changed::Several, monitor, out);
        }
    }

    /// The peering session to `peer` went down: every route learned from it
    /// is implicitly withdrawn, and our advertisement state toward it is
    /// forgotten. Only updates for the *other* peers are appended.
    pub(crate) fn peer_down<M: RouteMonitor>(
        &mut self,
        peer: Asn,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let Ok(slot) = self.node.peers.binary_search(&peer) else {
            return;
        };
        let first = out.len();
        for at in 0..self.rib.tables.len() {
            self.rib.tables[at].slots[self.node.first + slot].advertised = false;
            if self.evict(at, slot) {
                self.reselect(at, Changed::Several, monitor, out);
            }
        }
        // The export hooks still ran for the dead session (monitors count
        // them); only what they addressed to it is dropped.
        let routes = &mut self.rib.routes;
        let mut index = 0;
        out.retain(|&(to, update)| {
            let keep = index < first || to as usize != slot;
            index += 1;
            if !keep {
                update.discard(routes);
            }
            keep
        });
    }

    /// The peering session to `peer` came (back) up: re-advertise every
    /// current best route to it, as a BGP session establishment would.
    pub(crate) fn refresh_peer<M: RouteMonitor>(
        &mut self,
        peer: Asn,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let Ok(slot) = self.node.peers.binary_search(&peer) else {
            return;
        };
        let Node {
            asn, index, first, ..
        } = self.node;
        let Rib { tables, routes, .. } = &mut *self.rib;
        for table in tables {
            let node = &table.nodes[index];
            let Some(best) = node.best else {
                continue;
            };
            if best.learned_from == Some(slot as u32) {
                continue; // split horizon
            }
            let Some(held) = node.held(&table.slots[self.node.sessions()], best.learned_from)
            else {
                continue;
            };
            let learned_from = best.learned_from.map(|s| self.node.peers[s as usize]);
            let outbound = routes.get(held.route).propagated_by(asn);
            let route = match monitor.on_export(asn, peer, learned_from, &outbound) {
                ExportAction::Forward => outbound,
                ExportAction::Replace(route) => route,
                ExportAction::Suppress => continue,
            };
            table.slots[first + slot].advertised = true;
            out.push((slot as u32, SharedUpdate::Announce(routes.intern(route))));
        }
    }

    /// Processes an update from the peer in slot `from`, taking over the
    /// update's count of its route.
    pub(crate) fn handle_update<M: RouteMonitor>(
        &mut self,
        from: u32,
        update: SharedUpdate,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let from = from as usize;
        let id = match update {
            SharedUpdate::Withdraw(prefix) => {
                let Ok(at) = self.rib.position(prefix) else {
                    return;
                };
                if self.evict(at, from) {
                    monitor.on_withdraw(self.node.asn, self.node.peers[from], prefix);
                    self.reselect(at, Changed::Slot(from), monitor, out);
                }
                return;
            }
            SharedUpdate::Announce(id) => id,
        };
        let route = self.rib.routes.get(id);
        let prefix = route.prefix();
        // Loop suppression: never accept a path containing ourselves. The
        // announcement still supersedes the peer's previous route
        // (treat-as-withdraw), otherwise two routers can hold stale routes
        // through each other forever.
        if route.as_path().contains(self.node.asn) {
            self.rib.routes.release(id);
            let Ok(at) = self.rib.position(prefix) else {
                return;
            };
            if self.evict(at, from) {
                self.reselect(at, Changed::Slot(from), monitor, out);
            }
            return;
        }
        let at = self.rib.position_or_insert(prefix);
        let decision = self.consult_monitor(at, from, id, monitor);
        let changed = if self.apply_evictions(at, from, &decision) {
            Changed::Several
        } else {
            Changed::Slot(from)
        };
        let Rib { tables, routes, .. } = &mut *self.rib;
        let table = &mut tables[at];
        // Stamp every announcement that got this far, refused ones included:
        // the oldest-route tiebreak orders installations by this clock.
        let clock = &mut table.nodes[self.node.index].age_clock;
        *clock += 1;
        let stamp = *clock;
        let held = &mut table.slots[self.node.first + from].rib;
        let replaced = if decision.reject {
            // The newest word from this peer supersedes its previous
            // announcement even when we refuse to install it.
            routes.release(id);
            held.take()
        } else if matches!(held, Some(entry) if routes.get(entry.route) == routes.get(id)) {
            // (An identical re-announcement keeps the original age.)
            routes.release(id);
            None
        } else {
            held.replace(RibEntry::new(id, routes.get(id), stamp))
        };
        if let Some(old) = replaced {
            routes.release(old.route);
        }
        self.reselect(at, changed, monitor, out);
    }

    fn consult_monitor<M: RouteMonitor>(
        &self,
        at: usize,
        from: usize,
        route: RouteId,
        monitor: &mut M,
    ) -> ImportDecision {
        // The context borrows the tables: the held routes are walked lazily
        // by whoever looks, so building it allocates and copies nothing.
        let table = &self.rib.tables[at];
        let routes = &self.rib.routes;
        let own = table.nodes[self.node.index].originated.as_ref();
        monitor.on_import(&ImportContext {
            local: self.node.asn,
            from_peer: self.node.peers[from],
            route: routes.get(route),
            existing: HeldRoutes::rib(
                own.map(|entry| routes.get(entry.route)),
                self.node.peers,
                &table.slots[self.node.sessions()],
                routes,
                from,
            ),
        })
    }

    /// Drops the routes `decision` evicts, except the sender's; returns
    /// whether any was held.
    fn apply_evictions(&mut self, at: usize, from: usize, decision: &ImportDecision) -> bool {
        let mut evicted = false;
        for peer in &decision.evict_peers {
            match self.node.peers.binary_search(peer) {
                Ok(slot) if slot != from => evicted |= self.evict(at, slot),
                _ => {}
            }
        }
        evicted
    }

    /// Re-runs the decision process for the prefix table at `at` after the
    /// `changed` candidates changed and, if the best route changed, appends
    /// the updates to send to peers.
    ///
    /// A new best route is announced to every peer but its source (split
    /// horizon), then peers that previously heard from us but are now
    /// excluded get a withdrawal; with no route left that is every advertised
    /// peer. The prepended outbound route is interned **once**, and every
    /// peer the monitor lets through unmodified gets a count of it; only an
    /// [`ExportAction::Replace`] interns another.
    fn reselect<M: RouteMonitor>(
        &mut self,
        at: usize,
        changed: Changed,
        monitor: &mut M,
        out: &mut Outbox,
    ) {
        let Node {
            asn, index, peers, ..
        } = self.node;
        let Rib { tables, routes, .. } = &mut *self.rib;
        let table = &mut tables[at];
        let prefix = table.prefix;
        let node = &mut table.nodes[index];
        node.decisions += 1;
        let slots = &mut table.slots[self.node.sessions()];
        let winner = select(node, slots, changed);
        // The winner is named by source and stamp, and an entry keeps its
        // stamp exactly while its route stays the same.
        if winner == node.best {
            return;
        }
        let held = winner.and_then(|best| node.held(slots, best.learned_from));
        let outbound = held.map(|entry| {
            let route = routes.get(entry.route).propagated_by(asn);
            routes.intern(route)
        });
        let source = winner.and_then(|best| best.learned_from);
        let source_asn = source.map(|slot| peers[slot as usize]);
        node.best = winner;
        let first = out.len();
        for (slot, (&peer, state)) in peers.iter().zip(slots.iter_mut()).enumerate() {
            let slot = slot as u32;
            let announcement = match outbound {
                Some(id) if source != Some(slot) => {
                    match monitor.on_export(asn, peer, source_asn, routes.get(id)) {
                        ExportAction::Forward => {
                            routes.retain(id);
                            Some(SharedUpdate::Announce(id))
                        }
                        ExportAction::Replace(route) => {
                            Some(SharedUpdate::Announce(routes.intern(route)))
                        }
                        ExportAction::Suppress => None,
                    }
                }
                _ => None,
            };
            let was_advertised = std::mem::replace(&mut state.advertised, announcement.is_some());
            match announcement {
                Some(update) => out.push((slot, update)),
                None if was_advertised => out.push((slot, SharedUpdate::Withdraw(prefix))),
                None => {}
            }
        }
        // The interned route's own count: the peers hold theirs.
        if let Some(id) = outbound {
            routes.release(id);
        }
        // Announcements go out first, then withdrawals, each in ascending
        // slot order: the sort is stable (and one pass when nothing moves).
        out[first..].sort_by_key(|(_, update)| update.is_withdrawal());
    }
}

/// The best of `node`'s candidates after the `changed` ones changed.
///
/// When only one learned slot changed, the incumbent and that slot's entry
/// settle it: every other candidate lost to the incumbent before and still
/// does. Only when the incumbent itself got worse or left, or several
/// candidates changed, does the full scan ([`decide`]) run. Debug builds
/// check every shortcut against the scan.
fn select(node: &NodeRib, slots: &[Slot], changed: Changed) -> Option<BestEntry> {
    let winner = match changed {
        Changed::Slot(slot) => {
            let source = Some(slot as u32);
            let challenger = slots[slot]
                .rib
                .as_ref()
                .map(|entry| entry.candidate(source));
            match node.best {
                // No incumbent means nothing was held: the slot is alone.
                None => challenger,
                // The incumbent itself changed: it stays ahead only if it got
                // no worse (an unchanged entry keeps its stamp, so its key).
                Some(best) if best.learned_from == source => match challenger {
                    Some(new) if new.key() <= best.key() => challenger,
                    _ => decide(node.originated.as_ref(), slots),
                },
                // Everyone else lost to the incumbent: only the slot can win.
                Some(best) => match challenger {
                    Some(new) if new.key() < best.key() => challenger,
                    _ => Some(best),
                },
            }
        }
        Changed::Several => decide(node.originated.as_ref(), slots),
    };
    debug_assert_eq!(
        winner,
        decide(node.originated.as_ref(), slots),
        "the incremental selection disagrees with the full scan"
    );
    winner
}

/// The BGP decision process over one node's candidates for one prefix:
/// highest `LOCAL_PREF`, then shortest AS path (locally originated routes
/// have an empty path and win). Exact ties keep the currently selected route
/// ("prefer oldest", the stability practice SSFnet and most deployed
/// implementations follow); a tie with no incumbent breaks deterministically
/// toward the lowest peer ASN.
///
/// The prefer-current rule matters for the experiments: an attacker's
/// equally-long route must not displace a valid route that is already
/// installed, exactly as in the paper's converged-network attack model.
///
/// Candidates are ranked from the keys cached beside them ([`BestEntry::key`]),
/// so the scan is one pass over the node's row of slots that allocates
/// nothing and never follows a route pointer. Every key ends in the
/// candidate's source, so no two are equal and the minimum is unique.
fn decide(originated: Option<&RibEntry>, slots: &[Slot]) -> Option<BestEntry> {
    let own = originated.map(|entry| entry.candidate(None));
    let learned = slots.iter().enumerate();
    let learned = learned.filter_map(|(slot, state)| {
        let entry = state.rib.as_ref()?;
        Some(entry.candidate(Some(slot as u32)))
    });
    own.into_iter().chain(learned).min_by_key(|best| best.key())
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

// AS-path sanity helper shared by tests.
#[cfg(test)]
pub(crate) fn announced(origin: Asn, prefix: Ipv4Prefix) -> Route {
    Route::new(prefix, bgp_types::AsPath::origination(origin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NoopMonitor;
    use bgp_types::{AsPath, Update};
    use std::collections::BTreeSet;

    /// The calling convention these tests (and the reference router) were
    /// written against: peers named by ASN, one call's updates as a list.
    /// The router under test is node 1 of a three-node table whose sessions
    /// start at edge id 2, so an offset mixed up with a slot shows.
    #[derive(Debug)]
    pub(super) struct ByAsn {
        asn: Asn,
        peers: Vec<Asn>,
        rib: Rib,
    }

    pub(super) type Sent = Vec<(Asn, Update)>;

    const INDEX: usize = 1;
    const FIRST: usize = 2;

    impl ByAsn {
        pub(super) fn new(asn: Asn, mut peers: Vec<Asn>) -> Self {
            peers.sort_unstable();
            peers.dedup();
            let edges = FIRST + peers.len() + 3;
            ByAsn {
                asn,
                rib: Rib::new(3, edges),
                peers,
            }
        }

        fn node(&self) -> Node<'_> {
            Node {
                asn: self.asn,
                index: INDEX,
                first: FIRST,
                peers: &self.peers,
            }
        }

        pub(super) fn view(&self) -> Router<'_> {
            Router::new(self.node(), &self.rib)
        }

        pub(super) fn age_clock(&self) -> u64 {
            self.rib
                .tables
                .iter()
                .map(|t| t.nodes[INDEX].age_clock)
                .sum()
        }

        /// Whether every table entry outside this router's node and
        /// sessions is still empty.
        pub(super) fn untouched_elsewhere(&self) -> bool {
            let sessions = self.node().sessions();
            self.rib.tables.iter().all(|table| {
                let mut nodes = table.nodes.iter().enumerate();
                let mut slots = table.slots.iter().enumerate();
                nodes.all(|(k, n)| {
                    k == INDEX
                        || (n.originated.is_none()
                            && n.best.is_none()
                            && n.age_clock == 0
                            && n.decisions == 0)
                }) && slots
                    .all(|(e, s)| sessions.contains(&e) || (s.rib.is_none() && !s.advertised))
            })
        }

        /// Runs `f` and returns what it sent, still as arena handles the
        /// caller now holds.
        fn call_raw(&mut self, f: impl FnOnce(&mut Speaker<'_>, &mut Outbox)) -> Outbox {
            let mut out = Outbox::new();
            let node = Node {
                asn: self.asn,
                index: INDEX,
                first: FIRST,
                peers: &self.peers,
            };
            f(&mut Speaker::new(node, &mut self.rib), &mut out);
            out
        }

        /// Runs `f` and returns what it sent, copied out of the arena. Then
        /// the tables must be the arena's only holders, each counted once.
        pub(super) fn call(&mut self, f: impl FnOnce(&mut Speaker<'_>, &mut Outbox)) -> Sent {
            let out = self.call_raw(f);
            let sent = out.into_iter().map(|(slot, update)| {
                let update = update.into_update(&mut self.rib.routes);
                (self.peers[slot as usize], update)
            });
            let sent = sent.collect();
            let audit = self.rib.routes.audit(self.rib.held());
            assert!(audit.is_ok(), "route arena out of balance: {audit:?}");
            sent
        }

        fn originate<M: RouteMonitor>(&mut self, route: Route, monitor: &mut M) -> Sent {
            self.call(|r, out| r.originate(route, monitor, out))
        }

        pub(super) fn handle_update<M: RouteMonitor>(
            &mut self,
            from: Asn,
            update: Update,
            monitor: &mut M,
        ) -> Sent {
            let slot = self.peers.binary_search(&from).unwrap() as u32;
            let update = SharedUpdate::intern(update, &mut self.rib.routes);
            self.call(|r, out| r.handle_update(slot, update, monitor, out))
        }
    }

    fn prefix() -> Ipv4Prefix {
        "10.0.0.0/16".parse().unwrap()
    }

    fn router() -> ByAsn {
        ByAsn::new(Asn(1), vec![Asn(2), Asn(3), Asn(4)])
    }

    #[test]
    fn origination_exports_to_all_peers() {
        let mut r = router();
        let updates = r.originate(Route::new(prefix(), AsPath::new()), &mut NoopMonitor);
        assert_eq!(updates.len(), 3);
        for (_, update) in &updates {
            let route = update.route().unwrap();
            assert_eq!(route.as_path().to_string(), "1");
            assert_eq!(route.origin_as(), Some(Asn(1)));
        }
        assert_eq!(r.view().best_origin(prefix()), Some(Asn(1)));
        assert!(r.view().originates(prefix()));
    }

    #[test]
    fn fanout_announcements_share_one_route_allocation() {
        let mut r = router();
        let route = Route::new(prefix(), AsPath::new());
        let out = r.call_raw(|s, out| s.originate(route, &mut NoopMonitor, out));
        let ids: Vec<RouteId> = out
            .iter()
            .filter_map(|(_, u)| match *u {
                SharedUpdate::Announce(id) => Some(id),
                SharedUpdate::Withdraw(_) => None,
            })
            .collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|&id| id == ids[0]));
        // One entry for the originated route, one for the exported one,
        // which each of the three announcements holds a count of.
        let held = r.rib.held().chain(ids.iter().copied());
        assert_eq!(r.rib.routes.audit(held), Ok(2));
    }

    #[test]
    fn received_route_is_installed_and_propagated_with_split_horizon() {
        let mut r = router();
        let incoming = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let updates = r.handle_update(Asn(2), Update::announce(incoming), &mut NoopMonitor);
        // Sent to peers 3 and 4, not back to 2.
        let targets: Vec<Asn> = updates.iter().map(|(p, _)| *p).collect();
        assert_eq!(targets, vec![Asn(3), Asn(4)]);
        let route = updates[0].1.route().unwrap();
        assert_eq!(route.as_path().to_string(), "1 2 9");
        assert_eq!(r.view().best_origin(prefix()), Some(Asn(9)));
        assert_eq!(r.view().best_learned_from(prefix()), Some(Asn(2)));
    }

    #[test]
    fn looped_path_is_dropped() {
        let mut r = router();
        let mut looped = announced(Asn(9), prefix());
        looped = looped.propagated_by(Asn(1)).propagated_by(Asn(2));
        let updates = r.handle_update(Asn(2), Update::announce(looped), &mut NoopMonitor);
        assert!(updates.is_empty());
        assert!(r.view().best_route(prefix()).is_none());
    }

    #[test]
    fn shorter_path_wins() {
        let mut r = router();
        let long = announced(Asn(9), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(2));
        let short = announced(Asn(9), prefix()).propagated_by(Asn(3));
        r.handle_update(Asn(2), Update::announce(long), &mut NoopMonitor);
        let updates = r.handle_update(Asn(3), Update::announce(short), &mut NoopMonitor);
        assert_eq!(r.view().best_learned_from(prefix()), Some(Asn(3)));
        assert!(!updates.is_empty());
    }

    #[test]
    fn equal_paths_keep_the_incumbent() {
        // "Prefer current" stability: an equally good route from another
        // peer must not displace the installed one.
        let mut r = router();
        let via4 = announced(Asn(9), prefix()).propagated_by(Asn(4));
        let via3 = announced(Asn(9), prefix()).propagated_by(Asn(3));
        r.handle_update(Asn(4), Update::announce(via4), &mut NoopMonitor);
        let updates = r.handle_update(Asn(3), Update::announce(via3), &mut NoopMonitor);
        assert_eq!(r.view().best_learned_from(prefix()), Some(Asn(4)));
        assert!(updates.is_empty(), "no churn on an ignored tie");
    }

    #[test]
    fn tie_without_incumbent_breaks_to_lowest_peer() {
        // When the incumbent disappears and two equal routes remain, the
        // deterministic tiebreak picks the lowest peer ASN.
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let via3 = announced(Asn(8), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(3));
        let via4 = announced(Asn(8), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(4));
        r.handle_update(Asn(2), Update::announce(via2), &mut NoopMonitor);
        r.handle_update(Asn(3), Update::announce(via3), &mut NoopMonitor);
        r.handle_update(Asn(4), Update::announce(via4), &mut NoopMonitor);
        assert_eq!(r.view().best_learned_from(prefix()), Some(Asn(2)));
        r.handle_update(Asn(2), Update::withdraw(prefix()), &mut NoopMonitor);
        assert_eq!(r.view().best_learned_from(prefix()), Some(Asn(3)));
    }

    #[test]
    fn local_origination_beats_learned_routes() {
        let mut r = router();
        let learned = announced(Asn(9), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), Update::announce(learned), &mut NoopMonitor);
        r.originate(Route::new(prefix(), AsPath::new()), &mut NoopMonitor);
        assert_eq!(r.view().best_origin(prefix()), Some(Asn(1)));
        assert_eq!(r.view().best_learned_from(prefix()), None);
    }

    #[test]
    fn higher_local_pref_wins_over_shorter_path() {
        let mut r = router();
        let short = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let long_preferred = announced(Asn(9), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(3))
            .with_local_pref(200);
        r.handle_update(Asn(2), Update::announce(short), &mut NoopMonitor);
        r.handle_update(Asn(3), Update::announce(long_preferred), &mut NoopMonitor);
        assert_eq!(r.view().best_learned_from(prefix()), Some(Asn(3)));
    }

    #[test]
    fn withdrawal_falls_back_to_next_best() {
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let via3 = announced(Asn(8), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(3));
        r.handle_update(Asn(2), Update::announce(via2), &mut NoopMonitor);
        r.handle_update(Asn(3), Update::announce(via3), &mut NoopMonitor);
        assert_eq!(r.view().best_origin(prefix()), Some(Asn(9)));
        let updates = r.handle_update(Asn(2), Update::withdraw(prefix()), &mut NoopMonitor);
        assert_eq!(r.view().best_origin(prefix()), Some(Asn(8)));
        assert!(!updates.is_empty());
    }

    #[test]
    fn last_withdrawal_sends_withdraw_to_advertised_peers() {
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), Update::announce(via2), &mut NoopMonitor);
        let updates = r.handle_update(Asn(2), Update::withdraw(prefix()), &mut NoopMonitor);
        assert!(r.view().best_route(prefix()).is_none());
        let withdraw_targets: BTreeSet<Asn> = updates
            .iter()
            .filter(|(_, u)| u.is_withdrawal())
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(withdraw_targets, BTreeSet::from([Asn(3), Asn(4)]));
    }

    #[test]
    fn duplicate_announcement_is_silent() {
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), Update::announce(via2.clone()), &mut NoopMonitor);
        let updates = r.handle_update(Asn(2), Update::announce(via2), &mut NoopMonitor);
        assert!(
            updates.is_empty(),
            "implicit replacement with identical route must not re-export"
        );
    }

    #[test]
    fn spurious_withdrawal_is_silent() {
        let mut r = router();
        let updates = r.handle_update(Asn(2), Update::withdraw(prefix()), &mut NoopMonitor);
        assert!(updates.is_empty());
    }

    #[test]
    fn best_switch_to_new_peer_sends_withdraw_to_that_peer() {
        // When the best route moves to peer 3, split horizon excludes 3 from
        // the announcement; 3 previously got our announcement, so it must
        // receive a withdraw.
        let mut r = router();
        let via2 = announced(Asn(9), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(2));
        r.handle_update(Asn(2), Update::announce(via2), &mut NoopMonitor);
        let via3 = announced(Asn(9), prefix()).propagated_by(Asn(3));
        let updates = r.handle_update(Asn(3), Update::announce(via3), &mut NoopMonitor);
        let to3: Vec<&Update> = updates
            .iter()
            .filter(|(p, _)| *p == Asn(3))
            .map(|(_, u)| u)
            .collect();
        assert_eq!(to3.len(), 1);
        assert!(to3[0].is_withdrawal());
    }

    #[test]
    fn rejecting_monitor_blocks_installation() {
        struct RejectAll;
        impl RouteMonitor for RejectAll {
            fn on_import(&mut self, _ctx: &ImportContext<'_>) -> ImportDecision {
                ImportDecision::reject()
            }
        }
        let mut r = router();
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        let updates = r.handle_update(Asn(2), Update::announce(via2), &mut RejectAll);
        assert!(updates.is_empty());
        assert!(r.view().best_route(prefix()).is_none());
    }

    #[test]
    fn eviction_removes_previously_installed_route() {
        struct EvictTwo;
        impl RouteMonitor for EvictTwo {
            fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
                if ctx.from_peer == Asn(3) {
                    ImportDecision::accept().with_eviction(Asn(2))
                } else {
                    ImportDecision::accept()
                }
            }
        }
        let mut r = router();
        let false_route = announced(Asn(66), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), Update::announce(false_route), &mut EvictTwo);
        assert_eq!(r.view().best_origin(prefix()), Some(Asn(66)));
        let valid = announced(Asn(9), prefix())
            .propagated_by(Asn(7))
            .propagated_by(Asn(3));
        r.handle_update(Asn(3), Update::announce(valid), &mut EvictTwo);
        assert_eq!(r.view().best_origin(prefix()), Some(Asn(9)));
        assert_eq!(r.view().adj_rib_in(prefix()).count(), 1);
    }

    #[test]
    fn suppressing_export_monitor_sends_nothing() {
        struct Mute;
        impl RouteMonitor for Mute {
            fn on_export(
                &mut self,
                _local: Asn,
                _to: Asn,
                _learned_from: Option<Asn>,
                _route: &Route,
            ) -> ExportAction {
                ExportAction::Suppress
            }
        }
        let mut r = router();
        let updates = r.originate(Route::new(prefix(), AsPath::new()), &mut Mute);
        assert!(updates.is_empty());
    }

    #[test]
    fn replacing_export_monitor_substitutes_the_route() {
        struct Downgrade;
        impl RouteMonitor for Downgrade {
            fn on_export(
                &mut self,
                _local: Asn,
                to: Asn,
                _learned_from: Option<Asn>,
                route: &Route,
            ) -> ExportAction {
                if to == Asn(3) {
                    ExportAction::Replace(route.clone().with_local_pref(7))
                } else {
                    ExportAction::Forward
                }
            }
        }
        let mut r = router();
        let updates = r.originate(Route::new(prefix(), AsPath::new()), &mut Downgrade);
        assert_eq!(updates.len(), 3);
        for (peer, update) in &updates {
            let route = update.route().unwrap();
            if *peer == Asn(3) {
                assert_eq!(route.local_pref(), 7);
            } else {
                assert_ne!(route.local_pref(), 7);
            }
        }
    }

    #[test]
    fn monitor_sees_existing_routes_except_replaced_peer() {
        struct Census(Vec<usize>);
        impl RouteMonitor for Census {
            fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
                self.0.push(ctx.existing.iter().count());
                ImportDecision::accept()
            }
        }
        let mut monitor = Census(Vec::new());
        let mut r = router();
        r.originate(Route::new(prefix(), AsPath::new()), &mut monitor);
        let via2 = announced(Asn(9), prefix()).propagated_by(Asn(2));
        r.handle_update(Asn(2), Update::announce(via2.clone()), &mut monitor);
        // Re-announcement from the same peer: its own old entry excluded.
        r.handle_update(Asn(2), Update::announce(via2), &mut monitor);
        assert_eq!(monitor.0, vec![1, 1]);
    }
}
