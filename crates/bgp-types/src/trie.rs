//! A binary prefix trie with longest-match lookup.

use crate::Ipv4Prefix;

/// Child-slot sentinel: "no child".
const NIL: u32 = u32::MAX;

/// The root node's index. The arena always holds it.
const ROOT: u32 = 0;

/// A longest-prefix-match table: the data structure behind an IP forwarding
/// table (FIB).
///
/// The §4.3 limitation — a hijacker announcing a *more-specific* prefix wins
/// forwarding even though the victim's covering route is intact — is a
/// longest-match phenomenon, so reproducing it end-to-end needs a real FIB.
///
/// # Representation
///
/// Nodes live in one arena `Vec` and refer to children by `u32` index
/// instead of `Box` pointers: a bulk build touches contiguous memory rather
/// than chasing per-node heap allocations, and dropping the trie frees one
/// allocation instead of walking the tree. Removal prunes empty branches
/// into a free list that later inserts reuse, so the arena does not leak
/// under churn. Equality compares *contents* (the iteration order is
/// canonical), not arena layout, so two tries built in different orders
/// compare equal.
///
/// Sorted bulk loads should go through [`extend_sorted`](Self::extend_sorted),
/// which descends only below the bits each prefix shares with its
/// predecessor instead of re-walking from the root.
///
/// # Example
///
/// ```
/// use bgp_types::{Ipv4Prefix, PrefixTrie};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fib: PrefixTrie<&str> = PrefixTrie::new();
/// let covering: Ipv4Prefix = "208.8.0.0/16".parse()?;
/// let hijacked: Ipv4Prefix = "208.8.0.0/17".parse()?;
/// fib.insert(covering, "victim");
/// fib.insert(hijacked, "attacker");
///
/// // 208.8.1.1 falls in the /17: longest match goes to the attacker.
/// let addr = u32::from(std::net::Ipv4Addr::new(208, 8, 1, 1));
/// assert_eq!(fib.longest_match(addr), Some((hijacked, &"attacker")));
///
/// // 208.8.200.1 only matches the /16.
/// let addr = u32::from(std::net::Ipv4Addr::new(208, 8, 200, 1));
/// assert_eq!(fib.longest_match(addr), Some((covering, &"victim")));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<T> {
    value: Option<T>,
    children: [u32; 2],
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            value: None,
            children: [NIL, NIL],
        }
    }

    fn is_empty_leaf(&self) -> bool {
        self.value.is_none() && self.children[0] == NIL && self.children[1] == NIL
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no prefixes are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (0 = most significant) of an address.
    fn bit(addr: u32, i: u8) -> usize {
        ((addr >> (31 - i)) & 1) as usize
    }

    /// Allocates a fresh (or recycled) node and returns its index.
    fn alloc(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node::new();
            idx
        } else {
            debug_assert!(self.nodes.len() < NIL as usize);
            self.nodes.push(Node::new());
            (self.nodes.len() - 1) as u32
        }
    }

    /// Walks to the node at `prefix`'s path, creating nodes as needed, and
    /// returns its index.
    fn walk_or_create(&mut self, mut idx: u32, from_depth: u8, prefix: Ipv4Prefix) -> u32 {
        for i in from_depth..prefix.len() {
            let b = Self::bit(prefix.network(), i);
            let child = self.nodes[idx as usize].children[b];
            idx = if child == NIL {
                let new = self.alloc();
                self.nodes[idx as usize].children[b] = new;
                new
            } else {
                child
            };
        }
        idx
    }

    /// Inserts (or replaces) the value for a prefix, returning the previous
    /// value if the prefix was present.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let idx = self.walk_or_create(ROOT, 0, prefix);
        let old = self.nodes[idx as usize].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Bulk-inserts entries, exploiting sorted order: consecutive prefixes
    /// share the node path of their common leading bits, so a prefix-sorted
    /// batch descends only below the shared stem instead of re-walking all
    /// `prefix.len()` levels from the root per entry.
    ///
    /// Semantically identical to calling [`insert`](Self::insert) per entry
    /// (later duplicates replace earlier values); unsorted input stays
    /// correct and merely loses the speedup.
    pub fn extend_sorted<I: IntoIterator<Item = (Ipv4Prefix, T)>>(&mut self, entries: I) {
        // stack[d] is the node at depth d along the previously inserted
        // prefix's path; stack[0] is the root.
        let mut stack: Vec<u32> = Vec::with_capacity(33);
        stack.push(ROOT);
        let mut prev = Ipv4Prefix::DEFAULT;
        for (prefix, value) in entries {
            let shared = Self::shared_bits(prev, prefix);
            stack.truncate(usize::from(shared) + 1);
            let mut idx = stack[usize::from(shared)];
            for i in shared..prefix.len() {
                let b = Self::bit(prefix.network(), i);
                let child = self.nodes[idx as usize].children[b];
                idx = if child == NIL {
                    let new = self.alloc();
                    self.nodes[idx as usize].children[b] = new;
                    new
                } else {
                    child
                };
                stack.push(idx);
            }
            if self.nodes[idx as usize].value.replace(value).is_none() {
                self.len += 1;
            }
            prev = prefix;
        }
    }

    /// Leading bits `a` and `b` share, capped at both prefix lengths.
    fn shared_bits(a: Ipv4Prefix, b: Ipv4Prefix) -> u8 {
        let common = (a.network() ^ b.network()).leading_zeros() as u8;
        common.min(a.len()).min(b.len())
    }

    /// Removes a prefix, returning its value if present. Empty branches are
    /// pruned onto the free list so the arena does not grow under churn.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<T> {
        // Path of (parent index, branch taken) pairs down to the target.
        let mut path = [(ROOT, 0usize); 32];
        let mut idx = ROOT;
        for i in 0..prefix.len() {
            let b = Self::bit(prefix.network(), i);
            let child = self.nodes[idx as usize].children[b];
            if child == NIL {
                return None;
            }
            path[usize::from(i)] = (idx, b);
            idx = child;
        }
        let out = self.nodes[idx as usize].value.take()?;
        self.len -= 1;
        let mut depth = prefix.len();
        while depth > 0 && self.nodes[idx as usize].is_empty_leaf() {
            let (parent, b) = path[usize::from(depth - 1)];
            self.nodes[parent as usize].children[b] = NIL;
            self.free.push(idx);
            idx = parent;
            depth -= 1;
        }
        Some(out)
    }

    /// The index of the node at exactly `prefix`'s path, if the path exists.
    fn find(&self, prefix: Ipv4Prefix) -> Option<usize> {
        let mut idx = ROOT;
        for i in 0..prefix.len() {
            let child = self.nodes[idx as usize].children[Self::bit(prefix.network(), i)];
            if child == NIL {
                return None;
            }
            idx = child;
        }
        Some(idx as usize)
    }

    /// The value stored for exactly this prefix.
    #[must_use]
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&T> {
        self.nodes[self.find(prefix)?].value.as_ref()
    }

    /// The value stored for exactly this prefix, to change where it stands.
    #[must_use]
    pub fn get_mut(&mut self, prefix: Ipv4Prefix) -> Option<&mut T> {
        let idx = self.find(prefix)?;
        self.nodes[idx].value.as_mut()
    }

    /// Longest-prefix match for a 32-bit destination address: the most
    /// specific stored prefix containing it, with its value.
    #[must_use]
    pub fn longest_match(&self, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        let mut idx = ROOT;
        let mut best: Option<(Ipv4Prefix, &T)> = None;
        for depth in 0..=32u8 {
            let node = &self.nodes[idx as usize];
            if let Some(value) = node.value.as_ref() {
                best = Some((Ipv4Prefix::new(addr, depth), value));
            }
            if depth == 32 {
                break;
            }
            let child = node.children[Self::bit(addr, depth)];
            if child == NIL {
                break;
            }
            idx = child;
        }
        best
    }

    /// Every stored prefix covering `prefix` (including `prefix` itself),
    /// least-specific first, with its value.
    ///
    /// Unlike [`longest_match`](Self::longest_match) — which matches a host
    /// address and may descend *below* the query — this never returns an
    /// entry more specific than the query prefix: an announcement for
    /// `10.1.0.0/16` is judged by `10.1.0.0/16` and its covering entries,
    /// never by a stored `10.1.2.0/24`. Walking the result in reverse visits
    /// covering entries most-specific first, which is the precedence order
    /// for override resolution. The lookup allocates nothing: see
    /// [`Covering`].
    #[must_use]
    pub fn covering_matches(&self, prefix: Ipv4Prefix) -> Covering<'_, T> {
        let mut out = Covering::new();
        let mut idx = ROOT;
        for depth in 0..=prefix.len() {
            let node = &self.nodes[idx as usize];
            if let Some(value) = node.value.as_ref() {
                out.push((Ipv4Prefix::new(prefix.network(), depth), value));
            }
            if depth == prefix.len() {
                break;
            }
            let child = node.children[Self::bit(prefix.network(), depth)];
            if child == NIL {
                break;
            }
            idx = child;
        }
        out
    }

    /// All stored prefixes with their values, most-specific-last within each
    /// branch (pre-order). The order is canonical: it depends only on the
    /// stored contents, never on insertion or removal history. The walk is
    /// lazy and allocates nothing: see [`TrieIter`].
    pub fn iter(&self) -> TrieIter<'_, T> {
        TrieIter {
            nodes: &self.nodes,
            // Slot 0 holds the root (the /0 at network 0); the rest are unused.
            pending: [(ROOT, 0, 0); MAX_PENDING],
            top: 1,
            remaining: self.len,
        }
    }
}

/// The most nodes a [`TrieIter`] holds pending: a pre-order walk keeps at most
/// one unvisited right sibling per depth 1-31 above a /31 node, plus that
/// node's two /32 children.
const MAX_PENDING: usize = 33;

/// Pre-order iterator over a [`PrefixTrie`]'s entries — what
/// [`PrefixTrie::iter`] returns.
///
/// The nodes still to visit sit on an explicit stack in a fixed array
/// instead of a collected `Vec` of entries, so the iterator allocates
/// nothing and a caller that stops early pays only for what it read. It
/// stops as soon as every stored entry has been yielded.
pub struct TrieIter<'a, T> {
    nodes: &'a [Node<T>],
    /// `(node, network, prefix length)` still to visit, the next on top.
    pending: [(u32, u32, u8); MAX_PENDING],
    /// Number of occupied `pending` slots.
    top: usize,
    /// Stored entries not yet yielded.
    remaining: usize,
}

impl<'a, T> Iterator for TrieIter<'a, T> {
    type Item = (Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        // Every entry not yet yielded lies below a pending node, so the
        // stack cannot run dry while `remaining > 0`.
        while self.remaining > 0 {
            self.top -= 1;
            let (idx, network, length) = self.pending[self.top];
            let node = &self.nodes[idx as usize];
            if length < 32 {
                // Right child first, so the left one is visited next.
                let right = network | (1 << (31 - length));
                for (child, at) in [(node.children[1], right), (node.children[0], network)] {
                    if child != NIL {
                        self.pending[self.top] = (child, at, length + 1);
                        self.top += 1;
                    }
                }
            }
            if let Some(value) = node.value.as_ref() {
                self.remaining -= 1;
                return Some((Ipv4Prefix::new(network, length), value));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for TrieIter<'_, T> {}

impl<T> std::iter::FusedIterator for TrieIter<'_, T> {}

/// One slot per prefix length, /0 to /32.
const MAX_COVERING: usize = 33;

/// The stored prefixes covering one query, least-specific first — what
/// [`PrefixTrie::covering_matches`] returns.
///
/// A query has at most one covering entry per prefix length, so the entries
/// live inline in a fixed array instead of a heap `Vec`. The value
/// dereferences to a slice of `(prefix, &value)` pairs and iterates by
/// value over the same pairs.
pub struct Covering<'a, T> {
    /// `None` until the first match; that entry also fills the slots beyond
    /// `len`, since there is no other `&T` to put there.
    slots: Option<[(Ipv4Prefix, &'a T); MAX_COVERING]>,
    len: usize,
}

impl<'a, T> Covering<'a, T> {
    fn new() -> Self {
        Covering {
            slots: None,
            len: 0,
        }
    }

    fn push(&mut self, entry: (Ipv4Prefix, &'a T)) {
        match &mut self.slots {
            Some(slots) => slots[self.len] = entry,
            None => self.slots = Some([entry; MAX_COVERING]),
        }
        self.len += 1;
    }
}

impl<'a, T> std::ops::Deref for Covering<'a, T> {
    type Target = [(Ipv4Prefix, &'a T)];

    fn deref(&self) -> &Self::Target {
        match &self.slots {
            Some(slots) => &slots[..self.len],
            None => &[],
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Covering<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, T> IntoIterator for Covering<'a, T> {
    type Item = (Ipv4Prefix, &'a T);
    type IntoIter = CoveringIter<'a, T>;

    fn into_iter(self) -> CoveringIter<'a, T> {
        CoveringIter {
            covering: self,
            next: 0,
        }
    }
}

/// By-value iterator over a [`Covering`], least-specific first.
pub struct CoveringIter<'a, T> {
    covering: Covering<'a, T>,
    next: usize,
}

impl<'a, T> Iterator for CoveringIter<'a, T> {
    type Item = (Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let entry = self.covering.get(self.next).copied()?;
        self.next += 1;
        Some(entry)
    }
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

impl<T: PartialEq> PartialEq for PrefixTrie<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for PrefixTrie<T> {}

impl<T> FromIterator<(Ipv4Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut trie = PrefixTrie::new();
        trie.extend_sorted(iter);
        trie
    }
}

impl<T> Extend<(Ipv4Prefix, T)> for PrefixTrie<T> {
    fn extend<I: IntoIterator<Item = (Ipv4Prefix, T)>>(&mut self, iter: I) {
        self.extend_sorted(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_replace() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/16")), None);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(Ipv4Prefix::DEFAULT, "default");
        assert_eq!(t.longest_match(0), Some((Ipv4Prefix::DEFAULT, &"default")));
        assert_eq!(
            t.longest_match(u32::MAX),
            Some((Ipv4Prefix::DEFAULT, &"default"))
        );
    }

    #[test]
    fn longest_match_prefers_more_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("208.8.0.0/16"), "victim");
        t.insert(p("208.8.0.0/17"), "attacker");
        let low = p("208.8.1.0/24").network();
        let high = p("208.8.200.0/24").network();
        assert_eq!(t.longest_match(low).unwrap().1, &"attacker");
        assert_eq!(t.longest_match(high).unwrap().1, &"victim");
    }

    #[test]
    fn no_match_outside_coverage() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.longest_match(p("11.0.0.0/8").network()).is_none());
    }

    #[test]
    fn remove_prunes_and_uncovers() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        assert_eq!(t.remove(p("10.1.0.0/16")), Some(16));
        assert_eq!(t.remove(p("10.1.0.0/16")), None);
        assert_eq!(t.len(), 1);
        let addr = p("10.1.2.0/24").network();
        assert_eq!(t.longest_match(addr).unwrap().1, &8);
    }

    #[test]
    fn removal_recycles_nodes() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.0/24"), 1);
        let allocated = t.nodes.len();
        t.remove(p("10.1.2.0/24"));
        assert_eq!(t.free.len(), allocated - 1, "whole branch pruned");
        // Re-inserting an equally deep prefix reuses the freed nodes.
        t.insert(p("192.168.3.0/24"), 2);
        assert_eq!(t.nodes.len(), allocated, "arena did not grow");
        assert!(t.free.is_empty());
        assert_eq!(t.get(p("192.168.3.0/24")), Some(&2));
    }

    #[test]
    fn equality_ignores_construction_history() {
        let entries = [(p("10.0.0.0/8"), 1), (p("10.1.0.0/16"), 2)];
        let forward: PrefixTrie<i32> = entries.into_iter().collect();
        let mut churned = PrefixTrie::new();
        churned.insert(p("192.168.0.0/16"), 9);
        churned.insert(p("10.1.0.0/16"), 2);
        churned.insert(p("10.0.0.0/8"), 1);
        churned.remove(p("192.168.0.0/16"));
        assert_eq!(forward, churned);
        churned.insert(p("10.1.0.0/16"), 3);
        assert_ne!(forward, churned);
    }

    #[test]
    fn extend_sorted_matches_per_entry_insert() {
        let entries = [
            (p("0.0.0.0/0"), 0),
            (p("10.0.0.0/8"), 1),
            (p("10.0.0.0/16"), 2),
            (p("10.0.128.0/17"), 3),
            (p("10.1.0.0/16"), 4),
            (p("192.168.0.0/16"), 5),
            (p("192.168.1.0/24"), 6),
        ];
        let mut batched = PrefixTrie::new();
        batched.extend_sorted(entries);
        let mut individual = PrefixTrie::new();
        for (prefix, value) in entries {
            individual.insert(prefix, value);
        }
        assert_eq!(batched, individual);
        assert_eq!(batched.len(), entries.len());

        // Unsorted input (and duplicates, last wins) stays correct.
        let mut shuffled = PrefixTrie::new();
        shuffled.extend_sorted([
            (p("192.168.1.0/24"), 0),
            (p("10.0.0.0/16"), 2),
            (p("192.168.1.0/24"), 6),
            (p("0.0.0.0/0"), 0),
            (p("10.0.128.0/17"), 3),
            (p("10.0.0.0/8"), 1),
            (p("10.1.0.0/16"), 4),
            (p("192.168.0.0/16"), 5),
        ]);
        assert_eq!(shuffled, individual);
    }

    #[test]
    fn extend_sorted_into_populated_trie() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.extend_sorted([(p("10.0.0.0/8"), 10), (p("10.2.0.0/16"), 20)]);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&10));
        assert_eq!(t.get(p("10.2.0.0/16")), Some(&20));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn host_routes_work() {
        let mut t = PrefixTrie::new();
        let host = p("1.2.3.4/32");
        t.insert(host, "host");
        assert_eq!(t.longest_match(host.network()).unwrap().1, &"host");
        assert!(t.longest_match(host.network() + 1).is_none());
    }

    #[test]
    fn covering_matches_walks_least_specific_first() {
        let mut t = PrefixTrie::new();
        t.insert(Ipv4Prefix::DEFAULT, 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        let chain: Vec<(Ipv4Prefix, i32)> = t
            .covering_matches(p("10.1.0.0/16"))
            .into_iter()
            .map(|(k, &v)| (k, v))
            .collect();
        assert_eq!(
            chain,
            vec![
                (Ipv4Prefix::DEFAULT, 0),
                (p("10.0.0.0/8"), 8),
                (p("10.1.0.0/16"), 16),
            ]
        );
        assert!(t.covering_matches(p("192.168.0.0/16")).len() == 1); // default only
    }

    #[test]
    fn covering_matches_agrees_with_linear_scan() {
        let prefixes = [
            p("0.0.0.0/0"),
            p("10.0.0.0/8"),
            p("10.0.0.0/16"),
            p("10.0.128.0/17"),
            p("192.168.0.0/16"),
            p("192.168.1.0/24"),
        ];
        let mut t = PrefixTrie::new();
        for (i, &prefix) in prefixes.iter().enumerate() {
            t.insert(prefix, i);
        }
        for query in [
            "10.0.128.0/20",
            "10.0.0.0/8",
            "192.168.1.64/26",
            "8.8.8.0/24",
        ] {
            let q = p(query);
            let expected: Vec<(Ipv4Prefix, usize)> = {
                let mut covering: Vec<(Ipv4Prefix, usize)> = prefixes
                    .iter()
                    .enumerate()
                    .filter(|(_, pre)| pre.contains(q))
                    .map(|(i, &pre)| (pre, i))
                    .collect();
                covering.sort_by_key(|(pre, _)| pre.len());
                covering
            };
            let got: Vec<(Ipv4Prefix, usize)> = t
                .covering_matches(q)
                .into_iter()
                .map(|(k, &v)| (k, v))
                .collect();
            assert_eq!(got, expected, "query {query}");
        }
    }

    #[test]
    fn iter_yields_all_entries() {
        let entries = [
            (p("0.0.0.0/0"), 0),
            (p("10.0.0.0/8"), 1),
            (p("10.128.0.0/9"), 2),
        ];
        let t: PrefixTrie<i32> = entries.into_iter().collect();
        let got: Vec<(Ipv4Prefix, i32)> = t.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got.len(), 3);
        for e in entries {
            assert!(got.contains(&e));
        }
    }

    /// The eager recursive walk `iter` replaced: the reference order.
    fn reference_walk<'a, T>(
        t: &'a PrefixTrie<T>,
        idx: u32,
        addr: u32,
        depth: u8,
        out: &mut Vec<(Ipv4Prefix, &'a T)>,
    ) {
        let node = &t.nodes[idx as usize];
        if let Some(v) = node.value.as_ref() {
            out.push((Ipv4Prefix::new(addr, depth), v));
        }
        if depth == 32 {
            return;
        }
        if node.children[0] != NIL {
            reference_walk(t, node.children[0], addr, depth + 1, out);
        }
        if node.children[1] != NIL {
            let right = addr | (1 << (31 - depth));
            reference_walk(t, node.children[1], right, depth + 1, out);
        }
    }

    fn assert_iter_matches_reference<T: PartialEq + std::fmt::Debug>(t: &PrefixTrie<T>) {
        let mut expected = Vec::new();
        reference_walk(t, ROOT, 0, 0, &mut expected);
        let iter = t.iter();
        assert_eq!(iter.len(), t.len());
        assert_eq!(iter.collect::<Vec<_>>(), expected);
    }

    proptest::proptest! {
        #[test]
        fn iter_matches_recursive_walk(
            ops in proptest::prop::collection::vec((0u8..3, 0u32..48, 0u8..=32, proptest::arbitrary::any::<bool>()), 0..200),
        ) {
            // Networks drawn from few leading-bit patterns (and their
            // complements, for deep right-hand paths) so that inserts share
            // stems and removals hit stored prefixes.
            let mut t = PrefixTrie::new();
            for (i, (op, x, len, flip)) in ops.into_iter().enumerate() {
                let network = if flip { !x.reverse_bits() } else { x.reverse_bits() };
                let prefix = Ipv4Prefix::new(network, len);
                if op == 0 {
                    t.remove(prefix);
                } else {
                    t.insert(prefix, i);
                }
                if i % 16 == 0 {
                    assert_iter_matches_reference(&t);
                }
            }
            assert_iter_matches_reference(&t);
        }
    }

    #[test]
    fn iter_survives_the_deepest_pending_stack() {
        // A left spine from /1 to /31 with a right sibling at every depth,
        // ending in both /32s: the walk holds all 33 pending at once.
        let mut t = PrefixTrie::new();
        for depth in 1..=32u8 {
            t.insert(Ipv4Prefix::new(1 << (32 - depth), depth), depth);
        }
        t.insert(Ipv4Prefix::new(0, 32), 0);
        assert_iter_matches_reference(&t);
        assert_eq!(t.iter().next(), Some((Ipv4Prefix::new(0, 32), &0)));

        let mut all_ones = PrefixTrie::new();
        for depth in 0..=32u8 {
            all_ones.insert(Ipv4Prefix::new(u32::MAX, depth), depth);
            all_ones.insert(Ipv4Prefix::new(0, depth), depth);
        }
        assert_iter_matches_reference(&all_ones);
    }

    #[test]
    fn get_mut_changes_the_value_in_place() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        *t.get_mut(p("10.1.0.0/16")).unwrap() += 40;
        assert_eq!(t.get(p("10.1.0.0/16")), Some(&42));
        assert_eq!(t.get_mut(p("10.0.0.0/9")), None, "path node, no value");
        assert_eq!(t.get_mut(p("11.0.0.0/8")), None, "no path");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn matches_linear_scan_reference() {
        // Differential check against a brute-force implementation.
        let prefixes = [
            p("0.0.0.0/0"),
            p("10.0.0.0/8"),
            p("10.0.0.0/16"),
            p("10.0.128.0/17"),
            p("192.168.0.0/16"),
            p("192.168.1.0/24"),
            p("192.168.1.128/25"),
        ];
        let mut t = PrefixTrie::new();
        for (i, &prefix) in prefixes.iter().enumerate() {
            t.insert(prefix, i);
        }
        let probes = [
            "10.0.0.1/32",
            "10.0.200.1/32",
            "10.9.9.9/32",
            "192.168.1.200/32",
            "192.168.1.1/32",
            "192.168.2.1/32",
            "8.8.8.8/32",
        ];
        for probe in probes {
            let addr = p(probe).network();
            let expected = prefixes
                .iter()
                .enumerate()
                .filter(|(_, pre)| pre.contains(p(probe)))
                .max_by_key(|(_, pre)| pre.len())
                .map(|(i, &pre)| (pre, i));
            let got = t.longest_match(addr).map(|(pre, &i)| (pre, i));
            assert_eq!(got, expected, "probe {probe}");
        }
    }
}
