//! The MOAS list: the paper's core data structure.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::Asn;

/// Members a list holds without a heap allocation. 96.14% of the paper's
/// §3 MOAS cases have exactly two origins.
const INLINE: usize = 2;

/// The set of ASes entitled to originate a particular prefix (§4.1).
///
/// Every AS that legitimately originates a multi-origin prefix attaches an
/// *identical* MOAS list to its announcements; a [`Route`](crate::Route)
/// holds it as a field, and `bgp_wire` carries it as one community per
/// member (§4.2). Receivers compare the lists from
/// different announcements **as sets** — "the order in the list may differ,
/// but the set of ASes included in each route announcement must be identical"
/// (§4.2) — and raise an alarm on any inconsistency.
///
/// The members are kept sorted and free of duplicates, so equality *is* the
/// paper's consistency check. Up to two members live inline; a longer list
/// spills to one exactly-sized heap slice. Equality, ordering, hashing,
/// iteration and formatting all read the sorted members, so they behave
/// exactly as an ordered set of the same ASNs would.
///
/// # Example
///
/// ```
/// use bgp_types::{Asn, MoasList};
///
/// let from_as1: MoasList = [Asn(1), Asn(2)].into_iter().collect();
/// let from_as2: MoasList = [Asn(2), Asn(1)].into_iter().collect();
/// assert_eq!(from_as1, from_as2); // order-insensitive
///
/// let forged: MoasList = [Asn(1), Asn(2), Asn(666)].into_iter().collect();
/// assert_ne!(from_as1, forged); // inconsistency ⇒ alarm
/// ```
#[derive(Clone)]
pub struct MoasList {
    members: Members,
}

/// The storage behind a [`MoasList`]: strictly ascending ASNs, inline
/// exactly when there are at most [`INLINE`] of them.
#[derive(Clone)]
enum Members {
    /// `asns[..len]` are the members; the rest of the array is unused.
    Inline { len: u8, asns: [Asn; INLINE] },
    /// More than [`INLINE`] members.
    Spilled(Box<[Asn]>),
}

// Every node of the daemon's `PrefixTrie` holds an `Option<MoasList>`:
// keeping both at three words keeps a node at 32 bytes.
const _: () = assert!(std::mem::size_of::<MoasList>() <= 24);
const _: () = assert!(std::mem::size_of::<Option<MoasList>>() <= 24);

impl Members {
    const EMPTY: Members = Members::Inline {
        len: 0,
        asns: [Asn(0); INLINE],
    };

    fn as_slice(&self) -> &[Asn] {
        match self {
            Members::Inline { len, asns } => &asns[..usize::from(*len)],
            Members::Spilled(asns) => asns,
        }
    }

    /// Storage for strictly ascending `asns`: inline when they fit, else
    /// the vector's own buffer (not copied when it is exactly sized).
    fn from_sorted(asns: Vec<Asn>) -> Members {
        if asns.len() <= INLINE {
            let mut inline = [Asn(0); INLINE];
            inline[..asns.len()].copy_from_slice(&asns);
            Members::Inline {
                len: asns.len() as u8,
                asns: inline,
            }
        } else {
            Members::Spilled(asns.into_boxed_slice())
        }
    }
}

impl MoasList {
    /// The empty list.
    #[must_use]
    pub fn new() -> Self {
        MoasList {
            members: Members::EMPTY,
        }
    }

    /// The implicit list of a route that carries no MOAS communities.
    ///
    /// Footnote 3 of the paper: "if a route does not contain a MOAS list, it
    /// will be treated as if it carries a MOAS list containing the origin AS."
    #[must_use]
    pub fn implicit(origin: Asn) -> Self {
        MoasList {
            members: Members::Inline {
                len: 1,
                asns: [origin; INLINE],
            },
        }
    }

    fn as_slice(&self) -> &[Asn] {
        self.members.as_slice()
    }

    /// Adds a member, returning `true` if it was newly inserted. Growing a
    /// list to at most two members allocates nothing.
    pub fn insert(&mut self, asn: Asn) -> bool {
        let Err(at) = self.as_slice().binary_search(&asn) else {
            return false;
        };
        match &mut self.members {
            Members::Inline { len, asns } if usize::from(*len) < INLINE => {
                asns.copy_within(at..usize::from(*len), at + 1);
                asns[at] = asn;
                *len += 1;
            }
            Members::Inline { asns, .. } => {
                let mut spilled = Vec::with_capacity(INLINE + 1);
                spilled.extend_from_slice(asns);
                spilled.insert(at, asn);
                self.members = Members::Spilled(spilled.into_boxed_slice());
            }
            Members::Spilled(asns) => {
                // One exact `realloc`, which small lists usually get in place.
                let mut grown = std::mem::take(asns).into_vec();
                grown.reserve_exact(1);
                grown.insert(at, asn);
                *asns = grown.into_boxed_slice();
            }
        }
        true
    }

    /// Removes a member, returning `true` if it was present.
    pub fn remove(&mut self, asn: Asn) -> bool {
        let Ok(at) = self.as_slice().binary_search(&asn) else {
            return false;
        };
        match &mut self.members {
            Members::Inline { len, asns } => {
                asns.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            Members::Spilled(asns) => {
                let mut rest = std::mem::take(asns).into_vec();
                rest.remove(at);
                self.members = Members::from_sorted(rest);
            }
        }
        true
    }

    /// Returns `true` if `asn` is entitled to originate the prefix.
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.as_slice().binary_search(&asn).is_ok()
    }

    /// Number of member ASes. The paper's measurements found 99% of MOAS
    /// cases involve 3 or fewer origins, so lists stay short in practice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` if the list has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Iterates over members in ascending ASN order.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.into_iter()
    }
}

impl Default for MoasList {
    fn default() -> Self {
        MoasList::new()
    }
}

/// Why two announcements for the same prefix conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// A route's origin AS is not a member of its own (effective) MOAS list.
    ///
    /// §4.1: "a faulty route's origin AS will not be in p's MOAS list" — the
    /// self-test form, detectable from a single announcement when the
    /// attacker copies the honest list verbatim without adding itself.
    OriginNotInList,
    /// Two announcements carry different MOAS list sets (§4.2: "the set of
    /// ASes included in each route announcement must be identical").
    InconsistentLists,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConflictKind::OriginNotInList => "origin AS not in its own MOAS list",
            ConflictKind::InconsistentLists => "inconsistent MOAS lists",
        })
    }
}

/// The effective list of an announcement as sorted members: its advertised
/// list, else the implicit `{origin}` (footnote 3), else nothing to check.
fn effective<'a>(origin: &'a Option<Asn>, list: Option<&'a MoasList>) -> Option<&'a [Asn]> {
    match list {
        Some(list) => Some(list.as_slice()),
        None => origin.as_ref().map(std::slice::from_ref),
    }
}

/// The §4.2 consistency check: the one place the paper's rule is written.
///
/// An announcement is its origin AS (`None` for an aggregate path) and the
/// MOAS list it carries (`None` when it carries none). The incoming
/// announcement first takes the self-test: an origin missing from its own
/// explicit list is faulty (§4.1). Then it is compared with each `held`
/// announcement in order, each tagged with a caller's key `K`: two
/// announcements conflict unless their effective lists — the explicit
/// list, or `{origin}` without one — are the same set. An announcement
/// with neither origin nor list cannot be checked and never conflicts. A
/// held announcement's origin is read only when it carries no list, so a
/// caller may leave it `None` then.
///
/// Returns the first conflict's kind, with the key of the held announcement
/// that caused it (`None` for the self-test). `held` is walked only up to
/// that conflict, and nothing is allocated.
///
/// # Example
///
/// ```
/// use bgp_types::{first_conflict, Asn, ConflictKind, MoasList};
///
/// let honest: MoasList = [Asn(1), Asn(2)].into_iter().collect();
/// let held = [("AS1's route", Some(Asn(1)), Some(&honest))];
/// // AS 2 announces the same list: consistent.
/// assert_eq!(first_conflict(Some(Asn(2)), Some(&honest), held), None);
/// // AS 3 announces with no list: implicit {3} differs from {1, 2}.
/// assert_eq!(
///     first_conflict(Some(Asn(3)), None, held),
///     Some((ConflictKind::InconsistentLists, Some("AS1's route")))
/// );
/// // AS 3 copies the honest list verbatim: it fails the self-test.
/// assert_eq!(
///     first_conflict(Some(Asn(3)), Some(&honest), held),
///     Some((ConflictKind::OriginNotInList, None))
/// );
/// ```
pub fn first_conflict<K, L, H>(
    origin: Option<Asn>,
    list: Option<&MoasList>,
    held: H,
) -> Option<(ConflictKind, Option<K>)>
where
    L: Borrow<MoasList>,
    H: IntoIterator<Item = (K, Option<Asn>, Option<L>)>,
{
    let incoming = effective(&origin, list)?;
    if let (Some(origin), Some(list)) = (origin, list) {
        if !list.contains(origin) {
            return Some((ConflictKind::OriginNotInList, None));
        }
    }
    for (key, held_origin, held_list) in held {
        let held_list = held_list.as_ref().map(Borrow::borrow);
        if effective(&held_origin, held_list).is_some_and(|held| held != incoming) {
            return Some((ConflictKind::InconsistentLists, Some(key)));
        }
    }
    None
}

impl PartialEq for MoasList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MoasList {}

impl PartialOrd for MoasList {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MoasList {
    /// Lexicographic over the ascending members, as for an ordered set.
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for MoasList {
    /// Hashes the length, then each member in ascending order: the same
    /// stream an ordered set of the members feeds the hasher.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for MoasList {
    /// Formats as `MoasList { members: {Asn(1), Asn(2)} }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Set<'a>(&'a [Asn]);
        impl fmt::Debug for Set<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        f.debug_struct("MoasList")
            .field("members", &Set(self.as_slice()))
            .finish()
    }
}

impl FromIterator<Asn> for MoasList {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> Self {
        let mut list = MoasList::new();
        list.extend(iter);
        list
    }
}

impl Extend<Asn> for MoasList {
    /// Up to two distinct members allocate nothing. Beyond that, everything
    /// is gathered in one buffer, sorted and deduplicated once, so a longer
    /// list built from an exact-size iterator costs one allocation.
    fn extend<I: IntoIterator<Item = Asn>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        let overflow = loop {
            match iter.next() {
                None => return,
                Some(asn) if self.contains(asn) => {}
                Some(asn) if self.len() < INLINE => {
                    self.insert(asn);
                }
                Some(asn) => break asn,
            }
        };
        let mut all = Vec::with_capacity(self.len() + 1 + iter.size_hint().0);
        all.extend_from_slice(self.as_slice());
        all.push(overflow);
        all.extend(iter);
        all.sort_unstable();
        all.dedup();
        self.members = Members::from_sorted(all);
    }
}

impl<'a> IntoIterator for &'a MoasList {
    type Item = Asn;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Asn>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

impl fmt::Display for MoasList {
    /// Formats as `{AS1, AS2}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, asn) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{asn}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_is_set_equality() {
        let a: MoasList = [Asn(1), Asn(2)].into_iter().collect();
        let b: MoasList = [Asn(2), Asn(1), Asn(2)].into_iter().collect();
        assert_eq!(a, b);
        let c: MoasList = [Asn(1)].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn implicit_list_contains_only_origin() {
        let l = MoasList::implicit(Asn(52));
        assert_eq!(l.len(), 1);
        assert!(l.contains(Asn(52)));
    }

    #[test]
    fn insert_remove_contains() {
        let mut l = MoasList::new();
        assert!(l.is_empty());
        assert!(l.insert(Asn(4)));
        assert!(!l.insert(Asn(4)));
        assert!(l.contains(Asn(4)));
        assert!(l.remove(Asn(4)));
        assert!(!l.remove(Asn(4)));
        assert!(l.is_empty());
    }

    #[test]
    fn display_is_sorted_and_nonempty() {
        let l: MoasList = [Asn(226), Asn(4)].into_iter().collect();
        assert_eq!(l.to_string(), "{AS4, AS226}");
        assert_eq!(MoasList::new().to_string(), "{}");
    }

    #[test]
    fn forged_superset_is_inconsistent() {
        // §4.1: attacker AS 3 attaches {1, 2, 3}; honest list is {1, 2}.
        let honest: MoasList = [Asn(1), Asn(2)].into_iter().collect();
        let forged: MoasList = [Asn(1), Asn(2), Asn(3)].into_iter().collect();
        assert_ne!(honest, forged);
    }

    #[test]
    fn first_conflict_is_the_papers_rule() {
        use ConflictKind::{InconsistentLists, OriginNotInList};
        type Announcement<'a> = (Option<u32>, Option<&'a [u32]>);
        let cases: [(&str, Announcement, Announcement, Option<ConflictKind>); 8] = [
            (
                "explicit-consistent across two origins",
                (Some(1), Some(&[1, 2])),
                (Some(2), Some(&[2, 1])),
                None,
            ),
            (
                "implicit, same origin twice",
                (Some(4), None),
                (Some(4), None),
                None,
            ),
            (
                "implicit, different origins (Figure 3)",
                (Some(52), None),
                (Some(4), None),
                Some(InconsistentLists),
            ),
            (
                "forged superset (§4.1)",
                (Some(3), Some(&[1, 2, 3])),
                (Some(1), Some(&[1, 2])),
                Some(InconsistentLists),
            ),
            (
                "verbatim copy fails the self-test",
                (Some(3), Some(&[1, 2])),
                (Some(1), Some(&[1, 2])),
                Some(OriginNotInList),
            ),
            (
                "same origin, implicit against explicit (§4.3 stripping)",
                (Some(1), None),
                (Some(1), Some(&[1, 2])),
                Some(InconsistentLists),
            ),
            (
                "same origin, two different explicit lists",
                (Some(1), Some(&[1, 2])),
                (Some(1), Some(&[1, 3])),
                Some(InconsistentLists),
            ),
            (
                "no origin and no list is uncheckable",
                (None, None),
                (Some(4), None),
                None,
            ),
        ];
        let list = |members: Option<&[u32]>| {
            members.map(|m| m.iter().map(|&a| Asn(a)).collect::<MoasList>())
        };
        for (case, (origin, members), (held_origin, held_members), expected) in cases {
            let incoming = list(members);
            let held = [("held", held_origin.map(Asn), list(held_members))];
            let got = first_conflict(origin.map(Asn), incoming.as_ref(), held);
            assert_eq!(got.map(|(kind, _)| kind), expected, "{case}");
            if let Some((kind, key)) = got {
                let blamed = (kind == InconsistentLists).then_some("held");
                assert_eq!(key, blamed, "{case}: conflicting entry");
            }
        }
    }

    #[test]
    fn storage_is_inline_up_to_two_members() {
        let inline = |l: &MoasList| matches!(l.members, Members::Inline { .. });
        let mut l: MoasList = [Asn(9), Asn(3), Asn(9)].into_iter().collect();
        assert!(inline(&l));
        l.insert(Asn(5));
        assert!(!inline(&l));
        assert_eq!(l.iter().collect::<Vec<_>>(), [Asn(3), Asn(5), Asn(9)]);
        l.remove(Asn(3));
        assert!(inline(&l), "shrinking to two members frees the spill");
        assert_eq!(l.iter().collect::<Vec<_>>(), [Asn(5), Asn(9)]);
    }
}
