//! AS paths.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::ParseAsPathError;
use crate::Asn;

/// One segment of an AS path.
///
/// BGP-4 AS paths are lists of segments. A `Sequence` segment is an ordered
/// list of the ASes a route traversed; a `Set` segment is an unordered
/// collection produced by route aggregation (footnote 1 of the paper: "in the
/// case of route aggregation, an element in the AS path may include a set of
/// ASes").
///
/// This is the type a path is built from ([`AsPath::from_segments`]); a
/// built path hands its segments out as borrowed views
/// ([`AsPath::segments`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// An ordered `AS_SEQUENCE` of traversed ASes, most recent first.
    Sequence(Vec<Asn>),
    /// An unordered `AS_SET` produced by aggregation.
    Set(Vec<Asn>),
}

/// The kind of an AS path segment, as [`AsPath::segments`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// An ordered `AS_SEQUENCE`.
    Sequence,
    /// An unordered `AS_SET`.
    Set,
}

impl AsPathSegment {
    /// The ASes in this segment, in stored order.
    #[must_use]
    pub fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
        }
    }

    /// Whether this is a sequence or a set.
    #[must_use]
    pub fn kind(&self) -> SegmentKind {
        match self {
            AsPathSegment::Sequence(_) => SegmentKind::Sequence,
            AsPathSegment::Set(_) => SegmentKind::Set,
        }
    }

    /// Returns `true` if the segment mentions `asn`.
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns().contains(&asn)
    }

    fn view(&self) -> (SegmentKind, &[Asn]) {
        (self.kind(), self.asns())
    }
}

/// A BGP AS path attribute.
///
/// The first AS in the path is the neighbor the route was learned from; the
/// last is the **origin AS** that announced the prefix into BGP. An AS path of
/// `10 2 3` for prefix `d` means "AS 10 learned the path from AS 2, AS 2
/// learned it from AS 3, and AS 3 originated the route to `d`" (§1.1).
///
/// # Example
///
/// ```
/// use bgp_types::{AsPath, Asn};
///
/// let mut path = AsPath::origination(Asn(4));
/// path.prepend(Asn(700)); // AS 700 propagates the route
/// assert_eq!(path.origin(), Some(Asn(4)));
/// assert_eq!(path.first(), Some(Asn(700)));
/// assert_eq!(path.hop_len(), 2);
/// assert!(path.contains(Asn(4)));
/// ```
///
/// A pure `AS_SEQUENCE` of up to 11 ASNs — nearly every path a
/// simulation builds — is stored inside the value, so building, prepending
/// and cloning it allocate nothing. A longer path, or one with an `AS_SET`,
/// keeps its segments on the heap. Each path has exactly one of the two
/// forms, so equality and hashing, which see the segments alone, cannot
/// tell how a path was built.
///
/// Beside its ASNs a path keeps a one-word summary of them: its
/// [selection length](AsPath::selection_len) and a 48-bit filter with one
/// bit set per member ASN. Every constructor and [`AsPath::prepend`] keep it
/// current, so the decision process and the loop check read the summary and
/// look at the ASNs only when the filter's bit is set.
#[derive(Clone, Default)]
pub struct AsPath {
    /// The low [`LEN_BITS`] bits: [`AsPath::selection_len`], saturated at
    /// [`LEN_MASK`]. The high bits: the union of [`member_bit`] over every
    /// ASN of every segment.
    summary: u64,
    repr: Repr,
}

/// The longest `AS_SEQUENCE` an [`AsPath`] holds inline. Of ~680k routes
/// exported over five originations on a 70k-AS scale-free graph, 99.93% had
/// at most 11 ASNs (the longest had 13); 11 also fills the value's last
/// word.
const INLINE: usize = 11;

/// How a path stores its ASNs.
#[derive(Clone)]
enum Repr {
    /// A pure `AS_SEQUENCE` of `len <= INLINE` ASNs, neighbor first, in
    /// `asns[..len]`; `len == 0` is the empty path.
    Inline { len: u8, asns: [Asn; INLINE] },
    /// Canonical segments for every other path: non-empty, no two adjacent
    /// sequences, and more than [`INLINE`] ASNs or at least one set.
    Spilled(Vec<AsPathSegment>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline {
            len: 0,
            asns: [Asn(0); INLINE],
        }
    }
}

impl Repr {
    /// The form of canonical `segments`.
    fn of_segments(segments: Vec<AsPathSegment>) -> Repr {
        match segments.as_slice() {
            [] => Repr::default(),
            [AsPathSegment::Sequence(seq)] if seq.len() <= INLINE => {
                let mut asns = [Asn(0); INLINE];
                asns[..seq.len()].copy_from_slice(seq);
                Repr::Inline {
                    len: seq.len() as u8,
                    asns,
                }
            }
            _ => Repr::Spilled(segments),
        }
    }
}

/// The summary word and an inline sequence's eleven ASNs fill seven words.
const _: () = assert!(std::mem::size_of::<AsPath>() == 56);

/// Bits of the summary that hold the selection length.
const LEN_BITS: u32 = 16;
/// The selection length's field, and its saturated value: a path that long
/// counts its segments again when asked.
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;

/// The filter bit of `asn`: a multiplicative hash whose top bits are scaled
/// onto the 48 bits above the length, so ASNs numbered densely from 1
/// spread over all of them.
fn member_bit(asn: Asn) -> u64 {
    let hash = u64::from(asn.0.wrapping_mul(0x9E37_79B9));
    1 << (u64::from(LEN_BITS) + ((hash * 48) >> 32))
}

impl AsPath {
    /// The empty AS path (a route announced inside its own AS).
    #[must_use]
    pub fn new() -> Self {
        AsPath::default()
    }

    /// The path carried by a freshly originated route: a single-element
    /// sequence holding the origin AS, as in Figure 1 of the paper.
    #[must_use]
    pub fn origination(origin: Asn) -> Self {
        AsPath::new().prepended(origin)
    }

    /// Builds a pure-`AS_SEQUENCE` path from neighbor-first order.
    #[must_use]
    pub fn from_sequence<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        let mut asns = asns.into_iter();
        let mut head = [Asn(0); INLINE];
        for (len, place) in head.iter_mut().enumerate() {
            match asns.next() {
                Some(asn) => *place = asn,
                None => {
                    let len = len as u8;
                    return AsPath::summarised(Repr::Inline { len, asns: head });
                }
            }
        }
        let repr = match asns.next() {
            None => Repr::Inline {
                len: INLINE as u8,
                asns: head,
            },
            Some(next) => {
                let mut seq = head.to_vec();
                seq.push(next);
                seq.extend(asns);
                Repr::Spilled(vec![AsPathSegment::Sequence(seq)])
            }
        };
        AsPath::summarised(repr)
    }

    /// Builds a path from explicit segments.
    ///
    /// The result is canonical: empty segments are dropped and adjacent
    /// `AS_SEQUENCE` segments are merged, since they are semantically one
    /// sequence.
    #[must_use]
    pub fn from_segments<I: IntoIterator<Item = AsPathSegment>>(segments: I) -> Self {
        let mut out: Vec<AsPathSegment> = Vec::new();
        for segment in segments.into_iter().filter(|s| !s.asns().is_empty()) {
            match (out.last_mut(), segment) {
                (Some(AsPathSegment::Sequence(tail)), AsPathSegment::Sequence(next)) => {
                    tail.extend(next);
                }
                (_, segment) => out.push(segment),
            }
        }
        AsPath::summarised(Repr::of_segments(out))
    }

    /// A path stored as `repr`, with its summary computed.
    fn summarised(repr: Repr) -> Self {
        let mut path = AsPath { summary: 0, repr };
        let len = u64::try_from(path.count_selection_len()).map_or(LEN_MASK, |n| n.min(LEN_MASK));
        path.summary = path.iter().fold(len, |bits, asn| bits | member_bit(asn));
        path
    }

    /// Updates the summary for `asn` prepended as one more hop.
    fn note_prepended(&mut self, asn: Asn) {
        let len = ((self.summary & LEN_MASK) + 1).min(LEN_MASK);
        self.summary = (self.summary & !LEN_MASK) | len | member_bit(asn);
    }

    /// The segments of the path, in order, as `(kind, members)` views. The
    /// empty path has none.
    pub fn segments(&self) -> impl Iterator<Item = (SegmentKind, &[Asn])> + '_ {
        let (inline, spilled): (&[Asn], &[AsPathSegment]) = match &self.repr {
            Repr::Inline { len, asns } => (&asns[..usize::from(*len)], &[]),
            Repr::Spilled(segments) => (&[], segments),
        };
        let inline = (!inline.is_empty()).then_some((SegmentKind::Sequence, inline));
        inline
            .into_iter()
            .chain(spilled.iter().map(AsPathSegment::view))
    }

    /// Returns `true` for the empty path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        matches!(self.repr, Repr::Inline { len: 0, .. })
    }

    /// The **origin AS**: the last AS of the last `AS_SEQUENCE` segment.
    ///
    /// Returns `None` for an empty path, or when the path ends in an `AS_SET`
    /// (an aggregate has no single well-defined origin; §1.1 footnote 1). The
    /// MOAS definition in the paper compares exactly these origins: prefixes
    /// with paths `(p1..pn)` and `(q1..qm)` form a MOAS when `pn != qm`.
    #[must_use]
    pub fn origin(&self) -> Option<Asn> {
        match &self.repr {
            Repr::Inline { len, asns } => asns[..usize::from(*len)].last().copied(),
            Repr::Spilled(segments) => match segments.last()? {
                AsPathSegment::Sequence(v) => v.last().copied(),
                AsPathSegment::Set(_) => None,
            },
        }
    }

    /// The first (most recently prepended) AS, i.e. the neighbor a receiver
    /// learned the route from.
    #[must_use]
    pub fn first(&self) -> Option<Asn> {
        match &self.repr {
            Repr::Inline { len, asns } => asns[..usize::from(*len)].first().copied(),
            Repr::Spilled(segments) => segments.first()?.asns().first().copied(),
        }
    }

    /// Prepends an AS, as done by each AS that propagates the route to an
    /// external peer.
    pub fn prepend(&mut self, asn: Asn) {
        match &mut self.repr {
            Repr::Inline { len, asns } if usize::from(*len) < INLINE => {
                asns.copy_within(..usize::from(*len), 1);
                asns[0] = asn;
                *len += 1;
            }
            Repr::Inline { asns, .. } => {
                let mut grown = Vec::with_capacity(INLINE + 1);
                grown.push(asn);
                grown.extend_from_slice(asns);
                self.repr = Repr::Spilled(vec![AsPathSegment::Sequence(grown)]);
            }
            Repr::Spilled(segments) => match segments.first_mut() {
                Some(AsPathSegment::Sequence(v)) => v.insert(0, asn),
                _ => segments.insert(0, AsPathSegment::Sequence(vec![asn])),
            },
        }
        self.note_prepended(asn);
    }

    /// Returns a copy of the path with `asn` prepended: [`AsPath::prepend`]
    /// on a clone. An inline path is copied by value; a spilled one has its
    /// grown leading sequence allocated once at its final size.
    #[must_use]
    pub fn prepended(&self, asn: Asn) -> Self {
        let Repr::Spilled(old) = &self.repr else {
            let mut path = self.clone();
            path.prepend(asn);
            return path;
        };
        let mut segments = Vec::with_capacity(old.len() + 1);
        let rest = match old.split_first() {
            Some((AsPathSegment::Sequence(head), rest)) => {
                let mut grown = Vec::with_capacity(head.len() + 1);
                grown.push(asn);
                grown.extend_from_slice(head);
                segments.push(AsPathSegment::Sequence(grown));
                rest
            }
            _ => {
                segments.push(AsPathSegment::Sequence(vec![asn]));
                old.as_slice()
            }
        };
        segments.extend_from_slice(rest);
        let mut path = AsPath {
            summary: self.summary,
            repr: Repr::Spilled(segments),
        };
        path.note_prepended(asn);
        path
    }

    /// Path length used by the BGP decision process: each `AS_SEQUENCE`
    /// element counts 1 and each `AS_SET` segment counts 1 in total (RFC 4271
    /// §9.1.2.2 semantics). Read from the path's summary unless the path
    /// is too long for it.
    #[must_use]
    pub fn selection_len(&self) -> usize {
        match self.summary & LEN_MASK {
            LEN_MASK => self.count_selection_len(),
            len => len as usize,
        }
    }

    /// [`AsPath::selection_len`] counted from the segments.
    fn count_selection_len(&self) -> usize {
        let lens = self.segments().map(|(kind, asns)| match kind {
            SegmentKind::Sequence => asns.len(),
            SegmentKind::Set => 1,
        });
        lens.sum()
    }

    /// Total number of AS hops mentioned, counting every member of every
    /// segment. Useful for statistics, not for route selection.
    #[must_use]
    pub fn hop_len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Spilled(segments) => segments.iter().map(|s| s.asns().len()).sum(),
        }
    }

    /// Returns `true` if the path mentions `asn` anywhere.
    ///
    /// This is BGP's loop-prevention check: an AS rejects routes whose path
    /// already contains its own number. A clear bit in the member filter
    /// answers `false` without looking at the ASNs.
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.summary & member_bit(asn) != 0
            && match &self.repr {
                Repr::Inline { len, asns } => asns[..usize::from(*len)].contains(&asn),
                Repr::Spilled(segments) => segments.iter().any(|s| s.contains(asn)),
            }
    }

    /// Iterates over every AS mentioned, in path order.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments().flat_map(|(_, asns)| asns.iter().copied())
    }

    /// Consecutive `(left, right)` pairs of a pure-sequence path: the peering
    /// edges this route reveals. This is exactly the inference the paper's §5.1
    /// applies to Route Views tables ("if a route has AS path 10 6453 4621 we
    /// consider AS 6453 to have two BGP peers").
    ///
    /// Pairs are only produced inside `AS_SEQUENCE` segments and across
    /// sequence-sequence boundaries; `AS_SET` members reveal no ordered
    /// adjacency and are skipped.
    #[must_use]
    pub fn adjacent_pairs(&self) -> Vec<(Asn, Asn)> {
        let mut pairs = Vec::new();
        let mut prev: Option<Asn> = None;
        for (kind, asns) in self.segments() {
            match kind {
                SegmentKind::Sequence => {
                    for &asn in asns {
                        if let Some(p) = prev {
                            if p != asn {
                                pairs.push((p, asn));
                            }
                        }
                        prev = Some(asn);
                    }
                }
                SegmentKind::Set => prev = None,
            }
        }
        pairs
    }

    /// The ASes strictly between the first and the origin in a pure-sequence
    /// path — the transit ASes this route reveals (§5.1).
    #[must_use]
    pub fn transit_asns(&self) -> Vec<Asn> {
        let flat: Vec<Asn> = self.iter().collect();
        if flat.len() <= 2 {
            Vec::new()
        } else {
            flat[1..flat.len() - 1].to_vec()
        }
    }
}

impl PartialEq for AsPath {
    fn eq(&self, other: &Self) -> bool {
        // The summary is a function of the segments: comparing it first
        // settles most unequal pairs without reading the ASNs.
        self.summary == other.summary && self.segments().eq(other.segments())
    }
}

impl Eq for AsPath {}

impl Hash for AsPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.segments().count());
        for (kind, asns) in self.segments() {
            kind.hash(state);
            asns.hash(state);
        }
    }
}

/// Debug-formats a path's segments as the list of [`AsPathSegment`]s they
/// would be built from.
struct SegmentsDebug<'a>(&'a AsPath);

/// One segment of a [`SegmentsDebug`], formatted as its [`AsPathSegment`].
struct SegmentDebug<'a>(SegmentKind, &'a [Asn]);

impl fmt::Debug for SegmentsDebug<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let segments = self.0.segments();
        f.debug_list()
            .entries(segments.map(|(kind, asns)| SegmentDebug(kind, asns)))
            .finish()
    }
}

impl fmt::Debug for SegmentDebug<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.0 {
            SegmentKind::Sequence => "Sequence",
            SegmentKind::Set => "Set",
        };
        f.debug_tuple(name).field(&self.1).finish()
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsPath")
            .field("segments", &SegmentsDebug(self))
            .finish()
    }
}

impl fmt::Display for AsPath {
    /// Formats like a looking-glass: `701 1239 4621`, with sets in braces:
    /// `701 {4621 4622}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (kind, asns) in self.segments() {
            match kind {
                SegmentKind::Sequence => {
                    for asn in asns {
                        if !first {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", asn.0)?;
                        first = false;
                    }
                }
                SegmentKind::Set => {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "{{")?;
                    for (i, asn) in asns.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", asn.0)?;
                    }
                    write!(f, "}}")?;
                    first = false;
                }
            }
        }
        Ok(())
    }
}

impl FromStr for AsPath {
    type Err = ParseAsPathError;

    /// Parses the looking-glass format produced by [`fmt::Display`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAsPathError {
            input: s.to_owned(),
        };
        let mut segments = Vec::new();
        let mut seq: Vec<Asn> = Vec::new();
        let mut rest = s.trim();
        while !rest.is_empty() {
            if let Some(after) = rest.strip_prefix('{') {
                if !seq.is_empty() {
                    segments.push(AsPathSegment::Sequence(std::mem::take(&mut seq)));
                }
                let (inside, tail) = after.split_once('}').ok_or_else(err)?;
                let set: Result<Vec<Asn>, _> =
                    inside.split_whitespace().map(str::parse::<Asn>).collect();
                let set = set.map_err(|_| err())?;
                if set.is_empty() {
                    return Err(err());
                }
                segments.push(AsPathSegment::Set(set));
                rest = tail.trim_start();
            } else {
                let (token, tail) = match rest.split_once(char::is_whitespace) {
                    Some((t, rest)) => (t, rest.trim_start()),
                    None => (rest, ""),
                };
                if token.starts_with('}') {
                    return Err(err());
                }
                seq.push(token.parse::<Asn>().map_err(|_| err())?);
                rest = tail;
            }
        }
        if !seq.is_empty() {
            segments.push(AsPathSegment::Sequence(seq));
        }
        // Sets are never empty and a sequence is cut only by a set, so the
        // segments are already canonical.
        Ok(AsPath::summarised(Repr::of_segments(segments)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    #[test]
    fn origination_has_single_origin() {
        let p = AsPath::origination(Asn(4));
        assert_eq!(p.origin(), Some(Asn(4)));
        assert_eq!(p.first(), Some(Asn(4)));
        assert_eq!(p.selection_len(), 1);
    }

    #[test]
    fn prepend_builds_neighbor_first_order() {
        let mut p = AsPath::origination(Asn(3));
        p.prepend(Asn(2));
        p.prepend(Asn(10));
        assert_eq!(p.to_string(), "10 2 3");
        assert_eq!(p.origin(), Some(Asn(3)));
        assert_eq!(p.first(), Some(Asn(10)));
    }

    #[test]
    fn prepend_on_empty_path_creates_sequence() {
        let mut p = AsPath::new();
        p.prepend(Asn(9));
        assert_eq!(p.origin(), Some(Asn(9)));
    }

    #[test]
    fn prepend_after_leading_set_adds_new_segment() {
        let mut p = AsPath::from_segments([AsPathSegment::Set(vec![Asn(1), Asn(2)])]);
        p.prepend(Asn(7));
        assert_eq!(p.segments().count(), 2);
        assert_eq!(p.first(), Some(Asn(7)));
    }

    #[test]
    fn prepended_is_prepend_on_a_clone() {
        // Leading sequence, leading set, sequence after which a set follows,
        // and the empty path.
        for s in ["701 1239 4621", "{1 2} 3", "701 {4 226}", ""] {
            let mut expected = path(s);
            expected.prepend(Asn(7));
            assert_eq!(path(s).prepended(Asn(7)), expected, "prepending to {s:?}");
        }
    }

    #[test]
    fn origin_of_aggregate_is_none_but_possible_origins_listed() {
        let p = AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(701)]),
            AsPathSegment::Set(vec![Asn(4), Asn(226)]),
        ]);
        assert_eq!(p.origin(), None);
        assert_eq!(
            p.segments().last(),
            Some((SegmentKind::Set, &[Asn(4), Asn(226)][..]))
        );
    }

    #[test]
    fn selection_len_survives_saturating_the_summary() {
        // A sequence too long for the summary's length field, then a set:
        // the length is counted again, and a prepend keeps it exact.
        let long = (1..=70_000).map(Asn);
        let mut p = AsPath::from_segments([
            AsPathSegment::Sequence(long.collect()),
            AsPathSegment::Set(vec![Asn(1), Asn(2)]),
        ]);
        assert_eq!(p.selection_len(), 70_001);
        p.prepend(Asn(9));
        assert_eq!(p.selection_len(), 70_002);
        assert!(p.contains(Asn(69_999)));
    }

    #[test]
    fn selection_len_counts_sets_once() {
        let p = AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
            AsPathSegment::Set(vec![Asn(3), Asn(4), Asn(5)]),
        ]);
        assert_eq!(p.selection_len(), 3);
        assert_eq!(p.hop_len(), 5);
    }

    #[test]
    fn loop_detection_contains() {
        let p = path("6453 1239 4621");
        assert!(p.contains(Asn(1239)));
        assert!(!p.contains(Asn(7007)));
    }

    #[test]
    fn adjacent_pairs_matches_paper_inference() {
        // Paper §5.1: path "10 6453 4621" ⇒ 6453 peers with 1239... our example:
        let p = path("10 6453 4621");
        assert_eq!(
            p.adjacent_pairs(),
            vec![(Asn(10), Asn(6453)), (Asn(6453), Asn(4621))]
        );
        assert_eq!(p.transit_asns(), vec![Asn(6453)]);
    }

    #[test]
    fn adjacent_pairs_skips_prepending_duplicates_and_sets() {
        let p = path("10 10 20 {30 40} 50");
        assert_eq!(p.adjacent_pairs(), vec![(Asn(10), Asn(20))]);
    }

    #[test]
    fn display_parse_round_trip() {
        for s in ["", "4", "701 1239 4621", "701 {4 226}", "{1 2} 3 {4}"] {
            let p = path(s);
            assert_eq!(path(&p.to_string()), p, "round-trip failed for {s:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("70x 1".parse::<AsPath>().is_err());
        assert!("{1 2".parse::<AsPath>().is_err());
        assert!("1 } 2".parse::<AsPath>().is_err());
        assert!("{}".parse::<AsPath>().is_err());
    }

    #[test]
    fn empty_path_properties() {
        let p = AsPath::new();
        assert!(p.is_empty());
        assert_eq!(p.origin(), None);
        assert_eq!(p.first(), None);
        assert_eq!(p.selection_len(), 0);
        assert!(p.adjacent_pairs().is_empty());
    }

    #[test]
    fn from_sequence_of_empty_is_empty() {
        assert!(AsPath::from_sequence([]).is_empty());
    }
}
