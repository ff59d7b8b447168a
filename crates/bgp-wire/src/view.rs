//! The crate's one decoder: validated, borrowed views of BGP and MRT bytes.
//!
//! Each wire element — a prefix, an `AS_PATH` segment, a path attribute, a
//! capability, a peer, a RIB entry — has exactly one reader, a function
//! over a bounds-checked cursor that returns the element or a typed
//! [`WireError`] at its byte offset. Parsing a view is that reader run to
//! completion over every element, in a fixed order, reporting the first
//! failure. That order is part of the contract — a session buffers on
//! [`WireErrorKind::Truncated`] and a CLI prints the offset — and
//! `tests/view_props.rs` and `tests/msg_props.rs` pin it, kind and offset,
//! against a separate spec decoder written from the RFCs
//! (`tests/spec/mod.rs`). A view borrows the record's bytes and decodes
//! fields lazily, on access: once it exists, its iterators
//! ([`UpdateView::nlri`], [`RibView::entries`], [`AttrsView::path_asns`],
//! …) run the same readers again over the validated bytes, never panicking
//! and never allocating. The owned types are each view's `to_*` rebuild,
//! which is all [`UpdateMessage::decode`], [`Message::decode`] and
//! [`MrtViewReader::next_record`] do.
//!
//! Two companions complete the ingest path:
//!
//! * [`MrtViewReader`] — streams MRT records through one reusable buffer,
//!   exposing the timestamp before the body is parsed so callers can group
//!   by day without decoding;
//! * [`AttrInterner`] — hash-conses `AS_PATH` wire bytes into owned paths
//!   via [`bgp_types::Interner`], so a RIB dump that repeats the same path
//!   ten thousand times decodes it once.

use std::io;
use std::marker::PhantomData;

use bgp_types::{
    AsPath, AsPathSegment, Asn, Community, Interner, Ipv4Prefix, Ipv6Prefix, Route, RouteOrigin,
};

use crate::bgp::{
    prefix_octets, AsnEncoding, MpReach, MpUnreach, PathAttributes, UpdateMessage, AFI_IPV6,
    ATTR_AS_PATH, ATTR_COMMUNITIES, ATTR_LARGE_COMMUNITIES, ATTR_LOCAL_PREF, ATTR_MP_REACH_NLRI,
    ATTR_MP_UNREACH_NLRI, ATTR_NEXT_HOP, ATTR_ORIGIN, FLAG_EXTENDED_LENGTH, HEADER_LEN,
    MAX_MESSAGE_LEN, MAX_SEGMENT_ASNS, MESSAGE_TYPE_UPDATE, SAFI_UNICAST, SEGMENT_AS_SEQUENCE,
    SEGMENT_AS_SET,
};
use crate::community::{read_moas_list, LargeCommunity};
use crate::error::{WireError, WireErrorKind};
use crate::mrt::{
    Bgp4mpMessage, MrtBody, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
    RibIpv6Unicast, MAX_RECORD_LEN, SUBTYPE_BGP4MP_MESSAGE, SUBTYPE_BGP4MP_MESSAGE_AS4,
    SUBTYPE_PEER_INDEX_TABLE, SUBTYPE_RIB_IPV4_UNICAST, SUBTYPE_RIB_IPV6_UNICAST, TYPE_BGP4MP,
    TYPE_TABLE_DUMP_V2,
};
use crate::msg::{
    Capability, Message, NotificationMessage, OpenMessage, BGP_VERSION, CAP_FOUR_OCTET_AS,
    CAP_MULTIPROTOCOL, MESSAGE_TYPE_KEEPALIVE, MESSAGE_TYPE_NOTIFICATION, MESSAGE_TYPE_OPEN,
    MIN_NOTIFICATION_LEN, MIN_OPEN_LEN, PARAM_CAPABILITIES,
};

/// MRT `BGP4MP` address family identifier for IPv4, the only one decoded.
const AFI_IPV4: u16 = 1;

// ---------------------------------------------------------------------------
// The cursor and the element readers. The order of checks inside each reader
// fixes which error, at which offset, a malformed input reports.
// ---------------------------------------------------------------------------

/// What a failed read becomes. Validation runs each reader for the
/// [`WireError`] it reports; the iterators, accessors and rebuilds run the
/// same reader over bytes that already passed for [`Stop`], which carries
/// nothing, so that path never builds an error.
trait Failure {
    fn at(kind: WireErrorKind, offset: u64) -> Self;
}

impl Failure for WireError {
    fn at(kind: WireErrorKind, offset: u64) -> Self {
        WireError::new(kind, offset)
    }
}

/// The failure of a read over validated bytes: it only ends an iterator.
#[derive(Debug)]
struct Stop;

impl Failure for Stop {
    fn at(_: WireErrorKind, _: u64) -> Self {
        Stop
    }
}

/// A bounds-checked reader over a byte slice: the bytes not yet read, and
/// the absolute offset of the first of them for error reporting. A read
/// that fails returns an `E`.
#[derive(Debug)]
struct Cursor<'a, E = WireError> {
    bytes: &'a [u8],
    at: u64,
    failure: PhantomData<fn() -> E>,
}

impl<E> Clone for Cursor<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for Cursor<'_, E> {}

impl<'a, E: Failure> Cursor<'a, E> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor::starting_at(bytes, 0)
    }

    fn starting_at(bytes: &'a [u8], at: u64) -> Self {
        Cursor {
            bytes,
            at,
            failure: PhantomData,
        }
    }

    /// The same cursor, failing with an `F`.
    fn to<F: Failure>(self) -> Cursor<'a, F> {
        Cursor::starting_at(self.bytes, self.at)
    }

    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// The unread bytes as a cursor of their own, consuming them.
    fn rest(&mut self) -> Self {
        let rest = *self;
        self.bytes = &[];
        rest
    }

    /// The failure for `n` bytes wanted where fewer remain.
    fn short(&self, n: usize) -> E {
        E::at(
            WireErrorKind::Truncated {
                needed: n - self.remaining(),
            },
            self.at,
        )
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], E> {
        if self.remaining() < n {
            return Err(self.short(n));
        }
        let (slice, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        self.at += n as u64;
        Ok(slice)
    }

    /// Takes `n` bytes as a cursor of their own.
    fn sub(&mut self, n: usize) -> Result<Self, E> {
        let at = self.at;
        Ok(Cursor::starting_at(self.take(n)?, at))
    }

    fn u8(&mut self) -> Result<u8, E> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, E> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, E> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn asn(&mut self, encoding: AsnEncoding) -> Result<Asn, E> {
        Ok(Asn(match encoding {
            AsnEncoding::TwoOctet => u32::from(self.u16()?),
            AsnEncoding::FourOctet => self.u32()?,
        }))
    }
}

impl Cursor<'_> {
    /// Requires that every byte has been read.
    fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::new(
                WireErrorKind::TrailingBytes { remaining },
                self.at,
            )),
        }
    }

    /// Runs `read` until the bytes are used up: how a run of elements is
    /// validated.
    fn read_to_end<T>(
        mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<(), WireError> {
        while self.remaining() > 0 {
            read(&mut self)?;
        }
        Ok(())
    }

    /// Runs `read` `count` times, then requires the bytes used up: an error
    /// inside an element is reported before trailing bytes.
    fn read_exactly<T>(
        mut self,
        count: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<(), WireError> {
        for _ in 0..count {
            read(&mut self)?;
        }
        self.finish()
    }
}

impl Cursor<'_, Stop> {
    /// Runs `read` once for an iterator over validated bytes: `None` at the
    /// end, and on a misread (impossible on validated bytes), which also
    /// ends the iteration.
    fn next_item<T>(&mut self, read: impl FnOnce(&mut Self) -> Result<T, Stop>) -> Option<T> {
        if self.remaining() == 0 {
            return None;
        }
        let item = read(self);
        if item.is_err() {
            self.bytes = &[];
        }
        item.ok()
    }
}

/// An address family whose prefixes ride in `<length, prefix>` tuples.
trait Family: Copy {
    /// The longest valid prefix length.
    const MAX_BITS: u8;

    /// The prefix whose leading address octets are `octets`.
    fn from_octets(octets: &[u8], bits: u8) -> Option<Self>;
}

impl Family for Ipv4Prefix {
    const MAX_BITS: u8 = 32;

    fn from_octets(octets: &[u8], bits: u8) -> Option<Self> {
        let mut addr = [0u8; 4];
        addr.get_mut(..octets.len())?.copy_from_slice(octets);
        Ipv4Prefix::try_new(u32::from_be_bytes(addr), bits).ok()
    }
}

impl Family for Ipv6Prefix {
    const MAX_BITS: u8 = 128;

    fn from_octets(octets: &[u8], bits: u8) -> Option<Self> {
        let mut addr = [0u8; 16];
        addr.get_mut(..octets.len())?.copy_from_slice(octets);
        Ipv6Prefix::try_new(u128::from_be_bytes(addr), bits).ok()
    }
}

/// Reads one `<length, prefix>` tuple.
fn read_prefix<P: Family, E: Failure>(cur: &mut Cursor<'_, E>) -> Result<P, E> {
    let at = cur.at;
    let bits = cur.u8()?;
    let bad = || E::at(WireErrorKind::BadPrefixLength(bits), at);
    if bits > P::MAX_BITS {
        return Err(bad());
    }
    let octets = cur.take(prefix_octets(bits))?;
    P::from_octets(octets, bits).ok_or_else(bad)
}

/// Octets per ASN under `encoding`.
fn asn_width(encoding: AsnEncoding) -> usize {
    match encoding {
        AsnEncoding::TwoOctet => 2,
        AsnEncoding::FourOctet => 4,
    }
}

/// Reads one `AS_PATH` segment. Its type is checked only after its ASNs,
/// and a truncation is reported at the first ASN that does not fit, as
/// reading them one at a time would.
fn read_segment<'a, E: Failure>(
    cur: &mut Cursor<'a, E>,
    encoding: AsnEncoding,
) -> Result<AsPathSegmentView<'a>, E> {
    let at = cur.at;
    let seg_type = cur.u8()?;
    let width = asn_width(encoding);
    let len = usize::from(cur.u8()?) * width;
    if cur.remaining() < len {
        cur.take(cur.remaining() / width * width)?;
        return Err(cur.short(width));
    }
    let asns = cur.take(len)?;
    if seg_type != SEGMENT_AS_SEQUENCE && seg_type != SEGMENT_AS_SET {
        return Err(E::at(WireErrorKind::BadSegmentType(seg_type), at));
    }
    Ok(AsPathSegmentView {
        is_set: seg_type == SEGMENT_AS_SET,
        asns,
        encoding,
    })
}

/// Reads one path attribute's header: its type code and its body. Every
/// accessor walks the block through it, so it is inlined into the walks.
#[inline(always)]
fn read_attr<'a, E: Failure>(cur: &mut Cursor<'a, E>) -> Result<(u8, Cursor<'a, E>), E> {
    let flags = cur.u8()?;
    let type_code = cur.u8()?;
    let len = if flags & FLAG_EXTENDED_LENGTH != 0 {
        usize::from(cur.u16()?)
    } else {
        usize::from(cur.u8()?)
    };
    Ok((type_code, cur.sub(len)?))
}

/// The error for an attribute body its type cannot have the length of.
fn bad_attr_length<E: Failure>(type_code: u8, length: usize, at: u64) -> E {
    E::at(WireErrorKind::BadAttributeLength { type_code, length }, at)
}

/// Reads an `ORIGIN` body.
fn read_origin<E: Failure>(body: Cursor<'_, E>) -> Result<RouteOrigin, E> {
    match *body.bytes {
        [0] => Ok(RouteOrigin::Igp),
        [1] => Ok(RouteOrigin::Egp),
        [2] => Ok(RouteOrigin::Incomplete),
        [code] => Err(E::at(WireErrorKind::BadOrigin(code), body.at)),
        _ => Err(bad_attr_length(ATTR_ORIGIN, body.bytes.len(), body.at)),
    }
}

/// Reads a `NEXT_HOP` or `LOCAL_PREF` body: one 4-octet value.
fn read_u32_attr<E: Failure>(type_code: u8, mut body: Cursor<'_, E>) -> Result<u32, E> {
    if body.bytes.len() != 4 {
        return Err(bad_attr_length(type_code, body.bytes.len(), body.at));
    }
    body.u32()
}

/// Reads a `COMMUNITIES` body: whole 4-octet values.
fn read_communities<E: Failure>(
    body: Cursor<'_, E>,
) -> Result<impl Iterator<Item = Community> + '_, E> {
    if !body.bytes.len().is_multiple_of(4) {
        return Err(bad_attr_length(ATTR_COMMUNITIES, body.bytes.len(), body.at));
    }
    Ok(body
        .bytes
        .chunks_exact(4)
        .map(|c| Community(u32::from_be_bytes([c[0], c[1], c[2], c[3]]))))
}

/// Reads a `LARGE_COMMUNITY` body (RFC 8092): whole 12-octet values.
fn read_large_communities<E: Failure>(
    body: Cursor<'_, E>,
) -> Result<impl Iterator<Item = LargeCommunity> + '_, E> {
    if !body.bytes.len().is_multiple_of(12) {
        return Err(bad_attr_length(
            ATTR_LARGE_COMMUNITIES,
            body.bytes.len(),
            body.at,
        ));
    }
    Ok(body.bytes.chunks_exact(12).map(|c| {
        let field = |i: usize| u32::from_be_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
        LargeCommunity {
            global: field(0),
            local1: field(4),
            local2: field(8),
        }
    }))
}

/// An applicable `MP_REACH_NLRI`: its next hop and its unread NLRI.
type Reach<'a, E> = (&'a [u8], Cursor<'a, E>);

/// Reads an `MP_REACH_NLRI` body up to its NLRI. `None` when the attribute
/// does not apply: it applies to IPv6 unicast, and always in the
/// abbreviated RIB form (RFC 6396 §4.3.4, a next hop alone); other AFI/SAFI
/// pairs are skipped like any unimplemented optional attribute.
fn read_mp_reach<E: Failure>(
    mut body: Cursor<'_, E>,
    rib_form: bool,
) -> Result<Option<Reach<'_, E>>, E> {
    let len = body.remaining();
    let family = if rib_form {
        (AFI_IPV6, SAFI_UNICAST)
    } else {
        (body.u16()?, body.u8()?)
    };
    let nh_at = body.at;
    let nh_len = usize::from(body.u8()?);
    let next_hop = body.take(nh_len)?;
    if rib_form {
        if body.remaining() > 0 {
            return Err(bad_attr_length(ATTR_MP_REACH_NLRI, len, nh_at));
        }
    } else {
        body.u8()?; // reserved (SNPA count)
        if family != (AFI_IPV6, SAFI_UNICAST) {
            return Ok(None);
        }
        if nh_len != 16 && nh_len != 32 {
            return Err(bad_attr_length(ATTR_MP_REACH_NLRI, nh_len, nh_at));
        }
    }
    Ok(Some((next_hop, body.rest())))
}

/// Reads an `MP_UNREACH_NLRI` body up to its withdrawn prefixes; `None` for
/// an AFI/SAFI pair other than IPv6 unicast.
fn read_mp_unreach<E: Failure>(mut body: Cursor<'_, E>) -> Result<Option<Cursor<'_, E>>, E> {
    let family = (body.u16()?, body.u8()?);
    Ok((family == (AFI_IPV6, SAFI_UNICAST)).then(|| body.rest()))
}

/// Reads one OPEN optional parameter: its type and its body.
fn read_param<'a, E: Failure>(cur: &mut Cursor<'a, E>) -> Result<(u8, Cursor<'a, E>), E> {
    let ptype = cur.u8()?;
    let len = usize::from(cur.u8()?);
    Ok((ptype, cur.sub(len)?))
}

/// Reads one capability from a cursor positioned at its code byte.
fn read_capability<E: Failure>(cur: &mut Cursor<'_, E>) -> Result<Capability, E> {
    let code = cur.u8()?;
    let len_at = cur.at;
    let len = cur.u8()?;
    let data = cur.take(usize::from(len))?;
    if matches!(code, CAP_MULTIPROTOCOL | CAP_FOUR_OCTET_AS) && len != 4 {
        return Err(E::at(
            WireErrorKind::BadCapabilityLength { code, length: len },
            len_at,
        ));
    }
    Ok(match (code, data) {
        (CAP_MULTIPROTOCOL, [0, 1, _, 1]) => Capability::MultiprotocolIpv4Unicast,
        (CAP_MULTIPROTOCOL, [0, 2, _, 1]) => Capability::MultiprotocolIpv6Unicast,
        (CAP_FOUR_OCTET_AS, &[a, b, c, d]) => {
            Capability::FourOctetAs(Asn(u32::from_be_bytes([a, b, c, d])))
        }
        _ => Capability::Unknown {
            code,
            data: data.to_vec(),
        },
    })
}

/// Reads one `PEER_INDEX_TABLE` entry. Peer type bit 0 marks an IPv6
/// address, which is unsupported; bit 1 a 4-octet ASN.
fn read_peer<E: Failure>(cur: &mut Cursor<'_, E>) -> Result<PeerEntry, E> {
    let at = cur.at;
    let peer_type = cur.u8()?;
    if peer_type & 0x01 != 0 {
        return Err(E::at(WireErrorKind::UnsupportedPeerType(peer_type), at));
    }
    let bgp_id = cur.u32()?;
    let addr = cur.u32()?;
    let encoding = if peer_type & 0x02 != 0 {
        AsnEncoding::FourOctet
    } else {
        AsnEncoding::TwoOctet
    };
    Ok(PeerEntry {
        bgp_id,
        addr,
        asn: cur.asn(encoding)?,
    })
}

/// Reads one RIB entry up to its attribute block, which
/// [`AttrsView::check`] walks.
fn read_rib_entry<'a, E: Failure>(cur: &mut Cursor<'a, E>) -> Result<RibEntryView<'a>, E> {
    let peer_index = cur.u16()?;
    let originated_time = cur.u32()?;
    let attr_len = usize::from(cur.u16()?);
    Ok(RibEntryView {
        peer_index,
        originated_time,
        // RFC 6396 §4.3.4: 4-octet ASNs and the abbreviated MP_REACH_NLRI.
        attrs: AttrsView {
            cur: cur.sub(attr_len)?.to(),
            encoding: AsnEncoding::FourOctet,
            rib_form: true,
        },
    })
}

// ---------------------------------------------------------------------------
// Iterators over validated bytes: each runs its element's reader once per
// item, through `Cursor::next_item`.
// ---------------------------------------------------------------------------

/// Iterates a validated run of `<length, prefix>` tuples: IPv4 by default,
/// IPv6 inside `MP_REACH_NLRI` and `MP_UNREACH_NLRI`.
#[derive(Debug, Clone, Copy)]
pub struct PrefixIter<'a, P = Ipv4Prefix> {
    cur: Cursor<'a, Stop>,
    family: PhantomData<P>,
}

impl<'a, P> PrefixIter<'a, P> {
    fn new(bytes: &'a [u8]) -> Self {
        PrefixIter {
            cur: Cursor::new(bytes),
            family: PhantomData,
        }
    }
}

impl<P: Family> Iterator for PrefixIter<'_, P> {
    type Item = P;

    #[inline]
    fn next(&mut self) -> Option<P> {
        self.cur.next_item(read_prefix)
    }
}

/// The attributes of a validated block: type code and body.
#[derive(Debug, Clone, Copy)]
struct AttrIter<'a>(Cursor<'a, Stop>);

impl<'a> Iterator for AttrIter<'a> {
    type Item = (u8, Cursor<'a, Stop>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next_item(read_attr)
    }
}

/// Iterates the ASNs of one wire segment.
#[derive(Debug, Clone, Copy)]
pub struct AsnIter<'a> {
    cur: Cursor<'a, Stop>,
    encoding: AsnEncoding,
}

impl Iterator for AsnIter<'_> {
    type Item = Asn;

    #[inline]
    fn next(&mut self) -> Option<Asn> {
        let encoding = self.encoding;
        self.cur.next_item(|cur| cur.asn(encoding))
    }
}

/// One raw `AS_PATH` wire segment (pre-merge: the encoder may have split a
/// long logical segment into several full wire segments).
#[derive(Debug, Clone, Copy)]
pub struct AsPathSegmentView<'a> {
    /// `true` for `AS_SET`, `false` for `AS_SEQUENCE`.
    pub is_set: bool,
    asns: &'a [u8],
    encoding: AsnEncoding,
}

impl<'a> AsPathSegmentView<'a> {
    /// The segment's ASNs in wire order.
    #[must_use]
    pub fn asns(&self) -> AsnIter<'a> {
        AsnIter {
            cur: Cursor::new(self.asns),
            encoding: self.encoding,
        }
    }
}

/// Iterates the raw wire segments of a validated `AS_PATH` body.
#[derive(Debug, Clone, Copy)]
pub struct SegmentIter<'a> {
    cur: Cursor<'a, Stop>,
    encoding: AsnEncoding,
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = AsPathSegmentView<'a>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let encoding = self.encoding;
        self.cur.next_item(|cur| read_segment(cur, encoding))
    }
}

// ---------------------------------------------------------------------------
// Attribute block view
// ---------------------------------------------------------------------------

/// A validated, borrowed path-attribute block.
///
/// Accessors re-walk the (small) block on demand instead of caching spans.
/// Duplicate attributes: the last `ORIGIN`/`AS_PATH`/`NEXT_HOP`/`LOCAL_PREF`
/// and the last applicable `MP_REACH_NLRI`/`MP_UNREACH_NLRI` win, while
/// multiple `COMMUNITIES` (or `LARGE_COMMUNITY`) attributes concatenate.
#[derive(Debug, Clone, Copy)]
pub struct AttrsView<'a> {
    cur: Cursor<'a>,
    encoding: AsnEncoding,
    /// Whether `MP_REACH_NLRI` bodies use the abbreviated `TABLE_DUMP_V2`
    /// RIB-entry form (RFC 6396 §4.3.4) instead of the full RFC 4760 one.
    rib_form: bool,
}

impl<'a> AttrsView<'a> {
    /// Validates the block: every attribute, then the mandatory ones.
    /// Returns whether it is non-empty: an empty block is a pure
    /// withdrawal's.
    fn check(&self) -> Result<bool, WireError> {
        if self.cur.remaining() == 0 {
            return Ok(false);
        }
        let mut cur = self.cur;
        let mut has_origin = false;
        let mut has_as_path = false;
        let mut has_next_hop = false;
        let mut has_mp_reach = false;
        while cur.remaining() > 0 {
            let (type_code, body) = read_attr(&mut cur)?;
            match type_code {
                ATTR_ORIGIN => {
                    read_origin(body)?;
                    has_origin = true;
                }
                ATTR_AS_PATH => {
                    body.read_to_end(|cur| read_segment(cur, self.encoding))?;
                    has_as_path = true;
                }
                ATTR_NEXT_HOP => {
                    read_u32_attr(type_code, body)?;
                    has_next_hop = true;
                }
                ATTR_LOCAL_PREF => {
                    read_u32_attr(type_code, body)?;
                }
                ATTR_COMMUNITIES => {
                    let _ = read_communities(body)?;
                }
                ATTR_LARGE_COMMUNITIES => {
                    let _ = read_large_communities(body)?;
                }
                ATTR_MP_REACH_NLRI => {
                    if let Some((_, nlri)) = read_mp_reach(body, self.rib_form)? {
                        nlri.read_to_end(read_prefix::<Ipv6Prefix, _>)?;
                        has_mp_reach = true;
                    }
                }
                ATTR_MP_UNREACH_NLRI => {
                    if let Some(withdrawn) = read_mp_unreach(body)? {
                        withdrawn.read_to_end(read_prefix::<Ipv6Prefix, _>)?;
                    }
                }
                _ => {}
            }
        }
        let missing = |name| WireError::new(WireErrorKind::MissingAttribute(name), cur.at);
        if !has_origin {
            return Err(missing("ORIGIN"));
        }
        if !has_as_path {
            return Err(missing("AS_PATH"));
        }
        // An IPv6-only update carries its next hop inside MP_REACH_NLRI.
        if !has_next_hop && !has_mp_reach {
            return Err(missing("NEXT_HOP"));
        }
        Ok(true)
    }

    fn walk(&self) -> AttrIter<'a> {
        AttrIter(self.cur.to())
    }

    /// The body of the last attribute of `type_code`, the one that wins.
    fn last(&self, type_code: u8) -> Option<Cursor<'a, Stop>> {
        let mut cur = self.cur.to();
        let mut found = None;
        while let Ok((code, body)) = read_attr(&mut cur) {
            if code == type_code {
                found = Some(body);
            }
        }
        found
    }

    /// The `ORIGIN` attribute.
    #[must_use]
    pub fn origin(&self) -> RouteOrigin {
        self.last(ATTR_ORIGIN)
            .and_then(|body| read_origin(body).ok())
            .unwrap_or(RouteOrigin::Igp)
    }

    /// The `NEXT_HOP` attribute as a raw IPv4 address (0 when absent, as in
    /// an IPv6-only update).
    #[must_use]
    pub fn next_hop(&self) -> u32 {
        self.last(ATTR_NEXT_HOP)
            .and_then(|body| read_u32_attr(ATTR_NEXT_HOP, body).ok())
            .unwrap_or(0)
    }

    /// The `LOCAL_PREF` attribute, when present.
    #[must_use]
    pub fn local_pref(&self) -> Option<u32> {
        self.last(ATTR_LOCAL_PREF)
            .and_then(|body| read_u32_attr(ATTR_LOCAL_PREF, body).ok())
    }

    /// The wire bytes of the (winning) `AS_PATH` attribute body — the
    /// interning key for [`AttrInterner`].
    fn as_path_wire(&self) -> &'a [u8] {
        self.last(ATTR_AS_PATH).map_or(&[], |body| body.bytes)
    }

    /// The raw wire segments of the `AS_PATH`, pre-merge.
    #[must_use]
    pub fn segments(&self) -> SegmentIter<'a> {
        SegmentIter {
            cur: Cursor::new(self.as_path_wire()),
            encoding: self.encoding,
        }
    }

    /// Every ASN the path mentions, in path order (identical to the flat
    /// order of [`AsPath::iter`] on [`AttrsView::to_as_path`] —
    /// canonicalization only drops empty segments and merges adjacent ones,
    /// neither of which changes flat order).
    pub fn path_asns(&self) -> impl Iterator<Item = Asn> + 'a {
        self.segments().flat_map(|s| s.asns())
    }

    /// The path's **origin AS** straight from the wire: the last ASN of the
    /// last non-empty segment when that segment is an `AS_SEQUENCE`, `None`
    /// for a set-terminated (aggregate) or empty path. Agrees with
    /// [`AsPath::origin`] on [`AttrsView::to_as_path`]: segment merging
    /// never changes the final element, and canonicalization drops exactly
    /// the empty segments skipped here.
    #[must_use]
    pub fn origin_asn(&self) -> Option<Asn> {
        let mut last: Option<AsPathSegmentView<'a>> = None;
        for segment in self.segments() {
            if !segment.asns.is_empty() {
                last = Some(segment);
            }
        }
        let segment = last.filter(|segment| !segment.is_set)?;
        let width = asn_width(segment.encoding);
        let tail = segment.asns.get(segment.asns.len().checked_sub(width)?..)?;
        Cursor::<Stop>::new(tail).asn(segment.encoding).ok()
    }

    /// Every community carried, concatenated across `COMMUNITIES`
    /// attributes in wire order.
    pub fn communities(&self) -> impl Iterator<Item = Community> + 'a {
        self.walk()
            .filter(|&(type_code, _)| type_code == ATTR_COMMUNITIES)
            .filter_map(|(_, body)| read_communities(body).ok())
            .flatten()
    }

    /// Every large community carried, concatenated across
    /// `LARGE_COMMUNITY` attributes in wire order.
    pub fn large_communities(&self) -> impl Iterator<Item = LargeCommunity> + 'a {
        self.walk()
            .filter(|&(type_code, _)| type_code == ATTR_LARGE_COMMUNITIES)
            .filter_map(|(_, body)| read_large_communities(body).ok())
            .flatten()
    }

    /// The `MP_REACH_NLRI` attribute for IPv6 unicast, rebuilt owned (its
    /// next hop is variable-length, so there is no borrowed form).
    #[must_use]
    pub fn mp_reach(&self) -> Option<MpReach> {
        self.walk()
            .filter(|&(type_code, _)| type_code == ATTR_MP_REACH_NLRI)
            .filter_map(|(_, body)| read_mp_reach(body, self.rib_form).ok().flatten())
            .last()
            .map(owned_reach)
    }

    /// The IPv6 prefixes withdrawn via `MP_UNREACH_NLRI`.
    #[must_use]
    pub fn mp_unreach(&self) -> Option<MpUnreach> {
        self.walk()
            .filter(|&(type_code, _)| type_code == ATTR_MP_UNREACH_NLRI)
            .filter_map(|(_, body)| read_mp_unreach(body).ok().flatten())
            .last()
            .map(owned_unreach)
    }

    /// Rebuilds the owned [`AsPath`], re-joining encoder-split segments.
    #[must_use]
    pub fn to_as_path(&self) -> AsPath {
        as_path_of(self.segments())
    }

    /// Rebuilds owned [`PathAttributes`] in one walk of the block, with the
    /// accessors' duplicate-attribute semantics.
    #[must_use]
    pub fn to_attributes(&self) -> PathAttributes {
        let mut origin = Ok(RouteOrigin::Igp);
        let mut path = Cursor::new(&[]);
        let mut next_hop = Ok(0);
        let mut local_pref = None;
        let mut communities = Vec::new();
        let mut large_communities = Vec::new();
        let mut mp_reach = None;
        let mut mp_unreach = None;
        for (type_code, body) in self.walk() {
            match type_code {
                ATTR_ORIGIN => origin = read_origin(body),
                ATTR_AS_PATH => path = body,
                ATTR_NEXT_HOP => next_hop = read_u32_attr(type_code, body),
                ATTR_LOCAL_PREF => local_pref = read_u32_attr(type_code, body).ok(),
                ATTR_COMMUNITIES => {
                    communities.extend(read_communities(body).into_iter().flatten())
                }
                ATTR_LARGE_COMMUNITIES => {
                    large_communities.extend(read_large_communities(body).into_iter().flatten())
                }
                ATTR_MP_REACH_NLRI => {
                    mp_reach = read_mp_reach(body, self.rib_form)
                        .ok()
                        .flatten()
                        .or(mp_reach);
                }
                ATTR_MP_UNREACH_NLRI => {
                    mp_unreach = read_mp_unreach(body).ok().flatten().or(mp_unreach);
                }
                _ => {}
            }
        }
        PathAttributes {
            origin: origin.unwrap_or(RouteOrigin::Igp),
            as_path: as_path_of(SegmentIter {
                cur: path,
                encoding: self.encoding,
            }),
            next_hop: next_hop.unwrap_or(0),
            local_pref,
            communities,
            large_communities,
            mp_reach: mp_reach.map(owned_reach),
            mp_unreach: mp_unreach.map(owned_unreach),
        }
    }
}

/// Rebuilds the owned [`AsPath`] of a validated `AS_PATH` body. The encoder
/// splits a logical segment past 255 ASNs into full wire segments, so a
/// full segment followed by one of the same type is re-joined; a non-full
/// predecessor is left alone, because adjacent same-type segments also
/// appear legitimately (aggregated `AS_SET`s) and merging those would
/// change path semantics.
fn as_path_of(wire_segments: SegmentIter<'_>) -> AsPath {
    let mut segments: Vec<AsPathSegment> = Vec::new();
    let mut prev_full = false;
    for view in wire_segments {
        let asns: Vec<Asn> = view.asns().collect();
        let full = asns.len() == MAX_SEGMENT_ASNS;
        let segment = if view.is_set {
            AsPathSegment::Set(asns)
        } else {
            AsPathSegment::Sequence(asns)
        };
        match (segments.last_mut(), prev_full, segment) {
            (Some(AsPathSegment::Sequence(tail)), true, AsPathSegment::Sequence(next))
            | (Some(AsPathSegment::Set(tail)), true, AsPathSegment::Set(next)) => {
                tail.extend(next);
            }
            (_, _, segment) => segments.push(segment),
        }
        prev_full = full;
    }
    // from_segments canonicalizes (drops empties, merges adjacent
    // sequences), matching what the simulator-side constructors produce.
    AsPath::from_segments(segments)
}

fn owned_reach((next_hop, nlri): Reach<'_, Stop>) -> MpReach {
    MpReach {
        next_hop: next_hop.to_vec(),
        nlri: PrefixIter::new(nlri.bytes).collect(),
    }
}

fn owned_unreach(withdrawn: Cursor<'_, Stop>) -> MpUnreach {
    MpUnreach {
        withdrawn: PrefixIter::new(withdrawn.bytes).collect(),
    }
}

// ---------------------------------------------------------------------------
// BGP message views
// ---------------------------------------------------------------------------

/// The error for a header length field of `total` bytes that the message
/// type cannot have.
fn bad_length(total: usize) -> WireError {
    WireError::new(WireErrorKind::BadMessageLength(total as u16), 16)
}

/// The error for a message type the parser does not take.
fn unsupported_type(msg_type: u8) -> WireError {
    WireError::new(WireErrorKind::UnsupportedMessageType(msg_type), 18)
}

/// Reads a message's 19-byte header — the all-ones marker, then the length,
/// range-checked only once the type is read — and takes the body the length
/// names. A type other than `only`, when given, is refused before the body
/// is read. Returns the type, the body and the bytes the message fills.
fn read_frame(bytes: &[u8], only: Option<u8>) -> Result<(u8, Cursor<'_>, usize), WireError> {
    let mut cur = Cursor::new(bytes);
    let marker = cur.take(16)?;
    if marker.iter().any(|&b| b != 0xFF) {
        return Err(WireError::new(WireErrorKind::BadMarker, 0));
    }
    let total = usize::from(cur.u16()?);
    let msg_type = cur.u8()?;
    if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&total) {
        return Err(bad_length(total));
    }
    if only.is_some_and(|only| only != msg_type) {
        return Err(unsupported_type(msg_type));
    }
    Ok((msg_type, cur.sub(total - HEADER_LEN)?, total))
}

/// Requires that a parsed message fill all `len` input bytes.
fn filled<T>((view, used): (T, usize), len: usize) -> Result<T, WireError> {
    if used != len {
        return Err(WireError::new(
            WireErrorKind::TrailingBytes {
                remaining: len - used,
            },
            used as u64,
        ));
    }
    Ok(view)
}

/// A validated, borrowed BGP UPDATE message: nothing is materialised until
/// asked, and [`UpdateView::to_message`] is [`UpdateMessage::decode`].
#[derive(Debug, Clone, Copy)]
pub struct UpdateView<'a> {
    withdrawn: &'a [u8],
    attrs: Option<AttrsView<'a>>,
    nlri: &'a [u8],
}

impl<'a> UpdateView<'a> {
    /// Parses (and fully validates) one message from the start of `bytes`,
    /// returning the view and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem. A
    /// message of another type is refused right after its header.
    pub fn parse(bytes: &'a [u8], encoding: AsnEncoding) -> Result<(Self, usize), WireError> {
        let (_, body, used) = read_frame(bytes, Some(MESSAGE_TYPE_UPDATE))?;
        Ok((Self::parse_body(body, encoding)?, used))
    }

    /// Parses (and fully validates) an UPDATE body — the bytes after the
    /// 19-byte header. The NLRI is validated before the attribute block, so
    /// a message bad in both reports its NLRI.
    fn parse_body(mut cur: Cursor<'a>, encoding: AsnEncoding) -> Result<Self, WireError> {
        let withdrawn_len = usize::from(cur.u16()?);
        let withdrawn = cur.sub(withdrawn_len)?;
        withdrawn.read_to_end(read_prefix::<Ipv4Prefix, _>)?;
        let attrs_len = usize::from(cur.u16()?);
        let attrs = AttrsView {
            cur: cur.sub(attrs_len)?,
            encoding,
            rib_form: false,
        };
        let nlri = cur.rest();
        nlri.read_to_end(read_prefix::<Ipv4Prefix, _>)?;
        let has_attrs = attrs.check()?;
        if !has_attrs && nlri.remaining() > 0 {
            return Err(WireError::new(
                WireErrorKind::MissingAttribute("AS_PATH"),
                nlri.at,
            ));
        }
        Ok(UpdateView {
            withdrawn: withdrawn.bytes,
            attrs: has_attrs.then_some(attrs),
            nlri: nlri.bytes,
        })
    }

    /// Parses one message filling all of `bytes` (trailing bytes are an
    /// error).
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem.
    pub fn parse_exact(bytes: &'a [u8], encoding: AsnEncoding) -> Result<Self, WireError> {
        filled(Self::parse(bytes, encoding)?, bytes.len())
    }

    /// The withdrawn prefixes.
    #[must_use]
    pub fn withdrawn(&self) -> PrefixIter<'a> {
        PrefixIter::new(self.withdrawn)
    }

    /// The shared path attributes (`None` for a pure withdrawal).
    #[must_use]
    pub fn attrs(&self) -> Option<&AttrsView<'a>> {
        self.attrs.as_ref()
    }

    /// The announced prefixes.
    #[must_use]
    pub fn nlri(&self) -> PrefixIter<'a> {
        PrefixIter::new(self.nlri)
    }

    /// Rebuilds the owned [`UpdateMessage`] through the lazy iterators.
    #[must_use]
    pub fn to_message(&self) -> UpdateMessage {
        UpdateMessage {
            withdrawn: self.withdrawn().collect(),
            attrs: self.attrs.as_ref().map(AttrsView::to_attributes),
            nlri: self.nlri().collect(),
        }
    }
}

/// A validated, borrowed BGP OPEN message body.
#[derive(Debug, Clone, Copy)]
pub struct OpenView<'a> {
    my_as: u16,
    hold_time: u16,
    bgp_id: u32,
    params: Cursor<'a>,
}

impl<'a> OpenView<'a> {
    /// Parses an OPEN body (the bytes after the 19-byte header). Parameters
    /// other than capabilities (deprecated authentication, &c.) are
    /// length-checked only.
    fn parse_body(mut cur: Cursor<'a>) -> Result<Self, WireError> {
        let version_at = cur.at;
        let version = cur.u8()?;
        if version != BGP_VERSION {
            return Err(WireError::new(
                WireErrorKind::BadVersion(version),
                version_at,
            ));
        }
        let my_as = cur.u16()?;
        let hold_at = cur.at;
        let hold_time = cur.u16()?;
        if hold_time == 1 || hold_time == 2 {
            return Err(WireError::new(
                WireErrorKind::BadHoldTime(hold_time),
                hold_at,
            ));
        }
        let bgp_id = cur.u32()?;
        let opt_len = usize::from(cur.u8()?);
        let params = cur.sub(opt_len)?;
        cur.finish()?;
        params.read_to_end(|cur| {
            let (ptype, body) = read_param(cur)?;
            if ptype == PARAM_CAPABILITIES {
                body.read_to_end(read_capability)?;
            }
            Ok(())
        })?;
        Ok(OpenView {
            my_as,
            hold_time,
            bgp_id,
            params,
        })
    }

    /// The raw 2-octet My-AS field ([`crate::msg::AS_TRANS`] when the real
    /// ASN rides in a capability — see [`OpenView::effective_asn`]).
    #[must_use]
    pub fn my_as(&self) -> u16 {
        self.my_as
    }

    /// Proposed hold time in seconds.
    #[must_use]
    pub fn hold_time(&self) -> u16 {
        self.hold_time
    }

    /// The sender's BGP identifier.
    #[must_use]
    pub fn bgp_id(&self) -> u32 {
        self.bgp_id
    }

    /// The announced capabilities, in wire order.
    #[must_use]
    pub fn capabilities(&self) -> CapabilityIter<'a> {
        CapabilityIter {
            params: self.params.to(),
            caps: Cursor::new(&[]),
        }
    }

    /// The ASN the peer actually speaks for: the 4-octet capability value
    /// when announced, the My-AS field otherwise (mirrors
    /// [`OpenMessage::effective_asn`]).
    #[must_use]
    pub fn effective_asn(&self) -> Asn {
        self.capabilities()
            .find_map(|c| match c {
                Capability::FourOctetAs(asn) => Some(asn),
                _ => None,
            })
            .unwrap_or(Asn(u32::from(self.my_as)))
    }

    /// Rebuilds the owned [`OpenMessage`].
    #[must_use]
    pub fn to_open(&self) -> OpenMessage {
        OpenMessage {
            asn: Asn(u32::from(self.my_as)),
            hold_time: self.hold_time,
            bgp_id: self.bgp_id,
            capabilities: self.capabilities().collect(),
        }
    }
}

/// Iterates the capabilities of a validated OPEN's optional parameters,
/// crossing parameter boundaries (several type-2 parameters concatenate).
#[derive(Debug, Clone, Copy)]
pub struct CapabilityIter<'a> {
    params: Cursor<'a, Stop>,
    caps: Cursor<'a, Stop>,
}

impl Iterator for CapabilityIter<'_> {
    type Item = Capability;

    #[inline]
    fn next(&mut self) -> Option<Capability> {
        while self.caps.remaining() == 0 {
            let (ptype, body) = self.params.next_item(read_param)?;
            if ptype == PARAM_CAPABILITIES {
                self.caps = body;
            }
        }
        let capability = self.caps.next_item(read_capability);
        if capability.is_none() {
            self.params = Cursor::new(&[]);
        }
        capability
    }
}

/// A validated, borrowed BGP NOTIFICATION message body.
#[derive(Debug, Clone, Copy)]
pub struct NotificationView<'a> {
    code: u8,
    subcode: u8,
    data: &'a [u8],
}

impl<'a> NotificationView<'a> {
    fn parse_body(mut cur: Cursor<'a>) -> Result<Self, WireError> {
        let code_at = cur.at;
        let code = cur.u8()?;
        if !(1..=6).contains(&code) {
            return Err(WireError::new(
                WireErrorKind::BadNotificationCode(code),
                code_at,
            ));
        }
        Ok(NotificationView {
            code,
            subcode: cur.u8()?,
            data: cur.rest().bytes,
        })
    }

    /// Error code (see [`crate::msg::notif`]).
    #[must_use]
    pub fn code(&self) -> u8 {
        self.code
    }

    /// Error subcode.
    #[must_use]
    pub fn subcode(&self) -> u8 {
        self.subcode
    }

    /// Diagnostic data, verbatim.
    #[must_use]
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// Rebuilds the owned [`NotificationMessage`].
    #[must_use]
    pub fn to_notification(&self) -> NotificationMessage {
        NotificationMessage {
            code: self.code,
            subcode: self.subcode,
            data: self.data.to_vec(),
        }
    }
}

/// A validated, borrowed message of any RFC 4271 type — the zero-copy twin
/// of [`Message`].
#[derive(Debug, Clone, Copy)]
pub enum MessageView<'a> {
    /// An OPEN handshake message.
    Open(OpenView<'a>),
    /// An UPDATE carrying routes.
    Update(UpdateView<'a>),
    /// A NOTIFICATION closing the session.
    Notification(NotificationView<'a>),
    /// A KEEPALIVE heartbeat.
    Keepalive,
}

impl<'a> MessageView<'a> {
    /// Parses (and fully validates) one message from the start of `bytes`,
    /// returning the view and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem. A
    /// [`WireErrorKind::Truncated`] error means more bytes are needed.
    pub fn parse(bytes: &'a [u8], encoding: AsnEncoding) -> Result<(Self, usize), WireError> {
        let (msg_type, body, used) = read_frame(bytes, None)?;
        let too_short = |min: usize| body.remaining() < min - HEADER_LEN;
        let view = match msg_type {
            MESSAGE_TYPE_OPEN if too_short(MIN_OPEN_LEN) => return Err(bad_length(used)),
            MESSAGE_TYPE_OPEN => MessageView::Open(OpenView::parse_body(body)?),
            MESSAGE_TYPE_UPDATE => MessageView::Update(UpdateView::parse_body(body, encoding)?),
            MESSAGE_TYPE_NOTIFICATION if too_short(MIN_NOTIFICATION_LEN) => {
                return Err(bad_length(used));
            }
            MESSAGE_TYPE_NOTIFICATION => {
                MessageView::Notification(NotificationView::parse_body(body)?)
            }
            MESSAGE_TYPE_KEEPALIVE if body.remaining() > 0 => return Err(bad_length(used)),
            MESSAGE_TYPE_KEEPALIVE => MessageView::Keepalive,
            other => return Err(unsupported_type(other)),
        };
        Ok((view, used))
    }

    /// Parses one message filling all of `bytes` (trailing bytes are an
    /// error).
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem.
    pub fn parse_exact(bytes: &'a [u8], encoding: AsnEncoding) -> Result<Self, WireError> {
        filled(Self::parse(bytes, encoding)?, bytes.len())
    }

    /// The message's RFC 4271 type code.
    #[must_use]
    pub fn type_code(&self) -> u8 {
        match self {
            MessageView::Open(_) => MESSAGE_TYPE_OPEN,
            MessageView::Update(_) => MESSAGE_TYPE_UPDATE,
            MessageView::Notification(_) => MESSAGE_TYPE_NOTIFICATION,
            MessageView::Keepalive => MESSAGE_TYPE_KEEPALIVE,
        }
    }

    /// Rebuilds the owned [`Message`].
    #[must_use]
    pub fn to_message(&self) -> Message {
        match self {
            MessageView::Open(v) => Message::Open(v.to_open()),
            MessageView::Update(v) => Message::Update(v.to_message()),
            MessageView::Notification(v) => Message::Notification(v.to_notification()),
            MessageView::Keepalive => Message::Keepalive,
        }
    }
}

// ---------------------------------------------------------------------------
// MRT record views
// ---------------------------------------------------------------------------

/// A validated, borrowed `PEER_INDEX_TABLE` record body.
#[derive(Debug, Clone, Copy)]
pub struct PeerIndexTableView<'a> {
    collector_id: u32,
    view_name: &'a [u8],
    peers: Cursor<'a>,
}

impl<'a> PeerIndexTableView<'a> {
    fn parse(mut cur: Cursor<'a>) -> Result<Self, WireError> {
        let collector_id = cur.u32()?;
        let name_len = usize::from(cur.u16()?);
        let view_name = cur.take(name_len)?;
        let peer_count = usize::from(cur.u16()?);
        let peers = cur.rest();
        peers.read_exactly(peer_count, read_peer)?;
        Ok(PeerIndexTableView {
            collector_id,
            view_name,
            peers,
        })
    }

    /// The peers, in index order.
    #[must_use]
    pub fn peers(&self) -> PeerIter<'a> {
        PeerIter(self.peers.to())
    }

    /// Rebuilds the owned [`PeerIndexTable`].
    #[must_use]
    pub fn to_table(&self) -> PeerIndexTable {
        PeerIndexTable {
            collector_id: self.collector_id,
            view_name: String::from_utf8_lossy(self.view_name).into_owned(),
            peers: self.peers().collect(),
        }
    }
}

/// Iterates the peers of a validated `PEER_INDEX_TABLE`.
#[derive(Debug, Clone, Copy)]
pub struct PeerIter<'a>(Cursor<'a, Stop>);

impl Iterator for PeerIter<'_> {
    type Item = PeerEntry;

    #[inline]
    fn next(&mut self) -> Option<PeerEntry> {
        self.0.next_item(read_peer)
    }
}

/// A validated, borrowed `RIB_IPV4_UNICAST` record body, or with
/// [`Ipv6Prefix`] a `RIB_IPV6_UNICAST` one.
#[derive(Debug, Clone, Copy)]
pub struct RibView<'a, P = Ipv4Prefix> {
    sequence: u32,
    prefix: P,
    entries: Cursor<'a>,
}

impl<'a, P: Copy> RibView<'a, P> {
    fn parse(mut cur: Cursor<'a>) -> Result<Self, WireError>
    where
        P: Family,
    {
        let sequence = cur.u32()?;
        let prefix = read_prefix(&mut cur)?;
        let entry_count = usize::from(cur.u16()?);
        let entries = cur.rest();
        entries.read_exactly(entry_count, |cur| {
            let attrs = read_rib_entry(cur)?.attrs;
            if attrs.check()? {
                Ok(())
            } else {
                Err(WireError::new(
                    WireErrorKind::MissingAttribute("AS_PATH"),
                    attrs.cur.at,
                ))
            }
        })?;
        Ok(RibView {
            sequence,
            prefix,
            entries,
        })
    }

    /// The prefix all entries describe.
    #[must_use]
    pub fn prefix(&self) -> P {
        self.prefix
    }

    /// The per-peer entries, in record order.
    #[must_use]
    pub fn entries(&self) -> RibEntryIter<'a> {
        RibEntryIter(self.entries.to())
    }

    fn owned_entries(&self) -> Vec<RibEntry> {
        self.entries().map(RibEntryView::to_entry).collect()
    }
}

impl RibView<'_> {
    /// Rebuilds the owned [`RibIpv4Unicast`].
    #[must_use]
    pub fn to_rib(&self) -> RibIpv4Unicast {
        RibIpv4Unicast {
            sequence: self.sequence,
            prefix: self.prefix,
            entries: self.owned_entries(),
        }
    }
}

impl RibView<'_, Ipv6Prefix> {
    /// Rebuilds the owned [`RibIpv6Unicast`].
    #[must_use]
    pub fn to_rib(&self) -> RibIpv6Unicast {
        RibIpv6Unicast {
            sequence: self.sequence,
            prefix: self.prefix,
            entries: self.owned_entries(),
        }
    }
}

/// One peer's route inside a [`RibView`].
#[derive(Debug, Clone, Copy)]
pub struct RibEntryView<'a> {
    /// Index into the current peer table.
    pub peer_index: u16,
    /// When the route was originated.
    pub originated_time: u32,
    /// The route's borrowed attributes (always 4-octet ASNs, per RFC 6396).
    pub attrs: AttrsView<'a>,
}

impl RibEntryView<'_> {
    fn to_entry(self) -> RibEntry {
        RibEntry {
            peer_index: self.peer_index,
            originated_time: self.originated_time,
            attrs: self.attrs.to_attributes(),
        }
    }
}

/// Iterates the entries of a validated RIB record.
#[derive(Debug, Clone, Copy)]
pub struct RibEntryIter<'a>(Cursor<'a, Stop>);

impl<'a> Iterator for RibEntryIter<'a> {
    type Item = RibEntryView<'a>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next_item(read_rib_entry)
    }
}

/// A validated, borrowed `BGP4MP_MESSAGE` / `_AS4` record body.
#[derive(Debug, Clone, Copy)]
pub struct Bgp4mpView<'a> {
    /// The sending peer's AS.
    pub peer_asn: Asn,
    /// The receiving (collector-side) AS.
    pub local_asn: Asn,
    /// The sending peer's IPv4 address.
    pub peer_addr: u32,
    /// The receiving side's IPv4 address.
    pub local_addr: u32,
    update: UpdateView<'a>,
}

impl<'a> Bgp4mpView<'a> {
    fn parse(mut cur: Cursor<'a>, encoding: AsnEncoding) -> Result<Self, WireError> {
        let peer_asn = cur.asn(encoding)?;
        let local_asn = cur.asn(encoding)?;
        let _interface = cur.u16()?;
        let afi_at = cur.at;
        let afi = cur.u16()?;
        if afi != AFI_IPV4 {
            return Err(WireError::new(WireErrorKind::UnsupportedAfi(afi), afi_at));
        }
        let peer_addr = cur.u32()?;
        let local_addr = cur.u32()?;
        let message = cur.rest();
        let update =
            UpdateView::parse_exact(message.bytes, encoding).map_err(|e| e.at_base(message.at))?;
        Ok(Bgp4mpView {
            peer_asn,
            local_asn,
            peer_addr,
            local_addr,
            update,
        })
    }

    /// The BGP UPDATE carried in the record.
    #[must_use]
    pub fn update(&self) -> &UpdateView<'a> {
        &self.update
    }

    /// Rebuilds the owned [`Bgp4mpMessage`].
    #[must_use]
    pub fn to_bgp4mp(&self) -> Bgp4mpMessage {
        Bgp4mpMessage {
            peer_asn: self.peer_asn,
            local_asn: self.local_asn,
            peer_addr: self.peer_addr,
            local_addr: self.local_addr,
            message: self.update.to_message(),
        }
    }
}

/// The body of one borrowed MRT record.
#[derive(Debug, Clone, Copy)]
pub enum MrtBodyView<'a> {
    /// `TABLE_DUMP_V2` / `PEER_INDEX_TABLE`.
    PeerIndexTable(PeerIndexTableView<'a>),
    /// `TABLE_DUMP_V2` / `RIB_IPV4_UNICAST`.
    RibIpv4Unicast(RibView<'a>),
    /// `TABLE_DUMP_V2` / `RIB_IPV6_UNICAST`.
    RibIpv6Unicast(RibView<'a, Ipv6Prefix>),
    /// `BGP4MP` / `MESSAGE` or `MESSAGE_AS4`.
    Bgp4mpMessage(Bgp4mpView<'a>),
}

/// One borrowed MRT record: a timestamp and a validated body view.
#[derive(Debug, Clone, Copy)]
pub struct MrtRecordView<'a> {
    /// Seconds since the Unix epoch.
    pub timestamp: u32,
    /// The record body.
    pub body: MrtBodyView<'a>,
}

impl<'a> MrtRecordView<'a> {
    /// Parses (and fully validates) one record body. `base` is the absolute
    /// offset of the record *header* in the stream; the body starts 12 bytes
    /// later.
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem.
    #[inline]
    pub fn parse(
        timestamp: u32,
        mrt_type: u16,
        subtype: u16,
        body: &'a [u8],
        base: u64,
    ) -> Result<Self, WireError> {
        let cur = Cursor::starting_at(body, base + 12);
        let body = match (mrt_type, subtype) {
            (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE) => {
                MrtBodyView::PeerIndexTable(PeerIndexTableView::parse(cur)?)
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST) => {
                MrtBodyView::RibIpv4Unicast(RibView::parse(cur)?)
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV6_UNICAST) => {
                MrtBodyView::RibIpv6Unicast(RibView::parse(cur)?)
            }
            (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE) => {
                MrtBodyView::Bgp4mpMessage(Bgp4mpView::parse(cur, AsnEncoding::TwoOctet)?)
            }
            (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4) => {
                MrtBodyView::Bgp4mpMessage(Bgp4mpView::parse(cur, AsnEncoding::FourOctet)?)
            }
            _ => {
                return Err(WireError::new(
                    WireErrorKind::UnsupportedMrtType { mrt_type, subtype },
                    base + 4,
                ));
            }
        };
        Ok(MrtRecordView { timestamp, body })
    }

    /// Rebuilds the owned [`MrtRecord`].
    #[must_use]
    pub fn to_record(&self) -> MrtRecord {
        MrtRecord {
            timestamp: self.timestamp,
            body: match &self.body {
                MrtBodyView::PeerIndexTable(v) => MrtBody::PeerIndexTable(v.to_table()),
                MrtBodyView::RibIpv4Unicast(v) => MrtBody::RibIpv4Unicast(v.to_rib()),
                MrtBodyView::RibIpv6Unicast(v) => MrtBody::RibIpv6Unicast(v.to_rib()),
                MrtBodyView::Bgp4mpMessage(v) => MrtBody::Bgp4mpMessage(v.to_bgp4mp()),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming reader over a reusable buffer
// ---------------------------------------------------------------------------

/// Streams MRT records out of any reader through **one reusable buffer**.
///
/// Reading is split in two steps: [`advance`](Self::advance) reads the next
/// record's framing and body into the internal buffer (no parsing, no
/// allocation after warm-up), then [`timestamp`](Self::timestamp) is
/// available for day grouping and [`view`](Self::view) parses the buffered
/// bytes into a borrowed [`MrtRecordView`] on demand.
/// [`next_record`](Self::next_record) does both and rebuilds the owned
/// [`MrtRecord`].
///
/// Errors carry stream offsets. The reader refuses further reads after the
/// first error, framing or parse, because record boundaries are lost.
#[derive(Debug)]
pub struct MrtViewReader<R> {
    inner: R,
    buf: Vec<u8>,
    timestamp: u32,
    mrt_type: u16,
    subtype: u16,
    /// Stream offset of the current record's header.
    record_base: u64,
    /// Stream offset right after the current record.
    offset: u64,
    failed: bool,
}

impl<R: io::Read> MrtViewReader<R> {
    /// Wraps a reader positioned at the start of an MRT stream.
    pub fn new(inner: R) -> Self {
        MrtViewReader {
            inner,
            buf: Vec::new(),
            timestamp: 0,
            mrt_type: 0,
            subtype: 0,
            record_base: 0,
            offset: 0,
            failed: false,
        }
    }

    /// Reads the next record's header and body into the internal buffer
    /// without parsing. Returns `false` at clean end-of-file.
    ///
    /// # Errors
    ///
    /// A framing [`WireError`] (truncation, an oversized length field, or
    /// I/O) with its stream offset. After any error — framing here or parse
    /// in [`view`](Self::view) — further calls return `Ok(false)`.
    pub fn advance(&mut self) -> Result<bool, WireError> {
        if self.failed {
            return Ok(false);
        }
        match self.try_advance() {
            Ok(more) => Ok(more),
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn try_advance(&mut self) -> Result<bool, WireError> {
        let mut header = [0u8; 12];
        match read_exact_or_eof(&mut self.inner, &mut header) {
            Ok(0) => return Ok(false),
            Ok(n) if n < header.len() => {
                return Err(WireError::new(
                    WireErrorKind::Truncated {
                        needed: header.len() - n,
                    },
                    self.offset + n as u64,
                ));
            }
            Ok(_) => {}
            Err(e) => {
                return Err(WireError::new(WireErrorKind::Io(e.kind()), self.offset));
            }
        }
        self.timestamp = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
        self.mrt_type = u16::from_be_bytes([header[4], header[5]]);
        self.subtype = u16::from_be_bytes([header[6], header[7]]);
        let length = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
        if length > MAX_RECORD_LEN {
            return Err(WireError::new(
                WireErrorKind::BadFieldLength {
                    length: length as usize,
                    available: MAX_RECORD_LEN as usize,
                },
                self.offset + 8,
            ));
        }
        self.buf.resize(length as usize, 0);
        match read_exact_or_eof(&mut self.inner, &mut self.buf) {
            Ok(n) if n < self.buf.len() => {
                return Err(WireError::new(
                    WireErrorKind::Truncated {
                        needed: self.buf.len() - n,
                    },
                    self.offset + 12 + n as u64,
                ));
            }
            Ok(_) => {}
            Err(e) => {
                return Err(WireError::new(
                    WireErrorKind::Io(e.kind()),
                    self.offset + 12,
                ));
            }
        }
        self.record_base = self.offset;
        self.offset += 12 + u64::from(length);
        Ok(true)
    }

    /// The buffered record's timestamp — readable before any parsing, so
    /// day grouping can defer the parse across a boundary.
    #[must_use]
    pub fn timestamp(&self) -> u32 {
        self.timestamp
    }

    /// Stream offset of the buffered record's header — where an error about
    /// the record as a whole is reported.
    pub(crate) fn record_offset(&self) -> u64 {
        self.record_base
    }

    /// Parses the buffered record into a borrowed view.
    ///
    /// # Errors
    ///
    /// The record's first parse [`WireError`]; an error also poisons the
    /// reader.
    #[inline]
    pub fn view(&mut self) -> Result<MrtRecordView<'_>, WireError> {
        match MrtRecordView::parse(
            self.timestamp,
            self.mrt_type,
            self.subtype,
            &self.buf,
            self.record_base,
        ) {
            Ok(view) => Ok(view),
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    /// Reads and decodes the next record into owned values:
    /// [`advance`](Self::advance), [`view`](Self::view), then
    /// [`MrtRecordView::to_record`]. `Ok(None)` at clean end-of-file, and
    /// after an error.
    ///
    /// # Errors
    ///
    /// The framing or parse [`WireError`] of the record, with its stream
    /// offset.
    pub fn next_record(&mut self) -> Result<Option<MrtRecord>, WireError> {
        if !self.advance()? {
            return Ok(None);
        }
        self.view().map(|view| Some(view.to_record()))
    }

    /// Total stream bytes consumed so far (framing included) — the
    /// numerator for ingest throughput accounting.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.offset
    }
}

/// Reads until `buf` is full or EOF; returns bytes read.
fn read_exact_or_eof<R: io::Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------------
// Attribute interning
// ---------------------------------------------------------------------------

/// Hash-conses decoded AS paths across records.
///
/// A table dump repeats the same `AS_PATH` bytes across huge numbers of RIB
/// entries; this interner keys each path's wire bytes (per encoding, so a
/// 2-octet and a 4-octet path can never collide) and materialises the owned
/// path once per distinct key.
#[derive(Debug, Clone, Default)]
pub struct AttrInterner {
    paths_two: Interner<AsPath>,
    paths_four: Interner<AsPath>,
}

impl AttrInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        AttrInterner::default()
    }

    /// The interned [`AsPath`] for this block's `AS_PATH` bytes, decoding
    /// it only on first sight.
    pub fn as_path(&mut self, attrs: &AttrsView<'_>) -> &AsPath {
        let table = match attrs.encoding {
            AsnEncoding::TwoOctet => &mut self.paths_two,
            AsnEncoding::FourOctet => &mut self.paths_four,
        };
        table.intern(attrs.as_path_wire(), |_| attrs.to_as_path())
    }

    /// Builds the simulator [`Route`] for `prefix` from a borrowed
    /// attribute block, sharing interned paths. Equal to
    /// `attrs.to_attributes().to_route(prefix)` on the same bytes.
    pub fn to_route(&mut self, attrs: &AttrsView<'_>, prefix: Ipv4Prefix) -> Route {
        let as_path = self.as_path(attrs).clone();
        let mut route = Route::new(prefix, as_path).with_origin(attrs.origin());
        if let Some(lp) = attrs.local_pref() {
            route = route.with_local_pref(lp);
        }
        read_moas_list(route, attrs.communities(), attrs.large_communities())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::MoasList;

    fn sample_route() -> Route {
        let mut list = MoasList::new();
        list.insert(Asn(4));
        list.insert(Asn(226));
        Route::new(
            "208.8.0.0/16".parse().unwrap(),
            AsPath::from_sequence([Asn(701), Asn(1239), Asn(4)]),
        )
        .with_origin(RouteOrigin::Incomplete)
        .with_local_pref(120)
        .with_moas_list(list)
    }

    #[test]
    fn view_decodes_announcement_lazily() {
        let route = sample_route();
        let msg = UpdateMessage::announce(&route);
        for encoding in [AsnEncoding::TwoOctet, AsnEncoding::FourOctet] {
            let bytes = msg.encode(encoding).unwrap();
            let view = UpdateView::parse_exact(&bytes, encoding).unwrap();
            assert_eq!(view.withdrawn().count(), 0);
            let nlri: Vec<Ipv4Prefix> = view.nlri().collect();
            assert_eq!(nlri, vec![route.prefix()]);
            let attrs = view.attrs().unwrap();
            assert_eq!(attrs.origin(), RouteOrigin::Incomplete);
            assert_eq!(attrs.local_pref(), Some(120));
            assert_eq!(attrs.origin_asn(), Some(Asn(4)));
            let asns: Vec<Asn> = attrs.path_asns().collect();
            assert_eq!(asns, vec![Asn(701), Asn(1239), Asn(4)]);
            assert_eq!(view.to_message(), msg);
        }
    }

    #[test]
    fn view_matches_owned_on_withdrawal() {
        let msg = UpdateMessage::withdraw("10.1.0.0/16".parse().unwrap());
        let bytes = msg.encode(AsnEncoding::FourOctet).unwrap();
        let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet).unwrap();
        assert!(view.attrs().is_none());
        assert_eq!(view.to_message(), msg);
    }

    #[test]
    fn origin_asn_is_none_for_set_terminated_paths() {
        let route = Route::new(
            "10.2.0.0/16".parse().unwrap(),
            AsPath::from_segments([
                AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
                AsPathSegment::Set(vec![Asn(7), Asn(9)]),
            ]),
        );
        let bytes = UpdateMessage::announce(&route)
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet).unwrap();
        let attrs = view.attrs().unwrap();
        assert_eq!(attrs.origin_asn(), None);
        assert_eq!(attrs.to_as_path(), *route.as_path());
    }

    #[test]
    fn truncated_bytes_error_like_owned() {
        let bytes = UpdateMessage::announce(&sample_route())
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        // The session dispatcher reads the header on its own path; both must
        // stop at the same byte for the same reason.
        for cut in 0..bytes.len() {
            let session = Message::decode(&bytes[..cut], AsnEncoding::FourOctet).unwrap_err();
            let view = UpdateView::parse_exact(&bytes[..cut], AsnEncoding::FourOctet).unwrap_err();
            assert_eq!(session, view, "cut {cut}");
        }
    }

    #[test]
    fn communities_iterate_in_wire_order() {
        let route = sample_route();
        let bytes = UpdateMessage::announce(&route)
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet).unwrap();
        let attrs = view.attrs().unwrap();
        let from_view: Vec<Community> = attrs.communities().collect();
        assert_eq!(from_view.len(), 2);
        assert_eq!(attrs.to_attributes().communities, from_view);
        let decoded = AttrInterner::new().to_route(attrs, route.prefix());
        assert_eq!(decoded, route);
    }

    #[test]
    fn view_reader_streams_with_one_buffer() {
        let route = sample_route();
        let table = PeerIndexTable {
            collector_id: 9,
            view_name: "lab".into(),
            peers: vec![PeerEntry {
                bgp_id: 1,
                addr: 2,
                asn: Asn(701),
            }],
        };
        let records = vec![
            MrtRecord {
                timestamp: 100,
                body: MrtBody::PeerIndexTable(table),
            },
            MrtRecord {
                timestamp: 100,
                body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                    sequence: 7,
                    prefix: route.prefix(),
                    entries: vec![RibEntry {
                        peer_index: 0,
                        originated_time: 50,
                        attrs: PathAttributes::from_route(&route),
                    }],
                }),
            },
        ];
        let mut bytes = Vec::new();
        for record in &records {
            record.encode_into(&mut bytes).unwrap();
        }
        let mut reader = MrtViewReader::new(&bytes[..]);
        let mut back = Vec::new();
        while reader.advance().unwrap() {
            assert_eq!(reader.timestamp(), 100);
            back.push(reader.view().unwrap().to_record());
        }
        assert_eq!(back, records);
        assert_eq!(reader.bytes_read(), bytes.len() as u64);
    }

    #[test]
    fn view_reader_poisons_after_parse_error() {
        let good = MrtRecord {
            timestamp: 1,
            body: MrtBody::PeerIndexTable(PeerIndexTable::default()),
        };
        let mut bytes = good.encode().unwrap();
        bytes[5] = 99; // unknown MRT type
        let more = good.encode().unwrap();
        bytes.extend_from_slice(&more);
        let mut reader = MrtViewReader::new(&bytes[..]);
        assert!(reader.advance().unwrap());
        assert!(reader.view().is_err());
        assert!(!reader.advance().unwrap(), "reader is poisoned");
    }

    #[test]
    fn bgp4mp_names_an_unsupported_address_family() {
        let record = MrtRecord {
            timestamp: 1,
            body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                peer_asn: Asn(701),
                local_asn: Asn(65_000),
                peer_addr: 1,
                local_addr: 2,
                message: UpdateMessage::withdraw("10.0.0.0/8".parse().unwrap()),
            }),
        };
        // 12-byte MRT header, then 2-octet peer AS, local AS and interface.
        let afi_at = 12 + 6;
        for afi in [2u16, 257] {
            let mut bytes = record.encode().unwrap();
            bytes[afi_at..afi_at + 2].copy_from_slice(&afi.to_be_bytes());
            let err = MrtViewReader::new(&bytes[..]).next_record().unwrap_err();
            assert_eq!(err.kind, WireErrorKind::UnsupportedAfi(afi));
            assert_eq!(err.offset, afi_at as u64);
        }
        let err = WireError::new(WireErrorKind::UnsupportedAfi(2), 18);
        assert_eq!(
            err.to_string(),
            "unsupported BGP4MP address family 2 (IPv4 only) at byte 18"
        );
    }

    #[test]
    fn interner_decodes_repeated_paths_once() {
        let route = sample_route();
        let bytes = UpdateMessage::announce(&route)
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet).unwrap();
        let attrs = *view.attrs().unwrap();
        let mut interner = AttrInterner::new();
        for _ in 0..5 {
            assert_eq!(interner.as_path(&attrs), route.as_path());
            let rebuilt = interner.to_route(&attrs, route.prefix());
            assert_eq!(rebuilt, route);
        }
        assert_eq!(
            (interner.paths_two.len(), interner.paths_four.len()),
            (0, 1)
        );
        // Same bytes under the other encoding key a separate entry.
        let two = UpdateMessage::announce(&route)
            .encode(AsnEncoding::TwoOctet)
            .unwrap();
        let view2 = UpdateView::parse_exact(&two, AsnEncoding::TwoOctet).unwrap();
        interner.as_path(view2.attrs().unwrap());
        assert_eq!(
            (interner.paths_two.len(), interner.paths_four.len()),
            (1, 1)
        );
    }
}
