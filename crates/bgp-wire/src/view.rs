//! The crate's one decoder: validated, borrowed views of BGP and MRT bytes.
//!
//! Parsing a view runs every check the wire format needs, in a fixed order,
//! and reports the first failure as a typed [`WireError`] at its byte
//! offset. That order is part of the contract — a session buffers on
//! [`WireErrorKind::Truncated`] and a CLI prints the offset — and
//! `tests/view_props.rs` and `tests/msg_props.rs` pin it, kind and offset,
//! against a separate spec decoder written from the RFCs
//! (`tests/spec/mod.rs`). A view borrows the record's bytes and decodes
//! fields lazily, on access: once it exists, its iterators
//! ([`UpdateView::nlri`], [`RibView::entries`], [`AttrsView::path_asns`],
//! …) walk the validated bytes infallibly and without allocating. The
//! owned types are each view's `to_*` rebuild, which is all
//! [`UpdateMessage::decode`], [`Message::decode`] and
//! [`MrtViewReader::next_record`] do.
//!
//! Two companions complete the ingest path:
//!
//! * [`MrtViewReader`] — streams MRT records through one reusable buffer,
//!   exposing the timestamp before the body is parsed so callers can group
//!   by day without decoding;
//! * [`AttrInterner`] — hash-conses `AS_PATH` and `COMMUNITIES` wire bytes
//!   into owned values via [`bgp_types::Interner`], so a RIB dump that
//!   repeats the same path ten thousand times decodes it once.

use std::io;

use bgp_types::{
    AsPath, AsPathSegment, Asn, Community, Interner, Ipv4Prefix, Ipv6Prefix, Route, RouteOrigin,
};

use crate::bgp::{
    prefix_octets, AsnEncoding, MpReach, MpUnreach, PathAttributes, UpdateMessage, AFI_IPV6,
    ATTR_AS_PATH, ATTR_COMMUNITIES, ATTR_LOCAL_PREF, ATTR_MP_REACH_NLRI, ATTR_MP_UNREACH_NLRI,
    ATTR_NEXT_HOP, ATTR_ORIGIN, FLAG_EXTENDED_LENGTH, HEADER_LEN, MAX_MESSAGE_LEN,
    MAX_SEGMENT_ASNS, MESSAGE_TYPE_UPDATE, SAFI_UNICAST, SEGMENT_AS_SEQUENCE, SEGMENT_AS_SET,
};
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
// Validation walks (no construction). The order of checks inside each walk
// fixes which error, at which offset, a malformed input reports.
// ---------------------------------------------------------------------------

/// A bounds-checked reader over a byte slice, tracking the absolute offset
/// (`base` + local position) for error reporting.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor::with_base(bytes, 0)
    }

    fn with_base(bytes: &'a [u8], base: u64) -> Self {
        Cursor {
            bytes,
            pos: 0,
            base,
        }
    }

    fn position(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        rest
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(
                WireErrorKind::Truncated {
                    needed: n - self.remaining(),
                },
                self.position(),
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Reads one `<length, prefix>` tuple from a cursor.
fn decode_one_prefix(cur: &mut Cursor<'_>) -> Result<Ipv4Prefix, WireError> {
    let at = cur.position();
    let bits = cur.u8()?;
    if bits > 32 {
        return Err(WireError::new(WireErrorKind::BadPrefixLength(bits), at));
    }
    let body = cur.take(prefix_octets(bits))?;
    let mut octets = [0u8; 4];
    octets[..body.len()].copy_from_slice(body);
    // try_new cannot fail (bits <= 32 was checked), but stay panic-free.
    Ipv4Prefix::try_new(u32::from_be_bytes(octets), bits)
        .map_err(|_| WireError::new(WireErrorKind::BadPrefixLength(bits), at))
}

/// Reads one IPv6 `<length, prefix>` tuple from a cursor.
fn decode_one_prefix6(cur: &mut Cursor<'_>) -> Result<Ipv6Prefix, WireError> {
    let at = cur.position();
    let bits = cur.u8()?;
    if bits > 128 {
        return Err(WireError::new(WireErrorKind::BadPrefixLength(bits), at));
    }
    let body = cur.take(prefix_octets(bits))?;
    let mut octets = [0u8; 16];
    octets[..body.len()].copy_from_slice(body);
    // try_new cannot fail (bits <= 128 was checked), but stay panic-free.
    Ipv6Prefix::try_new(u128::from_be_bytes(octets), bits)
        .map_err(|_| WireError::new(WireErrorKind::BadPrefixLength(bits), at))
}

/// Reads one capability from a cursor positioned at its code byte. The
/// validator and [`CapabilityIter`] share it, so what validates is exactly
/// what iterates.
fn decode_one_capability(cur: &mut Cursor<'_>) -> Result<Capability, WireError> {
    let code = cur.u8()?;
    let len_at = cur.position();
    let len = cur.u8()?;
    let body = cur.take(usize::from(len))?;
    if matches!(code, CAP_MULTIPROTOCOL | CAP_FOUR_OCTET_AS) && len != 4 {
        return Err(WireError::new(
            WireErrorKind::BadCapabilityLength { code, length: len },
            len_at,
        ));
    }
    Ok(match code {
        CAP_MULTIPROTOCOL => match (read_u16(body, 0), body[3]) {
            (1, 1) => Capability::MultiprotocolIpv4Unicast,
            (2, 1) => Capability::MultiprotocolIpv6Unicast,
            _ => Capability::Unknown {
                code,
                data: body.to_vec(),
            },
        },
        CAP_FOUR_OCTET_AS => Capability::FourOctetAs(Asn(read_u32(body, 0))),
        _ => Capability::Unknown {
            code,
            data: body.to_vec(),
        },
    })
}

/// Validates a back-to-back run of `<length, prefix>` tuples.
fn validate_prefix_run(bytes: &[u8], base: u64) -> Result<(), WireError> {
    let mut cur = Cursor::with_base(bytes, base);
    while cur.remaining() > 0 {
        decode_one_prefix(&mut cur)?;
    }
    Ok(())
}

/// Validates an `AS_PATH` body. ASN octets are read, not skipped, so a
/// truncation is reported where the missing octets start, and each
/// segment's type is checked only after its ASNs.
fn validate_as_path(bytes: &[u8], base: u64, encoding: AsnEncoding) -> Result<(), WireError> {
    let mut cur = Cursor::with_base(bytes, base);
    while cur.remaining() > 0 {
        let at = cur.position();
        let seg_type = cur.u8()?;
        let count = usize::from(cur.u8()?);
        for _ in 0..count {
            match encoding {
                AsnEncoding::TwoOctet => {
                    cur.u16()?;
                }
                AsnEncoding::FourOctet => {
                    cur.u32()?;
                }
            }
        }
        if seg_type != SEGMENT_AS_SEQUENCE && seg_type != SEGMENT_AS_SET {
            return Err(WireError::new(WireErrorKind::BadSegmentType(seg_type), at));
        }
    }
    Ok(())
}

/// Validates a back-to-back run of IPv6 `<length, prefix>` tuples.
fn validate_prefix6_run(bytes: &[u8], base: u64) -> Result<(), WireError> {
    let mut cur = Cursor::with_base(bytes, base);
    while cur.remaining() > 0 {
        decode_one_prefix6(&mut cur)?;
    }
    Ok(())
}

/// Validates an `MP_REACH_NLRI` body. Returns whether the attribute applies:
/// IPv6 unicast, or any body in the abbreviated RIB form. Other AFI/SAFI
/// pairs are skipped like any unimplemented optional attribute.
fn validate_mp_reach(body: &[u8], base: u64, rib_form: bool) -> Result<bool, WireError> {
    let mut cur = Cursor::with_base(body, base);
    if rib_form {
        let nh_at = cur.position();
        let nh_len = usize::from(cur.u8()?);
        cur.take(nh_len)?;
        if cur.remaining() > 0 {
            return Err(WireError::new(
                WireErrorKind::BadAttributeLength {
                    type_code: ATTR_MP_REACH_NLRI,
                    length: body.len(),
                },
                nh_at,
            ));
        }
        return Ok(true);
    }
    let afi = cur.u16()?;
    let safi = cur.u8()?;
    let nh_at = cur.position();
    let nh_len = usize::from(cur.u8()?);
    cur.take(nh_len)?;
    cur.u8()?; // reserved (SNPA count)
    if afi != AFI_IPV6 || safi != SAFI_UNICAST {
        return Ok(false);
    }
    if nh_len != 16 && nh_len != 32 {
        return Err(WireError::new(
            WireErrorKind::BadAttributeLength {
                type_code: ATTR_MP_REACH_NLRI,
                length: nh_len,
            },
            nh_at,
        ));
    }
    let nlri_base = cur.position();
    validate_prefix6_run(cur.rest(), nlri_base)?;
    Ok(true)
}

/// Validates an `MP_UNREACH_NLRI` body (other AFI/SAFI pairs are skipped).
fn validate_mp_unreach(body: &[u8], base: u64) -> Result<(), WireError> {
    let mut cur = Cursor::with_base(body, base);
    let afi = cur.u16()?;
    let safi = cur.u8()?;
    if afi != AFI_IPV6 || safi != SAFI_UNICAST {
        return Ok(());
    }
    let run_base = cur.position();
    validate_prefix6_run(cur.rest(), run_base)
}

/// Validates an attribute block. Returns whether it is non-empty: an empty
/// block is a pure withdrawal's.
fn validate_attributes(
    bytes: &[u8],
    base: u64,
    encoding: AsnEncoding,
    rib_form: bool,
) -> Result<bool, WireError> {
    if bytes.is_empty() {
        return Ok(false);
    }
    let mut cur = Cursor::with_base(bytes, base);
    let mut has_origin = false;
    let mut has_as_path = false;
    let mut has_next_hop = false;
    let mut has_mp_reach = false;
    while cur.remaining() > 0 {
        let flags = cur.u8()?;
        let type_code = cur.u8()?;
        let len = if flags & FLAG_EXTENDED_LENGTH != 0 {
            usize::from(cur.u16()?)
        } else {
            usize::from(cur.u8()?)
        };
        let at = cur.position();
        let body = cur.take(len)?;
        let bad_len = || {
            WireError::new(
                WireErrorKind::BadAttributeLength {
                    type_code,
                    length: len,
                },
                at,
            )
        };
        match type_code {
            ATTR_ORIGIN => {
                let &[code] = body else { return Err(bad_len()) };
                if code > 2 {
                    return Err(WireError::new(WireErrorKind::BadOrigin(code), at));
                }
                has_origin = true;
            }
            ATTR_AS_PATH => {
                validate_as_path(body, at, encoding)?;
                has_as_path = true;
            }
            ATTR_NEXT_HOP => {
                if body.len() != 4 {
                    return Err(bad_len());
                }
                has_next_hop = true;
            }
            ATTR_LOCAL_PREF if body.len() != 4 => return Err(bad_len()),
            ATTR_COMMUNITIES if body.len() % 4 != 0 => return Err(bad_len()),
            ATTR_MP_REACH_NLRI => {
                has_mp_reach = validate_mp_reach(body, at, rib_form)? || has_mp_reach;
            }
            ATTR_MP_UNREACH_NLRI => validate_mp_unreach(body, at)?,
            _ => {}
        }
    }
    let end = cur.position();
    let missing = |name| WireError::new(WireErrorKind::MissingAttribute(name), end);
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

/// Validates an OPEN body (the bytes after the 19-byte header). Parameters
/// other than capabilities (deprecated authentication, &c.) are
/// length-checked only.
fn validate_open_body(body: &[u8], base: u64) -> Result<(), WireError> {
    let mut cur = Cursor::with_base(body, base);
    let version_at = cur.position();
    let version = cur.u8()?;
    if version != BGP_VERSION {
        return Err(WireError::new(
            WireErrorKind::BadVersion(version),
            version_at,
        ));
    }
    cur.u16()?; // my_as
    let hold_at = cur.position();
    let hold_time = cur.u16()?;
    if hold_time == 1 || hold_time == 2 {
        return Err(WireError::new(
            WireErrorKind::BadHoldTime(hold_time),
            hold_at,
        ));
    }
    cur.u32()?; // bgp id
    let opt_len = usize::from(cur.u8()?);
    let opt_base = cur.position();
    let opt = cur.take(opt_len)?;
    if cur.remaining() > 0 {
        return Err(WireError::new(
            WireErrorKind::TrailingBytes {
                remaining: cur.remaining(),
            },
            cur.position(),
        ));
    }
    let mut params = Cursor::with_base(opt, opt_base);
    while params.remaining() > 0 {
        let ptype = params.u8()?;
        let plen = usize::from(params.u8()?);
        let pbase = params.position();
        let pbody = params.take(plen)?;
        if ptype == PARAM_CAPABILITIES {
            let mut caps = Cursor::with_base(pbody, pbase);
            while caps.remaining() > 0 {
                decode_one_capability(&mut caps)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Infallible iterators over validated bytes.
//
// Each iterator trusts that its input passed the validation walk above, so
// its bounds checks cannot fire; they still use `get` (never indexing) so a
// misuse degrades to early iterator exhaustion, not a panic.
// ---------------------------------------------------------------------------

/// Iterates a validated run of `<length, prefix>` tuples.
#[derive(Debug, Clone, Copy)]
pub struct PrefixIter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Iterator for PrefixIter<'_> {
    type Item = Ipv4Prefix;

    fn next(&mut self) -> Option<Ipv4Prefix> {
        let bits = *self.bytes.get(self.pos)?;
        let octets = prefix_octets(bits);
        let body = self.bytes.get(self.pos + 1..self.pos + 1 + octets)?;
        self.pos += 1 + octets;
        let mut buf = [0u8; 4];
        buf[..body.len()].copy_from_slice(body);
        Ipv4Prefix::try_new(u32::from_be_bytes(buf), bits).ok()
    }
}

/// Iterates a validated run of IPv6 `<length, prefix>` tuples.
#[derive(Debug, Clone, Copy)]
pub struct Prefix6Iter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Iterator for Prefix6Iter<'_> {
    type Item = Ipv6Prefix;

    fn next(&mut self) -> Option<Ipv6Prefix> {
        let bits = *self.bytes.get(self.pos)?;
        let octets = prefix_octets(bits);
        let body = self.bytes.get(self.pos + 1..self.pos + 1 + octets)?;
        self.pos += 1 + octets;
        let mut buf = [0u8; 16];
        buf[..body.len()].copy_from_slice(body);
        Ipv6Prefix::try_new(u128::from_be_bytes(buf), bits).ok()
    }
}

/// Raw attribute walk: yields `(type_code, body)` per attribute.
#[derive(Debug, Clone, Copy)]
struct RawAttrIter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for RawAttrIter<'a> {
    type Item = (u8, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let flags = *self.bytes.get(self.pos)?;
        let type_code = *self.bytes.get(self.pos + 1)?;
        let (len, header) = if flags & FLAG_EXTENDED_LENGTH != 0 {
            let hi = *self.bytes.get(self.pos + 2)?;
            let lo = *self.bytes.get(self.pos + 3)?;
            (usize::from(u16::from_be_bytes([hi, lo])), 4)
        } else {
            (usize::from(*self.bytes.get(self.pos + 2)?), 3)
        };
        let body = self.bytes.get(self.pos + header..self.pos + header + len)?;
        self.pos += header + len;
        Some((type_code, body))
    }
}

/// Iterates the ASNs of one wire segment.
#[derive(Debug, Clone, Copy)]
pub struct AsnIter<'a> {
    bytes: &'a [u8],
    encoding: AsnEncoding,
}

impl Iterator for AsnIter<'_> {
    type Item = Asn;

    fn next(&mut self) -> Option<Asn> {
        match self.encoding {
            AsnEncoding::TwoOctet => {
                let b = self.bytes.get(..2)?;
                self.bytes = &self.bytes[2..];
                Some(Asn(u32::from(u16::from_be_bytes([b[0], b[1]]))))
            }
            AsnEncoding::FourOctet => {
                let b = self.bytes.get(..4)?;
                self.bytes = &self.bytes[4..];
                Some(Asn(u32::from_be_bytes([b[0], b[1], b[2], b[3]])))
            }
        }
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
    /// Number of ASNs in this wire segment (0..=255).
    #[must_use]
    pub fn count(&self) -> usize {
        self.asns.len() / self.encoding_width()
    }

    /// The segment's ASNs in wire order.
    #[must_use]
    pub fn asns(&self) -> AsnIter<'a> {
        AsnIter {
            bytes: self.asns,
            encoding: self.encoding,
        }
    }

    /// The final ASN of the segment, without iterating.
    #[must_use]
    pub fn last_asn(&self) -> Option<Asn> {
        let width = self.encoding_width();
        let tail = self.asns.get(self.asns.len().checked_sub(width)?..)?;
        AsnIter {
            bytes: tail,
            encoding: self.encoding,
        }
        .next()
    }

    fn encoding_width(&self) -> usize {
        match self.encoding {
            AsnEncoding::TwoOctet => 2,
            AsnEncoding::FourOctet => 4,
        }
    }
}

/// Iterates the raw wire segments of a validated `AS_PATH` body.
#[derive(Debug, Clone, Copy)]
pub struct SegmentIter<'a> {
    bytes: &'a [u8],
    encoding: AsnEncoding,
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = AsPathSegmentView<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let seg_type = *self.bytes.first()?;
        let count = usize::from(*self.bytes.get(1)?);
        let width = match self.encoding {
            AsnEncoding::TwoOctet => 2,
            AsnEncoding::FourOctet => 4,
        };
        let asns = self.bytes.get(2..2 + count * width)?;
        self.bytes = &self.bytes[2 + count * width..];
        Some(AsPathSegmentView {
            is_set: seg_type == SEGMENT_AS_SET,
            asns,
            encoding: self.encoding,
        })
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
/// multiple `COMMUNITIES` attributes concatenate.
#[derive(Debug, Clone, Copy)]
pub struct AttrsView<'a> {
    bytes: &'a [u8],
    encoding: AsnEncoding,
    /// Whether `MP_REACH_NLRI` bodies use the abbreviated `TABLE_DUMP_V2`
    /// RIB-entry form (RFC 6396 §4.3.4) instead of the full RFC 4760 one.
    rib_form: bool,
}

impl<'a> AttrsView<'a> {
    fn raw(&self) -> RawAttrIter<'a> {
        RawAttrIter {
            bytes: self.bytes,
            pos: 0,
        }
    }

    /// The body of the last attribute of `type_code`, the one that wins.
    fn last(&self, type_code: u8) -> Option<&'a [u8]> {
        let mut found = None;
        for (code, body) in self.raw() {
            if code == type_code {
                found = Some(body);
            }
        }
        found
    }

    /// The ASN encoding this block was parsed under.
    #[must_use]
    pub fn encoding(&self) -> AsnEncoding {
        self.encoding
    }

    /// The raw bytes of the whole attribute block.
    #[must_use]
    pub fn wire(&self) -> &'a [u8] {
        self.bytes
    }

    /// The `ORIGIN` attribute.
    #[must_use]
    pub fn origin(&self) -> RouteOrigin {
        self.last(ATTR_ORIGIN).map_or(RouteOrigin::Igp, origin_of)
    }

    /// The `NEXT_HOP` attribute as a raw IPv4 address (0 when absent, as in
    /// an IPv6-only update).
    #[must_use]
    pub fn next_hop(&self) -> u32 {
        self.last(ATTR_NEXT_HOP).map_or(0, |body| read_u32(body, 0))
    }

    /// The `LOCAL_PREF` attribute, when present.
    #[must_use]
    pub fn local_pref(&self) -> Option<u32> {
        self.last(ATTR_LOCAL_PREF).map(|body| read_u32(body, 0))
    }

    /// The wire bytes of the (winning) `AS_PATH` attribute body — the
    /// interning key for [`AttrInterner`].
    #[must_use]
    pub fn as_path_wire(&self) -> &'a [u8] {
        self.last(ATTR_AS_PATH).unwrap_or(&[])
    }

    /// The raw wire segments of the `AS_PATH`, pre-merge.
    #[must_use]
    pub fn segments(&self) -> SegmentIter<'a> {
        SegmentIter {
            bytes: self.as_path_wire(),
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
            if segment.count() > 0 {
                last = Some(segment);
            }
        }
        let segment = last?;
        if segment.is_set {
            None
        } else {
            segment.last_asn()
        }
    }

    /// Every community carried, concatenated across `COMMUNITIES`
    /// attributes in wire order.
    pub fn communities(&self) -> impl Iterator<Item = Community> + 'a {
        self.raw()
            .filter(|&(type_code, _)| type_code == ATTR_COMMUNITIES)
            .flat_map(|(_, body)| communities_of(body))
    }

    /// The wire bytes of the `COMMUNITIES` body when exactly one such
    /// attribute is present (the interning key); `None` when there are zero
    /// or several (fall back to [`AttrsView::communities`]).
    #[must_use]
    pub fn communities_wire(&self) -> Option<&'a [u8]> {
        let mut found = None;
        for (type_code, body) in self.raw() {
            if type_code == ATTR_COMMUNITIES {
                if found.is_some() {
                    return None;
                }
                found = Some(body);
            }
        }
        found
    }

    /// The `MP_REACH_NLRI` attribute for IPv6 unicast, rebuilt owned (its
    /// next hop is variable-length, so there is no borrowed form).
    #[must_use]
    pub fn mp_reach(&self) -> Option<MpReach> {
        self.raw()
            .filter(|&(type_code, _)| type_code == ATTR_MP_REACH_NLRI)
            .filter_map(|(_, body)| mp_reach_of(body, self.rib_form))
            .last()
    }

    /// The IPv6 prefixes withdrawn via `MP_UNREACH_NLRI`.
    #[must_use]
    pub fn mp_unreach(&self) -> Option<MpUnreach> {
        self.raw()
            .filter(|&(type_code, _)| type_code == ATTR_MP_UNREACH_NLRI)
            .filter_map(|(_, body)| mp_unreach_of(body))
            .last()
    }

    /// Rebuilds the owned [`AsPath`], re-joining encoder-split segments.
    #[must_use]
    pub fn to_as_path(&self) -> AsPath {
        as_path_of(self.as_path_wire(), self.encoding)
    }

    /// Rebuilds owned [`PathAttributes`] in one walk of the block, with the
    /// accessors' duplicate-attribute semantics.
    #[must_use]
    pub fn to_attributes(&self) -> PathAttributes {
        let mut origin = RouteOrigin::Igp;
        let mut path: &[u8] = &[];
        let mut next_hop = 0;
        let mut local_pref = None;
        let mut communities = Vec::new();
        let mut mp_reach = None;
        let mut mp_unreach = None;
        for (type_code, body) in self.raw() {
            match type_code {
                ATTR_ORIGIN => origin = origin_of(body),
                ATTR_AS_PATH => path = body,
                ATTR_NEXT_HOP => next_hop = read_u32(body, 0),
                ATTR_LOCAL_PREF => local_pref = Some(read_u32(body, 0)),
                ATTR_COMMUNITIES => communities.extend(communities_of(body)),
                ATTR_MP_REACH_NLRI => mp_reach = mp_reach_of(body, self.rib_form).or(mp_reach),
                ATTR_MP_UNREACH_NLRI => mp_unreach = mp_unreach_of(body).or(mp_unreach),
                _ => {}
            }
        }
        PathAttributes {
            origin,
            as_path: as_path_of(path, self.encoding),
            next_hop,
            local_pref,
            communities,
            mp_reach,
            mp_unreach,
        }
    }
}

/// The route origin a validated `ORIGIN` body names.
fn origin_of(body: &[u8]) -> RouteOrigin {
    match body.first() {
        Some(1) => RouteOrigin::Egp,
        Some(2) => RouteOrigin::Incomplete,
        _ => RouteOrigin::Igp,
    }
}

/// The communities of one validated `COMMUNITIES` body.
fn communities_of(body: &[u8]) -> impl Iterator<Item = Community> + '_ {
    body.chunks_exact(4)
        .map(|chunk| Community(read_u32(chunk, 0)))
}

/// Rebuilds the owned [`AsPath`] of a validated `AS_PATH` body. The encoder
/// splits a logical segment past 255 ASNs into full wire segments, so a
/// full segment followed by one of the same type is re-joined; a non-full
/// predecessor is left alone, because adjacent same-type segments also
/// appear legitimately (aggregated `AS_SET`s) and merging those would
/// change path semantics.
fn as_path_of(wire: &[u8], encoding: AsnEncoding) -> AsPath {
    let wire_segments = SegmentIter {
        bytes: wire,
        encoding,
    };
    let mut segments: Vec<AsPathSegment> = Vec::new();
    let mut prev_full = false;
    for view in wire_segments {
        let count = view.count();
        let asns: Vec<Asn> = view.asns().collect();
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
        prev_full = count == MAX_SEGMENT_ASNS;
    }
    // from_segments canonicalizes (drops empties, merges adjacent
    // sequences), matching what the simulator-side constructors produce.
    AsPath::from_segments(segments)
}

/// The `MP_REACH_NLRI` of a validated body; `None` for an AFI/SAFI pair
/// other than IPv6 unicast (the abbreviated RIB form carries none and
/// always applies).
fn mp_reach_of(body: &[u8], rib_form: bool) -> Option<MpReach> {
    if rib_form {
        let nh_len = usize::from(*body.first()?);
        return Some(MpReach {
            next_hop: body.get(1..1 + nh_len)?.to_vec(),
            nlri: Vec::new(),
        });
    }
    if read_u16(body, 0) != AFI_IPV6 || *body.get(2)? != SAFI_UNICAST {
        return None;
    }
    let nh_len = usize::from(*body.get(3)?);
    let nlri = Prefix6Iter {
        bytes: body.get(5 + nh_len..)?,
        pos: 0,
    };
    Some(MpReach {
        next_hop: body.get(4..4 + nh_len)?.to_vec(),
        nlri: nlri.collect(),
    })
}

/// The `MP_UNREACH_NLRI` of a validated body; `None` for an AFI/SAFI pair
/// other than IPv6 unicast.
fn mp_unreach_of(body: &[u8]) -> Option<MpUnreach> {
    if read_u16(body, 0) != AFI_IPV6 || *body.get(2)? != SAFI_UNICAST {
        return None;
    }
    let withdrawn = Prefix6Iter {
        bytes: body.get(3..)?,
        pos: 0,
    };
    Some(MpUnreach {
        withdrawn: withdrawn.collect(),
    })
}

// ---------------------------------------------------------------------------
// UPDATE message view
// ---------------------------------------------------------------------------

/// Reads the 19-byte BGP header: the all-ones marker, then the message
/// length and type. The length is range-checked only once the type is read.
fn parse_header(cur: &mut Cursor<'_>) -> Result<(usize, u8), WireError> {
    let marker = cur.take(16)?;
    if marker.iter().any(|&b| b != 0xFF) {
        return Err(WireError::new(WireErrorKind::BadMarker, 0));
    }
    let total = usize::from(cur.u16()?);
    let msg_type = cur.u8()?;
    if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&total) {
        return Err(bad_length(total));
    }
    Ok((total, msg_type))
}

/// The error for a header length field of `total` bytes that the message
/// type cannot have.
fn bad_length(total: usize) -> WireError {
    WireError::new(WireErrorKind::BadMessageLength(total as u16), 16)
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
    /// Never panics; returns a [`WireError`] locating the first problem.
    pub fn parse(bytes: &'a [u8], encoding: AsnEncoding) -> Result<(Self, usize), WireError> {
        let mut cur = Cursor::new(bytes);
        let (total, msg_type) = parse_header(&mut cur)?;
        if msg_type != MESSAGE_TYPE_UPDATE {
            return Err(WireError::new(
                WireErrorKind::UnsupportedMessageType(msg_type),
                18,
            ));
        }
        let body = cur.take(total - HEADER_LEN)?;
        let view = Self::parse_body(body, HEADER_LEN as u64, encoding)?;
        Ok((view, total))
    }

    /// Parses (and fully validates) an UPDATE body — the bytes after the
    /// 19-byte header. The NLRI is validated before the attribute block, so
    /// a message bad in both reports its NLRI.
    pub(crate) fn parse_body(
        body: &'a [u8],
        base: u64,
        encoding: AsnEncoding,
    ) -> Result<Self, WireError> {
        let mut body_cur = Cursor::with_base(body, base);
        let withdrawn_len = usize::from(body_cur.u16()?);
        let withdrawn = body_cur.take(withdrawn_len)?;
        validate_prefix_run(withdrawn, base + 2)?;

        let attrs_len = usize::from(body_cur.u16()?);
        let attrs_base = body_cur.position();
        let attr_bytes = body_cur.take(attrs_len)?;
        let nlri_base = body_cur.position();
        let nlri = body_cur.rest();
        validate_prefix_run(nlri, nlri_base)?;

        let has_attrs = validate_attributes(attr_bytes, attrs_base, encoding, false)?;
        if !has_attrs && !nlri.is_empty() {
            return Err(WireError::new(
                WireErrorKind::MissingAttribute("AS_PATH"),
                nlri_base,
            ));
        }

        Ok(UpdateView {
            withdrawn,
            attrs: has_attrs.then_some(AttrsView {
                bytes: attr_bytes,
                encoding,
                rib_form: false,
            }),
            nlri,
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
        PrefixIter {
            bytes: self.withdrawn,
            pos: 0,
        }
    }

    /// The shared path attributes (`None` for a pure withdrawal).
    #[must_use]
    pub fn attrs(&self) -> Option<&AttrsView<'a>> {
        self.attrs.as_ref()
    }

    /// The announced prefixes.
    #[must_use]
    pub fn nlri(&self) -> PrefixIter<'a> {
        PrefixIter {
            bytes: self.nlri,
            pos: 0,
        }
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

// ---------------------------------------------------------------------------
// Session message views (OPEN / NOTIFICATION / KEEPALIVE)
// ---------------------------------------------------------------------------

/// A validated, borrowed BGP OPEN message body.
#[derive(Debug, Clone, Copy)]
pub struct OpenView<'a> {
    body: &'a [u8],
}

impl<'a> OpenView<'a> {
    fn parse_body(body: &'a [u8], base: u64) -> Result<Self, WireError> {
        validate_open_body(body, base)?;
        Ok(OpenView { body })
    }

    /// The BGP version field (always 4 on validated bytes).
    #[must_use]
    pub fn version(&self) -> u8 {
        *self.body.first().unwrap_or(&0)
    }

    /// The raw 2-octet My-AS field ([`crate::msg::AS_TRANS`] when the real
    /// ASN rides in a capability — see [`OpenView::effective_asn`]).
    #[must_use]
    pub fn my_as(&self) -> u16 {
        read_u16(self.body, 1)
    }

    /// Proposed hold time in seconds.
    #[must_use]
    pub fn hold_time(&self) -> u16 {
        read_u16(self.body, 3)
    }

    /// The sender's BGP identifier.
    #[must_use]
    pub fn bgp_id(&self) -> u32 {
        read_u32(self.body, 5)
    }

    /// The announced capabilities, in wire order.
    #[must_use]
    pub fn capabilities(&self) -> CapabilityIter<'a> {
        let opt_len = usize::from(*self.body.get(9).unwrap_or(&0));
        CapabilityIter {
            params: self.body.get(10..10 + opt_len).unwrap_or(&[]),
            caps: &[],
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
            .unwrap_or(Asn(u32::from(self.my_as())))
    }

    /// Rebuilds the owned [`OpenMessage`].
    #[must_use]
    pub fn to_open(&self) -> OpenMessage {
        OpenMessage {
            asn: Asn(u32::from(self.my_as())),
            hold_time: self.hold_time(),
            bgp_id: self.bgp_id(),
            capabilities: self.capabilities().collect(),
        }
    }
}

/// Iterates the capabilities of a validated OPEN's optional parameters,
/// crossing parameter boundaries (several type-2 parameters concatenate).
#[derive(Debug, Clone, Copy)]
pub struct CapabilityIter<'a> {
    params: &'a [u8],
    caps: &'a [u8],
}

impl Iterator for CapabilityIter<'_> {
    type Item = Capability;

    fn next(&mut self) -> Option<Capability> {
        while self.caps.is_empty() {
            let ptype = *self.params.first()?;
            let plen = usize::from(*self.params.get(1)?);
            let pbody = self.params.get(2..2 + plen)?;
            self.params = &self.params[2 + plen..];
            if ptype == PARAM_CAPABILITIES {
                self.caps = pbody;
            }
        }
        let mut cur = Cursor::new(self.caps);
        let capability = decode_one_capability(&mut cur).ok()?;
        self.caps = cur.rest();
        Some(capability)
    }
}

/// A validated, borrowed BGP NOTIFICATION message body.
#[derive(Debug, Clone, Copy)]
pub struct NotificationView<'a> {
    body: &'a [u8],
}

impl<'a> NotificationView<'a> {
    fn parse_body(body: &'a [u8], base: u64) -> Result<Self, WireError> {
        let mut cur = Cursor::with_base(body, base);
        let code_at = cur.position();
        let code = cur.u8()?;
        if !(1..=6).contains(&code) {
            return Err(WireError::new(
                WireErrorKind::BadNotificationCode(code),
                code_at,
            ));
        }
        cur.u8()?; // subcode
        Ok(NotificationView { body })
    }

    /// Error code (see [`crate::msg::notif`]).
    #[must_use]
    pub fn code(&self) -> u8 {
        *self.body.first().unwrap_or(&0)
    }

    /// Error subcode.
    #[must_use]
    pub fn subcode(&self) -> u8 {
        *self.body.get(1).unwrap_or(&0)
    }

    /// Diagnostic data, verbatim.
    #[must_use]
    pub fn data(&self) -> &'a [u8] {
        self.body.get(2..).unwrap_or(&[])
    }

    /// Rebuilds the owned [`NotificationMessage`].
    #[must_use]
    pub fn to_notification(&self) -> NotificationMessage {
        NotificationMessage {
            code: self.code(),
            subcode: self.subcode(),
            data: self.data().to_vec(),
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
        let mut cur = Cursor::new(bytes);
        let (total, msg_type) = parse_header(&mut cur)?;
        let body = cur.take(total - HEADER_LEN)?;
        let base = HEADER_LEN as u64;
        let view = match msg_type {
            MESSAGE_TYPE_OPEN => {
                if body.len() < MIN_OPEN_LEN - HEADER_LEN {
                    return Err(bad_length(total));
                }
                MessageView::Open(OpenView::parse_body(body, base)?)
            }
            MESSAGE_TYPE_UPDATE => {
                MessageView::Update(UpdateView::parse_body(body, base, encoding)?)
            }
            MESSAGE_TYPE_NOTIFICATION => {
                if body.len() < MIN_NOTIFICATION_LEN - HEADER_LEN {
                    return Err(bad_length(total));
                }
                MessageView::Notification(NotificationView::parse_body(body, base)?)
            }
            MESSAGE_TYPE_KEEPALIVE => {
                if !body.is_empty() {
                    return Err(bad_length(total));
                }
                MessageView::Keepalive
            }
            other => {
                return Err(WireError::new(
                    WireErrorKind::UnsupportedMessageType(other),
                    18,
                ));
            }
        };
        Ok((view, total))
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
    body: &'a [u8],
}

impl<'a> PeerIndexTableView<'a> {
    fn parse(body: &'a [u8], base: u64) -> Result<Self, WireError> {
        let mut cur = Cursor::with_base(body, base);
        cur.u32()?; // collector id
        let name_len = usize::from(cur.u16()?);
        cur.take(name_len)?;
        let peer_count = usize::from(cur.u16()?);
        for _ in 0..peer_count {
            let at = cur.position();
            let peer_type = cur.u8()?;
            // Bit 0: IPv6 address; bit 1: 4-octet ASN. Only IPv4 is supported.
            if peer_type & 0x01 != 0 {
                return Err(WireError::new(
                    WireErrorKind::UnsupportedPeerType(peer_type),
                    at,
                ));
            }
            cur.u32()?; // bgp id
            cur.u32()?; // addr
            if peer_type & 0x02 != 0 {
                cur.u32()?;
            } else {
                cur.u16()?;
            }
        }
        expect_consumed(&cur)?;
        Ok(PeerIndexTableView { body })
    }

    /// The collector's BGP identifier.
    #[must_use]
    pub fn collector_id(&self) -> u32 {
        read_u32(self.body, 0)
    }

    /// The raw view-name bytes.
    #[must_use]
    pub fn view_name_bytes(&self) -> &'a [u8] {
        let name_len = usize::from(read_u16(self.body, 4));
        self.body.get(6..6 + name_len).unwrap_or(&[])
    }

    /// Number of peers in the roster.
    #[must_use]
    pub fn peer_count(&self) -> usize {
        let name_len = usize::from(read_u16(self.body, 4));
        usize::from(read_u16(self.body, 6 + name_len))
    }

    /// The peers, in index order.
    #[must_use]
    pub fn peers(&self) -> PeerIter<'a> {
        let name_len = usize::from(read_u16(self.body, 4));
        PeerIter {
            bytes: self.body.get(8 + name_len..).unwrap_or(&[]),
        }
    }

    /// Rebuilds the owned [`PeerIndexTable`].
    #[must_use]
    pub fn to_table(&self) -> PeerIndexTable {
        PeerIndexTable {
            collector_id: self.collector_id(),
            view_name: String::from_utf8_lossy(self.view_name_bytes()).into_owned(),
            peers: self.peers().collect(),
        }
    }
}

/// Iterates the peers of a validated `PEER_INDEX_TABLE`.
#[derive(Debug, Clone, Copy)]
pub struct PeerIter<'a> {
    bytes: &'a [u8],
}

impl Iterator for PeerIter<'_> {
    type Item = PeerEntry;

    fn next(&mut self) -> Option<PeerEntry> {
        let peer_type = *self.bytes.first()?;
        let wide = peer_type & 0x02 != 0;
        let entry_len = if wide { 13 } else { 11 };
        let entry = self.bytes.get(..entry_len)?;
        self.bytes = &self.bytes[entry_len..];
        Some(PeerEntry {
            bgp_id: read_u32(entry, 1),
            addr: read_u32(entry, 5),
            asn: Asn(if wide {
                read_u32(entry, 9)
            } else {
                u32::from(read_u16(entry, 9))
            }),
        })
    }
}

/// A validated, borrowed `RIB_IPV4_UNICAST` record body.
#[derive(Debug, Clone, Copy)]
pub struct RibView<'a> {
    sequence: u32,
    prefix: Ipv4Prefix,
    entry_count: usize,
    entries: &'a [u8],
}

impl<'a> RibView<'a> {
    fn parse(body: &'a [u8], base: u64) -> Result<Self, WireError> {
        let mut cur = Cursor::with_base(body, base);
        let sequence = cur.u32()?;
        let prefix = decode_one_prefix(&mut cur)?;
        let entry_count = usize::from(cur.u16()?);
        let entries_base = cur.position();
        let entries = cur.rest();
        validate_rib_entries(entries, entries_base, entry_count)?;
        Ok(RibView {
            sequence,
            prefix,
            entry_count,
            entries,
        })
    }

    /// Record sequence number.
    #[must_use]
    pub fn sequence(&self) -> u32 {
        self.sequence
    }

    /// The prefix all entries describe.
    #[must_use]
    pub fn prefix(&self) -> Ipv4Prefix {
        self.prefix
    }

    /// Number of per-peer entries.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// The per-peer entries, in record order.
    #[must_use]
    pub fn entries(&self) -> RibEntryIter<'a> {
        RibEntryIter {
            bytes: self.entries,
        }
    }

    /// Rebuilds the owned [`RibIpv4Unicast`].
    #[must_use]
    pub fn to_rib(&self) -> RibIpv4Unicast {
        RibIpv4Unicast {
            sequence: self.sequence,
            prefix: self.prefix,
            entries: self.entries().map(RibEntryView::to_entry).collect(),
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

/// Validates the `entry_count` entries of a RIB record, then that nothing
/// follows them: an error inside an entry is reported before trailing
/// bytes.
fn validate_rib_entries(entries: &[u8], base: u64, entry_count: usize) -> Result<(), WireError> {
    let mut cur = Cursor::with_base(entries, base);
    for _ in 0..entry_count {
        cur.u16()?; // peer index
        cur.u32()?; // originated time
        let attr_len = usize::from(cur.u16()?);
        let attrs_base = cur.position();
        let attr_bytes = cur.take(attr_len)?;
        // RFC 6396 §4.3.4: 4-octet ASNs and the abbreviated MP_REACH_NLRI.
        if !validate_attributes(attr_bytes, attrs_base, AsnEncoding::FourOctet, true)? {
            return Err(WireError::new(
                WireErrorKind::MissingAttribute("AS_PATH"),
                attrs_base,
            ));
        }
    }
    expect_consumed(&cur)
}

/// Iterates the entries of a validated `RIB_IPV4_UNICAST` or
/// `RIB_IPV6_UNICAST` record.
#[derive(Debug, Clone, Copy)]
pub struct RibEntryIter<'a> {
    bytes: &'a [u8],
}

impl<'a> Iterator for RibEntryIter<'a> {
    type Item = RibEntryView<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let head = self.bytes.get(..8)?;
        let attr_len = usize::from(read_u16(head, 6));
        let attrs = self.bytes.get(8..8 + attr_len)?;
        self.bytes = &self.bytes[8 + attr_len..];
        Some(RibEntryView {
            peer_index: read_u16(head, 0),
            originated_time: read_u32(head, 2),
            attrs: AttrsView {
                bytes: attrs,
                encoding: AsnEncoding::FourOctet,
                rib_form: true,
            },
        })
    }
}

/// A validated, borrowed `RIB_IPV6_UNICAST` record body.
#[derive(Debug, Clone, Copy)]
pub struct Rib6View<'a> {
    sequence: u32,
    prefix: Ipv6Prefix,
    entry_count: usize,
    entries: &'a [u8],
}

impl<'a> Rib6View<'a> {
    fn parse(body: &'a [u8], base: u64) -> Result<Self, WireError> {
        let mut cur = Cursor::with_base(body, base);
        let sequence = cur.u32()?;
        let prefix = decode_one_prefix6(&mut cur)?;
        let entry_count = usize::from(cur.u16()?);
        let entries_base = cur.position();
        let entries = cur.rest();
        validate_rib_entries(entries, entries_base, entry_count)?;
        Ok(Rib6View {
            sequence,
            prefix,
            entry_count,
            entries,
        })
    }

    /// Record sequence number.
    #[must_use]
    pub fn sequence(&self) -> u32 {
        self.sequence
    }

    /// The prefix all entries describe.
    #[must_use]
    pub fn prefix(&self) -> Ipv6Prefix {
        self.prefix
    }

    /// Number of per-peer entries.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// The per-peer entries, in record order.
    #[must_use]
    pub fn entries(&self) -> RibEntryIter<'a> {
        RibEntryIter {
            bytes: self.entries,
        }
    }

    /// Rebuilds the owned [`RibIpv6Unicast`].
    #[must_use]
    pub fn to_rib(&self) -> RibIpv6Unicast {
        RibIpv6Unicast {
            sequence: self.sequence,
            prefix: self.prefix,
            entries: self.entries().map(RibEntryView::to_entry).collect(),
        }
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
    fn parse(body: &'a [u8], base: u64, as4: bool) -> Result<Self, WireError> {
        let mut cur = Cursor::with_base(body, base);
        let (peer_asn, local_asn) = if as4 {
            (cur.u32()?, cur.u32()?)
        } else {
            (u32::from(cur.u16()?), u32::from(cur.u16()?))
        };
        let _interface = cur.u16()?;
        let afi_at = cur.position();
        let afi = cur.u16()?;
        if afi != AFI_IPV4 {
            return Err(WireError::new(WireErrorKind::UnsupportedAfi(afi), afi_at));
        }
        let peer_addr = cur.u32()?;
        let local_addr = cur.u32()?;
        let msg_base = cur.position();
        let encoding = if as4 {
            AsnEncoding::FourOctet
        } else {
            AsnEncoding::TwoOctet
        };
        let update =
            UpdateView::parse_exact(cur.rest(), encoding).map_err(|e| e.at_base(msg_base))?;
        Ok(Bgp4mpView {
            peer_asn: Asn(peer_asn),
            local_asn: Asn(local_asn),
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
    RibIpv6Unicast(Rib6View<'a>),
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
        let body_base = base + 12;
        let body = match (mrt_type, subtype) {
            (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE) => {
                MrtBodyView::PeerIndexTable(PeerIndexTableView::parse(body, body_base)?)
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST) => {
                MrtBodyView::RibIpv4Unicast(RibView::parse(body, body_base)?)
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV6_UNICAST) => {
                MrtBodyView::RibIpv6Unicast(Rib6View::parse(body, body_base)?)
            }
            (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE) => {
                MrtBodyView::Bgp4mpMessage(Bgp4mpView::parse(body, body_base, false)?)
            }
            (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4) => {
                MrtBodyView::Bgp4mpMessage(Bgp4mpView::parse(body, body_base, true)?)
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

fn expect_consumed(cur: &Cursor<'_>) -> Result<(), WireError> {
    if cur.remaining() > 0 {
        return Err(WireError::new(
            WireErrorKind::TrailingBytes {
                remaining: cur.remaining(),
            },
            cur.position(),
        ));
    }
    Ok(())
}

/// Big-endian `u16` at `at`; 0 on out-of-bounds (unreachable on validated
/// bytes).
fn read_u16(bytes: &[u8], at: usize) -> u16 {
    match bytes.get(at..at + 2) {
        Some(b) => u16::from_be_bytes([b[0], b[1]]),
        None => 0,
    }
}

/// Big-endian `u32` at `at`; 0 on out-of-bounds (unreachable on validated
/// bytes).
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    match bytes.get(at..at + 4) {
        Some(b) => u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
        None => 0,
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

/// Hash-conses decoded attribute values across records.
///
/// A table dump repeats the same `AS_PATH` and `COMMUNITIES` bytes across
/// huge numbers of RIB entries; this interner keys each attribute's wire
/// bytes (per encoding, so a 2-octet and a 4-octet block can never collide)
/// and materialises the owned value once per distinct key.
#[derive(Debug, Clone, Default)]
pub struct AttrInterner {
    paths_two: Interner<AsPath>,
    paths_four: Interner<AsPath>,
    communities: Interner<Vec<Community>>,
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
        let table = match attrs.encoding() {
            AsnEncoding::TwoOctet => &mut self.paths_two,
            AsnEncoding::FourOctet => &mut self.paths_four,
        };
        table.intern(attrs.as_path_wire(), |_| attrs.to_as_path())
    }

    /// The communities of this block, cloned from the interned value (or
    /// collected directly in the no-/multi-attribute corner cases).
    pub fn communities(&mut self, attrs: &AttrsView<'_>) -> Vec<Community> {
        match attrs.communities_wire() {
            Some([]) => Vec::new(),
            Some(bytes) => self
                .communities
                .intern(bytes, |_| attrs.communities().collect())
                .clone(),
            None => attrs.communities().collect(),
        }
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
        for community in attrs.communities() {
            route = route.with_community(community);
        }
        route
    }

    /// Number of distinct AS paths interned so far (both encodings).
    #[must_use]
    pub fn unique_paths(&self) -> usize {
        self.paths_two.len() + self.paths_four.len()
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
        assert_eq!(from_view, route.communities());
        assert!(attrs.communities_wire().is_some());
        let list = MoasList::from_communities(&from_view).unwrap();
        assert!(list.contains(Asn(4)) && list.contains(Asn(226)));
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
        assert_eq!(interner.unique_paths(), 1);
        // Same bytes under the other encoding key a separate entry.
        let two = UpdateMessage::announce(&route)
            .encode(AsnEncoding::TwoOctet)
            .unwrap();
        let view2 = UpdateView::parse_exact(&two, AsnEncoding::TwoOctet).unwrap();
        interner.as_path(view2.attrs().unwrap());
        assert_eq!(interner.unique_paths(), 2);
    }
}
