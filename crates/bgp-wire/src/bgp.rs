//! RFC 4271 BGP UPDATE messages, with RFC 1997 and RFC 8092 communities.
//!
//! The owned types cover exactly the attributes the MOAS study needs:
//! `ORIGIN`, `AS_PATH` (2- and 4-octet), `NEXT_HOP`, `LOCAL_PREF`,
//! `COMMUNITIES` and `LARGE_COMMUNITY` — the two attributes that carry the
//! paper's MOAS list (one community per list member; see
//! [`crate::MOAS_LIST_VALUE`]).
//!
//! This module encodes. Decoding is [`UpdateView`]'s job — the crate's one
//! parser — and [`UpdateMessage::decode`] is its owned rebuild: panic-free
//! on arbitrary bytes, with failures reported as [`WireError`] at the byte
//! offset of the problem.

use bgp_types::{
    AsPath, Asn, Community, Ipv4Prefix, Ipv6Prefix, Route, RouteOrigin, SegmentKind, Update,
};

use crate::community::{read_moas_list, write_moas_list, LargeCommunity};
use crate::error::{WireError, WireErrorKind};
use crate::view::UpdateView;

/// BGP message type code for UPDATE.
pub const MESSAGE_TYPE_UPDATE: u8 = 2;
/// Size of the fixed BGP message header (marker + length + type).
pub const HEADER_LEN: usize = 19;
/// Largest BGP message RFC 4271 allows.
pub const MAX_MESSAGE_LEN: usize = 4096;

pub(crate) const ATTR_ORIGIN: u8 = 1;
pub(crate) const ATTR_AS_PATH: u8 = 2;
pub(crate) const ATTR_NEXT_HOP: u8 = 3;
pub(crate) const ATTR_LOCAL_PREF: u8 = 5;
pub(crate) const ATTR_COMMUNITIES: u8 = 8;
pub(crate) const ATTR_MP_REACH_NLRI: u8 = 14;
pub(crate) const ATTR_MP_UNREACH_NLRI: u8 = 15;
pub(crate) const ATTR_LARGE_COMMUNITIES: u8 = 32;

/// RFC 4760 address family identifier for IPv6.
pub(crate) const AFI_IPV6: u16 = 2;
/// RFC 4760 subsequent address family identifier for unicast.
pub(crate) const SAFI_UNICAST: u8 = 1;

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
pub(crate) const FLAG_EXTENDED_LENGTH: u8 = 0x10;

pub(crate) const SEGMENT_AS_SET: u8 = 1;
pub(crate) const SEGMENT_AS_SEQUENCE: u8 = 2;

/// RFC 4271 caps an AS_PATH segment's ASN count at one byte; longer logical
/// segments are split on encode and re-joined on decode.
pub(crate) const MAX_SEGMENT_ASNS: usize = 255;

/// How ASNs are laid out inside `AS_PATH`.
///
/// Classic BGP carries 2-octet ASNs; RFC 6793 speakers carry 4 octets
/// (`AS4_PATH` semantics folded into `AS_PATH`, as MRT's `AS4` subtypes do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AsnEncoding {
    /// 2-octet ASNs; encoding an ASN above 65535 fails with
    /// [`WireErrorKind::AsnTooWide`].
    TwoOctet,
    /// 4-octet ASNs.
    #[default]
    FourOctet,
}

/// RFC 4760 `MP_REACH_NLRI` payload for IPv6 unicast (AFI 2, SAFI 1).
///
/// Inside a live UPDATE the attribute carries its own AFI/SAFI, next hop
/// *and* the announced prefixes; inside a `TABLE_DUMP_V2` RIB entry
/// (RFC 6396 §4.3.4) it is abbreviated to just the next hop — the prefix
/// lives in the enclosing RIB record. Both forms decode into this struct
/// (the abbreviated one with empty `nlri`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpReach {
    /// The next-hop address bytes (16 for a global address, 32 when a
    /// link-local address rides along).
    pub next_hop: Vec<u8>,
    /// Announced IPv6 prefixes (empty in the MRT RIB form).
    pub nlri: Vec<Ipv6Prefix>,
}

/// RFC 4760 `MP_UNREACH_NLRI` payload for IPv6 unicast (AFI 2, SAFI 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpUnreach {
    /// Withdrawn IPv6 prefixes.
    pub withdrawn: Vec<Ipv6Prefix>,
}

/// The path attributes this crate round-trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAttributes {
    /// `ORIGIN` (type 1).
    pub origin: RouteOrigin,
    /// `AS_PATH` (type 2).
    pub as_path: AsPath,
    /// `NEXT_HOP` (type 3), as a raw IPv4 address. The simulator routes at
    /// AS granularity and has no router addresses, so exports synthesize
    /// one; see [`PathAttributes::synthetic_next_hop`]. Zero when the
    /// update is IPv6-only (reachability in `mp_reach`, which carries its
    /// own next hop).
    pub next_hop: u32,
    /// `LOCAL_PREF` (type 5), when present.
    pub local_pref: Option<u32>,
    /// `COMMUNITIES` (type 8), concatenated across repeats: the MOAS-list
    /// members that fit a classic community, and every other community.
    pub communities: Vec<Community>,
    /// `LARGE_COMMUNITY` (type 32, RFC 8092), concatenated across repeats:
    /// the MOAS-list members too wide for a classic community.
    pub large_communities: Vec<LargeCommunity>,
    /// `MP_REACH_NLRI` (type 14) for IPv6 unicast, when present. Other
    /// AFI/SAFI pairs are skipped like any unimplemented optional attribute.
    pub mp_reach: Option<MpReach>,
    /// `MP_UNREACH_NLRI` (type 15) for IPv6 unicast, when present.
    pub mp_unreach: Option<MpUnreach>,
}

impl PathAttributes {
    /// Captures a simulator route's attributes: its communities, then its
    /// MOAS list in wire form.
    #[must_use]
    pub fn from_route(route: &Route) -> Self {
        let mut communities = route.communities().to_vec();
        let mut large_communities = Vec::new();
        if let Some(list) = route.moas_list() {
            write_moas_list(list, &mut communities, &mut large_communities);
        }
        PathAttributes {
            origin: route.origin(),
            as_path: route.as_path().clone(),
            next_hop: Self::synthetic_next_hop(route.as_path().first()),
            local_pref: Some(route.local_pref()),
            communities,
            large_communities,
            mp_reach: None,
            mp_unreach: None,
        }
    }

    /// The next-hop address exports fabricate for a route learned from
    /// `neighbor`: `10.x.y.z` built from the neighbor's ASN, or `10.0.0.1`
    /// for locally originated routes. Purely cosmetic — the import path
    /// never reads it back.
    #[must_use]
    pub fn synthetic_next_hop(neighbor: Option<Asn>) -> u32 {
        match neighbor {
            Some(asn) => (10 << 24) | (asn.0 & 0x00FF_FFFF),
            None => (10 << 24) | 1,
        }
    }

    /// Rebuilds a simulator route for `prefix` from these attributes, with
    /// the MOAS-list members of both community forms as its list.
    #[must_use]
    pub fn to_route(&self, prefix: Ipv4Prefix) -> Route {
        let mut route = Route::new(prefix, self.as_path.clone()).with_origin(self.origin);
        if let Some(lp) = self.local_pref {
            route = route.with_local_pref(lp);
        }
        read_moas_list(
            route,
            self.communities.iter().copied(),
            self.large_communities.iter().copied(),
        )
    }
}

/// A BGP UPDATE message: withdrawals, shared path attributes, and the
/// prefixes (NLRI) announced with them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateMessage {
    /// Withdrawn routes.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Attributes shared by every announced prefix. `None` for pure
    /// withdrawals; mandatory whenever `nlri` is non-empty.
    pub attrs: Option<PathAttributes>,
    /// Announced prefixes.
    pub nlri: Vec<Ipv4Prefix>,
}

impl UpdateMessage {
    /// An UPDATE announcing one simulator route.
    #[must_use]
    pub fn announce(route: &Route) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(PathAttributes::from_route(route)),
            nlri: vec![route.prefix()],
        }
    }

    /// An UPDATE withdrawing one prefix.
    #[must_use]
    pub fn withdraw(prefix: Ipv4Prefix) -> Self {
        UpdateMessage {
            withdrawn: vec![prefix],
            attrs: None,
            nlri: Vec::new(),
        }
    }

    /// An UPDATE for a simulator [`Update`].
    #[must_use]
    pub fn from_update(update: &Update) -> Self {
        match update {
            Update::Announce(route) => UpdateMessage::announce(route),
            Update::Withdraw(prefix) => UpdateMessage::withdraw(*prefix),
        }
    }

    /// Expands the message back into simulator [`Update`]s (withdrawals
    /// first, then one announcement per NLRI prefix, as RFC 4271 orders the
    /// message body).
    #[must_use]
    pub fn updates(&self) -> Vec<Update> {
        let mut out: Vec<Update> = self
            .withdrawn
            .iter()
            .copied()
            .map(Update::withdraw)
            .collect();
        if let Some(attrs) = &self.attrs {
            out.extend(
                self.nlri
                    .iter()
                    .map(|&p| Update::announce(attrs.to_route(p))),
            );
        }
        out
    }

    /// Encodes the full message, marker and header included.
    ///
    /// # Errors
    ///
    /// Fails with [`WireErrorKind::AsnTooWide`] if a path ASN does not fit
    /// `encoding`, [`WireErrorKind::MissingAttribute`] if NLRI is present
    /// without attributes, or [`WireErrorKind::BadMessageLength`] if the
    /// result would exceed RFC 4271's 4096-byte cap.
    pub fn encode(&self, encoding: AsnEncoding) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.encode_into(&mut out, encoding)?;
        Ok(out)
    }

    /// Appends the encoded message to `out` without intermediate
    /// allocations: sections are written in place and their length fields
    /// backpatched. On error `out` is restored to its previous length.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`UpdateMessage::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>, encoding: AsnEncoding) -> Result<(), WireError> {
        let start = out.len();
        self.encode_into_unguarded(out, encoding)
            .inspect_err(|_| out.truncate(start))
    }

    fn encode_into_unguarded(
        &self,
        out: &mut Vec<u8>,
        encoding: AsnEncoding,
    ) -> Result<(), WireError> {
        if self.attrs.is_none() && !self.nlri.is_empty() {
            return Err(WireError::new(
                WireErrorKind::MissingAttribute("AS_PATH"),
                0,
            ));
        }

        let start = out.len();
        out.extend_from_slice(&[0xFF; 16]);
        let total_at = reserve_u16(out);
        out.push(MESSAGE_TYPE_UPDATE);

        let withdrawn_at = reserve_u16(out);
        for &prefix in &self.withdrawn {
            encode_prefix(out, prefix);
        }
        // Every length below is checked, never cast: a section that does not
        // fit its length field is a typed error, not a silent truncation.
        let withdrawn_len = checked_u16("withdrawn routes section", out.len() - withdrawn_at - 2)?;
        patch_u16(out, withdrawn_at, withdrawn_len);

        let attrs_at = reserve_u16(out);
        if let Some(pa) = &self.attrs {
            encode_attributes(out, pa, encoding)?;
        }
        let attrs_len = checked_u16("path attributes section", out.len() - attrs_at - 2)?;
        patch_u16(out, attrs_at, attrs_len);

        for &prefix in &self.nlri {
            encode_prefix(out, prefix);
        }

        let total = out.len() - start;
        if total > MAX_MESSAGE_LEN {
            return Err(WireError::new(
                WireErrorKind::LengthOverflow {
                    field: "BGP message",
                    length: total,
                    max: MAX_MESSAGE_LEN,
                },
                0,
            ));
        }
        patch_u16(out, total_at, checked_u16("BGP message", total)?);
        Ok(())
    }

    /// Decodes one full message (marker and header included) from the start
    /// of `bytes`, requiring that nothing follows it: the owned rebuild of
    /// [`UpdateView::parse_exact`].
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem.
    pub fn decode(bytes: &[u8], encoding: AsnEncoding) -> Result<UpdateMessage, WireError> {
        UpdateView::parse_exact(bytes, encoding).map(|view| view.to_message())
    }

    /// Decodes one message from the start of `bytes`, returning it and the
    /// number of bytes it occupied (for reading back-to-back messages): the
    /// owned rebuild of [`UpdateView::parse`].
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem.
    pub fn decode_prefix_of(
        bytes: &[u8],
        encoding: AsnEncoding,
    ) -> Result<(UpdateMessage, usize), WireError> {
        let (view, used) = UpdateView::parse(bytes, encoding)?;
        Ok((view.to_message(), used))
    }
}

/// Writes one RFC 4271 `<length, prefix>` tuple.
pub(crate) fn encode_prefix(out: &mut Vec<u8>, prefix: Ipv4Prefix) {
    out.push(prefix.len());
    let octets = prefix.network().to_be_bytes();
    out.extend_from_slice(&octets[..prefix_octets(prefix.len())]);
}

pub(crate) fn prefix_octets(bits: u8) -> usize {
    usize::from(bits).div_ceil(8)
}

/// Writes one IPv6 `<length, prefix>` tuple.
pub(crate) fn encode_prefix6(out: &mut Vec<u8>, prefix: Ipv6Prefix) {
    out.push(prefix.len());
    let octets = prefix.network().to_be_bytes();
    out.extend_from_slice(&octets[..prefix_octets(prefix.len())]);
}

/// Reserves a 2-byte length field in `out`, returning its offset for
/// [`patch_u16`] once the section it describes has been written.
pub(crate) fn reserve_u16(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    at
}

/// Backpatches a length field reserved by [`reserve_u16`].
pub(crate) fn patch_u16(out: &mut [u8], at: usize, value: u16) {
    out[at..at + 2].copy_from_slice(&value.to_be_bytes());
}

/// Converts a length to `u16`, failing with a typed [`WireError`] instead of
/// truncating when it does not fit the wire format's 2-byte length field.
pub(crate) fn checked_u16(field: &'static str, length: usize) -> Result<u16, WireError> {
    u16::try_from(length).map_err(|_| {
        WireError::new(
            WireErrorKind::LengthOverflow {
                field,
                length,
                max: usize::from(u16::MAX),
            },
            0,
        )
    })
}

/// Writes one path attribute, selecting the extended-length form (2-byte
/// length) whenever the body exceeds the 1-byte field.
///
/// Fails with [`WireErrorKind::LengthOverflow`] when the body exceeds even
/// the extended 2-byte length field — an attribute that large cannot be
/// represented in RFC 4271 at all, so truncating its length would corrupt
/// the attribute block.
fn push_attr(out: &mut Vec<u8>, flags: u8, type_code: u8, body: &[u8]) -> Result<(), WireError> {
    if body.len() > 255 {
        let len = checked_u16("path attribute body", body.len())?;
        out.push(flags | FLAG_EXTENDED_LENGTH);
        out.push(type_code);
        out.extend_from_slice(&len.to_be_bytes());
    } else {
        out.push(flags);
        out.push(type_code);
        out.push(body.len() as u8);
    }
    out.extend_from_slice(body);
    Ok(())
}

fn encode_asn(out: &mut Vec<u8>, asn: Asn, encoding: AsnEncoding) -> Result<(), WireError> {
    match encoding {
        AsnEncoding::TwoOctet => {
            let narrow = u16::try_from(asn.0)
                .map_err(|_| WireError::new(WireErrorKind::AsnTooWide(asn.0), 0))?;
            out.extend_from_slice(&narrow.to_be_bytes());
        }
        AsnEncoding::FourOctet => out.extend_from_slice(&asn.0.to_be_bytes()),
    }
    Ok(())
}

/// Encodes the attribute block (without the leading total-length field).
/// Multiprotocol attributes are written in the full RFC 4760 form; see
/// [`encode_attributes_rib`] for the abbreviated MRT RIB form.
pub(crate) fn encode_attributes(
    out: &mut Vec<u8>,
    attrs: &PathAttributes,
    encoding: AsnEncoding,
) -> Result<(), WireError> {
    encode_attributes_form(out, attrs, encoding, false)
}

/// [`encode_attributes`] in the `TABLE_DUMP_V2` RIB-entry form: the
/// `MP_REACH_NLRI` body is abbreviated to `<next-hop length, next hop>`
/// (RFC 6396 §4.3.4) — no AFI/SAFI, no NLRI.
pub(crate) fn encode_attributes_rib(
    out: &mut Vec<u8>,
    attrs: &PathAttributes,
    encoding: AsnEncoding,
) -> Result<(), WireError> {
    encode_attributes_form(out, attrs, encoding, true)
}

fn encode_attributes_form(
    out: &mut Vec<u8>,
    attrs: &PathAttributes,
    encoding: AsnEncoding,
    rib_form: bool,
) -> Result<(), WireError> {
    let origin_code = match attrs.origin {
        RouteOrigin::Igp => 0u8,
        RouteOrigin::Egp => 1,
        RouteOrigin::Incomplete => 2,
    };
    push_attr(out, FLAG_TRANSITIVE, ATTR_ORIGIN, &[origin_code])?;

    let mut path = Vec::new();
    for (kind, asns) in attrs.as_path.segments() {
        let seg_type = match kind {
            SegmentKind::Sequence => SEGMENT_AS_SEQUENCE,
            SegmentKind::Set => SEGMENT_AS_SET,
        };
        // RFC 4271 caps a segment at 255 ASNs; split longer ones into
        // multiple segments of the same type (re-joined on decode, see
        // `AttrsView::to_as_path`). `chunks` yields at most 255 elements per
        // chunk, so the count byte below cannot truncate.
        for chunk in asns.chunks(MAX_SEGMENT_ASNS) {
            path.push(seg_type);
            path.push(chunk.len() as u8);
            for &asn in chunk {
                encode_asn(&mut path, asn, encoding)?;
            }
        }
    }
    push_attr(out, FLAG_TRANSITIVE, ATTR_AS_PATH, &path)?;
    push_attr(
        out,
        FLAG_TRANSITIVE,
        ATTR_NEXT_HOP,
        &attrs.next_hop.to_be_bytes(),
    )?;
    if let Some(lp) = attrs.local_pref {
        push_attr(out, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, &lp.to_be_bytes())?;
    }
    if !attrs.communities.is_empty() {
        let mut body = Vec::with_capacity(4 * attrs.communities.len());
        for community in &attrs.communities {
            body.extend_from_slice(&community.0.to_be_bytes());
        }
        push_attr(
            out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_COMMUNITIES,
            &body,
        )?;
    }
    if let Some(mp) = &attrs.mp_reach {
        let mut body = Vec::with_capacity(5 + mp.next_hop.len() + 17 * mp.nlri.len());
        if rib_form {
            let nh_len = u8::try_from(mp.next_hop.len()).map_err(|_| {
                WireError::new(
                    WireErrorKind::LengthOverflow {
                        field: "MP_REACH_NLRI next hop",
                        length: mp.next_hop.len(),
                        max: 255,
                    },
                    0,
                )
            })?;
            body.push(nh_len);
            body.extend_from_slice(&mp.next_hop);
        } else {
            body.extend_from_slice(&AFI_IPV6.to_be_bytes());
            body.push(SAFI_UNICAST);
            let nh_len = u8::try_from(mp.next_hop.len()).map_err(|_| {
                WireError::new(
                    WireErrorKind::LengthOverflow {
                        field: "MP_REACH_NLRI next hop",
                        length: mp.next_hop.len(),
                        max: 255,
                    },
                    0,
                )
            })?;
            body.push(nh_len);
            body.extend_from_slice(&mp.next_hop);
            body.push(0); // reserved (SNPA count in RFC 2858)
            for &prefix in &mp.nlri {
                encode_prefix6(&mut body, prefix);
            }
        }
        push_attr(out, FLAG_OPTIONAL, ATTR_MP_REACH_NLRI, &body)?;
    }
    if let Some(mp) = &attrs.mp_unreach {
        let mut body = Vec::with_capacity(3 + 17 * mp.withdrawn.len());
        body.extend_from_slice(&AFI_IPV6.to_be_bytes());
        body.push(SAFI_UNICAST);
        for &prefix in &mp.withdrawn {
            encode_prefix6(&mut body, prefix);
        }
        push_attr(out, FLAG_OPTIONAL, ATTR_MP_UNREACH_NLRI, &body)?;
    }
    if !attrs.large_communities.is_empty() {
        let mut body = Vec::with_capacity(12 * attrs.large_communities.len());
        for large in &attrs.large_communities {
            for field in [large.global, large.local1, large.local2] {
                body.extend_from_slice(&field.to_be_bytes());
            }
        }
        push_attr(
            out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_LARGE_COMMUNITIES,
            &body,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPathSegment, MoasList};

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
    fn announce_round_trips_in_both_encodings() {
        let route = sample_route();
        for encoding in [AsnEncoding::TwoOctet, AsnEncoding::FourOctet] {
            let msg = UpdateMessage::announce(&route);
            let bytes = msg.encode(encoding).unwrap();
            let back = UpdateMessage::decode(&bytes, encoding).unwrap();
            assert_eq!(back, msg);
            let updates = back.updates();
            assert_eq!(updates.len(), 1);
            let Update::Announce(decoded) = &updates[0] else {
                panic!("expected announcement");
            };
            assert_eq!(decoded, &route);
        }
    }

    #[test]
    fn moas_list_survives_the_wire() {
        let route = sample_route();
        let bytes = UpdateMessage::announce(&route)
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap();
        let attrs = back.attrs.unwrap();
        assert_eq!(attrs.communities.len(), 2);
        assert!(attrs.large_communities.is_empty());
        let decoded = attrs.to_route(route.prefix());
        assert_eq!(decoded.moas_list(), route.moas_list());
        assert!(decoded.communities().is_empty());
    }

    #[test]
    fn wide_members_ride_in_large_communities() {
        let list: MoasList = [Asn(4), Asn(65_537), Asn(70_000)].into_iter().collect();
        let route = Route::new(
            "208.8.0.0/16".parse().unwrap(),
            AsPath::origination(Asn(65_537)),
        )
        .with_community(Community::new(Asn(701), 120))
        .with_moas_list(list.clone());
        let attrs = PathAttributes::from_route(&route);
        assert_eq!(attrs.communities.len(), 2);
        assert_eq!(attrs.large_communities.len(), 2);
        let bytes = UpdateMessage::announce(&route)
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap();
        assert_eq!(back.attrs.as_ref(), Some(&attrs));
        assert_eq!(back.updates()[0].route(), Some(&route));
    }

    #[test]
    fn withdrawal_round_trips() {
        let msg = UpdateMessage::withdraw("10.1.0.0/16".parse().unwrap());
        let bytes = msg.encode(AsnEncoding::FourOctet).unwrap();
        let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap();
        assert_eq!(back, msg);
        assert!(back.updates()[0].is_withdrawal());
    }

    #[test]
    fn as_set_segments_round_trip() {
        let route = Route::new(
            "10.2.0.0/16".parse().unwrap(),
            AsPath::from_segments([
                AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
                AsPathSegment::Set(vec![Asn(7), Asn(9)]),
            ]),
        );
        let bytes = UpdateMessage::announce(&route)
            .encode(AsnEncoding::TwoOctet)
            .unwrap();
        let back = UpdateMessage::decode(&bytes, AsnEncoding::TwoOctet).unwrap();
        assert_eq!(back.attrs.unwrap().as_path, *route.as_path());
    }

    #[test]
    fn wide_asn_rejected_by_two_octet_encoding() {
        let route = Route::new(
            "10.0.0.0/8".parse().unwrap(),
            AsPath::from_sequence([Asn(70_000)]),
        );
        let err = UpdateMessage::announce(&route)
            .encode(AsnEncoding::TwoOctet)
            .unwrap_err();
        assert_eq!(err.kind, WireErrorKind::AsnTooWide(70_000));
        assert!(UpdateMessage::announce(&route)
            .encode(AsnEncoding::FourOctet)
            .is_ok());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = UpdateMessage::announce(&sample_route())
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        for cut in 0..bytes.len() {
            let err = UpdateMessage::decode(&bytes[..cut], AsnEncoding::FourOctet).unwrap_err();
            assert!(
                err.offset <= cut as u64,
                "offset {} past cut {cut}",
                err.offset
            );
        }
    }

    #[test]
    fn bad_marker_and_type_are_rejected() {
        let mut bytes = UpdateMessage::withdraw("10.0.0.0/8".parse().unwrap())
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        let mut broken = bytes.clone();
        broken[3] = 0;
        let err = UpdateMessage::decode(&broken, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadMarker);
        bytes[18] = 1; // OPEN
        let err = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::UnsupportedMessageType(1));
        assert_eq!(err.offset, 18);
    }

    #[test]
    fn prefix_length_over_32_is_rejected_with_offset() {
        let msg = UpdateMessage::withdraw("10.0.0.0/8".parse().unwrap());
        let mut bytes = msg.encode(AsnEncoding::FourOctet).unwrap();
        bytes[21] = 33; // the withdrawn prefix's length byte
        let err = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadPrefixLength(33));
        assert_eq!(err.offset, 21);
    }

    #[test]
    fn nlri_without_attributes_is_rejected() {
        // Hand-build: empty withdrawn, empty attrs, one NLRI prefix.
        let mut body = vec![0u8, 0, 0, 0];
        body.push(8);
        body.push(10);
        let total = HEADER_LEN + body.len();
        let mut bytes = vec![0xFF; 16];
        bytes.extend_from_slice(&(total as u16).to_be_bytes());
        bytes.push(MESSAGE_TYPE_UPDATE);
        bytes.extend_from_slice(&body);
        let err = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::MissingAttribute("AS_PATH"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = UpdateMessage::withdraw("10.0.0.0/8".parse().unwrap())
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        bytes.push(0);
        let err = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn unknown_attributes_are_skipped() {
        let route = Route::new("10.0.0.0/8".parse().unwrap(), AsPath::origination(Asn(7)));
        let msg = UpdateMessage::announce(&route);
        let mut bytes = msg.encode(AsnEncoding::FourOctet).unwrap();
        // Splice in an unknown optional attribute (type 99, 2 bytes) by
        // rebuilding the message body around the existing attribute block.
        let attrs_len = usize::from(u16::from_be_bytes([bytes[21], bytes[22]]));
        let insert_at = 23 + attrs_len;
        let extra = [FLAG_OPTIONAL | FLAG_TRANSITIVE, 99, 2, 0xAB, 0xCD];
        for (i, b) in extra.iter().enumerate() {
            bytes.insert(insert_at + i, *b);
        }
        let new_attrs_len = u16::try_from(attrs_len + extra.len()).unwrap();
        bytes[21..23].copy_from_slice(&new_attrs_len.to_be_bytes());
        let new_total = u16::try_from(bytes.len()).unwrap().to_be_bytes();
        bytes[16..18].copy_from_slice(&new_total);
        let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap();
        assert_eq!(back.attrs.unwrap().as_path, *route.as_path());
    }
}
