//! A small reference decoder for the differential tests, written from the
//! field order of RFC 4271 (BGP), RFC 4760 (multiprotocol attributes) and
//! RFC 6396 (MRT) and sharing no code with `bgp_wire`'s views. It builds
//! owned values eagerly and stops at the first problem with the
//! `WireError` kind and offset the crate's decoder must also report.

// Each test crate that includes this module uses part of it.
#![allow(dead_code)]

use bgp_types::{AsPath, AsPathSegment, Asn, Community, Ipv4Prefix, Ipv6Prefix, RouteOrigin};
use bgp_wire::bgp::AsnEncoding::{self, FourOctet, TwoOctet};
use bgp_wire::bgp::{MpReach, MpUnreach, PathAttributes, UpdateMessage};
use bgp_wire::mrt::{
    Bgp4mpMessage, MrtBody, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
    RibIpv6Unicast, MAX_RECORD_LEN,
};
use bgp_wire::msg::{Capability, Message, NotificationMessage, OpenMessage};
use bgp_wire::{LargeCommunity, WireError, WireErrorKind as K};

type R<T> = Result<T, WireError>;

fn err<T>(kind: K, offset: u64) -> R<T> {
    Err(WireError { kind, offset })
}

/// The unread rest of a buffer, and the absolute offset of its first byte.
struct Cur<'a>(&'a [u8], u64);

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        let needed = n.saturating_sub(self.0.len());
        if needed > 0 {
            return err(K::Truncated { needed }, self.1);
        }
        let (head, tail) = self.0.split_at(n);
        (self.0, self.1) = (tail, self.1 + n as u64);
        Ok(head)
    }
    /// `take` for MRT framing, which reports a short read where input ends.
    fn frame(&mut self, n: usize) -> R<&'a [u8]> {
        let have = self.0.len() as u64;
        self.take(n).map_err(|e| WireError {
            offset: e.offset + have,
            ..e
        })
    }
    fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> R<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> R<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn asn(&mut self, enc: AsnEncoding) -> R<Asn> {
        Ok(Asn(match enc {
            TwoOctet => u32::from(self.u16()?),
            FourOctet => self.u32()?,
        }))
    }
    /// The next `n` octets, as a cursor of their own.
    fn field(&mut self, n: usize) -> R<Cur<'a>> {
        let at = self.1;
        Ok(Cur(self.take(n)?, at))
    }
    fn field16(&mut self) -> R<Cur<'a>> {
        let n = self.u16()?;
        self.field(usize::from(n))
    }
    fn done(&self) -> R<()> {
        match self.0.len() {
            0 => Ok(()),
            remaining => err(K::TrailingBytes { remaining }, self.1),
        }
    }
}

/// RFC 4271 §4.3 `<length, prefix>`: a length in bits, then just enough
/// octets to hold it; the address comes back left-aligned in a `u128`.
fn prefix(c: &mut Cur, max: u8) -> R<(u128, u8)> {
    let (at, bits) = (c.1, c.u8()?);
    if bits > max {
        return err(K::BadPrefixLength(bits), at);
    }
    let mut addr = [0u8; 16];
    let octets = c.take(usize::from(bits).div_ceil(8))?;
    addr[..octets.len()].copy_from_slice(octets);
    Ok((u128::from_be_bytes(addr), bits))
}

fn prefix4(c: &mut Cur) -> R<Ipv4Prefix> {
    let (addr, bits) = prefix(c, 32)?;
    Ok(Ipv4Prefix::new((addr >> 96) as u32, bits))
}

fn prefix6(c: &mut Cur) -> R<Ipv6Prefix> {
    let (addr, bits) = prefix(c, 128)?;
    Ok(Ipv6Prefix::new(addr, bits))
}

/// Items back to back until the input ends.
fn run<T>(mut c: Cur, one: fn(&mut Cur) -> R<T>) -> R<Vec<T>> {
    let mut out = Vec::new();
    while !c.0.is_empty() {
        out.push(one(&mut c)?);
    }
    Ok(out)
}

/// RFC 4271 §4.3 `AS_PATH`: segments of `<type, count, ASNs>`, the type
/// checked after the ASNs. A segment of exactly 255 ASNs continues into a
/// following one of the same type (how long segments are split).
fn as_path(mut c: Cur, enc: AsnEncoding) -> R<AsPath> {
    let mut segments: Vec<(u8, Vec<Asn>)> = Vec::new();
    let mut continues = false;
    while !c.0.is_empty() {
        let (at, kind, count) = (c.1, c.u8()?, c.u8()?);
        let asns = (0..count).map(|_| c.asn(enc)).collect::<R<Vec<_>>>()?;
        if kind != 1 && kind != 2 {
            return err(K::BadSegmentType(kind), at);
        }
        match segments.last_mut() {
            Some((last, tail)) if continues && *last == kind => tail.extend(asns),
            _ => segments.push((kind, asns)),
        }
        continues = count == 255;
    }
    let segment = |(kind, asns)| match kind {
        1 => AsPathSegment::Set(asns),
        _ => AsPathSegment::Sequence(asns),
    };
    Ok(AsPath::from_segments(segments.into_iter().map(segment)))
}

/// RFC 4760 §3 `MP_REACH_NLRI`: AFI, SAFI, next hop, a reserved octet,
/// NLRI — or RFC 6396 §4.3.4's bare `<length, next hop>` in a RIB entry.
/// `None` for families other than IPv6 unicast.
fn mp_reach(mut c: Cur, rib_form: bool) -> R<Option<MpReach>> {
    let (type_code, length, at) = (14, c.0.len(), c.1);
    let family = if rib_form {
        (2, 1)
    } else {
        (c.u16()?, c.u8()?)
    };
    let (nh_at, nh_len) = (c.1, c.u8()?);
    let next_hop = c.take(usize::from(nh_len))?.to_vec();
    if rib_form && !c.0.is_empty() {
        return err(K::BadAttributeLength { type_code, length }, at);
    }
    if rib_form {
        let nlri = Vec::new();
        return Ok(Some(MpReach { next_hop, nlri }));
    }
    c.u8()?; // reserved
    if family != (2, 1) {
        return Ok(None);
    }
    if nh_len != 16 && nh_len != 32 {
        let length = usize::from(nh_len);
        return err(K::BadAttributeLength { type_code, length }, nh_at);
    }
    let nlri = run(c, prefix6)?;
    Ok(Some(MpReach { next_hop, nlri }))
}

/// RFC 4271 §4.3 path attributes, each `<flags, type, length, value>` with
/// a two-octet length under the extended-length flag. Repeats: the last
/// one wins, communities (RFC 1997) and large communities (RFC 8092, three
/// 4-octet fields each) accumulate. An empty block is `None`.
fn attributes(mut c: Cur, enc: AsnEncoding, rib_form: bool) -> R<Option<PathAttributes>> {
    if c.0.is_empty() {
        return Ok(None);
    }
    let (mut origin, mut path, mut next_hop, mut local_pref) = (None, None, None, None);
    let (mut communities, mut large, mut reach, mut unreach) = (Vec::new(), Vec::new(), None, None);
    while !c.0.is_empty() {
        let (flags, type_code) = (c.u8()?, c.u8()?);
        let length = match flags & 0x10 {
            0 => usize::from(c.u8()?),
            _ => usize::from(c.u16()?),
        };
        let mut v = c.field(length)?;
        let at = v.1;
        let fits = match type_code {
            1 => length == 1,
            3 | 5 => length == 4,
            8 => length % 4 == 0,
            32 => length % 12 == 0,
            _ => true,
        };
        if !fits {
            return err(K::BadAttributeLength { type_code, length }, at);
        }
        let value: &[u8] = v.0;
        let mut words = value
            .chunks(4)
            .map(|w| u32::from_be_bytes(w.try_into().unwrap()));
        match type_code {
            1 => {
                let all = [RouteOrigin::Igp, RouteOrigin::Egp, RouteOrigin::Incomplete];
                let Some(&o) = all.get(usize::from(value[0])) else {
                    return err(K::BadOrigin(value[0]), at);
                };
                origin = Some(o);
            }
            2 => path = Some(as_path(v, enc)?),
            3 => next_hop = words.next(),
            5 => local_pref = words.next(),
            8 => communities.extend(words.map(Community)),
            32 => {
                let words: Vec<u32> = words.collect();
                large.extend(words.chunks(3).map(|w| LargeCommunity {
                    global: w[0],
                    local1: w[1],
                    local2: w[2],
                }));
            }
            14 => reach = mp_reach(v, rib_form)?.or(reach),
            // RFC 4760 §4 `MP_UNREACH_NLRI`: AFI, SAFI, withdrawn routes.
            15 if (v.u16()?, v.u8()?) == (2, 1) => {
                unreach = Some(MpUnreach {
                    withdrawn: run(v, prefix6)?,
                });
            }
            _ => {}
        }
    }
    let missing = |name| WireError {
        kind: K::MissingAttribute(name),
        offset: c.1,
    };
    let origin = origin.ok_or_else(|| missing("ORIGIN"))?;
    let as_path = path.ok_or_else(|| missing("AS_PATH"))?;
    // RFC 4760 §7: an IPv6-only update carries no NEXT_HOP.
    if next_hop.is_none() && reach.is_none() {
        return Err(missing("NEXT_HOP"));
    }
    Ok(Some(PathAttributes {
        origin,
        as_path,
        next_hop: next_hop.unwrap_or(0),
        local_pref,
        communities,
        large_communities: large,
        mp_reach: reach,
        mp_unreach: unreach,
    }))
}

/// RFC 4271 §4.3 UPDATE body: withdrawn routes, path attributes, NLRI. The
/// NLRI is checked before the attributes.
fn update_body(mut c: Cur, enc: AsnEncoding) -> R<UpdateMessage> {
    let withdrawn = run(c.field16()?, prefix4)?;
    let (attrs, nlri_at) = (c.field16()?, c.1);
    let nlri = run(c, prefix4)?;
    let attrs = attributes(attrs, enc, false)?;
    if attrs.is_none() && !nlri.is_empty() {
        return err(K::MissingAttribute("AS_PATH"), nlri_at);
    }
    Ok(UpdateMessage {
        withdrawn,
        attrs,
        nlri,
    })
}

/// RFC 4271 §4.2 OPEN body, with RFC 5492 capabilities (parameter type 2).
fn open_body(mut c: Cur) -> R<OpenMessage> {
    let version = c.u8()?;
    if version != 4 {
        return err(K::BadVersion(version), 19);
    }
    let (asn, hold_time) = (c.asn(TwoOctet)?, c.u16()?);
    if hold_time == 1 || hold_time == 2 {
        return err(K::BadHoldTime(hold_time), 22);
    }
    let (bgp_id, n) = (c.u32()?, c.u8()?);
    let mut params = c.field(usize::from(n))?;
    c.done()?;
    let mut capabilities = Vec::new();
    while !params.0.is_empty() {
        let (kind, n) = (params.u8()?, params.u8()?);
        let mut caps = params.field(usize::from(n))?;
        while kind == 2 && !caps.0.is_empty() {
            let (code, len_at, length) = (caps.u8()?, caps.1, caps.u8()?);
            let v = caps.take(usize::from(length))?;
            if (code == 1 || code == 65) && length != 4 {
                return err(K::BadCapabilityLength { code, length }, len_at);
            }
            capabilities.push(match (code, v) {
                (1, [0, 1, _, 1]) => Capability::MultiprotocolIpv4Unicast,
                (1, [0, 2, _, 1]) => Capability::MultiprotocolIpv6Unicast,
                (65, _) => Capability::FourOctetAs(Cur(v, 0).asn(FourOctet)?),
                (code, data) => Capability::Unknown {
                    code,
                    data: data.to_vec(),
                },
            });
        }
    }
    Ok(OpenMessage {
        asn,
        hold_time,
        bgp_id,
        capabilities,
    })
}

/// One message from the start of `bytes`, with its length (RFC 4271 §4.1
/// header: marker, length, type). With `update_only`, another type is
/// refused before its body is read.
fn framed(bytes: &[u8], enc: AsnEncoding, update_only: bool) -> R<(Message, usize)> {
    let mut c = Cur(bytes, 0);
    if c.take(16)?.iter().any(|&b| b != 0xFF) {
        return err(K::BadMarker, 0);
    }
    let (total, kind) = (c.u16()?, c.u8()?);
    let bad_length = err(K::BadMessageLength(total), 16);
    if !(19..=4096).contains(&total) {
        return bad_length;
    }
    if update_only && kind != 2 {
        return err(K::UnsupportedMessageType(kind), 18);
    }
    let mut b = c.field(usize::from(total) - 19)?;
    let message = match (kind, b.0.len()) {
        (1, 10..) => Message::Open(open_body(b)?),
        (2, _) => Message::Update(update_body(b, enc)?),
        (3, 2..) => match (b.u8()?, b.u8()?) {
            (code @ 1..=6, subcode) => {
                let data = b.0.to_vec();
                Message::Notification(NotificationMessage {
                    code,
                    subcode,
                    data,
                })
            }
            (code, _) => return err(K::BadNotificationCode(code), 19),
        },
        (4, 0) => Message::Keepalive,
        (1 | 3 | 4, _) => return bad_length,
        (other, _) => return err(K::UnsupportedMessageType(other), 18),
    };
    Ok((message, usize::from(total)))
}

fn exact<T>(bytes: &[u8], (value, used): (T, usize)) -> R<T> {
    Cur(&bytes[used..], used as u64).done().map(|()| value)
}

/// One message of any type from the start of `bytes`, with its length.
pub fn message_prefix(bytes: &[u8], enc: AsnEncoding) -> R<(Message, usize)> {
    framed(bytes, enc, false)
}

/// One message of any type filling all of `bytes`.
pub fn message(bytes: &[u8], enc: AsnEncoding) -> R<Message> {
    exact(bytes, framed(bytes, enc, false)?)
}

/// One UPDATE filling all of `bytes`.
pub fn update(bytes: &[u8], enc: AsnEncoding) -> R<UpdateMessage> {
    match exact(bytes, framed(bytes, enc, true)?)? {
        Message::Update(update) => Ok(update),
        other => unreachable!("an UPDATE-only frame held {other:?}"),
    }
}

/// RFC 6396 §4.3.2 RIB entries: peer index, originated time, attributes
/// (4-octet ASNs, abbreviated `MP_REACH_NLRI`), then nothing.
fn rib_entries(c: &mut Cur) -> R<Vec<RibEntry>> {
    let mut entries = Vec::new();
    for _ in 0..c.u16()? {
        let (peer_index, originated_time, block) = (c.u16()?, c.u32()?, c.field16()?);
        let at = block.1;
        let Some(attrs) = attributes(block, FourOctet, true)? else {
            return err(K::MissingAttribute("AS_PATH"), at);
        };
        entries.push(RibEntry {
            peer_index,
            originated_time,
            attrs,
        });
    }
    c.done().map(|()| entries)
}

/// One MRT record body (RFC 6396 §4.3 `TABLE_DUMP_V2`, §4.4 `BGP4MP`);
/// `at` is the offset of the record's header.
fn body(kind: (u16, u16), mut c: Cur, at: u64) -> R<MrtBody> {
    let wide = |four| if four { FourOctet } else { TwoOctet };
    Ok(match kind {
        (13, 1) => {
            let collector_id = c.u32()?;
            let view_name = String::from_utf8_lossy(c.field16()?.0).into_owned();
            let mut peers = Vec::new();
            for _ in 0..c.u16()? {
                let (peer_at, peer_type) = (c.1, c.u8()?);
                if peer_type & 1 != 0 {
                    return err(K::UnsupportedPeerType(peer_type), peer_at);
                }
                let (bgp_id, addr, asn) = (c.u32()?, c.u32()?, c.asn(wide(peer_type & 2 != 0))?);
                peers.push(PeerEntry { bgp_id, addr, asn });
            }
            c.done()?;
            MrtBody::PeerIndexTable(PeerIndexTable {
                collector_id,
                view_name,
                peers,
            })
        }
        (13, 2) => {
            let (sequence, prefix) = (c.u32()?, prefix4(&mut c)?);
            let entries = rib_entries(&mut c)?;
            MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence,
                prefix,
                entries,
            })
        }
        (13, 4) => {
            let (sequence, prefix) = (c.u32()?, prefix6(&mut c)?);
            let entries = rib_entries(&mut c)?;
            MrtBody::RibIpv6Unicast(RibIpv6Unicast {
                sequence,
                prefix,
                entries,
            })
        }
        (16, subtype @ (1 | 4)) => {
            let enc = wide(subtype == 4);
            let (peer_asn, local_asn, _interface) = (c.asn(enc)?, c.asn(enc)?, c.u16()?);
            let (afi_at, afi) = (c.1, c.u16()?);
            if afi != 1 {
                return err(K::UnsupportedAfi(afi), afi_at);
            }
            let (peer_addr, local_addr, msg_at) = (c.u32()?, c.u32()?, c.1);
            let message = update(c.0, enc).map_err(|e| WireError {
                offset: e.offset + msg_at,
                ..e
            })?;
            MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                peer_asn,
                local_asn,
                peer_addr,
                local_addr,
                message,
            })
        }
        (mrt_type, subtype) => return err(K::UnsupportedMrtType { mrt_type, subtype }, at + 4),
    })
}

/// Every record of an MRT stream up to its first error (RFC 6396 §2
/// framing: timestamp, type, subtype, length, body).
pub fn mrt_stream(bytes: &[u8]) -> (Vec<MrtRecord>, Option<WireError>) {
    let (mut c, mut records) = (Cur(bytes, 0), Vec::new());
    while !c.0.is_empty() {
        let at = c.1;
        let record = c.frame(12).and_then(|header| {
            let mut h = Cur(header, at);
            let (timestamp, kind, length) = (h.u32()?, (h.u16()?, h.u16()?), h.u32()?);
            if length > MAX_RECORD_LEN {
                let (length, available) = (length as usize, MAX_RECORD_LEN as usize);
                return err(K::BadFieldLength { length, available }, at + 8);
            }
            let body = body(kind, Cur(c.frame(length as usize)?, at + 12), at)?;
            Ok(MrtRecord { timestamp, body })
        });
        match record {
            Ok(record) => records.push(record),
            Err(e) => return (records, Some(e)),
        }
    }
    (records, None)
}
