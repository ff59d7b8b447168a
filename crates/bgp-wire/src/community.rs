//! The MOAS list on the wire (§4.2): one community per member.
//!
//! A [`Route`] holds its MOAS list as a field; this module is the one place
//! that knows how the list travels. Each member `X` rides as the classic
//! RFC 1997 community `(X : MLVal)` when `X` fits the community's 16-bit
//! half — the paper's form, so every list of 2-octet ASNs keeps its 2001
//! bytes. A wider member goes out as the RFC 8092 large community
//! `(X : MLVal : 0)`, whose global administrator holds a full 4-octet ASN.
//! [`write_moas_list`] and [`read_moas_list`] are the pair every encoder and
//! decoder goes through, so both forms are read wherever a route is rebuilt.

use bgp_types::{Asn, Community, MoasList, Route};

/// The reserved value half that marks a community as a MOAS-list member
/// (`MLVal` in §4.2 of the paper).
///
/// The paper proposes reserving one of the 2^16 values available in the last
/// two octets of a community; the concrete number is arbitrary as long as it
/// is consistently used, so we pick a stable constant.
///
/// The value is reserved: the wire cannot tell an ordinary community
/// `(x : MLVal)` from a list member. A route that carries one among its
/// communities (outside the well-known range) reads back from the wire
/// with `x` folded into its MOAS list, as `read_moas_list` does.
pub const MOAS_LIST_VALUE: u16 = 0x4d4c; // "ML"

/// An RFC 8092 large community: three 4-octet fields, conventionally
/// displayed as `global:local1:local2`. The global administrator is a full
/// 4-octet ASN, which is why a wide MOAS-list member rides in one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LargeCommunity {
    /// The global administrator (an ASN).
    pub global: u32,
    /// The first local data part.
    pub local1: u32,
    /// The second local data part.
    pub local2: u32,
}

/// The classic marker `(asn : MLVal)`, when `asn` has one: it must fit the
/// community's 16-bit half and stay out of the RFC 1997 well-known range
/// (AS 65535), which no decoder reads as a member.
fn classic_marker(asn: Asn) -> Option<Community> {
    (asn.0 < 0xFFFF).then(|| Community::new(asn, MOAS_LIST_VALUE))
}

/// The member a classic community names, if it is a MOAS marker.
fn classic_member(community: Community) -> Option<Asn> {
    (community.value() == MOAS_LIST_VALUE && !community.is_well_known()).then(|| community.asn())
}

/// The member a large community names, if it is a MOAS marker.
fn large_member(community: LargeCommunity) -> Option<Asn> {
    (community.local1 == u32::from(MOAS_LIST_VALUE) && community.local2 == 0)
        .then_some(Asn(community.global))
}

/// Appends `list` in its wire form: each member that has a classic marker
/// to `communities`, every other member to `large`, both in ascending order.
pub(crate) fn write_moas_list(
    list: &MoasList,
    communities: &mut Vec<Community>,
    large: &mut Vec<LargeCommunity>,
) {
    for asn in list {
        match classic_marker(asn) {
            Some(marker) => communities.push(marker),
            None => large.push(LargeCommunity {
                global: asn.0,
                local1: u32::from(MOAS_LIST_VALUE),
                local2: 0,
            }),
        }
    }
}

/// Sets `route`'s communities and MOAS list from an attribute block's: the
/// markers of either form become the list (none at all: no list), every
/// other classic community is kept as is, and the large communities that
/// are not markers are dropped — a [`Route`] models no other use of them.
///
/// [`MOAS_LIST_VALUE`] is reserved, so every classic `(x : MLVal)` outside
/// the well-known range is a marker here: a route built in memory with such
/// a community among its ordinary ones reads back with `x` in its list.
pub(crate) fn read_moas_list(
    mut route: Route,
    communities: impl IntoIterator<Item = Community>,
    large: impl IntoIterator<Item = LargeCommunity>,
) -> Route {
    let mut list = MoasList::new();
    let mut others = Vec::new();
    for community in communities {
        match classic_member(community) {
            Some(asn) => {
                list.insert(asn);
            }
            None => others.push(community),
        }
    }
    list.extend(large.into_iter().filter_map(large_member));
    route.set_communities(others);
    route.set_moas_list(Some(list));
    route
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::AsPath;

    fn round_trip(list: &MoasList, extra: &[Community]) -> Route {
        let (mut communities, mut large) = (extra.to_vec(), Vec::new());
        write_moas_list(list, &mut communities, &mut large);
        let bare = Route::new("10.0.0.0/8".parse().unwrap(), AsPath::new());
        read_moas_list(bare, communities, large)
    }

    #[test]
    fn moas_member_round_trips_asn() {
        // A member that fits 16 bits, AS 65535 aside, takes the classic form.
        for asn in [0u32, 1, 226, 8584, 65_534] {
            let c = classic_marker(Asn(asn)).unwrap();
            assert_eq!(c.asn(), Asn(asn));
            assert_eq!(c.value(), MOAS_LIST_VALUE);
            assert_eq!(classic_member(c), Some(Asn(asn)));
        }
        // Every other member takes the large form, and reads back unaliased.
        for asn in [65_535u32, 65_536, 65_537, 70_000, u32::MAX] {
            assert_eq!(classic_marker(Asn(asn)), None);
            let list = MoasList::implicit(Asn(asn));
            assert_eq!(round_trip(&list, &[]).moas_list(), Some(&list));
        }
    }

    #[test]
    fn well_known_are_not_moas_members() {
        assert!(Community::NO_EXPORT.is_well_known());
        assert_eq!(classic_member(Community::NO_EXPORT), None);
        // Even a 0xFFFF-prefixed community with the MLVal low bits is not a
        // MOAS marker: AS 65535 cannot claim origination via a well-known.
        let odd = Community::new(Asn(0xFFFF), MOAS_LIST_VALUE);
        assert_eq!(classic_member(odd), None);
    }

    #[test]
    fn ordinary_communities_are_not_moas_members() {
        assert_eq!(classic_member(Community::new(Asn(701), 120)), None);
        let tagged = LargeCommunity {
            global: 70_000,
            local1: u32::from(MOAS_LIST_VALUE),
            local2: 1,
        };
        assert_eq!(large_member(tagged), None);
    }

    #[test]
    fn moas_list_round_trips_through_both_forms() {
        let l: MoasList = [Asn(1), Asn(2), Asn(226), Asn(65_537), Asn(70_000)]
            .into_iter()
            .collect();
        let (mut communities, mut large) = (Vec::new(), Vec::new());
        write_moas_list(&l, &mut communities, &mut large);
        assert_eq!(communities.len(), 3);
        assert_eq!(large.len(), 2);
        let route = round_trip(&l, &[]);
        assert_eq!(route.moas_list(), Some(&l));
        assert!(route.communities().is_empty());
    }

    #[test]
    fn reading_keeps_ordinary_communities_apart() {
        let extra = [Community::new(Asn(701), 120), Community::NO_EXPORT];
        let route = round_trip(&MoasList::implicit(Asn(4)), &extra);
        assert_eq!(route.moas_list(), Some(&MoasList::implicit(Asn(4))));
        assert_eq!(route.communities(), extra);
    }

    #[test]
    fn no_markers_read_as_no_list() {
        let route = round_trip(&MoasList::new(), &[Community::new(Asn(701), 120)]);
        assert_eq!(route.moas_list(), None);
        assert_eq!(round_trip(&MoasList::new(), &[]).moas_list(), None);
    }
}
