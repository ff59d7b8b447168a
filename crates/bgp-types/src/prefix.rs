//! IPv4 and IPv6 address prefixes.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use crate::error::ParsePrefixError;

/// An IPv4 address prefix in canonical (host-bits-zeroed) form.
///
/// The prefix is the unit of routing in BGP: every announcement and every
/// MOAS conflict in the paper is about a specific prefix such as
/// `208.8.0.0/16`. The constructor masks off host bits, so two prefixes
/// compare equal exactly when they denote the same address block.
///
/// # Example
///
/// ```
/// use bgp_types::Ipv4Prefix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p: Ipv4Prefix = "208.8.1.9/16".parse()?;
/// assert_eq!(p.to_string(), "208.8.0.0/16");
/// let sub: Ipv4Prefix = "208.8.4.0/24".parse()?;
/// assert!(p.contains(sub));
/// assert!(sub.is_more_specific_of(p));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// The default route, `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { addr: 0, len: 0 };

    /// Creates a prefix from a raw 32-bit address and a length, masking host
    /// bits so the result is canonical.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`. Use [`Ipv4Prefix::try_new`] for fallible
    /// construction from untrusted input.
    #[must_use]
    pub fn new(addr: u32, len: u8) -> Self {
        Self::try_new(addr, len).expect("prefix length exceeds 32")
    }

    /// Fallible variant of [`Ipv4Prefix::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ParsePrefixError::LengthOutOfRange`] if `len > 32`.
    pub fn try_new(addr: u32, len: u8) -> Result<Self, ParsePrefixError> {
        if len > 32 {
            return Err(ParsePrefixError::LengthOutOfRange(len));
        }
        Ok(Ipv4Prefix {
            addr: addr & Self::mask(len),
            len,
        })
    }

    /// The network mask for a given prefix length.
    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// The (canonical) network address as a raw 32-bit value.
    #[must_use]
    pub fn network(self) -> u32 {
        self.addr
    }

    /// The prefix length in bits.
    // `len` is the CIDR mask width, not a collection size; an `is_empty`
    // counterpart would be meaningless.
    #[allow(clippy::len_without_is_empty)]
    #[must_use]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Returns `true` if `other` falls inside this prefix (including equality).
    #[must_use]
    pub fn contains(self, other: Ipv4Prefix) -> bool {
        other.len >= self.len && (other.addr & Self::mask(self.len)) == self.addr
    }

    /// Returns `true` if this prefix is a strictly more-specific (longer)
    /// prefix inside `other`.
    ///
    /// A hijacker announcing a more-specific of a victim's prefix wins
    /// longest-match forwarding even when the victim's route is still present;
    /// §4.3 of the paper notes the MOAS list does not defend against this.
    #[must_use]
    pub fn is_more_specific_of(self, other: Ipv4Prefix) -> bool {
        self.len > other.len && other.contains(self)
    }

    /// Returns `true` if the two prefixes overlap (one contains the other).
    #[must_use]
    pub fn overlaps(self, other: Ipv4Prefix) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// Splits the prefix into its two halves, each one bit longer.
    ///
    /// Returns `None` when the prefix is already a /32 host route. Used by
    /// workload generators to de-aggregate blocks the way the 1997 "AS 7007"
    /// style de-aggregation fault did.
    #[must_use]
    pub fn split(self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let child_len = self.len + 1;
        let low = Ipv4Prefix::new(self.addr, child_len);
        let high = Ipv4Prefix::new(self.addr | (1 << (32 - u32::from(child_len))), child_len);
        Some((low, high))
    }

    /// The immediately covering prefix, one bit shorter.
    ///
    /// Returns `None` for the default route.
    #[must_use]
    pub fn parent(self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix::new(self.addr, self.len - 1))
        }
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ipv4Addr::from(self.addr), self.len)
    }
}

impl From<(Ipv4Addr, u8)> for Ipv4Prefix {
    /// Converts, masking host bits; saturates lengths above 32 to 32.
    fn from((addr, len): (Ipv4Addr, u8)) -> Self {
        Ipv4Prefix::new(u32::from(addr), len.min(32))
    }
}

impl FromStr for Ipv4Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = s
            .split_once('/')
            .ok_or_else(|| ParsePrefixError::Syntax(s.to_owned()))?;
        let addr: Ipv4Addr = addr_part
            .parse()
            .map_err(|_| ParsePrefixError::Syntax(s.to_owned()))?;
        let len: u8 = len_part
            .parse()
            .map_err(|_| ParsePrefixError::Syntax(s.to_owned()))?;
        Ipv4Prefix::try_new(u32::from(addr), len)
    }
}

/// An IPv6 address prefix in canonical (host-bits-zeroed) form.
///
/// The IPv6 counterpart of [`Ipv4Prefix`], carried by the multiprotocol
/// attributes (RFC 4760) rather than the classic UPDATE NLRI field. The
/// detector's tables remain IPv4-only for now; this type exists so the wire
/// codecs can decode IPv6 reachability without discarding it.
///
/// # Example
///
/// ```
/// use bgp_types::Ipv6Prefix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p: Ipv6Prefix = "2001:db8::1/32".parse()?;
/// assert_eq!(p.to_string(), "2001:db8::/32");
/// let sub: Ipv6Prefix = "2001:db8:4::/48".parse()?;
/// assert!(p.contains(sub));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv6Prefix {
    addr: u128,
    len: u8,
}

impl Ipv6Prefix {
    /// The default route, `::/0`.
    pub const DEFAULT: Ipv6Prefix = Ipv6Prefix { addr: 0, len: 0 };

    /// Creates a prefix from a raw 128-bit address and a length, masking
    /// host bits so the result is canonical.
    ///
    /// # Panics
    ///
    /// Panics if `len > 128`. Use [`Ipv6Prefix::try_new`] for fallible
    /// construction from untrusted input.
    #[must_use]
    pub fn new(addr: u128, len: u8) -> Self {
        Self::try_new(addr, len).expect("prefix length exceeds 128")
    }

    /// Fallible variant of [`Ipv6Prefix::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ParsePrefixError::LengthOutOfRange`] if `len > 128`.
    pub fn try_new(addr: u128, len: u8) -> Result<Self, ParsePrefixError> {
        if len > 128 {
            return Err(ParsePrefixError::LengthOutOfRange(len));
        }
        Ok(Ipv6Prefix {
            addr: addr & Self::mask(len),
            len,
        })
    }

    /// The network mask for a given prefix length.
    fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - u32::from(len))
        }
    }

    /// The (canonical) network address as a raw 128-bit value.
    #[must_use]
    pub fn network(self) -> u128 {
        self.addr
    }

    /// The prefix length in bits.
    // `len` is the CIDR mask width, not a collection size; an `is_empty`
    // counterpart would be meaningless.
    #[allow(clippy::len_without_is_empty)]
    #[must_use]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Returns `true` if `other` falls inside this prefix (including equality).
    #[must_use]
    pub fn contains(self, other: Ipv6Prefix) -> bool {
        other.len >= self.len && (other.addr & Self::mask(self.len)) == self.addr
    }

    /// Returns `true` if the two prefixes overlap (one contains the other).
    #[must_use]
    pub fn overlaps(self, other: Ipv6Prefix) -> bool {
        self.contains(other) || other.contains(self)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ipv6Addr::from(self.addr), self.len)
    }
}

impl From<(Ipv6Addr, u8)> for Ipv6Prefix {
    /// Converts, masking host bits; saturates lengths above 128 to 128.
    fn from((addr, len): (Ipv6Addr, u8)) -> Self {
        Ipv6Prefix::new(u128::from(addr), len.min(128))
    }
}

impl FromStr for Ipv6Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = s
            .split_once('/')
            .ok_or_else(|| ParsePrefixError::Syntax(s.to_owned()))?;
        let addr: Ipv6Addr = addr_part
            .parse()
            .map_err(|_| ParsePrefixError::Syntax(s.to_owned()))?;
        let len: u8 = len_part
            .parse()
            .map_err(|_| ParsePrefixError::Syntax(s.to_owned()))?;
        Ipv6Prefix::try_new(u128::from(addr), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn p6(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        assert_eq!(p("10.1.2.3/8"), p("10.0.0.0/8"));
        assert_eq!(p("10.1.2.3/8").to_string(), "10.0.0.0/8");
    }

    #[test]
    fn zero_length_default_route() {
        assert_eq!(p("1.2.3.4/0"), Ipv4Prefix::DEFAULT);
        assert_eq!(Ipv4Prefix::DEFAULT.len(), 0);
        assert!(Ipv4Prefix::DEFAULT.contains(p("192.0.2.0/24")));
    }

    #[test]
    fn contains_and_more_specific() {
        assert!(p("10.0.0.0/8").contains(p("10.5.0.0/16")));
        assert!(!p("10.5.0.0/16").contains(p("10.0.0.0/8")));
        assert!(p("10.0.0.0/8").contains(p("10.0.0.0/8")));
        assert!(p("10.5.0.0/16").is_more_specific_of(p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").is_more_specific_of(p("10.0.0.0/8")));
        assert!(!p("11.0.0.0/16").is_more_specific_of(p("10.0.0.0/8")));
    }

    #[test]
    fn overlap_is_symmetric() {
        assert!(p("10.0.0.0/8").overlaps(p("10.9.0.0/16")));
        assert!(p("10.9.0.0/16").overlaps(p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").overlaps(p("11.0.0.0/8")));
    }

    #[test]
    fn split_and_parent_invert() {
        let parent = p("192.0.2.0/24");
        let (low, high) = parent.split().unwrap();
        assert_eq!(low, p("192.0.2.0/25"));
        assert_eq!(high, p("192.0.2.128/25"));
        assert_eq!(low.parent().unwrap(), parent);
        assert_eq!(high.parent().unwrap(), parent);
        assert!(p("1.1.1.1/32").split().is_none());
        assert!(Ipv4Prefix::DEFAULT.parent().is_none());
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
        assert_eq!(
            "10.0.0.0/40".parse::<Ipv4Prefix>(),
            Err(ParsePrefixError::LengthOutOfRange(40))
        );
    }

    #[test]
    fn display_round_trips() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.128/25", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut v = vec![p("10.0.0.0/8"), p("9.0.0.0/8"), p("10.0.0.0/16")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn v6_canonicalizes_host_bits() {
        assert_eq!(p6("2001:db8::dead:beef/32"), p6("2001:db8::/32"));
        assert_eq!(p6("2001:db8::dead:beef/32").to_string(), "2001:db8::/32");
        assert_eq!(p6("::/0"), Ipv6Prefix::DEFAULT);
        assert_eq!(Ipv6Prefix::DEFAULT.len(), 0);
    }

    #[test]
    fn v6_contains_and_overlaps() {
        assert!(p6("2001:db8::/32").contains(p6("2001:db8:5::/48")));
        assert!(!p6("2001:db8:5::/48").contains(p6("2001:db8::/32")));
        assert!(p6("2001:db8::/32").overlaps(p6("2001:db8:9::/48")));
        assert!(!p6("2001:db8::/32").overlaps(p6("2001:db9::/32")));
        assert!(Ipv6Prefix::DEFAULT.contains(p6("::1/128")));
    }

    #[test]
    fn v6_rejects_bad_syntax() {
        assert!("2001:db8::".parse::<Ipv6Prefix>().is_err());
        assert!("2001:db8::/x".parse::<Ipv6Prefix>().is_err());
        assert_eq!(
            "2001:db8::/129".parse::<Ipv6Prefix>(),
            Err(ParsePrefixError::LengthOutOfRange(129))
        );
    }

    #[test]
    fn v6_display_round_trips() {
        for s in ["::/0", "2001:db8::/32", "::1/128", "fe80::/10"] {
            assert_eq!(p6(s).to_string(), s);
        }
    }
}
