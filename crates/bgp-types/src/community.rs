//! BGP community attributes.

use std::fmt;

use crate::Asn;

/// A BGP community attribute value (RFC 1997): four octets, conventionally
/// displayed as `ASN:value`.
///
/// The first two octets encode an AS number and the semantics of the final two
/// octets are defined by that AS. The paper's MOAS list rides in communities
/// on the wire, but a [`Route`](crate::Route) keeps it as a field of its own:
/// `bgp_wire` alone reads and writes that encoding.
///
/// # Example
///
/// ```
/// use bgp_types::{Asn, Community};
///
/// let c = Community::new(Asn(701), 120);
/// assert_eq!(c.asn(), Asn(701));
/// assert_eq!(c.value(), 120);
/// assert!(!c.is_well_known());
/// assert_eq!(c.to_string(), "701:120");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community(pub u32);

impl Community {
    /// RFC 1997 well-known community `NO_EXPORT`.
    pub const NO_EXPORT: Community = Community(0xFFFF_FF01);

    /// RFC 1997 well-known community `NO_ADVERTISE`.
    pub const NO_ADVERTISE: Community = Community(0xFFFF_FF02);

    /// Builds a community from its AS-number half and value half.
    ///
    /// Only 2-octet AS numbers fit in a classic community; the low 16 bits of
    /// the ASN are used, matching 2001-era practice.
    #[must_use]
    pub fn new(asn: Asn, value: u16) -> Self {
        Community(((asn.0 & 0xFFFF) << 16) | u32::from(value))
    }

    /// The AS-number half (first two octets).
    #[must_use]
    pub fn asn(self) -> Asn {
        Asn(self.0 >> 16)
    }

    /// The value half (last two octets).
    #[must_use]
    pub fn value(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// Returns `true` for RFC 1997 well-known communities (high octets
    /// `0xFFFF`).
    #[must_use]
    pub fn is_well_known(self) -> bool {
        self.0 >> 16 == 0xFFFF
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.0 >> 16, self.value())
    }
}

impl fmt::LowerHex for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u32> for Community {
    fn from(raw: u32) -> Self {
        Community(raw)
    }
}

impl From<Community> for u32 {
    fn from(c: Community) -> Self {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_byte_asn_is_truncated_to_low_16_bits() {
        let c = Community::new(Asn(0x0001_0002), 7);
        assert_eq!(c.asn(), Asn(2));
    }

    #[test]
    fn display_format() {
        assert_eq!(Community::new(Asn(701), 120).to_string(), "701:120");
    }

    #[test]
    fn hex_formatting_is_available() {
        let c = Community::new(Asn(1), 2);
        assert_eq!(format!("{c:x}"), "10002");
        assert_eq!(format!("{c:X}"), "10002");
    }

    #[test]
    fn raw_conversions() {
        let c = Community::from(0xDEAD_BEEF);
        assert_eq!(u32::from(c), 0xDEAD_BEEF);
    }
}
