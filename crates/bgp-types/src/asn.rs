//! Autonomous-system numbers.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseAsnError;

/// An autonomous-system number.
///
/// At the time of the paper AS numbers were 16-bit identifiers; we store them
/// as `u32` so that the same type also covers 4-octet AS numbers (RFC 6793).
///
/// # Example
///
/// ```
/// use bgp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sprint: Asn = "1239".parse()?;
/// assert_eq!(sprint, Asn(1239));
/// assert_eq!(sprint.value(), 1239);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u32);

impl Asn {
    /// The raw numeric value.
    #[must_use]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(value: u32) -> Self {
        Asn(value)
    }
}

impl From<u16> for Asn {
    fn from(value: u16) -> Self {
        Asn(u32::from(value))
    }
}

impl From<Asn> for u32 {
    fn from(asn: Asn) -> Self {
        asn.0
    }
}

impl FromStr for Asn {
    type Err = ParseAsnError;

    /// Parses either a bare number (`"1239"`) or the display form (`"AS1239"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.strip_prefix("AS").unwrap_or(s);
        digits.parse::<u32>().map(Asn).map_err(|_| ParseAsnError {
            input: s.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_from_str() {
        for raw in [0u32, 1, 1239, 64_511, 64_512, 65_534, 65_535, 400_000] {
            let asn = Asn(raw);
            let shown = asn.to_string();
            assert_eq!(shown.parse::<Asn>().unwrap(), asn);
        }
    }

    #[test]
    fn parses_bare_number() {
        assert_eq!("8584".parse::<Asn>().unwrap(), Asn(8584));
    }

    #[test]
    fn rejects_garbage() {
        assert!("".parse::<Asn>().is_err());
        assert!("AS".parse::<Asn>().is_err());
        assert!("ASx".parse::<Asn>().is_err());
        assert!("-1".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err());
    }

    #[test]
    fn conversions() {
        assert_eq!(Asn::from(7u16), Asn(7));
        assert_eq!(Asn::from(7u32), Asn(7));
        assert_eq!(u32::from(Asn(7)), 7);
    }

    #[test]
    fn ordering_matches_numeric_ordering() {
        assert!(Asn(1) < Asn(2));
        assert!(Asn(65_535) < Asn(65_536));
    }
}
