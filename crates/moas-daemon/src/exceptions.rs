//! SLURM-style local exception files (the shape of RFC 8416).
//!
//! Operators override the derived MOAS table with a JSON exception file:
//!
//! ```json
//! {
//!   "slurmVersion": 1,
//!   "validationOutputFilters": {
//!     "prefixFilters": [
//!       { "prefix": "10.0.0.0/8", "comment": "drop everything derived here" },
//!       { "asn": 64666, "comment": "drop this origin everywhere" }
//!     ]
//!   },
//!   "locallyAddedAssertions": {
//!     "prefixAssertions": [
//!       { "prefix": "10.1.0.0/16", "asn": 64512, "comment": "our customer" }
//!     ]
//!   }
//! }
//! ```
//!
//! * A **filter** removes matching *derived* table entries from
//!   consideration: it matches an entry when its prefix (if given) covers or
//!   equals the entry's prefix and its ASN (if given) equals the entry's
//!   origin. At least one of `prefix`/`asn` must be present.
//! * An **assertion** unconditionally adds `(prefix, asn)` as if it were a
//!   derived entry. Assertions are *not* subject to filters — operator adds
//!   outrank operator removes outrank derived data.

use std::error::Error;
use std::fmt;

use bgp_types::json::{Json, JsonError};
use bgp_types::{Asn, Ipv4Prefix};

/// A malformed exception file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExceptionError {
    /// What went wrong, including the JSON parser's message when parsing
    /// failed.
    pub message: String,
}

impl fmt::Display for ExceptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid exception file: {}", self.message)
    }
}

impl Error for ExceptionError {}

impl From<JsonError> for ExceptionError {
    fn from(e: JsonError) -> Self {
        ExceptionError {
            message: format!("{} at byte {}", e.message, e.offset),
        }
    }
}

fn schema_err(message: impl Into<String>) -> ExceptionError {
    ExceptionError {
        message: message.into(),
    }
}

/// Removes derived `(prefix, origin)` entries from validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixFilter {
    /// Entries under this prefix (inclusive) match; `None` matches any
    /// prefix.
    pub prefix: Option<Ipv4Prefix>,
    /// Entries with this origin match; `None` matches any origin.
    pub asn: Option<Asn>,
    /// Free-form operator note, carried through serialization.
    pub comment: Option<String>,
}

impl PrefixFilter {
    /// `true` when the filter removes the derived entry
    /// `(entry_prefix, origin)`.
    #[must_use]
    pub fn matches(&self, entry_prefix: Ipv4Prefix, origin: Asn) -> bool {
        self.prefix.is_none_or(|p| p.contains(entry_prefix)) && self.asn.is_none_or(|a| a == origin)
    }
}

/// Unconditionally adds `(prefix, asn)` as an authorized origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixAssertion {
    /// The asserted prefix.
    pub prefix: Ipv4Prefix,
    /// The origin authorized for it.
    pub asn: Asn,
    /// Free-form operator note, carried through serialization.
    pub comment: Option<String>,
}

/// A parsed exception file: filters plus assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExceptionSet {
    /// `validationOutputFilters.prefixFilters`, in file order.
    pub filters: Vec<PrefixFilter>,
    /// `locallyAddedAssertions.prefixAssertions`, in file order.
    pub assertions: Vec<PrefixAssertion>,
}

impl ExceptionSet {
    /// The empty set: no overrides, validation uses derived data only.
    #[must_use]
    pub fn empty() -> Self {
        ExceptionSet::default()
    }

    /// Total number of override rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.filters.len() + self.assertions.len()
    }

    /// `true` when the file carried no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty() && self.assertions.is_empty()
    }

    /// `true` when some filter removes the derived entry
    /// `(entry_prefix, origin)`.
    #[must_use]
    pub fn filters_out(&self, entry_prefix: Ipv4Prefix, origin: Asn) -> bool {
        self.filters.iter().any(|f| f.matches(entry_prefix, origin))
    }

    /// The assertions whose prefix covers or equals `query`, in file order.
    #[must_use]
    pub fn assertions_covering(&self, query: Ipv4Prefix) -> Vec<&PrefixAssertion> {
        self.assertions
            .iter()
            .filter(|a| a.prefix.contains(query))
            .collect()
    }

    /// Parses a SLURM-shaped exception file.
    ///
    /// Both sections are optional; unknown keys are ignored (so real SLURM
    /// files with `bgpsecFilters`/`bgpsecAssertions` load cleanly, dropping
    /// the parts this daemon does not model).
    ///
    /// # Errors
    ///
    /// Returns an [`ExceptionError`] for malformed JSON, a filter naming
    /// neither `prefix` nor `asn`, an assertion missing either field, or an
    /// unparsable prefix/ASN.
    pub fn from_json(text: &str) -> Result<Self, ExceptionError> {
        let doc = Json::parse(text)?;
        let mut set = ExceptionSet::empty();
        if let Some(section) = doc.get("validationOutputFilters") {
            if let Some(Json::Arr(items)) = section.get("prefixFilters") {
                for item in items {
                    set.filters.push(parse_filter(item)?);
                }
            }
        }
        if let Some(section) = doc.get("locallyAddedAssertions") {
            if let Some(Json::Arr(items)) = section.get("prefixAssertions") {
                for item in items {
                    set.assertions.push(parse_assertion(item)?);
                }
            }
        }
        Ok(set)
    }

    /// Serializes back to the [`from_json`](Self::from_json) shape.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let filters: Vec<Json> = self
            .filters
            .iter()
            .map(|f| {
                let mut fields = Vec::new();
                if let Some(p) = f.prefix {
                    fields.push(("prefix".to_string(), Json::Str(p.to_string())));
                }
                if let Some(a) = f.asn {
                    fields.push(("asn".to_string(), Json::Num(f64::from(a.0))));
                }
                if let Some(c) = &f.comment {
                    fields.push(("comment".to_string(), Json::Str(c.clone())));
                }
                Json::Obj(fields)
            })
            .collect();
        let assertions: Vec<Json> = self
            .assertions
            .iter()
            .map(|a| {
                let mut fields = vec![
                    ("prefix".to_string(), Json::Str(a.prefix.to_string())),
                    ("asn".to_string(), Json::Num(f64::from(a.asn.0))),
                ];
                if let Some(c) = &a.comment {
                    fields.push(("comment".to_string(), Json::Str(c.clone())));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("slurmVersion".to_string(), Json::Num(1.0)),
            (
                "validationOutputFilters".to_string(),
                Json::Obj(vec![("prefixFilters".to_string(), Json::Arr(filters))]),
            ),
            (
                "locallyAddedAssertions".to_string(),
                Json::Obj(vec![(
                    "prefixAssertions".to_string(),
                    Json::Arr(assertions),
                )]),
            ),
        ])
        .pretty()
    }
}

fn parse_prefix(item: &Json, required: bool) -> Result<Option<Ipv4Prefix>, ExceptionError> {
    match item.get("prefix") {
        Some(Json::Str(s)) => s
            .parse()
            .map(Some)
            .map_err(|e| schema_err(format!("bad prefix '{s}': {e}"))),
        Some(_) => Err(schema_err("'prefix' must be a string")),
        None if required => Err(schema_err("assertion missing 'prefix'")),
        None => Ok(None),
    }
}

fn parse_asn(item: &Json, required: bool) -> Result<Option<Asn>, ExceptionError> {
    match item.get("asn") {
        Some(Json::Num(n)) if *n >= 0.0 && *n <= f64::from(u32::MAX) && n.fract() == 0.0 => {
            Ok(Some(Asn(*n as u32)))
        }
        Some(_) => Err(schema_err("'asn' must be a 32-bit AS number")),
        None if required => Err(schema_err("assertion missing 'asn'")),
        None => Ok(None),
    }
}

fn parse_comment(item: &Json) -> Option<String> {
    match item.get("comment") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn parse_filter(item: &Json) -> Result<PrefixFilter, ExceptionError> {
    let prefix = parse_prefix(item, false)?;
    let asn = parse_asn(item, false)?;
    if prefix.is_none() && asn.is_none() {
        return Err(schema_err("filter must name a 'prefix' or an 'asn'"));
    }
    Ok(PrefixFilter {
        prefix,
        asn,
        comment: parse_comment(item),
    })
}

fn parse_assertion(item: &Json) -> Result<PrefixAssertion, ExceptionError> {
    let prefix = parse_prefix(item, true)?.ok_or_else(|| schema_err("unreachable"))?;
    let asn = parse_asn(item, true)?.ok_or_else(|| schema_err("unreachable"))?;
    Ok(PrefixAssertion {
        prefix,
        asn,
        comment: parse_comment(item),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    const SAMPLE: &str = r#"{
        "slurmVersion": 1,
        "validationOutputFilters": {
            "prefixFilters": [
                { "prefix": "10.0.0.0/8", "comment": "drop derived 10/8" },
                { "asn": 64666 }
            ]
        },
        "locallyAddedAssertions": {
            "prefixAssertions": [
                { "prefix": "10.1.0.0/16", "asn": 64512, "comment": "customer" }
            ]
        }
    }"#;

    #[test]
    fn parses_both_sections() {
        let set = ExceptionSet::from_json(SAMPLE).unwrap();
        assert_eq!(set.filters.len(), 2);
        assert_eq!(set.assertions.len(), 1);
        assert_eq!(set.len(), 3);
        assert_eq!(set.filters[0].prefix, Some(p("10.0.0.0/8")));
        assert_eq!(set.filters[0].asn, None);
        assert_eq!(set.filters[1].asn, Some(Asn(64666)));
        assert_eq!(set.assertions[0].asn, Asn(64512));
    }

    #[test]
    fn empty_and_unknown_sections_are_fine() {
        assert!(ExceptionSet::from_json("{}").unwrap().is_empty());
        let set = ExceptionSet::from_json(r#"{"slurmVersion": 1, "bgpsecFilters": []}"#).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn filter_matching_covers_more_specifics() {
        let set = ExceptionSet::from_json(SAMPLE).unwrap();
        // Prefix-only filter hits any origin under 10/8, including 10/8 itself.
        assert!(set.filters_out(p("10.0.0.0/8"), Asn(1)));
        assert!(set.filters_out(p("10.9.0.0/16"), Asn(2)));
        assert!(!set.filters_out(p("11.0.0.0/8"), Asn(1)));
        // ASN-only filter hits that origin anywhere.
        assert!(set.filters_out(p("192.0.2.0/24"), Asn(64666)));
        assert!(!set.filters_out(p("192.0.2.0/24"), Asn(64667)));
    }

    #[test]
    fn assertions_covering_respects_prefix_containment() {
        let set = ExceptionSet::from_json(SAMPLE).unwrap();
        assert_eq!(set.assertions_covering(p("10.1.0.0/16")).len(), 1);
        assert_eq!(set.assertions_covering(p("10.1.2.0/24")).len(), 1);
        assert!(set.assertions_covering(p("10.0.0.0/8")).is_empty());
        assert!(set.assertions_covering(p("10.2.0.0/16")).is_empty());
    }

    #[test]
    fn rejects_rule_without_selector() {
        let bad = r#"{"validationOutputFilters": {"prefixFilters": [ {"comment": "x"} ]}}"#;
        assert!(ExceptionSet::from_json(bad).is_err());
        let bad = r#"{"locallyAddedAssertions": {"prefixAssertions": [ {"asn": 5} ]}}"#;
        assert!(ExceptionSet::from_json(bad).is_err());
        let bad =
            r#"{"locallyAddedAssertions": {"prefixAssertions": [ {"prefix": "10.0.0.0/8"} ]}}"#;
        assert!(ExceptionSet::from_json(bad).is_err());
    }

    #[test]
    fn json_round_trip_preserves_rules() {
        let set = ExceptionSet::from_json(SAMPLE).unwrap();
        let back = ExceptionSet::from_json(&set.to_json_string()).unwrap();
        assert_eq!(back, set);
    }
}
