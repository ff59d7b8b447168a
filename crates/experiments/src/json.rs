//! The JSON files `moas-lab` writes and reads.
//!
//! The value type, printer and parser are [`bgp_types::json`], re-exported
//! here. The CLI writes five kinds of file as JSON: the `chaos`, `chaos
//! --deployment-sweep`, session-layer `chaos` and `ensemble` reports
//! (`--out FILE`, or stdout), and the `--metrics FILE` snapshot. [`ToJson`]
//! is implemented only for the types inside those files. The snapshot is
//! the one file read back, by `moas-lab metrics-summary`, through
//! [`parse_snapshot`](crate::metrics::parse_snapshot).

use std::collections::BTreeMap;
use std::fmt;

pub use bgp_types::json::{Json, JsonError};

/// Types written as JSON: the reports and snapshots `moas-lab` saves.
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json_value(&self) -> Json;
}

/// Pretty-prints any encodable value.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json_value().pretty()
}

impl ToJson for f64 {
    fn to_json_value(&self) -> Json {
        Json::Num(*self)
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Json {
                Json::Int(*self as u64)
            }
        }
    )*};
}

impl_json_int!(u64, usize);

impl ToJson for String {
    fn to_json_value(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<K: Ord + fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json_value(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json_value()))
                .collect(),
        )
    }
}

/// Derives [`ToJson`] for a named-field struct: an object with one key per
/// field, in the order listed.
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json_value(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), self.$field.to_json_value())),+
                ])
            }
        }
    };
}

pub(crate) use impl_json_struct;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_codec() {
        let mut m = BTreeMap::new();
        m.insert(3usize, 1usize);
        m.insert(2usize, 7usize);
        let text = to_string_pretty(&m);
        assert_eq!(text, "{\n  \"2\": 7,\n  \"3\": 1\n}");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("2"), Some(&Json::Num(7.0)));
        assert_eq!(back.pretty(), text);
    }

    #[test]
    fn integers_print_exactly() {
        for n in [
            0u64,
            683,
            999_999_999_999_999,
            9_007_199_254_740_993,
            u64::MAX,
        ] {
            assert_eq!(n.to_json_value().pretty(), n.to_string());
        }
        // Below 1e15 an integer prints as the same number held as a float.
        assert_eq!(Json::Int(683).pretty(), Json::Num(683.0).pretty());
        // The parser never produces `Int`.
        assert_eq!(Json::parse("683").unwrap(), Json::Num(683.0));
    }
}
