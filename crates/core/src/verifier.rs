//! Origin verification back-ends (§4.4).
//!
//! Detection only says *something* is wrong; "once an alarm is raised, the
//! router (or network administrator) needs to distinguish the route with
//! correct origin AS(es) from the one with the false origin" (§4.4). The
//! paper sketches a DNS-based lookup (`MOASRR` resource records); related
//! work uses the Internet Route Registry. Both are modeled here as
//! implementations of [`OriginVerifier`].

use std::collections::BTreeMap;

use bgp_types::{Ipv4Prefix, MoasList};
use rand::rngs::SmallRng;

/// Resolves the legitimate origin set of a prefix after an alarm.
///
/// Returns `None` when the verifier cannot answer (no record registered, or
/// the lookup service is unreachable); the caller then applies its
/// [`UnresolvedPolicy`](crate::UnresolvedPolicy).
pub trait OriginVerifier {
    /// Looks up the valid origin set for `prefix`.
    ///
    /// Takes `&mut self` so implementations can count queries and model
    /// transient availability.
    fn valid_origins(&mut self, prefix: Ipv4Prefix) -> Option<MoasList>;

    /// Number of lookups performed so far. The paper argues MOAS-triggered
    /// lookups keep this low ("only in cases of invalid MOAS or dropped MOAS
    /// lists will DNS queries be triggered", §4.4); experiments assert it.
    fn query_count(&self) -> u64;
}

/// A static registry mapping prefixes to their legitimate origin sets.
///
/// Used two ways in the reproduction:
///
/// * built from simulation ground truth, it is the *oracle* the §5
///   experiments assume ("they stop the further propagation of a false route,
///   e.g. by checking with DNS");
/// * built from deliberately stale data, it models the Internet Route
///   Registry critique of §2 ("some IRR records are outdated or inaccurate").
///
/// # Example
///
/// ```
/// use bgp_types::{Asn, MoasList};
/// use moas_core::{OriginVerifier, RegistryVerifier};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = RegistryVerifier::new();
/// reg.register("208.8.0.0/16".parse()?, [Asn(1), Asn(2)].into_iter().collect());
/// let origins = reg.valid_origins("208.8.0.0/16".parse()?).unwrap();
/// assert!(origins.contains(Asn(1)));
/// assert_eq!(reg.query_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryVerifier {
    records: BTreeMap<Ipv4Prefix, MoasList>,
    queries: u64,
}

impl RegistryVerifier {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        RegistryVerifier::default()
    }

    /// Registers (or replaces) the valid origin set for a prefix.
    pub fn register(&mut self, prefix: Ipv4Prefix, origins: MoasList) {
        self.records.insert(prefix, origins);
    }

    /// Number of registered prefixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no prefixes are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl OriginVerifier for RegistryVerifier {
    fn valid_origins(&mut self, prefix: Ipv4Prefix) -> Option<MoasList> {
        self.queries += 1;
        self.records.get(&prefix).cloned()
    }

    fn query_count(&self) -> u64 {
        self.queries
    }
}

impl FromIterator<(Ipv4Prefix, MoasList)> for RegistryVerifier {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, MoasList)>>(iter: I) -> Self {
        RegistryVerifier {
            records: iter.into_iter().collect(),
            queries: 0,
        }
    }
}

/// A DNS-backed verifier holding `MOASRR` records, with imperfect
/// availability.
///
/// §2 and §4.4 note the circular dependency: "DNS operations rely on the
/// routing to function correctly". `availability` is the probability a
/// lookup succeeds; failed lookups return `None` and are counted, letting
/// ablations quantify how much the mechanism degrades when its resolver is
/// partly unreachable (as it would be during the very incidents it guards
/// against).
///
/// # Example
///
/// ```
/// use bgp_types::{Asn, MoasList};
/// use moas_core::{DnsMoasVerifier, OriginVerifier};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dns = DnsMoasVerifier::new(1.0, 7); // always reachable
/// dns.register("208.8.0.0/16".parse()?, MoasList::implicit(Asn(4)));
/// assert!(dns.valid_origins("208.8.0.0/16".parse()?).is_some());
/// assert_eq!(dns.failed_lookups(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DnsMoasVerifier {
    records: BTreeMap<Ipv4Prefix, MoasList>,
    availability: f64,
    rng: SmallRng,
    queries: u64,
    failures: u64,
}

impl DnsMoasVerifier {
    /// Creates a DNS verifier with the given lookup success probability
    /// (clamped to `[0, 1]`) and RNG seed.
    #[must_use]
    pub fn new(availability: f64, seed: u64) -> Self {
        DnsMoasVerifier {
            records: BTreeMap::new(),
            availability: availability.clamp(0.0, 1.0),
            rng: bgp_types::rng::from_seed(seed),
            queries: 0,
            failures: 0,
        }
    }

    /// Publishes a `MOASRR` record for a prefix.
    pub fn register(&mut self, prefix: Ipv4Prefix, origins: MoasList) {
        self.records.insert(prefix, origins);
    }

    /// Lookups that failed because the resolver was unreachable.
    #[must_use]
    pub fn failed_lookups(&self) -> u64 {
        self.failures
    }
}

impl OriginVerifier for DnsMoasVerifier {
    fn valid_origins(&mut self, prefix: Ipv4Prefix) -> Option<MoasList> {
        self.queries += 1;
        if !bgp_types::rng::coin(&mut self.rng, self.availability) {
            self.failures += 1;
            return None;
        }
        self.records.get(&prefix).cloned()
    }

    fn query_count(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Asn;

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = RegistryVerifier::new();
        assert!(reg.is_empty());
        let list: MoasList = [Asn(1), Asn(2)].into_iter().collect();
        reg.register(p(), list.clone());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.valid_origins(p()), Some(list));
        assert_eq!(reg.valid_origins("10.9.0.0/16".parse().unwrap()), None);
        assert_eq!(reg.query_count(), 2);
    }

    #[test]
    fn registry_from_iterator() {
        let reg: RegistryVerifier = [(p(), MoasList::implicit(Asn(4)))].into_iter().collect();
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn stale_registry_gives_wrong_answer() {
        // IRR critique: record predates the prefix moving from AS 1 to AS 2.
        let mut stale = RegistryVerifier::new();
        stale.register(p(), MoasList::implicit(Asn(1)));
        let answer = stale.valid_origins(p()).unwrap();
        assert!(
            !answer.contains(Asn(2)),
            "stale record blesses only the old origin"
        );
    }

    #[test]
    fn dns_always_available_behaves_like_registry() {
        let mut dns = DnsMoasVerifier::new(1.0, 3);
        dns.register(p(), MoasList::implicit(Asn(4)));
        for _ in 0..50 {
            assert!(dns.valid_origins(p()).is_some());
        }
        assert_eq!(dns.failed_lookups(), 0);
        assert_eq!(dns.query_count(), 50);
    }

    #[test]
    fn dns_unavailable_always_fails() {
        let mut dns = DnsMoasVerifier::new(0.0, 3);
        dns.register(p(), MoasList::implicit(Asn(4)));
        assert!(dns.valid_origins(p()).is_none());
        assert_eq!(dns.failed_lookups(), 1);
    }

    #[test]
    fn dns_partial_availability_fails_sometimes() {
        let mut dns = DnsMoasVerifier::new(0.5, 3);
        dns.register(p(), MoasList::implicit(Asn(4)));
        let ok = (0..1000)
            .filter(|_| dns.valid_origins(p()).is_some())
            .count();
        assert!((350..650).contains(&ok), "ok = {ok}");
        assert_eq!(dns.failed_lookups() as usize, 1000 - ok);
    }

    #[test]
    fn missing_record_with_available_dns_is_none_but_not_a_failure() {
        let mut dns = DnsMoasVerifier::new(1.0, 3);
        assert!(dns.valid_origins(p()).is_none());
        assert_eq!(dns.failed_lookups(), 0);
    }
}
