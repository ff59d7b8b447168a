//! Which ASes run the MOAS check.

use std::collections::BTreeSet;
use std::fmt;

use bgp_types::Asn;

/// The deployment state of MOAS-list checking across the network.
///
/// §5.4 evaluates partial deployment: "we randomly select 50% of the nodes to
/// have the capability of processing MOAS List... The other nodes ignore the
/// MOAS List."
///
/// # Example
///
/// ```
/// use bgp_types::Asn;
/// use moas_core::Deployment;
///
/// let asns = vec![Asn(1), Asn(2), Asn(3), Asn(4)];
/// let half = Deployment::sample(&asns, 0.5, 7);
/// let Deployment::Partial(capable) = &half else { unreachable!() };
/// assert_eq!(capable.len(), 2);
/// assert!(Deployment::Full.is_capable(Asn(99)));
/// assert!(!Deployment::None.is_capable(Asn(99)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Deployment {
    /// No AS checks MOAS lists — the paper's "Normal BGP" baseline.
    None,
    /// Every AS checks — "Full MOAS Detection".
    Full,
    /// Only the listed ASes check — e.g. "Half MOAS Detection".
    Partial(BTreeSet<Asn>),
}

impl Deployment {
    /// Randomly selects `fraction` of `asns` as capable, deterministically in
    /// `seed`.
    #[must_use]
    pub fn sample(asns: &[Asn], fraction: f64, seed: u64) -> Deployment {
        let fraction = fraction.clamp(0.0, 1.0);
        if fraction >= 1.0 {
            return Deployment::Full;
        }
        if fraction <= 0.0 {
            return Deployment::None;
        }
        let take = ((asns.len() as f64) * fraction).round() as usize;
        let mut rng = bgp_types::rng::from_seed(seed);
        let picked = bgp_types::rng::sample_distinct(&mut rng, asns, take);
        Deployment::Partial(picked.into_iter().collect())
    }

    /// Returns `true` if `asn` processes MOAS lists.
    #[must_use]
    pub fn is_capable(&self, asn: Asn) -> bool {
        match self {
            Deployment::None => false,
            Deployment::Full => true,
            Deployment::Partial(set) => set.contains(&asn),
        }
    }
}

impl Default for Deployment {
    /// Defaults to [`Deployment::Full`]: the configuration the paper's
    /// headline experiments assume.
    fn default() -> Self {
        Deployment::Full
    }
}

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Deployment::None => f.write_str("no deployment"),
            Deployment::Full => f.write_str("full deployment"),
            Deployment::Partial(set) => write!(f, "partial deployment ({} ASes)", set.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_extremes_collapse_to_variants() {
        let asns = vec![Asn(1), Asn(2)];
        assert_eq!(Deployment::sample(&asns, 1.0, 1), Deployment::Full);
        assert_eq!(Deployment::sample(&asns, 0.0, 1), Deployment::None);
        assert_eq!(Deployment::sample(&asns, 2.0, 1), Deployment::Full);
        assert_eq!(Deployment::sample(&asns, -0.5, 1), Deployment::None);
    }

    #[test]
    fn sample_is_deterministic() {
        let asns: Vec<Asn> = (1..=100).map(Asn).collect();
        assert_eq!(
            Deployment::sample(&asns, 0.5, 9),
            Deployment::sample(&asns, 0.5, 9)
        );
        assert_ne!(
            Deployment::sample(&asns, 0.5, 9),
            Deployment::sample(&asns, 0.5, 10)
        );
    }

    #[test]
    fn sample_size_matches_fraction() {
        let asns: Vec<Asn> = (1..=100).map(Asn).collect();
        let d = Deployment::sample(&asns, 0.3, 4);
        let Deployment::Partial(capable) = d else {
            panic!("0.3 of 100 is a partial deployment: {d:?}");
        };
        assert_eq!(capable.len(), 30);
    }

    #[test]
    fn capability_checks() {
        let set: BTreeSet<Asn> = [Asn(1)].into_iter().collect();
        let d = Deployment::Partial(set);
        assert!(d.is_capable(Asn(1)));
        assert!(!d.is_capable(Asn(2)));
    }

    #[test]
    fn display_variants() {
        assert_eq!(Deployment::None.to_string(), "no deployment");
        assert_eq!(Deployment::Full.to_string(), "full deployment");
        let d = Deployment::Partial([Asn(1), Asn(2)].into_iter().collect());
        assert_eq!(d.to_string(), "partial deployment (2 ASes)");
    }
}
