//! Daily routing-table dumps, reduced to origin observations.

use std::collections::{BTreeMap, BTreeSet};

use bgp_types::{Asn, Ipv4Prefix};

/// What one daily Route Views table dump contributes to the MOAS study: for
/// each prefix, the set of origin ASes observed announcing it that day.
///
/// The paper's footnote on methodology applies here too: the collector takes
/// *daily* snapshots, so any conflict shorter than the dump interval is
/// indistinguishable from a one-day case.
///
/// # Example
///
/// ```
/// use bgp_types::Asn;
/// use route_measurement::DailyDump;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dump = DailyDump::new(0);
/// dump.observe("208.8.0.0/16".parse()?, Asn(4));
/// dump.observe("208.8.0.0/16".parse()?, Asn(226));
/// dump.observe("10.0.0.0/8".parse()?, Asn(701));
/// assert_eq!(dump.moas_count(), 1);
/// assert_eq!(dump.prefix_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DailyDump {
    day: u32,
    origins: BTreeMap<Ipv4Prefix, BTreeSet<Asn>>,
}

impl DailyDump {
    /// Creates an empty dump for day `day` (days count from the start of the
    /// collection period).
    #[must_use]
    pub fn new(day: u32) -> Self {
        DailyDump {
            day,
            origins: BTreeMap::new(),
        }
    }

    /// The day index of this dump.
    #[must_use]
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Records that `origin` announced `prefix` in this dump.
    pub fn observe(&mut self, prefix: Ipv4Prefix, origin: Asn) {
        self.origins.entry(prefix).or_default().insert(origin);
    }

    /// Records every origin in `origins` for `prefix` with a single map
    /// lookup. An empty iterator records nothing — in particular it does
    /// not create an empty entry for `prefix`, so `prefix_count` matches a
    /// loop of [`DailyDump::observe`] calls exactly.
    pub fn observe_all(&mut self, prefix: Ipv4Prefix, origins: impl IntoIterator<Item = Asn>) {
        let mut origins = origins.into_iter();
        let Some(first) = origins.next() else { return };
        let set = self.origins.entry(prefix).or_default();
        set.insert(first);
        set.extend(origins);
    }

    /// Number of prefixes observed.
    #[must_use]
    pub fn prefix_count(&self) -> usize {
        self.origins.len()
    }

    /// Number of prefixes in MOAS state (more than one origin) — one point
    /// of Figure 4.
    #[must_use]
    pub fn moas_count(&self) -> usize {
        self.origins.values().filter(|set| set.len() > 1).count()
    }

    /// The prefixes in MOAS state, with their origin sets.
    pub fn moas_cases(&self) -> impl Iterator<Item = (Ipv4Prefix, &BTreeSet<Asn>)> {
        self.origins
            .iter()
            .filter(|(_, set)| set.len() > 1)
            .map(|(&prefix, set)| (prefix, set))
    }

    /// All observed prefixes with their origin sets.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &BTreeSet<Asn>)> {
        self.origins.iter().map(|(&prefix, set)| (prefix, set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn observe_accumulates_origin_sets() {
        let mut d = DailyDump::new(3);
        d.observe(p("10.0.0.0/8"), Asn(1));
        d.observe(p("10.0.0.0/8"), Asn(1));
        d.observe(p("10.0.0.0/8"), Asn(2));
        assert_eq!(d.day(), 3);
        let origins = BTreeSet::from([Asn(1), Asn(2)]);
        assert_eq!(d.iter().collect::<Vec<_>>(), [(p("10.0.0.0/8"), &origins)]);
    }

    #[test]
    fn moas_count_ignores_single_origin_prefixes() {
        let mut d = DailyDump::new(0);
        d.observe(p("10.0.0.0/8"), Asn(1));
        d.observe(p("11.0.0.0/8"), Asn(1));
        d.observe(p("11.0.0.0/8"), Asn(2));
        assert_eq!(d.moas_count(), 1);
        let cases: Vec<_> = d.moas_cases().collect();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].0, p("11.0.0.0/8"));
    }

    #[test]
    fn unseen_prefix_has_empty_origins() {
        let d = DailyDump::new(0);
        assert_eq!(d.iter().count(), 0);
        assert_eq!(d.prefix_count(), 0);
        assert_eq!(d.moas_count(), 0);
    }

    #[test]
    fn observe_all_matches_observe_loop() {
        let mut batched = DailyDump::new(0);
        batched.observe_all(p("10.0.0.0/8"), [Asn(1), Asn(2), Asn(1)]);
        batched.observe_all(p("11.0.0.0/8"), [Asn(3)]);
        batched.observe_all(p("12.0.0.0/8"), []);
        let mut looped = DailyDump::new(0);
        for (prefix, origin) in [
            (p("10.0.0.0/8"), Asn(1)),
            (p("10.0.0.0/8"), Asn(2)),
            (p("10.0.0.0/8"), Asn(1)),
            (p("11.0.0.0/8"), Asn(3)),
        ] {
            looped.observe(prefix, origin);
        }
        assert_eq!(batched, looped);
        assert_eq!(batched.prefix_count(), 2, "empty batch adds no prefix");
    }

    #[test]
    fn iter_covers_everything() {
        let mut d = DailyDump::new(0);
        d.observe(p("10.0.0.0/8"), Asn(1));
        d.observe(p("11.0.0.0/8"), Asn(2));
        assert_eq!(d.iter().count(), 2);
    }
}
