//! The §4.3 overhead analysis: what attaching MOAS lists costs.
//!
//! "The attachment of a MOAS list also adds to the overall size of the
//! routing table and route announcements. Routes that originate from a
//! single AS need not attach a MOAS list. [...] less than 3,000 routes
//! originate from multiple ASes [...] about 99% of all MOAS cases involve 3
//! or fewer origin ASes. Thus the MOAS list itself should be relatively
//! short." This module quantifies that argument over any daily table dump.

use std::collections::BTreeMap;
use std::fmt;

use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
use bgp_wire::bgp::PathAttributes;
use bgp_wire::mrt::{MrtBody, MrtRecord, RibEntry, RibIpv4Unicast};
use route_measurement::DailyDump;

/// Wire-size assumptions for the estimate, in bytes.
///
/// A community attribute value is exactly 4 octets (RFC 1997); the attribute
/// header costs 3 octets once per route that carries any community. The
/// baseline per-route size approximates a 2001-era RIB entry (prefix, a
/// ~3.7-hop AS path of 2-octet ASNs, origin/next-hop attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireModel {
    /// Estimated bytes per table route without MOAS lists.
    pub baseline_route_bytes: u64,
    /// Bytes per MOAS-list member (one community value).
    pub bytes_per_member: u64,
    /// One-time attribute header bytes per route carrying a list.
    pub attribute_header_bytes: u64,
}

impl Default for WireModel {
    fn default() -> Self {
        WireModel {
            baseline_route_bytes: 36,
            bytes_per_member: 4,
            attribute_header_bytes: 3,
        }
    }
}

/// The measured overhead of attaching MOAS lists to a table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadReport {
    /// Total routes (prefixes) in the table.
    pub total_routes: usize,
    /// Routes announced by multiple origins — the only ones needing a list.
    pub multi_origin_routes: usize,
    /// Distribution of list sizes over the multi-origin routes.
    pub list_size_distribution: BTreeMap<usize, usize>,
    /// Bytes the MOAS lists add.
    pub added_bytes: u64,
    /// Estimated table size without lists.
    pub baseline_bytes: u64,
}

impl OverheadReport {
    /// Added bytes relative to the baseline table size.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.baseline_bytes == 0 {
            0.0
        } else {
            self.added_bytes as f64 / self.baseline_bytes as f64
        }
    }

    /// Fraction of routes that need a list at all.
    #[must_use]
    pub fn affected_fraction(&self) -> f64 {
        if self.total_routes == 0 {
            0.0
        } else {
            self.multi_origin_routes as f64 / self.total_routes as f64
        }
    }

    /// Fraction of multi-origin routes with 3 or fewer origins (the paper's
    /// "about 99%").
    #[must_use]
    pub fn short_list_fraction(&self) -> f64 {
        if self.multi_origin_routes == 0 {
            return 1.0;
        }
        let short: usize = self
            .list_size_distribution
            .iter()
            .filter(|(&size, _)| size <= 3)
            .map(|(_, &n)| n)
            .sum();
        short as f64 / self.multi_origin_routes as f64
    }
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} routes need a MOAS list ({:.2}%); {} bytes added over ~{} ({:.3}%); {:.1}% of lists have <=3 members",
            self.multi_origin_routes,
            self.total_routes,
            100.0 * self.affected_fraction(),
            self.added_bytes,
            self.baseline_bytes,
            100.0 * self.overhead_fraction(),
            100.0 * self.short_list_fraction(),
        )
    }
}

/// Measures the overhead of MOAS lists over one daily table dump.
///
/// # Example
///
/// ```
/// use experiments::moas_list_overhead;
/// use route_measurement::{generate_timeline, TimelineConfig};
///
/// let timeline = generate_timeline(&TimelineConfig::paper().with_days(30));
/// let report = moas_list_overhead(timeline.dumps.last().unwrap(), Default::default());
/// assert!(report.multi_origin_routes > 0);
/// assert!(report.short_list_fraction() > 0.9);
/// ```
#[must_use]
pub fn moas_list_overhead(dump: &DailyDump, wire: WireModel) -> OverheadReport {
    overhead_with(dump.iter(), |_, origins| {
        let added = if origins.len() > 1 {
            wire.attribute_header_bytes + wire.bytes_per_member * origins.len() as u64
        } else {
            0
        };
        (wire.baseline_route_bytes, added)
    })
}

/// MRT framing bytes per RIB record that [`WireModel`]'s per-route estimate
/// deliberately leaves out: the 12-byte record header, the 4-byte sequence
/// number, and the 2-byte entry count.
pub const MRT_FRAMING_BYTES: u64 = 18;

/// Measures the overhead of MOAS lists by *actually encoding* each table
/// route with the `bgp-wire` codec, instead of assuming per-route byte
/// counts.
///
/// Every prefix is rendered as one `TABLE_DUMP_V2` `RIB_IPV4_UNICAST`
/// record holding a representative 4-hop route; the route is encoded twice
/// — with and without its MOAS-list communities — and the difference is the
/// measured cost of the list. Baselines subtract [`MRT_FRAMING_BYTES`] so
/// they estimate the same quantity as [`WireModel::baseline_route_bytes`]
/// (the in-table size of one route).
///
/// The companion analytic model stays as a cross-check:
/// `added_bytes` agrees *exactly* (a community is always 4 octets and the
/// attribute header 3), while the measured baseline runs ~20% above the
/// analytic 36-byte estimate — `TABLE_DUMP_V2` mandates 4-octet ASNs
/// (+8 bytes on a 4-hop path) and a 4-byte per-entry `originated_time`,
/// both of which the 2001-era 2-octet analytic model deliberately omits.
/// The cross-check test bounds the divergence at 25%.
///
/// The per-route encoding fans across up to `jobs` worker threads in
/// contiguous chunks. All tallies are integers and the partials merge in
/// prefix order, so the report is identical for every `jobs` value.
#[must_use]
pub fn measure_moas_list_overhead(dump: &DailyDump, jobs: usize) -> OverheadReport {
    let entries: Vec<(Ipv4Prefix, &std::collections::BTreeSet<Asn>)> = dump.iter().collect();
    let workers = jobs.max(1).min(entries.len().max(1));
    let chunk_len = entries.len().div_ceil(workers);
    let chunks: Vec<_> = entries.chunks(chunk_len.max(1)).collect();

    let partials = minipool::map_indexed(jobs, chunks.len(), |ci| {
        overhead_with(chunks[ci].iter().copied(), measured_cost)
    });

    partials
        .into_iter()
        .fold(OverheadReport::default(), |mut merged, partial| {
            merged.total_routes += partial.total_routes;
            merged.multi_origin_routes += partial.multi_origin_routes;
            for (size, count) in partial.list_size_distribution {
                *merged.list_size_distribution.entry(size).or_insert(0) += count;
            }
            merged.added_bytes += partial.added_bytes;
            merged.baseline_bytes += partial.baseline_bytes;
            merged
        })
}

/// The measured `(baseline, added)` byte cost of one table route: encode it
/// through the `bgp-wire` codec with and without its MOAS list.
fn measured_cost(prefix: Ipv4Prefix, origins: &std::collections::BTreeSet<Asn>) -> (u64, u64) {
    let (without, with) = encoded_lens(prefix, origins.iter().copied().collect());
    let added = if origins.len() > 1 { with - without } else { 0 };
    (without - MRT_FRAMING_BYTES, added)
}

/// The bytes `list` adds to a table route when the `bgp-wire` codec writes
/// it: 4 per member that fits 16 bits (a community), 12 per wider member
/// (a large community), and 3 per attribute header.
#[must_use]
pub fn measured_list_bytes(list: &MoasList) -> u64 {
    let (without, with) = encoded_lens(Ipv4Prefix::new(0xD008_0000, 16), list.clone());
    with - without
}

/// The lengths of a single-entry RIB record for a 2001-vintage route to
/// `prefix` — ~4 hops of 2-octet ASNs ending at the list's first member,
/// the [`WireModel`]'s assumptions — without and with `list`. A table
/// dump carries no `LOCAL_PREF`, so it is left out.
fn encoded_lens(prefix: Ipv4Prefix, list: MoasList) -> (u64, u64) {
    let origin = list.iter().next().unwrap_or(Asn(0));
    let route = Route::new(
        prefix,
        AsPath::from_sequence([Asn(701), Asn(1239), Asn(7018), origin]),
    );
    let encoded_len = |route: &Route| {
        let mut attrs = PathAttributes::from_route(route);
        attrs.local_pref = None;
        let record = MrtRecord {
            timestamp: 0,
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: 0,
                prefix,
                entries: vec![RibEntry {
                    peer_index: 0,
                    originated_time: 0,
                    attrs,
                }],
            }),
        };
        record
            .encode()
            .expect("a one-entry record always encodes")
            .len() as u64
    };
    (
        encoded_len(&route),
        encoded_len(&route.with_moas_list(list)),
    )
}

/// Shared tally: `cost` returns `(baseline_bytes, added_bytes)` per route.
fn overhead_with<'a>(
    routes: impl Iterator<Item = (Ipv4Prefix, &'a std::collections::BTreeSet<Asn>)>,
    mut cost: impl FnMut(Ipv4Prefix, &std::collections::BTreeSet<Asn>) -> (u64, u64),
) -> OverheadReport {
    let mut list_size_distribution: BTreeMap<usize, usize> = BTreeMap::new();
    let mut added_bytes = 0u64;
    let mut baseline_bytes = 0u64;
    let mut total_routes = 0usize;
    let mut multi_origin_routes = 0usize;

    for (prefix, origins) in routes {
        total_routes += 1;
        if origins.len() > 1 {
            multi_origin_routes += 1;
            *list_size_distribution.entry(origins.len()).or_insert(0) += 1;
        }
        let (baseline, added) = cost(prefix, origins);
        baseline_bytes += baseline;
        added_bytes += added;
    }

    OverheadReport {
        total_routes,
        multi_origin_routes,
        list_size_distribution,
        added_bytes,
        baseline_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{Asn, Ipv4Prefix};

    fn p(i: u32) -> Ipv4Prefix {
        Ipv4Prefix::new(i << 16, 16)
    }

    #[test]
    fn empty_dump_zero_overhead() {
        let report = moas_list_overhead(&DailyDump::new(0), WireModel::default());
        assert_eq!(report.total_routes, 0);
        assert_eq!(report.overhead_fraction(), 0.0);
        assert_eq!(report.affected_fraction(), 0.0);
        assert_eq!(report.short_list_fraction(), 1.0);
    }

    #[test]
    fn only_multi_origin_routes_pay() {
        let mut dump = DailyDump::new(0);
        dump.observe(p(1), Asn(10)); // single origin: free
        dump.observe(p(2), Asn(20));
        dump.observe(p(2), Asn(21)); // 2-member list
        dump.observe(p(3), Asn(30));
        dump.observe(p(3), Asn(31));
        dump.observe(p(3), Asn(32)); // 3-member list
        let report = moas_list_overhead(&dump, WireModel::default());
        assert_eq!(report.total_routes, 3);
        assert_eq!(report.multi_origin_routes, 2);
        assert_eq!(report.list_size_distribution[&2], 1);
        assert_eq!(report.list_size_distribution[&3], 1);
        // (3 + 4*2) + (3 + 4*3) = 26 bytes.
        assert_eq!(report.added_bytes, 26);
        assert_eq!(report.baseline_bytes, 108);
        assert_eq!(report.short_list_fraction(), 1.0);
    }

    #[test]
    fn paper_scale_overhead_is_small() {
        // The §4.3 argument at calibrated scale: the MOAS list adds well
        // under 1% to a table where a small minority of routes is
        // multi-origin. Our synthetic dumps only carry a token single-origin
        // background, so scale the baseline to a realistic 100k-route table.
        let timeline = route_measurement::generate_timeline(
            &route_measurement::TimelineConfig::paper().with_days(10),
        );
        let report = moas_list_overhead(timeline.dumps.last().unwrap(), WireModel::default());
        let realistic_table_bytes = 100_000u64 * WireModel::default().baseline_route_bytes;
        let fraction = report.added_bytes as f64 / realistic_table_bytes as f64;
        assert!(fraction < 0.01, "overhead {fraction:.4}");
        assert!(report.short_list_fraction() > 0.95);
    }

    #[test]
    fn measured_agrees_with_analytic_model() {
        let timeline = route_measurement::generate_timeline(
            &route_measurement::TimelineConfig::paper().with_days(10),
        );
        let dump = timeline.dumps.last().unwrap();
        let analytic = moas_list_overhead(dump, WireModel::default());
        let measured = measure_moas_list_overhead(dump, 1);

        // Same routes, same lists.
        assert_eq!(measured.total_routes, analytic.total_routes);
        assert_eq!(measured.multi_origin_routes, analytic.multi_origin_routes);
        assert_eq!(
            measured.list_size_distribution,
            analytic.list_size_distribution
        );

        // The added bytes agree *exactly*: one 3-byte attribute header plus
        // one 4-byte community per member, whether estimated or encoded.
        assert_eq!(measured.added_bytes, analytic.added_bytes);

        // Baselines agree within 25% documented slack: the measured route
        // is bigger than the analytic 36 bytes because TABLE_DUMP_V2
        // encodes 4-octet ASNs (+8 bytes on a 4-hop path) and a 4-byte
        // per-entry originated_time, which the 2-octet 2001-era analytic
        // model omits. The measured side must still be the *larger* one.
        let ratio = measured.baseline_bytes as f64 / analytic.baseline_bytes as f64;
        assert!(
            (1.0..1.25).contains(&ratio),
            "baseline ratio {ratio:.3}: measured {} vs analytic {}",
            measured.baseline_bytes,
            analytic.baseline_bytes
        );
    }

    #[test]
    fn parallel_measurement_of_empty_dump() {
        let report = measure_moas_list_overhead(&DailyDump::new(0), 4);
        assert_eq!(report.total_routes, 0);
        assert_eq!(report.added_bytes, 0);
    }

    #[test]
    fn measured_added_bytes_per_route() {
        let mut dump = DailyDump::new(0);
        dump.observe(p(1), Asn(10));
        dump.observe(p(2), Asn(20));
        dump.observe(p(2), Asn(21));
        let report = measure_moas_list_overhead(&dump, 1);
        // One 2-member list: 3-byte attr header + 2 * 4-byte communities.
        assert_eq!(report.added_bytes, 11);
        assert_eq!(report.total_routes, 2);
        assert_eq!(report.multi_origin_routes, 1);
    }

    #[test]
    fn a_four_byte_member_costs_twelve_bytes() {
        let narrow: MoasList = [Asn(4), Asn(226)].into_iter().collect();
        let wide: MoasList = [Asn(4), Asn(70_000)].into_iter().collect();
        let all_wide: MoasList = [Asn(65_537), Asn(70_000)].into_iter().collect();
        assert_eq!(measured_list_bytes(&narrow), 11);
        // One member moves from a community to a large community (4 -> 12
        // bytes), which brings its own attribute header.
        assert_eq!(measured_list_bytes(&wide), 11 - 4 + 12 + 3);
        assert_eq!(measured_list_bytes(&all_wide), 3 + 2 * 12);
    }

    #[test]
    fn display_summarizes() {
        let mut dump = DailyDump::new(0);
        dump.observe(p(2), Asn(20));
        dump.observe(p(2), Asn(21));
        let s = moas_list_overhead(&dump, WireModel::default()).to_string();
        assert!(s.contains("1 of 1 routes"));
        assert!(s.contains("bytes added"));
    }
}
