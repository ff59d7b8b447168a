//! Calibrated synthetic announcement timeline: the Route Views stand-in.

use std::collections::BTreeSet;

use bgp_types::{Asn, Ipv4Prefix};
use rand::Rng;

use crate::dump::DailyDump;

/// Why a MOAS case exists — the ground-truth cause taxonomy of §3.2/§3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Legitimate multi-homing (BGP peering plus static configuration, or
    /// private-AS substitution on egress). Long-lasting.
    Multihoming,
    /// Exchange-point prefixes advertised by several connected ASes; a small
    /// population in the paper's data.
    ExchangePoint,
    /// Short-lived operational churn (brief reconfigurations).
    Churn,
    /// Anycast service: one organization originating the same prefix from
    /// several sites under distinct ASNs, simultaneously and indefinitely
    /// (Sediqi et al. 2023 — the dominant long-lived legitimate MOAS class
    /// the 2002 paper could not anticipate).
    Anycast,
    /// Sibling ASes: two ASNs of the same organization co-originating,
    /// typically numerically adjacent registrations.
    Sibling,
    /// CDN origin handoff: the prefix alternates between two origins with a
    /// configured dwell time, both visible only on handoff days.
    CdnHandoff,
    /// A fault or attack: the named AS announced prefixes it cannot reach.
    Fault(Asn),
}

/// A mass-misorigination event, like AS 8584 on 1998-04-07 or the
/// (AS 3561, AS 15412) event on 2001-04-06.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Day index (from the start of collection) the event begins.
    pub day: u32,
    /// The AS that falsely originates other organizations' prefixes.
    pub faulty_as: Asn,
    /// How many prefixes it misoriginates.
    pub prefix_count: usize,
    /// How many consecutive days the bad announcements persist.
    pub duration_days: u32,
}

/// Ground truth for one generated MOAS case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRecord {
    /// The affected prefix (unique per case in the generator).
    pub prefix: Ipv4Prefix,
    /// The full origin set observed while the case is active.
    pub origins: BTreeSet<Asn>,
    /// Why the conflict exists.
    pub cause: Cause,
    /// Every day the prefix was observed with multiple origins.
    pub active_days: Vec<u32>,
}

impl CaseRecord {
    /// The paper's duration metric: "the total number of days when the routes
    /// to an address prefix were announced by more than one origin,
    /// regardless of whether the days were continuous".
    #[must_use]
    pub fn duration(&self) -> u32 {
        self.active_days.len() as u32
    }
}

/// Knobs for the long-lived legitimate MOAS behaviours of the modern
/// literature (Sediqi et al. 2023). The default is all-zero, which reproduces
/// the 2002-era generator exactly — both the dump contents and the RNG
/// consumption sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModernMoasConfig {
    /// Permanent anycast cases spawned on day 0.
    pub anycast_cases: usize,
    /// Origin-set size of each anycast case (clamped to at least 2).
    pub anycast_set_size: usize,
    /// Fraction of newly birthed long-lived cases converted into permanent
    /// sibling-AS pairs (two adjacent ASNs, one organization).
    pub sibling_fraction: f64,
    /// Permanent CDN-handoff cases spawned on day 0.
    pub cdn_cases: usize,
    /// Days each CDN origin holds the prefix before handing off (clamped to
    /// at least 1 when `cdn_cases > 0`).
    pub cdn_dwell_days: u32,
}

impl Default for ModernMoasConfig {
    fn default() -> Self {
        ModernMoasConfig {
            anycast_cases: 0,
            anycast_set_size: 3,
            sibling_fraction: 0.0,
            cdn_cases: 0,
            cdn_dwell_days: 7,
        }
    }
}

/// Configuration of the synthetic collection period.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineConfig {
    /// Length of the collection period in days (the paper's is 1279).
    pub days: u32,
    /// Target number of simultaneously active long-lived MOAS cases on day 0
    /// (the paper's 1998 median is 683).
    pub active_start: usize,
    /// Target active count on the final day (the paper's 2001 median: 1294).
    pub active_end: usize,
    /// Probability an active long-lived case is visible in a given daily dump
    /// (models collector and announcement jitter).
    pub presence_prob: f64,
    /// Probability a new short-lived churn case appears on a given day.
    pub churn_prob: f64,
    /// Count of single-origin background prefixes included in each dump, to
    /// exercise the analysis' filtering (real tables had tens of thousands;
    /// a token population keeps dumps small).
    pub background_prefixes: usize,
    /// Mass-misorigination events.
    pub events: Vec<FaultEvent>,
    /// Long-lived legitimate MOAS behaviours (anycast, siblings, CDN
    /// handoffs). Zero by default: the 2002-era generator unchanged.
    pub modern: ModernMoasConfig,
    /// Master RNG seed.
    pub seed: u64,
}

impl TimelineConfig {
    /// The configuration calibrated to the paper's reported statistics.
    ///
    /// Day 0 is 1997-11-08; day 150 is 1998-04-07 (the AS 8584 event,
    /// ~1135 one-day misoriginations — 82.7% of the one-day case
    /// population); day 1245 is 2001-04-06 (the (AS 3561, AS 15412) event,
    /// 5532 misoriginated prefixes against a ~1100-case background,
    /// matching the paper's "5532 out of 6627" for that day; archived RIPE
    /// RIS data shows the instability spanned more than one dump, so it is
    /// modeled as two days and therefore does not inflate the one-day
    /// duration bucket).
    #[must_use]
    pub fn paper() -> Self {
        TimelineConfig {
            days: 1279,
            active_start: 683,
            active_end: 1294,
            presence_prob: 0.985,
            churn_prob: 0.55,
            background_prefixes: 200,
            events: vec![
                FaultEvent {
                    day: 150,
                    faulty_as: Asn(8584),
                    prefix_count: 1135,
                    duration_days: 1,
                },
                FaultEvent {
                    day: 1245,
                    faulty_as: Asn(15_412),
                    prefix_count: 5532,
                    duration_days: 2,
                },
            ],
            modern: ModernMoasConfig::default(),
            seed: 0x1998_0407,
        }
    }

    /// The Figure 5 duration study: [`paper`](Self::paper) with the 1998
    /// fault only. The paper's one-day statistics (35.9% one-day cases,
    /// 82.7% of them from the 1998-04-07 fault) predate the 2001 event, so it
    /// is left out of the period they are measured on.
    #[must_use]
    pub fn duration_study() -> Self {
        let mut config = Self::paper();
        config.events.retain(|e| e.day == 150);
        config
    }

    /// Shortens the period (events beyond the horizon are dropped); useful
    /// for fast tests.
    #[must_use]
    pub fn with_days(mut self, days: u32) -> Self {
        self.days = days;
        self.events.retain(|e| e.day < days);
        self
    }
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig::paper()
    }
}

/// A generated collection period: the observable daily dumps plus the ground
/// truth that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedTimeline {
    /// One dump per day, in day order.
    pub dumps: Vec<DailyDump>,
    /// Ground truth for every MOAS case (the analysis code never sees this;
    /// tests use it to validate the analysis).
    pub cases: Vec<CaseRecord>,
}

/// Internal: a case being simulated forward.
struct LiveCase {
    prefix: Ipv4Prefix,
    origins: BTreeSet<Asn>,
    cause: Cause,
    ends_on: u32, // exclusive; u32::MAX = permanent
    active_days: Vec<u32>,
}

/// Generates the synthetic collection period.
///
/// The process per §3's taxonomy:
///
/// * a **long-lived multihoming population** is birthed so the active count
///   tracks a linear ramp from `active_start` to `active_end` (25% of cases
///   permanent, the rest 60-700 days — Figure 5's long tail);
/// * **short churn** cases appear with probability `churn_prob` per day and
///   last 1-3 days;
/// * each [`FaultEvent`] misoriginates `prefix_count` fresh prefixes for
///   `duration_days` days (Figure 4's spikes);
/// * origin-set sizes follow the paper's split: 96.14% two origins, 2.7%
///   three, the remainder four or five.
#[must_use]
pub fn generate_timeline(config: &TimelineConfig) -> GeneratedTimeline {
    let mut rng = sim_engine::rng::from_seed(config.seed);
    let mut next_prefix_index: u32 = 0;
    let mut live: Vec<LiveCase> = Vec::new();
    let mut finished: Vec<CaseRecord> = Vec::new();
    let mut dumps: Vec<DailyDump> = Vec::with_capacity(config.days as usize);

    let new_prefix = |next: &mut u32| {
        let p = Ipv4Prefix::new(*next << 11, 21);
        *next += 1;
        p
    };

    // Owner/ISP ASN pools. Owners are edge organizations; extra origins are
    // ISPs announcing statically configured customer space (§3.2).
    let owner_asn = |rng: &mut rand::rngs::SmallRng| Asn(rng.gen_range(3_000..60_000));
    let isp_asn = |rng: &mut rand::rngs::SmallRng| Asn(rng.gen_range(1..1_500));

    let spawn_multihoming = |rng: &mut rand::rngs::SmallRng, next: &mut u32, day: u32| {
        let mut origins = BTreeSet::new();
        origins.insert(owner_asn(rng));
        // §3.1: 96.14% of cases involve 2 ASes, 2.7% three, the rest more.
        let roll: f64 = rng.gen();
        let extra = if roll < 0.9614 {
            1
        } else if roll < 0.9884 {
            2
        } else {
            3 + usize::from(rng.gen::<bool>())
        };
        while origins.len() < extra + 1 {
            origins.insert(isp_asn(rng));
        }
        let permanent = rng.gen::<f64>() < 0.45;
        let ends_on = if permanent {
            u32::MAX
        } else {
            day + rng.gen_range(250..1100)
        };
        LiveCase {
            prefix: new_prefix(next),
            origins,
            cause: Cause::Multihoming,
            ends_on,
            active_days: Vec::new(),
        }
    };

    // Fixed background of single-origin prefixes (never MOAS).
    let background: Vec<(Ipv4Prefix, Asn)> = (0..config.background_prefixes)
        .map(|_| (new_prefix(&mut next_prefix_index), owner_asn(&mut rng)))
        .collect();

    for day in 0..config.days {
        // Retire cases whose lifetime ended.
        for case in live.extract_if(.., |c| c.ends_on <= day) {
            finished.push(CaseRecord {
                prefix: case.prefix,
                origins: case.origins,
                cause: case.cause,
                active_days: case.active_days,
            });
        }

        // Modern long-lived legitimate MOAS (Sediqi et al.): permanent
        // anycast sets and CDN handoff pairs join the population on day 0,
        // before the ramp births, so they count toward the same target.
        if day == 0 {
            for _ in 0..config.modern.anycast_cases {
                let mut origins = BTreeSet::new();
                while origins.len() < config.modern.anycast_set_size.max(2) {
                    origins.insert(owner_asn(&mut rng));
                }
                live.push(LiveCase {
                    prefix: new_prefix(&mut next_prefix_index),
                    origins,
                    cause: Cause::Anycast,
                    ends_on: u32::MAX,
                    active_days: Vec::new(),
                });
            }
            for _ in 0..config.modern.cdn_cases {
                let owner = owner_asn(&mut rng);
                let cdn = isp_asn(&mut rng);
                let origins: BTreeSet<Asn> = [owner, cdn].into_iter().collect();
                live.push(LiveCase {
                    prefix: new_prefix(&mut next_prefix_index),
                    origins,
                    cause: Cause::CdnHandoff,
                    ends_on: u32::MAX,
                    active_days: Vec::new(),
                });
            }
        }

        // Birth long-lived cases toward the linear ramp target.
        let target = config.active_start as f64
            + (config.active_end as f64 - config.active_start as f64) * f64::from(day)
                / f64::from(config.days.max(2) - 1);
        let long_lived_now = live
            .iter()
            .filter(|c| {
                matches!(
                    c.cause,
                    Cause::Multihoming
                        | Cause::ExchangePoint
                        | Cause::Anycast
                        | Cause::Sibling
                        | Cause::CdnHandoff
                )
            })
            .count();
        for _ in long_lived_now..(target.round() as usize) {
            // A small slice of the long-lived population is exchange-point
            // space (§3.2: "a very small percentage").
            let mut case = spawn_multihoming(&mut rng, &mut next_prefix_index, day);
            if rng.gen::<f64>() < 0.01 {
                case.cause = Cause::ExchangePoint;
            }
            // Sibling conversion (guarded so a zero fraction consumes no RNG
            // draws and the legacy stream is bit-identical).
            if config.modern.sibling_fraction > 0.0
                && case.cause == Cause::Multihoming
                && rng.gen::<f64>() < config.modern.sibling_fraction
            {
                let base = owner_asn(&mut rng);
                case.origins = [base, Asn(base.0 + 1)].into_iter().collect();
                case.cause = Cause::Sibling;
                case.ends_on = u32::MAX;
            }
            live.push(case);
        }

        // Short operational churn.
        if sim_engine::rng::coin(&mut rng, config.churn_prob) {
            let mut case = spawn_multihoming(&mut rng, &mut next_prefix_index, day);
            case.cause = Cause::Churn;
            case.ends_on = day + rng.gen_range(1..=3);
            live.push(case);
        }

        // Fault events: fresh victim prefixes misoriginated by the faulty AS.
        for event in &config.events {
            if event.day == day {
                for _ in 0..event.prefix_count {
                    let owner = owner_asn(&mut rng);
                    let origins: BTreeSet<Asn> = [owner, event.faulty_as].into_iter().collect();
                    live.push(LiveCase {
                        prefix: new_prefix(&mut next_prefix_index),
                        origins,
                        cause: Cause::Fault(event.faulty_as),
                        ends_on: day + event.duration_days,
                        active_days: Vec::new(),
                    });
                }
            }
        }

        // Materialize today's dump.
        let mut dump = DailyDump::new(day);
        for (prefix, origin) in &background {
            dump.observe(*prefix, *origin);
        }
        for case in &mut live {
            // CDN handoff cases are deterministic: one origin holds the
            // prefix per dwell period; both are visible only on the handoff
            // day itself, which is the only day the case is in MOAS state.
            if case.cause == Cause::CdnHandoff {
                let dwell = config.modern.cdn_dwell_days.max(1);
                let handoff = day > 0 && day % dwell == 0;
                if handoff {
                    for &origin in &case.origins {
                        dump.observe(case.prefix, origin);
                    }
                    case.active_days.push(day);
                } else {
                    let phase = ((day / dwell) % 2) as usize;
                    if let Some(&holder) = case.origins.iter().nth(phase) {
                        dump.observe(case.prefix, holder);
                    }
                }
                continue;
            }
            let present = match case.cause {
                // Fault announcements are loud and unmissable.
                Cause::Fault(_) => true,
                _ => sim_engine::rng::coin(&mut rng, config.presence_prob),
            };
            if present {
                for &origin in &case.origins {
                    dump.observe(case.prefix, origin);
                }
                case.active_days.push(day);
            } else {
                // The prefix is still announced, just by a single origin today.
                if let Some(&first) = case.origins.iter().next() {
                    dump.observe(case.prefix, first);
                }
            }
        }
        dumps.push(dump);
    }

    // Flush still-live cases into the record.
    for case in live {
        finished.push(CaseRecord {
            prefix: case.prefix,
            origins: case.origins,
            cause: case.cause,
            active_days: case.active_days,
        });
    }
    finished.retain(|c| !c.active_days.is_empty());
    finished.sort_by_key(|c| c.prefix);

    GeneratedTimeline {
        dumps,
        cases: finished,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> TimelineConfig {
        TimelineConfig {
            days: 60,
            active_start: 50,
            active_end: 80,
            presence_prob: 1.0,
            churn_prob: 0.3,
            background_prefixes: 10,
            events: vec![FaultEvent {
                day: 30,
                faulty_as: Asn(8584),
                prefix_count: 40,
                duration_days: 1,
            }],
            modern: ModernMoasConfig::default(),
            seed: 7,
        }
    }

    fn quick_modern() -> TimelineConfig {
        TimelineConfig {
            modern: ModernMoasConfig {
                anycast_cases: 5,
                anycast_set_size: 4,
                sibling_fraction: 0.3,
                cdn_cases: 3,
                cdn_dwell_days: 7,
            },
            ..quick()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_timeline(&quick()), generate_timeline(&quick()));
    }

    #[test]
    fn dump_count_matches_days() {
        let t = generate_timeline(&quick());
        assert_eq!(t.dumps.len(), 60);
        for (i, d) in t.dumps.iter().enumerate() {
            assert_eq!(d.day(), i as u32);
        }
    }

    #[test]
    fn active_count_tracks_ramp() {
        let t = generate_timeline(&quick());
        let first = t.dumps.first().unwrap().moas_count();
        let last = t.dumps.last().unwrap().moas_count();
        assert!((45..=60).contains(&first), "first day count {first}");
        assert!((72..=95).contains(&last), "last day count {last}");
    }

    #[test]
    fn fault_day_spikes() {
        let t = generate_timeline(&quick());
        let normal = t.dumps[29].moas_count();
        let spike = t.dumps[30].moas_count();
        assert!(spike >= normal + 35, "spike {spike} vs normal {normal}");
        // The spike is gone the next day.
        assert!(t.dumps[31].moas_count() < normal + 10);
    }

    #[test]
    fn fault_cases_have_two_origins_and_correct_cause() {
        let t = generate_timeline(&quick());
        let faults: Vec<&CaseRecord> = t
            .cases
            .iter()
            .filter(|c| matches!(c.cause, Cause::Fault(_)))
            .collect();
        assert_eq!(faults.len(), 40);
        for f in faults {
            assert_eq!(f.origins.len(), 2);
            assert!(f.origins.contains(&Asn(8584)));
            assert_eq!(f.duration(), 1);
            assert!(matches!(f.cause, Cause::Fault(_)));
        }
    }

    #[test]
    fn origin_set_sizes_match_paper_split() {
        let mut config = TimelineConfig {
            events: vec![],
            ..TimelineConfig::paper().with_days(200)
        };
        config.active_start = 800;
        config.active_end = 900;
        let t = generate_timeline(&config);
        let total = t.cases.len();
        let two = t.cases.iter().filter(|c| c.origins.len() == 2).count();
        let three = t.cases.iter().filter(|c| c.origins.len() == 3).count();
        let frac2 = two as f64 / total as f64;
        let frac3 = three as f64 / total as f64;
        assert!((0.94..0.98).contains(&frac2), "2-origin fraction {frac2}");
        assert!((0.01..0.05).contains(&frac3), "3-origin fraction {frac3}");
        assert!(t.cases.iter().all(|c| c.origins.len() <= 5));
    }

    #[test]
    fn events_past_horizon_are_dropped_by_with_days() {
        let config = TimelineConfig::paper().with_days(100);
        assert!(config.events.is_empty());
        let config = TimelineConfig::paper().with_days(200);
        assert_eq!(config.events.len(), 1);
    }

    #[test]
    fn churn_cases_are_short() {
        let t = generate_timeline(&quick());
        for c in t.cases.iter().filter(|c| c.cause == Cause::Churn) {
            assert!(c.duration() <= 3);
        }
    }

    #[test]
    fn case_prefixes_are_unique() {
        let t = generate_timeline(&quick());
        let mut prefixes: Vec<Ipv4Prefix> = t.cases.iter().map(|c| c.prefix).collect();
        let before = prefixes.len();
        prefixes.dedup();
        assert_eq!(prefixes.len(), before);
    }

    #[test]
    fn default_modern_config_changes_nothing() {
        // The all-zero modern config must not even perturb the RNG stream.
        let legacy = generate_timeline(&quick());
        let modern_off = generate_timeline(&TimelineConfig {
            modern: ModernMoasConfig {
                anycast_cases: 0,
                sibling_fraction: 0.0,
                cdn_cases: 0,
                ..ModernMoasConfig::default()
            },
            ..quick()
        });
        assert_eq!(legacy, modern_off);
    }

    #[test]
    fn anycast_cases_are_permanent_with_configured_set_size() {
        let t = generate_timeline(&quick_modern());
        let anycast: Vec<&CaseRecord> = t
            .cases
            .iter()
            .filter(|c| c.cause == Cause::Anycast)
            .collect();
        assert_eq!(anycast.len(), 5);
        for c in anycast {
            assert_eq!(c.origins.len(), 4);
            assert!(!matches!(c.cause, Cause::Fault(_)));
            // presence_prob = 1.0 in quick(): active every single day.
            assert_eq!(c.duration(), 60);
        }
    }

    #[test]
    fn sibling_cases_use_adjacent_asns() {
        let t = generate_timeline(&quick_modern());
        let siblings: Vec<&CaseRecord> = t
            .cases
            .iter()
            .filter(|c| c.cause == Cause::Sibling)
            .collect();
        assert!(!siblings.is_empty(), "0.3 fraction must convert some cases");
        for c in siblings {
            assert_eq!(c.origins.len(), 2);
            let origins: Vec<Asn> = c.origins.iter().copied().collect();
            assert_eq!(origins[1].0, origins[0].0 + 1, "{origins:?}");
            assert!(!matches!(c.cause, Cause::Fault(_)));
        }
    }

    #[test]
    fn cdn_cases_are_moas_only_on_handoff_days() {
        let t = generate_timeline(&quick_modern());
        let cdn: Vec<&CaseRecord> = t
            .cases
            .iter()
            .filter(|c| c.cause == Cause::CdnHandoff)
            .collect();
        assert_eq!(cdn.len(), 3);
        for c in cdn {
            assert_eq!(c.origins.len(), 2);
            // Handoffs at days 7, 14, ..., 56 within the 60-day horizon.
            assert_eq!(c.active_days, vec![7, 14, 21, 28, 35, 42, 49, 56]);
            // Every day shows at least one origin, never a third.
            for d in &t.dumps {
                let origins = d.origins_of(c.prefix);
                assert!(!origins.is_empty(), "day {} lost the prefix", d.day());
                assert!(origins.is_subset(&c.origins));
            }
        }
    }

    #[test]
    fn modern_generation_is_deterministic() {
        assert_eq!(
            generate_timeline(&quick_modern()),
            generate_timeline(&quick_modern())
        );
    }

    #[test]
    fn background_prefixes_are_never_moas() {
        let t = generate_timeline(&quick());
        // Background occupies the first `background_prefixes` prefix slots.
        for d in &t.dumps {
            for (prefix, origins) in d.iter() {
                if origins.len() > 1 {
                    assert!(
                        t.cases.iter().any(|c| c.prefix == prefix),
                        "MOAS prefix {prefix} not in ground truth"
                    );
                }
            }
        }
    }
}
