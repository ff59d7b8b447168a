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

        // Birth long-lived cases toward the linear ramp target.
        let target = config.active_start as f64
            + (config.active_end as f64 - config.active_start as f64) * f64::from(day)
                / f64::from(config.days.max(2) - 1);
        let long_lived_now = live
            .iter()
            .filter(|c| matches!(c.cause, Cause::Multihoming | Cause::ExchangePoint))
            .count();
        for _ in long_lived_now..(target.round() as usize) {
            // A small slice of the long-lived population is exchange-point
            // space (§3.2: "a very small percentage").
            let mut case = spawn_multihoming(&mut rng, &mut next_prefix_index, day);
            if rng.gen::<f64>() < 0.01 {
                case.cause = Cause::ExchangePoint;
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
            seed: 7,
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
