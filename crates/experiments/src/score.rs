//! The outcome rules the drivers score with, once each: the §5.1 adoption
//! census, the detection window and the detector-accuracy score.
//!
//! Trials and the ablations count adopters through [`census`]; chaos and the
//! ensemble time detections through [`detection_latency`] and fold them
//! through [`accuracy`]. Each caller keeps its own float expression on top.

use bgp_types::Asn;

use crate::chaos::T_ATTACK;
use crate::stats::{mean, ratio};

/// Who ended a run routing to an attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Census {
    /// ASes that are not attackers (the paper's "remaining ASes").
    pub(crate) eligible: usize,
    /// Of those, how many hold a best route originated by an attacker.
    pub(crate) adopted: usize,
}

/// The §5.1 census: every AS in `asns` that is not one of `attackers` is
/// eligible, and it adopted the false route when `best_origin` names an
/// attacker. Allocates nothing.
pub(crate) fn census(
    asns: impl IntoIterator<Item = Asn>,
    attackers: &[Asn],
    best_origin: impl Fn(Asn) -> Option<Asn>,
) -> Census {
    let mut census = Census::default();
    for asn in asns.into_iter().filter(|asn| !attackers.contains(asn)) {
        census.eligible += 1;
        if best_origin(asn).is_some_and(|origin| attackers.contains(&origin)) {
            census.adopted += 1;
        }
    }
    census
}

/// The detection window: ticks from [`T_ATTACK`] to the first of
/// `alarm_ticks` at or after it, or `None` when none falls in the window (a
/// missed detection). Callers pass the ticks of the alarms that qualify.
pub(crate) fn detection_latency(alarm_ticks: impl IntoIterator<Item = u64>) -> Option<u64> {
    alarm_ticks
        .into_iter()
        .filter(|&at| at >= T_ATTACK)
        .min()
        .map(|at| at - T_ATTACK)
}

/// What a detector produced on one trial's pair of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// Alarms in the churn-only run (all of them are noise by construction).
    pub(crate) churn_alarms: u64,
    /// The attack run's [`detection_latency`].
    pub(crate) latency: Option<u64>,
}

/// A detector's accuracy over a set of trials: the five fields
/// `ChaosReport` and `DetectorReport` share, plus the exact alarm sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Accuracy {
    /// Fraction of trials whose churn-only run raised an alarm.
    pub(crate) false_alarm_rate: f64,
    /// Mean churn-only alarms per trial.
    pub(crate) mean_false_alarms: f64,
    /// Fraction of attack trials without a detection.
    pub(crate) missed_detection_rate: f64,
    /// Mean latency over detected trials (0 when nothing was detected).
    pub(crate) mean_detection_latency_ticks: f64,
    /// Trials with a detection.
    pub(crate) detected_trials: usize,
    /// Churn-only alarms summed over the trials.
    pub(crate) churn_alarms: u64,
}

/// Folds per-trial verdicts, in order, into an [`Accuracy`]. Of the trials,
/// `attack_trials` ran an attack (0 where none could, as in flap-storm);
/// the ones without a latency count as missed.
pub(crate) fn accuracy(
    verdicts: impl IntoIterator<Item = Verdict>,
    attack_trials: usize,
) -> Accuracy {
    let (mut false_alarms, mut latencies) = (Vec::new(), Vec::new());
    let (mut noisy, mut churn_alarms) = (0, 0);
    for verdict in verdicts {
        noisy += usize::from(verdict.churn_alarms > 0);
        churn_alarms += verdict.churn_alarms;
        false_alarms.push(verdict.churn_alarms as f64);
        latencies.extend(verdict.latency.map(|l| l as f64));
    }
    let missed = attack_trials.saturating_sub(latencies.len());
    Accuracy {
        false_alarm_rate: ratio(noisy, false_alarms.len()),
        mean_false_alarms: mean(&false_alarms),
        missed_detection_rate: ratio(missed, attack_trials),
        mean_detection_latency_ticks: mean(&latencies),
        detected_trials: latencies.len(),
        churn_alarms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(churn_alarms: u64, latency: Option<u64>) -> Verdict {
        Verdict {
            churn_alarms,
            latency,
        }
    }

    #[test]
    fn accuracy_cases() {
        // (name, verdicts, attack trials, expected score)
        let cases = [
            ("no trials", vec![], 0, [0.0, 0.0, 0.0, 0.0], 0, 0),
            (
                "zero attack trials (flap-storm)",
                vec![verdict(3, None), verdict(0, None)],
                0,
                [0.5, 1.5, 0.0, 0.0],
                0,
                3,
            ),
            (
                "every attack missed",
                vec![verdict(0, None), verdict(0, None), verdict(0, None)],
                3,
                [0.0, 0.0, 1.0, 0.0],
                0,
                0,
            ),
            (
                "mixed latencies",
                vec![
                    verdict(2, Some(4)),
                    verdict(0, None),
                    verdict(1, Some(0)),
                    verdict(0, Some(11)),
                ],
                4,
                [0.5, 0.75, 0.25, 5.0],
                3,
                3,
            ),
        ];
        for (name, verdicts, attack_trials, rates, detected, alarms) in cases {
            let score = accuracy(verdicts, attack_trials);
            let got = [
                score.false_alarm_rate,
                score.mean_false_alarms,
                score.missed_detection_rate,
                score.mean_detection_latency_ticks,
            ];
            assert_eq!(got, rates, "{name}");
            assert_eq!(score.detected_trials, detected, "{name}");
            assert_eq!(score.churn_alarms, alarms, "{name}");
        }
    }

    #[test]
    fn detection_window_opens_at_the_attack() {
        // (alarm ticks, expected latency)
        let cases: [(&[u64], Option<u64>); 4] = [
            (&[], None),
            (&[T_ATTACK - 1, 3], None),
            (&[T_ATTACK + 9, T_ATTACK - 1, T_ATTACK + 2], Some(2)),
            (&[T_ATTACK], Some(0)),
        ];
        for (ticks, expected) in cases {
            assert_eq!(
                detection_latency(ticks.iter().copied()),
                expected,
                "{ticks:?}"
            );
        }
    }

    #[test]
    fn census_cases() {
        let asns = [Asn(1), Asn(2), Asn(3), Asn(4), Asn(5)];
        // Best origins: 1 and 2 follow attacker 5, 3 the valid origin 1,
        // 4 has no route, 5 originates itself.
        let best_origin = |asn: Asn| match asn.0 {
            1 | 2 | 5 => Some(Asn(5)),
            3 => Some(Asn(1)),
            _ => None,
        };
        // (name, attackers, eligible, adopted)
        let cases: [(&str, &[Asn], usize, usize); 4] = [
            ("no attackers", &[], 5, 0),
            ("one attacker", &[Asn(5)], 4, 2),
            ("attackers are not eligible", &[Asn(5), Asn(2)], 3, 1),
            (
                "an attacker outside the graph excludes no one",
                &[Asn(5), Asn(99)],
                4,
                2,
            ),
        ];
        for (name, attackers, eligible, adopted) in cases {
            let got = census(asns, attackers, best_origin);
            assert_eq!(got, Census { eligible, adopted }, "{name}");
        }
    }
}
