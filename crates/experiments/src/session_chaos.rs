//! Session-level chaos: seeded fault campaigns against live BGP FSM pairs.
//!
//! The network-level scenarios ([`crate::ChaosScenario`]) stress the MOAS detector
//! through routing churn; the scenarios here stress the *session layer*
//! underneath it — the RFC 4271 FSM pairs that would carry those routes in
//! deployment. Each trial wires two [`bgp_session::Session`]s back to back
//! in the in-memory [`SessionSim`] harness, injects a seeded schedule of
//! faults (hold-timer starvation, NOTIFICATION storms, capability
//! mismatches, TCP resets, byte corruption), and measures whether the pair
//! recovers and keeps delivering UPDATEs.
//!
//! Determinism follows the same discipline as the network scenarios:
//! per-trial seeds are derived serially from `(config.seed, trial index)`,
//! trials execute into index-addressed slots via [`minipool::map_indexed`],
//! and aggregation runs in planning order — so every report is
//! byte-identical for any `--jobs N`.

use std::str::FromStr;

use bgp_session::{Session, SessionConfig, SessionStats};
use bgp_session::{SessionSim, SimConfig};
use bgp_types::{AsPath, Asn, Ipv4Prefix, RouteOrigin};
use bgp_wire::bgp::{PathAttributes, UpdateMessage};
use bgp_wire::msg::{encode_keepalive, NotificationMessage, OpenMessage};
use rand::Rng;

use crate::json::{self, Json, ToJson};

/// The session-fault families `moas-lab chaos` can replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionChaosScenario {
    /// The passive peer silently stops refreshing the hold timer
    /// (keepalives are dropped on the floor); the active side must expire
    /// the hold timer, NOTIFY, and reconnect.
    HoldExpiry,
    /// Bursts of unsolicited CEASE NOTIFICATIONs land on the active peer
    /// mid-session.
    NotificationStorm,
    /// A peer that negotiates no 4-octet-AS capability keeps dialing a
    /// listener that requires it; every attempt must be refused with an
    /// OPEN error before a conforming peer finally establishes.
    CapabilityMismatch,
    /// The TCP connection is torn down (RST) at seeded instants.
    TcpReset,
    /// Bytes are flipped in flight, so frames stop parsing mid-stream.
    Corruption,
}

impl SessionChaosScenario {
    /// Every scenario, in canonical order.
    pub const ALL: [SessionChaosScenario; 5] = [
        SessionChaosScenario::HoldExpiry,
        SessionChaosScenario::NotificationStorm,
        SessionChaosScenario::CapabilityMismatch,
        SessionChaosScenario::TcpReset,
        SessionChaosScenario::Corruption,
    ];

    /// The CLI / report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SessionChaosScenario::HoldExpiry => "session-hold-expiry",
            SessionChaosScenario::NotificationStorm => "session-notification-storm",
            SessionChaosScenario::CapabilityMismatch => "session-capability-mismatch",
            SessionChaosScenario::TcpReset => "session-tcp-reset",
            SessionChaosScenario::Corruption => "session-corruption",
        }
    }
}

/// Parse error for [`SessionChaosScenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSessionScenario(String);

impl std::fmt::Display for UnknownSessionScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown session scenario '{}' (expected one of: {})",
            self.0,
            SessionChaosScenario::ALL
                .map(SessionChaosScenario::name)
                .join(", ")
        )
    }
}

impl std::error::Error for UnknownSessionScenario {}

impl FromStr for SessionChaosScenario {
    type Err = UnknownSessionScenario;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SessionChaosScenario::ALL
            .into_iter()
            .find(|scenario| scenario.name() == s)
            .ok_or_else(|| UnknownSessionScenario(s.to_string()))
    }
}

impl ToJson for SessionChaosScenario {
    fn to_json_value(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// Configuration of a session-chaos run.
#[derive(Debug, Clone)]
pub struct SessionChaosConfig {
    /// The fault family to replay.
    pub scenario: SessionChaosScenario,
    /// Number of trials (independent FSM pairs).
    pub trials: usize,
    /// Master seed; each trial's fault schedule derives from it.
    pub seed: u64,
    /// Faults injected per trial.
    pub faults_per_trial: usize,
    /// UPDATEs the passive peer streams per trial, split evenly across the
    /// calm windows between faults.
    pub updates_per_trial: usize,
}

impl SessionChaosConfig {
    /// Default protocol: 30 pairs, 4 faults and 24 updates each.
    #[must_use]
    pub fn new(scenario: SessionChaosScenario) -> Self {
        SessionChaosConfig {
            scenario,
            trials: 30,
            seed: 0x005E_5510,
            faults_per_trial: 4,
            updates_per_trial: 24,
        }
    }

    /// A reduced protocol for tests and smoke runs.
    #[must_use]
    pub fn quick(scenario: SessionChaosScenario) -> Self {
        SessionChaosConfig {
            trials: 6,
            faults_per_trial: 2,
            updates_per_trial: 8,
            ..SessionChaosConfig::new(scenario)
        }
    }
}

/// What one trial produced.
#[derive(Debug, Clone, Copy, Default)]
struct TrialResult {
    /// The pair reached `Established` before any fault.
    established_first: bool,
    /// The pair was `Established` again after the last fault.
    recovered_last: bool,
    /// Faults actually injected.
    faults: u64,
    /// Faults followed by a successful re-establishment.
    recoveries: u64,
    /// UPDATEs the passive application offered.
    updates_sent: u64,
    /// UPDATEs the active application received.
    updates_delivered: u64,
    /// Virtual ms the trial covered.
    virtual_ms: u64,
    /// The active side's final counters.
    stats: SessionStats,
}

/// Aggregated accuracy of a session-chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionChaosReport {
    /// Scenario replayed.
    pub scenario: SessionChaosScenario,
    /// Trials run.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Trials whose pair established before any fault was injected.
    pub established_trials: usize,
    /// Trials whose pair was established again after the final fault.
    pub recovered_trials: usize,
    /// Faults injected across all trials.
    pub total_faults: u64,
    /// Fraction of faults followed by a successful re-establishment.
    pub recovery_rate: f64,
    /// Fraction of offered UPDATEs that reached the far application.
    pub delivery_rate: f64,
    /// Mean times the active FSM reached `Established` per trial (1.0
    /// means no fault ever forced a reconnect).
    pub mean_establishments: f64,
    /// Mean NOTIFICATIONs sent by the active side per trial.
    pub mean_notifications_sent: f64,
    /// Mean NOTIFICATIONs received by the active side per trial.
    pub mean_notifications_received: f64,
    /// Mean hold-timer expirations per trial.
    pub mean_hold_expirations: f64,
    /// Mean wire-decode errors per trial.
    pub mean_decode_errors: f64,
    /// Mean virtual milliseconds simulated per trial.
    pub mean_virtual_ms: f64,
}

json::impl_json_struct!(SessionChaosReport {
    scenario,
    trials,
    seed,
    established_trials,
    recovered_trials,
    total_faults,
    recovery_rate,
    delivery_rate,
    mean_establishments,
    mean_notifications_sent,
    mean_notifications_received,
    mean_hold_expirations,
    mean_decode_errors,
    mean_virtual_ms,
});

impl SessionChaosReport {
    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }
}

/// Runs a session-chaos scenario with trial-level parallelism,
/// bit-identical for every `jobs` value: per-trial seeds are derived from
/// `(config.seed, trial index)` up front, trials execute into
/// index-addressed slots, and aggregation runs in index order.
#[must_use]
pub fn run_session_chaos(config: &SessionChaosConfig, jobs: usize) -> SessionChaosReport {
    let seeds: Vec<u64> = (0..config.trials)
        .map(|i| bgp_types::rng::derive_seed(config.seed, i as u64))
        .collect();
    let results: Vec<TrialResult> =
        minipool::map_indexed(jobs, seeds.len(), |i| run_trial(config, seeds[i]));
    aggregate(config, &results)
}

fn aggregate(config: &SessionChaosConfig, results: &[TrialResult]) -> SessionChaosReport {
    let trials = results.len();
    let n = trials.max(1) as f64;
    let total_faults: u64 = results.iter().map(|r| r.faults).sum();
    let recoveries: u64 = results.iter().map(|r| r.recoveries).sum();
    let sent: u64 = results.iter().map(|r| r.updates_sent).sum();
    let delivered: u64 = results.iter().map(|r| r.updates_delivered).sum();
    let mean = |f: &dyn Fn(&TrialResult) -> u64| results.iter().map(f).sum::<u64>() as f64 / n;
    SessionChaosReport {
        scenario: config.scenario,
        trials,
        seed: config.seed,
        established_trials: results.iter().filter(|r| r.established_first).count(),
        recovered_trials: results.iter().filter(|r| r.recovered_last).count(),
        total_faults,
        recovery_rate: if total_faults == 0 {
            1.0
        } else {
            recoveries as f64 / total_faults as f64
        },
        delivery_rate: if sent == 0 {
            1.0
        } else {
            delivered as f64 / sent as f64
        },
        mean_establishments: mean(&|r| r.stats.established),
        mean_notifications_sent: mean(&|r| r.stats.notifications_sent),
        mean_notifications_received: mean(&|r| r.stats.notifications_received),
        mean_hold_expirations: mean(&|r| r.stats.hold_expirations),
        mean_decode_errors: mean(&|r| r.stats.decode_errors),
        mean_virtual_ms: mean(&|r| r.virtual_ms),
    }
}

/// The active/passive pair every sim-based trial uses. Short retry ladder:
/// chaos trials measure recovery, not patience.
fn pair(hold_time: u16, seed: u64) -> SessionSim {
    let mut a = SessionConfig::new(Asn(64_512), 0x0A00_0001);
    a.hold_time = hold_time;
    a.retry_base_ms = 50;
    a.retry_max_ms = 1_000;
    a.seed = seed;
    let mut b = SessionConfig::new(Asn(70_000), 0x0A00_0002);
    b.hold_time = hold_time;
    SessionSim::new(SimConfig { a, b })
}

/// A deterministic UPDATE stream: each sequence number announces its own
/// `/24` under 10.0.0.0/8 from a distinct origin.
fn nth_update(n: u64) -> UpdateMessage {
    let as_path = AsPath::from_sequence([Asn(70_000), Asn(65_000 + (n % 512) as u32)]);
    UpdateMessage {
        withdrawn: Vec::new(),
        attrs: Some(PathAttributes {
            origin: RouteOrigin::Igp,
            next_hop: 0x0A00_0002,
            as_path,
            local_pref: None,
            communities: Vec::new(),
            large_communities: Vec::new(),
            mp_reach: None,
            mp_unreach: None,
        }),
        nlri: vec![Ipv4Prefix::new(0x0A00_0000 | ((n as u32) << 8), 24)],
    }
}

fn run_trial(config: &SessionChaosConfig, seed: u64) -> TrialResult {
    match config.scenario {
        SessionChaosScenario::CapabilityMismatch => run_capability_trial(config, seed),
        _ => run_sim_trial(config, seed),
    }
}

/// The sim-based scenarios: establish, then alternate calm windows (update
/// bursts) with injected faults, requiring re-establishment after each.
fn run_sim_trial(config: &SessionChaosConfig, seed: u64) -> TrialResult {
    let hold_time = match config.scenario {
        // Hold expiry needs the minimum hold so starving it stays cheap in
        // virtual time; everything else runs the workspace default window.
        SessionChaosScenario::HoldExpiry => 3,
        _ => 30,
    };
    let mut rng = bgp_types::rng::from_seed(seed);
    let mut sim = pair(hold_time, seed);
    let mut result = TrialResult {
        established_first: sim.run_until_established(60_000),
        ..TrialResult::default()
    };

    let faults = config.faults_per_trial.max(1);
    let per_window = config.updates_per_trial / faults;
    let mut sequence: u64 = 0;
    for _ in 0..faults {
        // Calm window: stream a burst of UPDATEs, then let them land.
        for _ in 0..per_window {
            if sim.send_update(bgp_session::sim::Peer::B, &nth_update(sequence)) {
                result.updates_sent += 1;
            }
            sequence += 1;
        }
        let calm: u64 = rng.gen_range(200..2_000);
        sim.run_until(sim.now() + calm);

        // The fault itself.
        result.faults += 1;
        match config.scenario {
            SessionChaosScenario::HoldExpiry => {
                sim.set_drop_keepalives(bgp_session::sim::Peer::B, true);
                // Starve past the negotiated hold plus slack.
                sim.run_until(sim.now() + u64::from(hold_time) * 1_000 + 2_000);
                sim.set_drop_keepalives(bgp_session::sim::Peer::B, false);
            }
            SessionChaosScenario::NotificationStorm => {
                let burst = rng.gen_range(1..=4);
                for _ in 0..burst {
                    let notif = NotificationMessage::cease()
                        .encode()
                        .expect("static NOTIFICATION encodes");
                    sim.inject(bgp_session::sim::Peer::A, notif);
                }
                sim.run_until(sim.now() + 10);
            }
            SessionChaosScenario::TcpReset => {
                sim.reset_tcp();
            }
            SessionChaosScenario::Corruption => {
                sim.corrupt_next(bgp_session::sim::Peer::A);
                sim.send_update(bgp_session::sim::Peer::B, &nth_update(sequence));
                sequence += 1;
                sim.run_until(sim.now() + 10);
            }
            SessionChaosScenario::CapabilityMismatch => unreachable!("handled separately"),
        }

        if sim.run_until_established(sim.now() + 60_000) {
            result.recoveries += 1;
        }
    }

    // Final calm window so late bursts can drain.
    sim.run_until(sim.now() + 3_000);
    result.recovered_last = sim.established();
    result.updates_delivered = sim.delivered(bgp_session::sim::Peer::A).len() as u64;
    result.virtual_ms = sim.now();
    result.stats = *sim.a.stats();
    result
}

/// The capability-mismatch scenario runs against a bare passive FSM: a
/// peer without the 4-octet-AS capability dials a listener that requires
/// it `faults_per_trial` times (each refused with an OPEN error), then a
/// conforming peer establishes and streams the update budget.
fn run_capability_trial(config: &SessionChaosConfig, seed: u64) -> TrialResult {
    use bgp_session::Event;

    let mut rng = bgp_types::rng::from_seed(seed);
    let mut result = TrialResult::default();
    let mut listener_cfg = SessionConfig::new(Asn(64_512), 0x0A00_0001);
    listener_cfg.passive = true;
    listener_cfg.require_four_octet = true;

    let mut now: u64 = 0;
    let mut stats = SessionStats::default();
    for _ in 0..config.faults_per_trial.max(1) {
        // Each refused dial gets a fresh accepted connection, like a real
        // listener would hand out.
        let mut session = Session::new(listener_cfg.clone());
        let mut actions = Vec::new();
        session.handle(now, &Event::ManualStart, &mut actions);
        session.handle(now, &Event::Connected, &mut actions);
        let mut bare = OpenMessage::new(Asn(65_001), 30, 0x0A00_0002);
        bare.capabilities.clear();
        let bytes = bare.encode().expect("static OPEN encodes");
        session.handle(now, &Event::Bytes(&bytes), &mut actions);
        result.faults += 1;
        stats.notifications_sent += session.stats().notifications_sent;
        stats.opens_received += session.stats().opens_received;
        if session.stats().notifications_sent > 0 {
            // Refusal is the *correct* outcome here; count it as the
            // session layer recovering its invariant.
            result.recoveries += 1;
        }
        now += rng.gen_range(200..2_000);
    }

    // A conforming peer finally shows up.
    let mut session = Session::new(listener_cfg);
    let mut actions = Vec::new();
    session.handle(now, &Event::ManualStart, &mut actions);
    session.handle(now, &Event::Connected, &mut actions);
    let good = OpenMessage::new(Asn(70_000), 30, 0x0A00_0003)
        .encode()
        .expect("static OPEN encodes");
    session.handle(now, &Event::Bytes(&good), &mut actions);
    session.handle(now, &Event::Bytes(&encode_keepalive()), &mut actions);
    result.established_first = false;
    result.recovered_last = session.state() == bgp_session::State::Established;
    if result.recovered_last {
        let encoding = if session.peer().is_some_and(|p| p.four_octet) {
            bgp_wire::bgp::AsnEncoding::FourOctet
        } else {
            bgp_wire::bgp::AsnEncoding::TwoOctet
        };
        for n in 0..config.updates_per_trial as u64 {
            let bytes = nth_update(n)
                .encode(encoding)
                .expect("static UPDATE encodes");
            let mut actions = Vec::new();
            session.handle(now, &Event::Bytes(&bytes), &mut actions);
            result.updates_sent += 1;
            result.updates_delivered += actions
                .iter()
                .filter(|a| matches!(a, bgp_session::SessionAction::Deliver(_)))
                .count() as u64;
        }
    }
    result.virtual_ms = now;
    stats.established = session.stats().established;
    stats.notifications_sent += session.stats().notifications_sent;
    stats.updates_received = session.stats().updates_received;
    result.stats = stats;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_runs_and_recovers() {
        for scenario in SessionChaosScenario::ALL {
            let config = SessionChaosConfig::quick(scenario);
            let report = run_session_chaos(&config, 1);
            assert_eq!(report.trials, config.trials, "{scenario:?}");
            assert_eq!(
                report.recovered_trials, report.trials,
                "{scenario:?} pairs did not all recover: {report:?}"
            );
            assert!(
                report.recovery_rate > 0.99,
                "{scenario:?} recovery rate {}",
                report.recovery_rate
            );
            assert!(report.total_faults > 0, "{scenario:?}");
        }
    }

    #[test]
    fn hold_expiry_trips_the_hold_timer() {
        let config = SessionChaosConfig::quick(SessionChaosScenario::HoldExpiry);
        let report = run_session_chaos(&config, 1);
        assert!(report.mean_hold_expirations >= 1.0, "{report:?}");
        assert!(report.mean_establishments > 1.0);
    }

    #[test]
    fn corruption_registers_decode_errors() {
        let config = SessionChaosConfig::quick(SessionChaosScenario::Corruption);
        let report = run_session_chaos(&config, 1);
        assert!(report.mean_decode_errors >= 1.0, "{report:?}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let config = SessionChaosConfig::quick(SessionChaosScenario::TcpReset);
        let report = run_session_chaos(&config, 1);
        let text = report.to_json();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.pretty(), text);
        let scenario = Json::Str("session-tcp-reset".into());
        assert_eq!(doc.get("scenario"), Some(&scenario));
        let rate = Json::Num(report.recovery_rate);
        assert_eq!(doc.get("recovery_rate"), Some(&rate));
    }

    #[test]
    fn scenario_names_round_trip() {
        for scenario in SessionChaosScenario::ALL {
            assert_eq!(scenario.name().parse(), Ok(scenario));
        }
        assert!("session-zap".parse::<SessionChaosScenario>().is_err());
    }
}
