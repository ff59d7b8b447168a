//! The `--metrics` bytes themselves, not only their self-consistency.
//!
//! * Absolute pins: the FNV-1a 64 hash and byte length of two serialized
//!   snapshots, recorded from the release build that still formatted every
//!   per-session and per-link key by hand. One is `figures --quick`; the
//!   other is a two-trial `lossy-core` chaos run, the only path with
//!   `link.*` rows and the `churn.`/`attack.` scopes. Any change to a name,
//!   a field, a merge rule or the JSON shape moves them.
//! * Absolute pins of the chaos and ensemble reports: every chaos scenario's
//!   quick JSON report, and the quick ensemble report with its snapshot.
//!   Both drivers build, arm and run their networks through one scenario
//!   runner; these pins hold the bytes that runner must keep producing.
//! * Absolute pins of every session chaos scenario's quick JSON report,
//!   which runs the RFC 4271 session layer rather than the engine.
//! * A property: on small generated graphs, with and without a fault plan
//!   and a [`Scoped`] prefix, `export_metrics` and a sink-to-sink merge give
//!   exactly the snapshot of a reference exporter that formats every key
//!   from `session_counters()` and `fault_stats()` and merges snapshots.
//! * A property of the row family alone: any rows, in any order, zeros and
//!   repeats included, render as the hand-formatted counters would.

use as_topology::paper::PaperTopology;
use as_topology::{AsGraph, InternetModel};
use bgp_engine::{LinkFaultModel, NetFaultPlan, Network, NoopMonitor};
use bgp_types::Ipv4Prefix;
use experiments::json::to_string_pretty;
use experiments::json::ToJson;
use experiments::{
    experiment1, experiment2, experiment3, run_chaos, run_ensemble, run_session_chaos, ChaosConfig,
    ChaosScenario, EnsembleConfig, Exec, SessionChaosConfig, SessionChaosScenario, SweepConfig,
};
use minimetrics::{MetricsSink, MetricsSnapshot, RecordingSink, RowFamily, Scoped};
use proptest::prelude::*;

/// FNV-1a 64 of `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(fnv64, length)` of a snapshot or report as `--metrics` or `--out`
/// writes it (less the final newline).
fn pin<T: ToJson>(value: &T) -> (u64, usize) {
    let text = to_string_pretty(value);
    (fnv64(text.as_bytes()), text.len())
}

#[test]
fn figures_quick_snapshot_bytes_are_pinned() {
    // Exactly what `moas-lab figures --quick --metrics F` merges.
    let config = SweepConfig::quick();
    let exec = Exec::serial().metrics();
    let mut metrics = MetricsSnapshot::new();
    for origins in [1, 2] {
        metrics.merge(&experiment1(origins, &config, exec).1);
    }
    for origins in [1, 2] {
        metrics.merge(&experiment2(origins, &config, exec).1);
    }
    for topology in [PaperTopology::As46, PaperTopology::As63] {
        metrics.merge(&experiment3(topology, &config, exec).1);
    }
    assert_eq!(pin(&metrics), (0x5260_31c9_f312_21ef, 85_307));
}

#[test]
fn lossy_core_chaos_snapshot_bytes_are_pinned() {
    // `moas-lab chaos --scenario lossy-core --quick --trials 2 --seed 1`.
    let mut config = ChaosConfig::quick(ChaosScenario::LossyCore);
    config.trials = 2;
    config.seed = 1;
    let (_, metrics) = run_chaos(&config, Exec::serial().metrics());
    assert!(metrics
        .counters
        .keys()
        .any(|k| k.starts_with("churn.link.")));
    assert!(metrics
        .counters
        .keys()
        .any(|k| k.starts_with("attack.session.")));
    assert_eq!(pin(&metrics), (0x90a6_2be5_73c0_d2f4, 50_570));
}

#[test]
fn chaos_reports_are_pinned() {
    // `moas-lab chaos --scenario NAME --quick` for each scenario.
    let pins = [
        (ChaosScenario::Failover, (0x4ecc_0d1a_804a_2f01, 429)),
        (ChaosScenario::OriginFlap, (0xa8ca_cb4d_7b4f_5253, 422)),
        (ChaosScenario::LossyCore, (0x7554_52a5_6f40_a8af, 464)),
        (ChaosScenario::SessionReset, (0x545a_e80d_5643_25b4, 420)),
        (ChaosScenario::FlapStorm, (0x10da_d874_2cc8_85f6, 445)),
        (ChaosScenario::MraiDeferral, (0x94a1_4970_48f8_a303, 435)),
    ];
    for (scenario, expected) in pins {
        let (report, _) = run_chaos(&ChaosConfig::quick(scenario), Exec::serial());
        assert_eq!(pin(&report), expected, "{scenario}");
    }
}

#[test]
fn session_chaos_reports_are_pinned() {
    // `moas-lab chaos --scenario NAME --quick` for each session scenario.
    let pins = [
        (
            SessionChaosScenario::HoldExpiry,
            (0x3600_bf9c_48e2_3ed0, 419),
        ),
        (
            SessionChaosScenario::NotificationStorm,
            (0xc611_f9ce_b568_1f12, 391),
        ),
        (
            SessionChaosScenario::CapabilityMismatch,
            (0x51a5_ac12_c929_51af, 379),
        ),
        (SessionChaosScenario::TcpReset, (0xff0a_809f_34df_a349, 382)),
        (
            SessionChaosScenario::Corruption,
            (0xa5b9_b4e6_c745_3ccd, 383),
        ),
    ];
    for (scenario, expected) in pins {
        let report = run_session_chaos(&SessionChaosConfig::quick(scenario), 1);
        assert_eq!(pin(&report), expected, "{}", scenario.name());
    }
}

#[test]
fn ensemble_quick_report_and_snapshot_are_pinned() {
    // `moas-lab ensemble --quick --metrics F`.
    let (report, metrics) = run_ensemble(&EnsembleConfig::quick(), 1, true);
    assert_eq!(pin(&report), (0x6811_8456_10e3_c422, 5_743));
    assert_eq!(pin(&metrics), (0x2081_c065_7be7_50f4, 40_025));
}

/// The per-session and per-link keys of `net`, formatted one by one the way
/// they were before they became rows.
fn reference_rows(net: &Network<NoopMonitor>, scope: &str) -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot::new();
    let mut put = |key: String, value: u64| {
        *snapshot.counters.entry(key).or_default() += value;
    };
    for ((a, b), c) in net.session_counters() {
        put(
            format!("{scope}session.{a}->{b}.sent_announcements"),
            c.sent_announcements,
        );
        put(
            format!("{scope}session.{a}->{b}.sent_withdrawals"),
            c.sent_withdrawals,
        );
        put(
            format!("{scope}session.{a}->{b}.recv_announcements"),
            c.recv_announcements,
        );
        put(
            format!("{scope}session.{a}->{b}.recv_withdrawals"),
            c.recv_withdrawals,
        );
    }
    for ((a, b), s) in net.fault_stats() {
        put(format!("{scope}link.{a}->{b}.delivered"), s.delivered);
        put(format!("{scope}link.{a}->{b}.dropped"), s.dropped);
        put(format!("{scope}link.{a}->{b}.duplicated"), s.duplicated);
        put(format!("{scope}link.{a}->{b}.reordered"), s.reordered);
        put(format!("{scope}link.{a}->{b}.corrupted"), s.corrupted);
        put(
            format!("{scope}link.{a}->{b}.dropped_link_down"),
            s.dropped_link_down,
        );
    }
    snapshot
}

/// The reference snapshot of `net`: `exported` with every row-derived key
/// replaced by the hand-formatted ones.
fn reference(
    net: &Network<NoopMonitor>,
    scope: &str,
    exported: &MetricsSnapshot,
) -> MetricsSnapshot {
    let mut expected = exported.clone();
    let row_derived = |key: &String| {
        key.strip_prefix(scope)
            .is_some_and(|rest| rest.starts_with("session.") || rest.starts_with("link."))
    };
    expected.counters.retain(|key, _| !row_derived(key));
    expected.merge(&reference_rows(net, scope));
    expected
}

/// A converged (or budget-stopped) run on `graph`, lossy on some links when
/// `lossy`.
fn run(graph: &AsGraph, seed: u64, lossy: bool) -> Network<NoopMonitor> {
    let mut net = Network::with_monitor_and_jitter(graph, NoopMonitor, seed, 4);
    if lossy {
        let mut plan = NetFaultPlan::new(seed ^ 0xFA17);
        for (i, link) in graph.links().into_iter().enumerate() {
            if i % 3 == 0 {
                let model = LinkFaultModel {
                    drop: 0.2,
                    corrupt: 0.05,
                    duplicate: 0.1,
                    reorder: 0.1,
                    max_extra_delay: 3,
                };
                plan.set_link_model(link, model);
            }
        }
        net.set_fault_plan(plan).expect("plan names real links");
    }
    let stubs = graph.stub_asns();
    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().expect("prefix literal");
    let origin = stubs[seed as usize % stubs.len()];
    net.originate(origin, prefix, None);
    let _ = net.run_with_limit(200_000);
    net
}

fn export(net: &Network<NoopMonitor>, scope: Option<&str>) -> RecordingSink {
    let mut sink = RecordingSink::new();
    match scope {
        Some(scope) => net.export_metrics(&mut Scoped::new(&mut sink, scope)),
        None => net.export_metrics(&mut sink),
    }
    sink
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn export_and_merge_match_the_hand_formatted_reference(
        transit in 3usize..7,
        stubs in 4usize..14,
        graph_seed in 0u64..1_000,
        seeds in (0u64..1_000, 0u64..1_000),
        lossy in any::<bool>(),
        scoped in any::<bool>(),
    ) {
        let graph = InternetModel::new()
            .transit_count(transit)
            .stub_count(stubs)
            .multihome_prob(0.6)
            .build(graph_seed);
        let scope = scoped.then_some("churn");
        let prefix = scope.map_or(String::new(), |s| format!("{s}."));
        let (first, second) = (run(&graph, seeds.0, lossy), run(&graph, seeds.1, lossy));

        let first_sink = export(&first, scope);
        let first_snapshot = first_sink.snapshot();
        prop_assert_eq!(&first_snapshot, &reference(&first, &prefix, &first_snapshot));
        prop_assert_eq!(lossy, first_snapshot.counters.keys().any(|k| k.contains("link.AS")));

        // Sink to sink: what `Exec::run_cells` does with two trials.
        let second_sink = export(&second, scope);
        let second_snapshot = second_sink.snapshot();
        let mut expected = reference(&first, &prefix, &first_snapshot);
        expected.merge(&reference(&second, &prefix, &second_snapshot));
        let mut merged = first_sink;
        merged.merge(second_sink);
        prop_assert_eq!(merged.into_snapshot(), expected);
    }
}

static EDGES: RowFamily = RowFamily {
    name: "edge",
    fields: &["sent", "lost", "late"],
    label: |key, out| out.push_str(&format!("AS{}->AS{}", key >> 32, key as u32)),
};

/// Records `rows` through the row family into `sink`.
fn add_rows<S: MetricsSink>(sink: &mut S, rows: &[(u64, [u64; 3])]) {
    let table = sink.row_table("", &EDGES, rows.len());
    for (key, values) in rows {
        sink.row_add(table, *key, values);
    }
}

/// Records `rows` through the row family, optionally scoped.
fn rows_sink(rows: &[(u64, [u64; 3])], scope: Option<&str>) -> RecordingSink {
    let mut sink = RecordingSink::new();
    match scope {
        Some(scope) => add_rows(&mut Scoped::new(&mut sink, scope), rows),
        None => add_rows(&mut sink, rows),
    }
    sink
}

/// The same rows as one `counter_add` per formatted key.
fn rows_by_hand(rows: &[(u64, [u64; 3])], scope: Option<&str>) -> MetricsSnapshot {
    let mut sink = RecordingSink::new();
    let prefix = scope.map_or(String::new(), |s| format!("{s}."));
    for &(key, values) in rows {
        for (field, value) in EDGES.fields.iter().zip(values) {
            let name = format!("{prefix}edge.AS{}->AS{}.{field}", key >> 32, key as u32);
            sink.counter_add(&name, value);
        }
    }
    sink.into_snapshot()
}

/// Mostly zeros, so all-zero rows and all-zero fields are common.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(0u64), 1u64..5]
}

fn row_strategy() -> impl Strategy<Value = Vec<(u64, [u64; 3])>> {
    let key = (0u64..4, 0u64..4).prop_map(|(a, b)| (a << 32) | b);
    let values = (value(), value(), value()).prop_map(|(a, b, c)| [a, b, c]);
    prop::collection::vec((key, values), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn rows_render_and_merge_like_hand_formatted_counters(
        a in row_strategy(),
        b in row_strategy(),
        scoped in any::<bool>(),
    ) {
        let scope = scoped.then_some("attack");
        prop_assert_eq!(rows_sink(&a, scope).snapshot(), rows_by_hand(&a, scope));

        let mut expected = rows_by_hand(&a, scope);
        expected.merge(&rows_by_hand(&b, scope));
        let mut merged = rows_sink(&a, scope);
        merged.merge(rows_sink(&b, scope));
        prop_assert_eq!(merged.into_snapshot(), expected);
    }
}
