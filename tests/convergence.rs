//! Network-level convergence properties, including property-based checks on
//! randomly generated Internet-like topologies.

use moas::bgp::Network;
use moas::detection::{Deployment, MoasMonitor, RegistryVerifier};
use moas::topology::{prefix_for_asn, InternetModel};
use moas::types::{Asn, MoasList};
use proptest::prelude::*;

#[test]
fn every_as_converges_to_the_single_origin() {
    for seed in 0..5 {
        let graph = InternetModel::new()
            .transit_count(12)
            .stub_count(60)
            .build(seed);
        let victim = graph.stub_asns()[seed as usize % 60];
        let prefix = prefix_for_asn(victim);
        let mut net = Network::new(&graph);
        net.originate(victim, prefix, None);
        net.run().unwrap();
        for asn in graph.asns() {
            assert_eq!(
                net.best_origin(asn, prefix),
                Some(victim),
                "seed {seed}, {asn}"
            );
        }
    }
}

#[test]
fn withdrawal_after_convergence_clears_all_state() {
    let graph = InternetModel::new()
        .transit_count(10)
        .stub_count(40)
        .build(9);
    let victim = graph.stub_asns()[0];
    let prefix = prefix_for_asn(victim);
    let mut net = Network::new(&graph);
    net.originate(victim, prefix, None);
    net.run().unwrap();
    net.withdraw(victim, prefix);
    net.run().unwrap();
    for asn in graph.asns() {
        assert!(net.best_route(asn, prefix).is_none(), "{asn} kept a route");
        assert_eq!(net.router(asn).unwrap().adj_rib_in(prefix).count(), 0);
    }
}

#[test]
fn flap_reconverges_to_the_same_state() {
    let graph = InternetModel::new()
        .transit_count(10)
        .stub_count(40)
        .build(11);
    let victim = graph.stub_asns()[5];
    let prefix = prefix_for_asn(victim);

    let mut reference = Network::new(&graph);
    reference.originate(victim, prefix, None);
    reference.run().unwrap();

    let mut flapped = Network::new(&graph);
    flapped.originate(victim, prefix, None);
    flapped.run().unwrap();
    flapped.withdraw(victim, prefix);
    flapped.run().unwrap();
    flapped.originate(victim, prefix, None);
    flapped.run().unwrap();

    for asn in graph.asns() {
        assert_eq!(
            reference.best_route(asn, prefix),
            flapped.best_route(asn, prefix),
            "{asn} differs after flap"
        );
    }
}

#[test]
fn message_complexity_is_bounded() {
    // A single origination in a quiescent network must cost O(links) + churn
    // from path exploration, not an explosion.
    let graph = InternetModel::new()
        .transit_count(10)
        .stub_count(90)
        .build(13);
    let victim = graph.stub_asns()[0];
    let mut net = Network::new(&graph);
    net.originate(victim, prefix_for_asn(victim), None);
    net.run().unwrap();
    let messages = net.stats().total_messages();
    let links = graph.link_count() as u64;
    assert!(
        messages <= links * 20,
        "{messages} messages for {links} links"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full MOAS deployment with an oracle verifier: whenever the attackers
    /// are stub ASes (so they cannot partition anyone from the valid route),
    /// no non-attacker ever ends up on a false route, on any topology.
    #[test]
    fn stub_attackers_never_win_under_full_deployment(
        seed in 0u64..500,
        attackers in 1usize..4,
    ) {
        let graph = InternetModel::new().transit_count(8).stub_count(40).build(seed);
        let stubs = graph.stub_asns();
        let mut rng = moas::types::rng::from_seed(seed ^ 0xFACE);
        let picked = moas::types::rng::sample_distinct(&mut rng, &stubs, attackers + 1);
        let victim = picked[0];
        let villains = &picked[1..];

        let prefix = prefix_for_asn(victim);
        let valid = MoasList::implicit(victim);
        let mut registry = RegistryVerifier::new();
        registry.register(prefix, valid.clone());
        let mut net = Network::with_monitor_and_jitter(
            &graph,
            MoasMonitor::full(registry),
            seed,
            4,
        );
        net.originate(victim, prefix, Some(valid.clone()));
        let attack = moas::detection::FalseOriginAttack::default();
        for &villain in villains {
            attack.launch(&mut net, villain, prefix, &valid);
        }
        net.run().unwrap();

        for asn in graph.asns() {
            if villains.contains(&asn) {
                continue;
            }
            let origin = net.best_origin(asn, prefix);
            prop_assert_eq!(origin, Some(victim), "{} adopted {:?}", asn, origin);
        }
    }

    /// Deployment::None must behave identically to plain BGP: the monitor
    /// machinery adds no behavioural difference when disabled.
    #[test]
    fn none_deployment_equals_plain_bgp(seed in 0u64..200) {
        let graph = InternetModel::new().transit_count(6).stub_count(25).build(seed);
        let stubs = graph.stub_asns();
        let victim = stubs[0];
        let villain = stubs[stubs.len() - 1];
        let prefix = prefix_for_asn(victim);
        let valid = MoasList::implicit(victim);

        let run = |monitored: bool| {
            let mut registry = RegistryVerifier::new();
            registry.register(prefix, valid.clone());
            let monitor = MoasMonitor::new(
                moas::detection::MoasConfig {
                    deployment: if monitored { Deployment::Full } else { Deployment::None },
                    ..Default::default()
                },
                registry,
            );
            let mut net = Network::with_monitor_and_jitter(&graph, monitor, seed, 3);
            net.originate(victim, prefix, Some(valid.clone()));
            let attack = moas::detection::FalseOriginAttack::default();
            attack.launch(&mut net, villain, prefix, &valid);
            net.run().unwrap();
            let origins: Vec<Option<Asn>> =
                graph.asns().map(|a| net.best_origin(a, prefix)).collect();
            (origins, net.monitor().alarms().len())
        };

        let (plain_origins, plain_alarms) = run(false);
        prop_assert_eq!(plain_alarms, 0);

        // And a plain-BGP network with no monitor at all agrees.
        let mut bare = Network::with_monitor_and_jitter(&graph, moas::bgp::NoopMonitor, seed, 3);
        bare.originate(victim, prefix, Some(valid.clone()));
        moas::detection::FalseOriginAttack::default().launch(&mut bare, villain, prefix, &valid);
        bare.run().unwrap();
        let bare_origins: Vec<Option<Asn>> =
            graph.asns().map(|a| bare.best_origin(a, prefix)).collect();
        prop_assert_eq!(plain_origins, bare_origins);
    }
}
