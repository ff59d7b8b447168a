//! Executable versions of the paper's worked examples (Figures 1-3, 6-7 and
//! the §4 narrative), spanning all workspace crates through the `moas`
//! facade.

use moas::bgp::{Network, NoopMonitor};
use moas::detection::{find_conflict, ConflictKind, MoasMonitor, OfflineMonitor, RegistryVerifier};
use moas::topology::{AsGraph, AsRole};
use moas::types::{AsPath, Asn, Community, Ipv4Prefix, MoasList, Route};
use moas::wire::bgp::PathAttributes;
use moas::wire::MOAS_LIST_VALUE;

fn prefix() -> Ipv4Prefix {
    "208.8.0.0/16".parse().unwrap()
}

/// The Figure 1/2/3 topology: origin AS 4 behind transits AS 2 ("Y") and
/// AS 3 ("Z"), observer AS 1 ("X"), plus the second origin AS 226 and the
/// attacker AS 52 where the figures place them.
fn figure_topology() -> AsGraph {
    let mut g = AsGraph::new();
    g.add_as(Asn(4), AsRole::Stub);
    g.add_as(Asn(226), AsRole::Stub);
    g.add_as(Asn(52), AsRole::Stub);
    for t in [1, 2, 3] {
        g.add_as(Asn(t), AsRole::Transit);
    }
    for (a, b) in [(4, 2), (4, 3), (2, 1), (3, 1), (226, 3), (52, 1)] {
        g.add_link(Asn(a), Asn(b));
    }
    g
}

#[test]
fn figure1_route_origination_and_paths() {
    // "AS X learns two possible routes to prefix, path (Y,4) and path (Z,4)."
    let mut net = Network::new(&figure_topology());
    net.originate(Asn(4), prefix(), None);
    net.run().unwrap();

    let x = net.router(Asn(1)).unwrap();
    let paths: Vec<String> = x
        .adj_rib_in(prefix())
        .map(|(_, route)| route.as_path().to_string())
        .collect();
    assert!(paths.contains(&"2 4".to_string()), "path via Y: {paths:?}");
    assert!(paths.contains(&"3 4".to_string()), "path via Z: {paths:?}");
    assert_eq!(x.best_origin(prefix()), Some(Asn(4)));
}

#[test]
fn figure2_valid_moas_both_origins_reachable() {
    // Prefix originated by AS 4 (BGP peering) and AS 226 (static config at
    // its ISP): a valid MOAS — every AS reaches one of the two origins.
    let list: MoasList = [Asn(4), Asn(226)].into_iter().collect();
    let mut net = Network::new(&figure_topology());
    net.originate(Asn(4), prefix(), Some(list.clone()));
    net.originate(Asn(226), prefix(), Some(list));
    net.run().unwrap();
    for asn in [1, 2, 3, 4, 52, 226] {
        let origin = net.best_origin(Asn(asn), prefix()).unwrap();
        assert!(
            origin == Asn(4) || origin == Asn(226),
            "AS {asn} routed to {origin}"
        );
    }
}

#[test]
fn figure3_hijack_succeeds_under_plain_bgp() {
    // "With the topology in Figure 3, AS 52 appears to AS X to offer the
    // shortest route... AS X would accept and propagate this false route."
    let mut net = Network::new(&figure_topology());
    net.originate(Asn(4), prefix(), None);
    net.originate(Asn(52), prefix(), None);
    net.run().unwrap();
    assert_eq!(net.best_origin(Asn(1), prefix()), Some(Asn(52)));
    // And AS X propagates the false route onward: AS 2 and AS 3 hold it in
    // their Adj-RIB-In even though their best is the true origin.
    for transit in [2, 3] {
        assert_eq!(net.best_origin(Asn(transit), prefix()), Some(Asn(4)));
    }
}

#[test]
fn figure6_7_moas_list_encoding_on_the_wire() {
    // Figure 7: the MOAS list as (AS1:MLVal),(AS2:MLVal) communities.
    let list: MoasList = [Asn(1), Asn(2)].into_iter().collect();
    let announced = Route::new(prefix(), AsPath::origination(Asn(1))).with_moas_list(list.clone());
    assert_eq!(
        PathAttributes::from_route(&announced).communities,
        vec![
            Community::new(Asn(1), MOAS_LIST_VALUE),
            Community::new(Asn(2), MOAS_LIST_VALUE)
        ]
    );

    // Figure 6: AS Z's forged announcement (P, {1,2,Z}) vs the honest
    // (P, {1,2}) — AS X observes the inconsistency and alarms.
    let z = Asn(99);
    let honest = Route::new(prefix(), AsPath::origination(Asn(1))).with_moas_list(list.clone());
    let mut forged_list = list.clone();
    forged_list.insert(z);
    let forged = Route::new(prefix(), AsPath::origination(z)).with_moas_list(forged_list);

    let conflict = find_conflict(&forged, &[(Some(Asn(7)), honest)]).expect("must conflict");
    assert_eq!(conflict.kind, ConflictKind::InconsistentLists);
    assert_eq!(conflict.incoming_origin, Some(z));
}

#[test]
fn figure3_hijack_stopped_by_moas_detection() {
    let valid = MoasList::implicit(Asn(4));
    let mut registry = RegistryVerifier::new();
    registry.register(prefix(), valid.clone());
    let mut net = Network::with_monitor(&figure_topology(), MoasMonitor::full(registry));
    net.originate(Asn(4), prefix(), Some(valid));
    net.originate(Asn(52), prefix(), None);
    net.run().unwrap();

    // Every non-attacker AS keeps the true origin.
    for asn in [1, 2, 3, 4, 226] {
        assert_eq!(
            net.best_origin(Asn(asn), prefix()),
            Some(Asn(4)),
            "AS {asn}"
        );
    }
    let alarms = net.monitor().alarms();
    assert!(alarms.confirmed_count() > 0);
    // AS X (AS 1) is among the observers that raised the alarm.
    assert!(alarms.observers().any(|a| a == Asn(1)));
}

#[test]
fn four_byte_origin_with_its_own_list_raises_no_alarm() {
    // A 3-AS chain under full deployment: the honest origin AS 65,537
    // announces the list {65537, 70000}. Members above 65,535 must neither
    // alias (AS 65,537 reading back as AS 1) nor fail the §4.2 self-test.
    let origin = Asn(65_537);
    let mut g = AsGraph::new();
    g.add_as(origin, AsRole::Stub);
    g.add_as(Asn(2), AsRole::Transit);
    g.add_as(Asn(3), AsRole::Stub);
    g.add_link(origin, Asn(2));
    g.add_link(Asn(2), Asn(3));
    let list: MoasList = [origin, Asn(70_000)].into_iter().collect();
    let mut registry = RegistryVerifier::new();
    registry.register(prefix(), list.clone());
    let mut net = Network::with_monitor(&g, MoasMonitor::full(registry));
    net.originate(origin, prefix(), Some(list.clone()));
    net.run().unwrap();

    assert!(
        net.monitor().alarms().is_empty(),
        "{:?}",
        net.monitor().alarms()
    );
    for observer in [Asn(2), Asn(3)] {
        assert_eq!(net.best_origin(observer, prefix()), Some(origin));
        let held = net.router(observer).unwrap().best_route(prefix()).unwrap();
        assert_eq!(held.moas_list(), Some(&list), "AS {observer}");
    }
}

#[test]
fn section42_offline_monitor_sees_what_routers_miss() {
    // Plain BGP network, no router modified; the offline process detects the
    // conflict from collected routes.
    let mut net = Network::with_monitor(&figure_topology(), NoopMonitor);
    net.originate(Asn(4), prefix(), Some(MoasList::implicit(Asn(4))));
    net.originate(Asn(52), prefix(), None);
    net.run().unwrap();

    let findings = OfflineMonitor::new().scan_network(&net, &[Asn(1), Asn(2), Asn(3)], prefix());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].origins, vec![Asn(4), Asn(52)]);
}

#[test]
fn section41_single_path_origin_is_the_known_weakness() {
    // "if the origin AS for p has only one path to reach the rest of the
    // Internet, a fault can defeat the MOAS detection mechanism by altering
    // the origin AS on this single path." Model: victim AS 4 is single-homed
    // behind compromised transit AS 2 which strips the valid announcement's
    // list AND injects its own false origin... here we model the simpler cut:
    // the only transit is itself the attacker, so no valid route escapes.
    let mut g = AsGraph::new();
    g.add_as(Asn(4), AsRole::Stub);
    g.add_as(Asn(2), AsRole::Transit);
    g.add_as(Asn(1), AsRole::Transit);
    g.add_link(Asn(4), Asn(2));
    g.add_link(Asn(2), Asn(1));

    let valid = MoasList::implicit(Asn(4));
    let mut registry = RegistryVerifier::new();
    registry.register(prefix(), valid.clone());
    let mut net = Network::with_monitor(&g, MoasMonitor::full(registry));
    net.originate(Asn(4), prefix(), Some(valid.clone()));
    // AS 2 is compromised: it originates the prefix itself. Its own local
    // route wins its decision process, so the valid route never reaches AS 1.
    let attack = moas::detection::FalseOriginAttack::new(moas::detection::ListForgery::IncludeSelf);
    attack.launch(&mut net, Asn(2), prefix(), &valid);
    net.run().unwrap();

    // AS 1 only ever saw the false route: no conflict, no alarm, hijacked.
    assert_eq!(net.best_origin(Asn(1), prefix()), Some(Asn(2)));
}
