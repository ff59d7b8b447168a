//! Failure injection: community stripping in transit, unavailable DNS,
//! stale registries — the operational hazards of §2 and §4.3, end to end —
//! plus corrupted MRT archives fed to the off-line monitor's import path.

use std::collections::BTreeSet;

use moas::bgp::Network;
use moas::detection::{
    DnsMoasVerifier, FalseOriginAttack, ListForgery, MoasConfig, MoasMonitor, OfflineMonitor,
    RegistryVerifier, UnresolvedPolicy,
};
use moas::topology::{AsGraph, AsRole};
use moas::types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
use moas::wire::bgp::PathAttributes;
use moas::wire::mrt::{MrtBody, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast};
use moas::wire::{day_to_timestamp, DailyDumpStream, WireError, WireErrorKind};

fn prefix() -> Ipv4Prefix {
    "208.8.0.0/16".parse().unwrap()
}

/// Victim AS 4 and second origin AS 226 behind transits 2 and 3; observer
/// AS 1; attacker AS 52 adjacent to the observer.
fn topology() -> AsGraph {
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
fn community_stripping_transit_causes_false_alarm_but_not_outage() {
    // AS 2 strips community attributes. AS 1 receives the prefix via AS 2
    // (no list -> implicit {4}) and via AS 3 (list {4, 226}): a §4.3 false
    // alarm. The verifier clears it and both routes stay usable.
    let valid: MoasList = [Asn(4), Asn(226)].into_iter().collect();
    let mut registry = RegistryVerifier::new();
    registry.register(prefix(), valid.clone());
    let monitor = MoasMonitor::new(
        MoasConfig {
            strippers: [Asn(2)].into_iter().collect(),
            ..MoasConfig::default()
        },
        registry,
    );
    let mut net = Network::with_monitor(&topology(), monitor);
    net.originate(Asn(4), prefix(), Some(valid.clone()));
    net.originate(Asn(226), prefix(), Some(valid));
    net.run().unwrap();

    let alarms = net.monitor().alarms();
    assert!(
        alarms.false_alarm_count() > 0,
        "stripping must trip a false alarm"
    );
    assert_eq!(alarms.confirmed_count(), 0);
    // No valid route was lost anywhere.
    for asn in [1, 2, 3, 4, 226] {
        let origin = net.best_origin(Asn(asn), prefix()).unwrap();
        assert!(
            origin == Asn(4) || origin == Asn(226),
            "AS {asn} -> {origin}"
        );
    }
}

#[test]
fn stripping_does_not_let_the_attacker_through() {
    // §4.3's claim: "dropping the MOAS community value from some route
    // announcements should not cause an invalid case to be considered valid."
    let valid: MoasList = [Asn(4), Asn(226)].into_iter().collect();
    let mut registry = RegistryVerifier::new();
    registry.register(prefix(), valid.clone());
    let monitor = MoasMonitor::new(
        MoasConfig {
            strippers: [Asn(2), Asn(3)].into_iter().collect(),
            ..MoasConfig::default()
        },
        registry,
    );
    let mut net = Network::with_monitor(&topology(), monitor);
    net.originate(Asn(4), prefix(), Some(valid.clone()));
    net.originate(Asn(226), prefix(), Some(valid.clone()));
    FalseOriginAttack::new(ListForgery::IncludeSelf).launch(&mut net, Asn(52), prefix(), &valid);
    net.run().unwrap();

    for asn in [1, 2, 3, 4, 226] {
        let origin = net.best_origin(Asn(asn), prefix()).unwrap();
        assert_ne!(origin, Asn(52), "AS {asn} adopted the attacker");
    }
    assert!(net.monitor().alarms().confirmed_count() > 0);
}

#[test]
fn unavailable_dns_with_accept_policy_degrades_to_plain_bgp() {
    // The §2 circular-dependency critique: if the MOASRR lookup is down,
    // conflicts go unresolved. With the conservative Accept policy the
    // attacker's shorter path wins at AS 1 — detection alone cannot act.
    let valid = MoasList::implicit(Asn(4));
    let mut dns = DnsMoasVerifier::new(0.0, 1); // resolver unreachable
    dns.register(prefix(), valid.clone());
    let monitor = MoasMonitor::new(
        MoasConfig {
            on_unresolved: UnresolvedPolicy::Accept,
            ..MoasConfig::default()
        },
        dns,
    );
    let mut net = Network::with_monitor(&topology(), monitor);
    net.originate(Asn(4), prefix(), Some(valid.clone()));
    FalseOriginAttack::new(ListForgery::IncludeSelf).launch(&mut net, Asn(52), prefix(), &valid);
    net.run().unwrap();

    assert_eq!(net.best_origin(Asn(1), prefix()), Some(Asn(52)));
    let alarms = net.monitor().alarms();
    assert!(alarms.unresolved_count() > 0);
    assert!(net.monitor().verifier().failed_lookups() > 0);
}

#[test]
fn unavailable_dns_with_reject_policy_is_first_come_wins() {
    // With the verifier blind, RejectIncoming refuses whichever conflicting
    // route arrives *second*. The attacker is one hop from AS 1, so its
    // route lands there first and even the aggressive policy cannot undo it;
    // but at AS 2 and AS 3 (adjacent to the true origin) the valid route
    // arrives first and the attacker's later announcement is rejected.
    let valid = MoasList::implicit(Asn(4));
    let mut dns = DnsMoasVerifier::new(0.0, 1);
    dns.register(prefix(), valid.clone());
    let monitor = MoasMonitor::new(
        MoasConfig {
            on_unresolved: UnresolvedPolicy::RejectIncoming,
            ..MoasConfig::default()
        },
        dns,
    );
    let mut net = Network::with_monitor(&topology(), monitor);
    net.originate(Asn(4), prefix(), Some(valid.clone()));
    FalseOriginAttack::new(ListForgery::IncludeSelf).launch(&mut net, Asn(52), prefix(), &valid);
    net.run().unwrap();

    assert_eq!(
        net.best_origin(Asn(1), prefix()),
        Some(Asn(52)),
        "first-come wins at AS 1"
    );
    for asn in [2, 3, 4, 226] {
        assert_eq!(
            net.best_origin(Asn(asn), prefix()),
            Some(Asn(4)),
            "AS {asn}"
        );
    }
    assert!(net.monitor().alarms().unresolved_count() > 0);
}

#[test]
fn stale_registry_blackholes_a_new_legitimate_origin() {
    // The §2 IRR critique, reproduced: AS 226 just became a second
    // legitimate origin, but AS 4 still announces its old one-member list
    // and the registry record is equally outdated. The genuine (but
    // list-inconsistent) announcements from AS 226 are wrongly "confirmed"
    // as bogus and evicted wherever the conflict is checked.
    let mut stale = RegistryVerifier::new();
    stale.register(prefix(), MoasList::implicit(Asn(4))); // outdated record

    let mut net = Network::with_monitor(&topology(), MoasMonitor::full(stale));
    net.originate(Asn(4), prefix(), Some(MoasList::implicit(Asn(4)))); // old list
    net.originate(
        Asn(226),
        prefix(),
        Some([Asn(4), Asn(226)].into_iter().collect()),
    );
    net.run().unwrap();

    // Nobody except AS 226 itself routes to the new origin.
    for asn in [1, 2, 3, 4, 52] {
        assert_eq!(
            net.best_origin(Asn(asn), prefix()),
            Some(Asn(4)),
            "AS {asn}"
        );
    }
    assert!(
        net.monitor().alarms().confirmed_count() > 0,
        "the stale record produces false 'confirmations'"
    );
}

#[test]
fn flaky_dns_partially_protects() {
    // 50% availability: some conflicts resolve (blocking the attacker at
    // those routers), others do not. The network must never do *worse* than
    // plain BGP, and alarms record the mix.
    let valid = MoasList::implicit(Asn(4));
    let mut dns = DnsMoasVerifier::new(0.5, 42);
    dns.register(prefix(), valid.clone());
    let monitor = MoasMonitor::new(MoasConfig::default(), dns);
    let mut net = Network::with_monitor(&topology(), monitor);
    net.originate(Asn(4), prefix(), Some(valid.clone()));
    FalseOriginAttack::new(ListForgery::IncludeSelf).launch(&mut net, Asn(52), prefix(), &valid);
    net.run().unwrap();

    let alarms = net.monitor().alarms();
    assert!(!alarms.is_empty());
    let fooled: BTreeSet<Asn> = [1, 2, 3, 4, 226]
        .into_iter()
        .map(Asn)
        .filter(|&a| net.best_origin(a, prefix()) == Some(Asn(52)))
        .collect();
    // Plain BGP would fool exactly AS 1; flaky DNS can only do better or equal.
    assert!(fooled.is_subset(&[Asn(1)].into_iter().collect()));
}

/// A small MRT archive: one peer table, then one RIB record per route. The
/// second prefix is a MOAS conflict — the attacker's route carries a list
/// inconsistent with the victim's.
fn archive_with_conflict() -> Vec<u8> {
    let valid: MoasList = [Asn(4), Asn(226)].into_iter().collect();
    let peer_table = MrtRecord {
        timestamp: day_to_timestamp(0),
        body: MrtBody::PeerIndexTable(PeerIndexTable {
            collector_id: 1,
            view_name: String::from("failure-injection"),
            peers: vec![PeerEntry {
                bgp_id: 1,
                addr: (10 << 24) | 1,
                asn: Asn(1),
            }],
        }),
    };
    let routes = [
        Route::new(prefix(), AsPath::from_sequence([Asn(1), Asn(2), Asn(4)]))
            .with_moas_list(valid.clone()),
        Route::new(prefix(), AsPath::from_sequence([Asn(1), Asn(3), Asn(226)]))
            .with_moas_list(valid),
        Route::new(prefix(), AsPath::from_sequence([Asn(1), Asn(52)]))
            .with_moas_list(MoasList::implicit(Asn(52))),
    ];
    let mut bytes = peer_table.encode().unwrap();
    for (sequence, route) in routes.iter().enumerate() {
        let record = MrtRecord {
            timestamp: day_to_timestamp(0),
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: sequence as u32,
                prefix: route.prefix(),
                entries: vec![RibEntry {
                    peer_index: 0,
                    originated_time: day_to_timestamp(0),
                    attrs: PathAttributes::from_route(route),
                }],
            }),
        };
        bytes.extend_from_slice(&record.encode().unwrap());
    }
    bytes
}

/// Streams an archive the way `moas-lab import-mrt --offline-scan` does:
/// every day's RIB routes, and the daily MOAS counts summed.
fn import(bytes: &[u8]) -> Result<(Vec<Route>, usize), WireError> {
    let mut routes = Vec::new();
    let mut moas = 0;
    for day in DailyDumpStream::new(bytes).collect_routes(true) {
        let day = day?;
        moas += day.dump.moas_count();
        routes.extend(day.routes);
    }
    Ok((routes, moas))
}

#[test]
fn intact_archive_reaches_the_offline_monitor() {
    // Baseline for the corruption tests: the clean archive imports, and the
    // off-line monitor flags the inconsistent-list MOAS conflict.
    let (routes, moas) = import(archive_with_conflict().as_slice()).unwrap();
    assert_eq!(routes.len(), 3);
    assert_eq!(moas, 1);
    let findings = OfflineMonitor::new().scan(routes);
    assert_eq!(findings.len(), 1, "the forged list must be flagged");
    assert!(findings[0].origins.contains(&Asn(52)));
}

#[test]
fn corrupt_mrt_archive_errors_cleanly_at_every_byte() {
    // Flip every byte of the archive to every-other-bit garbage, one at a
    // time. Import must either succeed (benign flip) or return a typed
    // error — never panic, and never report an offset beyond the input.
    let bytes = archive_with_conflict();
    for position in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[position] ^= 0x55;
        match import(mutated.as_slice()) {
            Ok((routes, _)) => assert!(routes.len() <= 3),
            Err(err) => assert!(
                err.offset <= bytes.len() as u64 + 1,
                "offset {} beyond archive at flipped byte {position}: {err}",
                err.offset
            ),
        }
    }
}

#[test]
fn truncated_mrt_archive_errors_or_imports_the_intact_prefix() {
    // A tape cut at a record boundary is a clean (shorter) archive; a cut
    // mid-record must produce a Truncated error, not a panic.
    let bytes = archive_with_conflict();
    for cut in 0..bytes.len() {
        match import(&bytes[..cut]) {
            Ok((routes, _)) => assert!(routes.len() < 3),
            Err(err) => assert!(
                matches!(err.kind, WireErrorKind::Truncated { .. }),
                "cut at {cut}: unexpected {err}"
            ),
        }
    }
}

#[test]
fn rib_before_peer_table_is_a_typed_error() {
    // Strip the leading PEER_INDEX_TABLE record: the RIB records then have
    // no peer context and import must say so rather than fabricate origins.
    let bytes = archive_with_conflict();
    // The MRT record length field (bytes 8..12 of the header) gives the
    // first record's full extent without re-encoding it.
    let body_len = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let err = import(&bytes[12 + body_len..]).unwrap_err();
    assert!(matches!(err.kind, WireErrorKind::MissingPeerIndexTable));
}
