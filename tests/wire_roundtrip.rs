//! Simulator ↔ codec round trip: every route the simulator exports is
//! encoded as a real BGP UPDATE, parsed back through the zero-copy
//! `UpdateView`, and compared with what was sent — so the MOAS list, and
//! the community classes routers strip or rewrite (Krenc et al.), are
//! checked in their wire form, not only as in-process structs.

use moas::bgp::{
    CommunityPolicies, CommunityPolicy, CommunityPolicyMap, ExportAction, ImportContext,
    ImportDecision, Network, NoopMonitor, RouteMonitor, REWRITE_MARKER_VALUE,
};
use moas::detection::{MoasMonitor, RegistryVerifier};
use moas::topology::paper::PaperTopology;
use moas::topology::{AsGraph, ScaleFreeModel};
use moas::types::{Asn, Ipv4Prefix, MoasList, Route, SimTime};
use moas::wire::bgp::{AsnEncoding, UpdateMessage};
use moas::wire::UpdateView;

/// Delegates every hook to `inner` and round-trips each route `inner`'s
/// export hook would send through the UPDATE codec.
struct WireRoundTrip<M> {
    inner: M,
    checked: u64,
    replaced: u64,
    rewritten_on_wire: u64,
    listed_on_wire: u64,
}

impl<M> WireRoundTrip<M> {
    fn new(inner: M) -> Self {
        WireRoundTrip {
            inner,
            checked: 0,
            replaced: 0,
            rewritten_on_wire: 0,
            listed_on_wire: 0,
        }
    }

    fn check(&mut self, local: Asn, route: &Route) {
        let sent = UpdateMessage::announce(route);
        let bytes = sent
            .encode(AsnEncoding::FourOctet)
            .expect("an exported route encodes");
        let view = UpdateView::parse_exact(&bytes, AsnEncoding::FourOctet)
            .expect("an encoded route parses");
        let back = view.to_message();
        assert_eq!(back, sent, "AS {local} export of {}", route.prefix());
        let attrs = back.attrs.as_ref().expect("an announcement has attributes");
        let decoded = attrs.to_route(route.prefix());
        assert_eq!(decoded.as_path(), route.as_path());
        assert_eq!(decoded.origin_as(), route.origin_as());
        assert_eq!(decoded.moas_list(), route.moas_list());
        assert_eq!(decoded.communities(), route.communities());
        self.checked += 1;
        self.listed_on_wire += u64::from(decoded.moas_list().is_some());
        self.rewritten_on_wire += u64::from(
            decoded
                .communities()
                .iter()
                .any(|c| c.value() == REWRITE_MARKER_VALUE),
        );
    }
}

impl<M: RouteMonitor> RouteMonitor for WireRoundTrip<M> {
    fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
        self.inner.on_import(ctx)
    }

    fn on_export(
        &mut self,
        local: Asn,
        to_peer: Asn,
        learned_from: Option<Asn>,
        route: &Route,
    ) -> ExportAction {
        let action = self.inner.on_export(local, to_peer, learned_from, route);
        match &action {
            ExportAction::Forward => self.check(local, route),
            ExportAction::Replace(sent) => {
                self.replaced += 1;
                self.check(local, sent);
            }
            ExportAction::Suppress => {}
        }
        action
    }

    fn on_withdraw(&mut self, local: Asn, from_peer: Asn, prefix: Ipv4Prefix) {
        self.inner.on_withdraw(local, from_peer, prefix);
    }

    fn on_clock(&mut self, now: SimTime) {
        self.inner.on_clock(now);
    }
}

/// The two stubs, the first and the last, that originate one prefix under
/// a two-origin MOAS list.
fn moas_list(graph: &AsGraph) -> MoasList {
    let stubs = graph.stub_asns();
    [stubs[0], stubs[stubs.len() - 1]].into_iter().collect()
}

/// Both members of `graph`'s [`moas_list`] originate under it, and the
/// network converges.
fn originate_moas<M: RouteMonitor + Send + 'static>(net: &mut Network<M>, graph: &AsGraph) {
    let list = moas_list(graph);
    for origin in &list {
        net.originate(origin, prefix(), Some(list.clone()));
    }
    net.run().expect("converges");
}

fn prefix() -> Ipv4Prefix {
    "208.8.0.0/16".parse().expect("valid prefix")
}

#[test]
fn scale_free_exports_round_trip_through_the_codec() {
    let graph = ScaleFreeModel::new().as_count(5_000).build(9107);
    let mut net = Network::with_monitor(&graph, WireRoundTrip::new(NoopMonitor));
    originate_moas(&mut net, &graph);
    let monitor = net.monitor();
    // Pinned, so a change that stops routing exports through the hook
    // fails here instead of checking nothing.
    assert_eq!(monitor.checked, 16_396);
    assert_eq!(monitor.replaced, 0);
    // Every export carries the list: nothing strips it in plain BGP.
    assert_eq!(monitor.listed_on_wire, monitor.checked);
}

#[test]
fn four_byte_members_round_trip_under_full_deployment() {
    // ASNs run past 65,535, so the last stub's membership rides in a large
    // community; with the list intact no monitor may raise an alarm.
    let graph = ScaleFreeModel::new().as_count(65_600).build(9107);
    let list = moas_list(&graph);
    assert!(list.iter().any(|asn| asn.0 > 65_535), "{list}");
    let mut registry = RegistryVerifier::new();
    registry.register(prefix(), list);
    let monitor = WireRoundTrip::new(MoasMonitor::full(registry));
    let mut net = Network::with_monitor(&graph, monitor);
    originate_moas(&mut net, &graph);
    let monitor = net.monitor();
    assert!(monitor.checked > 0);
    assert_eq!(monitor.listed_on_wire, monitor.checked);
    let alarms = monitor.inner.alarms();
    assert!(alarms.is_empty(), "{} alarms", alarms.len());
}

#[test]
fn rewritten_and_stripped_communities_round_trip_through_the_codec() {
    let graph = PaperTopology::As46.graph();
    let transits = graph.transit_asns();
    let mut map = CommunityPolicyMap::new();
    for (i, &asn) in transits.iter().enumerate() {
        match i % 3 {
            0 => map.set(asn, CommunityPolicy::StripMoas),
            1 => map.set(asn, CommunityPolicy::Rewrite),
            _ => {}
        }
    }
    let monitor = WireRoundTrip::new(CommunityPolicies::wrapping(map, NoopMonitor));
    let mut net = Network::with_monitor(graph, monitor);
    originate_moas(&mut net, graph);
    let monitor = net.monitor();
    assert!(monitor.checked > 0);
    assert_eq!(monitor.replaced, monitor.inner.modified_count());
    assert!(
        monitor.rewritten_on_wire > 0,
        "rewritten routes cross the wire"
    );
    assert!(
        monitor.listed_on_wire > 0 && monitor.listed_on_wire < monitor.checked,
        "stripping removes the list from some exports only"
    );
}
