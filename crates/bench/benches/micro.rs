//! Micro-benchmarks of the building blocks: MOAS-list checking, the BGP
//! decision pipeline, topology generation and derivation, and full-network
//! convergence.

use as_topology::{derive, infer_graph, InternetModel, RouteTable};
use bgp_engine::Network;
use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
use moas_core::find_conflict;

fn bench_moas_check() {
    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().unwrap();
    let list: MoasList = [Asn(1), Asn(2), Asn(3)].into_iter().collect();
    let incoming = Route::new(prefix, AsPath::origination(Asn(1))).with_moas_list(list.clone());
    let existing: Vec<(Option<Asn>, Route)> = (0..8)
        .map(|i| {
            (
                Some(Asn(100 + i)),
                Route::new(prefix, AsPath::origination(Asn(2))).with_moas_list(list.clone()),
            )
        })
        .collect();

    bench::time_once("moas_check_consistent_8_existing", || {
        find_conflict(&incoming, &existing)
    });

    let forged = Route::new(prefix, AsPath::origination(Asn(66)))
        .with_moas_list([Asn(1), Asn(2), Asn(3), Asn(66)].into_iter().collect());
    bench::time_once("moas_check_conflicting_8_existing", || {
        find_conflict(&forged, &existing)
    });
}

fn bench_list_encoding() {
    let list: MoasList = (1..=3).map(Asn).collect();
    bench::time_once("moas_list_encode_decode_3", || {
        let communities = list.to_communities();
        MoasList::from_communities(&communities)
    });
}

fn bench_topology_pipeline() {
    let model = InternetModel::new().transit_count(20).stub_count(150);
    bench::time_once("internet_model_build_170", || model.build(1));

    let truth = model.build(1);
    bench::time_once("route_table_synthesize_3_vantages", || {
        RouteTable::synthesize(&truth, &[0, 5, 10], 1)
    });

    let table = RouteTable::synthesize(&truth, &[0, 5, 10], 1);
    bench::time_once("infer_graph_from_table", || infer_graph(table.entries()));

    let inferred = infer_graph(table.entries());
    bench::time_once("derive_pipeline_30pct", || derive(&inferred, 0.3, 1));
}

fn bench_convergence() {
    let graph = InternetModel::new()
        .transit_count(15)
        .stub_count(85)
        .build(3);
    let victim = graph.stub_asns()[0];
    let prefix = as_topology::prefix_for_asn(victim);
    bench::time_once("bgp_convergence_100as_single_origin", || {
        let mut net = Network::new(&graph);
        net.originate(victim, prefix, None);
        net.run().unwrap();
        net.stats().total_messages()
    });
}

fn main() {
    bench_moas_check();
    bench_list_encoding();
    bench_topology_pipeline();
    bench_convergence();
}
