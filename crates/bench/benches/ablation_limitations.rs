//! Ablations for the §4.3 limitations: sub-prefix hijacks, community
//! handling classes, list-forgery strategies, and unresolved-verifier policies.

use as_topology::paper::PaperTopology;
use experiments::{
    community_policy_ablation, forgery_ablation, moas_list_overhead, subprefix_ablation,
    unresolved_policy_ablation, valley_free_ablation, Exec, WireModel,
};
use route_measurement::{generate_timeline, TimelineConfig};

fn regenerate_tables() -> String {
    let graph = PaperTopology::As46.graph();
    let mut out = String::new();

    let sub = subprefix_ablation(graph, 10, 0xAB1, 1);
    out.push_str(
        "## ablation-subprefix — §4.3 limitation: more-specific prefix hijack (full deployment)\n",
    );
    out.push_str(&format!(
        "   sub-prefix hijack adoption: {:>6.1}%   alarms: {:.1}  (detection blind, as §4.3 predicts)\n",
        sub.subprefix_adoption_pct, sub.subprefix_alarms
    ));
    out.push_str(&format!(
        "   exact-prefix attack adoption: {:>4.1}%   (same parties, caught by the MOAS list)\n\n",
        sub.exact_prefix_adoption_pct
    ));

    out.push_str(
        "## ablation-community-policy — §4.3 hazard: transit community handling classes\n",
    );
    out.push_str("   class          adoption%   false-alarms   confirmed-alarms\n");
    for p in community_policy_ablation(graph, 10, 0xAB6, Exec::serial()).0 {
        out.push_str(&format!(
            "   {:<12} {:>10.2} {:>13.1} {:>17.1}\n",
            p.policy, p.mean_adoption_pct, p.mean_false_alarms, p.mean_confirmed_alarms
        ));
    }
    out.push('\n');

    out.push_str("## ablation-forgery — attacker list-forgery strategies (full deployment)\n");
    out.push_str("   strategy                 adoption%   alarms\n");
    for p in forgery_ablation(graph, 10, 0xAB3, Exec::serial()).0 {
        out.push_str(&format!(
            "   {:<24} {:>8.2} {:>8.1}\n",
            p.forgery, p.mean_adoption_pct, p.mean_alarms
        ));
    }
    out.push('\n');

    out.push_str("## ablation-unresolved — policy when the MOASRR lookup returns nothing\n");
    for (label, adoption) in unresolved_policy_ablation(graph, 10, 0xAB4, 1) {
        out.push_str(&format!("   {label:<24} adoption {adoption:>6.2}%\n"));
    }
    out.push('\n');

    out.push_str("## ablation-valley-free — does detection survive Gao-Rexford policy routing?\n");
    out.push_str("   routing        normal-BGP%   full-MOAS%   suppressed-ads\n");
    for p in valley_free_ablation(10, 0xAB5, 1) {
        out.push_str(&format!(
            "   {:<14} {:>10.2} {:>12.2} {:>14.1}\n",
            p.routing, p.normal_adoption_pct, p.moas_adoption_pct, p.mean_suppressed
        ));
    }
    out.push('\n');

    out.push_str("## overhead — §4.3 cost of attaching MOAS lists (calibrated table)\n");
    let timeline = generate_timeline(&TimelineConfig::paper().with_days(30));
    let report = moas_list_overhead(timeline.dumps.last().unwrap(), WireModel::default());
    out.push_str(&format!("   {report}\n"));
    out.push_str(&format!(
        "   against a 100k-route 2001 table: {:.4}% added\n",
        100.0 * report.added_bytes as f64 / (100_000.0 * 36.0)
    ));
    out
}

fn main() {
    bench::print_figure(
        "Ablations — §4.3 limitations and design choices",
        &regenerate_tables(),
    );

    let graph = PaperTopology::As25.graph();
    bench::time_once("ablation/subprefix_3runs_25as", || {
        subprefix_ablation(graph, 3, 1, 1)
    });
    bench::time_once("ablation/forgery_3runs_25as", || {
        forgery_ablation(graph, 3, 1, Exec::serial())
    });
}
