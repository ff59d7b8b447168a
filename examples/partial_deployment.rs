//! Experiment 3 in miniature: partial vs complete deployment of MOAS
//! checking (Figure 11), on the 46-AS and 63-AS topologies.
//!
//! Run with: `cargo run --release --example partial_deployment`
//! Pass `--full` for the paper's complete protocol.

use moas::experiments::{experiment3, Exec, SweepConfig};
use moas::topology::paper::PaperTopology;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let config = if full {
        SweepConfig::paper()
    } else {
        SweepConfig::quick()
    };
    for topology in [PaperTopology::As46, PaperTopology::As63] {
        let (figure, _) = experiment3(topology, &config, Exec::serial());
        println!("{figure}");

        // §5.4's observation: even 50% deployment protects the other nodes,
        // because capable nodes stop false routes from propagating through
        // them.
        let rows = figure.series[0].points.len();
        if rows > 0 {
            let last = rows - 1;
            let normal = figure.series[0].points[last].mean_adoption_pct;
            let half = figure.series[1].points[last].mean_adoption_pct;
            let full_pct = figure.series[2].points[last].mean_adoption_pct;
            println!(
                "{topology} at the highest attacker fraction: none {normal:.1}% / half {half:.1}% / full {full_pct:.1}%",
            );
            if normal > 0.0 {
                println!(
                    "  half deployment removes {:.0}% of the damage\n",
                    100.0 * (normal - half) / normal
                );
            }
        }
    }
}
