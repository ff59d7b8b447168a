//! Experiment 1 in miniature: sweep attacker fractions on the 46-AS topology
//! and print the Figure 9 table (Normal BGP vs Full MOAS Detection).
//!
//! Run with: `cargo run --release --example hijack_detection`
//! Pass `--full` for the paper's complete 15-runs-per-point protocol.

use moas::experiments::{experiment1, Exec, SweepConfig};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let config = if full {
        SweepConfig::paper()
    } else {
        SweepConfig::quick()
    };
    println!(
        "Reproducing Figure 9 ({} protocol: {} runs per point)...\n",
        if full { "paper" } else { "quick" },
        config.runs_per_point()
    );
    for origins in [1, 2] {
        let (figure, _) = experiment1(origins, &config, Exec::serial());
        println!("{figure}");
        // Headline check from §5.2: detection cuts adoption by orders of
        // magnitude at low attacker fractions.
        let normal_low = figure.series[0].points.first().map(|p| p.mean_adoption_pct);
        let moas_low = figure.series[1].points.first().map(|p| p.mean_adoption_pct);
        if let (Some(n), Some(m)) = (normal_low, moas_low) {
            println!(
                "At the lowest attacker fraction: Normal BGP {n:.2}% vs Full MOAS {m:.2}% adopted false routes\n"
            );
        }
    }
}
