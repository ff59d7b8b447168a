//! `moas-lab` — command-line front end for the MOAS reproduction.
//!
//! Every figure and study in the repository is reachable from here without
//! writing code:
//!
//! ```console
//! $ moas-lab figures --quick     # Experiments 1-3 (Figures 9-11)
//! $ moas-lab measure             # The §3 study (Figures 4-5)
//! $ moas-lab topology 46         # Inspect a canonical topology
//! $ moas-lab trial --attackers 5 # One simulation run, in detail
//! $ moas-lab ablations           # §4.3-§4.4 limitation studies
//! $ moas-lab overhead            # §4.3 list-size overhead
//! $ moas-lab chaos --scenario failover   # Detector accuracy under churn/faults
//! $ moas-lab export-mrt --out d.mrt   # Simulate and export MRT table dumps
//! $ moas-lab import-mrt d.mrt         # Re-analyze any IPv4 MRT table dump
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use moas::bgp::CommunityPolicy;
use moas::detection::{Deployment, OfflineMonitor};
use moas::experiments::{
    community_policy_ablation, draw_parties, experiment1, experiment2, experiment3,
    forgery_ablation, measure_moas_list_overhead, measured_list_bytes, moas_list_overhead,
    overhead_snapshot, parse_snapshot, render_metrics_summary, run_chaos, run_deployment_sweep,
    run_ensemble, run_session_chaos, run_trial_with, subprefix_ablation,
    unresolved_policy_ablation, valley_free_ablation, ChaosConfig, ChaosScenario, EnsembleConfig,
    Exec, FigureReport, SessionChaosConfig, SessionChaosScenario, SweepConfig, TrialConfig,
};
use moas::measurement::{
    daily_moas_counts, duration_histogram, generate_timeline, median, DailyDumpStream,
    MeasurementSummary, OriginEventTracker, TimelineConfig,
};
use moas::metrics::MetricsSnapshot;
use moas::topology::paper::PaperTopology;
use moas::topology::GraphMetrics;
use moas::types::{AsPath, Asn, Ipv4Prefix, MoasList, Route, Update};
use moas::wire::mrt::MrtWriter;
use moas::wire::{export_rib_snapshot, export_update_stream};

const USAGE: &str = "\
moas-lab — reproduction of 'Detection of Invalid Routing Announcement in the Internet' (DSN 2002)

USAGE:
    moas-lab <COMMAND> [OPTIONS]

COMMANDS:
    figures [--quick] [--jobs N] [--shards N]
                                    Regenerate Figures 9-11 (default: full paper protocol)
    measure [--days N]              Run the §3 measurement study (Figures 4-5)
    topology <25|46|63>             Show a canonical experiment topology
    trial [--topology N] [--attackers N] [--origins N] [--deployment full|half|none] [--seed S]
          [--jobs N] [--shards N]   Run one simulation trial and print the outcome
    ablations [--jobs N] [--shards N]
                                    Run the §4.3-§4.4 limitation studies
    overhead [--jobs N]             Measure the MOAS-list table overhead
    chaos --scenario NAME [--trials N] [--seed S] [--jobs N] [--shards N] [--quick] [--out FILE]
                                    Replay a fault/churn scenario (failover, origin-flap,
                                    lossy-core, session-reset, flap-storm, mrai-deferral)
                                    and report the MOAS detector's accuracy under it as JSON.
                                    Session-layer scenarios (session-hold-expiry,
                                    session-notification-storm, session-capability-mismatch,
                                    session-tcp-reset, session-corruption) replay seeded fault
                                    campaigns against live RFC 4271 FSM pairs instead and
                                    report recovery/delivery rates (same flags minus
                                    --shards and --metrics)
    chaos --scenario NAME --deployment-sweep [--fractions a,b,c] ...
                                    Same scenario at several detector deployment
                                    fractions (default 0,0.25,0.5,0.75,1): accuracy
                                    vs partial deployment under churn
    ensemble [--quick] [--trials N] [--seed S] [--jobs N] [--out FILE] [--metrics FILE]
             [--dwell N] [--sibling-fraction F]
             [--community-policy propagate|strip-moas|strip-all|rewrite]
                                    Run three detectors (moas-list, flap-damping,
                                    communities-anomaly) over identical recorded trial
                                    streams: the failover / origin-flap / session-reset
                                    chaos workloads plus a long-lived legitimate MOAS
                                    workload (anycast groups, sibling pairs, CDN handoff
                                    every --dwell ticks), with a deployment sweep; one
                                    JSON report comparing false alarms, latency and
                                    misses per detector
    metrics-summary FILE            Render a --metrics snapshot as a readable table

    figures, ablations, overhead, ensemble and chaos (but not its
    session-layer scenarios) accept --metrics FILE: write a JSON metrics
    snapshot (event counts, per-session update counters, convergence
    histograms, per-link fault stats) alongside the report. A flag the
    command does not read is an error.
    --jobs N defaults to the available hardware parallelism; results —
    including --metrics snapshots — are bit-identical for every N (trials
    fan out, aggregation order is fixed).
    --shards N (default 1) partitions each trial's AS graph into N shards
    driven in lockstep, with one trial at a time fanned over the worker pool
    (intra-trial parallelism). Output is bit-identical for every
    --shards/--jobs pair.
    export-mrt --out FILE [--days N] [--topology N] [--seed S]
                                    Simulate a network and export daily RIB snapshots
                                    (and the day's update stream) as RFC 6396 MRT
    import-mrt FILE [--offline-scan]
                                    Import MRT table dumps and report daily MOAS counts
                                    (streams one day at a time)
    session-replay --mrt FILE --bgp ADDR [--asn N] [--hold N] [--limit N]
                                    Stream an MRT archive's routes through a live BGP
                                    session into a running moas-labd --bgp listener
                                    (RIB snapshot entries replay as announcements,
                                    BGP4MP records as-is)
    daemon-probe --http ADDR --feed ADDR [--prefix P --asn N] [--read-only]
                 [--connect-attempts N]
                                    Drive a full round against a running moas-labd:
                                    status, a validity query, feed full-sync, an
                                    ingest + diff-sync + cache-reset exercise (the
                                    probe announces and withdraws 203.0.113.0/24 so
                                    the table is left unchanged), and /metrics;
                                    connects up to N times (default 3)
    help                            Show this message
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let checked = check_flags(command, &args).and_then(|()| check_value_flags(&args));
    if let Err(message) = checked {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }
    match command {
        "figures" => figures(&args),
        "measure" => measure(&args),
        "topology" => topology(&args),
        "trial" => trial(&args),
        "ablations" => ablations(&args),
        "overhead" => overhead(&args),
        "chaos" => chaos(&args),
        "ensemble" => ensemble(&args),
        "metrics-summary" => metrics_summary(&args),
        "export-mrt" => export_mrt(&args),
        "import-mrt" => import_mrt(&args),
        "daemon-probe" => daemon_probe(&args),
        "session-replay" => session_replay(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn option<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let idx = args.iter().position(|a| a == name)?;
    args.get(idx + 1)?.parse().ok()
}

fn parses<T: std::str::FromStr>(value: &str) -> bool {
    value.parse::<T>().is_ok()
}

fn is_fraction(value: &str) -> bool {
    value.parse::<f64>().is_ok_and(|f| (0.0..=1.0).contains(&f))
}

const COUNT: &str = "a non-negative integer";

/// A flag's name, what its value must be, and the check that it is.
type ValueFlag = (&'static str, &'static str, fn(&str) -> bool);

/// Every flag that takes a value, wherever it appears; the check is the type
/// the command reads the value as, or a known variant name.
const VALUE_FLAGS: &[ValueFlag] = &[
    ("--jobs", COUNT, parses::<usize>),
    ("--shards", COUNT, parses::<usize>),
    ("--trials", COUNT, parses::<usize>),
    ("--seed", COUNT, parses::<u64>),
    ("--attackers", COUNT, parses::<usize>),
    ("--origins", COUNT, parses::<usize>),
    ("--days", COUNT, parses::<u32>),
    ("--dwell", COUNT, parses::<u64>),
    ("--limit", COUNT, parses::<u64>),
    ("--connect-attempts", COUNT, parses::<u32>),
    ("--asn", "an AS number", parses::<u32>),
    ("--hold", "a hold time of 0..=65535 seconds", parses::<u16>),
    ("--sibling-fraction", "a fraction in 0..=1", is_fraction),
    ("--fractions", "comma-separated fractions in 0..=1", |v| {
        v.split(',').all(is_fraction)
    }),
    ("--topology", "25, 46 or 63", |v| {
        parse_topology(v).is_some()
    }),
    ("--deployment", "full, half or none", |v| {
        matches!(v, "full" | "half" | "none")
    }),
    ("--scenario", "a chaos scenario name (see help)", |v| {
        parses::<ChaosScenario>(v) || parses::<SessionChaosScenario>(v)
    }),
    (
        "--community-policy",
        "propagate, strip-moas, strip-all or rewrite",
        parses::<CommunityPolicy>,
    ),
    ("--prefix", "an IPv4 prefix", parses::<Ipv4Prefix>),
    ("--http", "HOST:PORT", parses::<std::net::SocketAddr>),
    ("--feed", "HOST:PORT", parses::<std::net::SocketAddr>),
    ("--bgp", "HOST:PORT", parses::<std::net::SocketAddr>),
    ("--out", "a file path", |_| true),
    ("--metrics", "a file path", |_| true),
    ("--mrt", "a file path", |_| true),
];

/// The flags each command reads, space-separated. `chaos` has three rows —
/// its network scenarios, their deployment sweep and the session-layer
/// scenarios — each named as the error messages name it ([`command_row`]).
/// A `--` argument in no row is an unknown flag.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("figures", "--quick --jobs --shards --metrics"),
    ("measure", "--days"),
    ("topology", ""),
    (
        "trial",
        "--topology --attackers --origins --deployment --seed --jobs --shards",
    ),
    ("ablations", "--jobs --shards --metrics"),
    ("overhead", "--jobs --metrics"),
    (
        "chaos",
        "--scenario --trials --seed --jobs --shards --quick --out --metrics",
    ),
    (
        "chaos --deployment-sweep",
        "--scenario --deployment-sweep --fractions --trials --seed --jobs --shards --quick --out \
         --metrics",
    ),
    (
        "the session-layer chaos scenarios",
        "--scenario --trials --seed --jobs --quick --out",
    ),
    (
        "ensemble",
        "--quick --trials --seed --jobs --out --metrics --dwell --sibling-fraction \
         --community-policy",
    ),
    ("metrics-summary", ""),
    ("export-mrt", "--out --days --topology --seed"),
    ("import-mrt", "--offline-scan"),
    (
        "daemon-probe",
        "--http --feed --prefix --asn --read-only --connect-attempts",
    ),
    ("session-replay", "--mrt --bgp --asn --hold --limit"),
    ("help", ""),
];

/// The [`COMMAND_FLAGS`] row that `command` with these arguments runs as.
fn command_row<'a>(command: &'a str, args: &[String]) -> &'a str {
    match command {
        "chaos" if option::<SessionChaosScenario>(args, "--scenario").is_some() => {
            "the session-layer chaos scenarios"
        }
        "chaos" if flag(args, "--deployment-sweep") => "chaos --deployment-sweep",
        other => other,
    }
}

/// A flag a command does not read would otherwise be ignored: `figures
/// --quik` ran the full protocol, `trial --metrics t.json` wrote nothing and
/// `chaos --fractions 0.5` without `--deployment-sweep` dropped the
/// fractions. Rejects any `--` argument after the command, other than a
/// value flag's value, that is in no [`COMMAND_FLAGS`] row, or not in the
/// command's row.
fn check_flags(command: &str, args: &[String]) -> Result<(), String> {
    let row = command_row(command, args);
    let reads = |flags: &str, arg: &str| flags.split_whitespace().any(|flag| flag == arg);
    let row_flags = COMMAND_FLAGS
        .iter()
        .find(|&&(name, _)| name == row)
        .map(|&(_, flags)| flags);
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.iter().any(|&(name, ..)| name == arg) {
            rest.next();
        } else if !arg.starts_with("--") {
            continue;
        }
        if !COMMAND_FLAGS.iter().any(|&(_, flags)| reads(flags, arg)) {
            return Err(format!("unknown flag {arg:?}"));
        }
        if row_flags.is_some_and(|flags| !reads(flags, arg)) {
            return Err(format!("{arg} does not apply to {row}"));
        }
    }
    Ok(())
}

/// [`option`] treats a value that fails to parse like an absent flag, which
/// would turn `--shards two` into a silent one-shard run and `--deployment
/// ful` into full deployment; reject such values up front instead, and
/// `--shards 0`, which names no layout.
fn check_value_flags(args: &[String]) -> Result<(), String> {
    for &(name, expects, valid) in VALUE_FLAGS {
        let Some(idx) = args.iter().position(|a| a == name) else {
            continue;
        };
        match args.get(idx + 1) {
            Some(value) if valid(value) => {}
            Some(value) => return Err(format!("{name} expects {expects}, got {value:?}")),
            None => return Err(format!("{name} expects a value")),
        }
    }
    for name in ["--shards", "--connect-attempts"] {
        if option::<u64>(args, name) == Some(0) {
            return Err(format!("{name} expects a positive integer, got 0"));
        }
    }
    Ok(())
}

/// `--jobs N`, defaulting to the available hardware parallelism.
fn jobs_option(args: &[String]) -> usize {
    option(args, "--jobs").unwrap_or_else(minipool::available_jobs)
}

/// The one [`Exec`] a command runs under, from `--jobs/--shards/--metrics`.
fn exec_option(args: &[String]) -> Exec {
    Exec {
        jobs: jobs_option(args),
        shards: option(args, "--shards").unwrap_or(1),
        metrics: metrics_path(args).is_some(),
    }
}

/// Prints a JSON report, or writes it to the `--out FILE` path if given.
fn emit_json(args: &[String], json: String, what: &str) -> ExitCode {
    match option::<String>(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("{what} written to {path}");
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}

/// Applies the `--trials N` / `--seed S` overrides every campaign takes.
fn campaign_overrides(args: &[String], trials: &mut usize, seed: &mut u64) {
    if let Some(n) = option(args, "--trials") {
        *trials = n;
    }
    if let Some(s) = option(args, "--seed") {
        *seed = s;
    }
}

/// `--metrics FILE`.
fn metrics_path(args: &[String]) -> Option<String> {
    option(args, "--metrics")
}

/// Writes the snapshot as pretty JSON to the `--metrics FILE` path, if the
/// flag was given; reports failure on stderr.
fn write_metrics(args: &[String], snapshot: &MetricsSnapshot) -> bool {
    let Some(path) = metrics_path(args) else {
        return true;
    };
    let json = moas::experiments::json::to_string_pretty(snapshot);
    match std::fs::write(&path, json + "\n") {
        Ok(()) => {
            println!("metrics snapshot written to {path}");
            true
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            false
        }
    }
}

fn figures(args: &[String]) -> ExitCode {
    let config = if flag(args, "--quick") {
        SweepConfig::quick()
    } else {
        SweepConfig::paper()
    };
    let exec = exec_option(args);
    println!(
        "Protocol: {} runs per point, fractions {:?}, {} worker thread{}\n",
        config.runs_per_point(),
        config.attacker_fractions,
        exec.jobs,
        if exec.jobs == 1 { "" } else { "s" }
    );
    let mut metrics = MetricsSnapshot::new();
    let mut show = |(fig, m): (FigureReport, MetricsSnapshot)| {
        println!("{fig}");
        metrics.merge(&m);
    };
    for origins in [1, 2] {
        show(experiment1(origins, &config, exec));
    }
    for origins in [1, 2] {
        show(experiment2(origins, &config, exec));
    }
    for topology in [PaperTopology::As46, PaperTopology::As63] {
        show(experiment3(topology, &config, exec));
    }
    if write_metrics(args, &metrics) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn measure(args: &[String]) -> ExitCode {
    let days = option::<u32>(args, "--days");
    let period = |config: TimelineConfig| match days {
        Some(days) => config.with_days(days),
        None => config,
    };
    let config = period(TimelineConfig::paper());
    println!("Generating {} daily dumps...", config.days);
    let timeline = generate_timeline(&config);
    let counts = daily_moas_counts(&timeline.dumps);
    let year = 365.min(counts.len());
    println!(
        "daily MOAS count: median {:.0} (first {year} days) -> {:.0} (last {year} days)",
        median(&counts[..year]),
        median(&counts[counts.len() - year..])
    );
    println!("{}", MeasurementSummary::compute(&timeline.dumps));

    println!("\nFigure 4: daily MOAS cases per window (paper: median 683 in 1998 -> 1294 in 2001)");
    println!("   window             median    min    max");
    for (label, start, end) in [
        ("1997-11..1998-11", 0, 365),
        ("1998-11..1999-11", 365, 730),
        ("1999-11..2000-11", 730, 1096),
        ("2000-11..2001-07", 1096, counts.len()),
    ] {
        let window = &counts[start.min(counts.len())..end.min(counts.len())];
        if let (Some(min), Some(max)) = (window.iter().min(), window.iter().max()) {
            println!("   {label:<18} {:>6.0} {min:>6} {max:>6}", median(window));
        }
    }
    if let Some(count) = counts.get(150) {
        println!("   day 150 (1998-04-07, AS 8584): {count} cases");
    }
    if let Some(&count) = counts.get(1245) {
        println!(
            "   day 1245 (2001-04-06, AS 15412): {count} cases, event share {:.1}% (paper: 5532/6627 = 83.5%)",
            100.0 * 5532.0 / count as f64
        );
    }

    // The one-day statistics predate the 2001 event; see `duration_study`.
    let study = period(TimelineConfig::duration_study());
    let dumps = generate_timeline(&study).dumps;
    let histogram = duration_histogram(&dumps);
    println!("\nFigure 5: duration of MOAS cases, 1998 fault only (log-binned)");
    println!("   duration (days)      cases");
    let mut lo = 1;
    while lo <= study.days {
        let hi = lo.saturating_mul(4).min(study.days + 1);
        let cases: usize = histogram.range(lo..hi).map(|(_, &n)| n).sum();
        println!("   {lo:>6} - {:<6} {cases:>10}", hi - 1);
        lo = hi;
    }
    let summary = MeasurementSummary::compute(&dumps);
    println!(
        "   one-day cases: {} of {} = {:.1}% (paper: 1373 = 35.9%)",
        summary.one_day_cases,
        summary.total_cases,
        100.0 * summary.one_day_fraction
    );
    println!(
        "   {:.1}% of them on the day-{} spike (paper: 82.7% on 1998-04-07)",
        100.0 * summary.one_day_spike_fraction(),
        summary.spike_day
    );
    ExitCode::SUCCESS
}

fn parse_topology(size: &str) -> Option<PaperTopology> {
    match size {
        "25" => Some(PaperTopology::As25),
        "46" => Some(PaperTopology::As46),
        "63" => Some(PaperTopology::As63),
        _ => None,
    }
}

/// `--topology 25|46|63`, defaulting to the 46-AS topology.
fn topology_option(args: &[String]) -> PaperTopology {
    option::<String>(args, "--topology")
        .and_then(|s| parse_topology(&s))
        .unwrap_or(PaperTopology::As46)
}

fn topology(args: &[String]) -> ExitCode {
    let Some(topology) = args.get(1).and_then(|s| parse_topology(s)) else {
        eprintln!("usage: moas-lab topology <25|46|63>");
        return ExitCode::FAILURE;
    };
    let graph = topology.graph();
    println!("{topology} topology: {}", GraphMetrics::compute(graph));
    println!("transit ASes: {:?}", graph.transit_asns());
    println!("stub ASes:    {:?}", graph.stub_asns());
    println!("links:");
    for (a, b) in graph.links() {
        println!("  {a} <-> {b}");
    }
    ExitCode::SUCCESS
}

fn trial(args: &[String]) -> ExitCode {
    let topology = topology_option(args);
    let graph = topology.graph();
    let attackers: usize = option(args, "--attackers").unwrap_or(2);
    let origins: usize = option(args, "--origins").unwrap_or(1);
    let seed: u64 = option(args, "--seed").unwrap_or(1);
    let deployment = match option::<String>(args, "--deployment").as_deref() {
        Some("none") => Deployment::None,
        Some("half") => {
            let asns: Vec<Asn> = graph.asns().collect();
            Deployment::sample(&asns, 0.5, seed)
        }
        _ => Deployment::Full,
    };

    let (origin_set, attacker_set) = draw_parties(graph, seed, origins, attackers);

    println!("{topology} topology, {deployment}");
    println!("origins:   {origin_set:?}");
    println!("attackers: {attacker_set:?}");

    let config = TrialConfig {
        seed,
        ..TrialConfig::new(origin_set, attacker_set, deployment)
    };
    let exec = Exec {
        metrics: false,
        ..exec_option(args)
    };
    let (outcome, _) = run_trial_with(graph, &config, exec);
    println!(
        "\n{} of {} remaining ASes adopted a false route ({:.2}%)",
        outcome.adopted_false,
        outcome.eligible,
        100.0 * outcome.adoption_fraction()
    );
    println!(
        "alarms: {} ({} confirmed, {} false); verifier queries: {}; messages: {}",
        outcome.alarms,
        outcome.confirmed_alarms,
        outcome.false_alarms,
        outcome.verifier_queries,
        outcome.messages
    );
    ExitCode::SUCCESS
}

fn ablations(args: &[String]) -> ExitCode {
    let graph = PaperTopology::As46.graph();
    let exec = exec_option(args);
    let mut metrics = MetricsSnapshot::new();

    let (sub, m) = subprefix_ablation(graph, 10, 0xAB1, exec);
    metrics.merge(&m);
    println!("sub-prefix hijack (full MOAS deployment):");
    println!(
        "  control-plane adoption {:.1}%, data-plane traffic capture {:.1}%, alarms {:.1}",
        sub.subprefix_adoption_pct, sub.subprefix_traffic_capture_pct, sub.subprefix_alarms
    );
    println!(
        "  same attacker on the exact prefix: {:.1}% adoption\n",
        sub.exact_prefix_adoption_pct
    );

    println!("community handling classes (all transit ASes):");
    let (policy_points, m) = community_policy_ablation(graph, 8, 0xAB6, exec);
    metrics.merge(&m);
    for p in policy_points {
        println!(
            "  {:<12} adoption {:.2}%, false alarms {:.1}, confirmed {:.1}",
            p.policy, p.mean_adoption_pct, p.mean_false_alarms, p.mean_confirmed_alarms
        );
    }

    println!("\nlist forgery strategies:");
    let (forgery, m) = forgery_ablation(graph, 8, 0xAB3, exec);
    metrics.merge(&m);
    for p in forgery {
        println!(
            "  {:<24} adoption {:.2}%, alarms {:.1}",
            p.forgery, p.mean_adoption_pct, p.mean_alarms
        );
    }

    println!("\nvalley-free policy routing:");
    let (valley_free, m) = valley_free_ablation(8, 0xAB5, exec);
    metrics.merge(&m);
    for p in valley_free {
        println!(
            "  {:<12} normal {:.2}% / full MOAS {:.2}% (suppressed ads {:.0})",
            p.routing, p.normal_adoption_pct, p.moas_adoption_pct, p.mean_suppressed
        );
    }

    println!("\nunresolved verification (no MOASRR record published):");
    let (unresolved, m) = unresolved_policy_ablation(graph, 10, 0xAB4, exec);
    metrics.merge(&m);
    for (policy, adoption) in unresolved {
        println!("  {policy:<24} adoption {adoption:.2}%");
    }
    if write_metrics(args, &metrics) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replays a fault/churn scenario and prints the detector-accuracy report.
///
/// The output deliberately omits the worker count: the report is
/// bit-identical for every `--jobs N`, and so is this command's stdout.
fn chaos(args: &[String]) -> ExitCode {
    // Session-layer scenario names route to the FSM-pair campaigns.
    if let Some(scenario) = option::<SessionChaosScenario>(args, "--scenario") {
        return session_chaos(args, scenario);
    }
    let Some(scenario) = option::<ChaosScenario>(args, "--scenario") else {
        eprintln!(
            "usage: moas-lab chaos --scenario <failover|origin-flap|lossy-core|session-reset|flap-storm|mrai-deferral\
             |session-hold-expiry|session-notification-storm|session-capability-mismatch|session-tcp-reset|session-corruption> \
             [--trials N] [--seed S] [--jobs N] [--shards N] [--quick] [--out FILE] [--metrics FILE]"
        );
        return ExitCode::FAILURE;
    };
    let mut config = if flag(args, "--quick") {
        ChaosConfig::quick(scenario)
    } else {
        ChaosConfig::new(scenario)
    };
    campaign_overrides(args, &mut config.trials, &mut config.seed);

    if flag(args, "--deployment-sweep") {
        return chaos_deployment_sweep(args, &config);
    }

    let (report, metrics) = run_chaos(&config, exec_option(args));
    if !write_metrics(args, &metrics) {
        return ExitCode::FAILURE;
    }
    println!(
        "scenario {}: {} trials, seed {:#x}",
        report.scenario, report.trials, report.seed
    );
    println!(
        "false alarms: rate {:.3}, mean {:.2} per churn-only trial",
        report.false_alarm_rate, report.mean_false_alarms
    );
    println!(
        "detection: {} trials detected, missed rate {:.3}, mean latency {:.1} ticks",
        report.detected_trials, report.missed_detection_rate, report.mean_detection_latency_ticks
    );
    println!(
        "oscillation: {} trials (mean cycle {:.1} events)",
        report.oscillating_trials, report.mean_cycle_len
    );
    println!(
        "faults per trial: {:.1} dropped, {:.1} corrupted, {:.1} duplicated, {:.1} reordered; {:.0} messages",
        report.mean_dropped,
        report.mean_corrupted,
        report.mean_duplicated,
        report.mean_reordered,
        report.mean_messages
    );
    println!(
        "mrai: {:.1} updates deferred per churn-only trial",
        report.mean_mrai_deferred
    );
    emit_json(args, report.to_json(), "report")
}

/// Runs the partial-deployment sweep branch of `moas-lab chaos`: the same
/// scenario (same casts, same fault plans) at several detector deployment
/// fractions, reporting accuracy vs coverage.
fn chaos_deployment_sweep(args: &[String], config: &ChaosConfig) -> ExitCode {
    let fractions: Vec<f64> = match option::<String>(args, "--fractions") {
        // Every element already parsed once, in `check_value_flags`.
        Some(list) => list.split(',').flat_map(str::parse).collect(),
        None => moas::experiments::DEPLOYMENT_SWEEP_FRACTIONS.to_vec(),
    };

    let (sweep, metrics) = run_deployment_sweep(config, &fractions, exec_option(args));
    if !write_metrics(args, &metrics) {
        return ExitCode::FAILURE;
    }
    println!(
        "scenario {}: {} trials per point, seed {:#x}",
        sweep.scenario, sweep.trials, sweep.seed
    );
    println!("deployment  false-alarm  missed   detected  latency(ticks)");
    for point in &sweep.points {
        let r = &point.report;
        println!(
            "   {:>5.0}%       {:>6.3}   {:>6.3}   {:>3}/{:<3}   {:>8.1}",
            100.0 * point.deployment_fraction,
            r.false_alarm_rate,
            r.missed_detection_rate,
            r.detected_trials,
            r.trials,
            r.mean_detection_latency_ticks
        );
    }
    emit_json(args, sweep.to_json(), "sweep")
}

/// Runs the detector ensemble: three detectors replayed over identical
/// recorded trial streams across the chaos and long-lived-MOAS workloads.
///
/// Like `chaos`, the output omits the worker count: report, metrics snapshot
/// and stdout are bit-identical for every `--jobs N`.
fn ensemble(args: &[String]) -> ExitCode {
    let mut config = if flag(args, "--quick") {
        EnsembleConfig::quick()
    } else {
        EnsembleConfig::new()
    };
    campaign_overrides(args, &mut config.trials, &mut config.seed);
    if let Some(dwell) = option::<u64>(args, "--dwell") {
        config.dwell_ticks = dwell;
    }
    if let Some(fraction) = option(args, "--sibling-fraction") {
        config.sibling_fraction = fraction;
    }
    if let Some(policy) = option::<CommunityPolicy>(args, "--community-policy") {
        config.policy = policy;
    }

    let (report, metrics) = run_ensemble(&config, jobs_option(args), metrics_path(args).is_some());
    if !write_metrics(args, &metrics) {
        return ExitCode::FAILURE;
    }

    println!(
        "ensemble: {} trials per workload, seed {:#x}, transit policy {}",
        report.trials, report.seed, report.policy
    );
    for workload in &report.workloads {
        println!("workload {}:", workload.workload);
        for d in &workload.detectors {
            println!(
                "  {:<20} false-alarm rate {:.3} (mean {:.2}), missed {:.3}, latency {:.1} ticks ({} detected)",
                d.detector,
                d.false_alarm_rate,
                d.mean_false_alarms,
                d.missed_detection_rate,
                d.mean_detection_latency_ticks,
                d.detected_trials
            );
        }
    }
    println!("deployment sweep (failover streams):");
    for point in &report.deployment {
        for d in &point.detectors {
            println!(
                "  {:>3.0}% {:<20} missed {:.3}, false-alarm rate {:.3}",
                100.0 * point.deployment_fraction,
                d.detector,
                d.missed_detection_rate,
                d.false_alarm_rate
            );
        }
    }

    emit_json(args, report.to_json(), "report")
}

/// The prefix each stub AS originates in the exported scenario.
fn stub_prefix(index: usize) -> Ipv4Prefix {
    Ipv4Prefix::new((10 << 24) | ((index as u32 + 1) << 16), 16)
}

/// Simulates a multihoming scenario on a canonical topology and exports one
/// MRT table snapshot per day, collected at every transit AS. Each stub
/// originates its own prefix; every day a seeded subset of stubs is also
/// announced by a partner stub (legitimate multihoming), so the collector
/// observes a fluctuating daily MOAS population — the shape of Figure 4.
fn export_mrt(args: &[String]) -> ExitCode {
    let Some(path) = option::<String>(args, "--out") else {
        eprintln!(
            "usage: moas-lab export-mrt --out FILE [--days N] [--topology 25|46|63] [--seed S]"
        );
        return ExitCode::FAILURE;
    };
    let days: u32 = option(args, "--days").unwrap_or(10);
    let seed: u64 = option(args, "--seed").unwrap_or(7);
    let topology = topology_option(args);
    let graph = topology.graph();
    let vantages = graph.transit_asns();
    let stubs = graph.stub_asns();

    let file = match File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = MrtWriter::new(BufWriter::new(file));
    let mut previous_active: Vec<bool> = vec![false; stubs.len()];

    for day in 0..days {
        // Which stubs are multihomed today (announced by a partner too).
        let mut rng =
            moas::types::rng::from_seed(moas::types::rng::derive_seed(seed, u64::from(day)));
        let active: Vec<bool> = (0..stubs.len())
            .map(|_| moas::types::rng::coin(&mut rng, 0.3))
            .collect();

        let mut net = moas::bgp::Network::new(graph);
        for (i, &stub) in stubs.iter().enumerate() {
            let prefix = stub_prefix(i);
            if active[i] {
                let partner = stubs[(i + 1) % stubs.len()];
                let mut list = MoasList::implicit(stub);
                list.insert(partner);
                net.originate(stub, prefix, Some(list.clone()));
                net.originate(partner, prefix, Some(list));
            } else {
                net.originate(stub, prefix, None);
            }
        }
        if net.run().is_err() {
            eprintln!("day {day}: simulation failed to converge");
            return ExitCode::FAILURE;
        }

        let summary =
            match export_rib_snapshot(&mut writer, &vantages, net.loc_ribs(&vantages), day) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("day {day}: export failed: {e}");
                    return ExitCode::FAILURE;
                }
            };

        // The day's update stream: multihoming changes since yesterday.
        let mut updates: Vec<(Asn, Update)> = Vec::new();
        for (i, &stub) in stubs.iter().enumerate() {
            let partner = stubs[(i + 1) % stubs.len()];
            let prefix = stub_prefix(i);
            if active[i] && !previous_active[i] {
                let mut list = MoasList::implicit(stub);
                list.insert(partner);
                let route = Route::new(prefix, AsPath::origination(partner)).with_moas_list(list);
                updates.push((partner, Update::announce(route)));
            } else if !active[i] && previous_active[i] {
                updates.push((partner, Update::withdraw(prefix)));
            }
        }
        if let Err(e) = export_update_stream(&mut writer, day, updates.iter().map(|(a, u)| (*a, u)))
        {
            eprintln!("day {day}: update export failed: {e}");
            return ExitCode::FAILURE;
        }
        previous_active = active;

        // The collector's view of today, for comparison with import-mrt.
        let mut moas = 0usize;
        let mut prefixes = 0usize;
        for i in 0..stubs.len() {
            let prefix = stub_prefix(i);
            let origins: std::collections::BTreeSet<Asn> = vantages
                .iter()
                .filter_map(|&v| net.best_route(v, prefix))
                .filter_map(|r| r.origin_as())
                .collect();
            if !origins.is_empty() {
                prefixes += 1;
            }
            if origins.len() > 1 {
                moas += 1;
            }
        }
        println!(
            "day {day}: {prefixes} prefixes, {moas} moas, {} rib entries, {} updates",
            summary.entries,
            updates.len()
        );
    }

    match writer.finish() {
        Ok(_) => {
            println!("wrote {days} daily snapshots to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot finish {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Imports an MRT table-dump stream and reports the measurement pipeline's
/// view of it: per-day MOAS counts, origin-change events, and (with
/// `--offline-scan`) the offline monitor's findings.
///
/// Streams the archive one day at a time (`DailyDumpStream`), so archives
/// far larger than memory import in constant space.
fn import_mrt(args: &[String]) -> ExitCode {
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: moas-lab import-mrt FILE [--offline-scan]");
        return ExitCode::FAILURE;
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let offline_scan = flag(args, "--offline-scan");

    let mut stream = DailyDumpStream::new(BufReader::new(file)).collect_routes(offline_scan);
    let monitor = OfflineMonitor::new();
    let mut tracker = OriginEventTracker::new();
    let mut day_events = Vec::new();
    let mut days = 0usize;
    let mut rib_entries = 0usize;
    let mut event_count = 0usize;
    let mut findings = 0usize;
    let start = std::time::Instant::now();
    loop {
        match stream.next_day() {
            Ok(Some(day)) => {
                println!(
                    "day {}: {} prefixes, {} moas",
                    day.day,
                    day.dump.prefix_count(),
                    day.dump.moas_count()
                );
                days += 1;
                rib_entries += day.rib_entries;
                tracker.advance(&day.dump, &mut day_events);
                event_count += day_events.len();
                day_events.clear();
                if offline_scan {
                    findings += monitor.scan(day.routes).len();
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("cannot import {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let mib = stream.bytes_read() as f64 / (1024.0 * 1024.0);
    println!(
        "total: {days} dumps, {rib_entries} routes, {event_count} origin events, {} skipped BGP4MP records",
        stream.skipped_messages()
    );
    // Timing diagnostic on stderr: stdout is a pure function of the archive.
    eprintln!(
        "throughput: {mib:.1} MiB in {elapsed:.2}s ({:.1} MiB/s, {:.0} routes/s)",
        mib / elapsed,
        rib_entries as f64 / elapsed
    );
    if offline_scan {
        println!("offline monitor: {findings} findings across {days} days");
    }
    ExitCode::SUCCESS
}

/// Drives one full round against a running `moas-labd` (see USAGE). Every
/// step prints what it observed; any protocol or I/O failure aborts with a
/// non-zero exit, so CI can use this as the daemon smoke test.
fn daemon_probe(args: &[String]) -> ExitCode {
    let (Some(http), Some(feed)) = (
        option::<std::net::SocketAddr>(args, "--http"),
        option::<std::net::SocketAddr>(args, "--feed"),
    ) else {
        eprintln!(
            "usage: moas-lab daemon-probe --http HOST:PORT --feed HOST:PORT \
             [--prefix P --asn N] [--read-only] [--connect-attempts N]"
        );
        return ExitCode::FAILURE;
    };
    match daemon_probe_run(args, http, feed) {
        Ok(()) => {
            println!("daemon-probe OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("daemon-probe failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn daemon_probe_run(
    args: &[String],
    http: std::net::SocketAddr,
    feed: std::net::SocketAddr,
) -> std::io::Result<()> {
    use moas::daemon::client::{ConnectOptions, FeedClient, HttpClient, SyncOutcome};

    let fail = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    // Fail fast on a dead or wedged daemon: bounded attempts with a short
    // connect budget, so CI gets a typed refusal instead of a hang.
    let probe_opts = ConnectOptions {
        connect_timeout: std::time::Duration::from_secs(2),
        max_attempts: option::<u32>(args, "--connect-attempts").unwrap_or(3),
    };
    let mut web = HttpClient::connect_with_retry(http, &probe_opts)?;

    let (status, body) = web.get("/status")?;
    if status != 200 {
        return Err(fail(format!("GET /status answered {status}: {body}")));
    }
    println!("status: {body}");

    if let (Some(prefix), Some(asn)) = (
        option::<String>(args, "--prefix"),
        option::<u32>(args, "--asn"),
    ) {
        let (status, body) = web.get(&format!("/validity?prefix={prefix}&asn={asn}"))?;
        if status != 200 {
            return Err(fail(format!("GET /validity answered {status}: {body}")));
        }
        println!("validity {prefix} AS{asn}: {body}");
    }

    let mut sync = FeedClient::connect_with_retry(feed, &probe_opts)?;
    let count = sync.reset_sync()?;
    let session = sync.session().unwrap_or_default();
    println!(
        "feed: full sync of {count} entries at serial {} (session {session})",
        sync.serial()
    );

    if !flag(args, "--read-only") {
        // Exercise the diff path with a probe-owned prefix (TEST-NET-3),
        // announced and then withdrawn so the table ends unchanged.
        let ingest = |web: &mut HttpClient, announce: bool| -> std::io::Result<()> {
            let body = format!(
                "{{\"updates\":[{{\"announce\":{announce},\"prefix\":\"203.0.113.0/24\",\"asn\":64511}}]}}"
            );
            let (status, reply) = web.post("/ingest", &body)?;
            if status != 200 {
                return Err(fail(format!("POST /ingest answered {status}: {reply}")));
            }
            Ok(())
        };
        ingest(&mut web, true)?;
        match sync.serial_sync()? {
            SyncOutcome::Diff {
                announced: 1,
                serial,
                ..
            } => {
                println!("feed: diff sync picked up the probe announce (serial {serial})");
            }
            other => return Err(fail(format!("expected a 1-announce diff, got {other:?}"))),
        }
        ingest(&mut web, false)?;
        match sync.serial_sync()? {
            SyncOutcome::Diff {
                withdrawn: 1,
                serial,
                ..
            } => {
                println!("feed: diff sync picked up the probe withdraw (serial {serial})");
            }
            other => return Err(fail(format!("expected a 1-withdraw diff, got {other:?}"))),
        }
    }

    // The reset path: a deliberately wrong session must answer CacheReset,
    // and a fresh full sync must recover.
    match sync.sync_from(session.wrapping_add(1), sync.serial())? {
        SyncOutcome::CacheReset => println!("feed: stale session correctly answered cache-reset"),
        other => return Err(fail(format!("expected a cache reset, got {other:?}"))),
    }
    let recovered = sync.reset_sync()?;
    if recovered != count {
        return Err(fail(format!(
            "recovery sync holds {recovered} entries, expected {count}"
        )));
    }

    let (status, metrics) = web.get("/metrics")?;
    if status != 200 {
        return Err(fail(format!("GET /metrics answered {status}")));
    }
    let mut parsed = 0usize;
    for line in metrics
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut parts = line.split_whitespace();
        let (Some(_name), Some(value), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(fail(format!("unparseable metrics line '{line}'")));
        };
        value
            .parse::<u64>()
            .map_err(|_| fail(format!("non-numeric metric value in '{line}'")))?;
        parsed += 1;
    }
    println!("metrics: {parsed} series, all parseable");
    Ok(())
}

fn overhead(args: &[String]) -> ExitCode {
    let timeline = generate_timeline(&TimelineConfig::paper().with_days(30));
    let dump = timeline.dumps.last().expect("timeline has dumps");
    let analytic = moas_list_overhead(dump);
    let measured = measure_moas_list_overhead(dump, jobs_option(args));
    println!("analytic: {analytic}");
    println!("measured: {measured}");
    println!(
        "codec cross-check: added bytes agree exactly ({} == {})",
        measured.added_bytes, analytic.added_bytes
    );
    println!(
        "against a 100k-route 2001 table: {:.4}% added",
        100.0 * measured.added_bytes as f64 / (100_000.0 * 36.0)
    );
    let narrow: MoasList = [Asn(4), Asn(226)].into_iter().collect();
    let wide: MoasList = [Asn(4), Asn(70_000)].into_iter().collect();
    println!(
        "4-byte member: {narrow} adds {} bytes, {wide} adds {} \
         (a large community, 12 bytes against a community's 4, in an attribute of its own)",
        measured_list_bytes(&narrow),
        measured_list_bytes(&wide),
    );
    if write_metrics(args, &overhead_snapshot(&measured)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads a `--metrics` snapshot back and renders it as a readable table.
fn metrics_summary(args: &[String]) -> ExitCode {
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: moas-lab metrics-summary FILE");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match parse_snapshot(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", render_metrics_summary(&snapshot));
    ExitCode::SUCCESS
}

/// Runs one session-layer chaos campaign (see [`SessionChaosScenario`]).
fn session_chaos(args: &[String], scenario: SessionChaosScenario) -> ExitCode {
    let mut config = if flag(args, "--quick") {
        SessionChaosConfig::quick(scenario)
    } else {
        SessionChaosConfig::new(scenario)
    };
    campaign_overrides(args, &mut config.trials, &mut config.seed);
    let report = run_session_chaos(&config, jobs_option(args));
    println!(
        "scenario {}: {} trials, seed {:#x}",
        report.scenario.name(),
        report.trials,
        report.seed
    );
    println!(
        "sessions: {} established, {} recovered after the final fault",
        report.established_trials, report.recovered_trials
    );
    println!(
        "faults: {} injected, recovery rate {:.3}, update delivery rate {:.3}",
        report.total_faults, report.recovery_rate, report.delivery_rate
    );
    println!(
        "per trial: {:.1} establishments, {:.1} notifications sent, {:.1} received, \
         {:.1} hold expirations, {:.1} decode errors, {:.0} virtual ms",
        report.mean_establishments,
        report.mean_notifications_sent,
        report.mean_notifications_received,
        report.mean_hold_expirations,
        report.mean_decode_errors,
        report.mean_virtual_ms
    );
    emit_json(args, report.to_json(), "report")
}

/// Streams an MRT archive through a live BGP session into a running
/// `moas-labd --bgp` listener.
fn session_replay(args: &[String]) -> ExitCode {
    use moas::session::{replay_updates, SessionConfig};
    use moas::wire::bgp::UpdateMessage;
    use moas::wire::mrt::MrtBody;
    use moas::wire::MrtViewReader;

    let (Some(path), Some(addr)) = (
        option::<String>(args, "--mrt"),
        option::<std::net::SocketAddr>(args, "--bgp"),
    ) else {
        eprintln!(
            "usage: moas-lab session-replay --mrt FILE --bgp HOST:PORT [--asn N] [--hold N] [--limit N]"
        );
        return ExitCode::FAILURE;
    };
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut session = SessionConfig::new(
        Asn(option::<u32>(args, "--asn").unwrap_or(65_000)),
        0x7F00_00FE,
    );
    if let Some(hold) = option::<u16>(args, "--hold") {
        session.hold_time = hold;
    }
    let limit = option::<u64>(args, "--limit").unwrap_or(u64::MAX);

    // Pull UPDATEs out of the archive lazily: BGP4MP records replay
    // verbatim; RIB snapshot entries become one announcement per (prefix,
    // first peer entry). Decode errors end the stream with a diagnostic.
    let mut reader = MrtViewReader::new(BufReader::new(file));
    let mut records: u64 = 0;
    let mut produced: u64 = 0;
    let mut read_error: Option<String> = None;
    let mut updates = std::iter::from_fn(|| loop {
        if produced >= limit {
            return None;
        }
        match reader.next_record() {
            Ok(Some(record)) => {
                records += 1;
                match record.body {
                    MrtBody::Bgp4mpMessage(msg) => {
                        produced += 1;
                        return Some(msg.message);
                    }
                    MrtBody::RibIpv4Unicast(rib) => {
                        if let Some(entry) = rib.entries.into_iter().next() {
                            produced += 1;
                            return Some(UpdateMessage {
                                withdrawn: Vec::new(),
                                attrs: Some(entry.attrs),
                                nlri: vec![rib.prefix],
                            });
                        }
                    }
                    MrtBody::PeerIndexTable(_) | MrtBody::RibIpv6Unicast(_) => {}
                }
            }
            Ok(None) => return None,
            Err(e) => {
                read_error = Some(e.to_string());
                return None;
            }
        }
    });

    match replay_updates(addr, &session, &mut updates) {
        Ok(report) => {
            if let Some(e) = &read_error {
                eprintln!("archive truncated: {e}");
            }
            println!(
                "session-replay OK: {} MRT records, {} updates sent over {} connection attempt(s)",
                records, report.updates_sent, report.connects
            );
            println!(
                "session: {} establishment(s), {} keepalives sent, {} received, {} notifications received",
                report.stats.established,
                report.stats.keepalives_sent,
                report.stats.keepalives_received,
                report.stats.notifications_received
            );
            if read_error.is_some() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("session-replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}
