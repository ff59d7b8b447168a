//! End-to-end tests of the `moas-lab` command-line interface.

use std::process::Command;

fn moas_lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_moas-lab"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn moas_labd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_moas-labd"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_prints_usage() {
    let out = moas_lab(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("figures"));
}

#[test]
fn no_arguments_defaults_to_help() {
    let out = moas_lab(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = moas_lab(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn topology_command_lists_structure() {
    let out = moas_lab(&["topology", "25"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("25-AS topology"));
    assert!(text.contains("transit ASes"));
    assert!(text.contains("<->"));
}

#[test]
fn topology_command_rejects_bad_size() {
    let out = moas_lab(&["topology", "99"]);
    assert!(!out.status.success());
}

#[test]
fn trial_with_and_without_detection() {
    let none = moas_lab(&[
        "trial",
        "--attackers",
        "4",
        "--deployment",
        "none",
        "--seed",
        "3",
    ]);
    assert!(none.status.success());
    let none_text = String::from_utf8_lossy(&none.stdout).to_string();
    assert!(none_text.contains("adopted a false route"));
    assert!(none_text.contains("alarms: 0"));

    let full = moas_lab(&[
        "trial",
        "--attackers",
        "4",
        "--deployment",
        "full",
        "--seed",
        "3",
    ]);
    assert!(full.status.success());
    let full_text = String::from_utf8_lossy(&full.stdout).to_string();
    assert!(full_text.contains("confirmed"));

    let pct = |text: &str| -> f64 {
        let start = text.find('(').unwrap();
        let end = text[start..].find("%)").unwrap() + start;
        text[start + 1..end].parse().unwrap()
    };
    let none_line = none_text.lines().find(|l| l.contains("adopted")).unwrap();
    let full_line = full_text.lines().find(|l| l.contains("adopted")).unwrap();
    assert!(
        pct(full_line) <= pct(none_line),
        "{full_line} vs {none_line}"
    );
}

#[test]
fn measure_short_period_reports_medians() {
    let out = moas_lab(&["measure", "--days", "60"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("daily MOAS count"));
    assert!(text.contains("MOAS cases"));
    // Figure 4's windows clamp to the period; the later ones are empty.
    assert!(text.contains("1997-11..1998-11"));
    assert!(!text.contains("1998-11..1999-11"));
    assert!(!text.contains("day 1245"));
}

#[test]
fn measure_full_period_prints_figures_4_and_5() {
    let out = moas_lab(&["measure"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for window in [
        "1997-11..1998-11",
        "1998-11..1999-11",
        "1999-11..2000-11",
        "2000-11..2001-07",
    ] {
        assert!(text.contains(window), "missing Figure 4 window {window}");
    }
    assert!(text.contains("day 150 (1998-04-07"));
    assert!(text.contains("day 1245 (2001-04-06"));
    for bin in ["1 - 3 ", "64 - 255 ", "1024 - 1279 "] {
        assert!(text.contains(bin), "missing Figure 5 bin {bin}");
    }
    assert!(text.contains("one-day cases:"));
    // Both summaries attribute the one-day cases to the 1998 fault.
    assert_eq!(text.matches("on the day-150 spike").count(), 2, "{text}");
}

#[test]
fn ablations_report_unresolved_verification() {
    let out = moas_lab(&["ablations", "--jobs", "2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("valley-free policy routing"));
    let (_, block) = text
        .split_once("unresolved verification")
        .expect("unresolved-verification block");
    assert!(block.contains("accept-on-unresolved"));
    assert!(block.contains("reject-on-unresolved"));
}

#[test]
fn unknown_flags_are_errors_not_ignored() {
    for args in [
        &["figures", "--quik"][..],
        &["measure", "--days", "60", "--bogus"][..],
        &["topology", "46", "--qiuck"][..],
    ] {
        let out = moas_lab(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        let flag = args.last().expect("non-empty argument list");
        assert!(
            err.contains(&format!("unknown flag \"{flag}\"")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn flags_a_command_does_not_read_are_errors() {
    // Each of these used to exit 0 with the flag ignored.
    let metrics = std::env::temp_dir().join(format!("moas-unread-{}.json", std::process::id()));
    let m = metrics.to_str().expect("utf-8 temp path");
    for (args, flag, command) in [
        (
            &["chaos", "--scenario", "session-tcp-reset", "--metrics", m][..],
            "--metrics",
            "session-layer",
        ),
        (
            &[
                "chaos",
                "--scenario",
                "session-tcp-reset",
                "--deployment-sweep",
                "--fractions",
                "0.5",
            ][..],
            "--deployment-sweep",
            "session-layer",
        ),
        (&["trial", "--metrics", m][..], "--metrics", "trial"),
        (
            &["figures", "--quick", "--seed", "3", "--trials", "2"][..],
            "--seed",
            "figures",
        ),
        (
            &["measure", "--jobs", "3", "--shards", "2"][..],
            "--jobs",
            "measure",
        ),
        (
            &["chaos", "--scenario", "failover", "--fractions", "0.5"][..],
            "--fractions",
            "chaos",
        ),
    ] {
        let out = moas_lab(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} does not apply to")) && err.contains(command),
            "{args:?}: {err}"
        );
        assert!(!metrics.exists(), "{args:?} wrote {m}");
    }
}

#[test]
fn overhead_reports_costs() {
    let out = moas_lab(&["overhead"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bytes added"));
    assert!(text.contains("100k-route"));
    // Both the analytic model and the codec-measured numbers appear, and
    // they agree on the added bytes.
    assert!(text.contains("analytic:"));
    assert!(text.contains("measured:"));
    assert!(text.contains("added bytes agree exactly"));
    // A 4-octet member rides in a large community: 12 bytes, not 4.
    assert!(text.contains("4-byte member: {AS4, AS226} adds 11 bytes, {AS4, AS70000} adds 22"));
}

#[test]
fn usage_mentions_mrt_commands() {
    let out = moas_lab(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("export-mrt"));
    assert!(text.contains("import-mrt"));
}

#[test]
fn chaos_requires_a_scenario() {
    let out = moas_lab(&["chaos"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scenario"));

    let bad = moas_lab(&["chaos", "--scenario", "meteor-strike"]);
    assert!(!bad.status.success());
}

#[test]
fn chaos_failover_reports_accuracy_and_emits_json() {
    let out = moas_lab(&[
        "chaos",
        "--scenario",
        "failover",
        "--quick",
        "--trials",
        "3",
        "--seed",
        "9",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("scenario failover"));
    assert!(text.contains("false alarms"));
    assert!(text.contains("detection"));
    assert!(text.contains("\"missed_detection_rate\""));
    assert!(text.contains("\"mean_detection_latency_ticks\""));
}

#[test]
fn chaos_stdout_is_byte_identical_across_jobs() {
    let run = |jobs: &str| {
        let out = moas_lab(&[
            "chaos",
            "--scenario",
            "failover",
            "--quick",
            "--trials",
            "3",
            "--seed",
            "5",
            "--jobs",
            jobs,
        ]);
        assert!(out.status.success());
        out.stdout
    };
    let serial = run("1");
    assert_eq!(run("2"), serial, "--jobs 2 changed the output");
    assert_eq!(run("4"), serial, "--jobs 4 changed the output");
}

#[test]
fn chaos_flap_storm_counts_oscillating_trials() {
    let out = moas_lab(&[
        "chaos",
        "--scenario",
        "flap-storm",
        "--quick",
        "--trials",
        "2",
        "--seed",
        "1",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Every MRAI=0 flap-storm trial must end in a detected oscillation.
    assert!(
        text.contains("oscillation: 2 trials"),
        "watchdog did not trip on both trials: {text}"
    );
}

#[test]
fn chaos_out_flag_writes_the_report_file() {
    let dir = std::env::temp_dir().join(format!("moas-cli-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.json");
    let out = moas_lab(&[
        "chaos",
        "--scenario",
        "session-reset",
        "--quick",
        "--trials",
        "2",
        "--seed",
        "4",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(json.contains("\"scenario\": \"session-reset\""));
    assert!(json.contains("\"false_alarm_rate\""));
}

#[test]
fn chaos_report_writes_a_large_seed_exactly() {
    // 2^53 + 1 has no f64: the report must still name the seed that ran.
    let out = moas_lab(&[
        "chaos",
        "--scenario",
        "failover",
        "--quick",
        "--trials",
        "1",
        "--seed",
        "9007199254740993",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("seed 0x20000000000001"), "{text}");
    assert!(text.contains("\"seed\": 9007199254740993,"), "{text}");
}

#[test]
fn metrics_summary_renders_a_chaos_snapshot() {
    let path = std::env::temp_dir().join(format!("moas-summary-{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = moas_lab(&[
        "chaos",
        "--scenario",
        "failover",
        "--quick",
        "--trials",
        "2",
        "--metrics",
        path_str,
    ]);
    assert!(out.status.success());
    let summary = moas_lab(&["metrics-summary", path_str]);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        summary.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&summary.stderr)
    );
    let text = String::from_utf8_lossy(&summary.stdout);
    assert!(text.contains("chaos.trials"), "{text}");
    assert!(text.contains("histograms ("), "{text}");
}

#[test]
fn metrics_summary_rejects_inconsistent_snapshots() {
    // One histogram holding the value 5 (bucket 3), claiming `count` values.
    let snapshot = |count: u64| {
        let histogram =
            format!(r#"{{"count": {count}, "sum": 5, "min": 5, "max": 5, "buckets": [[3, 1]]}}"#);
        format!(r#"{{"counters": {{}}, "gauges": {{}}, "histograms": {{"h": {histogram}}}}}"#)
    };
    for (name, doc) in [
        ("consistent", snapshot(1)),
        ("count-mismatch", snapshot(2)),
        (
            "no-gauges",
            r#"{"counters": {"a": 1}, "histograms": {}}"#.to_string(),
        ),
    ] {
        let path = std::env::temp_dir().join(format!("moas-{name}-{}.json", std::process::id()));
        std::fs::write(&path, doc).unwrap();
        let out = moas_lab(&["metrics-summary", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        if name == "consistent" {
            assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        } else {
            assert_eq!(out.status.code(), Some(1), "{name}");
            assert!(stderr.contains("cannot parse"), "{name}: {stderr}");
        }
    }
}

#[test]
fn export_mrt_requires_out_path() {
    let out = moas_lab(&["export-mrt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn import_mrt_requires_a_file() {
    let out = moas_lab(&["import-mrt"]);
    assert!(!out.status.success());
}

#[test]
fn import_mrt_missing_file_fails_with_message() {
    let out = moas_lab(&["import-mrt", "/nonexistent/no-such-archive.mrt"]);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
}

#[test]
fn import_mrt_garbage_file_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("moas-cli-garbage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.mrt");
    std::fs::write(&path, b"this is not an MRT archive at all............").unwrap();
    let out = moas_lab(&["import-mrt", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("at byte"),
        "error should carry an offset: {err}"
    );
}

#[test]
fn import_mrt_reports_a_bad_peer_index_at_its_record_and_stops() {
    use moas::types::{AsPath, Asn, Ipv4Prefix, Route};
    use moas::wire::bgp::PathAttributes;
    use moas::wire::day_to_timestamp;
    use moas::wire::export::peer_table;
    use moas::wire::mrt::{MrtBody, MrtRecord, RibEntry, RibIpv4Unicast};

    let rib = |day: u32, prefix: &str, peer_index: u16| {
        let prefix: Ipv4Prefix = prefix.parse().unwrap();
        MrtRecord {
            timestamp: day_to_timestamp(day),
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: 0,
                prefix,
                entries: vec![RibEntry {
                    peer_index,
                    originated_time: day_to_timestamp(day),
                    attrs: PathAttributes::from_route(&Route::new(
                        prefix,
                        AsPath::from_sequence([Asn(701), Asn(4)]),
                    )),
                }],
            }),
        }
    };
    // Day 0 imports; on day 1 a record names peer 7 of a one-peer table.
    let mut archive = MrtRecord {
        timestamp: day_to_timestamp(0),
        body: MrtBody::PeerIndexTable(peer_table(&[Asn(701)])),
    }
    .encode()
    .unwrap();
    for record in [rib(0, "10.0.0.0/8", 0), rib(1, "10.0.0.0/8", 0)] {
        archive.extend_from_slice(&record.encode().unwrap());
    }
    let offset = archive.len();
    for record in [rib(1, "11.0.0.0/8", 7), rib(1, "12.0.0.0/8", 0)] {
        archive.extend_from_slice(&record.encode().unwrap());
    }
    let path = std::env::temp_dir().join(format!("moas-cli-peer-{}.mrt", std::process::id()));
    std::fs::write(&path, &archive).unwrap();
    let out = moas_lab(&["import-mrt", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();

    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("peer index 7") && err.contains(&format!("at byte {offset}")),
        "{err}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("day 0:"), "{stdout}");
    assert!(!stdout.contains("day 1:"), "{stdout}");
}

#[test]
fn export_import_round_trip_preserves_daily_moas_counts() {
    let dir = std::env::temp_dir().join(format!("moas-cli-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sim.mrt");
    let path_str = path.to_str().unwrap();

    let exported = moas_lab(&[
        "export-mrt",
        "--out",
        path_str,
        "--days",
        "4",
        "--seed",
        "11",
    ]);
    assert!(
        exported.status.success(),
        "{}",
        String::from_utf8_lossy(&exported.stderr)
    );
    let exported_text = String::from_utf8_lossy(&exported.stdout).to_string();

    let imported = moas_lab(&["import-mrt", path_str]);
    assert!(
        imported.status.success(),
        "{}",
        String::from_utf8_lossy(&imported.stderr)
    );
    let imported_text = String::from_utf8_lossy(&imported.stdout).to_string();
    std::fs::remove_dir_all(&dir).ok();

    // The per-day "prefixes, moas" counts printed by the exporter must come
    // back identically from the importer.
    let day_counts = |text: &str| -> Vec<(String, String)> {
        text.lines()
            .filter(|l| l.starts_with("day "))
            .map(|l| {
                let mut parts = l.split(", ");
                let first = parts.next().unwrap(); // "day N: P prefixes"
                let moas = parts.find(|p| p.contains("moas")).unwrap();
                (first.to_string(), moas.to_string())
            })
            .collect()
    };
    let exported_days = day_counts(&exported_text);
    let imported_days = day_counts(&imported_text);
    assert_eq!(exported_days.len(), 4);
    assert_eq!(exported_days, imported_days);
}

#[test]
fn unparseable_numeric_flags_are_errors_not_silent_defaults() {
    // `--shards two` used to run unsharded, `--jobs x` to fall back to all
    // cores, `--topology 99 --deployment ful` to run the 46-AS topology at
    // full deployment and `--days abc` to run 1,279 days, all without a word.
    for (args, flag) in [
        (&["trial", "--topology", "99"][..], "--topology"),
        (&["trial", "--deployment", "ful"][..], "--deployment"),
        (&["measure", "--days", "abc"][..], "--days"),
        (&["ensemble", "--quick", "--dwell", "x"][..], "--dwell"),
        (
            &["ensemble", "--quick", "--sibling-fraction", "1.5"][..],
            "--sibling-fraction",
        ),
        (&["session-replay", "--hold", "70000"][..], "--hold"),
        (&["session-replay", "--limit", "-3"][..], "--limit"),
        (
            &["daemon-probe", "--connect-attempts", "many"][..],
            "--connect-attempts",
        ),
        (&["daemon-probe", "--asn", "AS1"][..], "--asn"),
        (&["figures", "--quick", "--shards", "two"][..], "--shards"),
        (&["figures", "--quick", "--jobs", "x"][..], "--jobs"),
        (&["trial", "--attackers", "-1"][..], "--attackers"),
        (&["trial", "--origins", "1.5"][..], "--origins"),
        (
            &["chaos", "--scenario", "failover", "--trials", "many"][..],
            "--trials",
        ),
        (
            &["chaos", "--scenario", "failover", "--quick", "--seed"][..],
            "--seed",
        ),
    ] {
        let out = moas_lab(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: stderr names the flag: {err}");
        let value = args.last().expect("non-empty argument list");
        assert!(
            err.contains(value),
            "{args:?}: stderr names the value: {err}"
        );
    }
    // The scenario lookup still falls through from session to chaos names.
    let out = moas_lab(&[
        "chaos",
        "--scenario",
        "failover",
        "--quick",
        "--trials",
        "2",
    ]);
    assert!(out.status.success());
}

#[test]
fn figures_accepts_metrics_on_the_sharded_engine_and_records_only_on_request() {
    let path = std::env::temp_dir().join(format!("moas-fig-metrics-{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let recorded = moas_lab(&["figures", "--quick", "--shards", "2", "--metrics", path_str]);
    assert!(
        recorded.status.success(),
        "{}",
        String::from_utf8_lossy(&recorded.stderr)
    );
    let snapshot = std::fs::read_to_string(&path).expect("snapshot written");
    std::fs::remove_file(&path).ok();
    assert!(snapshot.contains("trial.count"));

    // Same figures with or without the snapshot.
    let plain = moas_lab(&["figures", "--quick", "--shards", "2"]);
    let recorded_stdout = String::from_utf8_lossy(&recorded.stdout);
    let figures_only = recorded_stdout
        .lines()
        .filter(|l| !l.starts_with("metrics snapshot written"))
        .collect::<Vec<_>>();
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout)
            .lines()
            .collect::<Vec<_>>(),
        figures_only
    );
}

#[test]
fn shards_zero_and_commands_with_nothing_to_shard_are_errors() {
    for (args, flag, needle) in [
        (
            &["figures", "--quick", "--shards", "0"][..],
            "--shards",
            "positive",
        ),
        (&["trial", "--shards", "0"][..], "--shards", "positive"),
        (
            &["daemon-probe", "--connect-attempts", "0"][..],
            "--connect-attempts",
            "expects a positive integer, got 0",
        ),
        (
            &["ensemble", "--quick", "--shards", "2"][..],
            "--shards",
            "ensemble",
        ),
        (&["overhead", "--shards", "2"][..], "--shards", "overhead"),
        (
            &[
                "chaos",
                "--scenario",
                "session-tcp-reset",
                "--quick",
                "--shards",
                "2",
            ][..],
            "--shards",
            "session-layer",
        ),
    ] {
        let out = moas_lab(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag) && err.contains(needle),
            "{args:?}: {err}"
        );
    }
    // One engine: no flag is --shards 1, and every shard count agrees.
    let plain = moas_lab(&["trial"]);
    assert!(plain.status.success());
    for shards in ["1", "2"] {
        assert_eq!(
            moas_lab(&["trial", "--shards", shards]).stdout,
            plain.stdout
        );
    }
}

#[test]
fn ablations_are_identical_for_every_shard_count_and_record_every_study() {
    let plain = moas_lab(&["ablations", "--jobs", "2"]);
    assert!(plain.status.success());
    let sharded = moas_lab(&["ablations", "--jobs", "2", "--shards", "2"]);
    assert!(sharded.status.success());
    assert_eq!(
        String::from_utf8_lossy(&sharded.stdout),
        String::from_utf8_lossy(&plain.stdout)
    );

    let path = std::env::temp_dir().join(format!("moas-abl-metrics-{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let recorded = moas_lab(&["ablations", "--jobs", "2", "--metrics", path_str]);
    assert!(
        recorded.status.success(),
        "{}",
        String::from_utf8_lossy(&recorded.stderr)
    );
    let snapshot = std::fs::read_to_string(&path).expect("snapshot written");
    std::fs::remove_file(&path).ok();
    for scope in [
        "subprefix",
        "community_policy",
        "forgery",
        "valley_free",
        "unresolved",
    ] {
        let key = format!("\"{scope}.sim.events.fired\"");
        assert!(snapshot.contains(&key), "no {key} in the snapshot");
    }
}

#[test]
fn daemon_rejects_unknown_and_valueless_flags_before_binding() {
    for (args, message) in [
        (
            &["--rign", "8", "--moas-list", "missing.json"][..],
            "unknown flag \"--rign\"",
        ),
        (
            &["--moas-list", "missing.json", "--ring"][..],
            "--ring expects a value",
        ),
    ] {
        let out = moas_labd(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        // The bound addresses would be the first stdout line.
        assert!(out.stdout.is_empty(), "{args:?} must not bind");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
    }
}

#[test]
fn daemon_help_states_the_real_defaults() {
    let out = moas_labd(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let default_of = |flag: &str| {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(flag))
            .unwrap_or_else(|| panic!("{flag} undocumented:\n{text}"));
        line.rsplit_once("[default: ")
            .and_then(|(_, rest)| rest.strip_suffix(']'))
            .unwrap_or_else(|| panic!("{flag} states no default: {line}"))
            .to_string()
    };
    let config = moas::daemon::DaemonConfig::loopback();
    assert_eq!(default_of("--ring"), config.delta_ring_capacity.to_string());
    assert_eq!(
        default_of("--max-conns"),
        config.max_connections.to_string()
    );
    assert_eq!(default_of("--bgp-asn"), config.bgp_asn.0.to_string());
    assert_eq!(default_of("--session"), "1");
}
