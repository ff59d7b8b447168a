//! `moas-labd` — the MOAS-list serving daemon.
//!
//! Loads (or derives) a prefix→origin-set table and serves it over loopback
//! TCP on two interfaces:
//!
//! * an HTTP/1.1 query endpoint — `GET /validity?prefix=P&asn=A`,
//!   `GET /metrics`, `GET /status`, plus `POST /ingest`,
//!   `POST /reload-exceptions` and `POST /shutdown` control routes;
//! * an RTR-style push feed — full cache transfers, per-serial diffs from a
//!   bounded delta ring, and serial notifies on every table change.
//!
//! ```console
//! $ moas-labd --moas-list lists.json                 # serve a JSON list file
//! $ moas-labd --mrt archive.mrt                      # derive from an MRT archive
//! $ moas-labd --moas-list l.json --exceptions s.json # with SLURM-style overrides
//! $ moas-labd --moas-list l.json --http 127.0.0.1:0 --feed 127.0.0.1:0
//! ```
//!
//! The bound addresses are printed on startup (one `listening http=… feed=…`
//! line), so scripts can bind port 0 and scrape the real ports. The daemon
//! runs until `POST /shutdown` (or SIGKILL); `moas-lab daemon-probe` drives
//! a full query/diff-sync/reset round against a running instance.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use moas::daemon::{Daemon, DaemonConfig, ExceptionSet, OriginTable};

const USAGE: &str = "\
moas-labd — MOAS-list serving daemon (HTTP queries + RTR-style push feed)

USAGE:
    moas-labd (--moas-list FILE | --mrt FILE) [OPTIONS]

OPTIONS:
    --moas-list FILE    Load the table from a JSON MOAS-list file
                        ({ \"moasLists\": [{ \"prefix\": \"10.0.0.0/16\", \"origins\": [65001, 65002] }] })
    --mrt FILE          Derive the table from an MRT table-dump archive
                        (all days merged; MOAS lists carried in communities win)
    --exceptions FILE   SLURM-style exception file applied to verdicts
                        (hot-reloadable via POST /reload-exceptions)
    --http ADDR         HTTP bind address       [default: 127.0.0.1:8323]
    --feed ADDR         Feed bind address       [default: 127.0.0.1:8324]
    --bgp ADDR          Also listen for live BGP sessions on ADDR; decoded
                        UPDATEs are ingested like POST /ingest batches
    --bgp-asn N         Local ASN in the BGP OPEN  [default: 64512]
    --session N         Feed session id         [default: 1]
    --ring N            Delta-ring capacity     [default: 64]
    --max-conns N       Per-listener connection cap [default: 64]
    --help              Show this message
";

/// Every flag that takes a value (`--help` is the one that takes none).
const VALUE_FLAGS: &[&str] = &[
    "--moas-list",
    "--mrt",
    "--exceptions",
    "--http",
    "--feed",
    "--bgp",
    "--bgp-asn",
    "--session",
    "--ring",
    "--max-conns",
];

/// A misspelt flag would otherwise be ignored: `--rign 8` started the
/// daemon with the default ring. Rejects any `--` argument that is not in
/// [`VALUE_FLAGS`] or the value of one, and a value flag with no value.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} expects a value"));
            }
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg:?}"));
        }
    }
    Ok(())
}

fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let idx = args.iter().position(|a| a == name)?;
    args.get(idx + 1).map(String::as_str)
}

fn load_table(args: &[String], session: u16) -> Result<OriginTable, String> {
    match (option(args, "--moas-list"), option(args, "--mrt")) {
        (Some(_), Some(_)) => Err("--moas-list and --mrt are mutually exclusive".into()),
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            OriginTable::from_json(&text, session).map_err(|e| format!("cannot parse {path}: {e}"))
        }
        (None, Some(path)) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            OriginTable::from_mrt(BufReader::new(file), session)
                .map_err(|e| format!("cannot import {path}: {e}"))
        }
        (None, None) => Err("one of --moas-list or --mrt is required".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{USAGE}");
        return if args.is_empty() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    if let Err(message) = check_flags(&args) {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }

    let session: u16 = match option(&args, "--session").map(str::parse).transpose() {
        Ok(s) => s.unwrap_or(1),
        Err(_) => {
            eprintln!("--session must be a u16");
            return ExitCode::FAILURE;
        }
    };
    let table = match load_table(&args, session) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let exceptions = match option(&args, "--exceptions") {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match ExceptionSet::from_json(&text) {
                Ok(set) => set,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => ExceptionSet::empty(),
    };

    let mut config = DaemonConfig::loopback();
    config.http_addr = option(&args, "--http")
        .unwrap_or("127.0.0.1:8323")
        .to_string();
    config.feed_addr = option(&args, "--feed")
        .unwrap_or("127.0.0.1:8324")
        .to_string();
    if let Some(ring) = option(&args, "--ring") {
        match ring.parse() {
            Ok(n) => config.delta_ring_capacity = n,
            Err(_) => {
                eprintln!("--ring must be a number");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(cap) = option(&args, "--max-conns") {
        match cap.parse() {
            Ok(n) => config.max_connections = n,
            Err(_) => {
                eprintln!("--max-conns must be a number");
                return ExitCode::FAILURE;
            }
        }
    }
    config.exceptions = exceptions;
    config.bgp_addr = option(&args, "--bgp").map(str::to_string);
    if let Some(asn) = option(&args, "--bgp-asn") {
        match asn.parse() {
            Ok(n) => config.bgp_asn = moas::types::Asn(n),
            Err(_) => {
                eprintln!("--bgp-asn must be a 32-bit AS number");
                return ExitCode::FAILURE;
            }
        }
    }

    let daemon = match Daemon::start(config, table) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    match daemon.bgp_addr() {
        Some(bgp) => println!(
            "listening http={} feed={} bgp={bgp}",
            daemon.http_addr(),
            daemon.feed_addr()
        ),
        None => println!(
            "listening http={} feed={}",
            daemon.http_addr(),
            daemon.feed_addr()
        ),
    }

    // Serve until a client posts /shutdown. The listeners run on their own
    // threads; this one sleeps until then.
    daemon.wait_shutdown();
    println!("shutdown requested; draining connections");
    daemon.shutdown();
    ExitCode::SUCCESS
}
