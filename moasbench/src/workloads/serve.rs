//! `serve_read` and `serve_churn`: the in-process daemon answering
//! `/validity` over loopback, alone and beside a feed-synchronised writer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bgp_types::{Asn, Ipv4Prefix, MoasList, PrefixTrie};
use moas_daemon::client::{FeedClient, HttpClient, SyncOutcome};
use moas_daemon::http::{json_response, Request};
use moas_daemon::{
    validate_detailed, Daemon, DaemonConfig, DeltaRing, ExceptionSet, OriginTable, Pdu,
    PrefixAssertion, PrefixEntry, PrefixFilter,
};

use crate::gen::{self, ChurnModel, Query, TableShape};
use crate::host;
use crate::report::{Outcome, Run};
use crate::stats::{self, Metric};
use crate::trace::Tracer;

/// Length of one throughput sample; `work_per_s` is the median over slices.
const SLICE: Duration = Duration::from_millis(250);
/// Distinct queries generated per run; the loop cycles through them.
const QUERY_POOL: usize = 1 << 16;
/// Table changes per write round.
const BATCH: usize = 8;
/// The paced reader's pause between an answer and its next query.
const READ_THINK: Duration = Duration::from_micros(200);
/// The writer's pause between rounds.
const WRITE_THINK: Duration = Duration::from_millis(5);
/// A query slower than this met the reactor asleep.
const IDLE_WAKE_US: f64 = 500.0;
/// An apply slower than this is a stall.
const STALL_MS: f64 = 10.0;
/// An apply this slow in the memory probe cloned the table (a clone takes
/// over 100 ms; a scheduling hiccup stays well under this).
const PROBE_STALL: Duration = Duration::from_millis(50);
/// How long the memory probe tries; it needs about 0.4 s.
const PROBE_LIMIT: Duration = Duration::from_secs(3);

/// How the closed-loop reader spaces its queries.
///
/// Back to back, whether a query meets the reactor awake (~15 us) or asleep
/// (~1.2 ms) is a race between two threads that the scheduler's placement
/// decides, and whole runs fall on one side or the other: throughput differs
/// tenfold between runs of one binary. With a pause longer than the
/// reactor's one idle poll, every query meets it asleep, on every run. The
/// end-to-end numbers therefore come from the paced loop; the burst loop's
/// numbers are per-layer, where no bound is set on them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pace {
    Paced,
    Burst,
}

struct Served {
    daemon: Daemon,
    http: HttpClient,
    feed: Option<FeedClient>,
}

/// Builds the table, starts the daemon, connects the clients (and, for the
/// churn workload, mirrors the whole table once). Returns the live system,
/// the total set-up seconds and the table-build share of them.
fn set_up(shape: TableShape, with_feed: bool) -> (Served, f64, f64) {
    let start = Instant::now();
    let table = shape.build();
    let build_s = start.elapsed().as_secs_f64();
    assert_eq!(table.prefix_count(), shape.prefix_count());
    let daemon = Daemon::start(DaemonConfig::loopback(), table).expect("start daemon");
    let http = HttpClient::connect(daemon.http_addr()).expect("connect http");
    let feed = with_feed.then(|| {
        let mut feed = FeedClient::connect(daemon.feed_addr()).expect("connect feed");
        feed.reset_sync().expect("initial full sync");
        feed
    });
    let served = Served { daemon, http, feed };
    (served, start.elapsed().as_secs_f64(), build_s)
}

/// Sets up `repeats` times, keeping the last system live; returns it with
/// every repeat's set-up and table-build seconds.
fn set_up_repeated(
    shape: TableShape,
    with_feed: bool,
    repeats: usize,
) -> (Served, Vec<f64>, Vec<f64>) {
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut live = None;
    for _ in 0..repeats {
        if let Some(Served { daemon, .. }) = live.take() {
            daemon.shutdown();
        }
        let (served, setup_s, build_s) = set_up(shape, with_feed);
        setups.push(setup_s);
        builds.push(build_s);
        live = Some(served);
    }
    (live.expect("at least one set-up"), setups, builds)
}

#[derive(Default)]
struct ReadLog {
    latencies_us: Vec<f64>,
    /// Queries per second in each slice.
    slice_qps: Vec<f64>,
    /// Process CPU microseconds per query in each slice. A median over
    /// slices, unlike a total, is not moved by the few slices in which an
    /// apply cloned the table.
    slice_cpu_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The closed query loop: one request in flight on one persistent
/// connection, every body compared with the reference, until `stop`.
fn query_loop(
    http: &mut HttpClient,
    queries: &[Query],
    pace: Pace,
    tracer: &mut Tracer,
    stop: impl Fn() -> bool,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut next = 0usize;
    let mut slice_start = Instant::now();
    let mut slice_cpu = host::live_threads_cpu_s();
    let mut in_slice = 0usize;
    loop {
        let q = &queries[next % queries.len()];
        next += 1;
        let sent = Instant::now();
        let answer = tracer.span("client.get", next as u64, |_| http.get(&q.path));
        let done = Instant::now();
        log.latencies_us
            .push(done.duration_since(sent).as_secs_f64() * 1e6);
        log.attempted += 1;
        match answer {
            Ok((200, body)) if body == q.expected => {}
            _ => log.failed += 1,
        }
        in_slice += 1;
        let slice = done.duration_since(slice_start);
        let stopping = stop();
        // A run shorter than one slice still has a rate.
        if slice >= SLICE || (stopping && log.slice_qps.is_empty()) {
            let cpu = host::live_threads_cpu_s();
            log.slice_qps.push(in_slice as f64 / slice.as_secs_f64());
            log.slice_cpu_us
                .push((cpu - slice_cpu) * 1e6 / in_slice as f64);
            slice_start = done;
            slice_cpu = cpu;
            in_slice = 0;
        }
        if stopping {
            return log;
        }
        if pace == Pace::Paced {
            std::thread::sleep(READ_THINK);
        }
    }
}

#[derive(Default)]
struct WriteLog {
    apply_us: Vec<f64>,
    sync_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The closed write loop: apply a batch in-process, wait for the feed's
/// serial notify, pull the diff into the mirror, think, repeat.
fn write_loop(
    daemon: &Daemon,
    feed: &mut FeedClient,
    model: &mut ChurnModel,
    tracer: &mut Tracer,
    seconds: f64,
) -> WriteLog {
    let mut log = WriteLog::default();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        round += 1;
        let batch = model.next_batch(BATCH);
        let began = Instant::now();
        let serial = tracer.span("daemon.apply", round, |_| daemon.apply(&batch));
        log.apply_us.push(began.elapsed().as_secs_f64() * 1e6);
        let synced = tracer.span("feed.sync", round, |t| {
            let notified = t.span("feed.wait_notify", round, |_| feed.wait_notify());
            let outcome = t.span("feed.serial_sync", round, |_| feed.serial_sync());
            (notified, outcome)
        });
        log.sync_us.push(began.elapsed().as_secs_f64() * 1e6);
        log.attempted += 1;
        match synced {
            (
                Ok(_),
                Ok(SyncOutcome::Diff {
                    announced,
                    withdrawn,
                    serial: held,
                }),
            ) if announced + withdrawn == BATCH && held == serial => {}
            _ => log.failed += 1,
        }
        std::thread::sleep(WRITE_THINK);
    }
    log
}

/// The run's query pool; with `--wrong-reference` every tenth expected body
/// is corrupted, which the checks must notice.
fn query_pool(run: &Run) -> Vec<Query> {
    let mut queries = gen::queries(run.table_shape(), run.seed, run.scaled(QUERY_POOL));
    if run.wrong_reference {
        for q in queries.iter_mut().step_by(10) {
            q.expected.push(' ');
        }
    }
    queries
}

/// How long each reader loop runs: traced, the measuring half of the budget
/// is split between the paced loop and the burst loop.
fn phase_seconds(run: &Run) -> f64 {
    if run.trace {
        run.measure_seconds() / 2.0
    } else {
        run.measure_seconds()
    }
}

fn warm_up(http: &mut HttpClient, queries: &[Query]) {
    for q in &queries[..64.min(queries.len())] {
        http.get(&q.path).expect("warm-up query");
    }
}

pub fn serve_read(run: &Run, tracer: &mut Tracer) -> Outcome {
    let shape = run.table_shape();
    let queries = query_pool(run);
    let (mut served, mut setups, mut builds) = set_up_repeated(shape, false, run.setup_repeats());
    warm_up(&mut served.http, &queries);

    let seconds = phase_seconds(run);
    let began = Instant::now();
    let mut paced = query_loop(&mut served.http, &queries, Pace::Paced, tracer, || {
        began.elapsed().as_secs_f64() >= seconds
    });

    let mut out = Outcome::new(paced.attempted, paced.failed);
    if run.trace {
        let http_before = served.daemon.http_stats();
        let began = Instant::now();
        let burst = query_loop(&mut served.http, &queries, Pace::Burst, tracer, || {
            began.elapsed().as_secs_f64() >= seconds
        });
        let http_after = served.daemon.http_stats();
        out.attempted += burst.attempted;
        out.failed += burst.failed;
        let n = burst.attempted as f64;
        out.layer(
            "daemon.http_bytes_in_per_query",
            (http_after.bytes_in - http_before.bytes_in) as f64 / n,
        );
        out.layer(
            "daemon.http_bytes_out_per_query",
            (http_after.bytes_out - http_before.bytes_out) as f64 / n,
        );
        read_path_layers(run, tracer, &queries, burst, &mut out);
        out.layer_metric(Metric::quantile(
            "daemon.paced_query_p99_us",
            "us",
            &mut paced.latencies_us,
            0.99,
        ));
        out.layer_metric(Metric::median("table.build_s", "s", &mut builds));
        table_layers(run, shape, &mut out);
    }
    served.daemon.shutdown();

    out.end_to_end(Metric::median("setup_s", "s", &mut setups));
    out.end_to_end(Metric::median("work_per_s", "1/s", &mut paced.slice_qps));
    out.end_to_end(Metric::median("op_p50_us", "us", &mut paced.latencies_us));
    out.layer_metric(Metric::median(
        "host.cpu_us_per_work",
        "us",
        &mut paced.slice_cpu_us,
    ));
    out.end_to_end(Metric::single("peak_rss_mib", "MiB", host::peak_rss_mib()));
    out
}

/// One reader beside one writer on the same daemon, until the writer's time
/// is up.
#[allow(clippy::too_many_arguments)]
fn churn_phase(
    daemon: &Daemon,
    http: &mut HttpClient,
    feed: &mut FeedClient,
    queries: &[Query],
    model: &mut ChurnModel,
    pace: Pace,
    seconds: f64,
    tracer: &mut Tracer,
) -> (ReadLog, WriteLog) {
    let writer_done = AtomicBool::new(false);
    let mut reader_tracer = tracer.fork();
    let logs = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            query_loop(http, queries, pace, &mut reader_tracer, || {
                writer_done.load(Ordering::SeqCst)
            })
        });
        let writes = write_loop(daemon, feed, model, tracer, seconds);
        writer_done.store(true, Ordering::SeqCst);
        (reader.join().expect("reader thread"), writes)
    });
    tracer.absorb(reader_tracer);
    logs
}

/// Applies batches back to back beside the paced reader until one apply
/// clones the table or the limit passes. Whether a measured run's thousand
/// applies ever meet a query in flight is luck, and a run that does clones
/// the table: peak memory would read 350 MiB on some runs and 440 MiB on
/// others. The probe makes every run see the collision that sustained use is
/// certain to. (A burst reader collides less reliably: with three busy
/// threads on two processors the reactor and the writer often share one, and
/// then never overlap.)
fn provoke_clone(
    daemon: &Daemon,
    http: &mut HttpClient,
    queries: &[Query],
    model: &mut ChurnModel,
    limit: Duration,
    out: &mut Outcome,
) -> bool {
    let writer_done = AtomicBool::new(false);
    let mut untraced = Tracer::new(false);
    let (reads, cloned) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            query_loop(http, queries, Pace::Paced, &mut untraced, || {
                writer_done.load(Ordering::SeqCst)
            })
        });
        let began = Instant::now();
        let mut cloned = false;
        while !cloned && began.elapsed() < limit {
            let batch = model.next_batch(BATCH);
            let apply = Instant::now();
            daemon.apply(&batch);
            cloned = apply.elapsed() > PROBE_STALL;
        }
        writer_done.store(true, Ordering::SeqCst);
        (reader.join().expect("reader thread"), cloned)
    });
    out.attempted += reads.attempted;
    out.failed += reads.failed;
    cloned
}

pub fn serve_churn(run: &Run, tracer: &mut Tracer) -> Outcome {
    let shape = run.table_shape();
    let queries = query_pool(run);
    let mut model = ChurnModel::new(shape, run.seed);
    let (served, mut setups, mut builds) = set_up_repeated(shape, true, run.setup_repeats());
    let Served {
        daemon,
        mut http,
        feed,
    } = served;
    let mut feed = feed.expect("churn set-up mirrors the table");
    warm_up(&mut http, &queries);

    let seconds = phase_seconds(run);
    let (mut reads, mut writes) = churn_phase(
        &daemon,
        &mut http,
        &mut feed,
        &queries,
        &mut model,
        Pace::Paced,
        seconds,
        tracer,
    );
    let mut out = Outcome::new(
        reads.attempted + writes.attempted,
        reads.failed + writes.failed,
    );

    if run.trace {
        // The same pair with the reader back to back: seven times the
        // queries in flight, so an apply far more often finds the snapshot
        // shared and clones the table under the mutex.
        let (mut burst, mut stalled) = churn_phase(
            &daemon,
            &mut http,
            &mut feed,
            &queries,
            &mut model,
            Pace::Burst,
            seconds,
            tracer,
        );
        out.attempted += burst.attempted + stalled.attempted;
        out.failed += burst.failed + stalled.failed;
        let stalls = stalled
            .apply_us
            .iter()
            .filter(|&&us| us > STALL_MS * 1e3)
            .count();
        let rounds = stalled.apply_us.len().max(1);
        out.layer("daemon.apply_stalls", stalls as f64);
        out.layer("daemon.apply_stall_share", stalls as f64 / rounds as f64);
        let apply = &mut stalled.apply_us;
        out.layer_metric(Metric::quantile("daemon.apply_p50_us", "us", apply, 0.5));
        out.layer_metric(Metric::quantile("daemon.apply_p99_us", "us", apply, 0.99));
        out.layer("daemon.apply_max_ms", q(apply, 1.0) / 1e3);
        let lat = &mut burst.latencies_us;
        out.layer_metric(Metric::quantile(
            "daemon.churn_query_p50_us",
            "us",
            lat,
            0.5,
        ));
        out.layer_metric(Metric::quantile(
            "daemon.churn_query_p99_us",
            "us",
            lat,
            0.99,
        ));
        out.layer("daemon.query_max_ms", q(lat, 1.0) / 1e3);
        out.layer_metric(Metric::median(
            "daemon.churn_queries_per_s",
            "1/s",
            &mut burst.slice_qps,
        ));
        out.layer_metric(Metric::quantile(
            "feed.sync_p90_us",
            "us",
            &mut writes.sync_us.clone(),
            0.9,
        ));
        out.layer_metric(Metric::median("table.build_s", "s", &mut builds));
    }

    // A smoke table clones in under a millisecond; nothing to wait for.
    let limit = if run.smoke {
        Duration::from_millis(50)
    } else {
        PROBE_LIMIT
    };
    let cloned = provoke_clone(&daemon, &mut http, &queries, &mut model, limit, &mut out);
    out.note(if cloned {
        "memory probe: an apply beside in-flight queries cloned the table, so peak_rss_mib includes the copy"
    } else {
        "memory probe: no apply stalled, so peak_rss_mib includes no table copy"
    });
    // The probe ran far ahead of the delta ring; the mirror catches up the
    // way a straggling client does, by a full resynchronisation.
    match feed.serial_sync() {
        Ok(SyncOutcome::CacheReset) => {
            let reset = feed.reset_sync();
            out.check(
                reset.is_ok(),
                "the mirror could not resynchronise after a cache reset",
            );
        }
        Ok(SyncOutcome::Diff { .. }) => {}
        Err(_) => out.check(
            false,
            "the mirror could not synchronise after the memory probe",
        ),
    }

    // The mirror must hold exactly what the model says the daemon holds.
    let expected = model.expected_entries();
    out.check(
        feed.entries().len() == expected.len()
            && feed.entries().iter().zip(&expected).all(|(a, b)| a == b),
        "feed mirror differs from the reference entry set",
    );
    if run.trace {
        table_layers(run, shape, &mut out);
        feed_layers(run, &daemon, &expected, &mut out);
    }
    daemon.shutdown();

    out.note(&format!(
        "writer: {} rounds, apply p50 {:.0} us max {:.1} ms, sync p90 {:.0} us; paced reader: {} queries, p50 {:.0} us p99 {:.0} us max {:.1} ms",
        writes.apply_us.len(),
        q(&mut writes.apply_us, 0.5),
        q(&mut writes.apply_us, 1.0) / 1e3,
        q(&mut writes.sync_us, 0.9),
        reads.latencies_us.len(),
        q(&mut reads.latencies_us, 0.5),
        q(&mut reads.latencies_us, 0.99),
        q(&mut reads.latencies_us, 1.0) / 1e3,
    ));
    out.end_to_end(Metric::median("setup_s", "s", &mut setups));
    out.end_to_end(Metric::median("work_per_s", "1/s", &mut reads.slice_qps));
    out.end_to_end(Metric::median("op_p50_us", "us", &mut writes.sync_us));
    out.layer_metric(Metric::median(
        "host.cpu_us_per_work",
        "us",
        &mut reads.slice_cpu_us,
    ));
    out.end_to_end(Metric::single("peak_rss_mib", "MiB", host::peak_rss_mib()));
    out
}

fn q(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    stats::sort(samples);
    stats::quantile_sorted(samples, p)
}

/// Median duration of the spans called `name`, less the cost of an empty
/// span, in nanoseconds.
fn span_median_ns(tracer: &Tracer, name: &str, floor_ns: f64) -> f64 {
    let mut d: Vec<f64> = tracer.durations_ns(name).collect();
    (stats::median(&mut d) - floor_ns).max(0.0)
}

/// Replays sampled requests in-process through each public layer of the read
/// path, one span per call, and prices the loopback floor; what remains of a
/// median query is the reactor's (and the private handler's) share.
fn read_path_layers(
    run: &Run,
    tracer: &mut Tracer,
    queries: &[Query],
    mut burst: ReadLog,
    out: &mut Outcome,
) {
    let shape = run.table_shape();
    let table = shape.build();
    let mut sorted: Vec<_> = shape
        .entries()
        .map(|(p, o)| (p, o.into_iter().collect::<MoasList>()))
        .collect();
    sorted.sort_unstable_by_key(|(p, _)| *p);
    let mut trie: PrefixTrie<MoasList> = PrefixTrie::new();
    let began = Instant::now();
    trie.extend_sorted(sorted);
    out.layer("trie.extend_sorted_ms", began.elapsed().as_secs_f64() * 1e3);

    let none = ExceptionSet::empty();
    let rules = ExceptionSet {
        // 1,000 rules that match no query: every lookup scans them all.
        filters: (0..500u32)
            .map(|i| PrefixFilter {
                prefix: Some(Ipv4Prefix::new((203 << 24) | (i << 8), 24)),
                asn: None,
                comment: None,
            })
            .collect(),
        assertions: (0..500u32)
            .map(|i| PrefixAssertion {
                prefix: Ipv4Prefix::new((204 << 24) | (i << 8), 24),
                asn: Asn(64_496),
                comment: None,
            })
            .collect(),
    };

    for _ in 0..10_000 {
        tracer.span("trace.empty", 0, |_| ());
    }
    let floor = span_median_ns(tracer, "trace.empty", 0.0);

    let sample = run.scaled(20_000).min(queries.len());
    let (mut request_len, mut response_len) = (0usize, 0usize);
    for (i, q) in queries[..sample].iter().enumerate() {
        let id = i as u64;
        let raw = format!("GET {} HTTP/1.1\r\nHost: moas-labd\r\n\r\n", q.path);
        tracer.span("daemon.inproc", id, |t| {
            let parsed = t.span("http.parse", id, |_| Request::parse(raw.as_bytes()));
            std::hint::black_box(&parsed);
            t.span("trie.covering", id, |_| {
                std::hint::black_box(trie.covering_matches(q.prefix).len())
            });
            let verdict = t.span("validity.validate", id, |_| {
                validate_detailed(&table, &none, q.prefix, q.asn)
            });
            std::hint::black_box(&verdict);
            let bytes = t.span("http.response", id, |_| {
                json_response(200, &q.expected, true)
            });
            request_len = raw.len();
            response_len = bytes.len();
        });
        tracer.span("trie.longest_match", id, |_| {
            std::hint::black_box(trie.longest_match(q.prefix.network()).is_some())
        });
        tracer.span("validity.validate_1k_rules", id, |_| {
            std::hint::black_box(validate_detailed(&table, &rules, q.prefix, q.asn).verdict)
        });
    }
    out.layer("trace.span_floor_ns", floor);
    let covering = span_median_ns(tracer, "trie.covering", floor);
    let validate_total = span_median_ns(tracer, "validity.validate", floor);
    let parse = span_median_ns(tracer, "http.parse", floor);
    let response = span_median_ns(tracer, "http.response", floor);
    // validate_detailed walks the covering chain itself; its own share is
    // what it costs beyond that walk.
    let validate = (validate_total - covering).max(0.0);
    out.layer("trie.covering_ns", covering);
    out.layer(
        "trie.longest_match_ns",
        span_median_ns(tracer, "trie.longest_match", floor),
    );
    out.layer("validity.validate_ns", validate);
    out.layer(
        "validity.validate_1k_rules_ns",
        span_median_ns(tracer, "validity.validate_1k_rules", floor),
    );
    out.layer("http.parse_ns", parse);
    out.layer("http.response_ns", response);
    let inproc_ns = covering + validate + parse + response;
    out.layer("daemon.inproc_ns", inproc_ns);

    let rtt_us = host::loopback_rtt_us(request_len, response_len, run.scaled(20_000));
    out.layer("host.loopback_rtt_us", rtt_us);
    let lat = &mut burst.latencies_us;
    let p50 = stats::median(lat);
    out.layer_metric(Metric::quantile(
        "daemon.burst_query_p50_us",
        "us",
        lat,
        0.5,
    ));
    out.layer_metric(Metric::quantile(
        "daemon.burst_query_p99_us",
        "us",
        lat,
        0.99,
    ));
    out.layer_metric(Metric::median(
        "daemon.burst_queries_per_s",
        "1/s",
        &mut burst.slice_qps,
    ));
    out.layer("minisock.residual_us", p50 - inproc_ns / 1e3 - rtt_us);
    let slow = lat.iter().filter(|&&us| us > IDLE_WAKE_US).count();
    out.layer(
        "minisock.idle_wake_share",
        slow as f64 / lat.len().max(1) as f64,
    );
}

/// The table layer on a private copy: apply, clone, drop.
fn table_layers(run: &Run, shape: TableShape, out: &mut Outcome) {
    let mut table = shape.build();
    let mut model = ChurnModel::new(shape, run.seed ^ 0xAB);
    let rounds = run.scaled(2_000);
    let mut apply_ns = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let batch = model.next_batch(BATCH);
        let began = Instant::now();
        std::hint::black_box(table.apply(&batch));
        apply_ns.push(began.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
    }
    out.layer_metric(Metric::median("table.apply_ns", "ns", &mut apply_ns));
    let mut clone_ms = Vec::new();
    let mut drop_ms = Vec::new();
    for _ in 0..3 {
        let began = Instant::now();
        let copy = table.clone();
        clone_ms.push(began.elapsed().as_secs_f64() * 1e3);
        let began = Instant::now();
        drop(copy);
        drop_ms.push(began.elapsed().as_secs_f64() * 1e3);
    }
    out.layer_metric(Metric::median("table.clone_ms", "ms", &mut clone_ms));
    out.layer_metric(Metric::median("table.drop_ms", "ms", &mut drop_ms));
}

/// The feed layer: a full snapshot to a fresh client, PDU coding, ring diff.
fn feed_layers(run: &Run, daemon: &Daemon, expected: &[(Ipv4Prefix, Asn)], out: &mut Outcome) {
    let mut reset_ms = Vec::new();
    for _ in 0..3 {
        let mut fresh = FeedClient::connect(daemon.feed_addr()).expect("connect feed");
        let began = Instant::now();
        let entries = fresh.reset_sync().expect("full sync");
        reset_ms.push(began.elapsed().as_secs_f64() * 1e3);
        out.check(
            entries == expected.len(),
            "full snapshot to a fresh client has the wrong entry count",
        );
    }
    out.layer_metric(Metric::median("feed.reset_sync_ms", "ms", &mut reset_ms));
    // 20 bytes per prefix PDU plus the response and end-of-data frames.
    out.layer(
        "feed.reset_sync_mib",
        (expected.len() * 20 + 20) as f64 / (1024.0 * 1024.0),
    );

    let sample = &expected[..run.scaled(100_000).min(expected.len())];
    let mut wire = Vec::with_capacity(sample.len() * 20);
    let began = Instant::now();
    for &(prefix, asn) in sample {
        Pdu::Prefix(PrefixEntry {
            announce: true,
            prefix,
            asn,
        })
        .encode(&mut wire);
    }
    out.layer(
        "feed.pdu_encode_ns",
        began.elapsed().as_secs_f64() * 1e9 / sample.len() as f64,
    );
    let began = Instant::now();
    let mut at = 0;
    let mut decoded = 0usize;
    while let Ok(Some((pdu, used))) = Pdu::decode(&wire[at..]) {
        std::hint::black_box(&pdu);
        at += used;
        decoded += 1;
    }
    out.layer(
        "feed.pdu_decode_ns",
        began.elapsed().as_secs_f64() * 1e9 / decoded.max(1) as f64,
    );
    out.check(decoded == sample.len(), "PDU round trip lost entries");

    // A full ring of one-batch deltas, diffed from its oldest serial.
    let shape = run.table_shape();
    let mut table = OriginTable::new(1);
    let mut ring = DeltaRing::new(64);
    let mut model = ChurnModel::new(shape, run.seed ^ 0xCD);
    // The private table starts empty, so only announces change it; withdraws
    // of pairs it never held are no-ops the ring does not record.
    for _ in 0..64 {
        let delta = table.apply(&model.next_batch(BATCH));
        if !delta.is_empty() {
            ring.push(delta);
        }
    }
    let oldest = ring.oldest_reachable_serial().unwrap_or(0);
    let rounds = run.scaled(2_000);
    let began = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(ring.diff_since(oldest, table.serial()));
    }
    out.layer(
        "feed.diff_since_ns",
        began.elapsed().as_secs_f64() * 1e9 / rounds as f64,
    );
}
