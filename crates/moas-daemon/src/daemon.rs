//! The daemon: shared table state served over loopback TCP listeners
//! (HTTP query/control, binary push feed, optional live BGP ingest), each
//! driven by a vendored [`minisock`] reactor on its own worker thread.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bgp_session::{BgpListener, PeerInfo, SessionConfig, SessionHandler};
use bgp_types::json::Json;
use bgp_types::{Asn, Ipv4Prefix};
use bgp_wire::bgp::UpdateMessage;
use minisock::{Action, Config, ConnId, Server, ServerStats, Service, StatsHandle, Waker};

use crate::exceptions::ExceptionSet;
use crate::feed::{Pdu, PrefixEntry};
use crate::http::{json_response, text_response, HttpError, Request};
use crate::table::{DeltaRing, OriginTable, TableUpdate};
use crate::validity::{validate_detailed, Verdict};

/// Counters the daemon exposes through `/metrics`, all monotonic.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonMetrics {
    http_requests: u64,
    queries: u64,
    queries_valid: u64,
    queries_invalid: u64,
    queries_not_found: u64,
    ingest_batches: u64,
    ingest_updates: u64,
    exception_reloads: u64,
    exception_reloads_verdict_affecting: u64,
    feed_reset_syncs: u64,
    /// Microseconds full syncs held the state lock while encoding the table.
    feed_reset_sync_lock_us: u64,
    feed_diff_syncs: u64,
    feed_cache_resets: u64,
    feed_notifies: u64,
    bgp_sessions_established: u64,
    bgp_sessions_closed: u64,
    bgp_updates: u64,
    bgp_table_changes: u64,
}

/// Everything the listeners share, behind the one mutex in [`Hub`].
/// Handlers hold the lock only while computing a response — never across
/// I/O.
///
/// There is no published snapshot of the table: one HTTP reactor thread
/// means at most one query is ever in flight, so a `/validity` lookup
/// simply runs under the lock (a few microseconds) and an apply mutates the
/// table in place. A reader waits for at most one apply, a writer for at
/// most one response, and nothing ever copies the table.
struct Shared {
    table: OriginTable,
    exceptions: ExceptionSet,
    ring: DeltaRing,
    metrics: DaemonMetrics,
    shutdown_requested: bool,
    feed_conns_open: u64,
    /// Each listener's reactor counters, for `/metrics`.
    listeners: Vec<(&'static str, StatsHandle)>,
}

impl Shared {
    fn new(table: OriginTable, exceptions: ExceptionSet, ring_capacity: usize) -> Self {
        Shared {
            table,
            exceptions,
            ring: DeltaRing::new(ring_capacity),
            metrics: DaemonMetrics::default(),
            shutdown_requested: false,
            feed_conns_open: 0,
            listeners: Vec::new(),
        }
    }

    fn apply(&mut self, updates: &[TableUpdate]) -> (u32, usize, usize) {
        let delta = self.table.apply(updates);
        let (announced, withdrawn) = (delta.announced.len(), delta.withdrawn.len());
        let serial = delta.serial;
        if !delta.is_empty() {
            self.ring.push(delta);
        }
        (serial, announced, withdrawn)
    }
}

/// The shared state, and the condition `POST /shutdown` signals.
struct Hub {
    shared: Mutex<Shared>,
    shutdown: Condvar,
}

impl Hub {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        // A poisoned mutex means a handler panicked; the state itself is
        // plain data, so continue with it rather than cascading the panic.
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `change` under the lock and, once the lock is released, tells
    /// whoever waits on what it changed: a moved serial wakes the feed
    /// reactor, so `SerialNotify` leaves on the write rather than at the
    /// next tick, and a shutdown request wakes [`Daemon::wait_shutdown`].
    fn update<R>(&self, feed: &Waker, change: impl FnOnce(&mut Shared) -> R) -> R {
        let mut shared = self.lock();
        let before = (shared.table.serial(), shared.shutdown_requested);
        let out = change(&mut shared);
        let after = (shared.table.serial(), shared.shutdown_requested);
        drop(shared);
        if after.0 != before.0 {
            feed.wake();
        }
        if after.1 != before.1 {
            self.shutdown.notify_all();
        }
        out
    }
}

/// Daemon start-up parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address of the HTTP listener (`127.0.0.1:0` for ephemeral).
    pub http_addr: String,
    /// Bind address of the feed listener.
    pub feed_addr: String,
    /// How many per-serial deltas the feed retains; clients whose serial
    /// ages out of this ring get a cache reset.
    pub delta_ring_capacity: usize,
    /// Per-listener cap on simultaneously open connections.
    pub max_connections: usize,
    /// Per-connection read/write timeout on both listeners.
    pub io_timeout: Duration,
    /// Slow-client guard on the HTTP listener: once the first byte of a
    /// request has arrived, the whole head and body must follow within
    /// this budget or the daemon answers 408 and closes. A slowloris peer
    /// trickling one byte at a time would otherwise hold its connection
    /// (and its slot under [`max_connections`](Self::max_connections))
    /// indefinitely, because every byte resets the reactor's idle timeout.
    pub request_deadline: Duration,
    /// Bind address of the live BGP ingest listener, or `None` to run
    /// without one. Peers that establish a session here feed decoded
    /// UPDATEs straight into the origin table (see [`crate::bgp`]).
    pub bgp_addr: Option<String>,
    /// Local ASN the BGP listener announces in its OPEN.
    pub bgp_asn: Asn,
    /// Local exception rules active at start-up.
    pub exceptions: ExceptionSet,
}

impl DaemonConfig {
    /// Ephemeral loopback ports, 64-deep delta ring, 30 s timeouts.
    #[must_use]
    pub fn loopback() -> Self {
        DaemonConfig {
            http_addr: "127.0.0.1:0".to_string(),
            feed_addr: "127.0.0.1:0".to_string(),
            delta_ring_capacity: 64,
            max_connections: 64,
            io_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(10),
            bgp_addr: None,
            bgp_asn: Asn(64512),
            exceptions: ExceptionSet::empty(),
        }
    }
}

/// A running daemon: both listeners live until [`shutdown`](Self::shutdown)
/// (or drop).
pub struct Daemon {
    hub: Arc<Hub>,
    http_server: Server,
    feed_server: Server,
    bgp_server: Option<Server>,
}

impl Daemon {
    /// Binds both listeners and starts serving `table`.
    ///
    /// # Errors
    ///
    /// Returns any socket bind/spawn error.
    pub fn start(config: DaemonConfig, table: OriginTable) -> io::Result<Daemon> {
        let hub = Arc::new(Hub {
            shared: Mutex::new(Shared::new(
                table,
                config.exceptions.clone(),
                config.delta_ring_capacity,
            )),
            shutdown: Condvar::new(),
        });
        let sock_config = Config {
            max_connections: config.max_connections,
            read_timeout: config.io_timeout,
            write_timeout: config.io_timeout,
            ..Config::default()
        };
        // The feed comes first: the other listeners change the table and
        // need its waker.
        let feed_server = Server::bind(
            config.feed_addr.as_str(),
            FeedService {
                hub: Arc::clone(&hub),
                synced: BTreeMap::new(),
            },
            sock_config.clone(),
        )?;
        let http_server = Server::bind(
            config.http_addr.as_str(),
            HttpService {
                hub: Arc::clone(&hub),
                feed: feed_server.waker(),
                request_deadline: config.request_deadline,
                pending_since: BTreeMap::new(),
            },
            sock_config.clone(),
        )?;
        let bgp_server = match &config.bgp_addr {
            Some(addr) => {
                // The BGP identifier is cosmetic for a loopback listener;
                // 127.0.0.1 keeps it recognisable in packet dumps.
                let template = SessionConfig::new(config.bgp_asn, 0x7F00_0001);
                let handler = BgpHandler {
                    hub: Arc::clone(&hub),
                    feed: feed_server.waker(),
                };
                Some(Server::bind(
                    addr.as_str(),
                    BgpListener::new(template, handler),
                    sock_config,
                )?)
            }
            None => None,
        };
        let mut listeners = vec![
            ("http", http_server.stats_handle()),
            ("feed", feed_server.stats_handle()),
        ];
        listeners.extend(bgp_server.iter().map(|bgp| ("bgp", bgp.stats_handle())));
        hub.lock().listeners = listeners;
        Ok(Daemon {
            hub,
            http_server,
            feed_server,
            bgp_server,
        })
    }

    /// The HTTP listener's bound address.
    #[must_use]
    pub fn http_addr(&self) -> SocketAddr {
        self.http_server.local_addr()
    }

    /// The feed listener's bound address.
    #[must_use]
    pub fn feed_addr(&self) -> SocketAddr {
        self.feed_server.local_addr()
    }

    /// The BGP ingest listener's bound address, when one was configured.
    #[must_use]
    pub fn bgp_addr(&self) -> Option<SocketAddr> {
        self.bgp_server.as_ref().map(Server::local_addr)
    }

    /// The table's current serial.
    #[must_use]
    pub fn serial(&self) -> u32 {
        self.hub.lock().table.serial()
    }

    /// Applies updates in-process, exactly as `POST /ingest` would, and
    /// returns the resulting serial. Used by tests and benchmarks.
    pub fn apply(&self, updates: &[TableUpdate]) -> u32 {
        self.hub.update(&self.feed_server.waker(), |shared| {
            shared.metrics.ingest_batches += 1;
            shared.metrics.ingest_updates += updates.len() as u64;
            shared.apply(updates).0
        })
    }

    /// `true` once a client has called `POST /shutdown`.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.hub.lock().shutdown_requested
    }

    /// Blocks until a client calls `POST /shutdown`. The process embedding
    /// the daemon parks its main thread here; it makes no wake-ups of its
    /// own while it waits.
    pub fn wait_shutdown(&self) {
        let mut shared = self.hub.lock();
        while !shared.shutdown_requested {
            shared = self
                .hub
                .shutdown
                .wait(shared)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Socket-level counters of the HTTP listener.
    #[must_use]
    pub fn http_stats(&self) -> ServerStats {
        self.http_server.stats()
    }

    /// Socket-level counters of the feed listener.
    #[must_use]
    pub fn feed_stats(&self) -> ServerStats {
        self.feed_server.stats()
    }

    /// Stops all listeners gracefully (pending output drains first).
    pub fn shutdown(self) {
        self.http_server.shutdown();
        self.feed_server.shutdown();
        if let Some(bgp) = self.bgp_server {
            bgp.shutdown();
        }
    }
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("http_addr", &self.http_addr())
            .field("feed_addr", &self.feed_addr())
            .field("bgp_addr", &self.bgp_addr())
            .finish_non_exhaustive()
    }
}

fn json_escape(text: &str) -> String {
    Json::Str(text.to_string()).pretty()
}

// ---------------------------------------------------------------------------
// HTTP side
// ---------------------------------------------------------------------------

struct HttpService {
    hub: Arc<Hub>,
    /// Wakes the feed reactor when a request moved the serial.
    feed: Waker,
    /// Budget for a started request to arrive completely.
    request_deadline: Duration,
    /// When each connection's currently-buffered partial request began
    /// arriving. Present only while a request is incomplete; the sweep
    /// hook answers 408 and closes once the deadline passes.
    pending_since: BTreeMap<ConnId, std::time::Instant>,
}

impl HttpService {
    /// Routes one parsed request; returns `(status, body)`. The body is
    /// JSON except for `/metrics`.
    fn handle(shared: &mut Shared, req: &Request) -> (u16, String) {
        shared.metrics.http_requests += 1;
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/validity") => handle_validity(shared, req),
            ("GET", "/metrics") => (200, render_metrics(shared)),
            ("GET", "/status") => (200, render_status(shared)),
            ("POST", "/ingest") => handle_ingest(shared, req),
            ("POST", "/reload-exceptions") => handle_reload(shared, req),
            ("POST", "/shutdown") => {
                shared.shutdown_requested = true;
                (200, "{\"ok\":true}".to_string())
            }
            ("GET" | "POST", _) => (404, "{\"error\":\"not found\"}".to_string()),
            _ => (405, "{\"error\":\"method not allowed\"}".to_string()),
        }
    }
}

impl Service for HttpService {
    fn on_data(&mut self, conn: ConnId, inbuf: &mut Vec<u8>, out: &mut Vec<u8>) -> Action {
        let mut consumed = 0;
        loop {
            match Request::parse(&inbuf[consumed..]) {
                Ok(Some((req, used))) => {
                    consumed += used;
                    // A complete request landed; the slow-client clock
                    // restarts with the next partial one.
                    self.pending_since.remove(&conn);
                    let (status, body) = self
                        .hub
                        .update(&self.feed, |shared| Self::handle(shared, &req));
                    let bytes = if req.path == "/metrics" {
                        text_response(status, &body, req.keep_alive)
                    } else {
                        json_response(status, &body, req.keep_alive)
                    };
                    out.extend_from_slice(&bytes);
                    if !req.keep_alive {
                        inbuf.drain(..consumed);
                        return Action::CloseAfterFlush;
                    }
                }
                Ok(None) => break,
                Err(HttpError { status, message }) => {
                    let body = format!("{{\"error\":{}}}", json_escape(&message));
                    out.extend_from_slice(&json_response(status, &body, false));
                    inbuf.clear();
                    self.pending_since.remove(&conn);
                    return Action::CloseAfterFlush;
                }
            }
        }
        inbuf.drain(..consumed);
        if inbuf.is_empty() {
            self.pending_since.remove(&conn);
        } else {
            // A request has started but not finished; remember when its
            // first byte arrived (kept across later trickled bytes).
            self.pending_since
                .entry(conn)
                .or_insert_with(std::time::Instant::now);
        }
        Action::Continue
    }

    fn on_sweep(&mut self, conn: ConnId, out: &mut Vec<u8>) -> Action {
        let expired = self
            .pending_since
            .get(&conn)
            .is_some_and(|since| since.elapsed() > self.request_deadline);
        if !expired {
            return Action::Continue;
        }
        self.pending_since.remove(&conn);
        let err = crate::http::timeout_error();
        let body = format!("{{\"error\":{}}}", json_escape(&err.message));
        out.extend_from_slice(&json_response(err.status, &body, false));
        Action::CloseAfterFlush
    }

    fn on_close(&mut self, conn: ConnId) {
        self.pending_since.remove(&conn);
    }
}

fn handle_validity(shared: &mut Shared, req: &Request) -> (u16, String) {
    let (Some(prefix_text), Some(asn_text)) = (req.query_param("prefix"), req.query_param("asn"))
    else {
        return (
            400,
            "{\"error\":\"required query parameters: prefix, asn\"}".to_string(),
        );
    };
    let Ok(prefix) = prefix_text.parse::<Ipv4Prefix>() else {
        return (
            400,
            format!(
                "{{\"error\":{}}}",
                json_escape(&format!("bad prefix '{prefix_text}'"))
            ),
        );
    };
    let asn_number = asn_text.strip_prefix("AS").unwrap_or(asn_text);
    let Ok(asn) = asn_number.parse::<u32>().map(Asn) else {
        return (
            400,
            format!(
                "{{\"error\":{}}}",
                json_escape(&format!("bad asn '{asn_text}'"))
            ),
        );
    };
    let validation = validate_detailed(&shared.table, &shared.exceptions, prefix, asn);
    let metrics = &mut shared.metrics;
    metrics.queries += 1;
    *match validation.verdict {
        Verdict::Valid => &mut metrics.queries_valid,
        Verdict::Invalid => &mut metrics.queries_invalid,
        Verdict::NotFound => &mut metrics.queries_not_found,
    } += 1;
    let mut body = format!(
        "{{\"prefix\":\"{prefix}\",\"asn\":{},\"state\":\"{}\"",
        asn.0,
        validation.verdict.as_str()
    );
    if let Some(matched) = validation.matched_prefix {
        let origins: Vec<String> = validation.origins.iter().map(|a| a.0.to_string()).collect();
        body.push_str(&format!(
            ",\"matchedPrefix\":\"{matched}\",\"origins\":[{}]",
            origins.join(",")
        ));
    }
    body.push('}');
    (200, body)
}

fn handle_ingest(shared: &mut Shared, req: &Request) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (400, "{\"error\":\"body is not UTF-8\"}".to_string());
    };
    let updates = match parse_ingest(text) {
        Ok(updates) => updates,
        Err(message) => return (400, format!("{{\"error\":{}}}", json_escape(&message))),
    };
    shared.metrics.ingest_batches += 1;
    shared.metrics.ingest_updates += updates.len() as u64;
    let (serial, announced, withdrawn) = shared.apply(&updates);
    (
        200,
        format!("{{\"serial\":{serial},\"announced\":{announced},\"withdrawn\":{withdrawn}}}"),
    )
}

/// Parses an ingest body: `{"updates": [{"announce": true, "prefix":
/// "10.0.0.0/8", "asn": 64512}, ...]}`. `announce` defaults to `true`.
fn parse_ingest(text: &str) -> Result<Vec<TableUpdate>, String> {
    let doc = Json::parse(text).map_err(|e| format!("bad JSON: {}", e.message))?;
    let Some(Json::Arr(items)) = doc.get("updates") else {
        return Err("missing 'updates' array".to_string());
    };
    let mut updates = Vec::with_capacity(items.len());
    for item in items {
        let announce = match item.get("announce") {
            Some(Json::Bool(b)) => *b,
            None => true,
            Some(_) => return Err("'announce' must be a boolean".to_string()),
        };
        let prefix = match item.get("prefix") {
            Some(Json::Str(s)) => s
                .parse::<Ipv4Prefix>()
                .map_err(|e| format!("bad prefix '{s}': {e}"))?,
            _ => return Err("update missing string 'prefix'".to_string()),
        };
        let asn = match item.get("asn") {
            Some(Json::Num(n)) if *n >= 0.0 && *n <= f64::from(u32::MAX) && n.fract() == 0.0 => {
                Asn(*n as u32)
            }
            _ => return Err("update missing 32-bit 'asn'".to_string()),
        };
        updates.push(TableUpdate {
            announce,
            prefix,
            asn,
        });
    }
    Ok(updates)
}

fn handle_reload(shared: &mut Shared, req: &Request) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (400, "{\"error\":\"body is not UTF-8\"}".to_string());
    };
    match ExceptionSet::from_json(text) {
        Ok(set) => {
            let changed = set != shared.exceptions;
            shared.metrics.exception_reloads += 1;
            if changed {
                shared.metrics.exception_reloads_verdict_affecting += 1;
            }
            let rules = set.len();
            if changed {
                shared.exceptions = set;
            }
            (200, format!("{{\"rules\":{rules},\"changed\":{changed}}}"))
        }
        Err(e) => (400, format!("{{\"error\":{}}}", json_escape(&e.message))),
    }
}

fn render_status(shared: &Shared) -> String {
    format!(
        concat!(
            "{{\"sessionId\":{},\"serial\":{},\"prefixes\":{},\"entries\":{},",
            "\"deltasRetained\":{},\"exceptionRules\":{},\"shutdownRequested\":{}}}"
        ),
        shared.table.session_id(),
        shared.table.serial(),
        shared.table.prefix_count(),
        shared.table.entry_count(),
        shared.ring.len(),
        shared.exceptions.len(),
        shared.shutdown_requested,
    )
}

fn render_metrics(shared: &Shared) -> String {
    let m = &shared.metrics;
    let mut out = String::with_capacity(1024);
    out.push_str("# moas-labd metrics: one 'name value' pair per line\n");
    let mut line = |name: &str, value: u64| {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    };
    for (name, value) in [
        ("daemon_http_requests_total", m.http_requests),
        ("daemon_queries_total", m.queries),
        ("daemon_queries_valid_total", m.queries_valid),
        ("daemon_queries_invalid_total", m.queries_invalid),
        ("daemon_queries_not_found_total", m.queries_not_found),
        ("daemon_ingest_batches_total", m.ingest_batches),
        ("daemon_ingest_updates_total", m.ingest_updates),
        ("daemon_exception_reloads_total", m.exception_reloads),
        (
            "daemon_exception_reloads_verdict_affecting_total",
            m.exception_reloads_verdict_affecting,
        ),
        ("feed_reset_syncs_total", m.feed_reset_syncs),
        ("feed_reset_sync_lock_us_total", m.feed_reset_sync_lock_us),
        ("feed_diff_syncs_total", m.feed_diff_syncs),
        ("feed_cache_resets_total", m.feed_cache_resets),
        ("feed_notifies_total", m.feed_notifies),
        ("feed_connections_open", shared.feed_conns_open),
        ("bgp_sessions_established_total", m.bgp_sessions_established),
        ("bgp_sessions_closed_total", m.bgp_sessions_closed),
        ("bgp_updates_total", m.bgp_updates),
        ("bgp_table_changes_total", m.bgp_table_changes),
        ("table_serial", u64::from(shared.table.serial())),
        ("table_prefixes", shared.table.prefix_count() as u64),
        ("table_entries", shared.table.entry_count() as u64),
        ("exception_rules", shared.exceptions.len() as u64),
    ] {
        line(name, value);
    }
    // How often each reactor woke, how often a waker did it, and how long it
    // slept: whether the daemon is idle when it should be, without a
    // benchmark.
    for (listener, stats) in &shared.listeners {
        let stats = stats.snapshot();
        for (name, value) in [
            ("wakeups_total", stats.wakeups),
            ("wakes_by_waker_total", stats.wakes_by_waker),
            ("blocked_us_total", stats.blocked_us),
        ] {
            line(&format!("minisock_{listener}_{name}"), value);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Feed side
// ---------------------------------------------------------------------------

struct FeedService {
    hub: Arc<Hub>,
    /// Serial each synced connection last saw (synced or notified); only
    /// connections that completed a sync receive notifies.
    synced: BTreeMap<ConnId, u32>,
}

impl FeedService {
    /// Encodes one whole answer straight into `out`.
    fn transfer(
        out: &mut Vec<u8>,
        session: u16,
        serial: u32,
        entries: impl Iterator<Item = (bool, Ipv4Prefix, Asn)>,
    ) {
        Pdu::CacheResponse { session }.encode(out);
        for (announce, prefix, asn) in entries {
            Pdu::Prefix(PrefixEntry {
                announce,
                prefix,
                asn,
            })
            .encode(out);
        }
        Pdu::EndOfData { session, serial }.encode(out);
    }
}

impl Service for FeedService {
    fn on_data(&mut self, conn: ConnId, inbuf: &mut Vec<u8>, out: &mut Vec<u8>) -> Action {
        let mut consumed = 0;
        loop {
            match Pdu::decode(&inbuf[consumed..]) {
                Ok(Some((pdu, used))) => {
                    consumed += used;
                    match pdu {
                        Pdu::ResetQuery => {
                            // The table is encoded where it stands, so the
                            // lock is held for the whole transfer and
                            // queries wait behind it; how long is counted.
                            let mut shared = self.hub.lock();
                            let held = Instant::now();
                            let serial = shared.table.serial();
                            Self::transfer(
                                out,
                                shared.table.session_id(),
                                serial,
                                shared.table.entries().map(|(p, a)| (true, p, a)),
                            );
                            shared.metrics.feed_reset_syncs += 1;
                            shared.metrics.feed_reset_sync_lock_us +=
                                u64::try_from(held.elapsed().as_micros()).unwrap_or(u64::MAX);
                            drop(shared);
                            self.synced.insert(conn, serial);
                        }
                        Pdu::SerialQuery { session, serial } => {
                            let mut shared = self.hub.lock();
                            let current = shared.table.serial();
                            let diff = if session == shared.table.session_id() {
                                shared.ring.diff_since(serial, current)
                            } else {
                                None
                            };
                            match diff {
                                Some(delta) => {
                                    let session = shared.table.session_id();
                                    shared.metrics.feed_diff_syncs += 1;
                                    drop(shared);
                                    let announced =
                                        delta.announced.iter().map(|&(p, a)| (true, p, a));
                                    let withdrawn =
                                        delta.withdrawn.iter().map(|&(p, a)| (false, p, a));
                                    Self::transfer(
                                        out,
                                        session,
                                        current,
                                        announced.chain(withdrawn),
                                    );
                                    self.synced.insert(conn, current);
                                }
                                None => {
                                    shared.metrics.feed_cache_resets += 1;
                                    drop(shared);
                                    Pdu::CacheReset.encode(out);
                                    self.synced.remove(&conn);
                                }
                            }
                        }
                        Pdu::Error { .. } => {
                            inbuf.clear();
                            return Action::CloseAfterFlush;
                        }
                        unexpected => {
                            Pdu::Error {
                                code: 3,
                                message: format!("unexpected client PDU {unexpected:?}"),
                            }
                            .encode(out);
                            inbuf.clear();
                            return Action::CloseAfterFlush;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    Pdu::Error {
                        code: 0,
                        message: e.to_string(),
                    }
                    .encode(out);
                    inbuf.clear();
                    return Action::CloseAfterFlush;
                }
            }
        }
        inbuf.drain(..consumed);
        Action::Continue
    }

    fn on_open(&mut self, _conn: ConnId, _out: &mut Vec<u8>) {
        self.hub.lock().feed_conns_open += 1;
    }

    fn on_tick(&mut self, push: &mut dyn FnMut(ConnId, &[u8])) {
        if self.synced.is_empty() {
            return;
        }
        let mut shared = self.hub.lock();
        let session = shared.table.session_id();
        let serial = shared.table.serial();
        let mut notified = 0u64;
        for (&conn, last) in &mut self.synced {
            if *last != serial {
                *last = serial;
                notified += 1;
                push(conn, &Pdu::SerialNotify { session, serial }.to_bytes());
            }
        }
        shared.metrics.feed_notifies += notified;
    }

    fn on_close(&mut self, conn: ConnId) {
        self.synced.remove(&conn);
        let mut shared = self.hub.lock();
        shared.feed_conns_open = shared.feed_conns_open.saturating_sub(1);
    }
}

// ---------------------------------------------------------------------------
// BGP ingest side
// ---------------------------------------------------------------------------

/// Routes decoded UPDATEs from established BGP sessions into the table.
/// One handler instance serves every session on the listener; sessions on
/// the same listener interleave their batches, which is fine because each
/// UPDATE applies atomically under the shared lock.
struct BgpHandler {
    hub: Arc<Hub>,
    /// Wakes the feed reactor when an UPDATE moved the serial.
    feed: Waker,
}

impl SessionHandler for BgpHandler {
    fn on_update(&mut self, _peer: &PeerInfo, update: UpdateMessage) {
        self.hub.update(&self.feed, |shared| {
            let updates = crate::bgp::table_updates(&shared.table, &update);
            shared.metrics.bgp_updates += 1;
            shared.metrics.bgp_table_changes += updates.len() as u64;
            if !updates.is_empty() {
                shared.apply(&updates);
            }
        });
    }

    fn on_established(&mut self, _peer: &PeerInfo) {
        self.hub.lock().metrics.bgp_sessions_established += 1;
    }

    fn on_session_closed(&mut self) {
        self.hub.lock().metrics.bgp_sessions_closed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::MoasList;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn shared_with_table() -> Shared {
        let mut table = OriginTable::new(7);
        table.insert(
            p("10.1.0.0/16"),
            [Asn(64512)].into_iter().collect::<MoasList>(),
        );
        Shared::new(table, ExceptionSet::empty(), 8)
    }

    fn get(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        Request::parse(raw.as_bytes()).unwrap().unwrap().0
    }

    fn post(path: &str, body: &str) -> Request {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        Request::parse(raw.as_bytes()).unwrap().unwrap().0
    }

    #[test]
    fn validity_routes_and_exact_bodies() {
        let mut shared = shared_with_table();
        let (status, body) =
            HttpService::handle(&mut shared, &get("/validity?prefix=10.1.0.0/16&asn=64512"));
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"prefix\":\"10.1.0.0/16\",\"asn\":64512,\"state\":\"valid\",\
             \"matchedPrefix\":\"10.1.0.0/16\",\"origins\":[64512]}"
        );
        let (status, body) =
            HttpService::handle(&mut shared, &get("/validity?prefix=10.1.0.0/16&asn=64666"));
        assert_eq!(status, 200);
        assert!(body.contains("\"state\":\"invalid\""));
        let (status, body) =
            HttpService::handle(&mut shared, &get("/validity?prefix=192.0.2.0/24&asn=1"));
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"prefix\":\"192.0.2.0/24\",\"asn\":1,\"state\":\"not-found\"}"
        );
        // AS-prefixed ASNs parse too.
        let (status, _) = HttpService::handle(
            &mut shared,
            &get("/validity?prefix=10.1.0.0/16&asn=AS64512"),
        );
        assert_eq!(status, 200);
        let m = &shared.metrics;
        assert_eq!(m.queries, 4);
        assert_eq!(m.queries_valid, 2);
        assert_eq!(m.queries_invalid, 1);
        assert_eq!(m.queries_not_found, 1);
    }

    #[test]
    fn validity_rejects_bad_parameters() {
        let mut shared = shared_with_table();
        assert_eq!(HttpService::handle(&mut shared, &get("/validity")).0, 400);
        assert_eq!(
            HttpService::handle(&mut shared, &get("/validity?prefix=zap&asn=1")).0,
            400
        );
        assert_eq!(
            HttpService::handle(&mut shared, &get("/validity?prefix=10.0.0.0/8&asn=zap")).0,
            400
        );
        assert_eq!(shared.metrics.queries, 0);
    }

    #[test]
    fn ingest_applies_and_reports_serial() {
        let mut shared = shared_with_table();
        let (status, body) = HttpService::handle(
            &mut shared,
            &post(
                "/ingest",
                r#"{"updates":[
                    {"prefix": "10.2.0.0/16", "asn": 64513},
                    {"announce": false, "prefix": "10.1.0.0/16", "asn": 64512}
                ]}"#,
            ),
        );
        assert_eq!(status, 200);
        assert_eq!(body, "{\"serial\":1,\"announced\":1,\"withdrawn\":1}");
        assert_eq!(shared.table.serial(), 1);
        assert_eq!(shared.ring.len(), 1);
        // A no-op batch reports the unchanged serial and stays out of the ring.
        let (_, body) = HttpService::handle(
            &mut shared,
            &post(
                "/ingest",
                r#"{"updates":[{"prefix": "10.2.0.0/16", "asn": 64513}]}"#,
            ),
        );
        assert_eq!(body, "{\"serial\":1,\"announced\":0,\"withdrawn\":0}");
        assert_eq!(shared.ring.len(), 1);
        assert_eq!(shared.metrics.ingest_batches, 2);
        assert_eq!(shared.metrics.ingest_updates, 3);
    }

    #[test]
    fn ingest_rejects_malformed_bodies() {
        let mut shared = shared_with_table();
        assert_eq!(
            HttpService::handle(&mut shared, &post("/ingest", "nope")).0,
            400
        );
        assert_eq!(
            HttpService::handle(&mut shared, &post("/ingest", "{}")).0,
            400
        );
        assert_eq!(
            HttpService::handle(&mut shared, &post("/ingest", r#"{"updates":[{"asn":1}]}"#)).0,
            400
        );
        assert_eq!(shared.table.serial(), 0);
    }

    #[test]
    fn reload_counts_verdict_affecting_loads() {
        let mut shared = shared_with_table();
        let slurm = r#"{"locallyAddedAssertions":{"prefixAssertions":[
            {"prefix": "10.9.0.0/16", "asn": 64999}
        ]}}"#;
        let (status, body) = HttpService::handle(&mut shared, &post("/reload-exceptions", slurm));
        assert_eq!(status, 200);
        assert_eq!(body, "{\"rules\":1,\"changed\":true}");
        // Reloading the identical file is not verdict-affecting.
        let (_, body) = HttpService::handle(&mut shared, &post("/reload-exceptions", slurm));
        assert_eq!(body, "{\"rules\":1,\"changed\":false}");
        assert_eq!(shared.metrics.exception_reloads, 2);
        assert_eq!(shared.metrics.exception_reloads_verdict_affecting, 1);
        // A malformed file keeps the old rules.
        let (status, _) = HttpService::handle(&mut shared, &post("/reload-exceptions", "zap"));
        assert_eq!(status, 400);
        assert_eq!(shared.exceptions.len(), 1);
        // And the loaded assertion now answers queries.
        let (_, body) =
            HttpService::handle(&mut shared, &get("/validity?prefix=10.9.0.0/16&asn=64999"));
        assert!(body.contains("\"state\":\"valid\""));
    }

    #[test]
    fn metrics_and_status_render() {
        let mut shared = shared_with_table();
        let (status, body) = HttpService::handle(&mut shared, &get("/metrics"));
        assert_eq!(status, 200);
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            let name = parts.next().unwrap();
            let value = parts.next().unwrap();
            assert!(!name.is_empty());
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("unparseable metric line '{line}'"));
            assert_eq!(parts.next(), None);
        }
        assert!(body.contains("table_prefixes 1\n"));
        let (status, body) = HttpService::handle(&mut shared, &get("/status"));
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("sessionId"), Some(&Json::Num(7.0)));
        assert_eq!(doc.get("shutdownRequested"), Some(&Json::Bool(false)));
    }

    #[test]
    fn unknown_routes_and_methods() {
        let mut shared = shared_with_table();
        assert_eq!(HttpService::handle(&mut shared, &get("/nope")).0, 404);
        assert_eq!(
            HttpService::handle(&mut shared, &post("/validity", "")).0,
            404
        );
        let raw = b"DELETE /validity HTTP/1.1\r\n\r\n";
        let req = Request::parse(raw).unwrap().unwrap().0;
        assert_eq!(HttpService::handle(&mut shared, &req).0, 405);
    }

    #[test]
    fn shutdown_endpoint_sets_the_flag() {
        let mut shared = shared_with_table();
        let (status, body) = HttpService::handle(&mut shared, &post("/shutdown", ""));
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        assert!(shared.shutdown_requested);
    }
}
