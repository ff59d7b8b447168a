//! Blocking in-process clients for both daemon interfaces, used by the
//! integration tests and by `moas-lab daemon-probe`. Both speak over plain
//! `TcpStream`s with read timeouts, so a wedged daemon turns into an error
//! instead of a hang.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bgp_session::Backoff;
use bgp_types::{Asn, Ipv4Prefix};

use crate::feed::{Pdu, PrefixEntry};

fn invalid_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

// ---------------------------------------------------------------------------
// Connection policy
// ---------------------------------------------------------------------------

/// Read/write timeout applied to an established stream.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// First retry delay; later retries grow exponentially with jitter (the
/// same [`Backoff`] the BGP FSM uses for session retries).
const RETRY_BASE_MS: u64 = 100;
/// Retry delay ceiling.
const RETRY_MAX_MS: u64 = 2_000;
/// Seed of the retry jitter stream.
const RETRY_SEED: u64 = 0;

/// How aggressively a client chases a daemon that is down or wedged.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// Per-attempt TCP connect budget.
    pub connect_timeout: Duration,
    /// Total connect attempts before giving up (≥ 1).
    pub max_attempts: u32,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            connect_timeout: Duration::from_secs(3),
            max_attempts: 3,
        }
    }
}

/// All connect attempts to the daemon failed.
#[derive(Debug)]
pub struct ConnectError {
    /// The address every attempt targeted.
    pub addr: SocketAddr,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The error from the final attempt.
    pub last: io::Error,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "could not reach daemon at {} after {} attempt(s): {}",
            self.addr, self.attempts, self.last
        )
    }
}

impl std::error::Error for ConnectError {}

impl From<ConnectError> for io::Error {
    fn from(e: ConnectError) -> io::Error {
        io::Error::new(e.last.kind(), e.to_string())
    }
}

/// Bounded, jitter-backed connect loop shared by both clients.
fn connect_stream(addr: SocketAddr, opts: &ConnectOptions) -> Result<TcpStream, ConnectError> {
    let attempts = opts.max_attempts.max(1);
    let mut backoff = Backoff::new(RETRY_BASE_MS, RETRY_MAX_MS, RETRY_SEED);
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(backoff.next_delay_ms()));
        }
        match TcpStream::connect_timeout(&addr, opts.connect_timeout) {
            Ok(stream) => {
                let configure = stream
                    .set_read_timeout(Some(IO_TIMEOUT))
                    .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
                    .and_then(|()| stream.set_nodelay(true));
                match configure {
                    Ok(()) => return Ok(stream),
                    Err(e) => last = Some(e),
                }
            }
            Err(e) => last = Some(e),
        }
    }
    Err(ConnectError {
        addr,
        attempts,
        last: last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "no attempt recorded an error")
        }),
    })
}

// ---------------------------------------------------------------------------
// HTTP
// ---------------------------------------------------------------------------

/// A persistent HTTP/1.1 connection to the daemon's query endpoint.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connects with the default [`ConnectOptions`] (bounded connect
    /// timeout, 10-second I/O timeout, up to 3 attempts).
    ///
    /// # Errors
    ///
    /// Returns the flattened [`ConnectError`].
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        Ok(Self::connect_with_retry(addr, &ConnectOptions::default())?)
    }

    /// Connects under an explicit retry policy, keeping the typed error.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError`] once every attempt has failed.
    pub fn connect_with_retry(
        addr: SocketAddr,
        opts: &ConnectOptions,
    ) -> Result<HttpClient, ConnectError> {
        let stream = connect_stream(addr, opts)?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issues a `GET` and returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed-response errors.
    pub fn get(&mut self, path_and_query: &str) -> io::Result<(u16, String)> {
        self.request("GET", path_and_query, None)
    }

    /// Issues a `POST` with a body and returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed-response errors.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let mut req = format!("{method} {target} HTTP/1.1\r\nHost: moas-labd\r\n");
        if let Some(body) = body {
            req.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        req.push_str("\r\n");
        if let Some(body) = body {
            req.push_str(body);
        }
        self.stream.write_all(req.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| invalid_data("response head is not UTF-8"))?;
                let mut lines = head.split("\r\n");
                let status_line = lines.next().unwrap_or_default();
                let status: u16 = status_line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| invalid_data(format!("bad status line '{status_line}'")))?;
                let mut content_length = 0usize;
                for line in lines {
                    if let Some((name, value)) = line.split_once(':') {
                        if name.trim().eq_ignore_ascii_case("content-length") {
                            content_length = value
                                .trim()
                                .parse()
                                .map_err(|_| invalid_data("bad Content-Length"))?;
                        }
                    }
                }
                let total = head_end + 4 + content_length;
                while self.buf.len() < total {
                    self.fill()?;
                }
                let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
                    .map_err(|_| invalid_data("response body is not UTF-8"))?;
                self.buf.drain(..total);
                return Ok((status, body));
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Feed
// ---------------------------------------------------------------------------

/// How a [`FeedClient::serial_sync`] attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The server sent a diff; the client applied `announced` adds and
    /// `withdrawn` removals and now holds `serial`.
    Diff {
        /// Entries added by the diff.
        announced: usize,
        /// Entries removed by the diff.
        withdrawn: usize,
        /// The serial the client holds after applying.
        serial: u32,
    },
    /// The server cannot diff from the client's serial (evicted from the
    /// delta ring, or a session mismatch); the client must
    /// [`reset_sync`](FeedClient::reset_sync).
    CacheReset,
}

/// Size of the feed client's read buffer: far above the longest PDU, so
/// the undecoded part of one PDU always leaves room for the next read.
const FEED_READ_BUF: usize = 64 * 1024;

/// A blocking feed-protocol client mirroring the daemon's table.
#[derive(Debug)]
pub struct FeedClient {
    stream: TcpStream,
    /// Bytes read ahead of the decoder: `buf[start..end]` is not decoded
    /// yet. Decoding advances `start`; what is left of a PDU moves to the
    /// front only before the next read, which fills the space behind it.
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    session: Option<u16>,
    serial: u32,
    entries: BTreeSet<(Ipv4Prefix, Asn)>,
}

impl FeedClient {
    /// Connects with the default [`ConnectOptions`]. The client holds no
    /// state until the first [`reset_sync`](Self::reset_sync).
    ///
    /// # Errors
    ///
    /// Returns the flattened [`ConnectError`].
    pub fn connect(addr: SocketAddr) -> io::Result<FeedClient> {
        Ok(Self::connect_with_retry(addr, &ConnectOptions::default())?)
    }

    /// Connects under an explicit retry policy, keeping the typed error.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectError`] once every attempt has failed.
    pub fn connect_with_retry(
        addr: SocketAddr,
        opts: &ConnectOptions,
    ) -> Result<FeedClient, ConnectError> {
        let stream = connect_stream(addr, opts)?;
        Ok(FeedClient {
            stream,
            buf: vec![0; FEED_READ_BUF].into_boxed_slice(),
            start: 0,
            end: 0,
            session: None,
            serial: 0,
            entries: BTreeSet::new(),
        })
    }

    /// The session id learned from the last completed sync.
    #[must_use]
    pub fn session(&self) -> Option<u16> {
        self.session
    }

    /// The serial the client currently holds.
    #[must_use]
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// The mirrored `(prefix, origin)` entries.
    #[must_use]
    pub fn entries(&self) -> &BTreeSet<(Ipv4Prefix, Asn)> {
        &self.entries
    }

    /// Full resynchronization: sends a reset query and replaces the local
    /// mirror with the server's table. Returns the number of entries.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations: a cache reset in answer
    /// to a reset query, and a withdrawal inside the transfer (a full table
    /// has nothing to withdraw), both of which the protocol forbids.
    pub fn reset_sync(&mut self) -> io::Result<usize> {
        self.send(&Pdu::ResetQuery)?;
        // Collected whole and then built in one pass, the mirror's nodes
        // are filled in order instead of split by insert after insert.
        let mut pairs = Vec::new();
        let transfer = self.read_transfer(|entry| {
            if !entry.announce {
                return Err(invalid_data("withdrawal in a reset transfer"));
            }
            pairs.push((entry.prefix, entry.asn));
            Ok(())
        })?;
        let (session, serial) =
            transfer.ok_or_else(|| invalid_data("cache reset in answer to a reset query"))?;
        self.session = Some(session);
        self.serial = serial;
        self.entries = pairs.into_iter().collect();
        Ok(self.entries.len())
    }

    /// Incremental sync from the client's current `(session, serial)`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, protocol violations, and an error when called
    /// before any [`reset_sync`](Self::reset_sync).
    pub fn serial_sync(&mut self) -> io::Result<SyncOutcome> {
        let session = self
            .session
            .ok_or_else(|| invalid_data("serial_sync before reset_sync"))?;
        self.sync_from(session, self.serial)
    }

    /// Incremental sync from an explicit `(session, serial)` — the probe
    /// uses a deliberately wrong session to exercise the cache-reset path.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations.
    pub fn sync_from(&mut self, session: u16, serial: u32) -> io::Result<SyncOutcome> {
        self.send(&Pdu::SerialQuery { session, serial })?;
        // Applied only once the transfer is complete, so a broken one leaves
        // the mirror at the serial it holds.
        let mut diff = Vec::new();
        let transfer = self.read_transfer(|entry| {
            diff.push(entry);
            Ok(())
        })?;
        let Some((session, serial)) = transfer else {
            return Ok(SyncOutcome::CacheReset);
        };
        let mut announced = 0usize;
        let mut withdrawn = 0usize;
        for entry in diff {
            if entry.announce {
                announced += 1;
                self.entries.insert((entry.prefix, entry.asn));
            } else {
                withdrawn += 1;
                self.entries.remove(&(entry.prefix, entry.asn));
            }
        }
        self.session = Some(session);
        self.serial = serial;
        Ok(SyncOutcome::Diff {
            announced,
            withdrawn,
            serial,
        })
    }

    /// Blocks until the server pushes a serial notify (or the read times
    /// out), returning the notified serial.
    ///
    /// # Errors
    ///
    /// Returns `WouldBlock`/`TimedOut` if nothing arrives within the
    /// connection's read timeout, and protocol violations otherwise.
    pub fn wait_notify(&mut self) -> io::Result<u32> {
        match self.read_pdu()? {
            Pdu::SerialNotify { serial, .. } => Ok(serial),
            Pdu::Error { code, message } => {
                Err(invalid_data(format!("server error {code}: {message}")))
            }
            other => Err(invalid_data(format!("unexpected PDU {other:?}"))),
        }
    }

    fn send(&mut self, pdu: &Pdu) -> io::Result<()> {
        self.stream.write_all(&pdu.to_bytes())
    }

    /// Reads the full answer to one query, handing each entry of a
    /// `CacheResponse … EndOfData` transfer to `on_entry` and returning the
    /// transfer's `(session, serial)`, or `None` for a `CacheReset`. Serial
    /// notifies racing with the query are skipped.
    fn read_transfer(
        &mut self,
        mut on_entry: impl FnMut(PrefixEntry) -> io::Result<()>,
    ) -> io::Result<Option<(u16, u32)>> {
        let session = loop {
            match self.read_pdu()? {
                Pdu::SerialNotify { .. } => continue,
                Pdu::CacheReset => return Ok(None),
                Pdu::CacheResponse { session } => break session,
                Pdu::Error { code, message } => {
                    return Err(invalid_data(format!("server error {code}: {message}")))
                }
                other => return Err(invalid_data(format!("unexpected PDU {other:?}"))),
            }
        };
        loop {
            match self.read_pdu()? {
                Pdu::Prefix(entry) => on_entry(entry)?,
                Pdu::EndOfData {
                    session: end_session,
                    serial,
                } => {
                    if end_session != session {
                        return Err(invalid_data("session changed mid-transfer"));
                    }
                    return Ok(Some((session, serial)));
                }
                Pdu::Error { code, message } => {
                    return Err(invalid_data(format!("server error {code}: {message}")))
                }
                other => return Err(invalid_data(format!("unexpected PDU {other:?}"))),
            }
        }
    }

    fn read_pdu(&mut self) -> io::Result<Pdu> {
        loop {
            match Pdu::decode(&self.buf[self.start..self.end]) {
                Ok(Some((pdu, used))) => {
                    self.start += used;
                    return Ok(pdu);
                }
                Ok(None) => {
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                    let n = self.stream.read(&mut self.buf[self.end..])?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "feed closed by daemon",
                        ));
                    }
                    self.end += n;
                }
                Err(e) => return Err(invalid_data(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A port with nothing listening: bind then drop so the OS refuses
    /// connections there for the moment the test needs.
    fn dead_addr() -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    #[test]
    fn connect_gives_up_after_bounded_attempts() {
        let addr = dead_addr();
        let opts = ConnectOptions {
            connect_timeout: Duration::from_millis(500),
            max_attempts: 3,
        };
        let started = Instant::now();
        let err = HttpClient::connect_with_retry(addr, &opts).expect_err("must fail");
        assert_eq!(err.attempts, 3);
        assert_eq!(err.addr, addr);
        // Refused connections fail instantly; three attempts plus the two
        // real jittered delays (at most 150 and 300 ms) stay well under 5 s.
        assert!(started.elapsed() < Duration::from_secs(5));
        let rendered = err.to_string();
        assert!(rendered.contains("3 attempt(s)"), "message: {rendered}");
    }

    #[test]
    fn feed_connect_error_flattens_to_io_error() {
        let addr = dead_addr();
        let opts = ConnectOptions {
            connect_timeout: Duration::from_millis(500),
            max_attempts: 1,
        };
        let err = FeedClient::connect_with_retry(addr, &opts).expect_err("must fail");
        let io_err: io::Error = err.into();
        assert!(io_err.to_string().contains("could not reach daemon"));
    }
}
