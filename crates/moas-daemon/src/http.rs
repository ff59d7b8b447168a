//! A minimal hand-rolled HTTP/1.1 layer: just enough server-side parsing
//! for the daemon's query/control endpoints and just enough formatting for
//! its JSON and text responses. Persistent connections are supported; a
//! body is framed by `Content-Length` alone, so a request with
//! `Transfer-Encoding` is refused.

use std::error::Error;
use std::fmt;

/// A request the parser cannot accept (also covers limits, so a hostile
/// peer cannot buffer unbounded data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The status the server should answer before closing: 400 for
    /// malformed requests, 431 when a size limit is exceeded, 408 when a
    /// read deadline expires.
    pub status: u16,
    /// Human-readable reason, used in the error response body.
    pub message: String,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request ({}): {}", self.status, self.message)
    }
}

impl Error for HttpError {}

fn bad(message: impl Into<String>) -> HttpError {
    HttpError {
        status: 400,
        message: message.into(),
    }
}

fn too_large(message: impl Into<String>) -> HttpError {
    HttpError {
        status: 431,
        message: message.into(),
    }
}

/// The error a server answers when a client feeds a request too slowly
/// (per-connection read deadline expired mid-request).
#[must_use]
pub fn timeout_error() -> HttpError {
    HttpError {
        status: 408,
        message: "request not completed within the read deadline".to_string(),
    }
}

/// Largest accepted head (request line + headers) in bytes.
const MAX_HEAD: usize = 8 * 1024;
/// Largest accepted body in bytes (ingest batches stay well under this).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// The path portion of the target, percent-decoded.
    pub path: String,
    /// Decoded `(name, value)` query parameters, in order.
    pub query: Vec<(String, String)>,
    /// `(lower-cased name, value)` headers, in order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// Parses one request from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` does not yet hold the complete head
    /// and body (read more and retry), or `Ok(Some((request, consumed)))`.
    /// A head still arriving is judged line by line, so `Ok(None)` means
    /// every complete line is well-formed.
    ///
    /// # Errors
    ///
    /// Returns an [`HttpError`] for malformed or oversized requests; the
    /// caller should answer 400 and close.
    pub fn parse(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
        let Some(head_end) = find_head_end(buf) else {
            refuse_partial_head(buf)?;
            return Ok(None);
        };
        if head_end > MAX_HEAD {
            return Err(too_large("request head too large"));
        }
        let head =
            std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("request head is not UTF-8"))?;
        let (mut request, content_length) = parse_head(head)?;
        let total = head_end + 4 + content_length;
        let Some(body) = buf.get(head_end + 4..total) else {
            return Ok(None);
        };
        request.body = body.to_vec();
        Ok(Some((request, total)))
    }

    /// The first query parameter named `name`.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads a request head (without its blank last line) into a request with
/// an empty body, and the length of the body to come.
fn parse_head(head: &str) -> Result<(Request, usize), HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| bad("missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let version = parts.next().ok_or_else(|| bad("missing HTTP version"))?;
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(bad(format!("unsupported version '{version}'")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header line '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Only a Content-Length frames a body here: a transfer-coded body could
    // not be told from the next request.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(bad("Transfer-Encoding is not supported"));
    }
    let mut content_length = None;
    for (_, value) in headers.iter().filter(|(n, _)| n == "content-length") {
        let length = value
            .parse::<usize>()
            .map_err(|_| bad("unparsable Content-Length"))?;
        if content_length.is_some_and(|first| first != length) {
            return Err(bad("conflicting Content-Length values"));
        }
        content_length = Some(length);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(too_large("body too large"));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(name)?, percent_decode(value)?));
        }
    }

    let keep_alive = match headers.iter().find(|(n, _)| n == "connection") {
        Some((_, v)) => !v.eq_ignore_ascii_case("close"),
        None => version == "HTTP/1.1",
    };

    let request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        keep_alive,
    };
    Ok((request, content_length))
}

/// Refuses a head still arriving that no further bytes can complete: one
/// already past the size limit, one that is not UTF-8, or one with a
/// complete line that is malformed. The line still arriving is not judged.
fn refuse_partial_head(buf: &[u8]) -> Result<(), HttpError> {
    // The blank line may start where the buffer ends with part of one.
    let partial_end = (1..4)
        .rev()
        .find(|&n| buf.ends_with(&b"\r\n\r\n"[..n]))
        .unwrap_or(0);
    if buf.len() - partial_end > MAX_HEAD {
        return Err(too_large("request head too large"));
    }
    if std::str::from_utf8(buf).is_err_and(|e| e.error_len().is_some()) {
        return Err(bad("request head is not UTF-8"));
    }
    match buf.windows(2).rposition(|w| w == b"\r\n") {
        Some(lines_end) => {
            let lines = std::str::from_utf8(&buf[..lines_end])
                .map_err(|_| bad("request head is not UTF-8"))?;
            parse_head(lines).map(drop)
        }
        None => Ok(()),
    }
}

/// Decodes `%xx` escapes and `+`-as-space.
fn percent_decode(input: &str) -> Result<String, HttpError> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| bad("truncated percent escape"))?;
                // Exactly two hex digits: `u8::from_str_radix` would also
                // take a sign, so `%+F` would decode.
                let value = hex
                    .iter()
                    .try_fold(0, |value, &b| {
                        Some(value * 16 + char::from(b).to_digit(16)?)
                    })
                    .ok_or_else(|| bad("bad percent escape"))?;
                out.push(value as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| bad("percent-decoded text is not UTF-8"))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Formats a complete response with `Content-Length` and (when the
/// connection is about to close) `Connection: close`.
#[must_use]
pub fn response(status: u16, content_type: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(format!("HTTP/1.1 {status} {}\r\n", reason(status)).as_bytes());
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    if !keep_alive {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
    out
}

/// An `application/json` response.
#[must_use]
pub fn json_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    response(status, "application/json", body, keep_alive)
}

/// A `text/plain` response (used by `/metrics` and parse errors).
#[must_use]
pub fn text_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    response(status, "text/plain; charset=utf-8", body, keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_get_with_query() {
        let raw = b"GET /validity?prefix=10.1.0.0%2F16&asn=64512 HTTP/1.1\r\nHost: x\r\n\r\n";
        let (req, used) = Request::parse(raw).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/validity");
        assert_eq!(req.query_param("prefix"), Some("10.1.0.0/16"));
        assert_eq!(req.query_param("asn"), Some("64512"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn unencoded_slash_in_query_also_works() {
        let raw = b"GET /validity?prefix=10.1.0.0/16&asn=7 HTTP/1.1\r\n\r\n";
        let (req, _) = Request::parse(raw).unwrap().unwrap();
        assert_eq!(req.query_param("prefix"), Some("10.1.0.0/16"));
    }

    #[test]
    fn waits_for_the_full_body() {
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc";
        assert_eq!(Request::parse(raw).unwrap(), None);
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcde";
        let (req, used) = Request::parse(raw).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert_eq!(req.body, b"abcde");
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, used) = Request::parse(raw).unwrap().unwrap();
        assert_eq!(req.path, "/a");
        let (req2, used2) = Request::parse(&raw[used..]).unwrap().unwrap();
        assert_eq!(req2.path, "/b");
        assert_eq!(used + used2, raw.len());
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!Request::parse(raw).unwrap().unwrap().0.keep_alive);
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        assert!(!Request::parse(raw).unwrap().unwrap().0.keep_alive);
        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(Request::parse(raw).unwrap().unwrap().0.keep_alive);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Request::parse(b"NOT-HTTP\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            Request::parse(b"GET / HTTP/2.0\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert!(Request::parse(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
        assert!(Request::parse(b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n").is_err());
    }

    #[test]
    fn percent_escapes_take_exactly_two_hex_digits() {
        let (req, _) = Request::parse(b"GET /a%2Fb%2f HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/a/b/");
        for raw in ["GET /a%+F HTTP/1.1\r\n\r\n", "GET /?k=%-1 HTTP/1.1\r\n\r\n"] {
            let err = Request::parse(raw.as_bytes()).unwrap_err();
            assert_eq!(
                (err.status, err.message.as_str()),
                (400, "bad percent escape")
            );
        }
    }

    #[test]
    fn transfer_encoding_is_refused() {
        // The chunked body must not be read as the next request.
        let raw = b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(Request::parse(raw).unwrap_err().status, 400);
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde";
        let err = Request::parse(raw).unwrap_err();
        assert_eq!(
            (err.status, err.message.as_str()),
            (400, "conflicting Content-Length values")
        );
        // Repeating the same value is harmless.
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc";
        let (req, used) = Request::parse(raw).unwrap().unwrap();
        assert_eq!((req.body.as_slice(), used), (&b"abc"[..], raw.len()));
    }

    #[test]
    fn a_head_still_arriving_is_judged_line_by_line() {
        // A complete line that is malformed can never become a request…
        assert_eq!(
            Request::parse(b"GET / HTTP/2.0\r\nHost: x")
                .unwrap_err()
                .status,
            400
        );
        assert!(Request::parse(b"GET / HTTP/1.1\r\nbroken\r\n").is_err());
        assert!(Request::parse(b"GET / HTTP/1.1\r\nHost: \xFFx").is_err());
        // …while the line still arriving, or a char cut short, may.
        assert_eq!(Request::parse(b"GET / HTTP/1.1\r\nbroken").unwrap(), None);
        assert_eq!(
            Request::parse(b"GET / HTTP/1.1\r\nHost: \xC3").unwrap(),
            None
        );
        // A head of exactly the limit may still get its blank line.
        let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(MAX_HEAD, b'a');
        for end in ["", "\r", "\r\n", "\r\n\r"] {
            let buf = [head.as_slice(), end.as_bytes()].concat();
            assert_eq!(Request::parse(&buf).unwrap(), None, "{end:?}");
        }
        let buf = [head.as_slice(), b"a"].concat();
        assert_eq!(Request::parse(&buf).unwrap_err().status, 431);
    }

    #[test]
    fn size_limits_answer_431() {
        // An over-long head errors rather than buffering forever…
        let long = vec![b'a'; MAX_HEAD + 1];
        assert_eq!(Request::parse(&long).unwrap_err().status, 431);
        // …including a completed head past the limit…
        let mut huge = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD));
        huge.extend_from_slice(b"\r\n\r\n");
        assert_eq!(Request::parse(&huge).unwrap_err().status, 431);
        // …and a declared body beyond the cap.
        let raw = format!(
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(Request::parse(raw.as_bytes()).unwrap_err().status, 431);
    }

    #[test]
    fn timeout_error_is_a_408() {
        let err = timeout_error();
        assert_eq!(err.status, 408);
        let rendered = String::from_utf8(text_response(err.status, &err.message, false)).unwrap();
        assert!(rendered.starts_with("HTTP/1.1 408 Request Timeout\r\n"));
    }

    #[test]
    fn response_formatting_includes_length_and_close() {
        let bytes = json_response(200, "{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(!text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let bytes = text_response(404, "nope", false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }
}
