//! HTTP/JSON admin plane over the existing [`Listener`]/[`Conn`]
//! transport.
//!
//! An [`AdminServer`] serves a minimal HTTP/1.1 surface off an
//! [`ObsHub`] — the same hub the data-plane layers record into — on any
//! transport the wire protocol runs on, real TCP or the in-process
//! duplex pipe alike:
//!
//! | Endpoint          | Body                                           |
//! |-------------------|------------------------------------------------|
//! | `GET /metrics`    | Prometheus text exposition of the registry     |
//! | `GET /stats.json` | Full [`MetricsSnapshot`] as one JSON object    |
//! | `GET /health`     | Per-shard health rollup (always HTTP 200; the  |
//! |                   | `healthy` field carries the verdict)           |
//! | `GET /trace?last=N` | Last `N` trace events as JSON lines          |
//!
//! Unknown paths get 404, non-GET methods 405, a malformed query 400 —
//! all without dropping the connection (HTTP/1.1 keep-alive; the client
//! closes, or sends `Connection: close`).
//!
//! The scrape side is [`AdminClient`] (persistent) or the one-shot
//! [`http_get`]; both speak just enough HTTP for these four endpoints
//! so tests and the bench runner need no external HTTP stack.
//!
//! [`MetricsSnapshot`]: prism_obs::MetricsSnapshot

use std::io::{self, Read, Write};
use std::sync::Arc;

use prism_obs::ObsHub;

use crate::transport::{Acceptor, Conn, Listener};

/// Default number of trace events served by `GET /trace` when the
/// `last` query parameter is absent.
pub(crate) const DEFAULT_TRACE_EVENTS: usize = 256;

/// Hard cap on the size of one admin request's head (request line plus
/// headers); larger requests are refused with 400.
const MAX_REQUEST_HEAD: usize = 16 * 1024;

/// One parsed admin-plane response, as read back by [`AdminClient`].
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (empty when absent).
    pub content_type: String,
    /// The response body.
    pub body: String,
}

struct Reply {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
}

impl Reply {
    fn ok(content_type: &'static str, body: String) -> Reply {
        Reply {
            status: 200,
            reason: "OK",
            content_type,
            body,
        }
    }

    fn error(status: u16, reason: &'static str, detail: &str) -> Reply {
        Reply {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: format!("{detail}\n"),
        }
    }
}

/// Route one request. Pure: transport and HTTP framing stay in the
/// serving loop, so this is directly unit-testable.
fn route(hub: &ObsHub, method: &str, target: &str) -> Reply {
    if method != "GET" {
        return Reply::error(405, "Method Not Allowed", "only GET is supported");
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    };
    match path {
        "/metrics" => Reply::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            hub.registry.snapshot().to_prometheus(),
        ),
        "/stats.json" => Reply::ok("application/json", hub.registry.snapshot().to_json()),
        "/health" => {
            // Health degradations are data, not server failures: the
            // body carries the verdict and the status stays 200 so
            // scrapers can distinguish "degraded engine" from "broken
            // admin plane".
            let report = hub.registry.snapshot().health.unwrap_or_default();
            Reply::ok("application/json", report.to_json())
        }
        "/trace" => {
            let last = match query {
                None => DEFAULT_TRACE_EVENTS,
                Some(query) => match parse_last(query) {
                    Some(last) => last,
                    None => {
                        return Reply::error(
                            400,
                            "Bad Request",
                            "expected a query of the form last=N",
                        )
                    }
                },
            };
            Reply::ok("application/x-ndjson", hub.trace.dump_json_lines(last))
        }
        _ => Reply::error(404, "Not Found", "unknown path"),
    }
}

/// Parse a `last=N` query string; `None` on anything else.
fn parse_last(query: &str) -> Option<usize> {
    let mut last = None;
    for pair in query.split('&') {
        let (key, value) = pair.split_once('=')?;
        match key {
            "last" => last = Some(value.parse::<usize>().ok()?),
            _ => return None,
        }
    }
    last
}

/// Read one request head (request line + headers) off the stream.
/// `Ok(None)` on a clean EOF before any byte of a request.
fn read_request_head(reader: &mut dyn Read, carry: &mut Vec<u8>) -> io::Result<Option<String>> {
    loop {
        if let Some(end) = find_head_end(carry) {
            let head_bytes: Vec<u8> = carry.drain(..end + 4).collect();
            let head = String::from_utf8(head_bytes)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
            return Ok(Some(head));
        }
        if carry.len() > MAX_REQUEST_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let mut buf = [0u8; 4096];
        let n = reader.read(&mut buf)?;
        if n == 0 {
            if carry.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF mid-request",
            ));
        }
        carry.extend_from_slice(&buf[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_reply(writer: &mut dyn Write, reply: &Reply, keep_alive: bool) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reply.status,
        reply.reason,
        reply.content_type,
        reply.body.len(),
        connection,
    )?;
    writer.write_all(reply.body.as_bytes())?;
    writer.flush()
}

/// Serve HTTP requests on one connection until the peer closes (or
/// asks to, or breaks protocol).
fn serve_conn(hub: &ObsHub, conn: Conn) {
    let Conn {
        mut reader,
        mut writer,
        ..
    } = conn;
    let mut carry = Vec::new();
    while let Ok(Some(head)) = read_request_head(reader.as_mut(), &mut carry) {
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let (method, target) = match (parts.next(), parts.next(), parts.next()) {
            (Some(method), Some(target), Some(version)) if version.starts_with("HTTP/1") => {
                (method, target)
            }
            _ => {
                let reply = Reply::error(400, "Bad Request", "malformed request line");
                let _ = write_reply(writer.as_mut(), &reply, false);
                break;
            }
        };
        let mut keep_alive = true;
        let mut body_len = 0usize;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("content-length") {
                body_len = value.parse().unwrap_or(0);
            }
        }
        // GETs have no body, but drain any the client sent so the
        // stream stays in sync for the next keep-alive request.
        if body_len > MAX_REQUEST_HEAD
            || (body_len > 0 && !drain_body(reader.as_mut(), &mut carry, body_len))
        {
            let reply = Reply::error(400, "Bad Request", "unsupported request body");
            let _ = write_reply(writer.as_mut(), &reply, false);
            break;
        }
        let reply = route(hub, method, target);
        if write_reply(writer.as_mut(), &reply, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

fn drain_body(reader: &mut dyn Read, carry: &mut Vec<u8>, mut remaining: usize) -> bool {
    let buffered = remaining.min(carry.len());
    carry.drain(..buffered);
    remaining -= buffered;
    let mut buf = [0u8; 4096];
    while remaining > 0 {
        match reader.read(&mut buf[..remaining.min(4096)]) {
            Ok(0) | Err(_) => return false,
            Ok(n) => remaining -= n,
        }
    }
    true
}

/// A running admin-plane server: accepts connections from a
/// [`Listener`] and answers the four observability endpoints on each.
/// See the [module docs](self) for the endpoint table.
pub struct AdminServer {
    acceptor: Acceptor,
}

impl AdminServer {
    /// Start serving `hub` on `listener`.
    pub fn start(hub: Arc<ObsHub>, listener: Arc<dyn Listener>) -> AdminServer {
        AdminServer {
            acceptor: Acceptor::start(listener, "prism-admin", move |_, conn| {
                serve_conn(&hub, conn)
            }),
        }
    }

    /// The address scrapers dial.
    pub fn local_addr(&self) -> String {
        self.acceptor.local_addr()
    }

    /// Stop accepting and tear down every admin connection. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A persistent scrape client: issues `GET`s over one keep-alive
/// connection and parses the responses.
pub struct AdminClient {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    carry: Vec<u8>,
}

impl AdminClient {
    /// Wrap a dialed connection.
    pub fn new(conn: Conn) -> AdminClient {
        AdminClient {
            reader: conn.reader,
            writer: conn.writer,
            carry: Vec::new(),
        }
    }

    /// Issue `GET path` and read the full response.
    ///
    /// # Errors
    ///
    /// Any transport error, or a response this minimal parser cannot
    /// frame (no `Content-Length`).
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        write!(
            self.writer,
            "GET {path} HTTP/1.1\r\nHost: prism-admin\r\n\r\n"
        )?;
        self.writer.flush()?;
        let head = read_request_head(self.reader.as_mut(), &mut self.carry)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF before response"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
        let mut content_type = String::new();
        let mut content_length: Option<usize> = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-type") {
                content_type = value.to_string();
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            }
        }
        let len = content_length.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "response without Content-Length",
            )
        })?;
        while self.carry.len() < len {
            let mut buf = [0u8; 4096];
            let n = self.reader.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-body"));
            }
            self.carry.extend_from_slice(&buf[..n]);
        }
        let body_bytes: Vec<u8> = self.carry.drain(..len).collect();
        let body = String::from_utf8(body_bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok(HttpResponse {
            status,
            content_type,
            body,
        })
    }
}

/// One-shot scrape: dial-agnostic `GET path` over a fresh connection.
///
/// # Errors
///
/// See [`AdminClient::get`].
pub fn http_get(conn: Conn, path: &str) -> io::Result<HttpResponse> {
    AdminClient::new(conn).get(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex_listener;
    use prism_obs::trace::category;
    use prism_types::NetStats;

    fn test_hub() -> Arc<ObsHub> {
        let hub = Arc::new(ObsHub::default());
        hub.registry.set_net_source(Box::new(|| {
            Some(NetStats {
                frames_sent: 3,
                ..NetStats::default()
            })
        }));
        hub.registry.histogram("test_ns").record(1_000);
        hub.trace
            .record(category::COMPACTION_INSTALL, Some(0), 1, "demoted=4");
        hub
    }

    #[test]
    fn routes_cover_the_four_endpoints_and_errors() {
        let hub = test_hub();
        let metrics = route(&hub, "GET", "/metrics");
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("net_frames_sent 3"));
        let stats = route(&hub, "GET", "/stats.json");
        assert_eq!(stats.status, 200);
        assert!(stats.body.contains("\"net_frames_sent\":3"));
        let health = route(&hub, "GET", "/health");
        assert_eq!(health.status, 200, "health is 200 even without a source");
        let trace = route(&hub, "GET", "/trace?last=10");
        assert_eq!(trace.status, 200);
        assert!(trace.body.contains("\"category\":\"compaction_install\""));
        assert_eq!(route(&hub, "GET", "/trace?last=x").status, 400);
        assert_eq!(route(&hub, "GET", "/trace?bogus=1").status, 400);
        assert_eq!(route(&hub, "GET", "/nope").status, 404);
        assert_eq!(route(&hub, "POST", "/metrics").status, 405);
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let hub = test_hub();
        let (listener, connector) = duplex_listener();
        let mut server = AdminServer::start(hub, Arc::new(listener));
        let mut client = AdminClient::new(connector.connect().expect("dial"));
        for _ in 0..3 {
            let response = client.get("/metrics").expect("scrape");
            assert_eq!(response.status, 200);
            assert!(response.content_type.starts_with("text/plain"));
            assert!(response.body.contains("net_frames_sent 3"));
        }
        let missing = client.get("/absent").expect("scrape");
        assert_eq!(missing.status, 404);
        // The 404 must not have dropped the connection.
        assert_eq!(client.get("/health").expect("scrape").status, 200);
        server.shutdown();
    }

    #[test]
    fn one_shot_http_get_scrapes_trace_lines() {
        let hub = test_hub();
        let (listener, connector) = duplex_listener();
        let mut server = AdminServer::start(hub, Arc::new(listener));
        let response =
            http_get(connector.connect().expect("dial"), "/trace?last=5").expect("scrape");
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "application/x-ndjson");
        assert_eq!(response.body.lines().count(), 1);
        server.shutdown();
    }

    #[test]
    fn parse_last_accepts_only_the_last_key() {
        assert_eq!(parse_last("last=7"), Some(7));
        assert_eq!(parse_last("last=0"), Some(0));
        assert_eq!(parse_last("last"), None);
        assert_eq!(parse_last("last=-3"), None);
        assert_eq!(parse_last("n=3"), None);
        assert_eq!(parse_last("last=3&other=1"), None);
    }
}
