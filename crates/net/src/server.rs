//! The serving loop: accept connections, decode frames, map requests
//! onto the [`prism_frontend`] submission queues, and multiplex
//! completions back out of order.
//!
//! Each connection gets two threads: a *reader* that decodes frames and
//! submits them (holding at most [`ServerOptions::max_in_flight_per_conn`]
//! unanswered requests — the per-connection window that stops one greedy
//! client from monopolising the queues), and a *responder* that polls the
//! in-flight tickets non-blockingly and writes each response as soon as
//! its completion fires, in whatever order the executors finish.
//!
//! Back-pressure and refusals are part of the wire contract, not
//! connection failures: a full submission queue surfaces as a retryable
//! [`Status::Backpressure`] response, and requests arriving during a
//! graceful shutdown are refused with [`Status::ShuttingDown`] while
//! everything already submitted is still acked.

use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use prism_frontend::{Frontend, FrontendOptions, ReadTicket, ScanTicket, WriteTicket};
use prism_obs::registry::{HealthReport, ShardHealthView};
use prism_obs::trace::category;
use prism_obs::ObsHub;
use prism_types::{ConcurrentKvStore, NetStats, NetStatsCells, PrismError, Result};

use crate::protocol::{
    decode_request, encode_response, peek_request_id, split_scan_response, Frame, FrameDecoder,
    Request, Response, ResponseBody, Status,
};
use crate::transport::{Acceptor, Conn, Listener, ReadCloser};

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Options of the embedded submission front-end.
    pub frontend: FrontendOptions,
    /// Most unanswered requests one connection may have outstanding;
    /// beyond it the reader stops consuming frames until responses drain
    /// (natural flow control, no refusals).
    pub max_in_flight_per_conn: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            frontend: FrontendOptions::default(),
            max_in_flight_per_conn: 64,
        }
    }
}

impl ServerOptions {
    fn validate(&self) -> Result<()> {
        if self.max_in_flight_per_conn == 0 {
            return Err(PrismError::InvalidConfig(
                "max_in_flight_per_conn must be non-zero".into(),
            ));
        }
        self.frontend.validate()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The ticket of one submitted request, tagged by result shape.
enum TicketKind {
    Write(WriteTicket),
    Read(ReadTicket),
    Scan(ScanTicket),
}

/// One accepted request whose completion is pending.
struct InFlight {
    id: u64,
    opcode: u8,
    ticket: TicketKind,
}

impl InFlight {
    /// Non-blocking poll; a completed ticket becomes a wire response.
    fn poll(&mut self) -> Option<Response> {
        let outcome = match &mut self.ticket {
            TicketKind::Write(ticket) => ticket.poll()?.map(|latency| (latency, ResponseBody::Ack)),
            TicketKind::Read(ticket) => ticket
                .poll()?
                .map(|lookup| (lookup.latency, ResponseBody::Value(lookup.value))),
            TicketKind::Scan(ticket) => ticket
                .poll()?
                .map(|scan| (scan.latency, ResponseBody::Entries(scan.entries))),
        };
        Some(match outcome {
            Ok((latency, body)) => Response::ok(self.id, self.opcode, latency, body),
            Err(err) => Response::from_error(self.id, self.opcode, &err),
        })
    }
}

/// Per-connection state shared by the reader and responder threads.
#[derive(Default)]
struct ConnInner {
    inflight: Vec<InFlight>,
    /// Responses ready without a ticket (refusals, pings, protocol
    /// errors), in arrival order.
    ready: Vec<Response>,
    reading_done: bool,
    write_failed: bool,
}

struct ConnShared {
    inner: Mutex<ConnInner>,
    cv: Condvar,
}

impl ConnShared {
    fn pending(inner: &ConnInner) -> usize {
        inner.inflight.len() + inner.ready.len()
    }
}

struct NetShared<E: ConcurrentKvStore + 'static> {
    frontend: Frontend<E>,
    obs: Arc<ObsHub>,
    shutdown: AtomicBool,
    counters: NetStatsCells,
    max_in_flight_per_conn: usize,
}

impl<E: ConcurrentKvStore + 'static> NetShared<E> {
    fn note_in_flight(&self) {
        let now = self.counters.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.counters
            .max_in_flight
            .fetch_max(now, Ordering::Relaxed);
    }

    /// Queue one response for the responder and account the in-flight
    /// gauge (the responder decrements when it writes or drops it).
    fn push_ready(&self, conn: &ConnShared, response: Response) {
        self.note_in_flight();
        let pending = {
            let mut inner = lock(&conn.inner);
            inner.ready.push(response);
            ConnShared::pending(&inner) as u64
        };
        self.counters
            .max_conn_in_flight
            .fetch_max(pending, Ordering::Relaxed);
        conn.cv.notify_all();
    }

    /// Decode and act on one complete frame payload.
    fn handle_frame(&self, conn: &ConnShared, payload: &[u8]) {
        self.counters
            .bytes_received
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let (id, request) = match decode_request(payload) {
            Ok(decoded) => decoded,
            Err(err) => {
                self.counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.push_ready(
                    conn,
                    Response::refusal(
                        peek_request_id(payload),
                        0,
                        Status::ProtocolError,
                        err.to_string(),
                    ),
                );
                return;
            }
        };
        self.counters
            .frames_received
            .fetch_add(1, Ordering::Relaxed);
        let opcode = request.opcode();
        if self.shutdown.load(Ordering::Acquire) {
            self.counters
                .shutdown_refusals
                .fetch_add(1, Ordering::Relaxed);
            self.push_ready(
                conn,
                Response::from_error(id, opcode, &PrismError::ShuttingDown),
            );
            return;
        }
        let submitted: Result<TicketKind> = match &request {
            Request::Put { key, value } => self
                .frontend
                .try_submit_put(key, value)
                .map(TicketKind::Write),
            Request::Delete { key } => self.frontend.try_submit_delete(key).map(TicketKind::Write),
            Request::Get { key } => self.frontend.try_submit_get(key).map(TicketKind::Read),
            Request::Scan { start, count } => self
                .frontend
                .try_submit_scan(start, *count as usize)
                .map(TicketKind::Scan),
            Request::Batch { batch } => {
                self.frontend.try_submit_batch(batch).map(TicketKind::Write)
            }
            Request::Ping => {
                let pong = Response::ok(id, opcode, prism_types::Nanos::ZERO, ResponseBody::Ack);
                self.push_ready(conn, pong);
                return;
            }
        };
        match submitted {
            Ok(ticket) => {
                self.note_in_flight();
                let pending = {
                    let mut inner = lock(&conn.inner);
                    inner.inflight.push(InFlight { id, opcode, ticket });
                    ConnShared::pending(&inner) as u64
                };
                self.counters
                    .max_conn_in_flight
                    .fetch_max(pending, Ordering::Relaxed);
                conn.cv.notify_all();
            }
            Err(err) => {
                match err {
                    PrismError::Backpressure { .. } => {
                        self.counters
                            .backpressure_rejections
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    PrismError::ShuttingDown => {
                        self.counters
                            .shutdown_refusals
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                self.push_ready(conn, Response::from_error(id, opcode, &err));
            }
        }
    }

    /// Block until the connection's in-flight window has room (or the
    /// connection is failing / draining, in which case reading on is
    /// harmless — later frames get refusals).
    fn wait_for_window(&self, conn: &ConnShared) {
        let mut inner = lock(&conn.inner);
        while ConnShared::pending(&inner) >= self.max_in_flight_per_conn && !inner.write_failed {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Timed so a missed notify or shutdown race never wedges the
            // reader.
            let (guard, _) = conn
                .cv
                .wait_timeout(inner, Duration::from_micros(200))
                .unwrap_or_else(|poison| poison.into_inner());
            inner = guard;
        }
    }

    /// Reader loop: pump bytes into the frame decoder, dispatch frames.
    fn read_loop(&self, conn: &ConnShared, reader: &mut dyn Read, closer: &ReadCloser) {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 8192];
        'read: loop {
            let n = match reader.read(&mut buf) {
                Ok(0) | Err(_) => break 'read,
                Ok(n) => n,
            };
            decoder.push(&buf[..n]);
            loop {
                match decoder.next_frame() {
                    Ok(Some(Frame::Intact(payload))) => {
                        self.wait_for_window(conn);
                        self.handle_frame(conn, &payload);
                    }
                    Ok(Some(Frame::Corrupt { id })) => {
                        // The frame failed its header CRC: refuse just
                        // that request (best-effort id) and keep the
                        // connection — the stream is still in sync.
                        // The refusal occupies a window slot like any
                        // response, or a peer streaming bad frames and
                        // never reading would grow `ready` without bound.
                        self.counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        self.wait_for_window(conn);
                        self.push_ready(
                            conn,
                            Response::refusal(
                                id,
                                0,
                                Status::ProtocolError,
                                "request frame failed its checksum",
                            ),
                        );
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Unrecoverable framing corruption: the stream
                        // cannot be re-synchronised. Stop reading; the
                        // responder still flushes everything in flight.
                        self.counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        closer();
                        break 'read;
                    }
                }
            }
        }
    }

    /// Responder loop: poll in-flight tickets, write completions out of
    /// order, stop once the reader is done and nothing is pending.
    fn respond_loop(
        &self,
        conn: &ConnShared,
        writer: &mut dyn std::io::Write,
        closer: &ReadCloser,
    ) {
        let mut write_failed = false;
        loop {
            let mut to_write: Vec<Response> = Vec::new();
            let done = {
                let mut inner = lock(&conn.inner);
                to_write.append(&mut inner.ready);
                let mut i = 0;
                while i < inner.inflight.len() {
                    if let Some(response) = inner.inflight[i].poll() {
                        to_write.push(response);
                        inner.inflight.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                inner.reading_done && inner.inflight.is_empty() && inner.ready.is_empty()
            };
            let idle = to_write.is_empty();
            if !idle {
                // Window space freed: wake a reader blocked on it.
                conn.cv.notify_all();
            }
            for response in to_write {
                self.counters.in_flight.fetch_sub(1, Ordering::AcqRel);
                if write_failed {
                    continue; // keep draining tickets, discard the acks
                }
                // A scan result larger than one frame streams out as
                // continuation frames sharing the response id; the
                // terminal frame clears the `more` marker. Everything
                // else passes through as a single frame.
                for part in split_scan_response(response) {
                    let frame = match encode_response(&part) {
                        Ok(frame) => frame,
                        Err(_) => {
                            // A response still too large to frame (one
                            // pathological entry): refuse it instead of
                            // killing the connection.
                            self.counters
                                .protocol_errors
                                .fetch_add(1, Ordering::Relaxed);
                            let refusal = Response::refusal(
                                part.id,
                                part.opcode,
                                Status::ServerError,
                                "response exceeded the frame size limit",
                            );
                            encode_response(&refusal).expect("refusals are small")
                        }
                    };
                    if writer.write_all(&frame).is_err() {
                        // Peer is gone. Stop writing, EOF the reader, and
                        // keep polling so no ticket is left unobserved.
                        write_failed = true;
                        lock(&conn.inner).write_failed = true;
                        conn.cv.notify_all();
                        closer();
                        break;
                    }
                    self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .bytes_sent
                        .fetch_add(frame.len() as u64, Ordering::Relaxed);
                }
            }
            if done {
                let _ = writer.flush();
                return;
            }
            if idle {
                // Completions fire on executor threads that cannot signal
                // this condvar, so poll with a short nap instead of a
                // wakeup protocol; 50µs keeps added latency well under
                // the engine's simulated service times.
                let inner = lock(&conn.inner);
                let _ = conn
                    .cv
                    .wait_timeout(inner, Duration::from_micros(50))
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        }
    }

    /// Serve one connection to completion (both halves).
    fn serve_conn(self: &Arc<Self>, conn_id: u64, conn: Conn) {
        self.obs
            .trace
            .record(category::CONN_OPEN, None, conn_id, conn.peer().to_string());
        let closer = conn.read_closer();
        let Conn {
            mut reader,
            mut writer,
            ..
        } = conn;
        let state = Arc::new(ConnShared {
            inner: Mutex::new(ConnInner::default()),
            cv: Condvar::new(),
        });
        let responder = {
            let shared = Arc::clone(self);
            let state = Arc::clone(&state);
            let closer = closer.clone();
            std::thread::Builder::new()
                .name(format!("prism-net-resp-{conn_id}"))
                .spawn(move || shared.respond_loop(&state, writer.as_mut(), &closer))
                .expect("spawning a responder thread")
        };
        self.read_loop(&state, reader.as_mut(), &closer);
        {
            let mut inner = lock(&state.inner);
            inner.reading_done = true;
        }
        state.cv.notify_all();
        let _ = responder.join();
        self.counters
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
        self.obs
            .trace
            .record(category::CONN_CLOSE, None, conn_id, "");
    }
}

/// A running network server over an engine: accepts connections from a
/// [`Listener`] and serves the wire protocol on each. See the module docs
/// for the threading model and the back-pressure / shutdown contract.
pub struct NetServer<E: ConcurrentKvStore + 'static> {
    shared: Arc<NetShared<E>>,
    acceptor: Acceptor,
}

impl<E: ConcurrentKvStore + 'static> NetServer<E> {
    /// Start serving `engine` on `listener`.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] for invalid `options`.
    pub fn start(
        engine: Arc<E>,
        listener: Arc<dyn Listener>,
        options: ServerOptions,
    ) -> Result<Self> {
        Self::start_with_obs(engine, listener, options, None)
    }

    /// Start serving `engine` on `listener`, recording into `obs` (a
    /// private hub when `None`). The hub's registry gets the net-stats
    /// and health sources installed, alongside whatever the embedded
    /// front-end (and, if the engine was opened with the same hub, the
    /// engine itself) already registered — so one
    /// [`MetricsRegistry::snapshot`] covers the whole stack.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] for invalid `options`.
    ///
    /// [`MetricsRegistry::snapshot`]: prism_obs::MetricsRegistry::snapshot
    pub fn start_with_obs(
        engine: Arc<E>,
        listener: Arc<dyn Listener>,
        options: ServerOptions,
        obs: Option<Arc<ObsHub>>,
    ) -> Result<Self> {
        options.validate()?;
        let hub = obs.unwrap_or_default();
        let frontend = Frontend::start_with_obs(engine, options.frontend, Some(Arc::clone(&hub)))?;
        let shared = Arc::new(NetShared {
            frontend,
            obs: hub,
            shutdown: AtomicBool::new(false),
            counters: NetStatsCells::default(),
            max_in_flight_per_conn: options.max_in_flight_per_conn,
        });
        let weak = Arc::downgrade(&shared);
        shared.obs.registry.set_net_source(Box::new(move || {
            weak.upgrade().map(|shared| shared.counters.snapshot())
        }));
        let weak = Arc::downgrade(&shared);
        shared.obs.registry.set_health_source(Box::new(move || {
            weak.upgrade().map(|shared| {
                let engine = shared.frontend.engine();
                HealthReport {
                    partitions: (0..engine.shard_count())
                        .map(|shard| ShardHealthView {
                            shard,
                            health: engine.shard_health(shard),
                        })
                        .collect(),
                    quarantined_objects: engine.quarantined_objects(),
                    outstanding_tickets: shared.frontend.outstanding_tickets(),
                }
            })
        }));
        let serving = Arc::clone(&shared);
        let acceptor = Acceptor::start(listener, "prism-net", move |conn_id, conn| {
            serving
                .counters
                .connections_accepted
                .fetch_add(1, Ordering::Relaxed);
            serving.serve_conn(conn_id, conn)
        });
        Ok(NetServer { shared, acceptor })
    }

    /// The address clients dial.
    pub fn local_addr(&self) -> String {
        self.acceptor.local_addr()
    }

    /// Snapshot of the server's cumulative wire statistics.
    pub fn stats(&self) -> NetStats {
        self.shared.counters.snapshot()
    }

    /// The observability hub this server records into (shared, or the
    /// private one created at start). Hand it to an
    /// [`AdminServer`](crate::admin::AdminServer) to serve the metrics
    /// over HTTP.
    pub fn obs_hub(&self) -> Arc<ObsHub> {
        Arc::clone(&self.shared.obs)
    }

    /// Statistics of the embedded submission front-end.
    pub fn frontend_stats(&self) -> prism_types::FrontendStats {
        self.shared.frontend.stats()
    }

    /// Tickets handed out by the embedded front-end that are still
    /// unanswered. Zero once the server is idle — disconnect tests use
    /// this to prove a vanished client strands nothing.
    pub fn outstanding_tickets(&self) -> u64 {
        self.shared.frontend.outstanding_tickets()
    }

    /// The engine being served.
    pub fn engine(&self) -> Arc<E> {
        Arc::clone(self.shared.frontend.engine())
    }

    /// Graceful drain: stop accepting, refuse frames not yet decoded
    /// with [`Status::ShuttingDown`], ack everything already submitted,
    /// then tear down every connection and the front-end's queues.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        // Set before the readers are interrupted, so frames they have not
        // decoded yet are refused rather than submitted.
        self.shared.shutdown.store(true, Ordering::Release);
        if !self.acceptor.shutdown() {
            return;
        }
        // Tickets dropped by disconnected connections may still be
        // completing inside the front-end; wait until nothing dangles.
        self.shared.frontend.drain();
    }
}

impl<E: ConcurrentKvStore + 'static> Drop for NetServer<E> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
