//! The serving loop: accept connections, decode frames, map requests
//! onto the [`prism_frontend`] submission queues, and multiplex
//! completions back out of order.
//!
//! # Who wakes whom
//!
//! Each connection is a *reader* thread, a *writer* thread and one
//! `Connection` between them — the window, the in-flight tickets and
//! the encoded-response buffer — behind one mutex. `Connection` is a
//! plain struct whose step methods (`admit`, `respond`,
//! `collect_completions`, `take_output`) hold no thread and no lock, so
//! whoever drives the connection decides where it runs; today that is
//! the two threads below. The frame decoder is the reader's alone, so
//! it sits outside the lock: `on_bytes` decodes and submits unlocked and
//! locks only to record each frame's outcome.
//!
//! * The **reader** blocks in the transport's `read`. For every frame of
//!   what one `read` returned it decodes the request straight out of the
//!   decoder's buffer and submits it — no lock held — then takes the
//!   connection lock once: push the ticket, name the writer as the
//!   ticket's waiter ([`Ticket::register`](prism_types::Ticket::register)),
//!   check the window. It wakes the writer only when nobody else will:
//!   the ticket had already completed when it was registered, the answer
//!   needed no ticket (a refusal, a pong), or reading is over.
//! * An **executor** that completes a ticket publishes the result at
//!   once and owes the thread registered on it — the writer — an unpark,
//!   which it delivers when it finds its ready list empty, or after one
//!   pass over the partition queues at the latest
//!   ([`WakeList`](prism_types::WakeList)): with an idle executor that
//!   is right after the request, under backlog one unpark carries every
//!   answer of the pass. Still never lost: the state changes before the
//!   wake is even collected, the executor fires what it holds before it
//!   waits for work, and the list fires when dropped, so an executor
//!   that unwinds mid-pass wakes its writers too. Registration happens
//!   after the ticket is in the in-flight list and reports an
//!   already-finished request (checked under the lock the executor
//!   publishes under), so a completion racing it is seen by one side or
//!   the other.
//! * The **writer** parks. On each wake it takes the lock once, polls
//!   the in-flight tickets, encodes everything that finished into the
//!   connection's out-buffer, swaps that buffer for its own (empty) one,
//!   and hands the transport a single `write_all` — responses leave in
//!   whatever order the executors finish. Taking responses out frees
//!   window slots; the writer signals the reader only if the reader is
//!   actually stalled on the window.
//!
//! Nothing sleeps on a timer: `park` has no timeout and neither condvar
//! wait does. That is safe because every event the writer must see
//! (completion, ticketless response, end of reading) changes state
//! *before* its unpark, an unpark that precedes the `park` makes it
//! return at once, and the writer re-reads the state after every return.
//! The reader's only wait besides `read` is for a window slot, and a
//! full window always drains: in-flight tickets complete while the
//! front-end runs (it is shut down after the connections), the writer
//! then takes them out, and a failed write opens the window for good.
//! An idle connection therefore runs no code at all.
//!
//! # What is bounded
//!
//! A connection holds at most
//! [`ServerOptions::max_in_flight_per_conn`] unanswered requests —
//! in-flight tickets plus ticketless responses the writer has not taken
//! yet; at the bound the reader stops consuming frames (natural flow
//! control, no refusals), which stops one greedy client from
//! monopolising the queues. The out-buffer holds what one collection
//! finished plus those ticketless responses, so at most a window's worth
//! of responses; a buffer a large scan stretched is shrunk back after
//! the write.
//!
//! Back-pressure and refusals are part of the wire contract, not
//! connection failures: a full submission queue surfaces as a retryable
//! [`Status::Backpressure`] response, and requests arriving during a
//! graceful shutdown are refused with [`Status::ShuttingDown`] while
//! everything already submitted is still acked.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Thread;

use prism_frontend::{Frontend, FrontendOptions, ReadTicket, ScanTicket, WriteTicket};
use prism_obs::registry::{HealthReport, ShardHealthView};
use prism_obs::trace::category;
use prism_obs::ObsHub;
use prism_types::{ConcurrentKvStore, NetStats, NetStatsCells, PrismError, Result};

use crate::protocol::{
    decode_request, encode_response_into, peek_request_id, split_scan_response, FrameDecoder,
    FrameRef, Request, Response, ResponseBody, Status, MAX_FRAME,
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

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
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
    /// Name `writer` as the thread to unpark when the ticket completes;
    /// `true` if it already has.
    fn register(&self, writer: &Thread) -> bool {
        match &self.ticket {
            TicketKind::Write(ticket) => ticket.register(writer.clone()),
            TicketKind::Read(ticket) => ticket.register(writer.clone()),
            TicketKind::Scan(ticket) => ticket.register(writer.clone()),
        }
    }

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

/// What the reader owes the connection for one frame: a ticket to watch,
/// or an answer that needed none (a refusal, a pong).
enum Outcome {
    Submitted(InFlight),
    Answered(Response),
}

/// What the writer took out of a [`Connection`] in one go.
struct Output {
    /// Frames in the buffer handed over.
    frames: u64,
    /// Responses they answer (a streamed scan is one response in several
    /// frames), whether encoded or discarded.
    responses: u64,
}

/// Out-buffer capacity a connection keeps between writes.
const OUT_BUFFER_KEEP: usize = MAX_FRAME / 4;

/// One connection's serving state: the pipelining window, the requests
/// in flight and the encoded responses waiting for the transport. Plain
/// data with non-blocking step methods — see the module docs for who
/// calls them and under which lock.
struct Connection {
    window: usize,
    inflight: Vec<InFlight>,
    /// Encoded response frames not yet handed to the transport.
    out: Vec<u8>,
    out_frames: u64,
    /// Responses `out` answers (or, after a failed write, discards).
    out_responses: u64,
    /// Of those, the ticketless ones: they keep their window slot until
    /// the writer takes `out`, or a peer streaming bad frames and never
    /// reading would grow `out` without bound.
    unsent_ticketless: usize,
    /// The reader waits on [`ConnShared::window_open`].
    reader_stalled: bool,
    reading_done: bool,
    /// The peer stopped reading: responses are discarded from here on
    /// and the window no longer holds the reader back.
    write_failed: bool,
}

impl Connection {
    fn new(window: usize) -> Connection {
        Connection {
            window,
            inflight: Vec::new(),
            out: Vec::new(),
            out_frames: 0,
            out_responses: 0,
            unsent_ticketless: 0,
            reader_stalled: false,
            reading_done: false,
            write_failed: false,
        }
    }

    /// Requests admitted and not yet taken out by the writer.
    fn pending(&self) -> usize {
        self.inflight.len() + self.unsent_ticketless
    }

    fn window_full(&self) -> bool {
        self.pending() >= self.window && !self.write_failed
    }

    /// Track a submitted request and name `writer` as its ticket's
    /// waiter. Returns `true` if the ticket had already completed — no
    /// unpark will come from the executor, so the caller wakes the
    /// writer. The ticket is in `inflight` before it is registered: a
    /// writer woken by the completion always finds it there.
    fn admit(&mut self, request: InFlight, writer: &Thread) -> bool {
        self.inflight.push(request);
        self.inflight.last().expect("just pushed").register(writer)
    }

    /// Queue a response that needed no ticket.
    fn respond(&mut self, response: Response, counters: &NetStatsCells) {
        self.unsent_ticketless += 1;
        self.encode(response, counters);
    }

    /// Move every finished request out of the in-flight list and into
    /// the out-buffer.
    fn collect_completions(&mut self, counters: &NetStatsCells) {
        let mut i = 0;
        while i < self.inflight.len() {
            match self.inflight[i].poll() {
                Some(response) => {
                    self.inflight.swap_remove(i);
                    self.encode(response, counters);
                }
                None => i += 1,
            }
        }
    }

    /// Append `response` to the out-buffer. A scan result larger than
    /// one frame streams out as continuation frames sharing the response
    /// id; the terminal frame clears the `more` marker. Everything else
    /// is a single frame.
    fn encode(&mut self, response: Response, counters: &NetStatsCells) {
        self.out_responses += 1;
        if self.write_failed {
            return; // the ticket is observed, the answer has no reader
        }
        if matches!(response.body, ResponseBody::Entries(_)) {
            for part in split_scan_response(response) {
                self.encode_frame(&part, counters);
            }
        } else {
            self.encode_frame(&response, counters);
        }
    }

    fn encode_frame(&mut self, response: &Response, counters: &NetStatsCells) {
        if encode_response_into(&mut self.out, response).is_err() {
            // A response still too large to frame (one pathological
            // entry): refuse it instead of killing the connection.
            bump(&counters.protocol_errors);
            let refusal = Response::refusal(
                response.id,
                response.opcode,
                Status::ServerError,
                "response exceeded the frame size limit",
            );
            encode_response_into(&mut self.out, &refusal).expect("refusals are small");
        }
        self.out_frames += 1;
    }

    /// Hand the encoded responses to the writer by swapping the
    /// out-buffer with `spare` (whose contents are dropped), which frees
    /// the window slots of the ticketless ones.
    fn take_output(&mut self, spare: &mut Vec<u8>) -> Output {
        spare.clear();
        std::mem::swap(&mut self.out, spare);
        self.unsent_ticketless = 0;
        Output {
            frames: std::mem::take(&mut self.out_frames),
            responses: std::mem::take(&mut self.out_responses),
        }
    }

    /// Nothing left to read, await or write.
    fn finished(&self) -> bool {
        self.reading_done && self.pending() == 0 && self.out.is_empty()
    }
}

/// A [`Connection`] shared by its reader and writer threads.
struct ConnShared {
    state: Mutex<Connection>,
    /// Signalled by the writer when it frees window slots (or gives up
    /// writing) while the reader is stalled on the window.
    window_open: Condvar,
}

impl ConnShared {
    /// The peer is unreachable (or the writer is gone): stop holding the
    /// reader back and EOF its `read`, so the connection winds down.
    fn fail_writes(&self, closer: &ReadCloser) {
        lock(&self.state).write_failed = true;
        self.window_open.notify_all();
        closer();
    }
}

/// Runs its closure when dropped — on return and on unwind alike. The
/// reader and the writer each wait for the other with no timeout, so
/// each must release the other however it leaves.
struct OnExit<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnExit<F> {
    fn drop(&mut self) {
        (self.0)()
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
    /// Decode one intact frame payload and submit it. No lock is held.
    fn on_frame(&self, payload: &[u8]) -> Outcome {
        self.counters
            .bytes_received
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let (id, request) = match decode_request(payload) {
            Ok(decoded) => decoded,
            Err(err) => {
                bump(&self.counters.protocol_errors);
                return Outcome::Answered(Response::refusal(
                    peek_request_id(payload),
                    0,
                    Status::ProtocolError,
                    err.to_string(),
                ));
            }
        };
        bump(&self.counters.frames_received);
        let opcode = request.opcode();
        if self.shutdown.load(Ordering::Acquire) {
            bump(&self.counters.shutdown_refusals);
            return Outcome::Answered(Response::from_error(id, opcode, &PrismError::ShuttingDown));
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
                return Outcome::Answered(Response::ok(
                    id,
                    opcode,
                    prism_types::Nanos::ZERO,
                    ResponseBody::Ack,
                ));
            }
        };
        match submitted {
            Ok(ticket) => Outcome::Submitted(InFlight { id, opcode, ticket }),
            Err(err) => {
                match err {
                    PrismError::Backpressure { .. } => {
                        bump(&self.counters.backpressure_rejections);
                    }
                    PrismError::ShuttingDown => bump(&self.counters.shutdown_refusals),
                    _ => {}
                }
                Outcome::Answered(Response::from_error(id, opcode, &err))
            }
        }
    }

    /// Record one frame's outcome on the connection — the reader's one
    /// lock acquisition per frame — and then wait, if the window is now
    /// full, until the writer has taken something out.
    fn enqueue(&self, conn: &ConnShared, writer: &Thread, outcome: Outcome) {
        let now = self.counters.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.counters
            .max_in_flight
            .fetch_max(now, Ordering::Relaxed);
        let mut state = lock(&conn.state);
        let wake_writer = match outcome {
            Outcome::Submitted(request) => state.admit(request, writer),
            Outcome::Answered(response) => {
                state.respond(response, &self.counters);
                true
            }
        };
        self.counters
            .max_conn_in_flight
            .fetch_max(state.pending() as u64, Ordering::Relaxed);
        if !state.window_full() {
            drop(state);
            if wake_writer {
                writer.unpark();
            }
            return;
        }
        if wake_writer {
            // Before the wait: a window full of ticketless responses
            // drains only if the writer knows about them.
            writer.unpark();
        }
        state.reader_stalled = true;
        while state.window_full() {
            state = conn
                .window_open
                .wait(state)
                .unwrap_or_else(|poison| poison.into_inner());
        }
        state.reader_stalled = false;
    }

    /// Submit every frame that `bytes` completes. `false` once the stream
    /// is beyond re-synchronisation and reading must stop.
    fn on_bytes(
        &self,
        conn: &ConnShared,
        writer: &Thread,
        decoder: &mut FrameDecoder,
        bytes: &[u8],
    ) -> bool {
        decoder.push(bytes);
        loop {
            let outcome = match decoder.next_frame_ref() {
                Ok(Some(FrameRef::Intact(payload))) => self.on_frame(payload),
                Ok(Some(FrameRef::Corrupt { id })) => {
                    // The frame failed its header CRC: refuse just that
                    // request (best-effort id) and keep the connection —
                    // the stream is still in sync.
                    bump(&self.counters.protocol_errors);
                    Outcome::Answered(Response::refusal(
                        id,
                        0,
                        Status::ProtocolError,
                        "request frame failed its checksum",
                    ))
                }
                Ok(None) => return true,
                Err(_) => {
                    // An unsound length prefix: the writer still flushes
                    // everything in flight.
                    bump(&self.counters.protocol_errors);
                    return false;
                }
            };
            self.enqueue(conn, writer, outcome);
        }
    }

    /// Reader loop: block in `read`, hand what arrived to
    /// [`Self::on_bytes`].
    fn read_loop(
        &self,
        conn: &ConnShared,
        writer: &Thread,
        reader: &mut dyn Read,
        closer: &ReadCloser,
    ) {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 8192];
        loop {
            match reader.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => {
                    if !self.on_bytes(conn, writer, &mut decoder, &buf[..n]) {
                        closer();
                        return;
                    }
                }
            }
        }
    }

    /// Writer loop: park until woken, then move everything that finished
    /// to the transport in one write. Returns once the reader is done
    /// and nothing is pending.
    fn write_loop(&self, conn: &ConnShared, writer: &mut dyn Write, closer: &ReadCloser) {
        let mut batch = Vec::new();
        loop {
            let (output, finished, reader_stalled) = {
                let mut state = lock(&conn.state);
                state.collect_completions(&self.counters);
                let output = state.take_output(&mut batch);
                (output, state.finished(), state.reader_stalled)
            };
            if output.responses > 0 {
                if reader_stalled {
                    conn.window_open.notify_one();
                }
                self.counters
                    .in_flight
                    .fetch_sub(output.responses, Ordering::AcqRel);
            }
            if !batch.is_empty() {
                // Counted before the write, so a peer that has read an
                // answer finds it counted; a failed write takes it back.
                let (frames, bytes) = (output.frames, batch.len() as u64);
                self.counters
                    .frames_sent
                    .fetch_add(frames, Ordering::Relaxed);
                self.counters.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
                if writer.write_all(&batch).is_err() {
                    // The peer is gone. Keep collecting so no ticket is
                    // left unobserved; the answers are discarded.
                    self.counters
                        .frames_sent
                        .fetch_sub(frames, Ordering::Relaxed);
                    self.counters.bytes_sent.fetch_sub(bytes, Ordering::Relaxed);
                    conn.fail_writes(closer);
                }
                batch.clear();
                batch.shrink_to(OUT_BUFFER_KEEP);
            }
            if finished {
                let _ = writer.flush();
                return;
            }
            // A completion, a ticketless response or the end of reading
            // that landed since the collection above has already
            // unparked this thread, so this returns at once.
            std::thread::park();
        }
    }

    /// Serve one connection to completion (both halves).
    fn serve_conn(&self, conn_id: u64, conn: Conn) {
        self.obs
            .trace
            .record(category::CONN_OPEN, None, conn_id, conn.peer().to_string());
        let closer = conn.read_closer();
        let Conn {
            mut reader,
            mut writer,
            ..
        } = conn;
        let state = ConnShared {
            state: Mutex::new(Connection::new(self.max_in_flight_per_conn)),
            window_open: Condvar::new(),
        };
        std::thread::scope(|scope| {
            let writing = std::thread::Builder::new()
                .name(format!("prism-net-wr-{conn_id}"))
                .spawn_scoped(scope, || {
                    // A panic included: an abandoned ticket panics the
                    // `poll` that observes it, and a reader stalled on
                    // the window has nobody else to release it.
                    let _release_reader = OnExit(|| state.fail_writes(&closer));
                    self.write_loop(&state, writer.as_mut(), &closer)
                })
                .expect("spawning a writer thread");
            {
                let _release_writer = OnExit(|| {
                    lock(&state.state).reading_done = true;
                    writing.thread().unpark();
                });
                self.read_loop(&state, writing.thread(), reader.as_mut(), &closer);
            }
            let _ = writing.join();
        });
        bump(&self.counters.connections_closed);
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
