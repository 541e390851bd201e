//! A pipelining wire client.
//!
//! [`NetClient`] assigns request ids, keeps every unanswered request
//! encoded for retransmission, and matches responses back by id in
//! whatever order the server delivers them. Retryable refusals
//! ([`Status::Backpressure`], [`Status::Degraded`]) are resent
//! transparently with a small backoff, so a caller using the blocking
//! conveniences only ever sees requests that landed or failed for real.
//!
//! # What reaches the transport, and when
//!
//! [`NetClient::send`] *queues* the encoded frame; it does not write.
//! Everything queued goes to the transport in one `write_all`
//!
//! * immediately before the client blocks in a transport `read` — so
//!   [`NetClient::wait`], [`NetClient::drain`] and the blocking
//!   conveniences flush by construction, and a pipelining caller hands
//!   over a window's worth of requests per write (and per wake of the
//!   peer) instead of one;
//! * on [`NetClient::flush`], for a caller that sends and then watches
//!   something other than this client for the effect;
//! * when the queue passes 64 KiB, so a caller that never waits still
//!   makes progress and holds bounded memory.
//!
//! A flush that fails does not stop the read it precedes: answers the
//! server had already written still arrive, and the loss surfaces as
//! [`PrismError::Disconnected`] when the read side ends.
//!
//! # Reconnecting
//!
//! A client built with [`NetClient::with_dialer`] additionally survives
//! connection loss: on a failed read or flush it re-dials with capped
//! exponential backoff and replays exactly the unacknowledged frames
//! (everything sent — flushed or still queued — but not yet answered),
//! in original send order. The semantics are at-least-once — a request
//! whose response was in flight when the connection died is re-executed
//! on the new connection, which is safe for this protocol's idempotent
//! operations (last-writer-wins puts/deletes/batches, pure reads).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::time::Duration;

use prism_types::{Key, Nanos, PrismError, Result, Value, WriteBatch};

use crate::protocol::{
    decode_response, encode_request, FrameDecoder, FrameRef, Request, Response, ResponseBody,
    Status,
};
use crate::transport::Conn;

struct Pending {
    id: u64,
    /// The encoded frame, kept for back-pressure retransmission and
    /// replay after a reconnect.
    frame: Vec<u8>,
    retries: u32,
}

/// Queued bytes past which [`NetClient::send`] flushes by itself. Far
/// below `MAX_FRAME`, far above a pipelining window of point requests.
const FLUSH_AT: usize = 64 * 1024;

/// Most consecutive failed dial attempts before a connection loss is
/// surfaced as [`PrismError::Disconnected`].
const MAX_RECONNECT_ATTEMPTS: u32 = 64;
/// Nap before the first reconnect attempt; doubles per failed attempt up
/// to [`RECONNECT_BACKOFF_CAP`].
const RECONNECT_BACKOFF: Duration = Duration::from_micros(500);
/// Ceiling for the exponential reconnect backoff.
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Re-dials the server after a connection loss. Called once per
/// reconnect attempt; each call must produce a fresh connection.
pub(crate) type Dialer = Box<dyn FnMut() -> std::io::Result<Conn> + Send>;

/// A client connection speaking the wire protocol. Single-threaded by
/// design: one client pipelines many requests on one connection; drive
/// several clients from several threads for connection-level parallelism.
pub struct NetClient {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    decoder: FrameDecoder,
    /// Where `read` lands bytes on their way into the decoder.
    read_buf: Box<[u8]>,
    /// Frames queued by `send` (and resends) that no flush has handed to
    /// the transport yet. Each is also in `pending`, so losing this
    /// buffer with its connection loses nothing a replay would not send.
    out: Vec<u8>,
    next_id: u64,
    /// Sent and unanswered requests. Ids are handed out in sequence, so
    /// this is in id order — which is also replay order — and a lookup
    /// is a binary search, not a hash.
    pending: VecDeque<Pending>,
    /// Responses received while waiting for a different id (few: at most
    /// a pipeline's worth).
    received: Vec<Response>,
    /// Re-dials the server on connection loss; `None` means a lost
    /// connection is terminal ([`PrismError::Disconnected`]).
    dialer: Option<Dialer>,
    /// Most transparent resends of one request before its back-pressure
    /// refusal is surfaced to the caller.
    pub max_retries: u32,
    /// Nap between a back-pressure refusal and the resend.
    pub retry_backoff: Duration,
    /// Back-pressure refusals observed (including retried ones).
    pub backpressure_seen: u64,
    /// Successful reconnects performed (each replays the unacked frames).
    pub reconnects: u64,
    /// Response frames discarded because they failed the header CRC
    /// (each triggers a best-effort resend of the affected request).
    pub corrupt_frames_seen: u64,
    /// Entries of streamed scan responses whose terminal frame has not
    /// arrived yet, keyed by request id.
    partial_scans: HashMap<u64, Vec<(Key, Value)>>,
}

impl NetClient {
    /// Wrap an established connection. The client cannot reconnect; use
    /// [`NetClient::with_dialer`] for a client that survives connection
    /// loss.
    pub fn new(conn: Conn) -> NetClient {
        NetClient {
            reader: conn.reader,
            writer: conn.writer,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 8192].into_boxed_slice(),
            out: Vec::new(),
            next_id: 1,
            pending: VecDeque::new(),
            received: Vec::new(),
            dialer: None,
            max_retries: 10_000,
            retry_backoff: Duration::from_micros(100),
            backpressure_seen: 0,
            reconnects: 0,
            corrupt_frames_seen: 0,
            partial_scans: HashMap::new(),
        }
    }

    /// Dial the server and wrap the connection in a client that re-dials
    /// on connection loss, replaying the unacknowledged frames.
    ///
    /// # Errors
    ///
    /// [`PrismError::Disconnected`] if the initial dial fails.
    pub fn with_dialer(mut dialer: Dialer) -> Result<NetClient> {
        let conn = dialer().map_err(|_| PrismError::Disconnected)?;
        let mut client = NetClient::new(conn);
        client.dialer = Some(dialer);
        Ok(client)
    }

    /// Drop the current connection and re-dial with capped exponential
    /// backoff, then replay every unacknowledged frame in original send
    /// order. A replay failure counts as a failed attempt and re-dials.
    fn reconnect_and_replay(&mut self) -> Result<()> {
        if self.dialer.is_none() {
            return Err(PrismError::Disconnected);
        }
        let mut backoff = RECONNECT_BACKOFF;
        let mut attempts = 0u32;
        'dial: loop {
            if attempts >= MAX_RECONNECT_ATTEMPTS {
                return Err(PrismError::Disconnected);
            }
            attempts += 1;
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(RECONNECT_BACKOFF_CAP);
            let dialer = self.dialer.as_mut().expect("checked above");
            let conn = match dialer() {
                Ok(conn) => conn,
                Err(_) => continue 'dial,
            };
            self.reader = conn.reader;
            self.writer = conn.writer;
            // The old stream died mid-frame for all we know; any
            // buffered partial bytes belong to it, not the new one. The
            // same goes for half-assembled streamed scans: the replayed
            // request re-streams every chunk from the start.
            self.decoder = FrameDecoder::new();
            self.partial_scans.clear();
            // Whatever was queued is in `pending` and replayed from there.
            self.out.clear();
            for pending in &self.pending {
                if self.writer.write_all(&pending.frame).is_err() {
                    continue 'dial;
                }
            }
            self.reconnects += 1;
            return Ok(());
        }
    }

    fn pending_index(&self, id: u64) -> Option<usize> {
        self.pending
            .binary_search_by_key(&id, |pending| pending.id)
            .ok()
    }

    /// Queue request `id`'s frame again if it is still unanswered. Both
    /// callers go back to reading, which flushes before it blocks.
    fn resend(&mut self, id: u64) {
        if let Some(index) = self.pending_index(id) {
            self.out.extend_from_slice(&self.pending[index].frame);
        }
    }

    /// Hand everything queued to the transport in one write. The queue
    /// is empty afterwards either way: on failure the frames live on in
    /// `pending`.
    fn write_queued(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.writer.write_all(&self.out);
        self.out.clear();
        written
    }

    /// Hand every queued request to the transport now. Only a caller that
    /// sends and then does not wait on this client needs it: every
    /// blocking read flushes first.
    ///
    /// # Errors
    ///
    /// [`PrismError::Disconnected`] if the transport rejects the write
    /// and the client cannot reconnect (with a dialer it re-dials and
    /// replays instead).
    pub fn flush(&mut self) -> Result<()> {
        if self.write_queued().is_err() {
            // The reconnect replays every pending frame, which covers
            // everything that was queued.
            self.reconnect_and_replay()?;
        }
        Ok(())
    }

    /// Queue a request without waiting; returns its id for
    /// [`Self::wait`]. The frame reaches the transport with the next
    /// flush — see the module docs for what flushes.
    ///
    /// # Errors
    ///
    /// [`PrismError::Protocol`] if the request cannot be encoded,
    /// [`PrismError::Disconnected`] if the queue reached its bound and
    /// the transport rejected the flush.
    pub fn send(&mut self, request: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(id, request)?;
        self.out.extend_from_slice(&frame);
        // Registered before any reconnect, which replays it too.
        self.pending.push_back(Pending {
            id,
            frame,
            retries: 0,
        });
        if self.out.len() > FLUSH_AT {
            if let Err(err) = self.flush() {
                self.pending.pop_back();
                return Err(err);
            }
        }
        Ok(id)
    }

    /// Block until the response for `id` arrives, transparently resending
    /// on retryable back-pressure refusals.
    ///
    /// # Errors
    ///
    /// [`PrismError::Disconnected`] if the server hangs up first,
    /// [`PrismError::Protocol`] on an undecodable response, or if `id`
    /// is one this client handed out and no longer awaits (an earlier
    /// `wait` or `drain` already returned its answer, so none will come).
    /// An id this client never handed out is read for like any other:
    /// the answer to a frame written beneath the client is routed by it.
    pub fn wait(&mut self, id: u64) -> Result<Response> {
        // Only answers to *other* ids are stashed below, so one look
        // before reading is enough.
        if let Some(at) = self.received.iter().position(|r| r.id == id) {
            return Ok(self.received.swap_remove(at));
        }
        if (1..self.next_id).contains(&id) && self.pending_index(id).is_none() {
            return Err(PrismError::Protocol(format!(
                "request id {id} was already answered and its answer taken"
            )));
        }
        loop {
            let response = match self.read_response() {
                Ok(response) => response,
                Err(PrismError::Disconnected) => {
                    self.reconnect_and_replay()?;
                    continue;
                }
                Err(err) => return Err(err),
            };
            let for_id = response.id;
            if response.more {
                // A continuation chunk of a streamed scan: stash its
                // entries and keep reading — the request stays pending
                // until the terminal frame arrives.
                if let ResponseBody::Entries(entries) = response.body {
                    self.partial_scans
                        .entry(for_id)
                        .or_default()
                        .extend(entries);
                }
                continue;
            }
            let mut response = response;
            if let Some(mut acc) = self.partial_scans.remove(&for_id) {
                // Terminal frame of a streamed scan: stitch the stashed
                // chunks and this tail back into one response.
                if let ResponseBody::Entries(tail) = response.body {
                    acc.extend(tail);
                    response.body = ResponseBody::Entries(acc);
                }
            }
            let index = self.pending_index(for_id);
            if response.status.is_retryable() {
                self.backpressure_seen += 1;
                if let Some(pending) = index.map(|index| &mut self.pending[index]) {
                    if pending.retries < self.max_retries {
                        pending.retries += 1;
                        std::thread::sleep(self.retry_backoff);
                        self.resend(for_id);
                        continue;
                    }
                }
                // Retries exhausted (or an id we never sent): surface it.
            }
            if let Some(index) = index {
                self.pending.remove(index);
            }
            if for_id == id {
                return Ok(response);
            }
            self.received.push(response);
        }
    }

    /// Wait for every pending request, discarding the responses (errors
    /// and refusals included) — a cheap pipeline barrier. Answers an
    /// earlier [`Self::wait`] stashed while it read for another id are
    /// discarded with them: a later `wait` on any id handed out before
    /// the barrier is the [`PrismError::Protocol`] error of an answer
    /// already taken.
    ///
    /// # Errors
    ///
    /// [`PrismError::Disconnected`] if the server hangs up first.
    pub fn drain(&mut self) -> Result<()> {
        let ids: Vec<u64> = self.pending.iter().map(|pending| pending.id).collect();
        for id in ids {
            let _ = self.wait(id)?;
        }
        self.received.clear();
        self.partial_scans.clear();
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response> {
        loop {
            // Responses decode straight out of the decoder's buffer.
            match self.decoder.next_frame_ref()? {
                Some(FrameRef::Intact(payload)) => return decode_response(payload),
                Some(FrameRef::Corrupt { id }) => {
                    // A response frame was corrupted on the wire. The
                    // request itself may have executed, so resend it
                    // (every request is idempotent) if the best-effort
                    // id matches something pending; otherwise the frame
                    // is simply dropped and the stream continues.
                    self.corrupt_frames_seen += 1;
                    self.resend(id);
                    continue;
                }
                None => {}
            }
            // About to block: the peer gets everything queued first. A
            // failed write does not end the reading — what the server
            // already answered is still on its way, and the end of the
            // read side reports the loss — unless a dialer can replay.
            if self.write_queued().is_err() && self.dialer.is_some() {
                return Err(PrismError::Disconnected);
            }
            let n = self
                .reader
                .read(&mut self.read_buf)
                .map_err(|_| PrismError::Disconnected)?;
            if n == 0 {
                return Err(PrismError::Disconnected);
            }
            self.decoder.push(&self.read_buf[..n]);
        }
    }

    fn expect_ok(response: Response) -> Result<Response> {
        match response.status {
            Status::Ok => Ok(response),
            Status::ShuttingDown => Err(PrismError::ShuttingDown),
            Status::Backpressure => Err(PrismError::Backpressure {
                partition: 0,
                depth: 0,
            }),
            Status::ServerError => Err(PrismError::Io(response.message)),
            Status::ProtocolError => Err(PrismError::Protocol(response.message)),
            // The wire does not carry the partition index; the message
            // has it for humans, retry logic only needs the variant.
            Status::Degraded => Err(PrismError::Degraded { partition: 0 }),
            Status::Corruption => Err(PrismError::Corruption(response.message)),
        }
    }

    /// Blocking put.
    ///
    /// # Errors
    ///
    /// Transport errors and non-ok statuses, mapped to [`PrismError`].
    pub fn put(&mut self, key: Key, value: Value) -> Result<Nanos> {
        let id = self.send(&Request::Put { key, value })?;
        let response = Self::expect_ok(self.wait(id)?)?;
        Ok(response.latency)
    }

    /// Blocking delete.
    ///
    /// # Errors
    ///
    /// Transport errors and non-ok statuses, mapped to [`PrismError`].
    pub fn delete(&mut self, key: Key) -> Result<Nanos> {
        let id = self.send(&Request::Delete { key })?;
        let response = Self::expect_ok(self.wait(id)?)?;
        Ok(response.latency)
    }

    /// Blocking point lookup.
    ///
    /// # Errors
    ///
    /// Transport errors and non-ok statuses, mapped to [`PrismError`].
    pub fn get(&mut self, key: Key) -> Result<Option<Value>> {
        let id = self.send(&Request::Get { key })?;
        let response = Self::expect_ok(self.wait(id)?)?;
        match response.body {
            ResponseBody::Value(value) => Ok(value),
            other => Err(PrismError::Protocol(format!(
                "get answered with a non-value body {other:?}"
            ))),
        }
    }

    /// Blocking range scan.
    ///
    /// # Errors
    ///
    /// Transport errors and non-ok statuses, mapped to [`PrismError`].
    pub fn scan(&mut self, start: Key, count: u32) -> Result<Vec<(Key, Value)>> {
        let id = self.send(&Request::Scan { start, count })?;
        let response = Self::expect_ok(self.wait(id)?)?;
        match response.body {
            ResponseBody::Entries(entries) => Ok(entries),
            other => Err(PrismError::Protocol(format!(
                "scan answered with a non-entries body {other:?}"
            ))),
        }
    }

    /// Blocking atomic batch.
    ///
    /// # Errors
    ///
    /// Transport errors and non-ok statuses, mapped to [`PrismError`].
    pub fn batch(&mut self, batch: WriteBatch) -> Result<Nanos> {
        let id = self.send(&Request::Batch { batch })?;
        let response = Self::expect_ok(self.wait(id)?)?;
        Ok(response.latency)
    }

    /// Blocking liveness probe.
    ///
    /// # Errors
    ///
    /// Transport errors and non-ok statuses, mapped to [`PrismError`].
    pub fn ping(&mut self) -> Result<()> {
        let id = self.send(&Request::Ping)?;
        Self::expect_ok(self.wait(id)?)?;
        Ok(())
    }
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("in_flight", &self.pending.len())
            .field("backpressure_seen", &self.backpressure_seen)
            .field("reconnects", &self.reconnects)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_response, opcode};
    use crate::transport::duplex_pair;
    use std::io::Cursor;
    use std::sync::{Arc, Mutex};

    /// Every `write` call the client made on one connection, in order;
    /// calls past `healthy_writes` fail with `BrokenPipe`.
    #[derive(Clone, Default)]
    struct WriteLog {
        writes: Arc<Mutex<Vec<Vec<u8>>>>,
        healthy_writes: Option<usize>,
    }

    impl WriteLog {
        fn failing_after(healthy_writes: usize) -> WriteLog {
            WriteLog {
                healthy_writes: Some(healthy_writes),
                ..WriteLog::default()
            }
        }

        fn writes(&self) -> Vec<Vec<u8>> {
            self.writes.lock().expect("write log").clone()
        }
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut writes = self.writes.lock().expect("write log");
            if self.healthy_writes.is_some_and(|n| writes.len() >= n) {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A connection whose read side plays `script` and then EOFs, and
    /// whose write side is `log`.
    fn scripted_conn(script: Vec<u8>, log: &WriteLog) -> Conn {
        Conn {
            reader: Box::new(Cursor::new(script)),
            writer: Box::new(log.clone()),
            closer: Arc::new(|| {}),
            peer: "scripted".to_string(),
        }
    }

    fn put(id: u64) -> Request {
        Request::Put {
            key: Key::from_id(id),
            value: Value::filled(32, id as u8),
        }
    }

    /// Acks for `ids`, in that order, as the server would frame them.
    fn acks(ids: &[u64]) -> Vec<u8> {
        ids.iter()
            .flat_map(|&id| {
                let ack = Response::ok(id, opcode::PUT, Nanos::ZERO, ResponseBody::Ack);
                encode_response(&ack).expect("an ack fits a frame")
            })
            .collect()
    }

    fn frames(ids: std::ops::RangeInclusive<u64>) -> Vec<u8> {
        ids.flat_map(|id| encode_request(id, &put(id)).expect("a put fits a frame"))
            .collect()
    }

    #[test]
    fn sends_queue_until_a_wait_blocks_and_then_leave_in_one_write() {
        let log = WriteLog::default();
        let mut client = NetClient::new(scripted_conn(acks(&[1, 2, 3, 4, 5]), &log));
        for id in 1..=5 {
            assert_eq!(client.send(&put(id)).expect("send"), id);
        }
        assert!(log.writes().is_empty(), "`send` only queues");
        assert_eq!(client.pending.len(), 5);
        assert_eq!(client.wait(5).expect("answered").id, 5);
        assert_eq!(log.writes(), vec![frames(1..=5)]);
        // The other four answers arrived with the fifth: no read, no
        // flush, no write.
        for id in 1..=4 {
            assert_eq!(client.wait(id).expect("stashed").id, id);
        }
        assert_eq!(log.writes().len(), 1);
        assert_eq!(client.pending.len(), 0);
    }

    #[test]
    fn flush_writes_what_is_queued_once_and_nothing_when_nothing_is() {
        let log = WriteLog::default();
        let mut client = NetClient::new(scripted_conn(Vec::new(), &log));
        client.flush().expect("an empty flush");
        assert!(log.writes().is_empty());
        client.send(&put(1)).expect("send");
        client.send(&put(2)).expect("send");
        client.flush().expect("flush");
        client.flush().expect("an empty flush");
        assert_eq!(log.writes(), vec![frames(1..=2)]);
    }

    #[test]
    fn a_caller_that_never_waits_is_flushed_at_the_queue_bound() {
        let log = WriteLog::default();
        let mut client = NetClient::new(scripted_conn(Vec::new(), &log));
        let big = Request::Put {
            key: Key::from_id(7),
            value: Value::filled(20_000, 7),
        };
        let frame_len = encode_request(1, &big).expect("fits").len();
        for _ in 0..10 {
            client.send(&big).expect("send");
        }
        // Four frames pass 64 KiB, so ten sends flushed twice and hold two.
        let writes = log.writes();
        assert_eq!(writes.len(), 2);
        assert!(writes.iter().all(|write| write.len() == 4 * frame_len));
        assert_eq!(client.out.len(), 2 * frame_len);
    }

    #[test]
    fn a_frame_still_queued_when_the_connection_dies_is_replayed_exactly_once() {
        // The first connection takes one write and then breaks; it never
        // answers. The second answers both requests.
        let first = WriteLog::failing_after(1);
        let second = WriteLog::default();
        let mut conns = vec![
            scripted_conn(acks(&[1, 2]), &second),
            scripted_conn(Vec::new(), &first),
        ];
        let mut client = NetClient::with_dialer(Box::new(move || {
            conns
                .pop()
                .ok_or_else(|| std::io::ErrorKind::NotConnected.into())
        }))
        .expect("the first dial");
        client.send(&put(1)).expect("send");
        client.flush().expect("flush");
        client.send(&put(2)).expect("send");
        // The flush before the blocking read fails: re-dial, replay.
        assert_eq!(client.wait(2).expect("answered after the replay").id, 2);
        assert_eq!(client.wait(1).expect("stashed").id, 1);
        assert_eq!(client.reconnects, 1);
        assert_eq!(first.writes(), vec![frames(1..=1)]);
        // Both unanswered frames, once each: the queued one is replayed
        // from `pending` and not flushed a second time.
        assert_eq!(second.writes().concat(), frames(1..=2));
    }

    #[test]
    fn a_failed_flush_without_a_dialer_still_yields_the_answers_on_their_way() {
        // Three requests reached the server, then its read side went away
        // (every write from here on fails) while its answers were still
        // in the pipe.
        let log = WriteLog::failing_after(1);
        let mut client = NetClient::new(scripted_conn(acks(&[1, 2, 3]), &log));
        for id in 1..=3 {
            client.send(&put(id)).expect("send");
        }
        client.flush().expect("the one healthy write");
        let lost = client.send(&put(4)).expect("queued");
        // Flushing request 4 fails; the read that follows still runs.
        assert_eq!(client.wait(2).expect("readable").id, 2);
        assert_eq!(client.wait(1).expect("stashed").id, 1);
        assert_eq!(client.wait(3).expect("readable").id, 3);
        // The request that never left surfaces as the connection's end.
        assert!(matches!(client.wait(lost), Err(PrismError::Disconnected)));
        assert!(
            matches!(client.flush(), Ok(())),
            "nothing is queued any more"
        );
        client.send(&put(5)).expect("queued");
        assert!(matches!(client.flush(), Err(PrismError::Disconnected)));
    }

    /// `wait` for an id whose answer was already handed out, on a live
    /// connection: an error, not an endless read. Runs on a thread the
    /// test can give up on, so hanging is a failure rather than a hang.
    #[test]
    fn waiting_again_for_an_answered_id_is_a_protocol_error() {
        let (client_conn, mut server_conn) = duplex_pair("c", "s");
        server_conn
            .writer
            .write_all(&acks(&[1, 2]))
            .expect("the pipe is open");
        let (verdicts, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut client = NetClient::new(client_conn);
            let ids = [1, 2].map(|id| client.send(&put(id)).expect("send"));
            // Taken off the wire, then taken out of the stash.
            let first = [ids[1], ids[0]].map(|id| client.wait(id).map(|response| response.id));
            let again = ids.map(|id| client.wait(id).map(|response| response.id));
            let _ = verdicts.send((first, again));
        });
        let (first, again) = outcome
            .recv_timeout(Duration::from_secs(20))
            .expect("a wait that cannot be answered must return, not read forever");
        assert_eq!(first.map(|id| id.expect("answered")), [2, 1]);
        for (id, refused) in (1..).zip(again) {
            match refused {
                Err(PrismError::Protocol(message)) => {
                    assert!(message.contains(&format!("id {id} ")), "{message}")
                }
                other => panic!("waiting for id {id} again gave {other:?}"),
            }
        }
        drop(server_conn); // alive until here: the reads would have blocked
    }

    /// A client that pipelines a window of gets, waits for the last and
    /// uses `drain` as its barrier: the answers `wait` stashed on the way
    /// are discarded by the barrier instead of piling up round after round
    /// (and slowing every later `wait`'s look through the stash).
    #[test]
    fn drain_discards_what_earlier_waits_stashed() {
        const WINDOW: u64 = 64;
        let (client_conn, mut server_conn) = duplex_pair("c", "s");
        let mut client = NetClient::new(client_conn);
        for round in 0..100u64 {
            // The pipe is unbounded and the client routes by id alone, so
            // the answers may sit in it before the requests are sent.
            let first = round * WINDOW + 1;
            for id in first..first + WINDOW {
                let body = ResponseBody::Value(Some(Value::filled(1024, id as u8)));
                let answer = Response::ok(id, opcode::GET, Nanos::ZERO, body);
                server_conn
                    .writer
                    .write_all(&encode_response(&answer).expect("a value fits a frame"))
                    .expect("the pipe is open");
            }
            let mut last = 0;
            for id in first..first + WINDOW {
                let key = Key::from_id(id);
                last = client.send(&Request::Get { key }).expect("send");
                assert_eq!(last, id);
            }
            assert_eq!(client.wait(last).expect("answered").id, last);
            assert_eq!(client.received.len() as u64, WINDOW - 1, "round {round}");
            client.drain().expect("nothing left to read for");
            assert!(client.received.is_empty(), "round {round}");
            assert!(client.partial_scans.is_empty(), "round {round}");
            assert_eq!(client.pending.len(), 0);
            // Discarded means taken: the id is refused, not read for.
            assert!(matches!(client.wait(first), Err(PrismError::Protocol(_))));
        }
    }
}
