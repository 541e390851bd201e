//! A pipelining wire client.
//!
//! [`NetClient`] assigns request ids, keeps every unanswered request
//! encoded for retransmission, and matches responses back by id in
//! whatever order the server delivers them. Retryable refusals
//! ([`Status::Backpressure`], [`Status::Degraded`]) are resent
//! transparently with a small backoff, so a caller using the blocking
//! conveniences only ever sees requests that landed or failed for real.
//!
//! A client built with [`NetClient::with_dialer`] additionally survives
//! connection loss: on a failed read or write it re-dials with capped
//! exponential backoff and replays exactly the unacknowledged frames
//! (everything sent but not yet answered), in original send order. The
//! semantics are at-least-once — a request whose response was in flight
//! when the connection died is re-executed on the new connection, which
//! is safe for this protocol's idempotent operations (last-writer-wins
//! puts/deletes/batches, pure reads).

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

/// Re-dials the server after a connection loss. Called once per
/// reconnect attempt; each call must produce a fresh connection.
pub type Dialer = Box<dyn FnMut() -> std::io::Result<Conn> + Send>;

/// A client connection speaking the wire protocol. Single-threaded by
/// design: one client pipelines many requests on one connection; drive
/// several clients from several threads for connection-level parallelism.
pub struct NetClient {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    decoder: FrameDecoder,
    /// Where `read` lands bytes on their way into the decoder.
    read_buf: Box<[u8]>,
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
    /// Most consecutive failed dial attempts before a connection loss is
    /// surfaced as [`PrismError::Disconnected`].
    pub max_reconnect_attempts: u32,
    /// Nap before the first reconnect attempt; doubles per failed
    /// attempt up to [`Self::reconnect_backoff_cap`].
    pub reconnect_backoff: Duration,
    /// Ceiling for the exponential reconnect backoff.
    pub reconnect_backoff_cap: Duration,
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
            next_id: 1,
            pending: VecDeque::new(),
            received: Vec::new(),
            dialer: None,
            max_retries: 10_000,
            retry_backoff: Duration::from_micros(100),
            max_reconnect_attempts: 64,
            reconnect_backoff: Duration::from_micros(500),
            reconnect_backoff_cap: Duration::from_millis(50),
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
        let mut backoff = self.reconnect_backoff;
        let mut attempts = 0u32;
        'dial: loop {
            if attempts >= self.max_reconnect_attempts {
                return Err(PrismError::Disconnected);
            }
            attempts += 1;
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(self.reconnect_backoff_cap);
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
            for pending in &self.pending {
                if self.writer.write_all(&pending.frame).is_err() {
                    continue 'dial;
                }
            }
            self.reconnects += 1;
            return Ok(());
        }
    }

    /// Number of sent requests not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn pending_index(&self, id: u64) -> Option<usize> {
        self.pending
            .binary_search_by_key(&id, |pending| pending.id)
            .ok()
    }

    /// Write request `id`'s frame again if it is still unanswered.
    fn resend(&mut self, id: u64) -> Result<()> {
        if let Some(index) = self.pending_index(id) {
            if self.writer.write_all(&self.pending[index].frame).is_err() {
                // The reconnect replays every pending frame, this one
                // included.
                self.reconnect_and_replay()?;
            }
        }
        Ok(())
    }

    /// Send a request without waiting; returns its id for [`Self::wait`].
    ///
    /// # Errors
    ///
    /// [`PrismError::Protocol`] if the request cannot be encoded,
    /// [`PrismError::Disconnected`] if the transport rejects the write.
    pub fn send(&mut self, request: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(id, request)?;
        let sent = self.writer.write_all(&frame);
        // Registered before any reconnect, which replays it too.
        self.pending.push_back(Pending {
            id,
            frame,
            retries: 0,
        });
        if sent.is_err() {
            if let Err(err) = self.reconnect_and_replay() {
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
    /// [`PrismError::Protocol`] on an undecodable response.
    pub fn wait(&mut self, id: u64) -> Result<Response> {
        // Only answers to *other* ids are stashed below, so one look
        // before reading is enough.
        if let Some(at) = self.received.iter().position(|r| r.id == id) {
            return Ok(self.received.swap_remove(at));
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
                        self.resend(for_id)?;
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
    /// and refusals included) — a cheap pipeline barrier.
    ///
    /// # Errors
    ///
    /// [`PrismError::Disconnected`] if the server hangs up first.
    pub fn drain(&mut self) -> Result<()> {
        let ids: Vec<u64> = self.pending.iter().map(|pending| pending.id).collect();
        for id in ids {
            let _ = self.wait(id)?;
        }
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
                    self.resend(id)?;
                    continue;
                }
                None => {}
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
