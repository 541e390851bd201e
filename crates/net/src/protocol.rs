//! The wire protocol: length-prefixed, checksummed binary frames.
//!
//! Every frame is a little-endian `u32` payload length, a CRC32C
//! (Castagnoli; `prism_types::checksum`, the primitive the storage tiers
//! use) of the payload, then the payload itself. The format carries no
//! version field: both of its ends are this repository. Requests and responses share the
//! framing but have distinct payload layouts (see [`Request`] and
//! [`Response`]); both start with the client-assigned request id, so
//! responses may be delivered out of order and matched back by id.
//!
//! The header CRC gives the stream end-to-end integrity: any bit flipped
//! on the wire inside the payload (or the CRC field itself) is caught at
//! the framing layer, before the payload reaches a decoder. A CRC
//! mismatch costs only that frame ([`Frame::Corrupt`]) — the length
//! prefix still bounds it, so the stream re-synchronises at the next
//! frame boundary and the connection survives.
//!
//! Decoding never panics on hostile input: a malformed payload inside a
//! sound frame yields [`PrismError::Protocol`] and framing recovers at
//! the next length-prefix boundary; only an unsound length prefix itself
//! (oversized) is fatal to the connection, because the byte stream can no
//! longer be re-synchronised.

use prism_types::checksum::crc32;
use prism_types::{BatchOp, Key, Nanos, PrismError, Result, Value, WriteBatch};

/// Maximum payload bytes in one frame. Large enough for a full batch of
/// the engine's 4 KB objects, small enough that a corrupt length prefix
/// cannot make the decoder buffer gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of the frame length prefix.
pub const LEN_PREFIX: usize = 4;

/// Bytes of the payload CRC32 that follows the length prefix.
pub const CRC_PREFIX: usize = 4;

/// Bytes of the full frame header (length prefix + payload CRC).
pub const HEADER: usize = LEN_PREFIX + CRC_PREFIX;

/// Maximum key bytes on the wire (`u16` length field).
pub(crate) const MAX_KEY_LEN: usize = u16::MAX as usize;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Insert or update one key.
    Put {
        /// Key to write.
        key: Key,
        /// Value to store.
        value: Value,
    },
    /// Delete one key (idempotent).
    Delete {
        /// Key to delete.
        key: Key,
    },
    /// Point lookup.
    Get {
        /// Key to read.
        key: Key,
    },
    /// Ordered range scan.
    Scan {
        /// First key of the range (inclusive).
        start: Key,
        /// Maximum entries to return.
        count: u32,
    },
    /// Atomic multi-op write batch.
    Batch {
        /// The operations, applied front to back.
        batch: WriteBatch,
    },
    /// Liveness probe; the server answers immediately without touching
    /// the engine.
    Ping,
}

impl Request {
    /// The request's wire opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Put { .. } => opcode::PUT,
            Request::Delete { .. } => opcode::DELETE,
            Request::Get { .. } => opcode::GET,
            Request::Scan { .. } => opcode::SCAN,
            Request::Batch { .. } => opcode::BATCH,
            Request::Ping => opcode::PING,
        }
    }
}

/// Wire opcodes (the `u8` after the request id).
pub mod opcode {
    /// Insert or update one key.
    pub const PUT: u8 = 1;
    /// Delete one key.
    pub const DELETE: u8 = 2;
    /// Point lookup.
    pub const GET: u8 = 3;
    /// Ordered range scan.
    pub const SCAN: u8 = 4;
    /// Atomic multi-op write batch.
    pub const BATCH: u8 = 5;
    /// Liveness probe.
    pub const PING: u8 = 6;
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request was executed; the response carries its result.
    Ok = 0,
    /// The submission queue was full. Retryable: the same request may be
    /// resent and will eventually land once the queue drains.
    Backpressure = 1,
    /// The server is draining for shutdown; the request was refused and
    /// will not execute. Not retryable on this connection.
    ShuttingDown = 2,
    /// The engine rejected the request (capacity, corruption, ...); the
    /// response message carries the error text.
    ServerError = 3,
    /// The request frame was malformed. The offending frame was
    /// discarded; subsequent frames on the connection still execute.
    ProtocolError = 4,
    /// The target partition is in degraded (read-only) mode after
    /// corruption crossed its quarantine threshold. Retryable: a scrub
    /// pass re-arms the partition, after which the same request lands.
    Degraded = 5,
    /// The engine detected data corruption serving this request (a
    /// checksum mismatch, a quarantined object). Terminal for the
    /// request — resending cannot make the data whole; the message
    /// carries the tier/partition/slot context.
    Corruption = 6,
}

impl Status {
    fn from_wire(raw: u8) -> Result<Status> {
        Ok(match raw {
            0 => Status::Ok,
            1 => Status::Backpressure,
            2 => Status::ShuttingDown,
            3 => Status::ServerError,
            4 => Status::ProtocolError,
            5 => Status::Degraded,
            6 => Status::Corruption,
            other => return Err(PrismError::Protocol(format!("unknown status byte {other}"))),
        })
    }

    /// True for statuses a client may transparently retry.
    pub(crate) fn is_retryable(self) -> bool {
        matches!(self, Status::Backpressure | Status::Degraded)
    }
}

/// Latency classes carried in every response so clients can histogram
/// service quality without trusting their own clocks: the class buckets
/// the server-side (simulated) service latency by decade.
pub(crate) fn latency_class(latency: Nanos) -> u8 {
    let us = latency.as_nanos() / 1_000;
    match us {
        0..=9 => 0,
        10..=99 => 1,
        100..=999 => 2,
        1_000..=9_999 => 3,
        _ => 4,
    }
}

/// The op-specific payload of an [`Status::Ok`] response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// Ack of a put/delete/batch/ping.
    Ack,
    /// Result of a get; `None` when the key does not exist.
    Value(Option<Value>),
    /// Result of a scan, in key order.
    Entries(Vec<(Key, Value)>),
}

/// One decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id this answers.
    pub id: u64,
    /// Echo of the request opcode.
    pub opcode: u8,
    /// Outcome of the request.
    pub status: Status,
    /// Error text for non-[`Status::Ok`] statuses (empty otherwise).
    pub message: String,
    /// Server-side simulated service latency (zero for refusals).
    pub latency: Nanos,
    /// Result payload; [`ResponseBody::Ack`] for non-ok statuses.
    pub body: ResponseBody,
    /// Continuation marker for streamed scan results: `true` means more
    /// frames with this id follow; the terminal frame carries `false`.
    /// Always `false` for non-scan responses.
    pub more: bool,
}

impl Response {
    /// A refusal or error response (no body, zero latency).
    pub fn refusal(id: u64, opcode: u8, status: Status, message: impl Into<String>) -> Response {
        Response {
            id,
            opcode,
            status,
            message: message.into(),
            latency: Nanos::ZERO,
            body: ResponseBody::Ack,
            more: false,
        }
    }

    /// A successful response carrying `body`.
    pub(crate) fn ok(id: u64, opcode: u8, latency: Nanos, body: ResponseBody) -> Response {
        Response {
            id,
            opcode,
            status: Status::Ok,
            message: String::new(),
            latency,
            body,
            more: false,
        }
    }

    /// The refusal an engine or front-end error maps to on the wire —
    /// the one place a [`PrismError`] becomes a [`Status`].
    pub(crate) fn from_error(id: u64, opcode: u8, err: &PrismError) -> Response {
        let status = match err {
            PrismError::Backpressure { .. } => Status::Backpressure,
            PrismError::ShuttingDown => Status::ShuttingDown,
            PrismError::Degraded { .. } => Status::Degraded,
            PrismError::Corruption(_) => Status::Corruption,
            _ => Status::ServerError,
        };
        Response::refusal(id, opcode, status, err.to_string())
    }

    /// The latency class bucket of this response's latency.
    pub(crate) fn latency_class(&self) -> u8 {
        latency_class(self.latency)
    }
}

// ---------------------------------------------------------------------
// Encoding

/// Appends one frame to a caller-owned buffer, so a batch of frames can
/// share one allocation (and one transport write).
struct FrameBuilder<'a> {
    buf: &'a mut Vec<u8>,
    /// Offset of this frame's header in `buf`.
    start: usize,
}

impl<'a> FrameBuilder<'a> {
    /// Start a frame at the end of `buf`, with room for `payload_len`
    /// payload bytes reserved up front (an estimate only sizes the
    /// buffer; `finish` writes the real length).
    fn new(buf: &'a mut Vec<u8>, payload_len: usize) -> FrameBuilder<'a> {
        let start = buf.len();
        buf.reserve(HEADER + payload_len);
        // The length prefix and payload CRC are patched in `finish`.
        buf.extend_from_slice(&[0u8; HEADER]);
        FrameBuilder { buf, start }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn key(&mut self, key: &Key) -> Result<()> {
        let bytes = key.as_bytes();
        if bytes.len() > MAX_KEY_LEN {
            return Err(PrismError::Protocol(format!(
                "key of {} bytes exceeds the wire maximum of {MAX_KEY_LEN}",
                bytes.len()
            )));
        }
        self.u16(bytes.len() as u16);
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn value(&mut self, value: &Value) {
        self.u32(value.len() as u32);
        self.buf.extend_from_slice(value.as_bytes());
    }

    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let take = bytes.len().min(MAX_KEY_LEN);
        self.u16(take as u16);
        self.buf.extend_from_slice(&bytes[..take]);
    }

    fn finish(self) -> Result<()> {
        let frame = &mut self.buf[self.start..];
        let payload = frame.len() - HEADER;
        if payload > MAX_FRAME {
            return Err(PrismError::Protocol(format!(
                "frame payload of {payload} bytes exceeds the maximum of {MAX_FRAME}"
            )));
        }
        let crc = crc32(&frame[HEADER..]);
        frame[..LEN_PREFIX].copy_from_slice(&(payload as u32).to_le_bytes());
        frame[LEN_PREFIX..HEADER].copy_from_slice(&crc.to_le_bytes());
        Ok(())
    }
}

/// Wire bytes of one key field / one value field.
fn key_field_len(key: &Key) -> usize {
    2 + key.as_bytes().len()
}

fn value_field_len(value: &Value) -> usize {
    4 + value.len()
}

/// Wire bytes of one scan entry.
fn entry_len((key, value): &(Key, Value)) -> usize {
    key_field_len(key) + value_field_len(value)
}

/// Payload bytes `request` encodes to (id and opcode included).
fn request_payload_len(request: &Request) -> usize {
    9 + match request {
        Request::Put { key, value } => key_field_len(key) + value_field_len(value),
        Request::Delete { key } | Request::Get { key } => key_field_len(key),
        Request::Scan { start, .. } => key_field_len(start) + 4,
        Request::Batch { batch } => {
            let op_len = |op: &BatchOp| match op {
                BatchOp::Put(key, value) => 1 + key_field_len(key) + value_field_len(value),
                BatchOp::Delete(key) => 1 + key_field_len(key),
            };
            4 + batch.entries().iter().map(op_len).sum::<usize>()
        }
        Request::Ping => 0,
    }
}

/// Payload bytes `response` encodes to (the 19-byte response header
/// included).
fn response_payload_len(response: &Response) -> usize {
    19 + if response.status as u8 != Status::Ok as u8 {
        2 + response.message.len()
    } else {
        match &response.body {
            ResponseBody::Ack => 0,
            ResponseBody::Value(None) => 1,
            ResponseBody::Value(Some(value)) => 1 + value_field_len(value),
            ResponseBody::Entries(entries) => 5 + entries.iter().map(entry_len).sum::<usize>(),
        }
    }
}

/// Encode a request into a complete frame (length prefix included).
///
/// # Errors
///
/// [`PrismError::Protocol`] if a key exceeds `u16::MAX` bytes or the
/// payload exceeds [`MAX_FRAME`].
pub fn encode_request(id: u64, request: &Request) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut frame = FrameBuilder::new(&mut buf, request_payload_len(request));
    frame.u64(id);
    frame.u8(request.opcode());
    match request {
        Request::Put { key, value } => {
            frame.key(key)?;
            frame.value(value);
        }
        Request::Delete { key } | Request::Get { key } => frame.key(key)?,
        Request::Scan { start, count } => {
            frame.key(start)?;
            frame.u32(*count);
        }
        Request::Batch { batch } => {
            frame.u32(batch.len() as u32);
            for op in batch.entries() {
                match op {
                    BatchOp::Put(key, value) => {
                        frame.u8(1);
                        frame.key(key)?;
                        frame.value(value);
                    }
                    BatchOp::Delete(key) => {
                        frame.u8(2);
                        frame.key(key)?;
                    }
                }
            }
        }
        Request::Ping => {}
    }
    frame.finish()?;
    Ok(buf)
}

/// Encode a response into a complete frame (length prefix included).
///
/// # Errors
///
/// [`PrismError::Protocol`] on a key or frame size violation (a scan
/// result too large to frame).
pub fn encode_response(response: &Response) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    encode_response_into(&mut buf, response)?;
    Ok(buf)
}

/// Append `response` to `out` as one complete frame, so a batch of
/// responses goes to the transport as one buffer. On error `out` is left
/// exactly as it was.
///
/// # Errors
///
/// As [`encode_response`].
pub(crate) fn encode_response_into(out: &mut Vec<u8>, response: &Response) -> Result<()> {
    let start = out.len();
    let encoded = append_response(out, response);
    if encoded.is_err() {
        out.truncate(start);
    }
    encoded
}

fn append_response(out: &mut Vec<u8>, response: &Response) -> Result<()> {
    let mut frame = FrameBuilder::new(out, response_payload_len(response));
    frame.u64(response.id);
    frame.u8(response.opcode);
    frame.u8(response.status as u8);
    frame.u8(response.latency_class());
    frame.u64(response.latency.as_nanos());
    if response.status as u8 != Status::Ok as u8 {
        frame.str(&response.message);
        return frame.finish();
    }
    match &response.body {
        ResponseBody::Ack => {}
        ResponseBody::Value(value) => match value {
            Some(value) => {
                frame.u8(1);
                frame.value(value);
            }
            None => frame.u8(0),
        },
        ResponseBody::Entries(entries) => {
            frame.u32(entries.len() as u32);
            frame.u8(response.more as u8);
            for (key, value) in entries {
                frame.key(key)?;
                frame.value(value);
            }
        }
    }
    frame.finish()
}

// ---------------------------------------------------------------------
// Decoding

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|end| *end <= self.buf.len());
        let Some(end) = end else {
            return Err(PrismError::Protocol(format!(
                "payload truncated: wanted {n} bytes at offset {} of a {}-byte payload",
                self.pos,
                self.buf.len()
            )));
        };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn key(&mut self) -> Result<Key> {
        let len = self.u16()? as usize;
        Ok(Key::from(self.take(len)?))
    }

    fn value(&mut self) -> Result<Value> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(PrismError::Protocol(format!(
                "value length field {len} exceeds the frame maximum"
            )));
        }
        Ok(Value::from(self.take(len)?))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PrismError::Protocol("message field is not valid utf-8".into()))
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(PrismError::Protocol(format!(
                "{} trailing bytes after a complete payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// The request id of a payload too malformed to decode, so a protocol
/// error can still be routed back to the requester. `u64::MAX` if the
/// payload is too short to carry an id.
pub(crate) fn peek_request_id(payload: &[u8]) -> u64 {
    payload
        .get(..8)
        .map(|bytes| u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
        .unwrap_or(u64::MAX)
}

/// Decode a request payload (the bytes after the length prefix).
///
/// # Errors
///
/// [`PrismError::Protocol`] on truncation, an unknown opcode, a length
/// field pointing past the payload, or trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request)> {
    let mut cursor = Cursor::new(payload);
    let id = cursor.u64()?;
    let opcode = cursor.u8()?;
    let request = match opcode {
        opcode::PUT => Request::Put {
            key: cursor.key()?,
            value: cursor.value()?,
        },
        opcode::DELETE => Request::Delete { key: cursor.key()? },
        opcode::GET => Request::Get { key: cursor.key()? },
        opcode::SCAN => Request::Scan {
            start: cursor.key()?,
            count: cursor.u32()?,
        },
        opcode::BATCH => {
            let n = cursor.u32()? as usize;
            // Bound by what could physically fit in the payload (a
            // put is ≥ 7 bytes) before allocating.
            if n > payload.len() {
                return Err(PrismError::Protocol(format!(
                    "batch count field {n} exceeds what a {}-byte payload can hold",
                    payload.len()
                )));
            }
            let mut batch = WriteBatch::with_capacity(n);
            for _ in 0..n {
                match cursor.u8()? {
                    1 => {
                        let key = cursor.key()?;
                        let value = cursor.value()?;
                        batch.put(key, value);
                    }
                    2 => batch.delete(cursor.key()?),
                    tag => return Err(PrismError::Protocol(format!("unknown batch op tag {tag}"))),
                }
            }
            Request::Batch { batch }
        }
        opcode::PING => Request::Ping,
        other => return Err(PrismError::Protocol(format!("unknown opcode {other}"))),
    };
    cursor.finish()?;
    Ok((id, request))
}

/// Decode a response payload (the bytes after the length prefix).
///
/// # Errors
///
/// [`PrismError::Protocol`] on any malformed field.
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut cursor = Cursor::new(payload);
    let id = cursor.u64()?;
    let opcode = cursor.u8()?;
    let status = Status::from_wire(cursor.u8()?)?;
    let wire_class = cursor.u8()?;
    let latency = Nanos::from_nanos(cursor.u64()?);
    if wire_class != latency_class(latency) {
        return Err(PrismError::Protocol(format!(
            "latency class {wire_class} does not match latency {}ns",
            latency.as_nanos()
        )));
    }
    if status as u8 != Status::Ok as u8 {
        let message = cursor.str()?;
        cursor.finish()?;
        return Ok(Response {
            id,
            opcode,
            status,
            message,
            latency,
            body: ResponseBody::Ack,
            more: false,
        });
    }
    let mut more = false;
    let body = match opcode {
        opcode::PUT | opcode::DELETE | opcode::BATCH | opcode::PING => ResponseBody::Ack,
        opcode::GET => match cursor.u8()? {
            0 => ResponseBody::Value(None),
            1 => ResponseBody::Value(Some(cursor.value()?)),
            tag => {
                return Err(PrismError::Protocol(format!(
                    "unknown value-presence tag {tag}"
                )))
            }
        },
        opcode::SCAN => {
            let n = cursor.u32()? as usize;
            if n > payload.len() {
                return Err(PrismError::Protocol(format!(
                    "scan entry count field {n} exceeds what a {}-byte payload can hold",
                    payload.len()
                )));
            }
            more = match cursor.u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(PrismError::Protocol(format!(
                        "unknown continuation tag {tag}"
                    )))
                }
            };
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = cursor.key()?;
                let value = cursor.value()?;
                entries.push((key, value));
            }
            ResponseBody::Entries(entries)
        }
        other => return Err(PrismError::Protocol(format!("unknown opcode {other}"))),
    };
    cursor.finish()?;
    Ok(Response {
        id,
        opcode,
        status,
        message: String::new(),
        latency,
        body,
        more,
    })
}

/// Split a scan response whose entry list may exceed [`MAX_FRAME`] into
/// a sequence of frame-sized responses sharing the same id: every chunk
/// but the last carries `more == true`, the terminal chunk carries the
/// remaining entries and `more == false`. Responses that already fit
/// (and every non-scan response) come back as a single-element sequence,
/// unchanged.
pub(crate) fn split_scan_response(mut response: Response) -> Vec<Response> {
    let ResponseBody::Entries(entries) = &mut response.body else {
        return vec![response];
    };
    // Per-entry wire cost plus the fixed response header; stay well
    // under the cap so the estimate never has to be exact.
    let budget = MAX_FRAME - 4096;
    if entries.iter().map(entry_len).sum::<usize>() <= budget {
        return vec![response];
    }
    // The response is ours: move the entries into the chunks.
    let mut chunks: Vec<Vec<(Key, Value)>> = vec![Vec::new()];
    let mut used = 0usize;
    for entry in std::mem::take(entries) {
        let cost = entry_len(&entry);
        if used + cost > budget && !chunks.last().expect("non-empty").is_empty() {
            chunks.push(Vec::new());
            used = 0;
        }
        used += cost;
        chunks.last_mut().expect("non-empty").push(entry);
    }
    let last = chunks.len() - 1;
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| Response {
            id: response.id,
            opcode: response.opcode,
            status: response.status,
            message: String::new(),
            latency: response.latency,
            body: ResponseBody::Entries(chunk),
            more: i < last,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Incremental framing

/// One frame pulled out of a [`FrameDecoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A payload that matched its header CRC.
    Intact(Vec<u8>),
    /// A frame whose payload failed its header CRC. The frame boundary
    /// was still sound, so exactly its bytes were consumed and the
    /// stream continues at the next frame; `id` is the (best-effort,
    /// possibly itself corrupt) request id peeked from the payload so
    /// the peer can be told which request was lost.
    Corrupt {
        /// Best-effort request id from the corrupt payload.
        id: u64,
    },
}

/// [`Frame`] with the intact payload still in the decoder's buffer: what
/// this crate's own reader and client decode from, so a payload is
/// copied once (into the `Key`s and `Value`s it carries), not twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameRef<'a> {
    /// A payload that matched its header CRC.
    Intact(&'a [u8]),
    /// See [`Frame::Corrupt`].
    Corrupt {
        /// Best-effort request id from the corrupt payload.
        id: u64,
    },
}

/// Incremental frame splitter: feed it raw bytes as they arrive, pull
/// complete payloads out. Every payload is verified against the header
/// CRC32 before it is handed out; a mismatch yields [`Frame::Corrupt`]
/// and costs only that frame. A frame whose payload later fails to
/// decode likewise costs only that frame — the splitter has already
/// consumed exactly its bytes, so the next frame starts clean. Only an
/// oversized length prefix is unrecoverable (the stream cannot be
/// re-synchronised) and poisons the decoder.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted opportunistically).
    consumed: usize,
    poisoned: bool,
    corrupt_frames: u64,
}

impl FrameDecoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Drop the consumed prefix before growing, keeping the buffer
        // proportional to the unparsed remainder.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Number of frames discarded so far because their payload failed
    /// the header CRC.
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames
    }

    /// Extract the next complete frame, if one is buffered. A payload
    /// that fails its header CRC comes back as [`Frame::Corrupt`] — the
    /// frame is consumed, the stream stays synchronised.
    ///
    /// # Errors
    ///
    /// [`PrismError::Protocol`] if a length prefix exceeds [`MAX_FRAME`];
    /// the decoder is then poisoned and every later call fails too — the
    /// connection must be torn down.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        Ok(self.next_frame_ref()?.map(|frame| match frame {
            FrameRef::Intact(payload) => Frame::Intact(payload.to_vec()),
            FrameRef::Corrupt { id } => Frame::Corrupt { id },
        }))
    }

    /// [`FrameDecoder::next_frame`] without the copy: the intact payload
    /// is borrowed from the decoder's buffer (valid until the next
    /// `push`, which the borrow rules enforce).
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_frame`].
    pub(crate) fn next_frame_ref(&mut self) -> Result<Option<FrameRef<'_>>> {
        if self.poisoned {
            return Err(PrismError::Protocol(
                "stream poisoned by an earlier unrecoverable framing error".into(),
            ));
        }
        let pending = &self.buf[self.consumed..];
        if pending.len() < HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..LEN_PREFIX].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            self.poisoned = true;
            return Err(PrismError::Protocol(format!(
                "length prefix {len} exceeds the frame maximum of {MAX_FRAME}"
            )));
        }
        if pending.len() < HEADER + len {
            return Ok(None);
        }
        let wire_crc = u32::from_le_bytes(pending[LEN_PREFIX..HEADER].try_into().expect("4 bytes"));
        let payload = &pending[HEADER..HEADER + len];
        self.consumed += HEADER + len;
        if crc32(payload) != wire_crc {
            self.corrupt_frames += 1;
            return Ok(Some(FrameRef::Corrupt {
                id: peek_request_id(payload),
            }));
        }
        Ok(Some(FrameRef::Intact(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        let mut batch = WriteBatch::new();
        batch.put(Key::from_id(1), Value::filled(8, 0xAA));
        batch.delete(Key::from_id(2));
        batch.put(Key::from_bytes(vec![]), Value::empty());
        vec![
            Request::Put {
                key: Key::from_id(7),
                value: Value::filled(100, 0x55),
            },
            Request::Delete {
                key: Key::from_bytes(b"hello".to_vec()),
            },
            Request::Get {
                key: Key::from_bytes(vec![0u8; 300]),
            },
            Request::Scan {
                start: Key::min(),
                count: 1000,
            },
            Request::Batch { batch },
            Request::Ping,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (i, request) in sample_requests().into_iter().enumerate() {
            let id = 1000 + i as u64;
            let frame = encode_request(id, &request).expect("encode");
            let (got_id, got) = decode_request(&frame[HEADER..]).expect("decode");
            assert_eq!(got_id, id);
            assert_eq!(got, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response {
                id: 1,
                opcode: opcode::PUT,
                status: Status::Ok,
                message: String::new(),
                latency: Nanos::from_micros(12),
                body: ResponseBody::Ack,
                more: false,
            },
            Response {
                id: 2,
                opcode: opcode::GET,
                status: Status::Ok,
                message: String::new(),
                latency: Nanos::from_nanos(999),
                body: ResponseBody::Value(Some(Value::filled(64, 3))),
                more: false,
            },
            Response {
                id: 3,
                opcode: opcode::GET,
                status: Status::Ok,
                message: String::new(),
                latency: Nanos::ZERO,
                body: ResponseBody::Value(None),
                more: false,
            },
            Response {
                id: 4,
                opcode: opcode::SCAN,
                status: Status::Ok,
                message: String::new(),
                latency: Nanos::from_micros(40_000),
                body: ResponseBody::Entries(vec![
                    (Key::from_id(1), Value::filled(4, 1)),
                    (Key::from_id(2), Value::empty()),
                ]),
                more: false,
            },
            // A non-terminal streamed-scan chunk keeps its continuation
            // marker across the wire.
            Response {
                id: 11,
                opcode: opcode::SCAN,
                status: Status::Ok,
                message: String::new(),
                latency: Nanos::from_micros(5),
                body: ResponseBody::Entries(vec![(Key::from_id(9), Value::filled(4, 9))]),
                more: true,
            },
            Response::refusal(5, opcode::PUT, Status::Backpressure, "queue full"),
            Response::refusal(6, opcode::BATCH, Status::ShuttingDown, "draining"),
            Response::refusal(7, opcode::GET, Status::ServerError, "capacity exceeded"),
            Response::refusal(8, opcode::PING, Status::ProtocolError, "bad frame"),
            Response::refusal(9, opcode::PUT, Status::Degraded, "partition 2 read-only"),
            Response::refusal(10, opcode::GET, Status::Corruption, "nvm checksum mismatch"),
        ];
        for response in cases {
            let frame = encode_response(&response).expect("encode");
            let got = decode_response(&frame[HEADER..]).expect("decode");
            assert_eq!(got, response);
        }
    }

    /// A frame is sized from its body before the first byte is pushed:
    /// one allocation, none of it slack.
    #[test]
    fn frames_are_allocated_once_at_their_final_size() {
        for (id, request) in (0..).zip(sample_requests()) {
            let frame = encode_request(id, &request).expect("encode");
            assert_eq!(frame.capacity(), frame.len(), "{request:?}");
        }
        let entries = vec![
            (Key::from_id(1), Value::filled(1024, 1)),
            (Key::from_bytes(vec![7; 40]), Value::empty()),
        ];
        for response in [
            Response::ok(1, opcode::PUT, Nanos::ZERO, ResponseBody::Ack),
            Response::ok(2, opcode::GET, Nanos::ZERO, ResponseBody::Value(None)),
            Response::ok(
                3,
                opcode::GET,
                Nanos::ZERO,
                ResponseBody::Value(Some(Value::filled(1024, 3))),
            ),
            Response::ok(4, opcode::SCAN, Nanos::ZERO, ResponseBody::Entries(entries)),
            Response::refusal(5, opcode::PUT, Status::Backpressure, "queue full"),
        ] {
            let frame = encode_response(&response).expect("encode");
            assert_eq!(frame.capacity(), frame.len(), "{response:?}");
        }
    }

    #[test]
    fn errors_map_onto_their_wire_statuses() {
        let cases = [
            (
                PrismError::Backpressure {
                    partition: 1,
                    depth: 64,
                },
                Status::Backpressure,
            ),
            (PrismError::ShuttingDown, Status::ShuttingDown),
            (PrismError::Degraded { partition: 2 }, Status::Degraded),
            (PrismError::Corruption("bad crc".into()), Status::Corruption),
            (PrismError::Io("disk".into()), Status::ServerError),
        ];
        for (err, status) in cases {
            let response = Response::from_error(7, opcode::PUT, &err);
            assert_eq!(response.status, status);
            assert_eq!(response.message, err.to_string());
            assert_eq!((response.id, response.opcode), (7, opcode::PUT));
        }
    }

    #[test]
    fn only_backpressure_and_degraded_are_retryable() {
        assert!(Status::Backpressure.is_retryable());
        assert!(Status::Degraded.is_retryable());
        for terminal in [
            Status::Ok,
            Status::ShuttingDown,
            Status::ServerError,
            Status::ProtocolError,
            Status::Corruption,
        ] {
            assert!(!terminal.is_retryable(), "{terminal:?} must be terminal");
        }
    }

    #[test]
    fn latency_classes_bucket_by_decade() {
        assert_eq!(latency_class(Nanos::ZERO), 0);
        assert_eq!(latency_class(Nanos::from_micros(9)), 0);
        assert_eq!(latency_class(Nanos::from_micros(10)), 1);
        assert_eq!(latency_class(Nanos::from_micros(100)), 2);
        assert_eq!(latency_class(Nanos::from_micros(1_000)), 3);
        assert_eq!(latency_class(Nanos::from_micros(50_000)), 4);
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        let frame = encode_request(
            9,
            &Request::Put {
                key: Key::from_id(3),
                value: Value::filled(32, 1),
            },
        )
        .expect("encode");
        let payload = &frame[HEADER..];
        for cut in 0..payload.len() {
            let err = decode_request(&payload[..cut]).expect_err("truncation must error");
            assert!(matches!(err, PrismError::Protocol(_)), "got {err:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_request(1, &Request::Ping).expect("encode");
        frame.push(0xFF);
        let err = decode_request(&frame[HEADER..]).expect_err("trailing byte");
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn unknown_opcode_and_bad_tags_error() {
        // id(8) + bogus opcode.
        let mut payload = 77u64.to_le_bytes().to_vec();
        payload.push(99);
        assert!(decode_request(&payload).is_err());
        assert_eq!(peek_request_id(&payload), 77);
        assert_eq!(peek_request_id(&payload[..4]), u64::MAX);
    }

    #[test]
    fn absurd_length_fields_do_not_allocate() {
        // A batch whose count field claims 4 billion entries in a tiny
        // payload must be rejected before any allocation.
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.push(opcode::BATCH);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_request(&payload).expect_err("absurd count");
        assert!(err.to_string().contains("batch count"));
    }

    /// Pull the next frame and unwrap the intact payload.
    fn intact(decoder: &mut FrameDecoder) -> Option<Vec<u8>> {
        match decoder.next_frame().expect("sound stream") {
            Some(Frame::Intact(payload)) => Some(payload),
            Some(Frame::Corrupt { id }) => panic!("unexpected corrupt frame (id {id})"),
            None => None,
        }
    }

    #[test]
    fn frame_decoder_reassembles_byte_by_byte() {
        let mut stream = Vec::new();
        let requests = sample_requests();
        for (i, request) in requests.iter().enumerate() {
            stream.extend(encode_request(i as u64, request).expect("encode"));
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for byte in stream {
            decoder.push(&[byte]);
            while let Some(payload) = intact(&mut decoder) {
                decoded.push(decode_request(&payload).expect("decode"));
            }
        }
        assert_eq!(decoded.len(), requests.len());
        for (i, (id, request)) in decoded.into_iter().enumerate() {
            assert_eq!(id, i as u64);
            assert_eq!(request, requests[i]);
        }
        assert_eq!(decoder.pending_bytes(), 0);
        assert_eq!(decoder.corrupt_frames(), 0);
    }

    #[test]
    fn oversized_length_prefix_poisons_the_decoder() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        decoder.push(&[0u8; CRC_PREFIX]);
        assert!(decoder.next_frame().is_err());
        // Poisoned: even pushing sound bytes afterwards keeps failing.
        decoder.push(&encode_request(1, &Request::Ping).expect("encode"));
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn corrupt_frame_does_not_desync_the_next_one() {
        // A framing-sound payload (correct CRC) that fails to decode.
        let mut garbage_payload = 3u64.to_le_bytes().to_vec();
        garbage_payload.push(250); // unknown opcode
        let mut stream = (garbage_payload.len() as u32).to_le_bytes().to_vec();
        stream.extend(crc32(&garbage_payload).to_le_bytes());
        stream.extend(&garbage_payload);
        stream.extend(encode_request(4, &Request::Ping).expect("encode"));
        let mut decoder = FrameDecoder::new();
        decoder.push(&stream);
        let bad = intact(&mut decoder).expect("frame");
        assert!(decode_request(&bad).is_err());
        // The next frame decodes cleanly: no desync.
        let good = intact(&mut decoder).expect("frame");
        assert_eq!(decode_request(&good).expect("decode").0, 4);
    }

    /// The frame-CRC gate: every single-bit flip anywhere past the
    /// length prefix is caught by the header CRC as [`Frame::Corrupt`],
    /// charged to exactly one frame, and the following frame still
    /// decodes — the connection survives. (A flip inside the length
    /// prefix moves the frame boundary itself; those are detected too —
    /// the misframed bytes can never pass the CRC — but re-synchronising
    /// after one is not guaranteed, which is why the length prefix is
    /// the only fatal field.)
    #[test]
    fn every_single_bit_flip_past_the_length_prefix_is_detected() {
        let frame = encode_request(
            42,
            &Request::Put {
                key: Key::from_id(7),
                value: Value::filled(100, 0x55),
            },
        )
        .expect("encode");
        let follow_up = encode_request(43, &Request::Ping).expect("encode");
        for bit in (LEN_PREFIX * 8)..(frame.len() * 8) {
            let mut stream = frame.clone();
            stream[bit / 8] ^= 1 << (bit % 8);
            stream.extend_from_slice(&follow_up);
            let mut decoder = FrameDecoder::new();
            decoder.push(&stream);
            match decoder.next_frame().expect("framing sound") {
                Some(Frame::Corrupt { .. }) => {}
                other => panic!("bit flip {bit} went undetected: {other:?}"),
            }
            assert_eq!(decoder.corrupt_frames(), 1);
            // The connection survives: the next frame is intact and
            // decodes as the follow-up request.
            let next = intact(&mut decoder).expect("follow-up frame");
            assert_eq!(decode_request(&next).expect("decode").0, 43);
        }
    }

    /// Length-prefix flips either poison the decoder (oversized length)
    /// or mis-frame the stream — but the mis-framed bytes still never
    /// pass the CRC, so corrupt data is never served as intact.
    #[test]
    fn length_prefix_flips_never_serve_a_corrupt_frame_as_intact() {
        let frame = encode_request(42, &Request::Ping).expect("encode");
        let original_payload = frame[HEADER..].to_vec();
        for bit in 0..(LEN_PREFIX * 8) {
            let mut stream = frame.clone();
            stream[bit / 8] ^= 1 << (bit % 8);
            let mut decoder = FrameDecoder::new();
            decoder.push(&stream);
            match decoder.next_frame() {
                Ok(Some(Frame::Intact(payload))) => {
                    assert_ne!(
                        payload, original_payload,
                        "bit flip {bit} served the corrupt frame as intact"
                    );
                }
                // Corrupt, incomplete (waiting for bytes that never
                // come), or poisoned: all are detection, none serve
                // corrupt data.
                Ok(Some(Frame::Corrupt { .. })) | Ok(None) | Err(_) => {}
            }
        }
    }

    #[test]
    fn split_scan_response_chunks_oversized_scans_and_preserves_order() {
        let value = Value::filled(8 * 1024, 7);
        let entries: Vec<(Key, Value)> = (0..300u64)
            .map(|id| (Key::from_id(id), value.clone()))
            .collect();
        let response = Response {
            id: 5,
            opcode: opcode::SCAN,
            status: Status::Ok,
            message: String::new(),
            latency: Nanos::from_micros(33),
            body: ResponseBody::Entries(entries.clone()),
            more: false,
        };
        // ~2.4 MB of entries: must split into multiple frames.
        assert!(encode_response(&response).is_err(), "must exceed MAX_FRAME");
        let chunks = split_scan_response(response);
        assert!(chunks.len() >= 3, "expected several chunks");
        let mut reassembled = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.id, 5);
            assert_eq!(chunk.more, i + 1 < chunks.len(), "terminal marker");
            // Every chunk must round-trip the wire individually.
            let frame = encode_response(chunk).expect("chunk fits a frame");
            let got = decode_response(&frame[HEADER..]).expect("decode");
            assert_eq!(&got, chunk);
            match got.body {
                ResponseBody::Entries(part) => reassembled.extend(part),
                other => panic!("non-entries chunk body {other:?}"),
            }
        }
        assert_eq!(reassembled, entries);
    }

    #[test]
    fn split_scan_response_passes_small_scans_through() {
        let response = Response {
            id: 6,
            opcode: opcode::SCAN,
            status: Status::Ok,
            message: String::new(),
            latency: Nanos::from_micros(1),
            body: ResponseBody::Entries(vec![(Key::from_id(1), Value::filled(16, 1))]),
            more: false,
        };
        let chunks = split_scan_response(response.clone());
        assert_eq!(chunks, vec![response]);
        let ack = Response::refusal(7, opcode::PUT, Status::Backpressure, "full");
        assert_eq!(split_scan_response(ack.clone()), vec![ack]);
    }
}
