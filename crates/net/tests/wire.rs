//! Protocol framing property tests: arbitrary requests and responses
//! round-trip bit-exactly, and truncated / oversized / corrupt frames
//! yield clean protocol errors — never panics, and never a desync of the
//! frame that follows.

use prism_net::protocol::{
    self, decode_request, decode_response, encode_request, encode_response, Frame, FrameDecoder,
    Request, Response, ResponseBody, Status, CRC_PREFIX, HEADER, LEN_PREFIX, MAX_FRAME,
};
use prism_types::{Key, Nanos, Value, WriteBatch};
use proptest::prelude::*;

/// Deterministically expand a compact op descriptor into a request; the
/// proptest shim generates tuples, this maps them onto the protocol's
/// surface (all six opcodes, empty and large keys/values, batches).
fn build_request(op: u8, id_seed: u64, size: usize) -> Request {
    let key = match id_seed % 3 {
        0 => Key::from_id(id_seed),
        1 => Key::from_bytes(vec![]),
        _ => Key::from_bytes(vec![(id_seed % 251) as u8; (size % 700) + 1]),
    };
    let value = Value::filled(size % 4096, (id_seed % 256) as u8);
    match op % 6 {
        0 => Request::Put { key, value },
        1 => Request::Delete { key },
        2 => Request::Get { key },
        3 => Request::Scan {
            start: key,
            count: (size as u32) % 10_000,
        },
        4 => {
            let mut batch = WriteBatch::new();
            for i in 0..(size % 9) {
                if i % 3 == 2 {
                    batch.delete(Key::from_id(id_seed + i as u64));
                } else {
                    batch.put(
                        Key::from_id(id_seed + i as u64),
                        Value::filled(i * 31 % 1024, i as u8),
                    );
                }
            }
            Request::Batch { batch }
        }
        _ => Request::Ping,
    }
}

fn build_response(op: u8, id_seed: u64, size: usize) -> Response {
    let status = match op % 5 {
        0 => Status::Ok,
        1 => Status::Backpressure,
        2 => Status::ShuttingDown,
        3 => Status::ServerError,
        _ => Status::ProtocolError,
    };
    if status != Status::Ok {
        return Response::refusal(
            id_seed,
            protocol::opcode::PUT,
            status,
            format!("synthetic refusal {id_seed}"),
        );
    }
    let (opcode, body) = match id_seed % 4 {
        0 => (protocol::opcode::PUT, ResponseBody::Ack),
        1 => (
            protocol::opcode::GET,
            ResponseBody::Value(if size.is_multiple_of(2) {
                Some(Value::filled(size % 2048, 7))
            } else {
                None
            }),
        ),
        2 => (
            protocol::opcode::SCAN,
            ResponseBody::Entries(
                (0..size % 6)
                    .map(|i| (Key::from_id(i as u64), Value::filled(i * 17 % 512, i as u8)))
                    .collect(),
            ),
        ),
        _ => (protocol::opcode::BATCH, ResponseBody::Ack),
    };
    Response {
        id: id_seed,
        opcode,
        status,
        message: String::new(),
        latency: Nanos::from_nanos(id_seed.wrapping_mul(7919) % 100_000_000),
        body,
        more: false,
    }
}

/// Unwrap a frame the test knows was not corrupted on the (in-memory)
/// wire.
fn intact(frame: Frame) -> Vec<u8> {
    match frame {
        Frame::Intact(payload) => payload,
        Frame::Corrupt { id } => panic!("frame {id} unexpectedly corrupt"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any stream of requests encodes, re-frames through an arbitrary
    /// re-chunking, and decodes back to exactly the inputs.
    #[test]
    fn requests_round_trip_through_rechunked_streams(
        ops in prop::collection::vec((0u8..6, 0u64..1_000_000, 0usize..4096), 1..30),
        chunk in 1usize..700
    ) {
        let requests: Vec<Request> = ops
            .iter()
            .map(|(op, id, size)| build_request(*op, *id, *size))
            .collect();
        let mut stream = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            stream.extend(encode_request(i as u64, request).expect("encode"));
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            decoder.push(piece);
            while let Some(frame) = decoder.next_frame().expect("sound stream") {
                decoded.push(decode_request(&intact(frame)).expect("decode"));
            }
        }
        prop_assert_eq!(decoded.len(), requests.len());
        for (i, (id, request)) in decoded.iter().enumerate() {
            prop_assert_eq!(*id, i as u64);
            prop_assert_eq!(request, &requests[i]);
        }
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    /// Any response round-trips bit-exactly.
    #[test]
    fn responses_round_trip(
        ops in prop::collection::vec((0u8..5, 0u64..1_000_000, 0usize..2048), 1..40)
    ) {
        for (op, id, size) in ops {
            let response = build_response(op, id, size);
            let frame = encode_response(&response).expect("encode");
            let got = decode_response(&frame[HEADER..]).expect("decode");
            prop_assert_eq!(got, response);
        }
    }

    /// Truncating a request payload anywhere yields a clean protocol
    /// error, never a panic.
    #[test]
    fn truncated_request_payloads_error_cleanly(
        (op, id, size) in (0u8..6, 0u64..1_000_000, 0usize..4096),
        cut_seed in 0usize..10_000
    ) {
        let request = build_request(op, id, size);
        let frame = encode_request(id, &request).expect("encode");
        let payload = &frame[HEADER..];
        let cut = cut_seed % payload.len().max(1);
        match decode_request(&payload[..cut]) {
            Ok((got_id, got)) => {
                // A prefix can only decode if it is itself a complete
                // well-formed payload; then it must be *this* request
                // (cut == len) — anything else would be a desync.
                prop_assert_eq!(cut, payload.len());
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got, request);
            }
            Err(err) => {
                prop_assert!(matches!(err, prism_types::PrismError::Protocol(_)));
            }
        }
    }

    /// Flipping a byte inside one frame's CRC or payload is caught by
    /// the checksum ([`Frame::Corrupt`]), never panics the decoder, and
    /// never desyncs the next frame.
    #[test]
    fn corrupt_payload_bytes_do_not_desync_the_stream(
        (op, id, size) in (0u8..6, 0u64..1_000_000, 0usize..2048),
        flip_seed in 0usize..10_000,
        flip_mask in 1u8..255
    ) {
        let victim = build_request(op, id, size);
        let mut victim_frame = encode_request(id, &victim).expect("encode");
        let tail_len = victim_frame.len() - LEN_PREFIX;
        // Corrupt the CRC or the payload, sparing the length prefix
        // (framing relies on it; a corrupt prefix is the fatal case
        // covered separately below).
        let at = LEN_PREFIX + flip_seed % tail_len;
        victim_frame[at] ^= flip_mask;
        let follower = Request::Get { key: Key::from_id(42) };
        let mut stream = victim_frame;
        stream.extend(encode_request(id + 1, &follower).expect("encode"));

        let mut decoder = FrameDecoder::new();
        decoder.push(&stream);
        // Frame 1: the checksum must catch the flip.
        let first = decoder.next_frame().expect("framing intact").expect("frame 1");
        prop_assert!(matches!(first, Frame::Corrupt { .. }));
        prop_assert_eq!(decoder.corrupt_frames(), 1);
        // Frame 2 must be byte-exact regardless.
        let second = decoder.next_frame().expect("framing intact").expect("frame 2");
        let (follower_id, follower_got) =
            decode_request(&intact(second)).expect("follower intact");
        prop_assert_eq!(follower_id, id + 1);
        prop_assert_eq!(follower_got, follower);
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    /// An oversized length prefix is detected immediately, poisons the
    /// decoder, and never causes an allocation of the claimed size.
    #[test]
    fn oversized_length_prefixes_poison_cleanly(
        excess in 1u32..1_000_000,
        junk in prop::collection::vec(0u8..255, 0..64)
    ) {
        let mut decoder = FrameDecoder::new();
        decoder.push(&(MAX_FRAME as u32 + excess).to_le_bytes());
        // The decoder waits for the full header (length + CRC) before
        // judging the length, so give it a CRC's worth of bytes too.
        decoder.push(&[0u8; CRC_PREFIX]);
        decoder.push(&junk);
        prop_assert!(decoder.next_frame().is_err());
        // Still poisoned after more (sound) bytes arrive.
        decoder.push(&encode_request(1, &Request::Ping).expect("encode"));
        prop_assert!(decoder.next_frame().is_err());
    }

    /// Arbitrary garbage payloads never panic the request decoder.
    #[test]
    fn garbage_payloads_never_panic(
        garbage in prop::collection::vec(0u8..255, 0..400)
    ) {
        let _ = decode_request(&garbage);
        let _ = decode_response(&garbage);
    }
}
