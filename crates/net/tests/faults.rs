//! Connection fault-injection battery: vanished clients, corrupt
//! frames, back-pressure storms and graceful shutdown, all driven over
//! the deterministic in-process duplex transport against a real PrismDB
//! engine.
//!
//! The invariant under attack is always the same: whatever a client
//! does, the server strands nothing — no outstanding tickets, no leaked
//! snapshot pins — and keeps serving everyone else.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prism_db::{
    FaultMode, FaultOp, FaultPlan, FaultTier, Options, PartitionHealth, PrismDb, TargetedFault,
};
use prism_frontend::FrontendOptions;
use prism_net::client::NetClient;
use prism_net::protocol::{encode_request, Request, Status};
use prism_net::server::{NetServer, ServerOptions};
use prism_net::transport::{duplex_listener, DuplexConnector};
use prism_types::checksum::crc32;
use prism_types::{ConcurrentKvStore, Key, PrismError, Value, WriteBatch};

fn test_server(keys: u64, options: ServerOptions) -> (NetServer<PrismDb>, DuplexConnector) {
    let mut engine_options = Options::scaled_default(keys);
    engine_options.num_partitions = 4;
    let engine = Arc::new(PrismDb::open(engine_options).expect("valid options"));
    let (listener, connector) = duplex_listener();
    let server =
        NetServer::start(engine, Arc::new(listener), options).expect("valid server options");
    (server, connector)
}

fn client(connector: &DuplexConnector) -> NetClient {
    NetClient::new(connector.connect().expect("dial"))
}

/// Spin until `cond` holds (the server's drains are asynchronous), with
/// a hard timeout so a regression fails instead of hanging CI.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn disconnect_mid_frame_strands_nothing_and_serving_continues() {
    let (server, connector) = test_server(4_000, ServerOptions::default());

    // Client A dies mid-frame: a length prefix promising 64 payload bytes
    // followed by only 10 of them.
    let mut half_open = connector.connect().expect("dial");
    half_open
        .writer
        .write_all(&64u32.to_le_bytes())
        .expect("prefix");
    half_open
        .writer
        .write_all(&[0xAB; 10])
        .expect("partial payload");
    drop(half_open);

    // The half-frame never becomes a request, so nothing dangles.
    wait_until("the half-open connection to close", || {
        server.stats().connections_closed == 1
    });
    assert_eq!(server.outstanding_tickets(), 0);
    assert_eq!(server.stats().in_flight, 0);
    assert_eq!(server.stats().frames_received, 0);

    // Client B is unaffected.
    let mut healthy = client(&connector);
    healthy
        .put(Key::from_id(1), Value::filled(64, 7))
        .expect("put");
    assert_eq!(
        healthy
            .get(Key::from_id(1))
            .expect("get")
            .expect("present")
            .as_bytes()[0],
        7
    );
    assert_eq!(server.stats().connections_accepted, 2);
}

#[test]
fn disconnect_with_requests_in_flight_leaks_no_tickets_or_pins() {
    let (server, connector) = test_server(8_000, ServerOptions::default());

    // Seed data so scans have something to pin a snapshot over.
    let mut seeder = client(&connector);
    for id in 0..300u64 {
        seeder
            .put(Key::from_id(id), Value::filled(48, id as u8))
            .expect("seed put");
    }

    // The victim pipelines a burst of writes, scans (which pin engine
    // snapshots while executing) and a batch — then vanishes without
    // reading a single response.
    let mut victim = client(&connector);
    for id in 0..64u64 {
        victim
            .send(&Request::Put {
                key: Key::from_id(1_000 + id),
                value: Value::filled(32, id as u8),
            })
            .expect("send put");
        if id % 4 == 0 {
            victim
                .send(&Request::Scan {
                    start: Key::from_id(id),
                    count: 100,
                })
                .expect("send scan");
        }
    }
    let mut batch = WriteBatch::new();
    for id in 0..32u64 {
        batch.put(Key::from_id(2_000 + id), Value::filled(16, id as u8));
    }
    victim.send(&Request::Batch { batch }).expect("send batch");
    victim.flush().expect("flush: `send` only queues");
    drop(victim); // mid-batch, mid-everything: both pipes tear down

    // Quiescent means: the victim's connection is torn down (counted only
    // after its reader returned and its responder was joined, so nothing
    // is still being submitted from buffered frames — the seeder stays
    // open, so the one close is the victim's), no ticket or wire request
    // is outstanding, and every accepted request has executed. The two
    // front-end counters are independent loads, so equality is part of
    // the awaited predicate rather than asserted from one later snapshot.
    wait_until("the victim's teardown and its requests to finish", || {
        let (net, frontend) = (server.stats(), server.frontend_stats());
        net.connections_closed >= 1
            && net.in_flight == 0
            && server.outstanding_tickets() == 0
            && frontend.submitted == frontend.completed
    });
    // Scans release their snapshot pins even though nobody read the
    // results.
    assert_eq!(server.engine().active_snapshots(), 0);

    // Accepted writes were not torn down with the connection: once
    // submitted they execute — and a fresh connection sees them.
    let mut survivor = client(&connector);
    assert!(
        survivor.get(Key::from_id(1_000)).expect("get").is_some(),
        "a submitted-before-disconnect write must still execute"
    );
}

#[test]
fn corrupt_frames_get_protocol_errors_without_killing_the_connection() {
    let (server, connector) = test_server(2_000, ServerOptions::default());
    let mut conn = connector.connect().expect("dial");

    // A sound frame whose payload is garbage: id 9999, bogus opcode 200.
    let mut garbage_payload = 9_999u64.to_le_bytes().to_vec();
    garbage_payload.push(200);
    garbage_payload.extend_from_slice(&[1, 2, 3]);
    let mut frame = (garbage_payload.len() as u32).to_le_bytes().to_vec();
    frame.extend(crc32(&garbage_payload).to_le_bytes());
    frame.extend(&garbage_payload);
    conn.writer.write_all(&frame).expect("garbage frame");

    let mut client = NetClient::new(conn);
    // The protocol error comes back routed by the peeked id...
    let response = client.wait(9_999).expect("protocol error response");
    assert_eq!(response.status, Status::ProtocolError);
    // ...and the connection still works for well-formed requests.
    client
        .put(Key::from_id(5), Value::filled(8, 1))
        .expect("put after garbage");
    assert_eq!(server.stats().protocol_errors, 1);
    assert_eq!(server.stats().connections_closed, 0);
}

#[test]
fn checksum_failed_frames_are_refused_and_the_connection_survives() {
    let (server, connector) = test_server(2_000, ServerOptions::default());
    let mut conn = connector.connect().expect("dial");

    // A well-formed PUT whose payload is damaged *after* the CRC was
    // computed — the wire-corruption case the frame checksum exists for.
    let id = 77u64;
    let mut frame = encode_request(
        id,
        &Request::Put {
            key: Key::from_id(3),
            value: Value::filled(16, 3),
        },
    )
    .expect("encode");
    let last = frame.len() - 1;
    frame[last] ^= 0x40; // single bit flip in the payload
    conn.writer.write_all(&frame).expect("corrupt frame");

    let mut client = NetClient::new(conn);
    // The server detects the flip, refuses exactly that id, and keeps
    // the connection; the flipped value must never have been applied.
    let response = client.wait(id).expect("checksum refusal");
    assert_eq!(response.status, Status::ProtocolError);
    assert!(
        response.message.contains("checksum"),
        "refusal must say why: {}",
        response.message
    );
    assert_eq!(client.get(Key::from_id(3)).expect("get"), None);
    client
        .put(Key::from_id(3), Value::filled(16, 3))
        .expect("put after corruption");
    assert_eq!(server.stats().protocol_errors, 1);
    assert_eq!(server.stats().connections_closed, 0);
}

/// Refusals of checksum-failed frames occupy the per-connection window
/// like any other response: a peer that streams bad frames and never
/// reads cannot make the server buffer more than the window.
#[test]
fn checksum_failed_frames_are_held_to_the_in_flight_window() {
    const WINDOW: u64 = 4;
    let options = ServerOptions {
        max_in_flight_per_conn: WINDOW as usize,
        ..ServerOptions::default()
    };
    let (server, connector) = test_server(2_000, options);
    let mut conn = connector.connect().expect("dial");

    let frames = 4 * WINDOW;
    let mut burst = Vec::new();
    for id in 0..frames {
        let mut frame = encode_request(
            id,
            &Request::Put {
                key: Key::from_id(id),
                value: Value::filled(16, 3),
            },
        )
        .expect("encode");
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        burst.extend(frame);
    }
    conn.writer.write_all(&burst).expect("corrupt burst");

    // Nothing has been read yet.
    wait_until("every corrupt frame to be detected", || {
        server.stats().protocol_errors == frames
    });
    assert!(
        server.stats().max_conn_in_flight <= WINDOW,
        "refusals must respect the window, saw {} pending",
        server.stats().max_conn_in_flight
    );
    let mut client = NetClient::new(conn);
    for id in 0..frames {
        let response = client.wait(id).expect("checksum refusal");
        assert_eq!(response.status, Status::ProtocolError);
    }
    assert!(server.stats().max_conn_in_flight <= WINDOW);
    assert_eq!(server.stats().connections_closed, 0);
}

#[test]
fn oversized_scans_stream_as_continuation_frames_and_reassemble() {
    // ~2 000 entries x 1 KiB is several times the 1 MiB frame bound, so
    // the server must stream the scan as continuation frames instead of
    // refusing it; the client hands back one seamless result.
    const KEYS: u64 = 2_000;
    let (server, connector) = test_server(KEYS, ServerOptions::default());
    let mut client = client(&connector);
    for id in 0..KEYS {
        client
            .put(Key::from_id(id), Value::filled(1_024, id as u8))
            .expect("load");
    }

    let entries = client
        .scan(Key::from_id(0), KEYS as u32)
        .expect("oversized scan");
    assert_eq!(entries.len(), KEYS as usize, "no entry may be dropped");
    for (i, (key, value)) in entries.iter().enumerate() {
        assert_eq!(key.id(), i as u64, "scan order must survive streaming");
        assert_eq!(value.len(), 1_024);
        assert_eq!(value.as_bytes()[0], i as u8);
    }
    // The wire really did split it: more response frames than requests.
    let stats = server.stats();
    assert!(
        stats.frames_sent > stats.frames_received,
        "a streamed scan must emit continuation frames ({} sent vs {} received)",
        stats.frames_sent,
        stats.frames_received
    );
    assert_eq!(stats.connections_closed, 0);
}

/// The remote-abort regression: a scan's count field is a bound on the
/// answer, not a buffer size. `u32::MAX` — the largest count the wire
/// carries — used to make the engine reserve hundreds of gigabytes and
/// abort the whole server process.
#[test]
fn a_scan_for_u32_max_entries_returns_the_store_and_the_server_survives() {
    const KEYS: u64 = 100;
    let (server, connector) = test_server(KEYS, ServerOptions::default());
    let mut client = client(&connector);
    for id in 0..KEYS {
        client
            .put(Key::from_id(id), Value::filled(64, id as u8))
            .expect("load");
    }
    let entries = client.scan(Key::min(), u32::MAX).expect("unbounded scan");
    let ids: Vec<u64> = entries.iter().map(|(key, _)| key.id()).collect();
    assert_eq!(ids, (0..KEYS).collect::<Vec<u64>>());
    assert_eq!(
        client
            .get(Key::from_id(7))
            .expect("still serving")
            .unwrap()
            .len(),
        64
    );
    assert_eq!(server.stats().connections_closed, 0);
}

#[test]
fn backpressure_storm_returns_retryable_rejections_that_eventually_land() {
    // A queue depth of 1 makes rejections near-certain under a pipelined
    // burst; the client's transparent retry must still land every write.
    let options = ServerOptions {
        frontend: FrontendOptions {
            executors: 1,
            queue_capacity: 1,
        },
        max_in_flight_per_conn: 256,
    };
    let (server, connector) = test_server(4_000, options);
    let mut storm = client(&connector);

    const OPS: u64 = 400;
    let mut ids = Vec::new();
    for id in 0..OPS {
        ids.push(
            storm
                .send(&Request::Put {
                    key: Key::from_id(id),
                    value: Value::filled(24, id as u8),
                })
                .expect("send"),
        );
    }
    for id in ids {
        let response = storm.wait(id).expect("response");
        assert_eq!(
            response.status,
            Status::Ok,
            "retries must eventually land every write: {}",
            response.message
        );
    }
    assert!(
        storm.backpressure_seen > 0,
        "a depth-1 queue under a 400-op burst must reject at least once"
    );
    assert_eq!(
        server.stats().backpressure_rejections,
        storm.backpressure_seen
    );
    // Every op landed exactly once despite the rejections.
    for id in (0..OPS).step_by(37) {
        assert_eq!(
            storm
                .get(Key::from_id(id))
                .expect("get")
                .expect("landed")
                .as_bytes()[0],
            id as u8
        );
    }
}

#[test]
fn tiny_in_flight_window_throttles_without_losing_requests() {
    let options = ServerOptions {
        max_in_flight_per_conn: 2,
        ..ServerOptions::default()
    };
    let (server, connector) = test_server(4_000, options);
    let mut pipeliner = client(&connector);
    let ids: Vec<u64> = (0..200u64)
        .map(|id| {
            pipeliner
                .send(&Request::Put {
                    key: Key::from_id(id),
                    value: Value::filled(16, id as u8),
                })
                .expect("send")
        })
        .collect();
    for id in ids {
        assert_eq!(pipeliner.wait(id).expect("response").status, Status::Ok);
    }
    // The counters are bumped after the response bytes hit the wire, so
    // the last increment can trail the client's read by an instant.
    wait_until("the sent-frames counter to catch up", || {
        server.stats().frames_sent == 200
    });
    let stats = server.stats();
    assert_eq!(stats.frames_received, 200);
    assert!(stats.max_in_flight >= 1);
    // The reader admits a request only while fewer than two are pending;
    // transiently the gauge can exceed the window by the batch being
    // written out, but never by much.
    assert!(
        stats.max_in_flight <= 8,
        "window 2 must bound in-flight, saw {}",
        stats.max_in_flight
    );
}

#[test]
fn graceful_shutdown_acks_in_flight_and_refuses_stragglers() {
    let (mut server, connector) = test_server(4_000, ServerOptions::default());
    let mut submitter = client(&connector);
    let ids: Vec<u64> = (0..80u64)
        .map(|id| {
            submitter
                .send(&Request::Put {
                    key: Key::from_id(id),
                    value: Value::filled(32, id as u8),
                })
                .expect("send")
        })
        .collect();
    submitter.flush().expect("flush: `send` only queues");
    // Let the server ingest the whole pipeline before draining, so every
    // request is genuinely in flight when shutdown begins.
    wait_until("the server to ingest all frames", || {
        server.stats().frames_received == 80
    });
    server.shutdown();

    // Everything submitted before the drain is answered: acked, or — if
    // it raced the queue teardown — refused with ShuttingDown. Nothing
    // hangs, nothing is dropped silently.
    let mut acked = 0;
    let mut refused = 0;
    for id in ids {
        match submitter.wait(id) {
            Ok(response) if response.status == Status::Ok => acked += 1,
            Ok(response) if response.status == Status::ShuttingDown => refused += 1,
            Ok(response) => panic!("unexpected status {:?}", response.status),
            // The connection may EOF after the last queued response.
            Err(PrismError::Disconnected) => break,
            Err(err) => panic!("unexpected error {err}"),
        }
    }
    assert!(acked > 0, "a graceful drain must ack in-flight requests");
    assert_eq!(server.outstanding_tickets(), 0);
    assert_eq!(server.stats().in_flight, 0);
    let frontend = server.frontend_stats();
    assert_eq!(frontend.submitted, frontend.completed);
    assert_eq!(frontend.outstanding_tickets, 0);

    // New traffic after shutdown cannot land.
    match submitter.put(Key::from_id(999), Value::filled(8, 1)) {
        Err(PrismError::Disconnected) | Err(PrismError::ShuttingDown) => {}
        other => panic!("writes after shutdown must fail, got {other:?}"),
    }
    let _ = (acked, refused);
}

#[test]
fn server_kill_mid_pipeline_reconnects_replays_and_converges() {
    let mut engine_options = Options::scaled_default(8_000);
    engine_options.num_partitions = 4;
    let engine = Arc::new(PrismDb::open(engine_options).expect("valid options"));
    let (listener, connector) = duplex_listener();
    let mut first = NetServer::start(
        Arc::clone(&engine),
        Arc::new(listener),
        ServerOptions::default(),
    )
    .expect("first server");

    // The dialer reads the *current* connector from a shared slot, so a
    // replacement server on a fresh listener becomes reachable the
    // moment the slot is swapped.
    let current = Arc::new(Mutex::new(connector));
    let dial_slot = Arc::clone(&current);
    let mut client = NetClient::with_dialer(Box::new(move || {
        dial_slot.lock().expect("connector slot").connect()
    }))
    .expect("initial dial");

    // Pipeline a burst and kill the server with it in flight: some
    // frames are acked, some refused mid-drain, and the rest die unread
    // on the closing socket.
    const OPS: u64 = 200;
    let ids: Vec<u64> = (0..OPS)
        .map(|id| {
            client
                .send(&Request::Put {
                    key: Key::from_id(id),
                    value: Value::filled(32, id as u8),
                })
                .expect("send")
        })
        .collect();
    first.shutdown();

    // Bring a replacement up over the same engine and point the dialer
    // at it.
    let (listener, connector) = duplex_listener();
    *current.lock().expect("connector slot") = connector;
    let second = NetServer::start(
        Arc::clone(&engine),
        Arc::new(listener),
        ServerOptions::default(),
    )
    .expect("second server");

    // Draining heals the connection transparently: every id resolves —
    // acked by the first server, refused ShuttingDown mid-drain, or
    // replayed to the second and acked there. Nothing hangs, nothing is
    // silently lost.
    let mut refused = Vec::new();
    for (key_id, wire_id) in ids.iter().enumerate() {
        let response = client.wait(*wire_id).expect("pipeline must resolve");
        match response.status {
            Status::Ok => {}
            Status::ShuttingDown => refused.push(key_id as u64),
            other => panic!("unexpected status {other:?}: {}", response.message),
        }
    }
    for key_id in refused {
        client
            .put(Key::from_id(key_id), Value::filled(32, key_id as u8))
            .expect("re-put of a refused write");
    }

    // Every key converges on the shared engine, read back through
    // whatever connection the client is on now.
    for id in 0..OPS {
        let value = client
            .get(Key::from_id(id))
            .expect("get")
            .expect("key must have landed");
        assert_eq!(value.as_bytes()[0], id as u8);
    }
    assert!(
        client.reconnects >= 1,
        "killing the server mid-pipeline must force at least one reconnect"
    );
    assert_eq!(second.outstanding_tickets(), 0);
    let _ = second;
}

#[test]
fn reconnect_without_a_dialer_stays_a_hard_disconnect() {
    let (mut server, connector) = test_server(2_000, ServerOptions::default());
    let mut plain = client(&connector);
    plain
        .put(Key::from_id(1), Value::filled(8, 1))
        .expect("put");
    server.shutdown(); // takes the listener and every connection down
                       // The very first post-shutdown write may catch a ShuttingDown
                       // refusal off the draining server; after that the dead socket is a
                       // hard Disconnected — never a silent reconnect.
    let mut disconnected = false;
    for id in 2..10u64 {
        match plain.put(Key::from_id(id), Value::filled(8, id as u8)) {
            Err(PrismError::Disconnected) => {
                disconnected = true;
                break;
            }
            Err(PrismError::ShuttingDown) => continue,
            other => panic!("writes after shutdown must fail, got {other:?}"),
        }
    }
    assert!(
        disconnected,
        "a dialer-less client must surface Disconnected"
    );
    assert_eq!(plain.reconnects, 0);
}

#[test]
fn corruption_and_degraded_mode_map_onto_their_wire_statuses() {
    // One partition with a hair-trigger quarantine threshold, plus an
    // armed one-shot bit flip on the next NVM write.
    let plan = Arc::new(FaultPlan::new(42));
    let mut engine_options = Options::scaled_default(2_000);
    engine_options.num_partitions = 1;
    engine_options.corruption_quarantine_threshold = 1;
    engine_options.fault_plan = Some(Arc::clone(&plan));
    let engine = Arc::new(PrismDb::open(engine_options).expect("valid options"));
    let (listener, connector) = duplex_listener();
    let server = NetServer::start(
        Arc::clone(&engine),
        Arc::new(listener),
        ServerOptions::default(),
    )
    .expect("server");
    let mut client = client(&connector);
    // Degraded is retryable on the wire; keep the transparent retry
    // short so the refusal surfaces while the partition is still down.
    client.max_retries = 2;
    client.retry_backoff = Duration::from_micros(10);

    client
        .put(Key::from_id(1), Value::filled(64, 1))
        .expect("clean put");

    plan.arm(TargetedFault {
        tier: FaultTier::Nvm,
        partition: Some(0),
        op: FaultOp::Write,
        mode: FaultMode::BitFlip,
    });
    client
        .put(Key::from_id(2), Value::filled(64, 2))
        .expect("the corrupting put itself succeeds");

    // The read detects the flip: a terminal Corruption on the wire,
    // and — with threshold 1 — the partition flips to read-only.
    match client.get(Key::from_id(2)) {
        Err(PrismError::Corruption(message)) => {
            assert!(
                !message.is_empty(),
                "corruption context must survive the wire"
            );
        }
        other => panic!("a corrupt read must map to Corruption, got {other:?}"),
    }
    assert_eq!(engine.shard_health(0), PartitionHealth::Degraded);

    // Writes now refuse with the retryable Degraded status...
    match client.put(Key::from_id(3), Value::filled(64, 3)) {
        Err(PrismError::Degraded { .. }) => {}
        other => panic!("writes to a degraded partition must map to Degraded, got {other:?}"),
    }
    assert!(
        client.backpressure_seen >= 2,
        "Degraded must be retried transparently before surfacing"
    );
    // ...while reads of healthy keys keep being served.
    assert!(client
        .get(Key::from_id(1))
        .expect("degraded read")
        .is_some());

    // A clean scrub pass re-arms the partition and writes land again —
    // including a rewrite of the quarantined key, which heals it.
    engine.scrub();
    assert_eq!(engine.shard_health(0), PartitionHealth::Healthy);
    client
        .put(Key::from_id(3), Value::filled(64, 3))
        .expect("put after scrub re-arm");
    client
        .put(Key::from_id(2), Value::filled(64, 9))
        .expect("rewrite of the quarantined key");
    let healed = client.get(Key::from_id(2)).expect("healed get");
    assert_eq!(healed.expect("present").as_bytes()[0], 9);
    assert!(plan.injected_corruptions() >= 1);
    let _ = server;
}

/// Keys are whole byte strings end to end: one wire batch writing two
/// keys that share their first eight bytes (the engine's routing and
/// bucketing projection) stores both, and a key too long for the inline
/// form round-trips through frame decode, engine and scan reply.
#[test]
fn a_batch_of_prefix_sharing_keys_lands_whole_over_the_wire() {
    let (server, connector) = test_server(2_000, ServerOptions::default());
    let mut client = client(&connector);
    let a = Key::from_bytes(b"user1234A".to_vec());
    let b = Key::from_bytes(b"user1234B".to_vec());
    let long = Key::from_bytes([&b"user1234"[..], &[b'x'; 292]].concat());

    let mut batch = WriteBatch::new();
    batch.put(a.clone(), Value::filled(64, 0xAA));
    batch.put(b.clone(), Value::filled(64, 0xBB));
    batch.put(long.clone(), Value::filled(64, 0xCC));
    client.batch(batch).expect("batch lands");

    for (key, fill) in [(&a, 0xAA), (&b, 0xBB), (&long, 0xCC)] {
        let got = client.get(key.clone()).expect("get");
        assert_eq!(got, Some(Value::filled(64, fill)), "{key:?}");
    }
    let scanned = client.scan(Key::min(), 10).expect("scan");
    let keys: Vec<&Key> = scanned.iter().map(|(key, _)| key).collect();
    assert_eq!(keys, [&a, &b, &long]);
    let _ = server;
}

#[test]
fn many_connections_interleave_and_drain_clean() {
    let (mut server, connector) = test_server(16_000, ServerOptions::default());
    let mut handles = Vec::new();
    for conn_id in 0..6u64 {
        let connector = connector.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::new(connector.connect().expect("dial"));
            let base = conn_id * 1_000;
            for id in 0..150u64 {
                client
                    .put(Key::from_id(base + id), Value::filled(40, conn_id as u8))
                    .expect("put");
            }
            for id in (0..150u64).step_by(11) {
                let value = client.get(Key::from_id(base + id)).expect("get");
                assert_eq!(value.expect("present").as_bytes()[0], conn_id as u8);
            }
            let entries = client.scan(Key::from_id(base), 50).expect("scan");
            assert!(!entries.is_empty());
            client.ping().expect("ping");
        }));
    }
    for handle in handles {
        handle.join().expect("client thread");
    }
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 6);
    assert_eq!(stats.protocol_errors, 0);
    server.shutdown();
    assert_eq!(server.outstanding_tickets(), 0);
    assert_eq!(server.engine().active_snapshots(), 0);
    let stats = server.stats();
    assert_eq!(stats.connections_closed, 6);
    assert_eq!(stats.frames_received, stats.frames_sent);
}
