//! The wake protocol under attack: a connection's writer sleeps with no
//! timer and is woken by whoever finishes a request, so a wake-up lost
//! anywhere — a completion racing the ticket's registration, a window
//! slot freed while the reader was going to sleep, a shutdown or a
//! vanished peer arriving mid-flight — strands a request for good.
//!
//! Every wait here is bounded by a deadline, so a lost wake-up *fails*
//! the test instead of hanging it. The engine jitters from a seeded RNG
//! before and after each call, so completions land on both sides of the
//! registration; run the file oversubscribed (`--test-threads 16` beside
//! busy shells) to widen the schedules further.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prism_frontend::FrontendOptions;
use prism_net::client::NetClient;
use prism_net::protocol::{Request, ResponseBody, Status};
use prism_net::server::{NetServer, ServerOptions};
use prism_net::transport::{duplex_listener, DuplexConnector};
use prism_types::{
    ConcurrentKvStore, EngineStats, Key, Lookup, MemStore, MutexKv, Nanos, PrismError, Result,
    ScanResult, Value, WriteBatch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CONNECTIONS: u64 = 4;
const DEADLINE: Duration = Duration::from_secs(120);

/// An in-memory engine, four shards wide, that dawdles — nothing, a
/// yield, a spin or a sleep of up to 50 µs, drawn from a seeded RNG —
/// before and after every call an executor makes.
struct JitterEngine {
    store: MutexKv<MemStore>,
    rng: Mutex<StdRng>,
}

impl JitterEngine {
    fn new(seed: u64) -> JitterEngine {
        JitterEngine {
            store: MutexKv::new(MemStore::default()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    fn jitter(&self) {
        let (kind, micros) = {
            let mut rng = self.rng.lock().expect("rng");
            (rng.gen_range(0..4u32), rng.gen_range(0..50u64))
        };
        match kind {
            0 => {}
            1 => std::thread::yield_now(),
            2 => {
                let until = Instant::now() + Duration::from_micros(micros);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            _ => std::thread::sleep(Duration::from_micros(micros)),
        }
    }

    fn around<T>(&self, call: impl FnOnce(&MutexKv<MemStore>) -> T) -> T {
        self.jitter();
        let result = call(&self.store);
        self.jitter();
        result
    }
}

impl ConcurrentKvStore for JitterEngine {
    fn put(&self, key: Key, value: Value) -> Result<Nanos> {
        self.around(|store| store.put(key, value))
    }

    fn get(&self, key: &Key) -> Result<Lookup> {
        self.around(|store| store.get(key))
    }

    fn delete(&self, key: &Key) -> Result<Nanos> {
        self.around(|store| store.delete(key))
    }

    fn scan(&self, start: &Key, count: usize) -> Result<ScanResult> {
        self.around(|store| store.scan(start, count))
    }

    fn apply_batch(&self, batch: WriteBatch) -> Result<Nanos> {
        self.around(|store| store.apply_batch(batch))
    }

    fn stats(&self) -> EngineStats {
        self.store.stats()
    }

    fn elapsed(&self) -> Nanos {
        self.store.elapsed()
    }

    fn engine_name(&self) -> &str {
        "jitter-memstore"
    }

    fn shard_count(&self) -> usize {
        4
    }

    fn shard_of(&self, key: &Key) -> usize {
        (key.id() % 4) as usize
    }
}

/// The server under test — leaked, not drained, once the test is already
/// failing: a drain joins the very threads a lost wake-up strands, and
/// the failure must be reported, not sat out.
struct Served(Option<NetServer<JitterEngine>>);

impl std::ops::Deref for Served {
    type Target = NetServer<JitterEngine>;
    fn deref(&self) -> &Self::Target {
        self.0.as_ref().expect("present until dropped")
    }
}

impl std::ops::DerefMut for Served {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.0.as_mut().expect("present until dropped")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::mem::forget(self.0.take());
        }
    }
}

fn jitter_server(seed: u64, window: usize) -> (Served, DuplexConnector) {
    let (listener, connector) = duplex_listener();
    let options = ServerOptions {
        frontend: FrontendOptions {
            executors: 2,
            ..FrontendOptions::default()
        },
        max_in_flight_per_conn: window,
    };
    let server = NetServer::start(
        Arc::new(JitterEngine::new(seed)),
        Arc::new(listener),
        options,
    )
    .expect("valid server options");
    (Served(Some(server)), connector)
}

/// Run `body` once per connection, each on its own thread, and collect
/// what they return — or fail if any is still running at the deadline
/// (the threads are left behind; the failing process takes them down).
fn on_each_connection<T: Send + 'static>(
    connector: &DuplexConnector,
    what: &str,
    body: impl Fn(u64, NetClient) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let body = Arc::new(body);
    let (done, results) = mpsc::channel();
    for conn in 0..CONNECTIONS {
        let client = NetClient::new(connector.connect().expect("dial"));
        let (body, done) = (Arc::clone(&body), done.clone());
        std::thread::spawn(move || {
            let _ = done.send(body(conn, client));
        });
    }
    drop(done);
    let deadline = Instant::now() + DEADLINE;
    (0..CONNECTIONS)
        .map(|_| {
            let left = deadline.saturating_duration_since(Instant::now());
            results
                .recv_timeout(left)
                .unwrap_or_else(|err| panic!("{what}: a connection never finished ({err})"))
        })
        .collect()
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + DEADLINE;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn value_of(conn: u64, seq: u64) -> Value {
    Value::from_vec([conn.to_le_bytes(), seq.to_le_bytes()].concat())
}

/// Window-1 ping-pong: one request on the wire per connection at a time,
/// so every single answer needs its own wake-up and nothing that follows
/// can shake a stranded one loose. With a server-side window of 1 the
/// reader also stalls on the window after every frame, so the writer's
/// wake of the reader is exercised as often as the executor's wake of
/// the writer.
fn ping_pong(seed: u64, window: usize) {
    const REQUESTS: u64 = 5_000;
    let (mut server, connector) = jitter_server(seed, window);
    on_each_connection(&connector, "ping-pong", |conn, mut client| {
        // Eight keys per connection, spread over all four shards.
        let key = |seq: u64| Key::from_id(conn * 8 + seq % 8);
        let mut last: [Option<Value>; 8] = Default::default();
        for seq in 0..REQUESTS {
            let slot = (seq % 8) as usize;
            if seq % 3 == 0 {
                let value = value_of(conn, seq);
                client.put(key(seq), value.clone()).expect("put");
                last[slot] = Some(value);
            } else {
                assert_eq!(client.get(key(seq)).expect("get"), last[slot], "seq {seq}");
            }
        }
    });
    let frames = server.stats();
    assert_eq!(frames.frames_received, CONNECTIONS * REQUESTS);
    assert_eq!(frames.protocol_errors, 0);
    server.shutdown();
    assert_eq!(server.outstanding_tickets(), 0);
    assert_eq!(server.stats().in_flight, 0);
    assert_eq!(server.stats().frames_sent, CONNECTIONS * REQUESTS);
}

#[test]
fn window_one_ping_pong_loses_no_wakeup() {
    ping_pong(0xC0FFEE, 64);
}

#[test]
fn window_one_ping_pong_through_a_one_slot_server_window() {
    ping_pong(0xBEEF, 1);
}

/// Clients that pipeline a burst past a small server window and vanish
/// without reading one answer: the reader is stalled on the window, the
/// writer's next write fails, and tickets are still completing. Nothing
/// may be stranded — every ticket is observed, every connection closes.
#[test]
fn clients_vanishing_mid_window_strand_nothing() {
    const ROUNDS: u64 = 40;
    const BURST: u64 = 32;
    let (server, connector) = jitter_server(0xDEAD, 4);
    for round in 0..ROUNDS {
        on_each_connection(&connector, "vanishing burst", move |conn, mut client| {
            for seq in 0..BURST {
                let key = Key::from_id((round * CONNECTIONS + conn) * BURST + seq);
                let request = if seq % 4 == 3 {
                    Request::Get { key }
                } else {
                    Request::Put {
                        key,
                        value: value_of(conn, seq),
                    }
                };
                // The server may already have noticed a failed write and
                // torn the connection down under us.
                if client.send(&request).is_err() {
                    break;
                }
            }
            // Read part of the window in some rounds, nothing in others.
            if round % 2 == 1 {
                let _ = client.wait(1);
            }
        });
    }
    wait_until("every vanished connection to wind down", || {
        let (net, frontend) = (server.stats(), server.frontend_stats());
        net.connections_closed == ROUNDS * CONNECTIONS
            && net.in_flight == 0
            && server.outstanding_tickets() == 0
            && frontend.submitted == frontend.completed
    });
}

/// `shutdown()` racing pipelined clients: every request the front-end
/// accepted is acked `Ok` on the wire and applied, everything decoded
/// after the drain began is refused `ShuttingDown`, the rest dies with
/// the connection — and the drain itself returns.
#[test]
fn shutdown_racing_in_flight_requests_acks_what_it_submitted() {
    const PIPELINE: usize = 8;
    let (server, connector) = jitter_server(0xF00D, 64);
    let server = Arc::new(Mutex::new(server));
    let sent = Arc::new(AtomicU64::new(0));

    let (stopped, shutdown_returned) = mpsc::channel();
    {
        let (server, sent) = (Arc::clone(&server), Arc::clone(&sent));
        std::thread::spawn(move || {
            // Let traffic build, then pull the plug mid-flight.
            while sent.load(Ordering::Relaxed) < 2_000 {
                std::thread::yield_now();
            }
            server.lock().expect("server").shutdown();
            let _ = stopped.send(());
        });
    }

    let progress = Arc::clone(&sent);
    let acked: Vec<Vec<u64>> =
        on_each_connection(&connector, "shutdown race", move |conn, mut client| {
            let mut acked = Vec::new();
            let mut window = std::collections::VecDeque::new();
            let mut next = 0u64;
            let mut open = true;
            while open || !window.is_empty() {
                while open && window.len() < PIPELINE {
                    let key_id = conn * 1_000_000 + next;
                    let request = Request::Put {
                        key: Key::from_id(key_id),
                        value: value_of(conn, next),
                    };
                    match client.send(&request) {
                        Ok(wire_id) => window.push_back((wire_id, key_id)),
                        Err(_) => open = false,
                    }
                    next += 1;
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                let Some((wire_id, key_id)) = window.pop_front() else {
                    break;
                };
                match client.wait(wire_id) {
                    Ok(response) if response.status == Status::Ok => {
                        assert_eq!(response.body, ResponseBody::Ack);
                        acked.push(key_id);
                    }
                    Ok(response) if response.status == Status::ShuttingDown => open = false,
                    Ok(response) => panic!("unexpected status {:?}", response.status),
                    // The connection is gone; answers that overtook this
                    // one are already stashed in the client, so keep asking.
                    Err(PrismError::Disconnected) => open = false,
                    Err(err) => panic!("unexpected error {err}"),
                }
            }
            acked
        });
    shutdown_returned
        .recv_timeout(DEADLINE)
        .expect("the shutdown itself must return");

    let server = server.lock().expect("server");
    let frontend = server.frontend_stats();
    let acked_total: u64 = acked.iter().map(|keys| keys.len() as u64).sum();
    assert!(acked_total > 0, "the race must start after traffic began");
    assert_eq!(frontend.submitted, frontend.completed);
    assert_eq!(
        frontend.completed, acked_total,
        "everything the front-end accepted is acked on the wire, and nothing else is"
    );
    assert_eq!(server.outstanding_tickets(), 0);
    assert_eq!(server.stats().in_flight, 0);
    let engine = server.engine();
    for key_id in acked.into_iter().flatten() {
        let found = engine.get(&Key::from_id(key_id)).expect("engine get");
        assert!(found.value.is_some(), "acked put {key_id} was not applied");
    }
}
