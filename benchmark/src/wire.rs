//! The wire workload: two client threads, each with its own duplex
//! connection and an eight-deep pipeline, through `NetServer` → `Frontend`
//! → `PrismDb`, in a closed loop. The traced run adds the per-layer
//! experiments of the serving path: the same op stream replayed at three
//! boundaries, an open-loop run at a fixed rate, and the cost of a shared
//! observability hub.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prism_db::PrismDb;
use prism_frontend::{Frontend, FrontendOptions};
use prism_net::protocol::Frame;
use prism_net::{
    decode_response, duplex_listener, encode_request, DuplexConnector, FrameDecoder, NetClient,
    NetServer, Request, ResponseBody, ServerOptions, Status,
};
use prism_obs::{MetricsSnapshot, ObsHub};
use prism_types::{ConcurrentKvStore, FrontendStats, Key, NetStats, Op, Value};
use prism_workloads::{OpStream, Workload};

use crate::budget::{self, substrate_rows, Row};
use crate::engine::{crash_and_verify, engine_counters, set_up_repeatedly, Baseline, GetTimes};
use crate::measure::{summarize, trace_overhead_pct, ClientLog};
use crate::oracle::Oracle;
use crate::probes::{wire_request, ProbeInput};
use crate::spec::{Outcome, Spec, SEGMENTS};
use crate::stats::{mean, percentile, percentile_of, vm_hwm_mb};
use crate::trace::{SpanName, Tracer};

/// Client threads, each with one connection: no more than the sandbox has
/// cores.
const CLIENTS: usize = 2;
/// Requests a client keeps in flight.
const PIPELINE: usize = 8;
/// One executor, because the process is pinned to one CPU — and because
/// with more than one, `Frontend`'s work stealing can strand a request: a
/// stealer holds a partition's drain lock over an empty queue while the
/// owner, woken for a request that lands just then, fails `try_lock` and
/// goes back to sleep. Pipelined traffic shakes such a request loose with
/// the next submission; the window-1 replays (and the last requests of a
/// run) would wait forever, and on one CPU a preempted stealer makes that
/// likely enough to have hung the smoke test.
const EXECUTORS: usize = 1;
/// Ops replayed at each of the three boundaries (and the ping-pong count).
const REPLAY_OPS: usize = 20_000;
/// The open loop sends this many requests per second ...
const OPEN_RATE: u64 = 10_000;
/// ... this many times.
const OPEN_REQUESTS: usize = 30_000;
/// Ops of each side of the shared-hub comparison.
const OBS_OPS: usize = 40_000;

/// Restrict the calling thread, and with it every thread spawned from here
/// on, to the highest-numbered CPU it may run on.
///
/// The wire path keeps more threads runnable than the sandbox has cores
/// (two clients, a reader and a responder per connection, the executors).
/// On its 2 cores, where the scheduler happened to put them decided ±13 %
/// of `wall_kops` from one run to the next; on one CPU the same pipeline does ~15 % less and
/// repeats within ~2 %. This workload measures what the serving path costs
/// per op, not how it scales, so it takes the steadier clock.
fn pin_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // glibc's `cpu_set_t`: 1024 bits.
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of exactly `bytes`
        // bytes, which is the size passed; pid 0 names the calling thread.
        let read = unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) };
        let highest = (0..allowed.len())
            .rev()
            .find(|&word| allowed[word] != 0)
            .map(|word| (word, 63 - allowed[word].leading_zeros()));
        let (0, Some((word, bit))) = (read, highest) else {
            eprintln!("benchmark: cannot read the CPU affinity; wire_b runs unpinned");
            return;
        };
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes, only read.
        if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
            eprintln!("benchmark: cannot set the CPU affinity; wire_b runs unpinned");
        }
    }
}

/// One client's share of the workload: every `CLIENTS`-th key, so that
/// the order of acknowledged writes to a key — and with it the oracle —
/// is one client's program order.
struct WireClient {
    conn: NetClient,
    stream: OpStream,
    oracle: Oracle,
    offset: u64,
}

impl WireClient {
    fn own(&self, key: &Key) -> Key {
        Key::from_id(key.id() * CLIENTS as u64 + self.offset)
    }

    fn next_op(&mut self) -> Op {
        match self.stream.next().expect("the stream is endless") {
            Op::Read(key) => Op::Read(self.own(&key)),
            Op::Update(key, value) => Op::Update(self.own(&key), value),
            _ => unreachable!("YCSB-B is reads and updates"),
        }
    }
}

/// A request on the wire and what its answer will be checked against.
struct InFlight {
    wire_id: u64,
    req: u64,
    key: Key,
    put: Option<Value>,
    sent_at: Instant,
}

impl WireClient {
    /// Wait for the answer to `sent`, time the round trip, check it.
    fn complete(&mut self, sent: InFlight, log: &mut ClientLog, tracer: Option<&mut Tracer>) {
        let waiting_from = Instant::now();
        let response = self.conn.wait(sent.wire_id);
        let done = Instant::now();
        log.sample((done - sent.sent_at).as_nanos() as u64);
        let ok = match response {
            Ok(response) if response.status == Status::Ok => match (sent.put, response.body) {
                (Some(value), ResponseBody::Ack) => {
                    log.sim_write.push(response.latency.as_nanos());
                    self.oracle.put(&sent.key, &value);
                    true
                }
                (None, ResponseBody::Value(value)) => {
                    log.sim_read.push(response.latency.as_nanos());
                    self.oracle.check_get(&sent.key, value.as_ref())
                }
                _ => false,
            },
            _ => false,
        };
        log.failed += !ok as u64;
        if let Some(tracer) = tracer {
            let request = Some(SpanName::Request);
            tracer.span(sent.req, SpanName::NetWait, request, waiting_from, done);
            tracer.span(sent.req, SpanName::Request, None, sent.sent_at, done);
        }
    }

    /// Run `ops` ops with [`PIPELINE`] requests in flight, in `segments`
    /// equal parts. A client never has two requests on one key in flight
    /// when one of them is a write: the front-end orders a read against
    /// writes it was submitted with either way, and the oracle needs one
    /// answer.
    fn drive(&mut self, ops: usize, segments: usize, mut tracer: Option<&mut Tracer>) -> ClientLog {
        let per_segment = ops.div_ceil(segments);
        let mut log = ClientLog::default();
        let mut window: VecDeque<InFlight> = VecDeque::with_capacity(PIPELINE);
        let mut sent = 0usize;
        for segment in 0..segments {
            let tracing = tracer.is_some() && segment % 2 == 1;
            let in_segment = per_segment.min(ops - sent);
            let last = segment + 1 == segments;
            let segment_start = log.start_segment(in_segment + PIPELINE, tracing);
            for _ in 0..in_segment {
                let drawn_at = Instant::now();
                let op = self.next_op();
                let generated_at = tracing.then(Instant::now);
                let (key, put) = match op {
                    Op::Read(key) => (key, None),
                    Op::Update(key, value) => (key, Some(value)),
                    _ => unreachable!("YCSB-B is reads and updates"),
                };
                let conflicts = |f: &InFlight| f.key == key && (f.put.is_some() || put.is_some());
                while window.len() == PIPELINE || window.iter().any(conflicts) {
                    let oldest = window.pop_front().expect("a full or conflicting window");
                    self.complete(oldest, &mut log, tracer.as_deref_mut().filter(|_| tracing));
                }
                let sent_at = Instant::now();
                log.attempted += 1;
                let request = match &put {
                    Some(value) => Request::Put {
                        key: key.clone(),
                        value: value.clone(),
                    },
                    None => Request::Get { key: key.clone() },
                };
                match self.conn.send(&request) {
                    Ok(wire_id) => window.push_back(InFlight {
                        wire_id,
                        req: sent as u64,
                        key,
                        put,
                        sent_at,
                    }),
                    Err(_) => log.failed += 1,
                }
                if let (Some(generated_at), Some(tracer)) = (generated_at, tracer.as_deref_mut()) {
                    let request = Some(SpanName::Request);
                    let req = sent as u64;
                    tracer.span(
                        req,
                        SpanName::WorkloadsNextOp,
                        request,
                        drawn_at,
                        generated_at,
                    );
                    tracer.span(req, SpanName::NetSend, request, sent_at, Instant::now());
                }
                sent += 1;
            }
            if last {
                while let Some(oldest) = window.pop_front() {
                    self.complete(oldest, &mut log, tracer.as_deref_mut().filter(|_| tracing));
                }
            }
            log.finish_segment(segment_start);
        }
        log
    }
}

/// A loaded engine behind a running server, and the connected clients.
struct Ready {
    db: Arc<PrismDb>,
    server: NetServer<PrismDb>,
    clients: Vec<WireClient>,
}

fn start_server(
    db: &Arc<PrismDb>,
    hub: Option<Arc<ObsHub>>,
) -> (NetServer<PrismDb>, DuplexConnector) {
    let (listener, connector) = duplex_listener();
    let options = ServerOptions {
        frontend: FrontendOptions {
            executors: EXECUTORS,
            ..FrontendOptions::default()
        },
        ..ServerOptions::default()
    };
    let server = NetServer::start_with_obs(Arc::clone(db), Arc::new(listener), options, hub)
        .expect("the server options are valid");
    (server, connector)
}

/// Run every client's `drive` on its own thread.
fn drive_all(
    clients: &mut [WireClient],
    ops: usize,
    segments: usize,
    epoch: Option<Instant>,
) -> (Vec<ClientLog>, Option<Tracer>) {
    let per_client = ops / clients.len();
    let results: Vec<(ClientLog, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut tracer = epoch.map(Tracer::since);
                    let log = client.drive(per_client, segments, tracer.as_mut());
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut logs = Vec::with_capacity(results.len());
    let mut merged: Option<Tracer> = None;
    for (log, tracer) in results {
        logs.push(log);
        match (&mut merged, tracer) {
            (Some(merged), Some(tracer)) => merged.absorb(tracer),
            (None, tracer) => merged = tracer,
            (Some(_), None) => {}
        }
    }
    (logs, merged)
}

/// Open and load the engine, start the server over it, connect the
/// clients and run `warm_ops` ops through the wire. With `shared_hub` the
/// engine, the front-end and the server record into one hub passed via
/// `Options::obs` / `start_with_obs`; without, each makes a private one.
fn set_up(spec: &Spec, seed: u64, shared_hub: bool, warm_ops: usize) -> Ready {
    let hub = shared_hub.then(|| Arc::new(ObsHub::new()));
    let db = Arc::new(PrismDb::open(spec.options(hub.clone())).expect("options are valid"));
    let mut oracles: Vec<Oracle> = (0..CLIENTS).map(|_| Oracle::default()).collect();
    for op in spec.ycsb().stream(seed).load_ops() {
        let Op::Insert(key, value) = op else {
            unreachable!("the load phase is inserts");
        };
        oracles[key.id() as usize % CLIENTS].put(&key, &value);
        db.put(key, value).expect("the load fits NVM");
    }
    let (server, connector) = start_server(&db, hub);
    let mut clients: Vec<WireClient> = (0u64..)
        .zip(oracles)
        .map(|(offset, oracle)| WireClient {
            conn: NetClient::new(connector.connect().expect("the listener is up")),
            stream: Workload::ycsb_b(spec.keys / CLIENTS as u64)
                .stream(seed * CLIENTS as u64 + offset),
            oracle,
            offset,
        })
        .collect();
    if warm_ops > 0 {
        drive_all(&mut clients, warm_ops, 1, None);
    }
    Ready {
        db,
        server,
        clients,
    }
}

/// Sum and count of the front-end's per-class stage histograms.
fn stage_totals(snapshot: &MetricsSnapshot, stage: &str) -> (f64, u64) {
    ["get", "put"]
        .iter()
        .filter_map(|class| snapshot.histogram(&format!("frontend_{stage}_{class}_ns")))
        .fold((0.0, 0), |(sum, count), h| {
            (sum + h.mean() * h.count() as f64, count + h.count())
        })
}

/// The server's and the front-end's public counters over the measured phase.
fn serving_counters(
    before: &(NetStats, FrontendStats, MetricsSnapshot),
    server: &NetServer<PrismDb>,
    ops: usize,
    out: &mut Outcome,
) {
    let net = server.stats().delta_since(before.0);
    out.set("net.frames", (net.frames_received + net.frames_sent) as f64);
    out.set(
        "net.bytes_per_op",
        (net.bytes_received + net.bytes_sent) as f64 / ops.max(1) as f64,
    );
    out.set("net.backpressure", net.backpressure_rejections as f64);
    out.set("net.protocol_errors", net.protocol_errors as f64);
    out.set("net.max_in_flight", net.max_in_flight as f64);
    let frontend = server.frontend_stats().delta_since(before.1);
    out.set("frontend.coalesce_width", frontend.mean_coalesce_width());
    out.set(
        "frontend.wakeups_per_op",
        frontend.wakeups as f64 / ops.max(1) as f64,
    );
    out.set("frontend.stolen_drains", frontend.stolen_drains as f64);
    out.set("frontend.rejected", frontend.rejected as f64);
    out.set("frontend.max_queue_depth", frontend.max_queue_depth as f64);
    let after = server.obs_hub().registry.snapshot();
    for (name, stage) in [
        ("frontend.queue_wait_us_mean", "queue_wait"),
        ("frontend.service_us_mean", "service"),
    ] {
        let (sum0, count0) = stage_totals(&before.2, stage);
        let (sum1, count1) = stage_totals(&after, stage);
        out.set(name, (sum1 - sum0) / (count1 - count0).max(1) as f64 / 1e3);
    }
}

/// Run the wire workload: `ops` measured ops from `seed`, split evenly
/// between the clients.
pub fn run(spec: &Spec, seed: u64, ops: usize, traced: bool) -> (Outcome, Option<Tracer>) {
    pin_to_one_cpu();
    let mut out = Outcome::default();
    let (mut ready, setup_s) = set_up_repeatedly(|| set_up(spec, seed, true, spec.warm_ops));
    out.set("setup_s", setup_s);

    let before = Baseline::of(&ready.db);
    let serving_before = (
        ready.server.stats(),
        ready.server.frontend_stats(),
        ready.server.obs_hub().registry.snapshot(),
    );
    let segments = if traced { 2 * SEGMENTS } else { SEGMENTS };
    let epoch = traced.then(Instant::now);
    let (mut logs, mut tracer) = drive_all(&mut ready.clients, ops, segments, epoch);
    out.set("trace.overhead_pct", trace_overhead_pct(&logs));
    summarize(&mut logs, &mut out);
    serving_counters(&serving_before, &ready.server, ops, &mut out);

    let Ready {
        db,
        mut server,
        clients,
    } = ready;
    let oracles: Vec<&Oracle> = clients.iter().map(|c| &c.oracle).collect();
    let live_bytes = oracles.iter().map(|o| o.live_bytes()).sum();
    server.shutdown();
    engine_counters(&db, &before, live_bytes, &mut out);
    crash_and_verify(&db, &oracles, &mut out);

    if let Some(tracer) = &mut tracer {
        let mut replay = spec.ycsb().stream(seed);
        for (name, value) in ProbeInput::draw(&mut replay, spec.warm_ops + ops).run() {
            out.set(name, value);
        }
        let replay_ops: Vec<Op> = replay.by_ref().take(REPLAY_OPS.min(ops)).collect();
        replay_boundaries(&db, &replay_ops, tracer, &mut out);
        let (mut open_server, connector) = start_server(&db, None);
        open_loop(&connector, &mut replay, OPEN_REQUESTS.min(ops), &mut out);
        open_server.shutdown();
        out.set(
            "obs.overhead_pct",
            obs_overhead_pct(spec, seed, OBS_OPS.min(ops)),
        );
        out.set("trace.spans", tracer.span_count() as f64);
        let next_op = tracer.total(SpanName::WorkloadsNextOp);
        out.set("workloads.gen_ns_per_op", next_op.mean_ns());

        let row = |call, ns_per_call| Row {
            call,
            per_op: 1.0,
            ns_per_call,
        };
        let direct =
            tracer.total(SpanName::CoreGet).total_ns + tracer.total(SpanName::CorePut).total_ns;
        let mut rows = vec![
            row("workloads.next_op", out.get("workloads.gen_ns_per_op")),
            row(
                "core.get|put (replayed)",
                direct as f64 / REPLAY_OPS.min(ops).max(1) as f64,
            ),
            row("+ frontend (window 1)", out.get("frontend.added_ns_per_op")),
            row("+ net (window 1)", out.get("net.added_ns_per_op")),
        ];
        rows.extend(substrate_rows(&out, ops.max(1) as f64));
        budget::print(spec.workload.name(), &out, &rows);
    }
    out.set("peak_rss_mb", vm_hwm_mb());
    (out, tracer)
}

/// Replay one op stream, one op at a time, at three boundaries — `PrismDb`
/// direct, `Frontend` submit + wait, the wire protocol over duplex — with
/// `req` shared across the three. What a layer adds is its mean minus the
/// mean of the boundary beneath it.
fn replay_boundaries(db: &Arc<PrismDb>, ops: &[Op], tracer: &mut Tracer, out: &mut Outcome) {
    // 1. The engine, called directly; gets split by the tier that served.
    let mut gets = GetTimes::default();
    let mut put = (0u64, 0u64);
    let mut direct_ns = 0u64;
    for (req, op) in (0u64..).zip(ops) {
        let t0 = Instant::now();
        let (span, source) = match op {
            Op::Read(key) => (
                SpanName::CoreGet,
                Some(db.get(key).expect("replayed read").source),
            ),
            Op::Update(key, value) => {
                db.put(key.clone(), value.clone()).expect("replayed write");
                (SpanName::CorePut, None)
            }
            _ => unreachable!("YCSB-B is reads and updates"),
        };
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        direct_ns += ns;
        match source {
            Some(source) => gets.record(source, ns),
            None => put = (put.0 + ns, put.1 + 1),
        }
        tracer.span(req, span, None, t0, t1);
    }
    gets.report(out);
    out.set("core.put_ns", mean(put.0, put.1));

    // 2. Through the front-end: submit, then wait on the ticket.
    let options = FrontendOptions {
        executors: EXECUTORS,
        ..FrontendOptions::default()
    };
    let mut frontend = Frontend::start(Arc::clone(db), options).expect("valid options");
    let mut frontend_ns = 0u64;
    for (req, op) in (0u64..).zip(ops) {
        let t0 = Instant::now();
        let (t1, t2) = match op {
            Op::Read(key) => {
                let ticket = frontend.submit_get(key).expect("the front-end is up");
                let t1 = Instant::now();
                ticket.wait().expect("replayed read");
                (t1, Instant::now())
            }
            Op::Update(key, value) => {
                let ticket = frontend
                    .submit_put(key.clone(), value.clone())
                    .expect("the front-end is up");
                let t1 = Instant::now();
                ticket.wait().expect("replayed write");
                (t1, Instant::now())
            }
            _ => unreachable!("YCSB-B is reads and updates"),
        };
        frontend_ns += (t2 - t0).as_nanos() as u64;
        tracer.span(req, SpanName::FrontendSubmit, None, t0, t1);
        tracer.span(req, SpanName::FrontendWait, None, t1, t2);
    }
    frontend.shutdown();

    // 3. Over the wire, window 1: the unloaded round trip (ping-pong).
    let (mut server, connector) = start_server(db, None);
    let conn = connector.connect().expect("the listener is up");
    let (mut reader, mut writer) = (conn.reader, conn.writer);
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 8192];
    let mut round_trips = Vec::with_capacity(ops.len());
    for (req, op) in (0u64..).zip(ops) {
        let t0 = Instant::now();
        let frame = encode_request(req + 1, &wire_request(op)).expect("ops fit a frame");
        let t1 = Instant::now();
        writer.write_all(&frame).expect("the server is up");
        let t2 = Instant::now();
        let payload = loop {
            match decoder.next_frame().expect("a sound stream") {
                Some(Frame::Intact(payload)) => break payload,
                Some(Frame::Corrupt { .. }) => unreachable!("the duplex pipe corrupts nothing"),
                None => {
                    let n = reader.read(&mut buf).expect("the server is up");
                    assert!(n > 0, "the server hung up");
                    decoder.push(&buf[..n]);
                }
            }
        };
        let t3 = Instant::now();
        let response = decode_response(&payload).expect("a sound response");
        let t4 = Instant::now();
        assert_eq!(response.status, Status::Ok, "a replayed op was refused");
        round_trips.push((t4 - t0).as_nanos() as u64);
        tracer.span(req, SpanName::NetEncode, None, t0, t1);
        tracer.span(req, SpanName::NetSend, None, t1, t2);
        tracer.span(req, SpanName::NetWait, None, t2, t3);
        tracer.span(req, SpanName::NetDecode, None, t3, t4);
    }
    drop((reader, writer));
    server.shutdown();

    let n = ops.len().max(1) as f64;
    let net_ns: u64 = round_trips.iter().sum();
    out.set(
        "frontend.added_ns_per_op",
        (frontend_ns as f64 - direct_ns as f64) / n,
    );
    out.set(
        "net.added_ns_per_op",
        (net_ns as f64 - frontend_ns as f64) / n,
    );
    round_trips.sort_unstable();
    out.set(
        "net.pingpong_p50_us",
        percentile(&round_trips, 0.50) as f64 / 1e3,
    );
    out.set(
        "net.pingpong_p99_us",
        percentile(&round_trips, 0.99) as f64 / 1e3,
    );
}

/// An open loop on one connection: a sender thread issues a request every
/// `1 / OPEN_RATE` seconds whatever the server does, a receiver thread
/// times each answer from when its request was *due*, so a stall charges
/// every request queued behind it. Reports how late the sender ran and how
/// many requests were unanswered when the schedule ended.
fn open_loop(
    connector: &DuplexConnector,
    stream: &mut OpStream,
    requests: usize,
    out: &mut Outcome,
) {
    let conn = connector.connect().expect("the listener is up");
    let (mut reader, mut writer) = (conn.reader, conn.writer);
    let interval = Duration::from_nanos(1_000_000_000 / OPEN_RATE);
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + interval * i as u32;
    let answered = AtomicU64::new(0);
    let (mut lateness, backlog, mut latencies) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lateness = Vec::with_capacity(requests);
            for i in 0..requests {
                let op = stream.next().expect("the stream is endless");
                let frame = encode_request(i as u64 + 1, &wire_request(&op)).expect("fits");
                loop {
                    let wait = due(i).saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        break;
                    }
                    // Sleep through long gaps, yield through the last stretch.
                    if wait > Duration::from_micros(500) {
                        std::thread::sleep(wait - Duration::from_micros(300));
                    } else {
                        std::thread::yield_now();
                    }
                }
                lateness.push(Instant::now().saturating_duration_since(due(i)).as_nanos() as u64);
                writer.write_all(&frame).expect("the server is up");
            }
            std::thread::sleep(due(requests).saturating_duration_since(Instant::now()));
            let backlog = requests as u64 - answered.load(Ordering::Relaxed);
            (lateness, backlog)
        });
        let receiver = scope.spawn(|| {
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 8192];
            let mut latencies = Vec::with_capacity(requests);
            while latencies.len() < requests {
                match decoder.next_frame().expect("a sound stream") {
                    Some(Frame::Intact(payload)) => {
                        let response = decode_response(&payload).expect("a sound response");
                        let due_at = due(response.id as usize - 1);
                        let late = Instant::now().saturating_duration_since(due_at);
                        latencies.push(late.as_nanos() as u64);
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(Frame::Corrupt { .. }) => unreachable!("the duplex pipe corrupts nothing"),
                    None => {
                        let n = reader.read(&mut buf).expect("the server is up");
                        assert!(n > 0, "the server hung up");
                        decoder.push(&buf[..n]);
                    }
                }
            }
            latencies
        });
        let (lateness, backlog) = sender.join().expect("the sender panicked");
        (
            lateness,
            backlog,
            receiver.join().expect("the receiver panicked"),
        )
    });
    latencies.sort_unstable();
    out.set(
        "net.open10k_p50_us",
        percentile(&latencies, 0.50) as f64 / 1e3,
    );
    out.set(
        "net.open10k_p99_us",
        percentile(&latencies, 0.99) as f64 / 1e3,
    );
    out.set(
        "net.open10k_late_p99_us",
        percentile_of(&mut lateness, 0.99) as f64 / 1e3,
    );
    out.set("net.open10k_backlog_end", backlog as f64);
}

/// `100 × (1 − with ÷ without)` of the pipelined throughput over `ops` ops,
/// with and without one `ObsHub` shared by engine, front-end and server.
/// Each side runs twice, alternating, so that neither is always the one
/// that runs on a colder process.
fn obs_overhead_pct(spec: &Spec, seed: u64, ops: usize) -> f64 {
    let mut seconds = [0.0f64; 2];
    for shared_hub in [false, true, false, true] {
        let mut ready = set_up(spec, seed, shared_hub, 0);
        let started = Instant::now();
        drive_all(&mut ready.clients, ops, 1, None);
        seconds[shared_hub as usize] += started.elapsed().as_secs_f64();
        ready.server.shutdown();
    }
    100.0 * (1.0 - seconds[0] / seconds[1])
}
