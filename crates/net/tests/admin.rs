//! Admin-plane smoke battery: the four observability endpoints served
//! over both transports while a real workload (with storage fault
//! injection) runs underneath, plus the cross-layer metric invariants
//! the CI `obs-smoke` job gates on:
//!
//! - e2e histogram count == completed front-end ops,
//! - queue-wait p99 ≤ end-to-end p99 (and mean queue-wait + mean
//!   service ≤ mean e2e) per op class,
//! - the admin responder never answers 5xx,
//! - the trace ring holds at least one compaction install event.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prism_db::{
    FaultMode, FaultOp, FaultPlan, FaultTier, Options, PartitionHealth, PrismDb, TargetedFault,
};
use prism_net::admin::{http_get, AdminClient, AdminServer};
use prism_net::client::NetClient;
use prism_net::server::{NetServer, ServerOptions};
use prism_net::transport::{duplex_listener, tcp_connect, Listener, TcpServerListener};
use prism_obs::trace::category;
use prism_obs::{MetricsSnapshot, ObsHub};
use prism_types::{ConcurrentKvStore, Key, PrismError, Value, WriteBatch};

/// Engine options that force background compaction quickly: a tight NVM
/// budget under 1 KB values, one worker, and a hair-trigger quarantine
/// threshold for the corruption leg.
fn pressured_options(hub: &Arc<ObsHub>, plan: &Arc<FaultPlan>) -> Options {
    let mut options = Options::scaled_default(2_000);
    options.num_partitions = 2;
    options.compaction_workers = 1;
    options.nvm_capacity_bytes = 256 * 1024;
    options.high_watermark = 0.6;
    options.low_watermark = 0.5;
    options.backpressure_ceiling = 0.85;
    options.corruption_quarantine_threshold = 1;
    options.fault_plan = Some(Arc::clone(plan));
    options.obs = Some(Arc::clone(hub));
    options
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Assert the per-class latency decomposition invariants on a snapshot:
/// queue-wait p99 ≤ e2e p99, and mean queue-wait + mean service ≤ mean
/// e2e (+1 ns of slop for the three separate clock reads per stage).
fn assert_stage_decomposition(snapshot: &MetricsSnapshot) -> u64 {
    let mut total_e2e = 0;
    for class in ["get", "put", "batch", "scan"] {
        let qw = snapshot.histogram(&format!("frontend_queue_wait_{class}_ns"));
        let svc = snapshot.histogram(&format!("frontend_service_{class}_ns"));
        let e2e = snapshot.histogram(&format!("frontend_e2e_{class}_ns"));
        let (Some(qw), Some(svc), Some(e2e)) = (qw, svc, e2e) else {
            continue;
        };
        if e2e.is_empty() {
            continue;
        }
        assert_eq!(
            qw.count(),
            e2e.count(),
            "{class}: every completed op records both queue-wait and e2e"
        );
        assert!(
            qw.percentile(0.99) <= e2e.percentile(0.99),
            "{class}: queue-wait p99 ({}) must not exceed e2e p99 ({})",
            qw.percentile(0.99),
            e2e.percentile(0.99),
        );
        assert!(
            qw.mean() + svc.mean() <= e2e.mean() + 1.0,
            "{class}: mean queue-wait ({}) + mean service ({}) must fit in mean e2e ({})",
            qw.mean(),
            svc.mean(),
            e2e.mean(),
        );
        total_e2e += e2e.count();
    }
    total_e2e
}

/// The duplex-transport smoke test the CI `obs-smoke` job runs: a
/// fault-injected workload with background compaction underneath, all
/// four endpoints scraped concurrently over the in-process pipe, and
/// the metric invariants checked on the quiesced snapshot.
#[test]
fn obs_smoke_duplex_scrapes_live_fault_injected_workload() {
    let hub = Arc::new(ObsHub::default());
    let plan = Arc::new(FaultPlan::new(7));
    let engine = Arc::new(PrismDb::open(pressured_options(&hub, &plan)).expect("valid options"));
    let (listener, connector) = duplex_listener();
    let server = NetServer::start_with_obs(
        Arc::clone(&engine),
        Arc::new(listener),
        ServerOptions::default(),
        Some(Arc::clone(&hub)),
    )
    .expect("server");
    let (admin_listener, admin_connector) = duplex_listener();
    let mut admin = AdminServer::start(Arc::clone(&hub), Arc::new(admin_listener));

    // Concurrent scraper: hammer all four endpoints during the whole
    // workload; any 5xx (or dropped scrape) fails the test.
    let scraping = Arc::new(AtomicBool::new(true));
    let scraper = {
        let scraping = Arc::clone(&scraping);
        let connector = admin_connector.clone();
        std::thread::spawn(move || {
            let mut client = AdminClient::new(connector.connect().expect("admin dial"));
            let mut scrapes = 0u64;
            while scraping.load(Ordering::Acquire) {
                for path in ["/metrics", "/stats.json", "/health", "/trace?last=64"] {
                    let response = client.get(path).expect("scrape mid-workload");
                    assert!(
                        response.status < 500,
                        "admin plane answered {} for {path}",
                        response.status
                    );
                    assert_eq!(response.status, 200, "{path} must resolve");
                    scrapes += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            scrapes
        })
    };

    // The workload: enough write volume to trip the NVM watermark (and
    // the background demotion pipeline), plus reads, scans and batches
    // so every op class records.
    let mut client = NetClient::new(connector.connect().expect("dial"));
    for id in 0..400u64 {
        client
            .put(Key::from_id(id), Value::filled(800, id as u8))
            .expect("put");
    }
    for id in (0..400u64).step_by(3) {
        client.get(Key::from_id(id)).expect("get");
    }
    for start in (0..400u64).step_by(80) {
        client.scan(Key::from_id(start), 40).expect("scan");
    }
    for round in 0..8u64 {
        let mut batch = WriteBatch::new();
        for i in 0..20u64 {
            batch.put(Key::from_id(1_000 + round * 20 + i), Value::filled(64, 1));
        }
        client.batch(batch).expect("batch");
    }

    // The fault-injection leg: one bit flip on the next NVM write, read
    // it back (wire-level Corruption), watch the partition degrade, and
    // let a scrub pass re-arm it. The admin scraper keeps running
    // through all of it. The flip is armed only once the compaction pool
    // is idle: a worker's promotion writes a slot too, and could take the
    // flip meant for the first put below that lands on partition 0.
    wait_until("the compaction pool to go idle", || {
        engine.stats().compaction.queue_depth == 0 && engine.parked_compaction_workers() == 1
    });
    plan.arm(TargetedFault {
        tier: FaultTier::Nvm,
        partition: Some(0),
        op: FaultOp::Write,
        mode: FaultMode::BitFlip,
    });
    client.max_retries = 2;
    client.retry_backoff = Duration::from_micros(10);
    let mut corrupt_key = None;
    for id in 5_000..5_064u64 {
        client
            .put(Key::from_id(id), Value::filled(256, 9))
            .expect("the corrupting put itself succeeds");
        match client.get(Key::from_id(id)) {
            Ok(_) => continue,
            Err(PrismError::Corruption(_)) => {
                corrupt_key = Some(id);
                break;
            }
            Err(err) => panic!("unexpected wire error {err}"),
        }
    }
    let corrupt_key = corrupt_key.expect("an armed bit flip must corrupt one of the writes");
    let degraded_partition =
        ConcurrentKvStore::shard_of(engine.as_ref(), &Key::from_id(corrupt_key)) as u32;
    // The degraded flip is recorded synchronously by the quarantining
    // read, so the trace is the race-free witness; the health state
    // itself may already be re-armed — the quarantining read enqueues a
    // scrub that can repair from the clean DRAM copy at any moment —
    // but only with the re-arm on the trace record too.
    assert!(
        hub.trace
            .in_category(category::DEGRADED)
            .iter()
            .any(|e| e.partition == Some(degraded_partition)),
        "the quarantine threshold crossing must be traced"
    );
    if engine.shard_health(degraded_partition as usize) != PartitionHealth::Degraded {
        // The health flip precedes the trace write by a hair, so give
        // the worker a bounded moment to put the re-arm on the record.
        wait_until("the auto-scrub re-arm to be traced", || {
            hub.trace
                .in_category(category::REARM)
                .iter()
                .any(|e| e.partition == Some(degraded_partition))
        });
    }
    // Health keeps answering 200 while degraded (or healed); the body
    // carries the state, never a 5xx.
    {
        let mut probe = AdminClient::new(admin_connector.connect().expect("admin dial"));
        let health = probe.get("/health").expect("health scrape");
        assert_eq!(health.status, 200, "degradation is data, not a 5xx");
        assert!(
            health.body.contains("\"healthy\":false") || health.body.contains("\"healthy\":true"),
            "the health body must carry the rollup"
        );
    }
    engine.scrub();
    assert_eq!(
        engine.shard_health(degraded_partition as usize),
        PartitionHealth::Healthy
    );

    // Quiesce, stop the scraper, and check the cross-layer invariants.
    wait_until("the front-end to drain", || {
        let stats = server.frontend_stats();
        stats.submitted == stats.completed && server.outstanding_tickets() == 0
    });
    scraping.store(false, Ordering::Release);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes >= 4, "the scraper must have covered all endpoints");

    let snapshot = hub.registry.snapshot();

    // Gate 1: per-class stage decomposition, and the histogram count
    // matches the front-end's completed-op counter exactly.
    let e2e_count = assert_stage_decomposition(&snapshot);
    let frontend = snapshot.frontend.as_ref().expect("frontend source");
    assert_eq!(
        e2e_count, frontend.completed,
        "every completed op must land in exactly one e2e histogram"
    );
    assert!(frontend.completed > 0);

    // Gate 2: the trace ring saw the compaction pipeline end to end,
    // the health flips, and the connection lifecycle.
    assert!(
        !hub.trace
            .in_category(category::COMPACTION_INSTALL)
            .is_empty(),
        "the pressured workload must install at least one compaction"
    );
    assert!(!hub.trace.in_category(category::COMPACTION_PLAN).is_empty());
    assert!(!hub.trace.in_category(category::QUARANTINE).is_empty());
    assert!(!hub.trace.in_category(category::DEGRADED).is_empty());
    assert!(!hub.trace.in_category(category::REARM).is_empty());
    assert!(!hub.trace.in_category(category::SCRUB_PASS).is_empty());
    assert!(!hub.trace.in_category(category::CONN_OPEN).is_empty());

    // Gate 3: the typed views all flow through one snapshot — engine
    // tier reads, net frame counters, health rollup.
    assert!(snapshot.counter("engine_reads_from_nvm").unwrap_or(0) > 0);
    assert!(snapshot.counter("net_frames_received").unwrap_or(0) > 0);
    assert!(snapshot.health.as_ref().expect("health source").healthy());
    let engine_stats = snapshot.engine.as_ref().expect("engine source");
    assert!(engine_stats.compaction.jobs > 0);
    assert_eq!(
        snapshot
            .histogram("engine_compaction_job_ns")
            .expect("compaction histogram")
            .count(),
        engine_stats.compaction.jobs,
        "every installed compaction job must be recorded once"
    );

    // Gate 4: the final scrape reflects the drained state.
    let mut probe = AdminClient::new(admin_connector.connect().expect("admin dial"));
    let metrics = probe.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("frontend_e2e_put_ns_bucket"));
    assert!(metrics.body.contains("engine_reads_from_nvm"));
    let stats_json = probe.get("/stats.json").expect("stats.json");
    assert!(stats_json.body.contains("\"frontend_completed\":"));
    let trace = probe.get("/trace?last=4096").expect("trace");
    assert!(trace.body.contains("\"category\":\"compaction_install\""));

    admin.shutdown();
    drop(server);
}

/// The same admin surface over real TCP: every endpoint resolves with a
/// one-shot scrape while the wire workload runs on a second TCP port.
#[test]
fn admin_plane_serves_all_four_endpoints_over_tcp() {
    let Ok(data_listener) = TcpServerListener::bind("127.0.0.1:0") else {
        eprintln!("skipping: cannot bind loopback");
        return;
    };
    let Ok(admin_listener) = TcpServerListener::bind("127.0.0.1:0") else {
        eprintln!("skipping: cannot bind loopback");
        return;
    };
    let hub = Arc::new(ObsHub::default());
    let mut options = Options::scaled_default(2_000);
    options.num_partitions = 2;
    options.obs = Some(Arc::clone(&hub));
    let engine = Arc::new(PrismDb::open(options).expect("valid options"));
    let data_addr = data_listener.local_addr();
    let admin_addr = admin_listener.local_addr();
    let server = NetServer::start_with_obs(
        engine,
        Arc::new(data_listener),
        ServerOptions::default(),
        Some(Arc::clone(&hub)),
    )
    .expect("server");
    let mut admin = AdminServer::start(hub, Arc::new(admin_listener));

    let mut client = NetClient::new(tcp_connect(&data_addr).expect("dial"));
    for id in 0..50u64 {
        client
            .put(Key::from_id(id), Value::filled(128, id as u8))
            .expect("put");
        client.get(Key::from_id(id)).expect("get");
    }

    let metrics = http_get(tcp_connect(&admin_addr).expect("dial"), "/metrics").expect("scrape");
    assert_eq!(metrics.status, 200);
    assert!(metrics.content_type.starts_with("text/plain"));
    assert!(metrics.body.contains("frontend_e2e_put_ns_bucket"));
    assert!(metrics.body.contains("net_frames_received"));

    let stats = http_get(tcp_connect(&admin_addr).expect("dial"), "/stats.json").expect("scrape");
    assert_eq!(stats.status, 200);
    assert_eq!(stats.content_type, "application/json");
    assert!(stats.body.contains("\"histograms\""));

    let health = http_get(tcp_connect(&admin_addr).expect("dial"), "/health").expect("scrape");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"healthy\":true"));
    assert!(health.body.contains("\"partitions\":2"));

    let trace =
        http_get(tcp_connect(&admin_addr).expect("dial"), "/trace?last=100").expect("scrape");
    assert_eq!(trace.status, 200);
    assert!(trace.body.contains("\"category\":\"conn_open\""));

    // Error statuses are still not 5xx, and keep-alive works over TCP.
    let mut probe = AdminClient::new(tcp_connect(&admin_addr).expect("dial"));
    assert_eq!(probe.get("/nope").expect("404").status, 404);
    assert_eq!(probe.get("/trace?last=x").expect("400").status, 400);
    assert_eq!(probe.get("/metrics").expect("reuse").status, 200);

    let snapshot_completed = {
        let stats = server.frontend_stats();
        stats.completed
    };
    assert!(snapshot_completed >= 100, "puts and gets all completed");
    admin.shutdown();
    drop(server);
}
