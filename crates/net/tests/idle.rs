//! An idle connection is free: its reader blocks in `read`, its writer
//! is parked, and neither wakes until there is something to do. (Before
//! the writer was woken by completions it napped 50 µs at a time, so 32
//! parked connections cost 640 000 timer wake-ups a second.)
//!
//! The measurement is the whole process's CPU time, so this file holds
//! exactly one test: anything running beside it would be counted too.

use std::sync::Arc;
use std::time::Duration;

use prism_net::server::{NetServer, ServerOptions};
use prism_net::transport::duplex_listener;
use prism_types::{MemStore, MutexKv};

/// Nanoseconds every live thread of this process has spent on a CPU, or
/// why that cannot be read here.
fn process_cpu_ns() -> Result<u64, String> {
    let tasks = std::fs::read_dir("/proc/self/task").map_err(|err| format!("no procfs: {err}"))?;
    let mut total = 0u64;
    for task in tasks.flatten() {
        // First field of schedstat: time spent on the CPU, in ns.
        let path = task.path().join("schedstat");
        let stat =
            std::fs::read_to_string(&path).map_err(|err| format!("{}: {err}", path.display()))?;
        total += stat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .ok_or_else(|| format!("{}: unexpected format", path.display()))?;
    }
    Ok(total)
}

#[test]
fn idle_connections_consume_no_cpu() {
    const CONNECTIONS: u64 = 32;
    let before = match process_cpu_ns() {
        Ok(ns) => ns,
        Err(why) => {
            println!("skipping: per-thread CPU time is not readable ({why})");
            return;
        }
    };
    let (listener, connector) = duplex_listener();
    let engine = Arc::new(MutexKv::new(MemStore::default()));
    let server = NetServer::start(engine, Arc::new(listener), ServerOptions::default())
        .expect("valid server options");
    let idle: Vec<_> = (0..CONNECTIONS)
        .map(|_| connector.connect().expect("dial"))
        .collect();
    while server.stats().connections_accepted < CONNECTIONS {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the freshly spawned threads reach their blocking points.
    std::thread::sleep(Duration::from_millis(50));

    let settled = process_cpu_ns().expect("readable a moment ago");
    std::thread::sleep(Duration::from_millis(300));
    let spent = process_cpu_ns().expect("readable a moment ago") - settled;
    assert!(
        spent < 10_000_000,
        "{CONNECTIONS} idle connections burned {} µs of CPU in 300 ms (setup: {} µs)",
        spent / 1_000,
        (settled - before) / 1_000
    );
    drop(idle);
}
