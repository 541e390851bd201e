//! PrismDB reproduction — facade crate.
//!
//! This crate re-exports the public API of the whole workspace so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`db`] — the PrismDB engine itself ([`db::PrismDb`], [`db::Options`]),
//! * [`lsm`] — the RocksDB-like baseline family used in the paper's
//!   comparisons,
//! * [`types`] — keys, values, statistics and the engine API
//!   ([`types::ConcurrentKvStore`], with [`types::KvStore`] derived from it
//!   for single-threaded drivers),
//! * [`storage`] — the tiered-device simulator, cost and endurance models,
//! * [`workloads`] — YCSB and Twitter-trace workload generators,
//! * [`frontend`] — the async submission front-end (per-partition request
//!   queues, executor pool, group-commit coalescing) that multiplexes many
//!   logical clients onto a few OS threads,
//! * [`net`] — the network serving layer (length-prefixed wire protocol,
//!   TCP and in-process duplex transports, multiplexing server, pipelining
//!   client) that puts a wire in front of the front-end, plus the
//!   HTTP/JSON admin plane,
//! * [`obs`] — the observability subsystem (lock-free latency histograms,
//!   metrics registry, structured event trace) every layer records into,
//! * [`bench`](mod@bench) — the experiment harness that regenerates every table and
//!   figure of the paper,
//! * the individual substrates ([`nvm`], [`flash`], [`tracker`],
//!   [`compaction`]) for users who want to build their own tiered engines.
//!
//! # Quick start
//!
//! ```
//! use prismdb::db::{Options, PrismDb};
//! use prismdb::types::{Key, KvStore, Value};
//!
//! let options = Options::builder(10_000).partitions(2).build()?;
//! let mut db = PrismDb::open(options)?;
//! db.put(Key::from_id(1), Value::filled(512, 7))?;
//! assert!(db.get(&Key::from_id(1))?.value.is_some());
//! # Ok::<(), prismdb::types::PrismError>(())
//! ```
//!
//! # Concurrency
//!
//! `PrismDb` is a concurrent sharded engine: wrap it in an [`std::sync::Arc`]
//! and drive it from many threads through
//! [`types::ConcurrentKvStore`] — each partition has its own lock, so
//! operations on different partitions run in parallel (see the README's
//! "Concurrency model" section). Import one of the two traits per module:
//! every concurrent engine has both, and they share `stats`, `elapsed` and
//! `engine_name`.
//!
//! ```
//! use std::sync::Arc;
//! use prismdb::db::{Options, PrismDb};
//! use prismdb::types::{ConcurrentKvStore, Key, Value};
//!
//! let db = Arc::new(PrismDb::open(Options::scaled_default(1_000))?);
//! std::thread::scope(|scope| {
//!     for t in 0..4u64 {
//!         let db = Arc::clone(&db);
//!         scope.spawn(move || {
//!             db.put(Key::from_id(t), Value::filled(256, t as u8)).unwrap();
//!         });
//!     }
//! });
//! assert_eq!(db.scan(&Key::min(), 10)?.entries.len(), 4);
//! # Ok::<(), prismdb::types::PrismError>(())
//! ```

/// Experiment harness (re-export of `prism-bench`).
pub use prism_bench as bench;
/// Multi-tiered storage compaction (re-export of `prism-compaction`).
pub use prism_compaction as compaction;
/// The PrismDB engine (re-export of `prism-db`).
pub use prism_db as db;
/// Flash SST log substrate (re-export of `prism-flash`).
pub use prism_flash as flash;
/// Async submission front-end (re-export of `prism-frontend`).
pub use prism_frontend as frontend;
/// The LSM baseline family (re-export of `prism-lsm`).
pub use prism_lsm as lsm;
/// Network serving layer (re-export of `prism-net`).
pub use prism_net as net;
/// NVM slab store substrate (re-export of `prism-nvm`).
pub use prism_nvm as nvm;
/// Observability subsystem (re-export of `prism-obs`).
pub use prism_obs as obs;
/// Tiered storage simulator (re-export of `prism-storage`).
pub use prism_storage as storage;
/// Popularity tracker substrate (re-export of `prism-tracker`).
pub use prism_tracker as tracker;
/// Common types and the engine traits (re-export of `prism-types`).
pub use prism_types as types;
/// Workload generators (re-export of `prism-workloads`).
pub use prism_workloads as workloads;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Touch one item from every re-exported crate so a missing
        // re-export fails to compile.
        let _ = crate::types::Key::from_id(1);
        let _ = crate::storage::DeviceProfile::qlc_flash(1);
        let _ = crate::db::Options::scaled_default(10);
        let _ = crate::lsm::LsmConfig::het(10, 0.2);
        let _ = crate::workloads::Workload::ycsb_a(10);
        let _ = crate::bench::Scale::quick();
        let _ = crate::frontend::FrontendOptions::default();
        let _ = crate::net::ServerOptions::default();
        let _ = crate::nvm::NvmAddress::new(0, 0);
        let _ = crate::flash::BloomFilter::new(1, 10);
        let _ = crate::tracker::Mapper::new();
        let _ = crate::compaction::CompactionConfig::default();
        let _ = crate::obs::ObsHub::new();
    }
}
