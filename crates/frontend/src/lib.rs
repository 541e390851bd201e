//! Async submission front-end: per-partition request queues with
//! group-commit coalescing.
//!
//! PrismDB's tiering machinery (pinning, demotion, promotion) assumes a
//! server front-end that keeps many client requests in flight, so the
//! storage engine — not client scheduling — is the bottleneck. Driving
//! [`prism_types::ConcurrentKvStore`] directly burns one OS thread per
//! in-flight client; this crate multiplexes hundreds of *logical* clients
//! onto a small pool of executor threads instead:
//!
//! * Clients enqueue requests onto **bounded per-partition MPSC queues**
//!   ([`Frontend::submit_put`] and friends) and receive a
//!   [`prism_types::Ticket`] they can [`poll`](prism_types::Ticket::poll)
//!   (non-blocking, multiplexed) or [`wait`](prism_types::Ticket::wait)
//!   (park until done) on. [`Frontend::try_submit_put`] is the
//!   non-blocking variant that reports back-pressure
//!   ([`prism_types::PrismError::Backpressure`]) instead of waiting for
//!   queue space — with the queue capacity shrunk while the engine's
//!   per-shard watermark pressure hint
//!   ([`prism_types::ConcurrentKvStore::shard_write_pressure`]) is high.
//! * **Dispatch.** A partition is *scheduled* or it is not. Each queue
//!   keeps a `scheduled` flag under the same lock as its requests; an
//!   enqueue that finds the flag clear sets it and pushes the partition
//!   onto one shared ready list, waking one idle executor if one is
//!   counted idle (a running executor re-reads the list before it waits,
//!   so nobody is signalled then). A pool of
//!   **executor threads** ([`FrontendOptions::executors`], default = the
//!   engine's shard count clamped to 4) pops the oldest ready partition,
//!   takes everything queued on it, services it, and then — under the
//!   queue lock again — either clears the flag (nothing arrived
//!   meanwhile) or pushes the partition back. So `scheduled` holds
//!   exactly while the partition is on the ready list or held by one
//!   executor: queued work is never stranded, and one executor at a time
//!   services a partition, which is what keeps its requests in submission
//!   order. Any executor may take any partition;
//!   [`prism_types::FrontendStats::stolen_drains`] counts the drains run
//!   by an executor other than `partition % executors`.
//! * Each drain coalesces *every pending write of that partition* into
//!   one [`prism_types::WriteBatch`] installed via the engine's
//!   group-commit [`apply_batch`](prism_types::ConcurrentKvStore::apply_batch)
//!   path, then answers the drained reads under the engine's read locks.
//!   Write coalescing therefore **emerges from queue pressure**: the more
//!   logical clients are in flight, the wider the groups — no client-side
//!   buffering required.
//! * **Wake-ups are batched the same way.** An answer is published the
//!   moment it is produced (a polled ticket sees it at once), but the
//!   unpark its waiter is owed joins a [`prism_types::WakeList`] that the
//!   executor fires when it finds the ready list empty, or after one
//!   pass of as many drains as there are partitions at the latest. An
//!   idle front-end therefore wakes a waiter right after its request; a
//!   backlogged one wakes each waiter once per pass, however many of its
//!   tickets the pass completed.
//!
//! # Ordering and durability contract
//!
//! Requests on one partition are serviced in submission order *within
//! each class*: writes apply in submission order, and a drained read
//! executes after the writes drained with it. A read is guaranteed to
//! observe every write that was **acked** (ticket completed) before the
//! read was submitted; it may additionally observe writes submitted
//! concurrently (reads are never stale, only fresh). Ops that were
//! submitted but not yet acked live only in the queue: a crash may lose
//! them, while **acked ops are durable** — they were installed through
//! `apply_batch`, which PrismDB persists to NVM synchronously, so they
//! survive `crash_and_recover`.
//!
//! Write errors are *group-scoped only on retry*: a failing coalesced
//! group is re-applied part by part, so only the requests that actually
//! fail see the error.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use prism_frontend::{Frontend, FrontendOptions};
//! use prism_types::{Key, MemStore, MutexKv, Value};
//!
//! let engine = Arc::new(MutexKv::new(MemStore::default()));
//! let mut frontend = Frontend::start(engine, FrontendOptions::default())?;
//! let write = frontend.submit_put(Key::from_id(1), Value::filled(64, 7))?;
//! write.wait()?; // acked: durable and visible from here on
//! let read = frontend.submit_get(&Key::from_id(1))?;
//! assert!(read.wait()?.value.is_some());
//! frontend.shutdown();
//! # Ok::<(), prism_types::PrismError>(())
//! ```

mod frontend;
mod options;

pub use frontend::{Frontend, ReadTicket, ScanTicket, WriteTicket};
pub use options::FrontendOptions;
