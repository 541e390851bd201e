//! Workspace-wide observability for the PrismDB reproduction.
//!
//! The paper's headline claims are tail-latency claims, so the system
//! needs one consistent latency surface instead of per-experiment
//! percentile plumbing. This crate provides it in three parts:
//!
//! * [`LatencyHistogram`] — a lock-free log-bucketed histogram
//!   (~2 buckets/octave, 100 ns – 10 s) recording is one relaxed atomic
//!   add; any reported percentile is within one bucket (×√2) of the true
//!   order statistic. The bench runner, the frontend's per-stage timers
//!   and the engine's per-tier read timers all record into this one
//!   type, so benches and production serve the same numbers.
//! * [`MetricsRegistry`] / [`MetricsSnapshot`] — named histograms plus
//!   typed sources for the engine / frontend / net stats tables of
//!   `prism_types`, which declare every counter and gauge. One snapshot
//!   yields the typed views *and* a name-keyed map of [`Series`] walked
//!   out of the tables (each entry's kind, help text and value), rendered
//!   as Prometheus text or JSON.
//! * [`TraceBuffer`] — a bounded ring of structured [`TraceEvent`]s
//!   (compaction pipeline transitions, health flips, snapshot expiry,
//!   back-pressure stalls, connection lifecycle), dumpable as JSON
//!   lines.
//!
//! [`ObsHub`] bundles a registry and a trace buffer; the layers share
//! one hub (`prism-core` creates a private hub unless
//! `Options::obs` supplies one; `prism-frontend` / `prism-net` accept a
//! hub in their `start_with_obs` constructors) and `prism-net`'s admin
//! plane serves the hub over HTTP (`GET /metrics`, `/stats.json`,
//! `/health`, `/trace?last=N`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use prism_obs::ObsHub;
//!
//! let hub = Arc::new(ObsHub::new());
//! let hist = hub.registry.histogram("frontend_e2e_get_ns");
//! hist.record(12_345);
//! hub.trace.record("conn_open", None, 1, "peer=test");
//! let snap = hub.registry.snapshot();
//! assert_eq!(snap.histogram("frontend_e2e_get_ns").unwrap().count(), 1);
//! assert_eq!(hub.trace.last(10).len(), 1);
//! ```

pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use hist::{
    bucket_index, HistogramSnapshot, LatencyHistogram, BOUNDS, HIGHEST_BOUND, LOWEST_BOUND,
    NUM_BOUNDS, NUM_BUCKETS,
};
pub use registry::{
    render_catalogue, HealthReport, MetricsRegistry, MetricsSnapshot, Series, ShardHealthView,
};
pub use trace::{TraceBuffer, TraceEvent};

/// Default number of trace events an [`ObsHub`] retains.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// One shared observability hub: a metrics registry plus a trace buffer.
///
/// Create one `Arc<ObsHub>` per deployment and hand it to every layer
/// (`Options::obs`, `Frontend::start_with_obs`,
/// `NetServer::start_with_obs`, `AdminServer::start`); each layer
/// registers its histograms and typed sources into the hub, and the
/// admin plane serves the union.
#[derive(Debug)]
pub struct ObsHub {
    /// Named histograms and typed stats sources.
    pub registry: MetricsRegistry,
    /// Bounded structured event trace.
    pub trace: TraceBuffer,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub::new()
    }
}

impl ObsHub {
    /// A hub with the default trace capacity.
    pub fn new() -> Self {
        ObsHub::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A hub retaining the last `capacity` trace events.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        ObsHub {
            registry: MetricsRegistry::new(),
            trace: TraceBuffer::new(capacity),
        }
    }
}
