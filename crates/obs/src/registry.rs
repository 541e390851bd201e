//! Named metrics registry and its snapshot / exposition formats.
//!
//! A [`MetricsRegistry`] holds three kinds of live instruments —
//! monotone [`Counter`]s, instantaneous [`Gauge`]s with built-in
//! high-water marks, and [`LatencyHistogram`]s — plus *typed stats
//! sources*: closures that produce [`EngineStats`], [`FrontendStats`] and
//! [`NetStats`] from whatever layer owns them. One
//! [`MetricsRegistry::snapshot`] call folds everything into a
//! [`MetricsSnapshot`]: the typed structs survive as typed views *and*
//! every entry of their stats tables is walked into the name→value
//! counter map through the tables' own `visit`, which also supplies the
//! kind (`# TYPE`) and help text (`# HELP`) of each exported series — so
//! the Prometheus and JSON expositions, and the README catalogue rendered
//! by [`render_catalogue`], all come from the one declaration in
//! `prism_types`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use prism_types::{
    EngineStats, FrontendStats, MetricKind, MetricVisitor, NetStats, PartitionHealth,
};

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::json::{fmt_f64, JsonObject};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value with a built-in high-water mark: every update
/// that raises the value also raises the peak, so post-run snapshots see
/// peak pressure, not just the final state.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the instantaneous value (raising the high-water mark if
    /// needed).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Add `n` and return the new value (raising the high-water mark).
    pub fn add(&self, n: u64) -> u64 {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Subtract `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let mut current = self.value.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self.value.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Instantaneous value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever observed.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Point-in-time view of one [`Gauge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeView {
    /// Instantaneous value at snapshot time.
    pub value: u64,
    /// Highest value ever observed.
    pub high_water: u64,
}

/// Health of one shard as reported through the admin plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealthView {
    /// Shard (partition) index.
    pub shard: usize,
    /// Current health state.
    pub health: PartitionHealth,
}

/// Per-partition health rollup served by `GET /health`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Health of every shard, in shard order.
    pub partitions: Vec<ShardHealthView>,
    /// Objects currently quarantined across all shards.
    pub quarantined_objects: u64,
    /// Tickets handed out but not yet completed or abandoned.
    pub outstanding_tickets: u64,
}

impl HealthReport {
    /// Number of shards currently degraded.
    pub fn degraded_partitions(&self) -> u64 {
        self.partitions
            .iter()
            .filter(|p| p.health == PartitionHealth::Degraded)
            .count() as u64
    }

    /// True when every shard is healthy.
    pub fn healthy(&self) -> bool {
        self.degraded_partitions() == 0
    }

    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.boolean("healthy", self.healthy());
        obj.number("partitions", self.partitions.len() as u64);
        obj.number("degraded_partitions", self.degraded_partitions());
        obj.number("quarantined_objects", self.quarantined_objects);
        obj.number("outstanding_tickets", self.outstanding_tickets);
        let mut shards = String::from("[");
        for (i, shard) in self.partitions.iter().enumerate() {
            if i > 0 {
                shards.push(',');
            }
            let mut entry = JsonObject::new();
            entry.number("partition", shard.shard as u64);
            entry.string(
                "health",
                match shard.health {
                    PartitionHealth::Healthy => "healthy",
                    PartitionHealth::Degraded => "degraded",
                },
            );
            shards.push_str(&entry.finish());
        }
        shards.push(']');
        obj.raw("shards", &shards);
        obj.finish()
    }
}

type EngineSource = Box<dyn Fn() -> Option<EngineStats> + Send>;
type FrontendSource = Box<dyn Fn() -> Option<FrontendStats> + Send>;
type NetSource = Box<dyn Fn() -> Option<NetStats> + Send>;
type HealthSource = Box<dyn Fn() -> Option<HealthReport> + Send>;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<LatencyHistogram>>,
    engine: Option<EngineSource>,
    frontend: Option<FrontendSource>,
    net: Option<NetSource>,
    health: Option<HealthSource>,
}

/// Registry of named instruments plus typed stats sources; see the
/// [module docs](self).
///
/// Instruments are created on first use (`counter`/`gauge`/`histogram`
/// are get-or-create) and shared by `Arc`, so the layer that records
/// into an instrument holds it directly — the registry lock is only
/// taken at registration and snapshot time, never on the record path.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(LatencyHistogram::new())),
        )
    }

    /// Install the engine-stats source (typically a closure over a
    /// `Weak` engine handle returning `None` once the engine is gone).
    /// Replaces any previous source.
    pub fn set_engine_source(&self, source: EngineSource) {
        self.lock().engine = Some(source);
    }

    /// Install the frontend-stats source. Replaces any previous source.
    pub fn set_frontend_source(&self, source: FrontendSource) {
        self.lock().frontend = Some(source);
    }

    /// Install the net-stats source. Replaces any previous source.
    pub fn set_net_source(&self, source: NetSource) {
        self.lock().net = Some(source);
    }

    /// Install the health source. Replaces any previous source.
    pub fn set_health_source(&self, source: HealthSource) {
        self.lock().health = Some(source);
    }

    /// Fold every instrument and typed source into one snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        let mut counters: BTreeMap<String, u64> = inner
            .counters
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges: BTreeMap<String, GaugeView> = inner
            .gauges
            .iter()
            .map(|(name, g)| {
                (
                    name.clone(),
                    GaugeView {
                        value: g.get(),
                        high_water: g.high_water(),
                    },
                )
            })
            .collect();
        let histograms: BTreeMap<String, HistogramSnapshot> = inner
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        let engine = inner.engine.as_ref().and_then(|s| s());
        let frontend = inner.frontend.as_ref().and_then(|s| s());
        let net = inner.net.as_ref().and_then(|s| s());
        let health = inner.health.as_ref().and_then(|s| s());
        drop(inner);
        let mut table_meta = BTreeMap::new();
        visit_tables(
            engine.as_ref(),
            frontend.as_ref(),
            net.as_ref(),
            &mut |name, kind, help, value| {
                counters.insert(name.to_string(), value);
                table_meta.insert(name.to_string(), (kind, help));
            },
        );
        MetricsSnapshot {
            counters,
            table_meta,
            gauges,
            histograms,
            engine,
            frontend,
            net,
            health,
        }
    }
}

/// Point-in-time copy of everything a [`MetricsRegistry`] knows.
///
/// The stats structs survive as the typed views (`engine` carries
/// `CompactionStats`, `TxnStats` and `IntegrityStats` inside it);
/// `counters` additionally holds every entry of their tables under
/// `engine_*` / `frontend_*` / `net_*` names, alongside the explicitly
/// registered counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Registered counters plus every stats-table entry (gauges included:
    /// [`MetricsSnapshot::counter`] answers for every exported name).
    pub counters: BTreeMap<String, u64>,
    /// Kind and help text of each name in `counters` that a stats table
    /// declares.
    pub table_meta: BTreeMap<String, (MetricKind, &'static str)>,
    /// Registered gauges with their high-water marks.
    pub gauges: BTreeMap<String, GaugeView>,
    /// Registered histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Typed engine view, when an engine source is installed.
    pub engine: Option<EngineStats>,
    /// Typed frontend view, when a frontend source is installed.
    pub frontend: Option<FrontendStats>,
    /// Typed net view, when a net source is installed.
    pub net: Option<NetStats>,
    /// Health rollup, when a health source is installed.
    pub health: Option<HealthReport>,
}

impl MetricsSnapshot {
    /// Value of a (possibly flattened) counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Render in Prometheus text exposition format (served by
    /// `GET /metrics`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        for (name, value) in &self.counters {
            let kind = match self.table_meta.get(name) {
                Some((kind, help)) => {
                    let _ = match kind {
                        MetricKind::Nanos => {
                            writeln!(out, "# HELP {name} {help} ({})", kind.unit())
                        }
                        MetricKind::Counter | MetricKind::Gauge => {
                            writeln!(out, "# HELP {name} {help}")
                        }
                    };
                    kind.prometheus_type()
                }
                None => "counter",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, view) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", view.value);
            let _ = writeln!(out, "# TYPE {name}_high_water gauge");
            let _ = writeln!(out, "{name}_high_water {}", view.high_water);
        }
        for (name, hist) in &self.histograms {
            hist.to_prometheus(name, &mut out);
        }
        out
    }

    /// Render the full snapshot as one JSON object (served by
    /// `GET /stats.json`).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters.number(name, *value);
        }
        obj.raw("counters", &counters.finish());
        let mut gauges = JsonObject::new();
        for (name, view) in &self.gauges {
            let mut entry = JsonObject::new();
            entry.number("value", view.value);
            entry.number("high_water", view.high_water);
            gauges.raw(name, &entry.finish());
        }
        obj.raw("gauges", &gauges.finish());
        let mut hists = JsonObject::new();
        for (name, hist) in &self.histograms {
            let mut entry = JsonObject::new();
            entry.number("count", hist.count());
            entry.number("sum", hist.sum);
            entry.number("min", if hist.is_empty() { 0 } else { hist.min });
            entry.number("max", hist.max);
            entry.raw("mean", &fmt_f64(hist.mean()));
            entry.raw("p50", &fmt_f64(hist.percentile(0.50)));
            entry.raw("p90", &fmt_f64(hist.percentile(0.90)));
            entry.raw("p99", &fmt_f64(hist.percentile(0.99)));
            entry.raw("p999", &fmt_f64(hist.percentile(0.999)));
            hists.raw(name, &entry.finish());
        }
        obj.raw("histograms", &hists.finish());
        if let Some(health) = &self.health {
            obj.raw("health", &health.to_json());
        }
        obj.finish()
    }
}

/// Walk the top-level stats tables under the prefixes every exposition
/// uses.
fn visit_tables(
    engine: Option<&EngineStats>,
    frontend: Option<&FrontendStats>,
    net: Option<&NetStats>,
    f: &mut MetricVisitor<'_>,
) {
    if let Some(stats) = engine {
        stats.visit("engine_", f);
    }
    if let Some(stats) = frontend {
        stats.visit("frontend_", f);
    }
    if let Some(stats) = net {
        stats.visit("net_", f);
    }
}

/// The metric catalogue as a markdown table (name · kind · unit/clock ·
/// help), one row per series the stats tables can export. The README's
/// "Metric catalogue" section is this text; a test keeps them equal.
pub fn render_catalogue() -> String {
    use std::fmt::Write as _;
    let mut one = || 1;
    let mut out = String::from("| name | kind | unit / clock | help |\n|---|---|---|---|\n");
    visit_tables(
        Some(&EngineStats::filled_with(&mut one)),
        Some(&FrontendStats::filled_with(&mut one)),
        Some(&NetStats::filled_with(&mut one)),
        &mut |name, kind, help, _| {
            let _ = writeln!(
                out,
                "| `{name}` | {} | {} | {help} |",
                kind.prometheus_type(),
                kind.unit()
            );
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("ops");
        let b = registry.counter("ops");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("ops").get(), 3);

        let gauge = registry.gauge("depth");
        gauge.add(5);
        gauge.sub(3);
        gauge.sub(10);
        assert_eq!(gauge.get(), 0);
        assert_eq!(gauge.high_water(), 5);
    }

    #[test]
    fn snapshot_flattens_typed_sources_and_keeps_views() {
        let registry = MetricsRegistry::new();
        registry.counter("custom_total").add(9);
        registry.histogram("lat_ns").record(500);
        registry.set_engine_source(Box::new(|| {
            let mut stats = EngineStats {
                reads_from_nvm: 4,
                ..EngineStats::default()
            };
            stats.compaction.jobs = 2;
            stats.integrity.scrub_passes = 1;
            Some(stats)
        }));
        registry.set_frontend_source(Box::new(|| {
            Some(FrontendStats {
                submitted: 11,
                ..FrontendStats::default()
            })
        }));
        registry.set_net_source(Box::new(|| {
            Some(NetStats {
                frames_sent: 7,
                ..NetStats::default()
            })
        }));
        registry.set_health_source(Box::new(|| {
            Some(HealthReport {
                partitions: vec![
                    ShardHealthView {
                        shard: 0,
                        health: PartitionHealth::Healthy,
                    },
                    ShardHealthView {
                        shard: 1,
                        health: PartitionHealth::Degraded,
                    },
                ],
                quarantined_objects: 3,
                outstanding_tickets: 2,
            })
        }));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("custom_total"), Some(9));
        assert_eq!(snap.counter("engine_reads_from_nvm"), Some(4));
        assert_eq!(snap.counter("engine_compaction_jobs"), Some(2));
        assert_eq!(snap.counter("engine_scrub_passes"), Some(1));
        assert_eq!(snap.counter("frontend_submitted"), Some(11));
        assert_eq!(snap.counter("net_frames_sent"), Some(7));
        // Typed views survive unchanged.
        assert_eq!(snap.engine.unwrap().reads_from_nvm, 4);
        assert_eq!(snap.frontend.unwrap().submitted, 11);
        assert_eq!(snap.net.unwrap().frames_sent, 7);
        let health = snap.health.as_ref().unwrap();
        assert!(!health.healthy());
        assert_eq!(health.degraded_partitions(), 1);
        assert_eq!(snap.histogram("lat_ns").unwrap().count(), 1);

        let text = snap.to_prometheus();
        assert!(text.contains("engine_reads_from_nvm 4"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        let json = snap.to_json();
        assert!(json.contains("\"frontend_submitted\":11"));
        assert!(json.contains("\"health\":{\"healthy\":false"));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn health_report_json_shape() {
        let report = HealthReport {
            partitions: vec![ShardHealthView {
                shard: 0,
                health: PartitionHealth::Healthy,
            }],
            quarantined_objects: 0,
            outstanding_tickets: 5,
        };
        let json = report.to_json();
        assert!(json.contains("\"healthy\":true"));
        assert!(json.contains("\"outstanding_tickets\":5"));
        assert!(json.contains("{\"partition\":0,\"health\":\"healthy\"}"));
    }
}
