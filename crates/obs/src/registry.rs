//! Named metrics registry and its snapshot / exposition formats.
//!
//! A [`MetricsRegistry`] holds named [`LatencyHistogram`]s plus *typed
//! stats sources*: closures that produce [`EngineStats`],
//! [`FrontendStats`] and [`NetStats`] from whatever layer owns them.
//! Every counter and gauge is an entry of one of those stats tables;
//! there is no other way to register one. One
//! [`MetricsRegistry::snapshot`] call folds everything into a
//! [`MetricsSnapshot`]: the typed structs survive as typed views *and*
//! every entry of their stats tables is walked into the name-keyed
//! [`Series`] map through the tables' own `visit`, which supplies each
//! series' kind (`# TYPE`), help text (`# HELP`) and value — so the
//! Prometheus and JSON expositions, and the README catalogue rendered by
//! [`render_catalogue`], all come from the one declaration in
//! `prism_types`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use prism_types::{
    EngineStats, FrontendStats, MetricKind, MetricVisitor, NetStats, PartitionHealth,
};

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::json::{fmt_f64, JsonObject};

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
    pub(crate) fn degraded_partitions(&self) -> u64 {
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
    histograms: BTreeMap<String, Arc<LatencyHistogram>>,
    engine: Option<EngineSource>,
    frontend: Option<FrontendSource>,
    net: Option<NetSource>,
    health: Option<HealthSource>,
}

/// Registry of named histograms plus typed stats sources; see the
/// [module docs](self).
///
/// Histograms are created on first use ([`MetricsRegistry::histogram`]
/// is get-or-create) and shared by `Arc`, so the layer that records into
/// one holds it directly — the registry lock is only taken at
/// registration and snapshot time, never on the record path.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsRegistry")
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

    /// Fold every histogram and typed source into one snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
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
        let mut series = BTreeMap::new();
        visit_tables(
            engine.as_ref(),
            frontend.as_ref(),
            net.as_ref(),
            &mut |name, kind, help, value| {
                series.insert(name.to_string(), Series { kind, help, value });
            },
        );
        MetricsSnapshot {
            series,
            histograms,
            engine,
            frontend,
            net,
            health,
        }
    }
}

/// One flattened stats-table entry: what its table declares about it and
/// the value it held at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Series {
    /// The entry's kind (`# TYPE` and unit).
    pub kind: MetricKind,
    /// The entry's doc line (`# HELP`).
    pub help: &'static str,
    /// The value at snapshot time.
    pub value: u64,
}

/// Point-in-time copy of everything a [`MetricsRegistry`] knows.
///
/// The stats structs survive as the typed views (`engine` carries
/// `CompactionStats`, `TxnStats` and `IntegrityStats` inside it);
/// `series` additionally holds every entry of their tables under
/// `engine_*` / `frontend_*` / `net_*` names.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Every stats-table entry by exported name, counters and gauges
    /// alike ([`MetricsSnapshot::counter`] answers for every one).
    pub series: BTreeMap<String, Series>,
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
    /// Value of a flattened stats-table entry by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.series.get(name).map(|series| series.value)
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
        for (name, Series { kind, help, value }) in &self.series {
            let _ = match kind {
                MetricKind::Nanos => writeln!(out, "# HELP {name} {help} ({})", kind.unit()),
                MetricKind::Counter | MetricKind::Gauge => writeln!(out, "# HELP {name} {help}"),
            };
            let _ = writeln!(out, "# TYPE {name} {}", kind.prometheus_type());
            let _ = writeln!(out, "{name} {value}");
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
        for (name, series) in &self.series {
            counters.number(name, series.value);
        }
        obj.raw("counters", &counters.finish());
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
    fn histograms_are_shared_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.histogram("op_ns");
        let b = registry.histogram("op_ns");
        assert!(Arc::ptr_eq(&a, &b));
        a.record(100);
        b.record(200);
        assert_eq!(registry.histogram("op_ns").snapshot().count(), 2);
        assert_eq!(registry.snapshot().histogram("op_ns").unwrap().sum, 300);
        assert!(!Arc::ptr_eq(&a, &registry.histogram("other_ns")));
    }

    #[test]
    fn snapshot_flattens_typed_sources_and_keeps_views() {
        let registry = MetricsRegistry::new();
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
        assert_eq!(snap.counter("engine_reads_from_nvm"), Some(4));
        assert_eq!(snap.counter("engine_compaction_jobs"), Some(2));
        assert_eq!(snap.counter("engine_scrub_passes"), Some(1));
        assert_eq!(snap.counter("frontend_submitted"), Some(11));
        assert_eq!(snap.counter("net_frames_sent"), Some(7));
        // Every flattened series carries its table's kind and help text.
        let jobs = snap.series["engine_compaction_jobs"];
        assert_eq!(jobs.kind, MetricKind::Counter);
        assert!(jobs.help.starts_with("Number of compaction"));
        assert_eq!(
            snap.series["engine_compaction_queue_depth"].kind,
            MetricKind::Gauge
        );
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
