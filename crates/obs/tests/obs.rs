//! Integration battery for the observability crate: a many-thread
//! recording storm, a property test pinning bucketed percentiles to a
//! sorted-vec oracle, trace-ring wraparound under concurrency, a
//! parse-it-back round trip of the Prometheus exposition, and the metric
//! catalogue checked against a golden name list and the README. (The
//! end-to-end admin-plane scrape during a fault-injected workload lives
//! in `prism-net`'s `tests/admin.rs`, next to the transport it drives.)

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use prism_obs::trace::{category, TraceBuffer};
use prism_obs::{
    render_catalogue, HistogramSnapshot, LatencyHistogram, MetricsRegistry, ObsHub, BOUNDS,
    LOWEST_BOUND, NUM_BOUNDS,
};
use prism_types::{EngineStats, FrontendStats, FrontendStatsCells, MetricKind, NetStats};
use proptest::prelude::*;

/// Exact nearest-rank order statistic of a sorted slice — the same rank
/// definition (`round((n - 1) * q)`) the histogram uses, so the oracle
/// value must land inside the reported bucket.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Many threads hammer one shared histogram and one typed source's
/// counter and gauge cells with no coordination; every sample must be
/// accounted for exactly — bucketed recording is lossy in *value
/// resolution*, never in *count*.
#[test]
fn concurrent_recording_storm_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25_000;
    let hub = Arc::new(ObsHub::new());
    let hist = hub.registry.histogram("storm_ns");
    let cells = Arc::new(FrontendStatsCells::default());
    let source = Arc::clone(&cells);
    hub.registry
        .set_frontend_source(Box::new(move || Some(source.snapshot())));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let hist = Arc::clone(&hist);
            let cells = Arc::clone(&cells);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic spread across five decades, plus a
                    // known min (100 ns) and max (1 s) per thread.
                    let ns = match i % 5 {
                        0 => 100,
                        1 => 3_700 + t,
                        2 => 81_000 + i % 997,
                        3 => 2_400_000,
                        _ => 1_000_000_000,
                    };
                    hist.record(ns);
                    cells.submitted.fetch_add(1, Ordering::Relaxed);
                    let depth = cells.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                    cells.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                    cells.queue_depth.fetch_sub(1, Ordering::Relaxed);
                }
            });
        }
    });

    let snap = hist.snapshot();
    assert_eq!(snap.count(), THREADS * PER_THREAD);
    assert_eq!(snap.min, 100);
    assert_eq!(snap.max, 1_000_000_000);
    // The registry snapshot sees the histogram and the source's cells by
    // name.
    let registry_snap = hub.registry.snapshot();
    assert_eq!(
        registry_snap.histogram("storm_ns").unwrap().count(),
        THREADS * PER_THREAD
    );
    assert_eq!(
        registry_snap.counter("frontend_submitted"),
        Some(THREADS * PER_THREAD)
    );
    assert_eq!(
        registry_snap.counter("frontend_queue_depth"),
        Some(0),
        "adds and subs must balance"
    );
    assert!(registry_snap.counter("frontend_max_queue_depth").unwrap() >= 1);
}

proptest! {
    /// For arbitrary latency sets the bucketed percentile must bracket
    /// the exact sorted-vec order statistic: the oracle lies inside the
    /// reported bucket's `[lo, hi]` bounds, the midpoint estimate is
    /// within one bucket's relative error (×√2) whenever the sample is
    /// above the first bucket, and percentiles stay monotone in q.
    #[test]
    fn percentiles_bracket_the_sorted_oracle(
        mut values in prop::collection::vec(1u64..20_000_000_000, 1..400),
        qs in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let hist = LatencyHistogram::new();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.min, values[0]);
        prop_assert_eq!(snap.max, *values.last().unwrap());
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        for &q in &qs {
            let exact = oracle(&values, q);
            let (lo, hi) = snap.percentile_bounds(q);
            prop_assert!(
                lo <= exact && exact <= hi,
                "oracle {} outside bucket [{}, {}] at q={}", exact, lo, hi, q
            );
            let estimate = snap.percentile(q);
            if exact > LOWEST_BOUND {
                let ratio = estimate / exact as f64;
                prop_assert!(
                    (1.0 / 1.45..=1.45).contains(&ratio),
                    "estimate {} vs oracle {} at q={}", estimate, exact, q
                );
            }
        }
        let mut prev = 0.0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let p = snap.percentile(q);
            prop_assert!(p >= prev, "percentile not monotone at q={}", q);
            prev = p;
        }
    }
}

/// The trace ring keeps exactly the newest `capacity` events across a
/// deep wraparound, with gapless in-order sequence numbers.
#[test]
fn trace_ring_wraparound_keeps_the_newest_tail() {
    let trace = TraceBuffer::new(64);
    for i in 0..1_000u64 {
        trace.record(
            category::BACKPRESSURE,
            Some((i % 4) as u32),
            i,
            format!("i={i}"),
        );
    }
    assert_eq!(trace.recorded(), 1_000);
    assert_eq!(trace.len(), 64);
    let events = trace.last(usize::MAX);
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (936..1_000).collect::<Vec<u64>>());
    // The JSON dump covers the same tail, one object per line.
    let dump = trace.dump_json_lines(64);
    assert_eq!(dump.lines().count(), 64);
    assert!(dump.lines().next().unwrap().contains("\"seq\":936"));
    assert!(dump.lines().last().unwrap().contains("\"i=999\""));
}

/// Concurrent recorders racing through many wraparounds must never
/// duplicate a sequence number, exceed capacity, or retain anything but
/// recent events.
#[test]
fn trace_ring_survives_concurrent_wraparound() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let trace = Arc::new(TraceBuffer::new(128));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let trace = Arc::clone(&trace);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    trace.record(category::CONN_OPEN, None, t * PER_THREAD + i, "");
                }
            });
        }
    });
    assert_eq!(trace.recorded(), THREADS * PER_THREAD);
    assert_eq!(trace.len(), 128);
    let events = trace.last(usize::MAX);
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    let unique_before = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), unique_before, "sequence numbers must be unique");
    // The last-allocated seq is always retained: after its insertion at
    // most THREADS-1 other already-allocated events can still arrive,
    // far fewer than the ring's capacity.
    assert_eq!(
        *seqs.last().unwrap(),
        THREADS * PER_THREAD - 1,
        "the newest event must survive the ring"
    );
}

/// Parse the Prometheus text exposition back into name→value pairs and
/// check it reproduces the snapshot: every counter and gauge verbatim,
/// typed and documented as its stats table declares it, and each
/// histogram's cumulative buckets monotone, summing to `_count` with
/// `_sum` intact.
#[test]
fn prometheus_exposition_round_trips() {
    let registry = MetricsRegistry::new();
    let hist = registry.histogram("demo_ns");
    for v in [80u64, 150, 150, 40_000, 2_000_000, 15_000_000_000] {
        hist.record(v);
    }
    registry.set_engine_source(Box::new(|| {
        Some(EngineStats {
            reads_from_nvm: 13,
            ..EngineStats::default()
        })
    }));
    registry.set_frontend_source(Box::new(|| {
        Some(FrontendStats {
            completed: 99,
            queue_depth: 5,
            max_queue_depth: 7,
            ..FrontendStats::default()
        })
    }));
    registry.set_net_source(Box::new(|| {
        Some(NetStats {
            frames_received: 55,
            ..NetStats::default()
        })
    }));

    let snap = registry.snapshot();
    let text = snap.to_prometheus();

    // Parse: collect `# TYPE` / `# HELP` comments and `name value` samples.
    let mut samples: BTreeMap<String, f64> = BTreeMap::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeMap<String, String> = BTreeMap::new();
    let mut bucket_series: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    for line in text.lines() {
        for (marker, into) in [("# TYPE ", &mut types), ("# HELP ", &mut helps)] {
            if let Some((name, rest)) = line.strip_prefix(marker).and_then(|l| l.split_once(' ')) {
                into.insert(name.to_string(), rest.to_string());
            }
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(' ').expect("sample line");
        if let Some((family, le)) = name
            .strip_suffix("\"}")
            .and_then(|n| n.split_once("_bucket{le=\""))
        {
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap()
            };
            bucket_series
                .entry(family.to_string())
                .or_default()
                .push((bound, value.parse().unwrap()));
            continue;
        }
        samples.insert(name.to_string(), value.parse().expect("numeric sample"));
    }

    // Counters and gauges round-trip exactly.
    for (name, series) in &snap.series {
        assert_eq!(samples[name], series.value as f64, "{name}");
    }
    assert_eq!(samples["engine_reads_from_nvm"], 13.0);
    assert_eq!(samples["frontend_completed"], 99.0);
    assert_eq!(samples["net_frames_received"], 55.0);
    assert_eq!(samples["frontend_queue_depth"], 5.0);
    assert_eq!(samples["frontend_max_queue_depth"], 7.0);

    // Every series is typed and documented from its table; instantaneous
    // values and high-water marks are gauges, not counters.
    assert!(snap.series.len() >= 70);
    for (name, series) in &snap.series {
        let (kind, help) = (series.kind, series.help);
        assert!(!help.is_empty(), "{name}");
        assert_eq!(types[name], kind.prometheus_type(), "{name}");
        assert!(helps[name].starts_with(help), "{name}: {}", helps[name]);
        let is_gauge = name.ends_with("_depth")
            || name.ends_with("in_flight")
            || name.ends_with("outstanding_tickets")
            || name == "engine_degraded_partitions";
        assert_eq!(kind == MetricKind::Gauge, is_gauge, "{name}");
        assert_eq!(
            helps[name].ends_with("(simulated ns)"),
            name.ends_with("_ns")
        );
        assert!(snap.counter(name).is_some(), "{name}");
    }
    for gauge in [
        "frontend_queue_depth",
        "frontend_outstanding_tickets",
        "frontend_max_outstanding_tickets",
        "net_in_flight",
        "net_max_conn_in_flight",
        "engine_compaction_queue_depth",
        "engine_compaction_max_queue_depth",
        "engine_degraded_partitions",
    ] {
        assert_eq!(types[gauge], "gauge", "{gauge}");
    }
    assert_eq!(types["engine_compaction_total_time_ns"], "counter");
    assert_eq!(types["engine_compaction_install_discards"], "counter");
    // Only stats-table entries and histograms are exported.
    let families = bucket_series.len() + snap.series.len();
    assert_eq!(types.len(), families);
    assert_eq!(helps.len(), snap.series.len());

    // Histogram series: bounds and cumulative counts monotone, +Inf
    // bucket equals _count, _sum matches the recorded total.
    let series = &bucket_series["demo_ns"];
    for pair in series.windows(2) {
        assert!(pair[0].0 < pair[1].0, "le bounds must increase");
        assert!(pair[0].1 <= pair[1].1, "cumulative counts must not drop");
    }
    let (last_bound, total) = *series.last().unwrap();
    assert!(last_bound.is_infinite());
    assert_eq!(total, 6);
    assert_eq!(samples["demo_ns_count"], 6.0);
    assert_eq!(
        samples["demo_ns_sum"],
        (80 + 150 + 150 + 40_000 + 2_000_000 + 15_000_000_000u64) as f64
    );
    // The finite-bucket cumulative count excludes only the overflow
    // sample (15 s > the ~13.4 s top bound).
    let finite_max = series
        .iter()
        .filter(|(b, _)| b.is_finite())
        .map(|&(_, c)| c)
        .max()
        .unwrap();
    assert_eq!(finite_max, 5);
    assert_eq!(BOUNDS.len(), NUM_BOUNDS);
}

/// `MetricsSnapshot::to_json` carries the same numbers as the typed
/// snapshot, so `/stats.json` and `/metrics` can never disagree.
#[test]
fn json_exposition_matches_snapshot() {
    let registry = MetricsRegistry::new();
    registry.set_net_source(Box::new(|| {
        Some(NetStats {
            frames_sent: 3,
            in_flight: 2,
            ..NetStats::default()
        })
    }));
    registry.histogram("j_ns").record(12_345);
    let snap = registry.snapshot();
    let json = snap.to_json();
    for (name, series) in &snap.series {
        let pair = format!("\"{name}\":{}", series.value);
        assert!(json.contains(&pair), "{pair}");
    }
    assert!(json.contains("\"net_frames_sent\":3"));
    assert!(json.contains("\"net_in_flight\":2"));
    assert!(!json.contains("\"gauges\""));
    assert!(json.contains("\"count\":1"));
    assert!(json.contains("\"sum\":12345"));
    let hist_snap: &HistogramSnapshot = snap.histogram("j_ns").unwrap();
    assert_eq!(hist_snap.count(), 1);
}

/// The metric catalogue is checked, not trusted: walking every stats
/// table fully populated yields unique names, a help string per entry,
/// `_ns` exactly on simulated-time entries, and — sorted — the golden
/// list captured from the hand-written `flatten_*` functions this walk
/// replaced, so a rename shows up as a diff of `metric_names.golden`.
#[test]
fn metric_catalogue_matches_the_golden_names() {
    let registry = MetricsRegistry::new();
    let mut n = 0;
    let mut next = move || {
        n += 1;
        n
    };
    let engine = EngineStats::filled_with(&mut next);
    let frontend = FrontendStats::filled_with(&mut next);
    let net = NetStats::filled_with(&mut next);
    registry.set_engine_source(Box::new(move || Some(engine)));
    registry.set_frontend_source(Box::new(move || Some(frontend)));
    registry.set_net_source(Box::new(move || Some(net)));
    let snap = registry.snapshot();

    // One catalogue row per walked entry: a duplicate name would collapse
    // in the snapshot's map but not here.
    let rows: Vec<String> = render_catalogue()
        .lines()
        .skip(2)
        .map(|row| row.split('`').nth(1).expect("name cell").to_string())
        .collect();
    let mut names = rows.clone();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), rows.len(), "exported names must be unique");
    assert_eq!(
        names,
        snap.series.keys().cloned().collect::<Vec<_>>(),
        "the catalogue and a live snapshot walk the same tables"
    );

    for (name, series) in &snap.series {
        assert!(!series.help.is_empty(), "{name} has no help string");
        let is_ns = series.kind == MetricKind::Nanos;
        assert_eq!(is_ns, name.ends_with("_ns"), "{name}");
        // Every leaf drew a distinct non-zero value, and kept it.
        assert!(series.value > 0, "{name}");
    }

    let golden: Vec<&str> = include_str!("metric_names.golden").lines().collect();
    assert_eq!(names, golden);
}

/// README's "Metric catalogue" section is `render_catalogue()` verbatim.
#[test]
fn readme_metric_catalogue_is_current() {
    let readme = include_str!("../../../README.md");
    let expected = render_catalogue();
    assert!(
        readme.contains(&expected),
        "README.md `### Metric catalogue` is stale; replace its table with:\n{expected}"
    );
}
