//! The one list of workloads and metrics: names, units, clocks, directions,
//! regression bounds and which workload reports what. `BENCHMARK.json`, the
//! printed tables, `compare` and the smoke tests are all derived from (or
//! checked against) this file.

use prism_obs::json::JsonObject;

use Better::{Higher, Lower};

/// How many seconds one run measures (`run_seconds` in `BENCHMARK.json`).
/// With three set-ups and the post-crash re-read a run then takes ~28 s,
/// which leaves the driver's 92 runs a fifth of their 3 420 s to spare for
/// the host's slow stretches.
pub const RUN_SECONDS: u64 = 16;

/// The four workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum W {
    TierWriteA,
    TierReadC,
    ScanE,
    WireB,
}

pub const WORKLOADS: [W; 4] = [W::TierWriteA, W::TierReadC, W::ScanE, W::WireB];

impl W {
    pub fn name(self) -> &'static str {
        match self {
            W::TierWriteA => "tier_write_a",
            W::TierReadC => "tier_read_c",
            W::ScanE => "scan_e",
            W::WireB => "wire_b",
        }
    }

    pub fn from_name(name: &str) -> Option<W> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            W::TierWriteA => "YCSB-A on data 5x NVM and 20x the DRAM cache: write-pressured, so compaction, NVM writes, SST builds, index mutation and the tracker do the work; net and frontend do none",
            W::TierReadC => "YCSB-C on the same tiers: the same layers used the other way (cache, point index, bloom/SST probe, tracker touch, promotions); a write-path gain that costs reads shows here",
            W::ScanE => "YCSB-E short scans on the same tiers: range use of the index and of SST files across the 8-partition merge; point-path changes should leave it flat",
            W::WireB => "YCSB-B through NetServer and Frontend over 2 pipelined duplex connections on data that fits NVM and half fits DRAM: the engine does little, so engine-only changes should leave it flat",
        }
    }
}

const ALL: &[W] = &WORKLOADS;
const ENGINE: &[W] = &[W::TierWriteA, W::TierReadC, W::ScanE];
const WRITE_A: &[W] = &[W::TierWriteA];
const WIRE: &[W] = &[W::WireB];
/// Workloads whose measured phase writes.
const PUTS: &[W] = &[W::TierWriteA, W::ScanE, W::WireB];

/// Which clock a metric is read on. The two are never mixed in one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated device time: the `Nanos` engine calls return.
    Sim,
    /// Host wall-clock.
    Wall,
    /// A count, size or ratio; repeats exactly for a seed with one client.
    None,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
            Clock::None => "-",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// End-to-end metrics — what a user of the system sees — carry the
    /// share of the baseline by which they may worsen before it is a
    /// regression; per-layer metrics (one layer's work, time or waste)
    /// carry none.
    pub bound: Option<f64>,
    /// The workloads on which the metric is measured. Elsewhere it is
    /// omitted from the printed tables and reads 0 in the driver output.
    pub on: &'static [W],
}

impl Metric {
    pub fn applies_to(&self, workload: W) -> bool {
        self.on.contains(&workload)
    }

    /// End-to-end and measured on every workload: the `end_to_end` list of
    /// `BENCHMARK.json`, whose driver wants every such metric from every
    /// workload. End-to-end metrics that only some workloads can report
    /// (no user writes on `tier_read_c`, no flash on `wire_b`) are bounded
    /// by `compare` all the same, but travel in the `per_layer` list.
    pub fn in_contract_end_to_end(&self) -> bool {
        self.bound.is_some() && self.on.len() == WORKLOADS.len()
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
    on: &'static [W],
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
        on,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    on: &'static [W],
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: None,
        on,
    }
}

const fn wall_ns(name: &'static str) -> Metric {
    layer(name, "ns", Clock::Wall, Lower, ALL)
}

const fn count(name: &'static str, better: Better, on: &'static [W]) -> Metric {
    layer(name, "count", Clock::None, better, on)
}

/// Every metric the benchmark reports.
pub const METRICS: &[Metric] = &[
    // ---- end to end, every workload --------------------------------
    e2e("setup_s", "s", Clock::Wall, Lower, 0.25, ALL),
    e2e("sim_kops", "kops/s", Clock::Sim, Higher, 0.03, ALL),
    e2e("fast_read_ratio", "ratio", Clock::None, Higher, 0.01, ALL),
    e2e("space_amp", "ratio", Clock::None, Lower, 0.02, ALL),
    e2e("wall_kops", "kops/s", Clock::Wall, Higher, 0.25, ALL),
    e2e("peak_rss_mb", "MB", Clock::Wall, Lower, 0.10, ALL),
    // ---- end to end, where the workload supports them --------------
    e2e("sim_read_p50_us", "us", Clock::Sim, Lower, 0.01, ENGINE),
    e2e("sim_read_p99_us", "us", Clock::Sim, Lower, 0.01, ENGINE),
    e2e("sim_write_p999_us", "us", Clock::Sim, Lower, 0.01, WRITE_A),
    e2e(
        "flash_write_amp",
        "ratio",
        Clock::None,
        Lower,
        0.01,
        WRITE_A,
    ),
    // ---- per layer --------------------------------------------------
    // Per-call wall latency spreads by up to 39 % (p50) and 18 % (p99)
    // between runs when the 2-core sandbox has a noisy neighbour: more than
    // any bound the driver allows, so both are reported, not gated.
    layer("wall_p50_us", "us", Clock::Wall, Lower, ALL),
    layer("wall_p99_us", "us", Clock::Wall, Lower, ALL),
    wall_ns("workloads.gen_ns_per_op"),
    wall_ns("types.crc32_ns_per_kb"),
    wall_ns("types.value_clone_ns"),
    count("storage.nvm_reads", Lower, ALL),
    count("storage.nvm_writes", Lower, ALL),
    layer("storage.nvm_bytes_read", "bytes", Clock::None, Lower, ALL),
    layer(
        "storage.nvm_bytes_written",
        "bytes",
        Clock::None,
        Lower,
        ALL,
    ),
    count("storage.flash_reads", Lower, ALL),
    count("storage.flash_writes", Lower, ALL),
    layer("storage.flash_bytes_read", "bytes", Clock::None, Lower, ALL),
    layer(
        "storage.flash_bytes_written",
        "bytes",
        Clock::None,
        Lower,
        ALL,
    ),
    wall_ns("storage.device_call_ns"),
    wall_ns("storage.commitlog_ns_per_batch"),
    wall_ns("nvm.insert_ns"),
    wall_ns("nvm.update_ns"),
    wall_ns("nvm.read_ns"),
    wall_ns("nvm.remove_ns"),
    layer("nvm.read_sim_ns", "ns", Clock::Sim, Lower, ALL),
    layer("nvm.utilization", "ratio", Clock::None, Higher, ALL),
    count("nvm.object_count", Higher, ALL),
    wall_ns("flash.sst_build_ns_per_entry"),
    wall_ns("flash.probe_hit_ns"),
    wall_ns("flash.probe_miss_ns"),
    wall_ns("flash.bloom_probe_ns"),
    layer("flash.bloom_fp_rate", "ratio", Clock::None, Lower, ALL),
    wall_ns("flash.log_lookup_ns"),
    wall_ns("flash.range_ns_per_entry"),
    count("flash.file_count", Lower, ALL),
    count("flash.object_count", Lower, ALL),
    wall_ns("index.get_ns"),
    wall_ns("index.insert_ns"),
    wall_ns("index.remove_ns"),
    wall_ns("index.range50_ns"),
    wall_ns("index.btree_get_ns"),
    wall_ns("index.btree_insert_ns"),
    wall_ns("index.hashdir_get_ns"),
    wall_ns("index.hashdir_insert_ns"),
    wall_ns("tracker.touch_ns"),
    wall_ns("tracker.access_ns"),
    wall_ns("tracker.pin_decision_ns"),
    layer("tracker.clock0_frac", "ratio", Clock::None, Lower, ALL),
    layer("tracker.clock1_frac", "ratio", Clock::None, Lower, ALL),
    layer("tracker.clock2_frac", "ratio", Clock::None, Higher, ALL),
    layer("tracker.clock3_frac", "ratio", Clock::None, Higher, ALL),
    count("compaction.jobs", Lower, ALL),
    layer("compaction.sim_busy_ms", "ms", Clock::Sim, Lower, ALL),
    layer("compaction.sim_stall_ms", "ms", Clock::Sim, Lower, ALL),
    count("compaction.demoted_objects", Lower, ALL),
    count("compaction.promoted_objects", Higher, ALL),
    layer(
        "compaction.flash_bytes_per_demoted_object",
        "bytes",
        Clock::None,
        Lower,
        ALL,
    ),
    layer("compaction.job_sim_us_mean", "us", Clock::Sim, Lower, ALL),
    layer(
        "compaction.trigger_put_wall_us",
        "us",
        Clock::Wall,
        Lower,
        WRITE_A,
    ),
    wall_ns("compaction.estimate_ns"),
    wall_ns("compaction.msc_score_ns"),
    wall_ns("compaction.pick_ns"),
    wall_ns("core.get_dram_ns"),
    wall_ns("core.get_nvm_ns"),
    layer("core.get_flash_ns", "ns", Clock::Wall, Lower, ENGINE),
    layer("core.put_ns", "ns", Clock::Wall, Lower, PUTS),
    layer("core.scan_ns", "ns", Clock::Wall, Lower, &[W::ScanE]),
    layer("core.put_wall_p999_us", "us", Clock::Wall, Lower, WRITE_A),
    count("core.reads_dram", Higher, ALL),
    count("core.reads_nvm", Higher, ALL),
    count("core.reads_flash", Lower, ALL),
    count("core.reads_not_found", Lower, ALL),
    layer("core.cache_hit_rate", "ratio", Clock::None, Higher, ALL),
    wall_ns("core.cache_get_ns"),
    wall_ns("core.cache_insert_ns"),
    layer(
        "core.sim_cpu_charge_ratio",
        "ratio",
        Clock::Wall,
        Lower,
        ALL,
    ),
    layer("core.recover_sim_ms", "ms", Clock::Sim, Lower, ALL),
    layer("core.recover_wall_ms", "ms", Clock::Wall, Lower, ALL),
    layer("frontend.added_ns_per_op", "ns", Clock::Wall, Lower, WIRE),
    layer(
        "frontend.queue_wait_us_mean",
        "us",
        Clock::Wall,
        Lower,
        WIRE,
    ),
    layer("frontend.service_us_mean", "us", Clock::Wall, Lower, WIRE),
    layer(
        "frontend.coalesce_width",
        "ratio",
        Clock::None,
        Higher,
        WIRE,
    ),
    layer("frontend.wakeups_per_op", "ratio", Clock::None, Lower, WIRE),
    count("frontend.stolen_drains", Lower, WIRE),
    count("frontend.rejected", Lower, WIRE),
    count("frontend.max_queue_depth", Lower, WIRE),
    layer("net.added_ns_per_op", "ns", Clock::Wall, Lower, WIRE),
    wall_ns("net.encode_request_ns"),
    wall_ns("net.decode_request_ns"),
    wall_ns("net.encode_response_ns"),
    wall_ns("net.decode_response_ns"),
    count("net.frames", Lower, WIRE),
    layer("net.bytes_per_op", "bytes", Clock::None, Lower, WIRE),
    count("net.backpressure", Lower, WIRE),
    count("net.protocol_errors", Lower, WIRE),
    count("net.max_in_flight", Higher, WIRE),
    layer("net.pingpong_p50_us", "us", Clock::Wall, Lower, WIRE),
    layer("net.pingpong_p99_us", "us", Clock::Wall, Lower, WIRE),
    layer("net.open10k_p50_us", "us", Clock::Wall, Lower, WIRE),
    layer("net.open10k_p99_us", "us", Clock::Wall, Lower, WIRE),
    layer("net.open10k_late_p99_us", "us", Clock::Wall, Lower, WIRE),
    count("net.open10k_backlog_end", Lower, WIRE),
    wall_ns("obs.record_ns"),
    layer("obs.overhead_pct", "%", Clock::Wall, Lower, WIRE),
    layer("lsm.sim_kops", "kops/s", Clock::Sim, Higher, WRITE_A),
    layer("lsm.sim_read_p99_us", "us", Clock::Sim, Lower, WRITE_A),
    layer("lsm.flash_write_amp", "ratio", Clock::None, Lower, WRITE_A),
    count("trace.spans", Lower, ALL),
    layer("trace.overhead_pct", "%", Clock::Wall, Lower, ALL),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics the driver expects on the result line of a run: every
/// contract end-to-end metric untraced, every other metric traced.
pub fn contract_metrics(traced: bool) -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(move |m| m.in_contract_end_to_end() != traced)
}

/// Render `BENCHMARK.json` from the catalogue.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let mut obj = JsonObject::new();
            obj.string("name", w.name());
            obj.string("why", w.why());
            obj.finish()
        })
        .collect();
    let describe = |m: &Metric| {
        let mut obj = JsonObject::new();
        obj.string("name", m.name);
        obj.string("unit", m.unit);
        obj.string("better", m.better.label());
        if let (true, Some(bound)) = (m.in_contract_end_to_end(), m.bound) {
            obj.float("bound", bound);
        }
        obj.finish()
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(contract_metrics(false).map(describe).collect()),
        list(contract_metrics(true).map(describe).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let committed = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let generated = parse(&manifest()).unwrap();
        assert_eq!(
            committed, generated,
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let names: BTreeSet<&str> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), METRICS.len(), "metric names are unique");
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for m in METRICS {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
            if let Some(bound) = m.bound {
                assert!((0.0..=0.25).contains(&bound), "{}", m.name);
            }
        }
        for w in WORKLOADS {
            assert!(ok_name(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(W::from_name(w.name()), Some(w));
        }
        let end_to_end: Vec<_> = contract_metrics(false).collect();
        assert!((1..=16).contains(&end_to_end.len()));
        assert!((1..=128).contains(&contract_metrics(true).count()));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let manifest = parse(&manifest()).unwrap();
        let keys: Vec<&str> = manifest
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let Some(Json::Array(per_layer)) = manifest.get("per_layer") else {
            panic!("per_layer is a list");
        };
        for entry in per_layer {
            let keys: Vec<&str> = entry
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["better", "name", "unit"]);
        }
    }
}
