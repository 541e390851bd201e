//! Inline vs background compaction: stall time and throughput.
//!
//! PrismDB's headline claim is that multi-tiered compaction keeps
//! foreground latency low by moving cold objects to flash *off the
//! critical path*. This experiment measures exactly that: the same
//! write-heavy (YCSB-A) and insert-heavy (YCSB-D) workloads are driven
//! from 1/2/4 client threads against the inline-compaction engine (every
//! watermark trip stalls the triggering client) and against engines with
//! 1/2/4 background compaction workers (watermark trips enqueue a job;
//! clients only stall at the back-pressure ceiling). Makespans come from
//! [`crate::Runner::run_threaded`]'s virtual-time model:
//! `max(busiest client, busiest shard, busiest compaction worker)`, where
//! a worker's clock sums the jobs that worker thread installed, so the
//! third term follows how the OS spread the jobs over the pool.

use prism_workloads::{Distribution, Workload};

use crate::engines;
use crate::report::{fmt_f64, write_bench_json, Table};
use crate::{Runner, Scale};

/// Engine configurations compared: `None` is inline compaction, `Some(n)`
/// uses `n` background workers.
const WORKER_CONFIGS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(4)];

fn config_label(workers: Option<usize>) -> String {
    match workers {
        None => "inline".to_string(),
        Some(n) => format!("bg{n}"),
    }
}

/// The write-heavy pressure mix: YCSB-A's 50/50 read/update op mix, with
/// the *updates* spread uniformly over the key space. Zipfian updates are
/// absorbed in place by the NVM-resident hot set (PrismDB's design point),
/// so they generate almost no compaction to take off the foreground path;
/// uniform updates keep hitting flash-resident cold keys, whose new
/// versions land on NVM and keep demotion compactions running in steady
/// state.
pub fn write_pressure_workload(record_count: u64) -> Workload {
    let mut w = Workload::ycsb_a(record_count);
    w.name = "ycsb-a-wide".to_string();
    w.write_distribution = Some(Distribution::Uniform);
    w
}

/// Run one workload through every thread count × worker configuration.
/// Row labels are `"<workload>/t<threads>/<config>"`.
pub fn sweep_with(
    scale: &Scale,
    workloads: &[Workload],
    threads: &[usize],
    configs: &[Option<usize>],
) -> Table {
    let runner = Runner::new(super::run_config(scale));
    let keys = scale.record_count;
    let mut table = Table::new(
        "Background compaction: inline vs N workers (stall time off the foreground path)",
        &[
            "config",
            "Kops/s",
            "stall (ms)",
            "overlap (ms)",
            "promoted",
            "bp stalls",
            "compaction jobs",
            "max queue",
        ],
    );
    for workload in workloads {
        for &t in threads {
            for &workers in configs {
                let db = engines::prismdb_write_pressured(keys, workers.unwrap_or(0));
                let result = runner.run_threaded(&*db, workload, t);
                table.add_row(vec![
                    format!("{}/t{}/{}", workload.name, t, config_label(workers)),
                    fmt_f64(result.throughput_kops),
                    fmt_f64(result.stats.compaction.stall_time.as_millis() as f64),
                    fmt_f64(result.stats.compaction.overlap_time.as_millis() as f64),
                    result.stats.compaction.promoted_objects.to_string(),
                    result.stats.compaction.backpressure_stalls.to_string(),
                    result.stats.compaction.jobs.to_string(),
                    result.stats.compaction.max_queue_depth.to_string(),
                ]);
            }
        }
    }
    table.print();
    table
}

/// The full sweep: the write-pressure mix, plain YCSB-A and YCSB-D ×
/// 1/2/4 client threads × inline and 1/2/4 background workers.
pub fn sweep(scale: &Scale) -> Table {
    let keys = scale.record_count;
    sweep_with(
        scale,
        &[
            write_pressure_workload(keys),
            Workload::ycsb_a(keys),
            Workload::ycsb_d(keys),
        ],
        &[1, 2, 4],
        &WORKER_CONFIGS,
    )
}

/// Run the sweep and emit `BENCH_background_compaction.json` plus the
/// sweep's `BENCH_summary.json` entry.
pub fn run(scale: &Scale) -> Vec<Table> {
    let table = sweep(scale);
    write_bench_json("background_compaction", std::slice::from_ref(&table));
    if let Some(entry) = crate::report::SummaryEntry::best_of(
        "background_compaction",
        &table,
        "Kops/s",
        scale.record_count,
    ) {
        crate::report::update_bench_summary(&entry);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_f64(table: &Table, row: &str, col: &str) -> f64 {
        table
            .cell(row, col)
            .unwrap_or_else(|| panic!("missing cell {row}/{col}"))
            .parse()
            .unwrap()
    }

    /// The acceptance bar for this PR: on the write-heavy mix, background
    /// workers must cut foreground stall time by at least 2x and push
    /// throughput strictly above the inline configuration at 2 and 4
    /// client threads.
    #[test]
    fn background_workers_beat_inline_compaction_on_write_heavy_mix() {
        let scale = Scale::quick();
        let keys = scale.record_count;
        let table = sweep_with(
            &scale,
            &[write_pressure_workload(keys)],
            &[2, 4],
            &[None, Some(2), Some(4)],
        );
        for threads in [2usize, 4] {
            let inline_tput = cell_f64(&table, &format!("ycsb-a-wide/t{threads}/inline"), "Kops/s");
            let inline_stall = cell_f64(
                &table,
                &format!("ycsb-a-wide/t{threads}/inline"),
                "stall (ms)",
            );
            for workers in [2usize, 4] {
                let row = format!("ycsb-a-wide/t{threads}/bg{workers}");
                let bg_tput = cell_f64(&table, &row, "Kops/s");
                let bg_stall = cell_f64(&table, &row, "stall (ms)");
                assert!(
                    bg_tput > inline_tput,
                    "{row}: background throughput {bg_tput:.1} Kops/s must beat \
                     inline {inline_tput:.1} Kops/s"
                );
                assert!(
                    inline_stall >= 2.0 * bg_stall,
                    "{row}: inline stall {inline_stall:.2} ms must be at least 2x \
                     background stall {bg_stall:.2} ms"
                );
            }
        }
    }

    #[test]
    fn background_engines_overlap_compaction_with_foreground() {
        let scale = Scale::quick();
        let keys = scale.record_count;
        let table = sweep_with(
            &scale,
            &[write_pressure_workload(keys)],
            &[2],
            &[None, Some(2)],
        );
        // The cold-key churn keeps demotions running: the background
        // engine must report overlapped compaction time and jobs. Inline, a
        // demotion is waited for and never overlaps; a promotion (raised
        // when the read trigger fires) only extends the background
        // timeline and does, so the inline engine reports no overlap
        // whenever it promoted nothing.
        let inline_overlap = cell_f64(&table, "ycsb-a-wide/t2/inline", "overlap (ms)");
        let inline_promoted = cell_f64(&table, "ycsb-a-wide/t2/inline", "promoted");
        let inline_jobs = cell_f64(&table, "ycsb-a-wide/t2/inline", "compaction jobs");
        let bg_overlap = cell_f64(&table, "ycsb-a-wide/t2/bg2", "overlap (ms)");
        let bg_jobs = cell_f64(&table, "ycsb-a-wide/t2/bg2", "compaction jobs");
        if inline_promoted == 0.0 {
            assert_eq!(inline_overlap, 0.0, "inline demotions never overlap");
        }
        assert!(inline_jobs > 0.0, "the pressure mix must compact");
        assert!(bg_overlap > 0.0, "background compaction must overlap");
        assert!(bg_jobs > 0.0, "background workers must run jobs");
    }
}
