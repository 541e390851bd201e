//! Write batching / group commit: throughput vs client batch size.
//!
//! The ROADMAP's "write batching / group commit across partitions" item:
//! clients buffer write-class operations into a
//! [`prism_types::WriteBatch`] and submit it once per `batch_size`
//! entries; PrismDB groups the entries by partition, takes each
//! partition's write lock once, merges duplicate-key slab writes inside
//! the group, and runs one watermark check per partition per batch (see
//! `PrismDb::apply_batch`). This sweep measures how that amortisation
//! converts into throughput on a write-heavy (YCSB-A) and an insert-heavy
//! (YCSB-D) mix as client threads grow, using
//! [`crate::Runner::run_threaded_batched`]'s virtual-time model (a
//! batch's latency is charged once to its client and proportionally to
//! the shards it touched).

use prism_workloads::Workload;

use crate::engines;
use crate::report::{fmt_f64, write_bench_json, Table};
use crate::{Runner, Scale};

/// Client batch sizes compared (1 = the per-op path).
pub const BATCH_SIZES: [usize; 3] = [1, 8, 64];

/// Run one workload through every thread count × batch size. Row labels
/// are `"<workload>/t<threads>/b<batch>"`.
pub fn sweep_with(
    scale: &Scale,
    workloads: &[Workload],
    threads: &[usize],
    batch_sizes: &[usize],
) -> Table {
    let runner = Runner::new(super::run_config(scale));
    let keys = scale.record_count;
    let mut table = Table::new(
        "Write batching: client batch size vs throughput (group commit per partition)",
        &[
            "config",
            "Kops/s",
            "groups",
            "entries",
            "merged dups",
            "stall (ms)",
        ],
    );
    for workload in workloads {
        for &t in threads {
            for &batch in batch_sizes {
                // Fresh engine per point so points differ only in the
                // submission model.
                let db = engines::prismdb_shared(keys);
                let result = runner.run_threaded_batched(&*db, workload, t, batch);
                table.add_row(vec![
                    format!("{}/t{}/b{}", workload.name, t, batch),
                    fmt_f64(result.throughput_kops),
                    result.stats.batch_groups.to_string(),
                    result.stats.batch_entries.to_string(),
                    result.stats.batch_merged_writes.to_string(),
                    fmt_f64(result.stats.compaction.stall_time.as_millis() as f64),
                ]);
            }
        }
    }
    table.print();
    table
}

/// The full sweep: YCSB-A and YCSB-D × 1/2/4 client threads × batch size
/// 1/8/64.
pub fn sweep(scale: &Scale) -> Table {
    let keys = scale.record_count;
    sweep_with(
        scale,
        &[Workload::ycsb_a(keys), Workload::ycsb_d(keys)],
        &[1, 2, 4],
        &BATCH_SIZES,
    )
}

/// Run the sweep and emit `BENCH_write_batching.json` plus the sweep's
/// `BENCH_summary.json` entry.
pub fn run(scale: &Scale) -> Vec<Table> {
    let table = sweep(scale);
    write_bench_json("write_batching", std::slice::from_ref(&table));
    if let Some(entry) =
        crate::report::SummaryEntry::best_of("write_batching", &table, "Kops/s", scale.record_count)
    {
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

    /// The acceptance bar for this PR: on the write-heavy mix at 4
    /// client threads, batch=64 must strictly beat batch=1 throughput.
    /// Throughputs come from the virtual-time model, but real thread
    /// interleaving still perturbs shared engine state (cache contents,
    /// compaction victims) between runs, so each configuration is
    /// measured three times and the medians are compared.
    #[test]
    fn batch64_beats_batch1_on_write_heavy_mix() {
        let scale = Scale::quick();
        let keys = scale.record_count;
        let mut b1_runs = Vec::new();
        let mut b64_runs = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let table = sweep_with(&scale, &[Workload::ycsb_a(keys)], &[4], &[1, 64]);
            b1_runs.push(cell_f64(&table, "ycsb-a/t4/b1", "Kops/s"));
            b64_runs.push(cell_f64(&table, "ycsb-a/t4/b64", "Kops/s"));
            last = Some(table);
        }
        let median = |runs: &mut Vec<f64>| {
            runs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            runs[runs.len() / 2]
        };
        let b1 = median(&mut b1_runs);
        let b64 = median(&mut b64_runs);
        assert!(
            b64 > b1,
            "batch=64 median throughput {b64:.1} Kops/s must strictly beat \
             batch=1 {b1:.1} Kops/s ({b64_runs:?} vs {b1_runs:?})"
        );
        // The batched run must actually have gone through the batched
        // path, and zipfian write skew must have merged duplicate keys.
        let table = last.expect("three sweeps ran");
        let groups = cell_f64(&table, "ycsb-a/t4/b64", "groups");
        let entries = cell_f64(&table, "ycsb-a/t4/b64", "entries");
        let merged = cell_f64(&table, "ycsb-a/t4/b64", "merged dups");
        assert!(groups > 0.0, "batched run must install groups");
        assert!(
            entries / groups > 1.5,
            "groups must amortise several entries each ({entries}/{groups})"
        );
        assert!(merged > 0.0, "zipfian updates must merge duplicates");
        let b1_groups = cell_f64(&table, "ycsb-a/t4/b1", "groups");
        assert_eq!(b1_groups, 0.0, "batch=1 must use the per-op path");
    }

    /// Larger batches monotonically reduce the total number of partition
    /// group installs for the same op budget (coarse sanity on the
    /// insert-heavy mix, which rarely repeats keys).
    #[test]
    fn batching_reduces_group_installs_on_insert_heavy_mix() {
        let scale = Scale::quick();
        let keys = scale.record_count;
        let table = sweep_with(&scale, &[Workload::ycsb_d(keys)], &[2], &[8, 64]);
        let g8 = cell_f64(&table, "ycsb-d/t2/b8", "groups");
        let g64 = cell_f64(&table, "ycsb-d/t2/b64", "groups");
        assert!(
            g64 < g8,
            "64-entry batches must install fewer groups than 8-entry batches ({g64} vs {g8})"
        );
    }
}
