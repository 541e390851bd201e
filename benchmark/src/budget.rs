//! The per-workload budget table of a traced run: for each call across a
//! layer boundary, `calls per op × ns per call ÷ wall ns per op`.
//!
//! Rows marked `~` are not timed in the run itself: they multiply a count
//! from the engine's public counters by the replay probe's ns per call, and
//! say roughly where inside `core.*` the time goes.

use crate::spec::Outcome;

pub struct Row {
    pub call: &'static str,
    pub per_op: f64,
    pub ns_per_call: f64,
}

/// Rows every workload shares: what the substrate probes say the engine's
/// own counters cost. `ops` is the measured op count.
pub fn substrate_rows(out: &Outcome, ops: f64) -> Vec<Row> {
    let per_op = |metric: &str| out.get(metric) / ops;
    let reads = [
        "core.reads_dram",
        "core.reads_nvm",
        "core.reads_flash",
        "core.reads_not_found",
    ]
    .iter()
    .map(|m| out.get(m))
    .sum::<f64>()
        / ops;
    let row = |call, per_op, ns_metric: &str| Row {
        call,
        per_op,
        ns_per_call: out.get(ns_metric),
    };
    vec![
        row("~ core.cache get", reads, "core.cache_get_ns"),
        row(
            "~ index.get",
            reads - per_op("core.reads_dram"),
            "index.get_ns",
        ),
        row("~ tracker.touch", reads, "tracker.touch_ns"),
        row("~ nvm.read", per_op("core.reads_nvm"), "nvm.read_ns"),
        row(
            "~ flash.probe",
            per_op("core.reads_flash"),
            "flash.probe_hit_ns",
        ),
        row(
            "~ nvm.update",
            per_op("storage.nvm_writes"),
            "nvm.update_ns",
        ),
        row(
            "~ flash.sst_build entry",
            per_op("compaction.demoted_objects"),
            "flash.sst_build_ns_per_entry",
        ),
        row(
            "~ index.remove",
            per_op("compaction.demoted_objects"),
            "index.remove_ns",
        ),
        row(
            "~ index.insert",
            per_op("compaction.promoted_objects"),
            "index.insert_ns",
        ),
    ]
}

/// Print the table to stderr (stdout's last line is the result).
pub fn print(workload: &str, out: &Outcome, rows: &[Row]) {
    let wall_ns_per_op = 1e6 / out.get("wall_kops").max(f64::MIN_POSITIVE);
    eprintln!("budget of {workload}: {wall_ns_per_op:.0} wall ns per op (closed loop, think time included)");
    eprintln!(
        "  {:<26} {:>12} {:>14} {:>8}",
        "call", "calls/op", "ns/call", "share"
    );
    for row in rows
        .iter()
        .filter(|r| r.per_op > 0.0 && r.ns_per_call > 0.0)
    {
        eprintln!(
            "  {:<26} {:>12.4} {:>14.1} {:>7.1}%",
            row.call,
            row.per_op,
            row.ns_per_call,
            100.0 * row.per_op * row.ns_per_call / wall_ns_per_op
        );
    }
}
