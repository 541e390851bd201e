//! Smoke test of the harness: all four workloads at 1/100 scale, in
//! seconds. Checks that every catalogued metric is reported, that the
//! simulated clock and the counters repeat exactly for a seed, and that
//! the workloads still stress what they claim to.

use crate::catalog::{contract_metrics, Clock, METRICS, RUN_SECONDS, W, WORKLOADS};
use crate::json::{parse, Json};
use crate::spec::{Outcome, Spec};
use crate::{result_line, run_spec};

fn run_small(workload: W, seed: u64, traced: bool) -> Outcome {
    let spec = Spec::of(workload).scaled_down(100);
    let ops = Spec::of(workload).measured_ops(RUN_SECONDS) / 100;
    run_spec(&spec, seed, ops, traced).0
}

/// Every metric the catalogue promises for `workload` in this kind of run
/// is there, finite, and carries its declared unit on the result line.
fn assert_complete(workload: W, outcome: &Outcome, traced: bool) {
    assert_eq!(outcome.failed, 0, "{}: ops failed", workload.name());
    assert!(outcome.attempted > 0);
    let line = parse(&result_line(outcome, contract_metrics(traced))).unwrap();
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    let reported = line.get("metrics").and_then(Json::as_object).unwrap();
    assert_eq!(reported.len(), contract_metrics(traced).count());
    for metric in contract_metrics(traced) {
        let entry = &reported[metric.name];
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
        let value = entry.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite(), "{} on {}", metric.name, workload.name());
        if metric.applies_to(workload) {
            assert!(
                outcome.metrics.contains_key(metric.name),
                "{} was not measured on {}",
                metric.name,
                workload.name()
            );
        }
        if !traced {
            assert!(
                value > 0.0,
                "{} is zero on {}",
                metric.name,
                workload.name()
            );
        }
    }
}

#[test]
fn every_metric_is_reported_on_every_workload() {
    for workload in WORKLOADS {
        assert_complete(workload, &run_small(workload, 7, false), false);
        assert_complete(workload, &run_small(workload, 7, true), true);
    }
}

#[test]
fn simulated_time_and_counts_repeat_for_a_seed_and_move_with_it() {
    let exact = |outcome: &Outcome| -> Vec<(&'static str, u64)> {
        METRICS
            .iter()
            .filter(|m| m.clock != Clock::Wall)
            .filter_map(|m| outcome.metrics.get(m.name).map(|v| (m.name, v.to_bits())))
            .collect()
    };
    // One client, inline compaction: nothing but the seed decides these.
    for workload in [W::TierWriteA, W::TierReadC, W::ScanE] {
        let first = exact(&run_small(workload, 11, false));
        assert!(
            first.len() > 20,
            "{}: {} exact metrics",
            workload.name(),
            first.len()
        );
        assert_eq!(
            first,
            exact(&run_small(workload, 11, false)),
            "{}",
            workload.name()
        );
        assert_ne!(
            first,
            exact(&run_small(workload, 12, false)),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn workloads_stress_what_they_claim_to() {
    let write = run_small(W::TierWriteA, 3, false);
    assert!(
        write.get("compaction.jobs") >= 1.0,
        "tier_write_a never compacted"
    );
    assert!(write.get("flash_write_amp") > 0.0);
    assert!(
        write.get("core.reads_flash") > 0.0,
        "tier_write_a fits its fast tiers"
    );
    let read = run_small(W::TierReadC, 3, false);
    assert!(
        read.get("core.reads_flash") > 0.0,
        "tier_read_c fits its fast tiers"
    );
    assert_eq!(
        read.get("storage.nvm_bytes_written") > 0.0,
        read.get("compaction.jobs") > 0.0
    );
    let wire = run_small(W::WireB, 3, false);
    assert_eq!(wire.get("storage.flash_reads"), 0.0, "wire_b read flash");
    assert_eq!(wire.get("compaction.jobs"), 0.0, "wire_b compacted");
    assert!(wire.get("net.frames") > 0.0);
}
