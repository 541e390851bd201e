//! `benchmark compare a.json b.json`: one row per (workload, end-to-end
//! metric) of two result files, judged by the catalogue's direction and
//! bound.

use crate::catalog::{Better, METRICS, WORKLOADS};
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
        }
    }
}

/// By what share of `a` is `b` worse (negative: better)?
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    let worse = worse_by(a, b, better);
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn metric_value(run: &Json, workload: &str, metric: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn error_rate(run: &Json, workload: &str) -> Option<f64> {
    let entry = run.get("workloads")?.get(workload)?;
    let attempted = entry.get("attempted")?.as_f64()?;
    Some(entry.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// Print the comparison of baseline `a` against candidate `b`; returns
/// how many rows regressed. `error_rate` regresses on any rise.
pub fn compare(a: &Json, b: &Json) -> usize {
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    let mut regressions = 0;
    let mut row = |workload: &str, metric: &str, a: f64, b: f64, bound: f64, verdict: Verdict| {
        let delta = if a == 0.0 {
            0.0
        } else {
            100.0 * (b - a) / a.abs()
        };
        println!(
            "{workload:<13} {metric:<18} {a:>14.4} {b:>14.4} {delta:>+8.2}% {:>6.1}%  {}",
            100.0 * bound,
            verdict.label()
        );
        regressions += (verdict == Verdict::Regressed) as usize;
    };
    for workload in WORKLOADS {
        let name = workload.name();
        for metric in METRICS.iter().filter(|m| m.applies_to(workload)) {
            let (Some(bound), Some(a), Some(b)) = (
                metric.bound,
                metric_value(a, name, metric.name),
                metric_value(b, name, metric.name),
            ) else {
                continue;
            };
            row(
                name,
                metric.name,
                a,
                b,
                bound,
                judge(a, b, metric.better, bound),
            );
        }
        if let (Some(a), Some(b)) = (error_rate(a, name), error_rate(b, name)) {
            let verdict = if b > a {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            row(name, "error_rate", a, b, 0.0, verdict);
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 109.0, Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, Lower, 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 89.0, Lower, 0.10), Verdict::Improved);
        assert_eq!(judge(100.0, 91.0, Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, Higher, 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 111.0, Higher, 0.10), Verdict::Improved);
        assert_eq!(judge(2.0, 2.0, Lower, 0.0), Verdict::Ok);
    }

    fn run(wall_kops: f64, sim_kops: f64, failed: u64) -> Json {
        parse(&format!(
            r#"{{"workloads": {{"tier_write_a": {{"attempted": 1000, "failed": {failed},
               "metrics": {{"wall_kops": {{"value": {wall_kops}, "unit": "kops/s"}},
                            "sim_kops": {{"value": {sim_kops}, "unit": "kops/s"}},
                            "core.put_ns": {{"value": 1, "unit": "ns"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn regressions_and_error_rises_are_counted() {
        let baseline = run(100.0, 25.0, 0);
        assert_eq!(compare(&baseline, &run(95.0, 25.0, 0)), 0);
        assert_eq!(compare(&baseline, &run(70.0, 25.0, 0)), 1);
        assert_eq!(compare(&baseline, &run(100.0, 24.0, 0)), 1);
        assert_eq!(compare(&baseline, &run(120.0, 26.0, 1)), 1);
        // Per-layer metrics carry no bound and are never judged.
        assert_eq!(compare(&run(100.0, 25.0, 3), &run(100.0, 25.0, 3)), 0);
    }
}
