//! Raw samples of a measured phase and the end-to-end metrics read off them.

use std::time::Instant;

use crate::spec::Outcome;
use crate::stats::{median, percentile, percentile_of};

/// One of the equal parts of a client's measured phase.
#[derive(Debug, Default)]
pub struct Segment {
    pub ops: u64,
    /// Wall time from the segment's first op being drawn to its last
    /// result being checked: a closed loop, think time included.
    pub wall_ns: u64,
    /// Wall nanoseconds of each call (engine) or round trip (wire).
    pub samples: Vec<u64>,
    /// Whether spans were recorded during this segment.
    pub traced: bool,
}

impl Segment {
    fn kops(&self) -> f64 {
        self.ops as f64 / (self.wall_ns.max(1) as f64 / 1e9) / 1e3
    }
}

/// Everything one closed-loop client recorded.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub segments: Vec<Segment>,
    /// Simulated latency of each read-class op (`Read`, `Scan`).
    pub sim_read: Vec<u64>,
    /// Simulated latency of each write-class op.
    pub sim_write: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl ClientLog {
    /// Open the next segment; `finish_segment` closes it.
    pub fn start_segment(&mut self, capacity: usize, traced: bool) -> Instant {
        self.segments.push(Segment {
            samples: Vec::with_capacity(capacity),
            traced,
            ..Segment::default()
        });
        Instant::now()
    }

    pub fn finish_segment(&mut self, started: Instant) {
        let segment = self.segments.last_mut().expect("a segment was started");
        segment.wall_ns = started.elapsed().as_nanos() as u64;
        segment.ops = segment.samples.len() as u64;
    }

    /// Record the wall time of one call in the open segment.
    pub fn sample(&mut self, wall_ns: u64) {
        self.segments
            .last_mut()
            .expect("a segment was started")
            .samples
            .push(wall_ns);
    }
}

/// Per-segment throughput over all clients: clients run side by side, so
/// their rates add.
fn segment_kops(logs: &[ClientLog], keep: impl Fn(&Segment) -> bool) -> Vec<f64> {
    let segments = logs.iter().map(|l| l.segments.len()).min().unwrap_or(0);
    (0..segments)
        .filter(|&i| keep(&logs[0].segments[i]))
        .map(|i| logs.iter().map(|l| l.segments[i].kops()).sum())
        .collect()
}

/// `100 × (1 − traced ÷ untraced)` over the medians of the traced and the
/// untraced segments of one run; 0 when the run has only one kind.
pub fn trace_overhead_pct(logs: &[ClientLog]) -> f64 {
    let traced = median(&segment_kops(logs, |s| s.traced));
    let untraced = median(&segment_kops(logs, |s| !s.traced));
    if traced == 0.0 || untraced == 0.0 {
        return 0.0;
    }
    100.0 * (1.0 - traced / untraced)
}

/// Fill in the metrics that are read off the clients' raw samples:
/// `wall_kops`, `wall_p50_us`, `wall_p99_us` (medians over segments),
/// `sim_kops` and the simulated percentiles, plus `attempted`/`failed`.
pub fn summarize(logs: &mut [ClientLog], out: &mut Outcome) {
    out.set("wall_kops", median(&segment_kops(logs, |_| true)));
    let segments = logs.iter().map(|l| l.segments.len()).min().unwrap_or(0);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for i in 0..segments {
        let mut merged: Vec<u64> = Vec::new();
        for log in logs.iter_mut() {
            merged.append(&mut log.segments[i].samples);
        }
        merged.sort_unstable();
        p50.push(percentile(&merged, 0.50) as f64 / 1e3);
        p99.push(percentile(&merged, 0.99) as f64 / 1e3);
    }
    out.set("wall_p50_us", median(&p50));
    out.set("wall_p99_us", median(&p99));

    let mut sim_read: Vec<u64> = Vec::new();
    let mut sim_write: Vec<u64> = Vec::new();
    for log in logs.iter_mut() {
        sim_read.append(&mut log.sim_read);
        sim_write.append(&mut log.sim_write);
        out.attempted += log.attempted;
        out.failed += log.failed;
    }
    let ops = (sim_read.len() + sim_write.len()) as f64;
    let sim_ns: u64 = sim_read.iter().chain(&sim_write).sum();
    out.set("sim_kops", ops / (sim_ns.max(1) as f64 / 1e9) / 1e3);
    sim_read.sort_unstable();
    out.set("sim_read_p50_us", percentile(&sim_read, 0.50) as f64 / 1e3);
    out.set("sim_read_p99_us", percentile(&sim_read, 0.99) as f64 / 1e3);
    out.set(
        "sim_write_p999_us",
        percentile_of(&mut sim_write, 0.999) as f64 / 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(segments: &[(u64, &[u64], bool)]) -> ClientLog {
        ClientLog {
            segments: segments
                .iter()
                .map(|(wall_ns, samples, traced)| Segment {
                    ops: samples.len() as u64,
                    wall_ns: *wall_ns,
                    samples: samples.to_vec(),
                    traced: *traced,
                })
                .collect(),
            ..ClientLog::default()
        }
    }

    #[test]
    fn wall_metrics_are_medians_over_segments_and_client_rates_add() {
        // Two clients, three segments; the middle segment hits a stall.
        let mut logs = vec![
            log(&[
                (1_000_000, &[1_000, 2_000], false),
                (4_000_000, &[1_000, 90_000], false),
                (1_000_000, &[1_000, 3_000], false),
            ]),
            log(&[
                (1_000_000, &[1_000, 2_000], false),
                (4_000_000, &[1_000, 90_000], false),
                (2_000_000, &[1_000, 3_000], false),
            ]),
        ];
        logs[0].sim_read = vec![1_000, 3_000];
        logs[1].sim_write = vec![2_000, 2_000];
        logs[0].attempted = 6;
        logs[1].attempted = 6;
        logs[1].failed = 1;
        let mut out = Outcome::default();
        summarize(&mut logs, &mut out);
        // Segment rates: 2+2, 0.5+0.5, 2+1 Kops/s → median 3.
        assert_eq!(out.get("wall_kops"), 3.0);
        // Segment p99s: 2, 90, 3 µs → median 3; the stall does not show.
        assert_eq!(out.get("wall_p99_us"), 3.0);
        assert_eq!(out.get("wall_p50_us"), 1.0);
        // 4 ops in 8 000 simulated ns.
        assert_eq!(out.get("sim_kops"), 500.0);
        assert_eq!(out.get("sim_read_p99_us"), 3.0);
        assert_eq!(out.get("sim_write_p999_us"), 2.0);
        assert_eq!((out.attempted, out.failed), (12, 1));
    }

    #[test]
    fn trace_overhead_compares_traced_and_untraced_segments() {
        let logs = vec![log(&[
            (1_000_000, &[1; 10], false),
            (1_250_000, &[1; 10], true),
            (1_000_000, &[1; 10], false),
            (1_250_000, &[1; 10], true),
        ])];
        assert!((trace_overhead_pct(&logs) - 20.0).abs() < 1e-9);
        assert_eq!(trace_overhead_pct(&[log(&[(1, &[1], false)])]), 0.0);
    }
}
