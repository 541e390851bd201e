//! Exact order statistics over raw samples, segment medians and the
//! process's peak resident set.
//!
//! Percentiles here are nearest-rank over a sorted `Vec<u64>` and never
//! come from `prism_obs::LatencyHistogram`: its √2-wide buckets report a
//! bucket midpoint, so a percentile that crosses a bucket edge jumps by
//! ~41 % while the true value moved by a nanosecond (pinned by a test
//! below). A regression bound of 1–10 % cannot sit on top of that.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. Returns 0 for an empty
/// slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` in place and return its nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// Median of a set of per-segment values (mean of the two middle values
/// for an even count). Returns 0.0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("segment values are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `sum` over `count`, 0.0 when nothing was counted.
pub fn mean(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB, read from
/// `/proc/self/status`. Returns 0.0 where that file does not exist.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status) as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_obs::LatencyHistogram;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 0.999), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let mut unsorted = vec![30, 10, 20];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 20);
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 2.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(mean(10, 4), 2.5);
        assert_eq!(mean(10, 0), 0.0);
    }

    /// Why the benchmark keeps raw samples: two latency populations whose
    /// true p99 differs by 0.2 % land on either side of the histogram's
    /// 1 600 ns bucket edge, and the bucketed estimate moves by >30 %.
    #[test]
    fn bucketed_percentiles_jump_where_exact_ones_do_not() {
        let exact_and_bucketed = |p99_value: u64| {
            let mut samples = vec![500u64; 980];
            samples.extend([p99_value; 20]);
            // One outlier, so the histogram's clamp to the observed maximum
            // does not hide the bucket midpoint.
            samples.push(10_000);
            let hist = LatencyHistogram::new();
            for &s in &samples {
                hist.record(s);
            }
            (
                percentile_of(&mut samples, 0.99) as f64,
                hist.snapshot().percentile(0.99),
            )
        };
        let (exact_lo, bucket_lo) = exact_and_bucketed(1_599);
        let (exact_hi, bucket_hi) = exact_and_bucketed(1_602);
        assert!((exact_hi - exact_lo) / exact_lo < 0.002);
        assert!(
            (bucket_hi - bucket_lo) / bucket_lo > 0.30,
            "bucketed p99 moved {bucket_lo} -> {bucket_hi}"
        );
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), 204_800);
        assert_eq!(parse_vm_hwm_kb("no such field"), 0);
        assert!(vm_hwm_mb() > 0.0, "this test runs on Linux");
    }
}
