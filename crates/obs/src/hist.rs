//! A lock-free log-bucketed latency histogram.
//!
//! Recording is a single relaxed `fetch_add` on one of a fixed set of
//! atomic `u64` buckets, so any number of threads can record into one
//! shared histogram with no coordination beyond cache-line traffic.
//! Buckets grow geometrically by ~√2 (two buckets per octave) from
//! [`LOWEST_BOUND`] (100 ns) to past 10 s, which
//! bounds the relative error of any reported percentile by one bucket's
//! width: a reported value is within ×√2 of the true order statistic,
//! and the true value always lies inside the reported bucket's
//! `[lower, upper]` bounds (see [`HistogramSnapshot::percentile_bounds`]).
//!
//! The same histogram type serves both of the repo's time domains —
//! simulated engine [`prism_types::Nanos`] and wall-clock
//! `Instant::elapsed` nanoseconds — because both are plain `u64` ns;
//! callers keep the domains apart by metric *name*
//! (`engine_get_ns` vs `frontend_e2e_get_ns`).
//!
//! # Example
//!
//! ```
//! use prism_obs::LatencyHistogram;
//!
//! let hist = LatencyHistogram::new();
//! for v in [120, 250, 4_000, 1_000_000] {
//!     hist.record(v);
//! }
//! let snap = hist.snapshot();
//! assert_eq!(snap.count(), 4);
//! // rank(0.5) of 4 samples is index round(3 * 0.5) = 2 → 4_000 ns,
//! // and the true order statistic always lies inside the reported bucket.
//! let (lo, hi) = snap.percentile_bounds(0.5);
//! assert!(lo <= 4_000 && 4_000 <= hi);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound of the first bucket: everything at or below 100 ns lands
/// in bucket 0.
pub const LOWEST_BOUND: u64 = 100;

/// Number of finite bucket bounds. Bound `i` is `100 << (i/2)` for even
/// `i` and `141 << (i/2)` for odd `i` (141/100 ≈ √2), so consecutive
/// bounds differ by ~√2 and the last bound (`100 << 27` ≈ 13.4 s) covers
/// 10 s; anything beyond it lands in the overflow bucket (whose reported
/// representative is the recorded maximum).
pub const NUM_BOUNDS: usize = 55;

/// Total buckets: one per finite bound plus the overflow bucket.
pub(crate) const NUM_BUCKETS: usize = NUM_BOUNDS + 1;

/// Upper (inclusive) bound of finite bucket `i`.
const fn bound(i: usize) -> u64 {
    if i.is_multiple_of(2) {
        LOWEST_BOUND << (i / 2)
    } else {
        141 << (i / 2)
    }
}

const fn build_bounds() -> [u64; NUM_BOUNDS] {
    let mut bounds = [0u64; NUM_BOUNDS];
    let mut i = 0;
    while i < NUM_BOUNDS {
        bounds[i] = bound(i);
        i += 1;
    }
    bounds
}

/// Inclusive upper bounds of the finite buckets, strictly increasing.
pub const BOUNDS: [u64; NUM_BOUNDS] = build_bounds();

/// Bucket index a value of `ns` nanoseconds lands in.
#[inline]
pub(crate) fn bucket_index(ns: u64) -> usize {
    // partition_point returns the count of bounds strictly below `ns`,
    // which is exactly the first bucket whose inclusive bound covers it;
    // values beyond every finite bound fall through to the overflow
    // bucket at NUM_BOUNDS.
    BOUNDS.partition_point(|&b| b < ns)
}

/// Lock-free log-bucketed histogram of nanosecond latencies.
///
/// See the [module docs](self) for the bucket layout and error bounds.
pub struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum)
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one latency of `ns` nanoseconds. Lock-free; safe to call
    /// from any number of threads concurrently.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Shorthand for `snapshot().percentile(q)`.
    pub fn percentile(&self, q: f64) -> f64 {
        self.snapshot().percentile(q)
    }

    /// A point-in-time copy of the bucket counts. Taking a snapshot while
    /// other threads record never blocks them; a concurrent snapshot may
    /// miss in-flight samples but is always internally consistent enough
    /// for percentile queries (`count` is recomputed from the copied
    /// buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; NUM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, immutable copy of a [`LatencyHistogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`buckets[NUM_BOUNDS]` is overflow).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all recorded values, in ns.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Number of samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean recorded value in ns (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum as f64 / count as f64
    }

    /// Index of the bucket holding the rank-`q` sample, or `None` when
    /// empty. The rank is `round((count - 1) * q)` — the same
    /// nearest-rank definition the bench runner's sorted-vec oracle uses,
    /// so the oracle's value is guaranteed to lie inside the returned
    /// bucket.
    fn percentile_bucket(&self, q: f64) -> Option<usize> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Some(i);
            }
        }
        Some(NUM_BUCKETS - 1)
    }

    /// The `[lower, upper]` value bounds (ns) of the bucket holding the
    /// rank-`q` sample; the true order statistic is guaranteed to lie in
    /// this interval. Returns `(0, 0)` when empty. The overflow bucket
    /// reports `[last finite bound + 1, recorded max]`.
    pub fn percentile_bounds(&self, q: f64) -> (u64, u64) {
        let Some(i) = self.percentile_bucket(q) else {
            return (0, 0);
        };
        if i == NUM_BUCKETS - 1 {
            (
                BOUNDS[NUM_BOUNDS - 1] + 1,
                self.max.max(BOUNDS[NUM_BOUNDS - 1] + 1),
            )
        } else {
            let lower = if i == 0 { 0 } else { BOUNDS[i - 1] + 1 };
            (lower, BOUNDS[i])
        }
    }

    /// Estimated rank-`q` order statistic in ns: the midpoint of the
    /// bucket holding that rank, clamped to the observed `[min, max]`.
    /// Error is bounded by the bucket width (×√2), i.e. the estimate is
    /// within ~21 % of the true value for in-range samples. Returns 0.0
    /// when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let (lower, upper) = self.percentile_bounds(q);
        let mid = (lower as f64 + upper as f64) / 2.0;
        mid.clamp(self.min as f64, self.max as f64)
    }

    /// Render the histogram in Prometheus text exposition format
    /// (cumulative `_bucket{le=...}` series plus `_sum` and `_count`),
    /// using `name` as the metric family name.
    pub fn to_prometheus(&self, name: &str, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate().take(NUM_BOUNDS) {
            cumulative += n;
            if n > 0 || i + 1 == NUM_BOUNDS {
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", BOUNDS[i]);
            }
        }
        cumulative += self.buckets[NUM_BUCKETS - 1];
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum);
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_cover_the_range() {
        for pair in BOUNDS.windows(2) {
            assert!(pair[0] < pair[1], "bounds must increase: {pair:?}");
            let ratio = pair[1] as f64 / pair[0] as f64;
            assert!(
                (1.30..=1.55).contains(&ratio),
                "~√2 growth expected, got {ratio} at {pair:?}"
            );
        }
        assert_eq!(BOUNDS[0], LOWEST_BOUND);
        assert!(
            BOUNDS[NUM_BOUNDS - 1] >= 10_000_000_000,
            "resolves up to 10 s"
        );
    }

    #[test]
    fn bucket_index_matches_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(100), 0);
        assert_eq!(bucket_index(101), 1);
        assert_eq!(bucket_index(141), 1);
        assert_eq!(bucket_index(142), 2);
        assert_eq!(bucket_index(u64::MAX), NUM_BOUNDS);
        for (i, &b) in BOUNDS.iter().enumerate() {
            assert_eq!(bucket_index(b), i);
            assert_eq!(bucket_index(b + 1), i + 1);
        }
    }

    #[test]
    fn record_and_percentile_roundtrip() {
        let hist = LatencyHistogram::new();
        for v in 1..=1000u64 {
            hist.record(v * 1_000); // 1 µs .. 1 ms
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.min, 1_000);
        assert_eq!(snap.max, 1_000_000);
        // p50 of 1..=1000 µs is ~500 µs; the estimate must be within √2.
        let p50 = snap.percentile(0.50);
        assert!(
            (500_000.0 / 1.45..=500_000.0 * 1.45).contains(&p50),
            "{p50}"
        );
        let (lo, hi) = snap.percentile_bounds(0.50);
        assert!(lo <= 500_000 && 500_000 <= hi);
        // Percentiles are monotone in q.
        assert!(snap.percentile(0.99) >= snap.percentile(0.50));
        assert!(snap.percentile(0.999) >= snap.percentile(0.99));
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let snap = LatencyHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.percentile(0.99), 0.0);
        assert_eq!(snap.percentile_bounds(0.5), (0, 0));
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn overflow_bucket_reports_recorded_max() {
        let hist = LatencyHistogram::new();
        hist.record(30_000_000_000); // 30 s, beyond the last bound
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1);
        let (lo, hi) = snap.percentile_bounds(1.0);
        assert!(lo > BOUNDS[NUM_BOUNDS - 1]);
        assert_eq!(hi, 30_000_000_000);
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let hist = LatencyHistogram::new();
        hist.record(50);
        hist.record(150);
        hist.record(20_000_000_000);
        let mut out = String::new();
        hist.snapshot().to_prometheus("test_ns", &mut out);
        assert!(out.contains("# TYPE test_ns histogram"));
        assert!(out.contains("test_ns_bucket{le=\"100\"} 1"));
        assert!(out.contains("test_ns_bucket{le=\"200\"} 2"));
        assert!(out.contains("test_ns_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("test_ns_count 3"));
        assert!(out.contains("test_ns_sum 20000000200"));
    }
}
