//! The bucket map behind the approx-MSC metric (§6 of the paper).
//!
//! The key-id space is divided into fixed-width buckets (64 K keys each in
//! the paper, matching the average number of keys in an SST file). Every
//! bucket keeps three bitmaps: popularity, NVM residency and flash
//! residency; the paper's count of NVM-resident keys is the NVM bitmap's
//! population count. Puts, gets, tracker evictions, compactions and
//! deletes update these in `O(1)`, and a candidate range's statistics are
//! estimated as a weighted sum over the buckets it overlaps.

use std::collections::BTreeMap;

use crate::msc::RangeStats;

#[derive(Debug, Clone)]
struct Bucket {
    pop: Vec<u64>,
    nvm: Vec<u64>,
    flash: Vec<u64>,
}

impl Bucket {
    fn new(bucket_size: u64) -> Self {
        let words = (bucket_size as usize).div_ceil(64);
        Bucket {
            pop: vec![0; words],
            nvm: vec![0; words],
            flash: vec![0; words],
        }
    }

    fn set(bits: &mut [u64], offset: u64, value: bool) {
        let word = (offset / 64) as usize;
        let bit = offset % 64;
        if value {
            bits[word] |= 1 << bit;
        } else {
            bits[word] &= !(1 << bit);
        }
    }

    fn count(bits: &[u64]) -> u64 {
        bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    fn count_and(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x & y).count_ones() as u64)
            .sum()
    }
}

/// Per-bucket approximate statistics over the key-id space.
///
/// See the module documentation; the public methods correspond one-to-one
/// to the events the paper's implementation hooks (puts, gets, tracker
/// evictions, compaction demotions/promotions and deletes).
#[derive(Debug, Clone)]
pub struct BucketMap {
    bucket_size: u64,
    buckets: BTreeMap<u64, Bucket>,
}

impl BucketMap {
    /// Create a bucket map with `bucket_size` keys per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_size` is zero.
    pub fn new(bucket_size: u64) -> Self {
        assert!(bucket_size > 0, "bucket size must be non-zero");
        BucketMap {
            bucket_size,
            buckets: BTreeMap::new(),
        }
    }

    /// The configured bucket width in keys.
    pub fn bucket_size(&self) -> u64 {
        self.bucket_size
    }

    fn bucket_mut(&mut self, key_id: u64) -> (&mut Bucket, u64) {
        let idx = key_id / self.bucket_size;
        let offset = key_id % self.bucket_size;
        (
            self.buckets
                .entry(idx)
                .or_insert_with(|| Bucket::new(self.bucket_size)),
            offset,
        )
    }

    /// A key was written to NVM (fresh insert of this key on NVM).
    pub fn on_nvm_insert(&mut self, key_id: u64) {
        let (bucket, offset) = self.bucket_mut(key_id);
        Bucket::set(&mut bucket.nvm, offset, true);
    }

    /// A key left NVM (demoted by compaction or deleted).
    pub fn on_nvm_remove(&mut self, key_id: u64) {
        let (bucket, offset) = self.bucket_mut(key_id);
        Bucket::set(&mut bucket.nvm, offset, false);
    }

    /// A key was read or updated (popular for approximation purposes).
    pub fn on_access(&mut self, key_id: u64) {
        let (bucket, offset) = self.bucket_mut(key_id);
        Bucket::set(&mut bucket.pop, offset, true);
    }

    /// A key was evicted from the tracker (no longer popular).
    pub fn on_tracker_evict(&mut self, key_id: u64) {
        let (bucket, offset) = self.bucket_mut(key_id);
        Bucket::set(&mut bucket.pop, offset, false);
    }

    /// A version of this key now exists on flash (written by compaction).
    pub fn on_flash_insert(&mut self, key_id: u64) {
        let (bucket, offset) = self.bucket_mut(key_id);
        Bucket::set(&mut bucket.flash, offset, true);
    }

    /// No version of this key remains on flash (deleted or fully promoted).
    pub fn on_flash_remove(&mut self, key_id: u64) {
        let (bucket, offset) = self.bucket_mut(key_id);
        Bucket::set(&mut bucket.flash, offset, false);
    }

    /// Whether `other` has the same bucket width and the same NVM and flash
    /// bits, bucket for bucket; popularity bits are not compared.
    pub fn same_residency(&self, other: &BucketMap) -> bool {
        fn residency(map: &BucketMap) -> impl Iterator<Item = (&u64, &Vec<u64>, &Vec<u64>)> {
            let held = map.buckets.iter();
            let held = held.filter(|(_, b)| b.nvm.iter().chain(&b.flash).any(|w| *w != 0));
            held.map(|(idx, b)| (idx, &b.nvm, &b.flash))
        }
        self.bucket_size == other.bucket_size && residency(self).eq(residency(other))
    }

    /// Estimate how many popular objects live *only* on flash in the range
    /// `[start_id, end_id]` — the quantity promotion-oriented compactions
    /// maximise when choosing a range (§5.3 of the paper).
    pub fn popular_flash_only_objects(&self, start_id: u64, end_id: u64) -> f64 {
        if end_id < start_id {
            return 0.0;
        }
        let first_bucket = start_id / self.bucket_size;
        let last_bucket = end_id / self.bucket_size;
        let mut total = 0.0;
        for (idx, bucket) in self.buckets.range(first_bucket..=last_bucket) {
            let bucket_start = idx * self.bucket_size;
            // The last bucket is cut short by the largest id.
            let bucket_end = bucket_start.saturating_add(self.bucket_size - 1);
            let span = (bucket_end - bucket_start + 1) as f64;
            let overlap_start = start_id.max(bucket_start);
            let overlap_end = end_id.min(bucket_end);
            let weight = (overlap_end - overlap_start + 1) as f64 / span;
            let count: u64 = bucket
                .pop
                .iter()
                .zip(bucket.flash.iter())
                .zip(bucket.nvm.iter())
                .map(|((p, f), n)| (p & f & !n).count_ones() as u64)
                .sum();
            total += weight * count as f64;
        }
        total
    }

    /// Estimate the statistics of the candidate range `[start_id, end_id]`
    /// (inclusive). `avg_coldness_of_popular` is the coldness assigned to
    /// popular keys (cold keys always count 1.0); the engine passes the
    /// value implied by the current pinning threshold, or simply 0.25
    /// (clock 3).
    pub fn estimate(&self, start_id: u64, end_id: u64, avg_coldness_of_popular: f64) -> RangeStats {
        if end_id < start_id {
            return RangeStats::empty();
        }
        let first_bucket = start_id / self.bucket_size;
        let last_bucket = end_id / self.bucket_size;

        let mut nvm_objects = 0.0;
        let mut flash_objects = 0.0;
        let mut popular_nvm = 0.0;
        let mut overlapping = 0.0;

        for (idx, bucket) in self.buckets.range(first_bucket..=last_bucket) {
            let bucket_start = idx * self.bucket_size;
            // The last bucket is cut short by the largest id.
            let bucket_end = bucket_start.saturating_add(self.bucket_size - 1);
            let span = (bucket_end - bucket_start + 1) as f64;
            let overlap_start = start_id.max(bucket_start);
            let overlap_end = end_id.min(bucket_end);
            let weight = (overlap_end - overlap_start + 1) as f64 / span;

            let nvm_keys = Bucket::count(&bucket.nvm) as f64;
            let flash_keys = Bucket::count(&bucket.flash) as f64;
            let popular_and_nvm = Bucket::count_and(&bucket.pop, &bucket.nvm) as f64;
            let nvm_and_flash = Bucket::count_and(&bucket.nvm, &bucket.flash) as f64;

            nvm_objects += weight * nvm_keys;
            flash_objects += weight * flash_keys;
            popular_nvm += weight * popular_and_nvm;
            overlapping += weight * nvm_and_flash;
        }

        if nvm_objects <= 0.0 {
            return RangeStats::empty();
        }
        let cold_nvm = (nvm_objects - popular_nvm).max(0.0);
        let benefit = cold_nvm + popular_nvm * avg_coldness_of_popular.clamp(0.0, 1.0);
        RangeStats {
            nvm_objects,
            flash_objects,
            benefit,
            popular_fraction: (popular_nvm / nvm_objects).clamp(0.0, 1.0),
            overlap_fraction: if flash_objects > 0.0 {
                (overlapping / flash_objects).clamp(0.0, 1.0)
            } else {
                0.0
            },
            fanout: flash_objects / nvm_objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msc::msc_score;

    #[test]
    fn insert_remove_population() {
        let mut b = BucketMap::new(100);
        for id in 0..250u64 {
            b.on_nvm_insert(id);
        }
        let all = b.estimate(0, 299, 0.25);
        assert!((all.nvm_objects - 250.0).abs() < 1e-6);
        for id in 0..50u64 {
            b.on_nvm_remove(id);
        }
        let all = b.estimate(0, 299, 0.25);
        assert!((all.nvm_objects - 200.0).abs() < 1e-6);
    }

    #[test]
    fn popularity_and_overlap_fractions() {
        let mut b = BucketMap::new(100);
        for id in 0..100u64 {
            b.on_nvm_insert(id);
        }
        for id in 0..25u64 {
            b.on_access(id);
        }
        for id in 50..150u64 {
            b.on_flash_insert(id);
        }
        let stats = b.estimate(0, 99, 0.25);
        assert!((stats.popular_fraction - 0.25).abs() < 1e-6);
        // 100 flash keys in bucket 0..100? only ids 50..100 fall in bucket 0,
        // the rest land in bucket 1 which is outside the estimate range... but
        // bucket-level weighting counts the whole bucket contents scaled by
        // range overlap; range [0,99] covers bucket 0 fully.
        assert!((stats.flash_objects - 50.0).abs() < 1e-6);
        // All 50 flash keys in bucket 0 are also on NVM.
        assert!((stats.overlap_fraction - 1.0).abs() < 1e-6);
        assert!((stats.fanout - 0.5).abs() < 1e-6);
    }

    #[test]
    fn partial_bucket_overlap_uses_weights() {
        // Reproduces the paper's Figure 8 example: bucket size 100, range
        // [25, 125]: 75% of bucket 0 and 25% of bucket 1 (inclusive ends
        // shift the numbers slightly; we check the weighting logic).
        let mut b = BucketMap::new(100);
        for id in 0..200u64 {
            b.on_nvm_insert(id);
        }
        let stats = b.estimate(25, 124, 0.25);
        // weight 0.75 * 100 + 0.25 * 100 = 100 keys estimated.
        assert!((stats.nvm_objects - 100.0).abs() < 1e-6);
    }

    #[test]
    fn tracker_eviction_cools_keys() {
        let mut b = BucketMap::new(64);
        for id in 0..64u64 {
            b.on_nvm_insert(id);
            b.on_access(id);
        }
        let hot = b.estimate(0, 63, 0.25);
        for id in 0..64u64 {
            b.on_tracker_evict(id);
        }
        let cooled = b.estimate(0, 63, 0.25);
        assert!(cooled.benefit > hot.benefit);
        assert!(msc_score(&cooled) > msc_score(&hot));
    }

    #[test]
    fn flash_remove_clears_overlap() {
        let mut b = BucketMap::new(64);
        b.on_nvm_insert(5);
        b.on_flash_insert(5);
        assert!((b.estimate(0, 63, 0.25).overlap_fraction - 1.0).abs() < 1e-6);
        b.on_flash_remove(5);
        assert_eq!(b.estimate(0, 63, 0.25).overlap_fraction, 0.0);
    }

    #[test]
    fn popular_flash_only_counts_promotion_candidates() {
        let mut b = BucketMap::new(64);
        // Keys 0..10 are popular and on flash only: promotion candidates.
        for id in 0..10u64 {
            b.on_flash_insert(id);
            b.on_access(id);
        }
        // Keys 10..20 are popular but already on NVM.
        for id in 10..20u64 {
            b.on_nvm_insert(id);
            b.on_access(id);
        }
        // Keys 20..30 are on flash but cold.
        for id in 20..30u64 {
            b.on_flash_insert(id);
        }
        assert!((b.popular_flash_only_objects(0, 63) - 10.0).abs() < 1e-6);
        assert_eq!(b.popular_flash_only_objects(63, 0), 0.0);
    }

    #[test]
    fn same_residency_ignores_popularity_and_emptied_buckets() {
        let (mut kept, mut rebuilt) = (BucketMap::new(64), BucketMap::new(64));
        kept.on_nvm_insert(3);
        rebuilt.on_nvm_insert(3);
        kept.on_access(200);
        kept.on_flash_insert(500);
        kept.on_flash_remove(500);
        assert!(kept.same_residency(&rebuilt));
        rebuilt.on_flash_insert(3);
        assert!(!kept.same_residency(&rebuilt));
        assert!(!BucketMap::new(64).same_residency(&BucketMap::new(128)));
    }

    /// A bucket size that does not divide 2^64 leaves the last bucket
    /// short: a range up to the largest id counts its keys in full, and
    /// part of it the share of the ids it spans.
    #[test]
    fn the_last_bucket_ends_at_the_largest_id() {
        let mut b = BucketMap::new(1_000);
        b.on_nvm_insert(u64::MAX);
        b.on_flash_insert(u64::MAX - 1);
        b.on_access(u64::MAX - 1);
        let stats = b.estimate(0, u64::MAX, 0.25);
        assert_eq!((stats.nvm_objects, stats.flash_objects), (1.0, 1.0));
        assert_eq!(b.popular_flash_only_objects(0, u64::MAX), 1.0);
        let popular = b.popular_flash_only_objects(u64::MAX - 5, u64::MAX);
        assert!((popular - 6.0 / 616.0).abs() < 1e-12, "{popular}");
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let b = BucketMap::new(128);
        assert_eq!(b.estimate(0, 1000, 0.25), RangeStats::empty());
        let mut b = BucketMap::new(128);
        b.on_nvm_insert(1);
        assert_eq!(b.estimate(500, 100, 0.25), RangeStats::empty());
    }

    #[test]
    #[should_panic(expected = "bucket size")]
    fn zero_bucket_size_panics() {
        let _ = BucketMap::new(0);
    }
}
