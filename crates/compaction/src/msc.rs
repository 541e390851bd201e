//! The MSC cost-benefit metric (Equation 1 of the paper).

/// Statistics describing one candidate compaction key range.
///
/// These can be computed exactly ([`RangeStatsBuilder`], used by the
/// precise-MSC policy) or approximately from bucket counters
/// ([`crate::BucketMap::estimate`], used by approx-MSC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeStats {
    /// Number of NVM objects in the range (`t_n`).
    pub nvm_objects: f64,
    /// Number of flash objects in the overlapping SST files (`t_f`).
    pub flash_objects: f64,
    /// Sum of coldness scores of the NVM objects (the benefit term).
    pub benefit: f64,
    /// Fraction of NVM objects that are popular / pinned (`p`).
    pub popular_fraction: f64,
    /// Fraction of flash objects that also appear in the NVM range (`o`).
    pub overlap_fraction: f64,
    /// Fanout `F = t_f / t_n`.
    pub fanout: f64,
}

impl RangeStats {
    /// An empty range (scores zero).
    pub fn empty() -> Self {
        RangeStats {
            nvm_objects: 0.0,
            flash_objects: 0.0,
            benefit: 0.0,
            popular_fraction: 0.0,
            overlap_fraction: 0.0,
            fanout: 0.0,
        }
    }

    /// The flash I/O cost per migrated object: `F · (2 − o) / (1 − p) + 1`.
    ///
    /// Returns `f64::INFINITY` when nothing can be migrated (every object
    /// in the range is popular).
    pub(crate) fn cost(&self) -> f64 {
        let unpopular = 1.0 - self.popular_fraction;
        if unpopular <= f64::EPSILON {
            return f64::INFINITY;
        }
        self.fanout * (2.0 - self.overlap_fraction) / unpopular + 1.0
    }
}

/// The multi-tiered storage compaction score: benefit / cost.
///
/// Higher scores identify ranges that free more cold data per unit of flash
/// I/O. Empty or fully-popular ranges score zero.
pub fn msc_score(stats: &RangeStats) -> f64 {
    if stats.nvm_objects <= 0.0 || stats.benefit <= 0.0 {
        return 0.0;
    }
    let cost = stats.cost();
    if !cost.is_finite() {
        return 0.0;
    }
    stats.benefit / cost
}

/// Coldness of an object given its clock value (`None` = untracked).
///
/// `coldness = 1 / (clock + 1)`; untracked objects are maximally cold.
pub(crate) fn coldness(clock: Option<u8>) -> f64 {
    match clock {
        Some(c) => 1.0 / (c as f64 + 1.0),
        None => 1.0,
    }
}

/// Incrementally builds exact [`RangeStats`] for the precise-MSC policy by
/// walking every object in a candidate range.
#[derive(Debug, Default, Clone)]
pub struct RangeStatsBuilder {
    nvm_objects: u64,
    popular_objects: u64,
    benefit: f64,
    flash_objects: u64,
    overlapping_flash_objects: u64,
}

impl RangeStatsBuilder {
    /// Start building.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one NVM object with its clock value and whether the pinning
    /// threshold would keep it on NVM.
    pub fn add_nvm_object(&mut self, clock: Option<u8>, pinned: bool) {
        self.nvm_objects += 1;
        if pinned {
            self.popular_objects += 1;
        }
        self.benefit += coldness(clock);
    }

    /// Record one flash object in the overlapping SST files, and whether the
    /// same key also exists in the NVM range.
    pub fn add_flash_object(&mut self, overlaps_nvm: bool) {
        self.flash_objects += 1;
        if overlaps_nvm {
            self.overlapping_flash_objects += 1;
        }
    }

    /// Number of objects walked so far (NVM + flash); the engine uses this
    /// to charge the CPU cost that makes precise-MSC slow.
    pub fn objects_examined(&self) -> u64 {
        self.nvm_objects + self.flash_objects
    }

    /// Finish and produce the statistics.
    pub fn build(self) -> RangeStats {
        let nvm = self.nvm_objects as f64;
        let flash = self.flash_objects as f64;
        RangeStats {
            nvm_objects: nvm,
            flash_objects: flash,
            benefit: self.benefit,
            popular_fraction: if nvm > 0.0 {
                self.popular_objects as f64 / nvm
            } else {
                0.0
            },
            overlap_fraction: if flash > 0.0 {
                self.overlapping_flash_objects as f64 / flash
            } else {
                0.0
            },
            fanout: if nvm > 0.0 { flash / nvm } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coldness_matches_paper_formula() {
        assert_eq!(coldness(Some(0)), 1.0);
        assert_eq!(coldness(Some(1)), 0.5);
        assert_eq!(coldness(Some(3)), 0.25);
        assert_eq!(coldness(None), 1.0);
    }

    #[test]
    fn cost_matches_paper_formula() {
        // F = 5, o = 0.5, p = 0.25 -> 5 * 1.5 / 0.75 + 1 = 11.
        let stats = RangeStats {
            nvm_objects: 100.0,
            flash_objects: 500.0,
            benefit: 80.0,
            popular_fraction: 0.25,
            overlap_fraction: 0.5,
            fanout: 5.0,
        };
        assert!((stats.cost() - 11.0).abs() < 1e-9);
        assert!((msc_score(&stats) - 80.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn fully_popular_range_scores_zero() {
        let stats = RangeStats {
            nvm_objects: 10.0,
            flash_objects: 50.0,
            benefit: 2.5,
            popular_fraction: 1.0,
            overlap_fraction: 0.0,
            fanout: 5.0,
        };
        assert!(stats.cost().is_infinite());
        assert_eq!(msc_score(&stats), 0.0);
    }

    #[test]
    fn empty_range_scores_zero() {
        assert_eq!(msc_score(&RangeStats::empty()), 0.0);
    }

    #[test]
    fn builder_produces_exact_fractions() {
        let mut b = RangeStatsBuilder::new();
        // 4 NVM objects: 1 pinned hot (clock 3), 3 cold untracked.
        b.add_nvm_object(Some(3), true);
        b.add_nvm_object(None, false);
        b.add_nvm_object(None, false);
        b.add_nvm_object(Some(0), false);
        // 8 flash objects, 2 overlapping.
        for i in 0..8 {
            b.add_flash_object(i < 2);
        }
        assert_eq!(b.objects_examined(), 12);
        let stats = b.build();
        assert!((stats.nvm_objects - 4.0).abs() < 1e-9);
        assert!((stats.flash_objects - 8.0).abs() < 1e-9);
        assert!((stats.popular_fraction - 0.25).abs() < 1e-9);
        assert!((stats.overlap_fraction - 0.25).abs() < 1e-9);
        assert!((stats.fanout - 2.0).abs() < 1e-9);
        assert!((stats.benefit - (0.25 + 1.0 + 1.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn score_prefers_low_fanout_ranges() {
        let narrow = RangeStats {
            nvm_objects: 100.0,
            flash_objects: 100.0,
            benefit: 60.0,
            popular_fraction: 0.3,
            overlap_fraction: 0.5,
            fanout: 1.0,
        };
        let wide = RangeStats {
            fanout: 10.0,
            flash_objects: 1000.0,
            ..narrow
        };
        assert!(msc_score(&narrow) > msc_score(&wide));
    }
}
