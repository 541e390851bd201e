//! Engine configuration.

use std::sync::Arc;

use prism_compaction::CompactionConfig;
use prism_obs::ObsHub;
use prism_storage::FaultPlan;
use prism_types::{PrismError, Result};

/// How keys are assigned to partitions.
///
/// The paper uses hash partitioning for workloads with load skew and range
/// partitioning for scan-heavy workloads (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Hash of the key id; spreads skewed and append-only workloads evenly.
    Hash,
    /// Contiguous key-id ranges; keeps scans within few partitions.
    Range,
}

/// Configuration of a [`crate::PrismDb`] instance.
///
/// The defaults mirror the paper's evaluation setup (§7): a 1:5 NVM:QLC
/// capacity ratio, tracker sized at 20 % of the key space, a 70 % pinning
/// threshold, 98 %/95 % NVM watermarks and the approx-MSC compaction policy
/// with power-of-8 candidate selection.
///
/// Use [`Options::builder`] for fluent construction:
///
/// ```
/// use prism_db::Options;
///
/// let options = Options::builder(100_000)
///     .nvm_capacity(64 << 20)
///     .flash_capacity(320 << 20)
///     .partitions(4)
///     .build()
///     .unwrap();
/// assert_eq!(options.num_partitions, 4);
/// ```
#[derive(Debug, Clone)]
pub struct Options {
    /// Number of shared-nothing partitions (each with its own worker and
    /// compaction accounting), at most 1 024.
    pub num_partitions: usize,
    /// Expected number of distinct keys; used for range partitioning and
    /// for sizing the tracker.
    pub expected_keys: u64,
    /// NVM (fast tier) capacity in bytes: sizes the slabs and the
    /// Optane-class device [`crate::PrismDb::open`] creates (hence
    /// utilisation and cost).
    pub nvm_capacity_bytes: u64,
    /// Flash (slow tier) capacity in bytes: sizes the QLC-class device
    /// [`crate::PrismDb::open`] creates.
    pub flash_capacity_bytes: u64,
    /// How keys are assigned to partitions.
    pub partitioning: Partitioning,
    /// Bytes of DRAM used as an object cache (stand-in for the OS page
    /// cache the paper relies on). Like a page cache it is write-update:
    /// reads fill it, an update replaces a cached key's value in place
    /// (and caches nothing new), a delete removes the key. Unlike a page
    /// cache it weighs what a miss would cost: a value flash served to a
    /// key the tracker tracks is priced at a flash read, every other one
    /// at an NVM read, and eviction keeps the dearer (GreedyDual; the
    /// prices are the devices' `read_latency_4k`).
    pub dram_cache_bytes: u64,
    /// Number of independently locked sub-shards each partition's DRAM
    /// cache is split into (key-hash → sub-cache), so concurrent point
    /// reads of one partition need not serialise on one lock. The
    /// effective count is reduced for tiny cache capacities.
    pub cache_shards: usize,
    /// Pinning threshold: the fraction a demotion job retains on NVM of
    /// the objects NVM holds at `low_watermark`, capped at the tracked
    /// objects (the paper's 0.7 of the tracked objects, §7). It governs
    /// demotion jobs only: a read-triggered promotion job pins up to all
    /// of what NVM holds there, capped at the tracked keys whose clock is
    /// above 0.
    pub pinning_threshold: f64,
    /// NVM utilisation that triggers a demotion compaction (0.98).
    pub high_watermark: f64,
    /// NVM utilisation at which compaction stops freeing space (0.95).
    pub low_watermark: f64,
    /// How compaction requests are dispatched: the number of pool worker
    /// threads, shared by all partitions, that serve them. There is one
    /// compaction pipeline either way (same trigger, same demotion
    /// escalation, same job runner). `0` (the default) runs each request
    /// on the client thread that raised it, under the write lock it holds,
    /// so a write that trips the high watermark waits for its demotion —
    /// the paper's write stalls. With workers the request is queued, the
    /// write returns, and only a write that reaches
    /// [`Options::backpressure_ceiling`] stalls.
    pub compaction_workers: usize,
    /// Hard NVM utilisation ceiling while requests are queued to a worker
    /// pool: a foreground write that leaves utilisation at or above this
    /// value does not wait for a worker. It frees the space on its own
    /// thread with an urgent demotion run, the one a slab write with no
    /// room runs, and is charged the wait for the partition's background
    /// timeline as stall time. Must lie in `(high_watermark, 1.0]`. Not
    /// consulted with `compaction_workers == 0`, where the request has
    /// already run by the time the write ends.
    pub backpressure_ceiling: f64,
    /// Target size of one SST file written by compaction.
    pub sst_target_bytes: u64,
    /// Compaction policy and candidate-selection configuration.
    pub compaction: CompactionConfig,
    /// Read-triggered compactions (§5.3), with the paper's thresholds, a
    /// detection window scaled to `expected_keys`, and epochs that close
    /// on 10 000 reads served by NVM or flash. `false` turns promotion off
    /// altogether: no read-triggered promotion jobs, and no promotion
    /// hints riding on demotions.
    pub read_trigger: bool,
    /// Deterministic storage fault-injection plan shared by both devices
    /// and the data layers above them; `None` (the default) runs
    /// fault-free.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Number of distinct corrupt objects a partition quarantines before
    /// it flips into read-only degraded mode (writes refused with the
    /// retryable `Degraded` error until a scrub pass comes back clean).
    pub corruption_quarantine_threshold: u64,
    /// Per-pass I/O budget of the background scrubber, in bytes of slab
    /// and SST data walked; a pass that exhausts the budget resumes where
    /// it left off on the next pass.
    pub scrub_io_budget_bytes: u64,
    /// Steady background scrub cadence: in background-compaction mode,
    /// after every `scrub_interval_ops` client operations the engine
    /// enqueues a scrub pass for the next partition (round-robin) — but
    /// only while the worker pool's queue is idle, so scrubbing rides the
    /// pool's idle budget and never delays compactions. `0` disables the
    /// cadence (scrubs then run only on demand or after corruption is
    /// observed).
    pub scrub_interval_ops: u64,
    /// Maximum age of a pinned snapshot, measured in commits allocated
    /// after the pin. Exceeding it aborts the oldest pin with
    /// `SnapshotExpired` and frees its preserved history. `0` disables
    /// the cap.
    pub max_pin_age_ops: u64,
    /// Maximum bytes of superseded-version history preserved for pinned
    /// snapshots across all partitions. Exceeding it aborts the oldest
    /// pin and frees its history. `0` disables the cap.
    pub max_history_bytes: u64,
    /// Shared observability hub: per-tier read / compaction / scrub
    /// latency histograms land in its registry and engine lifecycle
    /// events (compaction pipeline, quarantine flips, snapshot expiry,
    /// back-pressure) in its trace buffer. `None` (the default) gives the
    /// engine a private hub — instrumentation always runs, it is just
    /// not externally visible.
    pub obs: Option<Arc<ObsHub>>,
}

impl Options {
    /// Start building options for a database expected to hold
    /// `expected_keys` distinct keys.
    pub fn builder(expected_keys: u64) -> OptionsBuilder {
        OptionsBuilder {
            options: Options::scaled_default(expected_keys),
        }
    }

    /// Defaults scaled to `expected_keys` 1 KB objects with the paper's
    /// 1:5 NVM:flash ratio.
    pub fn scaled_default(expected_keys: u64) -> Self {
        // `validate` refuses a count whose sizes overflow.
        let flash_capacity = scaled_flash_bytes(expected_keys).unwrap_or(u64::MAX);
        let nvm_capacity = (flash_capacity / 5).max(64 * 1024);
        Options {
            num_partitions: 8,
            expected_keys,
            nvm_capacity_bytes: nvm_capacity,
            flash_capacity_bytes: flash_capacity,
            partitioning: Partitioning::Hash,
            // The paper provisions DRAM at a 1:10 ratio to storage capacity.
            dram_cache_bytes: flash_capacity / 10,
            cache_shards: 8,
            pinning_threshold: 0.7,
            high_watermark: 0.98,
            low_watermark: 0.95,
            compaction_workers: 0,
            backpressure_ceiling: 0.995,
            sst_target_bytes: 256 * 1024,
            compaction: CompactionConfig {
                bucket_size_keys: (expected_keys / 64).clamp(256, 65_536),
                ..CompactionConfig::default()
            },
            read_trigger: true,
            fault_plan: None,
            corruption_quarantine_threshold: 8,
            scrub_io_budget_bytes: 4 << 20,
            scrub_interval_ops: 100_000,
            max_pin_age_ops: 0,
            max_history_bytes: 0,
            obs: None,
        }
    }

    /// Tracker capacity in keys, derived from the expected key count.
    pub(crate) fn tracker_capacity(&self) -> usize {
        /// The popularity tracker covers this fraction of `expected_keys`
        /// (0.2 in §7 of the paper; no experiment sweeps it).
        const TRACKER_FRACTION: f64 = 0.2;
        ((self.expected_keys as f64 * TRACKER_FRACTION) as usize).max(16)
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] describing the first invalid
    /// field found.
    pub fn validate(&self) -> Result<()> {
        if self.num_partitions == 0 || self.num_partitions > 1024 {
            return Err(PrismError::InvalidConfig(
                "num_partitions must be in [1, 1024]".into(),
            ));
        }
        if self.expected_keys == 0 || scaled_flash_bytes(self.expected_keys).is_none() {
            return Err(PrismError::InvalidConfig(
                "expected_keys must be non-zero and small enough that its sizes fit a u64".into(),
            ));
        }
        if self.nvm_capacity_bytes == 0 || self.flash_capacity_bytes == 0 {
            return Err(PrismError::InvalidConfig(
                "tier capacities must be non-zero".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.pinning_threshold) {
            return Err(PrismError::InvalidConfig(
                "pinning threshold must be in [0, 1]".into(),
            ));
        }
        if !(0.0 < self.low_watermark
            && self.low_watermark < self.high_watermark
            && self.high_watermark <= 1.0)
        {
            return Err(PrismError::InvalidConfig(
                "watermarks must satisfy 0 < low < high <= 1".into(),
            ));
        }
        // The ceiling is only consulted when requests are queued to a pool,
        // so configs without workers (e.g. a high watermark above the
        // default ceiling) stay valid.
        if self.compaction_workers > 0
            && !(self.high_watermark < self.backpressure_ceiling
                && self.backpressure_ceiling <= 1.0)
        {
            return Err(PrismError::InvalidConfig(
                "backpressure ceiling must satisfy high_watermark < ceiling <= 1".into(),
            ));
        }
        if self.compaction_workers > 64 {
            return Err(PrismError::InvalidConfig(
                "more than 64 compaction workers is not supported".into(),
            ));
        }
        if self.sst_target_bytes == 0 {
            return Err(PrismError::InvalidConfig(
                "sst_target_bytes must be non-zero".into(),
            ));
        }
        if self.corruption_quarantine_threshold == 0 {
            return Err(PrismError::InvalidConfig(
                "corruption_quarantine_threshold must be non-zero".into(),
            ));
        }
        if self.scrub_io_budget_bytes == 0 {
            return Err(PrismError::InvalidConfig(
                "scrub_io_budget_bytes must be non-zero".into(),
            ));
        }
        if self.cache_shards == 0 || self.cache_shards > 1024 {
            return Err(PrismError::InvalidConfig(
                "cache_shards must be in [1, 1024]".into(),
            ));
        }
        self.compaction.validate()?;
        Ok(())
    }
}

/// The flash bytes [`Options::scaled_default`] provisions for
/// `expected_keys` 1 KB objects (three times their size; NVM gets a
/// fifth), or `None` past `u64`: every other size derived from the count
/// is smaller.
fn scaled_flash_bytes(expected_keys: u64) -> Option<u64> {
    expected_keys.max(1).checked_mul(1024)?.checked_mul(3)
}

/// Fluent builder for [`Options`].
#[derive(Debug, Clone)]
pub struct OptionsBuilder {
    options: Options,
}

impl OptionsBuilder {
    /// Set the number of partitions.
    pub fn partitions(mut self, n: usize) -> Self {
        self.options.num_partitions = n;
        self
    }

    /// Set the NVM capacity in bytes.
    pub fn nvm_capacity(mut self, bytes: u64) -> Self {
        self.options.nvm_capacity_bytes = bytes;
        self
    }

    /// Set the flash capacity in bytes.
    pub fn flash_capacity(mut self, bytes: u64) -> Self {
        self.options.flash_capacity_bytes = bytes;
        self
    }

    /// Set the DRAM object-cache size.
    pub fn dram_cache(mut self, bytes: u64) -> Self {
        self.options.dram_cache_bytes = bytes;
        self
    }

    /// Attach a deterministic storage fault-injection plan.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.options.fault_plan = Some(plan);
        self
    }

    /// Finish building.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] if the resulting options are
    /// invalid.
    pub fn build(self) -> Result<Options> {
        self.options.validate()?;
        Ok(self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_defaults_are_valid_and_keep_paper_ratios() {
        let options = Options::scaled_default(100_000);
        options.validate().unwrap();
        assert_eq!(options.num_partitions, 8);
        assert!((options.pinning_threshold - 0.7).abs() < 1e-9);
        assert_eq!(options.nvm_capacity_bytes * 5, options.flash_capacity_bytes);
        assert_eq!(options.tracker_capacity(), 20_000);
    }

    #[test]
    fn builder_overrides_fields() {
        let options = Options::builder(1000)
            .partitions(2)
            .nvm_capacity(1 << 20)
            .flash_capacity(5 << 20)
            .dram_cache(1 << 16)
            .build()
            .unwrap();
        assert_eq!(options.num_partitions, 2);
        assert_eq!(options.nvm_capacity_bytes, 1 << 20);
        assert_eq!(options.flash_capacity_bytes, 5 << 20);
        assert_eq!(options.dram_cache_bytes, 1 << 16);
        assert_eq!(options.tracker_capacity(), 200);
    }

    /// Whether the scaled defaults with one `change` fail validation.
    fn rejected(change: impl FnOnce(&mut Options)) -> bool {
        let mut options = Options::scaled_default(100);
        change(&mut options);
        options.validate().is_err()
    }

    #[test]
    fn invalid_options_are_rejected() {
        assert!(Options::builder(0).build().is_err());
        assert!(Options::builder(100).partitions(0).build().is_err());
        assert!(rejected(|o| o.num_partitions = 1025));
        assert!(rejected(|o| o.num_partitions = usize::MAX));
        assert!(Options::builder(100).nvm_capacity(0).build().is_err());
        assert!(rejected(|o| o.pinning_threshold = 1.5));
        assert!(rejected(|o| o.low_watermark = 0.99));
        assert!(rejected(|o| o.sst_target_bytes = 0));
        assert!(rejected(|o| o.corruption_quarantine_threshold = 0));
        assert!(rejected(|o| o.scrub_io_budget_bytes = 0));
        assert!(rejected(|o| o.cache_shards = 0));
        assert!(rejected(|o| o.cache_shards = 2048));
    }

    #[test]
    fn an_expected_keys_whose_sizes_overflow_is_refused() {
        let largest = u64::MAX / 3072;
        let options = Options::builder(largest).build().unwrap();
        assert_eq!(options.flash_capacity_bytes, largest * 3072);
        for keys in [largest + 1, u64::MAX] {
            let refused = Options::builder(keys).build();
            assert!(
                matches!(refused, Err(PrismError::InvalidConfig(_))),
                "{keys}"
            );
        }
    }

    #[test]
    fn read_path_and_robustness_knobs_default_as_documented() {
        let defaults = Options::scaled_default(1000);
        assert_eq!(defaults.cache_shards, 8);
        assert_eq!(defaults.scrub_interval_ops, 100_000);
        assert!(defaults.fault_plan.is_none());
        assert_eq!(defaults.max_pin_age_ops, 0);
        assert_eq!(defaults.max_history_bytes, 0);
        let plan = Arc::new(FaultPlan::new(7));
        let options = Options::builder(1000).fault_plan(plan).build().unwrap();
        assert!(options.fault_plan.is_some());
    }

    #[test]
    fn background_compaction_knobs_validate() {
        let mut options = Options::scaled_default(1000);
        options.compaction_workers = 2;
        options.backpressure_ceiling = 0.999;
        options.validate().unwrap();
        // Defaults: inline compaction, ceiling above the high watermark.
        let defaults = Options::scaled_default(1000);
        assert_eq!(defaults.compaction_workers, 0);
        assert!(defaults.backpressure_ceiling > defaults.high_watermark);
        // The ceiling must sit strictly above the high watermark — but
        // only in background mode; inline-only configs never consult it.
        let mut bad = Options::scaled_default(100);
        bad.compaction_workers = 2;
        bad.backpressure_ceiling = bad.high_watermark;
        assert!(bad.validate().is_err());
        bad.compaction_workers = 0;
        assert!(bad.validate().is_ok());
        // ...and the worker count is sanity-bounded.
        assert!(rejected(|o| o.compaction_workers = 1000));
    }
}
