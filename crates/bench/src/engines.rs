//! Factories for every engine configuration used in the evaluation.

use prism_compaction::CompactionPolicy;
use prism_db::{Options, PrismDb};
use prism_lsm::{LsmConfig, LsmTree};
use prism_storage::DeviceProfile;

/// PrismDB with the paper's default configuration (1:5 NVM:QLC, 20 %
/// tracker, 70 % pinning threshold, approx-MSC).
pub fn prismdb(record_count: u64) -> PrismDb {
    PrismDb::open(prism_options(record_count)).expect("valid default options")
}

/// The default PrismDB options at this scale.
pub fn prism_options(record_count: u64) -> Options {
    Options::scaled_default(record_count)
}

/// PrismDB with the NVM tier sized to `nvm_fraction` of total capacity.
pub fn prismdb_with_nvm_fraction(record_count: u64, nvm_fraction: f64) -> PrismDb {
    let mut options = prism_options(record_count);
    let total = options.nvm_capacity_bytes + options.flash_capacity_bytes;
    let nvm = ((total as f64 * nvm_fraction) as u64).max(64 * 1024);
    options.nvm_capacity_bytes = nvm;
    options.flash_capacity_bytes = total - nvm;
    PrismDb::open(options).expect("valid options")
}

/// PrismDB with a specific compaction range-selection policy (Figure 6).
pub fn prismdb_with_policy(record_count: u64, policy: CompactionPolicy) -> PrismDb {
    let mut options = prism_options(record_count);
    options.compaction.policy = policy;
    PrismDb::open(options).expect("valid options")
}

/// PrismDB with promotions (and read-triggered compactions) disabled
/// (Figure 14b).
pub fn prismdb_without_promotions(record_count: u64) -> PrismDb {
    let mut options = prism_options(record_count);
    options.read_trigger = false;
    PrismDb::open(options).expect("valid options")
}

/// PrismDB with a specific pinning threshold (Figure 14c).
pub fn prismdb_with_pinning_threshold(record_count: u64, threshold: f64) -> PrismDb {
    let mut options = prism_options(record_count);
    options.pinning_threshold = threshold;
    PrismDb::open(options).expect("valid options")
}

/// PrismDB with a specific partition count (Figure 14d).
pub fn prismdb_with_partitions(record_count: u64, partitions: usize) -> PrismDb {
    let mut options = prism_options(record_count);
    options.num_partitions = partitions;
    PrismDb::open(options).expect("valid options")
}

/// PrismDB behind a shared handle, for multi-threaded clients. The engine
/// is the same as [`prismdb`]; only the ownership changes.
pub fn prismdb_shared(record_count: u64) -> std::sync::Arc<PrismDb> {
    std::sync::Arc::new(prismdb(record_count))
}

/// Options for the read-path (cache-sharding) sweep: a configuration
/// where the DRAM cache's lock is the *only* scaling obstacle left on the
/// read path, so sharding it (or not) is what the sweep measures.
///
/// - **Range partitioning** so that a latest-style key distribution lands
///   on one hot partition — the "Zipfian-hot partition" case the sharded
///   cache exists for. The default hash partitioning would scatter the
///   hot keys and hide the per-partition lock entirely.
/// - **NVM sized for the whole dataset** so no read pays a flash access.
///   At a ~65x flash:NVM latency gap a handful of flash reads would
///   dominate the makespan and mask any lock contention.
/// - **DRAM cache sized for the hot set** (per-partition share covers the
///   partition's whole key range) so both the sharded and the mutexed
///   variant converge to the same hit rate and the comparison isolates
///   lock contention rather than capacity-split effects.
pub fn read_path_options(record_count: u64) -> Options {
    let mut options = prism_options(record_count);
    options.partitioning = prism_db::Partitioning::Range;
    // NVM is split evenly across partitions, but range partitioning over
    // a half-full id space leaves the upper partitions empty — each *live*
    // partition owns 2/num_partitions of the dataset, so the total must be
    // several times the dataset for the live partitions' shares to hold
    // their whole range without demoting the tail to flash.
    let nvm = (record_count * 1024 * 6).max(64 * 1024);
    options.nvm_capacity_bytes = nvm;
    options.dram_cache_bytes = record_count * 1024 * 2 * options.num_partitions as u64;
    options
}

/// PrismDB configured for the read-path sweep (see [`read_path_options`])
/// with the default sharded DRAM cache, behind a shared handle.
pub fn prismdb_read_path(record_count: u64) -> std::sync::Arc<PrismDb> {
    std::sync::Arc::new(PrismDb::open(read_path_options(record_count)).expect("valid options"))
}

/// PrismDB with the per-partition DRAM cache collapsed to a single
/// sub-shard (one mutex): the baseline the read-path scalability sweep
/// compares the sharded cache against. Every cache probe on a partition
/// serialises on the same lock, so the serial read residue reported via
/// `ConcurrentKvStore::shard_read_serial_times` grows with the read rate
/// instead of dividing across sub-shards. Everything else matches
/// [`prismdb_read_path`].
pub fn prismdb_mutexed_cache(record_count: u64) -> std::sync::Arc<PrismDb> {
    let mut options = read_path_options(record_count);
    options.cache_shards = 1;
    std::sync::Arc::new(PrismDb::open(options).expect("valid options"))
}

/// PrismDB with `workers` background compaction worker threads (demotions
/// and promotions run off the foreground path; writes only stall at the
/// back-pressure ceiling), behind a shared handle.
pub fn prismdb_background(record_count: u64, workers: usize) -> std::sync::Arc<PrismDb> {
    let mut options = prism_options(record_count);
    options.compaction_workers = workers;
    std::sync::Arc::new(PrismDb::open(options).expect("valid options"))
}

/// PrismDB sized so sustained writes keep demotion compactions running in
/// steady state: NVM holds roughly a third of the logical dataset instead
/// of the default 60 %. This is the configuration the background-
/// compaction sweep uses for *all* its engines (`workers == 0` is inline
/// compaction), because its signal is how compaction work interacts with
/// the foreground — with the default sizing the measured window sees too
/// few compactions to compare anything.
pub fn prismdb_write_pressured(record_count: u64, workers: usize) -> std::sync::Arc<PrismDb> {
    let mut options = prism_options(record_count);
    let nvm = (record_count * 1024 / 3).max(64 * 1024);
    options.nvm_capacity_bytes = nvm;
    options.compaction_workers = workers;
    // A wider watermark band than the paper default (98 %/95 %): at these
    // scaled-down capacities the default band is only a couple of objects
    // per partition, so a background worker has no runway before the
    // foreground climbs from the high watermark to the ceiling.
    options.high_watermark = 0.95;
    options.low_watermark = 0.88;
    std::sync::Arc::new(PrismDb::open(options).expect("valid options"))
}

/// The multi-tier RocksDB baseline behind one global lock, for
/// multi-threaded clients (see `prism_lsm::LockedLsmTree`): the
/// coarse-locked foil the thread-sweep experiment compares PrismDB's
/// per-partition locking against.
pub fn rocksdb_het_locked(record_count: u64) -> std::sync::Arc<prism_lsm::LockedLsmTree> {
    std::sync::Arc::new(rocksdb_het(record_count).into_concurrent())
}

/// RocksDB-like LSM on a single NVM (Optane-class) device.
pub fn rocksdb_nvm(record_count: u64) -> LsmTree {
    LsmTree::open(LsmConfig::single_tier(
        record_count,
        DeviceProfile::optane_nvm(1),
    ))
    .expect("valid config")
}

/// RocksDB-like LSM on a single TLC NAND device (the datacenter default the
/// paper compares against).
pub fn rocksdb_tlc(record_count: u64) -> LsmTree {
    LsmTree::open(LsmConfig::single_tier(
        record_count,
        DeviceProfile::tlc_flash(1),
    ))
    .expect("valid config")
}

/// RocksDB-like LSM on a single QLC NAND device.
pub fn rocksdb_qlc(record_count: u64) -> LsmTree {
    LsmTree::open(LsmConfig::single_tier(
        record_count,
        DeviceProfile::qlc_flash(1),
    ))
    .expect("valid config")
}

/// Multi-tier RocksDB with the paper's default 1:5 NVM:QLC split.
pub fn rocksdb_het(record_count: u64) -> LsmTree {
    rocksdb_het_fraction(record_count, 1.0 / 6.0)
}

/// Multi-tier RocksDB with the NVM tier sized to `nvm_fraction` of total
/// capacity.
pub fn rocksdb_het_fraction(record_count: u64, nvm_fraction: f64) -> LsmTree {
    LsmTree::open(LsmConfig::het(record_count, nvm_fraction)).expect("valid config")
}

/// RocksDB with NVM used as a second-level read cache.
pub fn rocksdb_l2c(record_count: u64) -> LsmTree {
    LsmTree::open(LsmConfig::l2_cache(record_count, 1.0 / 6.0)).expect("valid config")
}

/// The paper's read-aware RocksDB prototype (pinned compactions).
pub fn rocksdb_read_aware(record_count: u64) -> LsmTree {
    LsmTree::open(LsmConfig::read_aware(record_count, 1.0 / 6.0)).expect("valid config")
}

/// Mutant: file-granularity placement across tiers.
pub fn mutant(record_count: u64) -> LsmTree {
    LsmTree::open(LsmConfig::mutant(record_count, 1.0 / 6.0)).expect("valid config")
}

/// SpanDB: NVM WAL via an SPDK-style path plus top LSM levels on NVM.
pub fn spandb(record_count: u64) -> LsmTree {
    LsmTree::open(LsmConfig::spandb(record_count, 1.0 / 6.0)).expect("valid config")
}

/// Multi-tier RocksDB with fsync-on-every-write enabled (Figure 13).
pub fn rocksdb_het_fsync(record_count: u64) -> LsmTree {
    LsmTree::open(LsmConfig::het(record_count, 1.0 / 6.0).with_fsync(true)).expect("valid config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_types::{Key, KvStore, Value};

    #[test]
    fn every_factory_builds_a_working_engine() {
        let keys = 500u64;
        let mut engines: Vec<Box<dyn KvStore>> = vec![
            Box::new(prismdb(keys)),
            Box::new(prismdb_with_nvm_fraction(keys, 0.1)),
            Box::new(prismdb_with_policy(keys, CompactionPolicy::Random)),
            Box::new(prismdb_without_promotions(keys)),
            Box::new(prismdb_with_pinning_threshold(keys, 0.25)),
            Box::new(prismdb_with_partitions(keys, 2)),
            Box::new(rocksdb_nvm(keys)),
            Box::new(rocksdb_tlc(keys)),
            Box::new(rocksdb_qlc(keys)),
            Box::new(rocksdb_het(keys)),
            Box::new(rocksdb_l2c(keys)),
            Box::new(rocksdb_read_aware(keys)),
            Box::new(mutant(keys)),
            Box::new(spandb(keys)),
            Box::new(rocksdb_het_fsync(keys)),
        ];
        for engine in engines.iter_mut() {
            engine
                .put(Key::from_id(1), Value::filled(128, 1))
                .unwrap_or_else(|e| panic!("{} put failed: {e}", engine.engine_name()));
            let got = engine.get(&Key::from_id(1)).unwrap();
            assert!(got.value.is_some(), "{} lost a key", engine.engine_name());
        }
    }

    #[test]
    fn costs_reflect_tiering() {
        let keys = 500u64;
        let nvm_cost = rocksdb_nvm(keys).cost_per_gb();
        let qlc_cost = rocksdb_qlc(keys).cost_per_gb();
        let het_cost = rocksdb_het(keys).cost_per_gb();
        let prism_cost = prismdb(keys).cost_per_gb();
        assert!(nvm_cost > het_cost && het_cost > qlc_cost);
        assert!(prism_cost < nvm_cost && prism_cost > qlc_cost);
    }
}
