//! LSM engine configuration and the baseline presets.

use prism_storage::DeviceProfile;
use prism_types::{Nanos, PrismError, Result};

/// Number of levels, L0 included: the paper's RocksDB shape, L0–L3 on
/// NVM and L4 on QLC flash for the `het` presets.
pub(crate) const LEVELS: usize = 5;
/// Number of L0 files past which L0 is compacted into L1.
pub(crate) const L0_FILE_LIMIT: usize = 4;
/// Growth factor between the size targets of adjacent levels.
pub(crate) const LEVEL_MULTIPLIER: u64 = 10;
/// Number of client clocks: the paper's testbed runs eight client
/// threads.
pub(crate) const CLIENTS: usize = 8;
/// The largest `expected_keys` whose sizes fit a `u64`: the presets give
/// flash 3 KB a key and NVM a fifth of that, and `het` adds the two.
const MAX_EXPECTED_KEYS: u64 = u64::MAX / 3072 * 5 / 6;

/// Which storage tier a level, file or WAL lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The fast NVM device.
    Nvm,
    /// The slow flash device (TLC or QLC).
    Flash,
}

/// Configuration of an [`crate::LsmTree`].
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Engine name reported in experiment tables.
    pub name: String,
    /// Expected number of distinct keys (used only to scale defaults).
    pub expected_keys: u64,
    /// Memtable size that triggers a flush.
    pub memtable_bytes: u64,
    /// Size target of L1; level `i` targets `level_base_bytes * 10^(i-1)`.
    pub level_base_bytes: u64,
    /// Device placement of each level, L0 to L4.
    pub placement: [Tier; LEVELS],
    /// Target size of SST files written by flushes and compactions.
    pub sst_target_bytes: u64,
    /// DRAM block-cache capacity in bytes.
    pub block_cache_bytes: u64,
    /// NVM second-level cache capacity (0 disables it; used by the
    /// `rocksdb-l2c` baseline).
    pub l2_cache_bytes: u64,
    /// Which tier the write-ahead log lives on.
    pub wal_tier: Tier,
    /// Whether every write synchronously flushes the WAL.
    pub fsync_wal: bool,
    /// Override for the WAL sync cost (SpanDB's SPDK logging bypasses the
    /// kernel and costs far less than a regular fsync).
    pub wal_sync_cost: Option<Nanos>,
    /// Extra per-operation CPU for engines that busy-poll on I/O (SpanDB).
    pub polling_overhead: Nanos,
    /// Retain block-cache-hot objects on the NVM level during compactions
    /// into flash (the paper's read-aware RocksDB prototype).
    pub read_aware_pinning: bool,
    /// Place whole SST files on NVM or flash by access temperature instead
    /// of by level (Mutant).
    pub mutant_placement: bool,
    /// Operations between Mutant placement re-evaluations.
    pub mutant_interval_ops: u64,
    /// NVM device profile.
    pub nvm_profile: DeviceProfile,
    /// Flash device profile.
    pub flash_profile: DeviceProfile,
}

impl LsmConfig {
    fn scaled_base(name: &str, expected_keys: u64) -> Self {
        // `validate` refuses a count past the clamp.
        let logical = expected_keys.clamp(1, MAX_EXPECTED_KEYS) * 1024;
        let flash_capacity = logical * 3;
        let nvm_capacity = (flash_capacity / 5).max(64 * 1024);
        let memtable = (logical / 64).clamp(64 * 1024, 64 << 20);
        LsmConfig {
            name: name.to_string(),
            expected_keys,
            memtable_bytes: memtable,
            level_base_bytes: memtable * 4,
            placement: [Tier::Flash; LEVELS],
            sst_target_bytes: (memtable / 4).max(32 * 1024),
            // The paper provisions DRAM at 1:10 of storage capacity and
            // dedicates 20% of DRAM to the block cache.
            block_cache_bytes: flash_capacity / 10 / 5,
            l2_cache_bytes: 0,
            wal_tier: Tier::Flash,
            fsync_wal: false,
            wal_sync_cost: None,
            polling_overhead: Nanos::ZERO,
            read_aware_pinning: false,
            mutant_placement: false,
            mutant_interval_ops: 5_000,
            nvm_profile: DeviceProfile::optane_nvm(nvm_capacity),
            flash_profile: DeviceProfile::qlc_flash(flash_capacity),
        }
    }

    /// RocksDB on a single storage device: every level (and the WAL) lives
    /// on `profile`.
    pub fn single_tier(expected_keys: u64, profile: DeviceProfile) -> Self {
        let mut config =
            Self::scaled_base(&format!("rocksdb-{}", profile.kind.label()), expected_keys);
        let capacity = config.flash_profile.capacity_bytes;
        let tier = match profile.kind {
            prism_storage::DeviceKind::Nvm | prism_storage::DeviceKind::Dram => Tier::Nvm,
            _ => Tier::Flash,
        };
        config.placement = [tier; LEVELS];
        config.wal_tier = tier;
        match tier {
            Tier::Nvm => {
                config.nvm_profile = profile;
                config.nvm_profile.capacity_bytes = capacity;
                config.flash_profile.capacity_bytes = 1;
            }
            Tier::Flash => {
                config.flash_profile = profile;
                config.flash_profile.capacity_bytes = capacity;
                config.nvm_profile.capacity_bytes = 1;
            }
        }
        config
    }

    /// Multi-tier RocksDB ("het"): the top levels live on NVM sized to
    /// `nvm_fraction` of total capacity, the bottom level on QLC flash.
    /// This mirrors the paper's L0–L3 on NVM, L4 on QLC split.
    pub fn het(expected_keys: u64, nvm_fraction: f64) -> Self {
        let mut config = Self::scaled_base("rocksdb-het", expected_keys);
        let total = config.flash_profile.capacity_bytes + config.nvm_profile.capacity_bytes;
        let nvm_capacity = ((total as f64 * nvm_fraction) as u64).max(64 * 1024);
        config.nvm_profile.capacity_bytes = nvm_capacity;
        config.flash_profile.capacity_bytes = total - nvm_capacity;
        config.placement[..LEVELS - 1].fill(Tier::Nvm);
        config.wal_tier = Tier::Nvm;
        // Size the NVM-resident levels (L1..L3) so together they fill at
        // most ~90 % of the NVM device; everything beyond that spills to the
        // flash-resident bottom level, mirroring the paper's ~89 % on QLC.
        let geometric_sum: u64 = (0..LEVELS as u32 - 2)
            .map(|i| LEVEL_MULTIPLIER.pow(i))
            .sum();
        config.level_base_bytes =
            ((nvm_capacity as f64 * 0.9) as u64 / geometric_sum).max(16 * 1024);
        config
    }

    /// RocksDB with NVM as a second-level read cache (`rocksdb-l2c`): all
    /// levels and the WAL live on flash; the NVM capacity only caches
    /// blocks for reads.
    pub fn l2_cache(expected_keys: u64, nvm_fraction: f64) -> Self {
        let mut config = Self::het(expected_keys, nvm_fraction);
        config.name = "rocksdb-l2c".to_string();
        config.placement = [Tier::Flash; LEVELS];
        config.wal_tier = Tier::Flash;
        config.l2_cache_bytes = config.nvm_profile.capacity_bytes;
        config
    }

    /// The paper's read-aware RocksDB prototype (`rocksdb-RA`): the het
    /// layout plus pinned compactions that keep hot objects on the NVM
    /// levels at the cost of extra compaction work.
    pub fn read_aware(expected_keys: u64, nvm_fraction: f64) -> Self {
        let mut config = Self::het(expected_keys, nvm_fraction);
        config.name = "rocksdb-ra".to_string();
        config.read_aware_pinning = true;
        config
    }

    /// Mutant: SST files are placed on NVM or flash according to their
    /// access temperature, at file granularity.
    pub fn mutant(expected_keys: u64, nvm_fraction: f64) -> Self {
        let mut config = Self::het(expected_keys, nvm_fraction);
        config.name = "mutant".to_string();
        config.placement = [Tier::Flash; LEVELS];
        config.mutant_placement = true;
        config
    }

    /// SpanDB: het placement plus an NVM WAL written through an SPDK-style
    /// path (cheap syncs) and CPU spent busy-polling for I/O completions.
    pub fn spandb(expected_keys: u64, nvm_fraction: f64) -> Self {
        let mut config = Self::het(expected_keys, nvm_fraction);
        config.name = "spandb".to_string();
        config.wal_tier = Tier::Nvm;
        config.fsync_wal = true;
        config.wal_sync_cost = Some(Nanos::from_micros(3));
        config.polling_overhead = Nanos::from_nanos(500);
        config
    }

    /// Enable or disable synchronous WAL flushes (Figure 13).
    pub fn with_fsync(mut self, enabled: bool) -> Self {
        self.fsync_wal = enabled;
        self
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] describing the problem.
    pub fn validate(&self) -> Result<()> {
        if self.expected_keys > MAX_EXPECTED_KEYS {
            return Err(PrismError::InvalidConfig(
                "expected_keys must be small enough that its sizes fit a u64".into(),
            ));
        }
        if self.memtable_bytes == 0 || self.sst_target_bytes == 0 {
            return Err(PrismError::InvalidConfig(
                "memtable and SST sizes must be non-zero".into(),
            ));
        }
        Ok(())
    }

    /// Blended storage cost per gigabyte of the devices this configuration
    /// actually uses.
    pub fn cost_per_gb(&self) -> f64 {
        let uses_nvm = self.placement.contains(&Tier::Nvm)
            || self.wal_tier == Tier::Nvm
            || self.l2_cache_bytes > 0
            || self.mutant_placement;
        let uses_flash = self.placement.contains(&Tier::Flash) || self.mutant_placement;
        let mut devices = Vec::new();
        if uses_nvm {
            devices.push((&self.nvm_profile, self.nvm_profile.capacity_bytes));
        }
        if uses_flash {
            devices.push((&self.flash_profile, self.flash_profile.capacity_bytes));
        }
        prism_storage::blended_cost_per_gb(&devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_storage::DeviceKind;

    #[test]
    fn het_places_top_levels_on_nvm() {
        let config = LsmConfig::het(10_000, 0.2);
        config.validate().unwrap();
        assert_eq!(config.placement[0], Tier::Nvm);
        assert_eq!(config.placement[LEVELS - 1], Tier::Flash);
        assert_eq!(config.wal_tier, Tier::Nvm);
        assert!(config.nvm_profile.capacity_bytes < config.flash_profile.capacity_bytes);
    }

    #[test]
    fn single_tier_uses_one_device() {
        let nvm = LsmConfig::single_tier(1_000, DeviceProfile::optane_nvm(1));
        assert!(nvm.placement.iter().all(|t| *t == Tier::Nvm));
        assert_eq!(nvm.name, "rocksdb-nvm");
        let qlc = LsmConfig::single_tier(1_000, DeviceProfile::qlc_flash(1));
        assert!(qlc.placement.iter().all(|t| *t == Tier::Flash));
        assert!(qlc.cost_per_gb() < nvm.cost_per_gb());
        let tlc = LsmConfig::single_tier(1_000, DeviceProfile::tlc_flash(1));
        assert_eq!(tlc.flash_profile.kind, DeviceKind::TlcNand);
    }

    #[test]
    fn variant_presets_set_their_distinguishing_features() {
        let l2c = LsmConfig::l2_cache(1_000, 0.2);
        assert!(l2c.l2_cache_bytes > 0);
        assert!(l2c.placement.iter().all(|t| *t == Tier::Flash));
        let ra = LsmConfig::read_aware(1_000, 0.2);
        assert!(ra.read_aware_pinning);
        let mutant = LsmConfig::mutant(1_000, 0.2);
        assert!(mutant.mutant_placement);
        let spandb = LsmConfig::spandb(1_000, 0.2);
        assert!(spandb.fsync_wal);
        assert_eq!(spandb.wal_tier, Tier::Nvm);
        assert!(spandb.wal_sync_cost.unwrap() < Nanos::from_micros(10));
        assert!(spandb.polling_overhead > Nanos::ZERO);
    }

    #[test]
    fn het_cost_sits_between_single_tiers() {
        let qlc = LsmConfig::single_tier(1_000, DeviceProfile::qlc_flash(1)).cost_per_gb();
        let nvm = LsmConfig::single_tier(1_000, DeviceProfile::optane_nvm(1)).cost_per_gb();
        let het = LsmConfig::het(1_000, 0.2).cost_per_gb();
        assert!(het > qlc && het < nvm);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut bad = LsmConfig::het(100, 0.2);
        bad.memtable_bytes = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn an_expected_keys_whose_sizes_overflow_is_refused() {
        // Flash holds 3 KB a key and NVM a fifth of that; `het` adds them.
        let sizes = |keys: u64| {
            let flash = keys.checked_mul(3072)?;
            flash.checked_add(flash / 5)
        };
        let largest = MAX_EXPECTED_KEYS;
        assert!(sizes(largest + 1).is_none());
        let config = LsmConfig::het(largest, 0.2);
        config.validate().unwrap();
        assert_eq!(
            config.nvm_profile.capacity_bytes + config.flash_profile.capacity_bytes,
            sizes(largest).unwrap()
        );
        for keys in [largest + 1, u64::MAX] {
            for config in [
                LsmConfig::het(keys, 0.2),
                LsmConfig::single_tier(keys, DeviceProfile::qlc_flash(1)),
                LsmConfig::l2_cache(keys, 0.2),
            ] {
                let refused = config.validate();
                assert!(
                    matches!(refused, Err(PrismError::InvalidConfig(_))),
                    "{keys}"
                );
                assert!(crate::LsmTree::open(config).is_err(), "{keys}");
            }
        }
    }
}
