//! The leveled LSM-tree engine.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use prism_flash::{encoded_size, write_run, FileId, SstBuilder, SstEntry, SstFile};
use prism_storage::{CpuCosts, Device, TieredStorage};
use prism_types::{
    BatchOp, EngineStats, Key, KvStore, Lookup, LruCache, Nanos, ReadSource, Result, ScanResult,
    Value, WriteBatch,
};

use crate::config::{LsmConfig, Tier, CLIENTS, L0_FILE_LIMIT, LEVELS, LEVEL_MULTIPLIER};
use crate::memtable::Memtable;

/// The bytes a scan took from each file it read, with the file's tier.
type FileReads = Vec<(Tier, u64)>;

/// A leveled LSM-tree key-value store with per-level (or, for Mutant,
/// per-file) device placement.
///
/// See the crate documentation for the baseline presets this engine can be
/// configured as. All timing is virtual: client operations advance per-client
/// clocks, WAL appends and memtable inserts serialize on a shared clock
/// (modelling RocksDB's group-commit bottleneck), and flushes/compactions
/// advance a background completion time that produces write stalls when the
/// foreground outruns it.
pub struct LsmTree {
    config: LsmConfig,
    storage: TieredStorage,
    cpu: CpuCosts,
    memtable: Memtable,
    levels: Vec<Vec<Arc<SstFile>>>,
    file_tiers: HashMap<FileId, Tier>,
    file_temperature: HashMap<FileId, u64>,
    compaction_cursor: [usize; LEVELS],
    block_cache: LruCache,
    /// NVM second-level cache; zero capacity (every preset but
    /// `l2_cache`) caches nothing.
    l2_cache: LruCache,
    next_file_id: FileId,
    next_timestamp: u64,
    // Virtual clocks.
    client_clocks: [Nanos; CLIENTS],
    next_client: usize,
    serial_clock: Nanos,
    bg_busy_until: Nanos,
    // Statistics: every entry but the device I/O, which `stats()` reads
    // from the devices.
    stats: EngineStats,
    ops_since_placement: u64,
}

impl LsmTree {
    /// Open an LSM tree with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`prism_types::PrismError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn open(config: LsmConfig) -> Result<Self> {
        config.validate()?;
        let storage = TieredStorage::new(config.nvm_profile, config.flash_profile);
        Ok(LsmTree {
            cpu: storage.cpu,
            memtable: Memtable::new(),
            levels: vec![Vec::new(); LEVELS],
            file_tiers: HashMap::new(),
            file_temperature: HashMap::new(),
            compaction_cursor: [0; LEVELS],
            block_cache: LruCache::new(config.block_cache_bytes),
            l2_cache: LruCache::new(config.l2_cache_bytes),
            next_file_id: 1,
            next_timestamp: 1,
            client_clocks: [Nanos::ZERO; CLIENTS],
            next_client: 0,
            serial_clock: Nanos::ZERO,
            bg_busy_until: Nanos::ZERO,
            stats: EngineStats::default(),
            ops_since_placement: 0,
            storage,
            config,
        })
    }

    /// Blended storage cost per gigabyte of the devices in use.
    pub fn cost_per_gb(&self) -> f64 {
        self.config.cost_per_gb()
    }

    fn device_for(&self, tier: Tier) -> &Arc<Device> {
        match tier {
            Tier::Nvm => &self.storage.nvm,
            Tier::Flash => &self.storage.flash,
        }
    }

    fn next_ts(&mut self) -> u64 {
        let ts = self.next_timestamp;
        self.next_timestamp += 1;
        ts
    }

    fn allocate_file_id(&mut self) -> FileId {
        let id = self.next_file_id;
        self.next_file_id += 1;
        id
    }

    fn pick_client(&mut self) -> usize {
        let client = self.next_client;
        self.next_client = (self.next_client + 1) % CLIENTS;
        client
    }

    fn level_target_bytes(&self, level: usize) -> u64 {
        self.config.level_base_bytes * LEVEL_MULTIPLIER.pow(level.saturating_sub(1) as u32)
    }

    fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.size_bytes()).sum()
    }

    fn charge_tier_time(&mut self, tier: Tier, cost: Nanos) {
        match tier {
            Tier::Nvm => self.stats.compaction.fast_tier_time += cost,
            Tier::Flash => self.stats.compaction.slow_tier_time += cost,
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// The one write path. A group commit: all entries share one WAL
    /// append (and, in fsync mode, one sync), one serialised-section
    /// reservation and one request overhead — modelling RocksDB's
    /// write-group leader paying the WAL cost for its followers. Memtable
    /// semantics are identical to applying the entries front to back. A
    /// put or a delete is a group of one.
    fn write_group(&mut self, entries: Vec<BatchOp>) -> Result<Nanos> {
        if entries.is_empty() {
            return Ok(Nanos::ZERO);
        }
        let client = self.pick_client();
        let wal_dev = self.device_for(self.config.wal_tier).clone();
        let mut wal_bytes = 0u64;
        let mut serial = Nanos::ZERO;
        for entry in &entries {
            serial += self.cpu.index_op;
            let value_bytes = match entry {
                BatchOp::Put(_, value) => value.len() as u64,
                BatchOp::Delete(_) => 0,
            };
            wal_bytes += entry.key().len() as u64 + value_bytes + 16;
        }
        serial += wal_dev.write_sequential(wal_bytes);
        if self.config.fsync_wal {
            serial += self.config.wal_sync_cost.unwrap_or_else(|| wal_dev.sync());
        }
        let arrive = self.client_clocks[client];
        let start = arrive.max(self.serial_clock);
        self.serial_clock = start + serial;
        let mut latency = (start.saturating_sub(arrive))
            + serial
            + self.cpu.request_overhead
            + self.config.polling_overhead;

        for entry in entries {
            let ts = self.next_ts();
            let (key, value) = match entry {
                BatchOp::Put(key, value) => (key, Some(value)),
                BatchOp::Delete(key) => (key, None),
            };
            self.stats.user_bytes_written += value.as_ref().map(|v| v.len() as u64).unwrap_or(0);
            self.block_cache.remove(&key);
            self.l2_cache.remove(&key);
            self.memtable.insert(key, value, ts);
        }

        if self.memtable.size_bytes() >= self.config.memtable_bytes {
            let now = arrive + latency;
            let stall = self.bg_busy_until.saturating_sub(now);
            latency += stall;
            self.stats.compaction.stall_time += stall;
            let mut background = self.flush()?;
            background += self.run_compactions()?;
            self.bg_busy_until = self.bg_busy_until.max(now + stall) + background;
        }

        self.client_clocks[client] = arrive + latency;
        self.maybe_run_mutant_placement();
        Ok(latency)
    }

    fn build_files(
        &mut self,
        entries: Vec<(Key, SstEntry)>,
        tier: Tier,
    ) -> (Vec<Arc<SstFile>>, Nanos) {
        let device = self.device_for(tier).clone();
        let target = self.config.sst_target_bytes;
        let next = || SstBuilder::new(self.allocate_file_id());
        let (files, cost) = write_run(entries, target, next, &device);
        for file in &files {
            self.file_tiers.insert(file.id(), tier);
            self.file_temperature.insert(file.id(), 0);
        }
        self.charge_tier_time(tier, cost);
        (files, cost)
    }

    fn flush(&mut self) -> Result<Nanos> {
        if self.memtable.is_empty() {
            return Ok(Nanos::ZERO);
        }
        let entries = self.memtable.drain_sorted();
        let tier = self.config.placement[0];
        let cpu = self.cpu.merge_per_object * entries.len() as u64;
        let (files, io) = self.build_files(entries, tier);
        self.levels[0].extend(files);
        self.stats.compaction.jobs += 1;
        let total = cpu + io;
        self.stats.compaction.total_time += total;
        self.charge_tier_time(tier, cpu);
        Ok(total)
    }

    fn remove_files(&mut self, level: usize, ids: &[FileId]) {
        let mut removed = Vec::new();
        self.levels[level].retain(|f| {
            if ids.contains(&f.id()) {
                removed.push(f.clone());
                false
            } else {
                true
            }
        });
        for file in removed {
            let tier = self
                .file_tiers
                .remove(&file.id())
                .unwrap_or(self.config.placement[level]);
            self.device_for(tier).release(file.size_bytes());
            self.file_temperature.remove(&file.id());
        }
    }

    fn run_compactions(&mut self) -> Result<Nanos> {
        let mut total = Nanos::ZERO;
        for _ in 0..64 {
            if self.levels[0].len() > L0_FILE_LIMIT {
                total += self.compact_into_next(0)?;
                continue;
            }
            let mut compacted = false;
            for level in 1..LEVELS - 1 {
                if self.level_bytes(level) > self.level_target_bytes(level) {
                    total += self.compact_into_next(level)?;
                    compacted = true;
                    break;
                }
            }
            if !compacted {
                break;
            }
        }
        Ok(total)
    }

    fn compact_into_next(&mut self, level: usize) -> Result<Nanos> {
        let next = level + 1;
        let inputs: Vec<Arc<SstFile>> = if level == 0 {
            self.levels[0].clone()
        } else {
            if self.levels[level].is_empty() {
                return Ok(Nanos::ZERO);
            }
            let cursor = self.compaction_cursor[level] % self.levels[level].len();
            self.compaction_cursor[level] = self.compaction_cursor[level].wrapping_add(1);
            vec![self.levels[level][cursor].clone()]
        };
        if inputs.is_empty() {
            return Ok(Nanos::ZERO);
        }
        let min_key = inputs
            .iter()
            .map(|f| f.min_key().clone())
            .min()
            .expect("non-empty inputs");
        let max_key = inputs
            .iter()
            .map(|f| f.max_key().clone())
            .max()
            .expect("non-empty inputs");
        let overlaps: Vec<Arc<SstFile>> = self.levels[next]
            .iter()
            .filter(|f| f.overlaps(&min_key, &max_key))
            .cloned()
            .collect();

        let mut duration = Nanos::ZERO;
        // Read every participating file from its device.
        for file in overlaps.iter().chain(inputs.iter()) {
            let tier = *self
                .file_tiers
                .get(&file.id())
                .unwrap_or(&self.config.placement[level]);
            let cost = self.device_for(tier).read_sequential(file.size_bytes());
            duration += cost;
            self.charge_tier_time(tier, cost);
        }

        // Merge: oldest data first so newer entries override.
        let mut merged: BTreeMap<Key, SstEntry> = BTreeMap::new();
        for file in overlaps.iter().chain(inputs.iter()) {
            for (key, entry) in file.iter() {
                merged.insert(key.clone(), entry.clone());
            }
        }
        let is_last_level = next == LEVELS - 1;
        let entries: Vec<(Key, SstEntry)> = merged
            .into_iter()
            .filter(|(_, entry)| !(is_last_level && entry.is_tombstone()))
            .collect();
        duration += self.cpu.merge_per_object * entries.len() as u64;

        // Read-aware pinning: objects that are currently hot (block-cache
        // resident) are written back to the NVM level instead of moving to
        // flash, at the cost of extra compaction output.
        let pin_back = self.config.read_aware_pinning
            && self.config.placement[level] == Tier::Nvm
            && self.config.placement[next] == Tier::Flash;
        let (pinned, moved): (Vec<_>, Vec<_>) = if pin_back {
            entries
                .into_iter()
                .partition(|(key, _)| self.block_cache.contains(key))
        } else {
            (Vec::new(), entries)
        };

        let demoted = moved.len() as u64;
        let (new_next_files, write_cost) = self.build_files(moved, self.config.placement[next]);
        duration += write_cost;
        let (pinned_files, pin_cost) = self.build_files(pinned, self.config.placement[level]);
        duration += pin_cost;

        let input_ids: Vec<FileId> = inputs.iter().map(|f| f.id()).collect();
        let overlap_ids: Vec<FileId> = overlaps.iter().map(|f| f.id()).collect();
        self.remove_files(level, &input_ids);
        self.remove_files(next, &overlap_ids);
        self.levels[next].extend(new_next_files);
        self.levels[next].sort_by(|a, b| a.min_key().cmp(b.min_key()));
        self.levels[level].extend(pinned_files);
        if level > 0 {
            self.levels[level].sort_by(|a, b| a.min_key().cmp(b.min_key()));
        }

        self.stats.compaction.jobs += 1;
        self.stats.compaction.total_time += duration;
        self.stats.compaction.demoted_objects += demoted;
        Ok(duration)
    }

    fn maybe_run_mutant_placement(&mut self) {
        if !self.config.mutant_placement {
            return;
        }
        self.ops_since_placement += 1;
        if self.ops_since_placement < self.config.mutant_interval_ops {
            return;
        }
        self.ops_since_placement = 0;

        // Rank every file by temperature and fill NVM with the hottest ones.
        let mut ranked: Vec<(FileId, u64, u64)> = self
            .levels
            .iter()
            .flatten()
            .map(|f| {
                (
                    f.id(),
                    *self.file_temperature.get(&f.id()).unwrap_or(&0),
                    f.size_bytes(),
                )
            })
            .collect();
        ranked.sort_by_key(|&(_, temperature, _)| std::cmp::Reverse(temperature));
        let mut nvm_budget = self.config.nvm_profile.capacity_bytes;
        let mut migration_cost = Nanos::ZERO;
        for (file_id, _, size) in ranked {
            let target = if size <= nvm_budget {
                nvm_budget -= size;
                Tier::Nvm
            } else {
                Tier::Flash
            };
            let current = *self.file_tiers.get(&file_id).unwrap_or(&Tier::Flash);
            if current != target {
                let read = self.device_for(current).read_sequential(size);
                let write = self.device_for(target).write_sequential(size);
                self.device_for(current).release(size);
                self.device_for(target).allocate(size);
                migration_cost += read + write;
                self.charge_tier_time(current, read);
                self.charge_tier_time(target, write);
                self.file_tiers.insert(file_id, target);
            }
        }
        if !migration_cost.is_zero() {
            self.stats.compaction.jobs += 1;
            self.stats.compaction.total_time += migration_cost;
            let now = self
                .client_clocks
                .iter()
                .copied()
                .fold(Nanos::ZERO, Nanos::max);
            self.bg_busy_until = self.bg_busy_until.max(now) + migration_cost;
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn search_levels(
        &mut self,
        key: &Key,
        cost: &mut Nanos,
    ) -> (Option<SstEntry>, ReadSource, usize) {
        for level in 0..LEVELS {
            let candidates: Vec<Arc<SstFile>> = if level == 0 {
                self.levels[0].iter().rev().cloned().collect()
            } else {
                let files = &self.levels[level];
                let idx = files.partition_point(|f| f.max_key() < key);
                files
                    .get(idx)
                    .filter(|f| f.covers(key))
                    .cloned()
                    .into_iter()
                    .collect()
            };
            for file in candidates {
                *cost += self.cpu.bloom_probe;
                let probe = file.probe(key);
                if probe.data_block_bytes > 0 {
                    let tier = *self
                        .file_tiers
                        .get(&file.id())
                        .unwrap_or(&self.config.placement[level]);
                    *cost += self.device_for(tier).read_random(probe.data_block_bytes);
                    if probe.entry.is_some() {
                        *self.file_temperature.entry(file.id()).or_insert(0) += 1;
                        let source = match tier {
                            Tier::Nvm => ReadSource::Nvm,
                            Tier::Flash => ReadSource::Flash,
                        };
                        return (probe.entry, source, level);
                    }
                }
            }
        }
        (None, ReadSource::NotFound, 0)
    }

    /// One pass of a scan's merge: up to `budget` records from `start` on
    /// out of each file and of the memtable, gathered from the deepest
    /// level up so the newest version of a key wins. The merge is exact up
    /// to the horizon, the smallest last key taken from a source that had
    /// more. Returns the first `count` live records up to it with the bytes
    /// taken from each file, in merge order, for the caller to charge; or
    /// `None` when fewer lie there and a wider budget would find more.
    fn gather(
        &self,
        start: &Key,
        count: usize,
        budget: usize,
    ) -> Option<(Vec<(Key, Value)>, FileReads)> {
        let mut merged: BTreeMap<Key, Option<Value>> = BTreeMap::new();
        let mut horizon: Option<&Key> = None;
        let mut reads = Vec::new();
        for level in (0..LEVELS).rev() {
            for file in self.levels[level].iter().filter(|f| f.max_key() >= start) {
                let mut records = file.range(start, file.max_key());
                let (mut consumed, mut last) = (0u64, None);
                for (key, entry) in records.by_ref().take(budget) {
                    consumed += encoded_size(key, entry) as u64;
                    merged.insert(key.clone(), entry.value.clone());
                    last = Some(key);
                }
                if records.next().is_some() {
                    horizon = horizon.into_iter().chain(last).min();
                }
                if consumed > 0 {
                    let tier = self.file_tiers.get(&file.id());
                    reads.push((*tier.unwrap_or(&self.config.placement[level]), consumed));
                }
            }
        }
        let mut records = self.memtable.range_from(start);
        let mut last = None;
        for (key, (value, _)) in records.by_ref().take(budget) {
            merged.insert(key.clone(), value.clone());
            last = Some(key);
        }
        if records.next().is_some() {
            horizon = horizon.into_iter().chain(last).min();
        }
        let entries: Vec<(Key, Value)> = merged
            .into_iter()
            .take_while(|(key, _)| horizon.is_none_or(|last| key <= last))
            .filter_map(|(key, value)| value.map(|value| (key, value)))
            .take(count)
            .collect();
        (entries.len() == count || horizon.is_none()).then_some((entries, reads))
    }
}

impl KvStore for LsmTree {
    fn put(&mut self, key: Key, value: Value) -> Result<Nanos> {
        self.write_group(vec![BatchOp::Put(key, value)])
    }

    fn delete(&mut self, key: &Key) -> Result<Nanos> {
        self.write_group(vec![BatchOp::Delete(key.clone())])
    }

    fn apply_batch(&mut self, batch: WriteBatch) -> Result<Nanos> {
        let entries = batch.into_entries();
        if !entries.is_empty() {
            self.stats.batch_groups += 1;
            self.stats.batch_entries += entries.len() as u64;
        }
        self.write_group(entries)
    }

    fn get(&mut self, key: &Key) -> Result<Lookup> {
        let client = self.pick_client();
        let mut cost = self.cpu.request_overhead + self.config.polling_overhead + self.cpu.index_op;
        let mut source = ReadSource::NotFound;
        let mut value: Option<Value> = None;

        if let Some((memval, _)) = self.memtable.get(key) {
            source = if memval.is_some() {
                ReadSource::Dram
            } else {
                ReadSource::NotFound
            };
            value = memval.clone();
        } else if let Some(cached) = self.block_cache.get(key) {
            cost += self.cpu.dram_hit;
            source = ReadSource::Dram;
            value = Some(cached);
        } else if let Some(cached) = self.l2_cache.get(key) {
            cost += self.storage.nvm.read_random(cached.len().max(1) as u64);
            source = ReadSource::Nvm;
            self.block_cache.insert(key.clone(), cached.clone());
            value = Some(cached);
        } else {
            let (entry, found_source, level) = self.search_levels(key, &mut cost);
            if let Some(entry) = entry {
                if let Some(found) = entry.value {
                    source = found_source;
                    self.stats.reads_per_level[level.min(7)] += 1;
                    self.block_cache.insert(key.clone(), found.clone());
                    if found_source == ReadSource::Flash {
                        self.l2_cache.insert(key.clone(), found.clone());
                    }
                    value = Some(found);
                }
            }
        }

        match source {
            ReadSource::Dram => self.stats.reads_from_dram += 1,
            ReadSource::Nvm => self.stats.reads_from_nvm += 1,
            ReadSource::Flash => self.stats.reads_from_flash += 1,
            ReadSource::NotFound => self.stats.reads_not_found += 1,
        }
        self.client_clocks[client] += cost;
        self.maybe_run_mutant_placement();
        Ok(Lookup {
            value,
            latency: cost,
            source,
        })
    }

    fn scan(&mut self, start: &Key, count: usize) -> Result<ScanResult> {
        let client = self.pick_client();
        let mut cost = self.cpu.request_overhead + self.config.polling_overhead + self.cpu.index_op;
        // Tombstones can hide any number of the first keys, so the budget
        // widens until `count` live keys lie below the horizon. Without
        // them the first pass always suffices: a source cut short gave at
        // least `budget >= count` keys up to its last one.
        let mut budget = count.saturating_mul(3);
        let (entries, reads) = loop {
            match self.gather(start, count, budget) {
                Some(found) => break found,
                None => budget = budget.saturating_mul(2),
            }
        };
        for (tier, bytes) in reads {
            cost += self.device_for(tier).read_sequential(bytes);
        }
        cost += self.cpu.merge_per_object * entries.len() as u64;
        self.client_clocks[client] += cost;
        Ok(ScanResult {
            entries,
            latency: cost,
        })
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            nvm_io: self.storage.nvm_io(),
            flash_io: self.storage.flash_io(),
            ..self.stats
        }
    }

    fn elapsed(&self) -> Nanos {
        let client_max = self
            .client_clocks
            .iter()
            .copied()
            .fold(Nanos::ZERO, Nanos::max);
        client_max.max(self.serial_clock).max(self.bg_busy_until)
    }

    fn engine_name(&self) -> &str {
        &self.config.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_storage::DeviceProfile;

    fn small_het(keys: u64) -> LsmTree {
        let mut config = LsmConfig::het(keys, 0.2);
        config.memtable_bytes = 32 * 1024;
        config.sst_target_bytes = 16 * 1024;
        LsmTree::open(config).unwrap()
    }

    #[test]
    fn put_get_roundtrip_through_memtable_and_levels() {
        let mut db = small_het(2_000);
        for id in 0..2_000u64 {
            db.put(Key::from_id(id), Value::filled(500, (id % 200) as u8))
                .unwrap();
        }
        // Data must have been flushed into SST files.
        assert!(db.levels.iter().any(|level| !level.is_empty()));
        for id in (0..2_000u64).step_by(37) {
            let got = db.get(&Key::from_id(id)).unwrap();
            assert!(got.value.is_some(), "key {id} missing");
        }
        assert!(db.get(&Key::from_id(99_999)).unwrap().value.is_none());
    }

    #[test]
    fn updates_and_deletes_take_precedence_over_older_levels() {
        let mut db = small_het(1_000);
        for id in 0..1_000u64 {
            db.put(Key::from_id(id), Value::filled(400, 1)).unwrap();
        }
        db.put(Key::from_id(5), Value::filled(400, 99)).unwrap();
        db.delete(&Key::from_id(6)).unwrap();
        // Push the new versions down through flushes.
        for id in 1_000..2_000u64 {
            db.put(Key::from_id(id), Value::filled(400, 1)).unwrap();
        }
        assert_eq!(
            db.get(&Key::from_id(5)).unwrap().value.unwrap().as_bytes()[0],
            99
        );
        assert!(db.get(&Key::from_id(6)).unwrap().value.is_none());
    }

    #[test]
    fn compactions_move_data_to_flash_in_het_config() {
        let mut db = small_het(4_000);
        for id in 0..4_000u64 {
            db.put(Key::from_id(id), Value::filled(900, 1)).unwrap();
        }
        let stats = db.stats();
        assert!(stats.compaction.jobs > 0);
        assert!(
            stats.flash_io.bytes_written > 0,
            "bottom level lives on flash so compactions must write flash"
        );
        assert!(stats.flash_write_amplification() > 0.0);
        assert!(db.elapsed() > Nanos::ZERO);
    }

    #[test]
    fn single_tier_configs_only_touch_their_device() {
        let mut nvm_db = {
            let mut c = LsmConfig::single_tier(1_000, DeviceProfile::optane_nvm(1));
            c.memtable_bytes = 16 * 1024;
            LsmTree::open(c).unwrap()
        };
        for id in 0..1_000u64 {
            nvm_db.put(Key::from_id(id), Value::filled(500, 1)).unwrap();
        }
        let stats = nvm_db.stats();
        assert!(stats.nvm_io.bytes_written > 0);
        assert_eq!(stats.flash_io.bytes_written, 0);

        let mut qlc_db = {
            let mut c = LsmConfig::single_tier(1_000, DeviceProfile::qlc_flash(1));
            c.memtable_bytes = 16 * 1024;
            LsmTree::open(c).unwrap()
        };
        for id in 0..1_000u64 {
            qlc_db.put(Key::from_id(id), Value::filled(500, 1)).unwrap();
        }
        let stats = qlc_db.stats();
        assert_eq!(stats.nvm_io.bytes_written, 0);
        assert!(stats.flash_io.bytes_written > 0);
        // Same work, slower device: QLC takes longer.
        assert!(qlc_db.elapsed() > nvm_db.elapsed());
    }

    #[test]
    fn fsync_wal_slows_writes_down() {
        let mk = |fsync: bool| {
            let mut c = LsmConfig::het(1_000, 0.2).with_fsync(fsync);
            c.memtable_bytes = 64 * 1024;
            LsmTree::open(c).unwrap()
        };
        let mut with_fsync = mk(true);
        let mut without = mk(false);
        for id in 0..500u64 {
            with_fsync
                .put(Key::from_id(id), Value::filled(300, 1))
                .unwrap();
            without
                .put(Key::from_id(id), Value::filled(300, 1))
                .unwrap();
        }
        assert!(with_fsync.elapsed() > without.elapsed());
    }

    #[test]
    fn block_cache_serves_repeated_reads_from_dram() {
        let mut db = small_het(2_000);
        for id in 0..2_000u64 {
            db.put(Key::from_id(id), Value::filled(500, 1)).unwrap();
        }
        let first = db.get(&Key::from_id(1500)).unwrap();
        let second = db.get(&Key::from_id(1500)).unwrap();
        assert!(second.latency <= first.latency);
        assert_eq!(second.source, ReadSource::Dram);
    }

    #[test]
    fn l2_cache_variant_uses_nvm_for_repeated_flash_reads() {
        let mut config = LsmConfig::l2_cache(2_000, 0.2);
        config.memtable_bytes = 32 * 1024;
        config.sst_target_bytes = 16 * 1024;
        config.block_cache_bytes = 4 * 1024; // tiny DRAM cache to force L2 hits
        let mut db = LsmTree::open(config).unwrap();
        for id in 0..2_000u64 {
            db.put(Key::from_id(id), Value::filled(800, 1)).unwrap();
        }
        // Read a spread of keys twice: the second pass should hit the NVM L2
        // cache for keys the small DRAM cache already evicted.
        for _ in 0..2 {
            for id in (0..2_000u64).step_by(10) {
                db.get(&Key::from_id(id)).unwrap();
            }
        }
        assert!(
            db.stats().reads_from_nvm > 0,
            "L2 cache never served a read"
        );
    }

    #[test]
    fn mutant_placement_moves_hot_files_to_nvm() {
        let mut config = LsmConfig::mutant(2_000, 0.3);
        config.memtable_bytes = 32 * 1024;
        config.sst_target_bytes = 16 * 1024;
        config.mutant_interval_ops = 500;
        let mut db = LsmTree::open(config).unwrap();
        for id in 0..2_000u64 {
            db.put(Key::from_id(id), Value::filled(800, 1)).unwrap();
        }
        // Hammer a narrow key range so its files heat up.
        for _ in 0..2_000 {
            for id in 0..20u64 {
                db.get(&Key::from_id(id)).unwrap();
            }
        }
        let nvm_files = db.file_tiers.values().filter(|t| **t == Tier::Nvm).count();
        assert!(nvm_files > 0, "mutant never promoted a file to NVM");
    }

    #[test]
    fn scan_merges_levels_and_memtable() {
        let mut db = small_het(2_000);
        for id in 0..2_000u64 {
            db.put(Key::from_id(id), Value::filled(300, 1)).unwrap();
        }
        db.put(Key::from_id(150), Value::filled(300, 77)).unwrap();
        let result = db.scan(&Key::from_id(100), 100).unwrap();
        assert_eq!(result.entries.len(), 100);
        let ids: Vec<u64> = result.entries.iter().map(|(k, _)| k.id()).collect();
        assert_eq!(ids, (100..200).collect::<Vec<_>>());
        let updated = result.entries.iter().find(|(k, _)| k.id() == 150).unwrap();
        assert_eq!(updated.1.as_bytes()[0], 77);

        // Tombstones in front of the start key must not hide the live
        // keys behind them, whether those sit in the memtable or in the
        // levels.
        let first_live = |db: &mut LsmTree| -> Vec<u64> {
            for id in 0..3u64 {
                db.delete(&Key::from_id(id)).unwrap();
            }
            let result = db.scan(&Key::min(), 1).unwrap();
            result.entries.iter().map(|(k, _)| k.id()).collect()
        };
        let mut in_memtable = small_het(100);
        for id in 0..100u64 {
            in_memtable
                .put(Key::from_id(id), Value::filled(64, 1))
                .unwrap();
        }
        assert!(in_memtable.levels.iter().all(Vec::is_empty));
        assert_eq!(first_live(&mut in_memtable), vec![3]);
        let mut in_levels = small_het(2_000);
        for id in 0..2_000u64 {
            in_levels
                .put(Key::from_id(id), Value::filled(64, 1))
                .unwrap();
        }
        assert!(in_levels.levels.iter().any(|level| !level.is_empty()));
        assert_eq!(first_live(&mut in_levels), vec![3]);
    }

    /// A key that sorts above eight `0xFF` bytes is scanned from the
    /// levels as from the memtable.
    #[test]
    fn scan_returns_keys_above_the_largest_id_from_the_levels() {
        let mut db = small_het(2_000);
        let high = |i: u64| Key::from_bytes([[0xFF; 8], i.to_be_bytes()].concat());
        for i in 0..2_000u64 {
            db.put(high(i), Value::filled(300, 1)).unwrap();
        }
        assert!(db.levels.iter().any(|level| !level.is_empty()));
        let result = db.scan(&Key::min(), 2_000).unwrap();
        let keys: Vec<Key> = result.entries.into_iter().map(|(key, _)| key).collect();
        assert_eq!(keys, (0..2_000).map(high).collect::<Vec<_>>());
    }

    #[test]
    fn single_writes_cost_what_one_entry_batches_do() {
        let mut direct = small_het(2_000);
        let mut batched = small_het(2_000);
        for i in 0..4_000u64 {
            let key = Key::from_id(i * 7 % 2_000);
            let mut batch = WriteBatch::new();
            if i % 5 == 4 {
                direct.delete(&key).unwrap();
                batch.delete(key);
            } else {
                direct
                    .put(key.clone(), Value::filled(300, i as u8))
                    .unwrap();
                batch.put(key, Value::filled(300, i as u8));
            }
            batched.apply_batch(batch).unwrap();
        }
        assert_eq!(direct.elapsed(), batched.elapsed());
        let (direct, batched) = (direct.stats(), batched.stats());
        assert!(direct.compaction.jobs > 0);
        assert_eq!((direct.batch_groups, direct.batch_entries), (0, 0));
        assert_eq!(
            (batched.batch_groups, batched.batch_entries),
            (4_000, 4_000)
        );
        let uncounted = EngineStats {
            batch_groups: 0,
            batch_entries: 0,
            ..batched
        };
        assert_eq!(direct, uncounted);
    }

    #[test]
    fn read_aware_variant_does_more_compaction_work() {
        let run = |read_aware: bool| {
            let mut config = if read_aware {
                LsmConfig::read_aware(3_000, 0.2)
            } else {
                LsmConfig::het(3_000, 0.2)
            };
            config.memtable_bytes = 32 * 1024;
            config.sst_target_bytes = 16 * 1024;
            let mut db = LsmTree::open(config).unwrap();
            for id in 0..3_000u64 {
                db.put(Key::from_id(id), Value::filled(700, 1)).unwrap();
            }
            // Interleave reads (heating the cache) with more writes.
            for round in 0..3u64 {
                for id in 0..200u64 {
                    db.get(&Key::from_id(id)).unwrap();
                }
                for id in 0..1_500u64 {
                    db.put(Key::from_id(id), Value::filled(700, round as u8))
                        .unwrap();
                }
            }
            db.stats().compaction.total_time
        };
        let plain = run(false);
        let read_aware = run(true);
        assert!(
            read_aware >= plain,
            "read-aware pinning should not reduce compaction work (ra {read_aware}, plain {plain})"
        );
    }
}
