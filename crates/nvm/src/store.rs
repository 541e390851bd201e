//! The per-partition collection of slab files.
//!
//! Every slot write stores a [`Version`] as it is: [`SlabStore::insert`]
//! and [`SlabStore::update`] checksum a client's value first, and
//! [`SlabStore::insert_version`] takes a tombstone or a promoted record
//! with the checksum it already carries. An attached [`FaultPlan`]
//! corrupts the stored version after that, through
//! [`InjectedFault::damage`] — the routine the SST builder calls too — so
//! a seeded fault damages a slot exactly as it would an SST record.

use std::sync::Arc;

use prism_storage::{Device, FaultOp, FaultPlan, FaultTier, InjectedFault};
use prism_types::{Key, Nanos, PrismError, Result, Value, Version};

use crate::slab::{SlabFile, SlotEntry};
use crate::NvmAddress;

/// Maximum object size PrismDB supports (one atomically-written 4 KB page,
/// §6 of the paper).
pub const MAX_OBJECT_SIZE: usize = 4096;

/// Configuration of a [`SlabStore`].
#[derive(Debug, Clone)]
pub struct SlabConfig {
    /// Slot sizes of the slab files, ascending. An object is placed in the
    /// smallest slab whose slot size fits it.
    pub slot_sizes: Vec<u32>,
    /// NVM capacity (bytes) this store may consume.
    pub capacity_bytes: u64,
}

impl SlabConfig {
    /// The paper's small-object configuration: size classes from 128 B up
    /// to the 4 KB maximum, roughly doubling (100 B, 200 B, ... 1 KB in the
    /// paper; powers of two here).
    pub fn small_objects(capacity_bytes: u64) -> Self {
        SlabConfig {
            slot_sizes: vec![128, 256, 512, 1024, 2048, 4096],
            capacity_bytes,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.slot_sizes.is_empty() {
            return Err(PrismError::InvalidConfig(
                "slab store needs at least one slot size".into(),
            ));
        }
        if self.slot_sizes.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PrismError::InvalidConfig(
                "slab slot sizes must be strictly ascending".into(),
            ));
        }
        if self.slot_sizes.len() > u8::MAX as usize {
            return Err(PrismError::InvalidConfig(
                "at most 255 slab size classes are supported".into(),
            ));
        }
        if self.capacity_bytes == 0 {
            return Err(PrismError::InvalidConfig(
                "slab store capacity must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// A snapshot of slab-store space usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabUsage {
    /// Bytes consumed by allocated slots (live + reusable free slots).
    pub used_bytes: u64,
    /// Bytes consumed by live slots only (what the watermark logic cares
    /// about, since freed slots are immediately reusable).
    pub live_bytes: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of live objects.
    pub live_objects: usize,
}

impl SlabUsage {
    /// Live data as a fraction of configured capacity. This is the quantity
    /// compared against the high/low watermarks (98 %/95 % in the paper).
    pub fn utilization(&self) -> f64 {
        self.live_bytes as f64 / self.capacity_bytes.max(1) as f64
    }
}

/// The NVM object store of one partition: a set of slab files plus capacity
/// accounting against the shared NVM device.
#[derive(Debug)]
pub struct SlabStore {
    slabs: Vec<SlabFile>,
    device: Arc<Device>,
    capacity_bytes: u64,
    used_bytes: u64,
    live_slot_bytes: u64,
    live_objects: usize,
    fault: Option<Arc<FaultPlan>>,
    partition: usize,
}

impl SlabStore {
    /// Create a slab store.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] if the configuration is
    /// malformed (empty or non-ascending size classes, zero capacity).
    pub fn new(config: SlabConfig, device: Arc<Device>) -> Result<Self> {
        config.validate()?;
        let slabs = config
            .slot_sizes
            .iter()
            .map(|&s| SlabFile::new(s))
            .collect();
        Ok(SlabStore {
            slabs,
            device,
            capacity_bytes: config.capacity_bytes,
            used_bytes: 0,
            live_slot_bytes: 0,
            live_objects: 0,
            fault: None,
            partition: 0,
        })
    }

    /// Attach a fault-injection plan: writes may be corrupted or fail, and
    /// reads may fail, per the plan's rates and armed one-shot faults.
    /// `partition` gives the plan (and corruption errors) their context.
    pub fn attach_faults(&mut self, plan: Arc<FaultPlan>, partition: usize) {
        self.fault = Some(plan);
        self.partition = partition;
    }

    /// Roll the attached plan for one slab op; returns any extra latency.
    ///
    /// Write-path corruption (bit flip / torn write) is applied to the
    /// slot's `version` *after* its checksums were computed, so the damage
    /// is real: a later read sees content that no longer matches them, and
    /// a demotion carries the mismatch to flash.
    fn roll_fault(
        &self,
        op: FaultOp,
        version: Option<&mut Version>,
        addr: impl std::fmt::Display,
    ) -> Result<Nanos> {
        let Some(plan) = &self.fault else {
            return Ok(Nanos::ZERO);
        };
        let payload = version.as_ref().map_or(0, |v| v.value_len());
        match plan.roll(FaultTier::Nvm, self.partition, op, payload) {
            None => Ok(Nanos::ZERO),
            Some(InjectedFault::IoError) => Err(PrismError::Io(format!(
                "injected nvm {op:?} fault at {addr} (partition {})",
                self.partition
            ))),
            Some(InjectedFault::LatencySpike(extra)) => Ok(extra),
            Some(corruption) => {
                if let Some(version) = version {
                    corruption.damage(version);
                }
                Ok(Nanos::ZERO)
            }
        }
    }

    fn slab_for(&self, size: usize) -> Result<u8> {
        if size > MAX_OBJECT_SIZE {
            return Err(PrismError::ObjectTooLarge {
                size,
                max: MAX_OBJECT_SIZE,
            });
        }
        self.slabs
            .iter()
            .position(|s| s.slot_size() as usize >= size)
            .map(|i| i as u8)
            .ok_or(PrismError::ObjectTooLarge {
                size,
                max: self
                    .slabs
                    .last()
                    .map(|s| s.slot_size() as usize)
                    .unwrap_or(0),
            })
    }

    /// The slot size in bytes an object with a `value_len`-byte value
    /// occupies (its size class). Group-commit accounting uses this to
    /// tally the bytes a batch of slot writes transfers.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::ObjectTooLarge`] if no size class fits.
    pub fn slot_bytes_for(&self, value_len: usize) -> Result<u64> {
        let idx = self.slab_for(value_len)?;
        Ok(self.slabs[idx as usize].slot_size() as u64)
    }

    /// Insert a fresh value version, returning its address and the
    /// simulated NVM write cost.
    ///
    /// # Errors
    ///
    /// * [`PrismError::ObjectTooLarge`] if the value exceeds 4 KB.
    /// * [`PrismError::CapacityExceeded`] if the store is full; the caller
    ///   (the engine) is expected to trigger a compaction and retry.
    pub fn insert(
        &mut self,
        key: Key,
        value: Value,
        timestamp: u64,
    ) -> Result<(NvmAddress, Nanos)> {
        self.insert_version(key, Version::value(value, timestamp))
    }

    /// Insert a version that already has its checksum — a delete
    /// tombstone, or a flash record being promoted — as it is, without
    /// reading the value to checksum it again (errors as
    /// [`SlabStore::insert`]).
    pub fn insert_version(&mut self, key: Key, version: Version) -> Result<(NvmAddress, Nanos)> {
        let slab_idx = self.room_for(version.value_len())?;
        self.place(slab_idx, SlotEntry::new(key, version))
    }

    /// The size class a `value_len`-byte object goes to, if a slot of it
    /// fits the capacity.
    fn room_for(&self, value_len: usize) -> Result<u8> {
        let slab_idx = self.slab_for(value_len)?;
        let slot_size = self.slabs[slab_idx as usize].slot_size() as u64;
        // Capacity is enforced against *live* bytes: freed slots are
        // immediately reusable, and slots freed in one size class are
        // treated as reclaimable headroom for another (a real slab
        // allocator shrinks or repurposes slab files over time).
        if self.live_slot_bytes + slot_size > self.capacity_bytes {
            return Err(PrismError::CapacityExceeded {
                tier: "nvm",
                needed: slot_size,
                available: self.capacity_bytes.saturating_sub(self.live_slot_bytes),
            });
        }
        Ok(slab_idx)
    }

    /// Write `entry` into a free slot of slab `slab_idx`, which
    /// [`SlabStore::room_for`] chose.
    fn place(&mut self, slab_idx: u8, mut entry: SlotEntry) -> Result<(NvmAddress, Nanos)> {
        let slot_size = self.slabs[slab_idx as usize].slot_size() as u64;
        let key_id = entry.key.id();
        let extra = self.roll_fault(
            FaultOp::Write,
            Some(&mut entry.version),
            format_args!("key {key_id}"),
        )?;
        let reused_slot = {
            let slab = &mut self.slabs[slab_idx as usize];
            let before = slab.allocated_slots();
            let slot = slab.insert(entry);
            let grew = slab.allocated_slots() > before;
            if grew {
                self.used_bytes += slot_size;
                self.device.allocate(slot_size);
            }
            slot
        };
        self.live_objects += 1;
        self.live_slot_bytes += slot_size;
        let cost = self.device.write_random(slot_size) + extra;
        Ok((NvmAddress::new(slab_idx, reused_slot), cost))
    }

    /// Update the object at `addr`. If the new value still fits the slot's
    /// size class the update happens in place; otherwise the object moves
    /// to a different slab file and a new address is returned.
    ///
    /// # Errors
    ///
    /// Same as [`SlabStore::insert`], plus [`PrismError::Corruption`] if
    /// `addr` does not refer to a live slot.
    pub fn update(
        &mut self,
        addr: NvmAddress,
        key: &Key,
        value: Value,
        timestamp: u64,
    ) -> Result<(NvmAddress, Nanos)> {
        let new_slab = self.slab_for(value.len())?;
        if new_slab == addr.slab {
            let slot_size = self.slabs[addr.slab as usize].slot_size() as u64;
            let mut entry = SlotEntry::new(key.clone(), Version::value(value, timestamp));
            let extra = self.roll_fault(FaultOp::Write, Some(&mut entry.version), addr)?;
            let ok = self.slabs[addr.slab as usize].update_in_place(addr.slot, entry);
            if !ok {
                return Err(PrismError::Corruption(format!(
                    "update of empty nvm slot {addr}"
                )));
            }
            let cost = self.device.write_random(slot_size) + extra;
            Ok((addr, cost))
        } else {
            // Size class changed: the paper deletes the old slot and inserts
            // into the new slab file. We insert first so that an
            // out-of-space failure leaves the previous version intact, then
            // free the old slot.
            let inserted = self.insert(key.clone(), value, timestamp)?;
            self.remove(addr)?;
            Ok(inserted)
        }
    }

    /// Read the object stored at `addr`, verifying its checksums.
    ///
    /// # Errors
    ///
    /// * [`PrismError::Corruption`] if the address does not refer to a live
    ///   slot (a stale index entry) or the slot fails its checksum.
    /// * [`PrismError::Io`] for an injected read fault.
    pub fn read(&self, addr: NvmAddress) -> Result<(&SlotEntry, Nanos)> {
        let extra = self.roll_fault(FaultOp::Read, None, addr)?;
        let slab = self
            .slabs
            .get(addr.slab as usize)
            .ok_or_else(|| PrismError::Corruption(format!("unknown slab in address {addr}")))?;
        let entry = slab
            .get(addr.slot)
            .ok_or_else(|| PrismError::Corruption(format!("read of empty nvm slot {addr}")))?;
        let cost = self.device.read_random(slab.slot_size() as u64) + extra;
        if !entry.verify() {
            return Err(PrismError::Corruption(format!(
                "nvm slot {addr} failed checksum (partition {}, key {}, ts {})",
                self.partition,
                entry.key.id(),
                entry.version.timestamp
            )));
        }
        Ok((entry, cost))
    }

    /// Look at the object stored at `addr` without charging device time
    /// (used by compaction planning, which the paper serves from DRAM
    /// metadata).
    pub fn peek(&self, addr: NvmAddress) -> Option<&SlotEntry> {
        self.slabs.get(addr.slab as usize)?.get(addr.slot)
    }

    /// Free the slot at `addr`, returning the entry that was stored there.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::Corruption`] for a stale address.
    pub fn remove(&mut self, addr: NvmAddress) -> Result<SlotEntry> {
        let slab = self
            .slabs
            .get_mut(addr.slab as usize)
            .ok_or_else(|| PrismError::Corruption(format!("unknown slab in address {addr}")))?;
        let slot_size = slab.slot_size() as u64;
        let entry = slab
            .remove(addr.slot)
            .ok_or_else(|| PrismError::Corruption(format!("remove of empty nvm slot {addr}")))?;
        self.live_objects -= 1;
        self.live_slot_bytes -= slot_size;
        Ok(entry)
    }

    /// Space usage snapshot.
    pub fn usage(&self) -> SlabUsage {
        SlabUsage {
            used_bytes: self.used_bytes,
            live_bytes: self.live_slot_bytes,
            capacity_bytes: self.capacity_bytes,
            live_objects: self.live_objects,
        }
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.live_objects
    }

    /// Iterate over every live object as `(address, entry)` — the recovery
    /// scan the paper performs to rebuild the B-tree index after a crash.
    pub fn scan(&self) -> impl Iterator<Item = (NvmAddress, &SlotEntry)> {
        self.slabs.iter().enumerate().flat_map(|(slab_idx, slab)| {
            slab.iter()
                .map(move |(slot, entry)| (NvmAddress::new(slab_idx as u8, slot), entry))
        })
    }

    /// The simulated cost of the recovery scan: one sequential read of all
    /// allocated slab bytes.
    pub fn recovery_scan_cost(&self) -> Nanos {
        self.device.read_sequential(self.used_bytes.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_storage::DeviceProfile;

    fn store(capacity: u64) -> SlabStore {
        let device = Arc::new(Device::new(DeviceProfile::optane_nvm(capacity * 2)));
        SlabStore::new(SlabConfig::small_objects(capacity), device).unwrap()
    }

    #[test]
    fn insert_read_roundtrip_and_size_classes() {
        let mut s = store(1 << 20);
        let (a_small, _) = s.insert(Key::from_id(1), Value::filled(100, 1), 1).unwrap();
        let (a_big, _) = s
            .insert(Key::from_id(2), Value::filled(3000, 2), 2)
            .unwrap();
        assert_eq!(a_small.slab, 0, "100B object goes to the 128B slab");
        assert_eq!(a_big.slab, 5, "3000B object goes to the 4096B slab");
        assert_eq!(s.read(a_small).unwrap().0.key.id(), 1);
        assert_eq!(s.read(a_big).unwrap().0.version.value_len(), 3000);
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.usage().used_bytes, 128 + 4096);
    }

    #[test]
    fn oversized_objects_are_rejected() {
        let mut s = store(1 << 20);
        let err = s
            .insert(Key::from_id(1), Value::filled(5000, 0), 1)
            .unwrap_err();
        assert!(matches!(err, PrismError::ObjectTooLarge { .. }));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut s = store(1024);
        // 1024-byte capacity fits exactly eight 128-byte slots.
        for i in 0..8 {
            s.insert(Key::from_id(i), Value::filled(100, 0), i).unwrap();
        }
        let err = s
            .insert(Key::from_id(99), Value::filled(100, 0), 99)
            .unwrap_err();
        assert!(matches!(
            err,
            PrismError::CapacityExceeded { tier: "nvm", .. }
        ));
        // Freeing a slot makes room again without growing used bytes.
        let addr = NvmAddress::new(0, 3);
        s.remove(addr).unwrap();
        s.insert(Key::from_id(99), Value::filled(100, 0), 100)
            .unwrap();
        assert_eq!(s.usage().used_bytes, 1024);
    }

    #[test]
    fn in_place_update_vs_reclassified_update() {
        let mut s = store(1 << 20);
        let (addr, _) = s.insert(Key::from_id(7), Value::filled(200, 1), 1).unwrap();
        let (same, _) = s
            .update(addr, &Key::from_id(7), Value::filled(220, 2), 2)
            .unwrap();
        assert_eq!(same, addr, "same size class updates in place");
        let (moved, _) = s
            .update(addr, &Key::from_id(7), Value::filled(900, 3), 3)
            .unwrap();
        assert_ne!(moved.slab, addr.slab, "larger object moves slabs");
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.read(moved).unwrap().0.version.timestamp, 3);
        assert!(s.read(addr).is_err(), "old slot was freed");
    }

    #[test]
    fn stale_addresses_are_corruption_errors() {
        let mut s = store(1 << 20);
        let (addr, _) = s.insert(Key::from_id(1), Value::filled(64, 0), 1).unwrap();
        s.remove(addr).unwrap();
        assert!(matches!(s.read(addr), Err(PrismError::Corruption(_))));
        assert!(matches!(s.remove(addr), Err(PrismError::Corruption(_))));
        assert!(s.peek(addr).is_none());
    }

    #[test]
    fn scan_visits_all_live_objects() {
        let mut s = store(1 << 20);
        let mut addrs = Vec::new();
        for i in 0..20u64 {
            let size = 100 + (i as usize % 4) * 300;
            let (addr, _) = s
                .insert(Key::from_id(i), Value::filled(size, 0), i)
                .unwrap();
            addrs.push(addr);
        }
        for addr in addrs.iter().take(5) {
            s.remove(*addr).unwrap();
        }
        let mut ids: Vec<u64> = s.scan().map(|(_, e)| e.key.id()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (5u64..20).collect::<Vec<_>>());
        assert!(s.recovery_scan_cost() > Nanos::ZERO);
    }

    #[test]
    fn device_io_is_charged() {
        let device = Arc::new(Device::new(DeviceProfile::optane_nvm(1 << 20)));
        let mut s = SlabStore::new(SlabConfig::small_objects(1 << 20), device.clone()).unwrap();
        let (addr, wcost) = s
            .insert(Key::from_id(1), Value::filled(1000, 0), 1)
            .unwrap();
        let (_, rcost) = s.read(addr).unwrap();
        assert!(wcost >= device.profile().write_latency_4k);
        assert!(rcost >= device.profile().read_latency_4k);
        let io = device.counters().as_tier_io();
        assert_eq!(io.writes, 1);
        assert_eq!(io.reads, 1);
    }

    #[test]
    fn injected_bit_flip_is_caught_by_read_checksum() {
        use prism_storage::{FaultMode, TargetedFault};

        let mut s = store(1 << 20);
        let plan = Arc::new(prism_storage::FaultPlan::new(3));
        s.attach_faults(plan.clone(), 7);
        let (clean_addr, _) = s.insert(Key::from_id(1), Value::filled(64, 1), 1).unwrap();

        plan.arm(TargetedFault {
            tier: FaultTier::Nvm,
            partition: Some(7),
            op: FaultOp::Write,
            mode: FaultMode::BitFlip,
        });
        let (bad_addr, _) = s.insert(Key::from_id(2), Value::filled(64, 2), 2).unwrap();

        assert!(s.read(clean_addr).is_ok());
        let err = s.read(bad_addr).unwrap_err();
        assert!(matches!(err, PrismError::Corruption(_)), "got {err:?}");
        assert!(err.to_string().contains("partition 7"));
        let snap = plan.snapshot();
        assert_eq!(snap.bit_flips, 1);
        // The store reports the damage; the engine code that reads the
        // slot is what counts it.
        assert_eq!(snap.detected, 0);
        // The corrupt slot is visible to a scan and fails verification
        // there too (how the scrubber finds it).
        let corrupt: Vec<_> = s.scan().filter(|(_, e)| !e.verify()).collect();
        assert_eq!(corrupt.len(), 1);
        assert_eq!(corrupt[0].0, bad_addr);
    }

    #[test]
    fn injected_torn_write_rejected_and_io_faults_surface() {
        use prism_storage::{FaultMode, TargetedFault};

        let mut s = store(1 << 20);
        let plan = Arc::new(prism_storage::FaultPlan::new(4));
        s.attach_faults(plan.clone(), 0);

        plan.arm(TargetedFault {
            tier: FaultTier::Nvm,
            partition: None,
            op: FaultOp::Write,
            mode: FaultMode::TornWrite,
        });
        let (torn_addr, _) = s.insert(Key::from_id(5), Value::filled(200, 5), 1).unwrap();
        assert!(matches!(s.read(torn_addr), Err(PrismError::Corruption(_))));

        plan.arm(TargetedFault {
            tier: FaultTier::Nvm,
            partition: None,
            op: FaultOp::Read,
            mode: FaultMode::IoError,
        });
        let (addr, _) = s.insert(Key::from_id(6), Value::filled(64, 6), 2).unwrap();
        assert!(matches!(s.read(addr), Err(PrismError::Io(_))));
        // One-shot: the next read succeeds.
        assert!(s.read(addr).is_ok());

        plan.arm(TargetedFault {
            tier: FaultTier::Nvm,
            partition: None,
            op: FaultOp::Write,
            mode: FaultMode::IoError,
        });
        let before = s.object_count();
        assert!(matches!(
            s.insert(Key::from_id(7), Value::filled(64, 7), 3),
            Err(PrismError::Io(_))
        ));
        assert_eq!(s.object_count(), before, "failed insert stores nothing");
    }

    #[test]
    fn repairing_update_clears_corruption() {
        use prism_storage::{FaultMode, TargetedFault};

        let mut s = store(1 << 20);
        let plan = Arc::new(prism_storage::FaultPlan::new(5));
        s.attach_faults(plan.clone(), 0);
        plan.arm(TargetedFault {
            tier: FaultTier::Nvm,
            partition: None,
            op: FaultOp::Write,
            mode: FaultMode::BitFlip,
        });
        let (addr, _) = s.insert(Key::from_id(9), Value::filled(64, 9), 1).unwrap();
        assert!(s.read(addr).is_err());
        // A rewrite with fresh content (the scrubber's repair) restores
        // the slot to a verifiable state.
        let (addr2, _) = s
            .update(addr, &Key::from_id(9), Value::filled(64, 9), 2)
            .unwrap();
        assert_eq!(s.read(addr2).unwrap().0.version.timestamp, 2);
    }

    /// A tombstone takes the smallest class and reads back as one; a
    /// carried checksum reads back clean when it is the version's and
    /// fails the read when the value no longer matches it.
    #[test]
    fn tombstones_and_carried_checksums_round_trip() {
        let mut s = store(1 << 20);
        let (tomb, _) = s
            .insert_version(Key::from_id(1), Version::tombstone(3))
            .unwrap();
        assert_eq!(tomb.slab, 0);
        assert!(s.read(tomb).unwrap().0.version.is_tombstone());

        let version = Version::value(Value::filled(700, 2), 4);
        let checksum = version.checksum;
        let (addr, _) = s.insert_version(Key::from_id(2), version.clone()).unwrap();
        assert_eq!(s.read(addr).unwrap().0.version, version);

        let damaged = Version::carried(Some(Value::filled(700, 3)), 4, checksum);
        let (bad, _) = s.insert_version(Key::from_id(3), damaged).unwrap();
        assert!(matches!(s.read(bad), Err(PrismError::Corruption(_))));
        assert_eq!(
            s.peek(bad).unwrap().version.checksum,
            checksum,
            "kept verbatim"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let device = Arc::new(Device::new(DeviceProfile::optane_nvm(1 << 20)));
        let bad_empty = SlabConfig {
            slot_sizes: vec![],
            capacity_bytes: 1024,
        };
        assert!(SlabStore::new(bad_empty, device.clone()).is_err());
        let bad_order = SlabConfig {
            slot_sizes: vec![256, 128],
            capacity_bytes: 1024,
        };
        assert!(SlabStore::new(bad_order, device.clone()).is_err());
        let bad_capacity = SlabConfig {
            slot_sizes: vec![128],
            capacity_bytes: 0,
        };
        assert!(SlabStore::new(bad_capacity, device).is_err());
    }
}
