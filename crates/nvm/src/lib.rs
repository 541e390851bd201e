//! Slab-based NVM object store.
//!
//! PrismDB writes all new data to NVM first (§4.1–4.2 of the paper). Because
//! NVM supports fast random writes and in-place updates, the NVM data layout
//! is a set of *slab files*, each dedicated to one object-size class, with
//! fixed-size slots. Objects carry a small metadata header (logical
//! timestamp + size) that makes crash recovery a linear scan of the slabs.
//!
//! This crate implements that layout:
//!
//! * [`SlabFile`] — one size class: slot allocation, in-place update, free
//!   slot reuse ordered by disk location (the §7.3 optimisation that keeps
//!   consecutive writes of tiny objects on the same OS page),
//! * [`SlabStore`] — the per-partition collection of slab files with
//!   capacity accounting, watermark queries and a recovery scan,
//! * [`NvmAddress`] — the compact (slab id, slot) address stored in the
//!   partition's B-tree index.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use prism_nvm::{SlabConfig, SlabStore};
//! use prism_storage::{Device, DeviceProfile};
//! use prism_types::{Key, Value};
//!
//! let device = Arc::new(Device::new(DeviceProfile::optane_nvm(1 << 20)));
//! let mut store = SlabStore::new(SlabConfig::small_objects(1 << 20), device).unwrap();
//! let (addr, _cost) = store.insert(Key::from_id(7), Value::filled(200, 1), 1).unwrap();
//! let (entry, _cost) = store.read(addr).unwrap();
//! assert_eq!(entry.key.id(), 7);
//! ```

mod slab;
mod store;

pub use slab::{SlabFile, SlotEntry};
pub use store::{SlabConfig, SlabStore, SlabUsage, MAX_OBJECT_SIZE};

use std::fmt;

/// Compact address of an object stored on NVM.
///
/// The paper stores a 1-byte slab id plus a 4-byte page offset in each
/// B-tree index entry; we keep the same footprint with a slab id and a slot
/// number within the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NvmAddress {
    /// Which slab file (size class) the object lives in.
    pub slab: u8,
    /// Slot index within the slab file.
    pub slot: u32,
}

impl NvmAddress {
    /// Create an address.
    pub fn new(slab: u8, slot: u32) -> Self {
        NvmAddress { slab, slot }
    }
}

impl fmt::Display for NvmAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slab{}:{}", self.slab, self.slot)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use prism_storage::{Device, DeviceProfile};
    use prism_types::{Key, Value, Version};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Inserting, updating and removing arbitrary objects keeps the
        /// store consistent with a plain map model and never leaks slots.
        #[test]
        fn slab_store_matches_model(
            ops in prop::collection::vec((0u8..3, 0u64..50, 1usize..1500), 1..300)
        ) {
            let device = Arc::new(Device::new(DeviceProfile::optane_nvm(64 << 20)));
            let mut store = SlabStore::new(SlabConfig::small_objects(32 << 20), device).unwrap();
            let mut model: HashMap<u64, (usize, u64)> = HashMap::new();
            let mut addrs: HashMap<u64, NvmAddress> = HashMap::new();
            let mut ts = 0u64;

            for (op, id, size) in ops {
                ts += 1;
                let key = Key::from_id(id);
                match op {
                    0 => {
                        let value = Value::filled(size, id as u8);
                        if let Some(addr) = addrs.get(&key.id()).copied() {
                            let (new_addr, _) = store.update(addr, &key, value, ts).unwrap();
                            addrs.insert(id, new_addr);
                        } else {
                            let (addr, _) = store.insert(key.clone(), value, ts).unwrap();
                            addrs.insert(id, addr);
                        }
                        model.insert(id, (size, ts));
                    }
                    1 => {
                        if let Some(addr) = addrs.remove(&id) {
                            store.remove(addr).unwrap();
                            model.remove(&id);
                        }
                    }
                    _ => {
                        if let Some(addr) = addrs.get(&id) {
                            let (entry, _) = store.read(*addr).unwrap();
                            let (size, when) = model[&id];
                            prop_assert_eq!(entry.version.value_len(), size);
                            prop_assert_eq!(entry.version.timestamp, when);
                            prop_assert_eq!(entry.key.id(), id);
                        }
                    }
                }
                prop_assert_eq!(store.object_count(), model.len());
            }

            // Recovery scan sees exactly the live objects.
            let mut scanned: Vec<u64> = store.scan().map(|(_, e)| e.key.id()).collect();
            scanned.sort_unstable();
            let mut expected: Vec<u64> = model.keys().copied().collect();
            expected.sort_unstable();
            prop_assert_eq!(scanned, expected);
        }

        /// A freshly built slot always verifies, and flipping any single
        /// bit of its value is always detected by the slot checksums.
        #[test]
        fn slot_checksum_roundtrips_and_catches_any_single_bit_flip(
            id in 0u64..1_000_000,
            ts in 0u64..u64::MAX,
            bytes in prop::collection::vec(0u8..255, 1..2048),
            flip_at in 0usize..usize::MAX,
            flip_bit in 0u32..8,
        ) {
            let version = Version::value(Value::from_vec(bytes.clone()), ts);
            let entry = SlotEntry::new(Key::from_id(id), version);
            prop_assert!(entry.verify(), "clean slot must round-trip");

            let mut damaged = bytes;
            let idx = flip_at % damaged.len();
            damaged[idx] ^= 1 << flip_bit;
            let mut flipped = entry.clone();
            flipped.version.value = Some(Value::from_vec(damaged));
            prop_assert!(!flipped.verify(), "a single bit flip must fail the CRC");

            // Metadata damage is caught too: the checksums cover key and
            // timestamp, not just the value bytes.
            let mut ts_flip = entry;
            ts_flip.version.timestamp ^= 1;
            prop_assert!(!ts_flip.verify());
        }

        /// A torn write that truncated the value tail (any strictly
        /// shorter prefix, including empty) is always rejected: the CRC
        /// covers the length, so even a same-content prefix cannot pass.
        #[test]
        fn truncated_tail_slots_are_rejected(
            id in 0u64..1_000_000,
            ts in 0u64..u64::MAX,
            bytes in prop::collection::vec(0u8..255, 1..2048),
            keep in 0usize..usize::MAX,
        ) {
            let version = Version::value(Value::from_vec(bytes.clone()), ts);
            let mut torn = SlotEntry::new(Key::from_id(id), version);
            let keep = keep % bytes.len();
            torn.version.value = Some(Value::from_vec(bytes[..keep].to_vec()));
            prop_assert!(!torn.verify(), "a truncated slot must fail the CRC");
        }
    }
}
