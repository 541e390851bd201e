//! A single slab file: fixed-size slots for one object-size class.
//!
//! # Checksums
//!
//! A slot holds one [`Version`] of a key — value or tombstone, timestamp
//! and the version's checksum — and a header checksum. The version is
//! the same value an SST record is: its checksum was computed once when
//! it was first written — here for a put or a delete, on flash for a
//! version a promotion brings back — and a slot stores it as it is, so a
//! demotion moves it into the SST record without reading the value. The
//! *header checksum* covers the key (length and bytes) and the version
//! checksum, so every stored byte is covered and a key damaged past its
//! eighth byte is caught. Both are verified on every read, scan, recovery
//! scan and scrub pass; nothing that moves a slot verifies it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use prism_types::checksum::Crc32;
use prism_types::{Key, Version};

/// One version stored in a slab slot, together with the metadata header
/// the paper writes alongside it (key, logical timestamp; the size is
/// implied by the stored value).
#[derive(Debug, Clone)]
pub struct SlotEntry {
    /// The object's key.
    pub key: Key,
    /// The version: value or tombstone, the timestamp recovery keeps the
    /// newest of, and the checksum a demotion carries into an SST record.
    pub version: Version,
    /// CRC32C over the key (length and bytes) and the version checksum.
    pub header_checksum: u32,
}

impl SlotEntry {
    /// `version` of `key`, stored with the checksum it carries: bytes
    /// damaged before they got here keep a checksum they fail. Only the
    /// header checksum, over the key, is computed.
    pub fn new(key: Key, version: Version) -> SlotEntry {
        SlotEntry {
            header_checksum: SlotEntry::header_checksum(&key, version.checksum),
            key,
            version,
        }
    }

    /// CRC32C over the little-endian key length and version checksum (as
    /// eight bytes each: two words for the CRC instruction) and the key.
    fn header_checksum(key: &Key, checksum: u32) -> u32 {
        let mut head = [0u8; 16];
        head[..8].copy_from_slice(&(key.len() as u64).to_le_bytes());
        head[8..].copy_from_slice(&u64::from(checksum).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&head);
        crc.update(key.as_bytes());
        crc.finish()
    }

    /// True when both checksums still match the slot's content — false
    /// after a bit flip in the value bytes, a torn write that truncated
    /// them, or damage to the key or timestamp.
    pub fn verify(&self) -> bool {
        self.header_checksum == SlotEntry::header_checksum(&self.key, self.version.checksum)
            && self.version.verify()
    }
}

/// A slab file dedicated to one slot size.
///
/// Slots are identified by their index, which corresponds to their position
/// on the device; the free list hands out the lowest-indexed free slot first
/// so that consecutive small writes land on the same 4 KB page (§7.3 of the
/// paper).
#[derive(Debug)]
pub(crate) struct SlabFile {
    slot_size: u32,
    slots: Vec<Option<SlotEntry>>,
    free: BinaryHeap<Reverse<u32>>,
}

impl SlabFile {
    /// Create an empty slab file whose slots hold objects of up to
    /// `slot_size` bytes.
    pub fn new(slot_size: u32) -> Self {
        SlabFile {
            slot_size,
            slots: Vec::new(),
            free: BinaryHeap::new(),
        }
    }

    /// The slot size (bytes) of this slab file.
    pub(crate) fn slot_size(&self) -> u32 {
        self.slot_size
    }

    /// Number of allocated slots (live + free).
    pub(crate) fn allocated_slots(&self) -> usize {
        self.slots.len()
    }

    /// Store an entry in the lowest free slot (or a fresh slot at the end),
    /// returning the slot index.
    pub fn insert(&mut self, entry: SlotEntry) -> u32 {
        debug_assert!(entry.version.value_len() <= self.slot_size as usize);
        match self.free.pop() {
            Some(Reverse(idx)) => {
                self.slots[idx as usize] = Some(entry);
                idx
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Overwrite the entry in `slot` in place. Returns `false` if the slot
    /// is empty (the caller's index was stale).
    pub(crate) fn update_in_place(&mut self, slot: u32, entry: SlotEntry) -> bool {
        debug_assert!(entry.version.value_len() <= self.slot_size as usize);
        match self.slots.get_mut(slot as usize) {
            Some(existing @ Some(_)) => {
                *existing = Some(entry);
                true
            }
            _ => false,
        }
    }

    /// Read the entry in `slot`, if the slot is live.
    pub fn get(&self, slot: u32) -> Option<&SlotEntry> {
        self.slots.get(slot as usize).and_then(|s| s.as_ref())
    }

    /// Free `slot`, returning the entry that was stored there.
    pub fn remove(&mut self, slot: u32) -> Option<SlotEntry> {
        let entry = self.slots.get_mut(slot as usize)?.take();
        if entry.is_some() {
            self.free.push(Reverse(slot));
        }
        entry
    }

    /// Iterate over all live slots as `(slot, entry)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &SlotEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i as u32, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_types::Value;

    fn entry(id: u64, size: usize, ts: u64) -> SlotEntry {
        let value = Value::filled(size, id as u8);
        SlotEntry::new(Key::from_id(id), Version::value(value, ts))
    }

    #[test]
    fn insert_and_get() {
        let mut slab = SlabFile::new(256);
        let s0 = slab.insert(entry(1, 100, 1));
        let s1 = slab.insert(entry(2, 200, 2));
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(slab.get(s0).unwrap().key.id(), 1);
        assert_eq!(slab.get(s1).unwrap().version.timestamp, 2);
        assert_eq!(slab.iter().count(), 2);
        assert_eq!(slab.allocated_slots(), 2);
    }

    #[test]
    fn freed_slots_are_reused_lowest_first() {
        let mut slab = SlabFile::new(128);
        for i in 0..5 {
            slab.insert(entry(i, 64, i));
        }
        slab.remove(3).unwrap();
        slab.remove(1).unwrap();
        assert_eq!(slab.iter().count(), 3);
        // Lowest free slot (1) must be handed out before slot 3.
        assert_eq!(slab.insert(entry(10, 64, 10)), 1);
        assert_eq!(slab.insert(entry(11, 64, 11)), 3);
        assert_eq!(slab.insert(entry(12, 64, 12)), 5);
        assert_eq!(slab.allocated_slots(), 6);
    }

    #[test]
    fn update_in_place_keeps_slot() {
        let mut slab = SlabFile::new(256);
        let slot = slab.insert(entry(5, 100, 1));
        assert!(slab.update_in_place(slot, entry(5, 120, 2)));
        let got = slab.get(slot).unwrap();
        assert_eq!(got.version.value_len(), 120);
        assert_eq!(got.version.timestamp, 2);
        assert_eq!(slab.iter().count(), 1);
        assert!(!slab.update_in_place(99, entry(5, 10, 3)));
    }

    #[test]
    fn remove_missing_slot_is_none() {
        let mut slab = SlabFile::new(128);
        assert!(slab.remove(0).is_none());
        let slot = slab.insert(entry(1, 50, 1));
        assert!(slab.remove(slot).is_some());
        assert!(slab.remove(slot).is_none());
        assert_eq!(slab.iter().count(), 0);
    }

    #[test]
    fn slot_checksum_catches_bit_flips_and_truncation() {
        let good = entry(9, 80, 4);
        assert!(good.verify());
        let with = |version: Version| SlotEntry {
            version,
            ..good.clone()
        };

        let bytes = good.version.value.as_ref().expect("a value").as_bytes();
        let mut flipped_bytes = bytes.to_vec();
        flipped_bytes[40] ^= 0x20;
        let flipped = with(Version {
            value: Some(Value::from_vec(flipped_bytes)),
            ..good.version.clone()
        });
        assert!(!flipped.verify());

        let torn = with(Version {
            value: Some(Value::from_vec(bytes[..33].to_vec())),
            ..good.version.clone()
        });
        assert!(!torn.verify(), "a truncated-tail slot must be rejected");

        let stale_ts = with(Version {
            timestamp: good.version.timestamp + 1,
            ..good.version.clone()
        });
        assert!(!stale_ts.verify());
    }

    /// The header checksum covers the whole key: damage past the eighth
    /// byte (invisible to `Key::id`), a lost last byte and a lost
    /// trailing zero are all caught.
    #[test]
    fn slot_checksum_covers_every_key_byte_and_the_key_length() {
        let good = SlotEntry::new(
            Key::from_bytes(b"user1234A\0".to_vec()),
            Version::value(Value::filled(40, 7), 3),
        );
        assert!(good.verify());
        for damaged in [&b"user1234B\0"[..], b"user1234A", b"user1234"] {
            let slot = SlotEntry {
                key: Key::from(damaged),
                ..good.clone()
            };
            assert_eq!(slot.key.id(), good.key.id());
            assert!(!slot.verify(), "key damaged to {damaged:?} went unnoticed");
        }
    }

    /// A tombstone and an empty value are different versions: each slot
    /// verifies as what it is and fails when it reads as the other.
    #[test]
    fn a_tombstone_is_covered_and_an_empty_value_is_not_a_tombstone() {
        let key = Key::from_id(4);
        let tombstone = SlotEntry::new(key.clone(), Version::tombstone(7));
        let empty = SlotEntry::new(key, Version::value(Value::empty(), 7));
        assert!(tombstone.version.is_tombstone() && !empty.version.is_tombstone());
        assert_eq!(tombstone.version.value_len(), empty.version.value_len());
        for (slot, other) in [(&tombstone, &empty), (&empty, &tombstone)] {
            assert!(slot.verify());
            let mut swapped = slot.clone();
            swapped.version.value = other.version.value.clone();
            assert!(!swapped.verify());
        }
    }

    /// A carried checksum is stored as given, never recomputed: the version
    /// checksum of the same content verifies, and bytes damaged before the
    /// slot was written keep the checksum they fail.
    #[test]
    fn a_carried_checksum_is_kept_verbatim() {
        let good = entry(3, 90, 5);
        let checksum = good.version.checksum;
        let carry = |value: Value| {
            SlotEntry::new(good.key.clone(), Version::carried(Some(value), 5, checksum))
        };
        let carried = carry(good.version.value.clone().expect("a value"));
        assert!(carried.verify());
        assert_eq!(
            (carried.version.checksum, carried.header_checksum),
            (checksum, good.header_checksum)
        );
        let damaged = carry(Value::filled(90, 4));
        assert_eq!(damaged.version.checksum, checksum);
        assert!(!damaged.verify());
    }

    #[test]
    fn iter_returns_live_slots_in_order() {
        let mut slab = SlabFile::new(128);
        for i in 0..6 {
            slab.insert(entry(i, 32, i));
        }
        slab.remove(2);
        slab.remove(4);
        let ids: Vec<u64> = slab.iter().map(|(_, e)| e.key.id()).collect();
        assert_eq!(ids, vec![0, 1, 3, 5]);
    }
}
