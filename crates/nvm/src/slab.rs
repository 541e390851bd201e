//! A single slab file: fixed-size slots for one object-size class.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use prism_types::checksum::Crc32;
use prism_types::{Key, Value};

/// One live object stored in a slab slot, together with the metadata header
/// the paper writes alongside it (logical timestamp and size are implied by
/// the stored value).
#[derive(Debug, Clone)]
pub struct SlotEntry {
    /// The object's key.
    pub key: Key,
    /// The object's value.
    pub value: Value,
    /// Logical timestamp assigned by the owning partition; used during
    /// recovery to keep only the most recent version of a key.
    pub timestamp: u64,
    /// CRC32 over the key (length and bytes), timestamp, value length and
    /// value bytes, written with the slot header and re-verified on every
    /// read, recovery scan, scrub pass and compaction plan (a slot that
    /// fails there never enters the job).
    pub checksum: u32,
}

impl SlotEntry {
    /// Build an entry with its header checksum computed over the content.
    pub fn new(key: Key, value: Value, timestamp: u64) -> SlotEntry {
        let checksum = SlotEntry::compute_checksum(&key, &value, timestamp);
        SlotEntry {
            key,
            value,
            timestamp,
            checksum,
        }
    }

    /// The CRC32 a slot holding this content must carry.
    pub fn compute_checksum(key: &Key, value: &Value, timestamp: u64) -> u32 {
        let mut crc = Crc32::new();
        crc.update_u64(key.len() as u64);
        crc.update(key.as_bytes());
        crc.update_u64(timestamp);
        crc.update_u64(value.len() as u64);
        crc.update(value.as_bytes());
        crc.finish()
    }

    /// True when the stored checksum still matches the slot's content —
    /// false after a bit flip in the value bytes or a torn write that
    /// truncated them.
    pub fn verify(&self) -> bool {
        self.checksum == SlotEntry::compute_checksum(&self.key, &self.value, self.timestamp)
    }
}

/// A slab file dedicated to one slot size.
///
/// Slots are identified by their index, which corresponds to their position
/// on the device; the free list hands out the lowest-indexed free slot first
/// so that consecutive small writes land on the same 4 KB page (§7.3 of the
/// paper).
#[derive(Debug)]
pub struct SlabFile {
    slot_size: u32,
    slots: Vec<Option<SlotEntry>>,
    free: BinaryHeap<Reverse<u32>>,
    live: usize,
}

impl SlabFile {
    /// Create an empty slab file whose slots hold objects of up to
    /// `slot_size` bytes.
    pub fn new(slot_size: u32) -> Self {
        SlabFile {
            slot_size,
            slots: Vec::new(),
            free: BinaryHeap::new(),
            live: 0,
        }
    }

    /// The slot size (bytes) of this slab file.
    pub fn slot_size(&self) -> u32 {
        self.slot_size
    }

    /// Number of live objects.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of allocated slots (live + free).
    pub fn allocated_slots(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of NVM consumed by this slab file (all allocated slots).
    pub fn allocated_bytes(&self) -> u64 {
        self.slots.len() as u64 * self.slot_size as u64
    }

    /// Number of allocated-but-free slots available for reuse.
    pub fn free_slots(&self) -> usize {
        self.slots.len() - self.live
    }

    /// Store an entry in the lowest free slot (or a fresh slot at the end),
    /// returning the slot index.
    pub fn insert(&mut self, entry: SlotEntry) -> u32 {
        debug_assert!(entry.value.len() <= self.slot_size as usize);
        let slot = match self.free.pop() {
            Some(Reverse(idx)) => {
                self.slots[idx as usize] = Some(entry);
                idx
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        slot
    }

    /// Overwrite the entry in `slot` in place. Returns `false` if the slot
    /// is empty (the caller's index was stale).
    pub fn update_in_place(&mut self, slot: u32, entry: SlotEntry) -> bool {
        debug_assert!(entry.value.len() <= self.slot_size as usize);
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
            self.live -= 1;
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

    fn entry(id: u64, size: usize, ts: u64) -> SlotEntry {
        SlotEntry::new(Key::from_id(id), Value::filled(size, id as u8), ts)
    }

    #[test]
    fn insert_and_get() {
        let mut slab = SlabFile::new(256);
        let s0 = slab.insert(entry(1, 100, 1));
        let s1 = slab.insert(entry(2, 200, 2));
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(slab.get(s0).unwrap().key.id(), 1);
        assert_eq!(slab.get(s1).unwrap().timestamp, 2);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.allocated_bytes(), 512);
    }

    #[test]
    fn freed_slots_are_reused_lowest_first() {
        let mut slab = SlabFile::new(128);
        for i in 0..5 {
            slab.insert(entry(i, 64, i));
        }
        slab.remove(3).unwrap();
        slab.remove(1).unwrap();
        assert_eq!(slab.live(), 3);
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
        assert_eq!(got.value.len(), 120);
        assert_eq!(got.timestamp, 2);
        assert_eq!(slab.live(), 1);
        assert!(!slab.update_in_place(99, entry(5, 10, 3)));
    }

    #[test]
    fn remove_missing_slot_is_none() {
        let mut slab = SlabFile::new(128);
        assert!(slab.remove(0).is_none());
        let slot = slab.insert(entry(1, 50, 1));
        assert!(slab.remove(slot).is_some());
        assert!(slab.remove(slot).is_none());
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn slot_checksum_catches_bit_flips_and_truncation() {
        let good = entry(9, 80, 4);
        assert!(good.verify());

        let mut flipped_bytes = good.value.as_bytes().to_vec();
        flipped_bytes[40] ^= 0x20;
        let flipped = SlotEntry {
            value: Value::from_vec(flipped_bytes),
            ..good.clone()
        };
        assert!(!flipped.verify());

        let torn = SlotEntry {
            value: Value::from_vec(good.value.as_bytes()[..33].to_vec()),
            ..good.clone()
        };
        assert!(!torn.verify(), "a truncated-tail slot must be rejected");

        let stale_ts = SlotEntry {
            timestamp: good.timestamp + 1,
            ..good
        };
        assert!(!stale_ts.verify());
    }

    /// The header checksum covers the whole key: damage past the eighth
    /// byte (invisible to `Key::id`), a lost last byte and a lost
    /// trailing zero are all caught.
    #[test]
    fn slot_checksum_covers_every_key_byte_and_the_key_length() {
        let good = SlotEntry::new(
            Key::from_bytes(b"user1234A\0".to_vec()),
            Value::filled(40, 7),
            3,
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
