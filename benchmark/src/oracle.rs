//! The correctness oracle: a shadow model of the last acknowledged value
//! of every key, against which every get, every scan and the post-crash
//! re-read are checked.
//!
//! The model keeps a 64-bit digest and the length of each value, not the
//! value. The digest folds eight bytes per step (~0.1 µs per 1 KB value);
//! the workspace's bytewise CRC32 costs ~2.5 µs per KB, which would make
//! the harness, not the engine, most of a DRAM-hit read.

use prism_types::{Key, Value};

/// Digest and length of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    digest: u64,
    len: u32,
}

fn fingerprint(value: &Value) -> Fingerprint {
    let bytes = value.as_bytes();
    let mut hash = 0x9E37_79B9_7F4A_7C15u64 ^ bytes.len() as u64;
    let mut fold = |word: u64| {
        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        hash ^= hash >> 29;
    };
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        fold(u64::from_le_bytes(
            chunk.try_into().expect("chunks of eight"),
        ));
    }
    for &byte in chunks.remainder() {
        fold(byte as u64);
    }
    Fingerprint {
        digest: hash,
        len: bytes.len() as u32,
    }
}

/// Key id → fingerprint of the last acknowledged value.
#[derive(Debug, Default)]
pub struct Oracle {
    slots: Vec<Option<Fingerprint>>,
    live_bytes: u64,
}

impl Oracle {
    /// Record an acknowledged put.
    pub fn put(&mut self, key: &Key, value: &Value) {
        let id = key.id() as usize;
        if id >= self.slots.len() {
            self.slots.resize(id + 1, None);
        }
        let new = fingerprint(value);
        if let Some(old) = self.slots[id].replace(new) {
            self.live_bytes -= old.len as u64;
        }
        self.live_bytes += new.len as u64;
    }

    fn expected(&self, id: u64) -> Option<Fingerprint> {
        self.slots.get(id as usize).copied().flatten()
    }

    /// Does a get of `key` that returned `got` agree with the model?
    pub fn check_get(&self, key: &Key, got: Option<&Value>) -> bool {
        self.expected(key.id()) == got.map(fingerprint)
    }

    /// Does a scan agree with the model: exactly the first `count` live
    /// keys at or after `start`, ascending, each with its last
    /// acknowledged value?
    pub fn check_scan(&self, start: &Key, count: usize, got: &[(Key, Value)]) -> bool {
        let mut expected = (start.id()..self.slots.len() as u64)
            .filter_map(|id| self.expected(id).map(|fp| (id, fp)))
            .take(count);
        got.iter()
            .all(|(key, value)| expected.next() == Some((key.id(), fingerprint(value))))
            && expected.next().is_none()
    }

    /// Ids of the keys the model holds a value for, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.slots.len() as u64).filter(|&id| self.expected(id).is_some())
    }

    /// Sum of the lengths of the live values.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u64) -> Key {
        Key::from_id(id)
    }

    #[test]
    fn gets_are_checked_against_the_last_acknowledged_value() {
        let mut oracle = Oracle::default();
        assert!(oracle.check_get(&key(3), None));
        oracle.put(&key(3), &Value::filled(1024, 7));
        assert!(oracle.check_get(&key(3), Some(&Value::filled(1024, 7))));
        assert!(!oracle.check_get(&key(3), Some(&Value::filled(1024, 8))));
        assert!(!oracle.check_get(&key(3), Some(&Value::filled(1023, 7))));
        assert!(!oracle.check_get(&key(3), None));
        // One flipped bit anywhere in the value changes the digest.
        let mut bytes = vec![7u8; 1024];
        bytes[1000] ^= 0x10;
        assert!(!oracle.check_get(&key(3), Some(&Value::from_vec(bytes))));
        oracle.put(&key(3), &Value::filled(100, 9));
        oracle.put(&key(5), &Value::filled(10, 9));
        assert_eq!(oracle.live_bytes(), 110);
    }

    #[test]
    fn scans_must_be_complete_ordered_and_current() {
        let mut oracle = Oracle::default();
        for id in [1u64, 2, 4, 7] {
            oracle.put(&key(id), &Value::filled(16, id as u8));
        }
        let entry = |id: u64| (key(id), Value::filled(16, id as u8));
        assert!(oracle.check_scan(&key(2), 2, &[entry(2), entry(4)]));
        assert!(oracle.check_scan(&key(3), 10, &[entry(4), entry(7)]));
        assert!(oracle.check_scan(&key(8), 5, &[]));
        // Too short, out of order, before the start, stale value, too long.
        assert!(!oracle.check_scan(&key(2), 2, &[entry(2)]));
        assert!(!oracle.check_scan(&key(2), 2, &[entry(4), entry(2)]));
        assert!(!oracle.check_scan(&key(2), 2, &[entry(1), entry(2)]));
        assert!(!oracle.check_scan(&key(2), 2, &[entry(2), (key(4), Value::filled(16, 9))]));
        assert!(!oracle.check_scan(&key(2), 2, &[entry(2), entry(4), entry(7)]));
        assert_eq!(oracle.live_ids().collect::<Vec<_>>(), [1, 2, 4, 7]);
    }
}
