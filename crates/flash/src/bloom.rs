//! A bloom filter over keys.
//!
//! PrismDB keeps one bloom filter per SST file on NVM so that lookups for
//! absent keys do not issue flash I/O (§4.1). The filter uses double
//! hashing over a 64-bit FNV-1a base hash, the same construction LevelDB
//! and RocksDB use.

use prism_types::{splitmix64, Key};

/// A space-efficient approximate set membership structure.
///
/// # Example
///
/// ```
/// use prism_flash::BloomFilter;
/// use prism_types::Key;
///
/// let mut bloom = BloomFilter::new(100, 10);
/// bloom.add(&Key::from_id(1));
/// assert!(bloom.may_contain(&Key::from_id(1)));
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_probes: u32,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl BloomFilter {
    /// Build a filter sized for `expected_keys` keys with `bits_per_key`
    /// bits each (10 bits/key gives ~1 % false positives).
    pub fn new(expected_keys: usize, bits_per_key: usize) -> Self {
        let num_bits = (expected_keys.max(1) * bits_per_key.max(1)).max(64) as u64;
        let words = num_bits.div_ceil(64) as usize;
        // Optimal probe count is ln(2) * bits_per_key, clamped to a sane range.
        let num_probes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        BloomFilter {
            bits: vec![0u64; words],
            num_bits: words as u64 * 64,
            num_probes,
        }
    }

    /// The key's bit positions, computed one at a time as they are
    /// consumed. The iterator borrows nothing, so [`BloomFilter::add`] can
    /// set bits while it walks.
    fn probes(&self, key: &Key) -> impl Iterator<Item = u64> {
        let h1 = fnv1a(key.as_bytes());
        let h2 = splitmix64(h1) | 1;
        let num_bits = self.num_bits;
        (0..self.num_probes).map(move |i| h1.wrapping_add(h2.wrapping_mul(i as u64)) % num_bits)
    }

    /// Insert a key.
    pub fn add(&mut self, key: &Key) {
        for pos in self.probes(key) {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// Check membership. May return `true` for keys never added (false
    /// positive) but never returns `false` for an added key. Stops at the
    /// first clear bit.
    pub fn may_contain(&self, key: &Key) -> bool {
        self.probes(key)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Size of the filter in bytes (stored on NVM in PrismDB).
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn added_keys_are_found() {
        let mut bloom = BloomFilter::new(1000, 10);
        for id in 0..1000u64 {
            bloom.add(&Key::from_id(id));
        }
        for id in 0..1000u64 {
            assert!(bloom.may_contain(&Key::from_id(id)));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let n = 10_000u64;
        let mut bloom = BloomFilter::new(n as usize, 10);
        for id in 0..n {
            bloom.add(&Key::from_id(id));
        }
        let mut false_positives = 0u64;
        let probes = 20_000u64;
        for id in n..(n + probes) {
            if bloom.may_contain(&Key::from_id(id)) {
                false_positives += 1;
            }
        }
        let rate = false_positives as f64 / probes as f64;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bloom = BloomFilter::new(100, 10);
        let hits = (0..1000u64)
            .filter(|id| bloom.may_contain(&Key::from_id(*id)))
            .count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn size_scales_with_keys() {
        let small = BloomFilter::new(100, 10);
        let large = BloomFilter::new(100_000, 10);
        assert!(large.size_bytes() > small.size_bytes() * 100);
    }

    /// The collecting form the filter used before its probes became lazy:
    /// every position first, then every bit.
    fn may_contain_collected(bloom: &BloomFilter, key: &Key) -> bool {
        let positions: Vec<u64> = bloom.probes(key).collect();
        positions
            .iter()
            .all(|pos| bloom.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    #[test]
    fn lazy_probes_answer_as_the_collected_ones_do() {
        let n = 100_000u64;
        let mut bloom = BloomFilter::new(n as usize, 10);
        let mut collected = bloom.clone();
        for id in 0..n {
            let key = Key::from_id(id);
            bloom.add(&key);
            let positions: Vec<u64> = collected.probes(&key).collect();
            for pos in positions {
                collected.bits[(pos / 64) as usize] |= 1 << (pos % 64);
            }
        }
        assert_eq!(bloom.bits, collected.bits, "add sets the same bits");
        let mut false_positives = 0u64;
        for id in 0..2 * n {
            let key = Key::from_id(id);
            let answer = bloom.may_contain(&key);
            assert_eq!(answer, may_contain_collected(&bloom, &key), "key {id}");
            assert!(answer || id >= n, "added key {id} is found");
            false_positives += u64::from(answer && id >= n);
        }
        assert!(false_positives > 0 && false_positives < n / 20);
    }

    #[test]
    fn degenerate_parameters_still_work() {
        let mut bloom = BloomFilter::new(0, 0);
        bloom.add(&Key::from_id(5));
        assert!(bloom.may_contain(&Key::from_id(5)));
    }
}
