//! CRC32 (IEEE 802.3 polynomial, the zlib/gzip/Ethernet flavour — not the
//! CRC32C of RocksDB and iSCSI) for end-to-end integrity: slab-slot
//! headers, SST block and footer checksums, commit-log records and wire
//! frames all derive their checksums here so every tier detects a flipped
//! bit with the same primitive.
//!
//! Hand-rolled because the build environment has no registry access; the
//! output matches the canonical `crc32fast`/zlib one bit for bit, verified
//! against published test vectors in the unit tests below.
//!
//! # Kernel
//!
//! [`Crc32::update`] is *slicing-by-16*: sixteen 256-entry tables built at
//! compile time, where `TABLES[k][b]` is the CRC of byte `b` followed by
//! `k` zero bytes. One step folds the running CRC into the first four of
//! sixteen input bytes and XORs sixteen independent table lookups, so the
//! loop-carried dependency is one lookup per sixteen bytes instead of one
//! per byte (about 5x the bytewise loop on the hosts measured). Inputs
//! that are not a multiple of sixteen finish with one eight-byte step
//! (the first eight tables are exactly slicing-by-8's) and then the
//! classic bytewise loop, which also stays as the reference the property
//! tests compare against.
//!
//! There is deliberately no carry-less-multiply (`PCLMULQDQ` / `PMULL`)
//! path: it needs `unsafe`, `std::arch` and a per-architecture fork with
//! run-time detection — a second kernel to test on hardware CI does not
//! have — while the tables are 16 KB of portable, safe Rust
//! (`#![forbid(unsafe_code)]` holds for this crate).

/// The reflected IEEE CRC32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables, built at compile time: `TABLES[0]` is the classic
/// bytewise table; `TABLES[k][b]` advances `TABLES[k - 1][b]` by one more
/// zero byte. A `static`, not a `const`: a `const` array is instantiated
/// at each use, which an unoptimised build does literally — 16 KB copied
/// to the stack per lookup.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The bytewise table-driven loop: the tail of every update and the
/// reference the kernel tests compare against.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &byte in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Four table lookups for the little-endian word `word`, whose bytes sit
/// `distance + 3 ..= distance` positions before the end of the step.
#[inline(always)]
fn fold_word(word: u32, distance: usize) -> u32 {
    TABLES[distance + 3][(word & 0xFF) as usize]
        ^ TABLES[distance + 2][((word >> 8) & 0xFF) as usize]
        ^ TABLES[distance + 1][((word >> 16) & 0xFF) as usize]
        ^ TABLES[distance][(word >> 24) as usize]
}

#[inline(always)]
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Incremental CRC32 hasher for checksums spanning several fields
/// (key bytes, value bytes, a timestamp) without concatenating them.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            crc = fold_word(word(block, 0) ^ crc, 12)
                ^ fold_word(word(block, 4), 8)
                ^ fold_word(word(block, 8), 4)
                ^ fold_word(word(block, 12), 0);
        }
        let mut tail = blocks.remainder();
        if tail.len() >= 8 {
            crc = fold_word(word(tail, 0) ^ crc, 4) ^ fold_word(word(tail, 4), 0);
            tail = &tail[8..];
        }
        self.state = update_bytewise(crc, tail);
    }

    /// Feed a little-endian `u64` (timestamps, sequence numbers).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Feed a little-endian `u32` (lengths, chained block checksums).
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// The finished checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_bytes;

    /// Published CRC32 test vectors (zlib / IEEE 802.3).
    #[test]
    fn matches_published_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise loop over the whole input: what `update` computed
    /// before the slicing kernel, kept as the reference.
    fn reference(bytes: &[u8]) -> u32 {
        !update_bytewise(!0, bytes)
    }

    /// Every length 0..=300 at every start offset 0..16: each combination
    /// of whole sixteen-byte steps, the eight-byte step and the byte tail,
    /// at every alignment of the input.
    #[test]
    fn kernel_equals_the_bytewise_reference_at_every_length_and_offset() {
        let buffer = seeded_bytes(0xC32C, 316);
        for offset in 0..16 {
            for len in 0..=300 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(crc32(bytes), reference(bytes), "offset {offset} len {len}");
            }
        }
    }

    /// The incremental path the slab, SST and commit-log checksums use:
    /// however the input is cut into `update` calls, the result is the
    /// one-shot checksum.
    #[test]
    fn kernel_is_split_invariant() {
        let buffer = seeded_bytes(0x5EED, 300);
        for len in 0..=buffer.len() {
            let bytes = &buffer[..len];
            let whole = reference(bytes);
            for cut in 0..=len {
                let mut hasher = Crc32::new();
                hasher.update(&bytes[..cut]);
                hasher.update(&bytes[cut..]);
                assert_eq!(hasher.finish(), whole, "len {len} cut {cut}");
            }
        }
        let bytes = &buffer[..80];
        let whole = reference(bytes);
        for first in 0..=bytes.len() {
            for second in first..=bytes.len() {
                let mut hasher = Crc32::new();
                hasher.update(&bytes[..first]);
                hasher.update(&bytes[first..second]);
                hasher.update(&bytes[second..]);
                assert_eq!(hasher.finish(), whole, "cuts {first}, {second}");
            }
        }
    }

    #[test]
    fn kernel_equals_the_reference_on_a_megabyte() {
        let bytes = seeded_bytes(0x1EEE, 1 << 20);
        assert_eq!(crc32(&bytes), reference(&bytes));
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut hasher = Crc32::new();
        hasher.update(b"123");
        hasher.update(b"45");
        hasher.update(b"6789");
        assert_eq!(hasher.finish(), crc32(b"123456789"));

        let mut fields = Crc32::new();
        fields.update(b"key");
        fields.update_u64(0xDEAD_BEEF_CAFE_F00D);
        fields.update_u32(42);
        let mut concat = b"key".to_vec();
        concat.extend_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        concat.extend_from_slice(&42u32.to_le_bytes());
        assert_eq!(fields.finish(), crc32(&concat));
    }

    /// Every single-bit flip in a message changes the checksum — the
    /// property the integrity layer leans on.
    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let base = b"prismdb integrity probe 0123456789".to_vec();
        let clean = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    clean,
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
}
