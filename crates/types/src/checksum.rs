//! CRC32C (the Castagnoli polynomial of RocksDB, iSCSI and ext4 — not the
//! IEEE one of zlib and Ethernet) for end-to-end integrity: version
//! checksums, slab-slot headers, SST block and footer checksums,
//! commit-log records and wire frames all derive their checksums here so
//! every tier detects a flipped bit with the same primitive.
//!
//! Castagnoli rather than IEEE for the reason RocksDB — the paper's
//! baseline and SST substrate — chose it: it is the one CRC polynomial
//! CPUs compute in an instruction (`crc32` since SSE4.2, `crc32c*` on
//! AArch64), and every read here verifies the version it serves.
//! Nothing checksummed outlives the process (devices are simulated in
//! memory; both ends of the wire format are this repository), so there is
//! one polynomial and no format version.
//!
//! Hand-rolled because the build environment has no registry access; the
//! output matches the canonical `crc32c` one bit for bit, verified against
//! published test vectors (RFC 3720 §B.4 among them) in the unit tests
//! below.
//!
//! # One checksum per version
//!
//! A version of a key — a value or a delete, at one timestamp — is one
//! [`Version`], the same value in every tier: a slab slot holds one, an
//! SST record is one, and a compaction moves one from the first to the
//! second and back. Its checksum is computed once, by [`Version::value`]
//! or [`Version::tombstone`], when it is written; a demotion, a merge and
//! a promotion move the `Version` as it is, and none of them reads the
//! value to checksum it again. So damage is never certified by a checksum
//! recomputed over it; it fails [`Version::verify`] wherever the bytes are
//! trusted (a read, a scan, the recovery scan, the scrubber). The formula
//! is private to this module, so those two constructors and `verify` are
//! the only code that computes it.
//!
//! # Kernels
//!
//! [`Crc32::update`] runs one of two kernels, chosen per call from what
//! the CPU reports, never from an option:
//!
//! * **Hardware** (`x86_64` with SSE4.2, detected at run time):
//!   `_mm_crc32_u64` folded over eight-byte words and `_mm_crc32_u8` over
//!   the tail — about 3.5x the table kernel on the host measured. The
//!   intrinsics are safe inside a `#[target_feature]` function; *calling*
//!   such a function from code compiled without the feature is not, so
//!   this crate is `#![deny(unsafe_code)]` with exactly one `unsafe`
//!   block, in `update_hardware`, directly under the detection that makes
//!   it sound.
//! * **Tables** (every other platform, and the reference the hardware
//!   kernel is tested against): *slicing-by-16*, sixteen 256-entry tables
//!   built at compile time from `POLY`, where `TABLES[k][b]` is the CRC
//!   of byte `b` followed by `k` zero bytes. One step folds the running
//!   CRC into the first four of sixteen input bytes and XORs sixteen
//!   independent table lookups, so the loop-carried dependency is one
//!   lookup per sixteen bytes instead of one per byte. Inputs that are not
//!   a multiple of sixteen finish with one eight-byte step (the first
//!   eight tables are exactly slicing-by-8's) and then the classic
//!   bytewise loop, which also stays as the reference the property tests
//!   compare both kernels against.
//!
//! Deliberately absent: an AArch64 `crc32cx` kernel (no such target is
//! installed where this is built, so it could not even be compiled, let
//! alone tested), carry-less-multiply folding (`PCLMULQDQ` / `PMULL`) and
//! three-stream interleaving of the `crc32` instruction. The one chain is
//! latency-bound (a three-lane prototype took a 1 KB checksum from 129 to
//! 46 ns), but what the engine gains from that did not resolve: over ten
//! alternating pairs against the same tree without it, `scan_e` read
//! +3.5 % (8 of 10, inside the quartile spread of the runs without) and
//! `wire_b` +4 % (6 of 10). A further kernel and its 4 KB join table wait
//! for a workload that shows them.

use crate::Value;

/// The reflected CRC32C (Castagnoli) polynomial; both table kernels are
/// built from this one constant.
const POLY: u32 = 0x82F6_3B78;

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

/// The table kernel: slicing-by-16, then one eight-byte step, then the
/// bytewise tail.
fn update_tables(mut crc: u32, bytes: &[u8]) -> u32 {
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
    update_bytewise(crc, tail)
}

/// The hardware kernel: the SSE4.2 `crc32` instruction, which computes
/// exactly this polynomial, over eight-byte words and then single bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    let mut words = bytes.chunks_exact(8);
    let mut wide = u64::from(crc);
    for chunk in &mut words {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        wide = _mm_crc32_u64(wide, word);
    }
    // The instruction zeroes the upper half of its 64-bit destination.
    let mut crc = wide as u32;
    for &byte in words.remainder() {
        crc = _mm_crc32_u8(crc, byte);
    }
    crc
}

/// The hardware kernel's answer, or `None` where this CPU has none.
#[allow(unsafe_code)]
#[inline]
fn update_hardware(crc: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42` requires only that the CPU executing it
        // supports SSE4.2, which the detection on the line above confirmed.
        return Some(unsafe { update_sse42(crc, bytes) });
    }
    let _ = (crc, bytes);
    None
}

/// Incremental CRC32C hasher for checksums spanning several fields
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

    /// Feed bytes into the checksum: through the hardware kernel where the
    /// CPU has one, through the table kernel everywhere else.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = match update_hardware(self.state, bytes) {
            Some(crc) => crc,
            None => update_tables(self.state, bytes),
        };
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

/// One-shot CRC32C of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finish()
}

/// One version of a key as every tier stores it: a value or a delete
/// tombstone, its timestamp, and the checksum it was written with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The value; `None` marks a delete tombstone, which an empty value is
    /// not. The checksum's tag tells the two apart.
    pub value: Option<Value>,
    /// Logical timestamp (the commit sequence) assigned when the version
    /// was written; a move between tiers keeps it.
    pub timestamp: u64,
    /// The checksum of value and timestamp, computed when the version was
    /// first written and carried verbatim from then on.
    pub checksum: u32,
}

impl Version {
    /// A value version, checksummed now.
    pub fn value(value: Value, timestamp: u64) -> Version {
        let checksum = version_checksum(timestamp, Some(value.as_bytes()));
        Version::carried(Some(value), timestamp, checksum)
    }

    /// A delete tombstone, checksummed now.
    pub fn tombstone(timestamp: u64) -> Version {
        Version::carried(None, timestamp, version_checksum(timestamp, None))
    }

    /// A version whose checksum was computed when it was first written,
    /// stored as given: bytes damaged since keep a checksum they fail.
    pub fn carried(value: Option<Value>, timestamp: u64, checksum: u32) -> Version {
        Version {
            value,
            timestamp,
            checksum,
        }
    }

    /// True when the checksum still matches value and timestamp — false
    /// after a bit flip, a torn write that truncated the value, or a
    /// tombstone and an empty value taken for each other.
    pub fn verify(&self) -> bool {
        self.checksum == version_checksum(self.timestamp, self.value.as_ref().map(Value::as_bytes))
    }

    /// True if the version is a delete tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// Bytes of value (0 for a tombstone).
    pub fn value_len(&self) -> usize {
        self.value.as_ref().map_or(0, Value::len)
    }
}

/// The checksum of one version: CRC32C over its little-endian timestamp,
/// a little-endian tag (0 for a delete tombstone, `1 + len` for a value)
/// and the value bytes. The tag tells a tombstone from an empty value and
/// catches a truncated one.
fn version_checksum(timestamp: u64, value: Option<&[u8]>) -> u32 {
    let tag = value.map_or(0, |bytes| 1 + bytes.len() as u64);
    let mut head = [0u8; 16];
    head[..8].copy_from_slice(&timestamp.to_le_bytes());
    head[8..].copy_from_slice(&tag.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&head);
    if let Some(bytes) = value {
        crc.update(bytes);
    }
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_bytes;

    /// A kernel as the tests drive it: running state and bytes in, running
    /// state out (no initial or final inversion).
    type Kernel = fn(u32, &[u8]) -> u32;

    fn hardware(crc: u32, bytes: &[u8]) -> u32 {
        update_hardware(crc, bytes).expect("listed only where detected")
    }

    /// The kernels this host can run, each called directly rather than
    /// through `Crc32::update`'s dispatch. Says which one the dispatch
    /// picks, so a host without the instruction reports that its hardware
    /// cases were skipped instead of passing silently.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("tables", update_tables)];
        if update_hardware(!0, &[]).is_some() {
            println!("Crc32::update dispatches to the hardware kernel (x86_64 SSE4.2 crc32)");
            kernels.push(("hardware", hardware));
        } else {
            println!(
                "Crc32::update dispatches to the table kernel (slicing-by-16): \
                 no hardware CRC32C detected, hardware kernel cases SKIPPED"
            );
        }
        kernels
    }

    /// The bytewise loop over the whole input: what `update` computed
    /// before the slicing kernel, kept as the reference.
    fn reference(bytes: &[u8]) -> u32 {
        !update_bytewise(!0, bytes)
    }

    /// Published CRC32C test vectors: the usual strings and the four
    /// 32-byte patterns of RFC 3720 §B.4.
    #[test]
    fn matches_published_vectors() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 9] = [
            (b"", 0x0000_0000),
            (b"a", 0xC1D0_4330),
            (b"abc", 0x364B_3FB7),
            (b"123456789", 0xE306_9283),
            (b"The quick brown fox jumps over the lazy dog", 0x2262_0404),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        let kernels = kernels();
        for (bytes, expected) in vectors {
            assert_eq!(reference(bytes), expected, "bytewise on {bytes:02x?}");
            for (name, kernel) in &kernels {
                assert_eq!(!kernel(!0, bytes), expected, "{name} on {bytes:02x?}");
            }
            assert_eq!(crc32(bytes), expected, "dispatch on {bytes:02x?}");
        }
    }

    /// Every length 0..=300 at every start offset 0..16: each combination
    /// of whole sixteen-byte steps, the eight-byte step and the byte tail
    /// (tables), of whole words and the byte tail (hardware), at every
    /// alignment of the input.
    #[test]
    fn kernel_equals_the_bytewise_reference_at_every_length_and_offset() {
        let buffer = seeded_bytes(0xC32C, 316);
        let kernels = kernels();
        for offset in 0..16 {
            for len in 0..=300 {
                let bytes = &buffer[offset..offset + len];
                let expected = reference(bytes);
                for (name, kernel) in &kernels {
                    assert_eq!(
                        !kernel(!0, bytes),
                        expected,
                        "{name} offset {offset} len {len}"
                    );
                }
                assert_eq!(crc32(bytes), expected, "dispatch offset {offset} len {len}");
            }
        }
    }

    /// The incremental path the slab, SST and commit-log checksums use:
    /// however the input is cut into updates, the result is the one-shot
    /// checksum — on each kernel and through `Crc32`.
    #[test]
    fn kernel_is_split_invariant() {
        let buffer = seeded_bytes(0x5EED, 300);
        let kernels = kernels();
        for len in 0..=buffer.len() {
            let bytes = &buffer[..len];
            let whole = reference(bytes);
            for cut in 0..=len {
                for (name, kernel) in &kernels {
                    let state = kernel(kernel(!0, &bytes[..cut]), &bytes[cut..]);
                    assert_eq!(!state, whole, "{name} len {len} cut {cut}");
                }
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
                for (name, kernel) in &kernels {
                    let state = kernel(!0, &bytes[..first]);
                    let state = kernel(state, &bytes[first..second]);
                    let state = kernel(state, &bytes[second..]);
                    assert_eq!(!state, whole, "{name} cuts {first}, {second}");
                }
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
        let expected = reference(&bytes);
        for (name, kernel) in kernels() {
            assert_eq!(!kernel(!0, &bytes), expected, "{name}");
        }
        assert_eq!(crc32(&bytes), expected);
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

    /// The version checksum is the field-by-field CRC of timestamp, tag and
    /// value, so an SST record built before it existed reads the same; a
    /// tombstone, an empty value and a one-byte value all differ.
    #[test]
    fn version_checksum_covers_timestamp_tag_and_value() {
        let fields = |timestamp: u64, value: Option<&[u8]>| {
            let mut crc = Crc32::new();
            crc.update_u64(timestamp);
            match value {
                Some(bytes) => {
                    crc.update_u64(1 + bytes.len() as u64);
                    crc.update(bytes);
                }
                None => crc.update_u64(0),
            }
            crc.finish()
        };
        let value = seeded_bytes(0x7E55, 1024);
        for len in [0, 1, 7, 8, 9, 100, 1024] {
            for timestamp in [0, 1, 0xDEAD_BEEF_CAFE_F00D] {
                let bytes = Some(&value[..len]);
                assert_eq!(version_checksum(timestamp, bytes), fields(timestamp, bytes));
            }
        }
        assert_eq!(version_checksum(9, None), fields(9, None));
        let shapes = [None, Some(&b""[..]), Some(&b"\0"[..])];
        for (i, a) in shapes.iter().enumerate() {
            for b in &shapes[i + 1..] {
                assert_ne!(
                    version_checksum(4, *a),
                    version_checksum(4, *b),
                    "{a:?} {b:?}"
                );
            }
        }
        assert_ne!(version_checksum(4, None), version_checksum(5, None));
    }

    /// What every tier relies on when it verifies a version it stores: any
    /// single-bit flip of the value, the timestamp or the checksum fails,
    /// so does any truncation of the value, and so does a tombstone read as
    /// an empty value or a value read as a tombstone.
    #[test]
    fn a_version_fails_verify_after_any_bit_flip_truncation_or_tombstone_confusion() {
        let bytes = seeded_bytes(0x7E25, 1000);
        let versions = [
            Version::value(Value::from(&bytes[..1]), 0),
            Version::value(Value::from(&bytes[..9]), 0xDEAD_BEEF_CAFE_F00D),
            Version::value(Value::from_vec(bytes), u64::MAX),
            Version::value(Value::empty(), 7),
            Version::tombstone(7),
        ];
        for good in &versions {
            assert!(good.verify(), "{good:?}");
            let damaged = |damage: &dyn Fn(&mut Version)| {
                let mut version = good.clone();
                damage(&mut version);
                !version.verify()
            };
            let value = good.value.as_ref().map_or(&[][..], Value::as_bytes);
            for bit in 0..value.len() * 8 {
                let mut flipped = value.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let flipped = Value::from_vec(flipped);
                let flip = |v: &mut Version| v.value = Some(flipped.clone());
                assert!(damaged(&flip), "{good:?}: value bit {bit}");
            }
            for keep in 0..value.len() {
                let torn = |v: &mut Version| v.value = Some(Value::from(&value[..keep]));
                assert!(damaged(&torn), "{good:?}: {keep} bytes kept");
            }
            for bit in 0..64 {
                let flip = |v: &mut Version| v.timestamp ^= 1 << bit;
                assert!(damaged(&flip), "{good:?}: timestamp bit {bit}");
            }
            for bit in 0..32 {
                let flip = |v: &mut Version| v.checksum ^= 1 << bit;
                assert!(damaged(&flip), "{good:?}: checksum bit {bit}");
            }
            let confuse = |v: &mut Version| {
                v.value = if v.is_tombstone() {
                    Some(Value::empty())
                } else {
                    None
                }
            };
            assert!(damaged(&confuse), "{good:?} read as the other kind");
        }
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

    /// What a degree-32 CRC guarantees and every record format here
    /// assumes: damage confined to 32 consecutive bits is always caught.
    /// In a 1 000-byte value, at every bit position, every burst length
    /// 1..=32 (length 1 is the single-bit flip): both end bits flipped, the
    /// bits between them flipped by a seeded pattern — on each kernel.
    #[test]
    fn any_burst_of_up_to_32_bits_changes_the_checksum() {
        let mut value = seeded_bytes(0xB0B5, 1000);
        let bits = value.len() * 8;
        let interior: Vec<u32> = seeded_bytes(0xB175, bits * 4)
            .chunks_exact(4)
            .map(|word| u32::from_le_bytes(word.try_into().unwrap()))
            .collect();
        for (name, kernel) in kernels() {
            let clean = kernel(!0, &value);
            for (start, seeded) in interior.iter().enumerate() {
                for len in 1..=32.min(bits - start) {
                    // Bits 0 and len - 1 set, seeded bits between them.
                    let burst = (seeded & (u32::MAX >> (32 - len))) | 1 | (1 << (len - 1));
                    flip(&mut value, start, burst);
                    let damaged = kernel(!0, &value);
                    flip(&mut value, start, burst);
                    assert_ne!(
                        damaged, clean,
                        "{name}: burst {burst:#x} of {len} bits at bit {start} went undetected"
                    );
                }
            }
            assert_eq!(kernel(!0, &value), clean, "every flip was undone");
        }
    }

    /// XOR the bits of `burst` into `bytes`, bit `i` of it onto bit
    /// `start + i` of the message (bit 0 of a byte is its least significant).
    fn flip(bytes: &mut [u8], start: usize, burst: u32) {
        let spread = u64::from(burst) << (start % 8);
        for (i, byte) in spread.to_le_bytes().iter().enumerate() {
            if let Some(target) = bytes.get_mut(start / 8 + i) {
                *target ^= byte;
            }
        }
    }
}
