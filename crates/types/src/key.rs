//! Key representation.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

/// Longest key stored inline, without a heap allocation.
const INLINE_CAP: usize = 22;

/// A key in the database.
///
/// Keys are arbitrary byte strings ordered lexicographically. Workload
/// generators produce fixed-width 8-byte big-endian keys (via
/// [`Key::from_id`]) so lexicographic order coincides with numeric order,
/// which lets the compaction bucket map (the `prism-compaction` crate) place keys
/// into fixed-width key-id buckets exactly as the paper's implementation
/// does for its 64 K-key buckets.
///
/// # Representation
///
/// A key of up to 22 bytes — every [`Key::from_id`] key, and most named
/// ones — lives inline in the 24-byte `Key` itself: building, cloning and
/// dropping it never touches the allocator, and comparing it reads no
/// pointer. Longer keys spill to one exact-size heap block. The two forms
/// are not observable: equality, order and hashing are those of
/// [`Key::as_bytes`] (a `Key` hashes exactly as the `[u8]` it borrows as,
/// so map lookups by `&[u8]` work).
///
/// # Example
///
/// ```
/// use prism_types::Key;
///
/// let a = Key::from_id(10);
/// let b = Key::from_id(200);
/// assert!(a < b);
/// assert_eq!(b.id(), 200);
/// let named = Key::from_bytes(b"user12345".to_vec());
/// assert_eq!(named.as_bytes(), b"user12345");
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Key(Repr);

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    /// `bytes[..len]` is the key; the rest stays zero, which is what lets
    /// [`Key::id`] read the first eight bytes without looking at `len`.
    Inline { len: u8, bytes: [u8; INLINE_CAP] },
    /// Keys longer than [`INLINE_CAP`] bytes.
    Heap(Box<[u8]>),
}

impl Key {
    /// Build a fixed-width 8-byte key from a numeric key id.
    ///
    /// Lexicographic comparison of keys built this way matches numeric
    /// comparison of the ids.
    pub fn from_id(id: u64) -> Self {
        let mut bytes = [0u8; INLINE_CAP];
        bytes[..8].copy_from_slice(&id.to_be_bytes());
        Key(Repr::Inline { len: 8, bytes })
    }

    /// Build a key from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        if bytes.len() <= INLINE_CAP {
            Key::from(bytes.as_slice())
        } else {
            Key(Repr::Heap(bytes.into_boxed_slice()))
        }
    }

    /// The numeric key id: the first 8 bytes interpreted as a big-endian
    /// integer (shorter keys are zero-padded on the right).
    ///
    /// For keys produced by [`Key::from_id`] this is the exact inverse; for
    /// arbitrary byte keys it is an order-preserving prefix projection used
    /// only for bucketing approximations and routing — two distinct keys
    /// may share an id, so it never stands in for the key itself.
    pub fn id(&self) -> u64 {
        // The inline array is zero past `len`, so it is already padded.
        let padded: &[u8] = match &self.0 {
            Repr::Inline { bytes, .. } => bytes,
            Repr::Heap(bytes) => bytes,
        };
        let mut head = [0u8; 8];
        head.copy_from_slice(&padded[..8]);
        u64::from_be_bytes(head)
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Length of the key in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(bytes) => bytes.len(),
        }
    }

    /// True if the key is empty (the minimum possible key).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The smallest possible key.
    pub fn min() -> Self {
        Key(Repr::Inline {
            len: 0,
            bytes: [0; INLINE_CAP],
        })
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Zero padding makes the eight-byte prefix order-preserving: where
        // two ids differ the keys order the same way, so only keys that
        // agree on it (or are longer) pay for the byte comparison.
        self.id()
            .cmp(&other.id())
            .then_with(|| self.as_bytes().cmp(other.as_bytes()))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() == 8 {
            write!(f, "Key({})", self.id())
        } else {
            write!(f, "Key({:02x?})", self.as_bytes())
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() == 8 {
            write!(f, "{}", self.id())
        } else {
            write!(f, "{:02x?}", self.as_bytes())
        }
    }
}

impl From<u64> for Key {
    fn from(id: u64) -> Self {
        Key::from_id(id)
    }
}

impl From<Vec<u8>> for Key {
    fn from(bytes: Vec<u8>) -> Self {
        Key::from_bytes(bytes)
    }
}

impl From<&[u8]> for Key {
    /// Copy a key out of a borrowed buffer (a wire frame): a short key
    /// goes straight into the inline form, with no intermediate `Vec`.
    fn from(slice: &[u8]) -> Self {
        if slice.len() <= INLINE_CAP {
            let mut bytes = [0u8; INLINE_CAP];
            bytes[..slice.len()].copy_from_slice(slice);
            Key(Repr::Inline {
                len: slice.len() as u8,
                bytes,
            })
        } else {
            Key(Repr::Heap(slice.into()))
        }
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_bytes;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn id_round_trips() {
        for id in [0u64, 1, 42, u64::MAX, 1 << 40] {
            assert_eq!(Key::from_id(id).id(), id);
        }
    }

    #[test]
    fn lexicographic_order_matches_numeric_order() {
        let mut ids = vec![5u64, 0, 100, 99, u64::MAX, 1 << 33];
        let mut keys: Vec<Key> = ids.iter().copied().map(Key::from_id).collect();
        ids.sort_unstable();
        keys.sort();
        let sorted_ids: Vec<u64> = keys.iter().map(Key::id).collect();
        assert_eq!(sorted_ids, ids);
    }

    #[test]
    fn short_keys_pad_for_id() {
        let key = Key::from_bytes(vec![0x01]);
        assert_eq!(key.id(), 0x0100_0000_0000_0000);
    }

    #[test]
    fn min_key_sorts_first() {
        assert!(Key::min() < Key::from_id(0));
        assert!(Key::min().is_empty());
    }

    #[test]
    fn conversions_and_as_ref() {
        let k: Key = 7u64.into();
        assert_eq!(k.id(), 7);
        let k2: Key = vec![1, 2, 3].into();
        assert_eq!(k2.as_ref(), &[1, 2, 3]);
        assert_eq!(k2.len(), 3);
    }

    /// Byte strings of every length 0..=64 — both representations and the
    /// boundary on either side — over a three-symbol alphabet for half of
    /// them, so pairs share prefixes and differ by length, by a trailing
    /// zero, or past the eighth byte.
    fn samples() -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for round in 0..6u64 {
            for len in 0..=64usize {
                let mut bytes = seeded_bytes(round * 1_000 + len as u64, len);
                if round % 2 == 0 {
                    for b in &mut bytes {
                        *b = [0x00, 0x01, 0xFF][*b as usize % 3];
                    }
                }
                out.push(bytes);
            }
        }
        out
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn a_key_fits_three_words() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert_eq!(std::mem::size_of::<Option<Key>>(), 24);
    }

    #[test]
    fn keys_round_trip_their_bytes_in_both_representations() {
        for bytes in samples() {
            let key = Key::from_bytes(bytes.clone());
            assert_eq!(key.as_bytes(), &bytes[..]);
            assert_eq!(key.len(), bytes.len());
            assert_eq!(key.is_empty(), bytes.is_empty());
            assert_eq!(key.clone(), key);
            assert_eq!(Key::from(&bytes[..]), key);
            assert_eq!(Key::from(bytes.clone()), key);
            let mut padded = [0u8; 8];
            let n = bytes.len().min(8);
            padded[..n].copy_from_slice(&bytes[..n]);
            assert_eq!(key.id(), u64::from_be_bytes(padded));
        }
        assert_eq!(
            Key::from_id(7),
            Key::from_bytes(7u64.to_be_bytes().to_vec())
        );
    }

    #[test]
    fn eq_ord_and_hash_are_those_of_the_bytes() {
        let samples = samples();
        let keys: Vec<Key> = samples.iter().cloned().map(Key::from_bytes).collect();
        for (a, ka) in samples.iter().zip(&keys) {
            // What `Vec<u8>` (the old representation) and `[u8]` (what a
            // key borrows as) feed a hasher.
            assert_eq!(hash_of(ka), hash_of(a));
            assert_eq!(hash_of(ka), hash_of(&a[..]));
            for (b, kb) in samples.iter().zip(&keys) {
                assert_eq!(ka == kb, a == b, "{a:?} == {b:?}");
                assert_eq!(ka.cmp(kb), a.cmp(b), "{a:?} <=> {b:?}");
                assert_eq!(ka.partial_cmp(kb), a.partial_cmp(b));
            }
        }
    }

    #[test]
    fn maps_keyed_by_key_are_searchable_by_slice() {
        let samples = samples();
        let hashed: HashMap<Key, usize> = samples
            .iter()
            .enumerate()
            .map(|(i, bytes)| (Key::from_bytes(bytes.clone()), i))
            .collect();
        let ordered: BTreeMap<Key, usize> = hashed.iter().map(|(k, i)| (k.clone(), *i)).collect();
        for bytes in &samples {
            // Duplicate samples keep the last index: compare contents.
            let by_hash = *hashed.get(&bytes[..]).expect("hash lookup by &[u8]");
            let by_order = *ordered.get(&bytes[..]).expect("ordered lookup by &[u8]");
            assert_eq!(&samples[by_hash], bytes);
            assert_eq!(&samples[by_order], bytes);
        }
        assert!(!hashed.contains_key(&[9u8; 70][..]));
        let in_order: Vec<&[u8]> = ordered.keys().map(Key::as_bytes).collect();
        let mut sorted: Vec<&[u8]> = samples.iter().map(Vec::as_slice).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(in_order, sorted);
    }

    #[test]
    fn debug_and_display_text_is_unchanged() {
        for bytes in samples() {
            let key = Key::from_bytes(bytes.clone());
            let (debug, display) = if bytes.len() == 8 {
                (format!("Key({})", key.id()), format!("{}", key.id()))
            } else {
                (format!("Key({bytes:02x?})"), format!("{bytes:02x?}"))
            };
            assert_eq!(format!("{key:?}"), debug);
            assert_eq!(format!("{key}"), display);
        }
        assert_eq!(
            format!("{:?}", Key::from_bytes(b"ab".to_vec())),
            "Key([61, 62])"
        );
    }

    #[test]
    fn debug_formats_numeric_keys_compactly() {
        assert_eq!(format!("{:?}", Key::from_id(9)), "Key(9)");
        assert_eq!(format!("{}", Key::from_id(9)), "9");
    }
}
