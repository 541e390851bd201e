//! The point-lookup directory and the mirrored index built on it (see the
//! crate docs for why the mirror is kept).
//!
//! Probes are `&self`, so readers under the partition's read lock never
//! contend; all mutation happens with `&mut self` under the partition's
//! write lock, applied to the tree and the directory together.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use crate::{BTreeIndex, Range};

/// A point-lookup directory: one `HashMap`, one hash per probe.
///
/// The hasher is SipHash with fixed keys, and iteration is not exposed, so
/// nothing observable depends on a per-process random seed.
#[derive(Debug, Clone)]
pub struct HashDirectory<K, V> {
    map: HashMap<K, V, BuildHasherDefault<DefaultHasher>>,
}

impl<K: Hash + Eq, V> Default for HashDirectory<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V> HashDirectory<K, V> {
    /// Create an empty directory.
    pub fn new() -> Self {
        HashDirectory {
            map: HashMap::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the directory holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `O(1)` point lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// True if the directory contains `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert or replace an entry, returning the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.map.insert(key, value)
    }

    /// Remove an entry, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key)
    }
}

/// An ordered index with a point-lookup fast path: a [`BTreeIndex`] for
/// range scans plus a [`HashDirectory`] mirror consulted for point reads.
///
/// Every mutation updates both structures, so the directory is never stale
/// with respect to the tree; `get`/`contains_key` cost one hash probe
/// instead of a root-to-leaf walk, while `range_from` keeps the tree's
/// ordered iteration. Values are stored in both structures (`V: Clone`),
/// which is cheap for the slab-address entries PrismDB indexes.
#[derive(Debug, Clone)]
pub struct FastIndex<K, V> {
    tree: BTreeIndex<K, V>,
    point: HashDirectory<K, V>,
}

impl<K: Ord + Hash + Eq + Clone, V: Clone> Default for FastIndex<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Hash + Eq + Clone, V: Clone> FastIndex<K, V> {
    /// Create an empty index.
    pub fn new() -> Self {
        FastIndex {
            tree: BTreeIndex::new(),
            point: HashDirectory::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// `O(1)` point lookup via the hash directory.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.point.get(key)
    }

    /// `O(1)` membership test via the hash directory.
    pub fn contains_key(&self, key: &K) -> bool {
        self.point.contains_key(key)
    }

    /// Insert or replace an entry in both structures.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.tree.insert(key.clone(), value.clone());
        let previous = self.point.insert(key, value);
        debug_assert_eq!(self.tree.len(), self.point.len());
        previous
    }

    /// Remove an entry from both structures.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.tree.remove(key);
        let removed = self.point.remove(key);
        debug_assert_eq!(self.tree.len(), self.point.len());
        removed
    }

    /// Ordered iteration from `start` (inclusive, tree-backed).
    pub fn range_from<'a>(&'a self, start: &K) -> Range<'a, K, V> {
        self.tree.range(start..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace_remove() {
        let mut d: HashDirectory<u64, &str> = HashDirectory::new();
        assert!(d.is_empty());
        assert_eq!(d.insert(1, "a"), None);
        assert_eq!(d.insert(2, "b"), None);
        assert_eq!(d.insert(1, "c"), Some("a"));
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(&1), Some(&"c"));
        assert!(d.contains_key(&2));
        assert_eq!(d.get(&3), None);
        assert_eq!(d.remove(&1), Some("c"));
        assert_eq!(d.remove(&1), None);
        assert_eq!(d.len(), 1);
    }
}
