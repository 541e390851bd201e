//! Value representation.

use std::fmt;

use bytes::Bytes;

/// A value stored in the database.
///
/// Values are immutable byte buffers backed by [`bytes::Bytes`], so cloning
/// a value (e.g. when serving it from a cache and from NVM) is a cheap
/// reference-count bump rather than a copy — the same property real engines
/// get from slice-owning block caches.
///
/// # Example
///
/// ```
/// use prism_types::Value;
///
/// let v = Value::filled(1024, 0x5A);
/// assert_eq!(v.len(), 1024);
/// assert!(v.as_bytes().iter().all(|&b| b == 0x5A));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Value(Bytes);

impl Value {
    /// Build a value from a byte vector.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Value(Bytes::from(bytes))
    }

    /// Build a value of `len` bytes all set to `fill`.
    ///
    /// Workload generators use this to produce objects of the sizes the
    /// paper evaluates (1 KB for YCSB, 102 B / 370 B for the Twitter
    /// traces) without paying for random content generation.
    pub fn filled(len: usize, fill: u8) -> Self {
        Value(Bytes::from(vec![fill; len]))
    }

    /// An empty value (used for delete tombstones in some engines).
    pub fn empty() -> Self {
        Value(Bytes::new())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the value holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value({} bytes)", self.0.len())
    }
}

impl From<Vec<u8>> for Value {
    fn from(bytes: Vec<u8>) -> Self {
        Value::from_vec(bytes)
    }
}

impl From<&[u8]> for Value {
    fn from(bytes: &[u8]) -> Self {
        Value(Bytes::copy_from_slice(bytes))
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_has_requested_size_and_content() {
        let v = Value::filled(37, 3);
        assert_eq!(v.len(), 37);
        assert!(v.as_bytes().iter().all(|&b| b == 3));
        assert!(!v.is_empty());
    }

    #[test]
    fn empty_value() {
        let v = Value::empty();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn conversions() {
        let v: Value = vec![1, 2, 3].into();
        assert_eq!(v.as_bytes(), &[1, 2, 3]);
        let v2: Value = (&[9u8, 8][..]).into();
        assert_eq!(v2.as_ref(), &[9, 8]);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let v = Value::filled(4096, 1);
        let c = v.clone();
        assert_eq!(v, c);
        assert_eq!(format!("{:?}", c), "Value(4096 bytes)");
    }
}
