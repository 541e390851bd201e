//! Operation descriptions and operation results.

use crate::{Key, Nanos, Value};

/// Where a read was ultimately served from.
///
/// The paper's Figure 2b breaks RocksDB reads down by source (memtable,
/// block cache, LSM level) and Figure 14a compares read-latency CDFs, both
/// of which need per-read source attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadSource {
    /// Served from DRAM (engine object cache, memtable, or block cache).
    Dram,
    /// Served from the fast NVM tier (slab file or NVM-resident LSM level).
    Nvm,
    /// Served from the slow flash tier (SST data block read from flash).
    Flash,
    /// The key was not found on any tier.
    NotFound,
}

/// Result of a point lookup.
#[derive(Debug, Clone)]
pub struct Lookup {
    /// The value, if the key exists.
    pub value: Option<Value>,
    /// Simulated service time of the lookup.
    pub latency: Nanos,
    /// Which tier served the read.
    pub source: ReadSource,
}

impl Lookup {
    /// True if a value was found.
    pub fn found(&self) -> bool {
        self.value.is_some()
    }
}

/// Result of a range scan.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// The key-value pairs, in ascending key order.
    pub entries: Vec<(Key, Value)>,
    /// Simulated service time of the whole scan.
    pub latency: Nanos,
}

/// The kind of a client operation, used for per-type latency breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Blind update of an existing key.
    Update,
    /// Insert of a new key.
    Insert,
    /// Read-modify-write (YCSB-F).
    ReadModifyWrite,
    /// Range scan (YCSB-E).
    Scan,
    /// Delete.
    Delete,
}

/// A single client operation produced by a workload generator.
#[derive(Debug, Clone)]
pub enum Op {
    /// Point read of a key.
    Read(Key),
    /// Update an existing key with a new value.
    Update(Key, Value),
    /// Insert a fresh key.
    Insert(Key, Value),
    /// Read the key then write back a modified value of the same size.
    ReadModifyWrite(Key, Value),
    /// Scan `count` keys starting at the given key.
    Scan(Key, usize),
    /// Delete a key.
    Delete(Key),
}

impl Op {
    /// The kind of this operation.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Read(_) => OpKind::Read,
            Op::Update(_, _) => OpKind::Update,
            Op::Insert(_, _) => OpKind::Insert,
            Op::ReadModifyWrite(_, _) => OpKind::ReadModifyWrite,
            Op::Scan(_, _) => OpKind::Scan,
            Op::Delete(_) => OpKind::Delete,
        }
    }

    /// The key this operation targets.
    pub fn key(&self) -> &Key {
        match self {
            Op::Read(k)
            | Op::Update(k, _)
            | Op::Insert(k, _)
            | Op::ReadModifyWrite(k, _)
            | Op::Scan(k, _)
            | Op::Delete(k) => k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_accessors() {
        let key = Key::from_id(3);
        let ops = vec![
            Op::Read(key.clone()),
            Op::Update(key.clone(), Value::filled(8, 0)),
            Op::Insert(key.clone(), Value::filled(8, 0)),
            Op::ReadModifyWrite(key.clone(), Value::filled(8, 0)),
            Op::Scan(key.clone(), 10),
            Op::Delete(key.clone()),
        ];
        let kinds: Vec<OpKind> = ops.iter().map(Op::kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::Read,
                OpKind::Update,
                OpKind::Insert,
                OpKind::ReadModifyWrite,
                OpKind::Scan,
                OpKind::Delete
            ]
        );
        for op in &ops {
            assert_eq!(op.key(), &key);
        }
    }

    #[test]
    fn lookup_helpers() {
        let miss = Lookup {
            value: None,
            latency: Nanos::from_micros(1),
            source: ReadSource::NotFound,
        };
        assert!(!miss.found());
        assert_eq!(miss.source, ReadSource::NotFound);
    }
}
