//! The manifest: live-file tracking with deferred reclamation.
//!
//! Like RocksDB, PrismDB keeps an on-disk manifest listing the partition's
//! live SST files so recovery can reconstruct a consistent view of the flash
//! database, and uses reference counting so a file replaced by compaction is
//! only deleted once no in-flight `Get`/`Scan` still reads it (§6 of the
//! paper). In this reproduction readers hold `Arc<SstFile>` clones, so the
//! strong count plays the role of the reference count.

use std::collections::BTreeMap;
use std::sync::Arc;

use prism_storage::Device;
use prism_types::{PrismError, Result};

use crate::sst::{FileId, SstFile};

/// Registry of live SST files plus a deferred-deletion list for files that
/// still have readers.
#[derive(Debug, Default)]
pub struct Manifest {
    live: BTreeMap<FileId, Arc<SstFile>>,
    obsolete: Vec<Arc<SstFile>>,
    next_file_id: FileId,
}

impl Manifest {
    /// An empty manifest.
    pub fn new() -> Self {
        Manifest {
            live: BTreeMap::new(),
            obsolete: Vec::new(),
            next_file_id: 1,
        }
    }

    /// Allocate the next SST file id.
    pub fn allocate_file_id(&mut self) -> FileId {
        let id = self.next_file_id;
        self.next_file_id += 1;
        id
    }

    /// Record a new live file.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::Corruption`] if a file with the same id is
    /// already live.
    pub fn add_file(&mut self, file: Arc<SstFile>) -> Result<()> {
        let id = file.id();
        if self.live.insert(id, file).is_some() {
            return Err(PrismError::Corruption(format!(
                "manifest already contains live file {id}"
            )));
        }
        Ok(())
    }

    /// Remove a file from the live set. The file's space is reclaimed later
    /// by [`Manifest::collect_garbage`] once no reader holds it.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::Corruption`] if the file is not live.
    pub fn remove_file(&mut self, id: FileId) -> Result<()> {
        match self.live.remove(&id) {
            Some(file) => {
                self.obsolete.push(file);
                Ok(())
            }
            None => Err(PrismError::Corruption(format!(
                "manifest removal of unknown file {id}"
            ))),
        }
    }

    /// True if `id` is currently live.
    pub fn is_live(&self, id: FileId) -> bool {
        self.live.contains_key(&id)
    }

    /// Number of live files.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Number of files waiting for their last reader before deletion.
    pub fn obsolete_count(&self) -> usize {
        self.obsolete.len()
    }

    /// The live files, in file-id order.
    pub fn live_files(&self) -> impl Iterator<Item = &Arc<SstFile>> {
        self.live.values()
    }

    /// Reclaim obsolete files that no longer have outside readers, releasing
    /// their space on `device`. Returns the number of bytes freed.
    ///
    /// A file is reclaimable when the manifest holds the only remaining
    /// `Arc` reference (strong count of 1).
    pub fn collect_garbage(&mut self, device: &Arc<Device>) -> u64 {
        let mut freed = 0u64;
        self.obsolete.retain(|file| {
            if Arc::strong_count(file) == 1 {
                freed += file.size_bytes();
                device.release(file.size_bytes());
                false
            } else {
                true
            }
        });
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::{SstBuilder, SstEntry};
    use prism_storage::DeviceProfile;
    use prism_types::{Key, Value};

    fn make_file(device: &Arc<Device>, id: FileId, n: u64) -> Arc<SstFile> {
        let mut b = SstBuilder::new(id);
        for i in 0..n {
            b.add(
                Key::from_id(id * 1000 + i),
                SstEntry::value(Value::filled(100, 0), i),
            );
        }
        Arc::new(b.finish(device).0)
    }

    #[test]
    fn add_remove_and_edit_log() {
        let device = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
        let mut manifest = Manifest::new();
        let id1 = manifest.allocate_file_id();
        let id2 = manifest.allocate_file_id();
        assert_ne!(id1, id2);
        let f1 = make_file(&device, id1, 10);
        let f2 = make_file(&device, id2, 10);
        manifest.add_file(f1).unwrap();
        manifest.add_file(f2).unwrap();
        assert_eq!(manifest.live_count(), 2);
        assert!(manifest.is_live(id1));
        manifest.remove_file(id1).unwrap();
        assert!(!manifest.is_live(id1));
        assert_eq!(manifest.obsolete_count(), 1);
    }

    #[test]
    fn duplicate_add_and_unknown_remove_are_errors() {
        let device = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
        let mut manifest = Manifest::new();
        let id = manifest.allocate_file_id();
        let f = make_file(&device, id, 5);
        manifest.add_file(f.clone()).unwrap();
        assert!(manifest.add_file(f).is_err());
        assert!(manifest.remove_file(999).is_err());
    }

    #[test]
    fn garbage_collection_waits_for_readers() {
        let device = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
        let mut manifest = Manifest::new();
        let id = manifest.allocate_file_id();
        let f = make_file(&device, id, 50);
        let used_before = device.used_bytes();
        assert!(used_before > 0);
        manifest.add_file(f.clone()).unwrap();
        manifest.remove_file(id).unwrap();

        // A concurrent reader (the clone `f`) still holds the file: no space
        // may be reclaimed yet.
        assert_eq!(manifest.collect_garbage(&device), 0);
        assert_eq!(manifest.obsolete_count(), 1);
        assert_eq!(device.used_bytes(), used_before);

        drop(f);
        let freed = manifest.collect_garbage(&device);
        assert!(freed > 0);
        assert_eq!(manifest.obsolete_count(), 0);
        assert_eq!(device.used_bytes(), 0);
    }

    #[test]
    fn live_files_iterates_in_id_order() {
        let device = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 30)));
        let mut manifest = Manifest::new();
        let ids: Vec<FileId> = (0..5).map(|_| manifest.allocate_file_id()).collect();
        for &id in ids.iter().rev() {
            manifest.add_file(make_file(&device, id, 3)).unwrap();
        }
        let live_ids: Vec<FileId> = manifest.live_files().map(|f| f.id()).collect();
        assert_eq!(live_ids, ids);
    }
}
