use prism_storage::FaultTier;
use prism_types::Nanos;

use super::{Partition, Volatile};

impl Partition {
    /// Simulate a crash followed by recovery. The crash drops the whole
    /// [`Volatile`] part; recovery installs an empty one and rebuilds it
    /// from the [`super::Durable`] part: the index from a scan of the NVM
    /// slabs, keeping only the newest timestamp per key, and the bucket
    /// map's residency bits from that index plus the sorted log's files. The [`super::Lifetime`]
    /// part carries on. Recovery re-installs the surviving file list, so the log takes
    /// a new generation: any in-flight background compaction job is
    /// thereby aborted (its install is a no-op), and since execution never
    /// mutates partition state the partition recovers to exactly its last
    /// installed state. Returns the simulated recovery time.
    pub(crate) fn crash_and_recover(&mut self) -> Nanos {
        // A debug build checks that the index and the bucket map the crash
        // drops equal the ones recovery rebuilds below, and checks those
        // again once recovery has resolved the damage it found.
        debug_assert_eq!(self.check_invariants(), Ok(()), "partition {}", self.id);
        // What DRAM held goes before the scan below allocates, so a lost
        // index and a rebuilt one are never held together. Snapshots
        // pinned across a crash lose their preserved versions (a snapshot
        // read may then see a key as absent, never a stale value — live
        // versions with `seq <= pinned` are by definition the pinned-time
        // state).
        self.volatile = Volatile::new(&self.options, self.id, &self.nvm_dev, &self.flash_dev);
        self.swap_files(&[], Vec::new());

        let cost = self.durable.slab().recovery_scan_cost();
        let (slots, records, max_ts) = self.rebuild_mirrors();
        // The cache is empty now, so no damage is repaired: a damaged slot
        // quarantines its key, a damaged record unless a slot hides it.
        for key in slots {
            self.note_checksum_failure();
            self.resolve_damage(&key, FaultTier::Nvm);
        }
        for key in records {
            self.note_checksum_failure();
            self.resolve_damage(&key, FaultTier::Flash);
        }
        // The threshold counts durable sentinels: a partition a clean scrub
        // re-armed over as many as it allows degrades again.
        self.maybe_degrade();
        debug_assert_eq!(
            self.check_invariants(),
            Ok(()),
            "partition {} rebuilt",
            self.id
        );
        // The commit clock is rebuilt from the largest persisted
        // sequence; it never moves backwards, so sequences are not
        // reused even when flash holds later versions than the slabs.
        self.seq.advance_past(max_ts);
        self.advance_fg(cost);
        cost
    }
}
