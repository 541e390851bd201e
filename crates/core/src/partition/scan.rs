use prism_flash::LogPosition;
use prism_types::{Key, Nanos, ReadSource, Value};

use super::read::Live;
use super::Partition;
use crate::engine::count;

/// One partition's resumable position in a scan. The engine's merge owns
/// one per partition it visits and lends it to [`Partition::scan_pull`]
/// under a short read lock; no lock is held between pulls, so the cursor
/// resumes by key, the frontier — and, while the flash log's file list
/// stands, by its position in that log instead of a second search for the
/// same key. The scan's pinned sequence makes that consistent: a
/// key's version at the pin is the same whenever, and in whichever tier,
/// it is looked up, and a key written after the pin is invisible to it.
#[derive(Debug, Default)]
pub(crate) struct ScanCursor {
    /// Lower bound of this partition's keys not yet examined; `None` once
    /// there are none.
    frontier: Option<Key>,
    /// Where the flash log's first entry at or above the frontier was when
    /// the cursor was parked: always `log.seek(frontier)` of that moment,
    /// so the next pull takes it instead of seeking. The log refuses it
    /// once a compaction, scrub rebuild or recovery has changed the list.
    pub(super) flash: Option<LogPosition>,
    /// Consumption so far, charged once by [`Partition::scan_charge`].
    pub(super) resolved: u64,
    pub(super) emitted: u64,
    pub(super) nvm_reads: u64,
    pub(super) flash_bytes: u64,
}

/// One partition's charge for its part of a scan, split by what may
/// overlap: `cpu` adds up across partitions, `device` may be in flight
/// beside other partitions' reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanCharge {
    pub(crate) cpu: Nanos,
    pub(crate) device: Nanos,
}

impl ScanCursor {
    pub(crate) fn new(start: &Key) -> Self {
        ScanCursor {
            frontier: Some(start.clone()),
            ..ScanCursor::default()
        }
    }

    pub(crate) fn frontier(&self) -> Option<&Key> {
        self.frontier.as_ref()
    }
}

impl Partition {
    /// Advance one partition's part of a scan as of a pinned snapshot
    /// sequence: a lazy three-way merge of the NVM index, the flash log
    /// and the history buffer (keys whose only `<= pinned` version was
    /// superseded may live nowhere else), resumed at `cursor`'s frontier.
    /// Appends to `out`, in key order, each visible entry with a key
    /// `<= bound` (every remaining one when `None`) until `out` holds
    /// `limit`, then parks the frontier on the first key not examined.
    /// A record is read — checksum verified, value shared, bytes counted
    /// towards [`Partition::scan_charge`] — only when its key is taken.
    /// Takes `&self` under a single partition read lock.
    pub(crate) fn scan_pull(
        &self,
        cursor: &mut ScanCursor,
        bound: Option<&Key>,
        pinned: u64,
        limit: usize,
        out: &mut Vec<(Key, Value)>,
    ) {
        let Some(start) = cursor.frontier.take() else {
            return;
        };
        let mut nvm = self.volatile.index().range::<Key, _>(&start..).peekable();
        let mut flash = self.durable.log().resume(cursor.flash.take(), &start);
        let mut hist = self.volatile.history.range::<Key, _>(&start..).peekable();
        loop {
            let on_flash = self.durable.log().entry_at(&mut flash);
            let heads = [
                nvm.peek().map(|(k, _)| *k),
                on_flash.map(|e| &e.0),
                hist.peek().map(|(k, _)| *k),
            ];
            let Some(key) = heads.into_iter().flatten().min() else {
                return;
            };
            if out.len() >= limit || bound.is_some_and(|b| key > b) {
                // Every flash entry taken so far was below `key` and the
                // flash head is not: `flash` is where a seek of the new
                // frontier would land.
                cursor.frontier = Some(key.clone());
                cursor.flash = Some(flash);
                return;
            }
            cursor.resolved += 1;

            // Live version at this key: NVM wins over flash. A damaged one
            // is counted here and judged by the reader rule below.
            let mut live = None;
            let on_nvm = nvm.next_if(|(k, _)| *k == key);
            if let Some((_, entry)) = on_nvm {
                let ts = entry.timestamp;
                if entry.tombstone {
                    live = Some(Live::Clean(ReadSource::Nvm, ts, None));
                } else if let Some(slot) = self.durable.slab().peek(entry.addr) {
                    live = Some(if slot.verify() {
                        cursor.nvm_reads += 1;
                        Live::Clean(ReadSource::Nvm, ts, slot.version.value.clone())
                    } else {
                        self.note_checksum_failure();
                        Live::Damaged(Some(ts))
                    });
                }
            }
            if let Some((_, entry)) = on_flash.filter(|e| &e.0 == key) {
                flash.advance();
                if on_nvm.is_none() {
                    live = Some(if entry.verify() {
                        if let Some(v) = &entry.value {
                            cursor.flash_bytes += (v.len() + key.len()) as u64;
                        }
                        Live::Clean(ReadSource::Flash, entry.timestamp, entry.value.clone())
                    } else {
                        self.note_checksum_failure();
                        Live::Damaged(None)
                    });
                }
            }
            hist.next_if(|(k, _)| *k == key);

            // A refused key is skipped, never served from an older version.
            if let Ok(Some(value)) = self.visible_at(key, live, pinned) {
                out.push((key.clone(), value));
                cursor.emitted += 1;
            }
        }
    }

    /// Charge a finished scan for what `cursor` consumed here, once per
    /// partition per scan however many pulls it took, in two parts. The
    /// CPU part is the request, the index seek and the merge CPU per entry
    /// emitted: the one thread that runs the merge pays it. The device part
    /// is the NVM pages (four values to a page) and one sequential flash
    /// read of the record bytes taken: a read the engine may have in flight
    /// beside other partitions' (see `PrismDb::snapshot_scan_parts`). The
    /// partition's foreground clock still advances by both.
    pub(crate) fn scan_charge(&self, cursor: &ScanCursor) -> ScanCharge {
        let cpu = self.cpu.request_overhead
            + self.cpu.index_op
            + self.cpu.merge_per_object * cursor.emitted;
        let mut device = Nanos::ZERO;
        if cursor.nvm_reads > 0 {
            device += self
                .nvm_dev
                .read_random(4096 * cursor.nvm_reads.div_ceil(4));
        }
        if cursor.flash_bytes > 0 {
            device += self.flash_dev.read_sequential(cursor.flash_bytes);
        }
        count(&self.stats.scan_entries_resolved, cursor.resolved);
        count(&self.stats.scan_entries_returned, cursor.emitted);
        self.advance_fg(cpu + device);
        ScanCharge { cpu, device }
    }
}
