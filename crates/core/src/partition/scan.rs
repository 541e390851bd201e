use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

use prism_flash::{LogPosition, SstFile};
use prism_nvm::SlotEntry;
use prism_types::{Key, Nanos, ReadSource, Value};

use super::read::{Live, Seen};
use super::Partition;
use crate::engine::count;

/// One partition's resumable position in a scan, and the keys it has
/// resolved that the merge has not taken yet. The engine's merge owns one
/// per partition it visits and lends it to [`Partition::scan_pull`] under
/// a short read lock, which fills the buffer; the merge takes the entries
/// one at a time, in key order across cursors, with no lock held. A
/// cursor resumes by key, the frontier — and, while the flash log's file
/// list stands, by its position in that log instead of a second search
/// for the same key. The scan's pinned sequence makes that consistent: a
/// key's version at the pin is the same whenever, and in whichever tier,
/// it is looked up, and a key written after the pin is invisible to it.
///
/// A pull reads no value. It copies an NVM slot under the lock (the slab
/// reuses slots once it is gone) and leaves a flash record in its file,
/// which never changes; either is read — checksum verified, value shared
/// — when [`ScanCursor::take`] hands it to the merge, in the scan's key
/// order, and a key the scan ends before is never read. What reading a
/// key cost, and whether it failed its checksum, is counted only when it
/// is taken, so what a pull resolved past the scan's end is dropped with
/// the cursor, uncharged and unseen.
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
    /// Resolved keys below the frontier, in key order, not yet taken.
    buffer: VecDeque<Pulled>,
    /// The flash files of the records pulled so far. The cursor lets go of
    /// them under the partition's lock ([`Partition::scan_charge`]), so a
    /// file an install retired meanwhile is freed with its last reader.
    files: Vec<Arc<SstFile>>,
    /// Consumption so far, charged once by [`Partition::scan_charge`].
    pub(super) resolved: u64,
    pub(super) emitted: u64,
    pub(super) nvm_reads: u64,
    pub(super) flash_bytes: u64,
    /// Versions taken that failed their checksums.
    damaged: u64,
}

/// One key a pull resolved.
#[derive(Debug)]
struct Pulled {
    key: Key,
    read: Read,
}

/// What a pulled key's live version is, and what the pin sees of the key.
#[derive(Debug)]
enum Read {
    /// Nothing to read: an NVM tombstone, or a key only the history holds.
    /// What the pin sees of it.
    Judged(Option<Value>),
    /// The key's NVM slot, copied under the lock, and what the pin sees if
    /// it checks out (`Seen::Live`: the slot's value).
    Slot { slot: SlotEntry, seen: Seen<()> },
    /// A flash record: its file in [`ScanCursor::files`], its index there,
    /// and what the pin sees if it checks out (`Seen::Live`: the record's
    /// value). A damaged record is refused to every pin.
    Flash {
        file: usize,
        index: usize,
        seen: Seen<()>,
    },
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

    #[cfg(test)]
    pub(crate) fn frontier(&self) -> Option<&Key> {
        self.frontier.as_ref()
    }

    /// Take every buffered entry, as the merge would, and append the
    /// visible ones to `out`.
    #[cfg(test)]
    pub(crate) fn take_all(&mut self, out: &mut Vec<(Key, Value)>) {
        while let Some((key, value)) = self.take() {
            out.extend(value.map(|value| (key, value)));
        }
    }

    /// The id ([`Key::id`]) of the lowest key this cursor can still
    /// yield: its buffer's first entry, or the frontier once the buffer is
    /// empty. `None` when the partition has nothing left. A key's partition
    /// is a function of its id, so no two partitions hold keys of one id
    /// and the merge orders cursors by this alone.
    pub(crate) fn head(&self) -> Option<u64> {
        let buffered = self.buffer.front().map(|pulled| &pulled.key);
        buffered.or(self.frontier.as_ref()).map(Key::id)
    }

    /// Whether the cursor still holds flash files: see
    /// [`Partition::scan_charge`].
    pub(crate) fn holds_files(&self) -> bool {
        !self.files.is_empty()
    }

    fn let_go(&mut self) {
        self.buffer.clear();
        self.files.clear();
    }

    /// Hand the buffer's first entry to the merge: verify its NVM slot or
    /// flash record, count what reading the key cost, and return the key
    /// with what the pin sees of it (`None`: skip it). `None` when the
    /// buffer is empty — the next entry needs a pull.
    pub(crate) fn take(&mut self) -> Option<(Key, Option<Value>)> {
        let Pulled { key, read } = self.buffer.pop_front()?;
        self.resolved += 1;
        let value = match read {
            Read::Judged(value) => value,
            Read::Slot { slot, seen } => {
                let clean = slot.verify();
                match clean {
                    true => self.nvm_reads += 1,
                    false => self.damaged += 1,
                }
                // A damaged slot hides older versions from a pin that
                // covers it; a pin before it reads the history's.
                match seen {
                    Seen::Live(()) => slot.version.value.filter(|_| clean),
                    Seen::Kept(kept) => kept,
                }
            }
            Read::Flash { file, index, seen } => {
                let (_, version) = self.files[file].record(index);
                if version.verify() {
                    if let Some(value) = &version.value {
                        self.flash_bytes += (value.len() + key.len()) as u64;
                    }
                    match seen {
                        Seen::Live(()) => version.value.clone(),
                        Seen::Kept(kept) => kept,
                    }
                } else {
                    self.damaged += 1;
                    None
                }
            }
        };
        self.emitted += u64::from(value.is_some());
        Some((key, value))
    }
}

/// The lowest of the three sources' head keys (NVM, flash, history) and
/// which of them hold it: one comparison per further source, however many
/// hold the key.
fn lowest(heads: [Option<&Key>; 3]) -> Option<(&Key, [bool; 3])> {
    let mut lowest: Option<(&Key, [bool; 3])> = None;
    for (source, head) in heads.into_iter().enumerate() {
        let Some(head) = head else { continue };
        let mut only = [false; 3];
        only[source] = true;
        match &mut lowest {
            Some((key, holds)) => match head.cmp(key) {
                Ordering::Less => lowest = Some((head, only)),
                Ordering::Equal => holds[source] = true,
                Ordering::Greater => {}
            },
            None => lowest = Some((head, only)),
        }
    }
    lowest
}

impl Partition {
    /// Resolve the next `limit` keys of one partition's part of a scan
    /// into `cursor`'s buffer, as of a pinned snapshot sequence: a lazy
    /// three-way merge of the NVM index, the flash log and the history
    /// buffer (keys whose only `<= pinned` version was superseded may
    /// live nowhere else), resumed at `cursor`'s frontier, which it then
    /// parks on the first key not examined. Every key counts towards
    /// `limit`, visible or not, and is judged by the reader rule
    /// ([`Partition::visible_at`]); an NVM slot or a flash record is
    /// judged as if it checks out and verified only when the merge takes
    /// it. Takes `&self` under a single partition read lock.
    pub(crate) fn scan_pull(&self, cursor: &mut ScanCursor, pinned: u64, limit: usize) {
        let Some(start) = cursor.frontier.take() else {
            return;
        };
        let log = self.durable.log();
        let mut nvm = self.volatile.index().range::<Key, _>(&start..).peekable();
        let mut flash = log.resume(cursor.flash.take(), &start);
        let mut hist = self.volatile.history.range::<Key, _>(&start..).peekable();
        // Room for the pull, up to about the partition's share of the store.
        let share = self.options.expected_keys / self.options.num_partitions as u64;
        cursor.buffer.reserve(limit.min(share as usize));
        for pulled in 0.. {
            let on_flash = log.entry_at(&mut flash);
            let heads = [
                nvm.peek().map(|(k, _)| *k),
                on_flash.map(|e| &e.0),
                hist.peek().map(|(k, _)| *k),
            ];
            let Some((key, [at_nvm, at_flash, at_hist])) = lowest(heads) else {
                return;
            };
            if pulled == limit {
                // Every flash entry taken so far was below `key` and the
                // flash head is not: `flash` is where a seek of the new
                // frontier would land.
                cursor.frontier = Some(key.clone());
                cursor.flash = Some(flash);
                return;
            }

            // Live version at this key: NVM wins over flash. A refused key
            // is skipped, never served from an older version. A version to
            // read is judged as if it checks out; `take` verifies it.
            let judged = |live| self.visible_at(key, live, pinned).and_then(Seen::value);
            let seen = |source, ts| {
                self.visible_at(key, Some(Live::Clean(source, ts, ())), pinned)
                    .unwrap_or(Seen::Kept(None))
            };
            let on_nvm = at_nvm
                .then(|| nvm.next())
                .flatten()
                .map(|(_, index)| *index);
            let on_flash = on_flash.filter(|_| at_flash);
            let read = match (on_nvm, on_flash) {
                (Some(index), _) if index.tombstone => {
                    let live = Live::Clean(ReadSource::Nvm, index.timestamp, None);
                    Read::Judged(judged(Some(live)))
                }
                (Some(index), _) => match self.durable.slab().peek(index.addr) {
                    Some(slot) => Read::Slot {
                        slot: slot.clone(),
                        seen: seen(ReadSource::Nvm, index.timestamp),
                    },
                    None => Read::Judged(judged(None)),
                },
                (None, Some((_, record))) => {
                    let (file, index) = log.file_at(&flash);
                    let held = cursor.files.last();
                    if !held.is_some_and(|held| Arc::ptr_eq(held, file)) {
                        cursor.files.push(Arc::clone(file));
                    }
                    Read::Flash {
                        file: cursor.files.len() - 1,
                        index,
                        seen: seen(ReadSource::Flash, record.timestamp),
                    }
                }
                (None, None) => Read::Judged(judged(None)),
            };
            if on_flash.is_some() {
                flash.advance();
            }
            if at_hist {
                hist.next();
            }
            cursor.buffer.push_back(Pulled {
                key: key.clone(),
                read,
            });
        }
    }

    /// Charge a finished scan for what `cursor` consumed here, once per
    /// partition per scan however many pulls it took, in two parts. The
    /// CPU part is the request, the index seek and the merge CPU per entry
    /// emitted: the one thread that runs the merge pays it. The device part
    /// is the NVM pages (four values to a page) and one sequential flash
    /// read of the record bytes taken: a read the engine may have in flight
    /// beside other partitions' (see `PrismDb::snapshot_scan_parts`). The
    /// partition's foreground clock still advances by both. Each damaged
    /// version the merge took is counted here. The cursor then lets go of
    /// its flash files, unless the log keeps a retired file, which only
    /// [`Partition::scan_release`] may let go of.
    pub(crate) fn scan_charge(&self, cursor: &mut ScanCursor) -> ScanCharge {
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
        for _ in 0..cursor.damaged {
            self.note_checksum_failure();
        }
        self.advance_fg(cpu + device);
        if !self.durable.log().has_retired() {
            cursor.let_go();
        }
        ScanCharge { cpu, device }
    }

    /// Let go of the flash files a charged cursor still holds and free
    /// every retired one no reader holds any more: an install that
    /// retired a file the scan was reading left it to the last reader.
    pub(crate) fn scan_release(&mut self, cursor: &mut ScanCursor) {
        cursor.let_go();
        self.reclaim_files();
    }
}
