//! Scans return what the model returns, and read what they return.
//!
//! The engine answers a scan with one bounded merge over per-partition
//! cursors that resume by key between short read locks. Two contracts:
//!
//! * **Equivalence** — under `Hash` and under `Range`, `scan` equals a
//!   [`MemStore`] holding the same writes and `snapshot_scan` equals the
//!   model frozen at the pin, for any `(start, count)`: `count` of 0, 1,
//!   more than the key space and `usize::MAX`; a start past the last key;
//!   tombstones, overwritten keys, and keys whose only visible version
//!   sits in the history buffer because writes landed after the pin. NVM
//!   is far smaller than the data, so the writes between the pin and the
//!   scan run demotions and promotions. A record that fails its checksum
//!   is skipped and counted, never returned.
//! * **Work bound** — a `count = n` scan over `P` hash partitions resolves
//!   at most `n + 2P` entries and reads at most 1.5x the bytes it returns
//!   plus one block per partition from flash.
//! * **Accounting** — a fixed set of scans on a `Hash` and a `Range`
//!   store charges exactly the latency, entries and reads recorded in
//!   the test, and counts a damaged slot only when it reaches it.

use std::sync::Arc;

use proptest::prelude::*;

use prism_db::{
    FaultMode, FaultOp, FaultPlan, FaultTier, Options, Partitioning, PrismDb, TargetedFault,
};
use prism_types::{
    ConcurrentKvStore, EngineStats, Key, KvStore, MemStore, PrismError, Value, WriteBatch,
};

const KEY_SPACE: u64 = 400;
const PARTITIONS: usize = 4;
const BOTH: [Partitioning; 2] = [Partitioning::Hash, Partitioning::Range];

fn small_db(partitioning: Partitioning) -> PrismDb {
    let mut options = Options::scaled_default(KEY_SPACE);
    options.num_partitions = PARTITIONS;
    options.partitioning = partitioning;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    // NVM much smaller than the dataset: most keys live on flash and the
    // writes after the pin move versions between the tiers.
    options.nvm_capacity_bytes = 96 * 1024;
    PrismDb::open(options).expect("valid options")
}

/// `(op, id, size)`: op 0–1 = put, 2 = delete, 3 = a four-key batch.
fn op_strategy() -> impl Strategy<Value = (u8, u64, usize)> {
    (0u8..4, 0u64..KEY_SPACE, 1usize..900)
}

/// A key universe where every [`Key::id`] is shared by four distinct
/// keys: of four consecutive ids the first is the plain 8-byte key, the
/// next two append one byte to its bytes (still inline) and the last
/// appends twenty (spilled to the heap).
fn mixed_key(id: u64) -> Key {
    let mut bytes = (id - id % 4).to_be_bytes().to_vec();
    match id % 4 {
        0 => {}
        1 => bytes.push(b'A'),
        2 => bytes.push(b'B'),
        _ => bytes.extend_from_slice(&[0x42; 20]),
    }
    Key::from_bytes(bytes)
}

type KeyOf = fn(u64) -> Key;

fn apply(db: &PrismDb, model: &mut MemStore, (op, id, size): (u8, u64, usize), key_of: KeyOf) {
    match op {
        0 | 1 => {
            let value = Value::filled(size, id as u8);
            db.put(key_of(id), value.clone()).unwrap();
            model.put(key_of(id), value).unwrap();
        }
        2 => {
            db.delete(&key_of(id)).unwrap();
            model.delete(&key_of(id)).unwrap();
        }
        _ => {
            // Three keys a third of the key space apart, and the first
            // one's successor: under `mixed_key` usually a neighbour
            // sharing its eight-byte prefix, in the same batch.
            let mut batch = WriteBatch::new();
            for kid in [0, 1, KEY_SPACE / 3, 2 * (KEY_SPACE / 3)].map(|d| (id + d) % KEY_SPACE) {
                batch.put(key_of(kid), Value::filled(size, kid as u8));
            }
            ConcurrentKvStore::apply_batch(db, batch.clone()).unwrap();
            model.apply_batch(batch).unwrap();
        }
    }
}

/// `(start id, kind, some)`: start ids run past the last key, and `kind`
/// draws the edge counts as often as an ordinary one (see [`count_of`]).
fn query_strategy() -> impl Strategy<Value = (u64, u8, usize)> {
    (0u64..KEY_SPACE + 40, 0u8..6, 2usize..120)
}

fn count_of(kind: u8, some: usize) -> usize {
    match kind {
        0 => 0,
        1 => 1,
        2 => KEY_SPACE as usize + 50,
        3 => usize::MAX,
        _ => some,
    }
}

fn model_scan(model: &MemStore, start: &Key, count: usize) -> Vec<(Key, Value)> {
    model.clone().scan(start, count).unwrap().entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scans_equal_the_model_under_both_partitionings(
        before in prop::collection::vec(op_strategy(), 1..250),
        after in prop::collection::vec(op_strategy(), 1..250),
        queries in prop::collection::vec(query_strategy(), 1..10),
    ) {
        // Plain 8-byte keys, then keys that share eight-byte prefixes: the
        // merge, the cursors' resume-by-key and the SST files order and
        // tell apart whole keys, not ids.
        let cases = BOTH
            .into_iter()
            .flat_map(|p| [(p, Key::from_id as KeyOf), (p, mixed_key as KeyOf)]);
        for (partitioning, key_of) in cases {
            let db = small_db(partitioning);
            let mut model = MemStore::default();
            for op in &before {
                apply(&db, &mut model, *op, key_of);
            }
            let snap = db.snapshot().unwrap();
            let frozen = model.clone();
            for op in &after {
                apply(&db, &mut model, *op, key_of);
            }
            for &(start, kind, some) in &queries {
                let (start, count) = (key_of(start), count_of(kind, some));
                let live = ConcurrentKvStore::scan(&db, &start, count).unwrap().entries;
                prop_assert_eq!(
                    live, model_scan(&model, &start, count),
                    "{:?}: scan({:?}, {})", partitioning, &start, count
                );
                let pinned = db.snapshot_scan(snap, &start, count).unwrap();
                prop_assert_eq!(
                    pinned, model_scan(&frozen, &start, count),
                    "{:?}: snapshot_scan({:?}, {})", partitioning, &start, count
                );
            }
            db.release_snapshot(snap);
            let stats = ConcurrentKvStore::stats(&db);
            prop_assert!(stats.scan_entries_resolved >= stats.scan_entries_returned);
        }
    }
}

fn faulted_db(partitioning: Partitioning, plan: &Arc<FaultPlan>) -> PrismDb {
    let mut options = Options::scaled_default(512);
    options.num_partitions = PARTITIONS;
    options.partitioning = partitioning;
    options.fault_plan = Some(Arc::clone(plan));
    options.corruption_quarantine_threshold = 100;
    PrismDb::open(options).expect("valid options")
}

fn write_damaged(db: &PrismDb, plan: &FaultPlan, id: u64) {
    let flips = plan.snapshot().bit_flips;
    plan.arm(TargetedFault {
        tier: FaultTier::Nvm,
        partition: None,
        op: FaultOp::Write,
        mode: FaultMode::BitFlip,
    });
    db.put(Key::from_id(id), Value::filled(300, 0xEE))
        .expect("a bit flip is silent at write time");
    assert_eq!(plan.snapshot().bit_flips, flips + 1);
}

/// A record that fails its checksum is skipped and counted by every scan
/// that crosses it — before and after a point read quarantines the key —
/// while a reader pinned before the damaged write still gets the clean
/// version the history buffer preserved for it, by scan and by point
/// read alike, and a reader pinned after it never does — not even once a
/// clean write supersedes the damaged version, on either tier.
#[test]
fn a_checksum_failing_record_is_skipped_and_counted() {
    const KEYS: u64 = 64;
    const VICTIM: u64 = 20;
    const PINNED_VICTIM: u64 = 41;
    const SUPERSEDED_SLOT: u64 = 50;
    for partitioning in BOTH {
        let plan = Arc::new(FaultPlan::new(0x5CA9));
        let db = faulted_db(partitioning, &plan);
        let mut model = MemStore::default();
        for id in 0..KEYS {
            let value = Value::filled(300, id as u8);
            db.put(Key::from_id(id), value.clone()).unwrap();
            model.put(Key::from_id(id), value).unwrap();
        }
        write_damaged(&db, &plan, VICTIM);
        model.delete(&Key::from_id(VICTIM)).unwrap();

        let failures = |db: &PrismDb| ConcurrentKvStore::stats(db).integrity.checksum_failures;
        let before = failures(&db);
        let scan = ConcurrentKvStore::scan(&db, &Key::min(), usize::MAX).unwrap();
        assert_eq!(
            scan.entries,
            model_scan(&model, &Key::min(), usize::MAX),
            "{partitioning:?}: the damaged key is left out, nothing else is"
        );
        assert_eq!(failures(&db), before + 1, "skipped and counted");

        let err = db.get(&Key::from_id(VICTIM)).expect_err("flip is caught");
        assert!(matches!(err, PrismError::Corruption(_)));
        assert_eq!(db.quarantined_objects(), 1);
        let scan = ConcurrentKvStore::scan(&db, &Key::from_id(VICTIM), 3).unwrap();
        assert_eq!(
            scan.entries,
            model_scan(&model, &Key::from_id(VICTIM), 3),
            "{partitioning:?}: a quarantined key stays out of scans"
        );

        let snap = db.snapshot().unwrap();
        write_damaged(&db, &plan, PINNED_VICTIM);
        // A live reader's pin covers the damaged version: it hides the
        // clean one preserved for `snap`, so the scan skips the key.
        let mut live = model.clone();
        live.delete(&Key::from_id(PINNED_VICTIM)).unwrap();
        let scan = ConcurrentKvStore::scan(&db, &Key::min(), usize::MAX).unwrap();
        assert_eq!(
            scan.entries,
            model_scan(&live, &Key::min(), usize::MAX),
            "{partitioning:?}: a live scan never serves the version the damage superseded"
        );
        // `snap` was pinned before the damaged write: both of its reads
        // get the preserved clean version — asked before the `get` below,
        // which quarantines the key.
        assert_eq!(
            db.snapshot_get(snap, &Key::from_id(PINNED_VICTIM)).unwrap(),
            Some(Value::filled(300, PINNED_VICTIM as u8)),
            "{partitioning:?}: the pinned point read gets the preserved clean version"
        );
        let pinned = db.snapshot_scan(snap, &Key::min(), usize::MAX).unwrap();
        assert_eq!(
            pinned,
            model_scan(&model, &Key::min(), usize::MAX),
            "{partitioning:?}: the pinned reader gets the preserved clean version"
        );
        let err = db
            .get(&Key::from_id(PINNED_VICTIM))
            .expect_err("flip is caught");
        assert!(matches!(err, PrismError::Corruption(_)));

        // A damaged slot superseded by a clean write: the reader whose pin
        // covers the damaged version is refused, never told the key was
        // absent, and `snap`, pinned before it, keeps its preserved one.
        let superseded = Key::from_id(SUPERSEDED_SLOT);
        write_damaged(&db, &plan, SUPERSEDED_SLOT);
        let covering = db.snapshot().unwrap();
        db.put(superseded.clone(), Value::filled(300, 0x77))
            .unwrap();
        assert!(
            matches!(
                db.snapshot_get(covering, &superseded),
                Err(PrismError::Corruption(_))
            ),
            "{partitioning:?}: a pin covering a superseded damaged slot errors"
        );
        assert_eq!(
            db.snapshot_get(snap, &superseded).unwrap(),
            Some(Value::filled(300, SUPERSEDED_SLOT as u8)),
            "{partitioning:?}: a pin before the damaged slot reads its preserved version"
        );
        db.release_snapshot(covering);
        db.release_snapshot(snap);

        // A damaged flash record superseded by a clean write: its sequence
        // is among the damaged bytes, so it is refused to every pin.
        let flips = plan.snapshot().bit_flips;
        plan.arm(TargetedFault {
            tier: FaultTier::Flash,
            partition: None,
            op: FaultOp::Write,
            mode: FaultMode::BitFlip,
        });
        let mut written = KEYS;
        while plan.snapshot().bit_flips == flips {
            assert!(
                written < 40 * KEYS,
                "{partitioning:?}: no demotion wrote a record"
            );
            db.put(Key::from_id(written), Value::filled(300, 1))
                .unwrap();
            written += 1;
        }
        let served: Vec<Key> = ConcurrentKvStore::scan(&db, &Key::min(), usize::MAX)
            .unwrap()
            .entries
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        let quarantined = [VICTIM, PINNED_VICTIM];
        let damaged: Vec<Key> = (0..written)
            .filter(|id| !quarantined.contains(id))
            .map(Key::from_id)
            .filter(|key| !served.contains(key))
            .collect();
        assert_eq!(
            damaged.len(),
            1,
            "{partitioning:?}: the flip hit one record"
        );
        let covering = db.snapshot().unwrap();
        db.put(damaged[0].clone(), Value::filled(300, 0x77))
            .unwrap();
        assert!(
            matches!(
                db.snapshot_get(covering, &damaged[0]),
                Err(PrismError::Corruption(_))
            ),
            "{partitioning:?}: a pin covering a superseded damaged record errors"
        );
        db.release_snapshot(covering);
    }
}

/// The remote-abort regression: the requested count is a bound on the
/// answer, never the size of a buffer. `u32::MAX` is the largest count
/// the wire can carry; `usize::MAX` used to overflow a multiply.
#[test]
fn a_scan_asking_for_more_than_exists_returns_the_whole_store() {
    for partitioning in BOTH {
        let db = small_db(partitioning);
        let mut model = MemStore::default();
        for id in 0..100 {
            apply(&db, &mut model, (0, id * 3, 200), Key::from_id);
        }
        for count in [u32::MAX as usize, usize::MAX] {
            let scan = ConcurrentKvStore::scan(&db, &Key::min(), count).unwrap();
            assert_eq!(scan.entries, model_scan(&model, &Key::min(), count));
            assert_eq!(scan.entries.len(), 100);
        }
    }
}

/// Cursors resume by key between short read locks, so writers and the
/// compactions they trigger run *between* two pulls of one scan. Every key
/// here always exists (writers only overwrite), so whatever the schedule a
/// scan must return exactly the `count` consecutive keys from its start:
/// a gap is a dropped key, a duplicate a repeated one. Each writer
/// rewrites its share of the keys in ascending order once per generation,
/// so a scan pinned at one sequence sees that writer's fills fall at most
/// once, by one — whichever partitions, in whichever order, it read them
/// from.
#[test]
fn scans_racing_writers_and_compactions_neither_drop_nor_repeat_a_key() {
    const KEYS: u64 = 600;
    const WRITERS: u64 = 2;
    const GENERATIONS: u64 = 6;
    for partitioning in BOTH {
        let mut options = Options::scaled_default(KEYS);
        options.num_partitions = PARTITIONS;
        options.partitioning = partitioning;
        options.compaction.bucket_size_keys = 128;
        options.sst_target_bytes = 16 * 1024;
        options.nvm_capacity_bytes = 128 * 1024;
        let db = PrismDb::open(options).expect("valid options");
        for id in 0..KEYS {
            db.put(Key::from_id(id), Value::filled(500, 0)).unwrap();
        }
        let writing = std::sync::atomic::AtomicU64::new(WRITERS);
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let (db, writing) = (&db, &writing);
                scope.spawn(move || {
                    for generation in 1..=GENERATIONS {
                        for id in (writer..KEYS).step_by(WRITERS as usize) {
                            db.put(Key::from_id(id), Value::filled(500, generation as u8))
                                .expect("overwrite");
                        }
                    }
                    writing.fetch_sub(1, std::sync::atomic::Ordering::Release);
                });
            }
            for scanner in 0..2u64 {
                let (db, writing) = (&db, &writing);
                scope.spawn(move || {
                    let mut round = 0u64;
                    // At least a few scans run even if the writers win the
                    // race to finish; then as long as writes are landing.
                    while round < 8 || writing.load(std::sync::atomic::Ordering::Acquire) > 0 {
                        let start = (scanner * 251 + round * 37) % (KEYS - 150);
                        let count = 1 + (round * 13 % 150) as usize;
                        let entries = ConcurrentKvStore::scan(db, &Key::from_id(start), count)
                            .expect("scan")
                            .entries;
                        let ids: Vec<u64> = entries.iter().map(|(k, _)| k.id()).collect();
                        let want: Vec<u64> = (start..start + count as u64).collect();
                        assert_eq!(ids, want, "{partitioning:?}: scan({start}, {count})");
                        // One writer's keys, in key order: it writes them
                        // ascending, so as of one sequence the fills never
                        // rise and span at most two generations.
                        let fills: Vec<u8> = entries.iter().map(|(_, v)| v.as_bytes()[0]).collect();
                        for writer in 0..WRITERS as usize {
                            let own: Vec<u8> = fills
                                .iter()
                                .skip(writer)
                                .step_by(WRITERS as usize)
                                .copied()
                                .collect();
                            let spread = own
                                .first()
                                .zip(own.last())
                                .map_or(0, |(a, b)| a.saturating_sub(*b));
                            assert!(
                                own.windows(2).all(|w| w[0] >= w[1]) && spread <= 1,
                                "{partitioning:?}: scan({start}, {count}) is torn: {own:?}"
                            );
                        }
                        round += 1;
                    }
                });
            }
        });
        let stats = ConcurrentKvStore::stats(&db);
        assert!(
            stats.compaction.jobs > 0,
            "the writers must have driven compactions under the scans"
        );
        assert_eq!(db.active_snapshots(), 0, "every scan released its pin");
        // A file an install retired under a scan was freed once the scan
        // let go of it: the device is charged for the logs alone.
        db.check_invariants()
            .expect("every retired file was reclaimed");
    }
}

/// A scan reads what it returns: at most one look-ahead per partition
/// beyond the `n` entries it hands back, and flash bytes in proportion to
/// the answer — not `P` times it.
#[test]
fn a_hash_partitioned_scan_resolves_and_reads_in_proportion_to_what_it_returns() {
    const KEYS: u64 = 4_000;
    const P: usize = 8;
    let mut options = Options::scaled_default(KEYS);
    options.num_partitions = P;
    options.partitioning = Partitioning::Hash;
    options.nvm_capacity_bytes = KEYS * 1024 / 5;
    let db = PrismDb::open(options).expect("valid options");
    for round in 0..2u64 {
        for id in (0..KEYS).filter(|id| round == 0 || id % 7 == 0) {
            db.put(Key::from_id(id), Value::filled(1_000, (id + round) as u8))
                .unwrap();
        }
    }
    let stats = |db: &PrismDb| -> EngineStats { ConcurrentKvStore::stats(db) };
    assert!(
        stats(&db).compaction.demoted_objects > KEYS / 2,
        "most of the data must sit on flash for the byte bound to mean anything"
    );

    for (start, n) in [
        (0u64, 1usize),
        (17, 10),
        (1_000, 50),
        (2_500, 100),
        (3_990, 100),
    ] {
        let before = stats(&db);
        let scan = ConcurrentKvStore::scan(&db, &Key::from_id(start), n).unwrap();
        let delta = stats(&db).delta_since(&before);
        let returned = scan.entries.len() as u64;
        assert_eq!(returned, (n as u64).min(KEYS - start));
        assert_eq!(delta.scan_entries_returned, returned);
        assert!(
            delta.scan_entries_resolved <= returned + 2 * P as u64,
            "scan({start}, {n}) resolved {} entries to return {returned}",
            delta.scan_entries_resolved
        );
        let bytes_returned: u64 = scan
            .entries
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum();
        assert!(
            delta.flash_io.bytes_read <= bytes_returned * 3 / 2 + P as u64 * 4096,
            "scan({start}, {n}) read {} flash bytes to return {bytes_returned}",
            delta.flash_io.bytes_read
        );
        assert!(
            delta.flash_io.reads <= P as u64,
            "one flash access per partition"
        );
        assert!(
            delta.nvm_io.reads <= P as u64,
            "one NVM access per partition"
        );
        assert_eq!(
            delta.nvm_io.bytes_read % 4096,
            0,
            "NVM bytes read are the pages charged"
        );
    }
}

const PIN_KEYS: u64 = 1_000;
/// Damaged slots: the first key of the second `Range` partition, and a
/// key whose `Hash` partition holds none of the five keys before it.
const PIN_DAMAGED: [u64; 2] = [500, 502];

/// The store the accounting pin scans: most of its data on flash,
/// tombstones on both tiers, a live snapshot that writes after it
/// overwrote and deleted keys under (so their pinned versions sit in the
/// history buffer), and last the damaged slots of [`PIN_DAMAGED`].
fn accounting_store(partitioning: Partitioning) -> (PrismDb, prism_types::SnapshotId) {
    let plan = Arc::new(FaultPlan::new(0xACC0));
    let mut options = Options::scaled_default(PIN_KEYS);
    options.num_partitions = PARTITIONS;
    options.partitioning = partitioning;
    options.nvm_capacity_bytes = PIN_KEYS * 1024 / 5;
    options.fault_plan = Some(Arc::clone(&plan));
    options.corruption_quarantine_threshold = 100;
    let db = PrismDb::open(options).expect("valid options");
    let put = |id: u64, fill: u8| {
        let value = Value::filled(200 + (id % 7) as usize * 100, fill);
        db.put(Key::from_id(id), value).unwrap();
    };
    for id in 0..PIN_KEYS {
        put(id, id as u8);
    }
    for id in (0..PIN_KEYS).step_by(9) {
        db.delete(&Key::from_id(id)).unwrap();
    }
    for id in (3..PIN_KEYS).step_by(11) {
        put(id, 0x11);
    }
    let snap = db.snapshot().unwrap();
    for id in (5..PIN_KEYS).step_by(13) {
        put(id, 0x13);
    }
    for id in (6..PIN_KEYS).step_by(17) {
        db.delete(&Key::from_id(id)).unwrap();
    }
    for id in PIN_DAMAGED {
        write_damaged(&db, &plan, id);
    }
    assert!(
        ConcurrentKvStore::stats(&db).compaction.demoted_objects > PIN_KEYS / 2,
        "most of the data must sit on flash"
    );
    (db, snap)
}

/// What one scan charged: its latency (0 for a snapshot scan, which
/// reports none), the growth of the slowest partition clock, the entries
/// returned, then the deltas of `scan_entries_resolved`,
/// `scan_entries_returned`, NVM reads and bytes read, flash reads and
/// bytes read, and checksum failures.
type ScanCharges = [u64; 10];

/// Run the pin's fixed scans on `db`, in order: from the first key, a
/// few windows, the whole store, for each damaged key a scan that ends on
/// the visible entry just before it (on another partition) and one that
/// takes the damaged key's place, snapshot scans that read the history
/// buffer, and scans at and past the end.
fn accounting_scans(db: &PrismDb, snap: prism_types::SnapshotId) -> Vec<ScanCharges> {
    let measure = |scan: &dyn Fn() -> (u64, usize)| -> ScanCharges {
        let (before, elapsed) = (ConcurrentKvStore::stats(db), ConcurrentKvStore::elapsed(db));
        let (latency, returned) = scan();
        let d = ConcurrentKvStore::stats(db).delta_since(&before);
        [
            latency,
            (ConcurrentKvStore::elapsed(db) - elapsed).as_nanos(),
            returned as u64,
            d.scan_entries_resolved,
            d.scan_entries_returned,
            d.nvm_io.reads,
            d.nvm_io.bytes_read,
            d.flash_io.reads,
            d.flash_io.bytes_read,
            d.integrity.checksum_failures,
        ]
    };
    let live = |start: u64, count: usize| {
        move || {
            let scan = ConcurrentKvStore::scan(db, &Key::from_id(start), count).unwrap();
            (scan.latency.as_nanos(), scan.entries.len())
        }
    };
    let pinned = |start: u64, count: usize| {
        move || {
            let entries = db.snapshot_scan(snap, &Key::from_id(start), count).unwrap();
            (0, entries.len())
        }
    };
    let whole = ConcurrentKvStore::scan(db, &Key::min(), usize::MAX).unwrap();
    let mut charges = vec![];
    for (start, count) in [(0, 1), (17, 10), (300, 50), (0, usize::MAX)] {
        charges.push(measure(&live(start, count)));
    }
    for (start, damaged) in [(470, PIN_DAMAGED[0]), (496, PIN_DAMAGED[1])] {
        let before_damaged = whole
            .entries
            .iter()
            .filter(|(key, _)| (start..damaged).contains(&key.id()))
            .count();
        charges.push(measure(&live(start, before_damaged)));
        charges.push(measure(&live(start, before_damaged + 1)));
    }
    for (start, count) in [(0, 40), (480, 30)] {
        charges.push(measure(&pinned(start, count)));
    }
    for (start, count) in [(990, 100), (2 * PIN_KEYS, 5)] {
        charges.push(measure(&live(start, count)));
    }
    charges
}

/// The accounting pin: every scan of a fixed set, on a `Hash` and on a
/// `Range` store, charges exactly the latency, entries and reads recorded
/// here, and sees the damaged slot only when it reaches it. A change to
/// how the merge pulls from the partitions must leave all of it alone.
#[test]
fn a_fixed_set_of_scans_charges_exactly_the_recorded_reads_and_latency() {
    let recorded: [(Partitioning, [ScanCharges; 12]); 2] = [
        (
            Partitioning::Hash,
            [
                [395871, 259205, 1, 1, 1, 0, 0, 1, 308, 0],
                [408564, 135592, 10, 11, 10, 2, 8192, 3, 3964, 0],
                [440288, 410848, 50, 56, 50, 4, 16384, 4, 21836, 0],
                [1121320, 667888, 850, 927, 850, 4, 221184, 4, 325528, 2],
                [421231, 401813, 26, 27, 26, 3, 12288, 4, 10468, 0],
                [421931, 402851, 27, 30, 27, 3, 12288, 4, 11076, 1],
                [398364, 393037, 4, 6, 4, 1, 4096, 2, 1624, 1],
                [399064, 393037, 5, 8, 5, 1, 4096, 3, 2432, 2],
                [0, 406224, 40, 42, 40, 3, 12288, 4, 15556, 0],
                [0, 403551, 30, 31, 30, 3, 12288, 4, 11076, 2],
                [406126, 1000, 7, 8, 7, 3, 12288, 2, 616, 0],
                [4000, 1000, 0, 0, 0, 0, 0, 0, 0, 0],
            ],
        ),
        (
            Partitioning::Range,
            [
                [392871, 386040, 1, 1, 1, 0, 0, 1, 308, 0],
                [401877, 401877, 10, 11, 10, 0, 0, 1, 5180, 0],
                [451917, 451917, 50, 53, 50, 1, 8192, 1, 23252, 0],
                [1729121, 854553, 850, 911, 850, 2, 90112, 2, 389020, 2],
                [422468, 422468, 26, 27, 26, 1, 4096, 1, 11284, 0],
                [815505, 422468, 27, 30, 27, 1, 4096, 2, 11892, 1],
                [793701, 400664, 4, 6, 4, 1, 4096, 2, 1624, 1],
                [794850, 400664, 5, 8, 5, 1, 4096, 2, 2432, 2],
                [0, 430280, 40, 41, 40, 0, 0, 1, 18504, 0],
                [0, 414722, 30, 31, 30, 2, 8192, 2, 12392, 2],
                [406371, 0, 7, 8, 7, 1, 4096, 1, 2648, 0],
                [1000, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ],
        ),
    ];
    for (partitioning, want) in recorded {
        let (db, snap) = accounting_store(partitioning);
        let got = accounting_scans(&db, snap);
        db.release_snapshot(snap);
        assert_eq!(got, want, "{partitioning:?}");
    }
}
