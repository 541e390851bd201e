//! Pins the engine's simulated-time accounting to the bit.
//!
//! One client with `compaction_workers = 0` makes the simulated clock
//! deterministic, so a refactor must leave `elapsed()` and every
//! `EngineStats` entry unchanged. Two goldens, each recorded at the commit
//! before the refactor it guards:
//!
//! * `compaction_accounting.golden` — the compaction driver: single-key
//!   writes under NVM pressure, then reads. This is the tier-1 form of the
//!   benchmark's bit-identity check (`benchmark/run.sh` on `tier_write_a` /
//!   `tier_read_c`), sized to run in a debug build.
//!   `engine_compaction_overlap_time_ns` is left out: inline promotions run
//!   on the background timeline without stalling the caller, and whether
//!   that counts as overlap is accounting policy, not simulated time.
//! * `commit_accounting.golden` — the multi-key commit path: `WriteBatch`es
//!   through `apply_batch`, then `Transaction` commits with a read set,
//!   each covering the zero-, one- and many-partition install choices.
//!
//! To regenerate after an *intended* change to the model, run the test and
//! copy the file it names in its failure message over the golden.

use prismdb::db::{Options, PrismDb};
use prismdb::types::{ConcurrentKvStore, Op, Transaction, Value, WriteBatch};
use prismdb::workloads::Workload;

const KEYS: u64 = 20_000;
const OPS_PER_PHASE: usize = 40_000;
const COMMITS_PER_PHASE: usize = 2_000;
const COMMIT_WIDTH: usize = 16;
const SEED: u64 = 20_230_325;

/// 20 K one-kilobyte objects over NVM 0.2× and DRAM 0.05× the data, inline
/// compaction.
fn open_db() -> PrismDb {
    let data = KEYS * 1024;
    let options = Options::builder(KEYS)
        .nvm_capacity(data / 5)
        .flash_capacity(data * 3)
        .dram_cache(data / 20)
        .build()
        .expect("valid sizing");
    assert_eq!(options.compaction_workers, 0, "the default is inline");
    PrismDb::open(options).expect("open")
}

fn apply(db: &PrismDb, op: Op) {
    match op {
        Op::Read(key) => drop(db.get(&key).expect("read")),
        Op::Update(key, value) | Op::Insert(key, value) => {
            db.put(key, value).expect("write fits the tiers");
        }
        other => unreachable!("YCSB A and C draw only reads and updates, got {other:?}"),
    }
}

/// Entries newer than the goldens, which no phase here moves (no scans
/// run, and inline compaction never discards a job): left out so the
/// recorded files stay byte-identical.
const ADDED_SINCE_RECORDING: [&str; 3] = [
    "engine_compaction_install_discards",
    "engine_scan_entries_resolved",
    "engine_scan_entries_returned",
];

fn report(db: &PrismDb, skip: &[&str]) -> String {
    let mut out = format!("elapsed_ns {}\n", db.elapsed().as_nanos());
    db.stats().visit("engine_", &mut |name, _, _, value| {
        if ADDED_SINCE_RECORDING.contains(&name) {
            assert_eq!(value, 0, "{name} moved in an inline, scan-free phase");
        } else if !skip.contains(&name) {
            out.push_str(&format!("{name} {value}\n"));
        }
    });
    out
}

fn compaction_accounting() -> String {
    let db = open_db();
    let mut write_phase = Workload::ycsb_a(KEYS).stream(SEED);
    let load: Vec<Op> = write_phase.load_ops().collect();
    for op in load
        .into_iter()
        .chain(write_phase.by_ref().take(OPS_PER_PHASE))
    {
        apply(&db, op);
    }
    let read_phase = Workload::ycsb_c(KEYS).stream(SEED + 1);
    for op in read_phase.take(OPS_PER_PHASE) {
        apply(&db, op);
    }
    report(&db, &["engine_compaction_overlap_time_ns"])
}

/// Load, then `COMMITS_PER_PHASE` batches and as many transactions, each
/// drawn `COMMIT_WIDTH` ops at a time from a YCSB-A stream (zipfian, so hot
/// keys repeat inside one commit and the duplicate merge runs). In a batch
/// a drawn update is a put and a drawn read a delete (every fourth key) or
/// a put of a short value; in a transaction a drawn read joins the read
/// set. Every tenth commit is narrowed to one key (the one-partition
/// install) and every tenth transaction, offset by five, to reads only (the
/// no-install commit); the rest span the eight hash partitions.
fn commit_accounting() -> String {
    let db = open_db();
    let mut stream = Workload::ycsb_a(KEYS).stream(SEED);
    let load: Vec<Op> = stream.load_ops().collect();
    for op in load {
        apply(&db, op);
    }

    for i in 0..COMMITS_PER_PHASE {
        let width = if i % 10 == 0 { 1 } else { COMMIT_WIDTH };
        let mut batch = WriteBatch::with_capacity(COMMIT_WIDTH);
        for op in stream.by_ref().take(width) {
            match op {
                Op::Update(key, value) => batch.put(key, value),
                Op::Read(key) if key.id() % 4 == 0 => batch.delete(key),
                Op::Read(key) => batch.put(key, Value::filled(200, i as u8)),
                other => unreachable!("YCSB A draws only reads and updates, got {other:?}"),
            }
        }
        if width == 1 {
            // The same key twice: one partition, one merged write.
            let again = batch.entries()[0].clone();
            batch.push(again);
        }
        db.apply_batch(batch).expect("batch fits the tiers");
    }

    for i in 0..COMMITS_PER_PHASE {
        let width = if i % 10 == 0 { 1 } else { COMMIT_WIDTH };
        let read_only = i % 10 == 5;
        let mut txn = Transaction::begin(&db).expect("snapshots are supported");
        for op in stream.by_ref().take(width) {
            match op {
                Op::Update(key, value) if !read_only && width > 1 => txn.put(key, value),
                Op::Read(key) | Op::Update(key, _) => {
                    txn.get(&key).expect("snapshot read");
                    if width == 1 {
                        txn.put(key, Value::filled(300, i as u8));
                    }
                }
                other => unreachable!("YCSB A draws only reads and updates, got {other:?}"),
            }
        }
        txn.commit().expect("one client never conflicts");
    }
    report(&db, &[])
}

fn assert_matches_golden(name: &str, golden: &str, actual: &str) {
    if actual == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
    std::fs::write(&path, actual).expect("write the actual accounting");
    let golden: Vec<&str> = golden.lines().collect();
    let lines: Vec<&str> = actual.lines().collect();
    for i in 0..golden.len().max(lines.len()) {
        let (want, got) = (golden.get(i), lines.get(i));
        if want != got {
            eprintln!("line {}: golden {want:?}, actual {got:?}", i + 1);
        }
    }
    panic!(
        "accounting differs from tests/{name}.golden; the actual output is in {}",
        path.display()
    );
}

#[test]
fn inline_compaction_accounting_matches_the_golden() {
    assert_matches_golden(
        "compaction_accounting",
        include_str!("compaction_accounting.golden"),
        &compaction_accounting(),
    );
}

#[test]
fn commit_accounting_matches_the_golden() {
    assert_matches_golden(
        "commit_accounting",
        include_str!("commit_accounting.golden"),
        &commit_accounting(),
    );
}
