//! Pins the inline-compaction accounting to the bit.
//!
//! One client with `compaction_workers = 0` makes the simulated clock
//! deterministic, so a refactor of the compaction driver must leave
//! `elapsed()` and every `EngineStats` entry unchanged. This is the tier-1
//! form of the benchmark's bit-identity check (`benchmark/run.sh` on
//! `tier_write_a` / `tier_read_c`), sized to run in a debug build.
//!
//! `engine_compaction_overlap_time_ns` is left out: inline promotions run on
//! the background timeline without stalling the caller, and whether that
//! counts as overlap is accounting policy, not simulated time.
//!
//! To regenerate after an *intended* change to the model, run the test and
//! copy the file it names in its failure message over
//! `tests/compaction_accounting.golden`.

use prismdb::db::{Options, PrismDb};
use prismdb::types::{ConcurrentKvStore, Op};
use prismdb::workloads::Workload;

const KEYS: u64 = 20_000;
const OPS_PER_PHASE: usize = 40_000;
const SEED: u64 = 20_230_325;
const GOLDEN: &str = include_str!("compaction_accounting.golden");

fn apply(db: &PrismDb, op: Op) {
    match op {
        Op::Read(key) => drop(db.get(&key).expect("read")),
        Op::Update(key, value) | Op::Insert(key, value) => {
            db.put(key, value).expect("write fits the tiers");
        }
        other => unreachable!("YCSB A and C draw only reads and updates, got {other:?}"),
    }
}

fn accounting() -> String {
    let data = KEYS * 1024;
    let options = Options::builder(KEYS)
        .nvm_capacity(data / 5)
        .flash_capacity(data * 3)
        .dram_cache(data / 20)
        .build()
        .expect("valid sizing");
    assert_eq!(options.compaction_workers, 0, "the default is inline");
    let db = PrismDb::open(options).expect("open");

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

    let mut out = format!("elapsed_ns {}\n", db.elapsed().as_nanos());
    db.stats().visit("engine_", &mut |name, _, _, value| {
        if name != "engine_compaction_overlap_time_ns" {
            out.push_str(&format!("{name} {value}\n"));
        }
    });
    out
}

#[test]
fn inline_compaction_accounting_matches_the_golden() {
    let actual = accounting();
    if actual == GOLDEN {
        return;
    }
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compaction_accounting.actual");
    std::fs::write(&path, &actual).expect("write the actual accounting");
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let lines: Vec<&str> = actual.lines().collect();
    for i in 0..golden.len().max(lines.len()) {
        let (want, got) = (golden.get(i), lines.get(i));
        if want != got {
            eprintln!("line {}: golden {want:?}, actual {got:?}", i + 1);
        }
    }
    panic!(
        "inline accounting differs from tests/compaction_accounting.golden; \
         the actual output is in {}",
        path.display()
    );
}
