//! Transactional invariant battery: concurrent bank transfers.
//!
//! A fixed pool of accounts (hash-scattered across 4 partitions) starts
//! with a known global balance. Transfer threads move money between
//! random account pairs through optimistic multi-key transactions
//! ([`run_transaction`]): read both balances through the snapshot, debit
//! one, credit the other, commit — retrying on conflict. Meanwhile a
//! checker thread pins snapshots and asserts, at every snapshot, that
//!
//! * the global balance is exactly the initial total (no money is ever
//!   created or destroyed, even mid-transfer — commits are atomic), and
//! * no account balance is negative or above the total (no torn debit
//!   without its credit, no double-credit).
//!
//! The engine runs 2 background compaction workers with NVM far smaller
//! than the dataset, so demotions and promotions churn versions under
//! the live snapshots the whole time. Between rounds the engine is
//! crash-recovered (with writers quiesced — recovery's commit-log
//! rollback is defined against crashed writers, not racing ones) and the
//! invariant is re-checked from durable state only.
//!
//! With `PRISM_TXN_BENCH=1` the battery also writes
//! `BENCH_txn_battery.json` with throughput-ish counters for CI trend
//! tracking.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prismdb::db::{Options, Partitioning, PrismDb};
use prismdb::types::{run_transaction, ConcurrentKvStore, Key, PrismError, Value};

/// Number of accounts. Small enough that concurrent transfers collide
/// (exercising conflict detection), large enough to span partitions.
const ACCOUNTS: u64 = 32;
/// Starting balance per account.
const INITIAL_BALANCE: u64 = 1_000;
/// The conserved quantity.
const TOTAL: u64 = ACCOUNTS * INITIAL_BALANCE;
/// Key-id universe the accounts are spread over.
const KEY_SPACE: u64 = 2_000;
/// Account values carry the balance in their first 8 bytes and pad to
/// this size so the working set overflows the tiny NVM and compactions
/// run throughout.
const VALUE_LEN: usize = 600;
/// Transfer rounds; the engine is crash-recovered between rounds.
const ROUNDS: usize = 3;
/// Concurrent transfer threads per round.
const THREADS: usize = 4;
/// Transfers attempted per thread per round.
const TRANSFERS: usize = 150;

fn account_key(account: u64) -> Key {
    Key::from_id(account * (KEY_SPACE / ACCOUNTS))
}

fn encode(balance: u64) -> Value {
    let mut bytes = vec![0xBB; VALUE_LEN];
    bytes[..8].copy_from_slice(&balance.to_le_bytes());
    Value::from_vec(bytes)
}

fn decode(value: &Value) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&value.as_bytes()[..8]);
    u64::from_le_bytes(bytes)
}

fn bank_db() -> PrismDb {
    let mut options = Options::scaled_default(KEY_SPACE);
    options.num_partitions = 4;
    options.partitioning = Partitioning::Hash;
    options.compaction_workers = 2;
    options.compaction.bucket_size_keys = 128;
    options.sst_target_bytes = 16 * 1024;
    // NVM holds only a fraction of the account set, so transfers force
    // demotion/promotion compactions while snapshots are pinned.
    options.nvm_capacity_bytes = 12 * 1024;
    PrismDb::open(options).expect("valid options")
}

/// Sum every account through one pinned snapshot, asserting per-account
/// sanity; returns the total.
fn snapshot_total(db: &PrismDb, context: &str) -> u64 {
    let snap = db.snapshot().expect("snapshot");
    let mut sum = 0u64;
    for account in 0..ACCOUNTS {
        let value = db
            .snapshot_get(snap, &account_key(account))
            .expect("snapshot read")
            .unwrap_or_else(|| panic!("{context}: account {account} missing from snapshot"));
        let balance = decode(&value);
        assert!(
            balance <= TOTAL,
            "{context}: account {account} balance {balance} exceeds the total \
             (a debit committed without its credit, or underflowed)"
        );
        sum += balance;
    }
    db.release_snapshot(snap);
    sum
}

#[test]
fn concurrent_transfers_conserve_the_global_balance() {
    let db = Arc::new(bank_db());

    // Seed the accounts and sanity-check the spread: hash routing must
    // scatter them over every partition or the battery would not be
    // exercising cross-partition commits.
    for account in 0..ACCOUNTS {
        db.put(account_key(account), encode(INITIAL_BALANCE))
            .unwrap();
    }
    let mut shards = vec![false; ConcurrentKvStore::shard_count(&*db)];
    for account in 0..ACCOUNTS {
        shards[ConcurrentKvStore::shard_of(&*db, &account_key(account))] = true;
    }
    assert!(
        shards.iter().filter(|hit| **hit).count() >= 2,
        "accounts must span partitions for the battery to mean anything"
    );
    assert_eq!(snapshot_total(&db, "seeded"), TOTAL);

    let transfers_done = AtomicU64::new(0);
    let transfers_conflicted = AtomicU64::new(0);
    let checks_done = AtomicU64::new(0);

    for round in 0..ROUNDS {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // The checker: pin snapshots as fast as they come and assert
            // conservation at every one, racing the transfer threads and
            // the background compaction workers.
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let sum = snapshot_total(&db, "mid-round snapshot");
                    assert_eq!(
                        sum, TOTAL,
                        "snapshot saw money created/destroyed (round {round})"
                    );
                    checks_done.fetch_add(1, Ordering::Relaxed);
                }
            });
            let mut transfer_handles = Vec::new();
            for thread in 0..THREADS {
                let db = &db;
                let transfers_done = &transfers_done;
                let transfers_conflicted = &transfers_conflicted;
                transfer_handles.push(scope.spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(0xBA_2026 + (round * THREADS + thread) as u64);
                    for _ in 0..TRANSFERS {
                        let from = rng.gen_range(0u64..ACCOUNTS);
                        let mut to = rng.gen_range(0u64..ACCOUNTS);
                        if to == from {
                            to = (to + 1) % ACCOUNTS;
                        }
                        let amount = rng.gen_range(1u64..=50);
                        let outcome = run_transaction(&**db, 16, |txn| {
                            let from_balance =
                                decode(&txn.get(&account_key(from))?.expect("account exists"));
                            let to_balance =
                                decode(&txn.get(&account_key(to))?.expect("account exists"));
                            if from_balance >= amount {
                                txn.put(account_key(from), encode(from_balance - amount));
                                txn.put(account_key(to), encode(to_balance + amount));
                            }
                            Ok(())
                        });
                        match outcome {
                            Ok(()) => {
                                transfers_done.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(PrismError::TxnConflict { .. }) => {
                                // Retries exhausted under heavy contention:
                                // dropping the transfer is fine, conservation
                                // holds either way.
                                transfers_conflicted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("transfer failed: {other:?}"),
                        }
                    }
                }));
            }
            // Join the transfer threads, then release the checker; the
            // scope's implicit join picks the checker up afterwards.
            for handle in transfer_handles {
                handle.join().expect("transfer thread panicked");
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Writers quiesced: re-verify from a fresh pin.
        assert_eq!(
            snapshot_total(&db, "round quiesced"),
            TOTAL,
            "quiesced snapshot saw money created/destroyed (round {round})"
        );

        // Crash with writers quiesced: sealed commits must survive, the
        // clock and snapshot machinery must rebuild, and the invariant
        // must hold from durable state alone.
        db.crash_and_recover();
        assert_eq!(db.torn_commit_records(), 0);
        assert_eq!(
            snapshot_total(&db, "post-recovery"),
            TOTAL,
            "recovery lost or duplicated money (round {round})"
        );
    }

    // A deterministic conflict so the conflict counter is exercised even
    // if the random schedule above never collided: pin, write the read
    // key behind the snapshot's back, then try to commit against it.
    let snap = db.snapshot().unwrap();
    let probe = account_key(0);
    let balance = decode(&db.snapshot_get(snap, &probe).unwrap().expect("account 0"));
    db.put(probe.clone(), encode(balance)).unwrap();
    let mut writes = prismdb::types::WriteBatch::new();
    writes.put(account_key(1), encode(INITIAL_BALANCE));
    let err = db
        .txn_commit(snap, std::slice::from_ref(&probe), writes)
        .unwrap_err();
    assert!(matches!(err, PrismError::TxnConflict { .. }));
    db.release_snapshot(snap);
    // Undo the probe write's effect on nothing: it rewrote the same
    // balance, so conservation still holds.
    assert_eq!(snapshot_total(&db, "final"), TOTAL);

    let stats = ConcurrentKvStore::stats(&*db);
    assert!(
        stats.txn.txn_commits > 0,
        "the battery never committed a transaction"
    );
    assert!(
        stats.txn.txn_conflicts > 0,
        "the battery never observed a conflict"
    );
    assert!(stats.txn.snapshots > 0);
    assert!(
        checks_done.load(Ordering::Relaxed) > 0,
        "the checker never ran a snapshot check"
    );
    assert!(transfers_done.load(Ordering::Relaxed) > 0);

    if std::env::var("PRISM_TXN_BENCH").as_deref() == Ok("1") {
        let body = format!(
            "{{\n  \"benchmark\": \"txn_battery\",\n  \"accounts\": {},\n  \
             \"rounds\": {},\n  \"threads\": {},\n  \"transfers_committed\": {},\n  \
             \"transfers_dropped\": {},\n  \"snapshot_checks\": {},\n  \
             \"txn_commits\": {},\n  \"txn_conflicts\": {},\n  \"snapshots\": {}\n}}\n",
            ACCOUNTS,
            ROUNDS,
            THREADS,
            transfers_done.load(Ordering::Relaxed),
            transfers_conflicted.load(Ordering::Relaxed),
            checks_done.load(Ordering::Relaxed),
            stats.txn.txn_commits,
            stats.txn.txn_conflicts,
            stats.txn.snapshots,
        );
        std::fs::write("BENCH_txn_battery.json", body).expect("write bench json");
    }
}
