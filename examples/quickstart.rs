//! Quickstart: open a PrismDB instance, write and read a few objects, and
//! inspect where reads were served from and how much each tier costs.
//!
//! Run with `cargo run --example quickstart`.

use prismdb::db::{Options, PrismDb};
use prismdb::types::{Key, KvStore, PrismError, Value};

fn main() -> Result<(), PrismError> {
    // A small database: 20k expected keys, 4 partitions, the paper's 1:5
    // NVM:QLC capacity ratio and default MSC compaction settings.
    let options = Options::builder(20_000).partitions(4).build()?;
    let mut db = PrismDb::open(options)?;

    // Load 20k one-kilobyte objects. Everything lands on NVM first; once NVM
    // crosses its high watermark, cold ranges are compacted down to flash.
    for id in 0..20_000u64 {
        db.put(Key::from_id(id), Value::filled(1024, (id % 251) as u8))?;
    }

    // Read a hot key a few times: the first read may come from NVM or flash,
    // later reads are served from the DRAM cache.
    for _ in 0..3 {
        let hit = db.get(&Key::from_id(42))?;
        println!(
            "key 42: {} bytes from {:?} in {}",
            hit.value.as_ref().map(Value::len).unwrap_or(0),
            hit.source,
            hit.latency
        );
    }

    // Scans merge the NVM and flash views in key order.
    let scan = db.scan(&Key::from_id(100), 5)?;
    println!(
        "scan from key 100: {:?}",
        scan.entries.iter().map(|(k, _)| k.id()).collect::<Vec<_>>()
    );

    let stats = db.stats();
    println!(
        "objects: {} on NVM, {} on flash | flash write amplification {:.2}",
        db.nvm_object_count(),
        db.flash_object_count(),
        stats.flash_write_amplification()
    );
    println!(
        "reads: {} dram, {} nvm, {} flash | compactions: {} jobs, {} demoted, {} promoted",
        stats.reads_from_dram,
        stats.reads_from_nvm,
        stats.reads_from_flash,
        stats.compaction.jobs,
        stats.compaction.demoted_objects,
        stats.compaction.promoted_objects
    );
    println!(
        "blended storage cost: ${:.2}/GB | simulated time: {}",
        db.cost_per_gb(),
        db.elapsed()
    );

    // Crash recovery: drop all DRAM state and rebuild the index from the
    // NVM slabs and the flash files' sorted log.
    let recovery = db.crash_and_recover();
    let after = db.get(&Key::from_id(42))?;
    println!(
        "recovered in {recovery}; key 42 still readable: {}",
        after.value.is_some()
    );
    Ok(())
}
