//! Cumulative statistics exposed by storage engines, the async front-end
//! and the network server.
//!
//! Every metric is declared exactly once, as one entry of a
//! `stats_table!` invocation below: its kind, its field name and its doc
//! string. From that single table the macro derives the typed struct, its
//! `delta_since` arithmetic, the [`visit`](EngineStats::visit) walker that
//! names, types and documents every exported series, and a lock-free
//! `…Cells` twin for layers that count with atomics. Each source counts
//! into one table: PrismDB into one shared [`EngineStatsCells`] every
//! partition and the compaction scheduler bump, single-threaded engines
//! into one plain [`EngineStats`] field. Adding a metric is one table line
//! plus the site that increments it.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Nanos;

/// What a table entry measures: decides how `delta_since` treats it, the
/// Prometheus `# TYPE` it is exposed under and the unit it is documented
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event or byte count; a window is `later - earlier`.
    Counter,
    /// Instantaneous value or high-water mark; a window reports the later
    /// snapshot's value.
    Gauge,
    /// Monotone sum of *simulated* device time, exported in nanoseconds
    /// under a `_ns` suffix so it cannot be mistaken for wall-clock time.
    Nanos,
}

impl MetricKind {
    /// Prometheus metric type (`counter` or `gauge`).
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter | MetricKind::Nanos => "counter",
            MetricKind::Gauge => "gauge",
        }
    }

    /// Unit and clock domain of the exported value.
    pub fn unit(self) -> &'static str {
        match self {
            MetricKind::Counter | MetricKind::Gauge => "count",
            MetricKind::Nanos => "simulated ns",
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            MetricKind::Counter | MetricKind::Gauge => "",
            MetricKind::Nanos => "_ns",
        }
    }
}

/// Callback of the generated `visit` walkers: exported name, kind, help
/// text (first sentence of the entry's doc string) and current value.
pub type MetricVisitor<'a> = dyn FnMut(&str, MetricKind, &'static str, u64) + 'a;

/// First sentence of a table entry's (line-joined) doc string.
fn first_sentence(doc: &'static str) -> &'static str {
    let doc = doc.trim();
    doc.split_once(". ")
        .map_or(doc, |(head, _)| head)
        .trim_end_matches('.')
}

fn visit_leaf(
    prefix: &str,
    field: &str,
    kind: MetricKind,
    doc: &'static str,
    value: u64,
    f: &mut MetricVisitor<'_>,
) {
    f(
        &format!("{prefix}{field}{}", kind.suffix()),
        kind,
        first_sentence(doc),
        value,
    );
}

/// Declare one stats struct. Entry kinds:
///
/// * `counter f;` / `gauge f;` — a `u64` field;
/// * `nanos f;` — a [`Nanos`] counter, exported as `f_ns`;
/// * `group("p_") f: T, TCells;` — a nested table, exported under the
///   extra prefix `p_` (which may be empty);
/// * `levels("p_") f;` — the `[u64; 8]` per-level counter array, exported
///   as `p_{i}` for non-zero levels only.
///
/// `delta by_value` / `delta by_ref` picks the receiver of the public
/// `delta_since` (every struct is `Copy`; `EngineStats` historically takes
/// references).
macro_rules! stats_table {
    (
        $(#[doc = $sdoc:literal])*
        pub struct $name:ident, cells $cells:ident, delta $mode:ident {
            $(
                $(#[doc = $doc:literal])*
                $kind:ident $(($gp:literal))? $field:ident $(: $gty:ty, $gcells:ty)?;
            )*
        }
    ) => {
        $(#[doc = $sdoc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(
                $(#[doc = $doc])*
                pub $field: stats_table!(@ty $kind $($gty)?),
            )*
        }

        #[doc = concat!(
            "Lock-free live twin of [`", stringify!($name), "`]: one atomic per table ",
            "entry, bumped at the counting site and copied out by ",
            "[`snapshot`](Self::snapshot)."
        )]
        #[derive(Debug, Default)]
        pub struct $cells {
            $(
                $(#[doc = $doc])*
                pub $field: stats_table!(@cell $kind $($gcells)?),
            )*
        }

        impl $cells {
            #[doc = concat!("Point-in-time [`", stringify!($name), "`] copy of every cell.")]
            ///
            /// Loads are `Acquire` so that a cell a counting site publishes
            /// with `Release`/`AcqRel` (the in-flight gauges) stays ordered;
            /// distinct cells are still independent loads, not one cut.
            pub fn snapshot(&self) -> $name {
                $name {
                    $($field: stats_table!(@load $kind, self.$field),)*
                }
            }
        }

        impl $name {
            stats_table!(@delta_since $mode);

            fn delta(self, earlier: $name) -> $name {
                $name {
                    $($field: stats_table!(@delta $kind, self.$field, earlier.$field),)*
                }
            }

            /// Build a value drawing every leaf, in table order, from
            /// `next` (the metric catalogue and the table-driven tests
            /// walk a fully populated value this way).
            pub fn filled_with(next: &mut dyn FnMut() -> u64) -> $name {
                $name {
                    $($field: stats_table!(@fill $kind, next $(, $gty)?),)*
                }
            }

            /// Walk every entry in table order, calling `f` with its
            /// exported name (`prefix` + any group prefix + field name +
            /// `_ns` for simulated-time entries), kind, help text and
            /// value.
            pub fn visit(&self, prefix: &str, f: &mut MetricVisitor<'_>) {
                $(
                    stats_table!(
                        @visit $kind $(($gp))?, self.$field, stringify!($field),
                        concat!($($doc),*), prefix, f
                    );
                )*
            }
        }
    };

    (@ty nanos) => { Nanos };
    (@ty group $gty:ty) => { $gty };
    (@ty levels) => { [u64; 8] };
    (@ty $leaf:ident) => { u64 };

    (@cell group $gcells:ty) => { $gcells };
    (@cell levels) => { [AtomicU64; 8] };
    (@cell $leaf:ident) => { AtomicU64 };

    (@load nanos, $cell:expr) => { Nanos::from_nanos($cell.load(Ordering::Acquire)) };
    (@load group, $cell:expr) => { $cell.snapshot() };
    (@load levels, $cell:expr) => { std::array::from_fn(|i| $cell[i].load(Ordering::Acquire)) };
    (@load $leaf:ident, $cell:expr) => { $cell.load(Ordering::Acquire) };

    (@delta gauge, $a:expr, $b:expr) => { $a };
    (@delta group, $a:expr, $b:expr) => { $a.delta($b) };
    (@delta levels, $a:expr, $b:expr) => { std::array::from_fn(|i| $a[i].saturating_sub($b[i])) };
    (@delta $leaf:ident, $a:expr, $b:expr) => { $a.saturating_sub($b) };

    (@delta_since by_value) => {
        /// Element-wise difference (`self - earlier`) isolating a
        /// measurement window: counters subtract (saturating at zero),
        /// gauges keep the later snapshot's value.
        pub fn delta_since(self, earlier: Self) -> Self {
            self.delta(earlier)
        }
    };
    (@delta_since by_ref) => {
        /// Element-wise difference (`self - earlier`) isolating a
        /// measurement window: counters subtract (saturating at zero),
        /// gauges keep the later snapshot's value.
        pub fn delta_since(&self, earlier: &Self) -> Self {
            self.delta(*earlier)
        }
    };

    (@fill nanos, $next:expr) => { Nanos::from_nanos($next()) };
    (@fill levels, $next:expr) => { std::array::from_fn(|_| $next()) };
    (@fill group, $next:expr, $gty:ty) => { <$gty>::filled_with($next) };
    (@fill $leaf:ident, $next:expr) => { $next() };

    (@visit counter, $v:expr, $field:expr, $doc:expr, $prefix:expr, $f:expr) => {
        visit_leaf($prefix, $field, MetricKind::Counter, $doc, $v, $f)
    };
    (@visit gauge, $v:expr, $field:expr, $doc:expr, $prefix:expr, $f:expr) => {
        visit_leaf($prefix, $field, MetricKind::Gauge, $doc, $v, $f)
    };
    (@visit nanos, $v:expr, $field:expr, $doc:expr, $prefix:expr, $f:expr) => {
        visit_leaf($prefix, $field, MetricKind::Nanos, $doc, $v.as_nanos(), $f)
    };
    (@visit group($gp:literal), $v:expr, $field:expr, $doc:expr, $prefix:expr, $f:expr) => {
        $v.visit(&format!("{}{}", $prefix, $gp), $f)
    };
    (@visit levels($gp:literal), $v:expr, $field:expr, $doc:expr, $prefix:expr, $f:expr) => {
        for (level, reads) in $v.iter().enumerate().filter(|(_, reads)| **reads > 0) {
            visit_leaf($prefix, &format!("{}{level}", $gp), MetricKind::Counter, $doc, *reads, $f);
        }
    };
}

stats_table! {
    /// I/O counters for one storage tier.
    pub struct TierIo, cells TierIoCells, delta by_value {
        /// Bytes read from the tier.
        counter bytes_read;
        /// Bytes written to the tier.
        counter bytes_written;
        /// Number of read operations issued to the tier.
        counter reads;
        /// Number of write operations issued to the tier.
        counter writes;
    }
}

stats_table! {
    /// Compaction / background-work counters.
    pub struct CompactionStats, cells CompactionStatsCells, delta by_value {
        /// Number of compaction (or flush) jobs executed.
        counter jobs;
        /// Total simulated time spent in background compaction work.
        nanos total_time;
        /// Simulated time spent compacting data that lives on the fast tier.
        nanos fast_tier_time;
        /// Simulated time spent compacting data that lives on the slow tier.
        nanos slow_tier_time;
        /// Objects demoted from the fast tier to the slow tier.
        counter demoted_objects;
        /// Objects promoted from the slow tier to the fast tier.
        counter promoted_objects;
        /// Total foreground write-stall time caused by background work.
        nanos stall_time;
        /// Simulated compaction time that overlapped with foreground service
        /// instead of stalling it. Every job a pool worker runs counts, and so
        /// do promotions run on the calling thread (they only extend the
        /// background timeline); demotions run on the caller do not.
        nanos overlap_time;
        /// Number of foreground writes that could not proceed until compaction
        /// freed NVM space. Counts each write that reclaimed space on its
        /// own thread (its slab had no room, or it left utilisation at the
        /// back-pressure ceiling) and each write at the ceiling charged a
        /// wait for space another thread had freed first.
        counter backpressure_stalls;
        /// Compaction job requests accepted onto the background queue (after
        /// the scheduler's per-partition dedup). The batched write path checks
        /// the watermark once per partition sub-batch, so one batch accepts at
        /// most one demotion enqueue per touched partition.
        counter enqueued_jobs;
        /// Compaction jobs discarded at install because the partition's
        /// sorted log installed since their plan. Only a pool worker's job
        /// can be discarded; the worker re-checks the watermark and plans
        /// again against the new state.
        counter install_discards;
        /// Instantaneous number of compaction jobs waiting for a background
        /// worker.
        gauge queue_depth;
        /// Highest compaction queue depth observed so far (a cumulative
        /// high-water mark).
        gauge max_queue_depth;
    }
}

stats_table! {
    /// Cumulative statistics reported by an async submission front-end.
    ///
    /// The front-end multiplexes many logical clients onto a few executor
    /// threads via bounded per-partition request queues; these counters
    /// expose how much coalescing and back-pressure that produced. They are
    /// deliberately separate from [`EngineStats`]: the front-end is a layer
    /// *above* any engine, and one engine may serve several front-ends.
    pub struct FrontendStats, cells FrontendStatsCells, delta by_value {
        /// Requests accepted onto a partition queue.
        counter submitted;
        /// Requests fully serviced (their ticket completed).
        counter completed;
        /// `try_submit` attempts rejected with back-pressure (bounded queue
        /// full, or shrunk by the engine's watermark pressure hint).
        counter rejected;
        /// Write groups installed by executors via `apply_batch` (one per
        /// partition-queue drain chunk).
        counter coalesced_groups;
        /// Write entries carried by those groups. `coalesced_entries /
        /// coalesced_groups` is the mean coalesce width — the group-commit
        /// amortisation that emerges from queue pressure.
        counter coalesced_entries;
        /// Times an executor thread was woken from its idle wait.
        counter wakeups;
        /// Queue drains run by an executor other than `partition % executors`.
        /// Any executor may take any ready partition, so this measures how
        /// far the pool strays from a static partition-to-executor mapping;
        /// it is zero with one executor.
        counter stolen_drains;
        /// Instantaneous number of requests waiting in partition queues.
        gauge queue_depth;
        /// Highest single-partition queue depth observed (a cumulative
        /// high-water mark).
        gauge max_queue_depth;
        /// Highest *total* queued-request count observed across all
        /// partition queues at once (a cumulative high-water mark). Compare
        /// against `queue_depth` to see peak aggregate pressure, not just the
        /// final state.
        gauge max_total_queue_depth;
        /// Instantaneous number of tickets handed out but neither completed
        /// nor abandoned. After a graceful drain this must read zero — a
        /// non-zero value means a client request was stranded.
        gauge outstanding_tickets;
        /// Highest outstanding-ticket count ever observed (a cumulative
        /// high-water mark): the peak number of requests in flight between
        /// submission and completion.
        gauge max_outstanding_tickets;
    }
}

impl FrontendStats {
    /// Mean number of write entries coalesced into one installed group
    /// (0.0 before any group was installed).
    pub fn mean_coalesce_width(&self) -> f64 {
        if self.coalesced_groups == 0 {
            return 0.0;
        }
        self.coalesced_entries as f64 / self.coalesced_groups as f64
    }
}

stats_table! {
    /// Cumulative statistics reported by a network server.
    pub struct NetStats, cells NetStatsCells, delta by_value {
        /// Connections accepted by the listener.
        counter connections_accepted;
        /// Connections fully torn down (reader and responder both finished).
        counter connections_closed;
        /// Request frames decoded successfully.
        counter frames_received;
        /// Response frames written to a transport.
        counter frames_sent;
        /// Payload bytes received in decoded request frames.
        counter bytes_received;
        /// Payload bytes written in response frames.
        counter bytes_sent;
        /// Malformed frames that produced a `ProtocolError` response (or, when
        /// the length prefix itself was unsound, tore down the connection).
        counter protocol_errors;
        /// Requests refused with the retryable `Backpressure` wire status
        /// because the submission queue was full.
        counter backpressure_rejections;
        /// Requests refused with `ShuttingDown` while the server drained.
        counter shutdown_refusals;
        /// Instantaneous number of requests accepted from the wire but not yet
        /// answered.
        gauge in_flight;
        /// Highest per-server in-flight count observed (a cumulative
        /// high-water mark).
        gauge max_in_flight;
        /// Highest in-flight count observed on any *single* connection (a
        /// cumulative high-water mark): how close the busiest connection came
        /// to its per-connection pipelining window.
        gauge max_conn_in_flight;
    }
}

stats_table! {
    /// Snapshot, transaction and cross-partition commit-log counters.
    ///
    /// Engines without snapshot/transaction support report all-zero.
    pub struct TxnStats, cells TxnStatsCells, delta by_value {
        /// Read snapshots pinned via `ConcurrentKvStore::snapshot` (including
        /// the snapshot every transaction and every scan pins internally).
        counter snapshots;
        /// Transactions that validated their read set and committed.
        counter txn_commits;
        /// Transactions rejected at commit with `TxnConflict`.
        counter txn_conflicts;
        /// Cross-partition commit intents persisted to the commit log.
        counter commit_intents;
        /// Commit records sealed after every partition group installed.
        counter commit_seals;
        /// Sealed commit records acknowledged (replayed) during recovery.
        counter commit_replayed;
        /// Unsealed (torn) commit records rolled back during recovery.
        counter commit_rolled_back;
    }
}

/// Health of one partition under corruption pressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PartitionHealth {
    /// No unresolved corruption: reads and writes both served.
    #[default]
    Healthy,
    /// The partition crossed its corruption threshold: reads and scans are
    /// still served (quarantined objects skipped), writes are refused with
    /// the retryable `Degraded` error until a scrub pass comes back clean.
    Degraded,
}

stats_table! {
    /// Integrity, fault-injection and scrubber counters.
    ///
    /// Engines without the integrity subsystem report all-zero.
    pub struct IntegrityStats, cells IntegrityStatsCells, delta by_value {
        /// Checksum mismatches detected on any read, scan, recovery scan or
        /// scrub walk (each corrupt object counted once per observation, by
        /// the code that observed it, until quarantined; compaction carries
        /// checksums unverified).
        counter checksum_failures;
        /// Injected I/O errors surfaced to callers as `PrismError::Io`, or
        /// failing a pool worker's compaction job (its request is dropped).
        counter io_errors;
        /// Objects quarantined (replaced by a tombstone-with-error sentinel)
        /// after corruption was detected.
        counter quarantined_objects;
        /// Corrupt objects resolved from a surviving clean copy instead of
        /// quarantined: a newer NVM version hiding a damaged flash record,
        /// or the DRAM cache's last committed value written back (counted
        /// per resolution, as checksum failures are per detection).
        counter scrub_repairs;
        /// Scrub passes completed (clean or not).
        counter scrub_passes;
        /// Scrub passes that found no corruption and re-armed a degraded
        /// partition.
        counter scrub_clean_passes;
        /// Writes refused with the retryable `Degraded` error.
        counter degraded_write_refusals;
        /// Times a partition entered degraded (read-only) mode.
        counter degraded_entered;
        /// Times a clean scrub pass returned a degraded partition to healthy.
        counter degraded_recovered;
        /// Snapshots aborted with `SnapshotExpired` by the pin age or history
        /// byte caps.
        counter snapshots_expired;
        /// Instantaneous number of partitions currently degraded.
        gauge degraded_partitions;
    }
}

stats_table! {
    /// Cumulative statistics reported by an engine via [`crate::KvStore::stats`].
    pub struct EngineStats, cells EngineStatsCells, delta by_ref {
        /// Reads served from DRAM (caches / memtables).
        counter reads_from_dram;
        /// Reads served from the NVM tier.
        counter reads_from_nvm;
        /// Reads served from the flash tier.
        counter reads_from_flash;
        /// Lookups that found no value.
        counter reads_not_found;
        /// Candidate keys a scan resolved to their visible version (index
        /// or SST record read, checksum verified). Over
        /// `scan_entries_returned` this is the scan read amplification.
        counter scan_entries_resolved;
        /// Entries scans returned to their callers.
        counter scan_entries_returned;
        /// I/O issued to the NVM device (foreground + background).
        group("nvm_") nvm_io: TierIo, TierIoCells;
        /// I/O issued to the flash device (foreground + background).
        group("flash_") flash_io: TierIo, TierIoCells;
        /// Background compaction counters.
        group("compaction_") compaction: CompactionStats, CompactionStatsCells;
        /// Bytes of logical user data written by clients (used to derive write
        /// amplification: `flash_io.bytes_written / user_bytes_written`).
        counter user_bytes_written;
        /// Write-batch groups installed (for PrismDB: per-partition sub-batch
        /// installs; for single-shard engines: one per batch).
        counter batch_groups;
        /// Write-batch entries applied through the batched path (including
        /// entries merged away as duplicates).
        counter batch_entries;
        /// Batched entries that were superseded by a later entry for the same
        /// key in the same partition sub-batch and therefore never touched the
        /// storage tiers (the "merge adjacent slab writes" win).
        counter batch_merged_writes;
        /// Reads served per LSM level (index 0 = L0). Engines without levels
        /// leave this all-zero, and zero levels are not exported.
        levels("reads_level_") reads_per_level;
        /// Snapshot / transaction / commit-log counters (all-zero for engines
        /// without snapshot support).
        group("") txn: TxnStats, TxnStatsCells;
        /// Integrity, fault-injection and scrubber counters (all-zero for
        /// engines without the integrity subsystem).
        group("") integrity: IntegrityStats, IntegrityStatsCells;
    }
}

impl EngineStats {
    /// Total number of point reads that found a value.
    pub fn reads_found(&self) -> u64 {
        self.reads_from_dram + self.reads_from_nvm + self.reads_from_flash
    }

    /// Fraction of found reads served without touching flash.
    ///
    /// Returns 1.0 when no reads have been served yet so that a freshly
    /// started engine does not look like it is flash-bound.
    pub fn fast_read_ratio(&self) -> f64 {
        let total = self.reads_found();
        if total == 0 {
            return 1.0;
        }
        (self.reads_from_dram + self.reads_from_nvm) as f64 / total as f64
    }

    /// Write amplification on flash relative to user-written bytes.
    pub fn flash_write_amplification(&self) -> f64 {
        if self.user_bytes_written == 0 {
            return 0.0;
        }
        self.flash_io.bytes_written as f64 / self.user_bytes_written as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Row = (String, MetricKind, u64);

    /// The arithmetic every table derives, checked entry by entry through
    /// `visit`: counters (and simulated-time sums) subtract saturating at
    /// zero, gauges keep the later snapshot's value.
    fn check_table<T: Copy>(
        fill: fn(&mut dyn FnMut() -> u64) -> T,
        delta: fn(T, T) -> T,
        visit: fn(&T, &str, &mut MetricVisitor<'_>),
    ) {
        let rows = |stats: &T| {
            let mut rows: Vec<Row> = Vec::new();
            visit(stats, "t_", &mut |name, kind, help, value| {
                assert!(!help.is_empty(), "{name} has no help text");
                rows.push((name.to_string(), kind, value));
            });
            rows
        };
        let mut n = 0;
        let earlier = fill(&mut || {
            n += 1;
            n
        });
        let mut n = 0;
        let later = fill(&mut || {
            n += 1;
            100 + 3 * n
        });
        let (before, after) = (rows(&earlier), rows(&later));
        assert!(!before.is_empty());
        let forward = rows(&delta(later, earlier));
        // Idle levels are not exported, so the all-zero reversed window is
        // looked up by name rather than by position.
        let backward = rows(&delta(earlier, later));
        for (i, (name, kind, early)) in before.iter().enumerate() {
            let late = after[i].2;
            let (window, reversed) = match kind {
                MetricKind::Gauge => (late, *early),
                MetricKind::Counter | MetricKind::Nanos => (late - early, 0),
            };
            assert_eq!(forward[i], (name.clone(), *kind, window), "delta of {name}");
            let seen = backward.iter().find(|row| row.0 == *name);
            assert_eq!(
                seen.map_or(0, |row| row.2),
                reversed,
                "reversed delta of {name}"
            );
            assert_eq!(name.ends_with("_ns"), *kind == MetricKind::Nanos, "{name}");
        }
    }

    #[test]
    fn every_table_subtracts_counters_and_keeps_gauges() {
        macro_rules! by_value {
            ($($table:ident),*) => {$(
                check_table($table::filled_with, $table::delta_since, $table::visit);
            )*};
        }
        by_value!(
            TierIo,
            CompactionStats,
            FrontendStats,
            NetStats,
            TxnStats,
            IntegrityStats
        );
        check_table(
            EngineStats::filled_with,
            |later, earlier| later.delta_since(&earlier),
            EngineStats::visit,
        );
    }

    #[test]
    fn visit_names_nest_group_prefixes_and_skip_idle_levels() {
        let mut stats = EngineStats::default();
        stats.reads_per_level[2] = 9;
        stats.compaction.stall_time = Nanos::from_micros(3);
        let mut seen = Vec::new();
        stats.visit("engine_", &mut |name, kind, _, value| {
            seen.push((name.to_string(), kind, value));
        });
        let find = |name: &str| seen.iter().find(|row| row.0 == name).cloned();
        assert_eq!(
            find("engine_compaction_stall_time_ns"),
            Some((
                "engine_compaction_stall_time_ns".to_string(),
                MetricKind::Nanos,
                3_000
            ))
        );
        assert!(find("engine_nvm_bytes_read").is_some());
        // The txn / integrity groups export without an extra prefix.
        assert!(find("engine_txn_commits").is_some());
        assert!(find("engine_checksum_failures").is_some());
        assert_eq!(
            find("engine_compaction_queue_depth").map(|row| row.1),
            Some(MetricKind::Gauge)
        );
        assert_eq!(find("engine_reads_level_2").map(|row| row.2), Some(9));
        assert!(find("engine_reads_level_0").is_none());
    }

    #[test]
    fn cells_snapshot_reads_back_every_kind() {
        let cells = EngineStatsCells::default();
        cells.reads_from_nvm.fetch_add(4, Ordering::Relaxed);
        cells
            .compaction
            .total_time
            .fetch_add(1_500, Ordering::Relaxed);
        cells
            .integrity
            .degraded_partitions
            .store(2, Ordering::Relaxed);
        cells.reads_per_level[7].fetch_add(1, Ordering::Relaxed);
        let mut expected = EngineStats {
            reads_from_nvm: 4,
            ..EngineStats::default()
        };
        expected.compaction.total_time = Nanos::from_nanos(1_500);
        expected.integrity.degraded_partitions = 2;
        expected.reads_per_level[7] = 1;
        assert_eq!(cells.snapshot(), expected);
    }

    #[test]
    fn help_is_the_first_doc_sentence() {
        assert_eq!(first_sentence(" One. Two."), "One");
        assert_eq!(first_sentence(" Spans two lines."), "Spans two lines");
    }

    #[test]
    fn partition_health_defaults_healthy() {
        assert_eq!(PartitionHealth::default(), PartitionHealth::Healthy);
        assert_ne!(PartitionHealth::Degraded, PartitionHealth::Healthy);
    }

    #[test]
    fn mean_coalesce_width_handles_zero_groups() {
        let mut stats = FrontendStats::default();
        assert_eq!(stats.mean_coalesce_width(), 0.0);
        stats.coalesced_groups = 4;
        stats.coalesced_entries = 10;
        assert!((stats.mean_coalesce_width() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn fast_read_ratio_handles_zero_and_mixed() {
        let mut stats = EngineStats::default();
        assert_eq!(stats.fast_read_ratio(), 1.0);
        stats.reads_from_nvm = 3;
        stats.reads_from_flash = 1;
        assert!((stats.fast_read_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn write_amplification() {
        let mut stats = EngineStats::default();
        assert_eq!(stats.flash_write_amplification(), 0.0);
        stats.user_bytes_written = 100;
        stats.flash_io.bytes_written = 450;
        assert!((stats.flash_write_amplification() - 4.5).abs() < 1e-9);
    }
}
