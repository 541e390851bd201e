//! The global commit sequencer: one monotone counter shared by every
//! partition, doubling as the engine's snapshot clock.
//!
//! Every write (single put/delete, batch group, transaction commit)
//! allocates its commit sequence from [`CommitSequencer::allocate`] while
//! holding the write lock of the partition(s) it mutates, and stamps the
//! new versions with it (the per-entry `timestamp` that already flows
//! through the NVM slab, demotions and SSTs *is* the commit sequence).
//! A snapshot pins the current sequence with [`CommitSequencer::pin`];
//! readers then filter to versions with `seq <= pinned`.
//!
//! # Why pin() loads the counter under the pin-registry mutex
//!
//! A writer allocates its sequence `N` (an atomic `fetch_add`) and then
//! asks [`CommitSequencer::has_pins`] whether any snapshot is live before
//! deciding to preserve the version it is about to supersede. `pin()`
//! loads the counter *inside* the registry mutex, so the two critical
//! sections serialise: either the pin registers first (the writer sees it
//! and records an undo version), or the writer's check runs first (then
//! the pin's later load observes the `fetch_add` and returns `p >= N`, so
//! the snapshot correctly sees the *new* version and needs no undo).
//! Either way no snapshot ever loses a version it was entitled to.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotone commit-sequence allocator with a refcounted pin registry.
#[derive(Debug, Default)]
pub(crate) struct CommitSequencer {
    counter: AtomicU64,
    /// pinned sequence -> number of live snapshots pinned at it.
    pins: Mutex<BTreeMap<u64, usize>>,
    /// Sequences whose pins were force-expired (snapshot-cap
    /// enforcement): their handles observe `SnapshotExpired` instead of
    /// silently reading freed history. An expired sequence can never be
    /// re-pinned — expiry requires the counter to have advanced past it,
    /// and new pins always pin the current counter — so membership is
    /// permanent and unambiguous. The set grows by one entry per expiry
    /// event, which is bounded by the configured caps in practice.
    expired: Mutex<HashSet<u64>>,
}

impl CommitSequencer {
    pub(crate) fn new() -> Self {
        CommitSequencer::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, usize>> {
        self.pins
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Allocate the next commit sequence (strictly positive, strictly
    /// increasing). Call while holding the write lock of every partition
    /// the commit will touch, so the stamped versions are installed
    /// before any later reader can run.
    pub(crate) fn allocate(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The most recently allocated sequence (0 before the first write).
    pub(crate) fn current(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Fast-forward the counter to at least `seq` (recovery rebuilds the
    /// clock from the largest persisted timestamp).
    pub(crate) fn advance_past(&self, seq: u64) {
        self.counter.fetch_max(seq, Ordering::SeqCst);
    }

    /// Pin the current sequence for a snapshot. The caller must later
    /// [`CommitSequencer::release`] the returned value exactly once.
    pub(crate) fn pin(&self) -> u64 {
        let mut pins = self.lock();
        // Load inside the mutex — see the module docs for why.
        let pinned = self.counter.load(Ordering::SeqCst);
        *pins.entry(pinned).or_insert(0) += 1;
        pinned
    }

    /// Release one pin previously returned by [`CommitSequencer::pin`].
    pub(crate) fn release(&self, pinned: u64) {
        let mut pins = self.lock();
        if let Some(count) = pins.get_mut(&pinned) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&pinned);
            }
        }
    }

    /// Whether any snapshot is currently pinned. Writers consult this
    /// (after allocating their sequence) to decide whether superseded
    /// versions must be preserved for snapshot readers.
    pub(crate) fn has_pins(&self) -> bool {
        !self.lock().is_empty()
    }

    /// Number of live pins (for stats/gauges).
    pub(crate) fn active_pins(&self) -> u64 {
        self.lock().values().map(|c| *c as u64).sum()
    }

    /// The oldest pinned sequence, if any snapshot is live.
    pub(crate) fn oldest_pin(&self) -> Option<u64> {
        self.lock().keys().next().copied()
    }

    /// Force-expire every pin at the oldest pinned sequence (snapshot-cap
    /// enforcement): the pins are dropped from the registry and the
    /// sequence is recorded as expired, so their handles fail with
    /// `SnapshotExpired` instead of reading history that is about to be
    /// freed. Returns `(sequence, pin_count)` or `None` with no pins.
    pub(crate) fn expire_oldest(&self) -> Option<(u64, u64)> {
        let mut pins = self.lock();
        let (&seq, &count) = pins.iter().next()?;
        pins.remove(&seq);
        drop(pins);
        self.expired
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .insert(seq);
        Some((seq, count as u64))
    }

    /// Whether a pinned sequence was force-expired.
    pub(crate) fn is_expired(&self, seq: u64) -> bool {
        self.expired
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .contains(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_strictly_increasing_and_positive() {
        let seq = CommitSequencer::new();
        assert_eq!(seq.current(), 0);
        let a = seq.allocate();
        let b = seq.allocate();
        assert!(a >= 1);
        assert!(b > a);
        assert_eq!(seq.current(), b);
    }

    #[test]
    fn pins_are_refcounted_and_release_restores_emptiness() {
        let seq = CommitSequencer::new();
        seq.allocate();
        assert!(!seq.has_pins());
        let p1 = seq.pin();
        let p2 = seq.pin();
        assert_eq!(p1, p2, "no writes between pins");
        assert_eq!(seq.active_pins(), 2);
        seq.release(p1);
        assert!(seq.has_pins());
        seq.release(p2);
        assert!(!seq.has_pins());
        assert_eq!(seq.active_pins(), 0);
    }

    #[test]
    fn advance_past_never_moves_backwards() {
        let seq = CommitSequencer::new();
        seq.advance_past(100);
        assert_eq!(seq.current(), 100);
        seq.advance_past(50);
        assert_eq!(seq.current(), 100);
        assert!(seq.allocate() > 100);
    }

    #[test]
    fn expiring_the_oldest_pin_drops_it_and_marks_it_expired() {
        let seq = CommitSequencer::new();
        seq.allocate();
        let old = seq.pin();
        seq.allocate();
        seq.allocate();
        let new = seq.pin();
        assert!(new > old);
        let (expired_seq, count) = seq.expire_oldest().expect("a pin exists");
        assert_eq!(expired_seq, old);
        assert_eq!(count, 1);
        assert!(seq.is_expired(old));
        assert!(!seq.is_expired(new));
        assert_eq!(seq.oldest_pin(), Some(new));
        // Releasing an expired handle is a harmless no-op.
        seq.release(old);
        assert_eq!(seq.active_pins(), 1);
        assert_eq!(seq.expire_oldest(), Some((new, 1)));
        assert_eq!(seq.oldest_pin(), None);
        assert!(seq.expire_oldest().is_none());
    }

    #[test]
    fn pin_tracks_the_latest_allocation() {
        let seq = CommitSequencer::new();
        let a = seq.allocate();
        let p = seq.pin();
        assert_eq!(p, a);
        let b = seq.allocate();
        assert!(b > p, "writes after the pin get later sequences");
        seq.release(p);
    }
}
