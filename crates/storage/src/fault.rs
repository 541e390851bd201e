//! Deterministic, seedable storage fault injection.
//!
//! A [`FaultPlan`] decides, per storage operation, whether to inject a
//! fault and which kind: an I/O error surfaced to the caller, a bit flip
//! in the stored payload (to be caught later by a checksum), a torn
//! write (the tail of the payload never made it to media), or a latency
//! spike. Decisions are drawn from a counter-based splitmix64 stream
//! seeded at construction, so the same plan over the same operation
//! sequence injects the same faults — the property the fault
//! differential column depends on.
//!
//! The simulated [`Device`](crate::Device) holds no data, so the plan
//! splits responsibilities by layer:
//!
//! * **Device paths** apply latency-spike faults directly (they only
//!   affect the returned service time) and count them.
//! * **Data-owning layers** (the NVM slab store, the flash SST builder)
//!   call [`FaultPlan::roll`] (the builder [`FaultPlan::roll_corruption`])
//!   with tier/partition/op context and apply the returned
//!   [`InjectedFault`]: a bit flip or a torn write through
//!   [`InjectedFault::damage`], the one routine that corrupts a version
//!   about to be stored in either tier, and an I/O error by returning
//!   `PrismError::Io`.
//!
//! Injection counters live on the plan; detection is credited back via
//! [`FaultPlan::note_detected`] when a checksum catches a corrupted
//! payload, which lets the chaos harness assert a 100% detection rate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prism_types::{Nanos, Value, Version};

/// Storage tier a fault decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTier {
    /// The NVM slab tier (slab slots and the commit log ride on NVM).
    Nvm,
    /// The flash SST tier.
    Flash,
}

/// Kind of storage operation being rolled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A read of persisted state.
    Read,
    /// A write of new state.
    Write,
}

/// The fault modes a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail the operation with `PrismError::Io`.
    IoError,
    /// Flip one bit of the stored payload (write paths only; detected
    /// later by a checksum).
    BitFlip,
    /// Persist only a prefix of the payload (write paths only).
    TornWrite,
    /// Add extra service latency but complete successfully.
    LatencySpike,
}

/// A fault decision returned by [`FaultPlan::roll`], carrying the
/// details the injecting layer needs to apply it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Return `PrismError::Io` without touching state.
    IoError,
    /// Flip bit `bit` of byte `byte` in the payload about to be stored.
    BitFlip {
        /// Byte offset into the payload (already reduced mod its length).
        byte: usize,
        /// Bit index 0..8 within that byte.
        bit: u8,
    },
    /// Store only the first `keep` bytes of the payload.
    TornWrite {
        /// Payload prefix length that survives.
        keep: usize,
    },
    /// Complete the operation but add `extra` to its service time.
    LatencySpike(Nanos),
}

impl InjectedFault {
    /// Apply a payload corruption to a version about to be stored, after
    /// its checksum was computed, so the damage is real: whichever tier
    /// stores it, a later read sees content that no longer matches. A bit
    /// flip hits the value byte it names (wrapped to the value's length)
    /// and a torn write keeps a strictly shorter prefix; with no value
    /// bytes to damage — a tombstone or an empty value — the checksum's
    /// low bit flips instead. Other faults leave the version alone.
    pub fn damage(&self, version: &mut Version) {
        let value = version.value.as_ref().filter(|v| !v.is_empty());
        let damaged = match (*self, value) {
            (InjectedFault::BitFlip { byte, bit }, Some(v)) => {
                let mut bytes = v.as_bytes().to_vec();
                let idx = byte % bytes.len();
                bytes[idx] ^= 1 << bit;
                Value::from_vec(bytes)
            }
            (InjectedFault::TornWrite { keep }, Some(v)) => {
                Value::from(&v.as_bytes()[..keep.min(v.len() - 1)])
            }
            (InjectedFault::BitFlip { .. } | InjectedFault::TornWrite { .. }, None) => {
                version.checksum ^= 1;
                return;
            }
            _ => return,
        };
        version.value = Some(damaged);
    }
}

/// Per-tier fault probabilities (each in `[0, 1]`, rolled per op).
///
/// Bit-flip and torn-write rates only apply to write ops; I/O-error and
/// latency-spike rates apply to reads and writes alike.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierFaultRates {
    /// Probability an op fails with an injected I/O error.
    pub io_error: f64,
    /// Probability a write's stored payload gets one bit flipped.
    pub bit_flip: f64,
    /// Probability a write persists only a prefix of its payload.
    pub torn_write: f64,
    /// Probability an op is slowed by `spike` extra latency.
    pub latency_spike: f64,
    /// Extra latency added when a spike fires.
    pub spike: Nanos,
}

/// A targeted one-shot fault armed by a test: fires on the next matching
/// operation, then disarms.
#[derive(Debug, Clone, Copy)]
pub struct TargetedFault {
    /// Tier the fault waits for.
    pub tier: FaultTier,
    /// Partition the fault waits for (`None` matches any).
    pub partition: Option<usize>,
    /// Operation kind the fault waits for.
    pub op: FaultOp,
    /// What to inject when it fires.
    pub mode: FaultMode,
}

/// Cumulative injection/detection counters of a [`FaultPlan`].
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// I/O errors injected.
    pub io_errors: AtomicU64,
    /// Bit flips injected into stored payloads.
    pub bit_flips: AtomicU64,
    /// Torn writes injected.
    pub torn_writes: AtomicU64,
    /// Latency spikes injected.
    pub latency_spikes: AtomicU64,
    /// Corrupted payloads caught by a checksum (credited by the
    /// detecting layer via [`FaultPlan::note_detected`]).
    pub detected: AtomicU64,
}

/// A snapshot of [`FaultCounters`] as plain integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCountersSnapshot {
    /// I/O errors injected.
    pub io_errors: u64,
    /// Bit flips injected.
    pub bit_flips: u64,
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// Corruptions caught by a checksum.
    pub detected: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic, seedable fault-injection plan shared by every layer of
/// one engine (see the module docs for the division of labour).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    counter: AtomicU64,
    nvm: TierFaultRates,
    flash: TierFaultRates,
    targeted: Mutex<Vec<TargetedFault>>,
    counters: FaultCounters,
}

impl FaultPlan {
    /// A plan that injects nothing until rates are set or a targeted
    /// fault is armed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            counter: AtomicU64::new(0),
            nvm: TierFaultRates::default(),
            flash: TierFaultRates::default(),
            targeted: Mutex::new(Vec::new()),
            counters: FaultCounters::default(),
        }
    }

    /// Set the probabilistic rates for one tier (builder-style).
    pub fn with_tier_rates(mut self, tier: FaultTier, rates: TierFaultRates) -> FaultPlan {
        match tier {
            FaultTier::Nvm => self.nvm = rates,
            FaultTier::Flash => self.flash = rates,
        }
        self
    }

    /// Set the same probabilistic rates for both tiers (builder-style).
    pub fn with_rates(self, rates: TierFaultRates) -> FaultPlan {
        self.with_tier_rates(FaultTier::Nvm, rates)
            .with_tier_rates(FaultTier::Flash, rates)
    }

    /// Arm a targeted one-shot fault: it fires on the next operation
    /// matching its tier/partition/op, then disarms.
    pub fn arm(&self, fault: TargetedFault) {
        self.targeted
            .lock()
            .expect("fault plan mutex poisoned")
            .push(fault);
    }

    /// Injection/detection counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Plain-integer snapshot of the counters.
    pub fn snapshot(&self) -> FaultCountersSnapshot {
        FaultCountersSnapshot {
            io_errors: self.counters.io_errors.load(Ordering::Relaxed),
            bit_flips: self.counters.bit_flips.load(Ordering::Relaxed),
            torn_writes: self.counters.torn_writes.load(Ordering::Relaxed),
            latency_spikes: self.counters.latency_spikes.load(Ordering::Relaxed),
            detected: self.counters.detected.load(Ordering::Relaxed),
        }
    }

    /// Credit a checksum layer with catching an injected corruption.
    pub fn note_detected(&self) {
        self.counters.detected.fetch_add(1, Ordering::Relaxed);
    }

    /// Total payload corruptions injected (bit flips + torn writes) —
    /// the denominator of the detection-rate assertion.
    pub fn injected_corruptions(&self) -> u64 {
        self.counters.bit_flips.load(Ordering::Relaxed)
            + self.counters.torn_writes.load(Ordering::Relaxed)
    }

    fn draw(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed.wrapping_add(n.wrapping_mul(GOLDEN)))
    }

    /// A uniform float in `[0, 1)` from the deterministic stream.
    fn draw_unit(&self) -> f64 {
        (self.draw() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn rates(&self, tier: FaultTier) -> TierFaultRates {
        match tier {
            FaultTier::Nvm => self.nvm,
            FaultTier::Flash => self.flash,
        }
    }

    fn materialize(&self, mode: FaultMode, tier: FaultTier, payload_len: usize) -> InjectedFault {
        match mode {
            FaultMode::IoError => {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                InjectedFault::IoError
            }
            FaultMode::BitFlip => {
                self.counters.bit_flips.fetch_add(1, Ordering::Relaxed);
                let r = self.draw();
                let byte = if payload_len == 0 {
                    0
                } else {
                    (r as usize) % payload_len
                };
                InjectedFault::BitFlip {
                    byte,
                    bit: ((r >> 32) % 8) as u8,
                }
            }
            FaultMode::TornWrite => {
                self.counters.torn_writes.fetch_add(1, Ordering::Relaxed);
                let keep = if payload_len == 0 {
                    0
                } else {
                    (self.draw() as usize) % payload_len
                };
                InjectedFault::TornWrite { keep }
            }
            FaultMode::LatencySpike => {
                self.counters.latency_spikes.fetch_add(1, Ordering::Relaxed);
                InjectedFault::LatencySpike(self.rates(tier).spike)
            }
        }
    }

    /// Roll the plan for one operation. Returns at most one fault;
    /// `payload_len` is the length of the bytes about to be stored (0
    /// for reads) and bounds bit-flip/torn-write positions.
    ///
    /// Targeted one-shot faults fire first; otherwise one uniform draw
    /// is compared against the tier's cumulative rates, so at most one
    /// probabilistic mode fires per op.
    pub fn roll(
        &self,
        tier: FaultTier,
        partition: usize,
        op: FaultOp,
        payload_len: usize,
    ) -> Option<InjectedFault> {
        self.roll_filtered(tier, partition, op, payload_len, |_| true)
    }

    /// Roll only the payload-corruption modes (bit flip, torn write) —
    /// the roll data-owning write paths without a `Result` return (the
    /// SST builder) use; I/O errors for those paths are rolled where an
    /// error can be surfaced.
    pub fn roll_corruption(
        &self,
        tier: FaultTier,
        partition: usize,
        payload_len: usize,
    ) -> Option<InjectedFault> {
        self.roll_filtered(tier, partition, FaultOp::Write, payload_len, |m| {
            matches!(m, FaultMode::BitFlip | FaultMode::TornWrite)
        })
    }

    /// Roll only for an injected I/O error on this op. Returns true when
    /// the caller must fail with `PrismError::Io`.
    pub fn roll_io_error(&self, tier: FaultTier, partition: usize, op: FaultOp) -> bool {
        matches!(
            self.roll_filtered(tier, partition, op, 0, |m| m == FaultMode::IoError),
            Some(InjectedFault::IoError)
        )
    }

    fn roll_filtered(
        &self,
        tier: FaultTier,
        partition: usize,
        op: FaultOp,
        payload_len: usize,
        allow: impl Fn(FaultMode) -> bool,
    ) -> Option<InjectedFault> {
        {
            let mut targeted = self.targeted.lock().expect("fault plan mutex poisoned");
            if let Some(pos) = targeted.iter().position(|t| {
                t.tier == tier
                    && t.op == op
                    && t.partition.map(|p| p == partition).unwrap_or(true)
                    && allow(t.mode)
                    && (op == FaultOp::Write
                        || !matches!(t.mode, FaultMode::BitFlip | FaultMode::TornWrite))
            }) {
                let fault = targeted.swap_remove(pos);
                return Some(self.materialize(fault.mode, tier, payload_len));
            }
        }

        let rates = self.rates(tier);
        let write = op == FaultOp::Write;
        let gate = |mode: FaultMode, rate: f64| if allow(mode) { rate } else { 0.0 };
        let io_error = gate(FaultMode::IoError, rates.io_error);
        let bit_flip = gate(FaultMode::BitFlip, if write { rates.bit_flip } else { 0.0 });
        let torn = gate(
            FaultMode::TornWrite,
            if write { rates.torn_write } else { 0.0 },
        );
        let spike = gate(FaultMode::LatencySpike, rates.latency_spike);
        if io_error + bit_flip + torn + spike <= 0.0 {
            return None;
        }
        let p = self.draw_unit();
        let mut edge = io_error;
        if p < edge {
            return Some(self.materialize(FaultMode::IoError, tier, payload_len));
        }
        edge += bit_flip;
        if p < edge {
            return Some(self.materialize(FaultMode::BitFlip, tier, payload_len));
        }
        edge += torn;
        if p < edge {
            return Some(self.materialize(FaultMode::TornWrite, tier, payload_len));
        }
        edge += spike;
        if p < edge {
            return Some(self.materialize(FaultMode::LatencySpike, tier, payload_len));
        }
        None
    }

    /// Device-path helper: roll for a latency spike only (devices hold
    /// no data, so error/corruption faults are rolled by the data-owning
    /// layers instead). Returns the extra latency to add, if any.
    pub fn roll_latency(&self, tier: FaultTier) -> Option<Nanos> {
        let rates = self.rates(tier);
        if rates.latency_spike <= 0.0 {
            return None;
        }
        if self.draw_unit() < rates.latency_spike {
            self.counters.latency_spikes.fetch_add(1, Ordering::Relaxed);
            Some(rates.spike)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_with(rates: TierFaultRates) -> FaultPlan {
        FaultPlan::new(0xFA01).with_rates(rates)
    }

    #[test]
    fn zero_rate_plan_injects_nothing() {
        let plan = FaultPlan::new(7);
        for i in 0..10_000 {
            assert_eq!(plan.roll(FaultTier::Nvm, i % 4, FaultOp::Write, 128), None);
        }
        assert_eq!(plan.snapshot(), FaultCountersSnapshot::default());
    }

    #[test]
    fn same_seed_same_faults() {
        let make = || {
            plan_with(TierFaultRates {
                io_error: 0.01,
                bit_flip: 0.01,
                torn_write: 0.01,
                latency_spike: 0.01,
                spike: Nanos::from_micros(50),
            })
        };
        let a = make();
        let b = make();
        for i in 0..5_000 {
            let op = if i % 3 == 0 {
                FaultOp::Read
            } else {
                FaultOp::Write
            };
            assert_eq!(
                a.roll(FaultTier::Flash, i % 8, op, 256),
                b.roll(FaultTier::Flash, i % 8, op, 256)
            );
        }
        assert_ne!(a.snapshot(), FaultCountersSnapshot::default());
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = plan_with(TierFaultRates {
            io_error: 0.05,
            ..TierFaultRates::default()
        });
        let mut hits = 0u64;
        for _ in 0..20_000 {
            if plan.roll(FaultTier::Nvm, 0, FaultOp::Read, 0).is_some() {
                hits += 1;
            }
        }
        // 5% of 20k = 1000 expected; accept a generous band.
        assert!((600..1400).contains(&hits), "hits={hits}");
        assert_eq!(plan.snapshot().io_errors, hits);
    }

    #[test]
    fn reads_never_get_payload_corruption() {
        let plan = plan_with(TierFaultRates {
            bit_flip: 1.0,
            torn_write: 1.0,
            ..TierFaultRates::default()
        });
        for _ in 0..1_000 {
            assert_eq!(plan.roll(FaultTier::Nvm, 0, FaultOp::Read, 0), None);
        }
        let forced = plan.roll(FaultTier::Nvm, 0, FaultOp::Write, 64);
        assert!(matches!(
            forced,
            Some(InjectedFault::BitFlip { .. }) | Some(InjectedFault::TornWrite { .. })
        ));
    }

    #[test]
    fn targeted_fault_fires_once_on_match() {
        let plan = FaultPlan::new(11);
        plan.arm(TargetedFault {
            tier: FaultTier::Flash,
            partition: Some(3),
            op: FaultOp::Write,
            mode: FaultMode::BitFlip,
        });
        // Wrong tier, wrong partition, wrong op: nothing fires.
        assert_eq!(plan.roll(FaultTier::Nvm, 3, FaultOp::Write, 64), None);
        assert_eq!(plan.roll(FaultTier::Flash, 2, FaultOp::Write, 64), None);
        assert_eq!(plan.roll(FaultTier::Flash, 3, FaultOp::Read, 0), None);
        // Match fires exactly once.
        let fault = plan.roll(FaultTier::Flash, 3, FaultOp::Write, 64);
        assert!(matches!(fault, Some(InjectedFault::BitFlip { byte, .. }) if byte < 64));
        assert_eq!(plan.roll(FaultTier::Flash, 3, FaultOp::Write, 64), None);
        assert_eq!(plan.snapshot().bit_flips, 1);
    }

    #[test]
    fn bit_flip_positions_stay_in_bounds() {
        let plan = plan_with(TierFaultRates {
            bit_flip: 1.0,
            ..TierFaultRates::default()
        });
        for len in [1usize, 2, 7, 64, 4096] {
            for _ in 0..50 {
                match plan.roll(FaultTier::Nvm, 0, FaultOp::Write, len) {
                    Some(InjectedFault::BitFlip { byte, bit }) => {
                        assert!(byte < len);
                        assert!(bit < 8);
                    }
                    other => panic!("expected bit flip, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn detection_counter_tracks_notes() {
        let plan = FaultPlan::new(1);
        plan.note_detected();
        plan.note_detected();
        assert_eq!(plan.snapshot().detected, 2);
        assert_eq!(plan.injected_corruptions(), 0);
    }

    #[test]
    fn filtered_rolls_only_fire_their_modes() {
        let plan = plan_with(TierFaultRates {
            io_error: 1.0,
            ..TierFaultRates::default()
        });
        // Corruption-only roll never fires on a pure-io-error plan.
        assert_eq!(plan.roll_corruption(FaultTier::Flash, 0, 128), None);
        assert!(plan.roll_io_error(FaultTier::Flash, 0, FaultOp::Read));

        let flips = plan_with(TierFaultRates {
            bit_flip: 1.0,
            ..TierFaultRates::default()
        });
        assert!(!flips.roll_io_error(FaultTier::Nvm, 0, FaultOp::Write));
        assert!(matches!(
            flips.roll_corruption(FaultTier::Nvm, 0, 128),
            Some(InjectedFault::BitFlip { .. })
        ));
        // Targeted faults respect the filter too.
        let quiet = FaultPlan::new(99);
        quiet.arm(TargetedFault {
            tier: FaultTier::Flash,
            partition: None,
            op: FaultOp::Write,
            mode: FaultMode::IoError,
        });
        assert_eq!(quiet.roll_corruption(FaultTier::Flash, 0, 64), None);
        assert!(quiet.roll_io_error(FaultTier::Flash, 0, FaultOp::Write));
    }

    #[test]
    fn latency_roll_only_spikes() {
        let plan = plan_with(TierFaultRates {
            latency_spike: 1.0,
            spike: Nanos::from_micros(500),
            ..TierFaultRates::default()
        });
        assert_eq!(
            plan.roll_latency(FaultTier::Flash),
            Some(Nanos::from_micros(500))
        );
        let quiet = FaultPlan::new(2);
        assert_eq!(quiet.roll_latency(FaultTier::Nvm), None);
    }
}
