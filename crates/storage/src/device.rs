//! The simulated block device.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prism_types::{Nanos, TierIo};

use crate::fault::{FaultPlan, FaultTier};
use crate::profile::DeviceProfile;

/// The standard page size used for random-access charging.
pub(crate) const PAGE_SIZE: u64 = 4096;

/// Cumulative I/O counters of a [`Device`].
#[derive(Debug, Default)]
pub struct DeviceCounters {
    /// Bytes read (random + sequential).
    pub bytes_read: AtomicU64,
    /// Bytes written (random + sequential).
    pub bytes_written: AtomicU64,
    /// Read operations issued.
    pub reads: AtomicU64,
    /// Write operations issued.
    pub writes: AtomicU64,
    /// Random 4 KB pages read (subset of `reads`).
    pub random_pages_read: AtomicU64,
    /// Random 4 KB pages written (subset of `writes`).
    pub random_pages_written: AtomicU64,
    /// Latency-spike faults injected into this device's accesses by an
    /// attached [`FaultPlan`].
    pub latency_spikes_injected: AtomicU64,
    /// Extra simulated nanoseconds those spikes added.
    pub spike_nanos_injected: AtomicU64,
}

impl DeviceCounters {
    /// Snapshot the counters into the plain [`TierIo`] struct used in
    /// engine statistics.
    pub fn as_tier_io(&self) -> TierIo {
        TierIo {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

/// A simulated storage device.
///
/// The device charges simulated time for each access based on its
/// [`DeviceProfile`] and counts I/O. It holds no data: callers own their
/// contents and use the device purely for timing and accounting, which keeps
/// experiments fast while preserving the performance model.
///
/// All counter updates use relaxed atomics so a device can be shared across
/// engine partitions with `Arc<Device>`.
///
/// # Example
///
/// ```
/// use prism_storage::{Device, DeviceProfile};
///
/// let flash = Device::new(DeviceProfile::qlc_flash(1 << 30));
/// let latency = flash.read_random(4096);
/// assert_eq!(latency, flash.profile().read_latency_4k);
/// assert_eq!(flash.counters().as_tier_io().reads, 1);
/// ```
#[derive(Debug)]
pub struct Device {
    profile: DeviceProfile,
    counters: DeviceCounters,
    used_bytes: AtomicU64,
    fault: Option<(Arc<FaultPlan>, FaultTier)>,
}

impl Device {
    /// Create a device with the given profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Device {
            profile,
            counters: DeviceCounters::default(),
            used_bytes: AtomicU64::new(0),
            fault: None,
        }
    }

    /// Create a device whose accesses roll `plan` for latency-spike
    /// faults (error and corruption faults are rolled by the data-owning
    /// layers — the device holds no data; see the `fault` module docs).
    pub fn with_faults(profile: DeviceProfile, plan: Arc<FaultPlan>, tier: FaultTier) -> Self {
        Device {
            fault: Some((plan, tier)),
            ..Device::new(profile)
        }
    }

    /// The device's performance/cost profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Cumulative I/O counters.
    pub fn counters(&self) -> &DeviceCounters {
        &self.counters
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref().map(|(plan, _)| plan)
    }

    /// Roll the attached fault plan for a latency spike and account for
    /// it; returns the extra latency to add to one access (zero without
    /// a plan or when the roll comes up clean).
    fn spike(&self) -> Nanos {
        let Some((plan, tier)) = &self.fault else {
            return Nanos::ZERO;
        };
        match plan.roll_latency(*tier) {
            Some(extra) => {
                self.counters
                    .latency_spikes_injected
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .spike_nanos_injected
                    .fetch_add(extra.as_nanos(), Ordering::Relaxed);
                extra
            }
            None => Nanos::ZERO,
        }
    }

    fn pages(bytes: u64) -> u64 {
        bytes.div_ceil(PAGE_SIZE).max(1)
    }

    fn seq_transfer_time(bytes: u64, mbps: u64) -> Nanos {
        // bytes / (MB/s) expressed in nanoseconds: bytes * 1000 / mbps gives ns
        // because 1 MB/s == 1 byte/µs.
        Nanos::from_nanos((bytes.max(1)) * 1_000 / mbps.max(1))
    }

    /// Random read of `bytes` bytes. Charged per 4 KB page.
    pub fn read_random(&self, bytes: u64) -> Nanos {
        let pages = Self::pages(bytes);
        self.counters.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.counters
            .random_pages_read
            .fetch_add(pages, Ordering::Relaxed);
        self.profile.read_latency_4k * pages + self.spike()
    }

    /// Random write of `bytes` bytes. Charged per 4 KB page.
    pub fn write_random(&self, bytes: u64) -> Nanos {
        let pages = Self::pages(bytes);
        self.counters
            .bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .random_pages_written
            .fetch_add(pages, Ordering::Relaxed);
        self.write_random_cost(bytes) + self.spike()
    }

    /// The simulated latency of a random write of `bytes`, *without*
    /// recording any I/O or rolling a latency spike: what
    /// [`Device::write_random`] charges when no spike fires. A group of
    /// slot writes subtracts it from what each write was charged to find
    /// the spikes it owes on top of its coalesced price.
    pub fn write_random_cost(&self, bytes: u64) -> Nanos {
        self.profile.write_latency_4k * Self::pages(bytes)
    }

    /// Sequential read of `bytes` bytes: one access latency plus a
    /// bandwidth-limited transfer.
    pub fn read_sequential(&self, bytes: u64) -> Nanos {
        self.counters.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.profile.read_latency_4k
            + Self::seq_transfer_time(bytes, self.profile.seq_read_mbps)
            + self.spike()
    }

    /// Sequential write of `bytes` bytes: one access latency plus a
    /// bandwidth-limited transfer.
    pub fn write_sequential(&self, bytes: u64) -> Nanos {
        self.counters
            .bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.write_sequential_cost(bytes) + self.spike()
    }

    /// The simulated latency of writing `bytes` as one sequential
    /// submission, *without* recording any I/O against the device
    /// counters or rolling a latency spike. A PrismDB partition group of
    /// two or more slot writes, already counted one by one, is re-priced
    /// with it: one access latency plus a bandwidth-limited transfer
    /// instead of one random-write latency per slot, plus the spikes
    /// those writes rolled. A group of one pays its own random write.
    pub fn write_sequential_cost(&self, bytes: u64) -> Nanos {
        self.profile.write_latency_4k + Self::seq_transfer_time(bytes, self.profile.seq_write_mbps)
    }

    /// A synchronous flush / FUA write barrier (used by fsync-enabled WAL
    /// writes). Modelled as one random 4 KB write's worth of latency.
    pub fn sync(&self) -> Nanos {
        self.profile.write_latency_4k
    }

    /// Record that `bytes` of capacity are now in use.
    pub fn allocate(&self, bytes: u64) {
        self.used_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record that `bytes` of capacity have been released.
    pub fn release(&self, bytes: u64) {
        let mut current = self.used_bytes.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.used_bytes.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Bytes currently accounted as in use.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Fraction of the device capacity currently in use.
    pub fn utilization(&self) -> f64 {
        self.used_bytes() as f64 / self.profile.capacity_bytes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    #[test]
    fn random_reads_charge_per_page() {
        let dev = Device::new(DeviceProfile::optane_nvm(1 << 30));
        let one_page = dev.read_random(100);
        let three_pages = dev.read_random(3 * 4096);
        assert_eq!(one_page, dev.profile().read_latency_4k);
        assert_eq!(three_pages, dev.profile().read_latency_4k * 3);
        assert_eq!(dev.counters().random_pages_read.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sequential_io_is_bandwidth_limited() {
        let dev = Device::new(DeviceProfile::qlc_flash(1 << 30));
        let small = dev.write_sequential(4096);
        let large = dev.write_sequential(64 << 20);
        assert!(large > small * 100);
        // Sequential writes of large files are much cheaper per byte than
        // random page writes.
        let per_byte_seq = large.as_nanos() as f64 / (64u64 << 20) as f64;
        let per_byte_rand = dev.write_random(4096).as_nanos() as f64 / 4096.0;
        assert!(per_byte_rand > 5.0 * per_byte_seq);
    }

    #[test]
    fn counters_accumulate() {
        let dev = Device::new(DeviceProfile::tlc_flash(1 << 30));
        dev.read_random(4096);
        dev.write_random(4096);
        dev.read_sequential(8192);
        dev.write_sequential(8192);
        let io = dev.counters().as_tier_io();
        assert_eq!(io.reads, 2);
        assert_eq!(io.writes, 2);
        assert_eq!(io.bytes_read, 4096 + 8192);
        assert_eq!(io.bytes_written, 4096 + 8192);
    }

    #[test]
    fn capacity_accounting() {
        let dev = Device::new(DeviceProfile::optane_nvm(10_000));
        dev.allocate(6_000);
        assert_eq!(dev.used_bytes(), 6_000);
        assert!((dev.utilization() - 0.6).abs() < 1e-9);
        dev.release(8_000);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn sync_costs_a_write() {
        let dev = Device::new(DeviceProfile::optane_nvm(1 << 30));
        assert_eq!(dev.sync(), dev.profile().write_latency_4k);
    }

    #[test]
    fn latency_spikes_slow_accesses_and_are_counted() {
        use crate::fault::{FaultPlan, FaultTier, TierFaultRates};

        let spike = Nanos::from_micros(750);
        let plan = Arc::new(FaultPlan::new(42).with_rates(TierFaultRates {
            latency_spike: 1.0,
            spike,
            ..TierFaultRates::default()
        }));
        let profile = DeviceProfile::qlc_flash(1 << 30);
        let faulty = Device::with_faults(profile, plan.clone(), FaultTier::Flash);
        let clean = Device::new(profile);
        assert_eq!(faulty.read_random(4096), clean.read_random(4096) + spike);
        assert_eq!(faulty.write_random(4096), clean.write_random(4096) + spike);
        assert_eq!(
            faulty
                .counters()
                .latency_spikes_injected
                .load(Ordering::Relaxed),
            2
        );
        assert_eq!(
            faulty
                .counters()
                .spike_nanos_injected
                .load(Ordering::Relaxed),
            2 * spike.as_nanos()
        );
        assert_eq!(plan.snapshot().latency_spikes, 2);
    }
}
