//! Tiered storage device simulator.
//!
//! The paper evaluates PrismDB on real NVMe devices: an Intel Optane P5800X
//! (3D XPoint "NVM"), an Intel 760p (TLC NAND) and an Intel 660p (QLC NAND).
//! This crate replaces those devices with a deterministic simulator that
//! reproduces the properties the paper's results depend on:
//!
//! * the ~65× random-read latency gap between NVM and QLC (Table 1),
//! * the ~25× cost-per-GB gap and blended multi-tier cost (Table 2, Fig. 9),
//! * the ~2000× endurance (DWPD) gap that drives the lifetime analysis
//!   (Fig. 12), and
//! * sequential-vs-random access asymmetry on flash.
//!
//! Devices do **not** hold data — the NVM slab store and flash SST layer own
//! their contents in memory. A [`Device`] is an accounting object: every
//! access charges simulated time and increments I/O counters, which is all
//! the evaluation needs.
//!
//! # Example
//!
//! ```
//! use prism_storage::{Device, DeviceProfile};
//!
//! let nvm = Device::new(DeviceProfile::optane_nvm(16 << 30));
//! let qlc = Device::new(DeviceProfile::qlc_flash(128 << 30));
//! let fast = nvm.read_random(4096);
//! let slow = qlc.read_random(4096);
//! assert!(slow.as_nanos() > 50 * fast.as_nanos());
//! ```

mod commitlog;
mod cost;
mod device;
mod endurance;
mod fault;
mod profile;

pub use commitlog::{group_digest, CommitLog, CommitLogCounters, CommitPart, CommitRecord};
pub use cost::blended_cost_per_gb;
pub use device::{Device, DeviceCounters};
pub use endurance::{lifetime_years, EnduranceModel};
pub use fault::{
    FaultCounters, FaultCountersSnapshot, FaultMode, FaultOp, FaultPlan, FaultTier, InjectedFault,
    TargetedFault, TierFaultRates,
};
pub use profile::{CpuCosts, DeviceKind, DeviceProfile};

use std::sync::Arc;

use prism_types::TierIo;

/// The pair of storage devices backing a two-tier deployment, plus the CPU
/// cost model shared by all engines.
///
/// Engines hold `Arc<Device>` handles so all partitions of one engine share
/// the same physical device counters, exactly like partitions sharing one
/// drive in the real system.
#[derive(Debug, Clone)]
pub struct TieredStorage {
    /// The fast tier (NVM).
    pub nvm: Arc<Device>,
    /// The slow tier (flash: TLC or QLC).
    pub flash: Arc<Device>,
    /// CPU cost constants used when charging for index lookups, merges, etc.
    pub cpu: CpuCosts,
    /// The fault-injection plan shared by both devices and the data
    /// layers above them (`None` for a fault-free deployment).
    pub fault: Option<Arc<FaultPlan>>,
}

impl TieredStorage {
    /// Build a tiered setup from two device profiles.
    pub fn new(nvm_profile: DeviceProfile, flash_profile: DeviceProfile) -> Self {
        TieredStorage {
            nvm: Arc::new(Device::new(nvm_profile)),
            flash: Arc::new(Device::new(flash_profile)),
            cpu: CpuCosts::default(),
            fault: None,
        }
    }

    /// Build a tiered setup whose devices and data layers share a
    /// fault-injection plan.
    pub fn with_fault_plan(
        nvm_profile: DeviceProfile,
        flash_profile: DeviceProfile,
        plan: Arc<FaultPlan>,
    ) -> Self {
        TieredStorage {
            nvm: Arc::new(Device::with_faults(
                nvm_profile,
                plan.clone(),
                FaultTier::Nvm,
            )),
            flash: Arc::new(Device::with_faults(
                flash_profile,
                plan.clone(),
                FaultTier::Flash,
            )),
            cpu: CpuCosts::default(),
            fault: Some(plan),
        }
    }

    /// Blended dollar cost per gigabyte across the two tiers, weighted by
    /// capacity, as reported in Table 2 and Figure 9 of the paper.
    pub fn cost_per_gb(&self) -> f64 {
        blended_cost_per_gb(&[
            (self.nvm.profile(), self.nvm.profile().capacity_bytes),
            (self.flash.profile(), self.flash.profile().capacity_bytes),
        ])
    }

    /// Combined I/O counters of the NVM device as a [`TierIo`] snapshot.
    pub fn nvm_io(&self) -> TierIo {
        self.nvm.counters().as_tier_io()
    }

    /// Combined I/O counters of the flash device as a [`TierIo`] snapshot.
    pub fn flash_io(&self) -> TierIo {
        self.flash.counters().as_tier_io()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_splits_capacity() {
        let storage = TieredStorage::new(
            DeviceProfile::optane_nvm(20 << 30),
            DeviceProfile::qlc_flash(80 << 30),
        );
        assert_eq!(storage.nvm.profile().capacity_bytes, 20 << 30);
        assert_eq!(storage.flash.profile().capacity_bytes, 80 << 30);
    }

    #[test]
    fn het_cost_sits_between_tiers() {
        let storage = TieredStorage::new(
            DeviceProfile::optane_nvm(11 << 30),
            DeviceProfile::qlc_flash(89 << 30),
        );
        let cost = storage.cost_per_gb();
        let nvm_cost = storage.nvm.profile().cost_per_gb;
        let qlc_cost = storage.flash.profile().cost_per_gb;
        assert!(cost > qlc_cost && cost < nvm_cost);
        // Paper: ~11% NVM lands near $0.34/GB.
        assert!(cost > 0.25 && cost < 0.45, "cost was {cost}");
    }

    #[test]
    fn fault_plan_is_shared_by_both_devices() {
        let plan = Arc::new(FaultPlan::new(9).with_rates(TierFaultRates {
            latency_spike: 1.0,
            spike: prism_types::Nanos::from_micros(100),
            ..TierFaultRates::default()
        }));
        let storage = TieredStorage::with_fault_plan(
            DeviceProfile::optane_nvm(1 << 30),
            DeviceProfile::qlc_flash(1 << 30),
            plan.clone(),
        );
        storage.nvm.read_random(4096);
        storage.flash.write_random(4096);
        assert_eq!(plan.snapshot().latency_spikes, 2);
        assert!(storage.fault.is_some());
    }

    #[test]
    fn io_counters_visible_through_tiered_view() {
        let storage = TieredStorage::new(
            DeviceProfile::optane_nvm(1 << 29),
            DeviceProfile::qlc_flash(1 << 29),
        );
        storage.nvm.write_random(4096);
        storage.flash.read_sequential(1 << 20);
        assert_eq!(storage.nvm_io().bytes_written, 4096);
        assert_eq!(storage.flash_io().bytes_read, 1 << 20);
    }
}
