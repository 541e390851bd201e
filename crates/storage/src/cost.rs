//! Storage cost model (Table 2 and Figure 9 of the paper).

use crate::profile::DeviceProfile;

/// Dollar-cost summary of a storage configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CostBreakdown {
    /// Total usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Total hardware cost in dollars.
    pub total_dollars: f64,
    /// Blended cost per gigabyte.
    pub cost_per_gb: f64,
}

/// Compute the capacity-weighted blended cost per gigabyte of a set of
/// devices, each contributing `capacity_bytes` of usable space.
///
/// The paper uses this to show that a multi-tier setup with ~11 % NVM costs
/// about the same per bit as a single-tier TLC deployment ($0.34/GB vs
/// $0.31/GB) while performing far better.
///
/// # Example
///
/// ```
/// use prism_storage::{blended_cost_per_gb, DeviceProfile};
///
/// let nvm = DeviceProfile::optane_nvm(11 << 30);
/// let qlc = DeviceProfile::qlc_flash(89 << 30);
/// let cost = blended_cost_per_gb(&[(&nvm, 11 << 30), (&qlc, 89 << 30)]);
/// assert!(cost > 0.3 && cost < 0.4);
/// ```
pub fn blended_cost_per_gb(devices: &[(&DeviceProfile, u64)]) -> f64 {
    breakdown(devices).cost_per_gb
}

/// Full cost breakdown for a set of devices.
pub(crate) fn breakdown(devices: &[(&DeviceProfile, u64)]) -> CostBreakdown {
    let mut capacity_bytes = 0u64;
    let mut total_dollars = 0f64;
    for (profile, capacity) in devices {
        capacity_bytes += capacity;
        total_dollars += profile.cost_per_gb * (*capacity as f64 / (1u64 << 30) as f64);
    }
    let gb = capacity_bytes as f64 / (1u64 << 30) as f64;
    CostBreakdown {
        capacity_bytes,
        total_dollars,
        cost_per_gb: if gb > 0.0 { total_dollars / gb } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_cost_equals_profile_cost() {
        let qlc = DeviceProfile::qlc_flash(100 << 30);
        let cost = blended_cost_per_gb(&[(&qlc, 100 << 30)]);
        assert!((cost - qlc.cost_per_gb).abs() < 1e-9);
    }

    #[test]
    fn paper_het11_configuration_matches_table2() {
        // Table 2: 89% QLC + 11% NVM lands at roughly $0.3/GB.
        let nvm = DeviceProfile::optane_nvm(11 << 30);
        let qlc = DeviceProfile::qlc_flash(89 << 30);
        let cost = blended_cost_per_gb(&[(&nvm, 11 << 30), (&qlc, 89 << 30)]);
        assert!((cost - 0.364).abs() < 0.05, "cost {cost}");
    }

    #[test]
    fn empty_set_costs_nothing() {
        let b = breakdown(&[]);
        assert_eq!(b.capacity_bytes, 0);
        assert_eq!(b.cost_per_gb, 0.0);
    }

    #[test]
    fn more_nvm_costs_more() {
        let total = 100u64 << 30;
        let mut last = 0.0;
        for pct in [5u64, 10, 20, 50, 100] {
            let nvm_cap = total * pct / 100;
            let qlc_cap = total - nvm_cap;
            let nvm = DeviceProfile::optane_nvm(nvm_cap.max(1));
            let qlc = DeviceProfile::qlc_flash(qlc_cap.max(1));
            let cost = blended_cost_per_gb(&[(&nvm, nvm_cap), (&qlc, qlc_cap)]);
            assert!(cost > last, "{pct}% nvm: {cost} <= {last}");
            last = cost;
        }
    }
}
