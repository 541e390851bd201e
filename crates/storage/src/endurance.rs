//! Flash endurance / lifetime model (Figure 12 of the paper).

use crate::profile::DeviceProfile;

/// Warranty period (years) over which DWPD ratings are specified.
pub(crate) const WARRANTY_YEARS: f64 = 5.0;

const SECONDS_PER_YEAR: f64 = 365.0 * 24.0 * 3600.0;

/// Inputs of the lifetime projection the paper uses for Figure 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    /// Logical database size in bytes (the paper assumes 600 GB).
    pub db_size_bytes: u64,
    /// Client request rate in operations per second.
    pub request_rate_ops: f64,
    /// Fraction of requests that are writes (updates/inserts).
    pub write_fraction: f64,
    /// Average object size in bytes.
    pub object_size_bytes: u64,
    /// Write amplification on flash: physical flash bytes written per
    /// logical byte the client wrote (includes compaction rewrites).
    pub flash_write_amplification: f64,
    /// Fraction of client-written bytes that ever reach flash at all (in
    /// PrismDB, hot objects that stay pinned on NVM never cost flash
    /// endurance).
    pub flash_write_fraction: f64,
}

impl EnduranceModel {
    /// Flash bytes written per second under this model.
    pub(crate) fn flash_bytes_per_sec(&self) -> f64 {
        self.request_rate_ops
            * self.write_fraction
            * self.object_size_bytes as f64
            * self.flash_write_fraction
            * self.flash_write_amplification
    }

    /// Projected lifetime in years of the given flash device under this
    /// write load.
    ///
    /// Returns `f64::INFINITY` for devices with unlimited endurance or when
    /// the workload writes nothing to flash.
    pub fn lifetime_years(&self, flash: &DeviceProfile) -> f64 {
        lifetime_years(flash, self.flash_bytes_per_sec())
    }
}

/// Projected lifetime in years of `flash` when `flash_bytes_per_sec` bytes
/// are written to it continuously.
///
/// # Example
///
/// ```
/// use prism_storage::{lifetime_years, DeviceProfile};
///
/// let qlc = DeviceProfile::qlc_flash(600 << 30);
/// // A light ~300 KB/s flash write rate comfortably exceeds a 5 year lifetime.
/// assert!(lifetime_years(&qlc, 300_000.0) > 5.0);
/// ```
pub fn lifetime_years(flash: &DeviceProfile, flash_bytes_per_sec: f64) -> f64 {
    if flash_bytes_per_sec <= 0.0 {
        return f64::INFINITY;
    }
    let endurance = flash.endurance_bytes();
    if endurance.is_infinite() {
        return f64::INFINITY;
    }
    endurance / (flash_bytes_per_sec * SECONDS_PER_YEAR)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(rate: f64, write_fraction: f64) -> EnduranceModel {
        EnduranceModel {
            db_size_bytes: 600 << 30,
            request_rate_ops: rate,
            write_fraction,
            object_size_bytes: 1024,
            flash_write_amplification: 2.0,
            flash_write_fraction: 0.7,
        }
    }

    #[test]
    fn read_only_workload_never_wears_out() {
        let qlc = DeviceProfile::qlc_flash(600 << 30);
        assert!(model(100_000.0, 0.0).lifetime_years(&qlc).is_infinite());
    }

    #[test]
    fn heavier_write_rate_shortens_lifetime() {
        let qlc = DeviceProfile::qlc_flash(600 << 30);
        let light = model(10_000.0, 0.1).lifetime_years(&qlc);
        let heavy = model(100_000.0, 0.5).lifetime_years(&qlc);
        assert!(light > heavy);
        assert!(heavy > 0.0);
    }

    #[test]
    fn tlc_outlives_qlc_under_same_load() {
        let qlc = DeviceProfile::qlc_flash(600 << 30);
        let tlc = DeviceProfile::tlc_flash(600 << 30);
        let m = model(50_000.0, 0.3);
        assert!(m.lifetime_years(&tlc) > m.lifetime_years(&qlc));
    }

    #[test]
    fn read_dominated_production_workload_meets_lifetime_target() {
        // Paper §7.2: read-dominated workloads (e.g. 99.8% reads in TAO)
        // comfortably meet the 3-5 year lifetime target on QLC.
        let qlc = DeviceProfile::qlc_flash(600 << 30);
        let read_heavy = model(100_000.0, 0.002).lifetime_years(&qlc);
        assert!(read_heavy > 5.0, "lifetime {read_heavy}");
    }

    #[test]
    fn update_heavy_high_rate_wears_out_early() {
        let qlc = DeviceProfile::qlc_flash(600 << 30);
        let heavy = model(500_000.0, 0.5).lifetime_years(&qlc);
        assert!(heavy < 3.0, "lifetime {heavy}");
    }

    #[test]
    fn dwpd_infinite_device_is_immortal() {
        let unwearable = DeviceProfile {
            dwpd: f64::INFINITY,
            ..DeviceProfile::optane_nvm(1 << 30)
        };
        assert!(lifetime_years(&unwearable, 1e9).is_infinite());
    }
}
