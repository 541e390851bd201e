//! Device profiles and CPU cost constants.

use prism_types::Nanos;

/// The class of a storage device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// DRAM (used only for cache latency modelling, never persistent).
    Dram,
    /// Fast non-volatile memory: Optane SSD / Z-NAND class devices.
    Nvm,
    /// TLC NAND flash (3 bits/cell), the datacenter default the paper
    /// compares against.
    TlcNand,
    /// QLC NAND flash (4 bits/cell): cheapest and densest, slowest and
    /// least durable.
    QlcNand,
}

impl DeviceKind {
    /// Short lowercase label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::Dram => "dram",
            DeviceKind::Nvm => "nvm",
            DeviceKind::TlcNand => "tlc",
            DeviceKind::QlcNand => "qlc",
        }
    }
}

/// Performance, cost and endurance characteristics of one device.
///
/// The numbers in the constructors come from Table 1 of the paper (Optane
/// P5800X and Intel 660p QLC measured with fio) plus public spec sheets for
/// the TLC and DRAM points; what matters for reproduction is the relative
/// gaps, which these values preserve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Device class.
    pub kind: DeviceKind,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Latency of one random 4 KB read.
    pub read_latency_4k: Nanos,
    /// Latency of one random 4 KB write.
    pub write_latency_4k: Nanos,
    /// Sequential read bandwidth in MB/s.
    pub seq_read_mbps: u64,
    /// Sequential write bandwidth in MB/s.
    pub seq_write_mbps: u64,
    /// Dollar cost per gigabyte.
    pub cost_per_gb: f64,
    /// Endurance in drive-writes-per-day over the warranty period.
    pub dwpd: f64,
}

impl DeviceProfile {
    /// Intel Optane SSD P5800X class NVM device (Table 1: 6 µs random 4 KB
    /// read, $2.5/GB, 200 DWPD).
    pub fn optane_nvm(capacity_bytes: u64) -> Self {
        DeviceProfile {
            kind: DeviceKind::Nvm,
            capacity_bytes,
            read_latency_4k: Nanos::from_micros(6),
            write_latency_4k: Nanos::from_micros(10),
            seq_read_mbps: 6_500,
            seq_write_mbps: 5_500,
            cost_per_gb: 2.5,
            dwpd: 200.0,
        }
    }

    /// Intel 760p class TLC NAND device ($0.31/GB per the paper's text).
    pub fn tlc_flash(capacity_bytes: u64) -> Self {
        DeviceProfile {
            kind: DeviceKind::TlcNand,
            capacity_bytes,
            read_latency_4k: Nanos::from_micros(110),
            write_latency_4k: Nanos::from_micros(45),
            seq_read_mbps: 3_000,
            seq_write_mbps: 1_300,
            cost_per_gb: 0.31,
            dwpd: 0.8,
        }
    }

    /// Intel 660p class QLC NAND device (Table 1: 391 µs random 4 KB read,
    /// $0.1/GB, 0.1 DWPD).
    pub fn qlc_flash(capacity_bytes: u64) -> Self {
        DeviceProfile {
            kind: DeviceKind::QlcNand,
            capacity_bytes,
            read_latency_4k: Nanos::from_micros(391),
            write_latency_4k: Nanos::from_micros(120),
            seq_read_mbps: 1_800,
            seq_write_mbps: 900,
            cost_per_gb: 0.1,
            dwpd: 0.1,
        }
    }

    /// Total bytes that may be written to the device before it wears out,
    /// assuming the industry-standard warranty window.
    pub(crate) fn endurance_bytes(&self) -> f64 {
        if self.dwpd.is_infinite() {
            return f64::INFINITY;
        }
        self.capacity_bytes as f64 * self.dwpd * 365.0 * crate::endurance::WARRANTY_YEARS
    }
}

/// CPU cost constants charged by engines for work that is not device I/O.
///
/// These model the "CPU becomes the bottleneck once most requests are served
/// from DRAM or NVM" effect the paper observes in §3, including the large
/// cost of merge-sorting objects during LSM compactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCosts {
    /// Cost of a memtable / B-tree / hash index lookup or insert.
    pub index_op: Nanos,
    /// Cost of probing one bloom filter.
    pub bloom_probe: Nanos,
    /// Cost of comparing + copying one object during a merge sort.
    pub merge_per_object: Nanos,
    /// Cost of updating the popularity tracker for one access.
    pub tracker_op: Nanos,
    /// Cost of serving a read from a DRAM cache.
    pub dram_hit: Nanos,
    /// Fixed per-operation request handling overhead.
    pub request_overhead: Nanos,
    /// Extra per-operation overhead when an engine busy-polls for I/O
    /// completions (the SPDK cost the paper notes for SpanDB).
    pub polling_overhead: Nanos,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            index_op: Nanos::from_nanos(400),
            bloom_probe: Nanos::from_nanos(150),
            merge_per_object: Nanos::from_nanos(700),
            tracker_op: Nanos::from_nanos(150),
            dram_hit: Nanos::from_nanos(250),
            request_overhead: Nanos::from_nanos(600),
            polling_overhead: Nanos::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latency_gap_is_preserved() {
        let nvm = DeviceProfile::optane_nvm(1 << 30);
        let qlc = DeviceProfile::qlc_flash(1 << 30);
        let ratio = qlc.read_latency_4k.as_nanos() as f64 / nvm.read_latency_4k.as_nanos() as f64;
        assert!((ratio - 65.0).abs() < 2.0, "read latency ratio {ratio}");
    }

    #[test]
    fn table1_cost_and_endurance_gaps() {
        let nvm = DeviceProfile::optane_nvm(1 << 30);
        let qlc = DeviceProfile::qlc_flash(1 << 30);
        assert!((nvm.cost_per_gb / qlc.cost_per_gb - 25.0).abs() < 1.0);
        assert!((nvm.dwpd / qlc.dwpd - 2000.0).abs() < 1.0);
    }

    #[test]
    fn ordering_of_tiers() {
        let nvm = DeviceProfile::optane_nvm(1 << 30);
        let tlc = DeviceProfile::tlc_flash(1 << 30);
        let qlc = DeviceProfile::qlc_flash(1 << 30);
        assert!(nvm.read_latency_4k < tlc.read_latency_4k);
        assert!(tlc.read_latency_4k < qlc.read_latency_4k);
        assert!(nvm.cost_per_gb > tlc.cost_per_gb);
        assert!(tlc.cost_per_gb > qlc.cost_per_gb);
    }

    #[test]
    fn endurance_bytes_scales_with_capacity_and_dwpd() {
        let small = DeviceProfile::qlc_flash(1 << 30);
        let big = DeviceProfile::qlc_flash(10 << 30);
        assert!(big.endurance_bytes() > 9.0 * small.endurance_bytes());
        let unwearable = DeviceProfile {
            dwpd: f64::INFINITY,
            ..DeviceProfile::optane_nvm(1)
        };
        assert!(unwearable.endurance_bytes().is_infinite());
    }

    #[test]
    fn labels() {
        assert_eq!(DeviceKind::Nvm.label(), "nvm");
        assert_eq!(DeviceKind::QlcNand.label(), "qlc");
        assert_eq!(DeviceKind::TlcNand.label(), "tlc");
        assert_eq!(DeviceKind::Dram.label(), "dram");
    }
}
