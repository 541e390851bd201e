//! Sizing of the four workloads and the result of one run.

use std::collections::BTreeMap;
use std::sync::Arc;

use prism_db::Options;
use prism_obs::ObsHub;
use prism_workloads::Workload;

use crate::catalog::W;

/// How often a run sets up (open + load + warm-up); `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Equal parts the measured phase is cut into; wall metrics are the median
/// of the per-segment values, so a host hiccup shorter than two segments
/// cannot move them.
pub const SEGMENTS: usize = 5;

/// Sizing of one workload. Values are 1 KB, keys Zipfian with θ = 0.99.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: W,
    /// Keys loaded before warm-up.
    pub keys: u64,
    /// Ops run (and checked) before the measured phase.
    pub warm_ops: usize,
    /// Measured ops per second of `--seconds`: the measured phase is a
    /// fixed number of ops, so two commits do identical work, sized to
    /// last about `--seconds` on the 2-core sandbox this was written on.
    pub ops_per_second: usize,
    /// NVM capacity as a share of the loaded data.
    pub nvm_share: f64,
    /// DRAM cache capacity as a share of the loaded data.
    pub dram_share: f64,
}

impl Spec {
    pub fn of(workload: W) -> Spec {
        // Larger than every cache: the paper's ~1:5 NVM:flash, DRAM a
        // quarter of NVM.
        let tiered = |warm_ops, ops_per_second| Spec {
            workload,
            keys: 100_000,
            warm_ops,
            ops_per_second,
            nvm_share: 0.2,
            dram_share: 0.05,
        };
        match workload {
            W::TierWriteA => tiered(100_000, 95_000),
            W::TierReadC => tiered(100_000, 290_000),
            W::ScanE => tiered(500, 680),
            // Fits: no flash reads, no compaction.
            W::WireB => Spec {
                workload,
                keys: 100_000,
                warm_ops: 100_000,
                ops_per_second: 45_000,
                nvm_share: 1.5,
                dram_share: 0.5,
            },
        }
    }

    /// The same workload with `divisor` times fewer keys and warm-up ops
    /// (the smoke tests run at 1/100).
    #[cfg(test)]
    pub fn scaled_down(mut self, divisor: u64) -> Spec {
        self.keys /= divisor;
        self.warm_ops /= divisor as usize;
        self
    }

    pub fn measured_ops(&self, seconds: u64) -> usize {
        self.ops_per_second * seconds as usize
    }

    pub fn data_bytes(&self) -> u64 {
        self.keys * 1024
    }

    /// The YCSB mix the workload draws from.
    pub fn ycsb(&self) -> Workload {
        match self.workload {
            W::TierWriteA => Workload::ycsb_a(self.keys),
            W::TierReadC => Workload::ycsb_c(self.keys),
            W::ScanE => Workload::ycsb_e(self.keys),
            W::WireB => Workload::ycsb_b(self.keys),
        }
    }

    /// Engine options: flash 3× the data, inline compaction. With a hub
    /// the engine's registry can be read from outside; without one it
    /// records into a private hub.
    pub fn options(&self, hub: Option<Arc<ObsHub>>) -> Options {
        let data = self.data_bytes() as f64;
        let mut options = Options::builder(self.keys)
            .nvm_capacity((data * self.nvm_share) as u64)
            .flash_capacity(self.data_bytes() * 3)
            .dram_cache((data * self.dram_share) as u64)
            .build()
            .expect("the workload sizing is a valid engine configuration");
        options.obs = hub;
        options
    }
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops issued in the measured phase plus keys re-read after the crash.
    pub attempted: u64,
    /// Ops that returned an error or a non-`Ok` wire status, reads and
    /// scans that disagree with the oracle, and acknowledged writes missing
    /// after `crash_and_recover`.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::catalog::metric(name).is_some(),
            "{name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}
