//! Workload specifications: YCSB A–F and the Twitter clusters.

use crate::dist::Distribution;
use crate::stream::OpStream;

/// The operation mix of a workload; the fractions sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Point reads.
    pub reads: f64,
    /// Blind updates of existing keys.
    pub updates: f64,
    /// Inserts of new keys.
    pub inserts: f64,
    /// Read-modify-writes.
    pub read_modify_writes: f64,
    /// Range scans.
    pub scans: f64,
}

impl OpMix {
    fn normalized(mut self) -> Self {
        let sum = self.reads + self.updates + self.inserts + self.read_modify_writes + self.scans;
        if sum > 0.0 {
            self.reads /= sum;
            self.updates /= sum;
            self.inserts /= sum;
            self.read_modify_writes /= sum;
            self.scans /= sum;
        }
        self
    }
}

/// A complete workload description.
///
/// Build one with the YCSB / Twitter constructors and customise it with the
/// `with_*` methods, then turn it into an operation stream with
/// [`Workload::stream`].
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name used in experiment tables.
    pub name: String,
    /// Number of keys loaded before the measured phase.
    pub record_count: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Request distribution for reads/updates.
    pub distribution: Distribution,
    /// Request distribution for writes when it differs from reads (the
    /// Twitter mixed trace has zipfian reads but uniform writes).
    pub write_distribution: Option<Distribution>,
    /// Object size in bytes.
    pub value_size: usize,
    /// Maximum scan length (YCSB-E picks a random length up to this).
    pub max_scan_len: usize,
}

impl Workload {
    fn base(name: &str, record_count: u64, mix: OpMix) -> Self {
        Workload {
            name: name.to_string(),
            record_count: record_count.max(1),
            mix: mix.normalized(),
            distribution: Distribution::Zipfian(0.99),
            write_distribution: None,
            value_size: 1024,
            max_scan_len: 100,
        }
    }

    /// YCSB-A: 50 % reads, 50 % updates (write heavy).
    pub fn ycsb_a(record_count: u64) -> Self {
        Self::base(
            "ycsb-a",
            record_count,
            OpMix {
                reads: 0.5,
                updates: 0.5,
                inserts: 0.0,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        )
    }

    /// YCSB-B: 95 % reads, 5 % updates (read heavy).
    pub fn ycsb_b(record_count: u64) -> Self {
        Self::base(
            "ycsb-b",
            record_count,
            OpMix {
                reads: 0.95,
                updates: 0.05,
                inserts: 0.0,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        )
    }

    /// YCSB-C: 100 % reads (read only).
    pub fn ycsb_c(record_count: u64) -> Self {
        Self::base(
            "ycsb-c",
            record_count,
            OpMix {
                reads: 1.0,
                updates: 0.0,
                inserts: 0.0,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        )
    }

    /// YCSB-D: 95 % reads of recently inserted keys, 5 % inserts.
    pub fn ycsb_d(record_count: u64) -> Self {
        let mut w = Self::base(
            "ycsb-d",
            record_count,
            OpMix {
                reads: 0.95,
                updates: 0.0,
                inserts: 0.05,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        );
        w.distribution = Distribution::Latest(0.99);
        w
    }

    /// YCSB-E: 95 % scans, 5 % inserts (scan heavy).
    pub fn ycsb_e(record_count: u64) -> Self {
        Self::base(
            "ycsb-e",
            record_count,
            OpMix {
                reads: 0.0,
                updates: 0.0,
                inserts: 0.05,
                read_modify_writes: 0.0,
                scans: 0.95,
            },
        )
    }

    /// YCSB-F: 50 % reads, 50 % read-modify-writes.
    pub(crate) fn ycsb_f(record_count: u64) -> Self {
        Self::base(
            "ycsb-f",
            record_count,
            OpMix {
                reads: 0.5,
                updates: 0.0,
                inserts: 0.0,
                read_modify_writes: 0.5,
                scans: 0.0,
            },
        )
    }

    /// The YCSB workload with the given letter (A–F).
    ///
    /// # Panics
    ///
    /// Panics if `letter` is not in `A..=F`.
    pub fn ycsb(letter: char, record_count: u64) -> Self {
        match letter.to_ascii_lowercase() {
            'a' => Self::ycsb_a(record_count),
            'b' => Self::ycsb_b(record_count),
            'c' => Self::ycsb_c(record_count),
            'd' => Self::ycsb_d(record_count),
            'e' => Self::ycsb_e(record_count),
            'f' => Self::ycsb_f(record_count),
            other => panic!("unknown YCSB workload '{other}'"),
        }
    }

    /// Twitter cluster 39: write-heavy (6 % reads, 94 % writes), uniform
    /// key access.
    pub fn twitter_cluster39(record_count: u64) -> Self {
        let mut w = Self::base(
            "twitter-cluster39",
            record_count,
            OpMix {
                reads: 0.06,
                updates: 0.94,
                inserts: 0.0,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        );
        w.distribution = Distribution::Uniform;
        w.value_size = 230;
        w
    }

    /// Twitter cluster 19: mixed (75 % reads, 25 % writes), zipfian reads
    /// over tiny (≈102 B) objects with uniform writes.
    pub fn twitter_cluster19(record_count: u64) -> Self {
        let mut w = Self::base(
            "twitter-cluster19",
            record_count,
            OpMix {
                reads: 0.75,
                updates: 0.25,
                inserts: 0.0,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        );
        w.distribution = Distribution::Zipfian(0.99);
        w.write_distribution = Some(Distribution::Uniform);
        w.value_size = 102;
        w
    }

    /// Twitter cluster 51: read-heavy (90 % reads, 10 % writes), zipfian
    /// access over ≈370 B objects.
    pub fn twitter_cluster51(record_count: u64) -> Self {
        let mut w = Self::base(
            "twitter-cluster51",
            record_count,
            OpMix {
                reads: 0.9,
                updates: 0.1,
                inserts: 0.0,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        );
        w.distribution = Distribution::Zipfian(0.99);
        w.value_size = 370;
        w
    }

    /// A custom read/update mix (used by the pinning-threshold sweep,
    /// Figure 14c: "YCSB 5/95", "50/50", "95/5").
    pub fn read_update_mix(name: &str, record_count: u64, read_fraction: f64) -> Self {
        Self::base(
            name,
            record_count,
            OpMix {
                reads: read_fraction,
                updates: 1.0 - read_fraction,
                inserts: 0.0,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        )
    }

    /// Override the request distribution with a Zipfian of the given theta.
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.distribution = Distribution::Zipfian(theta);
        self
    }

    /// Override the request distribution.
    pub fn with_distribution(mut self, distribution: Distribution) -> Self {
        self.distribution = distribution;
        self
    }

    /// Override the object size in bytes.
    pub fn with_value_size(mut self, bytes: usize) -> Self {
        self.value_size = bytes;
        self
    }

    /// Create a deterministic operation stream for this workload.
    pub fn stream(&self, seed: u64) -> OpStream {
        OpStream::new(self.clone(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_types::Op;

    #[test]
    fn ycsb_mixes_match_table4() {
        let a = Workload::ycsb_a(100);
        assert!((a.mix.reads - 0.5).abs() < 1e-9);
        assert!((a.mix.updates - 0.5).abs() < 1e-9);
        let b = Workload::ycsb_b(100);
        assert!((b.mix.reads - 0.95).abs() < 1e-9);
        let c = Workload::ycsb_c(100);
        assert!((c.mix.reads - 1.0).abs() < 1e-9);
        let d = Workload::ycsb_d(100);
        assert!((d.mix.inserts - 0.05).abs() < 1e-9);
        assert!(matches!(d.distribution, Distribution::Latest(_)));
        let e = Workload::ycsb_e(100);
        assert!((e.mix.scans - 0.95).abs() < 1e-9);
        let f = Workload::ycsb_f(100);
        assert!((f.mix.read_modify_writes - 0.5).abs() < 1e-9);
        assert_eq!(Workload::ycsb('A', 10).name, "ycsb-a");
    }

    #[test]
    fn twitter_clusters_match_paper_description() {
        let c39 = Workload::twitter_cluster39(100);
        assert!((c39.mix.reads + c39.mix.scans - 0.06).abs() < 1e-9);
        assert_eq!(c39.distribution, Distribution::Uniform);
        let c19 = Workload::twitter_cluster19(100);
        assert_eq!(c19.value_size, 102);
        assert_eq!(c19.write_distribution, Some(Distribution::Uniform));
        let c51 = Workload::twitter_cluster51(100);
        assert!((c51.mix.reads - 0.9).abs() < 1e-9);
        assert_eq!(c51.value_size, 370);
    }

    #[test]
    fn op_mix_normalizes() {
        let w = Workload::base(
            "x",
            10,
            OpMix {
                reads: 2.0,
                updates: 2.0,
                inserts: 0.0,
                read_modify_writes: 0.0,
                scans: 0.0,
            },
        );
        assert!((w.mix.reads - 0.5).abs() < 1e-9);
        assert!((w.mix.updates - 0.5).abs() < 1e-9);
    }

    #[test]
    fn scan_workload_generates_scans() {
        let w = Workload::ycsb_e(1_000);
        let ops: Vec<Op> = w.stream(1).take(200).collect();
        let scans = ops.iter().filter(|op| matches!(op, Op::Scan(_, _))).count();
        assert!(scans > 150, "expected mostly scans, got {scans}/200");
    }

    #[test]
    #[should_panic(expected = "unknown YCSB workload")]
    fn unknown_ycsb_letter_panics() {
        let _ = Workload::ycsb('z', 10);
    }
}
