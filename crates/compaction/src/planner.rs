//! Compaction policy configuration and candidate selection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prism_types::{PrismError, Result};

/// Which range-selection policy to use (Figure 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompactionPolicy {
    /// Pick a random candidate range (the strawman baseline).
    Random,
    /// Score every object in each candidate range exactly. Lowest flash
    /// I/O, but CPU-expensive (long compaction pauses).
    PreciseMsc,
    /// Score candidate ranges from per-bucket statistics. Nearly the same
    /// flash I/O as precise-MSC at a fraction of the CPU cost; the default.
    ApproxMsc,
}

/// Configuration of the compaction planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionConfig {
    /// Range-selection policy.
    pub policy: CompactionPolicy,
    /// Number of candidate ranges sampled per compaction (power-of-k
    /// choices; the paper uses k = 8).
    pub k_candidates: usize,
    /// Keys per bucket for the approx-MSC bucket map (64 K in the paper).
    pub bucket_size_keys: u64,
    /// Random seed for candidate sampling and threshold sampling, so runs
    /// are reproducible.
    pub seed: u64,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            policy: CompactionPolicy::ApproxMsc,
            k_candidates: 8,
            bucket_size_keys: 65_536,
            seed: 0x5eed,
        }
    }
}

impl CompactionConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] when any count is zero.
    pub fn validate(&self) -> Result<()> {
        if self.k_candidates == 0 {
            return Err(PrismError::InvalidConfig(
                "compaction needs at least one candidate".into(),
            ));
        }
        if self.bucket_size_keys == 0 {
            return Err(PrismError::InvalidConfig(
                "bucket size must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// Samples candidate ranges and picks the winner according to the policy.
#[derive(Debug)]
pub struct CompactionPlanner {
    config: CompactionConfig,
    rng: StdRng,
}

impl CompactionPlanner {
    /// Create a planner.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: CompactionConfig) -> Result<Self> {
        config.validate()?;
        Ok(CompactionPlanner {
            rng: StdRng::seed_from_u64(config.seed),
            config,
        })
    }

    /// The planner's configuration.
    pub fn config(&self) -> &CompactionConfig {
        &self.config
    }

    /// A uniform random draw in `[0, 1)`, used to resolve probabilistic
    /// pinning decisions deterministically from the planner's seed.
    pub fn draw(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Sample up to `k_candidates` distinct candidate indices out of
    /// `num_ranges` possible ranges (power-of-k choices). With the random
    /// policy only a single index is sampled.
    pub fn pick_candidate_indices(&mut self, num_ranges: usize) -> Vec<usize> {
        if num_ranges == 0 {
            return Vec::new();
        }
        let want = match self.config.policy {
            CompactionPolicy::Random => 1,
            _ => self.config.k_candidates.min(num_ranges),
        };
        if want >= num_ranges {
            return (0..num_ranges).collect();
        }
        let mut picked = Vec::with_capacity(want);
        while picked.len() < want {
            let idx = self.rng.gen_range(0..num_ranges);
            if !picked.contains(&idx) {
                picked.push(idx);
            }
        }
        picked
    }

    /// Choose the winning candidate from `(index, score)` pairs: the highest
    /// score for the MSC policies, the first candidate for the random
    /// policy. Returns `None` when the list is empty or every score is zero
    /// under an MSC policy (nothing worth compacting).
    pub fn select_best(&self, scored: &[(usize, f64)]) -> Option<usize> {
        if scored.is_empty() {
            return None;
        }
        match self.config.policy {
            CompactionPolicy::Random => Some(scored[0].0),
            _ => scored
                .iter()
                .filter(|(_, score)| *score > 0.0)
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"))
                .map(|(idx, _)| *idx)
                .or(Some(scored[0].0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper() {
        let config = CompactionConfig::default();
        config.validate().unwrap();
        assert_eq!(config.k_candidates, 8);
        assert_eq!(config.bucket_size_keys, 65_536);
        assert_eq!(config.policy, CompactionPolicy::ApproxMsc);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            CompactionConfig {
                k_candidates: 0,
                ..CompactionConfig::default()
            },
            CompactionConfig {
                bucket_size_keys: 0,
                ..CompactionConfig::default()
            },
        ] {
            assert!(CompactionPlanner::new(bad).is_err());
        }
    }

    #[test]
    fn power_of_k_sampling_is_bounded_and_distinct() {
        let mut planner = CompactionPlanner::new(CompactionConfig::default()).unwrap();
        let picked = planner.pick_candidate_indices(100);
        assert_eq!(picked.len(), 8);
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), picked.len());
        assert!(picked.iter().all(|&i| i < 100));
        // Fewer ranges than k: all of them are candidates.
        assert_eq!(planner.pick_candidate_indices(3), vec![0, 1, 2]);
        assert!(planner.pick_candidate_indices(0).is_empty());
    }

    #[test]
    fn random_policy_samples_one_candidate() {
        let config = CompactionConfig {
            policy: CompactionPolicy::Random,
            ..CompactionConfig::default()
        };
        let mut planner = CompactionPlanner::new(config).unwrap();
        assert_eq!(planner.pick_candidate_indices(50).len(), 1);
    }

    #[test]
    fn select_best_prefers_highest_score() {
        let planner = CompactionPlanner::new(CompactionConfig::default()).unwrap();
        let scored = vec![(3, 0.5), (7, 2.5), (9, 1.0)];
        assert_eq!(planner.select_best(&scored), Some(7));
        assert_eq!(planner.select_best(&[]), None);
        // All-zero scores fall back to the first candidate so space can
        // still be reclaimed.
        assert_eq!(planner.select_best(&[(4, 0.0), (5, 0.0)]), Some(4));
    }

    #[test]
    fn random_policy_ignores_scores() {
        let config = CompactionConfig {
            policy: CompactionPolicy::Random,
            ..CompactionConfig::default()
        };
        let planner = CompactionPlanner::new(config).unwrap();
        assert_eq!(planner.select_best(&[(2, 0.0), (8, 9.9)]), Some(2));
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let mk = || CompactionPlanner::new(CompactionConfig::default()).unwrap();
        let a: Vec<usize> = mk().pick_candidate_indices(1000);
        let b: Vec<usize> = mk().pick_candidate_indices(1000);
        assert_eq!(a, b);
    }
}
