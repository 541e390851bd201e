//! Request key distributions.

use rand::rngs::StdRng;
use rand::Rng;

/// The request distribution of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Every key is equally likely.
    Uniform,
    /// YCSB-style scrambled Zipfian with the given theta (0.99 is the YCSB
    /// default; the paper sweeps 0.4–1.4 in Figure 11).
    Zipfian(f64),
    /// Recency-skewed: the most recently inserted keys are the most popular
    /// (YCSB-D's "latest" distribution).
    Latest(f64),
}

impl Distribution {
    /// Short label used in experiment tables ("unif", "zipf0.99", ...).
    pub fn label(&self) -> String {
        match self {
            Distribution::Uniform => "unif".to_string(),
            Distribution::Zipfian(theta) => format!("zipf{theta:.2}"),
            Distribution::Latest(theta) => format!("latest{theta:.2}"),
        }
    }
}

/// Draws keys in `[0, n)` according to a [`Distribution`].
#[derive(Debug, Clone)]
pub(crate) struct KeyChooser {
    distribution: Distribution,
    n: u64,
    zipf: Option<ZipfianState>,
}

#[derive(Debug, Clone)]
struct ZipfianState {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // For large n this is O(n) but it is computed once per chooser; the
    // benchmark key counts (<= a few million) keep this cheap.
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl ZipfianState {
    fn new(n: u64, theta: f64) -> Self {
        let n = n.max(1);
        let zetan = zeta(n, theta);
        let zeta2theta = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        ZipfianState {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular.
    fn next_rank(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Scramble a rank into the key space so popular keys are spread across the
/// key range (YCSB's scrambled Zipfian), using an FNV-1a hash.
fn scramble(rank: u64, n: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in rank.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash % n.max(1)
}

impl KeyChooser {
    /// Create a chooser over the key space `[0, n)`.
    pub fn new(distribution: Distribution, n: u64) -> Self {
        let zipf = match distribution {
            Distribution::Zipfian(theta) | Distribution::Latest(theta) => {
                Some(ZipfianState::new(n, theta))
            }
            Distribution::Uniform => None,
        };
        KeyChooser {
            distribution,
            n: n.max(1),
            zipf,
        }
    }

    /// Draw the next key id. `newest` is the id of the most recently
    /// inserted key (only used by the latest distribution).
    pub(crate) fn next(&self, rng: &mut StdRng, newest: u64) -> u64 {
        match self.distribution {
            Distribution::Uniform => rng.gen_range(0..self.n),
            Distribution::Zipfian(_) => {
                let rank = self.zipf.as_ref().expect("zipf state").next_rank(rng);
                scramble(rank, self.n)
            }
            Distribution::Latest(_) => {
                let rank = self.zipf.as_ref().expect("zipf state").next_rank(rng);
                newest.saturating_sub(rank.min(newest))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn frequencies(dist: Distribution, n: u64, draws: usize) -> HashMap<u64, u64> {
        let chooser = KeyChooser::new(dist, n);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = HashMap::new();
        for _ in 0..draws {
            *counts.entry(chooser.next(&mut rng, n - 1)).or_insert(0u64) += 1;
        }
        counts
    }

    #[test]
    fn uniform_draws_cover_the_space_evenly() {
        let counts = frequencies(Distribution::Uniform, 100, 50_000);
        assert!(counts.len() > 95);
        let max = *counts.values().max().unwrap();
        let min = *counts.values().min().unwrap();
        assert!(max < min * 3, "uniform counts too skewed: {min}..{max}");
    }

    #[test]
    fn zipfian_is_heavily_skewed() {
        let counts = frequencies(Distribution::Zipfian(0.99), 10_000, 100_000);
        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_10: u64 = sorted.iter().take(10).sum();
        // With theta = 0.99 the hottest handful of keys take a large share.
        assert!(
            top_10 as f64 > 0.2 * 100_000.0,
            "top-10 keys only got {top_10} of 100k draws"
        );
        // All keys stay in range.
        assert!(counts.keys().all(|&k| k < 10_000));
    }

    #[test]
    fn higher_theta_means_more_skew() {
        let skew = |theta: f64| {
            let counts = frequencies(Distribution::Zipfian(theta), 1_000, 50_000);
            let mut sorted: Vec<u64> = counts.values().copied().collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted.iter().take(5).sum::<u64>()
        };
        assert!(skew(1.2) > skew(0.8));
        assert!(skew(0.8) > skew(0.4));
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let chooser = KeyChooser::new(Distribution::Latest(0.99), 10_000);
        let mut rng = StdRng::seed_from_u64(3);
        let newest = 9_999;
        let mut recent = 0;
        let draws = 10_000;
        for _ in 0..draws {
            let key = chooser.next(&mut rng, newest);
            assert!(key <= newest);
            if newest - key < 100 {
                recent += 1;
            }
        }
        assert!(
            recent as f64 > 0.5 * draws as f64,
            "only {recent}/{draws} draws hit the 100 newest keys"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Distribution::Uniform.label(), "unif");
        assert_eq!(Distribution::Zipfian(0.99).label(), "zipf0.99");
        assert_eq!(Distribution::Latest(0.99).label(), "latest0.99");
    }

    #[test]
    fn tiny_key_spaces_do_not_panic() {
        let chooser = KeyChooser::new(Distribution::Zipfian(0.99), 1);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(chooser.next(&mut rng, 0), 0);
        }
    }
}
