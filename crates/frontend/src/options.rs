//! Front-end configuration.

use prism_types::{PrismError, Result};

/// Executors default to the engine's shard count clamped to this many
/// threads: one executor per shard stops paying off once executors
/// outnumber the cores left over for compaction workers, and the whole
/// point of the front-end is that a few threads serve many clients.
pub const DEFAULT_EXECUTOR_CLAMP: usize = 4;

/// Configuration of a [`crate::Frontend`].
///
/// # Example
///
/// ```
/// use prism_frontend::FrontendOptions;
///
/// let options = FrontendOptions {
///     executors: 2,
///     ..FrontendOptions::default()
/// };
/// assert_eq!(options.resolved_executors(8), 2);
/// // `executors == 0` auto-sizes from the engine's shard count.
/// assert_eq!(FrontendOptions::default().resolved_executors(8), 4);
/// assert_eq!(FrontendOptions::default().resolved_executors(2), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendOptions {
    /// Number of executor threads draining the partition queues. `0` (the
    /// default) auto-sizes to `min(shard_count, 4)`; explicit values are
    /// clamped to the shard count (one executor at a time services a
    /// partition, so more could never all be busy).
    pub executors: usize,
    /// Bound of each per-partition request queue. A full queue blocks
    /// [`crate::Frontend::submit_put`] and rejects
    /// [`crate::Frontend::try_submit_put`] with back-pressure.
    pub queue_capacity: usize,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            executors: 0,
            queue_capacity: 64,
        }
    }
}

impl FrontendOptions {
    /// The executor-thread count for an engine with `shard_count` shards.
    pub fn resolved_executors(&self, shard_count: usize) -> usize {
        let auto = shard_count.clamp(1, DEFAULT_EXECUTOR_CLAMP);
        match self.executors {
            0 => auto,
            n => n.min(shard_count.max(1)),
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::InvalidConfig`] describing the first invalid
    /// field found.
    pub fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(PrismError::InvalidConfig(
                "frontend queue_capacity must be non-zero".into(),
            ));
        }
        if self.executors > 64 {
            return Err(PrismError::InvalidConfig(
                "more than 64 frontend executors is not supported".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_auto_size() {
        let options = FrontendOptions::default();
        options.validate().unwrap();
        assert_eq!(options.resolved_executors(1), 1);
        assert_eq!(options.resolved_executors(8), DEFAULT_EXECUTOR_CLAMP);
        assert_eq!(options.resolved_executors(3), 3);
    }

    #[test]
    fn explicit_executors_are_clamped_to_shards() {
        let options = FrontendOptions {
            executors: 8,
            ..FrontendOptions::default()
        };
        assert_eq!(options.resolved_executors(2), 2);
        assert_eq!(options.resolved_executors(16), 8);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let bad = FrontendOptions {
            queue_capacity: 0,
            ..FrontendOptions::default()
        };
        assert!(bad.validate().is_err());
        let bad = FrontendOptions {
            executors: 65,
            ..FrontendOptions::default()
        };
        assert!(bad.validate().is_err());
    }
}
