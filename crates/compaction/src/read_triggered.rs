//! Read-triggered compactions (§5.3 of the paper).
//!
//! Under read-heavy workloads NVM fills slowly, so write-triggered
//! compactions (and the promotions that piggyback on them) are too rare to
//! keep the hot set on NVM. The controller below watches the read mix: when
//! most reads hit flash and a large fraction of tracked keys live on flash,
//! it enables promotion compactions for an epoch, keeps them running while
//! the NVM read ratio keeps improving, and otherwise backs off for a
//! cool-down period.

/// Length of one invocation epoch, in client operations (1 M in the
/// paper).
const EPOCH_OPS: u64 = 1_000_000;
/// Minimum improvement of the NVM read ratio per epoch to keep going (1 %
/// in the paper).
const IMPROVEMENT_THRESHOLD: f64 = 0.01;
/// Cool-down length in client operations (10 M in the paper).
const COOLDOWN_OPS: u64 = 10_000_000;
/// Number of operations observed per detection check.
const DETECTION_WINDOW_OPS: u64 = 100_000;
/// Fraction of operations that must be reads for the workload to count as
/// read-dominated.
const READ_FRACTION_TRIGGER: f64 = 0.8;
/// Fraction of reads served from flash above which promotions are
/// worthwhile.
const FLASH_READ_FRACTION_TRIGGER: f64 = 0.2;

/// The controller's current phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadTriggerPhase {
    /// Watching for a read-dominated, flash-bound workload.
    Detection,
    /// Promotion compactions are enabled; progress is monitored per epoch.
    Invocation,
    /// Promotions paused after an epoch with insufficient improvement.
    Cooldown,
}

#[derive(Debug, Default, Clone, Copy)]
struct WindowCounters {
    ops: u64,
    reads: u64,
    reads_from_flash: u64,
    reads_from_nvm: u64,
}

impl WindowCounters {
    fn read_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.reads as f64 / self.ops as f64
        }
    }

    fn flash_read_fraction(&self) -> f64 {
        let total = self.reads_from_flash + self.reads_from_nvm;
        if total == 0 {
            0.0
        } else {
            self.reads_from_flash as f64 / total as f64
        }
    }

    fn nvm_read_ratio(&self) -> f64 {
        let total = self.reads_from_flash + self.reads_from_nvm;
        if total == 0 {
            1.0
        } else {
            self.reads_from_nvm as f64 / total as f64
        }
    }
}

/// State machine deciding when promotion compactions should run.
#[derive(Debug)]
pub struct ReadTriggeredController {
    epoch_ops: u64,
    cooldown_ops: u64,
    detection_window_ops: u64,
    phase: ReadTriggerPhase,
    window: WindowCounters,
    previous_ratio: f64,
    cooldown_remaining: u64,
}

impl ReadTriggeredController {
    /// Create a controller in the detection phase for a database `scale`
    /// times smaller than the paper's: the epoch, cool-down and detection
    /// windows are the paper's divided by `scale`, floored at 100, 1 000
    /// and 50 operations (benchmarks use key counts far below the paper's
    /// 100 M).
    pub fn new(scale: u64) -> Self {
        let d = scale.max(1);
        ReadTriggeredController {
            epoch_ops: (EPOCH_OPS / d).max(100),
            cooldown_ops: (COOLDOWN_OPS / d).max(1_000),
            detection_window_ops: (DETECTION_WINDOW_OPS / d).max(50),
            phase: ReadTriggerPhase::Detection,
            window: WindowCounters::default(),
            previous_ratio: 0.0,
            cooldown_remaining: 0,
        }
    }

    /// True while promotion compactions should be triggered.
    pub fn promotions_enabled(&self) -> bool {
        self.phase == ReadTriggerPhase::Invocation
    }

    /// Record a batch of `ops` client operations, `reads` of them point
    /// reads, of which NVM served `from_nvm` and flash `from_flash` (the
    /// rest were cache hits or misses). A batch is judged whole: a window
    /// or an epoch that reaches its length inside it closes at its end,
    /// so the order of the batch's operations cannot move the outcome.
    pub fn observe_ops(&mut self, ops: u64, reads: u64, from_nvm: u64, from_flash: u64) {
        self.window.ops += ops;
        self.window.reads += reads;
        self.window.reads_from_nvm += from_nvm;
        self.window.reads_from_flash += from_flash;
        match self.phase {
            ReadTriggerPhase::Detection => {
                if self.window.ops >= self.detection_window_ops {
                    let read_heavy = self.window.read_fraction() >= READ_FRACTION_TRIGGER;
                    let flash_bound =
                        self.window.flash_read_fraction() >= FLASH_READ_FRACTION_TRIGGER;
                    if read_heavy && flash_bound {
                        self.previous_ratio = self.window.nvm_read_ratio();
                        self.phase = ReadTriggerPhase::Invocation;
                    }
                    self.window = WindowCounters::default();
                }
            }
            ReadTriggerPhase::Invocation => {
                if self.window.ops >= self.epoch_ops {
                    let ratio = self.window.nvm_read_ratio();
                    let improved = ratio - self.previous_ratio >= IMPROVEMENT_THRESHOLD;
                    self.previous_ratio = ratio;
                    self.window = WindowCounters::default();
                    if !improved {
                        self.phase = ReadTriggerPhase::Cooldown;
                        self.cooldown_remaining = self.cooldown_ops;
                    }
                }
            }
            ReadTriggerPhase::Cooldown => {
                self.cooldown_remaining = self.cooldown_remaining.saturating_sub(ops);
                if self.cooldown_remaining == 0 {
                    self.phase = ReadTriggerPhase::Detection;
                    self.window = WindowCounters::default();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A controller at the window floors: epochs of 100 operations, a
    /// cool-down of 1 000 and detection windows of 50.
    fn at_floors() -> ReadTriggeredController {
        ReadTriggeredController::new(u64::MAX)
    }

    /// One operation: a write, a cache hit, or a read NVM or flash served.
    fn one(c: &mut ReadTriggeredController, is_read: bool, from_nvm: bool, from_flash: bool) {
        c.observe_ops(1, is_read as u64, from_nvm as u64, from_flash as u64);
    }

    #[test]
    fn write_heavy_workload_never_triggers() {
        let mut c = at_floors();
        for i in 0..1_000 {
            // 50/50 read-write mix, reads from NVM.
            one(&mut c, i % 2 == 0, i % 2 == 0, false);
            assert!(!c.promotions_enabled());
        }
        assert_eq!(c.phase, ReadTriggerPhase::Detection);
    }

    #[test]
    fn read_heavy_flash_bound_workload_triggers_invocation() {
        let mut c = at_floors();
        c.observe_ops(49, 49, 0, 49);
        assert_eq!(c.phase, ReadTriggerPhase::Detection);
        one(&mut c, true, false, true);
        assert_eq!(c.phase, ReadTriggerPhase::Invocation);
        assert!(c.promotions_enabled());
    }

    #[test]
    fn invocation_continues_while_ratio_improves() {
        let mut c = at_floors();
        // Trigger invocation.
        c.observe_ops(50, 50, 0, 50);
        // Epoch 1: 50% of reads now come from NVM (improvement).
        c.observe_ops(100, 100, 50, 50);
        assert_eq!(c.phase, ReadTriggerPhase::Invocation);
        // Epoch 2: ratio drops back — controller cools down.
        c.observe_ops(100, 100, 0, 100);
        assert_eq!(c.phase, ReadTriggerPhase::Cooldown);
        assert!(!c.promotions_enabled());
    }

    #[test]
    fn cooldown_returns_to_detection() {
        let mut c = at_floors();
        c.observe_ops(50, 50, 0, 50);
        // Immediately fail the first epoch (no improvement: all flash).
        c.observe_ops(100, 100, 0, 100);
        assert_eq!(c.phase, ReadTriggerPhase::Cooldown);
        c.observe_ops(999, 999, 0, 999);
        assert_eq!(c.phase, ReadTriggerPhase::Cooldown);
        one(&mut c, true, false, true);
        assert_eq!(c.phase, ReadTriggerPhase::Detection);
    }

    /// A drain hands over its reads as counts, so the order they arrived
    /// in cannot move the outcome: an epoch that ends inside the batch is
    /// judged on the batch's whole mix. Fed one read at a time, the same
    /// reads close the epoch on whichever came first — flash-served first,
    /// the epoch looks worse than it was; NVM-served first, better.
    #[test]
    fn a_batch_is_judged_on_its_mix_whatever_the_order_of_its_reads() {
        // Invocation, after a detection window that read 0.5 from NVM, 90
        // operations into the first epoch at 0.5 too.
        let invoked = || {
            let mut c = at_floors();
            c.observe_ops(50, 50, 25, 25);
            c.observe_ops(90, 90, 45, 45);
            assert_eq!(c.phase, ReadTriggerPhase::Invocation);
            c
        };
        // The batch: 20 NVM-served and 20 flash-served reads, in three
        // orders (`true` = NVM served it).
        let nvm_first: Vec<bool> = (0..40).map(|i| i < 20).collect();
        let flash_first: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let interleaved: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let mut judged = Vec::new();
        for order in [&nvm_first, &flash_first, &interleaved] {
            let mut c = invoked();
            let nvm = order.iter().filter(|&&nvm| nvm).count() as u64;
            c.observe_ops(40, 40, nvm, 40 - nvm);
            judged.push((c.phase, c.previous_ratio, c.window.ops));
        }
        // The epoch closed at 130 operations, at the mix's 0.5: no
        // improvement on 0.5, so the controller cools down.
        assert_eq!(judged[0], (ReadTriggerPhase::Cooldown, 0.5, 0));
        assert!(judged.iter().all(|j| *j == judged[0]), "{judged:?}");

        let one_at_a_time = |order: &[bool]| {
            let mut c = invoked();
            for &nvm in order {
                one(&mut c, true, nvm, !nvm);
            }
            c.previous_ratio
        };
        assert!(one_at_a_time(&flash_first) < 0.5);
        assert!(one_at_a_time(&nvm_first) > 0.5);
    }

    #[test]
    fn scaled_down_config_shrinks_windows() {
        let paper = ReadTriggeredController::new(1);
        assert_eq!(paper.epoch_ops, EPOCH_OPS);
        assert_eq!(paper.cooldown_ops, COOLDOWN_OPS);
        assert_eq!(paper.detection_window_ops, DETECTION_WINDOW_OPS);
        let scaled = ReadTriggeredController::new(1000);
        assert_eq!(scaled.epoch_ops, 1_000);
        assert_eq!(scaled.cooldown_ops, 10_000);
        assert_eq!(scaled.detection_window_ops, 100);
        let floors = at_floors();
        assert_eq!(floors.epoch_ops, 100);
        assert_eq!(floors.cooldown_ops, 1_000);
        assert_eq!(floors.detection_window_ops, 50);
    }
}
