//! Trace sinks: observers of the simulation.
//!
//! The analysis crates (`meshsort-zeroone` in particular) need to watch
//! quantities like per-column zero counts *after specific steps*; examples
//! want to print the grid as it evolves. Both are served by cheap observer
//! hooks rather than by baking observation into the engine.

/// Receives swap events from a scalar step
/// ([`crate::engine::apply_plan_observed`] takes any `&mut` sink as its
/// observer).
pub trait TraceSink {
    /// Called after each executed exchange with the step index and the two
    /// flat cell indices of the comparator (min-end first).
    fn on_swap(&mut self, step: u64, keep_min: u32, keep_max: u32);
    /// Called once per step with the number of swaps that step performed.
    fn on_step_end(&mut self, step: u64, swaps: u64);
}

/// A sink that ignores everything (zero-cost baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTrace;

impl TraceSink for NullTrace {
    #[inline]
    fn on_swap(&mut self, _step: u64, _keep_min: u32, _keep_max: u32) {}
    #[inline]
    fn on_step_end(&mut self, _step: u64, _swaps: u64) {}
}

/// Records every swap `(step, keep_min, keep_max)` and per-step totals.
#[derive(Debug, Default, Clone)]
pub struct SwapLog {
    swaps: Vec<(u64, u32, u32)>,
    step_totals: Vec<(u64, u64)>,
}

impl SwapLog {
    /// All recorded swaps in execution order.
    pub fn swaps(&self) -> &[(u64, u32, u32)] {
        &self.swaps
    }

    /// `(step, swap count)` pairs, one per traced step.
    pub fn step_totals(&self) -> &[(u64, u64)] {
        &self.step_totals
    }

    /// Total number of swaps across all traced steps.
    pub fn total_swaps(&self) -> u64 {
        self.step_totals.iter().map(|(_, s)| s).sum()
    }

    /// Index of the last step that performed at least one swap, if any.
    pub fn last_active_step(&self) -> Option<u64> {
        self.step_totals.iter().rev().find(|(_, s)| *s > 0).map(|(t, _)| *t)
    }

    /// Clears the log for reuse.
    pub fn clear(&mut self) {
        self.swaps.clear();
        self.step_totals.clear();
    }
}

impl TraceSink for SwapLog {
    fn on_swap(&mut self, step: u64, keep_min: u32, keep_max: u32) {
        self.swaps.push((step, keep_min, keep_max));
    }
    fn on_step_end(&mut self, step: u64, swaps: u64) {
        self.step_totals.push((step, swaps));
    }
}

/// Counts swaps per step without storing individual events — O(1) memory.
#[derive(Debug, Default, Clone)]
pub struct SwapCounter {
    total: u64,
    steps: u64,
    quiet_streak: u64,
}

impl SwapCounter {
    /// Total swaps observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of steps observed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of consecutive most-recent steps with zero swaps. A full
    /// cycle of quiet steps implies the grid is at a fixed point of the
    /// schedule.
    pub fn quiet_streak(&self) -> u64 {
        self.quiet_streak
    }
}

impl TraceSink for SwapCounter {
    #[inline]
    fn on_swap(&mut self, _step: u64, _keep_min: u32, _keep_max: u32) {}
    #[inline]
    fn on_step_end(&mut self, _step: u64, swaps: u64) {
        self.total += swaps;
        self.steps += 1;
        if swaps == 0 {
            self.quiet_streak += 1;
        } else {
            self.quiet_streak = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_trace_is_inert() {
        let mut t = NullTrace;
        t.on_swap(0, 1, 2);
        t.on_step_end(0, 1);
    }

    #[test]
    fn swap_log_records() {
        let mut log = SwapLog::default();
        log.on_swap(0, 1, 2);
        log.on_swap(0, 3, 4);
        log.on_step_end(0, 2);
        log.on_step_end(1, 0);
        assert_eq!(log.swaps().len(), 2);
        assert_eq!(log.total_swaps(), 2);
        assert_eq!(log.last_active_step(), Some(0));
        log.clear();
        assert!(log.swaps().is_empty());
        assert_eq!(log.last_active_step(), None);
    }

    #[test]
    fn swap_counter_quiet_streak() {
        let mut c = SwapCounter::default();
        c.on_step_end(0, 3);
        assert_eq!(c.quiet_streak(), 0);
        c.on_step_end(1, 0);
        c.on_step_end(2, 0);
        assert_eq!(c.quiet_streak(), 2);
        c.on_step_end(3, 1);
        assert_eq!(c.quiet_streak(), 0);
        assert_eq!(c.total(), 4);
        assert_eq!(c.steps(), 4);
    }
}
