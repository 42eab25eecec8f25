//! Interleaving the timed calls of a run.
//!
//! The host is shared: other tenants slow a memory-bound call by tens of
//! percent for seconds at a time.  Running one phase after the other would
//! hand a whole phase to whatever the neighbours are doing in its two
//! seconds.  Instead every repeated call owns a *slot* with a share of the
//! run's measured seconds, and the run always executes next the slot that is
//! furthest behind its share — so each call is sampled across the whole run.

/// One repeated call: its share of the budget and the seconds it has used.
#[derive(Debug, Clone)]
pub struct Slot {
    share: f64,
    /// Measured seconds (warm-ups excluded).
    used: f64,
    calls: usize,
    /// Calls to discard before measuring: one, or two if the first was cheap.
    warm_ups: usize,
    samples: Vec<f64>,
}

#[derive(Debug, Clone)]
pub struct Schedule {
    slots: Vec<Slot>,
    budget_s: f64,
}

/// Timed samples every slot gets even when the budget is already used up.
pub const MIN_TIMED: usize = 3;

/// A first call faster than this gets a second warm-up call; a slower one has
/// already paged its table in and is too expensive to throw away twice.
const SECOND_WARM_UP_BELOW_S: f64 = 0.05;

impl Schedule {
    /// Slots with a zero share are never run.
    pub fn new(shares: &[f64], budget_s: f64) -> Self {
        Self {
            slots: shares
                .iter()
                .map(|&share| Slot {
                    share,
                    used: 0.0,
                    calls: 0,
                    warm_ups: 1,
                    samples: Vec::new(),
                })
                .collect(),
            budget_s,
        }
    }

    fn measured(&self) -> f64 {
        self.slots.iter().map(|s| s.used).sum()
    }

    /// Share of the budget measured so far (may exceed 1 at the end).
    pub fn progress(&self) -> f64 {
        let wanted: f64 = self.slots.iter().map(|s| s.share).sum::<f64>() * self.budget_s;
        if wanted > 0.0 {
            self.measured() / wanted
        } else {
            1.0
        }
    }

    /// The slot to run next: the one furthest behind its share; once the
    /// budget is used, only slots still short of [`MIN_TIMED`] samples.
    /// `None` when the schedule is complete.
    pub fn next(&self) -> Option<usize> {
        let over = self.progress() >= 1.0;
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.share > 0.0 && (!over || s.samples.len() < MIN_TIMED))
            .min_by(|(_, a), (_, b)| (a.used / a.share).total_cmp(&(b.used / b.share)))
            .map(|(i, _)| i)
    }

    /// Whether the next call of `slot` is a warm-up (run, but not measured).
    pub fn warming(&self, slot: usize) -> bool {
        self.slots[slot].calls < self.slots[slot].warm_ups
    }

    /// Books one call of `slot`.  Returns whether it was measured.
    pub fn record(&mut self, slot: usize, seconds: f64) -> bool {
        let s = &mut self.slots[slot];
        let warming = s.calls < s.warm_ups;
        if s.calls == 0 && seconds < SECOND_WARM_UP_BELOW_S {
            s.warm_ups = 2;
        }
        s.calls += 1;
        if !warming {
            s.samples.push(seconds);
            s.used += seconds;
        }
        !warming
    }

    /// Timed samples of `slot` so far.
    pub fn samples(&self, slot: usize) -> &[f64] {
        &self.slots[slot].samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a schedule to completion with fixed per-slot call costs.
    fn drive(shares: &[f64], costs: &[f64], budget_s: f64) -> (Schedule, Vec<usize>) {
        let mut schedule = Schedule::new(shares, budget_s);
        let mut order = Vec::new();
        while let Some(slot) = schedule.next() {
            schedule.record(slot, costs[slot]);
            order.push(slot);
            assert!(order.len() < 100_000, "schedule does not terminate");
        }
        (schedule, order)
    }

    #[test]
    fn measured_time_follows_the_shares_and_calls_interleave() {
        let (schedule, order) = drive(&[0.5, 0.25, 0.25], &[0.1, 0.1, 0.1], 8.0);
        let counts: Vec<usize> = (0..3).map(|i| schedule.samples(i).len()).collect();
        assert_eq!(counts, vec![40, 20, 20]);
        assert!(schedule.progress() >= 1.0);
        // Interleaved: slot 1 is not held back until slot 0 is done.
        let first_half = &order[..order.len() / 2];
        assert!(first_half.contains(&1) && first_half.contains(&2));
    }

    #[test]
    fn cheap_calls_warm_up_twice_expensive_ones_once() {
        let (schedule, order) = drive(&[0.5, 0.5], &[0.001, 0.4], 4.0);
        let cheap_calls = order.iter().filter(|&&s| s == 0).count();
        let dear_calls = order.iter().filter(|&&s| s == 1).count();
        assert_eq!(cheap_calls, schedule.samples(0).len() + 2);
        assert_eq!(dear_calls, schedule.samples(1).len() + 1);
    }

    #[test]
    fn every_slot_gets_its_minimum_even_over_budget() {
        // One call of slot 1 costs more than the whole budget.
        let (schedule, _) = drive(&[0.9, 0.1], &[0.01, 5.0], 1.0);
        assert_eq!(schedule.samples(1).len(), MIN_TIMED);
        assert!(schedule.samples(0).len() >= MIN_TIMED);
    }

    #[test]
    fn zero_share_slots_never_run() {
        let (schedule, order) = drive(&[1.0, 0.0], &[0.1, 0.1], 1.0);
        assert!(!order.contains(&1));
        assert!(schedule.samples(1).is_empty());
    }
}
