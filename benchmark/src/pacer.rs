//! Open-loop schedule: a fixed rate in 1 ms ticks. Every event's *due* time
//! is its tick's scheduled time, however late the generator actually runs, so
//! a stall delays — and is charged to — every event behind it.

/// Tick length in nanoseconds.
pub const TICK_NS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pacer {
    pub rate_eps: u64,
}

impl Pacer {
    /// Tick in which event `i` (0-based) is due: tick `k` carries events
    /// `⌈k·rate/1000⌉ .. ⌈(k+1)·rate/1000⌉`.
    pub fn tick_of(&self, i: u64) -> u64 {
        i * 1000 / self.rate_eps.max(1)
    }

    /// Due time of event `i`, nanoseconds after the phase started.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.tick_of(i) * TICK_NS
    }

    /// True when event `i` is the first of its tick (the generator waits for
    /// the tick's scheduled time before sending it).
    pub fn starts_tick(&self, i: u64) -> bool {
        i == 0 || self.tick_of(i) != self.tick_of(i - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_events_per_tick() {
        let p = Pacer { rate_eps: 5000 };
        assert_eq!(p.tick_of(0), 0);
        assert_eq!(p.tick_of(4), 0);
        assert_eq!(p.tick_of(5), 1);
        assert_eq!(p.due_ns(12), 2 * TICK_NS);
        assert!(p.starts_tick(0) && p.starts_tick(5) && !p.starts_tick(6));
    }

    #[test]
    fn fractional_events_per_tick_keep_the_long_run_rate() {
        // 2500 events/s = 2.5 per tick: ticks alternate 3, 2, 3, 2 …
        let p = Pacer { rate_eps: 2500 };
        let ticks: Vec<u64> = (0..10).map(|i| p.tick_of(i)).collect();
        assert_eq!(ticks, [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        // One second's worth of events is due within the first second.
        assert_eq!(p.tick_of(2499), 999);
        assert_eq!(p.tick_of(2500), 1000);
    }

    #[test]
    fn slow_rates_leave_ticks_empty() {
        let p = Pacer { rate_eps: 400 };
        assert_eq!(p.due_ns(1), 2 * TICK_NS);
        assert_eq!(p.due_ns(2), 5 * TICK_NS);
        assert!(p.starts_tick(1) && p.starts_tick(2));
    }
}
