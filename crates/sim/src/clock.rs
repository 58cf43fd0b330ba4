//! Clock-domain bookkeeping for the two independent VF domains.
//!
//! The GPU has two domains: the SM domain and the memory-system domain
//! (interconnect + L2 + memory controller + DRAM). Global simulated time is
//! kept in femtoseconds; each domain advances by its own period, which
//! changes when the runtime retunes its VF level. VF transitions take
//! effect after a configurable voltage-regulator delay.

use crate::config::{ClockConfig, Femtos, VfLevel};
use crate::snapshot::{put_vf_level, Reader, SnapshotError, Writer};

/// One clock domain with a retunable VF level.
#[derive(Debug, Clone)]
pub struct DomainClock {
    config: ClockConfig,
    level: VfLevel,
    /// `config.period_fs(level)`, cached: the period is read several
    /// times per engine step and changes only with `level`.
    period: Femtos,
    /// Absolute time of the next tick.
    next_tick: Femtos,
    /// Total cycles elapsed, across all levels.
    cycles: u64,
    /// Cycles elapsed at each VF level (indexed by [`VfLevel::index`]).
    cycles_at: [u64; 3],
    /// Wall time spent at each VF level.
    time_at: [Femtos; 3],
    /// Time of the last accounting checkpoint for `time_at`.
    last_account: Femtos,
    /// A pending level change and the absolute time at which it applies.
    pending: Option<(VfLevel, Femtos)>,
}

impl DomainClock {
    /// Creates a clock starting at time zero with the given initial level.
    pub fn new(config: ClockConfig, initial: VfLevel) -> Self {
        let period = config.period_fs(initial);
        Self {
            config,
            level: initial,
            period,
            next_tick: period,
            cycles: 0,
            cycles_at: [0; 3],
            time_at: [0; 3],
            last_account: 0,
            pending: None,
        }
    }

    /// The current VF level.
    pub fn level(&self) -> VfLevel {
        self.level
    }

    /// The absolute time of this domain's next tick.
    pub fn next_tick(&self) -> Femtos {
        self.next_tick
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles elapsed at each VF level.
    pub fn cycles_at(&self) -> [u64; 3] {
        self.cycles_at
    }

    /// Wall time spent at each VF level (up to the last tick).
    pub fn time_at(&self) -> [Femtos; 3] {
        self.time_at
    }

    /// The completion time of the last tick (zero before the first).
    pub fn last_tick(&self) -> Femtos {
        self.last_account
    }

    /// Current period in femtoseconds.
    pub fn period_fs(&self) -> Femtos {
        self.period
    }

    /// Converts a number of cycles at the current level to femtoseconds.
    pub fn cycles_to_fs(&self, cycles: u64) -> Femtos {
        cycles * self.period_fs()
    }

    /// Whether a VF transition is pending (requested but not yet
    /// applied). While one is pending the domain's period may change at
    /// any tick, so multi-tick fused windows must not be opened.
    pub fn has_pending_transition(&self) -> bool {
        self.pending.is_some()
    }

    /// Requests a transition to `target`, applying at `apply_at`.
    ///
    /// A later request supersedes any pending one. Requesting the current
    /// level cancels a pending transition.
    pub fn request_level(&mut self, target: VfLevel, apply_at: Femtos) {
        if target == self.level {
            self.pending = None;
        } else {
            self.pending = Some((target, apply_at));
        }
    }

    /// Serializes the clock's dynamic state (the `ClockConfig` is not
    /// written; it is supplied again on decode from the `GpuConfig`).
    pub(crate) fn encode(&self, w: &mut Writer) {
        put_vf_level(w, self.level);
        w.u64(self.next_tick);
        w.u64(self.cycles);
        for v in self.cycles_at {
            w.u64(v);
        }
        for v in self.time_at {
            w.u64(v);
        }
        w.u64(self.last_account);
        match self.pending {
            None => w.bool(false),
            Some((level, at)) => {
                w.bool(true);
                put_vf_level(w, level);
                w.u64(at);
            }
        }
    }

    /// Rebuilds a clock from [`DomainClock::encode`] bytes.
    ///
    /// Rejects a clock whose counters disagree with each other: every
    /// tick keeps the per-level residencies summing to the cycle and time
    /// totals and puts the next tick exactly one period after the last,
    /// and stepping relies on that (a next tick far in the future would
    /// let the other domain run unboundedly).
    pub(crate) fn decode(config: ClockConfig, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        let level = r.vf_level()?;
        let next_tick = r.u64()?;
        let cycles = r.u64()?;
        let mut cycles_at = [0u64; 3];
        for v in &mut cycles_at {
            *v = r.u64()?;
        }
        let mut time_at = [0 as Femtos; 3];
        for v in &mut time_at {
            *v = r.u64()?;
        }
        let last_account = r.u64()?;
        let pending = if r.bool()? {
            Some((r.vf_level()?, r.u64()?))
        } else {
            None
        };
        let period = config.period_fs(level);
        let sum = |v: [u64; 3]| v.iter().try_fold(0u64, |acc, &x| acc.checked_add(x));
        let consistent = sum(cycles_at) == Some(cycles)
            && sum(time_at) == Some(last_account)
            && last_account.checked_add(period) == Some(next_tick);
        if !consistent {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: "clock counters disagree",
            });
        }
        Ok(Self {
            config,
            level,
            period,
            next_tick,
            cycles,
            cycles_at,
            time_at,
            last_account,
            pending,
        })
    }

    /// Advances the domain by one cycle and returns the tick's completion
    /// time. Applies any pending VF transition whose time has come.
    pub fn tick(&mut self) -> Femtos {
        let now = self.next_tick;
        // Sanitizer: simulated time is strictly monotonic within a domain
        // and the cycle counter can only move forward. A zero or negative
        // period (possible only through a corrupted ClockConfig) would
        // freeze the event loop while cycle counts keep climbing.
        crate::validate_assert!(
            now > self.last_account || self.cycles == 0,
            "clock domain time went non-monotonic: tick at {now} after {}",
            self.last_account
        );
        self.cycles += 1;
        self.cycles_at[self.level.index()] += 1;
        self.time_at[self.level.index()] += now - self.last_account;
        self.last_account = now;
        crate::validate_assert!(
            self.cycles_at.iter().sum::<u64>() == self.cycles,
            "per-level cycle residency out of sync with the cycle counter"
        );

        if let Some((target, apply_at)) = self.pending {
            if now >= apply_at {
                self.level = target;
                self.period = self.config.period_fs(target);
                self.pending = None;
            }
        }
        crate::validate_assert!(self.period > 0, "clock period must be positive");
        self.next_tick = now + self.period;
        now
    }

    /// Advances the domain by `n` cycles in O(1), returning the last
    /// tick's completion time. The per-cycle residency sums telescope
    /// (every in-span tick runs at the same level), so this is
    /// bit-identical to `n` [`DomainClock::tick`] calls — but only while
    /// no VF transition is pending, which callers must have ruled out.
    ///
    /// # Panics
    ///
    /// Debug-asserts `n >= 1` and no pending transition.
    pub fn advance_n(&mut self, n: u64) -> Femtos {
        debug_assert!(n >= 1, "advance_n needs at least one cycle");
        debug_assert!(
            self.pending.is_none(),
            "advance_n across a pending VF transition"
        );
        let period = self.period;
        crate::validate_assert!(period > 0, "clock period must be positive");
        let last = self.next_tick + (n - 1) * period;
        self.cycles += n;
        self.cycles_at[self.level.index()] += n;
        self.time_at[self.level.index()] += last - self.last_account;
        self.last_account = last;
        crate::validate_assert!(
            self.cycles_at.iter().sum::<u64>() == self.cycles,
            "per-level cycle residency out of sync with the cycle counter"
        );
        self.next_tick = last + period;
        last
    }

    /// How many ticks would complete at or before `target` (the count a
    /// `while next_tick() <= target { tick() }` loop would run). Valid
    /// only while no VF transition is pending, so the period is fixed.
    pub fn ticks_due_by(&self, target: Femtos) -> u64 {
        debug_assert!(
            self.pending.is_none(),
            "ticks_due_by across a pending VF transition"
        );
        if self.next_tick > target {
            0
        } else {
            (target - self.next_tick) / self.period + 1
        }
    }
}

/// How many ticks of a domain whose next tick completes at `first` (with a
/// fixed `period`) finish *strictly before* time `t` — i.e. the largest `n`
/// with `first + (n-1)·period < t`, or `0` when even the first tick is not
/// strictly earlier. The engine uses this to cap a fused window so that every
/// in-window tick of one domain precedes an event at `t` in another.
pub(crate) fn ticks_strictly_before(first: Femtos, period: Femtos, t: Femtos) -> u64 {
    debug_assert!(period > 0, "clock period must be positive");
    if first >= t {
        0
    } else {
        (t - 1 - first) / period + 1
    }
}

#[cfg(test)]
mod ticks_before_tests {
    use super::ticks_strictly_before;

    #[test]
    fn counts_ticks_strictly_before_the_deadline() {
        // first=10, period=3 -> ticks at 10, 13, 16, ...
        assert_eq!(ticks_strictly_before(10, 3, 10), 0);
        assert_eq!(ticks_strictly_before(10, 3, 11), 1);
        assert_eq!(ticks_strictly_before(10, 3, 13), 1);
        assert_eq!(ticks_strictly_before(10, 3, 14), 2);
        assert_eq!(ticks_strictly_before(10, 3, 16), 2);
        assert_eq!(ticks_strictly_before(10, 3, 17), 3);
        assert_eq!(ticks_strictly_before(10, 3, 9), 0);
        // Matches the definition by brute force.
        for first in [1u64, 7, 12] {
            for period in [1u64, 2, 5] {
                for t in 0..40 {
                    let mut n = 0;
                    while first + n * period < t {
                        n += 1;
                    }
                    assert_eq!(ticks_strictly_before(first, period, t), n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clk() -> DomainClock {
        DomainClock::new(
            ClockConfig {
                nominal_mhz: 1000.0,
                step: 0.15,
            },
            VfLevel::Nominal,
        )
    }

    #[test]
    fn advance_n_matches_repeated_ticks() {
        let mut stepped = clk();
        let mut jumped = clk();
        stepped.tick();
        jumped.tick();
        let mut last = 0;
        for _ in 0..9 {
            last = stepped.tick();
        }
        assert_eq!(jumped.advance_n(9), last);
        let (mut a, mut b) = (Writer::new(), Writer::new());
        stepped.encode(&mut a);
        jumped.encode(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes(), "advance_n diverged");
    }

    #[test]
    fn ticks_due_by_counts_the_replay_loop() {
        let mut c = clk();
        c.tick(); // next_tick = 2_000_000
        assert_eq!(c.ticks_due_by(1_999_999), 0);
        assert_eq!(c.ticks_due_by(2_000_000), 1);
        assert_eq!(c.ticks_due_by(5_500_000), 4);
        let mut n = 0;
        let mut replay = clk();
        replay.tick();
        while replay.next_tick() <= 5_500_000 {
            replay.tick();
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn ticks_advance_by_period() {
        let mut c = clk();
        assert_eq!(c.tick(), 1_000_000);
        assert_eq!(c.tick(), 2_000_000);
        assert_eq!(c.cycles(), 2);
    }

    #[test]
    fn level_change_applies_after_delay() {
        let mut c = clk();
        c.request_level(VfLevel::High, 2_500_000);
        c.tick(); // t=1e6, still nominal
        c.tick(); // t=2e6, still nominal
        assert_eq!(c.level(), VfLevel::Nominal);
        c.tick(); // t=3e6 >= 2.5e6 -> applies
        assert_eq!(c.level(), VfLevel::High);
        // next period is the high-level period (1e6/1.15 ~ 869565)
        let t3 = c.next_tick();
        assert!(t3 < 3_000_000 + 1_000_000);
    }

    #[test]
    fn cached_period_follows_the_level() {
        let mut c = clk();
        let expect = |c: &DomainClock| c.config.period_fs(c.level());
        assert_eq!(c.period_fs(), expect(&c));
        c.request_level(VfLevel::High, 1_500_000);
        c.tick();
        assert_eq!(c.level(), VfLevel::Nominal);
        assert_eq!(c.period_fs(), expect(&c));
        c.tick(); // t=2e6 >= 1.5e6 -> applies
        assert_eq!(c.level(), VfLevel::High);
        assert_eq!(c.period_fs(), expect(&c));
        assert_ne!(c.period_fs(), c.config.period_fs(VfLevel::Nominal));

        // The period is not serialized; decode re-derives it.
        c.request_level(VfLevel::Low, 0);
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let restored = DomainClock::decode(c.config, &mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.level(), VfLevel::High);
        assert_eq!(restored.period_fs(), expect(&restored));
        let (mut a, mut b) = (c.clone(), restored);
        for _ in 0..3 {
            assert_eq!(a.tick(), b.tick());
            assert_eq!(a.period_fs(), b.period_fs());
        }
        assert_eq!(b.level(), VfLevel::Low);
        assert_eq!(b.period_fs(), expect(&b));
    }

    #[test]
    fn requesting_current_level_cancels_pending() {
        let mut c = clk();
        c.request_level(VfLevel::High, 0);
        c.request_level(VfLevel::Nominal, 0);
        c.tick();
        assert_eq!(c.level(), VfLevel::Nominal);
    }

    #[test]
    fn per_level_accounting_sums_to_total() {
        let mut c = clk();
        c.request_level(VfLevel::Low, 3_000_000);
        for _ in 0..10 {
            c.tick();
        }
        let total: u64 = c.cycles_at().iter().sum();
        assert_eq!(total, c.cycles());
        assert!(c.cycles_at()[VfLevel::Low.index()] > 0);
        assert!(c.cycles_at()[VfLevel::Nominal.index()] > 0);
    }

    #[test]
    fn time_accounting_tracks_levels() {
        let mut c = clk();
        for _ in 0..5 {
            c.tick();
        }
        assert_eq!(c.time_at()[VfLevel::Nominal.index()], 5_000_000);
    }
}
