//! Operating modes and the Table I action matrix.
//!
//! Equalizer works toward one of two objectives (§III): saving energy by
//! throttling under-utilised resources, or improving performance by
//! boosting the bottleneck resource. The decision algorithm reduces every
//! kernel tendency to one of two *actions* — `CompAction` (the kernel
//! leans on compute) or `MemAction` (the kernel leans on the memory
//! system) — and this module maps an action and the objective to the
//! per-domain frequency votes of Table I.

/// Equalizer's objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Mode {
    /// Throttle under-utilised resources; keep performance.
    Energy,
    /// Boost the bottleneck resource; keep energy in check.
    #[default]
    Performance,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mode::Energy => "energy",
            Mode::Performance => "performance",
        })
    }
}

/// The decision algorithm's resource verdict for an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// The kernel is compute-inclined (`CompAction` in Algorithm 1).
    Comp,
    /// The kernel is memory-inclined (`MemAction` in Algorithm 1).
    Mem,
}

/// One SM's per-domain frequency vote submitted to the frequency manager.
///
/// `Drift` means the SM does not need an excursion on this domain; the
/// frequency manager walks a drifting domain back toward nominal one step
/// per epoch. This is how Table I's "Maintain" composes with phase
/// changes: an excursion is only held while some action keeps requesting
/// it (visible in the paper's Figure 9, where phased kernels occupy
/// several operating points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Vote {
    /// Step the domain down.
    Down,
    /// No excursion needed; return toward nominal.
    #[default]
    Drift,
    /// Step the domain up.
    Up,
}

/// Per-domain votes derived from an action under a mode (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomainVotes {
    /// SM-domain vote.
    pub sm: Vote,
    /// Memory-domain vote.
    pub mem: Vote,
}

/// Maps an epoch action to Table I's frequency actions.
///
/// | Tendency | Energy objective          | Performance objective  |
/// |----------|---------------------------|------------------------|
/// | Comp     | lower the memory domain   | raise the SM domain    |
/// | Mem      | lower the SM domain       | raise the memory domain|
/// | none     | drift both toward nominal | drift both             |
pub fn table_i_votes(mode: Mode, action: Option<Action>) -> DomainVotes {
    match (mode, action) {
        (Mode::Energy, Some(Action::Comp)) => DomainVotes {
            sm: Vote::Drift,
            mem: Vote::Down,
        },
        (Mode::Energy, Some(Action::Mem)) => DomainVotes {
            sm: Vote::Down,
            mem: Vote::Drift,
        },
        (Mode::Performance, Some(Action::Comp)) => DomainVotes {
            sm: Vote::Up,
            mem: Vote::Drift,
        },
        (Mode::Performance, Some(Action::Mem)) => DomainVotes {
            sm: Vote::Drift,
            mem: Vote::Up,
        },
        (_, None) => DomainVotes::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_mode_throttles_the_idle_resource() {
        let v = table_i_votes(Mode::Energy, Some(Action::Comp));
        assert_eq!(v.mem, Vote::Down, "compute kernel: memory is idle");
        assert_eq!(v.sm, Vote::Drift);
        let v = table_i_votes(Mode::Energy, Some(Action::Mem));
        assert_eq!(v.sm, Vote::Down, "memory kernel: SM is idle");
        assert_eq!(v.mem, Vote::Drift);
    }

    #[test]
    fn performance_mode_boosts_the_bottleneck() {
        let v = table_i_votes(Mode::Performance, Some(Action::Comp));
        assert_eq!(v.sm, Vote::Up);
        assert_eq!(v.mem, Vote::Drift);
        let v = table_i_votes(Mode::Performance, Some(Action::Mem));
        assert_eq!(v.mem, Vote::Up);
        assert_eq!(v.sm, Vote::Drift);
    }

    #[test]
    fn no_action_drifts_both_domains() {
        for mode in [Mode::Energy, Mode::Performance] {
            let v = table_i_votes(mode, None);
            assert_eq!(v.sm, Vote::Drift);
            assert_eq!(v.mem, Vote::Drift);
        }
    }
}
