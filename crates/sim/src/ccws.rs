//! Cache-Conscious Wavefront Scheduling (CCWS) support.
//!
//! CCWS (Rogers et al., MICRO 2012) is one of the paper's comparison
//! baselines (Figure 10). It throttles the number of warps allowed to
//! issue memory instructions based on *lost locality*: each warp has a
//! victim tag array (VTA) of lines it recently missed on; an L1 miss that
//! hits the warp's VTA means the line was reused but had been evicted, so
//! the warp gains lost-locality score. Warps are ranked by score and only
//! a prefix whose cumulative score fits a cutoff may issue to the LD/ST
//! unit.
//!
//! The scoring machinery lives inside the simulator because it needs
//! per-access visibility into the L1; the `equalizer-baselines` crate
//! provides the user-facing constructor.

/// Tuning parameters for the CCWS point system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcwsConfig {
    /// Victim-tag-array entries per warp.
    pub vta_entries: usize,
    /// Score added on a detected lost-locality event.
    pub score_gain: u32,
    /// Score subtracted from every warp each SM cycle (linear decay).
    pub score_decay_per_kcycle: u32,
    /// Base score of every warp. With no lost locality the cumulative
    /// cutoff admits all warps.
    pub base_score: u32,
}

impl Default for CcwsConfig {
    fn default() -> Self {
        Self {
            vta_entries: 8,
            score_gain: 64,
            score_decay_per_kcycle: 128,
            base_score: 16,
        }
    }
}

/// Per-SM CCWS state: VTAs, scores and the memory-issue mask.
#[derive(Debug, Clone)]
pub struct CcwsState {
    config: CcwsConfig,
    /// Per-warp victim tags (line addresses), small FIFO.
    vtas: Vec<Vec<u64>>,
    /// Per-warp lost-locality score.
    lls: Vec<u32>,
    /// Whether each warp may currently issue memory instructions.
    allowed: Vec<bool>,
    /// Count of lost-locality events (reporting).
    lost_locality_events: u64,
    /// Scratch for [`CcwsState::refresh`]'s ranking, reused so a refresh
    /// allocates nothing. Not serialized: every refresh rewrites it.
    order: Vec<usize>,
}

impl CcwsState {
    /// Creates state for `num_warps` warp slots.
    pub fn new(config: CcwsConfig, num_warps: usize) -> Self {
        Self {
            config,
            vtas: vec![Vec::with_capacity(config.vta_entries); num_warps],
            lls: vec![0; num_warps],
            allowed: vec![true; num_warps],
            lost_locality_events: 0,
            order: Vec::new(),
        }
    }

    /// Records an L1 miss by `warp` on `line_addr` and returns whether it
    /// was a lost-locality event.
    pub fn on_l1_miss(&mut self, warp: usize, line_addr: u64) -> bool {
        let vta = &mut self.vtas[warp];
        let lost = if let Some(pos) = vta.iter().position(|&t| t == line_addr) {
            vta.remove(pos);
            true
        } else {
            false
        };
        if lost {
            self.lls[warp] = self.lls[warp].saturating_add(self.config.score_gain);
            self.lost_locality_events += 1;
        }
        if vta.len() == self.config.vta_entries {
            vta.remove(0);
        }
        vta.push(line_addr);
        lost
    }

    /// Applies score decay for `cycles` elapsed SM cycles and recomputes
    /// the memory-issue mask.
    pub fn refresh(&mut self, cycles: u64) {
        let decay =
            (u128::from(self.config.score_decay_per_kcycle) * u128::from(cycles) / 1024) as u32;
        for s in &mut self.lls {
            *s = s.saturating_sub(decay);
        }
        // Rank warps by score (descending) and admit a prefix whose
        // cumulative score fits within num_warps * base_score.
        // Ties rank by slot, the order a stable sort of `0..n` gives; the
        // in-place sort needs no scratch allocation.
        let cutoff = self.config.base_score as u64 * self.lls.len() as u64;
        self.order.clear();
        self.order.extend(0..self.lls.len());
        self.order
            .sort_unstable_by_key(|&w| (std::cmp::Reverse(self.lls[w]), w));
        let mut cumulative = 0u64;
        for &w in &self.order {
            let score = u64::from(self.lls[w]) + u64::from(self.config.base_score);
            cumulative += score;
            self.allowed[w] = cumulative <= cutoff;
        }
        // Never starve completely: the highest-scoring warp is always
        // allowed (it owns the locality being protected).
        if let Some(&top) = self.order.first() {
            self.allowed[top] = true;
        }
    }

    /// Whether `warp` may issue memory instructions.
    pub fn may_issue_mem(&self, warp: usize) -> bool {
        self.allowed[warp]
    }

    /// Number of warps currently allowed to issue memory instructions.
    pub fn allowed_count(&self) -> usize {
        self.allowed.iter().filter(|&&a| a).count()
    }

    /// Total lost-locality events observed.
    pub fn lost_locality_events(&self) -> u64 {
        self.lost_locality_events
    }

    /// Clears per-invocation state (scores and VTAs).
    pub fn reset(&mut self) {
        for v in &mut self.vtas {
            v.clear();
        }
        self.lls.fill(0);
        self.allowed.fill(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_allowed_without_lost_locality() {
        let mut s = CcwsState::new(CcwsConfig::default(), 8);
        s.refresh(0);
        assert_eq!(s.allowed_count(), 8);
    }

    #[test]
    fn repeated_miss_on_same_line_is_lost_locality() {
        let mut s = CcwsState::new(CcwsConfig::default(), 4);
        assert!(!s.on_l1_miss(0, 0x80), "first miss is cold");
        assert!(s.on_l1_miss(0, 0x80), "re-miss hits the VTA");
        assert_eq!(s.lost_locality_events(), 1);
    }

    #[test]
    fn heavy_thrashing_throttles_warps() {
        let cfg = CcwsConfig::default();
        let mut s = CcwsState::new(cfg, 8);
        // Every warp thrashes heavily.
        for w in 0..8 {
            for _ in 0..16 {
                s.on_l1_miss(w, 0x1000 + w as u64);
            }
        }
        s.refresh(0);
        assert!(
            s.allowed_count() < 8,
            "cumulative score beyond cutoff must throttle"
        );
        assert!(s.allowed_count() >= 1, "top warp never starves");
    }

    #[test]
    fn decay_restores_issue_rights() {
        let cfg = CcwsConfig::default();
        let mut s = CcwsState::new(cfg, 4);
        for w in 0..4 {
            for _ in 0..32 {
                s.on_l1_miss(w, 0x40 * (w as u64 + 1));
            }
        }
        s.refresh(0);
        let throttled = s.allowed_count();
        s.refresh(10_000_000); // massive decay
        assert!(s.allowed_count() >= throttled);
        assert_eq!(s.allowed_count(), 4);
    }

    #[test]
    fn vta_is_bounded() {
        let cfg = CcwsConfig {
            vta_entries: 2,
            ..CcwsConfig::default()
        };
        let mut s = CcwsState::new(cfg, 1);
        s.on_l1_miss(0, 0x80);
        s.on_l1_miss(0, 0x100);
        s.on_l1_miss(0, 0x180); // evicts 0x80
        assert!(!s.on_l1_miss(0, 0x80), "evicted from VTA, no detection");
    }

    #[test]
    fn reset_clears_state() {
        let mut s = CcwsState::new(CcwsConfig::default(), 2);
        for _ in 0..10 {
            s.on_l1_miss(0, 0x80);
        }
        s.reset();
        s.refresh(0);
        assert_eq!(s.allowed_count(), 2);
        assert!(!s.on_l1_miss(0, 0x80), "VTA cleared");
    }
}
