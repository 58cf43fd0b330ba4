//! The paper's five static operating points (§V-B): baseline, SM ±15 %
//! and memory ±15 %, each run with the hardware otherwise untouched.

use equalizer_sim::config::{GpuConfig, VfLevel};

/// A fixed voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StaticPoint {
    /// Everything nominal.
    Baseline,
    /// SM domain at +15 %.
    SmHigh,
    /// SM domain at −15 %.
    SmLow,
    /// Memory domain at +15 %.
    MemHigh,
    /// Memory domain at −15 %.
    MemLow,
}

impl StaticPoint {
    /// All five operating points.
    pub const ALL: [StaticPoint; 5] = [
        StaticPoint::Baseline,
        StaticPoint::SmHigh,
        StaticPoint::SmLow,
        StaticPoint::MemHigh,
        StaticPoint::MemLow,
    ];

    /// The per-domain levels of this point.
    pub fn levels(self) -> (VfLevel, VfLevel) {
        match self {
            StaticPoint::Baseline => (VfLevel::Nominal, VfLevel::Nominal),
            StaticPoint::SmHigh => (VfLevel::High, VfLevel::Nominal),
            StaticPoint::SmLow => (VfLevel::Low, VfLevel::Nominal),
            StaticPoint::MemHigh => (VfLevel::Nominal, VfLevel::High),
            StaticPoint::MemLow => (VfLevel::Nominal, VfLevel::Low),
        }
    }

    /// Applies this operating point to a configuration.
    pub fn apply(self, config: GpuConfig) -> GpuConfig {
        let (sm, mem) = self.levels();
        config.with_static_levels(sm, mem)
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            StaticPoint::Baseline => "baseline",
            StaticPoint::SmHigh => "SM boost",
            StaticPoint::SmLow => "SM low",
            StaticPoint::MemHigh => "Mem boost",
            StaticPoint::MemLow => "Mem low",
        }
    }
}

impl std::fmt::Display for StaticPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_sets_levels() {
        let c = StaticPoint::SmHigh.apply(GpuConfig::gtx480());
        assert_eq!(c.initial_sm_level, VfLevel::High);
        assert_eq!(c.initial_mem_level, VfLevel::Nominal);
        let c = StaticPoint::MemLow.apply(GpuConfig::gtx480());
        assert_eq!(c.initial_sm_level, VfLevel::Nominal);
        assert_eq!(c.initial_mem_level, VfLevel::Low);
    }

    #[test]
    fn baseline_is_nominal() {
        let c = StaticPoint::Baseline.apply(GpuConfig::gtx480());
        assert_eq!(c.initial_sm_level, VfLevel::Nominal);
        assert_eq!(c.initial_mem_level, VfLevel::Nominal);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            StaticPoint::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
