//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms with deterministic iteration.
//!
//! Design constraints (the crate's determinism contract, see DESIGN.md):
//!
//! * metrics are stored in **registration order** and iterated that way —
//!   no hashing, so exports are byte-identical across runs;
//! * lookups go through a [`BTreeMap`] name index, the workspace's
//!   sanctioned ordered map;
//! * registering the same name twice is an error,
//!   [`ObsError::DuplicateMetric`]; `tests/observability.rs` drives the
//!   observer's whole catalog through a CCWS and a per-SM-VRM run to
//!   prove no series collides.

use std::collections::BTreeMap;

use equalizer_sim::config::Femtos;

use crate::ObsError;

/// Stable handle to a registered metric (its registration index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId(usize);

/// What a metric measures and how it accumulates.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricKind {
    /// A monotonically non-decreasing cumulative quantity.
    Counter,
    /// A point-in-time quantity that can move both ways.
    Gauge,
    /// A distribution over fixed, inclusive upper-bound buckets (the
    /// last bucket is implicitly unbounded).
    Histogram {
        /// Inclusive upper bounds of the finite buckets, ascending.
        bounds: Vec<f64>,
        /// Observation counts: `bounds.len() + 1` entries (the last is
        /// the overflow bucket).
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: f64,
    },
}

/// One point of a metric's time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Epoch index the point was sampled at.
    pub epoch: u64,
    /// Absolute simulated time of the sample.
    pub t_fs: Femtos,
    /// The sampled value.
    pub value: f64,
}

/// A registered metric: identity, kind and the recorded series.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Unique name, dot-separated by convention (`cache.l1.hit_rate`).
    pub name: String,
    /// Unit label for display (`warps`, `W`, `ratio`, ...).
    pub unit: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// The recorded time series (empty for histograms).
    pub points: Vec<SeriesPoint>,
}

impl Metric {
    /// The last recorded value, if any point was recorded.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }

    /// Minimum, mean and maximum over the recorded series.
    pub fn min_mean_max(&self) -> Option<(f64, f64, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for p in &self.points {
            min = min.min(p.value);
            max = max.max(p.value);
            sum += p.value;
        }
        Some((min, sum / self.points.len() as f64, max))
    }
}

/// The registry: owns every metric, preserves registration order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
    index: BTreeMap<String, MetricId>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The metrics in registration order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.index.get(name).map(|id| &self.metrics[id.0])
    }

    fn register(
        &mut self,
        name: String,
        unit: &'static str,
        kind: MetricKind,
    ) -> Result<MetricId, ObsError> {
        if self.index.contains_key(&name) {
            return Err(ObsError::DuplicateMetric(name));
        }
        let id = MetricId(self.metrics.len());
        self.index.insert(name.clone(), id);
        self.metrics.push(Metric {
            name,
            unit,
            kind,
            points: Vec::new(),
        });
        Ok(id)
    }

    /// Registers a cumulative counter.
    ///
    /// # Errors
    ///
    /// [`ObsError::DuplicateMetric`] if the name is taken.
    pub fn register_counter(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
    ) -> Result<MetricId, ObsError> {
        self.register(name.into(), unit, MetricKind::Counter)
    }

    /// Registers a gauge.
    ///
    /// # Errors
    ///
    /// [`ObsError::DuplicateMetric`] if the name is taken.
    pub fn register_gauge(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
    ) -> Result<MetricId, ObsError> {
        self.register(name.into(), unit, MetricKind::Gauge)
    }

    /// Registers a fixed-bucket histogram with the given ascending
    /// inclusive upper bounds (an overflow bucket is added implicitly).
    ///
    /// # Errors
    ///
    /// [`ObsError::DuplicateMetric`] if the name is taken.
    pub fn register_histogram(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        bounds: Vec<f64>,
    ) -> Result<MetricId, ObsError> {
        let buckets = vec![0u64; bounds.len() + 1];
        self.register(
            name.into(),
            unit,
            MetricKind::Histogram {
                bounds,
                buckets,
                count: 0,
                sum: 0.0,
            },
        )
    }

    /// Appends a series point to a counter or gauge. Out-of-range ids
    /// cannot occur for ids handed out by this registry; a histogram id
    /// is ignored (histograms have no series).
    pub fn record(&mut self, id: MetricId, epoch: u64, t_fs: Femtos, value: f64) {
        if let Some(m) = self.metrics.get_mut(id.0) {
            if !matches!(m.kind, MetricKind::Histogram { .. }) {
                m.points.push(SeriesPoint { epoch, t_fs, value });
            }
        }
    }

    /// Adds one observation to a histogram.
    ///
    /// # Errors
    ///
    /// [`ObsError::KindMismatch`] when `id` does not name a histogram.
    pub fn observe(&mut self, id: MetricId, value: f64) -> Result<(), ObsError> {
        let m = match self.metrics.get_mut(id.0) {
            Some(m) => m,
            None => return Err(ObsError::UnknownMetric(format!("#{}", id.0))),
        };
        match &mut m.kind {
            MetricKind::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => {
                let slot = bounds
                    .iter()
                    .position(|b| value <= *b)
                    .unwrap_or(bounds.len());
                buckets[slot] += 1;
                *count += 1;
                *sum += value;
                Ok(())
            }
            _ => Err(ObsError::KindMismatch {
                name: m.name.clone(),
                expected: "histogram",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_order_is_stable() {
        let mut r = MetricsRegistry::new();
        let names = ["zeta", "alpha", "mid"];
        for n in names {
            r.register_gauge(n, "x").unwrap();
        }
        let got: Vec<&str> = r.metrics().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, names, "iteration must follow registration order");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = MetricsRegistry::new();
        r.register_counter("dup.name", "x").unwrap();
        let err = r.register_gauge("dup.name", "y").unwrap_err();
        assert_eq!(err, ObsError::DuplicateMetric("dup.name".to_string()));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn series_points_accumulate() {
        let mut r = MetricsRegistry::new();
        let id = r.register_gauge("g", "x").unwrap();
        r.record(id, 1, 100, 1.0);
        r.record(id, 2, 200, 3.0);
        let m = r.get("g").unwrap();
        assert_eq!(m.points.len(), 2);
        assert_eq!(m.last(), Some(3.0));
        let (min, mean, max) = m.min_mean_max().unwrap();
        assert_eq!((min, mean, max), (1.0, 2.0, 3.0));
    }

    #[test]
    fn histogram_buckets_values() {
        let mut r = MetricsRegistry::new();
        let id = r.register_histogram("h", "x", vec![1.0, 2.0, 4.0]).unwrap();
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            r.observe(id, v).unwrap();
        }
        match &r.get("h").unwrap().kind {
            MetricKind::Histogram {
                buckets,
                count,
                sum,
                ..
            } => {
                assert_eq!(buckets, &vec![2, 1, 1, 1], "inclusive upper bounds");
                assert_eq!(*count, 5);
                assert!((sum - 106.0).abs() < 1e-12);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn observe_on_gauge_is_a_kind_mismatch() {
        let mut r = MetricsRegistry::new();
        let id = r.register_gauge("g2", "x").unwrap();
        assert!(matches!(
            r.observe(id, 1.0),
            Err(ObsError::KindMismatch { .. })
        ));
    }

    #[test]
    fn histograms_ignore_series_recording() {
        let mut r = MetricsRegistry::new();
        let id = r.register_histogram("h2", "x", vec![1.0]).unwrap();
        r.record(id, 0, 0, 5.0);
        assert!(r.get("h2").unwrap().points.is_empty());
    }
}
