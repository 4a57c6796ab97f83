//! Simulation metrics: counters and sample histograms.
//!
//! Deterministic by construction: `BTreeMap` keys iterate in sorted order so
//! report generation is byte-stable for a fixed seed.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimDuration;

/// A sample-recording histogram with on-demand percentile queries.
///
/// Samples are stored exactly (the reproduction's experiments record at most
/// a few hundred thousand samples per metric, so exact storage is cheaper
/// than maintaining sketch invariants and keeps percentiles precise).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Minimum sample (0 when empty).
    pub min: f64,
    /// Maximum sample (0 when empty).
    pub max: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
    }

    /// Percentile `p` in `[0, 100]` using nearest-rank on the sorted samples;
    /// 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.samples.len() as f64 - 1.0)).round() as usize;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// Produce a summary snapshot.
    pub fn summary(&mut self) -> HistogramSummary {
        let count = self.count();
        let mean = self.mean();
        let min = if count == 0 { 0.0 } else { self.percentile(0.0) };
        HistogramSummary {
            count,
            mean,
            min,
            max: self.max(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
        }
    }
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} min={:.4} p50={:.4} p90={:.4} p99={:.4} max={:.4}",
            self.count, self.mean, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// A named registry of counters and histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// New, empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increment (or create) the counter `name` by `by`.
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Current value of counter `name` (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raise counter `name` to `v` if `v` exceeds its current value
    /// (high-water marks, e.g. the engine's largest dispatch batch).
    pub fn set_max(&mut self, name: &str, v: u64) {
        let slot = self.counters.entry(name.to_owned()).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Record a sample into histogram `name`.
    pub fn record(&mut self, name: &str, v: f64) {
        self.histograms.entry(name.to_owned()).or_default().record(v);
    }

    /// Record a duration (seconds) into histogram `name`.
    pub fn record_duration(&mut self, name: &str, d: SimDuration) {
        self.record(name, d.as_secs_f64());
    }

    /// Access a histogram if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// All counters with their values, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Render the counters matching `prefix` as a report table (sorted by
    /// name; deterministic). Experiment binaries use this to surface
    /// subsystem counters — e.g. the Content Store's byte budget
    /// (`ndn.cs_*`: bytes used, byte-evictions, admission rejections) —
    /// next to their dispatch reports.
    pub fn counters_table(&self, title: impl Into<String>, prefix: &str) -> crate::report::Table {
        let mut table = crate::report::Table::new(title, &["counter", "value"]);
        for (name, value) in self.counters() {
            if name.starts_with(prefix) {
                table.push_row(vec![name.to_owned(), value.to_string()]);
            }
        }
        table
    }

    /// All histogram names, sorted.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Remove every counter and histogram.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 100.0);
        let p50 = h.percentile(50.0);
        assert!((50.0..=51.0).contains(&p50), "p50 = {p50}");
        let p90 = h.percentile(90.0);
        assert!((90.0..=91.0).contains(&p90), "p90 = {p90}");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let mut h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 9.0, 3.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert!((s.mean - 4.5).abs() < 1e-12);
    }

    #[test]
    fn record_after_percentile_resorts() {
        let mut h = Histogram::new();
        h.record(10.0);
        assert_eq!(h.percentile(50.0), 10.0);
        h.record(1.0);
        assert_eq!(h.percentile(0.0), 1.0, "new min visible after re-sort");
    }

    #[test]
    fn registry_iteration_is_sorted() {
        let mut m = Metrics::new();
        m.incr("zeta", 1);
        m.incr("alpha", 1);
        m.record("m2", 1.0);
        m.record("m1", 1.0);
        let counters: Vec<_> = m.counter_names().collect();
        assert_eq!(counters, vec!["alpha", "zeta"]);
        let histos: Vec<_> = m.histogram_names().collect();
        assert_eq!(histos, vec!["m1", "m2"]);
    }

    #[test]
    fn counters_table_filters_by_prefix() {
        let mut m = Metrics::new();
        m.incr("ndn.cs_evict.count", 3);
        m.incr("ndn.cs_evict.bytes", 4096);
        m.incr("gateway.jobs_created", 1);
        let t = m.counters_table("CS", "ndn.cs_");
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "ndn.cs_evict.bytes");
        assert_eq!(t.rows[0][1], "4096");
        assert_eq!(t.rows[1][0], "ndn.cs_evict.count");
    }

    #[test]
    fn duration_recording() {
        let mut m = Metrics::new();
        m.record_duration("lat", SimDuration::from_millis(1500));
        assert!((m.histogram("lat").unwrap().mean() - 1.5).abs() < 1e-12);
    }
}
