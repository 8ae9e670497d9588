//! Metrics collection for simulated serving runs.
//!
//! The paper reports goodput (samples/sec completed within SLO), latency
//! quartiles (fig. 17) and GPU utilization (fig. 3). These types collect
//! exactly those measurements.

use crate::stats::{self, FiveNumber};
use crate::time::SimDuration;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Collects individual latency (or any duration) observations with exact
/// quantiles.
///
/// The reproduction's experiments observe at most a few million samples per
/// run, so storing every observation and sorting on demand is simpler and
/// more accurate than an approximate sketch.
#[derive(Debug, Clone, Default)]
pub struct DurationHistogram {
    samples_ms: Vec<f64>,
}

impl DurationHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration observation.
    pub fn record(&mut self, d: SimDuration) {
        self.samples_ms.push(d.as_millis_f64());
    }

    /// Number of recorded observations.
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        stats::mean(&self.samples_ms)
    }

    /// Quantile (`q` in `[0,1]`) in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        stats::quantile(&self.samples_ms, q)
    }

    /// Box-plot summary (min/p25/median/p75/max/mean) in milliseconds —
    /// the exact statistics of the paper's fig. 17.
    pub fn five_number_ms(&self) -> FiveNumber {
        FiveNumber::from_samples(&self.samples_ms)
    }

    /// Raw samples in milliseconds (for custom analyses).
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &DurationHistogram) {
        self.samples_ms.extend_from_slice(&other.samples_ms);
    }
}

/// Tracks the busy time and weighted occupancy of one device.
///
/// Utilization is reported two ways:
/// * **busy fraction** — fraction of wall (sim) time the device was
///   executing anything;
/// * **effective utilization** — busy time weighted by how much of the
///   device's parallelism the running batch actually used (the quantity
///   plotted in the paper's fig. 3, where shrinking batches leave GPU
///   cores idle even while a kernel runs).
#[derive(Debug, Clone, Default)]
pub struct UtilizationTracker {
    busy: SimDuration,
    weighted_busy_secs: f64,
}

impl UtilizationTracker {
    /// Creates a tracker with no recorded activity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an execution interval of length `d` during which the device
    /// ran at `occupancy` (in `[0,1]`) of its peak parallelism.
    pub fn record_busy(&mut self, d: SimDuration, occupancy: f64) {
        self.busy += d;
        self.weighted_busy_secs += d.as_secs_f64() * occupancy.clamp(0.0, 1.0);
    }

    /// Total busy time.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Fraction of `elapsed` the device was busy.
    pub fn busy_fraction(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
    }

    /// Occupancy-weighted utilization over `elapsed`.
    pub fn effective_utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.weighted_busy_secs / elapsed.as_secs_f64()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = DurationHistogram::new();
        for ms in 1..=100u64 {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean_ms() - 50.5).abs() < 1e-9);
        assert!((h.quantile_ms(0.5) - 50.5).abs() < 1e-9);
        let s = h.five_number_ms();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = DurationHistogram::new();
        let mut b = DurationHistogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_tracks_occupancy() {
        let mut u = UtilizationTracker::new();
        // Busy 2s of a 4s run: 1s at full occupancy, 1s at half.
        u.record_busy(SimDuration::from_secs(1), 1.0);
        u.record_busy(SimDuration::from_secs(1), 0.5);
        let elapsed = SimDuration::from_secs(4);
        assert!((u.busy_fraction(elapsed) - 0.5).abs() < 1e-9);
        assert!((u.effective_utilization(elapsed) - 0.375).abs() < 1e-9);
    }

    #[test]
    fn utilization_empty_elapsed() {
        let u = UtilizationTracker::new();
        assert_eq!(u.busy_fraction(SimDuration::ZERO), 0.0);
        assert_eq!(u.effective_utilization(SimDuration::ZERO), 0.0);
    }
}
