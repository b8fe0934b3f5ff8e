//! Time-series recording for run histories.
//!
//! Backs Fig 9 (per-cgroup DRAM page percentage over time), Fig 10b/10c (CIT
//! threshold and rate-limit traces), and any other sampled run statistic.

use sim_clock::Nanos;

/// A named sequence of `(time, value)` samples.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(Nanos, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Times must be non-decreasing.
    pub fn push(&mut self, at: Nanos, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            debug_assert!(at >= last, "time series must be appended in order");
        }
        self.samples.push((at, value));
    }

    /// All samples.
    pub fn samples(&self) -> &[(Nanos, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// Downsamples to at most `n` evenly spaced points (for compact printing).
    pub fn downsample(&self, n: usize) -> Vec<(Nanos, f64)> {
        if self.samples.len() <= n || n == 0 {
            return self.samples.clone();
        }
        let step = self.samples.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.samples[(i as f64 * step) as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut s = TimeSeries::new("threshold");
        s.push(Nanos(0), 1000.0);
        s.push(Nanos(10), 500.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some(500.0));
        assert_eq!(s.name(), "threshold");
    }

    #[test]
    fn downsample_bounds_length() {
        let mut s = TimeSeries::new("x");
        for i in 0..1000u64 {
            s.push(Nanos(i), i as f64);
        }
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].0, Nanos(0));
        // Short series pass through unchanged.
        let mut short = TimeSeries::new("y");
        short.push(Nanos(0), 1.0);
        assert_eq!(short.downsample(10).len(), 1);
    }
}
