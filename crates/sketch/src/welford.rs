//! Welford's online algorithm for streaming mean and variance.
//!
//! The two-stage sampling estimator (paper Equations 1–3) needs per-host
//! sample variances `s_i^2` and the between-host variance `s_u^2`; both are
//! maintained with this numerically-stable single-pass structure.

use serde::{Deserialize, Serialize};

/// Streaming count / mean / variance accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.n as f64
    }

    /// Unbiased sample variance `s^2` (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_var(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..100)
            .map(|i| ((i * 37) % 19) as f64 * 0.5 - 3.0)
            .collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - naive_var(&xs)).abs() < 1e-9);
        assert_eq!(w.count(), 100);
        assert!((w.sum() - xs.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn small_counts() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.add(5.0);
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.variance(), 0.0); // undefined -> 0
        w.add(7.0);
        assert_eq!(w.mean(), 6.0);
        assert!((w.variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..20] {
            a.add(x);
        }
        for &x in &xs[20..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Welford::new();
        a.add(1.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // classic catastrophic-cancellation case for naive sum-of-squares
        let mut w = Welford::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            w.add(x);
        }
        assert!((w.variance() - 30.0).abs() < 1e-6, "var={}", w.variance());
    }
}
