//! Small numeric helpers the benchmark owns: its own seeded generator (so
//! inputs do not change when the vendored `rand` stand-in does), order
//! statistics, and the digest of result rows.

/// splitmix64: the whole workload is a function of `--seed` through this.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(alpha) over `0..n` by inverse CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the two middle samples averaged for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a layer the
/// workload does not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The reporting rule for a tail: the highest of p50/p90/p99/p99.9 that
/// still has at least ten samples beyond it. `None` under 20 samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // in per mille, so that the count beyond is exact integer arithmetic
    [999, 990, 900, 500]
        .into_iter()
        .find(|pm| samples * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// driver's acceptance rule). `None` under two samples or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    if v.len() < 2 {
        return None;
    }
    let cut = |k: usize| {
        // exclusive method: position k(n+1)/4, 1-based, linear interpolation
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = median(&v);
    (med != 0.0).then(|| (cut(3) - cut(1)).abs() / med.abs())
}

/// Digest of a set of result rows: the sum, modulo 2^64, of the FNV-1a hash
/// of each row's `to_tsv` line. A sum does not depend on the order of its
/// terms, so two runs agree exactly when their sorted lines would, without
/// the sort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowsDigest(pub u64);

impl RowsDigest {
    pub fn add_line(&mut self, line: &str) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in line.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = self.0.wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quantiles_and_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn rows_digest_ignores_order_but_not_content() {
        let digest = |lines: &[&str]| {
            let mut d = RowsDigest::default();
            lines.iter().for_each(|l| d.add_line(l));
            d
        };
        assert_eq!(
            digest(&["1000\t7", "2000\t9"]),
            digest(&["2000\t9", "1000\t7"])
        );
        assert_ne!(
            digest(&["1000\t7", "2000\t9"]),
            digest(&["1000\t9", "2000\t7"])
        );
        // FNV-1a of the empty string is the offset basis
        assert_eq!(digest(&[""]).0, 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        let z = Zipf::new(100, 1.05);
        let mut rng = Rng::new(7);
        let mut head = 0;
        for _ in 0..1_000 {
            let s = z.sample(&mut rng);
            assert!(s < 100);
            head += usize::from(s < 10);
        }
        assert!(head > 400, "Zipf head too light: {head}");
    }
}
