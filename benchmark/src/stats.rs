//! Order statistics for the benchmark's own numbers.

/// Sub-bins per power of two: relative bin width 2^-10 ≈ 0.1 %.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
/// Values below this are binned exactly (one bin per integer).
const LINEAR: u64 = 2 * SUB as u64;
/// Bins for every value up to 2^40 (≈ 18 min in ns, ≈ 12 days in µs).
const MAX_EXP: u32 = 40;
const BINS: usize = LINEAR as usize + (MAX_EXP - SUB_BITS - 1) as usize * SUB;

/// Fixed-size log-linear histogram of integer samples (ns or µs). Recording
/// never allocates, so it can sit inside the timed loop. Quantiles are
/// interpolated inside the bin that holds them: the samples are integer
/// microseconds or nanoseconds, and a median read off the raw integers
/// would print the same digits on every run.
pub struct Hist {
    bins: Vec<u64>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            bins: vec![0; BINS],
            count: 0,
        }
    }

    /// (bin index, lower edge, width) of the bin holding `v`.
    fn bin(v: u64) -> (usize, u64, u64) {
        if v < LINEAR {
            return (v as usize, v, 1);
        }
        let v = v.min((1u64 << MAX_EXP) - 1);
        let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS + 1
        let shift = exp - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        let idx = LINEAR as usize + (exp - SUB_BITS - 1) as usize * SUB + sub;
        (idx, (v >> shift) << shift, 1 << shift)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.bins[Self::bin(v).0] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (0 < q < 1), interpolated linearly inside its bin.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q * self.count as f64;
        let mut below = 0.0;
        for (idx, &n) in self.bins.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let n = n as f64;
            if below + n >= target {
                let (lower, width) = Self::edges(idx);
                return lower as f64 + width as f64 * ((target - below) / n);
            }
            below += n;
        }
        (1u64 << MAX_EXP) as f64
    }

    fn edges(idx: usize) -> (u64, u64) {
        if idx < LINEAR as usize {
            return (idx as u64, 1);
        }
        let rel = idx - LINEAR as usize;
        let shift = (rel / SUB) as u32 + 1;
        let lower = ((SUB + rel % SUB) as u64) << shift;
        (lower, 1 << shift)
    }
}

/// Median of a slice (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), which is what the acceptance
/// check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Ops per second of each window and their median.
pub fn window_median(window_ops: &[u64], window_secs: f64) -> f64 {
    let rates: Vec<f64> = window_ops.iter().map(|&n| n as f64 / window_secs).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_edges_agree() {
        for v in [
            0,
            1,
            2047,
            2048,
            2049,
            4095,
            4096,
            71_500,
            1 << 30,
            (1 << 40) - 1,
        ] {
            let (idx, lower, width) = Hist::bin(v);
            assert_eq!(Hist::edges(idx), (lower, width), "value {v}");
            assert!(lower <= v && v < lower + width, "value {v}");
            assert!(idx < BINS);
        }
        assert_eq!(Hist::bin(u64::MAX).0, BINS - 1);
    }

    #[test]
    fn quantile_of_uniform_ramp() {
        let mut h = Hist::new();
        for v in 0..100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        for q in [0.5, 0.99] {
            let got = h.quantile(q);
            let want = q * 100_000.0;
            assert!((got - want).abs() / want < 0.002, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn quantile_interpolates_inside_one_integer_bin() {
        let mut h = Hist::new();
        for _ in 0..10 {
            h.record(350);
        }
        // All mass in [350, 351): the median sits half-way through the bin.
        assert!((h.quantile(0.5) - 350.5).abs() < 1e-9);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let mut ops = [3000u64; 10];
        ops[4] = 10;
        assert_eq!(window_median(&ops, 2.0), 1500.0);
    }
}
