//! Order statistics over raw samples.

/// The `q`-quantile (0..=1) by linear interpolation between closest ranks;
/// sorts `v` in place. 0 for no samples.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac
}

pub fn median(v: &mut [u64]) -> f64 {
    quantile(v, 0.5)
}

pub fn median_f(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Sub-buckets per power of two: a quantile read from a [`Hist`] is within
/// 1/256 of the true sample.
const SUB_BITS: u32 = 8;

/// Log-linear histogram of latencies in ns. Its memory does not grow with
/// the number of samples, so a run's resident memory does not depend on
/// its throughput.
#[derive(Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

fn bucket(v: u64) -> usize {
    if v < 1 << SUB_BITS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() - SUB_BITS;
    (((exp + 1) << SUB_BITS) as u64 + ((v >> exp) - (1 << SUB_BITS))) as usize
}

/// `(lowest value, width)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < 1 << SUB_BITS {
        return (i as f64, 1.0);
    }
    let exp = (i >> SUB_BITS) - 1;
    let sub = i & ((1 << SUB_BITS) - 1);
    (
        ((1 << SUB_BITS) + sub) as f64 * (1u64 << exp) as f64,
        (1u64 << exp) as f64,
    )
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        let i = bucket(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile, interpolated by rank inside its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (lo, width) = bucket_range(i);
                return lo + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Hist::default();
        let mut v: Vec<u64> = (0..10_000u64).map(|i| 1_000 + i * i % 7_919_993).collect();
        for x in &v {
            h.record(*x);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = quantile(&mut v, q);
            assert!(
                (h.quantile(q) - exact).abs() <= exact / 128.0,
                "q={q}: {} vs {exact}",
                h.quantile(q)
            );
        }
        for i in 0..5000 {
            let (lo, w) = bucket_range(i);
            assert_eq!(bucket(lo as u64), i);
            assert_eq!(bucket((lo + w) as u64), i + 1);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4, 1, 3, 2];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median_f(&[3.0, 1.0, 2.0]), 2.0);
    }
}
