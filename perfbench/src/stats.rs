//! Small numeric helpers: order statistics, peak memory, seeded draws.

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of exact samples, linearly interpolated between the
/// two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// splitmix64: the benchmark's seeded generator for every input it makes.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(n: usize, state: &mut u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Cumulative Zipf(`s`) distribution over ranks `0..n` (rank 0 heaviest).
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draw a rank from a cumulative distribution.
pub fn pick(cdf: &[f64], state: &mut u64) -> usize {
    let u = unit(state);
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// Request latencies in a log-linear histogram whose buckets are 0.1%
/// wide (1 ns to 10 s). Quantiles are within 0.1% of the exact order
/// statistic, far finer than any bound they are checked against, and the
/// memory is fixed: a sample list would grow with throughput and make a
/// faster program read as a larger `peak_rss_mb`. The mean is exact.
#[derive(Debug, Clone)]
pub struct Latencies {
    buckets: Vec<u64>,
    n: u64,
    sum_ns: u128,
}

/// Bucket growth factor.
const GROWTH: f64 = 1.001;
/// Buckets up to 10 s.
const BUCKETS: usize = 23_040;

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            buckets: vec![0; BUCKETS],
            n: 0,
            sum_ns: 0,
        }
    }
}

impl Latencies {
    pub fn record(&mut self, latency: std::time::Duration) {
        let ns = latency.as_nanos().max(1) as f64;
        let bucket = ((ns.ln() / GROWTH.ln()) as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.n += 1;
        self.sum_ns += latency.as_nanos();
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean_ms(&self) -> f64 {
        self.sum_ns as f64 / self.n.max(1) as f64 / 1e6
    }

    /// The `q`-quantile in ms: the middle of the bucket holding the
    /// sample of rank `q * (n - 1)`. NaN when nothing was recorded, which
    /// the result printer refuses.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.n - 1) as f64).round() as u64;
        let mut seen = 0;
        for (bucket, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if rank < seen {
                return GROWTH.powf(bucket as f64 + 0.5) / 1e6;
            }
        }
        unreachable!("rank below the sample size")
    }
}
