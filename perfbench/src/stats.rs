//! Order statistics for the reported timings.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`], capped at `cap`, that has
/// at least [`TAIL_MIN_BEYOND`] of `n` samples beyond it; `None` when
/// even the median has fewer (n < 20).
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| (n as f64) * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64)
}

/// Linear-interpolated percentile `p` (0..=100) of `sorted`, which must
/// be sorted ascending and nonempty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of unsorted samples (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency sample set summarised by the tail rule.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported (≤ the requested cap).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

impl Latency {
    /// Summarises `samples`, reporting the tail at `cap` or at the
    /// highest lower percentile the sample count supports. `None` when
    /// there are too few samples for any tail.
    pub fn summarise(samples: &[f64], cap: f64) -> Option<Latency> {
        let tail_p = tail_percentile(samples.len(), cap)?;
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Latency {
            n: v.len(),
            p50: percentile(&v, 50.0),
            tail_p,
            tail: percentile(&v, tail_p),
        })
    }
}
