//! Order statistics for latency samples.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to mean anything.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `samples` (any order).
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest whole percentile, no higher than `wanted`, that has at
/// least [`TAIL_SAMPLES`] of `n` samples beyond it. `None` when even the
/// median does not qualify (fewer than `2 * TAIL_SAMPLES` samples).
pub fn tail_percentile(n: usize, wanted: u32) -> Option<u32> {
    // p qualifies when n * (100 - p) / 100 >= TAIL_SAMPLES.
    if n < TAIL_SAMPLES {
        return None;
    }
    let best = 100 - (100 * TAIL_SAMPLES).div_ceil(n) as u32;
    let p = best.min(wanted);
    (p >= 50).then_some(p)
}
