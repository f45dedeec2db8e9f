//! Order statistics over the benchmark's own samples and over the
//! program's log₂ histograms.

use htm_sim::HistSnapshot;

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of unordered samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile of a [`HistSnapshot`], interpolated linearly inside the
/// containing log₂ bucket (`HistSnapshot::quantile` reports the bucket's
/// upper bound, which repeats exactly from run to run). Bucket `i ≥ 1`
/// holds `[2^(i−1), 2^i − 1]`; the result is clamped to the observed max.
pub fn hist_quantile(h: &HistSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count as f64).max(1.0);
    let mut seen = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (seen + n) as f64 >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = (((1u128 << i) - 1) as f64).min(h.max as f64).max(lo);
            let within = (rank - seen as f64) / n as f64;
            return lo + (hi - lo) * within;
        }
        seen += n;
    }
    h.max as f64
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::LogHistogram;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let h = LogHistogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = hist_quantile(&s, 0.5);
        assert!((512.0..=1999.0).contains(&p50), "{p50}");
        assert!(hist_quantile(&s, 0.99) <= 1999.0);
    }
}
