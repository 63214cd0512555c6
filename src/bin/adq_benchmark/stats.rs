//! Order statistics used by every workload and by `compare`.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending sample (the convention of
/// `adq_infer::serve::stats_from_latencies`). `None` on an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// A tail quantile only when at least [`MIN_BEYOND`] samples lie strictly
/// beyond its rank; a smaller sample cannot support the tail it names.
pub fn supported_tail(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    if sorted.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, q)
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle values of an even sample). `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a bound is judged against. `None` when undefined.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_load_stats_convention() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond rank 990
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&s, 0.99), Some(990.0));
        // 999 samples leave only 9 beyond rank 990
        assert_eq!(supported_tail(&s[..999], 0.99), None);
        assert_eq!(supported_tail(&s[..100], 0.9), Some(90.0));
        assert_eq!(supported_tail(&s[..99], 0.9), None);
        assert_eq!(supported_tail(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
