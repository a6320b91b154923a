//! Order statistics for timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles, interpolated exactly as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads read the same here and in any script over the
/// results. `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let at = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Percentiles a timing may be reported at, highest first.
const PERCENTILES: [u32; 6] = [99, 95, 90, 84, 75, 50];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of `samples` that has at least [`MIN_BEYOND`]
/// samples above its rank, with its nearest-rank value. `None` when even
/// the median has fewer than that beyond it.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(samples);
    let n = s.len();
    PERCENTILES.iter().find_map(|&p| {
        let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| (p, s[rank - 1]))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn tail_reports_only_percentiles_with_ten_samples_beyond() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&v(20)), Some((50, 10.0)));
        // 66 sweep cells (three sets of 22): p84 has exactly ten beyond.
        assert_eq!(tail(&v(66)), Some((84, 56.0)));
        assert_eq!(tail(&v(100)), Some((90, 90.0)));
        assert_eq!(tail(&v(1000)), Some((99, 990.0)));
    }
}
