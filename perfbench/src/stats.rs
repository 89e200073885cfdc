//! Order statistics that carry their sample count.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs 1000 samples and a median 20; anything less
//! is refused rather than reported as a number that a single outlier sets.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// A percentile was not reported: too few samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused {
    /// Samples available.
    pub n: usize,
}

/// Integer key that orders floats as `f64::total_cmp` does.
pub fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Nearest-rank percentile (`per_mille` = 500 for the median, 990 for
/// p99). Integer rank arithmetic, so `p99` of exactly 1000 samples is
/// accepted and of 999 refused.
pub fn percentile(samples: &[f64], per_mille: u32) -> Result<Pct, Refused> {
    let n = samples.len();
    let rank = (u64::from(per_mille) * n as u64).div_ceil(1000) as usize;
    if n == 0 || rank == 0 || n - rank < MIN_BEYOND {
        return Err(Refused { n });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by_key(|&x| total_key(x));
    Ok(Pct {
        value: sorted[rank - 1],
        n,
    })
}

/// The median, over consecutive windows of `window` samples, of each
/// window's percentile (a trailing partial window is dropped). A host
/// stall that slows one window does not move the result. Each window's
/// percentile obeys [`MIN_BEYOND`]; `n` counts the samples used.
pub fn windowed(samples: &[f64], window: usize, per_mille: u32) -> Result<Pct, Refused> {
    let per: Vec<f64> = samples
        .chunks_exact(window.max(1))
        .map(|w| percentile(w, per_mille).map(|p| p.value))
        .collect::<Result<_, _>>()?;
    let m = median(&per).ok_or(Refused { n: samples.len() })?;
    Ok(Pct {
        value: m.value,
        n: per.len() * window,
    })
}

/// Median of per-repetition values (mean of the middle pair for an even
/// count). Repetition counts are small, so this is not held to
/// [`MIN_BEYOND`]; the count is reported beside it.
pub fn median(values: &[f64]) -> Option<Pct> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by_key(|&x| total_key(x));
    let mid = v.len() / 2;
    let value = if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    };
    Some(Pct { value, n: v.len() })
}

/// Geometric mean of positive values (`None` if any is not positive).
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 990), Err(Refused { n: 999 }));
        let p = percentile(&ramp(1000), 990).expect("1000 samples support p99");
        assert_eq!(
            p,
            Pct {
                value: 990.0,
                n: 1000
            }
        );
        let beyond = ramp(1000).iter().filter(|&&x| x > p.value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn median_and_p90_thresholds() {
        assert!(percentile(&ramp(19), 500).is_err());
        assert_eq!(percentile(&ramp(20), 500).map(|p| p.value), Ok(10.0));
        assert!(percentile(&ramp(99), 900).is_err());
        assert_eq!(percentile(&ramp(100), 900).map(|p| p.n), Ok(100));
        assert!(percentile(&[], 500).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 500), percentile(&ramp(200), 500));
    }

    #[test]
    fn windowed_percentiles_ignore_one_slow_window() {
        let mut v = ramp(400);
        // A stall multiplies every latency of the second window by 10.
        v[100..200].iter_mut().for_each(|x| *x *= 10.0);
        let w = windowed(&v, 100, 500).expect("windows of 100 support a median");
        assert_eq!(w.n, 400);
        // Window medians are 50, 1500, 250 and 350; their median is 300.
        assert_eq!(w.value, 300.0);
        assert!(
            windowed(&v, 50, 900).is_err(),
            "p90 of 50 samples is refused"
        );
        assert!(windowed(&v[..99], 100, 500).is_err(), "no whole window");
    }

    #[test]
    fn total_key_orders_like_total_cmp() {
        let v = [-2.5, -0.0, 0.0, 1e-300, 3.0, f64::INFINITY];
        for w in v.windows(2) {
            assert!(total_key(w[0]) < total_key(w[1]), "{w:?}");
        }
    }

    #[test]
    fn median_geo_mean_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(Pct { value: 2.0, n: 3 }));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).map(|p| p.value), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geo_mean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[1.0, 0.0]), None);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
