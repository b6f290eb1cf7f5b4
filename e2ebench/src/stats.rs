//! Percentile selection and small summary helpers.
//!
//! A tail percentile is only reported where at least [`TAIL`] samples
//! lie beyond it; with fewer samples the percentile is lowered to the
//! highest one that keeps that many beyond, and the pick says which
//! percentile and how many samples it stands on.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL: usize = 10;

/// One reported percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The value at the percentile.
    pub value: f64,
    /// The percentile actually reported, in `[0, 1]`.
    pub q: f64,
    /// Samples it was selected from.
    pub n: usize,
}

/// The median of `xs` (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The value at quantile `q` by nearest rank. For `q ≤ 0.5` this is
/// the median; above it the rank is capped so that [`TAIL`] samples
/// stay beyond it (never below the median's rank).
pub fn percentile(xs: &[f64], q: f64) -> Option<Pick> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    if q <= 0.5 {
        return Some(Pick {
            value: median(xs)?,
            q: 0.5,
            n,
        });
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let mid = (n - 1) / 2;
    let capped = wanted.min((n - 1).saturating_sub(TAIL)).max(mid);
    Some(Pick {
        value: v[capped],
        q: (capped + 1) as f64 / n as f64,
        n,
    })
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(xs: &[f64], p: &Pick) -> usize {
        xs.iter().filter(|&&x| x > p.value).count()
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_and_reports_its_count() {
        for n in [21usize, 50, 100, 999, 1000, 5000] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = percentile(&xs, 0.99).unwrap();
            assert_eq!(p.n, n);
            assert!(beyond(&xs, &p) >= TAIL, "n={n}: {p:?}");
            assert!(p.q <= 0.99 + 1e-12);
        }
        // With enough samples the true p99 is reported unchanged.
        let xs: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let p = percentile(&xs, 0.99).unwrap();
        assert_eq!(p.value, 4949.0);
        assert!((p.q - 0.99).abs() < 1e-12);
    }

    #[test]
    fn small_samples_fall_back_to_the_median_rank() {
        let xs = [5.0, 1.0, 3.0];
        let p = percentile(&xs, 0.99).unwrap();
        assert_eq!(p.value, 3.0);
        assert_eq!(p.n, 3);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let b: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&a, 0.99), percentile(&b, 0.99));
    }
}
