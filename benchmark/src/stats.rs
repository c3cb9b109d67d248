//! Order statistics and the regression-bound rule shared by the run
//! summaries and `tca-benchmark compare`.

/// Median of `xs` (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile of `xs`, by the "exclusive"
/// method of Python's `statistics.quantiles(xs, n=4)` — the definition the
/// benchmark's steadiness rule is stated in. A single sample is its own
/// quartiles; an empty slice gives `NaN`s.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"` as written in `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Relative change from `base` to `new`, signed so that a positive value
/// always means "worse".
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = (new - base) / base;
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// Whether moving from `base` to `new` stays within `bound`, the share by
/// which the metric may get worse before it counts as a regression.
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    // Reference values from CPython 3: statistics.quantiles(xs, n=4).
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn quartile_median_agrees_with_median() {
        for n in 2..12 {
            let xs: Vec<f64> = (0..n).map(|i| f64::from(i * i % 7) + 0.5).collect();
            assert_eq!(quartiles(&xs).1, median(&xs), "n={n}");
        }
    }

    #[test]
    fn bound_rule_is_directional_and_inclusive() {
        // 10 % slower on a lower-is-better metric sits exactly on a 10 % bound.
        assert!(within_bound(1.0, 1.1, Better::Lower, 0.10 + 1e-12));
        assert!(!within_bound(1.0, 1.11, Better::Lower, 0.10));
        assert!(within_bound(1.0, 0.5, Better::Lower, 0.0), "faster is fine");
        assert!(!within_bound(100.0, 85.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 95.0, Better::Higher, 0.10));
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("up"), None);
    }
}
