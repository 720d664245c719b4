//! Order statistics and the regression verdict.

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`. A single sample is its
/// own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    if s.len() < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let len = s.len() as i64;
    let at = |i: i64| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // Outside 0..=4 when the clamp moved `j`: Python extrapolates too.
        let delta = (i * (len + 1) - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Distance between the quartiles as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// How a change compares with its base on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Over at least [`MIN_PAIRS_FOR_GAIN`] pairs, the change wins at least
    /// nine tenths, and the medians differ by more than the base's own
    /// quartile spread.
    Better,
    /// The change's median is worse by more than the bound.
    Worse,
    /// No worse than the bound allows.
    WithinBound,
    /// The base's own spread is wider than the bound, so a regression of
    /// the bound's size could not be seen.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs of runs, at least, that a claimed gain must rest on.
pub const MIN_PAIRS_FOR_GAIN: usize = 10;

/// Judges `new` against `base` samples of one metric. `bound` is the share
/// of the base median by which the metric may worsen. Samples are paired
/// in order (the i-th rep of each side); ties count for neither side.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let improves = |from: f64, to: f64| {
        if higher_is_better {
            to > from
        } else {
            to < from
        }
    };
    let (mb, mn) = (median(base), median(new));
    let (q1, q3) = quartiles(base);
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(&b, &n)| improves(b, n))
        .count();
    if pairs >= MIN_PAIRS_FOR_GAIN
        && wins * 10 >= pairs * 9
        && improves(mb, mn)
        && (mn - mb).abs() > q3 - q1
    {
        return Verdict::Better;
    }
    let every_new_better = new.iter().all(|&n| base.iter().all(|&b| improves(b, n)));
    if relative_spread(base) > bound && !every_new_better {
        return Verdict::Unresolved;
    }
    let worsening = if higher_is_better { mb - mn } else { mn - mb };
    if worsening > bound * mb.abs() {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn relative_spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn verdicts_on_hand_made_samples() {
        let base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];
        // Identical samples: no change.
        assert_eq!(verdict(&base, &base, 0.05, false), Verdict::WithinBound);
        // 10% faster on every pair: better (lower is better).
        let faster: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&base, &faster, 0.05, false), Verdict::Better);
        // The same numbers read as a throughput are a 10% loss: worse.
        assert_eq!(verdict(&base, &faster, 0.05, true), Verdict::Worse);
        // 3% slower stays inside a 5% bound.
        let slower: Vec<f64> = base.iter().map(|v| v * 1.03).collect();
        assert_eq!(verdict(&base, &slower, 0.05, false), Verdict::WithinBound);
        // 10% slower breaks it.
        let slower: Vec<f64> = base.iter().map(|v| v * 1.10).collect();
        assert_eq!(verdict(&base, &slower, 0.05, false), Verdict::Worse);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let base = [1.0, 1.0, 1.0];
        let faster = [0.5, 0.5, 0.5];
        assert_eq!(verdict(&base, &faster, 0.05, false), Verdict::WithinBound);
        assert_eq!(verdict(&[1.0], &[2.0], 0.05, false), Verdict::Worse);
    }

    #[test]
    fn wide_base_spread_is_unresolved_unless_every_new_sample_wins() {
        let noisy = [0.8, 1.2, 0.9, 1.1, 1.0, 0.7, 1.3, 1.0, 0.9, 1.1];
        let new = [1.0; 10];
        assert_eq!(verdict(&noisy, &new, 0.05, false), Verdict::Unresolved);
        let clearly_faster = [0.5; 10];
        assert_eq!(
            verdict(&noisy, &clearly_faster, 0.05, false),
            Verdict::Better
        );
    }
}
