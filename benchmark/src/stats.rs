//! Order statistics: medians, quartiles and the tail-percentile rule.
//!
//! A timing is reported as a median and as the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, so the tail figure
//! is never a single outlier.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as an exact fraction (`999/1000` is p99.9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Percentile {
    pub num: usize,
    pub den: usize,
}

impl Percentile {
    pub const P999: Percentile = Percentile {
        num: 999,
        den: 1000,
    };
    pub const P99: Percentile = Percentile { num: 99, den: 100 };
    pub const P95: Percentile = Percentile { num: 95, den: 100 };
    pub const P90: Percentile = Percentile { num: 9, den: 10 };
    pub const P50: Percentile = Percentile { num: 1, den: 2 };

    /// Highest first; [`Percentile::highest_for`] walks this ladder.
    const LADDER: [Percentile; 5] = [
        Percentile::P999,
        Percentile::P99,
        Percentile::P95,
        Percentile::P90,
        Percentile::P50,
    ];

    /// Nearest-rank index of this percentile among `n` sorted samples.
    pub fn index(self, n: usize) -> usize {
        debug_assert!(n > 0);
        (n * self.num).div_ceil(self.den).clamp(1, n) - 1
    }

    /// Samples strictly beyond this percentile's rank among `n`.
    pub fn beyond(self, n: usize) -> usize {
        n - 1 - self.index(n)
    }

    /// The highest percentile of the ladder with at least [`MIN_BEYOND`]
    /// samples beyond it; the median when `n` is too small for any tail.
    pub fn highest_for(n: usize) -> Percentile {
        Percentile::LADDER
            .into_iter()
            .find(|p| n > 0 && p.beyond(n) >= MIN_BEYOND)
            .unwrap_or(Percentile::P50)
    }

    /// `self`, lowered until the rule holds for `n` samples.
    pub fn capped_for(self, n: usize) -> Percentile {
        let allowed = Percentile::highest_for(n);
        if self.num * allowed.den > allowed.num * self.den {
            allowed
        } else {
            self
        }
    }

    pub fn label(self) -> String {
        format!("p{}", self.num as f64 * 100.0 / self.den as f64)
    }
}

/// Value at `p` of `sorted` (ascending, non-empty), nearest rank.
pub fn percentile_of(sorted: &[u64], p: Percentile) -> u64 {
    sorted[p.index(sorted.len())]
}

/// Median of `values`; the mean of the two middle values for an even
/// count. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of integer samples as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses for
/// its spread. With fewer than two values both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (f64::NAN, f64::NAN),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1 000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(Percentile::P99.beyond(1_000), 10);
        assert_eq!(Percentile::P999.beyond(1_000), 1);
        assert_eq!(Percentile::highest_for(1_000), Percentile::P99);
        // One fewer sample and p99 no longer qualifies.
        assert_eq!(Percentile::P99.beyond(999), 9);
        assert_eq!(Percentile::highest_for(999), Percentile::P95);
        assert_eq!(Percentile::highest_for(10_000), Percentile::P999);
        assert_eq!(Percentile::highest_for(200), Percentile::P95);
        assert_eq!(Percentile::highest_for(199), Percentile::P90);
        assert_eq!(Percentile::highest_for(100), Percentile::P90);
        assert_eq!(Percentile::highest_for(99), Percentile::P50);
        assert_eq!(Percentile::highest_for(5), Percentile::P50);
        assert_eq!(Percentile::highest_for(0), Percentile::P50);
    }

    #[test]
    fn capped_percentile_never_rises() {
        assert_eq!(Percentile::P999.capped_for(1_000), Percentile::P99);
        assert_eq!(Percentile::P95.capped_for(10_000), Percentile::P95);
        assert_eq!(Percentile::P99.capped_for(50), Percentile::P50);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of(&v, Percentile::P50), 50);
        assert_eq!(percentile_of(&v, Percentile::P99), 99);
        assert_eq!(percentile_of(&v, Percentile::P90), 90);
        assert_eq!(percentile_of(&[7], Percentile::P999), 7);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
    }
}
