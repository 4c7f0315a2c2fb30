//! Order statistics and interval arithmetic shared by the workloads and
//! the layer attribution.

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
/// Returns 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A timing distribution as the report gives it: the median plus the
/// highest percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// Label of the tail percentile (`"p99"`, `"p90"`, ...), or `"max"`
    /// when the sample is too small for any percentile to qualify.
    pub tail_label: &'static str,
    pub tail: f64,
}

const TAILS: &[(f64, &str)] = &[
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.9, "p90"),
    (0.75, "p75"),
    (0.5, "p50"),
];

pub fn summarize(xs: &[f64]) -> Summary {
    let n = xs.len();
    let (tail_label, tail) = TAILS
        .iter()
        // The epsilon keeps 100 * (1 - 0.9) from falling just short of 10.
        .find(|(q, _)| (n as f64) * (1.0 - q) + 1e-9 >= 10.0)
        .map(|&(q, label)| (label, quantile(xs, q)))
        .unwrap_or(("max", xs.iter().copied().fold(0.0, f64::max)));
    Summary {
        n,
        p50: median(xs),
        p90: quantile(xs, 0.9),
        tail_label,
        tail,
    }
}

/// Sorts and merges half-open `[start, end)` intervals into disjoint ones.
pub fn merge(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|&(a, b)| b > a);
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match merged.last_mut() {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// Total length of a merged interval set.
pub fn length(merged: &[(u64, u64)]) -> u64 {
    merged.iter().map(|&(a, b)| b - a).sum()
}

/// Length of the intersection of two merged interval sets.
pub fn overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail_label, "p90");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail_label, "p99");
        assert_eq!(summarize(&[1.0, 2.0]).tail_label, "max");
    }

    #[test]
    fn interval_union_and_overlap() {
        let a = merge(vec![(5, 10), (0, 3), (2, 4), (10, 12)]);
        assert_eq!(a, vec![(0, 4), (5, 12)]);
        assert_eq!(length(&a), 11);
        let b = merge(vec![(3, 6), (11, 20)]);
        assert_eq!(overlap(&a, &b), 1 + 1 + 1);
    }
}
