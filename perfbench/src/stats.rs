//! Order statistics over timing samples.

/// Percentiles tried for a tail, in per-mille, highest first.
const TAIL_LADDER: [usize; 9] = [999, 995, 990, 980, 950, 900, 800, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `permille`-th per-mille in `n` sorted
/// samples (integer arithmetic, so 99.9 % of 10 000 is exactly rank 9990).
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Nearest-rank percentile (in per-mille) of sorted samples.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    sorted[rank(permille, sorted.len())]
}

/// The highest ladder percentile (in per-mille) with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank:
/// `(per-mille, samples beyond)`. `None` when even the median has fewer
/// than that beyond it.
pub fn tail_percentile(n: usize) -> Option<(usize, usize)> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .map(|&p| (p, n - 1 - rank(p, n)))
        .find(|&(_, beyond)| beyond >= TAIL_MIN_BEYOND)
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Element-wise minimum of sample series, cut to the shortest: with one
/// series per pass, each batch's best time over the passes that
/// replayed it.
pub fn elementwise_min(series: &[&[f64]]) -> Vec<f64> {
    let n = series.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..n).map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// Percentile (per-mille) of sorted whole-number samples, interpolated
/// within the value's unit bin: a sample `v` stands for the interval
/// `(v - 1, v]`, so the result moves smoothly as the share of flows at
/// each count shifts instead of jumping between whole numbers. 0 when
/// empty.
pub fn percentile_binned(sorted: &[u64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let v = sorted[rank(permille, sorted.len())];
    let below = sorted.partition_point(|&x| x < v);
    let upto = sorted.partition_point(|&x| x <= v);
    let target = permille as f64 * sorted.len() as f64 / 1000.0;
    let frac = ((target - below as f64) / (upto - below) as f64).clamp(0.0, 1.0);
    v as f64 - 1.0 + frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in 20..5000 {
            let (p, beyond) = tail_percentile(n).expect("the median qualifies from 20 samples");
            assert_eq!(beyond, n - 1 - rank(p, n));
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {p}‰ leaves only {beyond} beyond");
            // No higher ladder step would also have qualified.
            for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(n - 1 - rank(q, n) < TAIL_MIN_BEYOND, "n={n}: {q}‰ also qualifies");
            }
        }
    }

    #[test]
    fn tail_choice_at_known_sizes() {
        assert_eq!(tail_percentile(10_000), Some((999, 10)));
        assert_eq!(tail_percentile(1_000), Some((990, 10)));
        assert_eq!(tail_percentile(600), Some((980, 12)));
        assert_eq!(tail_percentile(100), Some((900, 10)));
        assert_eq!(tail_percentile(20), Some((500, 10)));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn elementwise_min_takes_each_position_best() {
        let (a, b, c) = ([3.0, 1.0, 5.0, 9.0], [2.0, 4.0, 6.0], [7.0, 0.5, 5.5]);
        assert_eq!(elementwise_min(&[&a, &b, &c]), vec![2.0, 0.5, 5.0]);
        assert_eq!(elementwise_min(&[&a]), a.to_vec());
        assert!(elementwise_min(&[]).is_empty());
    }

    #[test]
    fn binned_percentile_interpolates_within_the_bin() {
        // 90 flows at 3 packets, 10 at 4: the median sits 5/9 of the way
        // through the "3" bin, p95 half-way through the "4" bin.
        let mut v = vec![3u64; 90];
        v.extend([4u64; 10]);
        assert!((percentile_binned(&v, 500) - (2.0 + 50.0 / 90.0)).abs() < 1e-12);
        assert!((percentile_binned(&v, 950) - 3.5).abs() < 1e-12);
        assert_eq!(percentile_binned(&v, 1000), 4.0);
        assert_eq!(percentile_binned(&[], 500), 0.0);
    }
}
