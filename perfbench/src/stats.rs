//! Order statistics over latency samples.
//!
//! Tail percentiles use the nearest-rank definition: the `p` percentile
//! of `n` sorted samples is the sample at rank `ceil(p * n)` (1-based).
//! Levels are given in parts per thousand so the rank is integer
//! arithmetic, never a rounded float. Medians are kernel-smoothed (see
//! [`median`]).

/// Percentile levels a tail may be reported at, in parts per thousand.
pub const TAIL_LEVELS: [u32; 4] = [500, 900, 990, 999];

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n > 0`
/// samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of `samples` (any order); `None` when empty.
pub fn percentile(samples: &[f64], per_mille: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), per_mille) - 1])
}

/// Kernel-smoothed median (Sheather and Marron's kernel quantile
/// estimator at p = 0.5): a Gaussian-weighted mean of the order
/// statistics around the middle rank, with a bandwidth of `n^(2/3) / 2`
/// ranks (the `n^(-1/3)` order of their MSE-optimal bandwidth, in
/// probability units). Op times are often bimodal (a struggler worker
/// that sometimes shares its core, an even mix of op types of different
/// cost); where the two modes meet at the middle, every value between
/// them is a median and the nearest-rank one jumps across the gap when
/// one sample more falls on either side, while this one moves by a share
/// of the gap proportional to the shift. `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = (sorted.len() - 1) as f64 / 2.0;
    let bandwidth = (sorted.len() as f64).powf(2.0 / 3.0) / 2.0;
    let (mut sum, mut weights) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let w = (-0.5 * ((i as f64 - mid) / bandwidth).powi(2)).exp();
        sum += w * x;
        weights += w;
    }
    Some(sum / weights)
}

/// Arithmetic mean; `None` when empty. Means are used for per-layer
/// times because they add up: the mean op wall equals the sum of the
/// mean layer times plus the mean unattributed remainder.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples.
pub fn samples_beyond(n: usize, per_mille: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, per_mille)
    }
}

/// The highest level of [`TAIL_LEVELS`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_level(n: usize) -> Option<u32> {
    TAIL_LEVELS
        .iter()
        .rev()
        .copied()
        .find(|&pm| samples_beyond(n, pm) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 500), Some(5.0));
        assert_eq!(percentile(&s, 900), Some(9.0));
        assert_eq!(percentile(&s, 990), Some(10.0));
        assert_eq!(percentile(&s, 1), Some(1.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn smoothed_median_of_symmetric_samples_is_the_centre() {
        let s: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert!((median(&s).unwrap() - 5.0).abs() < 1e-12);
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((median(&s).unwrap() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn smoothed_median_does_not_jump_across_a_gap() {
        // Two op types of 100 and 200 ms, evenly mixed: one sample more
        // of either type flips the nearest-rank median across the gap.
        let mix = |low: usize, high: usize| {
            let mut s = vec![100.0; low];
            s.extend(vec![200.0; high]);
            s
        };
        assert_eq!(percentile(&mix(100, 101), 500), Some(200.0));
        assert_eq!(percentile(&mix(101, 100), 500), Some(100.0));
        let (a, b) = (
            median(&mix(100, 101)).unwrap(),
            median(&mix(101, 100)).unwrap(),
        );
        assert!((a - b).abs() < 10.0, "{a} vs {b}");
        assert!((145.0..155.0).contains(&a), "{a}");
    }

    #[test]
    fn rank_is_exact_where_float_products_are_not() {
        // 0.9 * 130 is 117.00000000000001 in f64; the integer rank must
        // still be 117, leaving 13 samples beyond p90.
        assert_eq!(rank(130, 900), 117);
        assert_eq!(samples_beyond(130, 900), 13);
        assert_eq!(samples_beyond(0, 500), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(500));
        assert_eq!(tail_level(99), Some(500));
        assert_eq!(tail_level(100), Some(900));
        assert_eq!(tail_level(999), Some(900));
        assert_eq!(tail_level(1000), Some(990));
        assert_eq!(tail_level(10_000), Some(999));
    }
}
