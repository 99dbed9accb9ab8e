//! Small numeric helpers used throughout the evaluation pipeline.
//!
//! The paper defines the λ-delay statistics in Eq. 11–12:
//!
//! * `λ_avg = λ_total / N` where `N` is the number of times a delay occurred,
//! * `λ_stddev = sqrt(1/N · Σ (λ_i − λ_avg)²)` — a *population* standard
//!   deviation over the observed delays.
//!
//! The serial-scheduling (SS) policy also ranks kernels by the standard
//! deviation of their execution times across available processors, so the
//! same helpers are reused there.

use crate::time::SimDuration;

/// Arithmetic mean of a slice of `f64` values. Returns 0.0 for an empty slice
/// (the paper's λ statistics treat "no delays" as zero).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation (divides by `N`, matching Eq. 12).
/// Returns 0.0 for an empty slice.
pub fn stddev_population(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Mean of a set of durations, in exact integer nanoseconds (truncating).
pub fn mean_duration(values: &[SimDuration]) -> SimDuration {
    if values.is_empty() {
        return SimDuration::ZERO;
    }
    // Sum in u128 to avoid overflow on pathological inputs.
    let total: u128 = values.iter().map(|d| d.as_ns() as u128).sum();
    SimDuration::from_ns((total / values.len() as u128) as u64)
}

/// Population standard deviation of a set of durations, reported as a
/// fractional-millisecond `f64` (the paper reports λ_stddev in table form
/// only, so lossy output is acceptable here).
pub fn stddev_duration_ms(values: &[SimDuration]) -> f64 {
    let ms: Vec<f64> = values.iter().map(|d| d.as_ms_f64()).collect();
    stddev_population(&ms)
}

/// Index of the minimum value by a key function, with ties broken toward the
/// *earliest* index. Deterministic replacement for float `min_by` chains: the
/// simulator must be reproducible, so every argmin in the workspace routes
/// through this helper.
pub fn argmin_by_key<T, K: Ord>(items: &[T], mut key: impl FnMut(&T) -> K) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (i, item) in items.iter().enumerate() {
        let k = key(item);
        match &best {
            Some((_, bk)) if *bk <= k => {}
            _ => best = Some((i, k)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the maximum value by a key function, ties toward earliest index.
pub fn argmax_by_key<T, K: Ord>(items: &[T], mut key: impl FnMut(&T) -> K) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (i, item) in items.iter().enumerate() {
        let k = key(item);
        match &best {
            Some((_, bk)) if *bk >= k => {}
            _ => best = Some((i, k)),
        }
    }
    best.map(|(i, _)| i)
}

/// Total-order wrapper for `f64` keys that are known to be finite.
/// Panics (debug) on NaN — finite-ness is an invariant of every cost we rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiniteF64(pub f64);

impl Eq for FiniteF64 {}

impl PartialOrd for FiniteF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FiniteF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        debug_assert!(self.0.is_finite() && other.0.is_finite());
        self.0.partial_cmp(&other.0).expect("finite floats")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev_population(&[]), 0.0);
        assert_eq!(stddev_population(&[5.0, 5.0, 5.0]), 0.0);
        // Population stddev of {2, 4} is 1 (not sqrt(2): Eq. 12 divides by N).
        assert!((stddev_population(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duration_stats() {
        let v = [
            SimDuration::from_ms(2),
            SimDuration::from_ms(4),
            SimDuration::from_ms(6),
        ];
        assert_eq!(mean_duration(&v), SimDuration::from_ms(4));
        assert_eq!(mean_duration(&[]), SimDuration::ZERO);
        let sd = stddev_duration_ms(&v);
        assert!((sd - (8.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn argmin_ties_break_to_earliest() {
        let v = [3u64, 1, 1, 2];
        assert_eq!(argmin_by_key(&v, |&x| x), Some(1));
        assert_eq!(argmax_by_key(&v, |&x| x), Some(0));
        let empty: [u64; 0] = [];
        assert_eq!(argmin_by_key(&empty, |&x| x), None);
    }

    /// The duration mean sums in `u128`: durations near `u64::MAX` ns
    /// average without overflowing.
    #[test]
    fn mean_duration_does_not_overflow() {
        let big = SimDuration::from_ns(u64::MAX - 1);
        let v = [big, big, SimDuration::from_ns(u64::MAX - 4)];
        assert_eq!(mean_duration(&v), SimDuration::from_ns(u64::MAX - 2));
        // Truncating integer division, as documented.
        let v = [SimDuration::from_ns(1), SimDuration::from_ns(2)];
        assert_eq!(mean_duration(&v), SimDuration::from_ns(1));
    }

    #[test]
    fn argmax_ties_break_to_earliest() {
        let v = [2u64, 5, 1, 5];
        assert_eq!(argmax_by_key(&v, |&x| x), Some(1));
        assert_eq!(argmin_by_key(&v, |&x| x), Some(2));
        let empty: [u64; 0] = [];
        assert_eq!(argmax_by_key(&empty, |&x| x), None);
        // A key function can invert the order.
        assert_eq!(argmax_by_key(&v, |&x| std::cmp::Reverse(x)), Some(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn finite_f64_asserts_on_nan() {
        let _ = FiniteF64(f64::NAN).cmp(&FiniteF64(1.0));
    }

    #[test]
    fn finite_f64_orders() {
        let mut v = vec![FiniteF64(3.0), FiniteF64(1.5), FiniteF64(2.0)];
        v.sort();
        assert_eq!(v, vec![FiniteF64(1.5), FiniteF64(2.0), FiniteF64(3.0)]);
    }
}
