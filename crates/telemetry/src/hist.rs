//! Log-bucketed (HDR-style) histogram with a configurable relative
//! error bound.
//!
//! Buckets grow geometrically with base `b = (1+γ)/(1−γ)`: a sample
//! `v > 0` lands in bucket `i = ⌈ln v / ln b⌉`, which covers
//! `(b^{i−1}, b^i]`, and is later reported as the bucket midpoint (in
//! the relative sense) `x̂ = 2·b^i/(b+1)`. For any `v` in the bucket,
//! `|x̂ − v|/v ≤ γ` — the same guarantee DDSketch-family sketches give.
//!
//! The bucket store is a **dense** count vector spanning the observed
//! index range (`offset` names the bucket of `counts[0]`): the observe
//! hot path is one `ln`, one `ceil`, and one indexed add — no tree walk
//! or hashing — which is what keeps an armed registry cheap next to a
//! bare run. The
//! span only grows toward actually-observed magnitudes; at γ = 0.01
//! even nine decades of dynamic range cost ~2 000 u64 slots (16 kB),
//! and typical per-run latency streams stay well under that.

/// A mergeable log-bucketed histogram with relative error ≤ `gamma`.
///
/// Non-positive (and NaN) samples fall into a dedicated zero bucket and
/// are reported as exactly `0.0` by [`LogHistogram::quantile`]. The
/// running `sum` only accumulates positive samples, so `sum/count` is a
/// mean over the meaningful observations.
///
/// Equality compares the *distribution* (γ, the zero bucket, and the
/// non-empty log buckets), not the dense store's incidental span — a
/// merged histogram equals the one that observed the combined stream.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    gamma: f64,
    inv_ln_base: f64,
    zero: u64,
    /// Bucket index of `counts[0]`; meaningless while `counts` is empty.
    offset: i32,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.gamma == other.gamma
            && self.zero == other.zero
            && self.count == other.count
            && self.sum == other.sum
            && self.nonzero().eq(other.nonzero())
    }
}

impl LogHistogram {
    /// A histogram guaranteeing quantile estimates within relative
    /// error `gamma` (`0 < gamma < 1`).
    ///
    /// # Panics
    /// If `gamma` is outside `(0, 1)`.
    pub fn new(gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "LogHistogram gamma must be in (0, 1), got {gamma}"
        );
        let base = (1.0 + gamma) / (1.0 - gamma);
        Self {
            gamma,
            inv_ln_base: 1.0 / base.ln(),
            zero: 0,
            offset: 0,
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
        }
    }

    /// The configured relative error bound γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The geometric bucket base `(1+γ)/(1−γ)`.
    pub fn base(&self) -> f64 {
        (1.0 + self.gamma) / (1.0 - self.gamma)
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if v > 0.0 {
            self.sum += v;
            // +∞ would saturate the index to `i32::MAX` and make the dense
            // store span ~2³¹ buckets; the largest finite sample's bucket
            // (~35 500 at γ = 0.01) takes it instead.
            let i = (v.min(f64::MAX).ln() * self.inv_ln_base).ceil() as i32;
            let idx = i.wrapping_sub(self.offset);
            if idx >= 0 && (idx as usize) < self.counts.len() {
                self.counts[idx as usize] += 1;
            } else {
                self.grow_to(i);
            }
        } else {
            self.zero += 1;
        }
    }

    /// Cold path of [`LogHistogram::observe`]: widen the dense store to
    /// cover bucket `i` and count one sample there.
    #[cold]
    fn grow_to(&mut self, i: i32) {
        if self.counts.is_empty() {
            self.offset = i;
            self.counts.push(1);
            return;
        }
        if i < self.offset {
            let grow = (self.offset - i) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.offset = i;
            self.counts[0] += 1;
        } else {
            let idx = (i - self.offset) as usize;
            self.counts.resize(idx + 1, 0);
            self.counts[idx] += 1;
        }
    }

    /// The non-empty log buckets, `(bucket_index, count)`, ascending.
    fn nonzero(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(move |(k, &c)| (self.offset + k as i32, c))
    }

    /// Total samples recorded (including the zero bucket).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the positive samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The reported value for bucket `i`: `2·b^i/(b+1)`, the point whose
    /// worst-case relative distance to anything in `(b^{i−1}, b^i]` is γ.
    /// In the top bucket, which reaches past `f64::MAX`, it is capped there:
    /// every sample is at most `f64::MAX`, so the cap only moves the
    /// estimate closer.
    fn representative(&self, i: i32) -> f64 {
        let b = self.base();
        (2.0 * b.powi(i) / (b + 1.0)).min(f64::MAX)
    }

    /// Estimate quantile `q` (clamped to `[0, 1]`); `None` while empty.
    ///
    /// The estimate is within relative error γ of the sample at rank
    /// `⌈q·n⌉` (rank 1 at `q = 0`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero {
            return Some(0.0);
        }
        let mut cum = self.zero;
        for (i, c) in self.nonzero() {
            cum += c;
            if cum >= rank {
                return Some(self.representative(i));
            }
        }
        // Unreachable unless counts drifted; fall back to the top bucket.
        self.nonzero().last().map(|(i, _)| self.representative(i))
    }

    /// Fold `other` into `self` bucket-wise. Merging is associative and
    /// commutative over the stored counts (the bucket store is keyed,
    /// not ordered by insertion).
    ///
    /// # Panics
    /// If the two histograms were built with different γ (their buckets
    /// are not alignable).
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.gamma == other.gamma,
            "cannot merge LogHistograms with different gamma ({} vs {})",
            self.gamma,
            other.gamma
        );
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        for (i, c) in other.nonzero() {
            let idx = i.wrapping_sub(self.offset);
            if idx >= 0 && (idx as usize) < self.counts.len() {
                self.counts[idx as usize] += c;
            } else {
                self.grow_to(i);
                // grow_to counted one sample in bucket i; add the rest.
                self.counts[(i - self.offset) as usize] += c - 1;
            }
        }
    }

    /// Cumulative buckets for Prometheus exposition: `(upper_bound,
    /// cumulative_count)` in ascending bound order, starting with the
    /// zero bucket (`le="0"`) and *excluding* the implicit `+Inf`
    /// bucket (whose cumulative count is [`LogHistogram::count`]).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len() + 1);
        let mut cum = self.zero;
        out.push((0.0, cum));
        for (i, c) in self.nonzero() {
            cum += c;
            // Capped like the representative: no sample exceeds f64::MAX.
            out.push((self.base().powi(i).min(f64::MAX), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_quantiles() {
        let h = LogHistogram::new(0.01);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_within_gamma() {
        let mut h = LogHistogram::new(0.01);
        h.observe(123.456);
        let est = h.quantile(0.5).unwrap();
        assert!((est - 123.456).abs() / 123.456 <= 0.01 * (1.0 + 1e-9));
    }

    #[test]
    fn zero_and_negative_samples_report_zero() {
        let mut h = LogHistogram::new(0.05);
        for v in [0.0, -0.0, -3.0, f64::NEG_INFINITY, f64::NAN] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.zero, 5);
        assert_eq!(h.quantile(0.99), Some(0.0));
        assert!(h.counts.is_empty());
    }

    /// An infinite sample lands in the top finite bucket: the store stays
    /// small and the tail reads back finite.
    #[test]
    fn infinite_sample_takes_the_top_finite_bucket() {
        let mut h = LogHistogram::new(0.01);
        h.observe(1.0);
        h.observe(f64::INFINITY);
        assert!(h.counts.len() < 40_000, "store spans {}", h.counts.len());
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99.is_finite() && p99 >= f64::MAX / 1.03, "p99 {p99}");
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last(), Some(&(f64::MAX, 2)));
        assert!((h.quantile(0.5).unwrap() - 1.0).abs() <= 0.01 * (1.0 + 1e-9));
        // The finite maximum shares that bucket.
        let mut top = LogHistogram::new(0.01);
        top.observe(f64::MAX);
        assert_eq!(top.quantile(0.5), Some(p99));
    }

    /// Samples on and next to bucket edges `b^i` stay within γ, whichever
    /// side of the edge the rounded `ln` puts them.
    #[test]
    fn bucket_edges_stay_within_gamma() {
        for gamma in [0.001_f64, 0.01, 0.05] {
            let b = (1.0 + gamma) / (1.0 - gamma);
            for i in -60..60 {
                let edge = b.powi(i);
                for v in [edge, edge * (1.0 + 1e-15), edge * (1.0 - 1e-15)] {
                    let mut h = LogHistogram::new(gamma);
                    h.observe(v);
                    let est = h.quantile(0.5).unwrap();
                    assert!(
                        (est - v).abs() / v <= gamma * (1.0 + 1e-9),
                        "γ {gamma} edge {i}: {v} read back as {est}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LogHistogram::new(0.01);
        for i in 1..=1000u32 {
            h.observe(f64::from(i));
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!((p50 - 500.0).abs() / 500.0 <= 0.02);
        assert!((p99 - 990.0).abs() / 990.0 <= 0.02);
    }

    #[test]
    fn merge_equals_combined_observation() {
        let mut a = LogHistogram::new(0.02);
        let mut b = LogHistogram::new(0.02);
        let mut both = LogHistogram::new(0.02);
        for i in 1..=50u32 {
            a.observe(f64::from(i));
            both.observe(f64::from(i));
        }
        for i in 51..=120u32 {
            b.observe(f64::from(i));
            both.observe(f64::from(i));
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    #[should_panic(expected = "different gamma")]
    fn merge_rejects_gamma_mismatch() {
        let mut a = LogHistogram::new(0.01);
        let b = LogHistogram::new(0.02);
        a.merge(&b);
    }

    #[test]
    fn cumulative_buckets_end_at_count() {
        let mut h = LogHistogram::new(0.1);
        for v in [0.0, 0.5, 1.0, 10.0, 10.0, 250.0] {
            h.observe(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0].0, 0.0);
        let mut prev = 0u64;
        let mut prev_bound = -1.0;
        for &(bound, cum) in &buckets {
            assert!(bound > prev_bound);
            assert!(cum >= prev);
            prev = cum;
            prev_bound = bound;
        }
        assert_eq!(prev, h.count());
    }
}
