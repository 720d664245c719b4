//! Fixed-bin histograms for inter-arrival time distributions.
//!
//! The paper's key abstraction (§II-C, Fig. 1/2) is the *memory request
//! inter-arrival time distribution*: how many requests arrive with each
//! inter-arrival time. [`InterArrivalHistogram`] records exactly that, with
//! the same quantisation the MITTS hardware uses (`N` bins of `L` cycles,
//! plus an implicit overflow bin for very large gaps).

use crate::types::Cycle;

/// The workspace's one nearest-rank percentile rule: for `count` sorted
/// samples, the `p`-th percentile (`p` in **[0, 100]**) is the sample at
/// index `ceil(p/100 · count) - 1`, clamped into range. Every percentile
/// in the workspace — bucket-approximate ([`LatencyHistogram`]) or exact
/// (`tracetool`) — derives its rank from this function so the two ends
/// can never drift apart again.
///
/// Returns 0 for an empty population.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn nearest_rank_index(count: usize, p: f64) -> usize {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100], got {p}");
    if count == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * count as f64).ceil() as usize;
    rank.saturating_sub(1).min(count - 1)
}

/// Histogram of request inter-arrival times quantised into `N` bins of
/// width `L` cycles, with one extra overflow bin for gaps `>= N * L`.
///
/// Bin `i` counts inter-arrival times `t` with `i*L <= t < (i+1)*L`, which
/// matches the hardware quantisation of Table I (requests with
/// inter-arrival time in `[t_i - L/2, t_i + L/2)` fall into `bin_i` when
/// `t_i = (i + 1/2) * L`).
///
/// # Examples
///
/// ```
/// use mitts_sim::histogram::InterArrivalHistogram;
/// let mut h = InterArrivalHistogram::new(10, 10);
/// h.record_arrival(100);
/// h.record_arrival(105); // gap 5  -> bin 0
/// h.record_arrival(130); // gap 25 -> bin 2
/// assert_eq!(h.count(0), 1);
/// assert_eq!(h.count(2), 1);
/// assert_eq!(h.total(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterArrivalHistogram {
    bin_width: Cycle,
    counts: Vec<u64>,
    overflow: u64,
    last_arrival: Option<Cycle>,
}

impl InterArrivalHistogram {
    /// Creates a histogram with `bins` bins of `bin_width` cycles each.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `bin_width == 0`.
    pub fn new(bins: usize, bin_width: Cycle) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(bin_width > 0, "bin width must be positive");
        InterArrivalHistogram {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            last_arrival: None,
        }
    }

    /// Number of regular (non-overflow) bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bin in cycles.
    pub fn bin_width(&self) -> Cycle {
        self.bin_width
    }

    /// Records that a request arrived at cycle `now`; the gap to the
    /// previous recorded arrival is added to the histogram. The first
    /// arrival only establishes the reference point.
    pub fn record_arrival(&mut self, now: Cycle) {
        if let Some(prev) = self.last_arrival {
            let gap = now.saturating_sub(prev);
            self.record_gap(gap);
        }
        self.last_arrival = Some(now);
    }

    /// Records a pre-computed inter-arrival gap directly.
    pub fn record_gap(&mut self, gap: Cycle) {
        let idx = (gap / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Count of gaps too large for any regular bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded gaps, including overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }

    /// The regular-bin counts as a slice (excludes overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fraction of gaps falling in bin `i` (0 if nothing recorded).
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / total as f64
        }
    }

    /// Mean inter-arrival gap in cycles, using bin centres for regular bins
    /// and `bins * width` for overflow gaps. Returns `None` if empty.
    pub fn mean_gap(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let mut sum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let centre = (i as f64 + 0.5) * self.bin_width as f64;
            sum += centre * c as f64;
        }
        sum += (self.counts.len() as f64 * self.bin_width as f64) * self.overflow as f64;
        Some(sum / total as f64)
    }

    /// Clears all counts and the arrival reference point.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.overflow = 0;
        self.last_arrival = None;
    }

    /// Encodes counts, overflow, and the arrival reference point
    /// (checkpoint support). The geometry (`bins`, `bin_width`) is
    /// configuration, re-validated on load rather than restored.
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64(self.bin_width);
        enc.u64s(&self.counts);
        enc.u64(self.overflow);
        enc.opt_u64(self.last_arrival);
    }

    /// Restores state written by [`InterArrivalHistogram::save_state`],
    /// rejecting a geometry mismatch.
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let bin_width = dec.u64()?;
        let counts = dec.u64s()?;
        if bin_width != self.bin_width || counts.len() != self.counts.len() {
            return Err(SnapshotError::mismatch(format!(
                "inter-arrival histogram geometry {}x{} differs from configured {}x{}",
                counts.len(),
                bin_width,
                self.counts.len(),
                self.bin_width
            )));
        }
        self.counts = counts;
        self.overflow = dec.u64()?;
        self.last_arrival = dec.opt_u64()?;
        Ok(())
    }

    /// Merges another histogram's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different geometry.
    pub fn merge(&mut self, other: &InterArrivalHistogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin width mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
    }
}

/// The 64 log2 bucket counts of a [`LatencyHistogram`]: bucket `k`
/// counts values in `[2^k, 2^(k+1))` (bucket 0 also catches 0). Counts
/// only grow, so two readings of one histogram subtract exactly: the
/// difference is the histogram of the values recorded between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBuckets(pub [u64; 64]);

impl Default for LatencyBuckets {
    fn default() -> Self {
        LatencyBuckets([0; 64])
    }
}

impl LatencyBuckets {
    /// Number of values counted.
    pub fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The values recorded since `earlier`, an older reading of the same
    /// histogram.
    pub fn since(&self, earlier: &LatencyBuckets) -> LatencyBuckets {
        LatencyBuckets(std::array::from_fn(|k| self.0[k] - earlier.0[k]))
    }

    /// Approximate `p`-th percentile with `p` in **[0, 100]** (the
    /// workspace-wide convention; see [`nearest_rank_index`]), resolved
    /// to the geometric centre of the containing log bucket. Returns 0
    /// if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile_pct(&self, p: f64) -> f64 {
        let target = nearest_rank_index(self.count() as usize, p) as u64 + 1;
        let mut seen = 0;
        for (k, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Geometric centre of [2^k, 2^(k+1)).
                return (1u64 << k) as f64 * std::f64::consts::SQRT_2;
            }
        }
        0.0
    }

    /// Encodes the counts (checkpoint support).
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64s(&self.0);
    }

    /// Decodes counts written by [`LatencyBuckets::save_state`].
    pub fn load_state(
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<LatencyBuckets, crate::snapshot::SnapshotError> {
        let counts: [u64; 64] = dec.u64s()?.try_into().map_err(|_| {
            crate::snapshot::SnapshotError::corrupt("latency histogram bucket count differs")
        })?;
        Ok(LatencyBuckets(counts))
    }
}

/// Logarithmic-bucket latency histogram: bucket `k` counts values in
/// `[2^k, 2^(k+1))` (bucket 0 also catches 0). Cheap, fixed-size, and
/// good enough for tail percentiles of memory-request latencies.
///
/// # Examples
///
/// ```
/// use mitts_sim::histogram::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in [10, 100, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile_pct(50.0) >= 64.0 && h.percentile_pct(50.0) < 256.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: LatencyBuckets,
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency value (cycles).
    pub fn record(&mut self, value: Cycle) {
        let bucket = (64 - value.max(1).leading_zeros() - 1) as usize;
        self.buckets.0[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean recorded latency (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Cycle {
        self.max
    }

    /// Exact sum of all recorded values (not bucket-approximated).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The bucket counts: see [`LatencyBuckets::percentile_pct`] for
    /// percentiles.
    pub fn buckets(&self) -> LatencyBuckets {
        self.buckets
    }

    /// Approximate `p`-th percentile: [`LatencyBuckets::percentile_pct`]
    /// of [`LatencyHistogram::buckets`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile_pct(&self, p: f64) -> f64 {
        self.buckets.percentile_pct(p)
    }

    /// Encodes the full bucket array and summary counters (checkpoint
    /// support).
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        self.buckets.save_state(enc);
        enc.u64(self.count);
        enc.u64(self.sum);
        enc.u64(self.max);
    }

    /// Restores state written by [`LatencyHistogram::save_state`].
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.buckets = LatencyBuckets::load_state(dec)?;
        self.count = dec.u64()?;
        self.sum = dec.u64()?;
        self.max = dec.u64()?;
        Ok(())
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.0.iter_mut().zip(&other.buckets.0) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_arrival_sets_reference_only() {
        let mut h = InterArrivalHistogram::new(4, 10);
        h.record_arrival(50);
        assert_eq!(h.total(), 0);
        h.record_arrival(55);
        assert_eq!(h.total(), 1);
        assert_eq!(h.count(0), 1);
    }

    #[test]
    fn gaps_land_in_expected_bins() {
        let mut h = InterArrivalHistogram::new(4, 10);
        for gap in [0, 9, 10, 19, 20, 39] {
            h.record_gap(gap);
        }
        assert_eq!(h.count(0), 2); // 0, 9
        assert_eq!(h.count(1), 2); // 10, 19
        assert_eq!(h.count(2), 1); // 20
        assert_eq!(h.count(3), 1); // 39
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn overflow_catches_large_gaps() {
        let mut h = InterArrivalHistogram::new(4, 10);
        h.record_gap(40);
        h.record_gap(1_000_000);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn fractions_sum_to_at_most_one() {
        let mut h = InterArrivalHistogram::new(3, 10);
        for g in [1, 5, 12, 25, 99] {
            h.record_gap(g);
        }
        let s: f64 = (0..3).map(|i| h.fraction(i)).sum();
        assert!(s <= 1.0 + 1e-12);
        assert!((s + h.overflow() as f64 / h.total() as f64 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_gap_uses_bin_centres() {
        let mut h = InterArrivalHistogram::new(10, 10);
        h.record_gap(3); // bin 0, centre 5
        h.record_gap(17); // bin 1, centre 15
        let mean = h.mean_gap().unwrap();
        assert!((mean - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mean_gap_empty_is_none() {
        let h = InterArrivalHistogram::new(2, 5);
        assert!(h.mean_gap().is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = InterArrivalHistogram::new(2, 5);
        h.record_arrival(1);
        h.record_arrival(3);
        h.reset();
        assert_eq!(h.total(), 0);
        // After reset the next arrival is again just a reference point.
        h.record_arrival(100);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = InterArrivalHistogram::new(2, 5);
        let mut b = InterArrivalHistogram::new(2, 5);
        a.record_gap(1);
        b.record_gap(1);
        b.record_gap(7);
        b.record_gap(100);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = InterArrivalHistogram::new(2, 5);
        let b = InterArrivalHistogram::new(2, 10);
        a.merge(&b);
    }

    #[test]
    fn latency_histogram_buckets_by_log2() {
        let mut h = LatencyHistogram::new();
        h.record(0); // bucket 0
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
        assert!((h.mean() - 206.0).abs() < 1.0);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile_pct(50.0);
        let p99 = h.percentile_pct(99.0);
        assert!(p50 < p99, "p50 {p50} must be below p99 {p99}");
        assert!(p50 > 256.0 && p50 < 1024.0, "p50 {p50} of 1..1000");
        assert!(p99 >= 512.0, "p99 {p99}");
    }

    #[test]
    fn latency_percentile_of_empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_pct(99.0), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn nearest_rank_index_is_the_canonical_rule() {
        // ceil(p/100 * count) - 1, clamped: the classic nearest-rank
        // definition, shared with the trace tooling's exact percentiles.
        assert_eq!(nearest_rank_index(0, 50.0), 0);
        assert_eq!(nearest_rank_index(100, 0.0), 0);
        assert_eq!(nearest_rank_index(100, 50.0), 49);
        assert_eq!(nearest_rank_index(100, 95.0), 94);
        assert_eq!(nearest_rank_index(100, 99.0), 98);
        assert_eq!(nearest_rank_index(100, 100.0), 99);
        assert_eq!(nearest_rank_index(1, 99.0), 0);
        assert_eq!(nearest_rank_index(3, 50.0), 1);
        assert_eq!(nearest_rank_index(4, 50.0), 1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 100]")]
    fn percentile_pct_rejects_fraction_scale_misuse() {
        // Passing 0.99 where 99.0 is meant now fails loudly instead of
        // silently returning ~p1.
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.percentile_pct(101.0);
    }

    #[test]
    fn bucket_deltas_are_the_histogram_recorded_in_between() {
        let mut cumulative = LatencyHistogram::new();
        for v in [3, 90, 700] {
            cumulative.record(v);
        }
        let before = cumulative.buckets();
        let mut between = LatencyHistogram::new();
        for v in [5, 100, 100, 5000] {
            cumulative.record(v);
            between.record(v);
        }
        let delta = cumulative.buckets().since(&before);
        assert_eq!(delta, between.buckets());
        assert_eq!(delta.count(), between.count());
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(delta.percentile_pct(p), between.percentile_pct(p), "p{p}");
        }
        assert_eq!(LatencyBuckets::default().percentile_pct(99.0), 0.0);
    }

    #[test]
    fn latency_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.buckets().count(), 2);
    }
}
