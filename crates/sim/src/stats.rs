//! Per-core and system-wide statistics. Windowed per-core measurement
//! diffs two [`CoreSignals`](crate::mc::CoreSignals) records instead.

use crate::core::CoreCounters;
use crate::histogram::{InterArrivalHistogram, LatencyHistogram};
use crate::types::Cycle;

/// Cumulative statistics for one core and its private memory path: the
/// one per-core results record, and the per-core element of
/// [`SystemStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreStats {
    /// Core pipeline counters.
    pub counters: CoreCounters,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses (shaper-visible requests).
    pub l1_misses: u64,
    /// LLC hits observed for this core's demands.
    pub llc_hits: u64,
    /// LLC misses observed for this core's demands (true memory requests).
    pub llc_misses: u64,
    /// Writebacks sent from this core's L1.
    pub writebacks: u64,
    /// Cycles the head of the miss queue was denied by the shaper, a
    /// source throttle or an injected fault. The issue stage counts
    /// them; shapers keep no stall count.
    pub shaper_stall_cycles: u64,
    /// Requests the shaper granted (each one sent to the LLC).
    pub shaper_grants: u64,
    /// L1 fills delivered to this core.
    pub fills: u64,
    /// Granted requests whose L1 fill has not arrived yet.
    pub inflight: u32,
    /// Inter-arrival histogram of L1 misses (as the shaper sees them).
    pub l1_miss_interarrival: InterArrivalHistogram,
    /// Inter-arrival histogram of LLC misses (true memory requests;
    /// Fig. 2's distribution).
    pub mem_interarrival: InterArrivalHistogram,
    /// Distribution of L1-miss-to-fill latencies (log buckets), with their
    /// exact sum and count.
    pub mem_latency: LatencyHistogram,
}

impl CoreStats {
    /// Creates zeroed statistics with histograms of `bins` bins of
    /// `bin_width` cycles.
    pub fn new(bins: usize, bin_width: Cycle) -> Self {
        CoreStats {
            counters: CoreCounters::default(),
            l1_hits: 0,
            l1_misses: 0,
            llc_hits: 0,
            llc_misses: 0,
            writebacks: 0,
            shaper_stall_cycles: 0,
            shaper_grants: 0,
            fills: 0,
            inflight: 0,
            l1_miss_interarrival: InterArrivalHistogram::new(bins, bin_width),
            mem_interarrival: InterArrivalHistogram::new(bins, bin_width),
            mem_latency: LatencyHistogram::new(),
        }
    }

    /// Encodes the counters and histograms this block owns. `counters`
    /// is not encoded: the core owns those counts (and its own codec),
    /// and [`System::core_stats`](crate::system::System::core_stats)
    /// fills them in on read.
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64(self.l1_hits);
        enc.u64(self.l1_misses);
        enc.u64(self.llc_hits);
        enc.u64(self.llc_misses);
        enc.u64(self.writebacks);
        enc.u64(self.shaper_stall_cycles);
        enc.u64(self.shaper_grants);
        enc.u64(self.fills);
        enc.u32(self.inflight);
        self.l1_miss_interarrival.save_state(enc);
        self.mem_interarrival.save_state(enc);
        self.mem_latency.save_state(enc);
    }

    /// Restores state written by [`CoreStats::save_state`].
    ///
    /// # Errors
    ///
    /// Mismatch when histogram geometry differs, or a decode error on
    /// corrupt bytes.
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.l1_hits = dec.u64()?;
        self.l1_misses = dec.u64()?;
        self.llc_hits = dec.u64()?;
        self.llc_misses = dec.u64()?;
        self.writebacks = dec.u64()?;
        self.shaper_stall_cycles = dec.u64()?;
        self.shaper_grants = dec.u64()?;
        self.fills = dec.u64()?;
        self.inflight = dec.u32()?;
        self.l1_miss_interarrival.load_state(dec)?;
        self.mem_interarrival.load_state(dec)?;
        self.mem_latency.load_state(dec)?;
        Ok(())
    }
}

/// Exactly-comparable digest of one memory channel at the end of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSystemStats {
    /// Transactions dispatched to DRAM.
    pub dispatched: u64,
    /// (reads, writes) completed.
    pub completed: (u64, u64),
    /// Enqueue attempts rejected by a full smoothing FIFO.
    pub fifo_rejections: u64,
    /// (row hits, row misses, row conflicts).
    pub row_stats: (u64, u64, u64),
    /// Bytes moved over the data bus.
    pub bytes: u64,
    /// All-bank refreshes applied.
    pub refreshes: u64,
    /// Data-bus busy cycles.
    pub busy_bus_cycles: u64,
    /// Cycles the controller was ticked, executed or skipped: the system
    /// clock, since a system ticks every controller on every cycle. The
    /// denominator of the mean queue occupancy.
    pub ticks: u64,
    /// Accumulated queue-occupancy samples.
    pub queue_occupancy_sum: u64,
}

/// Whole-system results: every core's [`CoreStats`] and every channel's
/// counters. Implements `Eq` so tests can `assert_eq!` entire runs (the
/// naive versus skip engines, a resumed snapshot versus the
/// uninterrupted run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// Final simulated cycle.
    pub cycles: u64,
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// Per-channel digests.
    pub channels: Vec<ChannelSystemStats>,
    /// Audit passes completed.
    pub audit_passes: u64,
    /// Invariant violations recorded by the auditor.
    pub audit_violations: usize,
}

/// Average slowdown `S_avg` (§IV-D): the paper's throughput metric,
/// lower is better.
///
/// # Panics
///
/// Panics if `slowdowns` is empty.
pub fn s_avg(slowdowns: &[f64]) -> f64 {
    assert!(!slowdowns.is_empty(), "need slowdowns");
    slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
}

/// Maximum slowdown `S_max` (§IV-D): the paper's fairness metric, lower
/// is better.
///
/// # Panics
///
/// Panics if `slowdowns` is empty.
pub fn s_max(slowdowns: &[f64]) -> f64 {
    assert!(!slowdowns.is_empty(), "need slowdowns");
    slowdowns.iter().cloned().fold(f64::MIN, f64::max)
}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_metrics() {
        assert!((s_avg(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((s_max(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_max_picks_worst() {
        let sd = [1.0, 4.0, 2.0];
        assert!((s_max(&sd) - 4.0).abs() < 1e-12);
        assert!((s_avg(&sd) - (1.0 + 4.0 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "need slowdowns")]
    fn slowdown_of_no_cores_panics() {
        let _ = s_avg(&[]);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
