//! Per-core and system-wide statistics. Windowed per-core measurement
//! diffs two [`CoreSignals`](crate::mc::CoreSignals) records instead.

use crate::core::CoreCounters;
use crate::histogram::{InterArrivalHistogram, LatencyHistogram};
use crate::types::Cycle;

/// Cumulative statistics for one core and its private memory path.
#[derive(Debug, Clone)]
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
    /// Sum of L1-miss-to-fill latencies (cycles).
    pub mem_latency_sum: u64,
    /// Number of fills contributing to `mem_latency_sum`.
    pub mem_latency_count: u64,
    /// Inter-arrival histogram of L1 misses (as the shaper sees them).
    pub l1_miss_interarrival: InterArrivalHistogram,
    /// Inter-arrival histogram of LLC misses (true memory requests;
    /// Fig. 2's distribution).
    pub mem_interarrival: InterArrivalHistogram,
    /// Distribution of L1-miss-to-fill latencies (log buckets), for tail
    /// percentiles.
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
            mem_latency_sum: 0,
            mem_latency_count: 0,
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
        enc.u64(self.mem_latency_sum);
        enc.u64(self.mem_latency_count);
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
        self.mem_latency_sum = dec.u64()?;
        self.mem_latency_count = dec.u64()?;
        self.l1_miss_interarrival.load_state(dec)?;
        self.mem_interarrival.load_state(dec)?;
        self.mem_latency.load_state(dec)?;
        Ok(())
    }

    /// Approximate `p`-th percentile of the L1-miss-to-fill latency,
    /// with `p` in **[0, 100]** (the workspace convention).
    pub fn latency_percentile_pct(&self, p: f64) -> f64 {
        self.mem_latency.percentile_pct(p)
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.counters.ipc()
    }

    /// LLC misses per kilo-instruction (memory intensity).
    pub fn mpki(&self) -> f64 {
        if self.counters.instructions == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / self.counters.instructions as f64
        }
    }

    /// Mean L1-miss-to-fill latency in cycles.
    pub fn mean_mem_latency(&self) -> f64 {
        if self.mem_latency_count == 0 {
            0.0
        } else {
            self.mem_latency_sum as f64 / self.mem_latency_count as f64
        }
    }

    /// Fraction of cycles the ROB head was blocked on memory.
    pub fn mem_stall_fraction(&self) -> f64 {
        if self.counters.cycles == 0 {
            0.0
        } else {
            self.counters.mem_stall_cycles as f64 / self.counters.cycles as f64
        }
    }
}

/// An exhaustive, exactly-comparable digest of one core's state at the
/// end of a run. Unlike [`CoreStats`] (which carries histograms and is
/// only `PartialEq`-less), every field here is an integer so two runs can
/// be asserted bit-identical — the equivalence oracle for the naive
/// versus skip engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSystemStats {
    /// Core pipeline counters (cycles, instructions, stalls, ...).
    pub counters: CoreCounters,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// LLC hits for this core's demands.
    pub llc_hits: u64,
    /// LLC misses for this core's demands.
    pub llc_misses: u64,
    /// Writebacks issued from this core's L1.
    pub writebacks: u64,
    /// Cycles the miss-queue head was denied by the shaper, a source
    /// throttle or an injected fault.
    pub shaper_stall_cycles: u64,
    /// Sum of L1-miss-to-fill latencies.
    pub mem_latency_sum: u64,
    /// Fills contributing to `mem_latency_sum`.
    pub mem_latency_count: u64,
    /// Fills delivered to this core.
    pub fills: u64,
    /// Requests in flight past the shaper at the end of the run.
    pub inflight: u32,
    /// Shaper grants recorded in the ledger.
    pub shaper_grants: u64,
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
    /// Controller ticks observed (real plus skipped).
    pub ticks: u64,
    /// Accumulated queue-occupancy samples.
    pub queue_occupancy_sum: u64,
}

/// Whole-system digest used to assert that the two engines (naive
/// cycle-by-cycle versus skip) produced bit-identical
/// results. Implements `Eq` so tests can `assert_eq!` entire runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// Final simulated cycle.
    pub cycles: u64,
    /// Per-core digests.
    pub cores: Vec<CoreSystemStats>,
    /// Per-channel digests.
    pub channels: Vec<ChannelSystemStats>,
    /// Audit passes completed.
    pub audit_passes: u64,
    /// Invariant violations recorded by the auditor.
    pub audit_violations: usize,
}

/// Slowdown metrics for a multiprogram run (§IV-D).
///
/// `S_i = IPC_alone,i / IPC_shared,i`; `S_avg` (lower is better) measures
/// throughput, `S_max` (lower is better) measures fairness.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownReport {
    /// Per-core slowdowns.
    pub per_core: Vec<f64>,
}

impl SlowdownReport {
    /// Computes slowdowns from alone and shared IPCs.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or any shared IPC
    /// is non-positive.
    pub fn from_ipcs(alone: &[f64], shared: &[f64]) -> Self {
        assert_eq!(alone.len(), shared.len(), "need one alone IPC per core");
        assert!(!alone.is_empty(), "need at least one core");
        let per_core = alone
            .iter()
            .zip(shared)
            .map(|(&a, &s)| {
                assert!(s > 0.0, "shared IPC must be positive");
                a / s
            })
            .collect();
        SlowdownReport { per_core }
    }

    /// Average slowdown (paper's throughput metric, lower is better).
    pub fn s_avg(&self) -> f64 {
        self.per_core.iter().sum::<f64>() / self.per_core.len() as f64
    }

    /// Maximum slowdown (paper's fairness metric, lower is better).
    pub fn s_max(&self) -> f64 {
        self.per_core.iter().cloned().fold(f64::MIN, f64::max)
    }

    /// Weighted speedup (sum of 1/S_i) — a conventional throughput view.
    pub fn weighted_speedup(&self) -> f64 {
        self.per_core.iter().map(|s| 1.0 / s).sum()
    }
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
        let rep = SlowdownReport::from_ipcs(&[2.0, 1.0], &[1.0, 0.5]);
        assert_eq!(rep.per_core, vec![2.0, 2.0]);
        assert!((rep.s_avg() - 2.0).abs() < 1e-12);
        assert!((rep.s_max() - 2.0).abs() < 1e-12);
        assert!((rep.weighted_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_max_picks_worst() {
        let rep = SlowdownReport::from_ipcs(&[1.0, 1.0, 1.0], &[1.0, 0.25, 0.5]);
        assert!((rep.s_max() - 4.0).abs() < 1e-12);
        assert!((rep.s_avg() - (1.0 + 4.0 + 2.0) / 3.0).abs() < 1e-12);
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

    #[test]
    fn core_stats_derived_metrics() {
        let mut s = CoreStats::new(10, 10);
        s.counters.cycles = 1000;
        s.counters.instructions = 2000;
        s.counters.mem_stall_cycles = 100;
        s.llc_misses = 40;
        s.mem_latency_sum = 500;
        s.mem_latency_count = 10;
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.mpki() - 20.0).abs() < 1e-12);
        assert!((s.mean_mem_latency() - 50.0).abs() < 1e-12);
        assert!((s.mem_stall_fraction() - 0.1).abs() < 1e-12);
    }
}
