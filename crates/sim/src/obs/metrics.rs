//! Epoch metrics: the per-epoch SLO signals the capacity harness judges,
//! derived from the sampler's epoch rows.
//!
//! [`EpochMetrics::from_row`] is a pure function of one epoch-delta
//! [`SampleRow`] and the sampler interval. Every signal comes from a
//! counter the system keeps anyway, so judging a run needs sampling but
//! no trace sink:
//!
//! * **per-tenant p99 memory latency** — the row's share of the core's
//!   `mem_latency` histogram (log2 buckets subtract exactly between two
//!   boundaries; percentiles follow the workspace-wide
//!   [`nearest_rank_index`](crate::histogram::nearest_rank_index) rule),
//! * **IPC and stall rates** — instructions and memory/shaper stall
//!   cycles over the interval, and
//! * **DRAM bus utilization** — data-bus busy cycles over the interval,
//!   per channel.
//!
//! [`MetricsRegistry`] is the same function behind a [`TraceSink`], for
//! runs that trace anyway: it derives one [`EpochMetrics`] per `Sample`
//! event and ignores every other event. Like every sink it is a pure
//! observer; the bit-exactness guard in `mitts-conform` byte-diffs
//! capacity probes with the registry on and off.

use crate::obs::event::{SampleRow, TraceEvent};
use crate::obs::sink::TraceSink;
use crate::types::Cycle;

/// One tenant's derived metrics for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEpoch {
    /// Core index.
    pub core: usize,
    /// p99 end-to-end memory latency this epoch (log-bucket approximate).
    pub p99_latency: f64,
    /// Fills whose latency the epoch's histogram holds.
    pub fills: u64,
    /// Instructions retired over the interval (IPC).
    pub ipc: f64,
    /// Memory-stall cycles over the interval.
    pub stall_rate: f64,
    /// Shaper-stall cycles over the interval.
    pub shaper_stall_rate: f64,
}

/// One channel's derived metrics for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelEpoch {
    /// Memory-channel index.
    pub channel: usize,
    /// Data-bus busy fraction over the interval.
    pub bus_util: f64,
    /// Transactions dispatched this epoch.
    pub dispatched: u64,
}

/// Everything derived at one sampler boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochMetrics {
    /// Boundary cycle.
    pub at: Cycle,
    /// Boundary index (1-based, mirrors the sampler).
    pub epoch: u64,
    /// Cycles covered by this epoch.
    pub interval: Cycle,
    /// One entry per core.
    pub cores: Vec<TenantEpoch>,
    /// One entry per memory channel.
    pub channels: Vec<ChannelEpoch>,
}

impl EpochMetrics {
    /// The metrics of one epoch-delta row of a sampler firing every
    /// `interval` cycles.
    pub fn from_row(row: &SampleRow, interval: Cycle) -> EpochMetrics {
        let interval = interval.max(1);
        let per_cycle = |n: u64| n as f64 / interval as f64;
        EpochMetrics {
            at: row.at,
            epoch: row.epoch,
            interval,
            cores: row
                .cores
                .iter()
                .map(|c| TenantEpoch {
                    core: c.core,
                    p99_latency: c.latency.percentile_pct(99.0),
                    fills: c.latency.count(),
                    ipc: per_cycle(c.instructions),
                    stall_rate: per_cycle(c.mem_stall),
                    shaper_stall_rate: per_cycle(c.shaper_stall),
                })
                .collect(),
            channels: row
                .channels
                .iter()
                .map(|ch| ChannelEpoch {
                    channel: ch.channel,
                    bus_util: per_cycle(ch.busy_bus),
                    dispatched: ch.dispatched,
                })
                .collect(),
        }
    }
}

/// [`EpochMetrics::from_row`] as a trace sink. Install via
/// `SystemBuilder::trace_sink` (wrapped in `Rc<RefCell<..>>` to keep a
/// reading handle) next to `sample_every`, and read the epoch series
/// back after the run. Without tracing, derive the same series from
/// `System::samples`.
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use mitts_sim::config::SystemConfig;
/// use mitts_sim::obs::metrics::{EpochMetrics, MetricsRegistry};
/// use mitts_sim::system::SystemBuilder;
/// use mitts_sim::trace::StrideTrace;
///
/// let metrics = Rc::new(RefCell::new(MetricsRegistry::new()));
/// let mut sys = SystemBuilder::new(SystemConfig::single_program())
///     .trace(0, Box::new(StrideTrace::new(4, 64, 1 << 20)))
///     .trace_sink(Box::new(Rc::clone(&metrics)))
///     .sample_every(1024)
///     .build();
/// sys.run_cycles(4096);
/// let m = metrics.borrow();
/// assert_eq!(m.epochs().len(), 3, "boundaries at 1024, 2048 and 3072");
/// assert_eq!(m.epochs()[0].interval, 1024);
/// assert!(m.epochs()[0].cores[0].fills > 0);
/// // The sampler's rows give the same series with no sink at all.
/// let from_rows: Vec<_> =
///     sys.samples().iter().map(|r| EpochMetrics::from_row(r, 1024)).collect();
/// assert_eq!(m.epochs(), &from_rows[..]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    epochs: Vec<EpochMetrics>,
    events: u64,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Trace events seen so far.
    pub fn events_seen(&self) -> u64 {
        self.events
    }

    /// The derived per-epoch series, in boundary order.
    pub fn epochs(&self) -> &[EpochMetrics] {
        &self.epochs
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&mut self, ev: &TraceEvent) {
        self.events += 1;
        if let TraceEvent::Sample(row) = ev {
            // The sampler numbers its boundaries 1, 2, ... at the
            // multiples of its interval, so one row names the interval,
            // even the first row after a snapshot resume.
            let interval = row.at / row.epoch.max(1);
            self.epochs.push(EpochMetrics::from_row(row, interval));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LatencyHistogram;
    use crate::obs::event::{ChannelSampleRow, CoreSampleRow};

    fn sample(at: Cycle, epoch: u64, latencies: &[u64]) -> TraceEvent {
        let mut hist = LatencyHistogram::new();
        for &v in latencies {
            hist.record(v);
        }
        TraceEvent::Sample(SampleRow {
            at,
            epoch,
            cores: vec![CoreSampleRow {
                core: 0,
                instructions: 512,
                mem_stall: 256,
                shaper_stall: 64,
                l1_misses: 8,
                llc_misses: 4,
                fills: latencies.len() as u64,
                credits: vec![(1, 4), (2, 4)],
                latency: hist.buckets(),
            }],
            channels: vec![ChannelSampleRow {
                channel: 0,
                dispatched: 16,
                busy_bus: 512,
                bytes: 1024,
                row_hits: 8,
                row_misses: 4,
                row_conflicts: 4,
                queue_len: 3,
                fifo_len: 1,
            }],
        })
    }

    #[test]
    fn a_row_yields_rates_and_percentiles() {
        let mut latencies = vec![100; 99];
        latencies.push(4000);
        let TraceEvent::Sample(row) = sample(1024, 1, &latencies) else { unreachable!() };
        let e = EpochMetrics::from_row(&row, 1024);
        assert_eq!(e.interval, 1024);
        let t = &e.cores[0];
        assert_eq!(t.fills, 100);
        // 99 fills at 100 cycles, 1 at 4000: p99 (rank 99 of 100) stays
        // in the 100-cycle bucket.
        assert!(t.p99_latency < 200.0, "p99 {}", t.p99_latency);
        assert!((t.ipc - 0.5).abs() < 1e-12);
        assert!((t.stall_rate - 0.25).abs() < 1e-12);
        assert!((t.shaper_stall_rate - 0.0625).abs() < 1e-12);
        assert!((e.channels[0].bus_util - 0.5).abs() < 1e-12);
        assert_eq!(e.channels[0].dispatched, 16);
    }

    #[test]
    fn the_registry_takes_the_interval_from_the_sampler_numbering() {
        let mut m = MetricsRegistry::new();
        // A twin resumed at cycle 5000 sees boundary 5 of a 1024-cycle
        // sampler first: its interval is 1024, not the whole history.
        m.record(&sample(5120, 5, &[6000]));
        m.record(&sample(6144, 6, &[100]));
        assert_eq!(m.epochs().len(), 2);
        assert!(m.epochs().iter().all(|e| e.interval == 1024));
        assert!((m.epochs()[0].cores[0].ipc - 0.5).abs() < 1e-12);
        assert!(m.epochs()[0].cores[0].p99_latency > 4000.0);
        assert!(m.epochs()[1].cores[0].p99_latency < 200.0);
    }

    #[test]
    fn other_events_only_bump_the_event_count() {
        let mut m = MetricsRegistry::new();
        m.record(&TraceEvent::L1Miss { at: 1, core: 0, line: 0x40 });
        m.record(&TraceEvent::StallDetected { at: 5, since: 1 });
        assert_eq!(m.events_seen(), 2);
        assert!(m.epochs().is_empty());
    }
}
