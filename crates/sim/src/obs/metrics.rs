//! Epoch metrics registry: the per-epoch SLO signals the capacity harness
//! reads, fed from the [`TraceEvent`] stream and the sampler's epoch rows.
//!
//! The registry is a pure *consumer*: it implements [`TraceSink`] and is
//! installed like any other sink (typically as `Rc<RefCell<MetricsRegistry>>`
//! via `SystemBuilder::trace_sink`), so it costs nothing when absent — the
//! observer's zero-cost-when-disabled contract is untouched — and it can
//! never perturb simulation state. The bit-exactness guard in
//! `mitts-conform` byte-diffs runs with the registry on and off to pin
//! this down.
//!
//! Per epoch (one [`SampleRow`] from the sampler) the registry derives the
//! SLO-facing signals of the capacity harness:
//!
//! * **per-tenant p99 memory latency** — end-to-end `Fill` latencies
//!   recorded into a per-core [`LatencyHistogram`] that is cut at each
//!   sampler boundary (percentiles follow the workspace-wide
//!   [`nearest_rank_index`](crate::histogram::nearest_rank_index) rule),
//! * **stall-cycle rate** — memory/shaper stall cycles over the epoch
//!   interval,
//! * **grant-bin occupancy** — `ShaperGrant` counts per inter-arrival bin
//!   plus the instantaneous credit fill fraction, and
//! * **DRAM bus utilization** — data-bus busy cycles over the interval,
//!   per channel.
//!
//! Epochs are cut only on the sampler's `Sample` events, so the registry
//! and the sampler share one boundary. The registry keeps no whole-run
//! accumulators: whole-run per-core counts are
//! [`System::core_snapshot`](crate::system::System::core_snapshot).

use crate::histogram::LatencyHistogram;
use crate::obs::event::{SampleRow, TraceEvent};
use crate::obs::sink::TraceSink;
use crate::types::Cycle;

/// Per-tenant (per-core) state between epoch boundaries.
#[derive(Debug, Clone, Default)]
struct TenantAccum {
    /// Fill latencies since the last epoch boundary (cut per epoch).
    epoch_latency: LatencyHistogram,
    /// Grants per bin since the last epoch boundary. Its length is one
    /// past the highest bin granted so far in the run, and survives the
    /// cut, so every epoch reports the same number of bins.
    epoch_grant_bins: Vec<u64>,
}

/// One tenant's derived metrics for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEpoch {
    /// Core index.
    pub core: usize,
    /// p50 end-to-end memory latency this epoch (log-bucket approximate).
    pub p50_latency: f64,
    /// p95 end-to-end memory latency this epoch.
    pub p95_latency: f64,
    /// p99 end-to-end memory latency this epoch.
    pub p99_latency: f64,
    /// Fills completed this epoch.
    pub fills: u64,
    /// Instructions retired over the interval (IPC).
    pub ipc: f64,
    /// Memory-stall cycles over the interval.
    pub stall_rate: f64,
    /// Shaper-stall cycles over the interval.
    pub shaper_stall_rate: f64,
    /// Shaper grants per inter-arrival bin this epoch.
    pub grant_bins: Vec<u64>,
    /// Instantaneous credit occupancy at the boundary: live / max over
    /// all bins (1.0 when the shaper is idle or absent).
    pub credit_occupancy: f64,
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
    /// Instantaneous scheduling-queue depth at the boundary.
    pub queue_len: usize,
}

/// Everything the registry derives at one sampler boundary.
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

/// The registry. Install via `SystemBuilder::trace_sink` (wrapped in
/// `Rc<RefCell<..>>` to keep a reading handle) and read the epoch series
/// back after the run.
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use mitts_sim::config::SystemConfig;
/// use mitts_sim::obs::metrics::MetricsRegistry;
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
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    tenants: Vec<TenantAccum>,
    epochs: Vec<EpochMetrics>,
    last_boundary: Cycle,
    events: u64,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Trace events ingested so far.
    pub fn events_seen(&self) -> u64 {
        self.events
    }

    /// The derived per-epoch series, in boundary order.
    pub fn epochs(&self) -> &[EpochMetrics] {
        &self.epochs
    }

    fn tenant_mut(&mut self, core: usize) -> &mut TenantAccum {
        if core >= self.tenants.len() {
            self.tenants.resize_with(core + 1, TenantAccum::default);
        }
        &mut self.tenants[core]
    }

    /// Folds one trace event into the registry. Equivalent to the
    /// [`TraceSink`] impl; public so non-sink consumers (e.g. replaying a
    /// ring buffer) can feed it too.
    pub fn ingest(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match ev {
            TraceEvent::Fill { core, lat, .. } => {
                self.tenant_mut(*core).epoch_latency.record(lat.total());
            }
            TraceEvent::ShaperGrant { core, bin, .. } => {
                let t = self.tenant_mut(*core);
                let bin = *bin as usize;
                if bin >= t.epoch_grant_bins.len() {
                    t.epoch_grant_bins.resize(bin + 1, 0);
                }
                t.epoch_grant_bins[bin] += 1;
            }
            TraceEvent::Sample(row) => self.cut_epoch(row),
            _ => {}
        }
    }

    /// Closes the current epoch at a sampler boundary: derives the
    /// SLO-facing signals and resets the per-epoch accumulators.
    fn cut_epoch(&mut self, row: &SampleRow) {
        let interval = row.at.saturating_sub(self.last_boundary).max(1);
        self.last_boundary = row.at;
        let mut cores = Vec::with_capacity(row.cores.len());
        for c in &row.cores {
            let t = self.tenant_mut(c.core);
            let bins = t.epoch_grant_bins.len();
            let (live, max): (u64, u64) = c
                .credits
                .iter()
                .fold((0, 0), |(l, m), &(live, max)| (l + live as u64, m + max as u64));
            let occupancy = if max == 0 { 1.0 } else { live as f64 / max as f64 };
            cores.push(TenantEpoch {
                core: c.core,
                p50_latency: t.epoch_latency.percentile_pct(50.0),
                p95_latency: t.epoch_latency.percentile_pct(95.0),
                p99_latency: t.epoch_latency.percentile_pct(99.0),
                fills: t.epoch_latency.count(),
                ipc: c.instructions as f64 / interval as f64,
                stall_rate: c.mem_stall as f64 / interval as f64,
                shaper_stall_rate: c.shaper_stall as f64 / interval as f64,
                grant_bins: std::mem::replace(&mut t.epoch_grant_bins, vec![0; bins]),
                credit_occupancy: occupancy,
            });
            t.epoch_latency.reset();
        }
        let channels = row
            .channels
            .iter()
            .map(|ch| ChannelEpoch {
                channel: ch.channel,
                bus_util: ch.busy_bus as f64 / interval as f64,
                dispatched: ch.dispatched,
                queue_len: ch.queue_len,
            })
            .collect();
        self.epochs.push(EpochMetrics {
            at: row.at,
            epoch: row.epoch,
            interval,
            cores,
            channels,
        });
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&mut self, ev: &TraceEvent) {
        self.ingest(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::event::{ChannelSampleRow, CoreSampleRow, StageLatency};

    fn fill(core: usize, total: u64) -> TraceEvent {
        TraceEvent::Fill {
            at: 10,
            core,
            line: 0x40,
            lat: StageLatency { shaper: 0, llc: 0, mc_queue: 0, dram: total, fill: 0 },
        }
    }

    fn sample(at: Cycle, epoch: u64, cores: usize) -> TraceEvent {
        TraceEvent::Sample(SampleRow {
            at,
            epoch,
            cores: (0..cores)
                .map(|c| CoreSampleRow {
                    core: c,
                    instructions: 512,
                    mem_stall: 256,
                    shaper_stall: 64,
                    l1_misses: 8,
                    llc_misses: 4,
                    fills: 8,
                    credits: vec![(1, 4), (2, 4)],
                })
                .collect(),
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
    fn epoch_cut_derives_rates_and_percentiles() {
        let mut m = MetricsRegistry::new();
        for _ in 0..99 {
            m.ingest(&fill(0, 100));
        }
        m.ingest(&fill(0, 4000));
        m.ingest(&TraceEvent::ShaperGrant { at: 5, core: 0, line: 0x40, bin: 1 });
        m.ingest(&sample(1024, 1, 1));
        let e = &m.epochs()[0];
        assert_eq!(e.interval, 1024);
        let t = &e.cores[0];
        assert_eq!(t.fills, 100);
        // 99 fills at 100 cycles, 1 at 4000: p50 is in the 100-bucket,
        // p99 well below the outlier's bucket too (rank 99 of 100).
        assert!(t.p50_latency < 200.0, "p50 {}", t.p50_latency);
        assert!(t.p99_latency <= t.p50_latency * 2.0 + 1.0);
        assert!((t.ipc - 0.5).abs() < 1e-12);
        assert!((t.stall_rate - 0.25).abs() < 1e-12);
        assert!((t.shaper_stall_rate - 0.0625).abs() < 1e-12);
        assert_eq!(t.grant_bins, vec![0, 1]);
        assert!((t.credit_occupancy - 3.0 / 8.0).abs() < 1e-12);
        assert!((e.channels[0].bus_util - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_histograms_reset_at_each_cut() {
        let mut m = MetricsRegistry::new();
        m.ingest(&fill(0, 100));
        m.ingest(&sample(1024, 1, 1));
        m.ingest(&fill(0, 6000));
        m.ingest(&sample(2048, 2, 1));
        assert_eq!(m.epochs().len(), 2);
        assert_eq!(m.epochs()[0].cores[0].fills, 1);
        assert_eq!(m.epochs()[1].cores[0].fills, 1);
        // Epoch 2's p99 reflects only the second fill.
        assert!(m.epochs()[1].cores[0].p99_latency > 4000.0);
    }

    #[test]
    fn grant_bins_grow_on_demand_and_cut_per_epoch() {
        let mut m = MetricsRegistry::new();
        for bin in [0u32, 3, 3] {
            m.ingest(&TraceEvent::ShaperGrant { at: 1, core: 1, line: 0, bin });
        }
        m.ingest(&sample(1024, 1, 2));
        m.ingest(&TraceEvent::ShaperGrant { at: 1100, core: 1, line: 0, bin: 3 });
        m.ingest(&sample(2048, 2, 2));
        assert_eq!(m.epochs()[0].cores[1].grant_bins, vec![1, 0, 0, 2]);
        assert_eq!(m.epochs()[1].cores[1].grant_bins, vec![0, 0, 0, 1]);
        m.ingest(&sample(3072, 3, 2));
        assert_eq!(
            m.epochs()[2].cores[1].grant_bins,
            vec![0, 0, 0, 0],
            "a grant-free epoch keeps the run's bin count"
        );
        assert_eq!(m.epochs()[2].cores[0].grant_bins, Vec::<u64>::new());
    }

    #[test]
    fn unrelated_events_only_bump_the_event_count() {
        let mut m = MetricsRegistry::new();
        m.ingest(&TraceEvent::L1Miss { at: 1, core: 0, line: 0x40 });
        m.ingest(&TraceEvent::StallDetected { at: 5, since: 1 });
        assert_eq!(m.events_seen(), 2);
        assert!(m.epochs().is_empty());
    }
}
