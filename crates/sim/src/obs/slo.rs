//! Declarative SLO evaluation over an [`EpochMetrics`] series (one per
//! sampler row, see [`EpochMetrics::from_row`]).
//!
//! A [`SloSpec`] names the health predicate of a capacity run — a p99
//! memory-latency bound, a memory-stall-rate bound, and an optional
//! per-tenant IPC floor — and an [`SloEvaluator`] folds each
//! [`EpochMetrics`] into a rolling verdict. Every violated (epoch, core,
//! metric) triple is retained as a [`Breach`] (first breach cycle,
//! offending metric, margin), bounded to the first [`MAX_BREACHES`]
//! records so a hopeless overload run cannot balloon memory.
//!
//! The verdict semantics are tolerant by configuration, not by accident:
//! the first `warmup_epochs` epochs are observed but never judged (cold
//! caches and empty queues make the first epoch unrepresentative), and a
//! run is healthy while the judged-epoch violation fraction stays at or
//! below `max_violation_fraction` (0.0 = every judged epoch must pass —
//! the default).

use crate::obs::metrics::EpochMetrics;
use crate::types::Cycle;

/// Retained breach records per evaluator (violations past this are
/// counted but not stored).
pub const MAX_BREACHES: usize = 256;

/// Which bound a breach violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloMetric {
    /// Per-tenant p99 end-to-end memory latency exceeded the bound.
    P99Latency,
    /// Per-tenant memory-stall rate exceeded the bound.
    StallRate,
    /// Per-tenant IPC fell below the floor.
    MinIpc,
}

impl SloMetric {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SloMetric::P99Latency => "p99_latency",
            SloMetric::StallRate => "stall_rate",
            SloMetric::MinIpc => "min_ipc",
        }
    }
}

/// The health predicate: every judged epoch must satisfy all bounds on
/// every tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Upper bound on per-tenant p99 memory latency (cycles).
    pub p99_latency: f64,
    /// Upper bound on per-tenant memory-stall rate (stall cycles /
    /// epoch cycles).
    pub max_stall_rate: f64,
    /// Optional lower bound on per-tenant IPC.
    pub min_ipc: Option<f64>,
    /// Epochs observed but not judged at the start of a run.
    pub warmup_epochs: u64,
    /// Fraction of judged epochs allowed to violate before the run is
    /// unhealthy (0.0 = zero tolerance).
    pub max_violation_fraction: f64,
}

impl SloSpec {
    /// A zero-tolerance spec with one warmup epoch and no IPC floor.
    pub fn new(p99_latency: f64, max_stall_rate: f64) -> Self {
        SloSpec {
            p99_latency,
            max_stall_rate,
            min_ipc: None,
            warmup_epochs: 1,
            max_violation_fraction: 0.0,
        }
    }

    /// Adds an IPC floor.
    pub fn with_min_ipc(mut self, min_ipc: f64) -> Self {
        self.min_ipc = Some(min_ipc);
        self
    }

    /// Overrides the warmup-epoch count.
    pub fn with_warmup(mut self, epochs: u64) -> Self {
        self.warmup_epochs = epochs;
        self
    }

    /// Overrides the tolerated violation fraction.
    pub fn with_tolerance(mut self, fraction: f64) -> Self {
        self.max_violation_fraction = fraction.clamp(0.0, 1.0);
        self
    }
}

/// One recorded SLO violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// Boundary cycle of the violating epoch.
    pub at: Cycle,
    /// Epoch index (1-based).
    pub epoch: u64,
    /// Offending tenant core.
    pub core: usize,
    /// Which bound was violated.
    pub metric: SloMetric,
    /// Measured value.
    pub value: f64,
    /// The configured bound.
    pub bound: f64,
}

impl Breach {
    /// Relative margin of the violation: how far past the bound the
    /// measurement landed, as a fraction of the bound (an IPC breach
    /// reports the shortfall fraction). 0.0 when the bound is 0.
    pub fn margin(&self) -> f64 {
        if self.bound == 0.0 {
            return 0.0;
        }
        match self.metric {
            SloMetric::MinIpc => (self.bound - self.value) / self.bound,
            _ => (self.value - self.bound) / self.bound,
        }
    }
}

/// Rolling verdict snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// Whether the run is (still) healthy under the spec's tolerance.
    pub ok: bool,
    /// Epochs judged (excludes warmup).
    pub evaluated: u64,
    /// Judged epochs with at least one breach.
    pub violated: u64,
    /// Total breach records (every violating (epoch, core, metric)).
    pub breach_count: u64,
    /// The earliest breach, when any.
    pub first_breach: Option<Breach>,
}

/// Folds epoch metrics into a rolling health verdict.
#[derive(Debug, Clone)]
pub struct SloEvaluator {
    spec: SloSpec,
    seen: u64,
    evaluated: u64,
    violated: u64,
    breach_count: u64,
    breaches: Vec<Breach>,
}

impl SloEvaluator {
    /// Creates an evaluator for `spec`.
    pub fn new(spec: SloSpec) -> Self {
        SloEvaluator {
            spec,
            seen: 0,
            evaluated: 0,
            violated: 0,
            breach_count: 0,
            breaches: Vec::new(),
        }
    }

    /// Judges one epoch; returns whether it was healthy (warmup epochs
    /// return `true` without being judged).
    pub fn observe_epoch(&mut self, em: &EpochMetrics) -> bool {
        self.seen += 1;
        if self.seen <= self.spec.warmup_epochs {
            return true;
        }
        self.evaluated += 1;
        let mut epoch_ok = true;
        for t in &em.cores {
            let mut fail = |metric: SloMetric, value: f64, bound: f64| {
                epoch_ok = false;
                self.breach_count += 1;
                if self.breaches.len() < MAX_BREACHES {
                    self.breaches.push(Breach {
                        at: em.at,
                        epoch: em.epoch,
                        core: t.core,
                        metric,
                        value,
                        bound,
                    });
                }
            };
            if t.p99_latency > self.spec.p99_latency {
                fail(SloMetric::P99Latency, t.p99_latency, self.spec.p99_latency);
            }
            if t.stall_rate > self.spec.max_stall_rate {
                fail(SloMetric::StallRate, t.stall_rate, self.spec.max_stall_rate);
            }
            if let Some(floor) = self.spec.min_ipc {
                if t.ipc < floor {
                    fail(SloMetric::MinIpc, t.ipc, floor);
                }
            }
        }
        if !epoch_ok {
            self.violated += 1;
        }
        epoch_ok
    }

    /// Retained breach records (bounded by [`MAX_BREACHES`]).
    pub fn breaches(&self) -> &[Breach] {
        &self.breaches
    }

    /// Snapshot of the rolling verdict. A run that judged no epochs at
    /// all is *unhealthy* — "no data" must not read as "meets SLO".
    pub fn verdict(&self) -> SloVerdict {
        let ok = self.evaluated > 0
            && self.violated as f64 / self.evaluated as f64
                <= self.spec.max_violation_fraction + 1e-12;
        SloVerdict {
            ok,
            evaluated: self.evaluated,
            violated: self.violated,
            breach_count: self.breach_count,
            first_breach: self.breaches.first().cloned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::metrics::TenantEpoch;

    fn epoch(n: u64, p99: f64, stall: f64, ipc: f64) -> EpochMetrics {
        EpochMetrics {
            at: n * 1000,
            epoch: n,
            interval: 1000,
            cores: vec![TenantEpoch {
                core: 0,
                p99_latency: p99,
                fills: 10,
                ipc,
                stall_rate: stall,
                shaper_stall_rate: 0.0,
            }],
            channels: vec![],
        }
    }

    #[test]
    fn healthy_run_stays_healthy() {
        let mut ev = SloEvaluator::new(SloSpec::new(500.0, 0.5));
        for n in 1..=5 {
            assert!(ev.observe_epoch(&epoch(n, 200.0, 0.2, 0.8)));
        }
        let v = ev.verdict();
        assert!(v.ok);
        assert_eq!(v.evaluated, 4); // one warmup epoch
        assert_eq!(v.violated, 0);
        assert!(v.first_breach.is_none());
    }

    #[test]
    fn warmup_epochs_are_never_judged() {
        let mut ev = SloEvaluator::new(SloSpec::new(500.0, 0.5).with_warmup(2));
        // Two terrible warmup epochs, then clean ones.
        assert!(ev.observe_epoch(&epoch(1, 9000.0, 0.9, 0.0)));
        assert!(ev.observe_epoch(&epoch(2, 9000.0, 0.9, 0.0)));
        assert!(ev.observe_epoch(&epoch(3, 100.0, 0.1, 1.0)));
        assert!(ev.verdict().ok);
    }

    #[test]
    fn latency_breach_records_margin_and_first_cycle() {
        let mut ev = SloEvaluator::new(SloSpec::new(500.0, 0.5).with_warmup(0));
        assert!(!ev.observe_epoch(&epoch(1, 750.0, 0.1, 1.0)));
        let v = ev.verdict();
        assert!(!v.ok);
        let b = v.first_breach.expect("breach recorded");
        assert_eq!(b.at, 1000);
        assert_eq!(b.metric, SloMetric::P99Latency);
        assert!((b.margin() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ipc_floor_margin_is_the_shortfall() {
        let spec = SloSpec::new(1e9, 1.0).with_min_ipc(0.8).with_warmup(0);
        let mut ev = SloEvaluator::new(spec);
        ev.observe_epoch(&epoch(1, 10.0, 0.0, 0.4));
        let b = &ev.breaches()[0];
        assert_eq!(b.metric, SloMetric::MinIpc);
        assert!((b.margin() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tolerance_allows_a_bounded_violation_fraction() {
        let spec = SloSpec::new(500.0, 0.5).with_warmup(0).with_tolerance(0.25);
        let mut ev = SloEvaluator::new(spec);
        ev.observe_epoch(&epoch(1, 600.0, 0.1, 1.0)); // violates
        for n in 2..=4 {
            ev.observe_epoch(&epoch(n, 100.0, 0.1, 1.0));
        }
        assert!(ev.verdict().ok, "1/4 violations within 25% tolerance");
        ev.observe_epoch(&epoch(5, 600.0, 0.1, 1.0));
        assert!(!ev.verdict().ok, "2/5 violations exceeds 25%");
    }

    #[test]
    fn no_judged_epochs_is_unhealthy() {
        let ev = SloEvaluator::new(SloSpec::new(500.0, 0.5));
        assert!(!ev.verdict().ok);
        let mut ev = SloEvaluator::new(SloSpec::new(500.0, 0.5).with_warmup(10));
        ev.observe_epoch(&epoch(1, 1.0, 0.0, 1.0));
        assert!(!ev.verdict().ok, "all-warmup runs must not pass");
    }

    #[test]
    fn breach_records_are_bounded() {
        let mut ev = SloEvaluator::new(SloSpec::new(1.0, 0.0).with_warmup(0));
        for n in 1..=(MAX_BREACHES as u64) {
            // Each epoch breaches both latency and stall-rate bounds.
            ev.observe_epoch(&epoch(n, 100.0, 0.9, 1.0));
        }
        let v = ev.verdict();
        assert_eq!(ev.breaches().len(), MAX_BREACHES);
        assert_eq!(v.breach_count, 2 * MAX_BREACHES as u64);
        assert_eq!(v.violated, MAX_BREACHES as u64);
    }

    #[test]
    fn metric_labels_are_stable() {
        assert_eq!(SloMetric::P99Latency.label(), "p99_latency");
        assert_eq!(SloMetric::StallRate.label(), "stall_rate");
        assert_eq!(SloMetric::MinIpc.label(), "min_ipc");
    }
}
