//! Declarative SLO evaluation over an [`EpochMetrics`] series (one per
//! sampler row, see [`EpochMetrics::from_row`]).
//!
//! A [`SloSpec`] names the health predicate of a capacity run — a p99
//! memory-latency bound and a memory-stall-rate bound per tenant — and an
//! [`SloEvaluator`] folds each [`EpochMetrics`] into a rolling verdict.
//! Every violated (epoch, core, metric) triple is retained as a
//! [`Breach`] (first breach cycle, offending metric, margin), bounded to
//! the first [`MAX_BREACHES`] records so a hopeless overload run cannot
//! balloon memory.
//!
//! The first [`WARMUP_EPOCHS`] epochs are observed but never judged (cold
//! caches and empty queues make the first epoch unrepresentative). After
//! that the tolerance is zero: a run is healthy only while every judged
//! epoch passes.

use crate::obs::metrics::EpochMetrics;
use crate::types::Cycle;

/// Retained breach records per evaluator (violations past this are
/// counted but not stored).
pub const MAX_BREACHES: usize = 256;

/// Epochs observed but not judged at the start of a run.
pub const WARMUP_EPOCHS: u64 = 1;

/// Which bound a breach violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloMetric {
    /// Per-tenant p99 end-to-end memory latency exceeded the bound.
    P99Latency,
    /// Per-tenant memory-stall rate exceeded the bound.
    StallRate,
}

impl SloMetric {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SloMetric::P99Latency => "p99_latency",
            SloMetric::StallRate => "stall_rate",
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
}

impl SloSpec {
    /// A spec with both bounds.
    pub fn new(p99_latency: f64, max_stall_rate: f64) -> Self {
        SloSpec { p99_latency, max_stall_rate }
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
    /// measurement landed, as a fraction of the bound. 0.0 when the bound
    /// is 0.
    pub fn margin(&self) -> f64 {
        if self.bound == 0.0 {
            return 0.0;
        }
        (self.value - self.bound) / self.bound
    }
}

/// Rolling verdict snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// Whether the run is (still) healthy: some epoch was judged and none
    /// was violated.
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
        if self.seen <= WARMUP_EPOCHS {
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
        SloVerdict {
            ok: self.evaluated > 0 && self.violated == 0,
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

    /// Feeds `WARMUP_EPOCHS` terrible epochs, which are never judged.
    fn warm_up(ev: &mut SloEvaluator) {
        for n in 1..=WARMUP_EPOCHS {
            assert!(ev.observe_epoch(&epoch(n, 9000.0, 0.9, 0.0)), "warmup epoch {n} judged");
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
        assert_eq!(v.evaluated, 5 - WARMUP_EPOCHS);
        assert_eq!(v.violated, 0);
        assert!(v.first_breach.is_none());
    }

    #[test]
    fn warmup_epochs_are_never_judged() {
        let mut ev = SloEvaluator::new(SloSpec::new(500.0, 0.5));
        warm_up(&mut ev);
        assert!(ev.observe_epoch(&epoch(WARMUP_EPOCHS + 1, 100.0, 0.1, 1.0)));
        let v = ev.verdict();
        assert!(v.ok);
        assert_eq!((v.evaluated, v.breach_count), (1, 0));
    }

    #[test]
    fn latency_breach_records_margin_and_first_cycle() {
        let mut ev = SloEvaluator::new(SloSpec::new(500.0, 0.5));
        warm_up(&mut ev);
        let n = WARMUP_EPOCHS + 1;
        assert!(!ev.observe_epoch(&epoch(n, 750.0, 0.1, 1.0)));
        let v = ev.verdict();
        assert!(!v.ok);
        let b = v.first_breach.expect("breach recorded");
        assert_eq!(b.at, n * 1000);
        assert_eq!(b.metric, SloMetric::P99Latency);
        assert!((b.margin() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_violated_epoch_fails_the_run() {
        let mut ev = SloEvaluator::new(SloSpec::new(500.0, 0.5));
        warm_up(&mut ev);
        for n in WARMUP_EPOCHS + 1..=WARMUP_EPOCHS + 9 {
            ev.observe_epoch(&epoch(n, 100.0, 0.1, 1.0));
        }
        assert!(ev.verdict().ok);
        ev.observe_epoch(&epoch(WARMUP_EPOCHS + 10, 100.0, 0.6, 1.0));
        let v = ev.verdict();
        assert!(!v.ok, "zero tolerance: 1 violated epoch of 10 fails");
        assert_eq!(v.first_breach.expect("breach").metric, SloMetric::StallRate);
    }

    #[test]
    fn no_judged_epochs_is_unhealthy() {
        let mut ev = SloEvaluator::new(SloSpec::new(500.0, 0.5));
        assert!(!ev.verdict().ok);
        warm_up(&mut ev);
        assert!(!ev.verdict().ok, "all-warmup runs must not pass");
    }

    #[test]
    fn breach_records_are_bounded() {
        let mut ev = SloEvaluator::new(SloSpec::new(1.0, 0.0));
        warm_up(&mut ev);
        for n in WARMUP_EPOCHS + 1..=WARMUP_EPOCHS + MAX_BREACHES as u64 {
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
    }
}
