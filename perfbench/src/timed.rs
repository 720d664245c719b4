//! Forwarding timers around the simulator's three plug-in points:
//! [`SourceShaper`], [`Scheduler`] and [`TraceSource`].
//!
//! A [`Timed`] wrapper forwards *every* trait method, default methods
//! included, so a wrapped system computes exactly what an unwrapped one
//! does; the benchmark checks that their digests agree. Calls are counted
//! exactly. One call in [`SAMPLE_EVERY`] is timed with an `Instant` pair,
//! which keeps the cost of tracing near one counter bump per call.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use mitts_sim::audit::CreditAudit;
use mitts_sim::mc::{CoreSignals, DramView, Scheduler, SourceControl, Transaction};
use mitts_sim::oracle::PickPolicy;
use mitts_sim::shaper::{ShapeDecision, ShapeToken, SourceShaper};
use mitts_sim::snapshot::{Dec, Enc, SnapshotError};
use mitts_sim::trace::{TraceOp, TraceSource};
use mitts_sim::types::Cycle;

use crate::stats::median;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Exact call count plus sampled duration of one trait method.
#[derive(Debug, Default)]
pub struct Span {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

impl Span {
    /// Counts one call of `f`, timing it when it is a sampled call.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let start = Instant::now();
        let result = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sampled_ns
            .set(self.sampled_ns.get().saturating_add(ns));
        self.sampled.set(self.sampled.get() + 1);
        result
    }

    /// Exact number of calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean sampled duration minus the timer floor, in ns (0 when no call
    /// was sampled or the floor exceeds the mean).
    pub fn mean_ns(&self, floor_ns: f64) -> f64 {
        match self.sampled.get() {
            0 => 0.0,
            n => (self.sampled_ns.get() as f64 / n as f64 - floor_ns).max(0.0),
        }
    }

    /// Estimated total time in the method: calls × mean sampled span.
    pub fn total_ns(&self, floor_ns: f64) -> f64 {
        self.calls() as f64 * self.mean_ns(floor_ns)
    }
}

/// Everything the wrappers of one system record. Single-threaded, like
/// the simulator, so plain `Cell`s suffice.
#[derive(Debug, Default)]
pub struct Probes {
    /// `SourceShaper::tick`.
    pub shaper_tick: Span,
    /// `SourceShaper::try_issue`.
    pub try_issue: Span,
    /// `try_issue` calls that granted.
    pub grants: Cell<u64>,
    /// `SourceShaper::next_grant_event` calls.
    pub next_grant_event: Cell<u64>,
    /// `Scheduler::pick`.
    pub pick: Span,
    /// `pick` calls that chose a transaction.
    pub dispatches: Cell<u64>,
    /// Sum of the pending-queue length over `pick` calls.
    pub pending_sum: Cell<u64>,
    /// `Scheduler::tick`.
    pub sched_tick: Span,
    /// `Scheduler::next_event` calls.
    pub next_event: Cell<u64>,
    /// `TraceSource::next_op`.
    pub next_op: Span,
}

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}

/// A plug-in wrapped in forwarding timers that report into shared
/// [`Probes`].
pub struct Timed<T> {
    inner: T,
    probes: Rc<Probes>,
}

impl<T> Timed<T> {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: T, probes: &Rc<Probes>) -> Self {
        Timed {
            inner,
            probes: Rc::clone(probes),
        }
    }
}

impl<S: SourceShaper> SourceShaper for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tick(&mut self, now: Cycle) {
        self.probes.shaper_tick.time(|| self.inner.tick(now));
    }

    fn try_issue(&mut self, now: Cycle) -> ShapeDecision {
        let decision = self.probes.try_issue.time(|| self.inner.try_issue(now));
        bump(&self.probes.grants, u64::from(decision.is_grant()));
        decision
    }

    fn on_llc_response(&mut self, now: Cycle, token: ShapeToken, hit: bool) {
        self.inner.on_llc_response(now, token, hit);
    }

    fn stall_cycles(&self) -> u64 {
        self.inner.stall_cycles()
    }

    fn note_stall_cycle(&mut self) {
        self.inner.note_stall_cycle();
    }

    fn note_stall_cycles(&mut self, cycles: u64) {
        self.inner.note_stall_cycles(cycles);
    }

    fn note_denied_cycles(&mut self, cycles: u64) {
        self.inner.note_denied_cycles(cycles);
    }

    fn next_grant_event(&self, now: Cycle) -> Option<Cycle> {
        bump(&self.probes.next_grant_event, 1);
        self.inner.next_grant_event(now)
    }

    fn credit_audit(&self) -> CreditAudit {
        self.inner.credit_audit()
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        self.inner.snapshot_kind()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(dec)
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_enqueue(&mut self, now: Cycle, txn: &Transaction) {
        self.inner.on_enqueue(now, txn);
    }

    fn pick(&mut self, now: Cycle, pending: &[Transaction], view: &DramView<'_>) -> Option<usize> {
        let choice = self
            .probes
            .pick
            .time(|| self.inner.pick(now, pending, view));
        bump(&self.probes.dispatches, u64::from(choice.is_some()));
        bump(&self.probes.pending_sum, pending.len() as u64);
        choice
    }

    fn on_complete(&mut self, now: Cycle, txn: &Transaction, row_hit: bool) {
        self.inner.on_complete(now, txn, row_hit);
    }

    fn tick(&mut self, now: Cycle, signals: &[CoreSignals], ctl: &mut SourceControl) {
        self.probes
            .sched_tick
            .time(|| self.inner.tick(now, signals, ctl));
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        bump(&self.probes.next_event, 1);
        self.inner.next_event(now)
    }

    fn note_idle_cycles(&mut self, cycles: Cycle) {
        self.inner.note_idle_cycles(cycles);
    }

    fn conformance_policy(&self) -> Option<PickPolicy> {
        self.inner.conformance_policy()
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        self.inner.snapshot_kind()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(dec)
    }
}

impl<T: TraceSource> TraceSource for Timed<T> {
    fn next_op(&mut self) -> TraceOp {
        self.probes.next_op.time(|| self.inner.next_op())
    }

    fn phase(&self) -> usize {
        self.inner.phase()
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        self.inner.snapshot_kind()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(dec)
    }
}

/// Cost of an empty `Instant` span on this host, in ns: the median over
/// 64 batches of each batch's mean over 256 empty spans.
pub fn timer_floor_ns() -> f64 {
    let batch_means: Vec<f64> = (0..64)
        .map(|_| {
            let total: u128 = (0..256)
                .map(|_| black_box(Instant::now()).elapsed().as_nanos())
                .sum();
            total as f64 / 256.0
        })
        .collect();
    median(&batch_means)
}
