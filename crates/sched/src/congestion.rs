//! Congestion feedback to the shapers (§III-C's future work).
//!
//! The paper handles short-term global burstiness — all cores spending
//! bursty credits simultaneously — with a 32-entry smoothing FIFO, and
//! notes that "more complex schemes are possible which communicate
//! short-term congestion to the MITTS units which then proportionally
//! scale-down resources until the congestion is resolved, but we leave
//! this to future work". [`CongestionGuard`] implements that scheme as a
//! wrapper around any controller policy: it watches controller occupancy
//! and, when the transaction pool stays saturated, imposes a
//! proportional per-core issue gap at the sources, backing off
//! geometrically once the congestion clears.

use mitts_sim::mc::{CoreSignals, DramView, Scheduler, SourceControl, Transaction};
use mitts_sim::types::Cycle;

/// Source-throttling congestion controller layered over an inner
/// scheduling policy.
pub struct CongestionGuard<S> {
    inner: S,
    name: String,
    /// Transactions in the controller (enqueued minus completed).
    occupancy: i64,
    /// Occupancy regarded as congested.
    threshold: i64,
    /// Evaluation interval in cycles.
    interval: Cycle,
    next_eval: Cycle,
    /// Cycles of congestion observed in the current interval.
    congested_samples: u64,
    samples: u64,
    /// Current uniform issue gap imposed on every core (0 = none).
    gap: u32,
    /// The gap value most recently written into the source controls, so
    /// back-off can clear exactly what this guard imposed (an inner
    /// policy's own larger gap is left alone).
    applied: u32,
    /// Largest gap the guard will impose.
    max_gap: u32,
}

impl<S: Scheduler> CongestionGuard<S> {
    /// Wraps `inner`, treating controller occupancy above `threshold`
    /// transactions as congestion, evaluated every `interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` or `threshold == 0`.
    pub fn new(inner: S, threshold: usize, interval: Cycle) -> Self {
        assert!(interval > 0, "interval must be positive");
        assert!(threshold > 0, "threshold must be positive");
        let name = format!("{}+CG", inner.name());
        CongestionGuard {
            inner,
            name,
            occupancy: 0,
            threshold: threshold as i64,
            interval,
            next_eval: interval,
            congested_samples: 0,
            samples: 0,
            gap: 0,
            applied: 0,
            max_gap: 64,
        }
    }

    /// Default tuning: congested when the §III-C FIFO depth (32) is
    /// exceeded, evaluated every 2000 cycles.
    pub fn with_defaults(inner: S) -> Self {
        CongestionGuard::new(inner, 32, 2_000)
    }

    /// The issue gap currently imposed on every core.
    pub fn current_gap(&self) -> u32 {
        self.gap
    }
}

impl<S: Scheduler> Scheduler for CongestionGuard<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_enqueue(&mut self, now: Cycle, txn: &Transaction) {
        self.occupancy += 1;
        self.inner.on_enqueue(now, txn);
    }

    fn pick(&mut self, now: Cycle, pending: &[Transaction], view: &DramView<'_>)
        -> Option<usize> {
        self.inner.pick(now, pending, view)
    }

    fn on_complete(&mut self, now: Cycle, txn: &Transaction, row_hit: bool) {
        self.occupancy -= 1;
        self.inner.on_complete(now, txn, row_hit);
    }

    fn tick(&mut self, now: Cycle, signals: &[CoreSignals], ctl: &mut SourceControl) {
        self.inner.tick(now, signals, ctl);
        self.samples += 1;
        if self.occupancy > self.threshold {
            self.congested_samples += 1;
        }
        if now < self.next_eval {
            // Re-apply our gap on top of whatever the inner policy set.
            if self.gap > 0 {
                for i in 0..ctl.cores() {
                    let t = ctl.throttle_mut(mitts_sim::types::CoreId::new(i));
                    t.min_issue_gap =
                        Some(t.min_issue_gap.unwrap_or(0).max(self.gap));
                }
            }
            return;
        }
        self.next_eval = now + self.interval;
        let congested = self.congested_samples as f64 / self.samples.max(1) as f64;
        self.congested_samples = 0;
        self.samples = 0;
        if congested > 0.5 {
            // Proportionally scale down: double the gap (start at 4).
            self.gap = (self.gap * 2).clamp(4, self.max_gap);
        } else if congested < 0.1 {
            // Congestion resolved: back off geometrically.
            self.gap /= 2;
        }
        for i in 0..ctl.cores() {
            let t = ctl.throttle_mut(mitts_sim::types::CoreId::new(i));
            // Retract our previous override, keeping any larger gap the
            // inner policy imposed itself.
            if t.min_issue_gap == Some(self.applied) && self.applied > 0 {
                t.min_issue_gap = None;
            }
            if self.gap > 0 {
                t.min_issue_gap = Some(t.min_issue_gap.unwrap_or(0).max(self.gap));
            }
        }
        self.applied = self.gap;
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Per-cycle sampling between evaluations is replayed by
        // `note_idle_cycles`; the next behavioural change is the earlier
        // of our evaluation boundary and the inner policy's own event.
        let mine = self.next_eval.max(now + 1);
        match self.inner.next_event(now) {
            Some(inner) => Some(mine.min(inner)),
            None => Some(mine),
        }
    }

    fn note_idle_cycles(&mut self, cycles: Cycle) {
        // Occupancy only changes on enqueue/complete, so every skipped
        // cycle would have sampled the same congestion verdict. The gap
        // re-application those ticks would also perform is idempotent and
        // is redone by the first real tick after the skip.
        self.samples += cycles;
        if self.occupancy > self.threshold {
            self.congested_samples += cycles;
        }
        self.inner.note_idle_cycles(cycles);
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        // The guard is checkpointable exactly when the wrapped policy is;
        // the inner kind travels inside the payload.
        self.inner.snapshot_kind().map(|_| "congestion-guard")
    }

    fn save_state(&self, enc: &mut mitts_sim::snapshot::Enc) {
        enc.i64(self.threshold);
        enc.u64(self.interval);
        enc.u32(self.max_gap);
        enc.i64(self.occupancy);
        enc.u64(self.next_eval);
        enc.u64(self.congested_samples);
        enc.u64(self.samples);
        enc.u32(self.gap);
        enc.u32(self.applied);
        enc.str(self.inner.snapshot_kind().unwrap_or(""));
        enc.blob(|e| self.inner.save_state(e));
    }

    fn load_state(
        &mut self,
        dec: &mut mitts_sim::snapshot::Dec<'_>,
    ) -> Result<(), mitts_sim::snapshot::SnapshotError> {
        use mitts_sim::snapshot::SnapshotError;
        let threshold = dec.i64()?;
        let interval = dec.u64()?;
        let max_gap = dec.u32()?;
        if threshold != self.threshold || interval != self.interval || max_gap != self.max_gap {
            return Err(SnapshotError::mismatch(
                "congestion-guard parameters differ from the snapshotted ones",
            ));
        }
        self.occupancy = dec.i64()?;
        self.next_eval = dec.u64()?;
        self.congested_samples = dec.u64()?;
        self.samples = dec.u64()?;
        self.gap = dec.u32()?;
        self.applied = dec.u32()?;
        let inner_kind = dec.str()?;
        let expected = self.inner.snapshot_kind().unwrap_or("");
        if inner_kind != expected {
            return Err(SnapshotError::mismatch(format!(
                "congestion-guard wraps '{expected}' but the snapshot holds '{inner_kind}'"
            )));
        }
        dec.blob(|d| self.inner.load_state(d))?;
        Ok(())
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for CongestionGuard<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CongestionGuard")
            .field("inner", &self.inner)
            .field("gap", &self.gap)
            .field("occupancy", &self.occupancy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frfcfs::FrFcfs;
    use mitts_sim::types::{CoreId, MemCmd};

    fn txn(id: u64) -> Transaction {
        Transaction { id, core: CoreId::new(0), addr: 0, cmd: MemCmd::Read, enqueued_at: 0 }
    }

    #[test]
    fn name_reflects_wrapping() {
        let g = CongestionGuard::with_defaults(FrFcfs::new());
        assert_eq!(g.name(), "FR-FCFS+CG");
    }

    #[test]
    fn sustained_congestion_raises_the_gap() {
        let mut g = CongestionGuard::new(FrFcfs::new(), 4, 100);
        let mut ctl = SourceControl::new(2);
        // Keep 8 transactions outstanding across two evaluation windows.
        for i in 0..8 {
            g.on_enqueue(0, &txn(i));
        }
        for now in 1..=200 {
            g.tick(now, &[], &mut ctl);
        }
        assert!(g.current_gap() >= 4, "gap should engage under congestion");
        let imposed = ctl.throttle(CoreId::new(0)).min_issue_gap;
        assert_eq!(imposed, Some(g.current_gap()));
    }

    #[test]
    fn gap_escalates_then_backs_off() {
        let mut g = CongestionGuard::new(FrFcfs::new(), 4, 100);
        let mut ctl = SourceControl::new(1);
        for i in 0..8 {
            g.on_enqueue(0, &txn(i));
        }
        for now in 1..=400 {
            g.tick(now, &[], &mut ctl);
        }
        let engaged = g.current_gap();
        assert!(engaged >= 8, "gap should escalate: {engaged}");
        // Drain the controller: congestion resolves, gap halves away.
        for i in 0..8 {
            g.on_complete(400, &txn(i), true);
        }
        for now in 401..=1200 {
            g.tick(now, &[], &mut ctl);
        }
        assert_eq!(g.current_gap(), 0, "gap must back off after congestion clears");
        assert_eq!(ctl.throttle(CoreId::new(0)).min_issue_gap, None);
    }

    #[test]
    fn gap_is_bounded() {
        let mut g = CongestionGuard::new(FrFcfs::new(), 1, 10);
        let mut ctl = SourceControl::new(1);
        for i in 0..50 {
            g.on_enqueue(0, &txn(i));
        }
        for now in 1..=5_000 {
            g.tick(now, &[], &mut ctl);
        }
        assert!(g.current_gap() <= 64, "gap must saturate at max: {}", g.current_gap());
    }

    #[test]
    fn idle_replay_matches_per_cycle_ticks() {
        // A guard whose dead cycles are replayed in one batch must reach
        // the same gap decisions as one ticked cycle by cycle.
        let mut naive = CongestionGuard::new(FrFcfs::new(), 4, 100);
        let mut fast = CongestionGuard::new(FrFcfs::new(), 4, 100);
        let mut ctl_n = SourceControl::new(1);
        let mut ctl_f = SourceControl::new(1);
        for i in 0..8 {
            naive.on_enqueue(0, &txn(i));
            fast.on_enqueue(0, &txn(i));
        }
        let mut now = 1;
        while now <= 400 {
            naive.tick(now, &[], &mut ctl_n);
            now += 1;
        }
        // Fast path: tick only at each wake-up event, replay the gaps.
        let mut fnow = 1;
        fast.tick(fnow, &[], &mut ctl_f);
        while fnow < 400 {
            let wake = fast.next_event(fnow).unwrap().min(400);
            if wake > fnow + 1 {
                fast.note_idle_cycles(wake - fnow - 1);
            }
            fast.tick(wake, &[], &mut ctl_f);
            fnow = wake;
        }
        assert_eq!(naive.current_gap(), fast.current_gap());
        assert_eq!(
            ctl_n.throttle(CoreId::new(0)).min_issue_gap,
            ctl_f.throttle(CoreId::new(0)).min_issue_gap
        );
    }

    #[test]
    fn delegation_preserves_inner_behaviour() {
        // The wrapper must not change what gets picked.
        use mitts_sim::config::{DramConfig, McConfig};
        use mitts_sim::dram::Dram;
        use mitts_sim::mc::{MemoryController, TxnId};
        let run = |wrap: bool| {
            let mut mc = MemoryController::new(&McConfig::default());
            let mut dram: Dram<TxnId> = Dram::new(&DramConfig::default(), 2.4e9);
            let mut plain = FrFcfs::new();
            let mut wrapped = CongestionGuard::with_defaults(FrFcfs::new());
            let sched: &mut dyn Scheduler =
                if wrap { &mut wrapped } else { &mut plain };
            for i in 0..6 {
                mc.try_enqueue(0, CoreId::new(0), i * 64, MemCmd::Read).unwrap();
            }
            let mut order = Vec::new();
            for now in 0..2_000 {
                for r in mc.drain_completions(now, sched, &mut dram) {
                    order.push(r.txn.id);
                }
                mc.tick(now, sched, &mut dram, None);
            }
            order
        };
        assert_eq!(run(false), run(true));
    }
}
