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
    /// Congested cycles since `window_start`, the first of the current
    /// window, folded through `since - 1` (`CongestionGuard::fold`).
    congested_samples: u64,
    since: Cycle,
    window_start: Cycle,
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
            since: 0,
            window_start: 0,
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

    /// Folds the congestion verdict into the samples through cycle
    /// `until - 1`. Each cycle samples the occupancy left by its
    /// completions and enqueues, which fold before they change it; an
    /// evaluation at `E` folds through `E`.
    fn fold(&mut self, until: Cycle) {
        if until > self.since {
            if self.occupancy > self.threshold {
                self.congested_samples += until - self.since;
            }
            self.since = until;
        }
    }
}

impl<S: Scheduler> Scheduler for CongestionGuard<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_enqueue(&mut self, now: Cycle, txn: &Transaction) {
        self.fold(now);
        self.occupancy += 1;
        self.inner.on_enqueue(now, txn);
    }

    fn pick(&mut self, now: Cycle, pending: &[Transaction], view: &DramView<'_>)
        -> Option<usize> {
        self.inner.pick(now, pending, view)
    }

    fn on_complete(&mut self, now: Cycle, txn: &Transaction, row_hit: bool) {
        self.fold(now);
        self.occupancy -= 1;
        self.inner.on_complete(now, txn, row_hit);
    }

    fn tick(&mut self, now: Cycle, signals: &[CoreSignals], ctl: &mut SourceControl) {
        self.inner.tick(now, signals, ctl);
        if now >= self.next_eval {
            self.fold(now + 1);
            let samples = now + 1 - self.window_start;
            let congested = self.congested_samples as f64 / samples as f64;
            self.next_eval = now + self.interval;
            self.congested_samples = 0;
            self.window_start = now + 1;
            if congested > 0.5 {
                // Proportionally scale down: double the gap (start at 4).
                self.gap = (self.gap * 2).clamp(4, self.max_gap);
            } else if congested < 0.1 {
                // Congestion resolved: back off geometrically.
                self.gap /= 2;
            }
        } else if self.gap == 0 {
            return;
        }
        // Between evaluations `applied == gap`: the gap is re-applied on
        // top of whatever the inner policy set.
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
        // Sampling between evaluations is folded in at the events that
        // change occupancy; the next behavioural change is the earlier
        // of our evaluation boundary and the inner policy's own event.
        // While a gap is held, every tick re-applies it over whatever else
        // wrote the source controls (another channel's policy, say), so
        // each tick is an event.
        let mine = if self.gap > 0 { now + 1 } else { self.next_eval.max(now + 1) };
        match self.inner.next_event(now) {
            Some(inner) => Some(mine.min(inner)),
            None => Some(mine),
        }
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
        enc.u64(self.since);
        enc.u64(self.window_start);
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
        self.since = dec.u64()?;
        self.window_start = dec.u64()?;
        // An evaluation at `E >= next_eval` weighs `E + 1 - window_start`.
        if self.window_start > self.since.min(self.next_eval) {
            return Err(SnapshotError::corrupt("congestion-guard window starts past its fold"));
        }
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
    use crate::common::completion_order;
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
        // A guard ticked only at its wake-up events must reach the same
        // gap decisions as one ticked cycle by cycle.
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
        // Fast path: tick only at each wake-up event.
        let mut fnow = 1;
        fast.tick(fnow, &[], &mut ctl_f);
        while fnow < 400 {
            let wake = fast.next_event(fnow).unwrap().min(400);
            fast.tick(wake, &[], &mut ctl_f);
            fnow = wake;
        }
        assert_eq!(naive.current_gap(), fast.current_gap());
        assert_eq!(
            ctl_n.throttle(CoreId::new(0)).min_issue_gap,
            ctl_f.throttle(CoreId::new(0)).min_issue_gap
        );
    }

    /// The guard's statistic as a per-cycle count: a tick on every cycle
    /// samples the occupancy left by that cycle's events, and each
    /// evaluation judges the samples of its window. The reference for
    /// the guard's folds.
    struct PerCycleReference {
        occupancy: i64,
        next_eval: Cycle,
        congested_samples: u64,
        samples: u64,
        gap: u32,
    }

    impl PerCycleReference {
        const THRESHOLD: i64 = 4;
        const INTERVAL: Cycle = 50;

        fn tick(&mut self, now: Cycle) {
            self.samples += 1;
            if self.occupancy > Self::THRESHOLD {
                self.congested_samples += 1;
            }
            if now < self.next_eval {
                return;
            }
            self.next_eval = now + Self::INTERVAL;
            let congested = self.congested_samples as f64 / self.samples as f64;
            (self.congested_samples, self.samples) = (0, 0);
            if congested > 0.5 {
                self.gap = (self.gap * 2).clamp(4, 64);
            } else if congested < 0.1 {
                self.gap /= 2;
            }
        }
    }

    #[test]
    fn folded_samples_match_per_cycle_counting() {
        // Enqueues and completions land on arbitrary cycles, evaluation
        // cycles included, and walk occupancy across the threshold. The
        // guard, ticked only at its `next_event`, must take every gap
        // decision the per-cycle reference takes, on the same cycle.
        let (mut raised, mut lowered) = (0, 0);
        for seed in 1..=24u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut draw = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let interval = PerCycleReference::INTERVAL;
            let mut guard = CongestionGuard::new(FrFcfs::new(), 4, interval);
            let mut reference = PerCycleReference {
                occupancy: 0,
                next_eval: interval,
                congested_samples: 0,
                samples: 0,
                gap: 0,
            };
            let mut ctl = SourceControl::new(1);
            let (mut wake, mut id) = (0, 0);
            for now in 0..3_000 {
                let on_eval = now % interval == 0;
                if draw(if on_eval { 2 } else { 6 }) == 0 {
                    for _ in 0..=draw(3) {
                        if reference.occupancy < 12 && draw(2) == 0 {
                            guard.on_enqueue(now, &txn(id));
                            reference.occupancy += 1;
                        } else if reference.occupancy > 0 {
                            guard.on_complete(now, &txn(id), true);
                            reference.occupancy -= 1;
                        }
                        id += 1;
                    }
                }
                let before = reference.gap;
                reference.tick(now);
                raised += usize::from(reference.gap > before);
                lowered += usize::from(reference.gap < before);
                if now >= wake {
                    guard.tick(now, &[], &mut ctl);
                    wake = guard.next_event(now).expect("the guard always has an event");
                }
                assert_eq!(guard.current_gap(), reference.gap, "seed {seed}, cycle {now}");
            }
        }
        assert!(raised > 0 && lowered > 0, "raised {raised}, lowered {lowered} times");
    }

    #[test]
    fn a_window_starting_past_its_fold_is_refused() {
        // An evaluation at `E >= next_eval` weighs `E + 1 - window_start`
        // samples; a restored window starting past that cycle would
        // underflow, so the restore refuses it.
        use mitts_sim::snapshot::{Dec, Enc, SnapshotError};
        let mut bent = CongestionGuard::new(FrFcfs::new(), 4, 100);
        bent.window_start = 500;
        let mut enc = Enc::new();
        bent.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut fresh = CongestionGuard::new(FrFcfs::new(), 4, 100);
        let got = fresh.load_state(&mut Dec::new(&bytes));
        assert!(matches!(got, Err(SnapshotError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn delegation_preserves_inner_behaviour() {
        // The wrapper must not change what gets picked.
        let reqs: Vec<_> = (0..6).map(|i| (i * 64, 0, MemCmd::Read)).collect();
        let run = |wrap: bool| {
            let mut plain = FrFcfs::new();
            let mut wrapped = CongestionGuard::with_defaults(FrFcfs::new());
            let sched: &mut dyn Scheduler = if wrap { &mut wrapped } else { &mut plain };
            completion_order(sched, &reqs, 2_000)
        };
        assert_eq!(run(false), run(true));
    }
}
