//! Fairness via Source Throttling (after Ebrahimi et al., ASPLOS 2010).
//!
//! Rather than reordering at the controller, FST estimates each
//! application's slowdown and, when system unfairness exceeds a
//! threshold, throttles *at the source* the application interfering most
//! (capping its in-flight requests and spacing its issues) while easing
//! throttles on the most victimised application. MITTS borrows FST's
//! source-control insight (§III-A) but controls the whole inter-arrival
//! distribution rather than a single rate.

use mitts_sim::mc::{CoreSignals, DramView, Scheduler, SourceControl, Transaction};
use mitts_sim::stats::s_max;
use mitts_sim::types::Cycle;

use crate::common::frfcfs_pick;

/// Issue-gap values (cycles) for each throttle level; level 0 is
/// unthrottled. In-flight caps shrink alongside.
const GAP_LEVELS: [u32; 6] = [0, 8, 16, 32, 64, 128];
const INFLIGHT_LEVELS: [u32; 6] = [u32::MAX, 8, 6, 4, 2, 1];

/// The FST policy: FR-FCFS at the controller plus periodic source
/// throttling.
#[derive(Debug, Clone)]
pub struct Fst {
    cores: usize,
    interval: Cycle,
    next_eval: Cycle,
    unfairness_threshold: f64,
    /// Current throttle level per core (index into the level tables).
    levels: Vec<usize>,
    prev: Vec<CoreSignals>,
}

impl Fst {
    /// Creates FST for `cores` sharers with a 25 k-cycle evaluation
    /// interval and an unfairness threshold of 1.4 (paper's ballpark).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize) -> Self {
        Fst::with_params(cores, 25_000, 1.4)
    }

    /// Creates FST with an explicit interval and unfairness threshold.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, `interval == 0`, or the threshold is
    /// `< 1.0`.
    pub fn with_params(cores: usize, interval: Cycle, unfairness_threshold: f64) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(interval > 0, "interval must be positive");
        assert!(unfairness_threshold >= 1.0, "threshold below 1 is meaningless");
        Fst {
            cores,
            interval,
            next_eval: interval,
            unfairness_threshold,
            levels: vec![0; cores],
            prev: vec![CoreSignals::default(); cores],
        }
    }

    /// Current throttle level of each core (0 = unthrottled).
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Slowdown estimate for the window: `1 / (1 - stall_fraction)`,
    /// i.e. an application stalled on memory half the time is estimated
    /// to run 2× slower than alone.
    fn estimate_slowdowns(&self, window: &[CoreSignals]) -> Vec<f64> {
        window
            .iter()
            .map(|w| {
                let stall_frac =
                    (w.mem_stall_cycles as f64 / self.interval as f64).clamp(0.0, 0.95);
                1.0 / (1.0 - stall_frac)
            })
            .collect()
    }

    fn apply_levels(&self, ctl: &mut SourceControl) {
        for i in 0..self.cores {
            let t = ctl.throttle_mut(mitts_sim::types::CoreId::new(i));
            let lvl = self.levels[i];
            t.min_issue_gap = if GAP_LEVELS[lvl] == 0 { None } else { Some(GAP_LEVELS[lvl]) };
            t.max_inflight =
                if INFLIGHT_LEVELS[lvl] == u32::MAX { None } else { Some(INFLIGHT_LEVELS[lvl]) };
        }
    }
}

impl Scheduler for Fst {
    fn name(&self) -> &str {
        "FST"
    }

    fn pick(&mut self, _now: Cycle, pending: &[Transaction], view: &DramView<'_>)
        -> Option<usize> {
        frfcfs_pick(pending, view, |_| true)
    }

    fn tick(&mut self, now: Cycle, signals: &[CoreSignals], ctl: &mut SourceControl) {
        if now < self.next_eval {
            return;
        }
        self.next_eval = now + self.interval;

        let window: Vec<CoreSignals> =
            (0..self.cores).map(|i| signals[i].delta(&self.prev[i])).collect();
        self.prev = signals.to_vec();
        let slowdowns = self.estimate_slowdowns(&window);

        let max_s = s_max(&slowdowns);
        let min_s = slowdowns.iter().cloned().fold(f64::MAX, f64::min).max(1.0);
        let unfair = max_s / min_s;

        if unfair > self.unfairness_threshold {
            // Throttle the heaviest-traffic core up one level; relieve the
            // most slowed-down core by one level.
            if let Some(offender) = (0..self.cores)
                .filter(|&i| self.levels[i] + 1 < GAP_LEVELS.len())
                // The most interfering application: highest memory
                // traffic in the window among those not maximally
                // throttled.
                .max_by_key(|&i| window[i].llc_misses)
            {
                self.levels[offender] += 1;
            }
            if let Some(victim) = slowdowns
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("slowdowns are finite"))
                .map(|(i, _)| i)
            {
                self.levels[victim] = self.levels[victim].saturating_sub(1);
            }
        } else {
            // System is fair enough: gently release all throttles.
            for lvl in &mut self.levels {
                *lvl = lvl.saturating_sub(1);
            }
        }
        self.apply_levels(ctl);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(self.next_eval.max(now + 1))
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("fst")
    }

    fn save_state(&self, enc: &mut mitts_sim::snapshot::Enc) {
        enc.usize(self.cores);
        enc.u64(self.interval);
        enc.f64(self.unfairness_threshold);
        enc.u64(self.next_eval);
        enc.usizes(&self.levels);
        for s in &self.prev {
            enc.u64(s.cycles);
            enc.u64(s.instructions);
            enc.u64(s.mem_stall_cycles);
            enc.u64(s.l1_misses);
            enc.u64(s.llc_misses);
            enc.u64(s.mem_completed);
            enc.u64(s.mem_latency_sum);
        }
    }

    fn load_state(
        &mut self,
        dec: &mut mitts_sim::snapshot::Dec<'_>,
    ) -> Result<(), mitts_sim::snapshot::SnapshotError> {
        use mitts_sim::snapshot::SnapshotError;
        let cores = dec.usize()?;
        let interval = dec.u64()?;
        let threshold = dec.f64()?;
        if cores != self.cores
            || interval != self.interval
            || threshold.to_bits() != self.unfairness_threshold.to_bits()
        {
            return Err(SnapshotError::mismatch(
                "FST scheduler parameters differ from the snapshotted ones",
            ));
        }
        self.next_eval = dec.u64()?;
        let levels = dec.usizes()?;
        if levels.len() != self.cores || levels.iter().any(|&l| l >= GAP_LEVELS.len()) {
            return Err(SnapshotError::corrupt("invalid FST throttle levels"));
        }
        self.levels = levels;
        for s in &mut self.prev {
            s.cycles = dec.u64()?;
            s.instructions = dec.u64()?;
            s.mem_stall_cycles = dec.u64()?;
            s.l1_misses = dec.u64()?;
            s.llc_misses = dec.u64()?;
            s.mem_completed = dec.u64()?;
            s.mem_latency_sum = dec.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitts_sim::types::CoreId;

    fn window(stalls: &[u64], misses: &[u64]) -> Vec<CoreSignals> {
        stalls
            .iter()
            .zip(misses)
            .map(|(&s, &m)| CoreSignals {
                mem_stall_cycles: s,
                llc_misses: m,
                instructions: 10_000,
                ..CoreSignals::default()
            })
            .collect()
    }

    #[test]
    fn unfairness_triggers_throttling_of_heaviest() {
        let mut fst = Fst::with_params(2, 1_000, 1.2);
        let mut ctl = SourceControl::new(2);
        // Core 0 heavily stalled (victim); core 1 emits the traffic.
        let s = window(&[900, 50], &[10, 800]);
        fst.tick(1_000, &s, &mut ctl);
        assert_eq!(fst.levels()[1], 1, "offender throttled");
        assert_eq!(fst.levels()[0], 0, "victim stays free");
        let t = ctl.throttle(CoreId::new(1));
        assert_eq!(t.min_issue_gap, Some(8));
        assert_eq!(t.max_inflight, Some(8));
    }

    #[test]
    fn repeated_unfairness_escalates() {
        let mut fst = Fst::with_params(2, 1_000, 1.2);
        let mut ctl = SourceControl::new(2);
        for k in 1..=5 {
            // Stalls/misses accumulate (signals are cumulative).
            let s = window(&[900 * k, 50 * k], &[10 * k, 800 * k]);
            fst.tick(1_000 * k, &s, &mut ctl);
        }
        assert_eq!(fst.levels()[1], 5, "max throttle level reached");
        assert_eq!(ctl.throttle(CoreId::new(1)).min_issue_gap, Some(128));
    }

    #[test]
    fn fairness_releases_throttles() {
        let mut fst = Fst::with_params(2, 1_000, 2.0);
        let mut ctl = SourceControl::new(2);
        let s = window(&[900, 50], &[10, 800]);
        fst.tick(1_000, &s, &mut ctl); // unfair: throttle
        assert_eq!(fst.levels()[1], 1);
        // Now both cores look alike: fair, release.
        let s = window(&[950, 100], &[20, 810]);
        fst.tick(2_000, &s, &mut ctl);
        assert_eq!(fst.levels()[1], 0, "throttle released under fairness");
        assert_eq!(ctl.throttle(CoreId::new(1)).min_issue_gap, None);
    }

    #[test]
    fn evaluation_respects_interval() {
        let mut fst = Fst::with_params(2, 10_000, 1.1);
        let mut ctl = SourceControl::new(2);
        let s = window(&[900, 0], &[0, 500]);
        fst.tick(5_000, &s, &mut ctl); // before first boundary
        assert_eq!(fst.levels(), &[0, 0]);
    }
}
