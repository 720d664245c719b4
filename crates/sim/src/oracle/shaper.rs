//! Independent reimplementation of the §III MITTS bin/credit machine.
//!
//! [`ShaperOracle`] checks one MITTS shaper (or one §IV-H shared pool)
//! against [`MittsSpec`], a deliberately naive model of the paper's
//! shaper: per-bin credit counters, inter-arrival bin selection by integer
//! division, eligibility scan, and `T_r` replenishment. It never shares
//! code with `mitts_core::MittsShaper` — the whole point is that the two
//! implementations can only agree if both match the specification.
//!
//! The invariant auditor feeds it from the issue stage and the LLC
//! feedback path. What is checked:
//!
//! * every grant must be a grant the spec allows **and** must be charged
//!   to the exact bin the spec's spend policy selects;
//! * every shaper stall episode of a sharer must consist solely of cycles
//!   on which the spec would also deny — a premature denial is as much a
//!   bug as an illegal grant;
//! * credit feedback and replenish boundaries are replayed in the same
//!   intra-cycle order the simulator uses (feedback → replenish → issue
//!   decision), and grants of a shared pool in issue order.
//!
//! Stall episodes are checked per segment, not per cycle. Between two
//! events (a grant by any sharer, LLC feedback, a replenish boundary) the
//! live credits are constant and the request bin only grows with the
//! gap, so the spec's first grant inside a segment is where the gap
//! reaches the cheapest live bin: one evaluation covers the segment.

use crate::audit::{AuditLog, AuditViolation, Invariant};
use crate::types::Cycle;

/// How the spec model feeds LLC hit/miss outcomes back into credits.
/// Mirrors the paper's options without referencing the production enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFeedback {
    /// Deduct at issue; refund the spent bin when the LLC reports a hit.
    DeductThenRefund,
    /// Deduct nothing at issue; deduct the token bin on a confirmed miss.
    DeductOnConfirm,
    /// Deduct at issue; ignore LLC outcomes (pure L1-miss shaping).
    PureL1,
}

/// Which eligible bin the spec model spends from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecPolicy {
    /// Spend from the **coarsest** (largest-index) eligible bin — the
    /// paper's default: preserve credits for expensive short gaps.
    CheapestEligible,
    /// Spend from the finest (smallest-index) eligible bin.
    MostExpensiveEligible,
}

/// Spec-side description of one MITTS shaper: everything the reference
/// model needs, independent of `mitts_core` types. A MITTS shaper states
/// it through [`crate::shaper::SourceShaper::contract`] (so the
/// *configuration* is shared while the *semantics* are reimplemented);
/// tests construct it directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MittsSpec {
    /// Maximum credits per inter-arrival bin (`K_i`).
    pub credits: Vec<u32>,
    /// Bin width `L` in cycles; bin `i` covers gaps `[iL, (i+1)L)`.
    pub interval: Cycle,
    /// Replenishment period `T_r` in cycles.
    pub period: Cycle,
    /// LLC feedback method.
    pub feedback: SpecFeedback,
    /// Spend policy over eligible bins.
    pub policy: SpecPolicy,
    /// Hardware cap on per-bin credits (refund clamp floor/ceiling).
    pub k_max: u32,
    /// Cycle this configuration was installed: credits are full then and
    /// the first replenish boundary is `installed_at + period`. A
    /// reinstall (even of the same configuration) restarts the oracle.
    pub installed_at: Cycle,
}

impl MittsSpec {
    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.credits.len()
    }

    /// Spec-side inter-arrival bin selection: integer division by `L`,
    /// clamped to the coarsest bin. The first request of a run has an
    /// infinite gap and must land in bin `N-1`.
    pub fn bin_for_gap(&self, gap: Cycle) -> usize {
        ((gap / self.interval) as usize).min(self.credits.len() - 1)
    }
}

/// An open shaper stall episode of one sharer: the next cycle not yet
/// spec-checked, or `None` once the episode diverged (reported once).
#[derive(Debug, Clone, Copy)]
struct Stall {
    core: usize,
    cursor: Option<Cycle>,
}

/// Checks one MITTS shaper's grants and stall episodes against a
/// [`MittsSpec`].
#[derive(Debug, Clone)]
pub struct ShaperOracle {
    spec: MittsSpec,
    /// Live credits per bin.
    live: Vec<u32>,
    /// Next replenish boundary.
    next_replenish: Cycle,
    /// Cycle of the most recent grant by any sharer, if any.
    last_issue: Option<Cycle>,
    stalls: Vec<Stall>,
    grants: u64,
    denied_cycles: u64,
}

impl ShaperOracle {
    /// Creates an oracle for `spec`. Panics if the spec is degenerate (no
    /// bins, zero interval or period) — such configs are rejected by
    /// `BinConfig` construction as well.
    pub fn new(spec: MittsSpec) -> Self {
        assert!(!spec.credits.is_empty(), "spec needs at least one bin");
        assert!(spec.interval >= 1, "bin interval must be >= 1");
        assert!(spec.period >= 1, "replenish period must be >= 1");
        ShaperOracle {
            live: spec.credits.clone(),
            next_replenish: spec.installed_at + spec.period,
            spec,
            last_issue: None,
            stalls: Vec::new(),
            grants: 0,
            denied_cycles: 0,
        }
    }

    /// The spec being checked against.
    pub fn spec(&self) -> &MittsSpec {
        &self.spec
    }

    /// Number of grants checked.
    pub fn grants_checked(&self) -> u64 {
        self.grants
    }

    /// Number of denied cycles covered by the stall-episode checks.
    pub fn denied_cycles_checked(&self) -> u64 {
        self.denied_cycles
    }

    /// Installs a new configuration (the shaper was reconfigured): open
    /// episodes are checked under the old spec up to `at` (exclusive),
    /// then credits and the replenish phase restart from `spec`. The gap
    /// clock and any grants still awaiting feedback carry over, as they
    /// do in the shaper.
    pub fn restart(&mut self, spec: MittsSpec, at: Cycle, log: &mut AuditLog) {
        self.check_stalls(|_| at, log);
        self.live = spec.credits.clone();
        self.next_replenish = spec.installed_at + spec.period;
        self.spec = spec;
    }

    fn report(&self, log: &mut AuditLog, at: Cycle, core: usize, detail: String) {
        log.record(AuditViolation {
            cycle: at,
            invariant: Invariant::ShaperBins,
            core: Some(core),
            detail,
        });
    }

    /// Applies every replenish boundary at or before `now` (the hardware
    /// resets all bins to `K_i` on each boundary; boundaries are never
    /// skipped even if several elapse at once).
    fn replenish_through(&mut self, now: Cycle) {
        while self.next_replenish <= now {
            self.live.copy_from_slice(&self.spec.credits);
            self.next_replenish += self.spec.period;
        }
    }

    /// The bin the spec's spend policy selects for a request whose
    /// inter-arrival bin is `request_bin`, or `None` if no bin at or
    /// below it has credit (a spec denial).
    fn eligible_bin(&self, request_bin: usize) -> Option<usize> {
        let range = 0..=request_bin;
        match self.spec.policy {
            SpecPolicy::CheapestEligible => range.rev().find(|&j| self.live[j] > 0),
            SpecPolicy::MostExpensiveEligible => range.into_iter().find(|&j| self.live[j] > 0),
        }
    }

    /// The request bin of a head request at cycle `now`.
    fn request_bin_at(&self, now: Cycle) -> usize {
        let gap = match self.last_issue {
            Some(prev) => now - prev,
            None => Cycle::MAX,
        };
        self.spec.bin_for_gap(gap)
    }

    /// Spec-checks that `core` was denied on every cycle of `[from, to)`,
    /// one evaluation per segment of constant credits. Returns `false`
    /// (after reporting the first cycle the spec would grant) on a
    /// divergence.
    fn check_denied(&mut self, core: usize, from: Cycle, to: Cycle, log: &mut AuditLog) -> bool {
        let mut c = from;
        while c < to {
            self.replenish_through(c);
            let end = to.min(self.next_replenish);
            // The spec first grants when the gap reaches the cheapest
            // live bin; with no prior grant the gap is already maximal.
            if let Some(cheapest) = self.live.iter().position(|&n| n > 0) {
                let reach = self.last_issue.map_or(c, |last| {
                    last.saturating_add((cheapest as Cycle).saturating_mul(self.spec.interval))
                });
                let first = c.max(reach);
                if first < end {
                    self.denied_cycles += first - from;
                    let rb = self.request_bin_at(first);
                    let bin = self.eligible_bin(rb).expect("the cheapest live bin is eligible");
                    self.report(
                        log,
                        first,
                        core,
                        format!(
                            "denial the spec would allow: request bin {rb}, \
                             eligible bin {bin} has {} live credit(s)",
                            self.live[bin]
                        ),
                    );
                    return false;
                }
            }
            c = end;
        }
        self.denied_cycles += to.saturating_sub(from);
        true
    }

    /// Checks every open episode up to `through(core)` (exclusive) and
    /// advances its cursor there.
    fn check_stalls(&mut self, through: impl Fn(usize) -> Cycle, log: &mut AuditLog) {
        for i in 0..self.stalls.len() {
            let Stall { core, cursor } = self.stalls[i];
            let Some(from) = cursor else { continue };
            let to = through(core);
            if to > from {
                let ok = self.check_denied(core, from, to, log);
                self.stalls[i].cursor = ok.then_some(to);
            }
        }
    }

    /// A stall episode of sharer `core` began at `now` (the spec must
    /// deny from `now` on).
    pub fn on_stall_begin(&mut self, core: usize, now: Cycle) {
        if !self.stalls.iter().any(|s| s.core == core) {
            self.stalls.push(Stall { core, cursor: Some(now) });
        }
    }

    /// The episode of `core` ended at `now`: cycles up to `now - 1` were
    /// denied.
    pub fn on_stall_end(&mut self, core: usize, now: Cycle, log: &mut AuditLog) {
        let Some(i) = self.stalls.iter().position(|s| s.core == core) else { return };
        let stall = self.stalls.swap_remove(i);
        if let Some(from) = stall.cursor {
            self.check_denied(core, from, now, log);
        }
    }

    /// Spec-checks every open episode through cycle `now` inclusive (an
    /// audit pass, after the cycle's issue stage).
    pub fn check_open(&mut self, now: Cycle, log: &mut AuditLog) {
        self.check_stalls(|_| now + 1, log);
    }

    /// Sharer `core` was granted at `now`, charged to `bin`. `issued_before`
    /// names the sharers whose issue decision at `now` preceded this grant
    /// (their episodes saw the pre-grant state at `now`).
    pub fn on_grant(
        &mut self,
        core: usize,
        now: Cycle,
        bin: u32,
        issued_before: impl Fn(usize) -> bool,
        log: &mut AuditLog,
    ) {
        self.on_stall_end(core, now, log);
        self.check_stalls(|c| if issued_before(c) { now + 1 } else { now }, log);
        self.replenish_through(now);
        self.grants += 1;

        let rb = self.request_bin_at(now);
        match self.eligible_bin(rb) {
            None => self.report(
                log,
                now,
                core,
                format!(
                    "grant the spec would deny: request bin {rb}, \
                     no bin <= {rb} has live credit (live = {:?})",
                    self.live
                ),
            ),
            Some(expected) if expected != bin as usize => self.report(
                log,
                now,
                core,
                format!(
                    "grant charged to bin {bin} but the spec's spend \
                     policy selects bin {expected} (request bin {rb}, \
                     live = {:?})",
                    self.live
                ),
            ),
            Some(_) => {}
        }

        // Track state using the *observed* bin so one mismatch does not
        // cascade into spurious downstream reports.
        let spent = (bin as usize).min(self.spec.bins() - 1);
        if self.spec.feedback != SpecFeedback::DeductOnConfirm && self.live[spent] > 0 {
            self.live[spent] -= 1;
        }
        self.last_issue = Some(now);
    }

    /// The LLC resolved a granted request charged to `bin` at `now` (the
    /// token the grant carried). The simulator applies the credit feedback
    /// in the same cycle, *before* the replenish/issue phase.
    pub fn on_feedback(&mut self, now: Cycle, bin: u32, hit: bool, log: &mut AuditLog) {
        self.check_stalls(|_| now, log);
        // Feedback lands before the cycle-`now` replenish boundary.
        self.replenish_through(now.saturating_sub(1));
        let bin = (bin as usize).min(self.spec.bins() - 1);
        match self.spec.feedback {
            SpecFeedback::DeductThenRefund if hit => {
                let cap = self.spec.credits[bin].clamp(1, self.spec.k_max);
                if self.live[bin] < cap {
                    self.live[bin] += 1;
                }
            }
            SpecFeedback::DeductOnConfirm if !hit && self.live[bin] > 0 => {
                self.live[bin] -= 1;
            }
            _ => {}
        }
    }

    /// Encodes the spec, the model state and the open episodes.
    pub(crate) fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        let s = &self.spec;
        enc.u32s(&s.credits);
        enc.u64(s.interval);
        enc.u64(s.period);
        enc.u8(s.feedback as u8);
        enc.u8(s.policy as u8);
        enc.u32(s.k_max);
        enc.u64(s.installed_at);
        enc.u32s(&self.live);
        enc.u64(self.next_replenish);
        enc.opt_u64(self.last_issue);
        enc.usize(self.stalls.len());
        for s in &self.stalls {
            enc.usize(s.core);
            enc.opt_u64(s.cursor);
        }
        enc.u64(self.grants);
        enc.u64(self.denied_cycles);
    }

    /// Restores state written by [`ShaperOracle::save_state`].
    pub(crate) fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let credits = dec.u32s()?;
        let (interval, period) = (dec.u64()?, dec.u64()?);
        let feedback = match dec.u8()? {
            0 => SpecFeedback::DeductThenRefund,
            1 => SpecFeedback::DeductOnConfirm,
            2 => SpecFeedback::PureL1,
            t => return Err(SnapshotError::corrupt(format!("invalid spec feedback tag {t}"))),
        };
        let policy = match dec.u8()? {
            0 => SpecPolicy::CheapestEligible,
            1 => SpecPolicy::MostExpensiveEligible,
            t => return Err(SnapshotError::corrupt(format!("invalid spec policy tag {t}"))),
        };
        let (k_max, installed_at) = (dec.u32()?, dec.u64()?);
        let live = dec.u32s()?;
        if credits.is_empty() || interval == 0 || period == 0 || live.len() != credits.len() {
            return Err(SnapshotError::corrupt("degenerate MITTS oracle spec"));
        }
        self.spec = MittsSpec { credits, interval, period, feedback, policy, k_max, installed_at };
        self.live = live;
        self.next_replenish = dec.u64()?;
        self.last_issue = dec.opt_u64()?;
        let n = dec.checked_len(9)?;
        self.stalls = (0..n)
            .map(|_| Ok(Stall { core: dec.usize()?, cursor: dec.opt_u64()? }))
            .collect::<Result<_, SnapshotError>>()?;
        self.grants = dec.u64()?;
        self.denied_cycles = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec2() -> MittsSpec {
        MittsSpec {
            credits: vec![1, 2],
            interval: 10,
            period: 100,
            feedback: SpecFeedback::PureL1,
            policy: SpecPolicy::CheapestEligible,
            k_max: 1024,
            installed_at: 0,
        }
    }

    /// A one-sharer oracle plus its log.
    fn oracle(spec: MittsSpec) -> (ShaperOracle, AuditLog) {
        (ShaperOracle::new(spec), AuditLog::new(64))
    }

    fn grant(o: &mut ShaperOracle, log: &mut AuditLog, now: Cycle, bin: u32) {
        o.on_grant(0, now, bin, |_| false, log);
    }

    #[test]
    fn bin_for_gap_matches_paper_boundaries() {
        let s = spec2();
        assert_eq!(s.bin_for_gap(0), 0);
        assert_eq!(s.bin_for_gap(9), 0);
        assert_eq!(s.bin_for_gap(10), 1); // boundary lands in the upper bin
        assert_eq!(s.bin_for_gap(19), 1);
        assert_eq!(s.bin_for_gap(20), 1); // clamped to the coarsest bin
        assert_eq!(s.bin_for_gap(Cycle::MAX), 1); // first-request infinite gap
    }

    #[test]
    fn legal_grant_sequence_is_clean() {
        let (mut o, mut log) = oracle(spec2());
        // First request: infinite gap -> bin 1, coarsest eligible is 1.
        grant(&mut o, &mut log, 5, 1);
        // Gap 2 -> bin 0; cheapest-eligible scans 0..=0, spends bin 0.
        grant(&mut o, &mut log, 7, 0);
        // Gap 13 -> bin 1; bin 1 still has one credit.
        grant(&mut o, &mut log, 20, 1);
        o.check_open(50, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert_eq!(o.grants_checked(), 3);
    }

    #[test]
    fn illegal_grant_is_flagged() {
        let (mut o, mut log) = oracle(spec2());
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 7, 0);
        // Gap 1 -> bin 0, but bin 0 is now empty: the spec denies.
        grant(&mut o, &mut log, 8, 0);
        assert_eq!(log.violations().len(), 1);
        assert!(log.violations()[0].detail.contains("spec would deny"));
        assert_eq!(log.violations()[0].invariant, Invariant::ShaperBins);
    }

    #[test]
    fn wrong_spend_bin_is_flagged() {
        let (mut o, mut log) = oracle(spec2());
        // Infinite gap -> request bin 1; CheapestEligible must spend 1.
        grant(&mut o, &mut log, 5, 0);
        assert_eq!(log.violations().len(), 1);
        assert!(log.violations()[0].detail.contains("spend"));
    }

    #[test]
    fn replenish_boundary_restores_credits() {
        let (mut o, mut log) = oracle(spec2());
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 7, 0);
        grant(&mut o, &mut log, 20, 1);
        // All credits spent; the boundary at 100 resets them.
        grant(&mut o, &mut log, 100, 1);
        o.check_open(150, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
    }

    #[test]
    fn premature_denial_is_flagged() {
        let (mut o, mut log) = oracle(spec2());
        // Credits are full; a stall episode claiming denial is a bug.
        o.on_stall_begin(0, 5);
        o.on_stall_end(0, 8, &mut log);
        assert_eq!(log.violations().len(), 1);
        assert!(log.violations()[0].detail.contains("spec would allow"));
    }

    #[test]
    fn genuine_denial_run_is_clean() {
        let (mut o, mut log) = oracle(spec2());
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 7, 0);
        grant(&mut o, &mut log, 20, 1);
        // Out of credits until 100: denial run [21, 99] is legal.
        o.on_stall_begin(0, 21);
        o.on_stall_end(0, 100, &mut log);
        o.check_open(120, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert_eq!(o.denied_cycles_checked(), 79);
    }

    #[test]
    fn denial_past_replenish_boundary_is_flagged() {
        let (mut o, mut log) = oracle(spec2());
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 7, 0);
        grant(&mut o, &mut log, 20, 1);
        // Claiming denial through cycle 105 crosses the boundary at 100,
        // where credits return: cycles 100..=104 are grants the spec allows.
        o.on_stall_begin(0, 21);
        o.on_stall_end(0, 105, &mut log);
        assert_eq!(log.violations().len(), 1);
        assert_eq!(log.violations()[0].cycle, 100);
    }

    #[test]
    fn open_episode_is_checked_at_each_audit_pass() {
        let (mut o, mut log) = oracle(spec2());
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 7, 0);
        grant(&mut o, &mut log, 20, 1);
        o.on_stall_begin(0, 21);
        o.check_open(63, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert_eq!(o.denied_cycles_checked(), 43);
        // Still denied at 127, past the boundary at 100: reported once.
        o.check_open(127, &mut log);
        o.check_open(191, &mut log);
        assert_eq!(log.violations().len(), 1);
        assert_eq!(log.violations()[0].cycle, 100);
    }

    #[test]
    fn denial_after_the_gap_reaches_a_live_bin_is_flagged_there() {
        let (mut o, mut log) = oracle(spec2());
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 7, 0);
        // Bin 1 keeps one credit; gap 10 (cycle 17) reaches it.
        o.on_stall_begin(0, 8);
        o.on_stall_end(0, 30, &mut log);
        assert_eq!(log.violations().len(), 1);
        assert_eq!(log.violations()[0].cycle, 17);
        assert_eq!(o.denied_cycles_checked(), 9);
    }

    #[test]
    fn shared_pool_checks_sharers_in_issue_order() {
        let spec = MittsSpec { credits: vec![0, 2], ..spec2() };
        // Core 0 spends one of the pool's bin-1 credits at 20; core 1
        // stalls from 21 until the gap reaches bin 1 at 30, where core 0
        // takes the last credit. Issued before core 0 at 30, core 1 saw
        // that credit, so its denial at 30 is a divergence.
        let (mut o, mut log) = oracle(spec.clone());
        o.on_grant(0, 20, 1, |_| false, &mut log);
        o.on_stall_begin(1, 21);
        o.on_grant(0, 30, 1, |c| c == 1, &mut log);
        assert_eq!(log.violations().len(), 1, "{:?}", log.violations());
        assert_eq!((log.violations()[0].cycle, log.violations()[0].core), (30, Some(1)));
        // Issued after the grant, core 1 is legally denied at 30 and
        // until the boundary at 100.
        let (mut o, mut log) = oracle(spec);
        o.on_grant(0, 20, 1, |_| false, &mut log);
        o.on_stall_begin(1, 21);
        o.on_grant(0, 30, 1, |_| false, &mut log);
        o.check_open(99, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert_eq!(o.denied_cycles_checked(), 79);
    }

    #[test]
    fn restart_installs_credits_and_phase_but_keeps_the_gap() {
        let (mut o, mut log) = oracle(spec2());
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 7, 0);
        grant(&mut o, &mut log, 20, 1);
        o.on_stall_begin(0, 21);
        // Reinstalled at 50: the denial run [21, 50) is checked under the
        // old spec, then credits are full again.
        o.restart(MittsSpec { installed_at: 50, ..spec2() }, 50, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        o.on_stall_end(0, 51, &mut log);
        assert_eq!(log.violations().len(), 1, "a full bin 1 grants at 50");
        // The next boundary is 150, not 100.
        let (mut o, mut log) = oracle(spec2());
        o.restart(MittsSpec { installed_at: 50, ..spec2() }, 50, &mut log);
        grant(&mut o, &mut log, 60, 1);
        grant(&mut o, &mut log, 61, 0);
        grant(&mut o, &mut log, 80, 1);
        o.on_stall_begin(0, 81);
        o.check_open(149, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
    }

    #[test]
    fn refund_feedback_replays_in_order() {
        let (mut o, mut log) =
            oracle(MittsSpec { feedback: SpecFeedback::DeductThenRefund, ..spec2() });
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 7, 0);
        grant(&mut o, &mut log, 20, 1);
        // LLC hit on the bin-0 grant refunds bin 0 at cycle 30 ...
        o.on_feedback(30, 0, true, &mut log);
        // ... so a bin-0 grant at 31 is legal again (gap 11 -> bin 1,
        // but bin 1 is empty; cheapest-eligible falls through to bin 0).
        grant(&mut o, &mut log, 31, 0);
        o.check_open(50, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
    }

    #[test]
    fn deduct_on_confirm_spends_at_miss_not_issue() {
        let (mut o, mut log) =
            oracle(MittsSpec { feedback: SpecFeedback::DeductOnConfirm, ..spec2() });
        // Issue does not deduct: three bin-charged grants in a row are
        // fine while no miss confirms.
        grant(&mut o, &mut log, 5, 1);
        grant(&mut o, &mut log, 6, 0);
        grant(&mut o, &mut log, 7, 0);
        o.check_open(50, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
    }
}
