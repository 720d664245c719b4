//! Scheduler pick-legality oracle, run inline by the invariant auditor.
//!
//! The memory controller hands every dispatching pick to its channel's
//! [`PickOracle`] before the chosen transaction leaves the queue. The
//! oracle reads the queue and the DRAM view directly, taking for each
//! queued transaction the facts the scheduler saw (`startable`,
//! `row_hit`, `enqueued_at`), and re-derives the legal choice:
//!
//! * structural legality (any policy): the chosen transaction must have
//!   been startable;
//! * priority override: when a priority core is set and has a startable
//!   candidate, the controller must pick from that core, row-hit-first
//!   then oldest-first (this path bypasses the pluggable scheduler);
//! * policy conformance: schedulers that declare a [`PickPolicy`] via
//!   [`crate::mc::Scheduler::conformance_policy`] are held to it —
//!   FR-FCFS must pick the oldest row hit (oldest overall when no hit is
//!   startable), FCFS the oldest startable candidate, ids breaking ties.
//!
//! Findings go straight into the auditor's log as
//! `Invariant::SchedulerPick`. The check allocates nothing unless it
//! finds a violation.

use crate::audit::{AuditLog, AuditViolation, Invariant};
use crate::mc::{DramView, Transaction, TxnId};
use crate::types::{CoreId, Cycle};

/// The queue-ordering discipline a scheduler promises to implement.
/// Schedulers with dynamic or stateful orderings (fair queueing, TCM,
/// bandwidth reservation, ...) return `None` and get structural checks
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickPolicy {
    /// Row-hit-first, then oldest-first (enqueue stamp, then id).
    FrFcfs,
    /// Strictly oldest-first (enqueue stamp, then id).
    Fcfs,
}

impl PickPolicy {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            PickPolicy::FrFcfs => "fr-fcfs",
            PickPolicy::Fcfs => "fcfs",
        }
    }

    /// The candidate this policy must choose from `candidates`, or
    /// `None` if nothing is startable.
    fn best(self, candidates: impl Iterator<Item = PickCandidate>) -> Option<PickCandidate> {
        let startable = candidates.filter(|c| c.startable);
        match self {
            PickPolicy::FrFcfs => startable.min_by_key(|c| (!c.row_hit, c.enqueued_at, c.id)),
            PickPolicy::Fcfs => startable.min_by_key(|c| (c.enqueued_at, c.id)),
        }
    }
}

/// One queued transaction as the scheduler saw it at a pick: identity
/// plus the facts the legal choice depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PickCandidate {
    id: TxnId,
    /// Requesting core index.
    core: usize,
    /// Cycle the transaction entered the controller.
    enqueued_at: Cycle,
    /// Whether the bank could accept it this cycle (`can_start`).
    startable: bool,
    /// Whether it would hit the currently open row. Only startable
    /// candidates compete, so it is looked up only for those.
    row_hit: bool,
}

impl PickCandidate {
    fn of(txn: &Transaction, view: &DramView<'_>) -> Self {
        let startable = view.can_start(txn.addr);
        PickCandidate {
            id: txn.id,
            core: txn.core.index(),
            enqueued_at: txn.enqueued_at,
            startable,
            row_hit: startable && view.is_row_hit(txn.addr),
        }
    }
}

/// Checks one channel's dispatching picks against the policy its
/// scheduler claims.
#[derive(Debug, Clone)]
pub struct PickOracle {
    channel: usize,
    policy: Option<PickPolicy>,
    picks: u64,
}

impl PickOracle {
    /// Creates channel `channel`'s oracle, holding its scheduler to
    /// `policy` (the value of
    /// [`crate::mc::Scheduler::conformance_policy`]; `None` keeps the
    /// structural and priority checks only).
    pub fn new(channel: usize, policy: Option<PickPolicy>) -> Self {
        PickOracle { channel, policy, picks: 0 }
    }

    /// Number of picks checked.
    pub fn picks_checked(&self) -> u64 {
        self.picks
    }

    /// Encodes the pick count (checkpoint support).
    pub(crate) fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64(self.picks);
    }

    /// Restores state written by [`PickOracle::save_state`].
    pub(crate) fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.picks = dec.u64()?;
        Ok(())
    }

    /// Checks the controller's pick of `queue[chosen]` at cycle `at`,
    /// made with `priority` as the priority-core override, before the
    /// transaction leaves the queue, recording findings in `log`.
    pub(crate) fn check_pick(
        &mut self,
        at: Cycle,
        queue: &[Transaction],
        chosen: usize,
        priority: Option<CoreId>,
        view: &DramView<'_>,
        log: &mut AuditLog,
    ) {
        let candidates = queue.iter().map(|t| PickCandidate::of(t, view));
        let chosen = PickCandidate::of(&queue[chosen], view);
        self.check(at, chosen, priority.map(CoreId::index), candidates, log);
    }

    fn report(&self, log: &mut AuditLog, at: Cycle, detail: String) {
        log.record(AuditViolation {
            cycle: at,
            invariant: Invariant::SchedulerPick,
            core: None,
            detail: format!("channel {}: {detail}", self.channel),
        });
    }

    /// Checks one pick of `chosen` among `candidates` (which include it).
    fn check<I>(
        &mut self,
        at: Cycle,
        chosen: PickCandidate,
        priority: Option<usize>,
        candidates: I,
        log: &mut AuditLog,
    ) where
        I: Iterator<Item = PickCandidate> + Clone,
    {
        self.picks += 1;
        if !chosen.startable {
            self.report(log, at, format!("chosen txn {} was not startable (bank busy)", chosen.id));
            return;
        }

        // Priority-core override path (row-hit-first within the core).
        if let Some(p) = priority {
            if let Some(best) = PickPolicy::FrFcfs.best(candidates.clone().filter(|c| c.core == p)) {
                if chosen.core != p {
                    self.report(
                        log,
                        at,
                        format!(
                            "priority core {p} had startable txn {} but \
                             txn {} from core {} was chosen",
                            best.id, chosen.id, chosen.core
                        ),
                    );
                } else if chosen.id != best.id {
                    self.report(
                        log,
                        at,
                        format!(
                            "priority pick chose txn {} but row-hit/oldest \
                             order selects txn {}",
                            chosen.id, best.id
                        ),
                    );
                }
                return;
            }
        }

        if let Some(policy) = self.policy {
            let best = policy
                .best(candidates)
                .expect("chosen is startable, so a best candidate exists");
            if chosen.id != best.id {
                self.report(
                    log,
                    at,
                    format!(
                        "{} order selects txn {} but txn {} was chosen \
                         (chosen: row_hit={} enq={}; best: row_hit={} enq={})",
                        policy.label(),
                        best.id,
                        chosen.id,
                        chosen.row_hit,
                        chosen.enqueued_at,
                        best.row_hit,
                        best.enqueued_at,
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u64, core: usize, enq: Cycle, startable: bool, row_hit: bool) -> PickCandidate {
        PickCandidate { id, core, enqueued_at: enq, startable, row_hit }
    }

    /// Checks a pick of txn `chosen` among `cands` under a fresh oracle.
    fn pick(
        policy: Option<PickPolicy>,
        chosen: u64,
        priority: Option<usize>,
        cands: &[PickCandidate],
    ) -> Vec<AuditViolation> {
        let mut o = PickOracle::new(0, policy);
        let mut log = AuditLog::new(64);
        let c = *cands.iter().find(|c| c.id == chosen).expect("chosen is a candidate");
        o.check(100, c, priority, cands.iter().copied(), &mut log);
        assert_eq!(o.picks_checked(), 1);
        log.violations().to_vec()
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_miss() {
        // Txn 2 is younger but a row hit: FR-FCFS must take it.
        let cands = [cand(1, 0, 10, true, false), cand(2, 1, 20, true, true)];
        let v = pick(Some(PickPolicy::FrFcfs), 2, None, &cands);
        assert!(v.is_empty(), "{v:?}");
        // Choosing the older miss instead is a violation.
        assert_eq!(pick(Some(PickPolicy::FrFcfs), 1, None, &cands).len(), 1);
    }

    #[test]
    fn fcfs_requires_oldest_startable() {
        // Oldest (txn 1) is not startable: txn 2 is the legal choice.
        let cands = [cand(1, 0, 10, false, false), cand(2, 1, 20, true, true)];
        let v = pick(Some(PickPolicy::Fcfs), 2, None, &cands);
        assert!(v.is_empty(), "{v:?}");
        // Skipping the startable oldest is a violation.
        let cands = [cand(1, 0, 10, true, false), cand(3, 1, 30, true, true)];
        let v = pick(Some(PickPolicy::Fcfs), 3, None, &cands);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].cycle, 100);
        assert!(v[0].detail.starts_with("channel 0: "), "{v:?}");
    }

    #[test]
    fn structural_checks_apply_without_a_policy() {
        let v = pick(None, 1, None, &[cand(1, 0, 10, false, false)]);
        assert!(v[0].detail.contains("not startable"));
    }

    #[test]
    fn priority_core_overrides_global_order() {
        // Priority core 1 has a startable candidate; even a policy-less
        // oracle must see the pick come from core 1, row-hit-first.
        let cands = [
            cand(1, 0, 10, true, true),  // global FR-FCFS best
            cand(2, 1, 20, true, false),
            cand(3, 1, 30, true, true),  // priority best (row hit)
        ];
        let v = pick(Some(PickPolicy::FrFcfs), 3, Some(1), &cands);
        assert!(v.is_empty(), "{v:?}");
        // Picking core 0's txn while core 1 is serviceable is flagged.
        let v = pick(Some(PickPolicy::FrFcfs), 1, Some(1), &cands);
        assert!(v[0].detail.contains("priority core"));
        // Picking the wrong candidate within the priority core is flagged.
        let v = pick(None, 2, Some(1), &cands);
        assert!(v[0].detail.contains("row-hit/oldest"));
    }

    #[test]
    fn priority_core_with_nothing_startable_falls_through() {
        let cands = [cand(1, 0, 10, true, false), cand(2, 1, 20, false, true)];
        let v = pick(Some(PickPolicy::FrFcfs), 1, Some(1), &cands);
        assert!(v.is_empty(), "{v:?}");
    }
}
