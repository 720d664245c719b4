//! Shared helpers for scheduler implementations.

use mitts_sim::mc::{DramView, Transaction};
use mitts_sim::types::CoreId;
#[cfg(test)]
use mitts_sim::{mc::Scheduler, mc::TxnId, types::Cycle, types::MemCmd};

/// FR-FCFS order among the startable transactions in `pending` that
/// satisfy `filter`: row hits first, oldest first among equals. Returns
/// the index into `pending`.
pub fn frfcfs_pick<F>(pending: &[Transaction], view: &DramView<'_>, mut filter: F) -> Option<usize>
where
    F: FnMut(&Transaction) -> bool,
{
    pending
        .iter()
        .enumerate()
        .filter(|(_, t)| filter(t) && view.can_start(t.addr))
        .min_by_key(|(_, t)| (!view.is_row_hit(t.addr), t.enqueued_at, t.id))
        .map(|(i, _)| i)
}

/// Picks the startable transaction whose core has the best (smallest)
/// rank value; FR-FCFS breaks ties within a core. `rank` maps a core to
/// its priority (smaller = served first).
pub fn ranked_pick<R>(pending: &[Transaction], view: &DramView<'_>, mut rank: R) -> Option<usize>
where
    R: FnMut(CoreId) -> usize,
{
    pending
        .iter()
        .enumerate()
        .filter(|(_, t)| view.can_start(t.addr))
        .min_by_key(|(_, t)| (rank(t.core), !view.is_row_hit(t.addr), t.enqueued_at, t.id))
        .map(|(i, _)| i)
}

/// Drives a standalone controller and DRAM pair for cycles `0..cycles`
/// with `reqs` (address, core, command) enqueued at cycle 0, checking
/// every pick against the policy the scheduler claims. Returns the ids of
/// the transactions that completed, in completion order; a request's id
/// is its position in `reqs`.
#[cfg(test)]
pub(crate) fn completion_order(
    sched: &mut dyn Scheduler,
    reqs: &[(u64, usize, MemCmd)],
    cycles: Cycle,
) -> Vec<TxnId> {
    use mitts_sim::audit::AuditLog;
    use mitts_sim::config::{DramConfig, McConfig};
    use mitts_sim::dram::Dram;
    use mitts_sim::mc::MemoryController;
    use mitts_sim::oracle::PickOracle;

    let mut mc = MemoryController::new(&McConfig::default());
    let mut dram = Dram::new(&DramConfig::default(), 2.4e9);
    for &(addr, core, cmd) in reqs {
        mc.try_enqueue(0, CoreId::new(core), addr, cmd).expect("fifo has room");
    }
    let mut picks = PickOracle::new(0, sched.conformance_policy());
    let mut log = AuditLog::new(64);
    let mut order = Vec::new();
    for now in 0..cycles {
        for r in mc.drain_completions(now, sched, &mut dram) {
            order.push(r.txn.id);
        }
        mc.tick(now, sched, &mut dram, (&mut picks, &mut log));
    }
    assert!(log.violations().is_empty(), "{:?}", log.violations());
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitts_sim::types::MemCmd::Read;

    /// A scheduler wrapper that exposes the helpers directly.
    struct RankedByCore;
    impl Scheduler for RankedByCore {
        fn name(&self) -> &str {
            "ranked-test"
        }
        fn pick(
            &mut self,
            _now: u64,
            pending: &[Transaction],
            view: &DramView<'_>,
        ) -> Option<usize> {
            // Core 1 always outranks core 0.
            ranked_pick(pending, view, |core| usize::from(core.index() == 0))
        }
    }

    struct FilteredFrFcfs;
    impl Scheduler for FilteredFrFcfs {
        fn name(&self) -> &str {
            "filtered-test"
        }
        fn pick(
            &mut self,
            _now: u64,
            pending: &[Transaction],
            view: &DramView<'_>,
        ) -> Option<usize> {
            // Only even transaction ids are eligible.
            frfcfs_pick(pending, view, |t| t.id % 2 == 0)
                .or_else(|| frfcfs_pick(pending, view, |_| true))
        }
    }

    #[test]
    fn ranked_pick_prefers_the_better_rank() {
        // Same row so no row-hit interference: core 1's requests go first.
        let reqs = [(0, 0, Read), (64, 1, Read), (128, 0, Read), (192, 1, Read)];
        let order = completion_order(&mut RankedByCore, &reqs, 4_000);
        assert_eq!(order.len(), 4);
        let pos = |id: TxnId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(1) < pos(0) && pos(3) < pos(0), "{order:?}");
    }

    #[test]
    fn frfcfs_pick_filter_gates_eligibility() {
        let reqs = [(0, 0, Read), (64, 0, Read), (128, 0, Read)];
        let order = completion_order(&mut FilteredFrFcfs, &reqs, 4_000);
        // Even ids (0, 2) beat odd id 1 despite age.
        let pos = |id: TxnId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(0) < pos(1) && pos(2) < pos(1), "{order:?}");
    }
}
