//! Shared helpers for scheduler implementations.

use mitts_sim::mc::{DramView, Transaction};
use mitts_sim::types::CoreId;

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

#[cfg(test)]
mod tests {
    use super::*;
    use mitts_sim::config::{DramConfig, McConfig};
    use mitts_sim::dram::Dram;
    use mitts_sim::mc::{MemoryController, Scheduler, TxnId};
    use mitts_sim::types::{CoreId, MemCmd};

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

    fn drive(sched: &mut dyn Scheduler, reqs: &[(u64, usize)]) -> Vec<TxnId> {
        let mut mc = MemoryController::new(&McConfig::default());
        let mut dram: Dram<TxnId> = Dram::new(&DramConfig::default(), 2.4e9);
        for &(addr, core) in reqs {
            mc.try_enqueue(0, CoreId::new(core), addr, MemCmd::Read).unwrap();
        }
        let mut order = Vec::new();
        for now in 0..4_000 {
            for r in mc.drain_completions(now, sched, &mut dram) {
                order.push(r.txn.id);
            }
            mc.tick(now, sched, &mut dram, None);
        }
        order
    }

    #[test]
    fn ranked_pick_prefers_the_better_rank() {
        // Same row so no row-hit interference: core 1's requests go first.
        let order = drive(&mut RankedByCore, &[(0, 0), (64, 1), (128, 0), (192, 1)]);
        assert_eq!(order.len(), 4);
        let pos = |id: TxnId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(1) < pos(0) && pos(3) < pos(0), "{order:?}");
    }

    #[test]
    fn frfcfs_pick_filter_gates_eligibility() {
        let order = drive(&mut FilteredFrFcfs, &[(0, 0), (64, 0), (128, 0)]);
        // Even ids (0, 2) beat odd id 1 despite age.
        let pos = |id: TxnId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(0) < pos(1) && pos(2) < pos(1), "{order:?}");
    }
}
