//! FR-FCFS: first-ready, first-come-first-served memory scheduling
//! (Rixner et al., ISCA 2000) — the throughput-oriented default in most
//! memory controllers and the base ordering inside most other policies.
//!
//! Row-buffer hits are serviced before non-hits; age breaks ties. The
//! well-known drawback the paper leans on: applications with high
//! row-buffer locality or high memory intensity are implicitly favoured,
//! which can be very unfair.

use mitts_sim::mc::{DramView, Scheduler, Transaction};
use mitts_sim::types::Cycle;

use crate::common::frfcfs_pick;

/// The FR-FCFS policy.
#[derive(Debug, Clone, Default)]
pub struct FrFcfs;

impl FrFcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        FrFcfs
    }
}

impl Scheduler for FrFcfs {
    fn name(&self) -> &str {
        "FR-FCFS"
    }

    fn pick(&mut self, _now: Cycle, pending: &[Transaction], view: &DramView<'_>)
        -> Option<usize> {
        frfcfs_pick(pending, view, |_| true)
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None // stateless: pick is pure and tick is empty
    }

    fn conformance_policy(&self) -> Option<mitts_sim::oracle::PickPolicy> {
        Some(mitts_sim::oracle::PickPolicy::FrFcfs)
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("fr-fcfs")
    }

    fn load_state(
        &mut self,
        _dec: &mut mitts_sim::snapshot::Dec<'_>,
    ) -> Result<(), mitts_sim::snapshot::SnapshotError> {
        Ok(()) // stateless
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitts_sim::config::{DramConfig, McConfig};
    use mitts_sim::dram::Dram;
    use mitts_sim::mc::{MemoryController, TxnId};
    use mitts_sim::audit::AuditLog;
    use mitts_sim::oracle::PickOracle;
    use mitts_sim::types::{CoreId, MemCmd};

    /// Drives a controller+DRAM pair until `limit`, returning the order
    /// in which read transactions completed.
    fn completion_order(
        reqs: &[(u64, MemCmd)],
        sched: &mut dyn Scheduler,
        limit: Cycle,
    ) -> Vec<TxnId> {
        let mut mc = MemoryController::new(&McConfig::default());
        let mut dram: Dram<TxnId> = Dram::new(&DramConfig::default(), 2.4e9);
        for &(addr, cmd) in reqs {
            mc.try_enqueue(0, CoreId::new(0), addr, cmd).expect("fifo has room");
        }
        // Every pick must also be legal for the policy the scheduler claims.
        let mut picks = PickOracle::new(0, sched.conformance_policy());
        let mut log = AuditLog::new(64);
        let mut order = Vec::new();
        for now in 0..limit {
            for r in mc.drain_completions(now, sched, &mut dram) {
                order.push(r.txn.id);
            }
            mc.tick(now, sched, &mut dram, Some((&mut picks, &mut log)));
        }
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        order
    }

    #[test]
    fn row_hits_jump_ahead_of_older_conflicts() {
        // txn0 opens row 0 of bank 0. txn1 targets a different row of the
        // same bank (conflict); txn2 is a hit on the open row. FR-FCFS
        // must service txn2 before txn1 despite its younger age.
        let row_conflict = 8 * 1024 * 8; // bank 0, row 1
        let order = completion_order(
            &[(0, MemCmd::Read), (row_conflict, MemCmd::Read), (64, MemCmd::Read)],
            &mut FrFcfs::new(),
            3_000,
        );
        assert_eq!(order.len(), 3);
        let pos = |id: TxnId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(2) < pos(1), "row hit (2) must beat older conflict (1): {order:?}");
        assert_eq!(pos(0), 0);
    }

    #[test]
    fn age_breaks_ties_for_equal_row_status() {
        // All to the same row: pure FCFS order.
        let order = completion_order(
            &[(0, MemCmd::Read), (64, MemCmd::Read), (128, MemCmd::Read)],
            &mut FrFcfs::new(),
            3_000,
        );
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(FrFcfs::new().name(), "FR-FCFS");
    }
}
