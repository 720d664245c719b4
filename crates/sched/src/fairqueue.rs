//! Fair-queueing memory scheduling (after Nesbit et al., MICRO 2006).
//!
//! Each thread receives a virtual private memory system running at `1/N`
//! of the real one. Every transaction is stamped with a *virtual finish
//! time* in its thread's virtual clock; the scheduler services the
//! startable transaction with the earliest virtual finish time, giving
//! each thread its allocated fraction of memory bandwidth regardless of
//! the load other threads present.

use std::collections::HashMap;

use mitts_sim::mc::{DramView, Scheduler, Transaction, TxnId};
use mitts_sim::types::{CoreId, Cycle};

/// Nominal service cost of one transaction in virtual-time units
/// (roughly a row-hit access in CPU cycles; only ratios matter).
const SERVICE_COST: u64 = 50;

/// The fair-queueing policy.
#[derive(Debug, Clone)]
pub struct FairQueue {
    cores: usize,
    /// Per-core virtual clock (last assigned virtual finish time).
    virtual_time: Vec<u64>,
    /// Virtual finish time of each queued transaction.
    finish: HashMap<TxnId, u64>,
}

impl FairQueue {
    /// Creates the policy for `cores` sharers.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        FairQueue { cores, virtual_time: vec![0; cores], finish: HashMap::new() }
    }

    fn vt(&mut self, core: CoreId) -> &mut u64 {
        &mut self.virtual_time[core.index()]
    }
}

impl Scheduler for FairQueue {
    fn name(&self) -> &str {
        "FairQueue"
    }

    fn on_enqueue(&mut self, now: Cycle, txn: &Transaction) {
        // Virtual start = max(thread's virtual clock, real arrival);
        // virtual finish = start + cost × number of sharers.
        let cores = self.cores as u64;
        let vt = self.vt(txn.core);
        let start = (*vt).max(now);
        let fin = start + SERVICE_COST * cores;
        *vt = fin;
        self.finish.insert(txn.id, fin);
    }

    fn pick(&mut self, _now: Cycle, pending: &[Transaction], view: &DramView<'_>)
        -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, t)| view.can_start(t.addr))
            .min_by_key(|(_, t)| {
                (
                    self.finish.get(&t.id).copied().unwrap_or(u64::MAX),
                    !view.is_row_hit(t.addr),
                    t.enqueued_at,
                    t.id,
                )
            })
            .map(|(i, _)| i)
    }

    fn on_complete(&mut self, _now: Cycle, txn: &Transaction, _row_hit: bool) {
        self.finish.remove(&txn.id);
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None // purely event-driven: state changes only on enqueue/complete
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("fair-queue")
    }

    fn save_state(&self, enc: &mut mitts_sim::snapshot::Enc) {
        enc.usize(self.cores);
        enc.u64s(&self.virtual_time);
        // The pending-finish book iterates in sorted TxnId order so the
        // encoding is deterministic regardless of HashMap layout.
        let mut pending: Vec<(TxnId, u64)> = self.finish.iter().map(|(&k, &v)| (k, v)).collect();
        pending.sort_unstable();
        enc.usize(pending.len());
        for (id, fin) in pending {
            enc.u64(id);
            enc.u64(fin);
        }
    }

    fn load_state(
        &mut self,
        dec: &mut mitts_sim::snapshot::Dec<'_>,
    ) -> Result<(), mitts_sim::snapshot::SnapshotError> {
        use mitts_sim::snapshot::SnapshotError;
        let cores = dec.usize()?;
        if cores != self.cores {
            return Err(SnapshotError::mismatch(format!(
                "fair-queue scheduler has {} cores but the snapshot holds {cores}",
                self.cores
            )));
        }
        let vt = dec.u64s()?;
        if vt.len() != self.virtual_time.len() {
            return Err(SnapshotError::corrupt("virtual-time vector length differs"));
        }
        self.virtual_time = vt;
        let n = dec.checked_len(16)?;
        self.finish.clear();
        for _ in 0..n {
            let id = dec.u64()?;
            let fin = dec.u64()?;
            self.finish.insert(id, fin);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitts_sim::config::{DramConfig, McConfig};
    use mitts_sim::dram::Dram;
    use mitts_sim::mc::MemoryController;
    use mitts_sim::types::MemCmd;

    #[test]
    fn virtual_time_advances_per_thread() {
        let mut fq = FairQueue::new(2);
        let t = |id, core| Transaction {
            id,
            core: CoreId::new(core),
            addr: 0,
            cmd: MemCmd::Read,
            enqueued_at: 0,
        };
        fq.on_enqueue(0, &t(0, 0));
        fq.on_enqueue(0, &t(1, 0));
        fq.on_enqueue(0, &t(2, 1));
        // Core 0's second request finishes after its first; core 1's
        // first request finishes with core 0's first.
        assert_eq!(fq.finish[&0], 100);
        assert_eq!(fq.finish[&1], 200);
        assert_eq!(fq.finish[&2], 100);
    }

    #[test]
    fn backlogged_thread_does_not_starve_light_thread() {
        // Core 0 floods 16 requests at t=0; core 1 submits one at t=0.
        // Fair queueing must service core 1's request among the first two.
        let mut fq = FairQueue::new(2);
        let mut mc = MemoryController::new(&McConfig::default());
        let mut dram: Dram<TxnId> = Dram::new(&DramConfig::default(), 2.4e9);
        for i in 0..16 {
            mc.try_enqueue(0, CoreId::new(0), i * 64, MemCmd::Read).unwrap();
        }
        let light = mc.try_enqueue(0, CoreId::new(1), 8 * 1024 * 4, MemCmd::Read).unwrap();
        let mut order = Vec::new();
        for now in 0..8_000 {
            for r in mc.drain_completions(now, &mut fq, &mut dram) {
                order.push(r.txn.id);
            }
            mc.tick(now, &mut fq, &mut dram, None);
        }
        let pos = order.iter().position(|&x| x == light).unwrap();
        assert!(pos <= 2, "light thread serviced at position {pos}: {order:?}");
    }

    #[test]
    fn completed_transactions_are_forgotten() {
        let mut fq = FairQueue::new(1);
        let txn = Transaction {
            id: 7,
            core: CoreId::new(0),
            addr: 0,
            cmd: MemCmd::Read,
            enqueued_at: 0,
        };
        fq.on_enqueue(0, &txn);
        assert!(fq.finish.contains_key(&7));
        fq.on_complete(10, &txn, true);
        assert!(!fq.finish.contains_key(&7));
    }
}
