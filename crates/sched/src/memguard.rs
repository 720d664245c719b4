//! MemGuard-style bandwidth reservation (after Yun et al., RTAS 2013).
//!
//! Each core reserves a *guaranteed* share of memory bandwidth as a
//! per-period budget of transactions; within the period, cores still
//! inside their budget have strict priority over cores that exhausted
//! theirs (whose traffic is serviced best-effort). The paper's criticism
//! (§V): MemGuard "does not account for system fairness as a demanding
//! application can potentially get the most memory bandwidth" through the
//! best-effort pool — visible here as well.

use mitts_sim::mc::{CoreSignals, DramView, Scheduler, SourceControl, Transaction};
use mitts_sim::types::Cycle;

use crate::common::frfcfs_pick;

/// The MemGuard policy.
#[derive(Debug, Clone)]
pub struct MemGuard {
    period: Cycle,
    next_reset: Cycle,
    /// Guaranteed transactions per period per core.
    budget: Vec<u64>,
    /// Transactions serviced this period per core.
    used: Vec<u64>,
}

impl MemGuard {
    /// Creates MemGuard with an even split of `total_budget` transactions
    /// per `period` cycles across `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `period == 0`.
    pub fn even_split(cores: usize, total_budget: u64, period: Cycle) -> Self {
        assert!(cores > 0, "need at least one core");
        let share = total_budget / cores as u64;
        MemGuard::per_core(vec![share; cores], period)
    }

    /// Creates MemGuard with explicit per-core budgets.
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty or `period == 0`.
    pub fn per_core(budgets: Vec<u64>, period: Cycle) -> Self {
        assert!(!budgets.is_empty(), "need at least one core");
        assert!(period > 0, "period must be positive");
        let n = budgets.len();
        MemGuard { period, next_reset: period, budget: budgets, used: vec![0; n] }
    }

    /// A practical default: reserve ~60 % of the DDR3-1333 channel's
    /// service capacity, split evenly. One transaction occupies the data
    /// bus for ~15 CPU cycles, so capacity ≈ period / 15.
    pub fn default_for(cores: usize, period: Cycle) -> Self {
        let capacity = period / 15;
        MemGuard::even_split(cores, capacity * 6 / 10, period)
    }

    /// Remaining guaranteed budget per core this period.
    pub fn remaining(&self) -> Vec<u64> {
        self.budget
            .iter()
            .zip(&self.used)
            .map(|(&b, &u)| b.saturating_sub(u))
            .collect()
    }

    fn in_budget(&self, core: usize) -> bool {
        self.used[core] < self.budget[core]
    }
}

impl Scheduler for MemGuard {
    fn name(&self) -> &str {
        "MemGuard"
    }

    fn pick(&mut self, _now: Cycle, pending: &[Transaction], view: &DramView<'_>)
        -> Option<usize> {
        // Guaranteed traffic first; best-effort only when no guaranteed
        // transaction is startable.
        frfcfs_pick(pending, view, |t| self.in_budget(t.core.index()))
            .or_else(|| frfcfs_pick(pending, view, |_| true))
    }

    fn on_complete(&mut self, _now: Cycle, txn: &Transaction, _row_hit: bool) {
        let i = txn.core.index();
        if i < self.used.len() {
            self.used[i] += 1;
        }
    }

    fn tick(&mut self, now: Cycle, _signals: &[CoreSignals], _ctl: &mut SourceControl) {
        if now >= self.next_reset {
            self.used.iter_mut().for_each(|u| *u = 0);
            self.next_reset = now + self.period;
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(self.next_reset.max(now + 1))
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("memguard")
    }

    fn save_state(&self, enc: &mut mitts_sim::snapshot::Enc) {
        enc.u64(self.period);
        enc.u64s(&self.budget);
        enc.u64(self.next_reset);
        enc.u64s(&self.used);
    }

    fn load_state(
        &mut self,
        dec: &mut mitts_sim::snapshot::Dec<'_>,
    ) -> Result<(), mitts_sim::snapshot::SnapshotError> {
        use mitts_sim::snapshot::SnapshotError;
        let period = dec.u64()?;
        let budget = dec.u64s()?;
        if period != self.period || budget != self.budget {
            return Err(SnapshotError::mismatch(
                "MemGuard budgets differ from the snapshotted ones",
            ));
        }
        self.next_reset = dec.u64()?;
        let used = dec.u64s()?;
        if used.len() != self.used.len() {
            return Err(SnapshotError::corrupt("MemGuard usage vector length differs"));
        }
        self.used = used;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::completion_order;
    use mitts_sim::mc::TxnId;
    use mitts_sim::types::{CoreId, MemCmd};

    #[test]
    fn budgets_split_evenly() {
        let mg = MemGuard::even_split(4, 100, 1000);
        assert_eq!(mg.remaining(), vec![25, 25, 25, 25]);
    }

    #[test]
    fn guaranteed_traffic_preempts_best_effort() {
        // Core 0 has zero budget (pure best effort); core 1 has budget.
        let mut mg = MemGuard::per_core(vec![0, 10], 100_000);
        let mut reqs: Vec<_> = (0..4).map(|i| (i * 64, 0, MemCmd::Read)).collect();
        reqs.push((8 * 1024 * 2, 1, MemCmd::Read));
        let vip: TxnId = 4;
        let first_done = completion_order(&mut mg, &reqs, 3_000).first().copied();
        assert_eq!(first_done, Some(vip), "in-budget core must be serviced first");
    }

    #[test]
    fn exhausted_budget_drops_to_best_effort() {
        let mut mg = MemGuard::per_core(vec![1, 1], 100_000);
        let t = |id, core| Transaction {
            id,
            core: CoreId::new(core),
            addr: 0,
            cmd: MemCmd::Read,
            enqueued_at: 0,
        };
        mg.on_complete(0, &t(0, 0), true);
        assert_eq!(mg.remaining(), vec![0, 1]);
    }

    #[test]
    fn period_reset_replenishes() {
        let mut mg = MemGuard::per_core(vec![1], 100);
        let mut ctl = SourceControl::new(1);
        let txn = Transaction {
            id: 0,
            core: CoreId::new(0),
            addr: 0,
            cmd: MemCmd::Read,
            enqueued_at: 0,
        };
        mg.on_complete(0, &txn, true);
        assert_eq!(mg.remaining(), vec![0]);
        mg.tick(100, &[CoreSignals::default()], &mut ctl);
        assert_eq!(mg.remaining(), vec![1]);
    }

    #[test]
    fn default_budget_is_sane() {
        let mg = MemGuard::default_for(4, 10_000);
        let total: u64 = mg.remaining().iter().sum();
        // 60% of 10_000/15 ≈ 400, split across 4 cores.
        assert!(total > 300 && total <= 400, "total budget {total}");
    }
}
