//! Memory controller: global smoothing FIFO, transaction queue, and the
//! pluggable [`Scheduler`] interface that baseline policies (FR-FCFS, TCM,
//! MISE, ...) implement.
//!
//! §III-C of the paper uses a small (32-entry) FIFO at the memory
//! controller to absorb global burstiness when many cores spend
//! low-inter-arrival credits simultaneously; requests back up to the cores
//! when it fills. That FIFO sits in front of the scheduler's 32-entry
//! transaction queue (Table II).

use std::collections::VecDeque;

use crate::config::McConfig;
use crate::dram::{BankStatus, Dram, DramCompletion, DramServiceTiming};
use crate::audit::AuditLog;
use crate::oracle::PickOracle;
use crate::types::{Addr, CoreId, Cycle, MemCmd};

/// Unique identifier of a memory transaction at the controller.
pub type TxnId = u64;

/// One memory transaction (an LLC miss or a writeback) as seen by the
/// controller and its scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Controller-assigned id, also used as the DRAM token.
    pub id: TxnId,
    /// Core/program on whose behalf the transaction was generated.
    pub core: CoreId,
    /// Byte address (line-aligned).
    pub addr: Addr,
    /// Read (demand miss) or write (writeback).
    pub cmd: MemCmd,
    /// Cycle the transaction entered the global FIFO.
    pub enqueued_at: Cycle,
}

/// Read-only view of DRAM state offered to schedulers at pick time.
#[derive(Debug)]
pub struct DramView<'a> {
    dram: &'a Dram<TxnId>,
    now: Cycle,
}

impl<'a> DramView<'a> {
    /// Whether the bank owning `addr` can accept a transaction this cycle.
    pub fn can_start(&self, addr: Addr) -> bool {
        self.dram.can_start(self.now, addr)
    }

    /// Whether `addr` currently hits its bank's open row.
    pub fn is_row_hit(&self, addr: Addr) -> bool {
        self.dram.is_row_hit(addr)
    }

    /// Per-bank status snapshot.
    pub fn bank_status(&self) -> Vec<BankStatus> {
        self.dram.bank_status()
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }
}

/// One core's cumulative counters: the only per-core counter view. The
/// system refreshes one per core every real tick and hands the table to
/// schedulers, enabling application-aware policies (TCM clustering, FST
/// slowdown estimation, MISE service rates); [`System::core_snapshot`]
/// returns the same record, and [`CoreSignals::delta`] of two of them is
/// the view over a window.
///
/// [`System::core_snapshot`]: crate::system::System::core_snapshot
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreSignals {
    /// Cycles simulated so far.
    pub cycles: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Cycles the core's ROB head was blocked on memory so far.
    pub mem_stall_cycles: u64,
    /// L1 misses so far (shaper-visible requests).
    pub l1_misses: u64,
    /// LLC misses attributed to this core so far (memory requests).
    pub llc_misses: u64,
    /// Memory transactions completed (L1 fills delivered) for this core so
    /// far.
    pub mem_completed: u64,
    /// L1-miss-to-fill latency summed over completed transactions.
    pub mem_latency_sum: u64,
}

impl CoreSignals {
    /// Element-wise difference `self - earlier` (saturating): the counts
    /// over the window between two records.
    pub fn delta(&self, earlier: &CoreSignals) -> CoreSignals {
        CoreSignals {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            instructions: self.instructions.saturating_sub(earlier.instructions),
            mem_stall_cycles: self.mem_stall_cycles.saturating_sub(earlier.mem_stall_cycles),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            llc_misses: self.llc_misses.saturating_sub(earlier.llc_misses),
            mem_completed: self.mem_completed.saturating_sub(earlier.mem_completed),
            mem_latency_sum: self.mem_latency_sum.saturating_sub(earlier.mem_latency_sum),
        }
    }

    /// Misses per kilo-instruction at the LLC (memory intensity metric used
    /// by TCM).
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cycles)
    }

    /// Memory request service rate (fills per cycle) — the quantity
    /// MISE's slowdown estimator is built on.
    pub fn service_rate(&self) -> f64 {
        ratio(self.mem_completed, self.cycles)
    }

    /// Fraction of cycles stalled on memory.
    pub fn stall_fraction(&self) -> f64 {
        ratio(self.mem_stall_cycles, self.cycles)
    }
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Source-side throttle commands a scheduler may impose on cores
/// (the feedback path used by FST and MemGuard).
///
/// The system enforces these at the L1-miss issue point each cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreThrottle {
    /// Cap on outstanding shaper-issued requests (None = MSHR-limited).
    pub max_inflight: Option<u32>,
    /// Minimum cycles between consecutive request issues (None = free).
    pub min_issue_gap: Option<u32>,
}

/// The set of per-core throttles (indexed by core).
#[derive(Debug, Clone, Default)]
pub struct SourceControl {
    throttles: Vec<CoreThrottle>,
}

impl SourceControl {
    /// Creates neutral (no-throttle) controls for `cores` cores.
    pub fn new(cores: usize) -> Self {
        SourceControl { throttles: vec![CoreThrottle::default(); cores] }
    }

    /// Throttle for `core`.
    pub fn throttle(&self, core: CoreId) -> CoreThrottle {
        self.throttles[core.index()]
    }

    /// Mutable throttle for `core`.
    pub fn throttle_mut(&mut self, core: CoreId) -> &mut CoreThrottle {
        &mut self.throttles[core.index()]
    }

    /// Resets every core to unthrottled.
    pub fn clear(&mut self) {
        self.throttles.iter_mut().for_each(|t| *t = CoreThrottle::default());
    }

    /// Number of cores covered.
    pub fn cores(&self) -> usize {
        self.throttles.len()
    }

    /// Whether any core currently has a throttle configured. Lets the
    /// issue path skip per-core throttle checks entirely when no policy
    /// has imposed limits.
    pub fn any_limits(&self) -> bool {
        self.throttles.iter().any(|t| *t != CoreThrottle::default())
    }

    /// Encodes every core's throttle (checkpoint support).
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.usize(self.throttles.len());
        for t in &self.throttles {
            enc.opt_u64(t.max_inflight.map(u64::from));
            enc.opt_u64(t.min_issue_gap.map(u64::from));
        }
    }

    /// Restores state written by [`SourceControl::save_state`].
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = dec.usize()?;
        if n != self.throttles.len() {
            return Err(SnapshotError::mismatch(format!(
                "source control covers {n} cores in the snapshot, {} configured",
                self.throttles.len()
            )));
        }
        let narrow = |v: Option<u64>| -> Result<Option<u32>, SnapshotError> {
            v.map(|x| {
                u32::try_from(x).map_err(|_| SnapshotError::corrupt("throttle value overflow"))
            })
            .transpose()
        };
        for t in &mut self.throttles {
            t.max_inflight = narrow(dec.opt_u64()?)?;
            t.min_issue_gap = narrow(dec.opt_u64()?)?;
        }
        Ok(())
    }
}

/// Encodes a [`Transaction`] (shared by the controller queue, in-flight
/// book, and the system's backlog snapshots).
pub(crate) fn enc_txn(enc: &mut crate::snapshot::Enc, t: &Transaction) {
    enc.u64(t.id);
    enc.usize(t.core.index());
    enc.u64(t.addr);
    enc.bool(t.cmd.is_read());
    enc.u64(t.enqueued_at);
}

/// Decodes a [`Transaction`] written by [`enc_txn`].
pub(crate) fn dec_txn(
    dec: &mut crate::snapshot::Dec<'_>,
) -> Result<Transaction, crate::snapshot::SnapshotError> {
    Ok(Transaction {
        id: dec.u64()?,
        core: CoreId::new(dec.usize()?),
        addr: dec.u64()?,
        cmd: if dec.bool()? { MemCmd::Read } else { MemCmd::Write },
        enqueued_at: dec.u64()?,
    })
}

/// A memory-request scheduling policy.
///
/// Implementations receive the pending transaction queue and pick which
/// startable transaction the controller should dispatch next. Epoch-based
/// policies use [`Scheduler::tick`] to observe per-core signals and
/// optionally steer source throttles.
pub trait Scheduler {
    /// Human-readable policy name (used in experiment tables).
    fn name(&self) -> &str;

    /// Notification that `txn` entered the transaction queue.
    fn on_enqueue(&mut self, _now: Cycle, _txn: &Transaction) {}

    /// Chooses the index (into `pending`) of the transaction to dispatch,
    /// or `None` to idle. Only indices for which
    /// `view.can_start(pending[i].addr)` holds may be returned; the
    /// auditor's pick oracle records any other index, and the controller
    /// does not start it.
    ///
    /// The contract the skip engine relies on: `pick` returns `None`
    /// whenever no pending transaction can start, and a `None` pick
    /// changes no state. The skip engine's controller therefore asks only
    /// once its dispatch fence is due (some queued transaction can start;
    /// see [`MemoryController::tick`]), while the naive engine asks on
    /// every cycle with a non-empty queue.
    fn pick(&mut self, now: Cycle, pending: &[Transaction], view: &DramView<'_>)
        -> Option<usize>;

    /// Notification that `txn` finished (data transferred).
    fn on_complete(&mut self, _now: Cycle, _txn: &Transaction, _row_hit: bool) {}

    /// Periodic hook with fresh per-core signals; source-throttling
    /// policies write `ctl`. The naive engine calls it every cycle. The
    /// skip engine calls it only on the cycle its last
    /// [`Scheduler::next_event`] named (and on the first cycle of every
    /// run call), so a policy must keep the contract stated there.
    fn tick(&mut self, _now: Cycle, _signals: &[CoreSignals], _ctl: &mut SourceControl) {}

    /// Earliest cycle strictly after `now` at which this policy's
    /// per-cycle behaviour ([`Scheduler::tick`] or a stateful
    /// [`Scheduler::pick`]) changes anything. `None` means the policy is
    /// purely event-driven (it only reacts to enqueue/pick/complete) and
    /// its `tick` never needs to run.
    ///
    /// The default is the conservative `Some(now + 1)`: a policy that has
    /// not been audited for skip-safety is ticked every cycle and never
    /// lets the skip engine jump over its ticks. Overriding this is a
    /// contract, which the skip engine relies on both when it skips and
    /// when it caches the answer after a tick:
    ///
    /// - before the returned cycle, `tick(now', ..)` changes nothing at
    ///   every `now'`, even on cycles with enqueues, picks and
    ///   completions. A per-cycle statistic is kept as a time integral
    ///   folded in at those events, never bumped by `tick`;
    /// - `on_enqueue`, `pick` and `on_complete` must never make the
    ///   answer earlier;
    /// - `pick` must be side-effect-free when it would return `None`;
    /// - a tick that re-applies the policy's throttles to `ctl` is not a
    ///   no-op: another channel's policy may overwrite the same controls
    ///   on any tick of a run call. A policy that re-applies them every
    ///   tick returns `now + 1` while it holds them. The caller's writes
    ///   between run calls are covered too: each call ticks every hook.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// A no-op that nothing calls: before [`Scheduler::next_event`] a
    /// tick changes nothing, so the skip engine replays no scheduler
    /// cycles.
    #[deprecated(note = "the skip engine replays no scheduler cycles; this is a no-op")]
    fn note_idle_cycles(&mut self, _cycles: Cycle) {}

    /// The queue-ordering discipline this policy promises to follow. The
    /// system reads it once, at build time, to set up the channel's
    /// [`PickOracle`], which the auditor runs on every dispatching pick
    /// whenever auditing is on. `None` (the default) means the ordering
    /// is dynamic or stateful: only structural pick legality and the
    /// priority override are checked.
    ///
    /// Declaring a policy is a contract: every `pick` must return the
    /// startable transaction that ordering selects (ties broken by
    /// enqueue stamp, then id).
    fn conformance_policy(&self) -> Option<crate::oracle::PickPolicy> {
        None
    }

    /// Stable identifier of this policy's checkpoint payload, or `None`
    /// when the policy does not support checkpointing. A system holding a
    /// policy that returns `None` refuses to snapshot (with a clear
    /// error) rather than silently dropping scheduler state.
    fn snapshot_kind(&self) -> Option<&'static str> {
        None
    }

    /// Encodes all mutable policy state (checkpoint support). Only called
    /// when [`Scheduler::snapshot_kind`] is `Some`.
    fn save_state(&self, _enc: &mut crate::snapshot::Enc) {}

    /// Restores state written by [`Scheduler::save_state`]. The system
    /// verifies [`Scheduler::snapshot_kind`] matches before calling this.
    fn load_state(
        &mut self,
        _dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        Err(crate::snapshot::SnapshotError::unsupported(format!(
            "scheduler `{}`",
            self.name()
        )))
    }
}

/// First-come-first-served: always the oldest startable transaction.
///
/// The simplest correct policy; also the fallback inside the controller's
/// priority override. Richer baselines live in the `mitts-sched` crate.
#[derive(Debug, Clone, Default)]
pub struct FcfsScheduler;

impl FcfsScheduler {
    /// Creates the policy.
    pub fn new() -> Self {
        FcfsScheduler
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None // stateless: pick is pure, tick is empty
    }

    fn pick(&mut self, _now: Cycle, pending: &[Transaction], view: &DramView<'_>)
        -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, t)| view.can_start(t.addr))
            .min_by_key(|(_, t)| (t.enqueued_at, t.id))
            .map(|(i, _)| i)
    }

    fn conformance_policy(&self) -> Option<crate::oracle::PickPolicy> {
        Some(crate::oracle::PickPolicy::Fcfs)
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("fcfs")
    }

    fn load_state(
        &mut self,
        _dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        Ok(()) // stateless
    }
}

/// One dispatch, as returned by [`MemoryController::tick`]: the
/// transaction, when it left the queue, and the DRAM command timing the
/// device derived for it. Checked by the auditor's DDR3 oracle and traced
/// as `dram_dispatch` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The dispatched transaction.
    pub txn: Transaction,
    /// Dispatch cycle.
    pub at: Cycle,
    /// Derived DRAM command timing for the service.
    pub timing: DramServiceTiming,
}

/// A completed read transaction handed back to the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McResponse {
    /// The original transaction.
    pub txn: Transaction,
    /// Completion cycle.
    pub done_at: Cycle,
}

/// The memory controller.
pub struct MemoryController {
    fifo: VecDeque<Transaction>,
    fifo_depth: usize,
    queue: Vec<Transaction>,
    queue_depth: usize,
    next_id: TxnId,
    /// When set, transactions from this core are dispatched first
    /// (FR-FCFS among them) regardless of the scheduler — the mechanism
    /// behind MISE-style highest-priority sampling (§IV-B).
    priority_core: Option<CoreId>,
    /// Transactions dispatched to DRAM, awaiting completion, with their
    /// dispatch cycle (for the auditor's lost-completion check).
    inflight: Vec<(Transaction, Cycle)>,
    // Statistics.
    dispatched: u64,
    completed_reads: u64,
    completed_writes: u64,
    /// Queue-length samples, one per cycle before its refill, folded
    /// through `occupancy_since - 1` (`MemoryController::fold_occupancy`).
    queue_occupancy_sum: u64,
    occupancy_since: Cycle,
    fifo_rejections: u64,
    /// Reused by [`MemoryController::drain_completions_into`] so the
    /// per-tick completion drain does not allocate.
    completion_scratch: Vec<DramCompletion<TxnId>>,
    /// The dispatch fence: the earliest cycle any queued transaction can
    /// start (`Dram::earliest_start`), `Cycle::MAX` with an empty queue,
    /// 0 when unknown. Bank state changes only in `Dram::start`, which
    /// only this controller calls, so a fenced tick cannot dispatch. A
    /// refill lowers it; a pick recomputes it. Maintained by gated ticks
    /// only, and reset by [`MemoryController::reset_fence`].
    fence: Cycle,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("fifo_len", &self.fifo.len())
            .field("queue_len", &self.queue.len())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

impl MemoryController {
    /// Creates a controller with the given structure sizes.
    pub fn new(config: &McConfig) -> Self {
        MemoryController {
            fifo: VecDeque::with_capacity(config.global_fifo_depth),
            fifo_depth: config.global_fifo_depth,
            queue: Vec::with_capacity(config.txn_queue_depth),
            queue_depth: config.txn_queue_depth,
            next_id: 0,
            priority_core: None,
            inflight: Vec::new(),
            dispatched: 0,
            completed_reads: 0,
            completed_writes: 0,
            queue_occupancy_sum: 0,
            occupancy_since: 0,
            fifo_rejections: 0,
            completion_scratch: Vec::new(),
            fence: Cycle::MAX,
        }
    }

    /// Attempts to accept a new transaction into the global FIFO. Returns
    /// the assigned id, or `None` if the FIFO is full (backpressure to the
    /// LLC/cores, §III-C).
    pub fn try_enqueue(
        &mut self,
        now: Cycle,
        core: CoreId,
        addr: Addr,
        cmd: MemCmd,
    ) -> Option<TxnId> {
        if self.fifo.len() >= self.fifo_depth {
            self.fifo_rejections += 1;
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.fifo.push_back(Transaction { id, core, addr, cmd, enqueued_at: now });
        Some(id)
    }

    /// Sets (or clears) the highest-priority core override.
    pub fn set_priority_core(&mut self, core: Option<CoreId>) {
        self.priority_core = core;
    }

    /// The current highest-priority core, if any.
    pub fn priority_core(&self) -> Option<CoreId> {
        self.priority_core
    }

    /// One controller cycle: refill the transaction queue from the FIFO,
    /// then dispatch at most one transaction (command-bus limit) chosen by
    /// the scheduler (or the priority override), and return it. The pick
    /// is handed to the pick oracle `picks`, which records findings in
    /// its log, before the chosen transaction leaves the queue; a pick
    /// the DRAM cannot start is recorded there and not started.
    ///
    /// The scheduler is asked on every cycle with a non-empty queue. The
    /// system's skip engine asks only once the controller's dispatch
    /// fence, the earliest cycle some queued transaction can start, is
    /// due: by the [`Scheduler::pick`] contract a pick before it returns
    /// `None` and changes nothing.
    pub fn tick(
        &mut self,
        now: Cycle,
        scheduler: &mut dyn Scheduler,
        dram: &mut Dram<TxnId>,
        picks: (&mut PickOracle, &mut AuditLog),
    ) -> Option<DispatchRecord> {
        self.tick_gated(now, false, scheduler, dram, picks)
    }

    /// [`MemoryController::tick`] that, when `gate` holds, keeps the
    /// dispatch fence and asks the scheduler only on a cycle at or past
    /// it. By the [`Scheduler::pick`] contract (a pick returns `None`
    /// when nothing can start, and a `None` pick changes no state) a
    /// fenced cycle's pick is a no-op, so skipping it changes nothing.
    /// Each refilled transaction lowers the fence to its earliest start;
    /// every pick, dispatching or not, recomputes it from `now + 1`.
    pub(crate) fn tick_gated(
        &mut self,
        now: Cycle,
        gate: bool,
        scheduler: &mut dyn Scheduler,
        dram: &mut Dram<TxnId>,
        picks: (&mut PickOracle, &mut AuditLog),
    ) -> Option<DispatchRecord> {
        while self.queue.len() < self.queue_depth {
            match self.fifo.pop_front() {
                Some(txn) => {
                    scheduler.on_enqueue(now, &txn);
                    if gate {
                        self.fence = self.fence.min(dram.earliest_start(now, txn.addr));
                    }
                    self.fold_occupancy(now);
                    self.queue.push(txn);
                }
                None => break,
            }
        }

        if self.queue.is_empty() || (gate && now < self.fence) {
            return None;
        }
        let dispatched = self.dispatch(now, scheduler, dram, picks);
        if gate {
            self.fence = self.next_dispatch_opportunity(now + 1, dram).unwrap_or(Cycle::MAX);
        }
        dispatched
    }

    /// Asks for a pick and starts it when the DRAM can.
    fn dispatch(
        &mut self,
        now: Cycle,
        scheduler: &mut dyn Scheduler,
        dram: &mut Dram<TxnId>,
        picks: (&mut PickOracle, &mut AuditLog),
    ) -> Option<DispatchRecord> {
        let view = DramView { dram, now };
        let idx = self
            .priority_pick(&view)
            .or_else(|| scheduler.pick(now, &self.queue, &view))?;
        let (oracle, log) = picks;
        oracle.check_pick(now, &self.queue, idx, self.priority_core, &view, log);
        let txn = self.queue[idx];
        if !dram.can_start(now, txn.addr) {
            return None;
        }
        self.fold_occupancy(now);
        self.queue.swap_remove(idx);
        dram.start(now, txn.addr, txn.cmd, txn.id);
        self.dispatched += 1;
        self.inflight_push(txn, now);
        let timing = dram.last_service().expect("`start` records the service timing");
        Some(DispatchRecord { txn, at: now, timing })
    }

    /// The dispatch fence as [`MemoryController::tick_gated`] keeps it:
    /// `None` with an empty queue. After a gated tick it equals
    /// [`MemoryController::next_dispatch_opportunity`] from the next
    /// cycle.
    pub(crate) fn dispatch_fence(&self) -> Option<Cycle> {
        (self.fence != Cycle::MAX).then_some(self.fence)
    }

    /// Forgets the dispatch fence: due at once with a non-empty queue,
    /// never with an empty one. Needed whenever the queue or the DRAM's
    /// timing may have changed outside a gated tick: a restore, a timing
    /// change, or ticks under the naive engine, which do not keep it.
    pub(crate) fn reset_fence(&mut self) {
        self.fence = if self.queue.is_empty() { Cycle::MAX } else { 0 };
    }

    /// Folds the queue length into the occupancy integral through cycle
    /// `now`, just before the tick of `now` changes the queue: that
    /// tick's sample, taken before its refill, saw the old length.
    fn fold_occupancy(&mut self, now: Cycle) {
        self.queue_occupancy_sum += self.queue.len() as u64 * (now + 1 - self.occupancy_since);
        self.occupancy_since = now + 1;
    }

    /// Replays `cycles` skipped cycles' worth of FIFO rejections. The
    /// skip engine may skip windows where the LLC's controller backlog
    /// is stuck behind a full FIFO; each such cycle the LLC would have
    /// retried the backlog head exactly once and been rejected, so the
    /// skip must account the same number of rejections. Only legal when
    /// the FIFO has no room (the retry could not have succeeded).
    pub fn note_rejected_cycles(&mut self, cycles: u64) {
        debug_assert!(
            !self.fifo_has_room(),
            "rejection replay requires a full FIFO (a retry would have succeeded)"
        );
        self.fifo_rejections += cycles;
    }

    /// Whether a [`MemoryController::tick`] at this instant would move
    /// transactions from the global FIFO into the scheduling queue (work
    /// the skip engine must not skip).
    pub fn would_refill_queue(&self) -> bool {
        !self.fifo.is_empty() && self.queue.len() < self.queue_depth
    }

    /// Earliest cycle `>= now` at which any queued transaction becomes
    /// startable on `dram` (per-bank timing expiry), or `None` when the
    /// scheduling queue is empty. While every queued transaction is fenced
    /// out, `pick` cannot legally return anything, so the window up to this
    /// cycle is dead time for the controller.
    pub fn next_dispatch_opportunity(
        &self,
        now: Cycle,
        dram: &Dram<TxnId>,
    ) -> Option<Cycle> {
        self.queue.iter().map(|t| dram.earliest_start(now, t.addr)).min()
    }

    fn priority_pick(&self, view: &DramView<'_>) -> Option<usize> {
        let prio = self.priority_core?;
        // FR-FCFS among the priority core's startable transactions:
        // row hits first, oldest first among equals.
        self.queue
            .iter()
            .enumerate()
            .filter(|(_, t)| t.core == prio && view.can_start(t.addr))
            .min_by_key(|(_, t)| (!view.is_row_hit(t.addr), t.enqueued_at, t.id))
            .map(|(i, _)| i)
    }

    // In-flight transactions, so completions can be matched back.
    fn inflight_push(&mut self, txn: Transaction, now: Cycle) {
        self.inflight.push((txn, now));
    }

    /// Collects finished transactions from DRAM; returns completed *reads*
    /// (writebacks finish silently) and informs the scheduler of both.
    pub fn drain_completions(
        &mut self,
        now: Cycle,
        scheduler: &mut dyn Scheduler,
        dram: &mut Dram<TxnId>,
    ) -> Vec<McResponse> {
        let mut out = Vec::new();
        self.drain_completions_into(now, scheduler, dram, &mut out);
        out
    }

    /// Allocation-free form of [`MemoryController::drain_completions`]:
    /// appends finished reads to `out` (which the caller clears), reusing
    /// an internal buffer for the DRAM-side drain.
    pub fn drain_completions_into(
        &mut self,
        now: Cycle,
        scheduler: &mut dyn Scheduler,
        dram: &mut Dram<TxnId>,
        out: &mut Vec<McResponse>,
    ) {
        let mut done_buf = std::mem::take(&mut self.completion_scratch);
        dram.drain_completions_into(now, &mut done_buf);
        for done in done_buf.drain(..) {
            let idx = self
                .inflight
                .iter()
                .position(|(t, _)| t.id == done.token)
                .expect("completion for unknown transaction");
            let (txn, _) = self.inflight.swap_remove(idx);
            scheduler.on_complete(now, &txn, done.row_hit);
            match txn.cmd {
                MemCmd::Read => {
                    self.completed_reads += 1;
                    out.push(McResponse { txn, done_at: done.done_at });
                }
                MemCmd::Write => self.completed_writes += 1,
            }
        }
        self.completion_scratch = done_buf;
    }

    /// Pending (not yet dispatched) transactions in the scheduling queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Occupancy of the global smoothing FIFO.
    pub fn fifo_len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the FIFO has room for another transaction.
    pub fn fifo_has_room(&self) -> bool {
        self.fifo.len() < self.fifo_depth
    }

    /// Transactions dispatched to DRAM so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// (reads, writes) completed so far.
    pub fn completed(&self) -> (u64, u64) {
        (self.completed_reads, self.completed_writes)
    }

    /// Number of enqueue attempts rejected by a full FIFO.
    pub fn fifo_rejections(&self) -> u64 {
        self.fifo_rejections
    }

    /// Accumulated queue-occupancy samples, one per cycle before `now`
    /// (the first cycle not yet ticked), ticked or not: each is the queue
    /// length before that cycle's refill. The system clock is therefore
    /// the denominator of the mean
    /// ([`crate::stats::ChannelSystemStats::ticks`]).
    pub fn queue_occupancy_sum(&self, now: Cycle) -> u64 {
        self.queue_occupancy_sum + self.queue.len() as u64 * (now - self.occupancy_since)
    }

    /// Encodes the complete controller state: FIFO, scheduling queue (in
    /// exact order — `pick` indices and `swap_remove` make order
    /// architecturally significant), in-flight book, id allocator,
    /// priority override, and statistics, the occupancy integral folded
    /// through `now - 1` (checkpoint support).
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc, now: Cycle) {
        enc.usize(self.fifo.len());
        for t in &self.fifo {
            enc_txn(enc, t);
        }
        enc.usize(self.queue.len());
        for t in &self.queue {
            enc_txn(enc, t);
        }
        enc.u64(self.next_id);
        enc.opt_usize(self.priority_core.map(CoreId::index));
        enc.usize(self.inflight.len());
        for (t, at) in &self.inflight {
            enc_txn(enc, t);
            enc.u64(*at);
        }
        enc.u64(self.dispatched);
        enc.u64(self.completed_reads);
        enc.u64(self.completed_writes);
        enc.u64(self.queue_occupancy_sum(now));
        enc.u64(self.fifo_rejections);
    }

    /// Restores state written by [`MemoryController::save_state`] at
    /// `now`.
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
        now: Cycle,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let fifo_n = dec.usize()?;
        if fifo_n > self.fifo_depth {
            return Err(SnapshotError::mismatch(format!(
                "FIFO holds {fifo_n} transactions but depth is {}",
                self.fifo_depth
            )));
        }
        self.fifo.clear();
        for _ in 0..fifo_n {
            self.fifo.push_back(dec_txn(dec)?);
        }
        let queue_n = dec.usize()?;
        if queue_n > self.queue_depth {
            return Err(SnapshotError::mismatch(format!(
                "scheduling queue holds {queue_n} transactions but depth is {}",
                self.queue_depth
            )));
        }
        self.queue.clear();
        for _ in 0..queue_n {
            self.queue.push(dec_txn(dec)?);
        }
        self.next_id = dec.u64()?;
        self.priority_core = dec.opt_usize()?.map(CoreId::new);
        let inflight_n = dec.usize()?;
        self.inflight.clear();
        for _ in 0..inflight_n {
            let t = dec_txn(dec)?;
            let at = dec.u64()?;
            self.inflight.push((t, at));
        }
        self.dispatched = dec.u64()?;
        self.completed_reads = dec.u64()?;
        self.completed_writes = dec.u64()?;
        self.queue_occupancy_sum = dec.u64()?;
        self.occupancy_since = now;
        self.fifo_rejections = dec.u64()?;
        self.reset_fence();
        Ok(())
    }

    /// Number of transactions dispatched to DRAM and not yet completed.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Dispatch cycle of the oldest in-flight transaction, if any. Used by
    /// the invariant auditor: a dispatched transaction whose completion
    /// never returns from DRAM ages here without bound.
    pub fn oldest_inflight_dispatch(&self) -> Option<Cycle> {
        self.inflight.iter().map(|&(_, at)| at).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    #[test]
    fn signals_delta_saturates() {
        let a = CoreSignals { cycles: 10, instructions: 5, ..Default::default() };
        let b = CoreSignals { cycles: 25, instructions: 15, ..Default::default() };
        let d = b.delta(&a);
        assert_eq!(d.cycles, 15);
        assert_eq!(d.instructions, 10);
        // Reversed order saturates to zero instead of wrapping.
        let r = a.delta(&b);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn signals_window_rates() {
        let w = CoreSignals {
            cycles: 100,
            instructions: 250,
            mem_stall_cycles: 40,
            mem_completed: 10,
            ..Default::default()
        };
        assert!((w.ipc() - 2.5).abs() < 1e-12);
        assert!((w.service_rate() - 0.1).abs() < 1e-12);
        assert!((w.stall_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(CoreSignals::default().ipc(), 0.0, "an empty window has no rate");
    }

    fn setup() -> (MemoryController, Dram<TxnId>, FcfsScheduler) {
        (
            MemoryController::new(&McConfig::default()),
            Dram::new(&DramConfig::default(), 2.4e9),
            FcfsScheduler::new(),
        )
    }

    /// A pick oracle for the policy `sched` claims, and its log. Every
    /// pick of these tests must be legal for that policy.
    fn pick_check(sched: &dyn Scheduler) -> (PickOracle, AuditLog) {
        (PickOracle::new(0, sched.conformance_policy()), AuditLog::new(64))
    }

    fn run_until_done(
        mc: &mut MemoryController,
        dram: &mut Dram<TxnId>,
        sched: &mut dyn Scheduler,
        limit: Cycle,
    ) -> Vec<McResponse> {
        let (mut picks, mut log) = pick_check(sched);
        let mut responses = Vec::new();
        for now in 0..limit {
            responses.extend(mc.drain_completions(now, sched, dram));
            mc.tick(now, sched, dram, (&mut picks, &mut log));
        }
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        responses
    }

    #[test]
    fn single_read_completes() {
        let (mut mc, mut dram, mut sched) = setup();
        let id = mc.try_enqueue(0, CoreId::new(0), 0x1000, MemCmd::Read, ).unwrap();
        let resp = run_until_done(&mut mc, &mut dram, &mut sched, 500);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].txn.id, id);
        assert_eq!(mc.completed(), (1, 0));
        assert_eq!(mc.inflight_len(), 0);
    }

    #[test]
    fn writes_complete_silently() {
        let (mut mc, mut dram, mut sched) = setup();
        mc.try_enqueue(0, CoreId::new(0), 0x1000, MemCmd::Write).unwrap();
        let resp = run_until_done(&mut mc, &mut dram, &mut sched, 500);
        assert!(resp.is_empty());
        assert_eq!(mc.completed(), (0, 1));
    }

    #[test]
    fn fifo_backpressure() {
        let (mut mc, _dram, _sched) = setup();
        let mut accepted = 0;
        for i in 0..100 {
            if mc.try_enqueue(0, CoreId::new(0), i * 64, MemCmd::Read).is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 32, "FIFO depth is 32");
        assert!(!mc.fifo_has_room());
        assert_eq!(mc.fifo_rejections(), 68);
    }

    #[test]
    fn fcfs_services_in_arrival_order_same_bank() {
        let (mut mc, mut dram, mut sched) = setup();
        // Same bank, same row: strictly ordered by arrival under FCFS.
        let a = mc.try_enqueue(0, CoreId::new(0), 0, MemCmd::Read).unwrap();
        let b = mc.try_enqueue(1, CoreId::new(1), 64, MemCmd::Read).unwrap();
        let resp = run_until_done(&mut mc, &mut dram, &mut sched, 1000);
        assert_eq!(resp.len(), 2);
        assert_eq!(resp[0].txn.id, a);
        assert_eq!(resp[1].txn.id, b);
        assert!(resp[0].done_at < resp[1].done_at);
    }

    #[test]
    fn priority_core_jumps_the_queue() {
        let (mut mc, mut dram, mut sched) = setup();
        // Fill with core 0 traffic, then one core 1 request; prioritise 1.
        for i in 0..8 {
            mc.try_enqueue(0, CoreId::new(0), i * 64, MemCmd::Read).unwrap();
        }
        let vip = mc.try_enqueue(0, CoreId::new(1), 8 * 1024 * 3, MemCmd::Read).unwrap();
        mc.set_priority_core(Some(CoreId::new(1)));
        let resp = run_until_done(&mut mc, &mut dram, &mut sched, 2000);
        // The VIP transaction must be dispatched first.
        assert_eq!(resp.iter().min_by_key(|r| r.done_at).unwrap().txn.id, vip);
    }

    #[test]
    fn occupancy_integral_matches_per_cycle_samples() {
        // The reference counts the statistic as its definition reads: the
        // queue length before every tick. Bursts of traffic make ticks
        // refill and dispatch, often both on one cycle, and leave
        // stretches where neither happens.
        let (mut mc, mut dram, mut sched) = setup();
        let (mut picks, mut log) = pick_check(&sched);
        let (mut reference, mut refill_and_dispatch) = (0u64, 0);
        for now in 0..4_000 {
            if now % 97 < 12 {
                let addr = (now * 0x9E37_79B9 % (1 << 24)) & !63;
                mc.try_enqueue(now, CoreId::new(0), addr, MemCmd::Read);
            }
            mc.drain_completions(now, &mut sched, &mut dram);
            reference += mc.queue_len() as u64;
            let fifo = mc.fifo_len();
            let dispatched = mc.tick(now, &mut sched, &mut dram, (&mut picks, &mut log)).is_some();
            refill_and_dispatch += usize::from(dispatched && mc.fifo_len() < fifo);
            assert_eq!(mc.queue_occupancy_sum(now + 1), reference, "after the tick of {now}");
        }
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert!(refill_and_dispatch > 0, "no tick both refilled and dispatched");
        // A read long after the last tick counts the untouched cycles.
        let idle = mc.queue_len() as u64 * 500;
        assert_eq!(mc.queue_occupancy_sum(4_500), reference + idle);
    }

    #[test]
    fn would_refill_queue_tracks_fifo_and_room() {
        let (mut mc, mut dram, mut sched) = setup();
        assert!(!mc.would_refill_queue(), "empty controller has nothing to move");
        mc.try_enqueue(0, CoreId::new(0), 0, MemCmd::Read).unwrap();
        assert!(mc.would_refill_queue());
        let (mut picks, mut log) = pick_check(&sched);
        mc.tick(0, &mut sched, &mut dram, (&mut picks, &mut log));
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert!(!mc.would_refill_queue(), "FIFO drained into the queue");
    }

    #[test]
    fn next_dispatch_opportunity_matches_dram_fences() {
        let (mut mc, mut dram, mut sched) = setup();
        assert_eq!(mc.next_dispatch_opportunity(0, &dram), None);
        // Two same-bank transactions: the first dispatches, the second
        // waits for the bank.
        mc.try_enqueue(0, CoreId::new(0), 0, MemCmd::Read).unwrap();
        mc.try_enqueue(0, CoreId::new(0), 64, MemCmd::Read).unwrap();
        let (mut picks, mut log) = pick_check(&sched);
        mc.tick(0, &mut sched, &mut dram, (&mut picks, &mut log));
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert_eq!(mc.queue_len(), 1);
        let at = mc.next_dispatch_opportunity(1, &dram).unwrap();
        assert!(at > 1, "bank must be fenced after the dispatch");
        assert!(!dram.can_start(at - 1, 64));
        assert!(dram.can_start(at, 64));
    }

    #[test]
    fn a_gated_tick_keeps_the_fence_and_dispatches_like_an_ungated_one() {
        // Bursts of reads and writes over every bank, with a refresh every
        // 1 200 cycles: a gated controller must dispatch exactly what an
        // ungated twin does, and after each gated tick its fence must be
        // the next dispatch opportunity.
        let cfg = DramConfig { t_refi_ns: 500.0, ..DramConfig::default() };
        let mut gated = MemoryController::new(&McConfig::default());
        let mut twin = MemoryController::new(&McConfig::default());
        let mut dram: Dram<TxnId> = Dram::new(&cfg, 2.4e9);
        let mut twin_dram: Dram<TxnId> = Dram::new(&cfg, 2.4e9);
        let mut sched = FcfsScheduler::new();
        let (mut picks, mut log) = pick_check(&sched);
        let (mut twin_picks, mut twin_log) = pick_check(&sched);
        let mut seed = 0x2545_f491_u64;
        let mut fenced = 0;
        for now in 0..20_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (seed >> 60) < 5 {
                let addr = (seed >> 20) % (1 << 22) / 64 * 64;
                let cmd = if seed >> 59 & 1 == 0 { MemCmd::Read } else { MemCmd::Write };
                for m in [&mut gated, &mut twin] {
                    m.try_enqueue(now, CoreId::new(0), addr, cmd);
                }
            }
            gated.drain_completions(now, &mut sched, &mut dram);
            twin.drain_completions(now, &mut sched, &mut twin_dram);
            let ticked = gated.tick_gated(now, true, &mut sched, &mut dram, (&mut picks, &mut log));
            let ungated = twin.tick(now, &mut sched, &mut twin_dram, (&mut twin_picks, &mut twin_log));
            assert_eq!(ticked, ungated, "the controllers diverged at {now}");
            assert_eq!(gated.dispatch_fence(), gated.next_dispatch_opportunity(now + 1, &dram));
            fenced += usize::from(gated.dispatch_fence().is_some_and(|f| f > now + 1));
        }
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert!(gated.dispatched() > 500, "only {} dispatches", gated.dispatched());
        assert!(dram.refreshes() > 10, "only {} refreshes", dram.refreshes());
        assert!(fenced > 1_000, "the fence was ahead on only {fenced} ticks");
    }

    #[test]
    fn queue_drains_fifo() {
        let (mut mc, mut dram, mut sched) = setup();
        for i in 0..32 {
            mc.try_enqueue(0, CoreId::new(0), i * 64, MemCmd::Read).unwrap();
        }
        assert_eq!(mc.fifo_len(), 32);
        let (mut picks, mut log) = pick_check(&sched);
        mc.tick(0, &mut sched, &mut dram, (&mut picks, &mut log));
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert_eq!(mc.fifo_len(), 0);
        assert!(mc.queue_len() >= 31, "one may have been dispatched");
    }
}
