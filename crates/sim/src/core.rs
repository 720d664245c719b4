//! Trace-driven core model (the SSim substitute).
//!
//! The model captures the pieces of an out-of-order core that interact
//! with memory throttling: a 4-wide front end, a 128-entry instruction
//! window (ROB) whose occupancy bounds memory-level parallelism, in-order
//! retirement that stalls on pending loads at the head, and store-buffer
//! semantics for writes (stores retire without waiting for their line).
//!
//! The ROB is stored in compressed form — runs of compute instructions are
//! one entry — so a cycle costs O(1) amortised regardless of the gap sizes
//! in the trace.

use std::collections::VecDeque;

use crate::config::CoreConfig;
use crate::trace::{TraceOp, TraceSource};
use crate::types::{Addr, Cycle, OpId};

/// A memory access the core wants to send to its L1 this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemIssue {
    /// Operation id to complete later via [`Core::complete`].
    pub op: OpId,
    /// Byte address.
    pub addr: Addr,
    /// Whether the access is a store.
    pub write: bool,
}

#[derive(Debug, Clone)]
enum RobEntry {
    /// A run of `remaining` plain ALU instructions.
    Compute { remaining: u32 },
    /// One memory instruction; retires when completed. [`Core::complete`]
    /// sets the flag of a load in place; stores are created
    /// already-complete.
    Mem { op: OpId, complete: bool },
}

/// The port through which the core hands memory accesses to the cache
/// hierarchy. Returning `false` means "not accepted this cycle" (MSHR
/// full, miss queue full); the core will retry the same access.
pub trait MemPort {
    /// Offers one access; implementations must either fully accept it or
    /// reject it without side effects.
    fn issue(&mut self, now: Cycle, issue: MemIssue) -> bool;
}

impl<F: FnMut(Cycle, MemIssue) -> bool> MemPort for F {
    fn issue(&mut self, now: Cycle, issue: MemIssue) -> bool {
        self(now, issue)
    }
}

/// Aggregate counters for one core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles in which nothing retired because a load blocked the ROB
    /// head.
    pub mem_stall_cycles: u64,
    /// Cycles in which dispatch was blocked because the window was full.
    pub window_full_cycles: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Cycles spent frozen (runtime-overhead injection).
    pub frozen_cycles: u64,
}

impl CoreCounters {
    /// Instructions per cycle over the whole run (0 if no cycles).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// How a core spends a cycle if no external event (a fill, an unfreeze)
/// reaches it — the classification the skip engine uses to decide
/// whether a cycle can be skipped or a core can sleep, and which counters
/// and state such a cycle must still update (see
/// [`Core::note_idle_cycles`]). [`Core::tick`] returns the class of the
/// cycle it just executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreIdleClass {
    /// The tick would change state in a way only the tick itself can
    /// compute (issue a memory op, refill from the trace, retire or
    /// dispatch less than the issue width): not skippable.
    Busy,
    /// The tick retires the issue width from the retirable head of the
    /// ROB and dispatches the issue width of the fetch stage's compute
    /// gap (see [`Core::compute_run`]). Its state change follows from the
    /// ROB and the fetch stage alone, so a run of such cycles replays in
    /// batch; but each one changes state, so a core never sleeps in it,
    /// and [`Core::tick`] reports it as `Busy`.
    Compute,
    /// Frozen (tuner-overhead injection): the tick only counts the cycle.
    Frozen,
    /// ROB head blocked on a pending load **and** the window is full: the
    /// tick only accrues stall statistics. (A head-blocked core whose
    /// window still has room is `Busy` — it would fetch or issue.)
    MemBlocked,
    /// ROB head blocked on a pending load, nothing left to fetch, and the
    /// fetch stage re-offering a memory op the port keeps rejecting
    /// (structural stall: L1 MSHRs full). The tick accrues a memory
    /// stall. Whether the port would reject needs the port, so
    /// [`Core::idle_class`] never returns this class; the system promotes
    /// `Busy` to `PortBlocked` when [`Core::stalled_on_pending_issue`]
    /// holds and the L1 front end would deterministically reject the
    /// pending op.
    PortBlocked,
    /// The ROB is empty (every store retired at once) and the fetch stage
    /// re-offers a memory op the port keeps rejecting. Nothing stalls
    /// retirement, so the tick counts only the cycle. Only
    /// [`Core::tick`] reports it; [`Core::idle_class`] never returns it.
    PortBlockedEmpty,
}

/// The core model. Drive it with [`Core::tick`] once per cycle; complete
/// outstanding loads with [`Core::complete`] as fills return.
pub struct Core {
    issue_width: u32,
    window_size: u32,
    rob: VecDeque<RobEntry>,
    rob_occupancy: u32,
    trace: Box<dyn TraceSource>,
    /// The op currently being dispatched: compute part remaining, then the
    /// memory access (None once the access has been accepted).
    fetch_gap_left: u32,
    fetch_mem: Option<TraceOp>,
    next_op_id: u64,
    frozen_until: Cycle,
    counters: CoreCounters,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("rob_occupancy", &self.rob_occupancy)
            .field("counters", &self.counters)
            .finish()
    }
}

impl Core {
    /// Creates a core running `trace`.
    pub fn new(config: &CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        assert!(config.issue_width > 0, "issue width must be positive");
        assert!(config.window_size > 0, "window must hold at least one instruction");
        Core {
            issue_width: config.issue_width,
            window_size: config.window_size,
            rob: VecDeque::new(),
            rob_occupancy: 0,
            trace,
            fetch_gap_left: 0,
            fetch_mem: None,
            next_op_id: 0,
            frozen_until: 0,
            counters: CoreCounters::default(),
        }
    }

    /// Marks a previously issued load as complete (data arrived). It
    /// retires once it reaches the ROB head.
    ///
    /// Op ids ascend along the ROB, so the search walks from the head and
    /// stops at the first memory entry at or past `op`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `op` is an in-flight load: completing an op that
    /// was never issued, already retired, a store, or already completed is
    /// a caller bug.
    pub fn complete(&mut self, op: OpId) {
        let entry = self.rob.iter_mut().find_map(|e| match e {
            RobEntry::Mem { op: id, complete } if *id >= op => Some((*id, complete)),
            _ => None,
        });
        match entry {
            Some((id, complete)) if id == op && !*complete => *complete = true,
            _ => debug_assert!(false, "completion for {op:?}, which is not an in-flight load"),
        }
    }

    /// Freezes the core (no dispatch, no retire) until cycle `until`.
    /// Models the software overhead of the online tuner's runtime calls
    /// (§IV-B charges ~5000 cycles per invocation).
    pub fn freeze_until(&mut self, until: Cycle) {
        self.frozen_until = self.frozen_until.max(until);
    }

    /// Whether the core is frozen (tuner overhead injection) at `now`.
    /// Frozen cycles are exempt from the forward-progress watchdog.
    pub fn is_frozen(&self, now: Cycle) -> bool {
        now < self.frozen_until
    }

    /// Counter snapshot.
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Instructions retired (and dispatched) per cycle at most.
    pub(crate) fn issue_width(&self) -> u32 {
        self.issue_width
    }

    /// The cycle the current freeze window ends (0 when never frozen).
    pub fn frozen_until(&self) -> Cycle {
        self.frozen_until
    }

    /// Classifies what a [`Core::tick`] at cycle `at` would do, assuming
    /// no completion arrives first. Anything other than
    /// [`CoreIdleClass::Busy`] is a cycle that [`Core::note_idle_cycles`]
    /// can replay in batch: a pure-bookkeeping one, or the first of
    /// [`Core::compute_run`]'s compute cycles.
    pub fn idle_class(&self, at: Cycle) -> CoreIdleClass {
        if at < self.frozen_until {
            return CoreIdleClass::Frozen;
        }
        match self.rob.front() {
            Some(RobEntry::Mem { complete: false, .. })
                if self.rob_occupancy >= self.window_size =>
            {
                CoreIdleClass::MemBlocked
            }
            _ if self.compute_run(at) > 0 => CoreIdleClass::Compute,
            _ => CoreIdleClass::Busy, // dispatch would fetch or issue
        }
    }

    /// The number of consecutive cycles from `at` on which a tick, with
    /// no completion arriving, would retire exactly the issue width `W`
    /// from the retirable ROB prefix (the compute and completed memory
    /// entries before the first pending load) and dispatch exactly `W` of
    /// the fetch stage's compute gap, without offering its memory op or
    /// refilling from the trace. Dispatch always finds the room: it
    /// follows a retirement of `W`.
    ///
    /// That is `fetch_gap_left / W`, capped at `prefix / W` when a
    /// pending load sits in the ROB (the dispatched compute queues behind
    /// it, so the prefix shrinks by `W` a cycle), and 0 when the prefix
    /// is below `W` or the core is frozen.
    pub fn compute_run(&self, at: Cycle) -> u64 {
        let w = self.issue_width;
        if at < self.frozen_until || self.fetch_gap_left < w {
            return 0;
        }
        // Instructions the run can retire and dispatch, and the prefix.
        let mut budget = self.fetch_gap_left;
        let mut prefix = 0u32;
        for entry in &self.rob {
            match entry {
                RobEntry::Compute { remaining } => prefix += remaining,
                RobEntry::Mem { complete: true, .. } => prefix += 1,
                RobEntry::Mem { complete: false, .. } => {
                    budget = budget.min(prefix);
                    break;
                }
            }
            // A pending load further back can no longer cap the run.
            if prefix >= budget {
                break;
            }
        }
        if prefix < w {
            return 0;
        }
        u64::from(budget / w)
    }

    /// Replays `cycles` skipped ticks of the given idle class, making
    /// exactly the updates the per-cycle loop would have made: counters
    /// only, except for [`CoreIdleClass::Compute`], which moves `cycles`
    /// times the issue width of compute from the fetch stage into the
    /// back of the ROB and retires as many from its front. Adjacent
    /// compute runs always merge, so the ROB entry list equals the one
    /// `cycles` real ticks leave.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `class` is not [`CoreIdleClass::Busy`] (busy
    /// cycles cannot be replayed — only the tick can compute their state
    /// change) and that a `Compute` replay retires no pending load;
    /// panics when a `Compute` replay outruns the fetch stage's gap. A
    /// `Compute` replay must stay within [`Core::compute_run`].
    pub fn note_idle_cycles(&mut self, class: CoreIdleClass, cycles: u64) {
        debug_assert!(class != CoreIdleClass::Busy, "busy cycles are not replayable");
        self.counters.cycles += cycles;
        match class {
            CoreIdleClass::Compute => {
                let n = u32::try_from(cycles * u64::from(self.issue_width))
                    .ok()
                    .filter(|&n| n <= self.fetch_gap_left)
                    .expect("a compute replay stays within the fetch stage's gap");
                self.fetch_gap_left -= n;
                // The first `n` instructions of the window leave and `n`
                // compute arrive at its back. Retiring the entries already
                // in the window first keeps the list merged: compute that
                // enters and leaves within the replay never appears.
                let old = self.retire_up_to(n);
                debug_assert!(
                    old == n || self.rob.is_empty(),
                    "a compute replay retired past a pending load"
                );
                self.counters.instructions += u64::from(n - old);
                self.push_compute(old);
            }
            CoreIdleClass::Frozen => self.counters.frozen_cycles += cycles,
            CoreIdleClass::MemBlocked => {
                self.counters.mem_stall_cycles += cycles;
                self.counters.window_full_cycles += cycles;
            }
            // A port-blocked tick stalls retirement (head load pending)
            // but dispatch breaks on the rejected issue *before* the
            // window-full check, so only the memory stall accrues.
            CoreIdleClass::PortBlocked => self.counters.mem_stall_cycles += cycles,
            // With an empty ROB nothing waits to retire: the cycle alone.
            CoreIdleClass::PortBlockedEmpty | CoreIdleClass::Busy => {}
        }
    }

    /// Whether a tick at `at` would do nothing but re-offer the fetch
    /// stage's memory op to the port: the ROB head is a pending load (so
    /// retirement stalls), the window still has room (so this is not
    /// [`CoreIdleClass::MemBlocked`]), and all compute preceding the
    /// pending access has been dispatched. If the port would also reject
    /// the op — which only the owner of the L1 front end can know — such
    /// a tick is a pure structural stall, replayable as
    /// [`CoreIdleClass::PortBlocked`].
    pub fn stalled_on_pending_issue(&self, at: Cycle) -> bool {
        at >= self.frozen_until
            && self.fetch_gap_left == 0
            && self.fetch_mem.is_some()
            && self.rob_occupancy < self.window_size
            && matches!(self.rob.front(), Some(RobEntry::Mem { complete: false, .. }))
    }

    /// The memory access the fetch stage would offer to the port next
    /// cycle, if it is already at the front of dispatch: `(addr, write)`.
    pub fn pending_issue(&self) -> Option<(Addr, bool)> {
        if self.fetch_gap_left == 0 {
            self.fetch_mem.map(|op| (op.addr, op.write))
        } else {
            None
        }
    }

    /// Current program phase as reported by the trace source.
    pub fn phase(&self) -> usize {
        self.trace.phase()
    }

    /// Outstanding (issued, not completed) loads the core is waiting on.
    pub fn outstanding_loads(&self) -> usize {
        self.rob
            .iter()
            .filter(|e| matches!(e, RobEntry::Mem { complete: false, .. }))
            .count()
    }

    /// Checkpoint tag of the trace source driving this core, or `None`
    /// when the source does not support checkpointing.
    pub fn trace_snapshot_kind(&self) -> Option<&'static str> {
        self.trace.snapshot_kind()
    }

    /// Encodes the complete mutable core state (ROB with its completion
    /// flags, fetch stage, counters) plus the embedded trace cursor.
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u32(self.issue_width);
        enc.u32(self.window_size);
        enc.usize(self.rob.len());
        for entry in &self.rob {
            match entry {
                RobEntry::Compute { remaining } => {
                    enc.u8(0);
                    enc.u32(*remaining);
                }
                RobEntry::Mem { op, complete } => {
                    enc.u8(1);
                    enc.u64(op.raw());
                    enc.bool(*complete);
                }
            }
        }
        enc.u32(self.rob_occupancy);
        enc.str(self.trace.snapshot_kind().unwrap_or(""));
        enc.blob(|e| self.trace.save_state(e));
        enc.u32(self.fetch_gap_left);
        match self.fetch_mem {
            Some(op) => {
                enc.bool(true);
                enc.u32(op.gap);
                enc.u64(op.addr);
                enc.bool(op.write);
            }
            None => enc.bool(false),
        }
        enc.u64(self.next_op_id);
        enc.u64(self.frozen_until);
        enc.u64(self.counters.cycles);
        enc.u64(self.counters.instructions);
        enc.u64(self.counters.mem_stall_cycles);
        enc.u64(self.counters.window_full_cycles);
        enc.u64(self.counters.loads);
        enc.u64(self.counters.stores);
        enc.u64(self.counters.frozen_cycles);
    }

    /// Restores state written by [`Core::save_state`]. The core must have
    /// been built with the same configuration and trace-source type.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`](crate::snapshot::SnapshotError) when
    /// the configured geometry or trace kind differs from the snapshot,
    /// or a decode error on corrupt bytes.
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let issue_width = dec.u32()?;
        let window_size = dec.u32()?;
        if issue_width != self.issue_width || window_size != self.window_size {
            return Err(SnapshotError::mismatch(format!(
                "core geometry {}x{} differs from snapshot {issue_width}x{window_size}",
                self.issue_width, self.window_size
            )));
        }
        let n = dec.checked_len(2)?;
        let mut rob = VecDeque::with_capacity(n);
        for _ in 0..n {
            match dec.u8()? {
                0 => rob.push_back(RobEntry::Compute { remaining: dec.u32()? }),
                1 => {
                    let op = OpId::new(dec.u64()?);
                    rob.push_back(RobEntry::Mem { op, complete: dec.bool()? });
                }
                tag => {
                    return Err(SnapshotError::corrupt(format!("unknown ROB entry tag {tag}")))
                }
            }
        }
        self.rob = rob;
        self.rob_occupancy = dec.u32()?;
        let kind = dec.str()?;
        let have = self.trace.snapshot_kind().unwrap_or("");
        if kind != have {
            return Err(SnapshotError::mismatch(format!(
                "trace source is `{have}` but the snapshot holds `{kind}`"
            )));
        }
        dec.blob(|d| self.trace.load_state(d))?;
        self.fetch_gap_left = dec.u32()?;
        self.fetch_mem = if dec.bool()? {
            let gap = dec.u32()?;
            let addr = dec.u64()?;
            let write = dec.bool()?;
            Some(TraceOp { gap, addr, write })
        } else {
            None
        };
        self.next_op_id = dec.u64()?;
        self.frozen_until = dec.u64()?;
        self.counters.cycles = dec.u64()?;
        self.counters.instructions = dec.u64()?;
        self.counters.mem_stall_cycles = dec.u64()?;
        self.counters.window_full_cycles = dec.u64()?;
        self.counters.loads = dec.u64()?;
        self.counters.stores = dec.u64()?;
        self.counters.frozen_cycles = dec.u64()?;
        Ok(())
    }

    /// Simulates one cycle: retire from the head, then dispatch into the
    /// window, offering memory accesses to `port`.
    ///
    /// Returns the class of the cycle just executed: `Busy` when the
    /// tick retired, fetched, dispatched or issued anything (a
    /// [`CoreIdleClass::Compute`] cycle included), otherwise
    /// the idle class whose [`Core::note_idle_cycles`] replay bumps
    /// exactly the counters this tick bumped (`Frozen`, `MemBlocked`,
    /// `PortBlocked` or `PortBlockedEmpty`, the last two when `port`
    /// rejected the fetch stage's memory op). A tick that returns an idle
    /// class changed nothing but counters, so until a completion reaches
    /// the core or the port's answer changes, every later tick would
    /// repeat it.
    pub fn tick(&mut self, now: Cycle, port: &mut dyn MemPort) -> CoreIdleClass {
        self.counters.cycles += 1;
        if now < self.frozen_until {
            self.counters.frozen_cycles += 1;
            return CoreIdleClass::Frozen;
        }
        let retired = self.retire();
        let dispatched = self.dispatch(now, port);
        if retired || dispatched {
            return CoreIdleClass::Busy;
        }
        match self.rob.front() {
            None => CoreIdleClass::PortBlockedEmpty,
            Some(_) if self.rob_occupancy >= self.window_size => CoreIdleClass::MemBlocked,
            Some(_) => CoreIdleClass::PortBlocked,
        }
    }

    /// Retires up to the issue width from the ROB head; returns whether
    /// anything retired.
    fn retire(&mut self) -> bool {
        let retired_any = self.retire_up_to(self.issue_width) > 0;
        if !retired_any {
            if let Some(RobEntry::Mem { complete: false, .. }) = self.rob.front() {
                self.counters.mem_stall_cycles += 1;
            }
        }
        retired_any
    }

    /// Retires up to `budget` instructions of the retirable ROB prefix,
    /// stopping at a pending load; returns how many retired.
    fn retire_up_to(&mut self, budget: u32) -> u32 {
        let mut left = budget;
        while left > 0 {
            match self.rob.front_mut() {
                Some(RobEntry::Compute { remaining }) => {
                    let n = (*remaining).min(left);
                    *remaining -= n;
                    left -= n;
                    if *remaining == 0 {
                        self.rob.pop_front();
                    }
                }
                Some(RobEntry::Mem { complete: true, .. }) => {
                    self.rob.pop_front();
                    left -= 1;
                }
                // The head load is still pending, or the ROB is empty.
                Some(RobEntry::Mem { complete: false, .. }) | None => break,
            }
        }
        let retired = budget - left;
        self.rob_occupancy -= retired;
        self.counters.instructions += u64::from(retired);
        retired
    }

    /// Appends `n` compute instructions to the ROB, merged into a compute
    /// run at its back.
    fn push_compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        self.rob_occupancy += n;
        match self.rob.back_mut() {
            Some(RobEntry::Compute { remaining }) => *remaining += n,
            _ => self.rob.push_back(RobEntry::Compute { remaining: n }),
        }
    }

    /// Dispatches up to the issue width into the window; returns whether
    /// anything was fetched, dispatched or issued.
    fn dispatch(&mut self, now: Cycle, port: &mut dyn MemPort) -> bool {
        let mut budget = self.issue_width;
        let mut refilled = false;
        let mut blocked_by_window = false;
        while budget > 0 {
            if self.rob_occupancy >= self.window_size {
                blocked_by_window = true;
                break;
            }
            // Refill the fetch stage if empty.
            if self.fetch_gap_left == 0 && self.fetch_mem.is_none() {
                let op = self.trace.next_op();
                self.fetch_gap_left = op.gap;
                self.fetch_mem = Some(op);
                refilled = true;
            }
            if self.fetch_gap_left > 0 {
                let room = self.window_size - self.rob_occupancy;
                let n = self.fetch_gap_left.min(budget).min(room);
                if n == 0 {
                    blocked_by_window = true;
                    break;
                }
                self.fetch_gap_left -= n;
                budget -= n;
                self.push_compute(n);
                continue;
            }
            // The memory access of the current trace op.
            let op_desc = self.fetch_mem.expect("fetch stage holds a memory op");
            let op_id = OpId::new(self.next_op_id);
            let accepted = port.issue(
                now,
                MemIssue { op: op_id, addr: op_desc.addr, write: op_desc.write },
            );
            if !accepted {
                break; // structural stall; retry next cycle
            }
            self.next_op_id += 1;
            self.fetch_mem = None;
            self.rob_occupancy += 1;
            budget -= 1;
            if op_desc.write {
                self.counters.stores += 1;
                // Store-buffer semantics: the store never blocks retire.
                self.rob.push_back(RobEntry::Mem { op: op_id, complete: true });
            } else {
                self.counters.loads += 1;
                self.rob.push_back(RobEntry::Mem { op: op_id, complete: false });
            }
        }
        if blocked_by_window {
            self.counters.window_full_cycles += 1;
        }
        refilled || budget < self.issue_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StrideTrace;

    /// Port that accepts everything and records issues; optionally
    /// completes loads after a fixed latency when pumped.
    struct TestPort {
        issued: Vec<(Cycle, MemIssue)>,
        accept: bool,
    }

    impl TestPort {
        fn new() -> Self {
            TestPort { issued: Vec::new(), accept: true }
        }
    }

    impl MemPort for TestPort {
        fn issue(&mut self, now: Cycle, issue: MemIssue) -> bool {
            if self.accept {
                self.issued.push((now, issue));
            }
            self.accept
        }
    }

    fn core_with(gap: u32) -> Core {
        Core::new(
            &CoreConfig::default(),
            Box::new(StrideTrace::new(gap, 64, 1 << 30)),
        )
    }

    #[test]
    fn pure_compute_retires_at_issue_width() {
        // Huge gaps: effectively compute-only for a short run.
        let mut core = core_with(1_000_000);
        let mut port = TestPort::new();
        for now in 0..100 {
            core.tick(now, &mut port);
        }
        // First cycle only dispatches (pipeline fill); afterwards retire
        // should sustain ~4 IPC.
        let ipc = core.counters().ipc();
        assert!(ipc > 3.0, "compute IPC {ipc} should approach issue width");
    }

    #[test]
    fn loads_block_retirement_until_completed() {
        let mut core = core_with(0); // every instruction is a load
        let mut port = TestPort::new();
        for now in 0..50 {
            core.tick(now, &mut port);
        }
        // No completions: instructions retired must be zero, stalls accrue.
        assert_eq!(core.counters().instructions, 0);
        assert!(core.counters().mem_stall_cycles > 0);
        // Window (128) bounds outstanding loads.
        assert!(core.outstanding_loads() <= 128);
        // Complete everything; the core drains.
        let ops: Vec<OpId> = port.issued.iter().map(|(_, i)| i.op).collect();
        for op in ops {
            core.complete(op);
        }
        for now in 50..200 {
            core.tick(now, &mut port);
        }
        assert!(core.counters().instructions > 0);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let mut core = Core::new(
            &CoreConfig::default(),
            Box::new(StrideTrace::new(0, 64, 1 << 30).with_write_every(1)),
        );
        let mut port = TestPort::new();
        for now in 0..50 {
            core.tick(now, &mut port);
        }
        assert!(core.counters().instructions > 0, "stores must retire freely");
        assert_eq!(core.counters().loads, 0);
        assert!(core.counters().stores > 0);
    }

    #[test]
    fn rejected_issues_are_retried_not_lost() {
        let mut core = core_with(0);
        let mut port = TestPort::new();
        port.accept = false;
        for now in 0..10 {
            core.tick(now, &mut port);
        }
        assert!(port.issued.is_empty());
        port.accept = true;
        core.tick(10, &mut port);
        assert!(!port.issued.is_empty(), "the blocked access must eventually issue");
        // Op ids must be dense from zero (no ids burned on rejections).
        assert_eq!(port.issued[0].1.op, OpId::new(0));
    }

    #[test]
    fn window_limits_outstanding_loads() {
        let mut core = core_with(0);
        let mut port = TestPort::new();
        for now in 0..1000 {
            core.tick(now, &mut port);
        }
        assert_eq!(core.outstanding_loads(), 128, "window must cap MLP");
        assert!(core.counters().window_full_cycles > 0);
    }

    #[test]
    fn freeze_stops_progress_and_counts() {
        let mut core = core_with(1);
        let mut port = TestPort::new();
        core.freeze_until(10);
        for now in 0..10 {
            core.tick(now, &mut port);
        }
        assert_eq!(core.counters().instructions, 0);
        assert_eq!(core.counters().frozen_cycles, 10);
        for now in 10..20 {
            core.tick(now, &mut port);
        }
        assert!(core.counters().instructions > 0);
    }

    #[test]
    fn idle_replay_matches_naive_ticks() {
        // Fill two identical cores until the window is full of pending
        // loads, then advance one naively and the other by batch replay.
        let mk = || core_with(0);
        let (mut naive, mut fast) = (mk(), mk());
        let mut port = TestPort::new();
        let mut now = 0;
        while naive.idle_class(now) == CoreIdleClass::Busy {
            naive.tick(now, &mut port);
            fast.tick(now, &mut port);
            now += 1;
        }
        assert_eq!(fast.idle_class(now), CoreIdleClass::MemBlocked);
        for t in now..now + 500 {
            naive.tick(t, &mut port);
        }
        fast.note_idle_cycles(CoreIdleClass::MemBlocked, 500);
        assert_eq!(naive.counters(), fast.counters());
    }

    /// Ticks `naive` and `fast` in step until a tick of `naive` returns
    /// an idle class, then ticks `naive` 300 more times against one
    /// replay of that class on `fast`; returns the class.
    fn replay_first_idle_tick(
        naive: &mut Core,
        fast: &mut Core,
        port: &mut TestPort,
    ) -> CoreIdleClass {
        for now in 0..1_000 {
            let class = naive.tick(now, port);
            assert_eq!(fast.tick(now, port), class, "twins diverged at {now}");
            if class != CoreIdleClass::Busy {
                for t in now + 1..now + 301 {
                    assert_eq!(naive.tick(t, port), class, "an idle tick must repeat");
                }
                fast.note_idle_cycles(class, 300);
                assert_eq!(naive.counters(), fast.counters(), "{class:?} replay diverged");
                return class;
            }
        }
        panic!("no idle tick in 1000 cycles");
    }

    #[test]
    fn tick_returns_the_idle_class_it_executed() {
        // A full window of pending loads.
        let (mut naive, mut fast) = (core_with(0), core_with(0));
        let mut port = TestPort::new();
        let class = replay_first_idle_tick(&mut naive, &mut fast, &mut port);
        assert_eq!(class, CoreIdleClass::MemBlocked);

        // Pending loads at the head, room in the window, the port full.
        let (mut naive, mut fast) = (core_with(0), core_with(0));
        let mut port = TestPort::new();
        naive.tick(0, &mut port);
        fast.tick(0, &mut port);
        port.accept = false;
        let class = replay_first_idle_tick(&mut naive, &mut fast, &mut port);
        assert_eq!(class, CoreIdleClass::PortBlocked);
        assert!(naive.stalled_on_pending_issue(400));

        // Stores retire at once: an empty ROB behind a full port counts
        // the cycle and nothing else.
        let stores = || {
            Core::new(
                &CoreConfig::default(),
                Box::new(StrideTrace::new(0, 64, 1 << 30).with_write_every(1)),
            )
        };
        let (mut naive, mut fast) = (stores(), stores());
        let mut port = TestPort::new();
        naive.tick(0, &mut port);
        fast.tick(0, &mut port);
        port.accept = false;
        let before = naive.counters().clone();
        let class = replay_first_idle_tick(&mut naive, &mut fast, &mut port);
        assert_eq!(class, CoreIdleClass::PortBlockedEmpty);
        let after = naive.counters();
        assert_eq!(after.mem_stall_cycles, before.mem_stall_cycles, "nothing waits to retire");
        assert_eq!(after.window_full_cycles, before.window_full_cycles);

        // A frozen tick reports itself too.
        let mut core = core_with(1);
        core.freeze_until(5);
        assert_eq!(core.tick(0, &mut port), CoreIdleClass::Frozen);
    }

    #[test]
    fn frozen_replay_matches_naive_ticks() {
        let (mut naive, mut fast) = (core_with(1), core_with(1));
        let mut port = TestPort::new();
        naive.freeze_until(300);
        fast.freeze_until(300);
        assert_eq!(fast.idle_class(0), CoreIdleClass::Frozen);
        assert_eq!(fast.frozen_until(), 300);
        for t in 0..300 {
            naive.tick(t, &mut port);
        }
        fast.note_idle_cycles(CoreIdleClass::Frozen, 300);
        assert_eq!(naive.counters(), fast.counters());
        assert_eq!(fast.idle_class(300), CoreIdleClass::Busy);
    }

    fn state_bytes(core: &Core) -> Vec<u8> {
        let mut enc = crate::snapshot::Enc::new();
        core.save_state(&mut enc);
        enc.into_bytes()
    }

    mod compute_runs {
        use super::*;
        use crate::rng::Rng;
        use crate::trace_io::VecTrace;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// From a random ROB state (random gaps, stores, port
            /// rejections and out-of-order completions), every
            /// `note_idle_cycles(Compute, k)` with `k <= compute_run`
            /// leaves the state bytes `k` ticks through an accepting port
            /// leave, each of those ticks retires and dispatches exactly
            /// the issue width without offering a memory op, and the
            /// tick after the run does not.
            #[test]
            fn compute_replay_matches_naive_ticks(
                seed in any::<u64>(),
                width in 1u32..=8,
                window_extra in 0u32..160,
                max_gap in 1u64..240,
                warmup in 0u64..400,
            ) {
                let cfg = CoreConfig {
                    issue_width: width,
                    window_size: width + window_extra,
                    ..CoreConfig::default()
                };
                let mut rng = Rng::seeded(seed);
                let ops: Vec<TraceOp> = (0..1 + rng.below(24))
                    .map(|i| TraceOp {
                        gap: rng.below(max_gap) as u32,
                        addr: i * 64,
                        write: rng.below(4) == 0,
                    })
                    .collect();
                let mk = || Core::new(&cfg, Box::new(VecTrace::new(ops.clone())));
                let mut core = mk();
                let mut pending: Vec<OpId> = Vec::new();
                for now in 0..warmup {
                    let accept = rng.below(4) != 0;
                    core.tick(now, &mut |_, issue: MemIssue| {
                        if accept && !issue.write {
                            pending.push(issue.op);
                        }
                        accept
                    });
                    while !pending.is_empty() && rng.below(3) == 0 {
                        let i = rng.below(pending.len() as u64) as usize;
                        core.complete(pending.swap_remove(i));
                    }
                }
                let start = warmup;
                let run = core.compute_run(start);
                prop_assert_eq!(
                    core.idle_class(start) == CoreIdleClass::Compute,
                    run > 0,
                    "idle_class disagrees with a run of {}", run
                );
                let before = state_bytes(&core);
                let w = u64::from(width);
                let mut port = TestPort::new();
                for k in 1..=run + 1 {
                    let instructions = core.counters().instructions;
                    let gap = core.fetch_gap_left;
                    let occupancy = core.rob_occupancy;
                    core.tick(start + k - 1, &mut port);
                    let full = core.counters().instructions == instructions + w
                        && gap >= width
                        && core.fetch_gap_left == gap - width
                        && core.rob_occupancy == occupancy
                        && port.issued.is_empty();
                    if k > run {
                        prop_assert!(!full, "tick {} after a run of {} is a compute tick", k, run);
                        break;
                    }
                    prop_assert!(full, "tick {} of a run of {} is not a compute tick", k, run);
                    let mut fast = mk();
                    fast.load_state(&mut crate::snapshot::Dec::new(&before)).unwrap();
                    fast.note_idle_cycles(CoreIdleClass::Compute, k);
                    prop_assert!(
                        state_bytes(&fast) == state_bytes(&core),
                        "replaying {} of {} compute cycles diverged from ticking them", k, run
                    );
                }
            }
        }
    }

    #[test]
    fn a_frozen_or_memory_bound_core_has_no_compute_run() {
        let mut core = core_with(1_000);
        let mut port = TestPort::new();
        for now in 0..10 {
            core.tick(now, &mut port);
        }
        assert!(core.compute_run(10) > 0, "a long gap computes");
        core.freeze_until(20);
        assert_eq!(core.compute_run(10), 0);
        assert_eq!(core.idle_class(10), CoreIdleClass::Frozen);
        assert_eq!(core.idle_class(20), CoreIdleClass::Compute);
        // Every instruction a load: nothing retires at the issue width.
        let mut loads = core_with(0);
        loads.tick(0, &mut port);
        assert_eq!(loads.compute_run(1), 0);
        assert_eq!(loads.idle_class(1), CoreIdleClass::Busy);
    }

    #[test]
    fn head_blocked_with_window_room_is_busy() {
        // A core whose head load is pending but whose window has room
        // would still fetch/issue: it must not be classified skippable.
        let mut core = core_with(0);
        let mut port = TestPort::new();
        core.tick(0, &mut port);
        assert!(core.outstanding_loads() > 0);
        assert!(core.outstanding_loads() < 128, "window not yet full");
        assert_eq!(core.idle_class(1), CoreIdleClass::Busy);
    }

    #[test]
    fn out_of_order_completion_retires_in_order() {
        let mut core = core_with(0); // every instruction is a load
        let mut port = TestPort::new();
        core.tick(0, &mut port);
        let ops: Vec<OpId> = port.issued.iter().map(|(_, i)| i.op).collect();
        assert_eq!(ops.len(), 4);
        let outstanding = core.outstanding_loads();
        // The third load completes first: it is no longer outstanding, but
        // it cannot retire past the pending head.
        core.complete(ops[2]);
        assert_eq!(core.outstanding_loads(), outstanding - 1);
        core.tick(1, &mut port);
        assert_eq!(core.counters().instructions, 0);
        // The head completes: it retires, and the pending second load
        // stops retirement before the completed third one.
        core.complete(ops[0]);
        core.tick(2, &mut port);
        assert_eq!(core.counters().instructions, 1);
        core.complete(ops[1]);
        core.tick(3, &mut port);
        assert_eq!(core.counters().instructions, 3, "loads 1 and 2 retire together");
    }

    #[test]
    #[should_panic(expected = "not an in-flight load")]
    fn completing_an_unknown_op_is_a_caller_bug() {
        let mut core = core_with(0);
        let mut port = TestPort::new();
        core.tick(0, &mut port);
        core.complete(OpId::new(1_000));
    }

    #[test]
    #[should_panic(expected = "not an in-flight load")]
    fn completing_a_retired_op_is_a_caller_bug() {
        let mut core = core_with(0);
        let mut port = TestPort::new();
        core.tick(0, &mut port);
        let (_, first) = port.issued[0];
        core.complete(first.op);
        core.tick(1, &mut port);
        assert_eq!(core.counters().instructions, 1);
        core.complete(first.op);
    }

    #[test]
    fn completion_before_head_is_remembered() {
        let mut core = core_with(4);
        let mut port = TestPort::new();
        for now in 0..5 {
            core.tick(now, &mut port);
        }
        let (_, first) = port.issued[0];
        // Complete out of order relative to tick processing.
        core.complete(first.op);
        let before = core.counters().instructions;
        for now in 5..10 {
            core.tick(now, &mut port);
        }
        assert!(core.counters().instructions > before);
    }
}
