//! Full-system wiring: cores + private L1s + source shapers + shared LLC
//! + memory controller + DRAM, ticked in lockstep.
//!
//! The topology mirrors Fig. 3/4 of the paper: each core has a private L1
//! and a [`SourceShaper`] on its L1-miss path (the hybrid placement of
//! §III-D); all cores share a distributed LLC (modelled as one cache with
//! a port limit) and a single memory channel behind a smoothing FIFO.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::audit::{
    ActiveFaults, AuditViolation, ChannelStallState, CoreStallState, FaultPlan, GrantLedger,
    Invariant, InvariantAuditor, LlcStallState, ResponseAction, RunOutcome, ShaperStallState,
    StallReport,
};
use crate::cache::{AccessResult, Cache, MshrFile, MshrOutcome};
use crate::config::{ConfigError, SystemConfig};
use crate::core::{Core, CoreCounters, CoreIdleClass, MemIssue, MemPort};
use crate::dram::Dram;
use crate::mc::{
    CoreSignals, CoreThrottle, FcfsScheduler, McResponse, MemoryController, Scheduler,
    SourceControl, TxnId,
};
use crate::obs::{ChannelSampleRow, CoreSampleRow, Observer, SampleRow, StallReason, TraceSink};
use crate::shaper::{ShapeDecision, ShapeToken, SourceShaper, UnlimitedShaper};
use crate::snapshot::{crc32, Dec, Enc, Snapshot, SnapshotError, SnapshotWriter};
use crate::stats::{ChannelSystemStats, CoreStats, SystemStats};
use crate::trace::{ComputeTrace, TraceSource};
use crate::types::{Addr, CoreId, Cycle, MemCmd, OpId};

/// Shared handle to a shaper, so the tuner (and shared-credit-pool setups,
/// §IV-H) can reconfigure shapers while the system runs.
pub type ShaperHandle = Rc<RefCell<dyn SourceShaper>>;

/// Number of histogram bins kept for inter-arrival statistics.
const STAT_BINS: usize = 10;
/// Width of each statistics histogram bin in cycles (the paper's L).
const STAT_BIN_WIDTH: Cycle = 10;

/// An L1 MSHR waiter: the op to wake (loads) or a store marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1Waiter {
    Load(OpId),
    Store,
}

/// An L1 miss waiting to pass the shaper and an LLC port.
#[derive(Debug, Clone, Copy)]
struct PendingMiss {
    line_addr: Addr,
    created_at: Cycle,
    /// Memory channel of `line_addr`, decoded when the miss is created
    /// (the issue stage's backpressure check reads it every cycle).
    channel: usize,
}

/// Row-granularity interleave of addresses across memory channels.
#[derive(Debug, Clone, Copy)]
struct ChannelMap {
    row_bytes: u64,
    channels: u64,
}

impl ChannelMap {
    fn new(config: &SystemConfig) -> Self {
        ChannelMap { row_bytes: config.dram.row_bytes as u64, channels: config.mc.channels as u64 }
    }

    /// Memory channel owning `addr`. Any channel count is valid, so this
    /// is a plain division; it runs once per request, where the request
    /// is created, and the request carries the result.
    fn channel_of(self, addr: Addr) -> usize {
        ((addr / self.row_bytes) % self.channels) as usize
    }
}

/// What the demand-issue stage did for a core on its last visit.
///
/// The skip engine needs this to know *why* a miss-queue head is
/// not moving: a denial that waiting can cure (shaper credits age in,
/// a throttle gap expires) yields a wake-up event, while anything else
/// forces per-cycle execution. The shaper's
/// [`SourceShaper::next_grant_event`] contract ("the earliest cycle a
/// *currently denied* request could be granted") is only meaningful when
/// the last visit actually recorded a denial, so the outcome gates which
/// wake cycle may be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueOutcome {
    /// No miss-queue head existed when the issue stage ran.
    NoRequest,
    /// The head was granted and sent to the LLC.
    Granted,
    /// The shaper denied the head (`try_issue` returned `Deny`).
    ShaperDenied,
    /// A source throttle (inflight cap or issue gap) blocked the head
    /// before the shaper was consulted.
    ThrottleBlocked,
    /// A fault-injection plan forced the denial.
    FaultDenied,
    /// The LLC ports were exhausted before this core's turn.
    NoPorts,
    /// The smoothing FIFO of the head's memory channel was full: the
    /// controller's backpressure reached the issue stage (§III-C — the
    /// FIFO depth bounds how much burstiness the controller absorbs
    /// before stalling the sources).
    McBackpressure,
}

impl IssueOutcome {
    /// Stable wire tag for checkpoints.
    fn snapshot_tag(self) -> u8 {
        match self {
            IssueOutcome::NoRequest => 0,
            IssueOutcome::Granted => 1,
            IssueOutcome::ShaperDenied => 2,
            IssueOutcome::ThrottleBlocked => 3,
            IssueOutcome::FaultDenied => 4,
            IssueOutcome::NoPorts => 5,
            IssueOutcome::McBackpressure => 6,
        }
    }

    fn from_snapshot_tag(tag: u8) -> Result<Self, SnapshotError> {
        Ok(match tag {
            0 => IssueOutcome::NoRequest,
            1 => IssueOutcome::Granted,
            2 => IssueOutcome::ShaperDenied,
            3 => IssueOutcome::ThrottleBlocked,
            4 => IssueOutcome::FaultDenied,
            5 => IssueOutcome::NoPorts,
            6 => IssueOutcome::McBackpressure,
            t => {
                return Err(SnapshotError::corrupt(format!("invalid issue-outcome tag {t}")))
            }
        })
    }
}

/// Which execution engine advances the system.
///
/// Both produce bit-identical architectural results — statistics, grant
/// ledgers, audit logs, trace-event streams, sample rows — and may be
/// flipped mid-run with [`System::set_engine`]. They differ only in how
/// many cycles they *execute*:
///
/// * [`Engine::Naive`] ticks every cycle. The reference for equivalence
///   testing and the escape hatch while debugging the skip engine.
/// * [`Engine::Skip`] (the default): inside a tick, components whose
///   cached wake cycle is not due are passed over and their cycles
///   replayed (sleeping and dormant cores, denied shapers, idle DRAM, the
///   LLC, controllers, scheduler hooks, the watchdog). After each real
///   tick the skip probe folds the same wake cycles to a minimum and the
///   engine jumps there, replaying the skipped window's counter updates
///   in batch with each component's own replay. Besides fully quiescent
///   windows it skips a controller backlog stuck behind a full FIFO,
///   replaying the per-cycle rejection the LLC would have recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Execute every cycle.
    Naive,
    /// Jump over windows the skip probe proves dead.
    Skip,
}

/// Why `System::probe` refused to skip: the first component with
/// same-cycle work that batch replay cannot account for. The probe checks
/// the variants in declaration order, the three `Core*` ones core by core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SkipBlocker {
    /// The LLC→controller backlog head would enter a FIFO with room.
    BacklogRetryWouldSucceed,
    /// An after-LLC shaper gate holds deferred lines.
    LlcDeferred,
    /// A controller would move FIFO entries into its transaction queue.
    McWouldRefillQueue,
    /// A core has dirty evictions queued for the LLC.
    CoreWbQueue,
    /// A core can issue or retire instructions this cycle.
    CoreBusy,
    /// A core's miss-queue head would retry an issue whose outcome the
    /// probe cannot predict (it was granted, found no port or no FIFO
    /// room, or had no request on the last tick).
    CoreMissQueueIssue,
}

impl SkipBlocker {
    /// Stable snake-case name, as reported by [`System::skip_blocker`].
    pub(crate) fn name(self) -> &'static str {
        match self {
            SkipBlocker::BacklogRetryWouldSucceed => "backlog_retry_would_succeed",
            SkipBlocker::LlcDeferred => "llc_deferred",
            SkipBlocker::McWouldRefillQueue => "mc_would_refill_queue",
            SkipBlocker::CoreWbQueue => "core_wb_queue",
            SkipBlocker::CoreBusy => "core_busy",
            SkipBlocker::CoreMissQueueIssue => "core_miss_queue_issue",
        }
    }
}

/// `(a + b) % n` for `a, b < n`: the round-robin port order wraps by one
/// subtraction, not a division per core per tick.
fn wrapping_index(a: usize, b: usize, n: usize) -> usize {
    let i = a + b;
    if i >= n {
        i - n
    } else {
        i
    }
}

/// Prefixes [`SnapshotError::Mismatch`] reasons with the component
/// position for clearer diagnostics; other error kinds pass through.
fn prefix_mismatch(e: SnapshotError, prefix: &str) -> SnapshotError {
    match e {
        SnapshotError::Mismatch(reason) => SnapshotError::Mismatch(format!("{prefix}{reason}")),
        other => other,
    }
}

/// One core plus its private memory-side structures.
struct CoreUnit {
    id: CoreId,
    core: Core,
    l1: Cache,
    l1_mshrs: MshrFile<L1Waiter>,
    miss_queue: VecDeque<PendingMiss>,
    wb_queue: VecDeque<Addr>,
    /// (ready_at, op) pairs for L1 hits completing after hit latency.
    hit_pipe: VecDeque<(Cycle, OpId)>,
    shaper: ShaperHandle,
    /// Grant timestamps awaiting their fill (auditor conservation check).
    grants: GrantLedger,
    last_issue: Option<Cycle>,
    /// What the issue stage did on the core's last visit, or what the
    /// replay of a later passed-over one wrote (`CoreUnit::replay_window`).
    last_outcome: IssueOutcome,
    /// Under [`Engine::Skip`], the idle class of the core's last tick
    /// when that tick changed nothing but counters: the core sleeps, and
    /// each tick replays the class instead of running the pipeline.
    /// Cleared by a completion or fill for this core and by
    /// [`System::wake_all`].
    asleep: Option<CoreIdleClass>,
    /// Under [`Engine::Skip`], the cycle before which the shaper cannot
    /// grant the miss-queue head: its `next_grant_event` at the last
    /// denial (`Cycle::MAX` when waiting alone never helps, 0 when no
    /// denial is cached). Until then the issue stage answers `Deny`
    /// without asking the shaper, and the wake rule (`CoreUnit::wake_at`)
    /// reads it. Cleared by LLC feedback to this shaper instance and by
    /// [`System::wake_all`].
    denied_until: Cycle,
    /// While the core is dormant (`System::dormant`), the first cycle
    /// its idle replay has not accounted for yet.
    dormant_from: Cycle,
    stats: CoreStats,
    l1_hit_latency: Cycle,
}

/// Port adapter giving the core access to its own L1 front end while the
/// core itself is mutably borrowed.
struct L1Front<'a> {
    l1: &'a mut Cache,
    mshrs: &'a mut MshrFile<L1Waiter>,
    miss_queue: &'a mut VecDeque<PendingMiss>,
    hit_pipe: &'a mut VecDeque<(Cycle, OpId)>,
    stats: &'a mut CoreStats,
    hit_latency: Cycle,
    obs: &'a mut Observer,
    core: usize,
    channel_map: ChannelMap,
}

impl MemPort for L1Front<'_> {
    fn issue(&mut self, now: Cycle, issue: MemIssue) -> bool {
        let line = self.l1.geometry().line_of(issue.addr);
        match self.l1.access(issue.addr, issue.write) {
            AccessResult::Hit => {
                self.stats.l1_hits += 1;
                if !issue.write {
                    self.hit_pipe.push_back((now + self.hit_latency, issue.op));
                }
                true
            }
            AccessResult::Miss => {
                let waiter =
                    if issue.write { L1Waiter::Store } else { L1Waiter::Load(issue.op) };
                match self.mshrs.allocate(line, now, issue.write, waiter) {
                    MshrOutcome::Allocated => {
                        self.stats.l1_misses += 1;
                        self.stats.l1_miss_interarrival.record_arrival(now);
                        self.miss_queue.push_back(PendingMiss {
                            line_addr: line,
                            created_at: now,
                            channel: self.channel_map.channel_of(line),
                        });
                        self.obs.on_l1_miss(now, self.core, line);
                        true
                    }
                    MshrOutcome::Merged => {
                        self.stats.l1_misses += 1;
                        true
                    }
                    MshrOutcome::Full => false,
                }
            }
        }
    }
}

impl CoreUnit {
    /// Delivers a refilled line from the LLC into the L1; wakes waiters.
    fn on_fill(&mut self, now: Cycle, line_addr: Addr) -> Option<Addr> {
        // A fill frees an MSHR and may complete loads: the core wakes.
        self.asleep = None;
        self.stats.inflight = self.stats.inflight.saturating_sub(1);
        self.grants.on_fill();
        self.stats.fills += 1;
        let entry = self.l1_mshrs.complete(line_addr)?;
        self.stats.mem_latency.record(now.saturating_sub(entry.allocated_at));
        for w in &entry.waiters {
            if let L1Waiter::Load(op) = w {
                self.core.complete(*op);
            }
        }
        let any_write = entry.any_write;
        self.l1_mshrs.recycle(entry.waiters);
        let evicted = self.l1.fill(line_addr, any_write);
        match evicted {
            Some(ev) if ev.dirty => {
                self.stats.writebacks += 1;
                self.wb_queue.push_back(ev.line_addr);
                Some(ev.line_addr)
            }
            _ => None,
        }
    }

    /// How a tick at `at` would spend the core's cycle, as the skip probe
    /// classifies it: [`Core::idle_class`] refined with what this unit's
    /// L1 front end would do. A `Busy` core whose only possible action is
    /// re-offering a memory op the port deterministically rejects (line
    /// absent from the L1, no MSHR to merge into, MSHR file full) is
    /// promoted to [`CoreIdleClass::PortBlocked`]. The rejection is
    /// stable across a skip window because MSHRs only free and the L1
    /// only changes on fills, and every fill has a wake-up event.
    /// A sleeping core's class is its sleep class, which is what this
    /// walk would find, or the empty-ROB port stall, which it never names.
    fn idle_class(&self, at: Cycle) -> CoreIdleClass {
        if let Some(class) = self.asleep {
            return class;
        }
        let class = self.core.idle_class(at);
        if class != CoreIdleClass::Busy || !self.core.stalled_on_pending_issue(at) {
            return class;
        }
        if let Some((addr, _)) = self.core.pending_issue() {
            let line = self.l1.geometry().line_of(addr);
            if !self.l1.probe(addr) && !self.l1_mshrs.contains(line) && self.l1_mshrs.is_full() {
                return CoreIdleClass::PortBlocked;
            }
        }
        CoreIdleClass::Busy
    }

    /// Replays `k` cycles in which the core's pipeline repeats the idle
    /// `class` instead of running: the class's counters and `k` slept
    /// core-ticks. The one idle replay: a sleeping core's tick (`k = 1`,
    /// after its issue stage ran) and every window replay.
    fn replay_idle(&mut self, class: CoreIdleClass, k: Cycle, slept: &mut u64) {
        self.core.note_idle_cycles(class, k);
        *slept += k;
    }

    /// Replays the `k` cycles through `last` in which the core was passed
    /// over asleep in `class`: the one window replay, for a skipped window
    /// and a dormant core's catch-up. With the LLC ports free, the issue
    /// stage denies a denied head again (a stall per cycle) and finds no
    /// request in an empty miss queue, whatever outcome emptied it. Then
    /// the idle class for `k` cycles, and one shaper tick at `last`:
    /// time-driven shaper state (credit accrual, replenish boundaries)
    /// does not depend on tick cadence, so it reaches what a naive run's
    /// tick on every cycle reached.
    fn replay_window(
        &mut self,
        class: CoreIdleClass,
        k: Cycle,
        last: Cycle,
        ports_free: bool,
        slept: &mut u64,
    ) {
        if ports_free {
            if self.miss_queue.is_empty() {
                self.last_outcome = IssueOutcome::NoRequest;
            } else if matches!(
                self.last_outcome,
                IssueOutcome::ShaperDenied
                    | IssueOutcome::ThrottleBlocked
                    | IssueOutcome::FaultDenied
            ) {
                self.stats.shaper_stall_cycles += k;
            }
        }
        self.replay_idle(class, k, slept);
        self.shaper.borrow_mut().tick(last);
    }

    /// The one wake rule, judged with the state settled before a visit at
    /// `next`: the first cycle at which a visit can differ from a replay
    /// of the last one (`Cycle::MAX` when only an event that wakes the
    /// core itself can end the repeat), or the [`SkipBlocker`] that makes
    /// the next visit unpredictable. The tick asks it at the end of a
    /// sleeping core's visit to make the core dormant; the skip probe asks
    /// it for every core that is not dormant. Both add their own guards.
    fn wake_at(&self, next: Cycle, ctl: &SourceControl) -> Result<Cycle, SkipBlocker> {
        if !self.wb_queue.is_empty() {
            return Err(SkipBlocker::CoreWbQueue);
        }
        let mut wake = match self.idle_class(next) {
            CoreIdleClass::Busy => return Err(SkipBlocker::CoreBusy),
            CoreIdleClass::Frozen => self.core.frozen_until(),
            // Each waits on a fill (ROB head / L1 MSHR), and every fill
            // path has a downstream event.
            CoreIdleClass::MemBlocked
            | CoreIdleClass::PortBlocked
            | CoreIdleClass::PortBlockedEmpty => Cycle::MAX,
        };
        // The ROB-head load may itself be an L1 hit in flight through the
        // hit pipe; its completion is a mandatory wake-up.
        if let Some(&(ready, _)) = self.hit_pipe.front() {
            wake = wake.min(ready);
        }
        if self.miss_queue.is_empty() {
            return Ok(wake);
        }
        let issue = match self.last_outcome {
            // The shaper's `next_grant_event` at the denial, cached by the
            // issue stage (`Cycle::MAX` when waiting alone never helps).
            IssueOutcome::ShaperDenied => self.denied_until,
            // An expired gap means the block is the inflight cap, cured
            // only by a fill (downstream events cover it).
            IssueOutcome::ThrottleBlocked => {
                match (ctl.throttle(self.id).min_issue_gap, self.last_issue) {
                    (Some(gap), Some(last)) if last + gap as Cycle >= next => last + gap as Cycle,
                    _ => Cycle::MAX,
                }
            }
            // Injected faults never expire; the fault-plan and watchdog
            // events bound the wait.
            IssueOutcome::FaultDenied => Cycle::MAX,
            // Granted / NoRequest / NoPorts / McBackpressure with a
            // pending head: the next visit would attempt an issue whose
            // outcome cannot be predicted without mutating the shaper.
            _ => return Err(SkipBlocker::CoreMissQueueIssue),
        };
        Ok(wake.min(issue))
    }

    /// This core's cumulative counters: the scheduler signal table row,
    /// [`System::core_snapshot`], and the sampler's per-core input.
    fn signals(&self) -> CoreSignals {
        let c: &CoreCounters = self.core.counters();
        CoreSignals {
            cycles: c.cycles,
            instructions: c.instructions,
            mem_stall_cycles: c.mem_stall_cycles,
            l1_misses: self.stats.l1_misses,
            llc_misses: self.stats.llc_misses,
            mem_completed: self.stats.fills,
            mem_latency_sum: self.stats.mem_latency.sum(),
        }
    }
}

/// What kind of request an LLC lookup is.
#[derive(Debug, Clone, Copy)]
enum LlcKind {
    /// A demand fill request from a core; carries the shaper token and
    /// whether the shaper has already been notified of hit/miss.
    Demand { token: ShapeToken, notified: bool },
    /// A dirty writeback from an L1.
    Writeback,
}

#[derive(Debug, Clone, Copy)]
struct LlcLookup {
    ready_at: Cycle,
    core: CoreId,
    line_addr: Addr,
    kind: LlcKind,
}

/// A transaction bound for a memory controller. It waits in the LLC's
/// backlog while its channel's FIFO is full.
#[derive(Debug, Clone, Copy)]
struct McBacklogEntry {
    core: CoreId,
    line_addr: Addr,
    cmd: MemCmd,
    /// Memory channel of `line_addr`, decoded once when the transaction
    /// is created (the backlog head is retried every cycle).
    channel: usize,
}

impl McBacklogEntry {
    fn new(map: ChannelMap, core: CoreId, line_addr: Addr, cmd: MemCmd) -> Self {
        McBacklogEntry { core, line_addr, cmd, channel: map.channel_of(line_addr) }
    }
}

/// The shared last-level cache.
struct LlcUnit {
    cache: Cache,
    mshrs: MshrFile<CoreId>,
    lookups: VecDeque<LlcLookup>,
    mc_backlog: VecDeque<McBacklogEntry>,
    hit_latency: Cycle,
    /// Optional per-core shapers at the LLC-miss→controller boundary —
    /// the paper's Fig. 7 *middle* placement, which sees exactly the true
    /// memory-request stream (feasible here because the model's LLC is
    /// monolithic; the paper notes it is hard in a distributed LLC).
    shapers: Vec<Option<ShaperHandle>>,
    /// Per-core LLC misses awaiting an after-LLC shaper grant.
    deferred: Vec<VecDeque<Addr>>,
    /// Earliest `ready_at` in `lookups` (`Cycle::MAX` when empty): lowered
    /// by every push, recomputed by the rotation in `llc_tick`.
    next_ready: Cycle,
    /// Some after-LLC shaper is attached or some deferred queue is
    /// non-empty: the per-core shaper stage has work. Set on attach
    /// (only an attached shaper defers a miss); recomputed by the stage.
    gated: bool,
}

impl LlcUnit {
    /// Queues a lookup, keeping `next_ready` the earliest ready cycle.
    fn push_lookup(&mut self, lk: LlcLookup) {
        self.next_ready = self.next_ready.min(lk.ready_at);
        self.lookups.push_back(lk);
    }
}

/// A fill that must be delivered to a core this cycle.
#[derive(Debug, Clone, Copy)]
struct CoreFill {
    core: CoreId,
    line_addr: Addr,
}

/// A shaper notification (LLC hit/miss feedback).
#[derive(Debug, Clone, Copy)]
struct ShaperNote {
    core: CoreId,
    token: ShapeToken,
    hit: bool,
}

/// Builder for [`System`]. Cores default to a compute-bound trace, an
/// [`UnlimitedShaper`], and the FCFS scheduler; override what you need.
///
/// # Examples
///
/// ```
/// use mitts_sim::system::SystemBuilder;
/// use mitts_sim::config::SystemConfig;
/// use mitts_sim::trace::StrideTrace;
///
/// let mut sys = SystemBuilder::new(SystemConfig::single_program())
///     .trace(0, Box::new(StrideTrace::new(20, 64, 1 << 20)))
///     .build();
/// sys.run_cycles(10_000);
/// assert!(sys.core_stats(0).counters.instructions > 0);
/// ```
pub struct SystemBuilder {
    config: SystemConfig,
    traces: Vec<Option<Box<dyn TraceSource>>>,
    shapers: Vec<Option<ShaperHandle>>,
    schedulers: Vec<Option<Box<dyn Scheduler>>>,
    engine: Engine,
    trace_sink: Option<Box<dyn TraceSink>>,
    sample_every: Option<Cycle>,
}

impl SystemBuilder {
    /// Starts a builder for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]). Use [`SystemBuilder::try_new`] to
    /// handle misconfiguration gracefully.
    pub fn new(config: SystemConfig) -> Self {
        match SystemBuilder::try_new(config) {
            Ok(b) => b,
            Err(e) => panic!("invalid SystemConfig: {e}"),
        }
    }

    /// Starts a builder for `config`, reporting configuration errors
    /// instead of panicking.
    pub fn try_new(config: SystemConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let cores = config.cores;
        let channels = config.mc.channels;
        Ok(SystemBuilder {
            config,
            traces: (0..cores).map(|_| None).collect(),
            shapers: (0..cores).map(|_| None).collect(),
            schedulers: (0..channels).map(|_| None).collect(),
            engine: Engine::Skip,
            trace_sink: None,
            sample_every: None,
        })
    }

    /// Installs a request-lifecycle trace sink, enabling observability
    /// tracing (see [`crate::obs`]). Without a sink, tracing costs one
    /// predicted branch per hook; with one, every lifecycle step emits a
    /// [`crate::obs::TraceEvent`].
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Enables time-series sampling every `interval` cycles: per-core IPC
    /// and stall deltas, shaper credit occupancy, MC queue depths, and
    /// DRAM bus/row statistics, as epoch-delta rows (see
    /// [`System::samples`]). Boundaries clamp skips, so rows are
    /// bit-identical between naive and skipping runs.
    pub fn sample_every(mut self, interval: Cycle) -> Self {
        self.sample_every = Some(interval.max(1));
        self
    }

    /// Selects the execution engine (see [`Engine`]; the skip engine is
    /// the default). Both engines are bit-identical in results; they
    /// differ in how many cycles they execute.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the trace source feeding core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn trace(mut self, core: usize, trace: Box<dyn TraceSource>) -> Self {
        self.traces[core] = Some(trace);
        self
    }

    /// Sets the source shaper for core `core`. Pass the same handle for
    /// several cores to share one credit pool (§IV-H).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn shaper(mut self, core: usize, shaper: ShaperHandle) -> Self {
        self.shapers[core] = Some(shaper);
        self
    }

    /// Sets the memory-controller scheduling policy for channel 0 (the
    /// common single-channel case). Channels without a policy default to
    /// FCFS.
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.schedulers[0] = Some(scheduler);
        self
    }

    /// Sets the scheduling policy of a specific memory channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel_scheduler(mut self, channel: usize, scheduler: Box<dyn Scheduler>) -> Self {
        self.schedulers[channel] = Some(scheduler);
        self
    }

    /// Builds the system.
    pub fn build(self) -> System {
        self.build_inner(true)
    }

    /// Builds the system, then restores the complete simulation state
    /// captured by [`System::snapshot`]. The builder must reconstruct the
    /// *same* system shape — configuration, trace sources, shapers
    /// (including their sharing topology), and schedulers — as the one
    /// that was snapshotted; any divergence is reported as a
    /// [`SnapshotError::Mismatch`] rather than silently producing wrong
    /// state. The resumed run continues bit-identically to the original:
    /// statistics, grant ledgers, audit logs, and trace-event streams all
    /// match an uninterrupted run.
    ///
    /// Unlike [`SystemBuilder::build`], no cycle-0 shaper-config trace
    /// events are emitted: the original run already emitted them, so the
    /// resumed event stream is exactly the *remainder* of the full run's
    /// stream.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from [`System::restore`].
    pub fn resume_from(self, snapshot: &Snapshot) -> Result<System, SnapshotError> {
        let mut system = self.build_inner(false);
        system.restore(snapshot)?;
        Ok(system)
    }

    fn build_inner(self, emit_config_events: bool) -> System {
        let config = self.config;
        let cores: Vec<CoreUnit> = self
            .traces
            .into_iter()
            .zip(self.shapers)
            .enumerate()
            .map(|(i, (trace, shaper))| {
                let trace = trace.unwrap_or_else(|| Box::new(ComputeTrace::new(16)));
                let shaper = shaper
                    .unwrap_or_else(|| Rc::new(RefCell::new(UnlimitedShaper::new())));
                CoreUnit {
                    id: CoreId::new(i),
                    core: Core::new(&config.core, trace),
                    l1: Cache::new(&config.l1),
                    l1_mshrs: MshrFile::new(config.l1.mshrs),
                    miss_queue: VecDeque::new(),
                    wb_queue: VecDeque::new(),
                    hit_pipe: VecDeque::new(),
                    shaper,
                    grants: GrantLedger::default(),
                    last_issue: None,
                    last_outcome: IssueOutcome::NoRequest,
                    asleep: None,
                    denied_until: 0,
                    dormant_from: 0,
                    stats: CoreStats::new(STAT_BINS, STAT_BIN_WIDTH),
                    l1_hit_latency: config.l1.hit_latency,
                }
            })
            .collect();
        let llc = LlcUnit {
            cache: Cache::new(&config.llc),
            mshrs: MshrFile::new(config.llc.mshrs),
            lookups: VecDeque::new(),
            mc_backlog: VecDeque::new(),
            hit_latency: config.llc.hit_latency,
            shapers: (0..config.cores).map(|_| None).collect(),
            deferred: (0..config.cores).map(|_| VecDeque::new()).collect(),
            next_ready: Cycle::MAX,
            gated: false,
        };
        let channels: Vec<Channel> = self
            .schedulers
            .into_iter()
            .map(|sched| Channel {
                mc: MemoryController::new(&config.mc),
                dram: Dram::new(&config.dram, config.core.freq_hz),
                scheduler: sched.unwrap_or_else(|| Box::new(FcfsScheduler::new())),
                sched_wake: 0,
            })
            .collect();
        let mut obs = Observer::new(
            config.cores,
            config.l1.mshrs,
            config.llc.mshrs,
            self.trace_sink,
            self.sample_every,
        );
        if obs.lifecycle_enabled() && emit_config_events {
            for (i, unit) in cores.iter().enumerate() {
                let sh = unit.shaper.borrow();
                let bins = sh.credit_audit().bins.iter().map(|b| (b.live, b.max)).collect();
                obs.emit_shaper_config(0, i, sh.name(), bins);
            }
        }
        let mut auditor = InvariantAuditor::new(
            &config,
            channels.iter().map(|ch| ch.scheduler.conformance_policy()),
        );
        for (i, unit) in cores.iter().enumerate() {
            auditor.attach_shaper(i, &unit.shaper, 0, false);
        }
        let n = config.cores;
        System {
            now: 0,
            cores,
            llc,
            channels,
            channel_map: ChannelMap::new(&config),
            source_ctl: SourceControl::new(n),
            signals: vec![CoreSignals::default(); n],
            dormant: vec![0; n],
            rr_offset: 0,
            llc_ports: config.llc_ports,
            auditor,
            faults: ActiveFaults::default(),
            engine: self.engine,
            skipped_cycles: 0,
            slept_ticks: 0,
            fills_scratch: Vec::new(),
            notes_scratch: Vec::new(),
            resp_scratch: Vec::new(),
            lookups_scratch: Vec::new(),
            obs,
            config,
        }
    }
}

/// One memory channel: a controller, its DRAM devices, and the channel's
/// scheduling policy.
struct Channel {
    mc: MemoryController,
    dram: Dram<TxnId>,
    scheduler: Box<dyn Scheduler>,
    /// The scheduler's `next_event` at its last hook call (`Cycle::MAX`
    /// for `None`): under [`Engine::Skip`] earlier ticks replay the hook
    /// as one idle cycle, and the probe reads it. Reset to 0 by
    /// `System::wake_all`.
    sched_wake: Cycle,
}

/// The simulated system. Construct with [`SystemBuilder`]; advance with
/// [`System::run_cycles`]; read results with [`System::core_stats`] and
/// friends.
pub struct System {
    now: Cycle,
    cores: Vec<CoreUnit>,
    llc: LlcUnit,
    channels: Vec<Channel>,
    channel_map: ChannelMap,
    source_ctl: SourceControl,
    signals: Vec<CoreSignals>,
    /// Under [`Engine::Skip`], each core's wake cycle while it is dormant,
    /// 0 while it is not: before that cycle a visit would repeat the
    /// last one (`CoreUnit::wake_at`), so the core loop passes the core
    /// over, the probe reads the cycle here, and the core's cycles are
    /// replayed once, when it wakes or something reads it. No core is
    /// dormant between run calls.
    dormant: Vec<Cycle>,
    rr_offset: usize,
    llc_ports: usize,
    /// Invariant auditor + forward-progress watchdog (see [`crate::audit`]).
    auditor: InvariantAuditor,
    /// Injected faults, if any (testing the checkers).
    faults: ActiveFaults,
    /// Execution engine (the naive mode is the reference for equivalence
    /// tests; see [`Engine`]).
    engine: Engine,
    /// Total cycles jumped over by the skip engine.
    skipped_cycles: u64,
    /// Total core-ticks replayed by sleeping cores.
    slept_ticks: u64,
    /// Reusable per-tick buffers (the tick hot path must not allocate).
    fills_scratch: Vec<CoreFill>,
    notes_scratch: Vec<ShaperNote>,
    resp_scratch: Vec<McResponse>,
    lookups_scratch: Vec<LlcLookup>,
    /// Observability: lifecycle tracing + time-series sampling (zero-cost
    /// when disabled; see [`crate::obs`]).
    obs: Observer,
    config: SystemConfig,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .finish()
    }
}

impl System {
    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Cumulative statistics for core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_stats(&self, core: usize) -> CoreStats {
        let unit = &self.cores[core];
        let mut stats = unit.stats.clone();
        stats.counters = unit.core.counters().clone();
        stats
    }

    /// Cumulative counters of core `core`; [`CoreSignals::delta`] of two
    /// of them measures a window.
    pub fn core_snapshot(&self, core: usize) -> CoreSignals {
        self.cores[core].signals()
    }

    /// Cumulative counters of every core.
    pub fn snapshots(&self) -> Vec<CoreSignals> {
        self.cores.iter().map(CoreUnit::signals).collect()
    }

    /// The shaper handle for core `core` (reconfigure it at runtime by
    /// borrowing it mutably).
    pub fn shaper_handle(&self, core: usize) -> ShaperHandle {
        Rc::clone(&self.cores[core].shaper)
    }

    /// Replaces the shaper on core `core`. The auditor checks it from
    /// here on against a fresh oracle built from its contract (or the
    /// oracle of the pool it already serves), so hand over a freshly
    /// built shaper.
    pub fn set_shaper(&mut self, core: usize, shaper: ShaperHandle) {
        if self.obs.lifecycle_enabled() {
            let sh = shaper.borrow();
            let bins = sh.credit_audit().bins.iter().map(|b| (b.live, b.max)).collect();
            self.obs.emit_shaper_config(self.now, core, sh.name(), bins);
        }
        let stalled = self.cores[core].last_outcome == IssueOutcome::ShaperDenied;
        self.auditor.attach_shaper(core, &shaper, self.now, stalled);
        let unit = &mut self.cores[core];
        unit.shaper = shaper;
        unit.denied_until = 0;
    }

    /// Installs (or clears) an *after-LLC* shaper for core `core` — the
    /// Fig. 7 middle placement, gating exactly the true memory-request
    /// stream at the LLC-miss→controller boundary. Independent of the
    /// per-core L1-path shaper; normally only one of the two is used.
    /// The auditor does not check it against its contract (see DESIGN).
    pub fn set_llc_shaper(&mut self, core: usize, shaper: Option<ShaperHandle>) {
        self.llc.gated |= shaper.is_some();
        self.llc.shapers[core] = shaper;
    }

    /// Sets or clears every memory controller's highest-priority core
    /// (the MISE sampling mechanism).
    pub fn set_priority_core(&mut self, core: Option<CoreId>) {
        for channel in &mut self.channels {
            channel.mc.set_priority_core(core);
        }
    }

    /// Freezes core `core` for `cycles` cycles from now (models runtime
    /// software overhead of the online tuner).
    pub fn freeze_core(&mut self, core: usize, cycles: Cycle) {
        let until = self.now + cycles;
        self.cores[core].core.freeze_until(until);
    }

    /// Current program phase reported by core `core`'s trace.
    pub fn core_phase(&self, core: usize) -> usize {
        self.cores[core].core.phase()
    }

    /// The invariant auditor (pass counts, violation log, stall state).
    pub fn auditor(&self) -> &InvariantAuditor {
        &self.auditor
    }

    /// Violations recorded by the auditor and watchdog so far (empty in a
    /// healthy run).
    pub fn audit_log(&self) -> &[AuditViolation] {
        self.auditor.violations()
    }

    /// The watchdog's diagnosis, if the system has been declared stalled.
    pub fn stall_report(&self) -> Option<&StallReport> {
        self.auditor.stall()
    }

    /// The observability subsystem (stage histograms, sample rows, event
    /// counters). See [`crate::obs`].
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Retained time-series sample rows, oldest first (empty unless
    /// [`SystemBuilder::sample_every`] was configured).
    pub fn samples(&self) -> &[SampleRow] {
        self.obs.samples()
    }

    /// Writes the end-of-run [`crate::obs::TraceEvent::RunSummary`]
    /// (total cycles plus the sum and count of the cores' `mem_latency`
    /// histograms, the cross-check for latency decompositions) and
    /// flushes the trace sink. Call once after the run; a no-op without a
    /// sink.
    pub fn flush_trace(&mut self) {
        let (sum, count) = self.cores.iter().fold((0u64, 0u64), |(s, c), u| {
            (s + u.stats.mem_latency.sum(), c + u.stats.mem_latency.count())
        });
        self.obs.emit_run_summary(self.now, sum, count);
    }

    /// Mutable access to the per-core source throttles (normally steered
    /// by the scheduler's epoch hook; exposed for tests and external
    /// control loops).
    pub fn source_control_mut(&mut self) -> &mut SourceControl {
        &mut self.source_ctl
    }

    /// Installs a fault plan, replacing any previous one. Used by tests to
    /// prove the auditor and watchdog detect each fault class; see
    /// [`FaultPlan`].
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        if self.obs.lifecycle_enabled() {
            self.obs.on_fault_injected(self.now, format!("{plan:?}"));
        }
        self.faults.inject(plan);
        self.apply_dram_faults();
    }

    /// Sets every channel's DRAM model timing to the configured timing
    /// with the fault plan's shaves applied.
    fn apply_dram_faults(&mut self) {
        let base = self.config.dram.timing_cycles(self.config.core.freq_hz);
        let timing = self.faults.dram_timing(base);
        for channel in &mut self.channels {
            channel.dram.set_timing(timing);
        }
    }

    /// Switches the execution engine at runtime. Safe mid-run: both
    /// engines leave the system in the same settled end-of-cycle state
    /// after each advance (no core is dormant), the skip probe keeps no
    /// state of its own, the cached wake cycles the naive engine does not
    /// refresh (the watchdog deadline, the scheduler hooks) can only be
    /// early, which costs one visit, and the dispatch fences, which the
    /// naive engine does not keep, are reset at the entry to every call.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The execution engine currently advancing the system.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Total cycles the skip engine has jumped over (0 in naive mode).
    /// A diagnostic for the speedup achieved, not a statistic —
    /// skipped cycles are fully accounted in every counter.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Total core-cycles in which a core replayed its idle class instead
    /// of running its pipeline: sleeping and dormant cores' ticks and
    /// every core's cycles in a skipped window (0 in naive mode). A
    /// diagnostic, like [`System::skipped_cycles`]: a replayed cycle
    /// bumps every counter a real tick would.
    pub fn slept_ticks(&self) -> u64 {
        self.slept_ticks
    }

    /// Ends every core's and every shaper's sleep, makes every scheduler
    /// hook due and resets every dispatch fence. The public entry points
    /// call it once per call: between calls the caller may reconfigure a
    /// shaper through its handle, freeze a core, inject faults (a DRAM
    /// timing fault changes bank timing), write the source controls,
    /// restore a snapshot or switch engines (naive ticks do not keep the
    /// fences), none of which wakes a sleeper by itself.
    fn wake_all(&mut self) {
        debug_assert!(self.dormant.iter().all(|&w| w == 0), "run calls end settled");
        for unit in &mut self.cores {
            unit.asleep = None;
            unit.denied_until = 0;
        }
        for ch in &mut self.channels {
            ch.sched_wake = 0;
            ch.mc.reset_fence();
        }
    }

    /// Brings dormant core `idx` to the state a naive run has at the end
    /// of cycle `through`: replays the cycles it was passed over
    /// (`CoreUnit::replay_window`). The core stays dormant.
    #[cold]
    #[inline(never)]
    fn catch_up(&mut self, idx: usize, through: Cycle) {
        let unit = &mut self.cores[idx];
        if through >= unit.dormant_from {
            let class = unit.asleep.expect("a dormant core sleeps");
            let k = through + 1 - unit.dormant_from;
            unit.replay_window(class, k, through, true, &mut self.slept_ticks);
            unit.dormant_from = through + 1;
        }
    }

    /// Ends core `idx`'s dormancy before its visit at `now`, caught up to
    /// `now - 1`.
    #[cold]
    #[inline(never)]
    fn wake_dormant(&mut self, idx: usize, now: Cycle) {
        self.catch_up(idx, now - 1);
        self.dormant[idx] = 0;
    }

    /// Shaper feedback at `now` reaches dormant core `idx`'s shaper
    /// instance: the core catches up to `now - 1`, where a naive run's
    /// last shaper tick left the instance. A denied head wakes, because
    /// the feedback ends its cached denial; a core with no request stays
    /// dormant.
    #[cold]
    #[inline(never)]
    fn feedback_to_dormant(&mut self, idx: usize, now: Cycle) {
        if self.cores[idx].last_outcome == IssueOutcome::ShaperDenied {
            self.wake_dormant(idx, now);
        } else {
            self.catch_up(idx, now - 1);
        }
    }

    /// [`System::catch_up`] for every dormant core, before something
    /// reads their counters or shaper state at the end of cycle
    /// `through`.
    fn catch_up_all(&mut self, through: Cycle) {
        for idx in 0..self.cores.len() {
            if self.dormant[idx] != 0 {
                self.catch_up(idx, through);
            }
        }
    }

    /// Ends every core's dormancy, caught up to the last executed cycle.
    /// Every run call ends with it, so snapshots, stats accessors and
    /// anything the caller does between calls see settled state.
    fn settle(&mut self) {
        if self.dormant.iter().any(|&w| w != 0) {
            self.catch_up_all(self.now - 1);
            self.dormant.fill(0);
        }
    }

    /// A digest of the configuration, stored in snapshots so a resume
    /// into a differently configured system is refused up front.
    fn config_digest(config: &SystemConfig) -> u32 {
        crc32(format!("{config:?}").as_bytes())
    }

    /// Captures the complete mutable simulation state — core pipelines
    /// and trace cursors, caches and MSHRs, shaper credits, controller
    /// queues, DRAM timing, scheduler state, and auditor/observer
    /// counters — as a versioned, CRC-checked [`Snapshot`].
    ///
    /// The contract: resume the snapshot into an identically built system
    /// (see [`SystemBuilder::resume_from`]) and the continued run is
    /// bit-identical to an uninterrupted one, under either engine.
    ///
    /// # Errors
    ///
    /// - [`SnapshotError::Stalled`] when the watchdog has declared the
    ///   system stalled (a stall report is a diagnosis, not a resumable
    ///   state).
    /// - [`SnapshotError::Unsupported`] when any trace source, shaper, or
    ///   scheduler does not implement checkpointing (`snapshot_kind()`
    ///   returns `None`); the error names the component.
    pub fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        if self.auditor.stall().is_some() {
            return Err(SnapshotError::Stalled);
        }
        for (i, unit) in self.cores.iter().enumerate() {
            if unit.core.trace_snapshot_kind().is_none() {
                return Err(SnapshotError::unsupported(format!("core {i} trace source")));
            }
            let sh = unit.shaper.borrow();
            if sh.snapshot_kind().is_none() {
                return Err(SnapshotError::unsupported(format!(
                    "core {i} shaper `{}`",
                    sh.name()
                )));
            }
        }
        for (i, sh) in self.llc.shapers.iter().enumerate() {
            if let Some(sh) = sh {
                let sh = sh.borrow();
                if sh.snapshot_kind().is_none() {
                    return Err(SnapshotError::unsupported(format!(
                        "core {i} after-LLC shaper `{}`",
                        sh.name()
                    )));
                }
            }
        }
        for (c, ch) in self.channels.iter().enumerate() {
            if ch.scheduler.snapshot_kind().is_none() {
                return Err(SnapshotError::unsupported(format!(
                    "channel {c} scheduler `{}`",
                    ch.scheduler.name()
                )));
            }
        }

        let mut w = SnapshotWriter::new();
        w.section("meta", |e| {
            e.u32(Self::config_digest(&self.config));
            e.usize(self.cores.len());
            e.usize(self.channels.len());
            e.u64(self.now);
        });
        for (i, unit) in self.cores.iter().enumerate() {
            w.section(&format!("core{i}"), |e| Self::save_core(unit, e));
        }
        w.section("llc", |e| self.save_llc(e));
        for (c, ch) in self.channels.iter().enumerate() {
            w.section(&format!("chan{c}"), |e| Self::save_channel(ch, e));
        }
        w.section("audit", |e| {
            self.auditor.save_state(e);
            self.faults.save_state(e);
        });
        w.section("obs", |e| self.obs.save_state(e));
        w.section("sys", |e| {
            e.u64(self.now);
            e.usize(self.rr_offset);
            // `skipped_cycles` is an execution diagnostic (how the run
            // was *driven*, not what the machine did) and differs by
            // engine, so it is excluded to keep snapshot bytes
            // engine-independent. A resumed run restarts the count at 0.
            // The per-core signal table is NOT serialised: it is a
            // reusable scratch buffer refreshed from the live counters
            // at the start of step 6 of every tick that runs a
            // scheduler hook, *before* any scheduler reads it, so its
            // cross-tick contents are never observable. Persisting it
            // would capture engine-dependent staleness (how far back
            // the last refresh was depends on how the run was driven).
            // Neither is any component's cached wake cycle: each is
            // rebuilt from the restored state.
            self.source_ctl.save_state(e);
        });
        Ok(w.finish())
    }

    /// Restores the state captured by [`System::snapshot`] into this
    /// system. The system must have been built with the same
    /// configuration and the same component kinds (trace sources,
    /// shapers — including the after-LLC placement installed via
    /// [`System::set_llc_shaper`] — and schedulers) as the snapshotted
    /// one.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] on any configuration or topology
    /// divergence, [`SnapshotError::Corrupt`] on structurally invalid
    /// payloads. **On error the system is left in an unspecified
    /// partially restored state and must be discarded.**
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut d = Dec::new(snapshot.section("meta")?);
        let digest = d.u32()?;
        if digest != Self::config_digest(&self.config) {
            return Err(SnapshotError::mismatch(
                "system configuration differs from the one that produced the snapshot",
            ));
        }
        let cores = d.usize()?;
        if cores != self.cores.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {cores} cores, this system has {}",
                self.cores.len()
            )));
        }
        let channels = d.usize()?;
        if channels != self.channels.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {channels} channels, this system has {}",
                self.channels.len()
            )));
        }
        let _taken_at = d.u64()?;
        d.finish()?;

        let map = self.channel_map;
        for (i, unit) in self.cores.iter_mut().enumerate() {
            let mut d = Dec::new(snapshot.section(&format!("core{i}"))?);
            Self::load_core(unit, map, &mut d)
                .map_err(|e| prefix_mismatch(e, &format!("core {i}: ")))?;
            d.finish()?;
        }
        {
            let mut d = Dec::new(snapshot.section("llc")?);
            self.load_llc(&mut d)?;
            d.finish()?;
        }
        for (c, ch) in self.channels.iter_mut().enumerate() {
            let mut d = Dec::new(snapshot.section(&format!("chan{c}"))?);
            Self::load_channel(ch, &mut d)
                .map_err(|e| prefix_mismatch(e, &format!("channel {c}: ")))?;
            d.finish()?;
        }
        {
            let mut d = Dec::new(snapshot.section("audit")?);
            self.auditor.load_state(&mut d)?;
            self.faults.load_state(&mut d)?;
            self.apply_dram_faults();
            d.finish()?;
        }
        {
            let mut d = Dec::new(snapshot.section("obs")?);
            self.obs.load_state(&mut d)?;
            d.finish()?;
        }
        {
            let mut d = Dec::new(snapshot.section("sys")?);
            self.now = d.u64()?;
            self.rr_offset = d.usize()?;
            if self.rr_offset >= self.cores.len() {
                return Err(SnapshotError::corrupt(format!(
                    "round-robin offset {} out of range",
                    self.rr_offset
                )));
            }
            self.skipped_cycles = 0;
            self.slept_ticks = 0;
            // Signal-table scratch: refreshed before first use on the
            // next executed tick (see `snapshot` for why it is not
            // persisted). Reset here so a restored system carries no
            // stale pre-restore values.
            for s in &mut self.signals {
                *s = CoreSignals::default();
            }
            self.source_ctl.load_state(&mut d)?;
            d.finish()?;
        }
        self.auditor.resync(self.now);
        self.obs.resync(self.now);
        self.wake_all();
        Ok(())
    }

    fn save_core(unit: &CoreUnit, e: &mut Enc) {
        unit.core.save_state(e);
        unit.l1.save_state(e);
        unit.l1_mshrs.save_state(e, |e, w| match w {
            L1Waiter::Load(op) => {
                e.u8(0);
                e.u64(op.raw());
            }
            L1Waiter::Store => e.u8(1),
        });
        e.usize(unit.miss_queue.len());
        for m in &unit.miss_queue {
            e.u64(m.line_addr);
            e.u64(m.created_at);
        }
        e.usize(unit.wb_queue.len());
        for &a in &unit.wb_queue {
            e.u64(a);
        }
        e.usize(unit.hit_pipe.len());
        for &(ready, op) in &unit.hit_pipe {
            e.u64(ready);
            e.u64(op.raw());
        }
        let sh = unit.shaper.borrow();
        e.str(sh.snapshot_kind().unwrap_or(""));
        e.blob(|e| sh.save_state(e));
        unit.grants.save_state(e);
        e.opt_u64(unit.last_issue);
        e.u8(unit.last_outcome.snapshot_tag());
        unit.stats.save_state(e);
    }

    fn load_core(
        unit: &mut CoreUnit,
        map: ChannelMap,
        d: &mut Dec<'_>,
    ) -> Result<(), SnapshotError> {
        unit.core.load_state(d)?;
        unit.l1.load_state(d)?;
        unit.l1_mshrs.load_state(d, |d| match d.u8()? {
            0 => Ok(L1Waiter::Load(OpId::new(d.u64()?))),
            1 => Ok(L1Waiter::Store),
            t => Err(SnapshotError::corrupt(format!("invalid L1 waiter tag {t}"))),
        })?;
        let n = d.checked_len(16)?;
        unit.miss_queue.clear();
        for _ in 0..n {
            let line_addr = d.u64()?;
            let created_at = d.u64()?;
            let channel = map.channel_of(line_addr);
            unit.miss_queue.push_back(PendingMiss { line_addr, created_at, channel });
        }
        let n = d.checked_len(8)?;
        unit.wb_queue.clear();
        for _ in 0..n {
            unit.wb_queue.push_back(d.u64()?);
        }
        let n = d.checked_len(16)?;
        unit.hit_pipe.clear();
        for _ in 0..n {
            unit.hit_pipe.push_back((d.u64()?, OpId::new(d.u64()?)));
        }
        let kind = d.str()?.to_owned();
        {
            let mut sh = unit.shaper.borrow_mut();
            let have = sh.snapshot_kind().unwrap_or("");
            if kind != have {
                return Err(SnapshotError::mismatch(format!(
                    "shaper is `{have}` but the snapshot holds `{kind}`"
                )));
            }
            d.blob(|d| sh.load_state(d))?;
        }
        unit.grants.load_state(d)?;
        unit.last_issue = d.opt_u64()?;
        unit.last_outcome = IssueOutcome::from_snapshot_tag(d.u8()?)?;
        unit.stats.load_state(d)?;
        Ok(())
    }

    fn save_llc(&self, e: &mut Enc) {
        let llc = &self.llc;
        llc.cache.save_state(e);
        llc.mshrs.save_state(e, |e, c| e.usize(c.index()));
        e.usize(llc.lookups.len());
        for l in &llc.lookups {
            e.u64(l.ready_at);
            e.usize(l.core.index());
            e.u64(l.line_addr);
            match l.kind {
                LlcKind::Demand { token, notified } => {
                    e.u8(0);
                    e.u32(token);
                    e.bool(notified);
                }
                LlcKind::Writeback => e.u8(1),
            }
        }
        e.usize(llc.mc_backlog.len());
        for b in &llc.mc_backlog {
            e.usize(b.core.index());
            e.u64(b.line_addr);
            e.bool(b.cmd.is_read());
        }
        e.usize(llc.deferred.len());
        for q in &llc.deferred {
            e.usize(q.len());
            for &a in q {
                e.u64(a);
            }
        }
        e.usize(llc.shapers.len());
        for sh in &llc.shapers {
            match sh {
                Some(sh) => {
                    let sh = sh.borrow();
                    e.bool(true);
                    e.str(sh.snapshot_kind().unwrap_or(""));
                    e.blob(|e| sh.save_state(e));
                }
                None => e.bool(false),
            }
        }
    }

    fn load_llc(&mut self, d: &mut Dec<'_>) -> Result<(), SnapshotError> {
        let cores = self.cores.len();
        let core_id = |d: &mut Dec<'_>| -> Result<CoreId, SnapshotError> {
            let i = d.usize()?;
            if i >= cores {
                return Err(SnapshotError::corrupt(format!("core index {i} out of range")));
            }
            Ok(CoreId::new(i))
        };
        let map = self.channel_map;
        let llc = &mut self.llc;
        llc.cache.load_state(d)?;
        llc.mshrs.load_state(d, |d| core_id(d))?;
        let n = d.checked_len(25)?;
        llc.lookups.clear();
        for _ in 0..n {
            let ready_at = d.u64()?;
            let core = core_id(d)?;
            let line_addr = d.u64()?;
            let kind = match d.u8()? {
                0 => LlcKind::Demand { token: d.u32()?, notified: d.bool()? },
                1 => LlcKind::Writeback,
                t => {
                    return Err(SnapshotError::corrupt(format!("invalid LLC lookup tag {t}")))
                }
            };
            llc.lookups.push_back(LlcLookup { ready_at, core, line_addr, kind });
        }
        llc.next_ready = llc.lookups.iter().map(|l| l.ready_at).min().unwrap_or(Cycle::MAX);
        let n = d.checked_len(17)?;
        llc.mc_backlog.clear();
        for _ in 0..n {
            let core = core_id(d)?;
            let line_addr = d.u64()?;
            let cmd = if d.bool()? { MemCmd::Read } else { MemCmd::Write };
            llc.mc_backlog.push_back(McBacklogEntry::new(map, core, line_addr, cmd));
        }
        let n = d.usize()?;
        if n != llc.deferred.len() {
            return Err(SnapshotError::mismatch("deferred-queue count differs"));
        }
        for q in &mut llc.deferred {
            let m = d.checked_len(8)?;
            q.clear();
            for _ in 0..m {
                q.push_back(d.u64()?);
            }
        }
        let n = d.usize()?;
        if n != llc.shapers.len() {
            return Err(SnapshotError::mismatch("after-LLC shaper count differs"));
        }
        llc.gated = llc.shapers.iter().any(Option::is_some)
            || llc.deferred.iter().any(|q| !q.is_empty());
        for (i, sh) in llc.shapers.iter().enumerate() {
            let present = d.bool()?;
            match (present, sh) {
                (true, Some(sh)) => {
                    let kind = d.str()?.to_owned();
                    let mut sh = sh.borrow_mut();
                    let have = sh.snapshot_kind().unwrap_or("");
                    if kind != have {
                        return Err(SnapshotError::mismatch(format!(
                            "core {i} after-LLC shaper is `{have}` but the snapshot holds `{kind}`"
                        )));
                    }
                    d.blob(|d| sh.load_state(d))?;
                }
                (false, None) => {}
                (true, None) => {
                    return Err(SnapshotError::mismatch(format!(
                        "snapshot holds an after-LLC shaper for core {i} but none is installed"
                    )))
                }
                (false, Some(_)) => {
                    return Err(SnapshotError::mismatch(format!(
                        "core {i} has an after-LLC shaper but the snapshot holds none"
                    )))
                }
            }
        }
        Ok(())
    }

    fn save_channel(ch: &Channel, e: &mut Enc) {
        ch.mc.save_state(e);
        ch.dram.save_state(e, |e, &t| e.u64(t));
        e.str(ch.scheduler.snapshot_kind().unwrap_or(""));
        e.blob(|e| ch.scheduler.save_state(e));
    }

    fn load_channel(ch: &mut Channel, d: &mut Dec<'_>) -> Result<(), SnapshotError> {
        ch.mc.load_state(d)?;
        ch.dram.load_state(d, |d| d.u64())?;
        let kind = d.str()?.to_owned();
        let have = ch.scheduler.snapshot_kind().unwrap_or("");
        if kind != have {
            return Err(SnapshotError::mismatch(format!(
                "scheduler is `{have}` but the snapshot holds `{kind}`"
            )));
        }
        d.blob(|d| ch.scheduler.load_state(d))?;
        Ok(())
    }

    /// Every core's [`CoreStats`] and every channel's counters, comparable
    /// with `==` across runs. Two runs of the same workload — one naive,
    /// one fast-forwarded — must produce equal `SystemStats`.
    pub fn system_stats(&self) -> SystemStats {
        SystemStats {
            cycles: self.now,
            cores: (0..self.cores.len()).map(|c| self.core_stats(c)).collect(),
            channels: self
                .channels
                .iter()
                .map(|ch| ChannelSystemStats {
                    dispatched: ch.mc.dispatched(),
                    completed: ch.mc.completed(),
                    fifo_rejections: ch.mc.fifo_rejections(),
                    row_stats: ch.dram.row_stats(),
                    bytes: ch.dram.bytes_transferred(),
                    refreshes: ch.dram.refreshes(),
                    busy_bus_cycles: ch.dram.busy_bus_cycles(),
                    ticks: self.now,
                    queue_occupancy_sum: ch.mc.queue_occupancy_sum(),
                })
                .collect(),
            audit_passes: self.auditor.passes(),
            audit_violations: self.auditor.violations().len(),
        }
    }

    /// Advances the system by at least one cycle: runs one real tick, then
    /// (under [`Engine::Skip`]) jumps `now` over any provably dead window
    /// to the next event. Returns the new `now`.
    pub fn advance(&mut self) -> Cycle {
        self.wake_all();
        self.advance_bounded(Cycle::MAX);
        self.settle();
        self.now
    }

    fn advance_bounded(&mut self, limit: Cycle) {
        self.tick();
        self.post_tick_forward(limit);
    }

    /// After a real tick, jumps `now` to the probe's target, bounded by
    /// `limit` (a `run_cycles` end, or the instruction-run cycle cap).
    /// No-op under [`Engine::Naive`] or once the watchdog has declared a
    /// stall (a stalled system is inspected per cycle).
    fn post_tick_forward(&mut self, limit: Cycle) {
        if self.engine == Engine::Naive || self.auditor.stall().is_some() {
            return;
        }
        if let Ok(target) = self.probe() {
            let target = target.min(limit);
            if target > self.now {
                self.skip_to(target);
            }
        }
    }

    /// Runs the system for `cycles` cycles.
    pub fn run_cycles(&mut self, cycles: Cycle) {
        self.wake_all();
        let end = self.now + cycles;
        while self.now < end {
            self.advance_bounded(end);
        }
        self.settle();
    }

    /// Runs until every core has retired at least `instructions`
    /// instructions, `max_cycles` elapse, or the watchdog declares the
    /// system stalled — whichever comes first. The returned [`RunOutcome`]
    /// distinguishes the three (use [`RunOutcome::met_target`] for the old
    /// boolean behaviour).
    pub fn run_until_instructions(&mut self, instructions: u64, max_cycles: Cycle) -> RunOutcome {
        self.wake_all();
        let end = self.now + max_cycles;
        let done = |c: &CoreUnit| c.core.counters().instructions >= instructions;
        // Evaluated once per real tick: a skip retires nothing.
        let mut met = self.cores.iter().all(done);
        while self.now < end && !met {
            if self.auditor.stall().is_some() {
                break;
            }
            self.tick();
            met = self.cores.iter().all(done);
            // Do not skip past the tick that completed the target: the
            // finishing core can classify as idle right after retiring its
            // last instruction, and a jump here would inflate the reported
            // completion cycle relative to the naive loop.
            if !met {
                self.post_tick_forward(end);
            }
        }
        self.settle();
        if met {
            RunOutcome::Completed { cycles: self.now }
        } else if let Some(report) = self.auditor.stall() {
            RunOutcome::Stalled(Box::new(report.clone()))
        } else {
            RunOutcome::CycleLimit {
                cycles: self.now,
                lagging: self
                    .cores
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !done(c))
                    .map(|(i, _)| i)
                    .collect(),
            }
        }
    }

    fn tick(&mut self) {
        let now = self.now;
        // Reusable scratch: the hot path must not allocate per tick.
        let mut fills = std::mem::take(&mut self.fills_scratch);
        let mut notes = std::mem::take(&mut self.notes_scratch);
        let faults_active = self.faults.is_active();
        // Only the skip engine lets components sleep until their cached
        // wake cycle; the naive engine runs every stage of every
        // component every cycle.
        let sleep = self.engine == Engine::Skip;

        // 1. DRAM completions -> LLC fills (per channel).
        let map = self.channel_map;
        let nchan = self.channels.len();
        let mut responses = std::mem::take(&mut self.resp_scratch);
        for ch in 0..nchan {
            if sleep && self.channels[ch].dram.next_completion().is_none_or(|c| c > now) {
                continue;
            }
            responses.clear();
            {
                let channel = &mut self.channels[ch];
                channel.mc.drain_completions_into(
                    now,
                    channel.scheduler.as_mut(),
                    &mut channel.dram,
                    &mut responses,
                );
            }
            for resp in responses.drain(..) {
                // Fault injection: a response may be discarded or held.
                match self.faults.on_response(now, resp.txn.addr) {
                    ResponseAction::Drop | ResponseAction::Delay(_) => continue,
                    ResponseAction::Deliver => {}
                }
                self.obs.on_mem_response(now, resp.txn.addr);
                Self::llc_on_mem_response(
                    &mut self.llc,
                    &mut self.channels,
                    map,
                    now,
                    resp.txn.addr,
                    &mut fills,
                    &mut self.obs,
                );
            }
        }
        if faults_active {
            for line in self.faults.due_delayed(now) {
                self.obs.on_mem_response(now, line);
                Self::llc_on_mem_response(
                    &mut self.llc,
                    &mut self.channels,
                    map,
                    now,
                    line,
                    &mut fills,
                    &mut self.obs,
                );
            }
        }

        // 2. LLC: retry MC backlog, then resolve due lookups.
        Self::llc_tick(
            &mut self.llc,
            &mut self.channels,
            map,
            &mut self.cores,
            now,
            sleep,
            &mut fills,
            &mut notes,
            &mut self.lookups_scratch,
            &mut self.obs,
        );

        // 3. Deliver fills and shaper notes to cores.
        let n = self.cores.len();
        for note in notes.drain(..) {
            let core = note.core.index();
            // Feedback (a Method-2 refund) can make a denied request
            // grantable sooner, so every core this instance serves wakes:
            // all sharers of a §IV-H pool. A dormant sharer catches up
            // first, so the feedback finds the shaper where a naive run's
            // last tick left it.
            let instance = Rc::as_ptr(&self.cores[core].shaper) as *const ();
            for i in 0..n {
                if Rc::as_ptr(&self.cores[i].shaper) as *const () == instance {
                    if self.dormant[i] != 0 {
                        self.feedback_to_dormant(i, now);
                    }
                    self.cores[i].denied_until = 0;
                }
            }
            let shaper = &self.cores[core].shaper;
            shaper.borrow_mut().on_llc_response(now, note.token, note.hit);
            self.auditor.shaper_feedback(now, core, note.token, note.hit);
        }
        // Each delivered fill counts one core fill (watchdog progress).
        let fills_delivered = fills.len() as u64;
        for fill in fills.drain(..) {
            let core = fill.core.index();
            self.obs.on_core_fill(now, core, fill.line_addr);
            // A fill wakes the core (`on_fill`), so a dormant one catches up.
            if self.dormant[core] != 0 {
                self.wake_dormant(core, now);
            }
            self.cores[core].on_fill(now, fill.line_addr);
        }

        // 4. Per-core: hit-pipe completions, shaper tick, issue demands and
        //    writebacks through the LLC ports, then tick the core itself.
        let mut ports_left = if faults_active && self.faults.stall_ports(now) {
            0
        } else {
            self.llc_ports
        };
        // When no policy has configured throttles (the common case), skip
        // the per-core control lookup entirely.
        let any_limits = self.source_ctl.any_limits();
        // Cores may turn dormant only while no throttle or fault can
        // change an issue outcome. A dormant core's visit would repeat its
        // last one while ports remain at its position and, for a denied
        // head, no FIFO is full; otherwise `NoPorts` or `McBackpressure`
        // must land on the naive cycle, so it wakes and is visited.
        let dormancy = sleep && !faults_active && !any_limits;
        let fifos_free = dormancy && self.channels.iter().all(|ch| ch.mc.fifo_has_room());
        // Watchdog progress, noted where it happens.
        let mut retired = 0u64;
        let mut all_frozen = true;
        for i in 0..n {
            let idx = wrapping_index(self.rr_offset, i, n);
            let wake = self.dormant[idx];
            if wake != 0 {
                if now < wake
                    && ports_left > 0
                    && dormancy
                    && (fifos_free || self.cores[idx].miss_queue.is_empty())
                {
                    all_frozen = false;
                    continue;
                }
                self.wake_dormant(idx, now);
            }
            let throttle = if any_limits {
                self.source_ctl.throttle(CoreId::new(idx))
            } else {
                CoreThrottle::default()
            };
            // §III-C backpressure: a full smoothing FIFO on the head's
            // channel stalls the issue stage before the shaper is
            // consulted — no port is consumed and no credit is spent, so
            // the FIFO depth bounds how much burstiness the controller
            // absorbs before the stall reaches the sources.
            let backpressured = self.cores[idx]
                .miss_queue
                .front()
                .is_some_and(|h| !self.channels[h.channel].mc.fifo_has_room());
            let unit = &mut self.cores[idx];

            while let Some(&(ready, op)) = unit.hit_pipe.front() {
                if ready > now {
                    break;
                }
                unit.hit_pipe.pop_front();
                unit.core.complete(op);
                unit.asleep = None;
            }

            unit.shaper.borrow_mut().tick(now);

            // Demand issue (head of miss queue) through the shaper. The
            // outcome is recorded so the skip engine knows whether
            // a stuck head is waiting on something time can cure.
            let was_stalled = unit.last_outcome == IssueOutcome::ShaperDenied;
            unit.last_outcome = if ports_left == 0 {
                IssueOutcome::NoPorts
            } else if let Some(&head) = unit.miss_queue.front() {
                let inflight_ok =
                    throttle.max_inflight.is_none_or(|cap| unit.stats.inflight < cap);
                let gap_ok = throttle.min_issue_gap.is_none_or(|gap| {
                    unit.last_issue.is_none_or(|last| now >= last + gap as Cycle)
                });
                if backpressured {
                    IssueOutcome::McBackpressure
                } else if inflight_ok && gap_ok {
                    // Fault injection: a zeroed-credit shaper denies
                    // everything. A sleeping shaper denies until the
                    // cycle its last denial named: a denial changes no
                    // shaper state, so asking again would deny again.
                    let fault_denied = faults_active && self.faults.deny_issue(now, idx);
                    let decision = if fault_denied || now < unit.denied_until {
                        ShapeDecision::Deny
                    } else {
                        let mut shaper = unit.shaper.borrow_mut();
                        let decision = shaper.try_issue(now);
                        if sleep && !decision.is_grant() {
                            unit.denied_until =
                                shaper.next_grant_event(now).unwrap_or(Cycle::MAX);
                        }
                        decision
                    };
                    match decision {
                        ShapeDecision::Grant(token) => {
                            unit.miss_queue.pop_front();
                            unit.stats.inflight += 1;
                            unit.stats.shaper_grants += 1;
                            unit.grants.on_grant(now);
                            unit.last_issue = Some(now);
                            ports_left -= 1;
                            self.obs.on_shaper_grant(now, idx, head.line_addr, token);
                            self.auditor.shaper_grant(now, idx, token, self.rr_offset);
                            self.llc.push_lookup(LlcLookup {
                                ready_at: now + self.llc.hit_latency,
                                core: unit.id,
                                line_addr: head.line_addr,
                                kind: LlcKind::Demand { token, notified: false },
                            });
                            IssueOutcome::Granted
                        }
                        ShapeDecision::Deny => {
                            unit.stats.shaper_stall_cycles += 1;
                            if fault_denied {
                                IssueOutcome::FaultDenied
                            } else {
                                if faults_active && self.faults.corrupt_credits(now, idx) {
                                    // Fault injection: the auditor sees a
                                    // grant the shaper did not make.
                                    self.auditor.shaper_grant(now, idx, 0, self.rr_offset);
                                }
                                IssueOutcome::ShaperDenied
                            }
                        }
                    }
                } else {
                    unit.stats.shaper_stall_cycles += 1;
                    IssueOutcome::ThrottleBlocked
                }
            } else {
                IssueOutcome::NoRequest
            };
            // Shaper stall episodes for the auditor's shaper oracle:
            // transitions only, which land on the same cycles under both
            // engines (a grant ends an episode itself).
            let stalled = unit.last_outcome == IssueOutcome::ShaperDenied;
            if stalled != was_stalled && unit.last_outcome != IssueOutcome::Granted {
                self.auditor.shaper_stall(now, idx, stalled);
            }
            if self.obs.lifecycle_enabled() {
                // Throttling-episode tracking: emitted on transitions only,
                // so skipped quiescent windows (constant outcome) and naive
                // per-cycle re-evaluation produce the same stream.
                let reason = match unit.last_outcome {
                    IssueOutcome::ShaperDenied => Some(StallReason::Shaper),
                    IssueOutcome::ThrottleBlocked => Some(StallReason::Throttle),
                    IssueOutcome::FaultDenied => Some(StallReason::Fault),
                    IssueOutcome::McBackpressure => Some(StallReason::Backpressure),
                    IssueOutcome::NoPorts if !unit.miss_queue.is_empty() => {
                        Some(StallReason::Ports)
                    }
                    _ => None,
                };
                self.obs.on_issue_outcome(now, idx, reason);
            }

            // Writebacks use leftover port bandwidth.
            if ports_left > 0 {
                if let Some(wb) = unit.wb_queue.pop_front() {
                    ports_left -= 1;
                    self.llc.push_lookup(LlcLookup {
                        ready_at: now + self.llc.hit_latency,
                        core: unit.id,
                        line_addr: wb,
                        kind: LlcKind::Writeback,
                    });
                }
            }

            // Core pipeline. A sleeping core's tick would repeat its last
            // one, which changed nothing but counters: replay those.
            if let Some(class) = unit.asleep {
                unit.replay_idle(class, 1, &mut self.slept_ticks);
                all_frozen = false;
            } else {
                let CoreUnit {
                    core, l1, l1_mshrs, miss_queue, hit_pipe, stats, l1_hit_latency, asleep, ..
                } = unit;
                let mut port = L1Front {
                    l1,
                    mshrs: l1_mshrs,
                    miss_queue,
                    hit_pipe,
                    stats,
                    hit_latency: *l1_hit_latency,
                    obs: &mut self.obs,
                    core: idx,
                    channel_map: map,
                };
                let before = core.counters().instructions;
                let class = core.tick(now, &mut port);
                let instructions = core.counters().instructions;
                let frozen = class == CoreIdleClass::Frozen;
                // A retirement or a frozen cycle resets the core's
                // starvation episode; nothing else can.
                if instructions != before || frozen {
                    let fired = self.auditor.observe_core(now, idx, instructions, frozen);
                    debug_assert!(!fired, "a reset never reports starvation");
                }
                retired += instructions - before;
                all_frozen &= frozen;
                // A frozen tick is already one comparison; it does not sleep.
                if sleep && !matches!(class, CoreIdleClass::Busy | CoreIdleClass::Frozen) {
                    *asleep = Some(class);
                }
            }
            if dormancy && unit.asleep.is_some() {
                let wake = unit.wake_at(now + 1, &self.source_ctl).ok();
                if let Some(wake) = wake.filter(|&w| w > now + 1) {
                    unit.dormant_from = now + 1;
                    self.dormant[idx] = wake;
                }
            }
        }
        self.rr_offset = wrapping_index(self.rr_offset, 1, n);

        // 5. Memory controller dispatch (per channel). The auditor's pick
        //    oracle checks each pick as it is made; the auditor's DDR3
        //    oracle checks the dispatch, then the observer traces it.
        for (ci, channel) in self.channels.iter_mut().enumerate() {
            let picks = self.auditor.pick_check(ci);
            let scheduler = channel.scheduler.as_mut();
            if let Some(r) = channel.mc.tick_gated(now, sleep, scheduler, &mut channel.dram, picks) {
                let (dram, log) = self.auditor.dram_check();
                dram.check(r.at, ci, r.txn.addr, r.txn.cmd == MemCmd::Write, &r.timing, log);
                self.obs.on_dispatch(ci, &r);
            }
        }

        // 6. Run each scheduler's epoch hook on fresh per-core signals.
        //    Under the skip engine a hook before its cached `next_event`
        //    is one idle cycle, and the signals are refreshed only when
        //    some hook runs.
        let hook_due = |ch: &Channel| !sleep || now >= ch.sched_wake;
        if self.channels.iter().any(hook_due) {
            self.catch_up_all(now);
            for (s, unit) in self.signals.iter_mut().zip(&self.cores) {
                *s = unit.signals();
            }
        }
        for channel in &mut self.channels {
            if hook_due(channel) {
                channel.scheduler.tick(now, &self.signals, &mut self.source_ctl);
                if sleep {
                    channel.sched_wake = channel.scheduler.next_event(now).unwrap_or(Cycle::MAX);
                }
            } else {
                channel.scheduler.note_idle_cycles(1);
            }
        }

        // 7. Hardening: invariant audit pass, then the forward-progress
        //    watchdog (both read the settled end-of-cycle state).
        if self.auditor.audit_due(now) {
            self.audit_pass(now);
        }
        self.watchdog_tick(now, retired, fills_delivered, all_frozen, sleep);
        self.obs.sync_hardening(now, &self.auditor);

        // 8. Observability: sample the settled end-of-cycle state at
        //    sampling boundaries (real ticks in both modes — boundaries
        //    clamp fast-forward skips), then purge completed timelines.
        if self.obs.sample_due(now) {
            self.catch_up_all(now);
            self.record_sample(now);
        }
        self.obs.end_tick();

        self.fills_scratch = fills;
        self.notes_scratch = notes;
        self.resp_scratch = responses;
        self.now += 1;
    }

    /// Feeds the sampler one boundary's cumulative row (see
    /// [`crate::obs::Sampler`]); only called on sampling boundaries.
    fn record_sample(&mut self, now: Cycle) {
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(core, u)| {
                let c = u.signals();
                let sh = u.shaper.borrow();
                CoreSampleRow {
                    core,
                    instructions: c.instructions,
                    mem_stall: c.mem_stall_cycles,
                    shaper_stall: u.stats.shaper_stall_cycles,
                    l1_misses: c.l1_misses,
                    llc_misses: c.llc_misses,
                    fills: c.mem_completed,
                    credits: sh.credit_audit().bins.iter().map(|b| (b.live, b.max)).collect(),
                    latency: u.stats.mem_latency.buckets(),
                }
            })
            .collect();
        let channels = self
            .channels
            .iter()
            .enumerate()
            .map(|(channel, ch)| {
                let (row_hits, row_misses, row_conflicts) = ch.dram.row_stats();
                ChannelSampleRow {
                    channel,
                    dispatched: ch.mc.dispatched(),
                    busy_bus: ch.dram.busy_bus_cycles(),
                    bytes: ch.dram.bytes_transferred(),
                    row_hits,
                    row_misses,
                    row_conflicts,
                    queue_len: ch.mc.queue_len(),
                    fifo_len: ch.mc.fifo_len(),
                }
            })
            .collect();
        self.obs.record_sample(SampleRow { at: now, epoch: 0, cores, channels });
    }

    /// The skip probe. Called with the state *settled at the end of cycle
    /// `self.now - 1`*, it returns the earliest cycle at which any
    /// component can act — the cycle the next real tick must run — or the
    /// first [`SkipBlocker`] with same-cycle work that batch replay cannot
    /// account for. [`Engine::Skip`] jumps over `[self.now, target - 1]`.
    ///
    /// The target is a plain minimum over cached wake cycles, clamped to
    /// at least `self.now`: an event in the past or present simply means
    /// "no skip", and the next audit boundary always bounds it. Each
    /// core's is the one wake rule (`CoreUnit::wake_at`), read from the
    /// dormant set for a dormant core; every other component's is the
    /// field the tick keeps (LLC lookups, DRAM completions, dispatch
    /// fences, scheduler hooks, audit and sample boundaries) or, for the
    /// watchdog, the deadline its episodes fix, so the probe calls no
    /// estimator the tick already asked. Wakes may err early (the wake-up tick re-evaluates and may
    /// skip again) but never late — the one-cycle-granularity invariant:
    /// a skip must be indistinguishable, counter for counter, from
    /// executing that many no-op ticks.
    ///
    /// A non-empty LLC→controller backlog does not block when its head
    /// faces a full FIFO: each stuck cycle performs exactly one failed
    /// retry (replayed by [`MemoryController::note_rejected_cycles`]) and
    /// the FIFO cannot gain room before a dispatch event fires.
    ///
    /// # Errors
    ///
    /// The first blocker found, in [`SkipBlocker`] declaration order.
    pub(crate) fn probe(&self) -> Result<Cycle, SkipBlocker> {
        let resume = self.now;
        if let Some(head) = self.llc.mc_backlog.front() {
            if self.channels[head.channel].mc.fifo_has_room() {
                return Err(SkipBlocker::BacklogRetryWouldSucceed);
            }
        }
        if self.llc.deferred.iter().any(|q| !q.is_empty()) {
            return Err(SkipBlocker::LlcDeferred);
        }
        if self.channels.iter().any(|ch| ch.mc.would_refill_queue()) {
            return Err(SkipBlocker::McWouldRefillQueue);
        }
        let mut next = self.auditor.next_audit();
        for (unit, &dormant) in self.cores.iter().zip(&self.dormant) {
            let wake = if dormant != 0 { dormant } else { unit.wake_at(resume, &self.source_ctl)? };
            next = next.min(wake);
        }
        next = next.min(self.auditor.watchdog_deadline()).min(self.llc.next_ready);
        for ch in &self.channels {
            let dram = ch.dram.next_completion().unwrap_or(Cycle::MAX);
            let fence = ch.mc.dispatch_fence().unwrap_or(Cycle::MAX);
            next = next.min(dram).min(fence).min(ch.sched_wake);
        }
        if self.faults.is_active() {
            next = next.min(self.faults.next_event(resume.saturating_sub(1)).unwrap_or(Cycle::MAX));
        }
        // Sampling boundaries are real ticks, like audit boundaries: the
        // sampler's rows must be bit-identical to a naive run's.
        next = next.min(self.obs.next_sample_boundary().unwrap_or(Cycle::MAX));
        Ok(next.max(resume))
    }

    /// Names the blocker that keeps the window starting at `now` from
    /// being skipped (one of `backlog_retry_would_succeed`,
    /// `llc_deferred`, `mc_would_refill_queue`, `core_wb_queue`,
    /// `core_busy`, `core_miss_queue_issue`), or `None` when it is
    /// skippable. Useful for
    /// understanding why a workload resists skipping.
    pub fn skip_blocker(&self) -> Option<&'static str> {
        self.probe().err().map(SkipBlocker::name)
    }

    /// Replays the skipped window `[self.now, target - 1]` as batch
    /// bookkeeping — exactly the counter updates `target - self.now`
    /// no-op ticks would have made — then jumps `now` to `target`. Each
    /// component replays it with its own code: a core that is not dormant
    /// its window, the watchdog a frozen tick's observations at `last`.
    fn skip_to(&mut self, target: Cycle) {
        let k = target - self.now;
        let last = target - 1;
        // Under an injected LLC port stall every issue stage writes
        // `NoPorts`, which each core's last tick already wrote (the
        // stall's first cycle is a fault event, so no skip crosses it),
        // and denies nothing.
        let ports_free = !(self.faults.is_active() && self.faults.stall_ports(self.now));
        let mut all_frozen = true;
        for (idx, unit) in self.cores.iter_mut().enumerate() {
            // A dormant core replays the window with the rest of its
            // dormancy, when it catches up; it is not frozen.
            if self.dormant[idx] != 0 {
                all_frozen = false;
                continue;
            }
            let class = unit.idle_class(self.now);
            unit.replay_window(class, k, last, ports_free, &mut self.slept_ticks);
            // Every frozen cycle resets the core's starvation episode;
            // the window's last one is the reset that remains.
            let frozen = class == CoreIdleClass::Frozen;
            if frozen {
                let instructions = unit.core.counters().instructions;
                self.auditor.observe_core(last, idx, instructions, true);
            }
            all_frozen &= frozen;
        }
        self.auditor.note_global_progress(last, 0, 0, all_frozen);
        for shaper in self.llc.shapers.iter().flatten() {
            shaper.borrow_mut().tick(last);
        }
        let n = self.cores.len();
        self.rr_offset = wrapping_index(self.rr_offset, (k % n as u64) as usize, n);
        // Backlog relaxation: the probe only skips a non-empty backlog
        // whose head faces a full FIFO, and that head would have retried
        // (one rejection) every skipped cycle.
        if let Some(head) = self.llc.mc_backlog.front() {
            self.channels[head.channel].mc.note_rejected_cycles(k);
        }
        for ch in &mut self.channels {
            ch.mc.note_skipped_cycles(k);
            ch.scheduler.note_idle_cycles(k);
        }
        self.skipped_cycles += k;
        self.now = target;
    }

    /// One invariant-audit pass: conservation laws across cores, LLC,
    /// controllers, and DRAM. Findings go to the auditor's violation log;
    /// nothing panics.
    fn audit_pass(&mut self, now: Cycle) {
        self.auditor.begin_pass(now);
        let cfg = self.auditor.audit_config().clone();

        for (i, unit) in self.cores.iter().enumerate() {
            // Conservation: every grant increments `inflight` and pushes a
            // ledger entry; every fill reverses both. A lost fill shows up
            // as ledger age; a spurious fill as unmatched/imbalance.
            let grants = unit.stats.shaper_grants;
            let accounted = unit.stats.fills + unit.stats.inflight as u64;
            if grants != accounted
                || unit.grants.outstanding() != unit.stats.inflight as usize
                || unit.grants.unmatched_fills() > 0
            {
                self.auditor.record(AuditViolation {
                    cycle: now,
                    invariant: Invariant::GrantFillConservation,
                    core: Some(i),
                    detail: format!(
                        "grants {} != fills {} + inflight {} (ledger {}, unmatched fills {})",
                        grants,
                        unit.stats.fills,
                        unit.stats.inflight,
                        unit.grants.outstanding(),
                        unit.grants.unmatched_fills()
                    ),
                });
            }
            if let Some(t0) = unit.grants.oldest() {
                let age = now.saturating_sub(t0);
                if age > cfg.max_grant_age {
                    self.auditor.record(AuditViolation {
                        cycle: now,
                        invariant: Invariant::GrantAge,
                        core: Some(i),
                        detail: format!(
                            "oldest grant (cycle {t0}) unfilled for {age} cycles \
                             (limit {})",
                            cfg.max_grant_age
                        ),
                    });
                }
            }
            // L1 MSHR occupancy: one entry per miss still queued or
            // granted-and-outstanding; anything else is a leak.
            let expected = unit.miss_queue.len() + unit.stats.inflight as usize;
            if unit.l1_mshrs.len() != expected {
                self.auditor.record(AuditViolation {
                    cycle: now,
                    invariant: Invariant::MshrLeak,
                    core: Some(i),
                    detail: format!(
                        "L1 MSHR occupancy {} != miss-queue {} + inflight {}",
                        unit.l1_mshrs.len(),
                        unit.miss_queue.len(),
                        unit.stats.inflight
                    ),
                });
            }
        }

        // LLC MSHRs: entries age without bound when a memory response is
        // lost. Lines parked behind an after-LLC shaper gate are being
        // throttled on purpose and are exempt.
        for entry in self.llc.mshrs.iter() {
            let gated = self.llc.deferred.iter().any(|q| q.contains(&entry.line_addr));
            if gated {
                continue;
            }
            let age = now.saturating_sub(entry.allocated_at);
            if age > cfg.max_llc_mshr_age {
                self.auditor.record(AuditViolation {
                    cycle: now,
                    invariant: Invariant::MshrLeak,
                    core: None,
                    detail: format!(
                        "LLC MSHR for line {:#x} outstanding {age} cycles (limit {})",
                        entry.line_addr, cfg.max_llc_mshr_age
                    ),
                });
            }
        }

        for (ci, channel) in self.channels.iter().enumerate() {
            if let Some(at) = channel.mc.oldest_inflight_dispatch() {
                let age = now.saturating_sub(at);
                if age > cfg.max_mc_inflight_age {
                    self.auditor.record(AuditViolation {
                        cycle: now,
                        invariant: Invariant::McInflightAge,
                        core: None,
                        detail: format!(
                            "channel {ci}: transaction dispatched at {at} uncompleted \
                             for {age} cycles (limit {})",
                            cfg.max_mc_inflight_age
                        ),
                    });
                }
            }
            if let Err(e) = channel.dram.check_conservation() {
                self.auditor.record(AuditViolation {
                    cycle: now,
                    invariant: Invariant::DramConservation,
                    core: None,
                    detail: format!("channel {ci}: {e}"),
                });
            }
        }
    }

    /// One watchdog step: notes this cycle's global progress (`retired`
    /// instructions, `fills` delivered, whether every core was frozen),
    /// then runs the threshold scan — global livelock detection plus
    /// per-core starvation reporting — once `now` reaches the auditor's
    /// `watchdog_deadline`, or every cycle when `!cached` (the naive
    /// engine).
    fn watchdog_tick(
        &mut self,
        now: Cycle,
        retired: u64,
        fills: u64,
        all_frozen: bool,
        cached: bool,
    ) {
        let progressed = self.auditor.note_global_progress(now, retired, fills, all_frozen);
        if cached && now < self.auditor.watchdog_deadline() {
            return;
        }
        // The scan and its stall report read stall counts and credits.
        self.catch_up_all(now);
        if !progressed && self.auditor.global_stall_due(now) {
            let report = self.build_stall_report(now);
            self.auditor.set_stall(report);
        }
        let starve_limit = self.auditor.watchdog_config().core_starve_cycles;
        for i in 0..self.cores.len() {
            let unit = &self.cores[i];
            let instr = unit.core.counters().instructions;
            let frozen = unit.core.is_frozen(now);
            if self.auditor.observe_core(now, i, instr, frozen) {
                let unit = &self.cores[i];
                let detail = format!(
                    "no retirement for {starve_limit} cycles (miss-queue {}, inflight {}, \
                     shaper '{}' stalled {} cycles)",
                    unit.miss_queue.len(),
                    unit.stats.inflight,
                    unit.shaper.borrow().name(),
                    unit.stats.shaper_stall_cycles
                );
                self.auditor.record(AuditViolation {
                    cycle: now,
                    invariant: Invariant::ForwardProgress,
                    core: Some(i),
                    detail,
                });
            }
        }
    }

    /// Snapshots every layer's queue state for a [`StallReport`].
    fn build_stall_report(&self, now: Cycle) -> StallReport {
        StallReport {
            detected_at: now,
            stalled_since: self.auditor.last_progress_at(),
            cores: self
                .cores
                .iter()
                .enumerate()
                .map(|(i, u)| {
                    let sh = u.shaper.borrow();
                    CoreStallState {
                        core: i,
                        instructions: u.core.counters().instructions,
                        miss_queue_depth: u.miss_queue.len(),
                        inflight: u.stats.inflight,
                        l1_mshr_occupancy: u.l1_mshrs.len(),
                        frozen: u.core.is_frozen(now),
                        shaper: ShaperStallState {
                            name: sh.name().to_string(),
                            stall_cycles: u.stats.shaper_stall_cycles,
                            credits: sh.credit_audit().bins,
                        },
                    }
                })
                .collect(),
            llc: LlcStallState {
                mshr_occupancy: self.llc.mshrs.len(),
                mshr_capacity: self.llc.mshrs.capacity(),
                pending_lookups: self.llc.lookups.len(),
                mc_backlog: self.llc.mc_backlog.len(),
                deferred: self.llc.deferred.iter().map(|q| q.len()).collect(),
            },
            channels: self
                .channels
                .iter()
                .enumerate()
                .map(|(ci, ch)| ChannelStallState {
                    channel: ci,
                    fifo_len: ch.mc.fifo_len(),
                    queue_len: ch.mc.queue_len(),
                    mc_inflight: ch.mc.inflight_len(),
                    dram_inflight: ch.dram.inflight_len(),
                })
                .collect(),
        }
    }

    /// Attempts the FIFO enqueue of `req` on its channel, emitting the
    /// `mc_enqueue` trace event on success. All controller enqueues
    /// funnel through here so the event stream is complete.
    fn mc_enqueue(
        channels: &mut [Channel],
        obs: &mut Observer,
        now: Cycle,
        req: McBacklogEntry,
    ) -> bool {
        let McBacklogEntry { core, line_addr, cmd, channel } = req;
        let accepted = channels[channel].mc.try_enqueue(now, core, line_addr, cmd).is_some();
        if accepted {
            obs.on_mc_enqueue(now, channel, core.index(), line_addr, cmd == MemCmd::Write);
        }
        accepted
    }

    /// Sends a new transaction to its controller, or appends it to the
    /// backlog when its channel's FIFO is full.
    fn mc_submit(
        backlog: &mut VecDeque<McBacklogEntry>,
        channels: &mut [Channel],
        obs: &mut Observer,
        now: Cycle,
        req: McBacklogEntry,
    ) {
        if !Self::mc_enqueue(channels, obs, now, req) {
            backlog.push_back(req);
        }
    }

    /// Handles a DRAM read completion: fill the LLC, wake LLC MSHR
    /// waiters, and queue evicted-dirty writebacks back to the controller.
    fn llc_on_mem_response(
        llc: &mut LlcUnit,
        channels: &mut [Channel],
        map: ChannelMap,
        now: Cycle,
        line_addr: Addr,
        fills: &mut Vec<CoreFill>,
        obs: &mut Observer,
    ) {
        if let Some(entry) = llc.mshrs.complete(line_addr) {
            for &core in &entry.waiters {
                fills.push(CoreFill { core, line_addr });
            }
            llc.mshrs.recycle(entry.waiters);
            if let Some(ev) = llc.cache.fill(line_addr, entry.any_write) {
                if ev.dirty {
                    // Evicted dirty LLC line: write back to memory.
                    let req = McBacklogEntry::new(map, CoreId::new(0), ev.line_addr, MemCmd::Write);
                    Self::mc_submit(&mut llc.mc_backlog, channels, obs, now, req);
                }
            }
        }
    }

    // Free function over disjoint `System` fields (split borrows); the
    // argument list is the price of not borrowing all of `self`.
    #[allow(clippy::too_many_arguments)]
    fn llc_tick(
        llc: &mut LlcUnit,
        channels: &mut [Channel],
        map: ChannelMap,
        cores: &mut [CoreUnit],
        now: Cycle,
        sleep: bool,
        fills: &mut Vec<CoreFill>,
        notes: &mut Vec<ShaperNote>,
        due: &mut Vec<LlcLookup>,
        obs: &mut Observer,
    ) {
        // Retry transactions that met a full controller FIFO.
        while let Some(&entry) = llc.mc_backlog.front() {
            if Self::mc_enqueue(channels, obs, now, entry) {
                llc.mc_backlog.pop_front();
            } else {
                break;
            }
        }

        // After-LLC shapers: housekeeping, then retry deferred misses
        // (head-of-line per core). A core whose gate was removed flushes
        // its backlog unconditionally. Skipped while no core is gated.
        if llc.gated || !sleep {
            let mut gated = false;
            for core_idx in 0..llc.deferred.len() {
                let grant_one = match &llc.shapers[core_idx] {
                    Some(shaper) => {
                        shaper.borrow_mut().tick(now);
                        !llc.deferred[core_idx].is_empty()
                            && shaper.borrow_mut().try_issue(now).is_grant()
                    }
                    None => !llc.deferred[core_idx].is_empty(),
                };
                if grant_one {
                    let line = llc.deferred[core_idx].pop_front().expect("checked non-empty");
                    let req = McBacklogEntry::new(map, CoreId::new(core_idx), line, MemCmd::Read);
                    Self::mc_submit(&mut llc.mc_backlog, channels, obs, now, req);
                }
                gated |= llc.shapers[core_idx].is_some() || !llc.deferred[core_idx].is_empty();
            }
            llc.gated = gated;
        }

        // Resolve due lookups. Partition in place (rotate through the
        // deque once) so the hot path does not allocate; entries that
        // cannot make progress (MSHR full) are pushed straight back,
        // which lands them after the not-yet-due remainder exactly as
        // the old requeue flush did. With nothing due the rotation
        // leaves the deque as it was, so the skip engine skips it.
        if sleep && llc.next_ready > now {
            return;
        }
        due.clear();
        let mut next_ready = Cycle::MAX;
        for _ in 0..llc.lookups.len() {
            let lk = llc.lookups.pop_front().expect("length-bounded");
            if lk.ready_at <= now {
                due.push(lk);
            } else {
                next_ready = next_ready.min(lk.ready_at);
                llc.lookups.push_back(lk);
            }
        }
        llc.next_ready = next_ready;

        for mut lk in due.drain(..) {
            match lk.kind {
                LlcKind::Writeback => {
                    match llc.cache.access(lk.line_addr, true) {
                        AccessResult::Hit => {}
                        AccessResult::Miss => {
                            // Write-no-allocate for writebacks: forward to
                            // memory.
                            let req =
                                McBacklogEntry::new(map, lk.core, lk.line_addr, MemCmd::Write);
                            Self::mc_submit(&mut llc.mc_backlog, channels, obs, now, req);
                        }
                    }
                }
                LlcKind::Demand { token, ref mut notified } => {
                    let stats = &mut cores[lk.core.index()].stats;
                    let hit = if *notified {
                        // Retried after MSHR stall: probe quietly.
                        llc.cache.probe(lk.line_addr)
                    } else {
                        let r = llc.cache.access(lk.line_addr, false) == AccessResult::Hit;
                        if r {
                            stats.llc_hits += 1;
                        } else {
                            stats.llc_misses += 1;
                            stats.mem_interarrival.record_arrival(now);
                        }
                        notes.push(ShaperNote { core: lk.core, token, hit: r });
                        obs.on_llc_lookup(now, lk.core.index(), lk.line_addr, r);
                        *notified = true;
                        r
                    };
                    if hit {
                        fills.push(CoreFill { core: lk.core, line_addr: lk.line_addr });
                    } else {
                        match llc.mshrs.allocate(lk.line_addr, now, false, lk.core) {
                            MshrOutcome::Allocated => {
                                obs.on_llc_mshr_alloc(now, lk.line_addr);
                                // An after-LLC shaper (Fig. 7 middle
                                // placement) gates true memory requests
                                // here; denied requests wait in the
                                // per-core deferred queue.
                                let gated = match &llc.shapers[lk.core.index()] {
                                    Some(shaper) => !shaper.borrow_mut().try_issue(now).is_grant(),
                                    None => false,
                                };
                                if gated {
                                    llc.deferred[lk.core.index()].push_back(lk.line_addr);
                                } else {
                                    let req = McBacklogEntry::new(
                                        map,
                                        lk.core,
                                        lk.line_addr,
                                        MemCmd::Read,
                                    );
                                    Self::mc_submit(&mut llc.mc_backlog, channels, obs, now, req);
                                }
                            }
                            MshrOutcome::Merged => {}
                            MshrOutcome::Full => {
                                lk.ready_at = now + 1;
                                llc.push_lookup(lk);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::WatchdogConfig;
    use crate::shaper::StaticRateShaper;
    use crate::trace::StrideTrace;

    fn streaming_system(cores: usize, gap: u32) -> System {
        let mut b = SystemBuilder::new(SystemConfig::multi_program(cores.max(2)));
        for i in 0..cores.max(2) {
            b = b.trace(
                i,
                Box::new(
                    StrideTrace::new(gap, 64, 16 << 20).with_base((i as u64) << 32),
                ),
            );
        }
        b.build()
    }

    #[test]
    fn single_core_makes_progress() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(StrideTrace::new(10, 64, 16 << 20)))
            .build();
        sys.run_cycles(20_000);
        let s = sys.core_stats(0);
        assert!(s.counters.instructions > 1000, "IPC stuck: {:?}", s.counters);
        assert!(s.l1_misses > 0);
        assert!(s.llc_misses > 0, "streaming must miss the 64 KB LLC");
        assert!(sys.system_stats().channels[0].bytes > 0);
    }

    #[test]
    fn compute_bound_core_hits_l1() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program()).build();
        sys.run_cycles(10_000);
        let s = sys.core_stats(0);
        assert!(s.counters.ipc() > 3.0, "compute-bound IPC was {}", s.counters.ipc());
        // One cold miss brings the single reused line in; nothing after.
        assert!(s.llc_misses <= 1, "compute-bound core missed {} times", s.llc_misses);
    }

    #[test]
    fn memory_latency_is_sane() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(StrideTrace::new(200, 64, 16 << 20)))
            .build();
        sys.run_cycles(50_000);
        let s = sys.core_stats(0);
        let lat = s.mem_latency.mean();
        // LLC (20) + DRAM row ops (~50-120) + queues: expect 60..400.
        assert!(lat > 40.0 && lat < 500.0, "mean memory latency {lat} out of range");
    }

    #[test]
    fn two_cores_share_bandwidth() {
        let mut sys = streaming_system(2, 2);
        sys.run_cycles(50_000);
        let s0 = sys.core_stats(0);
        let s1 = sys.core_stats(1);
        assert!(s0.counters.instructions > 0 && s1.counters.instructions > 0);
        // Symmetric workloads should see similar progress (within 2x).
        let r = s0.counters.instructions as f64 / s1.counters.instructions as f64;
        assert!(r > 0.5 && r < 2.0, "asymmetric progress ratio {r}");
    }

    #[test]
    fn contention_slows_cores_down() {
        // Core 0 streams; core 1 stays compute-bound (default trace).
        let mut solo = SystemBuilder::new(SystemConfig::multi_program(2))
            .trace(0, Box::new(StrideTrace::new(2, 64, 16 << 20)))
            .build();
        solo.run_cycles(50_000);
        let alone_ipc = solo.core_stats(0).counters.ipc();

        let mut shared = streaming_system(2, 2);
        shared.run_cycles(50_000);
        let shared_ipc = shared.core_stats(0).counters.ipc();
        assert!(
            shared_ipc < alone_ipc,
            "sharing memory must cost performance ({shared_ipc} !< {alone_ipc})"
        );
    }

    #[test]
    fn static_shaper_throttles_throughput() {
        let mk = |interval: Option<Cycle>| {
            let mut b = SystemBuilder::new(SystemConfig::single_program())
                .trace(0, Box::new(StrideTrace::new(5, 64, 16 << 20)));
            if let Some(i) = interval {
                b = b.shaper(0, Rc::new(RefCell::new(StaticRateShaper::new(i))));
            }
            b.build()
        };
        let mut free = mk(None);
        free.run_cycles(30_000);
        let mut limited = mk(Some(300));
        limited.run_cycles(30_000);
        let free_ipc = free.core_stats(0).counters.ipc();
        let lim_ipc = limited.core_stats(0).counters.ipc();
        assert!(
            lim_ipc < free_ipc * 0.7,
            "a 300-cycle interval must hurt a streaming app ({lim_ipc} vs {free_ipc})"
        );
        assert!(limited.core_stats(0).shaper_stall_cycles > 0);
    }

    #[test]
    fn run_until_instructions_stops_early() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program()).build();
        let outcome = sys.run_until_instructions(1000, 100_000);
        assert!(outcome.met_target(), "got {outcome:?}");
        assert!(matches!(outcome, RunOutcome::Completed { .. }));
        assert!(sys.now() < 100_000);
    }

    #[test]
    fn run_until_instructions_reports_lagging_cores() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(StrideTrace::new(2, 64, 16 << 20)))
            .build();
        // A target far beyond what 100 cycles allow.
        let outcome = sys.run_until_instructions(1_000_000, 100);
        match outcome {
            RunOutcome::CycleLimit { cycles, lagging } => {
                assert_eq!(cycles, 100);
                assert_eq!(lagging, vec![0]);
            }
            other => panic!("expected CycleLimit, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn builder_panics_on_invalid_config() {
        let c = SystemConfig { cores: 0, ..SystemConfig::default() };
        let _ = SystemBuilder::new(c);
    }

    #[test]
    fn builder_try_new_reports_config_errors() {
        let c = SystemConfig { llc_ports: 0, ..SystemConfig::default() };
        assert_eq!(SystemBuilder::try_new(c).err(), Some(ConfigError::NoLlcPorts));
        // A zero watchdog threshold would report one cycle after every
        // reset; one cycle is the smallest legal threshold.
        let watchdog = |global_stall_cycles, core_starve_cycles| {
            let mut c = SystemConfig::default();
            c.hardening.watchdog = WatchdogConfig { global_stall_cycles, core_starve_cycles };
            SystemBuilder::try_new(c).err()
        };
        for (threshold, err) in
            [("global_stall_cycles", watchdog(0, 1)), ("core_starve_cycles", watchdog(1, 0))]
        {
            assert_eq!(err, Some(ConfigError::ZeroWatchdogThreshold { threshold }));
            let shown = err.unwrap().to_string();
            assert_eq!(shown, format!("watchdog threshold {threshold} must be at least one cycle"));
        }
        assert_eq!(watchdog(1, 1), None);
        assert!(SystemBuilder::try_new(SystemConfig::default()).is_ok());
    }

    #[test]
    fn builder_try_new_rejects_bad_dram_geometry() {
        let cases: [(usize, usize, &str); 5] = [
            (0, 8192, "bank count must be a power of two (got 0)"),
            (6, 8192, "bank count must be a power of two (got 6)"),
            (8, 0, "row size must be a power of two of at least 64 B (got 0 B)"),
            (8, 32, "row size must be a power of two of at least 64 B (got 32 B)"),
            (8, 3000, "row size must be a power of two of at least 64 B (got 3000 B)"),
        ];
        for (banks, row_bytes, detail) in cases {
            let mut c = SystemConfig::default();
            c.dram.banks = banks;
            c.dram.row_bytes = row_bytes;
            let err = SystemBuilder::try_new(c).err();
            assert_eq!(err, Some(ConfigError::BadDramGeometry { detail: detail.to_string() }));
            assert_eq!(err.unwrap().to_string(), format!("DRAM geometry invalid: {detail}"));
        }
        // The smallest legal organisation: one bank, one column per row.
        let mut c = SystemConfig::default();
        c.dram.banks = 1;
        c.dram.row_bytes = 64;
        assert!(SystemBuilder::try_new(c).is_ok());
    }

    #[test]
    fn snapshots_diff_between_windows() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(StrideTrace::new(50, 64, 16 << 20)))
            .build();
        sys.run_cycles(5_000);
        let a = sys.core_snapshot(0);
        sys.run_cycles(5_000);
        let b = sys.core_snapshot(0);
        let d = b.delta(&a);
        assert_eq!(d.cycles, 5_000);
        assert!(d.instructions > 0);
    }

    #[test]
    fn interarrival_histograms_populate() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(StrideTrace::new(8, 64, 16 << 20)))
            .build();
        sys.run_cycles(30_000);
        let s = sys.core_stats(0);
        assert!(s.l1_miss_interarrival.total() > 0);
        assert!(s.mem_interarrival.total() > 0);
    }

    #[test]
    fn priority_core_speeds_up_its_owner() {
        let run = |prio: Option<usize>| {
            let mut sys = streaming_system(4, 1);
            if let Some(p) = prio {
                sys.set_priority_core(Some(CoreId::new(p)));
            }
            sys.run_cycles(40_000);
            sys.core_stats(0).counters.ipc()
        };
        let base = run(None);
        let boosted = run(Some(0));
        assert!(
            boosted > base * 1.05,
            "priority must help under contention ({boosted} vs {base})"
        );
    }

    #[test]
    fn writebacks_flow_to_memory() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(
                0,
                Box::new(
                    StrideTrace::new(5, 64, 16 << 20).with_write_every(2),
                ),
            )
            .build();
        sys.run_cycles(60_000);
        let s = sys.core_stats(0);
        assert!(s.writebacks > 0, "dirty evictions must produce writebacks");
    }

    #[test]
    fn after_llc_shaper_gates_true_memory_requests() {
        // A tight after-LLC static-rate shaper must cap LLC misses
        // without touching LLC hits (which never reach it).
        let build = |interval: Option<Cycle>| {
            let mut sys = SystemBuilder::new(SystemConfig::single_program())
                .trace(0, Box::new(StrideTrace::new(5, 64, 16 << 20)))
                .build();
            if let Some(i) = interval {
                sys.set_llc_shaper(0, Some(Rc::new(RefCell::new(StaticRateShaper::new(i)))));
            }
            sys.run_cycles(60_000);
            sys.core_stats(0)
        };
        let free = build(None);
        let gated = build(Some(400));
        assert!(
            gated.llc_misses < free.llc_misses / 2,
            "after-LLC shaper must throttle memory requests ({} vs {})",
            gated.llc_misses,
            free.llc_misses
        );
        assert!(
            gated.counters.instructions < free.counters.instructions,
            "throttling memory must slow a streaming app"
        );
    }

    #[test]
    fn after_llc_shaper_can_be_cleared() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(StrideTrace::new(5, 64, 16 << 20)))
            .build();
        sys.set_llc_shaper(0, Some(Rc::new(RefCell::new(StaticRateShaper::new(500)))));
        sys.run_cycles(30_000);
        let slow = sys.core_snapshot(0).instructions;
        sys.set_llc_shaper(0, None);
        sys.run_cycles(30_000);
        let fast = sys.core_snapshot(0).instructions - slow;
        assert!(fast > slow, "clearing the gate must restore throughput");
    }

    #[test]
    fn second_memory_channel_raises_bandwidth_under_load() {
        let build = |channels: usize| {
            let mut cfg = SystemConfig::multi_program(4);
            cfg.mc.channels = channels;
            let mut b = SystemBuilder::new(cfg);
            for i in 0..4 {
                // Stagger bases by a few rows so the four streams do not
                // walk the banks (and channels) in lockstep.
                let base = ((i as u64) << 32) + (i as u64) * 3 * 8192;
                b = b.trace(i, Box::new(StrideTrace::new(1, 64, 16 << 20).with_base(base)));
            }
            let mut sys = b.build();
            sys.run_cycles(80_000);
            let channels = sys.system_stats().channels;
            (channels.iter().map(|c| c.bytes).sum::<u64>(), channels.len())
        };
        let (one, n1) = build(1);
        let (two, n2) = build(2);
        assert_eq!((n1, n2), (1, 2));
        assert!(
            two as f64 > one as f64 * 1.3,
            "a second channel must add bandwidth under saturation ({one} -> {two})"
        );
    }

    #[test]
    fn per_channel_schedulers_are_independent() {
        let mut cfg = SystemConfig::multi_program(2);
        cfg.mc.channels = 2;
        let mut sys = SystemBuilder::new(cfg)
            .trace(0, Box::new(StrideTrace::new(2, 64, 16 << 20)))
            .trace(1, Box::new(StrideTrace::new(2, 64, 16 << 20).with_base(1 << 32)))
            .scheduler(Box::new(FcfsScheduler::new()))
            .channel_scheduler(1, Box::new(FcfsScheduler::new()))
            .build();
        sys.run_cycles(30_000);
        // Both channels see traffic (row-granularity interleave of a
        // 16 MB stream spans both).
        for ch in sys.system_stats().channels {
            let (h, m, c) = ch.row_stats;
            assert!(ch.bytes > 0 && h + m + c > 0, "{ch:?}");
        }
    }

    #[test]
    fn freeze_core_injects_overhead() {
        let mut sys = SystemBuilder::new(SystemConfig::single_program()).build();
        sys.freeze_core(0, 1000);
        sys.run_cycles(1000);
        assert_eq!(sys.core_stats(0).counters.instructions, 0);
        assert_eq!(sys.core_stats(0).counters.frozen_cycles, 1000);
    }

    #[test]
    fn skip_matches_naive_run_cycles() {
        // A latency-bound stream: long memory-blocked windows the engine
        // should skip, with bit-identical statistics.
        let run = |engine: Engine| {
            let mut sys = SystemBuilder::new(SystemConfig::single_program())
                .trace(0, Box::new(StrideTrace::new(200, 64, 16 << 20)))
                .engine(engine)
                .build();
            sys.run_cycles(30_000);
            (sys.system_stats(), sys.skipped_cycles())
        };
        let (naive, skipped_naive) = run(Engine::Naive);
        let (skip, skipped_skip) = run(Engine::Skip);
        assert_eq!(skipped_naive, 0);
        assert!(skipped_skip > 0, "latency-bound run must skip some cycles");
        assert_eq!(naive, skip);
    }

    #[test]
    fn skip_matches_naive_with_throttles_and_shaper() {
        let run = |engine: Engine| {
            let mut cfg = SystemConfig::multi_program(2);
            cfg.cores = 2;
            let mut sys = SystemBuilder::new(cfg)
                .trace(0, Box::new(StrideTrace::new(60, 64, 16 << 20)))
                .trace(1, Box::new(StrideTrace::new(60, 64, 16 << 20).with_base(1 << 32)))
                .shaper(0, Rc::new(RefCell::new(StaticRateShaper::new(90))))
                .engine(engine)
                .build();
            sys.source_control_mut().throttle_mut(CoreId::new(1)).min_issue_gap = Some(50);
            sys.run_cycles(40_000);
            (sys.system_stats(), sys.skipped_cycles())
        };
        let (naive, _) = run(Engine::Naive);
        let (skip, skipped) = run(Engine::Skip);
        assert!(skipped > 0, "shaper-denied windows must be skipped");
        assert_eq!(naive, skip);
    }

    #[test]
    fn skip_matches_naive_run_until_instructions() {
        let run = |engine: Engine| {
            let mut sys = SystemBuilder::new(SystemConfig::single_program())
                .trace(0, Box::new(StrideTrace::new(150, 64, 16 << 20)))
                .engine(engine)
                .build();
            let outcome = sys.run_until_instructions(5_000, 200_000);
            (outcome, sys.system_stats())
        };
        let key = |o: &RunOutcome| match o {
            RunOutcome::Completed { cycles } => ("completed", *cycles, Vec::new()),
            RunOutcome::CycleLimit { cycles, lagging } => ("limit", *cycles, lagging.clone()),
            RunOutcome::Stalled(r) => ("stalled", r.detected_at, Vec::new()),
        };
        let (naive_outcome, naive) = run(Engine::Naive);
        let (skip_outcome, skip) = run(Engine::Skip);
        assert_eq!(key(&naive_outcome), key(&skip_outcome));
        assert_eq!(naive, skip);
    }

    #[test]
    fn skip_matches_naive_under_freeze() {
        let run = |engine: Engine| {
            let mut sys = SystemBuilder::new(SystemConfig::single_program())
                .engine(engine)
                .build();
            sys.freeze_core(0, 900);
            sys.run_cycles(2_000);
            sys.system_stats()
        };
        assert_eq!(run(Engine::Naive), run(Engine::Skip));
    }

    #[test]
    fn idle_cores_sleep_in_every_idle_class_only_under_skip() {
        // Behind one L1 MSHR each, a store stream drains its ROB (stores
        // retire at once) while it waits for the MSHR, and a load stream
        // waits with a pending load at its ROB head. Both must sleep
        // under the skip engine, never under the naive one.
        let build = |engine: Engine| {
            let mut cfg = SystemConfig::multi_program(2);
            cfg.l1.mshrs = 1;
            SystemBuilder::new(cfg)
                .trace(0, Box::new(StrideTrace::new(0, 64, 16 << 20).with_write_every(1)))
                .trace(1, Box::new(StrideTrace::new(3, 64, 16 << 20).with_base(1 << 32)))
                .engine(engine)
                .build()
        };
        let mut naive = build(Engine::Naive);
        let mut sys = build(Engine::Skip);
        let mut seen = Vec::new();
        while sys.now() < 20_000 {
            sys.tick();
            for unit in &sys.cores {
                if let Some(class) = unit.asleep {
                    if !seen.contains(&class) {
                        seen.push(class);
                    }
                }
            }
            sys.post_tick_forward(20_000);
        }
        // The end of a run call: dormant cores replay what they skipped.
        sys.settle();
        naive.run_cycles(20_000);
        assert!(seen.contains(&CoreIdleClass::PortBlockedEmpty), "slept as {seen:?}");
        assert!(seen.contains(&CoreIdleClass::PortBlocked), "slept as {seen:?}");
        assert!(sys.slept_ticks() > 0);
        assert_eq!(naive.slept_ticks(), 0);
        assert!(naive.cores.iter().all(|u| u.asleep.is_none()));
        assert_eq!(naive.system_stats(), sys.system_stats());
    }

    #[test]
    fn backlog_behind_a_full_fifo_is_skipped_and_replayed() {
        // Four streaming cores with 2 L1 MSHRs each keep 8 misses in
        // flight against 6 controller slots (4 queued + a 2-entry FIFO),
        // so the LLC→MC backlog stays non-empty while every core waits on
        // a fill. Only the probe's backlog relaxation skips those windows.
        let build = |engine: Engine| {
            let mut cfg = SystemConfig::multi_program(4);
            cfg.l1.mshrs = 2;
            cfg.mc.txn_queue_depth = 4;
            cfg.mc.global_fifo_depth = 2;
            let mut b = SystemBuilder::new(cfg).engine(engine);
            for i in 0..4 {
                let trace = StrideTrace::new(1, 64, 16 << 20).with_base((i as u64) << 32);
                b = b.trace(i, Box::new(trace));
            }
            b.build()
        };
        const END: Cycle = 40_000;
        let mut naive = build(Engine::Naive);
        naive.run_cycles(END);

        // `advance()` split at the probe, to see the state a skip starts from.
        let mut sys = build(Engine::Skip);
        let mut relaxed_skips = 0;
        while sys.now() < END {
            sys.tick();
            let stuck = sys
                .llc
                .mc_backlog
                .front()
                .is_some_and(|head| !sys.channels[head.channel].mc.fifo_has_room());
            let start = sys.now();
            sys.post_tick_forward(END);
            if stuck && sys.now() - start > 1 {
                relaxed_skips += 1;
            }
        }
        assert!(relaxed_skips > 0, "no multi-cycle skip started behind a full FIFO");
        sys.settle();
        let stats = sys.system_stats();
        assert!(stats.channels[0].fifo_rejections > 0, "the FIFO never rejected a retry");
        assert_eq!(naive.system_stats(), stats);
    }

    #[test]
    fn skip_blocker_names_are_the_published_metric_keys() {
        // Each variant's expected name; the match has no wildcard, so a
        // new variant fails to compile until it is named here.
        let expected = |b: SkipBlocker| match b {
            SkipBlocker::BacklogRetryWouldSucceed => "backlog_retry_would_succeed",
            SkipBlocker::LlcDeferred => "llc_deferred",
            SkipBlocker::McWouldRefillQueue => "mc_would_refill_queue",
            SkipBlocker::CoreWbQueue => "core_wb_queue",
            SkipBlocker::CoreBusy => "core_busy",
            SkipBlocker::CoreMissQueueIssue => "core_miss_queue_issue",
        };
        let all = [
            SkipBlocker::BacklogRetryWouldSucceed,
            SkipBlocker::LlcDeferred,
            SkipBlocker::McWouldRefillQueue,
            SkipBlocker::CoreWbQueue,
            SkipBlocker::CoreBusy,
            SkipBlocker::CoreMissQueueIssue,
        ];
        for b in all {
            assert_eq!(b.name(), expected(b));
        }
        // The `system.blocker.*` keys of the benchmark's blocker
        // histogram, `none` being the skippable (`Ok`) case.
        let mut names: Vec<&str> = all.iter().map(|b| b.name()).collect();
        names.push("none");
        names.sort_unstable();
        let mut keys = vec![
            "none",
            "core_busy",
            "core_miss_queue_issue",
            "core_wb_queue",
            "mc_would_refill_queue",
            "llc_deferred",
            "backlog_retry_would_succeed",
        ];
        keys.sort_unstable();
        assert_eq!(names, keys);
    }
}
