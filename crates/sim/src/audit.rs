//! Hardening layer: runtime invariant auditing, forward-progress
//! watchdog, structured errors, and fault injection.
//!
//! The simulator models a throttling mechanism whose entire purpose is to
//! *stall* traffic, which makes the difference between "shaped" and
//! "wedged" easy to miss: a shaper that never replenishes, a leaked MSHR,
//! or a lost DRAM completion all look like a slow workload until
//! `max_cycles` silently expires. This module makes those states
//! first-class:
//!
//! * [`InvariantAuditor`] — hooked into `System::tick`, it checks
//!   conservation laws every [`AuditConfig::interval`] cycles (every
//!   shaper grant is eventually matched by an L1 fill, MSHR files never
//!   leak, DRAM byte/burst accounting balances, the cycle is monotone)
//!   and records [`AuditViolation`]s instead of panicking. It also owns
//!   every conformance oracle of [`crate::oracle`] and feeds them as the
//!   simulator runs: one shaper oracle per installed shaper, built from
//!   the contract the shaper states and fed every grant, stall episode
//!   and LLC feedback; a [`DramOracle`] that replays every DRAM dispatch;
//!   and one [`PickOracle`] per channel, to which the controller hands
//!   every dispatching scheduler pick. Their findings are audit
//!   violations like any other.
//! * The **forward-progress watchdog** — detects livelock/deadlock (no
//!   core retires and no fill completes for
//!   [`WatchdogConfig::global_stall_cycles`]) and produces a structured
//!   [`StallReport`]; `System::run_until_instructions` surfaces it through
//!   [`RunOutcome`] instead of burning cycles to the cap. Its per-core
//!   observation also flags an instruction count that moves backwards.
//! * [`FaultPlan`] — a fault-injection harness used by tests to prove the
//!   auditor and watchdog detect each fault class (mutation testing for
//!   the checkers themselves).
//!
//! The auditor, its oracles and the watchdog run in every system and
//! every build profile; [`HardeningConfig`] in `SystemConfig` sets only
//! their thresholds.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::config::{ConfigError, DramTimingCycles, SystemConfig};
use crate::oracle::{DramOracle, NetCalcOracle, PickOracle, PickPolicy, ShaperOracle};
use crate::shaper::{ShapeToken, ShaperContract};
use crate::system::ShaperHandle;
use crate::types::{Addr, Cycle};

// ---------------------------------------------------------------------------
// Structured errors
// ---------------------------------------------------------------------------

/// Top-level structured error for simulator APIs that can fail without it
/// being a programming bug at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The system configuration is internally inconsistent.
    Config(ConfigError),
    /// A replay trace was empty (trace sources are infinite by contract).
    EmptyTrace,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::EmptyTrace => {
                write!(f, "cannot replay an empty trace (trace sources are infinite)")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

// ---------------------------------------------------------------------------
// Hardening configuration
// ---------------------------------------------------------------------------

/// Invariant-auditor settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Cycles between audit passes (the K of "every K cycles").
    pub interval: Cycle,
    /// A shaper grant unmatched by an L1 fill for longer than this is
    /// reported (covers lost fills and wedged downstream queues).
    pub max_grant_age: Cycle,
    /// An LLC MSHR entry outstanding longer than this is reported as a
    /// leak. Entries whose line is parked in an after-LLC shaper's
    /// deferred queue are exempt (being gated is not a leak).
    pub max_llc_mshr_age: Cycle,
    /// A transaction dispatched to DRAM but not completed within this many
    /// cycles is reported (covers lost DRAM completions).
    pub max_mc_inflight_age: Cycle,
    /// Cap on retained [`AuditViolation`]s; further reports only bump
    /// [`InvariantAuditor::dropped_violations`].
    pub max_reports: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            interval: 64,
            max_grant_age: 500_000,
            max_llc_mshr_age: 200_000,
            max_mc_inflight_age: 20_000,
            max_reports: 64,
        }
    }
}

/// Forward-progress watchdog settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// No core retiring and no fill completing for this many consecutive
    /// cycles is declared a global stall and produces a [`StallReport`].
    /// Cycles in which every core is frozen (online-tuner overhead
    /// injection) do not count.
    pub global_stall_cycles: Cycle,
    /// A single unfrozen core retiring nothing for this many cycles is
    /// recorded as a starvation [`AuditViolation`] (diagnostic only — a
    /// zero-credit shaper legitimately starves its core, so this does not
    /// abort the run).
    pub core_starve_cycles: Cycle,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { global_stall_cycles: 20_000, core_starve_cycles: 200_000 }
    }
}

/// All hardening thresholds, embedded in `SystemConfig`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HardeningConfig {
    /// Invariant-auditor settings.
    pub audit: AuditConfig,
    /// Forward-progress watchdog settings.
    pub watchdog: WatchdogConfig,
}

// ---------------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------------

/// The conservation law or liveness property an [`AuditViolation`] refers
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Per core: grants == fills + inflight (every shaper grant is
    /// eventually matched by exactly one L1 fill).
    GrantFillConservation,
    /// A shaper grant has waited longer than [`AuditConfig::max_grant_age`]
    /// for its fill.
    GrantAge,
    /// An MSHR file's occupancy disagrees with the requests that should be
    /// populating it, or an entry has outlived
    /// [`AuditConfig::max_llc_mshr_age`].
    MshrLeak,
    /// A DRAM dispatch broke DDR3 legality (command timing, row state,
    /// address map, bus occupancy or refresh), as found by [`DramOracle`].
    DramTiming,
    /// DRAM byte/burst accounting no longer matches services performed.
    DramConservation,
    /// A transaction dispatched to DRAM exceeded
    /// [`AuditConfig::max_mc_inflight_age`] without completing.
    McInflightAge,
    /// A cycle or instruction counter moved backwards.
    MonotoneCounters,
    /// Watchdog finding: the whole system (or one core) stopped making
    /// forward progress.
    ForwardProgress,
    /// A scheduler pick was illegal (not startable, against the priority
    /// override, or out of its claimed order), as found by [`PickOracle`].
    SchedulerPick,
    /// A MITTS shaper broke the §III bin/credit spec it states (a grant
    /// the spec denies or charges elsewhere, or a denial the spec grants),
    /// as found by [`ShaperOracle`].
    ShaperBins,
    /// A shaper broke the envelope it states (a grant above its arrival
    /// curve, or a stall episode past its delay bound), as found by
    /// [`NetCalcOracle`].
    ShaperEnvelope,
}

impl Invariant {
    /// Every invariant with its stable one-byte snapshot tag (tag 3, the
    /// retired per-bin credit range check, is never written).
    const SNAPSHOT_TAGS: [(Invariant, u8); 11] = [
        (Invariant::GrantFillConservation, 0),
        (Invariant::GrantAge, 1),
        (Invariant::MshrLeak, 2),
        (Invariant::DramTiming, 4),
        (Invariant::DramConservation, 5),
        (Invariant::McInflightAge, 6),
        (Invariant::MonotoneCounters, 7),
        (Invariant::ForwardProgress, 8),
        (Invariant::SchedulerPick, 9),
        (Invariant::ShaperBins, 10),
        (Invariant::ShaperEnvelope, 11),
    ];

    fn snapshot_tag(self) -> u8 {
        Self::SNAPSHOT_TAGS.iter().find(|(i, _)| *i == self).expect("every invariant is tagged").1
    }

    fn from_snapshot_tag(tag: u8) -> Option<Self> {
        Self::SNAPSHOT_TAGS.iter().find(|(_, t)| *t == tag).map(|(i, _)| *i)
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Invariant::GrantFillConservation => "grant/fill conservation",
            Invariant::GrantAge => "grant age",
            Invariant::MshrLeak => "MSHR leak",
            Invariant::DramTiming => "DRAM timing order",
            Invariant::DramConservation => "DRAM conservation",
            Invariant::McInflightAge => "MC inflight age",
            Invariant::MonotoneCounters => "monotone counters",
            Invariant::ForwardProgress => "forward progress",
            Invariant::SchedulerPick => "scheduler pick",
            Invariant::ShaperBins => "shaper bin/credit spec",
            Invariant::ShaperEnvelope => "shaper envelope",
        };
        f.write_str(s)
    }
}

/// One invariant violation observed by the auditor or watchdog.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Cycle at which the violation was detected.
    pub cycle: Cycle,
    /// The property that failed.
    pub invariant: Invariant,
    /// Core the violation is attributed to, if any.
    pub core: Option<usize>,
    /// Human-readable specifics (observed vs expected values).
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[cycle {}] {}", self.cycle, self.invariant)?;
        if let Some(core) = self.core {
            write!(f, " (core {core})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The auditor's bounded violation log. Every checker records into it,
/// the conformance oracles included.
#[derive(Debug, Clone)]
pub struct AuditLog {
    violations: Vec<AuditViolation>,
    dropped: u64,
    cap: usize,
}

impl AuditLog {
    /// An empty log retaining at most `cap` violations.
    pub fn new(cap: usize) -> Self {
        AuditLog { violations: Vec::new(), dropped: 0, cap }
    }

    /// Records a violation; past the cap it only counts as dropped.
    pub fn record(&mut self, violation: AuditViolation) {
        if self.violations.len() < self.cap {
            self.violations.push(violation);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained violations, in recording order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Violations dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

// ---------------------------------------------------------------------------
// Shaper credit snapshots
// ---------------------------------------------------------------------------

/// One credit bin as observed by the auditor: live credits vs the
/// configured maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditBin {
    /// Credits currently live in the bin.
    pub live: u32,
    /// Configured maximum for the bin.
    pub max: u32,
}

/// Snapshot of a shaper's credit state, shown in stall reports and
/// samples. Shapers without credits (e.g. the unlimited pass-through)
/// return an empty snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CreditAudit {
    /// Per-bin live/max pairs; empty when the shaper has no credit state
    /// to audit.
    pub bins: Vec<CreditBin>,
}

impl CreditAudit {
    /// Whether the shaper actually reported credit state.
    pub fn reported(&self) -> bool {
        !self.bins.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Stall reports and run outcomes
// ---------------------------------------------------------------------------

/// Shaper state attached to a [`CoreStallState`].
#[derive(Debug, Clone)]
pub struct ShaperStallState {
    /// Policy name.
    pub name: String,
    /// Cycles the shaper has stalled the core so far.
    pub stall_cycles: u64,
    /// Credit snapshot (empty when the shaper has no credit state).
    pub credits: Vec<CreditBin>,
}

/// Per-core state captured when a stall is detected.
#[derive(Debug, Clone)]
pub struct CoreStallState {
    /// Core index.
    pub core: usize,
    /// Instructions retired so far.
    pub instructions: u64,
    /// L1 misses waiting to pass the shaper.
    pub miss_queue_depth: usize,
    /// Shaper-granted requests whose fill has not arrived.
    pub inflight: u32,
    /// Occupied L1 MSHR entries.
    pub l1_mshr_occupancy: usize,
    /// Whether the core is currently frozen (tuner overhead injection).
    pub frozen: bool,
    /// The core's shaper state.
    pub shaper: ShaperStallState,
}

/// Shared-LLC state captured when a stall is detected.
#[derive(Debug, Clone)]
pub struct LlcStallState {
    /// Occupied LLC MSHR entries.
    pub mshr_occupancy: usize,
    /// LLC MSHR capacity.
    pub mshr_capacity: usize,
    /// Lookups queued at the LLC (due or pipelined).
    pub pending_lookups: usize,
    /// Transactions waiting for room in a controller FIFO.
    pub mc_backlog: usize,
    /// Per-core lines parked behind an after-LLC shaper gate.
    pub deferred: Vec<usize>,
}

/// Per-channel memory-controller/DRAM state captured when a stall is
/// detected.
#[derive(Debug, Clone)]
pub struct ChannelStallState {
    /// Channel index.
    pub channel: usize,
    /// Global smoothing FIFO occupancy.
    pub fifo_len: usize,
    /// Transaction (scheduling) queue occupancy.
    pub queue_len: usize,
    /// Transactions dispatched to DRAM awaiting completion.
    pub mc_inflight: usize,
    /// Services outstanding inside the DRAM model.
    pub dram_inflight: usize,
}

/// Structured diagnosis of a livelocked/deadlocked system, produced by the
/// forward-progress watchdog instead of letting the run silently time out.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Cycle the watchdog fired.
    pub detected_at: Cycle,
    /// Last cycle at which any core retired or any fill completed.
    pub stalled_since: Cycle,
    /// Per-core state at detection.
    pub cores: Vec<CoreStallState>,
    /// Shared LLC state at detection.
    pub llc: LlcStallState,
    /// Per-channel controller/DRAM state at detection.
    pub channels: Vec<ChannelStallState>,
}

impl StallReport {
    /// Cycles of zero progress before the watchdog fired.
    pub fn stall_length(&self) -> Cycle {
        self.detected_at - self.stalled_since
    }
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "stall detected at cycle {} (no progress since cycle {}):",
            self.detected_at, self.stalled_since
        )?;
        for c in &self.cores {
            writeln!(
                f,
                "  core {}: {} instr, miss-queue {}, inflight {}, L1 MSHRs {}{}",
                c.core,
                c.instructions,
                c.miss_queue_depth,
                c.inflight,
                c.l1_mshr_occupancy,
                if c.frozen { ", frozen" } else { "" }
            )?;
            write!(
                f,
                "    shaper '{}': {} stall cycles",
                c.shaper.name, c.shaper.stall_cycles
            )?;
            if c.shaper.credits.is_empty() {
                writeln!(f)?;
            } else {
                let bins: Vec<String> =
                    c.shaper.credits.iter().map(|b| format!("{}/{}", b.live, b.max)).collect();
                writeln!(f, ", credits [{}]", bins.join(" "))?;
            }
        }
        writeln!(
            f,
            "  LLC: MSHRs {}/{}, lookups {}, mc-backlog {}, deferred {:?}",
            self.llc.mshr_occupancy,
            self.llc.mshr_capacity,
            self.llc.pending_lookups,
            self.llc.mc_backlog,
            self.llc.deferred
        )?;
        for ch in &self.channels {
            writeln!(
                f,
                "  channel {}: fifo {}, queue {}, mc-inflight {}, dram-inflight {}",
                ch.channel, ch.fifo_len, ch.queue_len, ch.mc_inflight, ch.dram_inflight
            )?;
        }
        Ok(())
    }
}

/// How a bounded run ended. Returned by `System::run_until_instructions`
/// so callers can distinguish "finished", "slow", and "wedged" instead of
/// collapsing all three into a bool.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// Every core reached the instruction target.
    Completed {
        /// Cycle at which the last core crossed the target.
        cycles: Cycle,
    },
    /// The cycle cap expired with the system still making progress.
    CycleLimit {
        /// Cycle at which the run stopped (the cap).
        cycles: Cycle,
        /// Cores that had not reached the target.
        lagging: Vec<usize>,
    },
    /// The watchdog declared the system stalled.
    Stalled(Box<StallReport>),
}

impl RunOutcome {
    /// Whether every core met the instruction target.
    pub fn met_target(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }

    /// Whether the watchdog fired.
    pub fn is_stalled(&self) -> bool {
        matches!(self, RunOutcome::Stalled(_))
    }

    /// The stall report, if the run stalled.
    pub fn stall_report(&self) -> Option<&StallReport> {
        match self {
            RunOutcome::Stalled(r) => Some(r),
            _ => None,
        }
    }

    /// Compact label for experiment tables: `ok`, `cap(n lagging)`, or
    /// `stall@cycle`.
    pub fn label(&self) -> String {
        match self {
            RunOutcome::Completed { .. } => "ok".into(),
            RunOutcome::CycleLimit { lagging, .. } => format!("cap({} lagging)", lagging.len()),
            RunOutcome::Stalled(r) => format!("stall@{}", r.detected_at),
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Completed { cycles } => write!(f, "completed at cycle {cycles}"),
            RunOutcome::CycleLimit { cycles, lagging } => {
                write!(f, "cycle limit {cycles} reached; lagging cores {lagging:?}")
            }
            RunOutcome::Stalled(r) => write!(f, "{r}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One injectable fault. Each variant exercises a different checker: the
/// tests in `crates/sim/tests/hardening.rs` prove every class is caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently discard the next `count` DRAM read responses from cycle
    /// `from` on (models a lost completion; leaks LLC MSHRs and grants).
    DropDramResponses {
        /// First cycle the fault is active.
        from: Cycle,
        /// Number of responses to discard.
        count: u32,
    },
    /// Hold every DRAM read response for `delay` extra cycles from cycle
    /// `from` on (models a wedged response path).
    DelayDramResponses {
        /// First cycle the fault is active.
        from: Cycle,
        /// Extra cycles each response is held.
        delay: Cycle,
    },
    /// From cycle `from`, force core `core`'s shaper to deny every issue
    /// (models a credit state zeroed by a bug or a never-replenishing
    /// configuration).
    ZeroShaperCredits {
        /// First cycle the fault is active.
        from: Cycle,
        /// Core whose shaper is suppressed.
        core: usize,
    },
    /// From cycle `from`, report each shaper denial of core `core` to the
    /// auditor as a grant, as if the core saw credits its shaper does not
    /// hold (mutation test for the shaper oracles).
    CorruptShaperCredits {
        /// First cycle the fault is active.
        from: Cycle,
        /// Core whose shaper decisions are misreported.
        core: usize,
    },
    /// From cycle `from`, report zero free LLC ports every cycle (models a
    /// hung LLC arbiter).
    StallLlcPorts {
        /// First cycle the fault is active.
        from: Cycle,
    },
    /// While the plan is installed, shave `by` cycles off one DDR3 timing
    /// constant of every channel's DRAM model (models a device model that
    /// runs faster than DDR3 allows; the auditor's DDR3 check must flag
    /// its dispatches).
    ShaveDramTiming {
        /// The constant to shave.
        param: DramParam,
        /// Cycles shaved off.
        by: Cycle,
    },
}

/// A DDR3 timing constant a [`FaultKind::ShaveDramTiming`] fault shaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramParam {
    /// ACT-to-column delay.
    Trcd,
    /// Read CAS latency.
    Tcl,
    /// Data-bus occupancy of one burst.
    Burst,
}

/// A set of faults to inject into a running system (see
/// `System::inject_faults`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults to activate.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault to the plan.
    pub fn with(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }
}

/// What to do with a DRAM response under the active fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResponseAction {
    /// Deliver normally.
    Deliver,
    /// Discard (fault consumed one drop).
    Drop,
    /// Hold until the given cycle.
    Delay(Cycle),
}

/// Runtime state of an injected [`FaultPlan`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ActiveFaults {
    plan: FaultPlan,
    drops_done: u32,
    /// (release_at, line) responses being held by a delay fault.
    delayed: Vec<(Cycle, Addr)>,
}

impl ActiveFaults {
    pub(crate) fn inject(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.drops_done = 0;
    }

    pub(crate) fn is_active(&self) -> bool {
        !self.plan.faults.is_empty() || !self.delayed.is_empty()
    }

    /// Decides the fate of a DRAM read response arriving at `now`.
    pub(crate) fn on_response(&mut self, now: Cycle, line: Addr) -> ResponseAction {
        for fault in &self.plan.faults {
            match *fault {
                FaultKind::DropDramResponses { from, count }
                    if now >= from && self.drops_done < count =>
                {
                    self.drops_done += 1;
                    return ResponseAction::Drop;
                }
                FaultKind::DelayDramResponses { from, delay } if now >= from => {
                    let release = now + delay;
                    self.delayed.push((release, line));
                    return ResponseAction::Delay(release);
                }
                _ => {}
            }
        }
        ResponseAction::Deliver
    }

    /// Takes the delayed responses due at `now`.
    pub(crate) fn due_delayed(&mut self, now: Cycle) -> Vec<Addr> {
        let mut due = Vec::new();
        self.delayed.retain(|&(release, line)| {
            if release <= now {
                due.push(line);
                false
            } else {
                true
            }
        });
        due
    }

    /// Whether core `core`'s shaper must be forced to deny at `now`.
    pub(crate) fn deny_issue(&self, now: Cycle, core: usize) -> bool {
        self.plan.faults.iter().any(|f| {
            matches!(*f, FaultKind::ZeroShaperCredits { from, core: c } if now >= from && c == core)
        })
    }

    /// Whether core `core`'s shaper denials must reach the auditor as
    /// grants at `now`.
    pub(crate) fn corrupt_credits(&self, now: Cycle, core: usize) -> bool {
        self.plan.faults.iter().any(|f| {
            matches!(
                *f,
                FaultKind::CorruptShaperCredits { from, core: c } if now >= from && c == core
            )
        })
    }

    /// `base` with every [`FaultKind::ShaveDramTiming`] fault applied.
    pub(crate) fn dram_timing(&self, base: DramTimingCycles) -> DramTimingCycles {
        let mut t = base;
        for f in &self.plan.faults {
            if let FaultKind::ShaveDramTiming { param, by } = *f {
                let field = match param {
                    DramParam::Trcd => &mut t.t_rcd,
                    DramParam::Tcl => &mut t.t_cl,
                    DramParam::Burst => &mut t.burst,
                };
                *field = field.saturating_sub(by);
            }
        }
        t
    }

    /// Whether the plan holds a fault that acts in the issue stage: on the
    /// LLC ports or on a shaper's decisions, from its `from` cycle on.
    pub(crate) fn acts_on_issue(&self) -> bool {
        self.plan.faults.iter().any(|f| {
            matches!(
                f,
                FaultKind::StallLlcPorts { .. }
                    | FaultKind::ZeroShaperCredits { .. }
                    | FaultKind::CorruptShaperCredits { .. }
            )
        })
    }

    /// Whether the LLC ports are faulted shut at `now`.
    pub(crate) fn stall_ports(&self, now: Cycle) -> bool {
        self.plan
            .faults
            .iter()
            .any(|f| matches!(*f, FaultKind::StallLlcPorts { from } if now >= from))
    }

    /// Encodes the plan and its runtime progress (drops spent, held
    /// responses).
    pub(crate) fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.usize(self.plan.faults.len());
        for fault in &self.plan.faults {
            match *fault {
                FaultKind::DropDramResponses { from, count } => {
                    enc.u8(0);
                    enc.u64(from);
                    enc.u32(count);
                }
                FaultKind::DelayDramResponses { from, delay } => {
                    enc.u8(1);
                    enc.u64(from);
                    enc.u64(delay);
                }
                FaultKind::ZeroShaperCredits { from, core } => {
                    enc.u8(2);
                    enc.u64(from);
                    enc.usize(core);
                }
                FaultKind::CorruptShaperCredits { from, core } => {
                    enc.u8(3);
                    enc.u64(from);
                    enc.usize(core);
                }
                FaultKind::StallLlcPorts { from } => {
                    enc.u8(4);
                    enc.u64(from);
                }
                FaultKind::ShaveDramTiming { param, by } => {
                    enc.u8(5);
                    enc.u8(param as u8);
                    enc.u64(by);
                }
            }
        }
        enc.u32(self.drops_done);
        enc.usize(self.delayed.len());
        for &(release, line) in &self.delayed {
            enc.u64(release);
            enc.u64(line);
        }
    }

    pub(crate) fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = dec.checked_len(9)?;
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let fault = match dec.u8()? {
                0 => FaultKind::DropDramResponses { from: dec.u64()?, count: dec.u32()? },
                1 => FaultKind::DelayDramResponses { from: dec.u64()?, delay: dec.u64()? },
                2 => FaultKind::ZeroShaperCredits { from: dec.u64()?, core: dec.usize()? },
                3 => FaultKind::CorruptShaperCredits { from: dec.u64()?, core: dec.usize()? },
                4 => FaultKind::StallLlcPorts { from: dec.u64()? },
                5 => {
                    let param = match dec.u8()? {
                        0 => DramParam::Trcd,
                        1 => DramParam::Tcl,
                        2 => DramParam::Burst,
                        t => {
                            return Err(SnapshotError::corrupt(format!("unknown DRAM param {t}")))
                        }
                    };
                    FaultKind::ShaveDramTiming { param, by: dec.u64()? }
                }
                tag => {
                    return Err(SnapshotError::corrupt(format!("unknown fault kind tag {tag}")))
                }
            };
            faults.push(fault);
        }
        self.plan = FaultPlan { faults };
        self.drops_done = dec.u32()?;
        let n = dec.checked_len(16)?;
        self.delayed = (0..n)
            .map(|_| Ok((dec.u64()?, dec.u64()?)))
            .collect::<Result<_, SnapshotError>>()?;
        Ok(())
    }

    /// Earliest cycle strictly after `now` at which the fault plan changes
    /// behaviour: a held response releases, or a not-yet-active fault's
    /// `from` cycle arrives. Already-active faults are pure predicates the
    /// engine re-evaluates at every real tick, so they need no event.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            if c > now {
                next = Some(next.map_or(c, |n: Cycle| n.min(c)));
            }
        };
        for &(release, _) in &self.delayed {
            consider(release);
        }
        for f in &self.plan.faults {
            let from = match *f {
                FaultKind::DropDramResponses { from, .. }
                | FaultKind::DelayDramResponses { from, .. }
                | FaultKind::ZeroShaperCredits { from, .. }
                | FaultKind::CorruptShaperCredits { from, .. }
                | FaultKind::StallLlcPorts { from } => from,
                // Applied to the DRAM model at injection; nothing to wake.
                FaultKind::ShaveDramTiming { .. } => continue,
            };
            consider(from);
        }
        next
    }
}

// ---------------------------------------------------------------------------
// The auditor
// ---------------------------------------------------------------------------

/// Per-core forward-progress bookkeeping.
#[derive(Debug, Clone)]
struct CoreProgress {
    last_instructions: u64,
    last_change_at: Cycle,
    starve_reported: bool,
}

/// The oracle checking one installed shaper instance (a §IV-H shared pool
/// is one instance) against the contract the shaper states.
enum ShaperCheck {
    Bins(ShaperOracle),
    Envelope(NetCalcOracle),
}

/// Calls the method both oracle kinds share on whichever `check` holds.
macro_rules! either_oracle {
    ($check:expr, $o:ident => $call:expr) => {
        match $check {
            ShaperCheck::Bins($o) => $call,
            ShaperCheck::Envelope($o) => $call,
        }
    };
}

struct ShaperSlot {
    handle: ShaperHandle,
    check: ShaperCheck,
}

impl ShaperSlot {
    /// Restarts a bin-spec oracle if its shaper now states another spec
    /// (it was reconfigured); open episodes are checked under the old one
    /// up to the new install cycle, at most `at` (exclusive). Envelopes
    /// are fixed.
    fn sync(&mut self, at: Cycle, log: &mut AuditLog) {
        let ShaperCheck::Bins(o) = &mut self.check else { return };
        let stated = self.handle.borrow().contract();
        if let Some(ShaperContract::Bins(spec)) = stated {
            if spec != *o.spec() {
                let at = spec.installed_at.min(at);
                o.restart(spec, at, log);
            }
        }
    }
}

/// What the shaper oracles have checked so far, summed over shapers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShaperCoverage {
    /// Grants checked against a §III bin spec.
    pub bin_grants: u64,
    /// Denied cycles covered by the bin-spec stall-episode checks.
    pub denied_cycles: u64,
    /// Grants checked against an envelope's arrival curve.
    pub envelope_grants: u64,
    /// Completed stall episodes checked against an envelope's delay bound.
    pub episodes: u64,
}

/// Runtime invariant auditor and forward-progress watchdog state.
///
/// Owned by `System`; the structural checks themselves live in
/// `system.rs` (they need access to private simulator state) and feed
/// findings in through [`InvariantAuditor::record`]. The conformance
/// oracles it owns record into the same log.
pub struct InvariantAuditor {
    audit: AuditConfig,
    watchdog: WatchdogConfig,
    /// Shadow DDR3 state machine every dispatch is replayed against.
    dram: DramOracle,
    /// One pick-legality oracle per channel.
    picks: Vec<PickOracle>,
    /// One oracle per checked shaper instance.
    shapers: Vec<ShaperSlot>,
    /// Each core's entry in `shapers`, if its shaper is checked.
    core_shaper: Vec<Option<usize>>,
    log: AuditLog,
    passes: u64,
    last_now: Option<Cycle>,
    /// The next audit boundary not yet passed: the tick compares `now`
    /// with it instead of dividing. Derived from `now`, not checkpointed.
    next_audit: Cycle,
    // Watchdog state.
    last_progress_at: Cycle,
    last_totals: (u64, u64),
    cores: Vec<CoreProgress>,
    stall: Option<Box<StallReport>>,
}

impl InvariantAuditor {
    /// Creates auditor state for the configured cores, hardening settings
    /// and DRAM geometry. `pick_policies` holds each channel's
    /// [`crate::mc::Scheduler::conformance_policy`], in channel order.
    /// The system attaches each core's shaper as it installs it.
    pub fn new(
        config: &SystemConfig,
        pick_policies: impl IntoIterator<Item = Option<PickPolicy>>,
    ) -> Self {
        let picks: Vec<PickOracle> = pick_policies
            .into_iter()
            .enumerate()
            .map(|(ch, policy)| PickOracle::new(ch, policy))
            .collect();
        assert_eq!(picks.len(), config.mc.channels, "one pick policy per channel");
        InvariantAuditor {
            audit: config.hardening.audit.clone(),
            watchdog: config.hardening.watchdog.clone(),
            dram: DramOracle::from_system_config(config),
            picks,
            shapers: Vec::new(),
            core_shaper: vec![None; config.cores],
            log: AuditLog::new(config.hardening.audit.max_reports),
            passes: 0,
            last_now: None,
            next_audit: 0,
            last_progress_at: 0,
            last_totals: (0, 0),
            cores: vec![
                CoreProgress { last_instructions: 0, last_change_at: 0, starve_reported: false };
                config.cores
            ],
            stall: None,
        }
    }

    /// The audit settings in force.
    pub fn audit_config(&self) -> &AuditConfig {
        &self.audit
    }

    /// The watchdog settings in force.
    pub fn watchdog_config(&self) -> &WatchdogConfig {
        &self.watchdog
    }

    /// Whether an audit pass is due at `now`, the cycle after the last
    /// one asked about (or the cycle [`InvariantAuditor::resync`] named).
    /// A due boundary advances to the next one.
    pub(crate) fn audit_due(&mut self, now: Cycle) -> bool {
        if now < self.next_audit {
            return false;
        }
        self.next_audit = self.next_audit_boundary(now);
        true
    }

    /// The first audit boundary not yet audited (the fast-forward clamp
    /// after the last tick).
    pub(crate) fn next_audit(&self) -> Cycle {
        self.next_audit
    }

    /// Rebuilds the derived audit boundary for a system now at `now` (a
    /// restore): the first one at or after `now`.
    pub(crate) fn resync(&mut self, now: Cycle) {
        let k = self.audit.interval.max(1);
        self.next_audit = now.div_ceil(k) * k;
    }

    /// Starts an audit pass: bumps the pass counter, checks cycle
    /// monotonicity, and checks every open shaper stall episode through
    /// `now`.
    pub(crate) fn begin_pass(&mut self, now: Cycle) {
        self.passes += 1;
        if let Some(last) = self.last_now {
            if now < last {
                self.record(AuditViolation {
                    cycle: now,
                    invariant: Invariant::MonotoneCounters,
                    core: None,
                    detail: format!("cycle counter moved backwards: {last} -> {now}"),
                });
            }
        }
        self.last_now = Some(now);
        for slot in &mut self.shapers {
            slot.sync(now + 1, &mut self.log);
            either_oracle!(&mut slot.check, o => o.check_open(now, &mut self.log));
        }
    }

    /// Records a violation (bounded by [`AuditConfig::max_reports`]).
    pub fn record(&mut self, violation: AuditViolation) {
        self.log.record(violation);
    }

    /// The DDR3 oracle and the log (the system hands it every dispatch
    /// record).
    pub(crate) fn dram_check(&mut self) -> (&mut DramOracle, &mut AuditLog) {
        (&mut self.dram, &mut self.log)
    }

    /// Channel `channel`'s pick oracle and the log (the controller hands
    /// it every dispatching pick).
    pub(crate) fn pick_check(&mut self, channel: usize) -> (&mut PickOracle, &mut AuditLog) {
        (&mut self.picks[channel], &mut self.log)
    }

    /// Attaches `handle` as core `core`'s shaper at `now` (system build
    /// and `System::set_shaper`). The core's
    /// open stall episode, if any, ends under its old shaper's oracle;
    /// cores sharing one handle share one oracle, built from the
    /// shaper's contract when the handle is first seen. `stalled` says
    /// the core's head is in a shaper stall, which continues under the
    /// new oracle. After-LLC shapers are not attached (see DESIGN).
    pub(crate) fn attach_shaper(
        &mut self,
        core: usize,
        handle: &ShaperHandle,
        now: Cycle,
        stalled: bool,
    ) {
        if let Some(old) = self.core_shaper[core].take() {
            either_oracle!(&mut self.shapers[old].check, o => o.on_stall_end(core, now, &mut self.log));
            if !self.core_shaper.contains(&Some(old)) {
                self.shapers.remove(old);
                for s in self.core_shaper.iter_mut().flatten() {
                    if *s > old {
                        *s -= 1;
                    }
                }
            }
        }
        let slot = match self.shapers.iter().position(|s| Rc::ptr_eq(&s.handle, handle)) {
            Some(slot) => slot,
            None => {
                let check = match handle.borrow().contract() {
                    Some(ShaperContract::Bins(spec)) => ShaperCheck::Bins(ShaperOracle::new(spec)),
                    Some(ShaperContract::Envelope(e)) => ShaperCheck::Envelope(NetCalcOracle::new(e)),
                    None => return,
                };
                self.shapers.push(ShaperSlot { handle: Rc::clone(handle), check });
                self.shapers.len() - 1
            }
        };
        self.core_shaper[core] = Some(slot);
        if stalled {
            either_oracle!(&mut self.shapers[slot].check, o => o.on_stall_begin(core, now));
        }
    }

    /// Core `core`'s head entered (`stalled`) or left a shaper stall at
    /// `now`: the issue stage's outcome moved into or out of a shaper
    /// denial for a reason other than a grant.
    pub(crate) fn shaper_stall(&mut self, now: Cycle, core: usize, stalled: bool) {
        let Some(slot) = self.core_shaper[core] else { return };
        let slot = &mut self.shapers[slot];
        slot.sync(now, &mut self.log);
        if stalled {
            either_oracle!(&mut slot.check, o => o.on_stall_begin(core, now));
        } else {
            either_oracle!(&mut slot.check, o => o.on_stall_end(core, now, &mut self.log));
        }
    }

    /// The issue stage granted core `core`'s head at `now`, charged as
    /// `token`; it visited the cores in round-robin order from core
    /// `first` this cycle, which orders the sharers of a pool.
    pub(crate) fn shaper_grant(&mut self, now: Cycle, core: usize, token: ShapeToken, first: usize) {
        let Some(slot) = self.core_shaper[core] else { return };
        let n = self.core_shaper.len();
        let rank = |c: usize| (c + n - first) % n;
        let slot = &mut self.shapers[slot];
        slot.sync(now, &mut self.log);
        match &mut slot.check {
            ShaperCheck::Bins(o) => {
                o.on_grant(core, now, token, |c| rank(c) < rank(core), &mut self.log);
            }
            ShaperCheck::Envelope(o) => o.on_grant(core, now, &mut self.log),
        }
    }

    /// The LLC outcome of a grant of core `core` charged as `token`
    /// reached its shaper at `now`.
    pub(crate) fn shaper_feedback(&mut self, now: Cycle, core: usize, token: ShapeToken, hit: bool) {
        let Some(slot) = self.core_shaper[core] else { return };
        let slot = &mut self.shapers[slot];
        slot.sync(now, &mut self.log);
        if let ShaperCheck::Bins(o) = &mut slot.check {
            o.on_feedback(now, token, hit, &mut self.log);
        }
    }

    /// Whether core `core`'s shaper is checked by a shaper oracle.
    pub fn shaper_checked(&self, core: usize) -> bool {
        self.core_shaper[core].is_some()
    }

    /// What the shaper oracles have checked so far.
    pub fn shaper_coverage(&self) -> ShaperCoverage {
        let mut c = ShaperCoverage::default();
        for slot in &self.shapers {
            match &slot.check {
                ShaperCheck::Bins(o) => {
                    c.bin_grants += o.grants_checked();
                    c.denied_cycles += o.denied_cycles_checked();
                }
                ShaperCheck::Envelope(o) => {
                    c.envelope_grants += o.grants_checked();
                    c.episodes += o.episodes_checked();
                }
            }
        }
        c
    }

    /// Shaper oracles in the order of the first core each checks, the
    /// order the snapshot uses (independent of attach history).
    fn shapers_in_core_order(&self) -> Vec<usize> {
        let mut order = Vec::new();
        for s in self.core_shaper.iter().flatten() {
            if !order.contains(s) {
                order.push(*s);
            }
        }
        order
    }

    /// DRAM dispatches DDR3-checked so far.
    pub fn dispatches_checked(&self) -> u64 {
        self.dram.dispatches_checked()
    }

    /// Scheduler picks legality-checked so far, over all channels.
    pub fn picks_checked(&self) -> u64 {
        self.picks.iter().map(PickOracle::picks_checked).sum()
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[AuditViolation] {
        self.log.violations()
    }

    /// Violations dropped after [`AuditConfig::max_reports`] was reached.
    pub fn dropped_violations(&self) -> u64 {
        self.log.dropped()
    }

    /// Audit passes completed.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The first stall report, if the watchdog has fired.
    pub fn stall(&self) -> Option<&StallReport> {
        self.stall.as_deref()
    }

    pub(crate) fn set_stall(&mut self, report: StallReport) {
        self.record(AuditViolation {
            cycle: report.detected_at,
            invariant: Invariant::ForwardProgress,
            core: None,
            detail: format!(
                "global stall: no retire and no fill for {} cycles",
                report.stall_length()
            ),
        });
        self.stall = Some(Box::new(report));
    }

    /// Notes one cycle's global progress: `retired` instructions and
    /// `fills` delivered over all cores, and whether every core was
    /// frozen (frozen time does not count towards a stall). Any of the
    /// three moves the progress marker to `now`; returns whether it moved.
    pub(crate) fn note_global_progress(
        &mut self,
        now: Cycle,
        retired: u64,
        fills: u64,
        all_frozen: bool,
    ) -> bool {
        if retired == 0 && fills == 0 && !all_frozen {
            return false;
        }
        self.last_totals.0 += retired;
        self.last_totals.1 += fills;
        self.last_progress_at = now;
        true
    }

    /// The first cycle at which a watchdog threshold can be crossed, so
    /// the next threshold scan is due (the skip probe's watchdog clamp):
    /// the global stall threshold of the current episode while no stall
    /// was declared, and the starvation threshold of every core not yet
    /// reported. Computed from the episode state, so it is exact: each
    /// reset re-arms its own term, and a scan at the deadline reports the
    /// episode that reached it, which moves the deadline on (both
    /// thresholds are positive, see [`SystemConfig::validate`]).
    /// `Cycle::MAX` when nothing is left to report.
    pub(crate) fn watchdog_deadline(&self) -> Cycle {
        let global = match self.stall {
            None => self.last_progress_at.saturating_add(self.watchdog.global_stall_cycles),
            Some(_) => Cycle::MAX,
        };
        self.cores
            .iter()
            .filter(|p| !p.starve_reported)
            .map(|p| p.last_change_at.saturating_add(self.watchdog.core_starve_cycles))
            .fold(global, Cycle::min)
    }

    /// Whether the global stall crosses its threshold at `now`, with no
    /// progress noted this cycle. True at most once: the caller then
    /// builds the [`StallReport`].
    pub(crate) fn global_stall_due(&self, now: Cycle) -> bool {
        self.stall.is_none() && now - self.last_progress_at >= self.watchdog.global_stall_cycles
    }

    /// Cycle of the last observed global progress.
    pub(crate) fn last_progress_at(&self) -> Cycle {
        self.last_progress_at
    }

    /// The next audit-interval boundary strictly after `now`. The skip
    /// engine never skips past this cycle, so audit passes land exactly
    /// where per-cycle ticking would put them (and skips are bounded to
    /// at most one interval).
    pub(crate) fn next_audit_boundary(&self, now: Cycle) -> Cycle {
        let k = self.audit.interval.max(1);
        (now / k + 1) * k
    }

    /// Encodes auditor and watchdog state, including the recorded
    /// violation log (so downstream consumers tailing the log resume
    /// consistently), the DDR3 oracle's shadow, each pick oracle's count
    /// and each shaper oracle's state and open episodes. The stall report
    /// is deliberately not included: the system refuses to snapshot a
    /// stalled run.
    pub(crate) fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        debug_assert!(self.stall.is_none(), "stalled systems refuse to snapshot");
        enc.usize(self.log.violations.len());
        for v in &self.log.violations {
            enc.u64(v.cycle);
            enc.u8(v.invariant.snapshot_tag());
            enc.opt_usize(v.core);
            enc.str(&v.detail);
        }
        enc.u64(self.log.dropped);
        enc.u64(self.passes);
        enc.opt_u64(self.last_now);
        enc.u64(self.last_progress_at);
        enc.u64(self.last_totals.0);
        enc.u64(self.last_totals.1);
        enc.usize(self.cores.len());
        for p in &self.cores {
            enc.u64(p.last_instructions);
            enc.u64(p.last_change_at);
            enc.bool(p.starve_reported);
        }
        self.dram.save_state(enc);
        for p in &self.picks {
            p.save_state(enc);
        }
        for s in self.shapers_in_core_order() {
            either_oracle!(&self.shapers[s].check, o => o.save_state(enc));
        }
    }

    pub(crate) fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = dec.checked_len(18)?;
        let mut violations = Vec::with_capacity(n);
        for _ in 0..n {
            let cycle = dec.u64()?;
            let tag = dec.u8()?;
            let invariant = Invariant::from_snapshot_tag(tag)
                .ok_or_else(|| SnapshotError::corrupt(format!("unknown invariant tag {tag}")))?;
            let core = dec.opt_usize()?;
            let detail = dec.str()?.to_owned();
            violations.push(AuditViolation { cycle, invariant, core, detail });
        }
        self.log.violations = violations;
        self.log.dropped = dec.u64()?;
        self.passes = dec.u64()?;
        self.last_now = dec.opt_u64()?;
        self.last_progress_at = dec.u64()?;
        self.last_totals = (dec.u64()?, dec.u64()?);
        let n = dec.checked_len(17)?;
        if n != self.cores.len() {
            return Err(SnapshotError::mismatch(format!(
                "auditor tracks {} cores but the snapshot recorded {n}",
                self.cores.len()
            )));
        }
        for p in &mut self.cores {
            p.last_instructions = dec.u64()?;
            p.last_change_at = dec.u64()?;
            p.starve_reported = dec.bool()?;
        }
        self.dram.load_state(dec)?;
        for p in &mut self.picks {
            p.load_state(dec)?;
        }
        // The shapers' own sections already matched each core's shaper
        // kind, and with it the oracle kind.
        for s in self.shapers_in_core_order() {
            either_oracle!(&mut self.shapers[s].check, o => o.load_state(dec)?);
        }
        self.stall = None;
        Ok(())
    }

    /// Observes one core's retirement progress. An instruction count
    /// below the last observed one is recorded as a
    /// [`Invariant::MonotoneCounters`] violation at once. Returns `true`
    /// exactly once per starvation episode when the core crosses
    /// [`WatchdogConfig::core_starve_cycles`] without retiring (and is not
    /// frozen); the caller records the violation with context. A change
    /// or a frozen cycle resets the episode, which re-arms its term of
    /// [`InvariantAuditor::watchdog_deadline`].
    pub(crate) fn observe_core(
        &mut self,
        now: Cycle,
        core: usize,
        instructions: u64,
        frozen: bool,
    ) -> bool {
        let p = &mut self.cores[core];
        if instructions < p.last_instructions {
            counter_moved_backwards(&mut self.log, now, core, p.last_instructions, instructions);
        }
        if instructions != p.last_instructions || frozen {
            p.last_instructions = instructions;
            p.last_change_at = now;
            p.starve_reported = false;
            return false;
        }
        // A second observation in the cycle of a reset (the threshold
        // scan after the core loop's) never reports.
        let waited = now - p.last_change_at;
        if !p.starve_reported && waited > 0 && waited >= self.watchdog.core_starve_cycles {
            p.starve_reported = true;
            return true;
        }
        false
    }
}

/// Records core `core`'s instruction count dropping from `last` to
/// `instructions`. Out of line: the per-tick watchdog never takes it.
#[cold]
fn counter_moved_backwards(log: &mut AuditLog, now: Cycle, core: usize, last: u64, instructions: u64) {
    log.record(AuditViolation {
        cycle: now,
        invariant: Invariant::MonotoneCounters,
        core: Some(core),
        detail: format!("instruction counter moved backwards: {last} -> {instructions}"),
    });
}

/// Bounded grant ledger for one core: grant timestamps awaiting their
/// matching L1 fill. The grant and fill counts live in the core's
/// [`CoreStats`](crate::stats::CoreStats).
///
/// Push on shaper grant, pop on fill; the front is always the oldest
/// outstanding grant, so age checks are O(1).
#[derive(Debug, Clone, Default)]
pub(crate) struct GrantLedger {
    times: VecDeque<Cycle>,
    unmatched_fills: u64,
}

impl GrantLedger {
    pub(crate) fn on_grant(&mut self, now: Cycle) {
        self.times.push_back(now);
    }

    pub(crate) fn on_fill(&mut self) {
        if self.times.pop_front().is_none() {
            self.unmatched_fills += 1;
        }
    }

    pub(crate) fn outstanding(&self) -> usize {
        self.times.len()
    }

    pub(crate) fn oldest(&self) -> Option<Cycle> {
        self.times.front().copied()
    }

    pub(crate) fn unmatched_fills(&self) -> u64 {
        self.unmatched_fills
    }

    pub(crate) fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        let times: Vec<Cycle> = self.times.iter().copied().collect();
        enc.u64s(&times);
        enc.u64(self.unmatched_fills);
    }

    pub(crate) fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.times = dec.u64s()?.into();
        self.unmatched_fills = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{DramServiceTiming, RowOutcome};

    fn auditor(cfg: &HardeningConfig, cores: usize) -> InvariantAuditor {
        InvariantAuditor::new(
            &SystemConfig { cores, hardening: cfg.clone(), ..SystemConfig::multi_program(cores) },
            [None],
        )
    }

    /// Hands the auditor reads of line 0 (channel 0, bank 0, row 0), each
    /// dispatched at its record's cycle with the record's timing, the way
    /// the system hands it every dispatch.
    fn dispatch_line_zero(a: &mut InvariantAuditor, reads: &[(Cycle, DramServiceTiming)]) {
        let (dram, log) = a.dram_check();
        for (at, timing) in reads {
            dram.check(*at, 0, 0, false, timing, log);
        }
    }

    /// A legal row-miss record for line 0 dispatched at `at`.
    fn legal_miss(cfg: &SystemConfig, at: Cycle) -> DramServiceTiming {
        let t = cfg.dram.timing_cycles(cfg.core.freq_hz);
        DramServiceTiming {
            bank: 0,
            row: 0,
            outcome: RowOutcome::Miss,
            act_at: Some(at),
            pre_at: None,
            col_at: at + t.t_rcd,
            data_start: at + t.t_rcd + t.t_cl,
            data_end: at + t.t_rcd + t.t_cl + t.burst,
        }
    }

    #[test]
    fn illegal_dispatches_are_recorded_as_dram_timing() {
        let sys = SystemConfig::multi_program(1);

        // Column command one cycle before ACT + tRCD.
        let mut a = InvariantAuditor::new(&sys, [None]);
        let mut early = legal_miss(&sys, 10);
        early.col_at -= 1;
        early.data_start -= 1;
        early.data_end -= 1;
        dispatch_line_zero(&mut a, &[(10, early)]);
        let v = a.violations();
        assert!(!v.is_empty(), "an early column command must be flagged");
        assert!(v.iter().all(|v| v.invariant == Invariant::DramTiming && v.cycle == 10));
        assert!(v.iter().any(|v| v.detail.starts_with("channel 0: ") && v.detail.contains("tRCD")));

        // A row hit claimed on a bank that has never been opened.
        let mut a = InvariantAuditor::new(&sys, [None]);
        let mut hit = legal_miss(&sys, 20);
        hit.outcome = RowOutcome::Hit;
        hit.act_at = None;
        dispatch_line_zero(&mut a, &[(20, hit)]);
        let v = a.violations();
        assert!(v.iter().all(|v| v.invariant == Invariant::DramTiming && v.cycle == 20));
        assert!(
            v.iter()
                .any(|v| v.detail.starts_with("channel 0: ") && v.detail.contains("implies miss")),
            "a hit on a closed bank must be flagged: {v:?}"
        );
    }

    #[test]
    fn a_flood_of_illegal_dispatches_stops_at_max_reports() {
        let mut sys = SystemConfig::multi_program(1);
        sys.hardening.audit.max_reports = 3;
        let mut a = InvariantAuditor::new(&sys, [None]);
        let mut hit = legal_miss(&sys, 0);
        hit.outcome = RowOutcome::Hit;
        hit.act_at = None;
        // Ten row hits on bank 0, each with its burst before tCL. The
        // first also claims a hit on a closed bank: 11 findings, all
        // inside the first refresh interval.
        let flood: Vec<(Cycle, DramServiceTiming)> = (0..10)
            .map(|i| {
                let at = 1_000 * (i + 1);
                let mut t = hit;
                t.col_at = at;
                t.data_start = at; // before tCL
                t.data_end = at + (hit.data_end - hit.data_start);
                (at, t)
            })
            .collect();
        dispatch_line_zero(&mut a, &flood);
        assert_eq!(a.violations().len(), 3);
        assert!(a.violations().iter().all(|v| v.invariant == Invariant::DramTiming));
        assert_eq!(a.dropped_violations(), 8);
    }

    /// The system's per-tick global observation from cumulative totals:
    /// it notes the cycle's progress, then checks the stall threshold
    /// when nothing progressed.
    fn observe_global(
        a: &mut InvariantAuditor,
        now: Cycle,
        instructions: u64,
        fills: u64,
        any_active: bool,
    ) -> bool {
        let (i0, f0) = a.last_totals;
        !a.note_global_progress(now, instructions - i0, fills - f0, !any_active)
            && a.global_stall_due(now)
    }

    /// Declares a global stall at `at`, as the system does when
    /// [`InvariantAuditor::global_stall_due`] holds.
    fn declare_stall(a: &mut InvariantAuditor, at: Cycle) {
        let stalled_since = a.last_progress_at();
        a.set_stall(StallReport {
            detected_at: at,
            stalled_since,
            cores: vec![],
            llc: LlcStallState {
                mshr_occupancy: 0,
                mshr_capacity: 1,
                pending_lookups: 0,
                mc_backlog: 0,
                deferred: vec![],
            },
            channels: vec![],
        });
    }

    #[test]
    fn audit_due_follows_interval() {
        let mut cfg = HardeningConfig::default();
        cfg.audit.interval = 10;
        let mut a = auditor(&cfg, 1);
        let due: Vec<Cycle> = (0..=25).filter(|&c| a.audit_due(c)).collect();
        assert_eq!(due, [0, 10, 20]);
        // A restore mid-interval resumes on the grid.
        a.resync(33);
        let due: Vec<Cycle> = (33..=50).filter(|&c| a.audit_due(c)).collect();
        assert_eq!(due, [40, 50]);
        a.resync(60);
        assert!(a.audit_due(60), "a restore onto a boundary audits it");
    }

    #[test]
    fn record_caps_at_max_reports() {
        let mut cfg = HardeningConfig::default();
        cfg.audit.max_reports = 2;
        let mut a = auditor(&cfg, 1);
        for i in 0..5 {
            a.record(AuditViolation {
                cycle: i,
                invariant: Invariant::MshrLeak,
                core: None,
                detail: String::new(),
            });
        }
        assert_eq!(a.violations().len(), 2);
        assert_eq!(a.dropped_violations(), 3);
    }

    #[test]
    fn global_watchdog_fires_once_after_threshold() {
        let mut cfg = HardeningConfig::default();
        cfg.watchdog.global_stall_cycles = 100;
        let mut a = auditor(&cfg, 1);
        assert!(!observe_global(&mut a, 0, 10, 0, true));
        for now in 1..100 {
            assert!(!observe_global(&mut a, now, 10, 0, true), "cycle {now} too early");
        }
        assert!(observe_global(&mut a, 100, 10, 0, true));
        declare_stall(&mut a, 100);
        assert!(!observe_global(&mut a, 101, 10, 0, true), "fires only once");
        assert!(a.stall().is_some());
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].invariant, Invariant::ForwardProgress);
    }

    #[test]
    fn frozen_cycles_do_not_count_as_stall() {
        let mut cfg = HardeningConfig::default();
        cfg.watchdog.global_stall_cycles = 50;
        let mut a = auditor(&cfg, 1);
        for now in 0..200 {
            assert!(!observe_global(&mut a, now, 10, 0, false), "all-frozen must never stall");
        }
    }

    #[test]
    fn core_starvation_reports_once_per_episode() {
        let mut cfg = HardeningConfig::default();
        cfg.watchdog.core_starve_cycles = 10;
        let mut a = auditor(&cfg, 1);
        assert!(!a.observe_core(0, 0, 5, false));
        for now in 1..10 {
            assert!(!a.observe_core(now, 0, 5, false));
        }
        assert!(a.observe_core(10, 0, 5, false));
        assert!(!a.observe_core(11, 0, 5, false), "reported once");
        // Progress resets the episode.
        assert!(!a.observe_core(12, 0, 6, false));
        for now in 13..22 {
            assert!(!a.observe_core(now, 0, 6, false));
        }
        assert!(a.observe_core(22, 0, 6, false), "new episode reports again");
    }

    #[test]
    fn a_decreasing_instruction_count_is_one_monotone_violation() {
        let mut a = auditor(&HardeningConfig::default(), 2);
        // Rising, equal and frozen observations are all legal.
        for (now, instr, frozen) in [(1, 5, false), (2, 9, false), (3, 9, false), (4, 9, true)] {
            a.observe_core(now, 1, instr, frozen);
            a.observe_core(now, 0, 0, false);
        }
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        a.observe_core(5, 1, 7, false);
        a.observe_core(6, 1, 7, false);
        let v = a.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].invariant, v[0].core, v[0].cycle), (Invariant::MonotoneCounters, Some(1), 5));
        assert!(v[0].detail.contains("9 -> 7"), "{}", v[0].detail);
    }

    #[test]
    fn grant_ledger_matches_grants_to_fills() {
        let mut g = GrantLedger::default();
        g.on_grant(10);
        g.on_grant(20);
        assert_eq!(g.outstanding(), 2);
        assert_eq!(g.oldest(), Some(10));
        g.on_fill();
        assert_eq!(g.oldest(), Some(20));
        g.on_fill();
        g.on_fill();
        assert_eq!(g.unmatched_fills(), 1);
    }

    #[test]
    fn fault_plan_drop_budget_is_respected() {
        let mut f = ActiveFaults::default();
        f.inject(FaultPlan::new().with(FaultKind::DropDramResponses { from: 100, count: 2 }));
        assert_eq!(f.on_response(50, 0x40), ResponseAction::Deliver, "not active yet");
        assert_eq!(f.on_response(100, 0x40), ResponseAction::Drop);
        assert_eq!(f.on_response(101, 0x80), ResponseAction::Drop);
        assert_eq!(f.on_response(102, 0xc0), ResponseAction::Deliver, "budget spent");
    }

    #[test]
    fn fault_plan_delay_releases_on_time() {
        let mut f = ActiveFaults::default();
        f.inject(FaultPlan::new().with(FaultKind::DelayDramResponses { from: 0, delay: 10 }));
        assert_eq!(f.on_response(5, 0x40), ResponseAction::Delay(15));
        assert!(f.due_delayed(14).is_empty());
        assert_eq!(f.due_delayed(15), vec![0x40]);
        assert!(f.due_delayed(16).is_empty(), "released exactly once");
    }

    #[test]
    fn fault_predicates_respect_from_and_core() {
        let mut f = ActiveFaults::default();
        f.inject(
            FaultPlan::new()
                .with(FaultKind::ZeroShaperCredits { from: 10, core: 1 })
                .with(FaultKind::StallLlcPorts { from: 20 }),
        );
        assert!(!f.deny_issue(5, 1));
        assert!(f.deny_issue(10, 1));
        assert!(!f.deny_issue(10, 0), "only the targeted core");
        assert!(!f.stall_ports(19));
        assert!(f.stall_ports(20));
        assert!(!f.corrupt_credits(100, 0));
    }

    #[test]
    fn shave_faults_shave_the_model_timing_and_need_no_wake_up() {
        let cfg = SystemConfig::multi_program(1);
        let base = cfg.dram.timing_cycles(cfg.core.freq_hz);
        let mut f = ActiveFaults::default();
        assert_eq!(f.dram_timing(base), base);
        f.inject(
            FaultPlan::new()
                .with(FaultKind::ShaveDramTiming { param: DramParam::Trcd, by: 4 })
                .with(FaultKind::ShaveDramTiming { param: DramParam::Burst, by: 2 }),
        );
        let t = f.dram_timing(base);
        assert_eq!((t.t_rcd, t.burst, t.t_cl), (base.t_rcd - 4, base.burst - 2, base.t_cl));
        assert_eq!(f.next_event(0), None);
    }

    #[test]
    fn next_audit_boundary_is_the_next_multiple() {
        let mut cfg = HardeningConfig::default();
        cfg.audit.interval = 64;
        let a = auditor(&cfg, 1);
        assert_eq!(a.next_audit_boundary(0), 64);
        assert_eq!(a.next_audit_boundary(63), 64);
        assert_eq!(a.next_audit_boundary(64), 128, "strictly after now");
    }

    #[test]
    fn watchdog_deadline_tracks_both_deadlines() {
        let mut cfg = HardeningConfig::default();
        cfg.watchdog.global_stall_cycles = 100;
        cfg.watchdog.core_starve_cycles = 500;
        let mut a = auditor(&cfg, 2);
        // Fresh state: global deadline 100 is the earliest.
        assert_eq!(a.watchdog_deadline(), 100);
        // Global progress at 90 pushes the global deadline to 190.
        assert!(!observe_global(&mut a, 90, 1, 0, true));
        assert_eq!(a.watchdog_deadline(), 190);
        // A declared stall stops the global term.
        declare_stall(&mut a, 190);
        assert_eq!(a.watchdog_deadline(), 500, "core starve next");
        // A reported starvation episode stops contributing.
        for now in 0..=500 {
            a.observe_core(now, 0, 0, false);
            a.observe_core(now, 1, 0, false);
        }
        assert_eq!(a.watchdog_deadline(), Cycle::MAX, "all deadlines consumed");
        // A retirement re-arms that core's episode alone.
        a.observe_core(700, 1, 1, false);
        assert_eq!(a.watchdog_deadline(), 1_200);
    }

    #[test]
    fn progress_re_arms_the_global_deadline_exactly() {
        // Each new global episode replaces the old one's threshold, which
        // can no longer be crossed: the deadline is the current
        // episode's, neither the first one's nor an earlier scan's.
        let mut cfg = HardeningConfig::default();
        cfg.watchdog.global_stall_cycles = 100;
        cfg.watchdog.core_starve_cycles = 10_000;
        let mut a = auditor(&cfg, 1);
        for at in [10, 60, 95, 150, 151] {
            assert!(a.note_global_progress(at, 1, 0, false));
            assert_eq!(a.last_progress_at(), at);
            assert_eq!(a.watchdog_deadline(), a.last_progress_at() + 100, "progress at {at}");
        }
    }

    #[test]
    fn replay_skipped_matches_per_cycle_frozen_observations() {
        let mut cfg = HardeningConfig::default();
        cfg.watchdog.global_stall_cycles = 100;
        cfg.watchdog.core_starve_cycles = 500;
        // Naive: observe an all-frozen window cycle by cycle.
        let mut naive = auditor(&cfg, 2);
        for now in 1..=400 {
            assert!(!observe_global(&mut naive, now, 7, 3, false));
            naive.observe_core(now, 0, 7, true);
            naive.observe_core(now, 1, 0, true);
        }
        // Fast: `System::skip_to` makes the observations a frozen tick
        // makes once, at the window's last cycle.
        let mut fast = auditor(&cfg, 2);
        fast.observe_core(400, 0, 7, true);
        fast.observe_core(400, 1, 0, true);
        assert!(fast.note_global_progress(400, 0, 0, true));
        assert_eq!(fast.last_progress_at(), naive.last_progress_at());
        assert_eq!(fast.watchdog_deadline(), naive.watchdog_deadline());
        let episodes = |a: &InvariantAuditor| -> Vec<(u64, Cycle, bool)> {
            let episode = |p: &CoreProgress| (p.last_instructions, p.last_change_at, p.starve_reported);
            a.cores.iter().map(episode).collect()
        };
        assert_eq!(episodes(&fast), episodes(&naive));
    }

    #[test]
    fn fault_next_event_covers_activation_and_release() {
        let mut f = ActiveFaults::default();
        f.inject(
            FaultPlan::new()
                .with(FaultKind::StallLlcPorts { from: 50 })
                .with(FaultKind::ZeroShaperCredits { from: 200, core: 0 }),
        );
        assert_eq!(f.next_event(0), Some(50));
        assert_eq!(f.next_event(50), Some(200), "active faults need no event");
        assert_eq!(f.next_event(200), None);
        // A held response contributes its release cycle.
        f.inject(FaultPlan::new().with(FaultKind::DelayDramResponses { from: 0, delay: 10 }));
        assert_eq!(f.on_response(5, 0x40), ResponseAction::Delay(15));
        assert_eq!(f.next_event(5), Some(15));
        assert_eq!(f.due_delayed(15), vec![0x40]);
        assert_eq!(f.next_event(15), None);
    }

    #[test]
    fn run_outcome_labels() {
        assert_eq!(RunOutcome::Completed { cycles: 5 }.label(), "ok");
        assert!(RunOutcome::Completed { cycles: 5 }.met_target());
        let cap = RunOutcome::CycleLimit { cycles: 9, lagging: vec![0, 2] };
        assert_eq!(cap.label(), "cap(2 lagging)");
        assert!(!cap.met_target());
    }

    #[test]
    fn sim_error_display_and_source() {
        let e = SimError::from(ConfigError::NoCores);
        assert!(e.to_string().contains("at least one core"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(SimError::EmptyTrace.to_string().contains("empty trace"));
    }

    // ---- Estimator bound properties -------------------------------------
    //
    // The skip engine trusts these `next_*` estimators to be
    // conservative: early is fine (the engine just re-probes), late means
    // a skipped state change. Each property brute-forces the window
    // `(now, estimate)` against the real per-cycle behaviour.

    use proptest::prelude::*;

    proptest! {
        /// `ActiveFaults::next_event` never overshoots a behaviour
        /// change: every fault predicate is constant on `(now, est)`,
        /// and no held response releases inside the window.
        #[test]
        fn fault_next_event_is_never_late(
            from_a in 0u64..400,
            from_b in 0u64..400,
            delay in 1u64..60,
            resp_at in 0u64..200,
            now in 0u64..500,
        ) {
            let mut f = ActiveFaults::default();
            f.inject(
                FaultPlan::new()
                    .with(FaultKind::StallLlcPorts { from: from_a })
                    .with(FaultKind::ZeroShaperCredits { from: from_b, core: 0 })
                    .with(FaultKind::DelayDramResponses { from: 0, delay }),
            );
            // Maybe hold one response (populates the release list).
            let _ = f.on_response(resp_at, 0x40);
            let est = f.next_event(now);
            if let Some(est) = est {
                prop_assert!(est > now, "estimate {est} not strictly after {now}");
                for c in now + 1..est {
                    prop_assert_eq!(f.stall_ports(c), f.stall_ports(now),
                        "port-stall flipped at {} before estimate {}", c, est);
                    prop_assert_eq!(f.deny_issue(c, 0), f.deny_issue(now, 0),
                        "issue-deny flipped at {} before estimate {}", c, est);
                }
                // No release strictly inside the window: draining just
                // before the estimate returns nothing new after `now`.
                let mut probe = f.clone();
                let at_now = probe.due_delayed(now).len();
                let _ = at_now;
                prop_assert!(probe.due_delayed(est - 1).is_empty(),
                    "a held response releases before the estimate");
            } else {
                // No event: predicates must be constant forever after.
                for c in now + 1..now + 600 {
                    prop_assert_eq!(f.stall_ports(c), f.stall_ports(now));
                    prop_assert_eq!(f.deny_issue(c, 0), f.deny_issue(now, 0));
                }
                let mut probe = f.clone();
                let _ = probe.due_delayed(now);
                prop_assert!(probe.due_delayed(now + 600).is_empty());
            }
        }

        /// `next_audit_boundary` is the first due cycle strictly after
        /// `now`: on-grid, at most one interval away, nothing due inside
        /// the skipped window.
        #[test]
        fn audit_boundary_is_never_late(interval in 1u64..2_000, now in 0u64..1_000_000) {
            let mut cfg = HardeningConfig::default();
            cfg.audit.interval = interval;
            let mut a = auditor(&cfg, 1);
            let b = a.next_audit_boundary(now);
            prop_assert!(b > now);
            prop_assert!(b <= now + interval);
            prop_assert!(b.is_multiple_of(interval), "boundary {} off the grid", b);
            // Ticked cycle by cycle from a resume at `now + 1`.
            a.resync(now + 1);
            for c in now + 1..b {
                prop_assert!(!a.audit_due(c), "due cycle {} inside the skip window", c);
            }
            prop_assert!(a.audit_due(b), "clamp target must itself be due");
        }

        /// `watchdog_deadline` never overshoots a firing: a quiescent
        /// per-cycle observation run fires nothing strictly before the
        /// deadline, and fires at it.
        #[test]
        fn watchdog_estimate_is_never_late(
            global in 20u64..300,
            starve in 20u64..300,
            progress_until in 0u64..100,
        ) {
            let mut cfg = HardeningConfig::default();
            cfg.watchdog.global_stall_cycles = global;
            cfg.watchdog.core_starve_cycles = starve;
            let mut a = auditor(&cfg, 2);
            // Warm-up: both cores retire until `progress_until`.
            for now in 1..=progress_until {
                prop_assert!(!observe_global(&mut a, now, now, now, true));
                prop_assert!(!a.observe_core(now, 0, now, false));
                prop_assert!(!a.observe_core(now, 1, now, false));
            }
            let now = progress_until;
            let est = a.watchdog_deadline();
            prop_assert!(est < Cycle::MAX, "fresh watchdog always has deadlines");
            prop_assert!(est > now);
            // Quiescent continuation: totals frozen, cores not frozen.
            for c in now + 1..=est {
                let fired = observe_global(&mut a, c, progress_until, progress_until, true)
                    | a.observe_core(c, 0, progress_until, false)
                    | a.observe_core(c, 1, progress_until, false);
                if c < est {
                    prop_assert!(!fired, "watchdog fired at {} before estimate {}", c, est);
                } else {
                    prop_assert!(fired, "estimate {} passed with no firing", est);
                }
            }
        }
    }
}
