//! Conformance oracles: independent legality checkers.
//!
//! The simulator's unit tests pin outputs against themselves; nothing
//! checks the *specifications* — that the shaper enforces §III bin/credit
//! semantics exactly, that the DRAM model obeys DDR3 timing, that the
//! scheduler only makes legal FR-FCFS choices. This module re-implements
//! each specification naively and checks the simulator against it, from
//! the observability event stream (`crate::obs::TraceEvent`) or inline:
//!
//! * [`ShaperOracle`] — a from-the-paper reimplementation of the MITTS
//!   bin/credit machine. It consumes `shaper_grant`, `llc_lookup`, and
//!   shaper `stall_begin`/`stall_end` events and flags any grant the spec
//!   would deny, any grant charged to the wrong bin, and any denial the
//!   spec would allow.
//! * [`DramOracle`] — replays `dram_dispatch` records per channel against
//!   the DDR3 constraints (tRCD/tRP/tCL/tCWL/tRAS/tRC/tRRD/tRTP/tWR/tWTR,
//!   row-buffer state, refresh fences, data-bus occupancy).
//! * [`PickOracle`] — checks each dispatching pick against the queue it
//!   was made from, inline: the pick must be startable, obey the
//!   priority-core override, and be the legal row-hit-first /
//!   oldest-first choice for the policy the scheduler claims (see
//!   [`crate::mc::Scheduler::conformance_policy`]).
//! * [`NetCalcOracle`] — checks a shaper's *analytical envelope*: its
//!   grant stream must conform to the token-bucket arrival curve it
//!   promises, every shaper stall episode must respect the curve's delay
//!   bound, and grants outstanding at the LLC must stay below the
//!   network-calculus backlog bound (used for the static, CBS and
//!   regulator shapers, whose curves are closed-form: see
//!   [`crate::shaper::SourceShaper::envelope`]).
//!
//! Oracles are deliberately *stateless about the simulator's internals*:
//! they see only what an external trace consumer sees (the pick oracle:
//! only the queue and DRAM view the scheduler saw), so a bug in the model
//! cannot hide inside shared code. The `mitts-conform` binary (crate
//! `mitts-bench`) runs them over seeded fuzzed configurations and over
//! deliberately-mutated specs (to prove the oracles themselves detect
//! divergence).
//!
//! Two oracles run inline. The invariant auditor
//! ([`crate::audit::InvariantAuditor`]) owns a [`DramOracle`], which it
//! feeds every DRAM dispatch, and one [`PickOracle`] per channel, to which
//! the controller hands every dispatching pick, whenever auditing is
//! enabled. So every audited run (tests, sweeps, perfbench) is DDR3- and
//! pick-checked.

mod dram;
mod netcalc;
mod sched;
mod shaper;

pub use dram::DramOracle;
pub use netcalc::{NetCalcOracle, NetCalcSpec};
pub use sched::{PickOracle, PickPolicy};
pub use shaper::{ShaperOracle, ShaperSpec, SpecFeedback, SpecPolicy};

use crate::types::Cycle;

/// Which oracle reported a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// The §III shaper bin/credit oracle.
    Shaper,
    /// The DDR3 timing/row-state/bus oracle.
    Dram,
    /// The scheduler pick-legality oracle.
    Sched,
    /// The network-calculus arrival-curve/delay/backlog oracle.
    NetCalc,
}

impl OracleKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::Shaper => "shaper",
            OracleKind::Dram => "dram",
            OracleKind::Sched => "sched",
            OracleKind::NetCalc => "netcalc",
        }
    }
}

/// One conformance violation: the observed stream did something the
/// specification forbids (or failed to do something it requires).
#[derive(Debug, Clone, PartialEq)]
pub struct OracleViolation {
    /// Cycle of the offending event (or of the spec-predicted divergence).
    pub at: Cycle,
    /// Which oracle found it.
    pub oracle: OracleKind,
    /// Core the violation is attributed to (shaper oracle).
    pub core: Option<usize>,
    /// Memory channel the violation is attributed to (DRAM/sched oracles).
    pub channel: Option<usize>,
    /// Human-readable specifics: observed vs. spec-required values.
    pub detail: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[cycle {}] {} oracle", self.at, self.oracle.label())?;
        if let Some(core) = self.core {
            write!(f, " (core {core})")?;
        }
        if let Some(ch) = self.channel {
            write!(f, " (channel {ch})")?;
        }
        write!(f, ": {}", self.detail)
    }
}
