//! Conformance oracles: independent legality checkers.
//!
//! The simulator's unit tests pin outputs against themselves; nothing
//! else checks the *specifications* — that the shaper enforces §III
//! bin/credit semantics exactly, that the DRAM model obeys DDR3 timing,
//! that the scheduler only makes legal FR-FCFS choices. This module
//! re-implements each specification naively and checks the simulator
//! against it, inline, as the simulator runs:
//!
//! * [`ShaperOracle`] — a from-the-paper reimplementation of the MITTS
//!   bin/credit machine. It flags any grant the spec would deny, any
//!   grant charged to the wrong bin, and any stall episode holding a
//!   cycle the spec would grant.
//! * [`NetCalcOracle`] — checks a shaper's *analytical envelope*: its
//!   grant stream must conform to the token-bucket arrival curve it
//!   promises, and every stall episode must respect the curve's delay
//!   bound (the static, CBS and regulator shapers, whose curves are
//!   closed-form).
//! * [`DramOracle`] — replays every DRAM dispatch per channel against the
//!   DDR3 constraints (tRCD/tRP/tCL/tCWL/tRAS/tRC/tRRD/tRTP/tWR/tWTR,
//!   row-buffer state, refresh fences, data-bus occupancy).
//! * [`PickOracle`] — checks each dispatching pick against the queue it
//!   was made from: the pick must be startable, obey the priority-core
//!   override, and be the legal row-hit-first / oldest-first choice for
//!   the policy the scheduler claims (see
//!   [`crate::mc::Scheduler::conformance_policy`]).
//!
//! The invariant auditor ([`crate::audit::InvariantAuditor`]) owns and
//! feeds all four in every run, and every finding is an audit violation.
//! Each component states the spec it is checked against: a shaper
//! through [`crate::shaper::SourceShaper::contract`] (one oracle per
//! shaper instance, so a §IV-H shared pool is one oracle fed by all its
//! cores), a scheduler through its conformance policy. So every run —
//! tests, sweeps, capacity probes, perfbench — is spec-checked.
//!
//! Oracles are deliberately *stateless about the simulator's internals*:
//! they see only grants, stall episodes, LLC feedback, dispatch records
//! and the queue the scheduler saw, so a bug in the model cannot hide
//! inside shared code. The `mitts-conform` binary (crate `mitts-bench`)
//! runs seeded fuzzed configurations and components that misstate their
//! spec or break the DRAM timing (to prove the oracles detect
//! divergence).

mod dram;
mod netcalc;
mod sched;
mod shaper;

pub use dram::DramOracle;
pub use netcalc::NetCalcOracle;
pub use sched::{PickOracle, PickPolicy};
pub use shaper::{MittsSpec, ShaperOracle, SpecFeedback, SpecPolicy};
