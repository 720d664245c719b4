#![warn(missing_docs)]

//! # mitts-tuner — bin-configuration search
//!
//! The paper configures MITTS bins with a genetic algorithm because the
//! search space (`K_max^10` configurations per core) is large and
//! non-convex (§IV-B). This crate provides:
//!
//! * [`ga::GeneticTuner`] — the offline GA (population 30 × 20
//!   generations by default), generic over a caller-supplied fitness
//!   function, scoring each generation in parallel;
//! * [`online::OnlineTuner`] — the Fig. 10 online GA: CONFIG_PHASE of
//!   per-epoch child evaluations with MISE-style alone-rate measurement
//!   and an explicit software-overhead charge, then RUN_PHASE, plus a
//!   phase-adaptive mode;
//! * [`hillclimb::HillClimber`] — the local-search baseline the paper
//!   dismisses, kept to demonstrate local-optimum trapping;
//! * [`genome::Constraint`] — the §IV-C equality constraints (match a
//!   static allocation's average interval and bandwidth) enforced by
//!   projection/repair;
//! * [`objective::Objective`] — throughput / fairness / performance
//!   scoring plus the paper's blended online slowdown estimator.
//!
//! # Example: offline GA on a toy fitness
//!
//! ```
//! use mitts_core::BinSpec;
//! use mitts_tuner::{GaParams, GeneticTuner};
//!
//! let mut ga = GeneticTuner::new(BinSpec::paper_default(), 10_000, 1, GaParams::quick());
//! let result = ga.optimize(|genome| {
//!     // Reward credits in the burstiest bin.
//!     genome.credits()[0][0] as f64
//! });
//! assert!(result.best_fitness > 0.0);
//! ```

pub mod ga;
pub mod genome;
pub mod hillclimb;
pub mod objective;
pub mod online;
pub mod phase;

pub use ga::{GaParams, GaResult, GaState, GeneticTuner};
pub use genome::{Constraint, Genome};
pub use hillclimb::{HillClimbResult, HillClimber};
pub use objective::Objective;
pub use phase::PhaseSchedule;
pub use online::{OnlineParams, OnlineResult, OnlineTuner};
