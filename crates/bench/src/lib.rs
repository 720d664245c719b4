#![warn(missing_docs)]

//! # mitts-bench — experiment harness
//!
//! One module per figure/table of the paper's evaluation section; each
//! exposes `run(&Scale) -> Table` (printed by `run_all <filter>` and
//! exercised at reduced scale by the integration tests).
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.

pub mod capacity;
pub mod chaos;
pub mod conform;
pub mod exp;
pub mod fsck;
pub mod journal;
pub mod lease;
pub mod pool;
pub mod runner;
pub mod signal;
pub mod table;
pub mod tracetool;

pub use runner::{Scale, ShaperSpec};
pub use table::Table;
