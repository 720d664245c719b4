#![warn(missing_docs)]

//! # mitts-sim — cycle-level multicore memory-system simulator
//!
//! The simulation substrate for the MITTS (ISCA 2016) reproduction. It
//! stands in for the paper's SDSim (SSim core model + DRAMSim2 memory
//! model) and provides everything the MITTS shaper interacts with:
//!
//! * trace-driven out-of-order-ish cores ([`core::Core`]) with a bounded
//!   instruction window and in-order retirement;
//! * private L1 caches with MSHRs ([`cache`]);
//! * a shared last-level cache with a port limit;
//! * a memory controller with a pluggable scheduling policy
//!   ([`mc::Scheduler`]) and the paper's 32-entry smoothing FIFO;
//! * a DDR3-1333 bank/row-buffer DRAM timing model ([`dram`]);
//! * the source-shaper interface ([`shaper::SourceShaper`]) that the MITTS
//!   shaper (crate `mitts-core`) plugs into.
//!
//! # Quick start
//!
//! ```
//! use mitts_sim::config::SystemConfig;
//! use mitts_sim::system::SystemBuilder;
//! use mitts_sim::trace::StrideTrace;
//!
//! // One core streaming through 16 MB with 20 compute instructions
//! // between loads, on the paper's Table II configuration.
//! let mut sys = SystemBuilder::new(SystemConfig::single_program())
//!     .trace(0, Box::new(StrideTrace::new(20, 64, 16 << 20)))
//!     .build();
//! sys.run_cycles(100_000);
//! let stats = sys.core_stats(0);
//! assert!(stats.counters.ipc() > 0.0);
//! assert!(stats.llc_misses > 0);
//! ```

pub mod audit;
pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod fsio;
pub mod histogram;
pub mod mc;
pub mod obs;
pub mod oracle;
pub mod par;
pub mod rng;
pub mod shaper;
pub mod snapshot;
pub mod stats;
pub mod system;
pub mod trace;
pub mod trace_io;
pub mod types;

pub use audit::{
    AuditLog, AuditViolation, DramParam, FaultKind, FaultPlan, HardeningConfig, Invariant,
    RunOutcome, SimError, StallReport,
};
pub use config::{ConfigError, SystemConfig};
pub use obs::{JsonlSink, NullSink, Observer, RingSink, TraceEvent, TraceSink};
pub use oracle::{
    DramOracle, MittsSpec, NetCalcOracle, PickOracle, PickPolicy, ShaperOracle, SpecFeedback,
    SpecPolicy,
};
pub use snapshot::{Snapshot, SnapshotError};
pub use stats::geomean;
pub use system::{Engine, System, SystemBuilder};
pub use types::{Addr, CoreId, Cycle, MemCmd, OpId};
