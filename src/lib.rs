#![warn(missing_docs)]

//! # mitts — reproduction of *MITTS: Memory Inter-arrival Time Traffic
//! Shaping* (Zhou & Wentzlaff, ISCA 2016)
//!
//! MITTS is a small, distributed hardware mechanism that limits memory
//! traffic **at the source**: each core's L1-miss stream is shaped into a
//! configurable *distribution of inter-arrival times* held as credits in
//! `N` bins. That single knob subsumes both bandwidth (total credits per
//! replenishment period) and burstiness (how the credits spread across
//! bins), enabling per-core bandwidth isolation, throughput/fairness
//! optimisation, and fine-grain IaaS pricing of bursty vs bulk traffic.
//!
//! This crate re-exports the whole reproduction workspace:
//!
//! * [`sim`] — the cycle-level multicore memory-system simulator (cores,
//!   caches, MSHRs, DDR3 DRAM timing, memory controller);
//! * [`core`] — the MITTS shaper itself (bins, credits, replenishment,
//!   hybrid LLC feedback, reconfiguration on context switch, area model);
//! * [`sched`] — baseline memory schedulers (FR-FCFS, FairQueue, TCM,
//!   FST, MemGuard, MISE);
//! * [`workloads`] — synthetic SPEC/PARSEC/server application profiles
//!   and the paper's Table III multiprogram workloads;
//! * [`tuner`] — offline & online genetic algorithms plus objectives;
//! * [`cloud`] — bin pricing and performance-per-cost economics.
//!
//! See `examples/` for runnable scenarios and the `mitts-bench` crate for
//! the per-figure experiment harness.
//!
//! # Quick start
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use mitts::core::{BinConfig, BinSpec, MittsShaper};
//! use mitts::sim::config::SystemConfig;
//! use mitts::sim::system::SystemBuilder;
//! use mitts::workloads::Benchmark;
//!
//! // Shape mcf to 40 bursty + 60 bulk credits every 10 000 cycles.
//! let cfg = BinConfig::new(
//!     BinSpec::paper_default(),
//!     vec![40, 0, 0, 0, 0, 0, 0, 0, 0, 60],
//!     10_000,
//! )?;
//! let shaper = Rc::new(RefCell::new(MittsShaper::new(cfg)));
//! let mut sys = SystemBuilder::new(SystemConfig::single_program())
//!     .trace(0, Box::new(Benchmark::Mcf.profile().trace(0, 42)))
//!     .shaper(0, shaper.clone())
//!     .build();
//! sys.run_cycles(50_000);
//! assert!(shaper.borrow().counters().grants > 0);
//! # Ok::<(), mitts::core::BinConfigError>(())
//! ```

pub use mitts_cloud as cloud;
pub use mitts_core as core;
pub use mitts_sched as sched;
pub use mitts_sim as sim;
pub use mitts_tuner as tuner;
pub use mitts_workloads as workloads;
