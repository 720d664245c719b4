#![warn(missing_docs)]

//! # mitts-core — Memory Inter-arrival Time Traffic Shaping
//!
//! The paper's contribution (Zhou & Wentzlaff, ISCA 2016): a simple,
//! distributed hardware mechanism that limits memory traffic *at the
//! source* by fitting each core's stream of memory-request inter-arrival
//! times into a configurable distribution.
//!
//! The shaper is an array of `N` credit **bins** ([`bins::BinConfig`]):
//! `bin_i` holds credits for requests whose inter-arrival time falls into
//! the interval represented by `t_i = (i + ½)·L`. Issuing a request
//! consumes a credit from a bin with inter-arrival ≤ the request's; if no
//! such credit exists the request stalls, aging into farther-out bins
//! until one is eligible or credits are replenished (every `T_r` cycles,
//! Algorithm 1). [`shaper::MittsShaper`] implements both §III-D feedback
//! schemes for the hybrid L1/LLC placement.
//!
//! ## Sharing credits between threads (§IV-H)
//!
//! The shaper plugs into `mitts-sim` through a shared
//! [`mitts_sim::system::ShaperHandle`]; installing *the same* handle on
//! several cores pools their credits (the paper found a shared MITTS over
//! 2× better than per-thread MITTS for x264/ferret). Per-thread shaping
//! just uses distinct handles. A context switch saves a thread's
//! [`bins::BinConfig`] and writes it back with
//! [`shaper::MittsShaper::reconfigure`].
//!
//! # Example
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use mitts_core::{BinConfig, BinSpec, MittsShaper};
//! use mitts_sim::config::SystemConfig;
//! use mitts_sim::system::SystemBuilder;
//! use mitts_sim::trace::StrideTrace;
//!
//! // Allow 40 bursty credits (bin 0) and 60 relaxed credits (bin 9)
//! // every 10 000 cycles.
//! let cfg = BinConfig::new(
//!     BinSpec::paper_default(),
//!     vec![40, 0, 0, 0, 0, 0, 0, 0, 0, 60],
//!     10_000,
//! )?;
//! let shaper = Rc::new(RefCell::new(MittsShaper::new(cfg)));
//!
//! let mut sys = SystemBuilder::new(SystemConfig::single_program())
//!     .trace(0, Box::new(StrideTrace::new(30, 64, 16 << 20)))
//!     .shaper(0, shaper.clone())
//!     .build();
//! sys.run_cycles(50_000);
//! assert!(shaper.borrow().counters().grants > 0);
//! # Ok::<(), mitts_core::bins::BinConfigError>(())
//! ```

pub mod area;
pub mod bins;
pub mod shaper;

pub use area::AreaModel;
pub use bins::{BinConfig, BinConfigError, BinSpec, K_MAX};
pub use shaper::{CreditPolicy, FeedbackMethod, MittsShaper, ShaperCounters};
