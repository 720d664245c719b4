//! §III-A scaling study: MITTS is a *distributed* mechanism ("the use of
//! memory bandwidth source control in a distributed way can scale up
//! with multicore and manycore systems, as it does not rely on
//! centralized hardware structures").
//!
//! This experiment grows the system from 4 to 25 cores (the tape-out's
//! count), cycling the Table III programs across cores, and compares
//! unshaped FR-FCFS against per-core MITTS shapers holding every core to
//! an even share of the channel bandwidth. The claim to check: the
//! *mechanism keeps working* as cores grow — per-core shapers keep
//! enforcing their budgets and fairness degrades more slowly than in the
//! unshaped system. A second channel is added at 16+ cores, exercising
//! the multi-channel substrate.

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sched::make_baseline;
use mitts_sim::stats::{s_avg, s_max};
use mitts_sim::system::SystemBuilder;
use mitts_workloads::Benchmark;

use crate::runner::{
    base_for, engine_from_env, measure_work, seed_for, shared_config, slowdowns_vs_alone,
    AloneProfile, Scale, REPLENISH_PERIOD,
};
use crate::table::{f3, Table};

const SALT: u64 = 400;

/// Core counts studied (25 = the tape-out).
pub const CORE_COUNTS: [usize; 4] = [4, 8, 16, 25];

/// Programs assigned round-robin to cores.
fn program_for(core: usize) -> Benchmark {
    use Benchmark::*;
    const RING: [Benchmark; 8] = [Gcc, Libquantum, Bzip, Mcf, Astar, Sjeng, Omnetpp, H264ref];
    RING[core % RING.len()]
}

/// One row of the scaling table.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Number of cores.
    pub cores: usize,
    /// Memory channels used.
    pub channels: usize,
    /// (S_avg, S_max) unshaped under FR-FCFS.
    pub unshaped: (f64, f64),
    /// (S_avg, S_max) with per-core even-share MITTS.
    pub mitts: (f64, f64),
}

/// Runs one core count.
pub fn measure_point(cores: usize, scale: &Scale) -> ScalingPoint {
    let channels = if cores >= 16 { 2 } else { 1 };
    let benches: Vec<Benchmark> = (0..cores).map(program_for).collect();

    // Alone profiles (per distinct program, reused across cores).
    let alone: Vec<AloneProfile> = benches
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            AloneProfile::record(
                b,
                1 << 20,
                SALT + (i % 8) as u64,
                scale.settle_work + 4 * scale.fitness_work + 50_000,
                scale.cap * 4,
            )
        })
        .collect();

    // Even share of the channels' service capacity (~1 line / 15 cycles
    // per channel), as burst-capable bin-0 credits plus bulk.
    let share_rpc = (channels as f64 / 15.0) * 0.8 / cores as f64;
    let total = ((share_rpc * REPLENISH_PERIOD as f64) as u32).max(4);
    let mut credits = vec![0u32; 10];
    credits[0] = total / 2;
    credits[9] = total - total / 2;
    let share_cfg =
        BinConfig::new(BinSpec::paper_default(), credits, REPLENISH_PERIOD).expect("valid");

    let run = |shaped: bool| -> (f64, f64) {
        let mut cfg = shared_config(cores, 1 << 20);
        cfg.mc.channels = channels;
        let mut b = SystemBuilder::new(cfg).engine(engine_from_env());
        for ch in 0..channels {
            b = b.channel_scheduler(ch, make_baseline("FR-FCFS", cores).expect("known"));
        }
        for (i, &bench) in benches.iter().enumerate() {
            b = b.trace(
                i,
                Box::new(bench.profile().trace(base_for(i), seed_for(SALT, i))),
            );
            if shaped {
                b = b.shaper(i, Rc::new(RefCell::new(MittsShaper::new(share_cfg.clone()))));
            }
        }
        let mut sys = b.build();
        sys.run_cycles(scale.warmup);
        let m =
            measure_work(&mut sys, scale.settle_work, scale.fitness_work, scale.fitness_cap);
        let sd = slowdowns_vs_alone(&m, &alone);
        (s_avg(&sd), s_max(&sd))
    };

    ScalingPoint { cores, channels, unshaped: run(false), mitts: run(true) }
}

/// The scaling table.
pub fn run(scale: &Scale) -> Table {
    let mut table = Table::new(
        "§III-A scaling — unshaped FR-FCFS vs even-share MITTS, 4 to 25 cores",
        &["cores", "channels", "unshaped S_avg/S_max", "MITTS S_avg/S_max"],
    );
    for &cores in &CORE_COUNTS {
        let p = measure_point(cores, scale);
        table.row(vec![
            p.cores.to_string(),
            p.channels.to_string(),
            format!("{}/{}", f3(p.unshaped.0), f3(p.unshaped.1)),
            format!("{}/{}", f3(p.mitts.0), f3(p.mitts.1)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_point_runs_at_the_tapeout_core_count() {
        // Smoke check at a reduced count to stay fast; 25-core runs are
        // exercised by `run_all scaling`.
        let p = measure_point(8, &Scale::smoke());
        assert_eq!(p.channels, 1);
        assert!(p.unshaped.0.is_finite() && p.unshaped.0 >= 1.0);
        assert!(p.mitts.0.is_finite());
    }

    #[test]
    fn program_ring_cycles() {
        assert_eq!(program_for(0), program_for(8));
        assert_ne!(program_for(0), program_for(1));
    }
}
