//! Quickstart: shape one benchmark's memory traffic with MITTS.
//!
//! Builds the paper's single-program system (Table II), runs `mcf` with
//! and without a MITTS shaper, and prints what the shaper did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mitts::core::{BinConfig, BinSpec, MittsShaper};
use mitts::sim::config::SystemConfig;
use mitts::sim::system::SystemBuilder;
use mitts::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = Benchmark::Mcf;
    println!("MITTS quickstart — shaping {bench}\n");

    // 1. Unshaped reference run.
    let mut free = SystemBuilder::new(SystemConfig::single_program())
        .trace(0, Box::new(bench.profile().trace(0, 42)))
        .build();
    free.run_cycles(200_000);
    let free_stats = free.core_stats(0);
    println!(
        "unshaped:  IPC {:.3}, {} LLC misses, mean memory latency {:.0} cycles",
        free_stats.counters.ipc(),
        free_stats.llc_misses,
        free_stats.mem_latency.mean()
    );

    // 2. The same program behind a MITTS shaper: 20 burst credits
    //    (inter-arrival < 10 cycles) plus 45 bulk credits (inter-arrival
    //    >= 90 cycles) every 10 000 cycles — about 1 GB/s on average,
    //    burst-friendly in shape.
    let config = BinConfig::new(
        BinSpec::paper_default(),
        vec![20, 0, 0, 0, 0, 0, 0, 0, 0, 45],
        10_000,
    )?;
    println!(
        "\nshaper config: {:?} credits/bin, {:.2} GB/s average admitted bandwidth",
        config.credits(),
        config.gb_per_s(2.4e9)
    );
    let shaper = Rc::new(RefCell::new(MittsShaper::new(config)));
    let mut shaped = SystemBuilder::new(SystemConfig::single_program())
        .trace(0, Box::new(bench.profile().trace(0, 42)))
        .shaper(0, shaper.clone())
        .build();
    shaped.run_cycles(200_000);
    let shaped_stats = shaped.core_stats(0);

    let s = shaper.borrow();
    println!(
        "shaped:    IPC {:.3}, {} LLC misses, {} cycles stalled by the shaper",
        shaped_stats.counters.ipc(),
        shaped_stats.llc_misses,
        shaped_stats.shaper_stall_cycles
    );
    println!(
        "           {} grants / {} refunds (LLC hits), {} replenishments",
        s.counters().grants,
        s.counters().refunds,
        s.counters().replenishments
    );
    println!("           grants per bin (the emitted distribution): {:?}", s.grants_per_bin());

    println!(
        "\nThe shaper held {bench} to its credit budget: throughput dropped \
         {:.0}% in exchange for a hard bandwidth guarantee.",
        (1.0 - shaped_stats.counters.ipc() / free_stats.counters.ipc()) * 100.0
    );
    Ok(())
}
