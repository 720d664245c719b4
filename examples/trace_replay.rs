//! Trace-driven operation: record, save, reload, and replay a trace.
//!
//! The paper's SDSim supports both execution-driven and trace-driven
//! simulation. This example records 20 000 operations of the synthetic
//! `omnetpp`, writes them to a trace file, reloads it, and replays it
//! against two different MITTS configurations — identical input, so any
//! difference is purely the shaper's doing.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::rc::Rc;

use mitts::core::{BinConfig, BinSpec, MittsShaper};
use mitts::sim::config::SystemConfig;
use mitts::sim::system::SystemBuilder;
use mitts::sim::trace::TraceSource;
use mitts::sim::trace_io::{read_trace, write_trace, RecordingTrace, VecTrace};
use mitts::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Record.
    let mut recorder =
        RecordingTrace::new(Box::new(Benchmark::Omnetpp.profile().trace(0, 2024)));
    let ops: Vec<_> = (0..20_000).map(|_| recorder.next_op()).collect();
    let path = std::env::temp_dir().join("mitts_omnetpp.trace");
    write_trace(BufWriter::new(File::create(&path)?), &ops)?;
    println!("recorded {} ops to {}", ops.len(), path.display());

    // 2. Reload.
    let reloaded = read_trace(BufReader::new(File::open(&path)?))?;
    assert_eq!(reloaded, ops, "the trace file round-trips exactly");

    // 3. Replay under two configurations.
    let spec = BinSpec::paper_default();
    // ~80 % of omnetpp's demand: the budget binds mainly inside bursts,
    // which is where the distribution's shape matters.
    let configs = [
        ("200 bulk credits", {
            let mut c = vec![0u32; 10];
            c[9] = 200;
            BinConfig::new(spec, c, 10_000)?
        }),
        ("100 burst + 100 bulk", {
            let mut c = vec![0u32; 10];
            c[0] = 100;
            c[9] = 100;
            BinConfig::new(spec, c, 10_000)?
        }),
    ];
    println!("\nreplaying the same trace under two equal-bandwidth shapers:");
    for (name, cfg) in configs {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(cfg)));
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(VecTrace::new(reloaded.clone())))
            .shaper(0, shaper.clone())
            .build();
        sys.run_cycles(150_000);
        let stats = sys.core_stats(0);
        let counters = shaper.borrow().counters();
        println!(
            "  {:<22} IPC {:.3}  p50/p99 mem latency {:>5.0}/{:>6.0} cycles  \
             ({} grants, {} stall cycles)",
            name,
            stats.counters.ipc(),
            stats.mem_latency.percentile_pct(50.0),
            stats.mem_latency.percentile_pct(99.0),
            counters.grants,
            stats.shaper_stall_cycles,
        );
    }
    println!(
        "\nIdentical input stream; the burst-capable distribution serves the\n\
         same average bandwidth with different latency structure."
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
