//! Multiprogram fairness: protect victims from a bandwidth hog.
//!
//! Runs Table III's workload 1 (gcc, libquantum, bzip, mcf) on a shared
//! 1 MB LLC and one DDR3 channel, first unshaped under FR-FCFS, then
//! with hand-written MITTS configurations that throttle the two memory
//! hogs. Prints per-program slowdowns and the S_avg/S_max metrics.
//!
//! ```sh
//! cargo run --release --example multiprogram_fairness
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use mitts::core::{BinConfig, BinSpec, MittsShaper};
use mitts::sched::FrFcfs;
use mitts::sim::config::{CacheConfig, SystemConfig};
use mitts::sim::stats::{s_avg, s_max};
use mitts::sim::system::{System, SystemBuilder};
use mitts::workloads::WorkloadId;

fn build(workload: WorkloadId, configs: Option<Vec<BinConfig>>) -> System {
    let programs = workload.programs();
    let mut cfg = SystemConfig::multi_program(programs.len());
    cfg.llc = CacheConfig::llc_with_size(1 << 20);
    let mut b = SystemBuilder::new(cfg).scheduler(Box::new(FrFcfs::new()));
    for (i, p) in programs.iter().enumerate() {
        b = b.trace(i, Box::new(p.profile().trace((i as u64) << 36, 7 + i as u64)));
        if let Some(ref cs) = configs {
            let shaper = Rc::new(RefCell::new(MittsShaper::new(cs[i].clone())));
            b = b.shaper(i, shaper);
        }
    }
    b.build()
}

/// Times each core over `work` instructions (after warmup), returning
/// per-core cycles.
fn time_work(sys: &mut System, work: u64) -> Vec<f64> {
    sys.run_cycles(20_000); // warmup
    let n = sys.num_cores();
    let start_instr: Vec<u64> = (0..n).map(|i| sys.core_snapshot(i).instructions).collect();
    let mut start = vec![None; n];
    let mut end = vec![None; n];
    while end.iter().any(Option::is_none) && sys.now() < 8_000_000 {
        sys.run_cycles(500);
        for i in 0..n {
            let instr = sys.core_snapshot(i).instructions;
            if start[i].is_none() && instr >= start_instr[i] + 2_000 {
                start[i] = Some(sys.now());
            }
            if end[i].is_none() && instr >= start_instr[i] + 2_000 + work {
                end[i] = Some(sys.now());
            }
        }
    }
    (0..n)
        .map(|i| match (start[i], end[i]) {
            (Some(s), Some(e)) => (e - s) as f64,
            _ => f64::INFINITY,
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadId::new(1);
    let programs = workload.programs();
    let work = 40_000u64;
    println!("Workload 1: {:?}\n", programs.iter().map(|p| p.name()).collect::<Vec<_>>());

    // Alone times (T_single) for the same work.
    let mut alone = Vec::new();
    for (i, &p) in programs.iter().enumerate() {
        let mut cfg = SystemConfig::multi_program(1);
        cfg.llc = CacheConfig::llc_with_size(1 << 20);
        let mut sys = SystemBuilder::new(cfg)
            .scheduler(Box::new(FrFcfs::new()))
            .trace(0, Box::new(p.profile().trace((i as u64) << 36, 7 + i as u64)))
            .build();
        alone.push(time_work(&mut sys, work)[0]);
    }

    // Shared, unshaped.
    let mut sys = build(workload, None);
    let shared_free = time_work(&mut sys, work);

    // Shared, with MITTS throttling the *least-slowed* program. In the
    // free run mcf coasts (S = 1.5) while the others pay 2-3x: fairness
    // wants mcf's excess bandwidth redistributed. Budgets are mostly
    // burst credits so the budget itself — not per-request aging delay —
    // is the binding constraint.
    let spec = BinSpec::paper_default();
    let generous = BinConfig::new(spec, vec![128, 32, 32, 32, 32, 32, 32, 32, 32, 128], 10_000)?;
    let tight = BinConfig::new(spec, vec![90, 0, 0, 0, 0, 0, 0, 0, 0, 30], 10_000)?;
    let configs = vec![generous.clone(), generous.clone(), generous, tight];
    let mut sys = build(workload, Some(configs));
    let shared_mitts = time_work(&mut sys, work);

    println!("{:<12} {:>12} {:>16} {:>14}", "program", "T_single", "slowdown (free)", "slowdown (MITTS)");
    let mut free_sd = Vec::new();
    let mut mitts_sd = Vec::new();
    for i in 0..programs.len() {
        let f = shared_free[i] / alone[i];
        let m = shared_mitts[i] / alone[i];
        free_sd.push(f);
        mitts_sd.push(m);
        println!("{:<12} {:>12.0} {:>16.2} {:>14.2}", programs[i].name(), alone[i], f, m);
    }
    println!(
        "\nS_avg: {:.2} -> {:.2}   S_max: {:.2} -> {:.2} (lower is better)",
        s_avg(&free_sd),
        s_avg(&mitts_sd),
        s_max(&free_sd),
        s_max(&mitts_sd)
    );
    println!(
        "Shaping the least-slowed program at the source redistributes its slack\n\
         to the programs that were paying for it — exactly the per-core lever\n\
         controller-side schedulers lack."
    );
    Ok(())
}
