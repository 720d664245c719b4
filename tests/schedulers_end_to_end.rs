//! Integration tests: baseline memory schedulers driving real workloads
//! through the full system.

use mitts::sched::{baseline_names, make_baseline};
use mitts::sim::config::{CacheConfig, SystemConfig};
use mitts::sim::system::{System, SystemBuilder};
use mitts::sim::CoreId;
use mitts::workloads::WorkloadId;

fn workload_system(workload: u8, scheduler: &str) -> System {
    let programs = WorkloadId::new(workload).programs();
    let mut cfg = SystemConfig::multi_program(programs.len());
    cfg.llc = CacheConfig::llc_with_size(1 << 20);
    let mut b = SystemBuilder::new(cfg)
        .scheduler(make_baseline(scheduler, programs.len()).expect("known"));
    for (i, p) in programs.iter().enumerate() {
        b = b.trace(i, Box::new(p.profile().trace((i as u64) << 36, 31 + i as u64)));
    }
    b.build()
}

#[test]
fn every_baseline_completes_a_real_workload() {
    for &name in baseline_names() {
        let mut sys = workload_system(1, name);
        sys.run_cycles(60_000);
        for i in 0..sys.num_cores() {
            let s = sys.core_stats(i);
            assert!(
                s.counters.instructions > 100,
                "{name}: core {i} stalled ({:?})",
                s.counters
            );
        }
        let bytes: u64 = sys.system_stats().channels.iter().map(|c| c.bytes).sum();
        assert!(bytes > 0, "{name}: no memory traffic reached DRAM");
    }
}

#[test]
fn frfcfs_outperforms_fcfs_on_row_locality() {
    // libquantum-heavy workload: row-hit-first scheduling should raise
    // DRAM row-hit rate and total throughput relative to blind FCFS.
    let run = |name: &str| {
        let mut sys = workload_system(1, name);
        sys.run_cycles(150_000);
        let (h, m, c) = sys.system_stats().channels.iter().fold((0, 0, 0), |(h, m, c), ch| {
            (h + ch.row_stats.0, m + ch.row_stats.1, c + ch.row_stats.2)
        });
        let hits = h as f64 / (h + m + c).max(1) as f64;
        let instr: u64 = (0..4).map(|i| sys.core_stats(i).counters.instructions).sum();
        (hits, instr)
    };
    let (fcfs_hits, fcfs_instr) = run("FCFS");
    let (fr_hits, fr_instr) = run("FR-FCFS");
    assert!(
        fr_hits > fcfs_hits,
        "FR-FCFS row-hit rate {fr_hits:.3} must beat FCFS {fcfs_hits:.3}"
    );
    assert!(
        fr_instr as f64 > fcfs_instr as f64 * 0.95,
        "row-hit-first must not lose throughput ({fr_instr} vs {fcfs_instr})"
    );
}

#[test]
fn priority_override_works_under_any_scheduler() {
    for &name in baseline_names() {
        let measure = |prio: bool| {
            let mut sys = workload_system(1, name);
            if prio {
                sys.set_priority_core(Some(CoreId::new(3))); // mcf
            }
            sys.run_cycles(80_000);
            sys.core_stats(3).counters.instructions
        };
        let base = measure(false);
        let boosted = measure(true);
        assert!(
            boosted as f64 >= base as f64 * 0.98,
            "{name}: priority must not hurt its owner ({base} -> {boosted})"
        );
    }
}

#[test]
fn schedulers_are_deterministic() {
    for &name in baseline_names() {
        let run = || {
            let mut sys = workload_system(2, name);
            sys.run_cycles(50_000);
            (0..4)
                .map(|i| sys.core_stats(i).counters.instructions)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "{name} must be deterministic");
    }
}

#[test]
fn fst_actually_throttles_someone_under_asymmetry() {
    // Workload 1 contains light (gcc) and heavy (libquantum/mcf)
    // programs; FST's unfairness trigger should fire and the heavy
    // programs should lose some throughput relative to FR-FCFS while a
    // light one gains or holds.
    let run = |name: &str| {
        let mut sys = workload_system(1, name);
        sys.run_cycles(200_000);
        (0..4)
            .map(|i| sys.core_stats(i).counters.instructions)
            .collect::<Vec<u64>>()
    };
    let frfcfs = run("FR-FCFS");
    let fst = run("FST");
    // Both complete; FST must not collapse the system.
    let total_fr: u64 = frfcfs.iter().sum();
    let total_fst: u64 = fst.iter().sum();
    assert!(
        total_fst as f64 > total_fr as f64 * 0.5,
        "FST throughput collapse: {total_fst} vs {total_fr}"
    );
}

#[test]
fn mixed_channel_policies_match_naive() {
    // Two channels with different source-throttling policies: the
    // congestion guard on channel 0 re-applies its issue gap on every
    // tick over whatever FST on channel 1 wrote, so the skip engine must
    // run each of those ticks, as the naive engine does.
    use mitts::sched::{CongestionGuard, FrFcfs, Fst};
    use mitts::sim::system::Engine;
    let run = |engine: Engine| {
        let programs = WorkloadId::new(1).programs();
        let mut cfg = SystemConfig::multi_program(programs.len());
        cfg.llc = CacheConfig::llc_with_size(1 << 20);
        cfg.mc.channels = 2;
        let mut b = SystemBuilder::new(cfg)
            .engine(engine)
            .channel_scheduler(0, Box::new(CongestionGuard::new(FrFcfs::new(), 2, 3_000)))
            .channel_scheduler(1, Box::new(Fst::new(programs.len())));
        for (i, p) in programs.iter().enumerate() {
            b = b.trace(i, Box::new(p.profile().trace((i as u64) << 36, 31 + i as u64)));
        }
        let mut sys = b.build();
        sys.run_cycles(400_000);
        sys.system_stats()
    };
    let naive = run(Engine::Naive);
    assert_eq!(naive, run(Engine::Skip), "mixed per-channel policies diverged");
    assert!(naive.cores.iter().all(|c| c.counters.instructions > 0));
}
