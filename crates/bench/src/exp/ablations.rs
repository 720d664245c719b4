//! Design-choice ablations for the tradeoffs §III-C/§III-D discuss:
//!
//! * **Feedback method** — method 1 (deduct on confirmed LLC miss,
//!   aggressive) vs method 2 (deduct-then-refund, the tape-out's choice);
//! * **Credit-spend policy** — cheapest-eligible vs most-expensive-
//!   eligible bin selection;
//! * **Replenishment period** — the same average bandwidth delivered in
//!   small frequent quanta vs large rare quanta (burst absorption vs
//!   period-tail starvation);
//! * **Global smoothing FIFO depth** — §III-C's burst absorber at the
//!   controller;
//! * **Congestion feedback** — the §III-C future-work extension
//!   ([`mitts_sched::CongestionGuard`]) on top of FR-FCFS.

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec, CreditPolicy, FeedbackMethod, MittsShaper};
use mitts_sched::{CongestionGuard, FrFcfs};
use mitts_sim::stats::{s_avg, s_max};
use mitts_sim::system::SystemBuilder;
use mitts_workloads::{Benchmark, WorkloadId};

use crate::runner::{
    alone_profiles, base_for, engine_from_env, measure_work, seed_for, shared_config,
    slowdowns_vs_alone, Scale, REPLENISH_PERIOD,
};
use crate::table::{f3, Table};

const SALT: u64 = 300;

/// A bursty-but-bounded configuration used by the shaper ablations:
/// 30 % burst credits, 70 % bulk, ~1.3 GB/s.
fn ablation_config(spec: BinSpec, period: u64) -> BinConfig {
    let total = (period / 50).max(10) as u32; // one request per ~50 cycles
    let mut credits = vec![0u32; spec.bins()];
    credits[0] = total * 3 / 10;
    credits[spec.bins() - 1] = total - credits[0];
    BinConfig::new(spec, credits, period).expect("valid ablation config")
}

/// Fixed-work IPC of `bench` under a customised shaper.
fn shaped_ipc<F>(bench: Benchmark, scale: &Scale, make: F) -> f64
where
    F: FnOnce() -> MittsShaper,
{
    let shaper = Rc::new(RefCell::new(make()));
    let mut sys = SystemBuilder::new(shared_config(1, 64 << 10))
        .trace(0, Box::new(bench.profile().trace(base_for(0), seed_for(SALT, 0))))
        .engine(engine_from_env())
        .build();
    sys.run_cycles(scale.warmup);
    sys.set_shaper(0, shaper);
    let m = measure_work(&mut sys, scale.settle_work, scale.fitness_work, scale.fitness_cap);
    m.ipcs()[0]
}

/// Feedback-method ablation across a few representative benchmarks.
pub fn feedback_methods(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Ablation — §III-D feedback method (fixed-work IPC at ~1.3 GB/s)",
        &["bench", "method2 (tape-out)", "method1 (aggressive)", "m1/m2"],
    );
    for bench in [Benchmark::Omnetpp, Benchmark::Mcf, Benchmark::Gcc] {
        let cfg = ablation_config(BinSpec::paper_default(), REPLENISH_PERIOD);
        let m2 = shaped_ipc(bench, scale, || {
            MittsShaper::new(cfg.clone()).with_method(FeedbackMethod::DeductThenRefund)
        });
        let m1 = shaped_ipc(bench, scale, || {
            MittsShaper::new(cfg.clone()).with_method(FeedbackMethod::DeductOnConfirm)
        });
        table.row(vec![
            bench.name().to_owned(),
            f3(m2),
            f3(m1),
            format!("{:.3}", m1 / m2),
        ]);
    }
    table
}

/// Credit-spend policy ablation.
pub fn credit_policies(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Ablation — credit-spend policy (fixed-work IPC at ~1.3 GB/s)",
        &["bench", "cheapest-eligible", "most-expensive", "cheap/expensive"],
    );
    for bench in [Benchmark::Omnetpp, Benchmark::Apache, Benchmark::Libquantum] {
        let cfg = ablation_config(BinSpec::paper_default(), REPLENISH_PERIOD);
        let cheap = shaped_ipc(bench, scale, || {
            MittsShaper::new(cfg.clone()).with_policy(CreditPolicy::CheapestEligible)
        });
        let expensive = shaped_ipc(bench, scale, || {
            MittsShaper::new(cfg.clone()).with_policy(CreditPolicy::MostExpensiveEligible)
        });
        table.row(vec![
            bench.name().to_owned(),
            f3(cheap),
            f3(expensive),
            format!("{:.3}", cheap / expensive),
        ]);
    }
    table
}

/// Replenishment-period sweep at constant average bandwidth.
pub fn replenish_periods(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Ablation — replenishment period T_r at constant average bandwidth (omnetpp)",
        &["T_r (cycles)", "credits/period", "fixed-work IPC"],
    );
    for period in [2_000u64, 5_000, 10_000, 20_000, 50_000] {
        let cfg = ablation_config(BinSpec::paper_default(), period);
        let total = cfg.total_credits();
        let ipc = shaped_ipc(Benchmark::Omnetpp, scale, || MittsShaper::new(cfg.clone()));
        table.row(vec![period.to_string(), total.to_string(), f3(ipc)]);
    }
    table
}

/// §III-C global-FIFO depth sweep on an eight-program workload with
/// bursty MITTS configurations on every core (the worst case the FIFO
/// exists for).
pub fn fifo_depths(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Ablation — §III-C global smoothing FIFO depth (workload 4, all cores bursty)",
        &["FIFO depth", "S_avg", "S_max"],
    );
    let benches = WorkloadId::new(4).programs();
    let alone = alone_profiles(&benches, 1 << 20, SALT, scale);
    for depth in [4usize, 8, 16, 32, 64] {
        let mut cfg = shared_config(benches.len(), 1 << 20);
        cfg.mc.global_fifo_depth = depth;
        let mut b =
            SystemBuilder::new(cfg).scheduler(Box::new(FrFcfs::new())).engine(engine_from_env());
        for (i, &bench) in benches.iter().enumerate() {
            b = b.trace(i, Box::new(bench.profile().trace(base_for(i), seed_for(SALT, i))));
            // Bursty shaper per core: half the budget in bin 0.
            let mut credits = vec![0u32; 10];
            credits[0] = 60;
            credits[9] = 60;
            let shaper_cfg = BinConfig::new(BinSpec::paper_default(), credits, REPLENISH_PERIOD)
                .expect("valid");
            b = b.shaper(i, Rc::new(RefCell::new(MittsShaper::new(shaper_cfg))));
        }
        let mut sys = b.build();
        sys.run_cycles(scale.warmup);
        let m = measure_work(&mut sys, scale.settle_work, scale.fitness_work, scale.fitness_cap);
        let sd = slowdowns_vs_alone(&m, &alone);
        table.row(vec![depth.to_string(), f3(s_avg(&sd)), f3(s_max(&sd))]);
    }
    table
}

/// Congestion-feedback extension: FR-FCFS vs FR-FCFS + CongestionGuard
/// on an oversubscribed workload.
pub fn congestion_feedback(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Extension — §III-C congestion feedback (workload 4, unshaped sources)",
        &["controller", "S_avg", "S_max", "mean MC queue"],
    );
    let benches = WorkloadId::new(4).programs();
    let alone = alone_profiles(&benches, 1 << 20, SALT, scale);
    for guard in [false, true] {
        let mut b =
            SystemBuilder::new(shared_config(benches.len(), 1 << 20)).engine(engine_from_env());
        b = if guard {
            b.scheduler(Box::new(CongestionGuard::with_defaults(FrFcfs::new())))
        } else {
            b.scheduler(Box::new(FrFcfs::new()))
        };
        for (i, &bench) in benches.iter().enumerate() {
            b = b.trace(i, Box::new(bench.profile().trace(base_for(i), seed_for(SALT, i))));
        }
        let mut sys = b.build();
        sys.run_cycles(scale.warmup);
        let m = measure_work(&mut sys, scale.settle_work, scale.fitness_work, scale.fitness_cap);
        let sd = slowdowns_vs_alone(&m, &alone);
        let channels = sys.system_stats().channels;
        let occupancy = channels
            .iter()
            .map(|c| {
                if c.ticks == 0 {
                    0.0
                } else {
                    c.queue_occupancy_sum as f64 / c.ticks as f64
                }
            })
            .sum::<f64>()
            / channels.len() as f64;
        table.row(vec![
            if guard { "FR-FCFS+CG" } else { "FR-FCFS" }.to_owned(),
            f3(s_avg(&sd)),
            f3(s_max(&sd)),
            format!("{occupancy:.1}"),
        ]);
    }
    table
}

/// Fig. 7 placement ablation: the same budget enforced (a) purely after
/// the L1 (every L1 miss charged, no feedback — inaccurate when the LLC
/// hits), (b) by the hybrid L1+LLC-feedback scheme (the tape-out), and
/// (c) directly after the LLC (exact, but per the paper infeasible in a
/// distributed LLC — our monolithic model can do it as the reference).
pub fn placements(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Ablation — Fig. 7 shaper placement (fixed-work IPC, 1 MB LLC)",
        &["bench", "after-L1 (pure)", "hybrid (tape-out)", "after-LLC (exact)"],
    );
    // Benchmarks with real LLC hit rates, where charging LLC hits hurts.
    for bench in [Benchmark::Gcc, Benchmark::Bzip, Benchmark::Omnetpp] {
        // Make the budget binding: 60 % of the benchmark's unshaped
        // L1-miss rate (measured), split burst/bulk.
        let cfg = {
            let mut sys = SystemBuilder::new(shared_config(1, 1 << 20))
                .trace(0, Box::new(bench.profile().trace(base_for(0), seed_for(SALT, 0))))
                .engine(engine_from_env())
                .build();
            sys.run_cycles(scale.warmup + 40_000);
            let snap = sys.core_snapshot(0);
            let rate = snap.l1_misses as f64 / sys.now() as f64;
            let total = ((rate * 0.6 * REPLENISH_PERIOD as f64) as u32).max(8);
            let mut credits = vec![0u32; 10];
            credits[0] = total * 3 / 10;
            credits[9] = total - credits[0];
            BinConfig::new(BinSpec::paper_default(), credits, REPLENISH_PERIOD)
                .expect("valid placement config")
        };
        let run = |placement: u8| -> f64 {
            let mut sys = SystemBuilder::new(shared_config(1, 1 << 20))
                .trace(0, Box::new(bench.profile().trace(base_for(0), seed_for(SALT, 0))))
                .engine(engine_from_env())
                .build();
            sys.run_cycles(scale.warmup);
            match placement {
                0 => {
                    let s =
                        MittsShaper::new(cfg.clone()).with_method(FeedbackMethod::PureL1);
                    sys.set_shaper(0, Rc::new(RefCell::new(s)));
                }
                1 => {
                    let s = MittsShaper::new(cfg.clone())
                        .with_method(FeedbackMethod::DeductThenRefund);
                    sys.set_shaper(0, Rc::new(RefCell::new(s)));
                }
                _ => {
                    let s = MittsShaper::new(cfg.clone());
                    sys.set_llc_shaper(0, Some(Rc::new(RefCell::new(s))));
                }
            }
            let m = measure_work(
                &mut sys,
                scale.settle_work,
                scale.fitness_work,
                scale.fitness_cap,
            );
            m.ipcs()[0]
        };
        table.row(vec![
            bench.name().to_owned(),
            f3(run(0)),
            f3(run(1)),
            f3(run(2)),
        ]);
    }
    table
}

/// All ablation tables.
pub fn run(scale: &Scale) -> Vec<Table> {
    vec![
        placements(scale),
        feedback_methods(scale),
        credit_policies(scale),
        replenish_periods(scale),
        fifo_depths(scale),
        congestion_feedback(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_placement_beats_pure_l1_where_llc_hits() {
        // gcc's warm set hits a 1 MB LLC; the pure-L1 placement charges
        // those hits against the budget, so the hybrid (which refunds
        // them) must perform at least as well.
        let t = placements(&Scale::smoke());
        let gcc = &t.rows()[0];
        let pure: f64 = gcc[1].parse().unwrap();
        let hybrid: f64 = gcc[2].parse().unwrap();
        assert!(
            hybrid >= pure * 0.98,
            "hybrid must not lose to pure-L1: {gcc:?}"
        );
    }

    #[test]
    fn after_llc_placement_is_at_least_as_accurate_as_pure_l1() {
        let t = placements(&Scale::smoke());
        for row in t.rows() {
            let pure: f64 = row[1].parse().unwrap();
            let exact: f64 = row[3].parse().unwrap();
            assert!(
                exact >= pure * 0.9,
                "exact placement should not be notably worse: {row:?}"
            );
        }
    }

    #[test]
    fn feedback_method_table_is_complete_and_sane() {
        let t = feedback_methods(&Scale::smoke());
        assert_eq!(t.rows().len(), 3);
        for row in t.rows() {
            let m1m2: f64 = row[3].parse().unwrap();
            assert!(
                m1m2 > 0.9,
                "aggressive method 1 should not underperform method 2 much: {row:?}"
            );
        }
    }

    #[test]
    fn replenish_sweep_covers_all_periods() {
        let t = replenish_periods(&Scale::smoke());
        assert_eq!(t.rows().len(), 5);
        // Same average bandwidth across rows (credits scale with T_r).
        let c0: f64 = t.rows()[0][1].parse().unwrap();
        let c4: f64 = t.rows()[4][1].parse().unwrap();
        assert!((c4 / c0 - 25.0).abs() < 1.0, "credits must scale with T_r");
    }

    #[test]
    fn fifo_sweep_runs_at_all_depths() {
        let t = fifo_depths(&Scale::smoke());
        assert_eq!(t.rows().len(), 5);
        for row in t.rows() {
            let s: f64 = row[1].parse().unwrap();
            assert!(s.is_finite() && s > 0.5, "{row:?}");
        }
    }

    #[test]
    fn fifo_depth_changes_smoothing_behaviour() {
        // §III-C regression: the depth knob must actually bound the
        // smoothing FIFO. With controller backpressure wired into the
        // issue stage, a depth-4 and a depth-64 FIFO absorb very
        // different bursts on the all-cores-bursty workload, so the
        // shallowest and deepest rows must not be byte-identical.
        let t = fifo_depths(&Scale::smoke());
        let rows = t.rows();
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);
        assert!(
            first[1..] != last[1..],
            "depth {} and depth {} produced identical smoothing results: {:?}",
            first[0],
            last[0],
            first
        );
    }

    #[test]
    fn congestion_guard_reduces_queue_pressure() {
        let t = congestion_feedback(&Scale::smoke());
        let base: f64 = t.rows()[0][3].parse().unwrap();
        let guarded: f64 = t.rows()[1][3].parse().unwrap();
        assert!(
            guarded <= base + 0.5,
            "the guard should not increase controller queueing ({base} -> {guarded})"
        );
    }
}
