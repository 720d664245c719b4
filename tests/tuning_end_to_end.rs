//! Integration tests: the GA tuners optimising MITTS configurations on
//! the full simulated system (crates `mitts-tuner` + `mitts-core` +
//! `mitts-sim` + `mitts-workloads`).

use std::cell::RefCell;
use std::rc::Rc;

use mitts::core::{BinConfig, BinSpec, MittsShaper};
use mitts::sched::FrFcfs;
use mitts::sim::config::SystemConfig;
use mitts::sim::system::SystemBuilder;
use mitts::tuner::{Constraint, GaParams, Genome, GeneticTuner, Objective, OnlineParams, OnlineTuner};
use mitts::workloads::Benchmark;

/// Fixed-work IPC of `bench` under `config` (deterministic).
fn shaped_ipc(bench: Benchmark, config: &BinConfig) -> f64 {
    let shaper = Rc::new(RefCell::new(MittsShaper::new(config.clone())));
    let mut sys = SystemBuilder::new(SystemConfig::single_program())
        .trace(0, Box::new(bench.profile().trace(0, 321)))
        .shaper(0, shaper)
        .build();
    sys.run_cycles(10_000);
    let start = sys.core_snapshot(0).instructions;
    let t0 = sys.now();
    let target = start + 15_000;
    while sys.core_snapshot(0).instructions < target && sys.now() < t0 + 2_000_000 {
        sys.run_cycles(500);
    }
    15_000.0 / (sys.now() - t0) as f64
}

#[test]
fn offline_ga_improves_over_random_seeding_generations() {
    let mut ga = GeneticTuner::new(
        BinSpec::paper_default(),
        10_000,
        1,
        GaParams { population: 6, generations: 4, ..GaParams::default() },
    )
    .with_constraint(Constraint { target_interval: None, target_rpc: Some(0.008) });
    let result = ga.optimize(|g: &Genome| shaped_ipc(Benchmark::Omnetpp, &g.to_configs()[0]));
    assert!(result.best_fitness > 0.0);
    // Elitist history is monotone; the whole run is a real end-to-end
    // optimisation over simulated fitness.
    for w in result.history.windows(2) {
        assert!(w[1] >= w[0]);
    }
    // The §IV-C constraint survived optimisation.
    let cfg = &result.best.to_configs()[0];
    assert!((cfg.requests_per_cycle() - 0.008).abs() < 0.0005);
}

#[test]
fn online_tuner_runs_a_full_config_phase_on_a_live_multiprogram_system() {
    let benches = [Benchmark::Omnetpp, Benchmark::Gcc];
    let mut b = SystemBuilder::new(SystemConfig::multi_program(2))
        .scheduler(Box::new(FrFcfs::new()));
    let mut shapers = Vec::new();
    for (i, &bench) in benches.iter().enumerate() {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(BinConfig::unlimited(
            BinSpec::paper_default(),
            10_000,
        ))));
        shapers.push(Rc::clone(&shaper));
        b = b
            .trace(i, Box::new(bench.profile().trace((i as u64) << 36, 500 + i as u64)))
            .shaper(i, shaper);
    }
    let mut sys = b.build();
    sys.run_cycles(20_000);

    let params = OnlineParams { epoch: 4_000, population: 4, generations: 3, ..OnlineParams::default() };
    let mut tuner = OnlineTuner::new(shapers.clone(), params);
    let result = tuner.config_phase(&mut sys, Objective::Throughput);

    // The winner is installed on the live shapers.
    for (shaper, cfg) in shapers.iter().zip(result.best.to_configs()) {
        assert_eq!(shaper.borrow().config().credits(), cfg.credits());
    }
    // Overhead was charged (20 generations x 5000 cycles in the paper;
    // 3 x 5000 here).
    assert!(sys.core_stats(0).counters.frozen_cycles >= 3 * 5_000);
    // The system keeps running fine afterwards.
    let before = sys.core_stats(0).counters.instructions;
    sys.run_cycles(50_000);
    assert!(sys.core_stats(0).counters.instructions > before);
}

/// The online tuner reconfigures the live shapers many times mid-run (each
/// candidate, then the winner); the auditor restarts each shaper's oracle
/// at every reinstall, so the whole run checks clean.
#[test]
fn online_tuning_reconfigures_mid_run_and_audits_clean() {
    let mut b = SystemBuilder::new(SystemConfig::multi_program(2)).scheduler(Box::new(FrFcfs::new()));
    let mut shapers = Vec::new();
    for (i, bench) in [Benchmark::Mcf, Benchmark::Libquantum].iter().enumerate() {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(BinConfig::single_bin(
            BinSpec::paper_default(),
            100,
            10_000,
        ))));
        shapers.push(Rc::clone(&shaper));
        b = b
            .trace(i, Box::new(bench.profile().trace((i as u64) << 36, 70 + i as u64)))
            .shaper(i, shaper);
    }
    let mut sys = b.build();
    sys.run_cycles(7_777);
    let params = OnlineParams { epoch: 3_000, population: 4, generations: 2, ..OnlineParams::default() };
    let constraint = Constraint { target_interval: None, target_rpc: Some(0.01) };
    let mut tuner = OnlineTuner::new(shapers.clone(), params).with_constraint(constraint);
    tuner.config_phase(&mut sys, Objective::Throughput);
    // A same-configuration reinstall off any replenish boundary also
    // restarts the oracle's replenish phase.
    let now = sys.now();
    for shaper in &shapers {
        let cfg = shaper.borrow().config().clone();
        shaper.borrow_mut().reconfigure(now, cfg);
    }
    sys.run_cycles(30_000);
    assert!(sys.audit_log().is_empty(), "{:#?}", sys.audit_log());
    assert!(sys.auditor().shaper_checked(0) && sys.auditor().shaper_checked(1));
    let coverage = sys.auditor().shaper_coverage();
    assert!(coverage.bin_grants > 0 && coverage.denied_cycles > 0, "{coverage:?}");
}

#[test]
fn constrained_online_search_stays_on_the_surface() {
    let constraint = Constraint { target_interval: None, target_rpc: Some(0.01) };
    let shaper = Rc::new(RefCell::new(MittsShaper::new(BinConfig::single_bin(
        BinSpec::paper_default(),
        100,
        10_000,
    ))));
    let mut sys = SystemBuilder::new(SystemConfig::single_program())
        .trace(0, Box::new(Benchmark::Mcf.profile().trace(0, 9)))
        .shaper(0, shaper.clone())
        .build();
    sys.run_cycles(10_000);
    let params = OnlineParams { epoch: 3_000, population: 4, generations: 2, ..OnlineParams::default() };
    let mut tuner = OnlineTuner::new(vec![shaper], params).with_constraint(constraint);
    let result = tuner.config_phase(&mut sys, Objective::Performance);
    let cfg = &result.best.to_configs()[0];
    assert!(
        (cfg.requests_per_cycle() - 0.01).abs() < 0.001,
        "online winner must satisfy the bandwidth constraint: {}",
        cfg.requests_per_cycle()
    );
}

#[test]
fn hillclimber_works_on_the_same_simulated_fitness() {
    use mitts::tuner::HillClimber;
    let fitness = |g: &Genome| shaped_ipc(Benchmark::Bzip, &g.to_configs()[0]);
    // Two bounded rounds keep the test fast; the point is end-to-end
    // integration of the climber with simulated fitness.
    let mut hc = HillClimber::new(BinSpec::paper_default(), 10_000, 1)
        .with_seed(3)
        .with_rounds(2);
    let result = hc.optimize(fitness);
    assert!(result.best_fitness > 0.0);
    assert!(result.evaluations > 1);
}
