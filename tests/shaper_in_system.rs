//! Integration tests: the MITTS shaper embedded in the full simulated
//! system (crates `mitts-core` + `mitts-sim` + `mitts-workloads`).

use std::cell::RefCell;
use std::rc::Rc;

use mitts::core::{BinConfig, BinSpec, CreditPolicy, FeedbackMethod, MittsShaper};
use mitts::sim::audit::{FaultKind, FaultPlan};
use mitts::sim::config::SystemConfig;
use mitts::sim::obs::{RingSink, StallReason, TraceEvent};
use mitts::sim::shaper::SourceShaper;
use mitts::sim::system::{Engine, System, SystemBuilder};
use mitts::sim::types::{CoreId, Cycle};
use mitts::workloads::Benchmark;

fn shaped_system(bench: Benchmark, config: BinConfig) -> (System, Rc<RefCell<MittsShaper>>) {
    let shaper = Rc::new(RefCell::new(MittsShaper::new(config)));
    let sys = SystemBuilder::new(SystemConfig::single_program())
        .trace(0, Box::new(bench.profile().trace(0, 1234)))
        .shaper(0, shaper.clone())
        .build();
    (sys, shaper)
}

fn config(credits: Vec<u32>, period: u64) -> BinConfig {
    BinConfig::new(BinSpec::paper_default(), credits, period).expect("valid config")
}

#[test]
fn average_bandwidth_cap_is_enforced_end_to_end() {
    // 50 credits per 10k cycles; mcf wants far more. Delivered LLC
    // traffic (grants net of refunds) must respect the cap.
    let mut credits = vec![0u32; 10];
    credits[0] = 25;
    credits[9] = 25;
    let (mut sys, shaper) = shaped_system(Benchmark::Mcf, config(credits, 10_000));
    sys.run_cycles(300_000);
    let c = shaper.borrow().counters();
    let net_grants = c.grants - c.refunds;
    let periods = 300_000 / 10_000;
    let per_period = net_grants as f64 / periods as f64;
    assert!(
        per_period <= 51.0,
        "delivered {per_period:.1} requests/period against a 50-credit budget"
    );
    // And the demand really exceeded the budget (the cap was binding).
    assert!(sys.core_stats(0).shaper_stall_cycles > 0, "mcf should have been throttled");
}

#[test]
fn unlimited_config_shapes_nothing() {
    let (mut sys, _) = shaped_system(
        Benchmark::Gcc,
        BinConfig::unlimited(BinSpec::paper_default(), 10_000),
    );
    sys.run_cycles(100_000);
    assert_eq!(sys.core_stats(0).shaper_stall_cycles, 0, "a maxed configuration must never deny");
    let free = {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(Benchmark::Gcc.profile().trace(0, 1234)))
            .build();
        sys.run_cycles(100_000);
        sys.core_stats(0).counters.instructions
    };
    let shaped = sys.core_stats(0).counters.instructions;
    let ratio = shaped as f64 / free as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "unlimited MITTS should match unshaped execution ({ratio})"
    );
}

#[test]
fn method1_is_more_aggressive_than_method2() {
    // Method 1 deducts only on confirmed LLC misses, so with in-flight
    // requests it can over-issue relative to method 2. Its grant count
    // must be >= method 2's for the same workload and budget.
    let run = |method: FeedbackMethod| {
        let mut credits = vec![0u32; 10];
        credits[0] = 10;
        let shaper = Rc::new(RefCell::new(
            MittsShaper::new(config(credits, 10_000)).with_method(method),
        ));
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(Benchmark::Libquantum.profile().trace(0, 77)))
            .shaper(0, shaper.clone())
            .build();
        sys.run_cycles(200_000);
        let grants = shaper.borrow().counters().grants;
        grants
    };
    let conservative = run(FeedbackMethod::DeductThenRefund);
    let aggressive = run(FeedbackMethod::DeductOnConfirm);
    assert!(
        aggressive >= conservative,
        "method 1 ({aggressive}) must grant at least as much as method 2 ({conservative})"
    );
}

#[test]
fn credit_policy_changes_spend_order_not_correctness() {
    for policy in [CreditPolicy::CheapestEligible, CreditPolicy::MostExpensiveEligible] {
        let mut credits = vec![0u32; 10];
        credits[0] = 20;
        credits[9] = 20;
        let shaper = Rc::new(RefCell::new(
            MittsShaper::new(config(credits, 10_000)).with_policy(policy),
        ));
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(Benchmark::Omnetpp.profile().trace(0, 55)))
            .shaper(0, shaper.clone())
            .build();
        sys.run_cycles(100_000);
        let c = shaper.borrow().counters();
        let net = c.grants - c.refunds;
        assert!(net as f64 / 10.0 <= 41.0, "{policy:?} exceeded budget: {net}");
        assert!(c.grants > 0, "{policy:?} must make progress");
    }
}

#[test]
fn shared_pool_serves_multiple_cores() {
    // Two cores share one shaper: the pool's combined grants respect the
    // single budget while both cores make progress.
    let mut credits = vec![0u32; 10];
    credits[0] = 60;
    credits[9] = 60;
    let shaper = Rc::new(RefCell::new(MittsShaper::new(config(credits, 10_000))));
    let mut b = SystemBuilder::new(SystemConfig::multi_program(2));
    for i in 0..2 {
        let handle: Rc<RefCell<dyn SourceShaper>> = shaper.clone();
        b = b
            .trace(
                i,
                Box::new(Benchmark::Mcf.profile().trace((i as u64) << 36, 10 + i as u64)),
            )
            .shaper(i, handle);
    }
    let mut sys = b.build();
    sys.run_cycles(200_000);
    for i in 0..2 {
        assert!(
            sys.core_stats(i).counters.instructions > 0,
            "core {i} must progress through the shared pool"
        );
    }
    let c = shaper.borrow().counters();
    let per_period = (c.grants - c.refunds) as f64 / 20.0;
    assert!(per_period <= 122.0, "shared pool over-issued: {per_period}/period");
}

#[test]
fn reconfiguration_takes_effect_in_flight() {
    let mut credits = vec![0u32; 10];
    credits[0] = 4;
    let (mut sys, shaper) = shaped_system(Benchmark::Libquantum, config(credits, 10_000));
    sys.run_cycles(100_000);
    let slow = sys.core_stats(0).counters.instructions;

    // Open the tap mid-run.
    let generous = BinConfig::unlimited(BinSpec::paper_default(), 10_000);
    shaper.borrow_mut().reconfigure(sys.now(), generous);
    let before = sys.core_stats(0).counters.instructions;
    sys.run_cycles(100_000);
    let fast = sys.core_stats(0).counters.instructions - before;
    assert!(
        fast > slow * 2,
        "opening the configuration must speed the program up ({slow} -> {fast})"
    );
}

/// Per-core stall cycles read off a lifecycle trace: every closed
/// shaper, throttle or fault episode contributes `at - since`, and an
/// episode still open at `now` contributes `now - begin`.
fn traced_stall_cycles(events: &[TraceEvent], cores: usize, now: Cycle) -> Vec<u64> {
    let counted = |r: StallReason| {
        matches!(r, StallReason::Shaper | StallReason::Throttle | StallReason::Fault)
    };
    let mut sums = vec![0; cores];
    let mut open = vec![None; cores];
    for ev in events {
        match *ev {
            TraceEvent::StallBegin { at, core, reason } if counted(reason) => {
                open[core] = Some(at);
            }
            TraceEvent::StallEnd { at, core, reason, since } if counted(reason) => {
                assert_eq!(open[core].take(), Some(since), "core {core}: unmatched episode end");
                sums[core] += at - since;
            }
            _ => {}
        }
    }
    for (sum, begin) in sums.iter_mut().zip(open) {
        *sum += begin.map_or(0, |b| now - b);
    }
    sums
}

/// Runs `sys` for `cycles` with its trace in `sink` and returns each
/// core's `(shaper_stall_cycles, traced stall cycles)`.
fn stall_counts(mut sys: System, sink: &Rc<RefCell<RingSink>>, cycles: Cycle) -> Vec<(u64, u64)> {
    sys.run_cycles(cycles);
    let ring = sink.borrow();
    assert_eq!(ring.dropped(), 0, "ring sink overflowed; grow the test capacity");
    let cores = sys.num_cores();
    let traced = traced_stall_cycles(&ring.to_vec(), cores, sys.now());
    (0..cores).map(|c| (sys.core_stats(c).shaper_stall_cycles, traced[c])).collect()
}

#[test]
fn shaper_stall_cycles_track_denies() {
    // Three ways the issue stage denies a head, one per core: core 0 is
    // MITTS-shaped, core 1 is held by a source throttle and core 2's
    // shaper is zeroed by an injected fault. Each core's count must
    // equal its trace's stall episodes exactly, under both engines.
    let run = |engine: Engine| {
        let mut credits = vec![0u32; 10];
        credits[9] = 8;
        let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
        let mut b = SystemBuilder::new(SystemConfig::multi_program(3))
            .engine(engine)
            .trace_sink(Box::new(Rc::clone(&sink)))
            .shaper(0, Rc::new(RefCell::new(MittsShaper::new(config(credits, 10_000)))));
        for (i, bench) in [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Omnetpp]
            .into_iter()
            .enumerate()
        {
            b = b.trace(i, Box::new(bench.profile().trace((i as u64) << 36, 7 + i as u64)));
        }
        let mut sys = b.build();
        sys.source_control_mut().throttle_mut(CoreId::new(1)).min_issue_gap = Some(120);
        sys.inject_faults(
            FaultPlan::new().with(FaultKind::ZeroShaperCredits { from: 40_000, core: 2 }),
        );
        stall_counts(sys, &sink, 100_000)
    };
    let naive = run(Engine::Naive);
    for (core, &(counted, traced)) in naive.iter().enumerate() {
        assert!(counted > 0, "core {core} must have stalled");
        assert_eq!(counted, traced, "core {core}: stall count differs from its trace");
    }
    assert_eq!(run(Engine::Skip), naive, "engines disagree on stall counts");
}

#[test]
fn shared_pool_sharers_report_their_own_stall_cycles() {
    // §IV-H: two cores draw on one MITTS credit pool. The pool is one
    // shaper, but each core's stall count is its own.
    let mut credits = vec![0u32; 10];
    credits[0] = 10;
    credits[9] = 10;
    let shaper = Rc::new(RefCell::new(MittsShaper::new(config(credits, 10_000))));
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    let mut b = SystemBuilder::new(SystemConfig::multi_program(2))
        .trace_sink(Box::new(Rc::clone(&sink)));
    for (i, bench) in [Benchmark::Mcf, Benchmark::Libquantum].into_iter().enumerate() {
        b = b
            .trace(i, Box::new(bench.profile().trace((i as u64) << 36, 3 + i as u64)))
            .shaper(i, shaper.clone());
    }
    let counts = stall_counts(b.build(), &sink, 100_000);
    for (core, &(counted, traced)) in counts.iter().enumerate() {
        assert!(counted > 0, "core {core} must have stalled on the shared pool");
        assert_eq!(counted, traced, "core {core} must report its own stall cycles");
    }
}
