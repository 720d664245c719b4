//! Cross-crate property tests: whole-system invariants under random
//! MITTS configurations and workloads. Case counts are kept small
//! because each case runs a full simulation.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use mitts::core::{BinConfig, BinSpec, MittsShaper};
use mitts::sim::config::SystemConfig;
use mitts::sim::system::SystemBuilder;
use mitts::workloads::Benchmark;

fn arb_bench() -> impl Strategy<Value = Benchmark> {
    proptest::sample::select(vec![
        Benchmark::Mcf,
        Benchmark::Libquantum,
        Benchmark::Gcc,
        Benchmark::Omnetpp,
        Benchmark::Apache,
    ])
}

fn arb_credits() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..100, 10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the configuration, the shaper's *net* grants per
    /// replenishment period never exceed its credit budget when run
    /// inside the full system.
    #[test]
    fn system_never_exceeds_shaper_budget(
        bench in arb_bench(),
        credits in arb_credits(),
        seed in 0u64..1000,
    ) {
        let total: u64 = credits.iter().map(|&c| c as u64).sum();
        let cfg = BinConfig::new(BinSpec::paper_default(), credits, 10_000).unwrap();
        let shaper = Rc::new(RefCell::new(MittsShaper::new(cfg)));
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(bench.profile().trace(0, seed)))
            .shaper(0, shaper.clone())
            .build();
        sys.run_cycles(100_000);
        let c = shaper.borrow().counters();
        let periods = 10u64; // 100k cycles / 10k period
        let net = c.grants.saturating_sub(c.refunds);
        prop_assert!(
            net <= total * periods + total,
            "net grants {net} exceed budget {} over {periods} periods",
            total
        );
    }

    /// Full-system determinism: identical builds produce identical
    /// instruction counts, miss counts, and shaper counters.
    #[test]
    fn system_is_deterministic(
        bench in arb_bench(),
        credits in arb_credits(),
        seed in 0u64..1000,
    ) {
        let run = || {
            let cfg =
                BinConfig::new(BinSpec::paper_default(), credits.clone(), 10_000).unwrap();
            let shaper = Rc::new(RefCell::new(MittsShaper::new(cfg)));
            let mut sys = SystemBuilder::new(SystemConfig::single_program())
                .trace(0, Box::new(bench.profile().trace(0, seed)))
                .shaper(0, shaper.clone())
                .build();
            sys.run_cycles(40_000);
            let s = sys.core_stats(0);
            let counters = shaper.borrow().counters();
            (s.counters.instructions, s.l1_misses, s.llc_misses, counters)
        };
        prop_assert_eq!(run(), run());
    }

    /// Accounting invariants hold for any run: hits+misses make sense,
    /// LLC responses partition into hits and misses, and the latency tail
    /// sits plausibly against the mean.
    #[test]
    fn accounting_invariants(bench in arb_bench(), seed in 0u64..1000) {
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(bench.profile().trace(0, seed)))
            .build();
        sys.run_cycles(60_000);
        let s = sys.core_stats(0);
        prop_assert!(s.llc_hits + s.llc_misses <= s.l1_misses,
            "LLC responses cannot exceed shaped L1 misses");
        if s.mem_latency.count() > 0 {
            let p99 = s.mem_latency.percentile_pct(99.0);
            let mean = s.mem_latency.mean();
            prop_assert!(p99 * 2.0 + 2.0 >= mean,
                "p99 {p99} is implausibly below the mean {mean}");
        }
        // A throttle-free run should retire instructions.
        prop_assert!(s.counters.instructions > 0);
    }
}
