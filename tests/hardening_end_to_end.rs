//! Cross-crate hardening checks: the invariant auditor must stay silent
//! on healthy runs of every bundled workload with the real MITTS shaper
//! installed (its shaper oracle checking every grant and stall episode),
//! must catch a shaper that misstates its bin spec without any trace
//! sink, and the watchdog's starvation diagnostic must fire on a
//! legitimately starved (zero-credit) core without flagging the shaper
//! itself as buggy.

use std::cell::RefCell;
use std::rc::Rc;

use mitts::core::{BinConfig, BinSpec, MittsShaper};
use mitts::sim::audit::Invariant;
use mitts::sim::config::SystemConfig;
use mitts::sim::oracle::MittsSpec;
use mitts::sim::shaper::{ShapeDecision, ShapeToken, ShaperContract, SourceShaper};
use mitts::sim::system::{System, SystemBuilder};
use mitts::sim::types::Cycle;
use mitts::workloads::Benchmark;

fn mitts_shaper(credits_per_bin: u32) -> Rc<RefCell<MittsShaper>> {
    let config =
        BinConfig::new(BinSpec::paper_default(), vec![credits_per_bin; 10], 10_000)
            .expect("valid config");
    Rc::new(RefCell::new(MittsShaper::new(config)))
}

fn assert_clean(sys: &System, label: &str) {
    assert!(
        sys.audit_log().is_empty(),
        "{label}: clean run must have zero violations, got: {:#?}",
        sys.audit_log()
    );
    assert_eq!(sys.auditor().dropped_violations(), 0, "{label}");
    assert!(sys.stall_report().is_none(), "{label}");
}

/// Asserts every core's shaper is checked and the bin-spec oracle saw
/// both grants and denied cycles.
fn assert_spec_checked(sys: &System, label: &str) {
    for core in 0..sys.num_cores() {
        assert!(sys.auditor().shaper_checked(core), "{label}: core {core} unchecked");
    }
    let coverage = sys.auditor().shaper_coverage();
    assert!(coverage.bin_grants > 0 && coverage.denied_cycles > 0, "{label}: {coverage:?}");
}

#[test]
fn every_bundled_workload_runs_clean_under_audit() {
    for bench in Benchmark::ALL {
        let mut sys = SystemBuilder::new(SystemConfig::multi_program(1))
            .trace(0, Box::new(bench.profile().trace(0, 42)))
            .shaper(0, mitts_shaper(100))
            .build();
        sys.run_cycles(150_000);
        assert_clean(&sys, bench.name());
        assert!(sys.auditor().passes() > 0, "{}: audit must have run", bench.name());
    }
}

#[test]
fn shared_mitts_run_is_clean_under_audit() {
    let benches = [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Gcc, Benchmark::Omnetpp];
    let mut b = SystemBuilder::new(SystemConfig::multi_program(4));
    for (i, bench) in benches.iter().enumerate() {
        b = b
            .trace(i, Box::new(bench.profile().trace((i as u64) << 36, 7 + i as u64)))
            .shaper(i, mitts_shaper(50));
    }
    let mut sys = b.build();
    sys.run_cycles(300_000);
    assert_clean(&sys, "4-core shared MITTS run");
    assert!((0..4).all(|core| sys.auditor().shaper_checked(core)));
}

/// A §IV-H shared credit pool: three cores draw on one MITTS shaper, so
/// one oracle checks the pool's grants in issue order and every sharer's
/// stall episodes against the same credits.
#[test]
fn three_core_shared_pool_audits_clean() {
    let pool = mitts_shaper(3);
    let benches = [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Omnetpp];
    let mut b = SystemBuilder::new(SystemConfig::multi_program(3));
    for (i, bench) in benches.iter().enumerate() {
        b = b
            .trace(i, Box::new(bench.profile().trace((i as u64) << 36, 11 + i as u64)))
            .shaper(i, pool.clone());
    }
    let mut sys = b.build();
    sys.run_cycles(300_000);
    assert_clean(&sys, "3-core shared pool");
    assert_spec_checked(&sys, "3-core shared pool");
}

/// A MITTS shaper that states a bent copy of its bin spec: the shaper
/// behaves correctly, so its grants and stalls break the stated spec.
struct Misstating {
    inner: MittsShaper,
    stated: MittsSpec,
}

impl SourceShaper for Misstating {
    fn name(&self) -> &str {
        "misstating MITTS"
    }

    fn tick(&mut self, now: Cycle) {
        self.inner.tick(now);
    }

    fn try_issue(&mut self, now: Cycle) -> ShapeDecision {
        self.inner.try_issue(now)
    }

    fn on_llc_response(&mut self, now: Cycle, token: ShapeToken, hit: bool) {
        self.inner.on_llc_response(now, token, hit);
    }

    fn next_grant_event(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_grant_event(now)
    }

    fn contract(&self) -> Option<ShaperContract> {
        Some(ShaperContract::Bins(self.stated.clone()))
    }
}

#[test]
fn a_misstating_mitts_shaper_is_caught_without_a_trace_sink() {
    let inner = MittsShaper::new(
        BinConfig::new(BinSpec::paper_default(), vec![2, 2, 1, 1, 1, 1, 1, 1, 1, 4], 2_000)
            .expect("valid config"),
    );
    let Some(ShaperContract::Bins(spec)) = inner.contract() else { unreachable!() };
    let stated = MittsSpec { period: spec.period * 2, ..spec };
    let mut sys = SystemBuilder::new(SystemConfig::multi_program(1))
        .trace(0, Box::new(Benchmark::Libquantum.profile().trace(0, 5)))
        .shaper(0, Rc::new(RefCell::new(Misstating { inner, stated })))
        .build();
    sys.run_cycles(50_000);
    let v = sys
        .audit_log()
        .iter()
        .find(|v| v.invariant == Invariant::ShaperBins)
        .expect("a shaper replenishing twice as often as it states must be caught");
    assert_eq!(v.core, Some(0), "{v}");
}

#[test]
fn zero_credit_shaper_is_reported_as_starvation_not_as_a_bug() {
    let mut cfg = SystemConfig::multi_program(2);
    // Tighten the starvation horizon so the diagnostic fires in-test.
    cfg.hardening.watchdog.core_starve_cycles = 20_000;
    let mut b = SystemBuilder::new(cfg);
    for (i, bench) in [Benchmark::Mcf, Benchmark::Gcc].iter().enumerate() {
        b = b.trace(i, Box::new(bench.profile().trace((i as u64) << 36, 9)));
    }
    let mut sys = b.shaper(0, mitts_shaper(0)).shaper(1, mitts_shaper(100)).build();
    sys.run_cycles(100_000);
    // Core 0 is legitimately starved: the watchdog must say so...
    assert!(
        sys.audit_log()
            .iter()
            .any(|v| v.invariant == Invariant::ForwardProgress && v.core == Some(0)),
        "starved core must be diagnosed: {:#?}",
        sys.audit_log()
    );
    // ...without blaming the (correctly behaving) shaper or system.
    assert!(
        sys.audit_log().iter().all(|v| v.invariant == Invariant::ForwardProgress),
        "only starvation diagnostics expected: {:#?}",
        sys.audit_log()
    );
    assert!(sys.stall_report().is_none(), "core 1 keeps the system live");
}
