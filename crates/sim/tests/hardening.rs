//! Integration tests for the hardening layer: every [`FaultKind`] class
//! injected into a default 4-core system must be detected by the
//! invariant auditor or the forward-progress watchdog within 10 000
//! cycles of injection, and uninjected runs must complete with zero
//! violations (no false positives).

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sched::make_baseline;
use mitts_sim::audit::{DramParam, FaultKind, FaultPlan, Invariant};
use mitts_sim::config::SystemConfig;
use mitts_sim::mc::{DramView, Scheduler, Transaction};
use mitts_sim::oracle::PickPolicy;
use mitts_sim::system::{System, SystemBuilder};
use mitts_sim::trace::{ComputeTrace, StrideTrace, TraceSource};
use mitts_sim::trace_io::{RecordingTrace, VecTrace};
use mitts_sim::types::{CoreId, Cycle};

/// Detection-latency budget from the acceptance criteria: a fault armed
/// at cycle `from` must produce a violation no later than `from + 10_000`.
const DETECT_BUDGET: Cycle = 10_000;

/// Default 4-core topology with audit forced on and thresholds tightened
/// so detection fits inside [`DETECT_BUDGET`] (the production defaults
/// are sized for multi-million-cycle experiment runs).
fn hardened_config() -> SystemConfig {
    let mut cfg = SystemConfig::multi_program(4);
    cfg.hardening.audit.enabled = true;
    cfg.hardening.audit.interval = 64;
    cfg.hardening.audit.max_grant_age = 2_000;
    cfg.hardening.audit.max_llc_mshr_age = 2_000;
    cfg.hardening.audit.max_mc_inflight_age = 2_000;
    cfg.hardening.watchdog.global_stall_cycles = 3_000;
    cfg.hardening.watchdog.core_starve_cycles = 2_000;
    cfg
}

/// Four streaming cores (every instruction is a memory access over a
/// large footprint) — misses flow continuously, so a wedged path shows
/// up fast.
fn streaming_system(cfg: SystemConfig) -> System {
    let mut b = SystemBuilder::new(cfg);
    for i in 0..4 {
        b = b.trace(i, Box::new(StrideTrace::new(2, 64, 16 << 20)));
    }
    b.build()
}

/// First violation matching `pred`, if any.
fn first_violation<'a>(
    sys: &'a System,
    pred: impl Fn(&mitts_sim::AuditViolation) -> bool + 'a,
) -> Option<&'a mitts_sim::AuditViolation> {
    sys.audit_log().iter().find(|v| pred(v))
}

#[test]
fn dropped_dram_responses_are_detected() {
    let from = 5_000;
    let mut sys = streaming_system(hardened_config());
    sys.inject_faults(FaultPlan::new().with(FaultKind::DropDramResponses { from, count: 8 }));
    sys.run_cycles(from + DETECT_BUDGET);
    let v = first_violation(&sys, |v| {
        matches!(v.invariant, Invariant::MshrLeak | Invariant::GrantAge)
    })
    .expect("a lost DRAM response must leak an MSHR or age a grant");
    assert!(
        v.cycle >= from && v.cycle <= from + DETECT_BUDGET,
        "detected at cycle {} for a fault armed at {from}",
        v.cycle
    );
}

#[test]
fn delayed_dram_responses_are_detected() {
    let from = 2_000;
    let mut sys = streaming_system(hardened_config());
    sys.inject_faults(
        FaultPlan::new().with(FaultKind::DelayDramResponses { from, delay: 50_000 }),
    );
    sys.run_cycles(from + DETECT_BUDGET);
    let v = first_violation(&sys, |v| {
        matches!(
            v.invariant,
            Invariant::MshrLeak | Invariant::GrantAge | Invariant::ForwardProgress
        )
    })
    .expect("a long response delay must age MSHRs/grants or trip the watchdog");
    assert!(
        v.cycle >= from && v.cycle <= from + DETECT_BUDGET,
        "detected at cycle {} for a fault armed at {from}",
        v.cycle
    );
}

#[test]
fn zeroed_shaper_credits_starve_the_core_visibly() {
    let from = 1_000;
    let mut sys = streaming_system(hardened_config());
    sys.inject_faults(FaultPlan::new().with(FaultKind::ZeroShaperCredits { from, core: 2 }));
    sys.run_cycles(from + DETECT_BUDGET);
    let v = first_violation(&sys, |v| {
        v.invariant == Invariant::ForwardProgress && v.core == Some(2)
    })
    .expect("a permanently denied core must be reported as starving");
    assert!(
        v.cycle >= from && v.cycle <= from + DETECT_BUDGET,
        "detected at cycle {} for a fault armed at {from}",
        v.cycle
    );
    // The other cores keep retiring, so this must NOT be a global stall.
    assert!(sys.stall_report().is_none(), "healthy cores must keep the system live");
}

#[test]
fn corrupted_shaper_credits_are_caught_by_the_shaper_oracle() {
    // Core 0 streams through a tight MITTS shaper that denies most of the
    // time; the fault reports each denial to the auditor as a grant.
    let from = 500;
    let credits = vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 4];
    let cfg = BinConfig::new(BinSpec::paper_default(), credits, 2_000).expect("valid");
    let mut b = SystemBuilder::new(hardened_config())
        .shaper(0, Rc::new(RefCell::new(MittsShaper::new(cfg))));
    for i in 0..4 {
        b = b.trace(i, Box::new(StrideTrace::new(2, 64, 16 << 20)));
    }
    let mut sys = b.build();
    sys.inject_faults(FaultPlan::new().with(FaultKind::CorruptShaperCredits { from, core: 0 }));
    sys.run_cycles(from + DETECT_BUDGET);
    let v = first_violation(&sys, |v| v.invariant == Invariant::ShaperBins && v.core == Some(0))
        .expect("a denial reported as a grant must break the bin/credit spec");
    assert!(
        v.cycle >= from && v.cycle <= from + DETECT_BUDGET,
        "detected at cycle {} for a fault armed at {from}",
        v.cycle
    );
    assert!(v.detail.contains("spec would deny"), "{v}");
}

#[test]
fn shaved_dram_timing_is_caught_as_a_ddr3_violation() {
    let from = 2_000;
    for (param, by) in [(DramParam::Trcd, 4), (DramParam::Tcl, 4), (DramParam::Burst, 2)] {
        let plan = FaultPlan::new().with(FaultKind::ShaveDramTiming { param, by });
        let mut sys = streaming_system(hardened_config());
        sys.run_cycles(from);
        sys.inject_faults(plan.clone());
        // The shaved model timing is part of the fault plan, so it
        // survives a snapshot into a freshly built twin.
        let snap = sys.snapshot().expect("snapshot");
        sys.run_cycles(DETECT_BUDGET);
        let v = first_violation(&sys, |v| v.invariant == Invariant::DramTiming)
            .unwrap_or_else(|| panic!("a DRAM model with {param:?} shaved must break DDR3"));
        assert!(
            v.cycle >= from && v.cycle <= from + DETECT_BUDGET,
            "{param:?}: detected at cycle {} for a fault injected at {from}",
            v.cycle
        );
        let mut b = SystemBuilder::new(hardened_config());
        for i in 0..4 {
            b = b.trace(i, Box::new(StrideTrace::new(2, 64, 16 << 20)));
        }
        let mut twin = b.resume_from(&snap).expect("resume");
        twin.run_cycles(DETECT_BUDGET);
        assert_eq!(
            first_violation(&twin, |v| v.invariant == Invariant::DramTiming).map(|v| v.cycle),
            Some(v.cycle),
            "{param:?}: the resumed twin must hit the same DDR3 violation"
        );
    }
}

#[test]
fn stalled_llc_ports_trip_the_global_watchdog() {
    let from = 3_000;
    let mut sys = streaming_system(hardened_config());
    sys.inject_faults(FaultPlan::new().with(FaultKind::StallLlcPorts { from }));
    let outcome = sys.run_until_instructions(u64::MAX / 2, from + DETECT_BUDGET);
    let report = outcome.stall_report().unwrap_or_else(|| {
        panic!("dead LLC ports must stall the whole system, got {outcome:?}")
    });
    assert!(
        report.detected_at >= from && report.detected_at <= from + DETECT_BUDGET,
        "detected at cycle {} for a fault armed at {from}",
        report.detected_at
    );
    // The report must carry enough state to diagnose the wedge.
    assert_eq!(report.cores.len(), 4);
    assert!(
        report.cores.iter().any(|c| c.miss_queue_depth + c.l1_mshr_occupancy > 0),
        "a wedged streaming run must show queued misses: {report}"
    );
    assert!(outcome.label().starts_with("stall@"), "label: {}", outcome.label());
    // The same report stays available on the system for post-mortems.
    assert!(sys.stall_report().is_some());
}

/// A scheduler that services the youngest startable transaction while
/// claiming FR-FCFS.
struct YoungestFirst;

impl Scheduler for YoungestFirst {
    fn name(&self) -> &str {
        "youngest-first"
    }

    fn pick(&mut self, _now: Cycle, pending: &[Transaction], view: &DramView<'_>) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, t)| view.can_start(t.addr))
            .max_by_key(|(_, t)| (t.enqueued_at, t.id))
            .map(|(i, _)| i)
    }

    fn conformance_policy(&self) -> Option<PickPolicy> {
        Some(PickPolicy::FrFcfs)
    }
}

#[test]
fn a_scheduler_breaking_its_claimed_order_is_caught_without_a_trace_sink() {
    // No trace sink: the auditor checks each pick where the controller
    // makes it.
    let mut b = SystemBuilder::new(hardened_config()).scheduler(Box::new(YoungestFirst));
    for i in 0..4 {
        b = b.trace(i, Box::new(StrideTrace::new(2, 64, 16 << 20)));
    }
    let mut sys = b.build();
    sys.run_cycles(DETECT_BUDGET);
    let v = first_violation(&sys, |v| v.invariant == Invariant::SchedulerPick)
        .expect("youngest-first picks must break the claimed FR-FCFS order");
    assert!(v.cycle <= DETECT_BUDGET, "detected at cycle {}", v.cycle);
    assert!(v.detail.starts_with("channel 0: fr-fcfs order"), "{v}");
    assert!(sys.auditor().picks_checked() > 0);
}

// ---------------------------------------------------------------------------
// No false positives
// ---------------------------------------------------------------------------

/// Production-default hardening (thresholds untouched) with audit forced
/// on, so these clean runs exercise the real shipping limits. Auditing
/// also replays every DRAM dispatch through the DDR3 oracle, so a clean
/// log means every dispatch was DDR3-legal.
fn default_audited_config() -> SystemConfig {
    let mut cfg = SystemConfig::multi_program(4);
    cfg.hardening.audit.enabled = true;
    cfg
}

fn assert_clean(sys: &System, label: &str) {
    assert!(
        sys.audit_log().is_empty(),
        "{label}: clean run must have zero violations, got: {:#?}",
        sys.audit_log()
    );
    assert_eq!(sys.auditor().dropped_violations(), 0, "{label}");
    assert!(sys.stall_report().is_none(), "{label}");
    assert!(sys.auditor().passes() > 0, "{label}: audit must actually have run");
}

#[test]
fn clean_streaming_run_produces_zero_violations() {
    let mut sys = streaming_system(default_audited_config());
    sys.run_cycles(300_000);
    assert_clean(&sys, "stride traces");
    for i in 0..4 {
        assert!(sys.core_snapshot(i).instructions > 0, "core {i} must make progress");
    }
}

#[test]
fn clean_compute_run_produces_zero_violations() {
    let mut b = SystemBuilder::new(default_audited_config());
    for i in 0..4 {
        b = b.trace(i, Box::new(ComputeTrace::new(3)));
    }
    let mut sys = b.build();
    // Compute-only traces never miss: the watchdog must not mistake an
    // idle memory system for a stall.
    sys.run_cycles(300_000);
    assert_clean(&sys, "compute traces");
}

#[test]
fn clean_replayed_run_produces_zero_violations() {
    let mut rec = RecordingTrace::new(Box::new(StrideTrace::new(4, 64, 1 << 20)));
    let ops: Vec<_> = (0..2_000).map(|_| rec.next_op()).collect();
    let mut b = SystemBuilder::new(default_audited_config());
    for i in 0..4 {
        b = b.trace(i, Box::new(VecTrace::new(ops.clone())));
    }
    let mut sys = b.build();
    sys.run_cycles(300_000);
    assert_clean(&sys, "replayed traces");
}

#[test]
fn clean_mixed_run_produces_zero_violations() {
    let mut sys = SystemBuilder::new(default_audited_config())
        .trace(0, Box::new(StrideTrace::new(2, 64, 16 << 20)))
        .trace(1, Box::new(ComputeTrace::new(1)))
        .trace(2, Box::new(StrideTrace::new(50, 64, 32 << 10)))
        .trace(3, Box::new(StrideTrace::new(10, 4096, 64 << 20)))
        .build();
    sys.run_cycles(300_000);
    assert_clean(&sys, "mixed traces");
}

#[test]
fn priority_override_run_audits_clean_and_checks_every_pick() {
    // Two channels, each with its own FR-FCFS scheduler and pick oracle;
    // core 1 holds the priority override for the middle of the run.
    let mut cfg = default_audited_config();
    cfg.mc.channels = 2;
    let mut b = SystemBuilder::new(cfg);
    for ch in 0..2 {
        b = b.channel_scheduler(ch, make_baseline("FR-FCFS", 4).expect("known scheduler"));
    }
    for i in 0..4 {
        b = b.trace(i, Box::new(StrideTrace::new(2 + i as u32, 64, 16 << 20)));
    }
    let mut sys = b.build();
    sys.run_cycles(20_000);
    sys.set_priority_core(Some(CoreId::new(1)));
    sys.run_cycles(100_000);
    sys.set_priority_core(None);
    sys.run_cycles(20_000);
    assert_clean(&sys, "priority override");
    let stats = sys.system_stats();
    assert!(stats.channels.iter().all(|c| c.dispatched > 0), "both channels dispatch");
    let dispatched: u64 = stats.channels.iter().map(|c| c.dispatched).sum();
    assert_eq!(sys.auditor().picks_checked(), dispatched, "every dispatching pick is checked");
}
