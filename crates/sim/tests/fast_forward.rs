//! Naive vs skip-engine equivalence over the full bundled surface.
//!
//! The skip engine (`Engine::Skip`) in `System::advance` is only sound if
//! a skip over `[now, target)` is indistinguishable, counter for
//! counter, from executing that many no-op ticks. The unit tests in
//! `crates/sim/src/system.rs` prove this for hand-built stride traces;
//! this suite proves it for everything the repo actually ships:
//!
//! * every bundled benchmark trace (`Benchmark::ALL`, 16 workloads),
//! * every scheduler `mitts_sched::make_baseline` knows how to build,
//! * real `MittsShaper` instances (grant ledgers compared bin by bin),
//! * fault plans, including delayed DRAM responses — a held response
//!   must be released on its exact cycle, never skipped over;
//! * per-core sleep: every event that ends a sleeping core's or a
//!   sleeping shaper's wait (a reconfiguration or a freeze between
//!   calls, a refund to one sharer of a pool) and the empty-ROB port
//!   stall, the one idle shape that counts nothing but the cycle;
//! * component wake cycles: an LLC lookup requeued by a full LLC MSHR
//!   file, a resume with DRAM completions and LLC lookups in flight (the
//!   cached cycles are rebuilt, not restored), a restore into a system
//!   that ran on, and a source-control write between two calls that a
//!   scheduler hook must re-apply;
//! * the controller's dispatch fence: refreshes inside a fenced window,
//!   a priority core set between calls, frequent engine flips (naive
//!   ticks do not keep the fence);
//! * dormant cores: a denied core that finds the ports gone or the FIFO
//!   full, a refund reaching a dormant sharer, and sample rows and an
//!   epoch scheduler reading dormant cores' counters.
//!
//! Every comparison is on [`SystemStats`]: every core's full `CoreStats`
//! (counters plus the L1-miss and memory inter-arrival histograms and the
//! latency histogram) and every channel's counters, so a single divergent
//! counter or histogram bin anywhere in the machine fails the test.

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec, FeedbackMethod, MittsShaper};
use mitts_sched::{baseline_names, make_baseline, CongestionGuard, FrFcfs, Fst};
use mitts_sim::audit::{FaultKind, FaultPlan, RunOutcome};
use mitts_sim::config::{CacheConfig, SystemConfig};
use mitts_sim::obs::{RingSink, StallReason, TraceEvent};
use mitts_sim::stats::SystemStats;
use mitts_sim::system::{Engine, System, SystemBuilder};
use mitts_sim::trace::StrideTrace;
use mitts_sim::types::{CoreId, Cycle};
use mitts_workloads::Benchmark;

/// Disjoint address-space base for core `i`.
fn base_for(core: usize) -> u64 {
    (core as u64) << 36
}

/// A builder for `benches` with a small shared LLC (so the bundled
/// traces actually miss to DRAM) and the given scheduler.
fn system_builder(benches: &[Benchmark], scheduler: &str, engine: Engine) -> SystemBuilder {
    let mut cfg = SystemConfig::multi_program(benches.len());
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    let mut b = SystemBuilder::new(cfg)
        .scheduler(make_baseline(scheduler, benches.len()).expect("known scheduler"))
        .engine(engine);
    for (i, &bench) in benches.iter().enumerate() {
        b = b.trace(i, Box::new(bench.profile().trace(base_for(i), 0xF0 + i as u64)));
    }
    b
}

/// Builds one system from [`system_builder`].
fn build_system(benches: &[Benchmark], scheduler: &str, engine: Engine) -> System {
    system_builder(benches, scheduler, engine).build()
}

/// The system's complete checkpoint bytes: every core, the LLC, every
/// channel's controller, DRAM and scheduler, the auditor and observer.
fn snapshot_bytes(sys: &System) -> Vec<u8> {
    sys.snapshot().expect("checkpointable system").to_bytes()
}

/// Runs naive and skip twins for `cycles`, asserts identical stats, and
/// returns the skip engine's system.
fn assert_equivalent_run(benches: &[Benchmark], scheduler: &str, cycles: Cycle) -> System {
    let [naive, skip] = [Engine::Naive, Engine::Skip].map(|engine| {
        let mut sys = build_system(benches, scheduler, engine);
        sys.run_cycles(cycles);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        sys
    });
    assert_eq!(naive.skipped_cycles(), 0, "naive mode must never skip");
    assert_eq!(
        naive.system_stats(),
        skip.system_stats(),
        "stats diverged for {benches:?} under {scheduler}"
    );
    // The bytes include every channel scheduler's own state.
    assert!(
        snapshot_bytes(&naive) == snapshot_bytes(&skip),
        "snapshot bytes diverged for {benches:?} under {scheduler}"
    );
    skip
}

/// Samples the compared histograms hold, summed over cores: L1-miss
/// inter-arrival gaps, memory inter-arrival gaps and fill latencies. A
/// histogram comparison over empty histograms would show nothing.
fn histogram_samples(stats: &SystemStats) -> [u64; 3] {
    stats.cores.iter().fold([0; 3], |[l1, mem, lat], c| {
        [
            l1 + c.l1_miss_interarrival.total(),
            mem + c.mem_interarrival.total(),
            lat + c.mem_latency.count(),
        ]
    })
}

/// Every core's shaper state, as snapshot bytes.
fn shaper_bytes(sys: &System) -> Vec<Vec<u8>> {
    (0..sys.num_cores())
        .map(|c| {
            let mut enc = mitts_sim::snapshot::Enc::new();
            sys.shaper_handle(c).borrow().save_state(&mut enc);
            enc.into_bytes()
        })
        .collect()
}

/// Collapses a [`RunOutcome`] to a comparable key (`RunOutcome` is not
/// `PartialEq` because `StallReport` isn't).
fn outcome_key(o: &RunOutcome) -> (&'static str, Cycle, Vec<usize>) {
    match o {
        RunOutcome::Completed { cycles } => ("completed", *cycles, Vec::new()),
        RunOutcome::CycleLimit { cycles, lagging } => ("limit", *cycles, lagging.clone()),
        RunOutcome::Stalled(r) => ("stalled", r.detected_at, Vec::new()),
    }
}

#[test]
fn every_bundled_benchmark_matches_naive() {
    let mut total_skipped = 0;
    let mut samples = [0; 3];
    for &bench in &Benchmark::ALL {
        let sys = assert_equivalent_run(&[bench], "FR-FCFS", 20_000);
        total_skipped += sys.skipped_cycles();
        let run = histogram_samples(&sys.system_stats());
        samples = std::array::from_fn(|k| samples[k] + run[k]);
    }
    // The point of the skip engine: across the workload suite some runs
    // must actually have skipped (compute phases, shaper stalls, DRAM
    // latency bubbles).
    assert!(total_skipped > 0, "skip engine never engaged on any bundled workload");
    assert!(samples.iter().all(|&n| n > 0), "a compared histogram stayed empty: {samples:?}");
}

#[test]
fn every_scheduler_matches_naive() {
    // The 6 paper baselines plus the extra names make_baseline accepts.
    let mut names: Vec<&str> = baseline_names().to_vec();
    names.push("FCFS");
    names.push("FR-FCFS+CG");
    let benches = [Benchmark::Mcf, Benchmark::Libquantum];
    for name in names {
        assert_equivalent_run(&benches, name, 15_000);
    }
}

#[test]
fn multi_channel_systems_match_naive() {
    // Each miss and backlogged transaction carries the channel decoded
    // when it was created. The auditor's DDR3 oracle checks that
    // every dispatch reached the channel its address interleaves to. A
    // small queue and FIFO keep backpressure and backlog retries busy,
    // and three channels is a count that is not a power of two.
    let benches =
        [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Omnetpp, Benchmark::Bzip];
    for channels in [2, 3] {
        let build = |engine: Engine| {
            let mut cfg = SystemConfig::multi_program(benches.len());
            cfg.llc = CacheConfig::llc_with_size(256 << 10);
            cfg.mc.channels = channels;
            cfg.mc.txn_queue_depth = 4;
            cfg.mc.global_fifo_depth = 2;
            let mut b = SystemBuilder::new(cfg).engine(engine);
            for c in 0..channels {
                b = b.channel_scheduler(c, make_baseline("FR-FCFS", benches.len()).unwrap());
            }
            for (i, &bench) in benches.iter().enumerate() {
                b = b.trace(i, Box::new(bench.profile().trace(base_for(i), 0xF0 + i as u64)));
            }
            let mut sys = b.build();
            sys.run_cycles(25_000);
            let log = sys.audit_log();
            assert!(log.is_empty(), "{channels} channels, {engine:?}: {log:#?}");
            sys
        };
        let stats = build(Engine::Skip).system_stats();
        assert_eq!(build(Engine::Naive).system_stats(), stats, "{channels} channels diverged");
        for (c, ch) in stats.channels.iter().enumerate() {
            assert!(ch.dispatched > 0, "{channels} channels: channel {c} idle");
        }
        assert!(
            stats.channels.iter().any(|ch| ch.fifo_rejections > 0),
            "{channels} channels: no FIFO ever filled"
        );
    }
}

#[test]
fn mitts_shaper_grant_ledgers_match_naive() {
    // Sparse credits with a long replenishment period force real deny
    // phases, so the skip engine must replay denied cycles exactly.
    let make_cfg = || {
        let mut credits = vec![0u32; BinSpec::paper_default().bins()];
        credits[2] = 6;
        credits[6] = 4;
        credits[9] = 8;
        BinConfig::new(BinSpec::paper_default(), credits, 3_000).unwrap()
    };
    // Single core: the shaped hog's deny phases are then system-wide
    // quiescence, which the skip engine must skip and replay exactly.
    let build = |engine: Engine| {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(make_cfg())));
        let mut cfg = SystemConfig::multi_program(1);
        cfg.llc = CacheConfig::llc_with_size(256 << 10);
        let sys = SystemBuilder::new(cfg)
            .trace(0, Box::new(Benchmark::Libquantum.profile().trace(base_for(0), 11)))
            .shaper(0, Rc::clone(&shaper) as _)
            .engine(engine)
            .build();
        (sys, shaper)
    };
    let (mut naive, naive_shaper) = build(Engine::Naive);
    naive.run_cycles(30_000);
    let (mut sys, shaper) = build(Engine::Skip);
    sys.run_cycles(30_000);
    assert!(sys.skipped_cycles() > 0, "shaped run should have skippable deny spans");
    assert_eq!(naive.system_stats(), sys.system_stats(), "stats diverged");
    let samples = histogram_samples(&sys.system_stats());
    assert!(samples.iter().all(|&n| n > 0), "a compared histogram stayed empty: {samples:?}");
    // The ledger the tuner reads must be bit-identical too: per-bin
    // grants, live credits, and every counter.
    let (n, s) = (naive_shaper.borrow(), shaper.borrow());
    assert_eq!(n.grants_per_bin(), s.grants_per_bin(), "per-bin grant ledger diverged");
    assert_eq!(n.live_credits(), s.live_credits(), "live credits diverged");
    assert_eq!(n.counters(), s.counters(), "shaper counters diverged");
}

#[test]
fn shared_credit_pool_matches_naive() {
    // §IV-H shared pool: three cores hold one MITTS handle, so every
    // core's grants and denials act on the same credits. Each core's
    // stall count and the pool's full state must agree across engines.
    let make_cfg = || {
        let mut credits = vec![0u32; BinSpec::paper_default().bins()];
        credits[1] = 8;
        credits[9] = 12;
        BinConfig::new(BinSpec::paper_default(), credits, 3_000).unwrap()
    };
    let run = |engine: Engine| {
        let pool = Rc::new(RefCell::new(MittsShaper::new(make_cfg())));
        let benches = [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Omnetpp];
        let mut cfg = SystemConfig::multi_program(benches.len());
        cfg.llc = CacheConfig::llc_with_size(256 << 10);
        let mut b = SystemBuilder::new(cfg).engine(engine);
        for (i, bench) in benches.into_iter().enumerate() {
            b = b
                .trace(i, Box::new(bench.profile().trace(base_for(i), 0x51 + i as u64)))
                .shaper(i, Rc::clone(&pool) as _);
        }
        let mut sys = b.build();
        sys.run_cycles(30_000);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        sys
    };
    let (naive, skip) = (run(Engine::Naive), run(Engine::Skip));
    assert!(skip.skipped_cycles() > 0, "the shared pool should leave skippable spans");
    let stats = naive.system_stats();
    assert!(stats.cores.iter().all(|c| c.shaper_stall_cycles > 0), "every sharer must stall");
    assert_eq!(stats, skip.system_stats(), "stats diverged");
    assert_eq!(shaper_bytes(&naive), shaper_bytes(&skip), "pool state diverged");
}

#[test]
fn throttled_sources_match_naive() {
    use mitts_sim::types::CoreId;
    let run = |engine: Engine| {
        let mut sys = build_system(&[Benchmark::Mcf, Benchmark::Omnetpp], "TCM", engine);
        {
            let ctl = sys.source_control_mut();
            ctl.throttle_mut(CoreId::new(0)).min_issue_gap = Some(80);
            ctl.throttle_mut(CoreId::new(1)).max_inflight = Some(2);
        }
        sys.run_cycles(25_000);
        sys
    };
    let naive = run(Engine::Naive);
    assert!(naive.audit_log().is_empty());
    let sys = run(Engine::Skip);
    assert_eq!(naive.system_stats(), sys.system_stats(), "stats diverged");
    assert!(sys.audit_log().is_empty());
}

#[test]
fn fault_plans_match_naive() {
    // Two plans, per the hardening contract: delayed responses are
    // events the skip engine must honor exactly (a skip over a
    // release cycle would deliver the line late and shift every counter
    // after it), and drops + port stalls change issue outcomes mid-run.
    let plans: [FaultPlan; 2] = [
        FaultPlan::new().with(FaultKind::DelayDramResponses { from: 2_000, delay: 13 }),
        FaultPlan::new()
            .with(FaultKind::DropDramResponses { from: 3_000, count: 2 })
            .with(FaultKind::ZeroShaperCredits { from: 6_000, core: 0 }),
    ];
    for plan in plans {
        let run = |engine: Engine| {
            let mut sys =
                build_system(&[Benchmark::Libquantum, Benchmark::Bzip], "FR-FCFS", engine);
            sys.inject_faults(plan.clone());
            sys.run_cycles(20_000);
            sys
        };
        // Fault runs may log violations (that's what the auditor is
        // for) — but both engines must log identically many and count
        // identical passes, which system_stats covers.
        assert_eq!(
            run(Engine::Naive).system_stats(),
            run(Engine::Skip).system_stats(),
            "stats diverged under fault plan {plan:?}"
        );
    }
}

#[test]
fn run_until_instructions_outcomes_match_naive() {
    // Cover both reachable outcome variants: Completed (generous cap)
    // and CycleLimit with a lagging set (tight cap on a memory hog).
    let cases = [
        (Benchmark::Sjeng, 8_000u64, 200_000 as Cycle),
        (Benchmark::Mcf, 50_000, 6_000),
    ];
    for (bench, work, cap) in cases {
        let run = |engine: Engine| {
            let mut sys = build_system(&[bench, Benchmark::Gcc], "FairQueue", engine);
            let outcome = sys.run_until_instructions(work, cap);
            (outcome, sys)
        };
        let (naive_outcome, naive) = run(Engine::Naive);
        let (outcome, sys) = run(Engine::Skip);
        assert_eq!(
            outcome_key(&naive_outcome),
            outcome_key(&outcome),
            "outcome diverged for {bench:?}"
        );
        assert_eq!(naive.system_stats(), sys.system_stats(), "stats diverged for {bench:?}");
    }
}

/// Builds a traced system: shared ring sink handle + 512-cycle sampler.
fn build_traced(benches: &[Benchmark], engine: Engine, sink: Rc<RefCell<RingSink>>) -> System {
    let mut cfg = SystemConfig::multi_program(benches.len());
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    let mut b = SystemBuilder::new(cfg)
        .scheduler(make_baseline("FR-FCFS", benches.len()).expect("known scheduler"))
        .engine(engine)
        .trace_sink(Box::new(sink))
        .sample_every(512);
    for (i, &bench) in benches.iter().enumerate() {
        b = b.trace(i, Box::new(bench.profile().trace(base_for(i), 0xF0 + i as u64)));
    }
    b.build()
}

/// Runs one traced workload in one mode; returns the full event stream,
/// the sampler rows, the skipped-cycle count, and the system.
fn traced_run(
    benches: &[Benchmark],
    engine: Engine,
    cycles: Cycle,
) -> (Vec<TraceEvent>, Vec<mitts_sim::obs::SampleRow>, Cycle, System) {
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    let mut sys = build_traced(benches, engine, Rc::clone(&sink));
    sys.run_cycles(cycles);
    sys.flush_trace();
    let ring = sink.borrow();
    assert_eq!(ring.dropped(), 0, "ring sink overflowed; grow the test capacity");
    let samples = sys.samples().to_vec();
    let skipped = sys.skipped_cycles();
    (ring.to_vec(), samples, skipped, sys)
}

#[test]
fn trace_event_streams_and_samples_match_naive() {
    // The observability contract: tracing + sampling are *observers* of
    // the machine, so the full event sequence and every sampler row must
    // be bit-identical between naive and skipping runs — skips land
    // only on cycles where no event could have fired, and sampling
    // boundaries clamp skips exactly like audit boundaries.
    let sets: [&[Benchmark]; 5] = [
        &[Benchmark::Mcf],
        &[Benchmark::Libquantum],
        &[Benchmark::Omnetpp],
        &[Benchmark::Streamcluster],
        &[Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Bzip, Benchmark::Gcc],
    ];
    let mut total_skipped = 0;
    for benches in sets {
        let (ne, ns, _, nsys) = traced_run(benches, Engine::Naive, 20_000);
        assert!(!ne.is_empty(), "no events traced for {benches:?}");
        assert!(!ns.is_empty(), "no samples recorded for {benches:?}");
        let (fe, fs, skipped, fsys) = traced_run(benches, Engine::Skip, 20_000);
        total_skipped += skipped;
        if ne != fe {
            let idx = ne
                .iter()
                .zip(&fe)
                .position(|(a, b)| a != b)
                .unwrap_or(ne.len().min(fe.len()));
            panic!(
                "event streams diverged for {benches:?} at index {idx} \
                 (naive {} vs {} events):\n  naive: {:?}\n  skip:  {:?}",
                ne.len(),
                fe.len(),
                ne.get(idx),
                fe.get(idx)
            );
        }
        assert_eq!(ns, fs, "sample rows diverged for {benches:?}");
        assert_eq!(nsys.system_stats(), fsys.system_stats());
        // The decomposition invariant, under both engines: per-stage
        // latencies summed over all Fill events telescope to exactly the
        // sum of the cores' latency histograms, and fills to their count.
        for (sys, events) in [(&nsys, &ne), (&fsys, &fe)] {
            let stats = sys.system_stats();
            let (want_count, want_sum) = stats.cores.iter().fold((0u64, 0u64), |(n, s), c| {
                (n + c.mem_latency.count(), s + c.mem_latency.sum())
            });
            let (fills, lat_sum) = events.iter().fold((0u64, 0u64), |(n, s), ev| match ev {
                TraceEvent::Fill { lat, .. } => (n + 1, s + lat.total()),
                _ => (n, s),
            });
            assert_eq!(fills, want_count, "fill count diverged {benches:?}");
            assert_eq!(lat_sum, want_sum, "latency sum diverged {benches:?}");
            assert_eq!(sys.observer().requests_dropped(), 0);
        }
    }
    assert!(total_skipped > 0, "skipping never engaged on any traced workload");
}

#[test]
fn traced_mitts_shaper_streams_match_naive() {
    // Shaper deny phases produce StallBegin/StallEnd episodes whose
    // begin/end transitions sit right at quiescence edges — the exact
    // place a skip bug would eat or duplicate an event.
    let make_cfg = || {
        let mut credits = vec![0u32; BinSpec::paper_default().bins()];
        credits[2] = 6;
        credits[6] = 4;
        credits[9] = 8;
        BinConfig::new(BinSpec::paper_default(), credits, 3_000).unwrap()
    };
    let run = |engine: Engine| {
        let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
        let shaper = Rc::new(RefCell::new(MittsShaper::new(make_cfg())));
        let mut cfg = SystemConfig::multi_program(1);
        cfg.llc = CacheConfig::llc_with_size(256 << 10);
        let mut sys = SystemBuilder::new(cfg)
            .trace(0, Box::new(Benchmark::Libquantum.profile().trace(base_for(0), 11)))
            .shaper(0, shaper as _)
            .engine(engine)
            .trace_sink(Box::new(Rc::clone(&sink)))
            .sample_every(777)
            .build();
        sys.run_cycles(30_000);
        sys.flush_trace();
        let events = sink.borrow().to_vec();
        (events, sys)
    };
    let (ne, nsys) = run(Engine::Naive);
    let stalls = ne
        .iter()
        .filter(|e| matches!(e, TraceEvent::StallBegin { reason: StallReason::Shaper, .. }))
        .count();
    assert!(stalls > 0, "sparse credits must produce shaper stall episodes");
    let (fe, fsys) = run(Engine::Skip);
    assert!(fsys.skipped_cycles() > 0, "shaped run should have skippable deny spans");
    assert_eq!(ne, fe, "shaped event streams diverged");
    assert_eq!(nsys.samples(), fsys.samples(), "shaped sample rows diverged");
}

#[test]
fn mid_run_mode_flip_matches_naive_tail() {
    // Engines can be switched live; a run that flips modes halfway must
    // land on the same state as an all-naive run.
    let benches = [Benchmark::Streamcluster];
    let mut naive = build_system(&benches, "FR-FCFS", Engine::Naive);
    naive.run_cycles(24_000);
    let mut mixed = build_system(&benches, "FR-FCFS", Engine::Skip);
    mixed.run_cycles(12_000);
    mixed.set_engine(Engine::Naive);
    mixed.run_cycles(6_000);
    mixed.set_engine(Engine::Skip);
    mixed.run_cycles(6_000);
    assert_eq!(naive.system_stats(), mixed.system_stats());
}

#[test]
fn mid_run_engine_cycle_matches_naive() {
    // Alternate the engines mid-run, three times each, with uneven
    // segment lengths (so flips land inside skippable windows, not on
    // neat boundaries), and require the final state to match all-naive.
    let benches = [Benchmark::Libquantum, Benchmark::Mcf];
    let mut naive = build_system(&benches, "FR-FCFS", Engine::Naive);
    naive.run_cycles(30_000);
    let mut mixed = build_system(&benches, "FR-FCFS", Engine::Skip);
    let segments: [(Engine, Cycle); 6] = [
        (Engine::Skip, 7_000),
        (Engine::Naive, 3_500),
        (Engine::Skip, 6_500),
        (Engine::Naive, 4_100),
        (Engine::Skip, 3_900),
        (Engine::Naive, 5_000),
    ];
    for (engine, cycles) in segments {
        mixed.set_engine(engine);
        mixed.run_cycles(cycles);
    }
    assert_eq!(mixed.now(), naive.now(), "segment lengths must cover the naive run");
    assert_eq!(naive.system_stats(), mixed.system_stats(), "engine cycling diverged");
    assert!(mixed.skipped_cycles() > 0, "mixed run should have skipped in skipping segments");
}

#[test]
fn frequent_engine_flips_match_naive() {
    // Naive ticks do not keep the controller's dispatch fence, so every
    // run call resets it. Short alternating calls leave transactions
    // queued by naive ticks behind a fence the last skip call left, often
    // "never" because its queue was empty then.
    let benches = [Benchmark::Mcf, Benchmark::Omnetpp];
    let skip = assert_engines_agree("engine flips", |engine| {
        let mut sys = build_system(&benches, "FR-FCFS", engine);
        for (i, len) in [37, 113, 59, 241, 83].iter().cycle().take(160).enumerate() {
            if engine == Engine::Skip {
                sys.set_engine(if i % 2 == 0 { Engine::Skip } else { Engine::Naive });
            }
            sys.run_cycles(*len);
        }
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        sys
    });
    assert!(skip.skipped_cycles() > 0, "the skip calls never skipped");
}

/// Runs `run` on both engines and requires equal stats, shaper state and
/// snapshot bytes; returns the skip engine's system.
fn assert_engines_agree(what: &str, run: impl Fn(Engine) -> System) -> System {
    let (naive, skip) = (run(Engine::Naive), run(Engine::Skip));
    assert_eq!(naive.slept_ticks(), 0, "{what}: the naive engine must never sleep");
    assert_eq!(naive.system_stats(), skip.system_stats(), "{what}: stats diverged");
    assert_eq!(shaper_bytes(&naive), shaper_bytes(&skip), "{what}: shaper state diverged");
    assert!(snapshot_bytes(&naive) == snapshot_bytes(&skip), "{what}: snapshot bytes diverged");
    skip
}

/// A MITTS configuration with `credits` in bin 0 only, replenished every
/// `period` cycles. Bin 0 serves every gap, so once its credits are
/// spent the head waits for the replenish (or a refund).
fn bin0_config(credits: u32, period: Cycle) -> BinConfig {
    let mut k = vec![0u32; BinSpec::paper_default().bins()];
    k[0] = credits;
    BinConfig::new(BinSpec::paper_default(), k, period).unwrap()
}

/// One Libquantum core behind `shaper`: two grants, then a head denied
/// until cycle 8 000, with the L1 MSHRs full behind it.
fn starved_core(engine: Engine, shaper: Rc<RefCell<MittsShaper>>) -> System {
    let mut cfg = SystemConfig::multi_program(1);
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    SystemBuilder::new(cfg)
        .trace(0, Box::new(Benchmark::Libquantum.profile().trace(base_for(0), 11)))
        .shaper(0, shaper as _)
        .engine(engine)
        .build()
}

#[test]
fn empty_rob_port_stalls_match_naive() {
    // Stores retire at once, so a store stream with one or two L1 MSHRs
    // keeps an empty ROB while the fetch stage's next store waits for a
    // free MSHR. Such a tick counts the cycle and nothing else; replaying
    // it as a port stall behind a pending load would add memory stalls.
    for mshrs in [1, 2] {
        let skip = assert_engines_agree(&format!("{mshrs} L1 MSHRs"), |engine| {
            let mut cfg = SystemConfig::multi_program(2);
            cfg.l1.mshrs = mshrs;
            let mut b = SystemBuilder::new(cfg).engine(engine);
            for i in 0..2 {
                let trace = StrideTrace::new(0, 64, 16 << 20)
                    .with_base(base_for(i))
                    .with_write_every(1 + i as u32);
                b = b.trace(i, Box::new(trace));
            }
            let mut sys = b.build();
            sys.run_cycles(20_000);
            assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
            sys
        });
        assert!(skip.slept_ticks() > 0, "{mshrs} L1 MSHRs: no core ever slept");
        let stores = skip.system_stats().cores[0].counters.stores;
        assert!(stores > 50, "{mshrs} L1 MSHRs: the store stream barely ran ({stores})");
    }
}

#[test]
fn reconfiguring_a_sleeping_shaper_between_calls_matches_naive() {
    // At cycle 5 000 the head has been denied since the second grant and
    // the skip engine's issue stage has stopped asking the shaper until
    // the replenish at 8 000. The tuner reconfigures through its handle
    // between two calls; the next call must ask again at once.
    let skip = assert_engines_agree("reconfigure", |engine| {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(bin0_config(2, 8_000))));
        let mut sys = starved_core(engine, Rc::clone(&shaper));
        sys.run_cycles(5_000);
        assert_eq!(shaper.borrow().live_credits()[0], 0, "the head must be waiting");
        shaper.borrow_mut().reconfigure(sys.now(), bin0_config(40, 1_000));
        sys.run_cycles(5_000);
        sys
    });
    assert!(skip.slept_ticks() > 0, "the starved core never slept");
}

#[test]
fn freezing_a_sleeping_core_matches_naive() {
    // The starved core sleeps behind its full L1 MSHR file; a freeze
    // between two calls must end that sleep, or the frozen cycles would
    // be replayed as memory stalls.
    let skip = assert_engines_agree("freeze", |engine| {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(bin0_config(2, 8_000))));
        let mut sys = starved_core(engine, shaper);
        sys.run_cycles(5_000);
        sys.freeze_core(0, 1_500);
        sys.run_cycles(5_000);
        assert_eq!(sys.core_stats(0).counters.frozen_cycles, 1_500);
        sys
    });
    assert!(skip.slept_ticks() > 0, "the starved core never slept");
}

#[test]
fn a_skipped_frozen_window_resets_the_watchdog_like_naive() {
    // The starved core is frozen from cycle 5 000 to 6 500 with its head
    // denied until the replenish at 8 000, so the skip engine jumps over
    // the frozen cycles between audit boundaries, and the call ends after
    // the freeze with nothing retired since. Every frozen cycle resets
    // the core's starvation episode and, with every core frozen, the
    // global progress marker: a skipped window must leave both where the
    // naive run's last frozen cycle did. The auditor's snapshot section
    // holds both.
    assert_engines_agree("frozen window", |engine| {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(bin0_config(2, 8_000))));
        let mut sys = starved_core(engine, shaper);
        sys.run_cycles(5_000);
        let skipped = sys.skipped_cycles();
        sys.freeze_core(0, 1_500);
        sys.run_cycles(1_600);
        assert_eq!(sys.core_stats(0).counters.frozen_cycles, 1_500);
        if engine == Engine::Skip {
            let frozen_skipped = sys.skipped_cycles() - skipped;
            assert!(frozen_skipped > 1_000, "only {frozen_skipped} cycles skipped");
        }
        sys
    });
}

#[test]
fn a_refund_to_one_sharer_wakes_the_whole_pool() {
    // Three cores share one Method-2 MITTS pool holding a single credit
    // per 400 cycles. Each core cycles five lines that map to one 4-way
    // L1 set, so every access misses the L1 and, once warm, hits the
    // LLC: each grant is refunded when its lookup resolves. While one
    // grant is out the other sharers are denied until the replenish, and
    // the refund to the granted core must wake all of them.
    let pool_refunds = std::cell::Cell::new(0);
    assert_engines_agree("shared pool", |engine| {
        let pool = Rc::new(RefCell::new(
            MittsShaper::new(bin0_config(1, 400)).with_method(FeedbackMethod::DeductThenRefund),
        ));
        let mut cfg = SystemConfig::multi_program(3);
        cfg.llc = CacheConfig::llc_with_size(1 << 20);
        let set_stride = (cfg.l1.size_bytes / cfg.l1.ways) as u64;
        let mut b = SystemBuilder::new(cfg).engine(engine);
        for i in 0..3 {
            let trace = StrideTrace::new(2, set_stride, 5 * set_stride).with_base(base_for(i));
            b = b.trace(i, Box::new(trace)).shaper(i, Rc::clone(&pool) as _);
        }
        let mut sys = b.build();
        sys.run_cycles(20_000);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        let stats = sys.system_stats();
        assert!(stats.cores.iter().all(|c| c.shaper_stall_cycles > 0), "every sharer must stall");
        let hits: Vec<u64> = stats.cores.iter().map(|c| c.llc_hits).collect();
        assert!(hits.iter().all(|&h| h > 100), "the LLC must serve the streams: {hits:?}");
        pool_refunds.set(pool.borrow().counters().refunds);
        sys
    });
    assert!(pool_refunds.get() > 100, "LLC hits must refund the pool");
}

#[test]
fn an_l1_hit_completing_under_a_sleeping_core_wakes_it() {
    // One L1 MSHR and a 20-cycle L1 hit. Each store misses and holds the
    // MSHR until its fill; the load after it hits the L1, and the next
    // store is rejected. Once the store retires the core sleeps with the
    // hit load at its ROB head, and that load's hit-pipe completion (not
    // a fill) must wake it to retire.
    use mitts_sim::trace::TraceOp;
    use mitts_sim::trace_io::VecTrace;
    let hot = 0x40;
    let mut ops = vec![TraceOp::read(0, hot)];
    for i in 1..4_000 {
        ops.push(TraceOp::write(0, i << 12));
        ops.push(TraceOp::read(0, hot));
    }
    let skip = assert_engines_agree("hit under sleep", |engine| {
        let mut cfg = SystemConfig::multi_program(1);
        cfg.l1.mshrs = 1;
        cfg.l1.hit_latency = 20;
        let mut sys = SystemBuilder::new(cfg)
            .trace(0, Box::new(VecTrace::new(ops.clone())))
            .engine(engine)
            .build();
        sys.run_cycles(20_000);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        sys
    });
    let stats = &skip.system_stats().cores[0];
    assert!(stats.l1_hits > 50, "the hot load must hit the L1 ({})", stats.l1_hits);
    assert!(skip.slept_ticks() > 0, "the core never slept");
}

#[test]
fn llc_lookups_requeued_by_a_full_llc_mshr_file_match_naive() {
    // With one or two LLC MSHRs most misses find the file full, and the
    // lookup is requeued one cycle out, behind the not-yet-due rest: the
    // LLC stage must wake for it although no new lookup arrived.
    for mshrs in [1, 2] {
        // Both engines trace (the observer's state is in the snapshot);
        // the skip engine's stream is the one inspected below.
        let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
        let skip = assert_engines_agree(&format!("{mshrs} LLC MSHRs"), |engine| {
            let mut cfg = SystemConfig::multi_program(4);
            cfg.llc = CacheConfig::llc_with_size(256 << 10);
            cfg.llc.mshrs = mshrs;
            let sink = match engine {
                Engine::Skip => Rc::clone(&sink),
                Engine::Naive => Rc::new(RefCell::new(RingSink::new(1 << 20))),
            };
            let mut b = SystemBuilder::new(cfg).engine(engine).trace_sink(Box::new(sink));
            for i in 0..4 {
                let trace = StrideTrace::new(4, 64, 16 << 20).with_base(base_for(i));
                b = b.trace(i, Box::new(trace));
            }
            let mut sys = b.build();
            sys.run_cycles(20_000);
            assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
            sys
        });
        assert!(skip.skipped_cycles() > 0, "{mshrs} LLC MSHRs: the skip engine never skipped");
        // With no FIFO rejection a read misses the LLC and enters the
        // controller on the same cycle unless its lookup was requeued.
        let stats = skip.system_stats();
        assert!(stats.channels.iter().all(|ch| ch.fifo_rejections == 0), "FIFO backlog");
        assert_eq!(sink.borrow().dropped(), 0, "ring sink overflowed");
        let events = sink.borrow().to_vec();
        let requeued = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::LlcLookup { at, line, hit: false, .. } => Some((*at, *line)),
                _ => None,
            })
            .filter(|&(at, line)| {
                events.iter().any(|e| {
                    matches!(e, TraceEvent::McEnqueue { at: t, line: l, write: false, .. }
                        if *l == line && *t > at)
                })
            })
            .count();
        assert!(requeued > 10, "{mshrs} LLC MSHRs: only {requeued} lookups were requeued");
    }
}

#[test]
fn a_resume_with_dram_and_llc_work_in_flight_matches_an_uninterrupted_run() {
    // The cached wake cycles (earliest DRAM completion, earliest LLC
    // lookup, audit and sample boundaries, watchdog deadline, scheduler
    // hooks) are not in the snapshot: a resume rebuilds them from the
    // restored state. Cut where both DRAM and the LLC have work pending.
    let benches = [Benchmark::Mcf, Benchmark::Libquantum];
    let total: Cycle = 20_000;
    // Find the cut on a traced twin: a DRAM burst ends at or after it,
    // and fewer demand lookups than grants resolved before it.
    let (events, _, _, _) = traced_run(&benches, Engine::Skip, total);
    let before = |cut: Cycle, want: fn(&TraceEvent) -> bool| {
        events.iter().filter(|&e| want(e) && e.at() < cut).count()
    };
    let cut = (8_000..12_000)
        .find(|&cut| {
            let dram = events.iter().any(|e| {
                matches!(e, TraceEvent::DramDispatch { at, timing, .. }
                    if *at < cut && timing.data_end >= cut)
            });
            let grants = before(cut, |e| matches!(e, TraceEvent::ShaperGrant { .. }));
            let lookups = before(cut, |e| matches!(e, TraceEvent::LlcLookup { .. }));
            dram && grants > lookups
        })
        .expect("no cycle with DRAM and LLC work in flight");

    let mut whole = build_system(&benches, "FR-FCFS", Engine::Skip);
    whole.run_cycles(total);
    let mut first = build_system(&benches, "FR-FCFS", Engine::Skip);
    first.run_cycles(cut);
    let snap = first.snapshot().expect("checkpointable");
    let mut resumed = system_builder(&benches, "FR-FCFS", Engine::Skip)
        .resume_from(&snap)
        .expect("resume");
    resumed.run_cycles(total - cut);
    assert!(resumed.skipped_cycles() > 0, "the resumed run never skipped");
    assert_eq!(whole.system_stats(), resumed.system_stats(), "resumed stats diverged");
    assert!(snapshot_bytes(&whole) == snapshot_bytes(&resumed), "resumed snapshot bytes diverged");
}

#[test]
fn a_restore_into_a_system_that_ran_on_matches_a_fresh_resume() {
    // `restore` rebuilds every cached wake cycle from the restored state,
    // also in a system whose own run cached later ones: here TCM's hook
    // cached a shuffle boundary 20 000 cycles past the snapshot's.
    let benches = [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Omnetpp, Benchmark::Bzip];
    let mut sys = build_system(&benches, "TCM", Engine::Skip);
    sys.run_cycles(8_000);
    let snap = sys.snapshot().expect("checkpointable");
    let mut fresh = system_builder(&benches, "TCM", Engine::Skip)
        .resume_from(&snap)
        .expect("resume");
    fresh.run_cycles(12_000);
    sys.run_cycles(20_000);
    sys.restore(&snap).expect("restore");
    sys.run_cycles(12_000);
    assert_eq!(fresh.system_stats(), sys.system_stats(), "restored stats diverged");
    assert!(snapshot_bytes(&fresh) == snapshot_bytes(&sys), "restored snapshot bytes diverged");
}

#[test]
fn a_source_control_write_between_calls_is_overridden_like_naive() {
    // The congestion guard re-applies its issue gap on every tick while
    // it holds one. A caller that clears the throttles between two calls
    // must see the guard re-apply the gap on the first tick of the next
    // call under both engines.
    let gaps = RefCell::new(Vec::new());
    assert_engines_agree("source-control write", |engine| {
        let mut b = SystemBuilder::new(SystemConfig::multi_program(4))
            .scheduler(Box::new(CongestionGuard::new(FrFcfs::new(), 2, 4_000)))
            .engine(engine);
        for i in 0..4 {
            b = b.trace(i, Box::new(StrideTrace::new(2, 64, 16 << 20).with_base(base_for(i))));
        }
        let mut sys = b.build();
        sys.run_cycles(9_000);
        gaps.borrow_mut().push(sys.source_control_mut().throttle(CoreId::new(0)).min_issue_gap);
        sys.source_control_mut().clear();
        sys.run_cycles(1_500);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        sys
    });
    for gap in gaps.into_inner() {
        assert!(gap.is_some_and(|g| g > 0), "the guard imposed no gap to clear: {gap:?}");
    }
}

/// Runs `run` on both engines, each with its own ring sink, and requires
/// what [`assert_engines_agree`] does plus equal trace-event streams.
/// Returns the skip engine's system and events.
fn assert_traced_engines_agree(
    what: &str,
    run: impl Fn(Engine, Rc<RefCell<RingSink>>) -> System,
) -> (System, Vec<TraceEvent>) {
    let sinks = [(); 2].map(|_| Rc::new(RefCell::new(RingSink::new(1 << 20))));
    let skip = assert_engines_agree(what, |engine| {
        let sink = &sinks[usize::from(engine == Engine::Skip)];
        run(engine, Rc::clone(sink))
    });
    let [naive, skipped] = sinks.map(|s| {
        assert_eq!(s.borrow().dropped(), 0, "{what}: ring sink overflowed");
        s.borrow().to_vec()
    });
    assert_eq!(naive, skipped, "{what}: trace events diverged");
    (skip, skipped)
}

#[test]
fn a_dram_refresh_inside_a_fenced_window_matches_naive() {
    // The controller asks its scheduler only once its dispatch fence,
    // the earliest start of any queued transaction, is due. That start
    // already waits out a pending all-bank refresh. With a refresh every
    // 500 ns (1 200 cycles) a saturated queue waits across many of them.
    let (skip, events) = assert_traced_engines_agree("refresh", |engine, sink| {
        let mut cfg = SystemConfig::multi_program(4);
        cfg.dram.t_refi_ns = 500.0;
        let mut b = SystemBuilder::new(cfg).engine(engine).trace_sink(Box::new(sink));
        for i in 0..4 {
            b = b.trace(i, Box::new(StrideTrace::new(2, 64, 16 << 20).with_base(base_for(i))));
        }
        let mut sys = b.build();
        sys.run_cycles(20_000);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        sys
    });
    let cfg = skip.config();
    let timing = cfg.dram.timing_cycles(cfg.core.freq_hz);
    let (t_refi, t_rfc) = (timing.t_refi, timing.t_rfc);
    assert!(skip.system_stats().channels[0].refreshes > 10, "too few refreshes");
    // Transactions queued before a refresh point and dispatched only after
    // its tRFC fence waited across the refresh.
    let enqueued: Vec<(Cycle, u64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::McEnqueue { at, line, .. } => Some((*at, *line)),
            _ => None,
        })
        .collect();
    let waited = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::DramDispatch { at, line, .. } => Some((*at, *line)),
            _ => None,
        })
        .filter(|&(at, line)| {
            let refresh = at / t_refi * t_refi;
            refresh > 0
                && at >= refresh + t_rfc
                && enqueued.iter().any(|&(q, l)| l == line && q < refresh)
        })
        .count();
    assert!(waited > 10, "only {waited} transactions waited across a refresh");
}

/// Four streaming cores on one channel: the transaction queue stays
/// full, so most cycles the controller's dispatch fence is ahead.
fn saturated_channel(engine: Engine) -> System {
    let mut b = SystemBuilder::new(SystemConfig::multi_program(4))
        .engine(engine)
        .sample_every(4_500);
    for i in 0..4 {
        b = b.trace(i, Box::new(StrideTrace::new(2, 64, 16 << 20).with_base(base_for(i))));
    }
    b.build()
}

#[test]
fn a_priority_core_set_between_calls_while_the_queue_is_fenced_matches_naive() {
    // The priority override picks only startable transactions, so the
    // fence bounds it too; the first pick after the change must land on
    // the naive cycle and order.
    let skip = assert_engines_agree("priority core", |engine| {
        let mut sys = saturated_channel(engine);
        sys.run_cycles(9_000);
        sys.set_priority_core(Some(CoreId::new(2)));
        sys.run_cycles(9_000);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        sys
    });
    let at_cut = skip.samples().iter().find(|r| r.at == 9_000).expect("a row at the cut");
    assert!(at_cut.channels[0].queue_len > 0, "the queue was empty at the cut");
}

/// `cores` cores; the last one sits behind a MITTS shaper that grants
/// two requests per 8 000 cycles, so its head waits denied for thousands
/// of cycles at a time, while the others run `stream(i)` unshaped.
fn denied_core_beside_streams(
    engine: Engine,
    cfg: SystemConfig,
    stream: impl Fn(usize) -> StrideTrace,
    sink: Rc<RefCell<RingSink>>,
) -> System {
    let denied = cfg.cores - 1;
    let shaper = Rc::new(RefCell::new(MittsShaper::new(bin0_config(2, 8_000))));
    let mut b = SystemBuilder::new(cfg)
        .engine(engine)
        .trace_sink(Box::new(sink))
        .trace(denied, Box::new(Benchmark::Libquantum.profile().trace(base_for(denied), 11)))
        .shaper(denied, shaper as _);
    for i in 0..denied {
        b = b.trace(i, Box::new(stream(i)));
    }
    let mut sys = b.build();
    sys.run_cycles(20_000);
    assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
    sys
}

/// Shaper stall episodes of `core` that began for `reason`.
fn stalls_for(events: &[TraceEvent], core: usize, reason: StallReason) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::StallBegin { core: c, reason: r, .. }
            if *c == core && *r == reason))
        .count()
}

#[test]
fn a_denied_dormant_core_finds_the_ports_gone_like_naive() {
    // Seven cores stream over footprints the LLC holds, so their L1
    // misses hit the LLC, and with 32 L1 MSHRs each they keep four ports
    // busy. The denied eighth core is passed over while it waits, but on
    // a cycle where the ports run out before its turn it must report
    // `NoPorts`.
    let (skip, events) = assert_traced_engines_agree("ports", |engine, sink| {
        let mut cfg = SystemConfig::multi_program(8);
        cfg.llc_ports = 4;
        cfg.l1.mshrs = 32;
        let stream = |i| StrideTrace::new(0, 64, 64 << 10).with_base(base_for(i));
        denied_core_beside_streams(engine, cfg, stream, sink)
    });
    assert!(stalls_for(&events, 7, StallReason::Ports) > 0, "the ports never ran out on core 7");
    assert!(stalls_for(&events, 7, StallReason::Shaper) > 1, "core 7 was not denied");
    assert!(skip.slept_ticks() > 0, "no core slept");
}

#[test]
fn a_denied_dormant_core_meets_a_full_fifo_like_naive() {
    // Three DRAM-bound streams fill a 4-entry transaction queue and keep
    // the 2-entry smoothing FIFO in front of it full. The denied fourth
    // core is passed over while it waits, but on a cycle the FIFO is
    // full its head must report `McBackpressure`.
    let (skip, events) = assert_traced_engines_agree("FIFO", |engine, sink| {
        let mut cfg = SystemConfig::multi_program(4);
        cfg.mc.txn_queue_depth = 4;
        cfg.mc.global_fifo_depth = 2;
        let stream = |i| StrideTrace::new(2, 64, 16 << 20).with_base(base_for(i));
        denied_core_beside_streams(engine, cfg, stream, sink)
    });
    let full = stalls_for(&events, 3, StallReason::Backpressure);
    assert!(full > 0, "the FIFO was never full on core 3's turn");
    assert!(stalls_for(&events, 3, StallReason::Shaper) > 1, "core 3 was not denied");
    assert!(skip.slept_ticks() > 0, "no core slept");
}

#[test]
fn a_refund_reaching_a_dormant_sharer_matches_naive() {
    // Two cores share a Method-2 pool of two credits replenished every
    // 300 cycles, so replenish boundaries fall while sharers are dormant.
    // Core 0's lines hit the LLC, and each refund reaches core 1 too,
    // dormant behind a denied head or with no request: its shaper must
    // be caught up before the refund lands, and a denied head must wake.
    let refunds = std::cell::Cell::new(0);
    let skip = assert_engines_agree("dormant sharer", |engine| {
        let pool = Rc::new(RefCell::new(
            MittsShaper::new(bin0_config(2, 300)).with_method(FeedbackMethod::DeductThenRefund),
        ));
        let mut cfg = SystemConfig::multi_program(2);
        cfg.llc = CacheConfig::llc_with_size(1 << 20);
        let set_stride = (cfg.l1.size_bytes / cfg.l1.ways) as u64;
        let mut sys = SystemBuilder::new(cfg)
            .engine(engine)
            .trace(0, Box::new(StrideTrace::new(40, set_stride, 5 * set_stride)))
            .trace(1, Box::new(StrideTrace::new(3, 64, 16 << 20).with_base(base_for(1))))
            .shaper(0, Rc::clone(&pool) as _)
            .shaper(1, Rc::clone(&pool) as _)
            .build();
        sys.run_cycles(20_000);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        refunds.set(pool.borrow().counters().refunds);
        sys
    });
    assert!(refunds.get() > 50, "LLC hits must refund the pool ({})", refunds.get());
    let stats = skip.system_stats();
    assert!(stats.cores.iter().all(|c| c.shaper_stall_cycles > 0), "every sharer must stall");
    assert!(skip.slept_ticks() > 0, "no core slept");
}

/// Four bundled workloads, each core behind its own sparse MITTS shaper
/// (so cores sleep and wait denied), under `scheduler`.
fn shaped_mix(engine: Engine, scheduler: Box<dyn mitts_sim::mc::Scheduler>) -> SystemBuilder {
    let benches = [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Omnetpp, Benchmark::Bzip];
    let mut cfg = SystemConfig::multi_program(benches.len());
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    let mut b = SystemBuilder::new(cfg).engine(engine).scheduler(scheduler);
    for (i, &bench) in benches.iter().enumerate() {
        let mut credits = vec![0u32; BinSpec::paper_default().bins()];
        credits[2] = 3;
        credits[9] = 2 + i as u32;
        let bins = BinConfig::new(BinSpec::paper_default(), credits, 2_500).unwrap();
        b = b
            .trace(i, Box::new(bench.profile().trace(base_for(i), 0xF0 + i as u64)))
            .shaper(i, Rc::new(RefCell::new(MittsShaper::new(bins))) as _);
    }
    b
}

#[test]
fn sample_rows_read_dormant_cores_like_naive() {
    // Each row reads every core's counters, stall count and credits,
    // so dormant cores catch up first.
    let rows = RefCell::new(Vec::new());
    let skip = assert_engines_agree("sampled", |engine| {
        let mut sys = shaped_mix(engine, Box::new(FrFcfs::new())).sample_every(700).build();
        sys.run_cycles(30_000);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        rows.borrow_mut().push(sys.samples().to_vec());
        sys
    });
    let rows = rows.into_inner();
    assert!(rows[0].len() > 20, "too few sample rows");
    assert_eq!(rows[0], rows[1], "sample rows diverged");
    assert!(skip.slept_ticks() > 0, "no core slept");
}

#[test]
fn an_epoch_scheduler_reads_dormant_cores_like_naive() {
    // FST's evaluation keeps every core's signal row (cycles and memory
    // stalls included) in its state and ranks slowdowns from them, so
    // dormant cores catch up before the signal table is rebuilt.
    let skip = assert_engines_agree("FST", |engine| {
        let mut sys = shaped_mix(engine, Box::new(Fst::with_params(4, 3_000, 1.4))).build();
        sys.run_cycles(30_000);
        assert!(sys.audit_log().is_empty(), "{engine:?} run must audit clean");
        sys
    });
    assert!(skip.slept_ticks() > 0, "no core slept");
}
