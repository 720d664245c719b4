//! The durable-execution contract, system level: run to cycle C, take a
//! [`System::snapshot`], resume it into an identically-built twin, and
//! the continued run must be indistinguishable — bit for bit — from the
//! run that was never interrupted. "Indistinguishable" here is the full
//! observable surface:
//!
//! * [`SystemStats`] (every counter in the machine and every core's
//!   inter-arrival and latency histograms),
//! * MITTS shaper grant ledgers (per-bin grants, live credits, counters),
//! * the runtime auditor's violation log and its oracles' checked counts,
//! * the request-lifecycle trace-event stream and sampler rows.
//!
//! Every bundled benchmark is covered under both engines (naive, skip),
//! plus shaped and multi-core/scheduler
//! configurations, and a mismatched resume target must be refused loudly
//! rather than limp on. Snapshots are also required to be *engine
//! independent*: the same run snapshotted at the same cycle produces
//! byte-identical snapshots whichever engine produced it, and a snapshot
//! taken under one engine resumes cleanly under any other.

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sched::make_baseline;
use mitts_sim::audit::{FaultKind, FaultPlan};
use mitts_sim::config::{CacheConfig, DramConfig, McConfig, SystemConfig};
use mitts_sim::obs::{MetricsRegistry, RingSink, TraceEvent};
use mitts_sim::snapshot::{Snapshot, SnapshotError};
use mitts_sim::system::{Engine, System, SystemBuilder};
use mitts_sim::trace::StrideTrace;
use mitts_sim::types::Cycle;
use mitts_workloads::Benchmark;

fn base_for(core: usize) -> u64 {
    (core as u64) << 36
}

fn sparse_mitts_config() -> BinConfig {
    let spec = BinSpec::paper_default();
    let mut credits = vec![0u32; spec.bins()];
    credits[2] = 6;
    credits[6] = 4;
    credits[9] = 8;
    BinConfig::new(spec, credits, 3_000).unwrap()
}

/// The memory side a rig runs on: controller structure (channel count,
/// queue depths) and DRAM organisation and timing.
#[derive(Clone, Default)]
struct Memory {
    mc: McConfig,
    dram: DramConfig,
}

/// One observable instance of a run under test.
struct Rig {
    sys: System,
    shapers: Vec<Rc<RefCell<MittsShaper>>>,
    sink: Rc<RefCell<RingSink>>,
}

/// Builds a system for `benches` with a small LLC (so the bundled traces
/// miss to DRAM), the given memory side (`scheduler` on every channel),
/// a ring trace sink, periodic sampling, and — when
/// `shaped` — a sparse MITTS shaper on every core. With `snap` the system
/// resumes from it instead of starting fresh.
fn rig(
    benches: &[Benchmark],
    scheduler: &str,
    engine: Engine,
    shaped: bool,
    mem: &Memory,
    snap: Option<&Snapshot>,
) -> Result<Rig, SnapshotError> {
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    let mut cfg = SystemConfig::multi_program(benches.len());
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    cfg.mc = mem.mc.clone();
    cfg.dram = mem.dram.clone();
    let mut b = SystemBuilder::new(cfg);
    for c in 0..mem.mc.channels {
        let sched = make_baseline(scheduler, benches.len()).expect("known scheduler");
        b = b.channel_scheduler(c, sched);
    }
    let mut b = b
        .trace_sink(Box::new(Rc::clone(&sink)))
        .sample_every(1024)
        .engine(engine);
    let mut shapers = Vec::new();
    for (i, &bench) in benches.iter().enumerate() {
        b = b.trace(i, Box::new(bench.profile().trace(base_for(i), 0xF0 + i as u64)));
        if shaped {
            let sh = Rc::new(RefCell::new(MittsShaper::new(sparse_mitts_config())));
            shapers.push(Rc::clone(&sh));
            b = b.shaper(i, sh);
        }
    }
    let sys = match snap {
        Some(snap) => b.resume_from(snap)?,
        None => b.build(),
    };
    Ok(Rig { sys, shapers, sink })
}

/// A fresh [`rig`] with the default memory side.
fn build(benches: &[Benchmark], scheduler: &str, engine: Engine, shaped: bool) -> Rig {
    rig(benches, scheduler, engine, shaped, &Memory::default(), None)
        .expect("a fresh build has no snapshot to refuse")
}

/// Resumes `snap` into a twin built exactly like [`build`] would.
fn resume(
    benches: &[Benchmark],
    scheduler: &str,
    engine: Engine,
    shaped: bool,
    snap: &Snapshot,
) -> Result<Rig, SnapshotError> {
    rig(benches, scheduler, engine, shaped, &Memory::default(), Some(snap))
}

/// The full check: interrupted-and-resumed vs uninterrupted, with the
/// default memory side.
fn assert_resume_equivalent(
    benches: &[Benchmark],
    scheduler: &str,
    engine: Engine,
    shaped: bool,
    snap_at: Cycle,
    total: Cycle,
) {
    let mem = Memory::default();
    assert_resume_equivalent_on(&mem, benches, scheduler, engine, shaped, snap_at, total);
}

/// [`assert_resume_equivalent`] on the given memory side. Returns the
/// uninterrupted reference run.
fn assert_resume_equivalent_on(
    mem: &Memory,
    benches: &[Benchmark],
    scheduler: &str,
    engine: Engine,
    shaped: bool,
    snap_at: Cycle,
    total: Cycle,
) -> Rig {
    // Uninterrupted reference: run to `snap_at`, snapshot, keep going.
    let mut reference = rig(benches, scheduler, engine, shaped, mem, None).unwrap();
    reference.sys.run_cycles(snap_at);
    let snap = reference.sys.snapshot().expect("snapshot must be supported");
    reference.sys.run_cycles(total - snap_at);
    reference.sys.flush_trace();

    // Resumed twin: fresh components, state loaded from the snapshot.
    let mut resumed = rig(benches, scheduler, engine, shaped, mem, Some(&snap))
        .expect("an identically-built twin must accept the snapshot");
    assert_eq!(resumed.sys.now(), snap_at, "resume must land on the snapshot cycle");
    resumed.sys.run_cycles(total - snap_at);
    resumed.sys.flush_trace();

    let tag = format!("{benches:?}/{scheduler}/{engine:?}/shaped={shaped}");

    // 1. Every counter in the machine.
    assert_eq!(
        reference.sys.system_stats(),
        resumed.sys.system_stats(),
        "stats diverged for {tag}"
    );

    // 2. Audit logs (same violations, or same clean bill).
    assert_eq!(
        format!("{:?}", reference.sys.audit_log()),
        format!("{:?}", resumed.sys.audit_log()),
        "audit logs diverged for {tag}"
    );

    // 3. Shaper grant ledgers, bin for bin.
    for (i, (a, b)) in reference.shapers.iter().zip(&resumed.shapers).enumerate() {
        let (a, b) = (a.borrow(), b.borrow());
        assert_eq!(a.grants_per_bin(), b.grants_per_bin(), "core {i} ledger diverged ({tag})");
        assert_eq!(a.live_credits(), b.live_credits(), "core {i} credits diverged ({tag})");
        assert_eq!(a.counters(), b.counters(), "core {i} counters diverged ({tag})");
    }

    {
        // 4. Trace-event streams. The resumed sink only sees post-resume
        // events, so compare against the reference's suffix from `snap_at`.
        let ref_sink = reference.sink.borrow();
        let res_sink = resumed.sink.borrow();
        assert_eq!(ref_sink.dropped(), 0, "reference sink overflowed; enlarge the ring");
        assert_eq!(res_sink.dropped(), 0, "resumed sink overflowed; enlarge the ring");
        let suffix: Vec<_> = ref_sink.events().filter(|e| e.at() >= snap_at).collect();
        let resumed_events: Vec<_> = res_sink.events().collect();
        assert_eq!(
            suffix.len(),
            resumed_events.len(),
            "event counts diverged for {tag}: {} vs {}",
            suffix.len(),
            resumed_events.len()
        );
        for (i, (a, b)) in suffix.iter().zip(&resumed_events).enumerate() {
            assert_eq!(a, b, "trace event {i} diverged for {tag}");
        }
    }

    // 5. Sampler rows past the snapshot boundary.
    let ref_samples: Vec<_> =
        reference.sys.samples().iter().filter(|s| s.at >= snap_at).collect();
    let res_samples: Vec<_> = resumed.sys.samples().iter().collect();
    assert_eq!(ref_samples, res_samples, "sampler rows diverged for {tag}");

    // 6. What the auditor's oracles checked, counted across the resume.
    let (a, b) = (reference.sys.auditor(), resumed.sys.auditor());
    assert_eq!(a.shaper_coverage(), b.shaper_coverage(), "shaper oracle counts diverged ({tag})");
    assert_eq!(a.dispatches_checked(), b.dispatches_checked(), "DDR3 counts diverged ({tag})");
    assert_eq!(a.picks_checked(), b.picks_checked(), "pick counts diverged ({tag})");
    reference
}

#[test]
fn every_bundled_workload_resumes_identically_naive() {
    for &bench in &Benchmark::ALL {
        assert_resume_equivalent(&[bench], "FR-FCFS", Engine::Naive, false, 5_000, 10_000);
    }
}

#[test]
fn every_bundled_workload_resumes_identically_skip() {
    for &bench in &Benchmark::ALL {
        assert_resume_equivalent(&[bench], "FR-FCFS", Engine::Skip, false, 5_000, 10_000);
    }
}

#[test]
fn shaped_mitts_runs_resume_identically_in_all_modes() {
    for engine in [Engine::Naive, Engine::Skip] {
        assert_resume_equivalent(
            &[Benchmark::Libquantum],
            "FR-FCFS",
            engine,
            true,
            7_000,
            21_000,
        );
    }
}

/// The first cycle `c >= from` whose snapshot lands inside a shaper stall
/// episode of core 0: the issue stage denied its head on cycle `c - 1`.
fn inside_a_stall_episode(engine: Engine, from: Cycle) -> Cycle {
    let mut probe = build(&[Benchmark::Libquantum], "FR-FCFS", engine, true);
    probe.sys.run_cycles(from - 1);
    loop {
        let before = probe.sys.core_stats(0).shaper_stall_cycles;
        probe.sys.run_cycles(1);
        if probe.sys.core_stats(0).shaper_stall_cycles == before + 1 {
            return probe.sys.now();
        }
    }
}

#[test]
fn resuming_inside_a_stall_episode_keeps_the_shaper_oracle_in_step() {
    for engine in [Engine::Naive, Engine::Skip] {
        let snap_at = inside_a_stall_episode(engine, 7_000);
        let reference = assert_resume_equivalent_on(
            &Memory::default(),
            &[Benchmark::Libquantum],
            "FR-FCFS",
            engine,
            true,
            snap_at,
            snap_at + 15_000,
        );
        assert!(reference.sys.audit_log().is_empty(), "{:#?}", reference.sys.audit_log());
        let coverage = reference.sys.auditor().shaper_coverage();
        assert!(coverage.bin_grants > 0 && coverage.denied_cycles > 0, "{coverage:?}");
    }
}

#[test]
fn multicore_shaped_mix_resumes_identically() {
    let benches =
        [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Omnetpp, Benchmark::Bzip];
    for engine in [Engine::Naive, Engine::Skip] {
        assert_resume_equivalent(&benches, "TCM", engine, true, 6_000, 14_000);
    }
}

#[test]
fn multi_channel_runs_resume_identically() {
    // Misses and backlogged transactions carry their decoded channel; a
    // resumed twin recomputes it from the address. Two and three
    // channels (any count is valid), with a small queue and FIFO so the
    // issue stage's backpressure and the LLC backlog are busy.
    let benches =
        [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Omnetpp, Benchmark::Bzip];
    for channels in [2, 3] {
        let mem = Memory {
            mc: McConfig { channels, txn_queue_depth: 4, global_fifo_depth: 2 },
            ..Memory::default()
        };
        for engine in [Engine::Naive, Engine::Skip] {
            for snap_at in [3_001, 8_000] {
                let reference = assert_resume_equivalent_on(
                    &mem, &benches, "FR-FCFS", engine, true, snap_at, 16_000,
                );
                let stats = reference.sys.system_stats();
                assert_eq!(stats.channels.len(), channels);
                for (c, ch) in stats.channels.iter().enumerate() {
                    assert!(ch.dispatched > 0, "{channels} channels: channel {c} idle");
                }
                assert!(
                    stats.channels.iter().any(|ch| ch.fifo_rejections > 0),
                    "{channels} channels: no FIFO ever filled"
                );
                assert!(
                    reference.sys.audit_log().is_empty(),
                    "{channels} channels, {engine:?}: {:#?}",
                    reference.sys.audit_log()
                );
            }
        }
    }
}

#[test]
fn snapshot_with_open_rows_and_a_pending_refresh_resumes_clean() {
    // Refresh every 2 400 cycles. The snapshot at 7 000 lands after the
    // boundary at 4 800 with rows reopened since, and before the refresh
    // at 7 200: the auditor's DDR3 shadow must resume with those open
    // rows and that refresh schedule, or the resumed run's row hits and
    // fences would be flagged.
    let mem = Memory {
        dram: DramConfig { t_refi_ns: 1_000.0, ..DramConfig::default() },
        ..Memory::default()
    };
    let (snap_at, total) = (7_000, 14_000);
    let t = mem.dram.timing_cycles(SystemConfig::default().core.freq_hz);
    let window_start = snap_at / t.t_refi * t.t_refi;
    assert!(window_start < snap_at && window_start + t.t_refi > snap_at);
    for engine in [Engine::Naive, Engine::Skip] {
        let reference = assert_resume_equivalent_on(
            &mem,
            &[Benchmark::Libquantum],
            "FR-FCFS",
            engine,
            false,
            snap_at,
            total,
        );
        let reopened = reference.sink.borrow().events().any(|e| {
            matches!(e, TraceEvent::DramDispatch { at, .. } if (window_start..snap_at).contains(at))
        });
        assert!(reopened, "{engine:?}: no dispatch reopened a row before the snapshot");
        let refreshes: u64 =
            reference.sys.system_stats().channels.iter().map(|c| c.refreshes).sum();
        assert!(refreshes * t.t_refi > snap_at, "{engine:?}: no refresh after the snapshot");
        assert!(
            reference.sys.audit_log().is_empty(),
            "{engine:?}: {:#?}",
            reference.sys.audit_log()
        );
    }
}

#[test]
fn snapshot_cycle_choice_does_not_matter() {
    // The same run snapshotted at three different cycles must always
    // reconverge on the identical end state.
    for snap_at in [1_000, 4_096, 9_999] {
        assert_resume_equivalent(
            &[Benchmark::Omnetpp],
            "FR-FCFS",
            Engine::Skip,
            false,
            snap_at,
            12_000,
        );
    }
}

/// Runs the system `build` makes for `cycles` cycles under each engine
/// and requires byte-identical snapshots, section by section first so a
/// divergence names the component.
fn assert_snapshot_bytes_engine_independent(cycles: Cycle, build: impl Fn(Engine) -> System) {
    let snap_for = |engine: Engine| {
        let mut sys = build(engine);
        sys.run_cycles(cycles);
        sys.snapshot().unwrap()
    };
    let naive = snap_for(Engine::Naive);
    let skip = snap_for(Engine::Skip);
    for name in naive.section_names() {
        assert_eq!(
            naive.section(name).unwrap(),
            skip.section(name).unwrap(),
            "snapshot section {name:?} diverged after {cycles} cycles"
        );
    }
    assert_eq!(naive.to_bytes(), skip.to_bytes(), "snapshot bytes diverged after {cycles} cycles");
}

#[test]
fn snapshot_bytes_are_engine_independent() {
    // Nothing engine-specific is serialized (`skipped_cycles` is left
    // out on purpose): the same run snapshotted at the same cycle must
    // produce byte-identical snapshots under either engine, so archived
    // snapshots stay valid across engine choices (and mid-run flips).
    let benches = [Benchmark::Mcf, Benchmark::Libquantum];
    assert_snapshot_bytes_engine_independent(9_000, |engine| {
        build(&benches, "FR-FCFS", engine, true).sys
    });
    // Cores striding a page per access: every miss goes to DRAM, and the
    // skip engine jumps over most of each wait, often right after the
    // grant that emptied a miss queue or, with one LLC port for three
    // cores, after a `NoPorts` cycle. Whatever cycle a run ends on, the
    // replayed cycles must leave the issue outcome a naive tick writes
    // there: no request, or `NoPorts` again while an injected fault
    // stalls the ports.
    let striding = |engine: Engine, cores: usize, stall_ports: Option<Cycle>| {
        let mut cfg = SystemConfig::multi_program(cores);
        cfg.llc = CacheConfig::llc_with_size(256 << 10);
        cfg.llc_ports = 1;
        let mut b = SystemBuilder::new(cfg).engine(engine);
        for i in 0..cores {
            b = b.trace(i, Box::new(StrideTrace::new(20, 4096, 1 << 30).with_base(base_for(i))));
        }
        let mut sys = b.build();
        if let Some(from) = stall_ports {
            sys.inject_faults(FaultPlan::new().with(FaultKind::StallLlcPorts { from }));
        }
        sys
    };
    // The one-core stream behind a MITTS shaper that replenishes more
    // credits than it can spend every 50 cycles: boundaries pass while
    // the core waits on its fills with an empty miss queue, dormant or
    // skipped, so every replayed window must leave the shaper where a
    // naive run's last tick did.
    let shaped = |engine: Engine| {
        let mut credits = vec![0u32; BinSpec::paper_default().bins()];
        credits[0] = 64;
        let bins = BinConfig::new(BinSpec::paper_default(), credits, 50).unwrap();
        let mut sys = striding(engine, 1, None);
        sys.set_shaper(0, Rc::new(RefCell::new(MittsShaper::new(bins))));
        sys
    };
    for cycles in 1..300 {
        assert_snapshot_bytes_engine_independent(cycles, |e| striding(e, 1, None));
        assert_snapshot_bytes_engine_independent(cycles, |e| striding(e, 3, None));
        assert_snapshot_bytes_engine_independent(cycles, |e| striding(e, 3, Some(150)));
        assert_snapshot_bytes_engine_independent(cycles, shaped);
    }
}

#[test]
fn snapshots_resume_across_engines() {
    // Take the snapshot under one engine, resume under another: every
    // (producer, consumer) pair must reconverge on the all-naive
    // uninterrupted end state.
    let benches = [Benchmark::Libquantum, Benchmark::Omnetpp];
    let mut reference = build(&benches, "FR-FCFS", Engine::Naive, false);
    reference.sys.run_cycles(16_000);
    let want = reference.sys.system_stats();

    for producer in [Engine::Naive, Engine::Skip] {
        let mut rig = build(&benches, "FR-FCFS", producer, false);
        rig.sys.run_cycles(6_000);
        let snap = rig.sys.snapshot().unwrap();
        for consumer in [Engine::Naive, Engine::Skip] {
            let mut resumed = resume(&benches, "FR-FCFS", consumer, false, &snap)
                .expect("cross-engine resume must be accepted");
            resumed.sys.run_cycles(10_000);
            assert_eq!(
                want,
                resumed.sys.system_stats(),
                "{producer:?} snapshot resumed under {consumer:?} diverged"
            );
        }
    }
}

#[test]
fn a_mismatched_twin_refuses_the_snapshot() {
    let mut rig =
        build(&[Benchmark::Mcf, Benchmark::Libquantum], "FR-FCFS", Engine::Naive, false);
    rig.sys.run_cycles(3_000);
    let snap = rig.sys.snapshot().unwrap();

    // Fewer cores.
    let err = resume(&[Benchmark::Mcf], "FR-FCFS", Engine::Naive, false, &snap)
        .err()
        .expect("a 1-core twin must refuse a 2-core snapshot");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");

    // Different scheduler implementation.
    let err =
        resume(&[Benchmark::Mcf, Benchmark::Libquantum], "TCM", Engine::Naive, false, &snap)
            .err()
            .expect("a TCM twin must refuse an FR-FCFS snapshot");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");

    // Shaped twin vs unshaped snapshot.
    let err =
        resume(&[Benchmark::Mcf, Benchmark::Libquantum], "FR-FCFS", Engine::Naive, true, &snap)
            .err()
            .expect("a shaped twin must refuse an unshaped snapshot");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");
}

#[test]
fn controller_logging_follows_the_twin_not_the_snapshot() {
    // Whether a controller logs its dispatches follows from how the
    // restoring system is built (auditing, a trace sink), not from the
    // snapshotted run: the twin's trace must carry every DRAM dispatch
    // after the resume. The auditor's pick count is part of the snapshot,
    // so the twin ends having checked exactly as many picks as the
    // uninterrupted run.
    let mut cfg = SystemConfig::single_program();
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    let traced = |engine: Engine, sink: &Rc<RefCell<RingSink>>| {
        SystemBuilder::new(cfg.clone())
            .trace(0, Box::new(Benchmark::Libquantum.profile().trace(base_for(0), 0xF0)))
            .engine(engine)
            .trace_sink(Box::new(Rc::clone(sink)))
    };
    let dispatched = |sys: &System| -> u64 {
        sys.system_stats().channels.iter().map(|c| c.dispatched).sum()
    };
    for engine in [Engine::Naive, Engine::Skip] {
        let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
        let mut original = traced(engine, &sink).build();
        original.run_cycles(5_000);
        let snap = original.snapshot().unwrap();
        let before = dispatched(&original);
        original.run_cycles(5_000);

        let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
        let mut twin = traced(engine, &sink).resume_from(&snap).expect("same build");
        twin.run_cycles(5_000);
        twin.flush_trace();

        let tag = format!("{engine:?}");
        let resumed = dispatched(&twin) - before;
        assert!(resumed > 0, "{tag}: the resumed window must dispatch");
        let traced_dispatches = sink
            .borrow()
            .events()
            .filter(|e| matches!(e, TraceEvent::DramDispatch { .. }))
            .count() as u64;
        assert_eq!(traced_dispatches, resumed, "{tag}: every dispatch after the resume is traced");
        let picks = original.auditor().picks_checked();
        assert!(picks > before, "{tag}: the run's picks are checked");
        assert_eq!(twin.auditor().picks_checked(), picks, "{tag}");
        assert_eq!(original.system_stats(), twin.system_stats(), "{tag}");
    }
}

#[test]
fn a_fresh_registry_on_a_resumed_twin_sees_the_uninterrupted_epochs() {
    // The snapshot lands mid-epoch. The twin's registry starts empty, yet
    // its first epoch must cover one sampling interval (not the whole
    // history before the resume) and count that epoch's fills from both
    // sides of the snapshot, like every later epoch.
    let benches = [Benchmark::Mcf, Benchmark::Libquantum];
    let (snap_at, total) = (60_500, 66_560);
    let mut cfg = SystemConfig::multi_program(benches.len());
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    for engine in [Engine::Naive, Engine::Skip] {
        let build = |snap: Option<&Snapshot>| {
            let metrics = Rc::new(RefCell::new(MetricsRegistry::new()));
            let mut b = SystemBuilder::new(cfg.clone())
                .scheduler(make_baseline("FR-FCFS", benches.len()).expect("known scheduler"))
                .trace_sink(Box::new(Rc::clone(&metrics)))
                .sample_every(1024)
                .engine(engine);
            for (i, &bench) in benches.iter().enumerate() {
                let sh = Rc::new(RefCell::new(MittsShaper::new(sparse_mitts_config())));
                b = b
                    .trace(i, Box::new(bench.profile().trace(base_for(i), 0xF0 + i as u64)))
                    .shaper(i, sh);
            }
            let sys = match snap {
                Some(snap) => b.resume_from(snap).expect("an identical twin accepts the snapshot"),
                None => b.build(),
            };
            (sys, metrics)
        };
        let (mut reference, ref_metrics) = build(None);
        reference.run_cycles(snap_at);
        let snap = reference.snapshot().expect("snapshot must be supported");
        reference.run_cycles(total - snap_at);
        let (mut twin, twin_metrics) = build(Some(&snap));
        twin.run_cycles(total - snap_at);

        let expected: Vec<_> =
            ref_metrics.borrow().epochs().iter().filter(|e| e.at >= snap_at).cloned().collect();
        assert_eq!(expected.len(), 5, "{engine:?}: boundaries 61440..=65536");
        assert!(
            expected[0].cores.iter().all(|c| c.fills > 0),
            "{engine:?}: the epoch straddling the snapshot must have fills on every core"
        );
        assert_eq!(twin_metrics.borrow().epochs(), &expected[..], "{engine:?}");
    }
}
