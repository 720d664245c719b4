//! Component-granularity checkpoint conformance: every snapshot-capable
//! piece of the machine must round-trip encode → decode → re-encode to
//! bit-identical bytes, and a corrupted snapshot must surface as a
//! [`SnapshotError`] — never a panic, never a silently wrong machine.
//!
//! The system-level suite (`snapshot_equivalence.rs`) proves resumed
//! *runs* are indistinguishable; this one pins the per-component wire
//! formats those runs are built from, so a codec regression is caught at
//! the component that broke rather than as a whole-system divergence.

use mitts_sim::config::{CoreConfig, DramConfig, SystemConfig};
use mitts_sim::core::{Core, MemIssue};
use mitts_sim::dram::Dram;
use mitts_sim::oracle::DramOracle;
use mitts_sim::histogram::InterArrivalHistogram;
use mitts_sim::rng::Rng;
use mitts_sim::shaper::{ShapeDecision, SourceShaper, StaticRateShaper};
use mitts_sim::snapshot::{Dec, Enc, Snapshot, SnapshotError};
use mitts_sim::system::{System, SystemBuilder};
use mitts_sim::trace::{StrideTrace, TraceSource};
use mitts_sim::types::{Cycle, MemCmd, OpId};

/// Encode → decode into `fresh` → re-encode; the two encodings must be
/// bit-identical and the decode must consume every byte.
fn round_trip<T>(
    original: &T,
    fresh: &mut T,
    save: impl Fn(&T, &mut Enc),
    load: impl Fn(&mut T, &mut Dec<'_>) -> Result<(), SnapshotError>,
) -> Vec<u8> {
    let mut e = Enc::new();
    save(original, &mut e);
    let bytes = e.into_bytes();
    let mut d = Dec::new(&bytes);
    load(fresh, &mut d).expect("decode must succeed on its own encoding");
    d.finish().expect("decode must consume the whole encoding");
    let mut e2 = Enc::new();
    save(fresh, &mut e2);
    let bytes2 = e2.into_bytes();
    assert_eq!(bytes, bytes2, "re-encode after decode must be bit-identical");
    bytes
}

#[test]
fn rng_round_trips_and_continues_the_same_stream() {
    let mut rng = Rng::seeded(0xDECAF);
    for _ in 0..257 {
        rng.next_u64();
    }
    let mut twin = Rng::seeded(0);
    round_trip(
        &rng,
        &mut twin,
        |r, e| r.save_state(e),
        |r, d| r.load_state(d),
    );
    // Positions equal is necessary; the *future stream* equal is the
    // actual contract a resumed run depends on.
    for i in 0..64 {
        assert_eq!(rng.next_u64(), twin.next_u64(), "stream diverged at draw {i}");
    }
}

#[test]
fn inter_arrival_histogram_round_trips() {
    let mut h = InterArrivalHistogram::new(10, 8);
    for gap in [0u64, 3, 7, 8, 63, 64, 80, 1000, 5] {
        h.record_gap(gap);
    }
    h.record_arrival(100);
    h.record_arrival(137);
    let mut twin = InterArrivalHistogram::new(10, 8);
    round_trip(
        &h,
        &mut twin,
        |h, e| h.save_state(e),
        |h, d| h.load_state(d),
    );
    assert_eq!(h.counts(), twin.counts());
    assert_eq!(h.overflow(), twin.overflow());
    // And the arrival reference point survives: the next arrival lands
    // in the same bin on both sides.
    h.record_arrival(150);
    twin.record_arrival(150);
    assert_eq!(h.counts(), twin.counts());
}

#[test]
fn inter_arrival_histogram_rejects_foreign_geometry() {
    let mut h = InterArrivalHistogram::new(10, 8);
    h.record_gap(12);
    let mut e = Enc::new();
    h.save_state(&mut e);
    let bytes = e.into_bytes();
    let mut wrong = InterArrivalHistogram::new(12, 8);
    let err = wrong
        .load_state(&mut Dec::new(&bytes))
        .expect_err("a different bin count must not load");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");
}

#[test]
fn dram_channel_round_trips_mid_flight() {
    let cfg = DramConfig::default();
    let freq = 2.4e9;
    let mut dram: Dram<u64> = Dram::new(&cfg, freq);
    // Drive it into an interesting posture: open rows, in-flight
    // completions, a row conflict, and some bus history.
    let mut now = 0;
    for (i, addr) in [0x0u64, 0x40, 0x1_0000, 0x8_0000, 0x100].iter().enumerate() {
        while !dram.can_start(now, *addr) {
            now += 1;
        }
        now = dram.start(now, *addr, MemCmd::Read, i as u64);
    }
    let mut twin: Dram<u64> = Dram::new(&cfg, freq);
    round_trip(
        &dram,
        &mut twin,
        |d, e| d.save_state(e, |e, t| e.u64(*t)),
        |d, dec| d.load_state(dec, |dec| dec.u64()),
    );
    assert_eq!(dram.next_completion(), twin.next_completion());
    assert_eq!(dram.row_stats(), twin.row_stats());
    assert_eq!(dram.inflight_len(), twin.inflight_len());
    // Drain far in the future: identical tokens in identical order.
    let horizon = now + 1_000_000;
    let a: Vec<_> = dram.drain_completions(horizon).into_iter().map(|c| c.token).collect();
    let b: Vec<_> = twin.drain_completions(horizon).into_iter().map(|c| c.token).collect();
    assert_eq!(a, b, "resumed channel must complete the same requests in the same order");
}

#[test]
fn dram_rejects_a_snapshot_with_different_bank_count() {
    let small = DramConfig { banks: 4, ..DramConfig::default() };
    let big = DramConfig { banks: 8, ..DramConfig::default() };
    let dram: Dram<u64> = Dram::new(&small, 2.4e9);
    let mut e = Enc::new();
    dram.save_state(&mut e, |e, t| e.u64(*t));
    let bytes = e.into_bytes();
    let mut other: Dram<u64> = Dram::new(&big, 2.4e9);
    let err = other
        .load_state(&mut Dec::new(&bytes), |d| d.u64())
        .expect_err("a different geometry must not load");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");
}

/// Dispatches `n` random requests on `dram` (row hits, misses, conflicts,
/// reads and writes), feeding each dispatch record to every oracle.
fn dispatch_random(
    dram: &mut Dram<u64>,
    now: &mut u64,
    rng: &mut Rng,
    n: u64,
    oracles: &mut [&mut DramOracle],
) {
    for i in 0..n {
        let addr = if rng.chance(0.5) { rng.below(4) * 64 } else { rng.below(1 << 18) * 64 };
        let cmd = if rng.chance(0.3) { MemCmd::Write } else { MemCmd::Read };
        while !dram.can_start(*now, addr) {
            *now += 1;
        }
        dram.start(*now, addr, cmd, i);
        let svc = dram.last_service().expect("service recorded");
        for o in oracles.iter_mut() {
            o.check(*now, 0, addr, !cmd.is_read(), &svc);
        }
        *now += 1 + rng.below(8);
    }
}

#[test]
fn dram_oracle_shadow_round_trips_mid_flight() {
    // Refresh every ~720 cycles, so the shadow carries a live refresh
    // schedule as well as open rows and bus/ACT fences.
    let cfg = DramConfig { t_refi_ns: 300.0, ..DramConfig::default() };
    let freq = 2.4e9;
    let fresh = || DramOracle::new(cfg.timing_cycles(freq), cfg.banks, cfg.row_bytes as u64, 1);
    let mut dram: Dram<u64> = Dram::new(&cfg, freq);
    let (mut now, mut rng) = (0, Rng::seeded(0x5EED));
    let mut oracle = fresh();
    dispatch_random(&mut dram, &mut now, &mut rng, 200, &mut [&mut oracle]);
    let mut twin = fresh();
    round_trip(&oracle, &mut twin, |o, e| o.save_state(e), |o, d| o.load_state(d));
    assert_eq!(oracle.dispatches_checked(), twin.dispatches_checked());
    // Continue the same channel: the restored shadow must judge every
    // later dispatch (row hits on rows opened before the snapshot
    // included) exactly as the original does, and both find it legal.
    dispatch_random(&mut dram, &mut now, &mut rng, 200, &mut [&mut oracle, &mut twin]);
    assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());
    assert!(twin.violations().is_empty(), "restored shadow diverged: {:?}", twin.violations());
    assert_eq!(twin.dispatches_checked(), 400);
}

#[test]
fn dram_oracle_rejects_a_shadow_with_different_bank_count() {
    let small = DramConfig { banks: 4, ..DramConfig::default() };
    let big = DramConfig { banks: 8, ..DramConfig::default() };
    let t = small.timing_cycles(2.4e9);
    let mut e = Enc::new();
    DramOracle::new(t, small.banks, small.row_bytes as u64, 1).save_state(&mut e);
    let bytes = e.into_bytes();
    let mut other = DramOracle::new(t, big.banks, big.row_bytes as u64, 1);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        other.load_state(&mut Dec::new(&bytes))
    }));
    match result {
        Ok(Err(SnapshotError::Mismatch(_))) => {}
        Ok(other) => panic!("a different bank count must be a Mismatch, got {other:?}"),
        Err(_) => panic!("a different bank count caused a panic"),
    }
}

#[test]
fn static_rate_shaper_round_trips_mid_gap() {
    let mut s = StaticRateShaper::new(10);
    let mut last_grant = 0;
    for now in (0..400u64).step_by(3) {
        s.tick(now);
        if let ShapeDecision::Grant(_) = s.try_issue(now) {
            last_grant = now;
        }
    }
    // The snapshot is taken inside the gap after the last grant, so the
    // twin must restore when that grant happened, not just the interval.
    let at = 400;
    assert!(at < last_grant + 10, "snapshot point {at} must sit mid-gap");
    let mut twin = StaticRateShaper::new(10);
    round_trip(
        &s,
        &mut twin,
        |s, e| s.save_state(e),
        |s, d| s.load_state(d),
    );
    // Future decisions agree cycle for cycle.
    for now in at..1200u64 {
        s.tick(now);
        twin.tick(now);
        assert_eq!(
            s.try_issue(now).is_grant(),
            twin.try_issue(now).is_grant(),
            "decision diverged at cycle {now}"
        );
    }
    // A different interval is a configuration mismatch, not a restore.
    let mut e = Enc::new();
    s.save_state(&mut e);
    let bytes = e.into_bytes();
    assert!(matches!(
        StaticRateShaper::new(11).load_state(&mut Dec::new(&bytes)),
        Err(SnapshotError::Mismatch(_))
    ));
}

#[test]
fn stride_trace_round_trips_its_cursor() {
    let mut t = StrideTrace::new(3, 64, 4096).with_write_every(7);
    for _ in 0..123 {
        t.next_op();
    }
    let mut twin = StrideTrace::new(3, 64, 4096).with_write_every(7);
    round_trip(
        &t,
        &mut twin,
        |t, e| t.save_state(e),
        |t, d| t.load_state(d),
    );
    for i in 0..200 {
        let a = t.next_op();
        let b = twin.next_op();
        assert_eq!((a.addr, a.write, a.gap), (b.addr, b.write, b.gap), "op {i} diverged");
    }
}

#[test]
fn core_round_trips_a_completed_load_behind_a_pending_head() {
    let new_core = || Core::new(&CoreConfig::default(), Box::new(StrideTrace::new(0, 64, 1 << 20)));
    let mut issued: Vec<OpId> = Vec::new();
    let mut port = |_: Cycle, i: MemIssue| {
        issued.push(i.op);
        true
    };
    let mut core = new_core();
    core.tick(0, &mut port);
    core.tick(1, &mut port);
    // The second load completes while the first still blocks the head.
    core.complete(OpId::new(1));
    let mut twin = new_core();
    round_trip(&core, &mut twin, |c, e| c.save_state(e), |c, d| c.load_state(d));
    assert_eq!(twin.outstanding_loads(), core.outstanding_loads());
    // Only the head completes from here on: the twin retires the second
    // load too only if its completion flag survived the round trip.
    for c in [&mut core, &mut twin] {
        c.complete(OpId::new(0));
        let mut reject = |_: Cycle, _: MemIssue| false;
        c.tick(2, &mut reject);
        assert_eq!(c.counters().instructions, 2);
    }
    assert_eq!(core.counters(), twin.counters());
}

/// The small system [`running_snapshot`] snapshots, freshly built.
fn small_system() -> System {
    SystemBuilder::new(SystemConfig::multi_program(2))
        .trace(0, Box::new(StrideTrace::new(2, 64, 1 << 20)))
        .trace(1, Box::new(StrideTrace::new(5, 64, 1 << 18).with_write_every(3)))
        .build()
}

/// Builds a small running system and takes its snapshot.
fn running_snapshot() -> Snapshot {
    let mut sys = small_system();
    sys.run_cycles(5_000);
    sys.snapshot().expect("a stride-traced system is snapshot-capable")
}

/// Rebuilds `snap` with section `name`'s payload cut to `keep` bytes and
/// the CRCs recomputed, so the container itself parses and any error
/// must come from the semantic layer (`restore`).
fn with_section_cut(snap: &Snapshot, name: &str, keep: usize) -> Snapshot {
    let mut writer = mitts_sim::snapshot::SnapshotWriter::new();
    for section in snap.section_names() {
        let payload = snap.section(section).unwrap();
        let cut = if section == name { keep } else { payload.len() };
        writer.section(section, |e| {
            for &b in &payload[..cut] {
                e.u8(b);
            }
        });
    }
    Snapshot::from_bytes(&writer.finish().to_bytes()).expect("recomputed CRCs must parse")
}

/// Restores `snap` into a fresh [`small_system`], turning a panic into a
/// test failure.
fn restore_small(snap: &Snapshot, what: &str) -> Result<(), SnapshotError> {
    let mut sys = small_system();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.restore(snap)))
        .unwrap_or_else(|_| panic!("{what} caused a panic instead of SnapshotError"))
}

#[test]
fn corrupted_snapshot_bytes_error_out_instead_of_panicking() {
    let snap = running_snapshot();
    let good = snap.to_bytes();
    // Sanity: the pristine bytes parse.
    Snapshot::from_bytes(&good).expect("pristine snapshot must parse");
    // Flip one byte at a spread of offsets covering the magic, the
    // version word, section headers, payload bodies, and the trailing
    // container CRC. Every flip must surface as Err — the CRC layers
    // make a silent wrong parse impossible and a panic is a bug.
    let offsets: Vec<usize> =
        [0, 4, 8, 9, 13, good.len() / 3, good.len() / 2, good.len() - 5, good.len() - 1]
            .into_iter()
            .collect();
    for off in offsets {
        let mut bad = good.clone();
        bad[off] ^= 0x01;
        let result = std::panic::catch_unwind(|| Snapshot::from_bytes(&bad));
        match result {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("flipped byte {off} parsed as a valid snapshot"),
            Err(_) => panic!("flipped byte {off} caused a panic instead of SnapshotError"),
        }
    }
    // Truncations must also be errors, not panics.
    for cut in [0, 1, 7, 8, good.len() / 2, good.len() - 1] {
        let result = std::panic::catch_unwind(|| Snapshot::from_bytes(&good[..cut]));
        match result {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("truncation to {cut} bytes parsed as a valid snapshot"),
            Err(_) => panic!("truncation to {cut} bytes caused a panic"),
        }
    }
}

#[test]
fn restoring_a_tampered_section_errors_out() {
    let snap = running_snapshot();
    let len = snap.section("core0").unwrap().len();
    let tampered = with_section_cut(&snap, "core0", len - 1);
    restore_small(&tampered, "a truncated core0 section")
        .expect_err("tampered core0 section restored without an error");
}

#[test]
fn a_truncated_auditor_section_is_corrupt() {
    // The auditor section carries the violation log, the watchdog state
    // and the DDR3 oracle's shadow: every cut must be reported as corrupt.
    let snap = running_snapshot();
    let len = snap.section("audit").unwrap().len();
    for keep in (0..len).step_by(len / 24 + 1).chain([len - 1]) {
        let tampered = with_section_cut(&snap, "audit", keep);
        match restore_small(&tampered, &format!("an auditor section cut to {keep} bytes")) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("auditor section cut to {keep}/{len} bytes: got {other:?}"),
        }
    }
    restore_small(&snap, "the pristine snapshot").expect("the uncut snapshot restores");
}
