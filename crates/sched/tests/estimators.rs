//! Twin-run property tests pinning the `Scheduler::next_event` contract
//! for every baseline policy.
//!
//! The contract (see `Scheduler::next_event` in `mitts_sim::mc`): between
//! `now` (exclusive) and the returned cycle (exclusive), `tick` changes
//! nothing. The skip engine (`Engine::Skip`) leans on this to jump over
//! scheduler ticks, so an estimator that returns a cycle *later* than the
//! policy's first real behaviour change silently corrupts a run.
//!
//! Each test drives two clones of the same policy through an identical
//! randomized history of active bursts (per-cycle ticks with evolving
//! signals, synthetic enqueue/complete traffic) separated by quiescent
//! stretches. One twin ticks every quiescent cycle; the other ticks only
//! where the engines do, at each `next_event`. At the end the twins'
//! snapshot bytes, source controls, and forward estimates must be
//! identical.

use proptest::prelude::*;

use mitts_sched::{baseline_names, make_baseline};
use mitts_sim::mc::{CoreSignals, Scheduler, SourceControl, Transaction};
use mitts_sim::snapshot::Enc;
use mitts_sim::types::{CoreId, Cycle, MemCmd};

const CORES: usize = 2;

/// One randomized phase of history: an active burst followed by a
/// quiescent stretch.
#[derive(Debug, Clone)]
struct Segment {
    active: u64,
    idle: u64,
    /// Synthetic transactions held in the controller across the segment
    /// (enqueued at the burst's start, completed at its end).
    txns: u8,
}

fn segments() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec(
        (0u64..40, 0u64..6_000, 0u8..6)
            .prop_map(|(active, idle, txns)| Segment { active, idle, txns }),
        1..8,
    )
}

fn txn(id: u64, core: usize, now: Cycle) -> Transaction {
    Transaction {
        id,
        core: CoreId::new(core),
        addr: (id * 64) & 0xF_FFFF,
        cmd: if id.is_multiple_of(3) { MemCmd::Write } else { MemCmd::Read },
        enqueued_at: now,
    }
}

/// Advances the evolving per-core signals by one active cycle.
fn bump(signals: &mut [CoreSignals], c: Cycle) {
    for (i, s) in signals.iter_mut().enumerate() {
        s.instructions += 1 + (c + i as u64) % 3;
        if (c + i as u64).is_multiple_of(4) {
            s.mem_stall_cycles += 1;
            s.l1_misses += 1;
        }
        if (c + i as u64).is_multiple_of(7) {
            s.llc_misses += 1;
            s.mem_completed += 1;
            s.mem_latency_sum += 40 + c % 90;
        }
    }
}

/// Runs `sched` through `segs`; `skip` selects the quiescent-stretch
/// strategy (per-cycle ticking vs ticking only at `next_event`).
/// Returns the final cycle so callers can probe forward estimates.
fn drive(
    sched: &mut Box<dyn Scheduler>,
    ctl: &mut SourceControl,
    segs: &[Segment],
    skip: bool,
) -> Cycle {
    let mut signals = vec![CoreSignals::default(); CORES];
    let mut c: Cycle = 0;
    let mut next_id: u64 = 1;
    for seg in segs {
        // Active burst: both twins tick every cycle with moving signals
        // and identical synthetic controller traffic.
        let mut held = Vec::new();
        for k in 0..seg.txns {
            let t = txn(next_id, (k as usize) % CORES, c);
            next_id += 1;
            sched.on_enqueue(c, &t);
            held.push(t);
        }
        for _ in 0..seg.active {
            bump(&mut signals, c);
            sched.tick(c, &signals, ctl);
            c += 1;
        }
        // Quiescent stretch: frozen signals and occupancy (the held
        // transactions stay resident, so policies that watch controller
        // occupancy see a constant — possibly congested — value).
        let end = c + seg.idle;
        while c < end {
            sched.tick(c, &signals, ctl);
            c = if skip { sched.next_event(c).map_or(end, |t| t.min(end)) } else { c + 1 };
        }
        for (k, t) in held.into_iter().enumerate() {
            sched.on_complete(c, &t, k % 2 == 0);
        }
    }
    c
}

fn state_bytes(sched: &dyn Scheduler, ctl: &SourceControl) -> (Vec<u8>, Vec<u8>) {
    let mut se = Enc::new();
    sched.save_state(&mut se);
    let mut ce = Enc::new();
    ctl.save_state(&mut ce);
    (se.into_bytes(), ce.into_bytes())
}

fn assert_twins_agree(name: &str, segs: &[Segment]) -> Result<(), TestCaseError> {
    let mut naive = make_baseline(name, CORES).expect("known baseline");
    let mut skipping = make_baseline(name, CORES).expect("known baseline");
    let mut naive_ctl = SourceControl::new(CORES);
    let mut skip_ctl = SourceControl::new(CORES);

    let end_a = drive(&mut naive, &mut naive_ctl, segs, false);
    let end_b = drive(&mut skipping, &mut skip_ctl, segs, true);
    prop_assert_eq!(end_a, end_b, "{}: twins ended on different cycles", name);

    let (ns, nc) = state_bytes(naive.as_ref(), &naive_ctl);
    let (ss, sc) = state_bytes(skipping.as_ref(), &skip_ctl);
    prop_assert_eq!(
        ns, ss,
        "{}: skipped-run scheduler state diverged from per-cycle ticking", name
    );
    prop_assert_eq!(
        nc, sc,
        "{}: skipped-run source controls diverged from per-cycle ticking", name
    );
    // The twins must also agree on where the next behaviour change is —
    // a divergent forward estimate means hidden state escaped save_state.
    prop_assert_eq!(
        naive.next_event(end_a),
        skipping.next_event(end_b),
        "{}: forward estimates diverge after identical histories", name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every baseline policy (plus plain FCFS and the congestion-guard
    /// wrapper) survives the skip harness bit-exactly.
    #[test]
    fn scheduler_skip_twins_are_bit_exact(segs in segments()) {
        for name in baseline_names()
            .iter()
            .copied()
            .chain(["FCFS", "FR-FCFS+CG"])
        {
            assert_twins_agree(name, &segs)?;
        }
    }

    /// The congestion guard under sustained saturation: enough live
    /// transactions to trip its occupancy threshold, so the skip harness
    /// crosses evaluation boundaries with a non-zero gap in play.
    #[test]
    fn congestion_guard_saturated_skip_twin(
        idle_a in 1_500u64..8_000,
        idle_b in 1_500u64..8_000,
        txns in 33u8..80,
    ) {
        let segs = [
            Segment { active: 8, idle: idle_a, txns },
            Segment { active: 8, idle: idle_b, txns },
            Segment { active: 4, idle: 2_500, txns: 0 },
        ];
        assert_twins_agree("FR-FCFS+CG", &segs)?;
    }
}
