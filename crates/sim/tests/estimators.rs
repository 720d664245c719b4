//! Property tests pinning the `next_event()` estimator contracts the
//! skip engine (`Engine::Skip`) is built on.
//!
//! Every estimator answers the same question — "from `now`, what is the
//! earliest cycle at which this component's state could change in a way
//! per-cycle ticking would observe?" — and every one of them is allowed
//! to be *conservative* (early: the engine just re-probes there) but
//! never *late* (a late estimate makes the engine skip over a
//! state-changing cycle, silently corrupting the run). These tests
//! brute-force that one-sided bound against the components' real
//! per-cycle behaviour under randomized histories.
//!
//! Estimators that are `pub(crate)` (fault plans, audit boundaries, the
//! watchdog) are pinned by unit proptests inside `crates/sim/src/audit.rs`;
//! scheduler `next_event`/`note_idle_cycles` twins are pinned in
//! `crates/sched/tests/estimators.rs`; the MITTS shaper's own bound has a
//! dedicated unit test in `crates/core/src/shaper.rs`.

use proptest::prelude::*;

use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sim::config::{DramConfig, McConfig};
use mitts_sim::dram::Dram;
use mitts_sim::mc::{FcfsScheduler, MemoryController};
use mitts_sim::obs::Sampler;
use mitts_sim::shaper::{
    CbsShaper, RegulatorShaper, ShapeDecision, ShaperContract, SourceShaper, StaticRateShaper,
};
use mitts_sim::types::{CoreId, Cycle, MemCmd};

/// Drives `shaper` from `from` (exclusive) to `to` (inclusive) with the
/// per-cycle housekeeping tick, then asks for an issue at `to`.
fn tick_to_and_try(shaper: &mut impl SourceShaper, from: Cycle, to: Cycle) -> ShapeDecision {
    for c in from + 1..=to {
        shaper.tick(c);
    }
    shaper.try_issue(to)
}

/// Walks `shaper` forward by each of `gaps`, attempting an issue at the
/// end of every step, and returns the cycle it stopped at.
fn warm_up(shaper: &mut impl SourceShaper, gaps: &[Cycle]) -> Cycle {
    let mut now = 0;
    for &gap in gaps {
        let to = now + gap;
        let _ = tick_to_and_try(shaper, now, to);
        now = to;
    }
    now
}

/// A CBS credit ceiling of `hi`, nudged up to keep the credit band
/// `(-lo, hi]` non-empty.
fn cbs_hi(hi: u64, lo: u64) -> i64 {
    if hi == 0 && lo == 0 { 1 } else { hi as i64 }
}

/// The one-sided estimator bound, generically: if the shaper denies at
/// `now`, no cycle strictly before `next_grant_event(now)` may grant.
fn assert_grant_estimate_never_late<S: SourceShaper + Clone>(
    shaper: &S,
    now: Cycle,
    horizon: Cycle,
) -> Result<(), TestCaseError> {
    if !matches!(shaper.clone().try_issue(now), ShapeDecision::Deny) {
        return Ok(()); // nothing pending to estimate
    }
    match shaper.next_grant_event(now) {
        Some(est) => {
            prop_assert!(est > now, "estimate {est} must be strictly after now {now}");
            for c in now + 1..est.min(now + horizon) {
                let decision = tick_to_and_try(&mut shaper.clone(), now, c);
                prop_assert!(
                    matches!(decision, ShapeDecision::Deny),
                    "estimate {est} is late: grant possible at {c} (> now {now})"
                );
            }
        }
        None => {
            // "Waiting is hopeless": no cycle in any horizon may grant.
            for c in now + 1..now + horizon {
                let decision = tick_to_and_try(&mut shaper.clone(), now, c);
                prop_assert!(
                    matches!(decision, ShapeDecision::Deny),
                    "estimator said never, but cycle {c} grants"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    /// `Dram::earliest_start` is exact: within `[now, est)` the bank
    /// rejects the address every cycle, and at `est` it accepts it
    /// (absent intervening starts).
    #[test]
    fn dram_earliest_start_is_never_late_and_exact(
        reqs in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 1..32),
        probe_addr in 0u64..1_000_000,
        wait in 0u64..64,
    ) {
        let mut d: Dram<usize> = Dram::new(&DramConfig::default(), 2.4e9);
        let mut now = 0;
        for (i, &(addr, write)) in reqs.iter().enumerate() {
            let addr = addr & !63;
            while !d.can_start(now, addr) {
                now += 1;
            }
            let cmd = if write { MemCmd::Write } else { MemCmd::Read };
            d.start(now, addr, cmd, i);
        }
        let probe_addr = probe_addr & !63;
        let probe_at = now + wait;
        let est = d.earliest_start(probe_at, probe_addr);
        prop_assert!(est >= probe_at, "estimate {est} in the past of {probe_at}");
        for c in probe_at..est {
            prop_assert!(
                !d.can_start(c, probe_addr),
                "estimate {est} is late: bank accepts at {c} (>= {probe_at})"
            );
        }
        prop_assert!(
            d.can_start(est, probe_addr),
            "estimate {est} is conservative for a *bank* deadline: must be exact"
        );
    }

    /// `Dram::next_completion` is the first cycle at which draining
    /// returns anything: one cycle earlier yields nothing, the estimate
    /// itself yields at least one transaction.
    #[test]
    fn dram_next_completion_is_the_first_delivery(
        reqs in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 1..32),
    ) {
        let mut d: Dram<usize> = Dram::new(&DramConfig::default(), 2.4e9);
        let mut now = 0;
        for (i, &(addr, write)) in reqs.iter().enumerate() {
            let addr = addr & !63;
            while !d.can_start(now, addr) {
                now += 1;
            }
            let cmd = if write { MemCmd::Write } else { MemCmd::Read };
            d.start(now, addr, cmd, i);
        }
        let est = d.next_completion().expect("transactions are in flight");
        prop_assert!(d.drain_completions(est - 1).is_empty(), "completion before estimate {est}");
        prop_assert!(!d.drain_completions(est).is_empty(), "estimate {est} delivers nothing");
    }

    /// `StaticRateShaper::next_grant_event` never overshoots the first
    /// possible grant, whatever the interval and however many grants
    /// already happened.
    #[test]
    fn static_shaper_grant_estimate_is_never_late(
        interval in 1u64..50,
        warmup in proptest::collection::vec(0u64..8, 0..12),
    ) {
        let mut s = StaticRateShaper::new(interval);
        // Random warm-up: walk time forward, attempting issues.
        let now = warm_up(&mut s, &warmup);
        assert_grant_estimate_never_late(&s, now, interval + 8)?;
    }

    /// `RegulatorShaper::next_grant_event` never overshoots, across empty
    /// budgets, spent quotas and probe points on either side of a window
    /// boundary.
    #[test]
    fn regulator_grant_estimate_is_never_late(
        budget in 0u64..4,
        window in 10u64..200,
        warmup in proptest::collection::vec(0u64..8, 0..12),
    ) {
        let mut s = RegulatorShaper::new(budget, window);
        let now = warm_up(&mut s, &warmup);
        assert_grant_estimate_never_late(&s, now, 2 * window + 8)?;
    }

    /// `CbsShaper::next_grant_event` never overshoots, across credit
    /// bands, zero slopes (hopeless deficits) and zero floors.
    #[test]
    fn cbs_grant_estimate_is_never_late(
        idle_slope in 0u64..4,
        send_cost in 1u64..40,
        hi in 0u64..80,
        lo in 0u64..=60,
        warmup in proptest::collection::vec(0u64..8, 0..12),
    ) {
        let mut s = CbsShaper::new(idle_slope, send_cost, cbs_hi(hi, lo), -(lo as i64));
        let now = warm_up(&mut s, &warmup);
        assert_grant_estimate_never_late(&s, now, 70)?;
    }

    /// `MittsShaper::next_grant_event` (the paper's binned shaper) never
    /// overshoots, across sparse/empty credit layouts and mid-period
    /// probe points.
    #[test]
    fn mitts_shaper_grant_estimate_is_never_late(
        credits in proptest::collection::vec(0u32..4, BinSpec::paper_default().bins()),
        period in 100u64..3_000,
        warmup in proptest::collection::vec(0u64..40, 0..10),
    ) {
        let cfg = BinConfig::new(BinSpec::paper_default(), credits, period).unwrap();
        let mut s = MittsShaper::new(cfg);
        let now = warm_up(&mut s, &warmup);
        // Cap the brute-force horizon: one full replenish period past the
        // probe covers every time-driven grant source the shaper has.
        assert_grant_estimate_never_late(&s, now, period + 8)?;
    }

    /// `MemoryController::next_dispatch_opportunity` agrees with real
    /// dispatch under an unconditional policy (FCFS): a dispatch happens
    /// at exactly the cycles the estimator says one is possible.
    #[test]
    fn mc_dispatch_opportunity_is_never_late_and_exact(
        addrs in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 1..16),
        run in 200u64..800,
    ) {
        let cfg = McConfig::default();
        let mut mc = MemoryController::new(&cfg);
        let mut dram: Dram<mitts_sim::mc::TxnId> = Dram::new(&DramConfig::default(), 2.4e9);
        let mut sched = FcfsScheduler::new();
        for &(addr, write) in &addrs {
            let cmd = if write { MemCmd::Write } else { MemCmd::Read };
            let id = mc.try_enqueue(0, CoreId::new(0), addr & !63, cmd);
            prop_assert!(id.is_some(), "FIFO sized for the test load");
        }
        // First tick moves everything FIFO -> queue (test load fits), so
        // from here the estimator sees the complete candidate set.
        mc.tick(0, &mut sched, &mut dram, None);
        for c in 1..run {
            if mc.queue_len() == 0 {
                break;
            }
            // Drain finished transactions first so the only way
            // `inflight_len` can grow across the tick is a dispatch.
            let _ = mc.drain_completions(c, &mut sched, &mut dram);
            let est = mc.next_dispatch_opportunity(c, &dram);
            let before = dram.inflight_len();
            mc.tick(c, &mut sched, &mut dram, None);
            let dispatched = dram.inflight_len() > before;
            match est {
                Some(e) => {
                    prop_assert!(e >= c, "estimate {e} in the past of {c}");
                    if dispatched {
                        prop_assert!(
                            e == c,
                            "estimate {e} is late: dispatch happened at {c}"
                        );
                    } else {
                        prop_assert!(
                            e > c,
                            "estimate said dispatch possible at {c}, but FCFS found nothing"
                        );
                    }
                }
                None => prop_assert!(!dispatched, "dispatch with an empty estimate"),
            }
        }
    }

    /// The sampler's fast-forward clamp: the next boundary is strictly
    /// after `now`, at most one interval away, and on the interval grid —
    /// so clamped skips land samples exactly where per-cycle ticking
    /// would.
    #[test]
    fn sample_boundary_is_next_grid_point(interval in 1u64..5_000, now in 0u64..1_000_000) {
        let s = Sampler::new(interval);
        let b = s.next_boundary(now);
        prop_assert!(b > now);
        prop_assert!(b <= now + interval);
        prop_assert!(b.is_multiple_of(interval));
        prop_assert!(s.due(b), "the clamp target must itself be a due boundary");
        for c in now + 1..b {
            prop_assert!(!s.due(c), "boundary {c} inside the skip window");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every closed-form shaper keeps its grant stream inside the
    /// envelope it states as its contract. Random request arrivals queue in front of the shaper,
    /// which sees the head every cycle as the issue stage does. Every
    /// window of grants `t_i..=t_j` must hold at most
    /// `burst + (t_j - t_i) * rate_num / rate_den` of them (exact, scaled
    /// by `rate_den`), and every run of denied cycles must end within the
    /// stall bound.
    #[test]
    fn closed_form_shapers_stay_inside_their_envelope(
        kind in 0u8..3,
        a in 1u64..40,
        b in 1u64..40,
        hi in 0u64..80,
        lo in 0u64..=60,
        arrivals in proptest::collection::vec(0u64..30, 1..60),
    ) {
        // Slopes and budgets stay positive so every request is granted.
        let mut s: Box<dyn SourceShaper> = match kind {
            0 => Box::new(StaticRateShaper::new(a)),
            1 => Box::new(CbsShaper::new(1 + a % 4, b, cbs_hi(hi, lo), -(lo as i64))),
            _ => Box::new(RegulatorShaper::new(1 + a % 6, 10 * b)),
        };
        let Some(ShaperContract::Envelope(env)) = s.contract() else {
            panic!("closed-form shapers state an envelope");
        };
        prop_assert!(env.rate_den > 0);
        let mut due = Vec::new();
        let mut at = 0;
        for gap in arrivals {
            at += gap;
            due.push(at);
        }
        let mut grants: Vec<Cycle> = Vec::new();
        let mut denied_since: Option<Cycle> = None;
        let mut next = 0;
        let mut now = 0;
        while next < due.len() {
            s.tick(now);
            if due[next] <= now {
                if s.try_issue(now).is_grant() {
                    if let (Some(since), Some(bound)) = (denied_since, env.stall_bound) {
                        prop_assert!(
                            now - since <= bound,
                            "stall of {} cycles (since {since}) over the bound {bound}",
                            now - since
                        );
                    }
                    denied_since = None;
                    grants.push(now);
                    next += 1;
                } else {
                    denied_since.get_or_insert(now);
                }
            }
            now += 1;
        }
        for i in 0..grants.len() {
            for j in i..grants.len() {
                let count = (j - i + 1) as u128;
                let allowed = env.burst as u128 * env.rate_den as u128
                    + (grants[j] - grants[i]) as u128 * env.rate_num as u128;
                prop_assert!(
                    count * env.rate_den as u128 <= allowed,
                    "{count} grants in {}..={} exceed {env:?}",
                    grants[i],
                    grants[j]
                );
            }
        }
    }
}
