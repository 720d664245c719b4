//! Source-side traffic shaping interface.
//!
//! A [`SourceShaper`] sits on a core's L1-miss path (the hybrid placement
//! of §III-D) and decides, each time an L1 miss wants to leave the core,
//! whether it may issue *now*. The MITTS shaper in `mitts-core` is the
//! interesting implementation; this module provides the trait plus the two
//! trivial policies the paper compares against:
//!
//! * [`UnlimitedShaper`] — no shaping (baseline memory system);
//! * [`StaticRateShaper`] — the "static bandwidth allocation" of §IV-C: a
//!   constant request rate with no notion of inter-arrival distribution.
//!
//! It also holds the two closed-form shapers of the extended comparison,
//! [`CbsShaper`] and [`RegulatorShaper`]. Every shaper states the
//! [`ShaperContract`] the invariant auditor checks it against: those and
//! the static limiter their token-bucket [`Envelope`], MITTS its §III bin
//! spec.

use crate::audit::CreditAudit;
use crate::oracle::MittsSpec;
use crate::types::Cycle;

/// Token identifying an issued request within its shaper, so the delayed
/// LLC hit/miss feedback (§III-D) can be matched back. The meaning of the
/// value is shaper-private (MITTS method 2 stores the bin index here).
pub type ShapeToken = u32;

/// Decision returned by [`SourceShaper::try_issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeDecision {
    /// The request may issue; the token travels with it and comes back in
    /// [`SourceShaper::on_llc_response`].
    Grant(ShapeToken),
    /// The request must stall at the core.
    Deny,
}

impl ShapeDecision {
    /// Whether the decision is a grant.
    pub fn is_grant(self) -> bool {
        matches!(self, ShapeDecision::Grant(_))
    }
}

/// The analytical envelope a closed-form shaper promises: a token-bucket
/// arrival curve and a bound on one shaper stall episode.
///
/// Over any grants at cycles `t_i <= t_j` the shaper issues at most
/// `burst + (t_j - t_i) * rate_num / rate_den` of them, the convention of
/// [`crate::oracle::NetCalcOracle`]: a bucket of `burst` tokens, full at
/// the start, refilled at `rate_num / rate_den` tokens per cycle, one
/// token per grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Long-run rate numerator: at most `rate_num / rate_den` requests
    /// per cycle.
    pub rate_num: u64,
    /// Long-run rate denominator (cycles per `rate_num` requests).
    pub rate_den: u64,
    /// Requests admissible back-to-back beyond the long-run rate.
    pub burst: u64,
    /// Longest shaper stall episode (first denied cycle to the first
    /// cycle the issue stage stops reporting a shaper denial), or `None`
    /// when waiting may never help.
    pub stall_bound: Option<Cycle>,
}

/// What a shaper promises, and so what the invariant auditor checks it
/// against (see [`SourceShaper::contract`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShaperContract {
    /// The §III bin/credit machine, re-executed by
    /// [`crate::oracle::ShaperOracle`].
    Bins(MittsSpec),
    /// A token-bucket envelope, checked by
    /// [`crate::oracle::NetCalcOracle`].
    Envelope(Envelope),
}

/// A source-side bandwidth shaper attached to one core's L1-miss path.
///
/// Implementations measure the inter-arrival time between *granted* issues
/// themselves (the grant time is the request's departure from the core),
/// so callers only report time.
pub trait SourceShaper {
    /// Policy name for experiment tables.
    fn name(&self) -> &str;

    /// Called once per cycle for housekeeping (credit replenishment).
    fn tick(&mut self, now: Cycle);

    /// Asks whether the L1 miss at the head of the core's miss queue may
    /// issue at `now`. A grant consumes whatever budget the policy tracks.
    fn try_issue(&mut self, now: Cycle) -> ShapeDecision;

    /// Reports the LLC lookup outcome for a previously granted request
    /// (hybrid placement feedback, §III-D). `hit == true` means the
    /// request was *not* a memory request after all.
    fn on_llc_response(&mut self, now: Cycle, token: ShapeToken, hit: bool);

    /// Retired; always `0`. The issue stage counts each core's stall
    /// cycles in
    /// [`CoreStats::shaper_stall_cycles`](crate::stats::CoreStats::shaper_stall_cycles).
    #[deprecated(note = "read `CoreStats::shaper_stall_cycles`; shapers no longer count stalls")]
    fn stall_cycles(&self) -> u64 {
        0
    }

    /// Retired no-op; the issue stage counts stall cycles.
    #[deprecated(note = "the issue stage counts stalls in `CoreStats::shaper_stall_cycles`")]
    fn note_stall_cycle(&mut self) {}

    /// Retired no-op; the issue stage counts stall cycles.
    #[deprecated(note = "the issue stage counts stalls in `CoreStats::shaper_stall_cycles`")]
    fn note_stall_cycles(&mut self, _cycles: u64) {}

    /// Retired no-op; the issue stage counts stall cycles.
    #[deprecated(note = "the issue stage counts stalls in `CoreStats::shaper_stall_cycles`")]
    fn note_denied_cycles(&mut self, _cycles: u64) {}

    /// Earliest cycle strictly after `now` at which a currently denied
    /// request could possibly be granted by the passage of time alone
    /// (credit replenishment, interval expiry, bin aging), or `None` when
    /// no amount of waiting can flip the decision. Returning a cycle at
    /// which the request is *still* denied is allowed (the engine simply
    /// re-evaluates there); returning a cycle *later* than the first
    /// possible grant is not.
    ///
    /// The default is the conservative `Some(now + 1)`: shapers that have
    /// not been audited for skip-safety never let the skip engine
    /// jump over a pending request.
    fn next_grant_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Snapshot of the shaper's credit state (live vs maximum per bin)
    /// for stall reports, samples and shaper-config trace events.
    /// Policies without bounded credit state return the default empty
    /// snapshot.
    fn credit_audit(&self) -> CreditAudit {
        CreditAudit::default()
    }

    /// The contract this shaper is checked against, or `None` when it
    /// promises nothing (the pass-through). The auditor keeps one oracle
    /// per shaper instance. It restarts a bin-spec oracle whenever the
    /// stated spec changes (a reconfiguration), so a spec must change
    /// exactly when the shaper's behaviour does; an envelope, and the
    /// kind of contract, must not change.
    fn contract(&self) -> Option<ShaperContract> {
        None
    }

    /// Stable identifier of this shaper's checkpoint payload, or `None`
    /// when the shaper does not support checkpointing. A system holding a
    /// shaper that returns `None` refuses to snapshot with a clear error.
    fn snapshot_kind(&self) -> Option<&'static str> {
        None
    }

    /// Encodes all mutable shaper state (credits, replenish phase,
    /// counters). Only called when [`SourceShaper::snapshot_kind`] is
    /// `Some`.
    fn save_state(&self, _enc: &mut crate::snapshot::Enc) {}

    /// Restores state written by [`SourceShaper::save_state`]. The system
    /// verifies [`SourceShaper::snapshot_kind`] matches before calling
    /// this.
    fn load_state(
        &mut self,
        _dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        Err(crate::snapshot::SnapshotError::unsupported(format!("shaper `{}`", self.name())))
    }
}

/// Pass-through shaper: every request issues immediately.
#[derive(Debug, Clone, Default)]
pub struct UnlimitedShaper;

impl UnlimitedShaper {
    /// Creates the pass-through shaper.
    pub fn new() -> Self {
        UnlimitedShaper
    }
}

impl SourceShaper for UnlimitedShaper {
    fn name(&self) -> &str {
        "unlimited"
    }

    fn tick(&mut self, _now: Cycle) {}

    fn try_issue(&mut self, _now: Cycle) -> ShapeDecision {
        ShapeDecision::Grant(0)
    }

    fn on_llc_response(&mut self, _now: Cycle, _token: ShapeToken, _hit: bool) {}

    fn next_grant_event(&self, _now: Cycle) -> Option<Cycle> {
        None // never denies, so there is nothing to wait for
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("unlimited")
    }

    /// Stateless: the payload is empty.
    fn load_state(
        &mut self,
        _dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        Ok(())
    }
}

/// Constant-rate limiter: at most one request every `interval` cycles.
///
/// This models the paper's *static bandwidth allocation* baseline, which
/// "can limit a program's memory requests at or below a constant rate but
/// cannot take into account inter-arrival times" (§IV-C). It is exactly
/// equivalent to a MITTS configuration with all credits in a single bin.
///
/// # Examples
///
/// ```
/// use mitts_sim::shaper::{SourceShaper, StaticRateShaper};
/// let mut s = StaticRateShaper::new(10);
/// assert!(s.try_issue(0).is_grant());
/// assert!(!s.try_issue(5).is_grant()); // too soon
/// assert!(s.try_issue(10).is_grant());
/// ```
#[derive(Debug, Clone)]
pub struct StaticRateShaper {
    interval: Cycle,
    last_issue: Option<Cycle>,
}

impl StaticRateShaper {
    /// A limiter with a minimum inter-request `interval` (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` (use [`UnlimitedShaper`] for no shaping).
    pub fn new(interval: Cycle) -> Self {
        assert!(interval > 0, "interval must be positive");
        StaticRateShaper { interval, last_issue: None }
    }
}

impl SourceShaper for StaticRateShaper {
    fn name(&self) -> &str {
        "static-rate"
    }

    fn tick(&mut self, _now: Cycle) {}

    fn try_issue(&mut self, now: Cycle) -> ShapeDecision {
        if let Some(last) = self.last_issue {
            if now < last + self.interval {
                return ShapeDecision::Deny;
            }
        }
        self.last_issue = Some(now);
        ShapeDecision::Grant(0)
    }

    fn on_llc_response(&mut self, _now: Cycle, _token: ShapeToken, _hit: bool) {}

    fn next_grant_event(&self, now: Cycle) -> Option<Cycle> {
        Some(self.last_issue.map_or(now + 1, |last| (now + 1).max(last + self.interval)))
    }

    /// One request per `interval` with a burst of one: grants `interval`
    /// apart drain and refill the one-token bucket exactly. A denied head
    /// is granted `interval` cycles after the previous grant at the
    /// latest, and its episode starts a cycle after that grant, so
    /// `interval` bounds the episode with one cycle to spare.
    fn contract(&self) -> Option<ShaperContract> {
        Some(ShaperContract::Envelope(Envelope {
            rate_num: 1,
            rate_den: self.interval,
            burst: 1,
            stall_bound: Some(self.interval),
        }))
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("static-rate")
    }

    fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64(self.interval);
        enc.opt_u64(self.last_issue);
    }

    fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        if dec.u64()? != self.interval {
            return Err(SnapshotError::mismatch(
                "static-rate shaper configuration differs from the snapshot".to_owned(),
            ));
        }
        self.last_issue = dec.opt_u64()?;
        Ok(())
    }
}

/// TSN-style credit-based shaper (IEEE 802.1Qav CBS, adapted to the
/// per-core L1-miss path).
///
/// Credit accrues at `idle_slope` units per cycle up to `hi_credit`; a
/// request may issue whenever credit is non-negative, and each grant
/// costs `send_cost` units (clamped below at `lo_credit`). Unlike MITTS
/// this shaper has no notion of inter-arrival *distribution* — it bounds
/// the long-run rate (`idle_slope / send_cost` requests per cycle) and
/// the burst (`(hi_credit - lo_credit) / send_cost + 1` requests), which
/// makes it exactly the kind of curve a network-calculus oracle can
/// check against.
///
/// LLC hit/miss feedback is deliberately ignored: CBS reserves link
/// bandwidth per frame regardless of what the frame turns out to be, the
/// honest port of the TSN semantics (and the property the arrival-curve
/// oracle relies on).
///
/// # Examples
///
/// ```
/// use mitts_sim::shaper::{CbsShaper, SourceShaper};
/// // 1 credit/cycle, 10 per grant: one request every 10 cycles steady
/// // state, no burst allowance beyond the running credit.
/// let mut s = CbsShaper::new(1, 10, 0, -10);
/// assert!(s.try_issue(0).is_grant());
/// assert!(!s.try_issue(5).is_grant()); // credit still negative
/// s.tick(10);
/// assert!(s.try_issue(10).is_grant());
/// ```
#[derive(Debug, Clone)]
pub struct CbsShaper {
    idle_slope: u64,
    send_cost: u64,
    hi_credit: i64,
    lo_credit: i64,
    credit: i64,
    last_update: Cycle,
}

impl CbsShaper {
    /// Creates a credit-based shaper accruing `idle_slope` credit units
    /// per cycle, spending `send_cost` per grant, with credit bounded to
    /// `[lo_credit, hi_credit]`. Credit starts at zero (a request may
    /// issue immediately, like an idle TSN port).
    ///
    /// # Panics
    ///
    /// Panics if `send_cost == 0`, `hi_credit < 0`, `lo_credit > 0`, or
    /// `hi_credit <= lo_credit`.
    pub fn new(idle_slope: u64, send_cost: u64, hi_credit: i64, lo_credit: i64) -> Self {
        assert!(send_cost > 0, "send cost must be positive");
        assert!(hi_credit >= 0, "hi credit must admit a grant");
        assert!(lo_credit <= 0, "lo credit must not exceed the grant threshold");
        assert!(hi_credit > lo_credit, "credit band must be non-empty");
        CbsShaper {
            idle_slope,
            send_cost,
            hi_credit,
            lo_credit,
            credit: 0,
            last_update: 0,
        }
    }

    /// Credit value at `now` (pure: the accrual a catch-up tick would
    /// apply, without mutating).
    fn credit_at(&self, now: Cycle) -> i64 {
        let elapsed = now.saturating_sub(self.last_update);
        let gained = (self.idle_slope as i64).saturating_mul(elapsed.min(i64::MAX as u64) as i64);
        self.credit.saturating_add(gained).min(self.hi_credit)
    }

    fn advance(&mut self, now: Cycle) {
        if now > self.last_update {
            self.credit = self.credit_at(now);
            self.last_update = now;
        }
    }
}

impl SourceShaper for CbsShaper {
    fn name(&self) -> &str {
        "cbs"
    }

    fn tick(&mut self, now: Cycle) {
        // Pure arithmetic catch-up: accrual over a fast-forwarded window
        // is exactly `elapsed * idle_slope`, capped at `hi_credit`.
        self.advance(now);
    }

    fn try_issue(&mut self, now: Cycle) -> ShapeDecision {
        self.advance(now);
        if self.credit < 0 {
            return ShapeDecision::Deny;
        }
        self.credit = self.credit.saturating_sub(self.send_cost as i64).max(self.lo_credit);
        ShapeDecision::Grant(0)
    }

    fn on_llc_response(&mut self, _now: Cycle, _token: ShapeToken, _hit: bool) {
        // CBS reserves bandwidth per grant regardless of the LLC outcome;
        // no refund (see the type-level docs).
    }

    fn next_grant_event(&self, now: Cycle) -> Option<Cycle> {
        let credit = self.credit_at(now);
        if credit >= 0 {
            return Some(now + 1);
        }
        if self.idle_slope == 0 {
            return None; // deficit never recovers
        }
        let deficit = credit.unsigned_abs();
        Some(now + deficit.div_ceil(self.idle_slope))
    }

    /// Token bucket: over any window the shaper grants at most the burst
    /// plus the window times `idle_slope / eff`.
    ///
    /// The floor clamp forgives any part of `send_cost` below
    /// `lo_credit`, so the *effective* charge per grant — what the curve
    /// can rely on — is `eff = min(send_cost, |lo_credit|)`: a grant from
    /// credit 0 lands at `max(-send_cost, lo_credit)` and must recover
    /// that deficit before the next grant. A zero floor forgives the
    /// whole cost (the shaper admits every request), leaving only the
    /// issue stage's one-grant-per-cycle bound. The stall bound is the
    /// recovery from the deepest deficit, `ceil(|lo_credit| /
    /// idle_slope)`, plus two cycles of slack for how the issue stage
    /// brackets an episode; a zero slope never recovers.
    fn contract(&self) -> Option<ShaperContract> {
        let span = (self.hi_credit - self.lo_credit) as u64;
        let eff = self.lo_credit.unsigned_abs().min(self.send_cost);
        let (rate_num, rate_den, burst) =
            if eff == 0 { (1, 1, 1) } else { (self.idle_slope, eff, span / eff + 1) };
        let stall_bound = (self.idle_slope > 0)
            .then(|| self.lo_credit.unsigned_abs().div_ceil(self.idle_slope) + 2);
        Some(ShaperContract::Envelope(Envelope { rate_num, rate_den, burst, stall_bound }))
    }

    fn credit_audit(&self) -> CreditAudit {
        // One bin: live credit above the floor vs the band width. The
        // stored credit is invariantly in `[lo, hi]`, so live <= max.
        let span = (self.hi_credit - self.lo_credit).unsigned_abs();
        let live = (self.credit - self.lo_credit).unsigned_abs();
        CreditAudit {
            bins: vec![crate::audit::CreditBin {
                live: live.try_into().unwrap_or(u32::MAX),
                max: span.try_into().unwrap_or(u32::MAX),
            }],
        }
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("cbs")
    }

    fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64(self.idle_slope);
        enc.u64(self.send_cost);
        enc.i64(self.hi_credit);
        enc.i64(self.lo_credit);
        enc.i64(self.credit);
        enc.u64(self.last_update);
    }

    fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let idle_slope = dec.u64()?;
        let send_cost = dec.u64()?;
        let hi = dec.i64()?;
        let lo = dec.i64()?;
        if idle_slope != self.idle_slope
            || send_cost != self.send_cost
            || hi != self.hi_credit
            || lo != self.lo_credit
        {
            return Err(SnapshotError::mismatch(
                "CBS shaper configuration differs from the snapshot".to_owned(),
            ));
        }
        let credit = dec.i64()?;
        if credit < lo || credit > hi {
            return Err(SnapshotError::corrupt("CBS credit outside its configured band"));
        }
        self.credit = credit;
        self.last_update = dec.u64()?;
        Ok(())
    }
}

/// ETM2-style bandwidth regulator: at most `budget` grants per fixed
/// `window`, replenished wholesale at every window boundary.
///
/// This is the classic "memory bandwidth regulator" design (MemGuard /
/// the ETM2 execution-time-monitor family): no inter-arrival modelling
/// at all, just a hard request quota per regulation window. Its arrival
/// curve is a staircase — up to `2 * budget` requests can land
/// back-to-back across one boundary — which makes it the bursty foil to
/// CBS in the shaper matrix.
///
/// # Examples
///
/// ```
/// use mitts_sim::shaper::{RegulatorShaper, SourceShaper};
/// let mut s = RegulatorShaper::new(2, 100);
/// assert!(s.try_issue(0).is_grant());
/// assert!(s.try_issue(1).is_grant());
/// assert!(!s.try_issue(2).is_grant()); // quota spent
/// s.tick(100);
/// assert!(s.try_issue(100).is_grant()); // boundary replenishes
/// ```
#[derive(Debug, Clone)]
pub struct RegulatorShaper {
    budget: u64,
    window: Cycle,
    remaining: u64,
    next_refresh: Cycle,
}

impl RegulatorShaper {
    /// Creates a regulator granting at most `budget` requests per
    /// `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(budget: u64, window: Cycle) -> Self {
        assert!(window > 0, "window must be positive");
        RegulatorShaper { budget, window, remaining: budget, next_refresh: window }
    }
}

impl SourceShaper for RegulatorShaper {
    fn name(&self) -> &str {
        "regulator"
    }

    fn tick(&mut self, now: Cycle) {
        // O(1) catch-up over any gap: every elapsed boundary resets the
        // quota, so only the count of boundaries matters.
        if now >= self.next_refresh {
            let periods = (now - self.next_refresh) / self.window + 1;
            self.next_refresh += periods * self.window;
            self.remaining = self.budget;
        }
    }

    fn try_issue(&mut self, _now: Cycle) -> ShapeDecision {
        if self.remaining == 0 {
            return ShapeDecision::Deny;
        }
        self.remaining -= 1;
        ShapeDecision::Grant(0)
    }

    fn on_llc_response(&mut self, _now: Cycle, _token: ShapeToken, _hit: bool) {
        // Quota is spent on issue; no refund for LLC hits (the regulator
        // polices the request stream, not memory bandwidth).
    }

    fn next_grant_event(&self, now: Cycle) -> Option<Cycle> {
        if self.remaining > 0 {
            return Some(now + 1);
        }
        if self.budget == 0 {
            return None; // refresh restores nothing
        }
        Some(self.next_refresh.max(now + 1))
    }

    /// Rate `budget / window`, burst `2 * budget` (a full quota on each
    /// side of a window boundary). A denied request waits at most one
    /// window for the refresh; the stall bound adds one cycle of slack
    /// for how the issue stage brackets an episode. A zero budget refreshes to
    /// nothing, so waiting never helps.
    fn contract(&self) -> Option<ShaperContract> {
        Some(ShaperContract::Envelope(Envelope {
            rate_num: self.budget,
            rate_den: self.window,
            burst: self.budget.saturating_mul(2),
            stall_bound: (self.budget > 0).then_some(self.window + 1),
        }))
    }

    fn credit_audit(&self) -> CreditAudit {
        CreditAudit {
            bins: vec![crate::audit::CreditBin {
                live: self.remaining.try_into().unwrap_or(u32::MAX),
                max: self.budget.try_into().unwrap_or(u32::MAX),
            }],
        }
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("regulator")
    }

    fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64(self.budget);
        enc.u64(self.window);
        enc.u64(self.remaining);
        enc.u64(self.next_refresh);
    }

    fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let budget = dec.u64()?;
        let window = dec.u64()?;
        if budget != self.budget || window != self.window {
            return Err(SnapshotError::mismatch(
                "regulator shaper configuration differs from the snapshot".to_owned(),
            ));
        }
        let remaining = dec.u64()?;
        if remaining > budget {
            return Err(SnapshotError::corrupt("regulator quota above its budget"));
        }
        self.remaining = remaining;
        self.next_refresh = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(s: &dyn SourceShaper) -> Option<Envelope> {
        match s.contract() {
            Some(ShaperContract::Envelope(e)) => Some(e),
            _ => None,
        }
    }

    #[test]
    fn unlimited_always_grants() {
        let mut s = UnlimitedShaper::new();
        for now in 0..100 {
            assert!(s.try_issue(now).is_grant());
        }
    }

    #[test]
    fn static_rate_enforces_min_interval() {
        let mut s = StaticRateShaper::new(10);
        assert!(s.try_issue(0).is_grant());
        for now in 1..10 {
            assert!(!s.try_issue(now).is_grant(), "cycle {now} should deny");
        }
        assert!(s.try_issue(10).is_grant());
        assert!(!s.try_issue(15).is_grant());
        assert!(s.try_issue(25).is_grant());
    }

    #[test]
    fn static_rate_ignores_llc_feedback() {
        let mut s = StaticRateShaper::new(10);
        assert!(s.try_issue(0).is_grant());
        s.on_llc_response(1, 0, true);
        assert!(!s.try_issue(1).is_grant(), "a hit must not shorten the gap");
    }

    #[test]
    fn static_rate_envelope_is_a_one_token_bucket() {
        let s = StaticRateShaper::new(10);
        assert_eq!(
            envelope(&s),
            Some(Envelope { rate_num: 1, rate_den: 10, burst: 1, stall_bound: Some(10) })
        );
    }

    #[test]
    fn next_grant_event_is_the_end_of_the_gap() {
        let mut s = StaticRateShaper::new(10);
        assert_eq!(s.next_grant_event(0), Some(1), "nothing issued yet");
        assert!(s.try_issue(3).is_grant());
        assert!(!s.try_issue(5).is_grant());
        let at = s.next_grant_event(5).unwrap();
        assert_eq!(at, 13);
        for t in 6..at {
            s.tick(t);
            assert!(!s.try_issue(t).is_grant(), "no grant before the event at {t}");
        }
        s.tick(at);
        assert!(s.try_issue(at).is_grant());
    }

    #[test]
    fn unlimited_has_no_grant_event() {
        // Unlimited never denies, so there is nothing to wait for.
        assert_eq!(UnlimitedShaper::new().next_grant_event(7), None);
        assert_eq!(UnlimitedShaper::new().contract(), None);
    }

    // ---- CBS ------------------------------------------------------------

    #[test]
    fn cbs_enforces_the_steady_rate() {
        // 1 credit/cycle, 10 per grant, no surplus band: exactly one
        // grant every 10 cycles once the initial credit is spent.
        let mut s = CbsShaper::new(1, 10, 0, -10);
        let mut grants = Vec::new();
        for now in 0..50 {
            s.tick(now);
            if s.try_issue(now).is_grant() {
                grants.push(now);
            }
        }
        assert_eq!(grants, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn cbs_hi_credit_allows_a_burst() {
        // A long idle stretch banks hi_credit; the burst drains it at
        // one grant per cycle until the credit goes negative.
        let mut s = CbsShaper::new(1, 10, 30, -10);
        s.tick(1_000);
        let mut granted = 0;
        for now in 1_000..1_010 {
            s.tick(now);
            if s.try_issue(now).is_grant() {
                granted += 1;
            }
        }
        // credit 30 → 21 → 12 → 3 (4 grants, accruing 1/cycle) then
        // negative until it recovers.
        assert_eq!(granted, 4);
    }

    #[test]
    fn cbs_catch_up_tick_matches_per_cycle_ticks() {
        let mut naive = CbsShaper::new(3, 10, 25, -20);
        let mut fast = naive.clone();
        assert!(naive.try_issue(0).is_grant());
        assert!(fast.try_issue(0).is_grant());
        for now in 1..=137 {
            naive.tick(now);
        }
        fast.tick(137);
        assert_eq!(naive.credit, fast.credit);
        assert_eq!(naive.try_issue(137), fast.try_issue(137));
    }

    #[test]
    fn cbs_next_grant_event_is_exact() {
        let mut s = CbsShaper::new(2, 10, 0, -10);
        assert!(s.try_issue(0).is_grant()); // credit now -10
        assert!(!s.try_issue(1).is_grant());
        let at = s.next_grant_event(1).unwrap();
        // Deficit at cycle 1 is 8 (two cycles accrued); ceil(8/2) = 4.
        assert_eq!(at, 5);
        for t in 2..at {
            s.tick(t);
            assert!(!s.try_issue(t).is_grant(), "no grant before the event at {t}");
        }
        s.tick(at);
        assert!(s.try_issue(at).is_grant());
    }

    #[test]
    fn cbs_zero_slope_deficit_is_hopeless() {
        let mut s = CbsShaper::new(0, 10, 0, -10);
        assert!(s.try_issue(0).is_grant());
        assert!(!s.try_issue(1).is_grant());
        assert_eq!(s.next_grant_event(1), None);
        assert_eq!(envelope(&s).unwrap().stall_bound, None);
    }

    #[test]
    fn cbs_ignores_llc_feedback() {
        let mut s = CbsShaper::new(1, 10, 0, -10);
        assert!(s.try_issue(0).is_grant());
        s.on_llc_response(1, 0, true);
        assert!(!s.try_issue(1).is_grant(), "a hit must not refund credit");
    }

    #[test]
    fn cbs_curve_and_stall_bound_math() {
        let s = CbsShaper::new(3, 10, 25, -20);
        // (45/10)+1 = 5 burst; ceil(20/3) = 7 cycles to recover, plus 2.
        assert_eq!(
            envelope(&s),
            Some(Envelope { rate_num: 3, rate_den: 10, burst: 5, stall_bound: Some(9) })
        );
        // A zero floor forgives every grant: one grant per cycle.
        let open = envelope(&CbsShaper::new(3, 10, 25, 0)).unwrap();
        assert_eq!((open.rate_num, open.rate_den, open.burst), (1, 1, 1));
        let audit = s.credit_audit();
        assert_eq!(audit.bins.len(), 1);
        assert_eq!(audit.bins[0].live, 20); // credit 0 above floor -20
        assert_eq!(audit.bins[0].max, 45);
    }

    #[test]
    fn cbs_snapshot_round_trips_all_state() {
        let mut a = CbsShaper::new(3, 10, 25, -20);
        assert!(a.try_issue(0).is_grant());
        a.tick(7);
        let mut enc = crate::snapshot::Enc::new();
        a.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut b = CbsShaper::new(3, 10, 25, -20);
        b.load_state(&mut crate::snapshot::Dec::new(&bytes)).expect("round trip");
        let mut enc2 = crate::snapshot::Enc::new();
        b.save_state(&mut enc2);
        assert_eq!(bytes, enc2.into_bytes(), "restored state must re-encode identically");
    }

    #[test]
    fn cbs_snapshot_rejects_parameter_mismatch() {
        let a = CbsShaper::new(3, 10, 25, -20);
        let mut enc = crate::snapshot::Enc::new();
        a.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut b = CbsShaper::new(3, 10, 30, -20);
        assert!(b.load_state(&mut crate::snapshot::Dec::new(&bytes)).is_err());
    }

    // ---- Regulator ------------------------------------------------------

    #[test]
    fn regulator_caps_each_window() {
        let mut s = RegulatorShaper::new(3, 100);
        let mut per_window = [0u32; 3];
        for now in 0..300 {
            s.tick(now);
            if s.try_issue(now).is_grant() {
                per_window[(now / 100) as usize] += 1;
            }
        }
        assert_eq!(per_window, [3, 3, 3]);
    }

    #[test]
    fn regulator_catch_up_tick_matches_per_cycle_ticks() {
        let mut naive = RegulatorShaper::new(3, 100);
        let mut fast = naive.clone();
        for _ in 0..3 {
            assert!(naive.try_issue(0).is_grant());
            assert!(fast.try_issue(0).is_grant());
        }
        for now in 1..=777 {
            naive.tick(now);
        }
        fast.tick(777);
        assert_eq!(naive.remaining, fast.remaining);
        assert_eq!(naive.next_refresh, fast.next_refresh);
    }

    #[test]
    fn regulator_next_grant_event_is_the_refresh() {
        let mut s = RegulatorShaper::new(1, 100);
        assert!(s.try_issue(0).is_grant());
        assert!(!s.try_issue(1).is_grant());
        assert_eq!(s.next_grant_event(1), Some(100));
        for t in 2..100 {
            s.tick(t);
            assert!(!s.try_issue(t).is_grant());
        }
        s.tick(100);
        assert!(s.try_issue(100).is_grant());
    }

    #[test]
    fn regulator_zero_budget_is_hopeless() {
        let mut s = RegulatorShaper::new(0, 100);
        assert!(!s.try_issue(0).is_grant());
        assert_eq!(s.next_grant_event(0), None);
        assert_eq!(envelope(&s).unwrap().stall_bound, None);
    }

    #[test]
    fn regulator_curve_and_stall_bound_math() {
        let s = RegulatorShaper::new(3, 100);
        assert_eq!(
            envelope(&s),
            Some(Envelope { rate_num: 3, rate_den: 100, burst: 6, stall_bound: Some(101) })
        );
        let audit = s.credit_audit();
        assert_eq!(audit.bins[0].live, 3);
        assert_eq!(audit.bins[0].max, 3);
    }

    #[test]
    fn regulator_snapshot_round_trips_all_state() {
        let mut a = RegulatorShaper::new(3, 100);
        assert!(a.try_issue(0).is_grant());
        a.tick(250);
        assert!(a.try_issue(250).is_grant());
        let mut enc = crate::snapshot::Enc::new();
        a.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut b = RegulatorShaper::new(3, 100);
        b.load_state(&mut crate::snapshot::Dec::new(&bytes)).expect("round trip");
        let mut enc2 = crate::snapshot::Enc::new();
        b.save_state(&mut enc2);
        assert_eq!(bytes, enc2.into_bytes(), "restored state must re-encode identically");
    }

    #[test]
    fn regulator_snapshot_rejects_parameter_mismatch() {
        let a = RegulatorShaper::new(3, 100);
        let mut enc = crate::snapshot::Enc::new();
        a.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut b = RegulatorShaper::new(3, 200);
        assert!(b.load_state(&mut crate::snapshot::Dec::new(&bytes)).is_err());
    }
}
