//! Network-calculus oracle: arrival-curve, delay-bound, and backlog-bound
//! checks over one core's shaper-visible trace slice.
//!
//! Where [`super::ShaperOracle`] re-executes the MITTS bin machine cycle
//! by cycle, this oracle checks the *analytical envelope* a shaper
//! promises: a token-bucket arrival curve `α(w) = burst + w · rate`, a
//! worst-case shaper-stall delay, and a bound on grants outstanding at
//! the LLC. The bounds come straight from network calculus — any
//! correctly configured static limiter, CBS or window regulator *must*
//! keep its grant stream inside its curve, every stall episode below the
//! curve's delay bound, and its backlog below
//! `burst + rate · hit_latency` — so a violation is a shaper bug (or a deliberately mutated spec, which is
//! how `mitts-conform` proves this oracle detects divergence).
//!
//! All arithmetic is integer and exact: the bucket level is kept scaled
//! by `rate_den`, so a rate of `rate_num / rate_den` requests per cycle
//! accrues `rate_num` scaled tokens per cycle and each grant costs
//! `rate_den` scaled tokens.

use std::collections::VecDeque;

use crate::obs::{StallReason, TraceEvent};
use crate::oracle::{OracleKind, OracleViolation};
use crate::shaper::Envelope;
#[cfg(doc)]
use crate::shaper::SourceShaper;
use crate::types::{Addr, Cycle};

/// The analytical envelope one shaper promises. Build it from the
/// shaper's own [`SourceShaper::envelope`] with
/// [`NetCalcSpec::from_envelope`], or construct it directly in tests and
/// mutation harnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetCalcSpec {
    /// Arrival-curve rate numerator: the shaper admits at most
    /// `rate_num / rate_den` requests per cycle long-run.
    pub rate_num: u64,
    /// Arrival-curve rate denominator (cycles per `rate_num` requests).
    pub rate_den: u64,
    /// Arrival-curve burst: requests admissible back-to-back beyond the
    /// long-run rate.
    pub burst: u64,
    /// Worst-case length of one shaper stall episode, or `None` when the
    /// shaper makes no delay guarantee (e.g. zero-rate configurations).
    pub delay_bound: Option<Cycle>,
    /// Maximum shaper grants simultaneously outstanding at the LLC, or
    /// `None` to skip the backlog check.
    pub backlog_bound: Option<u64>,
}

impl NetCalcSpec {
    /// A curve-only spec (no delay or backlog checks) from token-bucket
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rate_den == 0`.
    pub fn from_curve(rate_num: u64, rate_den: u64, burst: u64) -> Self {
        assert!(rate_den > 0, "rate denominator must be positive");
        NetCalcSpec { rate_num, rate_den, burst, delay_bound: None, backlog_bound: None }
    }

    /// The spec a shaper's [`Envelope`] states: its curve, plus its stall
    /// bound as the delay bound when it has one (no backlog check).
    ///
    /// # Panics
    ///
    /// Panics if `env.rate_den == 0`.
    pub fn from_envelope(env: Envelope) -> Self {
        let spec = NetCalcSpec::from_curve(env.rate_num, env.rate_den, env.burst);
        match env.stall_bound {
            Some(bound) => spec.with_delay_bound(bound),
            None => spec,
        }
    }

    /// Adds the worst-case stall-episode bound.
    pub fn with_delay_bound(mut self, bound: Cycle) -> Self {
        self.delay_bound = Some(bound);
        self
    }

    /// Derives the backlog bound for a system whose LLC resolves every
    /// granted lookup exactly `hit_latency` cycles after the grant: over
    /// any window of that length the curve admits at most
    /// `burst + ceil(hit_latency · rate)` grants, plus one for the
    /// request resolving on the boundary cycle itself.
    pub fn with_backlog_for_latency(mut self, hit_latency: Cycle) -> Self {
        let steady = (hit_latency as u128 * self.rate_num as u128).div_ceil(self.rate_den as u128);
        self.backlog_bound = Some(self.burst.saturating_add(steady.min(u64::MAX as u128) as u64) + 1);
        self
    }
}

/// Replays one core's trace slice against a [`NetCalcSpec`].
#[derive(Debug)]
pub struct NetCalcOracle {
    core: usize,
    spec: NetCalcSpec,
    /// Token-bucket level scaled by `rate_den`; starts full (the curve
    /// allows the full burst at time zero).
    level_scaled: u128,
    /// Cycle the bucket was last advanced to.
    last_update: Cycle,
    /// Lines granted but not yet resolved at the LLC, oldest first.
    outstanding: VecDeque<Addr>,
    /// Open shaper stall episode, if any (its `StallBegin` stamp).
    open_stall: Option<Cycle>,
    violations: Vec<OracleViolation>,
    grants: u64,
    episodes: u64,
}

impl NetCalcOracle {
    /// Creates an oracle for `core` against `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.rate_den == 0`.
    pub fn new(core: usize, spec: NetCalcSpec) -> Self {
        assert!(spec.rate_den > 0, "rate denominator must be positive");
        let level_scaled = spec.burst as u128 * spec.rate_den as u128;
        NetCalcOracle {
            core,
            spec,
            level_scaled,
            last_update: 0,
            outstanding: VecDeque::new(),
            open_stall: None,
            violations: Vec::new(),
            grants: 0,
            episodes: 0,
        }
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[OracleViolation] {
        &self.violations
    }

    /// Number of grants checked against the arrival curve.
    pub fn grants_checked(&self) -> u64 {
        self.grants
    }

    /// Number of completed stall episodes checked against the delay bound.
    pub fn episodes_checked(&self) -> u64 {
        self.episodes
    }

    fn report(&mut self, at: Cycle, detail: String) {
        self.violations.push(OracleViolation {
            at,
            oracle: OracleKind::NetCalc,
            core: Some(self.core),
            channel: None,
            detail,
        });
    }

    /// Advances the bucket to `now`, accruing `rate_num` scaled tokens
    /// per elapsed cycle, capped at the burst.
    fn refill_to(&mut self, now: Cycle) {
        let cap = self.spec.burst as u128 * self.spec.rate_den as u128;
        let elapsed = now.saturating_sub(self.last_update) as u128;
        self.level_scaled = (self.level_scaled + elapsed * self.spec.rate_num as u128).min(cap);
        self.last_update = now;
    }

    /// Feeds one trace event. Events for other cores (or irrelevant
    /// kinds) are ignored; events must arrive in stream order.
    pub fn on_event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::ShaperGrant { at, core, line, .. } if *core == self.core => {
                self.on_grant(*at, *line);
            }
            TraceEvent::LlcLookup { at, core, line, .. } if *core == self.core => {
                self.on_llc_lookup(*at, *line);
            }
            TraceEvent::StallBegin { at, core, reason: StallReason::Shaper }
                if *core == self.core =>
            {
                self.open_stall = Some(*at);
            }
            TraceEvent::StallEnd { at, core, reason: StallReason::Shaper, since }
                if *core == self.core =>
            {
                self.on_stall_end(*at, *since);
            }
            _ => {}
        }
    }

    /// A grant was observed at `now` for `line`.
    pub fn on_grant(&mut self, now: Cycle, line: Addr) {
        self.refill_to(now);
        self.grants += 1;
        let cost = self.spec.rate_den as u128;
        if self.level_scaled < cost {
            self.report(
                now,
                format!(
                    "grant exceeds the arrival curve (rate {}/{}, burst {}): \
                     bucket holds {}/{} scaled tokens",
                    self.spec.rate_num, self.spec.rate_den, self.spec.burst,
                    self.level_scaled, cost
                ),
            );
            // Clamp rather than underflow so one violation does not
            // cascade into a report per subsequent grant.
            self.level_scaled = 0;
        } else {
            self.level_scaled -= cost;
        }
        self.outstanding.push_back(line);
        if let Some(bound) = self.spec.backlog_bound {
            let backlog = self.outstanding.len() as u64;
            if backlog > bound {
                self.report(
                    now,
                    format!("backlog {backlog} exceeds the network-calculus bound {bound}"),
                );
                // Drop the oldest so the episode reports once, not per grant.
                self.outstanding.pop_front();
            }
        }
    }

    /// The LLC resolved a demand lookup for `line` at `now`.
    pub fn on_llc_lookup(&mut self, _now: Cycle, line: Addr) {
        if let Some(pos) = self.outstanding.iter().position(|&l| l == line) {
            self.outstanding.remove(pos);
        }
        // Lookups with no tracked grant (emitted before the oracle's
        // first event, or merged/non-shaped paths) are ignored.
    }

    /// A shaper stall episode that began at `since` ended at `now`.
    pub fn on_stall_end(&mut self, now: Cycle, since: Cycle) {
        self.open_stall = None;
        self.episodes += 1;
        if let Some(bound) = self.spec.delay_bound {
            let length = now.saturating_sub(since);
            if length > bound {
                self.report(
                    now,
                    format!(
                        "shaper stall of {length} cycles (since {since}) exceeds \
                         the delay bound {bound}"
                    ),
                );
            }
        }
    }

    /// Finishes the replay at `end`: an episode still open past the
    /// delay bound is a violation even without its `StallEnd`.
    pub fn finish(&mut self, end: Cycle) {
        if let (Some(since), Some(bound)) = (self.open_stall, self.spec.delay_bound) {
            let length = end.saturating_sub(since);
            if length > bound {
                self.report(
                    end,
                    format!(
                        "unterminated shaper stall of {length}+ cycles (since {since}) \
                         exceeds the delay bound {bound}"
                    ),
                );
            }
        }
        self.open_stall = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> NetCalcSpec {
        // 1 request / 10 cycles, burst 2.
        NetCalcSpec::from_curve(1, 10, 2)
    }

    #[test]
    fn conforming_stream_is_clean() {
        let mut o = NetCalcOracle::new(0, spec());
        // Burst of 2 at time zero, then the steady rate.
        o.on_grant(0, 0x100);
        o.on_grant(0, 0x140);
        for i in 1..10u64 {
            o.on_grant(i * 10, 0x1000 + i * 64);
        }
        o.finish(200);
        assert!(o.violations().is_empty(), "{:?}", o.violations());
        assert_eq!(o.grants_checked(), 11);
    }

    #[test]
    fn over_rate_stream_is_flagged() {
        let mut o = NetCalcOracle::new(0, spec());
        // One grant every 5 cycles is twice the admissible rate: the
        // burst allowance drains and the curve is crossed.
        for i in 0..10u64 {
            o.on_grant(i * 5, 0x100 + i * 64);
        }
        assert!(!o.violations().is_empty());
        assert!(o.violations()[0].detail.contains("arrival curve"));
    }

    #[test]
    fn burst_above_allowance_is_flagged() {
        let mut o = NetCalcOracle::new(0, spec());
        o.on_grant(0, 0x100);
        o.on_grant(0, 0x140);
        o.on_grant(0, 0x180); // third back-to-back grant: burst is 2
        assert_eq!(o.violations().len(), 1);
    }

    #[test]
    fn full_burst_is_restored_after_idle() {
        let mut o = NetCalcOracle::new(0, spec());
        o.on_grant(0, 0x100);
        o.on_grant(0, 0x140);
        // 20 idle cycles refill the full burst of 2.
        o.on_grant(20, 0x180);
        o.on_grant(20, 0x1c0);
        o.finish(50);
        assert!(o.violations().is_empty(), "{:?}", o.violations());
    }

    #[test]
    fn stall_within_delay_bound_is_clean() {
        let mut o = NetCalcOracle::new(0, spec().with_delay_bound(100));
        o.on_event(&TraceEvent::StallBegin { at: 5, core: 0, reason: StallReason::Shaper });
        o.on_event(&TraceEvent::StallEnd {
            at: 105,
            core: 0,
            reason: StallReason::Shaper,
            since: 5,
        });
        o.finish(200);
        assert!(o.violations().is_empty(), "{:?}", o.violations());
        assert_eq!(o.episodes_checked(), 1);
    }

    #[test]
    fn stall_past_delay_bound_is_flagged() {
        let mut o = NetCalcOracle::new(0, spec().with_delay_bound(100));
        o.on_stall_end(150, 5);
        assert_eq!(o.violations().len(), 1);
        assert!(o.violations()[0].detail.contains("delay bound"));
    }

    #[test]
    fn unterminated_stall_is_flagged_at_finish() {
        let mut o = NetCalcOracle::new(0, spec().with_delay_bound(10));
        o.on_event(&TraceEvent::StallBegin { at: 5, core: 0, reason: StallReason::Shaper });
        o.finish(100);
        assert_eq!(o.violations().len(), 1);
        assert!(o.violations()[0].detail.contains("unterminated"));
    }

    #[test]
    fn backlog_bound_counts_unresolved_grants() {
        let mut o = NetCalcOracle::new(0, NetCalcSpec::from_curve(10, 1, 10));
        o.spec.backlog_bound = Some(2);
        o.on_grant(0, 0x100);
        o.on_grant(1, 0x140);
        o.on_llc_lookup(2, 0x100); // resolves the first grant
        o.on_grant(3, 0x180); // backlog back to 2: fine
        assert!(o.violations().is_empty(), "{:?}", o.violations());
        o.on_grant(4, 0x1c0); // backlog 3 > bound 2
        assert_eq!(o.violations().len(), 1);
        assert!(o.violations()[0].detail.contains("backlog"));
    }

    #[test]
    fn backlog_for_latency_math() {
        let s = NetCalcSpec::from_curve(3, 10, 5).with_backlog_for_latency(20);
        // 5 + ceil(20*3/10) + 1 = 5 + 6 + 1.
        assert_eq!(s.backlog_bound, Some(12));
    }

    #[test]
    fn event_filter_ignores_other_cores() {
        let mut o = NetCalcOracle::new(1, spec());
        o.on_event(&TraceEvent::ShaperGrant { at: 0, core: 0, line: 0x100, bin: 0 });
        assert_eq!(o.grants_checked(), 0);
        o.on_event(&TraceEvent::ShaperGrant { at: 0, core: 1, line: 0x100, bin: 0 });
        assert_eq!(o.grants_checked(), 1);
    }

    #[test]
    fn zero_rate_spec_admits_only_the_burst() {
        let mut o = NetCalcOracle::new(0, NetCalcSpec::from_curve(0, 1, 1));
        o.on_grant(0, 0x100);
        o.on_grant(1_000_000, 0x140); // no refill ever happens
        assert_eq!(o.violations().len(), 1);
    }
}
