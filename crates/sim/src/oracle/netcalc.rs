//! Network-calculus oracle: arrival-curve and delay-bound checks over the
//! grant stream and stall episodes of one shaper.
//!
//! Where [`super::ShaperOracle`] re-executes the MITTS bin machine, this
//! oracle checks the *analytical envelope* a shaper promises: a
//! token-bucket arrival curve `α(w) = burst + w · rate` and a worst-case
//! shaper-stall delay. The bounds come straight from network calculus —
//! any correctly configured static limiter, CBS or window regulator
//! *must* keep its grant stream inside its curve and every stall episode
//! below its delay bound — so a violation is a shaper bug (or a shaper
//! that misstates its envelope, which is how `mitts-conform` proves this
//! oracle detects divergence).
//!
//! There is no backlog bound: in the style of Mohammadpour et al. it
//! needs a service curve for the LLC, and this LLC has none (hits and
//! misses take different times).
//!
//! All arithmetic is integer and exact: the bucket level is kept scaled
//! by `rate_den`, so a rate of `rate_num / rate_den` requests per cycle
//! accrues `rate_num` scaled tokens per cycle and each grant costs
//! `rate_den` scaled tokens.

use crate::audit::{AuditLog, AuditViolation, Invariant};
use crate::shaper::Envelope;
use crate::types::Cycle;

/// An open shaper stall episode of one sharer.
#[derive(Debug, Clone, Copy)]
struct Stall {
    core: usize,
    /// First denied cycle.
    since: Cycle,
    /// Whether the episode already broke the delay bound (reported once).
    reported: bool,
}

/// Checks one shaper's grants and stall episodes against its
/// [`Envelope`].
#[derive(Debug, Clone)]
pub struct NetCalcOracle {
    envelope: Envelope,
    /// Token-bucket level scaled by `rate_den`; starts full (the curve
    /// allows the full burst at time zero).
    level_scaled: u128,
    /// Cycle the bucket was last advanced to.
    last_update: Cycle,
    stalls: Vec<Stall>,
    grants: u64,
    episodes: u64,
}

impl NetCalcOracle {
    /// Creates an oracle for `envelope`.
    ///
    /// # Panics
    ///
    /// Panics if `envelope.rate_den == 0`.
    pub fn new(envelope: Envelope) -> Self {
        assert!(envelope.rate_den > 0, "rate denominator must be positive");
        NetCalcOracle {
            level_scaled: Self::full(&envelope),
            envelope,
            last_update: 0,
            stalls: Vec::new(),
            grants: 0,
            episodes: 0,
        }
    }

    fn full(envelope: &Envelope) -> u128 {
        envelope.burst as u128 * envelope.rate_den as u128
    }

    /// Number of grants checked against the arrival curve.
    pub fn grants_checked(&self) -> u64 {
        self.grants
    }

    /// Number of completed stall episodes checked against the delay bound.
    pub fn episodes_checked(&self) -> u64 {
        self.episodes
    }

    fn report(log: &mut AuditLog, at: Cycle, core: usize, detail: String) {
        log.record(AuditViolation {
            cycle: at,
            invariant: Invariant::ShaperEnvelope,
            core: Some(core),
            detail,
        });
    }

    /// Advances the bucket to `now`, accruing `rate_num` scaled tokens
    /// per elapsed cycle, capped at the burst.
    fn refill_to(&mut self, now: Cycle) {
        let elapsed = now.saturating_sub(self.last_update) as u128;
        self.level_scaled = (self.level_scaled + elapsed * self.envelope.rate_num as u128)
            .min(Self::full(&self.envelope));
        self.last_update = now.max(self.last_update);
    }

    /// Sharer `core` was granted at `now` (ending any stall episode of
    /// its own).
    pub fn on_grant(&mut self, core: usize, now: Cycle, log: &mut AuditLog) {
        self.on_stall_end(core, now, log);
        self.refill_to(now);
        self.grants += 1;
        let cost = self.envelope.rate_den as u128;
        if self.level_scaled < cost {
            let e = self.envelope;
            Self::report(
                log,
                now,
                core,
                format!(
                    "grant exceeds the arrival curve (rate {}/{}, burst {}): \
                     bucket holds {}/{} scaled tokens",
                    e.rate_num, e.rate_den, e.burst, self.level_scaled, cost
                ),
            );
            // Clamp rather than underflow so one violation does not
            // cascade into a report per subsequent grant.
            self.level_scaled = 0;
        } else {
            self.level_scaled -= cost;
        }
    }

    /// A stall episode of sharer `core` began at `now`.
    pub fn on_stall_begin(&mut self, core: usize, now: Cycle) {
        if !self.stalls.iter().any(|s| s.core == core) {
            self.stalls.push(Stall { core, since: now, reported: false });
        }
    }

    /// The episode of `core` ended at `now`.
    pub fn on_stall_end(&mut self, core: usize, now: Cycle, log: &mut AuditLog) {
        let Some(i) = self.stalls.iter().position(|s| s.core == core) else { return };
        let mut stall = self.stalls.swap_remove(i);
        self.episodes += 1;
        self.check_length(&mut stall, now, "", log);
    }

    /// Checks every open episode, which still covers cycle `now`, against
    /// the delay bound (an audit pass, after the cycle's issue stage).
    pub fn check_open(&mut self, now: Cycle, log: &mut AuditLog) {
        let mut stalls = std::mem::take(&mut self.stalls);
        for stall in &mut stalls {
            self.check_length(stall, now + 1, "+ (still open)", log);
        }
        self.stalls = stalls;
    }

    /// Reports `stall` once if its length up to `end` (exclusive) exceeds
    /// the delay bound.
    fn check_length(&self, stall: &mut Stall, end: Cycle, open: &str, log: &mut AuditLog) {
        let (Some(bound), false) = (self.envelope.stall_bound, stall.reported) else { return };
        let length = end.saturating_sub(stall.since);
        if length > bound {
            stall.reported = true;
            Self::report(
                log,
                end - 1,
                stall.core,
                format!(
                    "shaper stall of {length}{open} cycles (since {}) exceeds \
                     the delay bound {bound}",
                    stall.since
                ),
            );
        }
    }

    /// Encodes the bucket and the open episodes (the envelope is the
    /// shaper's, fixed at build).
    pub(crate) fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64((self.level_scaled >> 64) as u64);
        enc.u64(self.level_scaled as u64);
        enc.u64(self.last_update);
        enc.usize(self.stalls.len());
        for s in &self.stalls {
            enc.usize(s.core);
            enc.u64(s.since);
            enc.bool(s.reported);
        }
        enc.u64(self.grants);
        enc.u64(self.episodes);
    }

    /// Restores state written by [`NetCalcOracle::save_state`].
    pub(crate) fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        self.level_scaled = (u128::from(dec.u64()?) << 64) | u128::from(dec.u64()?);
        self.last_update = dec.u64()?;
        let n = dec.checked_len(17)?;
        self.stalls = (0..n)
            .map(|_| Ok(Stall { core: dec.usize()?, since: dec.u64()?, reported: dec.bool()? }))
            .collect::<Result<_, SnapshotError>>()?;
        self.grants = dec.u64()?;
        self.episodes = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(rate_num: u64, rate_den: u64, burst: u64) -> Envelope {
        Envelope { rate_num, rate_den, burst, stall_bound: None }
    }

    /// 1 request / 10 cycles, burst 2.
    fn spec() -> Envelope {
        curve(1, 10, 2)
    }

    fn with_delay_bound(bound: Cycle) -> Envelope {
        Envelope { stall_bound: Some(bound), ..spec() }
    }

    fn oracle(envelope: Envelope) -> (NetCalcOracle, AuditLog) {
        (NetCalcOracle::new(envelope), AuditLog::new(64))
    }

    #[test]
    fn conforming_stream_is_clean() {
        let (mut o, mut log) = oracle(spec());
        // Burst of 2 at time zero, then the steady rate.
        o.on_grant(0, 0, &mut log);
        o.on_grant(0, 0, &mut log);
        for i in 1..10u64 {
            o.on_grant(0, i * 10, &mut log);
        }
        o.check_open(200, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert_eq!(o.grants_checked(), 11);
    }

    #[test]
    fn over_rate_stream_is_flagged() {
        let (mut o, mut log) = oracle(spec());
        // One grant every 5 cycles is twice the admissible rate: the
        // burst allowance drains and the curve is crossed.
        for i in 0..10u64 {
            o.on_grant(0, i * 5, &mut log);
        }
        assert!(!log.violations().is_empty());
        assert!(log.violations()[0].detail.contains("arrival curve"));
        assert_eq!(log.violations()[0].invariant, Invariant::ShaperEnvelope);
    }

    #[test]
    fn burst_above_allowance_is_flagged() {
        let (mut o, mut log) = oracle(spec());
        o.on_grant(0, 0, &mut log);
        o.on_grant(0, 0, &mut log);
        o.on_grant(0, 0, &mut log); // third back-to-back grant: burst is 2
        assert_eq!(log.violations().len(), 1);
    }

    #[test]
    fn full_burst_is_restored_after_idle() {
        let (mut o, mut log) = oracle(spec());
        o.on_grant(0, 0, &mut log);
        o.on_grant(0, 0, &mut log);
        // 20 idle cycles refill the full burst of 2.
        o.on_grant(0, 20, &mut log);
        o.on_grant(0, 20, &mut log);
        o.check_open(50, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
    }

    #[test]
    fn stall_within_delay_bound_is_clean() {
        let (mut o, mut log) = oracle(with_delay_bound(100));
        o.on_stall_begin(0, 5);
        o.on_stall_end(0, 105, &mut log);
        o.check_open(200, &mut log);
        assert!(log.violations().is_empty(), "{:?}", log.violations());
        assert_eq!(o.episodes_checked(), 1);
    }

    #[test]
    fn stall_past_delay_bound_is_flagged() {
        let (mut o, mut log) = oracle(with_delay_bound(100));
        o.on_stall_begin(0, 5);
        o.on_stall_end(0, 150, &mut log);
        assert_eq!(log.violations().len(), 1);
        assert!(log.violations()[0].detail.contains("delay bound"));
    }

    #[test]
    fn open_stall_is_flagged_at_an_audit_pass_once() {
        let (mut o, mut log) = oracle(with_delay_bound(10));
        o.on_stall_begin(0, 5);
        o.check_open(14, &mut log);
        assert!(log.violations().is_empty(), "10 cycles is within the bound");
        o.check_open(100, &mut log);
        o.on_stall_end(0, 120, &mut log);
        assert_eq!(log.violations().len(), 1);
        assert!(log.violations()[0].detail.contains("still open"));
    }

    #[test]
    fn sharers_keep_their_own_episodes() {
        let (mut o, mut log) = oracle(with_delay_bound(10));
        o.on_stall_begin(0, 5);
        o.on_stall_begin(1, 8);
        // Core 1's grant ends only its own episode.
        o.on_grant(1, 12, &mut log);
        o.check_open(30, &mut log);
        assert_eq!(log.violations().len(), 1);
        assert_eq!(log.violations()[0].core, Some(0));
        assert_eq!(o.episodes_checked(), 1);
    }

    #[test]
    fn zero_rate_spec_admits_only_the_burst() {
        let (mut o, mut log) = oracle(curve(0, 1, 1));
        o.on_grant(0, 0, &mut log);
        o.on_grant(0, 1_000_000, &mut log); // no refill ever happens
        assert_eq!(log.violations().len(), 1);
    }
}
