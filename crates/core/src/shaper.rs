//! The MITTS bin-based traffic shaper (§III-B, §III-D, Fig. 5/6/8).
//!
//! The shaper sits on a core's L1-miss path. For each candidate request it
//! measures the inter-arrival time `t` since the last granted request,
//! finds the request's bin, and grants the request iff some bin with
//! representative inter-arrival ≤ `t` still holds a credit. A denied
//! request simply retries later — by then `t` has grown, so it "ages"
//! into farther-out (cheaper) bins exactly as the paper describes.
//!
//! Both hybrid-placement feedback schemes of §III-D are implemented:
//!
//! * **Method 2** (default; used in the 25-core tape-out): deduct a credit
//!   at L1-miss issue, refund it if the LLC later reports a hit.
//! * **Method 1**: check credits at issue but deduct only when the LLC
//!   confirms a miss (slightly aggressive — credits can lag by the number
//!   of in-flight requests).

use mitts_sim::audit::{CreditAudit, CreditBin};
use mitts_sim::oracle::MittsSpec;
use mitts_sim::shaper::{ShapeDecision, ShapeToken, ShaperContract, SourceShaper};
use mitts_sim::types::Cycle;

use crate::bins::{BinConfig, K_MAX};

/// Which §III-D feedback scheme the shaper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeedbackMethod {
    /// Speculate miss, deduct at issue, refund on LLC hit (the tape-out's
    /// choice; conservative).
    #[default]
    DeductThenRefund,
    /// Speculate miss, deduct only on confirmed LLC miss (aggressive:
    /// issue checks may see stale credit counts).
    DeductOnConfirm,
    /// No LLC feedback at all: every L1 miss permanently consumes a
    /// credit. This is Fig. 7's *left* placement (shaper purely after
    /// the L1), which the paper notes is "inaccurate because shared LLC
    /// hits will be treated as memory requests" — kept for the placement
    /// ablation.
    PureL1,
}

/// How a grant chooses among the eligible bins (all bins `j` with
/// `t_j <= t` that hold credits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CreditPolicy {
    /// Spend the cheapest eligible credit (largest eligible index),
    /// preserving expensive low-inter-arrival credits for real bursts.
    #[default]
    CheapestEligible,
    /// Spend the most expensive eligible credit (smallest eligible index).
    /// Included as an ablation; generally wasteful.
    MostExpensiveEligible,
}

/// Grant/deny/refund counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShaperCounters {
    /// Requests granted.
    pub grants: u64,
    /// Credits refunded after LLC hits (method 2).
    pub refunds: u64,
    /// Credits deducted on confirmed LLC misses (method 1).
    pub confirm_deductions: u64,
    /// Replenishment events.
    pub replenishments: u64,
}

/// The MITTS hardware shaper model.
///
/// # Examples
///
/// ```
/// use mitts_core::{BinConfig, BinSpec, MittsShaper};
/// use mitts_sim::shaper::SourceShaper;
///
/// // Only bin 0 (inter-arrival < 10 cycles) has credits: a strictly
/// // back-to-back budget of 4 requests per 100-cycle period.
/// let mut credits = vec![0u32; 10];
/// credits[0] = 4;
/// let cfg = BinConfig::new(BinSpec::paper_default(), credits, 100).unwrap();
/// let mut shaper = MittsShaper::new(cfg);
///
/// assert!(shaper.try_issue(0).is_grant());
/// assert!(shaper.try_issue(1).is_grant());
/// // A request arriving 50 cycles later falls in bin 5, which is empty —
/// // and bins 1..=4 are also empty, but bin 0 still has credits, which a
/// // *larger* inter-arrival may use (lower-or-equal rule).
/// assert!(shaper.try_issue(51).is_grant());
/// ```
#[derive(Debug, Clone)]
pub struct MittsShaper {
    config: BinConfig,
    /// Live credit counters `n_i`.
    credits: Vec<u32>,
    /// Precomputed eligibility table: bit `j` set iff `credits[j] > 0`.
    /// Maintained incrementally on every credit mutation so `try_issue`
    /// resolves the eligible bin with one mask-and-count instead of a
    /// per-issue scan ([`BinSpec`](crate::bins::BinSpec) caps bins at 64).
    nonzero_mask: u64,
    next_replenish: Cycle,
    last_issue: Option<Cycle>,
    method: FeedbackMethod,
    policy: CreditPolicy,
    counters: ShaperCounters,
    /// Grants per bin (the shaped traffic distribution actually emitted).
    grants_per_bin: Vec<u64>,
    /// Cycle the configuration was installed (stated in the contract).
    installed_at: Cycle,
}

impl MittsShaper {
    /// Creates a shaper with method 2 (deduct-then-refund) and the
    /// cheapest-eligible credit policy — the tape-out defaults.
    pub fn new(config: BinConfig) -> Self {
        let n = config.spec().bins();
        let credits = config.credits().to_vec();
        let next_replenish = config.replenish_period();
        let mut shaper = MittsShaper {
            config,
            credits,
            nonzero_mask: 0,
            next_replenish,
            last_issue: None,
            method: FeedbackMethod::default(),
            policy: CreditPolicy::default(),
            counters: ShaperCounters::default(),
            grants_per_bin: vec![0; n],
            installed_at: 0,
        };
        shaper.rebuild_mask();
        shaper
    }

    /// Selects the feedback method.
    pub fn with_method(mut self, method: FeedbackMethod) -> Self {
        self.method = method;
        self
    }

    /// Selects the credit-spend policy.
    pub fn with_policy(mut self, policy: CreditPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &BinConfig {
        &self.config
    }

    /// The feedback method in use.
    pub fn method(&self) -> FeedbackMethod {
        self.method
    }

    /// The credit-spend policy in use.
    pub fn policy(&self) -> CreditPolicy {
        self.policy
    }

    /// Live credit counters `n_i`.
    pub fn live_credits(&self) -> &[u32] {
        &self.credits
    }

    /// Event counters.
    pub fn counters(&self) -> ShaperCounters {
        self.counters
    }

    /// Grants per bin — the emitted (shaped) traffic distribution.
    pub fn grants_per_bin(&self) -> &[u64] {
        &self.grants_per_bin
    }

    /// Installs a new configuration at runtime (the OS/hypervisor writing
    /// the control registers, §III-A). Live credits are reset to the new
    /// `K_i` and the replenishment counter restarts at `now`.
    pub fn reconfigure(&mut self, now: Cycle, config: BinConfig) {
        assert_eq!(
            config.spec().bins(),
            self.config.spec().bins(),
            "bin count is a hardware parameter and cannot change at runtime"
        );
        self.credits.copy_from_slice(config.credits());
        self.next_replenish = now + config.replenish_period();
        self.installed_at = now;
        self.config = config;
        self.rebuild_mask();
    }

    /// The bin a request arriving `gap` cycles after the previous grant
    /// falls into.
    pub fn bin_for_gap(&self, gap: Cycle) -> usize {
        self.config.spec().bin_for_gap(gap)
    }

    /// Algorithm 1: reset every bin to K_i once per period, applying
    /// every boundary up to and including `now`. The while loop catches
    /// up over fast-forwarded windows; driven once per cycle it fires at
    /// most once, exactly at the boundary (where `next_replenish == now`,
    /// so `+=` and `= now + period` coincide).
    fn replenish_through(&mut self, now: Cycle) {
        let mut replenished = false;
        while now >= self.next_replenish {
            self.credits.copy_from_slice(self.config.credits());
            self.next_replenish += self.config.replenish_period();
            self.counters.replenishments += 1;
            replenished = true;
        }
        if replenished {
            self.rebuild_mask();
        }
    }

    fn rebuild_mask(&mut self) {
        self.nonzero_mask = self
            .credits
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .fold(0u64, |m, (j, _)| m | (1 << j));
    }

    fn deduct_credit(&mut self, bin: usize) {
        self.credits[bin] -= 1;
        if self.credits[bin] == 0 {
            self.nonzero_mask &= !(1u64 << bin);
        }
    }

    fn restore_credit(&mut self, bin: usize) {
        if self.credits[bin] == 0 {
            self.nonzero_mask |= 1u64 << bin;
        }
        self.credits[bin] += 1;
    }

    /// The bin a request in `request_bin` spends a credit from under the
    /// credit policy: one mask-and-count over bits `0..=request_bin` of the
    /// non-empty-bin set, picked from the top or bottom.
    fn eligible_bin(&self, request_bin: usize) -> Option<usize> {
        let below = if request_bin >= 63 {
            u64::MAX
        } else {
            (1u64 << (request_bin + 1)) - 1
        };
        let eligible = self.nonzero_mask & below;
        if eligible == 0 {
            return None;
        }
        Some(match self.policy {
            CreditPolicy::CheapestEligible => 63 - eligible.leading_zeros() as usize,
            CreditPolicy::MostExpensiveEligible => eligible.trailing_zeros() as usize,
        })
    }

    /// The cheapest bin that still holds a live credit, if any. A denied
    /// request becomes grantable exactly when its aging gap reaches this
    /// bin's representative inter-arrival.
    fn lowest_nonzero_bin(&self) -> Option<usize> {
        if self.nonzero_mask == 0 {
            None
        } else {
            Some(self.nonzero_mask.trailing_zeros() as usize)
        }
    }

    fn gap_at(&self, now: Cycle) -> Cycle {
        match self.last_issue {
            // First request ever: no inter-arrival constraint; treat as
            // maximally spaced (eligible for every bin).
            None => Cycle::MAX,
            Some(last) => now.saturating_sub(last),
        }
    }
}

impl SourceShaper for MittsShaper {
    fn name(&self) -> &str {
        "MITTS"
    }

    fn tick(&mut self, now: Cycle) {
        self.replenish_through(now);
    }

    fn try_issue(&mut self, now: Cycle) -> ShapeDecision {
        let gap = self.gap_at(now);
        let request_bin = self.config.spec().bin_for_gap(gap);
        let Some(bin) = self.eligible_bin(request_bin) else {
            return ShapeDecision::Deny;
        };
        match self.method {
            FeedbackMethod::DeductThenRefund | FeedbackMethod::PureL1 => {
                self.deduct_credit(bin);
            }
            FeedbackMethod::DeductOnConfirm => {
                // No deduction yet; the LLC-miss confirmation does it.
            }
        }
        self.last_issue = Some(now);
        self.counters.grants += 1;
        self.grants_per_bin[bin] += 1;
        ShapeDecision::Grant(bin as ShapeToken)
    }

    fn on_llc_response(&mut self, now: Cycle, token: ShapeToken, hit: bool) {
        let bin = token as usize;
        if bin >= self.credits.len() {
            return; // stale token from before a reconfiguration; ignore
        }
        // The shaper is ticked lazily (the skip engine jumps over dead windows), so a
        // period boundary may have passed since the last `tick`. The
        // hardware replenishes at the boundary itself, so feedback landing
        // after it must see the new period's credits — otherwise the
        // deduction/refund hits stale credits and is silently erased by
        // the catch-up replenish, leaving the shaper more permissive than
        // the §III spec. Boundaries strictly before `now` apply here; a
        // boundary at `now` itself still belongs to the later tick phase
        // (feedback-before-replenish within a cycle).
        self.replenish_through(now.saturating_sub(1));
        match self.method {
            FeedbackMethod::DeductThenRefund => {
                if hit {
                    // Refund, clamped to the architectural register width.
                    let cap = self.config.credit(bin).clamp(1, K_MAX);
                    if self.credits[bin] < cap {
                        self.restore_credit(bin);
                    }
                    self.counters.refunds += 1;
                }
            }
            FeedbackMethod::DeductOnConfirm => {
                if !hit {
                    // Confirmed memory request: deduct (may find the bin
                    // already drained — this is the documented staleness).
                    if self.credits[bin] > 0 {
                        self.deduct_credit(bin);
                    }
                    self.counters.confirm_deductions += 1;
                }
            }
            FeedbackMethod::PureL1 => {
                // No feedback path exists in this placement.
            }
        }
    }

    fn next_grant_event(&self, now: Cycle) -> Option<Cycle> {
        // Two ways waiting can flip a denial: the request ages into the
        // cheapest live bin, or a replenishment refills the bins.
        let aging = self.lowest_nonzero_bin().map(|j| match self.last_issue {
            // No prior grant: the gap is already maximal, so any live
            // credit makes the very next cycle grantable.
            None => now + 1,
            Some(last) => last + j as Cycle * self.config.spec().interval(),
        });
        let replenish = if self.config.credits().iter().any(|&c| c > 0) {
            Some(self.next_replenish)
        } else {
            None
        };
        match (aging, replenish) {
            (Some(a), Some(r)) => Some(a.min(r).max(now + 1)),
            (Some(a), None) => Some(a.max(now + 1)),
            (None, Some(r)) => Some(r.max(now + 1)),
            (None, None) => None,
        }
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        Some("mitts")
    }

    fn save_state(&self, enc: &mut mitts_sim::snapshot::Enc) {
        // Configuration fingerprint first: the restoring side must hold
        // the same bins/credits/period/method/policy, since the snapshot
        // only carries the *mutable* state on top of them.
        let spec = self.config.spec();
        enc.usize(spec.bins());
        enc.u64(spec.interval());
        enc.u32s(self.config.credits());
        enc.u64(self.config.replenish_period());
        enc.u8(match self.method {
            FeedbackMethod::DeductThenRefund => 0,
            FeedbackMethod::DeductOnConfirm => 1,
            FeedbackMethod::PureL1 => 2,
        });
        enc.u8(match self.policy {
            CreditPolicy::CheapestEligible => 0,
            CreditPolicy::MostExpensiveEligible => 1,
        });
        enc.u32s(&self.credits);
        enc.u64(self.next_replenish);
        enc.u64(self.installed_at);
        enc.opt_u64(self.last_issue);
        enc.u64(self.counters.grants);
        enc.u64(self.counters.refunds);
        enc.u64(self.counters.confirm_deductions);
        enc.u64(self.counters.replenishments);
        enc.u64s(&self.grants_per_bin);
    }

    fn load_state(
        &mut self,
        dec: &mut mitts_sim::snapshot::Dec<'_>,
    ) -> Result<(), mitts_sim::snapshot::SnapshotError> {
        use mitts_sim::snapshot::SnapshotError;
        let spec = self.config.spec();
        let bins = dec.usize()?;
        let interval = dec.u64()?;
        let config_credits = dec.u32s()?;
        let period = dec.u64()?;
        let method = dec.u8()?;
        let policy = dec.u8()?;
        let have_method = match self.method {
            FeedbackMethod::DeductThenRefund => 0,
            FeedbackMethod::DeductOnConfirm => 1,
            FeedbackMethod::PureL1 => 2,
        };
        let have_policy = match self.policy {
            CreditPolicy::CheapestEligible => 0,
            CreditPolicy::MostExpensiveEligible => 1,
        };
        if bins != spec.bins()
            || interval != spec.interval()
            || config_credits != self.config.credits()
            || period != self.config.replenish_period()
            || method != have_method
            || policy != have_policy
        {
            return Err(SnapshotError::mismatch(
                "MITTS shaper configuration differs from the snapshotted one",
            ));
        }
        let credits = dec.u32s()?;
        if credits.len() != self.credits.len() {
            return Err(SnapshotError::corrupt("live-credit vector length differs"));
        }
        self.credits = credits;
        self.next_replenish = dec.u64()?;
        self.installed_at = dec.u64()?;
        self.last_issue = dec.opt_u64()?;
        self.counters.grants = dec.u64()?;
        self.counters.refunds = dec.u64()?;
        self.counters.confirm_deductions = dec.u64()?;
        self.counters.replenishments = dec.u64()?;
        let grants_per_bin = dec.u64s()?;
        if grants_per_bin.len() != self.grants_per_bin.len() {
            return Err(SnapshotError::corrupt("grants-per-bin vector length differs"));
        }
        self.grants_per_bin = grants_per_bin;
        self.rebuild_mask();
        Ok(())
    }

    /// The §III spec: only *configuration* crosses — bins, credits,
    /// period, method, policy and the install cycle — while the
    /// grant/deny/feedback *semantics* are independently reimplemented
    /// by [`mitts_sim::oracle::ShaperOracle`].
    fn contract(&self) -> Option<ShaperContract> {
        Some(ShaperContract::Bins(MittsSpec {
            credits: self.config.credits().to_vec(),
            interval: self.config.spec().interval(),
            period: self.config.replenish_period(),
            feedback: self.method.into(),
            policy: self.policy.into(),
            k_max: K_MAX,
            installed_at: self.installed_at,
        }))
    }

    fn credit_audit(&self) -> CreditAudit {
        CreditAudit {
            bins: self
                .credits
                .iter()
                .enumerate()
                .map(|(bin, &live)| CreditBin {
                    live,
                    // The architectural bound: replenishment restores the
                    // configured count, and the refund path is clamped to
                    // this same cap (see on_llc_response).
                    max: self.config.credit(bin).clamp(1, K_MAX),
                })
                .collect(),
        }
    }
}

impl From<FeedbackMethod> for mitts_sim::oracle::SpecFeedback {
    fn from(m: FeedbackMethod) -> Self {
        match m {
            FeedbackMethod::DeductThenRefund => mitts_sim::oracle::SpecFeedback::DeductThenRefund,
            FeedbackMethod::DeductOnConfirm => mitts_sim::oracle::SpecFeedback::DeductOnConfirm,
            FeedbackMethod::PureL1 => mitts_sim::oracle::SpecFeedback::PureL1,
        }
    }
}

impl From<CreditPolicy> for mitts_sim::oracle::SpecPolicy {
    fn from(p: CreditPolicy) -> Self {
        match p {
            CreditPolicy::CheapestEligible => mitts_sim::oracle::SpecPolicy::CheapestEligible,
            CreditPolicy::MostExpensiveEligible => {
                mitts_sim::oracle::SpecPolicy::MostExpensiveEligible
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::BinSpec;

    fn cfg(credits: Vec<u32>, period: Cycle) -> BinConfig {
        BinConfig::new(BinSpec::paper_default(), credits, period).unwrap()
    }

    fn only_bin(bin: usize, n: u32, period: Cycle) -> BinConfig {
        let mut c = vec![0u32; 10];
        c[bin] = n;
        cfg(c, period)
    }

    #[test]
    fn credit_audit_tracks_live_credits_within_bounds() {
        let mut s = MittsShaper::new(cfg(vec![2; 10], 10_000));
        let before = s.credit_audit();
        assert_eq!(before.bins.len(), 10);
        assert!(before.reported());
        assert!(before.bins.iter().all(|b| b.live <= b.max));
        assert!(s.try_issue(100).is_grant());
        let after = s.credit_audit();
        assert!(after.bins.iter().all(|b| b.live <= b.max));
        let live = |a: &CreditAudit| a.bins.iter().map(|b| b.live).sum::<u32>();
        assert_eq!(live(&after), live(&before) - 1, "a grant consumes one credit");
    }

    #[test]
    fn first_request_is_always_eligible_if_any_credit() {
        let mut s = MittsShaper::new(only_bin(9, 1, 1000));
        assert!(s.try_issue(0).is_grant());
    }

    #[test]
    fn empty_config_denies_everything() {
        let mut s = MittsShaper::new(cfg(vec![0; 10], 1000));
        assert!(!s.try_issue(0).is_grant());
        assert!(!s.try_issue(500).is_grant());
    }

    #[test]
    fn fast_request_cannot_use_slow_bin() {
        // Credits only in bin 5 (inter-arrival ~55): a request arriving 3
        // cycles after the previous grant (bin 0) must stall.
        let mut s = MittsShaper::new(only_bin(5, 10, 10_000));
        assert!(s.try_issue(0).is_grant());
        assert!(!s.try_issue(3).is_grant(), "bin 0 request, only bin 5 credits");
        // After aging to 50 cycles the request reaches bin 5 and issues.
        assert!(!s.try_issue(30).is_grant(), "bin 3 < bin 5 still stalls");
        assert!(s.try_issue(50).is_grant());
    }

    #[test]
    fn slow_request_may_use_fast_bin() {
        // "no credits available in a bin with lower or equal inter-arrival"
        // — a slow request may consume a fast (expensive) credit.
        let mut s = MittsShaper::new(only_bin(0, 5, 10_000));
        assert!(s.try_issue(0).is_grant());
        assert!(s.try_issue(500).is_grant(), "bin 9 request uses bin 0 credit");
    }

    #[test]
    fn cheapest_eligible_policy_preserves_fast_credits() {
        let mut credits = vec![0u32; 10];
        credits[0] = 1;
        credits[4] = 1;
        let mut s = MittsShaper::new(cfg(credits, 10_000));
        assert!(s.try_issue(0).is_grant()); // first: cheapest eligible = bin 4
        assert_eq!(s.live_credits()[4], 0, "cheapest eligible spent first");
        assert_eq!(s.live_credits()[0], 1);
    }

    #[test]
    fn most_expensive_policy_spends_fast_credits_first() {
        let mut credits = vec![0u32; 10];
        credits[0] = 1;
        credits[4] = 1;
        let mut s = MittsShaper::new(cfg(credits, 10_000))
            .with_policy(CreditPolicy::MostExpensiveEligible);
        assert!(s.try_issue(0).is_grant());
        assert_eq!(s.live_credits()[0], 0);
        assert_eq!(s.live_credits()[4], 1);
    }

    #[test]
    fn replenishment_resets_to_k() {
        let mut s = MittsShaper::new(only_bin(0, 2, 100));
        assert!(s.try_issue(0).is_grant());
        assert!(s.try_issue(1).is_grant());
        assert!(!s.try_issue(2).is_grant());
        s.tick(99);
        assert!(!s.try_issue(99).is_grant(), "period not yet elapsed");
        s.tick(100);
        assert!(s.try_issue(100).is_grant(), "credits reset at T_r");
        assert_eq!(s.counters().replenishments, 1);
    }

    #[test]
    fn method2_refunds_on_llc_hit() {
        let mut s = MittsShaper::new(only_bin(0, 1, 10_000));
        let d = s.try_issue(0);
        let ShapeDecision::Grant(token) = d else { panic!("expected grant") };
        assert!(!s.try_issue(1).is_grant(), "budget exhausted");
        s.on_llc_response(5, token, true);
        assert!(s.try_issue(6).is_grant(), "refund restores the credit");
        assert_eq!(s.counters().refunds, 1);
    }

    #[test]
    fn method2_refund_clamps_at_k() {
        let mut s = MittsShaper::new(only_bin(0, 1, 10_000));
        // Refund without a matching deduction (replenish in between).
        s.on_llc_response(5, 0, true);
        assert_eq!(s.live_credits()[0], 1, "refund must not exceed K_i");
    }

    #[test]
    fn method2_no_refund_on_miss() {
        let mut s = MittsShaper::new(only_bin(0, 1, 10_000));
        let ShapeDecision::Grant(token) = s.try_issue(0) else { panic!() };
        s.on_llc_response(5, token, false);
        assert!(!s.try_issue(6).is_grant());
    }

    #[test]
    fn method1_deducts_only_on_confirm() {
        let mut s = MittsShaper::new(only_bin(0, 1, 10_000))
            .with_method(FeedbackMethod::DeductOnConfirm);
        let ShapeDecision::Grant(t0) = s.try_issue(0) else { panic!() };
        // Credit not yet deducted: a second request may (aggressively)
        // issue before the first resolves.
        assert!(s.try_issue(1).is_grant(), "method 1 is slightly aggressive");
        s.on_llc_response(5, t0, false);
        assert_eq!(s.live_credits()[0], 0);
        assert!(!s.try_issue(6).is_grant(), "after confirm the bin is empty");
        assert_eq!(s.counters().confirm_deductions, 1);
    }

    #[test]
    fn late_confirm_lands_in_the_new_period() {
        // Regression: the shaper is ticked lazily, so an LLC confirmation
        // can arrive after a replenish boundary the shaper has not applied
        // yet. The deduction must hit the NEW period's credits — in the
        // buggy version it hit the stale pre-boundary credits and was
        // then erased by the catch-up replenish, silently granting one
        // extra request per period (caught by the conformance oracle).
        let mut s = MittsShaper::new(only_bin(0, 1, 100))
            .with_method(FeedbackMethod::DeductOnConfirm);
        let ShapeDecision::Grant(t0) = s.try_issue(0) else { panic!() };
        // Boundary at 100 passes with no tick; the miss confirms at 150.
        s.on_llc_response(150, t0, false);
        s.tick(150);
        assert_eq!(
            s.live_credits()[0],
            0,
            "confirm after an unapplied boundary must spend the new period's credit"
        );
        assert!(!s.try_issue(151).is_grant());
    }

    #[test]
    fn confirm_at_the_boundary_cycle_spends_the_old_period() {
        // Within one cycle the order is feedback first, replenish second
        // (phase 3 before phase 4): a confirmation stamped exactly at the
        // boundary consumes the old period's credit and the boundary then
        // replenishes over it.
        let mut s = MittsShaper::new(only_bin(0, 1, 100))
            .with_method(FeedbackMethod::DeductOnConfirm);
        let ShapeDecision::Grant(t0) = s.try_issue(0) else { panic!() };
        s.on_llc_response(100, t0, false);
        s.tick(100);
        assert_eq!(s.live_credits()[0], 1, "the boundary replenish follows the feedback");
    }

    #[test]
    fn method1_hit_costs_nothing() {
        let mut s = MittsShaper::new(only_bin(0, 1, 10_000))
            .with_method(FeedbackMethod::DeductOnConfirm);
        let ShapeDecision::Grant(t0) = s.try_issue(0) else { panic!() };
        s.on_llc_response(5, t0, true);
        assert_eq!(s.live_credits()[0], 1);
    }

    #[test]
    fn pure_l1_ignores_llc_feedback() {
        let mut s = MittsShaper::new(only_bin(0, 1, 10_000))
            .with_method(FeedbackMethod::PureL1);
        let ShapeDecision::Grant(token) = s.try_issue(0) else { panic!() };
        // Even an LLC *hit* does not refund: the pure-L1 placement has no
        // feedback path, which is exactly its documented inaccuracy.
        s.on_llc_response(5, token, true);
        assert!(!s.try_issue(6).is_grant(), "pure-L1 must not refund on hit");
        assert_eq!(s.counters().refunds, 0);
    }

    #[test]
    fn reconfigure_installs_new_credits() {
        let mut s = MittsShaper::new(only_bin(0, 1, 100));
        assert!(s.try_issue(0).is_grant());
        s.reconfigure(50, only_bin(3, 7, 200));
        assert_eq!(s.live_credits()[3], 7);
        assert_eq!(s.live_credits()[0], 0);
        assert_eq!(s.config().replenish_period(), 200);
        // Replenish now happens at 50 + 200.
        s.tick(249);
        let before = s.counters().replenishments;
        s.tick(250);
        assert_eq!(s.counters().replenishments, before + 1);
    }

    #[test]
    fn context_switch_reconfigures_to_the_saved_config() {
        // A thread's MITTS configuration is its register state (§IV-H):
        // switching it out saves the config, switching it back in
        // reconfigures the shaper to it.
        let mut s = MittsShaper::new(only_bin(2, 9, 500));
        let saved = s.config().clone();
        s.reconfigure(100, only_bin(7, 3, 300));
        assert_eq!(s.live_credits()[7], 3);
        s.reconfigure(200, saved.clone());
        assert_eq!(*s.config(), saved);
        assert_eq!((s.live_credits()[2], s.live_credits()[7]), (9, 0));
    }

    #[test]
    fn grants_per_bin_tracks_emitted_distribution() {
        let mut credits = vec![0u32; 10];
        credits[0] = 2;
        credits[9] = 2;
        let mut s = MittsShaper::new(cfg(credits, 100_000));
        assert!(s.try_issue(0).is_grant()); // gap MAX -> bin 9 credit
        assert!(s.try_issue(2).is_grant()); // gap 2 -> bin 0 credit
        assert!(s.try_issue(100).is_grant()); // gap 98 -> bin 9 credit
        let g = s.grants_per_bin();
        assert_eq!(g[9], 2);
        assert_eq!(g[0], 1);
    }

    #[test]
    fn stale_token_after_reconfigure_is_ignored() {
        let spec = BinSpec::new(10, 10);
        let mut s = MittsShaper::new(BinConfig::new(spec, vec![1; 10], 100).unwrap());
        // A token equal to bins() (out of range) must not panic.
        s.on_llc_response(0, 10, true);
    }

    /// Oracle reimplementation of the pre-mask `eligible_bin` scan.
    fn scan_eligible(credits: &[u32], policy: CreditPolicy, request_bin: usize)
        -> Option<usize> {
        let range = 0..=request_bin;
        match policy {
            CreditPolicy::CheapestEligible => range.rev().find(|&j| credits[j] > 0),
            CreditPolicy::MostExpensiveEligible => {
                range.into_iter().find(|&j| credits[j] > 0)
            }
        }
    }

    #[test]
    fn mask_eligibility_matches_linear_scan() {
        // Drive a shaper through grants, refunds, confirms, replenishes,
        // and reconfigures; after every mutation the mask-based pick must
        // agree with a linear scan over the live credits, for every
        // request bin and both policies.
        for policy in [CreditPolicy::CheapestEligible, CreditPolicy::MostExpensiveEligible] {
            let mut credits = vec![0u32; 10];
            credits[1] = 2;
            credits[4] = 1;
            credits[7] = 3;
            let mut s = MittsShaper::new(cfg(credits, 300)).with_policy(policy);
            let check = |s: &MittsShaper| {
                for rb in 0..10 {
                    assert_eq!(
                        s.eligible_bin(rb),
                        scan_eligible(s.live_credits(), policy, rb),
                        "policy {policy:?}, request bin {rb}, credits {:?}",
                        s.live_credits()
                    );
                }
            };
            check(&s);
            let mut tokens = Vec::new();
            for now in (0..900).step_by(17) {
                s.tick(now);
                check(&s);
                if let ShapeDecision::Grant(t) = s.try_issue(now) {
                    tokens.push(t);
                }
                check(&s);
                if now % 51 == 0 {
                    if let Some(t) = tokens.pop() {
                        s.on_llc_response(now, t, now % 2 == 0);
                        check(&s);
                    }
                }
            }
            s.reconfigure(900, only_bin(6, 2, 500));
            check(&s);
        }
    }

    #[test]
    fn catch_up_tick_matches_per_cycle_ticks() {
        // Ticking once at cycle N must replay every replenishment that
        // per-cycle ticking would have performed in between.
        let mut naive = MittsShaper::new(only_bin(0, 2, 100));
        let mut fast = MittsShaper::new(only_bin(0, 2, 100));
        assert!(naive.try_issue(0).is_grant() && fast.try_issue(0).is_grant());
        for now in 1..=550 {
            naive.tick(now);
        }
        fast.tick(550);
        assert_eq!(naive.counters(), fast.counters());
        assert_eq!(naive.live_credits(), fast.live_credits());
        assert_eq!(naive.try_issue(550).is_grant(), fast.try_issue(550).is_grant());
    }

    #[test]
    fn next_grant_event_never_overshoots_a_grant() {
        // For a denied request, repeatedly jumping to the predicted event
        // must find the grant no later than per-cycle retrying would.
        let mut credits = vec![0u32; 10];
        credits[5] = 1;
        let mut naive = MittsShaper::new(cfg(credits.clone(), 1_000));
        let mut fast = MittsShaper::new(cfg(credits, 1_000));
        assert!(naive.try_issue(0).is_grant() && fast.try_issue(0).is_grant());

        // Naive: retry every cycle until granted.
        let mut naive_grant = None;
        for now in 1..=2_000 {
            naive.tick(now);
            if naive.try_issue(now).is_grant() {
                naive_grant = Some(now);
                break;
            }
        }

        // Fast: only retry at predicted grant events.
        let mut fast_grant = None;
        let mut now = 1;
        fast.tick(now);
        if fast.try_issue(now).is_grant() {
            fast_grant = Some(now);
        }
        while fast_grant.is_none() && now <= 2_000 {
            let wake = fast.next_grant_event(now).expect("grant must stay possible");
            assert!(wake > now, "events must move forward");
            now = wake;
            fast.tick(now);
            if fast.try_issue(now).is_grant() {
                fast_grant = Some(now);
            }
        }
        assert_eq!(naive_grant, fast_grant, "event-driven retry must not miss the grant");
    }

    #[test]
    fn no_credits_configured_has_no_grant_event() {
        let s = MittsShaper::new(cfg(vec![0; 10], 1_000));
        assert_eq!(s.next_grant_event(0), None, "waiting can never help");
    }

    #[test]
    fn a_denial_changes_no_state() {
        // The skip engine jumps over denied cycles without calling
        // `try_issue`, so a denial must leave the shaper as it found it.
        let mut s = MittsShaper::new(only_bin(5, 10, 10_000));
        assert!(s.try_issue(0).is_grant());
        let bytes = |s: &MittsShaper| {
            let mut enc = mitts_sim::snapshot::Enc::new();
            s.save_state(&mut enc);
            enc.into_bytes()
        };
        let before = bytes(&s);
        for now in 1..7 {
            assert!(!s.try_issue(now).is_grant());
        }
        assert_eq!(bytes(&s), before);
    }

    /// The §III spec `shaper` states to the auditor.
    fn stated_spec(shaper: &MittsShaper) -> MittsSpec {
        match shaper.contract() {
            Some(ShaperContract::Bins(spec)) => spec,
            other => panic!("MITTS states its bin spec, not {other:?}"),
        }
    }

    #[test]
    fn contract_states_the_configuration() {
        let mut shaper = MittsShaper::new(cfg(vec![4, 3, 2, 2, 1, 1, 1, 1, 1, 8], 300))
            .with_method(FeedbackMethod::DeductOnConfirm)
            .with_policy(CreditPolicy::MostExpensiveEligible);
        let spec = stated_spec(&shaper);
        assert_eq!(spec.credits, shaper.config().credits());
        assert_eq!(spec.interval, 10);
        assert_eq!(spec.period, 300);
        assert_eq!(spec.feedback, mitts_sim::oracle::SpecFeedback::DeductOnConfirm);
        assert_eq!(spec.policy, mitts_sim::oracle::SpecPolicy::MostExpensiveEligible);
        assert_eq!(spec.k_max, K_MAX);
        assert_eq!(spec.installed_at, 0);
        assert_eq!(shaper.policy(), CreditPolicy::MostExpensiveEligible);
        // A reinstall of the same configuration is a new contract.
        shaper.reconfigure(77, shaper.config().clone());
        assert_eq!(stated_spec(&shaper), MittsSpec { installed_at: 77, ..spec });
    }

    #[test]
    fn snapshot_restores_the_install_cycle() {
        let mut a = MittsShaper::new(cfg(vec![1; 10], 300));
        a.reconfigure(120, a.config().clone());
        let mut enc = mitts_sim::snapshot::Enc::new();
        a.save_state(&mut enc);
        let mut b = MittsShaper::new(cfg(vec![1; 10], 300));
        b.load_state(&mut mitts_sim::snapshot::Dec::new(&enc.into_bytes())).unwrap();
        assert_eq!(stated_spec(&b), stated_spec(&a));
    }

    /// Differential harness: drives the real shaper cycle-by-cycle with a
    /// seeded request pattern and mirrors every grant, denied-stall
    /// window, and LLC response into a [`mitts_sim::oracle::ShaperOracle`]
    /// exactly as the invariant auditor presents them.
    mod differential {
        use super::*;
        use mitts_sim::audit::AuditLog;
        use mitts_sim::oracle::{ShaperOracle, SpecPolicy};
        use mitts_sim::rng::Rng;

        fn drive(
            shaper: &mut MittsShaper,
            oracle: &mut ShaperOracle,
            log: &mut AuditLog,
            seed: u64,
            horizon: Cycle,
        ) {
            let mut rng = Rng::seeded(seed);
            // In-flight LLC lookups: (respond_at, token, hit).
            let mut pending: Vec<(Cycle, ShapeToken, bool)> = Vec::new();
            let mut next_request: Cycle = 0;
            let mut stalled = false;
            for now in 0..horizon {
                // Feedback lands before the cycle's replenish boundary,
                // mirroring the simulator's phase order.
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].0 == now {
                        let (_, token, hit) = pending.swap_remove(i);
                        oracle.on_feedback(now, token, hit, log);
                        shaper.on_llc_response(now, token, hit);
                    } else {
                        i += 1;
                    }
                }
                shaper.tick(now);
                if now >= next_request {
                    match shaper.try_issue(now) {
                        ShapeDecision::Grant(token) => {
                            stalled = false;
                            oracle.on_grant(0, now, token, |_| false, log);
                            let hit = rng.chance(0.35);
                            pending.push((now + rng.range(1, 40), token, hit));
                            next_request = now
                                + if rng.chance(0.2) { rng.range(30, 120) } else { rng.range(1, 15) };
                        }
                        ShapeDecision::Deny => {
                            // The core retries every cycle until granted.
                            if !stalled {
                                stalled = true;
                                oracle.on_stall_begin(0, now);
                            }
                        }
                    }
                }
                if now % 64 == 63 {
                    oracle.check_open(now, log);
                }
            }
            oracle.check_open(horizon - 1, log);
        }

        fn busy_config() -> BinConfig {
            // Sparse credits and a short period so denial windows,
            // replenish boundaries, and refund clamping all get exercised.
            cfg(vec![2, 2, 1, 1, 1, 0, 1, 1, 0, 3], 257)
        }

        #[test]
        fn real_shaper_conforms_to_spec_oracle() {
            for (method, policy) in [
                (FeedbackMethod::DeductThenRefund, CreditPolicy::CheapestEligible),
                (FeedbackMethod::DeductThenRefund, CreditPolicy::MostExpensiveEligible),
                (FeedbackMethod::DeductOnConfirm, CreditPolicy::CheapestEligible),
                (FeedbackMethod::PureL1, CreditPolicy::CheapestEligible),
            ] {
                let mut shaper =
                    MittsShaper::new(busy_config()).with_method(method).with_policy(policy);
                let mut oracle = ShaperOracle::new(stated_spec(&shaper));
                let mut log = AuditLog::new(64);
                drive(&mut shaper, &mut oracle, &mut log, 0x5EED_0001, 20_000);
                assert!(
                    log.violations().is_empty(),
                    "{method:?}/{policy:?}: {:?}",
                    log.violations()
                );
                assert!(oracle.grants_checked() > 100, "{method:?}/{policy:?}: too few grants");
                assert!(
                    oracle.denied_cycles_checked() > 0,
                    "{method:?}/{policy:?}: no denial windows exercised"
                );
            }
        }

        #[test]
        fn mutated_specs_are_detected() {
            let spec = stated_spec(&MittsShaper::new(busy_config()));
            let mutations: Vec<(&str, MittsSpec)> = vec![
                ("reduced coarse-bin credits", {
                    let mut s = spec.clone();
                    s.credits[9] = 1;
                    s
                }),
                ("doubled replenish period", MittsSpec { period: spec.period * 2, ..spec.clone() }),
                ("doubled bin interval", MittsSpec { interval: spec.interval * 2, ..spec.clone() }),
                (
                    "wrong spend policy",
                    MittsSpec { policy: SpecPolicy::MostExpensiveEligible, ..spec.clone() },
                ),
            ];
            for (name, mutated) in mutations {
                let mut shaper = MittsShaper::new(busy_config());
                let mut oracle = ShaperOracle::new(mutated);
                let mut log = AuditLog::new(64);
                drive(&mut shaper, &mut oracle, &mut log, 0x5EED_0002, 20_000);
                assert!(
                    !log.violations().is_empty(),
                    "mutation {name:?} went undetected by the shaper oracle"
                );
            }
        }
    }
}
