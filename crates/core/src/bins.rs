//! Bin configuration math (Table I of the paper).
//!
//! A MITTS shaper has `N` bins; `bin_i` holds credits for memory requests
//! whose inter-arrival time falls in `[i*L, (i+1)*L)` cycles, represented
//! by the bin centre `t_i = (i + 1/2) * L`. The credit counts `K_i`
//! (replenished every `T_r` cycles) define the traffic distribution a
//! core is allowed to emit:
//!
//! * average inter-arrival time `I_avg = Σ n_i·t_i / Σ n_i`;
//! * average bandwidth `B_avg = Σ n_i / T_r` requests per cycle
//!   (× 64 B per request for bytes).

use mitts_sim::types::Cycle;

/// Maximum credits one bin can hold — the taped-out chip uses 10-bit
/// credit registers (§III-E).
pub const K_MAX: u32 = 1024;

/// Maximum number of bins: the shaper resolves the eligible bin from a
/// one-word bitmask of the non-empty bins. The paper's chip has 10.
pub const MAX_BINS: usize = 64;

/// Geometry of a bin array: how many bins and how wide each is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinSpec {
    bins: usize,
    interval: Cycle,
}

impl BinSpec {
    /// Creates a spec with `bins` bins of `interval` cycles each.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `bins > MAX_BINS`, or `interval == 0`.
    pub fn new(bins: usize, interval: Cycle) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(bins <= MAX_BINS, "{bins} bins exceed the maximum of {MAX_BINS}");
        assert!(interval > 0, "bin interval must be positive");
        BinSpec { bins, interval }
    }

    /// The paper's default: `N = 10` bins of `L = 10` CPU cycles.
    pub fn paper_default() -> Self {
        BinSpec::new(10, 10)
    }

    /// Number of bins `N`.
    pub fn bins(self) -> usize {
        self.bins
    }

    /// Interval length `L` in cycles.
    pub fn interval(self) -> Cycle {
        self.interval
    }

    /// Representative inter-arrival time of `bin_i` (the bin centre
    /// `t_i = (i + 1/2)·L`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    pub fn t_i(self, i: usize) -> f64 {
        assert!(i < self.bins, "bin index {i} out of range");
        (i as f64 + 0.5) * self.interval as f64
    }

    /// The bin a request with inter-arrival `gap` falls into.
    ///
    /// Boundary semantics (pinned by tests and mirrored by the
    /// conformance oracle in `mitts_sim::oracle`): bins are half-open —
    /// `bin_i` covers `[i·L, (i+1)·L)`, so the boundary gap `i·L`
    /// belongs to `bin_i`, not `bin_{i-1}`. Gaps at or beyond `N·L`
    /// (including the "infinite" first-request gap, `Cycle::MAX`) clamp
    /// to the coarsest bin `N - 1`.
    pub fn bin_for_gap(self, gap: Cycle) -> usize {
        ((gap / self.interval) as usize).min(self.bins - 1)
    }

    /// Equivalent instantaneous bandwidth of `bin_i` in requests/cycle
    /// (`b_i = 1 / t_i`).
    pub fn b_i(self, i: usize) -> f64 {
        1.0 / self.t_i(i)
    }
}

impl Default for BinSpec {
    fn default() -> Self {
        BinSpec::paper_default()
    }
}

/// A full shaper configuration: bin geometry, per-bin replenish credits
/// `K_i`, and the replenishment period `T_r`.
///
/// # Examples
///
/// ```
/// use mitts_core::bins::{BinConfig, BinSpec};
/// // 10 credits in the fastest bin, 20 in the slowest, every 1000 cycles.
/// let mut credits = vec![0u32; 10];
/// credits[0] = 10;
/// credits[9] = 20;
/// let cfg = BinConfig::new(BinSpec::paper_default(), credits, 1000).unwrap();
/// assert!((cfg.requests_per_cycle() - 0.03).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinConfig {
    spec: BinSpec,
    credits: Vec<u32>,
    replenish_period: Cycle,
}

/// Errors constructing a [`BinConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinConfigError {
    /// The credit vector length does not match the spec's bin count.
    WrongLength {
        /// Bins expected by the spec.
        expected: usize,
        /// Bins provided.
        got: usize,
    },
    /// A bin exceeds the hardware maximum [`K_MAX`].
    CreditOverflow {
        /// Offending bin index.
        bin: usize,
        /// Provided credit count.
        credits: u32,
    },
    /// The replenishment period is zero.
    ZeroPeriod,
}

impl std::fmt::Display for BinConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinConfigError::WrongLength { expected, got } => {
                write!(f, "expected {expected} bins, got {got}")
            }
            BinConfigError::CreditOverflow { bin, credits } => {
                write!(f, "bin {bin} holds {credits} credits, max is {K_MAX}")
            }
            BinConfigError::ZeroPeriod => f.write_str("replenishment period must be positive"),
        }
    }
}

impl std::error::Error for BinConfigError {}

impl BinConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if `credits.len() != spec.bins()`, any bin exceeds
    /// [`K_MAX`], or `replenish_period == 0`.
    pub fn new(
        spec: BinSpec,
        credits: Vec<u32>,
        replenish_period: Cycle,
    ) -> Result<Self, BinConfigError> {
        if credits.len() != spec.bins() {
            return Err(BinConfigError::WrongLength { expected: spec.bins(), got: credits.len() });
        }
        if let Some((bin, &c)) = credits.iter().enumerate().find(|(_, &c)| c > K_MAX) {
            return Err(BinConfigError::CreditOverflow { bin, credits: c });
        }
        if replenish_period == 0 {
            return Err(BinConfigError::ZeroPeriod);
        }
        Ok(BinConfig { spec, credits, replenish_period })
    }

    /// A configuration equivalent to a static rate limiter: all credits in
    /// the single bin whose centre best matches `interval`, sized so the
    /// average bandwidth equals one request per `interval` cycles.
    ///
    /// This is the paper's "static bandwidth allocation" expressed in
    /// MITTS terms (§IV-G3: "configurations with only credits in one
    /// bin").
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn single_bin(spec: BinSpec, interval: Cycle, replenish_period: Cycle) -> Self {
        assert!(interval > 0, "interval must be positive");
        let bin = spec.bin_for_gap(interval);
        let mut credits = vec![0u32; spec.bins()];
        let n = (replenish_period / interval).max(1).min(K_MAX as Cycle) as u32;
        credits[bin] = n;
        BinConfig { spec, credits, replenish_period }
    }

    /// A fully open configuration (every bin maxed) — effectively
    /// unlimited traffic; useful as a baseline and for tests.
    pub fn unlimited(spec: BinSpec, replenish_period: Cycle) -> Self {
        BinConfig { spec, credits: vec![K_MAX; spec.bins()], replenish_period }
    }

    /// The bin geometry.
    pub fn spec(&self) -> BinSpec {
        self.spec
    }

    /// Per-bin replenish credit counts `K_i`.
    pub fn credits(&self) -> &[u32] {
        &self.credits
    }

    /// Credits in `bin_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn credit(&self, i: usize) -> u32 {
        self.credits[i]
    }

    /// The replenishment period `T_r` in cycles.
    pub fn replenish_period(&self) -> Cycle {
        self.replenish_period
    }

    /// Total credits per period `Σ K_i`.
    pub fn total_credits(&self) -> u64 {
        self.credits.iter().map(|&c| c as u64).sum()
    }

    /// Average inter-arrival time `I_avg = Σ n_i·t_i / Σ n_i` in cycles.
    /// Returns `None` for an all-zero configuration.
    pub fn average_interval(&self) -> Option<f64> {
        let total = self.total_credits();
        if total == 0 {
            return None;
        }
        let weighted: f64 = self
            .credits
            .iter()
            .enumerate()
            .map(|(i, &n)| n as f64 * self.spec.t_i(i))
            .sum();
        Some(weighted / total as f64)
    }

    /// Average admitted bandwidth `B_avg = Σ n_i / T_r` in requests per
    /// cycle.
    pub fn requests_per_cycle(&self) -> f64 {
        self.total_credits() as f64 / self.replenish_period as f64
    }

    /// Average admitted bandwidth in bytes per cycle (64 B lines).
    pub fn bytes_per_cycle(&self) -> f64 {
        self.requests_per_cycle() * 64.0
    }

    /// Average admitted bandwidth in GB/s at core frequency `freq_hz`.
    pub fn gb_per_s(&self, freq_hz: f64) -> f64 {
        self.bytes_per_cycle() * freq_hz / 1e9
    }

    /// Builds a credit vector admitting approximately `gb_s` GB/s at
    /// `freq_hz` with all credits in bin `bin` — the building block of
    /// the static provisioning baselines.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range or the result would exceed
    /// [`K_MAX`] credits.
    pub fn single_bin_for_bandwidth(
        spec: BinSpec,
        bin: usize,
        gb_s: f64,
        freq_hz: f64,
        replenish_period: Cycle,
    ) -> Self {
        assert!(bin < spec.bins(), "bin {bin} out of range");
        let bytes_per_cycle = gb_s * 1e9 / freq_hz;
        let requests_per_period = bytes_per_cycle / 64.0 * replenish_period as f64;
        let n = requests_per_period.round().max(0.0) as u32;
        assert!(n <= K_MAX, "bandwidth needs {n} credits, max is {K_MAX}");
        let mut credits = vec![0u32; spec.bins()];
        credits[bin] = n;
        BinConfig { spec, credits, replenish_period }
    }

    /// Returns a copy with one bin's credits replaced.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range or `credits > K_MAX`.
    pub fn with_credit(&self, bin: usize, credits: u32) -> Self {
        assert!(credits <= K_MAX, "credits exceed K_MAX");
        let mut c = self.clone();
        c.credits[bin] = credits;
        c
    }

    /// Parses the compact textual form produced by the `Display`
    /// implementation: comma-separated credits, `@`, the replenishment
    /// period, and optionally `/` plus the bin interval length `L`
    /// (default 10). Example: `"40,0,0,0,0,0,0,0,0,60@10000"`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string for malformed input or values
    /// violating the [`BinConfig::new`] invariants.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (credits_part, rest) =
            s.split_once('@').ok_or_else(|| format!("missing '@period' in {s:?}"))?;
        let (period_part, interval_part) = match rest.split_once('/') {
            Some((p, l)) => (p, Some(l)),
            None => (rest, None),
        };
        let credits: Vec<u32> = credits_part
            .split(',')
            .map(|c| c.trim().parse::<u32>().map_err(|e| format!("bad credit {c:?}: {e}")))
            .collect::<Result<_, _>>()?;
        let period: Cycle =
            period_part.trim().parse().map_err(|e| format!("bad period: {e}"))?;
        let interval: Cycle = match interval_part {
            Some(l) => l.trim().parse().map_err(|e| format!("bad interval: {e}"))?,
            None => 10,
        };
        if credits.is_empty() {
            return Err("need at least one bin".to_owned());
        }
        if credits.len() > MAX_BINS {
            return Err(format!("{} bins exceed the maximum of {MAX_BINS}", credits.len()));
        }
        if interval == 0 {
            return Err("interval must be positive".to_owned());
        }
        let spec = BinSpec::new(credits.len(), interval);
        BinConfig::new(spec, credits, period).map_err(|e| e.to_string())
    }
}

impl std::fmt::Display for BinConfig {
    /// The compact form accepted by [`BinConfig::parse`]:
    /// `credits,...@period/L` (the `/L` suffix is omitted for the default
    /// `L = 10`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let credits: Vec<String> = self.credits.iter().map(u32::to_string).collect();
        write!(f, "{}@{}", credits.join(","), self.replenish_period)?;
        if self.spec.interval() != 10 {
            write!(f, "/{}", self.spec.interval())?;
        }
        Ok(())
    }
}

impl Default for BinConfig {
    /// The default is a generous but bounded allocation: 64 credits in
    /// every bin over a 10 000-cycle period.
    fn default() -> Self {
        BinConfig {
            spec: BinSpec::paper_default(),
            credits: vec![64; 10],
            replenish_period: 10_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_bin_centres() {
        let s = BinSpec::paper_default();
        assert_eq!(s.bins(), 10);
        assert_eq!(s.interval(), 10);
        assert!((s.t_i(0) - 5.0).abs() < 1e-12);
        assert!((s.t_i(9) - 95.0).abs() < 1e-12);
    }

    #[test]
    fn bin_for_gap_quantises_and_clamps() {
        let s = BinSpec::paper_default();
        assert_eq!(s.bin_for_gap(0), 0);
        assert_eq!(s.bin_for_gap(9), 0);
        assert_eq!(s.bin_for_gap(10), 1);
        assert_eq!(s.bin_for_gap(95), 9);
        assert_eq!(s.bin_for_gap(10_000), 9);
    }

    #[test]
    fn bin_boundaries_are_half_open() {
        // Boundary audit: the left edge i*L belongs to bin i (half-open
        // intervals), the right edge (i+1)*L - 1 is the last gap of bin i.
        let s = BinSpec::new(4, 25);
        for i in 0..4usize {
            assert_eq!(s.bin_for_gap(i as Cycle * 25), i, "left edge of bin {i}");
            assert_eq!(s.bin_for_gap((i as Cycle + 1) * 25 - 1), i, "right edge of bin {i}");
        }
        // Gaps at or past N*L clamp to the coarsest bin.
        assert_eq!(s.bin_for_gap(100), 3);
        assert_eq!(s.bin_for_gap(101), 3);
    }

    #[test]
    fn first_request_infinite_gap_lands_in_coarsest_bin() {
        // The first request of a run has no predecessor; the shaper
        // treats its gap as Cycle::MAX, which must clamp into bin N-1
        // without overflowing the index arithmetic.
        assert_eq!(BinSpec::paper_default().bin_for_gap(Cycle::MAX), 9);
        assert_eq!(BinSpec::new(1, 1).bin_for_gap(Cycle::MAX), 0);
    }

    #[test]
    fn bin_for_gap_matches_oracle_spec_quantisation() {
        // The conformance oracle reimplements the same quantisation on
        // the sim side; sweep the two for agreement, including both edges
        // of every bin and the clamp region.
        let s = BinSpec::paper_default();
        let spec = mitts_sim::oracle::MittsSpec {
            credits: vec![1; s.bins()],
            interval: s.interval(),
            period: 100,
            feedback: mitts_sim::oracle::SpecFeedback::PureL1,
            policy: mitts_sim::oracle::SpecPolicy::CheapestEligible,
            k_max: K_MAX,
            installed_at: 0,
        };
        for gap in (0u64..200).chain([1_000, 10_000, Cycle::MAX - 1, Cycle::MAX]) {
            assert_eq!(s.bin_for_gap(gap), spec.bin_for_gap(gap), "gap {gap}");
        }
    }

    #[test]
    fn b_i_is_inverse_latency() {
        let s = BinSpec::paper_default();
        assert!((s.b_i(0) - 0.2).abs() < 1e-12);
        assert!(s.b_i(0) > s.b_i(9), "faster bins represent more bandwidth");
    }

    #[test]
    fn config_validation() {
        let s = BinSpec::paper_default();
        assert!(matches!(
            BinConfig::new(s, vec![0; 9], 100),
            Err(BinConfigError::WrongLength { expected: 10, got: 9 })
        ));
        let mut too_big = vec![0; 10];
        too_big[3] = K_MAX + 1;
        assert!(matches!(
            BinConfig::new(s, too_big, 100),
            Err(BinConfigError::CreditOverflow { bin: 3, .. })
        ));
        assert!(matches!(
            BinConfig::new(s, vec![0; 10], 0),
            Err(BinConfigError::ZeroPeriod)
        ));
    }

    #[test]
    fn average_interval_formula() {
        let s = BinSpec::paper_default();
        let mut credits = vec![0u32; 10];
        credits[0] = 10; // t=5
        credits[9] = 10; // t=95
        let cfg = BinConfig::new(s, credits, 1000).unwrap();
        assert!((cfg.average_interval().unwrap() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn average_interval_of_empty_is_none() {
        let cfg = BinConfig::new(BinSpec::paper_default(), vec![0; 10], 100).unwrap();
        assert!(cfg.average_interval().is_none());
        assert_eq!(cfg.requests_per_cycle(), 0.0);
    }

    #[test]
    fn bandwidth_math() {
        let s = BinSpec::paper_default();
        let mut credits = vec![0u32; 10];
        credits[0] = 100;
        let cfg = BinConfig::new(s, credits, 1000).unwrap();
        assert!((cfg.requests_per_cycle() - 0.1).abs() < 1e-12);
        assert!((cfg.bytes_per_cycle() - 6.4).abs() < 1e-12);
        // 6.4 B/cycle * 2.4 GHz = 15.36 GB/s.
        assert!((cfg.gb_per_s(2.4e9) - 15.36).abs() < 1e-9);
    }

    #[test]
    fn single_bin_matches_static_rate() {
        let cfg = BinConfig::single_bin(BinSpec::paper_default(), 38, 10_000);
        // interval 38 -> bin 3; 10000/38 = 263 credits.
        assert_eq!(cfg.credit(3), 263);
        assert_eq!(cfg.total_credits(), 263);
        let rpc = cfg.requests_per_cycle();
        assert!((rpc - 1.0 / 38.0).abs() < 1e-3);
    }

    #[test]
    fn single_bin_for_bandwidth_roundtrips() {
        // 1 GB/s at 2.4 GHz over a 10 000-cycle period.
        let cfg = BinConfig::single_bin_for_bandwidth(
            BinSpec::paper_default(),
            5,
            1.0,
            2.4e9,
            10_000,
        );
        let back = cfg.gb_per_s(2.4e9);
        assert!((back - 1.0).abs() < 0.02, "roundtrip bandwidth {back} != 1.0");
        assert_eq!(cfg.credits().iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn unlimited_is_maxed() {
        let cfg = BinConfig::unlimited(BinSpec::paper_default(), 100);
        assert!(cfg.credits().iter().all(|&c| c == K_MAX));
    }

    #[test]
    fn with_credit_replaces_one_bin() {
        let cfg = BinConfig::default().with_credit(2, 7);
        assert_eq!(cfg.credit(2), 7);
        assert_eq!(cfg.credit(3), 64);
    }

    #[test]
    fn display_parse_round_trip() {
        let cfg = BinConfig::new(
            BinSpec::paper_default(),
            vec![40, 0, 0, 0, 0, 0, 0, 0, 0, 60],
            10_000,
        )
        .unwrap();
        let s = cfg.to_string();
        assert_eq!(s, "40,0,0,0,0,0,0,0,0,60@10000");
        assert_eq!(BinConfig::parse(&s).unwrap(), cfg);
        // Non-default interval length round-trips through the /L suffix.
        let wide = BinConfig::new(BinSpec::new(4, 25), vec![1, 2, 3, 4], 500).unwrap();
        let s = wide.to_string();
        assert_eq!(s, "1,2,3,4@500/25");
        assert_eq!(BinConfig::parse(&s).unwrap(), wide);
    }

    #[test]
    fn parse_rejects_malformed_strings() {
        for bad in [
            "1,2,3",          // no period
            "1,x@100",        // bad credit
            "1,2@zz",         // bad period
            "1,2@100/0",      // zero interval
            "1,2@0",          // zero period
            "@100",           // no credits
            "2000@100",       // credit over K_MAX
        ] {
            assert!(BinConfig::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn bin_count_is_capped_at_the_mask_width() {
        let credits = |n: usize| vec!["1"; n].join(",") + "@100";
        assert_eq!(BinConfig::parse(&credits(MAX_BINS)).unwrap().spec().bins(), MAX_BINS);
        let err = BinConfig::parse(&credits(MAX_BINS + 1)).unwrap_err();
        assert!(err.contains("65 bins"), "{err}");
    }

    #[test]
    #[should_panic(expected = "exceed the maximum")]
    fn bin_spec_rejects_more_bins_than_the_mask_holds() {
        let _ = BinSpec::new(MAX_BINS + 1, 10);
    }

    #[test]
    fn parse_tolerates_whitespace() {
        let cfg = BinConfig::parse(" 1 , 2 @ 100 ").unwrap_or_else(|_| {
            // Leading/trailing space around the whole string is not
            // required to work; inner trimming is.
            BinConfig::parse("1, 2@ 100").unwrap()
        });
        assert_eq!(cfg.credits(), &[1, 2]);
        assert_eq!(cfg.replenish_period(), 100);
    }

    #[test]
    fn error_display_is_informative() {
        let e = BinConfigError::CreditOverflow { bin: 1, credits: 2000 };
        assert!(e.to_string().contains("2000"));
        assert!(BinConfigError::ZeroPeriod.to_string().contains("positive"));
    }
}
