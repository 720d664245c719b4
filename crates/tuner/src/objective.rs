//! Objective functions for the configuration search (§IV-B, §IV-D).
//!
//! All objectives are *maximised*. For multiprogram runs they are built
//! on slowdowns (`S_i = IPC_alone / IPC_shared` offline, or the paper's
//! blended online estimate); for single-program runs on raw IPC.

use mitts_sim::stats::{s_avg, s_max};

/// What the tuner optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximise system throughput = minimise average slowdown `S_avg`.
    Throughput,
    /// Maximise fairness = minimise maximum slowdown `S_max`.
    Fairness,
    /// Maximise the (single or mean) program IPC.
    Performance,
    /// Maximise the number of tenants admitted under an SLO: a tenant is
    /// *admitted* when its slowdown stays at or below
    /// `max_slowdown_pct / 100`. The datacenter capacity objective — tune
    /// bins to pack as many healthy users as possible, not to make the
    /// average user fastest.
    MaxUsersUnderSlo {
        /// Admission bound on per-tenant slowdown, in percent (e.g. 150
        /// admits tenants slowed at most 1.5x).
        max_slowdown_pct: u32,
    },
}

impl Objective {
    /// Stable small integer identifying the objective, used to salt
    /// deterministic seeds. Matches the discriminant values the
    /// field-less enum had (`as u64`), so existing experiment artifacts
    /// stay byte-identical.
    pub fn seed_tag(self) -> u64 {
        match self {
            Objective::Throughput => 0,
            Objective::Fairness => 1,
            Objective::Performance => 2,
            Objective::MaxUsersUnderSlo { .. } => 3,
        }
    }

    /// Scores a measurement window (higher is better).
    ///
    /// `slowdowns` and `ipcs` are per-core; objectives that do not use a
    /// vector ignore it.
    ///
    /// # Panics
    ///
    /// Panics if the required vector is empty.
    pub fn score(self, slowdowns: &[f64], ipcs: &[f64]) -> f64 {
        match self {
            Objective::Throughput => -s_avg(slowdowns),
            Objective::Fairness => -s_max(slowdowns),
            Objective::Performance => {
                assert!(!ipcs.is_empty(), "need IPCs");
                ipcs.iter().sum::<f64>() / ipcs.len() as f64
            }
            Objective::MaxUsersUnderSlo { max_slowdown_pct } => {
                let avg = s_avg(slowdowns);
                let bound = max_slowdown_pct as f64 / 100.0;
                let admitted = slowdowns.iter().filter(|&&s| s <= bound).count();
                // Admitted count dominates; the bounded average-slowdown
                // term (in (0, 1]) breaks ties toward healthier packs so
                // the GA keeps a gradient between equal admission counts.
                admitted as f64 + 1.0 / (1.0 + avg)
            }
        }
    }

    /// The paper's online slowdown estimate (§IV-B), blending the MISE
    /// rate ratio with the memory stall fraction:
    ///
    /// `S = (1-α)·(alone_rate / shared_rate) + α·stall_fraction`-adjusted,
    /// clamped to `>= 1`. `α = 0.5` weights both signals equally; a core
    /// with no measured traffic is assumed unslowed.
    pub fn online_slowdown(alone_rate: f64, shared_rate: f64, stall_fraction: f64) -> f64 {
        const ALPHA: f64 = 0.5;
        if alone_rate <= 0.0 {
            return 1.0;
        }
        let rate_ratio = if shared_rate > 0.0 {
            (alone_rate / shared_rate).max(1.0)
        } else {
            // No requests serviced at all while stalled: heavily slowed.
            if stall_fraction > 0.0 { 10.0 } else { 1.0 }
        };
        let stall_term = 1.0 / (1.0 - stall_fraction.clamp(0.0, 0.9));
        ((1.0 - ALPHA) * rate_ratio + ALPHA * stall_term).max(1.0)
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Objective::Throughput => f.write_str("throughput"),
            Objective::Fairness => f.write_str("fairness"),
            Objective::Performance => f.write_str("performance"),
            Objective::MaxUsersUnderSlo { max_slowdown_pct } => {
                write!(f, "max_users_under_slo({max_slowdown_pct}%)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_prefers_lower_average_slowdown() {
        let good = Objective::Throughput.score(&[1.1, 1.2], &[]);
        let bad = Objective::Throughput.score(&[2.0, 2.5], &[]);
        assert!(good > bad);
    }

    #[test]
    fn fairness_keys_on_the_worst_core() {
        // Same average, different max.
        let balanced = Objective::Fairness.score(&[1.5, 1.5], &[]);
        let skewed = Objective::Fairness.score(&[1.0, 2.0], &[]);
        assert!(balanced > skewed);
    }

    #[test]
    fn performance_is_mean_ipc() {
        let s = Objective::Performance.score(&[], &[2.0, 4.0]);
        assert!((s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn online_slowdown_is_at_least_one() {
        assert_eq!(Objective::online_slowdown(0.0, 0.1, 0.5), 1.0);
        assert!(Objective::online_slowdown(0.1, 0.2, 0.0) >= 1.0);
    }

    #[test]
    fn online_slowdown_grows_with_interference() {
        let light = Objective::online_slowdown(0.1, 0.09, 0.1);
        let heavy = Objective::online_slowdown(0.1, 0.02, 0.7);
        assert!(heavy > light * 1.5, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn online_slowdown_handles_zero_shared_rate() {
        assert!(Objective::online_slowdown(0.1, 0.0, 0.5) > 3.0);
        assert_eq!(Objective::online_slowdown(0.1, 0.0, 0.0), 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Objective::Throughput.to_string(), "throughput");
        assert_eq!(Objective::Fairness.to_string(), "fairness");
        assert_eq!(Objective::Performance.to_string(), "performance");
        assert_eq!(
            Objective::MaxUsersUnderSlo { max_slowdown_pct: 150 }.to_string(),
            "max_users_under_slo(150%)"
        );
    }

    #[test]
    fn max_users_counts_admitted_tenants_first() {
        let obj = Objective::MaxUsersUnderSlo { max_slowdown_pct: 150 };
        // Three of four tenants within 1.5x beats two of four, even when
        // the two-admitted pack has a much better average.
        let three = obj.score(&[1.1, 1.4, 1.5, 9.0], &[]);
        let two = obj.score(&[1.0, 1.0, 1.6, 1.6], &[]);
        assert!(three > two, "admitted count must dominate: {three} vs {two}");
        assert!(three.floor() == 3.0 && two.floor() == 2.0);
    }

    #[test]
    fn max_users_breaks_ties_by_average_slowdown() {
        let obj = Objective::MaxUsersUnderSlo { max_slowdown_pct: 150 };
        let healthy = obj.score(&[1.0, 1.1], &[]);
        let strained = obj.score(&[1.4, 1.5], &[]);
        assert!(healthy > strained, "same admission, better pack must win");
        assert_eq!(healthy.floor(), strained.floor());
    }
}
