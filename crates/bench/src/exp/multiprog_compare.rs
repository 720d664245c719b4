//! Shared machinery for the multiprogram scheduler comparisons
//! (Figs. 12, 13, 15): run one of Table III's workloads under every
//! baseline scheduler and under MITTS (offline GA, online GA, and
//! phase-based online GA, each optimised for throughput and for
//! fairness), reporting average and maximum slowdown over fixed per-core
//! work (`S_i = T_shared / T_single`, §IV-D).

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sched::baseline_names;
use mitts_sim::stats::{s_avg, s_max};
use mitts_tuner::{GeneticTuner, Objective, OnlineTuner};
use mitts_workloads::WorkloadId;

use crate::runner::{
    alone_profiles, build_shared, cbs_1gbs, mitts_fitness, regulator_1gbs, run_shared,
    slowdowns_vs_alone, AloneProfile, Scale, ShaperSpec, REPLENISH_PERIOD,
};
use crate::table::{f3, Table};

/// One policy's result on one workload.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// Policy label.
    pub policy: String,
    /// Average slowdown (throughput; lower is better).
    pub s_avg: f64,
    /// Maximum slowdown (fairness; lower is better).
    pub s_max: f64,
}

/// Full comparison for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadComparison {
    /// Which Table III workload.
    pub workload: WorkloadId,
    /// Shared LLC size used.
    pub llc_bytes: usize,
    /// Per-policy results.
    pub results: Vec<PolicyResult>,
}

impl WorkloadComparison {
    /// The best (lowest `s_avg`) conventional baseline.
    pub fn best_baseline_s_avg(&self) -> f64 {
        self.results
            .iter()
            .filter(|r| !r.policy.starts_with("MITTS"))
            .map(|r| r.s_avg)
            .fold(f64::MAX, f64::min)
    }

    /// The best (lowest `s_max`) conventional baseline.
    pub fn best_baseline_s_max(&self) -> f64 {
        self.results
            .iter()
            .filter(|r| !r.policy.starts_with("MITTS"))
            .map(|r| r.s_max)
            .fold(f64::MAX, f64::min)
    }

    /// Result of a named policy.
    pub fn policy(&self, name: &str) -> Option<&PolicyResult> {
        self.results.iter().find(|r| r.policy == name)
    }
}

/// Which MITTS variants to evaluate (the online variants cost several
/// CONFIG_PHASEs of simulation each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MittsVariants {
    /// Offline GA (per-objective).
    pub offline: bool,
    /// Online GA.
    pub online: bool,
    /// Phase-based online GA.
    pub phase_online: bool,
}

impl MittsVariants {
    /// Everything (the full paper figure).
    pub fn all() -> Self {
        MittsVariants { offline: true, online: true, phase_online: true }
    }

    /// Offline only (cheapest meaningful comparison).
    pub fn offline_only() -> Self {
        MittsVariants { offline: true, online: false, phase_online: false }
    }
}

fn online_mitts(
    workload: WorkloadId,
    llc_bytes: usize,
    alone: &[AloneProfile],
    objective: Objective,
    scale: &Scale,
    salt: u64,
    phase_adaptive: bool,
) -> PolicyResult {
    let benches = workload.programs();
    let cores = benches.len();
    let mut sys = build_shared(&benches, llc_bytes, "FR-FCFS", salt);
    sys.run_cycles(scale.warmup);
    // Install generous MITTS shapers; the tuner reconfigures them.
    let mut handles = Vec::with_capacity(cores);
    for i in 0..cores {
        let cfg = BinConfig::unlimited(BinSpec::paper_default(), REPLENISH_PERIOD);
        let s = Rc::new(RefCell::new(MittsShaper::new(cfg)));
        sys.set_shaper(i, s.clone());
        handles.push(s);
    }
    let mut tuner = OnlineTuner::new(handles, scale.online).with_seed(salt * 7 + 1);
    let best = if phase_adaptive {
        // Tune live, re-tuning at phase changes, over roughly one work
        // quantum's worth of running; keep the last phase's winner.
        let results =
            tuner.run_phase_adaptive(&mut sys, objective, scale.work, scale.online.epoch);
        results.last().expect("at least one CONFIG_PHASE ran").best.clone()
    } else {
        tuner.config_phase(&mut sys, objective).best
    };
    // Score the configurations the online search found under the same
    // early-span protocol as every other arm. (Measuring in place after
    // the CONFIG_PHASE would compare a deep, cache-warm program position
    // against the other arms' early position — see EXPERIMENTS.md.)
    let shapers: Vec<ShaperSpec> =
        best.to_configs().into_iter().map(ShaperSpec::Mitts).collect();
    let m = run_shared(&benches, llc_bytes, "FR-FCFS", &shapers, salt, scale);
    let sd = slowdowns_vs_alone(&m, alone);
    let label = match (phase_adaptive, objective) {
        (false, Objective::Throughput) => "MITTS-on(thr)",
        (false, _) => "MITTS-on(fair)",
        (true, Objective::Throughput) => "MITTS-ph(thr)",
        (true, _) => "MITTS-ph(fair)",
    };
    PolicyResult { policy: label.to_owned(), s_avg: s_avg(&sd), s_max: s_max(&sd) }
}

/// Compares every baseline scheduler and the requested MITTS variants on
/// one workload.
pub fn compare_workload(
    workload: WorkloadId,
    llc_bytes: usize,
    variants: MittsVariants,
    scale: &Scale,
) -> WorkloadComparison {
    let benches = workload.programs();
    let cores = benches.len();
    let salt = 100 + workload.number() as u64;
    let alone = alone_profiles(&benches, llc_bytes, salt, scale);
    let mut results = Vec::new();

    // Conventional schedulers, unshaped sources.
    let unshaped = vec![ShaperSpec::Unlimited; cores];
    for &name in baseline_names() {
        let m = run_shared(&benches, llc_bytes, name, &unshaped, salt, scale);
        let sd = slowdowns_vs_alone(&m, &alone);
        results.push(PolicyResult {
            policy: name.to_owned(),
            s_avg: s_avg(&sd),
            s_max: s_max(&sd),
        });
    }

    // Alternative source shapers (FR-FCFS at the controller, like the
    // MITTS arms): the TSN credit-based shaper and the window regulator,
    // both rate-matched to the 1 GB/s static cap. They bound the same
    // long-run bandwidth as static allocation but with different burst
    // envelopes, isolating how much of MITTS's edge comes from
    // distribution shaping rather than rate capping.
    for (label, spec) in [("CBS-1gbs", cbs_1gbs()), ("REG-1gbs", regulator_1gbs())] {
        let shapers = vec![spec; cores];
        let m = run_shared(&benches, llc_bytes, "FR-FCFS", &shapers, salt, scale);
        let sd = slowdowns_vs_alone(&m, &alone);
        results.push(PolicyResult {
            policy: label.to_owned(),
            s_avg: s_avg(&sd),
            s_max: s_max(&sd),
        });
    }

    // MITTS variants (FR-FCFS at the controller, shaped sources).
    for objective in [Objective::Throughput, Objective::Fairness] {
        if variants.offline {
            let fitness =
                mitts_fitness(&benches, llc_bytes, &alone, objective, salt, scale);
            let mut ga =
                GeneticTuner::new(BinSpec::paper_default(), REPLENISH_PERIOD, cores, scale.ga)
                    .with_seed(salt * 13 + objective.seed_tag());
            let best = ga.optimize(&fitness).best;
            let shapers: Vec<ShaperSpec> =
                best.to_configs().into_iter().map(ShaperSpec::Mitts).collect();
            let m = run_shared(&benches, llc_bytes, "FR-FCFS", &shapers, salt, scale);
            let sd = slowdowns_vs_alone(&m, &alone);
            let label = match objective {
                Objective::Throughput => "MITTS-off(thr)",
                _ => "MITTS-off(fair)",
            };
            results.push(PolicyResult {
                policy: label.to_owned(),
                s_avg: s_avg(&sd),
                s_max: s_max(&sd),
            });
        }
        if variants.online {
            results.push(online_mitts(
                workload, llc_bytes, &alone, objective, scale, salt, false,
            ));
        }
        if variants.phase_online {
            results.push(online_mitts(
                workload, llc_bytes, &alone, objective, scale, salt, true,
            ));
        }
    }

    WorkloadComparison { workload, llc_bytes, results }
}

/// Formats one or more workload comparisons as a figure table.
pub fn to_table(title: &str, comparisons: &[WorkloadComparison]) -> Table {
    let mut table = Table::new(title, &["workload", "policy", "S_avg", "S_max"]);
    for c in comparisons {
        for r in &c.results {
            table.row(vec![
                c.workload.to_string(),
                r.policy.clone(),
                f3(r.s_avg),
                f3(r.s_max),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_and_offline_mitts_produce_finite_slowdowns() {
        let c = compare_workload(
            WorkloadId::new(1),
            1 << 20,
            MittsVariants::offline_only(),
            &Scale::smoke(),
        );
        assert!(c.results.len() >= 11, "7 baselines + CBS/REG + 2 MITTS rows");
        for p in ["BLISS", "CBS-1gbs", "REG-1gbs"] {
            assert!(c.policy(p).is_some(), "missing policy row {p}");
        }
        for r in &c.results {
            assert!(r.s_avg.is_finite() && r.s_avg >= 0.8, "{:?}", r);
            assert!(r.s_max >= r.s_avg - 1e-9, "{:?}", r);
        }
    }

    #[test]
    fn mitts_fairness_variant_improves_s_max_over_frfcfs() {
        // The core qualitative claim of Fig. 12: source shaping can
        // protect victims that controller-side policies cannot.
        let c = compare_workload(
            WorkloadId::new(1),
            1 << 20,
            MittsVariants::offline_only(),
            &Scale::smoke(),
        );
        let frfcfs = c.policy("FR-FCFS").expect("present").s_max;
        let mitts = c.policy("MITTS-off(fair)").expect("present").s_max;
        assert!(
            mitts < frfcfs * 1.1,
            "MITTS(fair) should not be notably unfairer than FR-FCFS: {mitts} vs {frfcfs}"
        );
    }
}
