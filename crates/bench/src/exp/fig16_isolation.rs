//! Fig. 16: bandwidth isolation — static even split vs optimal
//! heterogeneous static allocation vs MITTS (workload 4).
//!
//! All three allocators receive the *same total bandwidth budget*; the
//! difference is how they may spend it:
//!
//! * **even split** — each program gets `budget / N` as a fixed rate;
//! * **heterogeneous static** — per-program fixed rates with searched
//!   weights (the best of a deterministic random-weight sample);
//! * **MITTS** — per-program bin distributions found by the GA, with the
//!   genome projected so the aggregate admitted bandwidth never exceeds
//!   the budget (the "does not over-provision" guarantee of §IV-F).
//!
//! Paper result: MITTS beats the even split by 14 %/21 % and the
//! heterogeneous static by 8 %/7 % in throughput/fairness.

use mitts_core::bins::{BinConfig, BinSpec, K_MAX};
use mitts_sim::rng::Rng;
use mitts_sim::stats::{s_avg, s_max};
use mitts_tuner::{Genome, GeneticTuner, Objective};
use mitts_workloads::WorkloadId;

use crate::runner::{
    alone_profiles, run_shared, slowdowns_vs_alone, Scale, ShaperSpec, REPLENISH_PERIOD,
};
use crate::table::{f3, Table};

/// Shared LLC size.
pub const LLC: usize = 1 << 20;

/// Total admitted bandwidth budget in requests/cycle — ~60 % of the
/// DDR3-1333 channel's service capacity (1 line / 15 cycles), the regime
/// where isolation choices matter.
pub const TOTAL_RPC: f64 = 0.04;

/// Scales a genome's credits so the aggregate admitted bandwidth equals
/// `total_rpc` (never over-provisioning). Returns the per-core configs.
pub fn cap_total_bandwidth(genome: &Genome, total_rpc: f64) -> Vec<BinConfig> {
    let configs = genome.to_configs();
    let total: f64 = configs.iter().map(BinConfig::requests_per_cycle).sum();
    if total <= total_rpc || total == 0.0 {
        return configs;
    }
    let scale = total_rpc / total;
    configs
        .iter()
        .map(|cfg| {
            let credits: Vec<u32> = cfg
                .credits()
                .iter()
                .map(|&c| ((c as f64 * scale).floor() as u32).min(K_MAX))
                .collect();
            BinConfig::new(cfg.spec(), credits, cfg.replenish_period())
                .expect("scaling preserves validity")
        })
        .collect()
}

fn static_intervals_to_specs(rpcs: &[f64]) -> Vec<ShaperSpec> {
    rpcs.iter()
        .map(|&rpc| ShaperSpec::StaticRate { interval: (1.0 / rpc.max(1e-6)).round() as u64 })
        .collect()
}

/// One allocator's (S_avg, S_max).
#[derive(Debug, Clone)]
pub struct IsolationResult {
    /// Allocator label.
    pub policy: String,
    /// Average slowdown.
    pub s_avg: f64,
    /// Maximum slowdown.
    pub s_max: f64,
}

/// Runs the Fig. 16 comparison for one workload and objective.
pub fn measure(workload: WorkloadId, objective: Objective, scale: &Scale) -> Vec<IsolationResult> {
    let benches = workload.programs();
    let cores = benches.len();
    let salt = 160 + workload.number() as u64;
    let alone = alone_profiles(&benches, LLC, salt, scale);
    let mut results = Vec::new();

    let eval = |shapers: &[ShaperSpec]| -> (f64, f64) {
        let m = run_shared(&benches, LLC, "FR-FCFS", shapers, salt, scale);
        let sd = slowdowns_vs_alone(&m, &alone);
        (s_avg(&sd), s_max(&sd))
    };

    // Even static split.
    let even: Vec<f64> = vec![TOTAL_RPC / cores as f64; cores];
    let (a, m) = eval(&static_intervals_to_specs(&even));
    results.push(IsolationResult { policy: "static-even".into(), s_avg: a, s_max: m });

    // Heterogeneous static: best of a deterministic random-weight sample
    // (the even split is included so "het" never loses to "even" on its
    // own objective).
    let mut rng = Rng::seeded(salt);
    let samples = 12;
    let mut best_het: Option<(f64, f64, f64, Vec<f64>)> = None; // (score, s_avg, s_max, rpcs)
    let mut candidates: Vec<Vec<f64>> = vec![even.clone()];
    for _ in 0..samples {
        let mut weights: Vec<f64> = (0..cores).map(|_| 0.2 + rng.unit_f64()).collect();
        let sum: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w = *w / sum * TOTAL_RPC);
        candidates.push(weights);
    }
    for rpcs in candidates {
        let (a, m) = eval(&static_intervals_to_specs(&rpcs));
        let score = match objective {
            Objective::Fairness => -m,
            _ => -a,
        };
        if best_het.as_ref().is_none_or(|(s, _, _, _)| score > *s) {
            best_het = Some((score, a, m, rpcs));
        }
    }
    let (_, a, m, best_rpcs) = best_het.expect("samples > 0");
    results.push(IsolationResult { policy: "static-het".into(), s_avg: a, s_max: m });

    // MITTS with a hard aggregate-bandwidth cap, seeded with the static
    // splits expressed as single-bin MITTS genomes (so the GA result can
    // only improve on them). Children are evaluated on a persistent
    // warmed system.
    let spec = BinSpec::paper_default();
    let split_genome = |rpcs: &[f64]| -> Genome {
        let credits: Vec<Vec<u32>> = rpcs
            .iter()
            .map(|&rpc| {
                let interval = (1.0 / rpc.max(1e-6)).round() as u64;
                BinConfig::single_bin(spec, interval, REPLENISH_PERIOD).credits().to_vec()
            })
            .collect();
        Genome::new(spec, REPLENISH_PERIOD, credits)
    };
    let seeds = vec![split_genome(&even), split_genome(&best_rpcs)];
    // Fairness (S_max) is a max-statistic and too noisy at the short
    // fitness quantum to transfer to the final measurement, so fig. 16's
    // fitness uses the full final protocol (the search budget is small
    // enough for this single-workload study).
    let fitness = |genome: &Genome| -> f64 {
        let configs = cap_total_bandwidth(genome, TOTAL_RPC);
        let shapers: Vec<ShaperSpec> = configs.into_iter().map(ShaperSpec::Mitts).collect();
        let m = run_shared(&benches, LLC, "FR-FCFS", &shapers, salt, scale);
        let sd = slowdowns_vs_alone(&m, &alone);
        objective.score(&sd, &m.ipcs())
    };
    let mut ga = GeneticTuner::new(BinSpec::paper_default(), REPLENISH_PERIOD, cores, scale.ga)
        .with_seed(salt * 29 + objective.seed_tag())
        .with_initial(seeds);
    let best = ga.optimize(fitness).best;
    let shapers: Vec<ShaperSpec> = cap_total_bandwidth(&best, TOTAL_RPC)
        .into_iter()
        .map(ShaperSpec::Mitts)
        .collect();
    let (a, m) = eval(&shapers);
    results.push(IsolationResult { policy: "MITTS".into(), s_avg: a, s_max: m });

    results
}

/// Fig. 16 table (workload 4, both objectives).
pub fn run(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Fig. 16 — isolation: even static vs heterogeneous static vs MITTS (workload 4, lower is better)",
        &["objective", "policy", "S_avg", "S_max"],
    );
    for objective in [Objective::Throughput, Objective::Fairness] {
        for r in measure(WorkloadId::new(4), objective, scale) {
            table.row(vec![objective.to_string(), r.policy, f3(r.s_avg), f3(r.s_max)]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_scales_down_only() {
        let spec = BinSpec::paper_default();
        let g = Genome::new(spec, REPLENISH_PERIOD, vec![vec![100; 10], vec![100; 10]]);
        let capped = cap_total_bandwidth(&g, 0.04);
        let total: f64 = capped.iter().map(BinConfig::requests_per_cycle).sum();
        assert!(total <= 0.04 + 1e-9, "aggregate {total} exceeds budget");
        // A genome already under budget is untouched.
        let small = Genome::new(spec, REPLENISH_PERIOD, vec![vec![1; 10], vec![1; 10]]);
        let kept = cap_total_bandwidth(&small, 0.04);
        assert_eq!(kept[0].credits(), &[1u32; 10][..]);
    }

    #[test]
    fn isolation_comparison_produces_three_rows() {
        let rs = measure(WorkloadId::new(1), Objective::Throughput, &Scale::smoke());
        assert_eq!(rs.len(), 3);
        assert!(rs.iter().all(|r| r.s_avg.is_finite() && r.s_avg > 0.5));
        // Heterogeneous static search can only match or beat the even
        // split on its own objective (it includes near-even samples and
        // keeps the best).
        let even = &rs[0];
        let het = &rs[1];
        assert!(het.s_avg <= even.s_avg * 1.25, "het {} vs even {}", het.s_avg, even.s_avg);
    }
}
