//! Fig. 14: MISE vs MITTS vs the hybrid MISE+MITTS.
//!
//! §IV-E pairs per-core MITTS shaping with MISE as the centralised
//! memory controller (MISE performed best among the baselines on
//! average) and finds an additional ~4 % throughput and ~5 % fairness
//! over MITTS alone across the eight-program workloads — i.e. MITTS
//! *complements* intelligent controllers rather than replacing them.

use mitts_core::BinSpec;
use mitts_sim::stats::{s_avg, s_max};
use mitts_tuner::{GeneticTuner, Objective};
use mitts_workloads::WorkloadId;

use crate::runner::{
    alone_profiles, mitts_fitness_with_scheduler, run_shared, slowdowns_vs_alone, Scale,
    ShaperSpec, REPLENISH_PERIOD,
};
use crate::table::{f3, Table};

/// Shared LLC size (Table II multi-program).
pub const LLC: usize = 1 << 20;

/// One workload's Fig. 14 numbers (optimised for `objective`).
#[derive(Debug, Clone)]
pub struct HybridResult {
    /// The workload measured.
    pub workload: WorkloadId,
    /// (S_avg, S_max) under MISE alone (no shaping).
    pub mise: (f64, f64),
    /// Under offline-GA MITTS with FR-FCFS.
    pub mitts: (f64, f64),
    /// Under offline-GA MITTS with MISE at the controller.
    pub hybrid: (f64, f64),
}

/// Runs one workload's three-way comparison, optimising MITTS for
/// `objective` in both the pure and hybrid settings.
pub fn measure_workload(
    workload: WorkloadId,
    objective: Objective,
    scale: &Scale,
) -> HybridResult {
    let benches = workload.programs();
    let cores = benches.len();
    let salt = 140 + workload.number() as u64;
    let alone = alone_profiles(&benches, LLC, salt, scale);
    let unshaped = vec![ShaperSpec::Unlimited; cores];

    // MISE alone.
    let m = run_shared(&benches, LLC, "MISE", &unshaped, salt, scale);
    let sd = slowdowns_vs_alone(&m, &alone);
    let mise = (s_avg(&sd), s_max(&sd));

    // MITTS with each controller.
    let mut shaped = Vec::new();
    for scheduler in ["FR-FCFS", "MISE"] {
        let fitness = mitts_fitness_with_scheduler(
            &benches, LLC, scheduler, &alone, objective, salt, scale,
        );
        let mut ga =
            GeneticTuner::new(BinSpec::paper_default(), REPLENISH_PERIOD, cores, scale.ga)
                .with_seed(salt * 17 + objective.seed_tag());
        let best = ga.optimize(&fitness).best;
        let shapers: Vec<ShaperSpec> =
            best.to_configs().into_iter().map(ShaperSpec::Mitts).collect();
        let m = run_shared(&benches, LLC, scheduler, &shapers, salt, scale);
        let sd = slowdowns_vs_alone(&m, &alone);
        shaped.push((s_avg(&sd), s_max(&sd)));
    }

    HybridResult { workload, mise, mitts: shaped[0], hybrid: shaped[1] }
}

/// Runs the figure over the eight-program workloads.
pub fn run(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Fig. 14 — MISE vs MITTS vs MISE+MITTS (lower is better)",
        &["workload", "objective", "MISE S_avg/S_max", "MITTS", "MISE+MITTS"],
    );
    for objective in [Objective::Throughput, Objective::Fairness] {
        for &w in &WorkloadId::EIGHT_PROGRAM {
            let r = measure_workload(w, objective, scale);
            table.row(vec![
                w.to_string(),
                objective.to_string(),
                format!("{}/{}", f3(r.mise.0), f3(r.mise.1)),
                format!("{}/{}", f3(r.mitts.0), f3(r.mitts.1)),
                format!("{}/{}", f3(r.hybrid.0), f3(r.hybrid.1)),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_runs_and_mitts_variants_are_sane() {
        let r = measure_workload(WorkloadId::new(4), Objective::Throughput, &Scale::smoke());
        for (a, m) in [r.mise, r.mitts, r.hybrid] {
            assert!(a >= 1.0 && a.is_finite());
            assert!(m >= a - 1e-9);
        }
    }
}
