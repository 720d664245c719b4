//! §IV-I: sensitivity to the number of credit bins.
//!
//! Using the Fig. 12 methodology, the paper varies the bin count and
//! finds more bins outperform fewer with diminishing returns: 6 bins beat
//! 4 by >10 % in throughput and fairness, 8 beat 6 by ~5 %, and 10 beat
//! 8 by ~2 %. Each geometry here spans the same ~100-cycle inter-arrival
//! range so only the quantisation granularity changes. The area model
//! column shows what the extra bins cost in hardware.

use mitts_core::{AreaModel, BinSpec};
use mitts_sim::stats::{s_avg, s_max};
use mitts_tuner::{GeneticTuner, Objective};
use mitts_workloads::WorkloadId;

use crate::runner::{
    alone_profiles, mitts_fitness, run_shared, slowdowns_vs_alone, Scale, ShaperSpec,
    REPLENISH_PERIOD,
};
use crate::table::{f3, Table};

/// The geometries studied: (bins, interval-width) pairs spanning
/// ~100 cycles.
pub const GEOMETRIES: [(usize, u64); 4] = [(4, 25), (6, 17), (8, 13), (10, 10)];

/// Shared LLC size.
pub const LLC: usize = 1 << 20;

/// One geometry's optimised result.
#[derive(Debug, Clone)]
pub struct BinCountResult {
    /// Number of bins.
    pub bins: usize,
    /// Average slowdown after GA optimisation for throughput.
    pub s_avg: f64,
    /// Maximum slowdown after GA optimisation for fairness.
    pub s_max: f64,
    /// Estimated MITTS area at this bin count (mm², 32 nm).
    pub area_mm2: f64,
}

/// Optimises MITTS on `workload` for each geometry.
pub fn sweep(workload: WorkloadId, scale: &Scale) -> Vec<BinCountResult> {
    let benches = workload.programs();
    let cores = benches.len();
    let salt = 190 + workload.number() as u64;
    let alone = alone_profiles(&benches, LLC, salt, scale);
    GEOMETRIES
        .iter()
        .map(|&(bins, width)| {
            let spec = BinSpec::new(bins, width);
            let mut per_obj = Vec::new();
            for objective in [Objective::Throughput, Objective::Fairness] {
                // Average two GA seeds: single-seed S_max is a noisy
                // max-statistic and would dominate the geometry trend.
                let mut acc = 0.0;
                const SEEDS: u64 = 2;
                for ga_seed in 0..SEEDS {
                    let fitness =
                        mitts_fitness(&benches, LLC, &alone, objective, salt, scale);
                    let mut ga = GeneticTuner::new(spec, REPLENISH_PERIOD, cores, scale.ga)
                        .with_seed(salt * 31 + bins as u64 + ga_seed * 7919);
                    let best = ga.optimize(&fitness).best;
                    let shapers: Vec<ShaperSpec> =
                        best.to_configs().into_iter().map(ShaperSpec::Mitts).collect();
                    let m = run_shared(&benches, LLC, "FR-FCFS", &shapers, salt, scale);
                    let sd = slowdowns_vs_alone(&m, &alone);
                    acc += match objective {
                        Objective::Throughput => s_avg(&sd),
                        _ => s_max(&sd),
                    };
                }
                per_obj.push(acc / SEEDS as f64);
            }
            BinCountResult {
                bins,
                s_avg: per_obj[0],
                s_max: per_obj[1],
                area_mm2: AreaModel::with_bins(bins).estimated_area_mm2(),
            }
        })
        .collect()
}

/// §IV-I table (workload 1).
pub fn run(scale: &Scale) -> Table {
    let mut table = Table::new(
        "§IV-I — bin-count sensitivity (workload 1, lower slowdowns are better)",
        &["bins", "S_avg (thr-opt)", "S_max (fair-opt)", "area mm^2"],
    );
    for r in sweep(WorkloadId::new(1), scale) {
        table.row(vec![
            r.bins.to_string(),
            f3(r.s_avg),
            f3(r.s_max),
            format!("{:.5}", r.area_mm2),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometries_span_similar_ranges() {
        for &(bins, width) in &GEOMETRIES {
            let span = bins as u64 * width;
            assert!((90..=110).contains(&span), "{bins} bins span {span} cycles");
        }
    }

    #[test]
    fn area_grows_with_bins() {
        let rs: Vec<f64> = GEOMETRIES
            .iter()
            .map(|&(b, _)| AreaModel::with_bins(b).estimated_area_mm2())
            .collect();
        for w in rs.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
