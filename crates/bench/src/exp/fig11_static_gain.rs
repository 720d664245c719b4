//! Fig. 11: performance gain of MITTS over static bandwidth
//! provisioning at the same average bandwidth (1 GB/s).
//!
//! The static baseline limits each program to one request every
//! [`ONE_GBS_INTERVAL`] cycles ("at or below a constant rate but cannot
//! take into account inter-arrival times", §IV-C). MITTS is constrained
//! to the *same average bandwidth* — the same total credits per
//! replenishment period — but the GA is free to distribute them across
//! inter-arrival bins, so bursty applications can spend several credits
//! back-to-back. Every arm is timed over the same fixed work.
//!
//! Note on the §IV-C interval constraint: with the paper's bin geometry
//! (`t_i ≤ 95` cycles) an average inter-arrival of 154 cycles is not
//! representable as `Σ n_i t_i / Σ n_i`, so the reproduction pins the
//! bandwidth constraint exactly and leaves the distribution free — which
//! is precisely the axis the figure studies (see EXPERIMENTS.md).
//!
//! Paper result: geomean 1.18× (offline GA), mcf 1.64×, omnetpp 1.68×;
//! the online GA performs slightly worse than offline.

use mitts_core::BinSpec;
use mitts_sim::geomean;
use mitts_tuner::{Constraint, GeneticTuner, Objective, OnlineTuner};
use mitts_workloads::Benchmark;

use crate::runner::{
    build_shared, single_program_ipc, Scale, ShaperSpec, ONE_GBS_INTERVAL, REPLENISH_PERIOD,
};
use crate::table::{ratio, Table};

/// Single-program LLC (Table II): 64 KB.
const LLC: usize = 64 << 10;
const SALT: u64 = 11;

/// One benchmark's Fig. 11 numbers.
#[derive(Debug, Clone)]
pub struct StaticGain {
    /// Benchmark name.
    pub bench: &'static str,
    /// Fixed-work IPC under the static 1 GB/s limiter.
    pub static_ipc: f64,
    /// Fixed-work IPC under offline-GA MITTS at the same average
    /// bandwidth.
    pub offline_ipc: f64,
    /// Fixed-work IPC under online-GA MITTS.
    pub online_ipc: f64,
}

impl StaticGain {
    /// Offline gain over static.
    pub fn offline_gain(&self) -> f64 {
        self.offline_ipc / self.static_ipc
    }

    /// Online gain over static.
    pub fn online_gain(&self) -> f64 {
        self.online_ipc / self.static_ipc
    }
}

fn bandwidth_constraint() -> Constraint {
    Constraint {
        target_interval: None,
        target_rpc: Some(1.0 / ONE_GBS_INTERVAL as f64),
    }
}

/// Runs Fig. 11 for one benchmark.
pub fn measure_bench(bench: Benchmark, scale: &Scale) -> StaticGain {
    let static_ipc = single_program_ipc(
        bench,
        LLC,
        &ShaperSpec::StaticRate { interval: ONE_GBS_INTERVAL },
        SALT,
        scale,
    );

    // Offline GA: maximise fixed-work IPC subject to the bandwidth
    // constraint. Fitness and final measurement share the protocol.
    let mut ga = GeneticTuner::new(BinSpec::paper_default(), REPLENISH_PERIOD, 1, scale.ga)
        .with_constraint(bandwidth_constraint());
    let result = ga.optimize(|genome: &mitts_tuner::Genome| {
        let spec = ShaperSpec::Mitts(genome.to_configs().remove(0));
        single_program_ipc(bench, LLC, &spec, SALT, scale)
    });
    let best = ShaperSpec::Mitts(result.best.to_configs().remove(0));
    let offline_ipc = single_program_ipc(bench, LLC, &best, SALT, scale);

    // Online GA: warm the caches unshaped, install the single-bin
    // equivalent of the static allocation, tune live, then time the
    // RUN_PHASE over the same work quantum.
    let mut sys = build_shared(&[bench], LLC, "FR-FCFS", SALT);
    sys.run_cycles(scale.warmup);
    let start = mitts_core::BinConfig::single_bin(
        BinSpec::paper_default(),
        ONE_GBS_INTERVAL,
        REPLENISH_PERIOD,
    );
    let shaper = std::rc::Rc::new(std::cell::RefCell::new(mitts_core::MittsShaper::new(start)));
    sys.set_shaper(0, shaper.clone());
    let mut tuner = OnlineTuner::new(vec![shaper], scale.online)
        .with_constraint(bandwidth_constraint());
    let best = tuner.config_phase(&mut sys, Objective::Performance).best;
    // Score the online-found configuration under the same early-span
    // protocol as the other arms (see EXPERIMENTS.md).
    let online = ShaperSpec::Mitts(best.to_configs().remove(0));
    let online_ipc = single_program_ipc(bench, LLC, &online, SALT, scale);

    StaticGain { bench: bench.name(), static_ipc, offline_ipc, online_ipc }
}

/// Runs the whole figure.
pub fn run(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Fig. 11 — performance gain vs static 1 GB/s provisioning (fixed-work IPC)",
        &["bench", "static IPC", "offline IPC", "online IPC", "offline gain", "online gain"],
    );
    let mut off_gains = Vec::new();
    let mut on_gains = Vec::new();
    for &bench in &Benchmark::SINGLE_PROGRAM_SET {
        let g = measure_bench(bench, scale);
        off_gains.push(g.offline_gain());
        on_gains.push(g.online_gain());
        table.row(vec![
            g.bench.to_owned(),
            format!("{:.3}", g.static_ipc),
            format!("{:.3}", g.offline_ipc),
            format!("{:.3}", g.online_ipc),
            ratio(g.offline_gain()),
            ratio(g.online_gain()),
        ]);
    }
    table.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        ratio(geomean(&off_gains)),
        ratio(geomean(&on_gains)),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitts_at_least_matches_static_for_a_bursty_app() {
        // The GA's search space contains configurations equivalent to
        // (and better than) the static limiter; with fixed-work timing
        // the comparison is slice-exact, so MITTS must not lose.
        let g = measure_bench(Benchmark::Omnetpp, &Scale::smoke());
        assert!(
            g.offline_gain() > 0.97,
            "offline MITTS must at least match static for omnetpp: {:?}",
            g
        );
    }

    #[test]
    fn uniform_app_gains_little() {
        // libquantum's traffic is uniform: same average bandwidth means
        // there is little burst structure for MITTS to exploit.
        let g = measure_bench(Benchmark::Libquantum, &Scale::smoke());
        assert!(
            g.offline_gain() < 1.5,
            "uniform traffic should show limited gain: {:?}",
            g
        );
        assert!(g.offline_gain() > 0.85, "MITTS must not lose badly: {:?}", g);
    }
}
