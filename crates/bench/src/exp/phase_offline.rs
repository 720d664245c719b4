//! §IV-B's multi-phase offline genetic algorithm: "a multi-phase offline
//! genetic algorithm optimizes different phases separately".
//!
//! x264's profile alternates a memory-intense motion-estimation phase
//! with a calm encode phase. At a fixed average bandwidth budget, a
//! single configuration must compromise between the two; a per-phase
//! schedule ([`mitts_tuner::PhaseSchedule`]) can hold burst credits in
//! the intense phase and give them back in the calm one. Both arms run
//! under the same total budget.

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_tuner::{Constraint, GeneticTuner, Genome, PhaseSchedule};
use mitts_workloads::Benchmark;

use crate::runner::{base_for, engine_from_env, seed_for, shared_config, Scale, REPLENISH_PERIOD};
use crate::table::{f3, ratio, Table};

const SALT: u64 = 500;
/// The bandwidth budget both arms live under (requests/cycle).
const BUDGET_RPC: f64 = 0.012;
/// Phases modelled for the studied benchmarks.
const PHASES: usize = 2;

fn build_system(bench: Benchmark, shaper: Rc<RefCell<MittsShaper>>) -> mitts_sim::system::System {
    let mut b = mitts_sim::system::SystemBuilder::new(shared_config(1, 64 << 10))
        .trace(0, Box::new(bench.profile().trace(base_for(0), seed_for(SALT, 0))))
        .engine(engine_from_env());
    b = b.shaper(0, shaper);
    b.build()
}

/// Fixed-work IPC of `config` measured starting inside phase `phase`.
fn phase_pinned_ipc(bench: Benchmark, config: &BinConfig, phase: usize, scale: &Scale) -> f64 {
    let shaper = Rc::new(RefCell::new(MittsShaper::new(BinConfig::unlimited(
        BinSpec::paper_default(),
        REPLENISH_PERIOD,
    ))));
    let mut sys = build_system(bench, shaper.clone());
    sys.run_cycles(scale.warmup);
    // Advance (unshaped) until the program reports the requested phase.
    let deadline = sys.now() + scale.fitness_cap;
    while sys.core_phase(0) != phase && sys.now() < deadline {
        sys.run_cycles(500);
    }
    shaper.borrow_mut().reconfigure(sys.now(), config.clone());
    let start_instr = sys.core_snapshot(0).instructions;
    let t0 = sys.now();
    let target = start_instr + scale.fitness_work / 2;
    let end = t0 + scale.fitness_cap;
    while sys.core_snapshot(0).instructions < target && sys.now() < end {
        sys.run_cycles(500);
    }
    (scale.fitness_work / 2) as f64 / (sys.now() - t0).max(1) as f64
}

/// One benchmark's result.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Benchmark name.
    pub bench: &'static str,
    /// Long-run IPC with the single offline configuration.
    pub single_ipc: f64,
    /// Long-run IPC with the per-phase schedule.
    pub phased_ipc: f64,
    /// Phase switches performed during the phased run.
    pub switches: usize,
}

impl PhaseResult {
    /// Phased-over-single gain.
    pub fn gain(&self) -> f64 {
        self.phased_ipc / self.single_ipc
    }
}

/// Runs the study for one benchmark.
pub fn measure_bench(bench: Benchmark, scale: &Scale) -> PhaseResult {
    let constraint = Constraint { target_interval: None, target_rpc: Some(BUDGET_RPC) };

    // Single configuration: GA against whole-program fitness. The search
    // checkpoints per generation under MITTS_STATE_DIR, so an interrupted
    // sweep resumes it from the last completed generation.
    let mut ga = GeneticTuner::new(BinSpec::paper_default(), REPLENISH_PERIOD, 1, scale.ga)
        .with_constraint(constraint)
        .with_seed(SALT);
    let single = crate::journal::optimize_checkpointed(
        &mut ga,
        &format!("phase-{}-single", bench.name()),
        |g: &Genome| {
            let spec = crate::runner::ShaperSpec::Mitts(g.to_configs().remove(0));
            crate::runner::single_program_ipc(bench, 64 << 10, &spec, SALT, scale)
        },
    )
    .best
    .to_configs()
    .remove(0);

    // Per-phase configurations: one GA per phase, fitness pinned inside
    // that phase.
    let mut phase_configs = Vec::with_capacity(PHASES);
    for phase in 0..PHASES {
        let mut ga =
            GeneticTuner::new(BinSpec::paper_default(), REPLENISH_PERIOD, 1, scale.ga)
                .with_constraint(constraint)
                .with_seed(SALT * 7 + phase as u64);
        let best = crate::journal::optimize_checkpointed(
            &mut ga,
            &format!("phase-{}-p{phase}", bench.name()),
            |g: &Genome| phase_pinned_ipc(bench, &g.to_configs()[0], phase, scale),
        )
        .best;
        phase_configs.push(best.to_configs().remove(0));
    }
    let schedule = PhaseSchedule::new(phase_configs);

    // Final measurement: a long run for each arm, identical trace.
    let duration = (scale.cap / 4).max(200_000);
    let run_single = {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(single.clone())));
        let mut sys = build_system(bench, shaper);
        sys.run_cycles(scale.warmup);
        let i0 = sys.core_snapshot(0).instructions;
        let t0 = sys.now();
        sys.run_cycles(duration);
        (sys.core_snapshot(0).instructions - i0) as f64 / (sys.now() - t0) as f64
    };
    let (run_phased, switches) = {
        let shaper = Rc::new(RefCell::new(MittsShaper::new(single)));
        let mut sys = build_system(bench, shaper.clone());
        sys.run_cycles(scale.warmup);
        let i0 = sys.core_snapshot(0).instructions;
        let t0 = sys.now();
        let switches = schedule.run_on(&mut sys, 0, &shaper, duration, 1_000);
        (
            (sys.core_snapshot(0).instructions - i0) as f64 / (sys.now() - t0) as f64,
            switches,
        )
    };

    PhaseResult {
        bench: bench.name(),
        single_ipc: run_single,
        phased_ipc: run_phased,
        switches,
    }
}

/// The multi-phase offline GA table.
pub fn run(scale: &Scale) -> Table {
    let mut table = Table::new(
        "§IV-B — multi-phase offline GA vs single-configuration offline GA",
        &["bench", "single IPC", "per-phase IPC", "switches", "gain"],
    );
    for bench in [Benchmark::X264, Benchmark::Gcc, Benchmark::Ferret] {
        let r = measure_bench(bench, scale);
        table.row(vec![
            r.bench.to_owned(),
            f3(r.single_ipc),
            f3(r.phased_ipc),
            r.switches.to_string(),
            ratio(r.gain()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phased_schedule_runs_and_does_not_collapse() {
        let r = measure_bench(Benchmark::X264, &Scale::smoke());
        assert!(r.single_ipc > 0.0 && r.phased_ipc > 0.0);
        assert!(
            r.gain() > 0.8,
            "per-phase schedule must not badly lose to a single config: {r:?}"
        );
    }
}
