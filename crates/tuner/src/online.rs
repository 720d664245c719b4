//! Online genetic algorithm (Fig. 10 of the paper).
//!
//! The online tuner configures MITTS *while the workload runs*: a
//! CONFIG_PHASE of `generations` intervals, each interval evaluating
//! `population` child configurations for one EPOCH apiece, followed by a
//! RUN_PHASE with the winning configuration installed. Slowdown is
//! measured with the MISE technique: the first epochs of the
//! CONFIG_PHASE give each core highest priority at the memory controller
//! in turn to estimate its alone request-service rate, and the paper's
//! blended estimator combines the rate ratio with the fraction of cycles
//! stalled on memory. Each runtime invocation of the GA charges
//! `overhead_cycles` of software overhead to every core (the paper
//! measures ~5000 cycles, 20 invocations).

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::MittsShaper;
use mitts_sim::mc::CoreSignals;
use mitts_sim::system::System;
use mitts_sim::types::{CoreId, Cycle};

use crate::ga::{GeneticTuner, INIT_MAX_CREDIT, MUTATION_RATE, MUTATION_STEP};
use crate::genome::{Constraint, Genome};
use crate::objective::Objective;

/// Online tuner parameters. Defaults are the paper's (§IV-B): EPOCH of
/// 20 000 cycles, population 30, 20 generations, 5000-cycle software
/// overhead per runtime call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineParams {
    /// Cycles per EPOCH (one child evaluation).
    pub epoch: Cycle,
    /// Children per generation.
    pub population: usize,
    /// Generations in the CONFIG_PHASE.
    pub generations: usize,
    /// Software overhead charged per GA invocation, in cycles.
    pub overhead_cycles: Cycle,
}

impl Default for OnlineParams {
    fn default() -> Self {
        OnlineParams {
            epoch: 20_000,
            population: 30,
            generations: 20,
            overhead_cycles: 5_000,
        }
    }
}

impl OnlineParams {
    /// A cheap setting for tests and smoke benches.
    pub fn quick() -> Self {
        OnlineParams { epoch: 5_000, population: 6, generations: 4, ..OnlineParams::default() }
    }
}

/// Result of one CONFIG_PHASE.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// The configuration installed for the RUN_PHASE.
    pub best: Genome,
    /// Its measured objective value (higher is better).
    pub best_score: f64,
    /// Cycles consumed by the CONFIG_PHASE (including overhead).
    pub config_phase_cycles: Cycle,
    /// Alone service-rate estimates per core (fills/cycle).
    pub alone_rates: Vec<f64>,
}

/// The online tuner. It owns handles to each core's [`MittsShaper`] so it
/// can rewrite configurations between epochs.
pub struct OnlineTuner {
    params: OnlineParams,
    constraint: Constraint,
    shapers: Vec<Rc<RefCell<MittsShaper>>>,
    rng: mitts_sim::rng::Rng,
}

impl std::fmt::Debug for OnlineTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineTuner")
            .field("params", &self.params)
            .field("cores", &self.shapers.len())
            .finish()
    }
}

impl OnlineTuner {
    /// Creates a tuner controlling the given shapers (one per core, in
    /// core order).
    ///
    /// # Panics
    ///
    /// Panics if `shapers` is empty.
    pub fn new(shapers: Vec<Rc<RefCell<MittsShaper>>>, params: OnlineParams) -> Self {
        assert!(!shapers.is_empty(), "need at least one shaper");
        OnlineTuner {
            params,
            constraint: Constraint::free(),
            shapers,
            rng: mitts_sim::rng::Rng::seeded(0x0711_11E5),
        }
    }

    /// Restricts the search to the §IV-C constraint surface.
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        self.constraint = constraint;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = mitts_sim::rng::Rng::seeded(seed);
        self
    }

    fn install(&self, sys: &System, genome: &Genome) {
        let now = sys.now();
        for (shaper, cfg) in self.shapers.iter().zip(genome.to_configs()) {
            shaper.borrow_mut().reconfigure(now, cfg);
        }
    }

    /// Measures each core's alone request-service rate by giving it
    /// highest controller priority for one epoch (MISE's technique).
    fn measure_alone_rates(&self, sys: &mut System) -> Vec<f64> {
        let cores = self.shapers.len();
        let mut rates = Vec::with_capacity(cores);
        for core in 0..cores {
            sys.set_priority_core(Some(CoreId::new(core)));
            let before = sys.core_snapshot(core);
            sys.run_cycles(self.params.epoch);
            let delta = sys.core_snapshot(core).delta(&before);
            rates.push(delta.service_rate());
        }
        sys.set_priority_core(None);
        rates
    }

    fn score_epoch(
        &self,
        objective: Objective,
        alone_rates: &[f64],
        before: &[CoreSignals],
        after: &[CoreSignals],
    ) -> f64 {
        let slowdowns: Vec<f64> = alone_rates
            .iter()
            .zip(before.iter().zip(after))
            .map(|(&alone, (b, a))| {
                let d = a.delta(b);
                Objective::online_slowdown(alone, d.service_rate(), d.stall_fraction())
            })
            .collect();
        let ipcs: Vec<f64> = before
            .iter()
            .zip(after)
            .map(|(b, a)| a.delta(b).ipc())
            .collect();
        objective.score(&slowdowns, &ipcs)
    }

    /// Runs one CONFIG_PHASE on `sys`, leaving the best configuration
    /// installed for the caller's RUN_PHASE.
    pub fn config_phase(&mut self, sys: &mut System, objective: Objective) -> OnlineResult {
        let start = sys.now();
        let cores = self.shapers.len();

        // Measurement epochs: alone service rate per core.
        let alone_rates = self.measure_alone_rates(sys);

        // Initial population.
        let spec = self.shapers[0].borrow().config().spec();
        let period = self.shapers[0].borrow().config().replenish_period();
        let mut population: Vec<Genome> = (0..self.params.population)
            .map(|_| {
                let mut g = Genome::random(
                    spec,
                    period,
                    cores,
                    INIT_MAX_CREDIT,
                    &mut self.rng,
                );
                self.constraint.repair(&mut g, &mut self.rng);
                g
            })
            .collect();

        let mut best: Option<(Genome, f64)> = None;
        for _gen in 0..self.params.generations {
            // Evaluate each child for one epoch.
            let mut scores = Vec::with_capacity(population.len());
            for child in &population {
                self.install(sys, child);
                let before = sys.snapshots();
                sys.run_cycles(self.params.epoch);
                let after = sys.snapshots();
                scores.push(self.score_epoch(objective, &alone_rates, &before, &after));
            }
            // The software runtime runs the GA: charge its overhead.
            for core in 0..cores {
                sys.freeze_core(core, self.params.overhead_cycles);
            }
            sys.run_cycles(self.params.overhead_cycles);

            // Track the best child seen so far.
            let (gi, &gs) = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
                .expect("population non-empty");
            if best.as_ref().is_none_or(|(_, bf)| gs > *bf) {
                best = Some((population[gi].clone(), gs));
            }

            // Select, crossover, mutate the next generation (elitist).
            let mut next = Vec::with_capacity(population.len());
            next.push(best.as_ref().expect("set above").0.clone());
            while next.len() < population.len() {
                let a = GeneticTuner::tournament_pick(&mut self.rng, &scores);
                let b = GeneticTuner::tournament_pick(&mut self.rng, &scores);
                let mut child = population[a].crossover(&population[b], &mut self.rng);
                child.mutate(MUTATION_RATE, MUTATION_STEP, &mut self.rng);
                self.constraint.repair(&mut child, &mut self.rng);
                next.push(child);
            }
            population = next;
        }

        let (best_genome, best_score) = best.expect("at least one generation ran");
        self.install(sys, &best_genome);
        OnlineResult {
            best: best_genome,
            best_score,
            config_phase_cycles: sys.now() - start,
            alone_rates,
        }
    }

    /// Phase-adaptive operation (§IV-D): runs for `total_cycles`,
    /// re-running a CONFIG_PHASE whenever core 0's trace reports a new
    /// program phase. Returns the results of every CONFIG_PHASE.
    pub fn run_phase_adaptive(
        &mut self,
        sys: &mut System,
        objective: Objective,
        total_cycles: Cycle,
        check_every: Cycle,
    ) -> Vec<OnlineResult> {
        let end = sys.now() + total_cycles;
        let mut results = vec![self.config_phase(sys, objective)];
        let mut last_phase = sys.core_phase(0);
        while sys.now() < end {
            let step = check_every.min(end - sys.now());
            sys.run_cycles(step);
            let phase = sys.core_phase(0);
            if phase != last_phase && sys.now() < end {
                last_phase = phase;
                results.push(self.config_phase(sys, objective));
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitts_core::{BinConfig, BinSpec};
    use mitts_sim::config::SystemConfig;
    use mitts_sim::system::SystemBuilder;
    use mitts_sim::trace::StrideTrace;

    fn shaped_system(cores: usize) -> (System, Vec<Rc<RefCell<MittsShaper>>>) {
        let mut b = SystemBuilder::new(SystemConfig::multi_program(cores.max(2)));
        let mut shapers = Vec::new();
        for i in 0..cores.max(2) {
            let cfg = BinConfig::new(BinSpec::paper_default(), vec![32; 10], 10_000)
                .expect("valid");
            let s = Rc::new(RefCell::new(MittsShaper::new(cfg)));
            shapers.push(Rc::clone(&s));
            b = b
                .trace(i, Box::new(StrideTrace::new(6, 64, 16 << 20).with_base((i as u64) << 33)))
                .shaper(i, s);
        }
        (b.build(), shapers)
    }

    #[test]
    fn config_phase_installs_best_and_charges_overhead() {
        let (mut sys, shapers) = shaped_system(2);
        let before_cfg = shapers[0].borrow().config().credits().to_vec();
        let mut tuner = OnlineTuner::new(shapers.clone(), OnlineParams::quick());
        let result = tuner.config_phase(&mut sys, Objective::Throughput);
        // The best genome's config is installed on every shaper.
        for (s, cfg) in shapers.iter().zip(result.best.to_configs()) {
            assert_eq!(s.borrow().config().credits(), cfg.credits());
        }
        // Something was searched (config very likely differs from init).
        let _ = before_cfg;
        // Cycles: measurement epochs + generations * (population *
        // epoch + overhead).
        let p = OnlineParams::quick();
        let expected = 2 * p.epoch
            + p.generations as u64 * (p.population as u64 * p.epoch + p.overhead_cycles);
        assert_eq!(result.config_phase_cycles, expected);
        // Overhead shows up as frozen cycles.
        assert!(sys.core_stats(0).counters.frozen_cycles >=
            p.generations as u64 * p.overhead_cycles);
    }

    #[test]
    fn alone_rates_are_positive_for_memory_bound_cores() {
        let (mut sys, shapers) = shaped_system(2);
        let mut tuner = OnlineTuner::new(shapers, OnlineParams::quick());
        let result = tuner.config_phase(&mut sys, Objective::Fairness);
        assert!(result.alone_rates.iter().all(|&r| r > 0.0), "{:?}", result.alone_rates);
    }

    #[test]
    fn phase_adaptive_reruns_config_phase_on_phase_change() {
        // A trace that flips phase every 1500 ops over a tiny footprint,
        // so phases change quickly regardless of shaping.
        struct Flip {
            ops: u64,
        }
        impl mitts_sim::trace::TraceSource for Flip {
            fn next_op(&mut self) -> mitts_sim::trace::TraceOp {
                self.ops += 1;
                mitts_sim::trace::TraceOp::read(4, (self.ops % 64) * 64)
            }
            fn phase(&self) -> usize {
                ((self.ops / 1_500) % 2) as usize
            }
        }

        let cfg = BinConfig::unlimited(BinSpec::paper_default(), 10_000);
        let shaper = Rc::new(RefCell::new(MittsShaper::new(cfg)));
        let mut sys = SystemBuilder::new(SystemConfig::single_program())
            .trace(0, Box::new(Flip { ops: 0 }))
            .shaper(0, shaper.clone())
            .build();
        let params = OnlineParams { epoch: 1_000, population: 3, generations: 2, ..OnlineParams::default() };
        let mut tuner = OnlineTuner::new(vec![shaper], params);
        let results =
            tuner.run_phase_adaptive(&mut sys, Objective::Performance, 60_000, 500);
        assert!(
            results.len() >= 2,
            "phase changes must trigger additional CONFIG_PHASEs ({} ran)",
            results.len()
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let (mut sys, shapers) = shaped_system(2);
            let mut tuner =
                OnlineTuner::new(shapers, OnlineParams::quick()).with_seed(11);
            tuner.config_phase(&mut sys, Objective::Throughput).best
        };
        assert_eq!(run(), run());
    }
}
