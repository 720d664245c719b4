//! Hill-climbing baseline for the configuration search.
//!
//! §IV-B argues hill climbing and gradient descent "are likely to get
//! stuck in a local optimal solution" on the non-convex bin-configuration
//! space, motivating the genetic algorithm. This coordinate hill climber
//! exists so experiments (and tests) can demonstrate exactly that.

use mitts_sim::rng::Rng;
use mitts_sim::types::Cycle;

use mitts_core::bins::{BinSpec, K_MAX};

use crate::ga::INIT_MAX_CREDIT;
use crate::genome::{Constraint, Genome};

/// Result of a hill-climbing run.
#[derive(Debug, Clone)]
pub struct HillClimbResult {
    /// The local optimum reached.
    pub best: Genome,
    /// Its fitness.
    pub best_fitness: f64,
    /// Fitness evaluations performed.
    pub evaluations: usize,
}

/// Coordinate hill climber over bin credits.
#[derive(Debug, Clone)]
pub struct HillClimber {
    spec: BinSpec,
    period: Cycle,
    cores: usize,
    step: u32,
    max_rounds: usize,
    constraint: Constraint,
    rng: Rng,
}

impl HillClimber {
    /// Creates a climber with step size 8 and at most 50 improvement
    /// rounds.
    pub fn new(spec: BinSpec, period: Cycle, cores: usize) -> Self {
        HillClimber {
            spec,
            period,
            cores,
            step: 8,
            max_rounds: 50,
            constraint: Constraint::free(),
            rng: Rng::seeded(0x000C_118B),
        }
    }

    /// Restricts moves to the constraint surface.
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        self.constraint = constraint;
        self
    }

    /// Sets the random seed used for the starting point.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = Rng::seeded(seed);
        self
    }

    /// Bounds the number of improvement rounds (each round evaluates
    /// every ±step coordinate move). Useful when the fitness function is
    /// an expensive simulation.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds > 0, "need at least one round");
        self.max_rounds = rounds;
        self
    }

    /// Climbs from a random starting point: each round tries ±step on
    /// every (core, bin) coordinate and takes the best improving move;
    /// stops at a local optimum.
    pub fn optimize<F>(&mut self, fitness: F) -> HillClimbResult
    where
        F: Fn(&Genome) -> f64,
    {
        let mut current =
            Genome::random(self.spec, self.period, self.cores, INIT_MAX_CREDIT, &mut self.rng);
        self.constraint.repair(&mut current, &mut self.rng);
        let mut current_fit = fitness(&current);
        let mut evaluations = 1;

        for _ in 0..self.max_rounds {
            let mut best_move: Option<(Genome, f64)> = None;
            for core in 0..self.cores {
                for bin in 0..self.spec.bins() {
                    for delta in [self.step as i64, -(self.step as i64)] {
                        let old = current.credits()[core][bin] as i64;
                        let new = (old + delta).clamp(0, K_MAX as i64) as u32;
                        if new as i64 == old {
                            continue;
                        }
                        let mut candidate_credits: Vec<Vec<u32>> =
                            current.credits().to_vec();
                        candidate_credits[core][bin] = new;
                        let mut candidate =
                            Genome::new(self.spec, self.period, candidate_credits);
                        self.constraint.repair(&mut candidate, &mut self.rng);
                        let f = fitness(&candidate);
                        evaluations += 1;
                        if f > current_fit
                            && best_move.as_ref().is_none_or(|(_, bf)| f > *bf)
                        {
                            best_move = Some((candidate, f));
                        }
                    }
                }
            }
            match best_move {
                Some((g, f)) => {
                    current = g;
                    current_fit = f;
                }
                None => break, // local optimum
            }
        }

        HillClimbResult { best: current, best_fitness: current_fit, evaluations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climbs_a_unimodal_surface() {
        // Fitness: negative distance of bin 2's credits from 40.
        let fitness =
            |g: &Genome| -((g.credits()[0][2] as f64 - 40.0).abs());
        let mut hc = HillClimber::new(BinSpec::paper_default(), 1000, 1).with_seed(3);
        let r = hc.optimize(fitness);
        assert!(
            r.best_fitness >= -8.0,
            "climber should get within one step of the optimum: {}",
            r.best_fitness
        );
    }

    #[test]
    fn gets_stuck_on_a_deceptive_surface() {
        // A surface with a broad local plateau at "few credits in bin 0"
        // and a narrow global peak at exactly 100: from most starts, a
        // step of 8 cannot see the peak.
        let fitness = |g: &Genome| {
            let c = g.credits()[0][0];
            if c == 100 {
                1000.0
            } else {
                -(c as f64) // pushes toward 0, away from the peak
            }
        };
        let mut stuck = 0;
        for seed in 0..10 {
            let mut hc =
                HillClimber::new(BinSpec::paper_default(), 1000, 1).with_seed(seed);
            let r = hc.optimize(fitness);
            if r.best_fitness < 1000.0 {
                stuck += 1;
            }
        }
        assert!(stuck >= 8, "hill climbing should usually miss the needle peak ({stuck}/10 stuck)");
    }

    #[test]
    fn respects_constraints() {
        let constraint = Constraint::match_static(50.0);
        let fitness = |g: &Genome| g.credits()[0][0] as f64;
        let mut hc = HillClimber::new(BinSpec::paper_default(), 10_000, 1)
            .with_constraint(constraint)
            .with_seed(7);
        let r = hc.optimize(fitness);
        assert!(constraint.is_satisfied(&r.best, 5.0, 0.02));
    }
}
