//! Offline genetic algorithm (§IV-B): 20 generations of 30 children,
//! tournament selection, uniform crossover, per-gene mutation, and
//! constraint repair after every genetic operation.
//!
//! The fitness function is supplied by the caller (higher is better): the
//! experiment harnesses build one that runs a full simulation with the
//! candidate configurations installed and returns `-S_avg`, `-S_max`,
//! IPC, or performance-per-cost. Fitness evaluation runs in parallel
//! across a generation on the shared pool, sized by `MITTS_JOBS` (each
//! evaluation constructs its own simulator, so `F` must be `Sync`);
//! `MITTS_JOBS=1` evaluates serially, with bit-identical results.

use mitts_sim::rng::Rng;
use mitts_sim::snapshot::{crc32, Dec, Enc, Snapshot, SnapshotError, SnapshotWriter};
use mitts_sim::types::Cycle;

use mitts_core::bins::{BinSpec, K_MAX};

use crate::genome::{Constraint, Genome};

/// Tournament size for parent selection, in both GA tuners.
pub(crate) const TOURNAMENT: usize = 3;
/// Per-gene mutation probability, in both GA tuners.
pub(crate) const MUTATION_RATE: f64 = 0.15;
/// Maximum per-gene mutation step, in both GA tuners.
pub(crate) const MUTATION_STEP: u32 = 24;
/// Default upper bound on initial random credits per bin.
pub(crate) const INIT_MAX_CREDIT: u32 = 128;

/// Parameters of the offline GA. Defaults follow the paper (population
/// 30, 20 generations); scale them down for quick runs. Selection and
/// mutation use fixed settings shared with the online tuner: tournaments
/// of 3, per-gene mutation probability 0.15 and steps of at most 24.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaParams {
    /// Children per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Upper bound on initial random credits per bin.
    pub init_max_credit: u32,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams { population: 30, generations: 20, init_max_credit: INIT_MAX_CREDIT }
    }
}

impl GaParams {
    /// A cheap setting for tests and smoke benches.
    pub fn quick() -> Self {
        GaParams { population: 8, generations: 5, ..GaParams::default() }
    }
}

/// Result of a GA run.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// The best genome found.
    pub best: Genome,
    /// Its fitness.
    pub best_fitness: f64,
    /// Best fitness after each generation (for convergence plots).
    pub history: Vec<f64>,
    /// Total fitness evaluations performed.
    pub evaluations: usize,
}

/// Complete search state after some number of completed generations.
///
/// A `GaState` carries everything the GA needs to continue — population,
/// scores, elitism book-keeping, and the random stream — so a search
/// interrupted between generations and resumed from a persisted state
/// reaches exactly the genome an uninterrupted run would have found.
/// Obtain one from [`GeneticTuner::start_state`], advance it with
/// [`GeneticTuner::step_state`], and persist it across processes with
/// [`GeneticTuner::encode_state`] / [`GeneticTuner::decode_state`].
#[derive(Debug, Clone)]
pub struct GaState {
    population: Vec<Genome>,
    scores: Vec<f64>,
    best: Genome,
    best_fitness: f64,
    history: Vec<f64>,
    evaluations: usize,
    rng: Rng,
}

impl GaState {
    /// Generations completed so far (the initial population counts as
    /// one).
    pub fn generations_done(&self) -> usize {
        self.history.len()
    }

    /// Best genome found so far.
    pub fn best(&self) -> &Genome {
        &self.best
    }

    /// Fitness of the best genome so far.
    pub fn best_fitness(&self) -> f64 {
        self.best_fitness
    }

    /// Converts the state into a [`GaResult`].
    pub fn into_result(self) -> GaResult {
        GaResult {
            best: self.best,
            best_fitness: self.best_fitness,
            history: self.history,
            evaluations: self.evaluations,
        }
    }
}

/// The offline genetic tuner.
#[derive(Debug, Clone)]
pub struct GeneticTuner {
    params: GaParams,
    spec: BinSpec,
    period: Cycle,
    cores: usize,
    constraint: Constraint,
    initial: Vec<Genome>,
    rng: Rng,
}

impl GeneticTuner {
    /// Creates a tuner searching configurations for `cores` cores with
    /// the given bin geometry and replenishment period.
    pub fn new(spec: BinSpec, period: Cycle, cores: usize, params: GaParams) -> Self {
        GeneticTuner {
            params,
            spec,
            period,
            cores,
            constraint: Constraint::free(),
            initial: Vec::new(),
            rng: Rng::seeded(0x6A5E_ED00),
        }
    }

    /// Adds caller-supplied genomes to the initial population (e.g. the
    /// best configuration found by a cheaper search, guaranteeing the GA
    /// result dominates it via elitism).
    ///
    /// # Panics
    ///
    /// Panics if a genome's shape does not match the tuner's.
    pub fn with_initial(mut self, genomes: Vec<Genome>) -> Self {
        for g in &genomes {
            assert_eq!(g.cores(), self.cores, "initial genome core count mismatch");
            assert_eq!(g.spec(), self.spec, "initial genome spec mismatch");
        }
        self.initial = genomes;
        self
    }

    /// Restricts the search to the constraint surface (§IV-C equality
    /// constraints).
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        self.constraint = constraint;
        self
    }

    /// Fixes the random seed (the default is deterministic already; use
    /// this to decorrelate repeated runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = Rng::seeded(seed);
        self
    }

    /// Structured seed genomes mixed into the initial population: the
    /// empty configuration, single-bin allocations of several sizes, and
    /// flat allocations. These are the shapes a practitioner would try
    /// first and they sharply accelerate convergence on cost-sensitive
    /// objectives.
    fn seed_genomes(&self) -> Vec<Genome> {
        let bins = self.spec.bins();
        let mut library: Vec<Vec<u32>> = vec![vec![0; bins]];
        for &credits in &[8u32, 32, 128] {
            let mut v = vec![0; bins];
            v[bins - 1] = credits;
            library.push(v);
        }
        let mut burst = vec![0; bins];
        burst[0] = 16;
        library.push(burst);
        library.push(vec![16; bins]);
        library.push(vec![64; bins]);
        library
            .into_iter()
            .map(|v| Genome::new(self.spec, self.period, vec![v; self.cores]))
            .collect()
    }

    /// Runs the GA against `fitness` (higher is better), evaluating each
    /// generation in parallel.
    pub fn optimize<F>(&mut self, fitness: F) -> GaResult
    where
        F: Fn(&Genome) -> f64 + Sync,
    {
        self.optimize_resumable(fitness, None, |_, _| {})
    }

    /// Runs the GA like [`GeneticTuner::optimize`], but checkpoints:
    /// `on_generation` is called after every completed generation
    /// (including the initial one) with the full search state, and
    /// `resume` continues a previously persisted state instead of
    /// starting over. An interrupted search resumed from its last
    /// checkpoint produces exactly the genome an uninterrupted run would
    /// have.
    pub fn optimize_resumable<F>(
        &mut self,
        fitness: F,
        resume: Option<GaState>,
        mut on_generation: impl FnMut(&GeneticTuner, &GaState),
    ) -> GaResult
    where
        F: Fn(&Genome) -> f64 + Sync,
    {
        let mut evaluate = |population: &[Genome]| Self::evaluate_parallel(population, &fitness);
        let mut state = match resume {
            Some(s) => s,
            None => {
                let s = self.start_state(&mut evaluate);
                on_generation(self, &s);
                s
            }
        };
        while state.generations_done() < self.params.generations {
            self.step_state(&mut state, &mut evaluate);
            on_generation(self, &state);
        }
        state.into_result()
    }

    /// Builds and evaluates the initial population — generation one of
    /// the search. The returned state owns the random stream from here
    /// on, so the tuner and state must be advanced as a pair.
    pub fn start_state(
        &mut self,
        evaluate: &mut dyn FnMut(&[Genome]) -> Vec<f64>,
    ) -> GaState {
        let mut population: Vec<Genome> = Vec::with_capacity(self.params.population);
        for mut g in std::mem::take(&mut self.initial) {
            self.constraint.repair(&mut g, &mut self.rng);
            population.push(g);
            if population.len() >= self.params.population {
                break;
            }
        }
        let room = self.params.population.saturating_sub(population.len());
        for mut g in self.seed_genomes().into_iter().take(room.min(self.params.population / 2)) {
            self.constraint.repair(&mut g, &mut self.rng);
            population.push(g);
        }
        while population.len() < self.params.population {
            let mut g = Genome::random(
                self.spec,
                self.period,
                self.cores,
                self.params.init_max_credit,
                &mut self.rng,
            );
            self.constraint.repair(&mut g, &mut self.rng);
            population.push(g);
        }

        let scores = evaluate(&population);
        let evaluations = population.len();
        let (best, best_fitness) = Self::best_of(&population, &scores);
        GaState {
            population,
            scores,
            best,
            best_fitness,
            history: vec![best_fitness],
            evaluations,
            rng: self.rng.clone(),
        }
    }

    /// Advances the search by one generation (breed, evaluate, update the
    /// elite). No-op book-keeping beyond [`GaState`] — the state is the
    /// whole truth, which is what makes checkpointing sound.
    pub fn step_state(
        &mut self,
        state: &mut GaState,
        evaluate: &mut dyn FnMut(&[Genome]) -> Vec<f64>,
    ) {
        let mut next = Vec::with_capacity(self.params.population);
        // Elitism: keep the best genome verbatim.
        next.push(state.best.clone());
        while next.len() < self.params.population {
            let a = Self::tournament_pick(&mut state.rng, &state.scores);
            let b = Self::tournament_pick(&mut state.rng, &state.scores);
            let mut child = state.population[a].crossover(&state.population[b], &mut state.rng);
            child.mutate(MUTATION_RATE, MUTATION_STEP, &mut state.rng);
            self.constraint.repair(&mut child, &mut state.rng);
            next.push(child);
        }
        state.population = next;
        state.scores = evaluate(&state.population);
        state.evaluations += state.population.len();
        let (gen_best, gen_fit) = Self::best_of(&state.population, &state.scores);
        if gen_fit > state.best_fitness {
            state.best = gen_best;
            state.best_fitness = gen_fit;
        }
        state.history.push(state.best_fitness);
    }

    /// Digest of everything that must match for a persisted state to be
    /// resumable by this tuner.
    fn context_digest(&self) -> u32 {
        crc32(
            format!(
                "{:?}|{:?}|{}|{}|{:?}",
                self.params, self.spec, self.period, self.cores, self.constraint
            )
            .as_bytes(),
        )
    }

    fn save_genome(g: &Genome, e: &mut Enc) {
        e.usize(g.cores());
        for v in g.credits() {
            e.u32s(v);
        }
    }

    fn load_genome(&self, d: &mut Dec<'_>) -> Result<Genome, SnapshotError> {
        let cores = d.usize()?;
        if cores != self.cores {
            return Err(SnapshotError::corrupt("genome core count differs"));
        }
        let mut credits = Vec::with_capacity(cores);
        for _ in 0..cores {
            let v = d.u32s()?;
            if v.len() != self.spec.bins() || v.iter().any(|&x| x > K_MAX) {
                return Err(SnapshotError::corrupt("invalid genome credit vector"));
            }
            credits.push(v);
        }
        Ok(Genome::new(self.spec, self.period, credits))
    }

    /// Serialises a search state into a self-describing, CRC-protected
    /// byte container suitable for [`GeneticTuner::decode_state`].
    pub fn encode_state(&self, state: &GaState) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section("ga-state", |e| {
            e.u32(self.context_digest());
            e.usize(state.population.len());
            for g in &state.population {
                Self::save_genome(g, e);
            }
            e.f64s(&state.scores);
            Self::save_genome(&state.best, e);
            e.f64(state.best_fitness);
            e.f64s(&state.history);
            e.usize(state.evaluations);
            state.rng.save_state(e);
        });
        w.finish().to_bytes()
    }

    /// Reconstructs a search state persisted by
    /// [`GeneticTuner::encode_state`]. Fails with
    /// [`SnapshotError::Mismatch`] if the tuner's parameters, bin
    /// geometry, core count, or constraints differ from the ones the
    /// state was saved under.
    pub fn decode_state(&self, bytes: &[u8]) -> Result<GaState, SnapshotError> {
        let snap = Snapshot::from_bytes(bytes)?;
        let mut d = Dec::new(snap.section("ga-state")?);
        let digest = d.u32()?;
        if digest != self.context_digest() {
            return Err(SnapshotError::mismatch(
                "GA search context differs from the persisted one",
            ));
        }
        let n = d.usize()?;
        if n != self.params.population {
            return Err(SnapshotError::corrupt("persisted population size differs"));
        }
        let mut population = Vec::with_capacity(n);
        for _ in 0..n {
            population.push(self.load_genome(&mut d)?);
        }
        let scores = d.f64s()?;
        if scores.len() != n {
            return Err(SnapshotError::corrupt("persisted score vector length differs"));
        }
        let best = self.load_genome(&mut d)?;
        let best_fitness = d.f64()?;
        let history = d.f64s()?;
        if history.is_empty() || history.len() > self.params.generations.max(1) {
            return Err(SnapshotError::corrupt("persisted GA history length is invalid"));
        }
        let evaluations = d.usize()?;
        let mut rng = Rng::seeded(0);
        rng.load_state(&mut d)?;
        d.finish()?;
        Ok(GaState { population, scores, best, best_fitness, history, evaluations, rng })
    }

    /// Scores a generation across the shared work-stealing pool
    /// ([`mitts_sim::par`]), sized by `MITTS_JOBS` like the bench sweep
    /// engine. Self-scheduling beats the old fixed chunking: one slow
    /// genome (a pathological configuration near its cycle cap) no longer
    /// idles the rest of its chunk's worker. Scores land in per-index
    /// slots, so the result is bit-identical for any worker count.
    fn evaluate_parallel<F>(population: &[Genome], fitness: &F) -> Vec<f64>
    where
        F: Fn(&Genome) -> f64 + Sync,
    {
        let jobs = mitts_sim::par::jobs_from_env().min(population.len());
        if jobs <= 1 {
            return population.iter().map(fitness).collect();
        }
        let slots = mitts_sim::par::F64Slots::new(population.len());
        mitts_sim::par::for_each_task(population.len(), jobs, |i| {
            slots.set(i, fitness(&population[i]));
        });
        slots.into_vec()
    }

    /// Index of the best of [`TOURNAMENT`] uniformly drawn scores (the
    /// first draw wins ties).
    pub(crate) fn tournament_pick(rng: &mut Rng, scores: &[f64]) -> usize {
        let mut best = rng.below(scores.len() as u64) as usize;
        for _ in 1..TOURNAMENT {
            let c = rng.below(scores.len() as u64) as usize;
            if scores[c] > scores[best] {
                best = c;
            }
        }
        best
    }

    fn best_of(population: &[Genome], scores: &[f64]) -> (Genome, f64) {
        let (i, &f) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("fitness must be finite"))
            .expect("population is non-empty");
        (population[i].clone(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> BinSpec {
        BinSpec::paper_default()
    }

    /// Fitness that rewards concentrating credits in bin 0.
    fn bin0_heavy(g: &Genome) -> f64 {
        let c = &g.credits()[0];
        let total: u32 = c.iter().sum();
        if total == 0 {
            return 0.0;
        }
        c[0] as f64 / total as f64
    }

    #[test]
    fn ga_finds_obvious_optimum() {
        let mut ga = GeneticTuner::new(spec(), 1000, 1, GaParams {
            population: 20,
            generations: 15,
            ..GaParams::default()
        });
        let result = ga.optimize(bin0_heavy);
        assert!(
            result.best_fitness > 0.8,
            "GA should concentrate credits in bin 0, got {}",
            result.best_fitness
        );
        assert_eq!(result.evaluations, 20 * 15);
    }

    #[test]
    fn history_is_monotone_nondecreasing() {
        let mut ga = GeneticTuner::new(spec(), 1000, 2, GaParams::quick());
        let result = ga.optimize(bin0_heavy);
        for w in result.history.windows(2) {
            assert!(w[1] >= w[0], "elitism guarantees monotone best fitness");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut ga = GeneticTuner::new(spec(), 1000, 1, GaParams::quick()).with_seed(99);
            ga.optimize(bin0_heavy).best
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn constrained_search_stays_on_surface() {
        let constraint = Constraint::match_static(45.0);
        let mut ga = GeneticTuner::new(spec(), 10_000, 1, GaParams::quick())
            .with_constraint(constraint);
        let result = ga.optimize(bin0_heavy);
        assert!(
            constraint.is_satisfied(&result.best, 5.0, 0.02),
            "best genome must satisfy the §IV-C constraints: {:?}",
            result.best.to_configs()[0]
        );
    }

    #[test]
    fn parallel_and_serial_agree() {
        let fitness = |g: &Genome| g.credits()[0][3] as f64;
        let tuner = || GeneticTuner::new(spec(), 1000, 1, GaParams::quick()).with_seed(5);
        let parallel = tuner().optimize(fitness);
        // The same search by hand, scoring each generation serially.
        let mut ga = tuner();
        let mut evaluate = |pop: &[Genome]| pop.iter().map(fitness).collect::<Vec<f64>>();
        let mut state = ga.start_state(&mut evaluate);
        while state.generations_done() < GaParams::quick().generations {
            ga.step_state(&mut state, &mut evaluate);
        }
        let serial = state.into_result();
        assert_eq!(parallel.best, serial.best);
        assert_eq!(parallel.history, serial.history);
        assert_eq!(parallel.evaluations, serial.evaluations);
    }

    #[test]
    fn checkpointed_resume_matches_uninterrupted() {
        let params = GaParams::quick();
        let uninterrupted = {
            let mut ga = GeneticTuner::new(spec(), 1000, 1, params).with_seed(42);
            ga.optimize(bin0_heavy)
        };
        // Run a few generations, persist each, then "crash".
        let mut checkpoints: Vec<Vec<u8>> = Vec::new();
        {
            let mut ga = GeneticTuner::new(spec(), 1000, 1, params).with_seed(42);
            let mut evaluate =
                |pop: &[Genome]| pop.iter().map(bin0_heavy).collect::<Vec<f64>>();
            let mut state = ga.start_state(&mut evaluate);
            checkpoints.push(ga.encode_state(&state));
            for _ in 0..2 {
                ga.step_state(&mut state, &mut evaluate);
                checkpoints.push(ga.encode_state(&state));
            }
        }
        // A fresh process resumes from the last persisted generation.
        let mut ga = GeneticTuner::new(spec(), 1000, 1, params).with_seed(42);
        let resumed = ga.decode_state(checkpoints.last().unwrap()).unwrap();
        assert_eq!(resumed.generations_done(), 3);
        let result = ga.optimize_resumable(bin0_heavy, Some(resumed), |_, _| {});
        assert_eq!(result.best, uninterrupted.best);
        assert_eq!(result.history, uninterrupted.history);
        assert_eq!(result.evaluations, uninterrupted.evaluations);
    }

    #[test]
    fn persisted_state_rejects_a_different_search() {
        let params = GaParams::quick();
        let mut ga = GeneticTuner::new(spec(), 1000, 1, params).with_seed(1);
        let mut evaluate = |pop: &[Genome]| pop.iter().map(bin0_heavy).collect::<Vec<f64>>();
        let state = ga.start_state(&mut evaluate);
        let bytes = ga.encode_state(&state);
        // Different core count: refuse to resume.
        let other = GeneticTuner::new(spec(), 1000, 2, params).with_seed(1);
        assert!(matches!(
            other.decode_state(&bytes),
            Err(mitts_sim::snapshot::SnapshotError::Mismatch(_))
        ));
        // One flipped byte: detected, not silently wrong.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(ga.decode_state(&bad).is_err());
    }

    #[test]
    fn multi_core_genomes_evolve_independently() {
        // Core 0 rewarded for bin 0, core 1 for bin 9.
        let fitness = |g: &Genome| {
            let c0 = &g.credits()[0];
            let c1 = &g.credits()[1];
            let t0: u32 = c0.iter().sum();
            let t1: u32 = c1.iter().sum();
            if t0 == 0 || t1 == 0 {
                return 0.0;
            }
            c0[0] as f64 / t0 as f64 + c1[9] as f64 / t1 as f64
        };
        let mut ga = GeneticTuner::new(spec(), 1000, 2, GaParams {
            population: 24,
            generations: 18,
            ..GaParams::default()
        });
        let result = ga.optimize(fitness);
        // A random genome scores ~0.2 (0.1 per core); specialisation
        // should at least triple that within the test budget.
        assert!(result.best_fitness > 0.6, "both cores should specialise: {}", result.best_fitness);
        // And the rewarded bin must dominate each core's distribution.
        let c = result.best.credits();
        assert!(c[0][0] >= *c[0].iter().max().unwrap() / 2);
        assert!(c[1][9] >= *c[1].iter().max().unwrap() / 2);
    }
}
