//! Shared experiment machinery: building systems for workloads,
//! fixed-work measurement, alone-run profiles, slowdown accounting, and
//! GA fitness functions.
//!
//! # Measurement methodology
//!
//! Slowdown is the paper's `S_i = T_shared,i / T_single,i` (§IV-D) over a
//! **fixed amount of per-core work**. Fixed-*time* windows are unusable
//! here: under throttling, a window captures whichever slice of the
//! program happens to be executing (an instruction-rich idle phase vs an
//! instruction-poor burst), so two policies would be compared on
//! different work. Instead:
//!
//! * every arm runs the same deterministic trace (same seed);
//! * after an identical unshaped warmup, the mechanism under test is
//!   installed and, after a short settling amount of work, each core is
//!   timed over its next `work` instructions;
//! * `T_single` for *the same instruction span* comes from an
//!   [`AloneProfile`] — a cycle-vs-instruction curve recorded from a solo
//!   run, linearly interpolated (and rate-extrapolated past its end, for
//!   online arms that measure deep into the program).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use mitts_core::{BinConfig, MittsShaper};
use mitts_sched::make_baseline;
use mitts_sim::config::{CacheConfig, SystemConfig};
use mitts_sim::shaper::{CbsShaper, RegulatorShaper, StaticRateShaper};
use mitts_sim::system::{Engine, ShaperHandle, System, SystemBuilder};
use mitts_sim::types::Cycle;
use mitts_sim::StallReport;
use mitts_tuner::{GaParams, Genome, Objective, OnlineParams};
use mitts_workloads::Benchmark;

/// Experiment scale: work quanta, caps, and search budgets.
///
/// The paper runs 200 M ROI cycles with a 30×20 GA; reproduction runs
/// are scaled down. `smoke` is for CI and tests, `quick`
/// for the default `run_all` sweep, `full` approaches the paper's
/// budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Unshaped warmup in cycles (identical across arms by construction).
    pub warmup: Cycle,
    /// Instructions each core executes after install before its timed
    /// region starts (drains queue transients).
    pub settle_work: u64,
    /// Instructions per core in the timed region of final measurements.
    pub work: u64,
    /// Hard cycle cap on a final measurement (protects against
    /// pathological configurations that admit no traffic).
    pub cap: Cycle,
    /// Instructions per core in GA fitness evaluations.
    pub fitness_work: u64,
    /// Cycle cap for fitness evaluations.
    pub fitness_cap: Cycle,
    /// Offline GA budget.
    pub ga: GaParams,
    /// Online GA budget.
    pub online: OnlineParams,
}

impl Scale {
    /// Tiny budget for CI and unit tests.
    pub fn smoke() -> Self {
        let online =
            OnlineParams { epoch: 4_000, population: 5, generations: 3, ..OnlineParams::default() };
        Scale {
            warmup: 5_000,
            settle_work: 2_000,
            work: 20_000,
            cap: 1_500_000,
            fitness_work: 8_000,
            fitness_cap: 600_000,
            ga: GaParams { population: 6, generations: 3, ..GaParams::default() },
            online,
        }
    }

    /// Default budget for `run_all` (minutes per figure).
    pub fn quick() -> Self {
        let online =
            OnlineParams { epoch: 5_000, population: 8, generations: 6, ..OnlineParams::default() };
        Scale {
            warmup: 20_000,
            settle_work: 5_000,
            work: 80_000,
            cap: 6_000_000,
            fitness_work: 25_000,
            fitness_cap: 2_000_000,
            ga: GaParams { population: 10, generations: 8, ..GaParams::default() },
            online,
        }
    }

    /// Near-paper budget (population 30 × 20 generations, 20 k-cycle
    /// online epochs); slow.
    pub fn full() -> Self {
        Scale {
            warmup: 50_000,
            settle_work: 10_000,
            work: 300_000,
            cap: 30_000_000,
            fitness_work: 80_000,
            fitness_cap: 8_000_000,
            ga: GaParams::default(),
            online: OnlineParams::default(),
        }
    }

    /// Parses a scale name (`smoke`/`quick`/`full`).
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the bad value and the accepted
    /// ones.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "smoke" => Ok(Scale::smoke()),
            "quick" => Ok(Scale::quick()),
            "full" => Ok(Scale::full()),
            other => Err(format!(
                "MITTS_SCALE={other:?} is not a scale; expected smoke, quick, or full"
            )),
        }
    }

    /// Reads `MITTS_SCALE` from the environment (`smoke`/`quick`/`full`),
    /// defaulting to `quick` when unset. An *unknown* value is a
    /// configuration error: the process prints one line and exits with
    /// status 2 rather than silently running hours of experiments at the
    /// wrong scale.
    pub fn from_env() -> Self {
        let Some(raw) = std::env::var_os("MITTS_SCALE") else { return Scale::quick() };
        let parsed = raw
            .to_str()
            .ok_or_else(|| "MITTS_SCALE is not valid UTF-8".to_owned())
            .and_then(Scale::parse);
        match parsed {
            Ok(s) => s,
            Err(e) => {
                eprintln!("configuration error: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// Per-core shaper choice: the one description every experiment, the
/// capacity probes and the conformance cases build their shapers from.
#[derive(Debug, Clone, PartialEq)]
pub enum ShaperSpec {
    /// No shaping.
    Unlimited,
    /// Constant-rate limiter (the paper's static allocation).
    StaticRate {
        /// Minimum cycles between requests.
        interval: Cycle,
    },
    /// A MITTS shaper with the given configuration.
    Mitts(BinConfig),
    /// TSN credit-based shaper (802.1Qav CBS).
    Cbs {
        /// Credit units accrued per cycle.
        idle_slope: u64,
        /// Credit units spent per grant.
        send_cost: u64,
        /// Credit ceiling (banked burst allowance).
        hi_credit: i64,
        /// Credit floor (post-grant deficit clamp).
        lo_credit: i64,
    },
    /// ETM2-style per-window bandwidth regulator (MemGuard family).
    Regulator {
        /// Grants per regulation window.
        budget: u64,
        /// Window length in cycles.
        window: Cycle,
    },
}

impl ShaperSpec {
    /// The shaper this spec describes, installed at cycle `now`, or `None`
    /// for [`ShaperSpec::Unlimited`] (the system's default pass-through).
    /// A MITTS shaper's replenishment counter starts at `now`; at `now =
    /// 0` that is the state `MittsShaper::new` leaves.
    pub fn build(&self, now: Cycle) -> Option<ShaperHandle> {
        let shaper: ShaperHandle = match self {
            ShaperSpec::Unlimited => return None,
            ShaperSpec::StaticRate { interval } => {
                Rc::new(RefCell::new(StaticRateShaper::new(*interval)))
            }
            ShaperSpec::Mitts(cfg) => {
                let mut s = MittsShaper::new(cfg.clone());
                s.reconfigure(now, cfg.clone());
                Rc::new(RefCell::new(s))
            }
            ShaperSpec::Cbs { idle_slope, send_cost, hi_credit, lo_credit } => Rc::new(
                RefCell::new(CbsShaper::new(*idle_slope, *send_cost, *hi_credit, *lo_credit)),
            ),
            ShaperSpec::Regulator { budget, window } => {
                Rc::new(RefCell::new(RegulatorShaper::new(*budget, *window)))
            }
        };
        Some(shaper)
    }
}

/// One-line repro form, as printed by the conformance harness.
impl fmt::Display for ShaperSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShaperSpec::Unlimited => write!(f, "unlimited"),
            ShaperSpec::StaticRate { interval } => write!(f, "static(interval={interval})"),
            ShaperSpec::Mitts(cfg) => write!(f, "{cfg} interval={}", cfg.spec().interval()),
            ShaperSpec::Cbs { idle_slope, send_cost, hi_credit, lo_credit } => {
                write!(f, "cbs(slope={idle_slope} cost={send_cost} hi={hi_credit} lo={lo_credit})")
            }
            ShaperSpec::Regulator { budget, window } => {
                write!(f, "regulator(budget={budget} window={window})")
            }
        }
    }
}

/// The replenishment period used throughout the experiments.
pub const REPLENISH_PERIOD: Cycle = 10_000;

/// Static interval equivalent to 1 GB/s of 64 B requests at 2.4 GHz
/// (§IV-C's bandwidth cap): one request per ~154 cycles.
pub const ONE_GBS_INTERVAL: Cycle = 154;

/// CBS cell matched to the 1 GB/s cap: slope 1 credit/cycle, grant cost
/// [`ONE_GBS_INTERVAL`], two grants bankable above zero and one grant of
/// deficit below (burst of 4 per its arrival curve).
pub fn cbs_1gbs() -> ShaperSpec {
    ShaperSpec::Cbs {
        idle_slope: 1,
        send_cost: ONE_GBS_INTERVAL,
        hi_credit: 2 * ONE_GBS_INTERVAL as i64,
        lo_credit: -(ONE_GBS_INTERVAL as i64),
    }
}

/// Regulator cell matched to the 1 GB/s cap: the same long-run rate as
/// [`ONE_GBS_INTERVAL`] delivered as a per-[`REPLENISH_PERIOD`] quota
/// (maximally bursty within the window).
pub fn regulator_1gbs() -> ShaperSpec {
    ShaperSpec::Regulator { budget: REPLENISH_PERIOD / ONE_GBS_INTERVAL, window: REPLENISH_PERIOD }
}

/// Deterministic trace seed for core `i` of experiment `salt`.
pub fn seed_for(salt: u64, core: usize) -> u64 {
    0x5EED_0000 + salt * 131 + core as u64
}

/// Address-space base for core `i` (disjoint 64 GB regions).
pub fn base_for(core: usize) -> u64 {
    (core as u64) << 36
}

/// Builds the multi-program system config used by §IV-D (shared LLC of
/// `llc_bytes`).
pub fn shared_config(cores: usize, llc_bytes: usize) -> SystemConfig {
    let mut cfg = SystemConfig::multi_program(cores);
    cfg.llc = CacheConfig::llc_with_size(llc_bytes);
    cfg
}

/// Execution engine for experiment runs, selected by `MITTS_ENGINE`
/// (`naive` / `skip`; unset = the builder default, the skip engine).
/// Both engines are bit-identical in results — `scripts/check.sh` leans
/// on this to byte-diff whole sweep artifact trees across engines.
///
/// # Panics
///
/// Panics on an unrecognized `MITTS_ENGINE` value — a typo silently
/// falling back to the default would invalidate a differential run.
pub fn engine_from_env() -> Engine {
    match std::env::var("MITTS_ENGINE") {
        Ok(v) => parse_engine(&v)
            .unwrap_or_else(|| panic!("MITTS_ENGINE must be naive or skip (got {v:?})")),
        Err(_) => Engine::Skip,
    }
}

/// Parses an engine name: exactly `naive` or `skip`.
fn parse_engine(name: &str) -> Option<Engine> {
    match name {
        "naive" => Some(Engine::Naive),
        "skip" => Some(Engine::Skip),
        _ => None,
    }
}

/// Cycle-vs-instruction curve of a benchmark running alone (its
/// `T_single` source). Sampled on a fixed instruction grid; linearly
/// interpolated within the grid and rate-extrapolated beyond it.
#[derive(Debug, Clone)]
pub struct AloneProfile {
    /// `grid[k]` = cycle at which the core had retired `k * step`
    /// instructions.
    grid: Vec<Cycle>,
    step: u64,
}

impl AloneProfile {
    /// Records the profile for `bench` alone (FR-FCFS, no shaping) on an
    /// LLC of `llc_bytes`, covering at least `total_instr` instructions.
    pub fn record(
        bench: Benchmark,
        llc_bytes: usize,
        salt: u64,
        total_instr: u64,
        cap: Cycle,
    ) -> Self {
        let cfg = shared_config(1, llc_bytes);
        let mut sys = SystemBuilder::new(cfg)
            .trace(0, Box::new(bench.profile().trace(base_for(0), seed_for(salt, 0))))
            .scheduler(make_baseline("FR-FCFS", 1).expect("known"))
            .engine(engine_from_env())
            .build();
        let step = (total_instr / 200).max(500);
        let mut grid = vec![0];
        let mut next_mark = step;
        let end = cap.max(1);
        while sys.now() < end && (grid.len() as u64 - 1) * step < total_instr {
            sys.run_cycles(500);
            let instr = sys.core_snapshot(0).instructions;
            while instr >= next_mark {
                grid.push(sys.now());
                next_mark += step;
            }
        }
        assert!(grid.len() >= 3, "alone run made no progress (cap too small?)");
        AloneProfile { grid, step }
    }

    /// Cycle position at instruction count `instr` (interpolated; tail
    /// rate extrapolated beyond the grid).
    pub fn cycle_at(&self, instr: u64) -> f64 {
        let step = self.step as f64;
        let pos = instr as f64 / step;
        let max_idx = self.grid.len() - 1;
        if pos <= max_idx as f64 {
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(max_idx);
            let frac = pos - lo as f64;
            self.grid[lo] as f64 + frac * (self.grid[hi] as f64 - self.grid[lo] as f64)
        } else {
            // Extrapolate with the mean rate of the last quarter of the
            // grid (workloads are statistically stationary).
            let q = (self.grid.len() / 4).max(1);
            let a = self.grid[self.grid.len() - 1 - q] as f64;
            let b = self.grid[max_idx] as f64;
            let cycles_per_instr = (b - a) / (q as f64 * step);
            b + (instr as f64 - max_idx as f64 * step) * cycles_per_instr
        }
    }

    /// Alone cycles needed to execute instructions `[a, b)`.
    pub fn cycles_between(&self, a: u64, b: u64) -> f64 {
        (self.cycle_at(b) - self.cycle_at(a)).max(1.0)
    }

    /// Steady-state alone IPC (over the recorded grid).
    pub fn steady_ipc(&self) -> f64 {
        let total_instr = (self.grid.len() as u64 - 1) * self.step;
        total_instr as f64 / self.grid[self.grid.len() - 1].max(1) as f64
    }
}

/// Alone profiles for every program of a workload, sized for `scale`.
pub fn alone_profiles(
    benches: &[Benchmark],
    llc_bytes: usize,
    salt: u64,
    scale: &Scale,
) -> Vec<AloneProfile> {
    let total = scale.settle_work + 4 * scale.work + 50_000;
    benches
        .iter()
        .map(|&b| AloneProfile::record(b, llc_bytes, salt, total, scale.cap * 4))
        .collect()
}

/// Builds an unshaped shared system: one core per benchmark and the
/// given scheduler (by `mitts_sched::make_baseline` name). Shapers are
/// installed later, with [`install_shapers`] or `System::set_shaper`.
pub fn build_shared(benches: &[Benchmark], llc_bytes: usize, scheduler: &str, salt: u64) -> System {
    let cores = benches.len();
    let mut b = SystemBuilder::new(shared_config(cores, llc_bytes))
        .scheduler(make_baseline(scheduler, cores).expect("known scheduler name"))
        .engine(engine_from_env());
    for (i, &bench) in benches.iter().enumerate() {
        b = b.trace(i, Box::new(bench.profile().trace(base_for(i), seed_for(salt, i))));
    }
    b.build()
}

/// Installs shaper specs on an already-running (warmed) system.
pub fn install_shapers(sys: &mut System, shapers: &[ShaperSpec]) {
    for (i, spec) in shapers.iter().enumerate() {
        if let Some(shaper) = spec.build(sys.now()) {
            sys.set_shaper(i, shaper);
        }
    }
}

/// Result of a fixed-work measurement.
#[derive(Debug, Clone)]
pub struct WorkMeasurement {
    /// Instruction count at which each core's timed region started.
    pub start_instr: Vec<u64>,
    /// Cycles each core took for its `work` instructions (the cap if it
    /// never finished).
    pub cycles: Vec<f64>,
    /// Whether each core completed its work before the cap.
    pub finished: Vec<bool>,
    /// Instructions measured per core.
    pub work: u64,
    /// Forward-progress watchdog report, if the run stalled before the
    /// cap. Stalled cores are charged as if they ran to the cap, so the
    /// numeric columns stay comparable; this field makes the stall
    /// diagnosable instead of looking like an ordinary cap hit.
    pub stall: Option<Box<StallReport>>,
}

impl WorkMeasurement {
    /// Per-core IPC over the timed region.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cycles.iter().map(|&c| self.work as f64 / c).collect()
    }
}

/// Times every core over `work` instructions, starting `settle_work`
/// instructions after the call, capping at `cap` cycles past the call.
pub fn measure_work(sys: &mut System, settle_work: u64, work: u64, cap: Cycle) -> WorkMeasurement {
    let n = sys.num_cores();
    let base: Vec<u64> = (0..n).map(|i| sys.core_snapshot(i).instructions).collect();
    let start_target: Vec<u64> = base.iter().map(|b| b + settle_work).collect();
    let end_target: Vec<u64> = start_target.iter().map(|s| s + work).collect();
    let mut start_cycle: Vec<Option<Cycle>> = vec![None; n];
    let mut end_cycle: Vec<Option<Cycle>> = vec![None; n];
    let deadline = sys.now() + cap;

    let mut stall: Option<Box<StallReport>> = None;
    while sys.now() < deadline && end_cycle.iter().any(Option::is_none) {
        sys.run_cycles(500);
        let now = sys.now();
        for i in 0..n {
            let instr = sys.core_snapshot(i).instructions;
            if start_cycle[i].is_none() && instr >= start_target[i] {
                start_cycle[i] = Some(now);
            }
            if end_cycle[i].is_none() && instr >= end_target[i] {
                end_cycle[i] = Some(now);
            }
        }
        if let Some(report) = sys.stall_report() {
            // Livelock/deadlock: no core will make further progress, so
            // running out the remaining budget would only burn time.
            stall = Some(Box::new(report.clone()));
            break;
        }
    }

    // A stalled run is charged as if it ran to the cap: the cores would
    // not have retired anything more, and fitness/slowdown accounting
    // must stay comparable with capped runs.
    let now = if stall.is_some() { deadline } else { sys.now() };
    let mut cycles = Vec::with_capacity(n);
    let mut finished = Vec::with_capacity(n);
    for i in 0..n {
        match (start_cycle[i], end_cycle[i]) {
            (Some(s), Some(e)) => {
                cycles.push((e - s).max(1) as f64);
                finished.push(true);
            }
            (Some(s), None) => {
                // Unfinished: charge the full remaining time, scaled up
                // by the missing work fraction (pessimistic but finite).
                let done = sys.core_snapshot(i).instructions.saturating_sub(start_target[i]);
                let elapsed = (now - s).max(1) as f64;
                let frac = (done as f64 / work as f64).clamp(1e-3, 1.0);
                cycles.push(elapsed / frac);
                finished.push(false);
            }
            (None, _) => {
                // Never even settled: maximally slowed.
                cycles.push(cap as f64 / 1e-3);
                finished.push(false);
            }
        }
    }
    WorkMeasurement { start_instr: start_target, cycles, finished, work, stall }
}

/// Slowdowns of a work measurement against alone profiles:
/// `S_i = T_shared,i / T_single,i` for the same instruction span.
pub fn slowdowns_vs_alone(m: &WorkMeasurement, alone: &[AloneProfile]) -> Vec<f64> {
    m.start_instr
        .iter()
        .zip(&m.cycles)
        .zip(alone)
        .map(|((&start, &shared_cycles), profile)| {
            let t_single = profile.cycles_between(start, start + m.work);
            (shared_cycles / t_single).max(1e-3)
        })
        .collect()
}

/// Full shared-run measurement: build, unshaped warmup, install shapers,
/// settle, time fixed work. Returns the measurement (use
/// [`slowdowns_vs_alone`] with profiles for slowdowns).
#[allow(clippy::too_many_arguments)] // a deliberate low-level entry point
pub fn run_shared_work(
    benches: &[Benchmark],
    llc_bytes: usize,
    scheduler: &str,
    shapers: &[ShaperSpec],
    salt: u64,
    settle_work: u64,
    work: u64,
    cap: Cycle,
    warmup: Cycle,
) -> WorkMeasurement {
    let mut sys = build_shared(benches, llc_bytes, scheduler, salt);
    sys.run_cycles(warmup);
    install_shapers(&mut sys, shapers);
    measure_work(&mut sys, settle_work, work, cap)
}

/// Final-measurement protocol for a shared run.
pub fn run_shared(
    benches: &[Benchmark],
    llc_bytes: usize,
    scheduler: &str,
    shapers: &[ShaperSpec],
    salt: u64,
    scale: &Scale,
) -> WorkMeasurement {
    run_shared_work(
        benches,
        llc_bytes,
        scheduler,
        shapers,
        salt,
        scale.settle_work,
        scale.work,
        scale.cap,
        scale.warmup,
    )
}

/// Fitness protocol for a shared run: identical shape, smaller quantum.
pub fn run_shared_fitness(
    benches: &[Benchmark],
    llc_bytes: usize,
    scheduler: &str,
    shapers: &[ShaperSpec],
    salt: u64,
    scale: &Scale,
) -> WorkMeasurement {
    run_shared_work(
        benches,
        llc_bytes,
        scheduler,
        shapers,
        salt,
        scale.settle_work.min(scale.fitness_work / 4),
        scale.fitness_work,
        scale.fitness_cap,
        scale.warmup,
    )
}

/// A GA fitness function for multiprogram MITTS under the named
/// controller: installs the genome's configurations, times a fitness
/// work quantum, and scores the objective against the alone profiles.
/// `Sync` so the GA can evaluate a generation in parallel.
pub fn mitts_fitness_with_scheduler<'a>(
    benches: &'a [Benchmark],
    llc_bytes: usize,
    scheduler: &'a str,
    alone: &'a [AloneProfile],
    objective: Objective,
    salt: u64,
    scale: &'a Scale,
) -> impl Fn(&Genome) -> f64 + Sync + 'a {
    move |genome: &Genome| {
        let shapers: Vec<ShaperSpec> =
            genome.to_configs().into_iter().map(ShaperSpec::Mitts).collect();
        let m = run_shared_fitness(benches, llc_bytes, scheduler, &shapers, salt, scale);
        let sd = slowdowns_vs_alone(&m, alone);
        objective.score(&sd, &m.ipcs())
    }
}

/// [`mitts_fitness_with_scheduler`] with the paper's default FR-FCFS
/// controller.
pub fn mitts_fitness<'a>(
    benches: &'a [Benchmark],
    llc_bytes: usize,
    alone: &'a [AloneProfile],
    objective: Objective,
    salt: u64,
    scale: &'a Scale,
) -> impl Fn(&Genome) -> f64 + Sync + 'a {
    mitts_fitness_with_scheduler(benches, llc_bytes, "FR-FCFS", alone, objective, salt, scale)
}

/// Single-program fixed-work IPC under one shaper spec (fitness
/// protocol). Deterministic: every call with the same arguments measures
/// the same instruction span of the same trace.
pub fn single_program_ipc(
    bench: Benchmark,
    llc_bytes: usize,
    spec: &ShaperSpec,
    salt: u64,
    scale: &Scale,
) -> f64 {
    let m = run_shared_fitness(
        &[bench],
        llc_bytes,
        "FR-FCFS",
        std::slice::from_ref(spec),
        salt,
        scale,
    );
    m.ipcs()[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitts_sim::stats::{s_avg, s_max};

    #[test]
    fn parse_engine_accepts_both_engines_and_rejects_the_retired_aliases() {
        assert_eq!(parse_engine("naive"), Some(Engine::Naive));
        assert_eq!(parse_engine("skip"), Some(Engine::Skip));
        for bad in ["fast", "event", "Skip", ""] {
            assert_eq!(parse_engine(bad), None, "{bad}");
        }
    }

    #[test]
    fn scale_presets_are_ordered() {
        assert!(Scale::smoke().work < Scale::quick().work);
        assert!(Scale::quick().work < Scale::full().work);
    }

    #[test]
    fn scale_parse_accepts_the_three_presets_only() {
        assert_eq!(Scale::parse("smoke").unwrap(), Scale::smoke());
        assert_eq!(Scale::parse("quick").unwrap(), Scale::quick());
        assert_eq!(Scale::parse("full").unwrap(), Scale::full());
        for bad in ["", "Smoke", "fulll", "medium", "quick "] {
            let err = Scale::parse(bad).expect_err(bad);
            assert!(err.contains("MITTS_SCALE"), "error must name the knob: {err}");
            assert!(err.contains("smoke"), "error must list valid values: {err}");
            assert!(!err.contains('\n'), "one-line error only: {err}");
        }
    }

    #[test]
    fn a_mitts_spec_built_at_zero_is_a_fresh_shaper() {
        let cfg = BinConfig::single_bin(
            mitts_core::BinSpec::paper_default(),
            ONE_GBS_INTERVAL,
            REPLENISH_PERIOD,
        );
        let encode = |s: &dyn mitts_sim::shaper::SourceShaper| {
            let mut enc = mitts_sim::snapshot::Enc::new();
            s.save_state(&mut enc);
            enc.into_bytes()
        };
        let built = ShaperSpec::Mitts(cfg.clone()).build(0).expect("a shaper");
        assert_eq!(encode(&*built.borrow()), encode(&MittsShaper::new(cfg)));
        assert!(ShaperSpec::Unlimited.build(0).is_none());
    }

    #[test]
    fn shaper_spec_display_is_the_conform_repro_line() {
        assert_eq!(cbs_1gbs().to_string(), "cbs(slope=1 cost=154 hi=308 lo=-154)");
        assert_eq!(regulator_1gbs().to_string(), "regulator(budget=64 window=10000)");
        assert_eq!(ShaperSpec::StaticRate { interval: 154 }.to_string(), "static(interval=154)");
        assert_eq!(ShaperSpec::Unlimited.to_string(), "unlimited");
        let cfg = BinConfig::unlimited(mitts_core::BinSpec::paper_default(), REPLENISH_PERIOD);
        assert_eq!(ShaperSpec::Mitts(cfg.clone()).to_string(), format!("{cfg} interval=10"));
    }

    #[test]
    fn one_gbs_interval_is_about_154_cycles() {
        let expected = 64.0 * 2.4e9 / 1e9;
        assert!((ONE_GBS_INTERVAL as f64 - expected).abs() < 1.0);
    }

    #[test]
    fn alone_profile_is_monotone_and_interpolates() {
        let s = Scale::smoke();
        let p = AloneProfile::record(Benchmark::Gcc, 1 << 20, 1, 30_000, s.cap);
        // Monotone grid.
        for w in p.grid.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Interpolation is monotone too.
        let a = p.cycle_at(1_000);
        let b = p.cycle_at(2_000);
        let c = p.cycle_at(200_000); // extrapolated
        assert!(a < b && b < c);
        assert!(p.cycles_between(1_000, 2_000) > 0.0);
        assert!(p.steady_ipc() > 0.0);
    }

    #[test]
    fn fixed_work_measurement_times_all_cores() {
        let s = Scale::smoke();
        let benches = [Benchmark::Gcc, Benchmark::Sjeng];
        let shapers = vec![ShaperSpec::Unlimited; 2];
        let m = run_shared(&benches, 1 << 20, "FR-FCFS", &shapers, 7, &s);
        assert!(m.finished.iter().all(|&f| f), "unshaped cores must finish: {m:?}");
        let ipcs = m.ipcs();
        assert!(ipcs[1] > ipcs[0], "sjeng (compute) should out-IPC gcc");
    }

    #[test]
    fn slowdowns_are_at_least_one_ish_under_contention() {
        let s = Scale::smoke();
        let benches = [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Gcc, Benchmark::Bzip];
        let alone = alone_profiles(&benches, 1 << 20, 2, &s);
        let shapers = vec![ShaperSpec::Unlimited; 4];
        let m = run_shared(&benches, 1 << 20, "FR-FCFS", &shapers, 2, &s);
        let sd = slowdowns_vs_alone(&m, &alone);
        assert!(
            s_avg(&sd) > 1.0,
            "sharing one channel must cost time: {sd:?}"
        );
        assert!(s_max(&sd) >= s_avg(&sd));
    }

    #[test]
    fn throttling_a_hog_helps_the_victim_in_time_to_completion() {
        let s = Scale::smoke();
        let benches = [Benchmark::Libquantum, Benchmark::Gcc];
        let alone = alone_profiles(&benches, 1 << 20, 3, &s);
        let free = run_shared(
            &benches, 1 << 20, "FR-FCFS",
            &[ShaperSpec::Unlimited, ShaperSpec::Unlimited], 3, &s,
        );
        let shaped = run_shared(
            &benches, 1 << 20, "FR-FCFS",
            &[ShaperSpec::StaticRate { interval: 400 }, ShaperSpec::Unlimited], 3, &s,
        );
        let sd_free = slowdowns_vs_alone(&free, &alone);
        let sd_shaped = slowdowns_vs_alone(&shaped, &alone);
        assert!(
            sd_shaped[1] < sd_free[1],
            "gcc should be less slowed when libquantum is throttled: {sd_shaped:?} vs {sd_free:?}"
        );
        assert!(
            sd_shaped[0] > sd_free[0],
            "the throttled hog pays for it: {sd_shaped:?} vs {sd_free:?}"
        );
    }

    #[test]
    fn cap_produces_pessimistic_but_finite_slowdowns() {
        let s = Scale::smoke();
        // A MITTS config with zero credits admits nothing: the core
        // cannot finish its work and must be charged pessimistically.
        let cfg = BinConfig::new(
            mitts_core::BinSpec::paper_default(),
            vec![0; 10],
            REPLENISH_PERIOD,
        )
        .unwrap();
        let m = run_shared(
            &[Benchmark::Mcf], 64 << 10, "FR-FCFS",
            &[ShaperSpec::Mitts(cfg)], 4, &s,
        );
        assert!(!m.finished[0]);
        assert!(m.cycles[0].is_finite());
        assert!(m.ipcs()[0] < 0.05, "starved core must look terrible");
    }

    #[test]
    fn measurement_is_deterministic() {
        let s = Scale::smoke();
        let run = || {
            let spec = ShaperSpec::StaticRate { interval: 154 };
            single_program_ipc(Benchmark::Omnetpp, 64 << 10, &spec, 5, &s)
        };
        assert_eq!(run(), run());
    }
}
