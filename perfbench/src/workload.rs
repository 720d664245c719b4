//! The four workloads, and what one repetition ("rep") of each measures.
//!
//! Every workload is a closed batch. The three simulator workloads are
//! single systems of trace-driven, closed-loop cores that stall on their
//! misses; `capacity_x15` is a capacity sweep whose tenants arrive open
//! loop at the offered rate. The modelled caches start empty in every rep.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use mitts_bench::capacity::{self, CapacityCell, CapacityConfig};
use mitts_bench::journal::Journal;
use mitts_bench::pool::{self, Experiment, Outcome, PoolConfig, PoolTelemetry};
use mitts_bench::runner::{base_for, engine_from_env, seed_for, shared_config, REPLENISH_PERIOD};
use mitts_bench::table::render_tables;
use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sched::FrFcfs;
use mitts_sim::config::SystemConfig;
use mitts_sim::mc::Scheduler;
use mitts_sim::obs::MetricsRegistry;
use mitts_sim::rng::Rng;
use mitts_sim::shaper::{SourceShaper, UnlimitedShaper};
use mitts_sim::stats::SystemStats;
use mitts_sim::system::{Engine, ShaperHandle, System, SystemBuilder};
use mitts_sim::trace::TraceSource;
use mitts_sim::types::Cycle;
use mitts_sim::RunOutcome;
use mitts_workloads::multiprog::WorkloadId;
use mitts_workloads::profile::{AppProfile, Burstiness, Locality};
use mitts_workloads::Benchmark;

use crate::host;
use crate::timed::{timer_floor_ns, Probes, Timed};

/// Metric values keyed by name, in a stable order.
pub type Metrics = BTreeMap<String, f64>;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One core chasing pointers through 1 GiB with a single L1 MSHR.
    ChaseMlp1,
    /// Four streaming cores saturating one channel.
    StreamX4,
    /// Table III workload 4 with a MITTS shaper on all eight cores.
    MittsWl4X8,
    /// The full 5×3 capacity-frontier sweep through the worker pool.
    CapacityX15,
}

impl Workload {
    /// Every workload, in the order runs interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::ChaseMlp1,
        Workload::StreamX4,
        Workload::MittsWl4X8,
        Workload::CapacityX15,
    ];

    /// The workload's name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChaseMlp1 => "chase_mlp1",
            Workload::StreamX4 => "stream_x4",
            Workload::MittsWl4X8 => "mitts_wl4_x8",
            Workload::CapacityX15 => "capacity_x15",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations one rep attempts: the rep itself, or one per capacity
    /// cell.
    pub fn ops_per_rep(self) -> u64 {
        match self {
            Workload::CapacityX15 => capacity::matrix(false).len() as u64,
            _ => 1,
        }
    }

    /// Whether the workload is one simulated system (it has plug-ins to
    /// wrap in timers).
    pub fn is_single_system(self) -> bool {
        self != Workload::CapacityX15
    }

    /// Threads a rep keeps busy at once.
    pub fn threads(self) -> usize {
        match self {
            Workload::CapacityX15 => capacity_jobs(),
            _ => 1,
        }
    }

    /// Per-core instruction target of a single-system rep. Each is sized
    /// to about 0.4 s of host CPU, so a run takes the median of many reps.
    fn instructions(self) -> u64 {
        match self {
            Workload::ChaseMlp1 => 1_000_000,
            Workload::StreamX4 => 160_000,
            Workload::MittsWl4X8 => 20_000,
            Workload::CapacityX15 => unreachable!("capacity_x15 has no instruction target"),
        }
    }
}

/// What one rep reports back to the parent process.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed.
    pub failed_ops: u64,
    /// Digest of the simulated results; equal across reps of one seed.
    pub digest: String,
    /// On-CPU time of set-up in seconds.
    pub setup_s: f64,
    /// Host on-CPU time of the measured run in seconds.
    pub cpu_s: f64,
    /// Host wall time of the measured run in seconds.
    pub wall_s: f64,
    /// Peak resident set of the rep's process in MiB.
    pub peak_rss_mib: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Deterministic simulated metrics: identical on every rep of a seed
    /// and under any change that only alters speed.
    pub exact: Metrics,
    /// Host-side layer metrics (timers of traced reps, pool telemetry).
    pub layers: Metrics,
}

/// A generous cycle cap: reps end on their instruction target long
/// before it, and a rep that hits it fails.
const CYCLE_CAP: Cycle = 4_000_000_000;

/// Audit every 4096 cycles, as long experiment runs do: the default
/// 64-cycle debugging cadence would bound every skip to 64 cycles.
const AUDIT_INTERVAL: Cycle = 4096;

/// Offered load of the capacity probes the check pass runs, requests per
/// second per tenant: between the unshaped and shaped knees.
const CHECK_RPS: u64 = 10_000_000;

fn config(cores: usize, llc_bytes: usize) -> SystemConfig {
    let mut cfg = shared_config(cores, llc_bytes);
    cfg.hardening.audit.interval = AUDIT_INTERVAL;
    cfg
}

/// Random dependent loads over 1 GiB with one compute instruction
/// between them: every access misses every cache level.
fn pointer_chase() -> AppProfile {
    AppProfile {
        name: "pointer_chase".to_owned(),
        burstiness: Burstiness::uniform(1.0),
        locality: Locality {
            hot_fraction: 0.0,
            hot_bytes: 4 << 10,
            warm_fraction: 0.0,
            warm_bytes: 64 << 10,
            working_set_bytes: 1 << 30,
            seq_fraction: 0.0,
        },
        write_fraction: 0.0,
        phases: Vec::new(),
    }
}

/// `BinSpec::paper_default` with bins 1/3/6/9 holding 4/10/6/4 credits
/// per replenish period.
fn mitts_config() -> BinConfig {
    let mut credits = vec![0u32; BinSpec::paper_default().bins()];
    for (bin, n) in [(1, 4), (3, 10), (6, 6), (9, 4)] {
        credits[bin] = n;
    }
    BinConfig::new(BinSpec::paper_default(), credits, REPLENISH_PERIOD)
        .expect("the fixed MITTS configuration is valid")
}

fn trace<T: TraceSource + 'static>(t: T, probes: Option<&Rc<Probes>>) -> Box<dyn TraceSource> {
    match probes {
        Some(p) => Box::new(Timed::new(t, p)),
        None => Box::new(t),
    }
}

fn shaper<S: SourceShaper + 'static>(s: S, probes: Option<&Rc<Probes>>) -> ShaperHandle {
    match probes {
        Some(p) => Rc::new(RefCell::new(Timed::new(s, p))),
        None => Rc::new(RefCell::new(s)),
    }
}

fn scheduler<S: Scheduler + 'static>(s: S, probes: Option<&Rc<Probes>>) -> Box<dyn Scheduler> {
    match probes {
        Some(p) => Box::new(Timed::new(s, p)),
        None => Box::new(s),
    }
}

/// The unbuilt system of a single-system workload; with `probes`, every
/// plug-in is wrapped in forwarding timers.
pub fn sim_builder(w: Workload, seed: u64, probes: Option<&Rc<Probes>>) -> SystemBuilder {
    let (cfg, programs, mitts) = match w {
        Workload::ChaseMlp1 => {
            let mut cfg = config(1, 256 << 10);
            cfg.l1.mshrs = 1;
            (cfg, vec![pointer_chase()], false)
        }
        Workload::StreamX4 => (
            config(4, 256 << 10),
            vec![Benchmark::Libquantum.profile(); 4],
            false,
        ),
        Workload::MittsWl4X8 => {
            let programs = WorkloadId::new(4)
                .programs()
                .iter()
                .map(|b| b.profile())
                .collect();
            (config(8, 1 << 20), programs, true)
        }
        Workload::CapacityX15 => unreachable!("capacity_x15 is not a single system"),
    };
    let mut b = SystemBuilder::new(cfg).scheduler(scheduler(FrFcfs::new(), probes));
    for (core, profile) in programs.iter().enumerate() {
        b = b.trace(
            core,
            trace(profile.trace(base_for(core), seed_for(seed, core)), probes),
        );
        b = b.shaper(
            core,
            if mitts {
                shaper(MittsShaper::new(mitts_config()), probes)
            } else {
                shaper(UnlimitedShaper::new(), probes)
            },
        );
    }
    b
}

/// FNV-1a of `text`, as a tagged hex string.
pub fn digest(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv64:{h:016x}")
}

fn stats_digest(stats: &[SystemStats]) -> String {
    digest(&format!("{stats:?}"))
}

fn named(pairs: impl IntoIterator<Item = (&'static str, f64)>) -> Metrics {
    pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

/// Deterministic metrics of the modelled hardware and of the skip engine,
/// summed over one or more finished systems.
fn simulated_metrics(systems: &[&System]) -> Metrics {
    let (mut cycles, mut ticks, mut chan_cycles, mut core_cycles) = (0u64, 0u64, 0u64, 0u64);
    let (mut busy, mut row_hits, mut row_all, mut rejections) = (0u64, 0u64, 0u64, 0u64);
    let (mut occupancy, mut mc_ticks, mut llc_hits, mut llc_misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut ipc_sum, mut cores, mut shaper_stalls) = (0.0f64, 0u64, 0u64);
    for sys in systems {
        let s = sys.system_stats();
        cycles += s.cycles;
        ticks += s.cycles - sys.skipped_cycles();
        for ch in &s.channels {
            chan_cycles += s.cycles;
            busy += ch.busy_bus_cycles;
            row_hits += ch.row_stats.0;
            row_all += ch.row_stats.0 + ch.row_stats.1 + ch.row_stats.2;
            rejections += ch.fifo_rejections;
            occupancy += ch.queue_occupancy_sum;
            mc_ticks += ch.ticks;
        }
        for c in &s.cores {
            cores += 1;
            core_cycles += s.cycles;
            ipc_sum += c.counters.ipc();
            llc_hits += c.llc_hits;
            llc_misses += c.llc_misses;
            shaper_stalls += c.shaper_stall_cycles;
        }
    }
    let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    named([
        ("system.cycles", cycles as f64),
        ("system.ticks", ticks as f64),
        ("system.skip_frac", 1.0 - ratio(ticks as f64, cycles)),
        ("system.cycles_per_tick", ratio(cycles as f64, ticks)),
        ("dram.bus_util", ratio(busy as f64, chan_cycles)),
        ("dram.row_hit_frac", ratio(row_hits as f64, row_all)),
        ("mc.fifo_rejections", rejections as f64),
        ("mc.queue_occupancy_mean", ratio(occupancy as f64, mc_ticks)),
        (
            "cache.llc_miss_frac",
            ratio(llc_misses as f64, llc_hits + llc_misses),
        ),
        ("core.ipc", ratio(ipc_sum, cores)),
        (
            "core.shaper_stall_frac",
            ratio(shaper_stalls as f64, core_cycles),
        ),
    ])
}

/// Runs one rep of `w` in this process.
pub fn run_rep(w: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    match w {
        Workload::CapacityX15 => capacity_rep(seed),
        _ => sim_rep(w, seed, traced),
    }
}

fn sim_rep(w: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let floor_ns = if traced { timer_floor_ns() } else { 0.0 };
    let probes = traced.then(|| Rc::new(Probes::default()));
    let setup0 = host::thread_cpu_s()?;
    let mut sys = sim_builder(w, seed, probes.as_ref()).build();
    let setup_s = host::thread_cpu_s()? - setup0;

    let cpu0 = host::thread_cpu_s()?;
    let start = Instant::now();
    let outcome = sys.run_until_instructions(w.instructions(), CYCLE_CAP);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::thread_cpu_s()? - cpu0;

    let stats = sys.system_stats();
    let ok = matches!(outcome, RunOutcome::Completed { .. }) && stats.audit_violations == 0;
    if !ok {
        eprintln!(
            "{}: run ended {outcome:?} with {} audit violations",
            w.name(),
            stats.audit_violations
        );
    }
    let mut exact = simulated_metrics(&[&sys]);
    let mut layers = Metrics::new();
    if let Some(p) = &probes {
        let (counts, timings) = traced_metrics(p, exact["system.ticks"], wall_s, floor_ns);
        exact.extend(counts);
        layers = timings;
    }
    Ok(Rep {
        ops: 1,
        failed_ops: u64::from(!ok),
        digest: stats_digest(&[stats]),
        setup_s,
        cpu_s,
        wall_s,
        peak_rss_mib: host::peak_rss_mib()?,
        cycles: sys.now(),
        exact,
        layers,
    })
}

/// What the wrappers of a traced run recorded: exact call counts and the
/// ratios between them, then the host times — mean sampled spans and the
/// system's self time per real tick (run time minus the time estimated
/// inside the wrapped plug-ins).
fn traced_metrics(p: &Probes, ticks: f64, wall_s: f64, floor_ns: f64) -> (Metrics, Metrics) {
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let counts = named([
        ("shaper.tick_calls", p.shaper_tick.calls() as f64),
        ("shaper.try_issue_calls", p.try_issue.calls() as f64),
        (
            "shaper.grant_frac",
            share(p.grants.get(), p.try_issue.calls()),
        ),
        (
            "shaper.next_grant_event_calls",
            p.next_grant_event.get() as f64,
        ),
        ("sched.pick_calls", p.pick.calls() as f64),
        (
            "sched.pick_dispatch_frac",
            share(p.dispatches.get(), p.pick.calls()),
        ),
        (
            "sched.pending_mean",
            share(p.pending_sum.get(), p.pick.calls()),
        ),
        ("sched.next_event_calls", p.next_event.get() as f64),
        ("workloads.next_op_calls", p.next_op.calls() as f64),
    ]);
    let children_ns: f64 = [
        &p.shaper_tick,
        &p.try_issue,
        &p.pick,
        &p.sched_tick,
        &p.next_op,
    ]
    .iter()
    .map(|s| s.total_ns(floor_ns))
    .sum();
    let timings = named([
        (
            "system.self_ns_per_tick",
            (wall_s * 1e9 - children_ns) / ticks.max(1.0),
        ),
        ("shaper.tick_ns", p.shaper_tick.mean_ns(floor_ns)),
        ("shaper.try_issue_ns", p.try_issue.mean_ns(floor_ns)),
        ("sched.pick_ns", p.pick.mean_ns(floor_ns)),
        ("sched.tick_ns", p.sched_tick.mean_ns(floor_ns)),
        ("workloads.next_op_ns", p.next_op.mean_ns(floor_ns)),
        ("host.timer_floor_ns", floor_ns),
    ]);
    (counts, timings)
}

/// The outcome of a pre-run correctness check, with the metrics it took.
pub struct Check {
    /// Why the check failed, if it did.
    pub failure: Option<String>,
    /// Deterministic simulated metrics of the checked systems.
    pub exact: Metrics,
    /// Host-time metrics measured along the way.
    pub timings: Metrics,
}

/// Checks the skip engine against the naive reference: a single-system
/// workload on a 5% instruction prefix, or one probe per capacity cell.
pub fn check(w: Workload, seed: u64) -> Check {
    if w == Workload::CapacityX15 {
        return capacity_check(seed);
    }
    let prefix = w.instructions() / 20;
    let run = |engine: Option<Engine>| {
        let mut b = sim_builder(w, seed, None);
        if let Some(e) = engine {
            b = b.engine(e);
        }
        let mut sys = b.build();
        let start = Instant::now();
        sys.run_until_instructions(prefix, CYCLE_CAP);
        (
            stats_digest(&[sys.system_stats()]),
            start.elapsed().as_secs_f64(),
            sys.now(),
        )
    };
    let (skipping, _, _) = run(None);
    let (naive, naive_s, cycles) = run(Some(Engine::Naive));
    Check {
        failure: (skipping != naive).then(|| {
            format!("default engine {skipping} != naive {naive} on a {prefix}-instruction prefix")
        }),
        exact: Metrics::new(),
        timings: named([(
            "system.naive_ns_per_cycle",
            naive_s * 1e9 / cycles.max(1) as f64,
        )]),
    }
}

/// Share of `advance()` calls after which `System::skip_blocker` named
/// each blocker (`none` when the window was skippable), over full runs of
/// `systems`, each advanced until `done` holds.
fn blocker_fracs(systems: Vec<System>, done: impl Fn(&System) -> bool) -> Metrics {
    const BLOCKERS: [&str; 7] = [
        "none",
        "core_busy",
        "core_miss_queue_issue",
        "core_wb_queue",
        "mc_would_refill_queue",
        "llc_deferred",
        "backlog_retry_would_succeed",
    ];
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0u64;
    for mut sys in systems {
        while !done(&sys) {
            sys.advance();
            *counts
                .entry(sys.skip_blocker().unwrap_or("none"))
                .or_default() += 1;
            total += 1;
        }
    }
    for name in counts.keys().filter(|n| !BLOCKERS.contains(n)) {
        eprintln!("skip blocker {name:?} has no metric; it is left out");
    }
    BLOCKERS
        .iter()
        .map(|b| {
            let n = counts.get(b).copied().unwrap_or(0);
            (
                format!("system.blocker.{b}"),
                n as f64 / total.max(1) as f64,
            )
        })
        .collect()
}

/// Diagnostic passes of a traced run, outside the timed reps: the skip
/// blocker histogram, and for the capacity sweep the journal's cost and
/// a one-worker pass whose frontier must match the reps'. Returns the
/// metrics and the one-worker frontier digest, if one was taken.
pub fn diagnose(w: Workload, seed: u64) -> Result<(Metrics, Option<String>), String> {
    if w != Workload::CapacityX15 {
        let sys = sim_builder(w, seed, None).build();
        let target = w.instructions();
        let done =
            |s: &System| (0..s.num_cores()).all(|c| s.core_snapshot(c).instructions >= target);
        return Ok((blocker_fracs(vec![sys], done), None));
    }
    let (cfg, cells) = capacity_inputs(seed);
    let probes = cells
        .iter()
        .map(|c| capacity::build_probe(c, &cfg, CHECK_RPS, engine_from_env(), None));
    let mut metrics = blocker_fracs(probes.collect(), |s| s.now() >= cfg.run_cycles);
    let experiments = capacity::experiments(&cells, &cfg);
    let dir = state_dir("diagnose")?;
    let journal =
        Journal::open(&dir, false).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let start = Instant::now();
    let journaled = sweep(&cells, &experiments, Some(journal), 1);
    let journaled_s = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    let start = Instant::now();
    let bare = sweep(&cells, &experiments, None, 1);
    let bare_s = start.elapsed().as_secs_f64();
    if journaled.csv != bare.csv {
        return Err(
            "the journaled and unjournaled one-worker sweeps found different frontiers".into(),
        );
    }
    metrics.insert("journal.overhead_s".to_owned(), journaled_s - bare_s);
    Ok((metrics, Some(digest(&bare.csv))))
}

/// The capacity sweep's configuration and its 15 cells, queued in an
/// order drawn from `seed`. The tenants' trace seeds stay the full-scale
/// defaults: other trace seeds move the knees, and with them the sweep's
/// work (75 to 108 probes over seeds 100 to 109), which would swamp any
/// difference in speed.
fn capacity_inputs(seed: u64) -> (CapacityConfig, Vec<CapacityCell>) {
    let mut cells = capacity::matrix(false);
    let mut rng = Rng::seeded(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (CapacityConfig::full(), cells)
}

/// Capacity-sweep workers: two, or one on a single-CPU host.
pub fn capacity_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A fresh journal directory for this process under `target/perfbench`.
fn state_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from("target/perfbench").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A finished capacity sweep.
struct Sweep {
    /// The frontier CSV.
    csv: String,
    /// Knee-search probes over every cell.
    probes: u64,
    /// Cells whose experiment did not complete.
    failed_cells: u64,
    telemetry: PoolTelemetry,
}

fn sweep(
    cells: &[CapacityCell],
    experiments: &[Experiment],
    journal: Option<Journal>,
    jobs: usize,
) -> Sweep {
    let mut pool_cfg = PoolConfig::serial();
    pool_cfg.jobs = jobs;
    let mut artifacts = vec![None; cells.len()];
    let (_, telemetry) = pool::run_sweep_with_telemetry(
        experiments,
        journal,
        &BTreeSet::new(),
        &pool_cfg,
        |i, name, out| match out {
            Outcome::Done { tables, .. } => artifacts[i] = Some(render_tables(tables)),
            other => eprintln!("capacity cell {name} did not complete: {other:?}"),
        },
    );
    let mut points = Vec::new();
    let mut failed_cells = 0;
    for (cell, artifact) in cells.iter().zip(&artifacts) {
        match artifact
            .as_deref()
            .map(|text| capacity::frontier_from_artifact(cell, text))
        {
            Some(Ok(point)) => points.push(point),
            Some(Err(e)) => {
                eprintln!("capacity cell {}: {e}", cell.experiment_name());
                failed_cells += 1;
            }
            None => failed_cells += 1,
        }
    }
    let probes = points.iter().map(|p| p.probes).sum();
    // The frontier in matrix order, whatever order the cells were queued in.
    let matrix = capacity::matrix(false);
    points.sort_by_key(|p| {
        matrix
            .iter()
            .position(|c| c.shaper_name == p.shaper && c.scheduler == p.scheduler)
    });
    Sweep {
        csv: capacity::frontier_table(&points).to_csv(),
        probes,
        failed_cells,
        telemetry,
    }
}

fn capacity_rep(seed: u64) -> Result<Rep, String> {
    let setup0 = host::thread_cpu_s()?;
    let (cfg, cells) = capacity_inputs(seed);
    let experiments = capacity::experiments(&cells, &cfg);
    let dir = state_dir("rep")?;
    let journal =
        Journal::open(&dir, false).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let setup_s = host::thread_cpu_s()? - setup0;

    let jobs = capacity_jobs();
    let cpu0 = host::process_cpu_s()?;
    let start = Instant::now();
    let s = sweep(&cells, &experiments, Some(journal), jobs);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s()? - cpu0;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;

    let tel = &s.telemetry;
    let busy_ms: u64 = tel.workers.iter().map(|w| w.busy_ms).sum();
    let share = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let layers = named([
        (
            "pool.busy_frac",
            share(busy_ms as f64, (tel.wall_ms * tel.jobs as u64) as f64),
        ),
        (
            "pool.claims",
            tel.workers.iter().map(|w| w.claims).sum::<u64>() as f64,
        ),
        ("pool.steals", tel.takeovers() as f64),
        ("pool.retries", tel.retries() as f64),
        (
            "storage.sync_failures",
            (tel.storage.file_sync_failures + tel.storage.dir_fsync_failures) as f64,
        ),
        ("capacity.probe_ms", share(busy_ms as f64, s.probes as f64)),
    ]);
    let cycles = s.probes * cfg.run_cycles;
    Ok(Rep {
        ops: cells.len() as u64,
        failed_ops: s.failed_cells,
        digest: digest(&s.csv),
        setup_s,
        cpu_s,
        wall_s,
        peak_rss_mib: host::peak_rss_mib()?,
        cycles,
        exact: [("capacity.probes".to_owned(), s.probes as f64)].into(),
        layers,
    })
}

/// One probe per capacity cell at a fixed load, three ways: with the
/// metrics registry, without it, and on the naive engine. All three must
/// agree; their times give the registry's overhead and the engines' cost.
fn capacity_check(seed: u64) -> Check {
    let (cfg, cells) = capacity_inputs(seed);
    let arm = |engine: Engine, registry: bool| {
        let mut systems = Vec::new();
        let mut stats = Vec::new();
        let start = Instant::now();
        for cell in &cells {
            let metrics = registry.then(|| Rc::new(RefCell::new(MetricsRegistry::new())));
            let mut sys = capacity::build_probe(cell, &cfg, CHECK_RPS, engine, metrics);
            sys.run_cycles(cfg.run_cycles);
            stats.push(sys.system_stats());
            systems.push(sys);
        }
        (start.elapsed().as_secs_f64(), stats_digest(&stats), systems)
    };
    let (with_registry_s, with_registry, _) = arm(engine_from_env(), true);
    let (bare_s, bare, systems) = arm(engine_from_env(), false);
    let (naive_s, naive, _) = arm(Engine::Naive, false);
    let exact = simulated_metrics(&systems.iter().collect::<Vec<_>>());
    let (cycles, ticks) = (exact["system.cycles"], exact["system.ticks"]);
    let timings = named([
        ("system.naive_ns_per_cycle", naive_s * 1e9 / cycles.max(1.0)),
        ("system.self_ns_per_tick", bare_s * 1e9 / ticks.max(1.0)),
        ("obs.metrics_overhead_frac", with_registry_s / bare_s - 1.0),
    ]);
    let failure = (with_registry != bare || naive != bare).then(|| {
        format!("capacity probes disagree: registry {with_registry}, bare {bare}, naive {naive}")
    });
    Check {
        failure,
        exact,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_and_unwrapped_systems_agree_on_a_prefix() {
        for w in Workload::ALL.into_iter().filter(|w| w.is_single_system()) {
            let probes = Rc::new(Probes::default());
            let run = |p: Option<&Rc<Probes>>| {
                let mut sys = sim_builder(w, 3, p).build();
                sys.run_until_instructions(w.instructions() / 50, CYCLE_CAP);
                (stats_digest(&[sys.system_stats()]), sys.skipped_cycles())
            };
            assert_eq!(
                run(None),
                run(Some(&probes)),
                "{} diverged when wrapped",
                w.name()
            );
            for (what, calls) in [
                ("next_op", probes.next_op.calls()),
                ("try_issue", probes.try_issue.calls()),
                ("pick", probes.pick.calls()),
                ("scheduler tick", probes.sched_tick.calls()),
            ] {
                assert!(
                    calls > 0,
                    "{}: no {what} call reached the wrapper",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("all"), None);
    }
}
