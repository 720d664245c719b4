//! Wall-clock baseline of the simulator itself: naive cycle-by-cycle
//! execution vs the skip engine (`System::advance` under each `Engine`),
//! on three representative workloads plus one offline GA `quick()` tune.
//!
//! Emits `BENCH_sim.json` in the current directory — one record per
//! (scenario, mode): `{"bench": ..., "cycles_per_sec": ..., "wall_ms": ...}`
//! (`cycles_per_sec` is omitted for records that aggregate multiple
//! simulations, like the GA tune) — and prints a speedup table. Exits
//! non-zero if the skip engine is more than 2x slower than naive
//! anywhere (the `scripts/check.sh` gate).
//!
//! Also times an identical experiment list through the supervised pool
//! (`mitts_bench::pool`) at 1 worker vs N (records `sweep_pool_jobs1` /
//! `sweep_pool_jobsN`), gating that the parallel sweep is measurably
//! faster whenever the machine has at least two cores. The host's
//! `available_parallelism` is always recorded, and on single-core hosts
//! the missing parallel arm becomes an explicit `skipped` record with
//! the reason — never a silently absent row.
//!
//! Also gates the observability layer: the shaped 4-program mix is
//! re-timed with lifecycle tracing + sampling enabled and again with
//! the SLO metrics registry as the sink — each must stay within 15% of
//! the untraced wall clock — and an untimed traced run
//! writes `target/obs_smoke.trace.jsonl` + `target/obs_smoke.chrome.json`
//! for `mitts-trace` / Perfetto (the decomposition is cross-checked
//! in-process too).
//!
//! `--smoke` shrinks the work so the whole run fits in CI seconds.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use mitts_bench::pool::{self, Experiment, Outcome, PoolConfig};
use mitts_bench::runner::REPLENISH_PERIOD;
use mitts_bench::tracetool::summarize;
use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sched::make_baseline;
use mitts_sim::config::{CacheConfig, SystemConfig};
use mitts_sim::obs::json::escape;
use mitts_sim::obs::{write_chrome_trace, MetricsRegistry, RingSink, TrackLayout};
use mitts_sim::system::{Engine, System, SystemBuilder};
use mitts_sim::types::Cycle;
use mitts_tuner::{GaParams, GeneticTuner};
use mitts_workloads::profile::{AppProfile, Burstiness, Locality};
use mitts_workloads::Benchmark;

/// One timed scenario: per-core instruction budget and a cycle cap.
struct Scenario {
    name: &'static str,
    instructions: u64,
    cap: Cycle,
    build: fn(engine: Engine) -> System,
}

fn base_for(core: usize) -> u64 {
    (core as u64) << 36
}

/// Shared scenario config: small LLC (so traces reach DRAM) and a long
/// audit interval. The default 64-cycle interval is a debugging cadence;
/// it bounds every skip to 64 cycles and its full conservation scan
/// dominates the wall clock of *both* modes. Long experiment runs audit
/// sparsely, which is what this benchmark models — the same config is
/// applied to the naive and skip arms, so the ratio stays honest.
fn scenario_config(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::multi_program(cores);
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    cfg.hardening.audit.interval = 4096;
    cfg
}

/// Low MLP: one pointer-chasing core alone on the channel, restricted to
/// a single L1 MSHR — one outstanding miss at a time, the definition of
/// MLP = 1 (the `lat_mem_rd` shape). Almost every cycle is a
/// memory-latency bubble the skip engine can skip.
fn pointer_chase() -> AppProfile {
    AppProfile {
        name: "pointer_chase".to_owned(),
        // One compute instruction between dependent loads.
        burstiness: Burstiness::uniform(1.0),
        locality: Locality {
            hot_fraction: 0.0,
            hot_bytes: 4 << 10,
            warm_fraction: 0.0,
            warm_bytes: 64 << 10,
            // Random pointers over 1 GiB: misses every cache level.
            working_set_bytes: 1 << 30,
            seq_fraction: 0.0,
        },
        write_fraction: 0.0,
        phases: Vec::new(),
    }
}

fn build_low_mlp(engine: Engine) -> System {
    let mut cfg = scenario_config(1);
    cfg.l1.mshrs = 1;
    SystemBuilder::new(cfg)
        .trace(0, Box::new(pointer_chase().trace(base_for(0), 0xBE11)))
        .scheduler(make_baseline("FR-FCFS", 1).expect("known"))
        .engine(engine)
        .build()
}

/// Bandwidth-saturated: four streaming cores hammering one channel. The
/// controller has work almost every cycle, so gains here come from the
/// de-allocated hot path and short skips between dispatch opportunities.
fn build_bw_saturated(engine: Engine) -> System {
    let mut b = SystemBuilder::new(scenario_config(4))
        .scheduler(make_baseline("FR-FCFS", 4).expect("known"))
        .engine(engine);
    for i in 0..4 {
        b = b.trace(
            i,
            Box::new(Benchmark::Libquantum.profile().trace(base_for(i), 0x5A7 + i as u64)),
        );
    }
    b.build()
}

/// Mixed shaped workload: a four-program mix with a MITTS shaper on the
/// hog — the shape of a real experiment run (deny phases + contention).
/// Returned unbuilt so the tracing gate can add a sink to the same mix.
fn mixed_shaped_builder(engine: Engine) -> SystemBuilder {
    let benches =
        [Benchmark::Libquantum, Benchmark::Mcf, Benchmark::Gcc, Benchmark::Omnetpp];
    let mut b = SystemBuilder::new(scenario_config(4))
        .scheduler(make_baseline("FR-FCFS", 4).expect("known"))
        .engine(engine);
    for (i, bench) in benches.iter().enumerate() {
        b = b.trace(i, Box::new(bench.profile().trace(base_for(i), 0x3117 + i as u64)));
    }
    let mut credits = vec![0u32; BinSpec::paper_default().bins()];
    credits[3] = 12;
    credits[7] = 8;
    let shaper_cfg =
        BinConfig::new(BinSpec::paper_default(), credits, REPLENISH_PERIOD).unwrap();
    b.shaper(0, Rc::new(RefCell::new(MittsShaper::new(shaper_cfg))) as _)
}

fn build_mixed_shaped(engine: Engine) -> System {
    mixed_shaped_builder(engine).build()
}

/// A finished measurement row. `cycles_per_sec` is `None` for records
/// that aggregate multiple simulations (no single meaningful rate);
/// `wall_ms` is `None` for pure metadata records (host facts, skipped
/// arms). `extra` carries additional keys with pre-rendered JSON values.
struct Record {
    bench: String,
    cycles_per_sec: Option<f64>,
    wall_ms: Option<f64>,
    extra: Vec<(&'static str, String)>,
}

impl Record {
    fn timed(bench: impl Into<String>, cycles_per_sec: Option<f64>, wall_ms: f64) -> Record {
        Record {
            bench: bench.into(),
            cycles_per_sec,
            wall_ms: Some(wall_ms),
            extra: Vec::new(),
        }
    }
}

fn mode_suffix(engine: Engine) -> &'static str {
    match engine {
        Engine::Naive => "naive",
        Engine::Skip => "skip",
    }
}

fn time_scenario(s: &Scenario, engine: Engine) -> Record {
    let mut sys = (s.build)(engine);
    let start = Instant::now();
    let _ = sys.run_until_instructions(s.instructions, s.cap);
    let wall = start.elapsed();
    let secs = wall.as_secs_f64().max(1e-9);
    Record::timed(
        format!("{}_{}", s.name, mode_suffix(engine)),
        Some(sys.now() as f64 / secs),
        wall.as_secs_f64() * 1e3,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { 1 } else { 5 };

    let scenarios = [
        Scenario {
            name: "low_mlp_chase",
            instructions: 20_000 * scale,
            cap: 4_000_000 * scale,
            build: build_low_mlp,
        },
        Scenario {
            name: "bw_saturated_libquantum_x4",
            instructions: 10_000 * scale,
            cap: 2_000_000 * scale,
            build: build_bw_saturated,
        },
        Scenario {
            name: "mixed_shaped_4prog",
            instructions: 8_000 * scale,
            cap: 2_000_000 * scale,
            build: build_mixed_shaped,
        },
    ];

    let mut records = Vec::new();
    let mut regression = false;
    // Host metadata first: downstream tooling comparing BENCH_sim.json
    // across machines needs the core count that shaped the pool arms —
    // always emitted, even when the parallel arm itself is skipped.
    let host_par = std::thread::available_parallelism().map_or(1, |n| n.get());
    records.push(Record {
        bench: "host".to_owned(),
        cycles_per_sec: None,
        wall_ms: None,
        extra: vec![("available_parallelism", host_par.to_string())],
    });
    println!(
        "{:<34} {:>12} {:>12} {:>9}",
        "scenario", "naive ms", "skip ms", "skip"
    );
    for s in &scenarios {
        let naive = time_scenario(s, Engine::Naive);
        let skip = time_scenario(s, Engine::Skip);
        let (naive_ms, skip_ms) = (naive.wall_ms.expect("timed"), skip.wall_ms.expect("timed"));
        let speedup = naive_ms / skip_ms.max(1e-9);
        println!("{:<34} {:>12.1} {:>12.1} {:>8.2}x", s.name, naive_ms, skip_ms, speedup);
        if skip_ms > 2.0 * naive_ms {
            eprintln!("REGRESSION: {} skip engine is {speedup:.2}x of naive wall-clock", s.name);
            regression = true;
        }
        records.push(naive);
        records.push(skip);
    }

    // One offline GA quick() tune, timed end-to-end: the consumer the
    // skip engine exists for. Fitness evaluations build their own systems
    // (skip engine by default), so this measures the shipped config.
    let ga_params = if smoke {
        GaParams { population: 4, generations: 2, ..GaParams::quick() }
    } else {
        GaParams::quick()
    };
    let ga_scale =
        if smoke { mitts_bench::Scale::smoke() } else { mitts_bench::Scale::quick() };
    let start = Instant::now();
    let mut ga = GeneticTuner::new(BinSpec::paper_default(), REPLENISH_PERIOD, 1, ga_params);
    let result = ga.optimize(|genome| {
        mitts_bench::runner::single_program_ipc(
            Benchmark::Gcc,
            1 << 20,
            &genome.to_configs()[0],
            9,
            &ga_scale,
        )
    });
    let wall = start.elapsed();
    println!(
        "{:<34} {:>12} {:>12.1}   (best IPC {:.3}, {} evals)",
        "ga_quick_tune", "-", wall.as_secs_f64() * 1e3, result.best_fitness, result.evaluations
    );
    // Simulated cycles are not aggregated across fitness runs; the
    // record carries wall time only.
    records.push(Record::timed("ga_quick_tune", None, wall.as_secs_f64() * 1e3));

    // Parallel sweep engine: the same experiment list through the
    // supervised pool (`mitts_bench::pool`) at 1 worker and at N — the
    // wall-clock win run_all gets from MITTS_JOBS. Experiments are
    // deterministic simulations, so only scheduling differs between the
    // two arms.
    {
        let (count, instructions, cap) =
            if smoke { (6usize, 4_000u64, 800_000 as Cycle) } else { (8, 10_000, 2_000_000) };
        let sweep_experiments = || -> Vec<Experiment> {
            (0..count)
                .map(|i| {
                    Experiment::new(
                        format!("sweep{i}"),
                        Arc::new(move || {
                            let mut sys = build_bw_saturated(Engine::Skip);
                            let _ = sys.run_until_instructions(instructions, cap);
                            let mut t =
                                mitts_bench::Table::new("sweep", &["exp", "cycles"]);
                            t.row(vec![i.to_string(), sys.now().to_string()]);
                            vec![t]
                        }),
                    )
                })
                .collect()
        };
        let time_sweep = |jobs: usize| -> f64 {
            let experiments = sweep_experiments();
            let mut cfg = PoolConfig::serial();
            cfg.jobs = jobs;
            let start = Instant::now();
            let report =
                pool::run_sweep(&experiments, None, &BTreeSet::new(), &cfg, |_, name, out| {
                    assert!(matches!(out, Outcome::Done { .. }), "{name} must complete");
                });
            assert_eq!(report.done, count, "every sweep experiment must finish");
            start.elapsed().as_secs_f64()
        };
        let jobs_n = host_par.min(4);
        let serial_s = time_sweep(1);
        records.push(Record::timed("sweep_pool_jobs1", None, serial_s * 1e3));
        if jobs_n >= 2 {
            let parallel_s = time_sweep(jobs_n);
            let speedup = serial_s / parallel_s.max(1e-9);
            println!(
                "{:<34} {:>12.1} {:>12.1} {:>7.2}x  (pool, jobs={jobs_n})",
                "sweep_pool",
                serial_s * 1e3,
                parallel_s * 1e3,
                speedup
            );
            if speedup < 1.2 {
                eprintln!(
                    "REGRESSION: {count}-experiment sweep at jobs={jobs_n} is only \
                     {speedup:.2}x over jobs=1 (want >= 1.2x)"
                );
                regression = true;
            }
            records.push(Record::timed(format!("sweep_pool_jobs{jobs_n}"), None, parallel_s * 1e3));
        } else {
            println!(
                "{:<34} {:>12.1} {:>12} {:>8}  (pool; single-core machine, parallel arm skipped)",
                "sweep_pool",
                serial_s * 1e3,
                "-",
                "-"
            );
            // The missing arm is recorded explicitly, never silently:
            // a consumer diffing baselines can tell "skipped on a
            // single-core host" from "the refresh dropped the arm".
            let reason = format!(
                "single-core host (available_parallelism={host_par}); \
                 parallel arm needs >= 2 cores"
            );
            records.push(Record {
                bench: "sweep_pool_jobs_parallel".to_owned(),
                cycles_per_sec: None,
                wall_ms: None,
                extra: vec![("skipped", escape(&reason))],
            });
        }
    }

    // Observability gate, part 1: the shaped mix re-timed with lifecycle
    // tracing + sampling into a flight-recorder ring (8K events ≈ 1 MB,
    // L2-resident; a larger retained tail adds cache footprint that gets
    // billed to "tracing") must stay within 15% of the untraced wall
    // clock. The arms are interleaved and min-of-N so machine noise hits
    // both floors equally.
    let mixed = &scenarios[2];
    let reps = 5;
    let run_mixed = |traced: bool| -> (f64, Cycle) {
        let mut sys = if traced {
            mixed_shaped_builder(Engine::Skip)
                .trace_sink(Box::new(RingSink::new(8192)))
                .sample_every(4096)
                .build()
        } else {
            build_mixed_shaped(Engine::Skip)
        };
        let start = Instant::now();
        let _ = sys.run_until_instructions(mixed.instructions, mixed.cap);
        (start.elapsed().as_secs_f64(), sys.now())
    };
    // Same mix again with the SLO metrics registry as the sink: the
    // registry folds every lifecycle event into per-tenant/per-epoch
    // aggregates in-process, so it carries the same <=15% budget as the
    // flight-recorder ring — `mitts-capacity` runs hundreds of these.
    let run_metrics = || -> (f64, Cycle) {
        let registry = Rc::new(RefCell::new(MetricsRegistry::new()));
        let mut sys = mixed_shaped_builder(Engine::Skip)
            .trace_sink(Box::new(Rc::clone(&registry)))
            .sample_every(4096)
            .build();
        let start = Instant::now();
        let _ = sys.run_until_instructions(mixed.instructions, mixed.cap);
        let wall = start.elapsed().as_secs_f64();
        sys.flush_trace();
        assert!(
            !registry.borrow().epochs().is_empty(),
            "metrics arm produced no epochs — the registry was not exercised"
        );
        (wall, sys.now())
    };
    let (mut off, mut on, mut on_metrics) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut traced_cycles, mut metrics_cycles) = (0, 0);
    for _ in 0..reps {
        off = off.min(run_mixed(false).0);
        let (t, c) = run_mixed(true);
        on = on.min(t);
        traced_cycles = c;
        let (t, c) = run_metrics();
        on_metrics = on_metrics.min(t);
        metrics_cycles = c;
    }
    let overhead = on / off.max(1e-9) - 1.0;
    println!(
        "{:<34} {:>12.1} {:>12.1} {:>6.1}%  (tracing overhead)",
        "mixed_shaped_4prog_traced",
        off * 1e3,
        on * 1e3,
        overhead * 100.0
    );
    if overhead > 0.15 {
        eprintln!(
            "REGRESSION: lifecycle tracing costs {:.1}% over untraced (budget 15%)",
            overhead * 100.0
        );
        regression = true;
    }
    records.push(Record::timed(
        "mixed_shaped_4prog_traced",
        Some(traced_cycles as f64 / on.max(1e-9)),
        on * 1e3,
    ));
    let metrics_overhead = on_metrics / off.max(1e-9) - 1.0;
    println!(
        "{:<34} {:>12.1} {:>12.1} {:>6.1}%  (metrics-registry overhead)",
        "mixed_shaped_4prog_metrics",
        off * 1e3,
        on_metrics * 1e3,
        metrics_overhead * 100.0
    );
    if metrics_overhead > 0.15 {
        eprintln!(
            "REGRESSION: metrics registry costs {:.1}% over untraced (budget 15%)",
            metrics_overhead * 100.0
        );
        regression = true;
    }
    records.push(Record::timed(
        "mixed_shaped_4prog_metrics",
        Some(metrics_cycles as f64 / on_metrics.max(1e-9)),
        on_metrics * 1e3,
    ));

    // Observability gate, part 2: an untimed traced run of the same mix
    // writes the JSONL + Chrome-trace artifacts that `scripts/check.sh`
    // feeds to `mitts-trace`, and the per-stage latency decomposition is
    // cross-checked against the machine's own mem_latency_sum here too.
    {
        let sink = Rc::new(RefCell::new(RingSink::new(1 << 22)));
        let mut sys = mixed_shaped_builder(Engine::Skip)
            .trace_sink(Box::new(Rc::clone(&sink)))
            .sample_every(2048)
            .build();
        let _ = sys.run_until_instructions(mixed.instructions, mixed.cap);
        sys.flush_trace();
        let ring = sink.borrow();
        assert_eq!(ring.dropped(), 0, "smoke trace overflowed its ring sink");
        let mut jsonl = String::with_capacity(ring.len() * 96);
        for ev in ring.events() {
            jsonl.push_str(&ev.to_json_line());
            jsonl.push('\n');
        }
        std::fs::create_dir_all("target").expect("create target/");
        mitts_sim::fsio::write_atomic_str(
            std::path::Path::new("target/obs_smoke.trace.jsonl"),
            &jsonl,
        )
        .expect("write obs_smoke.trace.jsonl");
        let cfg = scenario_config(4);
        let layout =
            TrackLayout { cores: 4, channels: cfg.mc.channels, banks: cfg.dram.banks };
        let mut chrome = Vec::new();
        write_chrome_trace(&ring.to_vec(), &layout, &mut chrome)
            .expect("render chrome trace");
        mitts_sim::fsio::write_atomic(
            std::path::Path::new("target/obs_smoke.chrome.json"),
            &chrome,
        )
        .expect("write obs_smoke.chrome.json");
        let summary = summarize(jsonl.as_bytes()).expect("smoke trace parses");
        match summary.crosscheck() {
            Ok(Some(())) => {}
            Ok(None) => {
                eprintln!("REGRESSION: smoke trace has no run_summary record");
                regression = true;
            }
            Err(e) => {
                eprintln!("REGRESSION: trace decomposition crosscheck failed: {e}");
                regression = true;
            }
        }
        println!(
            "wrote target/obs_smoke.trace.jsonl ({} events) and target/obs_smoke.chrome.json",
            ring.len()
        );
    }

    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(json, "  {{\"bench\": {}", escape(&r.bench));
        if let Some(cps) = r.cycles_per_sec {
            let _ = write!(json, ", \"cycles_per_sec\": {cps:.1}");
        }
        if let Some(wall_ms) = r.wall_ms {
            let _ = write!(json, ", \"wall_ms\": {wall_ms:.3}");
        }
        for (key, value) in &r.extra {
            let _ = write!(json, ", \"{key}\": {value}");
        }
        let _ = writeln!(json, "}}{}", if i + 1 < records.len() { "," } else { "" });
    }
    json.push(']');
    json.push('\n');
    mitts_sim::fsio::write_atomic_str(std::path::Path::new("BENCH_sim.json"), &json)
        .expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json ({} records)", records.len());

    if regression {
        std::process::exit(1);
    }
}
