//! `perfbench`: the host cost of the MITTS simulator, end to end and layer
//! by layer.
//!
//! ```text
//! perfbench [--workload NAME[,NAME...]|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! perfbench --compare BASE.json[,BASE.json...] NEW.json[,NEW.json...]
//! ```
//!
//! A run first checks the skip engine against the naive reference on each
//! workload. It then runs rounds until `--seconds` have passed, with at
//! least three rounds. A round runs one rep of every named workload, each
//! in a fresh child process of this binary, so set-up and peak memory are
//! those of one rep. A fixed reference kernel runs between reps to track
//! the host's speed, and host times are scaled to a nominal speed (see
//! [`HostSpeed`]). With `--trace 1`, each round adds a rep whose plug-ins
//! are wrapped in forwarding timers, and diagnostic passes follow the
//! rounds. All reps of a workload must produce the same digest of
//! simulated results.
//!
//! The run prints every metric with its unit. Its last line is one JSON
//! object: `correct`, `attempted`, `failed`, and the `end_to_end` metrics
//! of `BENCHMARK.json`, or its `per_layer` metrics with `--trace 1`.
//! `--out` saves the run's report; `--compare` judges two sets of saved
//! reports against the bounds in `BENCHMARK.json`.
//!
//! Variables named `MITTS_*` change what the simulator or the sweep
//! harness does, so the command refuses to run while any is set.

mod host;
mod json;
mod stats;
mod timed;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mitts_sim::obs::json::{self as obs_json, JsonValue};

use crate::host::CpuTimes;
use crate::json::{field, num, obj, read_metrics, render, string};
use crate::stats::{median, quartiles, verdict, Verdict};
use crate::workload::{Check, Metrics, Rep, Workload};

/// The benchmark's definition: workloads, metrics, units, bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Rounds every run makes, however short `--seconds` is, so that each
/// median has samples on both sides.
const MIN_ROUNDS: usize = 3;

/// Fastest CPU time of the reference kernel ([`host::reference_cpu_s`]) on
/// the reference host, a 2-vCPU virtual machine. Host times are scaled by
/// this over the kernel's fastest time in the run, so they read as seconds
/// on that host at its fastest.
const REFERENCE_NOMINAL_S: f64 = 0.06;

const USAGE: &str = "usage: perfbench [--workload NAME[,NAME...]|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]\n       \
                     perfbench --compare BASE.json[,BASE.json...] NEW.json[,NEW.json...]";

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct MetricDef {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    bound: f64,
}

/// The run length and metric lists of `BENCHMARK.json`.
struct Catalogue {
    run_seconds: u64,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn catalogue() -> Result<Catalogue, String> {
    let doc = obs_json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<MetricDef>, String> {
        let items = doc
            .get(key)
            .and_then(JsonValue::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key}"))?;
        items
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_owned);
                Ok(MetricDef {
                    name: text("name").ok_or(format!("a {key} metric has no name"))?,
                    unit: text("unit").ok_or(format!("a {key} metric has no unit"))?,
                    higher_is_better: text("better").as_deref() == Some("higher"),
                    bound: m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Catalogue {
        run_seconds: doc
            .get("run_seconds")
            .and_then(JsonValue::as_u64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// The end-to-end metric `def` over a run's reps, with host times scaled
/// by `scale` (see [`HostSpeed`]): the value the run reports and one
/// sample per rep. `None` for a metric this benchmark does not measure.
///
/// Host time is reported as the fastest rep: other tenants of the host
/// only ever add time. Set-up time and peak memory are reported as the
/// median over reps.
fn end_to_end(def: &MetricDef, reps: &[Rep], scale: f64) -> Option<(f64, Vec<f64>)> {
    let (value, fastest): (fn(&Rep, f64) -> f64, bool) = match def.name.as_str() {
        "cpu_s" => (|r, k| r.cpu_s * k, true),
        "sim_mcycles_per_s" => (|r, k| r.cycles as f64 / (r.cpu_s * k) / 1e6, true),
        "setup_s" => (|r, k| r.setup_s * k, false),
        "peak_rss_mib" => (|r, _| r.peak_rss_mib, false),
        _ => return None,
    };
    let samples: Vec<f64> = reps.iter().map(|r| value(r, scale)).collect();
    let best = |a: f64, b: f64| {
        if def.higher_is_better {
            a.max(b)
        } else {
            a.min(b)
        }
    };
    let reported = if fastest {
        samples.iter().copied().reduce(best).unwrap_or(0.0)
    } else {
        median(&samples)
    };
    Some((reported, samples))
}

/// How fast the host ran this tenant during a run: the times of a fixed
/// reference kernel, each run in a fresh child process before the first
/// rep and after every rep, like the reps themselves. The kernel runs on
/// as many threads at once as the workload uses.
///
/// The benchmark runs as one tenant of a shared virtual machine. The other
/// tenants slow it down by varying amounts for seconds to minutes, and the
/// guest's own accounting cannot see it: hypervisor steal stays around 1%.
/// On the reference host, 400 back-to-back `stream_x4` reps of identical
/// work, cut into ten runs of 40, had a 19% spread (quartile distance over
/// median) of median rep times and a 4.5% spread of fastest rep times.
/// The fastest rep over the fastest kernel time had a 2.8% spread; for
/// the other single-system workloads it was 1.1% and 2.5%. For the
/// two-worker capacity sweep it was 3.9% with the kernel on one thread and
/// 1.6% with it on two.
#[derive(Default)]
struct HostSpeed {
    /// Kernel times in seconds, by thread count.
    measured: BTreeMap<usize, Vec<f64>>,
}

impl HostSpeed {
    fn measure(&mut self, threads: usize) -> Result<(), String> {
        let line = run_child(&["--reference", &threads.to_string()])?;
        let s = line
            .trim()
            .parse()
            .map_err(|e| format!("reading the reference time {line:?}: {e}"))?;
        self.measured.entry(threads).or_default().push(s);
        Ok(())
    }

    /// The kernel's fastest time in the run on `threads` threads.
    fn fastest_s(&self, threads: usize) -> f64 {
        let times = self.measured.get(&threads).map_or(&[][..], Vec::as_slice);
        times.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The factor that scales this run's host times on `threads` threads to
    /// the nominal host speed: [`REFERENCE_NOMINAL_S`] over the kernel's
    /// fastest time.
    fn scale(&self, threads: usize) -> f64 {
        REFERENCE_NOMINAL_S / self.fastest_s(threads)
    }
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    /// Length of the rounds phase; `run_seconds` of `BENCHMARK.json` when
    /// not given.
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
}

enum Mode {
    Run(RunArgs),
    Rep {
        w: Workload,
        seed: u64,
        traced: bool,
    },
    Reference {
        threads: usize,
    },
    Compare(Vec<PathBuf>, Vec<PathBuf>),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut run = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut rep = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                run.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    v.split(',')
                        .map(|n| Workload::from_name(n).ok_or(format!("unknown workload {n:?}")))
                        .collect::<Result<_, _>>()?
                };
            }
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => run.out = Some(value()?.into()),
            "--compare" => {
                let side = |v: &String| v.split(',').map(PathBuf::from).collect();
                let base = side(value()?);
                return Ok(Mode::Compare(base, side(value()?)));
            }
            "--rep" => {
                let name = value()?;
                rep = Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--traced" => traced = true,
            "--reference" => {
                let threads = value()?.parse().map_err(|e| format!("--reference: {e}"))?;
                return Ok(Mode::Reference { threads });
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(match rep {
        Some(w) => Mode::Rep {
            w,
            seed: run.seed,
            traced,
        },
        None => Mode::Run(run),
    })
}

/// Refuses to run while a `MITTS_*` variable could change what is
/// measured (the engine, the worker count, fault injection, the scale).
fn refuse_mitts_env() -> Result<(), String> {
    let set: BTreeSet<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MITTS_"))
        .collect();
    match set.len() {
        0 => Ok(()),
        1 => Err(format!(
            "{} is set; it changes what is measured, so unset it",
            set.first().expect("one")
        )),
        _ => Err(format!(
            "{} are set; they change what is measured, so unset them",
            set.into_iter().collect::<Vec<_>>().join(", ")
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match refuse_mitts_env().and_then(|()| parse_args(&args)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Rep { w, seed, traced } => workload::run_rep(w, seed, traced).map(|rep| {
            println!("{}", render(&rep.to_json()));
            ExitCode::SUCCESS
        }),
        Mode::Reference { threads } => host::reference_cpu_s(threads).map(|s| {
            println!("{s}");
            ExitCode::SUCCESS
        }),
        Mode::Compare(base, new) => compare(&base, &new),
        Mode::Run(run_args) => run(&run_args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}

/// Everything one run gathers about one workload.
struct WorkloadRun {
    w: Workload,
    /// Untraced reps that ran to the end.
    reps: Vec<Rep>,
    /// Traced reps that ran to the end.
    traced: Vec<Rep>,
    attempted: u64,
    failed: u64,
    check: Check,
    /// Metrics of the diagnostic passes (traced runs only).
    diagnostics: Metrics,
}

impl WorkloadRun {
    fn fail(&mut self, ops: u64, why: String) {
        eprintln!("perfbench: {}: {why}", self.w.name());
        self.failed += ops;
    }

    fn add_rep(&mut self, seed: u64, traced: bool) {
        match spawn_rep(self.w, seed, traced) {
            Ok(rep) => {
                self.attempted += rep.ops;
                self.failed += rep.failed_ops;
                if traced {
                    &mut self.traced
                } else {
                    &mut self.reps
                }
                .push(rep);
            }
            Err(e) => {
                self.attempted += self.w.ops_per_rep();
                self.fail(self.w.ops_per_rep(), e);
            }
        }
    }

    /// Every rep, traced or not, must reproduce the first rep's digest and
    /// simulated metrics; so must the one-worker capacity pass.
    fn check_agreement(&mut self, one_worker_digest: Option<String>) {
        let Some(first) = self.reps.first().cloned() else {
            return;
        };
        let mut mismatched = Vec::new();
        for rep in self.reps.iter().chain(&self.traced) {
            let same_exact = first.exact.iter().all(|(k, v)| rep.exact.get(k) == Some(v));
            if rep.digest != first.digest || !same_exact {
                mismatched.push((
                    rep.ops,
                    format!("rep digest {} differs from {}", rep.digest, first.digest),
                ));
            }
        }
        if let Some(d) = one_worker_digest.filter(|d| *d != first.digest) {
            self.attempted += 1;
            mismatched.push((
                1,
                format!(
                    "one-worker frontier {d} differs from the reps' {}",
                    first.digest
                ),
            ));
        }
        for (ops, why) in mismatched {
            self.fail(ops, why);
        }
    }

    /// The simulated metrics and exact call counts: the same on every rep
    /// of a seed.
    fn exact(&self) -> Metrics {
        let mut m = Metrics::new();
        for rep in [self.reps.first(), self.traced.first()]
            .into_iter()
            .flatten()
        {
            m.extend(rep.exact.clone());
        }
        m.extend(self.check.exact.clone());
        m
    }

    /// Every per-layer value this run measured.
    fn per_layer(&self, steal_frac: f64, reference_s: f64) -> Metrics {
        let mut m = self.exact();
        m.extend(self.check.timings.clone());
        m.extend(layer_medians(&self.reps));
        m.extend(layer_medians(&self.traced));
        m.extend(self.diagnostics.clone());
        let wall: Vec<f64> = self.reps.iter().map(|r| r.wall_s).collect();
        m.insert("host.wall_s".to_owned(), median(&wall));
        m.insert("host.steal_frac".to_owned(), steal_frac);
        m.insert("host.reference_s".to_owned(), reference_s);
        m.insert(
            "host.available_parallelism".to_owned(),
            available_parallelism() as f64,
        );
        if !self.traced.is_empty() {
            let cpu = |reps: &[Rep]| median(&reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
            m.insert(
                "trace.overhead_frac".to_owned(),
                cpu(&self.traced) / cpu(&self.reps) - 1.0,
            );
        }
        m.entry("host.timer_floor_ns".to_owned())
            .or_insert_with(timed::timer_floor_ns);
        m
    }
}

/// Per-key medians of the reps' layer metrics.
fn layer_medians(reps: &[Rep]) -> Metrics {
    let keys: BTreeSet<&String> = reps.iter().flat_map(|r| r.layers.keys()).collect();
    keys.into_iter()
        .map(|k| {
            let v: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.layers.get(k).copied())
                .collect();
            (k.clone(), median(&v))
        })
        .collect()
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs this binary with `args` in a child process, and returns the last
/// line it printed.
fn run_child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{args:?} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .map(str::to_owned)
        .ok_or(format!("{args:?} printed nothing"))
}

/// Runs one rep in a child process and reads its result.
fn spawn_rep(w: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let seed = seed.to_string();
    let mut args = vec!["--rep", w.name(), "--seed", &seed];
    if traced {
        args.push("--traced");
    }
    Rep::from_json(&obs_json::parse(&run_child(&args)?)?)
}

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let cat = catalogue()?;
    let seconds = args.seconds.unwrap_or(cat.run_seconds);
    println!(
        "perfbench: seed {}, {seconds} s of rounds, trace {}, available_parallelism {}, \
         debug_assertions {}",
        args.seed,
        u8::from(args.trace),
        available_parallelism(),
        cfg!(debug_assertions)
    );
    println!("The modelled caches start empty in every rep.");

    let mut runs: Vec<WorkloadRun> = args
        .workloads
        .iter()
        .map(|&w| {
            let check = workload::check(w, args.seed);
            let mut run = WorkloadRun {
                w,
                reps: Vec::new(),
                traced: Vec::new(),
                attempted: 1,
                failed: 0,
                check,
                diagnostics: Metrics::new(),
            };
            if let Some(why) = run.check.failure.clone() {
                run.fail(1, why);
            }
            run
        })
        .collect();

    let cpu_before = CpuTimes::now()?;
    let mut speed = HostSpeed::default();
    for run in &runs {
        if !speed.measured.contains_key(&run.w.threads()) {
            speed.measure(run.w.threads())?;
        }
    }
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < Duration::from_secs(seconds) {
        for run in &mut runs {
            run.add_rep(args.seed, false);
            speed.measure(run.w.threads())?;
            if args.trace && run.w.is_single_system() {
                run.add_rep(args.seed, true);
                speed.measure(run.w.threads())?;
            }
        }
        rounds += 1;
    }
    let steal_frac = CpuTimes::now()?.steal_frac_since(&cpu_before);

    for run in &mut runs {
        let mut one_worker_digest = None;
        if args.trace {
            match workload::diagnose(run.w, args.seed) {
                Ok((metrics, digest)) => {
                    run.diagnostics = metrics;
                    one_worker_digest = digest;
                }
                Err(e) => {
                    run.attempted += 1;
                    run.fail(1, e);
                }
            }
        }
        run.check_agreement(one_worker_digest);
        if run.reps.is_empty() {
            run.fail(1, "no rep ran to the end".to_owned());
        }
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let correct = failed == 0;
    let prefix = |w: Workload, name: &str| {
        if runs.len() == 1 {
            name.to_owned()
        } else {
            format!("{}.{name}", w.name())
        }
    };

    let mut report_workloads = Vec::new();
    let mut line_metrics = Vec::new();
    println!(
        "\n{:<14} {:<42} {:>12} {:>14} {:>14} {:>14} {:>14} {:>4}",
        "workload", "metric", "unit", "value", "median", "q1", "q3", "n"
    );
    for run in &runs {
        let scale = speed.scale(run.w.threads());
        let mut e2e = Vec::new();
        for def in &cat.end_to_end {
            let (value, samples) = end_to_end(def, &run.reps, scale).ok_or(format!(
                "BENCHMARK.json names end-to-end metric {:?}, which is not measured",
                def.name
            ))?;
            let (q1, q3) = quartiles(&samples);
            let med = median(&samples);
            println!(
                "{:<14} {:<42} {:>12} {value:>14.6} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>4}",
                run.w.name(),
                def.name,
                def.unit,
                samples.len()
            );
            if !args.trace {
                line_metrics.push((prefix(run.w, &def.name), value, def.unit.clone()));
            }
            e2e.push((
                def.name.clone(),
                obj([
                    ("unit", string(&def.unit)),
                    ("value", num(value)),
                    ("median", num(med)),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("n", num(samples.len() as f64)),
                    (
                        "samples",
                        JsonValue::Arr(samples.iter().map(|&v| num(v)).collect()),
                    ),
                ]),
            ));
        }
        let mut entry = vec![
            (
                "digest",
                string(run.reps.first().map_or("", |r| r.digest.as_str())),
            ),
            ("attempted", num(run.attempted as f64)),
            ("failed", num(run.failed as f64)),
            ("end_to_end", obj(e2e)),
        ];
        entry.push(("exact", json::metrics(&run.exact())));
        if args.trace {
            let measured = run.per_layer(steal_frac, speed.fastest_s(run.w.threads()));
            let mut layer = Metrics::new();
            for def in &cat.per_layer {
                let value = measured.get(&def.name).copied().unwrap_or(0.0);
                println!(
                    "{:<14} {:<42} {:>12} {:>14.6}",
                    run.w.name(),
                    def.name,
                    def.unit,
                    value
                );
                line_metrics.push((prefix(run.w, &def.name), value, def.unit.clone()));
                layer.insert(def.name.clone(), value);
            }
            entry.push(("per_layer", json::metrics(&layer)));
        }
        report_workloads.push((run.w.name(), obj(entry)));
    }
    println!("attempted {attempted} operations, {failed} failed");

    if let Some(path) = &args.out {
        let report = obj([
            ("seed", num(args.seed as f64)),
            ("seconds", num(seconds as f64)),
            ("trace", JsonValue::Bool(args.trace)),
            ("available_parallelism", num(available_parallelism() as f64)),
            ("debug_assertions", JsonValue::Bool(cfg!(debug_assertions))),
            ("caches", string("empty at the start of every rep")),
            ("correct", JsonValue::Bool(correct)),
            ("attempted", num(attempted as f64)),
            ("failed", num(failed as f64)),
            ("workloads", obj(report_workloads)),
        ]);
        std::fs::write(path, render(&report) + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    let line = obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        (
            "metrics",
            obj(line_metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    obj([("value", num(value)), ("unit", JsonValue::Str(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", render(&line));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load_report(path: &Path) -> Result<JsonValue, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    obs_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares two sets of runs, each given as the reports `--out` wrote.
/// Every report contributes its value of each end-to-end metric as one
/// sample. Prints, per workload and metric, each side's median, quartiles
/// and sample count, with the verdict of [`verdict`]. Then diffs the digest
/// and every simulated value of each report against the first base report
/// with the same seed. Fails when a metric got worse than its bound, or
/// when a simulated value differs.
fn compare(base_paths: &[PathBuf], new_paths: &[PathBuf]) -> Result<ExitCode, String> {
    let cat = catalogue()?;
    let load = |paths: &[PathBuf]| {
        paths
            .iter()
            .map(|p| load_report(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (base, new) = (load(base_paths)?, load(new_paths)?);
    let reference = base.first().ok_or("no base report")?;
    let names: Vec<String> = match reference.get("workloads") {
        Some(JsonValue::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => return Err("the first base report has no workloads".to_owned()),
    };
    let workload =
        |r: &JsonValue, name: &str| r.get("workloads").and_then(|w| w.get(name)).cloned();
    let (mut worse, mut differences) = (0, 0);
    println!(
        "{:<14} {:<18} {:>10}  {:>34}  {:>34} {:>8}  verdict",
        "workload", "metric", "unit", "base median [q1, q3] n", "new median [q1, q3] n", "change"
    );
    for name in &names {
        for def in &cat.end_to_end {
            let values = |side: &[JsonValue]| -> Result<Vec<f64>, String> {
                side.iter()
                    .map(|r| {
                        workload(r, name)
                            .and_then(|w| {
                                w.get("end_to_end")?.get(&def.name)?.get("value")?.as_f64()
                            })
                            .ok_or(format!("a report has no {name} {} value", def.name))
                    })
                    .collect()
            };
            let (bs, ns) = (values(&base)?, values(&new)?);
            let v = verdict(&bs, &ns, def.bound, def.higher_is_better);
            worse += usize::from(v == Verdict::Worse);
            let show = |s: &[f64]| {
                let (q1, q3) = quartiles(s);
                format!("{:.6} [{q1:.6}, {q3:.6}] {}", median(s), s.len())
            };
            let change = (median(&ns) / median(&bs) - 1.0) * 100.0;
            println!(
                "{name:<14} {:<18} {:>10}  {:>34}  {:>34} {change:>+7.2}%  {} (bound {}%)",
                def.name,
                def.unit,
                show(&bs),
                show(&ns),
                v.label(),
                def.bound * 100.0
            );
        }
        let simulated = |r: &JsonValue| -> Result<(String, Metrics), String> {
            let w = workload(r, name).ok_or(format!("a report has no {name}"))?;
            let digest = w
                .get("digest")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_owned();
            Ok((digest, read_metrics(w.get("exact"))?))
        };
        let (ref_digest, ref_exact) = simulated(reference)?;
        let mut diffs = Vec::new();
        let paths = base_paths
            .iter()
            .zip(&base)
            .skip(1)
            .chain(new_paths.iter().zip(&new));
        for (path, r) in paths {
            if field(r, "seed")? != field(reference, "seed")? {
                continue;
            }
            let (digest, exact) = simulated(r)?;
            if digest != ref_digest {
                diffs.push(format!(
                    "{}: digest {ref_digest} -> {digest}",
                    path.display()
                ));
            }
            for key in ref_exact
                .keys()
                .chain(exact.keys())
                .collect::<BTreeSet<_>>()
            {
                if ref_exact.get(key) != exact.get(key) {
                    let (a, b) = (ref_exact.get(key), exact.get(key));
                    diffs.push(format!("{}: {key} {a:?} -> {b:?}", path.display()));
                }
            }
        }
        if diffs.is_empty() {
            println!(
                "{name:<14} digest and {} simulated values identical",
                ref_exact.len()
            );
        } else {
            differences += diffs.len();
            for d in diffs {
                println!("{name:<14} differs: {d}");
            }
        }
    }
    println!("{worse} metric(s) worse than their bound, {differences} simulated value(s) differ");
    Ok(if worse > 0 || differences > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_rep() -> Rep {
        Rep {
            ops: 1,
            failed_ops: 0,
            digest: "fnv64:0".to_owned(),
            setup_s: 0.001,
            cpu_s: 1.0,
            wall_s: 1.1,
            peak_rss_mib: 10.0,
            cycles: 5_000_000,
            exact: Metrics::new(),
            layers: Metrics::new(),
        }
    }

    #[test]
    fn host_times_are_scaled_and_the_fastest_rep_is_reported() {
        let cat = catalogue().expect("BENCHMARK.json parses");
        let def = |n: &str| {
            cat.end_to_end
                .iter()
                .find(|d| d.name == n)
                .expect("listed")
                .clone()
        };
        let speed = HostSpeed {
            measured: [(1, vec![0.12, 0.09, 0.1]), (2, vec![0.2])].into(),
        };
        assert_eq!(speed.fastest_s(1), 0.09);
        assert_eq!(speed.fastest_s(2), 0.2);
        let scale = speed.scale(1);
        assert!((scale - REFERENCE_NOMINAL_S / 0.09).abs() < 1e-12);
        let reps: Vec<Rep> = [(0.9, 3e-4), (0.6, 1e-4), (1.2, 2e-4)]
            .iter()
            .map(|&(cpu_s, setup_s)| Rep {
                cpu_s,
                setup_s,
                ..fake_rep()
            })
            .collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b.abs();
        let (cpu, samples) = end_to_end(&def("cpu_s"), &reps, scale).expect("measured");
        assert!(close(cpu, 0.6 * scale), "the fastest rep, scaled: {cpu}");
        assert_eq!(samples.len(), 3);
        let (rate, _) = end_to_end(&def("sim_mcycles_per_s"), &reps, scale).expect("measured");
        assert!(
            close(rate, 5.0 / (0.6 * scale)),
            "the fastest rep's rate: {rate}"
        );
        let (setup, _) = end_to_end(&def("setup_s"), &reps, scale).expect("measured");
        assert!(
            close(setup, 2e-4 * scale),
            "the median set-up, scaled: {setup}"
        );
        let (rss, _) = end_to_end(&def("peak_rss_mib"), &reps, scale).expect("measured");
        assert_eq!(rss, 10.0, "memory is not scaled");
    }

    #[test]
    fn benchmark_json_parses_and_every_end_to_end_metric_is_measured() {
        let cat = catalogue().expect("BENCHMARK.json parses");
        assert!(cat.per_layer.len() < 128);
        for def in &cat.end_to_end {
            assert!(
                def.bound > 0.0 && def.bound <= 0.25,
                "{} bound {}",
                def.name,
                def.bound
            );
            let (value, _) = end_to_end(def, &[fake_rep()], 1.0)
                .unwrap_or_else(|| panic!("{} is not measured", def.name));
            assert!(value > 0.0, "{} must never read 0", def.name);
        }
        assert!(cat.run_seconds > 0);
        let names = cat
            .end_to_end
            .iter()
            .chain(&cat.per_layer)
            .map(|d| d.name.as_str());
        let mut seen = BTreeSet::new();
        for name in names {
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let Ok(Mode::Run(r)) = parse_args(&args(
            "--workload chase_mlp1,stream_x4 --seed 7 --seconds 3 --trace 1",
        )) else {
            panic!("a run");
        };
        assert_eq!(r.workloads, vec![Workload::ChaseMlp1, Workload::StreamX4]);
        assert_eq!((r.seed, r.seconds, r.trace), (7, Some(3), true));
        assert!(matches!(
            parse_args(&args("--rep capacity_x15 --seed 2")),
            Ok(Mode::Rep { seed: 2, .. })
        ));
        let Ok(Mode::Compare(base, new)) = parse_args(&args("--compare a.json,b.json c.json"))
        else {
            panic!("a comparison");
        };
        assert_eq!((base.len(), new.len()), (2, 1));
        assert!(matches!(
            parse_args(&args("--reference 2")),
            Ok(Mode::Reference { threads: 2 })
        ));
        for bad in ["--workload nope", "--trace 2", "--seed", "--bogus"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} must be refused");
        }
    }
}
