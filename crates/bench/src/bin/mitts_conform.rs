//! Conformance checker: runs simulations under the differential oracles
//! (§III shaper spec, DDR3 timing legality, FR-FCFS pick legality) plus
//! the runtime invariant auditor, and verifies the oracles themselves by
//! seeded mutation.
//!
//! ```text
//! mitts-conform [--smoke] [--seed N] [--fuzz N]
//! ```
//!
//! * `--smoke` — quick gate for CI: all mutation checks, a short fuzz
//!   campaign, and a subset of the workload suite and of the engine
//!   differential (naive vs skip, byte-diffed).
//! * default (full) — all mutation checks, >=120 fuzzed configurations,
//!   the complete 16-workload suite, and the full engine differential.
//! * `--seed N` — override the fuzz campaign seed (default 1).
//! * `--fuzz N` — override the number of fuzzed cases.
//!
//! Exits non-zero on any oracle violation or any undetected mutation and
//! prints a minimal (shrunk) reproduction.
//!
//! The first Ctrl-C finishes the phase in flight, reports what has been
//! checked so far, and exits 130; a second Ctrl-C aborts immediately.

use std::process::ExitCode;

use mitts_bench::conform::{
    engine_differential_checks, mutation_checks, run_fuzz, workload_checks,
};
use mitts_bench::signal;

struct Args {
    smoke: bool,
    seed: u64,
    fuzz_cases: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { smoke: false, seed: 1, fuzz_cases: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?;
            }
            "--fuzz" => {
                let v = it.next().ok_or("--fuzz needs a value")?;
                args.fuzz_cases =
                    Some(v.parse().map_err(|e| format!("bad --fuzz {v:?}: {e}"))?);
            }
            "--help" | "-h" => {
                println!("usage: mitts-conform [--smoke] [--seed N] [--fuzz N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Graceful stop between phases: report how far we got and exit 130.
fn stop_if_interrupted(after_phase: &str) {
    if signal::interrupted() {
        eprintln!(
            "\nmitts-conform: interrupted after the {after_phase} phase; \
             later phases were not run (press Ctrl-C twice to abort mid-phase)"
        );
        std::process::exit(130);
    }
}

fn main() -> ExitCode {
    signal::install_sigint_handler();
    if let Some(plan) = mitts_sim::fsio::init_from_env() {
        eprintln!(
            "[storage fault injection armed: seed {} rate {}permille]",
            plan.seed, plan.rate_permille
        );
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mitts-conform: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;

    // 1. Mutation checks: every seeded perturbation must be detected.
    println!("== mutation checks (oracle sensitivity) ==");
    for r in mutation_checks() {
        let status = if r.detected { "detected" } else { "MISSED" };
        println!("  [{:>6}] {:<48} {} ({} violations)", r.oracle, r.name, status, r.violations);
        if !r.detected {
            failed = true;
        }
    }

    stop_if_interrupted("mutation-check");

    // 2. Fuzz campaign.
    let cases = args.fuzz_cases.unwrap_or(if args.smoke { 25 } else { 120 });
    println!("\n== fuzz campaign (seed {}, {} cases) ==", args.seed, cases);
    match run_fuzz(args.seed, cases, |i, stats| {
        if (i + 1) % 25 == 0 || i + 1 == cases {
            println!(
                "  {}/{} cases clean ({} grants, {} denied cycles, {} dispatches, {} picks, {} netcalc grants checked)",
                i + 1,
                cases,
                stats.grants_checked,
                stats.denied_cycles_checked,
                stats.dispatches_checked,
                stats.picks_checked,
                stats.netcalc_grants_checked
            );
        }
    }) {
        Ok(stats) => {
            println!(
                "  all {} cases clean; totals: {} grants, {} denied cycles, {} dispatches, {} picks, {} netcalc grants, {} stall episodes",
                stats.cases,
                stats.grants_checked,
                stats.denied_cycles_checked,
                stats.dispatches_checked,
                stats.picks_checked,
                stats.netcalc_grants_checked,
                stats.stall_episodes_checked
            );
        }
        Err(f) => {
            failed = true;
            eprintln!("  FUZZ FAILURE at case {} (seed {}):", f.index, f.seed);
            eprintln!("  original case:\n{}", indent(&f.original.to_string()));
            eprintln!("  shrunk reproduction:\n{}", indent(&f.shrunk.to_string()));
            for v in &f.violations {
                eprintln!("    violation @{} [{:?}] core {:?}: {}", v.at, v.oracle, v.core, v.detail);
            }
            if let Some(d) = &f.engine_divergence {
                eprintln!("    engine divergence:\n{}", indent(d));
            }
        }
    }

    stop_if_interrupted("fuzz");

    // 3. Workload suite.
    let (cycles, label) = if args.smoke { (20_000, "subset") } else { (60_000, "full") };
    println!("\n== workload suite ({label}) ==");
    let checks = workload_checks(cycles);
    let checks = if args.smoke { &checks[..4] } else { &checks[..] };
    for c in checks {
        let ok = c.report.clean();
        println!(
            "  {:<12} {} ({} grants, {} dispatches, {} picks checked, {} audit)",
            c.name,
            if ok { "clean" } else { "VIOLATIONS" },
            c.report.grants_checked,
            c.report.dispatches_checked,
            c.report.picks_checked,
            c.report.audit_violations
        );
        if !ok {
            failed = true;
            for v in &c.report.violations {
                eprintln!("    violation @{} [{:?}] core {:?}: {}", v.at, v.oracle, v.core, v.detail);
            }
        }
    }

    stop_if_interrupted("workload-suite");

    // 4. Engine differential: the same suite cases under both
    //    execution engines, byte-diffed against the naive reference
    //    (stats digest, audit log, shaper grant ledgers).
    println!("\n== engine differential (naive vs skip, {label}) ==");
    let suite = mitts_workloads::Benchmark::ALL;
    let suite = if args.smoke { &suite[..4] } else { &suite[..] };
    for (name, result) in engine_differential_checks(cycles, suite) {
        match result {
            Ok(()) => println!("  {name:<12} byte-identical across engines"),
            Err(d) => {
                failed = true;
                eprintln!("  {name:<12} ENGINE DIVERGENCE:\n{}", indent(&d));
            }
        }
    }

    stop_if_interrupted("engine-differential");

    // 5. Capacity/metrics differential: one fixed open-loop capacity
    //    probe across all engines × metrics-registry-on/off. Simulation
    //    results must be identical everywhere (the registry is a pure
    //    observer) and snapshot bytes engine-invariant within each
    //    metrics mode.
    println!("\n== capacity differential (engines x metrics on/off) ==");
    match mitts_bench::capacity::capacity_engine_checks() {
        Ok(()) => println!("  capacity probe byte-identical across engines and metrics modes"),
        Err(d) => {
            failed = true;
            eprintln!("  CAPACITY DIVERGENCE:\n{}", indent(&d));
        }
    }

    if failed {
        eprintln!("\nmitts-conform: FAILED");
        ExitCode::FAILURE
    } else {
        println!("\nmitts-conform: all checks passed");
        ExitCode::SUCCESS
    }
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}")).collect::<Vec<_>>().join("\n")
}
