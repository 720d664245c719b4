//! `mitts-trace` — summarize a JSONL trace written by the simulator's
//! observability layer (`SystemBuilder::trace_sink` + `JsonlSink`, or a
//! `RingSink` whose events are written out with `to_json_line`).
//!
//! Prints top stall reasons per core, the shaper-grant bin histogram
//! against the configured credits, p50/p95/p99 latency decomposition by
//! pipeline stage, and the throttling-episode timeline — then
//! cross-checks that the per-stage sums telescope exactly to the run's
//! `mem_latency_sum`. Exits 1 if the cross-check fails, 2 on usage or
//! parse errors.

use std::fs::File;
use std::io::{BufReader, Write as _};

use mitts_bench::tracetool::summarize;

const USAGE: &str = "usage: mitts-trace [--json] <trace.jsonl>

Summarizes a mitts simulator JSONL trace: stall reasons per core,
shaper-grant bin histogram, per-stage latency percentiles, and the
throttling-episode timeline. With --json the same summary is emitted
as one JSON object instead of text. Exits non-zero if the per-stage
latency sums do not telescope to the trace's run_summary
mem_latency_sum.";

fn main() {
    let mut json = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            "--json" => json = true,
            other if path.is_none() => path = Some(other.to_owned()),
            other => {
                eprintln!("mitts-trace: unexpected argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let file = File::open(&path).unwrap_or_else(|e| {
        eprintln!("mitts-trace: cannot open {path}: {e}");
        std::process::exit(2);
    });
    let summary = summarize(BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("mitts-trace: {path}: {e}");
        std::process::exit(2);
    });
    // Write without panicking on a closed pipe (`mitts-trace ... | head`).
    let mut out = std::io::stdout().lock();
    if json {
        let _ = writeln!(out, "{}", summary.to_json());
        // Same health contract as the text mode: a broken telescoping
        // cross-check is a non-zero exit, whatever the output format.
        if let Err(e) = summary.crosscheck() {
            eprintln!("crosscheck FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    let _ = write!(out, "{}", summary.render());
    match summary.crosscheck() {
        Ok(Some(())) => {
            let _ = writeln!(out, "crosscheck: OK — stage sums telescope to mem_latency_sum");
        }
        Ok(None) => {
            let _ = writeln!(out, "crosscheck: skipped (trace has no run_summary record)");
        }
        Err(e) => {
            eprintln!("crosscheck FAILED: {e}");
            std::process::exit(1);
        }
    }
}
