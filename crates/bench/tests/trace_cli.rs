//! End-to-end gate over the `mitts-trace` CLI: trace a shaped
//! four-program mix into a flight-recorder ring, write it out as JSONL,
//! and require the tool to summarize it healthily in both output modes —
//! the per-stage latency decomposition must telescope exactly to the
//! run's `mem_latency_sum`. The same run's Chrome trace must parse back.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::rc::Rc;

use mitts_bench::runner::{base_for, REPLENISH_PERIOD};
use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sched::make_baseline;
use mitts_sim::config::{CacheConfig, SystemConfig};
use mitts_sim::obs::json::{parse, JsonValue};
use mitts_sim::obs::{write_chrome_trace, RingSink, TrackLayout};
use mitts_sim::system::SystemBuilder;
use mitts_workloads::Benchmark;

/// Small LLC so the traces reach DRAM; sparse audits, as long runs use.
fn mix_config() -> SystemConfig {
    let mut cfg = SystemConfig::multi_program(4);
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    cfg.hardening.audit.interval = 4096;
    cfg
}

/// Runs the shaped mix (a MITTS shaper on the libquantum hog) with
/// lifecycle tracing and periodic sampling into a ring sink. Returns the
/// JSONL trace and the rendered Chrome trace.
fn traced_mix() -> (String, Vec<u8>) {
    let cfg = mix_config();
    let benches = [Benchmark::Libquantum, Benchmark::Mcf, Benchmark::Gcc, Benchmark::Omnetpp];
    let mut credits = vec![0u32; BinSpec::paper_default().bins()];
    credits[3] = 12;
    credits[7] = 8;
    let shaper = BinConfig::new(BinSpec::paper_default(), credits, REPLENISH_PERIOD).unwrap();
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    let mut b = SystemBuilder::new(cfg.clone())
        .scheduler(make_baseline("FR-FCFS", 4).expect("known scheduler"))
        .shaper(0, Rc::new(RefCell::new(MittsShaper::new(shaper))) as _)
        .trace_sink(Box::new(Rc::clone(&sink)))
        .sample_every(2048);
    for (i, bench) in benches.iter().enumerate() {
        b = b.trace(i, Box::new(bench.profile().trace(base_for(i), 0x3117 + i as u64)));
    }
    let mut sys = b.build();
    let _ = sys.run_until_instructions(4_000, 1_000_000);
    sys.flush_trace();

    let ring = sink.borrow();
    assert_eq!(ring.dropped(), 0, "the trace overflowed its ring sink");
    let mut jsonl = String::with_capacity(ring.len() * 96);
    for ev in ring.events() {
        jsonl.push_str(&ev.to_json_line());
        jsonl.push('\n');
    }
    let layout = TrackLayout { cores: 4, channels: cfg.mc.channels, banks: cfg.dram.banks };
    let mut chrome = Vec::new();
    write_chrome_trace(&ring.to_vec(), &layout, &mut chrome).expect("render chrome trace");
    (jsonl, chrome)
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mitts-trace-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mitts_trace(args: &[&str], trace: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mitts-trace"))
        .args(args)
        .arg(trace)
        .output()
        .expect("spawn mitts-trace")
}

fn assert_exit_ok(out: &Output, mode: &str) {
    assert!(
        out.status.success(),
        "mitts-trace {mode} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn mitts_trace_summarizes_a_shaped_mix_healthily_in_both_modes() {
    let (jsonl, chrome) = traced_mix();
    let dir = scratch();
    let trace = dir.join("mix.trace.jsonl");
    std::fs::write(&trace, &jsonl).unwrap();

    let text = mitts_trace(&[], &trace);
    assert_exit_ok(&text, "text");
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(stdout.contains("crosscheck: OK"), "text summary is not healthy:\n{stdout}");

    let json = mitts_trace(&["--json"], &trace);
    assert_exit_ok(&json, "--json");
    let doc = String::from_utf8(json.stdout).expect("--json output is UTF-8");
    let summary = parse(doc.trim_end()).expect("--json emits one JSON document");
    assert_eq!(
        summary.get("crosscheck").and_then(JsonValue::as_str),
        Some("ok"),
        "--json summary is not healthy: {doc}"
    );

    let chrome = String::from_utf8(chrome).expect("chrome trace is UTF-8");
    parse(&chrome).expect("the chrome trace of the same run parses back");
    let _ = std::fs::remove_dir_all(&dir);
}
