//! The trace-event taxonomy: one variant per observable step of a memory
//! request's lifecycle, plus sampler rows and hardening diagnostics.
//!
//! Events are plain data (`Clone + PartialEq`) so equivalence tests can
//! compare whole streams with `==`, and each serializes to a single JSONL
//! object via [`TraceEvent::to_json_line`] (the format `mitts-trace` and
//! the Chrome exporter consume).

use std::fmt::Write as _;

use crate::dram::{DramServiceTiming, RowOutcome};
use crate::histogram::LatencyBuckets;
use crate::obs::json::push_escaped;
use crate::types::{Addr, Cycle};

/// Why a core's demand-issue stage is blocked (the head of its miss
/// queue cannot reach the LLC). Mirrors the system's issue outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The source shaper denied the request (no eligible bin credit).
    Shaper,
    /// A source throttle (inflight cap / issue gap) blocked it.
    Throttle,
    /// An injected fault forced the denial.
    Fault,
    /// The shared LLC ports were exhausted before this core's turn.
    Ports,
    /// The memory-controller smoothing FIFO for the head's channel was
    /// full (backpressure reached the issue stage).
    Backpressure,
}

impl StallReason {
    /// Stable lowercase label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            StallReason::Shaper => "shaper",
            StallReason::Throttle => "throttle",
            StallReason::Fault => "fault",
            StallReason::Ports => "ports",
            StallReason::Backpressure => "backpressure",
        }
    }
}

/// Number of pipeline stages in a latency decomposition.
pub const STAGE_COUNT: usize = 5;

/// Stable stage names, in pipeline order.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = ["shaper", "llc", "mc_queue", "dram", "fill"];

/// Per-stage latency decomposition of one completed request. Stages are
/// computed from monotonized stamps (each stage start is clamped to the
/// previous stage's end), so they always telescope:
/// `shaper + llc + mc_queue + dram + fill == fill_at - l1_miss_at`,
/// which is exactly the latency the core adds to `mem_latency_sum`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatency {
    /// L1 miss (MSHR allocation) → shaper grant: miss-queue wait plus
    /// shaper/throttle stalls.
    pub shaper: u64,
    /// Grant → LLC hit/miss resolution (port + LLC pipeline).
    pub llc: u64,
    /// LLC miss → DRAM dispatch (controller FIFO + transaction queue).
    pub mc_queue: u64,
    /// Dispatch → end of data burst (ACT/column/precharge + bus).
    pub dram: u64,
    /// Data available → L1 fill delivered (response plumbing).
    pub fill: u64,
}

impl StageLatency {
    /// Total end-to-end latency (sum of all stages).
    pub fn total(&self) -> u64 {
        self.shaper + self.llc + self.mc_queue + self.dram + self.fill
    }
}

/// One time-series sample for one core (deltas since the previous sample
/// boundary, except `credits` which is an instantaneous snapshot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreSampleRow {
    /// Core index.
    pub core: usize,
    /// Instructions retired this epoch (IPC = instructions / interval).
    pub instructions: u64,
    /// Cycles the ROB head was blocked on memory this epoch.
    pub mem_stall: u64,
    /// Cycles the shaper held back a ready request this epoch.
    pub shaper_stall: u64,
    /// L1 MSHR allocations this epoch.
    pub l1_misses: u64,
    /// LLC demand misses this epoch.
    pub llc_misses: u64,
    /// L1 fills delivered this epoch.
    pub fills: u64,
    /// Instantaneous (live, max) credits per shaper bin.
    pub credits: Vec<(u32, u32)>,
    /// End-to-end memory latencies of this epoch's fills: the epoch's
    /// share of the core's `mem_latency` histogram. Kept in memory only;
    /// the JSONL `sample` line does not carry it.
    pub latency: LatencyBuckets,
}

/// One time-series sample for one memory channel (deltas since the
/// previous boundary; queue depths are instantaneous).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelSampleRow {
    /// Memory-channel index.
    pub channel: usize,
    /// Transactions dispatched to DRAM this epoch.
    pub dispatched: u64,
    /// Data-bus busy cycles this epoch (bus utilization = busy / interval).
    pub busy_bus: u64,
    /// Bytes transferred this epoch.
    pub bytes: u64,
    /// Row-buffer hits this epoch.
    pub row_hits: u64,
    /// Row-buffer misses (bank idle) this epoch.
    pub row_misses: u64,
    /// Row-buffer conflicts (another row open) this epoch.
    pub row_conflicts: u64,
    /// Instantaneous scheduling-queue depth at the boundary.
    pub queue_len: usize,
    /// Instantaneous smoothing-FIFO depth at the boundary.
    pub fifo_len: usize,
}

/// One sampler epoch: everything measured at one sampling boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleRow {
    /// The boundary cycle (a multiple of the sampling interval).
    pub at: Cycle,
    /// Boundary index (1 for the first boundary after cycle 0).
    pub epoch: u64,
    /// One row per core.
    pub cores: Vec<CoreSampleRow>,
    /// One row per memory channel.
    pub channels: Vec<ChannelSampleRow>,
}

/// One trace event. `at` stamps are simulation cycles; all events are
/// emitted on real ticks, so naive and fast-forward runs of the same
/// workload produce identical streams.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Shaper configuration of one core at build (or reconfiguration)
    /// time: name plus (live, max) credits per bin.
    ShaperConfig {
        /// Cycle stamp.
        at: Cycle,
        /// Core index.
        core: usize,
        /// Shaper implementation name.
        shaper: String,
        /// (live, max) credits per inter-arrival bin.
        bins: Vec<(u32, u32)>,
    },
    /// An L1 miss allocated an MSHR and entered the miss queue.
    L1Miss {
        /// Cycle stamp.
        at: Cycle,
        /// Core index.
        core: usize,
        /// Line address.
        line: Addr,
    },
    /// The source shaper granted the miss-queue head.
    ShaperGrant {
        /// Cycle stamp.
        at: Cycle,
        /// Core index.
        core: usize,
        /// Line address.
        line: Addr,
        /// The winning inter-arrival bin (the `ShapeToken`).
        bin: u32,
    },
    /// The LLC resolved a demand lookup.
    LlcLookup {
        /// Cycle stamp.
        at: Cycle,
        /// Core index.
        core: usize,
        /// Line address.
        line: Addr,
        /// Whether the lookup hit in the LLC.
        hit: bool,
    },
    /// A transaction entered a memory controller's FIFO.
    McEnqueue {
        /// Cycle stamp.
        at: Cycle,
        /// Memory-channel index.
        channel: usize,
        /// Requesting core index.
        core: usize,
        /// Line address.
        line: Addr,
        /// Whether the transaction is a write (eviction writeback).
        write: bool,
    },
    /// The controller dispatched a transaction to DRAM, with the derived
    /// command timing (ACT/column/precharge fences, data burst window).
    DramDispatch {
        /// Cycle stamp.
        at: Cycle,
        /// Memory-channel index.
        channel: usize,
        /// Requesting core index.
        core: usize,
        /// Line address.
        line: Addr,
        /// Whether the transaction is a write.
        write: bool,
        /// Derived DRAM command timing for the service.
        timing: DramServiceTiming,
    },
    /// A fill reached the requesting core's L1: the end of a request
    /// lifecycle, carrying the full per-stage latency decomposition.
    Fill {
        /// Cycle stamp.
        at: Cycle,
        /// Core index.
        core: usize,
        /// Line address.
        line: Addr,
        /// Per-stage latency decomposition (telescopes to `at - miss_at`).
        lat: StageLatency,
    },
    /// A throttling episode began on a core (the miss-queue head became
    /// blocked for `reason`). Emitted on the transition only.
    StallBegin {
        /// Cycle stamp.
        at: Cycle,
        /// Core index.
        core: usize,
        /// Why the head is blocked.
        reason: StallReason,
    },
    /// The episode that began at `since` ended (grant, or reason change).
    StallEnd {
        /// Cycle stamp.
        at: Cycle,
        /// Core index.
        core: usize,
        /// The reason the now-ended episode was blocked for.
        reason: StallReason,
        /// Cycle the episode began (its `StallBegin` stamp).
        since: Cycle,
    },
    /// One sampler epoch.
    Sample(SampleRow),
    /// An invariant-auditor violation (mirrors the auditor's log entry).
    AuditViolation {
        /// Cycle stamp.
        at: Cycle,
        /// Core the violation is attributed to, if any.
        core: Option<usize>,
        /// Violated invariant's name (`Debug` form).
        invariant: String,
        /// Human-readable details from the auditor.
        detail: String,
    },
    /// The forward-progress watchdog declared the system stalled.
    StallDetected {
        /// Cycle stamp (detection time).
        at: Cycle,
        /// Last cycle the system made forward progress.
        since: Cycle,
    },
    /// A fault-injection plan was installed.
    FaultInjected {
        /// Cycle stamp.
        at: Cycle,
        /// `Debug` rendering of the installed plan.
        detail: String,
    },
    /// End-of-run summary written by [`crate::system::System::flush_trace`];
    /// lets consumers cross-check their decomposition sums.
    RunSummary {
        /// Final simulation cycle.
        cycles: Cycle,
        /// Sum of end-to-end miss latencies across all cores.
        mem_latency_sum: u64,
        /// Number of completed misses across all cores.
        mem_latency_count: u64,
    },
}

impl TraceEvent {
    /// Stable type tag used as the `"ev"` field in JSON output.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ShaperConfig { .. } => "shaper_config",
            TraceEvent::L1Miss { .. } => "l1_miss",
            TraceEvent::ShaperGrant { .. } => "shaper_grant",
            TraceEvent::LlcLookup { .. } => "llc_lookup",
            TraceEvent::McEnqueue { .. } => "mc_enqueue",
            TraceEvent::DramDispatch { .. } => "dram_dispatch",
            TraceEvent::Fill { .. } => "fill",
            TraceEvent::StallBegin { .. } => "stall_begin",
            TraceEvent::StallEnd { .. } => "stall_end",
            TraceEvent::Sample(_) => "sample",
            TraceEvent::AuditViolation { .. } => "audit_violation",
            TraceEvent::StallDetected { .. } => "stall_detected",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::RunSummary { .. } => "run_summary",
        }
    }

    /// The event's cycle stamp (`RunSummary` reports the final cycle).
    pub fn at(&self) -> Cycle {
        match self {
            TraceEvent::ShaperConfig { at, .. }
            | TraceEvent::L1Miss { at, .. }
            | TraceEvent::ShaperGrant { at, .. }
            | TraceEvent::LlcLookup { at, .. }
            | TraceEvent::McEnqueue { at, .. }
            | TraceEvent::DramDispatch { at, .. }
            | TraceEvent::Fill { at, .. }
            | TraceEvent::StallBegin { at, .. }
            | TraceEvent::StallEnd { at, .. }
            | TraceEvent::AuditViolation { at, .. }
            | TraceEvent::StallDetected { at, .. }
            | TraceEvent::FaultInjected { at, .. } => *at,
            TraceEvent::Sample(row) => row.at,
            TraceEvent::RunSummary { cycles, .. } => *cycles,
        }
    }

    /// Serializes the event as one JSONL object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"ev\":\"{}\"", self.kind());
        match self {
            TraceEvent::ShaperConfig { at, core, shaper, bins } => {
                let _ = write!(s, ",\"at\":{at},\"core\":{core},\"shaper\":");
                push_escaped(&mut s, shaper);
                s.push_str(",\"bins\":[");
                for (i, (live, max)) in bins.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "[{live},{max}]");
                }
                s.push(']');
            }
            TraceEvent::L1Miss { at, core, line } => {
                let _ = write!(s, ",\"at\":{at},\"core\":{core},\"line\":{line}");
            }
            TraceEvent::ShaperGrant { at, core, line, bin } => {
                let _ =
                    write!(s, ",\"at\":{at},\"core\":{core},\"line\":{line},\"bin\":{bin}");
            }
            TraceEvent::LlcLookup { at, core, line, hit } => {
                let _ =
                    write!(s, ",\"at\":{at},\"core\":{core},\"line\":{line},\"hit\":{hit}");
            }
            TraceEvent::McEnqueue { at, channel, core, line, write } => {
                let _ = write!(
                    s,
                    ",\"at\":{at},\"channel\":{channel},\"core\":{core},\
                     \"line\":{line},\"write\":{write}"
                );
            }
            TraceEvent::DramDispatch { at, channel, core, line, write, timing } => {
                let _ = write!(
                    s,
                    ",\"at\":{at},\"channel\":{channel},\"core\":{core},\
                     \"line\":{line},\"write\":{write},\"bank\":{},\"row\":{},\
                     \"outcome\":\"{}\"",
                    timing.bank,
                    timing.row,
                    timing.outcome.label()
                );
                if let Some(act) = timing.act_at {
                    let _ = write!(s, ",\"act_at\":{act}");
                }
                if let Some(pre) = timing.pre_at {
                    let _ = write!(s, ",\"pre_at\":{pre}");
                }
                let _ = write!(
                    s,
                    ",\"col_at\":{},\"data_start\":{},\"data_end\":{}",
                    timing.col_at, timing.data_start, timing.data_end
                );
            }
            TraceEvent::Fill { at, core, line, lat } => {
                let _ = write!(
                    s,
                    ",\"at\":{at},\"core\":{core},\"line\":{line},\
                     \"shaper\":{},\"llc\":{},\"mc_queue\":{},\"dram\":{},\"fill\":{}",
                    lat.shaper, lat.llc, lat.mc_queue, lat.dram, lat.fill
                );
            }
            TraceEvent::StallBegin { at, core, reason } => {
                let _ = write!(
                    s,
                    ",\"at\":{at},\"core\":{core},\"reason\":\"{}\"",
                    reason.label()
                );
            }
            TraceEvent::StallEnd { at, core, reason, since } => {
                let _ = write!(
                    s,
                    ",\"at\":{at},\"core\":{core},\"reason\":\"{}\",\"since\":{since}",
                    reason.label()
                );
            }
            TraceEvent::Sample(row) => {
                let _ = write!(s, ",\"at\":{},\"epoch\":{},\"cores\":[", row.at, row.epoch);
                for (i, c) in row.cores.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"core\":{},\"instructions\":{},\"mem_stall\":{},\
                         \"shaper_stall\":{},\"l1_misses\":{},\"llc_misses\":{},\
                         \"fills\":{},\"credits\":[",
                        c.core,
                        c.instructions,
                        c.mem_stall,
                        c.shaper_stall,
                        c.l1_misses,
                        c.llc_misses,
                        c.fills
                    );
                    for (j, (live, max)) in c.credits.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "[{live},{max}]");
                    }
                    s.push_str("]}");
                }
                s.push_str("],\"channels\":[");
                for (i, ch) in row.channels.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"channel\":{},\"dispatched\":{},\"busy_bus\":{},\
                         \"bytes\":{},\"row_hits\":{},\"row_misses\":{},\
                         \"row_conflicts\":{},\"queue_len\":{},\"fifo_len\":{}}}",
                        ch.channel,
                        ch.dispatched,
                        ch.busy_bus,
                        ch.bytes,
                        ch.row_hits,
                        ch.row_misses,
                        ch.row_conflicts,
                        ch.queue_len,
                        ch.fifo_len
                    );
                }
                s.push(']');
            }
            TraceEvent::AuditViolation { at, core, invariant, detail } => {
                let _ = write!(s, ",\"at\":{at}");
                if let Some(c) = core {
                    let _ = write!(s, ",\"core\":{c}");
                }
                s.push_str(",\"invariant\":");
                push_escaped(&mut s, invariant);
                s.push_str(",\"detail\":");
                push_escaped(&mut s, detail);
            }
            TraceEvent::StallDetected { at, since } => {
                let _ = write!(s, ",\"at\":{at},\"since\":{since}");
            }
            TraceEvent::FaultInjected { at, detail } => {
                let _ = write!(s, ",\"at\":{at},\"detail\":");
                push_escaped(&mut s, detail);
            }
            TraceEvent::RunSummary { cycles, mem_latency_sum, mem_latency_count } => {
                let _ = write!(
                    s,
                    ",\"cycles\":{cycles},\"mem_latency_sum\":{mem_latency_sum},\
                     \"mem_latency_count\":{mem_latency_count}"
                );
            }
        }
        s.push('}');
        s
    }
}

impl RowOutcome {
    /// Stable lowercase label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            RowOutcome::Hit => "hit",
            RowOutcome::Miss => "miss",
            RowOutcome::Conflict => "conflict",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::{parse, JsonValue};

    #[test]
    fn every_variant_serializes_to_parseable_json() {
        let events = vec![
            TraceEvent::ShaperConfig {
                at: 0,
                core: 1,
                shaper: "mitts \"quoted\"".to_owned(),
                bins: vec![(3, 12), (0, 8)],
            },
            TraceEvent::L1Miss { at: 5, core: 0, line: 0x1000 },
            TraceEvent::ShaperGrant { at: 7, core: 0, line: 0x1000, bin: 3 },
            TraceEvent::LlcLookup { at: 27, core: 0, line: 0x1000, hit: false },
            TraceEvent::McEnqueue { at: 27, channel: 0, core: 0, line: 0x1000, write: false },
            TraceEvent::DramDispatch {
                at: 30,
                channel: 0,
                core: 0,
                line: 0x1000,
                write: false,
                timing: DramServiceTiming {
                    bank: 2,
                    row: 11,
                    outcome: RowOutcome::Conflict,
                    act_at: Some(40),
                    pre_at: Some(31),
                    col_at: 49,
                    data_start: 55,
                    data_end: 59,
                },
            },
            TraceEvent::Fill {
                at: 70,
                core: 0,
                line: 0x1000,
                lat: StageLatency { shaper: 2, llc: 20, mc_queue: 3, dram: 29, fill: 11 },
            },
            TraceEvent::StallBegin { at: 80, core: 2, reason: StallReason::Shaper },
            TraceEvent::StallEnd { at: 95, core: 2, reason: StallReason::Shaper, since: 80 },
            TraceEvent::Sample(SampleRow {
                at: 128,
                epoch: 1,
                cores: vec![CoreSampleRow {
                    core: 0,
                    instructions: 64,
                    mem_stall: 30,
                    shaper_stall: 10,
                    l1_misses: 4,
                    llc_misses: 2,
                    fills: 3,
                    credits: vec![(1, 12)],
                    latency: Default::default(),
                }],
                channels: vec![ChannelSampleRow {
                    channel: 0,
                    dispatched: 2,
                    busy_bus: 8,
                    bytes: 128,
                    row_hits: 1,
                    row_misses: 1,
                    row_conflicts: 0,
                    queue_len: 3,
                    fifo_len: 1,
                }],
            }),
            TraceEvent::AuditViolation {
                at: 256,
                core: Some(1),
                invariant: "MshrLeak".to_owned(),
                detail: "line \\ with\nnewline".to_owned(),
            },
            TraceEvent::StallDetected { at: 300, since: 100 },
            TraceEvent::FaultInjected { at: 1, detail: "drop responses".to_owned() },
            TraceEvent::RunSummary { cycles: 400, mem_latency_sum: 6500, mem_latency_count: 65 },
        ];
        for ev in &events {
            let line = ev.to_json_line();
            let v = parse(&line).unwrap_or_else(|e| panic!("bad JSON for {ev:?}: {e}\n{line}"));
            assert_eq!(
                v.get("ev").and_then(JsonValue::as_str),
                Some(ev.kind()),
                "kind mismatch in {line}"
            );
        }
    }

    #[test]
    fn stage_latency_telescopes() {
        let lat = StageLatency { shaper: 5, llc: 20, mc_queue: 7, dram: 31, fill: 2 };
        assert_eq!(lat.total(), 65);
    }

    #[test]
    fn string_fields_round_trip_through_jsonl() {
        let detail = "quote \" backslash \\ newline \n tab \t bell \u{7} done";
        let ev = TraceEvent::FaultInjected { at: 9, detail: detail.to_owned() };
        let v = parse(&ev.to_json_line()).expect("parse");
        assert_eq!(v.get("detail").and_then(JsonValue::as_str), Some(detail));
    }
}
