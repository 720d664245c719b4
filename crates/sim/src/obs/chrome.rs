//! Chrome `trace_event` exporter: renders a trace-event stream as a JSON
//! document loadable in `chrome://tracing` / Perfetto.
//!
//! Track layout (process = subsystem, thread = unit):
//! * pid 1 "cores" — one thread per core: request lifecycles as async
//!   begin/end pairs (overlapping misses render as parallel arrows),
//!   throttling episodes as duration slices, sampler rows as counters.
//! * pid 2 "mc" — one thread per channel: enqueue instants and queue
//!   depth counters.
//! * pid 3 "dram" — one thread per (channel, bank): precharge/ACT/CAS
//!   wait and data-burst slices derived from each dispatch's command
//!   timing.
//!
//! Timestamps are simulation cycles written into the `ts` microsecond
//! field (1 cycle = 1 "µs"); relative structure is what matters. Records
//! are sorted by (pid, tid, ts) so every track's `ts` is monotone.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::obs::event::TraceEvent;
use crate::obs::json::push_escaped;

/// How many tracks of each kind to declare.
#[derive(Debug, Clone, Copy)]
pub struct TrackLayout {
    /// Core count (threads under the "cores" process).
    pub cores: usize,
    /// Memory-channel count (threads under the "mc" process).
    pub channels: usize,
    /// DRAM banks per channel.
    pub banks: usize,
}

const PID_CORES: u64 = 1;
const PID_MC: u64 = 2;
const PID_DRAM: u64 = 3;

struct Record {
    pid: u64,
    tid: u64,
    ts: u64,
    /// `ph:"M"` metadata sorts before real events on its track.
    meta: bool,
    json: String,
}

fn meta(pid: u64, tid: u64, name: &str, field: &str, value: &str) -> Record {
    let mut json = String::new();
    let _ = write!(json, "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"ts\":0,\"args\":{{\"name\":");
    push_escaped(&mut json, value);
    json.push_str("}}");
    let _ = field; // metadata args always use the "name" key
    Record { pid, tid, ts: 0, meta: true, json }
}

fn slice(pid: u64, tid: u64, name: &str, start: u64, end: u64, args: &str) -> Record {
    let dur = end.saturating_sub(start).max(1);
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"sim\",\
         \"ts\":{start},\"dur\":{dur}"
    );
    if !args.is_empty() {
        let _ = write!(json, ",\"args\":{{{args}}}");
    }
    json.push('}');
    Record { pid, tid, ts: start, meta: false, json }
}

fn instant(pid: u64, tid: u64, name: &str, ts: u64, args: &str) -> Record {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\
         \"cat\":\"sim\",\"ts\":{ts}"
    );
    if !args.is_empty() {
        let _ = write!(json, ",\"args\":{{{args}}}");
    }
    json.push('}');
    Record { pid, tid, ts, meta: false, json }
}

fn async_pair(
    pid: u64,
    tid: u64,
    name: &str,
    id: &str,
    start: u64,
    end: u64,
    args: &str,
) -> [Record; 2] {
    let mut b = String::new();
    let _ = write!(
        b,
        "{{\"ph\":\"b\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"req\",\
         \"id\":\"{id}\",\"ts\":{start}"
    );
    if !args.is_empty() {
        let _ = write!(b, ",\"args\":{{{args}}}");
    }
    b.push('}');
    let mut e = String::new();
    let _ = write!(
        e,
        "{{\"ph\":\"e\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"req\",\
         \"id\":\"{id}\",\"ts\":{end}}}"
    );
    [
        Record { pid, tid, ts: start, meta: false, json: b },
        Record { pid, tid, ts: end, meta: false, json: e },
    ]
}

fn counter(pid: u64, tid: u64, name: &str, ts: u64, args: &str) -> Record {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"ts\":{ts},\
         \"args\":{{{args}}}}}"
    );
    Record { pid, tid, ts, meta: false, json }
}

/// Writes `events` as one Chrome-trace JSON document.
pub fn write_chrome_trace<W: Write>(
    events: &[TraceEvent],
    layout: &TrackLayout,
    w: &mut W,
) -> io::Result<()> {
    let mut records = Vec::new();

    records.push(meta(PID_CORES, 0, "process_name", "name", "cores"));
    records.push(meta(PID_MC, 0, "process_name", "name", "mc"));
    records.push(meta(PID_DRAM, 0, "process_name", "name", "dram"));
    for c in 0..layout.cores {
        records.push(meta(PID_CORES, c as u64, "thread_name", "name", &format!("core {c}")));
    }
    for ch in 0..layout.channels {
        records.push(meta(PID_MC, ch as u64, "thread_name", "name", &format!("channel {ch}")));
        for b in 0..layout.banks {
            records.push(meta(
                PID_DRAM,
                (ch * layout.banks + b) as u64,
                "thread_name",
                "name",
                &format!("ch{ch} bank {b}"),
            ));
        }
    }

    let mut req_seq = 0u64;
    for ev in events {
        match ev {
            TraceEvent::Fill { at, core, line, lat } => {
                req_seq += 1;
                let start = at - lat.total();
                let args = format!(
                    "\"line\":{line},\"shaper\":{},\"llc\":{},\"mc_queue\":{},\
                     \"dram\":{},\"fill\":{}",
                    lat.shaper, lat.llc, lat.mc_queue, lat.dram, lat.fill
                );
                let id = format!("{line:x}.{req_seq}");
                records
                    .extend(async_pair(PID_CORES, *core as u64, "mem-req", &id, start, *at, &args));
            }
            TraceEvent::StallEnd { at, core, reason, since } => {
                records.push(slice(
                    PID_CORES,
                    *core as u64,
                    &format!("stall:{}", reason.label()),
                    *since,
                    *at,
                    "",
                ));
            }
            TraceEvent::McEnqueue { at, channel, core, line, write } => {
                records.push(instant(
                    PID_MC,
                    *channel as u64,
                    "enqueue",
                    *at,
                    &format!("\"core\":{core},\"line\":{line},\"write\":{write}"),
                ));
            }
            TraceEvent::DramDispatch { channel, line, timing, .. } => {
                let tid = (*channel * layout.banks + timing.bank) as u64;
                let args = format!("\"line\":{line},\"outcome\":\"{}\"", timing.outcome.label());
                if let (Some(pre), Some(act)) = (timing.pre_at, timing.act_at) {
                    if act > pre {
                        records.push(slice(PID_DRAM, tid, "pre", pre, act, &args));
                    }
                }
                if let Some(act) = timing.act_at {
                    if timing.col_at > act {
                        records.push(slice(PID_DRAM, tid, "act", act, timing.col_at, &args));
                    }
                }
                if timing.data_start > timing.col_at {
                    records.push(slice(
                        PID_DRAM,
                        tid,
                        "cas",
                        timing.col_at,
                        timing.data_start,
                        &args,
                    ));
                }
                records.push(slice(
                    PID_DRAM,
                    tid,
                    "burst",
                    timing.data_start,
                    timing.data_end,
                    &args,
                ));
            }
            TraceEvent::Sample(row) => {
                for c in &row.cores {
                    records.push(counter(
                        PID_CORES,
                        c.core as u64,
                        &format!("core{} activity", c.core),
                        row.at,
                        &format!(
                            "\"instructions\":{},\"mem_stall\":{},\"shaper_stall\":{}",
                            c.instructions, c.mem_stall, c.shaper_stall
                        ),
                    ));
                }
                for ch in &row.channels {
                    records.push(counter(
                        PID_MC,
                        ch.channel as u64,
                        &format!("mc{} depth", ch.channel),
                        row.at,
                        &format!("\"queue\":{},\"fifo\":{}", ch.queue_len, ch.fifo_len),
                    ));
                    records.push(counter(
                        PID_DRAM,
                        (ch.channel * layout.banks) as u64,
                        &format!("ch{} bus busy", ch.channel),
                        row.at,
                        &format!("\"busy_bus\":{}", ch.busy_bus),
                    ));
                }
            }
            TraceEvent::AuditViolation { at, core, invariant, .. } => {
                let tid = core.unwrap_or(0) as u64;
                let mut args = String::from("\"invariant\":");
                push_escaped(&mut args, invariant);
                records.push(instant(PID_CORES, tid, "audit-violation", *at, &args));
            }
            TraceEvent::StallDetected { at, since } => {
                records.push(instant(
                    PID_CORES,
                    0,
                    "watchdog-stall",
                    *at,
                    &format!("\"since\":{since}"),
                ));
            }
            TraceEvent::FaultInjected { at, detail } => {
                let mut args = String::from("\"detail\":");
                push_escaped(&mut args, detail);
                records.push(instant(PID_CORES, 0, "fault-injected", *at, &args));
            }
            // Per-event lifecycle stamps are subsumed by the mem-req
            // async spans; configs, pick snapshots, and summaries have no
            // timeline shape.
            TraceEvent::ShaperConfig { .. }
            | TraceEvent::L1Miss { .. }
            | TraceEvent::ShaperGrant { .. }
            | TraceEvent::LlcLookup { .. }
            | TraceEvent::McPick { .. }
            | TraceEvent::StallBegin { .. }
            | TraceEvent::RunSummary { .. } => {}
        }
    }

    records.sort_by(|a, b| {
        (a.pid, a.tid, !a.meta, a.ts).cmp(&(b.pid, b.tid, !b.meta, b.ts))
    });

    w.write_all(b"{\"traceEvents\":[\n")?;
    for (i, r) in records.iter().enumerate() {
        w.write_all(r.json.as_bytes())?;
        if i + 1 < records.len() {
            w.write_all(b",\n")?;
        } else {
            w.write_all(b"\n")?;
        }
    }
    w.write_all(b"]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{DramServiceTiming, RowOutcome};
    use crate::obs::event::{
        ChannelSampleRow, CoreSampleRow, SampleRow, StageLatency, StallReason,
    };
    use crate::obs::json::{parse, JsonValue};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fill {
                at: 120,
                core: 0,
                line: 0x4000,
                lat: StageLatency { shaper: 4, llc: 20, mc_queue: 6, dram: 28, fill: 2 },
            },
            TraceEvent::Fill {
                at: 100,
                core: 1,
                line: 0x8000,
                lat: StageLatency { shaper: 0, llc: 20, mc_queue: 0, dram: 0, fill: 0 },
            },
            TraceEvent::StallEnd { at: 90, core: 0, reason: StallReason::Shaper, since: 40 },
            TraceEvent::McEnqueue { at: 44, channel: 0, core: 0, line: 0x4000, write: false },
            TraceEvent::DramDispatch {
                at: 50,
                channel: 0,
                core: 0,
                line: 0x4000,
                write: false,
                timing: DramServiceTiming {
                    bank: 1,
                    row: 7,
                    outcome: RowOutcome::Conflict,
                    act_at: Some(60),
                    pre_at: Some(51),
                    col_at: 69,
                    data_start: 75,
                    data_end: 79,
                },
            },
            TraceEvent::Sample(SampleRow {
                at: 128,
                epoch: 1,
                cores: vec![CoreSampleRow {
                    core: 0,
                    instructions: 10,
                    mem_stall: 50,
                    shaper_stall: 30,
                    l1_misses: 3,
                    llc_misses: 2,
                    fills: 2,
                    credits: vec![(0, 12)],
                    latency: Default::default(),
                }],
                channels: vec![ChannelSampleRow {
                    channel: 0,
                    dispatched: 2,
                    busy_bus: 8,
                    bytes: 128,
                    row_hits: 0,
                    row_misses: 1,
                    row_conflicts: 1,
                    queue_len: 2,
                    fifo_len: 0,
                }],
            }),
            TraceEvent::AuditViolation {
                at: 130,
                core: Some(1),
                invariant: "MshrLeak".to_owned(),
                detail: "x".to_owned(),
            },
            TraceEvent::StallDetected { at: 140, since: 90 },
            TraceEvent::FaultInjected { at: 1, detail: "drop \"stuff\"".to_owned() },
        ]
    }

    #[test]
    fn export_parses_and_each_track_has_monotone_ts() {
        let layout = TrackLayout { cores: 2, channels: 1, banks: 8 };
        let mut out = Vec::new();
        write_chrome_trace(&sample_events(), &layout, &mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        let doc = parse(&text).unwrap_or_else(|e| panic!("export is not valid JSON: {e}"));
        let records = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert!(records.len() > 10, "expected a substantive export");

        let mut last_ts: std::collections::HashMap<(u64, u64), u64> =
            std::collections::HashMap::new();
        for r in records {
            let ph = r.get("ph").and_then(JsonValue::as_str).expect("ph");
            let pid = r.get("pid").and_then(JsonValue::as_u64).expect("pid");
            let tid = r.get("tid").and_then(JsonValue::as_u64).expect("tid");
            let ts = r.get("ts").and_then(JsonValue::as_u64).expect("ts");
            assert!(r.get("name").and_then(JsonValue::as_str).is_some(), "name");
            if ph == "X" {
                assert!(r.get("dur").and_then(JsonValue::as_u64).expect("dur") >= 1);
            }
            let prev = last_ts.insert((pid, tid), ts);
            if let Some(prev) = prev {
                assert!(ts >= prev, "ts went backwards on track ({pid},{tid}): {prev} -> {ts}");
            }
        }
    }

    #[test]
    fn lifecycle_spans_cover_the_decomposed_latency() {
        let layout = TrackLayout { cores: 2, channels: 1, banks: 8 };
        let mut out = Vec::new();
        write_chrome_trace(&sample_events(), &layout, &mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        let doc = parse(&text).expect("json");
        let records = doc.get("traceEvents").and_then(JsonValue::as_arr).expect("arr");
        // The 60-cycle fill on core 0 must produce a b/e pair spanning
        // [60, 120] on (pid 1, tid 0).
        let begin = records
            .iter()
            .find(|r| {
                r.get("ph").and_then(JsonValue::as_str) == Some("b")
                    && r.get("tid").and_then(JsonValue::as_u64) == Some(0)
            })
            .expect("async begin");
        assert_eq!(begin.get("ts").and_then(JsonValue::as_u64), Some(60));
        let end = records
            .iter()
            .find(|r| {
                r.get("ph").and_then(JsonValue::as_str) == Some("e")
                    && r.get("tid").and_then(JsonValue::as_u64) == Some(0)
            })
            .expect("async end");
        assert_eq!(end.get("ts").and_then(JsonValue::as_u64), Some(120));
    }
}
