//! Observability subsystem: request-lifecycle tracing, time-series
//! sampling, and exporters — zero-cost when disabled.
//!
//! The [`Observer`] lives inside [`crate::system::System`] and receives
//! narrow hook calls from the tick path. With no sink installed and no
//! sampling interval configured every hook is a single branch on a bool,
//! and the per-request tables stay empty — the hot path neither allocates
//! nor clones. With tracing enabled, the observer:
//!
//! * tracks each memory op's timeline (L1 miss → shaper grant → LLC
//!   lookup → MC enqueue → DRAM dispatch → fill) in small linear-scan
//!   tables bounded by the machine's MSHR capacities,
//! * emits one [`TraceEvent`] per lifecycle step into the configured
//!   [`TraceSink`] (ring buffer, JSONL file, or a shared handle); each
//!   `Fill` carries a per-stage latency decomposition whose stages
//!   telescope exactly to the latency the core records in `mem_latency`,
//! * records throttling episodes as begin/end transitions, and
//! * mirrors auditor violations, watchdog stalls, and fault injections
//!   into the same stream.
//!
//! Every event is emitted on a real tick, and the sampler's boundaries
//! clamp fast-forward skips exactly like the auditor's, so a naive and a
//! fast-forwarded run of the same workload produce bit-identical event
//! streams and sample rows (pinned by `tests/fast_forward.rs`).

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod sampler;
pub mod sink;
pub mod slo;

pub use chrome::{write_chrome_trace, TrackLayout};
pub use event::{
    ChannelSampleRow, CoreSampleRow, SampleRow, StageLatency, StallReason, TraceEvent,
    STAGE_COUNT, STAGE_NAMES,
};
pub use metrics::{ChannelEpoch, EpochMetrics, MetricsRegistry, TenantEpoch};
pub use sampler::Sampler;
pub use sink::{JsonlSink, NullSink, RingSink, TraceSink};
pub use slo::{Breach, SloEvaluator, SloMetric, SloSpec, SloVerdict, WARMUP_EPOCHS};

use crate::audit::InvariantAuditor;
use crate::mc::DispatchRecord;
use crate::types::{Addr, Cycle, MemCmd};

/// Core-side timeline of one outstanding L1 miss (one per L1 MSHR).
#[derive(Debug, Clone, Copy)]
struct CoreReq {
    line: Addr,
    miss_at: Cycle,
    grant_at: Option<Cycle>,
    grant_bin: u32,
    llc_at: Option<Cycle>,
    llc_hit: bool,
}

/// Memory-side timeline of one outstanding LLC miss (shared by all cores
/// merged into the same LLC MSHR).
#[derive(Debug, Clone, Copy)]
struct MemReq {
    line: Addr,
    dispatch_at: Option<Cycle>,
    done_at: Option<Cycle>,
}

/// The in-system observer. Owned by `System`; see the module docs.
pub struct Observer {
    /// Lifecycle tracing on (a sink was installed).
    lifecycle: bool,
    sink: Box<dyn TraceSink>,
    sampler: Option<Sampler>,
    /// Per-core outstanding-miss timelines (bounded by L1 MSHRs).
    core_reqs: Vec<Vec<CoreReq>>,
    core_req_cap: usize,
    /// Outstanding LLC-miss timelines (bounded by LLC MSHRs + slack).
    mem_reqs: Vec<MemReq>,
    mem_req_cap: usize,
    /// Lines whose memory response arrived this tick (purged at tick end).
    mem_done_pending: bool,
    /// Open throttling episode per core: (reason, begin cycle).
    stalls: Vec<Option<(StallReason, Cycle)>>,
    /// Timeline entries dropped because a table was full (faulted runs).
    reqs_dropped: u64,
    /// Auditor violations already mirrored into the stream.
    violations_seen: usize,
    /// The watchdog stall has been mirrored into the stream.
    stall_reported: bool,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("lifecycle", &self.lifecycle)
            .field("sampling", &self.sampler.is_some())
            .finish()
    }
}

impl Observer {
    /// A disabled observer (null sink, no sampler): the zero-cost default.
    pub fn disabled(cores: usize) -> Self {
        Observer::new(cores, 0, 0, None, None)
    }

    /// Builds an observer. `sink: Some(_)` enables lifecycle tracing;
    /// `sample_interval: Some(k)` enables time-series sampling every `k`
    /// cycles. The MSHR capacities bound the per-request tables.
    pub fn new(
        cores: usize,
        l1_mshrs: usize,
        llc_mshrs: usize,
        sink: Option<Box<dyn TraceSink>>,
        sample_interval: Option<Cycle>,
    ) -> Self {
        let lifecycle = sink.is_some();
        Observer {
            lifecycle,
            sink: sink.unwrap_or_else(|| Box::new(NullSink)),
            sampler: sample_interval.map(Sampler::new),
            core_reqs: (0..cores).map(|_| Vec::with_capacity(l1_mshrs)).collect(),
            core_req_cap: l1_mshrs.max(1),
            mem_reqs: Vec::with_capacity(llc_mshrs + 8),
            mem_req_cap: llc_mshrs + 8,
            mem_done_pending: false,
            stalls: vec![None; cores],
            reqs_dropped: 0,
            violations_seen: 0,
            stall_reported: false,
        }
    }

    /// Whether lifecycle tracing is on (a sink is installed).
    #[inline]
    pub fn lifecycle_enabled(&self) -> bool {
        self.lifecycle
    }

    /// Whether cycle `now`, the cycle after the last one asked about, is
    /// a sampling boundary; a due boundary advances to the next one.
    #[inline]
    pub fn sample_due(&mut self, now: Cycle) -> bool {
        match &mut self.sampler {
            Some(s) => s.take_due(now),
            None => false,
        }
    }

    /// The first sampling boundary not yet sampled — a fast-forward
    /// clamp, exactly like the auditor's audit boundary.
    #[inline]
    pub fn next_sample_boundary(&self) -> Option<Cycle> {
        self.sampler.as_ref().map(Sampler::next_due)
    }

    /// Rebuilds the next sampling boundary for a system now at `now` (a
    /// restore).
    pub(crate) fn resync(&mut self, now: Cycle) {
        if let Some(s) = &mut self.sampler {
            s.resync(now);
        }
    }

    /// Retained sample rows, oldest first.
    pub fn samples(&self) -> &[SampleRow] {
        self.sampler.as_ref().map(Sampler::rows).unwrap_or(&[])
    }

    /// Timeline entries dropped because a table filled (only possible in
    /// faulted runs where fills are lost).
    pub fn requests_dropped(&self) -> u64 {
        self.reqs_dropped
    }

    /// Flushes the sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        self.sink.record(&ev);
    }

    /// Announces a core's shaper (build time and reconfiguration).
    pub fn emit_shaper_config(
        &mut self,
        now: Cycle,
        core: usize,
        shaper: &str,
        bins: Vec<(u32, u32)>,
    ) {
        if !self.lifecycle {
            return;
        }
        self.emit(TraceEvent::ShaperConfig { at: now, core, shaper: shaper.to_owned(), bins });
    }

    /// An L1 miss allocated an MSHR (start of a request lifecycle).
    #[inline]
    pub fn on_l1_miss(&mut self, now: Cycle, core: usize, line: Addr) {
        if !self.lifecycle {
            return;
        }
        let table = &mut self.core_reqs[core];
        if table.len() < self.core_req_cap {
            table.push(CoreReq {
                line,
                miss_at: now,
                grant_at: None,
                grant_bin: 0,
                llc_at: None,
                llc_hit: false,
            });
        } else {
            self.reqs_dropped += 1;
        }
        self.emit(TraceEvent::L1Miss { at: now, core, line });
    }

    /// The source shaper granted the miss-queue head; `bin` is the
    /// winning inter-arrival bin (the `ShapeToken`).
    #[inline]
    pub fn on_shaper_grant(&mut self, now: Cycle, core: usize, line: Addr, bin: u32) {
        if !self.lifecycle {
            return;
        }
        if let Some(req) = self.core_reqs[core]
            .iter_mut()
            .find(|r| r.line == line && r.grant_at.is_none())
        {
            req.grant_at = Some(now);
            req.grant_bin = bin;
        }
        self.emit(TraceEvent::ShaperGrant { at: now, core, line, bin });
    }

    /// The demand-issue stage's outcome for a core this tick: `None` for
    /// granted / no request, `Some(reason)` when the head is blocked.
    /// Emits stall begin/end events on transitions only, so skipped
    /// quiescent windows (which cannot change the outcome) produce the
    /// same stream as per-cycle re-evaluation.
    #[inline]
    pub fn on_issue_outcome(&mut self, now: Cycle, core: usize, reason: Option<StallReason>) {
        if !self.lifecycle {
            return;
        }
        match (self.stalls[core], reason) {
            (None, None) => {}
            (Some((r, _)), Some(nr)) if r == nr => {}
            (open, new) => {
                if let Some((r, since)) = open {
                    self.emit(TraceEvent::StallEnd { at: now, core, reason: r, since });
                }
                if let Some(r) = new {
                    self.emit(TraceEvent::StallBegin { at: now, core, reason: r });
                }
                self.stalls[core] = new.map(|r| (r, now));
            }
        }
    }

    /// The LLC resolved a demand lookup (first resolution only).
    #[inline]
    pub fn on_llc_lookup(&mut self, now: Cycle, core: usize, line: Addr, hit: bool) {
        if !self.lifecycle {
            return;
        }
        if let Some(req) = self.core_reqs[core]
            .iter_mut()
            .find(|r| r.line == line && r.llc_at.is_none())
        {
            req.llc_at = Some(now);
            req.llc_hit = hit;
        }
        self.emit(TraceEvent::LlcLookup { at: now, core, line, hit });
    }

    /// An LLC MSHR was allocated for `line` (a new memory-side request).
    #[inline]
    pub fn on_llc_mshr_alloc(&mut self, _now: Cycle, line: Addr) {
        if !self.lifecycle {
            return;
        }
        if self.mem_reqs.len() >= self.mem_req_cap {
            // Prefer evicting an already-completed leftover; otherwise
            // count the drop (only reachable when fills are lost).
            if let Some(idx) = self.mem_reqs.iter().position(|r| r.done_at.is_some()) {
                self.mem_reqs.swap_remove(idx);
            } else {
                self.reqs_dropped += 1;
                return;
            }
        }
        self.mem_reqs.push(MemReq { line, dispatch_at: None, done_at: None });
    }

    /// A transaction entered channel `channel`'s FIFO.
    #[inline]
    pub fn on_mc_enqueue(
        &mut self,
        now: Cycle,
        channel: usize,
        core: usize,
        line: Addr,
        write: bool,
    ) {
        if !self.lifecycle {
            return;
        }
        self.emit(TraceEvent::McEnqueue { at: now, channel, core, line, write });
    }

    /// Traces channel `channel`'s dispatch for this tick: emits a
    /// [`TraceEvent::DramDispatch`] and stamps the matching memory-side
    /// timeline.
    pub fn on_dispatch(&mut self, channel: usize, rec: &DispatchRecord) {
        if !self.lifecycle {
            return;
        }
        if rec.txn.cmd == MemCmd::Read {
            if let Some(req) =
                self.mem_reqs.iter_mut().find(|r| r.line == rec.txn.addr && r.done_at.is_none())
            {
                req.dispatch_at = Some(rec.at);
            }
        }
        self.emit(TraceEvent::DramDispatch {
            at: rec.at,
            channel,
            core: rec.txn.core.index(),
            line: rec.txn.addr,
            write: rec.txn.cmd == MemCmd::Write,
            timing: rec.timing,
        });
    }

    /// A memory response for `line` reached the LLC this tick.
    #[inline]
    pub fn on_mem_response(&mut self, now: Cycle, line: Addr) {
        if !self.lifecycle {
            return;
        }
        if let Some(req) =
            self.mem_reqs.iter_mut().find(|r| r.line == line && r.done_at.is_none())
        {
            req.done_at = Some(now);
            self.mem_done_pending = true;
        }
    }

    /// A fill reached core `core`'s L1: finalizes the request timeline
    /// and emits the [`TraceEvent::Fill`] with its stage decomposition.
    ///
    /// Stage stamps are monotonized (each stage start clamps to the
    /// previous stage's end) before differencing, so the five stages
    /// always sum to exactly `now - miss_at` — the same latency the core
    /// records in its `mem_latency` histogram for this fill.
    #[inline]
    pub fn on_core_fill(&mut self, now: Cycle, core: usize, line: Addr) {
        if !self.lifecycle {
            return;
        }
        let Some(idx) = self.core_reqs[core].iter().position(|r| r.line == line) else {
            return;
        };
        let req = self.core_reqs[core].swap_remove(idx);
        let m0 = req.miss_at;
        let m1 = req.grant_at.unwrap_or(m0).max(m0);
        let m2 = req.llc_at.unwrap_or(m1).max(m1);
        let (m3, m4) = if req.llc_hit {
            (m2, m2)
        } else {
            match self.mem_reqs.iter().find(|r| r.line == line) {
                Some(mem) => {
                    let m3 = mem.dispatch_at.unwrap_or(m2).max(m2).min(now);
                    let m4 = mem.done_at.unwrap_or(m3).max(m3).min(now);
                    (m3, m4)
                }
                None => (m2, m2),
            }
        };
        let lat = StageLatency {
            shaper: m1 - m0,
            llc: m2 - m1,
            mc_queue: m3 - m2,
            dram: m4 - m3,
            fill: now - m4,
        };
        debug_assert_eq!(lat.total(), now - m0, "stage decomposition must telescope");
        self.emit(TraceEvent::Fill { at: now, core, line, lat });
    }

    /// End-of-tick housekeeping: drops memory-side timelines whose
    /// response arrived this tick (their fills have been delivered).
    #[inline]
    pub fn end_tick(&mut self) {
        if self.mem_done_pending {
            self.mem_reqs.retain(|r| r.done_at.is_none());
            self.mem_done_pending = false;
        }
    }

    /// Records one sampling boundary: produces the epoch-delta row from
    /// the cumulative row and mirrors it into the sink (if any).
    pub fn record_sample(&mut self, cum: SampleRow) {
        let Some(sampler) = &mut self.sampler else { return };
        let row = sampler.record(cum);
        if self.lifecycle {
            self.emit(TraceEvent::Sample(row));
        }
    }

    /// Mirrors new auditor violations and a freshly-declared watchdog
    /// stall into the event stream. The auditor's own log and return
    /// paths are untouched — this is a read-only tail follow.
    pub fn sync_hardening(&mut self, now: Cycle, auditor: &InvariantAuditor) {
        if !self.lifecycle {
            return;
        }
        let violations = auditor.violations();
        while self.violations_seen < violations.len() {
            let v = &violations[self.violations_seen];
            self.violations_seen += 1;
            let ev = TraceEvent::AuditViolation {
                at: v.cycle,
                core: v.core,
                invariant: format!("{:?}", v.invariant),
                detail: v.detail.clone(),
            };
            self.emit(ev);
        }
        if !self.stall_reported {
            if let Some(report) = auditor.stall() {
                self.stall_reported = true;
                self.emit(TraceEvent::StallDetected {
                    at: now,
                    since: report.stalled_since,
                });
            }
        }
    }

    /// Encodes the observer's request timelines, stall episodes, stage
    /// aggregates, and counters. Sink contents and retained sample rows
    /// are *not* included: a resumed run re-emits exactly the
    /// post-snapshot events, so a full run's stream equals pre-snapshot
    /// events plus post-resume events.
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.bool(self.lifecycle);
        enc.usize(self.core_reqs.len());
        for table in &self.core_reqs {
            enc.usize(table.len());
            for r in table {
                enc.u64(r.line);
                enc.u64(r.miss_at);
                enc.opt_u64(r.grant_at);
                enc.u32(r.grant_bin);
                enc.opt_u64(r.llc_at);
                enc.bool(r.llc_hit);
            }
        }
        enc.usize(self.mem_reqs.len());
        for r in &self.mem_reqs {
            enc.u64(r.line);
            enc.opt_u64(r.dispatch_at);
            enc.opt_u64(r.done_at);
        }
        enc.bool(self.mem_done_pending);
        enc.usize(self.stalls.len());
        for stall in &self.stalls {
            match stall {
                Some((reason, since)) => {
                    enc.bool(true);
                    enc.u8(match reason {
                        StallReason::Shaper => 0,
                        StallReason::Throttle => 1,
                        StallReason::Fault => 2,
                        StallReason::Ports => 3,
                        StallReason::Backpressure => 4,
                    });
                    enc.u64(*since);
                }
                None => enc.bool(false),
            }
        }
        enc.u64(self.reqs_dropped);
        enc.usize(self.violations_seen);
        enc.bool(self.stall_reported);
        match &self.sampler {
            Some(s) => {
                enc.bool(true);
                s.save_state(enc);
            }
            None => enc.bool(false),
        }
    }

    /// Restores state written by [`Observer::save_state`]. The observer
    /// must be configured the same way (tracing on/off, sampler interval,
    /// core count) as when the snapshot was taken.
    ///
    /// # Errors
    ///
    /// Mismatch on configuration differences, or a decode error on corrupt
    /// bytes.
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let lifecycle = dec.bool()?;
        if lifecycle != self.lifecycle {
            return Err(SnapshotError::mismatch(
                "lifecycle tracing on/off differs from the snapshot".to_owned(),
            ));
        }
        let cores = dec.checked_len(8)?;
        if cores != self.core_reqs.len() {
            return Err(SnapshotError::mismatch(format!(
                "observer tracks {} cores but the snapshot recorded {cores}",
                self.core_reqs.len()
            )));
        }
        for table in &mut self.core_reqs {
            let n = dec.checked_len(24)?;
            table.clear();
            for _ in 0..n {
                table.push(CoreReq {
                    line: dec.u64()?,
                    miss_at: dec.u64()?,
                    grant_at: dec.opt_u64()?,
                    grant_bin: dec.u32()?,
                    llc_at: dec.opt_u64()?,
                    llc_hit: dec.bool()?,
                });
            }
        }
        let n = dec.checked_len(10)?;
        self.mem_reqs.clear();
        for _ in 0..n {
            self.mem_reqs.push(MemReq {
                line: dec.u64()?,
                dispatch_at: dec.opt_u64()?,
                done_at: dec.opt_u64()?,
            });
        }
        self.mem_done_pending = dec.bool()?;
        let n = dec.checked_len(1)?;
        if n != self.stalls.len() {
            return Err(SnapshotError::mismatch("stall-episode core count differs".to_owned()));
        }
        for stall in &mut self.stalls {
            *stall = if dec.bool()? {
                let reason = match dec.u8()? {
                    0 => StallReason::Shaper,
                    1 => StallReason::Throttle,
                    2 => StallReason::Fault,
                    3 => StallReason::Ports,
                    4 => StallReason::Backpressure,
                    tag => {
                        return Err(SnapshotError::corrupt(format!(
                            "unknown stall reason tag {tag}"
                        )))
                    }
                };
                Some((reason, dec.u64()?))
            } else {
                None
            };
        }
        self.reqs_dropped = dec.u64()?;
        self.violations_seen = dec.usize()?;
        self.stall_reported = dec.bool()?;
        let has_sampler = dec.bool()?;
        if has_sampler != self.sampler.is_some() {
            return Err(SnapshotError::mismatch(
                "sampling on/off differs from the snapshot".to_owned(),
            ));
        }
        if let Some(s) = &mut self.sampler {
            s.load_state(dec)?;
        }
        Ok(())
    }

    /// A fault plan was installed.
    pub fn on_fault_injected(&mut self, now: Cycle, detail: String) {
        if !self.lifecycle {
            return;
        }
        self.emit(TraceEvent::FaultInjected { at: now, detail });
    }

    /// Writes the end-of-run summary record (consumers cross-check their
    /// decomposition sums against it) and flushes the sink.
    pub fn emit_run_summary(
        &mut self,
        cycles: Cycle,
        mem_latency_sum: u64,
        mem_latency_count: u64,
    ) {
        if self.lifecycle {
            self.emit(TraceEvent::RunSummary { cycles, mem_latency_sum, mem_latency_count });
        }
        self.sink.flush();
    }
}
