//! Capacity frontiers: how much open-loop load a (shaper × scheduler)
//! configuration sustains before its SLO breaks.
//!
//! # Method
//!
//! Each cell of the configuration matrix is probed with an open-loop
//! arrival process ([`OpenLoopTrace`]): every tenant offers a fixed
//! requests-per-second rate regardless of completions, the run is
//! sampled into epochs, and an [`SloEvaluator`] judges every epoch
//! against the cell's [`SloSpec`] (p99 memory latency, stall-rate
//! ceiling, optional IPC floor). Each epoch's [`EpochMetrics`] comes
//! straight from a sampler row, so probes run with no trace sink. The
//! *max sustainable load* is found by ramping the offered rate until
//! the first SLO failure and then bisecting the bracket — the classic
//! knee search. All probes are
//! deterministic (seeded traces, fixed cycle budgets), so the frontier
//! is byte-reproducible across engines, worker counts, and
//! metrics-on/off runs; `capacity_engine_checks` holds that property as
//! a differential gate.
//!
//! The per-cell probes run as pool [`Experiment`]s, so a capacity sweep
//! inherits lease recovery, retries, and crash-resume from the sweep
//! engine — and its live [`PoolTelemetry`] (worker utilization, stale
//! lease takeovers, queue depth over time) lands in the HTML report
//! next to the frontiers it produced.

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec};
use mitts_sched::make_baseline;
use mitts_sim::obs::{Breach, EpochMetrics, MetricsRegistry, SloEvaluator, SloSpec, SloVerdict};
use mitts_sim::rng::fnv1a;
use mitts_sim::system::{Engine, System, SystemBuilder};
use mitts_sim::trace::OpenLoopTrace;
use mitts_sim::types::Cycle;

use crate::pool::{Experiment, PoolTelemetry};
use crate::runner::{
    base_for, cbs_1gbs, engine_from_env, regulator_1gbs, seed_for, shared_config, ShaperSpec,
    ONE_GBS_INTERVAL, REPLENISH_PERIOD,
};
use crate::table::Table;

/// Everything one capacity sweep needs besides the matrix cell.
#[derive(Debug, Clone)]
pub struct CapacityConfig {
    /// Open-loop tenants (one per core).
    pub tenants: usize,
    /// Shared LLC size in bytes.
    pub llc_bytes: usize,
    /// Sampler epoch length in cycles.
    pub epoch: Cycle,
    /// Cycles per probe run.
    pub run_cycles: Cycle,
    /// First offered load probed, requests/second per tenant.
    pub initial_rps: u64,
    /// Ramp step in requests/second.
    pub increment_rps: u64,
    /// Ramp ceiling; a cell healthy here is reported *censored*.
    pub max_rps: u64,
    /// Bisection refinements inside the knee bracket.
    pub bisect_steps: u32,
    /// Per-tenant address footprint in bytes.
    pub footprint: u64,
    /// Seed salt, forwarded to [`seed_for`].
    pub seed_salt: u64,
    /// The health predicate every probe is judged against.
    pub slo: SloSpec,
}

impl CapacityConfig {
    /// Tiny ramp for CI: seconds per cell, a handful of probes.
    pub fn smoke() -> Self {
        CapacityConfig {
            tenants: 2,
            llc_bytes: 64 << 10,
            epoch: 2_000,
            run_cycles: 12_000,
            initial_rps: 4_000_000,
            increment_rps: 12_000_000,
            max_rps: 40_000_000,
            bisect_steps: 3,
            footprint: 1 << 20,
            seed_salt: 77,
            // Calibrated to the open-loop probe at this scale: p99 fill
            // latency sits in the 181-cycle log bucket when healthy and
            // jumps to the 724 bucket only under queueing collapse, so
            // 400 passes healthy epochs; the stall ceiling 0.88 sits
            // between the unshaped plateau (~0.75..0.84) and the
            // shaper-saturated regime (0.89..1.0 once the offered load
            // exceeds the cap and the open-loop backlog stalls the
            // core). The binding constraint is therefore the shaper cap
            // for capped cells and queueing collapse for unshaped ones.
            slo: SloSpec::new(400.0, 0.88),
        }
    }

    /// The default report scale: finer ramp, longer probes.
    pub fn full() -> Self {
        CapacityConfig {
            tenants: 4,
            llc_bytes: 256 << 10,
            epoch: 5_000,
            run_cycles: 60_000,
            initial_rps: 2_000_000,
            increment_rps: 4_000_000,
            max_rps: 46_000_000,
            bisect_steps: 4,
            footprint: 4 << 20,
            seed_salt: 78,
            slo: SloSpec::new(400.0, 0.88),
        }
    }

    /// Probe count upper bound (ramp plus bisection), for reports.
    pub fn max_probes(&self) -> u64 {
        let span = self.max_rps.saturating_sub(self.initial_rps);
        span / self.increment_rps.max(1) + 1 + self.bisect_steps as u64
    }
}

/// One (shaper, scheduler) cell of the capacity matrix. All tenants of
/// the cell run the same shaper spec — capacity is a property of the
/// configuration, not of one privileged core.
#[derive(Clone)]
pub struct CapacityCell {
    /// Short space-free shaper label (CSV/artifact cell).
    pub shaper_name: String,
    /// `mitts_sched::make_baseline` scheduler name.
    pub scheduler: String,
    /// The per-tenant shaper.
    pub shaper: ShaperSpec,
}

impl CapacityCell {
    /// Journal/artifact experiment name for this cell.
    pub fn experiment_name(&self) -> String {
        format!("capacity__{}__{}", self.shaper_name, self.scheduler)
    }
}

/// The MITTS config used by capacity cells: all credits in the 1 GB/s
/// bin (§IV-C's bandwidth-cap configuration).
pub fn mitts_1gbs() -> BinConfig {
    BinConfig::single_bin(BinSpec::paper_default(), ONE_GBS_INTERVAL, REPLENISH_PERIOD)
}

/// The configuration matrix: shaper configs × schedulers. `smoke`
/// trims to a 2×2 matrix (still ≥2 shaper configs and ≥2 schedulers,
/// the report's minimum coverage); the full matrix adds the rate-matched
/// static/CBS/regulator shapers and the BLISS scheduler so MITTS is
/// compared against the whole shaper family under every scheduler.
pub fn matrix(smoke: bool) -> Vec<CapacityCell> {
    let mut shapers = vec![
        ("unshaped".to_owned(), ShaperSpec::Unlimited),
        ("mitts-1gbs".to_owned(), ShaperSpec::Mitts(mitts_1gbs())),
    ];
    let mut schedulers = vec!["FR-FCFS", "TCM"];
    if !smoke {
        shapers.push((
            "static-1gbs".to_owned(),
            ShaperSpec::StaticRate { interval: ONE_GBS_INTERVAL },
        ));
        shapers.push(("cbs-1gbs".to_owned(), cbs_1gbs()));
        shapers.push(("regulator-1gbs".to_owned(), regulator_1gbs()));
        schedulers.push("BLISS");
    }
    let mut cells = Vec::new();
    for (name, spec) in &shapers {
        for &sched in &schedulers {
            cells.push(CapacityCell {
                shaper_name: name.clone(),
                scheduler: sched.to_owned(),
                shaper: spec.clone(),
            });
        }
    }
    cells
}

/// One judged probe of the knee search.
#[derive(Debug, Clone)]
pub struct ProbeRecord {
    /// `ramp` or `bisect`, with its 1-based step.
    pub step: String,
    /// Offered load, requests/second per tenant.
    pub rps: u64,
    /// The evaluator's verdict over the probe run.
    pub verdict: SloVerdict,
}

/// A cell's knee-search result.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Shaper label.
    pub shaper: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Max sustainable offered load, requests/second per tenant (0 when
    /// even the initial load breaches).
    pub max_sustainable_rps: u64,
    /// Probes spent finding it.
    pub probes: u64,
    /// True when the cell was still healthy at `max_rps` — the real
    /// frontier lies above the ramp ceiling.
    pub censored: bool,
}

/// Builds the probe system for one cell at one offered load, sampled
/// every `cfg.epoch` cycles. `engine` is explicit (the differential gate
/// sweeps it); `metrics` installs the registry as the trace sink, which
/// turns on lifecycle tracing. [`probe_load`] passes `None`: it judges
/// the sampler's rows.
pub fn build_probe(
    cell: &CapacityCell,
    cfg: &CapacityConfig,
    rps: u64,
    engine: Engine,
    metrics: Option<Rc<RefCell<MetricsRegistry>>>,
) -> System {
    match metrics {
        Some(m) => probe_builder(cell, cfg, rps, engine).trace_sink(Box::new(m)).build(),
        None => probe_builder(cell, cfg, rps, engine).build(),
    }
}

/// [`build_probe`] before `build`, with no trace sink.
fn probe_builder(
    cell: &CapacityCell,
    cfg: &CapacityConfig,
    rps: u64,
    engine: Engine,
) -> SystemBuilder {
    let mut b = SystemBuilder::new(shared_config(cfg.tenants, cfg.llc_bytes))
        .scheduler(make_baseline(&cell.scheduler, cfg.tenants).expect("known scheduler name"))
        .engine(engine)
        .sample_every(cfg.epoch);
    for core in 0..cfg.tenants {
        let trace = OpenLoopTrace::from_rps(rps, cfg.footprint, seed_for(cfg.seed_salt, core))
            .with_base(base_for(core));
        b = b.trace(core, Box::new(trace));
        if let Some(shaper) = cell.shaper.build(0) {
            b = b.shaper(core, shaper);
        }
    }
    b
}

/// A probe whose sampler stopped keeping rows (at
/// [`Sampler::DEFAULT_MAX_ROWS`](mitts_sim::obs::Sampler::DEFAULT_MAX_ROWS))
/// before the run ended: judging the rows it kept would pass epochs
/// nobody looked at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedSeries {
    /// Rows the sampler kept.
    pub retained: u64,
    /// Sampling boundaries the run crossed.
    pub boundaries: u64,
}

impl std::fmt::Display for TruncatedSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "truncated sample series: the sampler kept {} rows of {} epochs; \
             lengthen the epoch or shorten the probe",
            self.retained, self.boundaries
        )
    }
}

impl std::error::Error for TruncatedSeries {}

/// Runs one probe and judges it: offered load in, SLO verdict out.
///
/// # Errors
///
/// [`TruncatedSeries`] when the sampler did not keep a row for every
/// epoch of the run.
pub fn probe_load(
    cell: &CapacityCell,
    cfg: &CapacityConfig,
    rps: u64,
) -> Result<SloVerdict, TruncatedSeries> {
    let mut sys = build_probe(cell, cfg, rps, engine_from_env(), None);
    sys.run_cycles(cfg.run_cycles);
    // A boundary's row is taken at the end of its tick, so the run has
    // crossed every boundary before `now`.
    let boundaries = sys.now().saturating_sub(1) / cfg.epoch.max(1);
    let rows = sys.samples();
    if rows.len() as u64 != boundaries {
        return Err(TruncatedSeries { retained: rows.len() as u64, boundaries });
    }
    let mut eval = SloEvaluator::new(cfg.slo.clone());
    for row in rows {
        eval.observe_epoch(&EpochMetrics::from_row(row, cfg.epoch));
    }
    Ok(eval.verdict())
}

/// Knee search for one cell: ramp `initial..=max` by `increment` until
/// the first SLO failure, then bisect the (last-pass, first-fail)
/// bracket for `bisect_steps` rounds. Returns the frontier and every
/// probe judged along the way.
///
/// # Errors
///
/// The first probe's [`TruncatedSeries`], if any.
pub fn find_knee(
    cell: &CapacityCell,
    cfg: &CapacityConfig,
) -> Result<(FrontierPoint, Vec<ProbeRecord>), TruncatedSeries> {
    let mut records = Vec::new();
    let mut last_pass: Option<u64> = None;
    let mut first_fail: Option<u64> = None;
    let mut rps = cfg.initial_rps;
    let mut step = 0u32;
    while rps <= cfg.max_rps {
        step += 1;
        let verdict = probe_load(cell, cfg, rps)?;
        let ok = verdict.ok;
        records.push(ProbeRecord { step: format!("ramp{step}"), rps, verdict });
        if ok {
            last_pass = Some(rps);
        } else {
            first_fail = Some(rps);
            break;
        }
        rps = rps.saturating_add(cfg.increment_rps);
    }
    let censored = first_fail.is_none();
    if let Some(hi) = first_fail {
        let mut lo = last_pass.unwrap_or(0);
        let mut hi = hi;
        for b in 1..=cfg.bisect_steps {
            let mid = lo + (hi - lo) / 2;
            if mid == lo || mid == hi {
                break;
            }
            let verdict = probe_load(cell, cfg, mid)?;
            let ok = verdict.ok;
            records.push(ProbeRecord { step: format!("bisect{b}"), rps: mid, verdict });
            if ok {
                lo = mid;
                last_pass = Some(mid);
            } else {
                hi = mid;
            }
        }
    }
    let point = FrontierPoint {
        shaper: cell.shaper_name.clone(),
        scheduler: cell.scheduler.clone(),
        max_sustainable_rps: last_pass.unwrap_or(0),
        probes: records.len() as u64,
        censored,
    };
    Ok((point, records))
}

/// Formats a breach as one space-free cell:
/// `metric@coreN:value>bound` (or `<` for an IPC floor).
fn breach_cell(b: &Breach) -> String {
    let rel = match b.metric {
        mitts_sim::obs::SloMetric::MinIpc => '<',
        _ => '>',
    };
    format!("{}@core{}:{:.1}{}{}", b.metric.label(), b.core, b.value, rel, b.bound)
}

/// Renders a cell's knee search as its experiment table. Every cell is
/// space-free so the artifact parses back with `split_whitespace` (the
/// HTML report and the frontier CSV are rebuilt from artifacts, which
/// keeps resumed and fresh sweeps byte-identical).
pub fn cell_table(cell: &CapacityCell, point: &FrontierPoint, records: &[ProbeRecord]) -> Table {
    let mut t = Table::new(
        &format!("capacity {} / {}", cell.shaper_name, cell.scheduler),
        &["step", "offered_rps", "slo", "evaluated", "violated", "first_breach"],
    );
    for r in records {
        t.row(vec![
            r.step.clone(),
            r.rps.to_string(),
            if r.verdict.ok { "pass".to_owned() } else { "fail".to_owned() },
            r.verdict.evaluated.to_string(),
            r.verdict.violated.to_string(),
            r.verdict.first_breach.as_ref().map(breach_cell).unwrap_or_else(|| "-".to_owned()),
        ]);
    }
    t.row(vec![
        "knee".to_owned(),
        point.max_sustainable_rps.to_string(),
        if point.censored { "censored".to_owned() } else { "frontier".to_owned() },
        point.probes.to_string(),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    t
}

/// Builds one pool [`Experiment`] per matrix cell.
pub fn experiments(cells: &[CapacityCell], cfg: &CapacityConfig) -> Vec<Experiment> {
    cells
        .iter()
        .map(|cell| {
            let cell = cell.clone();
            let cfg = cfg.clone();
            Experiment::new(cell.experiment_name(), std::sync::Arc::new(move || {
                let (point, records) = find_knee(&cell, &cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", cell.experiment_name()));
                vec![cell_table(&cell, &point, &records)]
            }))
        })
        .collect()
}

/// A probe row parsed back out of a rendered cell artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRow {
    /// `ramp1`, `bisect2`, or `knee`.
    pub step: String,
    /// Offered load (the knee row: the frontier).
    pub rps: u64,
    /// `pass` / `fail` / `frontier` / `censored`.
    pub slo: String,
    /// Remaining columns, verbatim.
    pub rest: Vec<String>,
}

/// Parses a rendered cell artifact (fresh or adopted from a resumed
/// journal) back into probe rows.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_cell_artifact(text: &str) -> Result<Vec<ParsedRow>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let cells: Vec<&str> = line.split_whitespace().collect();
        let Some(first) = cells.first() else { continue };
        if !(first.starts_with("ramp") || first.starts_with("bisect") || *first == "knee") {
            continue;
        }
        if cells.len() != 6 {
            return Err(format!("expected 6 columns, got {}: {line:?}", cells.len()));
        }
        let rps: u64 = cells[1]
            .parse()
            .map_err(|e| format!("bad offered_rps in {line:?}: {e}"))?;
        rows.push(ParsedRow {
            step: cells[0].to_owned(),
            rps,
            slo: cells[2].to_owned(),
            rest: cells[3..].iter().map(|s| (*s).to_owned()).collect(),
        });
    }
    if rows.is_empty() {
        return Err("no probe rows found in artifact".to_owned());
    }
    Ok(rows)
}

/// Rebuilds a [`FrontierPoint`] from a cell's artifact text.
///
/// # Errors
///
/// Returns an error when the artifact has no well-formed `knee` row.
pub fn frontier_from_artifact(cell: &CapacityCell, text: &str) -> Result<FrontierPoint, String> {
    let rows = parse_cell_artifact(text)?;
    let knee = rows
        .iter()
        .find(|r| r.step == "knee")
        .ok_or_else(|| "artifact has no knee row".to_owned())?;
    let probes: u64 = knee.rest[0]
        .parse()
        .map_err(|e| format!("bad probe count in knee row: {e}"))?;
    Ok(FrontierPoint {
        shaper: cell.shaper_name.clone(),
        scheduler: cell.scheduler.clone(),
        max_sustainable_rps: knee.rps,
        probes,
        censored: knee.slo == "censored",
    })
}

/// The frontier summary table (and, via [`Table::write_csv`], the
/// byte-diffed `capacity_frontier.csv`).
pub fn frontier_table(points: &[FrontierPoint]) -> Table {
    let mut t = Table::new(
        "capacity frontier (max sustainable offered load per tenant)",
        &["shaper", "scheduler", "max_sustainable_rps", "probes", "censored"],
    );
    for p in points {
        t.row(vec![
            p.shaper.clone(),
            p.scheduler.clone(),
            p.max_sustainable_rps.to_string(),
            p.probes.to_string(),
            p.censored.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// HTML report
// ---------------------------------------------------------------------------

/// Escapes text for HTML body/attribute positions.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Inline SVG: horizontal frontier bars, one per cell, grouped by
/// scheduler, censored cells hatched with an open end marker.
fn frontier_svg(points: &[FrontierPoint], max_rps: u64) -> String {
    use std::fmt::Write;
    let bar_h = 22;
    let gap = 8;
    let left = 190;
    let plot_w = 560;
    let h = points.len() * (bar_h + gap) + 40;
    let scale = plot_w as f64 / max_rps.max(1) as f64;
    let mut s = String::new();
    write!(
        s,
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" role=\"img\" aria-label=\"capacity frontier chart\">",
        w = left + plot_w + 110,
    )
    .unwrap();
    for (i, p) in points.iter().enumerate() {
        let y = 20 + i * (bar_h + gap);
        let w = (p.max_sustainable_rps as f64 * scale).round() as u64;
        let fill = if p.shaper == "unshaped" { "#c96" } else { "#69c" };
        write!(
            s,
            "<text x=\"{tx}\" y=\"{ty}\" font-size=\"12\" text-anchor=\"end\">{label}</text>",
            tx = left - 8,
            ty = y + bar_h - 6,
            label = esc(&format!("{} / {}", p.shaper, p.scheduler)),
        )
        .unwrap();
        write!(
            s,
            "<rect x=\"{left}\" y=\"{y}\" width=\"{w}\" height=\"{bar_h}\" fill=\"{fill}\"{dash}/>",
            dash = if p.censored { " stroke=\"#333\" stroke-dasharray=\"4 3\" fill-opacity=\"0.6\"" } else { "" },
        )
        .unwrap();
        write!(
            s,
            "<text x=\"{tx}\" y=\"{ty}\" font-size=\"12\">{v}{c}</text>",
            tx = left + w + 6,
            ty = y + bar_h - 6,
            v = p.max_sustainable_rps,
            c = if p.censored { "+" } else { "" },
        )
        .unwrap();
    }
    s.push_str("</svg>");
    s
}

/// Inline SVG: the pool's queue-depth-over-time polyline.
fn queue_depth_svg(tel: &PoolTelemetry) -> String {
    use std::fmt::Write;
    let (w, h, pad) = (560u64, 140u64, 24u64);
    let max_t = tel.queue_depth.iter().map(|&(t, _)| t).max().unwrap_or(1).max(1);
    let max_q = tel.queue_depth.iter().map(|&(_, q)| q).max().unwrap_or(1).max(1) as u64;
    let mut pts = String::new();
    for &(t, q) in &tel.queue_depth {
        let x = pad + t * (w - 2 * pad) / max_t;
        let y = h - pad - (q as u64) * (h - 2 * pad) / max_q;
        write!(pts, "{x},{y} ").unwrap();
    }
    format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" role=\"img\" aria-label=\"queue depth over time\">\
         <polyline points=\"{pts}\" fill=\"none\" stroke=\"#69c\" stroke-width=\"2\"/>\
         <text x=\"{pad}\" y=\"14\" font-size=\"11\">queue depth (max {max_q}) over {max_t} ms</text>\
         </svg>",
        pts = pts.trim_end(),
    )
}

/// One cell's probe rows as an HTML verdict table with breach
/// drill-down cells.
fn cell_html(cell: &CapacityCell, rows: &[ParsedRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    write!(
        s,
        "<h3>{}</h3><table><tr><th>step</th><th>offered rps</th><th>SLO</th>\
         <th>epochs judged</th><th>epochs violated</th><th>first breach</th></tr>",
        esc(&format!("{} / {}", cell.shaper_name, cell.scheduler)),
    )
    .unwrap();
    for r in rows {
        let class = match r.slo.as_str() {
            "pass" | "frontier" | "censored" => "ok",
            _ => "bad",
        };
        write!(
            s,
            "<tr class=\"{class}\"><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&r.step),
            r.rps,
            esc(&r.slo),
            esc(&r.rest[0]),
            esc(&r.rest[1]),
            esc(&r.rest[2]),
        )
        .unwrap();
    }
    s.push_str("</table>");
    s
}

/// Worker telemetry as an HTML table.
fn telemetry_html(tel: &PoolTelemetry) -> String {
    use std::fmt::Write;
    let util = tel.utilization();
    let mut s = String::new();
    write!(
        s,
        "<p>{} workers, {} ms wall; {} stale-lease takeovers, {} retried attempts; \
         storage: {} file-sync failures, {} dir-fsync failures, {} injected faults.</p>\
         <table><tr><th>worker</th><th>claims</th><th>steals</th><th>retries</th>\
         <th>lease losses</th><th>busy ms</th><th>utilization</th></tr>",
        tel.jobs,
        tel.wall_ms,
        tel.takeovers(),
        tel.retries(),
        tel.storage.file_sync_failures,
        tel.storage.dir_fsync_failures,
        tel.storage.injected_faults,
    )
    .unwrap();
    for (w, t) in tel.workers.iter().enumerate() {
        write!(
            s,
            "<tr><td>w{w}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.0}%</td></tr>",
            t.claims,
            t.steals,
            t.retries,
            t.lease_losses,
            t.busy_ms,
            util[w] * 100.0,
        )
        .unwrap();
    }
    s.push_str("</table>");
    write!(s, "{}", queue_depth_svg(tel)).unwrap();
    s
}

/// Renders the self-contained capacity report: frontier chart and CSV
/// mirror, per-cell SLO verdict tables with breach drill-downs, and the
/// sweep's live pool telemetry. Pure string in, string out — the binary
/// owns atomicity ([`mitts_sim::fsio::write_atomic_str`]).
pub fn html_report(
    cfg: &CapacityConfig,
    cells: &[CapacityCell],
    points: &[FrontierPoint],
    artifacts: &[String],
    telemetry: &PoolTelemetry,
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    s.push_str(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>MITTS capacity report</title>\
         <style>body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:960px;color:#222}\
         table{border-collapse:collapse;margin:0.7em 0}td,th{border:1px solid #bbb;padding:3px 9px;\
         text-align:right}th{background:#eee}td:first-child,th:first-child{text-align:left}\
         tr.bad td{background:#fdd}tr.ok td{background:#efe}h2{margin-top:1.6em}</style></head><body>",
    );
    s.push_str("<h1>MITTS capacity report</h1>");
    write!(
        s,
        "<p>Max sustainable open-loop load per tenant before the SLO breaks: \
         p99 memory latency &le; {p99} cycles, stall rate &le; {stall}{ipc}, \
         warmup {warm} epoch(s), violation tolerance {tol}. \
         {tenants} tenants, {epoch}-cycle epochs, {run} cycles per probe, \
         ramp {lo}&ndash;{hi} rps by {inc}, {bis} bisection steps.</p>",
        p99 = cfg.slo.p99_latency,
        stall = cfg.slo.max_stall_rate,
        ipc = match cfg.slo.min_ipc {
            Some(v) => format!(", IPC &ge; {v}"),
            None => String::new(),
        },
        warm = cfg.slo.warmup_epochs,
        tol = cfg.slo.max_violation_fraction,
        tenants = cfg.tenants,
        epoch = cfg.epoch,
        run = cfg.run_cycles,
        lo = cfg.initial_rps,
        hi = cfg.max_rps,
        inc = cfg.increment_rps,
        bis = cfg.bisect_steps,
    )
    .unwrap();
    s.push_str("<h2>Capacity frontier</h2>");
    s.push_str(&frontier_svg(points, cfg.max_rps));
    s.push_str(
        "<table><tr><th>shaper</th><th>scheduler</th><th>max sustainable rps</th>\
         <th>probes</th><th>censored</th></tr>",
    );
    for p in points {
        write!(
            s,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&p.shaper),
            esc(&p.scheduler),
            p.max_sustainable_rps,
            p.probes,
            p.censored,
        )
        .unwrap();
    }
    s.push_str("</table>");
    s.push_str("<h2>Per-cell SLO verdicts</h2>");
    for (cell, artifact) in cells.iter().zip(artifacts) {
        match parse_cell_artifact(artifact) {
            Ok(rows) => s.push_str(&cell_html(cell, &rows)),
            Err(e) => {
                write!(s, "<h3>{}</h3><p class=\"bad\">artifact unreadable: {}</p>",
                    esc(&cell.experiment_name()), esc(&e)).unwrap();
            }
        }
    }
    s.push_str("<h2>Sweep pool telemetry</h2>");
    s.push_str(&telemetry_html(telemetry));
    s.push_str("</body></html>");
    s
}

/// Structural self-check of a rendered report: all the pieces the CI
/// gate relies on must actually be present.
///
/// # Errors
///
/// Returns what is missing or inconsistent.
pub fn validate_report(html: &str, expected_cells: usize) -> Result<(), String> {
    for marker in ["<!DOCTYPE html>", "</html>", "Capacity frontier", "Sweep pool telemetry", "<svg"] {
        if !html.contains(marker) {
            return Err(format!("report is missing {marker:?}"));
        }
    }
    let verdict_tables = html.matches("<h3>").count();
    if verdict_tables != expected_cells {
        return Err(format!(
            "report has {verdict_tables} verdict tables, expected {expected_cells}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bit-exactness differential
// ---------------------------------------------------------------------------

/// Runs one fixed capacity probe under `engine`, with the metrics
/// registry installed or not. Returns the *simulation digest* (final
/// cycle, stats, audit log — must be byte-identical across all engines
/// × metrics-on/off: the registry is a pure observer and must never
/// perturb simulation results) and the snapshot fingerprint (must be
/// engine-invariant *within* each metrics mode; snapshots legitimately
/// differ between modes because the observer's own event-stream state
/// is snapshotted so a resumed run keeps tracing correctly).
///
/// The snapshot covers every shaper's encoded state, so the
/// fingerprint equality also pins grant ledgers and live credits.
pub fn capacity_digest(engine: Engine, with_metrics: bool) -> (String, String) {
    use std::fmt::Write;
    let cfg = CapacityConfig::smoke();
    let cell = CapacityCell {
        shaper_name: "mitts-1gbs".to_owned(),
        scheduler: "FR-FCFS".to_owned(),
        shaper: ShaperSpec::Mitts(mitts_1gbs()),
    };
    let metrics = with_metrics.then(|| Rc::new(RefCell::new(MetricsRegistry::new())));
    let mut sys = build_probe(&cell, &cfg, 17_000_000, engine, metrics.clone());
    sys.run_cycles(cfg.run_cycles);
    let snap = sys.snapshot().expect("probe snapshot");
    let mut out = String::new();
    writeln!(out, "now={}", sys.now()).unwrap();
    writeln!(out, "stats={:?}", sys.system_stats()).unwrap();
    writeln!(out, "audit={:?}", sys.audit_log()).unwrap();
    if let Some(m) = &metrics {
        // Sanity only (not compared across arms): the registry did see
        // the run when installed.
        assert!(m.borrow().events_seen() > 0, "metrics sink saw no events");
    }
    (out, format!("snapshot=fnv64:{:016x}", fnv1a(&snap.to_bytes())))
}

/// Reports the first diverging line between two digests: its 1-based
/// number and both sides (line 0 when one digest is a prefix of the
/// other).
pub(crate) fn first_divergence(reference: &str, digest: &str) -> (usize, String, String) {
    reference
        .lines()
        .zip(digest.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| (i + 1, a.to_owned(), b.to_owned()))
        .unwrap_or((0, "<digest lengths differ>".to_owned(), String::new()))
}

/// Byte-diffs the capacity probe across both engines × metrics-on/off:
/// simulation digests against the (naive, metrics-off) reference, and
/// snapshot fingerprints against the naive arm of the same metrics
/// mode.
///
/// # Errors
///
/// Returns the first diverging digest line.
pub fn capacity_engine_checks() -> Result<(), String> {
    let (sim_ref, snap_off_ref) = capacity_digest(Engine::Naive, false);
    let (_, snap_on_ref) = capacity_digest(Engine::Naive, true);
    for engine in [Engine::Naive, Engine::Skip] {
        for with_metrics in [false, true] {
            let (sim, snap) = capacity_digest(engine, with_metrics);
            if sim != sim_ref {
                let (line, want, got) = first_divergence(&sim_ref, &sim);
                return Err(format!(
                    "{engine:?} metrics={with_metrics} diverged from (Naive, metrics=off) \
                     at digest line {line}:\n  reference: {want}\n  got:       {got}"
                ));
            }
            let snap_ref = if with_metrics { &snap_on_ref } else { &snap_off_ref };
            if &snap != snap_ref {
                return Err(format!(
                    "{engine:?} metrics={with_metrics} snapshot diverged from Naive \
                     (same metrics mode):\n  reference: {snap_ref}\n  got:       {snap}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::render_tables;

    fn smoke_cell(shaper_name: &str, scheduler: &str) -> CapacityCell {
        let shaper = match shaper_name {
            "unshaped" => ShaperSpec::Unlimited,
            "mitts-1gbs" => ShaperSpec::Mitts(mitts_1gbs()),
            other => panic!("unknown test shaper {other}"),
        };
        CapacityCell {
            shaper_name: shaper_name.to_owned(),
            scheduler: scheduler.to_owned(),
            shaper,
        }
    }

    #[test]
    fn matrix_covers_required_cells() {
        let smoke = matrix(true);
        assert_eq!(smoke.len(), 4, "2 shaper configs x 2 schedulers");
        let full = matrix(false);
        assert_eq!(full.len(), 15, "5 shaper configs x 3 schedulers");
        let shapers: std::collections::BTreeSet<_> =
            smoke.iter().map(|c| c.shaper_name.as_str()).collect();
        let scheds: std::collections::BTreeSet<_> =
            smoke.iter().map(|c| c.scheduler.as_str()).collect();
        assert!(shapers.len() >= 2 && scheds.len() >= 2);
        // The full matrix must cover the whole shaper family under BLISS
        // as well as the rank/streak baselines.
        let full_shapers: std::collections::BTreeSet<_> =
            full.iter().map(|c| c.shaper_name.as_str()).collect();
        let full_scheds: std::collections::BTreeSet<_> =
            full.iter().map(|c| c.scheduler.as_str()).collect();
        for s in ["unshaped", "mitts-1gbs", "static-1gbs", "cbs-1gbs", "regulator-1gbs"] {
            assert!(full_shapers.contains(s), "missing shaper {s}");
        }
        for s in ["FR-FCFS", "TCM", "BLISS"] {
            assert!(full_scheds.contains(s), "missing scheduler {s}");
        }
    }

    #[test]
    fn probe_is_deterministic() {
        let cfg = CapacityConfig::smoke();
        let cell = smoke_cell("mitts-1gbs", "FR-FCFS");
        let a = probe_load(&cell, &cfg, 9_000_000).unwrap();
        let b = probe_load(&cell, &cfg, 9_000_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_truncated_sample_series_fails_the_probe() {
        let mut cfg = CapacityConfig::smoke();
        cfg.tenants = 1;
        cfg.epoch = 1;
        cfg.run_cycles = mitts_sim::obs::Sampler::DEFAULT_MAX_ROWS as Cycle + 100;
        let cell = smoke_cell("unshaped", "FR-FCFS");
        let err = probe_load(&cell, &cfg, 9_000_000).expect_err("rows past the cap were dropped");
        assert_eq!(
            err,
            TruncatedSeries {
                retained: mitts_sim::obs::Sampler::DEFAULT_MAX_ROWS as u64,
                boundaries: cfg.run_cycles - 1,
            }
        );
        assert!(err.to_string().starts_with("truncated sample series"), "{err}");
    }

    /// The two latency definitions agree: each epoch's lifecycle `Fill`
    /// latencies, folded between `Sample` events, give exactly the sample
    /// row's share of the core's `mem_latency` histogram. One probe per
    /// capacity shaper arm, healthy and overloaded, under both engines.
    #[test]
    fn fill_events_fold_to_the_sample_rows_latency_buckets() {
        use mitts_sim::histogram::LatencyHistogram;
        use mitts_sim::obs::{RingSink, TraceEvent};
        let cfg = CapacityConfig::smoke();
        let arms: Vec<_> =
            matrix(false).into_iter().filter(|c| c.scheduler == "FR-FCFS").collect();
        assert_eq!(arms.len(), 5, "one cell per shaper arm");
        for cell in &arms {
            for rps in [cfg.initial_rps, cfg.max_rps] {
                for engine in [Engine::Naive, Engine::Skip] {
                    let tag = format!("{} at {rps} rps, {engine:?}", cell.shaper_name);
                    let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
                    let mut sys = probe_builder(cell, &cfg, rps, engine)
                        .trace_sink(Box::new(Rc::clone(&sink)))
                        .build();
                    sys.run_cycles(cfg.run_cycles);
                    let sink = sink.borrow();
                    assert_eq!(sink.dropped(), 0, "{tag}: ring overflowed");
                    let mut folded = vec![LatencyHistogram::new(); cfg.tenants];
                    let (mut epochs, mut fills) = (0, 0);
                    for ev in sink.events() {
                        match ev {
                            TraceEvent::Fill { core, lat, .. } => folded[*core].record(lat.total()),
                            TraceEvent::Sample(row) => {
                                epochs += 1;
                                for c in &row.cores {
                                    let f = &folded[c.core];
                                    let at = format!("{tag}, epoch {}, core {}", row.epoch, c.core);
                                    assert_eq!(f.count(), c.latency.count(), "{at}: fill count");
                                    assert_eq!(f.buckets(), c.latency, "{at}: buckets");
                                    fills += f.count();
                                }
                                folded.fill(LatencyHistogram::new());
                            }
                            _ => {}
                        }
                    }
                    assert_eq!(epochs, sys.samples().len(), "{tag}");
                    assert!(fills > 0, "{tag}: no fills to compare");
                }
            }
        }
    }

    #[test]
    fn knee_search_brackets_a_frontier() {
        let cfg = CapacityConfig::smoke();
        let cell = smoke_cell("unshaped", "FR-FCFS");
        let (point, records) = find_knee(&cell, &cfg).unwrap();
        assert_eq!(point.probes, records.len() as u64);
        assert!(point.max_sustainable_rps <= cfg.max_rps);
        if !point.censored {
            // The frontier must be a probed passing load (or 0), below
            // the first failing load.
            let first_fail = records
                .iter()
                .find(|r| !r.verdict.ok)
                .map(|r| r.rps)
                .expect("non-censored knee has a failing probe");
            assert!(point.max_sustainable_rps < first_fail);
        }
    }

    #[test]
    fn artifact_round_trips_through_the_parser() {
        let cfg = CapacityConfig::smoke();
        let cell = smoke_cell("mitts-1gbs", "TCM");
        let (point, records) = find_knee(&cell, &cfg).unwrap();
        let rendered = render_tables(&[cell_table(&cell, &point, &records)]);
        let parsed = frontier_from_artifact(&cell, &rendered).expect("parseable artifact");
        assert_eq!(parsed.max_sustainable_rps, point.max_sustainable_rps);
        assert_eq!(parsed.probes, point.probes);
        assert_eq!(parsed.censored, point.censored);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_cell_artifact("").is_err());
        assert!(parse_cell_artifact("knee not-a-number frontier 3 - -").is_err());
        let text = "ramp1 5 pass 4\n"; // wrong column count
        assert!(parse_cell_artifact(text).is_err());
    }

    #[test]
    fn report_validates_and_flags_missing_sections() {
        let cfg = CapacityConfig::smoke();
        let cells = vec![smoke_cell("unshaped", "FR-FCFS")];
        let points = vec![FrontierPoint {
            shaper: "unshaped".to_owned(),
            scheduler: "FR-FCFS".to_owned(),
            max_sustainable_rps: 10,
            probes: 3,
            censored: false,
        }];
        let artifacts =
            vec!["ramp1 10 pass 5 0 -\nknee 10 frontier 3 - -\n".to_owned()];
        let tel = PoolTelemetry {
            jobs: 1,
            wall_ms: 5,
            workers: vec![Default::default()],
            queue_depth: vec![(0, 1), (5, 0)],
            storage: Default::default(),
        };
        let html = html_report(&cfg, &cells, &points, &artifacts, &tel);
        validate_report(&html, 1).expect("well-formed report");
        assert!(validate_report(&html, 2).is_err(), "cell count is checked");
        assert!(validate_report("<html></html>", 0).is_err());
    }

    #[test]
    fn engines_and_metrics_do_not_change_the_probe() {
        capacity_engine_checks().expect("capacity probe must be engine- and metrics-invariant");
    }
}
