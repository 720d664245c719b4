//! DDR3 legality oracle: replays dispatch records against the device
//! timing constraints.
//!
//! It is the simulator's only DDR3 checker. The invariant auditor feeds it
//! every dispatch, and it records each finding in the auditor's log as
//! `Invariant::DramTiming`.
//!
//! [`DramOracle`] keeps its own per-channel shadow of the DDR3 state
//! machine — open rows, precharge fences, rank ACT window, data-bus and
//! write-to-read fences, refresh schedule — advanced **only by the
//! dispatch records' own values**. Every [`crate::dram::DramServiceTiming`]
//! record is then checked against the constraints the shadow state
//! implies:
//!
//! * the dispatch itself must be legal (bank ready, refresh fence over);
//! * the claimed row-buffer outcome must match the shadow row state, and
//!   the address → (bank, row) mapping must match the address map;
//! * command ordering: `pre_at >= precharge_ok_at` (tRAS/tRTP/tWR),
//!   `act_at >= pre_at + tRP`, `act_at` within the rank tRRD window,
//!   `col_at >= act_at + tRCD`, ACT-to-ACT on the same bank >= tRC;
//! * data legality: burst starts after CAS latency (`tCL`/`tCWL`), after
//!   the shared bus frees, after the tWTR fence for reads, and occupies
//!   exactly one burst length.
//!
//! Because the shadow advances from observed values (not recomputed
//! ones), a single divergence is reported once instead of cascading.

use crate::audit::{AuditLog, AuditViolation, Invariant};
use crate::config::DramTimingCycles;
use crate::dram::{DramServiceTiming, RowOutcome};
use crate::types::{Addr, Cycle};

/// Shadow state of one DRAM bank.
#[derive(Debug, Clone, Copy)]
struct ShadowBank {
    open_row: Option<u64>,
    ready_at: Cycle,
    precharge_ok_at: Cycle,
    /// Most recent ACT on this bank; cleared when a refresh closes the
    /// bank (tRC is not checked across a refresh, which re-fences via
    /// `ready_at`/`precharge_ok_at` instead).
    last_act: Option<Cycle>,
}

/// Shadow state of one memory channel.
#[derive(Debug, Clone)]
struct ShadowChannel {
    banks: Vec<ShadowBank>,
    bus_free_at: Cycle,
    wtr_fence: Cycle,
    /// Earliest next ACT anywhere in the rank (tRRD).
    next_act_at: Cycle,
    /// Next all-bank refresh boundary (`Cycle::MAX` when disabled).
    next_refresh: Cycle,
}

impl ShadowChannel {
    fn new(banks: usize, t_refi: Cycle) -> Self {
        ShadowChannel {
            banks: vec![
                ShadowBank {
                    open_row: None,
                    ready_at: 0,
                    precharge_ok_at: 0,
                    last_act: None,
                };
                banks
            ],
            bus_free_at: 0,
            wtr_fence: 0,
            next_act_at: 0,
            next_refresh: if t_refi == 0 { Cycle::MAX } else { t_refi },
        }
    }

    /// Mirrors `Dram::apply_refresh`: close every row, fence every bank
    /// until `boundary + tRFC`.
    fn apply_refresh(&mut self, now: Cycle, t_refi: Cycle, t_rfc: Cycle) {
        while now >= self.next_refresh {
            let fence = self.next_refresh + t_rfc;
            for bank in &mut self.banks {
                bank.open_row = None;
                bank.ready_at = bank.ready_at.max(fence);
                bank.precharge_ok_at = bank.precharge_ok_at.max(fence);
                bank.last_act = None;
            }
            self.next_refresh += t_refi.max(1);
        }
    }
}

/// Replays dispatch records against DDR3 timing legality.
#[derive(Debug, Clone)]
pub struct DramOracle {
    timing: DramTimingCycles,
    banks: usize,
    /// Columns per row (row_bytes / 64): the address map's divisor.
    columns_per_row: u64,
    /// Row-buffer bytes: the channel-interleave granularity.
    row_bytes: u64,
    channels: Vec<ShadowChannel>,
    dispatches: u64,
}

impl DramOracle {
    /// Creates an oracle for `channels` identical channels with the given
    /// timing (CPU cycles), bank count, and row size in bytes.
    pub fn new(timing: DramTimingCycles, banks: usize, row_bytes: u64, channels: usize) -> Self {
        assert!(banks >= 1 && channels >= 1 && row_bytes >= 64);
        DramOracle {
            timing,
            banks,
            columns_per_row: row_bytes / 64,
            row_bytes,
            channels: (0..channels)
                .map(|_| ShadowChannel::new(banks, timing.t_refi))
                .collect(),
            dispatches: 0,
        }
    }

    /// Convenience constructor from a full system configuration.
    pub fn from_system_config(config: &crate::config::SystemConfig) -> Self {
        DramOracle::new(
            config.dram.timing_cycles(config.core.freq_hz),
            config.dram.banks,
            config.dram.row_bytes as u64,
            config.mc.channels,
        )
    }

    /// Number of dispatch records checked.
    pub fn dispatches_checked(&self) -> u64 {
        self.dispatches
    }

    /// Encodes the shadow DDR3 state and the dispatch count (checkpoint
    /// support).
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64(self.dispatches);
        enc.usize(self.channels.len());
        for ch in &self.channels {
            enc.usize(ch.banks.len());
            for b in &ch.banks {
                enc.opt_u64(b.open_row);
                enc.u64(b.ready_at);
                enc.u64(b.precharge_ok_at);
                enc.opt_u64(b.last_act);
            }
            enc.u64(ch.bus_free_at);
            enc.u64(ch.wtr_fence);
            enc.u64(ch.next_act_at);
            enc.u64(ch.next_refresh);
        }
    }

    /// Restores state written by [`DramOracle::save_state`]. A shadow of
    /// another channel or bank count is a `Mismatch`.
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        self.dispatches = dec.u64()?;
        let channels = dec.usize()?;
        if channels != self.channels.len() {
            return Err(SnapshotError::mismatch(format!(
                "DRAM oracle shadows {channels} channels in the snapshot but {} configured",
                self.channels.len()
            )));
        }
        for ch in &mut self.channels {
            let banks = dec.usize()?;
            if banks != ch.banks.len() {
                return Err(SnapshotError::mismatch(format!(
                    "DRAM oracle shadows {banks} banks in the snapshot but {} configured",
                    ch.banks.len()
                )));
            }
            for b in &mut ch.banks {
                b.open_row = dec.opt_u64()?;
                b.ready_at = dec.u64()?;
                b.precharge_ok_at = dec.u64()?;
                b.last_act = dec.opt_u64()?;
            }
            ch.bus_free_at = dec.u64()?;
            ch.wtr_fence = dec.u64()?;
            ch.next_act_at = dec.u64()?;
            ch.next_refresh = dec.u64()?;
        }
        Ok(())
    }

    fn report(log: &mut AuditLog, at: Cycle, channel: usize, detail: String) {
        log.record(AuditViolation {
            cycle: at,
            invariant: Invariant::DramTiming,
            core: None,
            detail: format!("channel {channel}: {detail}"),
        });
    }

    /// Checks one dispatch record, recording each finding in `log`, and
    /// advances the shadow state.
    pub fn check(
        &mut self,
        at: Cycle,
        channel: usize,
        line: Addr,
        write: bool,
        svc: &DramServiceTiming,
        log: &mut AuditLog,
    ) {
        self.dispatches += 1;
        let t = self.timing;

        if channel >= self.channels.len() {
            Self::report(log, at, channel, format!("channel {channel} out of range"));
            return;
        }
        let expect_ch = ((line / self.row_bytes) % self.channels.len() as u64) as usize;
        if expect_ch != channel {
            Self::report(
                log,
                at,
                channel,
                format!("address {line:#x} interleaves to channel {expect_ch}, not {channel}"),
            );
        }

        // Independent row:bank:column address decomposition.
        let within = (line / 64) / self.columns_per_row;
        let bank_idx = (within % self.banks as u64) as usize;
        let row = within / self.banks as u64;
        if svc.bank != bank_idx || svc.row != row {
            Self::report(
                log,
                at,
                channel,
                format!(
                    "address {line:#x} maps to bank {bank_idx} row {row}, \
                     record claims bank {} row {}",
                    svc.bank, svc.row
                ),
            );
            return; // bank state below would be meaningless
        }

        let mut issues: Vec<String> = Vec::new();
        let ch = &mut self.channels[channel];
        ch.apply_refresh(at, t.t_refi, t.t_rfc);
        let bank = ch.banks[bank_idx];

        // Dispatch legality: the bank (and any refresh fence folded into
        // `ready_at` above) must be free.
        if bank.ready_at > at {
            issues.push(format!(
                "dispatched at {at} while bank {bank_idx} busy until {}",
                bank.ready_at
            ));
        }

        // Row-buffer outcome must match the shadow row state.
        let expected = match bank.open_row {
            Some(r) if r == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        };
        if svc.outcome != expected {
            issues.push(format!(
                "outcome {} but bank {bank_idx} open row {:?} implies {}",
                svc.outcome.label(),
                bank.open_row,
                expected.label()
            ));
        }

        // Command sequencing for the claimed outcome.
        match svc.outcome {
            RowOutcome::Hit => {
                if svc.act_at.is_some() || svc.pre_at.is_some() {
                    issues.push("row hit must not issue ACT or PRE".to_owned());
                }
                if svc.col_at < at {
                    issues.push(format!("column at {} before dispatch at {at}", svc.col_at));
                }
            }
            RowOutcome::Miss | RowOutcome::Conflict => {
                let Some(act) = svc.act_at else {
                    issues.push(format!("{} without an ACT stamp", svc.outcome.label()));
                    Self::push_issues(log, at, channel, issues);
                    return;
                };
                if svc.outcome == RowOutcome::Conflict {
                    let Some(pre) = svc.pre_at else {
                        issues.push("conflict without a PRE stamp".to_owned());
                        Self::push_issues(log, at, channel, issues);
                        return;
                    };
                    if pre < at {
                        issues.push(format!("PRE at {pre} before dispatch at {at}"));
                    }
                    if pre < bank.precharge_ok_at {
                        issues.push(format!(
                            "PRE at {pre} violates precharge fence {} \
                             (tRAS/tRTP/tWR) on bank {bank_idx}",
                            bank.precharge_ok_at
                        ));
                    }
                    if act < pre + t.t_rp {
                        issues.push(format!(
                            "ACT at {act} violates tRP={} after PRE at {pre}",
                            t.t_rp
                        ));
                    }
                } else {
                    if svc.pre_at.is_some() {
                        issues.push("row miss must not issue PRE".to_owned());
                    }
                    if act < at {
                        issues.push(format!("ACT at {act} before dispatch at {at}"));
                    }
                }
                if act < ch.next_act_at {
                    issues.push(format!(
                        "ACT at {act} violates rank tRRD window (earliest {})",
                        ch.next_act_at
                    ));
                }
                if let Some(prev) = bank.last_act {
                    let trc = t.t_ras + t.t_rp;
                    if act < prev + trc {
                        issues.push(format!(
                            "ACT at {act} violates tRC={trc} after ACT at {prev} \
                             on bank {bank_idx}"
                        ));
                    }
                }
                if svc.col_at < act + t.t_rcd {
                    issues.push(format!(
                        "column at {} violates tRCD={} after ACT at {act}",
                        svc.col_at, t.t_rcd
                    ));
                }
            }
        }

        // Data-burst legality on the shared bus.
        let cas = if write { t.t_cwl } else { t.t_cl };
        if svc.data_start < svc.col_at + cas {
            issues.push(format!(
                "data at {} violates CAS latency {cas} after column at {}",
                svc.data_start, svc.col_at
            ));
        }
        if svc.data_start < ch.bus_free_at {
            issues.push(format!(
                "data at {} overlaps bus busy until {}",
                svc.data_start, ch.bus_free_at
            ));
        }
        if !write && svc.data_start < ch.wtr_fence {
            issues.push(format!(
                "read burst at {} violates tWTR fence {}",
                svc.data_start, ch.wtr_fence
            ));
        }
        if svc.data_end != svc.data_start + t.burst {
            issues.push(format!(
                "burst [{}, {}] is not exactly {} cycles",
                svc.data_start, svc.data_end, t.burst
            ));
        }

        // Advance the shadow from the record's own values (open-page).
        let bank = &mut ch.banks[bank_idx];
        bank.open_row = Some(row);
        let ras_fence = match svc.act_at {
            Some(act) => act + t.t_ras,
            None => bank.precharge_ok_at,
        };
        let col_fence = if write {
            svc.data_end + t.t_wr
        } else {
            svc.col_at + t.t_rtp
        };
        bank.precharge_ok_at = ras_fence.max(col_fence);
        bank.ready_at = svc.col_at + t.burst.max(4);
        if let Some(act) = svc.act_at {
            bank.last_act = Some(act);
            ch.next_act_at = act + t.t_rrd;
        }
        ch.bus_free_at = svc.data_end;
        if write {
            ch.wtr_fence = svc.data_end + t.t_wtr;
        }

        Self::push_issues(log, at, channel, issues);
    }

    fn push_issues(log: &mut AuditLog, at: Cycle, channel: usize, issues: Vec<String>) {
        for detail in issues {
            Self::report(log, at, channel, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::dram::Dram;
    use crate::rng::Rng;
    use crate::types::MemCmd;

    const FREQ: f64 = 2.4e9;

    fn oracle_for(cfg: &DramConfig) -> DramOracle {
        DramOracle::new(cfg.timing_cycles(FREQ), cfg.banks, cfg.row_bytes as u64, 1)
    }

    /// Drives the real DRAM model with a seeded random request mix and
    /// feeds every `last_service` record to the oracle: the model must
    /// be self-consistently legal.
    #[test]
    fn differential_replay_of_real_model_is_clean() {
        let cfg = DramConfig::default();
        let mut dram: Dram<u32> = Dram::new(&cfg, FREQ);
        let mut oracle = oracle_for(&cfg);
        let mut log = AuditLog::new(64);
        let mut rng = Rng::seeded(0xD12A);
        let mut now: Cycle = 0;
        let mut dispatched = 0u32;
        while dispatched < 400 {
            // A mix of row-local and far addresses to exercise hits,
            // misses, conflicts, tRRD, and the bus/wtr fences.
            let addr: Addr = if rng.chance(0.5) {
                rng.below(4) * 64 // same rows, hits + conflicts
            } else {
                rng.below(1 << 20) * 64
            };
            let cmd = if rng.chance(0.3) { MemCmd::Write } else { MemCmd::Read };
            if dram.can_start(now, addr) {
                dram.start(now, addr, cmd, dispatched);
                let svc = dram.last_service().expect("service recorded");
                oracle.check(now, 0, addr, !cmd.is_read(), &svc, &mut log);
                dispatched += 1;
            }
            now += 1 + rng.below(8);
        }
        assert!(
            log.violations().is_empty(),
            "model/oracle divergence: {:?}",
            log.violations()
        );
        assert_eq!(oracle.dispatches_checked(), 400);
    }

    /// Same replay, but crossing many refresh boundaries: the shadow
    /// refresh schedule must stay in lockstep with the model's.
    #[test]
    fn differential_replay_across_refresh_is_clean() {
        let cfg = DramConfig {
            t_refi_ns: 200.0, // refresh every ~480 cycles
            t_rfc_ns: 60.0,
            ..DramConfig::default()
        };
        let mut dram: Dram<u32> = Dram::new(&cfg, FREQ);
        let mut oracle = oracle_for(&cfg);
        let mut log = AuditLog::new(64);
        let mut rng = Rng::seeded(0xBEEF);
        let mut now: Cycle = 0;
        let mut dispatched = 0u32;
        while dispatched < 300 {
            let addr: Addr = rng.below(1 << 16) * 64;
            if dram.can_start(now, addr) {
                dram.start(now, addr, MemCmd::Read, dispatched);
                let svc = dram.last_service().expect("service recorded");
                oracle.check(now, 0, addr, false, &svc, &mut log);
                dispatched += 1;
            }
            now += 1 + rng.below(16);
        }
        assert!(
            log.violations().is_empty(),
            "refresh divergence: {:?}",
            log.violations()
        );
    }

    fn legal_miss_record(t: &DramTimingCycles, at: Cycle) -> DramServiceTiming {
        DramServiceTiming {
            bank: 0,
            row: 0,
            outcome: RowOutcome::Miss,
            act_at: Some(at),
            pre_at: None,
            col_at: at + t.t_rcd,
            data_start: at + t.t_rcd + t.t_cl,
            data_end: at + t.t_rcd + t.t_cl + t.burst,
        }
    }

    #[test]
    fn trcd_violation_is_flagged() {
        let cfg = DramConfig::default();
        let t = cfg.timing_cycles(FREQ);
        let mut oracle = oracle_for(&cfg);
        let mut log = AuditLog::new(64);
        let mut svc = legal_miss_record(&t, 10);
        svc.col_at -= 1; // column one cycle too early
        svc.data_start -= 1;
        svc.data_end -= 1;
        oracle.check(10, 0, 0, false, &svc, &mut log);
        assert!(log.violations().iter().any(|v| v.detail.contains("tRCD")));
    }

    #[test]
    fn cas_latency_violation_is_flagged() {
        let cfg = DramConfig::default();
        let t = cfg.timing_cycles(FREQ);
        let mut oracle = oracle_for(&cfg);
        let mut log = AuditLog::new(64);
        let mut svc = legal_miss_record(&t, 10);
        svc.data_start -= 2;
        svc.data_end -= 2;
        oracle.check(10, 0, 0, false, &svc, &mut log);
        assert!(log.violations().iter().any(|v| v.detail.contains("CAS")));
    }

    #[test]
    fn wrong_outcome_and_bank_are_flagged() {
        let cfg = DramConfig::default();
        let t = cfg.timing_cycles(FREQ);
        let mut oracle = oracle_for(&cfg);
        let mut log = AuditLog::new(64);
        let mut svc = legal_miss_record(&t, 10);
        svc.outcome = RowOutcome::Hit; // bank is closed: must be a miss
        svc.act_at = None;
        oracle.check(10, 0, 0, false, &svc, &mut log);
        assert!(log.violations().iter().any(|v| v.detail.contains("implies miss")));

        let mut oracle = oracle_for(&cfg);
        let mut log = AuditLog::new(64);
        let mut svc = legal_miss_record(&t, 10);
        svc.bank = 3; // address 0 maps to bank 0
        oracle.check(10, 0, 0, false, &svc, &mut log);
        assert!(log.violations().iter().any(|v| v.detail.contains("maps to bank")));
    }

    #[test]
    fn bus_overlap_is_flagged() {
        let cfg = DramConfig::default();
        let t = cfg.timing_cycles(FREQ);
        let mut oracle = oracle_for(&cfg);
        let mut log = AuditLog::new(64);
        let svc = legal_miss_record(&t, 0);
        oracle.check(0, 0, 0, false, &svc, &mut log);
        // Second dispatch on another bank whose burst lands on the bus
        // while the first burst is still draining.
        let addr2: Addr = 8 * 1024; // bank 1
        let svc2 = DramServiceTiming {
            bank: 1,
            row: 0,
            outcome: RowOutcome::Miss,
            act_at: Some(t.t_rrd),
            pre_at: None,
            col_at: t.t_rrd + t.t_rcd,
            data_start: svc.data_start + 1, // inside the first burst
            data_end: svc.data_start + 1 + t.burst,
        };
        oracle.check(1, 0, addr2, false, &svc2, &mut log);
        assert!(log.violations().iter().any(|v| v.detail.contains("overlaps bus")));
    }

    #[test]
    fn busy_bank_redispatch_is_flagged() {
        let cfg = DramConfig::default();
        let t = cfg.timing_cycles(FREQ);
        let mut oracle = oracle_for(&cfg);
        let mut log = AuditLog::new(64);
        let svc = legal_miss_record(&t, 0);
        oracle.check(0, 0, 0, false, &svc, &mut log);
        // Bank 0 is busy until col + burst; a hit dispatched immediately
        // after is illegal even with otherwise-consistent stamps.
        let svc2 = DramServiceTiming {
            bank: 0,
            row: 0,
            outcome: RowOutcome::Hit,
            act_at: None,
            pre_at: None,
            col_at: 2,
            data_start: svc.data_end,
            data_end: svc.data_end + t.burst,
        };
        oracle.check(2, 0, 0, false, &svc2, &mut log);
        assert!(log.violations().iter().any(|v| v.detail.contains("busy")));
    }

    #[test]
    fn mutated_timing_constants_are_detected() {
        // Run the real model, check with an oracle whose constants are
        // inflated: each mutation must produce at least one violation.
        let cfg = DramConfig::default();
        let base = cfg.timing_cycles(FREQ);
        let mutations: Vec<(&str, DramTimingCycles)> = vec![
            ("t_rcd", DramTimingCycles { t_rcd: base.t_rcd + 4, ..base }),
            ("t_cl", DramTimingCycles { t_cl: base.t_cl + 4, ..base }),
            ("burst", DramTimingCycles { burst: base.burst + 2, ..base }),
            ("t_rp", DramTimingCycles { t_rp: base.t_rp + 4, ..base }),
            ("t_rrd", DramTimingCycles { t_rrd: base.t_rrd + 6, ..base }),
        ];
        for (name, mutated) in mutations {
            let mut dram: Dram<u32> = Dram::new(&cfg, FREQ);
            let mut oracle =
                DramOracle::new(mutated, cfg.banks, cfg.row_bytes as u64, 1);
            let mut log = AuditLog::new(64);
            let mut rng = Rng::seeded(0xC0FFEE);
            let mut now: Cycle = 0;
            let mut dispatched = 0u32;
            while dispatched < 300 {
                let addr: Addr = if rng.chance(0.5) {
                    rng.below(4) * 64
                } else {
                    rng.below(1 << 20) * 64
                };
                if dram.can_start(now, addr) {
                    dram.start(now, addr, MemCmd::Read, dispatched);
                    let svc = dram.last_service().expect("service recorded");
                    oracle.check(now, 0, addr, false, &svc, &mut log);
                    dispatched += 1;
                }
                now += 1 + rng.below(4);
            }
            assert!(
                !log.violations().is_empty(),
                "inflating {name} was not detected by the oracle"
            );
        }
    }
}
