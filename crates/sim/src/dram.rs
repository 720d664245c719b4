//! DDR3 DRAM timing model (the DRAMSim2 substitute).
//!
//! Models one channel with one rank of `B` banks, each with an open-row
//! (row-buffer) state machine, plus a shared data bus. The first-order
//! effects that memory schedulers exploit are reproduced:
//!
//! * **row hit** — column command only: `tCL + burst`;
//! * **row miss** (bank closed) — `tRCD + tCL + burst`;
//! * **row conflict** (other row open) — `tRP + tRCD + tCL + burst`;
//! * bank-level parallelism across the 8 banks;
//! * serialisation of bursts on the shared data bus;
//! * `tRAS` / `tRTP` / `tWR` restrictions on early precharge and `tRRD`
//!   between activations.
//!
//! Transactions are scheduled at transaction granularity: once the
//! controller dispatches a transaction to a bank, the model computes the
//! legal timestamps for the implicit PRE/ACT/column commands and reserves
//! the data bus.

use crate::config::{DramConfig, DramTimingCycles};
use crate::types::{Addr, Cycle, MemCmd};

/// Decoded DRAM coordinates of a line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Bank index within the rank.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
}

/// Address mapping: row:bank:column with 64 B columns.
///
/// Consecutive lines walk the columns of a row in one bank, so streaming
/// access patterns produce row hits; the bank index comes from the bits
/// just above the column so different 8 KB regions spread across banks.
///
/// Both the bank count and the row size are powers of two, so the decode
/// is a shift and a mask: every scheduler pick decodes each queued
/// candidate, and a division there is paid many times per cycle.
#[derive(Debug, Clone, Copy)]
pub struct AddressMap {
    /// log2 of the row size in bytes: the column and byte-offset bits.
    row_shift: u32,
    /// log2 of the bank count.
    bank_bits: u32,
    bank_mask: u64,
}

impl AddressMap {
    /// Builds the mapping for the given organisation.
    ///
    /// # Panics
    ///
    /// Panics unless `banks` is a power of two and `row_bytes` is a power
    /// of two of at least 64 ([`crate::config::SystemConfig::validate`]
    /// reports the same condition as a
    /// [`crate::config::ConfigError::BadDramGeometry`]).
    pub fn new(config: &DramConfig) -> Self {
        if let Err(detail) = config.check_geometry() {
            panic!("{detail}");
        }
        AddressMap {
            row_shift: config.row_bytes.trailing_zeros(),
            bank_bits: config.banks.trailing_zeros(),
            bank_mask: config.banks as u64 - 1,
        }
    }

    /// Maps a byte address to its bank and row.
    pub fn coord(&self, addr: Addr) -> DramCoord {
        let within = addr >> self.row_shift;
        DramCoord {
            bank: (within & self.bank_mask) as usize,
            row: within >> self.bank_bits,
        }
    }
}

/// Visible status of a single bank, exposed to schedulers so row-hit-aware
/// policies (FR-FCFS, TCM, ...) can make decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankStatus {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Earliest cycle a new transaction may start on this bank.
    pub ready_at: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept the next transaction's first
    /// command.
    ready_at: Cycle,
    /// Earliest cycle a precharge may be issued (tRAS/tRTP/tWR fences).
    precharge_ok_at: Cycle,
}

/// How an access interacted with its bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Column command only: the target row was already open.
    Hit,
    /// Bank was closed: ACT then column.
    Miss,
    /// Another row was open: PRE, ACT, then column.
    Conflict,
}

/// Full derived command timing of one dispatched transaction, recorded by
/// [`Dram::start`]. The auditor's DDR3 oracle checks it, and the trace
/// emits it as a `dram_dispatch` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramServiceTiming {
    /// Bank the access targeted.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
    /// When the implicit ACT issued (`None` on a row hit).
    pub act_at: Option<Cycle>,
    /// When the implicit PRE issued (`Some` only on a conflict).
    pub pre_at: Option<Cycle>,
    /// When the column command issued.
    pub col_at: Cycle,
    /// First cycle of the data burst on the shared bus.
    pub data_start: Cycle,
    /// Cycle the last data beat left the device (completion time).
    pub data_end: Cycle,
}

impl DramServiceTiming {
    /// Encodes the record (checkpoint support).
    pub(crate) fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.usize(self.bank);
        enc.u64(self.row);
        enc.u8(match self.outcome {
            RowOutcome::Hit => 0,
            RowOutcome::Miss => 1,
            RowOutcome::Conflict => 2,
        });
        enc.opt_u64(self.act_at);
        enc.opt_u64(self.pre_at);
        enc.u64(self.col_at);
        enc.u64(self.data_start);
        enc.u64(self.data_end);
    }

    /// Decodes a record written by [`DramServiceTiming::save_state`].
    pub(crate) fn load_state(
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(DramServiceTiming {
            bank: dec.usize()?,
            row: dec.u64()?,
            outcome: match dec.u8()? {
                0 => RowOutcome::Hit,
                1 => RowOutcome::Miss,
                2 => RowOutcome::Conflict,
                _ => return Err(crate::snapshot::SnapshotError::corrupt("invalid row outcome tag")),
            },
            act_at: dec.opt_u64()?,
            pre_at: dec.opt_u64()?,
            col_at: dec.u64()?,
            data_start: dec.u64()?,
            data_end: dec.u64()?,
        })
    }
}

/// One service completed by the DRAM: data for reads, write-done for
/// writes, tagged with the token the controller handed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion<T> {
    /// Opaque controller token (transaction id).
    pub token: T,
    /// Cycle the last data beat left the device.
    pub done_at: Cycle,
    /// Whether the access hit the open row.
    pub row_hit: bool,
}

/// The DRAM channel model.
///
/// The controller calls [`Dram::can_start`] / [`Dram::start`] to dispatch
/// one transaction per cycle, and [`Dram::drain_completions`] to collect
/// finished transactions.
///
/// The model does not check its own legality. Each dispatch's derived
/// timing ([`Dram::last_service`]) is logged by the controller, and the
/// invariant auditor replays it against [`crate::oracle::DramOracle`], an
/// independent DDR3 shadow, whenever auditing is enabled.
#[derive(Debug, Clone)]
pub struct Dram<T> {
    timing: DramTimingCycles,
    map: AddressMap,
    banks: Vec<Bank>,
    /// Earliest cycle the shared data bus is free.
    bus_free_at: Cycle,
    /// Earliest next ACT anywhere in the rank (tRRD).
    next_act_at: Cycle,
    /// Next scheduled all-bank refresh (u64::MAX when disabled).
    next_refresh: Cycle,
    /// Refreshes performed.
    refreshes: u64,
    /// Cycle after which a read burst may start following the last write
    /// (write-to-read turnaround).
    wtr_fence: Cycle,
    /// Derived command timing of the most recent [`Dram::start`].
    last_service: Option<DramServiceTiming>,
    inflight: Vec<DramCompletion<T>>,
    // Statistics
    row_hits: u64,
    row_misses: u64,
    row_conflicts: u64,
    bytes_transferred: u64,
    busy_bus_cycles: u64,
}

impl<T: Copy> Dram<T> {
    /// Creates a channel from the configuration, with timing converted to
    /// CPU cycles at `freq_hz`.
    pub fn new(config: &DramConfig, freq_hz: f64) -> Self {
        Dram {
            timing: config.timing_cycles(freq_hz),
            map: AddressMap::new(config),
            banks: vec![
                Bank { open_row: None, ready_at: 0, precharge_ok_at: 0 };
                config.banks
            ],
            bus_free_at: 0,
            next_act_at: 0,
            next_refresh: {
                let t = config.timing_cycles(freq_hz);
                if t.t_refi == 0 { Cycle::MAX } else { t.t_refi }
            },
            refreshes: 0,
            wtr_fence: 0,
            last_service: None,
            inflight: Vec::new(),
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            bytes_transferred: 0,
            busy_bus_cycles: 0,
        }
    }

    /// The address mapping in use.
    pub fn address_map(&self) -> AddressMap {
        self.map
    }

    /// Timing parameters in CPU cycles.
    pub fn timing(&self) -> DramTimingCycles {
        self.timing
    }

    /// Replaces the timing parameters (fault injection: a model that runs
    /// faster than DDR3 allows).
    pub(crate) fn set_timing(&mut self, timing: DramTimingCycles) {
        self.timing = timing;
    }

    /// Status snapshot of every bank (for schedulers).
    pub fn bank_status(&self) -> Vec<BankStatus> {
        self.banks
            .iter()
            .map(|b| BankStatus { open_row: b.open_row, ready_at: b.ready_at })
            .collect()
    }

    /// Whether `addr` would hit the open row of its bank *right now*.
    pub fn is_row_hit(&self, addr: Addr) -> bool {
        let c = self.map.coord(addr);
        self.banks[c.bank].open_row == Some(c.row)
    }

    /// Earliest cycle `t >= now` at which [`Dram::can_start`] would accept
    /// `addr`, assuming no intervening `start` calls mutate bank state.
    ///
    /// This is the per-bank timing deadline the skip engine feeds
    /// into its `min(next events)` computation: within the window
    /// `[now, earliest_start)` the bank is guaranteed busy, so a pending
    /// transaction on it cannot dispatch and the cycles may be skipped.
    pub fn earliest_start(&self, now: Cycle, addr: Addr) -> Cycle {
        let c = self.map.coord(addr);
        let ready = now.max(self.banks[c.bank].ready_at);
        if ready < self.next_refresh {
            ready
        } else {
            // The bank only frees up inside (or past) a refresh window, so
            // it must additionally wait out the tRFC fence.
            ready.max(self.next_refresh + self.timing.t_rfc)
        }
    }

    /// Earliest `done_at` among dispatched-but-unfinished transactions.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.inflight.iter().map(|c| c.done_at).min()
    }

    /// Whether the bank owning `addr` can accept a new transaction at
    /// `now` (accounting for a pending refresh fence).
    pub fn can_start(&self, now: Cycle, addr: Addr) -> bool {
        let c = self.map.coord(addr);
        if now >= self.next_refresh {
            // A refresh is due: the bank is unavailable until the fence
            // (applied for real on the next `start`).
            return now >= self.next_refresh + self.timing.t_rfc
                && self.banks[c.bank].ready_at <= now;
        }
        self.banks[c.bank].ready_at <= now
    }

    /// Applies any due all-bank refreshes: every bank closes its row and
    /// is fenced for `tRFC` from the refresh point.
    fn apply_refresh(&mut self, now: Cycle) {
        while now >= self.next_refresh {
            let fence = self.next_refresh + self.timing.t_rfc;
            for bank in &mut self.banks {
                bank.open_row = None;
                bank.ready_at = bank.ready_at.max(fence);
                bank.precharge_ok_at = bank.precharge_ok_at.max(fence);
            }
            self.refreshes += 1;
            self.next_refresh += self.timing.t_refi.max(1);
        }
    }

    /// All-bank refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Dispatches a transaction to its bank, computing when each implicit
    /// command may legally issue. Returns the completion time.
    ///
    /// Guard with [`Dram::can_start`]: dispatching to a busy bank is not
    /// refused here, it is reported by the auditor's DDR3 oracle.
    pub fn start(&mut self, now: Cycle, addr: Addr, cmd: MemCmd, token: T) -> Cycle {
        self.apply_refresh(now);
        let coord = self.map.coord(addr);
        let t = self.timing;
        let bank = &mut self.banks[coord.bank];

        let row_hit = bank.open_row == Some(coord.row);
        let row_closed = bank.open_row.is_none();

        // When may the column command issue on this bank?
        let (col_ready, outcome, pre_at) = if row_hit {
            self.row_hits += 1;
            (now, RowOutcome::Hit, None)
        } else if row_closed {
            self.row_misses += 1;
            let act_at = now.max(self.next_act_at);
            self.next_act_at = act_at + t.t_rrd;
            (act_at + t.t_rcd, RowOutcome::Miss, None)
        } else {
            self.row_conflicts += 1;
            let pre_at = now.max(bank.precharge_ok_at);
            let act_at = (pre_at + t.t_rp).max(self.next_act_at);
            self.next_act_at = act_at + t.t_rrd;
            (act_at + t.t_rcd, RowOutcome::Conflict, Some(pre_at))
        };

        // Data burst: after CAS latency, when the shared bus is free.
        let cas = if cmd.is_read() { t.t_cl } else { t.t_cwl };
        let mut data_start = (col_ready + cas).max(self.bus_free_at);
        if cmd.is_read() {
            data_start = data_start.max(self.wtr_fence);
        }
        let data_end = data_start + t.burst;
        self.bus_free_at = data_end;
        if !cmd.is_read() {
            self.wtr_fence = data_end + t.t_wtr;
        }
        self.bytes_transferred += 64;
        self.busy_bus_cycles += t.burst;

        // Bank bookkeeping: the row stays open (open-page policy).
        let act_time = if row_hit { None } else { Some(col_ready - t.t_rcd) };
        bank.open_row = Some(coord.row);
        let ras_fence = act_time.map(|a| a + t.t_ras).unwrap_or(bank.precharge_ok_at);
        let col_fence = if cmd.is_read() {
            col_ready + t.t_rtp
        } else {
            data_end + t.t_wr
        };
        bank.precharge_ok_at = ras_fence.max(col_fence);
        // The bank can take its next transaction once the column command
        // has issued; a follow-up row hit can pipeline behind this one,
        // while a conflict will be fenced by `precharge_ok_at`.
        bank.ready_at = col_ready + t.burst.max(4);
        self.last_service = Some(DramServiceTiming {
            bank: coord.bank,
            row: coord.row,
            outcome,
            act_at: act_time,
            pre_at,
            col_at: col_ready,
            data_start,
            data_end,
        });

        self.inflight.push(DramCompletion { token, done_at: data_end, row_hit });
        data_end
    }

    /// Derived command timing of the most recent dispatch.
    pub fn last_service(&self) -> Option<DramServiceTiming> {
        self.last_service
    }

    /// Checks byte/burst accounting against services performed: every
    /// access moves exactly one 64 B line and occupies the bus for exactly
    /// one burst.
    pub fn check_conservation(&self) -> Result<(), String> {
        let services = self.row_hits + self.row_misses + self.row_conflicts;
        if self.bytes_transferred != 64 * services {
            return Err(format!(
                "bytes_transferred {} != 64 * {services} services",
                self.bytes_transferred
            ));
        }
        if self.busy_bus_cycles != self.timing.burst * services {
            return Err(format!(
                "busy_bus_cycles {} != burst {} * {services} services",
                self.busy_bus_cycles, self.timing.burst
            ));
        }
        Ok(())
    }

    /// Removes and returns every transaction whose data finished by `now`.
    pub fn drain_completions(&mut self, now: Cycle) -> Vec<DramCompletion<T>> {
        let mut done = Vec::new();
        self.drain_completions_into(now, &mut done);
        done
    }

    /// Allocation-free form of [`Dram::drain_completions`]: clears `done`
    /// and fills it with every transaction finished by `now`, ordered by
    /// completion cycle. The per-tick hot path reuses one buffer.
    pub fn drain_completions_into(&mut self, now: Cycle, done: &mut Vec<DramCompletion<T>>) {
        done.clear();
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].done_at <= now {
                done.push(self.inflight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        done.sort_by_key(|c| c.done_at);
    }

    /// Number of dispatched-but-unfinished transactions.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Encodes the complete channel state — bank row/fence machines, bus
    /// and ACT fences, refresh schedule, in-flight completions, and
    /// statistics (checkpoint support). Tokens are opaque, so the caller
    /// supplies their encoder.
    pub fn save_state(
        &self,
        enc: &mut crate::snapshot::Enc,
        mut enc_token: impl FnMut(&mut crate::snapshot::Enc, &T),
    ) {
        enc.usize(self.banks.len());
        for b in &self.banks {
            enc.opt_u64(b.open_row);
            enc.u64(b.ready_at);
            enc.u64(b.precharge_ok_at);
        }
        enc.u64(self.bus_free_at);
        enc.u64(self.next_act_at);
        enc.u64(self.next_refresh);
        enc.u64(self.refreshes);
        enc.u64(self.wtr_fence);
        enc.bool(self.last_service.is_some());
        if let Some(s) = &self.last_service {
            s.save_state(enc);
        }
        enc.usize(self.inflight.len());
        for c in &self.inflight {
            enc_token(enc, &c.token);
            enc.u64(c.done_at);
            enc.bool(c.row_hit);
        }
        enc.u64(self.row_hits);
        enc.u64(self.row_misses);
        enc.u64(self.row_conflicts);
        enc.u64(self.bytes_transferred);
        enc.u64(self.busy_bus_cycles);
    }

    /// Restores state written by [`Dram::save_state`]. In-flight order is
    /// preserved exactly (it breaks completion-time ties on drain).
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
        mut dec_token: impl FnMut(
            &mut crate::snapshot::Dec<'_>,
        ) -> Result<T, crate::snapshot::SnapshotError>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let banks = dec.usize()?;
        if banks != self.banks.len() {
            return Err(SnapshotError::mismatch(format!(
                "DRAM has {banks} banks in the snapshot but {} configured",
                self.banks.len()
            )));
        }
        for b in &mut self.banks {
            b.open_row = dec.opt_u64()?;
            b.ready_at = dec.u64()?;
            b.precharge_ok_at = dec.u64()?;
        }
        self.bus_free_at = dec.u64()?;
        self.next_act_at = dec.u64()?;
        self.next_refresh = dec.u64()?;
        self.refreshes = dec.u64()?;
        self.wtr_fence = dec.u64()?;
        self.last_service =
            if dec.bool()? { Some(DramServiceTiming::load_state(dec)?) } else { None };
        let inflight = dec.usize()?;
        self.inflight.clear();
        for _ in 0..inflight {
            let token = dec_token(dec)?;
            let done_at = dec.u64()?;
            let row_hit = dec.bool()?;
            self.inflight.push(DramCompletion { token, done_at, row_hit });
        }
        self.row_hits = dec.u64()?;
        self.row_misses = dec.u64()?;
        self.row_conflicts = dec.u64()?;
        self.bytes_transferred = dec.u64()?;
        self.busy_bus_cycles = dec.u64()?;
        Ok(())
    }

    /// (row hits, row misses, row conflicts) since construction.
    pub fn row_stats(&self) -> (u64, u64, u64) {
        (self.row_hits, self.row_misses, self.row_conflicts)
    }

    /// Total bytes moved over the data bus.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Cycles the data bus spent transferring (utilisation numerator).
    pub fn busy_bus_cycles(&self) -> u64 {
        self.busy_bus_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram<u32> {
        Dram::new(&DramConfig::default(), 2.4e9)
    }

    #[test]
    fn address_map_walks_columns_then_banks() {
        let m = AddressMap::new(&DramConfig::default());
        // 8 KB row = 128 columns of 64 B.
        let a0 = m.coord(0);
        let a1 = m.coord(64);
        assert_eq!(a0, a1, "adjacent lines share a row");
        let next_row_region = m.coord(8 * 1024);
        assert_eq!(next_row_region.bank, 1, "next 8 KB region maps to next bank");
        assert_eq!(next_row_region.row, 0);
        let wrap = m.coord(8 * 1024 * 8);
        assert_eq!(wrap.bank, 0);
        assert_eq!(wrap.row, 1);
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two")]
    fn address_map_rejects_a_non_power_of_two_bank_count() {
        AddressMap::new(&DramConfig { banks: 6, ..DramConfig::default() });
    }

    #[test]
    fn closed_bank_access_takes_rcd_cl_burst() {
        let mut d = dram();
        let t = d.timing();
        let done = d.start(0, 0x0, MemCmd::Read, 1);
        assert_eq!(done, t.t_rcd + t.t_cl + t.burst);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let mut d = dram();
        let t = d.timing();
        let first = d.start(0, 0x0, MemCmd::Read, 1);
        // Same row again, after bank free: row hit.
        let now = first + 200;
        assert!(d.can_start(now, 64));
        let hit_done = d.start(now, 64, MemCmd::Read, 2);
        assert_eq!(hit_done - now, t.t_cl + t.burst, "row hit pays CL+burst only");
        // Different row, same bank: conflict, pays tRP + tRCD too.
        let now2 = hit_done + 200;
        let conflict_addr = 8 * 1024 * 8; // bank 0, row 1
        let conf_done = d.start(now2, conflict_addr, MemCmd::Read, 3);
        assert!(conf_done - now2 >= t.t_rp + t.t_rcd + t.t_cl + t.burst);
        let (h, m, c) = d.row_stats();
        assert_eq!((h, m, c), (1, 1, 1));
    }

    #[test]
    fn data_bus_serialises_parallel_banks() {
        let mut d = dram();
        let t = d.timing();
        // Two reads to different banks at the same cycle: both activate in
        // parallel (minus tRRD) but bursts are back-to-back on the bus.
        let done0 = d.start(0, 0, MemCmd::Read, 1);
        assert!(d.can_start(0, 8 * 1024), "different bank should be free");
        let done1 = d.start(0, 8 * 1024, MemCmd::Read, 2);
        assert!(done1 >= done0 + t.burst, "bursts must not overlap on the bus");
        assert!(
            done1 < done0 + t.t_rcd + t.t_cl,
            "bank parallelism should overlap activation latency"
        );
    }

    #[test]
    fn same_bank_back_to_back_requires_ready() {
        let mut d = dram();
        d.start(0, 0, MemCmd::Read, 1);
        assert!(!d.can_start(1, 64), "bank busy immediately after dispatch");
    }

    #[test]
    fn completions_drain_in_time_order() {
        let mut d = dram();
        let done0 = d.start(0, 0, MemCmd::Read, 10);
        let done1 = d.start(0, 8 * 1024, MemCmd::Read, 11);
        assert!(d.drain_completions(done0 - 1).is_empty());
        let first = d.drain_completions(done0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].token, 10);
        let second = d.drain_completions(done1);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].token, 11);
        assert_eq!(d.inflight_len(), 0);
    }

    #[test]
    fn writes_use_cwl_and_fence_reads() {
        let mut d = dram();
        let t = d.timing();
        let wdone = d.start(0, 0, MemCmd::Write, 1);
        assert_eq!(wdone, t.t_rcd + t.t_cwl + t.burst);
        // A read on another bank right after must respect tWTR.
        let rdone = d.start(wdone, 8 * 1024, MemCmd::Read, 2);
        assert!(rdone >= wdone + t.t_wtr + t.burst);
    }

    #[test]
    fn bytes_accounting() {
        let mut d = dram();
        d.start(0, 0, MemCmd::Read, 1);
        d.start(0, 8 * 1024, MemCmd::Write, 2);
        assert_eq!(d.bytes_transferred(), 128);
    }

    #[test]
    fn refresh_closes_rows_and_fences_banks() {
        let mut d = dram();
        let t = d.timing();
        assert!(t.t_refi > 0, "refresh enabled by default");
        d.start(0, 0, MemCmd::Read, 1);
        assert!(d.is_row_hit(64));
        // Jump past the first refresh interval: the bank must be fenced
        // for tRFC after the refresh point and its row closed.
        let after = t.t_refi + 1;
        assert!(!d.can_start(after, 64), "bank busy during tRFC");
        let clear = t.t_refi + t.t_rfc;
        assert!(d.can_start(clear, 64));
        let done = d.start(clear, 64, MemCmd::Read, 2);
        assert_eq!(d.refreshes(), 1);
        // Row was closed by the refresh: the access pays tRCD again.
        assert!(done - clear >= t.t_rcd + t.t_cl, "refresh must close the row");
    }

    #[test]
    fn refreshes_accumulate_with_time() {
        let mut d = dram();
        let t = d.timing();
        // Two intervals elapse before the next access.
        let late = 2 * t.t_refi + t.t_rfc + 10;
        d.start(late, 0, MemCmd::Read, 1);
        assert_eq!(d.refreshes(), 2);
    }

    #[test]
    fn refresh_can_be_disabled() {
        let cfg = DramConfig { t_refi_ns: 0.0, ..DramConfig::default() };
        let mut d: Dram<u32> = Dram::new(&cfg, 2.4e9);
        d.start(0, 0, MemCmd::Read, 1);
        assert!(d.can_start(1_000_000, 64));
        assert_eq!(d.refreshes(), 0);
    }

    #[test]
    fn healthy_run_is_ddr3_legal_and_conserves() {
        let cfg = DramConfig::default();
        let mut d = dram();
        let mut oracle =
            crate::oracle::DramOracle::new(d.timing(), cfg.banks, cfg.row_bytes as u64, 1);
        let mut log = crate::audit::AuditLog::new(64);
        let mut now = 0;
        for i in 0..50u64 {
            // Mix of banks, rows, reads and writes.
            let addr = (i % 16) * 8 * 1024 + (i * 64) % 8192;
            while !d.can_start(now, addr) {
                now += 1;
            }
            let cmd = if i % 4 == 0 { MemCmd::Write } else { MemCmd::Read };
            d.start(now, addr, cmd, i as u32);
            let svc = d.last_service().expect("service recorded");
            oracle.check(now, 0, addr, !cmd.is_read(), &svc, &mut log);
            now += 3;
        }
        assert!(log.violations().is_empty(), "legal schedule must audit clean");
        d.check_conservation().expect("byte/burst accounting must balance");
    }

    /// Dispatches a read to bank 0 and a write to bank 1, then checks each
    /// of `addrs` at a spread of observation points (including across the
    /// first refresh boundary): `can_start` is false at every cycle before
    /// `earliest_start` and true at it.
    fn assert_earliest_start_agrees(cfg: &DramConfig, addrs: [Addr; 4]) {
        let mut d: Dram<u32> = Dram::new(cfg, 2.4e9);
        let t = d.timing();
        let bank_stride = cfg.row_bytes as Addr;
        d.start(0, 0, MemCmd::Read, 1);
        d.start(0, bank_stride, MemCmd::Write, 2);
        let probes = [0, 1, t.t_rcd, t.t_refi - 1, t.t_refi, t.t_refi + t.t_rfc];
        for addr in addrs {
            for &now in &probes {
                let est = d.earliest_start(now, addr);
                assert!(est >= now);
                for probe in now..est {
                    assert!(
                        !d.can_start(probe, addr),
                        "addr {addr:#x}: can_start true at {probe} < estimate {est}"
                    );
                }
                assert!(
                    d.can_start(est, addr),
                    "addr {addr:#x}: can_start false at estimate {est} (now {now})"
                );
            }
        }
    }

    #[test]
    fn earliest_start_agrees_with_can_start() {
        // 8 banks of 8 KB rows: same line, same row, next bank, next row.
        assert_earliest_start_agrees(&DramConfig::default(), [0, 64, 8 * 1024, 8 * 1024 * 8]);
    }

    #[test]
    fn earliest_start_agrees_with_can_start_on_16_banks_of_2k_rows() {
        let cfg = DramConfig { banks: 16, row_bytes: 2 * 1024, ..DramConfig::default() };
        let m = AddressMap::new(&cfg);
        assert_eq!(m.coord(2 * 1024), DramCoord { bank: 1, row: 0 });
        assert_eq!(m.coord(2 * 1024 * 16), DramCoord { bank: 0, row: 1 });
        assert_earliest_start_agrees(&cfg, [0, 64, 2 * 1024, 2 * 1024 * 16]);
    }

    #[test]
    fn next_completion_tracks_inflight() {
        let mut d = dram();
        assert_eq!(d.next_completion(), None);
        let done0 = d.start(0, 0, MemCmd::Read, 1);
        let done1 = d.start(0, 8 * 1024, MemCmd::Read, 2);
        assert_eq!(d.next_completion(), Some(done0.min(done1)));
        d.drain_completions(done0);
        assert_eq!(d.next_completion(), Some(done1));
        d.drain_completions(done1);
        assert_eq!(d.next_completion(), None);
    }

    #[test]
    fn is_row_hit_tracks_open_rows() {
        let mut d = dram();
        assert!(!d.is_row_hit(0));
        d.start(0, 0, MemCmd::Read, 1);
        assert!(d.is_row_hit(64));
        assert!(!d.is_row_hit(8 * 1024 * 8));
    }
}
