//! Skip-aware time-series sampler: turns cumulative system counters into
//! epoch-delta rows at fixed cycle boundaries.
//!
//! The sampler itself never touches the system — `System::tick` feeds it
//! one cumulative [`SampleRow`] at each boundary; the sampler keeps the
//! previous one and emits the difference. The boundary arithmetic
//! mirrors the invariant auditor's (`next_boundary` is a fast-forward
//! clamp, so sampling cycles are real ticks in both naive and
//! fast-forward modes and the resulting rows are bit-identical).

use crate::obs::event::{ChannelSampleRow, CoreSampleRow, SampleRow};
use crate::types::Cycle;

impl CoreSampleRow {
    /// The epoch row from two cumulative rows: counters are differenced,
    /// credits (instantaneous) are taken from `self`.
    fn since(&self, earlier: &CoreSampleRow) -> CoreSampleRow {
        CoreSampleRow {
            core: self.core,
            instructions: self.instructions - earlier.instructions,
            mem_stall: self.mem_stall - earlier.mem_stall,
            shaper_stall: self.shaper_stall - earlier.shaper_stall,
            l1_misses: self.l1_misses - earlier.l1_misses,
            llc_misses: self.llc_misses - earlier.llc_misses,
            fills: self.fills - earlier.fills,
            credits: self.credits.clone(),
        }
    }
}

impl ChannelSampleRow {
    /// The epoch row from two cumulative rows: counters are differenced,
    /// queue depths (instantaneous) are taken from `self`.
    fn since(&self, earlier: &ChannelSampleRow) -> ChannelSampleRow {
        ChannelSampleRow {
            channel: self.channel,
            dispatched: self.dispatched - earlier.dispatched,
            busy_bus: self.busy_bus - earlier.busy_bus,
            bytes: self.bytes - earlier.bytes,
            row_hits: self.row_hits - earlier.row_hits,
            row_misses: self.row_misses - earlier.row_misses,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
            queue_len: self.queue_len,
            fifo_len: self.fifo_len,
        }
    }
}

/// The sampler: boundary bookkeeping plus the retained row log.
#[derive(Debug)]
pub struct Sampler {
    interval: Cycle,
    epoch: u64,
    rows: Vec<SampleRow>,
    max_rows: usize,
    dropped_rows: u64,
    /// The previous boundary's cumulative row (empty before the first).
    prev: SampleRow,
}

impl Sampler {
    /// Default cap on retained rows (overflow counts, oldest rows stay).
    pub const DEFAULT_MAX_ROWS: usize = 1 << 16;

    /// A sampler firing every `interval` cycles (at least 1).
    pub fn new(interval: Cycle) -> Self {
        Sampler {
            interval: interval.max(1),
            epoch: 0,
            rows: Vec::new(),
            max_rows: Self::DEFAULT_MAX_ROWS,
            dropped_rows: 0,
            prev: SampleRow::default(),
        }
    }

    /// The sampling interval in cycles.
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// Whether cycle `now` is a sampling boundary. Cycle 0 is skipped: a
    /// row there would be all zeros.
    pub fn due(&self, now: Cycle) -> bool {
        now > 0 && now.is_multiple_of(self.interval)
    }

    /// The first boundary strictly after `now` — the fast-forward clamp
    /// (same contract as the auditor's `next_audit_boundary`).
    pub fn next_boundary(&self, now: Cycle) -> Cycle {
        (now / self.interval + 1) * self.interval
    }

    /// Retained rows, oldest first.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Rows not retained because the cap was reached.
    pub fn dropped_rows(&self) -> u64 {
        self.dropped_rows
    }

    /// Encodes the boundary bookkeeping (epoch, the previous cumulative
    /// row's counters). Retained rows are *not* included: after a resume
    /// the sampler produces exactly the post-snapshot rows, so a full
    /// run's log equals pre-snapshot rows plus post-resume rows.
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.u64(self.interval);
        enc.u64(self.epoch);
        enc.u64(self.dropped_rows);
        enc.usize(self.prev.cores.len());
        for p in &self.prev.cores {
            enc.u64(p.instructions);
            enc.u64(p.mem_stall);
            enc.u64(p.shaper_stall);
            enc.u64(p.l1_misses);
            enc.u64(p.llc_misses);
            enc.u64(p.fills);
        }
        enc.usize(self.prev.channels.len());
        for p in &self.prev.channels {
            enc.u64(p.dispatched);
            enc.u64(p.busy_bus);
            enc.u64(p.bytes);
            enc.u64(p.row_hits);
            enc.u64(p.row_misses);
            enc.u64(p.row_conflicts);
        }
    }

    /// Restores state written by [`Sampler::save_state`].
    ///
    /// # Errors
    ///
    /// Mismatch when the configured interval differs, or a decode error on
    /// corrupt bytes.
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let interval = dec.u64()?;
        if interval != self.interval {
            return Err(SnapshotError::mismatch(format!(
                "sampler interval {} differs from snapshot {interval}",
                self.interval
            )));
        }
        self.epoch = dec.u64()?;
        self.dropped_rows = dec.u64()?;
        let n = dec.checked_len(48)?;
        self.prev.cores = (0..n)
            .map(|core| {
                Ok(CoreSampleRow {
                    core,
                    instructions: dec.u64()?,
                    mem_stall: dec.u64()?,
                    shaper_stall: dec.u64()?,
                    l1_misses: dec.u64()?,
                    llc_misses: dec.u64()?,
                    fills: dec.u64()?,
                    credits: Vec::new(),
                })
            })
            .collect::<Result<_, SnapshotError>>()?;
        let n = dec.checked_len(48)?;
        self.prev.channels = (0..n)
            .map(|channel| {
                Ok(ChannelSampleRow {
                    channel,
                    dispatched: dec.u64()?,
                    busy_bus: dec.u64()?,
                    bytes: dec.u64()?,
                    row_hits: dec.u64()?,
                    row_misses: dec.u64()?,
                    row_conflicts: dec.u64()?,
                    queue_len: 0,
                    fifo_len: 0,
                })
            })
            .collect::<Result<_, SnapshotError>>()?;
        Ok(())
    }

    /// Ingests one boundary's cumulative row (its `epoch` is ignored: the
    /// sampler numbers boundaries itself), returning the epoch-delta row
    /// (also retained, up to the cap).
    pub fn record(&mut self, cum: SampleRow) -> SampleRow {
        self.prev.cores.resize_with(cum.cores.len(), CoreSampleRow::default);
        self.prev.channels.resize_with(cum.channels.len(), ChannelSampleRow::default);
        self.epoch += 1;
        let prev = &self.prev;
        let row = SampleRow {
            at: cum.at,
            epoch: self.epoch,
            cores: cum.cores.iter().zip(&prev.cores).map(|(c, p)| c.since(p)).collect(),
            channels: cum.channels.iter().zip(&prev.channels).map(|(c, p)| c.since(p)).collect(),
        };
        self.prev = cum;
        if self.rows.len() < self.max_rows {
            self.rows.push(row.clone());
        } else {
            self.dropped_rows += 1;
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cum(at: Cycle, instr: u64, stall: u64, disp: u64) -> SampleRow {
        SampleRow {
            at,
            epoch: 0,
            cores: vec![CoreSampleRow {
                core: 0,
                instructions: instr,
                mem_stall: stall,
                shaper_stall: stall / 2,
                l1_misses: instr / 10,
                llc_misses: instr / 20,
                fills: instr / 20,
                credits: vec![(2, 12)],
            }],
            channels: vec![ChannelSampleRow {
                channel: 0,
                dispatched: disp,
                busy_bus: disp * 4,
                bytes: disp * 64,
                row_hits: disp / 2,
                row_misses: disp / 4,
                row_conflicts: disp / 4,
                queue_len: 3,
                fifo_len: 1,
            }],
        }
    }

    #[test]
    fn boundaries_mirror_the_auditor_pattern() {
        let s = Sampler::new(128);
        assert!(!s.due(0), "cycle 0 is not sampled");
        assert!(s.due(128) && s.due(256));
        assert!(!s.due(129));
        assert_eq!(s.next_boundary(0), 128);
        assert_eq!(s.next_boundary(127), 128);
        assert_eq!(s.next_boundary(128), 256);
    }

    #[test]
    fn rows_are_epoch_deltas_over_cumulative_inputs() {
        let mut s = Sampler::new(100);
        let r1 = s.record(cum(100, 50, 20, 8));
        assert_eq!(r1.epoch, 1);
        assert_eq!(r1.cores[0].instructions, 50);
        assert_eq!(r1.channels[0].dispatched, 8);

        let r2 = s.record(cum(200, 80, 50, 11));
        assert_eq!(r2.epoch, 2);
        assert_eq!(r2.cores[0].instructions, 30, "delta, not cumulative");
        assert_eq!(r2.cores[0].mem_stall, 30);
        assert_eq!(r2.channels[0].dispatched, 3);
        assert_eq!(r2.channels[0].queue_len, 3, "queue depth is instantaneous");
        assert_eq!(s.rows().len(), 2);
    }
}
