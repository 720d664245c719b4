//! System configuration, with Table II of the paper as the default.
//!
//! All timing is expressed in CPU cycles at the configured core frequency
//! (2.4 GHz by default); [`DramConfig`] converts DDR3 nanosecond parameters
//! into CPU cycles once so the hot simulation loop never does floating
//! point.

use crate::audit::HardeningConfig;
use crate::types::LineGeometry;

/// A structural inconsistency in a [`SystemConfig`], reported by
/// [`SystemConfig::validate`] instead of a bare assert so callers (CLIs,
/// sweep drivers) can surface it without unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `cores == 0`.
    NoCores,
    /// L1 and LLC line sizes differ.
    LineSizeMismatch {
        /// Configured L1 line size in bytes.
        l1: usize,
        /// Configured LLC line size in bytes.
        llc: usize,
    },
    /// `llc_ports == 0`.
    NoLlcPorts,
    /// `mc.channels == 0`.
    NoChannels,
    /// `mc.txn_queue_depth == 0`.
    EmptyTxnQueue,
    /// A cache's size/ways/line organisation does not form a whole
    /// power-of-two number of sets.
    BadCacheGeometry {
        /// Which cache ("L1" or "LLC").
        cache: &'static str,
        /// What is wrong with its organisation.
        detail: String,
    },
    /// The DRAM bank count or row size is not a power of two, or a row
    /// is smaller than one 64 B column.
    BadDramGeometry {
        /// What is wrong with the organisation.
        detail: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoCores => write!(f, "need at least one core"),
            ConfigError::LineSizeMismatch { l1, llc } => {
                write!(f, "L1/LLC line sizes must match (L1 {l1} B, LLC {llc} B)")
            }
            ConfigError::NoLlcPorts => write!(f, "LLC needs at least one port"),
            ConfigError::NoChannels => write!(f, "need at least one memory channel"),
            ConfigError::EmptyTxnQueue => write!(f, "transaction queue must be non-empty"),
            ConfigError::BadCacheGeometry { cache, detail } => {
                write!(f, "{cache} geometry invalid: {detail}")
            }
            ConfigError::BadDramGeometry { detail } => write!(f, "DRAM geometry invalid: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Core front-end/back-end parameters (paper: 2.4 GHz, 4-wide issue,
/// 128-entry instruction window).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Instructions issued/retired per cycle.
    pub issue_width: u32,
    /// Reorder-buffer capacity in instructions.
    pub window_size: u32,
    /// Core clock in Hz (used only for bandwidth conversions in reports).
    pub freq_hz: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig { issue_width: 4, window_size: 128, freq_hz: 2.4e9 }
    }
}

/// A set-associative cache (L1 or LLC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (64 everywhere in the paper).
    pub line_bytes: usize,
    /// Number of miss-status holding registers.
    pub mshrs: usize,
    /// Lookup-to-response latency in cycles on a hit.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's per-core L1 data cache: 32 KB, 4-way, 64 B lines,
    /// 8 MSHRs.
    pub fn l1_default() -> Self {
        CacheConfig { size_bytes: 32 * 1024, ways: 4, line_bytes: 64, mshrs: 8, hit_latency: 2 }
    }

    /// The paper's shared LLC for multi-program runs: 1 MB, 8-way, 64 B
    /// lines.
    pub fn llc_shared_default() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            mshrs: 32,
            hit_latency: 20,
        }
    }

    /// The paper's single-program LLC: 64 KB, 8-way.
    pub fn llc_single_default() -> Self {
        CacheConfig { size_bytes: 64 * 1024, ways: 8, line_bytes: 64, mshrs: 16, hit_latency: 20 }
    }

    /// An LLC of arbitrary size with the default shared-LLC organisation
    /// (used for the 64 KB / 1 MB / 8 MB sweeps of Fig. 2 and Fig. 15).
    pub fn llc_with_size(size_bytes: usize) -> Self {
        CacheConfig { size_bytes, ..CacheConfig::llc_shared_default() }
    }

    /// Number of sets implied by size, ways, and line size.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide into a whole
    /// power-of-two number of sets. Use [`CacheConfig::try_sets`] for a
    /// fallible variant.
    pub fn sets(&self) -> usize {
        match self.try_sets() {
            Ok(sets) => sets,
            Err(detail) => panic!("{detail}"),
        }
    }

    /// Number of sets implied by size, ways, and line size, or a
    /// description of why the organisation is invalid.
    pub fn try_sets(&self) -> Result<usize, String> {
        if self.line_bytes == 0 || self.ways == 0 {
            return Err(format!(
                "line size and associativity must be non-zero (line {} B, {} ways)",
                self.line_bytes, self.ways
            ));
        }
        let lines = self.size_bytes / self.line_bytes;
        if !lines.is_multiple_of(self.ways) {
            return Err(format!(
                "cache size must divide into whole sets ({} lines, {} ways)",
                lines, self.ways
            ));
        }
        let sets = lines / self.ways;
        if !sets.is_power_of_two() {
            return Err(format!("set count must be a power of two (got {sets})"));
        }
        Ok(sets)
    }

    /// Line geometry for this cache.
    pub fn geometry(&self) -> LineGeometry {
        LineGeometry::new(self.line_bytes)
    }
}

/// DDR3 device timing in nanoseconds plus organisation, convertible into
/// CPU cycles. Defaults model DDR3-1333 CL9 with the paper's organisation:
/// 1 channel, 1 rank, 8 banks, 8 KB row buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of banks in the (single) rank.
    pub banks: usize,
    /// Row-buffer size in bytes per bank.
    pub row_bytes: usize,
    /// ACT-to-column-command delay (ns).
    pub t_rcd_ns: f64,
    /// Precharge time (ns).
    pub t_rp_ns: f64,
    /// Column-address-strobe (read) latency (ns).
    pub t_cl_ns: f64,
    /// Write latency (ns).
    pub t_cwl_ns: f64,
    /// Minimum ACT-to-PRE time (ns).
    pub t_ras_ns: f64,
    /// Read-to-precharge (ns).
    pub t_rtp_ns: f64,
    /// Write recovery before precharge (ns).
    pub t_wr_ns: f64,
    /// ACT-to-ACT on *different* banks (ns).
    pub t_rrd_ns: f64,
    /// Data-bus occupancy of one burst (ns). DDR3 BL8 at 1333 MT/s moves
    /// 64 B in 4 memory-clock cycles = 6 ns.
    pub burst_ns: f64,
    /// Write-to-read turnaround on the shared bus (ns).
    pub t_wtr_ns: f64,
    /// Average refresh interval (ns); one all-bank refresh is issued per
    /// interval. Set to 0 to disable refresh.
    pub t_refi_ns: f64,
    /// Refresh cycle time (ns): how long every bank is unavailable while
    /// a refresh runs.
    pub t_rfc_ns: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            row_bytes: 8 * 1024,
            t_rcd_ns: 13.5,
            t_rp_ns: 13.5,
            t_cl_ns: 13.5,
            t_cwl_ns: 10.5,
            t_ras_ns: 36.0,
            t_rtp_ns: 7.5,
            t_wr_ns: 15.0,
            t_rrd_ns: 6.0,
            burst_ns: 6.0,
            t_wtr_ns: 7.5,
            t_refi_ns: 7_800.0,
            t_rfc_ns: 160.0,
        }
    }
}

/// DDR3 timing converted to integral CPU cycles (rounded up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimingCycles {
    /// ACT-to-column-command delay.
    pub t_rcd: u64,
    /// Precharge time.
    pub t_rp: u64,
    /// Read column-address-strobe latency.
    pub t_cl: u64,
    /// Write latency.
    pub t_cwl: u64,
    /// Minimum ACT-to-PRE time.
    pub t_ras: u64,
    /// Read-to-precharge delay.
    pub t_rtp: u64,
    /// Write recovery before precharge.
    pub t_wr: u64,
    /// ACT-to-ACT across banks.
    pub t_rrd: u64,
    /// Data-bus occupancy of one 64 B burst.
    pub burst: u64,
    /// Write-to-read bus turnaround.
    pub t_wtr: u64,
    /// Average refresh interval (0 = refresh disabled).
    pub t_refi: u64,
    /// Refresh cycle time (all banks unavailable).
    pub t_rfc: u64,
}

impl DramConfig {
    /// Checks that the organisation decodes by shift and mask: `banks` is
    /// a power of two (so at least 1) and `row_bytes` is a power of two of
    /// at least one 64 B column. Returns a description of the first
    /// violation.
    pub fn check_geometry(&self) -> Result<(), String> {
        if !self.banks.is_power_of_two() {
            return Err(format!("bank count must be a power of two (got {})", self.banks));
        }
        if self.row_bytes < 64 || !self.row_bytes.is_power_of_two() {
            return Err(format!(
                "row size must be a power of two of at least 64 B (got {} B)",
                self.row_bytes
            ));
        }
        Ok(())
    }

    /// Converts the nanosecond parameters into CPU cycles at `freq_hz`.
    pub fn timing_cycles(&self, freq_hz: f64) -> DramTimingCycles {
        let conv = |ns: f64| -> u64 { (ns * 1e-9 * freq_hz).ceil() as u64 };
        DramTimingCycles {
            t_rcd: conv(self.t_rcd_ns),
            t_rp: conv(self.t_rp_ns),
            t_cl: conv(self.t_cl_ns),
            t_cwl: conv(self.t_cwl_ns),
            t_ras: conv(self.t_ras_ns),
            t_rtp: conv(self.t_rtp_ns),
            t_wr: conv(self.t_wr_ns),
            t_rrd: conv(self.t_rrd_ns),
            burst: conv(self.burst_ns),
            t_wtr: conv(self.t_wtr_ns),
            t_refi: conv(self.t_refi_ns),
            t_rfc: conv(self.t_rfc_ns),
        }
    }

    /// Peak data bandwidth in bytes per CPU cycle (64 B per burst slot).
    pub fn peak_bytes_per_cycle(&self, freq_hz: f64) -> f64 {
        64.0 / self.timing_cycles(freq_hz).burst as f64
    }
}

/// Memory-controller structure sizes (paper: 32-entry transaction queue;
/// §III-C adds a 32-entry global smoothing FIFO).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McConfig {
    /// Independent memory channels, each with its own controller, DRAM
    /// devices, and scheduler instance. Table II uses 1; more channels
    /// support the §III-A manycore-scaling studies. Addresses interleave
    /// across channels at row granularity (preserving row locality).
    pub channels: usize,
    /// Transaction (scheduling) queue depth per channel.
    pub txn_queue_depth: usize,
    /// Global smoothing FIFO depth in front of each transaction queue.
    pub global_fifo_depth: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig { channels: 1, txn_queue_depth: 32, global_fifo_depth: 32 }
    }
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (each runs one program/thread).
    pub cores: usize,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Per-core private L1 cache.
    pub l1: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Max LLC lookups accepted per cycle (models banked-LLC port
    /// bandwidth shared by all cores).
    pub llc_ports: usize,
    /// Memory-controller structure sizes.
    pub mc: McConfig,
    /// DRAM organisation and timing.
    pub dram: DramConfig,
    /// Invariant-auditor and watchdog settings (see [`crate::audit`]).
    pub hardening: HardeningConfig,
}

impl SystemConfig {
    /// The paper's single-program configuration (Table II): one core,
    /// 64 KB LLC.
    pub fn single_program() -> Self {
        SystemConfig {
            cores: 1,
            core: CoreConfig::default(),
            l1: CacheConfig::l1_default(),
            llc: CacheConfig::llc_single_default(),
            llc_ports: 2,
            mc: McConfig::default(),
            dram: DramConfig::default(),
            hardening: HardeningConfig::default(),
        }
    }

    /// A configuration modelled on the paper's taped-out 25-core
    /// OpenSPARC-T1-based chip (§III-E): 25 cores with small private L1s
    /// (8 KB data) sharing a distributed LLC of 64 KB per core, with two
    /// memory channels feeding the mesh.
    pub fn openpiton_25() -> Self {
        SystemConfig {
            cores: 25,
            core: CoreConfig { issue_width: 2, window_size: 64, freq_hz: 1.0e9 },
            l1: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 4,
                line_bytes: 64,
                mshrs: 4,
                hit_latency: 2,
            },
            llc: CacheConfig {
                // 25 x 64 KB distributed banks = 1.6 MB; modelled as one
                // 2 MB cache (nearest power-of-two set organisation).
                size_bytes: 2 * 1024 * 1024,
                ways: 8,
                line_bytes: 64,
                mshrs: 64,
                hit_latency: 25,
            },
            llc_ports: 8,
            mc: McConfig { channels: 2, ..McConfig::default() },
            dram: DramConfig::default(),
            hardening: HardeningConfig::default(),
        }
    }

    /// The paper's multi-program configuration: `cores` cores sharing a
    /// 1 MB LLC and one DDR3-1333 channel.
    pub fn multi_program(cores: usize) -> Self {
        SystemConfig {
            cores,
            core: CoreConfig::default(),
            l1: CacheConfig::l1_default(),
            llc: CacheConfig::llc_shared_default(),
            llc_ports: 4,
            mc: McConfig::default(),
            dram: DramConfig::default(),
            hardening: HardeningConfig::default(),
        }
    }

    /// Validates structural invariants, reporting the first inconsistency
    /// found. Called by the system builder (which panics with the rendered
    /// [`ConfigError`]); call it directly to handle misconfiguration
    /// gracefully.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::NoCores);
        }
        if self.l1.line_bytes != self.llc.line_bytes {
            return Err(ConfigError::LineSizeMismatch {
                l1: self.l1.line_bytes,
                llc: self.llc.line_bytes,
            });
        }
        if self.llc_ports == 0 {
            return Err(ConfigError::NoLlcPorts);
        }
        if self.mc.channels == 0 {
            return Err(ConfigError::NoChannels);
        }
        if self.mc.txn_queue_depth == 0 {
            return Err(ConfigError::EmptyTxnQueue);
        }
        self.l1
            .try_sets()
            .map_err(|detail| ConfigError::BadCacheGeometry { cache: "L1", detail })?;
        self.llc
            .try_sets()
            .map_err(|detail| ConfigError::BadCacheGeometry { cache: "LLC", detail })?;
        self.dram.check_geometry().map_err(|detail| ConfigError::BadDramGeometry { detail })?;
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::multi_program(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_defaults() {
        let c = SystemConfig::multi_program(4);
        assert_eq!(c.core.issue_width, 4);
        assert_eq!(c.core.window_size, 128);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.mshrs, 8);
        assert_eq!(c.llc.size_bytes, 1024 * 1024);
        assert_eq!(c.llc.ways, 8);
        assert_eq!(c.mc.txn_queue_depth, 32);
        assert_eq!(c.dram.banks, 8);
        assert_eq!(c.dram.row_bytes, 8 * 1024);
        c.validate().expect("Table II defaults must validate");
    }

    #[test]
    fn openpiton_preset_is_valid() {
        let c = SystemConfig::openpiton_25();
        assert_eq!(c.cores, 25);
        assert_eq!(c.l1.size_bytes, 8 * 1024, "tape-out L1D is 8 KB");
        assert_eq!(c.mc.channels, 2);
        c.validate().expect("OpenPiton preset must validate");
    }

    #[test]
    fn single_program_uses_small_llc() {
        let c = SystemConfig::single_program();
        assert_eq!(c.cores, 1);
        assert_eq!(c.llc.size_bytes, 64 * 1024);
        c.validate().expect("single-program preset must validate");
    }

    #[test]
    fn set_math() {
        let l1 = CacheConfig::l1_default();
        // 32 KB / 64 B = 512 lines; 4-way => 128 sets.
        assert_eq!(l1.sets(), 128);
        let llc = CacheConfig::llc_shared_default();
        // 1 MB / 64 B = 16384 lines; 8-way => 2048 sets.
        assert_eq!(llc.sets(), 2048);
    }

    #[test]
    fn dram_timing_converts_to_cpu_cycles() {
        let d = DramConfig::default();
        let t = d.timing_cycles(2.4e9);
        // 13.5 ns * 2.4 GHz = 32.4 -> 33 cycles.
        assert_eq!(t.t_rcd, 33);
        assert_eq!(t.t_rp, 33);
        assert_eq!(t.t_cl, 33);
        // 36 ns -> 86.4 -> 87.
        assert_eq!(t.t_ras, 87);
        // 6 ns -> 14.4 -> 15 cycles per 64 B burst.
        assert_eq!(t.burst, 15);
    }

    #[test]
    fn peak_bandwidth_matches_ddr3_1333() {
        let d = DramConfig::default();
        let bpc = d.peak_bytes_per_cycle(2.4e9);
        let gbs = bpc * 2.4e9 / 1e9;
        // DDR3-1333 peak is 10.67 GB/s; ceil-rounding loses a little.
        assert!(gbs > 9.0 && gbs < 11.0, "peak {gbs} GB/s out of range");
    }

    #[test]
    fn llc_with_size_variants() {
        for size in [64 * 1024, 1024 * 1024, 8 * 1024 * 1024] {
            let llc = CacheConfig::llc_with_size(size);
            assert_eq!(llc.size_bytes, size);
            let _ = llc.sets();
        }
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let c = SystemConfig { cores: 0, ..SystemConfig::default() };
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::NoCores);
        assert!(err.to_string().contains("at least one core"));
    }

    #[test]
    fn validate_reports_each_inconsistency() {
        let base = SystemConfig::default();

        let mut c = base.clone();
        c.l1.line_bytes = 32;
        assert!(matches!(c.validate(), Err(ConfigError::LineSizeMismatch { l1: 32, llc: 64 })));

        let mut c = base.clone();
        c.llc_ports = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoLlcPorts));

        let mut c = base.clone();
        c.mc.channels = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoChannels));

        let mut c = base.clone();
        c.mc.txn_queue_depth = 0;
        assert_eq!(c.validate(), Err(ConfigError::EmptyTxnQueue));

        let mut c = base.clone();
        c.llc.size_bytes += c.llc.line_bytes; // one stray line: not a whole set
        match c.validate() {
            Err(ConfigError::BadCacheGeometry { cache: "LLC", .. }) => {}
            other => panic!("expected LLC geometry error, got {other:?}"),
        }
    }

    #[test]
    fn try_sets_describes_bad_geometry() {
        let mut c = CacheConfig::l1_default();
        assert_eq!(c.try_sets(), Ok(128));
        c.ways = 3;
        let err = c.try_sets().unwrap_err();
        assert!(err.contains("whole sets"), "got: {err}");
        c.ways = 0;
        assert!(c.try_sets().is_err());
    }
}
