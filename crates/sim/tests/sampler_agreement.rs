//! The sampler and the windowed counter view measure the same machine.
//! A run advanced one sampling interval at a time must see every sampler
//! row equal the difference of the cumulative views read at the two
//! boundaries around it: per core, [`CoreSignals::delta`] of consecutive
//! [`System::snapshots`]; per channel, the difference of consecutive
//! [`System::system_stats`] digests. Both engines are covered, with a
//! MITTS shaper on every core so stall and credit paths are exercised.

use std::cell::RefCell;
use std::rc::Rc;

use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sched::make_baseline;
use mitts_sim::config::{CacheConfig, SystemConfig};
use mitts_sim::mc::CoreSignals;
use mitts_sim::stats::ChannelSystemStats;
use mitts_sim::system::{Engine, System, SystemBuilder};
use mitts_sim::types::Cycle;
use mitts_workloads::Benchmark;

const INTERVAL: Cycle = 1_000;
const EPOCHS: usize = 24;

fn shaped_system(engine: Engine) -> System {
    let benches = [Benchmark::Libquantum, Benchmark::Mcf, Benchmark::Omnetpp];
    let mut cfg = SystemConfig::multi_program(benches.len());
    cfg.llc = CacheConfig::llc_with_size(256 << 10);
    cfg.mc.channels = 2;
    let spec = BinSpec::paper_default();
    let mut credits = vec![0u32; spec.bins()];
    credits[1] = 4;
    credits[5] = 6;
    credits[9] = 10;
    let mut b = SystemBuilder::new(cfg)
        .scheduler(make_baseline("FR-FCFS", benches.len()).expect("known scheduler"))
        .engine(engine)
        .sample_every(INTERVAL);
    for (i, bench) in benches.iter().enumerate() {
        let cfg = BinConfig::new(spec, credits.clone(), 2_000).unwrap();
        b = b
            .trace(
                i,
                Box::new(bench.profile().trace((i as u64) << 36, 0xA0 + i as u64)),
            )
            .shaper(i, Rc::new(RefCell::new(MittsShaper::new(cfg))));
    }
    b.build()
}

#[test]
fn sampler_rows_equal_windowed_counter_deltas() {
    for engine in [Engine::Naive, Engine::Skip] {
        let mut sys = shaped_system(engine);
        let mut cores: Vec<CoreSignals> = sys.snapshots();
        let mut chans: Vec<ChannelSystemStats> = sys.system_stats().channels;
        for epoch in 1..=EPOCHS {
            // A boundary's row is taken at the end of the tick at that
            // cycle, so the matching view is read once that tick has run:
            // the first row covers ticks 0..=INTERVAL.
            sys.run_cycles(if epoch == 1 { INTERVAL + 1 } else { INTERVAL });
            let row = sys.samples().last().expect("a row per boundary").clone();
            assert_eq!(row.epoch, epoch as u64, "{engine:?}");
            assert_eq!(row.at, epoch as Cycle * INTERVAL, "{engine:?}");

            let now_cores = sys.snapshots();
            for (c, r) in row.cores.iter().enumerate() {
                let d = now_cores[c].delta(&cores[c]);
                let tag = format!("{engine:?} epoch {epoch} core {c}");
                assert_eq!(r.instructions, d.instructions, "{tag}: instructions");
                assert_eq!(r.mem_stall, d.mem_stall_cycles, "{tag}: mem_stall");
                assert_eq!(r.l1_misses, d.l1_misses, "{tag}: l1_misses");
                assert_eq!(r.llc_misses, d.llc_misses, "{tag}: llc_misses");
                assert_eq!(r.fills, d.mem_completed, "{tag}: fills");
            }
            cores = now_cores;

            let now_chans = sys.system_stats().channels;
            assert_eq!(row.channels.len(), now_chans.len());
            for (ch, r) in row.channels.iter().enumerate() {
                let (a, b) = (&now_chans[ch], &chans[ch]);
                let tag = format!("{engine:?} epoch {epoch} channel {ch}");
                assert_eq!(
                    r.dispatched,
                    a.dispatched - b.dispatched,
                    "{tag}: dispatched"
                );
                assert_eq!(r.bytes, a.bytes - b.bytes, "{tag}: bytes");
                assert_eq!(
                    r.busy_bus,
                    a.busy_bus_cycles - b.busy_bus_cycles,
                    "{tag}: busy_bus"
                );
            }
            chans = now_chans;
        }
        let rows = sys.samples();
        assert_eq!(rows.len(), EPOCHS, "{engine:?}");
        let cores = || rows.iter().flat_map(|r| &r.cores);
        for (what, total) in [
            ("instructions", cores().map(|c| c.instructions).sum::<u64>()),
            ("shaper stalls", cores().map(|c| c.shaper_stall).sum()),
            (
                "dispatches",
                rows.iter()
                    .flat_map(|r| &r.channels)
                    .map(|c| c.dispatched)
                    .sum(),
            ),
        ] {
            assert!(total > 0, "{engine:?}: the run must exercise {what}");
        }
    }
}
