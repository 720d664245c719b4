//! Property-based tests for the simulator substrate's core data
//! structures and invariants.

use proptest::prelude::*;

use mitts_sim::cache::{Cache, MshrFile, MshrOutcome};
use mitts_sim::config::{CacheConfig, DramConfig};
use mitts_sim::dram::{AddressMap, Dram};
use mitts_sim::histogram::InterArrivalHistogram;
use mitts_sim::rng::Rng;
use mitts_sim::shaper::{ShapeDecision, SourceShaper, StaticRateShaper};
use mitts_sim::types::MemCmd;

fn tiny_cache_config() -> CacheConfig {
    CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, mshrs: 4, hit_latency: 1 }
}

proptest! {
    /// After filling a line, probing it must hit until 2+ conflicting
    /// fills to the same set can have evicted it.
    #[test]
    fn cache_fill_then_probe_hits(addr in 0u64..1_000_000) {
        let mut c = Cache::new(&tiny_cache_config());
        let line = addr & !63;
        c.fill(line, false);
        prop_assert!(c.probe(line));
    }

    /// A cache never reports more hits+misses than accesses made, and an
    /// access is always exactly one of hit or miss.
    #[test]
    fn cache_access_accounting(addrs in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut c = Cache::new(&tiny_cache_config());
        for (i, &a) in addrs.iter().enumerate() {
            let _ = c.access(a, false);
            prop_assert_eq!(c.hits() + c.misses(), (i + 1) as u64);
        }
    }

    /// Evictions only report lines that were actually resident: filling K
    /// distinct lines into one set of a W-way cache evicts exactly
    /// max(0, K - W) lines, and every victim is one of the filled lines.
    #[test]
    fn cache_eviction_conservation(k in 1usize..12) {
        let cfg = tiny_cache_config(); // 8 sets x 2 ways
        let mut c = Cache::new(&cfg);
        let sets = cfg.sets() as u64;
        let mut victims = Vec::new();
        let filled: Vec<u64> = (0..k as u64).map(|i| i * sets * 64).collect(); // same set 0
        for &line in &filled {
            if let Some(ev) = c.fill(line, false) {
                victims.push(ev.line_addr);
            }
        }
        prop_assert_eq!(victims.len(), k.saturating_sub(2));
        for v in victims {
            prop_assert!(filled.contains(&v), "victim {v:#x} was never filled");
        }
    }

    /// MSHR: merges never exceed capacity in distinct lines; completing
    /// returns every waiter exactly once.
    #[test]
    fn mshr_waiter_conservation(ops in proptest::collection::vec((0u64..8, any::<bool>()), 1..64)) {
        let mut m: MshrFile<usize> = MshrFile::new(4);
        let mut expected: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        for (i, &(line, write)) in ops.iter().enumerate() {
            let line = line * 64;
            match m.allocate(line, 0, write, i) {
                MshrOutcome::Allocated | MshrOutcome::Merged => {
                    expected.entry(line).or_default().push(i);
                }
                MshrOutcome::Full => {}
            }
            prop_assert!(m.len() <= 4);
        }
        for (line, waiters) in expected {
            let entry = m.complete(line).expect("tracked line must complete");
            prop_assert_eq!(entry.waiters, waiters);
        }
        prop_assert!(m.is_empty());
    }

    /// Histogram totals equal the number of recorded gaps, regardless of
    /// bin geometry.
    #[test]
    fn histogram_total_conservation(
        gaps in proptest::collection::vec(0u64..10_000, 0..300),
        bins in 1usize..20,
        width in 1u64..50,
    ) {
        let mut h = InterArrivalHistogram::new(bins, width);
        for &g in &gaps {
            h.record_gap(g);
        }
        prop_assert_eq!(h.total(), gaps.len() as u64);
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.overflow(), gaps.len() as u64);
    }

    /// DRAM: data bursts never overlap on the shared bus, and every
    /// dispatched transaction completes exactly once.
    #[test]
    fn dram_bus_never_overlaps(
        reqs in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 1..40)
    ) {
        let mut d: Dram<usize> = Dram::new(&DramConfig::default(), 2.4e9);
        let burst = d.timing().burst;
        let mut now = 0;
        let mut pending = 0usize;
        let mut completions: Vec<(u64, u64)> = Vec::new(); // (start, end)
        for (i, &(addr, write)) in reqs.iter().enumerate() {
            let addr = addr & !63;
            // Advance time until the bank is free.
            while !d.can_start(now, addr) {
                now += 1;
            }
            let cmd = if write { MemCmd::Write } else { MemCmd::Read };
            let done = d.start(now, addr, cmd, i);
            completions.push((done - burst, done));
            pending += 1;
        }
        // Bursts must be non-overlapping when sorted by start.
        completions.sort();
        for w in completions.windows(2) {
            prop_assert!(w[1].0 >= w[0].1, "bursts overlap: {:?}", w);
        }
        // Drain everything.
        let last = completions.last().unwrap().1;
        let done = d.drain_completions(last);
        prop_assert_eq!(done.len(), pending);
    }

    /// The shift-and-mask DRAM decode equals the division formula it
    /// replaced, `((addr/64)/cpr % banks, (addr/64)/cpr / banks)`, on every
    /// power-of-two geometry with 1..=64 banks and 64 B..=64 KiB rows.
    #[test]
    fn address_map_matches_the_division_decode(
        wide in proptest::collection::vec(any::<u64>(), 1..24),
        narrow in proptest::collection::vec(0u64..1 << 32, 1..24),
    ) {
        for bank_bits in 0..=6 {
            for row_shift in 6..=16 {
                let cfg = DramConfig {
                    banks: 1 << bank_bits,
                    row_bytes: 1 << row_shift,
                    ..DramConfig::default()
                };
                let map = AddressMap::new(&cfg);
                let (banks, cpr) = (cfg.banks as u64, (cfg.row_bytes / 64) as u64);
                for &addr in wide.iter().chain(&narrow) {
                    let c = map.coord(addr);
                    let within = (addr / 64) / cpr;
                    prop_assert_eq!(
                        (c.bank as u64, c.row),
                        (within % banks, within / banks),
                        "{} banks, {} B rows, addr {:#x}", cfg.banks, cfg.row_bytes, addr
                    );
                }
            }
        }
    }

    /// The static rate shaper never grants two requests closer than its
    /// interval, whatever the request arrival pattern.
    #[test]
    fn static_shaper_spacing_invariant(
        interval in 1u64..200,
        arrivals in proptest::collection::vec(0u64..5, 1..200),
    ) {
        let mut s = StaticRateShaper::new(interval);
        let mut now = 0;
        let mut last_grant: Option<u64> = None;
        for &step in &arrivals {
            now += step;
            s.tick(now);
            if let ShapeDecision::Grant(_) = s.try_issue(now) {
                if let Some(prev) = last_grant {
                    prop_assert!(now - prev >= interval,
                        "grants {prev} and {now} violate interval {interval}");
                }
                last_grant = Some(now);
            }
        }
    }

    /// The deterministic RNG's `below` is always within bounds and a
    /// reseeded generator replays exactly.
    #[test]
    fn rng_below_bound_and_replay(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = Rng::seeded(seed);
        let mut b = Rng::seeded(seed);
        for _ in 0..50 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }
}
