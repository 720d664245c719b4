//! Set-associative cache model with true-LRU replacement and a miss-status
//! holding register (MSHR) file.
//!
//! The model tracks tags and dirty bits only (no data); hits, misses,
//! evictions, and writebacks are what the memory system cares about. The
//! same structure serves as a private L1 and as the shared LLC.

use crate::config::CacheConfig;
use crate::types::{Addr, Cycle, LineGeometry};

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was absent.
    Miss,
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub line_addr: Addr,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotone per-cache counter value at last touch; larger = more
    /// recently used.
    lru_stamp: u64,
}

impl Way {
    const EMPTY: Way = Way { tag: 0, valid: false, dirty: false, lru_stamp: 0 };
}

/// Tag-array model of a set-associative, write-back, write-allocate cache
/// with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use mitts_sim::cache::{Cache, AccessResult};
/// use mitts_sim::config::CacheConfig;
/// let mut c = Cache::new(&CacheConfig::l1_default());
/// assert_eq!(c.access(0x1000, false), AccessResult::Miss);
/// c.fill(0x1000, false);
/// assert_eq!(c.access(0x1000, false), AccessResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Way>>,
    geometry: LineGeometry,
    index_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            sets: vec![vec![Way::EMPTY; config.ways]; sets],
            geometry: config.geometry(),
            index_mask: sets as u64 - 1,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = self.geometry.line_number(addr);
        ((line & self.index_mask) as usize, line >> self.index_mask.count_ones())
    }

    /// Looks up `addr`; on a hit the line's LRU position is refreshed and,
    /// if `write`, the line is marked dirty. Misses do **not** allocate —
    /// call [`Cache::fill`] when the refill returns.
    pub fn access(&mut self, addr: Addr, write: bool) -> AccessResult {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                way.lru_stamp = self.tick;
                way.dirty |= write;
                self.hits += 1;
                return AccessResult::Hit;
            }
        }
        self.misses += 1;
        AccessResult::Miss
    }

    /// Checks for presence without updating LRU or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way if the set
    /// is full. Returns the victim if one was evicted.
    ///
    /// Filling a line that is already present just refreshes it (this can
    /// happen when two MSHRs race in the model's simplified world and is
    /// harmless).
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Eviction> {
        self.tick += 1;
        let line_bits = self.index_mask.count_ones();
        let (set, tag) = self.set_and_tag(addr);
        // Already present?
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru_stamp = self.tick;
            way.dirty |= dirty;
            return None;
        }
        // Empty way?
        let tick = self.tick;
        if let Some(way) = self.sets[set].iter_mut().find(|w| !w.valid) {
            *way = Way { tag, valid: true, dirty, lru_stamp: tick };
            return None;
        }
        // Evict LRU.
        let victim_idx = self
            .sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.lru_stamp)
            .map(|(i, _)| i)
            .expect("set has at least one way");
        let victim = self.sets[set][victim_idx];
        // Reconstruct the victim's line-aligned byte address from its tag
        // and set index.
        let victim_addr =
            ((victim.tag << line_bits) | set as u64) * self.geometry.line_bytes() as u64;
        self.sets[set][victim_idx] = Way { tag, valid: true, dirty, lru_stamp: tick };
        Some(Eviction { line_addr: victim_addr, dirty: victim.dirty })
    }

    /// Invalidates the line containing `addr` if present, returning whether
    /// it was dirty.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                way.valid = false;
                return Some(way.dirty);
            }
        }
        None
    }

    /// Encodes the full tag array (checkpoint support).
    ///
    /// Recency is written in *canonical* form: valid ways are ranked
    /// 1..=n by `lru_stamp` and the ranks are persisted instead of the
    /// raw stamps. Raw stamps count every `access`/`fill` *call* —
    /// including misses retried while an MSHR is full — so their
    /// absolute values depend on how the run was driven (the naive
    /// engine retries on cycles the skip engine elides). Only the
    /// relative order is architectural, and ranking preserves it
    /// exactly, keeping snapshot bytes engine-independent. The
    /// `tick`/`hits`/`misses` call counters are execution diagnostics
    /// and are not persisted at all.
    pub fn save_state(&self, enc: &mut crate::snapshot::Enc) {
        enc.usize(self.sets.len());
        enc.usize(self.sets.first().map_or(0, |s| s.len()));
        // (stamp, set, way) for every valid way; stamps are unique among
        // valid ways (each call stamps at most one way with a fresh
        // tick), so the order — and therefore the encoding — is total
        // and deterministic.
        let mut order: Vec<(u64, usize, usize)> = Vec::new();
        for (si, set) in self.sets.iter().enumerate() {
            for (wi, way) in set.iter().enumerate() {
                if way.valid {
                    order.push((way.lru_stamp, si, wi));
                }
            }
        }
        order.sort_unstable();
        let ways = self.sets.first().map_or(0, |s| s.len());
        let mut rank = vec![0u64; self.sets.len() * ways];
        for (r, &(_, si, wi)) in order.iter().enumerate() {
            rank[si * ways + wi] = r as u64 + 1;
        }
        for (si, set) in self.sets.iter().enumerate() {
            for (wi, way) in set.iter().enumerate() {
                enc.u64(way.tag);
                enc.bool(way.valid);
                enc.bool(way.dirty);
                enc.u64(rank[si * ways + wi]);
            }
        }
        enc.u64(order.len() as u64);
    }

    /// Restores state written by [`Cache::save_state`], rejecting a
    /// geometry mismatch.
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let sets = dec.usize()?;
        let ways = dec.usize()?;
        if sets != self.sets.len() || ways != self.sets.first().map_or(0, |s| s.len()) {
            return Err(SnapshotError::mismatch(format!(
                "cache geometry {sets}x{ways} differs from configured {}x{}",
                self.sets.len(),
                self.sets.first().map_or(0, |s| s.len())
            )));
        }
        for set in &mut self.sets {
            for way in set {
                way.tag = dec.u64()?;
                way.valid = dec.bool()?;
                way.dirty = dec.bool()?;
                way.lru_stamp = dec.u64()?;
            }
        }
        // Resume the recency clock just past the highest persisted rank,
        // so post-restore touches are strictly newer than every restored
        // line. The hit/miss call counters restart at zero (they are
        // diagnostics counting calls since construction or resume).
        self.tick = dec.u64()?;
        self.hits = 0;
        self.misses = 0;
        Ok(())
    }

    /// Total hits recorded by [`Cache::access`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses recorded by [`Cache::access`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Line geometry of this cache.
    pub fn geometry(&self) -> LineGeometry {
        self.geometry
    }
}

/// One outstanding miss, tracking every waiter merged onto it.
#[derive(Debug, Clone)]
pub struct MshrEntry<W> {
    /// Line-aligned address being fetched.
    pub line_addr: Addr,
    /// Cycle the miss was allocated (for latency accounting).
    pub allocated_at: Cycle,
    /// Whether any merged access was a write (fill installs dirty).
    pub any_write: bool,
    /// Opaque waiter tokens to wake on fill (e.g. ROB op ids).
    pub waiters: Vec<W>,
}

/// A bounded MSHR file with merge-on-match semantics.
///
/// `W` is the waiter token type — the simulator uses [`crate::types::OpId`]
/// for L1s and request ids for the LLC.
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    entries: Vec<MshrEntry<W>>,
    capacity: usize,
    // Recycled waiter buffers (see `recycle`): keeps the per-miss Vec
    // allocation out of the issue hot path. Never persisted.
    spare: Vec<Vec<W>>,
}

/// Result of attempting to track a miss in the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must forward the request
    /// down the hierarchy.
    Allocated,
    /// Merged onto an existing entry for the same line; no new downstream
    /// request is needed.
    Merged,
    /// The file is full; the access must retry later.
    Full,
}

impl<W> MshrFile<W> {
    /// Creates a file with room for `capacity` outstanding lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile { entries: Vec::with_capacity(capacity), capacity, spare: Vec::new() }
    }

    /// Records a miss on `line_addr` at time `now` with waiter `waiter`.
    pub fn allocate(&mut self, line_addr: Addr, now: Cycle, write: bool, waiter: W) -> MshrOutcome {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line_addr == line_addr) {
            e.waiters.push(waiter);
            e.any_write |= write;
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        let mut waiters = self.spare.pop().unwrap_or_default();
        waiters.push(waiter);
        self.entries.push(MshrEntry { line_addr, allocated_at: now, any_write: write, waiters });
        MshrOutcome::Allocated
    }

    /// Returns a completed entry's waiter buffer to the allocation pool,
    /// so steady-state miss traffic reuses buffers instead of hitting the
    /// allocator once per miss. Purely an optimisation: unreturned
    /// buffers are simply reallocated.
    pub fn recycle(&mut self, mut waiters: Vec<W>) {
        if self.spare.len() < self.capacity {
            waiters.clear();
            self.spare.push(waiters);
        }
    }

    /// Completes the miss on `line_addr`, returning the entry (with all
    /// merged waiters) if it existed.
    pub fn complete(&mut self, line_addr: Addr) -> Option<MshrEntry<W>> {
        let idx = self.entries.iter().position(|e| e.line_addr == line_addr)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Whether a miss on `line_addr` is already outstanding.
    pub fn contains(&self, line_addr: Addr) -> bool {
        self.entries.iter().any(|e| e.line_addr == line_addr)
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file cannot accept a new line.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Capacity of the file.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocation time of the oldest outstanding entry, if any. Used by
    /// the invariant auditor to detect leaked entries (a miss whose fill
    /// was lost never completes, so its entry ages without bound).
    pub fn oldest_allocated_at(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.allocated_at).min()
    }

    /// Iterates over the outstanding entries (auditor introspection).
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry<W>> {
        self.entries.iter()
    }

    /// Encodes the outstanding entries (checkpoint support). Waiter
    /// tokens are opaque to the file, so the caller supplies their
    /// encoder.
    pub fn save_state(
        &self,
        enc: &mut crate::snapshot::Enc,
        mut enc_waiter: impl FnMut(&mut crate::snapshot::Enc, &W),
    ) {
        enc.usize(self.entries.len());
        for e in &self.entries {
            enc.u64(e.line_addr);
            enc.u64(e.allocated_at);
            enc.bool(e.any_write);
            enc.usize(e.waiters.len());
            for w in &e.waiters {
                enc_waiter(enc, w);
            }
        }
    }

    /// Restores entries written by [`MshrFile::save_state`], preserving
    /// entry and waiter order exactly (entry order is architecturally
    /// significant: `complete` uses `swap_remove`).
    pub fn load_state(
        &mut self,
        dec: &mut crate::snapshot::Dec<'_>,
        mut dec_waiter: impl FnMut(
            &mut crate::snapshot::Dec<'_>,
        ) -> Result<W, crate::snapshot::SnapshotError>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = dec.usize()?;
        if n > self.capacity {
            return Err(SnapshotError::mismatch(format!(
                "MSHR file holds {n} entries but is configured for {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..n {
            let line_addr = dec.u64()?;
            let allocated_at = dec.u64()?;
            let any_write = dec.bool()?;
            let waiters_n = dec.usize()?;
            let mut waiters = Vec::with_capacity(waiters_n);
            for _ in 0..waiters_n {
                waiters.push(dec_waiter(dec)?);
            }
            self.entries.push(MshrEntry { line_addr, allocated_at, any_write, waiters });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(&CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            mshrs: 4,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny_cache();
        assert_eq!(c.access(0x0, false), AccessResult::Miss);
        assert!(c.fill(0x0, false).is_none());
        assert_eq!(c.access(0x0, false), AccessResult::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny_cache();
        c.fill(0x100, false);
        assert_eq!(c.access(0x100 + 63, false), AccessResult::Hit);
        assert_eq!(c.access(0x100 + 64, false), AccessResult::Miss);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny_cache();
        // Set 0 holds lines whose line number is a multiple of 4.
        let a = 0;
        let b = 4 * 64;
        let d = 8 * 64;
        c.fill(a, false);
        c.fill(b, false);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(c.access(a, false), AccessResult::Hit);
        let ev = c.fill(d, false).expect("set full, must evict");
        assert_eq!(ev.line_addr, b);
        assert!(!ev.dirty);
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny_cache();
        let a = 0;
        let b = 4 * 64;
        let d = 8 * 64;
        c.fill(a, false);
        assert_eq!(c.access(a, true), AccessResult::Hit); // dirty it
        c.fill(b, false);
        c.fill(d, false); // evicts `a` (LRU after b touched later)? a was touched most recently...
        // Order: fill a (t1), access a (t2), fill b (t3) -> b newer, evict a? No:
        // stamps: a=t2, b=t3 -> LRU is a.
        assert!(!c.probe(a));
        // We can't capture the eviction above (ignored); redo explicitly.
        let mut c = tiny_cache();
        c.fill(a, false);
        assert_eq!(c.access(a, true), AccessResult::Hit);
        c.fill(b, false);
        let ev = c.fill(d, false).unwrap();
        assert_eq!(ev.line_addr, a);
        assert!(ev.dirty, "written line must evict dirty");
    }

    #[test]
    fn fill_existing_line_is_idempotent() {
        let mut c = tiny_cache();
        c.fill(0x0, false);
        assert!(c.fill(0x0, true).is_none());
        // The duplicate fill with dirty=true should stick.
        let ev = {
            c.fill(4 * 64, false);
            c.fill(8 * 64, false).unwrap()
        };
        assert_eq!(ev.line_addr, 0x0);
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny_cache();
        c.fill(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.probe(0x40));
    }

    #[test]
    fn mshr_allocate_merge_full() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(m.allocate(0x40, 0, false, 1), MshrOutcome::Allocated);
        assert_eq!(m.allocate(0x40, 1, true, 2), MshrOutcome::Merged);
        assert_eq!(m.allocate(0x80, 2, false, 3), MshrOutcome::Allocated);
        assert_eq!(m.allocate(0xC0, 3, false, 4), MshrOutcome::Full);
        assert!(m.is_full());
        let done = m.complete(0x40).unwrap();
        assert_eq!(done.waiters, vec![1, 2]);
        assert!(done.any_write, "merged write must mark entry dirty");
        assert_eq!(m.len(), 1);
        assert!(!m.is_full());
    }

    #[test]
    fn mshr_complete_unknown_line_is_none() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        assert!(m.complete(0x40).is_none());
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny_cache();
        let a = 0;
        let b = 4 * 64;
        let d = 8 * 64;
        c.fill(a, false);
        c.fill(b, false);
        // Probing `a` must NOT refresh it; `a` stays LRU and gets evicted.
        assert!(c.probe(a));
        let ev = c.fill(d, false).unwrap();
        assert_eq!(ev.line_addr, a);
    }
}
