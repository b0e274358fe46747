//! Set-associative write-back cache simulator (the L1 and the optional L2).

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::VirtAddr;
use serde::{Deserialize, Serialize};

/// Hit/miss counters of a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Dirty lines written back to the next level on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Miss ratio in `[0, 1]`; zero when no access has been made.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.read_misses + self.write_misses) as f64 / total as f64
        }
    }
}

/// Outcome of a single line-sized cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAccess {
    /// Whether the line was resident.
    pub hit: bool,
    /// Whether a dirty line was evicted (must be written to the next
    /// level).
    pub writeback: bool,
    /// Global line index of the evicted dirty line, when `writeback`.
    pub victim_line: Option<u64>,
}

/// How a line index splits into a set index and a tag.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// Power-of-two set count: `set = line & mask`, `tag = line >> shift`.
    Pow2 { mask: u64, shift: u32 },
    /// Any other set count: `set = line % sets`, `tag = line / sets`.
    Modulo(u64),
}

/// Tag word of a way in `Cache::ways`.
const TAG: usize = 0;
/// Stamp word of a way: `clock << 1 | dirty` at the last touch that set
/// it. Zero marks an invalid way, because the clock is at least 1 by the
/// time a way is filled.
const STAMP: usize = 1;

/// A set-associative, write-back, write-allocate cache with configurable
/// replacement ([`ReplacementPolicy`]; LRU by default).
///
/// The cache stores no data — only tags — because the simulation needs
/// timing and energy, not values. One [`Cache::access`] call covers exactly
/// one cache line; [`crate::MemorySystem`] splits larger transfers.
///
/// # Layout
///
/// Ways live in one flat, set-major array: set `s` is
/// `ways[s * n_ways..(s + 1) * n_ways]`, and four 16-byte ways share a
/// 64-byte host cache line. The set and tag come from shifts and a mask
/// when the set count is a power of two, and from `%` and `/` otherwise
/// (see the crate docs).
///
/// # Example
///
/// ```
/// use ddtr_mem::{Cache, CacheConfig, VirtAddr};
///
/// let mut cache = Cache::new(CacheConfig::default());
/// let addr = VirtAddr::new(0x2000);
/// // Cold miss, then hit.
/// cache.access(addr, false);
/// cache.access(addr, false);
/// assert_eq!(cache.stats().read_misses, 1);
/// assert_eq!(cache.stats().read_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Set-major `[tag, stamp]` pairs, indexed by `TAG` and `STAMP`.
    ways: Vec<[u64; 2]>,
    n_ways: usize,
    n_sets: u64,
    line_shift: u32,
    index: SetIndex,
    clock: u64,
    /// Deterministic xorshift state for [`ReplacementPolicy::Random`].
    rng: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let n_sets = cfg.sets();
        let n_ways = cfg.ways as usize;
        let index = if n_sets.is_power_of_two() {
            SetIndex::Pow2 {
                mask: n_sets - 1,
                shift: n_sets.trailing_zeros(),
            }
        } else {
            SetIndex::Modulo(n_sets)
        };
        Cache {
            cfg,
            ways: vec![[0; 2]; n_sets as usize * n_ways],
            n_ways,
            n_sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            index,
            clock: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            stats: CacheStats::default(),
        }
    }

    /// Geometry of this cache.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters but keeps cache contents (for phase-separated
    /// measurement).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses the line containing `addr`. `write` selects a store.
    ///
    /// Returns whether the access hit and whether a dirty line was evicted
    /// (a writeback to the next level).
    pub fn access(&mut self, addr: VirtAddr, write: bool) -> (bool, bool) {
        let outcome = self.access_line(addr, write);
        (outcome.hit, outcome.writeback)
    }

    /// Like [`Cache::access`], but also reports which line was evicted so
    /// a multi-level hierarchy can route the writeback to the correct
    /// next-level set.
    #[inline(always)]
    pub fn access_line(&mut self, addr: VirtAddr, write: bool) -> LineAccess {
        let line = addr.as_u64() >> self.line_shift;
        let (set, tag) = match self.index {
            SetIndex::Pow2 { mask, shift } => (line & mask, line >> shift),
            SetIndex::Modulo(n_sets) => (line % n_sets, line / n_sets),
        };
        if self.hit(set, tag, write) {
            return LineAccess {
                hit: true,
                writeback: false,
                victim_line: None,
            };
        }
        self.fill(set, tag, write)
    }

    /// Serves line index `line` when it is resident and the set count is
    /// a power of two, as [`Cache::hit`] does; returns `false`, having
    /// changed nothing, otherwise.
    #[inline(always)]
    pub(crate) fn hit_pow2(&mut self, line: u64, write: bool) -> bool {
        match self.index {
            SetIndex::Pow2 { mask, shift } => self.hit(line & mask, line >> shift, write),
            SetIndex::Modulo(_) => false,
        }
    }

    /// The lookup-and-refresh primitive: when `tag` is resident in `set`,
    /// ticks the clock, refreshes the way's recency (LRU only), dirties it
    /// on a write, counts the hit and returns `true`. On a miss it changes
    /// nothing, so the miss path ticks the clock once.
    #[inline(always)]
    fn hit(&mut self, set: u64, tag: u64, write: bool) -> bool {
        let first = set as usize * self.n_ways;
        let ways = &mut self.ways[first..first + self.n_ways];
        let Some(way) = ways.iter_mut().find(|w| w[TAG] == tag && w[STAMP] != 0) else {
            return false;
        };
        self.clock += 1;
        // FIFO and Random keep the fill-time stamp; only LRU refreshes
        // recency on a hit.
        if self.cfg.replacement == ReplacementPolicy::Lru {
            way[STAMP] = self.clock << 1 | (way[STAMP] & 1);
        }
        way[STAMP] |= u64::from(write);
        if write {
            self.stats.write_hits += 1;
        } else {
            self.stats.read_hits += 1;
        }
        true
    }

    /// The miss path: ticks the clock, counts the miss and allocates
    /// (write-allocate policy) over the victim way of `set`.
    fn fill(&mut self, set: u64, tag: u64, write: bool) -> LineAccess {
        self.clock += 1;
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let first = set as usize * self.n_ways;
        let ways = &mut self.ways[first..first + self.n_ways];
        let victim = if let Some(invalid) = ways.iter().position(|w| w[STAMP] == 0) {
            invalid
        } else {
            match self.cfg.replacement {
                // LRU evicts the least recently touched way; FIFO the
                // oldest-filled (stamps are only refreshed under LRU, so
                // the same min-stamp scan serves both). Stamps of one set
                // are distinct, so the dirty bit never decides.
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w[STAMP])
                    .map(|(i, _)| i)
                    .expect("cache set has at least one way"),
                ReplacementPolicy::Random => {
                    // xorshift64* — deterministic across runs.
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    (self.rng % self.n_ways as u64) as usize
                }
            }
        };
        let way = &mut ways[victim];
        let writeback = way[STAMP] & 1 == 1;
        if writeback {
            self.stats.writebacks += 1;
        }
        let victim_line = writeback.then(|| way[TAG] * self.n_sets + set);
        *way = [tag, self.clock << 1 | u64::from(write)];
        LineAccess {
            hit: false,
            writeback,
            victim_line,
        }
    }

    /// Number of currently valid lines (useful in tests).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.ways.iter().filter(|w| w[STAMP] != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        tiny_with(ReplacementPolicy::Lru)
    }

    fn tiny_with(replacement: ReplacementPolicy) -> Cache {
        // 4 sets x 2 ways x 32B lines = 256 B.
        Cache::new(CacheConfig {
            capacity_bytes: 256,
            line_bytes: 32,
            ways: 2,
            hit_cycles: 1,
            replacement,
        })
    }

    fn addr_for(set: u64, tag: u64) -> VirtAddr {
        // line_idx = tag * n_sets + set; addr = line_idx * line_bytes
        VirtAddr::new((tag * 4 + set) * 32)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let a = addr_for(0, 1);
        assert_eq!(c.access(a, false), (false, false));
        assert_eq!(c.access(a, false), (true, false));
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.access(VirtAddr::new(0x40), false);
        assert!(c.access(VirtAddr::new(0x5f), false).0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        let a = addr_for(0, 1);
        let b = addr_for(0, 2);
        let d = addr_for(0, 3);
        c.access(a, false); // miss
        c.access(b, false); // miss — set 0 full
        c.access(a, false); // hit, refresh a
        c.access(d, false); // miss, evicts b (LRU)
        assert!(c.access(a, false).0, "a survived");
        assert!(!c.access(b, false).0, "b was evicted");
    }

    #[test]
    fn dirty_eviction_triggers_writeback() {
        let mut c = tiny();
        let a = addr_for(1, 1);
        let b = addr_for(1, 2);
        let d = addr_for(1, 3);
        c.access(a, true); // dirty
        c.access(b, false);
        let (_, wb) = c.access(d, false); // evicts dirty a
        assert!(wb);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(addr_for(2, 1), false);
        c.access(addr_for(2, 2), false);
        let (_, wb) = c.access(addr_for(2, 3), false);
        assert!(!wb);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = tiny();
        let a = addr_for(3, 1);
        c.access(a, false); // clean fill
        c.access(a, true); // dirty it
        c.access(addr_for(3, 2), false);
        let (_, wb) = c.access(addr_for(3, 3), false); // evict a
        assert!(wb, "line dirtied by the write hit must be written back");
    }

    #[test]
    fn miss_ratio_is_computed() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(addr_for(0, 1), false);
        c.access(addr_for(0, 1), false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        let a = addr_for(0, 1);
        c.access(a, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(a, false).0, "line still cached");
    }

    #[test]
    fn fifo_ignores_hits_when_choosing_the_victim() {
        let mut c = tiny_with(ReplacementPolicy::Fifo);
        let a = addr_for(0, 1);
        let b = addr_for(0, 2);
        let d = addr_for(0, 3);
        c.access(a, false); // filled first
        c.access(b, false);
        c.access(a, false); // hit: would rescue `a` under LRU, not FIFO
        c.access(d, false); // evicts the oldest fill = a
        assert!(!c.access(a, false).0, "FIFO evicted the oldest fill");
        // That probe refilled `a`, evicting FIFO-oldest `b`.
        assert!(!c.access(b, false).0);
    }

    #[test]
    fn lru_and_fifo_diverge_on_the_rescue_pattern() {
        // Same access stream, different survivor: the canonical
        // policy-sensitivity witness.
        let stream = |c: &mut Cache| {
            c.access(addr_for(0, 1), false);
            c.access(addr_for(0, 2), false);
            c.access(addr_for(0, 1), false); // rescue under LRU
            c.access(addr_for(0, 3), false); // forces an eviction
            c.access(addr_for(0, 1), false).0 // did tag 1 survive?
        };
        assert!(stream(&mut tiny_with(ReplacementPolicy::Lru)));
        assert!(!stream(&mut tiny_with(ReplacementPolicy::Fifo)));
    }

    #[test]
    fn random_replacement_is_deterministic_across_runs() {
        let run = || {
            let mut c = tiny_with(ReplacementPolicy::Random);
            for i in 0..200u64 {
                c.access(addr_for(i % 4, (i * 7) % 13), i % 3 == 0);
            }
            c.stats()
        };
        assert_eq!(run(), run(), "xorshift victims must replay identically");
    }

    #[test]
    fn random_replacement_fills_invalid_ways_first() {
        let mut c = tiny_with(ReplacementPolicy::Random);
        c.access(addr_for(1, 1), false);
        c.access(addr_for(1, 2), false);
        // Both fills land in empty ways: no eviction has happened, so both
        // must still be resident.
        assert!(c.access(addr_for(1, 1), false).0);
        assert!(c.access(addr_for(1, 2), false).0);
    }

    #[test]
    fn valid_lines_grow_to_capacity() {
        let mut c = tiny();
        for tag in 0..4 {
            for set in 0..4 {
                c.access(addr_for(set, tag), false);
            }
        }
        assert_eq!(c.valid_lines(), 8, "4 sets x 2 ways all valid");
    }
}
