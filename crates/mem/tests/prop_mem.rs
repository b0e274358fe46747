//! Property-based tests for the simulated memory subsystem.

use ddtr_mem::{
    Cache, CacheConfig, CacheStats, LineAccess, MemoryConfig, MemorySystem, ReplacementPolicy,
    SimAllocator, VirtAddr,
};
use proptest::prelude::*;

/// Reference model of [`Cache`]: one vector of lines per set, with the
/// line, set and tag found by division. The flat, shift-indexed `Cache`
/// must agree with it on every access.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<RefLine>>,
    clock: u64,
    rng: u64,
    stats: CacheStats,
}

#[derive(Debug, Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            cfg,
            sets: vec![vec![RefLine::default(); cfg.ways as usize]; cfg.sets() as usize],
            clock: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            stats: CacheStats::default(),
        }
    }

    fn access_line(&mut self, addr: VirtAddr, write: bool) -> LineAccess {
        self.clock += 1;
        let line_idx = addr.line_index(self.cfg.line_bytes);
        let n_sets = self.sets.len() as u64;
        let set_idx = (line_idx % n_sets) as usize;
        let tag = line_idx / n_sets;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            if self.cfg.replacement == ReplacementPolicy::Lru {
                way.stamp = self.clock;
            }
            way.dirty |= write;
            if write {
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return LineAccess {
                hit: true,
                writeback: false,
                victim_line: None,
            };
        }
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let victim = if let Some(invalid) = set.iter().position(|l| !l.valid) {
            invalid
        } else {
            match self.cfg.replacement {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .map(|(i, _)| i)
                    .expect("at least one way"),
                ReplacementPolicy::Random => {
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    (self.rng % set.len() as u64) as usize
                }
            }
        };
        let victim = &mut set[victim];
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        let victim_line = writeback.then(|| victim.tag * n_sets + set_idx as u64);
        *victim = RefLine {
            tag,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
        LineAccess {
            hit: false,
            writeback,
            victim_line,
        }
    }

    fn valid_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid).count()
    }
}

/// Cache geometries with power-of-two and other set counts (1..=96), 1–16
/// ways, 1–128-byte lines and every replacement policy.
fn geometries() -> impl Strategy<Value = CacheConfig> {
    (0u32..8, 1u32..=16, 1u64..=96, 0usize..3).prop_map(|(line_log2, ways, sets, policy)| {
        let line_bytes = 1u64 << line_log2;
        CacheConfig {
            capacity_bytes: sets * u64::from(ways) * line_bytes,
            line_bytes,
            ways,
            hit_cycles: 1,
            replacement: [
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ][policy],
        }
    })
}

/// Operations applied to the allocator under test.
#[derive(Debug, Clone)]
enum HeapOp {
    Alloc(u64),
    /// Free the i-th live block (modulo the live count).
    Free(usize),
}

fn heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..256).prop_map(HeapOp::Alloc),
            (0usize..64).prop_map(HeapOp::Free),
        ],
        1..200,
    )
}

proptest! {
    /// Live blocks never overlap, regardless of the alloc/free sequence.
    #[test]
    fn allocator_blocks_never_overlap(ops in heap_ops()) {
        let mut heap = SimAllocator::new(0x1000, 1 << 20);
        let mut live: Vec<(VirtAddr, u64)> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Alloc(size) => {
                    if let Ok(addr) = heap.alloc(size) {
                        live.push((addr, size));
                    }
                }
                HeapOp::Free(i) => {
                    if !live.is_empty() {
                        let (addr, _) = live.remove(i % live.len());
                        heap.free(addr).expect("live block frees cleanly");
                    }
                }
            }
            // No two live blocks overlap.
            let mut spans: Vec<(u64, u64)> = live
                .iter()
                .map(|&(a, s)| (a.as_u64(), a.as_u64() + s))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "blocks overlap: {:?}", w);
            }
        }
    }

    /// Freeing everything coalesces the arena back to a single region and
    /// zero live bytes.
    #[test]
    fn allocator_full_free_coalesces(sizes in prop::collection::vec(1u64..512, 1..64)) {
        let mut heap = SimAllocator::new(0x1000, 1 << 20);
        let blocks: Vec<_> = sizes.iter().map(|&s| heap.alloc(s).expect("fits")).collect();
        for b in blocks {
            heap.free(b).expect("free");
        }
        prop_assert_eq!(heap.free_regions(), 1);
        prop_assert_eq!(heap.stats().live_gross_bytes, 0);
        prop_assert_eq!(heap.stats().live_user_bytes, 0);
    }

    /// Peak footprint is monotone non-decreasing and at least current usage.
    #[test]
    fn allocator_peak_is_monotone(ops in heap_ops()) {
        let mut heap = SimAllocator::new(0x1000, 1 << 20);
        let mut live: Vec<VirtAddr> = Vec::new();
        let mut last_peak = 0;
        for op in ops {
            match op {
                HeapOp::Alloc(size) => {
                    if let Ok(a) = heap.alloc(size) {
                        live.push(a);
                    }
                }
                HeapOp::Free(i) => {
                    if !live.is_empty() {
                        let a = live.remove(i % live.len());
                        heap.free(a).expect("free");
                    }
                }
            }
            let s = heap.stats();
            prop_assert!(s.peak_gross_bytes >= last_peak);
            prop_assert!(s.peak_gross_bytes >= s.live_gross_bytes);
            last_peak = s.peak_gross_bytes;
        }
    }

    /// Re-accessing an address immediately after the first access always
    /// hits (temporal locality is honoured by the LRU cache).
    #[test]
    fn cache_immediate_reaccess_hits(addrs in prop::collection::vec(0u64..(1 << 20), 1..100)) {
        let mut cache = Cache::new(CacheConfig::default());
        for raw in addrs {
            let a = VirtAddr::new(raw);
            cache.access(a, false);
            let (hit, _) = cache.access(a, false);
            prop_assert!(hit);
        }
    }

    /// Hit + miss counts always add up to total accesses.
    #[test]
    fn cache_counters_are_consistent(
        ops in prop::collection::vec((0u64..(1 << 16), any::<bool>()), 1..300)
    ) {
        let mut cache = Cache::new(CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 32,
            ways: 2,
            hit_cycles: 1,
            ..CacheConfig::default()
        });
        for (raw, write) in &ops {
            cache.access(VirtAddr::new(*raw), *write);
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses(), ops.len() as u64);
        prop_assert!(s.writebacks <= s.read_misses + s.write_misses);
    }

    /// The flat cache matches the reference model access for access: same
    /// hit, writeback and victim line, same counters and resident lines.
    /// Addresses span four times the capacity, so streams mix hits,
    /// conflict evictions and dirty writebacks.
    #[test]
    fn cache_matches_reference_model(
        cfg in geometries(),
        ops in prop::collection::vec((any::<u64>(), any::<bool>()), 1..400)
    ) {
        let mut cache = Cache::new(cfg);
        let mut model = RefCache::new(cfg);
        let span = 4 * cfg.capacity_bytes;
        for (i, (raw, write)) in ops.iter().enumerate() {
            let addr = VirtAddr::new(raw % span);
            let got = cache.access_line(addr, *write);
            let want = model.access_line(addr, *write);
            prop_assert_eq!(got, want, "access {} to {} under {:?}", i, addr, cfg);
        }
        prop_assert_eq!(cache.stats(), model.stats);
        prop_assert_eq!(cache.valid_lines(), model.valid_lines());
    }

    /// The composed system is deterministic: same op sequence, same report.
    #[test]
    fn memory_system_is_deterministic(
        ops in prop::collection::vec((0u64..4096, 1u64..64, any::<bool>()), 1..200)
    ) {
        let run = || {
            let mut m = MemorySystem::new(MemoryConfig::tiny_for_tests());
            let base = m.alloc(8192).expect("arena fits");
            for (off, size, write) in &ops {
                let addr = base.offset(off % 8000);
                if *write {
                    m.write(addr, *size);
                } else {
                    m.read(addr, *size);
                }
            }
            m.report()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.accesses, b.accesses);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert!((a.energy_nj - b.energy_nj).abs() < 1e-9);
        prop_assert_eq!(a.peak_footprint_bytes, b.peak_footprint_bytes);
    }

    /// Energy and cycles are strictly positive for any non-empty workload.
    #[test]
    fn work_always_costs_something(size in 1u64..128) {
        let mut m = MemorySystem::new(MemoryConfig::default());
        let a = m.alloc(size).expect("fits");
        m.write(a, size);
        let r = m.report();
        prop_assert!(r.cycles > 0);
        prop_assert!(r.energy_nj > 0.0);
        prop_assert!(r.peak_footprint_bytes >= size);
    }
}
