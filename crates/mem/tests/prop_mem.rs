//! Property-based tests for the simulated memory subsystem.

use ddtr_mem::{
    Cache, CacheConfig, CacheStats, FitPolicy, LineAccess, MemoryConfig, MemorySystem,
    ReplacementPolicy, SimAllocator, SpmConfig, VirtAddr,
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

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

/// A lane group: a small shared platform (32-byte lines, a 1–16-line
/// L1, first- or best-fit heap, sometimes a scratchpad) and one to four
/// lanes, each without an L2 or with an L2 of random geometry, latency
/// and replacement policy.
fn lane_group() -> impl Strategy<Value = Vec<MemoryConfig>> {
    let base = (1u64..=4, 1u32..=4, 0usize..3, 0usize..2, 0u64..3).prop_map(
        |(sets, ways, policy, fit, spm_quarter_kib)| {
            let tiny = MemoryConfig::tiny_for_tests();
            MemoryConfig {
                l1: CacheConfig {
                    capacity_bytes: sets * u64::from(ways) * 32,
                    line_bytes: 32,
                    ways,
                    hit_cycles: 1,
                    replacement: POLICIES[policy],
                },
                spm: (spm_quarter_kib > 0).then_some(SpmConfig {
                    capacity_bytes: spm_quarter_kib * 256,
                    access_cycles: 2,
                }),
                fit_policy: [FitPolicy::FirstFit, FitPolicy::BestFit][fit],
                ..tiny
            }
        },
    );
    let l2 = (0u64..33, 1u32..=8, 1u64..=12, 0usize..3);
    (base, prop::collection::vec(l2, 1..5)).prop_map(|(base, lanes)| {
        let l1_lines = base.l1.capacity_bytes / 32;
        lanes
            .into_iter()
            .map(|(sets, ways, hit_cycles, policy)| MemoryConfig {
                // Zero sets is the lane without an L2; the others hold
                // more lines than the L1, in any set count.
                l2: (sets > 0).then(|| CacheConfig {
                    capacity_bytes: sets.max(l1_lines / u64::from(ways) + 1) * u64::from(ways) * 32,
                    line_bytes: 32,
                    ways,
                    hit_cycles,
                    replacement: POLICIES[policy],
                }),
                ..base
            })
            .collect()
    })
}

/// Operations on the memory systems under test.
#[derive(Debug, Clone)]
enum MemOp {
    Alloc(u64),
    AllocHot(u64),
    /// Free the i-th live block (modulo the live count).
    Free(usize),
    /// Access the i-th live block at an offset, for a length.
    Access {
        block: usize,
        offset: u64,
        len: u64,
        write: bool,
    },
    Cpu(u64),
    ResetStats,
}

fn mem_ops() -> impl Strategy<Value = Vec<MemOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (1u64..300).prop_map(MemOp::Alloc),
            2 => (1u64..64).prop_map(MemOp::AllocHot),
            2 => (0usize..64).prop_map(MemOp::Free),
            24 => (0usize..64, 0u64..300, 1u64..100, any::<bool>()).prop_map(
                |(block, offset, len, write)| MemOp::Access { block, offset, len, write }
            ),
            2 => (0u64..20).prop_map(MemOp::Cpu),
            1 => Just(MemOp::ResetStats),
        ],
        1..400,
    )
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

    /// Every lane of a multi-lane system reports exactly what a system
    /// built for its configuration alone reports — cycles, energy bits,
    /// L2 and DRAM counters — after every operation of a random
    /// alloc/free/access stream, with and without an L2, under every
    /// replacement policy.
    #[test]
    fn every_lane_matches_its_solo_system(lanes in lane_group(), ops in mem_ops()) {
        let mut shared = MemorySystem::with_lanes(&lanes);
        let mut solos: Vec<MemorySystem> = lanes.iter().map(|&c| MemorySystem::new(c)).collect();
        prop_assert_eq!(shared.lanes(), lanes.len());
        let mut live: Vec<(VirtAddr, u64)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                MemOp::Alloc(size) | MemOp::AllocHot(size) => {
                    let hot = matches!(op, MemOp::AllocHot(_));
                    let got = if hot { shared.alloc_hot(size) } else { shared.alloc(size) };
                    for solo in &mut solos {
                        let want = if hot { solo.alloc_hot(size) } else { solo.alloc(size) };
                        prop_assert_eq!(&want, &got, "op {}", i);
                    }
                    if let Ok(addr) = got {
                        live.push((addr, size));
                    }
                }
                MemOp::Free(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (addr, _) = live.remove(k % live.len());
                    // Scratchpad blocks are never freed; their free is an
                    // error on every system alike.
                    let got = shared.free(addr);
                    for solo in &mut solos {
                        prop_assert_eq!(&solo.free(addr), &got, "op {}", i);
                    }
                }
                MemOp::Access { block, offset, len, write } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (addr, size) = live[block % live.len()];
                    let offset = offset % size;
                    let len = len.min(size - offset);
                    let run = |m: &mut MemorySystem| {
                        if write {
                            m.write(addr.offset(offset), len)
                        } else {
                            m.read(addr.offset(offset), len)
                        }
                    };
                    let got = run(&mut shared);
                    let want = run(&mut solos[0]);
                    prop_assert_eq!(want, got, "lane 0 cycles of op {}", i);
                    for solo in &mut solos[1..] {
                        run(solo);
                    }
                }
                MemOp::Cpu(n) => {
                    shared.touch_cpu(n);
                    for solo in &mut solos {
                        solo.touch_cpu(n);
                    }
                }
                MemOp::ResetStats => {
                    shared.reset_stats();
                    for solo in &mut solos {
                        solo.reset_stats();
                    }
                }
            }
            for (lane, solo) in solos.iter().enumerate() {
                let (got, want) = (shared.lane_stats(lane), solo.stats());
                prop_assert_eq!(got.energy_nj.to_bits(), want.energy_nj.to_bits(),
                    "lane {} energy after op {} ({:?}) under {:?}", lane, i, op, lanes[lane]);
                prop_assert_eq!(got, want, "lane {} after op {}", lane, i);
                prop_assert_eq!(shared.lane_report(lane), solo.report());
                prop_assert_eq!(shared.lane_l2_stats(lane), solo.l2_stats());
                prop_assert_eq!(shared.lane_dram_stats(lane), solo.lane_dram_stats(0));
                prop_assert_eq!(shared.cache_stats(), solo.cache_stats());
            }
        }
    }
}
