//! Property-based tests for the simulated memory subsystem.

use ddtr_mem::{
    AllocError, Cache, CacheConfig, CacheStats, CostReport, DramStats, EnergyModel, FitPolicy,
    LineAccess, MemStats, MemoryConfig, MemorySystem, ReplacementPolicy, SimAllocator, SpmConfig,
    VirtAddr,
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

/// Base of the scratchpad region: the system places it at this fixed
/// address, below every heap base `MemoryConfig::validate` accepts.
const SPM_BASE: u64 = 0x100;

/// Reference model of a one-lane [`MemorySystem`]: a [`RefCache`] L1, an
/// optional [`RefCache`] L2, a [`SimAllocator`] and DRAM transfer counts.
/// It charges a transaction one line at a time in the documented order —
/// for each line the L1 hit cycles, then the data-array energy, then the
/// fill, then the writeback — and then the transaction's leakage, and it
/// derives every energy from the [`EnergyModel`] when it charges it.
struct RefSystem {
    cfg: MemoryConfig,
    energy: EnergyModel,
    heap: SimAllocator,
    spm_next: u64,
    l1: RefCache,
    l2: Option<RefCache>,
    dram: DramStats,
    stats: MemStats,
}

impl RefSystem {
    fn new(cfg: MemoryConfig) -> Self {
        RefSystem {
            cfg,
            energy: EnergyModel::from_configs(&cfg.l1, &cfg.dram),
            heap: SimAllocator::with_policy(cfg.heap_base, cfg.dram.capacity_bytes, cfg.fit_policy),
            spm_next: SPM_BASE,
            l1: RefCache::new(cfg.l1),
            l2: cfg.l2.map(RefCache::new),
            dram: DramStats::default(),
            stats: MemStats::default(),
        }
    }

    fn charge(&mut self, cycles: u64, energy_nj: f64) {
        self.stats.cycles += cycles;
        self.stats.energy_nj += energy_nj;
    }

    /// Allocator metadata: L1-resident accesses, half of them reads.
    fn charge_meta(&mut self, accesses: u64, cycles: u64) {
        self.stats.reads += accesses / 2;
        self.stats.writes += accesses - accesses / 2;
        let energy_nj = self.energy.l1_access_nj * accesses as f64
            + self.energy.leakage_nj_per_cycle * cycles as f64;
        self.charge(cycles + accesses * self.cfg.l1.hit_cycles, energy_nj);
    }

    fn alloc(&mut self, size: u64) -> Result<VirtAddr, AllocError> {
        let addr = self.heap.alloc(size)?;
        let cost = self.cfg.alloc_cost;
        self.charge_meta(cost.accesses_per_alloc, cost.cycles_per_alloc);
        self.stats.allocs += 1;
        Ok(addr)
    }

    fn alloc_hot(&mut self, size: u64) -> Result<VirtAddr, AllocError> {
        if let Some(spm) = self.cfg.spm {
            let aligned = size.div_ceil(8) * 8;
            if self.spm_next + aligned <= SPM_BASE + spm.capacity_bytes {
                let addr = VirtAddr::new(self.spm_next);
                self.spm_next += aligned;
                return Ok(addr);
            }
        }
        self.alloc(size)
    }

    fn free(&mut self, addr: VirtAddr) -> Result<(), AllocError> {
        self.heap.free(addr)?;
        let cost = self.cfg.alloc_cost;
        self.charge_meta(cost.accesses_per_free, cost.cycles_per_free);
        self.stats.frees += 1;
        Ok(())
    }

    fn touch_cpu(&mut self, ops: u64) {
        let cycles = ops * self.cfg.cpu_op_cycles;
        self.charge(cycles, self.energy.leakage_nj_per_cycle * cycles as f64);
    }

    /// One transaction; returns its cycles.
    fn access(&mut self, addr: VirtAddr, size: u64, write: bool) -> u64 {
        if write {
            self.stats.writes += 1;
            self.stats.write_bytes += size;
        } else {
            self.stats.reads += 1;
            self.stats.read_bytes += size;
        }
        let leakage = self.energy.leakage_nj_per_cycle;
        if let Some(spm) = self.cfg.spm {
            if (SPM_BASE..SPM_BASE + spm.capacity_bytes).contains(&addr.as_u64()) {
                let spm_nj =
                    EnergyModel::sram_access_nj(spm.capacity_bytes, self.cfg.l1.line_bytes, 1);
                let cycles = spm.access_cycles;
                self.charge(cycles, spm_nj + leakage * cycles as f64);
                return cycles;
            }
        }
        let line_bytes = self.cfg.l1.line_bytes;
        let data_nj = self
            .energy
            .data_access_nj(self.heap.stats().live_gross_bytes);
        let first = addr.line_index(line_bytes);
        let last = addr.offset(size - 1).line_index(line_bytes);
        let mut cycles = 0;
        for line in first..=last {
            let line_addr = VirtAddr::new(line * line_bytes);
            let outcome = self.l1.access_line(line_addr, write);
            cycles += self.cfg.l1.hit_cycles;
            self.stats.energy_nj += data_nj;
            if !outcome.hit {
                cycles += self.below_l1(line_addr, false);
            }
            if let Some(victim) = outcome.victim_line {
                cycles += self.below_l1(VirtAddr::new(victim * line_bytes), true);
            }
        }
        self.stats.cycles += cycles;
        self.stats.energy_nj += leakage * cycles as f64;
        cycles
    }

    /// An L1 fill (`write == false`) or dirty writeback, served by the L2
    /// when there is one and by DRAM on an L2 miss or writeback, or by
    /// DRAM alone; returns its cycles.
    fn below_l1(&mut self, line: VirtAddr, write: bool) -> u64 {
        let dram_nj = self.energy.dram_access_nj;
        let dram_cycles = self.cfg.dram.access_cycles;
        let Some(l2) = &mut self.l2 else {
            self.stats.energy_nj += dram_nj;
            if write {
                self.dram.writes += 1;
            } else {
                self.dram.reads += 1;
            }
            return dram_cycles;
        };
        let outcome = l2.access_line(line, write);
        let mut cycles = l2.cfg.hit_cycles;
        self.stats.energy_nj +=
            EnergyModel::sram_access_nj(l2.cfg.capacity_bytes, l2.cfg.line_bytes, l2.cfg.ways);
        if !outcome.hit {
            cycles += dram_cycles;
            self.dram.reads += 1;
            self.stats.energy_nj += dram_nj;
        }
        if outcome.writeback {
            cycles += dram_cycles;
            self.dram.writes += 1;
            self.stats.energy_nj += dram_nj;
        }
        cycles
    }

    fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l1.stats = CacheStats::default();
        if let Some(l2) = &mut self.l2 {
            l2.stats = CacheStats::default();
        }
        self.dram = DramStats::default();
    }

    fn report(&self) -> CostReport {
        CostReport {
            accesses: self.stats.reads + self.stats.writes,
            cycles: self.stats.cycles,
            energy_nj: self.stats.energy_nj,
            peak_footprint_bytes: self.heap.stats().peak_gross_bytes,
        }
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

/// One platform: an L1 of 8- to 64-byte lines, 1–6 sets (power-of-two
/// and other counts), 1–4 ways, 1–3 hit cycles and any replacement
/// policy; with or without an L2 of any set count, latency and policy;
/// with or without a scratchpad; a first- or best-fit heap.
fn platform() -> impl Strategy<Value = MemoryConfig> {
    let l1 = (3u32..7, 1u64..=6, 1u32..=4, 1u64..=3, 0usize..3);
    let l2 = (any::<bool>(), 1u64..=12, 1u32..=8, 1u64..=12, 0usize..3);
    let rest = (0u64..3, 0usize..2, 1u64..=3);
    (l1, l2, rest).prop_map(
        |(
            (line_log2, sets, ways, hit_cycles, policy),
            (has_l2, l2_sets, l2_ways, l2_hit_cycles, l2_policy),
            (spm_quarter_kib, fit, cpu_op_cycles),
        )| {
            let line_bytes = 1u64 << line_log2;
            let l1_lines = sets * u64::from(ways);
            MemoryConfig {
                l1: CacheConfig {
                    capacity_bytes: l1_lines * line_bytes,
                    line_bytes,
                    ways,
                    hit_cycles,
                    replacement: POLICIES[policy],
                },
                // The L2 holds more lines than the L1.
                l2: has_l2.then(|| CacheConfig {
                    capacity_bytes: l2_sets.max(l1_lines / u64::from(l2_ways) + 1)
                        * u64::from(l2_ways)
                        * line_bytes,
                    line_bytes,
                    ways: l2_ways,
                    hit_cycles: l2_hit_cycles,
                    replacement: POLICIES[l2_policy],
                }),
                spm: (spm_quarter_kib > 0).then_some(SpmConfig {
                    capacity_bytes: spm_quarter_kib * 256,
                    access_cycles: 2,
                }),
                fit_policy: [FitPolicy::FirstFit, FitPolicy::BestFit][fit],
                cpu_op_cycles,
                ..MemoryConfig::tiny_for_tests()
            }
        },
    )
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

    /// A one-lane system keeps the reference model's ledgers after every
    /// operation of a random alloc/alloc_hot/free/access/cpu/reset
    /// stream: same addresses and transaction cycles, same report (energy
    /// by bits), counts, L1 and L2 statistics and DRAM transfers.
    #[test]
    fn memory_system_matches_reference_model(cfg in platform(), ops in mem_ops()) {
        let mut sys = MemorySystem::new(cfg);
        let mut model = RefSystem::new(cfg);
        let mut live: Vec<(VirtAddr, u64)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                MemOp::Alloc(size) => {
                    let got = sys.alloc(size);
                    prop_assert_eq!(&got, &model.alloc(size), "op {}", i);
                    live.extend(got.ok().map(|addr| (addr, size)));
                }
                MemOp::AllocHot(size) => {
                    let got = sys.alloc_hot(size);
                    prop_assert_eq!(&got, &model.alloc_hot(size), "op {}", i);
                    live.extend(got.ok().map(|addr| (addr, size)));
                }
                MemOp::Free(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (addr, _) = live.remove(k % live.len());
                    prop_assert_eq!(sys.free(addr), model.free(addr), "op {}", i);
                }
                MemOp::Access { block, offset, len, write } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (addr, size) = live[block % live.len()];
                    let offset = offset % size;
                    let (addr, len) = (addr.offset(offset), len.min(size - offset));
                    let got = if write { sys.write(addr, len) } else { sys.read(addr, len) };
                    prop_assert_eq!(got, model.access(addr, len, write), "op {}", i);
                }
                MemOp::Cpu(n) => {
                    sys.touch_cpu(n);
                    model.touch_cpu(n);
                }
                MemOp::ResetStats => {
                    sys.reset_stats();
                    model.reset_stats();
                }
            }
            let (got, want) = (sys.report(), model.report());
            prop_assert_eq!(got.energy_nj.to_bits(), want.energy_nj.to_bits(),
                "energy after op {} ({:?}) under {:?}", i, op, cfg);
            prop_assert_eq!(got, want, "report after op {}", i);
            prop_assert_eq!(sys.stats(), model.stats, "stats after op {}", i);
            prop_assert_eq!(sys.cache_stats(), model.l1.stats, "L1 after op {}", i);
            prop_assert_eq!(sys.l2_stats(), model.l2.as_ref().map(|l2| l2.stats));
            prop_assert_eq!(sys.lane_dram_stats(0), model.dram, "DRAM after op {}", i);
        }
    }
}
