//! The composed memory system: allocator + L1 + DRAM + energy accounting.

use crate::allocator::{AllocError, SimAllocator};
use crate::cache::Cache;
use crate::config::MemoryConfig;
use crate::dram::DramModel;
use crate::energy::EnergyModel;
use crate::report::{CostReport, MemStats};
use crate::VirtAddr;

/// Base address of the optional scratchpad region. Kept below every heap
/// base so scratchpad and heap addresses never collide.
pub(crate) const SPM_BASE: u64 = 0x100;

/// The simulated embedded memory subsystem.
///
/// All dynamic-data-type implementations issue their traffic through this
/// type. A call to [`MemorySystem::read`] or [`MemorySystem::write`] is
/// split into cache-line transactions, driven through the L1 and (on
/// misses/writebacks) the DRAM model, while cycles and nanojoules are
/// accumulated into a [`MemStats`] ledger. Heap state lives in the embedded
/// [`SimAllocator`].
///
/// # Example
///
/// ```
/// use ddtr_mem::{MemoryConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MemoryConfig::default());
/// let rec = mem.alloc(48)?;
/// mem.write(rec, 48);          // populate the record
/// mem.read(rec.offset(0), 8);  // read its key field
/// mem.free(rec)?;
/// assert_eq!(mem.stats().allocs, 1);
/// assert_eq!(mem.stats().frees, 1);
/// # Ok::<(), ddtr_mem::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemoryConfig,
    alloc: SimAllocator,
    l1: Cache,
    l2: Option<Cache>,
    /// Per-access energy of the L2 array (constant: the L2 is a fixed
    /// hardware block, unlike the footprint-sized data memory).
    l2_access_nj: f64,
    dram: DramModel,
    energy: EnergyModel,
    /// Bump pointer of the scratchpad region, when configured.
    spm_next: u64,
    /// Per-access energy of the scratchpad array.
    spm_access_nj: f64,
    /// Per-access energy of the data array at the current live heap
    /// size; only `alloc` and `free` change that size, so only they
    /// refresh it.
    data_access_nj: f64,
    /// `log2` of the (validated power-of-two) L1 line size.
    line_shift: u32,
    stats: MemStats,
}

impl MemorySystem {
    /// Builds the memory system from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemoryConfig::validate`].
    #[must_use]
    pub fn new(cfg: MemoryConfig) -> Self {
        cfg.validate().expect("invalid memory configuration");
        let energy = EnergyModel::from_configs(&cfg.l1, &cfg.dram);
        let l2 = cfg.l2.map(Cache::new);
        let l2_access_nj = cfg
            .l2
            .map(|c| EnergyModel::sram_access_nj(c.capacity_bytes, c.line_bytes, c.ways))
            .unwrap_or(0.0);
        // Scratchpad energy: a direct-mapped SRAM array with cache-line-wide
        // rows — the smallest access of the whole hierarchy.
        let spm_access_nj = cfg
            .spm
            .map(|s| EnergyModel::sram_access_nj(s.capacity_bytes, cfg.l1.line_bytes, 1))
            .unwrap_or(0.0);
        MemorySystem {
            cfg,
            alloc: SimAllocator::with_policy(
                cfg.heap_base,
                cfg.dram.capacity_bytes,
                cfg.fit_policy,
            ),
            l1: Cache::new(cfg.l1),
            l2,
            l2_access_nj,
            dram: DramModel::new(cfg.dram),
            energy,
            spm_next: SPM_BASE,
            spm_access_nj,
            data_access_nj: energy.data_access_nj(0),
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            stats: MemStats::default(),
        }
    }

    /// Builds the memory system but with an explicit (e.g. perturbed)
    /// energy model, used by the sensitivity ablation.
    #[must_use]
    pub fn with_energy_model(cfg: MemoryConfig, energy: EnergyModel) -> Self {
        let mut sys = Self::new(cfg);
        sys.energy = energy;
        sys.refresh_data_access_nj();
        sys
    }

    /// Configuration in use.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.cfg
    }

    /// The energy model in use.
    #[must_use]
    pub fn energy_model(&self) -> EnergyModel {
        self.energy
    }

    /// Allocates `size` bytes on the simulated heap, charging the
    /// allocator's bookkeeping cost model.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] from the underlying allocator.
    pub fn alloc(&mut self, size: u64) -> Result<VirtAddr, AllocError> {
        let addr = self.alloc.alloc(size)?;
        self.refresh_data_access_nj();
        let cost = self.cfg.alloc_cost;
        self.charge_meta(cost.accesses_per_alloc, cost.cycles_per_alloc);
        self.stats.allocs += 1;
        Ok(addr)
    }

    /// Frees a simulated heap block.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError::InvalidFree`] when `addr` is not a live
    /// heap block (double free or wild pointer).
    pub fn free(&mut self, addr: VirtAddr) -> Result<(), AllocError> {
        self.alloc.free(addr)?;
        self.refresh_data_access_nj();
        let cost = self.cfg.alloc_cost;
        self.charge_meta(cost.accesses_per_free, cost.cycles_per_free);
        self.stats.frees += 1;
        Ok(())
    }

    /// Allocates `size` bytes for a *hot* object — one the software knows
    /// is accessed constantly, such as a DDT descriptor.
    ///
    /// When a scratchpad is configured ([`MemoryConfig::with_spm`]) and has
    /// room, the object is bump-allocated there and all its accesses bypass
    /// the cache hierarchy at fixed scratchpad cost; hot objects are never
    /// individually freed (scratchpad assignment is a compile-time decision
    /// in the related work this models). Otherwise the request falls back
    /// to the ordinary heap.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] from the heap fallback.
    pub fn alloc_hot(&mut self, size: u64) -> Result<VirtAddr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        if let Some(spm) = self.cfg.spm {
            let aligned = size.div_ceil(8) * 8;
            if self.spm_next + aligned <= SPM_BASE + spm.capacity_bytes {
                let addr = self.spm_next;
                self.spm_next += aligned;
                return Ok(VirtAddr::new(addr));
            }
        }
        self.alloc(size)
    }

    /// Bytes currently bump-allocated in the scratchpad.
    #[must_use]
    pub fn spm_used(&self) -> u64 {
        self.spm_next - SPM_BASE
    }

    /// Whether `addr` falls inside the configured scratchpad region.
    #[must_use]
    #[inline]
    pub fn is_spm_addr(&self, addr: VirtAddr) -> bool {
        self.cfg
            .spm
            .is_some_and(|s| (SPM_BASE..SPM_BASE + s.capacity_bytes).contains(&addr.as_u64()))
    }

    /// Issues a read of `size` bytes starting at `addr`.
    ///
    /// Returns the cycle cost of this transaction.
    #[inline]
    pub fn read(&mut self, addr: VirtAddr, size: u64) -> u64 {
        self.transact(addr, size, false)
    }

    /// Issues a write of `size` bytes starting at `addr`.
    ///
    /// Returns the cycle cost of this transaction.
    #[inline]
    pub fn write(&mut self, addr: VirtAddr, size: u64) -> u64 {
        self.transact(addr, size, true)
    }

    /// Charges `ops` pure CPU operations (comparisons, pointer arithmetic)
    /// that do not touch memory.
    #[inline]
    pub fn touch_cpu(&mut self, ops: u64) {
        let cycles = ops * self.cfg.cpu_op_cycles;
        self.stats.cycles += cycles;
        self.stats.energy_nj += self.energy.leakage_nj_per_cycle * cycles as f64;
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// L1 cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.l1.stats()
    }

    /// L2 cache statistics, when an L2 is configured.
    #[must_use]
    pub fn l2_stats(&self) -> Option<crate::CacheStats> {
        self.l2.as_ref().map(Cache::stats)
    }

    /// Allocator statistics (footprint lives here).
    #[must_use]
    pub fn alloc_stats(&self) -> crate::AllocStats {
        self.alloc.stats()
    }

    /// Read-only access to the allocator (address queries in tests).
    #[must_use]
    pub fn allocator(&self) -> &SimAllocator {
        &self.alloc
    }

    /// The four-metric report of everything observed so far.
    #[must_use]
    pub fn report(&self) -> CostReport {
        CostReport {
            accesses: self.stats.accesses(),
            cycles: self.stats.cycles,
            energy_nj: self.stats.energy_nj,
            peak_footprint_bytes: self.alloc.stats().peak_gross_bytes,
        }
    }

    /// Clears all measurement counters (cache contents and heap state are
    /// kept), so a build phase can be excluded from measurements.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l1.reset_stats();
        if let Some(l2) = &mut self.l2 {
            l2.reset_stats();
        }
        self.dram.reset_stats();
    }

    /// Serves an L1 fill from the L2 (falling through to the backing
    /// store on an L2 miss); returns the cycle cost.
    fn next_level_read(&mut self, line_addr: VirtAddr) -> u64 {
        let Some(l2) = &mut self.l2 else {
            self.stats.energy_nj += self.energy.dram_access_nj;
            return self.dram.read_line();
        };
        let outcome = l2.access_line(line_addr, false);
        let l2_cfg = self.cfg.l2.expect("l2 cache implies l2 config");
        let mut cycles = l2_cfg.hit_cycles;
        self.stats.energy_nj += self.l2_access_nj;
        if !outcome.hit {
            cycles += self.dram.read_line();
            self.stats.energy_nj += self.energy.dram_access_nj;
        }
        if outcome.writeback {
            cycles += self.dram.write_line();
            self.stats.energy_nj += self.energy.dram_access_nj;
        }
        cycles
    }

    /// Routes an L1 dirty writeback to the L2 (or the backing store).
    fn next_level_write(&mut self, victim_addr: VirtAddr) -> u64 {
        let Some(l2) = &mut self.l2 else {
            self.stats.energy_nj += self.energy.dram_access_nj;
            return self.dram.write_line();
        };
        let outcome = l2.access_line(victim_addr, true);
        let l2_cfg = self.cfg.l2.expect("l2 cache implies l2 config");
        let mut cycles = l2_cfg.hit_cycles;
        self.stats.energy_nj += self.l2_access_nj;
        if !outcome.hit {
            // Write-allocate: fetch the line before dirtying it.
            cycles += self.dram.read_line();
            self.stats.energy_nj += self.energy.dram_access_nj;
        }
        if outcome.writeback {
            cycles += self.dram.write_line();
            self.stats.energy_nj += self.energy.dram_access_nj;
        }
        cycles
    }

    /// CACTI effect: the data memory serving the heap is sized to what
    /// the application allocates, so its per-access energy depends on the
    /// live footprint (latency does not, at this abstraction).
    fn refresh_data_access_nj(&mut self) {
        self.data_access_nj = self
            .energy
            .data_access_nj(self.alloc.stats().live_gross_bytes);
    }

    fn charge_meta(&mut self, accesses: u64, cycles: u64) {
        // Allocator metadata is small and hot: model it as L1-resident.
        self.stats.reads += accesses / 2;
        self.stats.writes += accesses - accesses / 2;
        self.stats.cycles += cycles + accesses * self.cfg.l1.hit_cycles;
        self.stats.energy_nj += self.energy.l1_access_nj * accesses as f64
            + self.energy.leakage_nj_per_cycle * cycles as f64;
    }

    #[inline]
    fn transact(&mut self, addr: VirtAddr, size: u64, write: bool) -> u64 {
        debug_assert!(size > 0, "zero-size transaction");
        if self.is_spm_addr(addr) {
            // Scratchpad access: fixed latency, small fixed energy, no
            // cache involvement.
            let spm = self.cfg.spm.expect("spm address implies spm config");
            let cycles = spm.access_cycles;
            if write {
                self.stats.writes += 1;
                self.stats.write_bytes += size;
            } else {
                self.stats.reads += 1;
                self.stats.read_bytes += size;
            }
            self.stats.cycles += cycles;
            self.stats.energy_nj +=
                self.spm_access_nj + self.energy.leakage_nj_per_cycle * cycles as f64;
            return cycles;
        }
        let shift = self.line_shift;
        let first = addr.as_u64() >> shift;
        let last = addr.offset(size.saturating_sub(1)).as_u64() >> shift;
        let mut cycles = 0;
        for li in first..=last {
            let line_addr = VirtAddr::new(li << shift);
            let outcome = self.l1.access_line(line_addr, write);
            cycles += self.cfg.l1.hit_cycles;
            self.stats.energy_nj += self.data_access_nj;
            if !outcome.hit {
                // Miss: fill from the L2 (when present) or the backing
                // store.
                cycles += self.next_level_read(line_addr);
            }
            if let Some(victim) = outcome.victim_line {
                // Dirty eviction: write the victim line to the next level.
                cycles += self.next_level_write(VirtAddr::new(victim << shift));
            }
        }
        if write {
            self.stats.writes += 1;
            self.stats.write_bytes += size;
        } else {
            self.stats.reads += 1;
            self.stats.read_bytes += size;
        }
        self.stats.cycles += cycles;
        self.stats.energy_nj += self.energy.leakage_nj_per_cycle * cycles as f64;
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemoryConfig::tiny_for_tests())
    }

    #[test]
    fn read_counts_and_bytes() {
        let mut m = sys();
        let a = m.alloc(64).unwrap();
        m.read(a, 64);
        assert_eq!(m.stats().reads, 1 + 2 /* alloc meta reads */);
        assert_eq!(m.stats().read_bytes, 64);
    }

    #[test]
    fn multi_line_transaction_touches_each_line() {
        let mut m = sys();
        let a = m.alloc(128).unwrap();
        m.read(a, 128); // 32-byte lines -> at least 4 line accesses
        let cs = m.cache_stats();
        assert!(cs.accesses() >= 4, "got {} line accesses", cs.accesses());
    }

    #[test]
    fn hit_is_cheaper_than_miss() {
        let mut m = sys();
        let a = m.alloc(8).unwrap();
        let miss_cycles = m.read(a, 8);
        let hit_cycles = m.read(a, 8);
        assert!(miss_cycles > hit_cycles);
    }

    #[test]
    fn energy_accumulates_per_access() {
        let mut m = sys();
        let a = m.alloc(8).unwrap();
        let e0 = m.stats().energy_nj;
        m.read(a, 8);
        let e1 = m.stats().energy_nj;
        m.read(a, 8); // hit: cheaper but non-zero
        let e2 = m.stats().energy_nj;
        assert!(e1 > e0);
        assert!(e2 > e1);
        assert!(e1 - e0 > e2 - e1, "miss costs more energy than hit");
    }

    #[test]
    fn footprint_comes_from_allocator_peak() {
        let mut m = sys();
        let a = m.alloc(512).unwrap();
        m.free(a).unwrap();
        let _ = m.alloc(16).unwrap();
        let rep = m.report();
        assert_eq!(rep.peak_footprint_bytes, SimAllocator::gross_size(512));
    }

    #[test]
    fn reset_stats_keeps_heap_and_cache_contents() {
        let mut m = sys();
        let a = m.alloc(32).unwrap();
        m.write(a, 32);
        m.reset_stats();
        assert_eq!(m.stats().accesses(), 0);
        // heap block still live
        assert!(m.allocator().contains(a));
        // cache still warm: second read is a hit (cheap)
        let cycles = m.read(a, 8);
        assert_eq!(cycles, m.config().l1.hit_cycles);
    }

    #[test]
    fn touch_cpu_adds_cycles_only() {
        let mut m = sys();
        let before = m.stats();
        m.touch_cpu(10);
        let after = m.stats();
        assert_eq!(after.cycles - before.cycles, 10);
        assert_eq!(after.accesses(), before.accesses());
    }

    #[test]
    fn free_propagates_double_free_error() {
        let mut m = sys();
        let a = m.alloc(8).unwrap();
        m.free(a).unwrap();
        let err = m.free(a).unwrap_err();
        assert_eq!(err, AllocError::InvalidFree { addr: a });
        assert!(err.to_string().contains("double free"), "{err}");
        assert_eq!(m.stats().frees, 1, "a rejected free is not counted");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut m = sys();
            let a = m.alloc(96).unwrap();
            for i in 0..50u64 {
                m.write(a.offset(i % 96), 8.min(96 - (i % 96)));
                m.read(a.offset((i * 13) % 90), 4);
            }
            m.report()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.accesses, r2.accesses);
        assert_eq!(r1.cycles, r2.cycles);
        assert!((r1.energy_nj - r2.energy_nj).abs() < 1e-12);
    }

    #[test]
    fn with_energy_model_scales_energy() {
        let cfg = MemoryConfig::tiny_for_tests();
        let base = EnergyModel::from_configs(&cfg.l1, &cfg.dram);
        let mut m1 = MemorySystem::new(cfg);
        let mut m2 = MemorySystem::with_energy_model(cfg, base.scaled(2.0));
        let a1 = m1.alloc(8).unwrap();
        let a2 = m2.alloc(8).unwrap();
        m1.read(a1, 8);
        m2.read(a2, 8);
        // dynamic part doubles; leakage identical and tiny
        assert!(m2.stats().energy_nj > 1.9 * m1.stats().energy_nj);
    }
}
