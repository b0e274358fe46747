//! The composed memory system: allocator + L1, then one L2 and DRAM per
//! lane, with energy accounting.

use crate::allocator::{AllocError, SimAllocator};
use crate::cache::Cache;
use crate::config::MemoryConfig;
use crate::dram::{DramModel, DramStats};
use crate::energy::EnergyModel;
use crate::report::{CostReport, MemStats};
use crate::VirtAddr;

/// Base address of the optional scratchpad region. Kept below every heap
/// base so scratchpad and heap addresses never collide.
pub(crate) const SPM_BASE: u64 = 0x100;

/// The levels of one lane below the shared L1: an optional L2 and the
/// DRAM.
#[derive(Debug, Clone)]
struct Below {
    l2: Option<Cache>,
    /// Hit latency of the L2 (unused without one).
    l2_hit_cycles: u64,
    /// Per-access energy of the L2 array (constant: the L2 is a fixed
    /// hardware block, unlike the footprint-sized data memory).
    l2_access_nj: f64,
    dram: DramModel,
}

impl Below {
    fn new(cfg: &MemoryConfig) -> Self {
        Below {
            l2: cfg.l2.map(Cache::new),
            l2_hit_cycles: cfg.l2.map_or(0, |c| c.hit_cycles),
            l2_access_nj: cfg.l2.map_or(0.0, |c| {
                EnergyModel::sram_access_nj(c.capacity_bytes, c.line_bytes, c.ways)
            }),
            dram: DramModel::new(cfg.dram),
        }
    }

    /// Serves an L1 fill (`write == false`) or an L1 dirty writeback
    /// (`write == true`) from the L2, falling through to DRAM on an L2
    /// miss, or straight from DRAM without an L2. Charges the energy to
    /// `energy_nj` and returns the cycle cost.
    fn serve(&mut self, line: VirtAddr, write: bool, dram_nj: f64, energy_nj: &mut f64) -> u64 {
        let Some(l2) = &mut self.l2 else {
            *energy_nj += dram_nj;
            return if write {
                self.dram.write_line()
            } else {
                self.dram.read_line()
            };
        };
        let outcome = l2.access_line(line, write);
        let mut cycles = self.l2_hit_cycles;
        *energy_nj += self.l2_access_nj;
        if !outcome.hit {
            // Write-allocate: a written line is fetched before it is
            // dirtied.
            cycles += self.dram.read_line();
            *energy_nj += dram_nj;
        }
        if outcome.writeback {
            cycles += self.dram.write_line();
            *energy_nj += dram_nj;
        }
        cycles
    }

    fn reset_stats(&mut self) {
        if let Some(l2) = &mut self.l2 {
            l2.reset_stats();
        }
        self.dram.reset_stats();
    }
}

/// Lanes 1 and up, field by field.
///
/// Every lane charges the same cycles and energy except below the L1, and
/// only about one line access in a hundred reaches below it. So the
/// energy ledgers sit in pairs, one two-wide add charging two lanes; a
/// transaction's per-line data energy is charged when the transaction
/// ends, or earlier, just before a line that reaches below the L1; and
/// the cycle ledgers are kept as differences from lane 0, which only a
/// transaction that reached below the L1 changes.
#[derive(Debug, Clone, Default)]
struct MoreLanes {
    below: Vec<Below>,
    /// Energy ledgers, lane `j` at `[j / 2][j % 2]`; with an odd lane
    /// count the last pair's second slot is unused.
    energy_nj: Vec<[f64; 2]>,
    /// Each lane's cycles minus lane 0's, wrapping.
    cycles_over_lane0: Vec<u64>,
    /// Cycles each lane's levels below the L1 added to the transaction in
    /// flight.
    pending: Vec<u64>,
    /// Lines of the transaction in flight whose data energy is charged.
    charged_lines: u64,
    /// Whether the transaction in flight reached below the L1.
    reached_below: bool,
}

impl MoreLanes {
    fn new(cfgs: &[MemoryConfig]) -> Self {
        MoreLanes {
            below: cfgs.iter().map(Below::new).collect(),
            energy_nj: vec![[0.0; 2]; cfgs.len().div_ceil(2)],
            cycles_over_lane0: vec![0; cfgs.len()],
            pending: vec![0; cfgs.len()],
            charged_lines: 0,
            reached_below: false,
        }
    }

    fn is_empty(&self) -> bool {
        self.below.is_empty()
    }

    /// Adds the same energy to every lane, `times` times over.
    #[inline]
    fn add_all(&mut self, energy_nj: f64, times: u64) {
        for pair in &mut self.energy_nj {
            for _ in 0..times {
                pair[0] += energy_nj;
                pair[1] += energy_nj;
            }
        }
    }

    /// Charges every lane a one-line L1 hit: its data energy, then its
    /// leakage. Out of line, so the in-line hit stays small.
    #[inline(never)]
    fn charge_hit(&mut self, data_nj: f64, leakage_nj: f64) {
        for pair in &mut self.energy_nj {
            pair[0] += data_nj;
            pair[1] += data_nj;
            pair[0] += leakage_nj;
            pair[1] += leakage_nj;
        }
    }

    /// Line `line` of the transaction in flight reached below the L1: a
    /// fill, a writeback or both. Charges the data energy of the lines
    /// up to it, then each lane's fill, then its writeback.
    #[cold]
    fn line_below(
        &mut self,
        line: u64,
        data_nj: f64,
        fill: Option<VirtAddr>,
        victim: Option<VirtAddr>,
        dram_nj: f64,
    ) {
        self.add_all(data_nj, line + 1 - self.charged_lines);
        self.charged_lines = line + 1;
        self.reached_below = true;
        for (j, below) in self.below.iter_mut().enumerate() {
            let energy_nj = &mut self.energy_nj[j / 2][j % 2];
            if let Some(line) = fill {
                self.pending[j] += below.serve(line, false, dram_nj, energy_nj);
            }
            if let Some(victim) = victim {
                self.pending[j] += below.serve(victim, true, dram_nj, energy_nj);
            }
        }
    }

    /// Ends a transaction of `lines` lines, each costing `data_nj` and
    /// `l1_hit_cycles`, that cost lane 0 `lane0_cycles`: charges the
    /// lines' data energy not yet charged, then each lane's cycles (the
    /// L1 latency plus what its own levels below added) and their
    /// leakage.
    #[inline]
    fn finish(
        &mut self,
        lines: u64,
        data_nj: f64,
        l1_hit_cycles: u64,
        lane0_cycles: u64,
        leakage_nj_per_cycle: f64,
    ) {
        if !self.reached_below {
            // Every lane's transaction cost lane 0's cycles.
            let leakage_nj = leakage_nj_per_cycle * lane0_cycles as f64;
            for pair in &mut self.energy_nj {
                for _ in 0..lines {
                    pair[0] += data_nj;
                    pair[1] += data_nj;
                }
                pair[0] += leakage_nj;
                pair[1] += leakage_nj;
            }
            return;
        }
        self.finish_below(
            lines,
            data_nj,
            l1_hit_cycles,
            lane0_cycles,
            leakage_nj_per_cycle,
        );
    }

    #[cold]
    fn finish_below(
        &mut self,
        lines: u64,
        data_nj: f64,
        l1_hit_cycles: u64,
        lane0_cycles: u64,
        leakage_nj_per_cycle: f64,
    ) {
        self.add_all(data_nj, lines - self.charged_lines);
        self.charged_lines = 0;
        self.reached_below = false;
        for j in 0..self.below.len() {
            let cycles = lines * l1_hit_cycles + std::mem::take(&mut self.pending[j]);
            self.energy_nj[j / 2][j % 2] += leakage_nj_per_cycle * cycles as f64;
            self.cycles_over_lane0[j] = self.cycles_over_lane0[j]
                .wrapping_add(cycles)
                .wrapping_sub(lane0_cycles);
        }
    }

    fn reset_stats(&mut self) {
        for below in &mut self.below {
            below.reset_stats();
        }
        self.energy_nj.fill([0.0; 2]);
        self.cycles_over_lane0.fill(0);
    }
}

/// The simulated embedded memory subsystem.
///
/// All dynamic-data-type implementations issue their traffic through this
/// type. A call to [`MemorySystem::read`] or [`MemorySystem::write`] is
/// split into cache-line transactions, driven through the L1 and (on
/// misses/writebacks) the L2 and DRAM models, while cycles and nanojoules
/// are accumulated into a [`MemStats`] ledger. Heap state lives in the
/// embedded [`SimAllocator`].
///
/// # Lanes
///
/// One system can model several platforms at once, when their
/// configurations differ only in the L2 ([`MemoryConfig::lane_base`]):
/// [`MemorySystem::with_lanes`] builds one *lane* per configuration. The
/// lanes share the allocator, the L1, the scratchpad and the access and
/// allocation counts; each lane keeps its own L2, DRAM counters, cycles
/// and energy, and charges them in the order a system built for its
/// configuration alone would. So every lane's report is bit-identical to
/// that system's, and one pass of the application serves every lane. A
/// system built with [`MemorySystem::new`] is one lane; the single-lane
/// accessors ([`stats`](Self::stats), [`report`](Self::report),
/// [`l2_stats`](Self::l2_stats)) read lane 0.
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
    /// Lane 0's configuration; the other lanes differ only in the L2.
    cfg: MemoryConfig,
    alloc: SimAllocator,
    l1: Cache,
    energy: EnergyModel,
    /// Bump pointer of the scratchpad region, when configured.
    spm_next: u64,
    /// Per-access energy of the scratchpad array.
    spm_access_nj: f64,
    /// Per-access energy of the data array at the current live heap
    /// size; only `alloc` and `free` change that size, so only they
    /// refresh it.
    data_access_nj: f64,
    /// Leakage of one L1 hit, `leakage_nj_per_cycle × l1.hit_cycles`: the
    /// product the general path forms for a one-line hit.
    l1_hit_leakage_nj: f64,
    /// `log2` of the (validated power-of-two) L1 line size.
    line_shift: u32,
    /// The access, byte and allocation counts every lane shares. Its
    /// `cycles` and `energy_nj` stay zero: each lane keeps its own.
    counts: MemStats,
    /// Lane 0's levels below the L1 and its ledger, held apart from the
    /// other lanes so that the in-line L1 hit charges lane 0 with plain
    /// adds to fields of this struct and a one-lane system does no lane
    /// work.
    below0: Below,
    cycles: u64,
    energy_nj: f64,
    more: MoreLanes,
}

impl MemorySystem {
    /// Builds the memory system from a validated configuration: a
    /// one-lane system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemoryConfig::validate`].
    #[must_use]
    pub fn new(cfg: MemoryConfig) -> Self {
        Self::with_lanes(&[cfg])
    }

    /// Builds one system with a lane per configuration, in order (see
    /// [Lanes](Self#lanes)).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty, if a configuration fails
    /// [`MemoryConfig::validate`], or if two configurations have
    /// different [`MemoryConfig::lane_base`]s.
    ///
    /// # Example
    ///
    /// ```
    /// use ddtr_mem::{MemoryConfig, MemorySystem};
    ///
    /// let lanes = [MemoryConfig::embedded_default(), MemoryConfig::with_l2()];
    /// let mut both = MemorySystem::with_lanes(&lanes);
    /// let mut l2_only = MemorySystem::new(MemoryConfig::with_l2());
    /// for mem in [&mut both, &mut l2_only] {
    ///     let a = mem.alloc(256)?;
    ///     mem.write(a, 256);
    ///     mem.read(a, 64);
    /// }
    /// assert_eq!(both.lanes(), 2);
    /// assert_eq!(both.lane_report(1), l2_only.report());
    /// assert_eq!(both.lane_l2_stats(1), l2_only.l2_stats());
    /// # Ok::<(), ddtr_mem::AllocError>(())
    /// ```
    #[must_use]
    pub fn with_lanes(lanes: &[MemoryConfig]) -> Self {
        let (&cfg, rest) = lanes
            .split_first()
            .expect("a memory system needs at least one lane");
        cfg.validate().expect("invalid memory configuration");
        for other in rest {
            other.validate().expect("invalid memory configuration");
            assert!(
                other.lane_base() == cfg.lane_base(),
                "lanes of one memory system may differ only in the L2"
            );
        }
        let energy = EnergyModel::from_configs(&cfg.l1, &cfg.dram);
        // Scratchpad energy: a direct-mapped SRAM array with cache-line-wide
        // rows — the smallest access of the whole hierarchy.
        let spm_access_nj = cfg
            .spm
            .map(|s| EnergyModel::sram_access_nj(s.capacity_bytes, cfg.l1.line_bytes, 1))
            .unwrap_or(0.0);
        let mut sys = MemorySystem {
            cfg,
            alloc: SimAllocator::with_policy(
                cfg.heap_base,
                cfg.dram.capacity_bytes,
                cfg.fit_policy,
            ),
            l1: Cache::new(cfg.l1),
            energy,
            spm_next: SPM_BASE,
            spm_access_nj,
            data_access_nj: 0.0,
            l1_hit_leakage_nj: 0.0,
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            counts: MemStats::default(),
            below0: Below::new(&cfg),
            cycles: 0,
            energy_nj: 0.0,
            more: MoreLanes::new(rest),
        };
        sys.use_energy_model(energy);
        sys
    }

    /// Builds the memory system but with an explicit (e.g. perturbed)
    /// energy model, used by the sensitivity ablation.
    #[must_use]
    pub fn with_energy_model(cfg: MemoryConfig, energy: EnergyModel) -> Self {
        let mut sys = Self::new(cfg);
        sys.use_energy_model(energy);
        sys
    }

    /// Configuration in use (lane 0's).
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.cfg
    }

    /// The energy model in use.
    #[must_use]
    pub fn energy_model(&self) -> EnergyModel {
        self.energy
    }

    /// Number of lanes: one per configuration the system was built with.
    #[must_use]
    pub fn lanes(&self) -> usize {
        1 + self.more.below.len()
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
        self.counts.allocs += 1;
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
        self.counts.frees += 1;
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
    /// Returns the cycle cost of this transaction (on lane 0).
    #[inline(always)]
    pub fn read(&mut self, addr: VirtAddr, size: u64) -> u64 {
        self.access(addr, size, false)
    }

    /// Issues a write of `size` bytes starting at `addr`.
    ///
    /// Returns the cycle cost of this transaction (on lane 0).
    #[inline(always)]
    pub fn write(&mut self, addr: VirtAddr, size: u64) -> u64 {
        self.access(addr, size, true)
    }

    /// Runs one transaction. The common one — one line, outside the
    /// scratchpad, an L1 hit on an L1 whose set count is a power of two —
    /// is served here, in line at the call site, exactly as the general
    /// path, [`MemorySystem::transact`], would serve it; the lookup
    /// changes nothing when it misses, and everything else takes that
    /// path.
    #[inline(always)]
    fn access(&mut self, addr: VirtAddr, size: u64, write: bool) -> u64 {
        debug_assert!(size > 0, "zero-size transaction");
        let shift = self.line_shift;
        let line = addr.as_u64() >> shift;
        let one_line = addr.offset(size.saturating_sub(1)).as_u64() >> shift == line;
        if one_line && !self.is_spm_addr(addr) && self.l1.hit_pow2(line, write) {
            self.count(size, write);
            let cycles = self.cfg.l1.hit_cycles;
            self.cycles += cycles;
            self.energy_nj += self.data_access_nj;
            self.energy_nj += self.l1_hit_leakage_nj;
            if !self.more.is_empty() {
                self.more
                    .charge_hit(self.data_access_nj, self.l1_hit_leakage_nj);
            }
            return cycles;
        }
        self.transact(addr, size, write)
    }

    /// Counts one transaction of `size` bytes.
    #[inline(always)]
    fn count(&mut self, size: u64, write: bool) {
        if write {
            self.counts.writes += 1;
            self.counts.write_bytes += size;
        } else {
            self.counts.reads += 1;
            self.counts.read_bytes += size;
        }
    }

    /// Charges `ops` pure CPU operations (comparisons, pointer arithmetic)
    /// that do not touch memory.
    #[inline]
    pub fn touch_cpu(&mut self, ops: u64) {
        let cycles = ops * self.cfg.cpu_op_cycles;
        self.charge_all(cycles, self.energy.leakage_nj_per_cycle * cycles as f64);
    }

    /// Accumulated counters (lane 0's cycles and energy).
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.lane_stats(0)
    }

    /// Accumulated counters of one lane: the shared access and
    /// allocation counts with the lane's own cycles and energy.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below [`MemorySystem::lanes`].
    #[must_use]
    pub fn lane_stats(&self, lane: usize) -> MemStats {
        let (cycles, energy_nj) = match lane.checked_sub(1) {
            None => (self.cycles, self.energy_nj),
            Some(j) => (
                self.cycles.wrapping_add(self.more.cycles_over_lane0[j]),
                self.more.energy_nj[j / 2][j % 2],
            ),
        };
        MemStats {
            cycles,
            energy_nj,
            ..self.counts
        }
    }

    /// L1 cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.l1.stats()
    }

    /// L2 cache statistics, when an L2 is configured (lane 0's).
    #[must_use]
    pub fn l2_stats(&self) -> Option<crate::CacheStats> {
        self.lane_l2_stats(0)
    }

    /// L2 cache statistics of one lane, when that lane has an L2.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below [`MemorySystem::lanes`].
    #[must_use]
    pub fn lane_l2_stats(&self, lane: usize) -> Option<crate::CacheStats> {
        self.below(lane).l2.as_ref().map(Cache::stats)
    }

    /// DRAM transfer counters of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below [`MemorySystem::lanes`].
    #[must_use]
    pub fn lane_dram_stats(&self, lane: usize) -> DramStats {
        self.below(lane).dram.stats()
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

    /// The four-metric report of everything observed so far (lane 0's).
    #[must_use]
    pub fn report(&self) -> CostReport {
        self.lane_report(0)
    }

    /// The four-metric report of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below [`MemorySystem::lanes`].
    #[must_use]
    pub fn lane_report(&self, lane: usize) -> CostReport {
        let stats = self.lane_stats(lane);
        CostReport {
            accesses: stats.accesses(),
            cycles: stats.cycles,
            energy_nj: stats.energy_nj,
            peak_footprint_bytes: self.alloc.stats().peak_gross_bytes,
        }
    }

    /// Clears all measurement counters of every lane (cache contents and
    /// heap state are kept), so a build phase can be excluded from
    /// measurements.
    pub fn reset_stats(&mut self) {
        self.counts = MemStats::default();
        self.l1.reset_stats();
        self.below0.reset_stats();
        self.cycles = 0;
        self.energy_nj = 0.0;
        self.more.reset_stats();
    }

    fn below(&self, lane: usize) -> &Below {
        match lane.checked_sub(1) {
            None => &self.below0,
            Some(j) => &self.more.below[j],
        }
    }

    /// Charges every lane the same cycles and energy.
    #[inline]
    fn charge_all(&mut self, cycles: u64, energy_nj: f64) {
        self.cycles += cycles;
        self.energy_nj += energy_nj;
        if !self.more.is_empty() {
            self.more.add_all(energy_nj, 1);
        }
    }

    /// Installs `energy` and refreshes the per-access energies derived
    /// from it.
    fn use_energy_model(&mut self, energy: EnergyModel) {
        self.energy = energy;
        self.l1_hit_leakage_nj = energy.leakage_nj_per_cycle * self.cfg.l1.hit_cycles as f64;
        self.refresh_data_access_nj();
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
        self.counts.reads += accesses / 2;
        self.counts.writes += accesses - accesses / 2;
        self.charge_all(
            cycles + accesses * self.cfg.l1.hit_cycles,
            self.energy.l1_access_nj * accesses as f64
                + self.energy.leakage_nj_per_cycle * cycles as f64,
        );
    }

    /// The general path: one read or write transaction on every lane,
    /// line by line. It serves what the in-line L1 hit does not:
    /// transactions that span lines, L1 misses and their service below
    /// the L1, scratchpad accesses and L1s of other set counts. Out of
    /// line, because its callers are the hundreds of modelled accesses in
    /// the DDT code. Returns lane 0's cycles.
    #[inline(never)]
    fn transact(&mut self, addr: VirtAddr, size: u64, write: bool) -> u64 {
        self.count(size, write);
        if self.is_spm_addr(addr) {
            // Scratchpad access: fixed latency, small fixed energy, no
            // cache involvement.
            let spm = self.cfg.spm.expect("spm address implies spm config");
            let cycles = spm.access_cycles;
            self.charge_all(
                cycles,
                self.spm_access_nj + self.energy.leakage_nj_per_cycle * cycles as f64,
            );
            return cycles;
        }
        let lanes = !self.more.is_empty();
        let shift = self.line_shift;
        let first = addr.as_u64() >> shift;
        let last = addr.offset(size.saturating_sub(1)).as_u64() >> shift;
        let l1_hit_cycles = self.cfg.l1.hit_cycles;
        let data_nj = self.data_access_nj;
        let dram_nj = self.energy.dram_access_nj;
        let leakage = self.energy.leakage_nj_per_cycle;
        let mut cycles = 0;
        for li in first..=last {
            let line_addr = VirtAddr::new(li << shift);
            let outcome = self.l1.access_line(line_addr, write);
            cycles += l1_hit_cycles;
            self.energy_nj += data_nj;
            let fill = (!outcome.hit).then_some(line_addr);
            let victim = outcome.victim_line.map(|v| VirtAddr::new(v << shift));
            if let Some(line) = fill {
                // Miss: fill from the L2 (when present) or the backing
                // store.
                cycles += self.below0.serve(line, false, dram_nj, &mut self.energy_nj);
            }
            if let Some(victim) = victim {
                // Dirty eviction: write the victim line to the next level.
                cycles += self
                    .below0
                    .serve(victim, true, dram_nj, &mut self.energy_nj);
            }
            if lanes && (fill.is_some() || victim.is_some()) {
                self.more
                    .line_below(li - first, data_nj, fill, victim, dram_nj);
            }
        }
        self.cycles += cycles;
        self.energy_nj += leakage * cycles as f64;
        if lanes {
            self.more
                .finish(last - first + 1, data_nj, l1_hit_cycles, cycles, leakage);
        }
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
        // An L1 hit costs the data array's energy, which doubles too.
        let (e1, e2) = (m1.stats().energy_nj, m2.stats().energy_nj);
        assert_eq!(m1.read(a1, 8), m1.config().l1.hit_cycles);
        m2.read(a2, 8);
        let (hit1, hit2) = (m1.stats().energy_nj - e1, m2.stats().energy_nj - e2);
        assert!(
            hit2 > 1.9 * hit1,
            "hit energy {hit1} nJ scaled to {hit2} nJ"
        );
    }
}
