//! Configuration of the simulated memory subsystem.

use serde::{Deserialize, Serialize};

/// Victim-selection policy of a set-associative cache.
///
/// # Example
///
/// ```
/// use ddtr_mem::{CacheConfig, ReplacementPolicy};
///
/// let fifo = CacheConfig {
///     replacement: ReplacementPolicy::Fifo,
///     ..CacheConfig::default()
/// };
/// fifo.validate().expect("replacement does not affect geometry");
/// assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Evict the least recently used way (the default).
    #[default]
    Lru,
    /// Evict the oldest-filled way, ignoring hits (cheaper hardware).
    Fifo,
    /// Evict a pseudo-random way (deterministic xorshift sequence).
    Random,
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::Random => "random",
        })
    }
}

/// Geometry and timing of one cache level.
///
/// The defaults model a small embedded L1 data cache: 32 KiB, 32-byte lines,
/// 4-way set-associative, 1-cycle hits, LRU replacement — in line with the
/// embedded platforms targeted by the DATE 2006 study.
///
/// # Example
///
/// ```
/// use ddtr_mem::CacheConfig;
///
/// let cfg = CacheConfig::default();
/// assert_eq!(cfg.capacity_bytes, 32 * 1024);
/// assert_eq!(cfg.sets(), 32 * 1024 / (32 * 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Associativity (number of ways per set).
    pub ways: u32,
    /// Latency of a hit, in CPU cycles.
    pub hit_cycles: u64,
    /// Victim selection on a miss in a full set.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero line size or ways, or a
    /// capacity that does not hold at least one full set).
    #[must_use]
    pub fn sets(&self) -> u64 {
        assert!(self.line_bytes > 0, "line size must be non-zero");
        assert!(self.ways > 0, "associativity must be non-zero");
        let sets = self.capacity_bytes / (self.line_bytes * u64::from(self.ways));
        assert!(sets > 0, "cache must contain at least one set");
        sets
    }

    /// Validates the configuration, returning a human-readable reason when
    /// the geometry is unusable.
    ///
    /// # Errors
    ///
    /// Returns an error string if any field is zero, if the line size is not
    /// a power of two, or if capacity is not a multiple of `line * ways`.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 {
            return Err("cache line size must be non-zero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "cache line size must be a power of two, got {}",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("cache associativity must be non-zero".into());
        }
        let set_bytes = self.line_bytes * u64::from(self.ways);
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(set_bytes) {
            return Err(format!(
                "cache capacity {} is not a multiple of line*ways = {}",
                self.capacity_bytes, set_bytes
            ));
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 32 * 1024,
            line_bytes: 32,
            ways: 4,
            hit_cycles: 1,
            replacement: ReplacementPolicy::Lru,
        }
    }
}

/// Geometry and timing of an optional scratchpad memory (SPM).
///
/// Scratchpads are the alternative the related work of the paper explores
/// for hot data ([Kandemir DAC'01], [Steinke DATE'02], [Verma
/// CODES+ISSS'04]): a small, software-managed SRAM with deterministic
/// single-digit-cycle access that bypasses the cache hierarchy entirely.
/// Here the scratchpad holds the hottest dynamic objects — the DDT
/// descriptors — when enabled (see
/// [`MemorySystem::alloc_hot`](crate::MemorySystem::alloc_hot)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpmConfig {
    /// Scratchpad capacity in bytes.
    pub capacity_bytes: u64,
    /// Latency of one access, in CPU cycles.
    pub access_cycles: u64,
}

impl Default for SpmConfig {
    fn default() -> Self {
        SpmConfig {
            capacity_bytes: 4 * 1024,
            access_cycles: 1,
        }
    }
}

/// Timing and sizing of the simulated main memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Latency of one line transfer, in CPU cycles.
    pub access_cycles: u64,
    /// Size of the DRAM array in bytes (bounds the heap arena).
    pub capacity_bytes: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            access_cycles: 60,
            capacity_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Cost charged for the bookkeeping work of the dynamic memory manager.
///
/// The paper's access counts include the internal mechanisms of the DDTs,
/// which in turn call the allocator. Rather than simulating the free-list
/// walk address-by-address, each `malloc`/`free` is charged a fixed number of
/// metadata accesses and CPU cycles, which is how the original framework's
/// dynamic-memory-manager cost model works.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocCostModel {
    /// Metadata reads+writes charged per allocation.
    pub accesses_per_alloc: u64,
    /// Metadata reads+writes charged per free.
    pub accesses_per_free: u64,
    /// Pure CPU cycles charged per allocation.
    pub cycles_per_alloc: u64,
    /// Pure CPU cycles charged per free.
    pub cycles_per_free: u64,
}

impl Default for AllocCostModel {
    fn default() -> Self {
        AllocCostModel {
            accesses_per_alloc: 4,
            accesses_per_free: 4,
            cycles_per_alloc: 30,
            cycles_per_free: 24,
        }
    }
}

/// Full configuration of a [`MemorySystem`](crate::MemorySystem).
///
/// # Example
///
/// ```
/// use ddtr_mem::{MemoryConfig, MemorySystem};
///
/// let cfg = MemoryConfig::embedded_default();
/// cfg.validate().expect("default config is valid");
/// let mem = MemorySystem::new(cfg);
/// assert_eq!(mem.report().accesses, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Optional unified L2 cache between the L1 and main memory.
    pub l2: Option<CacheConfig>,
    /// Optional scratchpad memory for hot objects (DDT descriptors).
    pub spm: Option<SpmConfig>,
    /// Main memory model.
    pub dram: DramConfig,
    /// Allocator bookkeeping costs.
    pub alloc_cost: AllocCostModel,
    /// Heap free-region selection policy.
    pub fit_policy: crate::FitPolicy,
    /// Cycles charged per pure CPU operation (comparisons, arithmetic).
    pub cpu_op_cycles: u64,
    /// Base of the simulated heap arena.
    pub heap_base: u64,
}

impl MemoryConfig {
    /// The default embedded platform used throughout the reproduction:
    /// 32 KiB 4-way L1 with 32-byte lines over a 16 MiB DRAM.
    #[must_use]
    pub fn embedded_default() -> Self {
        Self::default()
    }

    /// A richer platform with a 256 KiB 8-way L2 behind the default L1 —
    /// used by the platform-sweep example and hierarchy tests.
    #[must_use]
    pub fn with_l2() -> Self {
        MemoryConfig {
            l2: Some(CacheConfig {
                capacity_bytes: 256 * 1024,
                line_bytes: 32,
                ways: 8,
                hit_cycles: 8,
                replacement: ReplacementPolicy::Lru,
            }),
            ..Self::default()
        }
    }

    /// A `with_l2` variant with a small, close L2: 64 KiB 8-way with
    /// 4-cycle hits — the cheap-SoC point of the platform family.
    #[must_use]
    pub fn with_small_l2() -> Self {
        MemoryConfig {
            l2: Some(CacheConfig {
                capacity_bytes: 64 * 1024,
                line_bytes: 32,
                ways: 8,
                hit_cycles: 4,
                replacement: ReplacementPolicy::Lru,
            }),
            ..Self::default()
        }
    }

    /// A deeper three-level hierarchy: a halved 16 KiB 2-way L1 in front
    /// of a large 512 KiB 16-way L2, over a bigger but slower DRAM — the
    /// application-processor end of the platform family, where a DDT's
    /// locality is rewarded twice before main memory is charged.
    #[must_use]
    pub fn deep_hierarchy() -> Self {
        MemoryConfig {
            l1: CacheConfig {
                capacity_bytes: 16 * 1024,
                line_bytes: 32,
                ways: 2,
                hit_cycles: 1,
                replacement: ReplacementPolicy::Lru,
            },
            l2: Some(CacheConfig {
                capacity_bytes: 512 * 1024,
                line_bytes: 32,
                ways: 16,
                hit_cycles: 12,
                replacement: ReplacementPolicy::Lru,
            }),
            dram: DramConfig {
                access_cycles: 100,
                capacity_bytes: 64 * 1024 * 1024,
            },
            ..Self::default()
        }
    }

    /// The default platform extended with a scratchpad for DDT descriptors
    /// — used by the scratchpad ablation.
    #[must_use]
    pub fn with_spm() -> Self {
        MemoryConfig {
            spm: Some(SpmConfig::default()),
            ..Self::default()
        }
    }

    /// A deliberately tiny platform for tests: 1 KiB direct-mapped cache,
    /// small arena, so that evictions and out-of-memory paths are reachable.
    #[must_use]
    pub fn tiny_for_tests() -> Self {
        MemoryConfig {
            l1: CacheConfig {
                capacity_bytes: 1024,
                line_bytes: 32,
                ways: 1,
                hit_cycles: 1,
                replacement: ReplacementPolicy::Lru,
            },
            l2: None,
            spm: None,
            dram: DramConfig {
                access_cycles: 50,
                capacity_bytes: 64 * 1024,
            },
            alloc_cost: AllocCostModel::default(),
            fit_policy: crate::FitPolicy::FirstFit,
            cpu_op_cycles: 1,
            heap_base: 0x1000,
        }
    }

    /// This configuration without its L2: the part that the lanes of one
    /// [`MemorySystem`](crate::MemorySystem) share. Configurations with
    /// equal lane bases can run as lanes of one system
    /// ([`MemorySystem::with_lanes`](crate::MemorySystem::with_lanes)),
    /// because the allocator, the L1 and the scratchpad see the same
    /// traffic under each of them.
    ///
    /// # Example
    ///
    /// ```
    /// use ddtr_mem::MemoryConfig;
    ///
    /// let embedded = MemoryConfig::embedded_default();
    /// assert_eq!(MemoryConfig::with_l2().lane_base(), embedded.lane_base());
    /// assert_ne!(MemoryConfig::with_spm().lane_base(), embedded.lane_base());
    /// ```
    #[must_use]
    pub fn lane_base(&self) -> MemoryConfig {
        MemoryConfig { l2: None, ..*self }
    }

    /// Validates all sub-configurations.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field found.
    pub fn validate(&self) -> Result<(), String> {
        self.l1.validate()?;
        if let Some(l2) = &self.l2 {
            l2.validate()?;
            if l2.line_bytes != self.l1.line_bytes {
                return Err(format!(
                    "L2 line size {} must match L1 line size {}",
                    l2.line_bytes, self.l1.line_bytes
                ));
            }
            if l2.capacity_bytes <= self.l1.capacity_bytes {
                return Err("L2 must be larger than L1".into());
            }
        }
        if self.dram.capacity_bytes == 0 {
            return Err("dram capacity must be non-zero".into());
        }
        if self.heap_base == 0 {
            return Err("heap base must be non-zero (null is reserved)".into());
        }
        if let Some(spm) = &self.spm {
            if spm.capacity_bytes == 0 {
                return Err("scratchpad capacity must be non-zero".into());
            }
            // The scratchpad occupies [SPM_BASE, SPM_BASE + capacity),
            // which must stay below the heap arena.
            if crate::system::SPM_BASE + spm.capacity_bytes > self.heap_base {
                return Err(format!(
                    "scratchpad of {} bytes overlaps the heap arena at {:#x}",
                    spm.capacity_bytes, self.heap_base
                ));
            }
        }
        Ok(())
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1: CacheConfig::default(),
            l2: None,
            spm: None,
            dram: DramConfig::default(),
            alloc_cost: AllocCostModel::default(),
            fit_policy: crate::FitPolicy::FirstFit,
            cpu_op_cycles: 1,
            heap_base: 0x0010_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cache_geometry() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.sets(), 256);
        cfg.validate().expect("default is valid");
    }

    #[test]
    fn rejects_non_power_of_two_line() {
        let cfg = CacheConfig {
            line_bytes: 48,
            ..CacheConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_ways() {
        let cfg = CacheConfig {
            ways: 0,
            ..CacheConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_misaligned_capacity() {
        let cfg = CacheConfig {
            capacity_bytes: 1000,
            ..CacheConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn memory_config_default_is_valid() {
        MemoryConfig::default().validate().expect("valid");
        MemoryConfig::tiny_for_tests().validate().expect("valid");
    }

    #[test]
    fn rejects_zero_heap_base() {
        let cfg = MemoryConfig {
            heap_base: 0,
            ..MemoryConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
