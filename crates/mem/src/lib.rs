//! Simulated embedded memory subsystem for dynamic-data-type exploration.
//!
//! This crate is the lowest substrate of the `ddtr` workspace. It models the
//! part of an embedded platform that the DATE 2006 paper *"Dynamic Data Type
//! Refinement Methodology for Systematic Performance–Energy Design
//! Exploration of Network Applications"* charges its four cost metrics to:
//!
//! * a **heap allocator** ([`SimAllocator`]) managing a simulated address
//!   space with free-list allocation, block headers and fragmentation — the
//!   source of the *memory footprint* metric,
//! * a **set-associative L1 cache** ([`Cache`]) in front of a **DRAM model**
//!   ([`DramModel`]) — the source of the *execution time* (cycles) metric,
//! * a **CACTI-like energy model** ([`EnergyModel`]) assigning a per-access
//!   energy to every hierarchy level — the source of the *energy* metric,
//! * an access ledger ([`MemStats`]) — the source of the *memory accesses*
//!   metric.
//!
//! Everything is deterministic: two runs with the same inputs produce
//! bit-identical reports, which the exploration methodology requires in order
//! to compare hundreds of simulations fairly.
//!
//! # The access path
//!
//! Every modelled access goes through [`MemorySystem::read`] or
//! [`MemorySystem::write`], hundreds of times per simulated packet. A
//! [`Cache`] keeps its ways in one flat, zero-initialised, set-major array
//! of 16-byte `[tag, stamp]` pairs. Line indices are shifts, since line
//! sizes are validated powers of two. When the set count is a power of
//! two, as in every [`MemoryPreset`], the set and the tag are a mask and a
//! shift of the line index; any other set count [`CacheConfig::validate`]
//! accepts (e.g. 24 KiB 4-way = 192 sets) falls back to `%` and `/`. The
//! per-access energy of the data array depends only on the live heap size,
//! so [`MemorySystem`] recomputes it in `alloc` and `free`, the only calls
//! that change it, rather than on every access.
//!
//! The common access is served in line, at each call site of `read` and
//! `write`: one line, outside the scratchpad, an L1 hit on an L1 whose
//! set count is a power of two. It ticks the L1 clock, refreshes the way
//! (LRU only), counts the hit, the access and its bytes, and adds the hit
//! cycles, the data-array energy and a precomputed leakage of the hit
//! cycles to the ledger — what the general path does for such an access,
//! in the same order. Its lookup changes nothing when it misses.
//! Everything else takes one out-of-line general path that charges a
//! transaction line by line: transactions that span lines, L1 misses
//! and their service by the L2 and DRAM, scratchpad accesses and L1s of
//! other set counts. The L1 hit logic exists once, in the lookup both
//! paths use. None of this moves a statistic: the engine's golden corpus
//! pins every `CostReport` bit for bit, and property tests check the
//! cache against a one-vector-per-set reference model and a one-lane
//! system's whole ledger against a reference system built from it.
//!
//! One system can carry several *lanes*, one per platform, when the
//! platforms differ only in the L2 ([`MemoryConfig::lane_base`],
//! [`MemorySystem::with_lanes`]). An access then walks the shared L1
//! once; only its misses and dirty writebacks reach each lane's L2 and
//! DRAM. Every lane charges its own cycles and energy in the order a
//! one-lane system would, so each lane's report is bit-identical to that
//! system's (a property test checks this after every operation). Both
//! paths serve every lane count: the in-line hit charges the other lanes
//! with one out-of-line call, and a one-lane system skips it.
//!
//! # Example
//!
//! ```
//! use ddtr_mem::{MemoryConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::default());
//! let block = mem.alloc(64).expect("arena has room");
//! mem.reset_stats(); // exclude allocator bookkeeping from the measurement
//! mem.write(block, 64);
//! mem.read(block, 8);
//! let report = mem.report();
//! assert_eq!(report.accesses, 2);
//! assert!(report.energy_nj > 0.0);
//! assert!(report.peak_footprint_bytes >= 64);
//! ```

mod addr;
mod allocator;
mod cache;
mod config;
mod dram;
mod energy;
mod preset;
mod report;
mod system;

pub use addr::VirtAddr;
pub use allocator::{AllocError, AllocStats, FitPolicy, SimAllocator};
pub use cache::{Cache, CacheStats, LineAccess};
pub use config::{
    AllocCostModel, CacheConfig, DramConfig, MemoryConfig, ReplacementPolicy, SpmConfig,
};
pub use dram::{DramModel, DramStats};
pub use energy::EnergyModel;
pub use preset::MemoryPreset;
pub use report::{CostReport, MemStats};
pub use system::MemorySystem;
