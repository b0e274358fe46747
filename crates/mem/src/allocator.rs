//! Free-list heap allocator over the simulated address space.

use crate::VirtAddr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Per-block header size, matching a typical embedded `malloc`.
const HEADER_BYTES: u64 = 8;
/// Allocation granularity.
const ALIGN: u64 = 8;

/// Error returned when the simulated heap cannot satisfy a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The arena has no free region large enough for the request.
    OutOfMemory {
        /// Bytes requested by the caller (before header/alignment).
        requested: u64,
    },
    /// A zero-byte allocation was requested.
    ZeroSize,
    /// A free of an address that is not a live block: a double free or a
    /// wild pointer.
    InvalidFree {
        /// The address passed to the free.
        addr: VirtAddr,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "simulated heap exhausted allocating {requested} bytes")
            }
            AllocError::ZeroSize => write!(f, "zero-byte allocation requested"),
            AllocError::InvalidFree { addr } => write!(
                f,
                "free of {addr}, which is not a live block (double free or wild pointer)"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// Free-region selection policy of the [`SimAllocator`].
///
/// The DATE 2006 framework's dynamic memory manager is itself a design
/// dimension in follow-up work of the same group; this knob lets the heap
/// fit policy study of the reproduction scorecard (`REPRODUCTION.md`)
/// measure how DDT rankings react to the allocator the platform
/// middleware happens to use.
///
/// # Example
///
/// ```
/// use ddtr_mem::{FitPolicy, SimAllocator};
///
/// let mut heap = SimAllocator::with_policy(0x1000, 4096, FitPolicy::BestFit);
/// let a = heap.alloc(100)?;
/// assert!(!a.is_null());
/// # Ok::<(), ddtr_mem::AllocError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitPolicy {
    /// Lowest-addressed free region that fits (the classic embedded
    /// `malloc` walk; the default).
    #[default]
    FirstFit,
    /// Smallest free region that fits — minimises the leftover sliver at
    /// the cost of a full free-list walk.
    BestFit,
    /// First fit resuming from where the previous allocation ended,
    /// wrapping around — spreads allocations across the arena.
    NextFit,
}

impl fmt::Display for FitPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FitPolicy::FirstFit => "first-fit",
            FitPolicy::BestFit => "best-fit",
            FitPolicy::NextFit => "next-fit",
        })
    }
}

/// Live counters of the simulated heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
    /// Bytes currently handed out to callers (excluding headers/padding).
    pub live_user_bytes: u64,
    /// Bytes currently consumed in the arena (headers and padding included).
    pub live_gross_bytes: u64,
    /// Peak of [`AllocStats::live_gross_bytes`] — the *memory footprint*
    /// metric of the paper.
    pub peak_gross_bytes: u64,
    /// Number of allocation requests that failed with out-of-memory.
    pub failed_allocs: u64,
}

impl AllocStats {
    /// Internal fragmentation ratio: padding+header overhead over gross
    /// bytes. Zero when nothing is live.
    #[must_use]
    pub fn overhead_ratio(&self) -> f64 {
        if self.live_gross_bytes == 0 {
            0.0
        } else {
            1.0 - (self.live_user_bytes as f64 / self.live_gross_bytes as f64)
        }
    }
}

/// First-fit free-list allocator with coalescing over a simulated arena.
///
/// The allocator never touches host memory: it only does address
/// bookkeeping so the rest of the stack can attribute cache behaviour and
/// footprint to realistic heap layouts. Blocks carry an 8-byte header and
/// are 8-byte aligned, mirroring a typical embedded allocator, so footprint
/// numbers include allocator overhead exactly like the paper's.
///
/// # Example
///
/// ```
/// use ddtr_mem::SimAllocator;
///
/// let mut heap = SimAllocator::new(0x1000, 4096);
/// let a = heap.alloc(100)?;
/// let b = heap.alloc(50)?;
/// assert_ne!(a, b);
/// heap.free(a)?;
/// // freed space is reused
/// let c = heap.alloc(90)?;
/// assert_eq!(c, a);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimAllocator {
    base: u64,
    capacity: u64,
    policy: FitPolicy,
    /// Next-fit roving cursor: address the next search starts from.
    cursor: u64,
    /// Free regions: start -> length (gross bytes). Disjoint, coalesced.
    free: BTreeMap<u64, u64>,
    /// Live blocks: user address -> (gross length, user length).
    live: BTreeMap<u64, (u64, u64)>,
    stats: AllocStats,
}

impl SimAllocator {
    /// Creates a first-fit allocator managing `[base, base + capacity)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero (null must stay invalid) or `capacity` is
    /// zero.
    #[must_use]
    pub fn new(base: u64, capacity: u64) -> Self {
        Self::with_policy(base, capacity, FitPolicy::FirstFit)
    }

    /// Creates an allocator with an explicit free-region selection policy.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero (null must stay invalid) or `capacity` is
    /// zero.
    #[must_use]
    pub fn with_policy(base: u64, capacity: u64, policy: FitPolicy) -> Self {
        assert!(base != 0, "arena base must be non-zero");
        assert!(capacity != 0, "arena capacity must be non-zero");
        let mut free = BTreeMap::new();
        free.insert(base, capacity);
        SimAllocator {
            base,
            capacity,
            policy,
            cursor: base,
            free,
            live: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// The free-region selection policy in use.
    #[must_use]
    pub fn policy(&self) -> FitPolicy {
        self.policy
    }

    /// Selects the free region an allocation of `gross` bytes is carved
    /// from, per the configured policy.
    fn select_region(&self, gross: u64) -> Option<(u64, u64)> {
        match self.policy {
            FitPolicy::FirstFit => self
                .free
                .iter()
                .find(|(_, &len)| len >= gross)
                .map(|(&start, &len)| (start, len)),
            FitPolicy::BestFit => self
                .free
                .iter()
                .filter(|(_, &len)| len >= gross)
                .min_by_key(|(&start, &len)| (len, start))
                .map(|(&start, &len)| (start, len)),
            FitPolicy::NextFit => self
                .free
                .range(self.cursor..)
                .chain(self.free.range(..self.cursor))
                .find(|(_, &len)| len >= gross)
                .map(|(&start, &len)| (start, len)),
        }
    }

    /// Allocates `size` user bytes, returning the user address (which is
    /// `HEADER_BYTES` past the block start).
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`] for zero-byte requests and
    /// [`AllocError::OutOfMemory`] when no free region fits.
    pub fn alloc(&mut self, size: u64) -> Result<VirtAddr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let gross = Self::gross_size(size);
        let Some((start, len)) = self.select_region(gross) else {
            self.stats.failed_allocs += 1;
            return Err(AllocError::OutOfMemory { requested: size });
        };
        self.free.remove(&start);
        if len > gross {
            self.free.insert(start + gross, len - gross);
        }
        self.cursor = start + gross;
        let user = start + HEADER_BYTES;
        self.live.insert(user, (gross, size));
        self.stats.allocs += 1;
        self.stats.live_user_bytes += size;
        self.stats.live_gross_bytes += gross;
        self.stats.peak_gross_bytes = self.stats.peak_gross_bytes.max(self.stats.live_gross_bytes);
        Ok(VirtAddr::new(user))
    }

    /// Frees a block previously returned by [`SimAllocator::alloc`],
    /// coalescing with free neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidFree`] if `addr` does not correspond to
    /// a live block (double free or wild pointer).
    pub fn free(&mut self, addr: VirtAddr) -> Result<(), AllocError> {
        let user = addr.as_u64();
        let Some((gross, size)) = self.live.remove(&user) else {
            return Err(AllocError::InvalidFree { addr });
        };
        self.stats.frees += 1;
        self.stats.live_user_bytes -= size;
        self.stats.live_gross_bytes -= gross;
        let mut start = user - HEADER_BYTES;
        let mut len = gross;
        // Coalesce with the preceding free region.
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        // Coalesce with the following free region.
        if let Some(&next_len) = self.free.get(&(start + len)) {
            self.free.remove(&(start + len));
            len += next_len;
        }
        self.free.insert(start, len);
        Ok(())
    }

    /// Size of the live block at `addr` as requested by the caller, if any.
    #[must_use]
    pub fn user_size(&self, addr: VirtAddr) -> Option<u64> {
        self.live.get(&addr.as_u64()).map(|&(_, size)| size)
    }

    /// Returns `true` if `addr` points into a live block (header excluded).
    #[must_use]
    pub fn contains(&self, addr: VirtAddr) -> bool {
        let a = addr.as_u64();
        self.live
            .range(..=a)
            .next_back()
            .is_some_and(|(&user, &(_, size))| a >= user && a < user + size)
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Arena base address.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Arena capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of live blocks.
    #[must_use]
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }

    /// Number of disjoint free regions (external fragmentation proxy).
    #[must_use]
    pub fn free_regions(&self) -> usize {
        self.free.len()
    }

    /// Gross bytes consumed by a `size`-byte allocation, including header
    /// and alignment padding.
    #[must_use]
    pub fn gross_size(size: u64) -> u64 {
        let padded = size.div_ceil(ALIGN) * ALIGN;
        padded + HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> SimAllocator {
        SimAllocator::new(0x1000, 4096)
    }

    #[test]
    fn alloc_returns_distinct_aligned_addresses() {
        let mut h = heap();
        let a = h.alloc(10).unwrap();
        let b = h.alloc(10).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.as_u64() % ALIGN, 0);
        assert_eq!(b.as_u64() % ALIGN, 0);
    }

    #[test]
    fn zero_size_rejected() {
        assert_eq!(heap().alloc(0), Err(AllocError::ZeroSize));
    }

    #[test]
    fn out_of_memory_reported_and_counted() {
        let mut h = SimAllocator::new(0x1000, 64);
        let err = h.alloc(1024).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { requested: 1024 }));
        assert_eq!(h.stats().failed_allocs, 1);
    }

    #[test]
    fn free_then_realloc_reuses_space() {
        let mut h = heap();
        let a = h.alloc(100).unwrap();
        h.free(a).unwrap();
        let b = h.alloc(100).unwrap();
        assert_eq!(a, b, "first fit reuses the freed block");
    }

    #[test]
    fn double_free_rejected() {
        let mut h = heap();
        let a = h.alloc(16).unwrap();
        h.free(a).unwrap();
        let err = h.free(a).unwrap_err();
        assert_eq!(err, AllocError::InvalidFree { addr: a });
        assert_eq!(
            err.to_string(),
            format!("free of {a}, which is not a live block (double free or wild pointer)")
        );
    }

    #[test]
    fn coalescing_restores_full_arena() {
        let mut h = heap();
        let blocks: Vec<_> = (0..8).map(|_| h.alloc(64).unwrap()).collect();
        // Free in an interleaved order to exercise both coalesce directions.
        for &i in &[1usize, 3, 5, 7, 0, 2, 4, 6] {
            h.free(blocks[i]).unwrap();
        }
        assert_eq!(h.free_regions(), 1, "arena coalesced back to one region");
        // The whole arena is allocatable again.
        let big = h.alloc(4096 - HEADER_BYTES).unwrap();
        assert!(!big.is_null());
    }

    #[test]
    fn footprint_tracks_peak_not_current() {
        let mut h = heap();
        let a = h.alloc(512).unwrap();
        let peak_after_alloc = h.stats().peak_gross_bytes;
        h.free(a).unwrap();
        assert_eq!(h.stats().live_gross_bytes, 0);
        assert_eq!(h.stats().peak_gross_bytes, peak_after_alloc);
        assert_eq!(peak_after_alloc, SimAllocator::gross_size(512));
    }

    #[test]
    fn contains_covers_block_interior_only() {
        let mut h = heap();
        let a = h.alloc(32).unwrap();
        assert!(h.contains(a));
        assert!(h.contains(a.offset(31)));
        assert!(!h.contains(a.offset(32)));
        assert!(!h.contains(VirtAddr::new(a.as_u64() - HEADER_BYTES)));
    }

    #[test]
    fn user_size_reports_requested_size() {
        let mut h = heap();
        let a = h.alloc(33).unwrap();
        assert_eq!(h.user_size(a), Some(33));
        h.free(a).unwrap();
        assert_eq!(h.user_size(a), None);
    }

    #[test]
    fn overhead_ratio_reflects_header_and_padding() {
        let mut h = heap();
        let _ = h.alloc(1).unwrap(); // 1 user byte -> 8 padded + 8 header
        let ratio = h.stats().overhead_ratio();
        assert!((ratio - (1.0 - 1.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn best_fit_picks_the_tightest_hole() {
        let mut h = SimAllocator::with_policy(0x1000, 4096, FitPolicy::BestFit);
        // Carve three holes: 256, 64 and 128 gross bytes (in address order).
        let keep1 = h.alloc(512).unwrap();
        let hole_big = h.alloc(256 - HEADER_BYTES).unwrap();
        let keep2 = h.alloc(512).unwrap();
        let hole_small = h.alloc(64 - HEADER_BYTES).unwrap();
        let keep3 = h.alloc(512).unwrap();
        let hole_mid = h.alloc(128 - HEADER_BYTES).unwrap();
        let _keep4 = h.alloc(512).unwrap();
        h.free(hole_big).unwrap();
        h.free(hole_small).unwrap();
        h.free(hole_mid).unwrap();
        let _ = (keep1, keep2, keep3);
        // A 56-byte request (64 gross) must land in the smallest hole,
        // which first fit would have skipped.
        let got = h.alloc(64 - HEADER_BYTES).unwrap();
        assert_eq!(got, hole_small, "best fit selects the tightest region");
    }

    #[test]
    fn next_fit_resumes_after_the_previous_allocation() {
        let mut h = SimAllocator::with_policy(0x1000, 4096, FitPolicy::NextFit);
        let a = h.alloc(48).unwrap(); // 56 gross
        let b = h.alloc(64).unwrap(); // 72 gross
        h.free(a).unwrap();
        // First fit would reuse `a`'s hole; next fit continues past `b`.
        let c = h.alloc(48).unwrap();
        assert!(c.as_u64() > b.as_u64(), "next fit moved past the cursor");
        // Exhaust the tail with requests too big for `a`'s 56-byte hole;
        // the next 48-byte request then wraps around into it.
        while h.alloc(64).is_ok() {}
        let wrapped = h.alloc(48).unwrap();
        assert_eq!(wrapped, a, "wrap-around reuses the old hole");
    }

    #[test]
    fn all_policies_satisfy_the_same_request_stream() {
        for policy in [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::NextFit] {
            let mut h = SimAllocator::with_policy(0x1000, 64 * 1024, policy);
            let mut blocks = Vec::new();
            for i in 0..100u64 {
                blocks.push(h.alloc(16 + (i * 7) % 120).unwrap());
            }
            for b in blocks.drain(..).step_by(2) {
                h.free(b).unwrap();
            }
            for i in 0..40u64 {
                assert!(h.alloc(16 + i).is_ok(), "{policy} failed at {i}");
            }
        }
    }

    #[test]
    fn policy_display_and_default() {
        assert_eq!(FitPolicy::default(), FitPolicy::FirstFit);
        assert_eq!(FitPolicy::BestFit.to_string(), "best-fit");
        assert_eq!(SimAllocator::new(0x1000, 64).policy(), FitPolicy::FirstFit);
    }

    #[test]
    fn gross_size_is_monotone_and_aligned() {
        let mut prev = 0;
        for s in 1..200 {
            let g = SimAllocator::gross_size(s);
            assert!(g >= prev);
            assert_eq!(g % ALIGN, 0);
            assert!(g >= s + HEADER_BYTES);
            prev = g;
        }
    }
}
