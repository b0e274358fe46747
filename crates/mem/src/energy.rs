//! CACTI-like per-access energy model.
//!
//! The paper computes energy with "an updated version of the CACTI model".
//! CACTI derives the energy of one SRAM access from the array geometry —
//! larger capacity means longer bitlines/wordlines and therefore higher
//! energy per access, roughly with the square root of capacity. This module
//! implements that analytic shape with constants calibrated so that:
//!
//! * an L1-sized SRAM access costs a fraction of a nanojoule,
//! * a DRAM line transfer costs one to two orders of magnitude more,
//!
//! which matches the published ratios the methodology relies on. Absolute
//! joule values are *not* meaningful — only the ordering of DDT
//! implementations is, and any monotone capacity-dependent model preserves
//! it. The energy-model sensitivity study of the reproduction scorecard
//! (`REPRODUCTION.md`) measures how the Pareto front moves under large
//! perturbations of these constants.

use crate::config::{CacheConfig, DramConfig};
use serde::{Deserialize, Serialize};

/// Per-access energies (nanojoules) for every level of the hierarchy.
///
/// # Example
///
/// ```
/// use ddtr_mem::{CacheConfig, DramConfig, EnergyModel};
///
/// let model = EnergyModel::from_configs(&CacheConfig::default(), &DramConfig::default());
/// assert!(model.l1_access_nj > 0.0);
/// assert!(model.dram_access_nj > 10.0 * model.l1_access_nj);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one L1 access (hit or the tag probe part of a miss), nJ.
    pub l1_access_nj: f64,
    /// Energy of one backing-store line transfer at the reference
    /// footprint, nJ. The effective per-transfer energy scales with the
    /// live heap size (see [`EnergyModel::data_access_nj`]) — the CACTI
    /// effect that larger memories cost more per access.
    pub dram_access_nj: f64,
    /// Reserved: reference footprint for energy normalisation, bytes.
    pub footprint_ref_bytes: f64,
    /// Static/leakage energy charged per cycle, nJ (kept tiny; the paper's
    /// metric is dominated by dynamic access energy).
    pub leakage_nj_per_cycle: f64,
    /// Factor on [`EnergyModel::data_access_nj`]: 1 in a model from
    /// [`EnergyModel::from_configs`]; the scalings multiply it with
    /// `l1_access_nj`, since the data array is on-chip SRAM too.
    data_scale: f64,
}

impl EnergyModel {
    /// Derives per-access energies from the hierarchy geometry using the
    /// CACTI-like analytic shape
    /// `E = e0 + e1 * sqrt(capacity / line) * (1 + alpha * (ways - 1))`.
    #[must_use]
    pub fn from_configs(l1: &CacheConfig, dram: &DramConfig) -> Self {
        let l1_access_nj = Self::sram_access_nj(l1.capacity_bytes, l1.line_bytes, l1.ways);
        // Backing store: per-line activation + transfer energy, scaled
        // mildly with line size (burst length).
        let dram_access_nj = 2.0 + 0.03 * (l1.line_bytes as f64);
        let _ = dram.capacity_bytes; // capacity bounds the arena, not energy
        EnergyModel {
            l1_access_nj,
            dram_access_nj,
            footprint_ref_bytes: 8.0 * 1024.0,
            leakage_nj_per_cycle: 1e-4,
            data_scale: 1.0,
        }
    }

    /// Energy of one data access when the application's live heap
    /// occupies `live_bytes`.
    ///
    /// This is how the paper's CACTI-based estimation works: the memory
    /// serving the dynamic data is sized to what the application actually
    /// allocates, and a larger array has longer wordlines/bitlines, so
    /// *every* access costs more — energy grows with the square root of
    /// capacity while latency (cycles) is unaffected at this abstraction
    /// level. The modelled capacity is clamped to `[1 KiB, 256 KiB]`.
    /// Every L1 line access is charged this energy.
    #[must_use]
    pub fn data_access_nj(&self, live_bytes: u64) -> f64 {
        Self::sram_access_nj(live_bytes.clamp(1 << 10, 1 << 18), 32, 1) * self.data_scale
    }

    /// CACTI-like SRAM access energy in nanojoules.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    #[must_use]
    pub fn sram_access_nj(capacity_bytes: u64, line_bytes: u64, ways: u32) -> f64 {
        assert!(line_bytes > 0, "line size must be non-zero");
        let lines = capacity_bytes as f64 / line_bytes as f64;
        let assoc_penalty = 1.0 + 0.08 * f64::from(ways.saturating_sub(1));
        0.02 + 0.004 * lines.sqrt() * assoc_penalty
    }

    /// Scales all dynamic energies by `factor` (used by the sensitivity
    /// ablation to check Pareto-front stability under perturbed constants).
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        self.scaled_apart(factor, factor)
    }

    /// Scales the on-chip dynamic energies — the L1 and the data array
    /// ([`EnergyModel::data_access_nj`]) — by `on_chip` and the backing
    /// store's by `backing`; leakage is kept.
    ///
    /// # Example
    ///
    /// ```
    /// use ddtr_mem::{CacheConfig, DramConfig, EnergyModel};
    ///
    /// let model = EnergyModel::from_configs(&CacheConfig::default(), &DramConfig::default());
    /// let scaled = model.scaled_apart(4.0, 1.0);
    /// assert_eq!(scaled.data_access_nj(4096), 4.0 * model.data_access_nj(4096));
    /// assert_eq!(scaled.dram_access_nj, model.dram_access_nj);
    /// ```
    #[must_use]
    pub fn scaled_apart(self, on_chip: f64, backing: f64) -> Self {
        EnergyModel {
            l1_access_nj: self.l1_access_nj * on_chip,
            dram_access_nj: self.dram_access_nj * backing,
            data_scale: self.data_scale * on_chip,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_grows_with_capacity() {
        let small = EnergyModel::sram_access_nj(8 * 1024, 32, 4);
        let large = EnergyModel::sram_access_nj(64 * 1024, 32, 4);
        assert!(large > small);
    }

    #[test]
    fn energy_grows_with_associativity() {
        let dm = EnergyModel::sram_access_nj(32 * 1024, 32, 1);
        let sa = EnergyModel::sram_access_nj(32 * 1024, 32, 8);
        assert!(sa > dm);
    }

    #[test]
    fn dram_dominates_sram() {
        let m = EnergyModel::from_configs(&CacheConfig::default(), &DramConfig::default());
        assert!(m.dram_access_nj / m.l1_access_nj > 10.0);
    }

    #[test]
    fn scaling_preserves_leakage() {
        let m = EnergyModel::from_configs(&CacheConfig::default(), &DramConfig::default());
        let s = m.scaled(2.0);
        assert!((s.l1_access_nj - 2.0 * m.l1_access_nj).abs() < 1e-12);
        assert!((s.dram_access_nj - 2.0 * m.dram_access_nj).abs() < 1e-12);
        assert_eq!(s.data_access_nj(4096), 2.0 * m.data_access_nj(4096));
        assert_eq!(s.leakage_nj_per_cycle, m.leakage_nj_per_cycle);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn zero_line_rejected() {
        let _ = EnergyModel::sram_access_nj(1024, 0, 1);
    }
}
