//! Dominant-container profiling — the first substep of the methodology.

use crate::config::MethodologyConfig;
use crate::error::ExploreError;
use ddtr_apps::SlotProfile;
use ddtr_ddt::DdtKind;
use ddtr_engine::Simulator;
use ddtr_trace::StreamSpec;
use serde::{Deserialize, Serialize};

/// Result of profiling the application on a typical input trace.
///
/// The paper: "we attach to each candidate DDT of the network application
/// a profile object and run the application for some typical input traces.
/// The profiling reveals the dominant data structures of the application
/// (i.e. the ones that are accessed the most)".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileReport {
    /// All candidate slots with their access counters, sorted by
    /// descending access count.
    pub slots: Vec<SlotProfile>,
    /// Names of the slots selected as dominant.
    pub dominant: Vec<String>,
    /// Share of all container accesses covered by the dominant set.
    pub dominant_share: f64,
}

impl ProfileReport {
    /// Whether profiling agrees with the application's declared dominant
    /// slots (a sanity check of the methodology itself).
    #[must_use]
    pub fn matches_declared(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.dominant == self.dominant.contains(&s.name.to_string()))
    }
}

/// Share of total container accesses the dominant set must cover.
const DOMINANCE_COVERAGE: f64 = 0.95;

/// Runs the profiling substep: instrument every candidate container of the
/// application (in its baseline configuration), replay the reference
/// trace, and rank containers by access share.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when the configuration fails
/// validation.
pub fn profile_application(cfg: &MethodologyConfig) -> Result<ProfileReport, ExploreError> {
    cfg.validate()?;
    let params = cfg
        .param_variants
        .first()
        .expect("validated config has at least one variant");
    let spec = StreamSpec::single(cfg.reference_network.spec(), cfg.packets_per_sim)?;
    let (_, mut slots) = Simulator::new(cfg.mem).run_stream_with_profiles(
        cfg.app,
        [DdtKind::Sll, DdtKind::Sll],
        params,
        spec.stream(),
    );
    slots.sort_by_key(|s| std::cmp::Reverse(s.counts.accesses));
    let total: u64 = slots.iter().map(|s| s.counts.accesses).sum();
    let mut dominant = Vec::new();
    let mut covered = 0u64;
    for slot in &slots {
        if total > 0 && covered as f64 / total as f64 >= DOMINANCE_COVERAGE {
            break;
        }
        covered += slot.counts.accesses;
        dominant.push(slot.name.to_string());
    }
    Ok(ProfileReport {
        dominant_share: if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        },
        slots,
        dominant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_apps::AppKind;

    #[test]
    fn profiling_detects_the_declared_dominant_slots() {
        for app in AppKind::ALL {
            let cfg = MethodologyConfig::quick(app);
            let report = profile_application(&cfg).expect("profiles");
            assert!(
                report.matches_declared(),
                "{app}: profiling found {:?}",
                report.dominant
            );
            assert!(report.dominant_share >= 0.9, "{app}");
            assert_eq!(report.dominant.len(), 2, "{app}");
        }
    }

    #[test]
    fn slots_are_sorted_by_access_share() {
        let cfg = MethodologyConfig::quick(AppKind::Route);
        let report = profile_application(&cfg).expect("profiles");
        let accesses: Vec<u64> = report.slots.iter().map(|s| s.counts.accesses).collect();
        let mut sorted = accesses.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(accesses, sorted);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = MethodologyConfig::quick(AppKind::Url);
        cfg.packets_per_sim = 0;
        assert!(profile_application(&cfg).is_err());
    }
}
