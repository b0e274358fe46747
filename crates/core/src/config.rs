//! Configuration of the methodology pipeline.

use crate::error::ExploreError;
use ddtr_apps::{AppKind, AppParams};
use ddtr_ddt::DdtKind;
use ddtr_engine::ExploreEngine;
use ddtr_mem::MemoryConfig;
use ddtr_trace::NetworkPreset;
use serde::{Deserialize, Serialize};

fn default_candidates() -> Vec<DdtKind> {
    DdtKind::ALL.to_vec()
}

/// Checks a DDT candidate set, as every exploration mode takes one: at
/// least two kinds, none of them twice (a repeated kind would explore,
/// and count, each of its combinations twice).
pub(crate) fn validate_candidates(candidates: &[DdtKind]) -> Result<(), ExploreError> {
    if candidates.len() < 2 {
        return Err(ExploreError::InvalidConfig(
            "at least two DDT candidates are required".into(),
        ));
    }
    if let Some(kind) = (1..candidates.len())
        .find(|&i| candidates[..i].contains(&candidates[i]))
        .map(|i| candidates[i])
    {
        return Err(ExploreError::InvalidConfig(format!(
            "DDT candidates must be distinct ({kind} is listed twice)"
        )));
    }
    Ok(())
}

/// Everything the three-step pipeline needs to explore one application.
///
/// Use [`MethodologyConfig::paper`] for the full paper-sized sweeps and
/// [`MethodologyConfig::quick`] for test/example-sized ones.
///
/// # Example
///
/// ```
/// use ddtr_core::MethodologyConfig;
/// use ddtr_apps::AppKind;
///
/// let cfg = MethodologyConfig::paper(AppKind::Route);
/// assert_eq!(cfg.exhaustive_simulations(), 1400); // 100 combos x 14 configs
/// let cfg = MethodologyConfig::paper(AppKind::Ipchains);
/// assert_eq!(cfg.exhaustive_simulations(), 2100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodologyConfig {
    /// The application under exploration.
    pub app: AppKind,
    /// The DDT candidate set explored for every dominant slot — the
    /// paper's ten by default; pass [`DdtKind::EXTENDED`] to include the
    /// extension DDTs.
    #[serde(default = "default_candidates")]
    pub candidates: Vec<DdtKind>,
    /// Packets simulated per run.
    pub packets_per_sim: usize,
    /// The "typical input trace" network used by step 1.
    pub reference_network: NetworkPreset,
    /// Fraction of combinations surviving step 1 (the paper keeps ~20 %).
    pub survivor_fraction: f64,
    /// Platform memory configuration.
    pub mem: MemoryConfig,
    /// The network configurations of step 2.
    pub networks: Vec<NetworkPreset>,
    /// The application-parameter variants of step 2.
    pub param_variants: Vec<AppParams>,
    /// Spread simulations over worker threads.
    pub parallel: bool,
}

impl MethodologyConfig {
    /// The paper-sized configuration: all of the application's networks
    /// and parameter variants, 400-packet simulations.
    #[must_use]
    pub fn paper(app: AppKind) -> Self {
        MethodologyConfig {
            app,
            candidates: default_candidates(),
            packets_per_sim: 400,
            reference_network: NetworkPreset::DartmouthBerry,
            survivor_fraction: 0.2,
            mem: MemoryConfig::embedded_default(),
            networks: app.networks().to_vec(),
            param_variants: AppParams::variants_for(app),
            parallel: true,
        }
    }

    /// A reduced configuration for tests and examples: two networks, one
    /// parameter variant, short traces.
    #[must_use]
    pub fn quick(app: AppKind) -> Self {
        let params = AppParams {
            route_table_size: 48,
            firewall_rules: 16,
            table_cap: 24,
            ..AppParams::default()
        };
        params.validate().expect("quick params valid");
        MethodologyConfig {
            app,
            candidates: default_candidates(),
            packets_per_sim: 80,
            reference_network: NetworkPreset::DartmouthBerry,
            survivor_fraction: 0.2,
            mem: MemoryConfig::embedded_default(),
            networks: vec![NetworkPreset::DartmouthBerry, NetworkPreset::NlanrAix],
            param_variants: vec![params],
            parallel: false,
        }
    }

    /// Builds the engine the plain (engine-less) entry points run on: one
    /// worker per core when `parallel` is set, a single worker otherwise,
    /// with in-memory caching only. Callers wanting persistent caching or
    /// an explicit `--jobs` build their own [`ExploreEngine`] and use the
    /// `*_with` variants.
    #[must_use]
    pub fn default_engine(&self) -> ExploreEngine {
        ExploreEngine::with_jobs(usize::from(!self.parallel))
    }

    /// Number of step-2 configurations (networks × parameter variants).
    #[must_use]
    pub fn configurations(&self) -> usize {
        self.networks.len() * self.param_variants.len()
    }

    /// Simulations an exhaustive exploration would need (the paper's
    /// Table 1 "Exhaustive simulations" column): all combinations on every
    /// configuration.
    #[must_use]
    pub fn exhaustive_simulations(&self) -> usize {
        self.candidates.len().pow(2) * self.configurations()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidConfig`] describing the first
    /// problem.
    pub fn validate(&self) -> Result<(), ExploreError> {
        validate_candidates(&self.candidates)?;
        if self.packets_per_sim == 0 {
            return Err(ExploreError::InvalidConfig(
                "packets_per_sim must be non-zero".into(),
            ));
        }
        if !(0.01..=1.0).contains(&self.survivor_fraction) {
            return Err(ExploreError::InvalidConfig(format!(
                "survivor fraction {} outside (0.01, 1.0]",
                self.survivor_fraction
            )));
        }
        if self.networks.is_empty() {
            return Err(ExploreError::InvalidConfig(
                "at least one network configuration is required".into(),
            ));
        }
        if self.param_variants.is_empty() {
            return Err(ExploreError::InvalidConfig(
                "at least one application-parameter variant is required".into(),
            ));
        }
        for p in &self.param_variants {
            p.validate().map_err(ExploreError::InvalidConfig)?;
        }
        self.mem.validate().map_err(ExploreError::InvalidConfig)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_match_table_one() {
        assert_eq!(
            MethodologyConfig::paper(AppKind::Route).exhaustive_simulations(),
            1400
        );
        assert_eq!(
            MethodologyConfig::paper(AppKind::Url).exhaustive_simulations(),
            500
        );
        assert_eq!(
            MethodologyConfig::paper(AppKind::Ipchains).exhaustive_simulations(),
            2100
        );
        assert_eq!(
            MethodologyConfig::paper(AppKind::Drr).exhaustive_simulations(),
            500
        );
    }

    #[test]
    fn configs_validate() {
        for app in AppKind::ALL {
            MethodologyConfig::paper(app).validate().expect("paper");
            MethodologyConfig::quick(app).validate().expect("quick");
        }
    }

    #[test]
    fn extended_candidates_enlarge_the_space() {
        let mut cfg = MethodologyConfig::paper(AppKind::Url);
        cfg.candidates = DdtKind::EXTENDED.to_vec();
        cfg.validate().expect("extended set is valid");
        assert_eq!(cfg.exhaustive_simulations(), 144 * 5);
    }

    #[test]
    fn config_without_candidates_field_deserialises_to_paper_library() {
        // Logs written before the extension carry no `candidates` field;
        // they must replay against the paper's ten.
        let mut v = serde_json::to_value(MethodologyConfig::quick(AppKind::Drr)).expect("ser");
        v.as_object_mut().expect("object").remove("candidates");
        let cfg: MethodologyConfig = serde_json::from_value(v).expect("de");
        assert_eq!(cfg.candidates, DdtKind::ALL.to_vec());
    }

    #[test]
    fn every_mode_rejects_repeated_candidates() {
        use crate::{GaConfig, ScenarioConfig, SweepConfig};
        let repeated = vec![DdtKind::Array, DdtKind::Sll, DdtKind::Array];
        let errors = [
            MethodologyConfig {
                candidates: repeated.clone(),
                ..MethodologyConfig::quick(AppKind::Drr)
            }
            .validate(),
            GaConfig {
                candidates: repeated.clone(),
                ..GaConfig::quick(AppKind::Drr)
            }
            .validate(),
            ScenarioConfig {
                candidates: repeated.clone(),
                ..ScenarioConfig::quick(NetworkPreset::DartmouthBerry)
            }
            .validate(),
            SweepConfig {
                candidates: repeated.clone(),
                ..SweepConfig::quick(NetworkPreset::DartmouthBerry)
            }
            .validate(),
        ];
        for err in errors {
            match err {
                Err(ExploreError::InvalidConfig(msg)) => {
                    assert!(msg.contains("distinct") && msg.contains("AR"), "{msg}");
                }
                other => panic!("repeated candidates accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = MethodologyConfig::quick(AppKind::Drr);
        cfg.candidates.truncate(1);
        assert!(cfg.validate().is_err());

        let mut cfg = MethodologyConfig::quick(AppKind::Drr);
        cfg.packets_per_sim = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MethodologyConfig::quick(AppKind::Drr);
        cfg.survivor_fraction = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = MethodologyConfig::quick(AppKind::Drr);
        cfg.networks.clear();
        assert!(cfg.validate().is_err());

        let mut cfg = MethodologyConfig::quick(AppKind::Drr);
        cfg.param_variants.clear();
        assert!(cfg.validate().is_err());
    }
}
