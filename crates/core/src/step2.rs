//! Step 2 — network-level DDT exploration.

use crate::config::MethodologyConfig;
use crate::error::ExploreError;
use ddtr_engine::{
    fingerprint_stream_spec, Combo, ConfigKey, ExploreEngine, SimLog, SimUnit, TraceSource,
};
use ddtr_trace::{NetworkParams, NetworkPreset, StreamSpec};
use serde::{Deserialize, Serialize};

/// One network configuration of step 2: a network preset combined with an
/// application-parameter variant, plus the parameters the tool extracted
/// from the trace (the Perl-parser output of the original flow).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// The network preset.
    pub network: NetworkPreset,
    /// The application-parameter label.
    pub params_label: String,
    /// Parameters extracted from the generated trace.
    pub extracted: NetworkParams,
}

/// Result of the network-level exploration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Step2Result {
    /// Every configuration explored.
    pub configs: Vec<NetworkConfig>,
    /// One log per (survivor combination × configuration).
    pub logs: Vec<SimLog>,
}

impl Step2Result {
    /// Number of simulations this step performed.
    #[must_use]
    pub fn simulations(&self) -> usize {
        self.logs.len()
    }

    /// The logs belonging to one configuration (network × parameter
    /// variant).
    #[must_use]
    pub fn logs_for(&self, key: &ConfigKey) -> Vec<&SimLog> {
        self.logs
            .iter()
            .filter(|l| &l.config_key() == key)
            .collect()
    }
}

/// Runs step 2 on a default engine built from the configuration
/// (`cfg.parallel` selects auto worker count versus one). See
/// [`explore_network_level_with`].
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when the configuration fails
/// validation.
pub fn explore_network_level(
    cfg: &MethodologyConfig,
    survivors: &[Combo],
) -> Result<Step2Result, ExploreError> {
    explore_network_level_with(&mut cfg.default_engine(), cfg, survivors)
}

/// Runs step 2: for every network configuration (network × application
/// parameters), parse the trace to extract its network parameters, then
/// simulate each surviving combination on it.
///
/// The whole `(configuration × survivor)` cross product is one engine
/// batch: the engine's work-stealing pool spreads it over `--jobs` workers
/// and its cache answers points simulated before (by step 1, a previous
/// run, or another application sharing a trace). Logs are re-sorted
/// canonically, so the result is byte-identical at any worker count.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when the configuration fails
/// validation.
pub fn explore_network_level_with(
    engine: &mut ExploreEngine,
    cfg: &MethodologyConfig,
    survivors: &[Combo],
) -> Result<Step2Result, ExploreError> {
    cfg.validate()?;
    if survivors.is_empty() {
        return Err(ExploreError::InvalidConfig(
            "step 2 needs at least one surviving combination".into(),
        ));
    }
    // Describe every network's workload once and extract its parameters
    // in a single streamed pass, shared across its parameter variants.
    let mut workloads: Vec<(NetworkPreset, StreamSpec, u64, NetworkParams)> = Vec::new();
    for &network in &cfg.networks {
        let spec = StreamSpec::single(network.spec(), cfg.packets_per_sim)?;
        let fp = fingerprint_stream_spec(&spec);
        let extracted = NetworkParams::extract_stream(spec.name(), spec.stream());
        workloads.push((network, spec, fp, extracted));
    }
    let configs: Vec<NetworkConfig> = workloads
        .iter()
        .flat_map(|(network, _, _, extracted)| {
            cfg.param_variants.iter().map(move |params| NetworkConfig {
                network: *network,
                params_label: params.label(cfg.app),
                extracted: extracted.clone(),
            })
        })
        .collect();

    let units: Vec<SimUnit> = workloads
        .iter()
        .flat_map(|(_, spec, fp, _)| {
            cfg.param_variants.iter().flat_map(move |params| {
                survivors.iter().map(move |&combo| {
                    let source = TraceSource::Streamed(spec);
                    SimUnit::from_source(cfg.app, combo, params, source, *fp, cfg.mem)
                })
            })
        })
        .collect();
    let mut logs = engine.try_evaluate_batch(&units)?;
    logs.sort_by(|a, b| (a.config_key(), &a.combo).cmp(&(b.config_key(), &b.combo)));
    Ok(Step2Result { configs, logs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MethodologyConfig;
    use ddtr_apps::AppKind;
    use ddtr_ddt::DdtKind;

    fn survivors() -> Vec<Combo> {
        vec![
            [DdtKind::Array, DdtKind::Array],
            [DdtKind::Sll, DdtKind::Sll],
            [DdtKind::Array, DdtKind::Dll],
        ]
    }

    #[test]
    fn simulates_survivors_times_configs() {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        let result = explore_network_level(&cfg, &survivors()).expect("step 2");
        assert_eq!(result.configs.len(), cfg.configurations());
        assert_eq!(result.simulations(), 3 * cfg.configurations());
    }

    #[test]
    fn extracted_parameters_accompany_each_config() {
        let cfg = MethodologyConfig::quick(AppKind::Url);
        let result = explore_network_level(&cfg, &survivors()).expect("step 2");
        for config in &result.configs {
            assert!(config.extracted.is_usable(), "{}", config.network);
            assert!(config.extracted.nodes_observed >= 2);
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        let seq = explore_network_level_with(&mut ExploreEngine::with_jobs(1), &cfg, &survivors())
            .expect("sequential");
        let par = explore_network_level_with(&mut ExploreEngine::with_jobs(8), &cfg, &survivors())
            .expect("parallel");
        let key = |l: &SimLog| (l.config_key(), l.combo.clone(), l.report.accesses);
        let a: Vec<_> = seq.logs.iter().map(key).collect();
        let b: Vec<_> = par.logs.iter().map(key).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn logs_group_by_config_key() {
        let cfg = MethodologyConfig::quick(AppKind::Ipchains);
        let result = explore_network_level(&cfg, &survivors()).expect("step 2");
        let key = result.logs[0].config_key();
        assert_eq!(result.logs_for(&key).len(), 3);
    }

    #[test]
    fn empty_survivors_rejected() {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        assert!(explore_network_level(&cfg, &[]).is_err());
    }

    #[test]
    fn network_configuration_changes_the_metrics() {
        // The same combination must measure differently on different
        // networks — the reason step 2 exists at all.
        let cfg = MethodologyConfig::quick(AppKind::Url);
        let result = explore_network_level(&cfg, &[[DdtKind::Sll, DdtKind::Sll]]).expect("step 2");
        let accesses: Vec<u64> = result.logs.iter().map(|l| l.report.accesses).collect();
        assert_eq!(accesses.len(), 2);
        assert_ne!(accesses[0], accesses[1]);
    }

    #[test]
    fn step1_results_warm_the_step2_cache() {
        // Step 1 simulates the reference network; step 2 revisits it for
        // the same combinations — with a shared engine those points are
        // pure cache hits.
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        let mut engine = ExploreEngine::in_memory();
        crate::step1::explore_application_level_with(&mut engine, &cfg).expect("step 1");
        let before = engine.stats();
        explore_network_level_with(&mut engine, &cfg, &survivors()).expect("step 2");
        let after = engine.stats();
        assert!(
            after.hits > before.hits,
            "step 2 must reuse step-1 simulations of the reference network"
        );
    }
}
