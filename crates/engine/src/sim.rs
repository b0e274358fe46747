//! Single-simulation runner and the simulation log record.

use crate::combo::{combo_label, Combo};
use crate::key::ConfigKey;
use ddtr_apps::{AppKind, AppParams, SlotProfile};
use ddtr_mem::{CostReport, MemoryConfig, MemorySystem};
use ddtr_trace::{Packet, StreamSpec, Trace};
use serde::{Deserialize, Serialize};

/// One simulation's log record — the unit the paper's "Gigabytes of log
/// files" are made of.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimLog {
    /// Application simulated.
    pub app: AppKind,
    /// DDT combination label (e.g. `"AR+DLL"`).
    pub combo: String,
    /// Network the input trace came from.
    pub network: String,
    /// Application-parameter label (e.g. `"radix128"`).
    pub params: String,
    /// The four cost metrics.
    pub report: CostReport,
}

impl SimLog {
    /// The metrics as the canonical `[energy, time, accesses, footprint]`
    /// minimisation vector.
    #[must_use]
    pub fn objectives(&self) -> [f64; 4] {
        self.report.as_array()
    }

    /// Structured configuration key (network × parameter variant) grouping
    /// logs per step-2 configuration. Its [`std::fmt::Display`] renders the
    /// familiar `network/params` log form.
    #[must_use]
    pub fn config_key(&self) -> ConfigKey {
        ConfigKey::new(self.network.clone(), self.params.clone())
    }
}

/// Runs one (application, combination, configuration) simulation: "an
/// execution of an application under study using as input a network
/// trace".
///
/// A simulator built by [`Simulator::new`] models one platform. The
/// engine also builds simulators over several lane-compatible platforms
/// ([`MemoryConfig::lane_base`]), whose one pass through the application
/// yields a log per platform.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The platforms of one pass, lane 0 first.
    lanes: Vec<MemoryConfig>,
}

impl Simulator {
    /// Creates a simulator for the given platform memory configuration.
    #[must_use]
    pub fn new(mem_cfg: MemoryConfig) -> Self {
        Simulator {
            lanes: vec![mem_cfg],
        }
    }

    /// Creates a simulator whose one pass drives every configuration of
    /// `lanes` as a lane of one [`MemorySystem`].
    ///
    /// # Panics
    ///
    /// The simulations panic unless [`MemorySystem::with_lanes`] accepts
    /// `lanes`.
    pub(crate) fn with_lanes(lanes: Vec<MemoryConfig>) -> Self {
        Simulator { lanes }
    }

    /// Simulates `app` with `combo` in its dominant slots over `trace`,
    /// returning the four-metric log record. Table construction is part of
    /// the measured execution, exactly like the paper's host runs.
    #[must_use]
    pub fn run(&self, app: AppKind, combo: Combo, params: &AppParams, trace: &Trace) -> SimLog {
        first_lane(self.run_lanes(app, combo, params, trace))
    }

    /// Simulates `app` over a [`StreamSpec`] workload, streaming its
    /// (possibly multi-phase) packets in constant memory. For the same
    /// packets this yields exactly the log of [`Simulator::run`].
    #[must_use]
    pub fn run_spec(
        &self,
        app: AppKind,
        combo: Combo,
        params: &AppParams,
        spec: &StreamSpec,
    ) -> SimLog {
        first_lane(self.run_spec_lanes(app, combo, params, spec))
    }

    /// [`Simulator::run`], one log per lane.
    pub(crate) fn run_lanes(
        &self,
        app: AppKind,
        combo: Combo,
        params: &AppParams,
        trace: &Trace,
    ) -> Vec<SimLog> {
        let (reports, _) = self.simulate(app, combo, params, trace.iter());
        sim_logs(app, combo, params, &trace.network, reports)
    }

    /// [`Simulator::run_spec`], one log per lane.
    pub(crate) fn run_spec_lanes(
        &self,
        app: AppKind,
        combo: Combo,
        params: &AppParams,
        spec: &StreamSpec,
    ) -> Vec<SimLog> {
        let (reports, _) = self.simulate(app, combo, params, spec.stream());
        sim_logs(app, combo, params, spec.name(), reports)
    }

    /// Simulates `app` over a packet stream and returns the cost report
    /// and the per-slot access profiles (the profiling substep), in
    /// constant memory.
    #[must_use]
    pub fn run_stream_with_profiles(
        &self,
        app: AppKind,
        combo: Combo,
        params: &AppParams,
        packets: impl IntoIterator<Item = Packet>,
    ) -> (CostReport, Vec<SlotProfile>) {
        let (reports, profiles) = self.simulate(app, combo, params, packets);
        (reports[0], profiles)
    }

    /// The one simulation loop every entry point drains — their
    /// byte-identical metrics come from sharing this body, not from
    /// keeping copies in sync. Returns one report per lane.
    fn simulate<B: std::borrow::Borrow<Packet>>(
        &self,
        app: AppKind,
        combo: Combo,
        params: &AppParams,
        packets: impl IntoIterator<Item = B>,
    ) -> (Vec<CostReport>, Vec<SlotProfile>) {
        let mut mem = MemorySystem::with_lanes(&self.lanes);
        let mut instance = app.instantiate(combo, params, &mut mem);
        for pkt in packets {
            instance.process(pkt.borrow(), &mut mem);
        }
        let reports = (0..mem.lanes()).map(|lane| mem.lane_report(lane)).collect();
        (reports, instance.slot_profiles())
    }
}

fn first_lane(logs: Vec<SimLog>) -> SimLog {
    logs.into_iter().next().expect("a simulator has a lane")
}

fn sim_logs(
    app: AppKind,
    combo: Combo,
    params: &AppParams,
    network: &str,
    reports: Vec<CostReport>,
) -> Vec<SimLog> {
    let combo = combo_label(combo);
    let params = params.label(app);
    reports
        .into_iter()
        .map(|report| SimLog {
            app,
            combo: combo.clone(),
            network: network.to_owned(),
            params: params.clone(),
            report,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_ddt::DdtKind;
    use ddtr_trace::NetworkPreset;

    fn sim() -> Simulator {
        Simulator::new(MemoryConfig::embedded_default())
    }

    fn quick_params() -> AppParams {
        AppParams {
            route_table_size: 32,
            firewall_rules: 8,
            table_cap: 16,
            ..AppParams::default()
        }
    }

    #[test]
    fn run_produces_nonzero_metrics_for_every_app() {
        let trace = NetworkPreset::DartmouthBerry.generate(60);
        for app in AppKind::ALL {
            let log = sim().run(app, [DdtKind::Array, DdtKind::Sll], &quick_params(), &trace);
            assert!(log.report.accesses > 0, "{app}");
            assert!(log.report.cycles > 0, "{app}");
            assert!(log.report.energy_nj > 0.0, "{app}");
            assert!(log.report.peak_footprint_bytes > 0, "{app}");
            assert_eq!(
                log.config_key(),
                ConfigKey::new("BWY-I", log.params.clone())
            );
            assert_eq!(
                log.config_key().to_string(),
                format!("BWY-I/{}", log.params)
            );
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = NetworkPreset::NlanrAix.generate(80);
        let a = sim().run(
            AppKind::Url,
            [DdtKind::SllRov, DdtKind::DllChunk],
            &quick_params(),
            &trace,
        );
        let b = sim().run(
            AppKind::Url,
            [DdtKind::SllRov, DdtKind::DllChunk],
            &quick_params(),
            &trace,
        );
        assert_eq!(a.report.accesses, b.report.accesses);
        assert_eq!(a.report.cycles, b.report.cycles);
    }

    #[test]
    fn different_combos_cost_differently() {
        let trace = NetworkPreset::DartmouthBerry.generate(100);
        let a = sim().run(
            AppKind::Drr,
            [DdtKind::Array, DdtKind::Array],
            &quick_params(),
            &trace,
        );
        let b = sim().run(
            AppKind::Drr,
            [DdtKind::Sll, DdtKind::Sll],
            &quick_params(),
            &trace,
        );
        assert_ne!(
            a.report.accesses, b.report.accesses,
            "AR+AR vs SLL+SLL must differ"
        );
    }

    #[test]
    fn spec_run_matches_materialized_run_exactly() {
        let preset = NetworkPreset::DartmouthBerry;
        let trace = preset.generate(120);
        let spec = ddtr_trace::StreamSpec::single(preset.spec(), 120).expect("valid");
        for combo in [
            [DdtKind::Array, DdtKind::Sll],
            [DdtKind::DllRov, DdtKind::SllChunk],
        ] {
            let direct = sim().run(AppKind::Drr, combo, &quick_params(), &trace);
            let streamed = sim().run_spec(AppKind::Drr, combo, &quick_params(), &spec);
            assert_eq!(
                serde_json::to_string(&streamed).expect("ser"),
                serde_json::to_string(&direct).expect("ser"),
                "streamed and materialized logs must be byte-identical"
            );
        }
    }

    #[test]
    fn log_serialises_to_json_and_back() {
        let trace = NetworkPreset::DartmouthBerry.generate(30);
        let log = sim().run(
            AppKind::Ipchains,
            [DdtKind::Dll, DdtKind::Dll],
            &quick_params(),
            &trace,
        );
        let json = serde_json::to_string(&log).expect("serialise");
        let back: SimLog = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.combo, log.combo);
        assert_eq!(back.report.accesses, log.report.accesses);
    }

    #[test]
    fn objectives_order_is_energy_time_accesses_footprint() {
        let trace = NetworkPreset::DartmouthBerry.generate(20);
        let log = sim().run(
            AppKind::Drr,
            [DdtKind::Array, DdtKind::Array],
            &quick_params(),
            &trace,
        );
        let o = log.objectives();
        assert_eq!(o[0], log.report.energy_nj);
        assert_eq!(o[1], log.report.cycles as f64);
        assert_eq!(o[2], log.report.accesses as f64);
        assert_eq!(o[3], log.report.peak_footprint_bytes as f64);
    }
}
