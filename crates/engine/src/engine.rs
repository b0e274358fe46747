//! The exploration engine: batched, parallel, cached simulation execution.

use crate::cache::{CacheStats, SimCache};
use crate::combo::Combo;
use crate::key::{fingerprint_stream_spec, fingerprint_trace, CacheKey};
use crate::scheduler::{effective_jobs, run_ordered};
use crate::session::{BatchControl, Cancelled, JobsPool};
use crate::sim::{SimLog, Simulator};
use ddtr_apps::{AppKind, AppParams};
use ddtr_mem::MemoryConfig;
use ddtr_trace::{StreamSpec, Trace};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Largest streamed workload, in packets, that a batch materializes once
/// and shares across its missed units instead of regenerating it per
/// unit. A `Packet` is 56 bytes plus its URL, if any, so the shared trace
/// stays on the order of 1 MB. Regenerating a spec costs 5–11 µs of set-up plus ~0.1 µs per packet
/// per unit, 20–36% of an 80-packet URL or NAT simulation (measured on a
/// 2-CPU x86-64 host); above the limit each unit streams its packets in
/// bounded memory instead.
pub const MATERIALIZE_MAX_PACKETS: usize = 16_384;

/// An engine failure (today: cache I/O on open).
#[derive(Debug)]
pub struct EngineError(String);

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine error: {}", self.0)
    }
}

impl std::error::Error for EngineError {}

/// How an [`ExploreEngine`] executes its batches.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads per batch; `0` means one per available core.
    pub jobs: usize,
    /// Attach a persistent result store under this directory.
    pub cache_dir: Option<PathBuf>,
    /// Disable result caching entirely (batches still deduplicate
    /// internally; nothing is remembered across batches).
    pub no_cache: bool,
}

impl EngineConfig {
    /// A configuration with an explicit worker count and no persistence.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        EngineConfig {
            jobs,
            ..Self::default()
        }
    }
}

/// Where a simulation unit's packets come from.
///
/// The engine treats both forms identically for scheduling, ordering and
/// caching; they differ only in what gets fingerprinted (packets versus
/// workload description). Every exploration mode describes its workloads
/// as [`TraceSource::Streamed`] specs, and the engine decides how their
/// packets reach the simulator (see [`MATERIALIZE_MAX_PACKETS`]);
/// [`TraceSource::Materialized`] is for callers bringing their own trace.
#[derive(Debug, Clone, Copy)]
pub enum TraceSource<'a> {
    /// A caller-supplied trace, shared by reference across the batch.
    Materialized(&'a Trace),
    /// A workload description: the cache key fingerprints the *spec*
    /// instead of its packets, whatever the packet count.
    Streamed(&'a StreamSpec),
}

impl TraceSource<'_> {
    /// The network name the resulting log is filed under.
    #[must_use]
    pub fn network(&self) -> &str {
        match self {
            TraceSource::Materialized(trace) => &trace.network,
            TraceSource::Streamed(spec) => spec.name(),
        }
    }

    /// Content fingerprint of the source ([`fingerprint_trace`] or
    /// [`fingerprint_stream_spec`]); the two domains never collide.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        match self {
            TraceSource::Materialized(trace) => fingerprint_trace(trace),
            TraceSource::Streamed(spec) => fingerprint_stream_spec(spec),
        }
    }
}

/// One `(application, combination, configuration)` simulation unit — the
/// atom the engine schedules, caches and orders.
#[derive(Debug, Clone)]
pub struct SimUnit<'a> {
    /// Application to simulate.
    pub app: AppKind,
    /// DDT combination under test.
    pub combo: Combo,
    /// Application parameters of the run.
    pub params: &'a AppParams,
    /// Packet source driving the run (materialized trace or streamed
    /// workload).
    pub source: TraceSource<'a>,
    /// Fingerprint of the source (compute once per trace/spec with
    /// [`TraceSource::fingerprint`] and share across the batch).
    pub trace_fp: u64,
    /// Platform memory configuration.
    pub mem: MemoryConfig,
}

impl<'a> SimUnit<'a> {
    /// Builds a materialized-trace unit, fingerprinting the trace. When
    /// many units share one trace, prefer [`SimUnit::with_fingerprint`]
    /// with a precomputed fingerprint.
    #[must_use]
    pub fn new(
        app: AppKind,
        combo: Combo,
        params: &'a AppParams,
        trace: &'a Trace,
        mem: MemoryConfig,
    ) -> Self {
        Self::with_fingerprint(app, combo, params, trace, fingerprint_trace(trace), mem)
    }

    /// Builds a materialized-trace unit with a precomputed trace
    /// fingerprint.
    #[must_use]
    pub fn with_fingerprint(
        app: AppKind,
        combo: Combo,
        params: &'a AppParams,
        trace: &'a Trace,
        trace_fp: u64,
        mem: MemoryConfig,
    ) -> Self {
        Self::from_source(
            app,
            combo,
            params,
            TraceSource::Materialized(trace),
            trace_fp,
            mem,
        )
    }

    /// Builds a streamed unit, fingerprinting the workload spec (cheap —
    /// constant in the packet count). When many units share one spec,
    /// prefer [`SimUnit::from_source`] with a precomputed fingerprint.
    #[must_use]
    pub fn streamed(
        app: AppKind,
        combo: Combo,
        params: &'a AppParams,
        spec: &'a StreamSpec,
        mem: MemoryConfig,
    ) -> Self {
        Self::from_source(
            app,
            combo,
            params,
            TraceSource::Streamed(spec),
            fingerprint_stream_spec(spec),
            mem,
        )
    }

    /// Builds a unit from an explicit source and its precomputed
    /// fingerprint.
    #[must_use]
    pub fn from_source(
        app: AppKind,
        combo: Combo,
        params: &'a AppParams,
        source: TraceSource<'a>,
        trace_fp: u64,
        mem: MemoryConfig,
    ) -> Self {
        SimUnit {
            app,
            combo,
            params,
            source,
            trace_fp,
            mem,
        }
    }

    /// The unit's content-addressed cache key.
    #[must_use]
    pub fn key(&self) -> CacheKey {
        CacheKey::for_network(
            self.app,
            self.combo,
            self.params,
            self.source.network(),
            self.trace_fp,
            &self.mem,
        )
    }

    /// Runs this unit's simulation (used by the engine's worker pool),
    /// over `shared` when the batch materialized the unit's spec, with a
    /// lane per configuration of `lanes`: this unit's own first, then
    /// those of units that differ from it only in the L2. Returns one log
    /// per lane.
    fn simulate(&self, lanes: Vec<MemoryConfig>, shared: Option<&Trace>) -> Vec<SimLog> {
        let sim = Simulator::with_lanes(lanes);
        match (self.source, shared) {
            (TraceSource::Materialized(trace), _) | (TraceSource::Streamed(_), Some(trace)) => {
                sim.run_lanes(self.app, self.combo, self.params, trace)
            }
            (TraceSource::Streamed(spec), None) => {
                sim.run_spec_lanes(self.app, self.combo, self.params, spec)
            }
        }
    }
}

/// The simulation-execution engine: owns the worker pool and the result
/// cache, and evaluates batches of [`SimUnit`]s with deterministic result
/// ordering.
///
/// # Example
///
/// ```
/// use ddtr_engine::{EngineConfig, ExploreEngine, SimUnit};
/// use ddtr_apps::{AppKind, AppParams};
/// use ddtr_ddt::DdtKind;
/// use ddtr_mem::MemoryConfig;
/// use ddtr_trace::NetworkPreset;
///
/// let trace = NetworkPreset::DartmouthBerry.generate(40);
/// let params = AppParams::default();
/// let units = vec![
///     SimUnit::new(AppKind::Drr, [DdtKind::Array, DdtKind::Sll], &params, &trace,
///                  MemoryConfig::embedded_default()),
///     SimUnit::new(AppKind::Drr, [DdtKind::Array, DdtKind::Sll], &params, &trace,
///                  MemoryConfig::embedded_default()),
/// ];
/// let mut engine = ExploreEngine::in_memory();
/// let logs = engine.evaluate_batch(&units);
/// assert_eq!(logs.len(), 2);
/// assert_eq!(engine.stats().misses, 1, "duplicate unit deduplicated");
/// ```
pub struct ExploreEngine {
    cfg: EngineConfig,
    cache: Arc<Mutex<SimCache>>,
    pool: Option<Arc<JobsPool>>,
    control: BatchControl,
}

impl fmt::Debug for ExploreEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreEngine")
            .field("cfg", &self.cfg)
            .field("pooled", &self.pool.is_some())
            .field("control", &self.control)
            .finish()
    }
}

impl ExploreEngine {
    /// Opens the cache an [`EngineConfig`] describes (persistent when it
    /// names a directory, in-memory otherwise).
    pub(crate) fn open_cache(cfg: &EngineConfig) -> Result<SimCache, EngineError> {
        match (&cfg.cache_dir, cfg.no_cache) {
            (Some(dir), false) => SimCache::open(dir)
                .map_err(|e| EngineError(format!("cache dir {}: {e}", dir.display()))),
            _ => Ok(SimCache::in_memory()),
        }
    }

    /// Creates an engine, opening the persistent cache when the
    /// configuration names a directory.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the cache directory cannot be created
    /// or its store cannot be read.
    pub fn new(cfg: EngineConfig) -> Result<Self, EngineError> {
        let cache = Self::open_cache(&cfg)?;
        Ok(ExploreEngine {
            cfg,
            cache: Arc::new(Mutex::new(cache)),
            pool: None,
            control: BatchControl::new(),
        })
    }

    /// An engine bound to a session's shared cache and jobs pool (see
    /// [`crate::EngineSession`]).
    pub(crate) fn for_session(
        cfg: EngineConfig,
        cache: &Arc<Mutex<SimCache>>,
        pool: &Arc<JobsPool>,
        control: BatchControl,
    ) -> Self {
        ExploreEngine {
            cfg,
            cache: Arc::clone(cache),
            pool: Some(Arc::clone(pool)),
            control,
        }
    }

    /// An engine with default parallelism and a purely in-memory cache —
    /// never fails.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::new(EngineConfig::default()).expect("in-memory engine cannot fail")
    }

    /// An in-memory engine with an explicit worker count (`0` = auto).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Self::new(EngineConfig::with_jobs(jobs)).expect("in-memory engine cannot fail")
    }

    /// The worker count batches will use (resolved from the configured
    /// `jobs`).
    #[must_use]
    pub fn jobs(&self) -> usize {
        effective_jobs(self.cfg.jobs)
    }

    /// The cache counters so far (shared across every engine of a session).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.lock().expect("engine cache poisoned").stats()
    }

    /// The engine's batch controller (cancellation + progress counters).
    #[must_use]
    pub fn control(&self) -> &BatchControl {
        &self.control
    }

    /// Replaces the engine's batch controller. Subsequent batches honour
    /// the new controller's cancellation token and report progress to its
    /// observer.
    pub fn set_control(&mut self, control: BatchControl) {
        self.control = control;
    }

    /// Evaluates a batch of simulation units and returns one log per unit,
    /// **in input order**.
    ///
    /// Cached units are answered without simulating; duplicate units within
    /// the batch execute once; the remaining misses run on the engine's
    /// work-stealing pool. Misses that differ only in their L2 (same
    /// application, combination, parameters, source and network, and
    /// equal [`MemoryConfig::lane_base`]s) run as one pass, a lane each,
    /// and are keyed, stored and counted one by one, so a partly cached
    /// group runs only its missing lanes. A streamed spec of at most
    /// [`MATERIALIZE_MAX_PACKETS`] packets that some miss runs on is
    /// generated once and shared by all of them. Equal batches therefore
    /// produce byte-identical results at any worker count, and a warm
    /// cache turns re-exploration into pure lookups.
    ///
    /// # Panics
    ///
    /// Panics if the engine's [`BatchControl`] is cancelled — callers that
    /// attach a cancellable control must use [`Self::try_evaluate_batch`].
    pub fn evaluate_batch(&mut self, units: &[SimUnit]) -> Vec<SimLog> {
        self.try_evaluate_batch(units)
            .expect("batch cancelled: use try_evaluate_batch with a cancellable control")
    }

    /// [`Self::evaluate_batch`], abandoning the batch early when the
    /// engine's [`BatchControl`] is cancelled.
    ///
    /// Cancellation is cooperative and unit-granular: the in-flight
    /// simulations finish, no further ones start, and `Err(`[`Cancelled`]`)`
    /// is returned. Results executed before the cancellation are still
    /// recorded in the (session-shared) cache, so a re-submitted request
    /// resumes instead of starting over.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the control's token fired before or
    /// during the batch.
    pub fn try_evaluate_batch(&mut self, units: &[SimUnit]) -> Result<Vec<SimLog>, Cancelled> {
        if self.control.is_cancelled() {
            return Err(Cancelled);
        }
        let _batch_span = ddtr_obs::Span::enter(ddtr_obs::names::ENGINE_BATCH);
        let keys: Vec<CacheKey> = units.iter().map(SimUnit::key).collect();
        let ids: Vec<String> = keys.iter().map(CacheKey::id).collect();
        let mut results: Vec<Option<SimLog>> = vec![None; units.len()];
        self.control.add_total(units.len());
        // Resolve cross-batch hits and pick one executor per distinct id.
        let schedule_span = ddtr_obs::Span::enter(ddtr_obs::names::ENGINE_SCHEDULE);
        let mut to_run: Vec<usize> = Vec::new();
        let mut scheduled: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut hits = 0;
        {
            let mut cache = self.cache.lock().expect("engine cache poisoned");
            for (i, id) in ids.iter().enumerate() {
                if !self.cfg.no_cache {
                    if let Some(log) = cache.get(id) {
                        results[i] = Some(log);
                        hits += 1;
                        continue;
                    }
                }
                if scheduled.insert(id.as_str()) {
                    to_run.push(i);
                }
            }
        }
        // Misses that differ only in their L2 run as the lanes of one
        // pass. Passes keep the order of their first unit; the map serves
        // lookups only.
        let mut passes: Vec<Vec<usize>> = Vec::new();
        let mut pass_of: HashMap<u128, usize> = HashMap::new();
        for &i in &to_run {
            let pass = *pass_of
                .entry(keys[i].pass_digest(&units[i].mem))
                .or_insert_with(|| {
                    passes.push(Vec::new());
                    passes.len() - 1
                });
            passes[pass].push(i);
        }
        drop(schedule_span);
        self.control.add_hits(hits);
        // Generate each small missed spec once for all its units; the map
        // serves lookups only, so its order never reaches a result.
        let mut shared: HashMap<u64, Trace> = HashMap::new();
        for &i in &to_run {
            if let TraceSource::Streamed(spec) = units[i].source {
                if spec.total_packets() <= MATERIALIZE_MAX_PACKETS {
                    shared
                        .entry(units[i].trace_fp)
                        .or_insert_with(|| spec.materialize());
                }
            }
        }
        // Execute the passes in parallel, deterministically ordered. Each
        // pass takes a permit from the session's FIFO pool (when bound to
        // one), so concurrent requests interleave at pass granularity, and
        // checks the cancel token so an abandoned batch stops promptly.
        let control = &self.control;
        let pool = self.pool.as_deref();
        let executed_counter = ddtr_obs::counter(ddtr_obs::names::ENGINE_SIM_EXECUTED);
        let passes_counter = ddtr_obs::counter(ddtr_obs::names::ENGINE_SIM_PASSES);
        let execute_span = ddtr_obs::Span::enter(ddtr_obs::names::ENGINE_EXECUTE);
        let executed: Vec<Option<Vec<SimLog>>> = run_ordered(&passes, self.cfg.jobs, |pass| {
            if control.is_cancelled() {
                return None;
            }
            let permit = pool.map(JobsPool::acquire);
            if control.is_cancelled() {
                return None;
            }
            let lead = &units[pass[0]];
            let lanes = pass.iter().map(|&i| units[i].mem).collect();
            let logs = lead.simulate(lanes, shared.get(&lead.trace_fp));
            // Release the session permit before reporting progress: the
            // observer may block (e.g. writing to a slow client), and a
            // held permit would stall every other request of the session.
            drop(permit);
            control.add_executed(pass.len());
            executed_counter.add(pass.len() as u64);
            passes_counter.inc();
            Some(logs)
        });
        drop(execute_span);
        let mut cancelled = false;
        for (pass, logs) in passes.iter().zip(executed) {
            match logs {
                Some(logs) => {
                    for (&i, log) in pass.iter().zip(logs) {
                        results[i] = Some(log);
                    }
                }
                None => cancelled = true,
            }
        }
        // Record the executions in unit order (even on a cancelled batch —
        // completed work stays reusable). With caching disabled,
        // executions are counted but never retained.
        {
            let mut cache = self.cache.lock().expect("engine cache poisoned");
            for &i in &to_run {
                let Some(log) = &results[i] else { continue };
                if self.cfg.no_cache {
                    cache.note_miss();
                } else {
                    cache.insert(&keys[i], log.clone());
                }
            }
        }
        if cancelled {
            return Err(Cancelled);
        }
        // Duplicates of executed units resolve by identity; count them
        // done.
        self.control.add_resolved(units.len() - hits - to_run.len());
        let executor: HashMap<&str, usize> = to_run.iter().map(|&i| (ids[i].as_str(), i)).collect();
        for i in 0..units.len() {
            if results[i].is_none() {
                results[i] = results[executor[ids[i].as_str()]].clone();
            }
        }
        Ok(results
            .into_iter()
            .map(|log| log.expect("every unit is a hit, an execution or a duplicate"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_ddt::DdtKind;
    use ddtr_trace::NetworkPreset;

    fn units_for<'a>(
        trace: &'a Trace,
        params: &'a AppParams,
        combos: &[Combo],
    ) -> Vec<SimUnit<'a>> {
        let fp = fingerprint_trace(trace);
        combos
            .iter()
            .map(|&combo| {
                SimUnit::with_fingerprint(
                    AppKind::Drr,
                    combo,
                    params,
                    trace,
                    fp,
                    MemoryConfig::embedded_default(),
                )
            })
            .collect()
    }

    fn combos() -> Vec<Combo> {
        vec![
            [DdtKind::Array, DdtKind::Array],
            [DdtKind::Sll, DdtKind::Sll],
            [DdtKind::Array, DdtKind::Dll],
            [DdtKind::DllRov, DdtKind::SllChunk],
        ]
    }

    #[test]
    fn batch_results_match_direct_simulation_in_order() {
        let trace = NetworkPreset::DartmouthBerry.generate(50);
        let params = AppParams::default();
        let units = units_for(&trace, &params, &combos());
        let mut engine = ExploreEngine::with_jobs(3);
        let logs = engine.evaluate_batch(&units);
        let sim = Simulator::new(MemoryConfig::embedded_default());
        for (unit, log) in units.iter().zip(&logs) {
            let direct = sim.run(unit.app, unit.combo, unit.params, &trace);
            assert_eq!(log.combo, direct.combo);
            assert_eq!(log.report.accesses, direct.report.accesses);
            assert_eq!(log.report.cycles, direct.report.cycles);
        }
    }

    #[test]
    fn streamed_units_match_materialized_units_and_cache_by_spec() {
        use ddtr_trace::StreamSpec;
        let preset = NetworkPreset::DartmouthBerry;
        let trace = preset.generate(50);
        let params = AppParams::default();
        let materialized = units_for(&trace, &params, &combos());
        let mut spec = preset.spec();
        spec.name = trace.network.clone();
        let stream = StreamSpec::single(spec, 50).expect("valid");
        let streamed: Vec<SimUnit> = combos()
            .iter()
            .map(|&combo| {
                SimUnit::streamed(
                    AppKind::Drr,
                    combo,
                    &params,
                    &stream,
                    MemoryConfig::embedded_default(),
                )
            })
            .collect();
        let mut engine = ExploreEngine::with_jobs(2);
        let a = engine.evaluate_batch(&materialized);
        let b = engine.evaluate_batch(&streamed);
        assert_eq!(
            serde_json::to_string(&a).expect("ser"),
            serde_json::to_string(&b).expect("ser"),
            "streamed batch must be byte-identical to the materialized one"
        );
        // The two paths have distinct (domain-separated) cache keys, so
        // the streamed batch executed rather than replaying trace entries…
        assert_eq!(engine.stats().misses, 2 * combos().len());
        // …but a second streamed batch is answered purely from the cache.
        engine.evaluate_batch(&streamed);
        assert_eq!(engine.stats().misses, 2 * combos().len());
        assert_eq!(engine.stats().hits, combos().len());
    }

    #[test]
    fn shared_specs_on_both_sides_of_the_materialize_limit_match_run_spec() {
        use ddtr_trace::StreamSpec;
        let params = AppParams::default();
        let mem = MemoryConfig::embedded_default();
        for packets in [MATERIALIZE_MAX_PACKETS, MATERIALIZE_MAX_PACKETS + 1] {
            let spec = StreamSpec::single(NetworkPreset::NlanrAix.spec(), packets).expect("valid");
            let units: Vec<SimUnit> = combos()[..2]
                .iter()
                .map(|&combo| SimUnit::streamed(AppKind::Route, combo, &params, &spec, mem))
                .collect();
            let sim = Simulator::new(mem);
            let direct: Vec<String> = units
                .iter()
                .map(|u| serde_json::to_string(&sim.run_spec(u.app, u.combo, &params, &spec)))
                .collect::<Result<_, _>>()
                .expect("ser");
            for jobs in [1, 2, 8] {
                let got: Vec<String> = ExploreEngine::with_jobs(jobs)
                    .evaluate_batch(&units)
                    .iter()
                    .map(serde_json::to_string)
                    .collect::<Result<_, _>>()
                    .expect("ser");
                assert_eq!(got, direct, "{packets} packets at jobs={jobs}");
            }
        }
    }

    #[test]
    fn streamed_unit_key_is_constant_in_packet_count() {
        use ddtr_trace::StreamSpec;
        let params = AppParams::default();
        let spec_small =
            StreamSpec::single(NetworkPreset::DartmouthBerry.spec(), 100).expect("valid");
        let spec_large =
            StreamSpec::single(NetworkPreset::DartmouthBerry.spec(), 1_000_000).expect("valid");
        let unit = |s| {
            SimUnit::streamed(
                AppKind::Drr,
                [DdtKind::Array, DdtKind::Sll],
                &params,
                s,
                MemoryConfig::embedded_default(),
            )
        };
        // Keying a million-packet workload is instant — nothing is
        // generated or hashed per packet — and the packet count is still
        // part of the identity.
        assert_ne!(unit(&spec_small).key().id(), unit(&spec_large).key().id());
    }

    #[test]
    fn lane_groups_match_per_preset_batches_and_run_only_missing_lanes() {
        use crate::session::{BatchControl, EngineSession};
        use ddtr_mem::MemoryPreset;
        use ddtr_trace::StreamSpec;
        let spec = StreamSpec::single(NetworkPreset::DartmouthBerry.spec(), 60).expect("valid");
        let params = AppParams::default();
        let (params, spec) = (&params, &spec);
        let units_on = |presets: &[MemoryPreset]| -> Vec<SimUnit> {
            presets
                .iter()
                .flat_map(|p| {
                    let mem = p.config();
                    combos()
                        .into_iter()
                        .map(move |combo| SimUnit::streamed(AppKind::Drr, combo, params, spec, mem))
                })
                .collect()
        };
        let json = |logs: Vec<SimLog>| -> Vec<String> {
            logs.iter()
                .map(serde_json::to_string)
                .collect::<Result<_, _>>()
                .expect("ser")
        };
        // One preset per batch: every unit runs alone.
        let reference: Vec<String> = MemoryPreset::ALL
            .iter()
            .flat_map(|&p| json(ExploreEngine::with_jobs(1).evaluate_batch(&units_on(&[p]))))
            .collect();
        // Every preset in one batch: embedded, l2 and l2-small share passes.
        let mixed = units_on(&MemoryPreset::ALL);
        for jobs in [1, 2, 8] {
            let got = json(ExploreEngine::with_jobs(jobs).evaluate_batch(&mixed));
            assert_eq!(got, reference, "jobs={jobs}");
        }
        // With the l2 lane cached, the group runs only its other lanes.
        let session = EngineSession::new(EngineConfig::with_jobs(2)).expect("session");
        session
            .engine()
            .evaluate_batch(&units_on(&[MemoryPreset::L2]));
        let control = BatchControl::new();
        let got = json(session.engine_with(control.clone()).evaluate_batch(&mixed));
        assert_eq!(got, reference);
        let progress = control.progress();
        assert_eq!(progress.hits, combos().len());
        assert_eq!(progress.executed, 4 * combos().len());
    }

    #[test]
    fn second_batch_is_all_hits() {
        let trace = NetworkPreset::NlanrAix.generate(40);
        let params = AppParams::default();
        let units = units_for(&trace, &params, &combos());
        let mut engine = ExploreEngine::in_memory();
        let first = engine.evaluate_batch(&units);
        assert_eq!(engine.stats().misses, units.len());
        let second = engine.evaluate_batch(&units);
        let stats = engine.stats();
        assert_eq!(stats.misses, units.len(), "no re-execution");
        assert_eq!(stats.hits, units.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.report.accesses, b.report.accesses);
        }
    }

    #[test]
    fn no_cache_engine_still_deduplicates_within_a_batch() {
        let trace = NetworkPreset::DartmouthBerry.generate(30);
        let params = AppParams::default();
        let mut both = combos();
        both.extend(combos()); // every unit duplicated
        let units = units_for(&trace, &params, &both);
        let mut engine = ExploreEngine::new(EngineConfig {
            no_cache: true,
            ..EngineConfig::default()
        })
        .expect("engine");
        let logs = engine.evaluate_batch(&units);
        assert_eq!(logs.len(), 8);
        assert_eq!(engine.stats().misses, 4, "four distinct units executed");
        for (a, b) in logs[..4].iter().zip(&logs[4..]) {
            assert_eq!(a.report.accesses, b.report.accesses);
        }
        // And across batches nothing is remembered.
        engine.evaluate_batch(&units);
        assert_eq!(engine.stats().hits, 0);
        assert_eq!(engine.stats().entries, 0, "no_cache retains nothing");
        assert_eq!(engine.stats().misses, 8, "both batches executed in full");
    }

    #[test]
    fn results_are_identical_at_any_worker_count() {
        let trace = NetworkPreset::DartmouthBerry.generate(60);
        let params = AppParams::default();
        let units = units_for(&trace, &params, &combos());
        let reference: Vec<String> = ExploreEngine::with_jobs(1)
            .evaluate_batch(&units)
            .iter()
            .map(|l| serde_json::to_string(l).expect("ser"))
            .collect();
        for jobs in [2, 8] {
            let got: Vec<String> = ExploreEngine::with_jobs(jobs)
                .evaluate_batch(&units)
                .iter()
                .map(|l| serde_json::to_string(l).expect("ser"))
                .collect();
            assert_eq!(got, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn cancelled_control_aborts_batches_but_session_stays_usable() {
        use crate::session::{BatchControl, EngineSession};
        let trace = NetworkPreset::DartmouthBerry.generate(30);
        let params = AppParams::default();
        let units = units_for(&trace, &params, &combos());
        let session = EngineSession::new(EngineConfig::with_jobs(1)).expect("session");
        let control = BatchControl::new();
        let mut engine = session.engine_with(control.clone());
        control.cancel();
        assert!(matches!(
            engine.try_evaluate_batch(&units),
            Err(crate::Cancelled)
        ));
        // A fresh engine on the same session is unaffected.
        let logs = session.engine().evaluate_batch(&units);
        assert_eq!(logs.len(), units.len());
    }

    #[test]
    fn control_counts_progress_including_cache_hits_and_duplicates() {
        use crate::session::{BatchControl, BatchProgress, EngineSession};
        let trace = NetworkPreset::DartmouthBerry.generate(30);
        let params = AppParams::default();
        let mut both = combos();
        both.extend(combos()); // duplicates resolve without executing
        let units = units_for(&trace, &params, &both);
        let session = EngineSession::new(EngineConfig::with_jobs(2)).expect("session");
        let control = BatchControl::new();
        let mut engine = session.engine_with(control.clone());
        engine.evaluate_batch(&units);
        assert_eq!(
            control.progress(),
            BatchProgress {
                done: 8,
                total: 8,
                executed: 4,
                hits: 0
            }
        );
        // A second engine with its own control sees only its own progress —
        // all hits this time, resolved instantly.
        let control2 = BatchControl::new();
        let mut warm = session.engine_with(control2.clone());
        warm.evaluate_batch(&units);
        assert_eq!(
            control2.progress(),
            BatchProgress {
                done: 8,
                total: 8,
                executed: 0,
                hits: 8
            }
        );
        assert_eq!(session.stats().misses, 4, "warm batch executed nothing");
    }

    #[test]
    fn persistent_engine_replays_across_instances() {
        let tmp = crate::testing::TempCacheDir::new("engine-replay");
        let trace = NetworkPreset::DartmouthBerry.generate(40);
        let params = AppParams::default();
        let units = units_for(&trace, &params, &combos());
        let cfg = EngineConfig {
            cache_dir: Some(tmp.path().to_path_buf()),
            ..EngineConfig::default()
        };
        let cold = ExploreEngine::new(cfg.clone())
            .expect("cold engine")
            .evaluate_batch(&units);
        let mut warm_engine = ExploreEngine::new(cfg).expect("warm engine");
        let warm = warm_engine.evaluate_batch(&units);
        let stats = warm_engine.stats();
        assert_eq!(stats.loaded, units.len());
        assert_eq!(stats.misses, 0, "warm run executes nothing");
        assert_eq!(stats.hits, units.len());
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.report.accesses, b.report.accesses);
            assert_eq!(a.report.energy_nj, b.report.energy_nj);
        }
    }
}
