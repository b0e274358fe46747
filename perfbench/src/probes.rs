//! Layer probes of the traced pass: each calls one crate's public
//! functions the way the program itself does, inside the benchmark's own
//! spans, and checks that the decomposed call gives the program's answer.

use crate::layers::app_spans;
use crate::stats::nanos;
use crate::tracer::Tracer;
use ddtr_apps::{AppKind, AppParams};
use ddtr_core::{
    explore_application_level_with, explore_network_level_with, explore_pareto_level,
    profile_application, EngineReport, ExploreError, ExploreResult, MethodologyConfig,
    MethodologyOutcome, SimCounts,
};
use ddtr_ddt::DdtKind;
use ddtr_engine::{
    combos_from, fingerprint_trace, CacheKey, Cancelled, Combo, ExploreEngine, SimCache, SimLog,
    SimUnit, Simulator,
};
use ddtr_mem::{CostReport, MemoryConfig, MemorySystem};
use ddtr_pareto::pareto_front_indices;
use ddtr_trace::{StreamSpec, Trace};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A quick explore of `app` whose parameters carry `param_seed`: a
/// request no earlier run has seen.
pub fn fresh_quick(app: AppKind, param_seed: u64) -> MethodologyConfig {
    let mut cfg = MethodologyConfig::quick(app);
    cfg.param_variants[0].seed = param_seed;
    cfg
}

/// The profile simulation of an explore request, decomposed as
/// [`sim_probe`] does it: the reference trace, then the `SLL`/`SLL`
/// implementation over it with the first parameter variant, as
/// `profile_application` runs it. Returns whether the decomposed run and
/// the `Simulator` run agree bit for bit.
pub fn profile_probe(t: &Tracer, req: u64, cfg: &MethodologyConfig) -> bool {
    let trace = t.span("trace.gen", req, cfg.packets_per_sim as f64, || {
        cfg.reference_network.generate(cfg.packets_per_sim)
    });
    let params = &cfg.param_variants[0];
    let combo = [DdtKind::Sll, DdtKind::Sll];
    sim_probe(
        t,
        req,
        cfg.app,
        combo,
        params,
        Packets::Trace(&trace),
        cfg.mem,
    )
    .0
}

/// Bit-exact equality of two cost reports.
pub fn same_report(a: &CostReport, b: &CostReport) -> bool {
    a.accesses == b.accesses
        && a.cycles == b.cycles
        && a.energy_nj.to_bits() == b.energy_nj.to_bits()
        && a.peak_footprint_bytes == b.peak_footprint_bytes
}

/// Where a probed simulation's packets come from.
#[derive(Debug, Clone, Copy)]
pub enum Packets<'a> {
    /// A materialized trace (the explore pipeline's form).
    Trace(&'a Trace),
    /// A streamed workload (the sweep's form).
    Spec(&'a StreamSpec),
}

/// One simulation unit, decomposed: trace generation, application build
/// and per-packet processing, with the modelled memory counters recorded.
/// The same unit then runs through [`Simulator`] (`sim.run`), whose
/// report must equal the decomposed one bit for bit. Returns whether it
/// did, the `Simulator` run's host nanoseconds and its report.
pub fn sim_probe(
    t: &Tracer,
    req: u64,
    app: AppKind,
    combo: Combo,
    params: &AppParams,
    packets: Packets<'_>,
    mem_cfg: MemoryConfig,
) -> (bool, u64, CostReport) {
    let materialized;
    let trace = match packets {
        Packets::Trace(trace) => trace,
        Packets::Spec(spec) => {
            materialized = t.span("trace.gen", req, spec.total_packets() as f64, || {
                spec.materialize()
            });
            &materialized
        }
    };
    let n = trace.packets.len() as f64;
    let (build, per_packet) = app_spans(app);
    let mut mem = MemorySystem::new(mem_cfg);
    let mut instance = t.span(build, req, 1.0, || app.instantiate(combo, params, &mut mem));
    let before = mem.stats();
    t.span(per_packet, req, n, || {
        for pkt in &trace.packets {
            instance.process(pkt, &mut mem);
        }
    });
    let after = mem.stats();
    t.value("mem.packets", n);
    t.value(
        "mem.accesses",
        (after.accesses() - before.accesses()) as f64,
    );
    t.value("mem.allocs", (after.allocs - before.allocs) as f64);
    let l1 = mem.cache_stats();
    t.value("mem.l1.accesses", l1.accesses() as f64);
    t.value("mem.l1.misses", (l1.read_misses + l1.write_misses) as f64);
    if let Some(l2) = mem.l2_stats() {
        t.value("mem.l2.accesses", l2.accesses() as f64);
        t.value("mem.l2.misses", (l2.read_misses + l2.write_misses) as f64);
    }
    let decomposed = mem.report();
    let sim = Simulator::new(mem_cfg);
    let start = Instant::now();
    let log = t.span("sim.run", req, n, || match packets {
        Packets::Trace(trace) => sim.run(app, combo, params, trace),
        Packets::Spec(spec) => sim.run_spec(app, combo, params, spec),
    });
    let serial_ns = nanos(start.elapsed());
    if log.report.accesses > 0 {
        t.value("sim.access", serial_ns as f64 / log.report.accesses as f64);
    }
    (same_report(&decomposed, &log.report), serial_ns, log.report)
}

/// Records one evaluated batch under `engine.hit` or `engine.miss` (per
/// unit) by what the engine reports it did, plus the hit and executed
/// counts. A batch that mixed hits and misses is recorded as neither.
pub fn record_batch(
    t: &Tracer,
    req: u64,
    units: usize,
    (hits, executed): (usize, usize),
    start: Instant,
    end: Instant,
) {
    t.value("engine.hits", hits as f64);
    t.value("engine.executed", executed as f64);
    let name = match (hits, executed) {
        (_, 0) => "engine.hit",
        (0, _) => "engine.miss",
        _ => "engine.mixed",
    };
    t.record(name, req, units as f64, start, end);
}

/// Step 1's engine calls for `cfg`, one by one: reference-trace
/// generation, its fingerprint, the units' cache keys, the batch on
/// `engine` and the Pareto front of the batch. Returns the units' keys and
/// logs.
///
/// # Errors
///
/// [`Cancelled`] when the engine's control was cancelled.
pub fn engine_probe(
    t: &Tracer,
    req: u64,
    cfg: &MethodologyConfig,
    engine: &mut ExploreEngine,
) -> Result<Vec<(CacheKey, SimLog)>, Cancelled> {
    let packets = cfg.packets_per_sim;
    let trace = t.span("trace.gen", req, packets as f64, || {
        cfg.reference_network.generate(packets)
    });
    let fp = t.span("engine.trace_fp", req, 1.0, || fingerprint_trace(&trace));
    let params = &cfg.param_variants[0];
    let units: Vec<SimUnit> = combos_from(&cfg.candidates)
        .iter()
        .map(|&combo| SimUnit::with_fingerprint(cfg.app, combo, params, &trace, fp, cfg.mem))
        .collect();
    let keys: Vec<CacheKey> = t.span("engine.key", req, units.len() as f64, || {
        units
            .iter()
            .map(|u| {
                let key = u.key();
                black_box(key.id());
                key
            })
            .collect()
    });
    let before = engine.stats();
    let start = Instant::now();
    let logs = engine.try_evaluate_batch(&units)?;
    let end = Instant::now();
    let after = engine.stats();
    record_batch(
        t,
        req,
        units.len(),
        (after.hits - before.hits, after.misses - before.misses),
        start,
        end,
    );
    let points: Vec<[f64; 4]> = logs.iter().map(SimLog::objectives).collect();
    t.span("pareto.front", req, 1.0, || {
        black_box(pareto_front_indices(&points))
    });
    Ok(keys.into_iter().zip(logs).collect())
}

/// The result store, call by call: open a fresh store under `dir`, append
/// every entry, publish, reopen, and read every entry back. Returns
/// whether every entry read back equal.
///
/// # Errors
///
/// The store's I/O error.
pub fn store_probe(
    t: &Tracer,
    req: u64,
    dir: &Path,
    entries: &[(CacheKey, SimLog)],
) -> std::io::Result<bool> {
    let mut cache = t.span("store.open", req, 1.0, || SimCache::open(dir))?;
    for (key, log) in entries {
        t.span("store.append", req, 1.0, || cache.insert(key, log.clone()));
    }
    t.span("store.flush", req, 1.0, || cache.flush())?;
    drop(cache);
    let ids: Vec<String> = entries.iter().map(|(key, _)| key.id()).collect();
    let mut cache = t.span("store.open", req, 1.0, || SimCache::open(dir))?;
    let mut all_equal = true;
    for ((_, log), id) in entries.iter().zip(&ids) {
        let got = t.span("store.get", req, 1.0, || cache.get(id));
        all_equal &= got.is_some_and(|got| same_report(&got.report, &log.report));
    }
    Ok(all_equal)
}

/// Records the on-disk size per record, published records and corruption
/// findings of the store under `dir`.
///
/// # Errors
///
/// The store's I/O error.
pub fn store_stats(t: &Tracer, dir: &Path) -> std::io::Result<()> {
    let stats = SimCache::store_stats(dir)?;
    if stats.records > 0 {
        t.value(
            "store.bytes_per_record",
            stats.bytes as f64 / stats.records as f64,
        );
    }
    t.value("store.publishes", stats.records as f64);
    t.value("store.corrupt", stats.issues as f64);
    Ok(())
}

/// One explore request composed from the pipeline's public steps —
/// profile, step 1, step 2, step 3 — each in its own span, then encoded
/// as the CLI's `--json` output is. The same calls in the same order as
/// `Methodology::run_with`, so the result must digest equal to
/// `dispatch_with`'s. Returns the result and its encoded size in bytes.
///
/// # Errors
///
/// [`ExploreError`] from any step.
pub fn traced_explore(
    t: &Tracer,
    req: u64,
    cfg: &MethodologyConfig,
    engine: &mut ExploreEngine,
) -> Result<(ExploreResult, usize), ExploreError> {
    cfg.validate()?;
    let before = engine.stats();
    let profile = t.span("core.profile", req, 1.0, || profile_application(cfg))?;
    let step1 = t.span("core.step1", req, 1.0, || {
        explore_application_level_with(engine, cfg)
    })?;
    let step2 = t.span("core.step2", req, 1.0, || {
        explore_network_level_with(engine, cfg, &step1.survivor_combos())
    })?;
    let pareto = t.span("core.step3", req, 1.0, || explore_pareto_level(&step2))?;
    let after = engine.stats();
    let counts = SimCounts {
        exhaustive: cfg.exhaustive_simulations(),
        reduced: step1.measurements.len() + step2.simulations(),
        pareto_optimal: pareto.global_front.len(),
    };
    let result = ExploreResult::Explore(MethodologyOutcome {
        config: cfg.clone(),
        profile,
        step1,
        step2,
        pareto,
        counts,
        engine: EngineReport {
            jobs: engine.jobs(),
            cache_hits: after.hits - before.hits,
            executed: after.misses - before.misses,
        },
    });
    let json = t
        .span("core.encode", req, 1.0, || serde_json::to_string(&result))
        .map_err(|e| ExploreError::Log(format!("encode: {e}")))?;
    t.value("core.result_kb", json.len() as f64 / 1000.0);
    t.value("engine.hits", (after.hits - before.hits) as f64);
    t.value("engine.executed", (after.misses - before.misses) as f64);
    Ok((result, json.len()))
}

/// Counter values of the program's own metrics registry, for
/// cross-checking the benchmark's counts.
pub fn obs_counters() -> (u64, u64) {
    let snap = ddtr_obs::snapshot();
    let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (get("engine.cache.hit"), get("engine.sim.executed"))
}
