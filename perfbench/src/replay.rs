//! `replay-warm`: the `ddtr explore <app>` re-run case. The paper
//! explores of all five applications are answered, in seed-shuffled
//! order, from a warm on-disk store by a fresh `ExploreEngine` each —
//! users pay the store open and lazy index build on every re-run, so both
//! stay inside the timing. Every input is shared with an earlier run:
//! nothing is simulated except each request's uncached profile run.
//! `engine.miss`, `core.cell` and the store's appends are not exercised
//! here.

use crate::digest;
use crate::probes::{
    engine_probe, obs_counters, profile_probe, same_report, store_stats, traced_explore,
};
use crate::stats::{median, nanos, per_second, setup_samples, Latency, Rng};
use crate::tracer::Tracer;
use crate::{Ctx, EndToEnd, Report};
use ddtr_apps::AppKind;
use ddtr_core::{dispatch_with, ExploreRequest, ExploreResult, MethodologyConfig};
use ddtr_engine::{EngineConfig, ExploreEngine, SimCache};
use std::path::{Path, PathBuf};
use std::time::Instant;

const NAME: &str = "replay-warm";

/// Domain tag of this workload's seed stream.
const TAG: u64 = 0x5245_504c_4159;

/// Set-up processes per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Populations of a fresh store per run, the set-up's included; every
/// cold explore of each is timed for `cold_p50_ms`.
const COLD_ROUNDS: usize = 3;

/// Warm re-runs per run, in seed-shuffled order.
const REQUESTS: usize = 2000;

/// Warm re-runs the traced pass composes step by step.
const TRACED_REQUESTS: usize = 300;

/// Profile simulations per application the traced pass decomposes.
const PROFILE_PROBES: usize = 3;

/// The five paper explores this seed asks for: `AppParams.seed` of every
/// parameter variant drawn from the workload seed.
fn configs(seed: u64) -> Vec<MethodologyConfig> {
    let param_seed = Rng::new(seed, TAG).next_u64();
    AppKind::EXTENDED_ALL
        .iter()
        .map(|&app| {
            let mut cfg = MethodologyConfig::paper(app);
            for params in &mut cfg.param_variants {
                params.seed = param_seed;
            }
            cfg
        })
        .collect()
}

fn engine_cfg(dir: &Path, jobs: usize) -> EngineConfig {
    EngineConfig {
        jobs,
        cache_dir: Some(dir.to_path_buf()),
        no_cache: false,
    }
}

/// One `ddtr explore <app> --json` run: open the engine on the store,
/// dispatch, encode the result, close.
fn explore_once(
    cfg: &EngineConfig,
    request: &ExploreRequest,
) -> Result<(ExploreResult, usize), String> {
    let mut engine = ExploreEngine::new(cfg.clone()).map_err(|e| e.to_string())?;
    let result = dispatch_with(&mut engine, request).map_err(|e| e.to_string())?;
    let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    Ok((result, json.len()))
}

/// Simulations a result executed (0 for a warm answer).
fn executed(result: &ExploreResult) -> usize {
    match result {
        ExploreResult::Explore(o) => o.engine.executed,
        _ => usize::MAX,
    }
}

/// A store populated by the five cold explores.
struct Warm {
    dir: PathBuf,
    requests: Vec<ExploreRequest>,
    /// Result digest per request.
    digests: Vec<u64>,
    /// Wall time of each cold explore.
    cold_ns: Vec<u64>,
}

/// Populates a fresh store under `dir` with the five cold explores.
fn populate(ctx: &Ctx, dir: PathBuf) -> Result<Warm, String> {
    let requests: Vec<ExploreRequest> = configs(ctx.seed)
        .into_iter()
        .map(ExploreRequest::Explore)
        .collect();
    let cfg = engine_cfg(&dir, ctx.jobs);
    let mut digests = Vec::with_capacity(requests.len());
    let mut cold_ns = Vec::with_capacity(requests.len());
    for request in &requests {
        let start = Instant::now();
        let (result, _) = explore_once(&cfg, request)?;
        cold_ns.push(nanos(start.elapsed()));
        digests.push(digest::result(&result));
    }
    Ok(Warm {
        dir,
        requests,
        digests,
        cold_ns,
    })
}

/// One set-up in a process of its own (see `stats::setup_samples`).
///
/// # Errors
///
/// A cold explore that failed.
pub fn setup_only(ctx: &Ctx) -> Result<(), String> {
    let warm = populate(ctx, ctx.work.join("replay"))?;
    println!("ready");
    let _ = std::fs::remove_dir_all(&warm.dir);
    Ok(())
}

/// Runs the workload: the set-up processes, this process's own set-up
/// (a store populated by the five cold explores), `COLD_ROUNDS - 1` more
/// populations of fresh stores, the timed re-runs on the set-up's
/// store, then (with `--trace 1`) the traced re-runs and probes.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let setups = setup_samples(NAME, ctx.seed, SETUPS)?;
    let warm = populate(ctx, ctx.work.join("replay"))?;
    let mut cold_ns = warm.cold_ns.clone();
    for round in 1..COLD_ROUNDS {
        let again = populate(ctx, ctx.work.join(format!("replay-cold-{round}")))?;
        report.check(again.digests == warm.digests, || {
            format!("cold round {round} produced different results from the set-up's")
        });
        cold_ns.extend(again.cold_ns);
        let _ = std::fs::remove_dir_all(&again.dir);
    }
    report.check_golden(
        NAME,
        ctx.seed,
        digest::combine(warm.digests.iter().copied()),
    );

    let mut order: Vec<usize> = (0..REQUESTS).map(|i| i % warm.requests.len()).collect();
    Rng::new(ctx.seed, TAG ^ 2).shuffle(&mut order);
    let cfg = engine_cfg(&warm.dir, ctx.jobs);
    let packets = configs(ctx.seed)[0].packets_per_sim as f64;
    let mut latency = Vec::with_capacity(REQUESTS);
    let mut bytes = Vec::new();
    let loop_start = Instant::now();
    for (i, &app) in order.iter().enumerate() {
        let start = Instant::now();
        let outcome = explore_once(&cfg, &warm.requests[app]);
        let ns = nanos(start.elapsed());
        report.attempted += 1;
        match outcome {
            Ok((result, size)) => {
                let ran = executed(&result);
                let got = digest::result(&result);
                if ran != 0 {
                    report.fail(
                        1,
                        format!("request {i}: warm explore executed {ran} simulations"),
                    );
                } else if got != warm.digests[app] {
                    report.fail(
                        1,
                        format!(
                            "request {i}: digest {got:016x} != cold {:016x}",
                            warm.digests[app]
                        ),
                    );
                } else {
                    latency.push(ns);
                    bytes.push(size as f64);
                }
            }
            Err(e) => report.fail(1, format!("request {i}: {e}")),
        }
    }
    let wall_ns = nanos(loop_start.elapsed());
    // Nothing executed: each completed request ran its uncached profile only.
    let done = latency.len() as f64;
    let lat = Latency::from_ns(latency);
    report.e2e = EndToEnd {
        setup_s: median(&setups),
        sim_pkts_per_s: per_second(done * packets, wall_ns),
        req_per_s: per_second(done, wall_ns),
        p50_ms: lat.p50_ms,
        tail_ms: lat.tail_ms,
        tail_pct: lat.tail_pct,
        samples: lat.count,
        cold_p50_ms: Latency::from_ns(cold_ns).p50_ms,
    };
    report.note(
        "operations",
        format!(
            "{SETUPS} set-up processes; {COLD_ROUNDS} populations x {} cold explores; {REQUESTS} warm re-runs \
             (requests) in seed-shuffled order; jobs={}",
            warm.requests.len(),
            ctx.jobs
        ),
    );
    report.note(
        "definitions",
        format!(
            "rates = work / wall time of the re-run loop; sim_pkts_per_s counts each re-run's profile \
             packets; cold_p50_ms = the populations' cold explores; median result {:.1} kB",
            median(&bytes) / 1000.0
        ),
    );
    if ctx.trace {
        traced(ctx, &warm, &order, &mut report)?;
    }
    let _ = std::fs::remove_dir_all(&warm.dir);
    Ok(report)
}

/// The traced pass: the first [`TRACED_REQUESTS`] re-runs composed step
/// by step; then per application, on the same warm store, the engine's
/// hit path and store reads, and the profile simulation decomposed.
fn traced(ctx: &Ctx, warm: &Warm, order: &[usize], report: &mut Report) -> Result<(), String> {
    let t = Tracer::new();
    let (dir, requests, digests) = (&warm.dir, &warm.requests, &warm.digests);
    let cfg = engine_cfg(dir, ctx.jobs);
    let (hits0, exec0) = obs_counters();
    let mut mismatches = 0;
    let composed = TRACED_REQUESTS.min(order.len());
    for (i, &app) in order.iter().take(composed).enumerate() {
        let ExploreRequest::Explore(explore) = &requests[app] else {
            continue;
        };
        let req = i as u64;
        let outcome = t.span("bench.request", req, 1.0, || {
            let mut engine = t
                .span("store.open", req, 1.0, || ExploreEngine::new(cfg.clone()))
                .map_err(|e| e.to_string())?;
            traced_explore(&t, req, explore, &mut engine).map_err(|e| e.to_string())
        });
        match outcome {
            Ok((result, _)) => mismatches += usize::from(digest::result(&result) != digests[app]),
            Err(_) => mismatches += 1,
        }
    }
    let (hits1, exec1) = obs_counters();
    report.check(mismatches == 0, || {
        format!("{mismatches} composed re-runs differ from dispatch_with's results")
    });
    let own_hits: f64 = t.values("engine.hits").iter().sum();
    let own_executed: f64 = t.values("engine.executed").iter().sum();
    report.check(
        (hits1 - hits0) as f64 == own_hits && (exec1 - exec0) as f64 == own_executed,
        || {
            format!(
                "obs counters (hits {}, executed {}) disagree with the engine's ({own_hits}, {own_executed})",
                hits1 - hits0,
                exec1 - exec0
            )
        },
    );
    let traced_p50 = t.ns_per_unit("bench.request").unwrap_or(0.0) / 1e6;
    t.value(
        "tracing.overhead_pct",
        (traced_p50 / report.e2e.p50_ms - 1.0) * 100.0,
    );
    report.note(
        "end-to-end (traced)",
        format!("p50_ms={traced_p50:.3} over {composed} composed re-runs"),
    );

    // Per application, on the same warm store: step 1's batch through a
    // fresh engine (disk hits), each of its results read back, and the
    // uncached profile simulation decomposed.
    let mut probes_ok = true;
    for (a, request) in requests.iter().enumerate() {
        let ExploreRequest::Explore(explore) = request else {
            continue;
        };
        let req = 1_000_000 + a as u64;
        let mut engine = t
            .span("store.open", req, 1.0, || ExploreEngine::new(cfg.clone()))
            .map_err(|e| e.to_string())?;
        let entries = engine_probe(&t, req, explore, &mut engine).map_err(|e| e.to_string())?;
        drop(engine);
        let ids: Vec<String> = entries.iter().map(|(key, _)| key.id()).collect();
        let mut cache = t
            .span("store.open", req, 1.0, || SimCache::open(dir))
            .map_err(|e| e.to_string())?;
        for ((_, log), id) in entries.iter().zip(&ids) {
            let got = t.span("store.get", req, 1.0, || cache.get(id));
            probes_ok &= got.is_some_and(|got| same_report(&got.report, &log.report));
        }
        for _ in 0..PROFILE_PROBES {
            probes_ok &= profile_probe(&t, req, explore);
        }
    }
    report.check(probes_ok, || {
        "a warm store read back a different result, or a decomposed profile differed".into()
    });
    store_stats(&t, dir).map_err(|e| e.to_string())?;
    crate::finish_trace(ctx, NAME, &t, report);
    Ok(())
}
